//! The whole suite: every workload untraced and traced, each run in a child
//! process of its own (so that peak memory and allocator state are per run),
//! checked against `BENCHMARK.json`; and the repeatability self-check, which
//! runs the suite twice and holds the two sets to the benchmark's own bounds.

use std::process::{Command, Stdio};

use crate::json::{self, Json};
use crate::workload::WORKLOADS;
use crate::{host, run, Cli};

pub struct SuiteResult {
    pub correct: bool,
    pub json: Json,
}

fn benchmark_spec() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    json::parse(&text)
}

/// Runs one workload in a child process and returns its parsed result line.
fn child_run(cli: &Cli, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--setups", &cli.setups.to_string()])
        .args(["--scale", &cli.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last)
        .map_err(|e| format!("{workload} (trace {trace}): no result line: {e}"))?;
    if !output.status.success() {
        eprintln!("{workload} (trace {trace}): exited with {}", output.status);
    }
    Ok(result)
}

/// The names `BENCHMARK.json` lists under `section`.
fn declared(spec: &Json, section: &str) -> Vec<String> {
    spec.get(section)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
        .collect()
}

pub fn run_all(cli: &Cli) -> Result<SuiteResult, ()> {
    let go = || -> Result<SuiteResult, String> {
        let spec = benchmark_spec()?;
        let mut correct = true;
        let mut workloads = Vec::new();
        for w in &WORKLOADS {
            let mut entry = Vec::new();
            for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
                println!("=== {} ({section}) ===", w.name);
                let result = child_run(cli, w.name, trace)?;
                correct &= result.get("correct") == Some(&Json::Bool(true));
                let metrics = result.get("metrics").cloned().unwrap_or(Json::Null);
                let mut got: Vec<String> =
                    metrics.fields().iter().map(|(k, _)| k.clone()).collect();
                let mut want = declared(&spec, section);
                got.sort();
                want.sort();
                if got != want {
                    return Err(format!(
                        "{}: the {section} metrics printed differ from BENCHMARK.json's\n printed: {got:?}\n declared: {want:?}",
                        w.name
                    ));
                }
                entry.push((section.to_string(), metrics));
                for key in ["attempted", "failed"] {
                    let n = result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                    entry.push((format!("{section}_{key}"), Json::Num(n)));
                }
            }
            workloads.push((w.name.to_string(), Json::Obj(entry)));
        }
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let json = Json::Obj(vec![
            ("seed".into(), Json::Num(cli.seed as f64)),
            ("seconds".into(), Json::Num(cli.seconds)),
            ("setups".into(), Json::Num(cli.setups as f64)),
            ("scale".into(), Json::Num(cli.scale)),
            (
                "host".into(),
                Json::Obj(vec![
                    ("nproc".into(), Json::Num(nproc as f64)),
                    ("kernel".into(), Json::Str(host::kernel())),
                    (
                        "filesystem".into(),
                        Json::Str(host::filesystem(std::path::Path::new(run::OUT_DIR))),
                    ),
                ]),
            ),
            ("correct".into(), Json::Bool(correct)),
            ("workloads".into(), Json::Obj(workloads)),
        ]);
        if let Some(path) = &cli.out {
            std::fs::write(path, json.render_pretty() + "\n")
                .map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        }
        if !correct {
            eprintln!("FAILED: some operation, reopen check or verify() was wrong");
        }
        Ok(SuiteResult { correct, json })
    };
    go().map_err(|e| eprintln!("macrobench: {e}"))
}

fn metric(set: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// Compares two suite results; returns the number of metrics out of bound.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> usize {
    let mut out_of_bound = 0;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for w in &WORKLOADS {
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let (name, better) = (field("name"), field("better"));
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(x), Some(y)) = (
                metric(a, w.name, "end_to_end", name),
                metric(b, w.name, "end_to_end", name),
            ) else {
                println!("{:<16} {:<20} missing", w.name, name);
                out_of_bound += 1;
                continue;
            };
            // Either run may be the worse one: the bound holds both ways.
            let worst = worsening(x, y, better).max(worsening(y, x, better));
            let flag = if worst > bound { "  OUT OF BOUND" } else { "" };
            out_of_bound += usize::from(worst > bound);
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.4} {:>7.3}{flag}",
                w.name,
                name,
                x,
                y,
                y / x,
                bound
            );
        }
        for name in ["host.fsync_floor_us", "host.spin_ns_per_iter"] {
            if let (Some(x), Some(y)) = (
                metric(a, w.name, "per_layer", name),
                metric(b, w.name, "per_layer", name),
            ) {
                let moved = (y / x - 1.0).abs() > 0.10;
                let flag = if moved {
                    "  WARNING: the host moved, not the program"
                } else {
                    ""
                };
                println!(
                    "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.4}{flag}",
                    w.name,
                    name,
                    x,
                    y,
                    y / x
                );
            }
        }
    }
    out_of_bound
}

/// Runs the suite twice (results to `<out>-a.json` and `<out>-b.json`,
/// `benchmark/out/repeat` unless `--out` says otherwise) and compares.
pub fn check_repeat(cli: &Cli) -> i32 {
    let prefix = cli
        .out
        .clone()
        .unwrap_or_else(|| format!("{}/repeat", run::OUT_DIR));
    let mut sets = Vec::new();
    for tag in ["a", "b"] {
        let cli = Cli {
            out: Some(format!("{prefix}-{tag}.json")),
            ..cli.clone()
        };
        match run_all(&cli) {
            Ok(set) => sets.push(set),
            Err(()) => return 1,
        }
    }
    let Ok(spec) = benchmark_spec().map_err(|e| eprintln!("macrobench: {e}")) else {
        return 1;
    };
    let out_of_bound = compare(&spec, &sets[0].json, &sets[1].json);
    let correct = sets.iter().all(|s| s.correct);
    println!(
        "check-repeat: {out_of_bound} metric(s) out of bound, results {}",
        if correct { "correct" } else { "INCORRECT" }
    );
    i32::from(out_of_bound > 0 || !correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ops: f64, p50: f64) -> Json {
        json::parse(&format!(
            r#"{{"workloads": {{"serve-hot": {{"end_to_end": {{
                "ops_per_s": {{"value": {ops}, "unit": "1/s"}},
                "get_p50_us": {{"value": {p50}, "unit": "us"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, "higher") < 0.0);
        assert_eq!(
            metric(&set(5.0, 2.0), "serve-hot", "end_to_end", "get_p50_us"),
            Some(2.0)
        );
        assert_eq!(
            metric(&set(5.0, 2.0), "churn-large", "end_to_end", "get_p50_us"),
            None
        );
    }
}
