//! The repo benchmark: four long-run workloads against the shipped engine
//! defaults, every reply checked by an in-harness oracle, and a per-layer
//! budget measured from outside the program. See `benchmark/README.md`.
//!
//! ```text
//! macrobench --workload W --seed N --seconds S --trace 0|1   one run; the last line is the result
//! macrobench --all [--out FILE] [--smoke]                     all workloads, untraced and traced
//! macrobench --check-repeat [--smoke]                         the suite twice, compared to the bounds
//! ```

mod alloc;
mod codec;
mod driver;
mod gen;
mod hist;
mod host;
mod json;
mod link;
mod oracle;
mod report;
mod run;
mod suite;
mod trace;
mod workload;

use json::Json;
use report::RunResult;
use run::RunArgs;
use workload::Spec;

/// The seed used when none is given (the reference results use it).
pub const DEFAULT_SEED: u64 = 1989;
/// Seconds a run measures when none are given; `BENCHMARK.json` agrees.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per run; `setup_s` is their median.
pub const DEFAULT_SETUPS: usize = 3;

#[derive(Clone)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setups: usize,
    pub scale: f64,
    pub all: bool,
    pub check_repeat: bool,
    pub out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        setups: DEFAULT_SETUPS,
        scale: 1.0,
        all: false,
        check_repeat: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = num(flag, value()?)?,
            "--trace" => cli.trace = num::<u8>(flag, value()?)? != 0,
            "--setups" => cli.setups = num(flag, value()?)?,
            "--scale" => cli.scale = num(flag, value()?)?,
            "--out" => cli.out = Some(value()?),
            "--all" => cli.all = true,
            "--check-repeat" => cli.check_repeat = true,
            // A 1/50-length pass over everything, for iterating on the
            // harness: short phases, a tenth of the preload, one set-up.
            "--smoke" => {
                cli.seconds = 0.2;
                cli.scale = 0.1;
                cli.setups = 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(cli)
}

/// The result as the benchmark contract wants it on the last line.
pub fn result_json(result: &RunResult) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(result.failed == 0)),
        ("attempted".into(), Json::Num(result.attempted as f64)),
        ("failed".into(), Json::Num(result.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                result
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_one(cli: &Cli, spec: &'static Spec) -> i32 {
    let args = RunArgs {
        spec,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        setups: cli.setups,
        scale: cli.scale,
    };
    let outcome = run::run(&args).and_then(|seen| report::report(&args, &seen));
    // The data directory goes, success or not; traces stay.
    let _ = std::fs::remove_dir_all(run::data_dir(spec));
    match outcome {
        Ok(result) => {
            for note in &result.notes {
                println!("{note}");
            }
            for m in &result.metrics {
                println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(&result).render());
            i32::from(result.failed != 0)
        }
        Err(e) => {
            eprintln!("{}: run failed: {e}", spec.name);
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("macrobench: {e}");
            std::process::exit(2);
        }
    };
    let code = if cli.check_repeat {
        suite::check_repeat(&cli)
    } else if cli.all {
        suite::run_all(&cli).map_or(1, |s| i32::from(!s.correct))
    } else {
        match cli.workload.as_deref().map(Spec::by_name) {
            Some(Some(spec)) => run_one(&cli, spec),
            Some(None) => {
                let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("macrobench: unknown workload; known: {}", names.join(", "));
                2
            }
            None => {
                eprintln!("macrobench: give --workload NAME, --all or --check-repeat");
                2
            }
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let c = cli(&[
            "--workload",
            "serve-hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("serve-hot"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10.0, true));
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
        assert!(cli(&["--smoke", "--all"]).unwrap().scale < 1.0);
    }

    /// `BENCHMARK.json` is the one place bounds live; the harness must
    /// offer exactly the workloads it names.
    #[test]
    fn benchmark_json_names_the_harness_workloads() {
        let text = include_str!("../../../BENCHMARK.json");
        let spec = json::parse(text).unwrap();
        let named: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(named, ours);
        assert_eq!(
            spec.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        for m in spec.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
