//! E12: the price of durability — WAL fsync policies and recovery time.
//!
//! The paper's two-device design leaves the current (magnetic) database
//! volatile; PR 4's write-ahead log closes that gap. This experiment prices
//! it. The first table replays one insert/update stream into durable
//! engines that differ only in their [`FsyncPolicy`] — `Os` (appends
//! only) and `Always` (fsync per commit). Reported: sustained write throughput,
//! WAL traffic, and fsyncs, plus the per-op normalizations (`wal B/op`,
//! `syncs/op`) the slim-log work is judged by — the classic
//! durability/throughput trade, measurable per policy.
//!
//! The second table measures crash-consistent reopen: an engine is built and
//! dropped *without* a checkpoint (everything since create lives only in
//! the log), then `TsbOptions::durable(dir)` must replay, purge, verify, and
//! re-fence. Recovery time is reported against the number of ops since the
//! last checkpoint — the knob an operator turns (checkpoint cadence) to
//! bound restart time.
//!
//! The third table (E12c) prices the **pipelined group commit**: closed-loop
//! writer threads share fsyncs — the writers that park while one is on the
//! device share the next, led by one of them — so `Always`-policy
//! committed throughput scales with thread count while fsyncs/op falls.
//! Because every fsync-bound number is hostage to the filesystem under
//! `/tmp`, the harness first calibrates the device's raw fsync latency
//! ([`fsync_floor`]) and reports each durability row as a percentage of its
//! policy's theoretical fsync ceiling — a noisy-FS run then shows up as a
//! low floor, not as a mysterious regression.

use std::time::{Duration, Instant};

use tsb_common::{FsyncPolicy, SplitPolicyKind, SplitTimeChoice, TsbConfig};
use tsb_core::{EngineHandle, TsbOptions};
use tsb_workload::{drive_engine, generate_ops, DurableDriveSpec, WorkloadSpec};

use crate::measure::{experiment_config, replay, Scale, TempDir};
use crate::report::Table;

fn e12_config(policy: FsyncPolicy) -> TsbConfig {
    experiment_config(SplitPolicyKind::TimePreferring, SplitTimeChoice::LastUpdate)
        .with_fsync_policy(policy)
}

fn e12_workload(scale: Scale) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_ops(match scale {
            Scale::Tiny => 400,
            Scale::Small => 3_000,
            Scale::Full => 15_000,
        })
        .with_keys(scale.keys())
        .with_update_ratio(4.0)
        .with_value_size(48)
}

/// Calibrates the raw fsync latency of the filesystem backing the bench
/// temp directories: a small file is rewritten and fsynced `rounds` times
/// and the median latency returned. Every fsync-bound ceiling in the E12
/// tables is derived from this floor, so noisy-FS runs stay interpretable.
pub fn fsync_floor(rounds: usize) -> Duration {
    use std::io::Write;
    let dir = TempDir::new("e12-fsync-floor");
    let path = dir.0.join("probe");
    let mut file = std::fs::File::create(&path).expect("probe file");
    let mut samples = Vec::with_capacity(rounds);
    for i in 0..rounds.max(1) {
        file.write_all(&[i as u8; 64]).expect("probe write");
        let start = Instant::now();
        file.sync_all().expect("probe fsync");
        samples.push(start.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// `throughput / ceiling` as a printable percentage, where the ceiling is
/// the throughput the run would reach if its fsyncs were its *only* cost
/// (`ops / (fsyncs × floor)`). Rows that issued no fsync have no ceiling.
pub(crate) fn pct_of_fsync_ceiling(ops: u64, fsyncs: u64, elapsed: f64, floor: Duration) -> String {
    if fsyncs == 0 || ops == 0 {
        return "-".to_string();
    }
    let ceiling = ops as f64 / (fsyncs as f64 * floor.as_secs_f64().max(1e-9));
    let actual = ops as f64 / elapsed.max(1e-9);
    format!("{:.0}%", 100.0 * actual / ceiling)
}

/// Runs the fsync-policy throughput table, the recovery-time table, and the
/// pipelined-group-commit scaling table.
pub fn run(scale: Scale) -> Vec<Table> {
    let floor = fsync_floor(33);
    vec![
        fsync_policy_table(scale, floor),
        recovery_table(scale),
        group_commit_table(scale, floor),
    ]
}

fn fsync_policy_table(scale: Scale, floor: Duration) -> Table {
    let ops = generate_ops(&e12_workload(scale));
    let mut table = Table::new(
        "E12a: write throughput by durability level (file-backed stores)",
        format!(
            "{} ops, 4 updates per insert; each row survives any crash up to its fsync \
             horizon; calibrated fsync floor {:.0}us — '% ceiling' is throughput over the \
             pure-fsync bound ops/(fsyncs x floor)",
            ops.len(),
            floor.as_secs_f64() * 1e6
        ),
        &[
            "durability",
            "inserts/s",
            "wal appends",
            "wal fsyncs",
            "wal KiB",
            "wal B/op",
            "syncs/op",
            "% ceiling",
        ],
    );

    let rows: &[(&str, FsyncPolicy)] = &[
        ("wal + Os", FsyncPolicy::Os),
        ("wal + Always", FsyncPolicy::Always),
    ];
    for (label, policy) in rows {
        let dir = TempDir::new(&format!("e12-tput-{}", label.replace([' ', '+'], "")));
        let db = TsbOptions::durable(&dir.0)
            .config(e12_config(*policy))
            .open()
            .expect("durable engine");
        let before = db.io_snapshot();
        let start = Instant::now();
        replay(&db, &ops);
        let elapsed = start.elapsed().as_secs_f64();
        let delta = db.io_snapshot().delta_since(&before);
        let throughput = ops.len() as f64 / elapsed.max(1e-9);
        table.push_row(vec![
            label.to_string(),
            format!("{throughput:.0}"),
            delta.wal_appends.to_string(),
            delta.wal_syncs.to_string(),
            wal_kib(&dir),
            format!("{:.1}", delta.wal_bytes_appended as f64 / ops.len() as f64),
            format!("{:.3}", delta.wal_syncs as f64 / ops.len() as f64),
            pct_of_fsync_ceiling(ops.len() as u64, delta.wal_syncs, elapsed, floor),
        ]);
    }
    table
}

fn group_commit_table(scale: Scale, floor: Duration) -> Table {
    let ops_per_thread = match scale {
        Scale::Tiny => 40,
        Scale::Small => 200,
        Scale::Full => 500,
    };
    let mut table = Table::new(
        "E12c: pipelined group commit — committed throughput vs closed-loop writer threads",
        format!(
            "each thread commits its next durable insert only after the previous was \
             acknowledged; the fsync runs on a waiting writer's thread, and the commits \
             appended while one is on the device share the next; {ops_per_thread} \
             ops/thread, value 48B, calibrated fsync floor {:.0}us",
            floor.as_secs_f64() * 1e6
        ),
        &[
            "policy",
            "threads",
            "committed ops/s",
            "fsyncs/op",
            "commits/fsync",
            "parked us/op",
            "% ceiling",
        ],
    );
    let policies: &[(&str, FsyncPolicy)] =
        &[("Always", FsyncPolicy::Always), ("Os", FsyncPolicy::Os)];
    for (label, policy) in policies {
        for threads in [1usize, 2, 4, 8] {
            let dir = TempDir::new(&format!("e12-gc-{label}-{threads}"));
            let cfg = e12_config(*policy);
            let db = TsbOptions::durable(&dir.0)
                .config(cfg)
                .open()
                .expect("durable engine");
            let spec = DurableDriveSpec {
                threads,
                ops_per_thread,
                num_keys: scale.keys(),
                value_size: 48,
                seed: 0xE12C ^ threads as u64,
            };
            // Warmup outside the measurement: grow the WAL file and prime
            // the tree so the measured window excludes extent-allocation
            // fsyncs and thread spawn-up (they dominate short runs).
            let warmup = DurableDriveSpec {
                ops_per_thread: (ops_per_thread / 4).max(8),
                seed: spec.seed ^ 0xAAAA,
                ..spec.clone()
            };
            drive_engine(&db, &warmup).expect("warmup");
            let report = drive_engine(&db, &spec).expect("drive");
            let commits_per_fsync = report
                .io
                .commits_per_fsync()
                .map(|r| format!("{r:.1}"))
                .unwrap_or_else(|| "-".to_string());
            table.push_row(vec![
                label.to_string(),
                threads.to_string(),
                format!("{:.0}", report.ops_per_sec()),
                format!("{:.3}", report.fsyncs_per_op()),
                commits_per_fsync,
                format!("{:.1}", report.parked_wait_per_op().as_secs_f64() * 1e6),
                pct_of_fsync_ceiling(
                    report.committed_ops,
                    report.io.wal_syncs,
                    report.elapsed.as_secs_f64(),
                    floor,
                ),
            ]);
        }
    }
    table
}

fn recovery_table(scale: Scale) -> Table {
    let depths: &[usize] = match scale {
        Scale::Tiny => &[100, 400],
        Scale::Small => &[500, 2_000, 4_000],
        Scale::Full => &[1_000, 5_000, 20_000],
    };
    let mut table = Table::new(
        "E12b: crash-consistent reopen time vs ops since the last checkpoint",
        "engine built then dropped with no checkpoint; the reopen replays the WAL, \
         erases in-flight txns, verifies, and re-fences"
            .to_string(),
        &[
            "ops since checkpoint",
            "recovery ms",
            "wal KiB replayed",
            "keys recovered",
        ],
    );
    for depth in depths {
        let dir = TempDir::new(&format!("e12-rec-{depth}"));
        let opts = TsbOptions::durable(&dir.0).config(e12_config(FsyncPolicy::Os));
        let spec = e12_workload(scale).with_ops(*depth);
        let ops = generate_ops(&spec);
        {
            let db = opts.clone().open().expect("durable engine");
            replay(&db, &ops);
            // Dropped hot: every post-create write exists only in the WAL.
        }
        let wal_kib = wal_kib(&dir);
        let start = Instant::now();
        let tree = opts.open().expect("recovery");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let keys = tree
            .scan_current(&tsb_common::KeyRange::full())
            .expect("scan")
            .len();
        table.push_row(vec![
            depth.to_string(),
            format!("{elapsed_ms:.1}"),
            wal_kib,
            keys.to_string(),
        ]);
    }
    table
}

fn wal_kib(dir: &TempDir) -> String {
    match std::fs::metadata(dir.0.join("redo.wal")) {
        Ok(meta) => format!("{:.1}", meta.len() as f64 / 1024.0),
        Err(_) => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_produces_all_three_tables() {
        let tables = run(Scale::Tiny);
        assert_eq!(tables.len(), 3);
        // Throughput table: one row per fsync policy.
        assert_eq!(tables[0].rows.len(), 2);
        for row in &tables[0].rows {
            let appends: u64 = row[2].parse().unwrap();
            assert!(appends > 0, "durable rows log every mutation");
        }
        // Always fsyncs at least as often as Os.
        let syncs: Vec<u64> = tables[0]
            .rows
            .iter()
            .map(|r| r[3].parse().unwrap())
            .collect();
        assert!(syncs[0] <= syncs[1]);
        // Recovery table: rows report a positive key count.
        for row in &tables[1].rows {
            let keys: usize = row[3].parse().unwrap();
            assert!(keys > 0, "recovery must surface the written keys");
        }
        // Group-commit table: 2 policies x 4 thread counts, Os never parks
        // and never hits a ceiling; every row commits at a positive rate.
        assert_eq!(tables[2].rows.len(), 8);
        for row in &tables[2].rows {
            let tput: f64 = row[2].parse().unwrap();
            assert!(tput > 0.0, "all group-commit rows commit");
            if row[0] == "Os" {
                assert_eq!(row[5], "0.0", "Os never parks on the watermark");
            }
        }
    }

    #[test]
    fn fsync_floor_probe_measures_something() {
        let floor = fsync_floor(9);
        assert!(floor > Duration::ZERO);
        assert!(
            floor < Duration::from_secs(1),
            "fsync floor implausibly slow"
        );
    }

    /// The zero-fsync cells (`Os` rows) and empty runs must render `-`,
    /// never `NaN`/`inf` — pinned so the tables and BENCH JSON stay clean.
    #[test]
    fn ceiling_cell_renders_dash_for_zero_denominators() {
        let floor = Duration::from_micros(100);
        assert_eq!(pct_of_fsync_ceiling(100, 0, 1.0, floor), "-");
        assert_eq!(pct_of_fsync_ceiling(0, 10, 1.0, floor), "-");
        assert_eq!(pct_of_fsync_ceiling(0, 0, 0.0, floor), "-");
        // A degenerate floor still yields a finite percentage.
        let cell = pct_of_fsync_ceiling(100, 10, 1.0, Duration::ZERO);
        assert!(cell.ends_with('%') && !cell.contains("NaN") && !cell.contains("inf"));
        // And a sane row renders a percentage.
        let cell = pct_of_fsync_ceiling(1000, 100, 0.5, floor);
        assert!(cell.ends_with('%'), "unexpected cell: {cell}");
    }
}
