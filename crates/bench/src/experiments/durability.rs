//! E12: the price of durability — crash-consistent reopen time.
//!
//! The paper's two-device design leaves the current (magnetic) database
//! volatile; the write-ahead log closes that gap. This experiment prices
//! what the log costs on restart: an engine is built and dropped *without*
//! a checkpoint (everything since create lives only in the log), then
//! `TsbOptions::durable(dir)` must replay, purge, verify, and re-fence.
//! Recovery time is reported against the number of ops since the last
//! checkpoint — the knob an operator turns (checkpoint cadence) to bound
//! restart time. What fsync policy and group commit cost per write is
//! priced by the repo benchmark's workloads and pinned by counted tests,
//! not here.

use std::time::Instant;

use tsb_common::{FsyncPolicy, KeyRange, SplitPolicyKind, SplitTimeChoice};
use tsb_core::{EngineHandle, TsbOptions};
use tsb_workload::{generate_ops, replay_engine, WorkloadSpec};

use crate::measure::{experiment_config, Scale, TempDir};
use crate::report::Table;

/// Runs the recovery-time table.
pub fn run(scale: Scale) -> Vec<Table> {
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
        let cfg = experiment_config(SplitPolicyKind::TimePreferring, SplitTimeChoice::LastUpdate)
            .with_fsync_policy(FsyncPolicy::Os);
        let opts = TsbOptions::durable(&dir.0).config(cfg);
        let ops = generate_ops(
            &WorkloadSpec::default()
                .with_ops(*depth)
                .with_keys(scale.keys())
                .with_update_ratio(4.0)
                .with_value_size(48),
        );
        {
            let db = opts.clone().open().expect("durable engine");
            replay_engine(&db, &ops).expect("replay");
            // Dropped hot: every post-create write exists only in the WAL.
        }
        let wal_kib = wal_kib(&dir);
        let start = Instant::now();
        let tree = opts.open().expect("recovery");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let keys = tree.scan_current(&KeyRange::full()).expect("scan").len();
        table.push_row(vec![
            depth.to_string(),
            format!("{elapsed_ms:.1}"),
            wal_kib,
            keys.to_string(),
        ]);
    }
    vec![table]
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
    fn e12_produces_the_reopen_table() {
        let tables = run(Scale::Tiny);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2, "one row per checkpoint depth");
        for row in &tables[0].rows {
            let keys: usize = row[3].parse().unwrap();
            assert!(keys > 0, "recovery must surface the written keys");
        }
    }
}
