//! E14: sharded write scaling — committed throughput, fsyncs/op, and
//! writer-lock wait across shard counts.
//!
//! Sharding attacks the serialization point E12c left standing: the
//! single engine writer lock (every mutation serializes through it). An
//! `N`-shard [`tsb_core::ShardedTsb`] gives each shard its own lock, node
//! cache and devices under one global commit clock, so writers touching
//! different shards mutate in parallel — and one shared WAL, so the
//! commits of every shard share its fsyncs, one on the device at a time,
//! each led by a waiting writer.
//!
//! The table runs the E12c closed loop across
//! `{1, 2, 4} shards × {1, 4, 8} writers × {Always, Os}` and
//! reports, per cell: committed ops/s, the ratio to the same cell at one
//! shard, fsyncs per op, commits per fsync, mean writer-lock wait per op
//! (the "how serialized are the writers" number sharding exists to cut),
//! and the E12 `% ceiling` normalization against the calibrated device
//! fsync floor.
//!
//! **E14b** prices the one write that crosses shards: a transaction over
//! `P ∈ {2, 3, 4}` participants under `Always`. It commits as one fence
//! naming every participant on the shared log, so a blocking `commit_txn`
//! with nothing else pending forces the log exactly once, whatever `P`:
//! the row to read is fsyncs per commit (1.00) and µs per commit in fsync
//! floors, which should stay near one floor as `P` grows.
//!
//! On a single-core host the CPU, not the lock, is the ceiling: every
//! writer thread (each leading syncs in turn) time-slices one core, so
//! committed ops/s cannot scale with shard count. What sharding still must
//! deliver here — and what the acceptance criteria check — is
//! *decoupling*: fsyncs/op at 4 shards no worse than at 1 (the shared WAL
//! never multiplies syncs per acknowledged commit), and writer-lock wait
//! per op falling steeply as contended writers spread over `N` locks.

use std::time::{Duration, Instant};

use tsb_common::{FsyncPolicy, Key, SplitPolicyKind, SplitTimeChoice};
use tsb_core::{EngineHandle, TsbOptions};
use tsb_workload::{drive_engine, DurableDriveSpec};

use super::durability::{fsync_floor, pct_of_fsync_ceiling};
use crate::measure::{experiment_config, Scale, TempDir};
use crate::report::Table;

fn ops_per_thread(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 40,
        Scale::Small => 200,
        Scale::Full => 500,
    }
}

/// Runs the sharded write-scaling table.
pub fn run(scale: Scale) -> Vec<Table> {
    let floor = fsync_floor(33);
    let ops = ops_per_thread(scale);
    let mut table = Table::new(
        "E14: sharded write scaling — ops/s, fsyncs/op, and writer-lock wait vs shard count",
        format!(
            "closed-loop writers (E12c harness) over an N-shard engine, one WAL for \
             every shard (its fsync led by a waiting writer), one global commit clock; \
             {ops} ops/writer, value 48B; 'vs 1 shard' compares the same policy x \
             writers cell; calibrated fsync floor {:.0}us — '% ceiling' as in E12",
            floor.as_secs_f64() * 1e6
        ),
        &[
            "fsync policy",
            "shards",
            "writers",
            "ops/s",
            "vs 1 shard",
            "fsyncs/op",
            "commits/fsync",
            "lock-wait us/op",
            "% ceiling",
        ],
    );

    let policies: &[(&str, FsyncPolicy)] =
        &[("Always", FsyncPolicy::Always), ("Os", FsyncPolicy::Os)];
    for (label, policy) in policies {
        for writers in [1usize, 4, 8] {
            let mut baseline: Option<f64> = None;
            for shards in [1usize, 2, 4] {
                let dir = TempDir::new(&format!(
                    "e14-{}-{writers}w-{shards}s",
                    label.to_lowercase()
                ));
                // Same engine shape as E12c/E13 (1 KiB pages, 512-entry
                // node cache per shard) so rows are comparable across
                // tables.
                let mut cfg =
                    experiment_config(SplitPolicyKind::TimePreferring, SplitTimeChoice::LastUpdate);
                cfg.fsync_policy = *policy;
                let db = TsbOptions::durable(&dir.0)
                    .config(cfg)
                    .shards(shards)
                    .open()
                    .expect("sharded engine");

                let spec = DurableDriveSpec {
                    threads: writers,
                    ops_per_thread: ops,
                    num_keys: scale.keys(),
                    value_size: 48,
                    seed: 0xE14 ^ (writers as u64) << 8 ^ shards as u64,
                };
                // Warmup outside the window: prime each shard's tree and
                // WAL extent so the measured cell is steady state.
                let warmup = DurableDriveSpec {
                    ops_per_thread: (ops / 4).max(8),
                    seed: spec.seed ^ 0xAAAA,
                    ..spec.clone()
                };
                drive_engine(&db, &warmup).expect("warmup");
                let report = drive_engine(&db, &spec).expect("drive");

                let throughput = report.ops_per_sec();
                let relative = match baseline {
                    None => {
                        baseline = Some(throughput);
                        1.0
                    }
                    Some(base) if base > 0.0 => throughput / base,
                    _ => 0.0,
                };
                let commits_per_fsync = report
                    .io
                    .commits_per_fsync()
                    .map(|r| format!("{r:.1}"))
                    .unwrap_or_else(|| "-".to_string());
                table.push_row(vec![
                    label.to_string(),
                    shards.to_string(),
                    writers.to_string(),
                    format!("{throughput:.0}"),
                    format!("{relative:.2}x"),
                    format!("{:.3}", report.fsyncs_per_op()),
                    commits_per_fsync,
                    format!("{:.1}", report.lock_wait_per_op().as_secs_f64() * 1e6),
                    pct_of_fsync_ceiling(
                        report.committed_ops,
                        report.io.wal_syncs,
                        report.elapsed.as_secs_f64(),
                        floor,
                    ),
                ]);
            }
        }
    }
    vec![table, cross_shard_rounds(scale, floor)]
}

/// E14b: what a cross-shard commit costs, by participant count.
fn cross_shard_rounds(scale: Scale, floor: Duration) -> Table {
    const SHARDS: usize = 4;
    let commits = ops_per_thread(scale);
    let mut table = Table::new(
        "E14b: cross-shard commit — one fence on the shared log vs participant count",
        format!(
            "one writer, {SHARDS} shards, fsync Always, {commits} transactions per row, each \
             writing one 48B value on each of P shards; only `commit_txn` is timed, but \
             fsyncs count the whole transaction: its writes wait for nothing, and the \
             commit is one fence naming every participant, forced once whatever P; \
             'floors/commit' = us/commit over the calibrated fsync floor {:.0}us",
            floor.as_secs_f64() * 1e6
        ),
        &["participants", "us/commit", "fsyncs/txn", "floors/commit"],
    );
    for participants in [2usize, 3, 4] {
        let dir = TempDir::new(&format!("e14-rounds-{participants}p"));
        let mut cfg =
            experiment_config(SplitPolicyKind::TimePreferring, SplitTimeChoice::LastUpdate);
        cfg.fsync_policy = FsyncPolicy::Always;
        let db = TsbOptions::durable(&dir.0)
            .config(cfg)
            .shards(SHARDS)
            .open()
            .expect("sharded engine");
        // One key per participating shard, rewritten by every transaction.
        let keys: Vec<Key> = (0..participants)
            .map(|shard| {
                let key = (0u64..)
                    .map(Key::from_u64)
                    .find(|k| db.shard_of(k) == shard);
                key.expect("every shard owns some key")
            })
            .collect();
        let mut in_commit = Duration::ZERO;
        let mut fsyncs = 0;
        for _ in 0..commits {
            let before = db.io_snapshot().wal_syncs;
            let txn = db.begin_txn().expect("begin");
            for key in &keys {
                db.txn_insert(txn, key.clone(), vec![7u8; 48])
                    .expect("txn insert");
            }
            let start = Instant::now();
            db.commit_txn(txn).expect("cross-shard commit");
            in_commit += start.elapsed();
            fsyncs += db.io_snapshot().wal_syncs - before;
        }
        let us_per_commit = in_commit.as_secs_f64() * 1e6 / commits as f64;
        table.push_row(vec![
            participants.to_string(),
            format!("{us_per_commit:.0}"),
            format!("{:.2}", fsyncs as f64 / commits as f64),
            format!(
                "{:.1}",
                us_per_commit / (floor.as_secs_f64() * 1e6).max(1e-3)
            ),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_produces_the_full_matrix() {
        let tables = run(Scale::Tiny);
        assert_eq!(tables.len(), 2);
        // 2 policies x 3 writer counts x 3 shard counts.
        assert_eq!(tables[0].rows.len(), 18);
        for row in &tables[0].rows {
            let tput: f64 = row[3].parse().unwrap();
            assert!(tput > 0.0, "every cell commits");
            let fsyncs_per_op: f64 = row[5].parse().unwrap();
            assert!(fsyncs_per_op.is_finite());
            if row[0] == "Os" {
                assert_eq!(row[8], "-", "Os rows have no fsync ceiling");
            }
        }
        // Each (policy, writers) group leads with its own 1-shard baseline.
        for group in tables[0].rows.chunks(3) {
            assert_eq!(group[0][1], "1");
            assert_eq!(group[0][4], "1.00x");
        }
        // E14b: one row per participant count, each forcing exactly once
        // per transaction, writes included (one writer, so nothing else
        // shares a sync).
        assert_eq!(tables[1].rows.len(), 3);
        for (row, participants) in tables[1].rows.iter().zip([2u32, 3, 4]) {
            assert_eq!(row[0], participants.to_string());
            assert_eq!(row[2], "1.00");
        }
    }
}
