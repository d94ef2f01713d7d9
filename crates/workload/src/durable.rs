//! Closed-loop multi-threaded durable write driver.
//!
//! The pipelined group commit only pays off when *several* client threads
//! have commits in flight at once: the waiters that park while one fsync
//! is on the device share the next, led by whichever of them finds the
//! gate open, so fsyncs/op falls as thread count rises. This module is the
//! measurement harness for that effect — a **closed loop** of `N` writer
//! threads, each issuing its next durable insert only after the previous
//! one was acknowledged (i.e. after the engine's per-policy durability wait
//! returned). Closed-loop clients are the honest model for commit latency:
//! an open loop would happily enqueue thousands of unacknowledged commits
//! and make even a serial fsync path look concurrent.
//!
//! [`drive_engine`] runs one such loop against any [`EngineHandle`] and
//! reports committed throughput together with the WAL's sync counters, so a
//! caller can derive fsyncs/op and commits/fsync for any
//! `threads × fsync-policy` cell (the E12c experiment in `tsb-bench`). The
//! report's I/O delta is the merged sum over every shard, so fsyncs/op and
//! writer-lock wait/op are directly comparable across shard counts (E14).
//!
//! Everything random is decided up front from the spec's seed: thread `i`
//! writes the deterministic key/value stream `seed + i` produces, so two
//! runs of the same spec commit identical data — only the interleaving
//! (and therefore the group-commit batching) differs.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tsb_common::TsbResult;
use tsb_core::EngineHandle;
use tsb_storage::IoSnapshot;

/// Parameters of one closed-loop durable write run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableDriveSpec {
    /// Number of concurrent closed-loop writer threads.
    pub threads: usize,
    /// Durable inserts each thread issues (total ops = `threads × this`).
    pub ops_per_thread: usize,
    /// Size of the shared key space (`0..num_keys` mapped to u64 keys).
    pub num_keys: u64,
    /// Payload size in bytes of every insert.
    pub value_size: usize,
    /// Base seed; thread `i` draws its stream from `seed + i`.
    pub seed: u64,
}

impl Default for DurableDriveSpec {
    fn default() -> Self {
        DurableDriveSpec {
            threads: 4,
            ops_per_thread: 250,
            num_keys: 512,
            value_size: 48,
            seed: 0x0D17_AB1E,
        }
    }
}

/// What one [`drive_engine`] run measured.
#[derive(Clone, Debug)]
pub struct DurableDriveReport {
    /// Total acknowledged (durably committed) operations.
    pub committed_ops: u64,
    /// Wall-clock time from first spawn to last join.
    pub elapsed: Duration,
    /// I/O counter delta over the run (WAL syncs, commits, batches, waits).
    pub io: IoSnapshot,
}

impl DurableDriveReport {
    /// Acknowledged commits per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.committed_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Device fsyncs issued per acknowledged commit.
    pub fn fsyncs_per_op(&self) -> f64 {
        self.io.wal_syncs as f64 / (self.committed_ops as f64).max(1.0)
    }

    /// Mean time a committer spent waiting on the durable-LSN watermark —
    /// leading the sync that covered it or parked on another's — per
    /// acknowledged commit (zero under `Os`, which never waits).
    pub fn parked_wait_per_op(&self) -> Duration {
        let nanos = self.io.group_commit_wait_nanos / self.committed_ops.max(1);
        Duration::from_nanos(nanos)
    }

    /// Mean time a writer spent blocked acquiring an engine writer lock,
    /// per acknowledged commit — the E14 "how serialized are the writers"
    /// number. Sharding drops it by giving each shard its own lock.
    pub fn lock_wait_per_op(&self) -> Duration {
        let nanos = self.io.writer_lock_wait_nanos / self.committed_ops.max(1);
        Duration::from_nanos(nanos)
    }
}

/// Runs the closed-loop driver against any [`EngineHandle`]:
/// `spec.threads` writer threads, each committing `spec.ops_per_thread`
/// durable inserts back-to-back, every insert acknowledged (per the
/// engine's `FsyncPolicy`) before the next is issued. Returns throughput
/// plus the I/O counter delta.
///
/// The engine should be durable for the numbers to mean anything; the
/// driver itself works on any engine.
pub fn drive_engine(
    db: &dyn EngineHandle,
    spec: &DurableDriveSpec,
) -> TsbResult<DurableDriveReport> {
    let before = db.io_snapshot();
    let start = Instant::now();
    let committed = std::thread::scope(|s| -> TsbResult<u64> {
        let handles: Vec<_> = (0..spec.threads)
            .map(|i| {
                let spec = spec.clone();
                s.spawn(move || writer_loop(db, &spec, i as u64))
            })
            .collect();
        let mut committed = 0u64;
        for h in handles {
            committed += h.join().expect("writer thread panicked")?;
        }
        Ok(committed)
    })?;
    let elapsed = start.elapsed();
    let io = db.io_snapshot().delta_since(&before);
    Ok(DurableDriveReport {
        committed_ops: committed,
        elapsed,
        io,
    })
}

/// One closed-loop writer: commits its deterministic stream one op at a
/// time, each acknowledged (deferred commit + durable wait) before the
/// next is issued.
fn writer_loop(db: &dyn EngineHandle, spec: &DurableDriveSpec, thread_idx: u64) -> TsbResult<u64> {
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(thread_idx));
    let mut committed = 0u64;
    for _ in 0..spec.ops_per_thread {
        let (key, value) = next_op(&mut rng, spec);
        let (_ts, pos) = db.insert_deferred(key, value)?;
        if let Some(pos) = pos {
            db.wait_durable(pos)?;
        }
        committed += 1;
    }
    Ok(committed)
}

fn next_op(rng: &mut StdRng, spec: &DurableDriveSpec) -> (tsb_common::Key, Vec<u8>) {
    let key = rng.gen_range(0..spec.num_keys.max(1));
    let mut value = vec![0u8; spec.value_size];
    for byte in value.iter_mut() {
        *byte = rng.gen_range(0..=u8::MAX as u32) as u8;
    }
    (tsb_common::Key::from_u64(key), value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{FsyncPolicy, TsbConfig};

    fn durable_engine(dir: &std::path::Path, policy: FsyncPolicy) -> tsb_core::ShardedTsb {
        let cfg = TsbConfig {
            fsync_policy: policy,
            ..TsbConfig::small_pages()
        };
        tsb_core::TsbOptions::durable(dir)
            .config(cfg)
            .open()
            .unwrap()
    }

    #[test]
    fn closed_loop_commits_every_op_and_counts_syncs() {
        let dir = tempdir();
        let db = durable_engine(dir.path(), FsyncPolicy::Always);
        let spec = DurableDriveSpec {
            threads: 4,
            ops_per_thread: 25,
            ..DurableDriveSpec::default()
        };
        let report = drive_engine(&db, &spec).unwrap();
        assert_eq!(report.committed_ops, 100);
        assert!(report.io.wal_commits >= 100);
        assert!(report.io.wal_syncs > 0, "Always must sync");
        // Pipelining can only merge syncs, never multiply them: at most
        // one fsync per acknowledged commit.
        assert!(report.io.wal_syncs <= report.io.wal_commits);
        assert!(report.ops_per_sec() > 0.0);
        db.verify().unwrap();
    }

    #[test]
    fn os_policy_never_parks() {
        let dir = tempdir();
        let db = durable_engine(dir.path(), FsyncPolicy::Os);
        let report = drive_engine(&db, &DurableDriveSpec::default()).unwrap();
        assert_eq!(report.committed_ops, 1000);
        assert_eq!(
            report.io.group_commit_waits, 0,
            "Os never waits on the watermark"
        );
        assert_eq!(report.parked_wait_per_op(), Duration::ZERO);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let spec = DurableDriveSpec::default();
        let dir_a = tempdir();
        let dir_b = tempdir();
        let a = durable_engine(dir_a.path(), FsyncPolicy::Os);
        let b = durable_engine(dir_b.path(), FsyncPolicy::Os);
        drive_engine(&a, &spec).unwrap();
        drive_engine(&b, &spec).unwrap();
        let dump_a = a.snapshot_at(a.last_installed()).unwrap();
        let dump_b = b.snapshot_at(b.last_installed()).unwrap();
        // Interleavings differ, but the committed key set is seed-determined.
        let keys_a: Vec<_> = dump_a.iter().map(|(k, _)| k.clone()).collect();
        let keys_b: Vec<_> = dump_b.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys_a, keys_b);
    }

    // Minimal scoped tempdir so the tests need no external crate.
    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    fn tempdir() -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "tsb-durable-driver-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}
