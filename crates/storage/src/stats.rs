//! Cross-cutting I/O statistics.
//!
//! Counters are updated by the stores, the redo log and the tree's node
//! I/O, and read by the experiment harness to report node accesses per
//! query and device traffic per workload. All counters are atomic so that
//! read-only transactions can run concurrently with a writer without any
//! shared locking (matching the lock-free read-only transactions of §4.1).
//!
//! Concurrency contract (audited for the shared-tree engine): every update
//! is a single `fetch_add` — an atomic read-modify-write — never a
//! load/store pair, so increments from any number of threads are exact
//! (asserted by `counters_are_exact_under_contention`). `Relaxed` ordering
//! suffices because the counters carry no synchronization duty: snapshots
//! are "consistent enough" for reporting, and exactness of the *totals* is
//! all the tests rely on. [`IoStats::reset`] and [`IoStats::snapshot`] are
//! safe anytime but only meaningful at quiescent points (no in-flight
//! operations), since they read/write each counter independently.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Mutable, shareable I/O counters.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Page reads that reached the magnetic store (current-node cache
    /// misses, and recovery's and a replica's page reads).
    pub magnetic_reads: AtomicU64,
    /// Page writes that reached the magnetic store (write-back of dirty pages).
    pub magnetic_writes: AtomicU64,
    /// Pages allocated on the magnetic store.
    pub magnetic_allocs: AtomicU64,
    /// Pages freed on the magnetic store.
    pub magnetic_frees: AtomicU64,
    /// Historical-node appends to the WORM store.
    pub worm_appends: AtomicU64,
    /// Individual sector writes on the WORM store (WOBT-style incremental writes).
    pub worm_sector_writes: AtomicU64,
    /// Reads from the WORM store.
    pub worm_reads: AtomicU64,
    /// Logical node accesses performed by tree operations (one per node
    /// visited on a search path, regardless of caching).
    pub node_accesses_current: AtomicU64,
    /// Logical node accesses that touched historical (WORM-resident) nodes.
    pub node_accesses_historical: AtomicU64,
    /// Decoded-node cache hits (node accesses served without any decode).
    pub node_cache_hits: AtomicU64,
    /// Decoded-node cache misses (node accesses that had to decode a page
    /// or WORM image).
    pub node_cache_misses: AtomicU64,
    /// Full node decodes (page/WORM image -> in-memory node).
    pub node_decodes: AtomicU64,
    /// Full node encodes (in-memory node -> page image), deferred to
    /// node-cache eviction and flush.
    pub node_encodes: AtomicU64,
    /// Records appended to the write-ahead log.
    pub wal_appends: AtomicU64,
    /// Fsyncs issued by the write-ahead log (commit-policy and checkpoint).
    pub wal_syncs: AtomicU64,
    /// Bytes appended to the write-ahead log (frame bytes, including the
    /// length/CRC header), the E12a `wal B/op` numerator.
    pub wal_bytes_appended: AtomicU64,
    /// Commit fences appended to the WAL (one per committed mutation group);
    /// with `wal_syncs` this yields the commits-per-fsync sharing ratio.
    pub wal_commits: AtomicU64,
    /// Drains performed by the group-commit thread (each drain issues at
    /// most one fsync covering every commit queued behind it).
    pub group_commit_batches: AtomicU64,
    /// Times a committer parked waiting for the durable-LSN watermark.
    pub group_commit_waits: AtomicU64,
    /// Total nanoseconds committers spent parked on the watermark.
    pub group_commit_wait_nanos: AtomicU64,
    /// Times a writer found the shard writer lock contended (had to block).
    pub writer_lock_waits: AtomicU64,
    /// Total nanoseconds writers spent blocked acquiring the writer lock —
    /// with `wal_commits` this yields the E14 writer-lock wait per op.
    pub writer_lock_wait_nanos: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter.
    fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a magnetic page read.
    pub fn record_magnetic_read(&self) {
        Self::bump(&self.magnetic_reads, 1);
    }

    /// Records a magnetic page write.
    pub fn record_magnetic_write(&self) {
        Self::bump(&self.magnetic_writes, 1);
    }

    /// Records a magnetic page allocation.
    pub fn record_magnetic_alloc(&self) {
        Self::bump(&self.magnetic_allocs, 1);
    }

    /// Records a magnetic page free.
    pub fn record_magnetic_free(&self) {
        Self::bump(&self.magnetic_frees, 1);
    }

    /// Records a WORM append.
    pub fn record_worm_append(&self) {
        Self::bump(&self.worm_appends, 1);
    }

    /// Records a WORM single-sector write.
    pub fn record_worm_sector_write(&self) {
        Self::bump(&self.worm_sector_writes, 1);
    }

    /// Records a WORM read.
    pub fn record_worm_read(&self) {
        Self::bump(&self.worm_reads, 1);
    }

    /// Records a logical access to a current (magnetic) node.
    pub fn record_current_node_access(&self) {
        Self::bump(&self.node_accesses_current, 1);
    }

    /// Records a logical access to a historical (WORM) node.
    pub fn record_historical_node_access(&self) {
        Self::bump(&self.node_accesses_historical, 1);
    }

    /// Records a decoded-node cache hit.
    pub fn record_node_cache_hit(&self) {
        Self::bump(&self.node_cache_hits, 1);
    }

    /// Records a decoded-node cache miss.
    pub fn record_node_cache_miss(&self) {
        Self::bump(&self.node_cache_misses, 1);
    }

    /// Records a full node decode.
    pub fn record_node_decode(&self) {
        Self::bump(&self.node_decodes, 1);
    }

    /// Records a full node encode.
    pub fn record_node_encode(&self) {
        Self::bump(&self.node_encodes, 1);
    }

    /// Records a WAL record append.
    pub fn record_wal_append(&self) {
        Self::bump(&self.wal_appends, 1);
    }

    /// Records a WAL fsync.
    pub fn record_wal_sync(&self) {
        Self::bump(&self.wal_syncs, 1);
    }

    /// Records `n` bytes appended to the WAL.
    pub fn record_wal_bytes(&self, n: u64) {
        Self::bump(&self.wal_bytes_appended, n);
    }

    /// Records a commit fence appended to the WAL.
    pub fn record_wal_commit(&self) {
        Self::bump(&self.wal_commits, 1);
    }

    /// Records one drain of the group-commit queue.
    pub fn record_group_commit_batch(&self) {
        Self::bump(&self.group_commit_batches, 1);
    }

    /// Records one parked wait on the durable watermark and its duration.
    pub fn record_group_commit_wait(&self, nanos: u64) {
        Self::bump(&self.group_commit_waits, 1);
        Self::bump(&self.group_commit_wait_nanos, nanos);
    }

    /// Records one blocked writer-lock acquisition and its duration.
    pub fn record_writer_lock_wait(&self, nanos: u64) {
        Self::bump(&self.writer_lock_waits, 1);
        Self::bump(&self.writer_lock_wait_nanos, nanos);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            magnetic_reads: self.magnetic_reads.load(Ordering::Relaxed),
            magnetic_writes: self.magnetic_writes.load(Ordering::Relaxed),
            magnetic_allocs: self.magnetic_allocs.load(Ordering::Relaxed),
            magnetic_frees: self.magnetic_frees.load(Ordering::Relaxed),
            worm_appends: self.worm_appends.load(Ordering::Relaxed),
            worm_sector_writes: self.worm_sector_writes.load(Ordering::Relaxed),
            worm_reads: self.worm_reads.load(Ordering::Relaxed),
            node_accesses_current: self.node_accesses_current.load(Ordering::Relaxed),
            node_accesses_historical: self.node_accesses_historical.load(Ordering::Relaxed),
            node_cache_hits: self.node_cache_hits.load(Ordering::Relaxed),
            node_cache_misses: self.node_cache_misses.load(Ordering::Relaxed),
            node_decodes: self.node_decodes.load(Ordering::Relaxed),
            node_encodes: self.node_encodes.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            wal_bytes_appended: self.wal_bytes_appended.load(Ordering::Relaxed),
            wal_commits: self.wal_commits.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            group_commit_waits: self.group_commit_waits.load(Ordering::Relaxed),
            group_commit_wait_nanos: self.group_commit_wait_nanos.load(Ordering::Relaxed),
            writer_lock_waits: self.writer_lock_waits.load(Ordering::Relaxed),
            writer_lock_wait_nanos: self.writer_lock_wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for c in [
            &self.magnetic_reads,
            &self.magnetic_writes,
            &self.magnetic_allocs,
            &self.magnetic_frees,
            &self.worm_appends,
            &self.worm_sector_writes,
            &self.worm_reads,
            &self.node_accesses_current,
            &self.node_accesses_historical,
            &self.node_cache_hits,
            &self.node_cache_misses,
            &self.node_decodes,
            &self.node_encodes,
            &self.wal_appends,
            &self.wal_syncs,
            &self.wal_bytes_appended,
            &self.wal_commits,
            &self.group_commit_batches,
            &self.group_commit_waits,
            &self.group_commit_wait_nanos,
            &self.writer_lock_waits,
            &self.writer_lock_wait_nanos,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of [`IoStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IoSnapshot {
    /// See [`IoStats::magnetic_reads`].
    pub magnetic_reads: u64,
    /// See [`IoStats::magnetic_writes`].
    pub magnetic_writes: u64,
    /// See [`IoStats::magnetic_allocs`].
    pub magnetic_allocs: u64,
    /// See [`IoStats::magnetic_frees`].
    pub magnetic_frees: u64,
    /// See [`IoStats::worm_appends`].
    pub worm_appends: u64,
    /// See [`IoStats::worm_sector_writes`].
    pub worm_sector_writes: u64,
    /// See [`IoStats::worm_reads`].
    pub worm_reads: u64,
    /// See [`IoStats::node_accesses_current`].
    pub node_accesses_current: u64,
    /// See [`IoStats::node_accesses_historical`].
    pub node_accesses_historical: u64,
    /// See [`IoStats::node_cache_hits`].
    pub node_cache_hits: u64,
    /// See [`IoStats::node_cache_misses`].
    pub node_cache_misses: u64,
    /// See [`IoStats::node_decodes`].
    pub node_decodes: u64,
    /// See [`IoStats::node_encodes`].
    pub node_encodes: u64,
    /// See [`IoStats::wal_appends`].
    pub wal_appends: u64,
    /// See [`IoStats::wal_syncs`].
    pub wal_syncs: u64,
    /// See [`IoStats::wal_bytes_appended`].
    pub wal_bytes_appended: u64,
    /// See [`IoStats::wal_commits`].
    pub wal_commits: u64,
    /// See [`IoStats::group_commit_batches`].
    pub group_commit_batches: u64,
    /// See [`IoStats::group_commit_waits`].
    pub group_commit_waits: u64,
    /// See [`IoStats::group_commit_wait_nanos`].
    pub group_commit_wait_nanos: u64,
    /// See [`IoStats::writer_lock_waits`].
    pub writer_lock_waits: u64,
    /// See [`IoStats::writer_lock_wait_nanos`].
    pub writer_lock_wait_nanos: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier` (saturating), used to measure
    /// the cost of a single operation or batch.
    pub fn delta_since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            magnetic_reads: self.magnetic_reads.saturating_sub(earlier.magnetic_reads),
            magnetic_writes: self.magnetic_writes.saturating_sub(earlier.magnetic_writes),
            magnetic_allocs: self.magnetic_allocs.saturating_sub(earlier.magnetic_allocs),
            magnetic_frees: self.magnetic_frees.saturating_sub(earlier.magnetic_frees),
            worm_appends: self.worm_appends.saturating_sub(earlier.worm_appends),
            worm_sector_writes: self
                .worm_sector_writes
                .saturating_sub(earlier.worm_sector_writes),
            worm_reads: self.worm_reads.saturating_sub(earlier.worm_reads),
            node_accesses_current: self
                .node_accesses_current
                .saturating_sub(earlier.node_accesses_current),
            node_accesses_historical: self
                .node_accesses_historical
                .saturating_sub(earlier.node_accesses_historical),
            node_cache_hits: self.node_cache_hits.saturating_sub(earlier.node_cache_hits),
            node_cache_misses: self
                .node_cache_misses
                .saturating_sub(earlier.node_cache_misses),
            node_decodes: self.node_decodes.saturating_sub(earlier.node_decodes),
            node_encodes: self.node_encodes.saturating_sub(earlier.node_encodes),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
            wal_bytes_appended: self
                .wal_bytes_appended
                .saturating_sub(earlier.wal_bytes_appended),
            wal_commits: self.wal_commits.saturating_sub(earlier.wal_commits),
            group_commit_batches: self
                .group_commit_batches
                .saturating_sub(earlier.group_commit_batches),
            group_commit_waits: self
                .group_commit_waits
                .saturating_sub(earlier.group_commit_waits),
            group_commit_wait_nanos: self
                .group_commit_wait_nanos
                .saturating_sub(earlier.group_commit_wait_nanos),
            writer_lock_waits: self
                .writer_lock_waits
                .saturating_sub(earlier.writer_lock_waits),
            writer_lock_wait_nanos: self
                .writer_lock_wait_nanos
                .saturating_sub(earlier.writer_lock_wait_nanos),
        }
    }

    /// Adds every counter of `other` into `self` — used to aggregate the
    /// per-shard [`IoStats`] of a sharded engine into one engine-wide view.
    pub fn merge(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            magnetic_reads: self.magnetic_reads + other.magnetic_reads,
            magnetic_writes: self.magnetic_writes + other.magnetic_writes,
            magnetic_allocs: self.magnetic_allocs + other.magnetic_allocs,
            magnetic_frees: self.magnetic_frees + other.magnetic_frees,
            worm_appends: self.worm_appends + other.worm_appends,
            worm_sector_writes: self.worm_sector_writes + other.worm_sector_writes,
            worm_reads: self.worm_reads + other.worm_reads,
            node_accesses_current: self.node_accesses_current + other.node_accesses_current,
            node_accesses_historical: self.node_accesses_historical
                + other.node_accesses_historical,
            node_cache_hits: self.node_cache_hits + other.node_cache_hits,
            node_cache_misses: self.node_cache_misses + other.node_cache_misses,
            node_decodes: self.node_decodes + other.node_decodes,
            node_encodes: self.node_encodes + other.node_encodes,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_syncs: self.wal_syncs + other.wal_syncs,
            wal_bytes_appended: self.wal_bytes_appended + other.wal_bytes_appended,
            wal_commits: self.wal_commits + other.wal_commits,
            group_commit_batches: self.group_commit_batches + other.group_commit_batches,
            group_commit_waits: self.group_commit_waits + other.group_commit_waits,
            group_commit_wait_nanos: self.group_commit_wait_nanos + other.group_commit_wait_nanos,
            writer_lock_waits: self.writer_lock_waits + other.writer_lock_waits,
            writer_lock_wait_nanos: self.writer_lock_wait_nanos + other.writer_lock_wait_nanos,
        }
    }

    /// Total logical node accesses (current + historical).
    pub fn total_node_accesses(&self) -> u64 {
        self.node_accesses_current + self.node_accesses_historical
    }

    /// Always `None`: there is no page cache under the decoded-node cache
    /// (see [`Self::node_cache_hit_rate`]). Kept because the repo
    /// benchmark's harness (`benchmark/`) calls it.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        None
    }

    /// Decoded-node cache hit rate in `[0, 1]`; `None` if no node was read.
    pub fn node_cache_hit_rate(&self) -> Option<f64> {
        let total = self.node_cache_hits + self.node_cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.node_cache_hits as f64 / total as f64)
        }
    }

    /// Commit fences acknowledged per WAL fsync — the group-commit sharing
    /// ratio; `None` if no fsync happened in the window.
    pub fn commits_per_fsync(&self) -> Option<f64> {
        if self.wal_syncs == 0 {
            None
        } else {
            Some(self.wal_commits as f64 / self.wal_syncs as f64)
        }
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "magnetic r/w/alloc/free {}/{}/{}/{}  worm append/sector/read {}/{}/{}  node accesses cur/hist {}/{}  node cache hit/miss {}/{}  decode/encode {}/{}  wal append/sync/bytes {}/{}/{}  commit fence/batch/wait/waitns {}/{}/{}/{}  wlock wait/waitns {}/{}",
            self.magnetic_reads,
            self.magnetic_writes,
            self.magnetic_allocs,
            self.magnetic_frees,
            self.worm_appends,
            self.worm_sector_writes,
            self.worm_reads,
            self.node_accesses_current,
            self.node_accesses_historical,
            self.node_cache_hits,
            self.node_cache_misses,
            self.node_decodes,
            self.node_encodes,
            self.wal_appends,
            self.wal_syncs,
            self.wal_bytes_appended,
            self.wal_commits,
            self.group_commit_batches,
            self.group_commit_waits,
            self.group_commit_wait_nanos,
            self.writer_lock_waits,
            self.writer_lock_wait_nanos,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = IoStats::new();
        s.record_magnetic_read();
        s.record_magnetic_read();
        s.record_magnetic_write();
        s.record_worm_append();
        s.record_current_node_access();
        s.record_historical_node_access();

        let snap = s.snapshot();
        assert_eq!(snap.magnetic_reads, 2);
        assert_eq!(snap.magnetic_writes, 1);
        assert_eq!(snap.worm_appends, 1);
        assert_eq!(snap.total_node_accesses(), 2);
        assert_eq!(snap.cache_hit_rate(), None, "there is no page cache");

        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    /// Zero-fsync windows (the `Os` policy never syncs between checkpoints)
    /// must yield `None`, not a NaN ratio the report layer would print.
    #[test]
    fn commits_per_fsync_is_none_without_a_sync() {
        let mut snap = IoSnapshot::default();
        assert_eq!(snap.commits_per_fsync(), None);
        snap.wal_commits = 7;
        assert_eq!(snap.commits_per_fsync(), None);
        snap.wal_syncs = 2;
        assert_eq!(snap.commits_per_fsync(), Some(3.5));
    }

    #[test]
    fn delta_since_measures_a_window() {
        let s = IoStats::new();
        s.record_magnetic_read();
        let before = s.snapshot();
        s.record_magnetic_read();
        s.record_worm_read();
        let after = s.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.magnetic_reads, 1);
        assert_eq!(d.worm_reads, 1);
        assert_eq!(d.magnetic_writes, 0);
    }

    /// Regression guard for the shared-tree engine: counters hammered from
    /// 8 threads must land on exact totals. A load/store pair instead of an
    /// atomic `fetch_add` would lose increments under this contention.
    #[test]
    fn counters_are_exact_under_contention() {
        use std::sync::Arc;

        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;

        let stats = Arc::new(IoStats::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let stats = Arc::clone(&stats);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        stats.record_current_node_access();
                        stats.record_node_cache_hit();
                        stats.record_magnetic_read();
                        // Mix in a second counter on a thread-dependent
                        // cadence so the interleavings differ per run.
                        if (i + t) % 2 == 0 {
                            stats.record_node_decode();
                        }
                    }
                });
            }
        });

        let snap = stats.snapshot();
        assert_eq!(snap.node_accesses_current, THREADS * PER_THREAD);
        assert_eq!(snap.node_cache_hits, THREADS * PER_THREAD);
        assert_eq!(snap.magnetic_reads, THREADS * PER_THREAD);
        assert_eq!(snap.node_decodes, THREADS * PER_THREAD / 2);
        assert_eq!(snap.node_cache_misses, 0);
    }

    #[test]
    fn display_is_compact() {
        let s = IoStats::new();
        s.record_node_cache_hit();
        let text = s.snapshot().to_string();
        assert!(text.contains("node cache hit/miss 1/0"));
    }
}
