//! Deterministic concurrent-scenario driver.
//!
//! A concurrent stress run has two halves: one scripted **writer stream**
//! (reusing [`WorkloadSpec`] / [`generate_ops`]) and N
//! scripted **reader plans**. Reproducibility across runs and across
//! engines requires that *everything random is decided up front from
//! seeds*; the only run-time degree of freedom is how far the writer has
//! progressed when a reader query executes. Reader queries therefore pin
//! their read time as a **fraction of the installed history**: the harness
//! maps `ts_fraction` to a concrete timestamp `⌈fraction × fence⌉` at
//! execution time, where `fence` is the engine's last fully installed
//! commit time. Query answers are then checkable against a single-threaded
//! oracle replayed to that same timestamp, no matter how the threads
//! interleaved.
//!
//! The driver is engine-agnostic — this crate knows nothing about the
//! TSB-tree. The integration tests run the plans against the concurrent
//! engine (`ShardedTsb`, at one shard and at four) and the
//! [`Oracle`](crate::Oracle); the bench harness reuses the same plans for
//! its readers-vs-writer scaling experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tsb_common::{Key, KeyRange};

use crate::generator::{generate_ops, Op, WorkloadSpec};

/// The shape of one scripted reader query. Concrete read timestamps are
/// chosen at execution time from [`ReaderQuery::ts_fraction`].
#[derive(Clone, Debug, PartialEq)]
pub enum ReaderQueryKind {
    /// Point lookup of a key as of the pinned time.
    PointAsOf(Key),
    /// Range scan as of the pinned time.
    RangeAsOf(KeyRange),
    /// Version history of a key over `[0, pinned time]`.
    HistoryTo(Key),
    /// Count of keys alive in the range as of the pinned time.
    CountAsOf(KeyRange),
}

/// One scripted reader query: a shape plus the fraction of the installed
/// history at which to pin the read.
#[derive(Clone, Debug, PartialEq)]
pub struct ReaderQuery {
    /// Where in the installed history to read, in `[0, 1]`: `0.0` is the
    /// beginning of time, `1.0` the newest fully installed write at the
    /// moment the query executes.
    pub ts_fraction: f64,
    /// The query shape.
    pub kind: ReaderQueryKind,
}

/// A deterministic concurrent scenario: one writer stream and N reader
/// plans, all derived from seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct ConcurrentSpec {
    /// The writer's scripted workload.
    pub write: WorkloadSpec,
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Queries per reader plan.
    pub queries_per_reader: usize,
    /// Base seed for the reader plans; reader `i` uses `reader_seed + i`.
    pub reader_seed: u64,
}

impl Default for ConcurrentSpec {
    fn default() -> Self {
        ConcurrentSpec {
            write: WorkloadSpec::default(),
            readers: 4,
            queries_per_reader: 200,
            reader_seed: 0xC0FFEE,
        }
    }
}

impl ConcurrentSpec {
    /// The writer's operation stream (deterministic for the spec).
    pub fn writer_ops(&self) -> Vec<Op> {
        generate_ops(&self.write)
    }

    /// The scripted plan for reader `reader_idx` (deterministic for the
    /// spec and index). Keys and ranges are drawn from the writer's key
    /// space so that queries hit meaningful data.
    pub fn reader_plan(&self, reader_idx: usize) -> Vec<ReaderQuery> {
        let mut rng = StdRng::seed_from_u64(self.reader_seed.wrapping_add(reader_idx as u64));
        let num_keys = self.write.num_keys.max(1);
        let mut plan = Vec::with_capacity(self.queries_per_reader);
        for _ in 0..self.queries_per_reader {
            // Bias towards recent history (the paper: fast access to recent
            // records matters most) while still exercising deep history.
            let ts_fraction = 1.0 - rng.gen_range(0.0..1.0f64).powi(2);
            let key = Key::from_u64(rng.gen_range(0..num_keys));
            let kind = match rng.gen_range(0..10u32) {
                0..=5 => ReaderQueryKind::PointAsOf(key),
                6..=7 => {
                    let lo = rng.gen_range(0..num_keys);
                    let span = rng.gen_range(1..=(num_keys / 4).max(1));
                    ReaderQueryKind::RangeAsOf(key_range(lo, lo.saturating_add(span)))
                }
                8 => ReaderQueryKind::HistoryTo(key),
                _ => {
                    let lo = rng.gen_range(0..num_keys);
                    let span = rng.gen_range(1..=(num_keys / 2).max(1));
                    ReaderQueryKind::CountAsOf(key_range(lo, lo.saturating_add(span)))
                }
            };
            plan.push(ReaderQuery { ts_fraction, kind });
        }
        plan
    }

    /// All reader plans, indexed by reader.
    pub fn reader_plans(&self) -> Vec<Vec<ReaderQuery>> {
        (0..self.readers).map(|i| self.reader_plan(i)).collect()
    }
}

/// Maps a `ts_fraction` to a concrete timestamp value given the currently
/// installed history `[1, fence]`. Returns 0 when nothing is installed yet.
pub fn pin_fraction(ts_fraction: f64, fence: u64) -> u64 {
    ((ts_fraction.clamp(0.0, 1.0) * fence as f64).ceil() as u64).min(fence)
}

fn key_range(lo: u64, hi: u64) -> KeyRange {
    KeyRange::bounded(Key::from_u64(lo), Key::from_u64(hi.max(lo + 1)))
}

/// A small scripted mixed workload suitable for CI stress runs: updates
/// dominate (forcing time splits and WORM migration under the reader's
/// feet), with a trickle of deletes.
pub fn stress_spec(ops: usize, keys: u64, seed: u64) -> ConcurrentSpec {
    ConcurrentSpec {
        write: WorkloadSpec {
            num_ops: ops,
            num_keys: keys,
            update_fraction: 0.85,
            delete_fraction: 0.03,
            value_size: (24, 48),
            distribution: crate::distributions::KeyDistribution::Zipfian { theta: 0.7 },
            seed,
        },
        readers: 4,
        queries_per_reader: ops / 4,
        reader_seed: seed ^ 0x5EED_0EAD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed_and_reader() {
        let spec = ConcurrentSpec::default();
        assert_eq!(spec.reader_plan(0), spec.reader_plan(0));
        assert_ne!(spec.reader_plan(0), spec.reader_plan(1));
        assert_eq!(spec.writer_ops(), spec.writer_ops());
        let other = ConcurrentSpec {
            reader_seed: 1,
            ..spec.clone()
        };
        assert_ne!(spec.reader_plan(0), other.reader_plan(0));
        assert_eq!(spec.reader_plans().len(), spec.readers);
    }

    #[test]
    fn fractions_pin_inside_the_installed_history() {
        for q in ConcurrentSpec::default().reader_plan(3) {
            assert!((0.0..=1.0).contains(&q.ts_fraction));
            let pinned = pin_fraction(q.ts_fraction, 100);
            assert!(pinned <= 100);
        }
        assert_eq!(pin_fraction(0.5, 0), 0, "empty history pins to zero");
        assert_eq!(pin_fraction(1.0, 42), 42);
    }

    #[test]
    fn stress_spec_is_update_heavy() {
        let spec = stress_spec(1000, 64, 7);
        let ops = spec.writer_ops();
        assert_eq!(ops.len(), 1000);
        let deletes = ops
            .iter()
            .filter(|o| matches!(o, Op::Delete { .. }))
            .count();
        assert!(deletes > 0, "stress mix must include deletes");
        assert_eq!(spec.readers, 4);
    }
}
