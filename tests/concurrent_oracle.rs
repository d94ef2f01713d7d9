//! Multi-threaded oracle-equivalence stress suite for the concurrent
//! engine, [`ShardedTsb`], at one shard and at four.
//!
//! N reader threads replay deterministic query plans
//! ([`tsb_workload::ConcurrentSpec`]) at timestamps pinned to the engine's
//! install fence while one writer replays a scripted insert/update/delete
//! stream. Every reader answer must equal what the single-threaded
//! [`Oracle`] says for that exact timestamp — that is the operational
//! meaning of "reads are stable at or below the last fully-installed
//! write". The publication protocol makes the comparison sound:
//!
//! 1. the writer applies an op to the engine (which advances the engine's
//!    own fence),
//! 2. appends it to the shared oracle under a write lock,
//! 3. and only then advances the test-side `published` watermark.
//!
//! Readers pin every query at or below `published`, so the oracle is
//! guaranteed to contain everything the query can observe; versions
//! appended later carry strictly larger timestamps and cannot change an
//! answer pinned in the past.
//!
//! The default-sized tests run in every CI pass, each at [`SHARD_COUNTS`].
//! The `#[ignore]`d variants (one shard and four) are the high-iteration
//! stress runs executed by the CI stress job
//! (`cargo test --release -- --ignored`) across a fixed seed matrix via
//! `TSB_STRESS_SEED`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;

use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbConfig};
use tsb_core::{EngineHandle, ShardedTsb};
use tsb_workload::concurrent::stress_spec;
use tsb_workload::{pin_fraction, Op, Oracle, ReaderQueryKind};

/// Seed for the deterministic default runs; the stress job overrides it
/// per matrix entry via `TSB_STRESS_SEED`.
fn stress_seed() -> u64 {
    std::env::var("TSB_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15C_0B01)
}

/// The shard counts every default-sized test runs at.
const SHARD_COUNTS: [usize; 2] = [1, 4];

fn small_engine(shards: usize) -> ShardedTsb {
    tsb_core::TsbOptions::in_memory()
        .config(TsbConfig::small_pages())
        .shards(shards)
        .open()
        .unwrap()
}

/// The harness shared between the writer and the readers.
struct Shared {
    db: ShardedTsb,
    oracle: RwLock<Oracle>,
    /// Largest timestamp the oracle is guaranteed to contain.
    published: AtomicU64,
}

fn run_stress(
    shards: usize,
    ops: usize,
    keys: u64,
    readers: usize,
    queries_per_reader: usize,
    seed: u64,
) {
    let spec = stress_spec(ops, keys, seed);
    let writer_ops = spec.writer_ops();
    let shared = Arc::new(Shared {
        db: small_engine(shards),
        oracle: RwLock::new(Oracle::new()),
        published: AtomicU64::new(0),
    });

    thread::scope(|s| {
        {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                for op in &writer_ops {
                    let (key, ts, value) = match op {
                        Op::Put { key, value } => {
                            let ts = shared.db.insert(key.clone(), value.clone()).unwrap();
                            (key.clone(), ts, Some(value.clone()))
                        }
                        Op::Delete { key } => {
                            let ts = shared.db.delete(key.clone()).unwrap();
                            (key.clone(), ts, None)
                        }
                    };
                    shared.oracle.write().unwrap().apply_put(key, ts, value);
                    shared.published.fetch_max(ts.value(), Ordering::Release);
                }
            });
        }

        for reader_idx in 0..readers {
            let shared = Arc::clone(&shared);
            let plan = spec.reader_plan(reader_idx);
            s.spawn(move || {
                let mut executed = 0usize;
                let mut i = 0usize;
                while executed < queries_per_reader {
                    let q = &plan[i % plan.len()];
                    i += 1;
                    let published = shared.published.load(Ordering::Acquire);
                    if published == 0 {
                        thread::yield_now();
                        continue;
                    }
                    executed += 1;
                    let ts = Timestamp(pin_fraction(q.ts_fraction, published));
                    check_query(&shared, &q.kind, ts, reader_idx, executed);
                }
            });
        }
    });

    // Quiescent epilogue: structure intact, cache coherent, and the final
    // state equals the oracle everywhere.
    shared.db.verify().unwrap();
    shared.db.verify_cache_coherence().unwrap();
    let oracle = shared.oracle.read().unwrap();
    let fence = shared.db.last_installed();
    assert_eq!(
        shared.db.snapshot_at(fence).unwrap(),
        oracle.snapshot_at(fence),
        "final snapshot diverges from the oracle"
    );
}

fn check_query(shared: &Shared, kind: &ReaderQueryKind, ts: Timestamp, reader: usize, n: usize) {
    match kind {
        ReaderQueryKind::PointAsOf(key) => {
            let got = shared.db.get_as_of(key, ts).unwrap();
            let want = shared.oracle.read().unwrap().get_as_of(key, ts);
            assert_eq!(
                got, want,
                "reader {reader} query {n}: get_as_of({key}, {ts}) diverged"
            );
        }
        ReaderQueryKind::RangeAsOf(range) => {
            let got = shared.db.scan_as_of(range, ts).unwrap();
            let want = shared.oracle.read().unwrap().scan_as_of(range, ts);
            assert_eq!(
                got, want,
                "reader {reader} query {n}: scan_as_of({range:?}, {ts}) diverged"
            );
        }
        ReaderQueryKind::HistoryTo(key) => {
            let got: Vec<(Timestamp, Option<Vec<u8>>)> = shared
                .db
                .history_between(key, TimeRange::bounded(Timestamp::ZERO, ts.next()))
                .unwrap()
                .into_iter()
                .map(|v| (v.commit_time().unwrap(), v.value))
                .collect();
            let want: Vec<(Timestamp, Option<Vec<u8>>)> = shared
                .oracle
                .read()
                .unwrap()
                .versions(key)
                .into_iter()
                .filter(|(t, _)| *t <= ts)
                .collect();
            assert_eq!(
                got, want,
                "reader {reader} query {n}: history_between({key}, ..{ts}) diverged"
            );
        }
        ReaderQueryKind::CountAsOf(range) => {
            let got = shared.db.count_as_of(range, ts).unwrap();
            let want = shared.oracle.read().unwrap().count_as_of(range, ts);
            assert_eq!(
                got, want,
                "reader {reader} query {n}: count_as_of({range:?}, {ts}) diverged"
            );
        }
    }
}

/// The CI-sized stress run: 4 readers × 300 oracle-checked queries against
/// a 2.5k-op writer forcing splits and WORM migration.
#[test]
fn concurrent_readers_match_the_oracle() {
    for shards in SHARD_COUNTS {
        run_stress(shards, 2_500, 48, 4, 300, stress_seed());
    }
}

/// A second deterministic seed, so one CI pass already covers two distinct
/// interleavings of splits and reads.
#[test]
fn concurrent_readers_match_the_oracle_alt_seed() {
    for shards in SHARD_COUNTS {
        run_stress(shards, 2_000, 32, 3, 250, stress_seed() ^ 0xA5A5_A5A5);
    }
}

/// High-iteration variant for the CI stress job (`--ignored`, seed matrix
/// via `TSB_STRESS_SEED`).
#[test]
#[ignore = "high-iteration stress run; executed by the CI stress job"]
fn concurrent_readers_match_the_oracle_stress() {
    run_stress(1, 12_000, 128, 8, 2_000, stress_seed());
}

/// [`concurrent_readers_match_the_oracle_stress`] at four shards: readers
/// pin across shards whose fences move independently.
#[test]
#[ignore = "high-iteration stress run; executed by the CI stress job"]
fn concurrent_readers_match_the_oracle_stress_at_four_shards() {
    run_stress(4, 12_000, 128, 8, 2_000, stress_seed());
}

/// Warm concurrent reads stay zero-decode: with the working set resident in
/// the decoded-node cache and no writer active, N threads hammering point
/// lookups must hit the (sharded, atomic-counted) cache on every node
/// access — the PR 1 counter assertions, extended to the concurrent engine.
#[test]
fn warm_concurrent_reads_perform_zero_decodes() {
    for shards in SHARD_COUNTS {
        let cfg = TsbConfig::small_pages().with_node_cache_entries(4096);
        let db = tsb_core::TsbOptions::in_memory()
            .config(cfg)
            .shards(shards)
            .open()
            .unwrap();
        for i in 0..300u64 {
            db.insert(Key::from_u64(i % 30), format!("v{i}").into_bytes())
                .unwrap();
        }
        let fence = db.begin_snapshot().timestamp();
        // Warm every current path and every historical path the readers use.
        for key in 0..30u64 {
            db.get_current(&Key::from_u64(key)).unwrap();
            db.get_as_of(&Key::from_u64(key), fence).unwrap();
        }
        let before = db.io_snapshot();
        thread::scope(|s| {
            for r in 0..4 {
                let db = db.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = Key::from_u64((r * 7 + i) % 30);
                        assert!(db.get_current(&key).unwrap().is_some());
                        assert!(db.get_as_of(&key, fence).unwrap().is_some());
                    }
                });
            }
        });
        let delta = db.io_snapshot().delta_since(&before);
        assert!(delta.node_cache_hits > 0, "warm reads must hit the cache");
        assert_eq!(delta.node_cache_misses, 0, "every node was already cached");
        assert_eq!(
            delta.node_decodes, 0,
            "warm concurrent reads decode nothing"
        );
        assert_eq!(delta.magnetic_reads, 0, "no device I/O on warm reads");
        db.verify_cache_coherence().unwrap();
    }
}

/// Cache coherence after a full concurrent stress run: every cached node
/// equals its device image once the writer stops.
#[test]
fn cache_stays_coherent_under_concurrent_stress() {
    for shards in SHARD_COUNTS {
        let spec = stress_spec(1_500, 40, stress_seed());
        let db = small_engine(shards);
        thread::scope(|s| {
            {
                let db = db.clone();
                let ops = spec.writer_ops();
                s.spawn(move || {
                    for op in &ops {
                        match op {
                            Op::Put { key, value } => {
                                db.insert(key.clone(), value.clone()).unwrap();
                            }
                            Op::Delete { key } => {
                                db.delete(key.clone()).unwrap();
                            }
                        }
                    }
                });
            }
            for _ in 0..3 {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        let ts = db.last_installed();
                        let _ = db.snapshot_at(ts).unwrap();
                        let _ = db
                            .scan_as_of(&KeyRange::full(), Timestamp(ts.value() / 2))
                            .unwrap();
                    }
                });
            }
        });
        db.verify_cache_coherence().unwrap();
        db.verify().unwrap();
    }
}
