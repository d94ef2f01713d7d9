//! E10: reader throughput scaling under a single-writer pipeline.
//!
//! The paper's §4.1 promise — read-only transactions run without locks,
//! concurrently with the current-database writer — is the reason
//! every shard of a [`ShardedTsb`] runs one writer beside lock-free
//! readers. This experiment measures it on one shard: a preloaded tree
//! keeps absorbing a scripted update stream from one writer thread while
//! 1, 2, 4, and 8 reader threads replay deterministic
//! [`tsb_workload::ConcurrentSpec`] query plans pinned at the install
//! fence. Reported alongside E6 (single-threaded query cost): E6 prices
//! one query, E10 shows how many of them concurrent readers sustain while
//! the writer is active.
//!
//! Reader scaling is a *hardware* property as much as a software one: on a
//! single-core host the threads time-slice one CPU and aggregate
//! throughput stays flat regardless of how lock-free the readers are. The
//! table therefore records the detected parallelism next to the scaling
//! factor; the ≥3x-at-4-readers expectation applies on hosts with ≥4
//! cores.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use tsb_common::{TimeRange, Timestamp};
use tsb_core::{EngineHandle, ShardedTsb, TsbOptions};
use tsb_workload::{pin_fraction, ConcurrentSpec, Op, ReaderQueryKind};

use crate::measure::{experiment_config, Scale};
use crate::report::Table;

/// Reader thread counts measured (each against the same active writer).
const READER_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Runs the readers-vs-writer scaling measurement.
pub fn run(scale: Scale) -> Vec<Table> {
    let (preload_ops, window) = match scale {
        Scale::Tiny => (2_000, Duration::from_millis(60)),
        Scale::Small => (6_000, Duration::from_millis(150)),
        Scale::Full => (20_000, Duration::from_millis(400)),
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let spec = tsb_workload::concurrent::stress_spec(preload_ops, (preload_ops / 8) as u64, 0xE10);
    let ops = spec.writer_ops();

    let mut table = Table::new(
        "E10: concurrent reader throughput while one writer is active",
        format!(
            "{preload_ops} preloaded ops, {}ms window per row, {cores} core(s) detected; \
             readers replay deterministic as-of/scan/history plans pinned at the install fence",
            window.as_millis()
        ),
        &[
            "reader threads",
            "reader queries/s",
            "scaling vs 1",
            "writer ops/s",
            "fence lag (ts)",
        ],
    );

    let mut base_throughput: Option<f64> = None;
    for &readers in READER_COUNTS {
        let m = measure_one(&spec, &ops, readers, window);
        let scaling = match base_throughput {
            None => {
                base_throughput = Some(m.reader_qps);
                1.0
            }
            Some(base) if base > 0.0 => m.reader_qps / base,
            _ => 0.0,
        };
        table.push_row(vec![
            readers.to_string(),
            format!("{:.0}", m.reader_qps),
            format!("{scaling:.2}x"),
            format!("{:.0}", m.writer_ops_per_sec),
            m.fence_lag.to_string(),
        ]);
    }
    vec![table]
}

struct RunMeasurement {
    reader_qps: f64,
    writer_ops_per_sec: f64,
    /// now() - last_installed() observed at the end of the window: how far
    /// the clock had run ahead of fully installed writes (0 or 1 when the
    /// writer keeps up).
    fence_lag: u64,
}

fn measure_one(
    spec: &ConcurrentSpec,
    preload: &[Op],
    readers: usize,
    window: Duration,
) -> RunMeasurement {
    let db = TsbOptions::in_memory()
        .config(experiment_config(
            tsb_common::SplitPolicyKind::TimePreferring,
            tsb_common::SplitTimeChoice::LastUpdate,
        ))
        .open()
        .expect("in-memory engine");
    for op in preload {
        apply(&db, op);
    }
    // Warm every reader path once so the measurement sees the steady state
    // (decoded-node cache resident, as in E6's warm query costs). Each
    // reader thread replays its own deterministic plan, so all plans for
    // this row's thread count must be warmed — warming only plan 0 would
    // leave the multi-reader rows paying their cold misses inside the
    // timed window and deflate the scaling factor.
    let fence = db.last_installed().value();
    for r in 0..readers {
        for q in &spec.reader_plan(r) {
            run_query(&db, &q.kind, Timestamp(pin_fraction(q.ts_fraction, fence)));
        }
    }

    let stop = AtomicBool::new(false);
    let reader_queries = AtomicU64::new(0);
    let writer_ops = AtomicU64::new(0);

    std::thread::scope(|s| {
        // The single writer: replays the scripted stream cyclically.
        s.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                apply(&db, &preload[i % preload.len()]);
                writer_ops.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        });
        for r in 0..readers {
            let plan = spec.reader_plan(r);
            let db = &db;
            let stop = &stop;
            let reader_queries = &reader_queries;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let q = &plan[i % plan.len()];
                    let fence = db.last_installed().value();
                    let ts = Timestamp(pin_fraction(q.ts_fraction, fence));
                    run_query(db, &q.kind, ts);
                    reader_queries.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });

    let secs = window.as_secs_f64();
    RunMeasurement {
        reader_qps: reader_queries.load(Ordering::Relaxed) as f64 / secs,
        writer_ops_per_sec: writer_ops.load(Ordering::Relaxed) as f64 / secs,
        fence_lag: db.now().value().saturating_sub(db.last_installed().value()),
    }
}

fn apply(db: &ShardedTsb, op: &Op) {
    match op {
        Op::Put { key, value } => {
            db.insert(key.clone(), value.clone()).expect("insert");
        }
        Op::Delete { key } => {
            db.delete(key.clone()).expect("delete");
        }
    }
}

fn run_query(db: &ShardedTsb, kind: &ReaderQueryKind, ts: Timestamp) {
    match kind {
        ReaderQueryKind::PointAsOf(key) => {
            db.get_as_of(key, ts).expect("point as-of");
        }
        ReaderQueryKind::RangeAsOf(range) => {
            db.scan_as_of(range, ts).expect("range as-of");
        }
        ReaderQueryKind::HistoryTo(key) => {
            db.history_between(key, TimeRange::bounded(Timestamp::ZERO, ts.next()))
                .expect("history");
        }
        ReaderQueryKind::CountAsOf(range) => {
            db.count_as_of(range, ts).expect("count as-of");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_produces_one_row_per_thread_count() {
        let tables = run(Scale::Tiny);
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.rows.len(), READER_COUNTS.len());
        for (row, readers) in table.rows.iter().zip(READER_COUNTS) {
            assert_eq!(row[0], readers.to_string());
            let qps: f64 = row[1].parse().expect("reader throughput cell");
            assert!(qps > 0.0, "row for {readers} readers measured no queries");
        }
    }
}
