//! From what a run observed to the named metrics: the end-to-end ones of an
//! untraced run, the per-layer ones of a traced run.

use std::collections::HashMap;
use std::path::Path;

use tsb_common::TsbConfig;
use tsb_core::TsbOptions;

use crate::codec::{self, CodecCost};
use crate::driver::{Verb, SLICE, VERBS};
use crate::gen::{KEY_LEN, VALUE_LEN};
use crate::hist::Histogram;
use crate::host;
use crate::run::{Error, Observed, RunArgs, OUT_DIR};
use crate::trace::{self, SpanName};
use crate::workload::{Op, OPS};

/// Spans written to the trace file at most.
const TRACE_FILE_SPANS: usize = 200_000;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable extras printed above the metrics.
    pub notes: Vec<String>,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl Observed {
    /// Throughput of phase `p`: the median 250 ms slice's, connections
    /// summed, so that a burst of host noise costs a few slices and not a
    /// share of the run. `tail` keeps only the phase's last so-many slices.
    /// A phase too short for slices falls back to ops over elapsed time.
    fn throughput(&self, p: usize, tail: Option<usize>) -> f64 {
        let whole = (self.phases[p].as_nanos() / SLICE.as_nanos()) as usize;
        if whole < 4 {
            return self
                .stats
                .iter()
                .map(|c| c[p].ops as f64 / c[p].elapsed.as_secs_f64().max(1e-9))
                .sum();
        }
        let mut rates: Vec<f64> = (whole - tail.unwrap_or(whole).min(whole)..whole)
            .map(|i| {
                let n: u64 = self
                    .stats
                    .iter()
                    .map(|c| c[p].slice_ops.get(i).copied().unwrap_or(0))
                    .sum();
                n as f64 / SLICE.as_secs_f64()
            })
            .collect();
        median(&mut rates)
    }

    /// Latency of `op` in phase `p`, connections merged.
    fn latency(&self, p: usize, op: Op) -> Histogram {
        let mut h = Histogram::new();
        for c in &self.stats {
            h.merge(&c[p].latency[op as usize]);
        }
        h
    }

    /// Requests of `verb` sent in phase `p`.
    fn requests(&self, p: usize, verb: usize) -> u64 {
        self.stats.iter().map(|c| c[p].requests[verb]).sum()
    }

    /// Operations completed in the timed phases (all but the warm-up).
    fn timed_ops(&self) -> u64 {
        self.stats.iter().flat_map(|c| &c[1..]).map(|p| p.ops).sum()
    }
}

pub fn report(args: &RunArgs, seen: &Observed) -> Result<RunResult, Error> {
    let spec = args.spec;
    let mut result = RunResult {
        attempted: seen.attempted,
        failed: seen.failed,
        metrics: Vec::new(),
        notes: vec![format!(
            "{}: {} ops in the timed phase(s), {} connections x depth {}, seed {}",
            spec.name,
            seen.timed_ops(),
            spec.conns,
            spec.depth,
            args.seed
        )],
    };
    match args.trace {
        false => end_to_end(seen, &mut result),
        true => per_layer(args, seen, &mut result)?,
    }
    Ok(result)
}

impl RunResult {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

fn end_to_end(seen: &Observed, out: &mut RunResult) {
    out.push("setup_s", median(&mut seen.setup_secs.clone()), "s");
    out.push("ops_per_s", seen.throughput(1, None), "1/s");
    for op in OPS {
        let h = seen.latency(1, op);
        // The tails are printed here and reported, ungated, with the
        // per-layer metrics: they do not repeat within a gate's bound.
        if op != Op::History {
            out.push(&format!("{}_p50_us", op.name()), h.quantile_us(0.50), "us");
        }
        out.notes.push(format!(
            "{:>8}: n={:<9} p50={:>10.1}us p99={:>10.1}us p99.9={:>10.1}us",
            op.name(),
            h.count(),
            h.quantile_us(0.50),
            h.quantile_us(0.99),
            h.quantile_us(0.999)
        ));
    }
    let user_bytes: u64 = seen.conns.iter().map(|c| c.part.user_bytes).sum();
    let live_keys: u64 = seen
        .conns
        .iter()
        .map(|c| c.part.written().count() as u64)
        .sum();
    let live_bytes = live_keys * (KEY_LEN + VALUE_LEN) as u64;
    out.push("space_amp", per(seen.dir_bytes, user_bytes), "ratio");
    out.push(
        "current_space_amp",
        per(seen.current_bytes, live_bytes),
        "ratio",
    );
    out.push("peak_rss_mib", seen.peak_rss_mib, "MiB");
}

fn per_layer(args: &RunArgs, seen: &Observed, out: &mut RunResult) -> Result<(), Error> {
    let spec = args.spec;
    let ops = seen.timed_ops();

    // Counters over both timed phases (readings 1 to 3).
    let (first, last) = (&seen.readings[1], &seen.readings[3]);
    let io = last.io.delta_since(&first.io);
    let allocs = (
        last.allocs.0 - first.allocs.0,
        last.allocs.1 - first.allocs.1,
    );
    let cfg = TsbConfig::default();
    // Every put carries one key and one value; a transaction four of each.
    let writes: u64 = (1..=2)
        .map(|p| seen.requests(p, Verb::Put as usize) + seen.requests(p, Verb::TxnWrite as usize))
        .sum();
    let device_bytes = io.wal_bytes_appended
        + io.magnetic_writes * cfg.page_size as u64
        + io.worm_sector_writes * cfg.worm_sector_size as u64;
    // A hit rate with no access at all reads 1: nothing missed.
    for (name, value, unit) in [
        ("storage.wal.syncs_per_op", per(io.wal_syncs, ops), "1/op"),
        (
            "storage.wal.commits_per_fsync",
            io.commits_per_fsync().unwrap_or(0.0),
            "ratio",
        ),
        (
            "storage.wal.group_commit_wait_us_per_op",
            per(io.group_commit_wait_nanos, ops) / 1e3,
            "us/op",
        ),
        (
            "storage.wal.bytes_per_op",
            per(io.wal_bytes_appended, ops),
            "B/op",
        ),
        (
            "core.concurrent.writer_lock_wait_us_per_op",
            per(io.writer_lock_wait_nanos, ops) / 1e3,
            "us/op",
        ),
        (
            "core.cache.node_hit_rate",
            io.node_cache_hit_rate().unwrap_or(1.0),
            "ratio",
        ),
        (
            "core.cache.decodes_per_op",
            per(io.node_decodes, ops),
            "1/op",
        ),
        (
            "core.cache.encodes_per_op",
            per(io.node_encodes, ops),
            "1/op",
        ),
        (
            "storage.buffer.page_hit_rate",
            io.cache_hit_rate().unwrap_or(1.0),
            "ratio",
        ),
        (
            "storage.magnetic.reads_per_op",
            per(io.magnetic_reads, ops),
            "1/op",
        ),
        (
            "storage.magnetic.writes_per_op",
            per(io.magnetic_writes, ops),
            "1/op",
        ),
        ("storage.worm.reads_per_op", per(io.worm_reads, ops), "1/op"),
        (
            "storage.worm.appends_per_op",
            per(io.worm_appends, ops),
            "1/op",
        ),
        (
            "core.tree.current_nodes_per_op",
            per(io.node_accesses_current, ops),
            "1/op",
        ),
        (
            "core.tree.historical_nodes_per_op",
            per(io.node_accesses_historical, ops),
            "1/op",
        ),
        (
            "storage.write_amp",
            per(device_bytes, writes * (KEY_LEN + VALUE_LEN) as u64),
            "ratio",
        ),
        ("alloc.count_per_op", per(allocs.0, ops), "1/op"),
        ("alloc.bytes_per_op", per(allocs.1, ops), "B/op"),
        ("core.reopen_ms", seen.reopen_ms, "ms"),
    ] {
        out.push(name, value, unit);
    }

    // The trees on disk, one per shard.
    let (mut distinct, mut redundant, mut worm_payload, mut worm_bytes) = (0, 0, 0, 0);
    for tree_dir in host::tree_dirs(&seen.dir) {
        let tree = TsbOptions::durable(&tree_dir)
            .fsync(spec.fsync)
            .open_tree()?;
        let s = tree.tree_stats()?;
        distinct += s.distinct_versions as u64;
        redundant += s.redundant_copies as u64;
        worm_payload += s.space.worm_payload_bytes;
        worm_bytes += s.space.worm_bytes;
    }
    out.push(
        "core.tree.redundancy_ratio",
        per(redundant, distinct),
        "ratio",
    );
    out.push(
        "storage.worm.utilization",
        per(worm_payload, worm_bytes),
        "ratio",
    );

    // Spans of the traced phase. Engine and client-call spans have no
    // children of their own, so their self time is their duration; a
    // request's self time is what its children leave uncovered.
    let assembled = trace::assemble(trace::drain(), spec.conns);
    let mut by_name: HashMap<SpanName, Histogram> = HashMap::new();
    let mut request_self = Histogram::new();
    for t in &assembled.requests {
        let mut kids = Vec::with_capacity(t.children.len());
        for c in &t.children {
            let h = by_name.entry(c.name).or_insert_with(Histogram::new);
            h.record(c.end_ns - c.start_ns);
            kids.push((c.start_ns, c.end_ns));
        }
        request_self.record(trace::self_time(t.root.start_ns, t.root.end_ns, &mut kids));
    }
    let span_p50_us = |name: SpanName| by_name.get(&name).map_or(0.0, |h| h.quantile_us(0.5));
    for (metric, name) in [
        ("core.insert_deferred_us", SpanName::InsertDeferred),
        ("core.wait_durable_us", SpanName::WaitDurable),
        ("core.get_current_us", SpanName::GetCurrent),
        ("core.get_as_of_us", SpanName::GetAsOf),
        ("core.scan_us", SpanName::Scan),
        ("core.history_between_us", SpanName::HistoryBetween),
        ("core.txn_commit_us", SpanName::TxnCommit),
        ("client.send_us", SpanName::ClientSend),
        ("client.recv_us", SpanName::ClientRecv),
    ] {
        // An in-process "client" call is the engine call itself.
        let in_process_client = !spec.served && name.as_str().starts_with("client.");
        out.push(
            metric,
            if in_process_client {
                0.0
            } else {
                span_p50_us(name)
            },
            "us",
        );
    }
    out.push(
        "client.request_self_us",
        request_self.quantile_us(0.5),
        "us",
    );
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", spec.name));
    trace::write_jsonl(&trace_path, &assembled.requests, TRACE_FILE_SPANS);
    out.notes.push(format!(
        "trace: {} requests, {} spans unmatched, {} dropped -> {}",
        assembled.requests.len(),
        assembled.unmatched,
        assembled.dropped,
        trace_path.display()
    ));

    // Codec replay. In process no frame ever existed, so nothing is replayed.
    let mut samples: Vec<Vec<_>> = (0..VERBS).map(|_| Vec::new()).collect();
    if spec.served {
        for conn in &seen.conns {
            for (all, mine) in samples.iter_mut().zip(&conn.samples) {
                all.extend(mine.iter().cloned());
            }
        }
    }
    let costs: Vec<Option<CodecCost>> = samples.iter().map(|s| codec::replay(s)).collect();
    // The workload's cost per request: each verb's cost weighted by the
    // verb's share of the traced phase's requests.
    let mut mix = CodecCost::default();
    let mut weight = 0.0;
    for (verb, cost) in costs.iter().enumerate() {
        if let Some(cost) = cost {
            let n = seen.requests(2, verb) as f64;
            mix.encode_request_ns += cost.encode_request_ns * n;
            mix.parse_request_ns += cost.parse_request_ns * n;
            mix.encode_reply_ns += cost.encode_reply_ns * n;
            mix.parse_reply_ns += cost.parse_reply_ns * n;
            weight += n;
        }
    }
    let weight = if weight == 0.0 { 1.0 } else { weight };
    out.push(
        "server.protocol.encode_request_ns",
        mix.encode_request_ns / weight,
        "ns",
    );
    out.push(
        "server.protocol.parse_request_ns",
        mix.parse_request_ns / weight,
        "ns",
    );
    out.push(
        "server.protocol.encode_reply_ns",
        mix.encode_reply_ns / weight,
        "ns",
    );
    out.push(
        "server.protocol.parse_reply_ns",
        mix.parse_reply_ns / weight,
        "ns",
    );
    out.push(
        "common.crc32_ns_per_kib",
        codec::crc32_ns_per_kib(&samples),
        "ns/KiB",
    );

    // A served get, as the client saw it in the traced phase, is by
    // construction engine time + codec replay + this residual: socket,
    // dispatch, batching (with the batch's durability wait) and scheduling.
    // Printed, not hidden.
    let (mut residual, mut wire_share) = (0.0, 0.0);
    if spec.served {
        let client = seen.latency(2, Op::Get).quantile_us(0.5);
        let engine = span_p50_us(SpanName::GetCurrent);
        let codec = costs[Verb::Get as usize].map_or(0.0, |c| c.total_ns() / 1e3);
        residual = client - engine - codec;
        wire_share = 100.0 * (residual + codec) / client.max(1e-9);
        out.notes.push(format!(
            "get in the traced phase: client p50 {client:.2}us = engine {engine:.2}us + codec {codec:.2}us + residual {residual:.2}us"
        ));
    }
    out.push("server.residual_us", residual, "us");
    out.push("server.wire_share_pct", wire_share, "%");

    // Tracing overhead: the traced phase against the stretch of equal
    // length just before it, so that a workload's own drift over the run is
    // not booked as overhead.
    let traced_slices = (seen.phases[2].as_nanos() / SLICE.as_nanos()) as usize;
    let untraced = seen.throughput(1, Some(traced_slices.max(4)));
    let traced = seen.throughput(2, None);
    out.push(
        "trace.overhead_pct",
        100.0 * (1.0 - traced / untraced.max(1e-9)),
        "%",
    );
    out.push("host.fsync_floor_us", host::fsync_floor_us(&seen.dir), "us");
    out.push("host.spin_ns_per_iter", host::spin_ns_per_iter(), "ns");
    // Tail latencies, advisory: from the untraced timed phase of this run.
    for op in OPS {
        if op != Op::History {
            let p99 = seen.latency(1, op).quantile_us(0.99);
            out.push(&format!("{}_p99_us", op.name()), p99, "us");
        }
    }
    Ok(())
}
