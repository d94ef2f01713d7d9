//! E13: served throughput — pipelined connections over the wire.
//!
//! E12c prices the group-commit pipeline with in-process closed-loop
//! threads; this experiment prices it **through the server**. For each
//! fsync policy a fresh durable engine is wrapped in a loopback
//! [`TsbServer`] and driven by the socket harness at 1, 2, 4, and 8
//! connections. The single connection runs a strict closed loop
//! (`pipeline_depth = 1`) — the blocking baseline — while multi-connection
//! rows pipeline with a bounded window of 4, so the server's batch path
//! (drain a burst, execute through the deferred-durability API, park once
//! on the max commit LSN) can coalesce many acks into few fsyncs.
//!
//! Reported per cell: committed throughput, its ratio to the policy's
//! blocking baseline, p50/p99 send-to-ack latency, fsyncs per op,
//! commits per fsync, and the E12 `% ceiling` column against the
//! calibrated device fsync floor — the acceptance bar for the served
//! path is `Always` at 8 pipelined connections reaching at least twice
//! the blocking baseline with under one fsync per op.

use std::sync::Arc;

use tsb_common::{FsyncPolicy, SplitPolicyKind, SplitTimeChoice};
use tsb_core::TsbOptions;
use tsb_server::TsbServer;
use tsb_workload::{drive_socket, SocketDriveSpec};

use super::durability::{fsync_floor, pct_of_fsync_ceiling};
use crate::measure::{experiment_config, Scale, TempDir};
use crate::report::Table;

fn ops_per_conn(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 30,
        Scale::Small => 150,
        Scale::Full => 400,
    }
}

/// Runs the served-throughput table.
pub fn run(scale: Scale) -> Vec<Table> {
    let floor = fsync_floor(33);
    let ops = ops_per_conn(scale);
    let mut table = Table::new(
        "E13: served ops/s and ack latency vs pipelined connections (loopback server)",
        format!(
            "{ops} puts/conn; 1 conn is a closed loop (depth 1), >1 conn pipeline at depth 4; \
             acks ride the durable-LSN watermark so a burst shares fsyncs; calibrated fsync \
             floor {:.0}us — '% ceiling' as in E12",
            floor.as_secs_f64() * 1e6
        ),
        &[
            "fsync policy",
            "conns",
            "depth",
            "ops/s",
            "vs 1 conn",
            "p50 us",
            "p99 us",
            "syncs/op",
            "commits/fsync",
            "% ceiling",
        ],
    );

    let policies: &[(&str, FsyncPolicy)] =
        &[("Always", FsyncPolicy::Always), ("Os", FsyncPolicy::Os)];
    for (label, policy) in policies {
        let mut baseline: Option<f64> = None;
        for conns in [1usize, 2, 4, 8] {
            let depth = if conns == 1 { 1 } else { 4 };
            let dir = TempDir::new(&format!("e13-{}-{conns}", label.to_lowercase()));
            // Same engine shape as E12c (1 KiB pages, 512-entry node
            // cache): `small_pages`' 128-entry cache overflows constantly
            // and the flushed-LSN barrier forces the WAL for every
            // write-back no durable fence covers yet, drowning the
            // group-commit signal this table is after.
            let mut cfg =
                experiment_config(SplitPolicyKind::TimePreferring, SplitTimeChoice::LastUpdate);
            cfg.fsync_policy = *policy;
            let db = TsbOptions::durable(&dir.0)
                .config(cfg)
                .open()
                .expect("durable engine");
            let server =
                TsbServer::start_engine(Arc::new(db), "127.0.0.1:0").expect("start server");
            let addr = server.local_addr();

            let spec = SocketDriveSpec {
                connections: conns,
                ops_per_conn: ops,
                pipeline_depth: depth,
                num_keys: scale.keys(),
                value_size: 48,
                seed: 0xE13 ^ conns as u64,
            };
            // Warmup outside the window: prime connections, the tree, and
            // the WAL extent so the measured cell is steady-state.
            let warmup = SocketDriveSpec {
                ops_per_conn: (ops / 4).max(8),
                seed: spec.seed ^ 0xAAAA,
                ..spec.clone()
            };
            drive_socket(addr, &warmup).expect("warmup");

            let before = server.db().io_snapshot();
            let report = drive_socket(addr, &spec).expect("drive");
            let delta = server.db().io_snapshot().delta_since(&before);
            server.shutdown().expect("server shutdown");

            let throughput = report.ops_per_sec();
            let relative = match baseline {
                None => {
                    baseline = Some(throughput);
                    1.0
                }
                Some(base) if base > 0.0 => throughput / base,
                _ => 0.0,
            };
            let syncs_per_op = if report.committed_ops == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.3}",
                    delta.wal_syncs as f64 / report.committed_ops as f64
                )
            };
            let commits_per_fsync = delta
                .commits_per_fsync()
                .map(|r| format!("{r:.1}"))
                .unwrap_or_else(|| "-".to_string());
            table.push_row(vec![
                label.to_string(),
                conns.to_string(),
                depth.to_string(),
                format!("{throughput:.0}"),
                format!("{relative:.2}x"),
                format!("{:.0}", report.p50().as_secs_f64() * 1e6),
                format!("{:.0}", report.p99().as_secs_f64() * 1e6),
                syncs_per_op,
                commits_per_fsync,
                pct_of_fsync_ceiling(
                    report.committed_ops,
                    delta.wal_syncs,
                    report.elapsed.as_secs_f64(),
                    floor,
                ),
            ]);
        }
    }
    vec![table]
}
