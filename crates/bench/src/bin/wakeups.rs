//! Wakeup profiler for the served path (the E13 `Os`-row regression).
//!
//! BENCH_PR7 recorded served `Os` throughput *falling* from 2 to 8
//! connections (68k → 40k ops/s). `Os` never touches the device, so the
//! drop cannot be fsync scheduling — the suspect is the wakeup chain
//! itself: every reply wakes a client thread, every request wakes that
//! connection's worker thread, and on a single core all of those threads
//! round-robin one run queue.
//!
//! This probe runs the E13 `Os` cells (loopback server + driver threads
//! in one process) and has **each connection thread read its own context
//! switch counters** from `/proc/thread-self/status` around the measured
//! window — thread counters die with the thread, so a process-wide sample
//! after the fact sees nothing. Client-side switches are half of every
//! client↔worker handoff, so switches/op on the client is a faithful
//! proxy for the whole chain. The verdict is the **switches/op** column:
//! throughput falling while switches/op rises with connection count means
//! the regression is scheduler thrash from the worker-per-connection
//! wakeup path, not engine work.
//!
//! ```text
//! cargo run -p tsb-bench --release --bin wakeups
//! ```

use std::sync::Arc;
use std::time::Instant;

use tsb_client::protocol::{Reply, Request};
use tsb_client::TsbClient;
use tsb_common::{FsyncPolicy, Key, SplitPolicyKind, SplitTimeChoice};
use tsb_core::TsbOptions;
use tsb_server::TsbServer;

use tsb_bench::measure::experiment_config;

/// (voluntary, involuntary) context switches of the *calling thread*,
/// from `/proc/thread-self/status`. Linux-only by construction.
fn thread_ctx_switches() -> (u64, u64) {
    let status = match std::fs::read_to_string("/proc/thread-self/status") {
        Ok(s) => s,
        Err(_) => return (0, 0),
    };
    let mut voluntary = 0u64;
    let mut involuntary = 0u64;
    for line in status.lines() {
        if let Some(v) = line.strip_prefix("voluntary_ctxt_switches:") {
            voluntary = v.trim().parse().unwrap_or(0);
        } else if let Some(v) = line.strip_prefix("nonvoluntary_ctxt_switches:") {
            involuntary = v.trim().parse().unwrap_or(0);
        }
    }
    (voluntary, involuntary)
}

struct ConnStats {
    committed: u64,
    voluntary: u64,
    involuntary: u64,
}

/// One closed-loop pipelined connection (the E13 driver's loop), returning
/// its own context-switch delta alongside the op count.
fn conn_loop(addr: std::net::SocketAddr, ops: usize, depth: usize, seed: u64) -> ConnStats {
    let mut client = TsbClient::connect(addr).expect("connect");
    // Keys only need to spread; a simple multiplicative generator avoids
    // pulling a rand dependency into the probe.
    let mut state = seed | 1;
    let (vol_before, invol_before) = thread_ctx_switches();
    let mut committed = 0u64;
    let mut in_flight = 0usize;
    let mut sent = 0usize;
    while sent < ops || in_flight > 0 {
        while sent < ops && in_flight < depth {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = state >> 52;
            let value = vec![0xA5u8; 48];
            client
                .send(&Request::Put {
                    key: Key::from_u64(key),
                    value,
                })
                .expect("send");
            in_flight += 1;
            sent += 1;
        }
        match client.recv_any().expect("recv") {
            (_, Reply::Committed { .. }) => {
                committed += 1;
                in_flight -= 1;
            }
            (_, other) => panic!("unexpected reply: {other:?}"),
        }
    }
    let (vol_after, invol_after) = thread_ctx_switches();
    ConnStats {
        committed,
        voluntary: vol_after - vol_before,
        involuntary: invol_after - invol_before,
    }
}

fn main() {
    let ops_per_conn = 2_000usize;
    println!("served-path wakeup probe: Os policy, loopback server, closed-loop driver");
    println!(
        "{ops_per_conn} ops/conn; 'client sw/op' counted per connection thread (the client \
         side of every client<->worker handoff); 'lock-wait us/op' is the engine's writer-lock \
         wait instrumentation summed over shards\n"
    );
    println!(
        "{:<7} {:<6} {:<6} {:<10} {:<13} {:<13} {:<15}",
        "shards", "conns", "depth", "ops/s", "client vol/op", "client inv/op", "lock-wait us/op"
    );

    for shards in [1usize, 4] {
        for conns in [1usize, 2, 4, 8] {
            let depth = if conns == 1 { 1 } else { 4 };
            let dir = std::env::temp_dir().join(format!(
                "tsb-wakeups-{}-{shards}s-{conns}c",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");

            let mut cfg =
                experiment_config(SplitPolicyKind::TimePreferring, SplitTimeChoice::LastUpdate);
            cfg.fsync_policy = FsyncPolicy::Os;
            let db = TsbOptions::durable(&dir)
                .config(cfg)
                .shards(shards)
                .open()
                .expect("durable engine");
            let server =
                TsbServer::start_engine(Arc::new(db), "127.0.0.1:0").expect("start server");
            let addr = server.local_addr();

            // Warmup outside the window: prime connections, tree, WAL extent.
            std::thread::scope(|s| {
                for i in 0..conns {
                    s.spawn(move || {
                        conn_loop(addr, (ops_per_conn / 4).max(8), depth, 0xAAAA + i as u64)
                    });
                }
            });

            let io_before = server.db().io_snapshot();
            let start = Instant::now();
            let stats: Vec<ConnStats> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..conns)
                    .map(|i| {
                        s.spawn(move || conn_loop(addr, ops_per_conn, depth, 0xE13 + i as u64))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("conn"))
                    .collect()
            });
            let elapsed = start.elapsed();
            let io = server.db().io_snapshot().delta_since(&io_before);
            server.shutdown().expect("shutdown");
            let _ = std::fs::remove_dir_all(&dir);

            let committed: u64 = stats.iter().map(|s| s.committed).sum();
            let vol: u64 = stats.iter().map(|s| s.voluntary).sum();
            let invol: u64 = stats.iter().map(|s| s.involuntary).sum();
            let ops = committed.max(1) as f64;
            println!(
                "{:<7} {:<6} {:<6} {:<10.0} {:<13.2} {:<13.2} {:<15.1}",
                shards,
                conns,
                depth,
                committed as f64 / elapsed.as_secs_f64().max(1e-9),
                vol as f64 / ops,
                invol as f64 / ops,
                io.writer_lock_wait_nanos as f64 / 1e3 / ops
            );
        }
    }
}
