//! E15: read scale-out and replication lag — 1 primary + {0, 1, 2} replicas.
//!
//! The WAL-shipping tentpole's economic claim is that replicas turn the
//! redundant log into **served read capacity**: every replica is a full
//! TSB engine answering current, as-of, and history reads from its own
//! disk, while the primary keeps taking writes. This experiment prices
//! that claim on loopback. For each row a fresh durable primary is
//! preloaded, wrapped in a [`TsbServer`], and joined by `R` replica
//! servers (each a replica engine bootstrapped and streamed by the
//! server's replication runner). A fixed per-endpoint budget of closed-loop reader
//! connections then issues point gets round-robin over every serving
//! endpoint while a background writer keeps committing on the primary —
//! so the read fleet is measured *under* replication traffic, not on a
//! quiesced system.
//!
//! Reported per row: aggregate served read ops/s, its ratio to the
//! primary-only baseline (the acceptance bar is ≥ 1.5x at two replicas),
//! the background writer's committed ops/s, the worst replication lag a
//! status poll observed during the window (records behind the primary's
//! durable LSN, and milliseconds since the replica last applied), and how
//! long the replicas needed to drain to lag zero after the writer stopped.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsb_client::TsbClient;
use tsb_common::{FsyncPolicy, Key, SplitPolicyKind, SplitTimeChoice};
use tsb_core::{EngineHandle, TsbOptions};
use tsb_server::{ServerOptions, TsbServer};

use crate::measure::{experiment_config, Scale, TempDir};
use crate::report::Table;

/// Closed-loop reader connections per serving endpoint: a fixed per-node
/// budget, so added replicas add aggregate capacity.
const READERS_PER_ENDPOINT: usize = 4;

/// Client think time between point reads (TPC-style closed loop). Each
/// connection demands at most `1 / (THINK + service)` ops/s, so a single
/// endpoint's budgeted connections cap out and added replicas — each
/// bringing its own budget — raise fleet capacity until the host
/// saturates. Without think time a loopback reader is pure CPU and the
/// table would measure core count, not serving capacity.
const READ_THINK_TIME: Duration = Duration::from_micros(150);

/// Pause between background writer commits: enough traffic to keep the
/// replicas streaming for the whole window without the writer starving
/// the read fleet of CPU.
const WRITE_PACING: Duration = Duration::from_micros(500);

fn reads_per_conn(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 60,
        Scale::Small => 300,
        Scale::Full => 1_000,
    }
}

fn value_for(key: u64, round: u64) -> Vec<u8> {
    format!("e15-{key}-{round}").into_bytes()
}

/// Blocks until every replica reports `serving` with zero lag and answers
/// a sentinel read with the preloaded value.
fn wait_synced(addrs: &[String], sentinel_key: u64, sentinel: &[u8]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    for addr in addrs {
        loop {
            assert!(
                Instant::now() < deadline,
                "replica {addr} failed to sync within 30s"
            );
            if let Ok(mut client) = TsbClient::connect(addr.as_str()) {
                if let Ok(status) = client.replica_status() {
                    if status.serving
                        && status.lag_records == 0
                        && client.get(Key::from_u64(sentinel_key)).ok().flatten()
                            == Some(sentinel.to_vec())
                    {
                        break;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

struct RowResult {
    read_ops_per_sec: f64,
    writer_ops_per_sec: f64,
    max_lag_records: u64,
    max_lag_ms: u64,
    catchup_ms: u128,
}

fn run_row(scale: Scale, replicas: usize) -> RowResult {
    let num_keys = scale.keys();
    let reads = reads_per_conn(scale);

    let pdir = TempDir::new(&format!("e15-p{replicas}"));
    let mut cfg = experiment_config(SplitPolicyKind::TimePreferring, SplitTimeChoice::LastUpdate);
    // Always: every acknowledged commit is durable immediately, so the
    // shipping watermark (which stops at the durable LSN) never strands a
    // paced writer's tail behind an unfilled fsync group.
    cfg.fsync_policy = FsyncPolicy::Always;
    let primary = TsbOptions::durable(&pdir.0)
        .config(cfg.clone())
        .open()
        .expect("primary engine");

    // Preload every key so point reads always hit.
    for key in 0..num_keys {
        primary
            .insert(Key::from_u64(key), value_for(key, 0))
            .expect("preload");
    }

    let primary_server =
        TsbServer::start_engine(Arc::new(primary.clone()), "127.0.0.1:0").expect("primary server");
    let primary_addr = primary_server.local_addr().to_string();

    let mut rdirs = Vec::new();
    let mut replica_servers = Vec::new();
    let mut replica_addrs = Vec::new();
    for r in 0..replicas {
        let dir = TempDir::new(&format!("e15-r{replicas}-{r}"));
        let engine = TsbOptions::durable(&dir.0)
            .config(cfg.clone())
            .open_replica()
            .expect("replica engine");
        let server = TsbServer::start_replica(
            engine,
            primary_addr.clone(),
            "127.0.0.1:0",
            ServerOptions::default(),
        )
        .expect("replica server");
        replica_addrs.push(server.local_addr().to_string());
        replica_servers.push(server);
        rdirs.push(dir);
    }
    wait_synced(&replica_addrs, 0, &value_for(0, 0));

    // Background writer: keeps the primary committing (and the replicas
    // streaming) for the whole read window.
    let stop = Arc::new(AtomicBool::new(false));
    let writer_ops = Arc::new(AtomicU64::new(0));
    let writer = {
        let primary = primary.clone();
        let stop = stop.clone();
        let writer_ops = writer_ops.clone();
        std::thread::spawn(move || {
            let mut round = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let key = round % num_keys;
                primary
                    .insert(Key::from_u64(key), value_for(key, round))
                    .expect("background write");
                writer_ops.fetch_add(1, Ordering::Relaxed);
                round += 1;
                std::thread::sleep(WRITE_PACING);
            }
        })
    };

    // Lag sampler: the worst status any poll sees during the window.
    let max_lag_records = Arc::new(AtomicU64::new(0));
    let max_lag_ms = Arc::new(AtomicU64::new(0));
    let sampler = {
        let addrs = replica_addrs.clone();
        let stop = stop.clone();
        let max_lag_records = max_lag_records.clone();
        let max_lag_ms = max_lag_ms.clone();
        std::thread::spawn(move || {
            let mut clients: Vec<TsbClient> = addrs
                .iter()
                .filter_map(|a| TsbClient::connect(a.as_str()).ok())
                .collect();
            while !stop.load(Ordering::Relaxed) {
                for client in &mut clients {
                    if let Ok(status) = client.replica_status() {
                        max_lag_records.fetch_max(status.lag_records, Ordering::Relaxed);
                        max_lag_ms.fetch_max(status.lag_ms, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // The read fleet: READERS_PER_ENDPOINT closed-loop connections per
    // serving endpoint (primary included), point gets over the keyspace.
    let mut endpoints = vec![primary_addr.clone()];
    endpoints.extend(replica_addrs.iter().cloned());
    let start = Instant::now();
    let total_reads: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .iter()
            .enumerate()
            .flat_map(|(e, addr)| {
                (0..READERS_PER_ENDPOINT).map(move |c| {
                    let addr = addr.clone();
                    let seed = (e * READERS_PER_ENDPOINT + c) as u64;
                    s.spawn(move || {
                        let mut client = TsbClient::connect(addr.as_str()).expect("reader connect");
                        let mut key = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % num_keys;
                        let mut done = 0u64;
                        for _ in 0..reads {
                            let value = client.get(Key::from_u64(key)).expect("read");
                            assert!(value.is_some(), "preloaded key {key} missing");
                            done += 1;
                            std::thread::sleep(READ_THINK_TIME);
                            key = (key.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1))
                                % num_keys;
                        }
                        done
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader")).sum()
    });
    let read_elapsed = start.elapsed();

    // Stop the writer, then time how long the replicas take to drain.
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    sampler.join().expect("sampler thread");
    let writer_elapsed = read_elapsed; // writer ran for the same window
    let catchup_start = Instant::now();
    if !replica_addrs.is_empty() {
        let last_round = writer_ops.load(Ordering::Relaxed);
        let (skey, sval) = if last_round == 0 {
            (0, value_for(0, 0))
        } else {
            (
                last_round % num_keys,
                value_for(last_round % num_keys, last_round),
            )
        };
        wait_synced(&replica_addrs, skey, &sval);
    }
    let catchup_ms = catchup_start.elapsed().as_millis();

    for server in replica_servers {
        server.shutdown().expect("replica shutdown");
    }
    primary_server.shutdown().expect("primary shutdown");

    RowResult {
        read_ops_per_sec: total_reads as f64 / read_elapsed.as_secs_f64().max(1e-9),
        writer_ops_per_sec: writer_ops.load(Ordering::Relaxed) as f64
            / writer_elapsed.as_secs_f64().max(1e-9),
        max_lag_records: max_lag_records.load(Ordering::Relaxed),
        max_lag_ms: max_lag_ms.load(Ordering::Relaxed),
        catchup_ms,
    }
}

/// Runs the read scale-out table.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "E15: served read ops/s and replication lag vs replica count (loopback, writer running)",
        format!(
            "{} closed-loop reader conns per endpoint with {}us client think time, {} gets \
             each; paced background writer commits on the primary throughout; lag sampled \
             from replica_status every 2ms",
            READERS_PER_ENDPOINT,
            READ_THINK_TIME.as_micros(),
            reads_per_conn(scale)
        ),
        &[
            "replicas",
            "endpoints",
            "readers",
            "read ops/s",
            "vs primary-only",
            "writer ops/s",
            "max lag recs",
            "max lag ms",
            "catchup ms",
        ],
    );

    let mut baseline: Option<f64> = None;
    for replicas in [0usize, 1, 2] {
        let row = run_row(scale, replicas);
        let relative = match baseline {
            None => {
                baseline = Some(row.read_ops_per_sec);
                1.0
            }
            Some(base) if base > 0.0 => row.read_ops_per_sec / base,
            _ => 0.0,
        };
        table.push_row(vec![
            replicas.to_string(),
            (replicas + 1).to_string(),
            ((replicas + 1) * READERS_PER_ENDPOINT).to_string(),
            format!("{:.0}", row.read_ops_per_sec),
            format!("{relative:.2}x"),
            format!("{:.0}", row.writer_ops_per_sec),
            row.max_lag_records.to_string(),
            row.max_lag_ms.to_string(),
            row.catchup_ms.to_string(),
        ]);
    }
    vec![table]
}
