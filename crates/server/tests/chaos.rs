//! The network chaos matrix: every fault class of
//! [`tsb_workload::ChaosProxy`] × both links of the deployment.
//!
//! * **Client link** — clients reach the primary only through the proxy.
//!   The property: whatever the proxy does (delays, severed connections,
//!   torn frames, duplicated bytes), no side panics, the failover client
//!   either gets an acknowledgement or a clean error, and **every
//!   acknowledged write is durable on the primary** when checked over a
//!   clean connection afterwards.
//! * **Replication link** — the replica subscribes through the proxy.
//!   The property: the runner survives arbitrary session deaths
//!   (reconnecting with backoff, re-bootstrapping when needed) and still
//!   **converges value-exact** once the weather passes, without the
//!   primary or replica process dying.
//!
//! Seeds come from `TSB_CHAOS_SEEDS` (comma-separated, default `1`), so
//! CI's chaos-stress job can sweep more weather than a developer's
//! `cargo test`. Every fault decision is a pure function of the seed —
//! a failure reproduces by exporting the seed it printed.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use tsb_client::{ClientOptions, FailoverClient, RetryPolicy, TsbClient};
use tsb_common::Key;
use tsb_workload::{ChaosProxy, ChaosSpec, Fault};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsb-chaos-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn(dir: &std::path::Path, extra: &[&str]) -> (Reaper, std::net::SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tsb-server"))
        .arg(dir)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--fsync",
            "always",
            "--small-pages",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn tsb-server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server printed nothing")
        .expect("read banner");
    let addr = banner
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable banner: {banner}"));
    (Reaper(child), addr)
}

/// Seeds for the matrix: `TSB_CHAOS_SEEDS=1,2,3` in CI, `1` by default.
fn seeds() -> Vec<u64> {
    std::env::var("TSB_CHAOS_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1])
}

/// Client ↔ server link under every fault class: acked writes survive.
#[test]
fn chaos_matrix_client_link() {
    const OPS: u64 = 250;
    for fault in Fault::ALL {
        for seed in seeds() {
            let dir = TempDir::new("client-link");
            let (_server, server_addr) = spawn(dir.path(), &[]);
            let mut proxy =
                ChaosProxy::start(server_addr, ChaosSpec { seed, fault }).expect("start proxy");
            let label = format!("fault={} seed={seed}", fault.name());

            let opts = ClientOptions {
                // Chaos makes individual ops slow; keep the per-op budget
                // generous and the socket timeouts short enough that a
                // severed-but-not-reset connection fails fast.
                read_timeout: Some(Duration::from_secs(5)),
                op_timeout: None,
                retry: RetryPolicy {
                    max_retries: 40,
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(200),
                },
                ..ClientOptions::default()
            };
            let mut client =
                FailoverClient::new([proxy.addr().to_string()], opts, seed).expect("client");
            let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
            for i in 0..OPS {
                let value = format!("{label} i={i}").into_bytes();
                match client.put(Key::from_u64(i), value.clone()) {
                    Ok(_) => acked.push((i, value)),
                    // A clean error after exhausting retries is
                    // acceptable under chaos; silent loss is not.
                    Err(e) => panic!("{label}: retries exhausted at op {i}: {e}"),
                }
            }

            // The weather clears: verify over a clean, direct connection.
            proxy.stop();
            let mut direct = TsbClient::connect(server_addr)
                .unwrap_or_else(|e| panic!("{label}: server unreachable after chaos: {e}"));
            direct.ping().expect("server must still be alive");
            for (key, value) in &acked {
                assert_eq!(
                    direct.get(Key::from_u64(*key)).expect("direct get"),
                    Some(value.clone()),
                    "{label}: acked write {key} lost"
                );
            }

            // Prove the fault actually fired (otherwise the matrix is
            // testing nothing).
            let stats = proxy.stats();
            assert!(stats.conns.load(Ordering::Relaxed) > 0, "{label}");
            match fault {
                Fault::None => {
                    assert!(stats.forwarded_bytes.load(Ordering::Relaxed) > 0, "{label}")
                }
                Fault::Delay => assert!(stats.delayed.load(Ordering::Relaxed) > 0, "{label}"),
                Fault::DropConn | Fault::Truncate => {
                    assert!(stats.severed.load(Ordering::Relaxed) > 0, "{label}")
                }
                Fault::DuplicatePartial => {
                    assert!(stats.duplicated.load(Ordering::Relaxed) > 0, "{label}")
                }
            }
        }
    }
}

/// Primary ↔ replica link under every fault class: the replica converges
/// value-exact once chaos stops, and both processes stay alive.
#[test]
fn chaos_matrix_replication_link() {
    replication_link(1);
}

/// The same over a four-shard primary's one log.
#[test]
fn chaos_matrix_replication_link_at_four_shards() {
    replication_link(4);
}

fn replication_link(shards: usize) {
    const OPS: u64 = 150;
    const SPACE: u64 = 60;
    let shards_arg = shards.to_string();
    for fault in Fault::ALL {
        for seed in seeds() {
            let primary_dir = TempDir::new("repl-primary");
            let replica_dir = TempDir::new("repl-replica");
            let (_primary, primary_addr) = spawn(primary_dir.path(), &["--shards", &shards_arg]);
            let mut proxy =
                ChaosProxy::start(primary_addr, ChaosSpec { seed, fault }).expect("start proxy");
            let (_replica, replica_addr) = spawn(
                replica_dir.path(),
                &["--replica-of", &proxy.addr().to_string()],
            );
            let label = format!("shards={shards} fault={} seed={seed}", fault.name());

            // Write directly to the primary — the chaos is on the
            // replication link only.
            let mut primary = TsbClient::connect(primary_addr).expect("connect primary");
            let mut expect = BTreeMap::new();
            for i in 0..OPS {
                let key = i % SPACE;
                let value = format!("{label} i={i}").into_bytes();
                primary.put(Key::from_u64(key), value.clone()).expect("put");
                expect.insert(key, value);
            }

            // The replica must converge *through* the chaos: the runner
            // reconnects/rebases as sessions die. Generous deadline —
            // severed bootstraps restart from scratch.
            let deadline = Instant::now() + Duration::from_secs(120);
            'converge: loop {
                if let Ok(mut client) = TsbClient::connect(replica_addr) {
                    loop {
                        match client.replica_status() {
                            Ok(s) if s.serving && s.lag_records == 0 => {
                                let all = expect.iter().all(|(key, value)| {
                                    client.get(Key::from_u64(*key)).ok().flatten().as_ref()
                                        == Some(value)
                                });
                                if all {
                                    break 'converge;
                                }
                            }
                            Ok(_) => {}
                            Err(_) => break,
                        }
                        assert!(
                            Instant::now() < deadline,
                            "{label}: replica did not converge within 120s"
                        );
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "{label}: replica stopped accepting connections"
                );
                std::thread::sleep(Duration::from_millis(100));
            }

            // Both sides must still be healthy.
            primary
                .ping()
                .unwrap_or_else(|e| panic!("{label}: primary died: {e}"));
            proxy.stop();
        }
    }
}
