//! End-to-end replication probes against the real binaries: a primary
//! `tsb-server` and a `--replica-of` replica process, connected over TCP.
//!
//! Three scenarios:
//!
//! * Bootstrap + stream: a replica started against a primary with existing
//!   data fetches a base image, streams the log, serves value-exact reads,
//!   and rejects writes with the read-only error. The client-side read
//!   preference routes reads to it transparently.
//! * `kill -9` the replica: a restarted replica resumes from its own local
//!   log copy (no re-bootstrap) and converges on everything written while
//!   it was down.
//! * Checkpoint reset while the replica is down: the primary's clean
//!   shutdown checkpoints (discarding the log the replica still needed),
//!   so the restarted replica must detect `needs_rebase` over the wire,
//!   re-fetch a fresh base, and still converge value-exact.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tsb_client::TsbClient;
use tsb_common::Key;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsb-repl-{tag}-{}-{}",
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

/// Kills the child on drop so a failing assertion never leaks a server.
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

fn spawn_primary(dir: &std::path::Path) -> (Reaper, std::net::SocketAddr) {
    spawn(dir, &[])
}

fn spawn_replica(
    dir: &std::path::Path,
    primary: std::net::SocketAddr,
) -> (Reaper, std::net::SocketAddr) {
    spawn(dir, &["--replica-of", &primary.to_string()])
}

/// Polls the replica until it serves with zero reported lag *and* its
/// values match `expect` exactly. The reported lag alone is not enough:
/// the replica's view of the primary watermark is only as fresh as its
/// last poll, so a just-committed tail can be invisible to it for a
/// moment. Connection failures during startup are retried too.
fn wait_converged(
    replica_addr: std::net::SocketAddr,
    expect: &BTreeMap<u64, Vec<u8>>,
) -> TsbClient {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut client) = TsbClient::connect(replica_addr) {
            loop {
                match client.replica_status() {
                    Ok(s) if s.serving && s.lag_records == 0 => {
                        let matches = expect.iter().all(|(key, value)| {
                            client.get(Key::from_u64(*key)).ok().flatten().as_ref() == Some(value)
                        });
                        if matches {
                            return client;
                        }
                    }
                    Ok(_) => {}
                    // Lost the connection (e.g. replica still starting up):
                    // reconnect.
                    Err(_) => break,
                }
                if Instant::now() > deadline {
                    panic!("replica did not converge within 30s");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        if Instant::now() > deadline {
            panic!("replica did not accept a connection within 30s");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Writes `count` keys (cycling over `space`) through the client and folds
/// the final value of each key into `expect`.
fn write_batch(
    client: &mut TsbClient,
    expect: &mut BTreeMap<u64, Vec<u8>>,
    tag: &str,
    space: u64,
    count: u64,
) {
    for i in 0..count {
        let key = i % space;
        let value = format!("{tag}-{i}").into_bytes();
        client.put(Key::from_u64(key), value.clone()).expect("put");
        expect.insert(key, value);
    }
}

fn assert_replica_matches(client: &mut TsbClient, expect: &BTreeMap<u64, Vec<u8>>) {
    for (key, value) in expect {
        assert_eq!(
            client.get(Key::from_u64(*key)).expect("replica get"),
            Some(value.clone()),
            "replica diverged on key {key}"
        );
    }
}

#[test]
fn replica_bootstraps_streams_and_rejects_writes() {
    let primary_dir = TempDir::new("boot-p");
    let replica_dir = TempDir::new("boot-r");
    let (_primary, primary_addr) = spawn_primary(primary_dir.path());
    let mut primary = TsbClient::connect(primary_addr).expect("connect primary");

    // Data written *before* the replica exists arrives via the base image.
    let mut expect = BTreeMap::new();
    write_batch(&mut primary, &mut expect, "base", 16, 48);

    let (_replica, replica_addr) = spawn_replica(replica_dir.path(), primary_addr);

    // Data written *after* arrives via the subscribe stream.
    write_batch(&mut primary, &mut expect, "stream", 16, 48);

    let mut replica = wait_converged(replica_addr, &expect);
    assert_replica_matches(&mut replica, &expect);

    // Roles over the wire.
    let role = primary.role().expect("primary role");
    assert!(role.primary);
    let role = replica.role().expect("replica role");
    assert!(!role.primary);

    // Writes are rejected with the read-only error class.
    let err = replica
        .put(Key::from_u64(0), b"nope".to_vec())
        .expect_err("replica accepted a write");
    assert!(
        err.to_string().contains("read-only"),
        "unexpected rejection: {err}"
    );
}

#[test]
fn kill_nine_replica_reconnects_from_its_local_log() {
    let primary_dir = TempDir::new("kill-p");
    let replica_dir = TempDir::new("kill-r");
    let (_primary, primary_addr) = spawn_primary(primary_dir.path());
    let mut primary = TsbClient::connect(primary_addr).expect("connect primary");

    let mut expect = BTreeMap::new();
    write_batch(&mut primary, &mut expect, "a", 16, 48);

    let (mut replica, replica_addr) = spawn_replica(replica_dir.path(), primary_addr);
    drop(wait_converged(replica_addr, &expect));

    // SIGKILL mid-life: no flush, no clean shutdown.
    replica.0.kill().expect("kill -9 replica");
    replica.0.wait().expect("reap replica");

    // The primary keeps committing while the replica is dead.
    write_batch(&mut primary, &mut expect, "b", 16, 48);

    // A restarted replica must resume from its local log copy and catch up.
    let (_replica2, replica_addr2) = spawn_replica(replica_dir.path(), primary_addr);
    let mut replica = wait_converged(replica_addr2, &expect);
    assert_replica_matches(&mut replica, &expect);
}

#[test]
fn checkpoint_reset_while_replica_down_forces_wire_rebase() {
    let primary_dir = TempDir::new("rebase-p");
    let replica_dir = TempDir::new("rebase-r");
    let (mut primary_proc, primary_addr) = spawn_primary(primary_dir.path());
    let mut primary = TsbClient::connect(primary_addr).expect("connect primary");

    let mut expect = BTreeMap::new();
    write_batch(&mut primary, &mut expect, "a", 16, 48);

    let (mut replica, replica_addr) = spawn_replica(replica_dir.path(), primary_addr);
    drop(wait_converged(replica_addr, &expect));
    replica.0.kill().expect("kill -9 replica");
    replica.0.wait().expect("reap replica");

    // Commit more while the replica is down, then shut the primary down
    // cleanly: that checkpoints and resets the log, discarding the records
    // the replica still needed.
    write_batch(&mut primary, &mut expect, "b", 16, 48);
    primary.shutdown_server().expect("shutdown primary");
    primary_proc.0.wait().expect("reap primary");
    drop(primary);

    let (_primary2, primary_addr2) = spawn_primary(primary_dir.path());
    let mut primary = TsbClient::connect(primary_addr2).expect("reconnect primary");
    write_batch(&mut primary, &mut expect, "c", 16, 48);

    // The restarted replica's cursor predates the reset: the wire answer
    // is needs_rebase, and the runner must re-bootstrap from a fresh base.
    let (_replica2, replica_addr2) = spawn_replica(replica_dir.path(), primary_addr2);
    let mut replica = wait_converged(replica_addr2, &expect);
    assert_replica_matches(&mut replica, &expect);
}
