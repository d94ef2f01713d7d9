//! Crash probe: `kill -9` a live `tsb-server` and prove that no
//! acknowledged write is lost.
//!
//! This is the served-path analogue of the in-process recovery matrix: the
//! server binary runs with `--fsync always`, a client records every put the
//! server *acknowledged* (an ack means the commit LSN passed the durable
//! watermark), the process is killed without any chance to flush, and the
//! data directory is reopened in-process. Every acknowledged key/value must
//! be there; writes that were in flight but unacknowledged may or may not
//! be — both are correct.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use tsb_client::TsbClient;
use tsb_common::{FsyncPolicy, Key, TsbConfig, TxnId};
use tsb_core::sharded::shard_of;
use tsb_core::EngineHandle;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsb-kill-probe-{tag}-{}-{}",
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

fn spawn_server(dir: &std::path::Path, fsync: &str) -> (Reaper, std::net::SocketAddr) {
    spawn_server_with(dir, fsync, &[])
}

fn spawn_server_with(
    dir: &std::path::Path,
    fsync: &str,
    extra: &[&str],
) -> (Reaper, std::net::SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tsb-server"))
        .arg(dir)
        .args(["--addr", "127.0.0.1:0", "--fsync", fsync, "--small-pages"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn tsb-server");

    // The binary prints `tsb-server listening on {addr}` once bound.
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

#[test]
fn kill_nine_loses_no_acknowledged_write() {
    let dir = TempDir::new("always");
    let acked: Vec<(u64, Vec<u8>)> = {
        let (mut server, addr) = spawn_server(dir.path(), "always");
        let mut client = TsbClient::connect(addr).expect("connect");

        let mut acked = Vec::new();
        for i in 0u64..64 {
            let key = i % 16;
            let value = format!("acked-{i}").into_bytes();
            // `put` returns only after the server acknowledged, and the
            // server acknowledges only at durability. If this returns Ok,
            // the write must survive SIGKILL.
            client.put(Key::from_u64(key), value.clone()).expect("put");
            acked.retain(|(k, _)| *k != key);
            acked.push((key, value));
        }

        // SIGKILL: no flush, no checkpoint, no Drop handlers.
        server.0.kill().expect("kill -9");
        server.0.wait().expect("reap");
        acked
    };

    let cfg = TsbConfig {
        fsync_policy: FsyncPolicy::Always,
        ..TsbConfig::small_pages()
    };
    let reopened = tsb_core::TsbOptions::durable(dir.path())
        .config(cfg)
        .open()
        .expect("reopen after SIGKILL");
    for (k, value) in &acked {
        assert_eq!(
            reopened.get_current(&Key::from_u64(*k)).expect("get"),
            Some(value.clone()),
            "acknowledged key {k} lost after kill -9"
        );
    }
}

#[test]
fn kill_nine_mid_pipeline_keeps_every_acked_group_commit() {
    use tsb_client::protocol::{Reply, Request};

    // `always` is the policy whose ack is a per-LSN durability promise.
    // The pipelining exercises batched acks riding a single watermark
    // wait.
    let dir = TempDir::new("pipelined");
    let acked: Vec<(u64, Vec<u8>)> = {
        let (mut server, addr) = spawn_server(dir.path(), "always");
        let mut client = TsbClient::connect(addr).expect("connect");

        // Pipeline bursts so acks ride the group-commit watermark, then
        // record exactly the ones that came back Committed.
        let mut acked = Vec::new();
        for burst in 0u64..8 {
            let mut ids = Vec::new();
            for j in 0u64..8 {
                let i = burst * 8 + j;
                let key = i % 16;
                let value = format!("pipelined-{i}").into_bytes();
                let id = client
                    .send(&Request::Put {
                        key: Key::from_u64(key),
                        value: value.clone(),
                    })
                    .expect("send");
                ids.push((id, key, value));
            }
            for (id, key, value) in ids {
                match client.wait_for(id).expect("wait_for") {
                    Reply::Committed { .. } => {
                        acked.retain(|(k, _)| *k != key);
                        acked.push((key, value));
                    }
                    other => panic!("expected Committed, got {other:?}"),
                }
            }
        }

        server.0.kill().expect("kill -9");
        server.0.wait().expect("reap");
        acked
    };

    let cfg = TsbConfig {
        fsync_policy: FsyncPolicy::Always,
        ..TsbConfig::small_pages()
    };
    let reopened = tsb_core::TsbOptions::durable(dir.path())
        .config(cfg)
        .open()
        .expect("reopen after SIGKILL");
    for (k, value) in &acked {
        assert_eq!(
            reopened.get_current(&Key::from_u64(*k)).expect("get"),
            Some(value.clone()),
            "acknowledged key {k} lost after kill -9 mid-pipeline"
        );
    }
}

/// One key per shard for a 4-shard server, so every probe transaction
/// genuinely straddles all four shards and commits as one fence naming
/// all four.
fn straddling_keys(round: u64) -> Vec<u64> {
    const SHARDS: usize = 4;
    let mut picked: Vec<Option<u64>> = vec![None; SHARDS];
    let mut candidate = 10_000 + round * 1_000;
    while picked.iter().any(Option::is_none) {
        let shard = shard_of(&Key::from_u64(candidate), SHARDS);
        if picked[shard].is_none() {
            picked[shard] = Some(candidate);
        }
        candidate += 1;
    }
    picked.into_iter().map(Option::unwrap).collect()
}

/// Begins a transaction and buffers one write per shard in it (value
/// `txn-{round}-{key}`); the caller decides how to commit.
fn write_straddling_txn(client: &mut TsbClient, round: u64) -> (TxnId, Vec<u64>) {
    let keys = straddling_keys(round);
    let txn = client.txn_begin().expect("txn_begin");
    for k in &keys {
        client
            .txn_write(
                txn,
                Key::from_u64(*k),
                Some(format!("txn-{round}-{k}").into_bytes()),
            )
            .expect("txn_write");
    }
    (txn, keys)
}

/// The sharded served path under SIGKILL: `--shards 4 --fsync always`,
/// plain puts interleaved with cross-shard transactions, the process
/// killed with a commit still in flight. Zero acknowledged writes lost and
/// zero partially-committed cross-shard transactions.
///
/// The in-flight commit is probed over several kill/reopen rounds on the
/// same directory: killed the instant the commit is on the wire until it
/// is seen lost, then killed ever later until it is seen applied. Both
/// outcomes must occur — a probe whose commit never left the client (the
/// client queues sends; see the `flush()` below) would pass the
/// all-or-nothing check vacuously with "nothing" every time.
#[test]
fn kill_nine_sharded_server_loses_no_acks_and_no_partial_commits() {
    use std::time::Duration;
    use tsb_client::protocol::Request;

    let dir = TempDir::new("sharded");
    let mut acked_puts: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut acked_txns: Vec<(Vec<u64>, u64)> = Vec::new();
    let (mut seen_lost, mut seen_applied) = (false, false);
    let mut kill_delay = Duration::ZERO;

    for probe in 0u64..16 {
        let (keys, round) = {
            let (mut server, addr) = spawn_server_with(dir.path(), "always", &["--shards", "4"]);
            let mut client = TsbClient::connect(addr).expect("connect");

            if probe == 0 {
                for round in 0u64..10 {
                    for j in 0u64..6 {
                        let key = round * 6 + j;
                        let value = format!("put-{key}").into_bytes();
                        client.put(Key::from_u64(key), value.clone()).expect("put");
                        acked_puts.retain(|(k, _)| *k != key);
                        acked_puts.push((key, value));
                    }
                    let (txn, keys) = write_straddling_txn(&mut client, round);
                    client.txn_commit(txn).expect("txn_commit");
                    acked_txns.push((keys, round));
                }
            }

            // A cross-shard commit sent but never awaited: SIGKILL lands
            // with its fence possibly half-written or unforced. Whatever
            // happened, it must not be partial.
            let round = 10 + probe;
            let (txn, keys) = write_straddling_txn(&mut client, round);
            client
                .send(&Request::TxnCommit { txn })
                .expect("send commit");
            // Nothing receives after this send, so nothing else would put
            // it on the wire.
            client.flush().expect("flush commit");

            std::thread::sleep(kill_delay);
            server.0.kill().expect("kill -9");
            server.0.wait().expect("reap");
            (keys, round)
        };

        let cfg = TsbConfig {
            fsync_policy: FsyncPolicy::Always,
            ..TsbConfig::small_pages()
        };
        let reopened = tsb_core::TsbOptions::durable(dir.path())
            .config(cfg)
            .shards(4)
            .open()
            .expect("sharded reopen");
        reopened.verify().expect("verify");
        for (k, value) in &acked_puts {
            assert_eq!(
                reopened.get_current(&Key::from_u64(*k)).expect("get"),
                Some(value.clone()),
                "acknowledged put {k} lost after kill -9"
            );
        }
        for (keys, round) in &acked_txns {
            for k in keys {
                assert_eq!(
                    reopened.get_current(&Key::from_u64(*k)).expect("get"),
                    Some(format!("txn-{round}-{k}").into_bytes()),
                    "acknowledged cross-shard txn {round} lost key {k}"
                );
            }
        }
        // The in-flight commit: all four shards or none of them.
        let present = keys
            .iter()
            .filter(|k| {
                reopened.get_current(&Key::from_u64(**k)).expect("get")
                    == Some(format!("txn-{round}-{k}").into_bytes())
            })
            .count();
        assert!(
            present == 0 || present == keys.len(),
            "in-flight cross-shard txn committed on {present}/{} shards after kill -9",
            keys.len()
        );
        if present == 0 {
            seen_lost = true;
        } else {
            // Survived without an ack: from here on it is as good as
            // acknowledged, and later rounds must keep it.
            seen_applied = true;
            acked_txns.push((keys, round));
        }
        if seen_lost && seen_applied {
            break;
        }
        if seen_lost {
            kill_delay = (kill_delay * 4).max(Duration::from_millis(1));
        }
    }
    assert!(
        seen_lost && seen_applied,
        "the in-flight commit probe must see both outcomes over its rounds \
         (lost: {seen_lost}, applied: {seen_applied}); 'never applied' means the commit \
         is not reaching the server before the kill"
    );
}

/// `--fsync` knows two policies. Any other spelling — the retired
/// `every:N` included — is a usage error (exit 2, usage on stderr), not a
/// silent fallback to a policy the operator did not ask for.
#[test]
fn an_unknown_fsync_policy_is_a_usage_error() {
    for policy in ["every:8", "sometimes"] {
        let dir = TempDir::new("usage");
        let out = Command::new(env!("CARGO_BIN_EXE_tsb-server"))
            .arg(dir.path())
            .args(["--fsync", policy])
            .output()
            .expect("run tsb-server");
        assert_eq!(out.status.code(), Some(2), "--fsync {policy}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: tsb-server") && stderr.contains("--fsync always|os]"),
            "--fsync {policy} printed: {stderr}"
        );
    }
}
