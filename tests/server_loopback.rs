//! Loopback equivalence tests for `tsb-server` / `tsb-client`.
//!
//! The server must be a transparent wire wrapper around its engine:
//! for the same deterministic schedule, every answer that comes back over
//! a loopback socket must equal (a) the in-memory [`Oracle`] replayed at
//! the server-assigned commit timestamps and (b) the in-process engine
//! queried directly. A final test drives the clean-shutdown path and
//! reopens the data directory to prove acknowledged writes were durable.

use std::path::PathBuf;
use std::sync::Arc;

use tsb_client::TsbClient;
use tsb_common::{FsyncPolicy, Key, KeyBound, KeyRange, TimeRange, TsbConfig};
use tsb_core::EngineHandle;
use tsb_server::TsbServer;
use tsb_workload::Oracle;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsb-loopback-{tag}-{}-{}",
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

fn served_engine(dir: &std::path::Path, policy: FsyncPolicy) -> TsbServer {
    let cfg = TsbConfig {
        fsync_policy: policy,
        ..TsbConfig::small_pages()
    };
    let db = tsb_core::TsbOptions::durable(dir)
        .config(cfg)
        .open()
        .expect("open durable");
    TsbServer::start_engine(Arc::new(db), "127.0.0.1:0").expect("start server")
}

/// A deterministic mixed schedule: puts, overwrites, and deletes over a
/// small key space. Returns `(key, value-or-tombstone)` in issue order.
fn schedule() -> Vec<(u64, Option<Vec<u8>>)> {
    let mut ops = Vec::new();
    for round in 0u64..6 {
        for k in 0u64..12 {
            if (round + k) % 7 == 3 {
                ops.push((k, None));
            } else {
                let value = format!("r{round}-k{k}-{}", "x".repeat((k as usize) % 9));
                ops.push((k, Some(value.into_bytes())));
            }
        }
    }
    ops
}

#[test]
fn loopback_answers_match_oracle_and_in_process_engine() {
    let dir = TempDir::new("oracle");
    let server = served_engine(dir.path(), FsyncPolicy::Os);
    let addr = server.local_addr();
    let mut client = TsbClient::connect(addr).expect("connect");

    // Replay the schedule over the wire, mirroring each server-assigned
    // commit timestamp into the oracle.
    let mut oracle = Oracle::new();
    let mut commit_times = Vec::new();
    for (k, op) in schedule() {
        let key = Key::from_u64(k);
        let ts = match &op {
            Some(value) => {
                let ts = client.put(key.clone(), value.clone()).expect("put");
                oracle.put(key.clone(), ts, value.clone());
                ts
            }
            None => {
                let ts = client.delete(key.clone()).expect("delete");
                oracle.delete(key.clone(), ts);
                ts
            }
        };
        commit_times.push(ts);
    }

    let everything = KeyRange::new(Key::from_u64(0), KeyBound::PlusInfinity);

    // Current reads: socket == oracle == direct engine.
    for k in 0u64..12 {
        let key = Key::from_u64(k);
        let over_wire = client.get(key.clone()).expect("get");
        assert_eq!(over_wire, oracle.get_current(&key), "current get key {k}");
        assert_eq!(
            over_wire,
            server.db().get_current(&key).expect("direct get"),
            "wire vs in-process get key {k}"
        );
    }

    // As-of reads and range scans at a sample of commit timestamps.
    for ts in commit_times.iter().step_by(9).copied() {
        for k in 0u64..12 {
            let key = Key::from_u64(k);
            let over_wire = client.get_as_of(key.clone(), ts).expect("get_as_of");
            assert_eq!(
                over_wire,
                oracle.get_as_of(&key, ts),
                "as-of {ts:?} key {k}"
            );
        }
        let over_wire = client
            .range(everything.clone(), Some(ts))
            .expect("range as-of");
        assert_eq!(
            over_wire,
            oracle.scan_as_of(&everything, ts),
            "range @ {ts:?}"
        );
        assert_eq!(
            over_wire,
            server
                .db()
                .scan_as_of(&everything, ts)
                .expect("direct scan"),
            "wire vs in-process range @ {ts:?}"
        );
    }

    // Current range scan.
    let over_wire = client.range(everything.clone(), None).expect("range");
    assert_eq!(
        over_wire,
        server.db().scan_current(&everything).expect("direct scan"),
        "current range"
    );

    // Version histories: the wire answer must equal the engine's.
    for k in 0u64..12 {
        let key = Key::from_u64(k);
        let window = TimeRange::full();
        let over_wire = client.history(key.clone(), window).expect("history");
        assert_eq!(
            over_wire,
            server
                .db()
                .history_between(&key, window)
                .expect("direct history"),
            "history key {k}"
        );
    }

    server.shutdown().expect("shutdown");
}

#[test]
fn loopback_transactions_commit_and_abort_like_the_engine() {
    let dir = TempDir::new("txn");
    let server = served_engine(dir.path(), FsyncPolicy::Always);
    let mut client = TsbClient::connect(server.local_addr()).expect("connect");

    // Committed txn: all writes appear atomically at the commit timestamp.
    let txn = client.txn_begin().expect("begin");
    client
        .txn_write(txn, Key::from_u64(1), Some(b"one".to_vec()))
        .expect("write 1");
    client
        .txn_write(txn, Key::from_u64(2), Some(b"two".to_vec()))
        .expect("write 2");
    let commit_ts = client.txn_commit(txn).expect("commit");
    assert_eq!(client.get(Key::from_u64(1)).unwrap(), Some(b"one".to_vec()));
    assert_eq!(
        client.get_as_of(Key::from_u64(2), commit_ts).unwrap(),
        Some(b"two".to_vec())
    );

    // Aborted txn: nothing becomes visible.
    let txn = client.txn_begin().expect("begin");
    client
        .txn_write(txn, Key::from_u64(3), Some(b"ghost".to_vec()))
        .expect("write 3");
    client.txn_abort(txn).expect("abort");
    assert_eq!(client.get(Key::from_u64(3)).unwrap(), None);

    // Committing a dead txn surfaces the engine's error over the wire.
    let err = client.txn_commit(txn).expect_err("commit after abort");
    assert!(
        err.to_string().contains("remote error"),
        "expected a remote error, got: {err}"
    );

    server.shutdown().expect("shutdown");
}

#[test]
fn pipelined_replies_can_be_reaped_out_of_order() {
    use tsb_client::protocol::{Reply, Request};

    let dir = TempDir::new("pipeline");
    let server = served_engine(dir.path(), FsyncPolicy::Always);
    let mut client = TsbClient::connect(server.local_addr()).expect("connect");

    // Fire a burst of pipelined puts without reading a single reply.
    let mut ids = Vec::new();
    for i in 0u64..32 {
        let id = client
            .send(&Request::Put {
                key: Key::from_u64(i % 8),
                value: format!("v{i}").into_bytes(),
            })
            .expect("send");
        ids.push(id);
    }

    // Reap them in reverse order; every reply must match its request id.
    for id in ids.iter().rev().copied() {
        match client.wait_for(id).expect("wait_for") {
            Reply::Committed { .. } => {}
            other => panic!("expected Committed for id {id}, got {other:?}"),
        }
    }
    assert_eq!(client.parked(), 0, "no stray replies left behind");

    // The burst's effects are all visible.
    for k in 0u64..8 {
        assert!(client.get(Key::from_u64(k)).expect("get").is_some());
    }

    server.shutdown().expect("shutdown");
}

#[test]
fn clean_shutdown_persists_every_acknowledged_write() {
    let dir = TempDir::new("smoke");
    let acked: Vec<(u64, Vec<u8>)> = {
        let server = served_engine(dir.path(), FsyncPolicy::Always);
        let addr = server.local_addr();
        let mut client = TsbClient::connect(addr).expect("connect");
        let mut acked = Vec::new();
        for i in 0u64..24 {
            let value = format!("durable-{i}").into_bytes();
            client.put(Key::from_u64(i), value.clone()).expect("put");
            acked.push((i, value));
        }
        // The smoke path CI drives: a client-initiated shutdown, after
        // which `wait` returns once the acceptor and workers drain.
        client.shutdown_server().expect("shutdown verb");
        server.wait().expect("server wait");
        acked
    };

    let cfg = TsbConfig {
        fsync_policy: FsyncPolicy::Always,
        ..TsbConfig::small_pages()
    };
    let reopened = tsb_core::TsbOptions::durable(dir.path())
        .config(cfg)
        .open()
        .expect("reopen");
    for (k, value) in acked {
        assert_eq!(
            reopened.get_current(&Key::from_u64(k)).expect("get"),
            Some(value),
            "acknowledged key {k} must survive reopen"
        );
    }
}
