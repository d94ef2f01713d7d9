//! Failover probes against the real binaries: replica promotion, epoch
//! fencing, and the promotion-under-load drill.
//!
//! The headline test is the drill the operations runbook
//! (`docs/operations.md`) promises: `kill -9` the primary mid-traffic,
//! promote the replica, let the clients' failover layer re-discover the
//! primary by role + epoch — and verify that **every write that was ever
//! acknowledged to a client is still readable** afterwards. The probe is
//! honest about the async-replication caveat: it quiesces writers and
//! waits until the replica has applied through the *primary's* durable
//! LSN (`role` reply) *before* the kill — an operator promoting a
//! lagging replica accepts losing the unshipped tail; the probe proves
//! the machinery itself loses nothing it claimed to have. Waiting for
//! the replica's own lag counters instead would be a trap: they compare
//! against the watermark the replica last polled, which can read zero
//! while newer durable records sit on the primary, unshipped.
//!
//! Epoch fencing is tested both ways:
//!
//! * a `subscribe` presenting the **old** epoch is rejected with the
//!   `stale-epoch` wire code (16) — a rebooted demoted primary cannot
//!   feed off the new lineage without re-bootstrapping;
//! * the demoted primary re-pointed with `--replica-of` at the promoted
//!   node rebases: its divergent tail (writes it accepted after the
//!   promotion, which no client of the new lineage ever saw) is
//!   discarded, and it converges value-exact to the new primary.
//!
//! Both run at one shard and at four: a sharded primary's one log ships
//! unchanged to a replica of the same shard count.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tsb_client::{protocol, ClientOptions, FailoverClient, RetryPolicy, TsbClient};
use tsb_common::{Key, TsbError};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsb-failover-{tag}-{}-{}",
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

/// The no-loss half of the promotion drill: with writers quiesced, read
/// the durable watermark off the *primary's* `role` reply, then wait
/// until the replica has applied through it. The replica's own lag
/// counters are relative to the primary watermark it last *polled*, so
/// they can momentarily read zero while the primary already holds newer
/// durable records that never shipped — promoting inside that window
/// would silently drop them. Comparing against the primary's number is
/// the only honest check.
fn wait_caught_up(primary_addr: std::net::SocketAddr, replica_addr: std::net::SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let target = loop {
        if let Ok(mut primary) = TsbClient::connect(primary_addr) {
            if let Ok(role) = primary.role() {
                break role.durable_lsn;
            }
        }
        assert!(
            Instant::now() < deadline,
            "could not read the primary's durable watermark"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    loop {
        if let Ok(mut client) = TsbClient::connect(replica_addr) {
            while Instant::now() < deadline {
                match client.replica_status() {
                    Ok(s) if s.serving && s.applied_lsn >= target => return,
                    Ok(_) => {}
                    Err(_) => break,
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        assert!(
            Instant::now() < deadline,
            "replica did not catch up to the primary's durable LSN within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn retrying_promote(addr: std::net::SocketAddr) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(mut client) = TsbClient::connect(addr) {
            if let Ok(epoch) = client.promote() {
                return epoch;
            }
        }
        assert!(
            Instant::now() < deadline,
            "promotion did not succeed in 20s"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// `spawn`'s extra arguments for a primary of `shards` shards, or for a
/// replica of `primary` (which takes its primary's shard count).
fn node_args(shards: usize, primary: Option<std::net::SocketAddr>) -> Vec<String> {
    match primary {
        Some(primary) => vec!["--replica-of".to_string(), primary.to_string()],
        None => vec!["--shards".to_string(), shards.to_string()],
    }
}

fn spawn_node(
    dir: &std::path::Path,
    shards: usize,
    primary: Option<std::net::SocketAddr>,
) -> (Reaper, std::net::SocketAddr) {
    let args = node_args(shards, primary);
    spawn(dir, &args.iter().map(String::as_str).collect::<Vec<_>>())
}

/// The promotion-under-load drill. Kill -9 the primary, promote the
/// replica, and prove zero acknowledged writes were lost while writer
/// threads fail over live through [`FailoverClient`].
#[test]
fn promotion_under_load_loses_no_acked_writes() {
    promotion_under_load(1);
}

#[test]
fn promotion_under_load_loses_no_acked_writes_at_four_shards() {
    promotion_under_load(4);
}

fn promotion_under_load(shards: usize) {
    const WRITERS: usize = 3;
    const PHASE_OPS: u64 = 120;

    let primary_dir = TempDir::new("load-primary");
    let replica_dir = TempDir::new("load-replica");
    let (primary_proc, primary_addr) = spawn_node(primary_dir.path(), shards, None);
    let (_replica_proc, replica_addr) = spawn_node(replica_dir.path(), shards, Some(primary_addr));

    let opts = ClientOptions {
        op_timeout: Some(Duration::from_secs(10)),
        retry: RetryPolicy {
            max_retries: 30,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(500),
        },
        ..ClientOptions::default()
    };

    // Writers run two phases: before the kill and across the failover.
    // Phase boundaries are barriers so the main thread can quiesce,
    // verify lag zero, and kill between them.
    let quiesced = Arc::new(Barrier::new(WRITERS + 1));
    let resume = Arc::new(Barrier::new(WRITERS + 1));
    let failed = Arc::new(AtomicBool::new(false));
    let endpoints = [primary_addr.to_string(), replica_addr.to_string()];
    let mut handles = Vec::new();
    for tid in 0..WRITERS {
        let opts = opts.clone();
        let endpoints = endpoints.clone();
        let quiesced = Arc::clone(&quiesced);
        let resume = Arc::clone(&resume);
        let failed = Arc::clone(&failed);
        handles.push(std::thread::spawn(move || {
            let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
            let mut client =
                FailoverClient::new(endpoints.iter().cloned(), opts, tid as u64).unwrap();
            let base = (tid as u64 + 1) * 1_000_000;
            for i in 0..PHASE_OPS {
                let key = base + i;
                let value = format!("w{tid}-pre-{i}").into_bytes();
                match client.put(Key::from_u64(key), value.clone()) {
                    Ok(_) => acked.push((key, value)),
                    Err(e) => {
                        failed.store(true, Ordering::SeqCst);
                        panic!("writer {tid} pre-kill put failed: {e}");
                    }
                }
            }
            quiesced.wait();
            resume.wait();
            for i in 0..PHASE_OPS {
                let key = base + PHASE_OPS + i;
                let value = format!("w{tid}-post-{i}").into_bytes();
                match client.put(Key::from_u64(key), value.clone()) {
                    Ok(_) => acked.push((key, value)),
                    Err(e) => {
                        failed.store(true, Ordering::SeqCst);
                        panic!("writer {tid} post-kill put failed: {e}");
                    }
                }
            }
            acked
        }));
    }

    // Quiesce, drain replication, then murder the primary.
    quiesced.wait();
    wait_caught_up(primary_addr, replica_addr);
    drop(primary_proc); // Reaper: SIGKILL, no goodbye.

    // Release the writers *before* promoting: their first post-kill
    // attempts race the promotion and must survive on retries alone.
    resume.wait();
    let epoch = retrying_promote(replica_addr);
    assert_eq!(epoch, 2, "first promotion of a fresh lineage bumps 1 -> 2");

    let mut all_acked: Vec<(u64, Vec<u8>)> = Vec::new();
    for h in handles {
        all_acked.extend(h.join().expect("writer thread panicked"));
    }
    assert!(!failed.load(Ordering::SeqCst));
    assert_eq!(all_acked.len(), WRITERS * 2 * PHASE_OPS as usize);

    // Every acknowledged write must be readable on the promoted primary.
    let mut verify = TsbClient::connect(replica_addr).expect("connect promoted");
    let role = verify.role().expect("role");
    assert!(role.primary, "promoted node must serve as primary");
    assert_eq!(role.epoch, 2);
    assert!(role.durable_lsn > 0, "a promoted node reports its own log");
    for (key, value) in &all_acked {
        assert_eq!(
            verify.get(Key::from_u64(*key)).expect("get on promoted"),
            Some(value.clone()),
            "acked write {key} lost across failover"
        );
    }
}

/// Promotion mechanics and epoch fencing, step by step: idempotent
/// promotion, stale-epoch subscribe rejection, divergent-tail discard on
/// rebase, and epoch persistence across restart.
#[test]
fn promotion_fences_stale_epochs_and_discards_divergent_tail() {
    promotion_fences(1);
}

#[test]
fn promotion_fences_stale_epochs_and_discards_divergent_tail_at_four_shards() {
    promotion_fences(4);
}

fn promotion_fences(shards: usize) {
    let primary_dir = TempDir::new("fence-primary");
    let replica_dir = TempDir::new("fence-replica");
    let (primary_proc, primary_addr) = spawn_node(primary_dir.path(), shards, None);
    let (replica_proc, replica_addr) = spawn_node(replica_dir.path(), shards, Some(primary_addr));

    let mut primary = TsbClient::connect(primary_addr).expect("connect primary");
    let mut expect = BTreeMap::new();
    for i in 0..40u64 {
        let value = format!("v-{i}").into_bytes();
        primary.put(Key::from_u64(i), value.clone()).expect("put");
        expect.insert(i, value);
    }
    wait_caught_up(primary_addr, replica_addr);

    // Promote. The replica is now a primary at epoch 2; doing it again is
    // a no-op answering the same epoch.
    let mut replica = TsbClient::connect(replica_addr).expect("connect replica");
    assert_eq!(replica.promote().expect("promote"), 2);
    assert_eq!(replica.promote().expect("re-promote"), 2);
    let role = replica.role().expect("role");
    assert!(role.primary);
    assert_eq!(role.epoch, 2);
    assert!(role.durable_lsn > 0, "a promoted node reports its own log");

    // The promoted node accepts writes now.
    let value = b"post-promotion".to_vec();
    replica
        .put(Key::from_u64(1000), value.clone())
        .expect("write on promoted");
    expect.insert(1000, value);

    // Promotion preserved the entire applied prefix: the drill waited for
    // the primary's durable LSN, so nothing acked may be missing here.
    for (key, value) in &expect {
        assert_eq!(
            replica.get(Key::from_u64(*key)).expect("get on promoted"),
            Some(value.clone()),
            "acked write {key} lost at promotion"
        );
    }

    // Fencing, wire-level: a subscriber presenting the old epoch (the
    // demoted primary's lineage) is rejected with stale-epoch (16), while
    // epoch 0 ("first contact") and the current epoch are accepted.
    for (epoch, want_reject) in [(1u64, true), (2, false), (0, false)] {
        let id = replica
            .send(&protocol::Request::Subscribe {
                from_lsn: u64::MAX,
                worm_have: vec![u64::MAX; shards],
                max_bytes: 4096,
                epoch,
            })
            .expect("send subscribe");
        match replica.wait_for(id).expect("subscribe reply") {
            protocol::Reply::Error { code, .. } => {
                assert!(want_reject, "epoch {epoch} unexpectedly rejected");
                assert_eq!(code, protocol::CODE_STALE_EPOCH);
            }
            other => {
                assert!(
                    !want_reject,
                    "epoch {epoch} should have been rejected, got {other:?}"
                );
                assert!(matches!(other, protocol::Reply::Batch { .. }), "{other:?}");
            }
        }
    }

    // Split brain: the old primary is still up at epoch 1 and accepts a
    // write nobody in the new lineage will ever see.
    primary
        .put(Key::from_u64(2000), b"divergent".to_vec())
        .expect("split-brain write");
    primary.shutdown_server().expect("shutdown old primary");
    drop(primary_proc);

    // Re-point the demoted primary at the promoted node. Its local state
    // carries epoch 1 → its subscribe is fenced off → it re-bootstraps,
    // discarding the divergent tail, and converges to the new lineage.
    let (_demoted_proc, demoted_addr) = spawn_node(primary_dir.path(), shards, Some(replica_addr));
    // The demoted node first serves its own stale state, then the fenced
    // subscribe forces the rebase (briefly not serving while the base
    // installs) — so poll for value-exact convergence to the *new*
    // lineage, not merely for reported lag zero.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut demoted = 'converged: loop {
        if let Ok(mut client) = TsbClient::connect(demoted_addr) {
            loop {
                let settled = client
                    .replica_status()
                    .map(|s| s.serving && s.lag_records == 0 && s.ship_lag_records == 0);
                match settled {
                    Ok(true) => {
                        let rebased =
                            expect.iter().all(|(key, value)| {
                                client.get(Key::from_u64(*key)).ok().flatten().as_ref()
                                    == Some(value)
                            }) && client.get(Key::from_u64(2000)).ok().flatten().is_none();
                        if rebased {
                            break 'converged client;
                        }
                    }
                    Ok(false) => {}
                    Err(_) => break,
                }
                assert!(
                    Instant::now() < deadline,
                    "demoted node did not rebase onto the new lineage within 60s"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        assert!(
            Instant::now() < deadline,
            "demoted node stopped accepting connections"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(
        demoted.get(Key::from_u64(2000)).expect("get divergent"),
        None,
        "divergent tail survived the rebase"
    );

    // Writes to the demoted node get read-only: it is a replica now.
    match demoted.put(Key::from_u64(1), b"nope".to_vec()) {
        Err(TsbError::ReadOnly) => {}
        other => panic!("expected ReadOnly on demoted node, got {other:?}"),
    }

    // The promotion epoch survives a clean restart of the promoted node.
    replica.shutdown_server().expect("shutdown promoted");
    drop(replica_proc);
    let (_promoted_proc, promoted_addr) = spawn_node(replica_dir.path(), shards, None);
    let mut promoted = TsbClient::connect(promoted_addr).expect("reconnect promoted");
    let role = promoted.role().expect("role after restart");
    assert!(role.primary);
    assert_eq!(role.epoch, 2, "promotion epoch must be durable");
}

/// A `Promote` that finds nothing to promote — a replica still awaiting
/// its first base — fails, leaves the epoch alone, and does not stop
/// replication: once its primary comes up, the replica bootstraps and
/// converges.
#[test]
fn promoting_a_replica_without_a_base_fails_and_replication_goes_on() {
    use std::net::TcpListener;
    use tsb_core::{epoch::read_epoch, TsbOptions};
    use tsb_server::{ServerOptions, TsbServer};

    let primary_dir = TempDir::new("nobase-p");
    let replica_dir = TempDir::new("nobase-r");
    // An address nothing listens on yet: the primary binds it later.
    let primary_addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve an address");
    let engine = TsbOptions::durable(replica_dir.path())
        .small_pages()
        .open_replica()
        .expect("open replica");
    let replica = TsbServer::start_replica(
        engine,
        primary_addr.to_string(),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("start replica");
    let mut client = TsbClient::connect(replica.local_addr()).expect("connect replica");
    let epoch = client.role().expect("role").epoch;

    let refused = client.promote().expect_err("nothing to promote");
    assert!(
        refused.to_string().contains("nothing to promote"),
        "unexpected refusal: {refused}"
    );
    let role = client.role().expect("role after refusal");
    assert!(!role.primary);
    assert_eq!(role.epoch, epoch);
    assert_eq!(read_epoch(replica_dir.path()).unwrap(), epoch);

    let db = TsbOptions::durable(primary_dir.path())
        .small_pages()
        .open()
        .expect("open primary");
    let primary = TsbServer::start_engine(Arc::new(db), primary_addr).expect("start primary");
    let mut writer = TsbClient::connect(primary.local_addr()).expect("connect primary");
    for i in 0..32u64 {
        writer
            .put(Key::from_u64(i), format!("v{i}").into_bytes())
            .expect("put");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let converged = (0..32u64).all(|i| {
            let got = client.get(Key::from_u64(i)).ok().flatten();
            got == Some(format!("v{i}").into_bytes())
        });
        if converged {
            break;
        }
        assert!(Instant::now() < deadline, "the replica did not converge");
        std::thread::sleep(Duration::from_millis(50));
    }
    // Now there is something to promote.
    assert_eq!(client.promote().expect("promote"), epoch + 1);
    drop((replica, primary));
}

/// A node whose epoch is ahead of its primary's — left so by a promotion
/// that failed after it bumped the epoch — refuses the primary's base
/// rather than trade its directory for the older lineage, and refuses it at
/// the base's descriptor: through a faithful proxy, a second of retries
/// moves a small fraction of the base, not the base.
#[test]
fn a_replica_ahead_of_its_primarys_epoch_keeps_its_directory() {
    use tsb_core::{epoch::persist_epoch, EngineHandle, TsbOptions};
    use tsb_server::{ServerOptions, TsbServer};
    use tsb_workload::{ChaosProxy, ChaosSpec, Fault};

    let primary_dir = TempDir::new("ahead-p");
    let replica_dir = TempDir::new("ahead-r");
    let db = TsbOptions::durable(primary_dir.path())
        .small_pages()
        .fsync(tsb_common::FsyncPolicy::Os)
        .open()
        .expect("open primary");
    db.insert(Key::from_u64(1), b"old lineage".to_vec())
        .expect("insert");
    // Enough pages and history that fetching the base would show.
    for round in 0..24u64 {
        for key in 0..400u64 {
            db.insert(Key::from_u64(key), vec![round as u8; 24])
                .expect("insert");
        }
    }
    let space = db.tree_stats().expect("stats").space;
    let base_bytes = space.magnetic_bytes + space.worm_bytes;
    assert!(space.worm_bytes > 0, "the base carries history");
    assert!(
        base_bytes >= 256 << 10,
        "a {base_bytes}-byte base is too small"
    );
    let primary = TsbServer::start_engine(Arc::new(db), "127.0.0.1:0").expect("start primary");
    let proxy = ChaosProxy::start(
        primary.local_addr(),
        ChaosSpec {
            seed: 1,
            fault: Fault::None,
        },
    )
    .expect("start proxy");
    persist_epoch(replica_dir.path(), 5).expect("persist epoch");
    let engine = TsbOptions::durable(replica_dir.path())
        .small_pages()
        .open_replica()
        .expect("open replica");
    let replica = TsbServer::start_replica(
        engine,
        proxy.addr().to_string(),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("start replica");
    // Ample time for an install, had the runner taken the base.
    std::thread::sleep(Duration::from_secs(1));
    let forwarded = proxy.stats().forwarded_bytes.load(Ordering::Relaxed);
    assert!(
        forwarded < base_bytes / 8,
        "{forwarded} bytes crossed the proxy for a refused {base_bytes}-byte base"
    );
    let mut client = TsbClient::connect(replica.local_addr()).expect("connect replica");
    let status = client.replica_status().expect("replica status");
    assert!(!status.serving, "the older lineage's base was installed");
    assert_eq!(client.role().expect("role").epoch, 5);
    drop((replica, proxy, primary));
}

/// The epoch a server answers with is its engine's: a primary whose
/// directory was promoted to epoch 3 answers `Role` (and accepts a
/// `Subscribe`) at 3 when an embedder serves it with `start_engine`,
/// which takes no epoch, so its replicas are not refused as stale.
#[test]
fn a_served_directory_answers_role_at_its_own_epoch() {
    use tsb_core::{epoch::persist_epoch, EngineHandle, TsbOptions};
    use tsb_server::TsbServer;

    let dir = TempDir::new("epoch3");
    persist_epoch(dir.path(), 3).expect("persist epoch");
    let db = TsbOptions::durable(dir.path())
        .small_pages()
        .open()
        .expect("open primary");
    assert_eq!(db.epoch(), 3);
    let server = TsbServer::start_engine(Arc::new(db), "127.0.0.1:0").expect("start primary");
    let mut client = TsbClient::connect(server.local_addr()).expect("connect");
    let role = client.role().expect("role");
    assert!(role.primary);
    assert_eq!(role.epoch, 3, "Role must read the engine's epoch");
    let id = client
        .send(&protocol::Request::Subscribe {
            from_lsn: 0,
            worm_have: vec![0],
            max_bytes: 1 << 16,
            epoch: 3,
        })
        .expect("send subscribe");
    match client.wait_for(id).expect("subscribe reply") {
        protocol::Reply::Batch { .. } => {}
        other => panic!("a subscriber at the primary's epoch was refused: {other:?}"),
    }
    drop(server);
}
