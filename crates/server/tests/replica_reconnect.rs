//! A replica runner's reconnect backoff starts over once a session
//! streams: a primary restarted eight times, with healthy streaming in
//! between, is followed within a second every time, not after a backoff
//! that grew with every restart of the replica's life.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use tsb_common::{FsyncPolicy, Key};
use tsb_core::{EngineHandle, ShardedTsb, TsbOptions};
use tsb_server::replica::ReplicaRunner;
use tsb_server::TsbServer;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("tsb-reconnect-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Polls the newest engine the runner published until `key` reads `value`.
fn wait_for(slot: &Mutex<Option<ShardedTsb>>, key: &Key, value: &[u8], within: Duration) -> bool {
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        let engine = slot.lock().clone();
        if let Some(db) = engine {
            if db.get_current(key).ok().flatten().as_deref() == Some(value) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn reconvergence_after_each_primary_restart_stays_fast() {
    let pdir = TempDir::new("p");
    let rdir = TempDir::new("r");
    let primary: Arc<dyn EngineHandle> = Arc::new(
        TsbOptions::durable(&pdir.0)
            .small_pages()
            .fsync(FsyncPolicy::Always)
            .open()
            .expect("open primary"),
    );
    let mut server = TsbServer::start_engine(Arc::clone(&primary), "127.0.0.1:0").expect("serve");
    let addr = server.local_addr();
    let replica = TsbOptions::durable(&rdir.0)
        .small_pages()
        .open_replica()
        .expect("open replica");
    let slot = Arc::new(Mutex::new(None));
    let published = Arc::clone(&slot);
    let runner = ReplicaRunner::start(replica, addr.to_string(), move |db: &ShardedTsb| {
        *published.lock() = Some(db.clone());
    })
    .expect("start runner");

    let first = Key::from_u64(0);
    primary.insert(first.clone(), b"v0".to_vec()).expect("put");
    assert!(
        wait_for(&slot, &first, b"v0", Duration::from_secs(30)),
        "the replica never bootstrapped"
    );
    for round in 1..=8u64 {
        // Dropping the server closes the runner's connection without a
        // checkpoint, so the runner resumes streaming where it was.
        drop(server);
        server = TsbServer::start_engine(Arc::clone(&primary), addr).expect("restart");
        let started = Instant::now();
        let key = Key::from_u64(round);
        let value = format!("v{round}").into_bytes();
        primary.insert(key.clone(), value.clone()).expect("put");
        assert!(
            wait_for(&slot, &key, &value, Duration::from_secs(10)),
            "restart {round}: the replica never caught up"
        );
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "restart {round}: reconvergence took {took:?}"
        );
        // Healthy streaming between restarts: one more write, applied.
        let steady = Key::from_u64(100 + round);
        primary.insert(steady.clone(), b"s".to_vec()).expect("put");
        assert!(wait_for(&slot, &steady, b"s", Duration::from_secs(10)));
    }
    drop(runner);
    drop(server);
}
