//! A replica runner's stop is bounded whatever its primary does. Here the
//! "primary" accepts the connection and never answers, so the runner's
//! first call (the bootstrap's `fetch_base`) waits on a reply that never
//! comes; `stop()` must still hand the engine back within a second.

use std::io::Read;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tsb_core::TsbOptions;
use tsb_server::replica::ReplicaRunner;

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn stop_returns_the_engine_while_the_primary_never_answers() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("tsb-replica-stop-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let replica = TsbOptions::durable(&dir.0)
        .open_replica()
        .expect("open replica");
    let mut runner = ReplicaRunner::start(
        replica,
        listener.local_addr().expect("addr").to_string(),
        |_| {},
    )
    .expect("start runner");

    // Once the request's header has arrived, the runner is waiting on its
    // reply.
    let (mut conn, _) = listener.accept().expect("accept");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut header = [0u8; 8];
    conn.read_exact(&mut header).expect("the runner's request");

    let started = Instant::now();
    let engine = runner.stop().expect("the runner hands its engine back");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    assert!(engine.needs_base(), "nothing was installed");
}
