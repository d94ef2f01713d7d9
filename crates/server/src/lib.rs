//! `tsb-server`: the TSB-tree engine served over TCP.
//!
//! The ROADMAP's north star is a server under heavy concurrent traffic;
//! this crate is the network surface. It is deliberately boring plumbing —
//! all engine smarts stay behind [`EngineHandle`] — built from `std::net`
//! only (no async runtime, per the workspace's no-new-dependencies rule):
//!
//! * **One acceptor thread** blocks on [`TcpListener::accept`] and spawns
//!   a **worker thread per connection**. The engine is single-writer /
//!   many-reader, so worker threads are exactly the closed-loop clients
//!   the pipelined group commit (PR 6) was built for.
//! * **Each worker drains its socket in batches.** A `read()` returns
//!   however many pipelined frames the client has in flight; the worker
//!   executes all of them, issues the writes through the engine's
//!   *deferred-durability* API ([`EngineHandle::insert_deferred`] &c.),
//!   then waits **once** on the highest LSN the batch produced before
//!   flushing the batch's replies in a single `write_all`. The writes only
//!   appended; every shard appends to the engine's one log, whose durable
//!   watermark is monotonic, so when the batch's max LSN is durable every
//!   commit the batch placed is — one fsync (often shared with other
//!   connections' batches) acknowledges the whole burst, cross-shard
//!   transaction commits included.
//! * **Acknowledgement means durable.** A `put`/`delete`/`txn_commit`
//!   reply is written only after the commit's LSN is under the durable
//!   watermark per the engine's [`FsyncPolicy`](tsb_common::FsyncPolicy).
//!   If the watermark wait fails (sticky sync failure), the batch's write
//!   acks are *replaced by error replies* — the server never acknowledges
//!   a write it cannot prove durable. The kill -9 probe in this crate's
//!   tests holds the server to that: after SIGKILL mid-load, every
//!   acknowledged write must survive reopen.
//!
//! [`tsb_core::TsbOptions`] opens, [`EngineHandle`] serves, and one type
//! implements it: a [`tsb_core::ShardedTsb`], whose keyspace may be
//! partitioned across N shards (`tsb-server --shards N`) sharing one WAL
//! and group-commit pipeline under one global commit clock; one shard is
//! the unsharded case. A replica is the same type fed by WAL shipping
//! (`tsb-server --replica-of ADDR`, which takes the primary's shard
//! count; see [`replica`]); promoting it stops the feed, and the engine
//! serves on as a primary.
//! Sharding and replication are entirely server-side — requests are
//! routed (and range/history results merged) here, and the wire protocol
//! is identical for every engine flavour; a replica simply answers write
//! verbs with the `read-only` error code.
//!
//! Replication itself is served over the same protocol: `subscribe` pulls
//! record batches off the primary's redo log (stop-and-wait per
//! connection; the next pull's cursor is the cumulative ACK), and
//! `fetch_base` + chunked `fetch_base_pages`/`fetch_base_worm` bootstrap
//! a new replica. See `docs/replication.md`.
//!
//! Wire format and verb set live in [`tsb_client::protocol`], which this
//! crate and every client share; the spec is `docs/protocol.md`.

#![warn(missing_docs)]

pub mod replica;

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use tsb_common::{TsbError, TsbResult, TxnId};
use tsb_core::{
    EngineHandle, EngineRole, Lsn, ReplicaBase, ReplicationSource, ShardImage, ShardedTsb,
};

use tsb_client::protocol::{self, FrameDecoder, FrameError, Reply, Request, MAX_FRAME_BODY};

/// Soft cap on record bytes per `subscribe` reply, comfortably inside
/// [`MAX_FRAME_BODY`] with room for the batch's WORM bytes.
const SUBSCRIBE_MAX_BYTES: usize = 1 << 20;

/// Soft cap on page/WORM bytes per base-transfer chunk.
const BASE_CHUNK_MAX_BYTES: usize = 4 << 20;

/// How often a worker blocked in `read()` wakes to check the stop flag and
/// its idle budget. Workers never block unboundedly: a stop request drains
/// within one poll interval without slamming sockets shut.
const CONN_POLL: Duration = Duration::from_millis(250);

/// Tunable connection-handling behaviour, separate from the engine's own
/// configuration (the promotion epoch included: that is the engine's). The
/// defaults preserve the pre-options behaviour: unbounded connections, no
/// idle reaping.
#[derive(Clone, Debug, Default)]
pub struct ServerOptions {
    /// Accept at most this many live connections; further accepts are
    /// *shed* — answered with one `Overloaded` (code 23) error frame on
    /// the reserved id 0, then closed — instead of silently queueing
    /// behind a saturated worker pool. `None` = unbounded.
    pub max_conns: Option<usize>,
    /// Close a connection that has not delivered a byte for this long.
    /// Protects the worker pool (and `--max-conns` slots) from silent
    /// dead peers. `None` = never reap.
    pub idle_timeout: Option<Duration>,
}

/// A running TSB server: an acceptor thread plus one worker thread per
/// live connection, all sharing one [`EngineHandle`].
///
/// Dropping the handle shuts the server down. Shutdown is a *graceful
/// drain*: workers finish the batch they are executing, flush its acks,
/// and close with a FIN — no half-written frame is ever cut off. Prefer
/// [`TsbServer::shutdown`] or serving until a client sends the `Shutdown`
/// verb and then calling [`TsbServer::wait`].
pub struct TsbServer {
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
}

struct ServerShared {
    /// The served engine. A slot, not a plain field: a replica's runner
    /// swaps in the engine each base install or reopen hands back. Workers
    /// clone the handle out once per batch.
    engine: RwLock<Arc<dyn EngineHandle>>,
    listener: TcpListener,
    addr: SocketAddr,
    stop: AtomicBool,
    /// Clones of every live connection's stream (they share the worker's
    /// fd), so shutdown can shorten their receive timeouts for a prompt
    /// drain. Also the live-connection count for `max_conns`.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    opts: ServerOptions,
    /// A replica server's replication runner, owned here so promotion (and
    /// shutdown) can stop it; under one mutex so concurrent `Promote`s
    /// serialize.
    runner: Mutex<Option<replica::ReplicaRunner>>,
}

impl ServerShared {
    fn engine(&self) -> Arc<dyn EngineHandle> {
        Arc::clone(&self.engine.read())
    }

    /// Flags the stop, wakes the acceptor with a throwaway connection, and
    /// nudges every worker's blocking `read()` onto a short timeout so it
    /// notices the flag, finishes its current batch, flushes, and exits.
    fn request_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        for stream in self.conns.lock().values() {
            let _ = stream.set_read_timeout(Some(CONN_POLL));
        }
    }
}

impl TsbServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `db` — `Arc::new(TsbOptions::durable(dir).open()?)` for a primary.
    /// The engine should be opened durable for acks to mean anything, but
    /// any engine works; for a promotable replica see
    /// [`TsbServer::start_replica`].
    pub fn start_engine(
        db: Arc<dyn EngineHandle>,
        addr: impl ToSocketAddrs,
    ) -> TsbResult<TsbServer> {
        Self::start_engine_with(db, addr, ServerOptions::default())
    }

    /// [`TsbServer::start_engine`] with explicit [`ServerOptions`].
    pub fn start_engine_with(
        db: Arc<dyn EngineHandle>,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> TsbResult<TsbServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            engine: RwLock::new(db),
            listener,
            addr,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            opts,
            runner: Mutex::new(None),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tsb-acceptor".into())
                .spawn(move || acceptor_loop(&shared))
                .map_err(TsbError::Io)?
        };
        Ok(TsbServer {
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// Starts a replica server: serves `replica` (opened with
    /// `TsbOptions::open_replica`) read-only, owns the
    /// [`replica::ReplicaRunner`] streaming from `source` — serving each
    /// engine it installs, at the epoch that engine adopted from its base —
    /// and honours the `Promote` verb (stop the feed, stop applying at a
    /// bumped epoch, accept writes).
    pub fn start_replica(
        replica: ShardedTsb,
        source: impl Into<String>,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> TsbResult<TsbServer> {
        let server = Self::start_engine_with(Arc::new(replica.clone()), addr, opts)?;
        let slot = Arc::downgrade(&server.shared);
        let runner = replica::ReplicaRunner::start(replica, source, move |db: &ShardedTsb| {
            if let Some(shared) = slot.upgrade() {
                *shared.engine.write() = Arc::new(db.clone());
            }
        })?;
        *server.shared.runner.lock() = Some(runner);
        Ok(server)
    }

    /// The address the server is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared engine, e.g. for reading I/O stats around a bench run.
    /// A snapshot: after a promotion the slot holds a different engine.
    pub fn db(&self) -> Arc<dyn EngineHandle> {
        self.shared.engine()
    }

    /// Blocks until the server stops — i.e. until some client sends the
    /// `Shutdown` verb (or [`TsbServer::shutdown`] is called from another
    /// thread via a clone of the handle... which does not exist; use the
    /// verb). Checkpoints the engine once all workers have drained.
    pub fn wait(mut self) -> TsbResult<()> {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        stop_runner(&self.shared);
        checkpoint_if_primary(&self.shared.engine())
    }

    /// Stops accepting, drains live connections, joins all threads, and
    /// checkpoints the engine.
    pub fn shutdown(mut self) -> TsbResult<()> {
        self.shared.request_stop();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        stop_runner(&self.shared);
        checkpoint_if_primary(&self.shared.engine())
    }
}

/// Stops a replica server's runner (dropping it joins its thread).
fn stop_runner(shared: &Arc<ServerShared>) {
    let runner = shared.runner.lock().take();
    drop(runner);
}

impl Drop for TsbServer {
    fn drop(&mut self) {
        self.shared.request_stop();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        stop_runner(&self.shared);
    }
}

fn acceptor_loop(shared: &Arc<ServerShared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match shared.listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    // The wakeup connection (or a late client): refuse.
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                if let Some(cap) = shared.opts.max_conns {
                    if shared.conns.lock().len() >= cap {
                        // Shed, don't queue: one explicit Overloaded frame
                        // on the reserved id 0, then close. The peer learns
                        // immediately (and recoverably) instead of hanging
                        // behind a saturated worker pool.
                        shed_connection(stream, cap);
                        continue;
                    }
                }
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().insert(conn_id, clone);
                }
                let worker_shared = Arc::clone(shared);
                let worker = std::thread::Builder::new()
                    .name(format!("tsb-conn-{conn_id}"))
                    .spawn(move || {
                        // Protocol errors and peer disconnects are normal
                        // connection endings, not server failures.
                        let _ = serve_conn(&worker_shared, stream);
                        worker_shared.conns.lock().remove(&conn_id);
                    });
                match worker {
                    Ok(handle) => workers.push(handle),
                    Err(_) => {
                        shared.conns.lock().remove(&conn_id);
                    }
                }
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (e.g. EMFILE burst): keep going.
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// Refuses one connection with an `Overloaded` error frame and a FIN.
fn shed_connection(mut stream: TcpStream, cap: usize) {
    let reply = Reply::Error {
        code: protocol::CODE_OVERLOADED,
        message: format!("server at its connection limit ({cap}); retry another endpoint"),
    };
    let _ = stream.write_all(&protocol::encode_reply(0, &reply));
    let _ = stream.shutdown(Shutdown::Both);
}

/// What a processed request is waiting on before its reply may be sent.
enum Outcome {
    /// Sendable as soon as the batch flushes (reads, errors, txn plumbing).
    Ready(Reply),
    /// A write ack that must not be sent unless the batch's newest
    /// durability position (tracked by the caller) becomes durable.
    AckAtDurable(Reply),
}

/// Checkpoints on shutdown paths — unless the engine is a replica, which
/// never writes fences of its own (its local log mirrors the primary's).
fn checkpoint_if_primary(db: &Arc<dyn EngineHandle>) -> TsbResult<()> {
    if db.role() == EngineRole::Replica {
        return Ok(());
    }
    db.checkpoint()
}

/// Per-connection server-side state beyond the socket itself.
#[derive(Default)]
struct ConnState {
    /// Transactions begun on this connection; aborted if it drops dead.
    open_txns: Vec<TxnId>,
    /// Lazily-created log tailer for `subscribe` (per-connection so each
    /// subscriber's cursor cache is its own).
    source: Option<ReplicationSource>,
    /// The base image captured by this connection's last `fetch_base`,
    /// held for chunked transfer. Dropped with the connection.
    base: Option<Arc<ReplicaBase>>,
}

fn serve_conn(shared: &Arc<ServerShared>, mut stream: TcpStream) -> TsbResult<()> {
    // Replies are batched into one write_all per drain; Nagle would only
    // add latency on top of that.
    let _ = stream.set_nodelay(true);
    // Never block unboundedly: wake every CONN_POLL to notice a stop
    // request (graceful drain) and to meter the idle budget.
    let _ = stream.set_read_timeout(Some(CONN_POLL));
    let idle_budget = shared.opts.idle_timeout;
    let mut last_activity = Instant::now();
    let mut decoder = FrameDecoder::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut conn = ConnState::default();
    let result = loop {
        if shared.stop.load(Ordering::SeqCst) {
            break Ok(());
        }
        let n = match stream.read(&mut read_buf) {
            Ok(0) => break Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                match idle_budget {
                    // A silent peer past its budget: close (FIN). Nothing
                    // is in flight — the previous batch was fully flushed.
                    Some(budget) if last_activity.elapsed() >= budget => break Ok(()),
                    _ => continue,
                }
            }
            Err(e) => break Err(TsbError::Io(e)),
        };
        last_activity = Instant::now();
        decoder.feed(&read_buf[..n]);

        // Drain every complete frame the client has pipelined.
        let mut batch: Vec<(u64, Request)> = Vec::new();
        let mut fatal: Option<FrameError> = None;
        loop {
            match decoder.next_frame() {
                Ok(Some(body)) => match protocol::parse_request(&body) {
                    Ok((id, req)) => batch.push((id, req)),
                    Err(e) if e.recoverable() => {
                        // Well-framed but unknown verb: answer just that
                        // frame and keep the connection. The id is the
                        // first 8 bytes (frames are ≥ MIN_FRAME_BODY).
                        let id = u64::from_le_bytes(body[..8].try_into().unwrap());
                        let reply = Reply::Error {
                            code: e.wire_code(),
                            message: e.to_string(),
                        };
                        stream.write_all(&protocol::encode_reply(id, &reply))?;
                    }
                    Err(e) => {
                        fatal = Some(e);
                        break;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    fatal = Some(e);
                    break;
                }
            }
        }

        let stop_after = process_batch(shared, &batch, &mut conn, &mut stream)?;

        if let Some(e) = fatal {
            // The stream is no longer frame-aligned: report on the
            // reserved id 0 and close.
            let reply = Reply::Error {
                code: e.wire_code(),
                message: e.to_string(),
            };
            let _ = stream.write_all(&protocol::encode_reply(0, &reply));
            break Ok(());
        }
        if stop_after {
            shared.request_stop();
            break Ok(());
        }
    };
    // A dead connection must not leave zombie transactions holding
    // write-conflict claims against every future client.
    let db = shared.engine();
    for txn in conn.open_txns {
        let _ = db.abort_txn(txn);
    }
    result
}

/// Executes one drained batch and flushes its replies. Returns whether a
/// `Shutdown` verb asked the server to stop after this flush.
fn process_batch(
    shared: &Arc<ServerShared>,
    batch: &[(u64, Request)],
    conn: &mut ConnState,
    stream: &mut TcpStream,
) -> TsbResult<bool> {
    if batch.is_empty() {
        return Ok(false);
    }
    // One engine snapshot per batch: a replica's runner swaps the slot,
    // and mixing engines inside a batch would confuse the wait.
    let db = shared.engine();
    let ConnState {
        open_txns,
        source,
        base,
    } = conn;
    let mut outcomes: Vec<(u64, Outcome)> = Vec::with_capacity(batch.len());
    // The batch's newest durability position: every shard appends to the
    // engine's one log, whose durable watermark is monotonic, so one wait
    // on it acknowledges every commit the batch placed.
    let mut waits: Option<Lsn> = None;
    let mut stop_after = false;

    for (id, req) in batch {
        let outcome = match req {
            Request::Put { key, value } => match db.insert_deferred(key.clone(), value.clone()) {
                Ok((ts, lsn)) => ack_at(Reply::Committed { ts }, lsn, &mut waits),
                Err(e) => Outcome::Ready(error_reply(&e)),
            },
            Request::Delete { key } => match db.delete_deferred(key.clone()) {
                Ok((ts, lsn)) => ack_at(Reply::Committed { ts }, lsn, &mut waits),
                Err(e) => Outcome::Ready(error_reply(&e)),
            },
            Request::Get { key } => Outcome::Ready(match db.get_current(key) {
                Ok(value) => Reply::Value { value },
                Err(e) => error_reply(&e),
            }),
            Request::GetAsOf { key, as_of } => Outcome::Ready(match db.get_as_of(key, *as_of) {
                Ok(value) => Reply::Value { value },
                Err(e) => error_reply(&e),
            }),
            Request::Range { range, as_of } => {
                let result = match as_of {
                    Some(ts) => db.scan_as_of(range, *ts),
                    None => db.scan_current(range),
                };
                Outcome::Ready(match result {
                    Ok(rows) => Reply::Rows { rows },
                    Err(e) => error_reply(&e),
                })
            }
            Request::History { key, window } => {
                Outcome::Ready(match db.history_between(key, *window) {
                    Ok(versions) => Reply::Versions { versions },
                    Err(e) => error_reply(&e),
                })
            }
            Request::TxnBegin => Outcome::Ready(match db.begin_txn() {
                Ok(txn) => {
                    open_txns.push(txn);
                    Reply::Txn { txn }
                }
                Err(e) => error_reply(&e),
            }),
            Request::TxnWrite { txn, key, value } => {
                // A txn write never parks on the watermark: the version
                // carries no timestamp, and the commit's fence follows it
                // on the one log, so the commit's ack covers it.
                let result = match value {
                    Some(v) => db.txn_insert(*txn, key.clone(), v.clone()),
                    None => db.txn_delete(*txn, key.clone()),
                };
                Outcome::Ready(match result {
                    Ok(()) => Reply::Unit,
                    Err(e) => error_reply(&e),
                })
            }
            Request::TxnCommit { txn } => match db.commit_txn_deferred(*txn) {
                Ok((ts, lsn)) => {
                    open_txns.retain(|t| t != txn);
                    ack_at(Reply::Committed { ts }, lsn, &mut waits)
                }
                Err(e) => Outcome::Ready(error_reply(&e)),
            },
            Request::TxnAbort { txn } => {
                let result = db.abort_txn(*txn);
                open_txns.retain(|t| t != txn);
                Outcome::Ready(match result {
                    Ok(()) => Reply::Unit,
                    Err(e) => error_reply(&e),
                })
            }
            Request::Ping => Outcome::Ready(Reply::Pong {
                last_installed: db.last_installed(),
            }),
            Request::Shutdown => {
                stop_after = true;
                Outcome::Ready(Reply::Unit)
            }
            Request::Role => Outcome::Ready(Reply::RoleInfo {
                primary: db.role() == EngineRole::Primary,
                shards: db.shard_count() as u32,
                epoch: db.epoch(),
                durable_lsn: db.durable_lsn(),
            }),
            Request::Subscribe {
                from_lsn,
                worm_have,
                max_bytes,
                epoch,
            } => Outcome::Ready({
                let ours = db.epoch();
                if *epoch != 0 && *epoch != ours {
                    // A subscriber on a different epoch has (or is) a
                    // diverged history: a demoted primary presenting the
                    // old epoch, or a fresher node talking to a stale us.
                    // Either way, shipping a delta would graft divergent
                    // logs — refuse; the subscriber must re-bootstrap.
                    error_reply(&TsbError::StaleEpoch {
                        theirs: *epoch,
                        ours,
                    })
                } else {
                    match subscribe(&db, source, *from_lsn, worm_have, *max_bytes) {
                        Ok(reply) => reply,
                        Err(e) => error_reply(&e),
                    }
                }
            }),
            Request::FetchBase => Outcome::Ready(match fetch_base(&db, source) {
                Ok(image) => {
                    let shards = image.shards.iter();
                    let info = Reply::BaseInfo {
                        checkpoint_lsn: image.checkpoint_lsn,
                        checkpoint: image.checkpoint.clone(),
                        page_counts: shards.map(|s| s.pages.len() as u64).collect(),
                        page_size: image.page_size as u64,
                        worm_sector_size: image.worm_sector_size as u64,
                        epoch: image.epoch,
                    };
                    *base = Some(image);
                    info
                }
                Err(e) => error_reply(&e),
            }),
            Request::FetchBasePages {
                shard,
                start,
                max_bytes,
            } => Outcome::Ready(match base_shard(base, *shard) {
                Ok(image) => base_pages(image, *start, *max_bytes),
                Err(e) => error_reply(&e),
            }),
            Request::FetchBaseWorm {
                shard,
                offset,
                max_bytes,
            } => Outcome::Ready(match base_shard(base, *shard) {
                Ok(image) => base_worm(image, *offset, *max_bytes),
                Err(e) => error_reply(&e),
            }),
            Request::ReplicaStatus => Outcome::Ready(match db.replica_status() {
                Some(s) => Reply::ReplicaStatusInfo {
                    serving: s.serving,
                    applied_lsn: s.applied_lsn,
                    received_lsn: s.received_lsn,
                    source_durable_lsn: s.source_durable_lsn,
                    lag_records: s.lag_records,
                    ship_lag_records: s.ship_lag_records,
                    lag_ms: s.lag_ms,
                },
                None => error_reply(&TsbError::config(
                    "this server is a primary: replica_status applies to replicas",
                )),
            }),
            Request::Promote => Outcome::Ready(match promote(shared) {
                Ok(epoch) => Reply::Promoted { epoch },
                Err(e) => error_reply(&e),
            }),
        };
        outcomes.push((*id, outcome));
    }

    let durable_failed = waits
        .and_then(|lsn| db.wait_durable(lsn).err())
        .map(|e| (e.wire_code(), e.to_string()));

    let mut out = Vec::with_capacity(outcomes.len() * 32);
    for (id, outcome) in outcomes {
        let reply = match outcome {
            Outcome::Ready(reply) => reply,
            Outcome::AckAtDurable(reply) => match &durable_failed {
                // The commit may be sitting in a buffer that will never
                // reach the device: acknowledging it would be lying.
                Some((code, message)) => Reply::Error {
                    code: *code,
                    message: format!("commit not durable: {message}"),
                },
                None => reply,
            },
        };
        // A scan result too large for one frame goes out as an `oversized`
        // error instead of an unframeable reply.
        out.extend_from_slice(&protocol::encode_reply_within(id, &reply, MAX_FRAME_BODY));
    }
    stream.write_all(&out)?;
    Ok(stop_after)
}

fn ack_at(reply: Reply, lsn: Option<Lsn>, waits: &mut Option<Lsn>) -> Outcome {
    match lsn {
        Some(_) => {
            *waits = (*waits).max(lsn);
            Outcome::AckAtDurable(reply)
        }
        // No durability obligation (in-memory engine, or a policy that
        // acknowledges without a sync): the engine contract says ack now.
        None => Outcome::Ready(reply),
    }
}

fn error_reply(e: &TsbError) -> Reply {
    Reply::Error {
        code: e.wire_code(),
        message: e.to_string(),
    }
}

/// Promotes this server to primary. Idempotent when already primary.
///
/// The sequence is crash-safe at every step:
/// 1. **Stop the feed.** Joining the runner guarantees no apply is in
///    flight; everything shipped up to the last pulled batch is in the
///    replica's local log, installed through its newest fences. An engine
///    a failed apply stopped part-way is first reopened from its
///    directory, as the runner would have done next.
/// 2. **Promote the engine.** [`ShardedTsb::promote`] refuses a replica
///    still awaiting its first base (nothing to promote: the epoch stays).
///    Otherwise it fsyncs the bumped epoch *before* it stops applying, so
///    no write can be accepted at an epoch a crash could roll back — from
///    here a `Subscribe` from the demoted primary (still at the old epoch)
///    is rejected — then drops the un-fenced shipped tail (never
///    acknowledged to any client), erases what the old primary's open
///    transactions wrote, and checkpoints, as the ordinary primary
///    recovery of the directory would. The engine serves on as a primary.
///
/// Any failure resumes the runner and the node stays a replica. Before
/// the epoch bump nothing changed on disk and it keeps converging. Past it
/// (a failed checkpoint), its epoch is ahead of its primary's: the primary
/// refuses its subscribe as stale, the runner refuses a base of the older
/// epoch, and the node serves what it holds until a retried `Promote`
/// succeeds.
fn promote(shared: &Arc<ServerShared>) -> TsbResult<u64> {
    let mut slot = shared.runner.lock();
    let db = shared.engine();
    if db.role() == EngineRole::Primary {
        return Ok(db.epoch());
    }
    let runner = slot
        .as_mut()
        .ok_or_else(|| TsbError::config("this replica server has no replication runner"))?;
    let mut replica = runner
        .stop()
        .ok_or_else(|| TsbError::internal("the replication runner died"))?;
    match promote_stopped(shared, &mut replica) {
        Ok(epoch) => {
            *slot = None;
            Ok(epoch)
        }
        Err(e) => {
            runner.resume(replica)?;
            Err(e)
        }
    }
}

/// Steps 1 (the reopen) and 2 of [`promote`], on the engine the stopped
/// runner handed back.
fn promote_stopped(shared: &ServerShared, replica: &mut ShardedTsb) -> TsbResult<u64> {
    if replica.resume_lsn().is_none() && !replica.needs_base() {
        *replica = replica.reopen()?;
        *shared.engine.write() = Arc::new(replica.clone());
    }
    let epoch = replica.promote()?;
    *shared.engine.write() = Arc::new(replica.clone());
    Ok(epoch)
}

/// Lazily creates this connection's [`ReplicationSource`] (errors on
/// engines that cannot serve one: in-memory engines and replicas).
fn conn_source<'a>(
    db: &Arc<dyn EngineHandle>,
    source: &'a mut Option<ReplicationSource>,
) -> TsbResult<&'a ReplicationSource> {
    if source.is_none() {
        *source = Some(db.replication_source()?);
    }
    Ok(source.as_ref().expect("just filled"))
}

/// Serves one `subscribe` pull: tail the log after `from_lsn`, capped so
/// the reply fits a frame.
fn subscribe(
    db: &Arc<dyn EngineHandle>,
    source: &mut Option<ReplicationSource>,
    from_lsn: u64,
    worm_have: &[u64],
    max_bytes: u64,
) -> TsbResult<Reply> {
    let source = conn_source(db, source)?;
    let cap = (max_bytes as usize).clamp(1, SUBSCRIBE_MAX_BYTES);
    let batch = source.poll(from_lsn, worm_have, cap)?;
    Ok(Reply::Batch {
        needs_rebase: batch.needs_rebase,
        durable_lsn: batch.durable_lsn,
        worm: batch.worm,
        records: batch.records,
    })
}

/// Serves `fetch_base`: captures a fresh consistent image (briefly
/// write-blocking on the primary).
fn fetch_base(
    db: &Arc<dyn EngineHandle>,
    source: &mut Option<ReplicationSource>,
) -> TsbResult<Arc<ReplicaBase>> {
    let source = conn_source(db, source)?;
    Ok(Arc::new(source.base()?))
}

/// One shard of the base image this connection captured.
fn base_shard(base: &Option<Arc<ReplicaBase>>, shard: u32) -> TsbResult<&ShardImage> {
    let image = base.as_deref().ok_or_else(|| {
        TsbError::config("no base image captured on this connection: send fetch_base first")
    })?;
    image.shards.get(shard as usize).ok_or_else(|| {
        TsbError::config(format!(
            "the base image has {} shards, not shard {shard}",
            image.shards.len()
        ))
    })
}

/// Serves one `fetch_base_pages` chunk.
fn base_pages(image: &ShardImage, start: u64, max_bytes: u64) -> Reply {
    let cap = (max_bytes as usize).clamp(1, BASE_CHUNK_MAX_BYTES);
    let start = (start as usize).min(image.pages.len());
    let mut pages = Vec::new();
    let mut total = 0usize;
    for (page, bytes) in &image.pages[start..] {
        if total >= cap && !pages.is_empty() {
            break;
        }
        total += bytes.len();
        pages.push((page.value(), bytes.clone()));
    }
    let done = start + pages.len() >= image.pages.len();
    Reply::BasePages { pages, done }
}

/// Serves one `fetch_base_worm` chunk.
fn base_worm(image: &ShardImage, offset: u64, max_bytes: u64) -> Reply {
    let cap = (max_bytes as usize).clamp(1, BASE_CHUNK_MAX_BYTES);
    let offset = (offset as usize).min(image.worm.len());
    let end = (offset + cap).min(image.worm.len());
    Reply::BaseWorm {
        bytes: image.worm[offset..end].to_vec(),
        done: end >= image.worm.len(),
    }
}
