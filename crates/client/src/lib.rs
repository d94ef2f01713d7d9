//! `tsb-client`: a blocking TCP client for `tsb-server` that supports
//! request pipelining.
//!
//! Every request carries a client-chosen id; the server echoes it in the
//! reply, so a connection may keep many requests in flight and match
//! responses as they arrive. [`TsbClient`] exposes both styles:
//!
//! * **Sync conveniences** ([`TsbClient::put`], [`TsbClient::get`], …)
//!   send one request and block for its reply — the closed-loop client.
//! * **Pipelining primitives** ([`TsbClient::send`], [`TsbClient::recv_any`],
//!   [`TsbClient::wait_for`]) let a caller queue a window of requests
//!   before reaping replies. `send` only queues: the whole burst reaches
//!   the socket in **one** write when the caller next has to block for a
//!   reply (or calls [`TsbClient::flush`]), so the server reads it as one
//!   batch — one durability wait, one reply write — and with several such
//!   connections (or one with a deep window) batches share fsyncs: the
//!   over-the-wire face of the engine's pipelined group commit.
//!
//! Replies that arrive while waiting for a specific id are parked and
//! handed out later; the only reply ever dropped is the late one of a
//! closed-loop verb that gave up at its deadline. The wire format itself,
//! which `tsb-server` speaks too, is [`protocol`].
//!
//! ## Timeouts, deadlines, and failover
//!
//! Connections are guarded by default socket timeouts (connect 5 s,
//! read/write 30 s — see [`ClientOptions`]), so a dead or wedged server
//! surfaces as an error instead of a hang. An optional per-operation
//! deadline ([`ClientOptions::op_timeout`]) bounds each closed-loop verb
//! end to end, failing it with [`TsbError::DeadlineExceeded`].
//!
//! [`FailoverClient`] layers a retry loop over a list of candidate
//! endpoints: idempotent reads rotate across the replica set, writes
//! follow the primary (re-discovering it by `role` epoch after a
//! promotion), and transient failures — connection errors, server
//! overload shedding, a demoted primary's `read-only` — back off with
//! deterministic jitter ([`RetryPolicy`]) before the next attempt.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbError, TsbResult, TxnId, Version};

mod failover;
pub mod protocol;
mod retry;

pub use failover::FailoverClient;
pub use retry::{Deadline, RetryPolicy};

use protocol::{FrameDecoder, Reply, Request};

/// Queued request bytes at which [`TsbClient::send`] flushes on its own, so
/// a caller that sends without ever receiving holds bounded memory.
const SEND_BUFFER_CAP: usize = 64 * 1024;

/// Connection and resilience knobs for [`TsbClient::connect_with`] and
/// [`FailoverClient`].
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// TCP connect timeout (per resolved address). Default 5 s.
    pub connect_timeout: Duration,
    /// Socket read timeout: the longest a blocking receive may sit
    /// without a byte from the server before erroring. Default 30 s;
    /// `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout. Default 30 s; `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// End-to-end budget for each closed-loop verb (send + wait for the
    /// reply). `None` (the default) bounds operations only by the socket
    /// timeouts above. When it expires the verb fails with
    /// [`TsbError::DeadlineExceeded`]; the reply, if it later arrives, is
    /// dropped.
    pub op_timeout: Option<Duration>,
    /// Retry schedule used by [`FailoverClient`] (plain [`TsbClient`]s
    /// never retry on their own).
    pub retry: RetryPolicy,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            op_timeout: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// A server's answer to the `role` verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerRole {
    /// `true` for a primary (accepts writes), `false` for a read replica.
    pub primary: bool,
    /// The primary's shard count (1 for replicas).
    pub shards: u32,
    /// The server's promotion epoch. Starts at 1 for a never-promoted
    /// lineage and is bumped (durably, before the first write is
    /// accepted) every time a replica is promoted; after a failover the
    /// true primary is the one presenting the highest epoch.
    pub epoch: u64,
    /// The newest durable position in the server's log (0 for in-memory
    /// or sharded servers; a replica reports its applied fence LSN). The
    /// no-loss promotion drill: quiesce writers, read this off the
    /// primary, and promote only once the replica's
    /// [`ReplicaStatusReport::applied_lsn`] has reached it. The replica's
    /// own lag counters are relative to the primary watermark it *last
    /// polled*, so they can momentarily read zero while newer durable
    /// records exist that never shipped.
    pub durable_lsn: u64,
}

/// A replica's answer to the `replica_status` verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaStatusReport {
    /// Whether the replica has an installed base and serves reads.
    pub serving: bool,
    /// Highest primary LSN applied and locally durable.
    pub applied_lsn: u64,
    /// Highest primary LSN received into the replica's local log (it may
    /// still be ahead of `applied_lsn` while an apply is in flight).
    pub received_lsn: u64,
    /// The primary's durable watermark as of the last shipped batch.
    pub source_durable_lsn: u64,
    /// Records between the primary's durable watermark and what this
    /// replica has **applied** (the end-to-end replication lag).
    pub lag_records: u64,
    /// Records between the primary's durable watermark and what this
    /// replica has **received** (the shipping lag; `lag_records -
    /// ship_lag_records` of it is merely waiting to be applied locally).
    /// When choosing a promotion candidate, pick the replica with the
    /// smallest shipping lag — received-but-unapplied records are
    /// recovered during promotion, records never shipped are gone.
    pub ship_lag_records: u64,
    /// Milliseconds since replication last made progress.
    pub lag_ms: u64,
}

/// One connection to a `tsb-server`.
///
/// Not `Sync` by design: a pipelined protocol needs one reader of the
/// response stream. Open one client per thread (that is also what gives
/// the server fsync-sharing across connections).
pub struct TsbClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Replies that arrived while waiting for a different id.
    parked: BTreeMap<u64, Reply>,
    /// Requests a closed-loop verb gave up on at its deadline: their
    /// replies are dropped on arrival instead of parked.
    abandoned: BTreeSet<u64>,
    next_id: u64,
    read_buf: Vec<u8>,
    /// Encoded requests queued by [`Self::send`], not yet on the wire.
    send_buf: Vec<u8>,
    opts: ClientOptions,
    /// The read timeout currently programmed on the socket, to avoid a
    /// setsockopt per read on the (common) deadline-free path.
    socket_read_timeout: Option<Duration>,
}

impl TsbClient {
    /// Connects to a server with [`ClientOptions::default`] (connect
    /// timeout 5 s, read/write timeouts 30 s).
    pub fn connect(addr: impl ToSocketAddrs) -> TsbResult<TsbClient> {
        TsbClient::connect_with(addr, &ClientOptions::default())
    }

    /// Connects to a server with explicit options. Each resolved address
    /// is tried in turn under `opts.connect_timeout`; the last error is
    /// returned if none accepts.
    pub fn connect_with(addr: impl ToSocketAddrs, opts: &ClientOptions) -> TsbResult<TsbClient> {
        let mut last_err = None;
        let mut stream = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, opts.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => {
                return Err(TsbError::Io(last_err.unwrap_or_else(|| {
                    std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
                })))
            }
        };
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(opts.read_timeout)?;
        stream.set_write_timeout(opts.write_timeout)?;
        Ok(TsbClient {
            stream,
            decoder: FrameDecoder::new(),
            parked: BTreeMap::new(),
            abandoned: BTreeSet::new(),
            next_id: 1,
            read_buf: vec![0u8; 64 * 1024],
            send_buf: Vec::new(),
            socket_read_timeout: opts.read_timeout,
            opts: opts.clone(),
        })
    }

    /// The remote address this client is connected to.
    pub fn peer_addr(&self) -> TsbResult<SocketAddr> {
        Ok(self.stream.peer_addr()?)
    }

    // ----- pipelining primitives -----------------------------------------

    /// Queues `req` and returns its request id without waiting for the
    /// reply. The request reaches the wire at the next [`Self::flush`], the
    /// next receive that has to block ([`Self::recv_any`],
    /// [`Self::wait_for`] and every closed-loop verb flush first), once
    /// 64 KiB are queued, or when the client is dropped — so a burst of
    /// sends costs one `write` and arrives at the server as one batch.
    /// Queue as many as you like; reap with [`Self::recv_any`] or
    /// [`Self::wait_for`]. A caller that sends and never receives must say
    /// [`Self::flush`].
    ///
    /// A dead peer no longer surfaces here (nothing is written below the
    /// 64 KiB cap): the [`TsbError::Io`] comes from the flush, i.e. from
    /// `flush`, `recv_any` or `wait_for`.
    ///
    /// A request whose body passes the frame limit (16 MiB) is refused
    /// here with [`TsbError::EntryTooLarge`], before anything is queued:
    /// the server's decoder would refuse the frame and close the
    /// connection with every request behind it. The id is not consumed.
    pub fn send(&mut self, req: &Request) -> TsbResult<u64> {
        self.send_within(req, protocol::MAX_FRAME_BODY)
    }

    /// [`Self::send`] with the frame limit as a parameter, so the refusal
    /// is testable without a 16 MiB value.
    fn send_within(&mut self, req: &Request, max_body: usize) -> TsbResult<u64> {
        let id = self.next_id;
        let frame = protocol::encode_request_within(id, req, max_body).map_err(|body_len| {
            TsbError::EntryTooLarge {
                entry_size: body_len,
                capacity: max_body,
            }
        })?;
        self.next_id += 1;
        self.send_buf.extend_from_slice(&frame);
        if self.send_buf.len() >= SEND_BUFFER_CAP {
            self.flush()?;
        }
        Ok(id)
    }

    /// Writes every queued request to the socket in one `write_all`; a
    /// no-op when nothing is queued. On error the queue is discarded and
    /// the connection is unusable (a partial write leaves the stream
    /// mid-frame).
    pub fn flush(&mut self) -> TsbResult<()> {
        if self.send_buf.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.send_buf);
        self.send_buf.clear();
        Ok(written?)
    }

    /// Returns the next available reply (a parked one, else blocks on the
    /// wire). Use when any completion order is acceptable.
    pub fn recv_any(&mut self) -> TsbResult<(u64, Reply)> {
        if let Some((&id, _)) = self.parked.iter().next() {
            let reply = self.parked.remove(&id).unwrap();
            return Ok((id, reply));
        }
        self.read_one(None)
    }

    /// Blocks until the reply for `id` arrives, parking any replies to
    /// other in-flight requests.
    pub fn wait_for(&mut self, id: u64) -> TsbResult<Reply> {
        self.wait_for_by(id, None)
    }

    /// [`Self::wait_for`] bounded by a deadline: fails with
    /// [`TsbError::DeadlineExceeded`] once it passes, leaving the request
    /// in flight (its reply parks on arrival).
    pub fn wait_for_deadline(&mut self, id: u64, deadline: Deadline) -> TsbResult<Reply> {
        self.wait_for_by(id, Some(deadline))
    }

    fn wait_for_by(&mut self, id: u64, deadline: Option<Deadline>) -> TsbResult<Reply> {
        if let Some(reply) = self.parked.remove(&id) {
            return Ok(reply);
        }
        loop {
            let (got, reply) = self.read_one(deadline)?;
            if got == id {
                return Ok(reply);
            }
            self.parked.insert(got, reply);
        }
    }

    /// Number of replies parked (received but not yet handed out).
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// One closed-loop round trip: sends `req` and waits for its reply
    /// under [`ClientOptions::op_timeout`]. A request the deadline gives up
    /// on is abandoned: its late reply is dropped, not parked for a caller
    /// that will never ask for it.
    fn call(&mut self, req: &Request) -> TsbResult<Reply> {
        let deadline = self.opts.op_timeout.map(Deadline::after);
        let id = self.send(req)?;
        let reply = self.wait_for_by(id, deadline);
        if let Err(TsbError::DeadlineExceeded(_)) = reply {
            self.abandoned.insert(id);
        }
        reply
    }

    fn read_one(&mut self, deadline: Option<Deadline>) -> TsbResult<(u64, Reply)> {
        loop {
            match self.decoder.next_frame()? {
                Some(body) => {
                    let (id, reply) = protocol::parse_reply(&body)?;
                    if self.abandoned.remove(&id) {
                        continue;
                    }
                    // Id 0 is reserved for connection-level conditions the
                    // server raises unprompted — e.g. `overloaded` when an
                    // accept is shed past `--max-conns`. Surface it as this
                    // operation's error instead of parking it forever.
                    if id == 0 {
                        if let Reply::Error { code, message } = reply {
                            return Err(remote_error(code, &message));
                        }
                    }
                    return Ok((id, reply));
                }
                None => {
                    // About to block for a reply: everything queued must
                    // be on the wire first, or the wait is for nothing.
                    self.flush()?;
                    self.arm_read_timeout(deadline.as_ref())?;
                    match self.stream.read(&mut self.read_buf) {
                        Ok(0) => {
                            return Err(TsbError::Io(std::io::Error::new(
                                ErrorKind::UnexpectedEof,
                                "server closed the connection",
                            )))
                        }
                        Ok(n) => {
                            let filled = &self.read_buf[..n];
                            self.decoder.feed(filled);
                        }
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            match deadline {
                                // The clamped deadline slice elapsed:
                                // either the budget is gone or we loop to
                                // re-arm the next slice.
                                Some(d) if d.expired() => {
                                    return Err(TsbError::DeadlineExceeded(
                                        "timed out waiting for the server's reply".into(),
                                    ))
                                }
                                Some(_) => continue,
                                // No deadline: this is the base socket
                                // read timeout — a wedged server.
                                None => return Err(TsbError::Io(e)),
                            }
                        }
                        Err(e) => return Err(TsbError::Io(e)),
                    }
                }
            }
        }
    }

    /// Programs the socket read timeout for the next blocking read: the
    /// base timeout, clamped to the deadline's remaining budget (never
    /// zero — a zero socket timeout is rejected by the OS).
    fn arm_read_timeout(&mut self, deadline: Option<&Deadline>) -> TsbResult<()> {
        let want = match deadline {
            None => self.opts.read_timeout,
            Some(d) => {
                if d.expired() {
                    return Err(TsbError::DeadlineExceeded(
                        "deadline expired before the server replied".into(),
                    ));
                }
                let remaining = d.remaining().max(Duration::from_millis(1));
                Some(match self.opts.read_timeout {
                    Some(base) => base.min(remaining),
                    None => remaining,
                })
            }
        };
        if want != self.socket_read_timeout {
            self.stream.set_read_timeout(want)?;
            self.socket_read_timeout = want;
        }
        Ok(())
    }

    // ----- closed-loop conveniences --------------------------------------

    /// Durable insert; returns the commit timestamp once acknowledged.
    pub fn put(&mut self, key: impl Into<Key>, value: Vec<u8>) -> TsbResult<Timestamp> {
        committed(self.call(&Request::Put {
            key: key.into(),
            value,
        })?)
    }

    /// Durable delete; returns the tombstone's commit timestamp.
    pub fn delete(&mut self, key: impl Into<Key>) -> TsbResult<Timestamp> {
        committed(self.call(&Request::Delete { key: key.into() })?)
    }

    /// Current-state point read.
    pub fn get(&mut self, key: impl Into<Key>) -> TsbResult<Option<Vec<u8>>> {
        value(self.call(&Request::Get { key: key.into() })?)
    }

    /// As-of point read.
    pub fn get_as_of(
        &mut self,
        key: impl Into<Key>,
        as_of: Timestamp,
    ) -> TsbResult<Option<Vec<u8>>> {
        value(self.call(&Request::GetAsOf {
            key: key.into(),
            as_of,
        })?)
    }

    /// Range scan; `as_of: None` reads the current database.
    pub fn range(
        &mut self,
        range: KeyRange,
        as_of: Option<Timestamp>,
    ) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        match self.call(&Request::Range { range, as_of })? {
            Reply::Rows { rows } => Ok(rows),
            other => unexpected("Rows", other),
        }
    }

    /// Version history of `key` within `window`.
    pub fn history(&mut self, key: impl Into<Key>, window: TimeRange) -> TsbResult<Vec<Version>> {
        match self.call(&Request::History {
            key: key.into(),
            window,
        })? {
            Reply::Versions { versions } => Ok(versions),
            other => unexpected("Versions", other),
        }
    }

    /// Begins a multi-key transaction on this connection.
    pub fn txn_begin(&mut self) -> TsbResult<TxnId> {
        match self.call(&Request::TxnBegin)? {
            Reply::Txn { txn } => Ok(txn),
            other => unexpected("Txn", other),
        }
    }

    /// Buffers a write inside `txn` (`None` = delete). The reply means
    /// applied, not durable: [`Self::txn_commit`]'s ack is the
    /// transaction's one durability point, and a crash before it erases
    /// the write.
    pub fn txn_write(
        &mut self,
        txn: TxnId,
        key: impl Into<Key>,
        value: Option<Vec<u8>>,
    ) -> TsbResult<()> {
        unit(self.call(&Request::TxnWrite {
            txn,
            key: key.into(),
            value,
        })?)
    }

    /// Commits `txn`; returns its commit timestamp once durable.
    pub fn txn_commit(&mut self, txn: TxnId) -> TsbResult<Timestamp> {
        committed(self.call(&Request::TxnCommit { txn })?)
    }

    /// Aborts `txn`. Like [`Self::txn_write`], the reply means applied,
    /// not durable: an abort a crash loses is redone by recovery, which
    /// erases every write no durable commit covers.
    pub fn txn_abort(&mut self, txn: TxnId) -> TsbResult<()> {
        unit(self.call(&Request::TxnAbort { txn })?)
    }

    /// Asks the connected server whether it is a primary or a replica,
    /// and at which promotion epoch.
    pub fn role(&mut self) -> TsbResult<ServerRole> {
        match self.call(&Request::Role)? {
            Reply::RoleInfo {
                primary,
                shards,
                epoch,
                durable_lsn,
            } => Ok(ServerRole {
                primary,
                shards,
                epoch,
                durable_lsn,
            }),
            other => unexpected("RoleInfo", other),
        }
    }

    /// Replication progress of the connected replica (errors on a
    /// primary).
    pub fn replica_status(&mut self) -> TsbResult<ReplicaStatusReport> {
        match self.call(&Request::ReplicaStatus)? {
            Reply::ReplicaStatusInfo {
                serving,
                applied_lsn,
                received_lsn,
                source_durable_lsn,
                lag_records,
                ship_lag_records,
                lag_ms,
            } => Ok(ReplicaStatusReport {
                serving,
                applied_lsn,
                received_lsn,
                source_durable_lsn,
                lag_records,
                ship_lag_records,
                lag_ms,
            }),
            other => unexpected("ReplicaStatusInfo", other),
        }
    }

    /// Promotes the connected **replica** to primary and returns its new
    /// promotion epoch. The replica stops replicating, recovers its local
    /// copy of the log through ordinary primary recovery (acknowledged
    /// writes survive; a partially shipped tail that was never
    /// acknowledged anywhere is discarded), durably bumps its epoch, and
    /// starts accepting writes. Idempotent: promoting a primary returns
    /// its current epoch. The old primary, if it ever comes back, is
    /// fenced off — its stale epoch is rejected on `subscribe`.
    pub fn promote(&mut self) -> TsbResult<u64> {
        match self.call(&Request::Promote)? {
            Reply::Promoted { epoch } => Ok(epoch),
            other => unexpected("Promoted", other),
        }
    }

    /// Liveness probe; returns the server's install fence.
    pub fn ping(&mut self) -> TsbResult<Timestamp> {
        match self.call(&Request::Ping)? {
            Reply::Pong { last_installed } => Ok(last_installed),
            other => unexpected("Pong", other),
        }
    }

    /// Asks the server to shut down cleanly (acknowledged before it
    /// stops).
    pub fn shutdown_server(&mut self) -> TsbResult<()> {
        unit(self.call(&Request::Shutdown)?)
    }
}

impl Drop for TsbClient {
    /// Best effort: requests queued and never flushed still go out (a
    /// fire-and-forget `Shutdown`, say). Errors have nowhere to go; call
    /// [`TsbClient::flush`] to see them.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Converts a remote error reply into a [`TsbError`]. Codes with a
/// faithful local variant round-trip to it (`read-only`, `stale-epoch`
/// loses its numbers, `overloaded`, `deadline-exceeded`), so callers can
/// classify retryable failures by matching the variant; everything else
/// becomes an [`TsbError::Internal`] tagged with the wire code's class
/// name.
pub fn remote_error(code: u8, message: &str) -> TsbError {
    match code {
        protocol::CODE_READ_ONLY => TsbError::ReadOnly,
        protocol::CODE_OVERLOADED => TsbError::Overloaded(format!("remote: {message}")),
        protocol::CODE_DEADLINE_EXCEEDED => {
            TsbError::DeadlineExceeded(format!("remote: {message}"))
        }
        // 20..=22: the server could not parse *our* byte stream (torn or
        // duplicated bytes between us and it). The connection is
        // desynchronized beyond repair — classify like a locally detected
        // torn frame so the failover layer reconnects instead of giving
        // up on a healthy server.
        20..=22 => TsbError::Corruption(format!(
            "protocol: peer rejected our frame stream [{}]: {message}",
            TsbError::wire_code_name(code)
        )),
        _ => TsbError::internal(format!(
            "remote error [{}]: {message}",
            TsbError::wire_code_name(code)
        )),
    }
}

/// Whether `e` means the connection itself is unusable (as opposed to a
/// healthy server answering with an application error).
pub(crate) fn connection_broken(e: &TsbError) -> bool {
    match e {
        TsbError::Io(io) => matches!(
            io.kind(),
            ErrorKind::UnexpectedEof
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::ConnectionRefused
                | ErrorKind::BrokenPipe
                | ErrorKind::NotConnected
                | ErrorKind::WouldBlock
                | ErrorKind::TimedOut
        ),
        // A torn frame means the stream is desynchronized beyond repair.
        TsbError::Corruption(msg) => msg.starts_with("protocol"),
        _ => false,
    }
}

fn committed(reply: Reply) -> TsbResult<Timestamp> {
    match reply {
        Reply::Committed { ts } => Ok(ts),
        other => unexpected("Committed", other),
    }
}

fn value(reply: Reply) -> TsbResult<Option<Vec<u8>>> {
    match reply {
        Reply::Value { value } => Ok(value),
        other => unexpected("Value", other),
    }
}

fn unit(reply: Reply) -> TsbResult<()> {
    match reply {
        Reply::Unit => Ok(()),
        other => unexpected("Unit", other),
    }
}

fn unexpected<T>(wanted: &str, got: Reply) -> TsbResult<T> {
    Err(match got {
        Reply::Error { code, message } => remote_error(code, &message),
        other => TsbError::corruption(format!(
            "protocol: expected a {wanted} reply, got {other:?}"
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An oversized request is refused with a typed error before anything
    /// is queued: the id is not consumed, nothing reaches the wire, and the
    /// connection carries the next request as if nothing had happened.
    #[test]
    fn an_oversized_request_is_refused_before_it_is_queued() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TsbClient::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut peer, _) = listener.accept().expect("accept");
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("peer timeout");

        let big = Request::Put {
            key: Key::from_u64(1),
            value: vec![9; 200],
        };
        let body_len = protocol::encode_request(0, &big).len() - 8;
        match client.send_within(&big, body_len - 1) {
            Err(TsbError::EntryTooLarge {
                entry_size,
                capacity,
            }) => assert_eq!((entry_size, capacity), (body_len, body_len - 1)),
            other => panic!("expected EntryTooLarge, got {other:?}"),
        }
        assert!(client.send_buf.is_empty(), "nothing may be queued");

        // At the limit it goes through, under the id the refusal left.
        let id = client.send_within(&big, body_len).expect("fits");
        client.flush().expect("flush");
        let expected = protocol::encode_request(id, &big);
        let mut wire = vec![0u8; expected.len()];
        peer.read_exact(&mut wire).expect("the frame arrives");
        assert_eq!(wire, expected);
        assert_eq!(client.send(&Request::Ping).expect("ping"), id + 1);
    }

    /// A closed-loop verb that gives up at its deadline drops the late
    /// reply instead of parking it: against a peer that answers every
    /// request 200 ms late, ten `get`s under a 50 ms `op_timeout` and one
    /// `get` with no deadline (which reads the ten late replies on its way
    /// to its own) leave nothing parked.
    #[test]
    fn a_closed_loop_verb_drops_the_late_reply_it_gave_up_on() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 4096];
            for _ in 0..11 {
                let body = loop {
                    if let Some(body) = decoder.next_frame().expect("frame") {
                        break body;
                    }
                    let n = conn.read(&mut buf).expect("read");
                    assert!(n > 0, "the client hung up");
                    decoder.feed(&buf[..n]);
                };
                let (id, _) = protocol::parse_request(&body).expect("request");
                std::thread::sleep(Duration::from_millis(200));
                let reply = protocol::encode_reply(id, &Reply::Value { value: None });
                conn.write_all(&reply).expect("reply");
            }
        });
        let opts = ClientOptions {
            op_timeout: Some(Duration::from_millis(50)),
            ..ClientOptions::default()
        };
        let mut client = TsbClient::connect_with(addr, &opts).expect("connect");
        for i in 0..10u64 {
            match client.get(Key::from_u64(i)) {
                Err(TsbError::DeadlineExceeded(_)) => {}
                other => panic!("get {i}: expected a deadline error, got {other:?}"),
            }
        }
        client.opts.op_timeout = None;
        assert_eq!(client.get(Key::from_u64(10)).expect("late get"), None);
        assert_eq!(client.parked(), 0, "late replies were parked");
        peer.join().expect("peer");
    }
}
