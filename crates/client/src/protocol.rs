//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! This module is the authoritative implementation of the format specified
//! in `docs/protocol.md`. Both sides of the wire use it: `tsb-server`
//! decodes [`Request`]s and encodes [`Reply`]s, [`crate::TsbClient`] does
//! the reverse.
//!
//! # Frame layout
//!
//! ```text
//! +--------------+--------------+----------------------------------+
//! | len: u32 LE  | crc: u32 LE  | body (len bytes)                 |
//! +--------------+--------------+----------------------------------+
//! body = request_id: u64 LE | tag: u8 | payload
//! ```
//!
//! `len` counts the body only. A body is at least [`MIN_FRAME_BODY`] bytes
//! (id + tag) and at most [`MAX_FRAME_BODY`]; a length prefix outside that
//! window is a protocol error *before* any allocation happens — the decoder
//! only ever buffers bytes that actually arrived, so a hostile length
//! prefix cannot make it reserve memory (mirroring the WAL's
//! `MAX_RECORD_BODY` guard).
//!
//! `crc` is the CRC-32 of the body ([`tsb_common::checksum::crc32`]).
//! Length prefixes alone cannot keep a TCP stream honest: a duplicated or
//! torn byte sequence occasionally *re-parses* as a valid frame with
//! shifted field boundaries — the network chaos harness produced exactly
//! that, committing a `Put` whose value was a window of wire bytes. The
//! checksum reduces a desynchronized stream to a detectable
//! [`FrameError::BadChecksum`], after which the connection must close and
//! the client retries over a fresh one.
//!
//! Payload encoding reuses `tsb-common`'s [`ByteWriter`]/[`ByteReader`]
//! (little-endian, `u32`-length-prefixed byte strings), so keys, ranges,
//! timestamps, and versions have the same encoding on the wire as on the
//! devices. Trailing bytes after a payload are a protocol error: a frame
//! means exactly one request or reply.
//!
//! # Request ids and pipelining
//!
//! The `request_id` is chosen by the client and echoed verbatim in the
//! reply. A connection may have any number of requests in flight; the
//! server may complete them out of order (it currently answers a drained
//! batch in arrival order, but clients must match on id, not position).
//! Id `0` is reserved for connection-level error replies — a frame the
//! server could not attribute to a request (malformed framing).

use std::fmt;

use tsb_common::checksum::crc32;
use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbError, TxnId, Version};

/// Largest body a frame may declare. Larger prefixes are rejected without
/// allocating. Big enough for any single page-sized value plus slack; small
/// enough that one hostile connection cannot balloon the server.
pub const MAX_FRAME_BODY: usize = 16 << 20;

/// Smallest meaningful body: an 8-byte request id plus a 1-byte tag.
pub const MIN_FRAME_BODY: usize = 9;

/// Wire codes minted by the protocol layer itself (engine faults travel as
/// [`TsbError::wire_code`], which stays below 20; the connection-lifecycle
/// codes [`CODE_OVERLOADED`]/[`CODE_DEADLINE_EXCEEDED`] sit above these).
pub const CODE_MALFORMED: u8 = 20;
/// See [`CODE_MALFORMED`].
pub const CODE_OVERSIZED: u8 = 21;
/// See [`CODE_MALFORMED`].
pub const CODE_UNKNOWN_VERB: u8 = 22;
/// `TsbError::ReadOnly`'s wire code, named here because a failover client
/// dispatches on it over the wire (a write answered `read-only` means the
/// endpoint is a replica or a demoted primary — go find the promoted one).
pub const CODE_READ_ONLY: u8 = 15;
/// `TsbError::StaleEpoch`'s wire code, named here because the replication
/// runner dispatches on it over the wire (a rejected `Subscribe` from a
/// demoted primary must trigger a re-bootstrap, not a blind retry).
pub const CODE_STALE_EPOCH: u8 = 16;
/// The server shed this connection at accept time (`--max-conns` reached).
/// Recoverable: retry another endpoint or back off — nothing was executed.
pub const CODE_OVERLOADED: u8 = 23;
/// Minted client-side when a per-operation deadline expires before the
/// reply arrives. The operation may or may not have taken effect.
pub const CODE_DEADLINE_EXCEEDED: u8 = 24;

/// A framing or parsing failure. Distinct from [`TsbError`] because the
/// receiving side must react differently: [`FrameError::UnknownVerb`]
/// leaves the stream synchronized (the frame was well-formed), while the
/// other two mean the byte stream itself can no longer be trusted and the
/// connection must close.
#[derive(Debug)]
pub enum FrameError {
    /// A length prefix above [`MAX_FRAME_BODY`] or below [`MIN_FRAME_BODY`].
    Oversized {
        /// The declared body length.
        declared: u64,
    },
    /// A body that does not parse as exactly one request/reply.
    Malformed(String),
    /// A frame whose body does not match its header checksum: the byte
    /// stream is desynchronized (duplicated/torn bytes) or corrupt.
    BadChecksum {
        /// The checksum the header declared.
        declared: u32,
        /// The checksum of the bytes that arrived.
        actual: u32,
    },
    /// A well-formed frame whose verb tag this side does not know.
    UnknownVerb(u8),
}

impl FrameError {
    /// The wire code an error reply carries for this failure.
    pub fn wire_code(&self) -> u8 {
        match self {
            FrameError::Oversized { .. } => CODE_OVERSIZED,
            FrameError::Malformed(_) | FrameError::BadChecksum { .. } => CODE_MALFORMED,
            FrameError::UnknownVerb(_) => CODE_UNKNOWN_VERB,
        }
    }

    /// Whether the byte stream is still frame-synchronized after this
    /// error (only an unknown verb inside a well-formed frame is).
    pub fn recoverable(&self) -> bool {
        matches!(self, FrameError::UnknownVerb(_))
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { declared } => write!(
                f,
                "frame body of {declared} bytes is outside [{MIN_FRAME_BODY}, {MAX_FRAME_BODY}]"
            ),
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            FrameError::BadChecksum { declared, actual } => write!(
                f,
                "frame checksum mismatch (header {declared:#010x}, body {actual:#010x}): \
                 byte stream desynchronized"
            ),
            FrameError::UnknownVerb(tag) => write!(f, "unknown verb tag {tag}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for TsbError {
    fn from(e: FrameError) -> Self {
        TsbError::corruption(format!("protocol: {e}"))
    }
}

/// One client request. Verbs mirror the `EngineHandle` read/write surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Insert a new current version of `key`; acknowledged only once the
    /// commit is durable under the server's fsync policy.
    Put {
        /// Key to write.
        key: Key,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Write a tombstone for `key` (same durability contract as `Put`).
    Delete {
        /// Key to delete.
        key: Key,
    },
    /// Read the current value of `key`.
    Get {
        /// Key to read.
        key: Key,
    },
    /// Read the value of `key` as of a past timestamp.
    GetAsOf {
        /// Key to read.
        key: Key,
        /// As-of time.
        as_of: Timestamp,
    },
    /// Range scan; `as_of: None` scans the current database.
    Range {
        /// Key range to scan.
        range: KeyRange,
        /// As-of time, or `None` for current.
        as_of: Option<Timestamp>,
    },
    /// Version history of `key` within a commit-time window.
    History {
        /// Key whose history to read.
        key: Key,
        /// Commit-time window.
        window: TimeRange,
    },
    /// Begin a multi-key transaction owned by this connection.
    TxnBegin,
    /// Buffer a write inside a transaction (`value: None` = delete).
    TxnWrite {
        /// Transaction id from `TxnBegin`.
        txn: TxnId,
        /// Key to write.
        key: Key,
        /// New value, or `None` for a tombstone.
        value: Option<Vec<u8>>,
    },
    /// Commit a transaction; acknowledged only once durable.
    TxnCommit {
        /// Transaction id.
        txn: TxnId,
    },
    /// Abort a transaction, erasing its uncommitted writes.
    TxnAbort {
        /// Transaction id.
        txn: TxnId,
    },
    /// Liveness probe; the reply carries the server's install fence.
    Ping,
    /// Ask the server to stop accepting connections and exit cleanly.
    Shutdown,
    /// Ask which role this server plays (primary or replica) and how many
    /// shards it runs.
    Role,
    /// Pull the next batch of redo-log records for replication (the
    /// subscriber's cursor doubles as the cumulative ACK: asking for
    /// records after `from_lsn` acknowledges everything at or before it).
    Subscribe {
        /// The subscriber's resume cursor: ship records with LSN >
        /// `from_lsn`.
        from_lsn: u64,
        /// Each shard's WORM device length at the subscriber, in shard
        /// order; the reply carries the historical bytes past them that
        /// the batch's fences reference.
        worm_have: Vec<u64>,
        /// Soft cap on record bytes in the reply (the server clamps it so
        /// the reply fits a frame).
        max_bytes: u64,
        /// The promotion epoch the subscriber believes the primary is at
        /// (learned from `BaseInfo` at bootstrap). A subscriber presenting
        /// an *older* epoch is a demoted former primary with diverged
        /// history: the server rejects it with `StaleEpoch` (code 16) and
        /// it must re-bootstrap. `0` means "unknown" (first contact) and
        /// is always accepted.
        epoch: u64,
    },
    /// Capture a replication base image on the primary and learn its
    /// shape. The image is cached on this connection; fetch its contents
    /// with `FetchBasePages` / `FetchBaseWorm`.
    FetchBase,
    /// Fetch a chunk of one shard's pages in the captured base, starting
    /// at index `start`.
    FetchBasePages {
        /// The shard whose pages to return.
        shard: u32,
        /// Index of the first page to return (into the shard's page list).
        start: u64,
        /// Soft cap on page bytes in the reply.
        max_bytes: u64,
    },
    /// Fetch a chunk of one shard's WORM image in the captured base.
    FetchBaseWorm {
        /// The shard whose WORM image to return.
        shard: u32,
        /// Byte offset into the shard's WORM image.
        offset: u64,
        /// Soft cap on bytes in the reply.
        max_bytes: u64,
    },
    /// Ask a replica for its replication progress.
    ReplicaStatus,
    /// Promote a replica to primary: stop replicating, recover to the
    /// newest shipped fence, persist a bumped promotion epoch, and start
    /// accepting writes. Idempotent on a server that is already primary.
    Promote,
}

const REQ_PUT: u8 = 1;
const REQ_DELETE: u8 = 2;
const REQ_GET: u8 = 3;
const REQ_GET_AS_OF: u8 = 4;
const REQ_RANGE: u8 = 5;
const REQ_HISTORY: u8 = 6;
const REQ_TXN_BEGIN: u8 = 7;
const REQ_TXN_WRITE: u8 = 8;
const REQ_TXN_COMMIT: u8 = 9;
const REQ_TXN_ABORT: u8 = 10;
const REQ_PING: u8 = 11;
const REQ_SHUTDOWN: u8 = 12;
const REQ_ROLE: u8 = 13;
const REQ_SUBSCRIBE: u8 = 14;
const REQ_FETCH_BASE: u8 = 15;
const REQ_FETCH_BASE_PAGES: u8 = 16;
const REQ_FETCH_BASE_WORM: u8 = 17;
const REQ_REPLICA_STATUS: u8 = 18;
const REQ_PROMOTE: u8 = 19;

/// One server reply. The tag makes replies self-describing, so a client
/// can park out-of-order responses before knowing which request they
/// answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// The request failed; `code` is [`TsbError::wire_code`] or one of the
    /// protocol-layer `CODE_*` constants.
    Error {
        /// Stable error class (see `TsbError::wire_code_name`).
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// A durable write's commit timestamp (`put`, `delete`, `txn_commit`).
    Committed {
        /// Commit timestamp.
        ts: Timestamp,
    },
    /// A point read's result (`get`, `get_as_of`); `None` = no live value.
    Value {
        /// The value, if the key has one at the requested time.
        value: Option<Vec<u8>>,
    },
    /// A range scan's result.
    Rows {
        /// Key/value pairs in key order.
        rows: Vec<(Key, Vec<u8>)>,
    },
    /// A history query's result.
    Versions {
        /// Matching versions, oldest first.
        versions: Vec<Version>,
    },
    /// A new transaction's id.
    Txn {
        /// The transaction id to use in `TxnWrite`/`TxnCommit`/`TxnAbort`.
        txn: TxnId,
    },
    /// Success with nothing to report (`txn_write`, `txn_abort`,
    /// `shutdown`).
    Unit,
    /// Reply to `Ping`.
    Pong {
        /// The server's install fence at reply time.
        last_installed: Timestamp,
    },
    /// Reply to `Role`.
    RoleInfo {
        /// `true` when this server accepts writes.
        primary: bool,
        /// Shard count (1 on unsharded primaries and on replicas).
        shards: u32,
        /// The server's promotion epoch (see `Request::Subscribe::epoch`).
        /// Clients comparing two claimed primaries must believe the one
        /// with the higher epoch.
        epoch: u64,
        /// The newest durable position in this server's log, the one log
        /// every shard shares (0 in memory). On a replica: the applied
        /// fence LSN. A no-loss promotion drill quiesces writers,
        /// reads this off the *primary*, and waits until the replica's
        /// `applied_lsn` reaches it — the replica's own lag counters are
        /// relative to the watermark it last polled and can read zero
        /// while newer durable records exist that never shipped.
        durable_lsn: u64,
    },
    /// Reply to `Subscribe`: one shipped batch (see
    /// `tsb_core::ShippedBatch` for field semantics).
    Batch {
        /// The subscriber's cursor predates the retained log: re-base.
        needs_rebase: bool,
        /// The primary's durable watermark at poll time.
        durable_lsn: u64,
        /// Per shard: the device offset its bytes start at, and the
        /// historical bytes the batch's fences reference.
        worm: Vec<(u64, Vec<u8>)>,
        /// Encoded record bodies, contiguous LSNs.
        records: Vec<Vec<u8>>,
    },
    /// Reply to `FetchBase`: the shape of the just-captured base image.
    BaseInfo {
        /// LSN of the base's checkpoint fence.
        checkpoint_lsn: u64,
        /// The checkpoint record's encoded body.
        checkpoint: Vec<u8>,
        /// Number of pages in each shard's image, in shard order (fetch
        /// via `FetchBasePages`; each shard's WORM image via
        /// `FetchBaseWorm`).
        page_counts: Vec<u64>,
        /// The primary's page size.
        page_size: u64,
        /// The primary's WORM sector size.
        worm_sector_size: u64,
        /// The primary's promotion epoch at capture time. The replica
        /// persists it and presents it on every later `Subscribe`.
        epoch: u64,
    },
    /// Reply to `FetchBasePages`: a chunk of the base's pages.
    BasePages {
        /// `(page id, image)` pairs starting at the requested index.
        pages: Vec<(u64, Vec<u8>)>,
        /// Whether this chunk reaches the end of the page list.
        done: bool,
    },
    /// Reply to `FetchBaseWorm`: a chunk of the base's WORM image.
    BaseWorm {
        /// Bytes starting at the requested offset.
        bytes: Vec<u8>,
        /// Whether this chunk reaches the end of the image.
        done: bool,
    },
    /// Reply to `ReplicaStatus` (see `tsb_core::ReplicaStatus`).
    ReplicaStatusInfo {
        /// Whether the replica serves reads yet.
        serving: bool,
        /// LSN of the newest installed fence.
        applied_lsn: u64,
        /// LSN of the newest record in the replica's local log — the
        /// freshness signal promotion tooling compares across replicas.
        received_lsn: u64,
        /// The primary's durable watermark as last seen.
        source_durable_lsn: u64,
        /// Full applied-vs-durable delta (records ≡ LSNs).
        lag_records: u64,
        /// Durable-on-primary records not yet in the local log (ship lag);
        /// the rest of `lag_records` is received-but-unapplied.
        ship_lag_records: u64,
        /// Milliseconds since last progress (0 when caught up).
        lag_ms: u64,
    },
    /// Reply to `Promote`: the server is now primary at this epoch.
    Promoted {
        /// The (possibly just bumped) promotion epoch.
        epoch: u64,
    },
}

const REP_ERROR: u8 = 0;
const REP_COMMITTED: u8 = 1;
const REP_VALUE: u8 = 2;
const REP_ROWS: u8 = 3;
const REP_VERSIONS: u8 = 4;
const REP_TXN: u8 = 5;
const REP_UNIT: u8 = 6;
const REP_PONG: u8 = 7;
const REP_ROLE_INFO: u8 = 8;
const REP_BATCH: u8 = 9;
const REP_BASE_INFO: u8 = 10;
const REP_BASE_PAGES: u8 = 11;
const REP_BASE_WORM: u8 = 12;
const REP_REPLICA_STATUS: u8 = 13;
const REP_PROMOTED: u8 = 14;

/// Encodes one request as a complete frame (length prefix included).
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    frame(request_body(id, req))
}

/// [`encode_request`] for a sender whose request's size is the caller's
/// data's doing: a body above `max_body` ([`MAX_FRAME_BODY`] in production;
/// a parameter so a test needs no 16 MiB value) is refused *before* it is
/// framed, because the peer's decoder would refuse the frame and kill the
/// connection with everything queued behind it. The error is the body's
/// length.
pub fn encode_request_within(id: u64, req: &Request, max_body: usize) -> Result<Vec<u8>, usize> {
    let body = request_body(id, req);
    if body.len() > max_body {
        return Err(body.len());
    }
    Ok(frame(body))
}

fn request_body(id: u64, req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32);
    w.put_u64(id);
    match req {
        Request::Put { key, value } => {
            w.put_u8(REQ_PUT);
            w.put_key(key);
            w.put_bytes(value);
        }
        Request::Delete { key } => {
            w.put_u8(REQ_DELETE);
            w.put_key(key);
        }
        Request::Get { key } => {
            w.put_u8(REQ_GET);
            w.put_key(key);
        }
        Request::GetAsOf { key, as_of } => {
            w.put_u8(REQ_GET_AS_OF);
            w.put_key(key);
            w.put_timestamp(*as_of);
        }
        Request::Range { range, as_of } => {
            w.put_u8(REQ_RANGE);
            w.put_key_range(range);
            match as_of {
                Some(ts) => {
                    w.put_u8(1);
                    w.put_timestamp(*ts);
                }
                None => w.put_u8(0),
            }
        }
        Request::History { key, window } => {
            w.put_u8(REQ_HISTORY);
            w.put_key(key);
            w.put_time_range(window);
        }
        Request::TxnBegin => w.put_u8(REQ_TXN_BEGIN),
        Request::TxnWrite { txn, key, value } => {
            w.put_u8(REQ_TXN_WRITE);
            w.put_u64(txn.0);
            w.put_key(key);
            match value {
                Some(v) => {
                    w.put_u8(1);
                    w.put_bytes(v);
                }
                None => w.put_u8(0),
            }
        }
        Request::TxnCommit { txn } => {
            w.put_u8(REQ_TXN_COMMIT);
            w.put_u64(txn.0);
        }
        Request::TxnAbort { txn } => {
            w.put_u8(REQ_TXN_ABORT);
            w.put_u64(txn.0);
        }
        Request::Ping => w.put_u8(REQ_PING),
        Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
        Request::Role => w.put_u8(REQ_ROLE),
        Request::Subscribe {
            from_lsn,
            worm_have,
            max_bytes,
            epoch,
        } => {
            w.put_u8(REQ_SUBSCRIBE);
            w.put_u64(*from_lsn);
            put_u64s(&mut w, worm_have);
            w.put_u64(*max_bytes);
            w.put_u64(*epoch);
        }
        Request::FetchBase => w.put_u8(REQ_FETCH_BASE),
        Request::FetchBasePages {
            shard,
            start,
            max_bytes,
        } => {
            w.put_u8(REQ_FETCH_BASE_PAGES);
            w.put_u32(*shard);
            w.put_u64(*start);
            w.put_u64(*max_bytes);
        }
        Request::FetchBaseWorm {
            shard,
            offset,
            max_bytes,
        } => {
            w.put_u8(REQ_FETCH_BASE_WORM);
            w.put_u32(*shard);
            w.put_u64(*offset);
            w.put_u64(*max_bytes);
        }
        Request::ReplicaStatus => w.put_u8(REQ_REPLICA_STATUS),
        Request::Promote => w.put_u8(REQ_PROMOTE),
    }
    w.into_vec()
}

/// Encodes one reply as a complete frame (length prefix included).
pub fn encode_reply(id: u64, reply: &Reply) -> Vec<u8> {
    frame(reply_body(id, reply))
}

/// [`encode_reply`] for the server's send path, where the reply's size is
/// the data's doing, not the caller's: a reply whose body exceeds
/// `max_body` ([`MAX_FRAME_BODY`] in production; a parameter so a test
/// needs no 16 MiB scan) is answered with a [`CODE_OVERSIZED`] error on the
/// same id instead of a frame no decoder would accept.
pub fn encode_reply_within(id: u64, reply: &Reply, max_body: usize) -> Vec<u8> {
    let body = reply_body(id, reply);
    if body.len() <= max_body {
        return frame(body);
    }
    let refusal = Reply::Error {
        code: CODE_OVERSIZED,
        message: format!(
            "reply of {} bytes exceeds the {max_body}-byte frame limit; narrow the range",
            body.len()
        ),
    };
    frame(reply_body(id, &refusal))
}

fn reply_body(id: u64, reply: &Reply) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32);
    w.put_u64(id);
    match reply {
        Reply::Error { code, message } => {
            w.put_u8(REP_ERROR);
            w.put_u8(*code);
            w.put_bytes(message.as_bytes());
        }
        Reply::Committed { ts } => {
            w.put_u8(REP_COMMITTED);
            w.put_timestamp(*ts);
        }
        Reply::Value { value } => {
            w.put_u8(REP_VALUE);
            match value {
                Some(v) => {
                    w.put_u8(1);
                    w.put_bytes(v);
                }
                None => w.put_u8(0),
            }
        }
        Reply::Rows { rows } => {
            w.put_u8(REP_ROWS);
            w.put_u32(rows.len() as u32);
            for (key, value) in rows {
                w.put_key(key);
                w.put_bytes(value);
            }
        }
        Reply::Versions { versions } => {
            w.put_u8(REP_VERSIONS);
            w.put_u32(versions.len() as u32);
            for v in versions {
                w.put_version(v);
            }
        }
        Reply::Txn { txn } => {
            w.put_u8(REP_TXN);
            w.put_u64(txn.0);
        }
        Reply::Unit => w.put_u8(REP_UNIT),
        Reply::Pong { last_installed } => {
            w.put_u8(REP_PONG);
            w.put_timestamp(*last_installed);
        }
        Reply::RoleInfo {
            primary,
            shards,
            epoch,
            durable_lsn,
        } => {
            w.put_u8(REP_ROLE_INFO);
            w.put_u8(u8::from(*primary));
            w.put_u32(*shards);
            w.put_u64(*epoch);
            w.put_u64(*durable_lsn);
        }
        Reply::Batch {
            needs_rebase,
            durable_lsn,
            worm,
            records,
        } => {
            w.put_u8(REP_BATCH);
            w.put_u8(u8::from(*needs_rebase));
            w.put_u64(*durable_lsn);
            w.put_u32(worm.len() as u32);
            for (start, bytes) in worm {
                w.put_u64(*start);
                w.put_bytes(bytes);
            }
            w.put_u32(records.len() as u32);
            for body in records {
                w.put_bytes(body);
            }
        }
        Reply::BaseInfo {
            checkpoint_lsn,
            checkpoint,
            page_counts,
            page_size,
            worm_sector_size,
            epoch,
        } => {
            w.put_u8(REP_BASE_INFO);
            w.put_u64(*checkpoint_lsn);
            w.put_bytes(checkpoint);
            put_u64s(&mut w, page_counts);
            w.put_u64(*page_size);
            w.put_u64(*worm_sector_size);
            w.put_u64(*epoch);
        }
        Reply::BasePages { pages, done } => {
            w.put_u8(REP_BASE_PAGES);
            w.put_u32(pages.len() as u32);
            for (page, bytes) in pages {
                w.put_u64(*page);
                w.put_bytes(bytes);
            }
            w.put_u8(u8::from(*done));
        }
        Reply::BaseWorm { bytes, done } => {
            w.put_u8(REP_BASE_WORM);
            w.put_bytes(bytes);
            w.put_u8(u8::from(*done));
        }
        Reply::ReplicaStatusInfo {
            serving,
            applied_lsn,
            received_lsn,
            source_durable_lsn,
            lag_records,
            ship_lag_records,
            lag_ms,
        } => {
            w.put_u8(REP_REPLICA_STATUS);
            w.put_u8(u8::from(*serving));
            w.put_u64(*applied_lsn);
            w.put_u64(*received_lsn);
            w.put_u64(*source_durable_lsn);
            w.put_u64(*lag_records);
            w.put_u64(*ship_lag_records);
            w.put_u64(*lag_ms);
        }
        Reply::Promoted { epoch } => {
            w.put_u8(REP_PROMOTED);
            w.put_u64(*epoch);
        }
    }
    w.into_vec()
}

fn frame(body: Vec<u8>) -> Vec<u8> {
    debug_assert!((MIN_FRAME_BODY..=MAX_FRAME_BODY).contains(&body.len()));
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Parses a frame body into `(request_id, Request)`.
pub fn parse_request(body: &[u8]) -> Result<(u64, Request), FrameError> {
    let mut r = ByteReader::new(body);
    let id = r.get_u64().map_err(malformed)?;
    let tag = r.get_u8().map_err(malformed)?;
    let req = match tag {
        REQ_PUT => Request::Put {
            key: r.get_key().map_err(malformed)?,
            value: r.get_bytes().map_err(malformed)?,
        },
        REQ_DELETE => Request::Delete {
            key: r.get_key().map_err(malformed)?,
        },
        REQ_GET => Request::Get {
            key: r.get_key().map_err(malformed)?,
        },
        REQ_GET_AS_OF => Request::GetAsOf {
            key: r.get_key().map_err(malformed)?,
            as_of: r.get_timestamp().map_err(malformed)?,
        },
        REQ_RANGE => {
            let range = r.get_key_range().map_err(malformed)?;
            let as_of = match r.get_u8().map_err(malformed)? {
                0 => None,
                1 => Some(r.get_timestamp().map_err(malformed)?),
                t => return Err(FrameError::Malformed(format!("invalid as-of tag {t}"))),
            };
            Request::Range { range, as_of }
        }
        REQ_HISTORY => Request::History {
            key: r.get_key().map_err(malformed)?,
            window: r.get_time_range().map_err(malformed)?,
        },
        REQ_TXN_BEGIN => Request::TxnBegin,
        REQ_TXN_WRITE => {
            let txn = TxnId(r.get_u64().map_err(malformed)?);
            let key = r.get_key().map_err(malformed)?;
            let value = match r.get_u8().map_err(malformed)? {
                0 => None,
                1 => Some(r.get_bytes().map_err(malformed)?),
                t => return Err(FrameError::Malformed(format!("invalid value tag {t}"))),
            };
            Request::TxnWrite { txn, key, value }
        }
        REQ_TXN_COMMIT => Request::TxnCommit {
            txn: TxnId(r.get_u64().map_err(malformed)?),
        },
        REQ_TXN_ABORT => Request::TxnAbort {
            txn: TxnId(r.get_u64().map_err(malformed)?),
        },
        REQ_PING => Request::Ping,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_ROLE => Request::Role,
        REQ_SUBSCRIBE => Request::Subscribe {
            from_lsn: r.get_u64().map_err(malformed)?,
            worm_have: get_u64s(&mut r)?,
            max_bytes: r.get_u64().map_err(malformed)?,
            epoch: r.get_u64().map_err(malformed)?,
        },
        REQ_FETCH_BASE => Request::FetchBase,
        REQ_FETCH_BASE_PAGES => Request::FetchBasePages {
            shard: r.get_u32().map_err(malformed)?,
            start: r.get_u64().map_err(malformed)?,
            max_bytes: r.get_u64().map_err(malformed)?,
        },
        REQ_FETCH_BASE_WORM => Request::FetchBaseWorm {
            shard: r.get_u32().map_err(malformed)?,
            offset: r.get_u64().map_err(malformed)?,
            max_bytes: r.get_u64().map_err(malformed)?,
        },
        REQ_REPLICA_STATUS => Request::ReplicaStatus,
        REQ_PROMOTE => Request::Promote,
        other => return Err(FrameError::UnknownVerb(other)),
    };
    expect_exhausted(&r)?;
    Ok((id, req))
}

/// Parses a frame body into `(request_id, Reply)`.
pub fn parse_reply(body: &[u8]) -> Result<(u64, Reply), FrameError> {
    let mut r = ByteReader::new(body);
    let id = r.get_u64().map_err(malformed)?;
    let tag = r.get_u8().map_err(malformed)?;
    let reply = match tag {
        REP_ERROR => {
            let code = r.get_u8().map_err(malformed)?;
            let message = String::from_utf8_lossy(&r.get_bytes().map_err(malformed)?).into_owned();
            Reply::Error { code, message }
        }
        REP_COMMITTED => Reply::Committed {
            ts: r.get_timestamp().map_err(malformed)?,
        },
        REP_VALUE => Reply::Value {
            value: match r.get_u8().map_err(malformed)? {
                0 => None,
                1 => Some(r.get_bytes().map_err(malformed)?),
                t => return Err(FrameError::Malformed(format!("invalid value tag {t}"))),
            },
        },
        REP_ROWS => {
            let count = r.get_u32().map_err(malformed)? as usize;
            // The count is hostile input: cap the pre-allocation by what
            // the body could possibly hold (a row is ≥ 8 bytes of length
            // prefixes), and let truncation surface naturally.
            let mut rows = Vec::with_capacity(count.min(body.len() / 8 + 1));
            for _ in 0..count {
                let key = r.get_key().map_err(malformed)?;
                let value = r.get_bytes().map_err(malformed)?;
                rows.push((key, value));
            }
            Reply::Rows { rows }
        }
        REP_VERSIONS => {
            let count = r.get_u32().map_err(malformed)? as usize;
            let mut versions = Vec::with_capacity(count.min(body.len() / 8 + 1));
            for _ in 0..count {
                versions.push(r.get_version().map_err(malformed)?);
            }
            Reply::Versions { versions }
        }
        REP_TXN => Reply::Txn {
            txn: TxnId(r.get_u64().map_err(malformed)?),
        },
        REP_UNIT => Reply::Unit,
        REP_PONG => Reply::Pong {
            last_installed: r.get_timestamp().map_err(malformed)?,
        },
        REP_ROLE_INFO => Reply::RoleInfo {
            primary: parse_bool(&mut r)?,
            shards: r.get_u32().map_err(malformed)?,
            epoch: r.get_u64().map_err(malformed)?,
            durable_lsn: r.get_u64().map_err(malformed)?,
        },
        REP_BATCH => {
            let needs_rebase = parse_bool(&mut r)?;
            let durable_lsn = r.get_u64().map_err(malformed)?;
            let count = r.get_u32().map_err(malformed)? as usize;
            let mut worm = Vec::with_capacity(count.min(body.len() / 12 + 1));
            for _ in 0..count {
                let start = r.get_u64().map_err(malformed)?;
                worm.push((start, r.get_bytes().map_err(malformed)?));
            }
            let count = r.get_u32().map_err(malformed)? as usize;
            let mut records = Vec::with_capacity(count.min(body.len() / 8 + 1));
            for _ in 0..count {
                records.push(r.get_bytes().map_err(malformed)?);
            }
            Reply::Batch {
                needs_rebase,
                durable_lsn,
                worm,
                records,
            }
        }
        REP_BASE_INFO => Reply::BaseInfo {
            checkpoint_lsn: r.get_u64().map_err(malformed)?,
            checkpoint: r.get_bytes().map_err(malformed)?,
            page_counts: get_u64s(&mut r)?,
            page_size: r.get_u64().map_err(malformed)?,
            worm_sector_size: r.get_u64().map_err(malformed)?,
            epoch: r.get_u64().map_err(malformed)?,
        },
        REP_BASE_PAGES => {
            let count = r.get_u32().map_err(malformed)? as usize;
            let mut pages = Vec::with_capacity(count.min(body.len() / 8 + 1));
            for _ in 0..count {
                let page = r.get_u64().map_err(malformed)?;
                let bytes = r.get_bytes().map_err(malformed)?;
                pages.push((page, bytes));
            }
            let done = parse_bool(&mut r)?;
            Reply::BasePages { pages, done }
        }
        REP_BASE_WORM => {
            let bytes = r.get_bytes().map_err(malformed)?;
            let done = parse_bool(&mut r)?;
            Reply::BaseWorm { bytes, done }
        }
        REP_REPLICA_STATUS => Reply::ReplicaStatusInfo {
            serving: parse_bool(&mut r)?,
            applied_lsn: r.get_u64().map_err(malformed)?,
            received_lsn: r.get_u64().map_err(malformed)?,
            source_durable_lsn: r.get_u64().map_err(malformed)?,
            lag_records: r.get_u64().map_err(malformed)?,
            ship_lag_records: r.get_u64().map_err(malformed)?,
            lag_ms: r.get_u64().map_err(malformed)?,
        },
        REP_PROMOTED => Reply::Promoted {
            epoch: r.get_u64().map_err(malformed)?,
        },
        other => return Err(FrameError::UnknownVerb(other)),
    };
    expect_exhausted(&r)?;
    Ok((id, reply))
}

fn malformed(e: TsbError) -> FrameError {
    FrameError::Malformed(e.to_string())
}

/// A `u32` count, then that many `u64`s (one per shard).
fn put_u64s(w: &mut ByteWriter, values: &[u64]) {
    w.put_u32(values.len() as u32);
    for value in values {
        w.put_u64(*value);
    }
}

/// The inverse of [`put_u64s`]. The count is hostile input: the
/// pre-allocation is capped by what the rest of the body could hold.
fn get_u64s(r: &mut ByteReader<'_>) -> Result<Vec<u64>, FrameError> {
    let count = r.get_u32().map_err(malformed)? as usize;
    let mut values = Vec::with_capacity(count.min(r.remaining() / 8));
    for _ in 0..count {
        values.push(r.get_u64().map_err(malformed)?);
    }
    Ok(values)
}

fn parse_bool(r: &mut ByteReader<'_>) -> Result<bool, FrameError> {
    match r.get_u8().map_err(malformed)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(FrameError::Malformed(format!("invalid bool tag {t}"))),
    }
}

fn expect_exhausted(r: &ByteReader<'_>) -> Result<(), FrameError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(FrameError::Malformed(format!(
            "{} trailing bytes after payload",
            r.remaining()
        )))
    }
}

/// Incremental frame extractor over a TCP byte stream.
///
/// Feed it whatever `read()` returned; [`FrameDecoder::next_frame`] yields
/// complete frame bodies as they become available. Memory is bounded by
/// the bytes actually received (plus one frame), never by what a length
/// prefix *claims* — an oversized or undersized prefix errors before any
/// allocation, and the caller must then drop the connection (the stream
/// can no longer be trusted to be frame-aligned).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` was consumed.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame body, `Ok(None)` if more bytes are
    /// needed. After an `Err` the decoder is poisoned in spirit: the caller
    /// must not keep reading from the same stream.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if !(MIN_FRAME_BODY..=MAX_FRAME_BODY).contains(&declared) {
            return Err(FrameError::Oversized {
                declared: declared as u64,
            });
        }
        if avail.len() < 8 + declared {
            return Ok(None);
        }
        let crc = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
        let body = &avail[8..8 + declared];
        let actual = crc32(body);
        if actual != crc {
            return Err(FrameError::BadChecksum {
                declared: crc,
                actual,
            });
        }
        let body = body.to_vec();
        self.pos += 8 + declared;
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::KeyBound;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Put {
                key: Key::from("k"),
                value: b"v".to_vec(),
            },
            Request::Delete {
                key: Key::from_u64(7),
            },
            Request::Get {
                key: Key::from("k"),
            },
            Request::GetAsOf {
                key: Key::from("k"),
                as_of: Timestamp(42),
            },
            Request::Range {
                range: KeyRange::full(),
                as_of: None,
            },
            Request::Range {
                range: KeyRange::new(Key::from("a"), KeyBound::Finite(Key::from("z"))),
                as_of: Some(Timestamp(9)),
            },
            Request::History {
                key: Key::from("k"),
                window: TimeRange::bounded(Timestamp(1), Timestamp(10)),
            },
            Request::TxnBegin,
            Request::TxnWrite {
                txn: TxnId(3),
                key: Key::from("k"),
                value: Some(b"v".to_vec()),
            },
            Request::TxnWrite {
                txn: TxnId(3),
                key: Key::from("k"),
                value: None,
            },
            Request::TxnCommit { txn: TxnId(3) },
            Request::TxnAbort { txn: TxnId(3) },
            Request::Ping,
            Request::Shutdown,
            Request::Role,
            Request::Subscribe {
                from_lsn: 42,
                worm_have: vec![4096, 0, 512],
                max_bytes: 1 << 20,
                epoch: 3,
            },
            Request::FetchBase,
            Request::FetchBasePages {
                shard: 2,
                start: 10,
                max_bytes: 1 << 20,
            },
            Request::FetchBaseWorm {
                shard: 0,
                offset: 8192,
                max_bytes: 1 << 20,
            },
            Request::ReplicaStatus,
            Request::Promote,
        ]
    }

    fn all_replies() -> Vec<Reply> {
        vec![
            Reply::Error {
                code: CODE_MALFORMED,
                message: "bad".into(),
            },
            Reply::Committed { ts: Timestamp(5) },
            Reply::Value { value: None },
            Reply::Value {
                value: Some(b"v".to_vec()),
            },
            Reply::Rows {
                rows: vec![(Key::from("a"), b"1".to_vec()), (Key::from("b"), vec![])],
            },
            Reply::Versions {
                versions: vec![
                    Version::committed("k", Timestamp(1), b"x".to_vec()),
                    Version::tombstone("k", Timestamp(2)),
                ],
            },
            Reply::Txn { txn: TxnId(8) },
            Reply::Unit,
            Reply::Pong {
                last_installed: Timestamp(77),
            },
            Reply::RoleInfo {
                primary: true,
                shards: 4,
                epoch: 2,
                durable_lsn: 4242,
            },
            Reply::Batch {
                needs_rebase: false,
                durable_lsn: 99,
                worm: vec![(512, vec![3; 32]), (0, vec![])],
                records: vec![vec![1, 2, 3], vec![]],
            },
            Reply::Batch {
                needs_rebase: true,
                durable_lsn: 100,
                worm: vec![],
                records: vec![],
            },
            Reply::BaseInfo {
                checkpoint_lsn: 7,
                checkpoint: vec![9; 40],
                page_counts: vec![12, 3],
                page_size: 4096,
                worm_sector_size: 512,
                epoch: 5,
            },
            Reply::BasePages {
                pages: vec![(0, vec![1; 16]), (5, vec![2; 16])],
                done: false,
            },
            Reply::BaseWorm {
                bytes: vec![4; 64],
                done: true,
            },
            Reply::ReplicaStatusInfo {
                serving: true,
                applied_lsn: 88,
                received_lsn: 89,
                source_durable_lsn: 90,
                lag_records: 2,
                ship_lag_records: 1,
                lag_ms: 15,
            },
            Reply::Promoted { epoch: 9 },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for (i, req) in all_requests().into_iter().enumerate() {
            let id = 1000 + i as u64;
            let frame = encode_request(id, &req);
            let mut dec = FrameDecoder::new();
            dec.feed(&frame);
            let body = dec.next_frame().unwrap().unwrap();
            let (got_id, got) = parse_request(&body).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(got, req);
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn every_reply_round_trips() {
        for (i, reply) in all_replies().into_iter().enumerate() {
            let id = 2000 + i as u64;
            let frame = encode_reply(id, &reply);
            let mut dec = FrameDecoder::new();
            dec.feed(&frame);
            let body = dec.next_frame().unwrap().unwrap();
            let (got_id, got) = parse_reply(&body).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(got, reply);
        }
    }

    #[test]
    fn pipelined_frames_come_out_in_order() {
        let mut wire = Vec::new();
        for (i, req) in all_requests().into_iter().enumerate() {
            wire.extend_from_slice(&encode_request(i as u64, &req));
        }
        let mut dec = FrameDecoder::new();
        // Feed one byte at a time: torn frames at every boundary.
        let mut seen = 0u64;
        for byte in wire {
            dec.feed(&[byte]);
            while let Some(body) = dec.next_frame().unwrap() {
                let (id, _) = parse_request(&body).unwrap();
                assert_eq!(id, seen);
                seen += 1;
            }
        }
        assert_eq!(seen as usize, all_requests().len());
    }

    #[test]
    fn oversized_and_undersized_prefixes_are_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(&((MAX_FRAME_BODY as u32 + 1).to_le_bytes()));
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversized { .. })
        ));

        let mut dec = FrameDecoder::new();
        dec.feed(&8u32.to_le_bytes()); // below MIN_FRAME_BODY
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut frame = encode_request(1, &Request::Ping);
        frame.push(0xEE);
        // Patch the header (length and checksum) so framing is intact and
        // only the payload parse can object to the junk byte.
        let body_len = (frame.len() - 8) as u32;
        frame[..4].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&frame[8..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let body = dec.next_frame().unwrap().unwrap();
        assert!(matches!(
            parse_request(&body),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_verb_is_recoverable_others_are_not() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u8(200);
        let err = parse_request(w.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::UnknownVerb(200)));
        assert!(err.recoverable());
        assert_eq!(err.wire_code(), CODE_UNKNOWN_VERB);
        assert!(!FrameError::Malformed("x".into()).recoverable());
        assert!(!FrameError::Oversized { declared: 0 }.recoverable());
        assert!(!FrameError::BadChecksum {
            declared: 0,
            actual: 1
        }
        .recoverable());
    }

    #[test]
    fn corrupted_body_fails_the_checksum() {
        let mut frame = encode_request(7, &Request::Ping);
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    /// The chaos proxy's duplicate-partial fault replays a prefix of a
    /// chunk before the chunk itself. Without the checksum this stream
    /// occasionally re-parsed as a *valid* `Put` whose value was a window
    /// of wire bytes — and the server durably committed it. The decoder
    /// must reject the desynchronized stream instead.
    #[test]
    fn duplicated_prefix_cannot_produce_a_clean_frame() {
        let frame = encode_request(
            1,
            &Request::Put {
                key: Key::from_u64(18),
                value: b"fault=duplicate-partial seed=1 i=18".to_vec(),
            },
        );
        // Every possible duplicated prefix of the frame, spliced the way
        // the proxy does it: prefix then the full frame.
        for cut in 1..frame.len() {
            let mut wire = Vec::new();
            wire.extend_from_slice(&frame[..cut]);
            wire.extend_from_slice(&frame);
            let mut dec = FrameDecoder::new();
            dec.feed(&wire);
            // The decoder either errors (desync detected) or yields only
            // bodies that re-parse as the original request — never a
            // mutated one.
            loop {
                match dec.next_frame() {
                    Err(_) => break,
                    Ok(None) => break,
                    Ok(Some(body)) => match parse_request(&body) {
                        Ok((id, req)) => {
                            assert_eq!(id, 1, "cut={cut}: resynced onto a mutated id");
                            assert!(
                                matches!(&req, Request::Put { key, value }
                                    if *key == Key::from_u64(18)
                                        && value == b"fault=duplicate-partial seed=1 i=18"),
                                "cut={cut}: resynced onto a mutated request {req:?}"
                            );
                        }
                        Err(_) => break,
                    },
                }
            }
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Frames written by the commit before the CRC kernel changed (PR 13,
    /// byte-at-a-time table), pinned as hex: they must still verify and
    /// decode, and today's encoder must still produce exactly them — the
    /// wire format did not move.
    #[test]
    fn golden_frames_from_the_parent_commit_decode_and_re_encode() {
        let req = Request::Put {
            key: Key::from_u64(0x0102_0304_0506_0708),
            value: b"golden value, 23 bytes!".to_vec(),
        };
        let req_frame = unhex(
            "30000000dd7b155a07000000000000000108000000010203040506070817000000\
             676f6c64656e2076616c75652c20323320627974657321",
        );
        let reply = Reply::Rows {
            rows: vec![
                (Key::from_u64(1), b"alpha".to_vec()),
                (Key::from("k2"), Vec::new()),
                (Key::from_u64(u64::MAX), vec![0xEE; 19]),
            ],
        };
        let reply_frame = unhex(
            "4f000000fd9119b90900000000000000030300000008000000000000000000000105\
             000000616c706861020000006b320000000008000000ffffffffffffffff13000000\
             eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee",
        );

        let mut dec = FrameDecoder::new();
        dec.feed(&req_frame);
        dec.feed(&reply_frame);
        let body = dec.next_frame().unwrap().unwrap();
        assert_eq!(parse_request(&body).unwrap(), (7, req.clone()));
        let body = dec.next_frame().unwrap().unwrap();
        assert_eq!(parse_reply(&body).unwrap(), (9, reply.clone()));
        assert_eq!(dec.buffered(), 0);

        assert_eq!(encode_request(7, &req), req_frame);
        assert_eq!(encode_reply(9, &reply), reply_frame);
    }

    /// A request body of exactly the limit frames as `encode_request`
    /// frames it; one byte more is refused with its length, unframed.
    #[test]
    fn a_request_past_the_limit_is_refused_before_framing() {
        let req = Request::Put {
            key: Key::from_u64(3),
            value: vec![7; 100],
        };
        let whole = encode_request(5, &req);
        let body_len = whole.len() - 8;
        assert_eq!(encode_request_within(5, &req, body_len), Ok(whole));
        assert_eq!(encode_request_within(5, &req, body_len - 1), Err(body_len));
    }

    /// The limit is on the *body* (the header is 8 bytes and not counted):
    /// a body of exactly the limit is legal, one byte more is answered
    /// with `oversized` on the same id — never a panic, never an
    /// unframeable reply.
    #[test]
    fn a_reply_past_the_limit_becomes_an_oversized_error() {
        let reply = Reply::Rows {
            rows: (0..8u64).map(|i| (Key::from_u64(i), vec![7; 40])).collect(),
        };
        let whole = encode_reply(5, &reply);
        let body_len = whole.len() - 8;
        assert_eq!(encode_reply_within(5, &reply, body_len), whole);

        let refused = encode_reply_within(5, &reply, body_len - 1);
        let mut dec = FrameDecoder::new();
        dec.feed(&refused);
        let body = dec.next_frame().unwrap().unwrap();
        match parse_reply(&body).unwrap() {
            (5, Reply::Error { code, message }) => {
                assert_eq!(code, CODE_OVERSIZED);
                assert!(message.contains(&body_len.to_string()), "{message}");
            }
            other => panic!("expected an oversized error on id 5, got {other:?}"),
        }
    }
}
