//! [`EngineHandle`] — the one object-safe surface an engine serves
//! through, and the *definition* of each engine verb.
//!
//! One type implements it: [`ShardedTsb`](crate::ShardedTsb), a primary
//! (one shard is the unsharded case) or a replica fed by WAL shipping,
//! whose role is [`EngineHandle::role`]. Each verb's body lives in the
//! trait impl next to the type (no inherent twin to forward to), so the
//! server dispatch loop, the workload drivers, and the oracle-equivalence
//! tests are written once against *an engine* and reach the real code in
//! one hop.
//!
//! Design notes:
//! * **Object-safe by construction**: keys are concrete [`Key`] values
//!   (callers convert once at the edge), so `Arc<dyn EngineHandle>` works
//!   as a server/driver field.
//! * **A durability position is an [`Lsn`] on the engine's one log**:
//!   every shard appends to it, so the deferred-ack plumbing
//!   (`insert_deferred` → `wait_durable`) needs no shard, and a caller
//!   holding several positions waits once, on the newest.
//! * **Blocking writes are written once**: `insert`, `delete` and
//!   `commit_txn` are provided methods — the deferred verb, then
//!   `wait_durable` — so a replica's `ReadOnly` answer comes for free.
//! * **Write verbs are fallible everywhere**, even those infallible on a
//!   concrete engine (`begin_txn`), because a replica answers every one
//!   of them with [`TsbError::ReadOnly`] — the single error code the
//!   wire protocol surfaces so clients know to redirect to the primary.
//! * **Replication is part of the surface**: [`EngineHandle::role`],
//!   [`EngineHandle::epoch`], [`EngineHandle::replica_status`] and
//!   [`EngineHandle::replication_source`] let the server expose
//!   role/status verbs and serve `subscribe` without downcasting. The
//!   promotion epoch is the engine's: read from its directory on open,
//!   adopted from a base it installs, bumped by its promotion.

use tsb_common::{
    Key, KeyRange, TimeRange, Timestamp, TsbConfig, TsbError, TsbResult, TxnId, Version,
};
use tsb_storage::{IoSnapshot, Lsn};

use crate::epoch::INITIAL_EPOCH;
use crate::replica::{ReplicaStatus, ReplicationSource};

/// What an engine is in a replication topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineRole {
    /// Accepts writes; may serve a replication stream.
    Primary,
    /// Read-only; applies a shipped stream. Writes fail with
    /// [`TsbError::ReadOnly`].
    Replica,
}

impl EngineRole {
    /// Stable lowercase name (wire `role` verb, logs, reports).
    pub fn name(self) -> &'static str {
        match self {
            EngineRole::Primary => "primary",
            EngineRole::Replica => "replica",
        }
    }
}

/// The unified engine surface: reads, writes, transactions, durability,
/// and replication introspection. See the module docs for the design
/// rules; see each implementor's `impl EngineHandle` for semantics.
pub trait EngineHandle: Send + Sync {
    /// This engine's replication role.
    fn role(&self) -> EngineRole;

    /// Number of shards; 1 for unsharded engines.
    fn shard_count(&self) -> usize;

    /// The promotion epoch this engine serves at (see [`crate::epoch`]):
    /// echoed in the wire `Role` reply and checked against `Subscribe`.
    fn epoch(&self) -> u64 {
        INITIAL_EPOCH
    }

    // ----- writes ---------------------------------------------------------

    /// Inserts (or updates) `key`, returning the commit timestamp and the
    /// log position to pass to [`Self::wait_durable`] for a durable ack
    /// (`None` when the engine is not durable).
    fn insert_deferred(&self, key: Key, value: Vec<u8>) -> TsbResult<(Timestamp, Option<Lsn>)>;

    /// Logically deletes `key` (non-deletion: history is preserved).
    fn delete_deferred(&self, key: Key) -> TsbResult<(Timestamp, Option<Lsn>)>;

    /// Blocks until `lsn` is durable on the engine's log; a position past
    /// the log's tail is a [`TsbError::config`] error.
    fn wait_durable(&self, lsn: Lsn) -> TsbResult<()>;

    /// [`Self::insert_deferred`], returning only once durable (per the
    /// engine's fsync policy).
    fn insert(&self, key: Key, value: Vec<u8>) -> TsbResult<Timestamp> {
        acked(self, self.insert_deferred(key, value)?)
    }

    /// [`Self::delete_deferred`], returning only once durable.
    fn delete(&self, key: Key) -> TsbResult<Timestamp> {
        acked(self, self.delete_deferred(key)?)
    }

    /// Starts a multi-key transaction.
    fn begin_txn(&self) -> TsbResult<TxnId>;

    /// Adds an insert to `txn` (uncommitted: invisible, timestampless).
    fn txn_insert(&self, txn: TxnId, key: Key, value: Vec<u8>) -> TsbResult<()>;

    /// Adds a logical delete to `txn`.
    fn txn_delete(&self, txn: TxnId, key: Key) -> TsbResult<()>;

    /// Reads `key` as seen by `txn` (its own writes included).
    fn txn_get(&self, txn: TxnId, key: &Key) -> TsbResult<Option<Vec<u8>>>;

    /// Commits `txn`, stamping every write with one commit timestamp.
    fn commit_txn_deferred(&self, txn: TxnId) -> TsbResult<(Timestamp, Option<Lsn>)>;

    /// [`Self::commit_txn_deferred`], returning only once durable.
    fn commit_txn(&self, txn: TxnId) -> TsbResult<Timestamp> {
        acked(self, self.commit_txn_deferred(txn)?)
    }

    /// Aborts `txn`, erasing its uncommitted versions.
    fn abort_txn(&self, txn: TxnId) -> TsbResult<()>;

    /// Flushes and fences the log(s). On a replica: [`TsbError::ReadOnly`]
    /// (a replica never writes fences of its own).
    fn checkpoint(&self) -> TsbResult<()>;

    // ----- reads ----------------------------------------------------------

    /// The newest committed value for `key`.
    fn get_current(&self, key: &Key) -> TsbResult<Option<Vec<u8>>>;

    /// The value for `key` as of `ts`.
    fn get_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Vec<u8>>>;

    /// Range scan as of `ts`.
    fn scan_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>>;

    /// Range scan over current state.
    fn scan_current(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>>;

    /// The versions of `key` committed inside `window`.
    fn history_between(&self, key: &Key, window: TimeRange) -> TsbResult<Vec<Version>>;

    /// The newest commit timestamp reads may observe (the install fence;
    /// on a replica, the applied fence).
    fn last_installed(&self) -> Timestamp;

    /// Newest commit known durable (`None` when not durable / nothing
    /// committed yet).
    fn last_durable_commit(&self) -> Option<Timestamp>;

    /// The newest durable position in this engine's log, on the LSN axis
    /// replication ships — the one log every shard shares. 0 when there is
    /// no durable log to speak of (in-memory engines). On a replica: the
    /// applied fence LSN — the prefix a promotion right now would preserve.
    ///
    /// This is the number promotion tooling must compare a replica's
    /// `applied_lsn` against: the replica's own lag counters are relative
    /// to the durable watermark it *last polled*, so they can read zero
    /// while the primary already holds newer durable records that never
    /// shipped.
    fn durable_lsn(&self) -> Lsn {
        0
    }

    // ----- introspection --------------------------------------------------

    /// Runs the structural invariant checker.
    fn verify(&self) -> TsbResult<()>;

    /// The engine configuration.
    fn config(&self) -> &TsbConfig;

    /// A snapshot of the engine's I/O counters.
    fn io_snapshot(&self) -> IoSnapshot;

    /// Replication progress when this engine is a replica; `None` on a
    /// primary.
    fn replica_status(&self) -> Option<ReplicaStatus> {
        None
    }

    /// A replication source for streaming this engine's log to replicas.
    /// Errors unless this is a durable primary.
    fn replication_source(&self) -> TsbResult<ReplicationSource> {
        Err(TsbError::config(
            "this engine cannot serve a replication stream",
        ))
    }
}

/// The blocking half of a deferred write: parks on its durability position
/// (if it has one), then yields the commit timestamp.
fn acked<E: EngineHandle + ?Sized>(
    db: &E,
    (ts, pos): (Timestamp, Option<Lsn>),
) -> TsbResult<Timestamp> {
    if let Some(pos) = pos {
        db.wait_durable(pos)?;
    }
    Ok(ts)
}
