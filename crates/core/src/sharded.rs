//! N-way keyspace partitioning under one global commit clock.
//!
//! [`ShardedTsb`] splits the keyspace across `N` independent
//! [`ConcurrentTsb`] shards by a stable hash of the key. Each shard owns a
//! complete single-writer engine — its own WAL, group-commit pipeline,
//! node cache, and checkpoint cadence — so `N` writers touching `N`
//! different shards append, fsync, and install completely independently:
//! the per-engine writer lock and commit fsync stop being a global
//! serialization point. What stays global is *time*: every shard stamps
//! its commits from one shared [`LogicalClock`], so commit timestamps form
//! a single total order across the whole keyspace and a snapshot pinned at
//! timestamp `T` means the same instant on every shard.
//!
//! ## Routing
//!
//! A key routes to shard `fnv1a64(key_bytes) % N`. The hash is a pure
//! function of the key bytes and the shard count — no routing table, no
//! rebalancing state — so the partition is trivially stable across reopen
//! as long as `N` is stable. `N` is therefore persisted in a
//! `shards.manifest` file at create time, and reopening with a different
//! `--shards` value is a hard error rather than a silent re-partition
//! (which would strand every key on the wrong shard).
//!
//! ## Snapshot consistency
//!
//! [`ShardedTsb::begin_snapshot`] pins the newest ticked timestamp `T` and
//! then raises every shard's install fence to at least `T`
//! ([`ConcurrentTsb`]'s `pin_fence_at_least`). Raising the fence takes the
//! shard's writer lock when the shard is behind — and because commit
//! timestamps are ticked *under* that lock, holding it proves no mutation
//! with a timestamp `≤ T` is still mid-install on that shard. After the
//! pin, reads at `T` are stable on every shard simultaneously: the
//! snapshot can never observe shard A after a commit and shard B before
//! it.
//!
//! ## Cross-shard transactions: the two-phase fence
//!
//! A transaction whose writes all land on one shard commits exactly like a
//! plain single-engine transaction — one commit record, zero cross-shard
//! coordination. A transaction straddling shards commits under a
//! **two-phase fence** (presumed abort):
//!
//! ```text
//!  lock writers of every participant (ascending shard order)
//!  T = clock.tick()
//!  round 1:  each participant logs Prepare{T, txn, coordinator,
//!            participants}; all P are forced, side by side
//!  round 2:  the coordinator (lowest participant index) logs
//!            Decision{T, participants}; it is forced — a round of one
//!  round 3:  each participant stamps its writes committed at T and logs
//!            its local Commit{T}; all P are forced, side by side; then
//!            every participant advances its fence to T
//!  unlock
//! ```
//!
//! A round appends its records, asks every log involved for its tail, and
//! only then parks on each: the `2P + 1` forces are the same as if issued
//! one after another, but a round's forces run on the shards' own
//! committer threads at once, so the protocol costs three rounds of
//! device latency, not `2P + 1`. Overlapping *inside* a round is safe
//! because the protocol's order constraints are all *between* rounds — no
//! decision before every prepare is durable, no participant commit before
//! the decision is durable — and no round starts until the one before it
//! has parked on every force. Within a round the records are unordered by
//! design: any subset of prepares may survive a crash (presumed abort
//! covers them), and any subset of commits may (the durable decision
//! rolls the rest forward).
//!
//! Because every participant's writer lock is held for the whole protocol,
//! no checkpoint can reset a participant's WAL mid-protocol and no
//! concurrent snapshot can pin between round 3's stamps (the pin would
//! block on a participant's writer lock). Recovery resolves a surviving
//! Prepare whose transaction is still unstamped against the
//! *coordinator's* log: Decision present → roll forward (commit at `T`);
//! absent → presumed abort. The decision record is forced *before* any
//! participant commit is appended, so a participant's commit can never be
//! durable while the decision that justifies it is not — a crash at any
//! instant either aborts the transaction on every shard or commits it on
//! every shard, never a mix.
//! During a sharded reopen, shards are finished (checkpointed) in
//! **descending** index order: a coordinator has the lowest index among
//! its participants, so its decision record outlives every participant's
//! unresolved prepare even if the reopen itself crashes part-way.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_common::{
    Key, KeyRange, LogicalClock, TimeRange, Timestamp, TsbConfig, TsbError, TsbResult, TxnId,
    Version,
};
use tsb_storage::{sync_parent_dir, CrashPoint, FaultInjector, IoSnapshot, Lsn};

use crate::concurrent::ConcurrentTsb;
use crate::engine::{EngineHandle, EngineRole};
use crate::replica::ReplicationSource;
use crate::tree::recover::{DurableFiles, StagedRecovery};
use crate::tree::TsbTree;

/// Name of the shard-count manifest inside a sharded data directory.
const MANIFEST_FILE: &str = "shards.manifest";
/// First line of the manifest; bumping the layout bumps the version.
const MANIFEST_MAGIC: &str = "tsb-sharded v1";
/// Upper bound on the shard count — far above any sensible value, it only
/// guards against a corrupt manifest or a typo'd `--shards`.
const MAX_SHARDS: usize = 256;

/// Identifies a deferred durability obligation on one shard: the shard
/// index and the WAL LSN to pass to [`EngineHandle::wait_durable`] before
/// acknowledging the write.
pub type ShardLsn = (usize, Lsn);

/// FNV-1a 64-bit over the key bytes: the routing hash. Stable by
/// construction — it depends on nothing but the bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A cross-shard transaction's bookkeeping: which participant shards it
/// touched and the shard-local transaction id begun on each.
struct GlobalTxnTable {
    /// Next global transaction id to hand out. Global ids live in their
    /// own namespace — they never reach a shard's transaction table.
    next: u64,
    /// Global id → per-shard local transaction id (lazily begun on the
    /// first write routed to that shard).
    active: HashMap<TxnId, Vec<Option<TxnId>>>,
}

struct ShardedInner {
    shards: Vec<ConcurrentTsb>,
    clock: Arc<LogicalClock>,
    txns: Mutex<GlobalTxnTable>,
    /// Injector consulted at the `TwoPcAck` window (after the decision is
    /// durable, before any participant has stamped its local commit).
    /// The per-shard write sites consult the same injector through each
    /// shard's devices; see [`ShardedTsb::set_fault_injector`].
    fault: Mutex<Option<Arc<FaultInjector>>>,
}

/// An `N`-shard TSB-tree engine under one global commit clock. Cheaply
/// cloneable handle; clones share the shards. See the [module docs](self)
/// for the routing, snapshot, and two-phase-fence protocols.
#[derive(Clone)]
pub struct ShardedTsb {
    inner: Arc<ShardedInner>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedTsb>();
    assert_send_sync::<ShardedSnapshot>();
};

impl std::fmt::Debug for ShardedTsb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTsb")
            .field("shards", &self.inner.shards.len())
            .field("now", &self.inner.clock.now())
            .finish()
    }
}

impl ShardedTsb {
    // ----- construction ---------------------------------------------------

    fn from_shards(shards: Vec<ConcurrentTsb>, clock: Arc<LogicalClock>) -> Self {
        debug_assert!(!shards.is_empty());
        ShardedTsb {
            inner: Arc::new(ShardedInner {
                shards,
                clock,
                txns: Mutex::new(GlobalTxnTable {
                    next: 0,
                    active: HashMap::new(),
                }),
                fault: Mutex::new(None),
            }),
        }
    }

    /// A fresh sharded engine over in-memory stores: `shards` independent
    /// engines stamping from one clock. No durability. Reached through
    /// [`crate::TsbOptions::open`].
    pub(crate) fn open_in_memory(shards: usize, cfg: TsbConfig) -> TsbResult<Self> {
        check_shard_count(shards)?;
        let clock = Arc::new(LogicalClock::new());
        let mut engines = Vec::with_capacity(shards);
        for _ in 0..shards {
            let tree = TsbTree::new_in_memory_with_clock(cfg.clone(), Arc::clone(&clock))?;
            engines.push(ConcurrentTsb::from_tree(tree));
        }
        Ok(Self::from_shards(engines, clock))
    }

    /// Opens (or creates) a durable sharded engine rooted at `dir`.
    /// Reached through [`crate::TsbOptions::open`].
    ///
    /// * `shards == 1` with no manifest uses the flat single-engine layout
    ///   (`current.pages` / `history.worm` / `redo.wal` directly in `dir`),
    ///   so a 1-shard engine is byte-identical on disk to a bare tree.
    /// * `shards > 1` writes a `shards.manifest` and lays each shard out in
    ///   its own `shard-NNN/` subdirectory with a completely independent
    ///   WAL, committer thread, and checkpoint cadence.
    /// * Reopening with a shard count that contradicts the manifest (or a
    ///   flat directory with `shards > 1`) is a hard error: the hash
    ///   partition is only stable while `N` is.
    ///
    /// Every shard count runs the same staged recovery: reopen re-derives
    /// the global clock as the maximum across every shard's recovered
    /// clock (each staged recovery only ever *advances* the shared clock),
    /// and resolves in-doubt two-phase prepares against the coordinator
    /// shard's decision record before any shard is checkpointed — see the
    /// [module docs](self).
    pub(crate) fn open_durable(dir: &Path, shards: usize, cfg: TsbConfig) -> TsbResult<Self> {
        check_shard_count(shards)?;
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join(MANIFEST_FILE);
        let persisted = match read_manifest(&manifest)? {
            Some(n) if n != shards => {
                return Err(TsbError::config(format!(
                    "directory {} was created with {n} shards; reopening with \
                     {shards} would re-partition every key onto the wrong shard",
                    dir.display()
                )));
            }
            Some(_) => true,
            None => false,
        };
        if !persisted && shards != 1 {
            if DurableFiles::has_log(dir) {
                return Err(TsbError::config(format!(
                    "directory {} holds a flat single-shard database; reopening \
                     with {shards} shards would re-partition it",
                    dir.display()
                )));
            }
            write_manifest(&manifest, shards)?;
        }
        // One shard without a manifest lives directly in `dir`.
        let flat = shards == 1 && !persisted;

        let clock = Arc::new(LogicalClock::new());
        let mut staged: Vec<StagedRecovery> = Vec::with_capacity(shards);
        for i in 0..shards {
            let shard_dir = if flat {
                dir.to_path_buf()
            } else {
                dir.join(format!("shard-{i:03}"))
            };
            staged.push(TsbTree::open_durable_staged(
                shard_dir,
                cfg.clone(),
                Arc::clone(&clock),
            )?);
        }
        // Resolve every shard's in-doubt prepares against the coordinator
        // shard's decision log *before* finishing (checkpointing) any
        // shard: a finish resets that shard's WAL, erasing the records the
        // other shards' resolutions depend on. Decision present → roll
        // forward; absent → presumed abort, which `finish`'s purge carries
        // out by erasing whatever was not rolled forward.
        let mut decided: Vec<(usize, TxnId, Timestamp)> = Vec::new();
        for (i, shard) in staged.iter().enumerate() {
            for p in shard.in_doubt() {
                let coordinator = staged.get(p.coordinator as usize);
                if coordinator.is_some_and(|c| c.has_decision(p.ts)) {
                    decided.push((i, p.txn, p.ts));
                }
            }
        }
        for (i, txn, ts) in decided {
            staged[i].commit_in_doubt(txn, ts)?;
        }
        // Finish in descending shard order so every coordinator (lowest
        // index among its participants) is checkpointed last: if the
        // reopen crashes part-way, any participant still holding an
        // unresolved prepare can still find the decision on its
        // coordinator at the next reopen.
        let mut engines = Vec::with_capacity(shards);
        while let Some(shard) = staged.pop() {
            engines.push(ConcurrentTsb::from_tree(shard.finish()?));
        }
        engines.reverse();
        Ok(Self::from_shards(engines, clock))
    }

    // ----- routing --------------------------------------------------------

    /// The shard `key` routes to: `fnv1a64(key_bytes) % N`. A pure
    /// function of the key bytes and the shard count — every key maps to
    /// exactly one shard, identically before and after reopen.
    pub fn shard_of(&self, key: &Key) -> usize {
        shard_of(key, self.inner.shards.len())
    }

    /// The per-shard engines, in shard order. Reads through a shard handle
    /// are safe (shards are complete engines); writes through one bypass
    /// only the routing, not the clock — but belong in tests and
    /// measurement harnesses, not application code.
    pub fn shards(&self) -> &[ConcurrentTsb] {
        &self.inner.shards
    }

    fn shard_for(&self, key: &Key) -> &ConcurrentTsb {
        &self.inner.shards[self.shard_of(key)]
    }

    // ----- transaction plumbing -------------------------------------------

    /// The shard-local transaction on `shard`, begun on first use.
    fn local_txn(&self, txn: TxnId, shard: usize) -> TsbResult<TxnId> {
        let mut t = self.inner.txns.lock();
        let slots = t.active.get_mut(&txn).ok_or_else(|| unknown_txn(txn))?;
        if let Some(local) = slots[shard] {
            return Ok(local);
        }
        let local = self.inner.shards[shard].begin_txn();
        slots[shard] = Some(local);
        Ok(local)
    }

    /// Takes a transaction's participant list out of the table: the
    /// `(shard, local txn)` pairs in ascending shard order.
    fn take_participants(&self, txn: TxnId) -> TsbResult<Vec<(usize, TxnId)>> {
        let slots = self.inner.txns.lock().active.remove(&txn);
        Ok(slots
            .ok_or_else(|| unknown_txn(txn))?
            .into_iter()
            .enumerate()
            .filter_map(|(i, local)| local.map(|l| (i, l)))
            .collect())
    }

    /// The two-phase fence. `parts` is ascending by shard index; locks are
    /// acquired in that order (a global order, so concurrent cross-shard
    /// commits cannot deadlock), and the lowest participant index is the
    /// coordinator.
    fn commit_cross_shard(&self, parts: &[(usize, TxnId)]) -> TsbResult<Timestamp> {
        let shards = &self.inner.shards;
        let _guards: Vec<_> = parts
            .iter()
            .map(|(i, _)| shards[*i].lock_writer())
            .collect();
        let ts = self.inner.clock.tick();
        let participant_ids: Vec<u32> = parts.iter().map(|(i, _)| *i as u32).collect();
        let coordinator = participant_ids[0];
        let participants = || parts.iter().map(|(i, _)| &shards[*i]);
        // Round 1: a prepare on every participant, forced side by side.
        // After this round the transaction's writes are replayable
        // everywhere, but commit is still revocable (presumed abort).
        for (i, local) in parts {
            shards[*i]
                .tree()
                .wal_prepare(ts, *local, coordinator, &participant_ids)?;
        }
        force_tails(participants())?;
        // Round 2, a round of one: the decision, forced on the
        // coordinator. This is the commit point — from here, recovery
        // rolls forward.
        let coordinator_shard = &shards[parts[0].0];
        coordinator_shard
            .tree()
            .wal_decision(ts, &participant_ids)?;
        force_tails([coordinator_shard])?;
        // The in-doubt window: decision durable, no participant stamped.
        let injector = self.inner.fault.lock().clone();
        if let Some(inj) = &injector {
            inj.check(CrashPoint::TwoPcAck)?;
        }
        // Round 3: stamp each participant and append its local commit,
        // then force them side by side while still holding every lock.
        // Forcing before release closes the window where a participant's
        // checkpoint could erase its own prepare (and the coordinator's
        // decision) while another participant's commit is still volatile.
        for (i, local) in parts {
            let tree = shards[*i].tree();
            tree.commit_txn_at_shared(*local, ts)?;
            // The fence's policy wait is irrelevant: the round's force
            // settles durability for this commit under every policy.
            let _ = tree.take_pending_durable_wait();
        }
        force_tails(participants())?;
        for shard in participants() {
            shard.advance_fence(ts);
        }
        Ok(ts)
    }

    // ----- reads beyond the engine verbs ----------------------------------

    /// The full version record governing `(key, ts)`.
    pub fn get_version_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Version>> {
        self.shard_for(key).get_version_as_of(key, ts)
    }

    /// Every committed version of `key`, oldest first.
    pub fn versions(&self, key: &Key) -> TsbResult<Vec<Version>> {
        self.shard_for(key).versions(key)
    }

    /// A full-database snapshot as of `ts`, merged in key order.
    pub fn snapshot_at(&self, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.merge_rows(|s| s.snapshot_at(ts))
    }

    /// Number of keys alive in `range` as of `ts`, summed across shards.
    pub fn count_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<usize> {
        let mut n = 0;
        for s in &self.inner.shards {
            n += s.count_as_of(range, ts)?;
        }
        Ok(n)
    }

    /// Runs a per-shard row query and merges the results in key order (the
    /// hash partition makes per-shard key sets disjoint, so a sort of the
    /// concatenation is a correct merge).
    fn merge_rows(
        &self,
        f: impl Fn(&ConcurrentTsb) -> TsbResult<Vec<(Key, Vec<u8>)>>,
    ) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        let mut out = Vec::new();
        for s in &self.inner.shards {
            out.extend(f(s)?);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    // ----- snapshots and the fence ----------------------------------------

    /// Begins a read-only transaction pinned at one global fence
    /// timestamp, consistent across every shard: the newest ticked commit
    /// timestamp `T`, with every shard's install fence raised to at least
    /// `T` before the snapshot is handed out (see the [module docs](self)).
    /// Includes every write acknowledged before this call, on any shard.
    pub fn begin_snapshot(&self) -> ShardedSnapshot {
        let ts = self.inner.clock.now().prev();
        self.pin_all(ts);
        ShardedSnapshot {
            db: self.clone(),
            ts,
        }
    }

    fn pin_all(&self, ts: Timestamp) {
        for s in &self.inner.shards {
            s.pin_fence_at_least(ts);
        }
    }

    // ----- passthroughs ---------------------------------------------------

    /// The current global logical time (next commit timestamp on any
    /// shard).
    pub fn now(&self) -> Timestamp {
        self.inner.clock.now()
    }

    /// Wires `injector` into every write site of every shard — all three
    /// devices per shard plus the cross-shard `TwoPcAck` window — so one
    /// armed trigger can crash the engine anywhere in the sharded write or
    /// two-phase-fence path.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        for s in &self.inner.shards {
            s.tree().set_fault_injector(&injector);
        }
        *self.inner.fault.lock() = Some(injector);
    }
}

/// The engine verbs, defined here and nowhere else: a key's verbs run on
/// its home shard, range verbs merge across shards, and the durability
/// positions handed out name the shard whose log holds the commit.
impl EngineHandle for ShardedTsb {
    fn role(&self) -> EngineRole {
        EngineRole::Primary
    }

    fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    // ----- single-key writes (zero cross-shard coordination) --------------

    /// Inserts a new version of `key` on its home shard, stamped from the
    /// global clock. A pipelined caller batches writes, tracks the maximum
    /// LSN *per shard*, and waits once per shard; the first of those
    /// waits asks every shard's log, so the batch's forces overlap.
    fn insert_deferred(
        &self,
        key: Key,
        value: Vec<u8>,
    ) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        let shard = self.shard_of(&key);
        let (ts, lsn) = self.inner.shards[shard].insert_deferred(key, value)?;
        Ok((ts, lsn.map(|l| (shard, l))))
    }

    fn delete_deferred(&self, key: Key) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        let shard = self.shard_of(&key);
        let (ts, lsn) = self.inner.shards[shard].delete_deferred(key)?;
        Ok((ts, lsn.map(|l| (shard, l))))
    }

    /// Parks until `shard`'s durable-LSN watermark covers `lsn`;
    /// watermarks are per-shard and independent. Before parking it asks
    /// *every* shard's log for its appended tail: the batch that ends
    /// here placed commits on several logs and will wait on each in turn,
    /// so the committer threads force them side by side instead of one
    /// per wait. `ShardLsn` is a plain tuple a caller may carry over from
    /// an engine with more shards (or another log), so both halves are
    /// checked: a shard this engine lacks, or an LSN its log never handed
    /// out, is a config error and leaves the engine usable.
    fn wait_durable(&self, (shard, lsn): ShardLsn) -> TsbResult<()> {
        let shards = &self.inner.shards;
        let db = shards.get(shard).ok_or_else(|| {
            TsbError::config(format!(
                "durability position names shard {shard}, but this engine has {}",
                shards.len()
            ))
        })?;
        for s in shards {
            s.tree().request_durable_tail();
        }
        db.wait_durable(lsn)
    }

    // ----- transactions ---------------------------------------------------

    /// Begins a transaction that may write keys on any shard. The returned
    /// id lives in the sharded engine's own namespace; shard-local
    /// transactions are begun lazily as writes route to shards.
    fn begin_txn(&self) -> TsbResult<TxnId> {
        let mut t = self.inner.txns.lock();
        t.next += 1;
        let id = TxnId::new(t.next);
        let slots = vec![None; self.inner.shards.len()];
        t.active.insert(id, slots);
        Ok(id)
    }

    fn txn_insert(&self, txn: TxnId, key: Key, value: Vec<u8>) -> TsbResult<()> {
        let shard = self.shard_of(&key);
        let local = self.local_txn(txn, shard)?;
        self.inner.shards[shard].txn_insert(local, key, value)
    }

    fn txn_delete(&self, txn: TxnId, key: Key) -> TsbResult<()> {
        let shard = self.shard_of(&key);
        let local = self.local_txn(txn, shard)?;
        self.inner.shards[shard].txn_delete(local, key)
    }

    /// The transaction's own pending write when it touched the key's
    /// shard, the committed current value otherwise.
    fn txn_get(&self, txn: TxnId, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        let shard = self.shard_of(key);
        let local = {
            let t = self.inner.txns.lock();
            t.active.get(&txn).ok_or_else(|| unknown_txn(txn))?[shard]
        };
        match local {
            Some(local) => self.inner.shards[shard].txn_get(local, key),
            None => self.inner.shards[shard].get_current(key),
        }
    }

    /// All of `txn`'s writes across all shards become visible atomically
    /// at the returned timestamp. Single-shard transactions commit with
    /// zero coordination; cross-shard ones run the two-phase fence (see
    /// the [module docs](self)), whose last round forces the commit on
    /// every participant, so they return no position to wait on.
    fn commit_txn_deferred(&self, txn: TxnId) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        let parts = self.take_participants(txn)?;
        match parts.as_slice() {
            // A transaction that never wrote: tick so the commit still has
            // a unique place in the global order, with nothing to install.
            [] => Ok((self.inner.clock.tick(), None)),
            [(shard, local)] => {
                let (ts, lsn) = self.inner.shards[*shard].commit_txn_deferred(*local)?;
                Ok((ts, lsn.map(|l| (*shard, l))))
            }
            _ => self.commit_cross_shard(&parts).map(|ts| (ts, None)),
        }
    }

    fn abort_txn(&self, txn: TxnId) -> TsbResult<()> {
        for (shard, local) in self.take_participants(txn)? {
            self.inner.shards[shard].abort_txn(local)?;
        }
        Ok(())
    }

    /// Each shard fences its own redo log independently.
    fn checkpoint(&self) -> TsbResult<()> {
        self.inner.shards.iter().try_for_each(|s| s.checkpoint())
    }

    // ----- reads ----------------------------------------------------------

    fn get_current(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.shard_for(key).get_current(key)
    }

    fn get_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Vec<u8>>> {
        self.shard_for(key).get_as_of(key, ts)
    }

    fn scan_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.merge_rows(|s| s.scan_as_of(range, ts))
    }

    fn scan_current(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.merge_rows(|s| s.scan_current(range))
    }

    fn history_between(&self, key: &Key, window: TimeRange) -> TsbResult<Vec<Version>> {
        self.shard_for(key).history_between(key, window)
    }

    /// The newest timestamp at which *every* shard is known fully
    /// installed (the minimum of the per-shard install fences). Reads
    /// pinned at or before it are stable on all shards without taking any
    /// lock.
    fn last_installed(&self) -> Timestamp {
        let fences = self.inner.shards.iter().map(|s| s.last_installed());
        fences.min().unwrap_or(Timestamp::ZERO)
    }

    /// The newest durable commit across all shards (`None` if no shard was
    /// produced by recovery).
    fn last_durable_commit(&self) -> Option<Timestamp> {
        let commits = self.inner.shards.iter().map(|s| s.last_durable_commit());
        commits.flatten().max()
    }

    fn durable_lsn(&self) -> Lsn {
        // Each shard numbers its own log, so a cross-shard maximum would
        // compare unrelated axes. Promotion tooling only ever reads this
        // off a single-shard primary (the only configuration that can
        // feed a replica — see `replication_source`); report 0 otherwise.
        match self.inner.shards.as_slice() {
            [only] => only.durable_lsn(),
            _ => 0,
        }
    }

    // ----- introspection --------------------------------------------------

    fn verify(&self) -> TsbResult<()> {
        self.inner.shards.iter().try_for_each(|s| s.verify())
    }

    /// Identical on every shard.
    fn config(&self) -> &TsbConfig {
        self.inner.shards[0].config()
    }

    /// The sum of every shard's [`tsb_storage::IoStats`] snapshot.
    fn io_snapshot(&self) -> IoSnapshot {
        let mut merged = self.inner.shards[0].io_stats().snapshot();
        for s in &self.inner.shards[1..] {
            merged = merged.merge(&s.io_stats().snapshot());
        }
        merged
    }

    fn replication_source(&self) -> TsbResult<ReplicationSource> {
        // Replication streams one log; a multi-shard engine has N plus
        // two-phase fences across them, which the replica apply protocol
        // deliberately rejects.
        match self.inner.shards.as_slice() {
            [only] => ReplicationSource::new(only),
            _ => Err(TsbError::config(
                "replication requires a single-shard primary (run with --shards 1)",
            )),
        }
    }
}

/// One round of the two-phase fence: asks every given shard's log for
/// its appended tail, then parks on each — the forces overlap across the
/// shards' committer threads instead of queueing on this one. Returns
/// once all of them are durable; the caller holds the shards' writer
/// locks, so each tail is exactly the record the round appended.
fn force_tails<'a>(shards: impl IntoIterator<Item = &'a ConcurrentTsb>) -> TsbResult<()> {
    let asked: Vec<_> = shards
        .into_iter()
        .map(|s| (s, s.tree().request_durable_tail()))
        .collect();
    for (shard, tail) in asked {
        if let Some(lsn) = tail {
            shard.tree().wait_durable_lsn(lsn)?;
        }
    }
    Ok(())
}

fn unknown_txn(txn: TxnId) -> TsbError {
    TsbError::config(format!("unknown transaction {txn:?}"))
}

/// The shard `key` routes to under an `n`-way partition — exposed for
/// tests that need the routing function without an engine.
pub fn shard_of(key: &Key, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    (fnv1a64(key.as_bytes()) % n as u64) as usize
}

fn check_shard_count(shards: usize) -> TsbResult<()> {
    if shards == 0 || shards > MAX_SHARDS {
        return Err(TsbError::config(format!(
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        )));
    }
    Ok(())
}

/// Reads the shard count from a manifest, `None` if the file is absent.
fn read_manifest(path: &Path) -> TsbResult<Option<usize>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut lines = text.lines();
    let magic = lines.next().unwrap_or_default();
    if magic != MANIFEST_MAGIC {
        return Err(TsbError::corruption(format!(
            "unrecognized shard manifest header {magic:?} in {}",
            path.display()
        )));
    }
    let count = lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| {
            TsbError::corruption(format!(
                "shard manifest {} has no shard count",
                path.display()
            ))
        })?;
    if count == 0 || count > MAX_SHARDS {
        return Err(TsbError::corruption(format!(
            "shard manifest {} names an impossible shard count {count}",
            path.display()
        )));
    }
    Ok(Some(count))
}

/// Writes the manifest durably: temp file, fsync, rename, directory
/// fsync — the count must never be lost or torn, or every key would route
/// to the wrong shard. A failure at any step, the directory fsync
/// included, is the caller's error, and the temp file does not outlive it.
fn write_manifest(path: &Path, shards: usize) -> TsbResult<()> {
    let tmp = path.with_extension("tmp");
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        writeln!(f, "{MANIFEST_MAGIC}")?;
        writeln!(f, "shards {shards}")?;
        writeln!(f, "hash fnv1a64")?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// An owning, thread-safe read-only view of the sharded database pinned
/// to one global fence timestamp — every query answers as of the same
/// instant on every shard, no matter how many writes commit concurrently.
#[derive(Clone, Debug)]
pub struct ShardedSnapshot {
    db: ShardedTsb,
    ts: Timestamp,
}

impl ShardedSnapshot {
    /// The snapshot's pinned read timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// Reads a key as of the snapshot time.
    pub fn get(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.db.get_as_of(key, self.ts)
    }

    /// Scans a key range as of the snapshot time, merged in key order.
    pub fn scan(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.db.scan_as_of(range, self.ts)
    }

    /// Dumps the entire database as of the snapshot time.
    pub fn dump(&self) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.db.snapshot_at(self.ts)
    }

    /// Number of keys alive in `range` at the snapshot time.
    pub fn count(&self, range: &KeyRange) -> TsbResult<usize> {
        self.db.count_as_of(range, self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(shards: usize) -> ShardedTsb {
        crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .shards(shards)
            .open()
            .unwrap()
    }

    #[test]
    fn routing_is_a_stable_total_partition() {
        for n in [1usize, 2, 4, 7] {
            for i in 0..500u64 {
                let key = Key::from_u64(i);
                let s = shard_of(&key, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&key, n), "routing must be deterministic");
            }
        }
        // With a few shards every shard receives some keys.
        let n = 4;
        let mut seen = vec![false; n];
        for i in 0..500u64 {
            seen[shard_of(&Key::from_u64(i), n)] = true;
        }
        assert!(seen.iter().all(|s| *s), "a shard received no keys");
    }

    #[test]
    fn timestamps_are_globally_unique_and_monotonic() {
        let db = engine(4);
        let mut last = Timestamp::ZERO;
        for i in 0..200u64 {
            let ts = db.insert(i.into(), format!("v{i}").into_bytes()).unwrap();
            assert!(ts > last, "global commit order must be total");
            last = ts;
        }
        assert_eq!(db.now(), last.next());
    }

    #[test]
    fn reads_route_and_merge() {
        let db = engine(4);
        for i in 0..100u64 {
            db.insert(i.into(), format!("v{i}").into_bytes()).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(
                db.get_current(&Key::from_u64(i)).unwrap().unwrap(),
                format!("v{i}").into_bytes()
            );
        }
        let rows = db.scan_current(&KeyRange::full()).unwrap();
        assert_eq!(rows.len(), 100);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "merged key order");
    }

    #[test]
    fn cross_shard_transactions_commit_atomically() {
        let db = engine(4);
        let txn = db.begin_txn().unwrap();
        for i in 0..16u64 {
            db.txn_insert(txn, i.into(), b"txn".to_vec()).unwrap();
        }
        // Nothing visible before commit, own writes visible inside.
        assert!(db.get_current(&Key::from_u64(3)).unwrap().is_none());
        assert_eq!(db.txn_get(txn, &Key::from_u64(3)).unwrap().unwrap(), b"txn");
        let ts = db.commit_txn(txn).unwrap();
        for i in 0..16u64 {
            let v = db
                .get_version_as_of(&Key::from_u64(i), ts)
                .unwrap()
                .expect("committed");
            assert_eq!(v.state.commit_time(), Some(ts), "one timestamp everywhere");
        }
        db.verify().unwrap();
    }

    #[test]
    fn aborted_cross_shard_transactions_vanish_everywhere() {
        let db = engine(3);
        let txn = db.begin_txn().unwrap();
        for i in 0..12u64 {
            db.txn_insert(txn, i.into(), b"gone".to_vec()).unwrap();
        }
        db.abort_txn(txn).unwrap();
        for i in 0..12u64 {
            assert!(db.get_current(&Key::from_u64(i)).unwrap().is_none());
        }
        db.verify().unwrap();
    }

    #[test]
    fn snapshots_pin_one_fence_across_shards() {
        let db = engine(4);
        for i in 0..40u64 {
            db.insert(i.into(), b"before".to_vec()).unwrap();
        }
        let snap = db.begin_snapshot();
        // A snapshot taken after an acknowledged write includes it — on
        // every shard, not just the one that acknowledged last.
        assert_eq!(snap.count(&KeyRange::full()).unwrap(), 40);
        let txn = db.begin_txn().unwrap();
        for i in 0..40u64 {
            db.txn_insert(txn, i.into(), b"after".to_vec()).unwrap();
        }
        db.commit_txn(txn).unwrap();
        for (_, v) in snap.dump().unwrap() {
            assert_eq!(v, b"before".to_vec(), "snapshot saw a post-pin commit");
        }
    }

    #[test]
    fn empty_and_unknown_transactions() {
        let db = engine(2);
        let txn = db.begin_txn().unwrap();
        db.commit_txn(txn).unwrap();
        assert!(db.commit_txn(txn).is_err(), "already committed");
        assert!(
            db.txn_insert(txn, 1u64.into(), vec![]).is_err(),
            "txn is gone"
        );
        assert!(db.abort_txn(TxnId::new(999)).is_err());
    }

    /// A scratch directory for the durable tests below, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("tsb-sharded-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn durable_engine(dir: &TempDir, shards: usize) -> ShardedTsb {
        crate::TsbOptions::durable(&dir.0)
            .fsync(tsb_common::FsyncPolicy::Always)
            .shards(shards)
            .open()
            .unwrap()
    }

    /// The forces of one batch overlap instead of queueing: deferred
    /// inserts ask for nothing, and the waits that end the batch cost one
    /// fsync per touched log — not one per insert. Counts, not timings.
    #[test]
    fn a_batch_costs_one_sync_per_touched_shard() {
        let dir = TempDir::new("batch");
        let db = durable_engine(&dir, 4);
        let before = db.io_snapshot().wal_syncs;
        let mut max_lsns = [None; 4];
        for i in 0..32u64 {
            let (_, pos) = db.insert_deferred(i.into(), b"v".to_vec()).unwrap();
            let (shard, lsn) = pos.expect("`Always` hands out a position");
            max_lsns[shard] = max_lsns[shard].max(Some(lsn));
        }
        assert!(
            max_lsns.iter().all(Option::is_some),
            "a shard went untouched"
        );
        assert_eq!(
            db.io_snapshot().wal_syncs,
            before,
            "an insert nobody waited on yet asked for a sync"
        );
        for (shard, lsn) in max_lsns.iter().enumerate() {
            db.wait_durable((shard, lsn.unwrap())).unwrap();
        }
        assert_eq!(db.io_snapshot().wal_syncs, before + 4);
    }

    /// A cross-shard commit over P participants forces 2P+1 times — P
    /// prepares, the decision, P commits — however its rounds overlap,
    /// and is durable on every participant when it returns.
    #[test]
    fn a_cross_shard_commit_forces_two_p_plus_one_times() {
        for p in [2usize, 3, 4] {
            let dir = TempDir::new(&format!("rounds-{p}"));
            let db = durable_engine(&dir, 4);
            let txn = db.begin_txn().unwrap();
            let mut touched = [false; 4];
            for key in 0u64.. {
                let shard = db.shard_of(&Key::from_u64(key));
                if shard < p && !touched[shard] {
                    touched[shard] = true;
                    db.txn_insert(txn, key.into(), b"t".to_vec()).unwrap();
                }
                if touched[..p].iter().all(|t| *t) {
                    break;
                }
            }
            let before = db.io_snapshot().wal_syncs;
            let ts = db.commit_txn(txn).unwrap();
            assert_eq!(
                db.io_snapshot().wal_syncs - before,
                2 * p as u64 + 1,
                "{p} participants"
            );
            assert_eq!(db.last_durable_commit(), Some(ts), "{p} participants");
            for shard in &db.shards()[..p] {
                assert_eq!(shard.last_durable_commit(), Some(ts), "{p} participants");
            }
        }
    }

    /// A position the log never handed out — an LSN past its newest
    /// record — is a typed error: not a wait that can never end, and not
    /// a reason to poison a tree nothing is wrong with.
    #[test]
    fn waiting_past_the_tail_is_a_config_error_and_poisons_nothing() {
        let dir = TempDir::new("past-tail");
        let db = durable_engine(&dir, 2);
        let (_, pos) = db.insert_deferred(1u64.into(), b"v".to_vec()).unwrap();
        let (shard, lsn) = pos.unwrap();
        db.wait_durable((shard, lsn)).unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = db.clone();
        std::thread::spawn(move || {
            let _ = tx.send(waiter.wait_durable((shard, lsn + 1)));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("a wait past the tail parked instead of failing");
        assert!(
            matches!(result, Err(TsbError::Config(_))),
            "expected a config error, got {result:?}"
        );

        let (_, pos) = db.insert_deferred(1u64.into(), b"w".to_vec()).unwrap();
        db.wait_durable(pos.unwrap()).unwrap();
        assert_eq!(db.get_current(&Key::from_u64(1)).unwrap().unwrap(), b"w");
    }

    /// A manifest that cannot be put in place is the caller's error, and
    /// its temp file does not outlive the attempt.
    #[test]
    fn a_manifest_that_cannot_be_written_is_an_error_and_leaves_no_temp() {
        let dir = TempDir::new("manifest");
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join(MANIFEST_FILE);
        write_manifest(&path, 4).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), Some(4));
        assert!(!path.with_extension("tmp").exists());

        // A non-empty directory squatting on the manifest's name makes the
        // rename fail after the temp file was written and synced.
        let squatted = dir.0.join("squatted").join(MANIFEST_FILE);
        std::fs::create_dir_all(squatted.join("occupant")).unwrap();
        assert!(write_manifest(&squatted, 4).is_err());
        assert!(!squatted.with_extension("tmp").exists());
    }

    #[test]
    fn shard_count_bounds_are_enforced() {
        assert!(crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .shards(0)
            .open()
            .is_err());
        assert!(crate::TsbOptions::in_memory()
            .config(TsbConfig::small_pages())
            .shards(MAX_SHARDS + 1)
            .open()
            .is_err());
    }
}
