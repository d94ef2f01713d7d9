//! The write-ahead (redo) log for the current database.
//!
//! The paper's two-device design is only half durable by construction: the
//! WORM side is write-once hardware, so migrated history can never be lost,
//! but the magnetic current database is rewritten in place and buffered in
//! a volatile cache (the decoded-node cache). This module closes that gap
//! with a **hybrid redo log**: the *first* dirtying of a page per
//! checkpoint interval appends its full image here *before* the engine's
//! cache may hold it dirty; every later content-only rewrite
//! of the same page appends only a compact logical [`PageOp`] delta. A
//! crash can always be repaired by replaying the images and re-applying
//! the deltas, in LSN order, over the magnetic store ("repeating
//! history").
//!
//! ## Record format
//!
//! The log is a flat file of length-prefixed, checksummed records:
//!
//! ```text
//! +----------+----------+===========================+
//! | len: u32 | crc: u32 |  body (len bytes)         |
//! +----------+----------+===========================+
//! body = lsn: u64 | kind: u8 | payload
//!
//! kind 1  PageImage        payload = page: u64 | bytes (u32-len-prefixed)
//! kind 2  Commit           payload = ts: u64 | worm_len: u64 | meta (u32-len-prefixed)
//! kind 3  Checkpoint       payload = worm_len: u64 | meta (u32-len-prefixed)
//! kind 4  PageDelta        payload = page: u64 | op (see PageOp::encode)
//! kind 7  Shard            payload = shard: u32
//! kind 8  ShardCommit      payload = ts: u64 | parts
//! kind 9  ShardCheckpoint  payload = parts
//!         parts = count: u32 | (shard: u32 | worm_len: u64 | meta (u32-len-prefixed))*
//! ```
//!
//! Kinds 5 and 6 are retired and never reused: a log of the first sharded
//! layout (a log per shard) may hold them, and this version refuses that
//! layout before reading any of its logs.
//!
//! ## The shard tag
//!
//! Several trees — the shards of one engine — may share one log. Kinds 1
//! to 4 carry no shard: each belongs to the shard the newest `Shard`
//! record before it names, and to shard 0 when none precedes it. The log
//! appends a `Shard` switch itself, only where the appending shard changes
//! ([`Wal::append_for`]), and a checkpoint reset starts the new generation
//! back on shard 0. So a log with one shard never holds a switch, and its
//! bytes are exactly those of a log that knows nothing of shards. A fence
//! that spans shards names them instead: a `ShardCommit` is one commit of
//! several shards at one timestamp, a `ShardCheckpoint` the checkpoint of
//! every shard, each with one `(shard, worm_len, meta)` part per shard.
//!
//! A `PageDelta` is meaningful only relative to the page state built up by
//! the records before it: within one log generation, the engine guarantees
//! a `PageImage` of the page precedes the page's first delta (the
//! first-touch rule), so replay never has to trust — or even read — the
//! possibly-torn device image of a delta'd page. Deltas are *slot
//! assignments* (insert-or-replace a version, remove an uncommitted
//! version), so re-applying a replayed prefix over device state that
//! already contains it is idempotent.
//!
//! `crc` is CRC-32 (IEEE polynomial) over the body. On reopen one pass
//! reads the file from the start, a chunk at a time; the first record that
//! is incomplete, fails its CRC, does not decode or breaks the LSN sequence
//! marks a **torn tail** (the machine died mid-append): the file is
//! truncated there. Nothing after a tear can be trusted — a later record
//! being intact does not mean the skipped one was benign. The pass notes
//! where the newest checkpoint starts, and replay re-reads the intact
//! records from there, again a chunk at a time ([`WalScan`]): no reader
//! holds the whole log, or all of its records.
//! Bytes a scan can read are not thereby on stable storage (the writer may
//! have been killed before any fsync covered them), so [`Wal::open`]
//! forces a non-empty intact prefix once, under every policy, before it
//! seeds the durable-LSN watermark at its tail: what recovery installs
//! pages from is what a power loss would keep.
//!
//! ## LSNs and the fence
//!
//! Every record carries a monotonically increasing **log sequence number**.
//! Two record kinds fence replay (each in its one-shard and its
//! several-shard form):
//!
//! * A **`Checkpoint`** record is appended (and always fsynced) only after
//!   a full flush — every dirty node encoded, every dirty page written,
//!   both devices synced. It promises "the magnetic store, as a device, is
//!   exactly the tree state described by my `meta` bytes". Recovery starts
//!   from the newest checkpoint and replays only records after it; its LSN
//!   is the *fence LSN* — nothing at or before it is ever replayed again.
//! * A **`Commit`** record is appended at the end of every mutation, after
//!   all of the mutation's page images. It promises "every image needed
//!   for the tree state described by my `meta` bytes precedes me in the
//!   log". Recovery replays page images up to the newest usable commit
//!   (the *cut*) and installs that commit's metadata (root pointer,
//!   logical clock, transaction counter). Images after the cut belong to a
//!   mutation that never finished logging and are discarded.
//!
//! A commit also records the WORM store's length at commit time: a commit
//! whose referenced history extends past the surviving WORM file cannot be
//! used as a cut (its index entries would dangle), so recovery stops at
//! the last commit whose `worm_len` fits. On a shared log there is one cut:
//! the newest fence such that every fence up to it has its history on its
//! own shard's WORM, and each shard replays its records up to its own last
//! fence at or before it.
//!
//! ## The flushed-LSN rule reads the shard's durable fence
//!
//! A dirty page may reach the page device only once the log can rebuild
//! it. The **durable fence** of a shard is the newest fence naming that
//! shard at or below the durable-LSN watermark. The engine syncs every
//! shard's WORM before each log fsync, so every recovery cuts at or after
//! it, and a page of that shard whose newest record is at or below it is
//! rebuilt — to that state or a newer one — by every recovery.
//! [`WalPageTable::ensure_durable`] therefore lets such a page through with
//! no fsync; only a page past it forces the log ([`Wal::sync`]). The
//! durable LSN alone would not do: a sync may capture the tail
//! mid-mutation, and recovery discards records no fence covers. Nor would
//! the newest durable fence of the whole log: another shard's fence past
//! the page does not cover it, and recovery discards a shard's records
//! past that shard's own last fence. The log does not read fence payloads,
//! so the engine tracks each shard's durable fence against
//! [`Wal::durable_lsn`] and hands it to the barrier.
//!
//! ## Group commit: one coalesced write per mutation
//!
//! Appends land in an in-process append buffer; the buffer is flushed to
//! the file with a single `write_all` when a fence record (`Commit` /
//! `Checkpoint`) is appended, when an fsync needs the bytes in the file,
//! or when it outgrows
//! `APPEND_BUFFER_FLUSH_BYTES`. One mutation — its page images, its
//! deltas, and its commit fence — therefore issues **one** write syscall
//! instead of one per record. Buffered bytes are always un-fenced (every
//! fence append flushes), so a process crash loses nothing acknowledged:
//! recovery's replay cut discards un-fenced records anyway.
//! [`tsb_common::FsyncPolicy`] chooses whether commit records
//! additionally force the file to stable storage; checkpoints always do.
//!
//! ## Group commit: whoever waits runs the sync
//!
//! No append ever issues an fsync, and no append asks for one. A commit
//! under `Always` *is appended* ([`Wal::append_for`], the one append
//! door) and hands its caller the fence LSN, which the tree passes up as
//! the return value of the mutation it ends; durability is owed to
//! whoever waits — on the caller's schedule, typically after the engine
//! has released its writer lock. So a batch of commits appended back to
//! back and waited on once, at its newest fence, costs one fsync, not one
//! started by its first append that the rest then miss.
//!
//! Every sync goes through one gate on the **durable-LSN watermark**:
//! [`Wal::wait_durable`] with the caller's LSN, and [`Wal::sync`] (the
//! write-back barrier, a replica's batch end, a checkpoint) with the
//! log's tail. A caller the watermark covers returns; once a sync failure
//! is published it gets that failure; while a sync is on the device it
//! parks until that sync ends; otherwise it **leads** the next sync, on
//! its own thread: it captures the log tail, runs the pre-sync hook,
//! issues **one** `fsync` covering every record appended up to the
//! capture, and broadcasts the new watermark to every parked follower. A
//! leader's end — returned, failed or panicked — always reopens the gate,
//! so no follower parks on a sync that will never publish. One log has
//! one sync on the device at a time, whichever shards appended to it, and
//! no thread of its own. While the device works, the next mutations keep
//! appending (the inner lock is not held across the sync), so under
//! concurrent writers the commits appended during one sync share the
//! next. A sync failure is sticky: it is published to the watermark,
//! every parked and future waiter errors, and the engine poisons the
//! tree; no later sync moves the watermark again. The per-policy wait
//! rule: `Always` waits for its own fence LSN, `Os` is handed nothing to
//! wait on.
//!
//! What a commit appended under `Always` and *never waited on* may
//! expect is therefore: nothing, until some later waiter, a write-back
//! barrier or a checkpoint forces the log past it. It was not
//! acknowledged as durable to anyone, and the watermark (and the engine's
//! `last_durable_commit()`) lags it until then. A position past the
//! newest appended record was never handed out; waiting on one is a
//! typed error, not a wait that cannot end.
//!
//! ## Which file owns what
//!
//! * `record` — the bytes: [`PageOp`] / [`WalRecord`] bodies,
//!   `WalRecord::is_fence`, and the one writer of the `len | crc | body`
//!   frame.
//! * `scan` — the one reader of the frame, a chunk at a time: the
//!   integrity pass on open, the records replay reads back ([`WalScan`]),
//!   and the replication tailer's reads.
//! * `log` — the file and its append buffer: [`Wal`] create / open / reset
//!   (torn-tail truncation, the checkpoint reset's write-new-then-rename),
//!   local and shipped appends, the shard switch, the coalesced write at
//!   every fence.
//! * `commit` — *when* bytes become durable: the durable-LSN watermark
//!   and the one gate every sync goes through, led by a waiting caller.
//!   `log` reaches it through two doors, [`Wal::wait_durable`] and
//!   [`Wal::sync`].
//! * `page_table` — [`WalPageTable`], the WAL-before-page barrier at the
//!   one device write-back site of a tree page: a comparison with the
//!   shard's durable fence, and a force only when it falls short.
//!
//! A change to what a record says touches `record`; a change to how
//! commits share fsyncs touches `commit`; neither touches the other two.

mod commit;
mod log;
mod page_table;
mod record;
mod scan;

pub use log::{sync_parent_dir, PreSyncHook, Wal};
pub use page_table::WalPageTable;
pub use record::{Lsn, PageOp, ShardFence, WalRecord};
pub(crate) use scan::FrameReader;
pub use scan::WalScan;
#[cfg(test)]
pub(crate) use scan::CHUNK_BYTES;

#[cfg(test)]
mod tests;
