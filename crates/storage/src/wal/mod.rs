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
//! kind 1  PageImage   payload = page: u64 | bytes (u32-len-prefixed)
//! kind 2  Commit      payload = ts: u64 | worm_len: u64 | meta (u32-len-prefixed)
//! kind 3  Checkpoint  payload = worm_len: u64 | meta (u32-len-prefixed)
//! kind 4  PageDelta   payload = page: u64 | op (see PageOp::encode)
//! kind 5  Prepare     payload = ts: u64 | worm_len: u64 | meta (u32-len-prefixed)
//!                               | txn: u64 | coordinator: u32
//!                               | participants (u32 count, u32 each)
//! kind 6  Decision    payload = ts: u64 | participants (u32 count, u32 each)
//! ```
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
//! `crc` is CRC-32 (IEEE polynomial) over the body. On reopen the file is
//! scanned from the start; the first record whose length prefix runs past
//! the end of the file or whose CRC does not match marks a **torn tail**
//! (the machine died mid-append): the file is truncated there and replay
//! uses only the intact prefix. Nothing after a tear can be trusted — a
//! later record being intact does not mean the skipped one was benign.
//! Bytes a scan can read are not thereby on stable storage (the writer may
//! have been killed before any fsync covered them), so [`Wal::open`]
//! forces a non-empty intact prefix once, under every policy, before it
//! seeds the durable-LSN watermark at its tail: what recovery installs
//! pages from is what a power loss would keep.
//!
//! ## LSNs and the fence
//!
//! Every record carries a monotonically increasing **log sequence number**.
//! Two record kinds fence replay:
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
//! the last commit whose `worm_len` fits.
//!
//! ## Group commit: one coalesced write per mutation
//!
//! Appends land in an in-process append buffer; the buffer is flushed to
//! the file with a single `write_all` when a fence record (`Commit` /
//! `Checkpoint`) is appended, when the flushed-LSN barrier or an fsync
//! needs the bytes in the file, or when it outgrows
//! `APPEND_BUFFER_FLUSH_BYTES`. One mutation — its page images, its
//! deltas, and its commit fence — therefore issues **one** write syscall
//! instead of one per record. Buffered bytes are always un-fenced (every
//! fence append flushes), so a process crash loses nothing acknowledged:
//! recovery's replay cut discards un-fenced records anyway.
//! [`tsb_common::FsyncPolicy`] chooses whether commit records
//! additionally force the file to stable storage; checkpoints always do.
//!
//! ## Pipelined commit: the fsync runs off the append path
//!
//! The device sync itself is **pipelined**: no append ever issues an
//! fsync inline, and no append asks for one. A commit under `Always` *is
//! appended* ([`Wal::append_commit`]) and hands its caller the fence LSN;
//! durability is asked for by whoever waits — on the caller's schedule,
//! typically after the engine has released its writer lock —
//! [`Wal::wait_durable`] requests that LSN and parks on the **durable-LSN
//! watermark**. So a batch of commits appended back to back and waited on
//! once, at its newest fence, costs one fsync, not one started by its
//! first append that the rest then miss. [`Wal::request_durable`] is the
//! request without the park — the only way a sync gets asked for — so a
//! caller with waits on several logs asks all of them before parking on
//! any and their syncs overlap. A dedicated group-commit thread drains
//! the request queue: each drain captures the log tail, runs the pre-sync
//! hook, issues **one** `fsync` covering every commit appended up to the
//! capture, and broadcasts the new watermark to every parked committer.
//! While the device works, the next mutations keep appending (the inner
//! lock is not held across the sync), so under concurrent writers dozens
//! of commits share one fsync. A sync failure is sticky: it is published
//! to the watermark, every parked and future waiter errors, and the
//! engine poisons the tree. The per-policy wait rule: `Always` waits for
//! its own fence LSN, `Os` is handed nothing to wait on.
//!
//! What a commit appended under `Always` and *never waited on* may
//! expect is therefore: nothing, until some later waiter, a write-back
//! barrier or a checkpoint forces the log past it. It was not
//! acknowledged as durable to anyone, and the watermark (and the engine's
//! `last_durable_commit()`) lags it until then. A position past the
//! newest appended record was never handed out; requesting or waiting on
//! one is a typed error, not a wait that cannot end.
//!
//! ## Which file owns what
//!
//! * `record` — the bytes: [`PageOp`] / [`WalRecord`] bodies and
//!   `WalRecord::is_fence`, the one writer and the one reader of the
//!   `len | crc | body` frame, and the scan that turns a file back into
//!   records ([`WalScan`]).
//! * `log` — the file and its append buffer: [`Wal`] create / open / reset
//!   (torn-tail truncation, the checkpoint reset's write-new-then-rename),
//!   local and shipped appends, the coalesced write at every fence.
//! * `commit` — *when* bytes become durable: the sync request queue, the
//!   durable-LSN watermark, the group-commit thread. `log` reaches the
//!   queue through one door, [`Wal::request_durable`].
//! * `page_table` — [`WalPageTable`], the WAL-before-page barrier at the
//!   one device write-back site of a tree page.
//!
//! A change to what a record says touches `record`; a change to how
//! commits share fsyncs touches `commit`; neither touches the other two.

mod commit;
mod log;
mod page_table;
mod record;

pub use log::{sync_parent_dir, PreSyncHook, Wal};
pub use page_table::WalPageTable;
pub(crate) use record::frame_at;
pub use record::{Lsn, PageOp, WalRecord, WalScan};

#[cfg(test)]
mod tests;
