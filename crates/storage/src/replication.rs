//! WAL shipping: tailing the live redo log for replication.
//!
//! The redo log (see [`crate::wal`]) is a self-describing logical stream —
//! LSN-ordered records, commit fences carrying full tree metadata, and a
//! replayer that rebuilds state from any checkpoint base. That makes it
//! shippable as-is: a replica that appends the primary's record bodies to
//! its own log (via [`crate::Wal::append_shipped`]) and replays them holds
//! state that is a pure function of the primary's durable prefix.
//!
//! [`WalTailer`] is the primary-side reader. It tails the log **by path**,
//! not through the engine's open file handle: a checkpoint reset replaces
//! the log file by rename (`Wal::reset_with`), so a descriptor goes stale
//! while the path always names the live generation. Each poll returns the
//! record bodies after a cursor LSN, capped by the durable watermark the
//! caller supplies — only fsynced records may ship, otherwise a primary
//! crash could roll back state a replica already serves.
//!
//! ## Surviving checkpoint resets
//!
//! A checkpoint truncates the log to a single `Checkpoint` record (the new
//! generation's base). Two cases:
//!
//! * The subscriber had already consumed everything before the fence: the
//!   new generation's first record (the checkpoint, at `cursor + 1`)
//!   continues its sequence — the reset is invisible.
//! * The subscriber was further behind: the records between its cursor and
//!   the fence are gone. The tailer reports [`TailPoll::NeedsRebase`]; the
//!   subscriber must re-base on a full image of the newest checkpoint
//!   state (see `tsb-core`'s replica engine) and resume from its LSN.

use std::fs::File;
use std::path::{Path, PathBuf};

use tsb_common::TsbResult;

use crate::wal::{FrameReader, Lsn, WalRecord};

/// Soft cap on the total body bytes one [`WalTailer::poll`] returns. The
/// final record of a batch may push past it; a batch never splits a record.
pub const DEFAULT_BATCH_BYTES: usize = 1 << 20;

/// What one poll of the tailer produced.
#[derive(Debug)]
pub enum TailPoll {
    /// Record bodies for LSNs `(cursor, limit]`, in order, possibly empty
    /// (caught up). Each body is the on-disk encoding from
    /// [`WalRecord::encode_body`]; the embedded LSNs are contiguous.
    Batch {
        /// The shard the log's tag names before the first record: the
        /// owner of the batch's tagged records up to its first switch.
        shard: u32,
        /// The record bodies.
        records: Vec<Vec<u8>>,
    },
    /// The log no longer contains `cursor + 1`: a checkpoint reset
    /// discarded records the subscriber still needs. It must re-base on a
    /// checkpoint image before resuming.
    NeedsRebase,
}

impl TailPoll {
    fn caught_up() -> TailPoll {
        TailPoll::Batch {
            shard: 0,
            records: Vec::new(),
        }
    }
}

/// A cursor-based reader over a live redo log file (see the module docs).
#[derive(Debug)]
pub struct WalTailer {
    path: PathBuf,
    /// Cached resume point: byte offset of the frame expected to carry
    /// `lsn`, and the shard the log's tag names before it. Validated on
    /// every poll (frame must parse and match); invalidated by checkpoint
    /// resets, which trigger a full rescan.
    cursor: Option<(u64, Lsn, u32)>,
}

impl WalTailer {
    /// Creates a tailer over the log at `path` (typically
    /// [`crate::Wal::path`]).
    pub fn new(path: impl AsRef<Path>) -> Self {
        WalTailer {
            path: path.as_ref().to_path_buf(),
            cursor: None,
        }
    }

    /// Returns the record bodies after `after_lsn`, up to and including
    /// `limit_lsn` (the caller passes the log's durable watermark), capped
    /// near `max_bytes`. An empty batch means the subscriber is caught up.
    /// The file is read a chunk at a time, so a poll that resumes at its
    /// cursor reads about `max_bytes` plus a chunk, however long the log.
    ///
    /// The read races benignly with the appender: a trailing frame still
    /// being written fails its length or CRC check and is simply not part
    /// of this batch (it is beyond the durable limit anyway).
    pub fn poll(
        &mut self,
        after_lsn: Lsn,
        limit_lsn: Lsn,
        max_bytes: usize,
    ) -> TsbResult<TailPoll> {
        // The cursor the subscriber wants next. Saturating: a hostile or
        // corrupt `after_lsn` of `u64::MAX` must poll as "caught up", not
        // overflow (a wire-facing path must not panic on absurd input).
        let next_lsn = after_lsn.saturating_add(1);
        let cursor = self.cursor.take().filter(|&(_, lsn, _)| lsn == next_lsn);
        let file = match File::open(&self.path) {
            Ok(file) => file,
            // Between a reset's rename and nothing else, the path always
            // exists; a missing file means the store is mid-teardown.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(TailPoll::caught_up()),
            Err(e) => return Err(e.into()),
        };
        let file_len = file.metadata()?.len();
        // Fast path: resume from the cached offset when it still names the
        // frame for `after_lsn + 1`.
        if let Some((offset, _, shard)) = cursor {
            // Nothing appended since the last poll — unless the caller says
            // records exist past the cursor: then an equal-length
            // *replacement* generation took the file's place, and only the
            // rescan below can tell.
            if offset == file_len && limit_lsn <= after_lsn {
                self.cursor = cursor;
                return Ok(TailPoll::caught_up());
            }
            let mut frames = FrameReader::new(&file, offset, file_len);
            let first = frames.next_frame()?.map(WalRecord::decode_body);
            if matches!(first, Some(Ok((lsn, _))) if lsn == next_lsn) {
                frames.rewind(offset);
                return self.collect(frames, shard, after_lsn, limit_lsn, max_bytes);
            }
            // The file shrank, or the frame at the cached offset no longer
            // matches: the log was reset. Rescan.
        }

        // Locate the frame carrying `after_lsn + 1`, walking from the
        // start of the (single-generation) file and following its tag.
        let mut frames = FrameReader::new(&file, 0, file_len);
        let mut shard = 0;
        loop {
            let at = frames.offset();
            // The log ends before `after_lsn + 1`: caught up (or the tail
            // is still being written); the cursor stays cold.
            let Some(Ok((lsn, record))) = frames.next_frame()?.map(WalRecord::decode_body) else {
                return Ok(TailPoll::caught_up());
            };
            if lsn > next_lsn {
                // The generation starts past the subscriber's cursor: the
                // records it needs were discarded by a checkpoint reset.
                return Ok(TailPoll::NeedsRebase);
            }
            if lsn == next_lsn {
                frames.rewind(at);
                return self.collect(frames, shard, after_lsn, limit_lsn, max_bytes);
            }
            shard = record.tag_after(shard);
        }
    }

    /// Collects bodies from `frames` (whose first frame carries
    /// `after_lsn + 1`, under the tag `shard`) while LSNs stay at or below
    /// `limit_lsn` and the batch stays under `max_bytes`, updating the
    /// cursor cache to the resume point.
    fn collect(
        &mut self,
        mut frames: FrameReader<'_>,
        shard: u32,
        after_lsn: Lsn,
        limit_lsn: Lsn,
        max_bytes: usize,
    ) -> TsbResult<TailPoll> {
        let mut expected = after_lsn + 1;
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut total = 0usize;
        let mut tag = shard;
        let mut resume = frames.offset();
        while total < max_bytes {
            let Some(body) = frames.next_frame()? else {
                break;
            };
            let Ok((lsn, record)) = WalRecord::decode_body(body) else {
                break;
            };
            if lsn != expected || lsn > limit_lsn {
                break;
            }
            records.push(body.to_vec());
            total += body.len();
            expected = lsn + 1;
            tag = record.tag_after(tag);
            resume = frames.offset();
        }
        self.cursor = Some((resume, expected, tag));
        Ok(TailPoll::Batch { shard, records })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tsb_common::FsyncPolicy;

    use super::*;
    use crate::page::PageId;
    use crate::stats::IoStats;
    use crate::wal::{Wal, CHUNK_BYTES};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tsb-tailer-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn image(page: u64, fill: u8) -> WalRecord {
        WalRecord::PageImage {
            page: PageId(page),
            bytes: vec![fill; 24],
        }
    }

    fn commit(ts: u64) -> WalRecord {
        WalRecord::Commit {
            ts,
            worm_len: 0,
            meta: vec![0xCD; 8],
        }
    }

    fn lsns(batch: &[Vec<u8>]) -> Vec<Lsn> {
        batch
            .iter()
            .map(|b| WalRecord::decode_body(b).unwrap().0)
            .collect()
    }

    #[test]
    fn tails_records_in_order_and_in_batches() {
        let dir = temp_dir("order");
        let path = dir.join("redo.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, FsyncPolicy::Always, Arc::new(IoStats::new())).unwrap();
        for i in 0..5u64 {
            wal.append(&image(i, i as u8)).unwrap();
        }
        wal.append(&commit(5)).unwrap();

        let mut tailer = WalTailer::new(&path);
        let TailPoll::Batch { records: batch, .. } =
            tailer.poll(0, wal.durable_lsn(), usize::MAX).unwrap()
        else {
            panic!("fresh log never needs a rebase");
        };
        assert_eq!(lsns(&batch), vec![1, 2, 3, 4, 5, 6]);

        // Caught up: empty batch, twice in a row (cursor cache path).
        for _ in 0..2 {
            let TailPoll::Batch { records: batch, .. } =
                tailer.poll(6, wal.durable_lsn(), usize::MAX).unwrap()
            else {
                panic!("caught-up tailer never needs a rebase");
            };
            assert!(batch.is_empty());
        }

        // New appends resume from the cached offset.
        wal.append(&image(9, 9)).unwrap();
        wal.append(&commit(7)).unwrap();
        wal.sync().unwrap();
        let TailPoll::Batch { records: batch, .. } =
            tailer.poll(6, wal.durable_lsn(), usize::MAX).unwrap()
        else {
            panic!("appended records never need a rebase");
        };
        assert_eq!(lsns(&batch), vec![7, 8]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_limit_holds_back_unsynced_records() {
        let dir = temp_dir("limit");
        let path = dir.join("redo.wal");
        let _ = std::fs::remove_file(&path);
        // `Os` policy: appends reach the file at fences without fsync, so
        // the durable watermark stays behind the file content.
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::new(IoStats::new())).unwrap();
        wal.append(&image(1, 1)).unwrap();
        wal.append(&commit(1)).unwrap();
        assert_eq!(wal.durable_lsn(), 0);

        let mut tailer = WalTailer::new(&path);
        let TailPoll::Batch { records: batch, .. } =
            tailer.poll(0, wal.durable_lsn(), usize::MAX).unwrap()
        else {
            panic!("no rebase expected");
        };
        assert!(batch.is_empty(), "nothing durable yet");

        wal.sync().unwrap();
        let TailPoll::Batch { records: batch, .. } =
            tailer.poll(0, wal.durable_lsn(), usize::MAX).unwrap()
        else {
            panic!("no rebase expected");
        };
        assert_eq!(lsns(&batch), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_bytes_splits_batches_without_splitting_records() {
        let dir = temp_dir("bytes");
        let path = dir.join("redo.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, FsyncPolicy::Always, Arc::new(IoStats::new())).unwrap();
        for i in 0..10u64 {
            wal.append(&image(i, 0)).unwrap();
        }
        wal.append(&commit(1)).unwrap();

        let mut tailer = WalTailer::new(&path);
        let mut got = Vec::new();
        let mut cursor = 0;
        loop {
            let TailPoll::Batch { records: batch, .. } =
                tailer.poll(cursor, wal.durable_lsn(), 1).unwrap()
            else {
                panic!("no rebase expected");
            };
            if batch.is_empty() {
                break;
            }
            assert_eq!(batch.len(), 1, "1-byte cap yields one record per batch");
            cursor = WalRecord::decode_body(batch.last().unwrap()).unwrap().0;
            got.extend(lsns(&batch));
        }
        assert_eq!(got, (1..=11).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_reset_is_seamless_when_caught_up_and_rebases_when_behind() {
        let dir = temp_dir("reset");
        let path = dir.join("redo.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, FsyncPolicy::Always, Arc::new(IoStats::new())).unwrap();
        wal.append(&image(1, 1)).unwrap();
        wal.append(&commit(1)).unwrap(); // LSNs 1, 2

        // A caught-up tailer rides through the reset: the checkpoint is
        // simply the next record in its sequence.
        let mut caught_up = WalTailer::new(&path);
        let TailPoll::Batch { records: b, .. } =
            caught_up.poll(0, wal.durable_lsn(), usize::MAX).unwrap()
        else {
            panic!("no rebase expected");
        };
        assert_eq!(lsns(&b), vec![1, 2]);

        wal.reset_with(&WalRecord::Checkpoint {
            worm_len: 0,
            meta: vec![1],
        })
        .unwrap(); // LSN 3, alone in the new generation

        let TailPoll::Batch { records: b, .. } =
            caught_up.poll(2, wal.durable_lsn(), usize::MAX).unwrap()
        else {
            panic!("caught-up tailer must survive the reset");
        };
        assert_eq!(lsns(&b), vec![3]);

        // A tailer still needing LSN 2 finds the generation starting at 3:
        // rebase required.
        let mut behind = WalTailer::new(&path);
        assert!(matches!(
            behind.poll(1, wal.durable_lsn(), usize::MAX).unwrap(),
            TailPoll::NeedsRebase
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn equal_length_replacement_generation_is_detected_via_the_watermark() {
        let dir = temp_dir("samelen");
        let path = dir.join("redo.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, FsyncPolicy::Always, Arc::new(IoStats::new())).unwrap();
        wal.reset_with(&WalRecord::Checkpoint {
            worm_len: 0,
            meta: vec![7; 16],
        })
        .unwrap(); // LSN 1

        let mut tailer = WalTailer::new(&path);
        let TailPoll::Batch { records: b, .. } =
            tailer.poll(0, wal.durable_lsn(), usize::MAX).unwrap()
        else {
            panic!("no rebase expected");
        };
        assert_eq!(lsns(&b), vec![1]);

        // Records the tailer never fetches, then a reset whose lone
        // checkpoint frame is byte-for-byte the same length as the one the
        // cursor sits after: the file length alone cannot reveal the
        // replacement.
        wal.append(&image(1, 1)).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.reset_with(&WalRecord::Checkpoint {
            worm_len: 0,
            meta: vec![8; 16],
        })
        .unwrap(); // LSN 4, alone

        assert!(
            matches!(
                tailer.poll(1, wal.durable_lsn(), usize::MAX).unwrap(),
                TailPoll::NeedsRebase
            ),
            "the durable watermark must expose an equal-length replacement"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shipped_bodies_round_trip_into_a_replica_log() {
        let dir = temp_dir("ship");
        let primary = dir.join("primary.wal");
        let replica = dir.join("replica.wal");
        let _ = std::fs::remove_file(&primary);
        let _ = std::fs::remove_file(&replica);
        let stats = Arc::new(IoStats::new());
        let src = Wal::create(&primary, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
        src.append(&image(4, 4)).unwrap();
        src.append(&commit(9)).unwrap();

        let mut tailer = WalTailer::new(&primary);
        let TailPoll::Batch { records: batch, .. } =
            tailer.poll(0, src.durable_lsn(), usize::MAX).unwrap()
        else {
            panic!("no rebase expected");
        };

        {
            let dst = Wal::create(&replica, FsyncPolicy::Always, Arc::clone(&stats)).unwrap();
            for body in &batch {
                assert!(dst.append_shipped(body).unwrap());
            }
            // Re-shipping the same records is a no-op (reconnect overlap).
            for body in &batch {
                assert!(!dst.append_shipped(body).unwrap());
            }
            dst.sync().unwrap();
            assert_eq!(dst.last_lsn(), 2);
        }
        let (_, scan) = Wal::open(&replica, FsyncPolicy::Always, stats).unwrap();
        let records: Vec<_> = scan.records().map(Result::unwrap).collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].1, image(4, 4));
        assert_eq!(records[1].1, commit(9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shipped_lsn_gap_is_rejected() {
        let dir = temp_dir("gap");
        let path = dir.join("replica.wal");
        let _ = std::fs::remove_file(&path);
        let dst = Wal::create(&path, FsyncPolicy::Always, Arc::new(IoStats::new())).unwrap();
        // First record of an empty log may carry any LSN...
        assert!(dst.append_shipped(&image(1, 1).encode_body(50)).unwrap());
        // ...but after that the sequence must be contiguous.
        assert!(dst.append_shipped(&image(2, 2).encode_body(53)).is_err());
        assert!(dst.append_shipped(&image(2, 2).encode_body(51)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A poll reads the log a chunk at a time, not whole: over a log many
    /// times `max_bytes`, holding a frame larger than a chunk, its batches
    /// are record for record what cutting a whole-file read at
    /// `max_bytes` gives, each naming the shard its first records belong
    /// to.
    #[test]
    fn polls_over_a_long_log_batch_exactly_as_a_whole_file_read() {
        let dir = temp_dir("long");
        let path = dir.join("redo.wal");
        let _ = std::fs::remove_file(&path);
        let max_bytes = 16 << 10;
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::new(IoStats::new())).unwrap();
        for i in 0..300u64 {
            let len = if i == 150 {
                3 * CHUNK_BYTES
            } else {
                (i as usize * 37) % 3000 + 1
            };
            let record = WalRecord::PageImage {
                page: PageId(i),
                bytes: vec![i as u8; len],
            };
            wal.append_for((i % 3) as u32, &record).unwrap();
            if i % 5 == 4 {
                wal.append_for((i % 3) as u32, &commit(i)).unwrap();
            }
        }
        wal.sync().unwrap();
        assert!(wal.bytes() >= 16 * max_bytes as u64);

        // The whole file, framed from the start, cut greedily at
        // `max_bytes`; each batch with the tag before its first record.
        let whole = std::fs::read(&path).unwrap();
        let (mut expected, mut batch, mut total, mut pos, mut tag) = (vec![], vec![], 0, 0, 0);
        let mut batch_tag = 0;
        while pos < whole.len() {
            let len = u32::from_le_bytes(whole[pos..pos + 4].try_into().unwrap()) as usize;
            let body = whole[pos + 8..pos + 8 + len].to_vec();
            pos += 8 + len;
            if batch.is_empty() {
                batch_tag = tag;
            }
            tag = WalRecord::decode_body(&body).unwrap().1.tag_after(tag);
            total += body.len();
            batch.push(body);
            if total >= max_bytes {
                expected.push((batch_tag, std::mem::take(&mut batch)));
                total = 0;
            }
        }
        expected.push((batch_tag, batch));

        let mut tailer = WalTailer::new(&path);
        let (mut got, mut cursor) = (Vec::new(), 0);
        loop {
            let TailPoll::Batch { shard, records } =
                tailer.poll(cursor, wal.durable_lsn(), max_bytes).unwrap()
            else {
                panic!("no rebase expected");
            };
            let Some(last) = records.last() else {
                break;
            };
            cursor = WalRecord::decode_body(last).unwrap().0;
            got.push((shard, records));
        }
        assert_eq!(got.len(), expected.len());
        assert!(
            got == expected,
            "the batches differ from the whole-file read"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch names the shard the log's tag holds before its first
    /// record, whether the poll rescans the file or resumes at its cursor.
    #[test]
    fn a_batch_names_the_shard_its_first_records_belong_to() {
        let dir = temp_dir("tag");
        let path = dir.join("redo.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, FsyncPolicy::Os, Arc::new(IoStats::new())).unwrap();
        wal.append_for(2, &image(1, 1)).unwrap(); // switch at 1, image at 2
        wal.append_for(2, &commit(1)).unwrap(); // 3
        wal.append_for(1, &image(2, 2)).unwrap(); // switch at 4, image at 5
        wal.sync().unwrap();
        let poll = |tailer: &mut WalTailer, after| match tailer
            .poll(after, wal.durable_lsn(), usize::MAX)
            .unwrap()
        {
            TailPoll::Batch { shard, records } => (shard, lsns(&records)),
            TailPoll::NeedsRebase => panic!("no rebase expected"),
        };
        assert_eq!(poll(&mut WalTailer::new(&path), 3), (2, vec![4, 5]));
        let mut resumed = WalTailer::new(&path);
        assert_eq!(poll(&mut resumed, 0), (0, vec![1, 2, 3, 4, 5]));
        wal.append_for(1, &commit(2)).unwrap();
        wal.sync().unwrap();
        assert_eq!(poll(&mut resumed, 5), (1, vec![6]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
