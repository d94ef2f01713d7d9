//! Reading a log file back a chunk at a time: [`FrameReader`] walks its
//! frames, and [`WalScan`] finds where the intact log ends, then hands its
//! records out again as an iterator.

use std::fs::File;
use std::os::unix::fs::FileExt;

use tsb_common::checksum::crc32;
use tsb_common::{TsbError, TsbResult};

use super::record::{FRAME_HEADER_BYTES, MAX_RECORD_BODY};
use super::{Lsn, WalRecord};

/// Bytes a reader asks the file for at a time (more for a larger frame).
pub(crate) const CHUNK_BYTES: usize = 64 << 10;

/// The one reader of the `len | crc | body` frame [`super::record`]
/// writes: walks a file's frames up to an end offset, holding at most a
/// chunk plus a frame. Reads are positional, so an appender's offset on a
/// shared handle stays put.
pub(crate) struct FrameReader<'a> {
    file: &'a File,
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    buf_at: u64,
    /// Where the next frame starts in `buf`.
    pos: usize,
    end: u64,
}

impl<'a> FrameReader<'a> {
    /// A reader of `file`'s frames from offset `start` up to `end` (at
    /// most the file's length).
    pub(crate) fn new(file: &'a File, start: u64, end: u64) -> FrameReader<'a> {
        FrameReader {
            file,
            buf: Vec::new(),
            buf_at: start,
            pos: 0,
            end,
        }
    }

    /// The file offset of the next frame.
    pub(crate) fn offset(&self) -> u64 {
        self.buf_at + self.pos as u64
    }

    /// Steps back to `offset`, the start of the frame returned last.
    pub(crate) fn rewind(&mut self, offset: u64) {
        assert!((self.buf_at..=self.offset()).contains(&offset));
        self.pos = (offset - self.buf_at) as usize;
    }

    /// The body of the next frame, or `None` where the bytes left before
    /// the end hold no complete frame whose CRC matches.
    pub(crate) fn next_frame(&mut self) -> TsbResult<Option<&[u8]>> {
        let header = self.held(FRAME_HEADER_BYTES)?;
        let Some(header) = header.get(..FRAME_HEADER_BYTES) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_RECORD_BODY {
            return Ok(None);
        }
        let frame_len = FRAME_HEADER_BYTES + len as usize;
        let Some(body) = self.held(frame_len)?.get(FRAME_HEADER_BYTES..frame_len) else {
            return Ok(None);
        };
        if crc32(body) != crc {
            return Ok(None);
        }
        let body = self.pos + FRAME_HEADER_BYTES;
        self.pos += frame_len;
        Ok(Some(&self.buf[body..self.pos]))
    }

    /// The bytes from the next frame on, at least `wanted` of them unless
    /// the end comes first; consumed bytes are dropped before a read.
    fn held(&mut self, wanted: usize) -> TsbResult<&[u8]> {
        if self.buf.len() - self.pos < wanted {
            self.buf.drain(..self.pos);
            self.buf_at += self.pos as u64;
            self.pos = 0;
            let at = self.buf_at + self.buf.len() as u64;
            let len = (wanted - self.buf.len()).max(CHUNK_BYTES) as u64;
            let len = len.min(self.end.saturating_sub(at)) as usize;
            let held = self.buf.len();
            self.buf.resize(held + len, 0);
            self.file.read_exact_at(&mut self.buf[held..], at)?;
        }
        Ok(&self.buf[self.pos..])
    }
}

/// What [`Wal::open`](super::Wal::open) found on disk — where the intact
/// log ends (a torn tail already truncated) — and a way to read its
/// records back without holding them.
#[derive(Debug)]
pub struct WalScan {
    file: File,
    pub(super) end: u64,
    /// LSN of the last intact record, if any.
    pub(super) last_lsn: Option<Lsn>,
    /// The shard the log's tag names after the last intact record.
    pub(super) tag: u32,
    /// Offset of the newest checkpoint record (0 when there is none).
    newest_checkpoint: u64,
    fenced: bool,
    /// Whether a torn tail (partial or corrupt trailing record) was cut off.
    pub truncated_torn_tail: bool,
}

impl WalScan {
    /// The **integrity pass**: reads `file` from the start, a chunk at a
    /// time, up to the first frame that is incomplete, fails its CRC, does
    /// not decode, or breaks the LSN sequence. The first record may carry
    /// any LSN (a checkpoint reset keeps the sequence running across
    /// generations); after that a discontinuity means the file was spliced
    /// or a tear was overwritten — nothing from there on is trustworthy.
    pub(super) fn check(file: File) -> TsbResult<WalScan> {
        let len = file.metadata()?.len();
        let mut scan = WalScan {
            file,
            end: 0,
            last_lsn: None,
            tag: 0,
            newest_checkpoint: 0,
            fenced: false,
            truncated_torn_tail: false,
        };
        let mut frames = FrameReader::new(&scan.file, 0, len);
        while scan.end < len {
            let Some(Ok((lsn, record))) = frames.next_frame()?.map(WalRecord::decode_body) else {
                break;
            };
            if lsn != scan.last_lsn.map_or(lsn, |last| last.wrapping_add(1)) {
                break;
            }
            if let WalRecord::Checkpoint { .. } | WalRecord::ShardCheckpoint { .. } = record {
                scan.newest_checkpoint = scan.end;
            }
            scan.fenced |= record.is_fence();
            scan.tag = record.tag_after(scan.tag);
            scan.last_lsn = Some(lsn);
            scan.end = frames.offset();
        }
        scan.truncated_torn_tail = scan.end < len;
        Ok(scan)
    }

    /// Whether the intact log holds a fence — without one nothing was ever
    /// durable through it.
    pub fn holds_a_fence(&self) -> bool {
        self.fenced
    }

    /// Every intact record, in LSN order.
    pub fn records(&self) -> impl Iterator<Item = TsbResult<(Lsn, WalRecord)>> + '_ {
        self.records_from(0)
    }

    /// The intact records from the newest checkpoint on (from the first
    /// when there is none), where the log's tag names shard 0: all that
    /// recovery replays.
    pub fn since_newest_checkpoint(
        &self,
    ) -> impl Iterator<Item = TsbResult<(Lsn, WalRecord)>> + '_ {
        self.records_from(self.newest_checkpoint)
    }

    /// The intact records from offset `start`. A record the integrity pass
    /// accepted that no longer reads back is corruption, and ends them.
    fn records_from(&self, start: u64) -> impl Iterator<Item = TsbResult<(Lsn, WalRecord)>> + '_ {
        let mut frames = FrameReader::new(&self.file, start, self.end);
        std::iter::from_fn(move || {
            if frames.offset() >= frames.end {
                return None;
            }
            let read = frames.next_frame().and_then(|body| {
                let body =
                    body.ok_or_else(|| TsbError::corruption("a checked WAL record changed"))?;
                WalRecord::decode_body(body)
            });
            if read.is_err() {
                frames.end = 0;
            }
            Some(read)
        })
    }
}
