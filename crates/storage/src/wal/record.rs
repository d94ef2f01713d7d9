//! The log's bytes: the record kinds and their bodies, and the `len|crc|body`
//! frame around each body.
//! The format itself is specified in the [module docs](super).

use tsb_common::checksum::crc32;
use tsb_common::encode::{ByteReader, ByteWriter};
use tsb_common::{Key, Timestamp, TsbError, TsbResult, TxnId, Version};

use crate::page::PageId;

/// A log sequence number: the position of a record in the total order of
/// the log. Starts at 1; 0 means "nothing logged".
pub type Lsn = u64;

/// Upper bound on a single record body. Anything larger in a length prefix
/// is treated as a torn tail rather than an allocation request.
pub(super) const MAX_RECORD_BODY: u32 = 64 << 20;

/// A compact logical redo operation against one data (leaf) node — the
/// payload of a [`WalRecord::PageDelta`].
///
/// The content ops ([`InsertVersion`](Self::InsertVersion),
/// [`RemoveUncommitted`](Self::RemoveUncommitted)) are *slot assignments*
/// on the node's `(key, version-order)` entry map: applying one twice
/// equals applying it once. The structural ops record the *outcome* of a
/// split decision (the chosen split time or key); replay re-runs the same
/// pure partition function the forward path ran, against the same node
/// state the log rebuilt, so it reproduces the same result. Both families
/// replay deterministically in LSN order against the page's last logged
/// image — recovery never reads (or trusts) the device copy of a delta'd
/// page.
///
/// Wholesale content that cannot be derived from the page's prior state —
/// a freshly initialized node, a split piece landing on a new (or
/// recycled) page, a recovery repair — is never expressed as an op; it
/// logs a full [`WalRecord::PageImage`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PageOp {
    /// Insert a version into the leaf, replacing any existing entry with
    /// the same `(key, version order)` — the redo image of an insert,
    /// update, logical delete (tombstone), uncommitted transactional
    /// write, or commit-time stamping.
    InsertVersion(Version),
    /// Remove the uncommitted version of `key` written by `txn`, if
    /// present — the redo image of a transaction abort and of the removal
    /// half of commit-time stamping.
    RemoveUncommitted {
        /// The key whose uncommitted version is erased.
        key: Key,
        /// The transaction that wrote it.
        txn: TxnId,
    },
    /// Data-node time split at `split_time`: the page keeps the split's
    /// *current* partition (versions at or after the split time, the
    /// rule-3 duplicates valid at it, and uncommitted entries) and its
    /// time range now starts at `split_time`. The migrated half lives on
    /// the WORM, which needs no redo.
    DataTimeSplit {
        /// The chosen split time.
        split_time: Timestamp,
    },
    /// Data-node key split at `split_key`: the page keeps the low half
    /// (`keep_low`) or the high half, and its key range shrinks to the
    /// matching side. The other half's page logs its own image (it is a
    /// fresh or recycled page with no usable base).
    DataKeySplit {
        /// The chosen split key.
        split_key: Key,
        /// Whether this page keeps the `< split_key` half.
        keep_low: bool,
    },
    /// Index-node local time split at `split_time` (§3.5): the page keeps
    /// the entries whose rectangles reach `split_time` or later, and its
    /// time range now starts there.
    IndexTimeSplit {
        /// The chosen split time.
        split_time: Timestamp,
    },
    /// Index-node keyspace split at `split_key`: the page keeps the low or
    /// high side (straddling historical entries are duplicated into both
    /// by the partition rule, so each side is self-contained).
    IndexKeySplit {
        /// The chosen split key.
        split_key: Key,
        /// Whether this page keeps the low side.
        keep_low: bool,
    },
    /// Index-node child replacement: the entry for one child is swapped
    /// for the entries describing its split pieces. The payload is the
    /// tree's own encoding of `(old child address, replacement entries)` —
    /// opaque at this layer, exactly like the tree metadata carried by
    /// [`WalRecord::Commit`].
    IndexReplaceChild {
        /// Core-encoded `(old child, replacements)` tuple.
        payload: Vec<u8>,
    },
}

impl PageOp {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            PageOp::InsertVersion(v) => {
                w.put_u8(1);
                w.put_version(v);
            }
            PageOp::RemoveUncommitted { key, txn } => {
                w.put_u8(2);
                w.put_key(key);
                w.put_u64(txn.0);
            }
            PageOp::DataTimeSplit { split_time } => {
                w.put_u8(3);
                w.put_timestamp(*split_time);
            }
            PageOp::DataKeySplit {
                split_key,
                keep_low,
            } => {
                w.put_u8(4);
                w.put_key(split_key);
                w.put_u8(*keep_low as u8);
            }
            PageOp::IndexTimeSplit { split_time } => {
                w.put_u8(5);
                w.put_timestamp(*split_time);
            }
            PageOp::IndexKeySplit {
                split_key,
                keep_low,
            } => {
                w.put_u8(6);
                w.put_key(split_key);
                w.put_u8(*keep_low as u8);
            }
            PageOp::IndexReplaceChild { payload } => {
                w.put_u8(7);
                w.put_bytes(payload);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> TsbResult<Self> {
        match r.get_u8()? {
            1 => Ok(PageOp::InsertVersion(r.get_version()?)),
            2 => Ok(PageOp::RemoveUncommitted {
                key: r.get_key()?,
                txn: TxnId(r.get_u64()?),
            }),
            3 => Ok(PageOp::DataTimeSplit {
                split_time: r.get_timestamp()?,
            }),
            4 => Ok(PageOp::DataKeySplit {
                split_key: r.get_key()?,
                keep_low: r.get_u8()? != 0,
            }),
            5 => Ok(PageOp::IndexTimeSplit {
                split_time: r.get_timestamp()?,
            }),
            6 => Ok(PageOp::IndexKeySplit {
                split_key: r.get_key()?,
                keep_low: r.get_u8()? != 0,
            }),
            7 => Ok(PageOp::IndexReplaceChild {
                payload: r.get_bytes()?,
            }),
            t => Err(TsbError::corruption(format!("invalid WAL page op {t}"))),
        }
    }
}

/// One redo-log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// The newest image of a magnetic page (an encoded node). Appended by
    /// the tree *before* its node cache holds the node dirty.
    PageImage {
        /// The magnetic page this image belongs to.
        page: PageId,
        /// The full page payload (what `MagneticStore::write` would store).
        bytes: Vec<u8>,
    },
    /// A mutation fully logged: every page image it produced precedes this
    /// record. Carries the tree metadata describing the resulting state.
    Commit {
        /// The newest commit timestamp as of this mutation.
        ts: u64,
        /// WORM device length at commit time; recovery refuses to cut at a
        /// commit whose history extends past the surviving WORM file.
        worm_len: u64,
        /// Opaque tree metadata (root pointer, clock, txn counter) in the
        /// tree's own meta-page encoding.
        meta: Vec<u8>,
    },
    /// A completed flush: the magnetic device equals the state in `meta`.
    /// Replay starts after the newest checkpoint (the fence LSN).
    Checkpoint {
        /// WORM device length at checkpoint time.
        worm_len: u64,
        /// Opaque tree metadata, as in [`WalRecord::Commit`].
        meta: Vec<u8>,
    },
    /// A logical redo delta against one page: the page's content after an
    /// already-logged base ([`WalRecord::PageImage`], first-touch rule)
    /// plus this op, instead of a fresh full image. Appended by the tree
    /// for content-only leaf rewrites after the page's first dirtying in
    /// the current checkpoint interval.
    PageDelta {
        /// The magnetic page the op applies to.
        page: PageId,
        /// The logical mutation.
        op: PageOp,
    },
    /// Every record after this one belongs to shard `shard`, up to the
    /// next switch. Appended by the log itself, only where the appending
    /// shard changes: a log starts (and every checkpoint reset restarts)
    /// on shard 0, so a one-shard log never holds one.
    Shard {
        /// The shard the records that follow belong to.
        shard: u32,
    },
    /// A commit at `ts` over several shards at once: one record, so it is
    /// in every participant's replayed prefix or in none. Each participant
    /// shard's page records precede it under that shard's tag.
    ShardCommit {
        /// The commit timestamp every participant's writes carry.
        ts: u64,
        /// Each participant's state, in shard order.
        parts: Vec<ShardFence>,
    },
    /// A checkpoint of every shard sharing the log: each shard's magnetic
    /// device equals the state its part describes.
    ShardCheckpoint {
        /// Each shard's state, in shard order.
        parts: Vec<ShardFence>,
    },
}

/// One shard's part of a fence that names several shards: what a
/// single-shard [`WalRecord::Commit`] / [`WalRecord::Checkpoint`] carries,
/// plus the shard it describes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardFence {
    /// The shard this part describes.
    pub shard: u32,
    /// That shard's WORM device length at fence time.
    pub worm_len: u64,
    /// That shard's tree metadata, as in [`WalRecord::Commit`].
    pub meta: Vec<u8>,
}

fn put_parts(w: &mut ByteWriter, parts: &[ShardFence]) {
    w.put_u32(parts.len() as u32);
    for part in parts {
        w.put_u32(part.shard);
        w.put_u64(part.worm_len);
        w.put_bytes(&part.meta);
    }
}

fn get_parts(r: &mut ByteReader<'_>) -> TsbResult<Vec<ShardFence>> {
    let n = r.get_u32()? as usize;
    let mut parts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        parts.push(ShardFence {
            shard: r.get_u32()?,
            worm_len: r.get_u64()?,
            meta: r.get_bytes()?,
        });
    }
    Ok(parts)
}

impl WalRecord {
    /// Whether this record ends a group of page records: a commit or a
    /// checkpoint, of one shard or of several. Appending a fence drains the
    /// append buffer to the file, so everything buffered is always
    /// un-fenced.
    pub fn is_fence(&self) -> bool {
        !matches!(
            self,
            WalRecord::PageImage { .. } | WalRecord::PageDelta { .. } | WalRecord::Shard { .. }
        )
    }

    /// Whether this record belongs to the shard the log's newest
    /// [`WalRecord::Shard`] switch names — every kind but the switch itself
    /// and the fences that name their shards.
    pub fn is_tagged(&self) -> bool {
        !matches!(
            self,
            WalRecord::Shard { .. }
                | WalRecord::ShardCommit { .. }
                | WalRecord::ShardCheckpoint { .. }
        )
    }

    /// The shard the log's tag names after this record, `tag` before it: a
    /// switch names its shard, and a checkpoint starts a generation on
    /// shard 0 — also in a replica's local log, where checkpoints follow
    /// older generations instead of replacing them.
    pub fn tag_after(&self, tag: u32) -> u32 {
        match self {
            WalRecord::Shard { shard } => *shard,
            WalRecord::Checkpoint { .. } | WalRecord::ShardCheckpoint { .. } => 0,
            _ => tag,
        }
    }

    fn kind(&self) -> u8 {
        match self {
            WalRecord::PageImage { .. } => 1,
            WalRecord::Commit { .. } => 2,
            WalRecord::Checkpoint { .. } => 3,
            WalRecord::PageDelta { .. } => 4,
            WalRecord::Shard { .. } => 7,
            WalRecord::ShardCommit { .. } => 8,
            WalRecord::ShardCheckpoint { .. } => 9,
        }
    }

    /// Encodes the record body (`lsn | kind | payload`) exactly as it is
    /// framed into the log. Public for WAL shipping: a replication source
    /// re-frames record bodies onto the wire, and a replica appends the
    /// same bytes to its local log via [`super::Wal::append_shipped`], so both
    /// sides of the stream speak the log's own on-disk encoding.
    pub fn encode_body(&self, lsn: Lsn) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(lsn);
        w.put_u8(self.kind());
        match self {
            WalRecord::PageImage { page, bytes } => {
                w.put_u64(page.0);
                w.put_bytes(bytes);
            }
            WalRecord::Commit { ts, worm_len, meta } => {
                w.put_u64(*ts);
                w.put_u64(*worm_len);
                w.put_bytes(meta);
            }
            WalRecord::Checkpoint { worm_len, meta } => {
                w.put_u64(*worm_len);
                w.put_bytes(meta);
            }
            WalRecord::PageDelta { page, op } => {
                w.put_u64(page.0);
                op.encode(&mut w);
            }
            WalRecord::Shard { shard } => w.put_u32(*shard),
            WalRecord::ShardCommit { ts, parts } => {
                w.put_u64(*ts);
                put_parts(&mut w, parts);
            }
            WalRecord::ShardCheckpoint { parts } => put_parts(&mut w, parts),
        }
        w.into_vec()
    }

    /// Decodes a record body produced by [`Self::encode_body`], returning
    /// the embedded LSN and the record. The inverse used by a replica to
    /// interpret shipped record bodies.
    pub fn decode_body(body: &[u8]) -> TsbResult<(Lsn, WalRecord)> {
        let mut r = ByteReader::new(body);
        let lsn = r.get_u64()?;
        let record = match r.get_u8()? {
            1 => WalRecord::PageImage {
                page: PageId(r.get_u64()?),
                bytes: r.get_bytes()?,
            },
            2 => WalRecord::Commit {
                ts: r.get_u64()?,
                worm_len: r.get_u64()?,
                meta: r.get_bytes()?,
            },
            3 => WalRecord::Checkpoint {
                worm_len: r.get_u64()?,
                meta: r.get_bytes()?,
            },
            4 => WalRecord::PageDelta {
                page: PageId(r.get_u64()?),
                op: PageOp::decode(&mut r)?,
            },
            7 => WalRecord::Shard {
                shard: r.get_u32()?,
            },
            8 => WalRecord::ShardCommit {
                ts: r.get_u64()?,
                parts: get_parts(&mut r)?,
            },
            9 => WalRecord::ShardCheckpoint {
                parts: get_parts(&mut r)?,
            },
            t => return Err(TsbError::corruption(format!("invalid WAL record kind {t}"))),
        };
        Ok((lsn, record))
    }
}

/// Bytes a frame adds around its body: `len: u32 | crc: u32`.
pub(super) const FRAME_HEADER_BYTES: usize = 8;

/// Appends the frame `len | crc | body` to `out` and returns the frame's
/// length — the one writer of the frame format `FrameReader` reads.
pub(super) fn write_frame(out: &mut Vec<u8>, body: &[u8]) -> usize {
    let frame_len = FRAME_HEADER_BYTES + body.len();
    out.reserve(frame_len);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    frame_len
}
