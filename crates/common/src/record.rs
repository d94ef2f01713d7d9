//! Record versions as stored in TSB-tree (and WOBT) data nodes.
//!
//! An *update* in a multiversion, non-deletion database is the insertion of a
//! new version with the same key (§2.1). A version is therefore identified by
//! `(key, timestamp)`. Versions written by transactions that have not yet
//! committed carry no timestamp — only the transaction id (§4) — which is
//! exactly what allows them to be erased on abort and guarantees they are
//! never migrated to the historical database during a time split.

use std::fmt;

use crate::key::Key;
use crate::time::Timestamp;

/// Identifier of a (writer) transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Creates a transaction id.
    pub const fn new(v: u64) -> Self {
        TxnId(v)
    }

    /// The raw value.
    pub const fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// The timestamp state of a version: committed (with the commit time of the
/// writing transaction) or still uncommitted (identified by the writer).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TsState {
    /// Committed at the given transaction commit time.
    Committed(Timestamp),
    /// Written by a transaction that has not committed yet.
    Uncommitted(TxnId),
}

impl TsState {
    /// The commit timestamp, if committed.
    pub fn commit_time(&self) -> Option<Timestamp> {
        match self {
            TsState::Committed(t) => Some(*t),
            TsState::Uncommitted(_) => None,
        }
    }

    /// Whether the version is committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TsState::Committed(_))
    }

    /// Whether the version is uncommitted.
    pub fn is_uncommitted(&self) -> bool {
        matches!(self, TsState::Uncommitted(_))
    }

    /// The writer transaction id, if uncommitted.
    pub fn txn_id(&self) -> Option<TxnId> {
        match self {
            TsState::Committed(_) => None,
            TsState::Uncommitted(id) => Some(*id),
        }
    }
}

impl fmt::Display for TsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsState::Committed(t) => write!(f, "T={t}"),
            TsState::Uncommitted(id) => write!(f, "uncommitted({id})"),
        }
    }
}

/// Ordering key used *within a data node*: committed versions order by commit
/// time; uncommitted versions sort after every committed version (they are
/// "newer than now"), tie-broken by transaction id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum VersionOrder {
    /// Sort position of a committed version.
    Committed(Timestamp),
    /// Sort position of an uncommitted version.
    Uncommitted(TxnId),
}

impl From<TsState> for VersionOrder {
    fn from(s: TsState) -> Self {
        match s {
            TsState::Committed(t) => VersionOrder::Committed(t),
            TsState::Uncommitted(id) => VersionOrder::Uncommitted(id),
        }
    }
}

/// A single record version.
///
/// `value = None` encodes a **tombstone**: the record was logically deleted
/// at `state`'s time. The paper's database is non-deleting, but a usable
/// library needs logical deletion of *current* data; the tombstone itself is
/// retained in history, so the non-deletion property (no information is ever
/// lost) is preserved. Logical deletion is this reproduction's extension to
/// the paper.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Version {
    /// The record key.
    pub key: Key,
    /// Commit timestamp or writer transaction id.
    pub state: TsState,
    /// The record payload; `None` is a tombstone.
    pub value: Option<Vec<u8>>,
}

impl Version {
    /// Creates a committed version.
    pub fn committed(key: impl Into<Key>, ts: Timestamp, value: impl Into<Vec<u8>>) -> Self {
        Version {
            key: key.into(),
            state: TsState::Committed(ts),
            value: Some(value.into()),
        }
    }

    /// Creates a committed tombstone (logical delete).
    pub fn tombstone(key: impl Into<Key>, ts: Timestamp) -> Self {
        Version {
            key: key.into(),
            state: TsState::Committed(ts),
            value: None,
        }
    }

    /// Creates an uncommitted version.
    pub fn uncommitted(key: impl Into<Key>, txn: TxnId, value: impl Into<Vec<u8>>) -> Self {
        Version {
            key: key.into(),
            state: TsState::Uncommitted(txn),
            value: Some(value.into()),
        }
    }

    /// Creates an uncommitted tombstone.
    pub fn uncommitted_tombstone(key: impl Into<Key>, txn: TxnId) -> Self {
        Version {
            key: key.into(),
            state: TsState::Uncommitted(txn),
            value: None,
        }
    }

    /// Whether the version is a tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// The commit timestamp, if committed.
    pub fn commit_time(&self) -> Option<Timestamp> {
        self.state.commit_time()
    }

    /// The sort position of this version within its key's history.
    pub fn order(&self) -> VersionOrder {
        self.state.into()
    }

    /// The intra-node sort key `(key, order)`, borrowed — comparing two
    /// sort keys never clones or allocates.
    pub fn sort_key(&self) -> (&Key, VersionOrder) {
        (&self.key, self.order())
    }

    /// Compares two versions by their intra-node sort order
    /// `(key, version order)` without cloning either.
    pub fn sort_cmp(&self, other: &Version) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.order().cmp(&other.order()))
    }

    /// Approximate in-memory / on-page size of the version (used by split
    /// policies and by space accounting before encoding).
    pub fn payload_len(&self) -> usize {
        self.value.as_ref().map_or(0, Vec::len)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Some(v) => write!(f, "{} {} ({} bytes)", self.key, self.state, v.len()),
            None => write!(f, "{} {} <tombstone>", self.key, self.state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_constructors() {
        let v = Version::committed(50u64, Timestamp(3), b"Joe".to_vec());
        assert_eq!(v.commit_time(), Some(Timestamp(3)));
        assert!(!v.is_tombstone());
        assert_eq!(v.payload_len(), 3);

        let t = Version::tombstone(50u64, Timestamp(9));
        assert!(t.is_tombstone());
        assert_eq!(t.payload_len(), 0);

        let u = Version::uncommitted(60u64, TxnId(7), b"Pete".to_vec());
        assert!(u.state.is_uncommitted());
        assert_eq!(u.state.txn_id(), Some(TxnId(7)));
        assert_eq!(u.commit_time(), None);
    }

    #[test]
    fn uncommitted_sorts_after_committed() {
        let committed_late = VersionOrder::Committed(Timestamp::MAX);
        let uncommitted = VersionOrder::Uncommitted(TxnId(1));
        assert!(committed_late < uncommitted);

        let a = Version::committed(1u64, Timestamp(5), b"a".to_vec());
        let b = Version::uncommitted(1u64, TxnId(0), b"b".to_vec());
        assert!(a.sort_key() < b.sort_key());
    }

    #[test]
    fn display_forms() {
        let v = Version::committed(50u64, Timestamp(3), b"Joe".to_vec());
        assert_eq!(format!("{v}"), "50 T=3 (3 bytes)");
        let t = Version::tombstone(50u64, Timestamp(4));
        assert!(format!("{t}").contains("tombstone"));
        let u = Version::uncommitted(60u64, TxnId(7), b"x".to_vec());
        assert!(format!("{u}").contains("uncommitted(txn7)"));
    }
}
