//! The workspace error type.
//!
//! All fallible operations across `tsb-storage`, `tsb-core`, and `tsb-wobt`
//! return [`TsbResult`]. The error type is hand-written (no `thiserror`) to
//! keep the dependency set to the approved list.

use std::fmt;
use std::io;

use crate::key::Key;
use crate::record::TxnId;

/// Result alias used across the workspace.
pub type TsbResult<T> = Result<T, TsbError>;

/// Errors produced by the TSB-tree, the WOBT baseline, and the storage
/// substrate.
#[derive(Debug)]
pub enum TsbError {
    /// An underlying I/O error from a file-backed store.
    Io(io::Error),
    /// A page, node, or historical record failed to decode.
    Corruption(String),
    /// An entry is too large to ever fit in a node of the configured size.
    EntryTooLarge {
        /// Encoded size of the offending entry in bytes.
        entry_size: usize,
        /// Usable capacity of a node in bytes.
        capacity: usize,
    },
    /// A key exceeds the configured maximum key length.
    KeyTooLarge {
        /// Length of the offending key.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// Attempt to rewrite an already-written WORM sector.
    WormRewrite {
        /// Index of the sector that was already written.
        sector: u64,
    },
    /// Attempt to read beyond the end of the WORM store or outside a written
    /// region.
    WormOutOfBounds {
        /// Byte offset of the attempted read.
        offset: u64,
        /// Length of the attempted read.
        len: u64,
    },
    /// A page id does not refer to an allocated page.
    PageNotFound(u64),
    /// A write-write conflict: another in-flight transaction already has an
    /// uncommitted version of the key.
    WriteConflict {
        /// The contended key.
        key: Key,
        /// The transaction currently holding the uncommitted version.
        holder: TxnId,
    },
    /// The transaction id is not active (already committed, aborted, or never
    /// begun).
    TxnNotActive(TxnId),
    /// A structural invariant was violated (reported by the verifier or by
    /// internal consistency checks).
    InvariantViolation(String),
    /// Invalid configuration.
    Config(String),
    /// An internal assumption failed; indicates a bug in this library.
    Internal(String),
    /// A mutation was attempted against a read-only engine (a replication
    /// replica). Writes must go to the primary.
    ReadOnly,
    /// A replication subscriber presented a promotion epoch older than the
    /// primary's. The subscriber is a demoted (or partitioned) former
    /// primary and must re-bootstrap from the current primary.
    StaleEpoch {
        /// Epoch presented by the subscriber.
        theirs: u64,
        /// Epoch held by the serving primary.
        ours: u64,
    },
    /// The server is shedding load: the connection limit is reached.
    /// Recoverable — retry against another endpoint or after backoff.
    Overloaded(String),
    /// A client-side per-operation deadline expired before the operation
    /// completed. The operation may or may not have taken effect on the
    /// server; idempotent operations are safe to retry.
    DeadlineExceeded(String),
    /// A data directory was written in an on-disk layout this version no
    /// longer opens. Nothing in it was changed; there is no migration.
    OldLayout(String),
}

impl TsbError {
    /// Convenience constructor for corruption errors.
    pub fn corruption(msg: impl Into<String>) -> Self {
        TsbError::Corruption(msg.into())
    }

    /// Convenience constructor for invariant violations.
    pub fn invariant(msg: impl Into<String>) -> Self {
        TsbError::InvariantViolation(msg.into())
    }

    /// Convenience constructor for internal errors.
    pub fn internal(msg: impl Into<String>) -> Self {
        TsbError::Internal(msg.into())
    }

    /// Convenience constructor for configuration errors.
    pub fn config(msg: impl Into<String>) -> Self {
        TsbError::Config(msg.into())
    }

    /// Stable one-byte code for this error, carried in `tsb-server`'s wire
    /// protocol so remote clients can dispatch on the error class without
    /// parsing the display string. Codes are append-only: a released code
    /// is never renumbered (see `docs/protocol.md`). Code `0` is reserved
    /// for "no error" and never returned here.
    pub fn wire_code(&self) -> u8 {
        match self {
            TsbError::Io(_) => 1,
            TsbError::Corruption(_) => 2,
            TsbError::EntryTooLarge { .. } => 3,
            TsbError::KeyTooLarge { .. } => 4,
            TsbError::WormRewrite { .. } => 5,
            TsbError::WormOutOfBounds { .. } => 6,
            TsbError::PageNotFound(_) => 7,
            // 8 is retired and never reused.
            TsbError::WriteConflict { .. } => 9,
            TsbError::TxnNotActive(_) => 10,
            TsbError::InvariantViolation(_) => 11,
            TsbError::Config(_) => 12,
            // 13 is retired and never reused.
            TsbError::Internal(_) => 14,
            TsbError::ReadOnly => 15,
            TsbError::StaleEpoch { .. } => 16,
            TsbError::OldLayout(_) => 17,
            // 20..=22 are protocol-layer frame errors minted by tsb-server;
            // overload shedding and deadline expiry sit above them because
            // they are connection-lifecycle conditions, not engine faults.
            TsbError::Overloaded(_) => 23,
            TsbError::DeadlineExceeded(_) => 24,
        }
    }

    /// Human-readable name of a wire code, including the protocol-layer
    /// codes (`20..`) minted by `tsb-server` itself for frame/verb errors.
    pub fn wire_code_name(code: u8) -> &'static str {
        match code {
            0 => "ok",
            1 => "io",
            2 => "corruption",
            3 => "entry-too-large",
            4 => "key-too-large",
            5 => "worm-rewrite",
            6 => "worm-out-of-bounds",
            7 => "page-not-found",
            9 => "write-conflict",
            10 => "txn-not-active",
            11 => "invariant-violation",
            12 => "config",
            14 => "internal",
            15 => "read-only",
            16 => "stale-epoch",
            17 => "old-layout",
            20 => "protocol-malformed-frame",
            21 => "protocol-oversized-frame",
            22 => "protocol-unknown-verb",
            23 => "overloaded",
            24 => "deadline-exceeded",
            _ => "unknown",
        }
    }
}

impl fmt::Display for TsbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsbError::Io(e) => write!(f, "i/o error: {e}"),
            TsbError::Corruption(msg) => write!(f, "corruption: {msg}"),
            TsbError::EntryTooLarge {
                entry_size,
                capacity,
            } => write!(
                f,
                "entry of {entry_size} bytes cannot fit in a node of capacity {capacity} bytes"
            ),
            TsbError::KeyTooLarge { len, max } => {
                write!(f, "key of {len} bytes exceeds the maximum of {max} bytes")
            }
            TsbError::WormRewrite { sector } => {
                write!(f, "attempt to rewrite write-once sector {sector}")
            }
            TsbError::WormOutOfBounds { offset, len } => write!(
                f,
                "read of {len} bytes at offset {offset} is outside the written WORM region"
            ),
            TsbError::PageNotFound(id) => write!(f, "page {id} is not allocated"),
            TsbError::WriteConflict { key, holder } => write!(
                f,
                "write-write conflict on key {key}: uncommitted version held by {holder}"
            ),
            TsbError::TxnNotActive(id) => write!(f, "transaction {id} is not active"),
            TsbError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            TsbError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            TsbError::Internal(msg) => write!(f, "internal error (library bug): {msg}"),
            TsbError::ReadOnly => {
                write!(
                    f,
                    "engine is read-only (replica): writes must go to the primary"
                )
            }
            TsbError::StaleEpoch { theirs, ours } => write!(
                f,
                "stale promotion epoch {theirs}: primary is at epoch {ours}; \
                 re-bootstrap from the current primary"
            ),
            TsbError::Overloaded(msg) => write!(f, "server overloaded: {msg}"),
            TsbError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            TsbError::OldLayout(msg) => write!(f, "old on-disk layout: {msg}"),
        }
    }
}

impl std::error::Error for TsbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TsbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TsbError {
    fn from(e: io::Error) -> Self {
        TsbError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TsbError::WormRewrite { sector: 7 };
        assert!(e.to_string().contains("sector 7"));

        let e = TsbError::WriteConflict {
            key: Key::from_u64(42),
            holder: TxnId(3),
        };
        assert!(e.to_string().contains("42"));
        assert!(e.to_string().contains("txn3"));

        let e = TsbError::EntryTooLarge {
            entry_size: 9000,
            capacity: 4000,
        };
        assert!(e.to_string().contains("9000"));
        assert!(e.to_string().contains("4000"));
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        let io_err = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: TsbError = io_err.into();
        assert!(matches!(e, TsbError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn wire_codes_are_distinct_nonzero_and_named() {
        let errs = [
            TsbError::Io(io::Error::other("x")),
            TsbError::corruption("x"),
            TsbError::EntryTooLarge {
                entry_size: 1,
                capacity: 0,
            },
            TsbError::KeyTooLarge { len: 1, max: 0 },
            TsbError::WormRewrite { sector: 0 },
            TsbError::WormOutOfBounds { offset: 0, len: 0 },
            TsbError::PageNotFound(0),
            TsbError::WriteConflict {
                key: Key::from_u64(1),
                holder: TxnId(1),
            },
            TsbError::TxnNotActive(TxnId(1)),
            TsbError::invariant("x"),
            TsbError::config("x"),
            TsbError::internal("x"),
            TsbError::ReadOnly,
            TsbError::StaleEpoch { theirs: 1, ours: 2 },
            TsbError::Overloaded("x".into()),
            TsbError::DeadlineExceeded("x".into()),
            TsbError::OldLayout("x".into()),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for e in &errs {
            let code = e.wire_code();
            assert_ne!(code, 0, "0 is reserved for ok");
            assert!(seen.insert(code), "duplicate wire code {code}");
            assert_ne!(TsbError::wire_code_name(code), "unknown");
        }
        assert!(!seen.contains(&8), "code 8 is retired, never reused");
        assert!(!seen.contains(&13), "code 13 is retired, never reused");
        assert_eq!(TsbError::wire_code_name(0), "ok");
        assert_eq!(TsbError::wire_code_name(255), "unknown");
    }

    #[test]
    fn constructors() {
        assert!(matches!(
            TsbError::corruption("bad magic"),
            TsbError::Corruption(_)
        ));
        assert!(matches!(
            TsbError::invariant("overlap"),
            TsbError::InvariantViolation(_)
        ));
        assert!(matches!(TsbError::internal("bug"), TsbError::Internal(_)));
        assert!(matches!(TsbError::config("bad"), TsbError::Config(_)));
    }
}
