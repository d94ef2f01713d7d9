//! # tsb-common
//!
//! Shared vocabulary types for the Time-Split B-tree (TSB-tree) workspace, a
//! reproduction of Lomet & Salzberg, *Access Methods for Multiversion Data*,
//! SIGMOD 1989.
//!
//! This crate deliberately has no dependencies. It defines:
//!
//! * [`Interval`] and [`UpperBound`] — the one half-open interval type, used
//!   for both axes of the key × time rectangle every TSB-tree node spans,
//! * [`Key`], with [`KeyBound`] and [`KeyRange`] naming the interval over
//!   keys — the key dimension,
//! * [`Timestamp`] and [`LogicalClock`], with [`TimeBound`] and
//!   [`TimeRange`] naming the interval over timestamps — the time dimension
//!   (the paper assumes a *rollback* database stamped with transaction
//!   commit times),
//! * [`Version`], [`TsState`], and [`TxnId`] — a single record version as
//!   stored in data nodes (committed versions carry a commit timestamp;
//!   uncommitted versions carry only the transaction id, which is what lets
//!   them be erased on abort and never migrated to the historical store),
//! * [`TsbError`] / [`TsbResult`] — the workspace error type,
//! * [`TsbConfig`] and the split-policy parameter types,
//! * [`encode`] — the hand-rolled binary encoding helpers used by the precise
//!   page layouts in `tsb-storage`, `tsb-core`, and `tsb-wobt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod config;
pub mod encode;
pub mod error;
pub mod interval;
pub mod key;
pub mod record;
pub mod time;

pub use config::{CostParams, FsyncPolicy, SplitPolicyKind, SplitTimeChoice, TsbConfig};
pub use error::{TsbError, TsbResult};
pub use interval::{Interval, UpperBound};
pub use key::{Key, KeyBound, KeyRange, KEY_INLINE_CAP};
pub use record::{TsState, TxnId, Version, VersionOrder};
pub use time::{LogicalClock, TimeBound, TimeRange, Timestamp};
