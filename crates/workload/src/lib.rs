//! # tsb-workload
//!
//! Workload generation and ground truth for the TSB-tree reproduction.
//!
//! The paper's planned evaluation (§5) varies the **rate of update versus
//! insertion** and measures space and redundancy under different splitting
//! policies; its motivating examples are stepwise-constant histories such as
//! account balances (Figure 1) and non-deleting record keeping (transcripts,
//! engineering design versions, medical records). This crate provides:
//!
//! * [`KeyDistribution`] — uniform / zipfian / sequential / hotspot key
//!   choice,
//! * [`WorkloadSpec`] / [`generate_ops`] — parameterized operation streams
//!   (insert : update : delete mix, value sizes, deterministic seeds),
//! * [`scenarios`] — the named scenarios used by the examples and
//!   experiments (bank ledger, personnel records, engineering versions),
//! * [`QueryMix`] / [`generate_queries`] — read workloads (current lookups,
//!   as-of lookups, range scans, version histories) sampled from an executed
//!   history,
//! * [`Oracle`] — an in-memory multiversion map answering the same queries
//!   as the TSB-tree; integration and property tests use it as ground truth,
//! * [`ConcurrentSpec`] — deterministic concurrent scenarios: one scripted
//!   writer stream plus per-reader query plans whose read times are pinned
//!   as fractions of the installed history, so multi-threaded runs stay
//!   oracle-checkable (see [`concurrent`]),
//! * [`DurableDriveSpec`] / [`drive_engine`] — a closed-loop
//!   multi-threaded durable write driver: N writer threads each commit
//!   their next op only after the previous was acknowledged, measuring how
//!   many commits share each fsync under the engine's group-commit
//!   pipeline (see [`durable`]),
//! * [`SocketDriveSpec`] / [`drive_socket`] — the same measurement over
//!   the wire: closed-loop and open-loop (bounded-pipeline) connection
//!   threads driving a `tsb-server` through `tsb-client`, reporting
//!   committed throughput and p50/p99 ack latency (see [`socket`]),
//! * [`CrashSpec`] / [`crash_matrix`] — crash scenarios for the durability
//!   subsystem: a deterministic op stream plus an injected device death
//!   (write budget or named crash point), driven against a WAL-attached
//!   tree by the recovery test suite (see [`crash`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod concurrent;
pub mod crash;
pub mod distributions;
pub mod durable;
pub mod equivalence;
pub mod generator;
pub mod oracle;
pub mod queries;
pub mod scenarios;
pub mod socket;

pub use chaos::{ChaosProxy, ChaosSpec, ChaosStats, Fault};
pub use concurrent::{pin_fraction, ConcurrentSpec, ReaderQuery, ReaderQueryKind};
pub use crash::{crash_matrix, CrashSpec, CrashTrigger};
pub use distributions::KeyDistribution;
pub use durable::{drive_engine, DurableDriveReport, DurableDriveSpec};
pub use equivalence::{assert_engine_matches_oracle, replay_engine};
pub use generator::{generate_ops, Op, WorkloadSpec};
pub use oracle::Oracle;
pub use queries::{generate_queries, Query, QueryMix};
pub use socket::{drive_socket, SocketDriveReport, SocketDriveSpec};
