//! # tsb-bench
//!
//! The experiment harness for the TSB-tree reproduction. The SIGMOD '89
//! paper contains no measured evaluation tables; §5 defines the evaluation
//! the authors planned — *total space use, space use in the current
//! database, and amount of redundancy, under different splitting policies
//! and with different rates of update versus insertion* — and the rest of
//! the paper motivates query-cost and WORM-utilization comparisons against
//! the Write-Once B-tree. E1–E8 regenerate those tables, E9, E10, E12 and
//! E15 price the engine built around them; each writes through a one-shard
//! `ShardedTsb`:
//!
//! * **E1** total space by splitting policy,
//! * **E2** current-database (magnetic) space by policy,
//! * **E3** redundancy by policy and by split-time choice (§3.3 / Figure 6),
//! * **E4** the update:insert ratio sweep,
//! * **E5** the storage cost function `CS = SpaceM·CM + SpaceO·CO` under
//!   different device price ratios, with the cost-based policy,
//! * **E6** query cost (node accesses and device-weighted time) for current
//!   lookups, as-of lookups, range scans, and version histories,
//! * **E7** WORM sector utilization: TSB consolidation vs. the WOBT's
//!   one-entry-per-sector writes,
//! * **E8** head-to-head: TSB-tree vs. WOBT vs. a single-store versioned
//!   B+-tree baseline,
//! * **E9** ablations (recalcitrant-child marking, split fill threshold),
//! * **E10** reader throughput under one writer,
//! * **E12** crash-consistent reopen time by ops since the last
//!   checkpoint, **E15** replica read scale-out and lag.
//!
//! What fsync policy, group commit, served pipelining and sharding cost
//! per write is measured by the repo benchmark (`BENCHMARK.json`) and
//! pinned by counted tests, not by tables here. What index routing costs
//! inside a node is timed end to end by the `B3_warm_tree_descent` bench.
//!
//! Run everything with `cargo run -p tsb-bench --bin experiments --release`,
//! or a single experiment with e.g. `... -- e3`. Criterion micro-benchmarks
//! (B1–B5) live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod report;

pub use measure::{measure_tsb, measure_wobt, Measurement, Scale};
pub use report::Table;
