//! Shared measurement plumbing: build a structure, replay a workload, and
//! collect exactly the quantities the paper's evaluation names.

use std::path::PathBuf;

use tsb_common::{
    CostParams, Key, KeyRange, SplitPolicyKind, SplitTimeChoice, Timestamp, TsbConfig,
};
use tsb_core::{EngineHandle, ShardedTsb, TreeStats, TsbOptions};
use tsb_wobt::{Wobt, WobtConfig, WobtStats};
use tsb_workload::{generate_queries, Op, Oracle, Query, QueryMix, WorkloadSpec};

/// Experiment scale: `Small` for CI / smoke runs, `Full` for reported
/// numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal runs used by unit tests of the harness itself.
    Tiny,
    /// Fast runs (seconds) for smoke testing: `--scale small`.
    Small,
    /// The default reporting scale.
    Full,
}

impl Scale {
    /// Number of operations per workload at this scale.
    pub fn ops(&self) -> usize {
        match self {
            Scale::Tiny => 300,
            Scale::Small => 3_000,
            Scale::Full => 20_000,
        }
    }

    /// Key-space size at this scale.
    pub fn keys(&self) -> u64 {
        match self {
            Scale::Tiny => 40,
            Scale::Small => 300,
            Scale::Full => 2_000,
        }
    }

    /// Number of read queries per query experiment.
    pub fn queries(&self) -> usize {
        match self {
            Scale::Tiny => 60,
            Scale::Small => 500,
            Scale::Full => 4_000,
        }
    }
}

/// A scratch directory under the system temp dir, unique to this process
/// and thread, removed on drop. The durable experiments (E12–E15) open
/// their engines here.
pub(crate) struct TempDir(pub(crate) PathBuf);

impl TempDir {
    /// A fresh, empty directory named after `tag`.
    pub(crate) fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tsb-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The standard experiment configuration: 1 KiB magnetic pages and the
/// paper's ~1 KB optical sectors, scaled down alongside small value sizes so
/// trees get realistically deep without needing millions of records.
pub fn experiment_config(policy: SplitPolicyKind, choice: SplitTimeChoice) -> TsbConfig {
    let mut cfg = TsbConfig::default()
        .with_page_size(1024)
        .with_worm_sector_size(1024)
        .with_split_policy(policy)
        .with_split_time_choice(choice);
    cfg.max_key_len = 64;
    cfg
}

/// The matching WOBT configuration (same sector size, 8-sector extents ≈ the
/// same 8 KiB node footprint as eight magnetic pages of history).
pub fn wobt_config() -> WobtConfig {
    WobtConfig {
        sector_size: 1024,
        node_sectors: 8,
        max_key_len: 64,
    }
}

/// The default experiment workload: the §5 setting of a mixed
/// insert/update stream (4 updates per insert unless overridden).
pub fn default_workload(scale: Scale) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_ops(scale.ops())
        .with_keys(scale.keys())
        .with_update_ratio(4.0)
        .with_value_size(100)
        .with_seed(0x5EED)
}

/// Everything measured for one structure under one workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Human-readable label (policy / structure name).
    pub label: String,
    /// Bytes on the magnetic (current) store — `SpaceM`.
    pub magnetic_bytes: u64,
    /// Bytes on the WORM (historical) store — `SpaceO`.
    pub worm_bytes: u64,
    /// Redundant version copies.
    pub redundant_copies: usize,
    /// Distinct logical versions.
    pub distinct_versions: usize,
    /// Redundancy ratio (redundant / distinct).
    pub redundancy_ratio: f64,
    /// WORM utilization (payload / device bytes), if any WORM space is used.
    pub worm_utilization: Option<f64>,
    /// Full TSB census when the structure is a TSB-tree.
    pub tree_stats: Option<TreeStats>,
    /// Full WOBT census when the structure is a WOBT.
    pub wobt_stats: Option<WobtStats>,
}

impl Measurement {
    /// Total device bytes.
    pub fn total_bytes(&self) -> u64 {
        self.magnetic_bytes + self.worm_bytes
    }

    /// Storage cost under `params`.
    pub fn storage_cost(&self, params: &CostParams) -> f64 {
        params.storage_cost(self.magnetic_bytes, self.worm_bytes)
    }
}

/// Applies `ops` to `db` in order, each acknowledged before the next.
pub fn replay(db: &ShardedTsb, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put { key, value } => {
                db.insert(key.clone(), value.clone()).expect("insert");
            }
            Op::Delete { key } => {
                db.delete(key.clone()).expect("delete");
            }
        }
    }
}

/// Replays `ops` into a fresh one-shard in-memory engine under `cfg`.
pub fn load_engine(cfg: TsbConfig, ops: &[Op]) -> ShardedTsb {
    let db = TsbOptions::in_memory()
        .config(cfg)
        .open()
        .expect("experiment config is valid");
    replay(&db, ops);
    db
}

/// Replays `ops` into a fresh TSB-tree engine with the given policy and
/// returns the engine plus its measurement.
pub fn measure_tsb(
    label: &str,
    policy: SplitPolicyKind,
    choice: SplitTimeChoice,
    ops: &[Op],
) -> (ShardedTsb, Measurement) {
    let tree = load_engine(experiment_config(policy, choice), ops);
    let stats = tree.tree_stats().expect("stats");
    let space = stats.space;
    let m = Measurement {
        label: label.to_string(),
        magnetic_bytes: space.magnetic_bytes,
        worm_bytes: space.worm_bytes,
        redundant_copies: stats.redundant_copies,
        distinct_versions: stats.distinct_versions,
        redundancy_ratio: stats.redundancy_ratio(),
        worm_utilization: space.worm_utilization(),
        tree_stats: Some(stats),
        wobt_stats: None,
    };
    (tree, m)
}

/// Replays `ops` into a fresh WOBT and returns it plus its measurement. The
/// WOBT has no magnetic component; all of its space is on the WORM device.
pub fn measure_wobt(label: &str, ops: &[Op]) -> (Wobt, Measurement) {
    let mut wobt = Wobt::new_in_memory(wobt_config()).expect("wobt config is valid");
    for op in ops {
        match op {
            Op::Put { key, value } => {
                wobt.insert(key.clone(), value.clone()).expect("insert");
            }
            Op::Delete { key } => {
                wobt.delete(key.clone()).expect("delete");
            }
        }
    }
    let stats = wobt.stats().expect("stats");
    let m = Measurement {
        label: label.to_string(),
        magnetic_bytes: 0,
        worm_bytes: stats.device_bytes,
        redundant_copies: stats.redundant_copies,
        distinct_versions: stats.distinct_versions,
        redundancy_ratio: stats.redundancy_ratio(),
        worm_utilization: Some(stats.utilization()),
        tree_stats: None,
        wobt_stats: Some(stats),
    };
    (wobt, m)
}

/// Builds the oracle for a replayed TSB-tree workload so queries can be
/// sampled from its history. The tree assigns timestamps 1, 2, 3, … in
/// operation order, which this mirrors.
pub fn oracle_for(ops: &[Op]) -> Oracle {
    let mut oracle = Oracle::new();
    for (i, op) in ops.iter().enumerate() {
        let ts = Timestamp(i as u64 + 1);
        match op {
            Op::Put { key, value } => oracle.put(key.clone(), ts, value.clone()),
            Op::Delete { key } => oracle.delete(key.clone(), ts),
        }
    }
    oracle
}

/// Average logical node accesses per query, split by device, for a TSB-tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryCost {
    /// Queries executed.
    pub queries: usize,
    /// Mean current-store node accesses per query.
    pub mean_current_accesses: f64,
    /// Mean historical-store node accesses per query.
    pub mean_historical_accesses: f64,
    /// Estimated mean access time per query in milliseconds (device-weighted
    /// with the experiment cost parameters).
    pub mean_ms: f64,
    /// Raw counter delta over the batch (node-cache hits/misses, decodes,
    /// device traffic) for the cache-behaviour columns of the reports.
    pub io_delta: tsb_storage::IoSnapshot,
}

/// Runs a query batch against a TSB-tree engine and reports mean node
/// accesses.
pub fn tsb_query_cost(tree: &ShardedTsb, queries: &[Query], params: &CostParams) -> QueryCost {
    // Settle deferred build-phase encodes first: a query-time cache miss
    // can evict a dirty node left over from building the database, and
    // that encode + page write belongs to the build, not the queries.
    tree.checkpoint().expect("node-cache flush");
    let before = tree.io_snapshot();
    for q in queries {
        run_tsb_query(tree, q);
    }
    let delta = tree.io_snapshot().delta_since(&before);
    let n = queries.len().max(1) as f64;
    let mean_current = delta.node_accesses_current as f64 / n;
    let mean_hist = delta.node_accesses_historical as f64 / n;
    QueryCost {
        queries: queries.len(),
        mean_current_accesses: mean_current,
        mean_historical_accesses: mean_hist,
        mean_ms: mean_current * params.magnetic_access_ms
            + mean_hist * (params.worm_access_ms + params.worm_mount_ms),
        io_delta: delta,
    }
}

fn run_tsb_query(tree: &ShardedTsb, q: &Query) {
    match q {
        Query::CurrentGet { key } => {
            let _ = tree.get_current(key);
        }
        Query::AsOfGet { key, ts } => {
            let _ = tree.get_as_of(key, *ts);
        }
        Query::RangeScan { range, ts } => {
            let _ = tree.scan_as_of(range, *ts);
        }
        Query::VersionHistory { key } => {
            let _ = tree.versions(key);
        }
    }
}

/// Runs a query batch against a WOBT and reports mean node accesses (the
/// WOBT is entirely on the optical device, so all accesses are "historical").
pub fn wobt_query_cost(wobt: &Wobt, queries: &[Query], params: &CostParams) -> QueryCost {
    let stats = wobt.io_stats();
    let before = stats.snapshot();
    for q in queries {
        match q {
            Query::CurrentGet { key } => {
                let _ = wobt.get_current(key);
            }
            Query::AsOfGet { key, ts } => {
                let _ = wobt.get_as_of(key, *ts);
            }
            Query::RangeScan { range, ts } => {
                let _ = wobt.scan_as_of(range, *ts);
            }
            Query::VersionHistory { key } => {
                let _ = wobt.versions(key);
            }
        }
    }
    let delta = stats.snapshot().delta_since(&before);
    let n = queries.len().max(1) as f64;
    let mean_hist = delta.node_accesses_historical as f64 / n;
    QueryCost {
        queries: queries.len(),
        mean_current_accesses: 0.0,
        mean_historical_accesses: mean_hist,
        mean_ms: mean_hist * (params.worm_access_ms + params.worm_mount_ms),
        io_delta: delta,
    }
}

/// Samples per-shape query batches from a workload's history.
pub fn query_batches(ops: &[Op], count: usize) -> Vec<(&'static str, Vec<Query>)> {
    let oracle = oracle_for(ops);
    let shapes: [(&'static str, QueryMix); 4] = [
        (
            "current lookup",
            QueryMix {
                current_get: 1,
                as_of_get: 0,
                range_scan: 0,
                version_history: 0,
            },
        ),
        (
            "as-of lookup",
            QueryMix {
                current_get: 0,
                as_of_get: 1,
                range_scan: 0,
                version_history: 0,
            },
        ),
        (
            "range scan (as-of)",
            QueryMix {
                current_get: 0,
                as_of_get: 0,
                range_scan: 1,
                version_history: 0,
            },
        ),
        (
            "version history",
            QueryMix {
                current_get: 0,
                as_of_get: 0,
                range_scan: 0,
                version_history: 1,
            },
        ),
    ];
    shapes
        .iter()
        .map(|(name, mix)| (*name, generate_queries(&oracle, mix, count, 0xC0FFEE)))
        .collect()
}

/// Ensures query correctness while measuring: spot checks a handful of
/// queries against the oracle (cheap insurance that the measured structure
/// is not silently wrong).
pub fn spot_check_against_oracle(tree: &ShardedTsb, ops: &[Op]) {
    let oracle = oracle_for(ops);
    let keys: Vec<Key> = oracle.keys().cloned().collect();
    for key in keys.iter().step_by((keys.len() / 20).max(1)) {
        assert_eq!(
            tree.get_current(key).expect("read"),
            oracle.get_current(key),
            "spot check failed for {key}"
        );
    }
    let times = oracle.all_timestamps();
    if !times.is_empty() {
        let mid = times[times.len() / 2];
        assert_eq!(
            tree.count_as_of(&KeyRange::full(), mid).expect("count"),
            oracle.count_as_of(&KeyRange::full(), mid)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_workload::generate_ops;

    #[test]
    fn measurements_cover_both_structures() {
        let spec = WorkloadSpec::default()
            .with_ops(400)
            .with_keys(50)
            .with_update_ratio(3.0)
            .with_value_size(40);
        let ops = generate_ops(&spec);
        let (tree, m_tsb) = measure_tsb(
            "threshold",
            SplitPolicyKind::default(),
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        assert_eq!(m_tsb.distinct_versions, 400);
        assert!(m_tsb.total_bytes() > 0);
        spot_check_against_oracle(&tree, &ops);

        let (_, m_wobt) = measure_wobt("wobt", &ops);
        assert_eq!(m_wobt.distinct_versions, 400);
        assert_eq!(m_wobt.magnetic_bytes, 0);
        assert!(m_wobt.worm_utilization.unwrap() > 0.0);

        // Query cost measurement runs and produces sane numbers.
        let params = CostParams::default();
        for (name, batch) in query_batches(&ops, 50) {
            let cost = tsb_query_cost(&tree, &batch, &params);
            assert_eq!(cost.queries, 50, "{name}");
            assert!(cost.mean_current_accesses + cost.mean_historical_accesses >= 1.0);
            assert!(cost.mean_ms > 0.0);
        }
    }

    #[test]
    fn oracle_for_mirrors_tree_timestamps() {
        let spec = WorkloadSpec::default()
            .with_ops(100)
            .with_keys(20)
            .with_value_size(16);
        let ops = generate_ops(&spec);
        let (tree, _) = measure_tsb(
            "check",
            SplitPolicyKind::default(),
            SplitTimeChoice::LastUpdate,
            &ops,
        );
        let oracle = oracle_for(&ops);
        for key in oracle.keys() {
            assert_eq!(tree.get_current(key).unwrap(), oracle.get_current(key));
        }
    }
}
