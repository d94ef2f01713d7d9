//! B2: query latency on a prebuilt multiversion database — current lookups,
//! as-of lookups, snapshot range scans, and version-history scans (the
//! paper's §2.5/§3.7 query classes) — plus historical as-of lookups that
//! miss every cache and read a file-backed WORM store, from one thread and
//! from two. The cache-miss groups write through a durable engine and
//! reopen its directory with a small node cache that recovery leaves full,
//! as a serving engine's is.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tsb_common::{
    FsyncPolicy, Key, KeyRange, SplitPolicyKind, SplitTimeChoice, TimeRange, Timestamp, TsbConfig,
};
use tsb_core::{EngineHandle, ShardedTsb, TsbOptions};
use tsb_workload::{generate_ops, Op, WorkloadSpec};

use tsb_bench::measure::experiment_config;

fn default_cfg() -> TsbConfig {
    experiment_config(SplitPolicyKind::default(), SplitTimeChoice::LastUpdate)
}

/// Writes an update-heavy history through `opts`' engine, returning it and
/// every commit's timestamp.
fn build_db(opts: TsbOptions, ops_count: usize, keys: u64) -> (ShardedTsb, Vec<Timestamp>) {
    let spec = WorkloadSpec::default()
        .with_ops(ops_count)
        .with_keys(keys)
        .with_update_ratio(4.0)
        .with_value_size(100);
    let db = opts.open().unwrap();
    let mut stamps = Vec::new();
    for op in generate_ops(&spec) {
        match op {
            Op::Put { key, value } => stamps.push(db.insert(key, value).unwrap()),
            Op::Delete { key } => stamps.push(db.delete(key).unwrap()),
        }
    }
    (db, stamps)
}

/// A scratch directory for the on-disk builds, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("tsb-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Node-cache entries of the engines the cache-miss groups reopen: far
/// fewer than the trees have leaves.
const SMALL_CACHE: usize = 16;

/// [`build_db`] through a durable engine at `dir`, checkpointed (every page
/// on the device), returning the options that reopen it and every commit's
/// timestamp.
fn build_on_disk(
    dir: &TempDir,
    cfg: TsbConfig,
    ops_count: usize,
    keys: u64,
) -> (TsbOptions, Vec<Timestamp>) {
    let opts = TsbOptions::durable(&dir.0)
        .config(cfg)
        .fsync(FsyncPolicy::Os);
    let (db, stamps) = build_db(opts.clone(), ops_count, keys);
    db.checkpoint().unwrap();
    (opts, stamps)
}

/// Reopens `opts`' directory with a node cache of `entries` nodes.
fn reopen(opts: &TsbOptions, cfg: TsbConfig, entries: usize) -> ShardedTsb {
    opts.clone()
        .config(cfg.with_node_cache_entries(entries))
        .fsync(FsyncPolicy::Os)
        .open()
        .unwrap()
}

fn bench_queries(c: &mut Criterion) {
    let (tree, stamps) = build_db(TsbOptions::in_memory().config(default_cfg()), 8_000, 800);
    let mid_ts = stamps[stamps.len() / 2];
    let mut group = c.benchmark_group("B2_query_latency");
    group.sample_size(30);

    group.bench_function("current_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 800;
            tree.get_current(&Key::from_u64(i)).unwrap()
        })
    });
    group.bench_function("as_of_get_mid_history", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 800;
            tree.get_as_of(&Key::from_u64(i), mid_ts).unwrap()
        })
    });
    group.bench_function("range_scan_64_keys_current", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 700;
            let range = KeyRange::bounded(Key::from_u64(i), Key::from_u64(i + 64));
            tree.scan_current(&range).unwrap()
        })
    });
    group.bench_function("range_scan_64_keys_as_of", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 700;
            let range = KeyRange::bounded(Key::from_u64(i), Key::from_u64(i + 64));
            tree.scan_as_of(&range, mid_ts).unwrap()
        })
    });
    group.bench_function("version_history", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 800;
            tree.versions(&Key::from_u64(i)).unwrap()
        })
    });
    // One key's history over a window centred on the middle of the time
    // axis: node reads follow the window's share of it.
    let axis = stamps.last().unwrap().value();
    for pct in [1, 10, 100] {
        let half = (axis * pct / 200).max(1);
        let window = TimeRange::bounded(
            Timestamp(mid_ts.value().saturating_sub(half)),
            Timestamp(mid_ts.value() + half),
        );
        group.bench_function(format!("history_window_{pct}pct"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7) % 800;
                tree.history_between(&Key::from_u64(i), window).unwrap()
            })
        });
    }
    group.bench_function("full_snapshot_mid_history", |b| {
        b.iter(|| tree.snapshot_at(mid_ts).unwrap())
    });
    group.finish();
}

/// Descent cost with the current tree in the decoded-node cache and with a
/// small, full one: the warm path is a hash lookup per node; through the
/// small cache a lookup pays a device read (from the OS page cache) and a
/// decode for its leaf, and for each index node on its path that lost its
/// cache shard to another index node (leaves are evicted first). The bench
/// prints the decodes per lookup.
fn bench_descent_cache(c: &mut Criterion) {
    let dir = TempDir::new("descent-cache");
    let (opts, _) = build_on_disk(&dir, default_cfg(), 8_000, 800);
    let mut group = c.benchmark_group("B2_descent_node_cache");
    group.sample_size(30);

    let db = reopen(&opts, default_cfg(), default_cfg().node_cache_entries);
    // Pre-warm every current path once.
    for k in 0..800 {
        db.get_current(&Key::from_u64(k)).unwrap();
    }
    group.bench_function("warm_cache_descent", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 800;
            db.get_current(&Key::from_u64(i)).unwrap()
        })
    });
    // The headline number for the cache: hit rate and decodes over a warm
    // query sweep.
    let before = db.io_snapshot();
    for k in 0..800 {
        db.get_current(&Key::from_u64(k)).unwrap();
    }
    let delta = db.io_snapshot().delta_since(&before);
    println!(
        "warm sweep over 800 keys: node-cache hit rate {:.3}, {} decodes, {} node accesses",
        delta.node_cache_hit_rate().unwrap_or(0.0),
        delta.node_decodes,
        delta.total_node_accesses(),
    );
    drop(db);

    let db = reopen(&opts, default_cfg(), SMALL_CACHE);
    let before = db.io_snapshot();
    let mut lookups = 0u64;
    group.bench_function(format!("cache_{SMALL_CACHE}_descent"), |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 800;
            lookups += 1;
            db.get_current(&Key::from_u64(i)).unwrap()
        })
    });
    group.finish();
    let delta = db.io_snapshot().delta_since(&before);
    println!(
        "    ({SMALL_CACHE}-node cache: {:.2} decodes per lookup)",
        delta.node_decodes as f64 / lookups.max(1) as f64
    );
}

/// What a historical as-of lookup costs when its leaf misses the node
/// cache: a small, full cache (leaves evicted first; the decodes per lookup
/// are printed), the WORM file in the OS page cache so a read is one
/// `pread`, and a ring
/// of probes into the older half of history, which has all migrated, so
/// each lookup lands on a leaf another probe evicted. Engine-default 4 KiB
/// pages: about 30 versions to a leaf, 50 children to an index node.
fn bench_historical_miss(c: &mut Criterion) {
    const RING: usize = 512;
    const KEYS: u64 = 2_000;
    let dir = TempDir::new("historical-miss");
    let (opts, stamps) = build_on_disk(&dir, TsbConfig::default(), 200_000, KEYS);
    let db = reopen(&opts, TsbConfig::default(), SMALL_CACHE);
    let ring: Vec<(Key, Timestamp)> = (0..RING)
        .map(|i| {
            let key = Key::from_u64((i as u64 * 7) % KEYS);
            (key, stamps[(i * 7919) % (stamps.len() / 2)])
        })
        .collect();
    let mut group = c.benchmark_group("B2_historical_miss");
    group.sample_size(30);
    let before = db.io_snapshot();
    let mut lookups = 0u64;
    group.bench_function(format!("as_of_get_{RING}_probes"), |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % RING;
            lookups += 1;
            let (key, ts) = &ring[i];
            db.get_as_of(key, *ts).unwrap()
        })
    });
    group.finish();
    let delta = db.io_snapshot().delta_since(&before);
    println!(
        "    ({SMALL_CACHE}-node cache: {:.2} decodes per lookup)",
        delta.node_decodes as f64 / lookups.max(1) as f64
    );
}

/// Historical as-of lookups against a file-backed WORM store with a node
/// cache far smaller than the history, so nearly every lookup decodes a
/// historical node read from the device. One iteration is 2 000 lookups per
/// thread; the pair shows what a second reader adds.
fn bench_historical_readers(c: &mut Criterion) {
    const KEYS: u64 = 2_000;
    const GENERATIONS: u64 = 40;
    const LOOKUPS: u64 = 2_000;

    let dir = TempDir::new("historical");
    let cfg = TsbConfig::default().with_node_cache_entries(64);
    let db: ShardedTsb = tsb_core::TsbOptions::durable(&dir.0)
        .config(cfg)
        .fsync(FsyncPolicy::Os)
        .open()
        .unwrap();
    let mut last = Timestamp::ZERO;
    for gen in 0..GENERATIONS {
        for key in 0..KEYS {
            last = db.insert(Key::from_u64(key), vec![gen as u8; 100]).unwrap();
        }
    }
    // Lookups land in the older half of history, which has all migrated.
    let reader = |thread: u64| {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(thread + 1);
        for _ in 0..LOOKUPS {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = Key::from_u64((rng >> 33) % KEYS);
            let ts = Timestamp(KEYS + (rng >> 11) % (last.value() / 2));
            criterion::black_box(db.get_as_of(&key, ts).unwrap());
        }
    };

    let mut group = c.benchmark_group("B2_as_of_get_historical");
    for threads in [1u64, 2] {
        group.throughput(Throughput::Elements(threads * LOOKUPS));
        group.bench_function(format!("{threads}_thread"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for thread in 0..threads {
                        scope.spawn(move || reader(thread));
                    }
                })
            })
        });
    }
    group.finish();
    println!(
        "cores available: {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
}

criterion_group!(
    benches,
    bench_queries,
    bench_descent_cache,
    bench_historical_miss,
    bench_historical_readers
);
criterion_main!(benches);
