//! B2: query latency on a prebuilt multiversion database — current lookups,
//! as-of lookups, snapshot range scans, and version-history scans (the
//! paper's §2.5/§3.7 query classes) — plus historical as-of lookups that
//! miss every cache and read a file-backed WORM store, from one thread and
//! from two.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tsb_common::{
    FsyncPolicy, Key, KeyRange, SplitPolicyKind, SplitTimeChoice, TimeRange, Timestamp, TsbConfig,
};
use tsb_core::{ConcurrentTsb, Node, NodeAddr, TsbTree};
use tsb_workload::{generate_ops, Op, WorkloadSpec};

use tsb_bench::measure::experiment_config;

fn build_db(ops_count: usize, keys: u64) -> (TsbTree, Vec<Timestamp>) {
    let cfg = experiment_config(SplitPolicyKind::default(), SplitTimeChoice::LastUpdate);
    build_db_with(cfg, ops_count, keys)
}

fn build_db_with(cfg: TsbConfig, ops_count: usize, keys: u64) -> (TsbTree, Vec<Timestamp>) {
    let spec = WorkloadSpec::default()
        .with_ops(ops_count)
        .with_keys(keys)
        .with_update_ratio(4.0)
        .with_value_size(100);
    let mut tree = tsb_core::TsbOptions::in_memory()
        .config(cfg)
        .open_tree()
        .unwrap();
    let mut stamps = Vec::new();
    for op in generate_ops(&spec) {
        match op {
            Op::Put { key, value } => stamps.push(tree.insert(key, value).unwrap()),
            Op::Delete { key } => stamps.push(tree.delete(key).unwrap()),
        }
    }
    (tree, stamps)
}

fn bench_queries(c: &mut Criterion) {
    let (tree, stamps) = build_db(8_000, 800);
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

/// Descent cost with and without the decoded-node cache: the warm path is a
/// hash lookup per node, the cold path pays one device read and one decode
/// per level of the root-to-leaf walk.
fn bench_descent_cache(c: &mut Criterion) {
    let (tree, _) = build_db(8_000, 800);
    let mut group = c.benchmark_group("B2_descent_node_cache");
    group.sample_size(30);

    group.bench_function("warm_cache_descent", |b| {
        let mut i = 0u64;
        // Pre-warm every current path once.
        for k in 0..800 {
            tree.get_current(&Key::from_u64(k)).unwrap();
        }
        b.iter(|| {
            i = (i + 7) % 800;
            tree.get_current(&Key::from_u64(i)).unwrap()
        })
    });
    group.bench_function("fully_cold_descent", |b| {
        let mut i = 0u64;
        // Node cache empty: a device read plus a decode per level. Teardown
        // is untimed.
        b.iter_batched(
            || tree.drop_caches().unwrap(),
            |()| {
                i = (i + 7) % 800;
                tree.get_current(&Key::from_u64(i)).unwrap()
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();

    // The headline number for the cache: hit rate and decodes over a warm
    // query sweep.
    let stats = tree.io_stats();
    tree.drop_caches().unwrap();
    for k in 0..800 {
        tree.get_current(&Key::from_u64(k)).unwrap();
    }
    let before = stats.snapshot();
    for k in 0..800 {
        tree.get_current(&Key::from_u64(k)).unwrap();
    }
    let delta = stats.snapshot().delta_since(&before);
    println!(
        "warm sweep over 800 keys: node-cache hit rate {:.3}, {} decodes, {} node accesses",
        delta.node_cache_hit_rate().unwrap_or(0.0),
        delta.node_decodes,
        delta.total_node_accesses(),
    );
}

/// What a historical node costs when it misses the decoded-node cache, the
/// device aside: decode the image, answer one point lookup, drop the node.
/// `read_node_bypass` stands in for the miss — it neither consults nor fills
/// the node cache, and the in-memory WORM makes the read a `memcpy` — over a
/// ring of distinct nodes, so no image stays hot in L1. Engine-default 4 KiB
/// pages: about 30 versions to a leaf, 50 children to an index node.
fn bench_historical_miss(c: &mut Criterion) {
    const RING: usize = 512;
    const KEYS: u64 = 2_000;
    let (tree, stamps) = build_db_with(TsbConfig::default(), 200_000, KEYS);
    let mut leaves: Vec<(NodeAddr, Key, Timestamp)> = Vec::new();
    let mut indexes = leaves.clone();
    // Probe the older half of history, which has all migrated.
    for i in 0..20_000usize {
        let key = Key::from_u64((i as u64 * 7) % KEYS);
        let ts = stamps[(i * 7919) % (stamps.len() / 2)];
        let path = tree.lookup_path(&key, ts).unwrap();
        for (depth, addr) in path.iter().enumerate() {
            let ring = if depth + 1 == path.len() {
                &mut leaves
            } else {
                &mut indexes
            };
            if addr.is_historical() && ring.len() < RING && ring.iter().all(|(a, ..)| a != addr) {
                ring.push((*addr, key.clone(), ts));
            }
        }
    }
    let mut group = c.benchmark_group("B2_historical_miss");
    group.sample_size(30);
    for (kind, ring) in [("leaf", &leaves), ("index", &indexes)] {
        if ring.is_empty() {
            println!("B2_historical_miss/{kind}: no historical {kind} node in this build");
            continue;
        }
        let mut entries = 0usize;
        let mut i = 0usize;
        group.bench_function(format!("{kind}_{}_nodes", ring.len()), |b| {
            b.iter(|| {
                i = (i + 1) % ring.len();
                let (addr, key, ts) = &ring[i];
                match tree.read_node_bypass(*addr).unwrap() {
                    Node::Data(leaf) => {
                        entries = leaf.len();
                        leaf.find_as_of(key, *ts).map(|v| v.value.map(<[u8]>::len))
                    }
                    Node::Index(index) => {
                        entries = index.len();
                        index
                            .find_child(key, *ts)
                            .map(|e| Some(e.child.is_current() as usize))
                    }
                }
            })
        });
        println!("    (last {kind} node decoded held {entries} entries)");
    }
    group.finish();
}

/// Historical as-of lookups against a file-backed WORM store with a node
/// cache far smaller than the history, so nearly every lookup decodes a
/// historical node read from the device. One iteration is 2 000 lookups per
/// thread; the pair shows what a second reader adds.
fn bench_historical_readers(c: &mut Criterion) {
    const KEYS: u64 = 2_000;
    const GENERATIONS: u64 = 40;
    const LOOKUPS: u64 = 2_000;

    let dir = std::env::temp_dir().join(format!("tsb-bench-historical-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = TsbConfig::default().with_node_cache_entries(64);
    let db: ConcurrentTsb = tsb_core::TsbOptions::durable(&dir)
        .config(cfg)
        .fsync(FsyncPolicy::Os)
        .open_concurrent()
        .unwrap();
    let mut last = Timestamp::ZERO;
    for gen in 0..GENERATIONS {
        for key in 0..KEYS {
            last = db.insert(key, vec![gen as u8; 100]).unwrap();
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
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_queries,
    bench_descent_cache,
    bench_historical_miss,
    bench_historical_readers
);
criterion_main!(benches);
