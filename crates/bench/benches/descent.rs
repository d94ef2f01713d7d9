//! B3: index-node routing latency vs fanout, and whole-tree warm descents.
//!
//! `IndexNode::find_child` routes every level of every descent. This bench
//! measures the partitioned (binary-search) routing against the linear
//! reference scan (`find_child_linear` — exactly what every descent paid
//! before this optimisation) on synthetic index nodes of fanout 16, 64, and
//! 256, at both `ts == Timestamp::MAX` (the insert / current-lookup /
//! commit descent) and a past timestamp (as-of descents through the
//! historical region). A whole-tree warm `get_current` bench shows the
//! end-to-end effect with the node cache already hot.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tsb_bench::experiments::descent_fanout::{synthetic_node, STRIDE};
use tsb_common::{Key, Timestamp};
use tsb_core::EngineHandle;

fn bench_descent_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("B3_descent_fanout");
    for fanout in [16u64, 64, 256] {
        let node = synthetic_node(fanout);
        let keyspace = fanout * STRIDE;
        let probes: Vec<Key> = (0..keyspace).step_by(7).map(Key::from_u64).collect();

        group.bench_function(format!("fanout_{fanout}_current_binary"), |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(node.find_child(&probes[i], Timestamp::MAX))
            })
        });
        group.bench_function(format!("fanout_{fanout}_current_linear"), |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(node.find_child_linear(&probes[i], Timestamp::MAX))
            })
        });
        group.bench_function(format!("fanout_{fanout}_past_binary"), |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(node.find_child(&probes[i], Timestamp(50)))
            })
        });
        group.bench_function(format!("fanout_{fanout}_past_linear"), |b| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                black_box(node.find_child_linear(&probes[i], Timestamp(50)))
            })
        });
    }
    group.finish();
}

/// Whole-tree warm current lookups: every node on the path is a cache hit,
/// so routing and leaf binary search are all that remains.
fn bench_warm_tree_descent(c: &mut Criterion) {
    let keys = 2_000u64;
    let cfg = tsb_common::TsbConfig::small_pages().with_node_cache_entries(16_384);
    let tree = tsb_core::TsbOptions::in_memory()
        .config(cfg)
        .open()
        .unwrap();
    for round in 0..3 {
        for k in 0..keys {
            tree.insert(Key::from_u64(k), format!("v{round}").into_bytes())
                .unwrap();
        }
    }
    for k in 0..keys {
        tree.get_current(&Key::from_u64(k)).unwrap();
    }

    let mut group = c.benchmark_group("B3_warm_tree_descent");
    group.bench_function("get_current_warm", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % keys;
            black_box(tree.get_current(&Key::from_u64(i)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_descent_fanout, bench_warm_tree_descent);
criterion_main!(benches);
