//! B3: whole-tree warm descents. Every node on the path is a cache hit, so
//! what a lookup costs is the routing inside each index node (a binary
//! search of its current region, and of its historical region for a past
//! time) and the leaf's binary search.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tsb_common::Key;
use tsb_core::EngineHandle;

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

criterion_group!(benches, bench_warm_tree_descent);
criterion_main!(benches);
