//! B1: insertion throughput of the TSB-tree under the main splitting
//! policies, for insert-only and update-heavy streams (the two ends of the
//! §5 update:insert axis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tsb_common::{SplitPolicyKind, SplitTimeChoice};
use tsb_workload::{generate_ops, WorkloadSpec};

use tsb_bench::measure::{experiment_config, load_engine};

fn bench_inserts(c: &mut Criterion) {
    let ops_count = 4_000usize;
    let workloads = [
        (
            "insert-only",
            generate_ops(
                &WorkloadSpec::default()
                    .with_ops(ops_count)
                    .with_keys(ops_count as u64)
                    .with_update_ratio(0.0)
                    .with_value_size(100),
            ),
        ),
        (
            "update-heavy-9to1",
            generate_ops(
                &WorkloadSpec::default()
                    .with_ops(ops_count)
                    .with_keys(500)
                    .with_update_ratio(9.0)
                    .with_value_size(100),
            ),
        ),
    ];
    let policies = [
        ("threshold", SplitPolicyKind::default()),
        ("time-preferring", SplitPolicyKind::TimePreferring),
        ("key-only", SplitPolicyKind::KeyOnly),
        ("wobt-like", SplitPolicyKind::WobtLike),
    ];

    let mut group = c.benchmark_group("B1_insert_throughput");
    group.sample_size(10);
    for (wl_name, ops) in &workloads {
        group.throughput(Throughput::Elements(ops.len() as u64));
        for (policy_name, policy) in &policies {
            group.bench_with_input(BenchmarkId::new(*wl_name, policy_name), ops, |b, ops| {
                b.iter(|| load_engine(experiment_config(*policy, SplitTimeChoice::LastUpdate), ops))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_inserts);
criterion_main!(benches);
