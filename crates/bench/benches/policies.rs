//! B3: the cost of the split machinery itself — how long the same
//! update-heavy stream takes under each splitting policy and each
//! split-time choice (§3.2/§3.3 ablation), and how expensive transaction
//! commit stamping is relative to auto-commit writes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tsb_common::{Key, SplitPolicyKind, SplitTimeChoice};
use tsb_core::EngineHandle;
use tsb_workload::{generate_ops, Op, WorkloadSpec};

use tsb_bench::measure::{experiment_config, load_engine};

fn update_heavy_ops(n: usize) -> Vec<Op> {
    generate_ops(
        &WorkloadSpec::default()
            .with_ops(n)
            .with_keys(300)
            .with_update_ratio(6.0)
            .with_value_size(100),
    )
}

fn bench_split_policies(c: &mut Criterion) {
    let ops = update_heavy_ops(3_000);
    let mut group = c.benchmark_group("B3_split_policy_ablation");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ops.len() as u64));

    let variants: Vec<(String, SplitPolicyKind, SplitTimeChoice)> = vec![
        (
            "threshold/last-update".into(),
            SplitPolicyKind::default(),
            SplitTimeChoice::LastUpdate,
        ),
        (
            "threshold/current-time".into(),
            SplitPolicyKind::default(),
            SplitTimeChoice::CurrentTime,
        ),
        (
            "threshold/median".into(),
            SplitPolicyKind::default(),
            SplitTimeChoice::MedianVersion,
        ),
        (
            "time-preferring".into(),
            SplitPolicyKind::TimePreferring,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "key-preferring".into(),
            SplitPolicyKind::KeyPreferring,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "cost-based".into(),
            SplitPolicyKind::CostBased,
            SplitTimeChoice::LastUpdate,
        ),
        (
            "wobt-like".into(),
            SplitPolicyKind::WobtLike,
            SplitTimeChoice::CurrentTime,
        ),
    ];
    for (name, policy, choice) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(&name), &ops, |b, ops| {
            b.iter(|| load_engine(experiment_config(policy, choice), ops))
        });
    }
    group.finish();
}

fn bench_transactions(c: &mut Criterion) {
    let mut group = c.benchmark_group("B3_transactions");
    group.sample_size(10);
    let batch = 2_000u64;
    group.throughput(Throughput::Elements(batch));

    group.bench_function("autocommit_writes", |b| {
        b.iter(|| {
            let tree = load_engine(
                experiment_config(SplitPolicyKind::default(), SplitTimeChoice::LastUpdate),
                &[],
            );
            for i in 0..batch {
                tree.insert(Key::from_u64(i % 200), vec![b'x'; 100])
                    .unwrap();
            }
            tree
        })
    });
    group.bench_function("txn_writes_commit_every_10", |b| {
        b.iter(|| {
            let tree = load_engine(
                experiment_config(SplitPolicyKind::default(), SplitTimeChoice::LastUpdate),
                &[],
            );
            let mut i = 0u64;
            while i < batch {
                let txn = tree.begin_txn().unwrap();
                for j in 0..10 {
                    tree.txn_insert(txn, Key::from_u64((i + j) % 200), vec![b'x'; 100])
                        .unwrap();
                }
                tree.commit_txn(txn).unwrap();
                i += 10;
            }
            tree
        })
    });
    group.finish();
}

criterion_group!(benches, bench_split_policies, bench_transactions);
criterion_main!(benches);
