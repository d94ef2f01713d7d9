//! The experiments (E1–E12, E15). Each module builds its workloads,
//! replays them into the structures under test, and returns printable
//! [`Table`]s. The mapping from experiment id to paper artifact is in the
//! crate docs; the measured results are recorded per PR in `CHANGES.md`
//! (through PR 8 also in `docs/history/BENCH_PR*.json`).

pub mod ablation;
pub mod baseline;
pub mod concurrency;
pub mod cost_function;
pub mod descent_fanout;
pub mod durability;
pub mod policy_space;
pub mod query_cost;
pub mod ratio_sweep;
pub mod replication;
pub mod worm_utilization;

use crate::measure::Scale;
use crate::report::Table;

/// Every experiment id the harness knows about.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e15",
];

type Runner = fn(Scale) -> Vec<Table>;

/// The runner behind an experiment id (or alias), and which one of its
/// tables the id selects (`None`: all of them). Resolving runs nothing.
fn resolve(id: &str) -> Option<(Runner, Option<usize>)> {
    Some(match id {
        // E1–E3 share one set of runs; each id names one table of it.
        "e1" => (policy_space::run, Some(0)),
        "e2" => (policy_space::run, Some(1)),
        "e3" => (policy_space::run, Some(2)),
        "e1-3" | "policy-space" => (policy_space::run, None),
        "e4" => (ratio_sweep::run, None),
        "e5" => (cost_function::run, None),
        "e6" => (query_cost::run, None),
        "e7" => (worm_utilization::run, None),
        "e8" => (baseline::run, None),
        "e9" => (ablation::run, None),
        "e10" | "concurrency" => (concurrency::run, None),
        "e11" | "descent-fanout" => (descent_fanout::run, None),
        "e12" | "durability" => (durability::run, None),
        "e15" | "replication" => (replication::run, None),
        _ => return None,
    })
}

/// Whether `id` names an experiment — answered without running it, so a
/// command line can be checked whole before any of it is executed.
pub fn is_experiment(id: &str) -> bool {
    resolve(id).is_some()
}

/// Runs one experiment by id, returning its tables.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Vec<Table>> {
    let (run, pick) = resolve(id)?;
    let tables = run(scale);
    Some(match pick {
        Some(index) => vec![tables.into_iter().nth(index)?],
        None => tables,
    })
}

/// Runs every experiment, returning all tables in order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    let mut out = Vec::new();
    out.extend(policy_space::run(scale));
    out.extend(ratio_sweep::run(scale));
    out.extend(cost_function::run(scale));
    out.extend(query_cost::run(scale));
    out.extend(concurrency::run(scale));
    out.extend(descent_fanout::run(scale));
    out.extend(durability::run(scale));
    out.extend(replication::run(scale));
    out.extend(worm_utilization::run(scale));
    out.extend(baseline::run(scale));
    out.extend(ablation::run(scale));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_dispatches() {
        for id in ALL_EXPERIMENTS {
            let tables = run_experiment(id, Scale::Tiny)
                .unwrap_or_else(|| panic!("experiment {id} must be runnable"));
            assert!(!tables.is_empty());
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id} produced an empty table");
            }
        }
        assert!(run_experiment("nope", Scale::Tiny).is_none());
        assert!(!is_experiment("e13") && !is_experiment("e14"));
        assert!(ALL_EXPERIMENTS.iter().all(|id| is_experiment(id)));
        assert!(!is_experiment("nope") && !is_experiment("all"));
    }
}
