//! The four workloads. Every one carries all five operation classes a user
//! of the system can issue (put, get, range, as-of, transaction) so that
//! every end-to-end latency is defined on every workload; what differs is
//! the share of each by one to two orders of magnitude, the durability
//! policy, the data size relative to the caches, and whether the wire layer
//! is crossed at all. `benchmark/README.md` says why each one exists.

use tsb_common::FsyncPolicy;

/// Keys a range scan is sized to return.
pub const RANGE_ROWS: u64 = 32;
/// Writes in one transaction.
pub const TXN_WRITES: usize = 4;
/// Transaction-only keys per partition.
pub const TXN_SLOTS: u64 = 64;
/// Share of the commit-time axis one history read covers.
pub const HISTORY_WINDOW: f64 = 0.10;

/// The operations a workload mixes; also the latency classes reported.
/// [`OPS`] lists them in declaration order, so `op as usize` indexes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Put,
    Get,
    Range,
    AsOf,
    Txn,
    History,
}

pub const OPS: [Op; 6] = [Op::Put, Op::Get, Op::Range, Op::AsOf, Op::Txn, Op::History];

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Range => "range",
            Op::AsOf => "asof",
            Op::Txn => "txn",
            Op::History => "history",
        }
    }
}

pub struct Spec {
    pub name: &'static str,
    /// Through an in-process `TsbServer` and `TsbClient`s, or by calling
    /// `EngineHandle` directly on the load threads.
    pub served: bool,
    pub shards: usize,
    /// Load threads (= connections), whatever `nproc` says.
    pub conns: usize,
    pub fsync: FsyncPolicy,
    /// Requests each connection keeps in flight (closed loop, bounded window).
    pub depth: usize,
    /// Keys preloaded, over all partitions.
    pub keys: u64,
    /// Versions preloaded per key (one pass over all keys per version).
    pub passes: u32,
    /// Key slots per partition: room for the preload and every insert.
    pub cap: u64,
    /// Zipf exponent of the key choice; `None` is uniform.
    pub zipf: Option<f64>,
    /// One put in this many inserts a new key (0: puts only update).
    pub insert_one_in: u64,
    /// Range scans read as of a past time instead of the current state.
    pub range_as_of: bool,
    /// Whether the engine is dropped and reopened after the preload.
    pub reopen: bool,
    /// Per-mille share of each op, in [`OPS`] order; sums to 1000.
    pub mix: [u32; 6],
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ingest-durable",
        served: true,
        shards: 4,
        conns: 2,
        fsync: FsyncPolicy::Always,
        depth: 8,
        keys: 2_000,
        passes: 1,
        cap: 1 << 17,
        zipf: None,
        insert_one_in: 5,
        range_as_of: false,
        reopen: false,
        mix: [890, 20, 20, 20, 50, 0],
    },
    Spec {
        name: "serve-hot",
        served: true,
        shards: 1,
        conns: 2,
        fsync: FsyncPolicy::Os,
        depth: 8,
        keys: 4_000,
        passes: 5,
        cap: 1 << 11,
        zipf: Some(0.99),
        insert_one_in: 0,
        range_as_of: false,
        reopen: false,
        mix: [50, 830, 100, 15, 5, 0],
    },
    Spec {
        name: "time-travel",
        served: false,
        shards: 1,
        conns: 1,
        fsync: FsyncPolicy::Os,
        depth: 1,
        keys: 5_000,
        passes: 80,
        cap: 1 << 13,
        zipf: None,
        insert_one_in: 0,
        range_as_of: true,
        reopen: true,
        mix: [10, 50, 250, 660, 10, 20],
    },
    Spec {
        name: "churn-large",
        served: true,
        shards: 1,
        conns: 2,
        fsync: FsyncPolicy::Always,
        depth: 4,
        keys: 50_000,
        passes: 2,
        cap: 1 << 16,
        zipf: None,
        insert_one_in: 5,
        range_as_of: false,
        reopen: false,
        mix: [470, 470, 20, 20, 20, 0],
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Keys preloaded into each partition, at `scale` (1.0 = full size).
    pub fn keys_per_partition(&self, scale: f64) -> u64 {
        (((self.keys / self.conns as u64) as f64 * scale) as u64).max(RANGE_ROWS)
    }

    pub fn passes_at(&self, scale: f64) -> u32 {
        ((self.passes as f64 * scale).ceil() as u32).max(1)
    }

    /// The op a draw `r` in `0..1000` selects.
    pub fn pick(&self, r: u32) -> Op {
        let mut acc = 0;
        for (op, share) in OPS.iter().zip(self.mix) {
            acc += share;
            if r < acc {
                return *op;
            }
        }
        Op::Get
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one_and_carry_every_end_to_end_class() {
        for w in &WORKLOADS {
            assert_eq!(w.mix.iter().sum::<u32>(), 1000, "{}", w.name);
            for (op, share) in OPS.iter().zip(w.mix) {
                assert!(share > 0 || *op == Op::History, "{} lacks {op:?}", w.name);
            }
            assert!(w.cap.is_power_of_two() && w.cap >= w.keys_per_partition(1.0));
            assert!(OPS.iter().enumerate().all(|(i, op)| *op as usize == i));
            assert_eq!(w.pick(0), Op::Put);
            assert_eq!(
                w.pick(999),
                OPS[w.mix.iter().rposition(|&s| s > 0).unwrap()]
            );
        }
    }
}
