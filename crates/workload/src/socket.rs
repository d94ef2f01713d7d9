//! Socket load harness: closed-loop and open-loop drivers for `tsb-server`.
//!
//! [`drive_engine`](crate::drive_engine) measures the group-commit
//! pipeline with in-process threads; this module measures it **over the
//! wire**. Each connection runs on its own thread through a [`TsbClient`]:
//!
//! * **Closed loop** (`pipeline_depth == 1`): a connection issues its next
//!   durable put only after the previous ack arrived — the honest model
//!   for commit *latency*, and the single-blocking-connection baseline of
//!   the E13 experiment.
//! * **Open loop** (`pipeline_depth > 1`): a connection keeps up to
//!   `pipeline_depth` requests in flight, sending eagerly and reaping acks
//!   as they arrive. The server drains each burst, executes the writes
//!   through the deferred-durability API, and parks once per batch — so a
//!   single pipelined connection already amortizes fsyncs the way several
//!   closed-loop connections do. (The window is bounded on purpose: a
//!   truly unbounded open loop measures queue growth, not the server.)
//!
//! Per-request latency is measured send-to-ack and reported as p50/p99
//! across all connections; everything random is derived from the spec's
//! seed exactly as in the in-process driver, so two runs against equal
//! servers commit identical key/value streams.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tsb_client::protocol::{Reply, Request};
use tsb_client::TsbClient;
use tsb_common::{Key, TsbError, TsbResult};

/// Parameters of one socket load run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocketDriveSpec {
    /// Number of concurrent connections (one thread each).
    pub connections: usize,
    /// Durable puts each connection issues.
    pub ops_per_conn: usize,
    /// Maximum requests a connection keeps in flight: 1 = closed loop,
    /// >1 = open loop with a bounded window.
    pub pipeline_depth: usize,
    /// Size of the shared key space (`0..num_keys` mapped to u64 keys).
    pub num_keys: u64,
    /// Payload size in bytes of every put.
    pub value_size: usize,
    /// Base seed; connection `i` draws its stream from `seed + i`.
    pub seed: u64,
}

impl Default for SocketDriveSpec {
    fn default() -> Self {
        SocketDriveSpec {
            connections: 4,
            ops_per_conn: 250,
            pipeline_depth: 1,
            num_keys: 512,
            value_size: 48,
            seed: 0x50C7_E7D1,
        }
    }
}

/// What one [`drive_socket`] run measured.
#[derive(Clone, Debug)]
pub struct SocketDriveReport {
    /// Total acknowledged puts across all connections.
    pub committed_ops: u64,
    /// Wall-clock time from first connect to last drain.
    pub elapsed: Duration,
    /// Send-to-ack latency of every acknowledged put, sorted ascending.
    pub latencies: Vec<Duration>,
}

impl SocketDriveReport {
    /// Acknowledged puts per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.committed_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The `q`-th latency quantile (`0.0..=1.0`); zero when nothing was
    /// measured, so report cells never divide by an empty run.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.latencies.len() - 1) as f64).round() as usize;
        self.latencies[rank]
    }

    /// Median send-to-ack latency.
    pub fn p50(&self) -> Duration {
        self.latency_quantile(0.50)
    }

    /// 99th-percentile send-to-ack latency.
    pub fn p99(&self) -> Duration {
        self.latency_quantile(0.99)
    }
}

/// Runs the load: `spec.connections` threads, each a [`TsbClient`] issuing
/// `spec.ops_per_conn` durable puts with at most `spec.pipeline_depth` in
/// flight. Returns committed throughput and the merged latency
/// distribution.
pub fn drive_socket(addr: SocketAddr, spec: &SocketDriveSpec) -> TsbResult<SocketDriveReport> {
    let start = Instant::now();
    let per_conn = std::thread::scope(|s| -> TsbResult<Vec<ConnResult>> {
        let handles: Vec<_> = (0..spec.connections.max(1))
            .map(|i| {
                let spec = spec.clone();
                s.spawn(move || conn_loop(addr, &spec, i as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    })?;
    let elapsed = start.elapsed();
    let mut committed = 0u64;
    let mut latencies = Vec::new();
    for conn in per_conn {
        committed += conn.committed;
        latencies.extend(conn.latencies);
    }
    latencies.sort();
    Ok(SocketDriveReport {
        committed_ops: committed,
        elapsed,
        latencies,
    })
}

struct ConnResult {
    committed: u64,
    latencies: Vec<Duration>,
}

fn conn_loop(addr: SocketAddr, spec: &SocketDriveSpec, conn_idx: u64) -> TsbResult<ConnResult> {
    let mut client = TsbClient::connect(addr)?;
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(conn_idx));
    let depth = spec.pipeline_depth.max(1);
    let mut latencies = Vec::with_capacity(spec.ops_per_conn);
    let mut committed = 0u64;
    // id -> send time of every request still in flight.
    let mut in_flight: std::collections::HashMap<u64, Instant> = std::collections::HashMap::new();
    let mut sent = 0usize;
    while sent < spec.ops_per_conn || !in_flight.is_empty() {
        while sent < spec.ops_per_conn && in_flight.len() < depth {
            let key = rng.gen_range(0..spec.num_keys.max(1));
            let mut value = vec![0u8; spec.value_size];
            for byte in value.iter_mut() {
                *byte = rng.gen_range(0..=u8::MAX as u32) as u8;
            }
            let id = client.send(&Request::Put {
                key: Key::from_u64(key),
                value,
            })?;
            in_flight.insert(id, Instant::now());
            sent += 1;
        }
        let (id, reply) = client.recv_any()?;
        let sent_at = in_flight
            .remove(&id)
            .ok_or_else(|| TsbError::corruption(format!("reply for unknown request id {id}")))?;
        match reply {
            Reply::Committed { .. } => {
                latencies.push(sent_at.elapsed());
                committed += 1;
            }
            Reply::Error { code, message } => {
                return Err(tsb_client::remote_error(code, &message));
            }
            other => {
                return Err(TsbError::corruption(format!(
                    "unexpected reply to a put: {other:?}"
                )));
            }
        }
    }
    Ok(ConnResult {
        committed,
        latencies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_quantiles_are_zero_not_panic() {
        let report = SocketDriveReport {
            committed_ops: 0,
            elapsed: Duration::from_millis(1),
            latencies: Vec::new(),
        };
        assert_eq!(report.p50(), Duration::ZERO);
        assert_eq!(report.p99(), Duration::ZERO);
        assert_eq!(report.ops_per_sec(), 0.0);
    }

    #[test]
    fn quantiles_pick_from_the_sorted_tail() {
        let report = SocketDriveReport {
            committed_ops: 100,
            elapsed: Duration::from_secs(1),
            latencies: (1..=100).map(Duration::from_micros).collect(),
        };
        assert_eq!(report.p50(), Duration::from_micros(51));
        assert_eq!(report.p99(), Duration::from_micros(99));
        assert_eq!(report.latency_quantile(1.0), Duration::from_micros(100));
        assert_eq!(report.latency_quantile(0.0), Duration::from_micros(1));
    }
}
