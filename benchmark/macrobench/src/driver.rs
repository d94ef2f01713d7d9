//! The load loop: one per connection, a closed loop with a bounded window.
//! It draws operations from the workload's mix, sends them through a
//! [`Link`], takes the latency timestamp when a reply arrives and only then
//! checks the reply against the oracle.

use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Duration;

use tsb_client::protocol::{Reply, Request};
use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TxnId};

use crate::gen::{value_for, value_matches, Rng, Zipf};
use crate::hist::Histogram;
use crate::link::Link;
use crate::oracle::{value_ok, Partition};
use crate::trace::{self, SpanName};
use crate::workload::{Op, Spec, HISTORY_WINDOW, OPS, RANGE_ROWS, TXN_SLOTS, TXN_WRITES};

/// The request verbs the benchmark sends (a transaction is six requests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Put,
    Get,
    GetAsOf,
    Range,
    History,
    TxnBegin,
    TxnWrite,
    TxnCommit,
}

pub const VERBS: usize = 8;

/// Request/reply pairs kept per verb in a traced phase, for the codec replay.
const SAMPLES_PER_VERB: usize = 256;

/// What one connection did in one phase.
pub struct PhaseStats {
    /// Operations completed (a transaction counts once).
    pub ops: u64,
    /// Operations that errored or whose reply the oracle rejected.
    pub failed: u64,
    /// Latency per op class, in [`OPS`] order.
    pub latency: Vec<Histogram>,
    /// Requests sent per [`Verb`].
    pub requests: [u64; VERBS],
    /// From the phase's start to this connection's last reply.
    pub elapsed: Duration,
    /// Operations completed in each [`SLICE`] of the phase, from its start.
    pub slice_ops: Vec<u64>,
}

/// Length of the slices a phase's completions are counted in.
pub const SLICE: Duration = Duration::from_millis(250);

impl PhaseStats {
    fn new() -> PhaseStats {
        PhaseStats {
            ops: 0,
            failed: 0,
            latency: OPS.iter().map(|_| Histogram::new()).collect(),
            requests: [0; VERBS],
            elapsed: Duration::ZERO,
            slice_ops: Vec::new(),
        }
    }
}

/// What a reply must be checked against.
enum Expect {
    Put { slot: u64 },
    Value { op: Op, slot: u64, version: u32 },
    Rows { lo: u64, versions: Vec<u32> },
    Versions { slot: u64, first: u32, last: u32 },
    TxnBegin,
    TxnWrite,
    TxnCommit,
}

struct InFlight {
    id: u64,
    sent_ns: u64,
    verb: Verb,
    expect: Expect,
    sample: Option<Request>,
}

struct OpenTxn {
    started_ns: u64,
    slots: [u64; TXN_WRITES],
}

pub struct Conn {
    pub id: usize,
    link: Link,
    pub part: Partition,
    spec: &'static Spec,
    rng: Rng,
    zipf: Option<Zipf>,
    in_flight: VecDeque<InFlight>,
    /// Requests of the open transaction not sent yet; they go before any
    /// new operation.
    queued: VecDeque<(Verb, Request, Expect)>,
    txn: Option<OpenTxn>,
    stats: PhaseStats,
    phase_start_ns: u64,
    /// Codec-replay samples per verb (filled only while tracing).
    pub samples: Vec<Vec<(Request, Reply)>>,
}

/// What is left of a connection once its link is closed.
pub struct Finished {
    pub part: Partition,
    pub samples: Vec<Vec<(Request, Reply)>>,
}

impl Conn {
    pub fn new(id: usize, link: Link, part: Partition, spec: &'static Spec, seed: u64) -> Conn {
        let zipf = spec.zipf.map(|theta| Zipf::new(part.present, theta));
        Conn {
            id,
            link,
            part,
            spec,
            rng: Rng::new(seed, id as u64 + 1),
            zipf,
            in_flight: VecDeque::new(),
            queued: VecDeque::new(),
            txn: None,
            stats: PhaseStats::new(),
            phase_start_ns: 0,
            samples: (0..VERBS).map(|_| Vec::new()).collect(),
        }
    }

    /// Closes the link (a socket, or a handle on the engine) and keeps what
    /// the run's epilogue needs.
    pub fn finish(self) -> Finished {
        Finished {
            part: self.part,
            samples: self.samples,
        }
    }

    /// Runs one phase: issues operations for `dur`, then drains the window
    /// (finishing an open transaction) so that the phase ends quiescent.
    pub fn run_phase(&mut self, dur: Duration) -> PhaseStats {
        self.stats = PhaseStats::new();
        let start = trace::now_ns();
        self.phase_start_ns = start;
        let deadline = start + dur.as_nanos() as u64;
        loop {
            while self.in_flight.len() < self.spec.depth {
                if let Some((verb, req, expect)) = self.queued.pop_front() {
                    self.send(verb, req, expect);
                } else if trace::now_ns() < deadline {
                    self.issue();
                } else {
                    break;
                }
            }
            if self.in_flight.is_empty() {
                break;
            }
            self.receive();
        }
        self.stats.elapsed = Duration::from_nanos(trace::now_ns() - start);
        std::mem::replace(&mut self.stats, PhaseStats::new())
    }

    fn existing_slot(&mut self) -> u64 {
        let i = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.part.present),
        };
        self.part.slot_of(i)
    }

    fn past_time(&mut self) -> u64 {
        self.part.first_ts + self.rng.below(self.part.last_ts - self.part.first_ts + 1)
    }

    fn key(&self, slot: u64) -> Key {
        Key::from_u64(self.part.key(slot))
    }

    fn write_of(&mut self, slot: u64) -> (Key, Vec<u8>) {
        let version = self.part.next_version(slot);
        let key = self.part.key(slot);
        (Key::from_u64(key), value_for(key, version))
    }

    /// Draws the next operation and sends its (first) request.
    fn issue(&mut self) {
        let mut op = self.spec.pick(self.rng.below(1000) as u32);
        if op == Op::Txn && self.txn.is_some() {
            op = Op::Put; // one open transaction per connection
        }
        match op {
            Op::Put => {
                let p = &self.part;
                let insert = self.spec.insert_one_in > 0
                    && p.present < p.cap
                    && self.rng.below(self.spec.insert_one_in) == 0;
                let slot = if insert {
                    self.part.present += 1;
                    self.part.slot_of(self.part.present - 1)
                } else {
                    self.existing_slot()
                };
                let (key, value) = self.write_of(slot);
                self.send(Verb::Put, Request::Put { key, value }, Expect::Put { slot });
            }
            Op::Get => {
                let slot = self.existing_slot();
                let version = self.part.sent(slot);
                let expect = Expect::Value { op, slot, version };
                self.send(
                    Verb::Get,
                    Request::Get {
                        key: self.key(slot),
                    },
                    expect,
                );
            }
            Op::AsOf => {
                let slot = self.existing_slot();
                let ts = self.past_time();
                let version = self.part.version_as_of(slot, ts);
                let req = Request::GetAsOf {
                    key: self.key(slot),
                    as_of: Timestamp(ts),
                };
                self.send(Verb::GetAsOf, req, Expect::Value { op, slot, version });
            }
            Op::Range => {
                let p = &self.part;
                let span = (RANGE_ROWS * p.cap).div_ceil(p.present).min(p.cap);
                let lo = self.rng.below(self.part.cap - span + 1);
                let as_of = self.spec.range_as_of.then(|| self.past_time());
                let versions = (lo..lo + span)
                    .map(|slot| match as_of {
                        Some(ts) => self.part.version_as_of(slot, ts),
                        None => self.part.sent(slot),
                    })
                    .collect();
                let req = Request::Range {
                    range: KeyRange::bounded(self.key(lo), self.key(lo + span)),
                    as_of: as_of.map(Timestamp),
                };
                self.send(Verb::Range, req, Expect::Rows { lo, versions });
            }
            Op::History => {
                let slot = self.existing_slot();
                let p = &self.part;
                // The window ends no later than the newest acknowledged
                // commit, so no write still in flight can fall inside it.
                let axis = p.last_ts - p.first_ts;
                let width = ((axis as f64 * HISTORY_WINDOW) as u64).max(1);
                let lo = p.first_ts + self.rng.below(axis.saturating_sub(width) + 1);
                let (first, last) = self.part.versions_between(slot, lo, lo + width);
                let req = Request::History {
                    key: self.key(slot),
                    window: TimeRange::bounded(Timestamp(lo), Timestamp(lo + width)),
                };
                self.send(Verb::History, req, Expect::Versions { slot, first, last });
            }
            Op::Txn => {
                let j = self.rng.below(TXN_SLOTS);
                let slots = std::array::from_fn(|k| self.part.txn_slot(j + k as u64));
                self.send(Verb::TxnBegin, Request::TxnBegin, Expect::TxnBegin);
                // The request span starts at the send; the op's latency runs
                // from there to the commit's acknowledgement.
                let started_ns = self.in_flight.back().expect("just sent").sent_ns;
                self.txn = Some(OpenTxn { started_ns, slots });
            }
        }
    }

    fn send(&mut self, verb: Verb, req: Request, expect: Expect) {
        self.stats.requests[verb as usize] += 1;
        let tracing = trace::tracing();
        let sample =
            (tracing && self.samples[verb as usize].len() < SAMPLES_PER_VERB).then(|| req.clone());
        let sent_ns = trace::now_ns();
        let id = match self.link.send(req) {
            Ok(id) => id,
            Err(e) => fatal(&format!("connection {}: send failed: {e}", self.id)),
        };
        if tracing {
            trace::record(SpanName::ClientSend, sent_ns, trace::now_ns(), id);
        }
        self.in_flight.push_back(InFlight {
            id,
            sent_ns,
            verb,
            expect,
            sample,
        });
    }

    fn receive(&mut self) {
        let recv_ns = trace::now_ns();
        let (id, reply) = match self.link.recv_any() {
            Ok(r) => r,
            Err(e) => fatal(&format!("connection {}: receive failed: {e}", self.id)),
        };
        let now = trace::now_ns();
        let at = self
            .in_flight
            .iter()
            .position(|f| f.id == id)
            .unwrap_or_else(|| fatal(&format!("connection {}: unknown reply id {id}", self.id)));
        let f = self.in_flight.remove(at).expect("position is in range");
        if trace::tracing() {
            trace::record(SpanName::ClientRecv, recv_ns, now, id);
            trace::record(SpanName::ClientRequest, f.sent_ns, now, id);
        }
        // The latency timestamp is taken; checking comes after it.
        let (done, ok) = self.check(&f.expect, &reply);
        if let Some(op) = done {
            let since = match (op, &self.txn) {
                (Op::Txn, Some(t)) => t.started_ns,
                _ => f.sent_ns,
            };
            if op == Op::Txn {
                self.txn = None;
            }
            self.stats.ops += 1;
            let slice = ((now - self.phase_start_ns) / SLICE.as_nanos() as u64) as usize;
            if self.stats.slice_ops.len() <= slice {
                self.stats.slice_ops.resize(slice + 1, 0);
            }
            self.stats.slice_ops[slice] += 1;
            self.stats.latency[op as usize].record(now - since);
        }
        if !ok {
            self.stats.failed += 1;
            if self.stats.failed <= 3 {
                eprintln!(
                    "connection {}: {:?} request {id} got a wrong reply: {}",
                    self.id,
                    f.verb,
                    summary(&reply)
                );
            }
        }
        if let Some(req) = f.sample {
            self.samples[f.verb as usize].push((req, reply));
        }
    }

    /// Checks `reply`; returns the op it completes (if any) and whether it
    /// was correct. Acknowledged writes are entered into the oracle here.
    fn check(&mut self, expect: &Expect, reply: &Reply) -> (Option<Op>, bool) {
        match (expect, reply) {
            (Expect::Put { slot }, Reply::Committed { ts }) => {
                self.part.ack(*slot, ts.value());
                (Some(Op::Put), true)
            }
            (Expect::Put { .. }, _) => (Some(Op::Put), false),
            (Expect::Value { op, slot, version }, Reply::Value { value }) => {
                let key = self.part.key(*slot);
                (Some(*op), value_ok(key, *version, value.as_deref()))
            }
            (Expect::Value { op, .. }, _) => (Some(*op), false),
            (Expect::Rows { lo, versions }, Reply::Rows { rows }) => {
                let mut rows = rows.iter();
                let ok = versions
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v > 0)
                    .all(|(i, &v)| {
                        let key = self.part.key(lo + i as u64);
                        rows.next().is_some_and(|(k, value)| {
                            k.as_u64() == Some(key) && value_matches(key, v, value)
                        })
                    });
                (Some(Op::Range), ok && rows.next().is_none())
            }
            (Expect::Rows { .. }, _) => (Some(Op::Range), false),
            (Expect::Versions { slot, first, last }, Reply::Versions { versions }) => {
                let key = self.part.key(*slot);
                let mut got = versions.iter();
                let ok = (*first..=*last).all(|v| {
                    got.next().is_some_and(|g| {
                        g.key.as_u64() == Some(key)
                            && g.commit_time() == Some(Timestamp(self.part.commit_ts(*slot, v)))
                            && value_ok(key, v, g.value.as_deref())
                    })
                });
                (Some(Op::History), ok && got.next().is_none())
            }
            (Expect::Versions { .. }, _) => (Some(Op::History), false),
            (Expect::TxnBegin, Reply::Txn { txn }) => {
                self.queue_txn_body(*txn);
                (None, true)
            }
            // A transaction that cannot begin, write or commit fails as one
            // op; nothing more of it is sent.
            (Expect::TxnBegin, _) => (Some(Op::Txn), false),
            (Expect::TxnWrite, Reply::Unit) => (None, true),
            (Expect::TxnWrite, _) => (None, false),
            (Expect::TxnCommit, Reply::Committed { ts }) => {
                let slots = self.txn.as_ref().expect("a commit implies a txn").slots;
                for slot in slots {
                    self.part.ack(slot, ts.value());
                }
                (Some(Op::Txn), true)
            }
            (Expect::TxnCommit, _) => (Some(Op::Txn), false),
        }
    }

    fn queue_txn_body(&mut self, txn: TxnId) {
        let slots = self.txn.as_ref().expect("a begin implies a txn").slots;
        for slot in slots {
            let (key, value) = self.write_of(slot);
            let req = Request::TxnWrite {
                txn,
                key,
                value: Some(value),
            };
            self.queued
                .push_back((Verb::TxnWrite, req, Expect::TxnWrite));
        }
        self.queued.push_back((
            Verb::TxnCommit,
            Request::TxnCommit { txn },
            Expect::TxnCommit,
        ));
    }
}

/// A broken connection ends the run: the other load thread and the main
/// thread are parked on a barrier this thread would never reach.
fn fatal(message: &str) -> ! {
    eprintln!("fatal: {message}");
    std::process::exit(1);
}

fn summary(reply: &Reply) -> String {
    match reply {
        Reply::Error { code, message } => format!("error {code}: {message}"),
        Reply::Value { value } => format!("a value of {:?} bytes", value.as_ref().map(Vec::len)),
        Reply::Rows { rows } => format!("{} rows", rows.len()),
        Reply::Versions { versions } => format!("{} versions", versions.len()),
        other => format!("{other:?}"),
    }
}

/// The phases of a run and the rendezvous between the load threads and the
/// main thread: before each phase and after the last one every connection is
/// quiescent at `barrier`, and the main thread reads counters and switches
/// tracing there.
pub fn run_phases(conn: &mut Conn, phases: &[Duration], barrier: &Barrier) -> Vec<PhaseStats> {
    let mut out = Vec::new();
    for dur in phases {
        barrier.wait(); // quiescent: the main thread takes its readings
        barrier.wait(); // go
        out.push(conn.run_phase(*dur));
    }
    barrier.wait();
    out
}
