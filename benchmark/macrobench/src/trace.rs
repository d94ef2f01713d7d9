//! Spans recorded from outside the program: around every `EngineHandle`
//! call (through [`TracedEngine`]) and around every client call. Client and
//! server share this process, hence one clock. Spans go to a preallocated
//! buffer per thread and are only looked at after the run.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbConfig, TsbResult, TxnId, Version};
use tsb_core::{EngineHandle, EngineRole, ShardLsn};
use tsb_storage::IoSnapshot;

/// Spans a thread's buffer holds; recording on that thread stops when full
/// (the count of dropped spans is reported).
const SPANS_PER_THREAD: usize = 1 << 20;

static TRACING: AtomicBool = AtomicBool::new(false);
static BUFFERS: Mutex<Vec<Arc<Mutex<SpanBuf>>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<SpanBuf>>>> = const { RefCell::new(None) };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanName {
    ClientRequest,
    ClientSend,
    ClientRecv,
    InsertDeferred,
    WaitDurable,
    GetCurrent,
    GetAsOf,
    Scan,
    HistoryBetween,
    TxnBegin,
    TxnInsert,
    TxnCommit,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::ClientRequest => "client.request",
            SpanName::ClientSend => "client.send",
            SpanName::ClientRecv => "client.recv",
            SpanName::InsertDeferred => "core.insert_deferred",
            SpanName::WaitDurable => "core.wait_durable",
            SpanName::GetCurrent => "core.get_current",
            SpanName::GetAsOf => "core.get_as_of",
            SpanName::Scan => "core.scan",
            SpanName::HistoryBetween => "core.history_between",
            SpanName::TxnBegin => "core.txn_begin",
            SpanName::TxnInsert => "core.txn_insert",
            SpanName::TxnCommit => "core.txn_commit",
        }
    }

    fn is_client(self) -> bool {
        matches!(
            self,
            SpanName::ClientRequest | SpanName::ClientSend | SpanName::ClientRecv
        )
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Client spans: the request id. Engine spans: unused (they get their
    /// request by per-connection order, see [`assemble`]).
    pub request: u64,
}

pub struct SpanBuf {
    pub thread: String,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn record(name: SpanName, start_ns: u64, end_ns: u64, request: u64) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buf = local.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(SpanBuf {
                thread: std::thread::current().name().unwrap_or("?").to_string(),
                spans: Vec::with_capacity(SPANS_PER_THREAD),
                dropped: 0,
            }));
            BUFFERS
                .lock()
                .expect("span registry poisoned")
                .push(Arc::clone(&buf));
            buf
        });
        let mut buf = buf.lock().expect("span buffer poisoned");
        if buf.spans.len() < SPANS_PER_THREAD {
            buf.spans.push(Span {
                name,
                start_ns,
                end_ns,
                request,
            });
        } else {
            buf.dropped += 1;
        }
    });
}

/// Runs `f`, recording an engine span around it when tracing is on.
fn spanned<T>(name: SpanName, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    let start = now_ns();
    let out = f();
    record(name, start, now_ns(), 0);
    out
}

/// Takes every thread's spans out of the registry.
pub fn drain() -> Vec<SpanBuf> {
    let buffers = std::mem::take(&mut *BUFFERS.lock().expect("span registry poisoned"));
    buffers
        .iter()
        .map(|b| {
            let mut b = b.lock().expect("span buffer poisoned");
            SpanBuf {
                thread: b.thread.clone(),
                spans: std::mem::take(&mut b.spans),
                dropped: b.dropped,
            }
        })
        .collect()
}

/// An [`EngineHandle`] that records a span around each call it forwards.
pub struct TracedEngine(pub Arc<dyn EngineHandle>);

impl EngineHandle for TracedEngine {
    fn role(&self) -> EngineRole {
        self.0.role()
    }
    fn shard_count(&self) -> usize {
        self.0.shard_count()
    }
    fn insert_deferred(
        &self,
        key: Key,
        value: Vec<u8>,
    ) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        spanned(SpanName::InsertDeferred, || {
            self.0.insert_deferred(key, value)
        })
    }
    fn delete_deferred(&self, key: Key) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        self.0.delete_deferred(key)
    }
    fn wait_durable(&self, pos: ShardLsn) -> TsbResult<()> {
        spanned(SpanName::WaitDurable, || self.0.wait_durable(pos))
    }
    fn begin_txn(&self) -> TsbResult<TxnId> {
        spanned(SpanName::TxnBegin, || self.0.begin_txn())
    }
    fn txn_insert(&self, txn: TxnId, key: Key, value: Vec<u8>) -> TsbResult<()> {
        spanned(SpanName::TxnInsert, || self.0.txn_insert(txn, key, value))
    }
    fn txn_delete(&self, txn: TxnId, key: Key) -> TsbResult<()> {
        self.0.txn_delete(txn, key)
    }
    fn txn_get(&self, txn: TxnId, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        self.0.txn_get(txn, key)
    }
    fn commit_txn_deferred(&self, txn: TxnId) -> TsbResult<(Timestamp, Option<ShardLsn>)> {
        spanned(SpanName::TxnCommit, || self.0.commit_txn_deferred(txn))
    }
    fn abort_txn(&self, txn: TxnId) -> TsbResult<()> {
        self.0.abort_txn(txn)
    }
    fn checkpoint(&self) -> TsbResult<()> {
        self.0.checkpoint()
    }
    fn get_current(&self, key: &Key) -> TsbResult<Option<Vec<u8>>> {
        spanned(SpanName::GetCurrent, || self.0.get_current(key))
    }
    fn get_as_of(&self, key: &Key, ts: Timestamp) -> TsbResult<Option<Vec<u8>>> {
        spanned(SpanName::GetAsOf, || self.0.get_as_of(key, ts))
    }
    fn scan_as_of(&self, range: &KeyRange, ts: Timestamp) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        spanned(SpanName::Scan, || self.0.scan_as_of(range, ts))
    }
    fn scan_current(&self, range: &KeyRange) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        spanned(SpanName::Scan, || self.0.scan_current(range))
    }
    fn history_between(&self, key: &Key, window: TimeRange) -> TsbResult<Vec<Version>> {
        spanned(SpanName::HistoryBetween, || {
            self.0.history_between(key, window)
        })
    }
    fn last_installed(&self) -> Timestamp {
        self.0.last_installed()
    }
    fn last_durable_commit(&self) -> Option<Timestamp> {
        self.0.last_durable_commit()
    }
    fn verify(&self) -> TsbResult<()> {
        self.0.verify()
    }
    fn config(&self) -> &TsbConfig {
        self.0.config()
    }
    fn io_snapshot(&self) -> IoSnapshot {
        self.0.io_snapshot()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children may overlap each other and the edges).
pub fn self_time(start_ns: u64, end_ns: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut frontier = start_ns;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(frontier), e.min(end_ns));
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    (end_ns - start_ns) - covered
}

/// One request's spans: the root `client.request` and its children.
pub struct RequestTrace {
    pub conn: usize,
    pub root: Span,
    pub children: Vec<Span>,
}

/// The result of matching engine spans to the requests that caused them.
pub struct Assembled {
    pub requests: Vec<RequestTrace>,
    /// Spans that found no request (0 when the trace reconciles).
    pub unmatched: u64,
    pub dropped: u64,
}

/// Builds request trees. Connection `c`'s load thread is named `load-c`;
/// its engine spans were recorded by the server worker `tsb-conn-c` (one
/// worker per connection executes that connection's requests in order), or
/// by the load thread itself when the engine is called in-process. Every
/// request makes exactly one engine call, so the `i`-th engine span (by
/// start time, `wait_durable` aside) belongs to the `i`-th request sent; a
/// `core.wait_durable` span belongs to the last request before it.
pub fn assemble(buffers: Vec<SpanBuf>, conns: usize) -> Assembled {
    let mut out = Assembled {
        requests: Vec::new(),
        unmatched: 0,
        dropped: buffers.iter().map(|b| b.dropped).sum(),
    };
    for conn in 0..conns {
        let mut client: Vec<Span> = Vec::new();
        let mut engine: Vec<Span> = Vec::new();
        for buf in &buffers {
            if buf.thread == format!("load-{conn}") || buf.thread == format!("tsb-conn-{conn}") {
                for span in &buf.spans {
                    if span.name.is_client() {
                        client.push(*span);
                    } else {
                        engine.push(*span);
                    }
                }
            }
        }
        engine.sort_by_key(|s| s.start_ns);
        let mut roots: Vec<RequestTrace> = client
            .iter()
            .filter(|s| s.name == SpanName::ClientRequest)
            .map(|&root| RequestTrace {
                conn,
                root,
                children: Vec::new(),
            })
            .collect();
        roots.sort_by_key(|r| r.root.request);
        for span in client.iter().filter(|s| s.name != SpanName::ClientRequest) {
            match roots.binary_search_by_key(&span.request, |r| r.root.request) {
                Ok(i) => roots[i].children.push(*span),
                Err(_) => out.unmatched += 1,
            }
        }
        let mut next = 0usize;
        for span in engine {
            if span.name == SpanName::WaitDurable {
                match next.checked_sub(1).and_then(|i| roots.get_mut(i)) {
                    Some(r) => r.children.push(span),
                    None => out.unmatched += 1,
                }
            } else {
                match roots.get_mut(next) {
                    Some(r) => r.children.push(span),
                    None => out.unmatched += 1,
                }
                next += 1;
            }
        }
        out.unmatched += (roots.len().saturating_sub(next)) as u64;
        out.requests.extend(roots);
    }
    out
}

/// Writes up to `limit` spans as JSON lines
/// `{name, start_ns, end_ns, trace_id, parent}`.
pub fn write_jsonl(path: &std::path::Path, traces: &[RequestTrace], limit: usize) {
    let write = || -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for t in traces {
            if written >= limit {
                break;
            }
            let id = format!("{}:{}", t.conn, t.root.request);
            for (span, parent) in std::iter::once((&t.root, "null"))
                .chain(t.children.iter().map(|c| (c, "\"client.request\"")))
            {
                writeln!(
                    w,
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"trace_id\":\"{id}\",\"parent\":{parent}}}",
                    span.name.as_str(),
                    span.start_ns,
                    span.end_ns
                )?;
                written += 1;
            }
        }
        w.flush()
    };
    if let Err(e) = write() {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &mut [(10, 40), (30, 50)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 100, &mut [(0, 20), (90, 120)]), 70);
        // A nested child adds nothing; order does not matter.
        assert_eq!(self_time(0, 100, &mut [(40, 45), (10, 60)]), 50);
        assert_eq!(self_time(0, 100, &mut []), 100);
        assert_eq!(self_time(0, 100, &mut [(0, 100)]), 0);
    }

    fn span(name: SpanName, start_ns: u64, end_ns: u64, request: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            request,
        }
    }

    #[test]
    fn engine_spans_attach_by_per_connection_order() {
        let client = SpanBuf {
            thread: "load-0".into(),
            dropped: 0,
            spans: vec![
                span(SpanName::ClientSend, 0, 2, 1),
                span(SpanName::ClientSend, 2, 4, 2),
                span(SpanName::ClientRecv, 4, 30, 1),
                span(SpanName::ClientRequest, 0, 30, 1),
                span(SpanName::ClientRecv, 30, 32, 2),
                span(SpanName::ClientRequest, 2, 32, 2),
            ],
        };
        let server = SpanBuf {
            thread: "tsb-conn-0".into(),
            dropped: 0,
            spans: vec![
                span(SpanName::InsertDeferred, 6, 9, 0),
                span(SpanName::GetCurrent, 9, 10, 0),
                span(SpanName::WaitDurable, 10, 25, 0),
            ],
        };
        let other = SpanBuf {
            thread: "tsb-conn-1".into(),
            dropped: 3,
            spans: vec![span(SpanName::GetCurrent, 1, 2, 0)],
        };
        let a = assemble(vec![client, server, other], 1);
        assert_eq!((a.unmatched, a.dropped, a.requests.len()), (0, 3, 2));
        let names = |t: &RequestTrace| {
            t.children
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            names(&a.requests[0]),
            ["client.send", "client.recv", "core.insert_deferred"]
        );
        // The batch's durability wait attaches to the batch's last request.
        assert_eq!(
            names(&a.requests[1]),
            [
                "client.send",
                "client.recv",
                "core.get_current",
                "core.wait_durable"
            ]
        );
        let r = &a.requests[0];
        let mut kids: Vec<_> = r.children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
        assert_eq!(self_time(r.root.start_ns, r.root.end_ns, &mut kids), 2);
    }
}
