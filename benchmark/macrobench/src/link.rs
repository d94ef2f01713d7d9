//! How a load thread reaches the engine: over a socket, or by direct calls.
//! Both present the client's pipelining interface (`send` / `recv_any`), so
//! one load loop and one oracle serve all four workloads.

use std::collections::VecDeque;
use std::sync::Arc;

use tsb_client::protocol::{Reply, Request};
use tsb_client::TsbClient;
use tsb_common::{TsbError, TsbResult};
use tsb_core::EngineHandle;

use crate::alloc;

pub enum Link {
    Wire(TsbClient),
    /// Executes each request on the calling thread as the server's dispatch
    /// does (deferred write, then one durability wait) and queues the reply.
    Direct {
        engine: Arc<dyn EngineHandle>,
        next_id: u64,
        ready: VecDeque<(u64, Reply)>,
    },
}

impl Link {
    pub fn direct(engine: Arc<dyn EngineHandle>) -> Link {
        Link::Direct {
            engine,
            next_id: 1,
            ready: VecDeque::new(),
        }
    }

    pub fn send(&mut self, req: Request) -> TsbResult<u64> {
        match self {
            Link::Wire(client) => client.send(&req),
            Link::Direct {
                engine,
                next_id,
                ready,
            } => {
                let id = *next_id;
                *next_id += 1;
                let reply = alloc::counted(|| execute(engine.as_ref(), req));
                ready.push_back((id, reply));
                Ok(id)
            }
        }
    }

    pub fn recv_any(&mut self) -> TsbResult<(u64, Reply)> {
        match self {
            Link::Wire(client) => client.recv_any(),
            Link::Direct { ready, .. } => ready
                .pop_front()
                .ok_or_else(|| TsbError::internal("recv_any with nothing in flight")),
        }
    }
}

fn execute(db: &dyn EngineHandle, req: Request) -> Reply {
    let committed = |r: TsbResult<_>| {
        let (ts, pos) = r?;
        if let Some(pos) = pos {
            db.wait_durable(pos)?;
        }
        Ok(Reply::Committed { ts })
    };
    let result: TsbResult<Reply> = match req {
        Request::Put { key, value } => committed(db.insert_deferred(key, value)),
        Request::Get { key } => db.get_current(&key).map(|value| Reply::Value { value }),
        Request::GetAsOf { key, as_of } => db
            .get_as_of(&key, as_of)
            .map(|value| Reply::Value { value }),
        Request::Range { range, as_of } => match as_of {
            Some(ts) => db.scan_as_of(&range, ts),
            None => db.scan_current(&range),
        }
        .map(|rows| Reply::Rows { rows }),
        Request::History { key, window } => db
            .history_between(&key, window)
            .map(|versions| Reply::Versions { versions }),
        Request::TxnBegin => db.begin_txn().map(|txn| Reply::Txn { txn }),
        Request::TxnWrite {
            txn,
            key,
            value: Some(value),
        } => db.txn_insert(txn, key, value).map(|()| Reply::Unit),
        Request::TxnCommit { txn } => committed(db.commit_txn_deferred(txn)),
        other => Err(TsbError::internal(format!(
            "the benchmark never sends {other:?}"
        ))),
    };
    result.unwrap_or_else(|e| Reply::Error {
        code: e.wire_code(),
        message: e.to_string(),
    })
}
