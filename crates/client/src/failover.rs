//! [`FailoverClient`]: retries over an endpoint list, following the
//! primary across promotions.

use std::time::Duration;

use tsb_common::{Key, KeyRange, TimeRange, Timestamp, TsbError, TsbResult};

use crate::{connection_broken, ClientOptions, TsbClient};

/// A client that holds a **list of candidate endpoints** (primary plus
/// replicas) instead of one connection, and retries per
/// [`crate::RetryPolicy`]:
///
/// * **Reads** (idempotent) are served by whichever endpoint answers —
///   replicas included — and rotate to the next candidate on connection
///   failure or overload shedding.
/// * **Writes** follow the primary. On `read-only` (the endpoint is a
///   replica, or a primary that has been demoted/fenced), on overload, or
///   on a broken connection, the client re-discovers the primary by
///   asking every reachable endpoint for its `role` and picking the
///   primary with the **highest promotion epoch**, then retries there.
///
/// Failed write retries are **at-least-once**: a connection that dies
/// between send and reply leaves the outcome unknown, and the retry may
/// apply the write a second time (two adjacent versions with the same
/// value — harmless for last-writer-wins keys, observable in version
/// histories). Callers that need exactly-once must keep their own idempotency
/// keys.
///
/// Each failed attempt sleeps a deterministically jittered exponential
/// backoff (seeded by `salt`, see [`crate::RetryPolicy::backoff_for`]), so a
/// thousand clients re-finding a freshly promoted primary do not arrive in
/// lockstep.
pub struct FailoverClient {
    endpoints: Vec<String>,
    opts: ClientOptions,
    salt: u64,
    /// Connection currently believed to be the primary.
    primary: Option<TsbClient>,
    /// Connection serving reads (may be a replica, may be the index of a
    /// primary — whatever answered).
    reader: Option<TsbClient>,
    /// Rotation cursor for read connections, so consecutive reconnects
    /// spread over the endpoint list.
    reader_cursor: usize,
    attempts_observed: u64,
}

impl FailoverClient {
    /// Creates a failover client over `endpoints` (each `host:port`).
    /// Connections are opened lazily, per operation class. `salt` seeds
    /// retry jitter: fix it for reproducible schedules, derive it from a
    /// per-client id in fleets.
    pub fn new(
        endpoints: impl IntoIterator<Item = impl Into<String>>,
        opts: ClientOptions,
        salt: u64,
    ) -> TsbResult<FailoverClient> {
        let endpoints: Vec<String> = endpoints.into_iter().map(Into::into).collect();
        if endpoints.is_empty() {
            return Err(TsbError::config(
                "FailoverClient needs at least one endpoint",
            ));
        }
        Ok(FailoverClient {
            endpoints,
            opts,
            salt,
            primary: None,
            reader: None,
            reader_cursor: 0,
            attempts_observed: 0,
        })
    }

    /// Total attempts that failed and were retried so far (for harnesses
    /// asserting that chaos actually exercised the retry path).
    pub fn retries(&self) -> u64 {
        self.attempts_observed
    }

    // ----- the verbs ------------------------------------------------------

    /// Durable insert on the current primary, failing over if it moved.
    pub fn put(&mut self, key: impl Into<Key>, value: Vec<u8>) -> TsbResult<Timestamp> {
        let (key, value) = (key.into(), value);
        self.with_retry(true, move |c| c.put(key.clone(), value.clone()))
    }

    /// Durable delete on the current primary, failing over if it moved.
    pub fn delete(&mut self, key: impl Into<Key>) -> TsbResult<Timestamp> {
        let key = key.into();
        self.with_retry(true, move |c| c.delete(key.clone()))
    }

    /// Point read from any live endpoint. A replica serves it too: its
    /// reads are pinned at its applied durable prefix, so they may trail
    /// the primary (bounded staleness) but never see a torn or
    /// uncommitted state.
    pub fn get(&mut self, key: impl Into<Key>) -> TsbResult<Option<Vec<u8>>> {
        let key = key.into();
        self.with_retry(false, move |c| c.get(key.clone()))
    }

    /// As-of point read from any live endpoint.
    pub fn get_as_of(
        &mut self,
        key: impl Into<Key>,
        as_of: Timestamp,
    ) -> TsbResult<Option<Vec<u8>>> {
        let key = key.into();
        self.with_retry(false, move |c| c.get_as_of(key.clone(), as_of))
    }

    /// Range scan from any live endpoint.
    pub fn range(
        &mut self,
        range: KeyRange,
        as_of: Option<Timestamp>,
    ) -> TsbResult<Vec<(Key, Vec<u8>)>> {
        self.with_retry(false, move |c| c.range(range.clone(), as_of))
    }

    /// Version history from any live endpoint.
    pub fn history(
        &mut self,
        key: impl Into<Key>,
        window: TimeRange,
    ) -> TsbResult<Vec<tsb_common::Version>> {
        let key = key.into();
        self.with_retry(false, move |c| c.history(key.clone(), window))
    }

    // ----- machinery ------------------------------------------------------

    fn with_retry<T>(
        &mut self,
        write: bool,
        mut op: impl FnMut(&mut TsbClient) -> TsbResult<T>,
    ) -> TsbResult<T> {
        let max_retries = self.opts.retry.max_retries;
        let mut last_err: Option<TsbError> = None;
        for attempt in 0..=max_retries {
            if attempt > 0 {
                self.attempts_observed += 1;
                std::thread::sleep(self.opts.retry.backoff_for(attempt - 1, self.salt));
            }
            let conn = if write {
                self.primary_conn()
            } else {
                self.read_conn()
            };
            let client = match conn {
                Ok(c) => c,
                Err(e) => {
                    // Could not reach any endpoint this round; back off
                    // and try again unless the budget is gone.
                    last_err = Some(e);
                    continue;
                }
            };
            match op(client) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let drop_conn = connection_broken(&e)
                        // A write answered `read-only` means this endpoint
                        // is not (any longer) the primary: re-discover.
                        || (write && matches!(e, TsbError::ReadOnly))
                        // Shed at accept: this endpoint is saturated,
                        // rotate away from it.
                        || matches!(e, TsbError::Overloaded(_))
                        // A read answered with a transient server-side
                        // condition (e.g. a replica still bootstrapping):
                        // rotate rather than hammer the same endpoint.
                        || (!write && matches!(e, TsbError::Internal(_)));
                    if drop_conn {
                        if write {
                            self.primary = None;
                        } else {
                            self.reader = None;
                        }
                    }
                    if !retryable(&e, write) {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err
            .unwrap_or_else(|| TsbError::internal("retry loop ended without an error recorded")))
    }

    fn primary_conn(&mut self) -> TsbResult<&mut TsbClient> {
        if self.primary.is_none() {
            self.primary = Some(self.discover_primary()?);
        }
        Ok(self.primary.as_mut().unwrap())
    }

    /// Asks every reachable endpoint for its role and keeps the primary
    /// with the highest promotion epoch (after a failover, both the newly
    /// promoted node and — briefly — a rebooted stale primary may claim
    /// the role; the epoch arbitrates).
    fn discover_primary(&mut self) -> TsbResult<TsbClient> {
        // Probe with a snappy connect so one dead endpoint does not eat
        // the whole retry budget.
        let probe_opts = ClientOptions {
            connect_timeout: self.opts.connect_timeout.min(Duration::from_secs(2)),
            ..self.opts.clone()
        };
        let mut best: Option<(u64, TsbClient)> = None;
        let mut last_err: Option<TsbError> = None;
        for addr in &self.endpoints {
            let mut client = match TsbClient::connect_with(addr.as_str(), &probe_opts) {
                Ok(c) => c,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            match client.role() {
                Ok(role) if role.primary => {
                    if best.as_ref().is_none_or(|(epoch, _)| role.epoch > *epoch) {
                        best = Some((role.epoch, client));
                    }
                }
                Ok(_) => {}
                Err(e) => last_err = Some(e),
            }
        }
        match best {
            Some((_, client)) => Ok(client),
            None => Err(last_err.unwrap_or_else(|| {
                TsbError::internal("no endpoint currently claims the primary role")
            })),
        }
    }

    fn read_conn(&mut self) -> TsbResult<&mut TsbClient> {
        if self.reader.is_none() {
            self.reader = Some(self.connect_reader()?);
        }
        Ok(self.reader.as_mut().unwrap())
    }

    /// Connects to the next endpoint in rotation that accepts (replica or
    /// primary — for reads either will do; a replica that is still
    /// bootstrapping answers reads with `unavailable`, which the retry
    /// loop treats like any other transient failure).
    fn connect_reader(&mut self) -> TsbResult<TsbClient> {
        let n = self.endpoints.len();
        let mut last_err: Option<TsbError> = None;
        for step in 0..n {
            let idx = (self.reader_cursor + step) % n;
            match TsbClient::connect_with(self.endpoints[idx].as_str(), &self.opts) {
                Ok(c) => {
                    self.reader_cursor = (idx + 1) % n;
                    return Ok(c);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| TsbError::internal("endpoint list is empty")))
    }
}

/// Whether an error is worth another attempt.
fn retryable(e: &TsbError, write: bool) -> bool {
    if connection_broken(e) {
        return true;
    }
    match e {
        // Shed at accept or saturated: nothing executed, safe for both
        // classes.
        TsbError::Overloaded(_) => true,
        // The endpoint is not the primary (replica, or demoted): writes
        // retry against the re-discovered primary. A read never sees
        // this.
        TsbError::ReadOnly => write,
        // The per-op deadline is the caller's end-to-end budget; once it
        // is spent, retrying would overrun it.
        TsbError::DeadlineExceeded(_) => false,
        // Replica not serving yet / mid-rebase (travels as a remote
        // `config` error): transient for reads — rotate and retry.
        TsbError::Internal(msg) => !write && msg.contains("not serving"),
        _ => false,
    }
}
