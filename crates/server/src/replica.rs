//! The replica-side replication runner.
//!
//! [`ReplicaRunner`] owns a background thread that keeps a replica — a
//! [`ShardedTsb`] opened with `TsbOptions::open_replica`, at its primary's
//! shard count once a base is installed — converged with a primary
//! `tsb-server`:
//!
//! 1. **Bootstrap.** If the replica has no usable local state
//!    ([`ShardedTsb::needs_base`]), fetch a consistent base image
//!    (`fetch_base` + chunked `fetch_base_pages`/`fetch_base_worm`, shard
//!    by shard) and install it.
//! 2. **Stream.** Pull committed log records with `subscribe` from the
//!    replica's resume cursor and apply each batch. An empty batch means
//!    caught up — sleep briefly and poll again.
//! 3. **Rebase.** A `needs_rebase` reply means a primary checkpoint
//!    discarded the gap the replica still needed; wipe and re-bootstrap
//!    from a fresh base.
//! 4. **Recover.** Any failure — connection loss, a primary restart, an
//!    apply error — drops the connection and reconnects after a
//!    [`RetryPolicy`] backoff, which grows with each failure in a row and
//!    starts over once a session applies a batch. The connection is an
//!    ordinary [`TsbClient`], whose connect and every wait are bounded, so
//!    [`ReplicaRunner::stop`] never waits on an unreachable primary. A
//!    failed apply or install leaves the replica without an
//!    applier (crash-equivalent by contract), so the next attempt first
//!    reopens it from its own disk. The resume cursor is the replica's
//!    local applied prefix, so every retry is idempotent: the primary
//!    skips nothing and the replica skips duplicates.
//!
//! Installing a base and reopening each hand back a new engine; the runner
//! gives every one to its `publish` callback (a server swaps it into its
//! serving slot), hands the newest back when stopped
//! ([`ReplicaRunner::stop`]), and can resume feeding one
//! ([`ReplicaRunner::resume`]). The promotion epoch is the engine's: the
//! runner presents [`EngineHandle::epoch`] on every subscribe, and an
//! install adopts the base's (or refuses a base of an older epoch).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tsb_client::protocol::{Reply, Request, CODE_STALE_EPOCH};
use tsb_client::{remote_error, ClientOptions, Deadline, RetryPolicy, TsbClient};
use tsb_common::{TsbError, TsbResult};
use tsb_core::{EngineHandle, PageId, ReplicaBase, ShardImage, ShardedTsb, ShippedBatch};

use crate::{BASE_CHUNK_MAX_BYTES, SUBSCRIBE_MAX_BYTES};

/// Sleep between polls while caught up with the primary.
const IDLE_POLL: Duration = Duration::from_millis(2);
/// The longest a connect to the primary may take, so an unreachable one
/// holds [`ReplicaRunner::stop`] up no longer than this.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// How long a wait for a reply runs before it looks at the stop flag.
const CALL_SLICE: Duration = Duration::from_millis(250);
/// How long a reply may take before the connection is declared broken.
/// Guards against a link that is alive at the TCP level but silently
/// stalled — e.g. a desynchronized byte stream whose next "frame header"
/// declared a length that never arrives (the checksum can only reject a
/// frame once it completes). The primary answers every request at once
/// (subscribe is not a long-poll; the largest reply is a 4 MiB base
/// chunk), so a call this late is on a dead link; reconnecting from the
/// durable cursor is always safe.
const CALL_STALL_LIMIT: Duration = Duration::from_secs(10);

/// Background thread replicating a primary into a replica [`ShardedTsb`].
///
/// Dropping the runner (or calling [`ReplicaRunner::stop`]) signals the
/// thread and joins it; the replica keeps serving whatever it has applied.
pub struct ReplicaRunner {
    source: String,
    publish: Publish,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<ShardedTsb>>,
}

/// Where every engine the runner installs or reopens goes.
type Publish = Arc<dyn Fn(&ShardedTsb) + Send + Sync>;

/// The engine the runner applies to — the newest — and whoever serves it.
struct Feed {
    replica: ShardedTsb,
    publish: Publish,
}

impl Feed {
    /// Serves and applies to `db` from now on.
    fn replace(&mut self, db: ShardedTsb) {
        (self.publish)(&db);
        self.replica = db;
    }
}

impl ReplicaRunner {
    /// Starts replicating from the primary at `source` into `replica`.
    /// Every engine the runner installs or reopens goes to `publish`.
    /// Fails on an engine not opened as a replica.
    pub fn start(
        replica: ShardedTsb,
        source: impl Into<String>,
        publish: impl Fn(&ShardedTsb) + Send + Sync + 'static,
    ) -> TsbResult<ReplicaRunner> {
        let mut runner = ReplicaRunner {
            source: source.into(),
            publish: Arc::new(publish),
            stop: Arc::new(AtomicBool::new(false)),
            handle: None,
        };
        runner.resume(replica)?;
        Ok(runner)
    }

    /// Starts the stopped runner again, feeding `replica` — e.g. the engine
    /// [`Self::stop`] returned, when a promotion of it failed.
    pub fn resume(&mut self, replica: ShardedTsb) -> TsbResult<()> {
        if replica.replica_dir().is_none() {
            return Err(TsbError::config(
                "a runner feeds an engine opened as a replica",
            ));
        }
        self.stop = Arc::new(AtomicBool::new(false));
        let mut feed = Feed {
            replica,
            publish: Arc::clone(&self.publish),
        };
        let stop = Arc::clone(&self.stop);
        let source = self.source.clone();
        let handle = std::thread::Builder::new()
            .name("tsb-replica".into())
            .spawn(move || {
                run(&mut feed, &source, &stop);
                feed.replica
            })?;
        self.handle = Some(handle);
        Ok(())
    }

    /// Signals the thread to stop, waits for it to exit, and returns the
    /// engine it applied to last (the one to promote); `None` once
    /// stopped.
    pub fn stop(&mut self) -> Option<ShardedTsb> {
        self.stop.store(true, Ordering::Release);
        self.handle.take().and_then(|handle| handle.join().ok())
    }
}

impl Drop for ReplicaRunner {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The thread body: sync until an error, then backoff + retry. The backoff
/// counts the failures since a session last applied a batch, so a primary
/// restart after hours of healthy streaming waits the shortest backoff,
/// not the ceiling.
fn run(feed: &mut Feed, source: &str, stop: &AtomicBool) {
    let retry = RetryPolicy::default();
    let salt = u64::from(std::process::id());
    let mut failures = 0;
    while !stop.load(Ordering::Acquire) {
        // A clean return only happens on a stop request.
        if sync_session(feed, source, stop, &mut failures).is_ok() {
            return;
        }
        interruptible_sleep(stop, retry.backoff_for(failures, salt));
        failures = failures.saturating_add(1);
    }
}

/// One connection's worth of work: recover the replica if a failed apply
/// left it without an applier, bootstrap if needed, then stream until the
/// connection or an apply fails (returned as an error) or a stop is
/// requested (returned as `Ok`). Each applied batch zeroes `failures`.
fn sync_session(
    feed: &mut Feed,
    source: &str,
    stop: &AtomicBool,
    failures: &mut u32,
) -> TsbResult<()> {
    if feed.replica.resume_lsn().is_none() && !feed.replica.needs_base() {
        // A failed apply or install is crash-equivalent: recover from the
        // replica's own disk before asking the primary for anything.
        let reopened = feed.replica.reopen()?;
        feed.replace(reopened);
    }
    let opts = ClientOptions {
        connect_timeout: CONNECT_TIMEOUT,
        ..ClientOptions::default()
    };
    let mut primary = Primary {
        client: TsbClient::connect_with(source, &opts)?,
        stop,
    };
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        if feed.replica.needs_base() {
            bootstrap(feed, &mut primary)?;
        }
        let replica = &feed.replica;
        let from_lsn = replica.resume_lsn().ok_or_else(|| {
            TsbError::internal("replica has a base installed but no resume cursor")
        })?;
        let reply = primary.call(&Request::Subscribe {
            from_lsn,
            worm_have: replica.worm_have(),
            max_bytes: SUBSCRIBE_MAX_BYTES as u64,
            epoch: replica.epoch(),
        })?;
        let batch = match reply {
            Reply::Batch {
                needs_rebase,
                durable_lsn,
                worm,
                records,
            } => ShippedBatch {
                needs_rebase,
                durable_lsn,
                worm,
                records,
            },
            Reply::Error { code, .. } if code == CODE_STALE_EPOCH => {
                // The primary is at a different epoch than the one our
                // local copy was shipped under: our history may have
                // diverged (we are a demoted primary, or we replicated
                // one). The delta stream is useless — re-bootstrap from a
                // fresh base and adopt the primary's epoch.
                bootstrap(feed, &mut primary)?;
                continue;
            }
            other => return Err(unexpected("subscribe", other)),
        };
        if batch.needs_rebase {
            // The primary checkpointed past our cursor: our local copy can
            // no longer be extended. Re-bootstrap from a fresh image.
            bootstrap(feed, &mut primary)?;
            continue;
        }
        // Empty batches still go through apply: they refresh the
        // source-durable watermark the lag accounting reports.
        let caught_up = batch.records.is_empty();
        replica.apply_batch(&batch)?;
        *failures = 0;
        if caught_up {
            interruptible_sleep(stop, IDLE_POLL);
        }
    }
}

/// Fetches a fresh base image and installs it, adopting the primary's
/// epoch: [`ShardedTsb::install_base`] refuses a base of an older epoch
/// than this node's (a promotion that failed past its epoch bump), so
/// only a promotion moves such a node on.
fn bootstrap(feed: &mut Feed, primary: &mut Primary<'_>) -> TsbResult<()> {
    let base = fetch_base(primary, &feed.replica)?;
    let installed = feed.replica.install_base(&base)?;
    feed.replace(installed);
    Ok(())
}

/// Fetches a complete base image over the connection: the `fetch_base`
/// snapshot descriptor, then each shard's page chunks and WORM chunks. A
/// base `replica` would refuse for its epoch is refused at the descriptor,
/// before any page moves.
fn fetch_base(primary: &mut Primary<'_>, replica: &ShardedTsb) -> TsbResult<ReplicaBase> {
    let reply = primary.call(&Request::FetchBase)?;
    let Reply::BaseInfo {
        checkpoint_lsn,
        checkpoint,
        page_counts,
        page_size,
        worm_sector_size,
        epoch,
    } = reply
    else {
        return Err(unexpected("fetch_base", reply));
    };
    replica.admit_base_epoch(epoch)?;
    let mut shards = Vec::with_capacity(page_counts.len());
    for (shard, pages) in (0..).zip(page_counts) {
        let pages = fetch_pages(primary, shard, pages)?;
        let worm = fetch_worm(primary, shard)?;
        shards.push(ShardImage { pages, worm });
    }
    Ok(ReplicaBase {
        checkpoint_lsn,
        checkpoint,
        shards,
        page_size: page_size as usize,
        worm_sector_size: worm_sector_size as usize,
        epoch,
    })
}

/// Fetches every page of `shard` in the captured base, chunk by chunk.
fn fetch_pages(
    primary: &mut Primary<'_>,
    shard: u32,
    page_count: u64,
) -> TsbResult<Vec<(PageId, Vec<u8>)>> {
    let mut pages: Vec<(PageId, Vec<u8>)> = Vec::new();
    loop {
        let reply = primary.call(&Request::FetchBasePages {
            shard,
            start: pages.len() as u64,
            max_bytes: BASE_CHUNK_MAX_BYTES as u64,
        })?;
        match reply {
            Reply::BasePages { pages: chunk, done } => {
                if chunk.is_empty() && !done {
                    return Err(TsbError::internal(
                        "primary sent an empty page chunk without finishing",
                    ));
                }
                pages.extend(chunk.into_iter().map(|(id, bytes)| (PageId(id), bytes)));
                if done {
                    break;
                }
            }
            other => return Err(unexpected("fetch_base_pages", other)),
        }
    }
    if pages.len() as u64 != page_count {
        return Err(TsbError::internal(format!(
            "base image advertised {page_count} pages for shard {shard} but shipped {}",
            pages.len()
        )));
    }
    Ok(pages)
}

/// Fetches the WORM image of `shard` in the captured base, chunk by chunk.
fn fetch_worm(primary: &mut Primary<'_>, shard: u32) -> TsbResult<Vec<u8>> {
    let mut worm = Vec::new();
    loop {
        let reply = primary.call(&Request::FetchBaseWorm {
            shard,
            offset: worm.len() as u64,
            max_bytes: BASE_CHUNK_MAX_BYTES as u64,
        })?;
        match reply {
            Reply::BaseWorm { bytes, done } => {
                worm.extend_from_slice(&bytes);
                if done {
                    return Ok(worm);
                }
                if bytes.is_empty() {
                    return Err(TsbError::internal(
                        "primary sent an empty WORM chunk without finishing",
                    ));
                }
            }
            other => return Err(unexpected("fetch_base_worm", other)),
        }
    }
}

/// The error for a reply that is not the one `verb` asked for.
fn unexpected(verb: &str, reply: Reply) -> TsbError {
    match reply {
        Reply::Error { code, message } => remote_error(code, &message),
        other => TsbError::internal(format!("unexpected reply to {verb}: {other:?}")),
    }
}

/// Sleeps up to `total`, waking early if a stop is requested.
fn interruptible_sleep(stop: &AtomicBool, total: Duration) {
    let step = Duration::from_millis(20).min(total);
    let mut left = total;
    while !left.is_zero() && !stop.load(Ordering::Acquire) {
        let chunk = step.min(left);
        std::thread::sleep(chunk);
        left = left.saturating_sub(chunk);
    }
}

/// A session's connection to its primary, and the flag that cuts its
/// waits short.
struct Primary<'a> {
    client: TsbClient,
    stop: &'a AtomicBool,
}

impl Primary<'_> {
    /// Sends one request and waits for its reply in [`CALL_SLICE`]s,
    /// failing once a stop is requested or the reply is
    /// [`CALL_STALL_LIMIT`] late.
    fn call(&mut self, req: &Request) -> TsbResult<Reply> {
        let id = self.client.send(req)?;
        let limit = Deadline::after(CALL_STALL_LIMIT);
        loop {
            match self
                .client
                .wait_for_deadline(id, Deadline::after(CALL_SLICE))
            {
                Err(TsbError::DeadlineExceeded(_)) if self.stop.load(Ordering::Acquire) => {
                    return Err(TsbError::internal("replication stopped"))
                }
                Err(TsbError::DeadlineExceeded(_)) if limit.expired() => {
                    return Err(TsbError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("primary sent no reply within {CALL_STALL_LIMIT:?}"),
                    )))
                }
                Err(TsbError::DeadlineExceeded(_)) => {}
                reply => return reply,
            }
        }
    }
}
