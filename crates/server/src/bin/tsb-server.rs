//! The `tsb-server` binary: open (or create) a durable engine in a data
//! directory and serve it over TCP until a client sends the `Shutdown`
//! verb.
//!
//! ```text
//! tsb-server <data-dir> [--addr HOST:PORT] [--fsync always|os] \
//!            [--shards N] [--small-pages] [--replica-of HOST:PORT] \
//!            [--max-conns N] [--idle-timeout SECS]
//! ```
//!
//! `--shards N` partitions the keyspace across N independent engine
//! shards under one global commit clock (default 1). The shard count is
//! persisted in the data directory and must match on reopen; the wire
//! protocol is identical at every shard count.
//!
//! `--replica-of HOST:PORT` starts a **read replica**: the data directory
//! holds a shipped copy of the primary's log, a background thread keeps it
//! converged (bootstrapping a base image if needed, reconnecting with
//! backoff on failures), and the listener serves read verbs only — write
//! verbs get the `read-only` error. It takes its shard count from its
//! primary, so `--shards` is refused beside it. A replica can be
//! **promoted** in place with the `Promote` verb (`tsb-client`'s
//! `promote()`): it stops replicating at a bumped, fsynced promotion
//! epoch, fences its local copy as a primary, and starts accepting writes
//! — see `docs/operations.md` for the failover runbook.
//!
//! `--max-conns N` sheds connections beyond N with a recoverable
//! `Overloaded` (code 23) error frame instead of queueing them;
//! `--idle-timeout SECS` closes connections that go silent for that long.
//!
//! On success the first stdout line is
//! `tsb-server listening on <addr>` (flushed), so harnesses can scrape the
//! resolved ephemeral port. The process exits 0 after a clean shutdown
//! (workers drained, engine checkpointed), 1 on an engine error, 2 on a
//! usage error.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use tsb_common::FsyncPolicy;
use tsb_core::TsbOptions;
use tsb_server::{ServerOptions, TsbServer};

struct Args {
    data_dir: std::path::PathBuf,
    addr: String,
    fsync: FsyncPolicy,
    shards: Option<usize>,
    small_pages: bool,
    replica_of: Option<String>,
    max_conns: Option<usize>,
    idle_timeout: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tsb-server <data-dir> [--addr HOST:PORT] [--fsync always|os] \
         [--shards N] [--small-pages] [--replica-of HOST:PORT] [--max-conns N] \
         [--idle-timeout SECS]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut data_dir = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut fsync = FsyncPolicy::Always;
    let mut shards = None;
    let mut small_pages = false;
    let mut replica_of = None;
    let mut max_conns = None;
    let mut idle_timeout = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => usage(),
            },
            "--fsync" => {
                let value = match args.next() {
                    Some(v) => v,
                    None => usage(),
                };
                fsync = match value.as_str() {
                    "always" => FsyncPolicy::Always,
                    "os" => FsyncPolicy::Os,
                    _ => usage(),
                };
            }
            "--shards" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => shards = Some(n),
                _ => usage(),
            },
            "--small-pages" => small_pages = true,
            "--replica-of" => match args.next() {
                Some(a) => replica_of = Some(a),
                None => usage(),
            },
            "--max-conns" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => max_conns = Some(n),
                _ => usage(),
            },
            "--idle-timeout" => match args.next().and_then(|n| n.parse().ok()) {
                Some(secs) if secs >= 1 => idle_timeout = Some(Duration::from_secs(secs)),
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            other if data_dir.is_none() && !other.starts_with('-') => {
                data_dir = Some(std::path::PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    if shards.is_some() && replica_of.is_some() {
        eprintln!("tsb-server: a replica takes its shard count from its primary; drop --shards");
        std::process::exit(2);
    }
    match data_dir {
        Some(data_dir) => Args {
            data_dir,
            addr,
            fsync,
            shards,
            small_pages,
            replica_of,
            max_conns,
            idle_timeout,
        },
        None => usage(),
    }
}

fn run(args: Args) -> tsb_common::TsbResult<()> {
    std::fs::create_dir_all(&args.data_dir)?;
    let mut opts = TsbOptions::durable(&args.data_dir).fsync(args.fsync);
    if let Some(shards) = args.shards {
        opts = opts.shards(shards);
    }
    if args.small_pages {
        opts = opts.small_pages();
    }
    let server_opts = ServerOptions {
        max_conns: args.max_conns,
        idle_timeout: args.idle_timeout,
    };
    let addr = args.addr.as_str();
    let server = match args.replica_of {
        // The server owns the replication runner: the `Promote` verb stops
        // it and the engine stops applying. `wait()`/drop stop it on the
        // way out.
        Some(source) => TsbServer::start_replica(opts.open_replica()?, source, addr, server_opts)?,
        None => TsbServer::start_engine_with(Arc::new(opts.open()?), addr, server_opts)?,
    };
    println!("tsb-server listening on {}", server.local_addr());
    std::io::stdout().flush()?;
    server.wait()?;
    // The parent may have closed our stdout by now; the farewell line is
    // best-effort.
    let _ = writeln!(std::io::stdout(), "tsb-server shut down cleanly");
    Ok(())
}

fn main() {
    let args = parse_args();
    if let Err(e) = run(args) {
        eprintln!("tsb-server: {e}");
        std::process::exit(1);
    }
}
