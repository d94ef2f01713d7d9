//! One run of one workload: set up (several times), load in phases, shut
//! down, reopen and verify. What was observed goes to `report` to become
//! the named metrics.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tsb_client::TsbClient;
use tsb_common::Key;
use tsb_core::{EngineHandle, TsbOptions};
use tsb_server::TsbServer;
use tsb_storage::IoSnapshot;

use crate::driver::{run_phases, Conn, Finished, PhaseStats};
use crate::gen::value_for;
use crate::link::Link;
use crate::oracle::{value_ok, Partition};
use crate::trace::{self, TracedEngine};
use crate::workload::{Spec, TXN_SLOTS};
use crate::{alloc, host};

/// Where runs keep their data directories and traces (inside the checkout).
pub const OUT_DIR: &str = "benchmark/out";
/// Cheap set-ups are repeated until they total this long, up to
/// [`CHEAP_SETUPS_FACTOR`] times the requested count.
const CHEAP_SETUPS_FILL: Duration = Duration::from_millis(1500);
const CHEAP_SETUPS_FACTOR: usize = 10;

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Times the set-up is performed at least; `setup_s` is the median.
    pub setups: usize,
    /// Preload size relative to the workload's definition.
    pub scale: f64,
}

pub type Error = Box<dyn std::error::Error>;

/// What the main thread reads while every connection is quiescent.
pub struct Reading {
    pub io: IoSnapshot,
    /// `(allocations, bytes)` counted so far.
    pub allocs: (u64, u64),
}

/// Everything a run observed; `report` derives the metrics from it.
pub struct Observed {
    /// The run's data directory, closed and checkpointed.
    pub dir: PathBuf,
    pub setup_secs: Vec<f64>,
    /// Warm-up, timed and (when tracing) traced phase lengths.
    pub phases: Vec<Duration>,
    /// Per connection, per phase.
    pub stats: Vec<Vec<PhaseStats>>,
    /// One before each phase and one after the last.
    pub readings: Vec<Reading>,
    pub conns: Vec<Finished>,
    /// `VmHWM` when the load ended: before the reopen's recovery and the
    /// key-by-key check add their own memory.
    pub peak_rss_mib: f64,
    /// Bytes of every file in the data directory after the shutdown.
    pub dir_bytes: u64,
    /// Bytes of the magnetic `current.pages` files among them.
    pub current_bytes: u64,
    pub reopen_ms: f64,
    /// Operations of every phase plus the checks after the reopen.
    pub attempted: u64,
    pub failed: u64,
}

struct Setup {
    engine: Arc<dyn EngineHandle>,
    server: Option<TsbServer>,
    conns: Vec<Conn>,
}

fn open(spec: &Spec, dir: &Path) -> Result<Arc<dyn EngineHandle>, Error> {
    let db = TsbOptions::durable(dir)
        .fsync(spec.fsync)
        .shards(spec.shards)
        .open()?;
    Ok(Arc::new(db))
}

/// Opens a fresh engine in `dir`, preloads it (one pass over all keys, in
/// key order, per version), and connects the load threads' links.
fn set_up(args: &RunArgs, dir: &Path) -> Result<Setup, Error> {
    let spec = args.spec;
    std::fs::create_dir_all(dir)?;
    let mut engine = open(spec, dir)?;
    let mut parts: Vec<Partition> = (0..spec.conns)
        .map(|c| {
            let mut p = Partition::new((c as u64 + 1) << 32, spec.cap, TXN_SLOTS);
            p.present = spec.keys_per_partition(args.scale).min(spec.cap);
            p
        })
        .collect();
    let slots: Vec<Vec<u64>> = parts
        .iter()
        .map(|p| {
            let mut slots: Vec<u64> = (0..p.present).map(|i| p.slot_of(i)).collect();
            slots.sort_unstable();
            slots
        })
        .collect();
    for _ in 0..spec.passes_at(args.scale) {
        for (part, slots) in parts.iter_mut().zip(&slots) {
            for &slot in slots {
                let key = part.key(slot);
                let value = value_for(key, part.next_version(slot));
                let (ts, _) = engine.insert_deferred(Key::from_u64(key), value)?;
                part.ack(slot, ts.value());
            }
        }
    }
    engine.checkpoint()?;
    if spec.reopen {
        drop(engine);
        engine = open(spec, dir)?;
    }
    if args.trace {
        engine = Arc::new(TracedEngine(engine));
    }
    let server = match spec.served {
        true => Some(TsbServer::start_engine(Arc::clone(&engine), "127.0.0.1:0")?),
        false => None,
    };
    let mut conns = Vec::new();
    for (c, part) in parts.into_iter().enumerate() {
        // Connecting one at a time makes the server's connection numbers
        // (its worker threads are named after them) match ours.
        let link = match &server {
            Some(s) => Link::Wire(TsbClient::connect(s.local_addr())?),
            None => Link::direct(Arc::clone(&engine)),
        };
        conns.push(Conn::new(c, link, part, spec, args.seed));
    }
    Ok(Setup {
        engine,
        server,
        conns,
    })
}

/// Closes the links, stops the server (which checkpoints) or checkpoints the
/// in-process engine, and releases the data directory.
fn shut_down(setup: Setup) -> Result<Vec<Finished>, Error> {
    let Setup {
        engine,
        server,
        conns,
    } = setup;
    let finished = conns.into_iter().map(Conn::finish).collect();
    match server {
        Some(server) => server.shutdown()?,
        None => engine.checkpoint()?,
    }
    Ok(finished)
}

/// Runs the phases on one load thread per connection. Before each phase and
/// after the last every connection is quiescent at a barrier; the main
/// thread takes its readings and switches counting and tracing there.
fn load(
    args: &RunArgs,
    setup: &mut Setup,
    phases: &[Duration],
) -> Result<(Vec<Vec<PhaseStats>>, Vec<Reading>), Error> {
    let barrier = Barrier::new(setup.conns.len() + 1);
    let engine = Arc::clone(&setup.engine);
    let read = || Reading {
        io: engine.io_snapshot(),
        allocs: alloc::totals(),
    };
    let mut readings = Vec::new();
    let stats = std::thread::scope(|s| -> Result<_, Error> {
        let mut loaders = Vec::new();
        for conn in &mut setup.conns {
            let barrier = &barrier;
            let loader = std::thread::Builder::new()
                .name(format!("load-{}", conn.id))
                .spawn_scoped(s, move || {
                    alloc::set_exempt(true);
                    run_phases(conn, phases, barrier)
                })?;
            loaders.push(loader);
        }
        for phase in 0..phases.len() {
            barrier.wait();
            readings.push(read());
            // Phase 0 is the warm-up; a traced run counts allocations over
            // its timed phases and records spans in the last one.
            alloc::set_counting(args.trace && phase >= 1);
            trace::set_tracing(args.trace && phase == 2);
            barrier.wait();
        }
        barrier.wait();
        readings.push(read());
        alloc::set_counting(false);
        trace::set_tracing(false);
        Ok(loaders
            .into_iter()
            .map(|l| l.join().expect("load thread panicked"))
            .collect())
    })?;
    Ok((stats, readings))
}

pub fn run(args: &RunArgs) -> Result<Observed, Error> {
    let spec = args.spec;
    std::fs::create_dir_all(OUT_DIR)?;
    let dir = data_dir(spec);
    let _ = std::fs::remove_dir_all(&dir);
    trace::now_ns(); // start the clock

    // Set up at least `args.setups` times; the last one is used. A set-up
    // that takes milliseconds is repeated further (its median would
    // otherwise be that of a few noisy file creations).
    let mut setup_secs = Vec::new();
    let mut setup = None;
    let setting_up = Instant::now();
    let most = args.setups.max(1) * CHEAP_SETUPS_FACTOR;
    while setup_secs.len() < args.setups.max(1)
        || (setup_secs.len() < most && setting_up.elapsed() < CHEAP_SETUPS_FILL)
    {
        if let Some(previous) = setup.take() {
            shut_down(previous)?;
            std::fs::remove_dir_all(&dir)?;
        }
        let start = Instant::now();
        setup = Some(set_up(args, &dir)?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");

    // Warm-up, timed phase; a traced run spends the last fifth tracing.
    let secs = Duration::from_secs_f64;
    let warm = secs((args.seconds * 0.05).max(0.05));
    let phases = match args.trace {
        false => vec![warm, secs(args.seconds)],
        true => vec![warm, secs(args.seconds * 0.8), secs(args.seconds * 0.2)],
    };
    let (stats, readings) = load(args, &mut setup, &phases)?;
    let peak_rss_mib = host::peak_rss_mib();

    let conns = shut_down(setup)?;
    let (dir_bytes, current_bytes) = host::dir_bytes(&dir, "current.pages");

    // Reopen the directory; every key's current value must be the oracle's.
    let start = Instant::now();
    let reopened = open(spec, &dir)?;
    let reopen_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut attempted: u64 = stats.iter().flatten().map(|p| p.ops).sum();
    let mut failed: u64 = stats.iter().flatten().map(|p| p.failed).sum();
    attempted += 1;
    if let Err(e) = reopened.verify() {
        eprintln!("verify() failed after reopen: {e}");
        failed += 1;
    }
    for conn in &conns {
        for (slot, version) in conn.part.written() {
            let key = conn.part.key(slot);
            attempted += 1;
            let got = reopened.get_current(&Key::from_u64(key))?;
            if !value_ok(key, version, got.as_deref()) {
                failed += 1;
                if failed <= 3 {
                    eprintln!("key {key:#x}: version {version} did not survive the reopen");
                }
            }
        }
    }
    Ok(Observed {
        dir,
        setup_secs,
        phases,
        stats,
        readings,
        conns,
        peak_rss_mib,
        dir_bytes,
        current_bytes,
        reopen_ms,
        attempted,
        failed,
    })
}

/// This process's data directory for `spec`.
pub fn data_dir(spec: &Spec) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{}-{}", spec.name, std::process::id()))
}
