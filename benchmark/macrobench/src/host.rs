//! What the host contributes: calibrations that say whether the *machine*
//! moved between two run sets, the process's peak memory, file sizes.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Median microseconds of a 4 KiB write + fsync, over 200 of them, in `dir`.
pub fn fsync_floor_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-floor.tmp");
    let probe = || -> std::io::Result<Vec<f64>> {
        let mut file = std::fs::File::create(&path)?;
        let block = [0xA5u8; 4096];
        let mut samples = Vec::with_capacity(200);
        for _ in 0..200 {
            let start = Instant::now();
            file.write_all(&block)?;
            file.sync_all()?;
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(samples)
    };
    let samples = probe();
    let _ = std::fs::remove_file(&path);
    match samples {
        Ok(mut s) => {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        }
        Err(e) => {
            eprintln!("warning: fsync calibration failed: {e}");
            0.0
        }
    }
}

/// Nanoseconds per iteration of a fixed dependent integer loop.
pub fn spin_ns_per_iter() -> f64 {
    const ITERS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = black_box(1u64);
    for _ in 0..ITERS {
        // Opaque each round, or the compiler folds the recurrence.
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(bytes of every file under dir, bytes of the files named name)`.
pub fn dir_bytes(dir: &Path, name: &str) -> (u64, u64) {
    let (mut all, mut named) = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (a, n) = dir_bytes(&path, name);
            all += a;
            named += n;
        } else if let Ok(meta) = entry.metadata() {
            all += meta.len();
            if entry.file_name() == name {
                named += meta.len();
            }
        }
    }
    (all, named)
}

/// The directories holding a tree each: `dir` itself, or its `shard-NNN`s.
pub fn tree_dirs(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut shards: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    shards.sort();
    if shards.is_empty() {
        vec![dir.to_path_buf()]
    } else {
        shards
    }
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .unwrap_or_default()
        .trim()
        .to_string()
}

/// Filesystem type of the mount holding `dir` (longest matching mount point).
pub fn filesystem(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
