//! The promotion epoch: a tiny fsynced counter that fences off stale
//! primaries after a failover.
//!
//! Every data directory carries an epoch. A directory that predates this
//! file (all pre-failover deployments) is implicitly at epoch
//! [`INITIAL_EPOCH`]. Promoting a replica bumps the epoch and persists it
//! *before* the new primary accepts writes; the epoch is echoed in the
//! `Role` reply and checked on every `Subscribe`, so a demoted former
//! primary — whose directory still holds the old epoch — is rejected with
//! `StaleEpoch` instead of silently shipping from (or applying onto) a
//! diverged history. The old primary's only way back in is a re-bootstrap
//! (`--replica-of` the new primary), which installs a fresh base and
//! adopts the new epoch.
//!
//! The engine owns the epoch: a [`crate::ShardedTsb`] reads it here when
//! it opens and serves it as [`crate::EngineHandle::epoch`];
//! `install_base` and `promote` write it here before the engine's copy
//! moves. Nothing else holds one.
//!
//! Durability follows the WAL's rename discipline: the value is written to
//! a temp file, fsynced, renamed over [`EPOCH_FILE`], and the parent
//! directory is fsynced so a crash cannot resurrect the old epoch.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use tsb_common::{TsbError, TsbResult};

/// File name of the persisted epoch inside a data directory.
pub const EPOCH_FILE: &str = "tsb.epoch";

/// The epoch of a directory that has never been through a promotion.
pub const INITIAL_EPOCH: u64 = 1;

const MAGIC: &[u8; 8] = b"TSBEPOCH";

/// Reads the directory's promotion epoch. A missing file is
/// [`INITIAL_EPOCH`] (pre-failover directories never wrote one); a present
/// but unreadable file is corruption, not a silent reset — resetting would
/// un-fence a stale primary.
pub fn read_epoch(dir: impl AsRef<Path>) -> TsbResult<u64> {
    let path = dir.as_ref().join(EPOCH_FILE);
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(INITIAL_EPOCH),
        Err(e) => return Err(e.into()),
    };
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    if buf.len() != 16 || &buf[..8] != MAGIC {
        return Err(TsbError::corruption(format!(
            "epoch file {} is malformed ({} bytes)",
            path.display(),
            buf.len()
        )));
    }
    let epoch = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    if epoch == 0 {
        return Err(TsbError::corruption(
            "epoch file holds the reserved epoch 0",
        ));
    }
    Ok(epoch)
}

/// Persists `epoch` durably: temp file + fsync + rename + parent-dir
/// fsync. Refuses to move the epoch backwards — the fence must be
/// monotone or a resurrected old primary could re-fence the new one.
pub fn persist_epoch(dir: impl AsRef<Path>, epoch: u64) -> TsbResult<()> {
    let dir = dir.as_ref();
    if epoch == 0 {
        return Err(TsbError::config("epoch 0 is reserved"));
    }
    let current = read_epoch(dir)?;
    if epoch < current {
        return Err(TsbError::config(format!(
            "refusing to lower the promotion epoch from {current} to {epoch}"
        )));
    }
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{EPOCH_FILE}.tmp"));
    let mut file = File::create(&tmp)?;
    file.write_all(MAGIC)?;
    file.write_all(&epoch.to_le_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(EPOCH_FILE))?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new() -> TempDir {
            use std::sync::atomic::{AtomicU64, Ordering};
            static N: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "tsb-epoch-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn missing_file_is_initial_epoch() {
        let dir = TempDir::new();
        assert_eq!(read_epoch(&dir.0).unwrap(), INITIAL_EPOCH);
    }

    #[test]
    fn round_trips_and_is_monotone() {
        let dir = TempDir::new();
        persist_epoch(&dir.0, 3).unwrap();
        assert_eq!(read_epoch(&dir.0).unwrap(), 3);
        persist_epoch(&dir.0, 3).unwrap();
        persist_epoch(&dir.0, 7).unwrap();
        assert_eq!(read_epoch(&dir.0).unwrap(), 7);
        assert!(persist_epoch(&dir.0, 2).is_err(), "epoch must not regress");
        assert_eq!(read_epoch(&dir.0).unwrap(), 7);
    }

    #[test]
    fn zero_and_garbage_are_rejected() {
        let dir = TempDir::new();
        assert!(persist_epoch(&dir.0, 0).is_err());
        std::fs::write(dir.0.join(EPOCH_FILE), b"nonsense").unwrap();
        assert!(
            read_epoch(&dir.0).is_err(),
            "garbage must not read as an epoch"
        );
    }
}
