//! The WORM (write-once, read-many) optical-disk simulator.
//!
//! The historical database device. Two properties of the real hardware drive
//! the paper's design and are enforced here:
//!
//! 1. **Write-once sectors.** "When a sector or block is written, an
//!    error-correcting code is appended to the sector ... burned into the
//!    disk. Thus, even when a small amount of data is written, the rest of
//!    the sector is unusable" (§1). A sector can be written exactly once;
//!    rewriting returns [`TsbError::WormRewrite`].
//! 2. **Sequential append of consolidated nodes.** The TSB-tree "consolidates
//!    and appends" historical nodes to the end of the historical database
//!    (§1, §3.4); the node address is just `(offset, length)`.
//!
//! The store exposes both interfaces:
//!
//! * [`WormStore::append`] — used by the TSB-tree's migration path: a
//!   variable-length historical node is placed on the next free sector
//!   boundary and the exact payload length is recorded, so utilization is
//!   `payload / (sectors × sector_size)` and approaches 1 for large nodes.
//! * [`WormStore::allocate_extent`] / [`WormStore::write_sector`] — used by
//!   the Write-Once B-tree baseline, which allocates fixed-size node extents
//!   and burns one *new entry per sector* as the paper describes (§2.1).
//!
//! Both interfaces share the same sector space, the same write-once
//! enforcement, and the same utilization accounting, so TSB-vs-WOBT space
//! comparisons are apples-to-apples.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_common::{TsbError, TsbResult};

use crate::fault::{CrashPoint, FaultInjector};
use crate::page::HistAddr;
use crate::stats::IoStats;

/// Index of a sector on the WORM device.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SectorId(pub u64);

impl SectorId {
    /// The raw sector number.
    pub const fn value(&self) -> u64 {
        self.0
    }

    /// Byte offset of the start of this sector.
    pub const fn byte_offset(&self, sector_size: usize) -> u64 {
        self.0 * sector_size as u64
    }
}

struct Inner {
    /// The device bytes of the in-memory backend (empty when file-backed).
    memory: Vec<u8>,
    /// Optional crash-injection hook consulted by `append`.
    injector: Option<Arc<FaultInjector>>,
    /// Next sector that has never been allocated.
    next_free_sector: u64,
    /// Per-sector written flag (a sector may be allocated but not yet burned,
    /// e.g. the tail of a WOBT node extent).
    written: Vec<bool>,
    /// Total bytes of real payload burned (excluding padding).
    payload_bytes: u64,
}

/// The append-only, sector-granular historical store.
pub struct WormStore {
    sector_size: usize,
    /// The device of the file backend; `None` for the in-memory backend.
    /// Every access is positional (`read_exact_at` / `write_all_at`), so
    /// there is no seek cursor to share and the handle sits outside `inner`:
    /// writers serialize on `inner`, and a reader touches only sectors that
    /// `inner.written` marked burned after their write completed.
    file: Option<File>,
    inner: Mutex<Inner>,
    stats: Arc<IoStats>,
}

impl std::fmt::Debug for WormStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WormStore")
            .field("sector_size", &self.sector_size)
            .field("sectors_allocated", &self.sectors_allocated())
            .field("payload_bytes", &self.payload_bytes())
            .finish()
    }
}

impl WormStore {
    /// Creates an in-memory WORM store.
    pub fn in_memory(sector_size: usize, stats: Arc<IoStats>) -> Self {
        WormStore {
            sector_size,
            file: None,
            inner: Mutex::new(Inner {
                memory: Vec::new(),
                injector: None,
                next_free_sector: 0,
                written: Vec::new(),
                payload_bytes: 0,
            }),
            stats,
        }
    }

    /// Opens (or creates) a file-backed WORM store.
    ///
    /// The written-sector map is reconstructed conservatively on reopen: all
    /// sectors present in the file are considered written (the device never
    /// shrinks), which preserves the write-once guarantee across restarts.
    /// A reopened store cannot tell payload from sector padding, so its
    /// [`Self::payload_bytes`] (and [`Self::utilization`]) counts the
    /// padding too. Only the in-memory WOBT baseline reads that counter: a
    /// TSB-tree's census sums the lengths its historical addresses record.
    pub fn open_file(
        path: impl AsRef<Path>,
        sector_size: usize,
        stats: Arc<IoStats>,
    ) -> TsbResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let sectors = len.div_ceil(sector_size as u64);
        Ok(WormStore {
            sector_size,
            file: Some(file),
            inner: Mutex::new(Inner {
                memory: Vec::new(),
                injector: None,
                next_free_sector: sectors,
                written: vec![true; sectors as usize],
                payload_bytes: len,
            }),
            stats,
        })
    }

    /// The configured sector size in bytes.
    pub fn sector_size(&self) -> usize {
        self.sector_size
    }

    /// The shared I/O statistics sink.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Wires a fault injector into the append path (tests only).
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        self.inner.lock().injector = Some(injector);
    }

    /// Writes `bytes` at `offset`. The caller holds `inner`, which is what
    /// serializes writers.
    fn write_at(&self, inner: &mut Inner, offset: u64, bytes: &[u8]) -> TsbResult<()> {
        match &self.file {
            Some(file) => file.write_all_at(bytes, offset)?,
            None => {
                let end = (offset + bytes.len() as u64) as usize;
                if inner.memory.len() < end {
                    inner.memory.resize(end, 0);
                }
                inner.memory[offset as usize..end].copy_from_slice(bytes);
            }
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset` if `allowed` says the range is
    /// readable. `inner` is held for that check (and for the in-memory
    /// backend's copy) only: the file read happens after the lock is
    /// released, so historical readers do not queue behind one another's
    /// I/O. A read counts in `worm_reads` once it passes the check.
    fn read_at(
        &self,
        offset: u64,
        len: usize,
        allowed: impl FnOnce(&Inner) -> bool,
    ) -> TsbResult<Vec<u8>> {
        let out_of_bounds = || TsbError::WormOutOfBounds {
            offset,
            len: len as u64,
        };
        let file = {
            let inner = self.inner.lock();
            if !allowed(&inner) {
                return Err(out_of_bounds());
            }
            self.stats.record_worm_read();
            match &self.file {
                Some(file) => file,
                None => {
                    return inner
                        .memory
                        .get(offset as usize..offset as usize + len)
                        .map(<[u8]>::to_vec)
                        .ok_or_else(out_of_bounds)
                }
            }
        };
        let mut buf = vec![0u8; len];
        file.read_exact_at(&mut buf, offset)
            .map_err(|_| out_of_bounds())?;
        Ok(buf)
    }

    /// Appends a consolidated historical node to the end of the store.
    ///
    /// The node is placed at the next sector boundary and padded to a whole
    /// number of sectors (that padding is the only space lost — §3.4: "it is
    /// possible to come close" to perfect utilization). Returns the
    /// `(offset, length)` address used by index entries.
    pub fn append(&self, payload: &[u8]) -> TsbResult<HistAddr> {
        if payload.is_empty() {
            return Err(TsbError::internal("appending an empty historical node"));
        }
        if payload.len() > u32::MAX as usize {
            return Err(TsbError::EntryTooLarge {
                entry_size: payload.len(),
                capacity: u32::MAX as usize,
            });
        }
        let mut inner = self.inner.lock();
        if let Some(injector) = &inner.injector {
            injector.check(CrashPoint::WormAppend)?;
        }
        let sectors_needed = payload.len().div_ceil(self.sector_size) as u64;
        let first_sector = inner.next_free_sector;
        let offset = first_sector * self.sector_size as u64;

        let mut padded = payload.to_vec();
        padded.resize((sectors_needed as usize) * self.sector_size, 0);
        self.write_at(&mut inner, offset, &padded)?;

        inner.next_free_sector += sectors_needed;
        let new_len = inner.next_free_sector as usize;
        if inner.written.len() < new_len {
            inner.written.resize(new_len, false);
        }
        for s in first_sector..first_sector + sectors_needed {
            inner.written[s as usize] = true;
        }
        inner.payload_bytes += payload.len() as u64;
        self.stats.record_worm_append();
        Ok(HistAddr::new(offset, payload.len() as u32))
    }

    /// Reads a historical node previously written by [`Self::append`].
    pub fn read(&self, addr: HistAddr) -> TsbResult<Vec<u8>> {
        let sector_size = self.sector_size as u64;
        if !addr.offset.is_multiple_of(sector_size) {
            return Err(TsbError::corruption(format!(
                "historical address {addr} is not sector-aligned"
            )));
        }
        let first_sector = addr.offset / sector_size;
        let last_sector = (addr.offset + addr.len.max(1) as u64 - 1) / sector_size;
        self.read_at(addr.offset, addr.len as usize, |inner| {
            (first_sector..=last_sector)
                .all(|s| inner.written.get(s as usize).copied().unwrap_or(false))
        })
    }

    /// Allocates `n_sectors` consecutive sectors without writing them (the
    /// WOBT's fixed-size node extents). Returns the first sector id.
    pub fn allocate_extent(&self, n_sectors: u64) -> TsbResult<SectorId> {
        if n_sectors == 0 {
            return Err(TsbError::internal("allocating a zero-sector extent"));
        }
        let mut inner = self.inner.lock();
        let first = inner.next_free_sector;
        inner.next_free_sector += n_sectors;
        let new_len = inner.next_free_sector as usize;
        if inner.written.len() < new_len {
            inner.written.resize(new_len, false);
        }
        Ok(SectorId(first))
    }

    /// Burns a single sector. The payload must fit in one sector and the
    /// sector must never have been written before — the write-once property.
    pub fn write_sector(&self, sector: SectorId, payload: &[u8]) -> TsbResult<()> {
        if payload.len() > self.sector_size {
            return Err(TsbError::EntryTooLarge {
                entry_size: payload.len(),
                capacity: self.sector_size,
            });
        }
        let mut inner = self.inner.lock();
        let idx = sector.0 as usize;
        if idx >= inner.written.len() {
            return Err(TsbError::WormOutOfBounds {
                offset: sector.byte_offset(self.sector_size),
                len: payload.len() as u64,
            });
        }
        if inner.written[idx] {
            return Err(TsbError::WormRewrite { sector: sector.0 });
        }
        let mut padded = payload.to_vec();
        padded.resize(self.sector_size, 0);
        self.write_at(&mut inner, sector.byte_offset(self.sector_size), &padded)?;
        inner.written[idx] = true;
        inner.payload_bytes += payload.len() as u64;
        self.stats.record_worm_sector_write();
        Ok(())
    }

    /// Reads a single sector (the full sector, including padding).
    pub fn read_sector(&self, sector: SectorId) -> TsbResult<Vec<u8>> {
        self.read_at(
            sector.byte_offset(self.sector_size),
            self.sector_size,
            |inner| {
                inner
                    .written
                    .get(sector.0 as usize)
                    .copied()
                    .unwrap_or(false)
            },
        )
    }

    /// Reads a raw device byte range, ignoring node boundaries — the
    /// replication source's view of the store. Commit fences carry the
    /// device length (`worm_len`) they depend on, and the store is
    /// append-only, so a primary ships history to a replica as plain byte
    /// ranges `[from, to)` between two device lengths. The range must lie
    /// within the written region.
    pub fn read_raw(&self, offset: u64, len: usize) -> TsbResult<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        self.read_at(offset, len, |inner| {
            offset + len as u64 <= inner.next_free_sector * self.sector_size as u64
        })
    }

    /// Installs shipped device bytes at the current end of the store — the
    /// replica's write half of [`Self::read_raw`]. `offset` must equal the
    /// current device length (the stream is cursor-based and append-only)
    /// and the range must be whole sectors, since shipped ranges run
    /// between two `worm_len` values, which are always sector-aligned.
    /// Write-once is preserved: only never-allocated sectors are burned.
    pub fn restore_tail(&self, offset: u64, bytes: &[u8]) -> TsbResult<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        let device = inner.next_free_sector * self.sector_size as u64;
        if offset != device {
            return Err(TsbError::corruption(format!(
                "shipped WORM range starts at {offset} but the local device \
                 ends at {device}"
            )));
        }
        if !(bytes.len() as u64).is_multiple_of(self.sector_size as u64) {
            return Err(TsbError::corruption(format!(
                "shipped WORM range of {} bytes is not sector-aligned",
                bytes.len()
            )));
        }
        self.write_at(&mut inner, offset, bytes)?;
        let sectors = bytes.len() as u64 / self.sector_size as u64;
        let first = inner.next_free_sector;
        inner.next_free_sector += sectors;
        let new_len = inner.next_free_sector as usize;
        if inner.written.len() < new_len {
            inner.written.resize(new_len, false);
        }
        for s in first..first + sectors {
            inner.written[s as usize] = true;
        }
        // Shipped ranges carry sector padding; the replica cannot tell
        // payload from padding, so utilization accounting on a replica is
        // device-granular (an overestimate, stats-only).
        inner.payload_bytes += bytes.len() as u64;
        self.stats.record_worm_append();
        Ok(())
    }

    /// Whether a sector has been burned.
    pub fn is_sector_written(&self, sector: SectorId) -> bool {
        let inner = self.inner.lock();
        inner
            .written
            .get(sector.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Total sectors allocated (written or reserved in extents).
    pub fn sectors_allocated(&self) -> u64 {
        self.inner.lock().next_free_sector
    }

    /// Sectors actually burned.
    pub fn sectors_written(&self) -> u64 {
        self.inner.lock().written.iter().filter(|w| **w).count() as u64
    }

    /// Device bytes occupied (allocated sectors × sector size). This is the
    /// paper's `SpaceO`.
    pub fn device_bytes(&self) -> u64 {
        self.sectors_allocated() * self.sector_size as u64
    }

    /// Bytes of real payload burned (excluding sector padding).
    pub fn payload_bytes(&self) -> u64 {
        self.inner.lock().payload_bytes
    }

    /// Space utilization: payload bytes / allocated device bytes, in `[0, 1]`.
    /// Returns `None` when nothing has been allocated yet.
    pub fn utilization(&self) -> Option<f64> {
        let device = self.device_bytes();
        if device == 0 {
            None
        } else {
            Some(self.payload_bytes() as f64 / device as f64)
        }
    }

    /// Flushes the file backend (no-op for the in-memory backend).
    pub fn sync(&self) -> TsbResult<()> {
        if let Some(file) = &self.file {
            file.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(sector: usize) -> WormStore {
        WormStore::in_memory(sector, Arc::new(IoStats::new()))
    }

    #[test]
    fn append_and_read_back() {
        let w = store(64);
        let a1 = w.append(b"first historical node").unwrap();
        let a2 = w.append(&[7u8; 130]).unwrap();
        assert_eq!(w.read(a1).unwrap(), b"first historical node");
        assert_eq!(w.read(a2).unwrap(), vec![7u8; 130]);
        // a1 occupies 1 sector, a2 starts on the next boundary and occupies 3.
        assert_eq!(a1.offset, 0);
        assert_eq!(a2.offset, 64);
        assert_eq!(w.sectors_allocated(), 4);
        assert_eq!(w.payload_bytes(), 21 + 130);
        let util = w.utilization().unwrap();
        assert!((util - (151.0 / 256.0)).abs() < 1e-9);
    }

    #[test]
    fn appends_never_overwrite() {
        let w = store(32);
        let mut addrs = Vec::new();
        for i in 0..50u8 {
            addrs.push((i, w.append(&vec![i; 10 + i as usize]).unwrap()));
        }
        for (i, a) in addrs {
            assert_eq!(w.read(a).unwrap(), vec![i; 10 + i as usize]);
        }
    }

    #[test]
    fn sector_rewrite_is_rejected() {
        let w = store(64);
        let ext = w.allocate_extent(4).unwrap();
        w.write_sector(ext, b"entry one").unwrap();
        let err = w.write_sector(ext, b"entry two").unwrap_err();
        assert!(matches!(err, TsbError::WormRewrite { sector: 0 }));
        // Other sectors of the extent are still writable, once each.
        w.write_sector(SectorId(ext.0 + 1), b"entry two").unwrap();
        assert!(w.is_sector_written(ext));
        assert!(w.is_sector_written(SectorId(ext.0 + 1)));
        assert!(!w.is_sector_written(SectorId(ext.0 + 2)));
    }

    #[test]
    fn unwritten_or_out_of_bounds_reads_fail() {
        let w = store(64);
        let ext = w.allocate_extent(2).unwrap();
        assert!(w.read_sector(ext).is_err(), "allocated but not burned");
        assert!(w.read_sector(SectorId(99)).is_err());
        assert!(
            w.read(HistAddr::new(0, 10)).is_err(),
            "append-style read of unwritten region"
        );
        // Unaligned historical address is corruption.
        w.write_sector(ext, b"x").unwrap();
        assert!(w.read(HistAddr::new(3, 4)).is_err());
    }

    #[test]
    fn oversized_writes_are_rejected() {
        let w = store(64);
        let ext = w.allocate_extent(1).unwrap();
        assert!(w.write_sector(ext, &[0u8; 65]).is_err());
        assert!(w.append(&[]).is_err());
    }

    #[test]
    fn extent_and_append_interleave_without_overlap() {
        let w = store(64);
        let a = w.append(&[1u8; 100]).unwrap(); // sectors 0-1
        let ext = w.allocate_extent(3).unwrap(); // sectors 2-4
        let b = w.append(&[2u8; 10]).unwrap(); // sector 5
        assert_eq!(a.offset, 0);
        assert_eq!(ext.0, 2);
        assert_eq!(b.offset, 5 * 64);
        w.write_sector(SectorId(3), b"inside extent").unwrap();
        assert_eq!(w.read(a).unwrap(), vec![1u8; 100]);
        assert_eq!(w.read(b).unwrap(), vec![2u8; 10]);
    }

    #[test]
    fn utilization_reflects_one_entry_per_sector_waste() {
        // The WOBT failure mode: small entries burned one per sector.
        let w = store(1024);
        let ext = w.allocate_extent(10).unwrap();
        for i in 0..10u64 {
            w.write_sector(SectorId(ext.0 + i), &[9u8; 40]).unwrap();
        }
        let util = w.utilization().unwrap();
        assert!(util < 0.05, "40/1024 per sector, got {util}");

        // The TSB consolidation path: the same 400 bytes appended at once.
        let w2 = store(1024);
        w2.append(&vec![9u8; 400]).unwrap();
        assert!(w2.utilization().unwrap() > 0.35);
    }

    #[test]
    fn stats_recorded() {
        let stats = Arc::new(IoStats::new());
        let w = WormStore::in_memory(64, Arc::clone(&stats));
        let a = w.append(b"abc").unwrap();
        w.read(a).unwrap();
        let ext = w.allocate_extent(1).unwrap();
        w.write_sector(ext, b"z").unwrap();
        w.read_sector(ext).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.worm_appends, 1);
        assert_eq!(s.worm_sector_writes, 1);
        assert_eq!(s.worm_reads, 2);
    }

    #[test]
    fn refused_reads_are_not_counted() {
        let stats = Arc::new(IoStats::new());
        let w = WormStore::in_memory(64, Arc::clone(&stats));
        let a = w.append(&[5u8; 100]).unwrap(); // sectors 0-1
        let ext = w.allocate_extent(1).unwrap(); // sector 2, never burned
        w.read(a).unwrap();
        assert_eq!(stats.snapshot().worm_reads, 1);

        let misaligned = w.read(HistAddr::new(3, 4)).unwrap_err();
        assert!(
            matches!(misaligned, TsbError::Corruption(_)),
            "{misaligned}"
        );
        let past_the_end = w.read(HistAddr::new(64, 200)).unwrap_err();
        assert!(matches!(past_the_end, TsbError::WormOutOfBounds { .. }));
        assert!(w.read(HistAddr::new(64 * 50, 10)).is_err());
        assert!(w.read_sector(ext).is_err());
        assert!(w.read_sector(SectorId(99)).is_err());
        assert!(w.read_raw(0, 64 * 4).is_err());
        assert_eq!(
            stats.snapshot().worm_reads,
            1,
            "only the served read counts"
        );
    }

    /// Readers re-read random already-appended nodes while one thread keeps
    /// appending: every read returns exactly its node's payload and the
    /// counters add up, on both backends.
    fn concurrent_readers_see_exact_payloads(w: WormStore) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        const READERS: usize = 4;
        const READS_EACH: usize = 2_000;
        const WARM: usize = 8;
        const MAX_APPENDS: usize = 20_000;

        fn payload(i: usize) -> Vec<u8> {
            (0..1 + (i * 37) % 300)
                .map(|j| (i * 31 + j) as u8)
                .collect()
        }

        let published: Mutex<Vec<HistAddr>> = Mutex::new(Vec::new());
        for i in 0..WARM {
            published.lock().push(w.append(&payload(i)).unwrap());
        }
        // Readers and the appender leave the barrier together; the appender
        // then runs until the last reader is done, so every read races it.
        let start = Barrier::new(READERS + 1);
        let readers_left = AtomicUsize::new(READERS);
        let appended = std::thread::scope(|scope| {
            for r in 0..READERS {
                let (w, published, start, readers_left) = (&w, &published, &start, &readers_left);
                scope.spawn(move || {
                    start.wait();
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(r as u64 + 1);
                    for _ in 0..READS_EACH {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let (i, addr) = {
                            let published = published.lock();
                            let i = (rng >> 33) as usize % published.len();
                            (i, published[i])
                        };
                        assert_eq!(w.read(addr).unwrap(), payload(i), "node {i}");
                    }
                    readers_left.fetch_sub(1, Ordering::SeqCst);
                });
            }
            start.wait();
            let mut i = WARM;
            while readers_left.load(Ordering::SeqCst) > 0 {
                if i < MAX_APPENDS {
                    let addr = w.append(&payload(i)).unwrap();
                    published.lock().push(addr);
                    i += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            i
        });
        assert!(appended > WARM, "the appender ran beside the readers");
        let s = w.stats().snapshot();
        assert_eq!(s.worm_reads, (READERS * READS_EACH) as u64);
        assert_eq!(s.worm_appends, appended as u64);
        for (i, addr) in published.into_inner().into_iter().enumerate() {
            assert_eq!(w.read(addr).unwrap(), payload(i));
        }
    }

    #[test]
    fn concurrent_readers_beside_an_appender_in_memory() {
        concurrent_readers_see_exact_payloads(store(64));
    }

    #[test]
    fn concurrent_readers_beside_an_appender_on_a_file() {
        let dir = std::env::temp_dir().join(format!("tsb-worm-readers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.worm");
        let _ = std::fs::remove_file(&path);
        let w = WormStore::open_file(&path, 64, Arc::new(IoStats::new())).unwrap();
        concurrent_readers_see_exact_payloads(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_round_trips_and_stays_write_once_after_reopen() {
        let dir = std::env::temp_dir().join(format!("tsb-worm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.worm");
        let _ = std::fs::remove_file(&path);

        let stats = Arc::new(IoStats::new());
        let a1;
        {
            let w = WormStore::open_file(&path, 128, Arc::clone(&stats)).unwrap();
            a1 = w.append(b"persisted historical node").unwrap();
            w.sync().unwrap();
        }
        {
            let w = WormStore::open_file(&path, 128, Arc::clone(&stats)).unwrap();
            assert_eq!(w.read(a1).unwrap(), b"persisted historical node");
            // Sector 0 was written in the previous session; it stays burned.
            assert!(w.write_sector(SectorId(0), b"overwrite").is_err());
            // New appends land after the existing data.
            let a2 = w.append(b"second").unwrap();
            assert!(a2.offset >= 128);
        }
        let _ = std::fs::remove_file(&path);
    }
}
