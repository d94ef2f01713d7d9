//! The magnetic-disk (current database) simulator.
//!
//! An erasable, random-access, page-addressed store. Pages have a fixed size,
//! can be allocated, rewritten in place, and freed (freed pages are recycled
//! by later allocations). This is the device property the paper requires of
//! the current database: "the current database must be stored on an erasable
//! medium to permit it to be flexibly updated and reorganized" (§1).
//!
//! Two backends are provided:
//!
//! * **in-memory** — the default for tests, examples, and experiments;
//! * **file-backed** — a single flat file of `page_size` slots, demonstrating
//!   that the layout is genuinely persistent (the free list and allocation
//!   count are rebuilt from a tiny superblock region at slot 0).
//!
//! All methods take `&self`; interior mutability (a `parking_lot::Mutex`)
//! keeps the public API convenient for concurrent readers.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use tsb_common::{TsbError, TsbResult};

use crate::fault::{CrashPoint, FaultInjector};
use crate::page::PageId;
use crate::stats::IoStats;

/// Superblock layout (page 0 of the file backend):
/// magic (8) | page_size (8) | page_count (8) | free_count (8) | free list (8 each)
const MAGIC: u64 = 0x5453_4253_544f_5245; // "TSBSTORE"

/// Bytes of each page reserved for the backend's own bookkeeping (the file
/// backend stores a 4-byte payload-length prefix; the rest is headroom).
/// Callers should size node payloads against [`MagneticStore::capacity`].
const PAGE_OVERHEAD: usize = 8;

enum Backend {
    Memory {
        pages: Vec<Option<Vec<u8>>>,
    },
    File {
        file: File,
        page_count: u64,
        allocated: BTreeSet<u64>,
        payload_lens: std::collections::BTreeMap<u64, u32>,
    },
}

struct Inner {
    backend: Backend,
    free_list: Vec<u64>,
    /// Bytes of real payload currently stored per allocated page (used for
    /// space accounting; pages always *occupy* `page_size` on the device).
    payload_bytes: u64,
    /// Optional crash-injection hook consulted by `write` and `sync`.
    injector: Option<Arc<FaultInjector>>,
}

/// The erasable, random-access current-database store.
pub struct MagneticStore {
    page_size: usize,
    inner: Mutex<Inner>,
    stats: Arc<IoStats>,
}

impl std::fmt::Debug for MagneticStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MagneticStore")
            .field("page_size", &self.page_size)
            .field("allocated_pages", &self.allocated_pages())
            .finish()
    }
}

impl MagneticStore {
    /// Creates an in-memory store with the given page size.
    pub fn in_memory(page_size: usize, stats: Arc<IoStats>) -> Self {
        MagneticStore {
            page_size,
            inner: Mutex::new(Inner {
                backend: Backend::Memory { pages: Vec::new() },
                free_list: Vec::new(),
                payload_bytes: 0,
                injector: None,
            }),
            stats,
        }
    }

    /// Opens (or creates) a file-backed store.
    ///
    /// Page 0 of the file is reserved for the superblock; user pages start at
    /// slot 1. Payload-byte accounting restarts at zero on reopen (the exact
    /// payload length of each page is re-established the next time the page
    /// is written); the allocation map is restored from the superblock.
    pub fn open_file(
        path: impl AsRef<Path>,
        page_size: usize,
        stats: Arc<IoStats>,
    ) -> TsbResult<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let (page_count, allocated, free_list) = if len == 0 {
            // Fresh file: write an empty superblock.
            let store = (1u64, BTreeSet::new(), Vec::new());
            Self::write_superblock(&mut file, page_size, 1, &[])?;
            store
        } else {
            Self::read_superblock(&mut file, page_size)?
        };
        Ok(MagneticStore {
            page_size,
            inner: Mutex::new(Inner {
                backend: Backend::File {
                    file,
                    page_count,
                    allocated,
                    payload_lens: std::collections::BTreeMap::new(),
                },
                free_list,
                payload_bytes: 0,
                injector: None,
            }),
            stats,
        })
    }

    /// Wires a fault injector into the write and sync paths (tests only).
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        self.inner.lock().injector = Some(injector);
    }

    fn write_superblock(
        file: &mut File,
        page_size: usize,
        page_count: u64,
        free_list: &[u64],
    ) -> TsbResult<()> {
        let mut buf = Vec::with_capacity(page_size);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&(page_size as u64).to_le_bytes());
        buf.extend_from_slice(&page_count.to_le_bytes());
        buf.extend_from_slice(&(free_list.len() as u64).to_le_bytes());
        for f in free_list {
            buf.extend_from_slice(&f.to_le_bytes());
        }
        if buf.len() > page_size {
            return Err(TsbError::internal(
                "free list no longer fits in the superblock page",
            ));
        }
        buf.resize(page_size, 0);
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&buf)?;
        Ok(())
    }

    #[allow(clippy::type_complexity)]
    fn read_superblock(
        file: &mut File,
        page_size: usize,
    ) -> TsbResult<(u64, BTreeSet<u64>, Vec<u64>)> {
        let mut buf = vec![0u8; page_size];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut buf)?;
        let read_u64 = |buf: &[u8], at: usize| -> u64 {
            let mut a = [0u8; 8];
            a.copy_from_slice(&buf[at..at + 8]);
            u64::from_le_bytes(a)
        };
        if read_u64(&buf, 0) != MAGIC {
            return Err(TsbError::corruption("bad magnetic store magic"));
        }
        let stored_page_size = read_u64(&buf, 8);
        if stored_page_size != page_size as u64 {
            return Err(TsbError::config(format!(
                "store was created with page_size {stored_page_size}, reopened with {page_size}"
            )));
        }
        let page_count = read_u64(&buf, 16);
        let free_count = read_u64(&buf, 24) as usize;
        let mut free_list = Vec::with_capacity(free_count);
        for i in 0..free_count {
            free_list.push(read_u64(&buf, 32 + i * 8));
        }
        let mut allocated = BTreeSet::new();
        for p in 1..page_count {
            if !free_list.contains(&p) {
                allocated.insert(p);
            }
        }
        Ok((page_count, allocated, free_list))
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Usable payload capacity of a page in bytes (`page_size` minus a small
    /// fixed overhead reserved for backend bookkeeping).
    pub fn capacity(&self) -> usize {
        self.page_size - PAGE_OVERHEAD
    }

    /// The I/O statistics sink shared with the rest of the engine.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Allocates a fresh (or recycled) page and returns its id.
    pub fn allocate(&self) -> TsbResult<PageId> {
        let mut inner = self.inner.lock();
        self.stats.record_magnetic_alloc();
        if let Some(recycled) = inner.free_list.pop() {
            match &mut inner.backend {
                Backend::Memory { pages } => {
                    pages[recycled as usize] = Some(Vec::new());
                }
                Backend::File { allocated, .. } => {
                    allocated.insert(recycled);
                }
            }
            return Ok(PageId(recycled));
        }
        match &mut inner.backend {
            Backend::Memory { pages } => {
                pages.push(Some(Vec::new()));
                Ok(PageId(pages.len() as u64 - 1))
            }
            Backend::File {
                page_count,
                allocated,
                ..
            } => {
                let id = *page_count;
                *page_count += 1;
                allocated.insert(id);
                Ok(PageId(id))
            }
        }
    }

    /// Writes the page contents (must be at most [`Self::capacity`] bytes).
    pub fn write(&self, id: PageId, data: &[u8]) -> TsbResult<()> {
        if data.len() > self.capacity() {
            return Err(TsbError::EntryTooLarge {
                entry_size: data.len(),
                capacity: self.capacity(),
            });
        }
        let mut inner = self.inner.lock();
        if let Some(injector) = &inner.injector {
            injector.check(CrashPoint::MagneticWrite)?;
        }
        self.stats.record_magnetic_write();
        match &mut inner.backend {
            Backend::Memory { pages } => {
                let slot = pages
                    .get_mut(id.0 as usize)
                    .ok_or(TsbError::PageNotFound(id.0))?;
                match slot {
                    Some(existing) => {
                        let old_len = existing.len() as u64;
                        *existing = data.to_vec();
                        inner.payload_bytes = inner.payload_bytes - old_len + data.len() as u64;
                        Ok(())
                    }
                    None => Err(TsbError::PageNotFound(id.0)),
                }
            }
            Backend::File {
                file,
                page_count,
                allocated,
                payload_lens,
            } => {
                if id.0 == 0 || id.0 >= *page_count || !allocated.contains(&id.0) {
                    return Err(TsbError::PageNotFound(id.0));
                }
                let mut buf = vec![0u8; self.page_size];
                buf[..4].copy_from_slice(&(data.len() as u32).to_le_bytes());
                buf[4..4 + data.len()].copy_from_slice(data);
                file.seek(SeekFrom::Start(id.0 * self.page_size as u64))?;
                file.write_all(&buf)?;
                let old = payload_lens.insert(id.0, data.len() as u32).unwrap_or(0);
                inner.payload_bytes = inner.payload_bytes - old as u64 + data.len() as u64;
                Ok(())
            }
        }
    }

    /// Installs `data` at page `id` during crash recovery, force-allocating
    /// the page if the superblock's allocation map does not know it.
    ///
    /// Pages allocated after the last checkpoint exist only in the crashed
    /// process's memory — the superblock on disk predates them — yet the
    /// redo log carries their images. Replay calls this instead of
    /// [`Self::write`], which would reject the unknown page id. Outside
    /// recovery, [`Self::allocate`] + [`Self::write`] is the correct pair.
    pub fn restore(&self, id: PageId, data: &[u8]) -> TsbResult<()> {
        if data.len() > self.capacity() {
            return Err(TsbError::EntryTooLarge {
                entry_size: data.len(),
                capacity: self.capacity(),
            });
        }
        if id.0 == 0 {
            return Err(TsbError::internal(
                "page 0 is the superblock and cannot be restored",
            ));
        }
        let mut inner = self.inner.lock();
        inner.free_list.retain(|f| *f != id.0);
        match &mut inner.backend {
            Backend::Memory { pages } => {
                if pages.len() <= id.0 as usize {
                    pages.resize(id.0 as usize + 1, None);
                }
                // Leave an already-allocated slot in place so the payload
                // accounting in `write` sees its true old length.
                let slot = &mut pages[id.0 as usize];
                if slot.is_none() {
                    *slot = Some(Vec::new());
                }
            }
            Backend::File {
                page_count,
                allocated,
                ..
            } => {
                *page_count = (*page_count).max(id.0 + 1);
                allocated.insert(id.0);
            }
        }
        drop(inner);
        self.write(id, data)
    }

    /// Reads the page contents.
    pub fn read(&self, id: PageId) -> TsbResult<Vec<u8>> {
        let mut inner = self.inner.lock();
        self.stats.record_magnetic_read();
        match &mut inner.backend {
            Backend::Memory { pages } => pages
                .get(id.0 as usize)
                .and_then(|p| p.clone())
                .ok_or(TsbError::PageNotFound(id.0)),
            Backend::File {
                file,
                page_count,
                allocated,
                ..
            } => {
                if id.0 == 0 || id.0 >= *page_count || !allocated.contains(&id.0) {
                    return Err(TsbError::PageNotFound(id.0));
                }
                let mut buf = vec![0u8; self.page_size];
                file.seek(SeekFrom::Start(id.0 * self.page_size as u64))?;
                file.read_exact(&mut buf)?;
                let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if len > self.page_size - 4 {
                    return Err(TsbError::corruption(format!(
                        "page {} claims {len} payload bytes",
                        id.0
                    )));
                }
                // The read's buffer is what the caller keeps (a node takes
                // it over as its body): shift the payload over the length
                // header rather than copying it into a second buffer.
                buf.copy_within(4..4 + len, 0);
                buf.truncate(len);
                Ok(buf)
            }
        }
    }

    /// Frees a page; its id may be recycled by a later allocation.
    pub fn free(&self, id: PageId) -> TsbResult<()> {
        let mut inner = self.inner.lock();
        self.stats.record_magnetic_free();
        match &mut inner.backend {
            Backend::Memory { pages } => {
                let slot = pages
                    .get_mut(id.0 as usize)
                    .ok_or(TsbError::PageNotFound(id.0))?;
                match slot.take() {
                    Some(old) => {
                        inner.payload_bytes -= old.len() as u64;
                        inner.free_list.push(id.0);
                        Ok(())
                    }
                    None => Err(TsbError::PageNotFound(id.0)),
                }
            }
            Backend::File {
                allocated,
                payload_lens,
                ..
            } => {
                if !allocated.remove(&id.0) {
                    return Err(TsbError::PageNotFound(id.0));
                }
                let old = payload_lens.remove(&id.0).unwrap_or(0);
                inner.payload_bytes -= old as u64;
                inner.free_list.push(id.0);
                Ok(())
            }
        }
    }

    /// Persists allocation metadata (file backend only; no-op in memory).
    pub fn sync(&self) -> TsbResult<()> {
        let mut inner = self.inner.lock();
        if let Some(injector) = &inner.injector {
            injector.check(CrashPoint::MagneticSync)?;
        }
        let free_list = inner.free_list.clone();
        if let Backend::File {
            file, page_count, ..
        } = &mut inner.backend
        {
            let page_count = *page_count;
            Self::write_superblock(file, self.page_size, page_count, &free_list)?;
            file.sync_all()?;
        }
        Ok(())
    }

    /// Number of currently allocated pages.
    pub fn allocated_pages(&self) -> u64 {
        let inner = self.inner.lock();
        match &inner.backend {
            Backend::Memory { pages } => pages.iter().filter(|p| p.is_some()).count() as u64,
            Backend::File { allocated, .. } => allocated.len() as u64,
        }
    }

    /// Device bytes occupied: allocated pages × page size. This is the
    /// paper's `SpaceM`.
    pub fn device_bytes(&self) -> u64 {
        self.allocated_pages() * self.page_size as u64
    }

    /// Bytes of real payload stored in allocated pages (≤ `device_bytes`).
    pub fn payload_bytes(&self) -> u64 {
        self.inner.lock().payload_bytes
    }

    /// Ids of all currently allocated pages (diagnostics / verification).
    pub fn allocated_page_ids(&self) -> Vec<PageId> {
        let inner = self.inner.lock();
        match &inner.backend {
            Backend::Memory { pages } => pages
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.as_ref().map(|_| PageId(i as u64)))
                .collect(),
            Backend::File { allocated, .. } => allocated.iter().copied().map(PageId).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_store() -> MagneticStore {
        MagneticStore::in_memory(4096, Arc::new(IoStats::new()))
    }

    #[test]
    fn allocate_write_read_free_cycle() {
        let store = mem_store();
        let p = store.allocate().unwrap();
        store.write(p, b"hello").unwrap();
        assert_eq!(store.read(p).unwrap(), b"hello");
        // Rewrite in place — the defining property of the erasable store.
        store.write(p, b"goodbye").unwrap();
        assert_eq!(store.read(p).unwrap(), b"goodbye");
        assert_eq!(store.allocated_pages(), 1);
        assert_eq!(store.device_bytes(), 4096);
        assert_eq!(store.payload_bytes(), 7);

        store.free(p).unwrap();
        assert_eq!(store.allocated_pages(), 0);
        assert!(store.read(p).is_err());
        // The freed page id is recycled.
        let p2 = store.allocate().unwrap();
        assert_eq!(p2, p);
    }

    #[test]
    fn oversized_write_is_rejected() {
        let store = MagneticStore::in_memory(128, Arc::new(IoStats::new()));
        let p = store.allocate().unwrap();
        let big = vec![0u8; 129];
        assert!(matches!(
            store.write(p, &big),
            Err(TsbError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_page_errors() {
        let store = mem_store();
        assert!(matches!(
            store.read(PageId(99)),
            Err(TsbError::PageNotFound(99))
        ));
        assert!(store.write(PageId(99), b"x").is_err());
        assert!(store.free(PageId(99)).is_err());
        let p = store.allocate().unwrap();
        store.free(p).unwrap();
        // Double free is an error.
        assert!(store.free(p).is_err());
    }

    #[test]
    fn stats_are_recorded() {
        let stats = Arc::new(IoStats::new());
        let store = MagneticStore::in_memory(1024, Arc::clone(&stats));
        let p = store.allocate().unwrap();
        store.write(p, b"abc").unwrap();
        store.read(p).unwrap();
        store.free(p).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.magnetic_allocs, 1);
        assert_eq!(s.magnetic_writes, 1);
        assert_eq!(s.magnetic_reads, 1);
        assert_eq!(s.magnetic_frees, 1);
    }

    #[test]
    fn file_backend_round_trips_and_reopens() {
        let dir = std::env::temp_dir().join(format!("tsb-mag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.db");
        let _ = std::fs::remove_file(&path);

        let stats = Arc::new(IoStats::new());
        let (p1, p2);
        {
            let store = MagneticStore::open_file(&path, 512, Arc::clone(&stats)).unwrap();
            p1 = store.allocate().unwrap();
            p2 = store.allocate().unwrap();
            store.write(p1, b"first page").unwrap();
            store.write(p2, b"second page").unwrap();
            store.free(p2).unwrap();
            store.sync().unwrap();
        }
        {
            let store = MagneticStore::open_file(&path, 512, Arc::clone(&stats)).unwrap();
            assert_eq!(store.read(p1).unwrap(), b"first page");
            assert!(store.read(p2).is_err(), "freed page stays freed");
            // Freed page is recycled on reopen.
            let p3 = store.allocate().unwrap();
            assert_eq!(p3, p2);
            // Wrong page size is rejected.
            assert!(MagneticStore::open_file(&path, 1024, Arc::new(IoStats::new())).is_err());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_force_allocates_unknown_pages() {
        let store = mem_store();
        // Page 5 was never allocated here (it existed only in the crashed
        // process's memory); replay can still install its image.
        store.restore(PageId(5), b"replayed image").unwrap();
        assert_eq!(store.read(PageId(5)).unwrap(), b"replayed image");
        // Restoring over an allocated page behaves like a write.
        let p = store.allocate().unwrap();
        store.write(p, b"old").unwrap();
        store.restore(p, b"new").unwrap();
        assert_eq!(store.read(p).unwrap(), b"new");
        // A restored page is no longer on the free list.
        let q = store.allocate().unwrap();
        store.free(q).unwrap();
        store.restore(q, b"back").unwrap();
        let next = store.allocate().unwrap();
        assert_ne!(next, q, "restored page must not be recycled");
        // The superblock page is off limits.
        assert!(store.restore(PageId(0), b"x").is_err());
    }

    #[test]
    fn fault_injector_kills_writes_and_sync() {
        use crate::fault::{CrashPoint, FaultInjector};
        let store = mem_store();
        let p = store.allocate().unwrap();
        let injector = Arc::new(FaultInjector::new());
        store.set_fault_injector(Arc::clone(&injector));
        store.write(p, b"before").unwrap();
        injector.crash_at(CrashPoint::MagneticWrite, 0);
        assert!(store.write(p, b"after").is_err());
        assert!(store.sync().is_err(), "tripped injector kills every site");
        assert_eq!(store.read(p).unwrap(), b"before", "reads still served");
    }

    #[test]
    fn many_pages_round_trip() {
        let store = mem_store();
        let mut ids = Vec::new();
        for i in 0..100u64 {
            let p = store.allocate().unwrap();
            store.write(p, format!("payload {i}").as_bytes()).unwrap();
            ids.push(p);
        }
        for (i, p) in ids.iter().enumerate() {
            assert_eq!(store.read(*p).unwrap(), format!("payload {i}").as_bytes());
        }
        assert_eq!(store.allocated_pages(), 100);
        assert_eq!(store.allocated_page_ids().len(), 100);
    }
}
