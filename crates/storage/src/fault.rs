//! Deterministic fault injection for crash-recovery testing.
//!
//! A [`FaultInjector`] is shared (via `Arc`) between the stores and the
//! write-ahead log of one engine instance. Every durable write site asks it
//! for permission ([`FaultInjector::check`]) before touching the device.
//! Once the injector *trips* — either because a configured number of write
//! operations has elapsed ([`FaultInjector::fail_after_writes`]) or because
//! execution reached a configured [`CrashPoint`] — **every** subsequent
//! check fails forever with an injected I/O error. That models a machine
//! losing power: the process's in-memory state survives (and is garbage),
//! but nothing further reaches any device.
//!
//! The recovery test suite then re-opens the on-disk files with fresh
//! stores (no injector) and demands that [`recovery`](../wal/index.html)
//! reconstructs a tree that verifies and matches the oracle's durable
//! prefix.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tsb_common::{TsbError, TsbResult};

/// The instrumented durable-write stages at which a crash can be injected.
///
/// Each variant names one class of device write in the engine's write path;
/// the recovery test matrix crashes at every one of them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// A page write reaching the magnetic store (a dirty node's write-back,
    /// or a page restored by recovery).
    MagneticWrite,
    /// The magnetic store's superblock sync during a checkpoint.
    MagneticSync,
    /// A historical-node append reaching the WORM store (a time split's
    /// migration).
    WormAppend,
    /// A record append reaching the write-ahead log (page image or commit
    /// fence).
    WalAppend,
    /// The WAL's fsync, mid-capture: the crash lands on the thread leading
    /// the sync — a waiter, a write-back barrier or a checkpoint — before
    /// the device sync is issued.
    WalSync,
    /// The window between the WAL fsync completing and the durable-LSN
    /// watermark being published: the crash stops the leading thread
    /// holding commits that are durable on the device but were never
    /// acknowledged to any waiter, its followers' included.
    WalSyncPublish,
    /// The checkpoint record itself — the crash lands after the full flush
    /// succeeded but before the checkpoint fence is in the log.
    WalCheckpoint,
}

/// Every crash point, in write-path order (the recovery-stress matrix).
pub const ALL_CRASH_POINTS: &[CrashPoint] = &[
    CrashPoint::MagneticWrite,
    CrashPoint::MagneticSync,
    CrashPoint::WormAppend,
    CrashPoint::WalAppend,
    CrashPoint::WalSync,
    CrashPoint::WalSyncPublish,
    CrashPoint::WalCheckpoint,
];

impl CrashPoint {
    /// Parses the identifier used by the CI matrix (the Debug name,
    /// case-insensitive, dashes tolerated).
    pub fn parse(s: &str) -> Option<CrashPoint> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        ALL_CRASH_POINTS
            .iter()
            .copied()
            .find(|p| format!("{p:?}").to_ascii_lowercase() == norm)
    }
}

/// A shared kill switch consulted by every durable write site.
///
/// Construct one, wire it into the stores and the WAL with their
/// `set_fault_injector` methods, and arm it with
/// [`fail_after_writes`](Self::fail_after_writes) and/or
/// [`crash_at`](Self::crash_at). With no arming it never fires and costs
/// one atomic load per write.
#[derive(Debug)]
pub struct FaultInjector {
    /// Writes remaining before the injector trips (`u64::MAX` = disarmed).
    writes_remaining: AtomicU64,
    /// Crash point to trip at, encoded as index into [`ALL_CRASH_POINTS`]
    /// (`u64::MAX` = disarmed).
    point: AtomicU64,
    /// How many occurrences of the armed crash point to let through first.
    point_skips: AtomicU64,
    tripped: AtomicBool,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultInjector {
    /// Creates a disarmed injector.
    pub fn new() -> Self {
        FaultInjector {
            writes_remaining: AtomicU64::new(u64::MAX),
            point: AtomicU64::new(u64::MAX),
            point_skips: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// Arms the write counter: the `n + 1`-th checked write (of any kind)
    /// trips the injector.
    pub fn fail_after_writes(&self, n: u64) {
        self.writes_remaining.store(n, Ordering::SeqCst);
    }

    /// Arms a crash point: the first time `point` is reached after `skip`
    /// earlier occurrences, the injector trips.
    pub fn crash_at(&self, point: CrashPoint, skip: u64) {
        let idx = ALL_CRASH_POINTS
            .iter()
            .position(|p| *p == point)
            .expect("point is in ALL_CRASH_POINTS") as u64;
        self.point_skips.store(skip, Ordering::SeqCst);
        self.point.store(idx, Ordering::SeqCst);
    }

    /// Whether the injector has fired. After this returns `true`, every
    /// subsequent [`check`](Self::check) errors.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    fn injected_error() -> TsbError {
        TsbError::Io(std::io::Error::other("injected crash (fault injector)"))
    }

    /// Consulted by every instrumented durable write site, with the site's
    /// crash point. Errors if the injector has tripped (or trips now).
    pub fn check(&self, point: CrashPoint) -> TsbResult<()> {
        if self.tripped.load(Ordering::SeqCst) {
            return Err(Self::injected_error());
        }
        // The countdowns are single atomic steps: every thread that
        // appends, writes a page back or leads a sync checks here, and two
        // checks sharing one decrement would trip a site later than it was
        // armed.
        let count_down = |counter: &AtomicU64| {
            counter
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        };
        // Armed crash point?
        let armed = self.point.load(Ordering::SeqCst);
        if armed != u64::MAX
            && ALL_CRASH_POINTS[armed as usize] == point
            && !count_down(&self.point_skips)
        {
            self.tripped.store(true, Ordering::SeqCst);
            return Err(Self::injected_error());
        }
        // Armed write budget?
        if self.writes_remaining.load(Ordering::SeqCst) != u64::MAX
            && !count_down(&self.writes_remaining)
        {
            self.tripped.store(true, Ordering::SeqCst);
            return Err(Self::injected_error());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_never_fires() {
        let inj = FaultInjector::new();
        for _ in 0..10_000 {
            inj.check(CrashPoint::MagneticWrite).unwrap();
        }
        assert!(!inj.tripped());
    }

    #[test]
    fn write_budget_trips_permanently() {
        let inj = FaultInjector::new();
        inj.fail_after_writes(3);
        for _ in 0..3 {
            inj.check(CrashPoint::WalAppend).unwrap();
        }
        assert!(inj.check(CrashPoint::MagneticWrite).is_err());
        assert!(inj.tripped());
        // Dead forever, for every site.
        for p in ALL_CRASH_POINTS {
            assert!(inj.check(*p).is_err());
        }
    }

    #[test]
    fn crash_point_skips_then_trips() {
        let inj = FaultInjector::new();
        inj.crash_at(CrashPoint::WormAppend, 2);
        // Other points never trip it.
        inj.check(CrashPoint::WalAppend).unwrap();
        inj.check(CrashPoint::WormAppend).unwrap();
        inj.check(CrashPoint::WormAppend).unwrap();
        assert!(inj.check(CrashPoint::WormAppend).is_err());
        assert!(inj.tripped());
        assert!(inj.check(CrashPoint::WalAppend).is_err());
    }

    #[test]
    fn crash_point_names_parse() {
        for p in ALL_CRASH_POINTS {
            assert_eq!(CrashPoint::parse(&format!("{p:?}")), Some(*p));
        }
        assert_eq!(CrashPoint::parse("wal-append"), Some(CrashPoint::WalAppend));
        assert_eq!(CrashPoint::parse("nope"), None);
    }
}
