//! Space consumption on the two devices (§3.2).
//!
//! The paper parameterizes the splitting policy with an "adjustable cost
//! function", giving `CS = SpaceM · CM + SpaceO · CO` as the canonical
//! example. [`SpaceSnapshot`] holds the two spaces; the prices are
//! [`tsb_common::CostParams`], whose `storage_cost` is the formula.

use std::fmt;

/// A snapshot of space consumption on the two devices.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpaceSnapshot {
    /// Bytes occupied on the magnetic (current) store — allocated pages ×
    /// page size. The paper's `SpaceM`.
    pub magnetic_bytes: u64,
    /// Bytes occupied on the WORM (historical) store — allocated sectors ×
    /// sector size. The paper's `SpaceO`.
    pub worm_bytes: u64,
    /// Bytes of real payload on the magnetic store (diagnostic).
    pub magnetic_payload_bytes: u64,
    /// Bytes of real payload on the WORM store (diagnostic).
    pub worm_payload_bytes: u64,
}

impl SpaceSnapshot {
    /// Total device bytes across both stores.
    pub fn total_bytes(&self) -> u64 {
        self.magnetic_bytes + self.worm_bytes
    }

    /// WORM space utilization (payload / device), `None` if the WORM store is
    /// empty.
    pub fn worm_utilization(&self) -> Option<f64> {
        if self.worm_bytes == 0 {
            None
        } else {
            Some(self.worm_payload_bytes as f64 / self.worm_bytes as f64)
        }
    }

    /// Magnetic space utilization (payload / device), `None` if empty.
    pub fn magnetic_utilization(&self) -> Option<f64> {
        if self.magnetic_bytes == 0 {
            None
        } else {
            Some(self.magnetic_payload_bytes as f64 / self.magnetic_bytes as f64)
        }
    }
}

impl fmt::Display for SpaceSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "magnetic {} B ({} payload), worm {} B ({} payload)",
            self.magnetic_bytes,
            self.magnetic_payload_bytes,
            self.worm_bytes,
            self.worm_payload_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_cost_follows_the_paper_formula() {
        let params = tsb_common::CostParams {
            magnetic_cost_per_byte: 10.0,
            worm_cost_per_byte: 1.0,
            ..tsb_common::CostParams::default()
        };
        let space = SpaceSnapshot {
            magnetic_bytes: 1000,
            worm_bytes: 5000,
            magnetic_payload_bytes: 800,
            worm_payload_bytes: 4900,
        };
        let cost = params.storage_cost(space.magnetic_bytes, space.worm_bytes);
        assert_eq!(cost, 1000.0 * 10.0 + 5000.0 * 1.0);
        assert_eq!(space.total_bytes(), 6000);
        assert!((space.worm_utilization().unwrap() - 0.98).abs() < 1e-9);
        assert!((space.magnetic_utilization().unwrap() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_space_has_no_utilization() {
        let s = SpaceSnapshot::default();
        assert_eq!(s.worm_utilization(), None);
        assert_eq!(s.magnetic_utilization(), None);
        assert_eq!(s.total_bytes(), 0);
    }
}
