//! Device-health machinery: the degraded-state machine the FTL walks as
//! the media wears out, and the policy knobs of the background scrubber.
//!
//! A flash device at end of life does not stop working all at once. Blocks
//! retire one by one as their erases fail, spare capacity shrinks, and at
//! some point the FTL can no longer open a fresh write frontier — but
//! every page already written is still readable. Real devices expose this
//! as a *read-only* mode (SMART "available spare below threshold"); a
//! panic, which is what this stack did before, is the one behaviour no
//! firmware ships. [`DeviceState`] models that lifecycle; the scrubber
//! configured by [`ScrubConfig`] pushes the uncorrectable-read horizon out
//! by relocating at-risk blocks before their accumulated read-disturb and
//! retention damage crosses the ECC budget.

/// Health lifecycle of the device. Transitions are strictly forward
/// (`Healthy → Degraded → ReadOnly`) and idempotent: the state is
/// persisted in the checkpoint root (meta format v4), so a power cycle —
/// or several — recovers the same or a further state, never an earlier
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DeviceState {
    /// Full service: spare blocks comfortably exceed what the write
    /// frontiers and GC need.
    #[default]
    Healthy,
    /// Writes still succeed but the spare pool has thinned to the point
    /// where one more retirement wave could exhaust it. Hosts should
    /// drain and replace the device.
    Degraded,
    /// The spare pool can no longer sustain the write path. All dirtying
    /// operations fail with [`crate::DevError::ReadOnly`]; reads and
    /// crash recovery keep working.
    ReadOnly,
}

impl DeviceState {
    /// On-flash encoding (meta v4 header field).
    pub fn as_u64(self) -> u64 {
        match self {
            DeviceState::Healthy => 0,
            DeviceState::Degraded => 1,
            DeviceState::ReadOnly => 2,
        }
    }

    /// Inverse of [`DeviceState::as_u64`]; `None` for unknown encodings
    /// (a corrupt root must not decode to an arbitrary health state).
    pub fn from_u64(v: u64) -> Option<DeviceState> {
        match v {
            0 => Some(DeviceState::Healthy),
            1 => Some(DeviceState::Degraded),
            2 => Some(DeviceState::ReadOnly),
            _ => None,
        }
    }
}

/// Why the scrubber relocated a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubReason {
    /// The block's read count since its last erase crossed the disturb
    /// threshold.
    ReadDisturb,
    /// ECC corrected enough bits in the block to signal imminent failure.
    EccFeedback,
}

/// Background-scrub and wear-leveling policy.
///
/// The scrubber piggybacks on the GC tick: every [`interval_ops`]
/// host-visible writes it scans the closed blocks, scores each by how
/// close it is to the thresholds below, and relocates at most one block
/// per tick through the GC copy machinery (bounded added latency, charged
/// to the simulated clock). Thresholds should sit well under the
/// [`xftl_flash::AgingModel`] curve's uncorrectable point — scrubbing is
/// only useful while the data still decodes.
///
/// [`interval_ops`]: ScrubConfig::interval_ops
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Relocate a block once its per-erase read count reaches this.
    pub read_threshold: u64,
    /// Relocate a block once ECC has corrected this many bits in it.
    pub flip_threshold: u64,
    /// Host writes between scrub scans (1 = scan on every write).
    pub interval_ops: u64,
    /// Static wear-leveling trigger: when the erase-count spread between
    /// the most-worn pool block and the coldest closed block exceeds this,
    /// the coldest block is relocated so its low-wear cells rejoin the
    /// free pool.
    pub wear_delta_cap: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            read_threshold: 1 << 12,
            flip_threshold: 16,
            interval_ops: 64,
            wear_delta_cap: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_state_encoding_roundtrips() {
        for s in [
            DeviceState::Healthy,
            DeviceState::Degraded,
            DeviceState::ReadOnly,
        ] {
            assert_eq!(DeviceState::from_u64(s.as_u64()), Some(s));
        }
        assert_eq!(DeviceState::from_u64(3), None);
        assert_eq!(DeviceState::from_u64(u64::MAX), None);
    }

    #[test]
    fn device_state_orders_by_severity() {
        assert!(DeviceState::Healthy < DeviceState::Degraded);
        assert!(DeviceState::Degraded < DeviceState::ReadOnly);
    }
}
