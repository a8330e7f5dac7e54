//! Per-LPN write-heat estimation for hot/cold data separation.
//!
//! A full per-page counter array would cost 8 bytes per logical page —
//! unacceptable at 64–256 GB simulated capacity, where the whole point of
//! demand-paged mapping is bounding RAM. [`HeatSketch`] instead keeps a
//! fixed budget of saturating 8-bit counters indexed by a hash of the LPN
//! (a one-row count-min sketch). Collisions only ever *overestimate* heat,
//! which for hot/cold separation is the safe direction: a cold page
//! misclassified as hot costs one suboptimal placement, while the reverse
//! would mix hot traffic into cold blocks and undo the separation.
//!
//! Counters decay by periodic halving (every `half_life` observations),
//! so the sketch tracks *recent* write frequency rather than lifetime
//! totals — the classic exponential-decay trick from cache literature.
//! Everything is deterministic: the hash is a fixed multiplicative mix
//! and the decay schedule depends only on the observation count, so
//! replaying a workload reproduces the same classifications bit for bit.

/// Fixed-point multiplicative hash constant (Fibonacci hashing; the same
/// mix `simrand` uses for stream splitting).
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One-row count-min sketch of per-LPN write frequency with periodic
/// counter halving.
#[derive(Debug, Clone)]
pub struct HeatSketch {
    counters: Vec<u8>,
    /// Observations between decay sweeps.
    half_life: u64,
    /// Observations since the last decay sweep.
    since_decay: u64,
}

impl HeatSketch {
    /// Creates a sketch with `slots` counters (rounded up to a power of
    /// two, minimum 64) that halves every counter after `half_life`
    /// recorded writes.
    pub fn new(slots: usize, half_life: u64) -> Self {
        let slots = slots.max(64).next_power_of_two();
        HeatSketch {
            counters: vec![0; slots],
            half_life: half_life.max(1),
            since_decay: 0,
        }
    }

    fn slot(&self, lpn: u64) -> usize {
        let h = lpn.wrapping_mul(HASH_MULT);
        // Power-of-two table: take the top bits, which the multiply mixes
        // hardest.
        (h >> (64 - self.counters.len().trailing_zeros())) as usize
    }

    /// Records one write of `lpn` (saturating) and runs the decay sweep
    /// when due.
    pub fn touch(&mut self, lpn: u64) {
        let slot = self.slot(lpn);
        self.counters[slot] = self.counters[slot].saturating_add(1);
        self.since_decay += 1;
        if self.since_decay >= self.half_life {
            self.since_decay = 0;
            for c in &mut self.counters {
                *c >>= 1;
            }
        }
    }

    /// Estimated recent write count of `lpn` (an overestimate under
    /// collisions, never an underestimate within one decay period).
    pub fn estimate(&self, lpn: u64) -> u8 {
        self.counters[self.slot(lpn)]
    }

    /// True if `lpn`'s recent write count reaches `threshold`.
    pub fn is_hot(&self, lpn: u64, threshold: u8) -> bool {
        self.estimate(lpn) >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_writes_become_hot() {
        let mut h = HeatSketch::new(256, 1_000_000);
        for _ in 0..5 {
            h.touch(42);
        }
        assert!(h.is_hot(42, 2));
        assert_eq!(h.estimate(42), 5);
    }

    #[test]
    fn untouched_lpns_read_cold_modulo_collisions() {
        let mut h = HeatSketch::new(1024, 1_000_000);
        h.touch(7);
        // A different LPN mapping to a different slot stays cold.
        let other = (0..2048u64)
            .find(|&l| {
                l != 7 && {
                    let probe = HeatSketch::new(1024, 1);
                    probe.slot(l) != probe.slot(7)
                }
            })
            .unwrap();
        assert_eq!(h.estimate(other), 0);
    }

    #[test]
    fn decay_halves_counters() {
        let mut h = HeatSketch::new(64, 8);
        for _ in 0..7 {
            h.touch(5);
        }
        assert_eq!(h.estimate(5), 7);
        h.touch(5); // 8th observation triggers the sweep: (7+1)/2
        assert_eq!(h.estimate(5), 4);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut h = HeatSketch::new(64, u64::MAX);
        for _ in 0..300 {
            h.touch(1);
        }
        assert_eq!(h.estimate(1), u8::MAX);
    }

    #[test]
    fn determinism_across_instances() {
        let run = || {
            let mut h = HeatSketch::new(128, 16);
            for i in 0..200u64 {
                h.touch(i % 13);
            }
            (0..13u64).map(|l| h.estimate(l)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
