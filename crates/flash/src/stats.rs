//! Operation counters for the flash array.
//!
//! These counters feed the paper's FTL-side columns in Table 1 and the bar
//! charts in Figure 6 (pages written, garbage-collection frequency). The
//! chip layer counts raw media operations; the FTL layer adds logical
//! counters (host writes vs. GC copy-backs) on top. With the channel model
//! the chip also tracks per-channel busy time and a queue-depth histogram,
//! which the channel-scaling benchmarks print to show how well a workload
//! exploits the array's parallelism.

use std::ops::Sub;

use crate::clock::Nanos;

/// Channels tracked individually in [`FlashStats::busy_channel_ns`];
/// channels beyond this fold into the last slot. Kept as a fixed-size
/// array so stats snapshots stay `Copy`.
pub const MAX_CHANNELS: usize = 8;

/// Buckets in [`FlashStats::queue_depth_hist`]: depths `0..BUCKETS-1`
/// count exactly, the last bucket counts everything deeper.
pub const QUEUE_DEPTH_BUCKETS: usize = 8;

/// Cumulative raw-media operation counts and busy time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlashStats {
    /// Full-page reads.
    pub reads: u64,
    /// Page programs (includes pages torn by power loss).
    pub programs: u64,
    /// Block erases.
    pub erases: u64,
    /// OOB-only probes (recovery scans, GC validity checks).
    pub oob_reads: u64,
    /// Pages left torn by an interrupted program.
    pub torn_pages: u64,
    /// Programs that reported status failure (fault injection).
    pub program_fails: u64,
    /// Erases that reported status failure; each first failure retires
    /// its block permanently.
    pub erase_fails: u64,
    /// Reads that needed (and got) in-line ECC correction.
    pub corrected_reads: u64,
    /// Reads that exceeded the ECC correction strength.
    pub uncorrectable_reads: u64,
    /// Total flipped bits attributed to the deterministic aging curve
    /// (read disturb + retention + wear), corrected or not.
    pub aging_flips: u64,
    /// Uncorrectable reads that only aging pushed over the ECC budget
    /// (the trigger/background flips alone would have decoded) — the
    /// losses a scrubber exists to prevent.
    pub aging_uncorrectable: u64,
    /// Extra simulated time spent in fault handling: ECC correction
    /// stalls, failed-program status polls, failed-erase retries.
    pub fault_stall_ns: Nanos,
    /// Simulated time spent in read operations.
    pub busy_read_ns: Nanos,
    /// Simulated time spent in program operations.
    pub busy_program_ns: Nanos,
    /// Simulated time spent in erase operations.
    pub busy_erase_ns: Nanos,
    /// Per-channel media service time (cell + bus occupancy, excluding
    /// firmware command overhead). Channel `c` accumulates into slot
    /// `min(c, MAX_CHANNELS - 1)`.
    pub busy_channel_ns: [Nanos; MAX_CHANNELS],
    /// Total time operations spent waiting for their channel/way to free
    /// up before service could start (queueing delay).
    pub queue_wait_ns: Nanos,
    /// Histogram of device queue depth observed at each command arrival
    /// (queued submissions only): how many earlier commands were still in
    /// flight. Its samples are the queued operations
    /// ([`FlashStats::queued_ops`]).
    pub queue_depth_hist: [u64; QUEUE_DEPTH_BUCKETS],
}

impl FlashStats {
    /// Total simulated media busy time.
    pub fn busy_ns(&self) -> Nanos {
        self.busy_read_ns + self.busy_program_ns + self.busy_erase_ns
    }

    /// Busy time of the single most-loaded channel: the array-level
    /// critical path under perfect overlap.
    pub fn max_channel_busy_ns(&self) -> Nanos {
        self.busy_channel_ns.iter().copied().max().unwrap_or(0)
    }

    /// Operations submitted through the queued (asynchronous) interface:
    /// each arrival is one sample of the queue-depth histogram.
    pub fn queued_ops(&self) -> u64 {
        self.queue_depth_hist.iter().sum()
    }

    /// Mean queue depth seen by arriving queued commands (0.0 when
    /// nothing was ever queued). The last histogram bucket is counted at
    /// its lower bound, so this under-reports saturated queues slightly.
    pub fn mean_queue_depth(&self) -> f64 {
        let samples = self.queued_ops();
        if samples == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .queue_depth_hist
            .iter()
            .enumerate()
            .map(|(depth, n)| depth as u64 * n)
            .sum();
        weighted as f64 / samples as f64
    }
}

fn sub_arrays<const N: usize>(a: [Nanos; N], b: [Nanos; N]) -> [Nanos; N] {
    let mut out = [0; N];
    for i in 0..N {
        out[i] = a[i] - b[i];
    }
    out
}

impl Sub for FlashStats {
    type Output = FlashStats;

    /// Difference of two snapshots, for measuring one experiment phase.
    fn sub(self, rhs: FlashStats) -> FlashStats {
        FlashStats {
            reads: self.reads - rhs.reads,
            programs: self.programs - rhs.programs,
            erases: self.erases - rhs.erases,
            oob_reads: self.oob_reads - rhs.oob_reads,
            torn_pages: self.torn_pages - rhs.torn_pages,
            program_fails: self.program_fails - rhs.program_fails,
            erase_fails: self.erase_fails - rhs.erase_fails,
            corrected_reads: self.corrected_reads - rhs.corrected_reads,
            uncorrectable_reads: self.uncorrectable_reads - rhs.uncorrectable_reads,
            aging_flips: self.aging_flips - rhs.aging_flips,
            aging_uncorrectable: self.aging_uncorrectable - rhs.aging_uncorrectable,
            fault_stall_ns: self.fault_stall_ns - rhs.fault_stall_ns,
            busy_read_ns: self.busy_read_ns - rhs.busy_read_ns,
            busy_program_ns: self.busy_program_ns - rhs.busy_program_ns,
            busy_erase_ns: self.busy_erase_ns - rhs.busy_erase_ns,
            busy_channel_ns: sub_arrays(self.busy_channel_ns, rhs.busy_channel_ns),
            queue_wait_ns: self.queue_wait_ns - rhs.queue_wait_ns,
            queue_depth_hist: sub_arrays(self.queue_depth_hist, rhs.queue_depth_hist),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let a = FlashStats {
            reads: 10,
            programs: 20,
            erases: 3,
            busy_channel_ns: [9, 7, 0, 0, 0, 0, 0, 0],
            queue_depth_hist: [5, 2, 0, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        let b = FlashStats {
            reads: 4,
            programs: 5,
            erases: 1,
            busy_channel_ns: [4, 2, 0, 0, 0, 0, 0, 0],
            queue_depth_hist: [1, 1, 0, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        let d = a - b;
        assert_eq!(d.reads, 6);
        assert_eq!(d.programs, 15);
        assert_eq!(d.erases, 2);
        assert_eq!(d.busy_channel_ns[0], 5);
        assert_eq!(d.busy_channel_ns[1], 5);
        assert_eq!(d.queue_depth_hist, [4, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn busy_total_sums_categories() {
        let s = FlashStats {
            busy_read_ns: 1,
            busy_program_ns: 2,
            busy_erase_ns: 3,
            ..Default::default()
        };
        assert_eq!(s.busy_ns(), 6);
    }

    #[test]
    fn channel_and_queue_summaries() {
        let s = FlashStats {
            busy_channel_ns: [10, 40, 20, 0, 0, 0, 0, 0],
            queue_depth_hist: [2, 0, 2, 0, 0, 0, 0, 0],
            ..Default::default()
        };
        assert_eq!(s.max_channel_busy_ns(), 40);
        assert!((s.mean_queue_depth() - 1.0).abs() < 1e-12);
        assert_eq!(FlashStats::default().mean_queue_depth(), 0.0);
    }
}
