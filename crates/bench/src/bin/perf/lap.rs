//! What one lap measures, and the end-to-end metrics derived from it.
//!
//! A lap is one complete life of a fresh stack built from the same seed:
//! set-up → measured phase → power cut → recovery → audit. Everything
//! counted on the simulated clock (and every I/O count) is a pure
//! function of the seed, so K laps must agree to the last bit; only the
//! two host times differ between laps.

use xftl_db::PagerStats;
use xftl_flash::FlashStats;
use xftl_fs::FsStats;
use xftl_ftl::{DevCounters, FtlBase, FtlStats};
use xftl_trace::{HistSummary, OpClass};

use crate::probe::SpanTotals;
use crate::stats::quantile;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// TPC-C transaction classes, in `Counts::class_lat_ns` order.
pub const TXN_CLASSES: [&str; 5] = [
    "new_order",
    "payment",
    "delivery",
    "order_status",
    "stock_level",
];

/// Counter differences over the measured phase, from the statistics the
/// program already keeps plus the benchmark's probes.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub flash: FlashStats,
    pub ftl: FtlStats,
    pub fs: FsStats,
    pub pager: PagerStats,
    pub dev: DevCounters,
    /// Telemetry histograms, reset at the start of the measured phase.
    pub tele: Vec<(OpClass, HistSummary)>,
    /// Probe above the SATA link (absent untraced, and on `dev-steady`).
    pub outer: Option<SpanTotals>,
    /// Probe directly on the FTL (absent untraced).
    pub inner: Option<SpanTotals>,
    /// Sorted op latencies per TPC-C class (empty off the SQL workloads).
    pub class_lat_ns: [Vec<u64>; 5],
}

/// Everything one lap measured.
#[derive(Debug, Clone, Default)]
pub struct Lap {
    /// Host time of everything before the first measured op.
    pub setup_host_ns: u64,
    /// Host time of the measured phase.
    pub phase_host_ns: u64,
    /// Simulated time of the measured phase.
    pub phase_sim_ns: u64,
    /// Simulated time from power-on to a usable stack after the cut.
    pub recovery_sim_ns: u64,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that ended in a typed error.
    pub failed: u64,
    /// Sorted simulated latencies of the ops that succeeded.
    pub lat_ns: Vec<u64>,
    pub counts: Counts,
}

/// Names and units of the eight end-to-end metrics that live on the
/// simulated clock or are I/O counts, in [`Lap::sim_metrics`] order.
pub const SIM_METRICS: [(&str, &str); 8] = [
    ("sim_ops_per_s", "op/s"),
    ("sim_lat_p50_ms", "ms"),
    ("sim_lat_p99_ms", "ms"),
    ("sim_lat_p999_ms", "ms"),
    ("flash_programs_per_op", "pages"),
    ("flash_reads_per_op", "pages"),
    ("flash_erases_per_kop", "blocks"),
    ("recovery_sim_ms", "ms"),
];

impl Lap {
    /// Ops as a divisor (never 0).
    pub fn ops(&self) -> f64 {
        self.attempted.max(1) as f64
    }

    /// The eight deterministic end-to-end metrics.
    pub fn sim_metrics(&self) -> [f64; 8] {
        let ms = |ns: f64| ns / 1e6;
        let ops = self.ops();
        [
            self.lat_ns.len() as f64 / (self.phase_sim_ns.max(1) as f64 / 1e9),
            ms(quantile(&self.lat_ns, 0.5)),
            ms(quantile(&self.lat_ns, 0.99)),
            ms(quantile(&self.lat_ns, 0.999)),
            self.counts.flash.programs as f64 / ops,
            self.counts.flash.reads as f64 / ops,
            self.counts.flash.erases as f64 * 1e3 / ops,
            ms(self.recovery_sim_ns as f64),
        ]
    }
}

/// The cumulative counters of a stack at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    flash: FlashStats,
    ftl: FtlStats,
    fs: FsStats,
    dev: DevCounters,
}

impl Snapshot {
    /// The counters the FTL engine keeps (chip, FTL, host commands).
    pub fn of_device(base: &FtlBase) -> Snapshot {
        Snapshot {
            flash: base.flash_stats(),
            ftl: *base.stats(),
            fs: FsStats::default(),
            dev: *base.counters(),
        }
    }

    /// The same with a file system's counters beside them.
    pub fn with_fs(self, fs: FsStats) -> Snapshot {
        Snapshot { fs, ..self }
    }
}

impl Counts {
    /// Records what was counted between two snapshots.
    pub fn set_phase(&mut self, before: Snapshot, after: Snapshot) {
        let (a, b) = (after.dev, before.dev);
        self.flash = after.flash - before.flash;
        self.ftl = after.ftl - before.ftl;
        self.fs = after.fs - before.fs;
        // `DevCounters` has no `Sub`.
        self.dev = DevCounters {
            host_writes: a.host_writes - b.host_writes,
            host_reads: a.host_reads - b.host_reads,
            flushes: a.flushes - b.flushes,
            commits: a.commits - b.commits,
            aborts: a.aborts - b.aborts,
            trims: a.trims - b.trims,
            batches: a.batches - b.batches,
            barriers: a.barriers - b.barriers,
        };
    }
}
