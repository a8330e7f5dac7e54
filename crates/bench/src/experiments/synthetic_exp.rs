//! Figure 5, Table 1 and Figure 6: the synthetic partsupp workload under
//! varying transaction sizes and GC-validity regimes.

use xftl_ftl::GcPolicy;
use xftl_workloads::rig::{Aging, Mode, Rig, RigConfig, Snapshot};
use xftl_workloads::synthetic::{self, SyntheticConfig};

use crate::metrics::{self, mode_key};
use crate::report::{ratio, secs, Table};
use crate::RunScale;

/// A GC-validity regime: the paper ages the OpenSSD so victims carry
/// ~30/50/70 % valid pages. We reproduce the regimes the way the paper's
/// firmware does: FIFO victim selection plus a pre-aged drive, so victim
/// validity tracks overall utilization. The utilization for each target is
/// set by sizing physical capacity around the live data (hot working set
/// plus cold aged fill); the harness reports the *measured* mean victim
/// validity next to each target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs, reason = "each variant names the validity it stands for")]
pub enum Validity {
    V30,
    V50,
    V70,
}

impl Validity {
    /// All three regimes, in the paper's panel order.
    pub const ALL: [Validity; 3] = [Validity::V30, Validity::V50, Validity::V70];

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Validity::V30 => "30%",
            Validity::V50 => "50%",
            Validity::V70 => "70%",
        }
    }

    /// Stable key for metric names (`v30`/`v50`/`v70`).
    pub fn key(self) -> &'static str {
        match self {
            Validity::V30 => "v30",
            Validity::V50 => "v50",
            Validity::V70 => "v70",
        }
    }

    /// Target utilization (live pages / physical data pages). Under FIFO
    /// GC the mean victim validity converges to roughly this value;
    /// check with `bench calibrate` after timing changes.
    pub fn utilization(self) -> f64 {
        match self {
            Validity::V30 => 0.30,
            Validity::V50 => 0.50,
            Validity::V70 => 0.70,
        }
    }
}

/// Physical block count so that `live_pages` occupy `utilization` of the
/// data space; never below what the exported logical space requires.
pub fn blocks_for(live_pages: u64, logical_pages: u64, utilization: f64) -> usize {
    let min_blocks = (logical_pages / 128 + 8) as usize;
    ((live_pages as f64 / utilization / 128.0).ceil() as usize + 4).max(min_blocks)
}

/// Scale of the synthetic experiments.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs, reason = "scale knobs are named after what they size")]
pub struct SynScale {
    pub tuples: usize,
    pub txns: usize,
    /// Figure 5's x-axis: updated pages per transaction.
    pub updates_sweep: &'static [usize],
}

impl SynScale {
    /// The parameters for a run scale (full = the paper's configuration:
    /// 60,000 tuples, 1,000 transactions).
    pub fn at(scale: RunScale) -> Self {
        match scale {
            RunScale::Full => SynScale {
                tuples: 60_000,
                txns: 1_000,
                updates_sweep: &[1, 5, 10, 15, 20],
            },
            RunScale::Quick => SynScale {
                tuples: 6_000,
                txns: 120,
                updates_sweep: &[1, 5, 20],
            },
            RunScale::Smoke => SynScale {
                tuples: 3_000,
                txns: 60,
                updates_sweep: &[1, 5],
            },
        }
    }

    /// Rough hot working set in pages: table leaves (~33 tuples of 220 B
    /// per 8 KB page) plus WAL (up to 1000 frames), FS journal region and
    /// metadata.
    pub fn hot_pages(&self) -> u64 {
        (self.tuples as u64 / 30) + 1_600
    }

    /// Cold aged data sharing the drive with the workload (equal mass to
    /// the hot set, like the paper's pre-aged chip state).
    pub fn cold_pages(&self) -> u64 {
        self.hot_pages()
    }

    /// Total live pages (hot + cold).
    pub fn live_pages(&self) -> u64 {
        self.hot_pages() + self.cold_pages()
    }

    /// Exported logical space: hot + cold plus address headroom.
    pub fn logical_pages(&self) -> u64 {
        self.live_pages() + 800
    }
}

/// One measured cell of Figure 5.
#[derive(Debug, Clone, Copy)]
#[allow(
    missing_docs,
    reason = "fields are named after the Figure 5 quantities they hold"
)]
pub struct SynCell {
    pub mode: Mode,
    pub validity: Validity,
    pub updates_per_txn: usize,
    pub elapsed_ns: u64,
    pub measured_validity: Option<f64>,
    pub snap: Snapshot,
    /// Pager counters for the Table 1 host-side columns.
    pub db_writes: u64,
    pub journal_writes: u64,
    pub fsyncs: u64,
}

/// Runs one cell: build an aged rig, load partsupp, run the transactions.
pub fn run_cell(mode: Mode, validity: Validity, updates: usize, scale: SynScale) -> SynCell {
    let live = scale.live_pages();
    let logical = scale.logical_pages();
    let blocks = blocks_for(live, logical, validity.utilization());
    // Age the drive into GC steady state before the workload: the cold
    // fill plus enough churn that the write frontier has cycled the
    // physical space at least once.
    let cold = scale.cold_pages();
    let physical = (blocks as u64) * 128;
    let churn = ((physical as f64 * 1.3 - cold as f64) / cold as f64).max(0.5);
    let cfg = RigConfig {
        mode,
        blocks,
        logical_pages: logical,
        gc_policy: GcPolicy::Fifo,
        aging: Some(Aging {
            fill: cold as f64 / logical as f64,
            churn,
        }),
        ..RigConfig::small(mode)
    };
    let rig = Rig::build(cfg);
    let syn = SyntheticConfig {
        tuples: scale.tuples,
        updates_per_txn: updates,
        txns: scale.txns,
        ..SyntheticConfig::default()
    };
    let mut db = rig.open_db("synthetic.db");
    synthetic::load_partsupply(&mut db, &syn).expect("partsupp load failed");
    // Warm the GC into steady state before measuring, as the paper's
    // aged-drive setup does.
    let warm = SyntheticConfig {
        txns: (scale.txns / 4).max(10),
        ..syn
    };
    synthetic::run_transactions(&mut db, &rig.clock, &warm).expect("warmup failed");
    rig.reset_stats();
    rig.telemetry().reset();
    db.reset_stats();
    let result =
        synthetic::run_transactions(&mut db, &rig.clock, &syn).expect("transaction phase failed");
    let stats = *db.pager_stats();
    drop(db);
    // Per-layer latency distributions of the measured phase (the sink
    // keeps the last cell run per mode, deterministically).
    metrics::hists(&format!("syn.{}", mode_key(mode)), &rig.telemetry());
    let snap = rig.snapshot();
    SynCell {
        mode,
        validity,
        updates_per_txn: updates,
        elapsed_ns: result.elapsed_ns,
        measured_validity: snap.ftl.mean_gc_validity(),
        snap,
        db_writes: stats.db_writes,
        journal_writes: stats.journal_writes,
        fsyncs: stats.fsyncs,
    }
}

/// Figure 5: execution time vs. updated pages per transaction, one panel
/// per GC-validity regime.
pub fn fig5(scale: SynScale) -> String {
    let mut out = String::new();
    out.push_str("=== Figure 5: SQLite performance, 1,000 synthetic transactions ===\n");
    out.push_str(&format!(
        "(tuples={}, txns={}; execution time in simulated seconds)\n\n",
        scale.tuples, scale.txns
    ));
    for validity in Validity::ALL {
        let mut t = Table::new(vec![
            "updates/txn".to_string(),
            "RBJ (s)".into(),
            "WAL (s)".into(),
            "X-FTL (s)".into(),
            "RBJ/X".into(),
            "WAL/X".into(),
            "meas.valid".into(),
        ]);
        for &u in scale.updates_sweep {
            let rbj = run_cell(Mode::Rbj, validity, u, scale);
            let wal = run_cell(Mode::Wal, validity, u, scale);
            let x = run_cell(Mode::XFtl, validity, u, scale);
            for c in [&rbj, &wal, &x] {
                metrics::metric(
                    format!(
                        "fig5.{}.u{u}.{}.elapsed_ns",
                        validity.key(),
                        mode_key(c.mode)
                    ),
                    c.elapsed_ns as f64,
                );
            }
            let mv = [rbj, wal, x]
                .iter()
                .filter_map(|c| c.measured_validity)
                .fold((0.0, 0), |(s, n), v| (s + v, n + 1));
            t.row(vec![
                u.to_string(),
                secs(rbj.elapsed_ns),
                secs(wal.elapsed_ns),
                secs(x.elapsed_ns),
                ratio(rbj.elapsed_ns, x.elapsed_ns),
                ratio(wal.elapsed_ns, x.elapsed_ns),
                if mv.1 > 0 {
                    format!("{:.0}%", 100.0 * mv.0 / mv.1 as f64)
                } else {
                    "-".into()
                },
            ]);
        }
        out.push_str(&format!(
            "--- (GC validity target {}) ---\n",
            validity.label()
        ));
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Table 1: I/O count breakdown at 5 updated pages per transaction,
/// GC validity 50 %.
pub fn table1(scale: SynScale) -> String {
    let mut out = String::new();
    out.push_str("=== Table 1: I/O count (# updated pages/txn = 5, GC validity = 50%) ===\n\n");
    let mut t = Table::new(vec![
        "Mode",
        "DB",
        "Journal",
        "FileSys",
        "Total",
        "fsync",
        "FTL-Write",
        "FTL-Read",
        "GC",
        "Erase",
    ]);
    // Where the "GC" column's victims were drained: in budgeted steps at
    // durability acknowledgements, or inline ahead of a write.
    let mut gc = Table::new(vec!["Mode", "GC", "Background steps", "Inline"]);
    for mode in [Mode::Rbj, Mode::Wal, Mode::XFtl] {
        let c = run_cell(mode, Validity::V50, 5, scale);
        let fs_overhead = c.snap.fs.overhead_writes();
        let total = c.db_writes + c.journal_writes + fs_overhead;
        let m = mode_key(mode);
        metrics::metric(format!("table1.{m}.db_writes"), c.db_writes as f64);
        metrics::metric(
            format!("table1.{m}.journal_writes"),
            c.journal_writes as f64,
        );
        metrics::metric(format!("table1.{m}.fs_writes"), fs_overhead as f64);
        metrics::metric(format!("table1.{m}.fsyncs"), c.fsyncs as f64);
        metrics::metric(
            format!("table1.{m}.ftl_programs"),
            c.snap.flash.programs as f64,
        );
        metrics::metric(format!("table1.{m}.ftl_reads"), c.snap.flash.reads as f64);
        metrics::metric(format!("table1.{m}.gc_runs"), c.snap.ftl.gc_runs as f64);
        metrics::metric(format!("table1.{m}.erases"), c.snap.flash.erases as f64);
        metrics::metric(
            format!("table1.{m}.gc_background_steps"),
            c.snap.ftl.gc_background_steps as f64,
        );
        metrics::metric(
            format!("table1.{m}.gc_inline_collections"),
            c.snap.ftl.gc_inline_collections as f64,
        );
        gc.row(vec![
            mode.label().to_string(),
            c.snap.ftl.gc_runs.to_string(),
            c.snap.ftl.gc_background_steps.to_string(),
            c.snap.ftl.gc_inline_collections.to_string(),
        ]);
        t.row(vec![
            mode.label().to_string(),
            c.db_writes.to_string(),
            c.journal_writes.to_string(),
            fs_overhead.to_string(),
            total.to_string(),
            c.fsyncs.to_string(),
            c.snap.flash.programs.to_string(),
            c.snap.flash.reads.to_string(),
            c.snap.ftl.gc_runs.to_string(),
            c.snap.flash.erases.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nwhere the GC column's victims were collected\n");
    out.push_str(&gc.render());
    out.push('\n');
    out
}

/// Figure 6: FTL-side write count and GC count vs. GC-validity regime,
/// at 5 updated pages per transaction.
pub fn fig6(scale: SynScale) -> String {
    let mut out = String::new();
    out.push_str("=== Figure 6: I/O activity inside the device (updates/txn = 5) ===\n\n");
    let mut wt = Table::new(vec!["validity", "RBJ writes", "WAL writes", "X-FTL writes"]);
    let mut gt = Table::new(vec!["validity", "RBJ GCs", "WAL GCs", "X-FTL GCs"]);
    for validity in Validity::ALL {
        let rbj = run_cell(Mode::Rbj, validity, 5, scale);
        let wal = run_cell(Mode::Wal, validity, 5, scale);
        let x = run_cell(Mode::XFtl, validity, 5, scale);
        for c in [&rbj, &wal, &x] {
            let key = format!("fig6.{}.{}", validity.key(), mode_key(c.mode));
            metrics::metric(format!("{key}.programs"), c.snap.flash.programs as f64);
            metrics::metric(format!("{key}.gc_runs"), c.snap.ftl.gc_runs as f64);
        }
        wt.row(vec![
            validity.label().to_string(),
            rbj.snap.flash.programs.to_string(),
            wal.snap.flash.programs.to_string(),
            x.snap.flash.programs.to_string(),
        ]);
        gt.row(vec![
            validity.label().to_string(),
            rbj.snap.ftl.gc_runs.to_string(),
            wal.snap.ftl.gc_runs.to_string(),
            x.snap.ftl.gc_runs.to_string(),
        ]);
    }
    out.push_str("(a) page write count\n");
    out.push_str(&wt.render());
    out.push_str("\n(b) garbage collection count\n");
    out.push_str(&gt.render());
    out.push('\n');
    out
}

/// Calibration helper: measured mean GC victim validity against the
/// utilization targets behind the Figure 5 validity regimes.
pub fn calibrate(scale: SynScale) -> String {
    let mut out = String::new();
    for mode in [Mode::Rbj, Mode::Wal, Mode::XFtl] {
        for v in Validity::ALL {
            let c = run_cell(mode, v, 5, scale);
            out.push_str(&format!(
                "{:6} target {:3}: validity {:5.1}%  gc_runs {:5}  time {:8.2}s\n",
                mode.label(),
                v.label(),
                c.measured_validity.map(|x| x * 100.0).unwrap_or(0.0),
                c.snap.ftl.gc_runs,
                c.elapsed_ns as f64 / 1e9,
            ));
        }
    }
    out
}
