//! Table 5: SQLite restart time after a power failure, per journal mode.
//!
//! The paper powers the OpenSSD off mid-run and measures the time SQLite
//! takes to recover the database on first access — excluding the FTL's own
//! (common) recovery of its mapping structures. We reproduce both numbers:
//! the mode-specific restart time (hot-journal rollback for RBJ, WAL-scan
//! for WAL, X-L2P fold for X-FTL) and the common FTL recovery, part by
//! part, beside what probing every page of every written block would
//! have cost.

use xftl_flash::{FlashChip, FlashConfig, Ppa, SimClock};
use xftl_ftl::RecoveryBreakdown;
use xftl_workloads::rig::{Mode, Rig, RigConfig};
use xftl_workloads::synthetic::{self, SyntheticConfig};

use crate::metrics::{self, mode_key};
use crate::report::{millis, Table};
use crate::RunScale;

/// One Table 5 measurement.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryMeasurement {
    /// System configuration measured.
    pub mode: Mode,
    /// Mode-specific restart work, simulated ns (the paper's metric).
    pub restart_ns: u64,
    /// Common device recovery (root search, scan, slab load — and on the
    /// plain FTL its replay and closing checkpoint), excluded by the
    /// paper.
    pub common_ns: u64,
    /// The device recovery, part by part.
    pub device: RecoveryBreakdown,
    /// What one probe of every page of every written block would cost:
    /// the scan before a root could cover a block.
    pub full_probe_ns: u64,
    /// One block's share of that.
    pub block_probe_ns: u64,
}

/// Crash scale.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs, reason = "scale knobs are named after what they size")]
pub struct RecoveryScale {
    pub tuples: usize,
    pub txns_before_crash: usize,
}

impl RecoveryScale {
    /// The parameters for a run scale.
    pub fn at(scale: RunScale) -> Self {
        match scale {
            RunScale::Full => RecoveryScale {
                tuples: 20_000,
                txns_before_crash: 200,
            },
            RunScale::Quick => RecoveryScale {
                tuples: 2_000,
                txns_before_crash: 40,
            },
            RunScale::Smoke => RecoveryScale {
                tuples: 1_500,
                txns_before_crash: 30,
            },
        }
    }
}

/// Runs the crash scenario for one mode and measures restart time.
pub fn measure(mode: Mode, scale: RecoveryScale) -> RecoveryMeasurement {
    let hot = (scale.tuples as u64 / 33) * 2 + 1_500;
    let logical = hot * 2;
    let rig = Rig::build(RigConfig {
        mode,
        // Enough physical space for the full logical range plus GC slack.
        blocks: (logical / 128 + 14) as usize,
        logical_pages: logical,
        ..RigConfig::small(mode)
    });
    let syn = SyntheticConfig {
        tuples: scale.tuples,
        updates_per_txn: 5,
        txns: scale.txns_before_crash,
        ..SyntheticConfig::default()
    };
    {
        let mut db = rig.open_db("synthetic.db");
        synthetic::load_partsupply(&mut db, &syn).expect("partsupp load failed");
        synthetic::run_transactions(&mut db, &rig.clock, &syn).expect("transaction phase failed");
        // Leave an in-flight transaction with storage-resident state at
        // crash time: a small pager cache forces spills (hot journal in
        // RBJ, uncommitted frames in WAL, stolen tx pages on X-FTL).
        db.pager_mut().set_cache_capacity(4);
        db.execute("BEGIN").expect("begin");
        for i in 0..10i64 {
            db.execute_with(
                "UPDATE partsupp SET ps_supplycost = 1.0 WHERE ps_id = ?",
                &[xftl_db::Value::Int(i * 37 + 1)],
            )
            .expect("in-flight update");
        }
        // Power fails here: no COMMIT, connection dropped.
    }
    // Device-level recovery, with the X-L2P portion isolated for X-FTL.
    let (rig, device) = rig.crash_and_recover();
    // SQLite-level restart: the first open performs the mode's recovery
    // (hot-journal rollback / WAL index rebuild).
    let t0 = rig.clock.now();
    let db = rig.open_db("synthetic.db");
    let open_ns = rig.clock.now() - t0;
    drop(db);
    // X-FTL's restart work happens inside the device (reading the table
    // image, the fold and the checkpoint that retires it; on the plain
    // FTL the same two parts are common roll-forward); opening the
    // database then does no recovery at all, but we include it for
    // honesty — it is near zero.
    let found_ns = device.root_ns + device.scan_ns + device.load_ns;
    let fold_ns = device.replay_ns + device.checkpoint_ns;
    let (restart_ns, common_ns) = if mode == Mode::XFtl {
        (fold_ns + open_ns, found_ns)
    } else {
        (open_ns, found_ns + fold_ns)
    };
    // What one probe costs on the rig's OpenSSD profile: timed on an
    // idle chip of that profile, not re-derived from its timing model.
    let flash = FlashConfig::openssd(1);
    let mut idle = FlashChip::new(flash, SimClock::new());
    idle.probe(Ppa::new(0, 0)).expect("probe of a fresh chip");
    let probe_ns = idle.clock().now();
    let block_probe_ns = flash.geometry.pages_per_block as u64 * probe_ns;
    RecoveryMeasurement {
        mode,
        restart_ns,
        common_ns,
        device,
        full_probe_ns: u64::from(device.written_blocks) * block_probe_ns,
        block_probe_ns,
    }
}

/// Table 5 report.
pub fn table5(scale: RecoveryScale) -> String {
    let mut out = String::new();
    out.push_str("=== Table 5: SQLite restart time after power failure ===\n\n");
    let mut t = Table::new(vec![
        "mode",
        "restart (ms)",
        "common FTL recovery (ms)",
        "root search",
        "scan",
        "slab load",
        "replay",
        "checkpoint",
        "blocks skipped",
        "full probe (ms)",
    ]);
    for mode in [Mode::Rbj, Mode::Wal, Mode::XFtl] {
        let m = measure(mode, scale);
        let key = mode_key(mode);
        let d = m.device;
        for (name, ns) in [
            ("restart_ns", m.restart_ns),
            ("common_ns", m.common_ns),
            ("root_ns", d.root_ns),
            ("scan_ns", d.scan_ns),
            ("load_ns", d.load_ns),
            ("replay_ns", d.replay_ns),
            ("checkpoint_ns", d.checkpoint_ns),
            ("full_probe_ns", m.full_probe_ns),
            ("block_probe_ns", m.block_probe_ns),
        ] {
            metrics::metric(format!("table5.{key}.{name}"), ns as f64);
        }
        // Recovery costs what changed since the root: a quarter of the
        // full probe, plus four blocks no root can cover (the two-block
        // root ring and the open data and mapping frontiers).
        let allowed = m.full_probe_ns / 4 + 4 * m.block_probe_ns;
        assert!(
            m.common_ns <= allowed,
            "{key} common FTL recovery {} ns > {allowed} ns (a quarter of the full probe {} ns \
             plus four blocks): the recovery scan is reading what the root covers",
            m.common_ns,
            m.full_probe_ns
        );
        t.row(vec![
            mode.label().to_string(),
            millis(m.restart_ns),
            millis(m.common_ns),
            millis(d.root_ns),
            millis(d.scan_ns),
            millis(d.load_ns),
            millis(d.replay_ns),
            millis(d.checkpoint_ns),
            format!("{} of {}", d.skipped_blocks, d.written_blocks),
            millis(m.full_probe_ns),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n(paper, OpenSSD hardware: RBJ 20.1 ms, WAL 153.0 ms, X-FTL 3.5 ms, common FTL \
         recovery excluded. The five parts are the device recovery; on X-FTL replay and \
         checkpoint are the X-L2P fold and count as restart, not as common. Full probe: every \
         page of every written block, the scan before a root could cover a block.)\n\n",
    );
    out
}
