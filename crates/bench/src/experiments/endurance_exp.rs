//! Endurance sweep: each journaling mode driven to device end-of-life.
//!
//! Not a paper figure — the paper's evaluation stops at healthy silicon —
//! but the robustness counterpart of its §5 durability claim: when the
//! NAND itself wears out, a transactional FTL must fail *readable*, not
//! lose acknowledged commits. The sweep installs an erase-failure-heavy
//! fault environment plus the deterministic aging curve (read disturb,
//! erase wear) on the chip, enables the background scrubber, and runs
//! update transactions until the device either survives the budget or
//! degrades to read-only mode. Each run then power-cycles the dead (or
//! surviving) stack, recovers it, and audits every row through a fresh
//! connection.
//!
//! Reported per (severity, mode): transactions committed before
//! end-of-life, the transaction at which the device entered `Degraded`,
//! the final device state, the fraction of rows still readable after
//! recovery, the fraction whose values match an acknowledged commit, and
//! the scrubber's relocation overhead. The sweep asserts, at every scale,
//! that X-FTL keeps 100 % of rows readable and intact at every severity,
//! that the scrubber holds aging-induced uncorrectable errors at zero,
//! and that X-FTL's entry into `Degraded` is monotone in fault severity.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_db::{DbError, Value};
use xftl_flash::{AgingModel, Nanos};
use xftl_fs::FsError;
use xftl_ftl::{DevError, DeviceState, ScrubConfig};
use xftl_workloads::rig::{FaultEnv, Mode, Rig, RigConfig};
use xftl_workloads::synthetic::{self, SyntheticConfig};

use crate::metrics;
use crate::report::Table;
use crate::RunScale;

/// Scale of the endurance sweep.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs, reason = "scale knobs are named after what they size")]
pub struct EnduranceScale {
    pub tuples: usize,
    /// Transaction budget: a device that survives this many commits at a
    /// given severity is reported as a survivor.
    pub txn_cap: usize,
}

impl EnduranceScale {
    /// The parameters for a run scale (smoke doubles as the tests').
    pub fn at(scale: RunScale) -> Self {
        match scale {
            RunScale::Full => EnduranceScale {
                tuples: 6_000,
                txn_cap: 20_000,
            },
            RunScale::Quick => EnduranceScale {
                tuples: 1_500,
                txn_cap: 4_000,
            },
            RunScale::Smoke => EnduranceScale {
                tuples: 800,
                txn_cap: 1_500,
            },
        }
    }

    /// Exported logical pages: table leaves plus WAL/journal headroom.
    fn logical_pages(&self) -> u64 {
        (self.tuples as u64 / 30) + 2_200
    }

    /// Physical blocks: a deliberately thin spare pool, so that erase
    /// failures can actually exhaust it within the budget. (The fault
    /// sweep sizes generously for the opposite reason — it must survive.)
    fn blocks(&self) -> usize {
        (self.logical_pages() / 128 + 10) as usize
    }
}

/// The deterministic wear-out curve every severity shares: read disturb
/// kicks in well above the scrubber's relocation threshold (so an active
/// scrubber prevents it entirely), and erase wear adds a rising error
/// floor on heavily cycled blocks. Retention is off — the simulated runs
/// are too short for calendar aging to be the interesting axis.
const ENDURANCE_AGING: AgingModel = AgingModel {
    read_disturb_threshold: 4_000,
    reads_per_flip: 400,
    retention_threshold_ns: Nanos::MAX,
    retention_ns_per_flip: Nanos::MAX,
    wear_threshold: 300,
    wear_per_step: 150,
};

/// One wear severity of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct WearSeverity {
    /// Stable metric key, `s<rank>_<name>`, ranked mildest first.
    pub key: &'static str,
    /// Report label.
    pub label: &'static str,
    /// The fault environment (erase-failure dominated).
    pub env: FaultEnv,
}

/// The swept severities, mildest first. Erase failures dominate because
/// they are what actually consumes the device: each first failure
/// permanently retires a block, and end-of-life is the free pool running
/// out of them.
pub const ENDURANCE_SWEEP: [WearSeverity; 3] = [
    WearSeverity {
        key: "s0_worn",
        label: "worn",
        env: FaultEnv {
            seed: 0xEA_001,
            program_fail: 1e-3,
            erase_fail: 1e-2,
            read_flip: 1e-2,
            uncorrectable: 0.0,
            aging: Some(ENDURANCE_AGING),
        },
    },
    WearSeverity {
        key: "s1_failing",
        label: "failing",
        env: FaultEnv {
            seed: 0xEA_002,
            program_fail: 2e-3,
            erase_fail: 8e-2,
            read_flip: 2e-2,
            uncorrectable: 0.0,
            aging: Some(ENDURANCE_AGING),
        },
    },
    WearSeverity {
        key: "s2_dying",
        label: "dying",
        env: FaultEnv {
            seed: 0xEA_003,
            program_fail: 4e-3,
            erase_fail: 3e-1,
            read_flip: 4e-2,
            uncorrectable: 0.0,
            aging: Some(ENDURANCE_AGING),
        },
    },
];

/// The scrub policy every endurance rig runs: relocate a block well
/// before the aging curve's disturb threshold, chase corrected-flip
/// bursts early, and keep the wear spread bounded.
fn scrub_policy() -> ScrubConfig {
    ScrubConfig {
        read_threshold: 256,
        flip_threshold: 4,
        interval_ops: 16,
        wear_delta_cap: 16,
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct EndurancePoint {
    /// Transactions acknowledged before end-of-life (or the budget).
    pub txns: usize,
    /// True if the device refused service before the budget ran out.
    pub died: bool,
    /// Transaction count at which the device entered `Degraded`.
    pub degraded_at_txn: Option<usize>,
    /// Simulated time from the first transaction to `Degraded` entry.
    pub time_to_degraded_ns: Option<Nanos>,
    /// Device state after post-mortem power-cycle and recovery.
    pub final_state: DeviceState,
    /// True if the recovered volume mounted in read-only mode.
    pub mounted_read_only: bool,
    /// True if the database reopened after recovery.
    pub reopened: bool,
    /// Rows in the table.
    pub rows_total: usize,
    /// Rows readable after recovery.
    pub rows_readable: usize,
    /// Readable rows whose value matches an acknowledged commit (or the
    /// in-flight transaction the device died under).
    pub rows_intact: usize,
    /// Scrub relocations (runs) during the life of the device.
    pub scrub_runs: u64,
    /// Pages copied by scrub relocations.
    pub scrub_copies: u64,
    /// Static wear-leveling relocations.
    pub wear_level_runs: u64,
    /// Pages copied by wear leveling.
    pub wear_level_copies: u64,
    /// Host data pages programmed (the scrub-overhead denominator).
    pub data_writes: u64,
    /// Uncorrectable reads caused by the aging curve alone — what the
    /// scrubber exists to prevent.
    pub aging_uncorrectable: u64,
    /// Blocks retired by the end of the run.
    pub bad_blocks: usize,
}

impl EndurancePoint {
    /// Fraction of rows readable after recovery.
    pub fn readable_fraction(&self) -> f64 {
        self.rows_readable as f64 / self.rows_total as f64
    }

    /// Fraction of rows whose values match an acknowledged commit.
    pub fn intact_fraction(&self) -> f64 {
        self.rows_intact as f64 / self.rows_total as f64
    }

    /// Background-copy overhead: scrub + wear-level copies per host
    /// data write.
    pub fn scrub_overhead(&self) -> f64 {
        (self.scrub_copies + self.wear_level_copies) as f64 / self.data_writes.max(1) as f64
    }
}

/// True for the typed errors a device at end of life produces; anything
/// else mid-sweep is a harness failure. A read-only device or file
/// system reaches the database as `DbError::ReadOnly` whichever layer
/// refused (the `From` conversions fold both).
pub(crate) fn is_end_of_life(e: &DbError) -> bool {
    matches!(
        e,
        DbError::ReadOnly | DbError::Fs(FsError::Dev(DevError::OutOfSpace))
    )
}

/// Runs one (mode, severity) cell to end-of-life (or the budget), then
/// power-cycles, recovers, and audits every row.
pub fn run_point(mode: Mode, env: FaultEnv, scale: &EnduranceScale) -> EndurancePoint {
    let rig = Rig::build(RigConfig {
        blocks: scale.blocks(),
        logical_pages: scale.logical_pages(),
        fault: Some(env),
        scrub: Some(scrub_policy()),
        // Tiny OS page cache so reads reach flash and the read-disturb
        // machinery (counters, scrub scores) sees real traffic.
        fs_cache_pages: 8,
        ..RigConfig::small(mode)
    });
    let syn = SyntheticConfig {
        tuples: scale.tuples,
        txns: 0,
        ..SyntheticConfig::default()
    };

    // Life phase: update transactions until the device refuses service.
    // `committed` tracks the last acknowledged value per key; `pending`
    // the writes of the transaction in flight when the device died.
    let mut committed: HashMap<i64, f64> = HashMap::new();
    let mut pending: Vec<(i64, f64)> = Vec::new();
    let mut txns = 0usize;
    let mut died = false;
    let mut degraded_at_txn = None;
    let mut time_to_degraded_ns = None;
    {
        let mut db = rig.open_db("endure.db");
        // Shrink the pager cache (default 256 pages holds this whole
        // working set) so point queries miss all the way to flash; read
        // disturb only accumulates on pages the host actually re-reads.
        db.pager_mut().set_cache_capacity(16);
        match synthetic::load_partsupply(&mut db, &syn) {
            Ok(()) => {
                let t0 = rig.clock.now();
                let mut rng = StdRng::seed_from_u64(env.seed ^ 0xE0_D1E);
                'life: for t in 0..scale.txn_cap {
                    pending.clear();
                    let gen_val = (t + 1) as f64;
                    let r = (|| -> xftl_db::Result<()> {
                        db.execute("BEGIN")?;
                        for _ in 0..syn.updates_per_txn {
                            let key = rng.gen_range(1..=syn.tuples as i64);
                            // Read-modify-write, like the synthetic
                            // workload; the reads are what accumulates
                            // disturb on hot leaf blocks.
                            db.query_with(
                                "SELECT ps_supplycost FROM partsupp WHERE ps_id = ?",
                                &[Value::Int(key)],
                            )?;
                            db.execute_with(
                                "UPDATE partsupp SET ps_supplycost = ? WHERE ps_id = ?",
                                &[Value::Real(gen_val), Value::Int(key)],
                            )?;
                            pending.push((key, gen_val));
                        }
                        db.execute("COMMIT")?;
                        Ok(())
                    })();
                    match r {
                        Ok(()) => {
                            txns += 1;
                            for &(k, v) in &pending {
                                committed.insert(k, v);
                            }
                        }
                        // No rollback attempt: the device just refused
                        // service, and the post-mortem power cycle
                        // discards all in-RAM transaction state anyway.
                        Err(e) if is_end_of_life(&e) => {
                            died = true;
                            break 'life;
                        }
                        Err(e) => {
                            panic!("endurance: {mode:?} failed for a non-endurance reason: {e}")
                        }
                    }
                    if degraded_at_txn.is_none() && rig.device_state() >= DeviceState::Degraded {
                        degraded_at_txn = Some(txns);
                        time_to_degraded_ns = Some(rig.clock.now() - t0);
                    }
                }
            }
            Err(e) if is_end_of_life(&e) => died = true,
            Err(e) => panic!("endurance: {mode:?} load failed for a non-endurance reason: {e}"),
        }
    }

    // Capture life-phase statistics before the power cycle resets the
    // FTL's RAM counters.
    let snap = rig.snapshot();

    // Post-mortem: power-cycle, recover, remount, and audit every row
    // through a fresh connection. A dead baseline whose journal cannot
    // be replayed reports exactly what it lost.
    let (rig, _) = rig.crash_and_recover();
    let final_state = rig.device_state();
    let mounted_read_only = rig.fs.borrow().mounted_read_only();
    let mut reopened = false;
    let mut rows_readable = 0usize;
    let mut rows_intact = 0usize;
    if let Ok(mut db) = rig.try_open_db("endure.db") {
        reopened = true;
        for key in 1..=syn.tuples as i64 {
            let Ok(rows) = db.query_with(
                "SELECT ps_supplycost FROM partsupp WHERE ps_id = ?",
                &[Value::Int(key)],
            ) else {
                continue;
            };
            let Some(v) = rows.first().and_then(|r| r[0].as_f64()) else {
                continue;
            };
            rows_readable += 1;
            let intact = match committed.get(&key) {
                Some(&c) => v == c || (died && pending.iter().any(|&(k, p)| k == key && p == v)),
                // Never updated: whatever the load wrote is right.
                None => true,
            };
            if intact {
                rows_intact += 1;
            }
        }
    }

    EndurancePoint {
        txns,
        died,
        degraded_at_txn,
        time_to_degraded_ns,
        final_state,
        mounted_read_only,
        reopened,
        rows_total: syn.tuples,
        rows_readable,
        rows_intact,
        scrub_runs: snap.ftl.scrub_runs,
        scrub_copies: snap.ftl.scrub_copies,
        wear_level_runs: snap.ftl.wear_level_runs,
        wear_level_copies: snap.ftl.wear_level_copies,
        data_writes: snap.ftl.data_writes,
        aging_uncorrectable: snap.flash.aging_uncorrectable,
        bad_blocks: snap.ftl.bad_block_retirements as usize,
    }
}

fn state_label(s: DeviceState) -> &'static str {
    match s {
        DeviceState::Healthy => "healthy",
        DeviceState::Degraded => "degraded",
        DeviceState::ReadOnly => "read-only",
    }
}

/// The full experiment: every severity × mode cell, with the readable /
/// intact audit and the scrubber detail behind the X-FTL runs.
pub fn endurance_sweep(scale: EnduranceScale) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Endurance sweep: partsupp updates to device end-of-life \
         ({} tuples, budget {} txns) ===\n\
         (erase-failure-dominated fault environments plus the deterministic \
         aging curve; scrubber on)\n\n",
        scale.tuples, scale.txn_cap
    ));
    let mut t = Table::new(vec![
        "wear",
        "mode",
        "txns",
        "degraded@",
        "state",
        "readable",
        "intact",
        "bad blks",
    ]);
    let mut x_points: Vec<(WearSeverity, EndurancePoint)> = Vec::new();
    for sev in ENDURANCE_SWEEP {
        for mode in [Mode::Rbj, Mode::Wal, Mode::XFtl] {
            let p = run_point(mode, sev.env, &scale);
            let mk = metrics::mode_key(mode);
            let key = |m: &str| format!("endurance.{}.{mk}.{m}", sev.key);
            metrics::metric(key("txns"), p.txns as f64);
            metrics::metric(key("died"), f64::from(p.died));
            metrics::metric(key("degraded"), f64::from(p.degraded_at_txn.is_some()));
            metrics::metric(key("reopened"), f64::from(p.reopened));
            metrics::metric(key("readable_fraction"), p.readable_fraction());
            metrics::metric(key("intact_fraction"), p.intact_fraction());
            metrics::metric(key("bad_blocks"), p.bad_blocks as f64);
            metrics::metric(key("scrub_runs"), p.scrub_runs as f64);
            metrics::metric(key("scrub_copies"), p.scrub_copies as f64);
            metrics::metric(key("wear_level_runs"), p.wear_level_runs as f64);
            metrics::metric(key("aging_uncorrectable"), p.aging_uncorrectable as f64);
            if let Some(ns) = p.time_to_degraded_ns {
                metrics::metric(key("time_to_degraded_ns"), ns as f64);
            }
            t.row(vec![
                sev.label.to_string(),
                mode.label().to_string(),
                if p.died {
                    format!("{} †", p.txns)
                } else {
                    format!("{}", p.txns)
                },
                p.degraded_at_txn
                    .map_or_else(|| "-".into(), |n| n.to_string()),
                state_label(p.final_state).to_string(),
                format!("{:.1}%", 100.0 * p.readable_fraction()),
                format!("{:.1}%", 100.0 * p.intact_fraction()),
                p.bad_blocks.to_string(),
            ]);
            if mode == Mode::XFtl {
                assert_eq!(
                    (p.rows_readable, p.rows_intact, p.aging_uncorrectable),
                    (p.rows_total, p.rows_total, 0),
                    "X-FTL at `{}` must keep every row readable and intact at end of life, with \
                     no aging-induced uncorrectable read: (readable, intact, uncorrectable)",
                    sev.label
                );
                // Upward-closed: once a milder severity degrades the
                // device, every harsher one must too.
                let milder = x_points.iter().find(|(_, q)| q.degraded_at_txn.is_some());
                assert!(
                    milder.is_none() || p.degraded_at_txn.is_some(),
                    "degraded entry not monotone in severity: `{}` left X-FTL healthy although \
                     milder `{}` degraded it",
                    sev.label,
                    milder.map_or("", |(m, _)| m.label)
                );
                x_points.push((sev, p));
            }
        }
    }
    out.push_str(&t.render());
    out.push_str("(† device refused service before the budget ran out)\n\n");

    out.push_str("Background maintenance inside the X-FTL runs:\n\n");
    let mut d = Table::new(vec![
        "wear",
        "scrub runs",
        "scrub copies",
        "wear-level runs",
        "overhead",
        "aging uncorrectable",
    ]);
    for (sev, p) in &x_points {
        d.row(vec![
            sev.label.to_string(),
            p.scrub_runs.to_string(),
            p.scrub_copies.to_string(),
            p.wear_level_runs.to_string(),
            format!("{:.2}%", 100.0 * p.scrub_overhead()),
            p.aging_uncorrectable.to_string(),
        ]);
    }
    out.push_str(&d.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xftl_stays_fully_readable_at_end_of_life() {
        let scale = EnduranceScale::at(RunScale::Smoke);
        let sev = ENDURANCE_SWEEP[2]; // dying: must actually reach EOL
        let p = run_point(Mode::XFtl, sev.env, &scale);
        assert!(
            p.died || p.degraded_at_txn.is_some(),
            "the dying severity never stressed the device (txns {})",
            p.txns
        );
        assert!(p.reopened, "X-FTL database failed to reopen after EOL");
        assert_eq!(
            p.rows_readable,
            p.rows_total,
            "X-FTL lost readability of {} rows at end of life",
            p.rows_total - p.rows_readable
        );
        assert_eq!(
            p.rows_intact,
            p.rows_total,
            "X-FTL served {} rows with values matching no acknowledged commit",
            p.rows_total - p.rows_intact
        );
        assert_eq!(
            p.aging_uncorrectable, 0,
            "the scrubber let aging push reads past the ECC budget"
        );
    }

    #[test]
    fn degraded_entry_is_monotone_in_severity() {
        let scale = EnduranceScale::at(RunScale::Smoke);
        let degraded: Vec<bool> = ENDURANCE_SWEEP
            .iter()
            .map(|sev| {
                let p = run_point(Mode::XFtl, sev.env, &scale);
                p.degraded_at_txn.is_some()
            })
            .collect();
        // Upward-closed: once a severity degrades the device, every
        // harsher one must too.
        let first = degraded.iter().position(|&d| d);
        if let Some(i) = first {
            assert!(
                degraded[i..].iter().all(|&d| d),
                "degraded-entry not monotone: {degraded:?}"
            );
        }
        assert_eq!(
            degraded.last(),
            Some(&true),
            "the dying severity never degraded the device"
        );
    }
}
