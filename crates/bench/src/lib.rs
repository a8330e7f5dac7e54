//! # xftl-bench — harnesses regenerating every table and figure
//!
//! Each experiment of the paper's evaluation (§6) has a module under
//! [`experiments`] and a row in the registry of the one front end:
//! `cargo run --release -p xftl-bench --bin bench -- <name>…
//! [--smoke|--quick]` runs the named experiments (`all` = the paper's
//! sweep in one report) and `bench --list` prints the names.
//!
//! | paper artifact | module | `bench <name>` |
//! |---|---|---|
//! | Figure 5 (a–c) | `experiments::synthetic_exp::fig5` | `fig5` |
//! | Table 1 | `experiments::synthetic_exp::table1` | `table1` |
//! | Figure 6 | `experiments::synthetic_exp::fig6` | `fig6` |
//! | Table 2 | `experiments::android_exp::table2` | `table2` |
//! | Figure 7 | `experiments::android_exp::fig7` | `fig7` |
//! | Tables 3–4 | `experiments::tpcc_exp::tables_3_4` | `tpcc` |
//! | Figure 8 | `experiments::fio_exp::fig8` | `fig8` |
//! | Figure 9 | `experiments::fio_exp::fig9` | `fig9` |
//! | Table 5 | `experiments::recovery_exp::table5` | `table5` |
//! | (ablations) | `experiments::ablation` | `ablation` |
//! | (channel scaling) | `experiments::channel_exp::channel_scaling` | `channels` |
//! | (concurrent writers) | `experiments::concurrent_exp::concurrent_scaling` | `concurrent` |
//! | (fault sweep) | `experiments::fault_exp::fault_sweep` | `faults` |
//! | (endurance to end-of-life) | `experiments::endurance_exp::endurance_sweep` | `endurance` |
//! | (GC steady-state soak) | `experiments::steady_exp::steady` | `steady` |
//! | (GC-validity calibration) | `experiments::synthetic_exp::calibrate` | `calibrate` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A match over a protocol enum names every variant: a new variant is a
// compile error wherever its meaning must be decided.
#![deny(clippy::wildcard_enum_match_arm)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "experiment code, not device firmware: a failed SQL statement or device command means the experiment is broken, and a panic is the desired failure mode"
)]

pub mod experiments;
pub mod metrics;
pub mod report;

/// The scale `bench` runs its experiments at. Every experiment's
/// `*Scale::at` maps it to that experiment's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Paper-quality scale (the default).
    Full,
    /// Reduced scale: seconds instead of minutes (`--quick`).
    Quick,
    /// Minimal scale for the CI `bench-smoke` job (`--smoke`): small
    /// enough to finish in minutes, large enough that every mode
    /// ordering the paper claims still holds.
    Smoke,
}

impl RunScale {
    /// The label stamped into the report's `meta.scale`.
    pub fn label(self) -> &'static str {
        match self {
            RunScale::Full => "full",
            RunScale::Quick => "quick",
            RunScale::Smoke => "smoke",
        }
    }
}

/// Drains the metric sink into a [`xftl_trace::BenchReport`] and writes
/// it as `BENCH_<name>.json` in the current directory. `bench` calls
/// this after printing an experiment's text tables; because the whole
/// stack runs on the simulated clock, two runs at the same scale write
/// byte-identical files.
pub fn write_report(name: &str, scale: RunScale) {
    let mut report = xftl_trace::BenchReport::new(name);
    report.meta("scale", scale.label());
    metrics::drain_into(&mut report);
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, report.to_json()).expect("write bench report");
    eprintln!(
        "wrote {path} ({} metrics, {} histograms)",
        report.metrics.len(),
        report.hists.len()
    );
}
