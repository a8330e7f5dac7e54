//! `bench-check` — the perf-regression gate.
//!
//! Parses a freshly generated bench report (default `BENCH_all.json`)
//! and the committed baseline (default `BENCH_BASELINE.json`) and
//! compares every metric with a per-metric tolerance (counts exact,
//! simulated latencies/throughputs within 10 %). Missing or unexpected
//! metrics are violations too, so the baseline can't silently go stale.
//! The claims that hold whatever the baseline says are not here: each is
//! an `assert!` in the experiment that computes its numbers.

use std::fs;
use std::path::Path;

use xftl_trace::BenchReport;

/// Relative tolerance for one metric, chosen by naming convention: the
/// simulation is deterministic, so *counts* must match the baseline
/// exactly, while simulated *latencies and throughputs* — which shift
/// whenever the timing model is deliberately improved — get 10 % before
/// the gate demands a baseline refresh.
fn tolerance_for(name: &str) -> f64 {
    let timing_suffixes = ["_ns", "_iops", "_tps", "_tpm", "_per_s", "pages_per_txn"];
    if timing_suffixes.iter().any(|s| name.ends_with(s)) {
        0.10
    } else {
        0.0
    }
}

fn within(base: f64, fresh: f64, tol: f64) -> bool {
    if tol == 0.0 {
        return base == fresh;
    }
    // Scale-relative band, with an absolute floor so a 0-vs-1 jitter on
    // a near-zero latency doesn't trip the gate.
    (fresh - base).abs() <= tol * base.abs().max(1.0)
}

/// Flattens a report's metrics plus histogram summaries into one
/// comparable `(name, value)` list. Histogram fields inherit the field
/// suffix (`count` exact, `*_ns` tolerant) via [`tolerance_for`].
fn flatten(report: &BenchReport) -> Vec<(String, f64)> {
    let mut out = report.metrics.clone();
    for (name, s) in &report.hists {
        out.push((format!("{name}.count"), s.count as f64));
        out.push((format!("{name}.sum_ns"), s.sum_ns as f64));
        out.push((format!("{name}.p50_ns"), s.p50_ns as f64));
        out.push((format!("{name}.p95_ns"), s.p95_ns as f64));
        out.push((format!("{name}.p99_ns"), s.p99_ns as f64));
        out.push((format!("{name}.max_ns"), s.max_ns as f64));
    }
    out
}

/// Outcome of a baseline comparison: `violations` fail the gate,
/// `warnings` are printed but let it pass.
#[derive(Debug, Default)]
pub struct Compared {
    pub violations: Vec<String>,
    pub warnings: Vec<String>,
}

/// Compares a fresh report against the committed baseline. Every
/// baseline metric must be present and within tolerance — a baseline
/// that goes stale is a hard failure either way. Metrics *new* in the
/// fresh report are violations by default (the baseline must be
/// refreshed deliberately), but `allow_new` downgrades exactly those to
/// warnings so a PR that adds instrumentation can land before its
/// baseline is re-blessed; missing metrics still fail.
pub fn compare_reports(baseline: &BenchReport, fresh: &BenchReport, allow_new: bool) -> Compared {
    let base = flatten(baseline);
    let new = flatten(fresh);
    let mut out = Compared::default();
    for (name, b) in &base {
        match new.iter().find(|(n, _)| n == name) {
            None => out
                .violations
                .push(format!("missing metric `{name}` (baseline has {b})")),
            Some((_, f)) => {
                let tol = tolerance_for(name);
                if !within(*b, *f, tol) {
                    out.violations.push(format!(
                        "`{name}`: fresh {f} vs baseline {b} (tolerance {:.0}%)",
                        tol * 100.0
                    ));
                }
            }
        }
    }
    for (name, f) in &new {
        if !base.iter().any(|(n, _)| n == name) {
            let line =
                format!("new metric `{name}` = {f} not in baseline (refresh the baseline file)");
            if allow_new {
                out.warnings.push(line);
            } else {
                out.violations.push(line);
            }
        }
    }
    out
}

fn load_report(path: &Path) -> Result<BenchReport, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    BenchReport::from_json(&text).map_err(|e| format!("cannot parse {}: {}", path.display(), e.msg))
}

/// The `bench-check` command body: loads both reports, prints every
/// violation, returns the violation count. The absolute claims (a
/// pipeline win, a cache hit rate, intact rows at end of life) are
/// asserted inside the experiments that measure them, at every scale;
/// this is only the baseline diff.
pub fn bench_check(
    fresh_path: &Path,
    baseline_path: &Path,
    allow_new: bool,
) -> Result<usize, String> {
    let baseline = load_report(baseline_path)?;
    let fresh = load_report(fresh_path)?;
    if baseline.meta != fresh.meta {
        return Err(format!(
            "report meta mismatch (fresh {:?} vs baseline {:?}) — compare runs at the same scale",
            fresh.meta, baseline.meta
        ));
    }
    let Compared {
        violations,
        warnings,
    } = compare_reports(&baseline, &fresh, allow_new);
    for w in &warnings {
        println!("bench-check: warning: {w}");
    }
    for v in &violations {
        println!("bench-check: {v}");
    }
    println!(
        "bench-check: {} vs {}: {} metric(s) compared, {} violation(s), {} warning(s)",
        fresh_path.display(),
        baseline_path.display(),
        flatten(&baseline).len(),
        violations.len(),
        warnings.len(),
    );
    Ok(violations.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(metrics: &[(&str, f64)]) -> BenchReport {
        let mut r = BenchReport::new("all");
        r.meta("scale", "smoke");
        for (n, v) in metrics {
            r.metric(n, *v);
        }
        r
    }

    #[test]
    fn bench_check_passes_on_identical_reports() {
        let base = report_with(&[
            ("table1.xftl.fsyncs", 12.0),
            ("fig5.v50.u5.xftl.elapsed_ns", 1e9),
        ]);
        assert!(compare_reports(&base, &base.clone(), false)
            .violations
            .is_empty());
    }

    #[test]
    fn bench_check_tolerates_small_timing_drift_only() {
        let base = report_with(&[("fig5.v50.u5.xftl.elapsed_ns", 1e9)]);
        // 8% latency drift: inside the 10% band.
        let fresh = report_with(&[("fig5.v50.u5.xftl.elapsed_ns", 1.08e9)]);
        assert!(compare_reports(&base, &fresh, false).violations.is_empty());
        // 12% drift: violation (the negative test of the acceptance
        // criteria — a perturbed metric must fail the gate).
        let fresh = report_with(&[("fig5.v50.u5.xftl.elapsed_ns", 1.12e9)]);
        assert_eq!(compare_reports(&base, &fresh, false).violations.len(), 1);
    }

    #[test]
    fn bench_check_counts_are_exact() {
        let base = report_with(&[("table1.xftl.fsyncs", 12.0)]);
        let fresh = report_with(&[("table1.xftl.fsyncs", 13.0)]);
        assert_eq!(compare_reports(&base, &fresh, false).violations.len(), 1);
    }

    #[test]
    fn bench_check_flags_missing_and_extra_metrics() {
        let base = report_with(&[("a.count", 1.0), ("b.count", 2.0)]);
        let fresh = report_with(&[("a.count", 1.0), ("c.count", 3.0)]);
        let v = compare_reports(&base, &fresh, false).violations;
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("missing metric `b.count`")));
        assert!(v.iter().any(|m| m.contains("new metric `c.count`")));
    }

    #[test]
    fn allow_new_downgrades_new_metrics_but_not_missing_ones() {
        let base = report_with(&[("a.count", 1.0), ("b.count", 2.0)]);
        let fresh = report_with(&[("a.count", 1.0), ("c.count", 3.0)]);
        let out = compare_reports(&base, &fresh, true);
        // The new metric is a warning, the missing one still fails.
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert!(out.violations[0].contains("missing metric `b.count`"));
        assert_eq!(out.warnings.len(), 1, "{:?}", out.warnings);
        assert!(out.warnings[0].contains("new metric `c.count`"));
        // A drifted metric is never downgraded by --allow-new.
        let drifted = report_with(&[("a.count", 7.0), ("b.count", 2.0)]);
        assert_eq!(compare_reports(&base, &drifted, true).violations.len(), 1);
    }

    #[test]
    fn bench_check_compares_histogram_summaries() {
        use xftl_trace::{OpClass, Telemetry};
        let mk = |lat: u64| {
            let t = Telemetry::new();
            t.record(OpClass::TxCommit, lat);
            let mut r = BenchReport::new("all");
            r.attach_telemetry(&t);
            r
        };
        let base = mk(1_000_000);
        // Same count, latency shifted far beyond 10%: the *_ns hist
        // fields trip, the count field does not.
        let fresh = mk(2_000_000);
        let v = compare_reports(&base, &fresh, false).violations;
        assert!(!v.is_empty());
        assert!(v.iter().all(|m| m.contains("_ns")), "{v:?}");
    }
}
