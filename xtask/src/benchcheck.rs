//! `bench-check` — the perf-regression gate.
//!
//! Parses a freshly generated bench report (default `BENCH_all.json`)
//! and the committed baseline (default `BENCH_BASELINE.json`) and
//! compares every metric with a per-metric tolerance (counts exact,
//! simulated latencies/throughputs within 10 %). Missing or unexpected
//! metrics are violations too, so the baseline can't silently go stale.
//! On top of the baseline match, the pipeline gate demands the
//! split-phase commit win itself: deeper queues must raise X-FTL IOPS;
//! the recovery gate, that device recovery stays a fraction of what
//! probing every written page would cost.

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

/// The commit-pipeline gate: beyond matching the baseline, the fresh
/// report must exhibit the split-phase win itself — deeper queues raise
/// X-FTL IOPS. A regression that serializes the pipeline (every
/// commit_submit flushing immediately, say) would keep all depth-1
/// numbers bit-identical to the baseline, so only a direct qd1-vs-qdN
/// comparison catches it.
pub fn pipeline_gate(fresh: &BenchReport) -> Vec<String> {
    let get = |name: &str| {
        fresh
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let mut violations = Vec::new();
    let pairs = [
        (
            "channels.qd1.xftl_iops",
            "channels.qd8.xftl_iops",
            "queue-depth sweep",
        ),
        (
            "fig9.wpf10.openssd_xftl_qd1_iops",
            "fig9.wpf10.openssd_xftl_iops",
            "fig9 pipelined row",
        ),
    ];
    for (shallow, deep, what) in pairs {
        match (get(shallow), get(deep)) {
            (Some(q1), Some(qn)) if qn <= q1 => violations.push(format!(
                "commit-pipeline win lost in {what}: `{deep}` {qn:.0} <= `{shallow}` {q1:.0}"
            )),
            (None, _) | (_, None) => violations.push(format!(
                "{what} metrics missing (`{shallow}` / `{deep}`) — pipeline gate cannot run"
            )),
            _ => {}
        }
    }
    violations
}

/// The concurrent-writer gate: the MVCC claim itself must hold in the
/// fresh report — four disjoint snapshot writers committing through the
/// split-phase pipeline must out-commit a single writer. A regression
/// that serializes snapshot commits (validation taking a global flush,
/// say) would leave single-writer numbers identical to the baseline, so
/// only the direct w1-vs-w4 comparison catches it.
pub fn concurrent_gate(fresh: &BenchReport) -> Vec<String> {
    let get = |name: &str| {
        fresh
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let (shallow, deep) = (
        "concurrent.w1.disjoint_commit_tps",
        "concurrent.w4.disjoint_commit_tps",
    );
    match (get(shallow), get(deep)) {
        (Some(w1), Some(w4)) if w4 <= w1 => vec![format!(
            "concurrent-writer win lost: `{deep}` {w4:.0} <= `{shallow}` {w1:.0}"
        )],
        (None, _) | (_, None) => vec![format!(
            "concurrent sweep metrics missing (`{shallow}` / `{deep}`) — \
             concurrent gate cannot run"
        )],
        _ => Vec::new(),
    }
}

/// The GC steady-state gate: the demand-paged-mapping claims must hold
/// as *absolute* properties of the fresh report, independent of any
/// baseline drift. The mapping cache must serve > 80 % of translations
/// from RAM at the bench's bounded budget, cost-benefit victim
/// selection must beat greedy on write amplification under Zipfian
/// skew, the resident-slab high-water mark must never exceed the
/// configured budget, and under either policy a host write must cost
/// fewer than 0.6 translation-page programs — an eviction writes its
/// victim and nothing else (riders amortising a root that no longer
/// exists read 0.70–0.87 here). Metrics present in the report but out
/// of bounds — or missing entirely — are violations; like the pipeline
/// gate, this catches regressions that a re-blessed baseline would
/// launder.
pub fn steady_gate(fresh: &BenchReport) -> Vec<String> {
    let get = |name: &str| {
        fresh
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let mut violations = Vec::new();
    let mut need = |name: &str| {
        let v = get(name);
        if v.is_none() {
            violations.push(format!("`{name}` missing — steady gate cannot run"));
        }
        v
    };
    let hit = need("steady.cb.map_cache_hit_rate");
    let cb_wa = need("steady.cb.wa");
    let greedy_wa = need("steady.greedy.wa");
    let budget = need("steady.cb.cache_budget_slabs");
    let resident = need("steady.cb.cache_resident_max");
    let map_programs = ["greedy", "cb"].map(|policy| {
        let name = format!("steady.{policy}.translation_overhead");
        (need(&name), name)
    });
    if let Some(h) = hit {
        if h <= 0.80 {
            violations.push(format!(
                "mapping-cache hit rate {h:.4} <= 0.80 — demand paging is thrashing"
            ));
        }
    }
    if let (Some(cb), Some(greedy)) = (cb_wa, greedy_wa) {
        if cb >= greedy {
            violations.push(format!(
                "cost-benefit WA {cb:.4} >= greedy WA {greedy:.4} — victim-selection win lost"
            ));
        }
    }
    if let (Some(r), Some(b)) = (resident, budget) {
        if r > b {
            violations.push(format!(
                "resident slabs peaked at {r:.0} over the budget of {b:.0} — cache bound broken"
            ));
        }
    }
    for (t, name) in map_programs {
        if let Some(t) = t.filter(|t| *t >= 0.6) {
            violations.push(format!(
                "`{name}` {t:.4} >= 0.6 translation-page programs per host write — an \
                 eviction is writing more than its victim"
            ));
        }
    }
    violations
}

/// The recovery gate, over the `table5` lane: recovery costs what changed
/// since the root, not what the device holds. For every journal mode the
/// common FTL recovery must stay within a quarter of the *full-probe*
/// cost — one OOB probe of every page of every written block, which is
/// what the scan cost while it was the only directory — plus four blocks'
/// worth of probes for what no root can ever cover: the two-block root
/// ring and the open data and mapping frontiers (on the few written
/// blocks of the smoke scale those four are most of the device). A scan
/// that stops skipping covered blocks costs the full probe and then
/// some, whatever baseline it is re-blessed against.
pub fn recovery_gate(fresh: &BenchReport) -> Vec<String> {
    let get = |name: &str| {
        fresh
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let mut violations = Vec::new();
    for mode in ["rbj", "wal", "xftl"] {
        let names = ["common_ns", "full_probe_ns", "block_probe_ns"]
            .map(|metric| format!("table5.{mode}.{metric}"));
        let [Some(common), Some(full), Some(block)] = names.each_ref().map(|n| get(n)) else {
            violations.push(format!(
                "`{}` / `{}` / `{}` missing — recovery gate cannot run",
                names[0], names[1], names[2]
            ));
            continue;
        };
        let allowed = 0.25 * full + 4.0 * block;
        if common > allowed {
            violations.push(format!(
                "`{}` {common:.0} > {allowed:.0} (a quarter of the full probe {full:.0} plus \
                 four blocks) — the recovery scan is reading what the root covers",
                names[0]
            ));
        }
    }
    violations
}

/// Structural gate over the endurance sweep (`BENCH_endurance.json`):
/// X-FTL must keep every row readable *and* value-intact after
/// end-of-life recovery at every swept severity, the scrubber must hold
/// aging-induced uncorrectable reads at zero, and entry into the
/// degraded device state must be monotone in severity — a milder wear
/// environment degrading the device while a harsher one does not means
/// the health state machine is keyed to the wrong signal.
pub fn endurance_gate(fresh: &BenchReport) -> Vec<String> {
    let mut violations = Vec::new();
    // Severity keys look like `endurance.s1_failing.xftl.txns`; the
    // `s<rank>` prefix encodes the sweep order, mildest first.
    let mut sevs: Vec<(u64, String)> = Vec::new();
    for (n, _) in &fresh.metrics {
        let Some(rest) = n.strip_prefix("endurance.") else {
            continue;
        };
        let Some((sev, _)) = rest.split_once('.') else {
            continue;
        };
        let Some(rank) = sev
            .strip_prefix('s')
            .and_then(|s| s.split('_').next())
            .and_then(|d| d.parse::<u64>().ok())
        else {
            continue;
        };
        if !sevs.iter().any(|(_, s)| s == sev) {
            sevs.push((rank, sev.to_string()));
        }
    }
    sevs.sort();
    if sevs.is_empty() {
        violations.push("no `endurance.s<rank>_*` metrics — endurance gate cannot run".into());
        return violations;
    }
    let get = |name: &str| {
        fresh
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let mut degraded = Vec::new();
    for (_, sev) in &sevs {
        let mut need = |metric: &str| {
            let name = format!("endurance.{sev}.xftl.{metric}");
            let v = get(&name);
            if v.is_none() {
                violations.push(format!("`{name}` missing — endurance gate cannot run"));
            }
            v
        };
        let readable = need("readable_fraction");
        let intact = need("intact_fraction");
        let uncorrectable = need("aging_uncorrectable");
        degraded.push(need("degraded"));
        if let Some(f) = readable {
            if f < 1.0 {
                violations.push(format!(
                    "X-FTL readable fraction {f:.4} < 1.0 at `{sev}` — rows lost at end of life"
                ));
            }
        }
        if let Some(f) = intact {
            if f < 1.0 {
                violations.push(format!(
                    "X-FTL intact fraction {f:.4} < 1.0 at `{sev}` — recovered values match no \
                     acknowledged commit"
                ));
            }
        }
        if let Some(u) = uncorrectable {
            if u != 0.0 {
                violations.push(format!(
                    "{u:.0} aging-induced uncorrectable read(s) at `{sev}` — the scrubber is not \
                     relocating at-risk blocks in time"
                ));
            }
        }
    }
    let mut milder_degraded: Option<&str> = None;
    for ((_, sev), d) in sevs.iter().zip(&degraded) {
        match d {
            Some(v) if *v != 0.0 => milder_degraded = Some(sev),
            Some(_) => {
                if let Some(m) = milder_degraded {
                    violations.push(format!(
                        "`{sev}` left the device healthy although milder `{m}` degraded it — \
                         degraded entry not monotone in severity"
                    ));
                }
            }
            None => {}
        }
    }
    violations
}

fn load_report(path: &Path) -> Result<BenchReport, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    BenchReport::from_json(&text).map_err(|e| format!("cannot parse {}: {}", path.display(), e.msg))
}

/// The `bench-check` command body: loads both reports, prints every
/// violation, returns the violation count. The structural gates
/// dispatch on the report name: the `all` report carries the pipeline
/// and concurrent sweeps, the `steady` report carries the GC
/// steady-state metrics (a future `all` that folds them in gets the
/// steady gate too, keyed on metric presence).
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
    let compared = compare_reports(&baseline, &fresh, allow_new);
    let mut violations = compared.violations;
    if fresh.name == "all" {
        violations.extend(pipeline_gate(&fresh));
        violations.extend(concurrent_gate(&fresh));
    }
    let has_table5 = |r: &BenchReport| r.metrics.iter().any(|(n, _)| n.starts_with("table5."));
    if fresh.name == "all" || has_table5(&fresh) || has_table5(&baseline) {
        violations.extend(recovery_gate(&fresh));
    }
    let has_steady = |r: &BenchReport| r.metrics.iter().any(|(n, _)| n.starts_with("steady."));
    if fresh.name == "steady" || has_steady(&fresh) || has_steady(&baseline) {
        violations.extend(steady_gate(&fresh));
    }
    let has_endurance =
        |r: &BenchReport| r.metrics.iter().any(|(n, _)| n.starts_with("endurance."));
    if fresh.name == "endurance" || has_endurance(&fresh) || has_endurance(&baseline) {
        violations.extend(endurance_gate(&fresh));
    }
    for w in &compared.warnings {
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
        compared.warnings.len(),
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

    #[test]
    fn pipeline_gate_demands_a_queue_depth_win() {
        let winning = report_with(&[
            ("channels.qd1.xftl_iops", 700.0),
            ("channels.qd8.xftl_iops", 1400.0),
            ("fig9.wpf10.openssd_xftl_qd1_iops", 717.0),
            ("fig9.wpf10.openssd_xftl_iops", 1300.0),
        ]);
        assert!(pipeline_gate(&winning).is_empty());
        // A serialized pipeline (deep == shallow) is a regression.
        let flat = report_with(&[
            ("channels.qd1.xftl_iops", 700.0),
            ("channels.qd8.xftl_iops", 700.0),
            ("fig9.wpf10.openssd_xftl_qd1_iops", 717.0),
            ("fig9.wpf10.openssd_xftl_iops", 1300.0),
        ]);
        assert_eq!(pipeline_gate(&flat).len(), 1);
        // Dropping the sweep entirely must not silently pass.
        let missing = report_with(&[("channels.qd1.xftl_iops", 700.0)]);
        assert_eq!(pipeline_gate(&missing).len(), 2);
    }

    #[test]
    fn concurrent_gate_demands_a_multi_writer_win() {
        let winning = report_with(&[
            ("concurrent.w1.disjoint_commit_tps", 900.0),
            ("concurrent.w4.disjoint_commit_tps", 2100.0),
        ]);
        assert!(concurrent_gate(&winning).is_empty());
        // Serialized snapshot commits (w4 == w1) are a regression.
        let flat = report_with(&[
            ("concurrent.w1.disjoint_commit_tps", 900.0),
            ("concurrent.w4.disjoint_commit_tps", 900.0),
        ]);
        assert_eq!(concurrent_gate(&flat).len(), 1);
        // Dropping the sweep must not silently pass.
        let missing = report_with(&[("concurrent.w1.disjoint_commit_tps", 900.0)]);
        assert_eq!(concurrent_gate(&missing).len(), 1);
    }

    fn table5_report(common: [f64; 3], full: [f64; 3]) -> BenchReport {
        let mut r = report_with(&[]);
        for (i, mode) in ["rbj", "wal", "xftl"].iter().enumerate() {
            r.metric(&format!("table5.{mode}.common_ns"), common[i]);
            r.metric(&format!("table5.{mode}.full_probe_ns"), full[i]);
            r.metric(&format!("table5.{mode}.block_probe_ns"), 6e6);
        }
        r
    }

    #[test]
    fn recovery_gate_demands_a_scan_that_skips_what_the_root_covers() {
        // The smoke scale after the skip: 11, 5 and 4 written blocks.
        let full = [70.9e6, 32.2e6, 25.8e6];
        assert!(recovery_gate(&table5_report([30.6e6, 16.3e6, 6.6e6], full)).is_empty());
        // The scan reads every page again: the full probe and the rest
        // of the recovery on top, in the mode that wrote the most.
        let v = recovery_gate(&table5_report([84.6e6, 16.3e6, 6.6e6], full));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("table5.rbj.common_ns"), "{v:?}");
        // At full scale a quarter is a quarter: 50 blocks, 12 unread.
        let full = [328.7e6, 322.2e6, 154.7e6];
        assert!(recovery_gate(&table5_report([26.5e6, 52.1e6, 31.8e6], full)).is_empty());
        let v = recovery_gate(&table5_report([26.5e6, 110e6, 31.8e6], full));
        assert_eq!(v.len(), 1, "{v:?}");
        // Dropping the lane's metrics must not silently pass.
        let v = recovery_gate(&report_with(&[("table5.rbj.common_ns", 1.0)]));
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|m| m.contains("missing")));
    }

    /// Translation-page programs per host write (greedy, cost-benefit)
    /// when an eviction writes its victim and nothing else.
    const LEAN: [f64; 2] = [0.46, 0.48];

    fn steady_report(
        hit: f64,
        cb_wa: f64,
        greedy_wa: f64,
        resident: f64,
        map_programs: [f64; 2],
    ) -> BenchReport {
        report_with(&[
            ("steady.cb.map_cache_hit_rate", hit),
            ("steady.cb.wa", cb_wa),
            ("steady.greedy.wa", greedy_wa),
            ("steady.cb.cache_budget_slabs", 100.0),
            ("steady.cb.cache_resident_max", resident),
            ("steady.greedy.translation_overhead", map_programs[0]),
            ("steady.cb.translation_overhead", map_programs[1]),
        ])
    }

    #[test]
    fn steady_gate_demands_hit_rate_and_wa_win() {
        // The healthy shape: hot cache, cost-benefit beats greedy,
        // residency under budget.
        assert!(steady_gate(&steady_report(0.87, 2.8, 3.4, 100.0, LEAN)).is_empty());
        // Thrashing cache: hit rate at or under the 80% floor fails.
        let report = steady_report(0.80, 2.8, 3.4, 100.0, LEAN);
        assert_eq!(steady_gate(&report).len(), 1);
        // Victim-selection win lost: cost-benefit WA >= greedy WA.
        let report = steady_report(0.87, 3.4, 3.4, 100.0, LEAN);
        assert_eq!(steady_gate(&report).len(), 1);
        // Budget overrun: resident high-water mark above the budget.
        let report = steady_report(0.87, 2.8, 3.4, 101.0, LEAN);
        assert_eq!(steady_gate(&report).len(), 1);
        // Riders are back: an eviction programs more than its victim,
        // under either policy.
        for (riders, caught) in [([0.70, 0.48], 1), ([0.46, 0.6], 1), ([0.87, 0.79], 2)] {
            let report = steady_report(0.87, 2.8, 3.4, 100.0, riders);
            assert_eq!(steady_gate(&report).len(), caught, "{riders:?}");
        }
    }

    #[test]
    fn steady_gate_fails_when_metrics_are_missing() {
        // Dropping the steady metrics entirely must not silently pass.
        let v = steady_gate(&report_with(&[("steady.logical_pages", 1000.0)]));
        assert_eq!(v.len(), 7, "{v:?}");
        assert!(v.iter().all(|m| m.contains("missing")));
    }

    fn endurance_cell(
        sev: &str,
        readable: f64,
        intact: f64,
        unc: f64,
        deg: f64,
    ) -> Vec<(String, f64)> {
        vec![
            (format!("endurance.{sev}.xftl.readable_fraction"), readable),
            (format!("endurance.{sev}.xftl.intact_fraction"), intact),
            (format!("endurance.{sev}.xftl.aging_uncorrectable"), unc),
            (format!("endurance.{sev}.xftl.degraded"), deg),
        ]
    }

    fn endurance_report(cells: Vec<Vec<(String, f64)>>) -> BenchReport {
        let mut r = BenchReport::new("endurance");
        r.meta("scale", "smoke");
        for (n, v) in cells.into_iter().flatten() {
            r.metric(&n, v);
        }
        r
    }

    #[test]
    fn endurance_gate_passes_a_clean_sweep() {
        let r = endurance_report(vec![
            endurance_cell("s0_worn", 1.0, 1.0, 0.0, 0.0),
            endurance_cell("s1_failing", 1.0, 1.0, 0.0, 1.0),
            endurance_cell("s2_dying", 1.0, 1.0, 0.0, 1.0),
        ]);
        assert!(endurance_gate(&r).is_empty());
    }

    #[test]
    fn endurance_gate_flags_readability_and_intactness_loss() {
        let r = endurance_report(vec![
            endurance_cell("s0_worn", 1.0, 1.0, 0.0, 0.0),
            endurance_cell("s1_failing", 0.97, 0.92, 0.0, 1.0),
        ]);
        let v = endurance_gate(&r);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("readable fraction 0.9700"), "{v:?}");
        assert!(v[1].contains("intact fraction 0.9200"), "{v:?}");
    }

    #[test]
    fn endurance_gate_flags_scrubber_misses() {
        let r = endurance_report(vec![endurance_cell("s0_worn", 1.0, 1.0, 3.0, 1.0)]);
        let v = endurance_gate(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("uncorrectable"), "{v:?}");
    }

    #[test]
    fn endurance_gate_demands_monotone_degraded_entry() {
        // The middle severity degrades, the harshest does not: the health
        // state machine is keyed to the wrong signal.
        let r = endurance_report(vec![
            endurance_cell("s0_worn", 1.0, 1.0, 0.0, 0.0),
            endurance_cell("s1_failing", 1.0, 1.0, 0.0, 1.0),
            endurance_cell("s2_dying", 1.0, 1.0, 0.0, 0.0),
        ]);
        let v = endurance_gate(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("not monotone"), "{v:?}");
    }

    #[test]
    fn endurance_gate_fails_when_metrics_are_missing() {
        // A report carrying only the transaction counts must not pass.
        let r = report_with(&[
            ("endurance.s0_worn.xftl.txns", 1500.0),
            ("endurance.s1_failing.xftl.txns", 400.0),
        ]);
        let v = endurance_gate(&r);
        assert_eq!(v.len(), 8, "{v:?}");
        assert!(v.iter().all(|m| m.contains("missing")));
    }

    #[test]
    fn endurance_gate_needs_the_sweep_at_all() {
        let v = endurance_gate(&report_with(&[("endurance.other", 1.0)]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cannot run"));
    }
}
