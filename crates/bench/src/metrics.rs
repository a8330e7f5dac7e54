//! Global named-metric sink feeding `BENCH_<name>.json` emission.
//!
//! Experiment functions return human-readable text tables; the
//! machine-readable numbers behind the tables are pushed here as they
//! are measured. `bench` resets the sink, runs an experiment (or, for
//! `all`, its members), then drains the sink into a [`BenchReport`]
//! written next to the text output. Writes are last-write-wins per
//! name, so an experiment that re-runs a cell (Table 1 reuses Figure 5's
//! runner) keeps exactly one deterministic value per key.

use std::sync::{Mutex, PoisonError};

use xftl_trace::{BenchReport, HistSummary, Telemetry};

#[derive(Default)]
struct Sink {
    metrics: Vec<(String, f64)>,
    hists: Vec<(String, HistSummary)>,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    metrics: Vec::new(),
    hists: Vec::new(),
});

// A panicking experiment thread (e.g. a harness bug caught by a test's
// `should_panic`) must not wedge the sink for the rest of the run.
fn with_sink<R>(f: impl FnOnce(&mut Sink) -> R) -> R {
    f(&mut SINK.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Stable lowercase key for a rig mode, for use in metric names.
pub fn mode_key(mode: xftl_workloads::rig::Mode) -> &'static str {
    match mode {
        xftl_workloads::rig::Mode::Rbj => "rbj",
        xftl_workloads::rig::Mode::Wal => "wal",
        xftl_workloads::rig::Mode::XFtl => "xftl",
    }
}

/// Records a named scalar metric (last write wins).
pub fn metric(name: impl Into<String>, value: f64) {
    let name = name.into();
    with_sink(|s| {
        if let Some(slot) = s.metrics.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            s.metrics.push((name, value));
        }
    });
}

/// Folds a telemetry handle's non-empty per-op histograms into the sink
/// under `"<prefix>.<op_name>"` keys (last write wins per key).
pub fn hists(prefix: &str, telemetry: &Telemetry) {
    let summaries = telemetry.summaries();
    with_sink(|s| {
        for (op, summary) in summaries {
            let name = format!("{prefix}.{}", op.name());
            if let Some(slot) = s.hists.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = summary;
            } else {
                s.hists.push((name, summary));
            }
        }
    });
}

/// Clears the sink (`bench` calls this before each report's first
/// experiment, so nothing recorded earlier in the process leaks in).
pub fn reset() {
    with_sink(|s| {
        s.metrics.clear();
        s.hists.clear();
    });
}

/// Moves everything recorded so far into `report`, emptying the sink.
pub fn drain_into(report: &mut BenchReport) {
    with_sink(|s| {
        for (name, v) in s.metrics.drain(..) {
            report.metric(&name, v);
        }
        report.hists.append(&mut s.hists);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_trace::OpClass;

    // The sink is process-global; exercise it in one test so parallel
    // test threads can't interleave resets.
    #[test]
    fn sink_records_replaces_and_drains() {
        reset();
        metric("a", 1.0);
        metric("b", 2.0);
        metric("a", 3.0); // last write wins
        let t = Telemetry::new();
        t.record(OpClass::ChipRead, 60_000);
        hists("syn.xftl", &t);
        t.record(OpClass::ChipRead, 70_000);
        hists("syn.xftl", &t); // replaces, not duplicates

        let mut r = BenchReport::new("test");
        drain_into(&mut r);
        assert_eq!(r.metrics, vec![("a".into(), 3.0), ("b".into(), 2.0)]);
        assert_eq!(r.hists.len(), 1);
        assert_eq!(r.hists[0].0, "syn.xftl.chip_read");
        assert_eq!(r.hists[0].1.count, 2);

        // Drained: a second drain yields nothing.
        let mut r2 = BenchReport::new("test2");
        drain_into(&mut r2);
        assert!(r2.metrics.is_empty() && r2.hists.is_empty());
    }
}
