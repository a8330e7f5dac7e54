//! The shared [`Telemetry`] handle.
//!
//! One `Telemetry` is created per rig/bench run and cloned into every
//! layer; all clones feed the same histogram set (and, once
//! [`Telemetry::start_events`] has armed it, the same event ring). A
//! disabled handle records nothing and costs one branch per call, so
//! production paths can call it unconditionally.

use std::sync::{Arc, Mutex, PoisonError};

use crate::event::{Event, EventRing};
use crate::hist::{Hist, HistSummary};
use crate::op::{OpClass, N_OPS};
use crate::Nanos;

struct Inner {
    hists: [Hist; N_OPS],
    /// Allocated by `start_events`; until then a span is a histogram
    /// bump and this `Option` test.
    ring: Option<EventRing>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            hists: std::array::from_fn(|_| Hist::new()),
            ring: None,
        }
    }
}

/// Cheaply cloneable telemetry handle — the sink for latency samples and
/// (optionally) structured event spans; all clones share one sink.
///
/// `Telemetry::disabled()` (also the `Default`) is a no-op handle, so
/// every layer can hold one unconditionally and the hot path pays a
/// single `Option` check when telemetry is off.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(inner) => {
                let inner = inner.lock().unwrap_or_else(PoisonError::into_inner);
                let total: u64 = inner.hists.iter().map(Hist::count).sum();
                write!(f, "Telemetry(samples: {total})")
            }
        }
    }
}

impl Telemetry {
    /// An active handle with empty histograms.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner::new()))),
        }
    }

    /// A no-op handle; every record call is a cheap branch.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Records a latency sample of `dur` simulated nanoseconds for `op`.
    pub fn record(&self, op: OpClass, dur: Nanos) {
        self.with_inner(|i| i.hists[op.idx()].record(dur));
    }

    /// Records a full span: feeds the histogram with `t_end - t_start`
    /// and, when this handle is capturing events, appends a typed event.
    pub fn record_span(&self, op: OpClass, tid: u64, lpn: u64, t_start: Nanos, t_end: Nanos) {
        self.with_inner(|i| {
            i.hists[op.idx()].record(t_end.saturating_sub(t_start));
            if let Some(ring) = &mut i.ring {
                ring.push(Event {
                    layer: op.layer(),
                    op,
                    tid,
                    lpn,
                    t_start,
                    t_end,
                });
            }
        });
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| {
            let mut guard = inner.lock().unwrap_or_else(PoisonError::into_inner);
            f(&mut guard)
        })
    }

    /// A snapshot of one class's histogram.
    pub fn hist(&self, op: OpClass) -> Hist {
        self.with_inner(|i| i.hists[op.idx()].clone())
            .unwrap_or_default()
    }

    /// Summaries of every non-empty class, in [`OpClass::ALL`] order.
    pub fn summaries(&self) -> Vec<(OpClass, HistSummary)> {
        self.with_inner(|i| {
            OpClass::ALL
                .iter()
                .filter(|op| !i.hists[op.idx()].is_empty())
                .map(|&op| (op, i.hists[op.idx()].summary()))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Total samples across all classes.
    pub fn total_samples(&self) -> u64 {
        self.with_inner(|i| i.hists.iter().map(Hist::count).sum())
            .unwrap_or(0)
    }

    /// Resets all histograms to empty and stops capturing events.
    pub fn reset(&self) {
        self.with_inner(|i| {
            *i = Inner::new();
        });
    }

    /// Drops whatever events were captured and captures every span from
    /// here on into a fresh bounded ring, shared by all clones. The
    /// histograms are untouched.
    pub fn start_events(&self) {
        self.with_inner(|i| i.ring = Some(EventRing::default()));
    }

    /// The captured events as JSONL, oldest span first; empty unless
    /// [`start_events`](Self::start_events) armed an enabled handle.
    pub fn events_jsonl(&self) -> String {
        self.with_inner(|i| i.ring.as_ref().map(EventRing::to_jsonl))
            .flatten()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::new();
        let u = t.clone();
        t.record(OpClass::ChipRead, 50_000);
        u.record(OpClass::ChipRead, 70_000);
        assert_eq!(t.hist(OpClass::ChipRead).count(), 2);
        assert_eq!(t.total_samples(), 2);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.start_events();
        t.record(OpClass::TxCommit, 1);
        t.record_span(OpClass::TxCommit, 1, 2, 0, 10);
        assert_eq!(t.total_samples(), 0);
        assert_eq!(t.events_jsonl(), "");
        assert!(t.summaries().is_empty());
    }

    #[test]
    fn spans_feed_histograms() {
        let t = Telemetry::new();
        t.record_span(OpClass::TxCommit, 7, 42, 1_000, 4_000);
        let h = t.hist(OpClass::TxCommit);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 3_000);
        let sums = t.summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].0, OpClass::TxCommit);
    }

    #[test]
    fn spans_are_stored_as_events_once_armed() {
        let t = Telemetry::new();
        t.record_span(OpClass::ChipRead, 0, 1, 0, 500);
        assert_eq!(t.events_jsonl(), "", "nothing is captured until armed");
        t.start_events();
        t.clone()
            .record_span(OpClass::TxCommit, 7, 42, 1_000, 4_000);
        assert_eq!(
            t.events_jsonl(),
            "{\"layer\":\"ftl\",\"op\":\"tx_commit\",\"tid\":7,\"lpn\":42,\
             \"t_start\":1000,\"t_end\":4000}\n"
        );
        // Re-arming drops what was captured; the histograms keep it.
        t.start_events();
        assert_eq!(t.events_jsonl(), "");
        assert_eq!(t.hist(OpClass::TxCommit).count(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let t = Telemetry::new();
        t.record(OpClass::FsFsync, 9);
        t.reset();
        assert_eq!(t.total_samples(), 0);
    }
}
