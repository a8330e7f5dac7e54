//! The serialized bench-report schema (`BENCH_<name>.json`).
//!
//! Every bench experiment writes one [`BenchReport`] next to its text
//! tables. Because the whole stack runs on a simulated clock, two runs
//! of the same binary at the same scale serialize to byte-identical
//! JSON — which is what lets CI `diff` a fresh run against the
//! committed `BENCH_BASELINE.json` byte for byte.

use crate::hist::HistSummary;
use crate::json::JsonValue;

/// Schema version stamped into every report; bump on breaking change.
const SCHEMA_VERSION: u64 = 1;

/// A machine-readable benchmark report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Report name (the bench experiment, e.g. `"all"`).
    pub name: String,
    /// Free-form metadata as ordered key/value pairs (scale, seed, ...).
    pub meta: Vec<(String, String)>,
    /// Named scalar metrics, in emission order.
    pub metrics: Vec<(String, f64)>,
    /// Latency histogram summaries, keyed by op-class name.
    pub hists: Vec<(String, HistSummary)>,
}

impl BenchReport {
    /// An empty report with the given name.
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    /// Appends a metadata pair.
    pub fn meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_owned(), value.to_owned()));
    }

    /// Appends a named scalar metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// Serializes to deterministic pretty JSON (trailing newline).
    pub fn to_json(&self) -> String {
        let meta = self
            .meta
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, s)| (k.clone(), summary_to_json(s)))
            .collect();
        JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Num(SCHEMA_VERSION as f64)),
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("meta".into(), JsonValue::Obj(meta)),
            ("metrics".into(), JsonValue::Obj(metrics)),
            ("hists".into(), JsonValue::Obj(hists)),
        ])
        .to_pretty()
    }
}

const SUMMARY_FIELDS: [&str; 7] = [
    "count", "sum_ns", "min_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns",
];

fn summary_to_json(s: &HistSummary) -> JsonValue {
    let vals = [
        s.count, s.sum_ns, s.min_ns, s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns,
    ];
    JsonValue::Obj(
        SUMMARY_FIELDS
            .iter()
            .zip(vals)
            .map(|(&k, v)| (k.to_owned(), JsonValue::Num(v as f64)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn json_carries_every_section() {
        let mut r = BenchReport::new("all");
        r.meta("scale", "smoke");
        r.metric("syn_update_tps", 1234.5);
        let summary = HistSummary {
            count: 2,
            p95_ns: 61_000,
            ..HistSummary::default()
        };
        r.hists.push(("chip_read".to_owned(), summary));
        let root = parse(&r.to_json()).unwrap();
        assert_eq!(root.get("schema").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(root.get("name").and_then(JsonValue::as_str), Some("all"));
        let scale = root.get("meta").and_then(|m| m.get("scale"));
        assert_eq!(scale.and_then(JsonValue::as_str), Some("smoke"));
        let tps = root.get("metrics").and_then(|m| m.get("syn_update_tps"));
        assert_eq!(tps.and_then(JsonValue::as_f64), Some(1234.5));
        let hist = root.get("hists").and_then(|h| h.get("chip_read")).unwrap();
        assert_eq!(
            hist.get("p95_ns").and_then(JsonValue::as_f64),
            Some(61_000.0)
        );
    }
}
