//! The serialized bench-report schema (`BENCH_<name>.json`).
//!
//! Every bench experiment writes one [`BenchReport`] next to its text
//! tables. Because the whole stack runs on a simulated clock, two runs
//! of the same binary at the same scale serialize to byte-identical
//! JSON — which is what lets `xtask bench-check` diff a fresh run
//! against the committed `BENCH_BASELINE.json` with tight tolerances.

use crate::hist::HistSummary;
use crate::json::{parse, JsonError, JsonValue};
use crate::op::OpClass;
use crate::recorder::Telemetry;

/// Schema version stamped into every report; bump on breaking change.
pub const SCHEMA_VERSION: u64 = 1;

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

    /// Folds a telemetry handle's non-empty histograms into the report.
    pub fn attach_telemetry(&mut self, t: &Telemetry) {
        for (op, summary) in t.summaries() {
            self.hists.push((op.name().to_owned(), summary));
        }
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

    /// Parses a report previously produced by [`BenchReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let root = parse(text)?;
        let bad = |msg: &str| JsonError {
            msg: msg.to_owned(),
            at: 0,
        };
        let schema = root
            .get("schema")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| bad("missing schema"))?;
        if schema as u64 != SCHEMA_VERSION {
            return Err(bad(&format!("unsupported schema version {schema}")));
        }
        let name = root
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing name"))?
            .to_owned();
        let mut report = BenchReport::new(&name);
        for (k, v) in root
            .get("meta")
            .and_then(JsonValue::members)
            .ok_or_else(|| bad("missing meta"))?
        {
            let v = v.as_str().ok_or_else(|| bad("meta value not a string"))?;
            report.meta(k, v);
        }
        for (k, v) in root
            .get("metrics")
            .and_then(JsonValue::members)
            .ok_or_else(|| bad("missing metrics"))?
        {
            let v = v.as_f64().ok_or_else(|| bad("metric not a number"))?;
            report.metric(k, v);
        }
        for (k, v) in root
            .get("hists")
            .and_then(JsonValue::members)
            .ok_or_else(|| bad("missing hists"))?
        {
            report.hists.push((k.clone(), summary_from_json(v)?));
        }
        Ok(report)
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

fn summary_from_json(v: &JsonValue) -> Result<HistSummary, JsonError> {
    let field = |name: &str| {
        v.get(name)
            .and_then(JsonValue::as_f64)
            .map(|f| f as u64)
            .ok_or_else(|| JsonError {
                msg: format!("hist summary missing {name}"),
                at: 0,
            })
    };
    Ok(HistSummary {
        count: field("count")?,
        sum_ns: field("sum_ns")?,
        min_ns: field("min_ns")?,
        p50_ns: field("p50_ns")?,
        p95_ns: field("p95_ns")?,
        p99_ns: field("p99_ns")?,
        max_ns: field("max_ns")?,
    })
}

/// Sanity check used by report consumers: op-class histogram keys in a
/// parsed report must be known class names (typo guard for baselines).
pub fn is_known_op_name(name: &str) -> bool {
    OpClass::ALL.iter().any(|op| op.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpClass;

    fn sample_report() -> BenchReport {
        let t = Telemetry::new();
        t.record(OpClass::ChipRead, 60_000);
        t.record(OpClass::ChipRead, 61_000);
        t.record(OpClass::TxCommit, 2_500_000);
        let mut r = BenchReport::new("all");
        r.meta("scale", "smoke");
        r.meta("seed", "42");
        r.metric("syn_update_tps", 1234.5);
        r.metric("tpcc_commits", 9000.0);
        r.attach_telemetry(&t);
        r
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample_report();
        let text = r.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        // Serialization is stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn hist_keys_are_known_op_names() {
        let r = sample_report();
        assert_eq!(r.hists.len(), 2);
        for (name, _) in &r.hists {
            assert!(is_known_op_name(name), "{name}");
        }
        assert!(!is_known_op_name("made_up_op"));
    }

    #[test]
    fn schema_version_is_enforced() {
        let text = sample_report()
            .to_json()
            .replace(&format!("\"schema\": {SCHEMA_VERSION}"), "\"schema\": 999");
        assert!(BenchReport::from_json(&text).is_err());
    }

    #[test]
    fn missing_sections_are_rejected() {
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }
}
