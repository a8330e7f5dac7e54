//! Table 2 and Figure 7: the Android smartphone traces.

use xftl_workloads::android::{self, TraceSpec, ALL_TRACES};
use xftl_workloads::rig::{Mode, Rig, RigConfig};

use crate::metrics;
use crate::report::{ratio, secs, Table};
use crate::RunScale;

/// Fraction of each published trace's statement counts replayed at a run
/// scale — the `scale` argument of [`table2`] and [`fig7`].
pub fn trace_scale(scale: RunScale) -> f64 {
    match scale {
        RunScale::Full => 1.0,
        RunScale::Quick => 0.05,
        RunScale::Smoke => 0.02,
    }
}

/// Stable lowercase key for a trace name in metric names.
fn trace_key(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Builds a rig sized for a trace replay (fresh drive, ample space — the
/// paper's smartphone runs are not GC-bound).
fn trace_rig(mode: Mode, spec: &TraceSpec, scale: f64) -> Rig {
    // Footprint: row and blob pages from the inserts, plus — crucially —
    // one WAL per database file, each growing to ~1000 frames before its
    // checkpoint (Facebook has 11 files, so WAL space dominates).
    let inserts = (spec.inserts as f64 * scale) as u64;
    let blob_pages = if spec.blob_bytes > 0 { inserts / 2 } else { 0 };
    let wal_pages = 1_100 * spec.db_files as u64;
    let hot = inserts / 8 + blob_pages + wal_pages + 2_000;
    let logical = hot * 2;
    Rig::build(RigConfig {
        mode,
        blocks: ((logical as f64 * 1.8 / 128.0).ceil() as usize).max(48),
        logical_pages: logical,
        ..RigConfig::small(mode)
    })
}

/// Table 2: the synthesized traces' characteristics, alongside our
/// measured updated-pages-per-transaction.
pub fn table2(scale: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Table 2: Android smartphone traces (synthesized; scale {scale}) ===\n\n"
    ));
    let mut t = Table::new(vec!["", "RLBenchmark", "Gmail", "Facebook", "WebBrowser"]);
    type SpecField = fn(&TraceSpec) -> String;
    let rows: Vec<(&str, SpecField)> = vec![
        ("# database files", |s| s.db_files.to_string()),
        ("# tables", |s| s.tables.to_string()),
        ("# queries", |s| s.total_queries().to_string()),
        ("# select", |s| s.selects.to_string()),
        ("# join", |s| s.joins.to_string()),
        ("# insert", |s| s.inserts.to_string()),
        ("# update", |s| s.updates.to_string()),
        ("# delete", |s| s.deletes.to_string()),
        ("# DDL/commands", |s| s.ddl.to_string()),
        ("paper pages/txn", |s| {
            format!("{:.2}", s.paper_pages_per_txn)
        }),
    ];
    for (label, f) in rows {
        t.row(vec![
            label.to_string(),
            f(&ALL_TRACES[0]),
            f(&ALL_TRACES[1]),
            f(&ALL_TRACES[2]),
            f(&ALL_TRACES[3]),
        ]);
    }
    // Measured pages/txn from a WAL-mode replay at the given scale.
    let mut measured = vec!["measured pages/txn".to_string()];
    for spec in &ALL_TRACES {
        let rig = trace_rig(Mode::Wal, spec, scale);
        let ops = android::synthesize(spec, scale, 42);
        let r = android::replay(&rig, spec, &ops);
        metrics::metric(
            format!("table2.{}.pages_per_txn", trace_key(spec.name)),
            r.measured_pages_per_txn,
        );
        measured.push(format!("{:.2}", r.measured_pages_per_txn));
    }
    t.row(measured);
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// Figure 7: elapsed time per trace, WAL vs X-FTL (the paper omits RBJ
/// here for clarity; it behaves as in the synthetic workload).
pub fn fig7(scale: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Figure 7: smartphone workload performance (scale {scale}; simulated seconds) ===\n\n"
    ));
    let mut t = Table::new(vec!["trace", "WAL (s)", "X-FTL (s)", "speedup"]);
    for spec in &ALL_TRACES {
        let mut times = Vec::new();
        for mode in [Mode::Wal, Mode::XFtl] {
            let rig = trace_rig(mode, spec, scale);
            let ops = android::synthesize(spec, scale, 42);
            let r = android::replay(&rig, spec, &ops);
            metrics::metric(
                format!(
                    "fig7.{}.{}.elapsed_ns",
                    trace_key(spec.name),
                    metrics::mode_key(mode)
                ),
                r.elapsed_ns as f64,
            );
            times.push(r.elapsed_ns);
        }
        t.row(vec![
            spec.name.to_string(),
            secs(times[0]),
            secs(times[1]),
            ratio(times[0], times[1]),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}
