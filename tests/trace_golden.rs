//! Golden event-stream test: a fixed 3-transaction workload on the full
//! X-FTL stack must serialize the exact JSONL event stream committed in
//! `tests/golden/trace_3tx.jsonl`.
//!
//! Everything below the SQL layer runs on the simulated clock, so the
//! stream is byte-for-byte reproducible; any unintended change to
//! latency charging, command scheduling, or the pager's I/O pattern
//! shows up as a diff against the golden file. To bless an intended
//! change:
//!
//! ```text
//! XFTL_BLESS_GOLDEN=1 cargo test --test trace_golden
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use std::path::Path;

use xftl_workloads::rig::{Mode, Rig, RigConfig};

const GOLDEN: &str = "tests/golden/trace_3tx.jsonl";

/// The known workload: three explicit single-INSERT transactions on a
/// freshly formatted X-FTL rig.
fn run_workload() -> String {
    let rig = Rig::build(RigConfig {
        blocks: 64,
        logical_pages: 4_000,
        ..RigConfig::small(Mode::XFtl)
    });
    let mut db = rig.open_db("golden.db");
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .expect("ddl");
    let telemetry = rig.telemetry();
    // Only the three transactions belong in the golden stream: capture
    // starts after the format/mkfs/DDL prelude.
    telemetry.start_events();
    for i in 0..3i64 {
        db.execute("BEGIN").expect("begin");
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10))
            .expect("insert");
        db.execute("COMMIT").expect("commit");
    }
    drop(db);
    telemetry.events_jsonl()
}

#[test]
fn three_tx_event_stream_matches_golden() {
    let got = run_workload();

    // The stream must exercise all three layers the tentpole names:
    // flash (chip programs), ftl (host writes + commit), db (SQL spans).
    for needle in [
        "\"layer\":\"flash\"",
        "\"layer\":\"ftl\"",
        "\"layer\":\"db\"",
        "\"op\":\"chip_program\"",
        "\"op\":\"tx_commit\"",
        "\"op\":\"sql_statement\"",
    ] {
        assert!(got.contains(needle), "event stream missing {needle}");
    }

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("XFTL_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {GOLDEN}: {e}\n\
             bless it with: XFTL_BLESS_GOLDEN=1 cargo test --test trace_golden"
        )
    });
    if got != want {
        // Precise first-divergence report beats a 2x full-stream dump.
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "event stream diverges from {GOLDEN} at line {} \
             ({} got vs {} golden lines)\n got: {}\nwant: {}\n\
             if the change is intended: XFTL_BLESS_GOLDEN=1 cargo test --test trace_golden",
            line + 1,
            got.lines().count(),
            want.lines().count(),
            got.lines().nth(line).unwrap_or("<eof>"),
            want.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn event_stream_is_deterministic_across_runs() {
    assert_eq!(run_workload(), run_workload());
}
