//! Commit-pipeline overlap proof: the split-phase device API must let
//! transaction N+1's data writes land while transaction N's commit is
//! still in flight, and the group flush must retire both commits with
//! one coalesced meta program.
//!
//! The proof is read straight off the structured event stream: tx 1's
//! in-flight window runs from its `commit_pipeline_depth` sample (the
//! `commit_submit` instant) to the end of its `tx_commit` span (the
//! group flush). Every tx-2 `ftl_host_write` span must fall inside that
//! window, and the two `tx_commit` spans must be the same flush.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use xftl_core::XFtl;
use xftl_flash::{FlashChip, FlashConfig, SimClock};
use xftl_ftl::{BlockDevice, TxBlockDevice};
use xftl_trace::{parse_json, JsonValue, Telemetry};

/// One parsed event, reduced to the fields the assertions need.
struct Ev {
    op: String,
    tid: u64,
    lpn: u64,
    t_start: u64,
    t_end: u64,
}

fn parse_events(telemetry: &Telemetry) -> Vec<Ev> {
    let field = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap() as u64;
    telemetry
        .events_jsonl()
        .lines()
        .map(|line| {
            let v = parse_json(line).expect("event line parses");
            Ev {
                op: v.get("op").and_then(JsonValue::as_str).unwrap().to_string(),
                tid: field(&v, "tid"),
                lpn: field(&v, "lpn"),
                t_start: field(&v, "t_start"),
                t_end: field(&v, "t_end"),
            }
        })
        .collect()
}

#[test]
fn next_tx_writes_overlap_in_flight_commit() {
    let telemetry = Telemetry::new();
    let clock = SimClock::new();
    let mut chip = FlashChip::new(FlashConfig::tiny(64), clock);
    chip.set_recorder(telemetry.clone());
    let mut dev = XFtl::format_with_capacity(chip, 64, 64).unwrap();
    let ps = dev.page_size();

    // tx 1 writes, then submits its commit — visible, not yet durable.
    for lpn in 0..4u64 {
        dev.write_tx(1, lpn, &vec![0x11; ps]).unwrap();
    }
    telemetry.start_events();
    let t1 = dev.commit_submit(1).unwrap();
    assert!(!t1.is_immediate(), "a real commit must stage");

    // tx 2's data writes go down while tx 1's commit is in flight.
    for lpn in 4..8u64 {
        dev.write_tx(2, lpn, &vec![0x22; ps]).unwrap();
    }
    let t2 = dev.commit_submit(2).unwrap();

    // Waiting on the newest ticket flushes the whole group; tx 1's older
    // ticket is already durable and its wait is a no-op.
    dev.commit_wait(t2).unwrap();
    dev.commit_wait(t1).unwrap();

    let events = parse_events(&telemetry);
    let submit1 = events
        .iter()
        .find(|e| e.op == "commit_pipeline_depth" && e.tid == 1)
        .expect("tx 1 submit sample");
    let commit1 = events
        .iter()
        .find(|e| e.op == "tx_commit" && e.tid == 1)
        .expect("tx 1 commit span");
    let commit2 = events
        .iter()
        .find(|e| e.op == "tx_commit" && e.tid == 2)
        .expect("tx 2 commit span");

    // tx 1's commit is in flight from submit until the group flush ends,
    // and the flush itself takes nonzero simulated time.
    assert!(submit1.t_start < commit1.t_end, "in-flight window is empty");
    assert!(commit1.t_start < commit1.t_end, "flush span is empty");

    // Every tx-2 data write must land inside tx 1's in-flight window —
    // after tx 1 submitted, before tx 1's commit became durable.
    let tx2_writes: Vec<&Ev> = events
        .iter()
        .filter(|e| e.op == "ftl_host_write" && e.tid == 2)
        .collect();
    assert_eq!(tx2_writes.len(), 4, "all four tx-2 writes traced");
    for w in &tx2_writes {
        assert!(
            w.t_start >= submit1.t_start && w.t_end <= commit1.t_end,
            "tx 2 write of lpn {} ({}..{}) outside tx 1's in-flight \
             commit ({}..{})",
            w.lpn,
            w.t_start,
            w.t_end,
            submit1.t_start,
            commit1.t_end,
        );
        // ...and strictly before the durability point starts: the write
        // overlapped the *pending* commit, it was not serialized after it.
        assert!(
            w.t_end <= commit1.t_start,
            "tx 2 write of lpn {} overlaps the flush itself",
            w.lpn
        );
    }

    // Both commits retired in the same group flush: identical spans, one
    // coalesce event counting two staged commits.
    assert_eq!(
        (commit1.t_start, commit1.t_end),
        (commit2.t_start, commit2.t_end),
        "tx 1 and tx 2 must share one group flush"
    );
    let coalesce = events
        .iter()
        .find(|e| e.op == "group_commit_coalesce")
        .expect("coalesce span");
    assert_eq!(coalesce.lpn, 2, "flush should coalesce both commits");

    // The pipeline-depth samples count the staged commits at each submit.
    let depth2 = events
        .iter()
        .find(|e| e.op == "commit_pipeline_depth" && e.tid == 2)
        .expect("tx 2 submit sample");
    assert_eq!(submit1.lpn, 1, "depth after first submit");
    assert_eq!(depth2.lpn, 2, "depth after second submit");
}
