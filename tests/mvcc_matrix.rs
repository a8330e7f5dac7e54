//! Deterministic MVCC concurrency matrix: writer interleavings crossed
//! with conflict kinds, at every layer of the stack.
//!
//! The device cells are schedules of N snapshot transactions (`begin` →
//! interleaved `write_tx` → ordered commits), with plain writes and
//! aborts, run through the shared runner behind the shadow oracle. The
//! oracle predicts every verdict exactly — a writer loses if and only if
//! some page it wrote changed after its snapshot began — and every
//! snapshot read; the runner holds the device's conflict count to the
//! refusals it saw. The file-system cells run the same shapes through
//! [`Rig::run_concurrent_writers`]; the SQL cells through two
//! `Connection`s and `BEGIN CONCURRENT`.
//!
//! All randomness in the soak flows from the single [`MVCC_SEED`], so
//! every run replays identical schedules.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_core::XFtl;
use xftl_db::DbError;
use xftl_flash::{FlashChip, FlashConfig, SimClock};
use xftl_ftl::{Lpn, Tid};
use xftl_workloads::{concurrent_fill, CommitWait, ConcurrentPlan, Mode, Rig, RigConfig};

mod common;
use common::{DevOp, Exercised, Page::Fill};
use xftl_verify::ShadowDevice;

const BLOCKS: usize = 24;
const LOGICAL: u64 = 48;

/// Seed for the randomized soak.
const MVCC_SEED: u64 = 0x4D5F_CC13;

type Dev = ShadowDevice<XFtl>;

fn dev() -> Dev {
    let clock = SimClock::new();
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), clock);
    ShadowDevice::new(XFtl::format(chip, LOGICAL).unwrap())
}

// --- device cells: interleaving × conflict kind -------------------------

/// One round of snapshot writers `first_tid..`, writer `w` writing
/// `writers[w]`'s (page, fill) pairs: all begin, their writes interleave
/// (step by step across the writers, or each writer's in turn), and they
/// commit in `order`.
fn round(first_tid: Tid, writers: &[&[(Lpn, u8)]], mixed: bool, order: &[usize]) -> Vec<DevOp> {
    let tids = first_tid..first_tid + writers.len() as u64;
    let mut ops: Vec<DevOp> = tids.clone().map(|tid| DevOp::Begin { tid }).collect();
    let mut writes: Vec<(usize, Tid, Lpn, u8)> = (tids.zip(writers))
        .flat_map(|(tid, w)| {
            w.iter()
                .enumerate()
                .map(move |(k, &(lpn, b))| (k, tid, lpn, b))
        })
        .collect();
    if mixed {
        writes.sort_by_key(|&(k, tid, ..)| (k, tid));
    }
    ops.extend(
        (writes.into_iter()).map(|(_, tid, lpn, byte)| DevOp::Write {
            tid,
            lpn,
            page: Fill(byte),
        }),
    );
    ops.extend(order.iter().map(|&w| DevOp::Commit {
        tid: first_tid + w as u64,
    }));
    ops
}

/// `ops` on a fresh device through the shared runner, which reads every
/// page plainly and through every open transaction after every op — the
/// oracle predicts each verdict and each read exactly. Returns the
/// device and what the schedule reached; every snapshot it opened was
/// released.
fn run(what: &str, ops: &[DevOp]) -> (Dev, Exercised) {
    let mut seen = Exercised::default();
    let d = common::run_schedule(what, dev(), ops, common::recover, false, &mut seen);
    assert_eq!(
        d.inner().active_snapshots(),
        0,
        "{what}: snapshots must release"
    );
    (d, seen)
}

#[test]
fn device_disjoint_writers_all_commit() {
    for mixed in [true, false] {
        for order in [[0usize, 1, 2], [2, 1, 0]] {
            let writers: [&[(Lpn, u8)]; 3] = [
                &[(0, 11), (1, 12)],
                &[(2, 21), (3, 22)],
                &[(4, 31), (5, 32)],
            ];
            let what = format!("mixed {mixed}, order {order:?}");
            let (_, seen) = run(&what, &round(1, &writers, mixed, &order));
            assert_eq!(seen.conflicts, 0, "{what}: disjoint writers must all win");
        }
    }
}

#[test]
fn device_overlapping_writers_lose_exactly_one() {
    for mixed in [true, false] {
        for order in [[0usize, 1, 2], [1, 0, 2], [2, 1, 0]] {
            // Writers 0 and 1 share page 5; writer 2 is disjoint.
            let writers: [&[(Lpn, u8)]; 3] = [&[(0, 11), (5, 12)], &[(5, 21), (3, 22)], &[(7, 31)]];
            let what = format!("mixed {mixed}, order {order:?}");
            let (d, seen) = run(&what, &round(1, &writers, mixed, &order));
            assert_eq!(
                seen.conflicts, 1,
                "{what}: one of the overlapping pair loses"
            );
            let intents = d.inner().xl2p().intent_pages();
            assert_eq!(intents, 0, "{what}: the loser's write intents must release");
        }
    }
}

#[test]
fn device_read_only_snapshot_ignores_concurrent_commits() {
    // Tid 1 reads through its snapshot while a folded commit (5) and a
    // staged one (6), then its group flush, move the live image; its
    // read-only commit succeeds and releases the snapshot.
    #[rustfmt::skip]
    let ops = [
        DevOp::PlainWrite { lpn: 2, page: Fill(0xAA) }, DevOp::Begin { tid: 1 },
        DevOp::Write { tid: 5, lpn: 2, page: Fill(0xBB) }, DevOp::Commit { tid: 5 },
        DevOp::Write { tid: 6, lpn: 3, page: Fill(0xCC) }, DevOp::CommitSubmit { tid: 6 },
        DevOp::CommitWait, DevOp::Commit { tid: 1 },
    ];
    assert_eq!(run("read-only snapshot", &ops).1.conflicts, 0);
}

#[test]
fn device_abort_releases_intents_for_the_survivor() {
    // The aborter never committed, so its writes must not count against
    // the survivor's first-committer-wins check.
    #[rustfmt::skip]
    let ops = [
        DevOp::Begin { tid: 1 }, DevOp::Begin { tid: 2 },
        DevOp::Write { tid: 1, lpn: 4, page: Fill(0x11) },
        DevOp::Write { tid: 2, lpn: 4, page: Fill(0x22) },
        DevOp::Abort { tid: 1 }, DevOp::Commit { tid: 2 },
    ];
    let (d, seen) = run("abort, then the survivor", &ops);
    assert_eq!(seen.conflicts, 0);
    assert_eq!(d.inner().xl2p().intent_pages(), 0);
}

#[test]
fn device_plain_overwrite_conflicts_snapshot_writer() {
    // Non-transactional traffic bumps the page's version while the
    // snapshot is open: the snapshot writer is now stale and must lose;
    // a retry on a fresh snapshot wins.
    #[rustfmt::skip]
    let ops = [
        DevOp::Begin { tid: 1 }, DevOp::Write { tid: 1, lpn: 3, page: Fill(0x11) },
        DevOp::PlainWrite { lpn: 3, page: Fill(0x99) }, DevOp::Commit { tid: 1 },
        DevOp::Begin { tid: 1 }, DevOp::Write { tid: 1, lpn: 3, page: Fill(0x11) },
        DevOp::Commit { tid: 1 },
    ];
    assert_eq!(run("plain overwrite", &ops).1.conflicts, 1);
}

// --- the seeded soak ----------------------------------------------------

/// Thirty rounds of two to four snapshot writers on twelve pages, random
/// writes, interleaving and commit order, with plain writes between
/// rounds, then a flush and a power cut: every verdict and read is the
/// oracle's to predict, committed versions survive, open snapshots die,
/// and no retained pre-image outlives recovery.
#[test]
fn mvcc_soak_random_schedules() {
    let mut rng = StdRng::seed_from_u64(MVCC_SEED);
    let mut ops = Vec::new();
    for r in 0..30u64 {
        let n_writers = rng.gen_range(2..=4);
        let writers: Vec<Vec<(Lpn, u8)>> = (0..n_writers)
            .map(|_| {
                let n_pages = rng.gen_range(1..=3);
                (0..n_pages)
                    .map(|_| (rng.gen_range(0..12u64), rng.gen_range(1..=250u8)))
                    .collect()
            })
            .collect();
        let mut order: Vec<usize> = (0..n_writers).collect();
        // A deterministic shuffle from the same seed stream.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let writers: Vec<&[(Lpn, u8)]> = writers.iter().map(Vec::as_slice).collect();
        ops.extend(round(r * 8 + 1, &writers, rng.gen_bool(0.5), &order));
        // Occasional plain traffic between rounds (no snapshots open).
        if rng.gen_bool(0.3) {
            let lpn = rng.gen_range(0..12u64);
            let page = Fill(rng.gen_range(1..=250u8));
            ops.push(DevOp::PlainWrite { lpn, page });
        }
    }
    ops.extend([DevOp::Flush, DevOp::Crash]);
    let (d, seen) = run("soak", &ops);
    assert!(
        seen.conflicts > 0,
        "the soak never produced a conflict — overlap probability too low to test anything"
    );
    // MVCC state is RAM-only.
    assert_eq!(d.inner().xl2p().intent_pages(), 0);
}

// --- file-system cells (Rig harness) ------------------------------------

fn fs_rig() -> Rig {
    Rig::build(RigConfig::small(Mode::XFtl))
}

#[test]
fn fs_disjoint_writers_all_commit() {
    let rig = fs_rig();
    let ino = rig.prepare_concurrent_file("conc.dat", 16);
    let plan = ConcurrentPlan {
        writers: vec![vec![0, 1], vec![2, 3], vec![4, 5]],
        tag: 7,
    };
    let out = rig.run_concurrent_writers(ino, &plan, CommitWait::EachSubmit);
    assert_eq!(
        out.committed,
        vec![0, 1, 2],
        "disjoint writers must all win"
    );
    assert!(out.conflicted.is_empty());
    let mut fs = rig.fs.borrow_mut();
    let ps = fs.page_size();
    let mut buf = vec![0u8; ps];
    for (w, pages) in plan.writers.iter().enumerate() {
        for &page in pages {
            fs.read(ino, page * ps as u64, &mut buf, None).unwrap();
            assert_eq!(
                buf,
                concurrent_fill(ps, plan.tag, w, page),
                "writer {w} page {page} lost its committed image"
            );
        }
    }
    assert!(fs.check_consistency().unwrap().is_clean());
}

#[test]
fn fs_overlapping_writers_lose_exactly_one() {
    let rig = fs_rig();
    let ino = rig.prepare_concurrent_file("conc.dat", 16);
    let plan = ConcurrentPlan {
        writers: vec![vec![0, 1], vec![1, 2]],
        tag: 9,
    };
    let out = rig.run_concurrent_writers(ino, &plan, CommitWait::EachSubmit);
    assert_eq!(out.committed, vec![0], "the first committer wins page 1");
    assert_eq!(out.conflicted, vec![1], "the overlapping writer loses");
    let mut fs = rig.fs.borrow_mut();
    let ps = fs.page_size();
    let mut buf = vec![0u8; ps];
    fs.read(ino, ps as u64, &mut buf, None).unwrap();
    assert_eq!(buf, concurrent_fill(ps, plan.tag, 0, 1));
    // The loser's page 2 keeps its pre-round zeros.
    fs.read(ino, 2 * ps as u64, &mut buf, None).unwrap();
    assert!(buf.iter().all(|&b| b == 0), "the loser's write leaked");
    drop(fs);
    // The loser retries alone on a fresh snapshot and wins.
    let retry = rig.run_concurrent_writers(
        ino,
        &ConcurrentPlan {
            writers: vec![vec![1, 2]],
            tag: 10,
        },
        CommitWait::EachSubmit,
    );
    assert_eq!(retry.committed, vec![0]);
    let mut fs = rig.fs.borrow_mut();
    fs.read(ino, 2 * ps as u64, &mut buf, None).unwrap();
    assert_eq!(buf, concurrent_fill(ps, 10, 0, 2));
    assert!(fs.check_consistency().unwrap().is_clean());
}

// --- SQL cells: BEGIN CONCURRENT over shared storage --------------------

#[test]
fn sql_disjoint_concurrent_transactions_both_commit() {
    let rig = fs_rig();
    let mut a = rig.open_db("app.db");
    let mut b = rig.open_db("app.db");
    a.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    a.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, w INT)")
        .unwrap();
    a.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    a.execute("INSERT INTO u VALUES (1, 100), (2, 200)")
        .unwrap();

    // Updates to different tables dirty different pages: both snapshots
    // commit.
    a.execute("BEGIN CONCURRENT").unwrap();
    b.execute("BEGIN CONCURRENT").unwrap();
    a.execute("UPDATE t SET v = 11 WHERE id = 1").unwrap();
    b.execute("UPDATE u SET w = 101 WHERE id = 1").unwrap();
    a.execute("COMMIT").unwrap();
    b.execute("COMMIT").unwrap();

    assert_eq!(
        a.query("SELECT v FROM t WHERE id = 1").unwrap(),
        vec![vec![xftl_db::Value::Int(11)]]
    );
    assert_eq!(
        a.query("SELECT w FROM u WHERE id = 1").unwrap(),
        vec![vec![xftl_db::Value::Int(101)]]
    );
}

#[test]
fn sql_overlapping_concurrent_transactions_one_conflicts() {
    let rig = fs_rig();
    let mut a = rig.open_db("app.db");
    let mut b = rig.open_db("app.db");
    a.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    a.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();

    // Both rows live in the same leaf page: the second committer loses.
    a.execute("BEGIN CONCURRENT").unwrap();
    b.execute("BEGIN CONCURRENT").unwrap();
    a.execute("UPDATE t SET v = 11 WHERE id = 1").unwrap();
    b.execute("UPDATE t SET v = 21 WHERE id = 2").unwrap();
    a.execute("COMMIT").unwrap();
    assert_eq!(b.execute("COMMIT"), Err(DbError::Conflict));

    // The loser was rolled back in full; a retry on a fresh snapshot
    // lands both updates.
    assert_eq!(
        b.query("SELECT v FROM t ORDER BY id").unwrap(),
        vec![vec![xftl_db::Value::Int(11)], vec![xftl_db::Value::Int(20)]]
    );
    b.execute("BEGIN CONCURRENT").unwrap();
    b.execute("UPDATE t SET v = 21 WHERE id = 2").unwrap();
    b.execute("COMMIT").unwrap();
    assert_eq!(
        a.query("SELECT v FROM t ORDER BY id").unwrap(),
        vec![vec![xftl_db::Value::Int(11)], vec![xftl_db::Value::Int(21)]]
    );
}

#[test]
fn sql_snapshot_select_ignores_concurrent_commit() {
    let rig = fs_rig();
    let mut a = rig.open_db("app.db");
    let mut b = rig.open_db("app.db");
    a.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    a.execute("INSERT INTO t VALUES (1, 10)").unwrap();

    b.execute("BEGIN CONCURRENT").unwrap();
    assert_eq!(
        b.query("SELECT v FROM t WHERE id = 1").unwrap(),
        vec![vec![xftl_db::Value::Int(10)]]
    );
    // An autocommit writer moves the live image mid-snapshot.
    a.execute("UPDATE t SET v = 99 WHERE id = 1").unwrap();
    assert_eq!(
        b.query("SELECT v FROM t WHERE id = 1").unwrap(),
        vec![vec![xftl_db::Value::Int(10)]],
        "snapshot SELECT leaked a concurrent commit"
    );
    // Read-only: commits clean (releases the snapshot), then sees the
    // new state outside the transaction.
    b.execute("COMMIT").unwrap();
    assert_eq!(
        b.query("SELECT v FROM t WHERE id = 1").unwrap(),
        vec![vec![xftl_db::Value::Int(99)]]
    );
}
