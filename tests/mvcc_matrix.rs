//! Deterministic MVCC concurrency matrix: writer interleavings crossed
//! with conflict kinds, at every layer of the stack.
//!
//! The device cells drive N snapshot transactions (`begin` →
//! interleaved `write_tx` → ordered commits) against an exact
//! first-committer-wins prediction: a writer loses if and only if some
//! page it wrote was committed by an earlier writer after its snapshot
//! began. The file-system cells run the same shapes through
//! [`Rig::run_concurrent_writers`]; the SQL cells through two
//! `Connection`s and `BEGIN CONCURRENT`.
//!
//! All randomness in the soak flows from the single [`MVCC_SEED`], so
//! every run replays identical schedules. The device cells run behind the
//! shadow oracle, which independently checks snapshot visibility, lost
//! updates, and spurious conflicts.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_core::XFtl;
use xftl_db::DbError;
use xftl_flash::{FlashChip, FlashConfig, SimClock};
use xftl_ftl::{BlockDevice, DevError, Lpn, Tid, TxBlockDevice};
use xftl_workloads::{concurrent_fill, CommitWait, ConcurrentPlan, Mode, Rig, RigConfig};

mod common;
use common::assert_image;
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

// --- the device-level schedule runner -----------------------------------

/// How the writers' page writes interleave on the device queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Interleave {
    /// Writer 0 step 0, writer 1 step 0, …, writer 0 step 1, … — the
    /// maximally mixed order.
    RoundRobin,
    /// Each writer issues its whole script before the next starts; only
    /// the commits overlap the snapshots.
    Batched,
}

/// One writer's script: its transaction id and the (page, fill) writes.
type Script = (Tid, Vec<(Lpn, u8)>);

/// Runs one round: begins every writer's snapshot, interleaves the
/// writes, then commits in `commit_order`. Each commit outcome is checked
/// against the exact first-committer-wins prediction, and `expect` is
/// advanced to the winners' values. Returns which writers committed.
fn run_schedule(
    dev: &mut Dev,
    interleave: Interleave,
    writers: &[Script],
    commit_order: &[usize],
    expect: &mut [u8],
) -> Vec<bool> {
    for (tid, _) in writers {
        dev.begin(*tid).unwrap();
    }
    match interleave {
        Interleave::RoundRobin => {
            let depth = writers.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
            for step in 0..depth {
                for (tid, script) in writers {
                    if let Some(&(lpn, fill)) = script.get(step) {
                        let ps = dev.page_size();
                        dev.write_tx(*tid, lpn, &vec![fill; ps]).unwrap();
                    }
                }
            }
        }
        Interleave::Batched => {
            for (tid, script) in writers {
                for &(lpn, fill) in script {
                    let ps = dev.page_size();
                    dev.write_tx(*tid, lpn, &vec![fill; ps]).unwrap();
                }
            }
        }
    }
    // First-committer-wins, predicted exactly: every snapshot began
    // before any of this round's commits, so writer w loses iff an
    // earlier committer already took one of w's pages this round.
    let mut taken: HashSet<Lpn> = HashSet::new();
    let mut committed = vec![false; writers.len()];
    for &w in commit_order {
        let (tid, script) = &writers[w];
        let conflicts = script.iter().any(|(lpn, _)| taken.contains(lpn));
        if conflicts {
            assert_eq!(
                dev.commit(*tid),
                Err(DevError::Conflict),
                "writer {w} (tid {tid}) overlapped an earlier committer but was admitted"
            );
        } else {
            dev.commit(*tid)
                .unwrap_or_else(|e| panic!("writer {w} (tid {tid}) spuriously refused: {e:?}"));
            committed[w] = true;
            for &(lpn, fill) in script {
                taken.insert(lpn);
                expect[lpn as usize] = fill;
            }
        }
    }
    committed
}

// --- device cells: interleaving × conflict kind -------------------------

#[test]
fn device_disjoint_writers_all_commit() {
    for interleave in [Interleave::RoundRobin, Interleave::Batched] {
        for commit_order in [[0usize, 1, 2], [2, 1, 0]] {
            let mut d = dev();
            let mut expect = vec![0u8; 16];
            let writers: Vec<Script> = vec![
                (1, vec![(0, 11), (1, 12)]),
                (2, vec![(2, 21), (3, 22)]),
                (3, vec![(4, 31), (5, 32)]),
            ];
            let committed = run_schedule(&mut d, interleave, &writers, &commit_order, &mut expect);
            assert_eq!(committed, vec![true; 3], "disjoint writers must all win");
            assert_eq!(d.inner().base().stats().conflict_aborts, 0);
            assert_eq!(d.inner().active_snapshots(), 0, "snapshots must release");
            assert_image(&mut d, &expect, &format!("{interleave:?}/{commit_order:?}"));
        }
    }
}

#[test]
fn device_overlapping_writers_lose_exactly_one() {
    for interleave in [Interleave::RoundRobin, Interleave::Batched] {
        for commit_order in [[0usize, 1, 2], [1, 0, 2], [2, 1, 0]] {
            let mut d = dev();
            let mut expect = vec![0u8; 16];
            // Writers 0 and 1 share page 5; writer 2 is disjoint.
            let writers: Vec<Script> = vec![
                (1, vec![(0, 11), (5, 12)]),
                (2, vec![(5, 21), (3, 22)]),
                (3, vec![(7, 31)]),
            ];
            let committed = run_schedule(&mut d, interleave, &writers, &commit_order, &mut expect);
            let winners = committed.iter().filter(|&&c| c).count();
            assert_eq!(winners, 2, "exactly one of the overlapping pair loses");
            assert!(committed[2], "the disjoint writer never conflicts");
            assert_eq!(d.inner().base().stats().conflict_aborts, 1);
            assert_eq!(d.inner().active_snapshots(), 0);
            assert_eq!(
                d.inner().xl2p().intent_pages(),
                0,
                "the loser's write intents must release"
            );
            assert_image(&mut d, &expect, &format!("{interleave:?}/{commit_order:?}"));
        }
    }
}

#[test]
fn device_read_only_snapshot_ignores_concurrent_commits() {
    let mut d = dev();
    let ps = d.page_size();
    d.write(2, &vec![0xAA; ps]).unwrap();
    d.begin(1).unwrap();

    // A folded commit after the snapshot: invisible to the reader.
    d.write_tx(5, 2, &vec![0xBB; ps]).unwrap();
    d.commit(5).unwrap();
    let mut buf = vec![0u8; ps];
    d.read(2, &mut buf).unwrap();
    assert_eq!(buf[0], 0xBB, "live image moved");
    d.read_tx(1, 2, &mut buf).unwrap();
    assert_eq!(buf[0], 0xAA, "snapshot leaked a folded commit");

    // A staged (submitted, unflushed) commit: equally invisible.
    d.write_tx(6, 3, &vec![0xCC; ps]).unwrap();
    let ticket = d.commit_submit(6).unwrap();
    d.read_tx(1, 3, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 0),
        "snapshot leaked a staged commit"
    );
    d.commit_wait(ticket).unwrap();
    d.read_tx(1, 3, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 0),
        "snapshot leaked after the group flush"
    );

    // The read-only commit succeeds and releases the snapshot.
    d.commit(1).unwrap();
    assert_eq!(d.inner().active_snapshots(), 0);
    assert_eq!(d.inner().base().stats().conflict_aborts, 0);
}

#[test]
fn device_abort_releases_intents_for_the_survivor() {
    let mut d = dev();
    let ps = d.page_size();
    d.begin(1).unwrap();
    d.begin(2).unwrap();
    d.write_tx(1, 4, &vec![0x11; ps]).unwrap();
    d.write_tx(2, 4, &vec![0x22; ps]).unwrap();
    // The aborter never committed, so its writes must not count against
    // the survivor's first-committer-wins check.
    d.abort(1).unwrap();
    d.commit(2).unwrap();
    assert_eq!(d.inner().base().stats().conflict_aborts, 0);
    assert_eq!(d.inner().active_snapshots(), 0);
    assert_eq!(d.inner().xl2p().intent_pages(), 0);
    let mut buf = vec![0u8; ps];
    d.read(4, &mut buf).unwrap();
    assert_eq!(buf[0], 0x22);
}

#[test]
fn device_plain_overwrite_conflicts_snapshot_writer() {
    let mut d = dev();
    let ps = d.page_size();
    d.begin(1).unwrap();
    d.write_tx(1, 3, &vec![0x11; ps]).unwrap();
    // Non-transactional traffic bumps the page's version while the
    // snapshot is open: the snapshot writer is now stale and must lose.
    d.write(3, &vec![0x99; ps]).unwrap();
    assert_eq!(d.commit(1), Err(DevError::Conflict));
    let mut buf = vec![0u8; ps];
    d.read(3, &mut buf).unwrap();
    assert_eq!(buf[0], 0x99, "the plain write is the surviving version");
    // A retry on a fresh snapshot wins.
    d.begin(1).unwrap();
    d.write_tx(1, 3, &vec![0x11; ps]).unwrap();
    d.commit(1).unwrap();
    d.read(3, &mut buf).unwrap();
    assert_eq!(buf[0], 0x11);
}

// --- the seeded soak ----------------------------------------------------

/// Random concurrent schedules for many rounds, each checked against the
/// exact prediction, then a power cut: committed versions survive, open
/// snapshots die, and no retained pre-image outlives recovery.
#[test]
fn mvcc_soak_random_schedules() {
    let mut rng = StdRng::seed_from_u64(MVCC_SEED);
    let mut d = dev();
    let ps = d.page_size();
    let mut expect = vec![0u8; 12];
    let mut conflicts_seen = 0u64;
    for round in 0..30u64 {
        let n_writers = rng.gen_range(2..=4);
        let writers: Vec<Script> = (0..n_writers)
            .map(|w| {
                let tid = round * 8 + w + 1;
                let n_pages = rng.gen_range(1..=3);
                let script = (0..n_pages)
                    .map(|_| (rng.gen_range(0..12u64), rng.gen_range(1..=250u8)))
                    .collect();
                (tid, script)
            })
            .collect();
        let mut commit_order: Vec<usize> = (0..n_writers as usize).collect();
        // A deterministic shuffle from the same seed stream.
        for i in (1..commit_order.len()).rev() {
            commit_order.swap(i, rng.gen_range(0..=i));
        }
        let interleave = if rng.gen_bool(0.5) {
            Interleave::RoundRobin
        } else {
            Interleave::Batched
        };
        let committed = run_schedule(&mut d, interleave, &writers, &commit_order, &mut expect);
        conflicts_seen += committed.iter().filter(|&&c| !c).count() as u64;
        // Occasional plain traffic between rounds (no snapshots open).
        if rng.gen_bool(0.3) {
            let lpn = rng.gen_range(0..12u64);
            let fill = rng.gen_range(1..=250u8);
            d.write(lpn, &vec![fill; ps]).unwrap();
            expect[lpn as usize] = fill;
        }
    }
    assert!(
        conflicts_seen > 0,
        "the soak never produced a conflict — overlap probability too low to test anything"
    );
    assert_eq!(
        d.inner().base().stats().conflict_aborts,
        conflicts_seen,
        "device conflict tally disagrees with the prediction"
    );
    assert_image(&mut d, &expect, "pre-crash soak image");

    // Power cut: everything committed survives; MVCC state is RAM-only.
    d.flush().unwrap();
    let mut d = common::recover(d);
    assert_eq!(d.inner().active_snapshots(), 0);
    assert_eq!(d.inner().xl2p().intent_pages(), 0);
    assert_image(&mut d, &expect, "post-crash soak image");
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
