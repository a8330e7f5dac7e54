//! Systematic crash-point sweep: arm the power fuse at every k-th flash
//! program/erase operation during a known transaction schedule, recover,
//! and verify the committed-prefix invariant — the strongest form of the
//! paper's §5.4 recovery claims. Every layer's crash handling (torn meta
//! pages, half-written journals, torn and partial X-L2P table images)
//! gets hit by some fuse position.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use std::cell::RefCell;
use std::rc::Rc;

use xftl_core::XFtl;
use xftl_db::{Connection, DbJournalMode, Value};
use xftl_flash::{FaultPlan, FlashChip, FlashConfig, Nanos, SimClock, MILLI};
use xftl_fs::{FileSystem, FsConfig, JournalMode};
use xftl_ftl::{FtlBase, PageMappedFtl, Personality};
use xftl_verify::ShadowDevice;
use xftl_workloads::AnyDev;

mod common;

use common::{assert_image, DevOp, Page::Fill, Page::Image};

const BLOCKS: usize = 300;
const LOGICAL: u64 = 2_200;

/// A host think time long enough for every merge X-FTL's last group
/// flush left to run before the next command.
const THINK_NS: Nanos = 20 * MILLI;

/// `ops` with the host thinking [`THINK_NS`] after every group, and a
/// flush at the end: its arrival runs the last group's merges.
fn thinking(ops: Vec<DevOp>) -> Vec<DevOp> {
    let mut out = Vec::with_capacity(2 * ops.len() + 1);
    for op in ops {
        let group = matches!(op, DevOp::Group { .. });
        out.push(op);
        if group {
            out.push(DevOp::Think(THINK_NS));
        }
    }
    out.push(DevOp::Flush);
    out
}

/// Fixed seed for the background fault process, so every fuse position of
/// the sweep replays the identical fault schedule (all randomness flows
/// from the workspace `simrand` shim through [`FaultPlan`]).
const FAULT_SEED: u64 = 0xF417_5EED;

/// Every crash point in the sweep also runs against live NAND faults:
/// program-status failures, erase failures (block retirements), and read
/// bit-flips — all at or above the 1e-3/op acceptance floor. The FTL's
/// retry/retirement machinery must make them invisible to the stack, and
/// the oracle and auditor prove it.
fn background_faults() -> FaultPlan {
    FaultPlan::background(
        FAULT_SEED, 1e-3, // program-status failures
        1e-3, // erase failures
        2e-2, // correctable bit-flips
        1e-3, // uncorrectable ECC bursts (bounded re-reads decode them)
    )
}

// --- oracle wiring ------------------------------------------------------
// Both device personalities run behind the shadow oracle for the whole
// sweep, erased behind the rig's forwarding enum.

type PlainDev = ShadowDevice<PageMappedFtl>;
type XDev = ShadowDevice<XFtl>;
type Dev = AnyDev<PlainDev, XDev>;

/// The engine under whichever personality `dev` carries.
fn base_mut(dev: &mut Dev) -> &mut FtlBase {
    match dev {
        Dev::Plain(d) => d.inner_mut().base_mut(),
        Dev::X(d) => d.inner_mut().base_mut(),
    }
}

fn build(mode: DbJournalMode) -> (Rc<RefCell<FileSystem<Dev>>>, SimClock) {
    let clock = SimClock::new();
    let mut chip = FlashChip::new(FlashConfig::tiny(BLOCKS), clock.clone());
    chip.set_fault_plan(background_faults());
    let dev = match mode {
        DbJournalMode::Off => Dev::X(ShadowDevice::new(XFtl::format(chip, LOGICAL).unwrap())),
        _ => Dev::Plain(ShadowDevice::new(
            PageMappedFtl::format(chip, LOGICAL).unwrap(),
        )),
    };
    let fs_mode = if mode == DbJournalMode::Off {
        JournalMode::Off
    } else {
        JournalMode::Ordered
    };
    let cfg = FsConfig {
        inode_count: 32,
        journal_pages: 48,
        cache_pages: 256,
    };
    // `Off` mode needs the transactional constructor; `Dev` carries the
    // X-FTL personality in exactly that case.
    let fs = match fs_mode {
        JournalMode::Off => FileSystem::mkfs_tx(dev, fs_mode, cfg),
        _ => FileSystem::mkfs(dev, fs_mode, cfg),
    }
    .unwrap();
    (Rc::new(RefCell::new(fs)), clock)
}

/// The WAL auto-checkpoint of the SQL stack, in frames: a batch commits
/// two or three, so the sweep's run checkpoints every few batches and its
/// cuts fall in several generations of the reused log.
const SWEEP_WAL_CHECKPOINT: u32 = 8;

/// Opens the sweep's database on `fs`.
fn open_db(fs: &Rc<RefCell<FileSystem<Dev>>>, mode: DbJournalMode) -> Connection<Dev> {
    let mut db = Connection::open(Rc::clone(fs), "m.db", mode).unwrap();
    db.pager_mut().wal_autocheckpoint = SWEEP_WAL_CHECKPOINT;
    db
}

/// The SQL stack the crash sweep cuts: a table created, a connection
/// open.
struct Sql {
    fs: Rc<RefCell<FileSystem<Dev>>>,
    db: Connection<Dev>,
    mode: DbJournalMode,
}

impl Sql {
    fn new(mode: DbJournalMode) -> Self {
        let (fs, _clock) = build(mode);
        let mut db = open_db(&fs, mode);
        db.execute("CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY, batch INT)")
            .unwrap();
        Sql { fs, db, mode }
    }

    /// The fixed schedule, twelve batches of four inserts, the host
    /// thinking after each: X-FTL merges in that gap. Returns how many
    /// were acknowledged committed before the power died.
    fn run(&mut self) -> i64 {
        use xftl_ftl::BlockDevice;
        let clock = base_mut(self.fs.borrow_mut().device_mut()).clock();
        for batch in 0..12i64 {
            let run = (|| -> Result<(), xftl_db::DbError> {
                self.db.execute("BEGIN")?;
                for k in 0..4i64 {
                    self.db.execute_with(
                        "INSERT INTO t VALUES (?, ?)",
                        &[Value::Int(batch * 4 + k + 1), Value::Int(batch)],
                    )?;
                }
                self.db.execute("COMMIT")?;
                Ok(())
            })();
            if run.is_err() {
                return batch;
            }
            clock.advance(THINK_NS);
        }
        // A device flush runs the last batch's merges. A cut in it loses
        // nothing acknowledged; any other failure is the device's.
        let flushed = self.fs.borrow_mut().device_mut().flush();
        let dead = base_mut(self.fs.borrow_mut().device_mut()).chip().is_dead();
        assert!(flushed.is_ok() || dead, "{flushed:?}");
        12
    }
}

impl common::Stack for Sql {
    type Recovered = Self;

    fn with_chip<T>(&mut self, f: impl FnOnce(&mut FlashChip) -> T) -> T {
        f(base_mut(self.fs.borrow_mut().device_mut()).chip_mut())
    }

    /// Power-cycles and recovers the device, remounts, reopens.
    fn recover(self) -> Self {
        let Sql { fs, db, mode } = self;
        drop(db);
        let fs = Rc::try_unwrap(fs).expect("sole owner").into_inner();
        let dev = match fs.into_device() {
            Dev::Plain(d) => Dev::Plain(common::recover(d)),
            Dev::X(d) => Dev::X(common::recover(d)),
        };
        let fs = match mode {
            DbJournalMode::Off => FileSystem::mount_tx(dev, JournalMode::Off, 256),
            _ => FileSystem::mount(dev, JournalMode::Ordered, 256),
        };
        let fs = Rc::new(RefCell::new(fs.unwrap()));
        let db = open_db(&fs, mode);
        Sql { fs, db, mode }
    }

    /// One in sixty of the programs and erases the chip made uncut,
    /// formatting included, from the third on: those inside the run.
    fn fuses(&mut self, ops: u64) -> Vec<u64> {
        let total = self.with_chip(|c| c.stats().programs + c.stats().erases);
        let every = (total / 60).max(1) as usize;
        (3..total)
            .step_by(every)
            .take_while(|f| *f <= ops)
            .collect()
    }
}

fn crash_sweep(mode: DbJournalMode) {
    let (cuts, _) = common::power_cuts(
        || Sql::new(mode),
        |sql, fuse| {
            let committed = sql.run();
            if fuse.is_none() && mode == DbJournalMode::Wal {
                let generations = sql.db.pager_stats().checkpoints + 1;
                assert!(generations >= 3, "{generations} log generations");
            }
            committed
        },
        |sql, &committed, fuse| {
            assert!(fuse.is_some() || committed == 12, "{mode:?}: uncut");
            let rows = (sql.db.query("SELECT COUNT(*), MAX(batch) FROM t"))
                .unwrap_or_else(|e| panic!("{mode:?} fuse {fuse:?}: query failed: {e}"));
            let count = rows[0][0].as_i64().unwrap();
            // Every acknowledged commit must be intact; one extra batch
            // may or may not have survived (the crash happened inside
            // it), but it must be complete if present (multiples of 4
            // rows).
            assert!(
                count == committed * 4 || count == (committed + 1) * 4,
                "{mode:?} fuse {fuse:?}: {count} rows after {committed} acknowledged batches"
            );
            assert_eq!(count % 4, 0, "{mode:?} fuse {fuse:?}: torn batch visible");
            count
        },
    );
    assert!(cuts > 20, "{mode:?}: sweep covered too few crash points");
}

/// The forwarding enum must carry the *defaulted* transactional commands
/// too: a wrapper that lets `begin` fall back to the trait's no-op hands
/// out snapshot transactions that silently read committed state.
#[test]
fn snapshot_begun_through_the_enum_isolates_its_reader() {
    let (fs, _clock) = build(DbJournalMode::Off);
    let mut fs = fs.borrow_mut();
    let ps = fs.page_size();
    let ino = fs.create("snap.dat").unwrap();
    fs.write(ino, 0, &vec![1u8; ps], None).unwrap();
    fs.sync_all().unwrap();
    let reader = fs.begin_tx_concurrent().unwrap();
    let writer = fs.begin_tx_concurrent().unwrap();
    fs.write(ino, 0, &vec![2u8; ps], Some(writer)).unwrap();
    fs.fsync(ino, Some(writer)).unwrap();
    let mut buf = vec![0u8; ps];
    fs.read(ino, 0, &mut buf, Some(reader)).unwrap();
    assert!(
        buf.iter().all(|&b| b == 1),
        "a concurrent commit leaked into the snapshot"
    );
    fs.fsync(ino, Some(reader)).unwrap();
    fs.read(ino, 0, &mut buf, None).unwrap();
    assert!(
        buf.iter().all(|&b| b == 2),
        "the committed overwrite is lost"
    );
}

#[test]
fn crash_sweep_rollback_mode() {
    crash_sweep(DbJournalMode::Rollback);
}

#[test]
fn crash_sweep_wal_mode() {
    crash_sweep(DbJournalMode::Wal);
}

#[test]
fn crash_sweep_xftl_mode() {
    crash_sweep(DbJournalMode::Off);
}

// --- the journal's replay at mount, cut -------------------------------

/// The volume [`every_cut_of_the_journal_replay_remounts_to_one_state`]
/// remounts, cut and recovered at the device: three files grown and
/// rewritten under ordered journaling, each fsync a journal transaction
/// over the same inode, bitmap and map pages, none of them checkpointed;
/// the power died in a last fsync. The mount that follows has every
/// transaction to redo.
struct Replay(PlainDev);

/// The volume mounted again.
struct Mounted(FileSystem<PlainDev>);

const REPLAY_FILES: [&str; 3] = ["a", "b", "c"];

fn replay_volume() -> Replay {
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), SimClock::new());
    let dev = ShadowDevice::new(PageMappedFtl::format(chip, LOGICAL).unwrap());
    let cfg = FsConfig {
        inode_count: 16,
        journal_pages: 128,
        cache_pages: 64,
    };
    let mut fs = FileSystem::mkfs(dev, JournalMode::Ordered, cfg).unwrap();
    let ps = fs.page_size();
    let inos: Vec<_> = REPLAY_FILES.iter().map(|n| fs.create(n).unwrap()).collect();
    fs.sync_meta(None).unwrap();
    for round in 0..5u8 {
        for (i, &ino) in inos.iter().enumerate() {
            let page = vec![round * 16 + i as u8; ps];
            let off = u64::from(round) * ps as u64 * (i as u64 + 1);
            fs.write(ino, off, &page, None).unwrap();
            fs.fsync(ino, None).unwrap();
        }
    }
    let stats = *fs.stats();
    assert_eq!(stats.checkpoint_writes, 0, "{stats:?}");
    fs.device_mut()
        .inner_mut()
        .base_mut()
        .chip_mut()
        .arm_power_fuse(3);
    let grow = fs.write(inos[0], 40 * ps as u64, &vec![0xEE; ps], None);
    assert!(
        grow.and_then(|()| fs.fsync(inos[0], None)).is_err(),
        "the fuse never fired"
    );
    Replay(common::recover(fs.into_device()))
}

fn mount(dev: PlainDev) -> Mounted {
    Mounted(FileSystem::mount(dev, JournalMode::Ordered, 64).unwrap())
}

impl common::Stack for Replay {
    type Recovered = Mounted;

    fn with_chip<T>(&mut self, f: impl FnOnce(&mut FlashChip) -> T) -> T {
        f(self.0.inner_mut().base_mut().chip_mut())
    }

    fn recover(self) -> Mounted {
        mount(common::recover(self.0))
    }
}

impl common::Stack for Mounted {
    type Recovered = Self;

    fn with_chip<T>(&mut self, f: impl FnOnce(&mut FlashChip) -> T) -> T {
        f(self.0.device_mut().inner_mut().base_mut().chip_mut())
    }

    fn recover(self) -> Self {
        mount(common::recover(self.0.into_device()))
    }
}

impl Mounted {
    /// Every file's bytes, once `check_consistency` finds the volume
    /// clean.
    fn state(&mut self) -> Vec<Vec<u8>> {
        let fsck = self.0.check_consistency().unwrap();
        assert!(fsck.is_clean(), "{fsck:?}");
        REPLAY_FILES
            .iter()
            .map(|name| {
                let ino = self.0.open(name).unwrap();
                let mut buf = vec![0u8; self.0.size(ino).unwrap() as usize];
                self.0.read(ino, 0, &mut buf, None).unwrap();
                buf
            })
            .collect()
    }
}

/// A cut at every program and erase of the journal's replay (the mount's
/// only writes: each home page's newest image, the flush, the header)
/// remounts to the state the uncut replay leaves, clean under
/// `check_consistency` — the redo is idempotent wherever it stops.
#[test]
fn every_cut_of_the_journal_replay_remounts_to_one_state() {
    use common::Stack;
    use xftl_ftl::BlockDevice;
    let want = replay_volume().recover().state();
    let replay = |r: &mut Replay, _: Option<u64>| {
        let mut page = vec![0u8; r.0.page_size()];
        r.0.read(0, &mut page).unwrap();
        let sb = xftl_fs::Superblock::decode(&page).unwrap();
        xftl_fs::journal::Journal::mount(&mut r.0, &sb).map(|(_, replayed, _)| replayed)
    };
    let (cuts, replayed) = common::power_cuts(replay_volume, replay, |m, _, _| {
        let state = m.state();
        assert!(state == want, "a cut replay remounts to another state");
        state
    });
    let replayed = replayed.unwrap();
    assert!(
        replayed >= 10 && cuts >= 5,
        "{replayed} transactions, {cuts} cuts"
    );
}

/// Crash *during recovery*, at every program and erase it makes, on every
/// personality: recovery writes — the closing checkpoint's translation
/// pages and root — and wherever the power dies in there, the next
/// recovery must still produce exactly the acknowledged state (§5.4's
/// idempotence claim, adversarially).
#[test]
fn crash_during_recovery_is_idempotent() {
    // Four translation pages and the root, but for the atomic-write FTL:
    // it checkpoints every few records, so the tail no root covers is the
    // last few writes, in one slab.
    let evidence = [
        recovery_cuts::<PageMappedFtl>("pagemap", 5),
        recovery_cuts::<xftl_ftl::AtomicWriteFtl>("atomicwrite", 2),
        recovery_cuts::<XFtl>("xftl", 5),
    ];
    // Every personality but the plain one folded commit evidence of its
    // own: open records, a live table image.
    assert!(
        evidence[0] == 0 && evidence[1..].iter().all(|n| *n > 0),
        "{evidence:?}"
    );
}

/// The recovery sweeps arm the fuse after the scan, `FtlBase::recover`:
/// a cut it wrote would be lost to them. On every image a power cut
/// leaves of a schedule that keeps the pool at the GC mark — torn pages,
/// part-collected victims, translation pages no root names — it programs
/// and erases nothing, on every personality.
#[test]
fn the_recovery_scan_programs_and_erases_nothing() {
    fn scan_every_cut<P: common::Swept>() {
        let build = || stepping_dev::<P>(xftl_ftl::GcPolicy::CostBenefit, true);
        let ops = common::fill_groups(&build(), 6, 2);
        let run = |dev: &mut ShadowDevice<P>, _| {
            let (mut run, mut seen) = (common::Run::default(), common::Exercised::default());
            for op in &ops {
                if run.issue(dev, op, &mut seen).is_err() {
                    break;
                }
            }
            common::scan(dev.inner().base().chip().clone());
        };
        common::power_cuts(build, run, |_, (), _| ());
    }
    scan_every_cut::<PageMappedFtl>();
    scan_every_cut::<xftl_ftl::AtomicWriteFtl>();
    scan_every_cut::<XFtl>();
}

/// The image [`recovery_cuts`] recovers: flushed churn (closed data
/// blocks under roots: the scan skips them), four acknowledged groups,
/// and a tail of plain writes over all four slabs no root covers (the
/// atomic-write FTL's record cap checkpoints all but its last few
/// writes) — so the replay dirties slabs
/// and the closing checkpoint has translation pages to write before its
/// root, and what the groups and the tail left of each personality's
/// commit evidence is live.
fn recovery_cut_image<P: common::Swept>() -> ShadowDevice<P> {
    use xftl_ftl::BlockDevice;
    let chip = FlashChip::new(FlashConfig::tiny(56), SimClock::new());
    let mut dev = ShadowDevice::new(P::format(chip, 256).unwrap());
    let ps = dev.page_size();
    let write = |dev: &mut ShadowDevice<P>, i: u64| {
        let (lpn, fill) = (i * 37 % 256, (i % 250) as u8 + 1);
        dev.write(lpn, &vec![fill; ps]).unwrap();
    };
    for i in 0..600u64 {
        write(&mut dev, i);
        if i % 100 == 99 {
            dev.flush().unwrap();
        }
    }
    for g in 0..4u64 {
        let pages: Vec<_> = (0..3)
            .map(|k| (g * 64 + 10 + k, Fill(0xA0 + g as u8)))
            .collect();
        P::group(&mut dev, g + 1, &pages).unwrap();
    }
    for i in 600..630u64 {
        write(&mut dev, i);
    }
    dev
}

/// Cuts `P`'s recovery of [`recovery_cut_image`] at every program and
/// erase it makes after the scan, which writes nothing
/// ([`common::Scanned`]), recovers each cut again behind the oracle and
/// the auditor, and reads every page through the oracle. The checkpoint
/// must make at least `min_cuts` programs and erases. Returns how many
/// pages the uncut recovery maps to a transactional write its scan found:
/// the folds `P`'s own commit evidence contributed.
fn recovery_cuts<P: common::Swept>(name: &str, min_cuts: u64) -> usize {
    let run = |s: &mut common::Scanned<P>, _| {
        assert!(s.dev.base().recovery().skipped_blocks > 0, "{name}");
        let done = s.run().is_ok();
        let evidence = (s.log.events.iter())
            .filter(|e| e.kind == xftl_flash::PageKind::Data && e.tid != 0)
            .filter(|e| s.dev.base().l2p_peek(e.lpn) == Some(e.ppa))
            .count();
        (done, evidence)
    };
    let (cuts, (_, evidence)) = common::power_cuts(
        || common::Scanned::new(recovery_cut_image::<P>()),
        run,
        |dev, &(done, _), fuse| {
            assert_eq!(done, fuse.is_none(), "{name}: fuse {fuse:?}");
            let skipped = dev.inner().base().recovery().skipped_blocks;
            assert!(skipped > 0, "{name}: fuse {fuse:?}");
            common::image(dev)
        },
    );
    assert!(cuts >= min_cuts, "{name}: {cuts} cuts, under {min_cuts}");
    evidence
}

// --- the X-L2P table image as commit evidence -----------------------------
// A commit is one queued table-image program and no root (DESIGN.md §5.1,
// "Commit evidence"): the tests below cut the power at every program of
// that path, relocate the image under GC, and retire it under GC.

const OLD: u8 = 0x11;
const NEW: u8 = 0x22;
const BALLAST: u8 = 0x33;

/// A roomy 64-block device with `capacity` X-L2P slots, 64 pages of
/// `OLD` data under a checkpoint, and one committed transaction of
/// `ballast` pages the checkpoint does not cover: the live generation
/// every later one has to fall back on, and (31 entries to a tiny page)
/// what decides how many pages a table image has.
fn dev_with_live_generation(capacity: usize, ballast: u64) -> XDev {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(64), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format_with_capacity(chip, 128, capacity).unwrap());
    let ps = dev.page_size();
    for lpn in 0..64u64 {
        dev.write(lpn, &vec![OLD; ps]).unwrap();
    }
    dev.flush().unwrap();
    let page = vec![BALLAST; ps];
    let batch: Vec<(u64, &[u8])> = (64..64 + ballast).map(|lpn| (lpn, &page[..])).collect();
    dev.submit_tx(100, &batch).unwrap();
    dev.commit(100).unwrap();
    dev
}

/// `submit_tx` + blocking `commit` of one five-page transaction.
fn one_commit(dev: &mut XDev) -> xftl_ftl::Result<()> {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let page = vec![NEW; dev.page_size()];
    let batch: Vec<(u64, &[u8])> = (0..5u64).map(|lpn| (lpn, &page[..])).collect();
    dev.submit_tx(7, &batch)?;
    dev.commit(7)
}

/// Three four-page transactions staged into one group, flushed by
/// redeeming the last ticket.
fn three_commit_group(dev: &mut XDev) -> xftl_ftl::Result<()> {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let page = vec![NEW; dev.page_size()];
    let mut tickets = Vec::new();
    for tid in 7..10u64 {
        let first = (tid - 7) * 4;
        let batch: Vec<(u64, &[u8])> = (first..first + 4).map(|lpn| (lpn, &page[..])).collect();
        dev.submit_tx(tid, &batch)?;
        tickets.push(dev.commit_submit(tid)?);
    }
    while let Some(ticket) = tickets.pop() {
        dev.commit_wait(ticket)?;
    }
    Ok(())
}

/// Cuts the power at every program of `schedule` (which writes `NEW` to
/// lpns `0..written` and programs `written` data pages plus one table
/// image — no root, no GC on this roomy device). Until the last page of
/// the image is intact nothing of the schedule survives, a world the
/// oracle leaves open; that the previous generation (the ballast) does,
/// and that the uncut schedule does, is the oracle's to check.
fn sweep_commit_boundaries(
    capacity: usize,
    ballast: u64,
    image_pages: u64,
    written: usize,
    schedule: fn(&mut XDev) -> xftl_ftl::Result<()>,
) {
    let programs = written as u64 + image_pages;
    let build = || {
        let dev = dev_with_live_generation(capacity, ballast);
        assert_eq!(dev.inner().base().xl2p_roots().len() as u64, image_pages);
        dev
    };
    let run = |dev: &mut XDev, _| {
        let base = dev.inner().base();
        let before = (base.flash_stats(), base.stats().meta_writes);
        let acked = schedule(dev).is_ok();
        if acked {
            let base = dev.inner().base();
            let after = base.flash_stats();
            assert_eq!(after.programs - before.0.programs, programs);
            assert_eq!(after.erases, before.0.erases);
            assert_eq!(base.stats().meta_writes, before.1, "no root");
        }
        acked
    };
    let (cuts, _) = common::power_cuts(build, run, |dev, &acked, fuse| {
        let what = format!("capacity {capacity}, fuse {fuse:?} of {programs}");
        assert_eq!(acked, fuse.is_none(), "{what}");
        if !acked {
            assert_image(dev, &vec![OLD; written], &what);
        }
    });
    assert_eq!(cuts, programs, "the path is {programs} programs");
}

#[test]
fn every_program_of_a_commit_is_a_clean_cut_one_page_table() {
    sweep_commit_boundaries(500, 4, 1, 5, one_commit);
    sweep_commit_boundaries(500, 4, 1, 12, three_commit_group);
}

#[test]
fn every_program_of_a_commit_is_a_clean_cut_two_page_table() {
    sweep_commit_boundaries(1000, 36, 2, 5, one_commit);
    sweep_commit_boundaries(1000, 36, 2, 12, three_commit_group);
}

/// A device at end of life cannot persist anything, recovery included:
/// it folds the live generation in RAM, leaves it on flash, and a second
/// recovery finds the very same pages and folds them again.
#[test]
fn read_only_device_re_recovers_the_same_generation_without_persisting() {
    use xftl_flash::{FaultKind, FaultTrigger};
    use xftl_ftl::{BlockDevice, DevError, DeviceState, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 48).unwrap());
    let ps = dev.page_size();
    for lpn in 0..16u64 {
        dev.write(lpn, &vec![OLD; ps]).unwrap();
    }
    dev.flush().unwrap();
    for lpn in 0..4u64 {
        dev.write_tx(7, lpn, &vec![NEW; ps]).unwrap();
    }
    dev.commit(7).unwrap();
    // Every erase fails from here on: plain overwrites (never a
    // checkpoint) drain the pool until the device goes read-only.
    dev.inner_mut().base_mut().chip_mut().set_fault_plan(
        FaultPlan::new(FAULT_SEED).trigger(FaultTrigger::new(FaultKind::EraseFail).sticky()),
    );
    for i in 0u64.. {
        let fill = (i % 100) as u8 + 0x40;
        if let Err(e) = dev.write(8 + i % 8, &vec![fill; ps]) {
            assert_eq!(e, DevError::ReadOnly, "wrong end-of-life error");
            break;
        }
        assert!(i < 100_000, "pool exhaustion never went read-only");
    }
    let image = dev.inner().base().xl2p_roots().to_vec();
    assert!(!image.is_empty(), "the commit's generation is still live");
    let programs = dev.inner().base().flash_stats().programs;
    for round in ["first", "second"] {
        dev = common::recover(dev);
        assert_eq!(dev.inner().base().device_state(), DeviceState::ReadOnly);
        assert_eq!(dev.inner().base().xl2p_roots(), image.as_slice(), "{round}");
        assert_eq!(
            dev.inner().base().flash_stats().programs,
            programs,
            "{round}"
        );
    }
}

/// A 56-block device exporting 384 pages (6 slabs) behind a 2-slab
/// mapping cache, every page written `OLD` and checkpointed: small enough
/// that, on X-FTL, evictions close the Map frontier over a live table
/// image and GC has to pick that block.
fn tight_dev<P: common::Swept>() -> ShadowDevice<P> {
    use xftl_ftl::BlockDevice;
    let cfg = xftl_flash::FlashConfigBuilder::tiny().blocks(56).build();
    let mut dev = ShadowDevice::new(P::format(FlashChip::new(cfg, SimClock::new()), 384).unwrap());
    dev.inner_mut()
        .base_mut()
        .set_map_cache_budget(Some(2))
        .unwrap();
    let ps = dev.page_size();
    for lpn in 0..384u64 {
        dev.write(lpn, &vec![OLD; ps]).unwrap();
    }
    dev.flush().unwrap();
    dev
}

/// Plain overwrites `from..to` of a schedule striding across all six
/// slabs (never lpn `64 k`): every step misses the 2-slab cache, so
/// dirty evictions program translation pages and GC reclaims data and
/// mapping blocks alike.
fn churn(dev: &mut XDev, from: u64, to: u64) {
    use xftl_ftl::BlockDevice;
    let ps = dev.page_size();
    for i in from..to {
        let (lpn, fill) = churn_write(i);
        dev.write(lpn, &vec![fill; ps]).unwrap();
    }
}

/// Where the `i`-th write of [`churn`]'s schedule goes, and its fill.
fn churn_write(i: u64) -> (u64, u8) {
    ((i % 6) * 64 + 1 + (i / 6) % 40, (i % 199) as u8 + 0x30)
}

/// `commit(A)`; plain `write(A)`; GC relocates the still-live table
/// image; power cut. The copy carries a newer program sequence than the
/// plain write, so a fold positioned at the copy's sequence would replay
/// *after* the overwrite and resurrect the version it superseded. The
/// fold position is the generation id the copy keeps.
#[test]
fn gc_relocated_table_image_folds_at_its_generation_not_the_copy() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let mut dev = tight_dev::<XFtl>();
    let ps = dev.page_size();
    dev.write_tx(1, 0, &vec![NEW; ps]).unwrap();
    dev.commit(1).unwrap();
    dev.write(0, &vec![0xD2; ps]).unwrap();
    let image = dev.inner().base().xl2p_roots().to_vec();
    assert_eq!(image.len(), 1);
    let mut steps = 0;
    while dev.inner().base().xl2p_roots() == image.as_slice() {
        assert!(steps < 4000, "GC never relocated the table image");
        churn(&mut dev, steps, steps + 1);
        steps += 1;
    }
    assert_eq!(
        dev.inner().base().xl2p_roots().len(),
        1,
        "relocated, still live"
    );
    common::recover(dev);
}

/// The release order: a checkpoint that covers the table image's folds
/// may retire the image only once its root is on the media, because the
/// checkpoint runs GC between its slab writes. The schedule puts the live
/// image alone (seven dead generations beside it) in a closed mapping
/// block and the pool one block short exactly at the checkpoint's second
/// slab, so *inline* GC takes that block inside the checkpoint — then the
/// power is cut at every program and erase of the flush: the
/// checkpoint-and-release, and the background step that closes it (an
/// erase of the mapping block the checkpoint emptied; no copy, no root).
/// Whatever the cut, every commit survives.
#[test]
fn checkpoint_and_release_under_gc_pressure_survives_every_cut() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let build = || {
        // 35 blocks: 2 meta + 24 of data + 2 of transaction pages + 2 of
        // mapping pages leave 5 free — one above the GC low-water mark,
        // which holds a block for the cold log no survivor has opened
        // yet — so no commit's acknowledgement starts a background step.
        let chip = FlashChip::new(FlashConfig::tiny(35), SimClock::new());
        let mut dev = ShadowDevice::new(XFtl::format(chip, 192).unwrap());
        let ps = dev.page_size();
        for lpn in 0..192u64 {
            dev.write(lpn, &vec![OLD; ps]).unwrap();
        }
        dev.flush().unwrap();
        // 13 one-page commits, one page per data block so that no data
        // block empties: images 1-5 fill the slabs' block, 6-13 the next.
        for tid in 1..=13u64 {
            let lpn = (tid - 1) * 8;
            dev.write_tx(tid, lpn, &vec![NEW; ps]).unwrap();
            dev.commit(tid).unwrap();
        }
        // Twelve plain writes (no acknowledgement, so no step) dirty the
        // third slab and open the two data blocks that take the pool
        // down to the inline floor.
        for lpn in [
            129u64, 137, 145, 153, 161, 169, 177, 185, 130, 138, 146, 154,
        ] {
            dev.write(lpn, &vec![BALLAST; ps]).unwrap();
        }
        dev
    };
    let run = |dev: &mut XDev, _| {
        let base = dev.inner().base();
        let (image, stats) = (base.xl2p_roots()[0], *base.stats());
        assert_eq!(
            (stats.gc_runs, stats.gc_background_steps),
            (0, 0),
            "nothing collected before the flush"
        );
        let flushed = dev.flush().is_ok();
        let base = dev.inner().base();
        (
            flushed,
            *base.stats() - stats,
            base.chip().write_point(image.block),
        )
    };
    let (cuts, (_, during, image_block)) =
        common::power_cuts(build, run, |_, &(flushed, ..), fuse| {
            assert_eq!(
                flushed,
                fuse.is_none(),
                "fuse {fuse:?} must fire in the flush"
            );
        });
    assert_eq!(
        (during.gc_inline_collections, during.gc_copies),
        (1, 1),
        "inline GC ran inside the checkpoint and moved one page: the image"
    );
    assert_eq!(
        image_block,
        Some(0),
        "GC took the image's block inside the checkpoint"
    );
    assert_eq!(
        (during.gc_background_steps, during.gc_runs),
        (1, 2),
        "the closing step erased the block the checkpoint emptied"
    );
    assert_eq!(cuts, 7, "slab, image copy, erase, slab, slab, root; erase");
}

/// A 40-block X-FTL device exporting 64 pages, the first `old` of them
/// written `OLD` and flushed.
fn small_dev(old: u64) -> XDev {
    use xftl_ftl::BlockDevice;
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 64).unwrap());
    let page = vec![OLD; dev.page_size()];
    for lpn in 0..old {
        dev.write(lpn, &page).unwrap();
    }
    dev.flush().unwrap();
    dev
}

/// Cut a transaction at every program — its pages, then its commit, the
/// X-L2P table page torn mid-program — and recover under the oracle: the
/// transaction must resolve all-or-nothing (the oracle's world-narrowing
/// panics on a torn commit as the sweep reads every page) and the flash
/// metadata must audit green afterwards.
#[test]
fn oracle_fuse_mid_commit_resolves_all_or_nothing() {
    let pages = (0..6u64).map(|lpn| (lpn, Fill(NEW))).collect();
    let (stats, cuts) = common::sweep(|| small_dev(6), &[DevOp::Group { tid: 3, pages }]);
    assert_eq!(
        (stats.xl2p_writes, cuts),
        (1, 7),
        "the commit is one program"
    );
}

/// Power cut in the split-phase window: two transactions commit_submit
/// (visible, staged in the same group) but the power dies before any
/// commit_wait. No group flush ever ran, so the whole group must vanish —
/// the oracle carries both as in-doubt worlds across the cycle and the
/// recovered image must sit in the all-old world for every page.
#[test]
fn oracle_power_cut_between_submit_and_wait_loses_group() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let mut dev = small_dev(6);
    let new = vec![NEW; dev.page_size()];
    for lpn in 0..6u64 {
        dev.write_tx(3 + lpn / 3, lpn, &new).unwrap();
    }
    let a = dev.commit_submit(3).unwrap();
    let b = dev.commit_submit(4).unwrap();
    assert!(
        !a.is_immediate() && !b.is_immediate(),
        "X-FTL stages commits"
    );
    // Both are visible now, before any flush: the oracle reads them.
    common::image(&mut dev);

    // Power dies with the group staged: tickets a and b are never redeemed.
    let mut dev = common::recover(dev);

    // Nothing of the staged group was ever programmed durably.
    assert_image(&mut dev, &[OLD; 6], "unflushed group survived the crash");
}

/// Two concurrent `commit_submit`s redeemed by one `commit_wait` must
/// coalesce into a single group flush — one X-L2P persist for both
/// transactions — with every read and the recovery image still checked
/// by the oracle.
#[test]
fn oracle_group_commit_coalesces_two_commits_into_one_flush() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 64).unwrap());
    let new = vec![NEW; dev.page_size()];
    for lpn in 0..6u64 {
        dev.write_tx(3 + lpn / 3, lpn, &new).unwrap();
    }
    let before = *dev.inner().base().stats();
    let a = dev.commit_submit(3).unwrap();
    let b = dev.commit_submit(4).unwrap();
    dev.commit_wait(b).unwrap();
    dev.commit_wait(a).unwrap();
    let delta = *dev.inner().base().stats() - before;
    assert_eq!(
        delta.group_commit_flushes, 1,
        "both commits share one flush"
    );
    assert_eq!(delta.commits_coalesced, 2, "the flush retired both commits");

    // The single flush made both durable: power-cycle and re-check every
    // page through the oracle's recovery sweep plus a flash audit.
    common::recover(dev);
}

/// Fuse in the middle of a *group* flush: two staged commits share one
/// X-L2P persist, so a torn flush must take or lose them together — the
/// all-or-nothing unit is the group, not the transaction. The oracle's
/// in-doubt worlds (spilled when commit_wait fails) enforce exactly that
/// across the power cycle.
#[test]
fn oracle_fuse_mid_group_flush_is_all_or_nothing() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let mut dev = small_dev(6);
    let new = vec![NEW; dev.page_size()];
    for lpn in 0..6u64 {
        dev.write_tx(3 + lpn / 3, lpn, &new).unwrap();
    }
    let a = dev.commit_submit(3).unwrap();
    let _b = dev.commit_submit(4).unwrap();
    // Redeeming the first ticket flushes the whole staged group — one
    // program, the X-L2P table page. A one-op fuse tears it.
    dev.inner_mut().base_mut().chip_mut().arm_power_fuse(1);
    assert!(
        dev.commit_wait(a).is_err(),
        "fuse must kill the group flush"
    );

    let mut dev = common::recover(dev);

    // Every page of BOTH transactions must land in the same world.
    let mut buf = vec![0u8; dev.page_size()];
    dev.read(0, &mut buf).unwrap();
    let world = buf[0];
    assert!(world == OLD || world == NEW, "unknown world {world:#x}");
    assert_image(&mut dev, &[world; 6], "torn group flush");
}

/// Recover twice in a row with no intervening traffic: the second
/// recovery must reproduce exactly the committed image the first one
/// produced — recovery is idempotent, as witnessed by the oracle's
/// durability sweep and the flash audit.
#[test]
fn oracle_double_recovery_is_idempotent() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 64).unwrap());
    let ps = dev.page_size();
    for lpn in 0..8u64 {
        let fill = u8::try_from(lpn).unwrap() + 1;
        dev.write(lpn, &vec![fill; ps]).unwrap();
    }
    dev.write_tx(5, 0, &vec![0xEEu8; ps]).unwrap(); // in-flight, must die

    // Power-cycle again right after the first recovery: its own writes
    // (checkpoint, meta ring append) must leave a state that recovers to
    // the same image.
    let mut dev = common::recover(common::recover(dev));
    assert!(dev.verify_recovered() >= 8);
}

/// Power cut in the middle of a dirty-slab eviction flush: with a
/// one-slab mapping-cache budget every miss evicts, and a dirty victim
/// programs its translation page before the fetch — the fuse kills
/// exactly that program. Recovery must rebuild the identical mapping by
/// OOB roll-forward (acknowledged writes intact, the never-programmed
/// one absent), and the flash auditor — which decodes translation pages
/// and checks each slab's home is the one a scan would find — must still
/// pass on the torn image.
#[test]
fn oracle_fuse_mid_eviction_flush_recovers_acknowledged_writes() {
    use xftl_ftl::BlockDevice;
    let chip = FlashChip::new(FlashConfig::tiny(110), SimClock::new());
    let mut dev = ShadowDevice::new(PageMappedFtl::format(chip, 400).unwrap());
    dev.inner_mut()
        .base_mut()
        .set_map_cache_budget(Some(1))
        .unwrap();
    let ps = dev.page_size();
    for (lpn, &fill) in map_fills().iter().enumerate() {
        dev.write(lpn as u64, &vec![fill; ps]).unwrap();
    }
    dev.flush().unwrap();
    // Dirty the slab covering lpn 0, then touch a far slab: the miss
    // must flush slab 0's translation page first, and the one-op fuse
    // dies inside that eviction program.
    dev.write(0, &vec![0xEE; ps]).unwrap();
    dev.inner_mut().base_mut().chip_mut().arm_power_fuse(1);
    assert!(
        dev.write(390, &vec![0xDD; ps]).is_err(),
        "fuse must fire in the eviction flush"
    );

    let mut dev = common::recover(dev);
    dev.inner_mut()
        .base_mut()
        .set_map_cache_budget(Some(1))
        .unwrap();
    // Every slab loaded from its translation page, read by the oracle.
    common::image(&mut dev);
}

/// The 400 pages of the eviction tests, each filled with a byte naming it.
fn map_fills() -> Vec<u8> {
    (0..400u32).map(|lpn| (lpn % 250) as u8 + 1).collect()
}

/// Recover twice in a row under a bounded mapping-cache budget, crashing
/// first inside an eviction window: the second recovery — interrupting
/// nothing but re-running the roll-forward checkpoint and meta-root
/// append of the first — must reproduce the *identical* L2P mapping and
/// data image.
#[test]
fn double_recovery_with_bounded_cache_is_idempotent() {
    use xftl_ftl::BlockDevice;
    let chip = FlashChip::new(FlashConfig::tiny(110), SimClock::new());
    let mut dev = ShadowDevice::new(PageMappedFtl::format(chip, 400).unwrap());
    let budget = |dev: &mut PlainDev| dev.inner_mut().base_mut().set_map_cache_budget(Some(2));
    budget(&mut dev).unwrap();
    let ps = dev.page_size();
    for (lpn, &fill) in map_fills().iter().enumerate() {
        dev.write(lpn as u64, &vec![fill; ps]).unwrap();
    }
    dev.write(5, &vec![0xEE; ps]).unwrap();
    // The next cross-slab write needs an eviction and a data program;
    // the one-op fuse dies in whichever comes first.
    dev.inner_mut().base_mut().chip_mut().arm_power_fuse(1);
    assert!(
        dev.write(300, &vec![0xDD; ps]).is_err(),
        "fuse must fire mid-write"
    );
    let mapping = |d: &PlainDev| {
        (0..400)
            .map(|l| d.inner().base().l2p_peek(l))
            .collect::<Vec<_>>()
    };
    let first = common::recover(dev);
    let mapping_first = mapping(&first);
    // Immediate second power cycle: recovery's own writes must land in a
    // state that recovers to the same mapping.
    let mut second = common::recover(first);
    assert_eq!(
        mapping_first,
        mapping(&second),
        "double recovery changed the mapping"
    );
    // Every page, demand-loaded, through the oracle — which holds the
    // write the power cut may or may not have landed to one of its two
    // worlds across both recoveries.
    budget(&mut second).unwrap();
    common::image(&mut second);
}

/// Power cut with the full MVCC machinery engaged: two snapshot writers
/// mid-flight, one commit durably flushed, and one more submitted but
/// never redeemed. Recovery must keep the flushed commit, drop the
/// staged group, evaporate both active writers (their snapshots, write
/// intents, and retained versions are device RAM), and produce the same
/// image when interrupted by a second power cycle — all under the
/// oracle's durability sweep and flash audit.
#[test]
fn oracle_power_cut_with_live_snapshot_writers_keeps_commits_drops_intents() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let mut dev = small_dev(8);
    let ps = dev.page_size();

    // Four snapshot transactions on disjoint pages: two stay active,
    // one commits durably (blocking), one is submitted but unflushed.
    for tid in 1..=4u64 {
        dev.begin(tid).unwrap();
    }
    dev.write_tx(1, 0, &vec![0xA1u8; ps]).unwrap();
    dev.write_tx(1, 1, &vec![0xA1u8; ps]).unwrap();
    dev.write_tx(2, 2, &vec![0xB2u8; ps]).unwrap();
    dev.write_tx(2, 3, &vec![0xB2u8; ps]).unwrap();
    dev.write_tx(3, 4, &vec![0xC3u8; ps]).unwrap();
    dev.write_tx(3, 5, &vec![0xC3u8; ps]).unwrap();
    dev.write_tx(4, 6, &vec![0xD4u8; ps]).unwrap();
    dev.commit(4).unwrap(); // durable before the cut
    let staged = dev.commit_submit(3).unwrap(); // visible, never redeemed
    assert!(!staged.is_immediate(), "X-FTL stages commits");

    // Pre-cut: the oracle reads the staged version visible and the live
    // writers' versions not; the intent table tracks both live writers.
    common::image(&mut dev);
    assert_eq!(dev.inner().xl2p().intent_pages(), 4, "two live writers");
    assert_eq!(dev.inner().active_snapshots(), 2, "tids 1 and 2 still open");

    // Power dies; recover twice (the second cycle interrupts nothing but
    // must still reproduce the same image — recovery stays idempotent
    // with MVCC state in the mix).
    let mut dev = common::recover(common::recover(dev));

    // The flushed commit survived; everything else rolled back — the
    // staged commit 3 too, a world the oracle leaves open.
    let mut expect = [OLD; 8];
    expect[6] = 0xD4;
    assert_image(&mut dev, &expect, "flushed commit lost, or more survived");
    // Snapshots, write intents, and retained versions are device RAM:
    // recovery must come up with none of them.
    assert_eq!(
        dev.inner().active_snapshots(),
        0,
        "snapshot survived power loss"
    );
    assert_eq!(
        dev.inner().xl2p().intent_pages(),
        0,
        "write intent survived"
    );
    assert_eq!(dev.inner().xl2p().retained_versions(), 0, "chain survived");
}

/// Power cut inside a background scrub relocation, swept across fuse
/// positions: a read-hammered block crosses the scrub threshold, the
/// next GC tick starts relocating it, and the fuse kills the device
/// somewhere in the copy/erase schedule. Recovery must roll forward to
/// an image where every page holds its acknowledged value — a torn
/// relocation is invisible (old copies valid until the new ones seal).
#[test]
fn crash_mid_scrub_relocation_sweep() {
    use xftl_ftl::{BlockDevice, ScrubConfig};
    let build = || {
        let chip = FlashChip::new(FlashConfig::tiny(24), SimClock::new());
        let mut dev = ShadowDevice::new(XFtl::format(chip, 48).unwrap());
        dev.inner_mut()
            .base_mut()
            .set_scrub_config(Some(ScrubConfig {
                read_threshold: 50,
                interval_ops: 1,
                ..ScrubConfig::default()
            }));
        let ps = dev.page_size();
        // lpns 0..8 fill one block; lpn 8 closes it (an open write
        // frontier is never a scrub victim).
        for lpn in 0..9u64 {
            let fill = u8::try_from(lpn).unwrap() + 1;
            dev.write(lpn, &vec![fill; ps]).unwrap();
        }
        dev.flush().unwrap();
        // Hammer the closed block past the scrub threshold.
        let mut buf = vec![0u8; ps];
        for _ in 0..60 {
            dev.read(0, &mut buf).unwrap();
        }
        dev
    };
    // The next write's GC tick fires the scrubber; the fuse lands
    // somewhere inside the relocation, or in the host write after it.
    let mut cut_mid_scrub = 0u32;
    let run = |dev: &mut XDev, fuse: Option<u64>| {
        let died = dev.write(9, &vec![0xAB; dev.page_size()]).is_err();
        let stats = *dev.inner().base().stats();
        assert_eq!(died, fuse.is_some());
        if died && stats.scrub_copies > 0 && stats.scrub_runs == 0 {
            cut_mid_scrub += 1;
        }
    };
    common::power_cuts(build, run, |dev, (), _| common::image(dev));
    assert!(
        cut_mid_scrub > 0,
        "no fuse position landed inside a scrub relocation"
    );
}

/// A committed page the scrubber moves twice before its X-L2P entry is
/// released: the first copy is re-stamped tid 0, so the second move
/// arrives untagged. The entry must follow it anyway, or the next group
/// flush persists the first copy's address and recovery folds that over
/// the page's live copy.
#[test]
fn twice_relocated_committed_page_survives_the_next_generation() {
    use xftl_ftl::{BlockDevice, ScrubConfig, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(24), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 48).unwrap());
    dev.inner_mut()
        .base_mut()
        .set_scrub_config(Some(ScrubConfig {
            read_threshold: 50,
            interval_ops: 1,
            ..ScrubConfig::default()
        }));
    let ps = dev.page_size();
    dev.write_tx(1, 0, &vec![0xC1; ps]).unwrap();
    dev.commit(1).unwrap();
    let mut copies = vec![dev.inner().base().l2p_peek(0).unwrap()];
    let mut buf = vec![0u8; ps];
    for round in 0..16u8 {
        if copies.len() > 2 {
            break;
        }
        // Plain writes fill the hot log past the block that took lpn 0's
        // commit; hammering reads then take the block holding lpn 0 past
        // the threshold, and the next write's tick scrubs it — closed,
        // or the survivors' open cold block its first move went to.
        for lpn in 1..9u64 {
            dev.write(lpn, &vec![round; ps]).unwrap();
        }
        for _ in 0..60 {
            dev.read(0, &mut buf).unwrap();
        }
        dev.write(9, &vec![round; ps]).unwrap();
        let now = dev.inner().base().l2p_peek(0).unwrap();
        if copies.last() != Some(&now) {
            copies.push(now);
        }
    }
    assert!(copies.len() > 2, "lpn 0 was not moved twice: {copies:?}");
    assert!(
        dev.inner().xl2p().lookup(1, 0).is_some(),
        "tid 1's entry was released before the second move"
    );
    // A second commit persists a new generation holding tid 1's entry,
    // which the auditor holds to lpn 0's live copy.
    dev.write_tx(2, 20, &vec![0xC2; ps]).unwrap();
    dev.commit(2).unwrap();
    dev.audit();
    // The oracle reads lpn 0: at a stale address it would not hold 0xC1.
    common::recover(dev);
}

/// Double recovery with persisted health state: the device is driven to
/// `Degraded` by bounded block retirements (still writable), then to
/// `ReadOnly` by sticky erase failures. At each stage two back-to-back
/// recoveries must come up in the same state — degradation is durable
/// and recovery stays idempotent on a dying device.
#[test]
fn double_recovery_preserves_degraded_and_read_only_state() {
    use xftl_flash::{FaultKind, FaultTrigger};
    use xftl_ftl::{BlockDevice, DevError, DeviceState};

    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 48).unwrap());
    let ps = dev.page_size();
    for lpn in 0..8u8 {
        dev.write(lpn.into(), &vec![lpn + 1; ps]).unwrap();
    }
    dev.flush().unwrap();

    // Stage 1: enough one-shot erase failures to shrink the usable pool
    // below the format-time requirement (Degraded), with plenty of spare
    // blocks left to keep writing.
    let mut plan = FaultPlan::new(FAULT_SEED);
    for _ in 0..28 {
        plan = plan.trigger(FaultTrigger::new(FaultKind::EraseFail));
    }
    dev.inner_mut().base_mut().chip_mut().set_fault_plan(plan);
    let mut i = 0u64;
    while dev.inner().base().device_state() == DeviceState::Healthy {
        let fill = (i % 100) as u8;
        dev.write(8 + (i % 8), &vec![fill; ps]).unwrap();
        i += 1;
        assert!(i < 100_000, "retirements never degraded the device");
    }
    assert_eq!(dev.inner().base().device_state(), DeviceState::Degraded);

    // Two back-to-back recoveries: Degraded persists through both (via
    // the meta root and, independently, the bad-block census).
    let mut dev = common::recover(common::recover(dev));
    assert_eq!(
        dev.inner().base().device_state(),
        DeviceState::Degraded,
        "Degraded state lost across double recovery"
    );
    // A degraded device still writes.
    dev.write(8, &vec![0x77; ps]).unwrap();

    // Stage 2: every further erase fails; the pool drains to read-only.
    dev.inner_mut().base_mut().chip_mut().set_fault_plan(
        FaultPlan::new(FAULT_SEED).trigger(FaultTrigger::new(FaultKind::EraseFail).sticky()),
    );
    let mut i = 0u64;
    loop {
        let fill = (i % 100) as u8;
        match dev.write(8 + (i % 8), &vec![fill; ps]) {
            Ok(()) => i += 1,
            Err(e) => {
                assert_eq!(e, DevError::ReadOnly, "wrong end-of-life error");
                break;
            }
        }
        assert!(i < 100_000, "pool exhaustion never went read-only");
    }
    assert_eq!(dev.inner().base().device_state(), DeviceState::ReadOnly);

    let mut dev = common::recover(common::recover(dev));
    assert_eq!(
        dev.inner().base().device_state(),
        DeviceState::ReadOnly,
        "ReadOnly state lost across double recovery"
    );
    assert_eq!(
        dev.write(0, &vec![0xEE; ps]),
        Err(DevError::ReadOnly),
        "recovered device forgot it was read-only"
    );
}

// --- background collection steps under the power fuse -----------------------
// DESIGN.md §14, "Background collection": every acknowledgement may queue
// a budgeted share of a victim's copies, so a victim now dies over several
// commands. The sweep cuts the power at every program and erase of a
// schedule that keeps the pool at the mark, on every personality and
// policy.

/// Twenty 32-page blocks exporting 384 pages (6 slabs) behind a 2-slab
/// mapping cache, every page written and checkpointed: tight enough that
/// the pool sits at the GC mark for the whole schedule, blocks big enough
/// that a victim outlasts a step, and mapping blocks (closed over live
/// slabs by the evictions) are victims too. `hot_cold` separates the
/// write streams by heat.
fn stepping_dev<D: common::Swept>(policy: xftl_ftl::GcPolicy, hot_cold: bool) -> ShadowDevice<D> {
    use xftl_ftl::BlockDevice;
    let cfg = xftl_flash::FlashConfigBuilder::tiny()
        .blocks(20)
        .pages_per_block(32)
        .build();
    let mut dev = ShadowDevice::new(D::format(FlashChip::new(cfg, SimClock::new()), 384).unwrap());
    let base = dev.inner_mut().base_mut();
    base.set_gc_policy(policy);
    base.set_hot_cold(hot_cold);
    base.set_map_cache_budget(Some(2)).unwrap();
    let ps = dev.page_size();
    for lpn in 0..384u64 {
        dev.write(lpn, &vec![0xEE; ps]).unwrap();
    }
    dev.flush().unwrap();
    dev
}

/// Sweeps 30 acknowledged groups of 2 pages on `D` under each GC policy,
/// and under cost-benefit with hot/cold separation (the `dev-steady`
/// configuration). Every cut recovers (the sweep refuses a refused chip)
/// to the acknowledged state — mapping-class victims included: a
/// relocated translation page is found by the scan, whichever of the
/// copy, the erase and the next root the power cut falls between.
fn sweep_steps<D: common::Swept>(name: &str) {
    use xftl_ftl::GcPolicy;
    let (mut collections, mut runs, mut map_runs) = (0, 0, 0);
    for (policy, hot_cold) in [
        (GcPolicy::Greedy, false),
        (GcPolicy::Fifo, false),
        (GcPolicy::CostBenefit, false),
        (GcPolicy::CostBenefit, true),
    ] {
        let build = || stepping_dev::<D>(policy, hot_cold);
        let (s, _) = common::sweep(build, &common::fill_groups(&build(), 30, 2));
        let what = format!("{name}/{policy:?}/hot_cold={hot_cold}");
        assert!(s.gc_background_steps > 0, "{what}: no step ran");
        collections += s.gc_background_steps + s.gc_inline_collections;
        runs += s.gc_runs;
        map_runs += s.gc_map_runs;
    }
    // The cuts fell where the issue is: between two steps of one victim
    // (and so between its last copy and its erase), and around the erase
    // of a mapping block.
    assert!(collections > runs, "{name}: no victim took two steps");
    assert!(map_runs > 0, "{name}: no mapping block was collected");
}

#[test]
fn steps_survive_every_cut_pagemap() {
    sweep_steps::<PageMappedFtl>("pagemap");
}

#[test]
fn steps_survive_every_cut_atomicwrite() {
    sweep_steps::<xftl_ftl::AtomicWriteFtl>("atomicwrite");
}

#[test]
fn steps_survive_every_cut_xftl() {
    sweep_steps::<XFtl>("xftl");
}

// --- cadence roots under the power fuse -------------------------------------
// DESIGN.md §5.3, "Bound the window": a host that never
// flushes still gets a root every 32 blocks' worth of programs, from each
// personality's own checkpoint routine, and every root moves the horizon
// as far as the personality's open groups allow. The sweeps below cut
// every program and erase of such a root.

/// Forty tiny blocks exporting 160 pages, every page written and
/// flushed, then churned by plain writes nobody flushes until `behind`
/// cadence roots are behind it and the next is a handful of programs
/// away — where the sweep's groups take over.
fn cadence_dev<D: common::Swept>(policy: xftl_ftl::GcPolicy, behind: u64) -> ShadowDevice<D> {
    use xftl_ftl::BlockDevice;
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(D::format(chip, 160).unwrap());
    dev.inner_mut().base_mut().set_gc_policy(policy);
    let ps = dev.page_size();
    for lpn in 0..160u64 {
        dev.write(lpn, &vec![0xEE; ps]).unwrap();
    }
    dev.flush().unwrap();
    let window = 32 * dev.inner().base().pages_per_block() as u64;
    let until_due = |d: &ShadowDevice<D>| {
        let chip = d.inner().base().chip();
        let root = xftl_verify::newest_root(chip).unwrap();
        window.saturating_sub(chip.next_seq() - 1 - root.ckpt_seq)
    };
    let mut i = 0u64;
    for root in 0..=behind {
        // (The atomic-write personality roots itself every few writes and
        // never gets near: it takes a window's worth of them.)
        let stop = i + window;
        while until_due(&dev) > 6 && i < stop {
            dev.write(i * 37 % 160, &vec![(i % 200) as u8 + 1; ps])
                .unwrap();
            i += 1;
        }
        if root < behind {
            // The group that crosses it (X-FTL asks at a commit only).
            let before = dev.inner().base().stats().checkpoints;
            let pages: Vec<_> = (0..8).map(|lpn| (lpn, Fill(0xDD))).collect();
            D::group(&mut dev, 1_000 + root, &pages).unwrap();
            assert!(dev.inner().base().stats().checkpoints > before);
        }
    }
    dev
}

/// Two groups of eight pages across the first cadence root and across
/// the second, every cut, under each GC policy.
fn sweep_cadence_roots<D: common::Swept>(name: &str) {
    use xftl_ftl::GcPolicy;
    for policy in [GcPolicy::Greedy, GcPolicy::Fifo, GcPolicy::CostBenefit] {
        for behind in [0, 1] {
            let build = || cadence_dev::<D>(policy, behind);
            let mut dev = build();
            let (s, _) = common::sweep(build, &common::fill_groups(&dev, 2, 8));
            // More roots than the groups' own flushes account for.
            let flushes = if D::tx(&mut dev).is_some() { 0 } else { 2 };
            assert!(
                s.checkpoints > flushes,
                "{name}/{policy:?}/{behind}: no cadence root in the swept groups"
            );
        }
    }
}

#[test]
fn cadence_roots_survive_every_cut_pagemap() {
    sweep_cadence_roots::<PageMappedFtl>("pagemap");
}

#[test]
fn cadence_roots_survive_every_cut_atomicwrite() {
    // Single-page groups release their records — a checkpoint — every
    // four writes on this geometry, long before the window fills: these
    // are the roots the sweep cuts. `a_group_that_fills_the_window…`
    // below does fill it, with three large groups.
    sweep_cadence_roots::<xftl_ftl::AtomicWriteFtl>("atomicwrite");
}

#[test]
fn cadence_roots_survive_every_cut_xftl() {
    sweep_cadence_roots::<XFtl>("xftl");
}

/// The atomic-write personality has a group open only inside one call,
/// so its cadence root can only follow a seal — and a commit record names
/// at most a page's worth of pages, so it takes groups near that size to
/// fill the window before the record cap forces a root anyway. Three
/// groups of 100 pages (1 KB pages: a record holds 125) do: the third is
/// sealed, then rooted, and at every cut of it — its pages, its record,
/// the translation pages, the root — it is whole or absent and the two
/// before it are whole.
#[test]
fn a_group_that_fills_the_window_is_sealed_then_rooted_at_every_cut() {
    use xftl_ftl::{AtomicWriteFtl, BlockDevice};
    const GROUP: u64 = 100;
    let fills = [0xA1u8, 0xA2, 0xA3];
    let write_group = |dev: &mut AtomicWriteFtl, g: u64| {
        let page = vec![fills[g as usize]; dev.page_size()];
        let pages: Vec<(u64, &[u8])> = (g * GROUP..(g + 1) * GROUP)
            .map(|lpn| (lpn, &page[..]))
            .collect();
        dev.write_atomic(&pages)
    };
    let build = || {
        let cfg = xftl_flash::FlashConfigBuilder::tiny()
            .blocks(64)
            .page_size(1024)
            .build();
        let mut dev = AtomicWriteFtl::format(FlashChip::new(cfg, SimClock::new()), 320).unwrap();
        write_group(&mut dev, 0).unwrap();
        write_group(&mut dev, 1).unwrap();
        assert_eq!(
            dev.base().stats().checkpoints,
            0,
            "two records, half a window"
        );
        dev
    };
    let run = |dev: &mut AtomicWriteFtl, _| {
        let before = dev.base().flash_stats();
        let sealed = write_group(dev, 2).is_ok();
        let after = dev.base().flash_stats();
        let programs = after.programs - before.programs;
        (
            sealed,
            *dev.base().stats(),
            programs,
            after.erases - before.erases,
        )
    };
    let (cuts, (_, s, programs, erases)) =
        common::power_cuts(build, run, |dev, &(sealed, ..), fuse| {
            assert_eq!(sealed, fuse.is_none(), "fuse {fuse:?}");
            let sealed = fuse.is_none_or(|fuse| fuse > GROUP + 1);
            let mut expect: Vec<u8> = (0..3 * GROUP)
                .map(|lpn| fills[(lpn / GROUP) as usize])
                .collect();
            if !sealed {
                expect[2 * GROUP as usize..].fill(0);
            }
            assert_image(dev, &expect, &format!("fuse {fuse:?}"));
        });
    assert!(3 * (GROUP + 1) > 32 * build().base().pages_per_block() as u64);
    assert_eq!((s.commit_record_writes, s.checkpoints), (3, 1));
    assert_eq!(programs, GROUP + 1 + s.map_writes + 1);
    assert_eq!(cuts, programs + erases);
}

// --- GC under a group not yet sealed ----------------------------------------
// The atomic-write personality keeps the pages of a group not yet sealed
// in a list of its own (`RecordHook`) until the seal folds them into the
// mapping; when GC moves one of those pages the
// list must follow it, or the seal folds a page GC erased. A group longer
// than a block, written on a full FIFO device, sees its own first block
// collected before it is sealed: FIFO requeues the fully valid blocks of
// the fill, so the first victim is the block the group starts in, which
// overwrites issued before the seal leave part invalid.

/// Tiny blocks of the group sweeps' FIFO device.
const SEAL_BLOCKS: usize = 24;
/// Logical pages of the group sweeps.
const SEAL_LOGICAL: u64 = 120;

/// A [`SEAL_BLOCKS`]-block FIFO atomic-write device exporting
/// [`SEAL_LOGICAL`] pages, nothing written.
fn sealing_dev() -> xftl_ftl::AtomicWriteFtl {
    let chip = FlashChip::new(FlashConfig::tiny(SEAL_BLOCKS), SimClock::new());
    let mut dev = xftl_ftl::AtomicWriteFtl::format(chip, SEAL_LOGICAL).unwrap();
    dev.base_mut().set_gc_policy(xftl_ftl::GcPolicy::Fifo);
    dev
}

/// True if GC moved a data page `tid` wrote before its group was sealed:
/// the group programs its pages in ascending page order, and a copy
/// keeps the tid under a newer program sequence (the seal's fold
/// re-stamps no copy made before it).
fn gc_moved_a_page_of(chip: &FlashChip, tid: u64) -> bool {
    use xftl_flash::{PageKind, PageProbe, Ppa};
    let geometry = chip.config().geometry;
    let mut pages: Vec<(u64, u64)> = Vec::new();
    for block in 0..geometry.blocks as u32 {
        for page in 0..geometry.pages_per_block as u32 {
            if let PageProbe::Programmed(oob) = chip.probe_silent(Ppa::new(block, page)) {
                if oob.kind == PageKind::Data && oob.tid == tid {
                    pages.push((oob.lpn, oob.seq));
                }
            }
        }
    }
    pages.sort_unstable();
    pages.windows(2).any(|w| w[0].1 > w[1].1)
}

/// An atomic group of 36 pages, four and a half blocks, written in one
/// call on the FIFO device after seven writes of one page in the last
/// fill group left the open block mostly invalid: GC collects that
/// block, and the group's first page in it, before the group's record
/// seals it. At every cut the group reads whole or absent, and the fill
/// intact.
#[test]
fn an_atomic_group_gc_moves_before_its_seal_survives_every_cut() {
    use xftl_ftl::{AtomicWriteFtl, BlockDevice};
    const GROUP: u64 = 36;
    const FILLED: u64 = 104;
    let old = vec![0xEEu8; 512];
    let new: Vec<Vec<u8>> = (0..GROUP).map(|lpn| vec![0x80 + lpn as u8; 512]).collect();
    let build = || {
        let mut dev = sealing_dev();
        let fill = |lpns: &mut dyn Iterator<Item = u64>| -> Vec<(u64, &[u8])> {
            lpns.map(|lpn| (lpn, &old[..])).collect()
        };
        dev.write_atomic(&fill(&mut (0..40))).unwrap();
        dev.write_atomic(&fill(&mut (40..80))).unwrap();
        dev.write_atomic(&fill(&mut (80..FILLED).chain([FILLED; 7])))
            .unwrap();
        dev
    };
    let run = |dev: &mut AtomicWriteFtl, _| {
        let pages: Vec<(u64, &[u8])> = (0..GROUP)
            .map(|lpn| (lpn, &new[lpn as usize][..]))
            .collect();
        let sealed = dev.write_atomic(&pages);
        let moved = (sealed.as_ref()).is_ok_and(|&tid| gc_moved_a_page_of(dev.base().chip(), tid));
        (sealed.is_ok(), moved, *dev.base().stats())
    };
    let (cuts, (_, moved, s)) = common::power_cuts(build, run, |dev, &(sealed, ..), fuse| {
        let mut buf = vec![0u8; dev.page_size()];
        dev.read(0, &mut buf).unwrap();
        let whole = buf == new[0];
        assert!(whole || !sealed, "fuse {fuse:?}: a sealed group lost");
        for lpn in 0..SEAL_LOGICAL {
            dev.read(lpn, &mut buf).unwrap();
            let want = match lpn {
                _ if lpn < GROUP && whole => new[lpn as usize][0],
                0..=FILLED => 0xEE,
                _ => 0,
            };
            assert!(
                buf.iter().all(|&b| b == want),
                "fuse {fuse:?}: lpn {lpn} holds {:#x}, expected {want:#x}",
                buf[0]
            );
        }
        whole
    });
    assert!(moved, "GC moved no page of the group before its seal");
    assert!(s.gc_copies > 0 && cuts > GROUP, "{cuts} cuts, {s:?}");
}

/// DESIGN.md §5.2's repro of the mapping-page window, closed —
/// `PageMappedFtl`, 56 tiny blocks exporting 384 pages behind a 2-slab
/// cache, every page written and flushed ([`tight_dev`]'s device under
/// the plain personality), then 300 writes of [`churn`]'s schedule and no
/// acknowledgement, so no background step. Until translation pages
/// certified themselves 119 of these cuts (2,239 then) left a chip
/// `recover` refused with `ReadErased`: GC erased a victim before the
/// root naming a relocated translation page was written. Every cut
/// recovers now, and behind the oracle every page reads `OLD` or an
/// overwrite issued before the cut, acknowledged ones for sure.
#[test]
fn mapping_page_window_is_closed() {
    use xftl_ftl::BlockDevice;
    let overwrite = |dev: &mut PlainDev, i: u64| {
        let (lpn, fill) = churn_write(i);
        dev.write(lpn, &vec![fill; dev.page_size()])
    };
    let run = |dev: &mut PlainDev, _| {
        let cut = (0..300).any(|i| overwrite(dev, i).is_err());
        (cut, *dev.inner().base().stats())
    };
    let (cuts, (_, s)) = common::power_cuts(tight_dev, run, |_, &(cut, _), fuse| {
        assert_eq!(cut, fuse.is_some(), "fuse {fuse:?}");
    });
    assert_eq!(s.gc_background_steps, 0);
    assert!(s.gc_map_runs > 0 && s.gc_copies > s.gc_valid_pages);
    assert_eq!(cuts, 1583);
}

// --- page differentials -----------------------------------------------------
// A small update commits as a differential inside the X-L2P table image
// (DESIGN.md §5.2, "Differentials"). The schedule below cuts the power at
// every program and erase of small updates to a few hot pages, whole
// rewrites and plain overwrites of them, cold pages committed whole
// whose entries fill the image, checkpoints between an image and
// the cut, GC moving the bases (FIFO brings every block round), and the
// merges that leave the next table image room.

/// Logical pages of the differential sweep; the first six are hot.
const DIFF_LOGICAL: u64 = 120;
const DIFF_HOT: u64 = 6;

/// Page `lpn` as the differential sweep's device starts.
fn diff_initial(lpn: u64, ps: usize) -> Vec<u8> {
    (0..ps).map(|i| (i as u64 * 13 + lpn) as u8).collect()
}

/// A 24-block FIFO device with a 64-entry table: the hot pages committed
/// whole (so their images are cached), the rest written plain, all of it
/// checkpointed.
fn diff_dev() -> ShadowDevice<XFtl> {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(24), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format_with_capacity(chip, DIFF_LOGICAL, 64).unwrap());
    dev.inner_mut()
        .base_mut()
        .set_gc_policy(xftl_ftl::GcPolicy::Fifo);
    let ps = dev.page_size();
    for lpn in 0..DIFF_HOT {
        dev.write_tx(1000, lpn, &diff_initial(lpn, ps)).unwrap();
    }
    dev.commit(1000).unwrap();
    for lpn in DIFF_HOT..DIFF_LOGICAL {
        dev.write(lpn, &diff_initial(lpn, ps)).unwrap();
    }
    dev.flush().unwrap();
    dev
}

/// The differential-heavy schedule over [`diff_dev`]'s pages, the host
/// thinking after every group.
fn diff_schedule(ps: usize) -> Vec<DevOp> {
    let mut image: Vec<Vec<u8>> = (0..DIFF_LOGICAL).map(|lpn| diff_initial(lpn, ps)).collect();
    let mut ops = Vec::new();
    let patch = |image: &mut Vec<Vec<u8>>, lpn: u64, at: usize, byte: u8| {
        let page = &mut image[lpn as usize];
        page[at % (ps - 4)..][..3].fill(byte);
        (lpn, Image(page.clone()))
    };
    // Page 5 changes once, first, and is left alone: its differential
    // only ages.
    let pages = vec![patch(&mut image, 5, 40, 0xE5)];
    ops.push(DevOp::Group { tid: 1, pages });
    for i in 0..40u64 {
        let tid = i + 2;
        let byte = i as u8 ^ 0x5A;
        let (a, b) = (i % 5, (i * 3 + 1) % 5);
        let mut pages = vec![patch(&mut image, a, (i * 7) as usize, byte)];
        if b != a {
            pages.push(patch(&mut image, b, (i * 11 + 3) as usize, !byte));
        }
        for k in (1..3).filter(|_| i > 0) {
            // Cold pages the plain writes below passed last time, not
            // cached: written whole, their entries wait in the image for
            // the checkpoint.
            let lpn = DIFF_HOT + (3 * i - k) % (DIFF_LOGICAL - DIFF_HOT);
            pages.push(patch(&mut image, lpn, 0, byte));
        }
        if i % 7 == 3 {
            // Past the limit: the page is written whole.
            let page: Vec<u8> = (0..ps).map(|j| (j as u64 * 7 + i) as u8).collect();
            image[4] = page.clone();
            pages.push((4, Image(page)));
        }
        ops.push(DevOp::Group { tid, pages });
        if i % 11 == 5 {
            // A plain overwrite of a page with a live differential.
            let (lpn, page) = patch(&mut image, a, 200, 0x11);
            ops.push(DevOp::PlainWrite { lpn, page });
        }
        if i % 13 == 6 {
            ops.push(DevOp::Flush);
        }
        for k in 0..3 {
            let lpn = DIFF_HOT + (i * 3 + k) % (DIFF_LOGICAL - DIFF_HOT);
            let (lpn, page) = patch(&mut image, lpn, 0, i as u8);
            ops.push(DevOp::PlainWrite { lpn, page });
        }
    }
    thinking(ops)
}

/// Replays `ops` uncut and counts what the sweep must cut around: the
/// checkpoints taken over a live differential, and the bases GC moved
/// under one.
fn diff_events(ops: &[DevOp]) -> (usize, usize) {
    let mut dev = diff_dev();
    let (mut run, mut seen) = (common::Run::default(), common::Exercised::default());
    let (mut checkpoints, mut moved) = (0, 0);
    for op in ops {
        let bases: Vec<(u64, xftl_flash::Ppa)> = (dev.inner().xl2p().live_diffs())
            .map(|(lpn, live)| (lpn, live.base))
            .collect();
        let (ckpts, merges) = {
            let s = dev.inner().base().stats();
            (s.checkpoints, s.merges_size_after + s.merges_room)
        };
        run.issue(&mut dev, op, &mut seen).unwrap();
        let written: Vec<u64> = match op {
            DevOp::Group { pages, .. } => pages.iter().map(|(lpn, _)| *lpn).collect(),
            DevOp::PlainWrite { lpn, .. } => vec![*lpn],
            _ => Vec::new(),
        };
        let s = dev.inner().base().stats();
        if s.checkpoints > ckpts && !bases.is_empty() {
            checkpoints += 1;
        }
        let table = dev.inner().xl2p();
        moved += (bases.iter())
            .filter(|(lpn, base)| {
                !written.contains(lpn)
                    && s.merges_size_after + s.merges_room == merges
                    && table.live(*lpn).is_some_and(|l| l.base != *base)
            })
            .count();
    }
    (checkpoints, moved)
}

#[test]
fn differentials_survive_every_cut() {
    use xftl_ftl::BlockDevice;
    let ops = diff_schedule(diff_dev().page_size());
    let (checkpoints, moved) = diff_events(&ops);
    assert!(checkpoints > 0, "no checkpoint over a live differential");
    assert!(moved > 0, "GC moved no base");
    let (stats, cuts) = common::sweep(diff_dev, &ops);
    assert!(stats.diff_writes >= 60, "{stats:?}");
    assert!(stats.merges_size_before > 0, "no whole rewrite");
    assert!(stats.merges_room > 0, "no page merged to make room");
    assert!(cuts > 150, "{cuts} cuts");
}

/// Updates that move bytes within a page, as a B-tree insert or delete
/// does: each differential copies the moved tail from another offset of
/// its base, and a page moved often enough is written whole. Cut at every
/// program and erase, beside plain overwrites and a checkpoint.
#[test]
fn shifted_differentials_survive_every_cut() {
    use xftl_ftl::BlockDevice;
    let ps = diff_dev().page_size();
    let mut image: Vec<Vec<u8>> = (0..DIFF_LOGICAL).map(|lpn| diff_initial(lpn, ps)).collect();
    let mut ops = Vec::new();
    for i in 0..24u64 {
        let (lpn, at, len) = (
            i % DIFF_HOT,
            (i * 37 % 300) as usize + 20,
            (i % 4) as usize + 2,
        );
        let page = &mut image[lpn as usize];
        if i % 3 == 2 {
            // A delete: the tail moves left, the page ends in filler.
            page.drain(at..at + len);
            page.resize(ps, 0xF0 | i as u8);
        } else {
            // An insert: the tail moves right, its last bytes drop off.
            page.splice(at..at, (0..len).map(|k| (i + k as u64) as u8 | 0x80));
            page.truncate(ps);
        }
        let pages = vec![(lpn, Image(page.clone()))];
        ops.push(DevOp::Group { tid: i + 1, pages });
        if i % 8 == 5 {
            let lpn = DIFF_HOT + i;
            image[lpn as usize][0] ^= 0xFF;
            let page = Image(image[lpn as usize].clone());
            ops.push(DevOp::PlainWrite { lpn, page });
        }
        if i == 12 {
            ops.push(DevOp::Flush);
        }
    }
    let (stats, cuts) = common::sweep(diff_dev, &thinking(ops));
    assert!(stats.diff_copies >= 8, "{stats:?}");
    assert!(
        stats.merges_size_before + stats.merges_size_after > 0,
        "no page moved past the limit: {stats:?}"
    );
    assert!(cuts > 30, "{cuts} cuts");
}

/// Six hot pages each carry a live differential while transactions
/// commit pages of their own written whole: the entries grow until the
/// next table image would lack room, and the next command after the
/// host's think merges the differential with the most bytes × commits
/// first — a whole write back-dated into the gap. Every program and erase
/// is cut, the one between the image and that merge among them.
#[test]
fn a_room_merge_after_a_group_flush_survives_every_cut() {
    use xftl_ftl::BlockDevice;
    let ps = diff_dev().page_size();
    let mut ops = Vec::new();
    for lpn in 0..DIFF_HOT {
        let mut page = diff_initial(lpn, ps);
        page[40 + lpn as usize * 50..][..8 + lpn as usize * 3].fill(0xB0 | lpn as u8);
        let pages = vec![(lpn, Image(page))];
        ops.push(DevOp::Group {
            tid: lpn + 1,
            pages,
        });
    }
    for i in 0..24u64 {
        let lpn = DIFF_HOT + 10 + i;
        let page: Vec<u8> = (0..ps).map(|j| (j as u64 * 5 + i) as u8).collect();
        let pages = vec![(lpn, Image(page))];
        ops.push(DevOp::Group {
            tid: 100 + i,
            pages,
        });
    }
    let (stats, cuts) = common::sweep(diff_dev, &thinking(ops));
    assert!(stats.merges_room >= 2, "{stats:?}");
    assert!(cuts > 20, "{cuts} cuts");
}

/// Commits whose differentials pass the limit but not the cap, one or two
/// to a commit: each rides its commit's table image and is merged — a
/// whole write — in the host's think time after the durability point.
/// Every program and erase is cut, those between an image and its size
/// merges among them; none is written whole before its image.
#[test]
fn a_size_merge_after_the_image_survives_every_cut() {
    use xftl_ftl::BlockDevice;
    let ps = diff_dev().page_size();
    let mut image: Vec<Vec<u8>> = (0..DIFF_LOGICAL).map(|lpn| diff_initial(lpn, ps)).collect();
    let mut ops = Vec::new();
    for i in 0..12u64 {
        let hot = [i % DIFF_HOT, (i + 2) % DIFF_HOT];
        let mut pages = Vec::new();
        for &lpn in &hot[..if i % 3 == 0 { 2 } else { 1 }] {
            // 40 to 99 bytes in place: past the 32-byte limit of a
            // 512-byte page, within its 128-byte cap.
            let len = 40 + (i as usize * 13) % 60;
            let at = (i as usize * 29 + lpn as usize * 7) % (ps - len);
            let page = &mut image[lpn as usize];
            page[at..at + len].fill(0x80 | i as u8);
            pages.push((lpn, Image(page.clone())));
        }
        ops.push(DevOp::Group { tid: i + 1, pages });
    }
    let (stats, cuts) = common::sweep(diff_dev, &thinking(ops));
    assert!(stats.merges_size_after >= 2, "{stats:?}");
    assert_eq!(stats.merges_size_before, 0, "{stats:?}");
    assert!(cuts > 20, "{cuts} cuts");
}

/// Groups of size merges — three differentials past the limit to a
/// commit — each followed by a think that lets none, some or all of the
/// pending merges run before the next command, a plain write: what a
/// gap leaves stays live, the next image carries it, and a later gap
/// takes it up. Every program and erase is cut, each merge back-dated
/// into a gap among them.
#[test]
fn gap_merges_survive_every_cut() {
    use xftl_core::diff::limit_for;
    use xftl_ftl::BlockDevice;
    let dev = diff_dev();
    let (ps, program_ns) = (
        dev.page_size(),
        dev.inner().base().chip().config().timings.program_ns,
    );
    let thinks = [0, program_ns * 3 / 2, THINK_NS];
    let mut image: Vec<Vec<u8>> = (0..DIFF_LOGICAL).map(|lpn| diff_initial(lpn, ps)).collect();
    let mut ops = Vec::new();
    for i in 0..12u64 {
        let mut pages = Vec::new();
        for k in 0..3 {
            let lpn = (i + k) % DIFF_HOT;
            // 40 to 63 bytes in place: past the limit, within the cap.
            let len = 40 + (i as usize * 7 + k as usize * 5) % 24;
            let at = (i as usize * 31 + k as usize * 97) % (ps - len);
            let page = &mut image[lpn as usize];
            page[at..at + len].fill(0x40 | (i * 3 + k) as u8);
            pages.push((lpn, Image(page.clone())));
        }
        ops.push(DevOp::Group { tid: i + 1, pages });
        ops.push(DevOp::Think(thinks[i as usize % thinks.len()]));
        let lpn = DIFF_HOT + i;
        image[lpn as usize][0] ^= 0xFF;
        let page = Image(image[lpn as usize].clone());
        ops.push(DevOp::PlainWrite { lpn, page });
    }
    // Then groups back to back, each a small differential of a hot page
    // beside a page written whole: the entries and records fill the
    // image until merges run though the next command has arrived.
    for i in 0..24u64 {
        let hot = i % DIFF_HOT;
        let page = &mut image[hot as usize];
        page[(i as usize * 41) % (ps - 12)..][..4 + i as usize % 8].fill(0x90 | i as u8);
        let page = Image(page.clone());
        let cold = DIFF_HOT + 20 + i;
        let whole: Vec<u8> = (0..ps).map(|j| (j as u64 * 3 + i) as u8).collect();
        image[cold as usize] = whole.clone();
        let pages = vec![(hot, page), (cold, Image(whole))];
        ops.push(DevOp::Group {
            tid: 100 + i,
            pages,
        });
    }
    ops.push(DevOp::Think(THINK_NS));
    ops.push(DevOp::Flush);
    // Uncut, the gaps before the plain writes that found merges pending
    // ran none, some and all of them.
    let pending = |dev: &ShadowDevice<XFtl>| {
        (dev.inner().xl2p().live_diffs())
            .filter(|(_, live)| live.diff.encoded_len() > limit_for(ps))
            .count()
    };
    let merged = |dev: &ShadowDevice<XFtl>| dev.inner().base().stats().merges_size_after;
    let mut dev = diff_dev();
    let (mut run, mut seen) = (common::Run::default(), common::Exercised::default());
    let mut gaps = [0u32; 3];
    for op in &ops {
        let (found, before) = (pending(&dev), merged(&dev));
        run.issue(&mut dev, op, &mut seen).unwrap();
        if let (DevOp::PlainWrite { .. }, true) = (op, found > 0) {
            let ran = merged(&dev) > before;
            gaps[usize::from(ran) + usize::from(ran && pending(&dev) == 0)] += 1;
        }
    }
    assert!(gaps.iter().all(|&n| n > 0), "none, some, all: {gaps:?}");
    let uncut = dev.inner().base().stats();
    assert!(uncut.merges_forced > 0, "{uncut:?}");
    let (stats, cuts) = common::sweep(diff_dev, &ops);
    assert!(stats.merges_size_after >= 12, "{stats:?}");
    assert!(stats.gap_merges_left > 0, "{stats:?}");
    assert!(cuts > 30, "{cuts} cuts");
}

/// Cuts the recovery of a chip whose live image carries differentials at
/// every program and erase `XFtl::recover` makes after its scan — the
/// image's folds, the differentials restored, the closing checkpoint
/// that keeps the image — and recovers each cut again: the oracle reads
/// every page's committed bytes.
#[test]
fn a_cut_recovery_keeps_the_differentials() {
    use xftl_ftl::BlockDevice;
    let ops = diff_schedule(diff_dev().page_size());
    // Stop short of the last group, with differentials live.
    let ops = &ops[..ops.len() - 9];
    let build = || {
        let mut dev = diff_dev();
        let (mut run, mut seen) = (common::Run::default(), common::Exercised::default());
        for op in ops {
            run.issue(&mut dev, op, &mut seen).unwrap();
        }
        assert!(dev.inner().xl2p().live_len() > 0);
        common::Scanned::new(dev)
    };
    let run = |s: &mut common::Scanned<XFtl>, _| (s.run().is_ok(), s.dev.xl2p().live_len());
    let (cuts, (_, live)) = common::power_cuts(build, run, |dev, &(done, _), fuse| {
        assert_eq!(done, fuse.is_none(), "fuse {fuse:?}");
        common::image(dev)
    });
    assert!(live > 0, "recovery restores the differentials");
    assert!(cuts >= 2, "{cuts} cuts");
}

/// A differential undone by a rewrite of its base bytes, then a
/// checkpoint: the commit that undid it (a zero-byte differential)
/// leaves no live one, so the checkpoint keeps no image, and the image
/// that carried it is dead. A cut after the checkpoint — in a plain
/// write, or in the next image, torn — must not bring it back.
#[test]
fn an_undone_differential_stays_undone_past_a_checkpoint() {
    use xftl_ftl::BlockDevice;
    let ps = diff_dev().page_size();
    let patch = |lpn: u64, at: usize, byte: u8| {
        let mut page = diff_initial(lpn, ps);
        page[at..at + 3].fill(byte);
        Image(page)
    };
    let ops = [
        DevOp::Group {
            tid: 1,
            pages: vec![(3, patch(3, 100, 0xD3))],
        },
        DevOp::Group {
            tid: 2,
            pages: vec![(3, Image(diff_initial(3, ps)))],
        },
        // A plain write leaves the mapping dirty: the flush checkpoints.
        DevOp::PlainWrite {
            lpn: 60,
            page: patch(60, 9, 0x60),
        },
        DevOp::Flush,
        DevOp::PlainWrite {
            lpn: 50,
            page: patch(50, 9, 0x50),
        },
        DevOp::Group {
            tid: 3,
            pages: vec![(2, patch(2, 7, 0x77))],
        },
        DevOp::PlainWrite {
            lpn: 51,
            page: patch(51, 9, 0x51),
        },
    ];
    let (stats, cuts) = common::sweep(diff_dev, &ops);
    assert_eq!(stats.diff_writes, 3, "{stats:?}");
    assert_eq!(stats.diff_size_hist[0], 1, "one zero-byte differential");
    assert_eq!(stats.checkpoints, 1, "{stats:?}");
    assert!(cuts >= 4, "{cuts} cuts");
}
