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
use xftl_flash::{FaultPlan, FlashChip, FlashConfig, SimClock};
use xftl_fs::{FileSystem, FsConfig, JournalMode};
use xftl_ftl::{FtlBase, PageMappedFtl, Personality};
use xftl_verify::ShadowDevice;
use xftl_workloads::AnyDev;

mod common;

const BLOCKS: usize = 300;
const LOGICAL: u64 = 2_200;

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

/// Runs the fixed schedule with a fuse armed after `fuse` operations.
/// Returns the number of batches confirmed committed before the power
/// died (commits that returned success), or None if the whole schedule
/// finished without tripping the fuse.
fn run_until_crash(
    fs: &Rc<RefCell<FileSystem<Dev>>>,
    mode: DbJournalMode,
    fuse: u64,
) -> (u32, bool) {
    let Ok(mut db) = Connection::open(Rc::clone(fs), "m.db", mode) else {
        return (0, true); // fuse tripped during open/recovery
    };
    if db
        .execute("CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY, batch INT)")
        .is_err()
    {
        return (0, true);
    }
    // Arm the fuse only after setup, so every position lands inside the
    // measured batches.
    base_mut(fs.borrow_mut().device_mut())
        .chip_mut()
        .arm_power_fuse(fuse);
    let mut committed = 0u32;
    for batch in 0..12i64 {
        let run = (|| -> Result<(), xftl_db::DbError> {
            db.execute("BEGIN")?;
            for k in 0..4i64 {
                db.execute_with(
                    "INSERT INTO t VALUES (?, ?)",
                    &[Value::Int(batch * 4 + k + 1), Value::Int(batch)],
                )?;
            }
            db.execute("COMMIT")?;
            Ok(())
        })();
        match run {
            Ok(()) => committed += 1,
            Err(_) => return (committed, true),
        }
    }
    (committed, false)
}

fn crash_sweep(mode: DbJournalMode) {
    // Establish the total number of flash ops a clean run needs.
    let (fs, _clock) = build(mode);
    let (full_batches, crashed) = run_until_crash(&fs, mode, u64::MAX / 2);
    assert!(!crashed);
    assert_eq!(full_batches, 12);
    let total_ops = {
        let flash = base_mut(fs.borrow_mut().device_mut()).flash_stats();
        flash.programs + flash.erases
    };
    // Sweep fuse positions across the whole run.
    let step = (total_ops / 60).max(1);
    let mut positions_tested = 0;
    let mut fuse = 3u64;
    while fuse < total_ops {
        let (fs, _clock) = build(mode);
        let (committed, crashed) = run_until_crash(&fs, mode, fuse);
        if crashed {
            positions_tested += 1;
            // Power-cycle and recover the device, remount, reopen.
            let fs_inner = Rc::try_unwrap(fs).expect("sole owner").into_inner();
            let dev = fs_inner.into_device();
            let dev = match dev {
                Dev::Plain(d) => Dev::Plain(common::recover(d)),
                Dev::X(d) => Dev::X(common::recover(d)),
            };
            let fs = if mode == DbJournalMode::Off {
                FileSystem::mount_tx(dev, JournalMode::Off, 256)
            } else {
                FileSystem::mount(dev, JournalMode::Ordered, 256)
            }
            .unwrap();
            let fs = Rc::new(RefCell::new(fs));
            let mut db = Connection::open(fs, "m.db", mode).unwrap();
            let rows = db
                .query("SELECT COUNT(*), MAX(batch) FROM t")
                .unwrap_or_else(|e| panic!("{mode:?} fuse {fuse}: query failed: {e}"));
            let count = rows[0][0].as_i64().unwrap();
            // Every acknowledged commit must be intact; one extra batch may
            // or may not have survived (the crash happened inside it), but
            // it must be complete if present (multiples of 4 rows).
            assert!(
                count == committed as i64 * 4 || count == (committed as i64 + 1) * 4,
                "{mode:?} fuse {fuse}: {count} rows after {committed} acknowledged batches"
            );
            assert_eq!(count % 4, 0, "{mode:?} fuse {fuse}: torn batch visible");
        }
        fuse += step;
    }
    assert!(
        positions_tested > 20,
        "{mode:?}: sweep covered too few crash points"
    );
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
        recovery_cuts::<xftl_ftl::TxFlashFtl>("txflash", 5),
        recovery_cuts::<XFtl>("xftl", 5),
    ];
    // Every personality but the plain one folded commit evidence of its
    // own: open records, closed cycles, a live table image.
    assert!(
        evidence[0] == 0 && evidence[1..].iter().all(|n| *n > 0),
        "{evidence:?}"
    );
}

/// The image [`recovery_cuts`] recovers, and every page's last
/// acknowledged fill: flushed churn (closed data blocks under roots: the
/// scan skips them), four acknowledged groups, and a tail of plain writes
/// over all four slabs no root covers (the atomic-write FTL's record cap
/// checkpoints all but its last few writes) — so the replay dirties slabs
/// and the closing checkpoint has translation pages to write before its
/// root, and what the groups and the tail left of each personality's
/// commit evidence is live.
fn recovery_cut_image<P: common::Swept>() -> (ShadowDevice<P>, Vec<u8>) {
    use xftl_ftl::BlockDevice;
    let chip = FlashChip::new(FlashConfig::tiny(56), SimClock::new());
    let mut dev = ShadowDevice::new(P::format(chip, 256).unwrap());
    let ps = dev.page_size();
    let mut expect = vec![0u8; 256];
    let write = |dev: &mut ShadowDevice<P>, expect: &mut [u8], i: u64| {
        let (lpn, fill) = (i * 37 % 256, (i % 250) as u8 + 1);
        dev.write(lpn, &vec![fill; ps]).unwrap();
        expect[lpn as usize] = fill;
    };
    for i in 0..600u64 {
        write(&mut dev, &mut expect, i);
        if i % 100 == 99 {
            dev.flush().unwrap();
        }
    }
    for g in 0..4u64 {
        let pages: Vec<_> = (0..3)
            .map(|k| (g * 64 + 10 + k, vec![0xA0 + g as u8; ps]))
            .collect();
        P::group(&mut dev, g + 1, &pages).unwrap();
        for (lpn, data) in &pages {
            expect[*lpn as usize] = data[0];
        }
    }
    for i in 600..630u64 {
        write(&mut dev, &mut expect, i);
    }
    (dev, expect)
}

/// Cuts `P`'s recovery of [`recovery_cut_image`] at every program and
/// erase of its closing checkpoint, recovers each cut again behind the
/// oracle and the auditor, and holds every page to its last acknowledged
/// write. `recover` power-cycles the chip it is given, which disarms any
/// fuse, so the cut recovery is taken apart: the engine's scan, the fuse,
/// `P`'s folds, `finish_recovery`. The checkpoint must make at least
/// `min_cuts` programs and erases. Returns how many folds `P`'s own
/// commit evidence contributed.
fn recovery_cuts<P: common::Swept>(name: &str, min_cuts: u64) -> usize {
    use xftl_ftl::BlockDevice;
    let ops = |chip: &FlashChip| chip.stats().programs + chip.stats().erases;
    let image = recovery_cut_image::<P>().0.into_parts().0.into_chip();
    let uncut = P::recover(image.clone()).unwrap();
    let cuts = ops(uncut.base().chip()) - ops(&image);
    assert!(uncut.base().recovery().skipped_blocks > 0, "{name}");
    assert!(cuts >= min_cuts, "{name}: {cuts} cuts, under {min_cuts}");
    let (mut base, log) = FtlBase::recover(image).unwrap();
    let evidence = P::recovery_folds(&mut base, &log).unwrap().len();
    for fuse in 1..=cuts {
        let (dev, expect) = recovery_cut_image::<P>();
        let (inner, model) = dev.into_parts();
        let (mut base, log) = FtlBase::recover(inner.into_chip()).unwrap();
        base.chip_mut().arm_power_fuse(fuse);
        let folds = P::recovery_folds(&mut base, &log).unwrap();
        let died = base.finish_recovery(&log, folds);
        assert!(died.is_err(), "{name}: fuse {fuse} never fired");
        let again =
            P::recover(base.into_chip()).unwrap_or_else(|e| panic!("{name}: fuse {fuse}: {e:?}"));
        let mut again = common::resume(again, model);
        assert!(
            again.inner().base().recovery().skipped_blocks > 0,
            "{name}: fuse {fuse}"
        );
        let mut buf = vec![0u8; again.page_size()];
        for (lpn, fill) in expect.iter().enumerate() {
            again.read(lpn as u64, &mut buf).unwrap();
            assert!(
                buf.iter().all(|b| b == fill),
                "{name}: fuse {fuse}: lpn {lpn}"
            );
        }
    }
    evidence
}

// --- the X-L2P table image as commit evidence -----------------------------
// A commit is one queued table-image program and no root (DESIGN.md §5.1,
// "Commit evidence"): the tests below cut the power at every program of
// that path, relocate the image under GC, and retire it under GC.

const OLD: u8 = 0x11;
const NEW: u8 = 0x22;
const BALLAST: u8 = 0x33;

/// Every logical page of `dev` reads as `expect[lpn]` bytes.
fn assert_image(dev: &mut XDev, expect: &[u8], what: &str) {
    use xftl_ftl::BlockDevice;
    let mut buf = vec![0u8; dev.page_size()];
    for (lpn, byte) in expect.iter().enumerate() {
        dev.read(lpn as u64, &mut buf).unwrap();
        assert!(
            buf.iter().all(|b| b == byte),
            "{what}: lpn {lpn} holds {:#x}, expected {byte:#x}",
            buf[0]
        );
    }
}

/// A roomy 64-block device with `capacity` X-L2P slots, 64 pages of
/// `OLD` data under a checkpoint, and one committed transaction of
/// `ballast` pages the checkpoint does not cover: the live generation
/// every later one has to fall back on, and (31 entries to a tiny page)
/// what decides how many pages a table image has.
fn dev_with_live_generation(capacity: usize, ballast: u64) -> (XDev, Vec<u8>) {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(64), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format_with_capacity(chip, 128, capacity).unwrap());
    let ps = dev.page_size();
    let mut expect = vec![0u8; 128];
    for lpn in 0..64u64 {
        dev.write(lpn, &vec![OLD; ps]).unwrap();
        expect[lpn as usize] = OLD;
    }
    dev.flush().unwrap();
    let page = vec![BALLAST; ps];
    let batch: Vec<(u64, &[u8])> = (64..64 + ballast).map(|lpn| (lpn, &page[..])).collect();
    dev.submit_tx(100, &batch).unwrap();
    dev.commit(100).unwrap();
    expect[64..64 + ballast as usize].fill(BALLAST);
    (dev, expect)
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
/// the image is intact nothing of the schedule survives and the previous
/// generation (the ballast) does; one program later everything does.
/// Each recovery runs twice, and the second must change nothing.
fn sweep_commit_boundaries(
    capacity: usize,
    ballast: u64,
    image_pages: u64,
    written: usize,
    schedule: fn(&mut XDev) -> xftl_ftl::Result<()>,
) {
    let programs = written as u64 + image_pages;
    for fuse in 1..=programs + 1 {
        let (mut dev, mut expect) = dev_with_live_generation(capacity, ballast);
        assert_eq!(dev.inner().base().xl2p_roots().len() as u64, image_pages);
        let before = (
            dev.inner().base().flash_stats(),
            dev.inner().base().stats().meta_writes,
        );
        dev.inner_mut().base_mut().chip_mut().arm_power_fuse(fuse);
        let acked = schedule(&mut dev).is_ok();
        assert_eq!(
            acked,
            fuse > programs,
            "fuse {fuse}: the path is {programs} programs"
        );
        if acked {
            let after = dev.inner().base().flash_stats();
            assert_eq!(after.programs - before.0.programs, programs);
            assert_eq!(after.erases, before.0.erases);
            assert_eq!(dev.inner().base().stats().meta_writes, before.1, "no root");
            expect[..written].fill(NEW);
        }
        let what = format!("capacity {capacity}, fuse {fuse} of {programs}");
        let mut dev = common::recover(dev);
        assert_image(&mut dev, &expect, &what);
        let mut dev = common::recover(dev);
        assert_image(&mut dev, &expect, &format!("{what}, second recovery"));
        dev.audit();
    }
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
    let mut expect = vec![0u8; 48];
    for lpn in 0..16u64 {
        dev.write(lpn, &vec![OLD; ps]).unwrap();
        expect[lpn as usize] = OLD;
    }
    dev.flush().unwrap();
    for lpn in 0..4u64 {
        dev.write_tx(7, lpn, &vec![NEW; ps]).unwrap();
        expect[lpn as usize] = NEW;
    }
    dev.commit(7).unwrap();
    // Every erase fails from here on: plain overwrites (never a
    // checkpoint) drain the pool until the device goes read-only.
    dev.inner_mut().base_mut().chip_mut().set_fault_plan(
        FaultPlan::new(FAULT_SEED).trigger(FaultTrigger::new(FaultKind::EraseFail).sticky()),
    );
    for i in 0u64.. {
        let fill = (i % 100) as u8 + 0x40;
        match dev.write(8 + i % 8, &vec![fill; ps]) {
            Ok(()) => expect[8 + (i % 8) as usize] = fill,
            Err(e) => {
                assert_eq!(e, DevError::ReadOnly, "wrong end-of-life error");
                break;
            }
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
        assert_image(&mut dev, &expect, round);
    }
}

/// A 56-block device exporting 384 pages (6 slabs) behind a 2-slab
/// mapping cache, every page written and checkpointed: small enough that
/// evictions close the Map frontier over a live table image and GC has to
/// pick that block.
fn tight_dev() -> (XDev, Vec<u8>) {
    use xftl_ftl::BlockDevice;
    let cfg = xftl_flash::FlashConfigBuilder::tiny().blocks(56).build();
    let mut dev =
        ShadowDevice::new(XFtl::format(FlashChip::new(cfg, SimClock::new()), 384).unwrap());
    dev.inner_mut()
        .base_mut()
        .set_map_cache_budget(Some(2))
        .unwrap();
    let ps = dev.page_size();
    for lpn in 0..384u64 {
        dev.write(lpn, &vec![OLD; ps]).unwrap();
    }
    dev.flush().unwrap();
    (dev, vec![OLD; 384])
}

/// Plain overwrites `from..to` of a schedule striding across all six
/// slabs (never lpn `64 k`): every step misses the 2-slab cache, so
/// dirty evictions program translation pages and GC reclaims data and
/// mapping blocks alike.
fn churn(dev: &mut XDev, expect: &mut [u8], from: u64, to: u64) {
    use xftl_ftl::BlockDevice;
    let ps = dev.page_size();
    for i in from..to {
        let (lpn, fill) = churn_write(i);
        dev.write(lpn, &vec![fill; ps]).unwrap();
        expect[lpn as usize] = fill;
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
    let (mut dev, mut expect) = tight_dev();
    let ps = dev.page_size();
    dev.write_tx(1, 0, &vec![NEW; ps]).unwrap();
    dev.commit(1).unwrap();
    dev.write(0, &vec![0xD2; ps]).unwrap();
    expect[0] = 0xD2;
    let image = dev.inner().base().xl2p_roots().to_vec();
    assert_eq!(image.len(), 1);
    let mut steps = 0;
    while dev.inner().base().xl2p_roots() == image.as_slice() {
        assert!(steps < 4000, "GC never relocated the table image");
        churn(&mut dev, &mut expect, steps, steps + 1);
        steps += 1;
    }
    assert_eq!(
        dev.inner().base().xl2p_roots().len(),
        1,
        "relocated, still live"
    );
    let mut dev = common::recover(dev);
    assert_image(&mut dev, &expect, "after the relocated image folded");
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
        let mut expect = vec![OLD; 192];
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
            expect[lpn as usize] = NEW;
        }
        // Twelve plain writes (no acknowledgement, so no step) dirty the
        // third slab and open the two data blocks that take the pool
        // down to the inline floor.
        for lpn in [
            129u64, 137, 145, 153, 161, 169, 177, 185, 130, 138, 146, 154,
        ] {
            dev.write(lpn, &vec![BALLAST; ps]).unwrap();
            expect[lpn as usize] = BALLAST;
        }
        (dev, expect)
    };
    let ops =
        |d: &XDev| d.inner().base().flash_stats().programs + d.inner().base().flash_stats().erases;
    let (mut dev, _) = build();
    let image = dev.inner().base().xl2p_roots()[0];
    let (before, stats) = (ops(&dev), *dev.inner().base().stats());
    assert_eq!(
        (stats.gc_runs, stats.gc_background_steps),
        (0, 0),
        "nothing collected before the flush"
    );
    dev.flush().unwrap();
    let during = *dev.inner().base().stats() - stats;
    assert_eq!(
        (during.gc_inline_collections, during.gc_copies),
        (1, 1),
        "inline GC ran inside the checkpoint and moved one page: the image"
    );
    assert_eq!(
        dev.inner().base().chip().write_point(image.block),
        Some(0),
        "GC took the image's block inside the checkpoint"
    );
    assert_eq!(
        (during.gc_background_steps, during.gc_runs),
        (1, 2),
        "the closing step erased the block the checkpoint emptied"
    );
    let cuts = ops(&dev) - before;
    assert_eq!(cuts, 7, "slab, image copy, erase, slab, slab, root; erase");
    for fuse in 1..=cuts {
        let (mut dev, expect) = build();
        dev.inner_mut().base_mut().chip_mut().arm_power_fuse(fuse);
        assert!(dev.flush().is_err(), "fuse {fuse} must fire in the flush");
        let mut dev = common::recover(dev);
        assert_image(&mut dev, &expect, &format!("cut {fuse} of {cuts}"));
    }
}

/// Drive a commit into the power fuse so the X-L2P persist is torn
/// mid-program, then recover under the oracle: the transaction must
/// resolve all-or-nothing (the oracle's world-narrowing panics on a torn
/// commit) and the flash metadata must audit green afterwards.
#[test]
fn oracle_fuse_mid_commit_resolves_all_or_nothing() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 64).unwrap());
    let ps = dev.page_size();
    let old = vec![0x11u8; ps];
    let new = vec![0x22u8; ps];
    for lpn in 0..6u64 {
        dev.write(lpn, &old).unwrap();
    }
    dev.flush().unwrap();
    for lpn in 0..6u64 {
        dev.write_tx(3, lpn, &new).unwrap();
    }
    // The commit is one program, the X-L2P table page: a one-op fuse
    // tears it.
    dev.inner_mut().base_mut().chip_mut().arm_power_fuse(1);
    assert!(dev.commit(3).is_err(), "fuse must kill the commit");

    let mut dev = common::recover(dev);

    // Every page must land in the same world as the first one read.
    let mut buf = vec![0u8; ps];
    dev.read(0, &mut buf).unwrap();
    let world = buf[0];
    assert!(world == 0x11 || world == 0x22, "unknown world {world:#x}");
    for lpn in 1..6u64 {
        dev.read(lpn, &mut buf).unwrap();
        assert_eq!(buf[0], world, "torn commit: lpn {lpn} in another world");
    }
}

/// Power cut in the split-phase window: two transactions commit_submit
/// (visible, staged in the same group) but the power dies before any
/// commit_wait. No group flush ever ran, so the whole group must vanish —
/// the oracle carries both as in-doubt worlds across the cycle and the
/// recovered image must sit in the all-old world for every page.
#[test]
fn oracle_power_cut_between_submit_and_wait_loses_group() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 64).unwrap());
    let ps = dev.page_size();
    let old = vec![0x11u8; ps];
    let new = vec![0x22u8; ps];
    for lpn in 0..6u64 {
        dev.write(lpn, &old).unwrap();
    }
    dev.flush().unwrap();
    for lpn in 0..3u64 {
        dev.write_tx(3, lpn, &new).unwrap();
    }
    for lpn in 3..6u64 {
        dev.write_tx(4, lpn, &new).unwrap();
    }
    let a = dev.commit_submit(3).unwrap();
    let b = dev.commit_submit(4).unwrap();
    assert!(
        !a.is_immediate() && !b.is_immediate(),
        "X-FTL stages commits"
    );
    // Both are visible now, before any flush.
    let mut buf = vec![0u8; ps];
    dev.read(0, &mut buf).unwrap();
    assert_eq!(buf[0], 0x22, "submitted commit must be visible");

    // Power dies with the group staged: tickets a and b are never redeemed.
    let mut dev = common::recover(dev);

    // Nothing of the staged group was ever programmed durably.
    for lpn in 0..6u64 {
        dev.read(lpn, &mut buf).unwrap();
        assert_eq!(
            buf[0], 0x11,
            "unflushed group survived the crash: lpn {lpn}"
        );
    }
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
    let ps = dev.page_size();
    let new = vec![0x22u8; ps];
    for lpn in 0..3u64 {
        dev.write_tx(3, lpn, &new).unwrap();
    }
    for lpn in 3..6u64 {
        dev.write_tx(4, lpn, &new).unwrap();
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
    let mut dev = common::recover(dev);
    let mut buf = vec![0u8; ps];
    for lpn in 0..6u64 {
        dev.read(lpn, &mut buf).unwrap();
        assert_eq!(buf[0], 0x22, "coalesced commit lost lpn {lpn}");
    }
}

/// Fuse in the middle of a *group* flush: two staged commits share one
/// X-L2P persist, so a torn flush must take or lose them together — the
/// all-or-nothing unit is the group, not the transaction. The oracle's
/// in-doubt worlds (spilled when commit_wait fails) enforce exactly that
/// across the power cycle.
#[test]
fn oracle_fuse_mid_group_flush_is_all_or_nothing() {
    use xftl_ftl::{BlockDevice, TxBlockDevice};
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 64).unwrap());
    let ps = dev.page_size();
    let old = vec![0x11u8; ps];
    let new = vec![0x22u8; ps];
    for lpn in 0..6u64 {
        dev.write(lpn, &old).unwrap();
    }
    dev.flush().unwrap();
    for lpn in 0..3u64 {
        dev.write_tx(3, lpn, &new).unwrap();
    }
    for lpn in 3..6u64 {
        dev.write_tx(4, lpn, &new).unwrap();
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
    let mut buf = vec![0u8; ps];
    dev.read(0, &mut buf).unwrap();
    let world = buf[0];
    assert!(world == 0x11 || world == 0x22, "unknown world {world:#x}");
    for lpn in 1..6u64 {
        dev.read(lpn, &mut buf).unwrap();
        assert_eq!(
            buf[0], world,
            "torn group flush: lpn {lpn} in another world"
        );
    }
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

    let (ftl, model) = dev.into_parts();
    let mut chip = ftl.into_chip();
    chip.power_cycle();
    let first = XFtl::recover(chip).unwrap();
    // Power-cycle again immediately: recovery's own writes (checkpoint,
    // meta ring append) must leave a state that recovers to the same
    // image.
    let mut chip = first.into_chip();
    chip.power_cycle();
    let mut dev = ShadowDevice::resume(XFtl::recover(chip).unwrap(), model);
    assert!(dev.verify_recovered() >= 8);
    dev.audit();

    let mut buf = vec![0u8; ps];
    dev.read(0, &mut buf).unwrap();
    assert_eq!(buf[0], 1, "in-flight tx write survived double recovery");
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
    const MAP_LOGICAL: u64 = 400;
    let chip = FlashChip::new(FlashConfig::tiny(110), SimClock::new());
    let mut dev = ShadowDevice::new(PageMappedFtl::format(chip, MAP_LOGICAL).unwrap());
    dev.inner_mut()
        .base_mut()
        .set_map_cache_budget(Some(1))
        .unwrap();
    let ps = dev.page_size();
    for lpn in 0..MAP_LOGICAL {
        let fill = u8::try_from(lpn % 250).unwrap() + 1;
        dev.write(lpn, &vec![fill; ps]).unwrap();
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
    let mut buf = vec![0u8; ps];
    dev.read(0, &mut buf).unwrap();
    assert_eq!(buf[0], 0xEE, "acknowledged write lost in eviction crash");
    for lpn in 1..MAP_LOGICAL {
        dev.read(lpn, &mut buf).unwrap();
        let expect = u8::try_from(lpn % 250).unwrap() + 1;
        assert_eq!(buf[0], expect, "lpn {lpn} corrupted by the torn eviction");
    }
}

/// Recover twice in a row under a bounded mapping-cache budget, crashing
/// first inside an eviction window: the second recovery — interrupting
/// nothing but re-running the roll-forward checkpoint and meta-root
/// append of the first — must reproduce the *identical* L2P mapping and
/// data image.
#[test]
fn double_recovery_with_bounded_cache_is_idempotent() {
    use xftl_ftl::BlockDevice;
    const MAP_LOGICAL: u64 = 400;
    let chip = FlashChip::new(FlashConfig::tiny(110), SimClock::new());
    let mut dev = PageMappedFtl::format(chip, MAP_LOGICAL).unwrap();
    dev.base_mut().set_map_cache_budget(Some(2)).unwrap();
    let ps = dev.page_size();
    for lpn in 0..MAP_LOGICAL {
        let fill = u8::try_from(lpn % 250).unwrap() + 1;
        dev.write(lpn, &vec![fill; ps]).unwrap();
    }
    dev.write(5, &vec![0xEE; ps]).unwrap();
    // The next cross-slab write needs an eviction and a data program;
    // the one-op fuse dies in whichever comes first.
    dev.base_mut().chip_mut().arm_power_fuse(1);
    assert!(
        dev.write(300, &vec![0xDD; ps]).is_err(),
        "fuse must fire mid-write"
    );
    let mut chip = dev.into_chip();
    chip.power_cycle();
    let first = PageMappedFtl::recover(chip).unwrap();
    let mapping_first: Vec<_> = (0..MAP_LOGICAL).map(|l| first.base().l2p_peek(l)).collect();
    // Immediate second power cycle: recovery's own writes must land in a
    // state that recovers to the same mapping.
    let mut chip = first.into_chip();
    chip.power_cycle();
    let mut second = PageMappedFtl::recover(chip).unwrap();
    let mapping_second: Vec<_> = (0..MAP_LOGICAL)
        .map(|l| second.base().l2p_peek(l))
        .collect();
    assert_eq!(
        mapping_first, mapping_second,
        "double recovery changed the mapping"
    );
    second.base_mut().set_map_cache_budget(Some(2)).unwrap();
    let mut buf = vec![0u8; ps];
    second.read(5, &mut buf).unwrap();
    assert_eq!(buf[0], 0xEE, "acknowledged write lost");
    for lpn in (0..MAP_LOGICAL).filter(|l| *l != 5 && *l != 300) {
        second.read(lpn, &mut buf).unwrap();
        let expect = u8::try_from(lpn % 250).unwrap() + 1;
        assert_eq!(buf[0], expect, "lpn {lpn} corrupted across recoveries");
    }
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
    let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
    let mut dev = ShadowDevice::new(XFtl::format(chip, 64).unwrap());
    let ps = dev.page_size();
    let old = vec![0x11u8; ps];
    for lpn in 0..8u64 {
        dev.write(lpn, &old).unwrap();
    }
    dev.flush().unwrap();

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

    // Pre-cut sanity: the staged version is visible, the live writers'
    // versions are not, and the intent table tracks both live writers.
    let mut buf = vec![0u8; ps];
    dev.read(4, &mut buf).unwrap();
    assert_eq!(buf[0], 0xC3, "staged commit must be visible");
    dev.read(0, &mut buf).unwrap();
    assert_eq!(buf[0], 0x11, "active writer's version must not leak");
    assert_eq!(dev.inner().xl2p().intent_pages(), 4, "two live writers");
    assert_eq!(dev.inner().active_snapshots(), 2, "tids 1 and 2 still open");

    // Power dies; recover twice (the second cycle interrupts nothing but
    // must still reproduce the same image — recovery stays idempotent
    // with MVCC state in the mix).
    let mut dev = common::recover(common::recover(dev));

    // The flushed commit survived; everything else rolled back.
    dev.read(6, &mut buf).unwrap();
    assert_eq!(buf[0], 0xD4, "flushed commit lost");
    for lpn in [0u64, 1, 2, 3, 4, 5, 7] {
        dev.read(lpn, &mut buf).unwrap();
        assert_eq!(
            buf[0], 0x11,
            "uncommitted or unflushed version survived: lpn {lpn}"
        );
    }
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
    let mut cut_mid_scrub = 0u32;
    for fuse in 1..=20u64 {
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
        // The next write's GC tick fires the scrubber; the fuse lands
        // somewhere inside the relocation (or, for late positions, in
        // the host write after it).
        dev.inner_mut().base_mut().chip_mut().arm_power_fuse(fuse);
        let died = dev.write(9, &vec![0xAB; ps]).is_err();
        let stats = *dev.inner().base().stats();
        if died && stats.scrub_copies > 0 && stats.scrub_runs == 0 {
            cut_mid_scrub += 1;
        }
        if !died {
            continue; // fuse outlived the schedule: nothing to recover
        }
        let mut dev = common::recover(dev);
        for lpn in 0..8u64 {
            dev.read(lpn, &mut buf).unwrap();
            let expect = u8::try_from(lpn).unwrap() + 1;
            assert_eq!(
                buf[0], expect,
                "fuse {fuse}: lpn {lpn} lost in torn scrub relocation"
            );
        }
    }
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
    let mut dev = common::recover(dev);
    dev.read(0, &mut buf).unwrap();
    assert_eq!(buf[0], 0xC1, "lpn 0 recovered at a stale address");
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
    for lpn in 0..8u64 {
        let fill = u8::try_from(lpn).unwrap() + 1;
        dev.write(lpn, &vec![fill; ps]).unwrap();
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
    let mut buf = vec![0u8; ps];
    for lpn in 0..8u64 {
        dev.read(lpn, &mut buf).unwrap();
        let expect = u8::try_from(lpn).unwrap() + 1;
        assert_eq!(buf[0], expect, "lpn {lpn} lost at end of life");
    }
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
/// slabs by the evictions) are victims too.
fn stepping_dev<D: common::Swept>(policy: xftl_ftl::GcPolicy) -> ShadowDevice<D> {
    use xftl_ftl::BlockDevice;
    let cfg = xftl_flash::FlashConfigBuilder::tiny()
        .blocks(20)
        .pages_per_block(32)
        .build();
    let mut dev = ShadowDevice::new(D::format(FlashChip::new(cfg, SimClock::new()), 384).unwrap());
    let base = dev.inner_mut().base_mut();
    base.set_gc_policy(policy);
    base.set_map_cache_budget(Some(2)).unwrap();
    let ps = dev.page_size();
    for lpn in 0..384u64 {
        dev.write(lpn, &vec![0xEE; ps]).unwrap();
    }
    dev.flush().unwrap();
    dev
}

/// Sweeps 30 acknowledged groups of 2 pages on `D` under each GC policy.
/// Every cut recovers (the sweep refuses a refused chip) to the
/// acknowledged state — mapping-class victims included: a relocated
/// translation page is found by the scan, whichever of the copy, the
/// erase and the next root the power cut falls between.
fn sweep_steps<D: common::Swept>(name: &str) {
    use xftl_ftl::GcPolicy;
    let (mut collections, mut runs, mut map_runs) = (0, 0, 0);
    for policy in [GcPolicy::Greedy, GcPolicy::Fifo, GcPolicy::CostBenefit] {
        let s = common::sweep(|| stepping_dev::<D>(policy), 30, 2);
        assert!(s.gc_background_steps > 0, "{name}/{policy:?}: no step ran");
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
fn steps_survive_every_cut_txflash() {
    sweep_steps::<xftl_ftl::TxFlashFtl>("txflash");
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
            let pages: Vec<_> = (0..8).map(|lpn| (lpn, vec![0xDD; ps])).collect();
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
            let s = common::sweep(|| cadence_dev::<D>(policy, behind), 2, 8);
            // More roots than the groups' own flushes account for.
            let flushes = if D::ATOMIC { 0 } else { 2 };
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
fn cadence_roots_survive_every_cut_txflash() {
    sweep_cadence_roots::<xftl_ftl::TxFlashFtl>("txflash");
}

#[test]
fn cadence_roots_survive_every_cut_xftl() {
    sweep_cadence_roots::<XFtl>("xftl");
}

/// Why a checkpoint asks the personality before it moves the horizon: a
/// cycle opened before a cadence root closes after it. Its first page
/// sits in a block that is long closed and that the root's `ckpt_seq`
/// covers; were the horizon to cover it too the next scan would skip the
/// block, find the cycle a page short and drop a commit the host was
/// told is durable.
#[test]
fn an_open_cycle_straddling_a_cadence_root_commits_and_survives_the_cut() {
    use xftl_ftl::{BlockDevice, TxBlockDevice, TxFlashFtl};
    let chip = FlashChip::new(FlashConfig::tiny(64), SimClock::new());
    let mut dev = ShadowDevice::new(TxFlashFtl::format(chip, 128).unwrap());
    let ps = dev.page_size();
    for lpn in 0..64u64 {
        dev.write(lpn, &vec![0xEE; ps]).unwrap();
    }
    dev.flush().unwrap();
    // Cycle 9: its first page programmed, its second buffered.
    dev.write_tx(9, 100, &vec![0xA1; ps]).unwrap();
    dev.write_tx(9, 101, &vec![0xA2; ps]).unwrap();
    let first = dev.inner().open_pages().next().unwrap();
    // Plain traffic, never flushed, until the device has written a root
    // of its own accord.
    let roots = dev.inner().base().stats().checkpoints;
    let mut i = 0u64;
    while dev.inner().base().stats().checkpoints == roots {
        dev.write(i % 64, &vec![(i % 200) as u8 + 1; ps]).unwrap();
        i += 1;
    }
    let base = dev.inner().base();
    let root = xftl_verify::newest_root(base.chip()).unwrap();
    let (ckpt_seq, horizon) = (root.ckpt_seq, root.tx_horizon);
    let seq_of = |ppa| match base.chip().probe_silent(ppa) {
        xftl_flash::PageProbe::Programmed(oob) => oob.seq,
        other => panic!("{ppa:?} is {other:?}"),
    };
    assert!(base.chip().write_point(first.block).is_none(), "closed");
    assert!(horizon < seq_of(first) && seq_of(first) <= ckpt_seq);
    dev.audit();
    // The cycle closes after the root; then the power goes.
    dev.write_tx(9, 102, &vec![0xA3; ps]).unwrap();
    dev.commit(9).unwrap();
    let mut dev = common::recover(dev);
    assert!(dev.inner().base().recovery().skipped_blocks >= 8);
    let mut buf = vec![0u8; ps];
    for (lpn, fill) in [(100, 0xA1), (101, 0xA2), (102, 0xA3)] {
        dev.read(lpn, &mut buf).unwrap();
        assert!(buf.iter().all(|b| *b == fill), "lpn {lpn} of the cycle");
    }
}

/// The atomic-write personality has a group open only inside one call,
/// so its cadence root can only follow a seal — and a commit record names
/// at most a page's worth of pages, so it takes groups near that size to
/// fill the window before the record cap forces a root anyway. Three
/// groups of 100 pages (1 KB pages: a record holds 125) do: the third is
/// sealed, then rooted, and at every cut of its tail — its last pages,
/// its record, the translation pages, the root — it is whole or absent
/// and the two before it are whole.
#[test]
fn a_group_that_fills_the_window_is_sealed_then_rooted_at_every_cut() {
    use xftl_ftl::{AtomicWriteFtl, BlockDevice};
    use xftl_verify::Auditable;
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
    let mut dev = build();
    let before = dev.base().flash_stats().programs;
    write_group(&mut dev, 2).unwrap();
    let s = *dev.base().stats();
    assert!(3 * (GROUP + 1) > 32 * dev.base().pages_per_block() as u64);
    assert_eq!((s.commit_record_writes, s.checkpoints), (3, 1));
    let programs = dev.base().flash_stats().programs - before;
    assert_eq!(programs, GROUP + 1 + s.map_writes + 1);
    for fuse in GROUP - 3..=programs {
        let mut dev = build();
        dev.base_mut().chip_mut().arm_power_fuse(fuse);
        assert!(write_group(&mut dev, 2).is_err(), "fuse {fuse}");
        let mut dev = AtomicWriteFtl::recover(dev.into_chip()).unwrap();
        dev.audit().unwrap_or_else(|v| panic!("fuse {fuse}: {v}"));
        let sealed = fuse > GROUP + 1;
        let mut buf = vec![0u8; dev.page_size()];
        for lpn in 0..3 * GROUP {
            dev.read(lpn, &mut buf).unwrap();
            let fill = match lpn / GROUP {
                2 if !sealed => 0,
                g => fills[g as usize],
            };
            assert!(buf.iter().all(|b| *b == fill), "fuse {fuse}: lpn {lpn}");
        }
    }
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
    let build = || {
        let cfg = xftl_flash::FlashConfigBuilder::tiny().blocks(56).build();
        let chip = FlashChip::new(cfg, SimClock::new());
        let mut dev = ShadowDevice::new(PageMappedFtl::format(chip, 384).unwrap());
        dev.inner_mut()
            .base_mut()
            .set_map_cache_budget(Some(2))
            .unwrap();
        let page = vec![OLD; dev.page_size()];
        for lpn in 0..384u64 {
            dev.write(lpn, &page).unwrap();
        }
        dev.flush().unwrap();
        dev
    };
    let overwrite = |dev: &mut PlainDev, i: u64| {
        let (lpn, fill) = churn_write(i);
        dev.write(lpn, &vec![fill; dev.page_size()])
    };
    let ops = |d: &PlainDev| {
        d.inner().base().flash_stats().programs + d.inner().base().flash_stats().erases
    };
    let mut dev = build();
    let before = ops(&dev);
    for i in 0..300 {
        overwrite(&mut dev, i).unwrap();
    }
    let cuts = ops(&dev) - before;
    let s = *dev.inner().base().stats();
    assert_eq!(s.gc_background_steps, 0);
    assert!(s.gc_map_runs > 0 && s.gc_copies > s.gc_valid_pages);
    assert_eq!(cuts, 1583);
    for fuse in 1..=cuts {
        let mut dev = build();
        dev.inner_mut().base_mut().chip_mut().arm_power_fuse(fuse);
        assert!((0..300).any(|i| overwrite(&mut dev, i).is_err()));
        let (inner, model) = dev.into_parts();
        let recovered = PageMappedFtl::recover(inner.into_chip())
            .unwrap_or_else(|e| panic!("fuse {fuse}: {e:?}"));
        common::resume(recovered, model);
    }
}
