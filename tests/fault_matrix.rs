//! Deterministic fault-schedule matrix: every NAND fault kind (program
//! failure, erase failure, correctable bit-flips, uncorrectable ECC
//! bursts) crossed with every injection point (user write, GC copy-back,
//! the commit-time X-L2P flush, recovery replay). The FTL's retry and
//! bad-block machinery must make each cell invisible to the host:
//! committed transactions survive, aborted transactions stay invisible,
//! and plain writes keep their last acknowledged value.
//!
//! All randomness flows from the workspace `simrand` shim through a
//! [`FaultPlan`] seeded by [`FAULT_SEED`], so each cell replays the
//! identical schedule on every run. The whole matrix runs behind the
//! shadow oracle with a flash-physics audit after recovery.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use xftl_core::XFtl;
use xftl_flash::{
    AgingModel, FaultKind, FaultPlan, FaultTrigger, FlashChip, FlashConfig, SimClock,
};
use xftl_ftl::{
    BlockDevice, DevError, DeviceState, Personality, ScrubConfig, ScrubReason, TxBlockDevice,
};

mod common;
use common::assert_image;
use xftl_verify::ShadowDevice;

const BLOCKS: usize = 24;
const LOGICAL: u64 = 48;

/// Seed for every fault plan in this file.
const FAULT_SEED: u64 = 0xCAFE_BABE;

type Dev = ShadowDevice<XFtl>;

/// Recovers the device; `arm` may install a fault plan on the cold chip
/// so the faults hit recovery's own replay reads/writes.
fn recover_armed(mut d: Dev, arm: Option<FaultPlan>) -> Dev {
    if let Some(plan) = arm {
        d.inner_mut().base_mut().chip_mut().set_fault_plan(plan);
    }
    common::recover(d)
}

/// Where in the schedule the fault trigger is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectAt {
    /// Right before a batch of plain host writes.
    UserWrite,
    /// Right before churn that forces garbage collection (the trigger's
    /// first matching op is a GC copy-back read/program or victim erase).
    GcCopy,
    /// Right before `commit`, whose first flash programs persist the
    /// X-L2P table and the checkpoint root.
    CommitFlush,
    /// On the cold chip before `recover`, so the trigger's first matching
    /// op belongs to the recovery scan/replay (or, for op classes recovery
    /// never issues outside the fault-exempt meta ring, to the
    /// post-recovery traffic).
    RecoveryReplay,
}

fn plan_for(kind: FaultKind) -> FaultPlan {
    FaultPlan::new(FAULT_SEED).trigger(FaultTrigger::new(kind))
}

fn arm(dev: &mut Dev, kind: FaultKind) {
    dev.inner_mut()
        .base_mut()
        .chip_mut()
        .set_fault_plan(plan_for(kind));
}

/// One matrix cell: runs the fixed schedule with `kind` armed at `point`
/// and proves the host-visible contract held.
fn run_cell(kind: FaultKind, point: InjectAt) {
    let ctx = format!("cell ({kind:?}, {point:?})");
    let clock = SimClock::new();
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), clock);
    let mut dev = ShadowDevice::new(XFtl::format(chip, LOGICAL).unwrap());
    let ps = dev.page_size();
    // Expected committed value of lpns 0..16, maintained alongside writes.
    let mut expect = vec![0u8; 16];
    let write_plain = |dev: &mut Dev, expect: &mut Vec<u8>, lpn: u64, fill: u8| {
        dev.write(lpn, &vec![fill; ps]).unwrap();
        expect[lpn as usize] = fill;
    };

    // Phase A: baseline image.
    for lpn in 0..16u64 {
        write_plain(&mut dev, &mut expect, lpn, 1);
    }
    dev.flush().unwrap();

    // Phase B: plain host writes — the UserWrite injection point.
    if point == InjectAt::UserWrite {
        arm(&mut dev, kind);
    }
    for lpn in 0..8u64 {
        write_plain(&mut dev, &mut expect, lpn, 2);
    }

    // Phase C: two transactions; tid 7 commits (through the X-L2P flush),
    // tid 8 aborts and must stay invisible forever.
    for lpn in 0..4u64 {
        dev.write_tx(7, lpn, &vec![3u8; ps]).unwrap();
    }
    for lpn in 4..8u64 {
        dev.write_tx(8, lpn, &vec![4u8; ps]).unwrap();
    }
    if point == InjectAt::CommitFlush {
        arm(&mut dev, kind);
    }
    dev.commit(7).unwrap();
    for lpn in 0..4u64 {
        expect[lpn as usize] = 3;
    }
    dev.abort(8).unwrap();

    // Phase D: churn far beyond physical capacity to force GC — the GcCopy
    // injection point. Any still-pending erase/program trigger from an
    // earlier point also fires here at the latest.
    if point == InjectAt::GcCopy {
        arm(&mut dev, kind);
    }
    for i in 0..600u64 {
        let lpn = 8 + (i % 8);
        write_plain(&mut dev, &mut expect, lpn, (i % 200) as u8);
    }
    assert!(
        dev.inner().base().stats().gc_runs > 0,
        "{ctx}: GC never ran"
    );
    dev.flush().unwrap();

    // Crash and recover — the RecoveryReplay injection point arms the
    // cold chip so the trigger sees recovery's own slab/X-L2P reads and
    // checkpoint writes first.
    let recovery_plan = (point == InjectAt::RecoveryReplay).then(|| plan_for(kind));
    let mut dev = recover_armed(dev, recovery_plan);

    // Post-recovery traffic: catches triggers whose op class recovery
    // never issued (e.g. an erase fault armed for replay), and proves the
    // recovered device still writes/GCs correctly.
    for i in 0..200u64 {
        let lpn = 8 + (i % 8);
        write_plain(&mut dev, &mut expect, lpn, 20 + (i % 100) as u8);
    }

    // The host-visible contract: committed transaction applied in full,
    // aborted transaction invisible, plain writes at their last value.
    assert_image(&mut dev, &expect, &ctx);
    // Aborted tid 8 wrote fill 4 over lpns 4..8; committed state there is
    // the phase-B fill 2 — checked above via `expect`, restated for the
    // matrix's headline claim:
    for lpn in 4..8u64 {
        assert_eq!(expect[lpn as usize], 2, "{ctx}: aborted tx leaked");
    }
    // Every cell must actually have injected its fault: the one-shot
    // trigger is consumed by the end of the schedule.
    let chip = dev.inner().base().chip();
    let pending = chip.fault_plan().map_or(0, FaultPlan::pending_triggers);
    assert_eq!(pending, 0, "{ctx}: fault trigger never fired");
    if matches!(kind, FaultKind::EraseFail) {
        assert_eq!(chip.retired_blocks().len(), 1, "{ctx}: no block retired");
        assert!(dev.inner().base().is_bad_block(chip.retired_blocks()[0]));
    }
    dev.audit();
}

const KINDS: [FaultKind; 4] = [
    FaultKind::ProgramFail,
    FaultKind::EraseFail,
    FaultKind::ReadFlips(2),  // within ECC strength: corrected in place
    FaultKind::ReadFlips(64), // beyond ECC strength: uncorrectable, re-read
];

#[test]
fn fault_matrix_user_write() {
    for kind in KINDS {
        run_cell(kind, InjectAt::UserWrite);
    }
}

#[test]
fn fault_matrix_gc_copy() {
    for kind in KINDS {
        run_cell(kind, InjectAt::GcCopy);
    }
}

#[test]
fn fault_matrix_commit_flush() {
    for kind in KINDS {
        run_cell(kind, InjectAt::CommitFlush);
    }
}

#[test]
fn fault_matrix_recovery_replay() {
    for kind in KINDS {
        run_cell(kind, InjectAt::RecoveryReplay);
    }
}

/// Read-disturb endurance cell: an aging model with a low disturb
/// threshold hammers one hot page toward the uncorrectable cliff. With
/// the background scrubber enabled the at-risk block is relocated before
/// its flip count crosses the ECC budget and every read of the committed
/// value succeeds; returns whether the page was lost so the ablation
/// below can pin the scrubber's causal role.
fn run_read_disturb_cell(scrubbed: bool) -> bool {
    let ctx = format!("read-disturb cell (scrubbed: {scrubbed})");
    let clock = SimClock::new();
    let mut chip = FlashChip::new(FlashConfig::tiny(BLOCKS), clock);
    // Flips start 300 reads in, one more every 30 reads: past the 8-bit
    // ECC budget (uncorrectable) from read 570 of the same page.
    chip.set_fault_plan(FaultPlan::new(FAULT_SEED).aging(AgingModel {
        read_disturb_threshold: 300,
        reads_per_flip: 30,
        ..AgingModel::inert()
    }));
    let mut dev = ShadowDevice::new(XFtl::format(chip, LOGICAL).unwrap());
    if scrubbed {
        dev.inner_mut()
            .base_mut()
            .set_scrub_config(Some(ScrubConfig {
                read_threshold: 150,
                interval_ops: 4,
                ..ScrubConfig::default()
            }));
    }
    let ps = dev.page_size();

    // Commit the value under threat through a real transaction, so the
    // cell's claim is about acked commits, not scratch data.
    for lpn in 0..8u64 {
        dev.write_tx(5, lpn, &vec![7u8; ps]).unwrap();
    }
    dev.commit(5).unwrap();

    // Hammer lpn 0; background writes every few reads give the GC tick
    // (which hosts the scrub tick) a chance to run.
    let mut buf = vec![0u8; ps];
    let mut lost = false;
    for i in 0..4000u64 {
        match dev.read(0, &mut buf) {
            Ok(()) => assert_eq!(buf[0], 7, "{ctx}: committed value changed"),
            Err(e) => {
                assert!(!scrubbed, "{ctx}: scrubbed read failed: {e:?}");
                lost = true;
                break;
            }
        }
        if i % 4 == 0 {
            let fill = (i % 100) as u8;
            dev.write(8 + (i / 4) % 8, &vec![fill; ps]).unwrap();
        }
    }

    if scrubbed {
        let base = dev.inner().base();
        assert!(base.stats().scrub_runs > 0, "{ctx}: scrubber never ran");
        assert_eq!(
            base.last_scrub().map(|(_, r)| r),
            Some(ScrubReason::ReadDisturb),
            "{ctx}: wrong scrub reason"
        );
        assert_eq!(
            base.flash_stats().aging_uncorrectable,
            0,
            "{ctx}: a read crossed the ECC budget despite the scrubber"
        );
        // The whole committed image survived the hammering.
        assert_image(&mut dev, &[7; 8], &ctx);
        dev.audit();
        let mut dev = common::recover(dev);
        assert_image(&mut dev, &[7; 8], &format!("{ctx}: after power cycle"));
    } else {
        assert!(
            dev.inner().base().flash_stats().aging_uncorrectable > 0,
            "{ctx}: the unscrubbed ablation never hit the cliff"
        );
    }
    lost
}

#[test]
fn fault_matrix_read_disturb_scrubbed_survives() {
    assert!(!run_read_disturb_cell(true));
}

#[test]
fn fault_matrix_read_disturb_unscrubbed_loses_data() {
    // The identical schedule without the scrubber loses the page: the
    // scrubbed cell above survives *because of* the scrubber, not because
    // the schedule was gentle.
    assert!(run_read_disturb_cell(false));
}

/// End-of-life cell: sticky erase failures retire every GC victim until
/// the device walks Healthy → Degraded → ReadOnly. The contract at the
/// cliff edge: no panic, writes fail with `DevError::ReadOnly`, and every
/// commit acked before the transition stays readable — through the
/// transition and across a power cycle (oracle-swept).
#[test]
fn fault_matrix_end_of_life_read_only() {
    let clock = SimClock::new();
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), clock);
    let mut dev = ShadowDevice::new(XFtl::format(chip, LOGICAL).unwrap());
    let ps = dev.page_size();

    // Acked state established while healthy: a committed transaction and
    // a flushed plain image.
    for lpn in 0..8u64 {
        dev.write(lpn, &vec![1u8; ps]).unwrap();
    }
    for lpn in 0..4u64 {
        dev.write_tx(5, lpn, &vec![3u8; ps]).unwrap();
    }
    dev.commit(5).unwrap();
    dev.flush().unwrap();
    let expect = |lpn: u64| if lpn < 4 { 3u8 } else { 1u8 };

    // A transaction left open across the transition: its commit must be
    // refused at submit time, not half-applied.
    dev.write_tx(9, 6, &vec![9u8; ps]).unwrap();

    // Now every erase fails, so each GC cycle retires its victim: the
    // pool drains block by block into the bad-block table.
    dev.inner_mut().base_mut().chip_mut().set_fault_plan(
        FaultPlan::new(FAULT_SEED).trigger(FaultTrigger::new(FaultKind::EraseFail).sticky()),
    );
    let mut final_err = None;
    for i in 0..20_000u64 {
        let fill = (i % 100) as u8;
        match dev.write(8 + (i % 8), &vec![fill; ps]) {
            Ok(()) => {}
            Err(e) => {
                final_err = Some(e);
                break;
            }
        }
    }
    assert_eq!(
        final_err,
        Some(DevError::ReadOnly),
        "wrong end-of-life error"
    );
    let base = dev.inner().base();
    assert_eq!(base.device_state(), DeviceState::ReadOnly);
    assert!(base.stats().degraded_entries > 0, "skipped Degraded");

    // Writes and commits are refused; the open transaction is refused
    // cleanly at submit time.
    assert_eq!(
        dev.write(0, &vec![0xEE; ps]),
        Err(DevError::ReadOnly),
        "plain write accepted on a read-only device"
    );
    assert_eq!(
        dev.commit_submit(9).map(|_| ()),
        Err(DevError::ReadOnly),
        "commit accepted on a read-only device"
    );

    // Every acked commit is still readable at the cliff edge.
    let image: Vec<u8> = (0..8).map(expect).collect();
    assert_image(&mut dev, &image, "lost at transition");
    dev.verify_recovered();
    dev.audit();

    // ... and across a power cycle: recovery succeeds on a read-only
    // device and the persisted state holds.
    let mut dev = common::recover(dev);
    assert_eq!(dev.inner().base().device_state(), DeviceState::ReadOnly);
    assert_image(&mut dev, &image, "lost across power cycle");
    assert_eq!(
        dev.write(0, &vec![0xEE; ps]),
        Err(DevError::ReadOnly),
        "recovered device forgot it was read-only"
    );
}

/// The whole matrix at once: background rates for every fault class at or
/// above the 1e-3/op acceptance floor run across the entire schedule,
/// including recovery, instead of single targeted triggers.
#[test]
fn fault_soak_background_rates() {
    let clock = SimClock::new();
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), clock);
    let mut dev = ShadowDevice::new(XFtl::format(chip, LOGICAL).unwrap());
    let ps = dev.page_size();
    let plan = || {
        FaultPlan::background(
            FAULT_SEED, 1e-2, // program-status failures
            5e-3, // erase failures
            5e-2, // correctable bit-flips
            2e-3, // uncorrectable ECC bursts
        )
    };
    dev.inner_mut().base_mut().chip_mut().set_fault_plan(plan());
    let mut expect = [0u8; 16];
    for lpn in 0..16u64 {
        dev.write(lpn, &vec![1u8; ps]).unwrap();
        expect[lpn as usize] = 1;
    }
    for round in 0..5u64 {
        for lpn in 0..4u64 {
            dev.write_tx(10 + round, lpn, &vec![30 + round as u8; ps])
                .unwrap();
        }
        if round % 2 == 0 {
            dev.commit(10 + round).unwrap();
            for lpn in 0..4u64 {
                expect[lpn as usize] = 30 + round as u8;
            }
        } else {
            dev.abort(10 + round).unwrap();
        }
        for i in 0..200u64 {
            let lpn = 8 + (i % 8);
            let fill = (round * 7 + i % 97) as u8;
            dev.write(lpn, &vec![fill; ps]).unwrap();
            expect[lpn as usize] = fill;
        }
        // Read traffic each round, so the bit-flip processes get pages to
        // chew on (this workload's GC victims are pure garbage, so GC
        // alone issues almost no reads). Several sweeps per round keep
        // the flip-count expectation high enough (~20) that the
        // "correctable flips fired" assertion below holds for any seed,
        // not just the default one.
        for sweep in 0..4u64 {
            assert_image(&mut dev, &expect, &format!("round {round} sweep {sweep}"));
        }
    }
    dev.flush().unwrap();
    let flash = dev.inner().base().flash_stats();
    assert!(flash.program_fails > 0, "program faults never fired");
    assert!(flash.corrected_reads > 0, "correctable flips never fired");
    let mut dev = recover_armed(dev, Some(plan()));
    assert_image(&mut dev, &expect, "corrupted");
    dev.audit();
}

/// A group whose commit record cannot be programmed is rolled back like
/// one whose data page failed: its pages are garbage at once, not live
/// pages no table maps — which GC would copy, and the horizon wait on,
/// until the next power cycle.
#[test]
fn atomic_write_record_failure_orphans_its_group() {
    use xftl_flash::{PageKind, PageProbe, Ppa};
    use xftl_ftl::AtomicWriteFtl;
    use xftl_verify::Auditable;
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), SimClock::new());
    let mut dev = AtomicWriteFtl::format(chip, LOGICAL).unwrap();
    let page = vec![0x5A; dev.page_size()];
    dev.write_atomic(&[(3, &page[..])]).unwrap();
    // Every program of OOB lpn 0 fails, retries included: the record's
    // (an original record says 0 there), while the group writes
    // elsewhere.
    dev.base_mut().chip_mut().set_fault_plan(
        FaultPlan::new(FAULT_SEED)
            .trigger(FaultTrigger::new(FaultKind::ProgramFail).on_lpn(0).sticky()),
    );
    let group = [(5u64, &page[..]), (9, &page[..])];
    assert!(dev.write_atomic(&group).is_err(), "the record programmed");
    let base = dev.base();
    let geo = base.chip().config().geometry;
    let orphans: Vec<Ppa> = (0..geo.blocks as u32)
        .flat_map(|b| (0..geo.pages_per_block as u32).map(move |p| Ppa::new(b, p)))
        .filter(|ppa| match base.chip().probe_silent(*ppa) {
            PageProbe::Programmed(oob) => oob.kind == PageKind::Data && oob.tid == 2,
            PageProbe::Erased | PageProbe::Torn => false,
        })
        .collect();
    assert_eq!(orphans.len(), group.len(), "the data pages landed");
    for ppa in orphans {
        assert!(
            !base.page_is_valid(ppa),
            "{ppa:?} of the unsealed group is live"
        );
    }
    dev.audit().unwrap();
}
