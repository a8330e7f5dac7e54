//! Oracle wiring, the one schedule alphabet and runner, and the power-cut
//! harness shared by the integration tests.
//!
//! Every device personality under test runs behind
//! [`xftl_verify::ShadowDevice`]: each command the test (or the FS/DB
//! stack above it) issues is mirrored into the reference model, every
//! read is checked against the worlds the crash semantics allow, and each
//! recovery ends with a durability sweep plus a flash-physics audit. The
//! oracle is the one judge of what a device may show: no test keeps an
//! expected image of its own except to pin a world the oracle leaves
//! open. Device schedules are [`DevOp`] lists, issued by [`Run::issue`]
//! from [`run_schedule`] and [`sweep`]. Every loop over power-cut
//! positions is a call to [`power_cuts`].

#![allow(
    dead_code,
    reason = "each test binary uses its own subset of these helpers"
)]

use std::borrow::Cow;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_core::XFtl;
use xftl_flash::{FlashChip, Oob, PageKind, PageProbe, Ppa};
use xftl_ftl::meta::MetaPage;
use xftl_ftl::{
    AtomicWriteFtl, BlockDevice, CommitTicket, DevError, FtlBase, Lpn, PageMappedFtl, Personality,
    RecoveryLog, Result as DevResult, Tid, TxBlockDevice, TxFlashFtl,
};
use xftl_verify::{Auditable, ShadowDevice, ShadowModel};

/// Takes a crashed device down to its flash and brings it back through
/// `P`'s recovery. The oracle carries its model across the power cycle,
/// sweeps the committed image for durability, and audits the flash
/// metadata before handing the device back.
pub fn recover<P: Personality + Auditable>(d: ShadowDevice<P>) -> ShadowDevice<P> {
    let (inner, model) = d.into_parts();
    let dev = P::recover(inner.into_chip())
        .unwrap_or_else(|e| panic!("recovery refused the chip: {e:?}"));
    resume(dev, model)
}

/// The checks of [`recover`] on a device a recovery of the test's own
/// making returned, behind the `model` that witnessed the chip's history.
pub fn resume<P: BlockDevice + Auditable>(dev: P, model: ShadowModel) -> ShadowDevice<P> {
    let mut dev = ShadowDevice::resume(dev, model);
    dev.verify_recovered();
    dev.audit();
    dev
}

// --- the recovery scan's skip against a scan that cannot skip --------------

/// `chip` under its newest root re-issued with the transaction horizon
/// zeroed. The recovery scan takes a data block on trust only when its
/// last page is at or below the checkpoint sequence *and* the horizon, so
/// under this root it reads every written block in full — and nothing
/// else changes for a personality whose recovery never consults the
/// horizon (`PageMappedFtl`, `XFtl`), nor for the other two on an image
/// of one life with no transaction id reused (the horizon exists to tell
/// lives and reuses apart). The checkpoint sequence cannot be zeroed the
/// same way: replaying covered plain pages over the loaded slabs would
/// bury every version committed under a transaction id.
pub fn with_horizon_zeroed(mut chip: FlashChip) -> FlashChip {
    let geo = chip.config().geometry;
    let zeroed = MetaPage {
        tx_horizon: 0,
        ..xftl_verify::newest_root(&chip).expect("a formatted chip")
    };
    // Appended where the device would have written its next root.
    let newest = (0..2u32)
        .filter(|b| chip.write_point(*b) != Some(0))
        .max_by_key(|b| match chip.probe_silent(Ppa::new(*b, 0)) {
            PageProbe::Programmed(oob) => oob.seq,
            _ => 0,
        })
        .expect("a root ring in use");
    chip.power_cycle();
    let at = match chip.write_point(newest) {
        Some(page) => Ppa::new(newest, page),
        None => {
            chip.erase(1 - newest).unwrap();
            Ppa::new(1 - newest, 0)
        }
    };
    let oob = Oob {
        kind: PageKind::Meta,
        ..Oob::data(0)
    };
    chip.program(at, &zeroed.encode(geo.page_size), oob)
        .unwrap();
    chip
}

/// Recovers the image on `chip` twice — as it is, and under
/// [`with_horizon_zeroed`] — and holds the two devices to the same pool
/// census, page validity, slab homes, mapping and contents. Returns how
/// many blocks the first recovery skipped (the second skips none).
pub fn assert_skip_is_invisible<D: Personality>(chip: &FlashChip) -> u32 {
    let mut fast = D::recover(chip.clone()).unwrap();
    let mut full = D::recover(with_horizon_zeroed(chip.clone())).unwrap();
    let skipped = fast.base().recovery().skipped_blocks;
    assert_eq!(full.base().recovery().skipped_blocks, 0);
    let (a, b) = (fast.base(), full.base());
    let geo = chip.config().geometry;
    for block in 0..geo.blocks as u32 {
        let state = |f: &FtlBase| (f.is_allocatable(block), f.is_bad_block(block));
        assert_eq!(state(a), state(b), "block {block}");
        for page in 0..geo.pages_per_block as u32 {
            let ppa = Ppa::new(block, page);
            assert_eq!(a.page_is_valid(ppa), b.page_is_valid(ppa), "{ppa:?}");
        }
    }
    assert_eq!(a.slab_homes(), b.slab_homes());
    assert_eq!(a.xl2p_roots(), b.xl2p_roots());
    for lpn in 0..a.capacity_pages() {
        assert_eq!(a.l2p_peek(lpn), b.l2p_peek(lpn), "lpn {lpn}");
    }
    let (mut x, mut y) = (vec![0u8; geo.page_size], vec![0u8; geo.page_size]);
    for lpn in 0..fast.capacity_pages() {
        fast.read(lpn, &mut x).unwrap();
        full.read(lpn, &mut y).unwrap();
        assert_eq!(x, y, "lpn {lpn}");
    }
    skipped
}

// --- the one schedule alphabet and its runner ------------------------------

/// A page image a schedule writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Page {
    /// Every byte of the page is this one.
    Fill(u8),
    /// The page's bytes.
    Image(Vec<u8>),
}

impl Page {
    /// The page as written on a device of `page_size`-byte pages.
    pub fn bytes(&self, page_size: usize) -> Cow<'_, [u8]> {
        match self {
            Page::Fill(byte) => Cow::Owned(vec![*byte; page_size]),
            Page::Image(bytes) => Cow::Borrowed(bytes),
        }
    }
}

/// One command of a device schedule: the alphabet every schedule in
/// `tests/` is written in, issued by [`Run::issue`]. A schedule of
/// filled pages prints ([`literal`]) as the `DevOp` list that replays it.
///
/// - `Begin` opens `tid` as a snapshot transaction.
/// - `Patch` has `tid` rewrite four bytes of the page as it reads it: on
///   X-FTL a differential once the page was written whole.
/// - `CommitSubmit` stages the commit (visible immediately) and keeps the
///   ticket outstanding; `CommitWait` redeems the newest outstanding
///   ticket — its group covers everything currently staged, so the whole
///   pipeline drains durable.
/// - `Group` writes `pages` as one acknowledged group ([`Swept::group`]).
/// - `Crash` is a power cut, and the recovery [`run_schedule`] was given.
#[derive(Debug, Clone)]
pub enum DevOp {
    Begin { tid: Tid },
    Write { tid: Tid, lpn: Lpn, page: Page },
    PlainWrite { lpn: Lpn, page: Page },
    Patch { tid: Tid, lpn: Lpn, byte: u8 },
    Commit { tid: Tid },
    CommitSubmit { tid: Tid },
    CommitWait,
    Abort { tid: Tid },
    Group { tid: Tid, pages: Vec<(Lpn, Page)> },
    Flush,
    Crash,
}

/// `ops` as a Rust list literal of `DevOp`s, with `Page::Fill` in scope
/// as `Fill`: a red schedule goes into a regression corpus as printed.
fn literal(ops: &[DevOp]) -> String {
    let ops: Vec<String> = ops.iter().map(|op| format!("DevOp::{op:?}")).collect();
    format!("&[{}]", ops.join(", "))
}

/// What the schedules need of a personality beyond the trait: its
/// transactional commands, where it has them.
pub trait Swept: Personality + Auditable {
    /// `dev`'s transactional commands, behind the oracle; `None` where
    /// the personality has none.
    fn tx(dev: &mut ShadowDevice<Self>) -> Option<&mut dyn TxBlockDevice>;

    /// Writes `pages` as one acknowledged group: a transaction and its
    /// commit where the personality has them, plain writes and a flush
    /// where it does not.
    fn group(dev: &mut ShadowDevice<Self>, tid: Tid, pages: &[(Lpn, Page)]) -> DevResult<()> {
        let ps = dev.page_size();
        match Self::tx(dev) {
            Some(tx) => {
                for (lpn, page) in pages {
                    tx.write_tx(tid, *lpn, &page.bytes(ps))?;
                }
                tx.commit(tid)
            }
            None => {
                for (lpn, page) in pages {
                    dev.write(*lpn, &page.bytes(ps))?;
                }
                dev.flush()
            }
        }
    }
}

impl Swept for PageMappedFtl {
    fn tx(_: &mut ShadowDevice<Self>) -> Option<&mut dyn TxBlockDevice> {
        None
    }
}

impl Swept for AtomicWriteFtl {
    fn tx(_: &mut ShadowDevice<Self>) -> Option<&mut dyn TxBlockDevice> {
        None
    }
}

impl Swept for TxFlashFtl {
    fn tx(dev: &mut ShadowDevice<Self>) -> Option<&mut dyn TxBlockDevice> {
        Some(dev)
    }
}

impl Swept for XFtl {
    fn tx(dev: &mut ShadowDevice<Self>) -> Option<&mut dyn TxBlockDevice> {
        Some(dev)
    }
}

fn tx<D: Swept>(dev: &mut ShadowDevice<D>) -> &mut dyn TxBlockDevice {
    D::tx(dev).expect("a transactional command on a device without transactions")
}

/// The corners a family's schedules reached, summed over its cases: a
/// generator that drifts away from one fails the family's closing
/// assertion instead of passing vacuously.
#[derive(Debug, Default)]
pub struct Exercised {
    /// Commits the device staged (non-immediate tickets).
    pub staged: u32,
    /// Power cuts that caught commits staged and kept a strict prefix of
    /// them.
    pub cuts_strict_prefix: u32,
    /// Plain writes onto a staged page (the group must flush first).
    pub plain_on_staged: u32,
    /// Snapshot commits refused with `Conflict`.
    pub conflicts: u32,
    /// Snapshot writers admitted while another snapshot was open.
    pub overlapping_admits: u32,
}

/// Prints what it says on stderr if a panic — the oracle's, mostly —
/// unwinds through it, so a red run replays from its output alone.
struct Unwinding<F: Fn() -> String>(F);

impl<F: Fn() -> String> Drop for Unwinding<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", (self.0)());
        }
    }
}

/// What a schedule holds open between its commands.
#[derive(Debug, Default)]
pub struct Run {
    /// Outstanding tickets, oldest first.
    tickets: Vec<CommitTicket>,
    /// Snapshot transactions open.
    began: BTreeSet<Tid>,
    /// Of all open transactions, the ones that have written.
    writers: BTreeSet<Tid>,
    /// Snapshot commits refused since the power came on: the device's
    /// `conflict_aborts`.
    conflicts: u64,
}

impl Run {
    /// Issues `op`, any but [`DevOp::Crash`], on `dev`, and notes in
    /// `seen` the corners it reached. A snapshot's commit refused with
    /// `Conflict` is a verdict, not a failure: whether it was earned is
    /// the oracle's call; that only a snapshot can earn one is not.
    pub fn issue<D: Swept>(
        &mut self,
        dev: &mut ShadowDevice<D>,
        op: &DevOp,
        seen: &mut Exercised,
    ) -> DevResult<()> {
        let ps = dev.page_size();
        match *op {
            DevOp::Begin { tid } => {
                tx(dev).begin(tid)?;
                self.began.insert(tid);
            }
            DevOp::Write { tid, lpn, ref page } => {
                tx(dev).write_tx(tid, lpn, &page.bytes(ps))?;
                self.writers.insert(tid);
            }
            DevOp::PlainWrite { lpn, ref page } => {
                seen.plain_on_staged += u32::from(dev.model().is_staged(lpn));
                dev.write(lpn, &page.bytes(ps))?;
            }
            DevOp::Patch { tid, lpn, byte } => {
                let mut buf = vec![0u8; ps];
                tx(dev).read_tx(tid, lpn, &mut buf)?;
                buf[lpn as usize..][..4].fill(byte);
                tx(dev).write_tx(tid, lpn, &buf)?;
                self.writers.insert(tid);
            }
            DevOp::Commit { tid } | DevOp::CommitSubmit { tid } => {
                let (snapshot, wrote) = (self.began.remove(&tid), self.writers.remove(&tid));
                match tx(dev).commit_submit(tid) {
                    Ok(ticket) => {
                        seen.staged += u32::from(!ticket.is_immediate());
                        let overlapping = snapshot && wrote && !self.began.is_empty();
                        seen.overlapping_admits += u32::from(overlapping);
                        match op {
                            DevOp::Commit { .. } => tx(dev).commit_wait(ticket)?,
                            _ => self.tickets.push(ticket),
                        }
                    }
                    Err(DevError::Conflict) if snapshot => {
                        self.conflicts += 1;
                        seen.conflicts += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
            DevOp::CommitWait => {
                if let Some(ticket) = self.tickets.pop() {
                    tx(dev).commit_wait(ticket)?;
                }
            }
            DevOp::Abort { tid } => {
                tx(dev).abort(tid)?;
                self.began.remove(&tid);
                self.writers.remove(&tid);
            }
            DevOp::Group { tid, ref pages } => D::group(dev, tid, pages)?,
            DevOp::Flush => dev.flush()?,
            DevOp::Crash => unreachable!("a power cut is the schedule's to make"),
        }
        Ok(())
    }

    /// Holds the device's conflict count to the refusals this run saw.
    fn assert_conflicts<D: Swept>(&self, dev: &ShadowDevice<D>, what: &str) {
        let aborts = dev.inner().base().stats().conflict_aborts;
        assert_eq!(
            aborts, self.conflicts,
            "{what}: the device's conflict tally"
        );
    }
}

/// The one schedule runner. Issues `ops` on `dev` through [`Run::issue`],
/// each of which must succeed, and after every one reads every page
/// plainly and through every open transaction: the oracle asserts each
/// read (visibility at commit, read-your-own-writes, isolation, frozen
/// snapshot views), each commit verdict (no lost update, no spurious
/// conflict), and — inside `crash`, a recovery such as [`recover`] —
/// that a power cut kept the durable image plus a prefix of what was
/// staged. The device's conflict count must equal the refusals seen.
/// With `audit`, the flash auditor also opens the device after every op.
/// Returns the device as the schedule left it; on a panic, prints the
/// schedule as a [`literal`].
pub fn run_schedule<D: Swept>(
    what: &str,
    mut dev: ShadowDevice<D>,
    ops: &[DevOp],
    crash: impl Fn(ShadowDevice<D>) -> ShadowDevice<D>,
    audit: bool,
    seen: &mut Exercised,
) -> ShadowDevice<D> {
    let mut buf = vec![0u8; dev.page_size()];
    let mut run = Run::default();
    for (i, op) in ops.iter().enumerate() {
        let _at = Unwinding(|| format!("{what}: failed at op {i}, {op:?}, of {}", literal(ops)));
        if let DevOp::Crash = op {
            run.assert_conflicts(&dev, what);
            dev = crash(dev);
            let strict = |(kept, staged): (usize, usize)| kept < staged;
            seen.cuts_strict_prefix += u32::from(dev.model().last_cut().is_some_and(strict));
            // Tickets, snapshots and uncommitted writes die with the
            // power.
            run = Run::default();
        } else if let Err(e) = run.issue(&mut dev, op, seen) {
            panic!("{what}: {op:?} refused: {e:?}");
        }
        for lpn in 0..dev.capacity_pages() {
            dev.read(lpn, &mut buf).unwrap();
            for &tid in run.began.union(&run.writers) {
                tx(&mut dev).read_tx(tid, lpn, &mut buf).unwrap();
            }
        }
        if audit {
            dev.audit();
        }
    }
    run.assert_conflicts(&dev, what);
    dev
}

// --- the every-boundary power-cut sweep -----------------------------------

/// `count` groups of up to `len` pages scattered over `dev`'s logical
/// pages, each filled with a byte naming it.
pub fn fill_groups<D: Swept>(dev: &ShadowDevice<D>, count: u64, len: u64) -> Vec<DevOp> {
    let logical = dev.capacity_pages();
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(i);
            let mut pages: Vec<(Lpn, Page)> = Vec::new();
            for _ in 0..len {
                let lpn = rng.gen_range(0..logical);
                if pages.iter().all(|(l, _)| *l != lpn) {
                    pages.push((lpn, Page::Fill((i % 250) as u8 + 1)));
                }
            }
            DevOp::Group { tid: i + 1, pages }
        })
        .collect()
}

/// Cuts the power at every program and erase of `ops` on the device
/// `build` makes, through [`power_cuts`]. Each cut must fail an op with
/// the chip dead; every op of the uncut run is audited. The oracle
/// judges every recovery — its durability sweep in [`recover`], and a
/// read of every logical page, which catches a page never written that
/// shows bytes, and whose image the second recovery must repeat.
/// Returns the FTL statistics of the uncut run, the build phase
/// excluded, and how many cuts it made.
pub fn sweep<D: Swept>(
    build: impl Fn() -> ShadowDevice<D>,
    ops: &[DevOp],
) -> (xftl_ftl::FtlStats, u64) {
    let run = |dev: &mut ShadowDevice<D>, fuse: Option<u64>| {
        let built = *dev.inner().base().stats();
        let (mut run, mut seen) = (Run::default(), Exercised::default());
        let cut = ops.iter().enumerate().find_map(|(i, op)| {
            let cut = run.issue(dev, op, &mut seen).err();
            if cut.is_none() && fuse.is_none() {
                dev.audit();
            }
            cut.map(|e| format!("op {i}, {op:?}: {e:?}"))
        });
        match cut {
            Some(cut) => assert!(
                dev.inner().base().chip().is_dead(),
                "fuse {fuse:?}: {cut} with the power on"
            ),
            None => assert!(fuse.is_none(), "fuse {fuse:?} failed no op"),
        }
        *dev.inner().base().stats() - built
    };
    let (cuts, stats) = power_cuts(build, run, |dev, _, _| image(dev));
    (stats, cuts)
}

/// Every logical page `lpn` below `expect.len()` of `dev` holds the byte
/// `expect[lpn]` throughout.
pub fn assert_image<D: BlockDevice>(dev: &mut D, expect: &[u8], what: &str) {
    let mut buf = vec![0u8; dev.page_size()];
    for (lpn, &fill) in expect.iter().enumerate() {
        dev.read(lpn as Lpn, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == fill),
            "{what}: lpn {lpn} holds {:#x}, expected {fill:#x}",
            buf[0]
        );
    }
}

/// Every logical page of `dev`, read.
pub fn image<D: BlockDevice>(dev: &mut D) -> Vec<Vec<u8>> {
    let mut buf = vec![0u8; dev.page_size()];
    (0..dev.capacity_pages())
        .map(|lpn| {
            dev.read(lpn, &mut buf).unwrap();
            buf.clone()
        })
        .collect()
}

// --- the power-cut harness --------------------------------------------------

/// Anything over a flash chip with a recovery of its own that
/// [`power_cuts`] can cut: a personality behind the oracle, a bare
/// device, the FS + DB stack, a recovery half done ([`Scanned`]).
pub trait Stack: Sized {
    /// The stack its recovery brings back, which is cut and recovered
    /// again the same way.
    type Recovered: Stack<Recovered = Self::Recovered>;

    /// `f` on the flash under the stack.
    fn with_chip<T>(&mut self, f: impl FnOnce(&mut FlashChip) -> T) -> T;

    /// Takes the stack down to its flash and brings it back through its
    /// own recovery, behind the oracle and the auditor where it has them.
    fn recover(self) -> Self::Recovered;

    /// Which of the `ops` programs and erases of the uncut run (the stack
    /// as that run left it) to cut: every one.
    fn fuses(&mut self, ops: u64) -> Vec<u64> {
        (1..=ops).collect()
    }
}

/// The one power-cut harness. Runs the stack `build` makes once uncut to
/// count the programs and erases of `run`; then, for each cut
/// ([`Stack::fuses`]), builds the stack again, arms the power fuse, runs
/// it to the cut, recovers it through its own recovery and hands it to
/// `check`, and recovers it a second time: `check` must see the same
/// again. The uncut run is recovered and checked the same way, as cut
/// `None`; `run` sees which cut it runs to. Returns how many cuts were
/// made and what the uncut run returned.
pub fn power_cuts<S: Stack, O, Seen: PartialEq>(
    build: impl Fn() -> S,
    mut run: impl FnMut(&mut S, Option<u64>) -> O,
    mut check: impl FnMut(&mut S::Recovered, &O, Option<u64>) -> Seen,
) -> (u64, O) {
    let ops = |c: &mut FlashChip| c.stats().programs + c.stats().erases;
    let mut recover_twice = |stack: S, outcome: &O, fuse: Option<u64>| {
        let _at = Unwinding(|| format!("power cut at fuse {fuse:?}"));
        let mut stack = stack.recover();
        let seen = check(&mut stack, outcome, fuse);
        let mut stack = stack.recover();
        assert!(
            check(&mut stack, outcome, fuse) == seen,
            "fuse {fuse:?}: the second recovery differs from the first"
        );
    };
    let mut stack = build();
    let before = stack.with_chip(ops);
    let uncut = run(&mut stack, None);
    let ran = stack.with_chip(ops) - before;
    let fuses = stack.fuses(ran);
    recover_twice(stack, &uncut, None);
    for &fuse in &fuses {
        let mut stack = build();
        stack.with_chip(|c| c.arm_power_fuse(fuse));
        let outcome = run(&mut stack, Some(fuse));
        assert!(stack.with_chip(|c| c.is_dead()), "fuse {fuse} never fired");
        recover_twice(stack, &outcome, Some(fuse));
    }
    (fuses.len() as u64, uncut)
}

impl<P: Personality + Auditable> Stack for ShadowDevice<P> {
    type Recovered = Self;

    fn with_chip<T>(&mut self, f: impl FnOnce(&mut FlashChip) -> T) -> T {
        f(self.inner_mut().base_mut().chip_mut())
    }

    fn recover(self) -> Self {
        recover(self)
    }
}

/// A bare device, no oracle: the auditor alone checks its recovery.
impl Stack for AtomicWriteFtl {
    type Recovered = Self;

    fn with_chip<T>(&mut self, f: impl FnOnce(&mut FlashChip) -> T) -> T {
        f(self.base_mut().chip_mut())
    }

    fn recover(self) -> Self {
        let dev = <Self as Personality>::recover(self.into_chip())
            .unwrap_or_else(|e| panic!("recovery refused the chip: {e:?}"));
        dev.audit().unwrap_or_else(|v| panic!("{v}"));
        dev
    }
}

/// A recovery cut after its scan: the chip under a crashed device
/// scanned by [`FtlBase::recover`] and the personality assembled over it,
/// [`Scanned::run`] still to come. The scan programs and erases nothing
/// ([`scan`] asserts it), so cutting `run` cuts every write `P::recover`
/// makes.
pub struct Scanned<P> {
    pub dev: P,
    pub log: RecoveryLog,
    model: ShadowModel,
}

/// [`FtlBase::recover`], the recovery scan, on `chip`, held to what the
/// recovery sweeps rest on: it programs and erases nothing.
pub fn scan(chip: FlashChip) -> (FtlBase, RecoveryLog) {
    let before = *chip.stats();
    let (base, log) = FtlBase::recover(chip).expect("the scan refused the chip");
    let after = base.flash_stats();
    assert_eq!(
        (after.programs, after.erases),
        (before.programs, before.erases),
        "the recovery scan wrote to flash"
    );
    (base, log)
}

impl<P: Personality> Scanned<P> {
    pub fn new(crashed: ShadowDevice<P>) -> Self {
        let (inner, model) = crashed.into_parts();
        let (base, log) = scan(inner.into_chip());
        Scanned {
            dev: P::assemble(base),
            log,
            model,
        }
    }

    /// The rest of `P`'s recovery.
    pub fn run(&mut self) -> xftl_ftl::Result<()> {
        self.dev.recover_from_scan(&self.log)
    }
}

impl<P: Personality + Auditable> Stack for Scanned<P> {
    type Recovered = ShadowDevice<P>;

    fn with_chip<T>(&mut self, f: impl FnOnce(&mut FlashChip) -> T) -> T {
        f(self.dev.base_mut().chip_mut())
    }

    fn recover(self) -> ShadowDevice<P> {
        let dev = P::recover(self.dev.into_chip())
            .unwrap_or_else(|e| panic!("recovery refused the chip: {e:?}"));
        resume(dev, self.model)
    }
}
