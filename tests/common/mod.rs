//! Oracle wiring and the power-cut harness shared by the integration
//! tests.
//!
//! Every device personality under test runs behind
//! [`xftl_verify::ShadowDevice`]: each command the test (or the FS/DB
//! stack above it) issues is mirrored into the reference model, every
//! read is checked against the worlds the crash semantics allow, and each
//! recovery ends with a durability sweep plus a flash-physics audit. The
//! op loops in the test files only use the device traits, which the
//! wrapper forwards. Every loop over power-cut positions is a call to
//! [`power_cuts`].

#![allow(
    dead_code,
    reason = "each test binary uses its own subset of these helpers"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_core::XFtl;
use xftl_flash::{FlashChip, Oob, PageKind, PageProbe, Ppa};
use xftl_ftl::meta::MetaPage;
use xftl_ftl::{
    AtomicWriteFtl, BlockDevice, DevError, FtlBase, Lpn, PageMappedFtl, Personality, RecoveryLog,
    Tid, TxBlockDevice, TxFlashFtl,
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

// --- the every-boundary power-cut sweep -----------------------------------

/// What the sweep needs of a personality beyond the trait: how it writes
/// one acknowledged group, and whether that is all-or-nothing.
pub trait Swept: Personality + Auditable {
    /// Whether [`Swept::group`] is all-or-nothing across a power cut.
    const ATOMIC: bool;
    /// Writes `pages` as one acknowledged group: a transaction and its
    /// commit where the personality has them, plain writes and a flush
    /// where it does not.
    fn group(dev: &mut ShadowDevice<Self>, tid: Tid, pages: &[(Lpn, Vec<u8>)]) -> Result<(), Cut>;
}

/// Where in a [`Swept::group`] a command failed.
#[derive(Debug)]
pub struct Cut {
    /// Pages of the group whose writes were acknowledged one by one
    /// before it (always 0 inside a transaction).
    pub acked: usize,
    /// It was the command that seals the group: commit or flush.
    pub sealing: bool,
    pub error: DevError,
}

fn plain_group<D: BlockDevice>(dev: &mut D, pages: &[(Lpn, Vec<u8>)]) -> Result<(), Cut> {
    let cut = |acked, sealing| {
        move |error| Cut {
            acked,
            sealing,
            error,
        }
    };
    for (acked, (lpn, data)) in pages.iter().enumerate() {
        dev.write(*lpn, data).map_err(cut(acked, false))?;
    }
    dev.flush().map_err(cut(pages.len(), true))
}

fn tx_group<D: TxBlockDevice>(dev: &mut D, tid: Tid, pages: &[(Lpn, Vec<u8>)]) -> Result<(), Cut> {
    let cut = |sealing| {
        move |error| Cut {
            acked: 0,
            sealing,
            error,
        }
    };
    for (lpn, data) in pages {
        dev.write_tx(tid, *lpn, data).map_err(cut(false))?;
    }
    dev.commit(tid).map_err(cut(true))
}

impl Swept for PageMappedFtl {
    const ATOMIC: bool = false;
    fn group(dev: &mut ShadowDevice<Self>, _: Tid, pages: &[(Lpn, Vec<u8>)]) -> Result<(), Cut> {
        plain_group(dev, pages)
    }
}

impl Swept for AtomicWriteFtl {
    const ATOMIC: bool = false;
    fn group(dev: &mut ShadowDevice<Self>, _: Tid, pages: &[(Lpn, Vec<u8>)]) -> Result<(), Cut> {
        plain_group(dev, pages)
    }
}

impl Swept for TxFlashFtl {
    const ATOMIC: bool = true;
    fn group(dev: &mut ShadowDevice<Self>, tid: Tid, pages: &[(Lpn, Vec<u8>)]) -> Result<(), Cut> {
        tx_group(dev, tid, pages)
    }
}

impl Swept for XFtl {
    const ATOMIC: bool = true;
    fn group(dev: &mut ShadowDevice<Self>, tid: Tid, pages: &[(Lpn, Vec<u8>)]) -> Result<(), Cut> {
        tx_group(dev, tid, pages)
    }
}

/// One acknowledged step of a [`sweep`] schedule.
#[derive(Debug, Clone)]
pub enum Step {
    /// Whole pages written as one group by [`Swept::group`].
    Group(Tid, Vec<(Lpn, Vec<u8>)>),
    /// A plain write of one page.
    Plain(Lpn, Vec<u8>),
    /// A flush.
    Flush,
}

impl Step {
    /// The pages the step writes, in order.
    pub fn pages(&self) -> Vec<(Lpn, &[u8])> {
        match self {
            Step::Group(_, pages) => pages.iter().map(|(lpn, page)| (*lpn, &page[..])).collect(),
            Step::Plain(lpn, page) => vec![(*lpn, &page[..])],
            Step::Flush => Vec::new(),
        }
    }
}

/// `count` groups of up to `len` pages scattered over `dev`'s logical
/// pages, each filled with a byte naming it.
pub fn fill_groups<D: Swept>(dev: &ShadowDevice<D>, count: u64, len: u64) -> Vec<Step> {
    let (logical, ps) = (dev.capacity_pages(), dev.page_size());
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(i);
            let mut pages: Vec<(Lpn, Vec<u8>)> = Vec::new();
            for _ in 0..len {
                let lpn = rng.gen_range(0..logical);
                if pages.iter().all(|(l, _)| *l != lpn) {
                    pages.push((lpn, vec![(i % 250) as u8 + 1; ps]));
                }
            }
            Step::Group(i + 1, pages)
        })
        .collect()
}

/// Cuts the power at every program and erase of `steps` on the device
/// `build` makes, through [`power_cuts`], and holds every recovery to
/// every page byte for byte: every acknowledged step is there, the step
/// in flight as far as the personality promises, and nothing else moved.
/// A group is there whole or not at all where groups are atomic, and
/// whole only if its seal was reached; page by page where they are not,
/// the acknowledged writes for sure and the one in flight perhaps. A
/// plain write is a group of one page: there once acknowledged, perhaps
/// if the power died in it. Every step of the uncut run is audited.
/// Returns the FTL statistics of the uncut run, the build phase
/// excluded, and how many cuts it made.
pub fn sweep<D: Swept>(
    build: impl Fn() -> ShadowDevice<D>,
    steps: &[Step],
) -> (xftl_ftl::FtlStats, u64) {
    let initial = image(&mut build());
    // What the recovery may show: every acknowledged step, and of the
    // step the power died in the pages before `cut.acked`, and perhaps
    // those up to `may`.
    let run = |dev: &mut ShadowDevice<D>, fuse: Option<u64>| {
        let built = *dev.inner().base().stats();
        let (mut expect, mut landed) = (initial.clone(), None);
        for s in steps {
            if let Err(cut) = step(dev, s) {
                let what = format!("fuse {fuse:?}: {s:?}: {cut:?}");
                assert!(
                    dev.inner().base().chip().is_dead(),
                    "{what} with the power on"
                );
                let pages = s.pages();
                let may = match D::ATOMIC && matches!(s, Step::Group(..)) {
                    true if cut.sealing => pages.len(),
                    true => 0,
                    false => (cut.acked + 1).min(pages.len()),
                };
                put(&mut expect, &pages[..cut.acked]);
                let mut image = expect.clone();
                put(&mut image, &pages[cut.acked..may]);
                landed = Some((image, what));
                break;
            }
            apply(&mut expect, s);
            if fuse.is_none() {
                dev.audit();
            }
        }
        assert!(
            landed.is_some() == fuse.is_some(),
            "fuse {fuse:?} failed no step"
        );
        (expect, landed, *dev.inner().base().stats() - built)
    };
    let (cuts, (.., stats)) = power_cuts(build, run, |dev, (expect, landed, _), _| {
        let got = image(dev);
        assert!(
            got == *expect || landed.as_ref().is_some_and(|(image, _)| got == *image),
            "{}: shows in part, or an acknowledged step is lost",
            landed.as_ref().map_or("uncut", |(_, what)| what)
        );
        got
    });
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
fn image<D: BlockDevice>(dev: &mut D) -> Vec<Vec<u8>> {
    let mut buf = vec![0u8; dev.page_size()];
    (0..dev.capacity_pages())
        .map(|lpn| {
            dev.read(lpn, &mut buf).unwrap();
            buf.clone()
        })
        .collect()
}

/// Runs `s`; on failure, where in it the command failed. A plain write
/// or a flush is its own seal.
pub fn step<D: Swept>(dev: &mut ShadowDevice<D>, s: &Step) -> Result<(), Cut> {
    let cut = |error| Cut {
        acked: 0,
        sealing: true,
        error,
    };
    match s {
        Step::Group(tid, pages) => D::group(dev, *tid, pages),
        Step::Plain(lpn, page) => dev.write(*lpn, page).map_err(cut),
        Step::Flush => dev.flush().map_err(cut),
    }
}

/// `expect` after `s`.
pub fn apply(expect: &mut [Vec<u8>], s: &Step) {
    put(expect, &s.pages());
}

/// `expect` with `pages` written.
fn put(expect: &mut [Vec<u8>], pages: &[(Lpn, &[u8])]) {
    for (lpn, page) in pages {
        expect[*lpn as usize].copy_from_slice(page);
    }
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
