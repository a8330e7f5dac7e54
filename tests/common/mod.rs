//! Oracle wiring shared by the integration tests.
//!
//! Every device personality under test runs behind
//! [`xftl_verify::ShadowDevice`]: each command the test (or the FS/DB
//! stack above it) issues is mirrored into the reference model, every
//! read is checked against the worlds the crash semantics allow, and each
//! recovery ends with a durability sweep plus a flash-physics audit. The
//! op loops in the test files only use the device traits, which the
//! wrapper forwards.

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
    AtomicWriteFtl, BlockDevice, DevError, FtlBase, Lpn, PageMappedFtl, Personality, Tid,
    TxBlockDevice, TxFlashFtl,
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
    fn pages(&self) -> Vec<(Lpn, &[u8])> {
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
/// `build` makes, and after each cut recovers (twice; no chip may be
/// refused) and checks every page byte for byte: every acknowledged step
/// is there, the step in flight as far as the personality promises, and
/// nothing else moved — behind the shadow oracle, which with the flash
/// auditor checks every recovery as well. A group is there whole or not
/// at all where groups are atomic, and whole only if its seal was
/// reached; page by page where they are not, the acknowledged writes for
/// sure and the one in flight perhaps. A plain write may or may not be
/// there. Every step of the uncut run is audited. Returns the FTL
/// statistics of the uncut run, the build phase excluded, and how many
/// cuts it made.
pub fn sweep<D: Swept>(
    build: impl Fn() -> ShadowDevice<D>,
    steps: &[Step],
) -> (xftl_ftl::FtlStats, u64) {
    let ops = |d: &ShadowDevice<D>| {
        let s = d.inner().base().flash_stats();
        s.programs + s.erases
    };
    let image = |d: &mut ShadowDevice<D>| -> Vec<Vec<u8>> {
        let mut buf = vec![0u8; d.page_size()];
        (0..d.capacity_pages())
            .map(|lpn| {
                d.read(lpn, &mut buf).unwrap();
                buf.clone()
            })
            .collect()
    };
    // The uncut run: how many cuts there are, and what the steps did.
    let mut dev = build();
    let (before, built) = (ops(&dev), *dev.inner().base().stats());
    for s in steps {
        step(&mut dev, s).unwrap();
        dev.audit();
    }
    let cuts = ops(&dev) - before;
    let stats = *dev.inner().base().stats() - built;
    for fuse in 1..=cuts {
        let mut dev = build();
        let mut expect = image(&mut dev);
        dev.inner_mut().base_mut().chip_mut().arm_power_fuse(fuse);
        // The step the power died in, and where in it.
        let mut in_flight = None;
        for s in steps {
            match step(&mut dev, s) {
                Ok(()) => apply(&mut expect, s),
                Err(cut) => {
                    assert!(
                        dev.inner().base().chip().is_dead(),
                        "fuse {fuse}: {s:?}: {cut:?} with the power on"
                    );
                    in_flight = Some((s, cut));
                    break;
                }
            }
        }
        let (s, cut) = in_flight.unwrap_or_else(|| panic!("fuse {fuse} never fired"));
        let (inner, model) = dev.into_parts();
        let recovered =
            D::recover(inner.into_chip()).unwrap_or_else(|e| panic!("fuse {fuse}: {e:?}"));
        let mut dev = resume(recovered, model);
        let got = image(&mut dev);
        // Of the step in flight, the pages before `cut.acked` show, and
        // those up to `may` perhaps.
        let pages = s.pages();
        let may = match D::ATOMIC && matches!(s, Step::Group(..)) {
            true if cut.sealing => pages.len(),
            true => 0,
            false => (cut.acked + 1).min(pages.len()),
        };
        put(&mut expect, &pages[..cut.acked]);
        let mut landed = expect.clone();
        put(&mut landed, &pages[cut.acked..may]);
        assert!(
            got == expect || got == landed,
            "fuse {fuse}: {s:?}: {cut:?}: shows in part, or an acknowledged step is lost"
        );
        // Recovery is idempotent.
        let mut dev = recover(dev);
        assert!(image(&mut dev) == got, "fuse {fuse}: second recovery");
    }
    (stats, cuts)
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
