//! Assembling the stack under test from its public constructors, with a
//! probe above and below the SATA link, and taking it through a power
//! cut.
//!
//! `Rig` (xftl-workloads) erases the FTL personality behind the `AnyDev`
//! enum, which leaves no generic boundary to probe. The benchmark builds
//! the same assembly — chip → FTL → `SataLink` → `FileSystem` →
//! `Connection`, one shared `Telemetry`, same `FsConfig` rule — as a
//! concrete type, `FileSystem<Probe<SataLink<Probe<F, T>>, T>>`, so the
//! traced (`T = Spans`) and untraced (`T = NoTap`) stacks differ in the
//! probes and in nothing else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_core::XFtl;
use xftl_db::DbJournalMode;
use xftl_flash::{FlashChip, FlashConfig, SimClock};
use xftl_fs::{FileSystem, FsConfig, JournalMode};
use xftl_ftl::{BlockDevice, FtlBase, LinkConfig, PageMappedFtl, SataLink};
use xftl_trace::Telemetry;

use crate::lap::{Res, Snapshot};
use crate::probe::{Probe, SpanTotals, Tap};

/// The device the file system sees: FTL personality `F` behind the SATA
/// link, probed on both sides of it.
pub type Linked<F, T> = Probe<SataLink<Probe<F, T>>, T>;

/// An FTL personality the benchmark can format, recover, and put a file
/// system on.
pub trait Personality: BlockDevice + Sized {
    /// The SQLite journal mode the paper pairs with this device.
    const DB_MODE: DbJournalMode;
    fn format(chip: FlashChip, logical_pages: u64) -> xftl_ftl::Result<Self>;
    fn recover(chip: FlashChip) -> xftl_ftl::Result<Self>;
    fn base(&self) -> &FtlBase;
    fn into_chip(self) -> FlashChip;
    fn mkfs<T: Tap>(
        dev: Linked<Self, T>,
        cfg: FsConfig,
    ) -> xftl_fs::Result<FileSystem<Linked<Self, T>>>;
    fn mount<T: Tap>(
        dev: Linked<Self, T>,
        cache_pages: usize,
    ) -> xftl_fs::Result<FileSystem<Linked<Self, T>>>;
}

/// X-FTL: journaling off in the database and in the file system.
impl Personality for XFtl {
    const DB_MODE: DbJournalMode = DbJournalMode::Off;
    fn format(chip: FlashChip, logical_pages: u64) -> xftl_ftl::Result<Self> {
        XFtl::format(chip, logical_pages)
    }
    fn recover(chip: FlashChip) -> xftl_ftl::Result<Self> {
        XFtl::recover(chip)
    }
    fn base(&self) -> &FtlBase {
        XFtl::base(self)
    }
    fn into_chip(self) -> FlashChip {
        XFtl::into_chip(self)
    }
    fn mkfs<T: Tap>(
        dev: Linked<Self, T>,
        cfg: FsConfig,
    ) -> xftl_fs::Result<FileSystem<Linked<Self, T>>> {
        FileSystem::mkfs_tx(dev, JournalMode::Off, cfg)
    }
    fn mount<T: Tap>(
        dev: Linked<Self, T>,
        cache_pages: usize,
    ) -> xftl_fs::Result<FileSystem<Linked<Self, T>>> {
        FileSystem::mount_tx(dev, JournalMode::Off, cache_pages)
    }
}

/// The plain page-mapping FTL: SQLite WAL over ext4 ordered journaling.
impl Personality for PageMappedFtl {
    const DB_MODE: DbJournalMode = DbJournalMode::Wal;
    fn format(chip: FlashChip, logical_pages: u64) -> xftl_ftl::Result<Self> {
        PageMappedFtl::format(chip, logical_pages)
    }
    fn recover(chip: FlashChip) -> xftl_ftl::Result<Self> {
        PageMappedFtl::recover(chip)
    }
    fn base(&self) -> &FtlBase {
        PageMappedFtl::base(self)
    }
    fn into_chip(self) -> FlashChip {
        PageMappedFtl::into_chip(self)
    }
    fn mkfs<T: Tap>(
        dev: Linked<Self, T>,
        cfg: FsConfig,
    ) -> xftl_fs::Result<FileSystem<Linked<Self, T>>> {
        FileSystem::mkfs(dev, JournalMode::Ordered, cfg)
    }
    fn mount<T: Tap>(
        dev: Linked<Self, T>,
        cache_pages: usize,
    ) -> xftl_fs::Result<FileSystem<Linked<Self, T>>> {
        FileSystem::mount(dev, JournalMode::Ordered, cache_pages)
    }
}

/// Size and pre-conditioning of one file-system stack.
#[derive(Debug, Clone, Copy)]
pub struct StackSpec {
    pub flash: FlashConfig,
    pub logical_pages: u64,
    pub fs_cache_pages: usize,
    /// Pre-mkfs device aging: `(fill, churn)` as in `rig::Aging`.
    pub aging: Option<(f64, f64)>,
}

/// Seed of the aging churn: device pre-conditioning is set-up, not
/// workload, so `--seed` does not reach it.
const AGING_SEED: u64 = 42;

/// A fresh chip on a fresh clock, carrying the telemetry handle every
/// layer above will share.
pub fn new_chip(flash: FlashConfig) -> (FlashChip, SimClock) {
    let clock = SimClock::new();
    let mut chip = FlashChip::new(flash, clock.clone());
    chip.set_recorder(Telemetry::new());
    (chip, clock)
}

fn link<F: Personality, T: Tap>(ftl: F, clock: &SimClock) -> Linked<F, T> {
    let inner = Probe::new(ftl, T::new(clock));
    // The OpenSSD profile's host interface, as in `rig::link_for`.
    let link = SataLink::new(inner, LinkConfig::SATA2, clock.clone());
    Probe::new(link, T::new(clock))
}

/// The FTL inside a linked device.
pub fn ftl_of<F: BlockDevice, T: Tap>(dev: &Linked<F, T>) -> &F {
    dev.inner().inner().inner()
}

/// chip → FTL → (aging) → link → mkfs, as `Rig::build` does it.
pub fn build_fs<F: Personality, T: Tap>(
    spec: &StackSpec,
) -> Res<(FileSystem<Linked<F, T>>, SimClock)> {
    let (chip, clock) = new_chip(spec.flash);
    let mut dev = link::<F, T>(F::format(chip, spec.logical_pages)?, &clock);
    if let Some((fill, churn)) = spec.aging {
        age(&mut dev, fill, churn)?;
    }
    let cfg = FsConfig {
        inode_count: 256,
        journal_pages: 256.min(spec.logical_pages / 8).max(16),
        cache_pages: spec.fs_cache_pages,
    };
    let mut fs = F::mkfs(dev, cfg)?;
    let telemetry = ftl_of(fs.device()).base().recorder().clone();
    fs.set_recorder(clock.clone(), telemetry);
    Ok((fs, clock))
}

/// `rig::age_device` for any device: cold-fill the tail of the logical
/// space, then churn it with random overwrites so GC has reached its
/// validity regime before mkfs.
fn age<D: BlockDevice>(dev: &mut D, fill: f64, churn: f64) -> Res<()> {
    let mut rng = StdRng::seed_from_u64(AGING_SEED);
    let logical = dev.capacity_pages();
    let filled = (logical as f64 * fill) as u64;
    let cold_start = logical - filled;
    let mut page = vec![0u8; dev.page_size()];
    for lpn in cold_start..logical {
        page[0] = lpn as u8;
        dev.write(lpn, &page)?;
    }
    for _ in 0..(filled as f64 * churn) as u64 {
        let lpn = cold_start + rng.gen_range(0..filled.max(1));
        page[0] = lpn as u8;
        dev.write(lpn, &page)?;
    }
    dev.flush()?;
    Ok(())
}

/// Power loss: host caches and device RAM are dropped, only the flash
/// medium survives.
pub fn power_cut<F: Personality, T: Tap>(fs: FileSystem<Linked<F, T>>) -> FlashChip {
    let mut chip = fs
        .into_device()
        .into_inner()
        .into_inner()
        .into_inner()
        .into_chip();
    chip.power_cycle();
    chip
}

/// Device recovery and re-mount after [`power_cut`]. The simulated time
/// it takes is the caller's to read off the clock.
pub fn recover_fs<F: Personality, T: Tap>(
    chip: FlashChip,
    spec: &StackSpec,
) -> Res<FileSystem<Linked<F, T>>> {
    let clock = chip.clock().clone();
    let dev = link::<F, T>(F::recover(chip)?, &clock);
    let telemetry = ftl_of(&dev).base().recorder().clone();
    let mut fs = F::mount(dev, spec.fs_cache_pages)?;
    fs.set_recorder(clock, telemetry);
    Ok(fs)
}

/// The cumulative counters of a file-system stack.
pub fn snapshot<F: Personality, T: Tap>(fs: &FileSystem<Linked<F, T>>) -> Snapshot {
    Snapshot::of_device(ftl_of(fs.device()).base()).with_fs(*fs.stats())
}

/// The spans of both probes of a linked device: `(outer, inner)`.
pub fn span_totals<F: BlockDevice, T: Tap>(
    dev: &Linked<F, T>,
) -> (Option<SpanTotals>, Option<SpanTotals>) {
    (dev.tap().totals(), dev.inner().inner().tap().totals())
}

/// Clears both probes of a linked device.
pub fn reset_spans<F: BlockDevice, T: Tap>(dev: &mut Linked<F, T>) {
    dev.tap_mut().reset();
    dev.inner_mut().inner_mut().tap_mut().reset();
}
