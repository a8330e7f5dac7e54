//! The shared page-mapping FTL engine every device personality wraps.
//!
//! Four personalities are thin assemblies of this engine; each adds only
//! its own notion of a transaction — its [`Personality`] impl is that
//! notion's RAM state and recovery rule, and the trait provides the
//! `format` and `recover` they share:
//!
//! * [`crate::pagemap::PageMappedFtl`] — the OpenSSD's original FTL: plain
//!   page mapping with copy-on-write updates and greedy GC.
//! * [`crate::atomicwrite::AtomicWriteFtl`] — per-call atomic groups sealed
//!   by a commit-record page.
//! * [`crate::txflash::TxFlashFtl`] — TxFlash's cyclic commit in the OOB.
//! * `xftl_core::XFtl` — the paper's contribution: the transactional X-L2P
//!   table, commit/abort commands and GC pinning.
//!
//! ## Module map
//!
//! | module | owns | contract |
//! |---|---|---|
//! | `mod.rs` | [`FtlBase`], [`Personality`] | page I/O (the one program path, reads with ECC retry), mapping folds, the meta ring and checkpoints, the X-L2P table image, the split-phase ticket ledger, device health; orchestrates the rest |
//! | `pool.rs` | `Pool` | every flash block is in exactly one state (`Meta`, `Free`, `Open`, `Closed`, `Bad`); allocation, frontiers, the free list and the FIFO queue agree with it |
//! | `map.rs` | `MapDir` | every L2P slab has one home (cache frame, translation page, or both) and non-resident slabs are clean; demand fetch, eviction and the one slab writer live here |
//! | `gc.rs` | — | when to reclaim, which closed block, and the relocate-chase-erase loop shared by GC, scrub and wear leveling |
//! | `recover.rs` | — | newest root → one OOB scan (census, events, every slab's home, the live table image; a data block the root covers is taken on trust after two probes) → directory → the same constructor `format` uses; the replay-and-checkpoint tail every personality ends with |
//!
//! `Pool` and `MapDir` keep their fields private: the collector, recovery
//! and this file reach blocks and slabs only through their methods.
//!
//! The engine exposes copy-on-write primitives (`write_cow`) that do *not*
//! touch the L2P table, alongside committed-state operations
//! (`write_committed`), so a wrapper can implement either semantics.
//!
//! ## Persistence model
//!
//! Blocks 0 and 1 are a reserved *meta ring*: checkpoint-root pages are
//! appended to it and the newest valid one wins at recovery (the paper
//! assumes the meta-block pointer update is atomic; appending versioned
//! root pages is the standard way firmware realizes that assumption). A
//! checkpoint writes every dirty L2P slab into the normal log frontier
//! (kind = `Map`) and then a fresh meta page. The root carries the
//! checkpoint sequence number, the transaction horizon, the bad-block
//! table and the device-health state — and names **no page of the pool**.
//! *A page the recovery scan sees anyway needs no pointer*, and the scan
//! probes the OOB of every page the root does not cover:
//!
//! * a translation page says `kind = Map`, `lpn` = slab index and its
//!   program sequence: the newest intact one of an index *is* that
//!   slab's home (a GC copy is newer than its original and identical);
//! * an X-L2P table-image page says `kind = XL2p`, its generation id, its
//!   index and the page count: the newest complete generation the
//!   checkpoint does not already cover is the live one.
//!
//! So no root, however old, can name a page GC has since erased, and
//! neither an eviction nor a relocation has a root to write. Crash
//! recovery loads the slabs the scan found and rolls the L2P forward by
//! replaying data pages whose OOB sequence number exceeds the
//! checkpoint's, in sequence order — over a slab written since that
//! checkpoint the replay is idempotent (folds are last-writer-wins).
//! Transactional pages (OOB `tid != 0`) are *not* replayed here; the
//! X-FTL layer resolves them through the table image.
//!
//! What the root *does* say is how much of the pool the scan may take on
//! trust. Sequences ascend within a block (stamped at program time,
//! programmed in page order), so a data block whose **last** page is an
//! intact data page at or below both `ckpt_seq` (nothing in it is a
//! roll-forward event) and `tx_horizon` (nothing in it is evidence a
//! personality would still fold) is entered in the census after two
//! probes; an erased, torn, non-data or newer last page, or a first page
//! that is not data — every mapping-class block — is read in full, as
//! every block used to be. Two things keep that set small: a root is
//! due ([`FtlBase::root_due`]) once 32 blocks' worth of pages have been
//! programmed since the last, asked by each personality where it runs
//! its own checkpoint routine, and every checkpoint advances the horizon
//! to just below the personality's oldest open group
//! ([`GcHook::tx_floor`]); and cost-benefit GC takes a dead block
//! first, so mapping-class garbage does not stand around to be scanned.
//!
//! ## Demand-paged mapping
//!
//! The L2P table itself is not pinned in RAM. It is split into
//! page-sized *slabs*; the authoritative copy of each slab is its
//! translation page on flash, and a [`MappingCache`] keeps a bounded set
//! of hot slabs resident with CLOCK eviction. A lookup that misses
//! demand-fetches the slab (a charged flash read — translation traffic is
//! a first-class cost, exactly the DFTL trade); evicting a dirty slab is
//! one queued translation-page program (`write_slab`) and nothing else.
//! What that program must not do is become durable before a data page it
//! maps, so its cell program is ordered behind everything issued so far
//! (`cells_after`; free on one flash unit) — an order, not a wait. Where
//! each slab lives on flash (`MapDir::homes`) is RAM state of one pointer
//! a slab, rebuilt by every recovery scan.

mod gc;
mod map;
mod pool;
mod recover;

use xftl_flash::{FlashChip, FlashError, Nanos, Oob, PageKind, Ppa, SimClock};
use xftl_trace::{HeatSketch, OpClass, Telemetry};

use self::map::{slab_count, MapDir};
use self::pool::{BlockState, Pool, Stream, FIRST_POOL_BLOCK};
use crate::cmt::MappingCache;
use crate::dev::{BlockDevice, CmdId, CmdQueue, DevCounters, Lpn, Tid};
use crate::error::{DevError, Result};
use crate::health::{DeviceState, ScrubConfig, ScrubReason};
use crate::meta::MetaPage;
use crate::stats::FtlStats;
use crate::validity::ValidityMap;

/// Reserved block indices for the meta (checkpoint-root) ring. Two blocks
/// alternate so there is always one valid root on flash: when the current
/// block fills up, the *other* block is erased and written — never the one
/// holding the latest root. (This realizes the paper's assumption that
/// the meta-block pointer update is atomic.)
const META_BLOCKS: [u32; FIRST_POOL_BLOCK as usize] = [0, 1];

/// Minimum spare physical blocks the constructor insists on beyond the
/// exported capacity (frontier + GC headroom + mapping churn).
const MIN_SPARE_BLOCKS: usize = 4;

/// Bounded re-execution attempts for a program that reported status
/// failure. Each retry abandons the failing frontier and lands on a
/// different block, so hitting the limit means either an absurd injected
/// fault rate or an exhausted free pool — never a loop on one bad block.
const PROGRAM_RETRY_LIMIT: usize = 8;

/// Bounded re-issues of a read that failed ECC before the error is
/// surfaced to the caller. Background bit-flip bursts are transient, so a
/// re-read usually decodes; a persistently dead page still fails after
/// the retries.
const READ_RETRY_LIMIT: u64 = 4;

/// Write-heat counter slots for hot/cold separation (a one-row sketch;
/// see [`xftl_trace::HeatSketch`]). Fixed, so RAM stays bounded at any
/// device scale.
const HEAT_SLOTS: usize = 1 << 16;

/// Writes between heat-counter halvings.
const HEAT_HALF_LIFE: u64 = 1 << 17;

/// Heat estimate at or above which a data LPN writes to the hot frontier.
const HOT_THRESHOLD: u8 = 2;

/// Runs `read` with bounded re-issue on uncorrectable ECC errors,
/// returning the final result and the number of retries consumed. Free
/// function so host reads, the recovery path (no `FtlBase` yet) and
/// GC's queued copy-back reads share the one retry policy.
fn with_read_retries<T>(
    mut read: impl FnMut() -> xftl_flash::Result<T>,
) -> (xftl_flash::Result<T>, u64) {
    let mut r = read();
    let mut retries = 0;
    while retries < READ_RETRY_LIMIT && matches!(r, Err(FlashError::Uncorrectable(_))) {
        retries += 1;
        r = read();
    }
    (r, retries)
}

/// The checkpoint root of a device nothing was ever written to: nothing
/// persisted, no bad blocks known.
fn never_written_root(logical_pages: u64) -> MetaPage {
    MetaPage {
        logical_pages,
        ckpt_seq: 0,
        tx_horizon: 0,
        bad_blocks: Vec::new(),
        device_state: DeviceState::Healthy,
    }
}

/// Garbage-collection victim-selection policy.
///
/// * `Greedy` picks the block with the fewest valid pages — the modern
///   default, which compacts cold data into dense blocks and then ignores
///   it.
/// * `Fifo` cycles through data blocks in allocation order, like the
///   simple firmware of the OpenSSD era. Under FIFO, cold (aged) data is
///   re-copied every cycle, so the mean victim validity tracks the
///   drive's overall utilization — this is exactly the "controlled aging"
///   knob of the paper's §6.3.1 (GC validity 30/50/70 %).
/// * `CostBenefit` scores every candidate `(1 − u) / (1 + u) × age`
///   (u = valid fraction, age = programs since the block last took a
///   write) and collects the best scorer — the classic cleaning policy of
///   Kawaguchi et al., which beats greedy under skewed workloads because
///   it will eventually pick an old, half-valid cold block over a young,
///   slightly-emptier hot block that is about to self-invalidate anyway.
///   Data and mapping blocks are scored as separate victim classes, so
///   translation-page churn cannot starve data cleaning (or vice versa).
///   A block with no valid page is taken before any scoring: it costs
///   one erase and waiting cannot make it cheaper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs, reason = "the policies are described above")]
pub enum GcPolicy {
    #[default]
    Greedy,
    Fifo,
    CostBenefit,
}

/// Reserved transaction id stamped on GC copies of snapshot-retained
/// pre-images (valid tid-0 data pages the L2P no longer points at).
/// Snapshots die with device RAM, so these copies are garbage after any
/// power loss — the stamp keeps the recovery roll-forward from mistaking
/// a freshly relocated *old* version (whose program sequence is newer
/// than the overwrite's) for committed state. No host transaction may
/// use this id.
pub const RETAINED_COPY_TID: Tid = Tid::MAX;

/// Callback invoked when garbage collection moves a live page, so mapping
/// state outside the engine (the X-L2P table, atomic-write commit records)
/// can chase the page to its new address.
pub trait GcHook {
    /// `oob` is the page's metadata as originally written; the page now
    /// lives at `new` instead of `old`.
    fn relocated(&mut self, oob: &Oob, old: Ppa, new: Ppa);

    /// The lowest program sequence of a tid-tagged page the device's
    /// recovery may still have to fold: the first page of its oldest open
    /// group or cycle, `u64::MAX` when none is open or recovery never
    /// consults such pages. A checkpoint moves the transaction horizon up
    /// to just below it; `None` — a hook that cannot say — leaves the
    /// horizon where it is, and the recovery scan reads in full whatever
    /// lies above it.
    fn tx_floor(&self) -> Option<u64>;
}

/// Hook for devices with no mapping state outside the L2P table.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHook;

impl GcHook for NoHook {
    fn relocated(&mut self, _oob: &Oob, _old: Ppa, _new: Ppa) {}

    fn tx_floor(&self) -> Option<u64> {
        Some(u64::MAX)
    }
}

/// A device personality: one commit rule over the one engine.
///
/// The four personalities differ in where their commit evidence lives —
/// nowhere (`PageMappedFtl`), a commit record (`AtomicWriteFtl`), a
/// cycle-closing OOB link (`TxFlashFtl`), an X-L2P table image (`XFtl`)
/// — and in the RAM state that tracks it. Those two and the engine
/// accessors are required; formatting and recovering, which are the same
/// for all four, are provided once.
pub trait Personality: BlockDevice + Sized {
    /// The personality over `base` with fresh RAM state: nothing open,
    /// staged or pending, as after a format or a recovery.
    fn assemble(base: FtlBase) -> Self;

    /// The recovery rule: the `(seq, lpn, ppa)` folds the commit evidence
    /// in `log` seals, each at the sequence its evidence hit flash (see
    /// [`FtlBase::finish_recovery`]).
    fn recovery_folds(base: &mut FtlBase, log: &RecoveryLog) -> Result<Vec<(u64, Lpn, Ppa)>>;

    /// Read-only engine access: statistics, telemetry, the oracle's audits.
    fn base(&self) -> &FtlBase;

    /// Direct engine access: policies, failure injection.
    fn base_mut(&mut self) -> &mut FtlBase;

    /// Powers the device down, keeping only the flash medium.
    fn into_chip(self) -> FlashChip;

    /// Formats a fresh chip to export `logical_pages`.
    fn format(chip: FlashChip, logical_pages: u64) -> Result<Self> {
        Ok(Self::assemble(FtlBase::format(chip, logical_pages)?))
    }

    /// Rebuilds the device from flash after a power loss: the engine's
    /// scan, the personality's folds, the replay and closing checkpoint.
    fn recover(chip: FlashChip) -> Result<Self> {
        let (mut base, log) = FtlBase::recover(chip)?;
        let folds = Self::recovery_folds(&mut base, &log)?;
        base.finish_recovery(&log, folds)?;
        Ok(Self::assemble(base))
    }
}

/// One page programmed after the last checkpoint, discovered by the
/// recovery scan. Data events with `tid == 0` are replayed directly;
/// `tid != 0` events are resolved by the transactional layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanEvent {
    /// Global program sequence number (defines replay order).
    pub seq: u64,
    /// Logical page (or table-specific tag).
    pub lpn: Lpn,
    /// Transaction id recorded in the OOB.
    pub tid: Tid,
    /// Where the page sits on flash.
    pub ppa: Ppa,
    /// Role of the page.
    pub kind: PageKind,
    /// Auxiliary OOB word as written.
    pub aux: u32,
}

/// Lifetime erase-count distribution across the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearSummary {
    /// Fewest erases of any block.
    pub min: u64,
    /// Most erases of any block.
    pub max: u64,
    /// Total erases across the array.
    pub total: u64,
    /// Number of blocks.
    pub blocks: u32,
}

impl WearSummary {
    /// Mean erases per block.
    pub fn mean(&self) -> f64 {
        self.total as f64 / self.blocks.max(1) as f64
    }
}

/// Everything recovery learned beyond the checkpoint itself.
#[derive(Debug, Clone)]
pub struct RecoveryLog {
    /// Post-checkpoint pages in ascending sequence order.
    pub events: Vec<ScanEvent>,
    /// Sequence number the loaded checkpoint covers; only X-L2P table
    /// generations begun after it carry unfolded commits.
    pub ckpt_seq: u64,
    /// The root's transaction horizon: transactional pages at or before
    /// it belong to dead transactions of earlier lives or to groups the
    /// checkpoint already covers — none is evidence any more.
    pub tx_horizon: u64,
    /// The instant the slabs were loaded; replay is timed from here.
    pub loaded_at: Nanos,
}

/// Simulated time of each part of the last recovery — they add up to the
/// whole; all zero on a device that was formatted, not recovered — and
/// how much of the pool its scan read in full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryBreakdown {
    /// Finding the newest root in the meta ring.
    pub root_ns: u64,
    /// The OOB scan of the pool.
    pub scan_ns: u64,
    /// Reading the translation pages the scan found.
    pub load_ns: u64,
    /// From the loaded directory to the closing checkpoint: the
    /// personality reading its commit evidence, and the folds.
    pub replay_ns: u64,
    /// The closing checkpoint (zero on a read-only device).
    pub checkpoint_ns: u64,
    /// Pool blocks the scan found written.
    pub written_blocks: u32,
    /// Of those, data blocks the root covers: two probes each.
    pub skipped_blocks: u32,
}

/// The shared FTL engine. See the module docs for the division of labour
/// between this type, its parts, and the device personalities wrapping it.
#[derive(Debug)]
pub struct FtlBase {
    chip: FlashChip,
    logical_pages: u64,
    /// What state every block is in, and where the next page goes.
    pool: Pool,
    /// Where every L2P slab lives. The authoritative mapping is in
    /// translation pages on flash.
    map: MapDir,
    /// The live persisted X-L2P table image, in page-index order: the
    /// newest completely issued generation no checkpoint covers yet (the
    /// content is owned by the X-FTL layer). RAM-only — recovery finds
    /// the image by scanning — and kept here because its pages must stay
    /// valid and be chased when GC relocates them.
    xl2p_roots: Vec<Ppa>,
    valid: ValidityMap,
    /// Victim-selection policy.
    gc_policy: GcPolicy,
    /// Per-LPN recent write frequency, feeding hot/cold placement.
    heat: HeatSketch,
    /// Meta block currently being appended to (index into META_BLOCKS).
    meta_cur: usize,
    /// Sequence number covered by the last full checkpoint.
    ckpt_seq: u64,
    /// Sequence at or below which no tid-tagged page is evidence (see
    /// [`crate::meta::MetaPage::tx_horizon`]).
    tx_horizon: u64,
    /// What the recovery that built this engine cost, part by part.
    recovery: RecoveryBreakdown,
    stats: FtlStats,
    counters: DevCounters,
    /// The split-phase ticket ledger behind `submit`/`complete_until`.
    queue: CmdQueue,
    scratch: Vec<u8>,
    /// Guards against re-entering GC from a checkpoint issued inside GC.
    in_gc: bool,
    /// The GC victim a background step left partly drained, and the
    /// copies made out of it so far. Dropped at its erase or retirement;
    /// ignored once the block is no longer closed.
    draining: Option<(u32, u64)>,
    /// The block the latest collection copies out of: a log that finds
    /// the free list dry never reopens it.
    collecting: Option<u32>,
    /// Program sequence at the previous background step: the pacing
    /// input. The chip's counter, unlike its statistics, is never reset.
    paced_seq: u64,
    /// Background-scrub / wear-leveling policy (`None` = disabled, the
    /// historical behaviour).
    scrub: Option<ScrubConfig>,
    /// Host writes since the last scrub scan (compared against
    /// [`ScrubConfig::interval_ops`]).
    scrub_tick: u64,
    /// Most recent scrub relocation, for tests and the experiment rig.
    last_scrub: Option<(u32, ScrubReason)>,
    /// Device-health lifecycle state. Forward-only; persisted in the
    /// checkpoint root (meta v4) so it survives power cycles.
    device_state: DeviceState,
}

impl FtlBase {
    /// Formats a fresh chip to export `logical_pages` pages.
    ///
    /// # Panics
    /// If the geometry cannot hold `logical_pages` plus mapping/GC headroom
    /// (a configuration error, not a runtime condition).
    pub fn format(mut chip: FlashChip, logical_pages: u64) -> Result<FtlBase> {
        let geo = chip.config().geometry;
        let slabs = slab_count(logical_pages, geo.page_size);
        let data_blocks = geo.blocks.saturating_sub(META_BLOCKS.len());
        let needed_blocks =
            (logical_pages as usize + slabs).div_ceil(geo.pages_per_block) + MIN_SPARE_BLOCKS;
        assert!(
            data_blocks >= needed_blocks,
            "geometry too small: {data_blocks} data blocks < {needed_blocks} required \
             for {logical_pages} logical pages"
        );
        // A formatted chip starts erased except for the initial meta
        // page: whatever a previous life left in the pool — a translation
        // page above all — the next recovery scan would adopt. A block
        // that fails its erase is retired by the chip and stays out of
        // the pool below; a fresh chip pays no erase.
        for b in 0..geo.blocks as u32 {
            if chip.write_point(b) != Some(0) {
                match chip.erase(b) {
                    Err(FlashError::EraseFailed(_)) if b >= FIRST_POOL_BLOCK => {}
                    r => r?,
                }
            }
        }
        // Built from the root a recovery would find on a device that was
        // never written, exactly as recovery builds it.
        let root = never_written_root(logical_pages);
        let map = MapDir::load(&mut chip, vec![None; slabs])?;
        let census = vec![BlockState::Free; geo.blocks];
        let mut base = FtlBase::assemble(chip, root, 0, map, census);
        base.write_meta()?;
        base.ckpt_seq = base.chip.next_seq() - 1;
        Ok(base)
    }

    /// The one constructor: the engine a checkpoint root, the directory
    /// of the slabs the scan found and a per-block census (`Free` or
    /// `Closed`) describe, every page still counted invalid (recovery
    /// marks what the tables reference). Blocks the root's bad-block
    /// table or the chip's own health marks name are `Bad` whatever the
    /// census found — the union, because a block retired after the last
    /// meta write is only in the latter, and a re-formatted worn chip
    /// keeps its factory marks.
    fn assemble(
        chip: FlashChip,
        root: MetaPage,
        meta_cur: usize,
        map: MapDir,
        mut census: Vec<BlockState>,
    ) -> FtlBase {
        let geo = chip.config().geometry;
        for b in chip.retired_blocks().iter().chain(&root.bad_blocks) {
            if let Some(state) = census.get_mut(*b as usize) {
                *state = BlockState::Bad;
            }
        }
        FtlBase {
            logical_pages: root.logical_pages,
            pool: Pool::from_census(geo, census),
            map,
            xl2p_roots: Vec::new(),
            valid: ValidityMap::new(geo.blocks, geo.pages_per_block),
            gc_policy: GcPolicy::Greedy,
            heat: HeatSketch::new(HEAT_SLOTS, HEAT_HALF_LIFE),
            meta_cur,
            ckpt_seq: root.ckpt_seq,
            tx_horizon: root.tx_horizon,
            recovery: RecoveryBreakdown::default(),
            stats: FtlStats::default(),
            counters: DevCounters::default(),
            queue: CmdQueue::default(),
            scratch: vec![0u8; geo.page_size],
            in_gc: false,
            draining: None,
            collecting: None,
            paced_seq: chip.next_seq(),
            scrub: None,
            scrub_tick: 0,
            last_scrub: None,
            device_state: root.device_state,
            chip,
        }
    }

    // --- accessors -------------------------------------------------------

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.chip.config().geometry.page_size
    }

    /// Pages per erase block.
    pub fn pages_per_block(&self) -> usize {
        self.chip.config().geometry.pages_per_block
    }

    /// Exported logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Shared simulated clock.
    pub fn clock(&self) -> SimClock {
        self.chip.clock().clone()
    }

    /// FTL-attributed operation statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Mutable statistics access for the wrapping device (e.g. the X-FTL
    /// group-commit accounting, which the engine itself cannot observe).
    pub fn stats_mut(&mut self) -> &mut FtlStats {
        &mut self.stats
    }

    /// Host-visible command counters (maintained by the wrapping device).
    pub fn counters(&self) -> &DevCounters {
        &self.counters
    }

    /// Mutable access to the host-visible counters for the wrapping device.
    pub fn counters_mut(&mut self) -> &mut DevCounters {
        &mut self.counters
    }

    /// Raw media statistics from the chip.
    pub fn flash_stats(&self) -> xftl_flash::FlashStats {
        *self.chip.stats()
    }

    /// Per-block wear summary (lifetime erase counts). The paper argues
    /// X-FTL "doubles the life span" by halving writes; this exposes the
    /// erase distribution behind that claim.
    pub fn wear(&self) -> WearSummary {
        let blocks = self.chip.config().geometry.blocks as u32;
        let erases = (0..blocks).map(|b| self.chip.erase_count(b));
        WearSummary {
            min: erases.clone().min().unwrap_or(u64::MAX),
            max: erases.clone().max().unwrap_or(0),
            total: erases.sum(),
            blocks,
        }
    }

    /// Resets FTL and chip statistics (the clock is unaffected).
    pub fn reset_stats(&mut self) {
        self.stats = FtlStats::default();
        self.counters = DevCounters::default();
        self.chip.reset_stats();
    }

    /// Read-only chip access, for the verify oracle's physics audits.
    pub fn chip(&self) -> &FlashChip {
        &self.chip
    }

    /// The telemetry handle installed on the underlying chip (disabled
    /// unless one was set before format/recover).
    pub fn recorder(&self) -> &Telemetry {
        self.chip.recorder()
    }

    /// Direct chip access, for failure injection in tests and benches.
    pub fn chip_mut(&mut self) -> &mut FlashChip {
        &mut self.chip
    }

    /// Consumes the device, returning the flash medium — the only thing
    /// that survives a power loss. Recover with [`FtlBase::recover`].
    pub fn into_chip(self) -> FlashChip {
        self.chip
    }

    /// The mapping cache's residency bookkeeping (budget, hit counters
    /// live in [`FtlStats`]).
    pub fn map_cache(&self) -> &MappingCache {
        self.map.cache()
    }

    /// Where the directory holds each slab's translation page, by slab
    /// index (`None` = never written) — for the verify oracle's audits.
    pub fn slab_homes(&self) -> &[Option<Ppa>] {
        self.map.homes()
    }

    /// Number of free (fully erased, pooled) blocks.
    pub fn free_block_count(&self) -> usize {
        self.pool.free_len() + self.pool.open_len()
    }

    /// True if any L2P slab has un-persisted changes. Non-resident slabs
    /// are clean by invariant (eviction flushes before dropping).
    pub fn has_dirty_mapping(&self) -> bool {
        self.map.cache().any_dirty()
    }

    /// Locations of the live persisted X-L2P table image's pages, in
    /// page-index order (empty when no generation is live).
    pub fn xl2p_roots(&self) -> &[Ppa] {
        &self.xl2p_roots
    }

    /// True if the engine counts `ppa` as holding live content (what GC
    /// relocates rather than discards) — for the verify oracle's audits.
    pub fn page_is_valid(&self, ppa: Ppa) -> bool {
        self.valid.is_valid(ppa)
    }

    /// What the recovery that built this engine cost, part by part.
    pub fn recovery(&self) -> RecoveryBreakdown {
        self.recovery
    }

    /// Number of blocks in the bad-block table.
    pub fn bad_block_count(&self) -> usize {
        self.pool.bad_blocks().count()
    }

    /// True if `block` has been retired to the bad-block table.
    pub fn is_bad_block(&self, block: u32) -> bool {
        self.pool.state(block) == Some(BlockState::Bad)
    }

    /// True if `block` sits in an allocation path (free pool or an open
    /// write frontier) — the auditor uses this to prove retired blocks
    /// can never be handed out again.
    pub fn is_allocatable(&self, block: u32) -> bool {
        matches!(
            self.pool.state(block),
            Some(BlockState::Free | BlockState::Open(_))
        )
    }

    /// First block past the meta ring: the start of the data/map pool.
    /// Auditors use this to scope wear checks to pool blocks (the meta
    /// ring cycles on every root write and wears on its own schedule).
    pub fn first_pool_block(&self) -> u32 {
        FIRST_POOL_BLOCK
    }

    /// Current device-health state (see [`DeviceState`]).
    pub fn device_state(&self) -> DeviceState {
        self.device_state
    }

    /// Enables (`Some`) or disables (`None`) the background scrubber and
    /// static wear leveling. Takes effect on the next GC tick.
    pub fn set_scrub_config(&mut self, cfg: Option<ScrubConfig>) {
        self.scrub = cfg;
        self.scrub_tick = 0;
    }

    /// The active scrub policy, if any.
    pub fn scrub_config(&self) -> Option<ScrubConfig> {
        self.scrub
    }

    /// Most recent scrub relocation `(block, reason)`, if any ran.
    pub fn last_scrub(&self) -> Option<(u32, ScrubReason)> {
        self.last_scrub
    }

    /// Sets the GC victim-selection policy (the experiment rig uses FIFO
    /// to reproduce the paper's aged-drive regimes; the steady-state
    /// bench compares greedy against cost-benefit).
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc_policy = policy;
    }

    /// The active GC victim-selection policy.
    pub fn gc_policy(&self) -> GcPolicy {
        self.gc_policy
    }

    /// Enables or disables heat classification of host writes. When on,
    /// host data writes of low-heat LPNs join the GC survivors in the
    /// cold log, striped over every channel, instead of the (hot) data
    /// frontiers.
    pub fn set_hot_cold(&mut self, enabled: bool) {
        self.pool.set_heat_classified(enabled);
    }

    // --- device health ---------------------------------------------------

    /// True once retirements have eaten into the spare headroom: fewer
    /// usable pool blocks (everything outside the meta ring and the
    /// bad-block table) than it takes to hold every logical page, the
    /// translation pages, and the spares the constructor insisted on —
    /// the format-time sizing check re-evaluated against the current
    /// bad-block table.
    fn short_of_spares(&self) -> bool {
        let needed = (self.logical_pages as usize + self.map.homes().len())
            .div_ceil(self.pages_per_block())
            + MIN_SPARE_BLOCKS;
        let usable = self.chip.config().geometry.blocks - META_BLOCKS.len();
        usable.saturating_sub(self.bad_block_count()) < needed
    }

    /// Fails dirtying operations once the device has degraded to
    /// read-only. Reads, meta/state persistence, and recovery bypass this
    /// on purpose.
    fn check_writable(&self) -> Result<()> {
        if self.device_state == DeviceState::ReadOnly {
            Err(DevError::ReadOnly)
        } else {
            Ok(())
        }
    }

    /// Walks the health state machine forward (never backward) to `new`,
    /// counting the entry and persisting the transition so it survives
    /// power cycles. Persistence is best-effort: on a device dying hard
    /// enough that even the root cannot be written, the RAM state still
    /// gates writes and recovery re-derives degradation from the pool it
    /// finds.
    fn enter_state(&mut self, new: DeviceState) {
        if new <= self.device_state {
            return;
        }
        let t = self.chip.clock().now();
        self.device_state = new;
        match new {
            DeviceState::Healthy => {}
            DeviceState::Degraded => self.stats.degraded_entries += 1,
            DeviceState::ReadOnly => self.stats.read_only_entries += 1,
        }
        self.chip
            .recorder()
            .record_span(OpClass::DegradedEntry, 0, new.as_u64(), t, t);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort persistence: on a device too far gone to write its root, the RAM state still gates writes and recovery re-derives degradation from the pool census"
        )]
        let _ = self.write_meta();
    }

    // --- page I/O ---------------------------------------------------------

    fn check_lpn(&self, lpn: Lpn) -> Result<()> {
        if lpn < self.logical_pages {
            Ok(())
        } else {
            Err(DevError::BadLpn(lpn))
        }
    }

    /// Reads the committed version of `lpn`. Unmapped pages read as zeros
    /// (the device never returns stale neighbours' data).
    pub fn read_committed(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.check_lpn(lpn)?;
        let t_start = self.chip.clock().now();
        match self.l2p_get(lpn)? {
            Some(ppa) => {
                self.read_at(ppa, buf)?;
            }
            None => {
                let overhead = self.chip.config().timings.cmd_overhead_ns / 4;
                self.chip.clock().advance(overhead);
                buf.fill(0);
            }
        }
        let t_end = self.chip.clock().now();
        self.chip
            .recorder()
            .record_span(OpClass::FtlHostRead, 0, lpn, t_start, t_end);
        Ok(())
    }

    /// Reads a page at a known physical address (e.g. an X-L2P version),
    /// with bounded ECC-failure retries, counted in
    /// [`FtlStats::read_retries`].
    pub fn read_at(&mut self, ppa: Ppa, buf: &mut [u8]) -> Result<Oob> {
        let (r, retries) = with_read_retries(|| self.chip.read(ppa, buf));
        self.stats.read_retries += retries;
        Ok(r?)
    }

    /// The one place a page is programmed into a log frontier: allocate
    /// a slot in `stream`'s log, program it there, and on a
    /// program-status failure abandon that frontier and re-execute on a
    /// fresh block (bounded; the torn page was never marked valid and GC
    /// reclaims it with the block). `wait` blocks the clock until the
    /// cells are programmed; otherwise the program is queued — the whole
    /// of it behind `not_before`, its cell program alone behind
    /// `cells_after` — and its completion instant handed back. Runs no
    /// GC, checks no device state and counts nothing per kind — the
    /// callers differ in exactly that.
    fn program_at_frontier(
        &mut self,
        oob: Oob,
        stream: Stream,
        buf: &[u8],
        not_before: Nanos,
        cells_after: Nanos,
        wait: bool,
    ) -> Result<(Ppa, Nanos)> {
        let mut attempts = 0;
        loop {
            // A recovery can find the free list dry: the log then reopens
            // a block a power cut left part-written.
            let dst = (self.pool.alloc(&self.chip, stream))
                .or_else(|| {
                    (self.pool).reopen(&self.chip, stream, self.collecting)?;
                    self.pool.alloc(&self.chip, stream)
                })
                .ok_or(DevError::OutOfSpace)?;
            let programmed = if wait {
                self.chip
                    .program(dst, buf, oob)
                    .map(|_| self.chip.clock().now())
            } else {
                self.chip
                    .program_queued(dst, buf, oob, not_before, cells_after)
                    .map(|(_, done)| done)
            };
            match programmed {
                Ok(done) => {
                    self.valid.mark_valid(dst);
                    // The chip's global sequence counter doubles as the
                    // cost-benefit age clock.
                    let seq = self.chip.next_seq().saturating_sub(1);
                    self.pool.note_program(dst.block, seq);
                    return Ok((dst, done));
                }
                Err(FlashError::ProgramFailed(_)) if attempts < PROGRAM_RETRY_LIMIT => {
                    attempts += 1;
                    self.stats.program_retries += 1;
                    self.pool.abandon(dst.block);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Programs a page of any kind into its log frontier with an explicit
    /// auxiliary OOB word (commit records, the TxFlash baseline's
    /// cyclic-commit links), blocking until it is on the media (`wait`)
    /// or queued behind `not_before` — a data dependency such as the
    /// pages a commit record seals — so a batch overlaps across channels.
    /// Refuses on a read-only device, runs GC first if space is low,
    /// places data hot or cold, and counts the program by kind. Returns
    /// the destination and the instant the page is on the media. Does not
    /// touch the L2P table — callers decide the mapping semantics.
    pub fn program_raw(
        &mut self,
        oob: Oob,
        buf: &[u8],
        not_before: Nanos,
        wait: bool,
        hook: &mut dyn GcHook,
    ) -> Result<(Ppa, Nanos)> {
        self.check_writable()?;
        self.maybe_gc(hook)?;
        self.program_counted(oob, buf, not_before, 0, wait)
    }

    /// [`FtlBase::program_raw`] past its gate: place, program, classify a
    /// pool-exhaustion failure, count by kind. For callers that have
    /// checked the device state and fed the pool themselves because no GC
    /// may run between their pages.
    fn program_counted(
        &mut self,
        oob: Oob,
        buf: &[u8],
        not_before: Nanos,
        cells_after: Nanos,
        wait: bool,
    ) -> Result<(Ppa, Nanos)> {
        let stream = self.classify_write(oob.kind, oob.lpn);
        let placed = self.program_at_frontier(oob, stream, buf, not_before, cells_after, wait);
        let placed = self.or_space_error(placed)?;
        match oob.kind {
            PageKind::Data => self.stats.data_writes += 1,
            PageKind::Map => self.stats.map_writes += 1,
            PageKind::XL2p => self.stats.xl2p_writes += 1,
            PageKind::Commit => self.stats.commit_record_writes += 1,
            PageKind::Meta => unreachable!("meta pages go through write_meta"),
        }
        Ok(placed)
    }

    /// The log one host write goes to. Data writes are recorded in the
    /// heat sketch and low-heat LPNs routed cold; with separation
    /// disabled all data goes hot (the default frontier).
    fn classify_write(&mut self, kind: PageKind, lpn: Lpn) -> Stream {
        if kind != PageKind::Data {
            return Stream::Map;
        }
        if !self.pool.heat_classified() {
            return Stream::Hot;
        }
        self.heat.touch(lpn);
        if self.heat.is_hot(lpn, HOT_THRESHOLD) {
            self.stats.hot_writes += 1;
            Stream::Hot
        } else {
            self.stats.cold_writes += 1;
            Stream::Cold
        }
    }

    /// Copy-on-write data write that leaves the committed mapping intact
    /// (the X-FTL `write(tid, p)` path): one host data page programmed
    /// into the data frontier tagged `tid`, blocking (`wait`) or queued.
    /// Returns the new location and the instant the page is on the media.
    pub fn write_cow(
        &mut self,
        lpn: Lpn,
        tid: Tid,
        buf: &[u8],
        wait: bool,
        hook: &mut dyn GcHook,
    ) -> Result<(Ppa, Nanos)> {
        self.check_lpn(lpn)?;
        let t_start = self.chip.clock().now();
        let oob = Oob {
            tid,
            ..Oob::data(lpn)
        };
        let (dst, done) = self.program_raw(oob, buf, 0, wait, hook)?;
        self.chip
            .recorder()
            .record_span(OpClass::FtlHostWrite, tid, lpn, t_start, done);
        Ok((dst, done))
    }

    /// Ordinary page write (the plain-FTL path): copy-on-write plus
    /// immediate L2P update, invalidating the previous version. `wait`
    /// blocks until the page is on the media; either way the instant it
    /// is there is returned for the caller's completion bookkeeping.
    pub(crate) fn write_folded(
        &mut self,
        lpn: Lpn,
        buf: &[u8],
        wait: bool,
        hook: &mut dyn GcHook,
    ) -> Result<Nanos> {
        let (dst, done) = self.write_cow(lpn, 0, buf, wait, hook)?;
        self.fold_mapping(lpn, dst)?;
        Ok(done)
    }

    /// Blocking ordinary page write.
    pub fn write_committed(&mut self, lpn: Lpn, buf: &[u8], hook: &mut dyn GcHook) -> Result<()> {
        self.write_folded(lpn, buf, true, hook).map(drop)
    }

    /// Full queue barrier: advances the clock past every queued flash
    /// operation — so every outstanding ticket is complete and retired —
    /// and returns the instant the array went idle.
    pub fn drain(&mut self) -> Nanos {
        self.retire_all();
        self.chip.drain()
    }

    /// Partial queue barrier: advances the clock to `completion` (a time
    /// returned by a queued write).
    pub fn wait_for(&mut self, completion: Nanos) {
        self.chip.wait_for(completion);
    }

    // --- the split-phase ticket ledger -------------------------------------

    /// The ticket of a batch whose last command is on the media at `done`.
    pub fn issue(&mut self, done: Nanos) -> CmdId {
        self.queue.issue(done)
    }

    /// An [`IoCmd::Barrier`](crate::dev::IoCmd::Barrier) in a batch:
    /// counted, and the ledger's ordering floor raised over everything
    /// issued so far — ordering without draining. Returns the floor, which
    /// the batch completes no earlier than.
    pub fn barrier(&mut self) -> Nanos {
        self.counters.barriers += 1;
        self.queue.raise_barrier()
    }

    /// [`BlockDevice::complete_until`]: waits for the batch `barrier`
    /// names and every batch issued before it.
    pub fn complete_until(&mut self, barrier: CmdId) {
        if let Some(done) = self.queue.retire(barrier) {
            self.chip.wait_for(done);
        }
    }

    /// Retires every outstanding ticket without waiting: after a wait that
    /// covers them all, or when nobody will wait on them.
    pub fn retire_all(&mut self) {
        self.queue.retire(CmdId(u64::MAX));
    }

    /// Points the committed mapping of `lpn` at `ppa`, invalidating the
    /// previous version. Used by plain writes and by X-FTL commit folds.
    pub fn fold_mapping(&mut self, lpn: Lpn, ppa: Ppa) -> Result<()> {
        if let Some(old) = self.fold_mapping_retain(lpn, ppa)? {
            self.valid.mark_invalid(old);
        }
        Ok(())
    }

    /// Marks a physical page dead (superseded or aborted version).
    pub fn invalidate(&mut self, ppa: Ppa) {
        self.valid.mark_invalid(ppa);
    }

    /// Drops the committed mapping of `lpn` and reclaims its flash copy.
    pub fn trim_lpn(&mut self, lpn: Lpn) -> Result<()> {
        if let Some(old) = self.trim_lpn_retain(lpn)? {
            self.valid.mark_invalid(old);
        }
        Ok(())
    }

    // --- persistence -------------------------------------------------------

    /// Appends a fresh checkpoint-root page to the meta ring.
    fn write_meta(&mut self) -> Result<()> {
        // Durability barrier: the root must not land before the pages
        // its `ckpt_seq` covers have finished on their channels.
        self.chip.drain();
        let page_size = self.page_size();
        // The chip's own health marks are authoritative (recovery unions
        // both), so if a dying drive ever accumulates more retirements
        // than fit, truncating the persisted list is safe — unlike
        // panicking in `MetaPage::encode`.
        let bad_cap = MetaPage::max_bad_blocks(page_size);
        let page = MetaPage {
            logical_pages: self.logical_pages,
            ckpt_seq: self.ckpt_seq,
            tx_horizon: self.tx_horizon,
            bad_blocks: self.pool.bad_blocks().take(bad_cap).collect(),
            device_state: self.device_state,
        };
        let buf = page.encode(page_size);
        let (block, wp) = match self.chip.write_point(META_BLOCKS[self.meta_cur]) {
            Some(wp) => (META_BLOCKS[self.meta_cur], wp),
            None => {
                // Current ring full: switch to the sibling block. The
                // latest valid root stays readable in the full block until
                // the new one is programmed, so a crash at any instant
                // leaves a recoverable root.
                self.meta_cur = 1 - self.meta_cur;
                let other = META_BLOCKS[self.meta_cur];
                self.chip.erase(other)?;
                (other, 0)
            }
        };
        self.chip.program(
            Ppa::new(block, wp),
            &buf,
            Oob {
                kind: PageKind::Meta,
                ..Oob::data(0)
            },
        )?;
        self.stats.meta_writes += 1;
        Ok(())
    }

    /// Persists every dirty L2P slab and a new checkpoint root. After this
    /// returns, the committed mapping survives power loss without replay.
    pub fn checkpoint(&mut self, hook: &mut dyn GcHook) -> Result<()> {
        // Only resident slabs can be dirty (eviction flushes first), so a
        // checkpoint never has to fault anything in. GC keeps the pool fed
        // *between* slab writes, never inside one; a slab its eviction
        // flush already cleaned is skipped, one it dirtied is picked up
        // by the next pass — so no slab is dirty when the sequence number
        // below is taken, and roll-forward may skip everything at or
        // before it.
        loop {
            let dirty = self.map.cache().dirty_slabs();
            if dirty.is_empty() {
                break;
            }
            self.check_writable()?;
            for slab in dirty {
                self.maybe_gc(hook)?;
                if self.map.cache().is_dirty(slab) {
                    self.write_slab(slab)?;
                }
            }
        }
        // The new root covers everything programmed so far, and no
        // tid-tagged page below the hook's floor is evidence any more.
        self.ckpt_seq = self.chip.next_seq() - 1;
        let floor = hook.tx_floor().map_or(0, |floor| floor.saturating_sub(1));
        self.tx_horizon = self.tx_horizon.max(self.ckpt_seq.min(floor));
        self.write_meta()?;
        self.stats.checkpoints += 1;
        // Only now is the X-L2P table image obsolete. Until the covering
        // root is on the media a power cut recovers from the old root and
        // re-folds from the image, so its pages had to stay valid (and
        // chased) through the GC runs between the slab writes above.
        for old in std::mem::take(&mut self.xl2p_roots) {
            self.valid.mark_invalid(old);
        }
        Ok(())
    }

    /// Persists the X-L2P table as a new *generation* — the whole of an
    /// X-FTL commit's flash cost. The image is its own commit evidence:
    /// every page carries the generation id, its index and the page count
    /// in the OOB, the recovery scan folds the newest generation it finds
    /// complete, and no root is written. The L2P slabs are *not*
    /// rewritten either — recovery re-folds committed entries from the
    /// image.
    ///
    /// The pages' cell programs are ordered behind the completion of every
    /// program issued so far (the transactions' data pages, GC copies of
    /// pinned pages) — their bytes may cross the bus while those are
    /// still programming — so ordering costs neither a drain nor an idle
    /// channel; the commit is durable at the returned instant. The
    /// generation id is the program sequence at this point —
    /// also where recovery folds the image's commits among the plain
    /// writes — so GC runs once, before the id is taken, and never between
    /// the pages: a GC copy of a committed page stamped *after* the id
    /// would replay over the commit that supersedes it. The previous
    /// generation stays valid until the new one is completely issued; a
    /// power cut in between recovers from it.
    pub fn persist_xl2p(
        &mut self,
        table_pages: &[Vec<u8>],
        hook: &mut dyn GcHook,
    ) -> Result<Nanos> {
        self.check_writable()?;
        self.maybe_gc(hook)?;
        let generation = self.chip.next_seq();
        let after = self.chip.idle_at();
        let mut image = Vec::with_capacity(table_pages.len());
        let mut durable_at = after;
        for (i, page) in table_pages.iter().enumerate() {
            let oob = Oob {
                kind: PageKind::XL2p,
                tid: generation,
                aux: table_pages.len() as u32,
                ..Oob::data(i as u64)
            };
            match self.program_counted(oob, page, 0, after, false) {
                Ok((ppa, done)) => {
                    image.push(ppa);
                    durable_at = durable_at.max(done);
                }
                Err(e) => {
                    // A partial generation is nobody's evidence.
                    for ppa in image {
                        self.valid.mark_invalid(ppa);
                    }
                    return Err(e);
                }
            }
        }
        for old in std::mem::replace(&mut self.xl2p_roots, image) {
            self.valid.mark_invalid(old);
        }
        Ok(durable_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_flash::FlashConfig;

    fn base(blocks: usize, logical: u64) -> FtlBase {
        let chip = FlashChip::new(FlashConfig::tiny(blocks), SimClock::new());
        FtlBase::format(chip, logical).unwrap()
    }

    fn page(b: &FtlBase, byte: u8) -> Vec<u8> {
        vec![byte; b.page_size()]
    }

    #[test]
    fn write_read_roundtrip() {
        let mut f = base(16, 32);
        let data = page(&f, 0x5A);
        f.write_committed(7, &data, &mut NoHook).unwrap();
        let mut out = page(&f, 0);
        f.read_committed(7, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unmapped_reads_zeros() {
        let mut f = base(16, 32);
        let mut out = page(&f, 0xFF);
        f.read_committed(3, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn bad_lpn_rejected() {
        let mut f = base(16, 32);
        let data = page(&f, 1);
        assert_eq!(
            f.write_committed(32, &data, &mut NoHook),
            Err(DevError::BadLpn(32))
        );
        let mut out = page(&f, 0);
        assert_eq!(f.read_committed(99, &mut out), Err(DevError::BadLpn(99)));
    }

    #[test]
    fn overwrite_invalidates_old_version() {
        let mut f = base(16, 32);
        let a = page(&f, 1);
        let b = page(&f, 2);
        f.write_committed(0, &a, &mut NoHook).unwrap();
        let old = f.l2p_get(0).unwrap().unwrap();
        f.write_committed(0, &b, &mut NoHook).unwrap();
        let new = f.l2p_get(0).unwrap().unwrap();
        assert_ne!(old, new);
        assert!(!f.valid.is_valid(old));
        assert!(f.valid.is_valid(new));
        let mut out = page(&f, 0);
        f.read_committed(0, &mut out).unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn trim_unmaps() {
        let mut f = base(16, 32);
        let a = page(&f, 1);
        f.write_committed(5, &a, &mut NoHook).unwrap();
        f.trim_lpn(5).unwrap();
        assert_eq!(f.l2p_get(5).unwrap(), None);
        let mut out = page(&f, 9);
        f.read_committed(5, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn gc_reclaims_overwritten_space() {
        // 16 tiny blocks of 8 pages; 32 logical pages. Overwrite a small
        // working set far beyond physical capacity: GC must keep up.
        let mut f = base(16, 32);
        for i in 0..600u64 {
            let data = vec![(i % 251) as u8; f.page_size()];
            f.write_committed(i % 8, &data, &mut NoHook).unwrap();
        }
        assert!(f.stats().gc_runs > 0, "GC should have run");
        // All 8 live pages still readable with their last content.
        for lpn in 0..8u64 {
            let mut out = vec![0u8; f.page_size()];
            f.read_committed(lpn, &mut out).unwrap();
            let last_i = (592 + lpn) % 251; // last write of this lpn was i = 592+lpn
            assert_eq!(out[0] as u64, last_i);
        }
    }

    #[test]
    fn gc_copies_only_valid_pages() {
        let mut f = base(16, 32);
        for i in 0..600u64 {
            let data = vec![i as u8; f.page_size()];
            f.write_committed(i % 4, &data, &mut NoHook).unwrap();
        }
        let s = f.stats();
        // With only 4 live pages, victims are mostly garbage.
        let validity = s.mean_gc_validity().unwrap();
        assert!(
            validity < 0.5,
            "victim validity {validity} unexpectedly high"
        );
    }

    #[test]
    fn checkpoint_clears_dirty_flags() {
        let mut f = base(16, 32);
        let a = page(&f, 1);
        f.write_committed(0, &a, &mut NoHook).unwrap();
        assert!(f.has_dirty_mapping());
        f.checkpoint(&mut NoHook).unwrap();
        assert!(!f.has_dirty_mapping());
        assert_eq!(f.stats().checkpoints, 1);
        assert!(f.stats().map_writes >= 1);
    }

    #[test]
    fn recover_after_clean_checkpoint() {
        let mut f = base(16, 32);
        let a = page(&f, 7);
        f.write_committed(3, &a, &mut NoHook).unwrap();
        f.checkpoint(&mut NoHook).unwrap();
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        assert!(log.events.is_empty(), "no post-checkpoint events expected");
        let mut out = page(&g, 0);
        g.read_committed(3, &mut out).unwrap();
        assert_eq!(out, a);
    }

    /// `format` and `recover` share one constructor: recovering a chip
    /// nothing was written to rebuilds the very pool census and mapping
    /// directory `format` decided on — factory-retired blocks included.
    #[test]
    fn recover_of_a_fresh_format_rebuilds_the_same_pool_and_directory() {
        let mut chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        chip.set_fault_plan(
            FaultPlan::new(4).trigger(FaultTrigger::new(FaultKind::EraseFail).on_block(5)),
        );
        assert!(chip.erase(5).is_err());
        let f = FtlBase::format(chip, 32).unwrap();
        let census_of = |b: &FtlBase| (0..16).map(|blk| b.pool.state(blk)).collect::<Vec<_>>();
        let census = census_of(&f);
        assert_eq!(census[5], Some(BlockState::Bad));
        assert_eq!(census[4], Some(BlockState::Free));
        let directory = f.slab_homes().to_vec();
        let (free, resident) = (f.free_block_count(), f.map_cache().resident());
        let (g, log) = FtlBase::recover(f.into_chip()).unwrap();
        assert!(log.events.is_empty() && g.xl2p_roots().is_empty());
        assert_eq!(census_of(&g), census);
        assert_eq!(g.slab_homes(), directory.as_slice());
        assert_eq!(
            (g.free_block_count(), g.map_cache().resident()),
            (free, resident)
        );
        assert!(!g.has_dirty_mapping());
        assert_eq!(g.device_state(), DeviceState::Healthy);
    }

    #[test]
    fn recover_rolls_forward_unsynced_writes() {
        let mut f = base(16, 32);
        let a = page(&f, 1);
        let b = page(&f, 2);
        f.write_committed(3, &a, &mut NoHook).unwrap();
        f.checkpoint(&mut NoHook).unwrap();
        f.write_committed(3, &b, &mut NoHook).unwrap(); // not checkpointed
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        assert_eq!(log.events.len(), 1);
        g.finish_recovery(&log, Vec::new()).unwrap();
        let mut out = page(&g, 0);
        g.read_committed(3, &mut out).unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn recover_ignores_transactional_pages() {
        let mut f = base(16, 32);
        let a = page(&f, 1);
        let t = page(&f, 9);
        f.write_committed(3, &a, &mut NoHook).unwrap();
        f.checkpoint(&mut NoHook).unwrap();
        // A tid-tagged CoW write (as X-FTL would issue) must not clobber
        // the committed state during plain roll-forward.
        f.write_cow(3, 42, &t, true, &mut NoHook).unwrap();
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        g.finish_recovery(&log, Vec::new()).unwrap();
        let mut out = page(&g, 0);
        g.read_committed(3, &mut out).unwrap();
        assert_eq!(out, a);
    }

    /// Falling back to an older root is sound, not lucky: the root names
    /// no page of the pool, so what was evicted, relocated and erased
    /// since it was written cannot leave it pointing anywhere.
    #[test]
    fn recover_survives_torn_meta_write() {
        // 4 slabs behind a 2-slab cache, every page under a checkpoint:
        // the older root.
        let mut f = base(44, 64 * 4);
        f.set_map_cache_budget(Some(2)).unwrap();
        for lpn in 0..256u64 {
            let data = vec![0x11; f.page_size()];
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        f.checkpoint(&mut NoHook).unwrap();
        let older_root = f.ckpt_seq;
        let erases = |f: &FtlBase, home: &Option<Ppa>| home.map(|p| f.chip.erase_count(p.block));
        let homes_then: Vec<_> = f.slab_homes().iter().map(|h| (*h, erases(&f, h))).collect();
        let at_root = *f.stats();
        // Overwrites striding across three slabs, the fourth now and
        // then: every one misses the cache, dirty victims are written
        // out, and GC collects data and mapping blocks alike — a mapping
        // block with the rare slab's page still live in it, and the
        // translation pages the older root's checkpoint wrote.
        let mut expect = vec![0x11u8; 256];
        let mut i = 0u64;
        while (*f.stats() - at_root).gc_map_runs < 4 || i < 200 {
            let slab = if i % 16 == 15 { 3 } else { i % 3 };
            let (lpn, fill) = (slab * 64 + (i / 3) % 50, (i % 199) as u8 + 0x30);
            let data = vec![fill; f.page_size()];
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
            expect[lpn as usize] = fill;
            i += 1;
            assert!(i < 5_000, "GC never collected a mapping block");
        }
        let since = *f.stats() - at_root;
        assert!(since.map_evictions_dirty > 0);
        assert!(
            since.gc_copies > since.gc_valid_pages,
            "a live translation page was relocated"
        );
        assert_eq!(since.meta_writes, 0, "nothing since has written a root");
        assert!(
            homes_then.iter().all(|(h, then)| erases(&f, h) > *then),
            "every translation page of that checkpoint is erased by now"
        );
        // The next root is torn mid-program.
        f.chip_mut().arm_power_fuse(1);
        assert!(f.write_meta().is_err());
        let (mut g, log) = FtlBase::recover(f.into_chip()).unwrap();
        assert_eq!(log.ckpt_seq, older_root);
        g.finish_recovery(&log, Vec::new()).unwrap();
        let mut out = page(&g, 0);
        for (lpn, fill) in expect.iter().enumerate() {
            g.read_committed(lpn as u64, &mut out).unwrap();
            assert_eq!(out[0], *fill, "lpn {lpn}");
        }
    }

    #[test]
    fn meta_ring_wraps_when_full() {
        let mut f = base(16, 32);
        // Tiny geometry: 8 pages in the meta ring. Checkpoint often enough
        // to wrap it several times.
        let a = page(&f, 1);
        for i in 0..40u64 {
            f.write_committed(i % 4, &a, &mut NoHook).unwrap();
            f.checkpoint(&mut NoHook).unwrap();
        }
        let chip = f.into_chip();
        let (mut g, _) = FtlBase::recover(chip).unwrap();
        let mut out = page(&g, 0);
        g.read_committed(0, &mut out).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn recovery_preserves_data_across_gc_churn() {
        let mut f = base(16, 32);
        // Fill all 32 logical pages with known content.
        for lpn in 0..32u64 {
            let data = vec![lpn as u8 + 1; f.page_size()];
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        f.checkpoint(&mut NoHook).unwrap();
        // Churn a few pages to force GC relocations of checkpointed pages.
        for i in 0..300u64 {
            let data = vec![0xEE; f.page_size()];
            f.write_committed(i % 4, &data, &mut NoHook).unwrap();
        }
        assert!(f.stats().gc_runs > 0);
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        g.finish_recovery(&log, Vec::new()).unwrap();
        // Untouched pages must still hold their checkpointed content even
        // though GC may have physically moved them.
        for lpn in 4..32u64 {
            let mut out = vec![0u8; g.page_size()];
            g.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out[0] as u64, lpn + 1, "lpn {lpn} corrupted");
        }
        for lpn in 0..4u64 {
            let mut out = vec![0u8; g.page_size()];
            g.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out[0], 0xEE);
        }
    }

    #[test]
    fn out_of_space_when_overfilled() {
        // Fill the whole exported capacity, then keep overwriting: the
        // spare blocks must absorb the churn without OutOfSpace.
        let chip = FlashChip::new(FlashConfig::tiny(12), SimClock::new());
        let mut f = FtlBase::format(chip, 24).unwrap();
        let data = vec![1u8; f.page_size()];
        for lpn in 0..24u64 {
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        // Keep overwriting; the drive has spare for this, it must not fail.
        for i in 0..200u64 {
            f.write_committed(i % 24, &data, &mut NoHook).unwrap();
        }
        assert!(f.free_block_count() >= 1);
    }

    #[test]
    fn data_writes_stripe_across_channels() {
        let cfg = xftl_flash::FlashConfigBuilder::tiny().channels(2).build();
        let chip = FlashChip::new(cfg, SimClock::new());
        let mut f = FtlBase::format(chip, 32).unwrap();
        let data = vec![1u8; f.page_size()];
        let geo = f.chip.config().geometry;
        let mut chans = Vec::new();
        for lpn in 0..4u64 {
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
            chans.push(geo.channel_of(f.l2p_get(lpn).unwrap().unwrap().block));
        }
        assert_eq!(
            chans,
            vec![0, 1, 0, 1],
            "consecutive writes alternate channels"
        );
    }

    #[test]
    fn persist_xl2p_leaves_the_root_ring_untouched() {
        let mut f = base(16, 32);
        let table = vec![vec![0xABu8; f.page_size()], vec![0xCDu8; f.page_size()]];
        let ring = |f: &FtlBase| META_BLOCKS.map(|b| f.chip.write_point(b));
        let (before, roots_written) = (ring(&f), f.stats().meta_writes);
        let generation = f.chip.next_seq();
        let durable_at = f.persist_xl2p(&table, &mut NoHook).unwrap();
        assert_eq!(ring(&f), before, "a table persist programs no root");
        assert_eq!(f.stats().meta_writes, roots_written);
        assert_eq!(f.stats().xl2p_writes, 2);
        assert!(durable_at > f.clock().now(), "queued, not waited for");
        let image = f.xl2p_roots().to_vec();
        assert_eq!(image.len(), 2);
        // The scan alone finds the image again, in index order, and its
        // pages say which generation they are.
        let (mut g, _) = FtlBase::recover(f.into_chip()).unwrap();
        assert_eq!(g.xl2p_roots(), image.as_slice());
        let mut out = page(&g, 0);
        for (i, ppa) in image.iter().enumerate() {
            let oob = g.read_at(*ppa, &mut out).unwrap();
            assert_eq!((oob.tid, oob.lpn, oob.aux), (generation, i as u64, 2));
            assert_eq!(out, table[i]);
        }
        // A checkpoint covers the image's folds and retires it.
        g.checkpoint(&mut NoHook).unwrap();
        assert!(g.xl2p_roots().is_empty());
        assert!(image.iter().all(|ppa| !g.valid.is_valid(*ppa)));
        let (h, _) = FtlBase::recover(g.into_chip()).unwrap();
        assert!(h.xl2p_roots().is_empty(), "a covered generation is dead");
    }

    #[test]
    fn recovery_passes_over_a_partial_generation_for_the_one_before() {
        let mut f = base(16, 32);
        let first = vec![vec![0x11u8; f.page_size()]];
        let second = vec![vec![0x21u8; f.page_size()], vec![0x22u8; f.page_size()]];
        f.persist_xl2p(&first, &mut NoHook).unwrap();
        let kept = f.xl2p_roots().to_vec();
        // The power dies in the second page of the next generation: the
        // first page is intact on flash, the image is not complete.
        f.chip_mut().arm_power_fuse(2);
        assert!(f.persist_xl2p(&second, &mut NoHook).is_err());
        assert_eq!(
            f.xl2p_roots(),
            kept.as_slice(),
            "old image live until the swap"
        );
        let (mut g, _) = FtlBase::recover(f.into_chip()).unwrap();
        assert_eq!(g.xl2p_roots(), kept.as_slice());
        // Issued whole, the newer generation wins and the older is dead.
        g.persist_xl2p(&second, &mut NoHook).unwrap();
        let newer = g.xl2p_roots().to_vec();
        assert!(!g.valid.is_valid(kept[0]));
        let (h, _) = FtlBase::recover(g.into_chip()).unwrap();
        assert_eq!(h.xl2p_roots(), newer.as_slice());
    }

    // --- fault handling ---------------------------------------------------

    use xftl_flash::{FaultKind, FaultPlan, FaultTrigger};

    #[test]
    fn program_failure_retries_on_fresh_slot() {
        let mut f = base(16, 32);
        // Fail the next program attempt, wherever it lands (one-shot).
        f.chip_mut()
            .set_fault_plan(FaultPlan::new(1).trigger(FaultTrigger::new(FaultKind::ProgramFail)));
        let data = page(&f, 0x42);
        f.write_committed(0, &data, &mut NoHook).unwrap();
        assert_eq!(f.stats().program_retries, 1);
        assert_eq!(f.chip.stats().program_fails, 1);
        let mut out = page(&f, 0);
        f.read_committed(0, &mut out).unwrap();
        assert_eq!(out, data, "retried write must expose the intended data");
    }

    #[test]
    fn uncorrectable_read_is_retried() {
        let mut f = base(16, 32);
        let data = page(&f, 0x7C);
        f.write_committed(5, &data, &mut NoHook).unwrap();
        // One bit-flip burst beyond ECC strength; the re-read decodes.
        f.chip_mut()
            .set_fault_plan(FaultPlan::new(3).trigger(FaultTrigger::new(FaultKind::ReadFlips(64))));
        let mut out = page(&f, 0);
        f.read_committed(5, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(f.stats().read_retries, 1);
        assert_eq!(f.chip.stats().uncorrectable_reads, 1);
    }

    #[test]
    fn erase_failure_retires_block_and_survives_recovery() {
        let mut f = base(16, 32);
        // Fail the first erase the FTL issues (a GC victim; the meta ring
        // blocks are fault-exempt by default).
        f.chip_mut()
            .set_fault_plan(FaultPlan::new(2).trigger(FaultTrigger::new(FaultKind::EraseFail)));
        for i in 0..600u64 {
            let data = vec![(i % 251) as u8; f.page_size()];
            f.write_committed(i % 8, &data, &mut NoHook).unwrap();
        }
        assert_eq!(f.stats().bad_block_retirements, 1);
        assert_eq!(f.bad_block_count(), 1);
        let bad = f.pool.bad_blocks().next().unwrap();
        assert!(!f.is_allocatable(bad), "retired block back in free pool");
        f.checkpoint(&mut NoHook).unwrap();
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        g.finish_recovery(&log, Vec::new()).unwrap();
        assert!(g.is_bad_block(bad), "retirement lost across recovery");
        assert!(!g.is_allocatable(bad));
        for lpn in 0..8u64 {
            let mut out = vec![0u8; g.page_size()];
            g.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out[0] as u64, (592 + lpn) % 251, "lpn {lpn} corrupted");
        }
    }

    #[test]
    fn format_excludes_preretired_blocks() {
        // "Factory" bad block: retire block 5 before handing the chip to
        // the FTL; format must keep it out of the pool.
        let mut chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        chip.set_fault_plan(
            FaultPlan::new(4).trigger(FaultTrigger::new(FaultKind::EraseFail).on_block(5)),
        );
        assert!(chip.erase(5).is_err());
        let mut f = FtlBase::format(chip, 32).unwrap();
        assert!(f.is_bad_block(5));
        assert!(!f.is_allocatable(5));
        let data = vec![1u8; f.page_size()];
        for i in 0..400u64 {
            f.write_committed(i % 8, &data, &mut NoHook).unwrap();
            if let Some(ppa) = f.l2p_get(i % 8).unwrap() {
                assert_ne!(ppa.block, 5, "write landed on a retired block");
            }
        }
    }

    #[test]
    fn background_faults_do_not_lose_committed_data() {
        // Steady background fault rates well above the acceptance floor:
        // every committed write must stay readable through retries, GC
        // relocations, retirements, and a recovery pass.
        let mut f = base(24, 32);
        f.chip_mut().set_fault_plan(FaultPlan::background(
            0xFA11, 5e-3, // program fails
            5e-3, // erase fails
            2e-2, // correctable flips
            2e-3, // uncorrectable bursts
        ));
        for i in 0..1_000u64 {
            let data = vec![(i % 251) as u8; f.page_size()];
            f.write_committed(i % 8, &data, &mut NoHook).unwrap();
        }
        let s = *f.stats();
        assert!(s.program_retries > 0, "no program fault ever fired");
        f.checkpoint(&mut NoHook).unwrap();
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        g.finish_recovery(&log, Vec::new()).unwrap();
        for lpn in 0..8u64 {
            let mut out = vec![0u8; g.page_size()];
            g.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out[0] as u64, (992 + lpn) % 251, "lpn {lpn} corrupted");
        }
    }

    // --- end-of-life: aging, scrub, wear leveling, read-only ---------------

    use xftl_flash::AgingModel;

    #[test]
    fn end_of_life_degrades_to_read_only_instead_of_panicking() {
        let mut f = base(16, 32);
        // Every pool-block erase fails: blocks retire one by one until the
        // spare pool is gone (the meta ring is fault-exempt by default).
        f.chip_mut().set_fault_plan(
            FaultPlan::new(7).trigger(FaultTrigger::new(FaultKind::EraseFail).sticky()),
        );
        let mut acked = [None::<u8>; 8];
        let mut err = None;
        for i in 0..100_000u64 {
            let byte = (i % 251) as u8;
            let data = vec![byte; f.page_size()];
            match f.write_committed(i % 8, &data, &mut NoHook) {
                Ok(()) => acked[(i % 8) as usize] = Some(byte),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(DevError::ReadOnly), "exhaustion must be typed");
        assert_eq!(f.device_state(), DeviceState::ReadOnly);
        assert_eq!(f.stats().degraded_entries, 1, "must pass through Degraded");
        assert_eq!(f.stats().read_only_entries, 1);
        // Every acknowledged write stays readable after the transition.
        for (lpn, byte) in acked.iter().enumerate() {
            let mut out = vec![0u8; f.page_size()];
            f.read_committed(lpn as u64, &mut out).unwrap();
            assert_eq!(Some(out[0]), *byte, "lpn {lpn} lost at end of life");
        }
        // Dirtying operations keep failing, deterministically.
        let data = vec![9u8; f.page_size()];
        assert_eq!(
            f.write_committed(0, &data, &mut NoHook),
            Err(DevError::ReadOnly)
        );

        // The state survives a power cycle (persisted in the root), and
        // recovery + reads still work on the read-only device.
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        assert_eq!(g.device_state(), DeviceState::ReadOnly);
        g.finish_recovery(&log, Vec::new()).unwrap();
        for (lpn, byte) in acked.iter().enumerate() {
            let mut out = vec![0u8; g.page_size()];
            g.read_committed(lpn as u64, &mut out).unwrap();
            assert_eq!(Some(out[0]), *byte, "lpn {lpn} lost across power cycle");
        }
        assert_eq!(
            g.write_committed(0, &data, &mut NoHook),
            Err(DevError::ReadOnly),
            "read-only mode must survive recovery"
        );
        // A second recovery is idempotent.
        let (h, _) = FtlBase::recover(g.into_chip()).unwrap();
        assert_eq!(h.device_state(), DeviceState::ReadOnly);
    }

    #[test]
    fn overfill_without_retirements_stays_out_of_space() {
        // `space_error` only escalates to ReadOnly when retirements prove
        // the pool shrank; a healthy device reports plain OutOfSpace.
        let mut f = base(16, 32);
        let full = || Err::<(), _>(DevError::OutOfSpace);
        assert_eq!(f.or_space_error(full()), Err(DevError::OutOfSpace));
        assert_eq!(f.device_state(), DeviceState::Healthy);
        f.retire_block(9);
        assert_eq!(f.or_space_error(full()), Err(DevError::ReadOnly));
        assert_eq!(f.device_state(), DeviceState::ReadOnly);
    }

    #[test]
    fn scrubber_relocates_read_disturbed_blocks_before_data_loss() {
        let mut f = base(16, 32);
        // Uncorrectable at 300 + 9 × 30 = 570 reads of one block; the
        // scrubber triggers at 150.
        f.chip_mut()
            .set_fault_plan(FaultPlan::new(9).aging(AgingModel {
                read_disturb_threshold: 300,
                reads_per_flip: 30,
                ..AgingModel::inert()
            }));
        f.set_scrub_config(Some(ScrubConfig {
            read_threshold: 150,
            interval_ops: 4,
            ..ScrubConfig::default()
        }));
        let data = page(&f, 0x3C);
        // Fill the first data block so the hammered page sits in a closed
        // block (open frontiers are not scrub candidates).
        for lpn in 0..8u64 {
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        let mut out = page(&f, 0);
        for i in 0..4000u64 {
            f.read_committed(0, &mut out).unwrap();
            assert_eq!(out[0], 0x3C);
            if i % 4 == 0 {
                // Host writes elsewhere drive the scrub tick.
                f.write_committed(8 + i % 8, &data, &mut NoHook).unwrap();
            }
        }
        assert!(f.stats().scrub_runs > 0, "scrubber never fired");
        assert!(matches!(
            f.last_scrub(),
            Some((_, ScrubReason::ReadDisturb))
        ));
        let fs = f.flash_stats();
        assert_eq!(
            fs.aging_uncorrectable, 0,
            "scrubber failed to stay ahead of read disturb"
        );
        assert_eq!(fs.uncorrectable_reads, 0);
    }

    #[test]
    fn read_disturb_without_scrubber_loses_the_page() {
        // Ablation of the test above: identical aging, no scrubber.
        let mut f = base(16, 32);
        f.chip_mut()
            .set_fault_plan(FaultPlan::new(9).aging(AgingModel {
                read_disturb_threshold: 300,
                reads_per_flip: 30,
                ..AgingModel::inert()
            }));
        let data = page(&f, 0x3C);
        for lpn in 0..8u64 {
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        let mut out = page(&f, 0);
        let mut failed = false;
        for _ in 0..4000u64 {
            if f.read_committed(0, &mut out).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "unscrubbed read disturb must go uncorrectable");
        assert!(f.flash_stats().aging_uncorrectable > 0);
    }

    #[test]
    fn wear_leveling_recycles_pinned_cold_blocks() {
        let mut f = base(16, 32);
        f.set_scrub_config(Some(ScrubConfig {
            wear_delta_cap: 4,
            interval_ops: 8,
            ..ScrubConfig::default()
        }));
        // A fully valid cold block: greedy GC never picks it, so without
        // wear leveling its low-wear cells would be pinned forever.
        let cold = page(&f, 0xC0);
        for lpn in 0..8u64 {
            f.write_committed(lpn, &cold, &mut NoHook).unwrap();
        }
        let hot = page(&f, 0x07);
        for i in 0..3000u64 {
            f.write_committed(8 + i % 4, &hot, &mut NoHook).unwrap();
        }
        assert!(
            f.stats().wear_level_runs > 0,
            "wear leveling never relocated the cold block"
        );
        assert!(f.stats().wear_level_copies >= 8);
        let mut out = page(&f, 0);
        for lpn in 0..8u64 {
            f.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out, cold, "cold data corrupted by wear leveling");
        }
    }

    #[test]
    fn allocation_prefers_least_worn_free_blocks() {
        let mut f = base(16, 32);
        // Pre-wear one pooled block; the first frontier must open on a
        // colder one.
        for _ in 0..10 {
            f.chip_mut().erase(4).unwrap();
        }
        let data = page(&f, 1);
        f.write_committed(0, &data, &mut NoHook).unwrap();
        let ppa = f.l2p_get(0).unwrap().unwrap();
        assert_ne!(ppa.block, 4, "frontier opened on the most-worn block");
    }

    #[test]
    fn mapping_cache_budget_bounds_residency_and_flushes_dirty_victims() {
        // 4 slabs (64 entries each at the tiny page size), budget 1: every
        // cross-slab access evicts, and dirty victims program translation
        // pages.
        let mut f = base(64, 256);
        f.set_map_cache_budget(Some(1)).unwrap();
        let data = page(&f, 0x7C);
        for round in 0..3u64 {
            for slab in 0..4u64 {
                f.write_committed(slab * 64 + round, &data, &mut NoHook)
                    .unwrap();
                assert!(f.map_cache().resident() <= 1, "budget exceeded");
            }
        }
        let s = *f.stats();
        assert!(s.map_cache_misses >= 11, "round-robin must thrash");
        assert!(s.map_evictions_dirty > 0, "dirty victims must flush");
        assert!(s.map_writes > 0, "translation pages must be programmed");
        assert_eq!(s.map_writes, s.map_evictions_dirty, "one program each");
        assert_eq!(s.meta_writes, 1, "and no root but the format's");
        // Every mapping answers correctly through demand fetches.
        let mut out = page(&f, 0);
        for slab in 0..4u64 {
            for round in 0..3u64 {
                f.read_committed(slab * 64 + round, &mut out).unwrap();
                assert_eq!(out[0], 0x7C);
            }
        }
        assert!(f.stats().map_demand_loads > 0, "no slab was ever re-read");
    }

    #[test]
    fn a_directory_of_any_size_is_found_by_the_scan() {
        // 3_100 logical pages = 49 slabs at the tiny page size: more
        // pointers than a root page could ever have listed (the 64
        // GB-class presets have hundreds). The root lists none.
        let mut f = base(520, 3_100);
        let data = page(&f, 0x3D);
        for lpn in (0..3_100u64).step_by(32) {
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        f.checkpoint(&mut NoHook).unwrap();
        assert_eq!(f.slab_homes().iter().flatten().count(), 49);
        let expected: Vec<_> = (0..3_100u64).step_by(32).map(|l| f.l2p_peek(l)).collect();
        let homes = f.slab_homes().to_vec();
        let (g, _log) = FtlBase::recover(f.into_chip()).unwrap();
        assert_eq!(g.slab_homes(), homes.as_slice());
        let recovered: Vec<_> = (0..3_100u64).step_by(32).map(|l| g.l2p_peek(l)).collect();
        assert_eq!(expected, recovered, "the scan lost mappings");
        assert!(recovered.iter().all(Option::is_some));
    }

    /// With homes found by scan, whatever a previous life left in the
    /// pool would be adopted by the next recovery: `format` erases it.
    #[test]
    fn format_over_a_used_chip_adopts_nothing() {
        let mut f = base(16, 64);
        f.set_map_cache_budget(Some(1)).unwrap();
        for i in 0..40u64 {
            let data = vec![i as u8 + 1; f.page_size()];
            f.write_committed(i % 2 * 32 + i / 2, &data, &mut NoHook)
                .unwrap();
        }
        f.checkpoint(&mut NoHook).unwrap();
        // Left open on purpose: data after the checkpoint, too.
        f.write_committed(5, &page(&f, 0xEE), &mut NoHook).unwrap();
        assert!(f.slab_homes().iter().all(Option::is_some));
        let erases = f.flash_stats().erases;
        let g = FtlBase::format(f.into_chip(), 64).unwrap();
        assert!(
            g.flash_stats().erases > erases,
            "the used blocks are erased"
        );
        assert_eq!(g.free_block_count(), 14, "and every pool block is free");
        let (mut h, log) = FtlBase::recover(g.into_chip()).unwrap();
        assert!(log.events.is_empty(), "no stale data page replays");
        assert!(h.slab_homes().iter().all(Option::is_none), "no stale slab");
        h.finish_recovery(&log, Vec::new()).unwrap();
        let mut out = page(&h, 0xFF);
        for lpn in 0..64u64 {
            h.read_committed(lpn, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0), "lpn {lpn} is mapped");
        }
        // A fresh chip pays no erase.
        assert_eq!(base(16, 64).flash_stats().erases, 0);
    }

    #[test]
    fn cost_benefit_gc_classifies_victims_and_keeps_data() {
        let mut f = base(24, 64);
        f.set_gc_policy(GcPolicy::CostBenefit);
        assert_eq!(f.gc_policy(), GcPolicy::CostBenefit);
        f.set_map_cache_budget(Some(1)).unwrap();
        // Skewed churn: a few pages rewritten constantly alongside cache
        // thrash, so GC reclaims both data and mapping blocks.
        let data = page(&f, 0x44);
        for i in 0..2_000u64 {
            f.write_committed(i % 48, &data, &mut NoHook).unwrap();
        }
        let s = *f.stats();
        assert!(s.gc_runs > 0, "churn must trigger GC");
        assert!(s.gc_cb_data_victims > 0, "no data-class victim scored");
        assert!(
            s.gc_cb_data_victims + s.gc_cb_map_victims <= s.gc_runs,
            "victim classes overcounted"
        );
        let mut out = page(&f, 0);
        for lpn in 0..48u64 {
            f.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out[0], 0x44, "lpn {lpn} lost under cost-benefit GC");
        }
    }

    #[test]
    fn hot_cold_separation_routes_frontiers_by_heat() {
        let mut f = base(24, 64);
        f.set_hot_cold(true);
        let data = page(&f, 0x55);
        // Pages 0..4 are rewritten constantly (hot); 8..40 are written
        // once (cold). The heat sketch must split the write frontiers.
        for lpn in 8..40u64 {
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        for i in 0..600u64 {
            f.write_committed(i % 4, &data, &mut NoHook).unwrap();
        }
        let s = *f.stats();
        assert!(s.hot_writes > 0, "rewrite-heavy pages never ran hot");
        assert!(s.cold_writes > 0, "single-touch pages never ran cold");
        let mut out = page(&f, 0);
        for lpn in (0..4u64).chain(8..40) {
            f.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out[0], 0x55, "lpn {lpn} lost under hot/cold routing");
        }
    }
}
