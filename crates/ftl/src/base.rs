//! Shared FTL machinery: block allocation, the demand-paged L2P mapping
//! cache, garbage collection (greedy, FIFO, or cost-benefit), hot/cold
//! write-frontier separation, checkpointing, and the crash-recovery scan.
//!
//! Both device personalities in this reproduction are thin assemblies of
//! this engine:
//!
//! * [`crate::pagemap::PageMappedFtl`] — the OpenSSD's original FTL: plain
//!   page mapping with copy-on-write updates and greedy GC.
//! * `xftl_core::XFtl` — the paper's contribution: the same engine plus the
//!   transactional X-L2P table, commit/abort commands and GC pinning.
//!
//! The engine exposes copy-on-write primitives (`write_cow`) that do *not*
//! touch the L2P table, alongside committed-state operations
//! (`write_committed`), so a wrapper can implement either semantics.
//!
//! ## Persistence model
//!
//! Block 0 is a reserved *meta ring*: checkpoint-root pages are appended to
//! it and the newest valid one wins at recovery (the paper assumes the
//! meta-block pointer update is atomic; appending versioned root pages is
//! the standard way firmware realizes that assumption). A checkpoint writes
//! every dirty L2P slab into the normal log frontier (kind = `Map`) and
//! then a fresh meta page. Crash recovery loads the newest checkpoint and
//! rolls the L2P forward by replaying data pages whose OOB sequence number
//! exceeds the checkpoint's, in sequence order — transactional pages
//! (OOB `tid != 0`) are *not* replayed here; the X-FTL layer resolves them
//! through the persisted X-L2P table.
//!
//! ## Demand-paged mapping
//!
//! The L2P table itself is no longer pinned in RAM. It is split into
//! page-sized *slabs*; the authoritative copy of each slab is its
//! translation page on flash (`PageKind::Map`, OOB `lpn` = slab index),
//! and a [`MappingCache`] keeps a bounded set of hot slabs resident with
//! CLOCK eviction. A lookup that misses demand-fetches the slab (a charged
//! flash read — translation traffic is a first-class cost, exactly the
//! DFTL trade); evicting a dirty slab batches up to
//! [`MAP_FLUSH_BATCH`] dirty frames into translation-page programs under
//! a *single* checkpoint-root write. That root reuses the old `ckpt_seq`:
//! replaying post-checkpoint events over newer slab content is idempotent
//! (folds are last-writer-wins in sequence order), so an eviction flush
//! needs no full checkpoint to be crash-safe.
//!
//! Small devices keep every slab pointer inline in the root page; once
//! the pointer table outgrows it, the root switches to a paged *global
//! translation directory* (GTD): root → GTD pages (`PageKind::Map` with
//! OOB `aux` = [`meta::GTD_AUX`], `lpn` = GTD page index) → translation
//! pages. Formats choose the mode from geometry alone, so recovery can
//! recompute it without trusting flash contents.

use std::collections::VecDeque;

use xftl_flash::{FlashChip, FlashError, Nanos, Oob, PageKind, PageProbe, Ppa, SimClock};
use xftl_trace::{HeatSketch, OpClass, Recorder, Telemetry};

use crate::cmt::MappingCache;
use crate::dev::{DevCounters, Lpn, Tid};
use crate::error::{DevError, Result};
use crate::health::{DeviceState, ScrubConfig, ScrubReason};
use crate::meta::{self, MetaPage};
use crate::stats::FtlStats;
use crate::validity::ValidityMap;

/// Reserved block indices for the meta (checkpoint-root) ring. Two blocks
/// alternate so there is always one valid root on flash: when the current
/// block fills up, the *other* block is erased and written — never the one
/// holding the latest root. (This realizes the paper's assumption that
/// the meta-block pointer update is atomic.)
const META_BLOCKS: [u32; 2] = [0, 1];
/// First block available for data/mapping allocation.
const FIRST_POOL_BLOCK: u32 = 2;

/// GC starts when the free-block pool drops below the low-water mark.
/// This floor is the single-channel value; multi-channel devices raise
/// it (see [`FtlBase::gc_low_water`]) because one GC pass can open a
/// cold write frontier on every channel straight out of the pool.
const GC_LOW_WATER: usize = 3;

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
const READ_RETRY_LIMIT: usize = 4;

/// Maximum dirty mapping slabs coalesced into one eviction flush. Each
/// flush pays one checkpoint-root program regardless of how many
/// translation pages ride along, so batching amortizes the root cost;
/// the bound keeps a single host write's worst-case latency predictable.
pub const MAP_FLUSH_BATCH: usize = 8;

/// Write-heat counter slots for hot/cold separation (a one-row sketch;
/// see [`xftl_trace::HeatSketch`]). Fixed, so RAM stays bounded at any
/// device scale.
const HEAT_SLOTS: usize = 1 << 16;

/// Writes between heat-counter halvings.
const HEAT_HALF_LIFE: u64 = 1 << 17;

/// Heat estimate at or above which a data LPN writes to the hot frontier.
const HOT_THRESHOLD: u8 = 2;

/// Reads `ppa` with bounded re-issue on uncorrectable ECC errors,
/// returning the final result and the number of retries consumed. Free
/// function so the recovery path (no `FtlBase` yet) can share it.
fn read_with_retries(
    chip: &mut FlashChip,
    ppa: Ppa,
    buf: &mut [u8],
) -> (xftl_flash::Result<Oob>, u64) {
    let mut r = chip.read(ppa, buf);
    let mut retries = 0u64;
    while (retries as usize) < READ_RETRY_LIMIT && matches!(r, Err(FlashError::Uncorrectable(_))) {
        retries += 1;
        r = chip.read(ppa, buf);
    }
    (r, retries)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // the policies are described above
pub enum GcPolicy {
    #[default]
    Greedy,
    Fifo,
    CostBenefit,
}

/// Why a block is being collected (relocate-and-erase): normal space
/// reclamation, a scrub of at-risk data, or static wear leveling. Decides
/// which stats and trace class the copies charge to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollectKind {
    Gc,
    Scrub,
    WearLevel,
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
}

/// Hook for devices with no mapping state outside the L2P table.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHook;

impl GcHook for NoHook {
    fn relocated(&mut self, _oob: &Oob, _old: Ppa, _new: Ppa) {}
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
    /// Concatenated contents of the persisted X-L2P table pages, if the
    /// checkpoint pointed at any: `(newest_program_seq, raw_bytes)`.
    pub xl2p: Option<(u64, Vec<u8>)>,
    /// Sequence number the loaded checkpoint covers; only X-L2P tables
    /// written after it carry unfolded commits.
    pub ckpt_seq: u64,
    /// The *previous* boot's transaction horizon: transactional pages at
    /// or before it belong to dead transactions of earlier lives (unless
    /// already folded via the checkpoint).
    pub tx_horizon: u64,
}

/// The shared FTL engine. See the module docs for the division of labour
/// between this type and the device personalities wrapping it.
#[derive(Debug)]
pub struct FtlBase {
    chip: FlashChip,
    logical_pages: u64,
    /// Residency and dirtiness of the demand-paged L2P (the CMT). The
    /// authoritative mapping lives in translation pages on flash.
    cmt: MappingCache,
    /// Flash home of each persisted L2P slab (the GTD contents).
    map_locs: Vec<Option<Ppa>>,
    /// Paged-GTD mode: flash home of each GTD page (`None` until first
    /// written) and which GTD pages have stale persisted copies. Both
    /// empty in inline mode.
    gtd_locs: Vec<Option<Ppa>>,
    gtd_dirty: Vec<bool>,
    /// True when the slab-pointer table outgrows the root page and rides
    /// in GTD pages instead. Decided by geometry at format/recover.
    gtd_paged: bool,
    /// Locations of the persisted X-L2P table pages (owned by the X-FTL
    /// layer; stored here because they ride in the meta page and are
    /// GC-relocatable).
    xl2p_roots: Vec<Ppa>,
    valid: ValidityMap,
    /// Class of each block: 0 = free/unknown, 1 = data, 2 = mapping.
    block_class: Vec<u8>,
    /// Victim-selection policy.
    gc_policy: GcPolicy,
    /// Sequence number of the most recent program into each block
    /// (cost-benefit "age" reference; 0 = never programmed this boot).
    block_last_seq: Vec<u64>,
    /// Data blocks in allocation order (FIFO victim cursor).
    alloc_order: VecDeque<u32>,
    /// Open write blocks for host data pages, one per flash channel, so
    /// consecutive page allocations stripe across channels and queued
    /// programs can overlap (the write-interleaving real multi-channel
    /// firmware does).
    frontiers_data: Vec<Option<u32>>,
    /// Round-robin cursor over `frontiers_data`.
    data_cursor: usize,
    /// Cold-data frontiers (GC copies and low-heat LPNs), one per
    /// channel, used only when hot/cold separation is enabled.
    frontiers_cold: Vec<Option<u32>>,
    /// Round-robin cursor over `frontiers_cold`.
    cold_cursor: usize,
    /// Hot/cold separation switch (off by default: the paper's figures
    /// run a single frontier per channel).
    hot_cold: bool,
    /// Per-LPN recent write frequency, feeding hot/cold placement.
    heat: HeatSketch,
    /// Open write block for mapping-class pages (L2P slabs, X-L2P tables,
    /// commit records). Real FTLs — the OpenSSD included — segregate map
    /// blocks from data blocks; mixing them would let short-lived mapping
    /// pages pollute the data blocks' GC validity.
    frontier_map: Option<u32>,
    free_blocks: VecDeque<u32>,
    in_free: Vec<bool>,
    /// The bad-block table: blocks permanently retired after an erase
    /// failure. Never allocated from, never GC victims, persisted in the
    /// meta page and unioned with the chip's health marks at recovery.
    bad_blocks: Vec<bool>,
    /// Meta block currently being appended to (index into META_BLOCKS).
    meta_cur: usize,
    /// Sequence number covered by the last full checkpoint.
    ckpt_seq: u64,
    /// Sequence of the most recent power-cycle recovery (see
    /// [`crate::meta::MetaPage::tx_horizon`]).
    tx_horizon: u64,
    stats: FtlStats,
    counters: DevCounters,
    scratch: Vec<u8>,
    /// Guards against re-entering GC from a checkpoint issued inside GC.
    in_gc: bool,
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
        let slabs = (logical_pages as usize).div_ceil(meta::entries_per_slab(geo.page_size));
        // Reserve pointer slots for up to 8 X-L2P table pages. When the
        // slab pointers themselves no longer fit inline, the root switches
        // to paged-GTD mode and only the (much smaller) GTD pointer table
        // must fit.
        let gtd_paged = slabs + 8 > MetaPage::max_pointers(geo.page_size);
        let gtd_pages = if gtd_paged {
            meta::gtd_page_count(slabs, geo.page_size)
        } else {
            0
        };
        assert!(
            if gtd_paged { gtd_pages } else { slabs } + 8 <= MetaPage::max_pointers(geo.page_size),
            "mapping directory needs {gtd_pages}/{slabs} pointers; one meta page indexes at \
             most {}",
            MetaPage::max_pointers(geo.page_size)
        );
        let data_blocks = geo.blocks.saturating_sub(META_BLOCKS.len());
        let needed_blocks = (logical_pages as usize + slabs + gtd_pages)
            .div_ceil(geo.pages_per_block)
            + MIN_SPARE_BLOCKS;
        assert!(
            data_blocks >= needed_blocks,
            "geometry too small: {data_blocks} data blocks < {needed_blocks} required \
             for {logical_pages} logical pages"
        );
        // A formatted chip starts erased except for the initial meta page.
        for mb in META_BLOCKS {
            if chip.write_point(mb) != Some(0) {
                chip.erase(mb)?;
            }
        }
        // Re-formatting a worn chip: blocks it already retired stay out of
        // the pool (factory bad-block marks, in real-firmware terms).
        let mut bad_blocks = vec![false; geo.blocks];
        for b in chip.retired_blocks() {
            bad_blocks[b as usize] = true;
        }
        // A fresh format leaves every slab resident: no translation pages
        // exist yet, and every frame is the all-unmapped slab (clean —
        // eviction without a persisted copy just drops it, and a demand
        // fetch with no `map_locs` entry reinstalls the same all-`None`
        // frame). Budgeted residency starts when the wrapper calls
        // [`FtlBase::set_map_cache_budget`].
        let eps = meta::entries_per_slab(geo.page_size);
        let mut cmt = MappingCache::new(slabs, eps, None);
        for slab in 0..slabs {
            cmt.install(slab, vec![None; eps].into_boxed_slice(), false);
        }
        let mut base = FtlBase {
            logical_pages,
            cmt,
            map_locs: vec![None; slabs],
            gtd_locs: vec![None; gtd_pages],
            gtd_dirty: vec![true; gtd_pages],
            gtd_paged,
            xl2p_roots: Vec::new(),
            valid: ValidityMap::new(geo.blocks, geo.pages_per_block),
            block_class: vec![0; geo.blocks],
            gc_policy: GcPolicy::Greedy,
            block_last_seq: vec![0; geo.blocks],
            alloc_order: VecDeque::new(),
            frontiers_data: vec![None; geo.channels.max(1) as usize],
            data_cursor: 0,
            frontiers_cold: vec![None; geo.channels.max(1) as usize],
            cold_cursor: 0,
            hot_cold: false,
            heat: HeatSketch::new(HEAT_SLOTS, HEAT_HALF_LIFE),
            frontier_map: None,
            free_blocks: (FIRST_POOL_BLOCK..geo.blocks as u32)
                .filter(|&b| !bad_blocks[b as usize])
                .collect(),
            in_free: {
                let mut v = vec![true; geo.blocks];
                for mb in META_BLOCKS {
                    v[mb as usize] = false;
                }
                for (b, bad) in bad_blocks.iter().enumerate() {
                    if *bad {
                        v[b] = false;
                    }
                }
                v
            },
            bad_blocks,
            meta_cur: 0,
            ckpt_seq: 0,
            tx_horizon: 0,
            stats: FtlStats::default(),
            counters: DevCounters::default(),
            scratch: vec![0u8; geo.page_size],
            in_gc: false,
            scrub: None,
            scrub_tick: 0,
            last_scrub: None,
            device_state: DeviceState::Healthy,
            chip,
        };
        base.write_meta()?;
        base.ckpt_seq = base.chip.next_seq() - 1;
        Ok(base)
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
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut total = 0u64;
        for b in 0..blocks {
            let e = self.chip.erase_count(b);
            min = min.min(e);
            max = max.max(e);
            total += e;
        }
        WearSummary {
            min,
            max,
            total,
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

    /// Current committed mapping of `lpn`. Demand-fetches the covering
    /// slab if it is not resident (a charged flash read, possibly with an
    /// eviction flush first) — translation traffic is a first-class cost.
    pub fn l2p_get(&mut self, lpn: Lpn) -> Result<Option<Ppa>> {
        let slab = self.cmt.slab_of_lpn(lpn);
        self.ensure_resident(slab)?;
        Ok(self.cmt.get(lpn).unwrap_or(None))
    }

    /// Side-effect-free mapping lookup for auditors and oracles: resident
    /// slabs answer from RAM (no referenced-bit update); non-resident
    /// slabs are answered by decoding the persisted translation page via
    /// the chip's silent read — no clock, stats, or fault-plan activity.
    pub fn l2p_peek(&self, lpn: Lpn) -> Option<Ppa> {
        if lpn >= self.logical_pages {
            return None;
        }
        if let Some(entry) = self.cmt.peek(lpn) {
            return entry;
        }
        let slab = self.cmt.slab_of_lpn(lpn);
        let loc = self.map_locs.get(slab).copied().flatten()?;
        let mut buf = vec![0u8; self.page_size()];
        self.chip.read_silent(loc, &mut buf)?;
        let entries = meta::decode_slab_entries(&buf, self.pages_per_block());
        entries
            .get((lpn as usize) % self.cmt.entries_per_slab())
            .copied()
            .flatten()
    }

    /// The mapping cache's residency bookkeeping (budget, hit counters
    /// live in [`FtlStats`]).
    pub fn map_cache(&self) -> &MappingCache {
        &self.cmt
    }

    /// Bounds the mapping cache to `budget` resident slabs (`None` =
    /// unbounded), evicting down immediately. Dirty victims are flushed
    /// to translation pages first, so this is safe at any point.
    pub fn set_map_cache_budget(&mut self, budget: Option<usize>) -> Result<()> {
        self.cmt.set_budget(budget);
        while let Some(b) = self.cmt.budget() {
            if self.cmt.resident() <= b {
                break;
            }
            if !self.evict_one()? {
                break;
            }
        }
        Ok(())
    }

    /// Number of free (fully erased, pooled) blocks.
    pub fn free_block_count(&self) -> usize {
        self.free_blocks.len()
            + self.frontiers_data.iter().filter(|f| f.is_some()).count()
            + self.frontiers_cold.iter().filter(|f| f.is_some()).count()
            + usize::from(self.frontier_map.is_some())
    }

    /// True if any L2P slab has un-persisted changes. Non-resident slabs
    /// are clean by invariant (eviction flushes before dropping).
    pub fn has_dirty_mapping(&self) -> bool {
        self.cmt.any_dirty()
    }

    /// Locations of the persisted X-L2P table pages recorded in the meta
    /// page (empty when no table is live).
    pub fn xl2p_roots(&self) -> &[Ppa] {
        &self.xl2p_roots
    }

    /// Number of blocks in the bad-block table.
    pub fn bad_block_count(&self) -> usize {
        self.bad_blocks.iter().filter(|b| **b).count()
    }

    /// True if `block` has been retired to the bad-block table.
    pub fn is_bad_block(&self, block: u32) -> bool {
        self.bad_blocks
            .get(block as usize)
            .copied()
            .unwrap_or(false)
    }

    /// True if `block` sits in an allocation path (free pool or an open
    /// write frontier) — the auditor uses this to prove retired blocks
    /// can never be handed out again.
    pub fn is_allocatable(&self, block: u32) -> bool {
        self.in_free.get(block as usize).copied().unwrap_or(false)
            || self.frontiers_data.contains(&Some(block))
            || self.frontiers_cold.contains(&Some(block))
            || self.frontier_map == Some(block)
    }

    /// Retired blocks in ascending order.
    pub fn bad_block_list(&self) -> Vec<u32> {
        self.bad_blocks
            .iter()
            .enumerate()
            .filter(|(_, bad)| **bad)
            .map(|(b, _)| b as u32)
            .collect()
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

    /// Pool blocks the device needs to keep its write path alive: enough
    /// to hold every logical page, the translation pages, and the spare
    /// headroom the constructor insisted on. This is the format-time
    /// sizing check re-evaluated against the current bad-block table.
    fn required_pool_blocks(&self) -> usize {
        let geo = self.chip.config().geometry;
        (self.logical_pages as usize + self.map_locs.len() + self.gtd_locs.len())
            .div_ceil(geo.pages_per_block)
            + MIN_SPARE_BLOCKS
    }

    /// Pool blocks still usable: everything outside the meta ring and the
    /// bad-block table.
    fn usable_pool_blocks(&self) -> usize {
        let geo = self.chip.config().geometry;
        geo.blocks
            .saturating_sub(META_BLOCKS.len())
            .saturating_sub(self.bad_block_count())
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
        let _ = self.write_meta(); // xftl-analyze: allow(error-discard): best-effort persistence — on a device too far gone to write its root, the RAM state still gates writes and recovery re-derives degradation from the pool census
    }

    /// Classifies a pool-exhaustion failure: on a device that has lost
    /// blocks to retirement this is end-of-life degradation (the device
    /// goes read-only, permanently); on a healthy device it is the host
    /// over-filling its over-provisioning (a transient, logical error).
    fn space_error(&mut self) -> DevError {
        if self.bad_block_count() > 0 {
            self.enter_state(DeviceState::ReadOnly);
            DevError::ReadOnly
        } else {
            DevError::OutOfSpace
        }
    }

    /// Records an erase failure: the block leaves every allocation path
    /// for good. Its live pages (if any) were copied out by the caller,
    /// so retirement costs capacity, never data. Once retirements eat
    /// into the spare headroom the format-time sizing guaranteed, the
    /// device enters the `Degraded` state.
    fn retire_block(&mut self, block: u32) {
        if !self.bad_blocks[block as usize] {
            self.bad_blocks[block as usize] = true;
            self.stats.bad_block_retirements += 1;
        }
        self.in_free[block as usize] = false;
        self.block_class[block as usize] = 0;
        if self.usable_pool_blocks() < self.required_pool_blocks() {
            self.enter_state(DeviceState::Degraded);
        }
    }

    /// Removes `block` from the open write frontiers after a program
    /// failure: the re-executed write must land on a fresh block. The
    /// abandoned block keeps its valid pages until GC reclaims it (a
    /// clean erase rehabilitates a suspect block for reuse).
    fn abandon_frontier(&mut self, block: u32) {
        for f in self
            .frontiers_data
            .iter_mut()
            .chain(&mut self.frontiers_cold)
        {
            if *f == Some(block) {
                *f = None;
            }
        }
        if self.frontier_map == Some(block) {
            self.frontier_map = None;
        }
    }

    /// Synchronous read with bounded ECC-failure retries, counted in
    /// [`FtlStats::read_retries`].
    fn read_retry(&mut self, ppa: Ppa, buf: &mut [u8]) -> Result<Oob> {
        let (r, retries) = read_with_retries(&mut self.chip, ppa, buf);
        self.stats.read_retries += retries;
        Ok(r?)
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<()> {
        if lpn < self.logical_pages {
            Ok(())
        } else {
            Err(DevError::BadLpn(lpn))
        }
    }

    // --- allocation and GC -----------------------------------------------

    /// Next free slot in the appropriate log frontier, opening a new
    /// block as needed. Mapping-class pages (`Map`, `XL2p`, `Commit`) use
    /// their own frontier so they never share blocks with host data. Data
    /// pages rotate over one frontier per channel, so back-to-back page
    /// allocations land on different channels and queued programs overlap;
    /// `cold` data pages (GC copies, low-heat LPNs) fill their own
    /// per-channel frontiers so hot churn and cold residue age in
    /// different blocks (`cold` is only meaningful for `PageKind::Data`).
    fn alloc_slot(&mut self, kind: PageKind, cold: bool) -> Result<Ppa> {
        let map_class = matches!(kind, PageKind::Map | PageKind::XL2p | PageKind::Commit);
        if map_class {
            loop {
                if let Some(b) = self.frontier_map {
                    if let Some(wp) = self.chip.write_point(b) {
                        return Ok(Ppa::new(b, wp));
                    }
                    self.frontier_map = None;
                }
                match self.pop_free_min_wear() {
                    Some(b) => {
                        self.in_free[b as usize] = false;
                        self.block_class[b as usize] = 2;
                        self.frontier_map = Some(b);
                    }
                    None => return Err(DevError::OutOfSpace),
                }
            }
        }
        let channels = self.frontiers_data.len();
        for i in 0..channels {
            let cursor = if cold {
                self.cold_cursor
            } else {
                self.data_cursor
            };
            let ch = (cursor + i) % channels;
            let open = if cold {
                self.frontiers_cold[ch]
            } else {
                self.frontiers_data[ch]
            };
            if let Some(b) = open {
                if let Some(wp) = self.chip.write_point(b) {
                    self.advance_cursor(cold, ch, channels);
                    return Ok(Ppa::new(b, wp));
                }
                if cold {
                    self.frontiers_cold[ch] = None;
                } else {
                    self.frontiers_data[ch] = None;
                }
            }
            if let Some(b) = self.pop_free_for_channel(ch) {
                self.in_free[b as usize] = false;
                self.block_class[b as usize] = 1;
                self.alloc_order.push_back(b);
                if cold {
                    self.frontiers_cold[ch] = Some(b);
                } else {
                    self.frontiers_data[ch] = Some(b);
                }
                self.advance_cursor(cold, ch, channels);
                return Ok(Ppa::new(b, 0));
            }
        }
        Err(DevError::OutOfSpace)
    }

    fn advance_cursor(&mut self, cold: bool, ch: usize, channels: usize) {
        if cold {
            self.cold_cursor = (ch + 1) % channels;
        } else {
            self.data_cursor = (ch + 1) % channels;
        }
    }

    /// Position of the least-worn free block satisfying `keep`, ties
    /// broken by queue position (which on a fresh chip makes wear-aware
    /// allocation identical to the historical FIFO order).
    fn min_wear_pos(&self, keep: impl Fn(u32) -> bool) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (pos, &b) in self.free_blocks.iter().enumerate() {
            if !keep(b) {
                continue;
            }
            let e = self.chip.erase_count(b);
            if best.is_none_or(|(be, _)| e < be) {
                best = Some((e, pos));
            }
        }
        best.map(|(_, pos)| pos)
    }

    /// Pops the least-worn free block (wear-aware frontier allocation:
    /// fresh frontiers open on the coldest spare cells, spreading erase
    /// load across the array).
    fn pop_free_min_wear(&mut self) -> Option<u32> {
        let pos = self.min_wear_pos(|_| true)?;
        self.free_blocks.remove(pos)
    }

    /// Pops the least-worn free block that physically lives on channel
    /// `ch`, falling back to the least-worn block on any channel: a
    /// frontier fed from the wrong channel still beats an idle one (the
    /// stripe self-heals as blocks recycle).
    fn pop_free_for_channel(&mut self, ch: usize) -> Option<u32> {
        let geo = self.chip.config().geometry;
        if let Some(pos) = self.min_wear_pos(|b| geo.channel_of(b) == ch) {
            return self.free_blocks.remove(pos);
        }
        self.pop_free_min_wear()
    }

    /// The geometry-scaled GC trigger: single-channel devices keep the
    /// legacy floor, multi-channel devices hold two blocks of headroom
    /// per channel so a GC pass that opens cold frontiers on every
    /// channel cannot drain the pool mid-collection.
    fn gc_low_water(&self) -> usize {
        GC_LOW_WATER.max(2 * self.frontiers_data.len())
    }

    /// Runs garbage collection until the free pool is back above the low
    ///-water mark. Wrappers call this before host writes. The background
    /// scrubber and static wear leveling piggyback on this tick: every
    /// [`ScrubConfig::interval_ops`] calls (and only with pool headroom
    /// to spare) they each relocate at most one at-risk block.
    pub fn maybe_gc(&mut self, hook: &mut dyn GcHook) -> Result<()> {
        if self.in_gc {
            return Ok(()); // a checkpoint inside GC must not re-enter
        }
        while self.free_blocks.len() < self.gc_low_water() {
            self.in_gc = true;
            let r = self.gc_once(hook);
            self.in_gc = false;
            match r {
                Err(DevError::OutOfSpace) => return Err(self.space_error()),
                other => other?,
            }
        }
        // GC's demand fetches bypass budget enforcement (see
        // `ensure_resident`); trim the overshoot now that the pool is
        // back above the water mark.
        for _ in 0..self.cmt.over_budget_by() {
            if !self.evict_one()? {
                break;
            }
        }
        if let Some(cfg) = self.scrub {
            self.scrub_tick += 1;
            if self.scrub_tick >= cfg.interval_ops.max(1)
                && self.free_blocks.len() >= self.gc_low_water()
            {
                self.scrub_tick = 0;
                match self
                    .scrub_once(cfg, hook)
                    .and_then(|()| self.wear_level_once(cfg, hook))
                {
                    Err(DevError::OutOfSpace) => return Err(self.space_error()),
                    other => other?,
                }
            }
        }
        Ok(())
    }

    /// Scores every closed block against the scrub thresholds and
    /// relocates the riskiest one whose score crosses the trigger.
    /// Deterministic integer math: each component contributes
    /// `value * 1000 / threshold`, and a combined score ≥ 1000 — any one
    /// threshold reached, or several near misses compounding — fires.
    /// The reported reason is the dominant component.
    fn scrub_once(&mut self, cfg: ScrubConfig, hook: &mut dyn GcHook) -> Result<()> {
        let geo = self.chip.config().geometry;
        let now = self.chip.clock().now();
        let mut best: Option<(u64, u32, ScrubReason)> = None;
        for b in FIRST_POOL_BLOCK..geo.blocks as u32 {
            if !self.is_victim_candidate(b) {
                continue;
            }
            let s_read = self.chip.block_read_count(b) * 1000 / cfg.read_threshold.max(1);
            let s_flip = self.chip.block_corrected_flips(b) * 1000 / cfg.flip_threshold.max(1);
            let s_age = if cfg.age_threshold_ns == Nanos::MAX {
                0
            } else {
                let age = self
                    .chip
                    .block_first_program_at(b)
                    .map_or(0, |t| now.saturating_sub(t));
                age * 1000 / cfg.age_threshold_ns.max(1)
            };
            let score = s_read.saturating_add(s_flip).saturating_add(s_age);
            if score < 1000 {
                continue;
            }
            let reason = if s_flip >= s_read && s_flip >= s_age {
                ScrubReason::EccFeedback
            } else if s_read >= s_age {
                ScrubReason::ReadDisturb
            } else {
                ScrubReason::Retention
            };
            if best.is_none_or(|(s, _, _)| score > s) {
                best = Some((score, b, reason));
            }
        }
        let Some((_, victim, reason)) = best else {
            return Ok(());
        };
        self.in_gc = true;
        let r = self.collect_block(victim, CollectKind::Scrub, hook);
        self.in_gc = false;
        r?;
        self.last_scrub = Some((victim, reason));
        Ok(())
    }

    /// Static wear leveling: when the erase-count spread between the
    /// most-worn block and the coldest closed block exceeds the cap, the
    /// cold block is relocated so its low-wear cells rejoin the free pool
    /// (instead of sitting pinned under data that never changes while the
    /// rest of the array wears out).
    fn wear_level_once(&mut self, cfg: ScrubConfig, hook: &mut dyn GcHook) -> Result<()> {
        let geo = self.chip.config().geometry;
        let mut max_wear = 0u64;
        for b in FIRST_POOL_BLOCK..geo.blocks as u32 {
            if !self.bad_blocks[b as usize] {
                max_wear = max_wear.max(self.chip.erase_count(b));
            }
        }
        let mut coldest: Option<(u64, u32)> = None;
        for b in FIRST_POOL_BLOCK..geo.blocks as u32 {
            if !self.is_victim_candidate(b) {
                continue;
            }
            let e = self.chip.erase_count(b);
            if coldest.is_none_or(|(ce, _)| e < ce) {
                coldest = Some((e, b));
            }
        }
        let Some((cold_wear, victim)) = coldest else {
            return Ok(());
        };
        if max_wear.saturating_sub(cold_wear) <= cfg.wear_delta_cap {
            return Ok(());
        }
        self.in_gc = true;
        let r = self.collect_block(victim, CollectKind::WearLevel, hook);
        self.in_gc = false;
        r
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

    /// Enables or disables hot/cold write-frontier separation. When on,
    /// host data writes of low-heat LPNs and all GC data copies go to
    /// per-channel cold frontiers instead of the (hot) data frontiers.
    pub fn set_hot_cold(&mut self, enabled: bool) {
        self.hot_cold = enabled;
    }

    fn is_victim_candidate(&self, b: u32) -> bool {
        !(b < FIRST_POOL_BLOCK
            || self.in_free[b as usize]
            || self.frontiers_data.contains(&Some(b))
            || self.frontiers_cold.contains(&Some(b))
            || Some(b) == self.frontier_map
            || self.chip.write_point(b) == Some(0))
    }

    /// Records a successful program into `block` for the cost-benefit age
    /// reference (the chip's global sequence counter doubles as a clock).
    fn note_block_program(&mut self, block: u32) {
        self.block_last_seq[block as usize] = self.chip.next_seq().saturating_sub(1);
    }

    /// Greedy fallback: fewest valid pages among closed, non-free,
    /// non-meta blocks.
    fn pick_victim_greedy(&self) -> Option<u32> {
        let geo = self.chip.config().geometry;
        let mut best: Option<(u32, u32)> = None;
        for b in FIRST_POOL_BLOCK..geo.blocks as u32 {
            if !self.is_victim_candidate(b) {
                continue;
            }
            let count = self.valid.valid_in_block(b);
            if best.is_none_or(|(_, c)| count < c) {
                best = Some((b, count));
            }
        }
        // A fully valid victim cannot gain space; give up rather than churn.
        match best {
            Some((b, c)) if (c as usize) < geo.pages_per_block => Some(b),
            _ => None,
        }
    }

    /// Cost-benefit selection: maximize `(1 − u) / (1 + u) × age`. The
    /// benefit term is the reclaimable space over the copy cost (Kawaguchi
    /// et al.); the age term (programs since the block last took a write)
    /// lets old, moderately-valid cold blocks eventually beat young nearly
    /// -empty hot blocks whose garbage is still accumulating. Data and
    /// mapping blocks compete as separate classes — the best scorer of
    /// each is computed and the global winner collected — so the stats can
    /// attribute victims per class and neither class starves the other.
    fn pick_victim_cost_benefit(&self) -> Option<u32> {
        let geo = self.chip.config().geometry;
        let now = self.chip.next_seq();
        let ppb = geo.pages_per_block as f64;
        let mut best: [Option<(f64, u32)>; 2] = [None, None];
        for b in FIRST_POOL_BLOCK..geo.blocks as u32 {
            if !self.is_victim_candidate(b) {
                continue;
            }
            let valid = self.valid.valid_in_block(b);
            if valid as usize >= geo.pages_per_block {
                continue; // nothing reclaimable
            }
            let u = valid as f64 / ppb;
            let age = now.saturating_sub(self.block_last_seq[b as usize]) as f64;
            // All inputs are small exact integers, so the f64 score is a
            // deterministic function of device state; ties break on the
            // lower block index because `>` keeps the first maximum.
            let score = (1.0 - u) / (1.0 + u) * age;
            let class = usize::from(self.block_class[b as usize] == 2);
            if best[class].is_none_or(|(s, _)| score > s) {
                best[class] = Some((score, b));
            }
        }
        match (best[0], best[1]) {
            (Some((sd, bd)), Some((sm, bm))) => Some(if sm > sd { bm } else { bd }),
            (Some((_, b)), None) | (None, Some((_, b))) => Some(b),
            (None, None) => None,
        }
    }

    fn pick_victim(&mut self) -> Option<u32> {
        if self.gc_policy == GcPolicy::CostBenefit {
            // Urgent-GC fallback: with the free pool nearly drained, the
            // age-weighted score must not pick a high-valid old block —
            // copying most of a block while nearly out of space is how a
            // device deadlocks. Greedy's min-valid victim maximizes the
            // immediate net gain; cost-benefit resumes once headroom is
            // back.
            if self.free_blocks.len() <= self.frontiers_data.len() {
                return self.pick_victim_greedy();
            }
            return self.pick_victim_cost_benefit();
        }
        if self.gc_policy == GcPolicy::Fifo {
            let ppb = self.chip.config().geometry.pages_per_block as u32;
            // Oldest closed data block that yields at least one page.
            for _ in 0..self.alloc_order.len() {
                let Some(b) = self.alloc_order.pop_front() else {
                    break;
                };
                if !self.is_victim_candidate(b) || self.block_class[b as usize] != 1 {
                    // Stale entry (erased/reused) or currently open: drop
                    // it; it re-enters the queue when reallocated.
                    if self.frontiers_data.contains(&Some(b)) {
                        self.alloc_order.push_back(b);
                    }
                    continue;
                }
                if self.valid.valid_in_block(b) * 10 >= ppb * 9 {
                    // (Nearly) fully valid: collecting it would copy ~a
                    // whole block to reclaim a page or two. Recycle to the
                    // back and try the next — even simple firmware bounds
                    // its write amplification this way.
                    self.alloc_order.push_back(b);
                    continue;
                }
                return Some(b);
            }
        }
        self.pick_victim_greedy()
    }

    /// Picks a GC victim and collects it.
    fn gc_once(&mut self, hook: &mut dyn GcHook) -> Result<()> {
        let victim = self.pick_victim().ok_or(DevError::OutOfSpace)?;
        self.collect_block(victim, CollectKind::Gc, hook)
    }

    /// Relocates every live page of `victim` to the frontier, fixes every
    /// table that pointed at them, and erases the block. Shared by GC,
    /// the background scrubber (whose erase also resets the block's
    /// read-disturb and retention damage), and static wear leveling;
    /// `why` attributes the copies to the right stats and trace class.
    fn collect_block(
        &mut self,
        victim: u32,
        why: CollectKind,
        hook: &mut dyn GcHook,
    ) -> Result<()> {
        let geo = self.chip.config().geometry;
        let copy_class = match why {
            CollectKind::Gc => OpClass::GcCopy,
            CollectKind::Scrub => OpClass::ScrubCopy,
            CollectKind::WearLevel => OpClass::WearLevelCopy,
        };
        let mut meta_stale = false;
        // Set when a *committed* page that carries transactional cycle
        // metadata (TxFlash's aux link) is re-stamped: the remaining cycle
        // members lose their recovery evidence, so the L2P fold must be
        // persisted before the victim is erased.
        let mut need_ckpt = false;
        let mut copied = 0u64;
        for page in 0..geo.pages_per_block as u32 {
            let old = Ppa::new(victim, page);
            if !self.valid.is_valid(old) {
                continue;
            }
            let t_copy = self.chip.clock().now();
            let mut buf = std::mem::take(&mut self.scratch);
            // Copy-backs ride the device queue: the read and the program
            // of one page are chained (`not_before`), but copies of
            // different pages overlap when source and destination sit on
            // different channels, so GC steals less host time. ECC
            // failures on the source get bounded re-reads; the scratch
            // buffer must be restored on every error path.
            let (oob, read_done) = {
                let mut r = self.chip.read_queued(old, &mut buf, 0);
                let mut tries = 0;
                while tries < READ_RETRY_LIMIT && matches!(r, Err(FlashError::Uncorrectable(_))) {
                    tries += 1;
                    self.stats.read_retries += 1;
                    r = self.chip.read_queued(old, &mut buf, 0);
                }
                match r {
                    Ok(v) => v,
                    Err(e) => {
                        self.scratch = buf;
                        return Err(e.into());
                    }
                }
            };
            // The committed-mapping test below may demand-fetch the
            // covering slab (a charged translation read — part of GC's
            // true cost in a demand-paged FTL).
            let mapped_here = if oob.kind == PageKind::Data {
                match self.l2p_get(oob.lpn) {
                    Ok(entry) => entry == Some(old),
                    Err(e) => {
                        self.scratch = buf;
                        return Err(e);
                    }
                }
            } else {
                false
            };
            // GC data copies are cold by definition — they survived a
            // whole block's lifetime without being overwritten.
            let cold_copy = self.hot_cold && oob.kind == PageKind::Data;
            // A GC copy of the *committed* version of a data page is
            // re-stamped tid = 0 so the recovery roll-forward treats it as
            // committed state even if its writer's X-L2P entry is long gone.
            let mut new_oob = oob;
            if oob.kind == PageKind::Data {
                if mapped_here {
                    if oob.tid != 0 && oob.aux != 0 {
                        need_ckpt = true;
                    }
                    new_oob.tid = 0;
                    new_oob.aux = 0;
                } else if oob.tid == 0 {
                    // A valid tid-0 page the L2P does not point at is a
                    // snapshot-retained pre-image. Its copy gets a fresh
                    // (newer) program sequence, so left stamped tid 0 the
                    // recovery roll-forward would resurrect the superseded
                    // version over the page's current state. Mark it as a
                    // retained copy, which recovery never folds.
                    new_oob.tid = RETAINED_COPY_TID;
                }
            }
            // Copy programs get the same bounded re-execution as host
            // writes: a failed copy-back must not lose the live page.
            let programmed = self.program_at_frontier(new_oob, cold_copy, &buf, read_done, false);
            self.scratch = buf;
            let (dst, prog_done) = programmed?;
            if cold_copy {
                self.stats.cold_writes += 1;
            }
            self.chip
                .recorder()
                .record_span(copy_class, 0, oob.lpn, t_copy, prog_done);
            match why {
                CollectKind::Gc => self.stats.gc_copies += 1,
                CollectKind::Scrub => self.stats.scrub_copies += 1,
                CollectKind::WearLevel => self.stats.wear_level_copies += 1,
            }
            copied += 1;
            self.valid.mark_invalid(old);
            match oob.kind {
                PageKind::Data => {
                    if mapped_here {
                        // The slab is resident (the test above fetched
                        // it) — update the cached entry in place.
                        let slab = self.cmt.slab_of_lpn(oob.lpn);
                        self.ensure_resident(slab)?;
                        self.cmt.set(oob.lpn, Some(dst));
                    }
                }
                PageKind::Map if oob.aux == meta::GTD_AUX => {
                    // A relocated GTD page: the root lists these directly.
                    let idx = oob.lpn as usize;
                    if self.gtd_locs.get(idx).copied().flatten() == Some(old) {
                        self.gtd_locs[idx] = Some(dst);
                        meta_stale = true;
                    }
                }
                PageKind::Map => {
                    let idx = oob.lpn as usize;
                    if self.map_locs.get(idx).copied().flatten() == Some(old) {
                        self.map_locs[idx] = Some(dst);
                        self.mark_gtd_dirty(idx);
                        meta_stale = true;
                    }
                }
                PageKind::XL2p => {
                    if let Some(slot) = self.xl2p_roots.iter_mut().find(|p| **p == old) {
                        *slot = dst;
                        meta_stale = true;
                    }
                }
                PageKind::Commit => {}
                PageKind::Meta => unreachable!("meta blocks are never GC victims"),
            }
            hook.relocated(&oob, old, dst);
        }
        if need_ckpt {
            // Persist the folded mapping before the originals vanish: a
            // crash after the erase must not depend on the (now broken)
            // cycle for recovery.
            self.checkpoint(hook)?;
            meta_stale = false; // checkpoint wrote a fresh meta root
        }
        // The erase is queued too; the chip's per-unit busy tracking
        // already orders it after the in-flight reads from this block.
        match self.chip.erase_queued(victim, 0) {
            Ok(_) => {
                self.free_blocks.push_back(victim);
                self.in_free[victim as usize] = true;
            }
            Err(FlashError::EraseFailed(_)) => {
                // Every live page was already copied out above, so losing
                // the block costs capacity, not data. Retire it; the
                // refreshed meta root below persists the table.
                self.retire_block(victim);
                meta_stale = true;
            }
            Err(e) => return Err(e.into()),
        }
        match why {
            CollectKind::Gc => {
                self.stats.gc_runs += 1;
                // The validity ratio (the paper's aging knob) concerns
                // *data* blocks; recycling nearly-dead mapping blocks is
                // bookkept apart.
                if self.block_class[victim as usize] == 1 {
                    self.stats.gc_victim_pages += geo.pages_per_block as u64;
                    self.stats.gc_valid_pages += copied;
                    if self.gc_policy == GcPolicy::CostBenefit {
                        self.stats.gc_cb_data_victims += 1;
                    }
                } else {
                    self.stats.gc_map_runs += 1;
                    if self.gc_policy == GcPolicy::CostBenefit {
                        self.stats.gc_cb_map_victims += 1;
                    }
                }
            }
            CollectKind::Scrub => self.stats.scrub_runs += 1,
            CollectKind::WearLevel => self.stats.wear_level_runs += 1,
        }
        self.block_class[victim as usize] = 0;
        if meta_stale {
            // The checkpoint root must chase relocated map/X-L2P pages
            // immediately, or a crash would leave it pointing into an
            // erased block.
            self.write_meta()?;
        }
        Ok(())
    }

    // --- page I/O ---------------------------------------------------------

    /// Reads the committed version of `lpn`. Unmapped pages read as zeros
    /// (the device never returns stale neighbours' data).
    pub fn read_committed(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.check_lpn(lpn)?;
        let t_start = self.chip.clock().now();
        match self.l2p_get(lpn)? {
            Some(ppa) => {
                self.read_retry(ppa, buf)?;
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
    /// with bounded ECC-failure retries.
    pub fn read_at(&mut self, ppa: Ppa, buf: &mut [u8]) -> Result<Oob> {
        self.read_retry(ppa, buf)
    }

    /// The one place a page is programmed into a log frontier: allocate
    /// a slot, program it there, and on a program-status failure abandon
    /// that frontier and re-execute on a fresh block (bounded; the torn
    /// page was never marked valid and GC reclaims it with the block).
    /// `wait` blocks the clock until the cells are programmed; otherwise
    /// the program is queued behind `not_before` and its completion
    /// instant handed back. Runs no GC, checks no device state and counts
    /// nothing per kind — the callers differ in exactly that.
    fn program_at_frontier(
        &mut self,
        oob: Oob,
        cold: bool,
        buf: &[u8],
        not_before: Nanos,
        wait: bool,
    ) -> Result<(Ppa, Nanos)> {
        let mut attempts = 0;
        loop {
            let dst = self.alloc_slot(oob.kind, cold)?;
            let programmed = if wait {
                self.chip
                    .program(dst, buf, oob)
                    .map(|_| self.chip.clock().now())
            } else {
                self.chip
                    .program_queued(dst, buf, oob, not_before)
                    .map(|(_, done)| done)
            };
            match programmed {
                Ok(done) => {
                    self.valid.mark_valid(dst);
                    self.note_block_program(dst.block);
                    return Ok((dst, done));
                }
                Err(FlashError::ProgramFailed(_)) if attempts < PROGRAM_RETRY_LIMIT => {
                    attempts += 1;
                    self.stats.program_retries += 1;
                    self.abandon_frontier(dst.block);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Host-path program of a page of any kind: refuses on a read-only
    /// device, runs GC first if space is low, places data hot or cold,
    /// and counts the program by kind. Does not touch the L2P table —
    /// callers decide the mapping semantics.
    fn program_page(
        &mut self,
        oob: Oob,
        buf: &[u8],
        not_before: Nanos,
        wait: bool,
        hook: &mut dyn GcHook,
    ) -> Result<(Ppa, Nanos)> {
        self.check_writable()?;
        self.maybe_gc(hook)?;
        let cold = self.classify_write(oob.kind, oob.lpn);
        match self.program_at_frontier(oob, cold, buf, not_before, wait) {
            Ok(placed) => {
                self.note_program(oob.kind);
                Ok(placed)
            }
            Err(DevError::OutOfSpace) => Err(self.space_error()),
            Err(e) => Err(e),
        }
    }

    /// Programs a page of any kind into the log frontier, blocking until
    /// it is on the media, with an explicit auxiliary OOB word (used by
    /// the TxFlash baseline's cyclic-commit links).
    pub fn program_raw_aux(
        &mut self,
        kind: PageKind,
        lpn: Lpn,
        tid: Tid,
        aux: u32,
        buf: &[u8],
        hook: &mut dyn GcHook,
    ) -> Result<Ppa> {
        let oob = Oob {
            lpn,
            seq: 0,
            tid,
            kind,
            aux,
        };
        Ok(self.program_page(oob, buf, 0, true, hook)?.0)
    }

    /// Hot/cold placement decision for one host data write: records the
    /// write in the heat sketch and routes low-heat LPNs cold. Non-data
    /// kinds and disabled separation always go hot (the default frontier).
    fn classify_write(&mut self, kind: PageKind, lpn: Lpn) -> bool {
        if !self.hot_cold || kind != PageKind::Data {
            return false;
        }
        self.heat.touch(lpn);
        let hot = self.heat.is_hot(lpn, HOT_THRESHOLD);
        if hot {
            self.stats.hot_writes += 1;
        } else {
            self.stats.cold_writes += 1;
        }
        !hot
    }

    /// Queued variant of [`FtlBase::program_raw_aux`]: dispatches the
    /// program into the device queue and returns the destination plus its
    /// media completion time without blocking the clock, so callers can
    /// overlap a batch of pages across channels. `not_before` chains the
    /// program after a data dependency (e.g. the read that produced `buf`).
    #[allow(clippy::too_many_arguments)] // mirrors `program_raw_aux` plus the queue knobs
    pub fn program_raw_queued(
        &mut self,
        kind: PageKind,
        lpn: Lpn,
        tid: Tid,
        aux: u32,
        buf: &[u8],
        not_before: Nanos,
        hook: &mut dyn GcHook,
    ) -> Result<(Ppa, Nanos)> {
        let oob = Oob {
            lpn,
            seq: 0,
            tid,
            kind,
            aux,
        };
        self.program_page(oob, buf, not_before, false, hook)
    }

    fn note_program(&mut self, kind: PageKind) {
        match kind {
            PageKind::Data => self.stats.data_writes += 1,
            PageKind::Map => self.stats.map_writes += 1,
            PageKind::XL2p => self.stats.xl2p_writes += 1,
            PageKind::Commit => self.stats.commit_record_writes += 1,
            PageKind::Meta => unreachable!("meta pages go through write_meta"),
        }
    }

    /// One host data page, copy-on-write: programmed into the data
    /// frontier tagged `tid`, the committed mapping left alone. Returns
    /// the new location and the instant the page is on the media.
    fn write_data(
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
        let (dst, done) = self.program_page(oob, buf, 0, wait, hook)?;
        self.chip
            .recorder()
            .record_span(OpClass::FtlHostWrite, tid, lpn, t_start, done);
        Ok((dst, done))
    }

    /// Copy-on-write data write that leaves the committed mapping intact
    /// (the X-FTL `write(tid, p)` path).
    pub fn write_cow(
        &mut self,
        lpn: Lpn,
        tid: Tid,
        buf: &[u8],
        hook: &mut dyn GcHook,
    ) -> Result<Ppa> {
        Ok(self.write_data(lpn, tid, buf, true, hook)?.0)
    }

    /// Queued copy-on-write data write (the device's batched `write_tx`
    /// path): returns the new location and its completion time.
    pub fn write_cow_queued(
        &mut self,
        lpn: Lpn,
        tid: Tid,
        buf: &[u8],
        hook: &mut dyn GcHook,
    ) -> Result<(Ppa, Nanos)> {
        self.write_data(lpn, tid, buf, false, hook)
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
        let (dst, done) = self.write_data(lpn, 0, buf, wait, hook)?;
        self.fold_mapping(lpn, dst)?;
        Ok(done)
    }

    /// Blocking ordinary page write.
    pub fn write_committed(&mut self, lpn: Lpn, buf: &[u8], hook: &mut dyn GcHook) -> Result<()> {
        self.write_folded(lpn, buf, true, hook).map(drop)
    }

    /// Full queue barrier: advances the clock past every queued flash
    /// operation and returns the instant the array went idle.
    pub fn drain(&mut self) -> Nanos {
        self.chip.drain()
    }

    /// Partial queue barrier: advances the clock to `completion` (a time
    /// returned by one of the `_queued` methods).
    pub fn wait_for(&mut self, completion: Nanos) {
        self.chip.wait_for(completion);
    }

    /// Points the committed mapping of `lpn` at `ppa`, invalidating the
    /// previous version. Used by plain writes and by X-FTL commit folds.
    /// Fallible: the covering slab may need a demand fetch (and an
    /// eviction flush) first.
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

    /// Points the committed mapping of `lpn` at `ppa` but keeps the
    /// displaced version *valid* and returns it: the caller retains it in
    /// a version chain for active snapshot readers and invalidates it
    /// later via [`FtlBase::invalidate`] once no snapshot can reach it.
    /// Recovery rebuilds validity from L2P membership, so retained
    /// versions that die in a power loss become garbage automatically.
    pub fn fold_mapping_retain(&mut self, lpn: Lpn, ppa: Ppa) -> Result<Option<Ppa>> {
        let slab = self.cmt.slab_of_lpn(lpn);
        self.ensure_resident(slab)?;
        let old = self.cmt.get(lpn).unwrap_or(None);
        if old == Some(ppa) {
            return Ok(None);
        }
        self.cmt.set(lpn, Some(ppa));
        self.valid.mark_valid(ppa);
        Ok(old)
    }

    /// Drops the committed mapping of `lpn` and reclaims its flash copy.
    pub fn trim_lpn(&mut self, lpn: Lpn) -> Result<()> {
        if let Some(old) = self.trim_lpn_retain(lpn)? {
            self.valid.mark_invalid(old);
        }
        Ok(())
    }

    /// Drops the committed mapping of `lpn` but keeps the displaced copy
    /// valid and returns it — the snapshot-era counterpart of
    /// [`FtlBase::trim_lpn`], for callers retaining the pre-image in a
    /// version chain.
    pub fn trim_lpn_retain(&mut self, lpn: Lpn) -> Result<Option<Ppa>> {
        self.check_lpn(lpn)?;
        let slab = self.cmt.slab_of_lpn(lpn);
        self.ensure_resident(slab)?;
        let old = self.cmt.get(lpn).unwrap_or(None);
        if old.is_some() {
            self.cmt.set(lpn, None);
        }
        Ok(old)
    }

    // --- demand-paged mapping engine ---------------------------------------

    /// Marks the GTD page covering `slab` stale (no-op in inline mode).
    fn mark_gtd_dirty(&mut self, slab: usize) {
        if self.gtd_paged {
            let g = meta::gtd_page_of(slab, self.page_size());
            if let Some(d) = self.gtd_dirty.get_mut(g) {
                *d = true;
            }
        }
    }

    /// Makes `slab` resident: counts the hit or miss, evicts down to the
    /// budget (leaving room for the incoming frame), then installs the
    /// slab — decoded from its translation page if one was ever written,
    /// an all-unmapped frame otherwise.
    fn ensure_resident(&mut self, slab: usize) -> Result<()> {
        if self.cmt.is_resident(slab) {
            self.stats.map_cache_hits += 1;
            return Ok(());
        }
        self.stats.map_cache_misses += 1;
        // While GC runs, demand fetches may overshoot the budget: a dirty
        // eviction programs translation pages, and spending free blocks on
        // those inside the critical low-pool section can out-consume what
        // the victim reclaims. `maybe_gc` evicts back down afterwards,
        // once the pool is replenished.
        if !self.in_gc {
            for _ in 0..self.cmt.over_budget_by() {
                if !self.evict_one()? {
                    break;
                }
            }
        }
        let geo = self.chip.config().geometry;
        match self.map_locs.get(slab).copied().flatten() {
            Some(loc) => {
                let mut buf = vec![0u8; geo.page_size];
                self.read_retry(loc, &mut buf)?;
                let entries = meta::decode_slab_entries(&buf, geo.pages_per_block);
                self.cmt.install(slab, entries, false);
                self.stats.map_demand_loads += 1;
            }
            None => {
                let eps = self.cmt.entries_per_slab();
                self.cmt
                    .install(slab, vec![None; eps].into_boxed_slice(), false);
            }
        }
        Ok(())
    }

    /// Evicts one CLOCK victim. A dirty victim first triggers a batched
    /// flush (which also cleans other dirty slabs riding along), so the
    /// dropped frame never holds the only copy of a mapping. Returns
    /// `false` when nothing is resident.
    fn evict_one(&mut self) -> Result<bool> {
        let Some(victim) = self.cmt.pick_victim() else {
            return Ok(false);
        };
        let was_dirty = self.cmt.is_dirty(victim);
        if was_dirty {
            self.flush_dirty_batch(victim)?;
            self.stats.map_evictions_dirty += 1;
        } else {
            self.stats.map_evictions_clean += 1;
        }
        let (_, dirty) = self.cmt.evict(victim);
        debug_assert!(!dirty, "evicted slab {victim} still dirty after flush");
        Ok(true)
    }

    /// Writes `victim` plus up to [`MAP_FLUSH_BATCH`] − 1 more dirty
    /// resident slabs to fresh translation pages, then persists the
    /// refreshed directory with a *single* checkpoint-root program. The
    /// root deliberately keeps the current `ckpt_seq`: replaying
    /// post-checkpoint events over newer slab content is idempotent
    /// (folds are last-writer-wins in sequence order), so an eviction
    /// flush is crash-safe without a full checkpoint. The bounded batch
    /// keeps pool consumption per host write small and the next host
    /// write's `maybe_gc` restores the low-water mark.
    fn flush_dirty_batch(&mut self, victim: usize) -> Result<()> {
        self.write_slab(victim)?;
        let others = self.cmt.dirty_slabs();
        for slab in others.into_iter().take(MAP_FLUSH_BATCH - 1) {
            self.write_slab(slab)?;
        }
        self.stats.map_flush_batches += 1;
        self.write_meta()
    }

    /// The one writer of translation slabs: encodes resident slab `slab`,
    /// programs it to a fresh translation page, re-points the directory
    /// at it and marks the frame clean. Nothing between the encode and
    /// the mark may change a mapping, or the flash copy would be stale
    /// while the frame claims to match it — so the program bypasses GC
    /// (it may also run *inside* GC); callers keep the pool fed between
    /// slabs. Queued; `write_meta`'s drain is the durability barrier.
    fn write_slab(&mut self, slab: usize) -> Result<()> {
        let geo = self.chip.config().geometry;
        let Some(entries) = self.cmt.entries(slab) else {
            return Ok(());
        };
        let buf = meta::encode_slab_entries(entries, geo.page_size, geo.pages_per_block);
        let dst = self.program_map_page_nogc(slab as u64, 0, &buf)?;
        self.stats.map_writes += 1;
        if let Some(old) = self.map_locs[slab].replace(dst) {
            self.valid.mark_invalid(old);
        }
        self.mark_gtd_dirty(slab);
        self.cmt.mark_clean(slab);
        Ok(())
    }

    /// Programs one `Map`-class page into the mapping frontier WITHOUT
    /// running GC first — the eviction-flush and GTD write path, which
    /// must work from inside GC itself. Queued; `write_meta`'s drain is
    /// the durability barrier.
    fn program_map_page_nogc(&mut self, lpn: Lpn, aux: u32, buf: &[u8]) -> Result<Ppa> {
        let oob = Oob {
            lpn,
            seq: 0,
            tid: 0,
            kind: PageKind::Map,
            aux,
        };
        Ok(self.program_at_frontier(oob, false, buf, 0, false)?.0)
    }

    // --- persistence -------------------------------------------------------

    /// Appends a fresh checkpoint-root page to the meta ring. In paged
    /// mode, stale GTD pages are re-programmed first (root → GTD →
    /// translation pages must all be consistent on flash).
    fn write_meta(&mut self) -> Result<()> {
        // Durability barrier: the root must not land before the pages it
        // points at have finished on their channels.
        self.chip.drain();
        let geo = self.chip.config().geometry;
        if self.gtd_paged {
            for g in 0..self.gtd_dirty.len() {
                if !self.gtd_dirty[g] && self.gtd_locs[g].is_some() {
                    continue;
                }
                let buf =
                    meta::encode_gtd_page(&self.map_locs, g, geo.page_size, geo.pages_per_block);
                let dst = self.program_map_page_nogc(g as u64, meta::GTD_AUX, &buf)?;
                self.stats.gtd_writes += 1;
                if let Some(old) = self.gtd_locs[g].replace(dst) {
                    self.valid.mark_invalid(old);
                }
                self.gtd_dirty[g] = false;
            }
            // Second barrier: the GTD pages themselves must land before
            // the root that points at them.
            self.chip.drain();
        }
        let gtd_roots: Vec<Ppa> = self.gtd_locs.iter().copied().flatten().collect();
        debug_assert_eq!(gtd_roots.len(), self.gtd_locs.len());
        // The bad-block list shares the meta page's pointer area with the
        // slab/GTD and X-L2P pointers. The chip's own health marks are
        // authoritative (recovery unions both), so if a dying drive ever
        // accumulates more retirements than fit, truncating the persisted
        // list is safe — unlike panicking in `MetaPage::encode`.
        let inline_ptrs = if self.gtd_paged {
            gtd_roots.len()
        } else {
            self.map_locs.len()
        };
        let bad_cap = MetaPage::max_pointers(geo.page_size)
            .saturating_sub(inline_ptrs + self.xl2p_roots.len());
        let page = MetaPage {
            logical_pages: self.logical_pages,
            ckpt_seq: self.ckpt_seq,
            tx_horizon: self.tx_horizon,
            xl2p_roots: self.xl2p_roots.clone(),
            map_locs: self.map_locs.clone(),
            gtd_locs: gtd_roots,
            bad_blocks: self.bad_block_list().into_iter().take(bad_cap).collect(),
            device_state: self.device_state,
        };
        let buf = page.encode(geo.page_size, geo.pages_per_block);
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
                lpn: 0,
                seq: 0,
                tid: 0,
                kind: PageKind::Meta,
                aux: 0,
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
            let dirty = self.cmt.dirty_slabs();
            if dirty.is_empty() {
                break;
            }
            self.check_writable()?;
            for slab in dirty {
                self.maybe_gc(hook)?;
                if self.cmt.is_dirty(slab) {
                    self.write_slab(slab)?;
                }
            }
        }
        // The new root covers everything programmed so far.
        self.ckpt_seq = self.chip.next_seq() - 1;
        self.write_meta()?;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Persists the X-L2P table (the X-FTL commit path, Figure 4): the
    /// table pages are written copy-on-write to fresh locations and the
    /// checkpoint root is updated to point at them. The L2P slabs are *not*
    /// rewritten — recovery re-folds committed entries from the persisted
    /// table.
    pub fn persist_xl2p(&mut self, table_pages: &[Vec<u8>], hook: &mut dyn GcHook) -> Result<()> {
        let mut new_roots = Vec::with_capacity(table_pages.len());
        for (i, page) in table_pages.iter().enumerate() {
            let (dst, _) =
                self.program_raw_queued(PageKind::XL2p, i as u64, 0, 0, page, 0, hook)?;
            new_roots.push(dst);
        }
        for old in std::mem::replace(&mut self.xl2p_roots, new_roots) {
            self.valid.mark_invalid(old);
        }
        self.write_meta()
    }

    /// Drops the persisted X-L2P table references (after their entries have
    /// been folded and checkpointed).
    pub fn clear_xl2p_roots(&mut self) {
        for old in std::mem::take(&mut self.xl2p_roots) {
            self.valid.mark_invalid(old);
        }
    }

    // --- recovery -----------------------------------------------------------

    /// Rebuilds device state from the flash contents after a power loss.
    ///
    /// Loads the newest checkpoint, replays nothing yet: the returned
    /// [`RecoveryLog`] carries every post-checkpoint page in sequence
    /// order plus the persisted X-L2P table bytes. The wrapping device
    /// personality decides which events to apply (plain FTL: `tid == 0`
    /// data pages via [`FtlBase::apply_event`]; X-FTL: those merged with
    /// the committed X-L2P entries).
    pub fn recover(mut chip: FlashChip) -> Result<(FtlBase, RecoveryLog)> {
        chip.power_cycle();
        let t_recover = chip.clock().now();
        let geo = chip.config().geometry;

        // 1. Newest valid checkpoint root across both meta blocks.
        let mut newest: Option<(u64, usize, MetaPage)> = None;
        let mut buf = vec![0u8; geo.page_size];
        for (idx, mb) in META_BLOCKS.iter().enumerate() {
            for page in 0..geo.pages_per_block as u32 {
                let ppa = Ppa::new(*mb, page);
                match chip.probe(ppa)? {
                    PageProbe::Erased => break,
                    PageProbe::Torn => {}
                    PageProbe::Programmed(oob) => {
                        if oob.kind != PageKind::Meta {
                            continue;
                        }
                        if read_with_retries(&mut chip, ppa, &mut buf).0.is_err() {
                            continue;
                        }
                        if let Some(m) = MetaPage::decode(&buf, geo.pages_per_block) {
                            if newest.as_ref().is_none_or(|(s, _, _)| oob.seq > *s) {
                                newest = Some((oob.seq, idx, m));
                            }
                        }
                    }
                }
            }
        }
        let (_, meta_cur, meta_page) = newest.ok_or(DevError::NotFormatted)?;
        let logical_pages = meta_page.logical_pages;

        // Bad-block table: the union of what the last persisted root knew
        // and what the chip's own health marks report (a block retired
        // after the last meta write is only in the latter).
        let mut bad_blocks = vec![false; geo.blocks];
        for b in chip.retired_blocks() {
            bad_blocks[b as usize] = true;
        }
        for b in &meta_page.bad_blocks {
            if (*b as usize) < geo.blocks {
                bad_blocks[*b as usize] = true;
            }
        }

        // 2. Load the checkpointed mapping directory. Paged-GTD mode
        //    (recomputed from geometry, exactly as format decides it)
        //    first reads the GTD pages to fill the slab-pointer
        //    placeholders the root decoded.
        let slab_count = meta_page.map_locs.len();
        let eps = meta::entries_per_slab(geo.page_size);
        let gtd_paged = slab_count + 8 > MetaPage::max_pointers(geo.page_size);
        let gtd_pages = if gtd_paged {
            meta::gtd_page_count(slab_count, geo.page_size)
        } else {
            0
        };
        let mut map_locs = meta_page.map_locs.clone();
        let mut valid = ValidityMap::new(geo.blocks, geo.pages_per_block);
        let mut gtd_locs: Vec<Option<Ppa>> = vec![None; gtd_pages];
        for (g, loc) in meta_page.gtd_locs.iter().enumerate().take(gtd_pages) {
            read_with_retries(&mut chip, *loc, &mut buf).0?;
            meta::decode_gtd_page(&mut map_locs, g, &buf, geo.pages_per_block);
            valid.mark_valid(*loc);
            gtd_locs[g] = Some(*loc);
        }
        // A GTD page the root failed to list (should be impossible) is
        // re-created at the next meta write.
        let gtd_dirty: Vec<bool> = gtd_locs.iter().map(Option::is_none).collect();

        //    Stream every persisted translation page once (with ECC
        //    retries; these pages are the mapping's only persisted copy)
        //    into an unbounded cache — the wrapper re-applies its RAM
        //    budget after recovery via `set_map_cache_budget`.
        let mut cmt = MappingCache::new(slab_count, eps, None);
        for (slab, loc) in map_locs.iter().enumerate() {
            match loc {
                Some(ppa) => {
                    read_with_retries(&mut chip, *ppa, &mut buf).0?;
                    let entries = meta::decode_slab_entries(&buf, geo.pages_per_block);
                    for e in entries.iter().flatten() {
                        valid.mark_valid(*e);
                    }
                    cmt.install(slab, entries, false);
                    valid.mark_valid(*ppa);
                }
                None => cmt.install(slab, vec![None; eps].into_boxed_slice(), false),
            }
        }

        // 3. Scan the log for post-checkpoint pages and rebuild occupancy.
        for root in &meta_page.xl2p_roots {
            valid.mark_valid(*root);
        }
        let mut events = Vec::new();
        let mut free_blocks = VecDeque::new();
        let mut in_free = vec![false; geo.blocks];
        let mut block_class = vec![0u8; geo.blocks];
        for b in FIRST_POOL_BLOCK..geo.blocks as u32 {
            let mut programmed_any = false;
            for page in 0..geo.pages_per_block as u32 {
                let ppa = Ppa::new(b, page);
                match chip.probe(ppa)? {
                    PageProbe::Erased => break,
                    PageProbe::Torn => {
                        programmed_any = true;
                    }
                    PageProbe::Programmed(oob) => {
                        programmed_any = true;
                        if block_class[b as usize] == 0 {
                            block_class[b as usize] =
                                if oob.kind == PageKind::Data { 1 } else { 2 };
                        }
                        // Post-checkpoint pages are roll-forward events.
                        // Transaction-tagged data pages are kept at ANY
                        // sequence: a transaction may straddle a checkpoint
                        // (pages before it, commit evidence after it), and
                        // only the wrapping personality can tell.
                        let relevant = match oob.kind {
                            PageKind::Data => oob.seq > meta_page.ckpt_seq || oob.tid != 0,
                            PageKind::Commit => oob.seq > meta_page.ckpt_seq,
                            _ => false,
                        };
                        if relevant {
                            events.push(ScanEvent {
                                seq: oob.seq,
                                lpn: oob.lpn,
                                tid: oob.tid,
                                ppa,
                                kind: oob.kind,
                                aux: oob.aux,
                            });
                        }
                    }
                }
            }
            if !programmed_any && !bad_blocks[b as usize] {
                free_blocks.push_back(b);
                in_free[b as usize] = true;
            }
        }
        events.sort_by_key(|e| e.seq);

        // 4. Pull the persisted X-L2P table pages, if any.
        let xl2p = if meta_page.xl2p_roots.is_empty() {
            None
        } else {
            let mut bytes = Vec::with_capacity(meta_page.xl2p_roots.len() * geo.page_size);
            let mut seq = 0;
            for root in &meta_page.xl2p_roots {
                let oob = read_with_retries(&mut chip, *root, &mut buf).0?;
                seq = seq.max(oob.seq);
                bytes.extend_from_slice(&buf);
            }
            Some((seq, bytes))
        };

        let ckpt_seq = meta_page.ckpt_seq;
        let prev_horizon = meta_page.tx_horizon;
        let persisted_state = meta_page.device_state;
        let chip_next_seq = chip.next_seq();
        let mut base = FtlBase {
            logical_pages,
            cmt,
            map_locs,
            gtd_locs,
            gtd_dirty,
            gtd_paged,
            xl2p_roots: meta_page.xl2p_roots,
            valid,
            block_class: block_class.clone(),
            gc_policy: GcPolicy::Greedy,
            // Block ages reset at recovery: the OOB scan could rebuild
            // them, but a uniform age only softens cost-benefit scoring
            // for the first post-boot GC cycle.
            block_last_seq: vec![0; geo.blocks],
            // Recovered data blocks re-enter the FIFO queue in index order
            // (allocation age is unknown after a crash).
            alloc_order: (FIRST_POOL_BLOCK..geo.blocks as u32)
                .filter(|&b| block_class[b as usize] == 1)
                .collect(),
            frontiers_data: vec![None; geo.channels.max(1) as usize],
            data_cursor: 0,
            frontiers_cold: vec![None; geo.channels.max(1) as usize],
            cold_cursor: 0,
            hot_cold: false,
            heat: HeatSketch::new(HEAT_SLOTS, HEAT_HALF_LIFE),
            frontier_map: None,
            free_blocks,
            in_free,
            bad_blocks,
            meta_cur,
            ckpt_seq: meta_page.ckpt_seq,
            // This boot's recovery establishes a new horizon: no live
            // transaction's evidence predates the scan we just did. The
            // personality's post-recovery checkpoint persists it.
            tx_horizon: chip_next_seq,
            stats: FtlStats::default(),
            counters: DevCounters::default(),
            scratch: vec![0u8; geo.page_size],
            in_gc: false,
            scrub: None,
            scrub_tick: 0,
            last_scrub: None,
            // The persisted state is a floor: transitions are forward-only
            // across any number of power cycles.
            device_state: persisted_state,
            chip,
        };
        // A root written before the last retirement wave can under-report
        // the device's health; re-derive degradation from the pool the
        // scan actually found.
        if base.usable_pool_blocks() < base.required_pool_blocks() {
            base.device_state = base.device_state.max(DeviceState::Degraded);
        }
        let t_end = base.chip.clock().now();
        base.chip
            .recorder()
            .record_span(OpClass::RecoveryReplay, 0, 0, t_recover, t_end);
        Ok((
            base,
            RecoveryLog {
                events,
                xl2p,
                ckpt_seq,
                tx_horizon: prev_horizon,
            },
        ))
    }

    /// Replays one recovered data event: re-points the mapping of `lpn` at
    /// `ppa`. Events must be applied in ascending sequence order; replays
    /// are idempotent (last writer wins), which is what makes eviction
    /// flushes crash-safe without refreshing `ckpt_seq`.
    pub fn apply_event(&mut self, lpn: Lpn, ppa: Ppa) -> Result<()> {
        if lpn < self.logical_pages {
            self.fold_mapping(lpn, ppa)?;
        }
        Ok(())
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
        for e in &log.events {
            if e.kind == PageKind::Data && e.tid == 0 {
                g.apply_event(e.lpn, e.ppa).unwrap();
            }
        }
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
        f.write_cow(3, 42, &t, &mut NoHook).unwrap();
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        for e in &log.events {
            if e.kind == PageKind::Data && e.tid == 0 {
                g.apply_event(e.lpn, e.ppa).unwrap();
            }
        }
        let mut out = page(&g, 0);
        g.read_committed(3, &mut out).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn recover_survives_torn_meta_write() {
        let mut f = base(16, 32);
        let a = page(&f, 1);
        f.write_committed(3, &a, &mut NoHook).unwrap();
        f.checkpoint(&mut NoHook).unwrap();
        // Tear the next meta write mid-program.
        f.chip_mut().arm_power_fuse(1);
        let r = f.checkpoint(&mut NoHook);
        assert!(r.is_err());
        let chip = f.into_chip();
        let (mut g, _) = FtlBase::recover(chip).unwrap();
        let mut out = page(&g, 0);
        g.read_committed(3, &mut out).unwrap();
        assert_eq!(out, a);
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
        for e in &log.events {
            if e.kind == PageKind::Data && e.tid == 0 {
                g.apply_event(e.lpn, e.ppa).unwrap();
            }
        }
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
    fn persist_xl2p_updates_roots_and_meta() {
        let mut f = base(16, 32);
        let table = vec![vec![0xABu8; f.page_size()], vec![0xCDu8; f.page_size()]];
        f.persist_xl2p(&table, &mut NoHook).unwrap();
        let roots = f.xl2p_roots().to_vec();
        assert_eq!(roots.len(), 2);
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        assert_eq!(g.xl2p_roots(), roots.as_slice());
        let (_, bytes) = log.xl2p.unwrap();
        assert_eq!(&bytes[..g.page_size()], table[0].as_slice());
        assert_eq!(&bytes[g.page_size()..], table[1].as_slice());
        g.clear_xl2p_roots();
        assert!(g.xl2p_roots().is_empty());
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
        let bad = f.bad_block_list()[0];
        assert!(!f.in_free[bad as usize], "retired block back in free pool");
        f.checkpoint(&mut NoHook).unwrap();
        let chip = f.into_chip();
        let (mut g, log) = FtlBase::recover(chip).unwrap();
        for e in &log.events {
            if e.kind == PageKind::Data && e.tid == 0 {
                g.apply_event(e.lpn, e.ppa).unwrap();
            }
        }
        assert!(g.is_bad_block(bad), "retirement lost across recovery");
        assert!(!g.in_free[bad as usize]);
        assert!(!g.free_blocks.contains(&bad));
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
        assert!(!f.in_free[5]);
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
        for e in &log.events {
            if e.kind == PageKind::Data && e.tid == 0 {
                g.apply_event(e.lpn, e.ppa).unwrap();
            }
        }
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
        for e in &log.events {
            if e.kind == PageKind::Data && e.tid == 0 {
                g.apply_event(e.lpn, e.ppa).unwrap();
            }
        }
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
        assert_eq!(f.space_error(), DevError::OutOfSpace);
        assert_eq!(f.device_state(), DeviceState::Healthy);
        f.retire_block(9);
        assert_eq!(f.space_error(), DevError::ReadOnly);
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
        assert!(
            s.map_flush_batches > 0,
            "eviction flushes batch under one root"
        );
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
    fn paged_gtd_engages_and_survives_recovery() {
        // 3_100 logical pages = 49 slabs at the tiny page size; 49 + 8
        // exceeds one meta page's pointer capacity, so the directory goes
        // to paged-GTD mode (the 64 GB-class presets land here too).
        let mut f = base(520, 3_100);
        let data = page(&f, 0x3D);
        // Dirty a spread of slabs, then checkpoint: paged mode must
        // program GTD pages (inline mode never touches that counter).
        for lpn in (0..3_100u64).step_by(50) {
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        f.checkpoint(&mut NoHook).unwrap();
        assert!(f.stats().gtd_writes > 0, "directory did not page out");
        let expected: Vec<_> = (0..3_100u64).step_by(50).map(|l| f.l2p_peek(l)).collect();
        let (g, _log) = FtlBase::recover(f.into_chip()).unwrap();
        let recovered: Vec<_> = (0..3_100u64).step_by(50).map(|l| g.l2p_peek(l)).collect();
        assert_eq!(expected, recovered, "paged GTD lost mappings");
        assert!(recovered.iter().all(Option::is_some));
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
