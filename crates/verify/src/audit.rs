//! The flash physics and metadata auditor.
//!
//! Where the shadow oracle checks the device's *functional* contract
//! through the host interface, the auditor opens the lid: it walks the
//! raw NAND array with [`FlashChip::probe_silent`] (no simulated time, no
//! statistics) and cross-checks the FTL's mapping structures against it.
//!
//! Checked invariants:
//!
//! * **Erase-before-program, in order** — within every block, the pages
//!   below the write point are programmed (or torn by a power loss) and
//!   the pages at or above it are erased; no gaps, no out-of-order
//!   programs.
//! * **OOB sequence sanity** — program sequence numbers are strictly
//!   increasing within a block, globally unique, and below the chip's
//!   next-sequence counter.
//! * **L2P sanity** — every mapped logical page points at a programmed
//!   data page whose OOB records the same logical page number, and the
//!   engine counts that page valid (GC erases what it does not).
//! * **X-L2P sanity** — every entry pins a live programmed data page with
//!   matching OOB metadata; for active (uncommitted) entries the old
//!   committed version is still programmed too (GC must never reclaim a
//!   pinned rollback copy); the newest folded committed entry of a page
//!   names the page the L2P maps, and older ones — superseded by a later
//!   commit of the page, never folded or read again — are exempt;
//!   `len() <= capacity()`; and `committed_len()` counts exactly the
//!   committed entries the table holds.
//! * **Page differentials** — every live differential stands on the page
//!   the L2P maps, a valid programmed page of its logical page, whose
//!   image the cache holds byte for byte (unless recovery restored the
//!   differential, before any write); the live table image carries it;
//!   every pending differential stands on the page the L2P maps or a
//!   staged commit's page; and
//!   every image the cache holds is a valid page's bytes.
//! * **Scan-found pages** — no root names a page of the pool: the
//!   recovery scan finds translation pages and the X-L2P table image
//!   through their own OOB, so what the scan may find must be exactly
//!   what the device means. For every slab, the directory's home is the
//!   intact `Map` page of that index with the highest program sequence on
//!   the media, it is valid, and every other `Map` page of that index is
//!   invalid. The valid `XL2p` pages are the pages of one complete
//!   generation (index `i` of `n` at slot `i` of the live list, one
//!   generation id) or there are none, and every page of an older
//!   generation is invalid. The live image is one the scan reads: newer
//!   than the root's checkpoint, or the one the root names as left live.
//! * **Skipped blocks** — the recovery scan takes a data block on trust
//!   when its last page is at or below both the root's checkpoint
//!   sequence and its transaction horizon. Such a block must hold nothing
//!   the scan would have used — no page newer than either bound, nothing
//!   but data pages.
//! * **Bad-block discipline** — a block the chip has retired (erase
//!   failure) holds no programmed or torn pages (the failed erase still
//!   wipes the cells, and nothing may program it afterwards), is present
//!   in the FTL's bad-block table, and sits on no allocation path (free
//!   pool or open write frontier).
//! * **Degradation discipline** — a device whose free pool is empty after
//!   real block retirements must have left the `Healthy` state.
//! * **Wear discipline** — with static wear leveling enabled, the
//!   erase-count spread across usable pool blocks stays within ~2x the
//!   configured `wear_delta_cap`.

use std::collections::HashMap;
use std::fmt;

use xftl_core::{Diff, Entry, TxStatus, XFtl, Xl2pTable};
use xftl_flash::{BlockHealth, FlashChip, PageKind, PageProbe, Ppa};
use xftl_ftl::meta::MetaPage;
use xftl_ftl::{AtomicWriteFtl, DeviceState, FtlBase, Lpn, PageMappedFtl, Personality, Tid};

use crate::shadow::ShadowDevice;

/// Counters from a successful audit, to prove coverage in tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// Programmed pages seen on the chip.
    pub programmed_pages: u64,
    /// Torn pages seen on the chip (power-loss victims, allowed).
    pub torn_pages: u64,
    /// Logical pages with a current L2P mapping.
    pub mapped_lpns: u64,
    /// X-L2P entries checked (0 for non-transactional FTLs).
    pub xl2p_entries: usize,
    /// X-L2P entries belonging to staged (submitted, unflushed) commits.
    pub staged_entries: usize,
    /// Live page differentials checked.
    pub live_diffs: usize,
    /// Blocks the chip has retired after erase failures.
    pub retired_blocks: u64,
}

/// A violated physics or metadata invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// An erased page sits below the block's write point.
    GapInBlock {
        /// Block with the gap.
        block: u32,
        /// Erased page index below the write point.
        page: u32,
    },
    /// A programmed or torn page sits at or above the write point.
    ProgramBeyondWritePoint {
        /// Offending block.
        block: u32,
        /// Page index at or above the write point.
        page: u32,
    },
    /// OOB sequence numbers not strictly increasing within a block.
    SeqOutOfOrder {
        /// Offending block.
        block: u32,
        /// Page whose sequence regressed.
        page: u32,
        /// Sequence of the previous programmed page in the block.
        prev_seq: u64,
        /// Sequence found on this page.
        seq: u64,
    },
    /// The same OOB sequence number appears on two live pages.
    SeqDuplicate {
        /// Duplicated sequence number.
        seq: u64,
        /// First page carrying it.
        first: Ppa,
        /// Second page carrying it.
        second: Ppa,
    },
    /// A page carries a sequence the chip has not issued yet.
    SeqFromFuture {
        /// Offending page.
        ppa: Ppa,
        /// Sequence found on the page.
        seq: u64,
        /// The chip's next unissued sequence.
        next_seq: u64,
    },
    /// The L2P maps a logical page to a non-programmed physical page.
    MappedPageMissing {
        /// Logical page.
        lpn: Lpn,
        /// Physical page the L2P points at.
        ppa: Ppa,
        /// Observed page state (`"erased"` or `"torn"`).
        state: &'static str,
    },
    /// The L2P maps a logical page to a page with wrong OOB metadata.
    MappedOobMismatch {
        /// Logical page.
        lpn: Lpn,
        /// Physical page the L2P points at.
        ppa: Ppa,
        /// Logical page recorded in the OOB.
        oob_lpn: Lpn,
        /// Page kind recorded in the OOB.
        kind: PageKind,
    },
    /// The L2P maps a logical page to a page the engine counts invalid:
    /// GC would erase the block without relocating it.
    MappedPageInvalid {
        /// Logical page.
        lpn: Lpn,
        /// Physical page the L2P points at.
        ppa: Ppa,
    },
    /// An X-L2P entry pins a physical page that is no longer programmed:
    /// GC reclaimed a pinned new version.
    Xl2pDanglingPpa {
        /// Owning transaction.
        tid: Tid,
        /// Logical page of the entry.
        lpn: Lpn,
        /// Pinned physical page.
        ppa: Ppa,
        /// Observed page state.
        state: &'static str,
    },
    /// An X-L2P entry's pinned page carries inconsistent OOB metadata.
    Xl2pOobMismatch {
        /// Owning transaction.
        tid: Tid,
        /// Logical page of the entry.
        lpn: Lpn,
        /// Pinned physical page.
        ppa: Ppa,
        /// Logical page recorded in the OOB.
        oob_lpn: Lpn,
        /// Transaction id recorded in the OOB.
        oob_tid: Tid,
        /// Page kind recorded in the OOB.
        kind: PageKind,
    },
    /// The old committed version pinned by an *active* entry is gone:
    /// GC reclaimed the rollback copy of an uncommitted page.
    Xl2pPinnedOldLost {
        /// Owning transaction.
        tid: Tid,
        /// Logical page of the entry.
        lpn: Lpn,
        /// Physical page of the lost old version.
        old: Ppa,
        /// Observed page state.
        state: &'static str,
    },
    /// The newest committed, folded X-L2P entry of a page names another
    /// page than the L2P maps: the next group flush would persist the
    /// stale address, and recovery would fold it over the newer copy.
    Xl2pStaleEntry {
        /// Owning transaction.
        tid: Tid,
        /// Logical page of the entry.
        lpn: Lpn,
        /// Page the entry names.
        ppa: Ppa,
        /// Page the L2P maps.
        current: Option<Ppa>,
    },
    /// The X-L2P table holds more entries than its capacity.
    Xl2pOverflow {
        /// Current entry count.
        len: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// The table's committed count disagrees with its entries.
    Xl2pCommittedCount {
        /// Committed entry count the table reports.
        committed: usize,
        /// Entries of the table with committed status.
        counted: usize,
    },
    /// Slot `index` of the live table image is not page `index` of one
    /// complete generation: the page is gone, or its OOB names another
    /// index, page count or generation than its siblings.
    Xl2pImageBroken {
        /// Slot of the live list.
        index: usize,
        /// Page the slot names.
        ppa: Ppa,
        /// What is wrong with it.
        state: &'static str,
    },
    /// A table-image page's validity disagrees with the live list: a
    /// stale generation still valid (GC would copy it for ever, and a
    /// recovery scan could prefer it), or a live page marked dead (GC
    /// would erase the only evidence of a commit).
    Xl2pValidityMismatch {
        /// The table-image page.
        ppa: Ppa,
        /// Generation id in its OOB.
        generation: u64,
        /// Whether the engine counts it valid.
        valid: bool,
    },
    /// The live table image is one a recovery would pass over: the
    /// newest root covers its generation and does not name it as the
    /// image it left live.
    Xl2pImageUnread {
        /// The live image's generation id.
        generation: u64,
        /// The newest root's checkpoint sequence.
        ckpt_seq: u64,
        /// The generation that root names as kept (0: none).
        kept: u64,
    },
    /// A live differential's base is not the page the L2P maps: a write
    /// superseded the page and left its differential live.
    DiffBaseNotMapped {
        /// Logical page.
        lpn: Lpn,
        /// The differential's base.
        base: Ppa,
        /// Page the L2P maps.
        current: Option<Ppa>,
    },
    /// A live differential's base is no valid programmed page of its
    /// logical page: GC would reclaim, or has reclaimed, what it stands on.
    DiffBaseLost {
        /// Logical page.
        lpn: Lpn,
        /// The differential's base.
        base: Ppa,
        /// What is wrong with it.
        state: &'static str,
    },
    /// A live differential's base image is missing from the image cache,
    /// or differs from the page.
    DiffBaseImage {
        /// Logical page.
        lpn: Lpn,
        /// The differential's base.
        base: Ppa,
        /// What is wrong with it.
        state: &'static str,
    },
    /// The live table image does not carry a live differential as the
    /// device holds it: a power cut would lose the commit's bytes.
    DiffMissingFromImage {
        /// Logical page.
        lpn: Lpn,
    },
    /// A pending differential stands on neither the page the L2P maps
    /// nor a staged commit's page: a version since displaced, which its
    /// fold would apply it to.
    PendingDiffOffBase {
        /// Owning transaction.
        tid: Tid,
        /// Logical page.
        lpn: Lpn,
        /// The differential's base.
        base: Ppa,
        /// Page the L2P maps.
        mapped: Option<Ppa>,
    },
    /// An image the cache holds is not the bytes of a valid page.
    ImageCacheStale {
        /// Address the image is kept under.
        ppa: Ppa,
        /// What is wrong with it.
        state: &'static str,
    },
    /// The directory's home of a slab is not the translation page a
    /// recovery scan would pick for it — the newest intact `Map` page of
    /// that index on the media — or the engine counts it dead (GC would
    /// erase the slab's only persisted copy).
    SlabHomeNotNewest {
        /// Slab index.
        slab: usize,
        /// Where the directory says the slab lives.
        home: Option<Ppa>,
        /// The page the scan would pick.
        newest: Option<Ppa>,
    },
    /// A superseded translation page is still counted valid: GC would
    /// copy it for ever, and the copy's fresh sequence would make the
    /// stale content the scan's pick.
    StaleTranslationPageValid {
        /// Slab index in its OOB.
        slab: usize,
        /// The superseded page.
        ppa: Ppa,
    },
    /// A data block the recovery scan would skip — first and last page
    /// data, the last at or below the root's checkpoint sequence and
    /// transaction horizon — holds a page the scan needs.
    CoveredBlockHidesPage {
        /// The page the scan would never see.
        ppa: Ppa,
        /// What it is.
        kind: PageKind,
        /// Its program sequence.
        seq: u64,
    },
    /// A retired block holds a programmed or torn page: the FTL reused a
    /// block the chip already reported an erase failure on.
    RetiredBlockReused {
        /// Retired block.
        block: u32,
        /// Non-erased page found on it.
        page: u32,
        /// Observed page state (`"programmed"` or `"torn"`).
        state: &'static str,
    },
    /// The chip retired a block but the FTL's bad-block table does not
    /// list it — a future format/recovery could hand it back out.
    RetiredBlockUntracked {
        /// Retired block missing from the table.
        block: u32,
    },
    /// A retired block sits in the free pool or an open write frontier.
    RetiredBlockAllocatable {
        /// Retired block on an allocation path.
        block: u32,
    },
    /// With static wear leveling enabled, the erase-count spread across
    /// usable pool blocks exceeds the policy's tolerance: the leveler is
    /// failing to recycle cold blocks.
    FrontierWearExcess {
        /// Most-worn usable pool block.
        hot_block: u32,
        /// Its erase count.
        hot_erases: u64,
        /// Least-worn usable pool block.
        cold_block: u32,
        /// Its erase count.
        cold_erases: u64,
        /// Largest spread the configured `wear_delta_cap` tolerates.
        allowed: u64,
    },
    /// The device still reports `Healthy` even though its free pool is
    /// empty and blocks have been retired — the degradation state machine
    /// missed an exhaustion transition.
    StateHealthyButExhausted {
        /// Number of retired blocks.
        bad_blocks: usize,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flash auditor: ")?;
        match self {
            AuditViolation::GapInBlock { block, page } => write!(
                f,
                "block {block} has erased page {page} below its write point \
                 (in-order programming violated)"
            ),
            AuditViolation::ProgramBeyondWritePoint { block, page } => write!(
                f,
                "block {block} has a non-erased page {page} at or above its write point"
            ),
            AuditViolation::SeqOutOfOrder {
                block,
                page,
                prev_seq,
                seq,
            } => write!(
                f,
                "block {block} page {page} has seq {seq} after seq {prev_seq} \
                 (program order broken)"
            ),
            AuditViolation::SeqDuplicate { seq, first, second } => write!(
                f,
                "seq {seq} appears on both {first:?} and {second:?} (global uniqueness broken)"
            ),
            AuditViolation::SeqFromFuture { ppa, seq, next_seq } => write!(
                f,
                "{ppa:?} carries seq {seq} but the chip's next seq is only {next_seq}"
            ),
            AuditViolation::MappedPageMissing { lpn, ppa, state } => {
                write!(f, "L2P maps lpn {lpn} to {ppa:?}, but that page is {state}")
            }
            AuditViolation::MappedOobMismatch {
                lpn,
                ppa,
                oob_lpn,
                kind,
            } => write!(
                f,
                "L2P maps lpn {lpn} to {ppa:?}, but its OOB says lpn {oob_lpn}, kind {kind:?}"
            ),
            AuditViolation::MappedPageInvalid { lpn, ppa } => write!(
                f,
                "L2P maps lpn {lpn} to {ppa:?}, which is counted invalid — GC would erase it"
            ),
            AuditViolation::Xl2pDanglingPpa {
                tid,
                lpn,
                ppa,
                state,
            } => write!(
                f,
                "X-L2P entry (tid {tid}, lpn {lpn}) pins {ppa:?}, but that page is {state} \
                 — GC reclaimed a pinned new version"
            ),
            AuditViolation::Xl2pOobMismatch {
                tid,
                lpn,
                ppa,
                oob_lpn,
                oob_tid,
                kind,
            } => write!(
                f,
                "X-L2P entry (tid {tid}, lpn {lpn}) pins {ppa:?}, but its OOB says \
                 lpn {oob_lpn}, tid {oob_tid}, kind {kind:?}"
            ),
            AuditViolation::Xl2pPinnedOldLost {
                tid,
                lpn,
                old,
                state,
            } => write!(
                f,
                "old committed version {old:?} of lpn {lpn}, pinned by active tid {tid}, \
                 is {state} — GC reclaimed a rollback copy"
            ),
            AuditViolation::Xl2pStaleEntry {
                tid,
                lpn,
                ppa,
                current,
            } => write!(
                f,
                "committed X-L2P entry (tid {tid}, lpn {lpn}) names {ppa:?}, but the L2P maps \
                 {current:?} — recovery would fold the stale address"
            ),
            AuditViolation::Xl2pOverflow { len, capacity } => {
                write!(f, "X-L2P table holds {len} entries, capacity is {capacity}")
            }
            AuditViolation::Xl2pCommittedCount { committed, counted } => write!(
                f,
                "X-L2P table reports {committed} committed entries but holds {counted}"
            ),
            AuditViolation::Xl2pImageBroken { index, ppa, state } => write!(
                f,
                "slot {index} of the live X-L2P table image names {ppa:?}, which is {state} \
                 — the live pages are not one complete generation"
            ),
            AuditViolation::Xl2pValidityMismatch {
                ppa,
                generation,
                valid,
            } => write!(
                f,
                "X-L2P table page {ppa:?} of generation {generation} is {} the live image \
                 but counted {}",
                if *valid { "outside" } else { "in" },
                if *valid { "valid" } else { "invalid" }
            ),
            AuditViolation::Xl2pImageUnread {
                generation,
                ckpt_seq,
                kept,
            } => write!(
                f,
                "the live X-L2P table image is generation {generation}, which the root's \
                 checkpoint (sequence {ckpt_seq}) covers and does not keep (it keeps {kept}) \
                 — a recovery would not read it"
            ),
            AuditViolation::DiffBaseNotMapped { lpn, base, current } => write!(
                f,
                "the live differential of lpn {lpn} stands on {base:?}, but the L2P maps \
                 {current:?} — a write superseded the page and left its differential live"
            ),
            AuditViolation::DiffBaseLost { lpn, base, state } => write!(
                f,
                "the base {base:?} of lpn {lpn}'s live differential is {state}"
            ),
            AuditViolation::DiffBaseImage { lpn, base, state } => write!(
                f,
                "the cached image of lpn {lpn}'s base {base:?} is {state}"
            ),
            AuditViolation::DiffMissingFromImage { lpn } => write!(
                f,
                "the live table image does not carry lpn {lpn}'s live differential — a \
                 power cut would lose it"
            ),
            AuditViolation::PendingDiffOffBase {
                tid,
                lpn,
                base,
                mapped,
            } => write!(
                f,
                "tid {tid}'s differential for lpn {lpn} stands on {base:?}, which is \
                 neither the page the L2P maps ({mapped:?}) nor a staged commit's"
            ),
            AuditViolation::ImageCacheStale { ppa, state } => {
                write!(f, "the image cache holds {ppa:?}, which is {state}")
            }
            AuditViolation::SlabHomeNotNewest { slab, home, newest } => write!(
                f,
                "the directory holds slab {slab} at {home:?}, but the newest intact \
                 translation page of that index — what a recovery scan adopts — is \
                 {newest:?}, or the home is counted invalid"
            ),
            AuditViolation::StaleTranslationPageValid { slab, ppa } => write!(
                f,
                "superseded translation page {ppa:?} of slab {slab} is still counted valid"
            ),
            AuditViolation::CoveredBlockHidesPage { ppa, kind, seq } => write!(
                f,
                "{kind:?} page {ppa:?} (seq {seq}) sits in a data block the recovery scan \
                 skips as covered by the root"
            ),
            AuditViolation::RetiredBlockReused { block, page, state } => write!(
                f,
                "retired block {block} holds a {state} page {page} — the FTL reused a \
                 block that failed erase"
            ),
            AuditViolation::RetiredBlockUntracked { block } => write!(
                f,
                "chip retired block {block} but the FTL bad-block table does not list it"
            ),
            AuditViolation::RetiredBlockAllocatable { block } => write!(
                f,
                "retired block {block} is still on an allocation path (free pool or frontier)"
            ),
            AuditViolation::FrontierWearExcess {
                hot_block,
                hot_erases,
                cold_block,
                cold_erases,
                allowed,
            } => write!(
                f,
                "wear spread {spread} (block {hot_block}: {hot_erases} erases vs \
                 block {cold_block}: {cold_erases}) exceeds the leveler's tolerance {allowed}",
                spread = hot_erases - cold_erases
            ),
            AuditViolation::StateHealthyButExhausted { bad_blocks } => write!(
                f,
                "device reports Healthy with an empty free pool and {bad_blocks} retired \
                 blocks — degradation transition missed"
            ),
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Audits the raw NAND array: erase-before-program, in-order programming,
/// and OOB sequence sanity. See the [module docs](self).
///
/// # Errors
/// The first violated invariant.
pub fn audit_chip(chip: &FlashChip) -> Result<AuditReport, AuditViolation> {
    let geo = chip.config().geometry;
    let next_seq = chip.next_seq();
    let mut report = AuditReport::default();
    let mut seen: HashMap<u64, Ppa> = HashMap::new();
    for block in 0..geo.blocks as u32 {
        let retired = chip.block_health(block) == BlockHealth::Retired;
        if retired {
            report.retired_blocks += 1;
        }
        let write_point = chip
            .write_point(block)
            .unwrap_or(geo.pages_per_block as u32);
        let mut prev_seq: Option<u64> = None;
        for page in 0..geo.pages_per_block as u32 {
            let ppa = Ppa::new(block, page);
            match chip.probe_silent(ppa) {
                PageProbe::Erased => {
                    if page < write_point {
                        return Err(AuditViolation::GapInBlock { block, page });
                    }
                }
                PageProbe::Torn => {
                    if retired {
                        // A failed erase still wipes the cells, so any
                        // later content proves a post-retirement program.
                        return Err(AuditViolation::RetiredBlockReused {
                            block,
                            page,
                            state: "torn",
                        });
                    }
                    if page >= write_point {
                        return Err(AuditViolation::ProgramBeyondWritePoint { block, page });
                    }
                    report.torn_pages += 1;
                }
                PageProbe::Programmed(oob) => {
                    if retired {
                        return Err(AuditViolation::RetiredBlockReused {
                            block,
                            page,
                            state: "programmed",
                        });
                    }
                    if page >= write_point {
                        return Err(AuditViolation::ProgramBeyondWritePoint { block, page });
                    }
                    report.programmed_pages += 1;
                    if oob.seq >= next_seq {
                        return Err(AuditViolation::SeqFromFuture {
                            ppa,
                            seq: oob.seq,
                            next_seq,
                        });
                    }
                    if let Some(prev) = prev_seq {
                        if oob.seq <= prev {
                            return Err(AuditViolation::SeqOutOfOrder {
                                block,
                                page,
                                prev_seq: prev,
                                seq: oob.seq,
                            });
                        }
                    }
                    prev_seq = Some(oob.seq);
                    if let Some(first) = seen.insert(oob.seq, ppa) {
                        return Err(AuditViolation::SeqDuplicate {
                            seq: oob.seq,
                            first,
                            second: ppa,
                        });
                    }
                }
            }
        }
    }
    Ok(report)
}

/// Audits the chip plus the engine's L2P: every slab lives where a
/// recovery scan would find it, and every mapped logical page points at a
/// programmed data page recording the same `lpn` in its OOB.
///
/// # Errors
/// The first violated invariant.
pub fn audit_base(base: &FtlBase) -> Result<AuditReport, AuditViolation> {
    let chip = base.chip();
    let mut report = audit_chip(chip)?;
    // Bad-block discipline: every block the chip retired must be in the
    // FTL's table and off every allocation path. (The FTL table may list
    // *more* blocks than the chip if a recovered root outlives a chip
    // swap; that direction is harmless and not checked.)
    for block in chip.retired_blocks() {
        if !base.is_bad_block(block) {
            return Err(AuditViolation::RetiredBlockUntracked { block });
        }
        if base.is_allocatable(block) {
            return Err(AuditViolation::RetiredBlockAllocatable { block });
        }
    }
    // Degradation-state discipline: once blocks have actually been lost
    // and the free pool has drained to nothing, the health state machine
    // must have left `Healthy` — a device that silently writes on fumes
    // is how acked commits get lost at end of life.
    if base.device_state() == DeviceState::Healthy
        && base.free_block_count() == 0
        && base.bad_block_count() > 0
    {
        return Err(AuditViolation::StateHealthyButExhausted {
            bad_blocks: base.bad_block_count(),
        });
    }
    // Wear discipline: with the scrubber (and its static wear leveler)
    // enabled, no usable pool block may lag the hottest block by more
    // than ~2x the configured cap. The leveler relocates one block per
    // tick, so transient spread above the 1x trigger threshold is
    // legitimate; 2x plus a block of slack means it stopped working.
    if let Some(cfg) = base.scrub_config() {
        let geo = chip.config().geometry;
        let mut hot: Option<(u32, u64)> = None;
        let mut cold: Option<(u32, u64)> = None;
        for block in base.first_pool_block()..geo.blocks as u32 {
            if base.is_bad_block(block) {
                continue;
            }
            let erases = chip.erase_count(block);
            if hot.is_none_or(|(_, e)| erases > e) {
                hot = Some((block, erases));
            }
            if cold.is_none_or(|(_, e)| erases < e) {
                cold = Some((block, erases));
            }
        }
        if let (Some((hot_block, hot_erases)), Some((cold_block, cold_erases))) = (hot, cold) {
            let allowed = cfg
                .wear_delta_cap
                .saturating_mul(2)
                .saturating_add(geo.pages_per_block as u64);
            if hot_erases - cold_erases > allowed {
                return Err(AuditViolation::FrontierWearExcess {
                    hot_block,
                    hot_erases,
                    cold_block,
                    cold_erases,
                    allowed,
                });
            }
        }
    }
    audit_slab_homes(base)?;
    audit_covered_blocks(base)?;
    for lpn in 0..base.capacity_pages() {
        // `l2p_peek` resolves non-resident slabs by silently reading the
        // persisted translation page, so the audit itself perturbs neither
        // the mapping cache nor the stats it is checking.
        let Some(ppa) = base.l2p_peek(lpn) else {
            continue;
        };
        report.mapped_lpns += 1;
        match chip.probe_silent(ppa) {
            PageProbe::Erased => {
                return Err(AuditViolation::MappedPageMissing {
                    lpn,
                    ppa,
                    state: "erased",
                })
            }
            PageProbe::Torn => {
                return Err(AuditViolation::MappedPageMissing {
                    lpn,
                    ppa,
                    state: "torn",
                })
            }
            PageProbe::Programmed(oob) => {
                if oob.lpn != lpn || oob.kind != PageKind::Data {
                    return Err(AuditViolation::MappedOobMismatch {
                        lpn,
                        ppa,
                        oob_lpn: oob.lpn,
                        kind: oob.kind,
                    });
                }
                if !base.page_is_valid(ppa) {
                    return Err(AuditViolation::MappedPageInvalid { lpn, ppa });
                }
            }
        }
    }
    Ok(report)
}

/// Full X-FTL audit: chip physics, L2P, commit evidence, and X-L2P
/// sanity.
///
/// For every entry the pinned new version must be a live programmed data
/// page with matching OOB (`tid` may have been re-stamped to 0 by GC only
/// for committed, already-folded entries). For every *active* entry — and
/// every entry of a staged, not-yet-flushed commit group — the old
/// committed version, the rollback copy, must still be programmed. A
/// committed entry whose fold already landed must name the page the L2P
/// maps: the next group flush persists it, and recovery folds it at the
/// generation id, over anything newer. A newer commit of the page takes
/// the older entry out at its fold, so none is exempt.
///
/// # Errors
/// The first violated invariant.
pub fn audit_xftl(dev: &XFtl) -> Result<AuditReport, AuditViolation> {
    let base = dev.base();
    let mut report = audit_base(base)?;
    audit_table_image(base)?;
    report.live_diffs = audit_diffs(dev)?;
    audit_entries(base, dev.xl2p(), dev.staged_commits(), &mut report)?;
    audit_pending_diffs(dev)?;
    Ok(report)
}

/// The X-L2P entry audit of [`audit_xftl`]: `table` over the chip and L2P
/// of `base`, with `staged_commits` not yet flushed.
fn audit_entries(
    base: &FtlBase,
    table: &Xl2pTable,
    staged_commits: &[(Tid, u64)],
    report: &mut AuditReport,
) -> Result<(), AuditViolation> {
    if table.len() > table.capacity() {
        return Err(AuditViolation::Xl2pOverflow {
            len: table.len(),
            capacity: table.capacity(),
        });
    }
    let counted = (table.iter())
        .filter(|e| e.status == TxStatus::Committed)
        .count();
    if table.committed_len() != counted {
        return Err(AuditViolation::Xl2pCommittedCount {
            committed: table.committed_len(),
            counted,
        });
    }
    let chip = base.chip();
    // A committed entry of a staged (submitted, unflushed) commit is the
    // live read path for its page even though the L2P does not point at
    // it yet: it gets the full liveness check, and — like an active entry
    // — its old L2P version must survive as the rollback copy, because a
    // crash before the group flush loses the commit.
    let is_staged = |e: &Entry| staged_commits.contains(&(e.tid, e.seq));
    let is_folded = |e: &Entry| e.status == TxStatus::Committed && !is_staged(e);
    for entry in table.iter() {
        report.xl2p_entries += 1;
        let current = base.l2p_peek(entry.lpn);
        let staged = is_staged(entry);
        if staged {
            report.staged_entries += 1;
        }
        // A folded entry must name the page the L2P maps: a newer version
        // of the page removes it (`supersede_committed`), and a folded
        // differential leaves no entry.
        if is_folded(entry) && current != Some(entry.ppa) {
            return Err(AuditViolation::Xl2pStaleEntry {
                tid: entry.tid,
                lpn: entry.lpn,
                ppa: entry.ppa,
                current,
            });
        }
        let dangling = match chip.probe_silent(entry.ppa) {
            PageProbe::Erased => Some("erased"),
            PageProbe::Torn => Some("torn"),
            PageProbe::Programmed(oob) => {
                let tid_ok = match entry.status {
                    // A differential's base is whoever wrote it.
                    _ if entry.diff.is_some() => true,
                    TxStatus::Active => oob.tid == entry.tid,
                    // GC re-stamps the L2P-current copy to tid 0.
                    TxStatus::Committed => oob.tid == entry.tid || oob.tid == 0,
                };
                if oob.lpn != entry.lpn || oob.kind != PageKind::Data || !tid_ok {
                    return Err(AuditViolation::Xl2pOobMismatch {
                        tid: entry.tid,
                        lpn: entry.lpn,
                        ppa: entry.ppa,
                        oob_lpn: oob.lpn,
                        oob_tid: oob.tid,
                        kind: oob.kind,
                    });
                }
                None
            }
        };
        if let Some(state) = dangling {
            return Err(AuditViolation::Xl2pDanglingPpa {
                tid: entry.tid,
                lpn: entry.lpn,
                ppa: entry.ppa,
                state,
            });
        }
        if entry.status == TxStatus::Active || staged {
            if let Some(old) = current {
                let state = match chip.probe_silent(old) {
                    PageProbe::Programmed(_) => None,
                    PageProbe::Erased => Some("erased"),
                    PageProbe::Torn => Some("torn"),
                };
                if let Some(state) = state {
                    return Err(AuditViolation::Xl2pPinnedOldLost {
                        tid: entry.tid,
                        lpn: entry.lpn,
                        old,
                        state,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Differential audit (see the [module docs](self)), live differentials;
/// returns how many it checked.
fn audit_diffs(dev: &XFtl) -> Result<usize, AuditViolation> {
    let base = dev.base();
    let table = dev.xl2p();
    let chip = base.chip();
    let ps = base.page_size();
    let roots = base.xl2p_roots();
    let mut image = vec![0u8; ps * roots.len()];
    for (ppa, page) in roots.iter().zip(image.chunks_mut(ps)) {
        chip.read_silent(*ppa, page);
    }
    let (_, carried) = Xl2pTable::decode_image(&image, ps, base.pages_per_block());
    let carried: HashMap<Lpn, Diff> = carried.into_iter().map(|(l, _, d)| (l, d)).collect();
    let mut page = vec![0u8; ps];
    let mut read = |ppa: Ppa| chip.read_silent(ppa, &mut page).map(|_| page.clone());
    for (lpn, live) in table.live_diffs() {
        let current = base.l2p_peek(lpn);
        if current != Some(live.base) {
            return Err(AuditViolation::DiffBaseNotMapped {
                lpn,
                base: live.base,
                current,
            });
        }
        let lost = match chip.probe_silent(live.base) {
            PageProbe::Programmed(oob) if oob.lpn != lpn || oob.kind != PageKind::Data => {
                Some("another page")
            }
            PageProbe::Programmed(_) => {
                (!base.page_is_valid(live.base)).then_some("counted invalid")
            }
            PageProbe::Erased => Some("erased"),
            PageProbe::Torn => Some("torn"),
        };
        if let Some(state) = lost {
            return Err(AuditViolation::DiffBaseLost {
                lpn,
                base: live.base,
                state,
            });
        }
        let image = match table.cache().peek(live.base) {
            Some(image) => (read(live.base).as_deref() != Some(image)).then_some("stale"),
            None => (!live.recovered).then_some("missing"),
        };
        if let Some(state) = image {
            return Err(AuditViolation::DiffBaseImage {
                lpn,
                base: live.base,
                state,
            });
        }
        if carried.get(&lpn) != Some(&*live.diff) {
            return Err(AuditViolation::DiffMissingFromImage { lpn });
        }
    }
    Ok(table.live_len())
}

/// The rest of the differential audit: pending differentials and the
/// image cache.
fn audit_pending_diffs(dev: &XFtl) -> Result<(), AuditViolation> {
    let base = dev.base();
    let table = dev.xl2p();
    let mut page = vec![0u8; base.page_size()];
    let mut read = |ppa: Ppa| {
        base.chip()
            .read_silent(ppa, &mut page)
            .map(|_| page.clone())
    };
    // A pending differential stands on a base that is still there: the
    // page the L2P maps, or a staged commit's page — it moves when either
    // is displaced, and onto the newest at its own commit.
    let staged = dev.staged_commits();
    let staged_pages = |lpn: Lpn| -> Vec<Ppa> {
        (staged.iter())
            .filter_map(|&(tid, seq)| table.lookup(tid, lpn).filter(|e| e.seq == seq))
            .map(|e| e.ppa)
            .collect()
    };
    for e in table.iter() {
        if e.status != TxStatus::Active || e.diff.is_none() {
            continue;
        }
        let mapped = base.l2p_peek(e.lpn);
        if mapped != Some(e.ppa) && !staged_pages(e.lpn).contains(&e.ppa) {
            return Err(AuditViolation::PendingDiffOffBase {
                tid: e.tid,
                lpn: e.lpn,
                base: e.ppa,
                mapped,
            });
        }
    }
    for (ppa, image) in table.cache().iter() {
        let state = if !base.page_is_valid(ppa) {
            Some("not a valid page")
        } else {
            (read(ppa).as_deref() != Some(image)).then_some("not the page's bytes")
        };
        if let Some(state) = state {
            return Err(AuditViolation::ImageCacheStale { ppa, state });
        }
    }
    Ok(())
}

/// Translation-page audit (see the [module docs](self)): the directory
/// and the media agree on where every slab lives, and validity agrees
/// with both.
fn audit_slab_homes(base: &FtlBase) -> Result<(), AuditViolation> {
    let chip = base.chip();
    let geo = chip.config().geometry;
    let homes = base.slab_homes();
    let mut newest: Vec<Option<(u64, Ppa)>> = vec![None; homes.len()];
    for block in base.first_pool_block()..geo.blocks as u32 {
        for page in 0..geo.pages_per_block as u32 {
            let ppa = Ppa::new(block, page);
            let PageProbe::Programmed(oob) = chip.probe_silent(ppa) else {
                continue;
            };
            let slab = oob.lpn as usize;
            if oob.kind != PageKind::Map || slab >= homes.len() {
                continue;
            }
            if base.page_is_valid(ppa) && homes[slab] != Some(ppa) {
                return Err(AuditViolation::StaleTranslationPageValid { slab, ppa });
            }
            if newest[slab].is_none_or(|(seq, _)| oob.seq > seq) {
                newest[slab] = Some((oob.seq, ppa));
            }
        }
    }
    for (slab, (home, newest)) in homes.iter().zip(newest).enumerate() {
        let newest = newest.map(|(_, ppa)| ppa);
        if *home != newest || home.is_some_and(|ppa| !base.page_is_valid(ppa)) {
            return Err(AuditViolation::SlabHomeNotNewest {
                slab,
                home: *home,
                newest,
            });
        }
    }
    Ok(())
}

/// The newest intact checkpoint root on the media — the one a recovery
/// of this chip would load — or `None` on a chip that was never
/// formatted.
pub fn newest_root(chip: &FlashChip) -> Option<MetaPage> {
    let geo = chip.config().geometry;
    let ring = (0..2u32).flat_map(|b| (0..geo.pages_per_block as u32).map(move |p| Ppa::new(b, p)));
    let mut buf = vec![0u8; geo.page_size];
    let roots = ring.filter_map(|ppa| {
        let oob = chip.read_silent(ppa, &mut buf)?;
        let root = MetaPage::decode(&buf).filter(|_| oob.kind == PageKind::Meta)?;
        Some((oob.seq, root))
    });
    roots.max_by_key(|(seq, _)| *seq).map(|(_, root)| root)
}

/// Skipped-block audit (see the [module docs](self)): restates, from the
/// media alone — the root a recovery would load, the pages it would
/// probe — when the scan takes a block on trust, and reads every page of
/// each such block for what the full scan would have used.
fn audit_covered_blocks(base: &FtlBase) -> Result<(), AuditViolation> {
    let chip = base.chip();
    let geo = chip.config().geometry;
    let Some(root) = newest_root(chip) else {
        return Ok(());
    };
    let (ckpt_seq, horizon) = (root.ckpt_seq, root.tx_horizon);
    let last = geo.pages_per_block as u32 - 1;
    for block in base.first_pool_block()..geo.blocks as u32 {
        let data_seq = |page| match chip.probe_silent(Ppa::new(block, page)) {
            PageProbe::Programmed(oob) if oob.kind == PageKind::Data => Some(oob.seq),
            PageProbe::Erased | PageProbe::Programmed(_) | PageProbe::Torn => None,
        };
        let covered = |seq| seq <= ckpt_seq && seq <= horizon;
        if data_seq(0).is_none() || !data_seq(last).is_some_and(covered) {
            continue;
        }
        for page in 0..=last {
            let ppa = Ppa::new(block, page);
            let PageProbe::Programmed(oob) = chip.probe_silent(ppa) else {
                continue;
            };
            let needed = match oob.kind {
                PageKind::Data => !covered(oob.seq),
                PageKind::XL2p | PageKind::Commit | PageKind::Map | PageKind::Meta => true,
            };
            if needed {
                return Err(AuditViolation::CoveredBlockHidesPage {
                    ppa,
                    kind: oob.kind,
                    seq: oob.seq,
                });
            }
        }
    }
    Ok(())
}

/// Commit-evidence audit (see the [module docs](self)): the live list is
/// one complete generation, and validity of every `XL2p` page on flash
/// agrees with it.
fn audit_table_image(base: &FtlBase) -> Result<(), AuditViolation> {
    let chip = base.chip();
    let geo = chip.config().geometry;
    let live = base.xl2p_roots();
    let mut generation = None;
    for (index, &ppa) in live.iter().enumerate() {
        let broken = |state| AuditViolation::Xl2pImageBroken { index, ppa, state };
        let PageProbe::Programmed(oob) = chip.probe_silent(ppa) else {
            return Err(broken("not programmed"));
        };
        if oob.kind != PageKind::XL2p {
            return Err(broken("not a table page"));
        }
        if oob.lpn != index as u64 || oob.aux as usize != live.len() {
            return Err(broken("another index or page count"));
        }
        if *generation.get_or_insert(oob.tid) != oob.tid {
            return Err(broken("of another generation"));
        }
    }
    if let (Some(generation), Some(root)) = (generation, newest_root(chip)) {
        if generation <= root.ckpt_seq && generation != root.kept_image {
            return Err(AuditViolation::Xl2pImageUnread {
                generation,
                ckpt_seq: root.ckpt_seq,
                kept: root.kept_image,
            });
        }
    }
    for block in 0..geo.blocks as u32 {
        for page in 0..geo.pages_per_block as u32 {
            let ppa = Ppa::new(block, page);
            let PageProbe::Programmed(oob) = chip.probe_silent(ppa) else {
                continue;
            };
            if oob.kind == PageKind::XL2p && base.page_is_valid(ppa) != live.contains(&ppa) {
                return Err(AuditViolation::Xl2pValidityMismatch {
                    ppa,
                    generation: oob.tid,
                    valid: base.page_is_valid(ppa),
                });
            }
        }
    }
    Ok(())
}

/// Devices the auditor knows how to open up.
pub trait Auditable {
    /// Runs the full audit for this device type.
    ///
    /// # Errors
    /// The first violated invariant.
    fn audit(&self) -> Result<AuditReport, AuditViolation>;
}

impl Auditable for XFtl {
    fn audit(&self) -> Result<AuditReport, AuditViolation> {
        audit_xftl(self)
    }
}

impl Auditable for PageMappedFtl {
    fn audit(&self) -> Result<AuditReport, AuditViolation> {
        audit_base(self.base())
    }
}

impl Auditable for AtomicWriteFtl {
    /// (A group is open only inside one `write_atomic` call: between
    /// calls there is no open page for the horizon to overrun.)
    fn audit(&self) -> Result<AuditReport, AuditViolation> {
        audit_base(self.base())
    }
}

impl<D: Auditable + xftl_ftl::BlockDevice> ShadowDevice<D> {
    /// Audits the wrapped device, panicking with the violation message on
    /// failure (so tests can sprinkle audits without plumbing `Result`).
    ///
    /// # Panics
    /// When an invariant is violated.
    pub fn audit(&self) -> AuditReport {
        match self.inner().audit() {
            Ok(report) => report,
            Err(v) => panic!("{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_flash::{FlashConfig, FlashError, SimClock};
    use xftl_ftl::{BlockDevice, DevError, TxBlockDevice};

    fn fresh_xftl(blocks: usize, logical: u64) -> XFtl {
        let clock = SimClock::new();
        let chip = FlashChip::new(FlashConfig::tiny(blocks), clock);
        XFtl::format(chip, logical).unwrap()
    }

    #[test]
    fn clean_workload_audits_green() {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        for round in 0u8..4 {
            for lpn in 0..32u64 {
                dev.write(lpn, &vec![round.wrapping_add(lpn as u8); ps])
                    .unwrap();
            }
        }
        dev.write_tx(3, 2, &vec![0xAA; ps]).unwrap();
        dev.write_tx(4, 7, &vec![0xBB; ps]).unwrap();
        dev.commit(3).unwrap();
        let report = audit_xftl(&dev).unwrap();
        assert!(report.programmed_pages > 0);
        assert!(report.mapped_lpns >= 32);
        assert!(report.xl2p_entries >= 1);
    }

    /// A device with a live differential on lpn 5 (committed, folded into
    /// the image), and that lpn's base.
    fn dev_with_a_live_diff() -> (XFtl, Ppa) {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        let page: Vec<u8> = (0..ps).map(|i| i as u8).collect();
        dev.write_tx(1, 5, &page).unwrap();
        dev.commit(1).unwrap();
        let mut changed = page.clone();
        changed[9] ^= 0xFF;
        dev.write_tx(2, 5, &changed).unwrap();
        dev.commit(2).unwrap();
        let report = audit_xftl(&dev).unwrap();
        assert_eq!(report.live_diffs, 1);
        let base = dev.xl2p().live(5).expect("a differential").base;
        (dev, base)
    }

    #[test]
    fn mutation_differential_dropped_from_the_image_is_caught() {
        use xftl_ftl::NoHook;
        let (mut dev, _) = dev_with_a_live_diff();
        let (ps, ppb) = (dev.page_size(), dev.base().pages_per_block());
        // A group flush that forgot the live differentials.
        let pages = dev.xl2p().encode_image(ps, ppb, &[]);
        dev.base_mut().persist_xl2p(&mut NoHook, |_| pages).unwrap();
        let err = audit_xftl(&dev).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::DiffMissingFromImage { lpn: 5 },
            "{err}"
        );
    }

    #[test]
    fn mutation_root_not_naming_the_kept_image_is_caught() {
        use xftl_flash::Oob;
        let (mut dev, _) = dev_with_a_live_diff();
        // The device's own checkpoint keeps the image and names it.
        dev.flush().unwrap();
        let root = newest_root(dev.base().chip()).unwrap();
        assert_ne!(root.kept_image, 0, "the checkpoint kept the image");
        audit_xftl(&dev).unwrap();
        // A newer root that forgets it: a recovery under it would pass
        // the image over, and the differential with it.
        let chip = dev.base_mut().chip_mut();
        let ps = chip.config().geometry.page_size;
        let at = (0..2).find_map(|b| chip.write_point(b).map(|p| Ppa::new(b, p)));
        let forged = MetaPage {
            kept_image: 0,
            ..root.clone()
        };
        let oob = Oob {
            kind: PageKind::Meta,
            ..Oob::data(0)
        };
        chip.program(at.unwrap(), &forged.encode(ps), oob).unwrap();
        let err = audit_xftl(&dev).unwrap_err();
        assert_eq!(
            err,
            AuditViolation::Xl2pImageUnread {
                generation: root.kept_image,
                ckpt_seq: root.ckpt_seq,
                kept: 0
            },
            "{err}"
        );
    }

    #[test]
    fn mutation_invalidated_base_is_caught() {
        let (mut dev, base) = dev_with_a_live_diff();
        dev.base_mut().invalidate(base);
        let err = audit_xftl(&dev).unwrap_err();
        assert!(
            matches!(
                err,
                AuditViolation::MappedPageInvalid { lpn: 5, .. }
                    | AuditViolation::DiffBaseLost { lpn: 5, .. }
            ),
            "expected the base's loss, got: {err}"
        );
    }

    #[test]
    fn mutation_differential_left_live_after_a_plain_overwrite_is_caught() {
        use xftl_ftl::NoHook;
        let (mut dev, base) = dev_with_a_live_diff();
        let ps = dev.page_size();
        // A checkpoint releases the commits' entries; the differential
        // stays live, in the image.
        dev.flush().unwrap();
        audit_xftl(&dev).unwrap();
        // The L2P moves on behind the table's back, as a plain overwrite
        // that forgot to supersede the differential would leave it.
        dev.base_mut()
            .write_committed(5, &vec![0x77; ps], &mut NoHook)
            .unwrap();
        let err = audit_xftl(&dev).unwrap_err();
        assert!(
            matches!(err, AuditViolation::DiffBaseNotMapped { lpn: 5, base: b, .. } if b == base),
            "expected a differential off its base, got: {err}"
        );
    }

    #[test]
    fn a_plain_overwrite_through_the_device_supersedes_the_differential() {
        let (mut dev, _) = dev_with_a_live_diff();
        let ps = dev.page_size();
        dev.write(5, &vec![0x77; ps]).unwrap();
        assert_eq!(audit_xftl(&dev).unwrap().live_diffs, 0);
    }

    #[test]
    fn baseline_ftls_audit_green() {
        let clock = SimClock::new();
        let chip = FlashChip::new(FlashConfig::tiny(24), clock);
        let mut dev = PageMappedFtl::format(chip, 48).unwrap();
        let ps = dev.page_size();
        for lpn in 0..16u64 {
            dev.write(lpn, &vec![lpn as u8; ps]).unwrap();
        }
        dev.flush().unwrap();
        let report = dev.audit().unwrap();
        assert_eq!(report.mapped_lpns, 16);
    }

    #[test]
    fn staged_commits_are_audited_live_until_their_group_flushes() {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write(0, &vec![1; ps]).unwrap();
        dev.write(1, &vec![2; ps]).unwrap();
        dev.write_tx(5, 0, &vec![3; ps]).unwrap();
        dev.write_tx(6, 1, &vec![4; ps]).unwrap();
        let t5 = dev.commit_submit(5).unwrap();
        let t6 = dev.commit_submit(6).unwrap();
        let report = audit_xftl(&dev).unwrap();
        assert_eq!(report.staged_entries, 2, "both staged commits checked");
        dev.commit_wait(t6).unwrap();
        dev.commit_wait(t5).unwrap();
        let report = audit_xftl(&dev).unwrap();
        assert_eq!(
            report.staged_entries, 0,
            "flushed group leaves nothing staged"
        );
    }

    #[test]
    fn mutation_lost_staged_rollback_copy_is_caught() {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write(5, &vec![1; ps]).unwrap();
        dev.write_tx(9, 5, &vec![2; ps]).unwrap();
        let _ticket = dev.commit_submit(9).unwrap();
        // The commit is staged, not durable: a crash still rolls back to
        // the old version, so reclaiming it now is a GC bug.
        let old = dev.base().l2p_peek(5).unwrap();
        dev.base_mut().chip_mut().erase(old.block).unwrap();
        // The wiped rollback copy is also the L2P-current page, so the
        // audit may trip on either check; what matters is that the loss
        // is not silently tolerated just because the entry is Committed.
        let err = audit_xftl(&dev).unwrap_err();
        assert!(
            matches!(
                err,
                AuditViolation::Xl2pPinnedOldLost { tid: 9, lpn: 5, .. }
                    | AuditViolation::MappedPageMissing { lpn: 5, .. }
            ),
            "expected a pinned-old/mapped-page loss, got: {err}"
        );
    }

    #[test]
    fn mutation_reclaimed_pinned_page_is_caught() {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write(5, &vec![1; ps]).unwrap();
        dev.write_tx(9, 5, &vec![2; ps]).unwrap();
        // Simulate a GC bug: erase the block holding the old committed
        // version that active tid 9 pins for rollback.
        let old = dev.base().l2p_peek(5).unwrap();
        dev.base_mut().chip_mut().erase(old.block).unwrap();
        let err = audit_xftl(&dev).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.starts_with("flash auditor:"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn mutation_entry_left_at_the_first_copy_is_caught() {
        use xftl_ftl::NoHook;
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write_tx(3, 2, &vec![0xAA; ps]).unwrap();
        dev.commit(3).unwrap();
        let first = dev.base().l2p_peek(2).unwrap();
        audit_xftl(&dev).unwrap();
        // The L2P moves on to a second copy behind the table's back, as a
        // GC move the hook failed to chase would leave it.
        dev.base_mut()
            .write_committed(2, &vec![0xAA; ps], &mut NoHook)
            .unwrap();
        let err = audit_xftl(&dev).unwrap_err();
        assert!(
            matches!(err, AuditViolation::Xl2pStaleEntry { tid: 3, lpn: 2, ppa, .. } if ppa == first),
            "expected a stale entry at {first:?}, got: {err}"
        );
    }

    /// tid 1 and then tid 2 commit lpn 5 whole; returns tid 1's page.
    fn dev_with_a_page_committed_twice() -> (XFtl, Ppa) {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write_tx(1, 5, &vec![0xA1; ps]).unwrap();
        dev.commit(1).unwrap();
        let first = dev.base().l2p_peek(5).unwrap();
        dev.write_tx(2, 5, &vec![0xB2; ps]).unwrap();
        dev.commit(2).unwrap();
        (dev, first)
    }

    #[test]
    fn a_page_committed_twice_keeps_only_the_newest_entry_to_the_l2p() {
        let (mut dev, _) = dev_with_a_page_committed_twice();
        let ps = dev.page_size();
        // tid 2's fold took tid 1's entry out of the table.
        assert!(dev.xl2p().lookup(1, 5).is_none());
        assert_eq!(dev.xl2p().committed_len(), 1);
        assert_eq!(audit_xftl(&dev).unwrap().xl2p_entries, 1);
        // The newest is held to the L2P as before.
        let newest = dev.base().l2p_peek(5).unwrap();
        dev.base_mut()
            .write_committed(5, &vec![0xB2; ps], &mut xftl_ftl::NoHook)
            .unwrap();
        let err = audit_xftl(&dev).unwrap_err();
        assert!(
            matches!(err, AuditViolation::Xl2pStaleEntry { tid: 2, lpn: 5, ppa, .. } if ppa == newest),
            "expected tid 2's entry to be stale, got: {err}"
        );
    }

    #[test]
    fn mutation_superseded_entry_left_in_the_table_is_caught() {
        let (dev, first) = dev_with_a_page_committed_twice();
        let newest = dev.base().l2p_peek(5).unwrap();
        // A table whose second fold left tid 1's entry behind.
        let mut table = Xl2pTable::new(64);
        table.upsert(1, 5, first).unwrap();
        table.mark_committed(1, 1);
        table.upsert(2, 5, newest).unwrap();
        table.mark_committed(2, 2);
        let err = audit_entries(dev.base(), &table, &[], &mut AuditReport::default()).unwrap_err();
        assert!(
            matches!(err, AuditViolation::Xl2pStaleEntry { tid: 1, lpn: 5, ppa, .. } if ppa == first),
            "expected tid 1's entry to be stale, got: {err}"
        );
    }

    #[test]
    fn trimming_a_committed_page_drops_its_entry() {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write_tx(3, 2, &vec![0xAA; ps]).unwrap();
        dev.commit(3).unwrap();
        dev.trim(2).unwrap();
        assert!(dev.xl2p().lookup(3, 2).is_none());
        audit_xftl(&dev).unwrap();
    }

    /// Two commits: the second generation is live, the first is stale.
    fn dev_with_a_stale_and_a_live_generation() -> (XFtl, Ppa, Ppa) {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write_tx(3, 2, &vec![0xAA; ps]).unwrap();
        dev.commit(3).unwrap();
        let stale = dev.base().xl2p_roots()[0];
        dev.write_tx(4, 7, &vec![0xBB; ps]).unwrap();
        dev.commit(4).unwrap();
        let live = dev.base().xl2p_roots()[0];
        assert_ne!(stale, live);
        audit_xftl(&dev).unwrap();
        (dev, stale, live)
    }

    #[test]
    fn mutation_stale_generation_left_valid_is_caught() {
        let (mut dev, stale, _) = dev_with_a_stale_and_a_live_generation();
        // Emulate a persist that forgot to invalidate its predecessor: a
        // retaining fold onto the stale page and back marks it valid and
        // leaves the mapping as it was.
        let home = dev.base().l2p_peek(2).unwrap();
        dev.base_mut().fold_mapping_retain(2, stale).unwrap();
        dev.base_mut().fold_mapping_retain(2, home).unwrap();
        let err = audit_xftl(&dev).unwrap_err();
        assert!(
            matches!(err, AuditViolation::Xl2pValidityMismatch { ppa, valid: true, .. } if ppa == stale),
            "expected the stale generation flagged, got: {err}"
        );
    }

    #[test]
    fn mutation_dropped_page_of_the_live_generation_is_caught() {
        // Marked dead, GC would erase the only evidence of the commits...
        let (mut dev, _, live) = dev_with_a_stale_and_a_live_generation();
        dev.base_mut().invalidate(live);
        let err = audit_xftl(&dev).unwrap_err();
        assert!(
            matches!(err, AuditViolation::Xl2pValidityMismatch { ppa, valid: false, .. } if ppa == live),
            "expected the live page flagged, got: {err}"
        );
        // ...and once it has, the live list names a page that is gone.
        let (mut dev, _, live) = dev_with_a_stale_and_a_live_generation();
        dev.base_mut().chip_mut().erase(live.block).unwrap();
        let err = audit_xftl(&dev).unwrap_err();
        assert!(
            matches!(err, AuditViolation::Xl2pImageBroken { index: 0, ppa, .. } if ppa == live),
            "expected the broken image flagged, got: {err}"
        );
    }

    /// Two flushes of one slab: its second translation page is live,
    /// its first superseded.
    fn dev_with_a_stale_and_a_live_translation_page() -> (PageMappedFtl, Ppa, Ppa) {
        let chip = FlashChip::new(FlashConfig::tiny(24), SimClock::new());
        let mut dev = PageMappedFtl::format(chip, 48).unwrap();
        let ps = dev.page_size();
        dev.write(0, &vec![1; ps]).unwrap();
        dev.flush().unwrap();
        let stale = dev.base().slab_homes()[0].unwrap();
        dev.write(1, &vec![2; ps]).unwrap();
        dev.flush().unwrap();
        let live = dev.base().slab_homes()[0].unwrap();
        assert_ne!(stale, live);
        dev.audit().unwrap();
        (dev, stale, live)
    }

    #[test]
    fn mutation_superseded_translation_page_left_valid_is_caught() {
        let (mut dev, stale, _) = dev_with_a_stale_and_a_live_translation_page();
        // Emulate a slab write that forgot to invalidate its predecessor
        // (the retaining-fold trick of the stale-generation test above).
        let data = dev.base().l2p_peek(0).unwrap();
        dev.base_mut().fold_mapping_retain(0, stale).unwrap();
        dev.base_mut().fold_mapping_retain(0, data).unwrap();
        let err = dev.audit().unwrap_err();
        assert!(
            matches!(err, AuditViolation::StaleTranslationPageValid { slab: 0, ppa } if ppa == stale),
            "expected the superseded page flagged, got: {err}"
        );
    }

    #[test]
    fn mutation_directory_not_at_the_newest_translation_page_is_caught() {
        use xftl_flash::Oob;
        let (mut dev, _, live) = dev_with_a_stale_and_a_live_translation_page();
        // Emulate a relocation that forgot to re-point the directory: a
        // newer page of the slab's index is on the media — a recovery
        // scan would adopt it — and the directory still names the old.
        let ps = dev.page_size();
        let copy = Ppa::new(23, 0);
        assert!(dev.base().chip().is_erased(copy));
        let oob = Oob {
            kind: PageKind::Map,
            ..Oob::data(0)
        };
        let chip = dev.base_mut().chip_mut();
        chip.program(copy, &vec![0u8; ps], oob).unwrap();
        let err = dev.audit().unwrap_err();
        assert!(
            matches!(
                err,
                AuditViolation::SlabHomeNotNewest { slab: 0, home, newest }
                    if home == Some(live) && newest == Some(copy)
            ),
            "expected the outranked home flagged, got: {err}"
        );
        // Counted dead, GC would erase the slab's only persisted copy.
        let (mut dev, _, live) = dev_with_a_stale_and_a_live_translation_page();
        dev.base_mut().invalidate(live);
        let err = dev.audit().unwrap_err();
        assert!(
            matches!(err, AuditViolation::SlabHomeNotNewest { slab: 0, home, .. } if home == Some(live)),
            "expected the dead home flagged, got: {err}"
        );
    }

    #[test]
    fn mutation_covered_block_hiding_a_post_root_page_is_caught() {
        use xftl_flash::Oob;
        let chip = FlashChip::new(FlashConfig::tiny(24), SimClock::new());
        let mut dev = PageMappedFtl::format(chip, 48).unwrap();
        let ps = dev.page_size();
        dev.write(0, &vec![1; ps]).unwrap();
        dev.flush().unwrap();
        // Emulate a frontier that mixed classes: a data block, first and
        // last page data, with a table-image page of a generation no root
        // covers in the middle. The recovery that finds it reads it in
        // full (it is newer than the root) and files it under data...
        let mut chip = dev.into_chip();
        let pages = chip.config().geometry.pages_per_block as u32;
        for page in 0..pages {
            let oob = if page == 3 {
                Oob {
                    kind: PageKind::XL2p,
                    tid: u64::MAX,
                    aux: 2,
                    ..Oob::data(0)
                }
            } else {
                Oob::data(8 + u64::from(page))
            };
            chip.program(Ppa::new(23, page), &vec![7u8; ps], oob)
                .unwrap();
        }
        let dev = PageMappedFtl::recover(chip).unwrap();
        // ...and its closing root now covers the block's last page: the
        // next scan would take the block on trust, table page and all.
        let err = dev.audit().unwrap_err();
        assert!(
            matches!(
                err,
                AuditViolation::CoveredBlockHidesPage { ppa, kind: PageKind::XL2p, .. }
                    if ppa == Ppa::new(23, 3)
            ),
            "expected the hidden table page flagged, got: {err}"
        );
    }

    #[test]
    fn mutation_reused_retired_block_is_caught() {
        use xftl_flash::{FaultKind, FaultPlan, FaultTrigger, Oob};
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write(0, &vec![1; ps]).unwrap();
        // Retire a pooled block via a forced erase failure...
        let chip = dev.base_mut().chip_mut();
        chip.set_fault_plan(
            FaultPlan::new(9).trigger(FaultTrigger::new(FaultKind::EraseFail).on_block(20)),
        );
        assert!(chip.erase(20).is_err());
        // ...then emulate a buggy allocator silently handing it back out.
        // The program physically succeeds — real NAND does not police
        // retirement — so only the auditor can catch the reuse.
        chip.program(Ppa::new(20, 0), &vec![7u8; ps], Oob::data(63))
            .unwrap();
        let err = audit_chip(dev.base().chip()).unwrap_err();
        assert!(
            matches!(err, AuditViolation::RetiredBlockReused { block: 20, .. }),
            "expected RetiredBlockReused, got: {err}"
        );
    }

    #[test]
    fn mutation_untracked_retirement_is_caught() {
        use xftl_flash::{FaultKind, FaultPlan, FaultTrigger};
        let mut dev = fresh_xftl(32, 64);
        let chip = dev.base_mut().chip_mut();
        chip.set_fault_plan(
            FaultPlan::new(10).trigger(FaultTrigger::new(FaultKind::EraseFail).on_block(21)),
        );
        assert!(chip.erase(21).is_err());
        // The FTL never saw the failure (injected behind its back), so its
        // bad-block table is stale: retired on-chip yet still pooled.
        let err = audit_base(dev.base()).unwrap_err();
        assert!(
            matches!(err, AuditViolation::RetiredBlockUntracked { block: 21 }),
            "expected RetiredBlockUntracked, got: {err}"
        );
    }

    #[test]
    fn fault_driven_retirement_audits_green_through_the_ftl() {
        use xftl_flash::{FaultKind, FaultPlan, FaultTrigger};
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        // The first GC erase fails; the FTL must retire the victim and
        // keep every structure consistent with the chip's health marks.
        dev.base_mut()
            .chip_mut()
            .set_fault_plan(FaultPlan::new(11).trigger(FaultTrigger::new(FaultKind::EraseFail)));
        for i in 0..1_200u64 {
            dev.write(i % 16, &vec![(i % 251) as u8; ps]).unwrap();
        }
        assert!(dev.base().bad_block_count() >= 1);
        let report = audit_xftl(&dev).unwrap();
        assert_eq!(report.retired_blocks, 1);
    }

    #[test]
    fn torn_pages_are_tolerated_but_counted() {
        let mut dev = fresh_xftl(32, 64);
        let ps = dev.page_size();
        dev.write(0, &vec![3; ps]).unwrap();
        dev.base_mut().chip_mut().arm_power_fuse(1);
        assert_eq!(
            dev.write(1, &vec![4; ps]),
            Err(DevError::Flash(FlashError::PowerLost))
        );
        let mut chip = dev.into_chip();
        chip.power_cycle();
        // The torn page is physics-legal; the recovered device must audit
        // green around it.
        let dev = XFtl::recover(chip).unwrap();
        let report = audit_xftl(&dev).unwrap();
        assert!(report.torn_pages <= 1);
    }
}
