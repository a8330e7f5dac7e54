//! The mapping directory: the one place that knows where an L2P slab
//! lives — in a cache frame ([`MappingCache`]), in a translation page on
//! flash, or both. The demand-paging engine below (fetch on miss, CLOCK
//! eviction, one translation-page program per dirty victim) is the only
//! code that moves a slab between the two.

use xftl_flash::{FlashChip, Nanos, Oob, PageKind, Ppa};

use super::pool::Stream;
use super::{with_read_retries, FtlBase};
use crate::cmt::MappingCache;
use crate::dev::Lpn;
use crate::error::Result;
use crate::meta;

/// Slabs an L2P of `logical_pages` entries splits into.
pub(super) fn slab_count(logical_pages: u64, page_size: usize) -> usize {
    (logical_pages as usize).div_ceil(meta::entries_per_slab(page_size))
}

#[derive(Debug)]
pub(super) struct MapDir {
    /// Residency and dirtiness of the demand-paged L2P (the CMT).
    cmt: MappingCache,
    /// Flash home of each persisted slab (`None` = never written: every
    /// entry unmapped). RAM only: on flash a slab's home is the newest
    /// intact `Map` page carrying its index, which the recovery scan
    /// finds by itself.
    homes: Vec<Option<Ppa>>,
}

impl MapDir {
    /// Loads the directory whose slabs live at `homes`: every persisted
    /// translation page, streamed once (with ECC retries — these pages
    /// are the mapping's only persisted copy) into an unbounded cache;
    /// the wrapper re-applies its RAM budget afterwards.
    /// A directory with no persisted slab (a fresh format) costs no flash
    /// read and leaves every slab resident as the clean all-unmapped
    /// frame: eviction just drops it, and a demand fetch with no home
    /// reinstalls the same frame.
    pub(super) fn load(chip: &mut FlashChip, homes: Vec<Option<Ppa>>) -> Result<MapDir> {
        let geo = chip.config().geometry;
        let eps = meta::entries_per_slab(geo.page_size);
        let mut buf = vec![0u8; geo.page_size];
        let mut cmt = MappingCache::new(homes.len(), eps, None);
        for (slab, home) in homes.iter().enumerate() {
            let Some(ppa) = home else {
                cmt.install(slab, vec![None; eps].into_boxed_slice(), false);
                continue;
            };
            with_read_retries(|| chip.read(*ppa, &mut buf)).0?;
            let entries = meta::decode_slab_entries(&buf, geo.pages_per_block);
            cmt.install(slab, entries, false);
        }
        Ok(MapDir { cmt, homes })
    }

    /// The residency bookkeeping, read-only.
    pub(super) fn cache(&self) -> &MappingCache {
        &self.cmt
    }

    /// Flash home of every slab, by slab index.
    pub(super) fn homes(&self) -> &[Option<Ppa>] {
        &self.homes
    }

    /// GC moved the translation page of slab `oob.lpn` from `old` to
    /// `dst`: the directory follows it if it still pointed at `old`. No
    /// root has to — the copy carries the slab index and a newer program
    /// sequence than the original.
    pub(super) fn relocated(&mut self, oob: &Oob, old: Ppa, dst: Ppa) {
        if let Some(home) = self.homes.get_mut(oob.lpn as usize) {
            if *home == Some(old) {
                *home = Some(dst);
            }
        }
    }
}

impl FtlBase {
    /// Current committed mapping of `lpn`. Demand-fetches the covering
    /// slab if it is not resident (a charged flash read, possibly with an
    /// eviction flush first) — translation traffic is a first-class cost.
    pub fn l2p_get(&mut self, lpn: Lpn) -> Result<Option<Ppa>> {
        self.ensure_resident(self.map.cmt.slab_of_lpn(lpn))?;
        Ok(self.map.cmt.get(lpn).unwrap_or(None))
    }

    /// Side-effect-free mapping lookup for auditors and oracles: resident
    /// slabs answer from RAM (no referenced-bit update); non-resident
    /// slabs are answered by decoding the persisted translation page via
    /// the chip's silent read — no clock, stats, or fault-plan activity.
    pub fn l2p_peek(&self, lpn: Lpn) -> Option<Ppa> {
        if lpn >= self.logical_pages {
            return None;
        }
        let cmt = &self.map.cmt;
        if let Some(entry) = cmt.peek(lpn) {
            return entry;
        }
        let home = self
            .map
            .homes
            .get(cmt.slab_of_lpn(lpn))
            .copied()
            .flatten()?;
        let mut buf = vec![0u8; self.page_size()];
        self.chip.read_silent(home, &mut buf)?;
        let entries = meta::decode_slab_entries(&buf, self.pages_per_block());
        entries
            .get((lpn as usize) % cmt.entries_per_slab())
            .copied()
            .flatten()
    }

    /// Marks valid every page the tables reference: each slab's home,
    /// every entry of the resident slabs — all of them while a recovery
    /// runs, which is when validity is rebuilt — and the live table image.
    pub(super) fn mark_referenced_valid(&mut self) {
        let slabs = 0..self.map.homes.len();
        let entries = slabs
            .filter_map(|slab| self.map.cmt.entries(slab))
            .flatten();
        let homes = self.map.homes.iter();
        for ppa in entries.chain(homes).flatten().chain(&self.xl2p_roots) {
            self.valid.mark_valid(*ppa);
        }
    }

    /// Bounds the mapping cache to `budget` resident slabs (`None` =
    /// unbounded), evicting down immediately. Dirty victims are flushed
    /// to translation pages first, so this is safe at any point.
    pub fn set_map_cache_budget(&mut self, budget: Option<usize>) -> Result<()> {
        self.map.cmt.set_budget(budget);
        while let Some(b) = budget {
            if self.map.cmt.resident() <= b || !self.evict_one()? {
                break;
            }
        }
        Ok(())
    }

    /// Re-points the committed mapping of `lpn` (`None` drops it),
    /// returning the displaced version, which stays *valid*. Fallible:
    /// the covering slab may need a demand fetch (and an eviction flush)
    /// first.
    fn remap_retain(&mut self, lpn: Lpn, to: Option<Ppa>) -> Result<Option<Ppa>> {
        let old = self.l2p_get(lpn)?;
        if old == to {
            return Ok(None);
        }
        self.map.cmt.set(lpn, to);
        if let Some(ppa) = to {
            self.valid.mark_valid(ppa);
        }
        Ok(old)
    }

    /// Points the committed mapping of `lpn` at `ppa` but keeps the
    /// displaced version *valid* and returns it: the caller retains it in
    /// a version chain for active snapshot readers and invalidates it
    /// later via [`FtlBase::invalidate`] once no snapshot can reach it.
    /// Recovery rebuilds validity from L2P membership, so retained
    /// versions that die in a power loss become garbage automatically.
    pub fn fold_mapping_retain(&mut self, lpn: Lpn, ppa: Ppa) -> Result<Option<Ppa>> {
        self.remap_retain(lpn, Some(ppa))
    }

    /// Drops the committed mapping of `lpn` but keeps the displaced copy
    /// valid and returns it — the snapshot-era counterpart of
    /// [`FtlBase::trim_lpn`], for callers retaining the pre-image in a
    /// version chain.
    pub fn trim_lpn_retain(&mut self, lpn: Lpn) -> Result<Option<Ppa>> {
        self.check_lpn(lpn)?;
        self.remap_retain(lpn, None)
    }

    /// Evicts until one more slab may become resident. While GC runs
    /// this is deferred: a dirty eviction programs translation pages,
    /// and spending free blocks on those inside the critical low-pool
    /// section can out-consume what the victim reclaims — `maybe_gc`
    /// calls this again once the pool is replenished.
    pub(super) fn evict_to_budget(&mut self) -> Result<()> {
        for _ in 0..self.map.cmt.over_budget_by() {
            if !self.evict_one()? {
                break;
            }
        }
        Ok(())
    }

    /// Makes `slab` resident: counts the hit or miss, evicts down to the
    /// budget (leaving room for the incoming frame), then installs the
    /// slab — decoded from its translation page if one was ever written,
    /// an all-unmapped frame otherwise.
    fn ensure_resident(&mut self, slab: usize) -> Result<()> {
        if self.map.cmt.is_resident(slab) {
            self.stats.map_cache_hits += 1;
            return Ok(());
        }
        self.stats.map_cache_misses += 1;
        if !self.chip.is_collecting() {
            self.evict_to_budget()?;
        }
        let entries = match self.map.homes.get(slab).copied().flatten() {
            Some(home) => {
                let mut buf = vec![0u8; self.page_size()];
                self.read_at(home, &mut buf)?;
                self.stats.map_demand_loads += 1;
                meta::decode_slab_entries(&buf, self.pages_per_block())
            }
            None => vec![None; self.map.cmt.entries_per_slab()].into_boxed_slice(),
        };
        self.map.cmt.install(slab, entries, false);
        Ok(())
    }

    /// Evicts one CLOCK victim. A dirty victim is written to a fresh
    /// translation page first — one queued program, and nothing else: no
    /// other slab rides along, no drain, no root — so the dropped frame
    /// never holds the only copy of a mapping. Returns `false` when
    /// nothing is resident.
    fn evict_one(&mut self) -> Result<bool> {
        let Some(victim) = self.map.cmt.pick_victim() else {
            return Ok(false);
        };
        if self.map.cmt.is_dirty(victim) {
            self.write_slab(victim)?;
            self.stats.map_evictions_dirty += 1;
            self.stats.map_flush_batches += 1;
        } else {
            self.stats.map_evictions_clean += 1;
        }
        let (_, dirty) = self.map.cmt.evict(victim);
        debug_assert!(!dirty, "evicted slab {victim} still dirty after flush");
        Ok(true)
    }

    /// The one writer of translation slabs: encodes resident slab `slab`
    /// and programs it to a fresh translation page, returning the page's
    /// OOB, where it landed and when it is on the media (`None`: the slab
    /// is not resident). Nothing between the encode and the caller's
    /// bookkeeping may change a mapping, or the flash copy would be stale
    /// while the frame claims to match it — so the program bypasses GC
    /// (it may also run *inside* GC); callers keep the pool fed between
    /// slabs.
    ///
    /// The page is its own pointer: its OOB carries the slab index, and
    /// the recovery scan takes the newest intact one per index. It keeps
    /// the current `ckpt_seq` — replaying post-checkpoint events over
    /// newer slab content is idempotent (folds are last-writer-wins in
    /// sequence order) — so it must only never be durable *before* a page
    /// it maps: queued, its cell program ordered behind every program
    /// issued so far.
    pub(super) fn program_slab(&mut self, slab: usize) -> Result<Option<(Oob, Ppa, Nanos)>> {
        let Some(entries) = self.map.cmt.entries(slab) else {
            return Ok(None);
        };
        let buf = meta::encode_slab_entries(entries, self.page_size(), self.pages_per_block());
        let oob = Oob {
            kind: PageKind::Map,
            ..Oob::data(slab as Lpn)
        };
        let after = self.chip.idle_at();
        let (dst, done) = self.program_at_frontier(oob, Stream::Map, &buf, 0, after, false)?;
        Ok(Some((oob, dst, done)))
    }

    /// Writes resident slab `slab` back: programs it, re-points the
    /// directory at the new page and marks the frame clean.
    pub(super) fn write_slab(&mut self, slab: usize) -> Result<()> {
        if let Some((_, dst, _)) = self.program_slab(slab)? {
            self.stats.map_writes += 1;
            if let Some(old) = self.map.homes[slab].replace(dst) {
                self.valid.mark_invalid(old);
            }
            self.map.cmt.mark_clean(slab);
        }
        Ok(())
    }
}
