//! The mapping directory: the one place that knows where an L2P slab
//! lives — in a cache frame ([`MappingCache`]), in a translation page on
//! flash, or both — and, in paged mode, where the GTD pages indexing
//! those translation pages live. The demand-paging engine below (fetch
//! on miss, CLOCK eviction, batched dirty flush) is the only code that
//! moves a slab between the two.

use xftl_flash::{FlashChip, Oob, PageKind, Ppa};

use super::pool::Stream;
use super::{with_read_retries, FtlBase, MAP_FLUSH_BATCH};
use crate::cmt::MappingCache;
use crate::dev::Lpn;
use crate::error::Result;
use crate::meta::{self, MetaPage};
use crate::validity::ValidityMap;

/// GTD pages a directory of `slabs` slabs needs: none while the slab
/// pointers (plus 8 slots the bad-block table can always count on) fit
/// inline in the root page. Decided by geometry alone, so recovery
/// recomputes it without trusting flash contents.
pub(super) fn gtd_pages_for(slabs: usize, page_size: usize) -> usize {
    if slabs + 8 > MetaPage::max_pointers(page_size) {
        meta::gtd_page_count(slabs, page_size)
    } else {
        0
    }
}

#[derive(Debug)]
pub(super) struct MapDir {
    /// Residency and dirtiness of the demand-paged L2P (the CMT).
    cmt: MappingCache,
    /// Flash home of each persisted slab (`None` = never written: every
    /// entry unmapped).
    homes: Vec<Option<Ppa>>,
    /// Paged-GTD mode: flash home of each GTD page (`None` until first
    /// written) and which GTD pages have stale persisted copies. Both
    /// empty in inline mode.
    gtd_homes: Vec<Option<Ppa>>,
    gtd_dirty: Vec<bool>,
    page_size: usize,
}

impl MapDir {
    /// Loads the directory a checkpoint root describes, and starts the
    /// validity map with every page it reaches: the GTD pages (paged
    /// mode), then every persisted translation page, streamed once (with
    /// ECC retries — these pages are the mapping's only persisted copy)
    /// into an unbounded cache; the wrapper re-applies its RAM budget
    /// afterwards.
    /// A root with no persisted slab (a fresh format) costs no flash
    /// read and leaves every slab resident as the clean all-unmapped
    /// frame: eviction just drops it, and a demand fetch with no home
    /// reinstalls the same frame.
    pub(super) fn load(chip: &mut FlashChip, root: &MetaPage) -> Result<(MapDir, ValidityMap)> {
        let geo = chip.config().geometry;
        let mut valid = ValidityMap::new(geo.blocks, geo.pages_per_block);
        let eps = meta::entries_per_slab(geo.page_size);
        let mut buf = vec![0u8; geo.page_size];
        let mut homes = root.map_locs.clone();
        let mut gtd_homes = vec![None; gtd_pages_for(homes.len(), geo.page_size)];
        for (g, loc) in root.gtd_locs.iter().enumerate().take(gtd_homes.len()) {
            with_read_retries(|| chip.read(*loc, &mut buf)).0?;
            meta::decode_gtd_page(&mut homes, g, &buf, geo.pages_per_block);
            valid.mark_valid(*loc);
            gtd_homes[g] = Some(*loc);
        }
        let mut cmt = MappingCache::new(homes.len(), eps, None);
        for (slab, home) in homes.iter().enumerate() {
            let Some(ppa) = home else {
                cmt.install(slab, vec![None; eps].into_boxed_slice(), false);
                continue;
            };
            with_read_retries(|| chip.read(*ppa, &mut buf)).0?;
            let entries = meta::decode_slab_entries(&buf, geo.pages_per_block);
            for e in entries.iter().flatten() {
                valid.mark_valid(*e);
            }
            cmt.install(slab, entries, false);
            valid.mark_valid(*ppa);
        }
        let dir = MapDir {
            cmt,
            // A GTD page the root does not list is (re-)created at the
            // next meta write.
            gtd_dirty: gtd_homes.iter().map(Option::is_none).collect(),
            gtd_homes,
            homes,
            page_size: geo.page_size,
        };
        Ok((dir, valid))
    }

    /// The residency bookkeeping, read-only.
    pub(super) fn cache(&self) -> &MappingCache {
        &self.cmt
    }

    /// Flash pages the directory itself occupies when fully persisted:
    /// one per slab plus the GTD pages.
    pub(super) fn directory_pages(&self) -> usize {
        self.homes.len() + self.gtd_homes.len()
    }

    /// The pointers a checkpoint root carries: every slab home, and the
    /// GTD page homes (empty in inline mode, where the root stores the
    /// slab homes themselves).
    pub(super) fn root_pointers(&self) -> (Vec<Option<Ppa>>, Vec<Ppa>) {
        let gtd: Vec<Ppa> = self.gtd_homes.iter().copied().flatten().collect();
        debug_assert_eq!(gtd.len(), self.gtd_homes.len());
        (self.homes.clone(), gtd)
    }

    /// Re-points slab `slab` at its new translation page, returning the
    /// superseded one. The covering GTD page goes stale with it.
    fn repoint(&mut self, slab: usize, dst: Ppa) -> Option<Ppa> {
        if !self.gtd_homes.is_empty() {
            self.gtd_dirty[meta::gtd_page_of(slab, self.page_size)] = true;
        }
        self.homes[slab].replace(dst)
    }

    /// GC moved a `Map`-kind page from `old` to `dst`: chases it if the
    /// directory (or, for a GTD page, the root) still points at `old`.
    /// Returns whether the persisted root is now stale.
    pub(super) fn relocated(&mut self, oob: &Oob, old: Ppa, dst: Ppa) -> bool {
        let idx = oob.lpn as usize;
        let gtd = oob.aux == meta::GTD_AUX;
        let homes = if gtd { &self.gtd_homes } else { &self.homes };
        let hit = homes.get(idx) == Some(&Some(old));
        if hit && gtd {
            self.gtd_homes[idx] = Some(dst);
        } else if hit {
            self.repoint(idx, dst);
        }
        hit
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
        if !self.in_gc {
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

    /// Evicts one CLOCK victim. A dirty victim first triggers a batched
    /// flush (which also cleans other dirty slabs riding along), so the
    /// dropped frame never holds the only copy of a mapping. Returns
    /// `false` when nothing is resident.
    fn evict_one(&mut self) -> Result<bool> {
        let Some(victim) = self.map.cmt.pick_victim() else {
            return Ok(false);
        };
        if self.map.cmt.is_dirty(victim) {
            self.flush_dirty_batch(victim)?;
            self.stats.map_evictions_dirty += 1;
        } else {
            self.stats.map_evictions_clean += 1;
        }
        let (_, dirty) = self.map.cmt.evict(victim);
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
        let others = self.map.cmt.dirty_slabs();
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
    pub(super) fn write_slab(&mut self, slab: usize) -> Result<()> {
        let Some(entries) = self.map.cmt.entries(slab) else {
            return Ok(());
        };
        let buf = meta::encode_slab_entries(entries, self.page_size(), self.pages_per_block());
        let dst = self.program_map_page(slab as u64, 0, &buf)?;
        self.stats.map_writes += 1;
        if let Some(old) = self.map.repoint(slab, dst) {
            self.valid.mark_invalid(old);
        }
        self.map.cmt.mark_clean(slab);
        Ok(())
    }

    /// Paged mode: re-programs every stale GTD page, so that root → GTD
    /// → translation pages are all consistent on flash before the root
    /// is written, then drains — the GTD pages themselves must land
    /// before the root that points at them. No-op in inline mode.
    pub(super) fn flush_gtd(&mut self) -> Result<()> {
        for g in 0..self.map.gtd_homes.len() {
            if !self.map.gtd_dirty[g] && self.map.gtd_homes[g].is_some() {
                continue;
            }
            let buf =
                meta::encode_gtd_page(&self.map.homes, g, self.page_size(), self.pages_per_block());
            let dst = self.program_map_page(g as u64, meta::GTD_AUX, &buf)?;
            self.stats.gtd_writes += 1;
            if let Some(old) = self.map.gtd_homes[g].replace(dst) {
                self.valid.mark_invalid(old);
            }
            self.map.gtd_dirty[g] = false;
        }
        if !self.map.gtd_homes.is_empty() {
            self.chip.drain();
        }
        Ok(())
    }

    /// Programs one `Map`-kind page into the mapping frontier WITHOUT
    /// running GC first — the slab and GTD write path, which must work
    /// from inside GC itself. Queued.
    fn program_map_page(&mut self, lpn: Lpn, aux: u32, buf: &[u8]) -> Result<Ppa> {
        let oob = Oob {
            kind: PageKind::Map,
            aux,
            ..Oob::data(lpn)
        };
        Ok(self
            .program_at_frontier(oob, Stream::Map, buf, 0, 0, false)?
            .0)
    }
}
