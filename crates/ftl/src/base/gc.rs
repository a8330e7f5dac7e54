//! The collector: when to reclaim space (`maybe_gc` inline, below the
//! floor; `gc_step` in the background, at every durability
//! acknowledgement, from the low-water mark down), which closed block
//! to reclaim (greedy, FIFO, cost-benefit), and how (`collect_block`:
//! relocate live pages up to a copy budget, chase every table that
//! pointed at them, erase once none is left). The background scrubber
//! and static wear leveling ride the inline tick and the same
//! relocation path.

use std::cmp::Reverse;

use xftl_flash::{FlashError, Nanos, PageKind, Ppa};
use xftl_trace::OpClass;

use super::pool::{BlockState, Class, Fifo, Stream};
use super::{origin_seq, with_read_retries, FtlBase, GcHook, GcPolicy, RETAINED_COPY_TID};
use crate::error::{DevError, Result};
use crate::health::{DeviceState, ScrubConfig, ScrubReason};

/// Inline GC starts when the free-block pool drops below the floor.
/// This is the single-channel value; multi-channel devices raise it (see
/// [`FtlBase::gc_floor`]) because one GC pass can open a cold write
/// frontier on every channel straight out of the pool.
const GC_LOW_WATER: usize = 3;

/// A checkpoint root is due once this many blocks' worth of pages have
/// been programmed since the last one (see [`FtlBase::root_due`]): what
/// bounds the window a recovery rolls forward — at the OpenSSD geometry
/// 4,096 programs, some 0.2 s of scan, against one root of as many
/// programs as there are dirty slabs.
const ROOT_WINDOW_BLOCKS: u64 = 32;

/// Why a block is being collected (relocate-and-erase): normal space
/// reclamation, a scrub of at-risk data, or static wear leveling. Decides
/// which stats and trace class the copies charge to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollectKind {
    Gc,
    Scrub,
    WearLevel,
}

impl FtlBase {
    fn channels(&self) -> usize {
        self.chip.config().geometry.channels.max(1) as usize
    }

    /// The geometry-scaled inline GC trigger: single-channel devices
    /// keep the legacy floor, multi-channel devices hold two blocks of
    /// headroom per channel so a GC pass that opens cold frontiers on
    /// every channel cannot drain the pool mid-collection.
    fn gc_floor(&self) -> usize {
        GC_LOW_WATER.max(2 * self.channels())
    }

    /// The mark background steps keep the pool at: the floor, plus a
    /// block for every lane of the survivors' own log not yet open. The
    /// first survivors take that block from the pool, and a step, not
    /// the next host write, should be what pays for it.
    fn gc_low_water(&self) -> usize {
        let unopened = match self.survivor_log() {
            Stream::Cold => self.pool.unopened_lanes(Stream::Cold),
            Stream::Hot | Stream::Map => 0,
        };
        self.gc_floor() + unopened
    }

    /// True once the programs since the last root fill 32 blocks
    /// (`ROOT_WINDOW_BLOCKS`): recovery rolls all of them forward,
    /// so each personality asks this where it runs its own checkpoint
    /// routine and keeps the window — and the recovery scan — bounded
    /// however rarely the host flushes.
    pub fn root_due(&self) -> bool {
        let window = ROOT_WINDOW_BLOCKS * self.pages_per_block() as u64;
        self.chip.next_seq() - 1 - self.ckpt_seq >= window
    }

    /// Pages programmed since the last root, less the copies GC, the
    /// scrubber and wear leveling made among them: the roll-forward a
    /// recovery scans, as far as the host's traffic fills it.
    pub fn programs_since_root(&self) -> u64 {
        self.chip.next_seq() - 1 - self.ckpt_seq - self.copies_since_root
    }

    /// Runs `collect` with the chip's commands marked the collector's:
    /// while they are, the background step and budget-enforcing
    /// evictions are suspended.
    fn gc_section(&mut self, collect: impl FnOnce(&mut Self) -> Result<()>) -> Result<()> {
        self.chip.set_collecting(true);
        let r = collect(self);
        self.chip.set_collecting(false);
        r
    }

    /// Runs garbage collection until the free pool is back at the floor.
    /// Wrappers call this before host writes. The background
    /// scrubber and static wear leveling piggyback on this tick: every
    /// [`ScrubConfig::interval_ops`] calls (and only with pool headroom
    /// to spare) they each relocate at most one at-risk block.
    pub(super) fn maybe_gc(&mut self, hook: &mut dyn GcHook) -> Result<()> {
        debug_assert!(!self.chip.is_collecting(), "nothing inside GC asks for GC");
        while self.pool.free_len() < self.gc_floor() {
            let r = self.gc_section(|b| {
                let victim = b.next_victim().ok_or(DevError::OutOfSpace)?;
                b.stats.gc_inline_collections += 1;
                b.collect_block(victim, CollectKind::Gc, usize::MAX, hook)
            });
            self.or_space_error(r)?;
        }
        // GC's demand fetches overshoot the cache budget; trim now that
        // the pool is back above the water mark.
        self.evict_to_budget()?;
        if let Some(cfg) = self.scrub {
            self.scrub_tick += 1;
            if self.scrub_tick >= cfg.interval_ops.max(1) && self.pool.free_len() >= self.gc_floor()
            {
                self.scrub_tick = 0;
                let r = self
                    .scrub_once(cfg, hook)
                    .and_then(|()| self.wear_level_once(cfg, hook));
                self.or_space_error(r)?;
            }
        }
        Ok(())
    }

    /// One background collection step. Every personality calls this as
    /// the last act of a durability acknowledgement — the instant the
    /// host is about to think and the chip about to idle — so the copies
    /// it queues (and never waits for) fill that gap instead of stalling
    /// the write that would otherwise trip the floor. It starts only
    /// with the pool within one block of the low-water mark, and sizes
    /// itself from device state. Collecting a victim that held `v` valid
    /// pages of `ppb` yields `ppb − v`, so every page programmed since
    /// the previous step owes `v / (ppb − v)` copies (rounded up; at
    /// least one; just the erase once none is left): rate matching — the
    /// victim is empty by the time the pool has consumed the space it
    /// will free. A step that starts a victim pays one interval ahead;
    /// one whose copies opened a block and took the pool below the floor
    /// pays on, since the next write would otherwise collect inline; and
    /// one that finishes a victim with the pool still at the floor goes
    /// on to the next — until its copies fill the floor's worth of
    /// blocks: where every victim is nearly full, each one's copies open
    /// a block as its erase frees one, and the step would otherwise run
    /// on through the whole device in one acknowledgement. The next step
    /// continues the victim it stopped inside. See DESIGN.md §14,
    /// "Background collection".
    pub fn gc_step(&mut self, hook: &mut dyn GcHook) -> Result<()> {
        let now = self.chip.next_seq();
        let programmed = now - std::mem::replace(&mut self.paced_seq, now);
        if self.chip.is_collecting() || self.device_state == DeviceState::ReadOnly {
            return Ok(());
        }
        let mut due = self.pool.free_len() <= self.gc_low_water();
        // What the step may still copy out of victims it goes on to.
        let mut left = (self.gc_floor() * self.pages_per_block()) as u64;
        let mut first = true;
        while due {
            let Some(victim) = self.next_victim() else {
                break;
            };
            // What the victim held when it was picked, less what the host
            // has invalidated since: copies made plus copies to make.
            let copied = self.draining.map_or(0, |d| d.1);
            let v = u64::from(self.valid.valid_in_block(victim)) + copied;
            // No step can run during the host's next burst, so a fresh
            // victim pays for that one in advance as well as for the one
            // behind, taking it to be no longer than the last.
            let intervals = if copied == 0 { 2 } else { 1 };
            let owed = (intervals * programmed * v).div_ceil(self.pages_per_block() as u64 - v);
            let owed = match (first, copied) {
                (false, 0) if left == 0 => break,
                (false, 0) => owed.max(1).min(left),
                _ => owed.max(1),
            };
            first = false;
            let held = self.valid.valid_in_block(victim);
            self.stats.gc_background_steps += 1;
            let r =
                self.gc_section(|b| b.collect_block(victim, CollectKind::Gc, owed as usize, hook));
            self.or_space_error(r)?;
            let still = self
                .draining
                .map_or(0, |_| self.valid.valid_in_block(victim));
            left = left.saturating_sub(u64::from(held - still));
            let (free, floor) = (self.pool.free_len(), self.gc_floor());
            due = if self.draining.is_some() {
                free < floor
            } else {
                free <= floor
            };
        }
        self.evict_to_budget()
    }

    /// Classifies a pool-exhaustion failure: on a device that has lost
    /// blocks to retirement this is end-of-life degradation (the device
    /// goes read-only, permanently); on a healthy device it is the host
    /// over-filling its over-provisioning (a transient, logical error).
    pub(super) fn or_space_error<T>(&mut self, r: Result<T>) -> Result<T> {
        match r {
            Err(DevError::OutOfSpace) if self.bad_block_count() > 0 => {
                self.enter_state(DeviceState::ReadOnly);
                Err(DevError::ReadOnly)
            }
            other => other,
        }
    }

    /// Records an erase failure: the block leaves every allocation path
    /// for good. Its live pages (if any) were copied out by the caller,
    /// so retirement costs capacity, never data. Once retirements eat
    /// into the spare headroom the format-time sizing guaranteed, the
    /// device enters the `Degraded` state.
    pub(super) fn retire_block(&mut self, block: u32) {
        if self.pool.retire(block) {
            self.stats.bad_block_retirements += 1;
        }
        if self.short_of_spares() {
            self.enter_state(DeviceState::Degraded);
        }
    }

    /// Closed blocks that hold something: the victim candidates. A block
    /// abandoned before its first page landed has nothing to collect.
    fn candidates(&self) -> impl Iterator<Item = (u32, Class)> + '_ {
        self.pool
            .closed()
            .filter(|&(b, _)| self.chip.write_point(b) != Some(0))
    }

    /// Scores every closed block against the scrub thresholds and
    /// relocates the riskiest one whose score crosses the trigger.
    /// Deterministic integer math: each component contributes
    /// `value * 1000 / threshold`, and a combined score ≥ 1000 — either
    /// threshold reached, or two near misses compounding — fires. The
    /// reported reason is the dominant component.
    ///
    /// Read disturb does not wait for a frontier to fill. The hot and
    /// map frontiers fill under the traffic that opened them, but a cold
    /// lane fed by a trickle of survivors may stay open for good, and so
    /// may the hot ones of an X-FTL — the device with a live table
    /// image — whose commits program little else than their images:
    /// their blocks are scored too, and one that fires is closed before
    /// it is relocated.
    fn scrub_once(&mut self, cfg: ScrubConfig, hook: &mut dyn GcHook) -> Result<()> {
        let cold = Some(BlockState::Open(Stream::Cold));
        let hot = (self.xl2p_generation != 0).then_some(BlockState::Open(Stream::Hot));
        let open = (self.pool.open()).filter(|b| [cold, hot].contains(&self.pool.state(*b)));
        let blocks = self.candidates().map(|(b, _)| b).chain(open);
        let at_risk = blocks.filter_map(|b| {
            let s_read = self.chip.block_read_count(b) * 1000 / cfg.read_threshold.max(1);
            let s_flip = self.chip.block_corrected_flips(b) * 1000 / cfg.flip_threshold.max(1);
            let score = s_read.saturating_add(s_flip);
            let reason = if s_flip >= s_read {
                ScrubReason::EccFeedback
            } else {
                ScrubReason::ReadDisturb
            };
            (score >= 1000).then_some((score, b, reason))
        });
        // `min_by_key` keeps the first of equals: the lowest closed block
        // index among the top scorers.
        let Some((_, victim, reason)) = at_risk.min_by_key(|&(score, _, _)| Reverse(score)) else {
            return Ok(());
        };
        self.pool.abandon(victim);
        self.gc_section(|b| b.collect_block(victim, CollectKind::Scrub, usize::MAX, hook))?;
        self.last_scrub = Some((victim, reason));
        Ok(())
    }

    /// Static wear leveling: when the erase-count spread between the
    /// most-worn block and the coldest closed block exceeds the cap, the
    /// cold block is relocated so its low-wear cells rejoin the free pool
    /// (instead of sitting pinned under data that never changes while the
    /// rest of the array wears out).
    fn wear_level_once(&mut self, cfg: ScrubConfig, hook: &mut dyn GcHook) -> Result<()> {
        let max_wear = (self.first_pool_block()..self.chip.config().geometry.blocks as u32)
            .filter(|&b| !self.is_bad_block(b))
            .map(|b| self.chip.erase_count(b))
            .max()
            .unwrap_or(0);
        let coldest = self
            .candidates()
            .map(|(b, _)| (self.chip.erase_count(b), b))
            .min_by_key(|&(wear, _)| wear);
        match coldest {
            Some((cold_wear, victim))
                if max_wear.saturating_sub(cold_wear) > cfg.wear_delta_cap =>
            {
                self.gc_section(|b| {
                    b.collect_block(victim, CollectKind::WearLevel, usize::MAX, hook)
                })
            }
            _ => Ok(()),
        }
    }

    /// Greedy fallback: fewest valid pages among the candidates (the
    /// lowest block index among equals).
    fn pick_victim_greedy(&self) -> Option<u32> {
        let (count, victim) = self
            .candidates()
            .map(|(b, _)| (self.valid.valid_in_block(b), b))
            .min_by_key(|&(count, _)| count)?;
        // A fully valid victim cannot gain space; give up rather than churn.
        ((count as usize) < self.pages_per_block()).then_some(victim)
    }

    /// Cost-benefit selection: maximize `(1 − u) / (1 + u) × age`. The
    /// benefit term is the reclaimable space over the copy cost (Kawaguchi
    /// et al.); the age term (programs since the block last took a write)
    /// lets old, moderately-valid cold blocks eventually beat young nearly
    /// -empty hot blocks whose garbage is still accumulating. Data and
    /// mapping blocks compete as separate classes — the best scorer of
    /// each is computed and the global winner collected — so the stats can
    /// attribute victims per class and neither class starves the other.
    /// A dead candidate short-circuits all of it.
    fn pick_victim_cost_benefit(&self) -> Option<u32> {
        let now = self.chip.next_seq();
        let ppb = self.pages_per_block();
        let mut best: [Option<(f64, u32)>; 2] = [None, None];
        for (b, class) in self.candidates() {
            let valid = self.valid.valid_in_block(b);
            if valid == 0 {
                // Dead: it costs one erase and its garbage cannot grow, so
                // the age it would otherwise wait out buys nothing — and
                // a dead mapping block is one more the recovery scan must
                // read in full.
                return Some(b);
            }
            if valid as usize >= ppb {
                continue; // nothing reclaimable
            }
            let u = f64::from(valid) / ppb as f64;
            let age = now.saturating_sub(self.pool.last_program_seq(b)) as f64;
            // All inputs are small exact integers, so the f64 score is a
            // deterministic function of device state; ties break on the
            // lower block index because `>` keeps the first maximum.
            let score = (1.0 - u) / (1.0 + u) * age;
            let slot = &mut best[usize::from(class == Class::Map)];
            if slot.is_none_or(|(s, _)| score > s) {
                *slot = Some((score, b));
            }
        }
        match (best[0], best[1]) {
            (Some((sd, bd)), Some((sm, bm))) => Some(if sm > sd { bm } else { bd }),
            (Some((_, b)), None) | (None, Some((_, b))) => Some(b),
            (None, None) => None,
        }
    }

    /// The victim to collect next: the one a background step left partly
    /// drained, while it is still a closed block, before any fresh pick —
    /// the FIFO picker pops its queue, so re-picking would lose it.
    fn next_victim(&mut self) -> Option<u32> {
        let still_closed =
            |&(b, _): &(u32, u64)| matches!(self.pool.state(b), Some(BlockState::Closed(_)));
        if self.draining.filter(still_closed).is_none() {
            self.draining = self.pick_victim().map(|b| (b, 0));
        }
        self.draining.map(|(b, _)| b)
    }

    fn pick_victim(&mut self) -> Option<u32> {
        match self.gc_policy {
            // Urgent-GC fallback: with the free pool nearly drained, the
            // age-weighted score must not pick a high-valid old block —
            // copying most of a block while nearly out of space is how a
            // device deadlocks. Greedy's min-valid victim maximizes the
            // immediate net gain; cost-benefit resumes once headroom is
            // back.
            GcPolicy::CostBenefit if self.pool.free_len() > self.channels() => {
                return self.pick_victim_cost_benefit();
            }
            GcPolicy::Fifo => {
                let ppb = self.pages_per_block() as u32;
                let (chip, valid) = (&self.chip, &self.valid);
                // Oldest closed data block that yields at least one page.
                let oldest = self.pool.fifo_next(|b| {
                    if chip.write_point(b) == Some(0) {
                        Fifo::Drop
                    } else if valid.valid_in_block(b) * 10 >= ppb * 9 {
                        // (Nearly) fully valid: collecting it would copy
                        // ~a whole block to reclaim a page or two. Recycle
                        // to the back and try the next — even simple
                        // firmware bounds its write amplification this way.
                        Fifo::Requeue
                    } else {
                        Fifo::Take
                    }
                });
                if oldest.is_some() {
                    return oldest;
                }
            }
            GcPolicy::CostBenefit | GcPolicy::Greedy => {}
        }
        self.pick_victim_greedy()
    }

    /// Relocates up to `budget` live pages of `victim` to the frontier,
    /// fixes every table that pointed at them, and erases the block once
    /// no live page is left in it — otherwise the victim is remembered as
    /// the one in progress. Shared by inline GC (unbounded budget), the
    /// background step, the scrubber (whose erase also resets the block's
    /// read-disturb and retention damage), and static wear leveling;
    /// `why` attributes the copies to the right stats and trace class.
    fn collect_block(
        &mut self,
        victim: u32,
        why: CollectKind,
        mut budget: usize,
        hook: &mut dyn GcHook,
    ) -> Result<()> {
        let ppb = self.pages_per_block();
        let copy_class = match why {
            CollectKind::Gc => OpClass::GcCopy,
            CollectKind::Scrub => OpClass::ScrubCopy,
            CollectKind::WearLevel => OpClass::WearLevelCopy,
        };
        self.collecting = Some(victim);
        // Copies earlier steps made out of this victim count with it.
        let earlier = self.draining.take_if(|d| d.0 == victim);
        let mut copied = earlier.map_or(0, |d| d.1);
        for page in 0..ppb as u32 {
            let old = Ppa::new(victim, page);
            if !self.valid.is_valid(old) {
                continue;
            }
            if budget == 0 {
                break;
            }
            budget -= 1;
            let t_copy = self.chip.issue_at();
            // The scratch buffer must be restored on every error path.
            let mut buf = std::mem::take(&mut self.scratch);
            let moved = self.relocate_page(old, &mut buf);
            self.scratch = buf;
            let (oob, mapped_here, dst, prog_done) = moved?;
            self.chip
                .recorder()
                .record_span(copy_class, 0, oob.lpn, t_copy, prog_done);
            match why {
                CollectKind::Gc => {
                    self.stats.gc_copies += 1;
                    self.pool.note_gc_copy();
                }
                CollectKind::Scrub => self.stats.scrub_copies += 1,
                CollectKind::WearLevel => self.stats.wear_level_copies += 1,
            }
            copied += 1;
            self.copies_since_root += 1;
            self.valid.mark_invalid(old);
            // Only RAM chases a relocated translation or table-image
            // page. No root names either: the copy carries its slab index
            // (and a newer sequence), or its generation id, and the
            // recovery scan finds it there.
            match oob.kind {
                PageKind::Data if mapped_here => {
                    self.fold_mapping_retain(oob.lpn, dst)?;
                }
                PageKind::Map => self.map.relocated(&oob, old, dst),
                PageKind::XL2p => {
                    if let Some(slot) = self.xl2p_roots.iter_mut().find(|p| **p == old) {
                        *slot = dst;
                    }
                }
                PageKind::Data | PageKind::Commit => {}
                PageKind::Meta => unreachable!("meta blocks are never GC victims"),
            }
            hook.relocated(&oob, old, dst);
        }
        if self.valid.valid_in_block(victim) > 0 {
            // Budget spent with live pages left: the erase is a later
            // step's.
            self.draining = Some((victim, copied));
            return Ok(());
        }
        let was = self.pool.state(victim);
        // The root lists the bad blocks: stale once one is retired.
        let mut meta_stale = false;
        // The erase is queued too; the chip's per-unit busy tracking
        // already orders it after the in-flight reads from this block.
        let reclaimed = match self.chip.erase_queued(victim, 0) {
            Ok(_) => {
                self.pool.release(victim);
                was
            }
            Err(FlashError::EraseFailed(_)) => {
                // Every live page was already copied out above, so losing
                // the block costs capacity, not data. Retire it; the
                // refreshed meta root below persists the table.
                self.retire_block(victim);
                meta_stale = true;
                None
            }
            Err(e) => return Err(e.into()),
        };
        let cost_benefit = u64::from(self.gc_policy == GcPolicy::CostBenefit);
        match why {
            // The validity ratio (the paper's aging knob) concerns
            // reclaimed *data* blocks; everything else — nearly-dead
            // mapping blocks, victims lost to retirement — is bookkept
            // apart.
            CollectKind::Gc if reclaimed == Some(BlockState::Closed(Class::Data)) => {
                self.stats.gc_runs += 1;
                self.stats.gc_victim_pages += ppb as u64;
                self.stats.gc_valid_pages += copied;
                self.stats.gc_cb_data_victims += cost_benefit;
            }
            CollectKind::Gc => {
                self.stats.gc_runs += 1;
                self.stats.gc_map_runs += 1;
                self.stats.gc_cb_map_victims += cost_benefit;
            }
            CollectKind::Scrub => self.stats.scrub_runs += 1,
            CollectKind::WearLevel => self.stats.wear_level_runs += 1,
        }
        if meta_stale {
            self.write_meta()?;
        }
        Ok(())
    }

    /// Copies the live page at `old` to the frontier through `buf`,
    /// returning its original OOB, whether the committed mapping pointed
    /// at it, the new location and the instant the copy is on the media.
    /// Copy-backs ride the device queue: the read and the program of one
    /// page are chained (`not_before`), but copies of different pages
    /// overlap when source and destination sit on different channels, so
    /// GC steals less host time. The home of a slab resident and clean in
    /// the mapping cache holds what the frame holds: it is programmed
    /// from RAM, with the OOB a copy would carry and no flash read.
    fn relocate_page(
        &mut self,
        old: Ppa,
        buf: &mut [u8],
    ) -> Result<(xftl_flash::Oob, bool, Ppa, Nanos)> {
        let map = matches!(
            self.pool.state(old.block),
            Some(BlockState::Closed(Class::Map) | BlockState::Open(Stream::Map))
        );
        let slab = map.then(|| self.map.homes().iter().position(|h| *h == Some(old)));
        let slab = slab.flatten().filter(|&s| !self.map.cache().is_dirty(s));
        if let Some((oob, dst, done)) = slab.map(|s| self.program_slab(s)).transpose()?.flatten() {
            self.stats.gc_slab_rewrites += 1;
            return Ok((oob, false, dst, done));
        }
        // ECC failures on the source get bounded re-reads.
        let (r, retries) = with_read_retries(|| self.chip.read_queued(old, buf, 0));
        self.stats.read_retries += retries;
        let (oob, read_done) = r?;
        let data = oob.kind == PageKind::Data;
        // The committed-mapping test may demand-fetch the covering slab
        // (a charged translation read — part of GC's true cost in a
        // demand-paged FTL).
        let mapped_here = data && self.l2p_get(oob.lpn)? == Some(old);
        let mut new_oob = oob;
        if mapped_here {
            // A GC copy of the *committed* version of a data page is
            // re-stamped tid = 0 so the recovery roll-forward treats it as
            // committed state even if its writer's X-L2P entry is long gone.
            // It keeps the program sequence of the write it copies
            // (`origin_seq`), which tells X-FTL's recovery a moved base of
            // a page differential from a newer write of the page.
            new_oob.tid = 0;
            let origin = origin_seq(oob.seq, oob.tid, oob.aux);
            debug_assert!(origin <= u64::from(u32::MAX), "sequences fit the OOB word");
            new_oob.aux = origin as u32;
        } else if data && oob.tid == 0 {
            // A valid tid-0 page the L2P does not point at is a
            // snapshot-retained pre-image. Its copy gets a fresh (newer)
            // program sequence, so left stamped tid 0 the recovery
            // roll-forward would resurrect the superseded version over
            // the page's current state. Mark it as a retained copy, which
            // recovery never folds.
            new_oob.tid = RETAINED_COPY_TID;
        } else if oob.kind == PageKind::Commit && oob.lpn == 0 {
            // A commit record seals its group at the record's program
            // sequence — among the other groups' records and the tid-0
            // copies above. The copy's own sequence is newer than records
            // written since, so it carries the original's (OOB `lpn`).
            new_oob.lpn = oob.seq;
        }
        // GC data copies are cold by definition — they survived a whole
        // block's lifetime without being overwritten.
        let stream = if data {
            self.survivor_log()
        } else {
            Stream::Map
        };
        // Copy programs get the same bounded re-execution as host
        // writes: a failed copy-back must not lose the live page.
        let (dst, prog_done) =
            self.program_at_frontier(new_oob, stream, buf, read_done, 0, false)?;
        if stream == Stream::Cold {
            self.stats.cold_writes += 1;
        }
        Ok((oob, mapped_here, dst, prog_done))
    }

    /// The log GC survivors go to: the cold log, where they no longer
    /// age the hot blocks they would be copied out of again. The one
    /// exception is FIFO without heat classification, the one-log
    /// firmware the paper measured (DESIGN.md §9): there the copies
    /// rejoin the host data, which is what makes victim validity track
    /// utilization.
    fn survivor_log(&self) -> Stream {
        if self.gc_policy == GcPolicy::Fifo && !self.pool.heat_classified() {
            Stream::Hot
        } else {
            Stream::Cold
        }
    }
}

#[cfg(test)]
mod tests {
    use xftl_flash::{FlashChip, FlashConfigBuilder, SimClock};

    use super::*;
    use crate::base::NoHook;

    const POLICIES: [GcPolicy; 3] = [GcPolicy::Greedy, GcPolicy::Fifo, GcPolicy::CostBenefit];
    const PPB: u64 = 16;
    const LOGICAL: u64 = 128;

    /// 16 blocks of 16 tiny pages exporting 128: at 57 % utilisation a
    /// victim holds a handful of live pages.
    fn base(policy: GcPolicy) -> FtlBase {
        let cfg = FlashConfigBuilder::tiny()
            .pages_per_block(PPB as usize)
            .build();
        let mut f = FtlBase::format(FlashChip::new(cfg, SimClock::new()), LOGICAL).unwrap();
        f.set_gc_policy(policy);
        f
    }

    /// Where the `i`-th write of a fixed random-looking schedule goes
    /// (splitmix64 of `i`).
    fn lpn_of(i: u64) -> u64 {
        let z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % LOGICAL
    }

    /// The `i`-th write; the fill names it, so a read tells which write
    /// it returns.
    fn write(f: &mut FtlBase, i: u64) {
        let data = vec![(i % 251) as u8; f.page_size()];
        f.write_committed(lpn_of(i), &data, &mut NoHook).unwrap();
    }

    /// Every page holds the fill of its last write among the first `n`.
    fn assert_last_writes(f: &mut FtlBase, n: u64) {
        let mut last = [0u8; LOGICAL as usize];
        for i in 0..n {
            last[lpn_of(i) as usize] = (i % 251) as u8;
        }
        let mut out = vec![0u8; f.page_size()];
        for (lpn, fill) in last.iter().enumerate() {
            f.read_committed(lpn as u64, &mut out).unwrap();
            assert_eq!(out[0], *fill, "lpn {lpn}");
        }
    }

    /// Writes, with no acknowledgement, until the pool is down to the
    /// mark; returns how many writes that took.
    fn write_down_to_the_mark(f: &mut FtlBase) -> u64 {
        let mut n = 0;
        while f.pool.free_len() > f.gc_low_water() {
            write(f, n);
            n += 1;
        }
        assert_eq!(f.stats().gc_runs, 0, "the mark is above the inline trigger");
        n
    }

    /// A step that believes `programs` pages were programmed since the
    /// previous one.
    fn step_after(f: &mut FtlBase, programs: u64) {
        f.paced_seq = f.chip.next_seq().saturating_sub(programs);
        f.gc_step(&mut NoHook).unwrap();
    }

    /// Flash operation counts, the clock, and where every page ended up:
    /// equal fingerprints mean the same program/erase sequence.
    fn fingerprint(f: &FtlBase) -> (u64, u64, u64, u64, u64) {
        let s = f.flash_stats();
        let placement = (0..LOGICAL).fold(0xcbf2_9ce4_8422_2325u64, |h, lpn| {
            let at = f.l2p_peek(lpn).map_or(u64::MAX, |p| p.linear(PPB as usize));
            (h ^ at).wrapping_mul(0x100_0000_01b3)
        });
        (s.programs, s.reads, s.erases, f.clock().now(), placement)
    }

    #[test]
    fn gc_rewrites_clean_resident_slabs_from_ram_without_a_read() {
        const MAPPED: u64 = 300;
        let cfg = FlashConfigBuilder::tiny()
            .pages_per_block(PPB as usize)
            .blocks(32)
            .build();
        let mut f = FtlBase::format(FlashChip::new(cfg, SimClock::new()), MAPPED).unwrap();
        for lpn in 0..MAPPED {
            let data = vec![lpn as u8; f.page_size()];
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        }
        f.checkpoint(&mut NoHook).unwrap();
        // The last slab is rewritten until the translation block closes.
        let last = vec![0u8; f.page_size()];
        while f
            .map
            .homes()
            .iter()
            .flatten()
            .all(|h| h.page + 1 < PPB as u32)
        {
            f.write_committed(MAPPED - 1, &last, &mut NoHook).unwrap();
            f.checkpoint(&mut NoHook).unwrap();
        }
        let homes: Vec<Ppa> = f.map.homes().iter().flatten().copied().collect();
        assert!(homes.len() > 2, "several slabs");
        let victim = homes[0].block;
        let moved = homes.iter().filter(|h| h.block == victim).count() as u64;
        let (reads, programs) = (f.flash_stats().reads, f.flash_stats().programs);
        f.gc_section(|b| b.collect_block(victim, CollectKind::Gc, usize::MAX, &mut NoHook))
            .unwrap();
        assert_eq!(f.flash_stats().reads, reads, "no flash read");
        assert_eq!(f.flash_stats().programs - programs, moved);
        assert_eq!(f.stats().gc_slab_rewrites, moved);
        assert!(f.map.homes().iter().flatten().all(|h| h.block != victim));
        let mapped: Vec<_> = (0..MAPPED).map(|lpn| f.l2p_peek(lpn)).collect();
        let (mut g, log) = FtlBase::recover(f.into_chip()).unwrap();
        g.finish_recovery(&log, Vec::new()).unwrap();
        let recovered: Vec<_> = (0..MAPPED).map(|lpn| g.l2p_peek(lpn)).collect();
        assert_eq!(recovered, mapped, "every slab reads back the same");
        let mut out = vec![0u8; g.page_size()];
        for lpn in 0..MAPPED - 1 {
            g.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out[0], lpn as u8, "lpn {lpn}");
        }
    }

    #[test]
    fn a_step_copies_what_the_programs_since_the_last_one_owe_and_no_more() {
        // (policy, live pages in the first victim at the mark)
        for (policy, v) in [
            (GcPolicy::Greedy, 3),
            (GcPolicy::Fifo, 6),
            (GcPolicy::CostBenefit, 3),
        ] {
            // Each program owes v / (ppb - v) copies, rounded up; an idle
            // interval still owes one; a fresh victim pays for the
            // interval ahead as well as the one behind.
            for programs in [0, 1, 3] {
                let mut f = base(policy);
                let n = write_down_to_the_mark(&mut f);
                step_after(&mut f, programs);
                let owed = (2 * programs * v).div_ceil(PPB - v).max(1);
                assert!(
                    owed < v,
                    "{policy:?}/{programs}: the victim outlasts the step"
                );
                let (victim, copied) = f.draining.expect("a victim in progress");
                assert_eq!(copied, owed, "{policy:?}/{programs}");
                assert_eq!(u64::from(f.valid.valid_in_block(victim)), v - owed);
                let s = *f.stats();
                assert_eq!(
                    (s.gc_copies, s.gc_runs, s.gc_background_steps),
                    (owed, 0, 1)
                );
                assert_eq!(s.gc_inline_collections, 0);
                assert_eq!(f.flash_stats().erases, 0, "live pages left: no erase");
                assert_eq!(
                    f.paced_seq,
                    f.chip.next_seq() - owed,
                    "pacing restarts at the step"
                );
                // In progress, it pays for the interval behind only — at
                // the rate of what it held, not of what is left.
                step_after(&mut f, 2);
                let more = (2 * v).div_ceil(PPB - v).min(v - owed);
                assert_eq!(f.stats().gc_copies, owed + more, "{policy:?}/{programs}");
                assert_eq!(f.stats().gc_runs, u64::from(owed + more == v));
                assert_last_writes(&mut f, n);
            }
        }
    }

    #[test]
    fn a_victim_is_erased_exactly_when_its_last_live_page_has_left() {
        for policy in POLICIES {
            let mut f = base(policy);
            let n = write_down_to_the_mark(&mut f);
            step_after(&mut f, 0);
            let (victim, _) = f.draining.expect("a victim in progress");
            let v = u64::from(f.valid.valid_in_block(victim)) + 1;
            let data_victim = f.pool.state(victim) == Some(BlockState::Closed(Class::Data));
            assert!(data_victim, "{policy:?}");
            // One copy a step: the erase rides the step that takes the
            // last page, not one before and not one after.
            for step in 2..=v {
                assert_eq!(f.flash_stats().erases, 0, "{policy:?}: step {step}");
                assert_eq!(f.draining, Some((victim, step - 1)));
                step_after(&mut f, 0);
            }
            assert_eq!(f.draining, None, "{policy:?}: dropped at the erase");
            assert_eq!(f.pool.state(victim), Some(BlockState::Free));
            let s = *f.stats();
            assert_eq!((f.flash_stats().erases, s.gc_runs, s.gc_copies), (1, 1, v));
            assert_eq!(s.gc_background_steps, v);
            // `gc_valid_pages` is exact across the partial steps.
            assert_eq!((s.gc_valid_pages, s.gc_victim_pages), (v, PPB));
            // One block above the mark there is nothing to do.
            assert_eq!(f.pool.free_len(), f.gc_low_water() + 1);
            step_after(&mut f, 1000);
            assert_eq!(*f.stats(), s, "{policy:?}: no step above the mark");
            assert_last_writes(&mut f, n);
        }
    }

    #[test]
    fn a_victim_with_no_live_page_costs_one_erase() {
        let mut f = base(GcPolicy::Greedy);
        // Sixteen pages written twice: the first block is all garbage.
        for round in 0..2 {
            for lpn in 0..PPB {
                let data = vec![round; f.page_size()];
                f.write_committed(lpn, &data, &mut NoHook).unwrap();
            }
        }
        let mut n = 0;
        while f.pool.free_len() > f.gc_low_water() {
            let data = vec![2; f.page_size()];
            f.write_committed(PPB + n % (LOGICAL - PPB), &data, &mut NoHook)
                .unwrap();
            n += 1;
        }
        let programs = f.flash_stats().programs;
        step_after(&mut f, 5);
        let s = *f.stats();
        assert_eq!((s.gc_runs, s.gc_copies, s.gc_background_steps), (1, 0, 1));
        assert_eq!(f.flash_stats().erases, 1);
        assert_eq!(f.flash_stats().programs, programs, "no copy, no root");
    }

    /// Cost-benefit scores a block `(1 − u) / (1 + u) × age`, and at
    /// `u = 0` that is its age alone: a mapping block that died young
    /// would wait behind every old, half-valid data block. It costs one
    /// erase and can gain no more garbage — it goes first.
    #[test]
    fn cost_benefit_takes_a_dead_block_before_an_old_half_valid_one() {
        let mut f = base(GcPolicy::CostBenefit);
        let put = |f: &mut FtlBase, lpn: u64| {
            let data = vec![lpn as u8; f.page_size()];
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        };
        // The first data block, sixteen pages; then half of them again,
        // behind a one-slab cache: every write from here on writes the
        // slab it dirtied out, and every translation page supersedes the
        // one before it — the first mapping block fills up with garbage.
        (0..PPB).for_each(|lpn| put(&mut f, lpn));
        let old = f.l2p_peek(PPB - 1).unwrap().block;
        f.set_map_cache_budget(Some(1)).unwrap();
        (0..PPB / 2).for_each(|lpn| put(&mut f, lpn));
        assert_eq!(u64::from(f.valid.valid_in_block(old)), PPB / 2);
        let map_block = |f: &FtlBase| f.candidates().find(|&(_, class)| class == Class::Map);
        while map_block(&f).is_none() {
            put(&mut f, 0);
        }
        let (dead, _) = map_block(&f).unwrap();
        assert_eq!(f.valid.valid_in_block(dead), 0);
        assert_eq!(f.stats().gc_runs, 0, "nothing collected yet");
        // By its score the old data block would go first: at u = 1/2 it
        // scores a third of its age, the dead block its age.
        let age = |b| (f.chip.next_seq() - f.pool.last_program_seq(b)) as f64;
        assert!(age(old) / 3.0 > age(dead));
        // ...and the dead one does.
        assert_eq!(f.pick_victim_cost_benefit(), Some(dead));
        // Greedy took the emptiest block as it always did, and FIFO still
        // takes the oldest data block whatever the mapping blocks hold.
        assert_eq!(f.pick_victim_greedy(), Some(dead));
        f.set_gc_policy(GcPolicy::Fifo);
        assert_eq!(f.pick_victim(), Some(old));
    }

    #[test]
    fn a_fifo_victim_in_progress_is_continued_not_lost() {
        let mut f = base(GcPolicy::Fifo);
        let mut n = write_down_to_the_mark(&mut f);
        step_after(&mut f, 0);
        let (victim, _) = f.draining.expect("a victim in progress");
        assert!(!f.pool.fifo_contains(victim), "FIFO's `Take` popped it");
        // A second step resumes it rather than taking the next in line.
        step_after(&mut f, 0);
        assert_eq!(f.draining, Some((victim, 2)));
        // So does inline GC: writes with no acknowledgement run the pool
        // below the mark, and the first inline collection finishes the
        // half-drained victim before picking another.
        while f.stats().gc_inline_collections == 0 {
            write(&mut f, n);
            n += 1;
        }
        assert_eq!(f.stats().gc_runs, 1);
        assert_eq!(f.draining, None);
        assert!(
            matches!(
                f.pool.state(victim),
                Some(BlockState::Free | BlockState::Open(_))
            ),
            "the inline collection erased the victim the steps began"
        );
        let s = *f.stats();
        assert_eq!(
            s.gc_valid_pages, s.gc_copies,
            "earlier steps' copies counted"
        );
        assert_last_writes(&mut f, n);
    }

    #[test]
    fn a_step_that_goes_on_copies_at_most_the_floors_worth_of_blocks() {
        // 40 blocks exporting 528 pages, every page written once, then
        // overwritten at random with no acknowledgement down to the
        // floor: every victim is nearly full, its copies take about the
        // block its erase gives back, and the pool stays at the floor
        // victim after victim. Only the cap on what the step copies ends
        // it; without one it would run on through most of the device.
        const PAGES: u64 = 528;
        let cfg = FlashConfigBuilder::tiny()
            .blocks(40)
            .pages_per_block(PPB as usize)
            .build();
        let mut f = FtlBase::format(FlashChip::new(cfg, SimClock::new()), PAGES).unwrap();
        f.set_gc_policy(GcPolicy::Greedy);
        let put = |f: &mut FtlBase, lpn: u64| {
            let data = vec![lpn as u8; f.page_size()];
            f.write_committed(lpn, &data, &mut NoHook).unwrap();
        };
        (0..PAGES).for_each(|lpn| put(&mut f, lpn));
        let mut i = 0;
        while f.pool.free_len() > f.gc_floor() {
            put(&mut f, lpn_of(i) * PAGES / LOGICAL + i % 4);
            i += 1;
        }
        assert_eq!(f.stats().gc_runs, 0);
        // Owed far more than any victim holds: each is taken whole until
        // the cap, which leaves the last one in progress.
        step_after(&mut f, 1000);
        let s = *f.stats();
        let cap = f.gc_floor() as u64 * PPB;
        assert!(s.gc_runs >= 2, "the step went on past a finished victim");
        assert_eq!(s.gc_copies, cap, "{} victims", s.gc_background_steps);
        assert!(f.draining.is_some());
        assert_eq!(f.pool.free_len(), f.gc_floor());
        let mut out = vec![0u8; f.page_size()];
        for lpn in 0..PAGES {
            f.read_committed(lpn, &mut out).unwrap();
            assert_eq!(out[0], lpn as u8, "lpn {lpn}");
        }
    }

    #[test]
    fn a_step_is_a_no_op_above_the_mark_on_a_read_only_device_and_inside_gc() {
        let mut f = base(GcPolicy::Greedy);
        let idle = |f: &FtlBase| (*f.stats(), f.flash_stats(), f.clock().now());
        // Above the mark.
        write(&mut f, 0);
        let before = idle(&f);
        step_after(&mut f, 1);
        assert_eq!(idle(&f), before);
        assert_eq!(
            f.paced_seq,
            f.chip.next_seq(),
            "pacing restarts all the same"
        );
        // At the mark, but read-only, or re-entered from inside GC.
        write_down_to_the_mark(&mut f);
        let before = idle(&f);
        f.device_state = DeviceState::ReadOnly;
        step_after(&mut f, 8);
        f.device_state = DeviceState::Healthy;
        f.chip.set_collecting(true);
        step_after(&mut f, 8);
        f.chip.set_collecting(false);
        assert_eq!(idle(&f), before);
        step_after(&mut f, 8);
        assert_eq!(f.stats().gc_background_steps, 1, "and here it does run");
    }

    #[test]
    fn acknowledged_often_enough_the_inline_loop_never_runs() {
        for policy in POLICIES {
            // An acknowledgement every `gap` programs, up to a whole block.
            for gap in 1..=PPB {
                let mut f = base(policy);
                for i in 0..3000 {
                    write(&mut f, i);
                    if (i + 1) % gap == 0 {
                        f.gc_step(&mut NoHook).unwrap();
                    }
                }
                let s = *f.stats();
                assert_eq!(s.gc_inline_collections, 0, "{policy:?}/{gap}");
                assert!(s.gc_runs > 100, "{policy:?}/{gap}: {} runs", s.gc_runs);
                assert!(s.gc_background_steps >= s.gc_runs);
                assert!(f.pool.free_len() >= f.gc_low_water());
                assert_last_writes(&mut f, 3000);
            }
        }
    }

    #[test]
    fn resetting_the_statistics_moves_no_page() {
        // The cold log stripes itself from the pool's own counts, not from
        // the statistics a harness clears between phases: the same writes
        // and acknowledgements land every page in the same place at the
        // same instant, reset or not.
        const PAGES: u64 = 4 * LOGICAL;
        let run = |reset_every: u64| {
            let cfg = FlashConfigBuilder::tiny()
                .blocks(48)
                .channels(4)
                .pages_per_block(PPB as usize)
                .build();
            let mut f = FtlBase::format(FlashChip::new(cfg, SimClock::new()), PAGES).unwrap();
            for i in 0..8000 {
                let data = vec![(i % 251) as u8; f.page_size()];
                let lpn = lpn_of(i) * 4 + i % 4;
                f.write_committed(lpn, &data, &mut NoHook).unwrap();
                if i % 5 == 4 {
                    f.gc_step(&mut NoHook).unwrap();
                }
                if i % reset_every == reset_every - 1 {
                    f.reset_stats();
                }
            }
            let open_cold = (f.pool.open())
                .filter(|&b| f.pool.state(b) == Some(BlockState::Open(Stream::Cold)))
                .count();
            let at: Vec<_> = (0..PAGES).map(|lpn| f.l2p_peek(lpn)).collect();
            (f.clock().now(), f.chip.next_seq(), open_cold, at)
        };
        let kept = run(u64::MAX);
        assert!(kept.2 > 1, "the cold log striped over {} lanes", kept.2);
        assert!(run(700) == kept);
    }

    #[test]
    fn never_acknowledged_the_collector_is_the_inline_one_it_always_was() {
        // First recorded at the parent of the commit that introduced
        // `gc_step` (same schedule, public API only): a schedule with no
        // acknowledgement must not be able to tell the difference.
        // Greedy and cost-benefit re-recorded when GC survivors got a log
        // of their own: on these 16 blocks under uniform writes its
        // frontier costs a block of headroom and some 11 % more programs
        // (3676 and 3696 before). FIFO keeps one log, and its record.
        let recorded = [
            (4078, 2077, 244, 4_933_594_800, 8_403_941_125_880_228_529),
            (3902, 1901, 233, 4_714_166_000, 6_303_215_479_101_058_668),
            (4097, 2096, 245, 4_956_631_200, 8_284_907_579_819_593_227),
        ];
        for (policy, parent) in POLICIES.into_iter().zip(recorded) {
            let mut f = base(policy);
            for i in 0..2000 {
                write(&mut f, i);
            }
            assert_eq!(fingerprint(&f), parent, "{policy:?}");
            let s = *f.stats();
            assert_eq!(
                (s.gc_inline_collections, s.gc_background_steps),
                (s.gc_runs, 0)
            );
        }
    }
}
