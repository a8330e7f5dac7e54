//! The cached mapping table (CMT): RAM residency bookkeeping for a
//! demand-paged L2P.
//!
//! At paper-testbed scale the whole L2P fits in device RAM, but a 64–256 GB
//! drive's table does not: like DFTL, the engine keeps the authoritative
//! mapping in *translation pages* on flash (one per slab, `PageKind::Map`)
//! and caches a bounded set of hot slabs in RAM. This module owns only the
//! RAM side — which slabs are resident, which are dirty, who gets evicted
//! next — while [`crate::base::FtlBase`] orchestrates the flash I/O
//! (demand fetches, batched eviction flushes, checkpoint writes) so the
//! timing and crash semantics stay in one place.
//!
//! Eviction is CLOCK (second chance): a referenced bit per frame, a hand
//! sweeping slab indices. CLOCK approximates LRU without per-access list
//! surgery and, crucially here, is fully deterministic: the victim is a
//! pure function of the access history, so simulated runs stay replayable.

use xftl_flash::Ppa;

use crate::dev::Lpn;

/// One cached slab of L2P entries.
#[derive(Debug)]
struct Frame {
    /// `None` while the slab is not resident.
    entries: Option<Box<[Option<Ppa>]>>,
    /// Resident entries differ from the persisted translation page (or no
    /// translation page exists yet).
    dirty: bool,
    /// CLOCK second-chance bit.
    referenced: bool,
}

/// Residency state and eviction policy for the L2P slab cache.
///
/// With `budget == None` every slab may stay resident, which degenerates to
/// the historical fully-RAM table: behaviour (and flash traffic) is then
/// identical to the pre-demand-paging engine.
#[derive(Debug)]
pub struct MappingCache {
    frames: Vec<Frame>,
    entries_per_slab: usize,
    /// Maximum resident slabs; `None` = unbounded.
    budget: Option<usize>,
    resident: usize,
    /// CLOCK hand: next slab index the eviction sweep inspects.
    hand: usize,
}

impl MappingCache {
    /// Creates an empty cache over `slabs` slabs of `entries_per_slab`
    /// entries each.
    pub fn new(slabs: usize, entries_per_slab: usize, budget: Option<usize>) -> Self {
        MappingCache {
            frames: (0..slabs)
                .map(|_| Frame {
                    entries: None,
                    dirty: false,
                    referenced: false,
                })
                .collect(),
            entries_per_slab,
            budget: budget.map(|b| b.max(1)),
            resident: 0,
            hand: 0,
        }
    }

    /// Number of slabs the table is divided into.
    pub fn slabs(&self) -> usize {
        self.frames.len()
    }

    /// Entries per slab.
    pub fn entries_per_slab(&self) -> usize {
        self.entries_per_slab
    }

    /// Currently resident slabs.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Sets the residency budget. The caller is responsible for evicting
    /// down to the new budget afterwards (eviction does flash I/O, which
    /// lives in the engine).
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget.map(|b| b.max(1));
    }

    /// Number of evictions needed before one more slab may become resident.
    pub fn over_budget_by(&self) -> usize {
        match self.budget {
            // +1 headroom: the caller is about to install a new frame.
            Some(b) => (self.resident + 1).saturating_sub(b),
            None => 0,
        }
    }

    /// Slab index covering `lpn`.
    pub fn slab_of_lpn(&self, lpn: Lpn) -> usize {
        (lpn as usize) / self.entries_per_slab
    }

    /// True if the slab holding `lpn`'s entry is resident.
    pub fn is_resident(&self, slab: usize) -> bool {
        self.frames[slab].entries.is_some()
    }

    /// Resident lookup: the cached entry, or `None` if the slab is not
    /// resident (cache miss — distinct from a resident unmapped entry,
    /// which is `Some(None)`). Marks the frame referenced.
    pub fn get(&mut self, lpn: Lpn) -> Option<Option<Ppa>> {
        let slab = self.slab_of_lpn(lpn);
        let idx = (lpn as usize) % self.entries_per_slab;
        let frame = &mut self.frames[slab];
        let entries = frame.entries.as_ref()?;
        frame.referenced = true;
        Some(entries[idx])
    }

    /// Silent resident lookup for auditors: no referenced-bit update.
    pub fn peek(&self, lpn: Lpn) -> Option<Option<Ppa>> {
        let slab = self.slab_of_lpn(lpn);
        let idx = (lpn as usize) % self.entries_per_slab;
        Some(self.frames[slab].entries.as_ref()?[idx])
    }

    /// Updates a resident entry, marking the frame dirty and referenced.
    ///
    /// # Panics
    /// If the slab is not resident — the engine must demand-fetch first.
    pub fn set(&mut self, lpn: Lpn, value: Option<Ppa>) {
        let slab = self.slab_of_lpn(lpn);
        let idx = (lpn as usize) % self.entries_per_slab;
        let frame = &mut self.frames[slab];
        let Some(entries) = frame.entries.as_mut() else {
            unreachable!("CMT set on a non-resident slab")
        };
        entries[idx] = value;
        frame.dirty = true;
        frame.referenced = true;
    }

    /// Installs a slab's entries (from a demand fetch or a fresh format).
    ///
    /// # Panics
    /// If the slab is already resident.
    pub fn install(&mut self, slab: usize, entries: Box<[Option<Ppa>]>, dirty: bool) {
        let frame = &mut self.frames[slab];
        assert!(frame.entries.is_none(), "CMT double install of slab {slab}");
        assert_eq!(entries.len(), self.entries_per_slab);
        frame.entries = Some(entries);
        frame.dirty = dirty;
        frame.referenced = true;
        self.resident += 1;
    }

    /// Picks the next eviction victim by CLOCK sweep. Returns `None` when
    /// nothing is resident. Deterministic: the hand position and the
    /// referenced bits fully determine the choice.
    pub fn pick_victim(&mut self) -> Option<usize> {
        if self.resident == 0 {
            return None;
        }
        // At most two sweeps: the first clears referenced bits, the second
        // must find an unreferenced resident frame.
        for _ in 0..2 * self.frames.len() {
            let slab = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = &mut self.frames[slab];
            if frame.entries.is_none() {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            return Some(slab);
        }
        None
    }

    /// Drops a resident slab from the cache, returning its entries and
    /// whether they were dirty (a dirty victim must be flushed to its
    /// translation page by the caller *before* calling this, or the
    /// entries used afterwards).
    ///
    /// # Panics
    /// If the slab is not resident.
    pub fn evict(&mut self, slab: usize) -> (Box<[Option<Ppa>]>, bool) {
        let frame = &mut self.frames[slab];
        let Some(entries) = frame.entries.take() else {
            unreachable!("CMT evict of a non-resident slab")
        };
        let dirty = frame.dirty;
        frame.dirty = false;
        frame.referenced = false;
        self.resident -= 1;
        (entries, dirty)
    }

    /// Read access to a resident slab's entries (for flushing).
    pub fn entries(&self, slab: usize) -> Option<&[Option<Ppa>]> {
        self.frames[slab].entries.as_deref()
    }

    /// True if the slab is resident and dirty.
    pub fn is_dirty(&self, slab: usize) -> bool {
        self.frames[slab].dirty
    }

    /// Clears a resident slab's dirty bit (after its translation page has
    /// been programmed).
    pub fn mark_clean(&mut self, slab: usize) {
        self.frames[slab].dirty = false;
    }

    /// True if any resident slab is dirty. Non-resident slabs are clean by
    /// invariant: eviction flushes before dropping a frame.
    pub fn any_dirty(&self) -> bool {
        self.frames.iter().any(|f| f.dirty)
    }

    /// Indices of the resident dirty slabs, ascending.
    pub fn dirty_slabs(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.dirty)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_slab(eps: usize, ppa: Option<Ppa>) -> Box<[Option<Ppa>]> {
        vec![ppa; eps].into_boxed_slice()
    }

    #[test]
    fn miss_until_installed_then_hit() {
        let mut c = MappingCache::new(4, 8, Some(2));
        assert_eq!(c.get(9), None, "slab 1 not resident");
        c.install(1, full_slab(8, Some(Ppa::new(3, 1))), false);
        assert_eq!(c.get(9), Some(Some(Ppa::new(3, 1))));
        assert_eq!(c.get(8), Some(Some(Ppa::new(3, 1))));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn set_requires_residency_and_dirties() {
        let mut c = MappingCache::new(2, 4, None);
        c.install(0, full_slab(4, None), false);
        assert!(!c.is_dirty(0));
        c.set(2, Some(Ppa::new(5, 0)));
        assert!(c.is_dirty(0));
        assert_eq!(c.peek(2), Some(Some(Ppa::new(5, 0))));
        assert_eq!(c.dirty_slabs(), vec![0]);
        c.mark_clean(0);
        assert!(!c.any_dirty());
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_on_missing_slab_panics() {
        let mut c = MappingCache::new(2, 4, None);
        c.set(0, None);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut c = MappingCache::new(3, 4, Some(2));
        c.install(0, full_slab(4, None), false);
        c.install(1, full_slab(4, None), false);
        // Both referenced (installed referenced). First sweep clears bits;
        // victim is slab 0 (hand order).
        assert_eq!(c.pick_victim(), Some(0));
        // Touch slab 0 again: it gets a second chance over slab 1.
        c.get(0);
        assert_eq!(c.pick_victim(), Some(1));
    }

    #[test]
    fn evict_returns_dirty_flag_and_frees_budget() {
        let mut c = MappingCache::new(2, 4, Some(1));
        c.install(0, full_slab(4, None), false);
        c.set(1, Some(Ppa::new(2, 2)));
        assert_eq!(c.over_budget_by(), 1, "installing one more needs a slot");
        let (entries, dirty) = c.evict(0);
        assert!(dirty);
        assert_eq!(entries[1], Some(Ppa::new(2, 2)));
        assert_eq!(c.resident(), 0);
        assert_eq!(c.get(0), None, "evicted slab misses");
    }

    #[test]
    fn unbounded_budget_never_needs_eviction() {
        let mut c = MappingCache::new(8, 4, None);
        for s in 0..8 {
            c.install(s, full_slab(4, None), false);
        }
        assert_eq!(c.over_budget_by(), 0);
        assert_eq!(c.resident(), 8);
    }

    #[test]
    fn victim_choice_is_deterministic() {
        let run = || {
            let mut c = MappingCache::new(6, 4, Some(3));
            for s in 0..3 {
                c.install(s, full_slab(4, None), false);
            }
            c.get(4); // touch slab 1 (lpn 4 = slab 1, entry 0)
            let mut victims = Vec::new();
            while let Some(v) = c.pick_victim() {
                victims.push(v);
                c.evict(v);
            }
            victims
        };
        assert_eq!(run(), run());
    }
}
