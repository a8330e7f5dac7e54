//! The pager's buffer pool: page frames with LRU eviction.
//!
//! Recency is two intrusive lists threaded through a slab of frames, one
//! of clean frames and one of dirty ones, each least recent first, as in
//! the file system's page cache. A touch stamps the frame with the next
//! tick and moves it to the tail of its state's list; an eviction takes
//! the head of the clean list, else of the dirty one. A commit writes a
//! dirty frame back without touching it, so [`Frames::mark_clean`] files
//! it into the clean list by its tick, walking back from the tail past
//! the clean frames touched since: the lists keep the order of the
//! ticks, and the victim is the one the scan for the least tick, clean
//! frames first, would pick.

use std::collections::HashMap;

use crate::pager::{PageNo, PageRef};

/// The end of a list.
const NIL: usize = usize::MAX;

/// One cached page.
#[derive(Debug)]
pub(crate) struct Frame {
    pub(crate) data: PageRef,
    /// True if the frame holds a change not yet written anywhere: which
    /// list it is on.
    dirty: bool,
    /// When the frame was last touched.
    tick: u64,
}

impl Frame {
    /// True if the frame holds a change not yet written anywhere.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// A frame and its links in its state's recency list.
#[derive(Debug)]
struct Slot {
    pgno: PageNo,
    frame: Frame,
    /// The next less recent slot of the list, or [`NIL`].
    prev: usize,
    /// The next more recent slot of the list, or [`NIL`].
    next: usize,
}

/// The frames of one pager.
#[derive(Debug)]
pub(crate) struct Frames {
    /// The frames, in no order.
    slots: Vec<Slot>,
    /// Where each page's slot is.
    index: HashMap<PageNo, usize>,
    /// `(least recent, most recent)` slot of each list, `[clean, dirty]`.
    ends: [(usize, usize); 2],
    tick: u64,
}

impl Frames {
    pub(crate) fn new() -> Self {
        Frames {
            slots: Vec::new(),
            index: HashMap::new(),
            ends: [(NIL, NIL); 2],
            tick: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The frame of `pgno`, its recency untouched.
    pub(crate) fn peek(&self, pgno: PageNo) -> Option<&Frame> {
        self.index.get(&pgno).map(|&i| &self.slots[i].frame)
    }

    /// Points what links to slot `i` elsewhere: the link from its less
    /// recent neighbour (or its list's head) at `from_less`, the link from
    /// its more recent one (or its list's tail) at `from_more`.
    fn redirect(&mut self, i: usize, from_less: usize, from_more: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        let list = usize::from(self.slots[i].frame.dirty);
        match prev {
            NIL => self.ends[list].0 = from_less,
            p => self.slots[p].next = from_less,
        }
        match next {
            NIL => self.ends[list].1 = from_more,
            n => self.slots[n].prev = from_more,
        }
    }

    /// Takes slot `i` out of its list.
    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        self.redirect(i, next, prev);
    }

    /// Links slot `i` into its state's list right after slot `after` (at
    /// the head for [`NIL`]).
    fn link_after(&mut self, i: usize, after: usize) {
        let list = usize::from(self.slots[i].frame.dirty);
        let next = match after {
            NIL => self.ends[list].0,
            a => self.slots[a].next,
        };
        (self.slots[i].prev, self.slots[i].next) = (after, next);
        match after {
            NIL => self.ends[list].0 = i,
            a => self.slots[a].next = i,
        }
        match next {
            NIL => self.ends[list].1 = i,
            n => self.slots[n].prev = i,
        }
    }

    /// Stamps slot `i` as touched now and makes it the most recent of its
    /// state's list; it is on no list yet when `linked` is false.
    fn touch(&mut self, i: usize, linked: bool) {
        if linked {
            self.unlink(i);
        }
        self.tick += 1;
        self.slots[i].frame.tick = self.tick;
        let list = usize::from(self.slots[i].frame.dirty);
        self.link_after(i, self.ends[list].1);
    }

    /// The data of `pgno`, made the most recent frame.
    pub(crate) fn get(&mut self, pgno: PageNo) -> Option<PageRef> {
        let i = *self.index.get(&pgno)?;
        self.touch(i, true);
        Some(PageRef::clone(&self.slots[i].frame.data))
    }

    /// Installs `data` as `pgno`'s frame, the most recent of its state.
    pub(crate) fn insert(&mut self, pgno: PageNo, data: PageRef, dirty: bool) {
        let frame = Frame {
            data,
            dirty,
            tick: 0,
        };
        let i = match self.index.get(&pgno) {
            Some(&i) => {
                self.unlink(i);
                self.slots[i].frame = frame;
                i
            }
            None => {
                self.slots.push(Slot {
                    pgno,
                    frame,
                    prev: NIL,
                    next: NIL,
                });
                self.index.insert(pgno, self.slots.len() - 1);
                self.slots.len() - 1
            }
        };
        self.touch(i, false);
    }

    /// Marks `pgno`'s frame clean without touching it and returns its
    /// data; `None` if it is not cached.
    pub(crate) fn mark_clean(&mut self, pgno: PageNo) -> Option<PageRef> {
        let i = *self.index.get(&pgno)?;
        if self.slots[i].frame.dirty {
            self.unlink(i);
            self.slots[i].frame.dirty = false;
            let tick = self.slots[i].frame.tick;
            let mut after = self.ends[0].1;
            while after != NIL && self.slots[after].frame.tick > tick {
                after = self.slots[after].prev;
            }
            self.link_after(i, after);
        }
        Some(PageRef::clone(&self.slots[i].frame.data))
    }

    pub(crate) fn remove(&mut self, pgno: PageNo) -> Option<Frame> {
        let i = self.index.remove(&pgno)?;
        self.unlink(i);
        let last = self.slots.len() - 1;
        if i != last {
            // The last slot moves into `i`.
            self.redirect(last, i, i);
            self.index.insert(self.slots[last].pgno, i);
        }
        Some(self.slots.swap_remove(i).frame)
    }

    /// Takes the least recent clean frame, else the least recent dirty one.
    pub(crate) fn pop_lru(&mut self) -> Option<(PageNo, Frame)> {
        let i = [self.ends[0].0, self.ends[1].0]
            .into_iter()
            .find(|&i| i != NIL)?;
        let pgno = self.slots[i].pgno;
        self.remove(pgno).map(|f| (pgno, f))
    }

    /// Drops every frame.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.ends = [(NIL, NIL); 2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pager's eviction before the lists: the least tick among the
    /// clean frames, else among all of them, by a scan of the whole map.
    fn scan_victim(model: &HashMap<PageNo, (u64, bool)>) -> Option<PageNo> {
        let least = |clean_only: bool| {
            model
                .iter()
                .filter(|(_, &(_, dirty))| !(clean_only && dirty))
                .min_by_key(|(_, &(tick, _))| tick)
                .map(|(&p, _)| p)
        };
        least(true).or_else(|| least(false))
    }

    /// Random touches, inserts, write-backs, drops and evictions over a
    /// small page range, page `PageNo::MAX` among them: every eviction
    /// takes the frame the old scan would, and the model's stamps are the
    /// lists' ticks.
    #[test]
    fn recency_lists_evict_as_the_scan() {
        let mut rng = StdRng::seed_from_u64(0x4c52_5546);
        for _ in 0..50 {
            let mut frames = Frames::new();
            let mut model: HashMap<PageNo, (u64, bool)> = HashMap::new();
            let mut tick = 0u64;
            for _ in 0..2_000 {
                let pgno = match rng.gen_range(0..40u32) {
                    39 => PageNo::MAX,
                    p => p,
                };
                match rng.gen_range(0..10u32) {
                    0..=2 => {
                        let hit = frames.get(pgno).is_some();
                        assert_eq!(hit, model.contains_key(&pgno));
                        if let Some(e) = model.get_mut(&pgno) {
                            tick += 1;
                            e.0 = tick;
                        }
                    }
                    3..=5 => {
                        let dirty = rng.gen_bool(0.5);
                        frames.insert(pgno, PageRef::new(vec![pgno as u8]), dirty);
                        tick += 1;
                        model.insert(pgno, (tick, dirty));
                    }
                    6 => {
                        let cached = frames.mark_clean(pgno).is_some();
                        assert_eq!(cached, model.contains_key(&pgno));
                        if let Some(e) = model.get_mut(&pgno) {
                            e.1 = false;
                        }
                    }
                    7 => {
                        let f = frames.remove(pgno);
                        assert_eq!(f.map(|f| f.tick), model.remove(&pgno).map(|e| e.0));
                    }
                    _ => {
                        let want = scan_victim(&model);
                        let got = frames.pop_lru();
                        assert_eq!(got.as_ref().map(|(p, _)| *p), want);
                        if let Some((p, f)) = got {
                            assert_eq!(Some((f.tick, f.dirty)), model.remove(&p));
                        }
                    }
                }
                assert_eq!(frames.len(), model.len());
            }
        }
    }
}
