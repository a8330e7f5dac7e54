//! The pager's buffer pool: page frames with LRU eviction.
//!
//! Recency is the two lists of the file system's [`Recency`], one of
//! clean frames and one of dirty ones, as in its page cache. A touch
//! stamps the frame with the next tick and makes it the most recent of
//! its state's list; an eviction takes the least recent clean frame,
//! else the least recent dirty one. A commit writes a dirty frame back
//! without touching it, so [`Frames::mark_clean`] files it into the
//! clean list by its tick, walking back from the tail past the clean
//! frames touched since: the lists keep the order of the ticks, and the
//! victim is the one the scan for the least tick, clean frames first,
//! would pick.

use xftl_fs::recency::{Dirty, Recency};

use crate::pager::{PageNo, PageRef};

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

impl Dirty for Frame {
    /// True if the frame holds a change not yet written anywhere.
    fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// The frames of one pager.
#[derive(Debug)]
pub(crate) struct Frames {
    frames: Recency<PageNo, Frame>,
    tick: u64,
}

impl Frames {
    pub(crate) fn new() -> Self {
        Frames {
            frames: Recency::default(),
            tick: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    /// The frame of `pgno`, its recency untouched.
    pub(crate) fn peek(&self, pgno: PageNo) -> Option<&Frame> {
        self.frames.peek(pgno)
    }

    /// The data of `pgno`, made the most recent frame.
    pub(crate) fn get(&mut self, pgno: PageNo) -> Option<PageRef> {
        let tick = self.tick + 1;
        let frame = self.frames.refile(pgno, |f| f.tick = tick, |_| false)?;
        self.tick = tick;
        Some(PageRef::clone(&frame.data))
    }

    /// Installs `data` as `pgno`'s frame, the most recent of its state.
    pub(crate) fn insert(&mut self, pgno: PageNo, data: PageRef, dirty: bool) {
        self.tick += 1;
        let frame = Frame {
            data,
            dirty,
            tick: self.tick,
        };
        self.frames.insert(pgno, frame);
    }

    /// Marks `pgno`'s frame clean without touching it and returns its
    /// data; `None` if it is not cached.
    pub(crate) fn mark_clean(&mut self, pgno: PageNo) -> Option<PageRef> {
        let &Frame { dirty, tick, .. } = self.frames.peek(pgno)?;
        let frame = if dirty {
            &*self
                .frames
                .refile(pgno, |f| f.dirty = false, |f| f.tick > tick)?
        } else {
            self.frames.peek(pgno)?
        };
        Some(PageRef::clone(&frame.data))
    }

    pub(crate) fn remove(&mut self, pgno: PageNo) -> Option<Frame> {
        self.frames.remove(pgno)
    }

    /// Takes the least recent clean frame, else the least recent dirty one.
    pub(crate) fn pop_lru(&mut self) -> Option<(PageNo, Frame)> {
        self.frames.pop_lru()
    }

    /// Drops every frame.
    pub(crate) fn clear(&mut self) {
        self.frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

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
