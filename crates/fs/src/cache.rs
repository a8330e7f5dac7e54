//! Write-back page cache with LRU eviction.
//!
//! Models the OS page cache the paper's host stack runs through. Pages are
//! keyed by absolute device LPN and tagged with the owning inode and, in
//! X-FTL (`Off`) mode, the transaction that dirtied them — eviction of such
//! a page becomes a `write_tx`, which is precisely the *steal* behaviour
//! (§5.2) that per-call atomic-write FTLs cannot support and X-FTL can.
//!
//! Recency is the two lists of [`Recency`], one of clean pages and one
//! of dirty ones: a touch makes the page the most recent of its state's
//! list, an eviction takes the least recent clean page, else the least
//! recent dirty one, and an fsync walks the dirty list alone. No
//! operation but a drop scans the cache.

use xftl_ftl::{Lpn, Tid};

use crate::layout::Ino;
use crate::recency::{Dirty, Recency};

/// One cached page.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// Page contents.
    pub data: Vec<u8>,
    /// Transaction that dirtied the page, if any.
    pub tid: Option<Tid>,
    /// True if the page differs from its on-device copy: which list the
    /// page is on.
    dirty: bool,
    /// Inode the page belongs to (for per-file flush and drop).
    ino: Ino,
}

impl Dirty for CachedPage {
    /// True if the page differs from its on-device copy.
    fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// LRU page cache keyed by device LPN.
#[derive(Debug)]
pub struct PageCache {
    pages: Recency<Lpn, CachedPage>,
    capacity: usize,
}

impl PageCache {
    /// Cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        PageCache {
            pages: Recency::default(),
            capacity: capacity.max(1),
        }
    }

    /// Makes `lpn`'s page the most recent, in state `dirty` if given and
    /// in its own state otherwise.
    fn touch(&mut self, lpn: Lpn, dirty: Option<bool>) -> Option<&mut CachedPage> {
        let update = |p: &mut CachedPage| p.dirty = dirty.unwrap_or(p.dirty);
        self.pages.refile(lpn, update, |_| false)
    }

    /// Looks a page up, refreshing its recency.
    pub fn get(&mut self, lpn: Lpn) -> Option<&CachedPage> {
        self.touch(lpn, None).map(|p| &*p)
    }

    /// Mutable lookup for a write into the page: refreshes its recency and
    /// marks it dirty.
    pub fn make_dirty(&mut self, lpn: Lpn) -> Option<&mut CachedPage> {
        self.touch(lpn, Some(true))
    }

    /// Mutable lookup for the page's write-back: refreshes its recency and
    /// marks it clean.
    pub fn make_clean(&mut self, lpn: Lpn) -> Option<&mut CachedPage> {
        self.touch(lpn, Some(false))
    }

    /// Inserts or replaces a page.
    pub fn insert(&mut self, lpn: Lpn, ino: Ino, data: Vec<u8>, dirty: bool, tid: Option<Tid>) {
        let page = CachedPage {
            data,
            tid,
            dirty,
            ino,
        };
        self.pages.insert(lpn, page);
    }

    /// Removes and returns a page.
    pub fn remove(&mut self, lpn: Lpn) -> Option<CachedPage> {
        self.pages.remove(lpn)
    }

    /// True if the cache is over capacity and must evict.
    pub fn needs_evict(&self) -> bool {
        self.pages.len() > self.capacity
    }

    /// Pops the least-recently-used page (clean pages preferred, so dirty
    /// write-backs happen only under real pressure).
    pub fn pop_lru(&mut self) -> Option<(Lpn, CachedPage)> {
        self.pages.pop_lru()
    }

    /// LPNs of dirty pages belonging to `ino`, in LPN order.
    pub fn dirty_of(&self, ino: Ino) -> Vec<Lpn> {
        let mut v: Vec<Lpn> = (self.pages.dirty())
            .filter(|(_, p)| p.ino == ino)
            .map(|(lpn, _)| lpn)
            .collect();
        v.sort_unstable();
        v
    }

    /// LPNs of every dirty page, in LPN order.
    pub fn dirty_all(&self) -> Vec<Lpn> {
        let mut v: Vec<Lpn> = self.pages.dirty().map(|(lpn, _)| lpn).collect();
        v.sort_unstable();
        v
    }

    /// Drops every page dirtied by `tid` without writing it back (the
    /// abort path: "undoing the cached changes is done simply by dropping
    /// them from the file system buffer", §5.2).
    pub fn drop_tid(&mut self, tid: Tid) -> usize {
        self.drop_where(|p| p.tid == Some(tid))
    }

    /// Drops every page of `ino` (unlink path).
    pub fn drop_ino(&mut self, ino: Ino) {
        self.drop_where(|p| p.ino == ino);
    }

    /// Drops every page `doomed` picks; returns how many. A scan, on the
    /// abort and unlink paths only.
    fn drop_where(&mut self, doomed: impl Fn(&CachedPage) -> bool) -> usize {
        let lpns: Vec<Lpn> = (self.pages.iter())
            .filter(|(_, p)| doomed(p))
            .map(|(lpn, _)| lpn)
            .collect();
        for &lpn in &lpns {
            self.pages.remove(lpn);
        }
        lpns.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c = PageCache::new(4);
        c.insert(10, 1, vec![1, 2, 3], true, Some(7));
        let p = c.get(10).unwrap();
        assert_eq!(p.data, vec![1, 2, 3]);
        assert!(p.is_dirty());
        assert_eq!(p.tid, Some(7));
        assert!(c.get(11).is_none());
    }

    #[test]
    fn lru_prefers_clean_victims() {
        let mut c = PageCache::new(2);
        c.insert(1, 0, vec![1], true, None); // dirty, oldest
        c.insert(2, 0, vec![2], false, None); // clean
        c.insert(3, 0, vec![3], true, None);
        assert!(c.needs_evict());
        let (lpn, p) = c.pop_lru().unwrap();
        assert_eq!(lpn, 2, "clean page evicted before older dirty one");
        assert!(!p.is_dirty());
    }

    #[test]
    fn lru_falls_back_to_dirty() {
        let mut c = PageCache::new(1);
        c.insert(1, 0, vec![1], true, None);
        c.insert(2, 0, vec![2], true, None);
        let (lpn, _) = c.pop_lru().unwrap();
        assert_eq!(lpn, 1, "oldest dirty page evicted");
    }

    #[test]
    fn recency_updates_on_get() {
        let mut c = PageCache::new(2);
        c.insert(1, 0, vec![1], false, None);
        c.insert(2, 0, vec![2], false, None);
        c.get(1);
        c.insert(3, 0, vec![3], false, None);
        let (lpn, _) = c.pop_lru().unwrap();
        assert_eq!(lpn, 2, "page 1 was touched more recently than 2");
    }

    #[test]
    fn dirty_filters() {
        let mut c = PageCache::new(8);
        c.insert(1, 5, vec![1], true, None);
        c.insert(2, 5, vec![2], false, None);
        c.insert(3, 6, vec![3], true, None);
        assert_eq!(c.dirty_of(5), vec![1]);
        assert_eq!(c.dirty_all(), vec![1, 3]);
    }

    #[test]
    fn drop_tid_discards_only_that_transaction() {
        let mut c = PageCache::new(8);
        c.insert(1, 5, vec![1], true, Some(7));
        c.insert(2, 5, vec![2], true, Some(8));
        c.insert(3, 5, vec![3], false, None);
        assert_eq!(c.drop_tid(7), 1);
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn drop_ino_discards_files_pages() {
        let mut c = PageCache::new(8);
        c.insert(1, 5, vec![1], true, None);
        c.insert(2, 6, vec![2], true, None);
        c.drop_ino(5);
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
    }

    /// The cache as it was before its recency lists: pages stamped from
    /// one clock in a map, scanned whole for every victim and every dirty
    /// list. Kept as the oracle the lists must agree with.
    #[derive(Default)]
    struct Scanned {
        /// `lpn -> (stamp, dirty, ino, tid)`.
        pages: HashMap<Lpn, (u64, bool, Ino, Option<Tid>)>,
        clock: u64,
    }

    impl Scanned {
        fn touch(&mut self, lpn: Lpn) -> Option<&mut (u64, bool, Ino, Option<Tid>)> {
            self.clock += 1;
            let p = self.pages.get_mut(&lpn)?;
            p.0 = self.clock;
            Some(p)
        }

        fn insert(&mut self, lpn: Lpn, ino: Ino, dirty: bool, tid: Option<Tid>) {
            self.clock += 1;
            self.pages.insert(lpn, (self.clock, dirty, ino, tid));
        }

        fn pop_lru(&mut self) -> Option<(Lpn, bool, Option<Tid>)> {
            let oldest = |clean_only: bool| {
                self.pages
                    .iter()
                    .filter(|(_, p)| !clean_only || !p.1)
                    .min_by_key(|(_, p)| p.0)
                    .map(|(l, _)| *l)
            };
            let victim = oldest(true).or_else(|| oldest(false))?;
            let (_, dirty, _, tid) = self.pages.remove(&victim)?;
            Some((victim, dirty, tid))
        }

        fn dirty(&self, ino: Option<Ino>) -> Vec<Lpn> {
            let mut v: Vec<Lpn> = (self.pages.iter())
                .filter(|(_, p)| p.1 && ino.is_none_or(|i| p.2 == i))
                .map(|(l, _)| *l)
                .collect();
            v.sort_unstable();
            v
        }

        fn drop_where(&mut self, doomed: impl Fn(Ino, Option<Tid>) -> bool) -> usize {
            let before = self.pages.len();
            self.pages.retain(|_, p| !doomed(p.2, p.3));
            before - self.pages.len()
        }
    }

    #[test]
    fn recency_lists_evict_and_list_as_the_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = PageCache::new(24);
            let mut o = Scanned::default();
            for step in 0..6_000 {
                let lpn: Lpn = rng.gen_range(0..64);
                let ino: Ino = rng.gen_range(0..4);
                let tid = Some(rng.gen_range(1..5)).filter(|_| rng.gen_bool(0.5));
                match rng.gen_range(0..100) {
                    0..30 => {
                        let dirty = rng.gen_bool(0.5);
                        c.insert(lpn, ino, vec![lpn as u8], dirty, tid);
                        o.insert(lpn, ino, dirty, tid);
                    }
                    30..50 => {
                        let got = c.get(lpn).map(|p| (p.is_dirty(), p.tid, p.data[0]));
                        let want = o.touch(lpn).map(|p| (p.1, p.3, lpn as u8));
                        assert_eq!(got, want, "seed {seed} step {step}: get");
                    }
                    50..65 => {
                        if let Some(p) = c.make_dirty(lpn) {
                            p.tid = tid.or(p.tid);
                        }
                        if let Some(p) = o.touch(lpn) {
                            (p.1, p.3) = (true, tid.or(p.3));
                        }
                    }
                    65..75 => {
                        if let Some(p) = c.make_clean(lpn) {
                            p.tid = None;
                        }
                        if let Some(p) = o.touch(lpn) {
                            (p.1, p.3) = (false, None);
                        }
                    }
                    75..83 => {
                        let got = c.remove(lpn).map(|p| (p.is_dirty(), p.tid));
                        let want = o.pages.remove(&lpn).map(|p| (p.1, p.3));
                        assert_eq!(got, want, "seed {seed} step {step}: remove");
                    }
                    83..88 => {
                        let got = c.pop_lru().map(|(l, p)| (l, p.is_dirty(), p.tid));
                        assert_eq!(got, o.pop_lru(), "seed {seed} step {step}: pop_lru");
                    }
                    88..90 => {
                        let tid = tid.unwrap_or(1);
                        let want = o.drop_where(|_, t| t == Some(tid));
                        assert_eq!(c.drop_tid(tid), want, "seed {seed} step {step}: drop_tid");
                    }
                    90..91 => {
                        c.drop_ino(ino);
                        o.drop_where(|i, _| i == ino);
                    }
                    _ => {
                        let of = c.dirty_of(ino);
                        assert_eq!(of, o.dirty(Some(ino)), "seed {seed} step {step}: dirty_of");
                    }
                }
                while c.needs_evict() {
                    let got = c.pop_lru().map(|(l, p)| (l, p.is_dirty(), p.tid));
                    assert_eq!(got, o.pop_lru(), "seed {seed} step {step}: eviction");
                }
                assert_eq!(c.dirty_all(), o.dirty(None), "seed {seed} step {step}");
                assert_eq!(c.pages.len(), o.pages.len(), "seed {seed} step {step}");
            }
        }
    }
}
