//! Write-back page cache with LRU eviction.
//!
//! Models the OS page cache the paper's host stack runs through. Pages are
//! keyed by absolute device LPN and tagged with the owning inode and, in
//! X-FTL (`Off`) mode, the transaction that dirtied them — eviction of such
//! a page becomes a `write_tx`, which is precisely the *steal* behaviour
//! (§5.2) that per-call atomic-write FTLs cannot support and X-FTL can.

use std::collections::HashMap;

use xftl_ftl::{Lpn, Tid};

use crate::layout::Ino;

/// One cached page.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// Page contents.
    pub data: Vec<u8>,
    /// True if the page differs from its on-device copy.
    pub dirty: bool,
    /// Inode the page belongs to (for per-file flush and drop).
    pub ino: Ino,
    /// Transaction that dirtied the page, if any.
    pub tid: Option<Tid>,
    /// LRU recency stamp.
    tick: u64,
}

/// LRU page cache keyed by device LPN.
#[derive(Debug)]
pub struct PageCache {
    pages: HashMap<Lpn, CachedPage>,
    capacity: usize,
    clock: u64,
}

impl PageCache {
    /// Cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        PageCache {
            pages: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks a page up, refreshing its recency.
    pub fn get(&mut self, lpn: Lpn) -> Option<&CachedPage> {
        let t = self.tick();
        let p = self.pages.get_mut(&lpn)?;
        p.tick = t;
        Some(&*p)
    }

    /// Mutable lookup, refreshing recency.
    pub fn get_mut(&mut self, lpn: Lpn) -> Option<&mut CachedPage> {
        let t = self.tick();
        let p = self.pages.get_mut(&lpn)?;
        p.tick = t;
        Some(p)
    }

    /// Inserts or replaces a page.
    pub fn insert(&mut self, lpn: Lpn, ino: Ino, data: Vec<u8>, dirty: bool, tid: Option<Tid>) {
        let tick = self.tick();
        self.pages.insert(
            lpn,
            CachedPage {
                data,
                dirty,
                ino,
                tid,
                tick,
            },
        );
    }

    /// Removes and returns a page.
    pub fn remove(&mut self, lpn: Lpn) -> Option<CachedPage> {
        self.pages.remove(&lpn)
    }

    /// True if the cache is over capacity and must evict.
    pub fn needs_evict(&self) -> bool {
        self.pages.len() > self.capacity
    }

    /// Pops the least-recently-used page (clean pages preferred, so dirty
    /// write-backs happen only under real pressure).
    pub fn pop_lru(&mut self) -> Option<(Lpn, CachedPage)> {
        let clean_lru = self
            .pages
            .iter()
            .filter(|(_, p)| !p.dirty)
            .min_by_key(|(_, p)| p.tick)
            .map(|(l, _)| *l);
        let victim = clean_lru.or_else(|| {
            self.pages
                .iter()
                .min_by_key(|(_, p)| p.tick)
                .map(|(l, _)| *l)
        })?;
        self.pages.remove(&victim).map(|p| (victim, p))
    }

    /// LPNs of dirty pages belonging to `ino`, in LPN order.
    pub fn dirty_of(&self, ino: Ino) -> Vec<Lpn> {
        let mut v: Vec<Lpn> = self
            .pages
            .iter()
            .filter(|(_, p)| p.dirty && p.ino == ino)
            .map(|(l, _)| *l)
            .collect();
        v.sort_unstable();
        v
    }

    /// LPNs of every dirty page, in LPN order.
    pub fn dirty_all(&self) -> Vec<Lpn> {
        let mut v: Vec<Lpn> = self
            .pages
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|(l, _)| *l)
            .collect();
        v.sort_unstable();
        v
    }

    /// Drops every page dirtied by `tid` without writing it back (the
    /// abort path: "undoing the cached changes is done simply by dropping
    /// them from the file system buffer", §5.2).
    pub fn drop_tid(&mut self, tid: Tid) -> usize {
        let before = self.pages.len();
        self.pages.retain(|_, p| p.tid != Some(tid));
        before - self.pages.len()
    }

    /// Drops every page of `ino` (unlink path).
    pub fn drop_ino(&mut self, ino: Ino) {
        self.pages.retain(|_, p| p.ino != ino);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c = PageCache::new(4);
        c.insert(10, 1, vec![1, 2, 3], true, Some(7));
        let p = c.get(10).unwrap();
        assert_eq!(p.data, vec![1, 2, 3]);
        assert!(p.dirty);
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
        assert!(!p.dirty);
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
}
