//! Recency lists of a write-back cache: the slab the file system's page
//! cache and the pager's frames share.
//!
//! Entries live in a slab in no order, found by key through an index.
//! Two intrusive lists are threaded through the slab, one of clean
//! entries and one of dirty ones, each least recent first: an entry is
//! filed at (or near) the tail of its state's list, an eviction takes
//! the head of the clean list, else of the dirty one, and a write-back
//! walks the dirty list alone. Only [`Recency::iter`] scans the slab.

use std::collections::HashMap;
use std::hash::Hash;

/// The end of a list.
const NIL: usize = usize::MAX;

/// What the lists need of an entry: which of the two it is on.
pub trait Dirty {
    /// True if the entry is on the dirty list.
    fn is_dirty(&self) -> bool;
}

/// An entry and its links in its state's list.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// The next less recent slot of the list, or [`NIL`].
    prev: usize,
    /// The next more recent slot of the list, or [`NIL`].
    next: usize,
}

/// Entries keyed by `K` on a clean and a dirty recency list.
#[derive(Debug)]
pub struct Recency<K, V> {
    /// The entries, in no order.
    slots: Vec<Slot<K, V>>,
    /// Where each key's slot is.
    index: HashMap<K, usize>,
    /// `(least recent, most recent)` slot of each list, `[clean, dirty]`.
    ends: [(usize, usize); 2],
}

impl<K: Copy + Eq + Hash, V: Dirty> Default for Recency<K, V> {
    fn default() -> Self {
        Recency {
            slots: Vec::new(),
            index: HashMap::new(),
            ends: [(NIL, NIL); 2],
        }
    }
}

impl<K: Copy + Eq + Hash, V: Dirty> Recency<K, V> {
    /// How many entries there are.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there is none.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The entry of `key`, its recency untouched.
    pub fn peek(&self, key: K) -> Option<&V> {
        self.index.get(&key).map(|&i| &self.slots[i].value)
    }

    /// The list slot `i` is on.
    fn list(&self, i: usize) -> usize {
        usize::from(self.slots[i].value.is_dirty())
    }

    /// Points what links to slot `i` elsewhere: the link from its less
    /// recent neighbour (or its list's head) at `from_less`, the link from
    /// its more recent one (or its list's tail) at `from_more`.
    fn redirect(&mut self, i: usize, from_less: usize, from_more: usize) {
        let (prev, next, list) = (self.slots[i].prev, self.slots[i].next, self.list(i));
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
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        self.redirect(i, next, prev);
    }

    /// Links slot `i` into its state's list behind every entry there
    /// that `newer` holds, walking from the tail: the most recent entry
    /// of its list when `newer` holds for none.
    fn file(&mut self, i: usize, newer: impl Fn(&V) -> bool) {
        let list = self.list(i);
        let mut after = self.ends[list].1;
        while after != NIL && newer(&self.slots[after].value) {
            after = self.slots[after].prev;
        }
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

    /// Takes `key`'s entry off its list, lets `update` change it — its
    /// state among the rest — and files it back on its state's list
    /// behind every entry there that `newer` holds (walking from the
    /// tail; `|_| false` makes it the most recent). `None`, and nothing
    /// changed, if `key` has no entry.
    pub fn refile(
        &mut self,
        key: K,
        update: impl FnOnce(&mut V),
        newer: impl Fn(&V) -> bool,
    ) -> Option<&mut V> {
        let i = *self.index.get(&key)?;
        self.unlink(i);
        update(&mut self.slots[i].value);
        self.file(i, newer);
        Some(&mut self.slots[i].value)
    }

    /// Inserts or replaces `key`'s entry as the most recent of its state.
    pub fn insert(&mut self, key: K, value: V) {
        let i = match self.index.get(&key) {
            Some(&i) => {
                self.unlink(i);
                self.slots[i].value = value;
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.index.insert(key, self.slots.len() - 1);
                self.slots.len() - 1
            }
        };
        self.file(i, |_| false);
    }

    /// Removes and returns `key`'s entry.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let i = self.index.remove(&key)?;
        self.unlink(i);
        let last = self.slots.len() - 1;
        if i != last {
            // The last slot moves into `i`.
            self.redirect(last, i, i);
            self.index.insert(self.slots[last].key, i);
        }
        Some(self.slots.swap_remove(i).value)
    }

    /// Removes and returns the least recent clean entry, else the least
    /// recent dirty one.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let i = [self.ends[0].0, self.ends[1].0]
            .into_iter()
            .find(|&i| i != NIL)?;
        let key = self.slots[i].key;
        self.remove(key).map(|value| (key, value))
    }

    /// The dirty entries, least recent first.
    pub fn dirty(&self) -> impl Iterator<Item = (K, &V)> {
        let head = self.ends[1].0;
        std::iter::successors((head != NIL).then(|| &self.slots[head]), |s| {
            (s.next != NIL).then(|| &self.slots[s.next])
        })
        .map(|s| (s.key, &s.value))
    }

    /// Every entry, in no order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().map(|s| (s.key, &s.value))
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.ends = [(NIL, NIL); 2];
    }
}
