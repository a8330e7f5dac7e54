//! Per-block page-validity tracking.
//!
//! The FTL keeps, in device RAM, one bit per physical page ("does any
//! mapping table still reference this page?") plus a per-block count of
//! valid pages. Greedy garbage collection picks the block with the fewest
//! valid pages; the paper's key GC rule — *a page is invalid only when it
//! is referenced by neither the L2P nor the X-L2P table* (§5.3) — is
//! enforced by the callers that flip these bits.

use xftl_flash::Ppa;

/// Validity bitmap and per-block valid-page counts.
#[derive(Debug, Clone)]
pub struct ValidityMap {
    pages_per_block: usize,
    bits: Vec<u64>,
    counts: Vec<u32>,
}

impl ValidityMap {
    /// Creates an all-invalid map for `blocks` blocks of `pages_per_block`
    /// pages.
    pub fn new(blocks: usize, pages_per_block: usize) -> Self {
        let total = blocks * pages_per_block;
        ValidityMap {
            pages_per_block,
            bits: vec![0; total.div_ceil(64)],
            counts: vec![0; blocks],
        }
    }

    fn index(&self, ppa: Ppa) -> (usize, u64) {
        let linear = ppa.linear(self.pages_per_block) as usize;
        (linear / 64, 1u64 << (linear % 64))
    }

    /// True if `ppa` is currently referenced by some mapping table.
    pub fn is_valid(&self, ppa: Ppa) -> bool {
        let (w, m) = self.index(ppa);
        self.bits[w] & m != 0
    }

    /// Marks `ppa` valid. Idempotent.
    pub fn mark_valid(&mut self, ppa: Ppa) {
        let (w, m) = self.index(ppa);
        if self.bits[w] & m == 0 {
            self.bits[w] |= m;
            self.counts[ppa.block as usize] += 1;
        }
    }

    /// Marks `ppa` invalid. Idempotent.
    pub fn mark_invalid(&mut self, ppa: Ppa) {
        let (w, m) = self.index(ppa);
        if self.bits[w] & m != 0 {
            self.bits[w] &= !m;
            self.counts[ppa.block as usize] -= 1;
        }
    }

    /// Number of valid pages in `block`.
    pub fn valid_in_block(&self, block: u32) -> u32 {
        self.counts[block as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let mut v = ValidityMap::new(4, 8);
        let p = Ppa::new(2, 3);
        assert!(!v.is_valid(p));
        v.mark_valid(p);
        assert!(v.is_valid(p));
        assert_eq!(v.valid_in_block(2), 1);
        v.mark_invalid(p);
        assert!(!v.is_valid(p));
        assert_eq!(v.valid_in_block(2), 0);
    }

    #[test]
    fn idempotent_marks() {
        let mut v = ValidityMap::new(2, 8);
        let p = Ppa::new(1, 0);
        v.mark_valid(p);
        v.mark_valid(p);
        assert_eq!(v.valid_in_block(1), 1);
        v.mark_invalid(p);
        v.mark_invalid(p);
        assert_eq!(v.valid_in_block(1), 0);
    }

    #[test]
    fn counts_are_per_block() {
        let mut v = ValidityMap::new(3, 8);
        v.mark_valid(Ppa::new(0, 0));
        v.mark_valid(Ppa::new(0, 1));
        v.mark_valid(Ppa::new(2, 7));
        assert_eq!(v.valid_in_block(0), 2);
        assert_eq!(v.valid_in_block(1), 0);
        assert_eq!(v.valid_in_block(2), 1);
    }
}
