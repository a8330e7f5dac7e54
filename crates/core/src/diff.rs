//! Page differentials: the changed bytes of a page against its *base*,
//! the last version of it that was written whole.
//!
//! *Page-Differential Logging* (Kim, Whang & Song) writes only the bytes
//! a page update changed. X-FTL carries such a differential in the
//! commit's X-L2P table image instead of programming a new whole page
//! (DESIGN.md §5.2, "Differentials"). A [`Diff`] is a list of runs
//! `(offset, bytes)`. It is always taken against the base, never against
//! the previous differential, so it is cumulative: the newest one alone
//! rebuilds the page, and applying it is idempotent.
//!
//! On flash a differential is a run count (`u16`) and, per run, its
//! offset and length (`u16` each) and its bytes. [`Diff::encoded_len`]
//! is the runs' part of that, which is what the size limit bounds.

/// Largest encoded differential kept as one, for an 8 KB page: past it
/// the page is written whole, and that whole write is the merge. Pages
/// smaller than 8 KB scale it down (see [`limit_for`]).
pub const DIFF_LIMIT: usize = 512;

/// Two changed stretches closer than this share one run: the equal bytes
/// between them cost less than a second run header. Two words.
const MERGE_GAP: usize = 16;

/// Bytes of a run's header: offset and length.
const RUN_HEADER: usize = 4;

/// Word the comparison strides by.
const WORD: usize = 8;

/// Span compared at once, and scanned word by word where it differs.
const BLOCK: usize = 256;

/// The differential size limit for pages of `page_size` bytes:
/// [`DIFF_LIMIT`] on an 8 KB page, a sixteenth of smaller ones.
pub fn limit_for(page_size: usize) -> usize {
    DIFF_LIMIT.min(page_size / 16)
}

/// The changed bytes of a page against its base, held in its flash
/// encoding: a run count, then each run's offset, length and bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    encoded: Vec<u8>,
}

impl Default for Diff {
    fn default() -> Self {
        Diff {
            encoded: vec![0, 0],
        }
    }
}

impl Diff {
    /// The differential that turns `base` into `new`, or `None` once its
    /// encoded size passes `limit`. Equal stretches are skipped a block
    /// or a word at a time, and the scan stops at the first run that
    /// passes the limit.
    ///
    /// # Panics
    /// If the pages differ in length or are longer than 64 KB.
    pub fn encode(base: &[u8], new: &[u8], limit: usize) -> Option<Diff> {
        assert_eq!(base.len(), new.len(), "a differential spans one page size");
        assert!(base.len() <= usize::from(u16::MAX) + 1, "offsets are u16");
        let n = base.len();
        let mut diff = Diff::default();
        let mut next = next_change(base, new, 0);
        while let Some(start) = next {
            // The run takes in every change less than MERGE_GAP equal
            // bytes after its last, jumping to the farthest one in that
            // window; it is at least as long as its last change, so its
            // size is checked as that moves.
            let mut last = start;
            let window = loop {
                if diff.encoded_len() + RUN_HEADER + (last + 1 - start) > limit {
                    return None;
                }
                let window = (last + 1 + MERGE_GAP).min(n);
                match last_change(base, new, last + 1, window) {
                    Some(at) => last = at,
                    None => break window,
                }
            };
            diff.push(start, &new[start..=last]);
            next = next_change(base, new, window);
        }
        Some(diff)
    }

    /// The differential that rewrites every byte of a page, whatever its
    /// base: `page` itself, as runs.
    pub fn whole(page: &[u8]) -> Diff {
        const MAX_RUN: usize = 1 << 15;
        let mut diff = Diff::default();
        for (i, run) in page.chunks(MAX_RUN).enumerate() {
            diff.push(i * MAX_RUN, run);
        }
        diff
    }

    /// Appends a run of `bytes` at `offset`.
    fn push(&mut self, offset: usize, bytes: &[u8]) {
        let count = u16::from_le_bytes([self.encoded[0], self.encoded[1]]) + 1;
        self.encoded[..2].copy_from_slice(&count.to_le_bytes());
        self.encoded
            .extend_from_slice(&(offset as u16).to_le_bytes());
        self.encoded
            .extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        self.encoded.extend_from_slice(bytes);
    }

    /// The runs, as `(offset, bytes)`.
    fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut at = 2;
        std::iter::from_fn(move || {
            let field =
                |i: usize| usize::from(u16::from_le_bytes([self.encoded[i], self.encoded[i + 1]]));
            if at >= self.encoded.len() {
                return None;
            }
            let (off, len) = (field(at), field(at + 2));
            let bytes = &self.encoded[at + RUN_HEADER..at + RUN_HEADER + len];
            at += RUN_HEADER + len;
            Some((off, bytes))
        })
    }

    /// Writes the runs over `page`. Idempotent: applying twice is
    /// applying once.
    pub fn apply(&self, page: &mut [u8]) {
        for (off, bytes) in self.runs() {
            page[off..off + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Encoded size of the runs: a header and the bytes of each.
    pub fn encoded_len(&self) -> usize {
        self.encoded.len() - 2
    }

    /// True if the page equals its base.
    pub fn is_empty(&self) -> bool {
        self.encoded.len() == 2
    }

    /// Appends the flash encoding: run count, then each run.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encoded);
    }

    /// Parses one differential off the front of `bytes`, returning it and
    /// the bytes it took; `None` if `bytes` ends inside it or a run does
    /// not fit a page of `page_size`.
    pub fn read_from(bytes: &[u8], page_size: usize) -> Option<(Diff, usize)> {
        let field = |at: usize| {
            Some(usize::from(u16::from_le_bytes(
                bytes.get(at..at + 2)?.try_into().ok()?,
            )))
        };
        let count = field(0)?;
        let mut at = 2;
        for _ in 0..count {
            let (off, len) = (field(at)?, field(at + 2)?);
            if off + len > page_size || bytes.len() < at + RUN_HEADER + len {
                return None;
            }
            at += RUN_HEADER + len;
        }
        let encoded = bytes[..at].to_vec();
        Some((Diff { encoded }, at))
    }
}

/// The first index at or past `at` where the pages differ. The next
/// [`BLOCK`] bytes are scanned word by word, the first differing byte of
/// a word read off the XOR of the two; past them, the pages are compared
/// a block at a time, in order, and the first block that differs is
/// scanned.
fn next_change(base: &[u8], new: &[u8], at: usize) -> Option<usize> {
    let n = base.len();
    let mut end = (at + BLOCK).min(n);
    if let Some(i) = scan(base, new, at, end) {
        return Some(i);
    }
    while end < n {
        let (from, to) = (end, (end + BLOCK).min(n));
        if base[from..to] != new[from..to] {
            return scan(base, new, from, to);
        }
        end = to;
    }
    None
}

/// The first index in `at..end` where the pages differ, by words.
fn scan(base: &[u8], new: &[u8], at: usize, end: usize) -> Option<usize> {
    let (b, n) = (&base[at..end], &new[at..end]);
    let words = b.chunks_exact(WORD).zip(n.chunks_exact(WORD));
    for (i, (x, y)) in words.enumerate() {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return Some(at + i * WORD + (diff.trailing_zeros() / 8) as usize);
        }
    }
    let tail = b.len() / WORD * WORD;
    (tail..b.len()).find(|&i| b[i] != n[i]).map(|i| at + i)
}

/// The last index in `at..end` where the pages differ, for a window of
/// at most two words: read off the XOR of the words that end it.
fn last_change(base: &[u8], new: &[u8], at: usize, end: usize) -> Option<usize> {
    if end - at != 2 * WORD {
        return (at..end).rev().find(|&i| base[i] != new[i]);
    }
    let high = word(&base[at + WORD..end]) ^ word(&new[at + WORD..end]);
    if high != 0 {
        return Some(at + 2 * WORD - 1 - (high.leading_zeros() / 8) as usize);
    }
    let low = word(&base[at..at + WORD]) ^ word(&new[at..at + WORD]);
    (low != 0).then(|| at + WORD - 1 - (low.leading_zeros() / 8) as usize)
}

/// A little-endian word of exactly [`WORD`] bytes.
fn word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; WORD];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PAGE: usize = 8192;

    fn fill(rng: &mut StdRng, bytes: &mut [u8]) {
        for b in bytes {
            *b = rng.gen_range(0u8..=255);
        }
    }

    /// `base` with `edits` random small stretches rewritten.
    fn edited(rng: &mut StdRng, base: &[u8], edits: usize) -> Vec<u8> {
        let mut page = base.to_vec();
        for _ in 0..edits {
            let len = rng.gen_range(1..24);
            let off = rng.gen_range(0..page.len() - len);
            fill(rng, &mut page[off..off + len]);
        }
        page
    }

    fn applied(base: &[u8], diff: &Diff) -> Vec<u8> {
        let mut page = base.to_vec();
        diff.apply(&mut page);
        page
    }

    #[test]
    fn encode_then_apply_gives_the_new_page_back() {
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut base = vec![0u8; PAGE];
            fill(&mut rng, &mut base);
            let edits = rng.gen_range(0..40);
            let new = edited(&mut rng, &base, edits);
            let diff = Diff::encode(&base, &new, usize::MAX).unwrap();
            assert_eq!(applied(&base, &diff), new, "seed {seed}");
            // And through the flash encoding.
            let mut bytes = Vec::new();
            diff.write_to(&mut bytes);
            let (back, used) = Diff::read_from(&bytes, PAGE).unwrap();
            assert_eq!((back, used), (diff, bytes.len()), "seed {seed}");
        }
    }

    #[test]
    fn applying_is_idempotent() {
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = vec![7u8; PAGE];
            let new = edited(&mut rng, &base, 12);
            let diff = Diff::encode(&base, &new, DIFF_LIMIT).unwrap();
            let once = applied(&base, &diff);
            assert_eq!(applied(&once, &diff), once, "seed {seed}");
        }
    }

    #[test]
    fn a_cumulative_differential_equals_its_steps_composed() {
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = vec![3u8; PAGE];
            let mut page = base.clone();
            let mut stepped = base.clone();
            for _ in 0..6 {
                let next = edited(&mut rng, &page, 3);
                // One step against the previous version...
                Diff::encode(&page, &next, usize::MAX)
                    .unwrap()
                    .apply(&mut stepped);
                page = next;
            }
            // ...and one cumulative differential against the base.
            let cumulative = Diff::encode(&base, &page, usize::MAX).unwrap();
            assert_eq!(applied(&base, &cumulative), stepped, "seed {seed}");
            assert_eq!(stepped, page);
        }
    }

    #[test]
    fn the_early_exit_never_undercounts() {
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = vec![0u8; PAGE];
            let edits = rng.gen_range(0..60);
            let new = edited(&mut rng, &base, edits);
            let full = Diff::encode(&base, &new, usize::MAX).unwrap();
            let limit = rng.gen_range(0..=2 * DIFF_LIMIT);
            match Diff::encode(&base, &new, limit) {
                Some(diff) => {
                    assert_eq!(diff, full, "seed {seed}");
                    assert!(diff.encoded_len() <= limit);
                }
                None => assert!(full.encoded_len() > limit, "seed {seed}"),
            }
        }
    }

    #[test]
    fn a_zero_byte_differential_round_trips() {
        let base = vec![9u8; PAGE];
        let diff = Diff::encode(&base, &base, 0).unwrap();
        assert!(diff.is_empty());
        assert_eq!(diff.encoded_len(), 0);
        assert_eq!(applied(&base, &diff), base);
        let mut bytes = Vec::new();
        diff.write_to(&mut bytes);
        assert_eq!(bytes, [0, 0]);
        assert_eq!(Diff::read_from(&bytes, PAGE), Some((diff, 2)));
    }

    #[test]
    fn nearby_changes_share_a_run_and_distant_ones_do_not() {
        let base = vec![0u8; 256];
        let mut new = base.clone();
        new[10] = 1;
        new[10 + MERGE_GAP] = 1; // 15 equal bytes between: one run
        new[100] = 1;
        new[100 + MERGE_GAP + 1] = 1; // 16 equal bytes between: two runs
        let diff = Diff::encode(&base, &new, usize::MAX).unwrap();
        let runs: Vec<(usize, usize)> = diff.runs().map(|(off, b)| (off, b.len())).collect();
        assert_eq!(runs, [(10, 17), (100, 1), (117, 1)]);
        assert_eq!(diff.encoded_len(), 3 * RUN_HEADER + 19);
    }

    #[test]
    fn a_whole_page_run_rebuilds_the_page_over_any_base() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut page = vec![0u8; 65536];
        fill(&mut rng, &mut page);
        let diff = Diff::whole(&page);
        assert_eq!(applied(&vec![0xEE; page.len()], &diff), page);
        assert_eq!(diff.encoded_len(), page.len() + 2 * RUN_HEADER);
    }

    #[test]
    fn a_truncated_encoding_is_refused() {
        let base = vec![0u8; 64];
        let mut new = base.clone();
        new[5..9].fill(1);
        let mut bytes = Vec::new();
        Diff::encode(&base, &new, usize::MAX)
            .unwrap()
            .write_to(&mut bytes);
        for cut in 0..bytes.len() {
            assert_eq!(Diff::read_from(&bytes[..cut], 64), None, "cut at {cut}");
        }
        assert_eq!(Diff::read_from(&bytes, 8), None, "a run past the page");
    }
}
