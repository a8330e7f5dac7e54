//! Page differentials: the changed bytes of a page against its *base*,
//! the last version of it that was written whole.
//!
//! *Page-Differential Logging* (Kim, Whang & Song) writes only the bytes
//! a page update changed. X-FTL carries such a differential in the
//! commit's X-L2P table image instead of programming a new whole page
//! (DESIGN.md §5.2, "Differentials"). A [`Diff`] is a list of runs of two
//! kinds: a *literal* `(offset, bytes)` writes bytes, and a *copy*
//! `(dst, src, len)` copies base bytes from another offset, as VCDIFF's
//! COPY does (RFC 3284). It is always taken against the base, never
//! against the previous differential, so it is cumulative: the newest one
//! alone rebuilds the page from its base. Copies read the base, not the
//! page being rewritten, so a differential applies to its base only.
//!
//! One greedy pass encodes it, run at most twice. Run without an index
//! it resyncs after a change only where 16 bytes match at the same
//! offset: a positional comparison, exact for an edit in place. A B-tree
//! page packs its cells back to back, though, so an insert, a delete or a
//! record that changes length moves every later byte; if the first run
//! passes the limit, a second one finds the moved bytes through an index
//! of the base's words and copies them. Only the second run may go past
//! the limit, up to a cap: the first, let as far, keeps long literals
//! where a few copies would have done.
//!
//! On flash a differential is a run count (`u16`) and, per run, its
//! offset and length (`u16` each) and its bytes; a copy is a run of
//! length 0 followed by its source offset and length (`u16` each).
//! [`Diff::encoded_len`] is the runs' part of that, which is what the
//! size limit bounds.

/// Largest encoded differential the positional run keeps, for an 8 KB
/// page, and the largest that stays live past its commit's durability
/// point: one past it rides its commit's table image and is merged right
/// after (DESIGN.md §5.2). Pages smaller than 8 KB scale it down (see
/// [`limit_for`]).
pub const DIFF_LIMIT: usize = 512;

/// Bytes of a run's header: offset and length.
const RUN_HEADER: usize = 4;

/// Bytes of a copy run: a header of length 0, then source and length.
const COPY_RUN: usize = 8;

/// Longest literal one header carries: a 64 KB page takes two.
const MAX_RUN: usize = 1 << 15;

/// Shortest stretch the pass matches after a change, two words: two
/// changed stretches closer than this share one literal, as the equal
/// bytes between them cost less than a second run header.
const MIN_MATCH: usize = 16;

/// Word the comparison strides by, and the base's index is keyed by.
const WORD: usize = 8;

/// Span compared at once, and scanned word by word where it differs.
const BLOCK: usize = 256;

/// The differential size limit for pages of `page_size` bytes:
/// [`DIFF_LIMIT`] on an 8 KB page, a sixteenth of smaller ones.
pub fn limit_for(page_size: usize) -> usize {
    DIFF_LIMIT.min(page_size / 16)
}

/// The cap on an encoded differential for pages of `page_size` bytes, a
/// quarter page (2 KB on 8 KB pages): only the indexed run may pass
/// [`limit_for`], and a differential past this is refused and the page
/// written whole before its commit's image. The cap is a sweep
/// (DESIGN.md §5.2).
pub fn cap_for(page_size: usize) -> usize {
    page_size / 4
}

/// One run of a differential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run<'a> {
    /// Writes `bytes` at `dst`.
    Literal { dst: usize, bytes: &'a [u8] },
    /// Copies `len` base bytes at `src` to `dst`.
    Copy { dst: usize, src: usize, len: usize },
}

/// The changed bytes of a page against its base, held in its flash
/// encoding: a run count, then each run.
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
    /// The differential that turns `base` into `new`: [`Diff::greedy`]
    /// without the base's word index up to `limit` bytes encoded, and
    /// with it up to `cap` if that passes the limit; `None` past both.
    ///
    /// # Panics
    /// If the pages differ in length or are longer than 64 KB.
    pub fn encode(base: &[u8], new: &[u8], limit: usize, cap: usize) -> Option<Diff> {
        assert_eq!(base.len(), new.len(), "a differential spans one page size");
        assert!(base.len() <= usize::from(u16::MAX) + 1, "offsets are u16");
        Self::greedy(base, new, limit, None)
            .or_else(|| Self::greedy(base, new, cap, Some(&WordIndex::new(base))))
    }

    /// The pass: a match is extended at the current shift; where it
    /// breaks, the pass resyncs at the first offset where [`MIN_MATCH`]
    /// bytes match the base at shift 0, at the current shift, or where
    /// `index` places them. The bytes skipped are a literal, a stretch
    /// matched at a shift other than 0 a copy. Without an index the shift
    /// stays 0: a literal ends where [`MIN_MATCH`] equal bytes follow its
    /// last change. The resync scan ends where its literal would pass the
    /// limit, so an incompressible page costs about the limit in probes.
    fn greedy(base: &[u8], new: &[u8], limit: usize, index: Option<&WordIndex>) -> Option<Diff> {
        let n = base.len();
        let mut diff = Diff::default();
        let (mut at, mut shift) = (0, 0isize);
        while at < n {
            let src = at.wrapping_add_signed(shift);
            let len = common_len(&new[at..], base.get(src..).unwrap_or_default());
            if len > 0 {
                if shift != 0 {
                    diff.push_copy(at, src, len);
                }
                at += len;
            } else {
                // The literal up to the resync must fit what is left.
                let room = limit.checked_sub(diff.encoded_len() + RUN_HEADER);
                let last = room.map_or(at, |room| (at + room.min(n)).min(n - 1));
                let (mut to, hit) = match resync(base, index, new, at..last + 1, shift) {
                    Some(found) => found,
                    // No offset is left where a match could start.
                    None if last + MIN_MATCH >= n => (n, 0),
                    None => return None,
                };
                // A match the index placed may start before its probe.
                while to > at
                    && (to - 1)
                        .checked_add_signed(hit)
                        .is_some_and(|from| new[to - 1] == base[from])
                {
                    to -= 1;
                }
                if to > at {
                    diff.push_literal(at, &new[at..to]);
                }
                (at, shift) = (to, hit);
            }
            if diff.encoded_len() > limit {
                return None;
            }
        }
        Some(diff)
    }

    /// The differential that rewrites every byte of a page, whatever its
    /// base: `page` itself, as runs.
    pub fn whole(page: &[u8]) -> Diff {
        let mut diff = Diff::default();
        diff.push_literal(0, page);
        diff
    }

    /// Bumps the run count.
    fn count_run(&mut self) {
        let count = u16::from_le_bytes([self.encoded[0], self.encoded[1]]) + 1;
        self.encoded[..2].copy_from_slice(&count.to_le_bytes());
    }

    /// Appends `u16` fields.
    fn put(&mut self, fields: &[usize]) {
        for &f in fields {
            assert!(
                f <= usize::from(u16::MAX),
                "a field of a differential is a u16"
            );
            self.encoded.extend_from_slice(&(f as u16).to_le_bytes());
        }
    }

    /// Appends literal runs of `bytes` at `offset`, [`MAX_RUN`] bytes at
    /// most each.
    fn push_literal(&mut self, offset: usize, bytes: &[u8]) {
        for (i, run) in bytes.chunks(MAX_RUN).enumerate() {
            self.count_run();
            self.put(&[offset + i * MAX_RUN, run.len()]);
            self.encoded.extend_from_slice(run);
        }
    }

    /// Appends a copy run of `len` base bytes from `src` to `dst`.
    fn push_copy(&mut self, dst: usize, src: usize, len: usize) {
        self.count_run();
        self.put(&[dst, 0, src, len]);
    }

    /// The runs, in order.
    fn runs(&self) -> impl Iterator<Item = Run<'_>> {
        let mut at = 2;
        std::iter::from_fn(move || {
            let field =
                |i: usize| usize::from(u16::from_le_bytes([self.encoded[i], self.encoded[i + 1]]));
            if at >= self.encoded.len() {
                return None;
            }
            let (dst, len) = (field(at), field(at + 2));
            if len == 0 {
                let (src, len) = (field(at + 4), field(at + 6));
                at += COPY_RUN;
                return Some(Run::Copy { dst, src, len });
            }
            let bytes = &self.encoded[at + RUN_HEADER..at + RUN_HEADER + len];
            at += RUN_HEADER + len;
            Some(Run::Literal { dst, bytes })
        })
    }

    /// Rewrites `page`, which holds the differential's base, into the
    /// page it encodes. Copies read the base as it was on entry.
    pub fn apply(&self, page: &mut [u8]) {
        let base = self.has_copies().then(|| page.to_vec());
        for run in self.runs() {
            match run {
                Run::Literal { dst, bytes } => page[dst..dst + bytes.len()].copy_from_slice(bytes),
                Run::Copy { dst, src, len } => {
                    if let Some(base) = &base {
                        page[dst..dst + len].copy_from_slice(&base[src..src + len]);
                    }
                }
            }
        }
    }

    /// True if a run copies base bytes from another offset.
    pub fn has_copies(&self) -> bool {
        self.runs().any(|r| matches!(r, Run::Copy { .. }))
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
    /// the bytes it took; `None` if `bytes` ends inside it, or a run
    /// writes, or a copy reads, past a page of `page_size`.
    pub fn read_from(bytes: &[u8], page_size: usize) -> Option<(Diff, usize)> {
        let field = |at: usize| {
            Some(usize::from(u16::from_le_bytes(
                bytes.get(at..at + 2)?.try_into().ok()?,
            )))
        };
        let count = field(0)?;
        let mut at = 2;
        for _ in 0..count {
            let (dst, len) = (field(at)?, field(at + 2)?);
            let (src, len, size) = match len {
                0 => (field(at + 4)?, field(at + 6)?, COPY_RUN),
                len => (dst, len, RUN_HEADER + len),
            };
            if dst + len > page_size || src + len > page_size || bytes.len() < at + size {
                return None;
            }
            at += size;
        }
        let encoded = bytes[..at].to_vec();
        Some((Diff { encoded }, at))
    }
}

/// Where [`Diff::greedy`] picks up after a change: the first new offset
/// in `probes` where [`MIN_MATCH`] bytes match the base at shift 0, at
/// `shift`, or where `index` places their first word. The offset and the
/// shift of the match.
fn resync(
    base: &[u8],
    index: Option<&WordIndex>,
    new: &[u8],
    probes: std::ops::Range<usize>,
    shift: isize,
) -> Option<(usize, isize)> {
    let n = new.len();
    let (mut j, end) = (
        probes.start,
        probes.end.min((n + 1).saturating_sub(MIN_MATCH)),
    );
    while j < end {
        let first = word(&new[j..j + WORD]);
        let shifted = j.checked_add_signed(shift).filter(|_| shift != 0);
        let placed = index.map(|index| index.find(first));
        // The second word is compared only where the first matched.
        let from = [Some(j), shifted, placed]
            .into_iter()
            .flatten()
            .find(|&from| {
                from + MIN_MATCH <= n
                    && word(&base[from..from + WORD]) == first
                    && base[from + WORD..from + MIN_MATCH] == new[j + WORD..j + MIN_MATCH]
            });
        if let Some(from) = from {
            return Some((j, from as isize - j as isize));
        }
        // At shift 0 alone, no probe up to the last byte that differs
        // among these can match.
        j = match (index, shift) {
            (None, 0) => (j..j + MIN_MATCH).rev().find(|&i| new[i] != base[i]),
            _ => None,
        }
        .map_or(j + 1, |i| i + 1);
    }
    None
}

/// The base's words at word-aligned offsets, by hash: where a word of
/// the new page may have come from. A slot holds the first word that
/// hashes to it, or word 0 if none does: a candidate either way.
struct WordIndex {
    /// Word number of a word hashing to the slot.
    slots: Vec<u16>,
    bits: u32,
}

impl WordIndex {
    fn new(base: &[u8]) -> Self {
        let words = base.len() / WORD;
        let bits = (2 * words).max(2).next_power_of_two().trailing_zeros();
        let mut index = WordIndex {
            slots: vec![0; 1 << bits],
            bits,
        };
        // Backwards, so the first word of a slot is the one left in it.
        for (i, w) in base.chunks_exact(WORD).enumerate().rev() {
            let slot = index.slot(word(w));
            index.slots[slot] = i as u16;
        }
        index
    }

    fn slot(&self, w: u64) -> usize {
        (w.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.bits)) as usize
    }

    /// The offset of the base word the slot of `w` holds: equal to `w`,
    /// or not.
    fn find(&self, w: u64) -> usize {
        usize::from(self.slots[self.slot(w)]) * WORD
    }
}

/// Length of the common prefix of `a` and `b`. The first [`BLOCK`]
/// bytes are compared a word at a time, the first differing byte of a
/// word read off the XOR of the two; past them, a block at a time, and
/// the first block that differs word by word.
fn common_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut at = 0;
    while at < n {
        let end = (at + BLOCK).min(n);
        let (x, y) = (&a[at..end], &b[at..end]);
        if at == 0 || x != y {
            for (i, (x, y)) in x.chunks_exact(WORD).zip(y.chunks_exact(WORD)).enumerate() {
                let diff = word(x) ^ word(y);
                if diff != 0 {
                    return at + i * WORD + (diff.trailing_zeros() / 8) as usize;
                }
            }
            let tail = at + x.len() / WORD * WORD;
            if let Some(i) = (tail..end).find(|&i| a[i] != b[i]) {
                return i;
            }
        }
        at = end;
    }
    n
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

    /// A cell of a B-tree page: an 8-byte key, then payload.
    fn cell(rng: &mut StdRng) -> Vec<u8> {
        let mut cell = vec![0u8; rng.gen_range(16..200)];
        fill(rng, &mut cell);
        cell
    }

    /// A page laid out as `btree.rs` lays one out: a 12-byte header with
    /// the cell count, the cells back to back, zeros after.
    fn btree_page(cells: &[Vec<u8>]) -> Vec<u8> {
        let mut page = vec![0u8; PAGE];
        page[0] = 1;
        page[2..4].copy_from_slice(&(cells.len() as u16).to_le_bytes());
        let mut at = 12;
        for c in cells {
            page[at..at + c.len()].copy_from_slice(c);
            at += c.len();
        }
        page
    }

    /// A B-tree page filled to between a third and three quarters, and
    /// the page after one to three edits: a cell inserted mid-page, a
    /// cell deleted, a record grown or shrunk, or bytes edited in place.
    fn btree_edit(rng: &mut StdRng) -> (Vec<u8>, Vec<u8>) {
        let target = rng.gen_range(PAGE / 3..PAGE * 3 / 4);
        let mut cells = Vec::new();
        while cells.iter().map(Vec::len).sum::<usize>() < target {
            cells.push(cell(rng));
        }
        let base = btree_page(&cells);
        for _ in 0..rng.gen_range(1..=3) {
            let i = rng.gen_range(0..cells.len());
            match rng.gen_range(0..4) {
                0 => cells.insert(i, cell(rng)),
                1 if cells.len() > 1 => drop(cells.remove(i)),
                2 => {
                    let len = rng.gen_range(9..240);
                    let old = cells[i].len();
                    cells[i].resize(len, 0);
                    if len > old {
                        fill(rng, &mut cells[i][old..]);
                    }
                }
                _ => {
                    let len = rng.gen_range(1..=8.min(cells[i].len()));
                    let off = rng.gen_range(0..=cells[i].len() - len);
                    fill(rng, &mut cells[i][off..off + len]);
                }
            }
        }
        (base, btree_page(&cells))
    }

    /// A page pair of seed `seed`: B-tree edits, or in-place edits of a
    /// random page.
    fn case(seed: u64) -> (Vec<u8>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        if seed.is_multiple_of(3) {
            let mut base = vec![0u8; PAGE];
            fill(&mut rng, &mut base);
            let edits = rng.gen_range(0..60);
            let new = edited(&mut rng, &base, edits);
            (base, new)
        } else {
            btree_edit(&mut rng)
        }
    }

    /// Applies, and round-trips through the flash encoding.
    fn check_exact(base: &[u8], new: &[u8], diff: &Diff, what: &str) {
        assert!(applied(base, diff) == new, "{what}: apply");
        let mut bytes = Vec::new();
        diff.write_to(&mut bytes);
        let (back, used) = Diff::read_from(&bytes, base.len()).unwrap();
        assert_eq!((&back, used), (diff, bytes.len()), "{what}: flash");
    }

    /// The pass without the base's index: the first run of `encode`.
    fn unindexed(base: &[u8], new: &[u8], limit: usize) -> Option<Diff> {
        Diff::greedy(base, new, limit, None)
    }

    /// The pass with the base's index: the second run of `encode`.
    fn indexed(base: &[u8], new: &[u8], limit: usize) -> Option<Diff> {
        Diff::greedy(base, new, limit, Some(&WordIndex::new(base)))
    }

    /// `pass` at `limit`: the full encoding if that fits, else `None`.
    fn assert_exact(pass: Pass, base: &[u8], new: &[u8], limit: usize, what: &str) {
        let full = pass(base, new, usize::MAX).unwrap();
        match pass(base, new, limit) {
            Some(diff) => {
                assert_eq!(diff, full, "{what}, limit {limit}");
                assert!(diff.encoded_len() <= limit);
            }
            None => assert!(full.encoded_len() > limit, "{what}, limit {limit}"),
        }
    }

    /// A run of the pass, at a limit.
    type Pass = fn(&[u8], &[u8], usize) -> Option<Diff>;

    /// A random page, and the page with a few bytes changed mid-page and
    /// one of its last 15 changed: no 16-byte match starts after that.
    fn tail_edit(seed: u64) -> (Vec<u8>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut base = vec![0u8; PAGE];
        fill(&mut rng, &mut base);
        let mut new = base.clone();
        let (at, len) = (rng.gen_range(PAGE / 4..PAGE * 3 / 4), rng.gen_range(1..24));
        fill(&mut rng, &mut new[at..at + len]);
        let last = rng.gen_range(PAGE - 15..PAGE);
        new[last] = !base[last];
        (base, new)
    }

    /// The positional pass `encode` ran before the greedy pass took it
    /// over, kept as the reference the run without an index must equal:
    /// literal runs at the offsets that changed, two changes fewer than
    /// [`MIN_MATCH`] equal bytes apart sharing one; the scan stops at the
    /// first run that passes the limit.
    fn positional(base: &[u8], new: &[u8], limit: usize) -> Option<Diff> {
        let n = base.len();
        let mut diff = Diff::default();
        let mut next = next_change(base, new, 0);
        while let Some(start) = next {
            let mut last = start;
            let window = loop {
                if diff.encoded_len() + RUN_HEADER + (last + 1 - start) > limit {
                    return None;
                }
                let window = (last + 1 + MIN_MATCH).min(n);
                match last_change(base, new, last + 1, window) {
                    Some(at) => last = at,
                    None => break window,
                }
            };
            diff.push_literal(start, &new[start..=last]);
            next = next_change(base, new, window);
        }
        Some(diff)
    }

    /// The first index at or past `at` where the pages differ.
    fn next_change(base: &[u8], new: &[u8], at: usize) -> Option<usize> {
        (at..base.len()).find(|&i| base[i] != new[i])
    }

    /// The last index in `at..end` where the pages differ.
    fn last_change(base: &[u8], new: &[u8], at: usize, end: usize) -> Option<usize> {
        (at..end).rev().find(|&i| base[i] != new[i])
    }

    #[test]
    fn encode_then_apply_gives_the_new_page_back() {
        for seed in 0..300 {
            let (base, new) = case(seed);
            let full = Diff::encode(&base, &new, usize::MAX, usize::MAX).unwrap();
            check_exact(&base, &new, &full, &format!("seed {seed}"));
            let shifted = indexed(&base, &new, usize::MAX).unwrap();
            check_exact(&base, &new, &shifted, &format!("seed {seed}, indexed"));
        }
    }

    #[test]
    fn the_early_exit_never_undercounts_on_either_pass() {
        // Without the index, exact at every limit: at a random one, at
        // the full encoding's length and a byte short of it.
        for seed in 0..20_000 {
            let (base, new) = case(seed);
            let len = unindexed(&base, &new, usize::MAX).unwrap().encoded_len();
            let limit = StdRng::seed_from_u64(!seed).gen_range(0..=2 * DIFF_LIMIT);
            for limit in [limit, len, len.saturating_sub(1)] {
                assert_exact(unindexed, &base, &new, limit, &format!("seed {seed}"));
            }
        }
        // With it, at a random limit (see
        // `an_index_placed_match_can_be_refused_though_it_fits`).
        for seed in 0..300 {
            let (base, new) = case(seed);
            let limit = StdRng::seed_from_u64(!seed).gen_range(0..=2 * DIFF_LIMIT);
            assert_exact(
                indexed,
                &base,
                &new,
                limit,
                &format!("seed {seed}, indexed"),
            );
            match Diff::encode(&base, &new, limit, limit) {
                Some(diff) => check_exact(&base, &new, &diff, &format!("seed {seed}")),
                None => assert!(
                    unindexed(&base, &new, limit)
                        .or_else(|| indexed(&base, &new, limit))
                        .is_none(),
                    "seed {seed}"
                ),
            }
        }
        // A last change in the page's last 15 bytes, where no match can
        // start after it: both runs fit it at exactly its length.
        for seed in 0..1_000 {
            let (base, new) = tail_edit(seed);
            for (name, pass) in [("no index", unindexed as Pass), ("indexed", indexed)] {
                let full = pass(&base, &new, usize::MAX).unwrap();
                let len = full.encoded_len();
                assert_eq!(
                    pass(&base, &new, len),
                    Some(full),
                    "tail seed {seed}, {name}"
                );
            }
        }
    }

    /// The one place the indexed run is not exact: the index places a
    /// match at its probe, and the match is extended back to start before
    /// it. A limit that the literal up to the match's start fits, but the
    /// scan to the probe does not, refuses a differential that fits.
    /// Counted near the limit, where it shows, on a fixed set of cases.
    #[test]
    fn an_index_placed_match_can_be_refused_though_it_fits() {
        let mut refused = 0;
        for seed in 0..1_000 {
            let (base, new) = case(seed);
            let full = indexed(&base, &new, usize::MAX).unwrap();
            for limit in full.encoded_len()..full.encoded_len() + 9 {
                if indexed(&base, &new, limit).is_none() {
                    assert!(full.has_copies(), "seed {seed}: no match placed");
                    refused += 1;
                }
            }
        }
        assert_eq!(refused, 506);
    }

    /// The first run of `encode` is the positional pass it replaced, at
    /// any limit.
    #[test]
    fn the_run_without_an_index_is_the_positional_pass() {
        let cases = (0..2_000).map(case).chain((0..1_000).map(tail_edit));
        for (i, (base, new)) in cases.enumerate() {
            let full = positional(&base, &new, usize::MAX).unwrap();
            let limit = StdRng::seed_from_u64(!(i as u64)).gen_range(0..=2 * DIFF_LIMIT);
            for limit in [usize::MAX, limit, full.encoded_len()] {
                let want = positional(&base, &new, limit);
                assert_eq!(unindexed(&base, &new, limit), want, "case {i}, {limit}");
            }
            // It is what `encode` gives whenever it fits, whatever the cap.
            if full.encoded_len() <= DIFF_LIMIT {
                assert_eq!(
                    Diff::encode(&base, &new, DIFF_LIMIT, usize::MAX),
                    Some(full)
                );
            }
        }
        // And its bytes are the format's: count, then offset, length and
        // bytes per run.
        let base = vec![0u8; 64];
        let mut new = base.clone();
        new[3..5].fill(7);
        new[40] = 9;
        let mut bytes = Vec::new();
        Diff::encode(&base, &new, 32, 32)
            .unwrap()
            .write_to(&mut bytes);
        assert_eq!(bytes, [2, 0, 3, 0, 2, 0, 7, 7, 40, 0, 1, 0, 9]);
    }

    #[test]
    fn a_cell_inserted_or_deleted_mid_page_is_a_few_copies() {
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cells: Vec<Vec<u8>> = (0..30).map(|_| cell(&mut rng)).collect();
            let base = btree_page(&cells);
            let inserted = cell(&mut rng);
            let len = inserted.len();
            cells.insert(rng.gen_range(1..29), inserted);
            let new = btree_page(&cells);
            // The header, the cell, one copy of the tail, and zeros.
            assert!(
                Diff::encode(&base, &new, DIFF_LIMIT, DIFF_LIMIT).is_some(),
                "seed {seed}"
            );
            let diff = indexed(&base, &new, DIFF_LIMIT).unwrap();
            assert!(diff.has_copies(), "seed {seed}");
            assert!(diff.encoded_len() <= len + 40, "seed {seed}: {len} B cell");
            check_exact(&base, &new, &diff, &format!("seed {seed}"));
            // The delete is the way back.
            let back = indexed(&new, &base, DIFF_LIMIT).unwrap();
            assert!(back.has_copies() && back.encoded_len() <= 40, "seed {seed}");
            check_exact(&new, &base, &back, &format!("seed {seed}"));
        }
    }

    #[test]
    fn applying_reads_the_base_where_runs_overlap() {
        // A cell moves left and another right: the second copy's source
        // is bytes the first copy has already rewritten.
        let mut rng = StdRng::seed_from_u64(3);
        let cells: Vec<Vec<u8>> = (0..8).map(|_| cell(&mut rng)).collect();
        let mut moved = cells.clone();
        moved.swap(2, 5);
        let (base, new) = (btree_page(&cells), btree_page(&moved));
        let diff = indexed(&base, &new, usize::MAX).unwrap();
        let copies = diff
            .runs()
            .filter(|r| matches!(r, Run::Copy { .. }))
            .count();
        assert!(copies >= 2, "{:?}", diff.runs().collect::<Vec<_>>());
        assert!(applied(&base, &diff) == new);
        // Each run applied over the page as it stands gives another page:
        // applying is not idempotent any more, and depends on the base.
        let mut in_place = base.clone();
        for run in diff.runs() {
            let mut single = Diff::default();
            match run {
                Run::Literal { dst, bytes } => single.push_literal(dst, bytes),
                Run::Copy { dst, src, len } => single.push_copy(dst, src, len),
            }
            single.apply(&mut in_place);
        }
        assert!(in_place != new, "the runs overlap");
        assert!(applied(&new, &diff) != new);
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
                Diff::encode(&page, &next, usize::MAX, usize::MAX)
                    .unwrap()
                    .apply(&mut stepped);
                page = next;
            }
            // ...and one cumulative differential against the base.
            let cumulative = Diff::encode(&base, &page, usize::MAX, usize::MAX).unwrap();
            assert_eq!(applied(&base, &cumulative), stepped, "seed {seed}");
            assert_eq!(stepped, page);
        }
    }

    #[test]
    fn an_incompressible_page_stops_within_the_limit() {
        let mut rng = StdRng::seed_from_u64(11);
        let (mut base, mut new) = (vec![0u8; PAGE], vec![0u8; PAGE]);
        fill(&mut rng, &mut base);
        fill(&mut rng, &mut new);
        assert_eq!(Diff::encode(&base, &new, DIFF_LIMIT, cap_for(PAGE)), None);
        assert_eq!(indexed(&base, &new, 0), None);
        let whole = indexed(&base, &new, usize::MAX).unwrap();
        assert_eq!(whole, Diff::whole(&new), "one literal, no copy");
    }

    /// An edit in place past the limit is kept by the indexed run, up to
    /// the cap; a moved tail the positional run would spell out as a long
    /// literal is a few copies.
    #[test]
    fn only_the_indexed_run_passes_the_limit_up_to_the_cap() {
        let (limit, cap) = (limit_for(PAGE), cap_for(PAGE));
        assert_eq!((limit, cap), (DIFF_LIMIT, 2048));
        let mut rng = StdRng::seed_from_u64(7);
        let mut base = vec![0u8; PAGE];
        fill(&mut rng, &mut base);
        let mut wide = base.clone();
        fill(&mut rng, &mut wide[1000..1800]);
        assert_eq!(unindexed(&base, &wide, limit), None);
        let diff = Diff::encode(&base, &wide, limit, cap).unwrap();
        assert!(diff.encoded_len() > limit && diff.encoded_len() <= cap);
        check_exact(&base, &wide, &diff, "800 B in place");
        assert_eq!(Diff::encode(&base, &wide, limit, limit), None);
        let mut wider = base.clone();
        fill(&mut rng, &mut wider[1000..1000 + cap]);
        assert_eq!(
            Diff::encode(&base, &wider, limit, cap),
            None,
            "past the cap"
        );
        // Five bytes inserted: the positional run would need the tail.
        let mut moved = base.clone();
        moved.splice(100..100, [0xEE; 5]);
        moved.truncate(PAGE);
        assert_eq!(unindexed(&base, &moved, cap), None);
        let diff = Diff::encode(&base, &moved, limit, cap).unwrap();
        assert!(diff.has_copies() && diff.encoded_len() <= limit);
    }

    #[test]
    fn a_zero_byte_differential_round_trips() {
        let base = vec![9u8; PAGE];
        let diff = Diff::encode(&base, &base, 0, 0).unwrap();
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
        new[10 + MIN_MATCH] = 1; // 15 equal bytes between: one run
        new[100] = 1;
        new[100 + MIN_MATCH + 1] = 1; // 16 equal bytes between: two runs
        let diff = Diff::encode(&base, &new, usize::MAX, usize::MAX).unwrap();
        let runs: Vec<(usize, usize)> = (diff.runs())
            .map(|r| match r {
                Run::Literal { dst, bytes } => (dst, bytes.len()),
                Run::Copy { .. } => unreachable!("in place"),
            })
            .collect();
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
        // So does any differential of a 64 KB page: no run reads as a copy.
        let base = vec![0xEE; page.len()];
        let diff = Diff::encode(&base, &page, usize::MAX, usize::MAX).unwrap();
        check_exact(&base, &page, &diff, "64 KB");
    }

    #[test]
    fn a_truncated_encoding_is_refused() {
        let base: Vec<u8> = (0..64).map(|i| i * 3).collect();
        let mut new = base.clone();
        new[5..9].fill(1);
        // A cell inserted mid-page: a copy run and literals.
        new.splice(20..20, [0xAA; 6]);
        new.truncate(64);
        let diff = indexed(&base, &new, usize::MAX).unwrap();
        assert!(diff.has_copies());
        let mut bytes = Vec::new();
        diff.write_to(&mut bytes);
        assert_eq!(Diff::read_from(&bytes, 64), Some((diff, bytes.len())));
        for cut in 0..bytes.len() {
            assert_eq!(Diff::read_from(&bytes[..cut], 64), None, "cut at {cut}");
        }
        assert_eq!(Diff::read_from(&bytes, 8), None, "a run past the page");
        // A copy whose source, or whose destination, leaves the page.
        for (dst, src) in [(0, 60), (60, 0)] {
            let mut copy = Diff::default();
            copy.push_copy(dst, src, 8);
            let mut bytes = Vec::new();
            copy.write_to(&mut bytes);
            assert_eq!(Diff::read_from(&bytes, 64), None, "copy {src} -> {dst}");
            assert!(Diff::read_from(&bytes, 68).is_some());
        }
    }
}
