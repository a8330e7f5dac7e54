//! B+trees over pager pages: table trees (keyed by rowid, like SQLite's
//! table B-trees) and index trees (keyed by the order-preserving encoded
//! key from [`crate::record`]).
//!
//! Pages are read and written whole through the [`Pager`], so every
//! structural change flows through the journal mode under test — B-tree
//! splits are precisely the multi-page updates whose atomicity the paper
//! is about. Large payloads spill to overflow page chains, which is how
//! the Facebook trace's thumbnail blobs (§6.3.2) exercise multi-page
//! writes per insert.
//!
//! There is one reader and one writer. `Page` is a borrowed cursor over
//! the shared frame [`Pager::page`] hands out: header fields, a cell
//! iterator that bounds-checks each cell as it yields it (key and raw
//! bytes are slices of the frame, nothing is copied), and a binary search
//! over the fixed-size table-interior cells. `PageBuilder` assembles a
//! page image from encoded cells. Table and index trees share every
//! algorithm; `Tree` and `Key` carry the two differences (cell layout
//! and key comparison).
//!
//! Two things are frozen, and `tests/file_image.rs`, the `BENCH_*`
//! baselines and the trace golden hold them:
//!
//! * **The page format.** A 12-byte header — type, 0, cell count (u16),
//!   right pointer (u32), 0 (u32) — then the cells back to back in key
//!   order, then zeros. No slot array, no free-space field. Cells:
//!   table leaf `rowid u64 | total_len u32 | local_len u32 | overflow u32
//!   | local bytes`; table interior `child u32 | rowid u64`; index leaf
//!   `len u16 | key`; index interior `child u32 | len u16 | key`. Leaves
//!   split at `split_point_by_size`, table interiors at `count / 2`,
//!   leaves merge below a quarter page into at most nine tenths.
//! * **The touch order.** Pager eviction is LRU by touch, and small
//!   caches turn touch order into device I/O, so each operation calls
//!   [`Pager::page`], `put`, `alloc_page` and `free_page` for the same
//!   pages in the same order as it always has. A page in hand is held by
//!   its handle, never fetched again.
//!
//! A damaged page is a [`DbError::Corrupt`], from every entry point:
//! lengths and counts are checked where they are read, and descents are
//! bounded by `MAX_DEPTH` so a cycle of child pointers ends.

use xftl_ftl::BlockDevice;

use crate::error::{DbError, Result};
use crate::pager::{get_u16, get_u32, get_u64, PageNo, Pager};

const T_TABLE_LEAF: u8 = 1;
const T_TABLE_INT: u8 = 2;
const T_INDEX_LEAF: u8 = 3;
const T_INDEX_INT: u8 = 4;

/// Page header bytes before the cell area.
const HDR: usize = 12;

/// Longest root-to-leaf path followed. A tree of `u32` page numbers whose
/// height only grows by splitting a full root cannot be this deep; a
/// cycle of child pointers can.
const MAX_DEPTH: usize = 40;

const OVERRUN: DbError = DbError::Corrupt("b-tree cell overruns page");

/// Which of the two tree flavours an operation walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    Table,
    Index,
}

impl Tree {
    fn leaf(self) -> u8 {
        match self {
            Tree::Table => T_TABLE_LEAF,
            Tree::Index => T_INDEX_LEAF,
        }
    }

    fn interior(self) -> u8 {
        match self {
            Tree::Table => T_TABLE_INT,
            Tree::Index => T_INDEX_INT,
        }
    }
}

/// A search key: a rowid in table trees, encoded bytes in index trees.
/// One tree only ever compares keys of one variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key<'a> {
    Row(i64),
    Bytes(&'a [u8]),
}

/// One cell, borrowed from its page.
#[derive(Debug, Clone, Copy)]
struct Cell<'a> {
    kind: u8,
    /// Byte offset of the cell in its page.
    off: usize,
    /// The whole encoded cell.
    raw: &'a [u8],
    key: Key<'a>,
}

impl<'a> Cell<'a> {
    /// Left child of an interior cell.
    fn child(&self) -> PageNo {
        get_u32(self.raw, 0)
    }

    /// Overflow chain head of a table-leaf cell (0 = none).
    fn overflow(&self) -> PageNo {
        if self.kind == T_TABLE_LEAF {
            get_u32(self.raw, 16)
        } else {
            0
        }
    }

    /// The key as an interior cell of the same tree stores it after the
    /// child pointer — which is how a separator travels up a split.
    fn separator(&self) -> &'a [u8] {
        match self.kind {
            T_TABLE_LEAF => &self.raw[..8],
            T_INDEX_LEAF => self.raw,
            _ => &self.raw[4..],
        }
    }

    fn end(&self) -> usize {
        self.off + self.raw.len()
    }
}

/// Iterator over `left` cells of `kind` starting at `off`; each cell is
/// bounds-checked as it is yielded, and an error ends the iteration.
struct Cells<'a> {
    buf: &'a [u8],
    kind: u8,
    left: usize,
    off: usize,
}

impl<'a> Cells<'a> {
    fn read(&self) -> Result<Cell<'a>> {
        let rest = self.buf.get(self.off..).ok_or(OVERRUN)?;
        let fixed = |n: usize| rest.get(..n).ok_or(OVERRUN);
        let (len, key) = match self.kind {
            T_TABLE_LEAF => {
                let f = fixed(20)?;
                (20 + get_u32(f, 12) as usize, Key::Row(get_u64(f, 0) as i64))
            }
            T_TABLE_INT => (12, Key::Row(get_u64(fixed(12)?, 4) as i64)),
            T_INDEX_LEAF => {
                let len = 2 + usize::from(get_u16(fixed(2)?, 0));
                (len, Key::Bytes(rest.get(2..len).ok_or(OVERRUN)?))
            }
            _ => {
                let len = 6 + usize::from(get_u16(fixed(6)?, 4));
                (len, Key::Bytes(rest.get(6..len).ok_or(OVERRUN)?))
            }
        };
        Ok(Cell {
            kind: self.kind,
            off: self.off,
            raw: rest.get(..len).ok_or(OVERRUN)?,
            key,
        })
    }
}

impl<'a> Iterator for Cells<'a> {
    type Item = Result<Cell<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let cell = self.read();
        match &cell {
            Ok(c) => {
                self.left -= 1;
                self.off = c.end();
            }
            Err(_) => self.left = 0,
        }
        Some(cell)
    }
}

/// Borrowed cursor over one B-tree page.
struct Page<'a> {
    buf: &'a [u8],
    kind: u8,
    count: usize,
    right: PageNo,
}

impl<'a> Page<'a> {
    fn parse(buf: &'a [u8]) -> Result<Self> {
        let hdr = buf
            .get(..HDR)
            .ok_or(DbError::Corrupt("page shorter than a b-tree header"))?;
        let page = Page {
            buf,
            kind: hdr[0],
            count: usize::from(get_u16(hdr, 2)),
            right: get_u32(hdr, 4),
        };
        if !(T_TABLE_LEAF..=T_INDEX_INT).contains(&page.kind) {
            return Err(DbError::Corrupt("unknown b-tree page type"));
        }
        if page.kind == T_TABLE_INT && HDR + 12 * page.count > buf.len() {
            return Err(OVERRUN);
        }
        Ok(page)
    }

    /// Parses a page met `depth` levels below the root of a `tree` walk.
    fn of(buf: &'a [u8], tree: Tree, depth: usize) -> Result<Self> {
        if depth > MAX_DEPTH {
            return Err(DbError::Corrupt("b-tree deeper than any valid tree"));
        }
        let page = Page::parse(buf)?;
        if page.kind == tree.leaf() || page.kind == tree.interior() {
            Ok(page)
        } else {
            Err(DbError::Corrupt(match tree {
                Tree::Table => "index node in table tree",
                Tree::Index => "table node in index tree",
            }))
        }
    }

    fn is_leaf(&self) -> bool {
        self.kind == T_TABLE_LEAF || self.kind == T_INDEX_LEAF
    }

    fn cells(&self) -> Cells<'a> {
        Cells {
            buf: self.buf,
            kind: self.kind,
            left: self.count,
            off: HDR,
        }
    }

    /// Offset just past the last cell: the page's encoded size.
    fn end(&self) -> Result<usize> {
        if self.kind == T_TABLE_INT {
            return Ok(HDR + 12 * self.count);
        }
        self.cells().try_fold(HDR, |_, c| c.map(|c| c.end()))
    }

    /// Interior descent: index and page of the child covering `key` —
    /// the first cell whose separator is `>= key`, else the right pointer.
    fn child_for(&self, key: Key<'_>) -> Result<(usize, PageNo)> {
        if self.kind == T_TABLE_INT {
            let sep = |i: usize| Key::Row(get_u64(self.buf, HDR + 12 * i + 4) as i64);
            let (mut lo, mut hi) = (0, self.count);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if sep(mid) < key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let child = if lo == self.count {
                self.right
            } else {
                get_u32(self.buf, HDR + 12 * lo)
            };
            return Ok((lo, child));
        }
        for (i, cell) in self.cells().enumerate() {
            let cell = cell?;
            if cell.key >= key {
                return Ok((i, cell.child()));
            }
        }
        Ok((self.count, self.right))
    }

    /// Interior cells as editable `(child, separator)` pairs.
    fn interior_cells(&self) -> Result<Vec<(PageNo, &'a [u8])>> {
        self.cells()
            .map(|c| c.map(|c| (c.child(), c.separator())))
            .collect()
    }
}

/// Assembles one page image: header, encoded cells, zero fill.
struct PageBuilder {
    buf: Vec<u8>,
    count: usize,
}

impl PageBuilder {
    fn new(kind: u8, right: PageNo, page_size: usize) -> Self {
        let mut buf = Vec::with_capacity(page_size);
        buf.extend_from_slice(&[kind, 0, 0, 0]);
        buf.extend_from_slice(&right.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        PageBuilder { buf, count: 0 }
    }

    /// Appends `count` already-encoded cells.
    fn cells(mut self, bytes: &[u8], count: usize) -> Self {
        self.buf.extend_from_slice(bytes);
        self.count += count;
        self
    }

    fn interior_cells(mut self, cells: &[(PageNo, &[u8])]) -> Self {
        for (child, separator) in cells {
            self.buf.extend_from_slice(&child.to_le_bytes());
            self.buf.extend_from_slice(separator);
        }
        self.count += cells.len();
        self
    }

    /// Writes the image to `pgno`. Callers split before a page can
    /// overflow; cells that do not fit mean the source page lied.
    fn put<D: BlockDevice>(mut self, pager: &mut Pager<D>, pgno: PageNo) -> Result<()> {
        let count = u16::try_from(self.count).map_err(|_| OVERRUN)?;
        if self.buf.len() > pager.page_size() {
            return Err(OVERRUN);
        }
        self.buf[2..4].copy_from_slice(&count.to_le_bytes());
        self.buf.resize(pager.page_size(), 0);
        pager.put(pgno, self.buf)
    }
}

/// Visitor for table scans: receives the pager, the rowid, and the row
/// payload; returns `false` to stop.
pub type TableVisitor<'a, D> = dyn FnMut(&mut Pager<D>, i64, &[u8]) -> Result<bool> + 'a;

/// A child split, promoting a separator (in interior-cell encoding).
struct Split {
    separator: Vec<u8>,
    right: PageNo,
}

fn create_tree<D: BlockDevice>(pager: &mut Pager<D>, tree: Tree) -> Result<PageNo> {
    let root = pager.alloc_page()?;
    PageBuilder::new(tree.leaf(), 0, pager.page_size()).put(pager, root)?;
    Ok(root)
}

/// Creates an empty table B-tree, returning its root page.
pub fn create_table_tree<D: BlockDevice>(pager: &mut Pager<D>) -> Result<PageNo> {
    create_tree(pager, Tree::Table)
}

/// Creates an empty index B-tree, returning its root page.
pub fn create_index_tree<D: BlockDevice>(pager: &mut Pager<D>) -> Result<PageNo> {
    create_tree(pager, Tree::Index)
}

/// Largest payload prefix stored in-page; the rest goes to overflow pages.
fn max_local(page_size: usize) -> usize {
    page_size / 4
}

/// Split index such that both halves stay within a page even when cell
/// sizes are skewed: accumulate encoded sizes until half the total, while
/// keeping both sides non-empty.
fn split_point_by_size<T>(cells: &[T], size_of: impl Fn(&T) -> usize) -> usize {
    debug_assert!(cells.len() >= 2, "cannot split fewer than two cells");
    let total: usize = cells.iter().map(&size_of).sum();
    let mut acc = 0;
    for (i, c) in cells.iter().enumerate() {
        acc += size_of(c);
        if acc * 2 >= total {
            return (i + 1).min(cells.len() - 1).max(1);
        }
    }
    cells.len() / 2
}

// --- overflow chains ---------------------------------------------------------

fn write_overflow<D: BlockDevice>(pager: &mut Pager<D>, rest: &[u8]) -> Result<PageNo> {
    // Build the chain back to front so each page knows its successor.
    let ps = pager.page_size();
    let per_page = ps - 8;
    let mut next: PageNo = 0;
    let chunks: Vec<&[u8]> = rest.chunks(per_page).collect();
    for chunk in chunks.iter().rev() {
        let pgno = pager.alloc_page()?;
        let mut page = vec![0u8; ps];
        page[0..4].copy_from_slice(&next.to_le_bytes());
        page[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        page[8..8 + chunk.len()].copy_from_slice(chunk);
        pager.put(pgno, page)?;
        next = pgno;
    }
    Ok(next)
}

fn free_overflow<D: BlockDevice>(pager: &mut Pager<D>, mut pgno: PageNo) -> Result<()> {
    while pgno != 0 {
        let next = get_u32(&pager.page(pgno)?, 0);
        pager.free_page(pgno)?;
        pgno = next;
    }
    Ok(())
}

/// The full payload of a table-leaf cell: its local bytes, then its
/// overflow chain. Every hop must add bytes and the total is known, so a
/// cyclic chain ends in an error.
fn payload<D: BlockDevice>(pager: &mut Pager<D>, cell: &Cell<'_>) -> Result<Vec<u8>> {
    let total = get_u32(cell.raw, 8) as usize;
    let bad = DbError::Corrupt("overflow chain does not match its payload length");
    let mut out = Vec::with_capacity(total.min(1 << 20));
    out.extend_from_slice(&cell.raw[20..]);
    let mut pgno = cell.overflow();
    while pgno != 0 {
        let page = pager.page(pgno)?;
        let len = get_u32(&page, 4) as usize;
        let chunk = page.get(8..8 + len).ok_or(bad.clone())?;
        if len == 0 || out.len() + len > total {
            return Err(bad);
        }
        out.extend_from_slice(chunk);
        pgno = get_u32(&page, 0);
    }
    Ok(out)
}

// --- the one tree ------------------------------------------------------------

/// Inserts the encoded leaf `cell` under `key`, replacing an equal key.
fn insert<D: BlockDevice>(
    pager: &mut Pager<D>,
    tree: Tree,
    root: PageNo,
    key: Key<'_>,
    cell: &[u8],
) -> Result<()> {
    let Some(split) = insert_rec(pager, tree, root, key, cell, 0)? else {
        return Ok(());
    };
    // The root keeps its page number: move its (left-half) content aside
    // and turn the root page into an interior node.
    let left = pager.alloc_page()?;
    let old = pager.page(root)?;
    pager.put(left, old.to_vec())?;
    PageBuilder::new(tree.interior(), split.right, pager.page_size())
        .interior_cells(&[(left, &split.separator)])
        .put(pager, root)
}

fn insert_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    tree: Tree,
    pgno: PageNo,
    key: Key<'_>,
    cell: &[u8],
    depth: usize,
) -> Result<Option<Split>> {
    let frame = pager.page(pgno)?;
    let page = Page::of(&frame, tree, depth)?;
    let ps = pager.page_size();
    if page.is_leaf() {
        // Where the cell goes: (cell index, byte offset, bytes replaced).
        let mut at = None;
        let mut end = HDR;
        for (i, c) in page.cells().enumerate() {
            let c = c?;
            if at.is_none() && c.key >= key {
                let replaced = if c.key == key { c.raw.len() } else { 0 };
                if replaced != 0 && c.overflow() != 0 {
                    free_overflow(pager, c.overflow())?;
                }
                at = Some((i, c.off, replaced));
            }
            end = c.end();
        }
        let (idx, off, replaced) = at.unwrap_or((page.count, end, 0));
        let after = page.count - idx - usize::from(replaced != 0);
        if end - replaced + cell.len() <= ps {
            PageBuilder::new(page.kind, 0, ps)
                .cells(&page.buf[HDR..off], idx)
                .cells(cell, 1)
                .cells(&page.buf[off + replaced..end], after)
                .put(pager, pgno)?;
            return Ok(None);
        }
        let fresh = Cell {
            kind: page.kind,
            off: 0,
            raw: cell,
            key,
        };
        let mut cells = page.cells().collect::<Result<Vec<_>>>()?;
        if replaced == 0 {
            cells.insert(idx, fresh);
        } else {
            cells[idx] = fresh;
        }
        let mid = split_point_by_size(&cells, |c| c.raw.len());
        let right = pager.alloc_page()?;
        for (pg, half) in [(right, &cells[mid..]), (pgno, &cells[..mid])] {
            half.iter()
                .fold(PageBuilder::new(page.kind, 0, ps), |b, c| b.cells(c.raw, 1))
                .put(pager, pg)?;
        }
        return Ok(Some(Split {
            separator: cells[mid - 1].separator().to_vec(),
            right,
        }));
    }
    let (idx, child) = page.child_for(key)?;
    let Some(split) = insert_rec(pager, tree, child, key, cell, depth + 1)? else {
        return Ok(None);
    };
    // The child kept its lower half; split.right holds the upper half.
    // Wire split.right after child.
    let mut cells = page.interior_cells()?;
    let mut right = page.right;
    if idx == cells.len() {
        cells.push((child, &split.separator));
        right = split.right;
    } else {
        cells.insert(idx, (child, &split.separator));
        cells[idx + 1].0 = split.right;
    }
    let size_of = |(_, separator): &(PageNo, &[u8])| 4 + separator.len();
    if HDR + cells.iter().map(size_of).sum::<usize>() <= ps {
        PageBuilder::new(page.kind, right, ps)
            .interior_cells(&cells)
            .put(pager, pgno)?;
        return Ok(None);
    }
    let mid = match tree {
        Tree::Table => cells.len() / 2, // fixed-size cells
        Tree::Index => split_point_by_size(&cells, size_of),
    };
    // The separator moves up; its child becomes the left node's right.
    let (mid_child, separator) = cells[mid];
    let new_right = pager.alloc_page()?;
    PageBuilder::new(page.kind, right, ps)
        .interior_cells(&cells[mid + 1..])
        .put(pager, new_right)?;
    PageBuilder::new(page.kind, mid_child, ps)
        .interior_cells(&cells[..mid])
        .put(pager, pgno)?;
    Ok(Some(Split {
        separator: separator.to_vec(),
        right: new_right,
    }))
}

/// Deletes `key`; returns true if it existed.
fn delete<D: BlockDevice>(
    pager: &mut Pager<D>,
    tree: Tree,
    root: PageNo,
    key: Key<'_>,
) -> Result<bool> {
    let removed = delete_rec(pager, tree, root, key, 0)?;
    collapse_root(pager, root)?;
    Ok(removed)
}

fn delete_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    tree: Tree,
    pgno: PageNo,
    key: Key<'_>,
    depth: usize,
) -> Result<bool> {
    let frame = pager.page(pgno)?;
    let page = Page::of(&frame, tree, depth)?;
    let ps = pager.page_size();
    if page.is_leaf() {
        let mut found = None;
        let mut end = HDR;
        for (i, c) in page.cells().enumerate() {
            let c = c?;
            if found.is_none() && c.key >= key {
                if c.key != key {
                    return Ok(false);
                }
                found = Some((i, c));
            }
            end = c.end();
        }
        let Some((idx, cell)) = found else {
            return Ok(false);
        };
        if cell.overflow() != 0 {
            free_overflow(pager, cell.overflow())?;
        }
        PageBuilder::new(page.kind, 0, ps)
            .cells(&page.buf[HDR..cell.off], idx)
            .cells(&page.buf[cell.end()..end], page.count - idx - 1)
            .put(pager, pgno)?;
        return Ok(true);
    }
    let (idx, child) = page.child_for(key)?;
    if !delete_rec(pager, tree, child, key, depth + 1)? {
        return Ok(false);
    }
    let mut cells = page.interior_cells()?;
    let mut right = page.right;
    let mut changed = false;
    if is_empty_leaf(pager, child)? && !cells.is_empty() {
        if idx == cells.len() {
            if let Some((new_right, _)) = cells.pop() {
                right = new_right;
            }
        } else {
            cells.remove(idx);
        }
        pager.free_page(child)?;
        changed = true;
    }
    // Merge an underfull leaf with a neighbour: at its own position, or
    // as the right neighbour of the previous one.
    if !cells.is_empty() {
        let anchor = idx.min(cells.len() - 1);
        if merge_leaves(pager, tree, &mut right, &mut cells, anchor)?
            || (anchor > 0 && merge_leaves(pager, tree, &mut right, &mut cells, anchor - 1)?)
        {
            changed = true;
        }
    }
    if changed {
        PageBuilder::new(page.kind, right, ps)
            .interior_cells(&cells)
            .put(pager, pgno)?;
    }
    Ok(true)
}

/// Tries to merge the leaf child at parent position `idx` with its right
/// neighbour (position `idx + 1`, or the rightmost child). Fires only
/// when one of the two is underfull — smaller than a quarter page — and
/// the combined cells fit in 90 % of a page. On success the left page
/// absorbs the neighbour, the neighbour's page is freed, and the parent's
/// arrays are fixed up; returns whether the parent changed.
fn merge_leaves<D: BlockDevice>(
    pager: &mut Pager<D>,
    tree: Tree,
    right: &mut PageNo,
    cells: &mut Vec<(PageNo, &[u8])>,
    idx: usize,
) -> Result<bool> {
    if idx >= cells.len() {
        return Ok(false); // the rightmost child has no right neighbour
    }
    let left_pg = cells[idx].0;
    let neighbour_pg = if idx + 1 < cells.len() {
        cells[idx + 1].0
    } else {
        *right
    };
    let (left_frame, neighbour_frame) = (pager.page(left_pg)?, pager.page(neighbour_pg)?);
    let (l, r) = (Page::parse(&left_frame)?, Page::parse(&neighbour_frame)?);
    if l.kind != tree.leaf() || r.kind != tree.leaf() {
        return Ok(false);
    }
    let (l_end, r_end) = (l.end()?, r.end()?);
    let ps = pager.page_size();
    let underfull = |end: usize| end < ps / 4;
    if !underfull(l_end) && !underfull(r_end) {
        return Ok(false);
    }
    if l_end + r_end - HDR > ps * 9 / 10 {
        return Ok(false);
    }
    PageBuilder::new(l.kind, 0, ps)
        .cells(&l.buf[HDR..l_end], l.count)
        .cells(&r.buf[HDR..r_end], r.count)
        .put(pager, left_pg)?;
    // The merged node takes over the neighbour's key range: drop this
    // entry's separator and point the neighbour's slot at the left page.
    cells.remove(idx);
    if idx < cells.len() {
        cells[idx].0 = left_pg;
    } else {
        *right = left_pg;
    }
    pager.free_page(neighbour_pg)?;
    Ok(true)
}

/// True if the page is a leaf with no cells.
fn is_empty_leaf<D: BlockDevice>(pager: &mut Pager<D>, pgno: PageNo) -> Result<bool> {
    let frame = pager.page(pgno)?;
    let page = Page::parse(&frame)?;
    Ok(page.is_leaf() && page.count == 0)
}

/// If the root is an interior node with no separators, absorb its only
/// child so the tree shrinks (keeping the root page number stable).
fn collapse_root<D: BlockDevice>(pager: &mut Pager<D>, root: PageNo) -> Result<()> {
    for _ in 0..MAX_DEPTH {
        let frame = pager.page(root)?;
        let page = Page::parse(&frame)?;
        if page.is_leaf() || page.count != 0 {
            return Ok(());
        }
        let child = pager.page(page.right)?;
        Page::parse(&child)?;
        pager.put(root, child.to_vec())?;
        pager.free_page(page.right)?;
    }
    Err(DbError::Corrupt("b-tree deeper than any valid tree"))
}

/// Walks cells with key `>= start` in order; the callback returns `false`
/// to stop.
fn scan_rec<D: BlockDevice>(
    pager: &mut Pager<D>,
    tree: Tree,
    pgno: PageNo,
    start: Key<'_>,
    depth: usize,
    f: &mut dyn FnMut(&mut Pager<D>, &Cell<'_>) -> Result<bool>,
) -> Result<bool> {
    let frame = pager.page(pgno)?;
    let page = Page::of(&frame, tree, depth)?;
    if page.is_leaf() {
        for c in page.cells() {
            let c = c?;
            if c.key >= start && !f(pager, &c)? {
                return Ok(false);
            }
        }
        return Ok(true);
    }
    let (from, _) = page.child_for(start)?;
    for c in page.cells().skip(from) {
        if !scan_rec(pager, tree, c?.child(), start, depth + 1, f)? {
            return Ok(false);
        }
    }
    scan_rec(pager, tree, page.right, start, depth + 1, f)
}

// --- table tree ------------------------------------------------------------

/// Inserts (or replaces) `value` under `rowid`.
pub fn table_insert<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    rowid: i64,
    value: &[u8],
) -> Result<()> {
    let cap = max_local(pager.page_size());
    let (local, overflow) = if value.len() <= cap {
        (value, 0)
    } else {
        (&value[..cap], write_overflow(pager, &value[cap..])?)
    };
    let mut cell = Vec::with_capacity(20 + local.len());
    cell.extend_from_slice(&(rowid as u64).to_le_bytes());
    cell.extend_from_slice(&(value.len() as u32).to_le_bytes());
    cell.extend_from_slice(&(local.len() as u32).to_le_bytes());
    cell.extend_from_slice(&overflow.to_le_bytes());
    cell.extend_from_slice(local);
    insert(pager, Tree::Table, root, Key::Row(rowid), &cell)
}

/// Fetches the value stored under `rowid`.
pub fn table_get<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    rowid: i64,
) -> Result<Option<Vec<u8>>> {
    let key = Key::Row(rowid);
    let mut pgno = root;
    for depth in 0.. {
        let frame = pager.page(pgno)?;
        let page = Page::of(&frame, Tree::Table, depth)?;
        if !page.is_leaf() {
            pgno = page.child_for(key)?.1;
            continue;
        }
        for c in page.cells() {
            let c = c?;
            if c.key >= key {
                return if c.key == key {
                    payload(pager, &c).map(Some)
                } else {
                    Ok(None)
                };
            }
        }
        break;
    }
    Ok(None)
}

/// Walks rows with `rowid >= start` in order; the callback returns `false`
/// to stop.
pub fn table_scan_from<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    start: i64,
    f: &mut TableVisitor<'_, D>,
) -> Result<()> {
    scan_rec(
        pager,
        Tree::Table,
        root,
        Key::Row(start),
        0,
        &mut |pager, c| {
            let Key::Row(rowid) = c.key else {
                unreachable!("table cells carry rowids")
            };
            if c.overflow() == 0 {
                f(pager, rowid, &c.raw[20..])
            } else {
                let value = payload(pager, c)?;
                f(pager, rowid, &value)
            }
        },
    )
    .map(|_| ())
}

/// Largest rowid in the tree (for rowid assignment).
pub fn table_last_rowid<D: BlockDevice>(pager: &mut Pager<D>, root: PageNo) -> Result<Option<i64>> {
    let mut pgno = root;
    for depth in 0.. {
        let frame = pager.page(pgno)?;
        let page = Page::of(&frame, Tree::Table, depth)?;
        if !page.is_leaf() {
            pgno = page.right;
            continue;
        }
        return match page.cells().last().transpose()? {
            Some(Cell {
                key: Key::Row(rowid),
                ..
            }) => Ok(Some(rowid)),
            _ => Ok(None),
        };
    }
    Ok(None)
}

/// Deletes `rowid`; returns true if it existed.
pub fn table_delete<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    rowid: i64,
) -> Result<bool> {
    delete(pager, Tree::Table, root, Key::Row(rowid))
}

// --- index tree --------------------------------------------------------------

/// Inserts an encoded key (keys are unique: they embed the rowid).
pub fn index_insert<D: BlockDevice>(pager: &mut Pager<D>, root: PageNo, key: &[u8]) -> Result<()> {
    assert!(key.len() < pager.page_size() / 4, "index key too large");
    let mut cell = Vec::with_capacity(2 + key.len());
    cell.extend_from_slice(&(key.len() as u16).to_le_bytes());
    cell.extend_from_slice(key);
    insert(pager, Tree::Index, root, Key::Bytes(key), &cell)
}

/// Deletes an exact key; returns true if it existed.
pub fn index_delete<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    key: &[u8],
) -> Result<bool> {
    delete(pager, Tree::Index, root, Key::Bytes(key))
}

/// Walks keys `>= start` in order; the callback returns `false` to stop.
pub fn index_scan_from<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    start: &[u8],
    f: &mut dyn FnMut(&[u8]) -> Result<bool>,
) -> Result<()> {
    scan_rec(
        pager,
        Tree::Index,
        root,
        Key::Bytes(start),
        0,
        &mut |_, c| {
            let Key::Bytes(key) = c.key else {
                unreachable!("index cells carry byte keys")
            };
            f(key)
        },
    )
    .map(|_| ())
}

/// Frees every page of a tree except the root itself, then resets the
/// root to an empty leaf (DROP TABLE / DROP INDEX).
pub fn clear_tree<D: BlockDevice>(
    pager: &mut Pager<D>,
    root: PageNo,
    is_table: bool,
) -> Result<()> {
    clear_rec(pager, root, 0)?;
    let tree = if is_table { Tree::Table } else { Tree::Index };
    PageBuilder::new(tree.leaf(), 0, pager.page_size()).put(pager, root)
}

fn clear_rec<D: BlockDevice>(pager: &mut Pager<D>, pgno: PageNo, depth: usize) -> Result<()> {
    if depth > MAX_DEPTH {
        return Err(DbError::Corrupt("b-tree deeper than any valid tree"));
    }
    let frame = pager.page(pgno)?;
    let page = Page::parse(&frame)?;
    for c in page.cells() {
        let c = c?;
        if !page.is_leaf() {
            clear_rec(pager, c.child(), depth + 1)?;
        } else if c.overflow() != 0 {
            free_overflow(pager, c.overflow())?;
        }
    }
    if !page.is_leaf() {
        clear_rec(pager, page.right, depth + 1)?;
    }
    if depth > 0 {
        pager.free_page(pgno)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{DbJournalMode, SharedFs};
    use std::cell::RefCell;
    use std::rc::Rc;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};
    use xftl_fs::{FileSystem, FsConfig, JournalMode};
    use xftl_ftl::PageMappedFtl;

    fn pager() -> Pager<PageMappedFtl> {
        let chip = FlashChip::new(FlashConfig::tiny(220), SimClock::new());
        let dev = PageMappedFtl::format(chip, 1600).unwrap();
        let fs = FileSystem::mkfs(
            dev,
            JournalMode::Ordered,
            FsConfig {
                inode_count: 16,
                journal_pages: 32,
                cache_pages: 256,
            },
        )
        .unwrap();
        let fs: SharedFs<PageMappedFtl> = Rc::new(RefCell::new(fs));
        Pager::open(fs, "test.db", DbJournalMode::Rollback).unwrap()
    }

    #[test]
    fn insert_get_small() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        table_insert(&mut p, root, 1, b"one").unwrap();
        table_insert(&mut p, root, 2, b"two").unwrap();
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 1).unwrap().unwrap(), b"one");
        assert_eq!(table_get(&mut p, root, 2).unwrap().unwrap(), b"two");
        assert_eq!(table_get(&mut p, root, 3).unwrap(), None);
    }

    #[test]
    fn replace_overwrites() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        table_insert(&mut p, root, 1, b"v1").unwrap();
        table_insert(&mut p, root, 1, b"v2").unwrap();
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 1).unwrap().unwrap(), b"v2");
    }

    #[test]
    fn thousands_of_rows_split_correctly() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        let n = 3000i64;
        for i in 0..n {
            let v = format!("row-{i:06}");
            table_insert(&mut p, root, i, v.as_bytes()).unwrap();
        }
        p.commit().unwrap();
        for i in (0..n).step_by(97) {
            let got = table_get(&mut p, root, i).unwrap().unwrap();
            assert_eq!(got, format!("row-{i:06}").as_bytes());
        }
        assert_eq!(table_last_rowid(&mut p, root).unwrap(), Some(n - 1));
    }

    #[test]
    fn random_order_inserts_scan_sorted() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        // Deterministic pseudo-shuffle.
        let n = 1000i64;
        for i in 0..n {
            let rowid = (i * 7919) % n;
            table_insert(&mut p, root, rowid, format!("{rowid}").as_bytes()).unwrap();
        }
        p.commit().unwrap();
        let mut seen = Vec::new();
        table_scan_from(&mut p, root, 0, &mut |_, rowid, _| {
            seen.push(rowid);
            Ok(true)
        })
        .unwrap();
        let expect: Vec<i64> = (0..n).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scan_from_midpoint_and_early_stop() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..500i64 {
            table_insert(&mut p, root, i, b"x").unwrap();
        }
        p.commit().unwrap();
        let mut seen = Vec::new();
        table_scan_from(&mut p, root, 250, &mut |_, rowid, _| {
            seen.push(rowid);
            Ok(seen.len() < 10)
        })
        .unwrap();
        assert_eq!(seen, (250..260).collect::<Vec<i64>>());
    }

    #[test]
    fn delete_then_get_misses() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..800i64 {
            table_insert(&mut p, root, i, format!("{i}").as_bytes()).unwrap();
        }
        for i in (0..800i64).step_by(2) {
            assert!(table_delete(&mut p, root, i).unwrap());
        }
        assert!(!table_delete(&mut p, root, 0).unwrap());
        p.commit().unwrap();
        for i in 0..800i64 {
            let got = table_get(&mut p, root, i).unwrap();
            if i % 2 == 0 {
                assert!(got.is_none(), "rowid {i} should be gone");
            } else {
                assert_eq!(got.unwrap(), format!("{i}").as_bytes());
            }
        }
    }

    #[test]
    fn delete_everything_leaves_usable_tree() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..600i64 {
            table_insert(&mut p, root, i, b"payload-payload").unwrap();
        }
        for i in 0..600i64 {
            assert!(table_delete(&mut p, root, i).unwrap());
        }
        assert_eq!(table_last_rowid(&mut p, root).unwrap(), None);
        // Reusable after total deletion.
        table_insert(&mut p, root, 42, b"back").unwrap();
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 42).unwrap().unwrap(), b"back");
    }

    #[test]
    fn skewed_cell_sizes_split_by_size() {
        // Many tiny cells plus interleaved near-max-local cells: a split
        // by cell count would leave one half overflowing the page.
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        let big = vec![0xBBu8; max_local(p.page_size())];
        for i in 0..400i64 {
            if i % 10 == 0 {
                table_insert(&mut p, root, i, &big).unwrap();
            } else {
                table_insert(&mut p, root, i, b"t").unwrap();
            }
        }
        p.commit().unwrap();
        for i in (0..400i64).step_by(10) {
            assert_eq!(table_get(&mut p, root, i).unwrap().unwrap(), big);
        }
        assert_eq!(table_get(&mut p, root, 1).unwrap().unwrap(), b"t");
    }

    #[test]
    fn overflow_payload_roundtrip() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        // A blob much larger than a tiny 512-byte page (thumbnail-style).
        let blob: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        table_insert(&mut p, root, 7, &blob).unwrap();
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 7).unwrap().unwrap(), blob);
    }

    #[test]
    fn overflow_pages_freed_on_delete() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        let blob = vec![9u8; 4000];
        table_insert(&mut p, root, 1, &blob).unwrap();
        let grown = p.page_count();
        table_delete(&mut p, root, 1).unwrap();
        // Freed pages are reusable: a second insert must not grow the file.
        table_insert(&mut p, root, 2, &blob).unwrap();
        p.commit().unwrap();
        assert!(p.page_count() <= grown + 1, "overflow chain leaked");
    }

    #[test]
    fn index_insert_scan_ordered() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_index_tree(&mut p).unwrap();
        for i in 0..1200i64 {
            let key =
                crate::record::encode_index_key(&[crate::value::Value::Int((i * 37) % 1200)], i);
            index_insert(&mut p, root, &key).unwrap();
        }
        p.commit().unwrap();
        let mut last: Option<Vec<u8>> = None;
        let mut count = 0;
        index_scan_from(&mut p, root, &[], &mut |k| {
            if let Some(prev) = &last {
                assert!(prev.as_slice() <= k, "index out of order");
            }
            last = Some(k.to_vec());
            count += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(count, 1200);
    }

    #[test]
    fn index_delete_removes_exact_key() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_index_tree(&mut p).unwrap();
        let k1 = crate::record::encode_index_key(&[crate::value::Value::Int(5)], 1);
        let k2 = crate::record::encode_index_key(&[crate::value::Value::Int(5)], 2);
        index_insert(&mut p, root, &k1).unwrap();
        index_insert(&mut p, root, &k2).unwrap();
        assert!(index_delete(&mut p, root, &k1).unwrap());
        assert!(!index_delete(&mut p, root, &k1).unwrap());
        p.commit().unwrap();
        let mut count = 0;
        index_scan_from(&mut p, root, &[], &mut |_| {
            count += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn clear_tree_resets_and_frees() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..500i64 {
            table_insert(&mut p, root, i, b"0123456789abcdef").unwrap();
        }
        clear_tree(&mut p, root, true).unwrap();
        assert_eq!(table_last_rowid(&mut p, root).unwrap(), None);
        // Space was recycled: refilling should not balloon the file.
        let before = p.page_count();
        for i in 0..500i64 {
            table_insert(&mut p, root, i, b"0123456789abcdef").unwrap();
        }
        p.commit().unwrap();
        assert!(p.page_count() <= before + 2);
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use crate::pager::{DbJournalMode, SharedFs};
    use std::cell::RefCell;
    use std::rc::Rc;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};
    use xftl_fs::{FileSystem, FsConfig, JournalMode};
    use xftl_ftl::PageMappedFtl;

    fn pager() -> Pager<PageMappedFtl> {
        let chip = FlashChip::new(FlashConfig::tiny(260), SimClock::new());
        let dev = PageMappedFtl::format(chip, 2_000).unwrap();
        let fs = FileSystem::mkfs(
            dev,
            JournalMode::Ordered,
            FsConfig {
                inode_count: 16,
                journal_pages: 32,
                cache_pages: 256,
            },
        )
        .unwrap();
        let fs: SharedFs<PageMappedFtl> = Rc::new(RefCell::new(fs));
        Pager::open(fs, "merge.db", DbJournalMode::Rollback).unwrap()
    }

    #[test]
    fn mass_delete_merges_leaves_and_reclaims_pages() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..2_000i64 {
            table_insert(&mut p, root, i, b"sixteen-bytes-xx").unwrap();
        }
        let full_pages = p.page_count();
        // Delete 95% of the rows, scattered.
        for i in 0..2_000i64 {
            if i % 20 != 0 {
                table_delete(&mut p, root, i).unwrap();
            }
        }
        // Survivors intact.
        for i in (0..2_000i64).step_by(20) {
            assert!(table_get(&mut p, root, i).unwrap().is_some(), "rowid {i}");
        }
        // Freed pages are reusable: inserting a fresh batch must not grow
        // the file beyond its prior footprint.
        for i in 10_000..11_500i64 {
            table_insert(&mut p, root, i, b"sixteen-bytes-xx").unwrap();
        }
        p.commit().unwrap();
        assert!(
            p.page_count() <= full_pages + 2,
            "merging should have recycled leaves: {} vs {}",
            p.page_count(),
            full_pages
        );
        // Order preserved across merges.
        let mut last = i64::MIN;
        table_scan_from(&mut p, root, i64::MIN, &mut |_, rowid, _| {
            assert!(rowid > last);
            last = rowid;
            Ok(true)
        })
        .unwrap();
    }

    #[test]
    fn index_mass_delete_merges() {
        let mut p = pager();
        p.begin().unwrap();
        let root = create_index_tree(&mut p).unwrap();
        let key = |i: i64| crate::record::encode_index_key(&[crate::value::Value::Int(i)], i);
        for i in 0..3_000i64 {
            index_insert(&mut p, root, &key(i)).unwrap();
        }
        for i in 0..3_000i64 {
            if i % 10 != 0 {
                assert!(index_delete(&mut p, root, &key(i)).unwrap());
            }
        }
        p.commit().unwrap();
        let mut n = 0;
        index_scan_from(&mut p, root, &[], &mut |_| {
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, 300);
    }
}

#[cfg(test)]
mod corrupt_tests {
    //! Every entry point answers a damaged page with `Ok` or
    //! `DbError::Corrupt` — never a panic, never an endless loop.

    use super::*;
    use crate::pager::{DbJournalMode, SharedFs};
    use crate::record::encode_index_key;
    use crate::value::Value;
    use std::cell::RefCell;
    use std::rc::Rc;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};
    use xftl_fs::{FileSystem, FsConfig, JournalMode};
    use xftl_ftl::PageMappedFtl;

    const ROWS: i64 = 1_500;

    fn ikey(i: i64) -> Vec<u8> {
        encode_index_key(&[Value::Int(i % 97), Value::Text(format!("k{i}"))], i)
    }

    /// A committed table tree and index tree, both three levels deep on
    /// 512-byte pages, the table with a few overflow chains.
    fn trees() -> (Pager<PageMappedFtl>, PageNo, PageNo) {
        let chip = FlashChip::new(FlashConfig::tiny(260), SimClock::new());
        let dev = PageMappedFtl::format(chip, 2_000).unwrap();
        let cfg = FsConfig {
            inode_count: 16,
            journal_pages: 32,
            cache_pages: 256,
        };
        let fs = FileSystem::mkfs(dev, JournalMode::Ordered, cfg).unwrap();
        let fs: SharedFs<PageMappedFtl> = Rc::new(RefCell::new(fs));
        let mut p = Pager::open(fs, "corrupt.db", DbJournalMode::Wal).unwrap();
        p.begin().unwrap();
        let table = create_table_tree(&mut p).unwrap();
        let index = create_index_tree(&mut p).unwrap();
        for i in 0..ROWS {
            let len = if i % 100 == 0 {
                700
            } else {
                10 + (i % 23) as usize
            };
            table_insert(&mut p, table, i, &vec![i as u8; len]).unwrap();
            index_insert(&mut p, index, &ikey(i)).unwrap();
        }
        p.commit().unwrap();
        (p, table, index)
    }

    /// The first interior page below the (interior) root and the leftmost leaf.
    fn spine(p: &mut Pager<PageMappedFtl>, root: PageNo, interior: u8, leaf: u8) -> [PageNo; 2] {
        assert_eq!(p.page(root).unwrap()[0], interior);
        let mid = get_u32(&p.page(root).unwrap(), HDR);
        assert_eq!(p.page(mid).unwrap()[0], interior, "at least three levels");
        let mut low = mid;
        while p.page(low).unwrap()[0] == interior {
            low = get_u32(&p.page(low).unwrap(), HDR);
        }
        assert_eq!(p.page(low).unwrap()[0], leaf);
        [mid, low]
    }

    fn acceptable<T>(what: &str, r: Result<T>) {
        match r {
            Ok(_) | Err(DbError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: neither Ok nor Corrupt: {e:?}"),
        }
    }

    /// Runs every entry point against the tree rooted at `root` inside
    /// one transaction that starts by installing `image` as page `pgno`,
    /// then rolls everything back.
    fn exercise(
        p: &mut Pager<PageMappedFtl>,
        root: PageNo,
        is_table: bool,
        pgno: PageNo,
        image: &[u8],
    ) {
        let ops: usize = if is_table { 9 } else { 6 };
        for op in 0..ops {
            p.begin().unwrap();
            p.put(pgno, image.to_vec()).unwrap();
            if is_table {
                match op {
                    0 => acceptable("get first", table_get(p, root, 0)),
                    1 => acceptable("get last", table_get(p, root, ROWS - 1)),
                    2 => acceptable("get overflow", table_get(p, root, 100)),
                    3 => acceptable("insert new", table_insert(p, root, -5, b"fresh")),
                    4 => acceptable("replace", table_insert(p, root, 0, &[7u8; 600])),
                    5 => acceptable("delete", table_delete(p, root, 0)),
                    6 => acceptable(
                        "scan",
                        table_scan_from(p, root, i64::MIN, &mut |_, _, _| Ok(true)),
                    ),
                    7 => acceptable("last rowid", table_last_rowid(p, root)),
                    _ => acceptable("clear", clear_tree(p, root, true)),
                }
            } else {
                match op {
                    0 => acceptable("index insert low", index_insert(p, root, &ikey(-1))),
                    1 => acceptable("index insert dup", index_insert(p, root, &ikey(0))),
                    2 => acceptable("index delete", index_delete(p, root, &ikey(0))),
                    3 => acceptable("index delete high", index_delete(p, root, &ikey(96))),
                    4 => acceptable(
                        "index scan",
                        index_scan_from(p, root, &[], &mut |_| Ok(true)),
                    ),
                    _ => acceptable("clear", clear_tree(p, root, false)),
                }
            }
            p.rollback().unwrap();
        }
    }

    #[test]
    fn damaged_pages_are_typed_errors_on_every_entry_point() {
        let (mut p, table, index) = trees();
        let [t_int, t_leaf] = spine(&mut p, table, T_TABLE_INT, T_TABLE_LEAF);
        let [i_int, i_leaf] = spine(&mut p, index, T_INDEX_INT, T_INDEX_LEAF);
        let ps = p.page_size();
        for (root, is_table, pgno) in [
            (table, true, table),
            (table, true, t_int),
            (table, true, t_leaf),
            (index, false, index),
            (index, false, i_int),
            (index, false, i_leaf),
        ] {
            let good = p.page(pgno).unwrap().to_vec();
            let count = get_u16(&good, 2);
            let mut images: Vec<Vec<u8>> = Vec::new();
            let mut patch = |off: usize, bytes: &[u8]| {
                let mut img = good.clone();
                img[off..off + bytes.len()].copy_from_slice(bytes);
                images.push(img);
            };
            // type: unknown, zero, and every other valid kind.
            for t in [0u8, 9, T_TABLE_LEAF, T_TABLE_INT, T_INDEX_LEAF, T_INDEX_INT] {
                patch(0, &[t]);
            }
            // count: overruns the page, one too many, truncated.
            for c in [u16::MAX, 4_000, count + 1, count * 2, count / 2, 0] {
                patch(2, &c.to_le_bytes());
            }
            // right: itself, the root, the header page, past the file.
            for r in [pgno, root, 0, u32::MAX, p.page_count() + 7] {
                patch(4, &r.to_le_bytes());
            }
            // first cell: local_len / key len / child pointer.
            match good[0] {
                T_TABLE_LEAF => {
                    for l in [u32::MAX, ps as u32, (ps - HDR - 20) as u32, 0] {
                        patch(HDR + 12, &l.to_le_bytes());
                    }
                    // overflow pointer: a cycle through this page, garbage.
                    for o in [pgno, u32::MAX] {
                        patch(HDR + 16, &o.to_le_bytes());
                    }
                }
                T_INDEX_LEAF => {
                    for l in [u16::MAX, ps as u16, (ps - HDR - 2) as u16, 0] {
                        patch(HDR, &l.to_le_bytes());
                    }
                }
                T_INDEX_INT => {
                    for l in [u16::MAX, ps as u16, (ps - HDR - 6) as u16, 0] {
                        patch(HDR + 4, &l.to_le_bytes());
                    }
                    for c in [pgno, root, 0, u32::MAX] {
                        patch(HDR, &c.to_le_bytes());
                    }
                }
                _ => {
                    for c in [pgno, root, 0, u32::MAX] {
                        patch(HDR, &c.to_le_bytes());
                    }
                }
            }
            // truncation: the cell area cut short mid-cell.
            let mut cut = good.clone();
            cut[ps / 2 + 3..].fill(0xFF);
            images.push(cut);
            for image in &images {
                exercise(&mut p, root, is_table, pgno, image);
            }
        }
        // Kind mismatch at the root: table calls on an index tree and back.
        let nothing = p.page(0).unwrap().to_vec();
        exercise(&mut p, index, true, 0, &nothing);
        exercise(&mut p, table, false, 0, &nothing);
        // The undamaged trees are still whole.
        assert_eq!(
            table_get(&mut p, table, 100).unwrap().unwrap(),
            vec![100u8; 700]
        );
        let mut n = 0;
        index_scan_from(&mut p, index, &[], &mut |_| {
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, ROWS);
    }
}
