//! The transactional logical-to-physical mapping table (X-L2P).
//!
//! This is the data structure at the heart of the paper (Figure 2). Each
//! entry `(tid, lpn, new_ppa, status)` records that transaction `tid` wrote
//! a new, still-uncommitted (or committed-but-not-yet-checkpointed) version
//! of logical page `lpn` at physical address `new_ppa`. The entry serves
//! the two purposes §5.3 describes:
//!
//! 1. it routes `read(tid, p)` to the transaction's own version while
//!    other readers keep seeing the committed copy in the L2P table, and
//! 2. it *pins* the new version against garbage collection while keeping
//!    the old committed version alive for rollback.
//!
//! The paper sizes each entry at 16 bytes and the whole table at 500
//! entries (8 KB — one flash page) or 1000 entries (16 KB — two pages);
//! [`Xl2pTable::encode_image`] reproduces that layout exactly so the table
//! is persisted copy-on-write in whole flash pages at commit time. What
//! ties the pages of one persisted image together — generation id, page
//! index, page count — rides in each page's OOB, where the recovery scan
//! reads it without fetching the page; the 16-byte page header carries
//! only the magic, the page's entry count and how many bytes of the
//! image's differential stream follow its entries.
//!
//! The image also carries every *live differential*: the changed bytes
//! of a page whose newest committed version was never written whole
//! (DESIGN.md §5.2, "Differentials"). Entries fill the pages first; the
//! differentials follow as one byte stream, split over whatever room the
//! pages have left. A differential record is the page's `lpn` and its
//! base's address (`u32` each), then the [`Diff`] encoding.

use std::collections::btree_map::Entry as Slot;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::RangeInclusive;
use std::sync::Arc;

use xftl_flash::{Oob, PageKind, Ppa};
use xftl_ftl::{DevError, GcHook, Lpn, Tid};

use crate::cache::ImageCache;
use crate::diff::Diff;

/// Errors raised by the X-L2P table itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Xl2pError {
    /// The table holds `capacity` entries and none can be evicted here:
    /// the caller must release committed entries (checkpoint) or make the
    /// host commit/abort an active transaction first.
    Full,
}

impl fmt::Display for Xl2pError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Xl2pError::Full => write!(f, "X-L2P table is full"),
        }
    }
}

impl std::error::Error for Xl2pError {}

impl From<Xl2pError> for DevError {
    fn from(e: Xl2pError) -> Self {
        match e {
            Xl2pError::Full => DevError::XL2pFull,
        }
    }
}

/// Status of the transaction owning an X-L2P entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// The transaction is in flight; its old versions are pinned.
    Active,
    /// Commit durably recorded; entry awaits release by the next L2P
    /// checkpoint.
    Committed,
}

/// One X-L2P entry. 16 bytes on flash: `tid:u32, lpn:u32, ppa:u32,
/// status:u32` — matching the paper's entry size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Owning transaction.
    pub tid: Tid,
    /// Logical page the transaction wrote.
    pub lpn: Lpn,
    /// Physical address of the transaction's newest version of `lpn`.
    pub ppa: Ppa,
    /// Owning transaction's status.
    pub status: TxStatus,
    /// Ordinal of the commit that flipped the entry to Committed (0
    /// while Active): it tells which commit the entry belongs to when a
    /// reused tid holds entries of several, so a group flush folds — and
    /// a read serves — exactly one commit's pages. RAM-only, not part of
    /// the 16-byte flash layout, but it orders the image: committed
    /// entries persist ascending by ordinal, so recovery folds two
    /// commits of one page in commit order simply by decode order.
    pub seq: u64,
    /// The transaction's version as a differential against the base at
    /// `ppa`, instead of a whole page there. While the entry is active or
    /// staged it pins the base's image; the group flush makes it the
    /// page's live differential, which takes the pin over, and takes the
    /// entry out of the table: the image's differential record is the
    /// commit's evidence from then on. RAM-only.
    pub diff: Option<Arc<Diff>>,
}

/// A page's live differential: its newest committed version is the base
/// the L2P maps with `diff` applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Live {
    /// The base: the page's last whole-written version, the one the L2P
    /// maps.
    pub base: Ppa,
    /// The changes since the base, cumulative.
    pub diff: Arc<Diff>,
    /// Commit ordinal of the first differential folded onto this base:
    /// its record bytes times the commits since rank the page for a
    /// merge when the table image runs short of room.
    pub since: u64,
    /// Restored by recovery: its base image is not in the cache.
    pub recovered: bool,
}

/// Magic prefix of a persisted X-L2P table page ("XL2PTBLE").
const TABLE_MAGIC: u64 = 0x584C_3250_5442_4C45;
/// Bytes per persisted entry.
const ENTRY_BYTES: usize = 16;
/// Page header: magic + entry count.
const PAGE_HEADER: usize = 16;
/// Bytes of a differential record before its runs: lpn, base and the
/// differential's run count.
const DIFF_RECORD_HEADER: usize = 10;

/// Little-endian u64 at `off` (callers guarantee the bounds).
fn get_u64(page: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&page[off..off + 8]);
    u64::from_le_bytes(bytes)
}

/// Little-endian u32 at `off` (callers guarantee the bounds).
fn get_u32(page: &[u8], off: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&page[off..off + 4]);
    u32::from_le_bytes(bytes)
}

/// One retained pre-image in a per-LPN version chain: the page version
/// that was current until commit sequence `seq` superseded it. `ppa` is
/// `None` when the page had no committed copy yet (reads as zeros).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Commit sequence at which this version *became* current (0 for the
    /// primordial "never written" version).
    pub seq: u64,
    /// Flash location of the retained copy, or `None` for an unwritten /
    /// trimmed page.
    pub ppa: Option<Ppa>,
    /// The live differential the version carried over that copy.
    pub diff: Option<Arc<Diff>>,
}

/// The in-DRAM X-L2P table: one ordered map keyed by `(tid, lpn)`, so a
/// transaction's entries are a range of it.
///
/// Since the MVCC work it also owns the snapshot-read side tables. All of
/// them are RAM-only and never serialized: snapshots do not survive power
/// loss, and recovery rebuilds page validity from L2P membership, so
/// retained chain versions orphaned by a crash become garbage for free.
#[derive(Debug)]
pub struct Xl2pTable {
    capacity: usize,
    entries: BTreeMap<(Tid, Lpn), Entry>,
    /// Per-LPN chains of retained superseded versions, ascending by `seq`.
    chains: HashMap<Lpn, Vec<Version>>,
    /// Commit sequence of the version the L2P table currently points at.
    l2p_seq: HashMap<Lpn, u64>,
    /// The live differential of each page that has one.
    live: BTreeMap<Lpn, Live>,
    /// Base images of the differentials, live and pending.
    cache: ImageCache,
    /// `(lpn, tid)` of every active entry that carries a differential.
    pending: BTreeSet<(Lpn, Tid)>,
    /// `(lpn, tid)` of every committed entry: a page's committed entries
    /// are a range of it.
    committed: BTreeSet<(Lpn, Tid)>,
}

/// The keys of `tid`'s entries.
fn span(tid: Tid) -> RangeInclusive<(Tid, Lpn)> {
    (tid, Lpn::MIN)..=(tid, Lpn::MAX)
}

impl Xl2pTable {
    /// Creates an empty table holding at most `capacity` entries (the
    /// paper uses 500 or 1000).
    pub fn new(capacity: usize) -> Self {
        Xl2pTable {
            capacity,
            entries: BTreeMap::new(),
            chains: HashMap::new(),
            l2p_seq: HashMap::new(),
            live: BTreeMap::new(),
            cache: ImageCache::default(),
            pending: BTreeSet::new(),
            committed: BTreeSet::new(),
        }
    }

    /// Configured maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resizes the table to `capacity` entries.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if no further entry can be inserted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Number of entries with committed status (releasable after the next
    /// L2P checkpoint): the whole pages folded since, each the newest
    /// commit of its page — a folded differential and a superseded entry
    /// leave the table at their fold.
    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }

    /// All entries in `(tid, lpn)` order, for audits and diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// The entry for `(tid, lpn)`, if any.
    pub fn lookup(&self, tid: Tid, lpn: Lpn) -> Option<&Entry> {
        self.entries.get(&(tid, lpn))
    }

    /// All entries belonging to `tid`, in lpn order.
    pub fn entries_of(&self, tid: Tid) -> impl Iterator<Item = &Entry> {
        self.entries.range(span(tid)).map(|(_, e)| e)
    }

    /// True if `tid` owns any entry.
    pub fn has_tid(&self, tid: Tid) -> bool {
        self.entries_of(tid).next().is_some()
    }

    /// Inserts a new active entry, or updates the physical address of an
    /// existing `(tid, lpn)` entry (a transaction re-writing the same page
    /// reuses its slot — §5.3). Returns the superseded physical address
    /// **only if it was an uncommitted intermediate version** (safe to
    /// invalidate); a *committed* entry's old address is owned by the L2P
    /// fold, and a differential's by its base, and neither is ever
    /// reported for invalidation. Errors with [`Xl2pError::Full`] when the
    /// table cannot absorb a new entry.
    pub fn upsert(&mut self, tid: Tid, lpn: Lpn, ppa: Ppa) -> Result<Option<Ppa>, Xl2pError> {
        self.put(tid, lpn, ppa, None)
    }

    /// [`Xl2pTable::upsert`] of a version that is `diff` over the base at
    /// `base`, whose image the entry pins in the cache.
    pub fn upsert_diff(
        &mut self,
        tid: Tid,
        lpn: Lpn,
        base: Ppa,
        diff: Diff,
    ) -> Result<Option<Ppa>, Xl2pError> {
        let superseded = self.put(tid, lpn, base, Some(Arc::new(diff)))?;
        self.cache.pin(base);
        Ok(superseded)
    }

    fn put(
        &mut self,
        tid: Tid,
        lpn: Lpn,
        ppa: Ppa,
        diff: Option<Arc<Diff>>,
    ) -> Result<Option<Ppa>, Xl2pError> {
        let diffed = diff.is_some();
        let active = Entry {
            tid,
            lpn,
            ppa,
            status: TxStatus::Active,
            seq: 0,
            diff,
        };
        let mut superseded = None;
        if let Some(e) = self.entries.get_mut(&(tid, lpn)) {
            superseded = match (&e.diff, e.status) {
                (Some(_), TxStatus::Active) => {
                    self.cache.unpin(e.ppa);
                    self.pending.remove(&(lpn, tid));
                    None
                }
                (None, TxStatus::Active) => Some(e.ppa),
                (_, TxStatus::Committed) => {
                    self.committed.remove(&(lpn, tid));
                    None
                }
            };
            *e = active;
        } else if self.is_full() {
            return Err(Xl2pError::Full);
        } else {
            self.entries.insert((tid, lpn), active);
        }
        if diffed {
            self.pending.insert((lpn, tid));
        }
        Ok(superseded)
    }

    /// Flips the active entries of `tid` to committed, stamping them with
    /// the commit's ordinal (see [`Entry::seq`]). Returns the number
    /// flipped. The committed pages stop being write *intents* — the tid
    /// has won them.
    pub fn mark_committed(&mut self, tid: Tid, seq: u64) -> usize {
        let mut n = 0;
        for e in self.entries.range_mut(span(tid)).map(|(_, e)| e) {
            if e.status == TxStatus::Active {
                e.status = TxStatus::Committed;
                e.seq = seq;
                n += 1;
                self.committed.insert((e.lpn, tid));
                if e.diff.is_some() {
                    self.pending.remove(&(e.lpn, tid));
                }
            }
        }
        n
    }

    /// Removes only the *active* entries of `tid`, returning the physical
    /// addresses of their whole versions. Used by abort: entries already
    /// committed are owned by the L2P fold and must not be touched — an
    /// `abort(t)` arriving after `commit(t)` is a no-op on the committed
    /// data. A differential frees RAM only: its base stays.
    pub fn remove_active_of_tid(&mut self, tid: Tid) -> Vec<Ppa> {
        let removed: Vec<Entry> = self
            .entries
            .extract_if(span(tid), |_, e| e.status == TxStatus::Active)
            .map(|(_, e)| e)
            .collect();
        let mut whole = Vec::new();
        for e in removed {
            match e.diff {
                Some(_) => {
                    self.cache.unpin(e.ppa);
                    self.pending.remove(&(e.lpn, tid));
                }
                None => whole.push(e.ppa),
            }
        }
        whole
    }

    /// Releases every *committed* entry (called after an L2P checkpoint
    /// has persisted their folds). Active entries — including ones whose
    /// transaction id previously committed and was reused — stay pinned.
    /// The released pages stay valid: they are the committed versions now
    /// owned by the L2P table. Differentials have no entry left to
    /// release: their records stay in the image until their pages merge.
    pub fn release_committed(&mut self) {
        for (lpn, tid) in std::mem::take(&mut self.committed) {
            self.entries.remove(&(tid, lpn));
        }
    }

    /// Removes every *committed* entry for `lpn` stamped below ordinal
    /// `below` — called when a newer version supersedes them: a plain
    /// overwrite, a trim or a merge (`u64::MAX`), or the fold of a whole
    /// page committed at `below`. Their folds are already applied, and the
    /// newer version carries its own durable record (its data program,
    /// or its entry in the image). Left in the table, an entry would be
    /// re-persisted by every group flush until the checkpoint, and a
    /// plain overwrite's would resurrect the old version at recovery:
    /// recovered folds apply at the persisting flush's *generation id*,
    /// newer than the overwrite's program sequence.
    pub fn supersede_committed(&mut self, lpn: Lpn, below: u64) {
        let entries = &mut self.entries;
        let of_page = (lpn, Tid::MIN)..=(lpn, Tid::MAX);
        let stale: Vec<(Lpn, Tid)> = (self.committed)
            .extract_if(of_page, |&(_, tid)| entries[&(tid, lpn)].seq < below)
            .collect();
        for (lpn, tid) in stale {
            entries.remove(&(tid, lpn));
        }
    }

    // --- differentials --------------------------------------------------

    /// The live differential of `lpn`, if it has one.
    pub fn live(&self, lpn: Lpn) -> Option<&Live> {
        self.live.get(&lpn)
    }

    /// Every live differential, by page.
    pub fn live_diffs(&self) -> impl Iterator<Item = (Lpn, &Live)> {
        self.live.iter().map(|(&lpn, l)| (lpn, l))
    }

    /// Number of pages with a live differential.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// The group flush's fold of `tid`'s differential for `lpn`, stamped
    /// with ordinal `seq`: it becomes the page's live differential, the
    /// entry's pin on the base passes to it, and the entry leaves the
    /// table — it only maps the page to the base the L2P already maps,
    /// and the image's record of the differential names both. An empty
    /// differential leaves the page at its base.
    pub fn fold_diff(&mut self, tid: Tid, lpn: Lpn, seq: u64) {
        let key = (tid, lpn);
        let taken = self.entries.extract_if(key..=key, |_, e| e.diff.is_some());
        let Some((base, Some(diff))) = taken.last().map(|(_, e)| (e.ppa, e.diff)) else {
            return;
        };
        self.committed.remove(&(lpn, tid));
        if diff.is_empty() {
            self.cache.unpin(base);
            if let Some(old) = self.live.remove(&lpn) {
                self.cache.unpin(old.base);
            }
            return;
        }
        match self.live.entry(lpn) {
            Slot::Occupied(mut slot) => {
                let old = slot.get_mut();
                self.cache.unpin(old.base);
                if old.base != base {
                    old.since = seq;
                }
                (old.base, old.diff, old.recovered) = (base, diff, false);
            }
            Slot::Vacant(slot) => {
                slot.insert(Live {
                    base,
                    diff,
                    since: seq,
                    recovered: false,
                });
            }
        }
    }

    /// Removes `lpn`'s live differential — its base is being displaced —
    /// and returns it.
    pub fn take_live(&mut self, lpn: Lpn) -> Option<Live> {
        let live = self.live.remove(&lpn)?;
        self.cache.unpin(live.base);
        Some(live)
    }

    /// Re-installs a differential recovery found in the table image over
    /// the base at `base`; its image is not cached.
    pub fn restore_live(&mut self, lpn: Lpn, base: Ppa, diff: Diff) {
        let live = Live {
            base,
            diff: Arc::new(diff),
            since: 0,
            recovered: true,
        };
        self.live.insert(lpn, live);
    }

    /// The transactions whose active differential for `lpn` is taken
    /// against the base at `base`.
    pub fn pending_diffs_on(&self, lpn: Lpn, base: Ppa) -> Vec<Tid> {
        (self.pending.range((lpn, Tid::MIN)..=(lpn, Tid::MAX)))
            .map(|&(_, tid)| tid)
            .filter(|&tid| self.lookup(tid, lpn).is_some_and(|e| e.ppa == base))
            .collect()
    }

    /// The base images.
    pub fn cache(&self) -> &ImageCache {
        &self.cache
    }

    /// The base images, to fill and to use.
    pub fn cache_mut(&mut self) -> &mut ImageCache {
        &mut self.cache
    }

    // --- MVCC side tables (RAM-only, never persisted) ----------------------

    /// The transactions currently holding a write intent on `lpn` — an
    /// *active* entry for the page — in ascending tid order. A scan:
    /// only tests and diagnostics ask.
    pub fn writers_of(&self, lpn: Lpn) -> Vec<Tid> {
        self.active()
            .filter(|e| e.lpn == lpn)
            .map(|e| e.tid)
            .collect()
    }

    /// Number of pages with at least one write intent (a scan, as above).
    pub fn intent_pages(&self) -> usize {
        let pages: HashSet<Lpn> = self.active().map(|e| e.lpn).collect();
        pages.len()
    }

    fn active(&self) -> impl Iterator<Item = &Entry> {
        self.iter().filter(|e| e.status == TxStatus::Active)
    }

    /// Commit sequence of the version the L2P table points at (0 if the
    /// page was never written since the device came up).
    pub fn l2p_seq_of(&self, lpn: Lpn) -> u64 {
        self.l2p_seq.get(&lpn).copied().unwrap_or(0)
    }

    /// Records that the L2P mapping of `lpn` moved to the version of
    /// sequence `seq` (a commit's fold, a plain overwrite or a trim).
    pub fn note_l2p_version(&mut self, lpn: Lpn, seq: u64) {
        self.l2p_seq.insert(lpn, seq);
    }

    /// Retains a displaced version in `lpn`'s chain for active snapshot
    /// readers: the copy at `ppa` (or the unwritten state, for `None`)
    /// was current from sequence `seq` until now.
    pub fn retain_version(
        &mut self,
        lpn: Lpn,
        seq: u64,
        ppa: Option<Ppa>,
        diff: Option<Arc<Diff>>,
    ) {
        let chain = self.chains.entry(lpn).or_default();
        debug_assert!(
            chain.last().is_none_or(|v| v.seq <= seq),
            "version chains append in ascending seq order"
        );
        chain.push(Version { seq, ppa, diff });
    }

    /// The retained version of `lpn` visible at `snapshot`, along with the
    /// chain length walked to find it: the newest chain entry whose `seq`
    /// is at or below the snapshot. `None` means the chain retains nothing
    /// that old (the L2P copy or a plain-traffic fallback applies).
    pub fn version_at(&self, lpn: Lpn, snapshot: u64) -> Option<(usize, &Version)> {
        let chain = self.chains.get(&lpn)?;
        chain
            .iter()
            .rev()
            .find(|v| v.seq <= snapshot)
            .map(|v| (chain.len(), v))
    }

    /// Number of retained versions for `lpn`.
    pub fn chain_len(&self, lpn: Lpn) -> usize {
        self.chains.get(&lpn).map_or(0, Vec::len)
    }

    /// Total retained versions across all pages.
    pub fn retained_versions(&self) -> usize {
        self.chains.values().map(Vec::len).sum()
    }

    /// Drops every retained version no active snapshot can still read and
    /// returns the freed flash copies for invalidation (GC food). A chain
    /// entry is dead once the sequence that *superseded* it — the next
    /// entry's seq, or the L2P version's seq for the newest entry — is at
    /// or below the oldest active snapshot (`None` = no snapshots at all,
    /// everything is dead). Seqs ascend along a chain, so the dead set is
    /// always a prefix.
    pub fn prune_versions(&mut self, min_snapshot: Option<u64>) -> Vec<Ppa> {
        let mut freed = Vec::new();
        let l2p_seq = &self.l2p_seq;
        self.chains.retain(|&lpn, chain| {
            let newest_next = l2p_seq.get(&lpn).copied().unwrap_or(0);
            let keep_from = match min_snapshot {
                None => chain.len(),
                Some(s) => {
                    let mut k = 0;
                    while k < chain.len() {
                        let next_seq = chain.get(k + 1).map_or(newest_next, |v| v.seq);
                        if next_seq > s {
                            break;
                        }
                        k += 1;
                    }
                    k
                }
            };
            for v in chain.drain(..keep_from) {
                if let Some(ppa) = v.ppa {
                    freed.push(ppa);
                }
            }
            !chain.is_empty()
        });
        freed
    }

    /// Bytes `diff`'s record takes in a table image.
    pub fn diff_record_len(diff: &Diff) -> usize {
        DIFF_RECORD_HEADER + diff.encoded_len()
    }

    /// Bytes `e` adds to a table image: the entry, and its differential's
    /// record unless that is empty.
    pub fn image_bytes(e: &Entry) -> usize {
        let diff = e.diff.as_deref().filter(|d| !d.is_empty());
        ENTRY_BYTES + diff.map_or(0, Self::diff_record_len)
    }

    /// True if the table's entries and differential records of `records`
    /// bytes in all make an image of one page of `page_size` bytes.
    pub fn image_fits_page(&self, page_size: usize, records: usize) -> bool {
        PAGE_HEADER + self.len() * ENTRY_BYTES + records <= page_size
    }

    /// Serializes the table and the differentials `diffs` — `(lpn, base,
    /// diff)` each — into whole flash pages of `page_size` bytes (the
    /// commit-time copy-on-write write of Figure 4): the entries fill the pages
    /// first, the differential records follow in the room left. An empty
    /// table still persists as one page (a durable "no unfolded commits"
    /// statement).
    pub fn encode_image(
        &self,
        page_size: usize,
        pages_per_block: usize,
        diffs: &[(Lpn, Ppa, &Diff)],
    ) -> Vec<Vec<u8>> {
        let per_page = (page_size - PAGE_HEADER) / ENTRY_BYTES;
        // Committed entries persist in commit order (recovery folds them
        // in decode order, and two commits of the same page must fold
        // later-commit-last); active ones, ordinal 0, lead.
        let mut ordered: Vec<&Entry> = self.iter().collect();
        ordered.sort_by_key(|e| e.seq);
        let mut stream = Vec::new();
        for (lpn, base, diff) in diffs {
            debug_assert!(*lpn <= u32::MAX as u64);
            stream.extend_from_slice(&(*lpn as u32).to_le_bytes());
            let lin = base.linear(pages_per_block) as u32;
            stream.extend_from_slice(&lin.to_le_bytes());
            diff.write_to(&mut stream);
        }
        let (mut entries, mut streamed) = (&ordered[..], 0);
        let mut pages = Vec::new();
        loop {
            let mut buf = vec![0u8; page_size];
            buf[0..8].copy_from_slice(&TABLE_MAGIC.to_le_bytes());
            let (chunk, rest) = entries.split_at(entries.len().min(per_page));
            entries = rest;
            for (i, e) in chunk.iter().enumerate() {
                let off = PAGE_HEADER + i * ENTRY_BYTES;
                debug_assert!(e.tid <= u32::MAX as u64 && e.lpn <= u32::MAX as u64);
                buf[off..off + 4].copy_from_slice(&(e.tid as u32).to_le_bytes());
                buf[off + 4..off + 8].copy_from_slice(&(e.lpn as u32).to_le_bytes());
                let lin = e.ppa.linear(pages_per_block) as u32;
                buf[off + 8..off + 12].copy_from_slice(&lin.to_le_bytes());
                let status = match e.status {
                    TxStatus::Active => 1u32,
                    TxStatus::Committed => 2u32,
                };
                buf[off + 12..off + 16].copy_from_slice(&status.to_le_bytes());
            }
            let from = PAGE_HEADER + chunk.len() * ENTRY_BYTES;
            let len = (stream.len() - streamed).min(page_size - from);
            buf[from..from + len].copy_from_slice(&stream[streamed..streamed + len]);
            streamed += len;
            buf[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            buf[12..16].copy_from_slice(&(len as u32).to_le_bytes());
            pages.push(buf);
            if entries.is_empty() && streamed == stream.len() {
                return pages;
            }
        }
    }

    /// Parses a persisted image (its pages concatenated in index order)
    /// into its entries and its differential records `(lpn, base,
    /// diff)`. Unknown statuses and garbage pages are skipped, and the
    /// records end at the first one that does not parse.
    pub fn decode_image(
        bytes: &[u8],
        page_size: usize,
        pages_per_block: usize,
    ) -> (Vec<Entry>, Vec<(Lpn, Ppa, Diff)>) {
        let per_page = (page_size - PAGE_HEADER) / ENTRY_BYTES;
        let mut out = Vec::new();
        let mut stream = Vec::new();
        for page in bytes.chunks(page_size) {
            if page.len() < PAGE_HEADER {
                continue;
            }
            let magic = get_u64(page, 0);
            if magic != TABLE_MAGIC {
                continue;
            }
            let count = (get_u32(page, 8) as usize).min(per_page);
            for i in 0..count {
                let off = PAGE_HEADER + i * ENTRY_BYTES;
                let tid = Tid::from(get_u32(page, off));
                let lpn = Lpn::from(get_u32(page, off + 4));
                let lin = u64::from(get_u32(page, off + 8));
                let status = get_u32(page, off + 12);
                let status = match status {
                    1 => TxStatus::Active,
                    2 => TxStatus::Committed,
                    _ => continue,
                };
                out.push(Entry {
                    tid,
                    lpn,
                    ppa: Ppa::from_linear(lin, pages_per_block),
                    status,
                    seq: 0,
                    diff: None,
                });
            }
            let from = PAGE_HEADER + count * ENTRY_BYTES;
            let len = (get_u32(page, 12) as usize).min(page.len() - from);
            stream.extend_from_slice(&page[from..from + len]);
        }
        let mut diffs = Vec::new();
        let mut at = 0;
        while at + 8 <= stream.len() {
            let lpn = Lpn::from(get_u32(&stream, at));
            let base = Ppa::from_linear(u64::from(get_u32(&stream, at + 4)), pages_per_block);
            let Some((diff, used)) = Diff::read_from(&stream[at + 8..], page_size) else {
                break;
            };
            diffs.push((lpn, base, diff));
            at += 8 + used;
        }
        (out, diffs)
    }
}

/// The X-L2P table chases garbage-collected pages: when GC relocates a
/// page an entry names, the entry follows it (the L2P side is handled
/// inside the engine). The chase goes by address, not by the tid in the
/// OOB: GC re-stamps the L2P-current copy of a folded committed page to
/// tid 0, so that page's second move arrives untagged, and an entry left
/// at the first copy would be re-persisted by the next group flush and
/// folded over the newer copy at recovery. Retained chain versions are
/// valid pages too, chased the same way.
impl GcHook for Xl2pTable {
    fn relocated(&mut self, oob: &Oob, old: Ppa, new: Ppa) {
        if oob.kind != PageKind::Data {
            return;
        }
        for e in self.entries.values_mut() {
            if e.lpn == oob.lpn && e.ppa == old {
                e.ppa = new;
            }
        }
        if let Some(chain) = self.chains.get_mut(&oob.lpn) {
            for v in chain.iter_mut() {
                if v.ppa == Some(old) {
                    v.ppa = Some(new);
                }
            }
        }
        if let Some(live) = self.live.get_mut(&oob.lpn) {
            if live.base == old {
                live.base = new;
            }
        }
        self.cache.relocated(old, new);
    }

    /// A live differential lives in the table image alone until its page
    /// is merged: a checkpoint covers the image's entries, not it.
    fn keeps_image(&self) -> bool {
        !self.live.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(b: u32, pg: u32) -> Ppa {
        Ppa::new(b, pg)
    }

    #[test]
    fn upsert_insert_and_update() {
        let mut t = Xl2pTable::new(4);
        assert_eq!(t.upsert(1, 10, p(0, 0)), Ok(None));
        assert_eq!(t.lookup(1, 10).unwrap().ppa, p(0, 0));
        // Same (tid, lpn) reuses the slot and reports the superseded ppa.
        assert_eq!(t.upsert(1, 10, p(0, 1)), Ok(Some(p(0, 0))));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(1, 10).unwrap().ppa, p(0, 1));
    }

    #[test]
    fn full_table_rejects_new_entries_but_allows_updates() {
        let mut t = Xl2pTable::new(2);
        t.upsert(1, 0, p(0, 0)).unwrap();
        t.upsert(1, 1, p(0, 1)).unwrap();
        assert!(t.is_full());
        assert_eq!(t.upsert(2, 5, p(0, 2)), Err(Xl2pError::Full));
        assert_eq!(t.upsert(1, 0, p(0, 3)), Ok(Some(p(0, 0))));
    }

    #[test]
    fn full_error_converts_to_dev_error() {
        let mut t = Xl2pTable::new(1);
        t.upsert(1, 0, p(0, 0)).unwrap();
        let err = t.upsert(2, 1, p(0, 1)).unwrap_err();
        assert_eq!(DevError::from(err), DevError::XL2pFull);
        assert_eq!(err.to_string(), "X-L2P table is full");
    }

    #[test]
    fn commit_flips_status() {
        let mut t = Xl2pTable::new(8);
        t.upsert(1, 0, p(0, 0)).unwrap();
        t.upsert(1, 1, p(0, 1)).unwrap();
        t.upsert(2, 2, p(0, 2)).unwrap();
        assert_eq!(t.mark_committed(1, 1), 2);
        assert_eq!(t.committed_len(), 2);
        assert_eq!(t.lookup(2, 2).unwrap().status, TxStatus::Active);
    }

    #[test]
    fn remove_active_of_tid_returns_ppas_and_spares_the_rest() {
        let mut t = Xl2pTable::new(8);
        t.upsert(1, 0, p(0, 0)).unwrap();
        t.upsert(2, 1, p(0, 1)).unwrap();
        t.upsert(1, 2, p(0, 2)).unwrap();
        t.upsert(3, 3, p(0, 3)).unwrap();
        let mut ppas = t.remove_active_of_tid(1);
        ppas.sort();
        assert_eq!(ppas, vec![p(0, 0), p(0, 2)]);
        assert_eq!(t.len(), 2);
        // Survivors still resolvable.
        assert_eq!(t.lookup(2, 1).unwrap().ppa, p(0, 1));
        assert_eq!(t.lookup(3, 3).unwrap().ppa, p(0, 3));
        assert!(t.entries_of(2).count() == 1);
    }

    #[test]
    fn rewrite_of_committed_entry_spares_the_committed_version() {
        // tid commits lpn, then the reused tid rewrites it: the committed
        // version (now owned by L2P) must not be reported for
        // invalidation.
        let mut t = Xl2pTable::new(8);
        t.upsert(1, 0, p(0, 0)).unwrap();
        t.mark_committed(1, 1);
        assert_eq!(
            t.upsert(1, 0, p(0, 1)).unwrap(),
            None,
            "committed ppa stays valid"
        );
        assert_eq!(t.lookup(1, 0).unwrap().status, TxStatus::Active);
        assert_eq!(t.lookup(1, 0).unwrap().ppa, p(0, 1));
        // A second rewrite of the now-active entry DOES supersede.
        assert_eq!(t.upsert(1, 0, p(0, 2)).unwrap(), Some(p(0, 1)));
    }

    #[test]
    fn abort_after_commit_is_noop_on_committed_entries() {
        let mut t = Xl2pTable::new(8);
        t.upsert(4, 3, p(1, 0)).unwrap();
        t.mark_committed(4, 1);
        t.upsert(4, 5, p(1, 1)).unwrap(); // reused tid, active again
        let removed = t.remove_active_of_tid(4);
        assert_eq!(removed, vec![p(1, 1)]);
        assert_eq!(t.lookup(4, 3).unwrap().status, TxStatus::Committed);
        assert!(t.lookup(4, 5).is_none());
    }

    #[test]
    fn release_spares_active_entries_of_reused_tid() {
        // A tid that committed and was then reused must keep its new
        // active entries across a release.
        let mut t = Xl2pTable::new(8);
        t.upsert(2, 0, p(0, 0)).unwrap();
        t.mark_committed(2, 1);
        t.upsert(2, 1, p(0, 1)).unwrap(); // reuse: new ACTIVE entry
        t.release_committed();
        assert!(t.lookup(2, 0).is_none(), "committed entry released");
        assert_eq!(t.lookup(2, 1).unwrap().status, TxStatus::Active);
        assert_eq!(t.lookup(2, 1).unwrap().ppa, p(0, 1));
    }

    #[test]
    fn release_committed_keeps_active() {
        let mut t = Xl2pTable::new(8);
        t.upsert(1, 0, p(0, 0)).unwrap();
        t.upsert(2, 1, p(0, 1)).unwrap();
        t.mark_committed(1, 1);
        t.release_committed();
        assert_eq!(t.len(), 1);
        assert!(t.lookup(2, 1).is_some());
        assert!(t.lookup(1, 0).is_none());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut t = Xl2pTable::new(500);
        for i in 0..10u64 {
            t.upsert(7, i, p(1, i as u32)).unwrap();
        }
        t.mark_committed(7, 1);
        t.upsert(9, 100, p(2, 0)).unwrap();
        let pages = t.encode_image(512, 8, &[]);
        assert_eq!(pages.len(), 1);
        let bytes: Vec<u8> = pages.concat();
        let entries = Xl2pTable::decode_image(&bytes, 512, 8).0;
        assert_eq!(entries.len(), 11);
        assert_eq!(
            entries
                .iter()
                .filter(|e| e.status == TxStatus::Committed)
                .count(),
            10
        );
        assert!(entries
            .iter()
            .any(|e| e.tid == 9 && e.lpn == 100 && e.status == TxStatus::Active));
    }

    #[test]
    fn the_one_page_size_is_what_the_image_encodes() {
        let mut t = Xl2pTable::new(500);
        let diffs: Vec<(Lpn, Ppa, Diff)> = (0..12)
            .map(|i| {
                let base = vec![0u8; 512];
                let mut new = base.clone();
                new[i * 7..][..i * 3 + 1].fill(1);
                (
                    i as Lpn,
                    p(3, i as u32),
                    Diff::encode(&base, &new, 512, 512).unwrap(),
                )
            })
            .collect();
        for entries in 0..20u64 {
            for carried in 0..=diffs.len() {
                let with: Vec<(Lpn, Ppa, &Diff)> = (diffs[..carried].iter())
                    .map(|(l, b, d)| (*l, *b, d))
                    .collect();
                let records = (with.iter()).map(|d| Xl2pTable::diff_record_len(d.2)).sum();
                let pages = t.encode_image(512, 8, &with).len();
                assert_eq!(
                    t.image_fits_page(512, records),
                    pages == 1,
                    "{entries} entries, {carried} differentials"
                );
            }
            t.upsert(entries + 1, entries, p(1, 0)).unwrap();
        }
    }

    #[test]
    fn paper_sizing_500_entries_fit_one_8k_page() {
        let mut t = Xl2pTable::new(500);
        for i in 0..500u64 {
            t.upsert(1, i, p(0, 0)).unwrap();
        }
        let pages = t.encode_image(8192, 128, &[]);
        assert_eq!(pages.len(), 1, "500 x 16 B entries must fit one 8 KB page");
        let mut t2 = Xl2pTable::new(1000);
        for i in 0..1000u64 {
            t2.upsert(1, i, p(0, 0)).unwrap();
        }
        assert_eq!(
            t2.encode_image(8192, 128, &[]).len(),
            2,
            "1000 entries need 16 KB"
        );
    }

    #[test]
    fn empty_table_persists_as_one_page() {
        let t = Xl2pTable::new(4);
        let pages = t.encode_image(512, 8, &[]);
        assert_eq!(pages.len(), 1);
        assert!(Xl2pTable::decode_image(&pages[0], 512, 8).0.is_empty());
    }

    #[test]
    fn decode_skips_garbage() {
        assert!(Xl2pTable::decode_image(&[0u8; 512], 512, 8).0.is_empty());
        assert!(Xl2pTable::decode_image(&[0xFF; 512], 512, 8).0.is_empty());
    }

    #[test]
    fn intents_mirror_entries() {
        let mut t = Xl2pTable::new(8);
        t.upsert(1, 7, p(0, 0)).unwrap();
        t.upsert(2, 7, p(0, 1)).unwrap();
        t.upsert(2, 8, p(0, 2)).unwrap();
        assert_eq!(t.writers_of(7), &[1, 2]);
        assert_eq!(t.writers_of(8), &[2]);
        assert_eq!(t.intent_pages(), 2);
        // A rewrite reuses the slot: no duplicate intent.
        t.upsert(1, 7, p(0, 3)).unwrap();
        assert_eq!(t.writers_of(7), &[1, 2]);
        // Abort releases only the aborting tid's intents.
        t.remove_active_of_tid(2);
        assert_eq!(t.writers_of(7), &[1]);
        assert!(t.writers_of(8).is_empty());
        // Commit releases the intent even though the entry stays resident
        // (Committed) until the next L2P checkpoint.
        t.mark_committed(1, 1);
        assert_eq!(t.intent_pages(), 0);
        assert_eq!(t.len(), 1);
        // Repurposing the committed slot re-registers the intent.
        t.upsert(1, 7, p(0, 4)).unwrap();
        assert_eq!(t.writers_of(7), &[1]);
        t.remove_active_of_tid(1);
        assert_eq!(t.intent_pages(), 0);
    }

    #[test]
    fn version_chain_visibility_and_pruning() {
        let mut t = Xl2pTable::new(8);
        // lpn 9: unwritten until seq 2, then v1@p(1,0) until seq 5, then
        // v2@p(1,1) until seq 8; L2P now holds v3 (seq 8).
        t.retain_version(9, 0, None, None);
        t.retain_version(9, 2, Some(p(1, 0)), None);
        t.retain_version(9, 5, Some(p(1, 1)), None);
        t.note_l2p_version(9, 8);
        assert_eq!(t.version_at(9, 1).map(|(n, v)| (n, v.ppa)), Some((3, None)));
        assert_eq!(
            t.version_at(9, 2).map(|(n, v)| (n, v.ppa)),
            Some((3, Some(p(1, 0))))
        );
        assert_eq!(
            t.version_at(9, 4).map(|(n, v)| (n, v.ppa)),
            Some((3, Some(p(1, 0))))
        );
        assert_eq!(
            t.version_at(9, 7).map(|(n, v)| (n, v.ppa)),
            Some((3, Some(p(1, 1))))
        );
        assert_eq!(t.chain_len(9), 3);
        // Oldest snapshot at 4: the primordial version (superseded at 2)
        // is dead, v1 (superseded at 5 > 4) must stay.
        assert_eq!(t.prune_versions(Some(4)), Vec::new());
        assert_eq!(t.chain_len(9), 2);
        assert_eq!(
            t.version_at(9, 4).map(|(n, v)| (n, v.ppa)),
            Some((2, Some(p(1, 0))))
        );
        // No snapshots left: everything is reclaimable.
        let mut freed = t.prune_versions(None);
        freed.sort();
        assert_eq!(freed, vec![p(1, 0), p(1, 1)]);
        assert_eq!(t.retained_versions(), 0);
        assert!(t.version_at(9, 7).is_none());
    }

    #[test]
    fn gc_hook_chases_retained_chain_versions() {
        let mut t = Xl2pTable::new(4);
        t.retain_version(3, 1, Some(p(2, 5)), None);
        // Chain versions carry whatever tid originally wrote them — the
        // chase must work even for plain (tid 0) pre-images.
        let oob = Oob {
            lpn: 3,
            seq: 7,
            tid: 0,
            kind: PageKind::Data,
            aux: 0,
        };
        t.relocated(&oob, p(2, 5), p(6, 0));
        assert_eq!(
            t.version_at(3, 1).map(|(n, v)| (n, v.ppa)),
            Some((1, Some(p(6, 0))))
        );
    }

    #[test]
    fn gc_hook_chases_relocations() {
        let mut t = Xl2pTable::new(4);
        t.upsert(5, 9, p(1, 2)).unwrap();
        let oob = Oob {
            lpn: 9,
            seq: 100,
            tid: 5,
            kind: PageKind::Data,
            aux: 0,
        };
        t.relocated(&oob, p(1, 2), p(3, 0));
        assert_eq!(t.lookup(5, 9).unwrap().ppa, p(3, 0));
        // A non-matching relocation is ignored.
        t.relocated(&oob, p(1, 2), p(4, 0));
        assert_eq!(t.lookup(5, 9).unwrap().ppa, p(3, 0));
        // Committed and folded, the copy is re-stamped tid 0: its next
        // move is chased by address.
        t.mark_committed(5, 1);
        let restamped = Oob { tid: 0, ..oob };
        t.relocated(&restamped, p(3, 0), p(7, 1));
        assert_eq!(t.lookup(5, 9).unwrap().ppa, p(7, 1));
    }

    #[test]
    fn committed_index_agrees_with_a_scan_of_the_table() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let committed = |t: &Xl2pTable| {
            (t.iter())
                .filter(|e| e.status == TxStatus::Committed)
                .count()
        };
        let base = vec![0u8; 512];
        let mut new = base.clone();
        new[40..48].fill(7);
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Xl2pTable::new(48);
            let (mut seq, mut page) = (0u64, 0u32);
            for step in 0..3_000 {
                // Few tids and pages: tids are reused across commits, and
                // several commits of one page sit in the table at once.
                let tid: Tid = rng.gen_range(1..6);
                let lpn: Lpn = rng.gen_range(0..10);
                page += 1;
                match rng.gen_range(0..100) {
                    0..35 => {
                        let put = t.upsert(tid, lpn, p(page / 8, page % 8));
                        assert!(put.is_ok() || t.is_full());
                    }
                    35..42 => {
                        let diff = Diff::encode(&base, &new, 512, 512).unwrap();
                        let put = t.upsert_diff(tid, lpn, p(page / 8, page % 8), diff);
                        assert!(put.is_ok() || t.is_full());
                    }
                    42..60 => {
                        seq += 1;
                        t.mark_committed(tid, seq);
                    }
                    60..70 => t.fold_diff(tid, lpn, seq),
                    70..93 => {
                        // A fold at some commit, or a plain overwrite,
                        // trim or merge: the old whole-table retain is
                        // the oracle.
                        let below = match rng.gen_range(0..4) {
                            0 => u64::MAX,
                            _ => rng.gen_range(0..=seq + 1),
                        };
                        let want: Vec<Entry> = (t.iter())
                            .filter(|e| {
                                e.lpn != lpn || e.status == TxStatus::Active || e.seq >= below
                            })
                            .cloned()
                            .collect();
                        t.supersede_committed(lpn, below);
                        let got: Vec<Entry> = t.iter().cloned().collect();
                        assert_eq!(
                            got, want,
                            "seed {seed} step {step}: supersede {lpn} < {below}"
                        );
                    }
                    93..97 => {
                        t.remove_active_of_tid(tid);
                    }
                    _ => {
                        let want: Vec<Entry> = (t.iter())
                            .filter(|e| e.status == TxStatus::Active)
                            .cloned()
                            .collect();
                        t.release_committed();
                        assert_eq!(t.iter().cloned().collect::<Vec<_>>(), want);
                    }
                }
                assert_eq!(t.committed_len(), committed(&t), "seed {seed} step {step}");
            }
        }
    }
}
