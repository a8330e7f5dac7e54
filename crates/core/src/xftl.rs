//! The X-FTL device: a page-mapping FTL with transactional atomicity.
//!
//! `XFtl` implements the full extended command set of §4.2 — `read(tid,p)`,
//! `write(tid,p)`, `commit(tid)`, `abort(tid)` — on top of the shared FTL
//! engine. Because the engine is copy-on-write anyway, transactional
//! atomicity costs almost nothing extra: a `write_tx` is an ordinary
//! out-of-place page write whose new address is parked in the X-L2P table
//! instead of the L2P table, and `commit` makes one small table write
//! (Figure 4, minus its root-pointer update).
//!
//! ## Commit protocol (Figure 4), pipelined
//!
//! 1. flip the transaction's X-L2P entries to *Committed* in device RAM;
//! 2. write the X-L2P table copy-on-write to fresh flash pages, queued
//!    behind every program issued so far — **the durability point is the
//!    completion of the last of them**. Figure 4 then points the meta
//!    root at the table; here the image is its own commit evidence
//!    instead (generation id, page index and page count in every page's
//!    OOB), the recovery scan — which probes every page anyway — finds
//!    the newest *complete* generation, and no root is written;
//! 3. re-map the committed LPNs in the L2P table, invalidating the old
//!    versions (idempotent; recovery re-derives it from step 2's table).
//!
//! Old committed versions are invalidated only *after* step 2, so a crash
//! at any instant leaves either the old committed state or the new one
//! reachable — never neither: a torn or partial newest generation is
//! passed over for the previous one, which stays valid until its
//! successor is completely issued.
//!
//! The command set is split-phase: `commit_submit(tid)` performs step 1
//! only and *stages* the transaction into the current commit group, and
//! `commit_wait(ticket)` triggers the **group flush** — steps 2 and 3 for
//! every staged transaction at once, sharing a single X-L2P table write.
//! Between submit and flush the staged versions are visible (reads are
//! routed through the X-L2P table) but not durable; the next
//! transaction's data writes stream into the channel queues underneath
//! the staged commits, which is where the pipeline's throughput comes
//! from. Any operation that must order after a staged fold (a plain
//! write/trim to a staged page, a checkpoint, a flush) forces the group
//! flush first, so the one-writer-at-a-time semantics of the blocking
//! command are preserved exactly.
//!
//! A power loss before the group flush loses every staged transaction
//! *whole*: the persisted X-L2P table still shows their entries Active
//! (or absent), so recovery aborts them — the unacknowledged commit
//! never half-applies.
//!
//! ## Differentials
//!
//! A transactional write that changes few bytes of a page is not
//! programmed at all (DESIGN.md §5.2, "Differentials"). The device keeps
//! the page's *base* — its last whole-written version, the one the L2P
//! maps — in the image cache ([`crate::cache`]) and stores the write as a
//! [`Diff`] against it in the transaction's X-L2P entry. The group flush
//! writes one self-contained table image: the entries plus every live
//! differential, so recovery still reads only the newest generation. A
//! cache miss, or a differential past the cap ([`crate::diff::cap_for`],
//! a quarter page), writes the page whole, and that whole write is the
//! merge. A differential past [`crate::diff::DIFF_LIMIT`] but within the
//! cap rides its commit's image too, unless the image would need a second
//! page for it, and is merged right after the durability point. One more
//! rule merges there: while the next image would leave too little
//! room for another group like this one, the live differential with the
//! most record bytes × commits since its first fold is written whole (see
//! `XFtl::make_room`). A read is the base page plus the differential
//! held in RAM.
//!
//! ## Abort
//!
//! Two RAM-only steps (§5.3): drop the transaction's entries and invalidate
//! its flash pages. No flash write is needed: a crash turns in-flight
//! transactions into aborts for free. A differential frees RAM only.
//!
//! ## MVCC: snapshots, version chains, first-committer-wins
//!
//! The copy-on-write X-L2P design already retains every pre-image a
//! transaction displaces; promoting that into multi-version concurrency
//! control costs only RAM bookkeeping:
//!
//! * `begin(tid)` captures the device's **commit sequence**, bumped by
//!   every `commit_submit` that stages pages and every plain write and
//!   trim, each of which also records the sequence of the version the L2P
//!   now maps. That clock is all a device without snapshots keeps: with
//!   none registered, nothing is retained and every fold invalidates the
//!   displaced version, as it always did.
//! * While any snapshot is active, a fold that would invalidate the
//!   displaced version *retains* it instead, appending `(old_seq, ppa)`
//!   to the page's RAM-only version chain in the X-L2P table.
//! * `read_tx(tid, lpn)` for a snapshot transaction resolves, in order:
//!   its own active X-L2P entry, the newest staged commit at or below its
//!   snapshot, the L2P copy if its fold sequence is old enough, else a
//!   chain walk to the newest retained version at or below the snapshot.
//! * `commit_submit` validates first-committer-wins: if any page the
//!   transaction wrote has a committed version newer than its snapshot —
//!   a staged commit's ordinal, else the L2P version's sequence — the
//!   transaction aborts with [`DevError::Conflict`] (its versions feed
//!   GC, its write intents release) — the winner is always the first
//!   committer, deterministically.
//! * Chains prune as snapshots retire; pruned copies are invalidated
//!   (GC food). Everything is RAM-only: a power cut kills snapshots,
//!   and recovery rebuilds validity from L2P membership, so retained
//!   versions orphaned by a crash become garbage automatically.

use std::collections::HashMap;
use std::sync::Arc;

use xftl_flash::{FlashChip, PageProbe, Ppa};
use xftl_ftl::{
    diff_size_bucket, origin_seq, BlockDevice, CmdId, CommitTicket, DevCounters, DevError,
    DeviceState, FtlBase, IoCmd, Lpn, Personality, RecoveryLog, Result, Tid, TxBlockDevice,
};
use xftl_trace::OpClass;

use crate::diff::{cap_for, limit_for, Diff};
use crate::xl2p::{Entry, TxStatus, Xl2pError, Xl2pTable};

/// Default X-L2P capacity (the paper's small configuration: 500 entries,
/// one 8 KB flash page).
pub const DEFAULT_XL2P_CAPACITY: usize = 500;

/// Quarters of the bytes a group flush leaves in the table image that
/// [`XFtl::make_room`] keeps free in its page for the next group.
const ROOM_QUARTERS: usize = 3;

/// Programs since the last root after which a group flush checkpoints,
/// unless [`FtlBase::root_due`]'s window is smaller: the roll-forward a
/// recovery scans, and the bound on the whole pages whose entries wait in
/// the table image for the checkpoint. GC's copies do not advance it
/// ([`FtlBase::programs_since_root`]): counted, they filled the window
/// every few commits on Figure 5's 70 %-validity panel and cost it up to
/// 75 % more time (DESIGN.md §5.3).
const CHECKPOINT_PROGRAMS: u64 = 256;

/// The live table image a recovery found: its generation id, entries
/// and differential records.
struct RecoveredImage {
    generation: u64,
    entries: Vec<Entry>,
    diffs: Vec<(Lpn, Ppa, Diff)>,
}

impl RecoveredImage {
    /// Reads the live image [`FtlBase::xl2p_roots`] names, if any.
    fn read(base: &mut FtlBase) -> Result<RecoveredImage> {
        let ps = base.page_size();
        let roots = base.xl2p_roots().to_vec();
        let mut bytes = vec![0u8; ps * roots.len()];
        let mut generation = 0;
        for (ppa, page) in roots.iter().zip(bytes.chunks_mut(ps)) {
            generation = base.read_at(*ppa, page)?.tid;
        }
        let (entries, diffs) = Xl2pTable::decode_image(&bytes, ps, base.pages_per_block());
        Ok(RecoveredImage {
            generation,
            entries,
            diffs,
        })
    }

    /// The folds its committed entries seal, at its generation. None if
    /// the root's checkpoint covers the image: it was kept live for its
    /// differentials alone.
    fn folds(&self, ckpt_seq: u64) -> Vec<(u64, Lpn, Ppa)> {
        if self.generation <= ckpt_seq {
            return Vec::new();
        }
        (self.entries.iter())
            .filter(|e| e.status == TxStatus::Committed)
            .map(|e| (self.generation, e.lpn, e.ppa))
            .collect()
    }
}

/// The differentials the next table image carries, `(lpn, base, diff)`:
/// `table`'s live ones as the `staged` commits leave them — a staged
/// differential replaces the page's, a staged whole page drops it.
fn image_diffs<'a>(table: &'a Xl2pTable, staged: &[(Tid, u64)]) -> Vec<(Lpn, Ppa, &'a Diff)> {
    let mut diffs: Vec<(Lpn, Ppa, &Diff)> = (table.live_diffs())
        .map(|(lpn, live)| (lpn, live.base, &*live.diff))
        .collect();
    for &(tid, seq) in staged {
        for e in table.entries_of(tid).filter(|e| e.seq == seq) {
            let at = diffs.binary_search_by_key(&e.lpn, |d| d.0);
            match (e.diff.as_deref(), at) {
                (Some(diff), Ok(i)) => diffs[i] = (e.lpn, e.ppa, diff),
                (Some(diff), Err(i)) => diffs.insert(i, (e.lpn, e.ppa, diff)),
                (None, Ok(i)) => drop(diffs.remove(i)),
                (None, Err(_)) => {}
            }
        }
    }
    diffs.retain(|(_, _, diff)| !diff.is_empty());
    diffs
}

/// The transactional FTL.
#[derive(Debug)]
pub struct XFtl {
    base: FtlBase,
    table: Xl2pTable,
    /// Commits staged by `commit_submit` into the open commit group, each
    /// as its tid and the ordinal it stamped on the entries it flipped, in
    /// submission order (= fold order at the group flush). A tid may
    /// appear twice if it was reused and committed twice in one window.
    /// Which pages are staged, and whose version a read of one returns,
    /// is read off the entries bearing these ordinals.
    staged: Vec<(Tid, u64)>,
    /// Id the open commit group's ticket carries; groups flush in order,
    /// so a ticket is durable exactly when its id is below this counter.
    next_group: u64,
    /// Global commit sequence: the MVCC visibility clock. Bumped by every
    /// `commit_submit` that stages pages and by every plain write/trim.
    /// RAM-only — it resets at recovery, which is sound because snapshots
    /// never survive power loss either.
    commit_seq: u64,
    /// Active snapshot per transaction: the commit sequence `begin(tid)`
    /// captured. Present only between `begin` and the transaction's
    /// commit/abort/conflict resolution.
    snapshots: HashMap<Tid, u64>,
}

/// A committed transaction's pages become current at the point its group
/// flush began — the generation id every page of the live table image
/// carries, which a GC copy keeps while its program sequence moves;
/// entries of in-flight transactions are implicitly aborted — simply not
/// folded (§5.4). Reading the image, the fold and the closing checkpoint
/// (`replay_ns` and `checkpoint_ns` of [`FtlBase::recovery`]) are what
/// the paper reports as X-FTL's 3.5 ms "SQLite restart time"; the rest is
/// the common FTL work it excludes.
impl Personality for XFtl {
    fn assemble(base: FtlBase) -> Self {
        XFtl {
            base,
            table: Xl2pTable::new(DEFAULT_XL2P_CAPACITY),
            staged: Vec::new(),
            next_group: 1,
            commit_seq: 0,
            snapshots: HashMap::new(),
        }
    }

    /// The image's folds replayed, then its differentials: each is live
    /// again if its page still stands on the base it was taken against —
    /// the page the L2P maps after the replay holds a write older than
    /// the image (the base, or a GC copy of it). The closing checkpoint
    /// keeps the image if any is.
    fn recover_from_scan(&mut self, log: &RecoveryLog) -> Result<()> {
        let image = RecoveredImage::read(&mut self.base)?;
        self.base.replay(log, image.folds(log.ckpt_seq))?;
        self.restore_diffs(log, image)?;
        self.base.close_recovery(log, &mut self.table)
    }

    fn base(&self) -> &FtlBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut FtlBase {
        &mut self.base
    }

    fn into_chip(self) -> FlashChip {
        self.base.into_chip()
    }
}

// The first four methods — `format`, `recover`, `base`, `into_chip` —
// only delegate to `Personality`: the frozen `perf` package calls them by
// path from its own trait of the same method names, where without them
// the call would resolve to that trait and recurse. They go once perf is
// unfrozen.
impl XFtl {
    /// [`Personality::format`], with the default X-L2P capacity.
    pub fn format(chip: FlashChip, logical_pages: u64) -> Result<Self> {
        <Self as Personality>::format(chip, logical_pages)
    }

    /// [`Personality::recover`], with the default X-L2P capacity.
    pub fn recover(chip: FlashChip) -> Result<Self> {
        <Self as Personality>::recover(chip)
    }

    /// [`Personality::base`].
    pub fn base(&self) -> &FtlBase {
        <Self as Personality>::base(self)
    }

    /// [`Personality::into_chip`].
    pub fn into_chip(self) -> FlashChip {
        <Self as Personality>::into_chip(self)
    }

    /// Formats with an explicit X-L2P capacity (500 and 1000 in the paper;
    /// the ablation bench sweeps this).
    pub fn format_with_capacity(
        chip: FlashChip,
        logical_pages: u64,
        xl2p_capacity: usize,
    ) -> Result<Self> {
        <Self as Personality>::format(chip, logical_pages).map(|d| d.with_capacity(xl2p_capacity))
    }

    /// [`XFtl::recover`] with an explicit X-L2P capacity.
    pub fn recover_with_capacity(chip: FlashChip, xl2p_capacity: usize) -> Result<Self> {
        <Self as Personality>::recover(chip).map(|d| d.with_capacity(xl2p_capacity))
    }

    /// The device with a table of `xl2p_capacity` entries in place of
    /// the default: it holds no entry yet, only recovered differentials.
    fn with_capacity(mut self, xl2p_capacity: usize) -> Self {
        debug_assert!(self.table.is_empty());
        self.table.set_capacity(xl2p_capacity);
        self
    }

    /// Checkpoints the L2P table and releases committed X-L2P entries,
    /// whose folds the checkpoint now covers. Staged commits flush first:
    /// releasing an entry whose fold has not been applied would lose the
    /// commit while the device is still running.
    fn checkpoint_and_release(&mut self) -> Result<()> {
        self.flush_staged_commits()?;
        self.checkpoint_and_release_raw()
    }

    /// The release itself, for callers that already flushed (or are the
    /// flush): persist the L2P — the checkpoint retires the table image
    /// once its root is on the media — and drop the folded entries.
    fn checkpoint_and_release_raw(&mut self) -> Result<()> {
        self.base.checkpoint(&mut self.table)?;
        self.table.release_committed();
        Ok(())
    }

    /// The group flush — steps 2 and 3 of Figure 4 for *every* staged
    /// transaction at once: one copy-on-write X-L2P table write makes the
    /// whole group durable, then the folds are applied in submission
    /// order. This is where concurrent `commit_submit`s coalesce; with N
    /// staged commits the table-write cost is 1/N per transaction.
    fn flush_staged_commits(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let t_start = self.base.clock().now();
        // Step 2 (durability point), once for the whole group: the
        // entries, and every differential live once the group is folded.
        // What the group leaves in it: a record past the limit is merged
        // after this image, and leaves it.
        let (ps, ppb) = (self.base.page_size(), self.base.pages_per_block());
        let limit = limit_for(ps);
        let added: usize = (self.staged.iter())
            .flat_map(|&(tid, seq)| self.table.entries_of(tid).filter(move |e| e.seq == seq))
            .map(|e| {
                let merged = e.diff.as_deref().filter(|d| d.encoded_len() > limit);
                Xl2pTable::image_bytes(e) - merged.map_or(0, Xl2pTable::diff_record_len)
            })
            .sum();
        // The table image is ordered behind every program issued so far,
        // so waiting for it retires every outstanding ticket (ledger
        // bound, as in the classic blocking commit).
        self.base.retire_all();
        let (staged, mut shape) = (&self.staged, (0, 0));
        let durable_at = (self.base).persist_xl2p(&mut self.table, |table| {
            let diffs = image_diffs(table, staged);
            shape = (
                table.len(),
                diffs.iter().map(|d| Xl2pTable::diff_record_len(d.2)).sum(),
            );
            table.encode_image(ps, ppb, &diffs)
        })?;
        self.base.wait_for(durable_at);
        // Step 3: fold in submission order, so a page committed by two
        // staged transactions ends up at the later writer's version.
        // Each commit folds exactly the entries it flipped: neither the
        // active entries of the tid's next batch nor what an earlier
        // commit of a reused tid left in the table — folded by its own
        // flush, and perhaps superseded since by another writer's.
        let staged = std::mem::take(&mut self.staged);
        for &(tid, seq) in &staged {
            let folds: Vec<(Lpn, bool)> = (self.table.entries_of(tid))
                .filter(|e| e.seq == seq)
                .map(|e| (e.lpn, e.diff.is_some()))
                .collect();
            for (lpn, diffed) in folds {
                if diffed {
                    self.fold_diff(tid, lpn, seq);
                } else {
                    self.fold_entry(tid, lpn, seq)?;
                }
            }
        }
        self.next_group += 1;
        let stats = self.base.stats_mut();
        stats.group_commit_flushes += 1;
        stats.commits_coalesced += staged.len() as u64;
        stats.image_entries += shape.0 as u64;
        stats.image_record_bytes += shape.1 as u64;
        let t_end = self.base.clock().now();
        for &(tid, _) in &staged {
            self.base
                .recorder()
                .record_span(OpClass::TxCommit, tid, 0, t_start, t_end);
        }
        self.base.recorder().record_span(
            OpClass::GroupCommitCoalesce,
            0,
            staged.len() as u64,
            t_start,
            t_end,
        );
        // Housekeeping: once the roll-forward window is full, or — the
        // guard against a full table — committed entries crowd it,
        // persist the L2P and release them.
        let crowded = self.table.committed_len() > self.table.capacity() / 2;
        let window = self.base.programs_since_root() >= CHECKPOINT_PROGRAMS || self.base.root_due();
        if crowded || window {
            self.checkpoint_and_release_raw()?;
        }
        self.make_room(added)?;
        // Retention is deliberately coarse (any active snapshot retains);
        // drop whatever no snapshot can actually reach.
        self.prune_dead_versions();
        Ok(())
    }

    /// Folds `tid`'s whole version of `lpn`, stamped `seq`: the page's
    /// pending differentials move onto it first.
    fn fold_entry(&mut self, tid: Tid, lpn: Lpn, seq: u64) -> Result<()> {
        let Some(ppa) = self.table.lookup(tid, lpn).map(|e| e.ppa) else {
            return Ok(());
        };
        self.rebase_pending(lpn, ppa);
        self.fold(lpn, ppa, seq)
    }

    /// Folds `tid`'s differential for `lpn`, stamped `seq`: it becomes
    /// the page's live differential over the same base, which the L2P
    /// maps, and its entry leaves the table. A new version on the
    /// visibility clock; no address moves.
    fn fold_diff(&mut self, tid: Tid, lpn: Lpn, seq: u64) {
        debug_assert_eq!(
            self.table.lookup(tid, lpn).map(|e| e.ppa),
            self.base.l2p_peek(lpn),
            "a differential folds onto the base it was taken against"
        );
        self.table.note_l2p_version(lpn, seq);
        self.table.fold_diff(tid, lpn, seq);
    }

    /// Merges every live differential past the size limit — its commit's
    /// image carried it this far — then the others, the most record bytes
    /// × commits since its first fold first, while the table's entries,
    /// its live records and room for [`ROOM_QUARTERS`] quarters of the
    /// `added` bytes the group left in the image would not fit one page.
    /// The merges queue behind the image, after the durability point, so
    /// the next commit does not wait on them; a prediction that falls
    /// short costs that commit's image a second page.
    fn make_room(&mut self, added: usize) -> Result<()> {
        let ps = self.base.page_size();
        let limit = limit_for(ps);
        let oversized: Vec<Lpn> = (self.table.live_diffs())
            .filter(|(_, live)| live.diff.encoded_len() > limit)
            .map(|(lpn, _)| lpn)
            .collect();
        for lpn in oversized {
            self.merge(lpn)?;
            self.base.stats_mut().merges_size_after += 1;
        }
        let room = added * ROOM_QUARTERS / 4;
        let mut lives: Vec<(usize, usize, Lpn)> = (self.table.live_diffs())
            .map(|(lpn, live)| {
                let len = Xl2pTable::diff_record_len(&live.diff);
                let age = self.commit_seq.saturating_sub(live.since) as usize;
                (len * age, len, lpn)
            })
            .collect();
        let mut records: usize = lives.iter().map(|l| l.1).sum();
        lives.sort_unstable();
        while !self.table.image_fits_page(ps, records + room) {
            let Some((_, len, lpn)) = lives.pop() else {
                break;
            };
            self.merge(lpn)?;
            self.base.stats_mut().merges_room += 1;
            records -= len;
        }
        Ok(())
    }

    /// Writes `lpn`'s newest committed version whole — its base with the
    /// live differential applied — and makes that the base. The content
    /// and the version's visibility ordinal stay; only the address moves,
    /// and a plain write records it, which recovery replays past the
    /// image's differential (see [`XFtl::restore_diffs`]).
    fn merge(&mut self, lpn: Lpn) -> Result<()> {
        let Some(live) = self.table.live(lpn).cloned() else {
            return Ok(());
        };
        let mut page = match self.table.cache().peek(live.base) {
            Some(image) => image.to_vec(),
            None => {
                let mut page = vec![0u8; self.base.page_size()];
                self.base.read_at(live.base, &mut page)?;
                page
            }
        };
        live.diff.apply(&mut page);
        let (ppa, _) = self.base.write_cow(lpn, 0, &page, false, &mut self.table)?;
        self.table.cache_mut().insert(ppa, &page);
        self.rebase_pending(lpn, ppa);
        let old = self.base.l2p_peek(lpn);
        self.table.take_live(lpn);
        self.base.fold_mapping_retain(lpn, ppa)?;
        if let Some(old) = old {
            self.drop_version(old);
        }
        self.table.supersede_committed(lpn, u64::MAX);
        Ok(())
    }

    /// Invalidates a version nothing references any more, and drops its
    /// cached image.
    fn drop_version(&mut self, ppa: Ppa) {
        self.base.invalidate(ppa);
        self.table.cache_mut().forget(ppa);
    }

    /// Moves every active differential of `lpn` off the page's current
    /// base, about to be displaced by the version at `new`, onto `new`:
    /// retaken against its image if that is cached, else as one run over
    /// the whole page, which its commit writes whole. RAM only.
    fn rebase_pending(&mut self, lpn: Lpn, new: Ppa) {
        let Some(old) = self.base.l2p_peek(lpn) else {
            return;
        };
        for tid in self.table.pending_diffs_on(lpn, old) {
            self.rebase(tid, lpn, new);
        }
    }

    /// Retakes `tid`'s differential for `lpn` against the version at
    /// `new` (see [`XFtl::rebase_pending`]).
    fn rebase(&mut self, tid: Tid, lpn: Lpn, new: Ppa) {
        let Some(page) = self.pending_page(tid, lpn) else {
            return;
        };
        let diff = match self.table.cache().peek(new) {
            Some(image) => Diff::encode(image, &page, usize::MAX, usize::MAX).unwrap_or_default(),
            None => Diff::whole(&page),
        };
        let rebased = self.table.upsert_diff(tid, lpn, new, diff);
        debug_assert_eq!(rebased, Ok(None), "the entry is a differential");
    }

    /// The page `tid`'s active differential for `lpn` makes, from its
    /// base's image (a whole-page run needs none).
    fn pending_page(&self, tid: Tid, lpn: Lpn) -> Option<Vec<u8>> {
        let e = self.table.lookup(tid, lpn)?;
        let diff = e.diff.as_ref()?;
        let mut page = match self.table.cache().peek(e.ppa) {
            Some(image) => image.to_vec(),
            None => vec![0u8; self.base.page_size()],
        };
        diff.apply(&mut page);
        Some(page)
    }

    /// Writes `tid`'s differential for `lpn` out whole, as the
    /// transaction's version of the page.
    fn materialize(&mut self, tid: Tid, lpn: Lpn) -> Result<()> {
        let Some(page) = self.pending_page(tid, lpn) else {
            return Ok(());
        };
        let (ppa, _) = self
            .base
            .write_cow(lpn, tid, &page, false, &mut self.table)?;
        self.record_tx_write(tid, lpn, ppa);
        self.table.cache_mut().insert(ppa, &page);
        Ok(())
    }

    /// Before `tid`'s entries flip: a differential folds onto the base it
    /// was taken against, so it moves onto the page's newest committed
    /// base if a staged whole page replaced that since; and it is written
    /// whole if it has outgrown the cap, or if another transaction's
    /// snapshot may need the version its fold would displace in place
    /// (a whole page's fold retains that version). Then the ones past the
    /// limit that the next image has no room for are written whole.
    fn settle_diffs(&mut self, tid: Tid) -> Result<()> {
        let pending: Vec<(Lpn, Ppa)> = (self.table.entries_of(tid))
            .filter(|e| e.status == TxStatus::Active && e.diff.is_some())
            .map(|e| (e.lpn, e.ppa))
            .collect();
        let watched = self.snapshots.keys().any(|&t| t != tid);
        let cap = cap_for(self.base.page_size());
        for (lpn, base) in pending {
            let newest = self.newest_base(lpn);
            if let Some(newest) = newest.filter(|&n| n != base) {
                self.rebase(tid, lpn, newest);
            }
            let size = (self.table.lookup(tid, lpn))
                .and_then(|e| e.diff.as_ref())
                .map_or(0, |d| d.encoded_len());
            if watched || newest.is_none() || size > cap {
                self.materialize(tid, lpn)?;
                self.base.stats_mut().merges_size_before += u64::from(size > cap);
            }
        }
        self.fit_image(tid)
    }

    /// Writes `tid`'s differentials past the limit whole, the largest
    /// first, while the next table image — the staged group's, and
    /// `tid`'s commit — would not fit one page: a record that would only
    /// be merged after the image must not cost the commit a second image
    /// page.
    fn fit_image(&mut self, tid: Tid) -> Result<()> {
        let ps = self.base.page_size();
        let limit = limit_for(ps);
        let mut oversized: Vec<(usize, Lpn)> = (self.table.entries_of(tid))
            .filter(|e| e.status == TxStatus::Active)
            .filter_map(|e| e.diff.as_deref().map(|diff| (diff, e.lpn)))
            .filter(|(diff, _)| diff.encoded_len() > limit)
            .map(|(diff, lpn)| (Xl2pTable::diff_record_len(diff), lpn))
            .collect();
        if oversized.is_empty() {
            return Ok(());
        }
        oversized.sort_unstable();
        let mut commits = self.staged.clone();
        // `tid`'s entries are still active, stamped 0.
        commits.push((tid, 0));
        let mut records: usize = (image_diffs(&self.table, &commits).iter())
            .map(|d| Xl2pTable::diff_record_len(d.2))
            .sum();
        while !self.table.image_fits_page(ps, records) {
            let Some((len, lpn)) = oversized.pop() else {
                break;
            };
            self.materialize(tid, lpn)?;
            self.base.stats_mut().merges_size_before += 1;
            records -= len;
        }
        Ok(())
    }

    /// The base a differential of `lpn` is taken against: the newest
    /// staged commit's (its page, or its differential's base), else the
    /// page the L2P maps.
    fn newest_base(&self, lpn: Lpn) -> Option<Ppa> {
        match self.staged_entry(lpn, u64::MAX) {
            Some(e) => Some(e.ppa),
            None => self.base.l2p_peek(lpn),
        }
    }

    /// Keeps `tid`'s write of `lpn` as a differential against the page's
    /// newest base, if that base's image is cached and the differential
    /// is within the cap; false, and the caller writes the page whole,
    /// otherwise. No differential is taken while any snapshot is active:
    /// it may need the version the commit displaces.
    fn write_diff(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<bool> {
        // A read-only device refuses the write as a whole page would.
        if !self.snapshots.is_empty() || self.base.device_state() == DeviceState::ReadOnly {
            return Ok(false);
        }
        // The transaction's own whole version is rewritten whole.
        let own = self.table.lookup(tid, lpn);
        if own.is_some_and(|e| e.status == TxStatus::Active && e.diff.is_none()) {
            return Ok(false);
        }
        let Some(base) = self.newest_base(lpn) else {
            return Ok(false);
        };
        let (limit, cap) = (limit_for(buf.len()), cap_for(buf.len()));
        let encoded =
            (self.table.cache_mut().get(base)).map(|image| Diff::encode(image, buf, limit, cap));
        let stats = self.base.stats_mut();
        let diff = match encoded {
            None => {
                stats.image_cache_misses += 1;
                return Ok(false);
            }
            Some(None) => {
                stats.merges_size_before += 1;
                stats.diff_size_hist[diff_size_bucket(None)] += 1;
                return Ok(false);
            }
            Some(Some(diff)) => diff,
        };
        stats.diff_size_hist[diff_size_bucket(Some(diff.encoded_len()))] += 1;
        stats.diff_writes += 1;
        stats.diff_bytes += diff.encoded_len() as u64;
        stats.diff_copies += u64::from(diff.has_copies());
        // A RAM-only command: a quarter of the firmware overhead, as an
        // unmapped read.
        let clock = self.base.clock();
        let t_start = clock.now();
        clock.advance(self.base.chip().config().timings.cmd_overhead_ns / 4);
        match self.table.upsert_diff(tid, lpn, base, diff) {
            Ok(None) => {}
            Ok(Some(superseded)) => self.drop_version(superseded),
            Err(Xl2pError::Full) => unreachable!("capacity checked by reserve_tx_slot"),
        }
        self.base
            .recorder()
            .record_span(OpClass::FtlHostWrite, tid, lpn, t_start, clock.now());
        Ok(true)
    }

    /// After a recovery: re-installs each differential of the recovered
    /// image whose page still stands on the base it was taken against —
    /// the page the L2P now maps holds the contents of a write older than
    /// the image (the base, or a GC copy of it, which keeps its origin's
    /// sequence). A newer write of the page superseded the differential.
    fn restore_diffs(&mut self, log: &RecoveryLog, image: RecoveredImage) -> Result<()> {
        let written: HashMap<Ppa, u64> = (log.events.iter())
            .map(|e| (e.ppa, origin_seq(e.seq, e.tid, e.aux)))
            .collect();
        for (lpn, _, diff) in image.diffs {
            let Some(now) = self.base.l2p_peek(lpn) else {
                continue;
            };
            let origin = match written.get(&now) {
                Some(&origin) => origin,
                // Covered by the root, which is newer than the image only
                // if the image was kept live across it.
                None if image.generation > log.ckpt_seq => 0,
                None => match self.base.chip_mut().probe(now)? {
                    PageProbe::Programmed(oob) => origin_seq(oob.seq, oob.tid, oob.aux),
                    PageProbe::Erased | PageProbe::Torn => u64::MAX,
                },
            };
            if origin < image.generation {
                self.table.restore_live(lpn, now, diff);
            }
        }
        Ok(())
    }

    /// Oldest active snapshot, the horizon below which retained versions
    /// are still readable.
    fn min_snapshot(&self) -> Option<u64> {
        self.snapshots.values().copied().min()
    }

    /// True if some active snapshot can still see a version whose
    /// sequence is `seq` — the retention test. A version newer than
    /// every snapshot is invisible to all of them (they each see
    /// something older), so displacing it frees the copy immediately.
    fn snapshot_sees(&self, seq: u64) -> bool {
        self.snapshots.values().any(|&s| s >= seq)
    }

    /// Invalidates every retained version no active snapshot can read —
    /// the discarded copies become GC food.
    fn prune_dead_versions(&mut self) {
        let freed = self.table.prune_versions(self.min_snapshot());
        if freed.is_empty() {
            return;
        }
        self.base.stats_mut().versions_pruned += freed.len() as u64;
        for ppa in freed {
            self.drop_version(ppa);
        }
    }

    /// Releases `tid`'s snapshot (if it holds one) and prunes versions
    /// only that snapshot still needed.
    fn release_snapshot(&mut self, tid: Tid) {
        if self.snapshots.remove(&tid).is_some() {
            self.prune_dead_versions();
        }
    }

    /// Points the L2P at `ppa`, the whole version of sequence `seq`. The
    /// displaced version — with the page's live differential, which it
    /// supersedes — is retained in the version chain if some active
    /// snapshot can still see it, invalidated otherwise. The older
    /// committed entries of the page leave the table: the version carries
    /// its own durable record — its entry in the image, or the program of
    /// a plain write — and a stale entry left behind would be re-persisted
    /// by every flush and, behind a plain write, fold the old version
    /// back at recovery.
    fn fold(&mut self, lpn: Lpn, ppa: Ppa, seq: u64) -> Result<()> {
        let old_seq = self.table.l2p_seq_of(lpn);
        self.table.note_l2p_version(lpn, seq);
        self.table.supersede_committed(lpn, seq);
        let old = self.base.l2p_peek(lpn);
        if old == Some(ppa) {
            return Ok(());
        }
        let live = self.table.take_live(lpn).map(|l| l.diff);
        let displaced = self.base.fold_mapping_retain(lpn, ppa)?;
        debug_assert_eq!(displaced, old);
        if self.snapshot_sees(old_seq) {
            self.table.retain_version(lpn, old_seq, old, live);
            self.base.stats_mut().versions_retained += 1;
        } else if let Some(old) = old {
            self.drop_version(old);
        }
        Ok(())
    }

    /// Plain committed host write: a version of its own on the
    /// visibility clock, folded at once.
    fn write_plain(&mut self, lpn: Lpn, buf: &[u8], wait: bool) -> Result<u64> {
        self.base.counters_mut().host_writes += 1;
        let (ppa, done) = self.base.write_cow(lpn, 0, buf, wait, &mut self.table)?;
        self.rebase_pending(lpn, ppa);
        self.commit_seq += 1;
        self.fold(lpn, ppa, self.commit_seq)?;
        Ok(done)
    }

    /// Tid-tagged host write: the new version is parked in the X-L2P
    /// table, invisible to others until `commit(tid)` — as a differential
    /// if [`XFtl::write_diff`] takes it, else as a copy-on-write page.
    fn write_tagged(&mut self, tid: Tid, lpn: Lpn, buf: &[u8], wait: bool) -> Result<u64> {
        self.base.counters_mut().host_writes += 1;
        self.reserve_tx_slot(tid, lpn)?;
        if self.write_diff(tid, lpn, buf)? {
            return Ok(0);
        }
        let (ppa, done) = self.base.write_cow(lpn, tid, buf, wait, &mut self.table)?;
        self.record_tx_write(tid, lpn, ppa);
        self.table.cache_mut().insert(ppa, buf);
        Ok(done)
    }

    /// Snapshot-aware trim: the dropped mapping's copy — with the page's
    /// live differential — is retained while any snapshot might still
    /// read it.
    fn trim_plain(&mut self, lpn: Lpn) -> Result<()> {
        // A transaction's differential over the page loses its base:
        // written whole first.
        while let Some(tid) = (self.base.l2p_peek(lpn))
            .and_then(|base| self.table.pending_diffs_on(lpn, base).first().copied())
        {
            self.materialize(tid, lpn)?;
        }
        self.commit_seq += 1;
        let old_seq = self.table.l2p_seq_of(lpn);
        self.table.note_l2p_version(lpn, self.commit_seq);
        let live = self.table.take_live(lpn).map(|l| l.diff);
        if self.snapshot_sees(old_seq) {
            if let Some(old) = self.base.trim_lpn_retain(lpn)? {
                self.table.retain_version(lpn, old_seq, Some(old), live);
                self.base.stats_mut().versions_retained += 1;
            }
        } else if let Some(old) = self.base.trim_lpn_retain(lpn)? {
            self.drop_version(old);
        }
        // As after an overwrite: a committed entry left behind would be
        // re-persisted and fold the trimmed page back at recovery, after
        // GC may have reclaimed it.
        self.table.supersede_committed(lpn, u64::MAX);
        Ok(())
    }

    /// The entry of the newest staged commit of `lpn` among those stamped
    /// at or below `seq` — the version a reader at that point sees, not
    /// yet folded into the L2P. The entry is consulted at read time, so
    /// GC relocations of the staged page are chased for free.
    fn staged_entry(&self, lpn: Lpn, seq: u64) -> Option<&Entry> {
        self.staged
            .iter()
            .rev()
            .filter(|&&(_, s)| s <= seq)
            .find_map(|&(tid, s)| self.table.lookup(tid, lpn).filter(|e| e.seq == s))
    }

    /// Sequence of the newest committed version of `lpn`: the newest
    /// staged commit's ordinal, else the sequence of the version the L2P
    /// maps.
    fn newest_seq(&self, lpn: Lpn) -> u64 {
        self.staged_entry(lpn, u64::MAX)
            .map_or_else(|| self.table.l2p_seq_of(lpn), |e| e.seq)
    }

    /// True if a staged commit wrote `lpn`: plain traffic to it must order
    /// after the group's fold, or the fold would later clobber it.
    fn is_staged(&self, lpn: Lpn) -> bool {
        self.staged_entry(lpn, u64::MAX).is_some()
    }

    /// Reads the version at `ppa`, with `diff` applied if it is a
    /// differential over that base.
    fn read_version(&mut self, ppa: Ppa, diff: Option<&Diff>, buf: &mut [u8]) -> Result<()> {
        self.base.read_at(ppa, buf)?;
        if let Some(diff) = diff {
            diff.apply(buf);
        }
        Ok(())
    }

    /// The version of `lpn` the L2P holds: its page, with the page's live
    /// differential applied.
    fn read_folded(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.base.read_committed(lpn, buf)?;
        if let Some(live) = self.table.live(lpn) {
            live.diff.apply(buf);
        }
        Ok(())
    }

    /// The newest staged commit of `lpn` stamped at or below `seq`, as
    /// its page and differential.
    fn staged_version(&self, lpn: Lpn, seq: u64) -> Option<(Ppa, Option<Arc<Diff>>)> {
        self.staged_entry(lpn, seq).map(|e| (e.ppa, e.diff.clone()))
    }

    /// Serves a snapshot transaction's read of a page it did not write:
    /// the version visible at its begin snapshot, wherever that version
    /// lives — a staged commit, the L2P table, or the retained chain.
    fn read_snapshot(&mut self, tid: Tid, snap: u64, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        let t_start = self.base.clock().now();
        if let Some((ppa, diff)) = self.staged_version(lpn, snap) {
            self.read_version(ppa, diff.as_deref(), buf)?;
        } else if self.table.l2p_seq_of(lpn) <= snap {
            self.read_folded(lpn, buf)?;
        } else {
            let retained = (self.table.version_at(lpn, snap))
                .map(|(chain_len, v)| (chain_len, v.ppa, v.diff.clone()));
            match retained {
                Some((chain_len, at, diff)) => {
                    match at {
                        Some(ppa) => self.read_version(ppa, diff.as_deref(), buf)?,
                        // The page did not exist at the snapshot.
                        None => buf.fill(0),
                    }
                    let now = self.base.clock().now();
                    self.base.recorder().record_span(
                        OpClass::VersionChainLen,
                        tid,
                        chain_len as u64,
                        now,
                        now,
                    );
                }
                // Nothing retained that old (a trim of a page with no
                // copy retains nothing): the committed copy is the best
                // answer.
                None => self.read_folded(lpn, buf)?,
            }
        }
        let t_end = self.base.clock().now();
        self.base
            .recorder()
            .record_span(OpClass::SnapshotRead, tid, lpn, t_start, t_end);
        Ok(())
    }

    /// Serves a read of `lpn` from the newest staged commit's version, or
    /// else from the L2P.
    fn read_current(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        match self.staged_version(lpn, u64::MAX) {
            Some((ppa, diff)) => self.read_version(ppa, diff.as_deref(), buf),
            None => self.read_folded(lpn, buf),
        }
    }

    /// Pre-write bookkeeping shared by `write_tx` and `submit_tx`: ensure
    /// the X-L2P table can absorb an entry for `(tid, lpn)`.
    fn reserve_tx_slot(&mut self, tid: Tid, lpn: Lpn) -> Result<()> {
        // A reused transaction id rewriting a page whose entry is still
        // *Committed* would repurpose that entry — erasing the only
        // persistent record of the earlier commit's fold. Persist the L2P
        // (releasing committed entries) first, so the fold is durable
        // before the slot is reused.
        let own = self.table.lookup(tid, lpn);
        if own.is_some_and(|e| e.status == TxStatus::Committed) {
            self.checkpoint_and_release()?;
        }
        // Make room: committed entries become releasable after an L2P
        // checkpoint; a table full of *active* entries is a host error.
        if self.table.lookup(tid, lpn).is_none() && self.table.is_full() {
            if self.table.committed_len() > 0 {
                self.checkpoint_and_release()?;
            }
            if self.table.is_full() {
                return Err(DevError::XL2pFull);
            }
        }
        Ok(())
    }

    /// Post-write bookkeeping of a whole version of `lpn` at `ppa`.
    fn record_tx_write(&mut self, tid: Tid, lpn: Lpn, ppa: Ppa) {
        match self.table.upsert(tid, lpn, ppa) {
            Ok(None) => {}
            Ok(Some(superseded)) => {
                // The transaction rewrote its own page: the intermediate
                // version is garbage immediately.
                self.drop_version(superseded);
            }
            Err(Xl2pError::Full) => unreachable!("capacity checked by reserve_tx_slot"),
        }
    }

    /// Number of live X-L2P entries (for tests and stats).
    pub fn xl2p_len(&self) -> usize {
        self.table.len()
    }

    /// Read-only X-L2P table access, for the verify oracle's audits.
    pub fn xl2p(&self) -> &Xl2pTable {
        &self.table
    }

    /// Commits staged in the open commit group (submitted, visible, not
    /// yet durable) as `(tid, ordinal)`, in submission order — for audits
    /// and tests. An entry belongs to one iff it bears the ordinal.
    pub fn staged_commits(&self) -> &[(Tid, u64)] {
        &self.staged
    }

    /// Number of active snapshot transactions.
    pub fn active_snapshots(&self) -> usize {
        self.snapshots.len()
    }

    /// Current MVCC visibility clock (RAM-only; resets at recovery).
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }
}

impl BlockDevice for XFtl {
    fn page_size(&self) -> usize {
        self.base.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.base.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.base.counters_mut().host_reads += 1;
        // A staged commit's version is visible before it is durable.
        self.read_current(lpn, buf)
    }

    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
        // A plain write to a staged page must order after the staged
        // fold, or the fold would later clobber it: flush the group.
        if self.is_staged(lpn) {
            self.flush_staged_commits()?;
        }
        self.write_plain(lpn, buf, true).map(drop)
    }

    fn trim(&mut self, lpn: Lpn) -> Result<()> {
        if self.is_staged(lpn) {
            self.flush_staged_commits()?;
        }
        self.base.counters_mut().trims += 1;
        self.trim_plain(lpn)
    }

    fn flush(&mut self) -> Result<()> {
        self.base.counters_mut().flushes += 1;
        // Everything staged must be durable when flush returns.
        self.flush_staged_commits()?;
        // A flush is also a full queue barrier.
        self.base.drain();
        if self.base.has_dirty_mapping() {
            self.checkpoint_and_release()?;
        }
        self.base.gc_step(&mut self.table)
    }

    fn counters(&self) -> DevCounters {
        *self.base.counters()
    }

    fn submit(&mut self, cmds: &[IoCmd<'_>]) -> Result<CmdId> {
        // Same ordering rule as the unbatched paths: plain traffic to a
        // staged page forces the group flush first.
        if cmds.iter().any(|c| match c {
            IoCmd::Write { lpn, .. } | IoCmd::Trim { lpn } => self.is_staged(*lpn),
            IoCmd::Barrier => false,
        }) {
            self.flush_staged_commits()?;
        }
        self.base.counters_mut().batches += 1;
        let mut done = 0;
        for cmd in cmds {
            match cmd {
                IoCmd::Write { lpn, data } => {
                    done = done.max(self.write_plain(*lpn, data, false)?);
                }
                IoCmd::Trim { lpn } => {
                    self.base.counters_mut().trims += 1;
                    self.trim_plain(*lpn)?;
                }
                IoCmd::Barrier => {
                    // Ordering without draining: raise the queue's
                    // completion floor over everything issued so far and
                    // over this batch's earlier commands.
                    done = done.max(self.base.barrier());
                    let now = self.base.clock().now();
                    self.base
                        .recorder()
                        .record_span(OpClass::BarrierDispatch, 0, 0, now, now);
                }
            }
        }
        Ok(self.base.issue(done))
    }

    fn complete_until(&mut self, barrier: CmdId) -> Result<()> {
        self.base.complete_until(barrier);
        Ok(())
    }
}

impl TxBlockDevice for XFtl {
    fn begin(&mut self, tid: Tid) -> Result<()> {
        // tid 0 is plain traffic; it has no transaction to snapshot.
        if tid != 0 {
            self.snapshots.insert(tid, self.commit_seq);
        }
        Ok(())
    }

    fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.base.counters_mut().host_reads += 1;
        // §5.3: if the reader wrote this page, return its own version;
        // otherwise the version its snapshot pins (for a snapshot
        // transaction), or the newest committed copy — which may still be
        // a staged (unflushed) commit's version rather than the L2P's. A
        // reused tid's committed entry is not its own version: another
        // writer may have superseded that commit since.
        let own = (self.table.lookup(tid, lpn))
            .filter(|e| e.status == TxStatus::Active)
            .map(|e| (e.ppa, e.diff.clone()));
        if let Some((ppa, diff)) = own {
            return self.read_version(ppa, diff.as_deref(), buf);
        }
        match self.snapshots.get(&tid) {
            Some(&snap) => self.read_snapshot(tid, snap, lpn, buf),
            None => self.read_current(lpn, buf),
        }
    }

    fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()> {
        if tid == 0 {
            return self.write(lpn, buf);
        }
        self.write_tagged(tid, lpn, buf, true).map(drop)
    }

    fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
        self.base.counters_mut().commits += 1;
        let now = self.base.clock().now();
        if !self.table.has_tid(tid) {
            // Read-only (or unknown) transaction: nothing to persist —
            // the commit is durable by vacuity, so the ticket is
            // immediate. The queue-barrier duty moves to commit_wait.
            // A read-only snapshot resolves here: release it.
            self.release_snapshot(tid);
            self.base
                .recorder()
                .record_span(OpClass::TxCommit, tid, 0, now, now);
            return Ok(CommitTicket::immediate(tid));
        }
        // A writer transaction needs a durability flush (the X-L2P
        // persist) that a read-only device can no longer perform.
        // Refuse at submit time, before the commit becomes visible —
        // commits acknowledged *before* the transition stay readable.
        if self.base.device_state() == DeviceState::ReadOnly {
            return Err(DevError::ReadOnly);
        }
        if let Some(&snap) = self.snapshots.get(&tid) {
            // A snapshot tid recommitting while still staged would fold
            // both commits under one sequence; flush the open group so
            // every commit keeps its own visibility point.
            if self.staged.iter().any(|&(t, _)| t == tid) {
                self.flush_staged_commits()?;
            }
            // First-committer-wins: if any page this transaction wrote
            // gained a newer committed version after its snapshot — a
            // staged commit's, else the one the L2P maps — this (later)
            // committer loses and aborts cleanly: its versions feed GC,
            // its write intents release, and the host retries on a fresh
            // snapshot.
            let conflicted = (self.table.entries_of(tid))
                .any(|e| e.status == TxStatus::Active && self.newest_seq(e.lpn) > snap);
            if conflicted {
                for ppa in self.table.remove_active_of_tid(tid) {
                    self.drop_version(ppa);
                }
                self.release_snapshot(tid);
                // Whatever batches the loser had in flight are dead.
                self.base.retire_all();
                self.base.stats_mut().conflict_aborts += 1;
                let t_end = self.base.clock().now();
                self.base
                    .recorder()
                    .record_span(OpClass::ConflictAbort, tid, 0, now, t_end);
                return Err(DevError::Conflict);
            }
        }
        // Step 1 of Figure 4, now: flip statuses in device RAM. The new
        // versions are visible (reads route through the X-L2P entries)
        // from this instant; durability waits for the group flush.
        // Only entries that were still Active belong to *this* commit —
        // leftover Committed entries of a reused tid keep their earlier
        // commit's ordinal.
        self.settle_diffs(tid)?;
        self.commit_seq += 1;
        self.table.mark_committed(tid, self.commit_seq);
        self.staged.push((tid, self.commit_seq));
        self.release_snapshot(tid);
        self.base.recorder().record_span(
            OpClass::CommitPipelineDepth,
            tid,
            self.staged.len() as u64,
            now,
            now,
        );
        Ok(CommitTicket::new(tid, CmdId(self.next_group)))
    }

    fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
        if ticket.is_immediate() {
            // Read-only commit: still a full queue barrier, exactly as
            // the blocking command always was.
            self.base.drain();
            return Ok(());
        }
        // Groups flush in order, so the ticket's group is durable iff its
        // id is already behind the group counter; otherwise it is the
        // open group — flush it (coalescing everything staged so far).
        if ticket.group().0 >= self.next_group {
            self.flush_staged_commits()?;
        }
        // The flush waited for its table image, which completes after
        // everything issued before it; a ticket from an earlier group has
        // nothing left to wait for. The host is about to think: the
        // collector takes its turn on the chip.
        self.base.gc_step(&mut self.table)
    }

    fn abort(&mut self, tid: Tid) -> Result<()> {
        self.base.counters_mut().aborts += 1;
        let t_start = self.base.clock().now();
        // §5.3: two steps, no flash writes — drop the transaction's
        // *active* entries, invalidate their pages. Entries that already
        // committed (and the committed versions in L2P) are untouchable:
        // an abort arriving after a successful commit is a no-op.
        for ppa in self.table.remove_active_of_tid(tid) {
            self.drop_version(ppa);
        }
        // An aborting snapshot transaction releases its snapshot (and its
        // write intents, via the entry removal above).
        self.release_snapshot(tid);
        // Whatever batches the aborting host had in flight are dead; no
        // one will wait on their tickets.
        self.base.retire_all();
        let t_end = self.base.clock().now();
        self.base
            .recorder()
            .record_span(OpClass::TxAbort, tid, 0, t_start, t_end);
        Ok(())
    }

    fn submit_tx(&mut self, tid: Tid, pages: &[(Lpn, &[u8])]) -> Result<CmdId> {
        // tid 0 is plain traffic: same staged-page ordering rule as
        // `write`/`submit`, or the group's fold would clobber the batch.
        if tid == 0 && pages.iter().any(|&(lpn, _)| self.is_staged(lpn)) {
            self.flush_staged_commits()?;
        }
        self.base.counters_mut().batches += 1;
        let mut done = 0;
        for (lpn, data) in pages {
            done = done.max(if tid == 0 {
                self.write_plain(*lpn, data, false)?
            } else {
                self.write_tagged(tid, *lpn, data, false)?
            });
        }
        // No wait here: commit(tid) orders the X-L2P table write behind
        // every page of the batch, so the durability point covers them.
        Ok(self.base.issue(done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};

    fn dev() -> XFtl {
        let chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        XFtl::format_with_capacity(chip, 32, 8).unwrap()
    }

    fn page(d: &XFtl, byte: u8) -> Vec<u8> {
        vec![byte; d.page_size()]
    }

    #[test]
    fn transactional_write_is_invisible_until_commit() {
        let mut d = dev();
        let old = page(&d, 1);
        let new = page(&d, 2);
        d.write(0, &old).unwrap();
        d.write_tx(7, 0, &new).unwrap();
        let mut out = page(&d, 0);
        // Plain readers (and other transactions) see the committed copy.
        d.read(0, &mut out).unwrap();
        assert_eq!(out, old);
        d.read_tx(9, 0, &mut out).unwrap();
        assert_eq!(out, old);
        // The writer sees its own version.
        d.read_tx(7, 0, &mut out).unwrap();
        assert_eq!(out, new);
        // After commit, everyone sees the new version.
        d.commit(7).unwrap();
        d.read(0, &mut out).unwrap();
        assert_eq!(out, new);
    }

    #[test]
    fn abort_restores_committed_state() {
        let mut d = dev();
        let old = page(&d, 1);
        let new = page(&d, 2);
        d.write(0, &old).unwrap();
        d.write_tx(7, 0, &new).unwrap();
        d.abort(7).unwrap();
        let mut out = page(&d, 0);
        d.read(0, &mut out).unwrap();
        assert_eq!(out, old);
        d.read_tx(7, 0, &mut out).unwrap();
        assert_eq!(out, old, "aborted writer sees committed state again");
        assert_eq!(d.xl2p_len(), 0);
    }

    #[test]
    fn abort_writes_nothing_to_flash() {
        let mut d = dev();
        let a = page(&d, 1);
        d.write_tx(3, 0, &a).unwrap();
        let before = d.base().flash_stats().programs;
        d.abort(3).unwrap();
        assert_eq!(d.base().flash_stats().programs, before, "abort is RAM-only");
    }

    #[test]
    fn commit_is_one_table_program() {
        // Roomy table so the committed-release housekeeping threshold
        // (capacity / 2) does not fire inside the measured commit.
        let chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 32, 24).unwrap();
        let a = page(&d, 1);
        let batch: Vec<(Lpn, &[u8])> = (0..5u64).map(|lpn| (lpn, &a[..])).collect();
        d.submit_tx(3, &batch).unwrap();
        let before = (
            d.base().flash_stats().programs,
            d.base().stats().meta_writes,
        );
        // One chip, one unit: the queued data pages complete one by one.
        let data_done = d.base().chip().idle_at();
        assert!(
            data_done > d.base().clock().now(),
            "the batch is still in flight"
        );
        d.commit(3).unwrap();
        assert_eq!(
            d.base().flash_stats().programs - before.0,
            1,
            "1 X-L2P page"
        );
        assert_eq!(d.base().stats().meta_writes - before.1, 0, "and no root");
        // The table page's cell program is ordered behind the last data
        // page and awaited; its transfer hid under that page's tPROG, and
        // nothing else — no collection step on this roomy device — stands
        // between the data and the acknowledgement.
        let t_prog = d.base().chip().config().timings.program_ns;
        assert_eq!(d.base().clock().now(), data_done + t_prog);
        assert_eq!(d.base().stats().gc_background_steps, 0);
    }

    #[test]
    fn commit_then_crash_is_durable() {
        let mut d = dev();
        let a = page(&d, 0xA1);
        let b = page(&d, 0xB2);
        d.write_tx(5, 3, &a).unwrap();
        d.write_tx(5, 4, &b).unwrap();
        d.commit(5).unwrap();
        // Power loss with no flush after commit.
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        let mut out = page(&d2, 0);
        d2.read(3, &mut out).unwrap();
        assert_eq!(out, a);
        d2.read(4, &mut out).unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn plain_overwrite_survives_a_later_commit_and_crash() {
        // A committed entry for lpn 15 lingers in the X-L2P table after
        // commit(1); the plain overwrite must supersede it, or commit(3)
        // would re-persist the stale entry at a newer table sequence and
        // recovery would fold 22 back over 13.
        let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 24, 64).unwrap();
        let old = page(&d, 22);
        let new = page(&d, 13);
        let other = page(&d, 5);
        d.write_tx(1, 15, &old).unwrap();
        d.commit(1).unwrap();
        d.write(15, &new).unwrap();
        d.write_tx(3, 0, &other).unwrap();
        d.commit(3).unwrap();
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        let mut out = page(&d2, 0);
        d2.read(15, &mut out).unwrap();
        assert_eq!(
            out, new,
            "stale committed entry resurrected the old version"
        );
        d2.read(0, &mut out).unwrap();
        assert_eq!(out, other);
    }

    #[test]
    fn overlapping_staged_commits_survive_a_crash_in_order() {
        // Two split-phase commits of the same page in one group: the
        // persisted table holds both committed entries for lpn 7, ordered
        // by commit ordinal, so recovery folds the later one last.
        let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 24, 64).unwrap();
        let first = page(&d, 0x11);
        let second = page(&d, 0x22);
        d.write_tx(1, 7, &first).unwrap();
        let t1 = d.commit_submit(1).unwrap();
        d.write_tx(2, 7, &second).unwrap();
        let t2 = d.commit_submit(2).unwrap();
        d.commit_wait(t2).unwrap();
        d.commit_wait(t1).unwrap();
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        let mut out = page(&d2, 0);
        d2.read(7, &mut out).unwrap();
        assert_eq!(out, second, "later committer's version must win recovery");
    }

    #[test]
    fn uncommitted_tx_rolls_back_on_crash() {
        let mut d = dev();
        let old = page(&d, 1);
        let new = page(&d, 2);
        d.write(0, &old).unwrap();
        d.flush().unwrap();
        d.write_tx(9, 0, &new).unwrap();
        d.write_tx(9, 1, &new).unwrap();
        // Crash before commit: the transaction evaporates.
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        let mut out = page(&d2, 0);
        d2.read(0, &mut out).unwrap();
        assert_eq!(out, old);
        d2.read(1, &mut out).unwrap();
        assert!(
            out.iter().all(|&x| x == 0),
            "never-committed page reads as zeros"
        );
    }

    #[test]
    fn crash_mid_commit_keeps_old_state() {
        let mut d = dev();
        let old = page(&d, 1);
        let new = page(&d, 2);
        d.write(0, &old).unwrap();
        d.write(1, &old).unwrap();
        d.flush().unwrap();
        d.write_tx(9, 0, &new).unwrap();
        d.write_tx(9, 1, &new).unwrap();
        // Tear the X-L2P table write itself: the commit never became
        // durable, so recovery must roll back.
        d.base_mut().chip_mut().arm_power_fuse(1);
        assert!(d.commit(9).is_err());
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        let mut out = page(&d2, 0);
        d2.read(0, &mut out).unwrap();
        assert_eq!(out, old);
        d2.read(1, &mut out).unwrap();
        assert_eq!(out, old);
    }

    #[test]
    fn table_page_landed_commits_table_page_torn_rolls_back() {
        // The table page is the whole commit: the power dying in it
        // (fuse 1) rolls the transaction back, the power dying in the
        // very next program (fuse 2, a plain write) finds it committed.
        for (fuse, survives) in [(1, false), (2, true)] {
            let mut d = dev();
            let old = page(&d, 1);
            let new = page(&d, 2);
            d.write(0, &old).unwrap();
            d.flush().unwrap();
            d.write_tx(9, 0, &new).unwrap();
            d.base_mut().chip_mut().arm_power_fuse(fuse);
            assert_eq!(d.commit(9).is_ok(), survives);
            assert!(!survives || d.write(5, &new).is_err());
            let mut d2 = XFtl::recover(d.into_chip()).unwrap();
            let mut out = page(&d2, 0);
            d2.read(0, &mut out).unwrap();
            let expect = if survives { &new } else { &old };
            assert!(out == *expect, "fuse {fuse}: commit survives = {survives}");
        }
    }

    #[test]
    fn repeated_writes_by_same_tx_reuse_entry() {
        let mut d = dev();
        let a = page(&d, 1);
        let b = page(&d, 2);
        d.write_tx(4, 0, &a).unwrap();
        d.write_tx(4, 0, &b).unwrap();
        assert_eq!(d.xl2p_len(), 1, "same (tid, lpn) shares one entry");
        let mut out = page(&d, 0);
        d.read_tx(4, 0, &mut out).unwrap();
        assert_eq!(out, b);
        d.commit(4).unwrap();
        d.read(0, &mut out).unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn xl2p_full_of_active_transactions_errors() {
        let mut d = dev(); // capacity 8
        let a = page(&d, 1);
        for tid in 1..=8u64 {
            d.write_tx(tid, tid - 1, &a).unwrap();
        }
        assert_eq!(d.write_tx(9, 20, &a), Err(DevError::XL2pFull));
        // Committing one frees a slot.
        d.commit(1).unwrap();
        assert!(d.write_tx(9, 20, &a).is_ok());
    }

    #[test]
    fn xl2p_full_recovers_via_abort() {
        // The table-full abort path: when every slot belongs to an active
        // transaction, aborting one must free its slots immediately (no
        // checkpoint needed) and leave the committed image untouched.
        let mut d = dev(); // capacity 8
        let a = page(&d, 1);
        for tid in 1..=8u64 {
            d.write_tx(tid, tid - 1, &a).unwrap();
        }
        assert_eq!(d.write_tx(9, 20, &a), Err(DevError::XL2pFull));
        d.abort(3).unwrap();
        assert_eq!(d.xl2p_len(), 7, "abort released exactly tid 3's slot");
        d.write_tx(9, 20, &a).unwrap();
        // The failed write left no trace: tid 9 owns only lpn 20.
        let mut out = page(&d, 0);
        d.read_tx(9, 2, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "aborted tid 3's page is gone");
        d.commit(9).unwrap();
        d.read(20, &mut out).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn committed_entries_released_by_barrier() {
        let mut d = dev();
        let a = page(&d, 1);
        d.write_tx(1, 0, &a).unwrap();
        d.commit(1).unwrap();
        assert_eq!(d.xl2p_len(), 1, "committed entry parked until checkpoint");
        d.flush().unwrap();
        assert_eq!(d.xl2p_len(), 0, "checkpoint releases committed entries");
    }

    #[test]
    fn two_transactions_are_isolated() {
        let mut d = dev();
        let base_v = page(&d, 0x10);
        let v1 = page(&d, 0x11);
        let v2 = page(&d, 0x22);
        d.write(5, &base_v).unwrap();
        d.write_tx(1, 5, &v1).unwrap();
        // A different page for tx 2 (SQLite is single-writer per file; the
        // device itself does not arbitrate write-write conflicts).
        d.write_tx(2, 6, &v2).unwrap();
        let mut out = page(&d, 0);
        d.read_tx(1, 5, &mut out).unwrap();
        assert_eq!(out, v1);
        d.read_tx(2, 5, &mut out).unwrap();
        assert_eq!(out, base_v);
        d.read_tx(1, 6, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
        d.read_tx(2, 6, &mut out).unwrap();
        assert_eq!(out, v2);
        d.commit(1).unwrap();
        d.abort(2).unwrap();
        d.read(5, &mut out).unwrap();
        assert_eq!(out, v1);
        d.read(6, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn committed_data_survives_gc_and_crash() {
        let mut d = dev();
        // Commit a transaction, then churn plain writes to force GC to
        // relocate the committed pages before any checkpoint.
        let keep = page(&d, 0x77);
        d.write_tx(1, 30, &keep).unwrap();
        d.write_tx(1, 31, &keep).unwrap();
        d.commit(1).unwrap();
        let junk = page(&d, 0x01);
        for i in 0..300u64 {
            d.write(i % 6, &junk).unwrap();
        }
        assert!(d.base().stats().gc_runs > 0);
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        let mut out = page(&d2, 0);
        d2.read(30, &mut out).unwrap();
        assert_eq!(out, keep);
        d2.read(31, &mut out).unwrap();
        assert_eq!(out, keep);
    }

    #[test]
    fn active_tx_pages_survive_gc() {
        let mut d = dev();
        let old = page(&d, 0x0F);
        let new = page(&d, 0xF0);
        d.write(30, &old).unwrap();
        d.write_tx(1, 30, &new).unwrap();
        // Churn to force GC while the transaction is still active: both the
        // old committed version and the new pinned version must survive.
        let junk = page(&d, 2);
        for i in 0..300u64 {
            d.write(i % 6, &junk).unwrap();
        }
        assert!(d.base().stats().gc_runs > 0);
        let mut out = page(&d, 0);
        d.read(30, &mut out).unwrap();
        assert_eq!(out, old);
        d.read_tx(1, 30, &mut out).unwrap();
        assert_eq!(out, new);
        d.commit(1).unwrap();
        d.read(30, &mut out).unwrap();
        assert_eq!(out, new);
    }

    #[test]
    fn plain_writes_survive_checkpoints_under_gc_pressure() {
        // The `PageMappedFtl` regression of the same name in xftl-ftl,
        // through X-FTL's plain `write`: skewed overwrites with a flush
        // every 16 on a device small enough that GC runs during most
        // checkpoints, then a power cut.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const LOGICAL: u64 = 384;
        let cfg = xftl_flash::FlashConfigBuilder::tiny().blocks(64).build();
        let mut d = XFtl::format(FlashChip::new(cfg, SimClock::new()), LOGICAL).unwrap();
        let ps = d.page_size();
        let image = |lpn: u64, version: u32| {
            let mut page = vec![(lpn % 251) as u8; ps];
            page[..4].copy_from_slice(&version.to_le_bytes());
            page
        };
        let mut version = vec![0u32; LOGICAL as usize];
        for lpn in 0..LOGICAL {
            d.write(lpn, &image(lpn, 0)).unwrap();
        }
        d.flush().unwrap();
        let mut rng = StdRng::seed_from_u64(2); // loses mappings if GC runs inside a slab write
        for i in 1..=6000u32 {
            let lpn = if rng.gen_bool(0.8) {
                rng.gen_range(0..LOGICAL / 5)
            } else {
                rng.gen_range(0..LOGICAL)
            };
            version[lpn as usize] = i;
            d.write(lpn, &image(lpn, i)).unwrap();
            if i % 16 == 0 {
                d.flush().unwrap();
            }
        }
        d.flush().unwrap();
        let mut chip = d.into_chip();
        chip.power_cycle();
        let mut d = XFtl::recover(chip).unwrap();
        let mut out = vec![0u8; ps];
        for lpn in 0..LOGICAL {
            d.read(lpn, &mut out).unwrap();
            assert!(
                out == image(lpn, version[lpn as usize]),
                "lpn {lpn} lost its last write"
            );
        }
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut d = dev();
        let a = page(&d, 5);
        d.write_tx(1, 2, &a).unwrap();
        d.commit(1).unwrap();
        let d2 = XFtl::recover(d.into_chip()).unwrap();
        let mut d3 = XFtl::recover(d2.into_chip()).unwrap();
        let mut out = page(&d3, 0);
        d3.read(2, &mut out).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn commit_of_unknown_tid_is_noop() {
        let mut d = dev();
        assert!(d.commit(42).is_ok());
        assert!(d.abort(42).is_ok());
    }

    #[test]
    fn group_commit_coalesces_concurrent_submits_into_one_table_program() {
        let chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 32, 24).unwrap();
        let a = page(&d, 0xA1);
        let b = page(&d, 0xB2);
        d.write_tx(1, 0, &a).unwrap();
        d.write_tx(2, 1, &b).unwrap();
        let before = d.base().flash_stats().programs;
        let roots = d.base().stats().meta_writes;
        let t1 = d.commit_submit(1).unwrap();
        let t2 = d.commit_submit(2).unwrap();
        assert_eq!(
            d.base().flash_stats().programs,
            before,
            "commit_submit stages without programming"
        );
        assert_eq!(d.staged_commits(), &[(1, 1), (2, 2)]);
        // Redeeming the later ticket flushes the whole group.
        d.commit_wait(t2).unwrap();
        let cost = d.base().flash_stats().programs - before;
        assert_eq!(cost, 1, "two commits share 1 X-L2P page");
        // The earlier ticket's group already flushed: free.
        d.commit_wait(t1).unwrap();
        assert_eq!(d.base().flash_stats().programs - before, 1);
        assert_eq!(d.base().stats().xl2p_writes, 1);
        assert_eq!(d.base().stats().meta_writes, roots, "and no root");
        assert_eq!(d.base().stats().group_commit_flushes, 1);
        assert_eq!(d.base().stats().commits_coalesced, 2);
        let mut out = page(&d, 0);
        d.read(0, &mut out).unwrap();
        assert_eq!(out, a);
        d.read(1, &mut out).unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn staged_commit_is_visible_before_its_group_flushes() {
        let mut d = dev();
        let old = page(&d, 1);
        let new = page(&d, 2);
        d.write(0, &old).unwrap();
        d.write_tx(7, 0, &new).unwrap();
        let ticket = d.commit_submit(7).unwrap();
        let before = d.base().flash_stats().programs;
        let mut out = page(&d, 0);
        // Plain readers and other transactions see the staged version...
        d.read(0, &mut out).unwrap();
        assert_eq!(out, new);
        d.read_tx(9, 0, &mut out).unwrap();
        assert_eq!(out, new);
        // ...without the read forcing the flush.
        assert_eq!(
            d.base().flash_stats().programs,
            before,
            "reads program nothing"
        );
        assert_eq!(d.staged_commits(), &[(7, 2)], "after the plain write's 1");
        d.commit_wait(ticket).unwrap();
        assert!(d.staged_commits().is_empty());
    }

    #[test]
    fn crash_between_submit_and_wait_loses_the_whole_transaction() {
        let mut d = dev();
        let old = page(&d, 1);
        let new = page(&d, 2);
        d.write(0, &old).unwrap();
        d.write(1, &old).unwrap();
        d.flush().unwrap();
        d.write_tx(9, 0, &new).unwrap();
        d.write_tx(9, 1, &new).unwrap();
        let ticket = d.commit_submit(9).unwrap();
        assert!(!ticket.is_immediate());
        // Power fails before commit_wait: the unacknowledged commit must
        // vanish whole — all-or-nothing, never half.
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        let mut out = page(&d2, 0);
        d2.read(0, &mut out).unwrap();
        assert_eq!(out, old);
        d2.read(1, &mut out).unwrap();
        assert_eq!(out, old);
    }

    #[test]
    fn plain_write_to_staged_page_flushes_the_group_first() {
        let mut d = dev();
        let v1 = page(&d, 1);
        let v2 = page(&d, 2);
        let v3 = page(&d, 3);
        d.write(0, &v1).unwrap();
        d.write_tx(4, 0, &v2).unwrap();
        let ticket = d.commit_submit(4).unwrap();
        // The plain write must order after the staged fold.
        d.write(0, &v3).unwrap();
        assert_eq!(
            d.base().stats().group_commit_flushes,
            1,
            "conflict forced flush"
        );
        let mut out = page(&d, 0);
        d.read(0, &mut out).unwrap();
        assert_eq!(out, v3, "later plain write wins over the staged commit");
        d.commit_wait(ticket).unwrap();
        d.read(0, &mut out).unwrap();
        assert_eq!(out, v3);
        // And the order survives a crash.
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        d2.read(0, &mut out).unwrap();
        assert_eq!(out, v3);
    }

    #[test]
    fn pipelined_commits_beat_blocking_commits() {
        // tx N+1's data writes overlap tx N's in-flight commit: the
        // split-phase pipeline must finish the same work in less
        // simulated time than the blocking loop.
        let run = |pipelined: bool| -> u64 {
            let cfg = xftl_flash::FlashConfigBuilder::tiny().channels(4).build();
            let chip = FlashChip::new(cfg, SimClock::new());
            let mut d = XFtl::format_with_capacity(chip, 64, 64).unwrap();
            let clock = d.base().clock();
            let data = vec![0x5Au8; d.page_size()];
            let t0 = clock.now();
            let mut tickets = Vec::new();
            for tid in 1..=8u64 {
                let batch: Vec<(Lpn, &[u8])> =
                    (0..4u64).map(|i| (tid * 4 + i, &data[..])).collect();
                d.submit_tx(tid, &batch).unwrap();
                if pipelined {
                    tickets.push(d.commit_submit(tid).unwrap());
                } else {
                    d.commit(tid).unwrap();
                }
            }
            for t in tickets {
                d.commit_wait(t).unwrap();
            }
            clock.now() - t0
        };
        let blocking = run(false);
        let pipelined = run(true);
        assert!(
            pipelined < blocking,
            "pipelined commits ({pipelined} ns) must beat blocking ({blocking} ns)"
        );
    }

    #[test]
    fn batched_tx_writes_overlap_across_channels() {
        let cfg = xftl_flash::FlashConfigBuilder::tiny().channels(4).build();
        let chip = FlashChip::new(cfg, SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 32, 24).unwrap();
        let clock = d.base().clock();
        let data = vec![0x5Au8; d.page_size()];
        let t0 = clock.now();
        for lpn in 0..4u64 {
            d.write_tx(1, lpn, &data).unwrap();
        }
        d.commit(1).unwrap();
        let serial = clock.now() - t0;
        let batch: Vec<(Lpn, &[u8])> = (4..8u64).map(|lpn| (lpn, &data[..])).collect();
        let t1 = clock.now();
        d.submit_tx(2, &batch).unwrap();
        d.commit(2).unwrap();
        let batched = clock.now() - t1;
        assert!(
            batched < serial,
            "queued tx batch + commit ({batched} ns) must beat serial ({serial} ns)"
        );
        let mut out = page(&d, 0);
        for lpn in 4..8u64 {
            d.read(lpn, &mut out).unwrap();
            assert_eq!(out, data, "lpn {lpn} committed");
        }
        assert_eq!(d.counters().batches, 1);
    }

    #[test]
    fn table_page_starts_after_the_slowest_channels_data_page() {
        // Four channels, five data pages: channel 0 takes two and is the
        // slowest. The table page lands on one channel, but its cells may
        // start programming only when the data on *every* channel is on
        // the media — its bytes crossed the bus before that, under the
        // data pages' tPROG, so the transfer costs the commit nothing.
        let cfg = xftl_flash::FlashConfigBuilder::tiny().channels(4).build();
        let chip = FlashChip::new(cfg, SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 32, 24).unwrap();
        let data = vec![0x5Au8; d.page_size()];
        let batch: Vec<(Lpn, &[u8])> = (0..5u64).map(|lpn| (lpn, &data[..])).collect();
        d.submit_tx(1, &batch).unwrap();
        let slowest = d.base().chip().idle_at();
        let busy = d.base().flash_stats().busy_channel_ns;
        assert!(busy[0] > busy[1], "channel 0 carries the extra page");
        assert!(
            busy[1..4].iter().all(|&ns| ns > 0),
            "every channel has data"
        );
        d.commit(1).unwrap();
        assert_eq!(
            d.base().clock().now(),
            slowest + cfg.timings.program_ns,
            "the table page's cell program began the instant the last channel finished"
        );
    }

    #[test]
    fn batched_tx_writes_roll_back_on_crash_before_commit() {
        let mut d = dev();
        let old = page(&d, 1);
        let new = page(&d, 2);
        d.write(0, &old).unwrap();
        d.flush().unwrap();
        let batch: Vec<(Lpn, &[u8])> = vec![(0, &new[..]), (1, &new[..])];
        d.submit_tx(5, &batch).unwrap();
        // Crash with the batch dispatched but never committed.
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        let mut out = page(&d2, 0);
        d2.read(0, &mut out).unwrap();
        assert_eq!(out, old);
    }

    #[test]
    fn disjoint_snapshot_writers_both_commit() {
        let mut d = dev();
        let a = page(&d, 0xA1);
        let b = page(&d, 0xB2);
        d.begin(1).unwrap();
        d.begin(2).unwrap();
        d.write_tx(1, 0, &a).unwrap();
        d.write_tx(2, 1, &b).unwrap();
        assert_eq!(d.xl2p().writers_of(0), &[1]);
        assert_eq!(d.xl2p().writers_of(1), &[2]);
        let t1 = d.commit_submit(1).unwrap();
        let t2 = d.commit_submit(2).unwrap();
        d.commit_wait(t2).unwrap();
        d.commit_wait(t1).unwrap();
        let mut out = page(&d, 0);
        d.read(0, &mut out).unwrap();
        assert_eq!(out, a);
        d.read(1, &mut out).unwrap();
        assert_eq!(out, b);
        assert_eq!(d.base().stats().conflict_aborts, 0);
        assert_eq!(d.active_snapshots(), 0);
    }

    #[test]
    fn overlapping_snapshot_writers_first_committer_wins() {
        let mut d = dev();
        let base_v = page(&d, 0x10);
        let v1 = page(&d, 0x11);
        let v2 = page(&d, 0x22);
        d.write(5, &base_v).unwrap();
        d.begin(1).unwrap();
        d.begin(2).unwrap();
        d.write_tx(1, 5, &v1).unwrap();
        d.write_tx(2, 5, &v2).unwrap();
        assert_eq!(d.xl2p().writers_of(5), &[1, 2], "both intents registered");
        // First committer wins...
        d.commit(1).unwrap();
        // ...and the second deterministically loses, aborting cleanly.
        assert_eq!(d.commit_submit(2), Err(DevError::Conflict));
        assert_eq!(d.base().stats().conflict_aborts, 1);
        assert_eq!(d.xl2p().writers_of(5), &[] as &[Tid], "intents released");
        assert_eq!(d.active_snapshots(), 0, "loser's snapshot released");
        let mut out = page(&d, 0);
        d.read(5, &mut out).unwrap();
        assert_eq!(out, v1, "winner's version is current");
        // The loser retries on a fresh snapshot and succeeds.
        d.begin(2).unwrap();
        d.write_tx(2, 5, &v2).unwrap();
        d.commit(2).unwrap();
        d.read(5, &mut out).unwrap();
        assert_eq!(out, v2);
    }

    #[test]
    fn snapshot_reader_ignores_concurrent_commits() {
        let mut d = dev();
        let v1 = page(&d, 1);
        let v2 = page(&d, 2);
        d.write(0, &v1).unwrap();
        d.begin(9).unwrap();
        let mut out = page(&d, 0);
        d.read_tx(9, 0, &mut out).unwrap();
        assert_eq!(out, v1);
        // A concurrent writer commits a newer version: staged first...
        d.begin(2).unwrap();
        d.write_tx(2, 0, &v2).unwrap();
        let t = d.commit_submit(2).unwrap();
        d.read_tx(9, 0, &mut out).unwrap();
        assert_eq!(out, v1, "staged commit is invisible to the snapshot");
        // ...then folded into the L2P (group flush): still invisible.
        d.commit_wait(t).unwrap();
        d.read_tx(9, 0, &mut out).unwrap();
        assert_eq!(out, v1, "folded commit is served from the version chain");
        assert!(d.xl2p().retained_versions() > 0);
        // Plain readers see the newest version all along.
        d.read(0, &mut out).unwrap();
        assert_eq!(out, v2);
        // The read-only snapshot commits; its pinned version is pruned.
        d.commit(9).unwrap();
        assert_eq!(d.xl2p().retained_versions(), 0);
        assert!(d.base().stats().versions_pruned > 0);
        d.read_tx(9, 0, &mut out).unwrap();
        assert_eq!(out, v2, "after release the tid reads committed state");
    }

    #[test]
    fn snapshot_survives_plain_overwrites_and_trims() {
        let mut d = dev();
        let v1 = page(&d, 1);
        let v2 = page(&d, 2);
        d.write(3, &v1).unwrap();
        d.begin(7).unwrap();
        // Plain traffic races past the snapshot: overwrite, then trim.
        d.write(3, &v2).unwrap();
        let mut out = page(&d, 0);
        d.read_tx(7, 3, &mut out).unwrap();
        assert_eq!(out, v1, "snapshot outlives a plain overwrite");
        d.trim(3).unwrap();
        d.read_tx(7, 3, &mut out).unwrap();
        assert_eq!(out, v1, "snapshot outlives a trim");
        d.read(3, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "plain readers see the trim");
        // A page born after the snapshot reads as zeros for the snapshot.
        d.write(4, &v2).unwrap();
        d.read_tx(7, 4, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "not yet born at the snapshot");
        d.abort(7).unwrap();
        assert_eq!(d.xl2p().retained_versions(), 0);
    }

    #[test]
    fn snapshot_abort_releases_intents_and_versions() {
        let mut d = dev();
        let a = page(&d, 1);
        d.begin(4).unwrap();
        d.write_tx(4, 0, &a).unwrap();
        assert_eq!(d.xl2p().writers_of(0), &[4]);
        let before = d.base().flash_stats().programs;
        d.abort(4).unwrap();
        assert_eq!(
            d.base().flash_stats().programs,
            before,
            "abort stays RAM-only"
        );
        assert_eq!(d.xl2p().writers_of(0), &[] as &[Tid]);
        assert_eq!(d.active_snapshots(), 0);
        // The page is free for the next writer, no conflict.
        d.begin(5).unwrap();
        d.write_tx(5, 0, &a).unwrap();
        d.commit(5).unwrap();
    }

    #[test]
    fn conflict_check_scopes_to_written_pages_only() {
        // A snapshot writer conflicts only on pages *it wrote* — commits
        // to other pages do not poison it (no false positives).
        let mut d = dev();
        let a = page(&d, 1);
        let b = page(&d, 2);
        d.begin(1).unwrap();
        d.write_tx(1, 0, &a).unwrap();
        // Concurrent commits to a different page and a plain write.
        d.begin(2).unwrap();
        d.write_tx(2, 1, &b).unwrap();
        d.commit(2).unwrap();
        d.write(2, &b).unwrap();
        d.commit(1).unwrap();
        let mut out = page(&d, 0);
        d.read(0, &mut out).unwrap();
        assert_eq!(out, a);
        assert_eq!(d.base().stats().conflict_aborts, 0);
    }

    #[test]
    fn plain_overwrite_conflicts_snapshot_writer() {
        // First-committer-wins also guards against plain (tid 0) traffic
        // overwriting a page a snapshot writer has in flight.
        let mut d = dev();
        let a = page(&d, 1);
        let b = page(&d, 2);
        d.write(0, &a).unwrap();
        d.begin(1).unwrap();
        d.write_tx(1, 0, &b).unwrap();
        d.write(0, &b).unwrap(); // plain overwrite wins the race
        assert_eq!(d.commit_submit(1), Err(DevError::Conflict));
    }

    #[test]
    fn snapshots_die_at_power_loss() {
        let mut d = dev();
        let v1 = page(&d, 1);
        let v2 = page(&d, 2);
        d.write(0, &v1).unwrap();
        d.begin(9).unwrap();
        d.begin(3).unwrap();
        d.write_tx(3, 0, &v2).unwrap();
        d.commit(3).unwrap(); // retained v1 pinned for tid 9's snapshot
        assert!(d.xl2p().retained_versions() > 0);
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        assert_eq!(d2.active_snapshots(), 0);
        assert_eq!(d2.xl2p().retained_versions(), 0);
        assert_eq!(d2.commit_seq(), 0, "the visibility clock resets");
        let mut out = page(&d2, 0);
        d2.read_tx(9, 0, &mut out).unwrap();
        assert_eq!(out, v2, "post-crash reads are read-committed");
    }

    #[test]
    fn retained_versions_survive_gc_relocation() {
        let mut d = dev();
        let keep = page(&d, 0x77);
        let newer = page(&d, 0x88);
        d.write(30, &keep).unwrap();
        d.begin(9).unwrap();
        d.write(30, &newer).unwrap(); // v_keep retained for tid 9
                                      // Churn plain writes to force GC while the chain pins v_keep.
        let junk = page(&d, 0x01);
        for i in 0..300u64 {
            d.write(i % 6, &junk).unwrap();
        }
        assert!(d.base().stats().gc_runs > 0);
        let mut out = page(&d, 0);
        d.read_tx(9, 30, &mut out).unwrap();
        assert_eq!(out, keep, "GC relocation chased the retained version");
        d.read(30, &mut out).unwrap();
        assert_eq!(out, newer);
        d.abort(9).unwrap();
    }

    #[test]
    fn interleaved_plain_and_tx_writes_recover_in_order() {
        // A tid-0 write *after* a commit to the same page must win, and
        // one *before* the tx write must lose, even across a crash.
        let mut d = dev();
        let v1 = page(&d, 1);
        let v2 = page(&d, 2);
        let v3 = page(&d, 3);
        d.write(0, &v1).unwrap(); // plain
        d.write_tx(1, 0, &v2).unwrap();
        d.commit(1).unwrap(); // v2 current
        d.write(0, &v3).unwrap(); // plain, after commit: v3 current
        let mut d2 = XFtl::recover(d.into_chip()).unwrap();
        let mut out = page(&d2, 0);
        d2.read(0, &mut out).unwrap();
        assert_eq!(out, v3);
    }

    /// tid 1 commits lpn 5 whole, then tid 2 commits a differential over
    /// it: tid 1's version is superseded, but its entry stays in the
    /// table until the next checkpoint — it names the base the L2P maps —
    /// while tid 2's leaves at its fold. Returns tid 2's version, the
    /// current one.
    fn superseded_by_a_second_writer(d: &mut XFtl) -> Vec<u8> {
        let a = page(d, 0xA1);
        let b = edit(&a, 9, 3, 0xB2);
        d.write_tx(1, 5, &a).unwrap();
        d.commit(1).unwrap();
        d.write_tx(2, 5, &b).unwrap();
        d.commit(2).unwrap();
        let old = d
            .xl2p()
            .lookup(1, 5)
            .expect("tid 1's entry awaits the checkpoint");
        assert_eq!(old.status, TxStatus::Committed);
        assert_eq!(Some(old.ppa), d.base().l2p_peek(5));
        assert!(
            d.xl2p().lookup(2, 5).is_none(),
            "the image's record holds it"
        );
        assert!(d.xl2p().live(5).is_some());
        b
    }

    #[test]
    fn a_reused_tid_folds_only_the_commit_it_just_made() {
        let mut d = dev();
        let b = superseded_by_a_second_writer(&mut d);
        // A snapshot writer of lpn 5 conflicts if a commit of the page
        // lands after its snapshot: folding tid 1's entry again would.
        d.begin(9).unwrap();
        let x = page(&d, 0x99);
        d.write_tx(9, 5, &x).unwrap();
        let c = page(&d, 0xC3);
        d.write_tx(1, 6, &c).unwrap();
        d.commit(1).unwrap();
        let mut out = page(&d, 0);
        d.read(5, &mut out).unwrap();
        assert_eq!(out, b, "tid 1's superseded commit was folded again");
        d.read(6, &mut out).unwrap();
        assert_eq!(out, c);
        assert_eq!(d.commit(9), Ok(()), "tid 1's commit re-stamped lpn 5");
        // Recovery folds the image in commit order and agrees.
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 8).unwrap();
        d2.read(5, &mut out).unwrap();
        assert_eq!(out, x);
        d2.read(6, &mut out).unwrap();
        assert_eq!(out, c);
    }

    #[test]
    fn a_whole_commit_takes_the_entry_it_supersedes_out_of_the_table() {
        let mut d = dev();
        let (a, b) = (page(&d, 0xA1), page(&d, 0xB2));
        d.write_tx(1, 5, &a).unwrap();
        d.commit(1).unwrap();
        d.write_tx(2, 5, &b).unwrap();
        d.commit(2).unwrap();
        assert!(d.xl2p().lookup(1, 5).is_none(), "superseded at the fold");
        assert_eq!(d.xl2p().committed_len(), 1);
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 8).unwrap();
        assert_eq!(read(&mut d2, 5), b);
    }

    #[test]
    fn a_tid_staged_twice_in_one_group_folds_each_commit_once() {
        let mut d = dev();
        let (a, b, c) = (page(&d, 0xA1), page(&d, 0xB2), page(&d, 0xC3));
        d.write_tx(1, 5, &a).unwrap();
        let _t1 = d.commit_submit(1).unwrap();
        d.write_tx(2, 5, &b).unwrap();
        let _t2 = d.commit_submit(2).unwrap();
        d.write_tx(1, 6, &c).unwrap();
        let t3 = d.commit_submit(1).unwrap();
        assert_eq!(d.staged_commits(), &[(1, 1), (2, 2), (1, 3)]);
        let mut out = page(&d, 0);
        d.read(5, &mut out).unwrap();
        assert_eq!(out, b, "the newest staged commit of the page is visible");
        d.commit_wait(t3).unwrap();
        assert_eq!(d.base().stats().group_commit_flushes, 1);
        d.read(5, &mut out).unwrap();
        assert_eq!(out, b, "the group folded tid 1's first commit twice");
        d.read(6, &mut out).unwrap();
        assert_eq!(out, c);
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 8).unwrap();
        d2.read(5, &mut out).unwrap();
        assert_eq!(out, b);
    }

    #[test]
    fn a_reused_tid_reads_a_superseded_commit_of_its_own_as_committed_state() {
        let mut d = dev();
        let b = superseded_by_a_second_writer(&mut d);
        let c = page(&d, 0xC3);
        d.write_tx(1, 6, &c).unwrap();
        let mut out = page(&d, 0);
        d.read_tx(1, 5, &mut out).unwrap();
        assert_eq!(out, b, "a committed entry is not the tid's own version");
        d.read_tx(1, 6, &mut out).unwrap();
        assert_eq!(out, c, "an active one is");
    }

    #[test]
    fn first_committer_check_reads_staged_and_folded_versions() {
        let mut d = dev();
        let (v1, v2, v3) = (page(&d, 1), page(&d, 2), page(&d, 3));
        d.write(5, &v1).unwrap();
        // A snapshot writer, and a plain writer that stages a newer
        // version of its page before it commits.
        d.begin(1).unwrap();
        d.write_tx(1, 5, &v2).unwrap();
        d.write_tx(2, 5, &v3).unwrap();
        let t2 = d.commit_submit(2).unwrap();
        assert_eq!(d.commit_submit(1), Err(DevError::Conflict), "staged newer");
        d.commit_wait(t2).unwrap();
        // Once folded, the L2P's version is the newer one.
        d.begin(1).unwrap();
        d.write_tx(1, 7, &v2).unwrap();
        d.begin(3).unwrap();
        d.write_tx(3, 7, &v3).unwrap();
        d.commit(3).unwrap();
        assert_eq!(d.commit_submit(1), Err(DevError::Conflict), "folded newer");
        // tid 3 is reused after its commit of lpn 7; a snapshot taken
        // after both commits saw them.
        d.begin(3).unwrap();
        d.begin(1).unwrap();
        d.write_tx(1, 5, &v2).unwrap();
        d.write_tx(1, 7, &v2).unwrap();
        d.commit(1).unwrap();
        // Only pages a transaction has in flight count: tid 3's commit
        // of lpn 7, superseded after its snapshot, is past validation.
        d.write_tx(3, 8, &v3).unwrap();
        d.commit(3).unwrap();
        assert_eq!(d.base().stats().conflict_aborts, 2);
        let mut out = page(&d, 0);
        d.read(5, &mut out).unwrap();
        assert_eq!(out, v2);
        d.read(7, &mut out).unwrap();
        assert_eq!(out, v2);
    }

    // --- differentials ---------------------------------------------------

    /// A roomy device whose page 3 a transaction wrote whole — cached as
    /// a base.
    fn diff_dev() -> (XFtl, Vec<u8>) {
        let chip = FlashChip::new(FlashConfig::tiny(64), SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 64, 64).unwrap();
        let base = seed_base(&mut d);
        (d, base)
    }

    /// Commits page 3 whole, which caches it as a base, and returns it.
    fn seed_base(d: &mut XFtl) -> Vec<u8> {
        let base: Vec<u8> = (0..d.page_size()).map(|i| (i % 251) as u8).collect();
        d.write_tx(100, 3, &base).unwrap();
        d.commit(100).unwrap();
        base
    }

    /// `page` with `len` bytes at `at` set to `byte`.
    fn edit(page: &[u8], at: usize, len: usize, byte: u8) -> Vec<u8> {
        let mut page = page.to_vec();
        page[at..at + len].fill(byte);
        page
    }

    fn programs(d: &XFtl) -> u64 {
        d.base().flash_stats().programs
    }

    fn read(d: &mut XFtl, lpn: Lpn) -> Vec<u8> {
        let mut out = page(d, 0);
        d.read(lpn, &mut out).unwrap();
        out
    }

    #[test]
    fn a_small_update_commits_in_the_table_image_alone() {
        let (mut d, base) = diff_dev();
        let new = edit(&base, 100, 6, 0xEE);
        let before = programs(&d);
        d.write_tx(1, 3, &new).unwrap();
        assert_eq!(programs(&d), before, "a differential programs nothing");
        let mut out = page(&d, 0);
        d.read_tx(1, 3, &mut out).unwrap();
        assert_eq!(out, new, "the writer reads its differential");
        assert_eq!(read(&mut d, 3), base, "others read the base");
        d.commit(1).unwrap();
        assert_eq!(programs(&d), before + 1, "one table page, no data page");
        assert_eq!(read(&mut d, 3), new);
        let stats = d.base().stats();
        assert_eq!((stats.diff_writes, stats.diff_bytes), (1, 10));
        assert!(d.xl2p().live(3).is_some());
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!(
            read(&mut d2, 3),
            new,
            "recovery re-installs the differential"
        );
        assert!(d2.xl2p().live(3).is_some_and(|l| l.recovered));
    }

    #[test]
    fn a_folded_differential_leaves_no_entry_and_survives_a_crash() {
        let (mut d, base) = diff_dev();
        let new = edit(&base, 100, 6, 0xEE);
        d.write_tx(1, 3, &new).unwrap();
        d.commit(1).unwrap();
        assert!(!d.xl2p().has_tid(1), "the image's record is the evidence");
        // A later image carries the record without the entry.
        let other = page(&d, 5);
        d.write_tx(2, 10, &other).unwrap();
        d.commit(2).unwrap();
        assert!(!d.xl2p().has_tid(1));
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!((read(&mut d2, 3), read(&mut d2, 10)), (new, other));
    }

    #[test]
    fn differential_commits_checkpoint_every_256_programs() {
        // 64-page blocks: the 32-block root window is 2,048 programs, and
        // the entry guard of a 4,096-entry table never fires.
        let cfg = xftl_flash::FlashConfigBuilder::tiny()
            .pages_per_block(64)
            .blocks(64)
            .build();
        let chip = FlashChip::new(cfg, SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 64, 4096).unwrap();
        let base = seed_base(&mut d);
        let mut last = base.clone();
        for tid in 1..=1100u64 {
            last = edit(&base, (tid % 64) as usize, 4, tid as u8);
            d.write_tx(tid, 3, &last).unwrap();
            d.commit(tid).unwrap();
            assert!(d.base().programs_since_root() < CHECKPOINT_PROGRAMS);
        }
        let stats = d.base().stats();
        assert_eq!((stats.diff_writes, stats.merges_room), (1100, 0));
        assert!(stats.checkpoints >= 1100 / CHECKPOINT_PROGRAMS);
        assert_eq!(d.xl2p().len(), 0, "no entry waits for a checkpoint");
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 4096).unwrap();
        assert_eq!(read(&mut d2, 3), last);
    }

    #[test]
    fn an_update_past_the_limit_rides_the_image_and_is_merged_after_it() {
        let (mut d, base) = diff_dev();
        let new = edit(&base, 0, limit_for(d.page_size()), 1);
        let before = programs(&d);
        d.write_tx(1, 3, &new).unwrap();
        assert_eq!(programs(&d), before, "within the cap: a differential");
        let image_seq = d.base().chip().next_seq();
        d.commit(1).unwrap();
        assert_eq!(programs(&d), before + 2, "the image, then the merge");
        assert!(
            d.base().chip().idle_at() > d.base().clock().now(),
            "the commit returns at its image; the merge is still programming"
        );
        let stats = d.base().stats();
        assert_eq!((stats.merges_size_before, stats.merges_size_after), (0, 1));
        assert!(d.xl2p().live(3).is_none(), "merged");
        let (image, merged) = (d.base().xl2p_roots()[0], d.base().l2p_peek(3).unwrap());
        let mut buf = page(&d, 0);
        assert_eq!(d.base.read_at(image, &mut buf).unwrap().seq, image_seq);
        let merge_seq = d.base.read_at(merged, &mut buf).unwrap().seq;
        assert_eq!(merge_seq, image_seq + 1, "the merge is the next program");
        assert_eq!(read(&mut d, 3), new);
        let mut d = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!(read(&mut d, 3), new);
        // A page not written whole since power-on has no cached base.
        let before = programs(&d);
        d.write_tx(2, 3, &base).unwrap();
        assert_eq!(programs(&d), before + 1);
        assert_eq!(d.base().stats().image_cache_misses, 1);
    }

    #[test]
    fn past_the_cap_or_the_image_page_an_update_is_written_whole_first() {
        let (mut d, base) = diff_dev();
        let cap = cap_for(d.page_size());
        let before = programs(&d);
        d.write_tx(1, 3, &edit(&base, 0, cap, 1)).unwrap();
        assert_eq!(programs(&d), before + 1, "past the cap: written whole");
        d.commit(1).unwrap();
        let stats = d.base().stats();
        assert_eq!((stats.merges_size_before, stats.merges_size_after), (1, 0));
        assert_eq!(stats.diff_size_hist[6], 1, "refused");
        // Five more bases, then a commit of five differentials past the
        // limit, of 36 to 76 bytes: beside the table's entries their
        // records would need a second image page, and the largest is
        // written whole before the image instead.
        for lpn in 4..9 {
            d.write_tx(100, lpn, &base).unwrap();
        }
        d.commit(100).unwrap();
        let limit = limit_for(d.page_size());
        let pages: Vec<Vec<u8>> = (4..9)
            .map(|lpn| edit(&base, 8, limit + 10 * (lpn as usize - 4), lpn as u8))
            .collect();
        for (lpn, new) in (4..9).zip(&pages) {
            d.write_tx(2, lpn, new).unwrap();
        }
        let before = programs(&d);
        let image_seq = d.base().chip().next_seq() + 1;
        d.commit(2).unwrap();
        assert_eq!(d.base().xl2p_roots().len(), 1, "one image page");
        assert_eq!(
            programs(&d),
            before + 6,
            "one whole page, the image, four merges"
        );
        let stats = d.base().stats();
        assert_eq!((stats.merges_size_before, stats.merges_size_after), (2, 4));
        let mut buf = page(&d, 0);
        let image = d.base().xl2p_roots()[0];
        assert_eq!(d.base.read_at(image, &mut buf).unwrap().seq, image_seq);
        let largest = d.base().l2p_peek(8).unwrap();
        assert!(d.base.read_at(largest, &mut buf).unwrap().seq < image_seq);
        for (lpn, new) in (4..9).zip(&pages) {
            assert_eq!(&read(&mut d, lpn), new, "lpn {lpn}");
        }
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        for (lpn, new) in (4..9).zip(&pages) {
            assert_eq!(&read(&mut d2, lpn), new, "lpn {lpn}, recovered");
        }
    }

    #[test]
    fn a_zero_byte_update_programs_nothing_for_its_page() {
        let (mut d, base) = diff_dev();
        d.write_tx(1, 3, &edit(&base, 0, 2, 0)).unwrap();
        d.commit(1).unwrap();
        let before = programs(&d);
        d.write_tx(2, 3, &base).unwrap();
        d.commit(2).unwrap();
        assert_eq!(programs(&d), before + 1, "the table page only");
        assert!(d.xl2p().live(3).is_none(), "the page is its base again");
        assert_eq!(read(&mut d, 3), base);
    }

    #[test]
    fn abort_of_a_differential_frees_ram_only() {
        let (mut d, base) = diff_dev();
        d.write_tx(1, 3, &edit(&base, 7, 3, 9)).unwrap();
        let before = programs(&d);
        d.abort(1).unwrap();
        assert_eq!(programs(&d), before);
        assert_eq!(read(&mut d, 3), base);
        assert!(!d.xl2p().has_tid(1));
    }

    #[test]
    fn a_plain_overwrite_supersedes_the_differential_across_a_crash() {
        let (mut d, base) = diff_dev();
        d.write_tx(1, 3, &edit(&base, 7, 3, 9)).unwrap();
        d.commit(1).unwrap();
        let plain = page(&d, 0x42);
        d.write(3, &plain).unwrap();
        assert!(d.xl2p().live(3).is_none());
        assert_eq!(read(&mut d, 3), plain);
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!(read(&mut d2, 3), plain, "the image's differential is older");
        assert!(d2.xl2p().live(3).is_none());
    }

    #[test]
    fn a_checkpoint_keeps_the_image_live_for_its_differentials() {
        let (mut d, base) = diff_dev();
        let new = edit(&base, 40, 4, 0xAB);
        d.write_tx(1, 3, &new).unwrap();
        d.commit(1).unwrap();
        d.flush().unwrap();
        assert!(d.xl2p().is_empty(), "the checkpoint released the entries");
        assert!(!d.base().xl2p_roots().is_empty(), "but not the image");
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!(read(&mut d2, 3), new);
        // And again, from the image the closing checkpoint kept.
        let mut d3 = XFtl::recover_with_capacity(d2.into_chip(), 64).unwrap();
        assert_eq!(read(&mut d3, 3), new);
    }

    #[test]
    fn an_old_differential_stays_live_while_the_image_has_room() {
        // A 16-entry table checkpoints every ninth commit, so the image
        // stays far inside its page: no merge is due, however old.
        let chip = FlashChip::new(FlashConfig::tiny(64), SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 64, 16).unwrap();
        let base = seed_base(&mut d);
        let new = edit(&base, 40, 4, 0xAB);
        d.write_tx(1, 3, &new).unwrap();
        d.commit(1).unwrap();
        let other = page(&d, 5);
        for tid in 2..=60 {
            d.write_tx(tid, 10, &other).unwrap();
            d.commit(tid).unwrap();
            assert!(d.xl2p().live(3).is_some(), "commit {tid}");
        }
        assert_eq!(d.base().stats().merges_room, 0);
        assert_eq!(read(&mut d, 3), new);
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 16).unwrap();
        assert_eq!(read(&mut d2, 3), new);
    }

    #[test]
    fn the_oldest_bytes_are_merged_when_the_next_image_lacks_room() {
        let (mut d, base) = diff_dev();
        d.write_tx(100, 4, &base).unwrap();
        d.commit(100).unwrap();
        let (small, large) = (edit(&base, 40, 6, 0xAB), edit(&base, 90, 12, 0xCD));
        d.write_tx(1, 3, &small).unwrap();
        d.commit(1).unwrap();
        // Commits of pages written whole: each adds an entry to the
        // image, which stays until the checkpoint. The larger
        // differential comes late, so the smaller one has more bytes ×
        // commits by the time the room runs short.
        let other = page(&d, 5);
        let mut tid = 2;
        while d.base().stats().merges_room == 0 {
            if tid == 14 {
                d.write_tx(tid, 4, &large).unwrap();
            }
            assert_eq!(d.base().xl2p_roots().len(), 1, "commit {tid}: one page");
            d.write_tx(tid, 10 + tid, &other).unwrap();
            let before = programs(&d);
            d.commit(tid).unwrap();
            tid += 1;
            assert!(tid < 40, "the room never ran short");
            if d.base().stats().merges_room > 0 {
                assert_eq!(programs(&d), before + 2, "the image and the merge");
            }
        }
        assert_eq!(d.base().xl2p_roots().len(), 1, "still one page");
        assert!(d.xl2p().live(3).is_none(), "the older one merged");
        assert!(d.xl2p().live(4).is_some(), "the larger one stays");
        assert_eq!(d.base().stats().merges_room, 1);
        let image = d.base().xl2p_roots()[0];
        let merged = d.base.l2p_peek(3).unwrap();
        let mut buf = page(&d, 0);
        let image_seq = d.base.read_at(image, &mut buf).unwrap().seq;
        let merged_seq = d.base.read_at(merged, &mut buf).unwrap().seq;
        assert!(
            merged_seq > image_seq,
            "the merge is queued behind the image"
        );
        assert_eq!(
            (read(&mut d, 3), read(&mut d, 4)),
            (small.clone(), large.clone())
        );
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!((read(&mut d2, 3), read(&mut d2, 4)), (small, large));
    }

    #[test]
    fn a_moved_tail_commits_as_copies_in_the_image() {
        let (mut d, base) = diff_dev();
        // Five bytes inserted at 100: every later byte moves.
        let mut new = base.clone();
        new.splice(100..100, [0xEE; 5]);
        new.truncate(base.len());
        let before = programs(&d);
        d.write_tx(1, 3, &new).unwrap();
        d.commit(1).unwrap();
        assert_eq!(programs(&d), before + 1, "the table page only");
        let stats = d.base().stats();
        assert_eq!((stats.diff_writes, stats.diff_copies), (1, 1));
        assert_eq!(read(&mut d, 3), new);
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!(read(&mut d2, 3), new, "the copies read the base");
    }

    #[test]
    fn a_differential_survives_gc_moving_its_base() {
        let chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        let mut d = XFtl::format_with_capacity(chip, 32, 64).unwrap();
        // Victims in age order: the base's block comes round.
        d.base_mut().set_gc_policy(xftl_ftl::GcPolicy::Fifo);
        let base = seed_base(&mut d);
        let new = edit(&base, 40, 4, 0xAB);
        d.write_tx(1, 3, &new).unwrap();
        d.commit(1).unwrap();
        let was = d.base().l2p_peek(3);
        let junk = page(&d, 1);
        let mut i = 0;
        while d.base().l2p_peek(3) == was {
            d.write(8 + i % 20, &junk).unwrap();
            i += 1;
            assert!(i < 5000, "GC never moved the base");
        }
        assert_eq!(
            d.xl2p().live(3).map(|l| Some(l.base)),
            Some(d.base().l2p_peek(3))
        );
        assert_eq!(read(&mut d, 3), new);
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!(
            read(&mut d2, 3),
            new,
            "the copy keeps its origin's sequence"
        );
        assert!(d2.xl2p().live(3).is_some());
    }

    #[test]
    fn a_pending_differential_moves_onto_a_newer_whole_commit() {
        let (mut d, base) = diff_dev();
        let mine = edit(&base, 10, 2, 0x11);
        d.write_tx(1, 3, &mine).unwrap();
        // Another transaction commits the page whole under it.
        let theirs = edit(&base, 0, limit_for(d.page_size()), 0x22);
        d.write_tx(2, 3, &theirs).unwrap();
        d.commit(2).unwrap();
        let mut out = page(&d, 0);
        d.read_tx(1, 3, &mut out).unwrap();
        assert_eq!(out, mine, "the writer still reads its own version");
        d.commit(1).unwrap();
        assert_eq!(read(&mut d, 3), mine, "the last committer's page wins");
        let mut d2 = XFtl::recover_with_capacity(d.into_chip(), 64).unwrap();
        assert_eq!(read(&mut d2, 3), mine);
    }

    #[test]
    fn no_differential_is_taken_under_a_snapshot() {
        let (mut d, base) = diff_dev();
        d.begin(5).unwrap();
        let before = programs(&d);
        d.write_tx(1, 3, &edit(&base, 10, 2, 0x11)).unwrap();
        assert_eq!(programs(&d), before + 1);
        // Nor does one fold while a snapshot may need what it displaces.
        d.write_tx(2, 4, &base).unwrap();
        d.commit(2).unwrap();
        d.abort(5).unwrap();
        d.write_tx(3, 4, &edit(&base, 1, 1, 0)).unwrap();
        d.begin(6).unwrap();
        let before = programs(&d);
        d.commit(3).unwrap();
        assert_eq!(programs(&d), before + 2, "written whole at commit");
        d.commit(1).unwrap();
    }
}
