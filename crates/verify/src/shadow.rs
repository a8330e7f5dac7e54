//! The shadow-model oracle.
//!
//! [`ShadowDevice`] wraps a real device and mirrors every host command
//! into [`ShadowModel`], a trivially-correct reference: a committed page
//! image plus one uncommitted page map per transaction. The model never
//! issues device commands of its own during normal operation (so wrapped
//! runs are timing-identical to bare ones); it only *checks* the bytes the
//! host reads anyway. The single exception is
//! [`ShadowDevice::verify_recovered`], which sweeps every modeled page
//! after a crash + recovery and therefore advances the simulated clock.
//!
//! ## In-doubt worlds
//!
//! When a command *fails* (most often because a power fuse tripped
//! mid-operation) the device is allowed to land in more than one state:
//!
//! * a failed plain write or trim leaves that page holding either the old
//!   or the new value — two worlds, tracked per page;
//! * a failed `commit_submit` leaves the whole transaction either
//!   entirely applied or entirely discarded — two worlds for the *set* of
//!   pages, all-or-nothing;
//! * a failed `submit_tx` batch may have recorded any prefix of the batch
//!   in the transaction's uncommitted view — tracked per page of the
//!   batch.
//!
//! Later reads collapse the worlds: an observed value must match one of
//! the candidates (else the oracle panics), and once observed, the
//! survivor becomes the single truth. A torn commit that exposes the new
//! value for one page and the old value for another is caught exactly by
//! this narrowing: the first read commits the model to one world and the
//! second read contradicts it.
//!
//! ## In-flight (split-phase) commits
//!
//! A successful `commit_submit` makes the transaction's versions visible
//! at once — the model folds them into the committed image — but they are
//! not durable until the commit group flushes. Each submitted-unflushed
//! commit is tracked, in submission order, with the pre-submit value of
//! every page it wrote. A successful `commit_wait` (or `flush`, or plain
//! traffic to a staged page, which forces the device to flush the group
//! first) retires the records as durable; a command that *fails* leaves
//! them as they are — visible, perhaps durable — because the device may
//! flush a group on its own at any time anyway. While a page has a staged
//! writer, reads of it prove nothing about the durable worlds underneath,
//! so world-narrowing is suspended for that page.
//!
//! A power cut rolls visibility back to the pre-submit image and re-opens
//! the `n` records it caught as `n + 1` worlds: groups flush strictly in
//! submission order and a flush is all-or-nothing (one self-certifying
//! table image), so the flash holds the durable image plus some *prefix*
//! of the staged commits — never commit `k + 1` without commit `k`, never
//! half of one, whether or not they share pages. Reads after recovery
//! strike the prefix lengths they contradict; when one is left, those
//! commits are durable and the rest never happened.
//!
//! ## Snapshot transactions (MVCC)
//!
//! A transaction the host opened with [`TxBlockDevice::begin`] reads from
//! a frozen copy of the committed image taken at `begin` time, and its
//! commit is validated first-committer-wins. The model mirrors both
//! sides:
//!
//! * every change to the committed image ticks a monotone clock and
//!   stamps the changed page; `begin(tid)` records the clock, and the
//!   model keeps a full clone of the committed image (plus the then-open
//!   doubt candidates) as the tid's frozen view. Reads by the tid of
//!   pages it did not write must match the view — not the live image —
//!   which is the snapshot-isolation check.
//! * a commit the device *admits* while some written page carries a
//!   newer stamp than the snapshot is a lost update — panic. A commit the
//!   device *refuses* with `Conflict` while no written page was
//!   overwritten after the snapshot is a spurious conflict — also panic.
//!   Pages whose stamp is uncertain (failed writes, crash worlds) are
//!   excluded from both directions of the check.
//!
//! Snapshots are RAM-only on the device, so [`ShadowModel::crash`] drops
//! every view; the clock itself survives (it orders history, it is not
//! state).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use xftl_ftl::{
    BlockDevice, CmdId, CommitTicket, DevCounters, DevError, IoCmd, Lpn, Result, Tid,
    TxBlockDevice, NO_TID,
};

/// Short printable digest of a page's contents for panic diagnostics.
fn digest(data: &[u8]) -> String {
    let mut s = String::from("[");
    for b in data.iter().take(8) {
        s.push_str(&format!("{b:02x}"));
    }
    if data.len() > 8 {
        s.push('…');
    }
    s.push_str(&format!("; {} B]", data.len()));
    s
}

/// A failed `commit_submit`: the device may hold the whole transaction or
/// none of it. Pages the host overwrites afterwards drop out (their
/// outcome is no longer observable).
#[derive(Debug, Clone)]
struct DoubtTx {
    tid: Tid,
    pages: BTreeMap<Lpn, Vec<u8>>,
}

/// A commit acknowledged at `commit_submit` but not yet durable: its
/// group flush is still pending. `pages` maps each written page to
/// (pre-submit committed value, staged value); `None` = absent (zeros).
#[derive(Debug, Clone)]
struct UnflushedCommit {
    tid: Tid,
    /// Commit-group id the device's ticket carried; groups flush in
    /// order, so a successful wait on group `g` makes every record with
    /// `group <= g` durable.
    group: u64,
    pages: BTreeMap<Lpn, (Option<Vec<u8>>, Vec<u8>)>,
}

/// The committed image as a snapshot transaction saw it at `begin`:
/// the frozen page values plus the doubt candidates that were open then
/// (a read through the snapshot may surface either world).
#[derive(Debug, Clone)]
struct SnapshotView {
    pages: HashMap<Lpn, Vec<u8>>,
    doubt: HashMap<Lpn, Vec<Vec<u8>>>,
}

impl SnapshotView {
    fn matches(&self, lpn: Lpn, observed: &[u8]) -> bool {
        let base_ok = match self.pages.get(&lpn) {
            Some(v) => v == observed,
            None => observed.iter().all(|&b| b == 0),
        };
        base_ok
            || self
                .doubt
                .get(&lpn)
                .is_some_and(|cands| cands.iter().any(|c| c == observed))
    }
}

/// The trivially-correct in-memory reference model of a transactional
/// block device. See the [module docs](self) for the in-doubt machinery.
#[derive(Debug)]
pub struct ShadowModel {
    page_size: usize,
    /// Committed page image; absent pages read as zeros.
    committed: HashMap<Lpn, Vec<u8>>,
    /// Uncommitted per-transaction views (copy-on-write overlays).
    pending: HashMap<Tid, BTreeMap<Lpn, Vec<u8>>>,
    /// Pages a failed `submit_tx` may or may not have recorded for a tid.
    pending_doubt: HashMap<Tid, BTreeMap<Lpn, Vec<u8>>>,
    /// Extra candidate values for pages whose plain write/trim failed.
    doubt_pages: HashMap<Lpn, Vec<Vec<u8>>>,
    /// Pages trimmed since the last successful `flush`, with the values a
    /// crash may resurrect: a trim only edits the RAM mapping table, so
    /// until a checkpoint lands, recovery's roll-forward scan can re-find
    /// the old data page and bring the pre-trim value back.
    unsynced_trims: HashMap<Lpn, Vec<Vec<u8>>>,
    /// Failed commits awaiting all-or-nothing resolution.
    doubt_txns: Vec<DoubtTx>,
    /// Commits submitted but not yet flushed (split-phase pipeline), in
    /// submission order: visible in `committed`, not yet durable.
    unflushed: Vec<UnflushedCommit>,
    /// The pipeline a power cut caught, rolled back out of `committed`:
    /// the flash holds the first `k` of these records for one `k`.
    cut: Vec<UnflushedCommit>,
    /// The values of `k` no read since the cut has ruled out; `[0]` while
    /// `cut` is empty.
    cut_prefixes: Vec<usize>,
    /// `(kept, staged)` of the last cut, once the reads have settled it.
    last_cut: Option<(usize, usize)>,
    /// Monotone clock ticked on every committed-image change. Survives
    /// crashes (it orders history; it is not device state).
    commit_counter: u64,
    /// Clock stamp of the last committed-image change per page.
    page_seq: HashMap<Lpn, u64>,
    /// Pages whose stamp is uncertain (a failed write may or may not have
    /// landed; a crash re-opened old worlds): first-committer-wins
    /// decisions touching them are accepted either way.
    seq_doubt: HashSet<Lpn>,
    /// Active snapshot transactions: tid → clock value at `begin`.
    snapshots: HashMap<Tid, u64>,
    /// Frozen committed image per snapshot transaction.
    snapshot_views: HashMap<Tid, SnapshotView>,
    checked_reads: u64,
}

impl ShadowModel {
    /// Fresh model for a freshly formatted device (all pages read zeros).
    pub fn new(page_size: usize) -> Self {
        ShadowModel {
            page_size,
            committed: HashMap::new(),
            pending: HashMap::new(),
            pending_doubt: HashMap::new(),
            doubt_pages: HashMap::new(),
            unsynced_trims: HashMap::new(),
            doubt_txns: Vec::new(),
            unflushed: Vec::new(),
            cut: Vec::new(),
            cut_prefixes: vec![0],
            last_cut: None,
            commit_counter: 0,
            page_seq: HashMap::new(),
            seq_doubt: HashSet::new(),
            snapshots: HashMap::new(),
            snapshot_views: HashMap::new(),
            checked_reads: 0,
        }
    }

    /// Bytes per page the model was built for.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of reads the oracle has checked so far.
    pub fn checked_reads(&self) -> u64 {
        self.checked_reads
    }

    /// Number of unresolved in-doubt pages and transactions.
    pub fn doubt_count(&self) -> usize {
        self.doubt_pages.len() + self.doubt_txns.len() + self.cut.len()
    }

    /// `(kept, staged)` of the last power cut, if it caught commits
    /// in flight and the reads since have settled which survived: the
    /// first `kept` of the `staged`.
    pub fn last_cut(&self) -> Option<(usize, usize)> {
        self.last_cut
    }

    /// Models a power loss: every uncommitted transaction view dies with
    /// the device RAM. In-doubt worlds persist — they describe the flash.
    /// Trims that never reached a checkpoint become in-doubt pages: the
    /// recovery scan may resurrect the pre-trim value. Commits not known
    /// durable roll visibility back and survive as a prefix.
    pub fn crash(&mut self) {
        self.last_cut = None;
        self.spill_unflushed();
        self.pending.clear();
        self.pending_doubt.clear();
        // Snapshots live in device RAM (the commit-sequence clock resets
        // at recovery): every open view dies with the power.
        self.snapshots.clear();
        self.snapshot_views.clear();
        let trims: Vec<(Lpn, Vec<Vec<u8>>)> = self.unsynced_trims.drain().collect();
        for (lpn, cands) in trims {
            // A committed value implies a durable program newer than any
            // page the trim unmapped; resurrection is impossible there.
            if !self.committed.contains_key(&lpn) {
                self.doubt_pages.entry(lpn).or_default().extend(cands);
            }
        }
        // Whichever world a page landed in, it changed before the cut,
        // and so before any snapshot that can still commit: every
        // first-committer-wins verdict from here on is exact.
        self.seq_doubt.clear();
    }

    /// Every page the model has an opinion about (committed or in doubt).
    pub fn tracked_lpns(&self) -> BTreeSet<Lpn> {
        let mut s: BTreeSet<Lpn> = self.committed.keys().copied().collect();
        s.extend(self.doubt_pages.keys().copied());
        s.extend(self.unsynced_trims.keys().copied());
        for tx in &self.doubt_txns {
            s.extend(tx.pages.keys().copied());
        }
        for rec in self.unflushed.iter().chain(&self.cut) {
            s.extend(rec.pages.keys().copied());
        }
        s
    }

    /// Number of snapshot transactions currently open in the model.
    pub fn active_snapshots(&self) -> usize {
        self.snapshots.len()
    }

    /// The committed image changed for `lpn`: tick the clock and stamp
    /// the page. The model stamps *every* change (the device only bumps
    /// its sequence while snapshots are open) — harmless, because stamps
    /// taken before a `begin` are never newer than that snapshot.
    fn bump_page(&mut self, lpn: Lpn) {
        self.commit_counter += 1;
        self.page_seq.insert(lpn, self.commit_counter);
    }

    /// `begin(tid)` succeeded: record the clock and freeze the committed
    /// view (including the doubt candidates open right now — a snapshot
    /// read may legally surface any of those worlds).
    pub fn apply_begin(&mut self, tid: Tid) {
        let mut doubt: HashMap<Lpn, Vec<Vec<u8>>> = HashMap::new();
        for (lpn, cands) in &self.doubt_pages {
            doubt.entry(*lpn).or_default().extend(cands.iter().cloned());
        }
        for tx in &self.doubt_txns {
            for (lpn, v) in &tx.pages {
                doubt.entry(*lpn).or_default().push(v.clone());
            }
        }
        for rec in &self.cut {
            for (lpn, (_, v)) in &rec.pages {
                doubt.entry(*lpn).or_default().push(v.clone());
            }
        }
        self.snapshots.insert(tid, self.commit_counter);
        self.snapshot_views.insert(
            tid,
            SnapshotView {
                pages: self.committed.clone(),
                doubt,
            },
        );
    }

    /// Pages `tid` wrote (surely or maybe) since its snapshot began.
    fn written_lpns(&self, tid: Tid) -> Vec<Lpn> {
        let mut lpns: BTreeSet<Lpn> = self
            .pending
            .get(&tid)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        if let Some(m) = self.pending_doubt.get(&tid) {
            lpns.extend(m.keys().copied());
        }
        lpns.into_iter().collect()
    }

    /// The device admitted `tid`'s commit. For a snapshot transaction that
    /// must mean first-committer-wins validation passed: no page it wrote
    /// may carry a stamp newer than the snapshot.
    ///
    /// # Panics
    /// When a written page was overwritten after the snapshot began (and
    /// its stamp is not in doubt) — the device admitted a lost update.
    fn validate_snapshot_commit(&mut self, tid: Tid) {
        let Some(&snap) = self.snapshots.get(&tid) else {
            return;
        };
        for lpn in self.written_lpns(tid) {
            let seq = self.page_seq.get(&lpn).copied().unwrap_or(0);
            assert!(
                seq <= snap || self.seq_doubt.contains(&lpn),
                "shadow oracle: commit(tid={tid}) was admitted but lpn {lpn} changed at \
                 clock {seq}, after the snapshot began at {snap} — first-committer-wins \
                 admitted a lost update",
            );
        }
        self.snapshots.remove(&tid);
        self.snapshot_views.remove(&tid);
    }

    /// The device refused `tid`'s commit with `Conflict` and aborted it.
    /// The refusal must be legitimate: some written page really was
    /// overwritten after the snapshot began (or its stamp is in doubt).
    ///
    /// # Panics
    /// When no written page justifies the conflict — a spurious abort.
    pub fn apply_conflict(&mut self, tid: Tid) {
        if let Some(&snap) = self.snapshots.get(&tid) {
            let legitimate = self.written_lpns(tid).into_iter().any(|lpn| {
                self.page_seq.get(&lpn).copied().unwrap_or(0) > snap
                    || self.seq_doubt.contains(&lpn)
            });
            assert!(
                legitimate,
                "shadow oracle: commit(tid={tid}) was refused with Conflict but no page \
                 it wrote changed after its snapshot (clock {snap}) — spurious conflict",
            );
        }
        self.apply_abort(tid);
    }

    /// True if a staged (submitted, not known durable) commit wrote `lpn`.
    pub fn is_staged(&self, lpn: Lpn) -> bool {
        self.unflushed.iter().any(|r| r.pages.contains_key(&lpn))
    }

    /// Plain traffic reaching a staged page forces the device to flush
    /// the open commit group first (the split-phase ordering rule), so
    /// everything staged became durable before the command ran.
    fn note_plain_conflict(&mut self, lpn: Lpn) {
        if self.is_staged(lpn) {
            self.mark_unflushed_durable(u64::MAX);
        }
    }

    /// A newer durable program of `lpn` exists: the older worlds —
    /// resurrectable trims, failed-write candidates, failed-commit and
    /// power-cut outcomes — can no longer surface through it.
    fn forget_doubts(&mut self, lpn: Lpn) {
        self.unsynced_trims.remove(&lpn);
        self.doubt_pages.remove(&lpn);
        self.doubt_txns.retain_mut(|tx| {
            tx.pages.remove(&lpn);
            !tx.pages.is_empty()
        });
        for rec in &mut self.cut {
            rec.pages.remove(&lpn);
        }
    }

    /// The group flush landed for every record with `group <= group`:
    /// their staged values are durable.
    fn mark_unflushed_durable(&mut self, group: u64) {
        let (durable, keep): (Vec<_>, Vec<_>) =
            self.unflushed.drain(..).partition(|rec| rec.group <= group);
        self.unflushed = keep;
        for rec in durable {
            for lpn in rec.pages.into_keys() {
                self.forget_doubts(lpn);
            }
        }
    }

    /// Models the power cut's effect on the commits in flight: visibility
    /// rolls back to the pre-submit image and the records re-open as the
    /// prefix worlds of the module docs.
    fn spill_unflushed(&mut self) {
        if self.unflushed.is_empty() {
            return;
        }
        // Leftovers of an earlier cut no read settled would multiply with
        // this one's worlds; per-page candidates are a sound superset.
        for rec in std::mem::take(&mut self.cut) {
            for (lpn, (_, new)) in rec.pages {
                self.doubt_pages.entry(lpn).or_default().push(new);
            }
        }
        self.cut = std::mem::take(&mut self.unflushed);
        self.cut_prefixes = (0..=self.cut.len()).collect();
        // Roll visibility back in reverse submission order, landing on
        // the pre-record baseline even when records chain on one page.
        for rec in self.cut.iter().rev() {
            for (lpn, (old, _new)) in &rec.pages {
                match old {
                    Some(v) => {
                        self.committed.insert(*lpn, v.clone());
                    }
                    None => {
                        self.committed.remove(lpn);
                    }
                }
            }
        }
    }

    /// What `lpn` holds if the cut kept the first `k` staged commits: the
    /// newest of them that wrote it, `None` where none did.
    fn cut_value(&self, k: usize, lpn: Lpn) -> Option<&Vec<u8>> {
        let newest = self.cut[..k].iter().rev().find_map(|r| r.pages.get(&lpn));
        newest.map(|(_, new)| new)
    }

    /// The prefix lengths of the cut pipeline still possible under which
    /// the committed view of `lpn` reads as `observed`.
    fn fitting_prefixes(&self, lpn: Lpn, observed: &[u8]) -> Vec<usize> {
        let under = self.under_cut_matches(lpn, observed);
        let fits = |k: &usize| self.cut_value(*k, lpn).map_or(under, |v| v == observed);
        self.cut_prefixes.iter().copied().filter(fits).collect()
    }

    /// The cut kept exactly the first `kept` staged commits: they are
    /// durable, the rest never happened.
    fn settle_cut(&mut self, kept: usize) {
        let cut = std::mem::take(&mut self.cut);
        self.cut_prefixes = vec![0];
        self.last_cut = Some((kept, cut.len()));
        for rec in cut.into_iter().take(kept) {
            for (lpn, (_, new)) in rec.pages {
                self.forget_doubts(lpn);
                self.committed.insert(lpn, new);
            }
        }
    }

    fn committed_bytes(&self, lpn: Lpn) -> &[u8] {
        static ZEROS: [u8; 0] = [];
        match self.committed.get(&lpn) {
            Some(v) => v,
            // Unwritten pages read as zeros; compare against a lazily
            // produced slice by special-casing in `committed_matches`.
            None => &ZEROS,
        }
    }

    fn committed_matches(&self, lpn: Lpn, observed: &[u8]) -> bool {
        let base = self.committed_bytes(lpn);
        if base.is_empty() {
            observed.iter().all(|&b| b == 0)
        } else {
            base == observed
        }
    }

    /// True if `observed` is consistent with *some* allowed world for the
    /// committed view of `lpn`. Non-mutating.
    fn committed_view_matches(&self, lpn: Lpn, observed: &[u8]) -> bool {
        !self.fitting_prefixes(lpn, observed).is_empty()
    }

    /// True if `observed` is a value `lpn` may hold underneath the cut
    /// pipeline: base value, failed-write candidates, or a failed
    /// commit's new value.
    fn under_cut_matches(&self, lpn: Lpn, observed: &[u8]) -> bool {
        if self.committed_matches(lpn, observed) {
            return true;
        }
        if let Some(cands) = self.doubt_pages.get(&lpn) {
            if cands.iter().any(|c| c == observed) {
                return true;
            }
        }
        self.doubt_txns
            .iter()
            .any(|tx| tx.pages.get(&lpn).is_some_and(|v| v == observed))
    }

    /// Checks one observed read and narrows in-doubt worlds accordingly.
    /// `reader` is `Some(tid)` for `read_tx`, `None` for a plain read.
    ///
    /// # Panics
    /// When the observed bytes match no allowed world.
    pub fn check_read(&mut self, reader: Option<Tid>, lpn: Lpn, observed: &[u8]) {
        self.checked_reads += 1;
        if let Some(tid) = reader.filter(|&t| t != NO_TID) {
            let sure = self.pending.get(&tid).and_then(|m| m.get(&lpn)).cloned();
            let doubt = self
                .pending_doubt
                .get(&tid)
                .and_then(|m| m.get(&lpn))
                .cloned();
            match (sure, doubt) {
                // Read-your-own-writes: a transaction must see its own
                // uncommitted version, exactly.
                (Some(v), None) => {
                    assert!(
                        v == observed,
                        "shadow oracle: read_tx(tid={tid}, lpn={lpn}) returned {} but the \
                         transaction's own uncommitted write was {} — read-your-own-writes \
                         violated",
                        digest(observed),
                        digest(&v),
                    );
                    return;
                }
                // A failed submit_tx left this page maybe-recorded for
                // `tid`: the batch value, the earlier sure value, or (when
                // nothing was surely pending) the committed view are the
                // allowed worlds.
                (sure_opt, Some(dv)) => {
                    let sure_ok = sure_opt.as_ref().is_some_and(|v| v == observed);
                    let doubt_ok = dv == observed;
                    let committed_ok =
                        sure_opt.is_none() && self.committed_view_matches(lpn, observed);
                    // A snapshot transaction that falls past its own
                    // writes reads its frozen view, not the live image.
                    let view_ok = sure_opt.is_none()
                        && self
                            .snapshot_views
                            .get(&tid)
                            .is_some_and(|v| v.matches(lpn, observed));
                    assert!(
                        sure_ok || doubt_ok || committed_ok || view_ok,
                        "shadow oracle: read_tx(tid={tid}, lpn={lpn}) returned {} but no \
                         allowed world holds it (failed batch value {}, prior pending \
                         value {})",
                        digest(observed),
                        digest(&dv),
                        sure_opt.as_ref().map_or_else(String::new, |v| digest(v)),
                    );
                    if doubt_ok && !sure_ok && !committed_ok && !view_ok {
                        // The batch page did land: promote it to a real
                        // uncommitted write.
                        self.pending.entry(tid).or_default().insert(lpn, dv);
                        self.drop_pending_doubt(tid, lpn);
                    } else if !doubt_ok {
                        self.drop_pending_doubt(tid, lpn);
                        if committed_ok && !view_ok {
                            self.resolve_committed(lpn, observed);
                        }
                    }
                    return;
                }
                // No uncommitted version for this tid: falls through to
                // the committed view — which is also the isolation check,
                // because other transactions' pending writes are never
                // allowed values.
                (None, None) => {}
            }
            // A snapshot transaction reads its frozen view, not the live
            // committed image: later commits must stay invisible.
            if let Some(view) = self.snapshot_views.get(&tid) {
                assert!(
                    view.matches(lpn, observed),
                    "shadow oracle: read_tx(tid={tid}, lpn={lpn}) returned {} but the \
                     snapshot's frozen view holds {} — snapshot isolation violated",
                    digest(observed),
                    view.pages
                        .get(&lpn)
                        .map_or_else(|| String::from("[zeros]"), |v| digest(v)),
                );
                return;
            }
        }
        let ok = self.committed_view_matches(lpn, observed);
        let who = match reader {
            Some(t) => format!("read_tx(tid={t}, lpn={lpn})"),
            None => format!("read(lpn={lpn})"),
        };
        let doubt_tids: Vec<Tid> = self
            .doubt_txns
            .iter()
            .filter(|tx| tx.pages.contains_key(&lpn))
            .map(|tx| tx.tid)
            .collect();
        let cut_tids: Vec<Tid> = self.cut.iter().map(|rec| rec.tid).collect();
        assert!(
            ok,
            "shadow oracle: {who} returned {}, expected committed value {} \
             ({} failed-write candidate(s), in-doubt commit(s) of tids {doubt_tids:?} \
             on this page, prefixes {:?} of the commits of tids {cut_tids:?} a power cut \
             caught staged) — isolation or durability violated",
            digest(observed),
            digest(self.committed_bytes(lpn)),
            self.doubt_pages.get(&lpn).map_or(0, Vec::len),
            self.cut_prefixes,
        );
        self.resolve_committed(lpn, observed);
    }

    fn drop_pending_doubt(&mut self, tid: Tid, lpn: Lpn) {
        if let Some(m) = self.pending_doubt.get_mut(&tid) {
            m.remove(&lpn);
            if m.is_empty() {
                self.pending_doubt.remove(&tid);
            }
        }
    }

    /// Collapses in-doubt worlds for `lpn` after observing its committed
    /// value. A failed commit whose new value was observed (and differs
    /// from the old) is thereby *proven committed*: all of its pages merge
    /// into the committed image, so a later read seeing another of its
    /// pages still holding the old value panics — that is the torn-commit
    /// (all-or-nothing) check.
    fn resolve_committed(&mut self, lpn: Lpn, observed: &[u8]) {
        // A staged (unflushed-commit) page reads from the copy-on-write
        // version, not the durable image: the observation proves nothing
        // about the worlds a crash could expose, so don't narrow them.
        if self.is_staged(lpn) {
            return;
        }
        // Strike the prefixes of a cut pipeline this read contradicts; the
        // page underneath was observed only if none of the rest covers it.
        let fits = self.fitting_prefixes(lpn, observed);
        match fits[..] {
            [kept] if !self.cut.is_empty() => self.settle_cut(kept),
            _ => self.cut_prefixes = fits,
        }
        let covers = |k: &usize| self.cut_value(*k, lpn).is_some();
        if self.cut_prefixes.iter().any(covers) {
            return;
        }
        let any_doubt = self.doubt_pages.contains_key(&lpn)
            || self.doubt_txns.iter().any(|tx| tx.pages.contains_key(&lpn));
        if !any_doubt {
            return;
        }
        let base_matches = self.committed_matches(lpn, observed);
        let mut i = 0;
        while i < self.doubt_txns.len() {
            let Some(v) = self.doubt_txns[i].pages.get(&lpn) else {
                i += 1;
                continue;
            };
            let new_matches = v == observed;
            if new_matches && !base_matches {
                // Outcome proven: the commit made it to flash.
                let tx = self.doubt_txns.remove(i);
                for (l, val) in tx.pages {
                    self.committed.insert(l, val);
                }
            } else if base_matches && !new_matches {
                // Outcome proven: the commit never became durable.
                self.doubt_txns.remove(i);
            } else if !base_matches && !new_matches {
                // Some other world explains this page; this transaction's
                // outcome is no longer observable through it.
                self.doubt_txns[i].pages.remove(&lpn);
                if self.doubt_txns[i].pages.is_empty() {
                    self.doubt_txns.remove(i);
                } else {
                    i += 1;
                }
            } else {
                // Old and new value coincide here: no information.
                i += 1;
            }
        }
        self.committed.insert(lpn, observed.to_vec());
        self.doubt_pages.remove(&lpn);
    }

    /// A plain write (or committed page of a successful commit) landed.
    fn apply_write(&mut self, lpn: Lpn, data: &[u8]) {
        self.committed.insert(lpn, data.to_vec());
        self.bump_page(lpn);
        // A sure write pins the page's change-clock again.
        self.seq_doubt.remove(&lpn);
        // The fresh program carries the newest sequence number: the
        // roll-forward scan can never resurrect a pre-trim page here, and
        // any in-doubt outcome for this page is now unobservable.
        self.forget_doubts(lpn);
    }

    fn apply_trim(&mut self, lpn: Lpn) {
        // Everything a crash could resurrect: the pre-trim committed
        // value, any failed-write candidates still on flash, and values
        // recorded by earlier trims of the same page.
        let mut resurrectable = self.unsynced_trims.remove(&lpn).unwrap_or_default();
        if let Some(old) = self.committed.get(&lpn) {
            if !old.is_empty() {
                resurrectable.push(old.clone());
            }
        }
        if let Some(cands) = self.doubt_pages.get(&lpn) {
            resurrectable.extend(cands.iter().cloned());
        }
        let cut = self.cut.iter().filter_map(|rec| rec.pages.get(&lpn));
        resurrectable.extend(cut.map(|(_, new)| new.clone()));
        self.apply_write(lpn, &[]);
        self.committed.remove(&lpn); // absent = zeros
        if !resurrectable.is_empty() {
            self.unsynced_trims.insert(lpn, resurrectable);
        }
    }

    /// A successful flush checkpoints the mapping table: every trim issued
    /// so far is durable and can no longer resurrect.
    fn apply_flush(&mut self) {
        self.unsynced_trims.clear();
    }

    /// A plain write/trim failed: the page holds either the old or the
    /// attempted value. An empty candidate models "trimmed to zeros". On
    /// a staged page the attempt, if it landed, landed *over* the group
    /// the device flushed to make room for it, so the page leaves the
    /// pipeline: whatever a record would have exposed there is one more
    /// candidate, and no prefix is judged by it.
    fn doubt_write(&mut self, lpn: Lpn, data: &[u8]) {
        let zeros = || vec![0; self.page_size];
        let attempt = if data.is_empty() {
            zeros()
        } else {
            data.to_vec()
        };
        let mut cands = vec![attempt];
        for rec in &mut self.unflushed {
            if let Some((old, new)) = rec.pages.remove(&lpn) {
                cands.extend([old.unwrap_or_else(zeros), new]);
            }
        }
        self.doubt_pages.entry(lpn).or_default().extend(cands);
        // The change may or may not have landed: the stamp is uncertain.
        self.seq_doubt.insert(lpn);
    }

    fn apply_tx_write(&mut self, tid: Tid, lpn: Lpn, data: &[u8]) {
        self.pending
            .entry(tid)
            .or_default()
            .insert(lpn, data.to_vec());
        self.drop_pending_doubt(tid, lpn);
    }

    fn apply_commit(&mut self, tid: Tid) {
        self.validate_snapshot_commit(tid);
        if let Some(pages) = self.pending.remove(&tid) {
            for (lpn, data) in pages {
                self.apply_write(lpn, &data);
            }
        }
        // Maybe-recorded batch pages become per-page committed doubts:
        // each was either part of the committed transaction or never
        // existed.
        if let Some(pages) = self.pending_doubt.remove(&tid) {
            for (lpn, data) in pages {
                self.doubt_write(lpn, &data);
            }
        }
    }

    /// A `commit_submit` succeeded: the transaction's versions become
    /// visible now; durability waits for the group flush. Only the
    /// committed image moves — older worlds (trim resurrections,
    /// failed-write candidates) stay open until the group proves durable,
    /// because a crash before the flush would re-expose them.
    fn apply_commit_submit(&mut self, tid: Tid, group: u64) {
        self.validate_snapshot_commit(tid);
        let pages = self.pending.remove(&tid).unwrap_or_default();
        let mut rec: BTreeMap<Lpn, (Option<Vec<u8>>, Vec<u8>)> = BTreeMap::new();
        for (lpn, data) in pages {
            let old = self.committed.get(&lpn).cloned();
            self.committed.insert(lpn, data.clone());
            self.bump_page(lpn);
            rec.insert(lpn, (old, data));
        }
        if !rec.is_empty() {
            self.unflushed.push(UnflushedCommit {
                tid,
                group,
                pages: rec,
            });
        }
        // Maybe-recorded batch pages: same worlds as in `apply_commit`.
        if let Some(pages) = self.pending_doubt.remove(&tid) {
            for (lpn, data) in pages {
                self.doubt_write(lpn, &data);
            }
        }
    }

    fn doubt_commit(&mut self, tid: Tid) {
        let mut pages = self.pending.remove(&tid).unwrap_or_default();
        if let Some(doubt) = self.pending_doubt.remove(&tid) {
            // A maybe-recorded page that the failed commit maybe
            // published: fold it into per-page doubt (superset of the
            // reachable worlds, never excludes the real one).
            for (lpn, data) in doubt {
                self.doubt_write(lpn, &data);
            }
        }
        pages.retain(|_, v| !v.is_empty());
        if !pages.is_empty() {
            self.doubt_txns.push(DoubtTx { tid, pages });
        }
    }

    fn apply_abort(&mut self, tid: Tid) {
        self.pending.remove(&tid);
        self.pending_doubt.remove(&tid);
        self.snapshots.remove(&tid);
        self.snapshot_views.remove(&tid);
    }

    fn doubt_submit_tx(&mut self, tid: Tid, pages: &[(Lpn, &[u8])]) {
        let m = self.pending_doubt.entry(tid).or_default();
        for (lpn, data) in pages {
            // Only pages not already surely-pending are in doubt; a
            // re-write of a surely-pending page keeps the old sure value
            // as one world and the new value as the other — approximate
            // by moving it to doubt with the *new* value and leaving the
            // old value reachable via the committed view only if it was
            // committed. To stay sound (never reject a reachable state)
            // we union both: keep the sure entry AND record the doubt.
            m.insert(*lpn, data.to_vec());
        }
    }
}

/// A verifying wrapper around a real block device.
///
/// Forwards every command to the wrapped device, then mirrors the outcome
/// into a [`ShadowModel`] and asserts that everything the host reads is a
/// value the specification allows. Construction assumes a freshly
/// formatted device (all pages read as zeros).
///
/// To take the stack through a power cycle, use [`ShadowDevice::into_parts`]
/// to recover the inner device, then [`ShadowDevice::resume`] with the
/// surviving model, then [`ShadowDevice::verify_recovered`] to sweep the
/// committed image for durability.
#[derive(Debug)]
pub struct ShadowDevice<D> {
    inner: D,
    model: ShadowModel,
}

impl<D: BlockDevice> ShadowDevice<D> {
    /// Wraps a freshly formatted device.
    pub fn new(inner: D) -> Self {
        let model = ShadowModel::new(inner.page_size());
        ShadowDevice { inner, model }
    }

    /// Re-wraps a device after crash recovery with the model that
    /// witnessed the pre-crash history. Uncommitted transactions are
    /// discarded from the model (recovery implicitly aborts them).
    pub fn resume(inner: D, mut model: ShadowModel) -> Self {
        assert!(
            model.page_size() == inner.page_size(),
            "shadow oracle: resumed device page size {} != model page size {}",
            inner.page_size(),
            model.page_size(),
        );
        model.crash();
        ShadowDevice { inner, model }
    }

    /// Splits the wrapper, e.g. to power-cycle and recover the device.
    pub fn into_parts(self) -> (D, ShadowModel) {
        (self.inner, self.model)
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device — the escape hatch tests use
    /// to arm power fuses. Commands issued directly on the inner device
    /// bypass the model; only use it for failure injection and probes.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// The reference model (for assertions on oracle state in tests).
    pub fn model(&self) -> &ShadowModel {
        &self.model
    }

    /// Reads back every page the model tracks and checks each against the
    /// committed image — the durability sweep after crash + recovery.
    /// Returns the number of pages checked. Advances the simulated clock
    /// (these are real device reads).
    ///
    /// # Panics
    /// When any page fails to read or holds a value outside the model's
    /// allowed worlds.
    pub fn verify_recovered(&mut self) -> usize {
        let lpns: Vec<Lpn> = self.model.tracked_lpns().into_iter().collect();
        let mut buf = vec![0u8; self.model.page_size()];
        for &lpn in &lpns {
            match self.inner.read(lpn, &mut buf) {
                Ok(()) => self.model.check_read(None, lpn, &buf),
                Err(e) => panic!(
                    "shadow oracle: read(lpn={lpn}) failed during post-recovery \
                     durability sweep: {e:?}"
                ),
            }
        }
        lpns.len()
    }
}

impl<D: BlockDevice> BlockDevice for ShadowDevice<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.inner.read(lpn, buf)?;
        self.model.check_read(None, lpn, buf);
        Ok(())
    }

    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
        match self.inner.write(lpn, buf) {
            Ok(()) => {
                self.model.note_plain_conflict(lpn);
                self.model.apply_write(lpn, buf);
                Ok(())
            }
            Err(e) => {
                self.model.doubt_write(lpn, buf);
                Err(e)
            }
        }
    }

    fn trim(&mut self, lpn: Lpn) -> Result<()> {
        match self.inner.trim(lpn) {
            Ok(()) => {
                self.model.note_plain_conflict(lpn);
                self.model.apply_trim(lpn);
                Ok(())
            }
            Err(e) => {
                self.model.doubt_write(lpn, &[]);
                Err(e)
            }
        }
    }

    fn flush(&mut self) -> Result<()> {
        // Durability of plain writes is modeled eagerly: the log-structured
        // FTLs roll forward all committed data pages at recovery whether or
        // not a flush intervened, so the committed image is unchanged here.
        // Trims are the exception — only the checkpoint a flush forces
        // makes them durable. A flush also drives the open commit group
        // to durability.
        self.inner.flush()?;
        self.model.mark_unflushed_durable(u64::MAX);
        self.model.apply_flush();
        Ok(())
    }

    fn counters(&self) -> DevCounters {
        self.inner.counters()
    }

    fn submit(&mut self, cmds: &[IoCmd<'_>]) -> Result<CmdId> {
        match self.inner.submit(cmds) {
            Ok(id) => {
                for cmd in cmds {
                    match cmd {
                        IoCmd::Write { lpn, data } => {
                            self.model.note_plain_conflict(*lpn);
                            self.model.apply_write(*lpn, data);
                        }
                        IoCmd::Trim { lpn } => {
                            self.model.note_plain_conflict(*lpn);
                            self.model.apply_trim(*lpn);
                        }
                        // An ordering fence: no data moves, nothing to
                        // mirror.
                        IoCmd::Barrier => {}
                    }
                }
                Ok(id)
            }
            Err(e) => {
                // Any prefix of the batch may have been serviced.
                for cmd in cmds {
                    match cmd {
                        IoCmd::Write { lpn, data } => self.model.doubt_write(*lpn, data),
                        IoCmd::Trim { lpn } => self.model.doubt_write(*lpn, &[]),
                        IoCmd::Barrier => {}
                    }
                }
                Err(e)
            }
        }
    }

    fn complete_until(&mut self, barrier: CmdId) -> Result<()> {
        self.inner.complete_until(barrier)
    }
}

impl<D: TxBlockDevice> TxBlockDevice for ShadowDevice<D> {
    fn begin(&mut self, tid: Tid) -> Result<()> {
        self.inner.begin(tid)?;
        self.model.apply_begin(tid);
        Ok(())
    }

    fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.inner.read_tx(tid, lpn, buf)?;
        self.model.check_read(Some(tid), lpn, buf);
        Ok(())
    }

    fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()> {
        match self.inner.write_tx(tid, lpn, buf) {
            Ok(()) => {
                if tid == NO_TID {
                    // tid 0 is non-transactional traffic by contract.
                    self.model.note_plain_conflict(lpn);
                    self.model.apply_write(lpn, buf);
                } else {
                    self.model.apply_tx_write(tid, lpn, buf);
                }
                Ok(())
            }
            Err(e) => {
                if tid == NO_TID {
                    self.model.doubt_write(lpn, buf);
                }
                // For tid != 0 a failed write_tx records nothing in the
                // transaction's view (or the device is dead and the view
                // dies at recovery): the model stays unchanged.
                Err(e)
            }
        }
    }

    fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
        match self.inner.commit_submit(tid) {
            Ok(ticket) => {
                if ticket.is_immediate() {
                    // The device completed the commit synchronously (a
                    // read-only transaction, or a personality with no
                    // pipeline): it is durable now.
                    self.model.apply_commit(tid);
                } else {
                    self.model.apply_commit_submit(tid, ticket.group().0);
                }
                Ok(ticket)
            }
            // First-committer-wins refusal: the device aborted the
            // transaction cleanly — verify the refusal was earned, then
            // mirror the rollback.
            Err(DevError::Conflict) => {
                self.model.apply_conflict(tid);
                Err(DevError::Conflict)
            }
            // End-of-life refusal: the guard fires before the commit
            // gains any visibility, so nothing is in doubt — the
            // transaction stays active with its uncommitted view intact
            // (the caller may still abort it).
            Err(DevError::ReadOnly) => Err(DevError::ReadOnly),
            Err(e) => {
                self.model.doubt_commit(tid);
                Err(e)
            }
        }
    }

    fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
        let (group, immediate) = (ticket.group().0, ticket.is_immediate());
        // If the group flush dies, what it was to cover stays as it was —
        // visible and perhaps durable — for the power cut to settle.
        self.inner.commit_wait(ticket)?;
        if !immediate {
            self.model.mark_unflushed_durable(group);
        }
        Ok(())
    }

    fn abort(&mut self, tid: Tid) -> Result<()> {
        match self.inner.abort(tid) {
            Ok(()) => {
                self.model.apply_abort(tid);
                Ok(())
            }
            // A failed abort means the device died mid-command; the
            // transaction's view is gone either way, but resolution waits
            // for the post-recovery `resume`, which discards it.
            Err(e) => Err(e),
        }
    }

    fn submit_tx(&mut self, tid: Tid, pages: &[(Lpn, &[u8])]) -> Result<CmdId> {
        match self.inner.submit_tx(tid, pages) {
            Ok(id) => {
                for (lpn, data) in pages {
                    if tid == NO_TID {
                        self.model.note_plain_conflict(*lpn);
                        self.model.apply_write(*lpn, data);
                    } else {
                        self.model.apply_tx_write(tid, *lpn, data);
                    }
                }
                Ok(id)
            }
            Err(e) => {
                if tid == NO_TID {
                    for (lpn, data) in pages {
                        self.model.doubt_write(*lpn, data);
                    }
                } else {
                    // Any prefix may have been recorded in the tid's view.
                    self.model.doubt_submit_tx(tid, pages);
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_core::XFtl;
    use xftl_flash::{FlashChip, FlashConfig, SimClock};
    use xftl_ftl::Personality;

    fn fresh(blocks: usize, logical: u64) -> ShadowDevice<XFtl> {
        let clock = SimClock::new();
        let chip = FlashChip::new(FlashConfig::tiny(blocks), clock);
        ShadowDevice::new(XFtl::format(chip, logical).unwrap())
    }

    fn page(dev: &ShadowDevice<XFtl>, fill: u8) -> Vec<u8> {
        vec![fill; dev.page_size()]
    }

    #[test]
    fn clean_transaction_history_passes() {
        let mut dev = fresh(24, 48);
        let old = page(&dev, 1);
        let new = page(&dev, 2);
        let mut buf = page(&dev, 0);

        dev.write(5, &old).unwrap();
        dev.write_tx(7, 5, &new).unwrap();

        // Read-your-own-writes for tid 7; isolation for everyone else.
        dev.read_tx(7, 5, &mut buf).unwrap();
        assert_eq!(buf, new);
        dev.read(5, &mut buf).unwrap();
        assert_eq!(buf, old);
        dev.read_tx(9, 5, &mut buf).unwrap();
        assert_eq!(buf, old);

        dev.commit(7).unwrap();
        dev.read(5, &mut buf).unwrap();
        assert_eq!(buf, new);

        // Abort path: tid 9 writes and discards.
        dev.write_tx(9, 6, &old).unwrap();
        dev.abort(9).unwrap();
        dev.read(6, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert!(dev.model().checked_reads() >= 5);
    }

    #[test]
    fn batched_submit_tx_is_mirrored() {
        let mut dev = fresh(24, 48);
        let a = page(&dev, 3);
        let b = page(&dev, 4);
        let batch: Vec<(Lpn, &[u8])> = vec![(10, &a[..]), (11, &b[..])];
        let id = dev.submit_tx(6, &batch).unwrap();
        dev.commit(6).unwrap(); // commit is a queue barrier
        let _ = id;
        let mut buf = page(&dev, 0);
        dev.read(10, &mut buf).unwrap();
        assert_eq!(buf, a);
        dev.read(11, &mut buf).unwrap();
        assert_eq!(buf, b);
    }

    #[test]
    fn committed_image_survives_power_cycle() {
        let mut dev = fresh(24, 48);
        let keep = page(&dev, 5);
        let lose = page(&dev, 6);
        dev.write(1, &keep).unwrap();
        dev.write_tx(3, 2, &lose).unwrap();
        dev.commit(3).unwrap();
        dev.write_tx(4, 8, &lose).unwrap(); // stays uncommitted

        let (ftl, model) = dev.into_parts();
        let mut chip = ftl.into_chip();
        chip.power_cycle();
        let mut dev = ShadowDevice::resume(XFtl::recover(chip).unwrap(), model);
        let checked = dev.verify_recovered();
        assert!(checked >= 2);

        let mut buf = page(&dev, 0);
        dev.read(8, &mut buf).unwrap(); // uncommitted tx rolled back
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn unsynced_trim_may_resurrect_across_crash() {
        let mut dev = fresh(24, 48);
        let old = page(&dev, 9);
        dev.write(2, &old).unwrap();
        dev.flush().unwrap();
        // Trim without a flush: the mapping edit lives only in FTL RAM,
        // so the crash may legally bring `old` back (roll-forward re-finds
        // the data page) or keep the page trimmed.
        dev.trim(2).unwrap();
        let mut buf = page(&dev, 0);
        dev.read(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "trimmed page reads zeros");

        let (ftl, model) = dev.into_parts();
        let mut chip = ftl.into_chip();
        chip.power_cycle();
        let mut dev = ShadowDevice::resume(XFtl::recover(chip).unwrap(), model);
        // Whichever world the device picked, the sweep must accept it.
        dev.verify_recovered();

        // A flushed trim, by contrast, must stay trimmed.
        dev.trim(2).unwrap();
        dev.flush().unwrap();
        let (ftl, model) = dev.into_parts();
        let mut chip = ftl.into_chip();
        chip.power_cycle();
        let mut dev = ShadowDevice::resume(XFtl::recover(chip).unwrap(), model);
        dev.verify_recovered();
        dev.read(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "flushed trim is durable");
    }

    #[test]
    fn torn_commit_resolves_to_one_world() {
        let mut dev = fresh(24, 48);
        let old = page(&dev, 7);
        let new = page(&dev, 8);
        dev.write(0, &old).unwrap();
        dev.write(1, &old).unwrap();
        dev.write_tx(5, 0, &new).unwrap();
        dev.write_tx(5, 1, &new).unwrap();

        // Tear the commit on its first flash program.
        dev.inner_mut().base_mut().chip_mut().arm_power_fuse(1);
        assert!(dev.commit(5).is_err());

        let (ftl, model) = dev.into_parts();
        let mut chip = ftl.into_chip();
        chip.power_cycle();
        let mut dev = ShadowDevice::resume(XFtl::recover(chip).unwrap(), model);
        assert_eq!(dev.model().doubt_count(), 1);
        dev.verify_recovered();
        // Whichever world survived, both pages must agree (all-or-nothing):
        // verify_recovered read both pages, so the doubt is fully resolved.
        assert_eq!(dev.model().doubt_count(), 0);
        let mut a = page(&dev, 0);
        let mut b = page(&dev, 0);
        dev.read(0, &mut a).unwrap();
        dev.read(1, &mut b).unwrap();
        assert_eq!(a, b);
    }

    /// A deliberately broken X-FTL: every command forwarded but the one
    /// its bug breaks.
    struct Broken(XFtl, Bug);

    #[derive(PartialEq)]
    enum Bug {
        /// `abort` reports success but forgets to drop the transaction's
        /// copy-on-write pages, so a later commit of the same tid (or a
        /// read through it) exposes rolled-back data.
        Abort,
        /// `write_tx` writes in place (plain write), leaking uncommitted
        /// data to every reader.
        WriteTx,
        /// `begin` reports success but never registers the snapshot, so
        /// the transaction reads the live image and its commit skips
        /// first-committer-wins.
        Begin,
        /// `commit_submit` aborts every transaction and refuses it with
        /// `Conflict`.
        Commit,
    }

    impl BlockDevice for Broken {
        fn page_size(&self) -> usize {
            self.0.page_size()
        }
        fn capacity_pages(&self) -> u64 {
            self.0.capacity_pages()
        }
        fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
            self.0.read(lpn, buf)
        }
        fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
            self.0.write(lpn, buf)
        }
        fn trim(&mut self, lpn: Lpn) -> Result<()> {
            self.0.trim(lpn)
        }
        fn flush(&mut self) -> Result<()> {
            self.0.flush()
        }
        fn counters(&self) -> DevCounters {
            self.0.counters()
        }
    }

    impl TxBlockDevice for Broken {
        fn begin(&mut self, tid: Tid) -> Result<()> {
            if self.1 == Bug::Begin {
                return Ok(());
            }
            self.0.begin(tid)
        }
        fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
            self.0.read_tx(tid, lpn, buf)
        }
        fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()> {
            if self.1 == Bug::WriteTx {
                return self.0.write(lpn, buf);
            }
            self.0.write_tx(tid, lpn, buf)
        }
        fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
            if self.1 == Bug::Commit {
                self.0.abort(tid)?;
                return Err(DevError::Conflict);
            }
            self.0.commit_submit(tid)
        }
        fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
            self.0.commit_wait(ticket)
        }
        fn abort(&mut self, tid: Tid) -> Result<()> {
            if self.1 == Bug::Abort {
                return Ok(());
            }
            self.0.abort(tid)
        }
    }

    /// [`fresh`]'s device with `bug`, and a page each of `1`s and `2`s.
    fn broken(bug: Bug) -> (ShadowDevice<Broken>, Vec<u8>, Vec<u8>) {
        let dev = ShadowDevice::new(Broken(fresh(24, 48).into_parts().0, bug));
        let (old, new) = (vec![1u8; dev.page_size()], vec![2u8; dev.page_size()]);
        (dev, old, new)
    }

    #[test]
    #[should_panic(expected = "shadow oracle")]
    fn mutation_broken_abort_is_caught() {
        let (mut dev, old, new) = broken(Bug::Abort);
        dev.write(0, &old).unwrap();
        dev.write_tx(7, 0, &new).unwrap();
        dev.abort(7).unwrap();
        // The broken device still holds tid 7's page; committing now
        // publishes data the host rolled back. The oracle fires on the
        // next read.
        dev.commit(7).unwrap();
        let mut buf = vec![0u8; dev.page_size()];
        dev.read(0, &mut buf).unwrap();
    }

    #[test]
    #[should_panic(expected = "shadow oracle")]
    fn mutation_isolation_leak_is_caught() {
        let (mut dev, old, new) = broken(Bug::WriteTx);
        dev.write(0, &old).unwrap();
        dev.write_tx(7, 0, &new).unwrap();
        // A plain read must still see the old value; the leaky device
        // exposes tid 7's uncommitted write.
        let mut buf = vec![0u8; dev.page_size()];
        dev.read(0, &mut buf).unwrap();
    }

    /// A recovery that comes back without an acknowledged plain write:
    /// the chip recovered is the one before the write.
    #[test]
    #[should_panic(expected = "shadow oracle")]
    fn mutation_lost_plain_write_is_caught() {
        let mut dev = fresh(24, 48);
        dev.write(3, &page(&dev, 1)).unwrap();
        dev.flush().unwrap();
        let mut chip = dev.inner().base().chip().clone();
        dev.write(3, &page(&dev, 2)).unwrap();
        chip.power_cycle();
        let model = dev.into_parts().1;
        ShadowDevice::resume(XFtl::recover(chip).unwrap(), model).verify_recovered();
    }

    /// A recovery that shows bytes on a page the host never wrote. The
    /// durability sweep reads only the pages the model tracks, so this
    /// takes a read of the page itself — the crash sweeps read every page.
    #[test]
    #[should_panic(expected = "shadow oracle")]
    fn mutation_never_written_page_showing_bytes_is_caught() {
        let mut dev = fresh(24, 48);
        let data = page(&dev, 1);
        dev.write(3, &data).unwrap();
        // The seeded bug: lpn 9 written behind the model's back.
        dev.inner_mut().write(9, &data).unwrap();
        let (ftl, model) = dev.into_parts();
        let mut chip = ftl.into_chip();
        chip.power_cycle();
        let mut dev = ShadowDevice::resume(XFtl::recover(chip).unwrap(), model);
        dev.verify_recovered();
        dev.read(9, &mut page(&dev, 0)).unwrap();
    }

    /// A snapshot writer admitted over a plain overwrite of its page.
    #[test]
    #[should_panic(expected = "lost update")]
    fn mutation_admitted_lost_update_is_caught() {
        let (mut dev, old, new) = broken(Bug::Begin);
        dev.begin(1).unwrap();
        dev.write_tx(1, 0, &new).unwrap();
        dev.write(0, &old).unwrap();
        dev.commit(1).unwrap();
    }

    /// A snapshot writer refused though nothing it wrote changed.
    #[test]
    #[should_panic(expected = "spurious conflict")]
    fn mutation_refused_disjoint_writer_is_caught() {
        let (mut dev, old, new) = broken(Bug::Commit);
        dev.begin(1).unwrap();
        dev.begin(2).unwrap();
        dev.write_tx(1, 0, &old).unwrap();
        dev.write_tx(2, 1, &new).unwrap();
        assert_eq!(dev.commit(1), Err(DevError::Conflict));
    }

    #[test]
    fn snapshot_history_passes_the_oracle() {
        let mut dev = fresh(24, 48);
        let old = page(&dev, 1);
        let new = page(&dev, 2);
        let mut buf = page(&dev, 0);

        dev.write(5, &old).unwrap();
        dev.begin(1).unwrap();
        assert_eq!(dev.model().active_snapshots(), 1);

        // A later committer moves the live image; the snapshot must not
        // see it — and the oracle must accept the stale value it returns.
        dev.write_tx(2, 5, &new).unwrap();
        dev.commit(2).unwrap();
        dev.read(5, &mut buf).unwrap();
        assert_eq!(buf, new);
        dev.read_tx(1, 5, &mut buf).unwrap();
        assert_eq!(buf, old);
        // Unborn pages read zeros through the view too.
        dev.read_tx(1, 9, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));

        // Disjoint write commits cleanly; the view is released.
        dev.write_tx(1, 7, &new).unwrap();
        dev.read_tx(1, 7, &mut buf).unwrap(); // read-your-own-writes
        assert_eq!(buf, new);
        dev.commit(1).unwrap();
        assert_eq!(dev.model().active_snapshots(), 0);
    }

    #[test]
    fn legitimate_conflict_passes_the_oracle() {
        let mut dev = fresh(24, 48);
        let a = page(&dev, 3);
        let b = page(&dev, 4);
        dev.begin(1).unwrap();
        dev.begin(2).unwrap();
        dev.write_tx(1, 5, &a).unwrap();
        dev.write_tx(2, 5, &b).unwrap();
        dev.commit(1).unwrap();
        // First committer won page 5; tid 2 must lose, and the oracle
        // verifies the refusal was earned (not spurious).
        assert_eq!(dev.commit(2), Err(DevError::Conflict));
        assert_eq!(dev.model().active_snapshots(), 0);
        let mut buf = page(&dev, 0);
        dev.read(5, &mut buf).unwrap();
        assert_eq!(buf, a);
        // The loser's snapshot is fully released: a retry on a fresh
        // snapshot succeeds.
        dev.begin(2).unwrap();
        dev.write_tx(2, 5, &b).unwrap();
        dev.commit(2).unwrap();
        dev.read(5, &mut buf).unwrap();
        assert_eq!(buf, b);
    }

    #[test]
    fn snapshots_die_with_the_model_crash() {
        let mut dev = fresh(24, 48);
        let v = page(&dev, 6);
        dev.write(3, &v).unwrap();
        dev.begin(4).unwrap();
        let (ftl, model) = dev.into_parts();
        let mut chip = ftl.into_chip();
        chip.power_cycle();
        let dev = ShadowDevice::resume(XFtl::recover(chip).unwrap(), model);
        assert_eq!(dev.model().active_snapshots(), 0);
    }

    #[test]
    #[should_panic(expected = "shadow oracle")]
    fn mutation_broken_begin_is_caught() {
        let (mut dev, old, new) = broken(Bug::Begin);
        dev.write(0, &old).unwrap();
        dev.begin(1).unwrap();
        // Another transaction commits over the page; the broken device
        // never registered tid 1's snapshot, so its read leaks the new
        // value — the oracle's frozen view still holds the old one.
        dev.write_tx(2, 0, &new).unwrap();
        dev.commit(2).unwrap();
        let mut buf = vec![0u8; dev.page_size()];
        dev.read_tx(1, 0, &mut buf).unwrap();
    }

    /// A RAM-only device that is correct while the power is on — staged
    /// commits visible at once, groups flushed whole and in order — and
    /// whose power cut keeps exactly the staged pages the test picks.
    #[derive(Default)]
    struct PicksAtCut {
        durable: HashMap<Lpn, Vec<u8>>,
        staged: Vec<BTreeMap<Lpn, Vec<u8>>>,
        pending: HashMap<Tid, BTreeMap<Lpn, Vec<u8>>>,
    }

    impl PicksAtCut {
        /// The seeded bug: page `lpn` of the `i`-th staged commit
        /// survives iff `keep(i, lpn)`.
        fn power_cut(mut self, keep: impl Fn(usize, Lpn) -> bool) -> Self {
            for (i, rec) in std::mem::take(&mut self.staged).into_iter().enumerate() {
                let kept = rec.into_iter().filter(|(lpn, _)| keep(i, *lpn));
                self.durable.extend(kept);
            }
            self.pending.clear();
            self
        }
    }

    impl BlockDevice for PicksAtCut {
        fn page_size(&self) -> usize {
            16
        }
        fn capacity_pages(&self) -> u64 {
            8
        }
        fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
            let staged = self.staged.iter().rev().find_map(|rec| rec.get(&lpn));
            match staged.or_else(|| self.durable.get(&lpn)) {
                Some(v) => buf.copy_from_slice(v),
                None => buf.fill(0),
            }
            Ok(())
        }
        fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
            self.flush()?;
            self.durable.insert(lpn, buf.to_vec());
            Ok(())
        }
        fn trim(&mut self, lpn: Lpn) -> Result<()> {
            self.flush()?;
            self.durable.remove(&lpn);
            Ok(())
        }
        fn flush(&mut self) -> Result<()> {
            for rec in self.staged.drain(..) {
                self.durable.extend(rec);
            }
            Ok(())
        }
        fn counters(&self) -> DevCounters {
            DevCounters::default()
        }
    }

    impl TxBlockDevice for PicksAtCut {
        fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
            match self.pending.get(&tid).and_then(|m| m.get(&lpn)) {
                Some(v) => buf.copy_from_slice(v),
                None => self.read(lpn, buf)?,
            }
            Ok(())
        }
        fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()> {
            self.pending
                .entry(tid)
                .or_default()
                .insert(lpn, buf.to_vec());
            Ok(())
        }
        fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
            self.staged
                .push(self.pending.remove(&tid).unwrap_or_default());
            Ok(CommitTicket::new(tid, CmdId(1)))
        }
        fn commit_wait(&mut self, _ticket: CommitTicket) -> Result<()> {
            self.flush()
        }
        fn abort(&mut self, tid: Tid) -> Result<()> {
            self.pending.remove(&tid);
            Ok(())
        }
    }

    /// Stages one commit per entry of `commits` (page, fill) on a
    /// [`PicksAtCut`], cuts the power keeping what `keep` picks, and
    /// sweeps the survivor through the oracle. Returns how the oracle
    /// settled the cut.
    fn cut_and_verify(
        commits: &[&[(Lpn, u8)]],
        keep: impl Fn(usize, Lpn) -> bool,
    ) -> Option<(usize, usize)> {
        let mut dev = ShadowDevice::new(PicksAtCut::default());
        for (tid, pages) in (1..).zip(commits) {
            for (lpn, fill) in *pages {
                dev.write_tx(tid, *lpn, &[*fill; 16]).unwrap();
            }
            assert!(!dev.commit_submit(tid).unwrap().is_immediate());
        }
        let (inner, model) = dev.into_parts();
        let mut dev = ShadowDevice::resume(inner.power_cut(keep), model);
        dev.verify_recovered();
        dev.model().last_cut()
    }

    #[test]
    #[should_panic(expected = "shadow oracle")]
    fn mutation_group_surviving_without_its_predecessor_is_caught() {
        cut_and_verify(&[&[(0, 1)], &[(1, 2)]], |i, _| i == 1);
    }

    /// Both commits write page 1; the cut keeps the first whole and of
    /// the second only page 2.
    #[test]
    #[should_panic(expected = "shadow oracle")]
    fn mutation_torn_overlapping_groups_is_caught() {
        cut_and_verify(&[&[(0, 1), (1, 1)], &[(1, 2), (2, 2)]], |i, lpn| {
            i == 0 || lpn == 2
        });
    }

    /// Three staged commits are four worlds: of the eight subsets a cut
    /// could keep, the oracle accepts the prefixes and nothing else.
    #[test]
    fn power_cut_keeps_exactly_a_prefix_of_the_staged_commits() {
        let commits: [&[(Lpn, u8)]; 3] = [&[(0, 1), (1, 1)], &[(1, 2), (2, 2)], &[(3, 3)]];
        for subset in 0u32..8 {
            let kept = [0b000, 0b001, 0b011, 0b111]
                .iter()
                .position(|&p| p == subset);
            let run = || cut_and_verify(&commits, |i, _| subset >> i & 1 == 1);
            let settled = std::panic::catch_unwind(run).ok();
            assert_eq!(settled, kept.map(|k| Some((k, 3))), "subset {subset:#05b}");
        }
    }
}
