//! Baseline: TxFlash's Simple Cyclic Commit (Prabhakaran, Rodeheffer,
//! Zhou — OSDI 2008; the paper's citation \[20\]).
//!
//! SCC eliminates the separate commit record: every page of a transaction
//! carries, in its out-of-band area, its position within the transaction,
//! and the *last* page carries a cycle-closing marker with the total
//! count. A transaction is committed iff its cycle is complete on flash —
//! zero extra pages per commit.
//!
//! To let the closing marker ride on a data page under our streaming
//! `write_tx` interface, the device write-behind-buffers the most recent
//! page of each transaction in controller RAM and programs it on the next
//! write (plain link) or at `commit` (closing link). Power loss drops the
//! buffer, which is exactly SCC's abort semantics: an unclosed cycle never
//! commits.
//!
//! Like the atomic-write FTL — and unlike X-FTL — TxFlash supports
//! atomicity only for the pages the host groups explicitly, and its
//! cycles must be written contiguously per transaction id; it cannot keep
//! an old committed version readable for *other* transactions while a
//! writer is in flight on the same page (the §3.3 contrast). Our
//! implementation does pin the old version until commit, as SCC's
//! versioned pages do.

use std::collections::HashMap;

use xftl_flash::{FlashChip, Oob, PageKind, Ppa};
use xftl_trace::OpClass;

use crate::base::{FtlBase, GcHook, Personality, RecoveryLog};
use crate::dev::{BlockDevice, CommitTicket, DevCounters, Lpn, Tid, TxBlockDevice};
use crate::error::{DevError, Result};

/// Cycle-closing flag in the auxiliary OOB word; the low 31 bits hold the
/// page's 1-based position (or, on the closing page, the total count).
const CLOSE: u32 = 1 << 31;

/// GC hook: chases relocated in-flight transaction pages.
#[derive(Debug, Default)]
struct SccHook {
    programmed: HashMap<Tid, Vec<(Lpn, Ppa)>>,
    /// Program sequence when the device last went from no open cycle on
    /// flash to one: no page of any open cycle is older.
    floor: u64,
}

impl GcHook for SccHook {
    fn relocated(&mut self, oob: &Oob, old: Ppa, new: Ppa) {
        if oob.kind != PageKind::Data || oob.tid == 0 {
            return;
        }
        if let Some(pages) = self.programmed.get_mut(&oob.tid) {
            for (lpn, ppa) in pages.iter_mut() {
                if *ppa == old && *lpn == oob.lpn {
                    *ppa = new;
                }
            }
        }
    }

    fn tx_floor(&self) -> Option<u64> {
        (self.programmed.is_empty().then_some(u64::MAX)).or(Some(self.floor))
    }
}

/// The Simple-Cyclic-Commit FTL.
#[derive(Debug)]
pub struct TxFlashFtl {
    base: FtlBase,
    pending: HashMap<Tid, Option<(Lpn, Vec<u8>)>>,
    hook: SccHook,
}

/// Transactions whose cycle is complete (positions `1..=n` present plus
/// a closing page of count `n`) are rolled forward; incomplete cycles
/// vanish.
impl Personality for TxFlashFtl {
    fn assemble(base: FtlBase) -> Self {
        TxFlashFtl {
            base,
            pending: HashMap::new(),
            hook: SccHook::default(),
        }
    }

    fn recover_from_scan(&mut self, log: &RecoveryLog) -> Result<()> {
        self.base
            .finish_recovery(log, Self::closed_cycle_folds(log))
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

impl TxFlashFtl {
    /// The folds the complete cycles in `log` commit, each at its
    /// closing page's sequence.
    fn closed_cycle_folds(log: &RecoveryLog) -> Vec<(u64, Lpn, Ppa)> {
        // Group each tid's pages into *runs*: a run ends at a cycle-closing
        // page, so a reused transaction id yields separate runs, each
        // judged on its own. GC may duplicate positions (relocated copies
        // keep their link word), so coverage is set-based. A committed
        // run's pages become current at the instant the cycle closed —
        // exactly like X-FTL's table-write seq — so folds are merged with
        // plain roll-forward events at the *close* sequence. Runs that
        // closed before the checkpoint are already covered by the
        // checkpointed L2P and are skipped.
        type Run = Vec<(u64, Lpn, Ppa, u32)>; // (seq, lpn, ppa, pos)
        let mut open: HashMap<Tid, Run> = HashMap::new();
        let mut folds = Vec::new();
        for e in &log.events {
            match e.kind {
                PageKind::Data if e.tid == 0 => {
                    // Plain write: the engine's own roll-forward.
                }
                PageKind::Data if e.seq <= log.tx_horizon => {
                    // A dead transaction from an earlier life: its cycle
                    // can never complete (the write buffer died with it).
                }
                PageKind::Data => {
                    let run = open.entry(e.tid).or_default();
                    run.push((e.seq, e.lpn, e.ppa, e.aux & !CLOSE));
                    if e.aux & CLOSE != 0 {
                        let n = e.aux & !CLOSE;
                        let run = open.remove(&e.tid).unwrap_or_default();
                        let close_seq = e.seq;
                        let mut seen = vec![false; n as usize + 1];
                        for &(_, _, _, p) in &run {
                            if (p as usize) < seen.len() {
                                seen[p as usize] = true;
                            }
                        }
                        let complete = seen.iter().skip(1).all(|&s| s);
                        if complete && close_seq > log.ckpt_seq {
                            // Latest version per lpn within the run.
                            let mut newest: HashMap<Lpn, (u64, Ppa)> = HashMap::new();
                            for (seq, lpn, ppa, _) in run {
                                let slot = newest.entry(lpn).or_insert((seq, ppa));
                                if seq > slot.0 {
                                    *slot = (seq, ppa);
                                }
                            }
                            for (lpn, (_, ppa)) in newest {
                                folds.push((close_seq, lpn, ppa));
                            }
                        }
                    }
                }
                PageKind::Map | PageKind::Meta | PageKind::XL2p | PageKind::Commit => {}
            }
        }
        folds
    }

    /// Programs the buffered page of `tid` with the given link word.
    fn flush_pending(&mut self, tid: Tid, close: bool) -> Result<()> {
        let Some(slot) = self.pending.get_mut(&tid) else {
            return Ok(());
        };
        let Some((lpn, data)) = slot.take() else {
            return Ok(());
        };
        if self.hook.programmed.is_empty() {
            self.hook.floor = self.base.chip().next_seq();
        }
        let position = self.hook.programmed.get(&tid).map_or(0, Vec::len) as u32 + 1;
        let aux = if close { CLOSE | position } else { position };
        let oob = Oob {
            tid,
            aux,
            ..Oob::data(lpn)
        };
        let (ppa, _) = self.base.program_raw(oob, &data, 0, true, &mut self.hook)?;
        self.hook
            .programmed
            .entry(tid)
            .or_default()
            .push((lpn, ppa));
        Ok(())
    }

    /// Where the programmed pages of every open cycle are, for the
    /// verify oracle's audits.
    pub fn open_pages(&self) -> impl Iterator<Item = Ppa> + '_ {
        (self.hook.programmed.values().flatten()).map(|(_, ppa)| *ppa)
    }
}

impl BlockDevice for TxFlashFtl {
    fn page_size(&self) -> usize {
        self.base.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.base.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.base.counters_mut().host_reads += 1;
        self.base.read_committed(lpn, buf)
    }

    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
        self.base.counters_mut().host_writes += 1;
        self.base.write_committed(lpn, buf, &mut self.hook)?;
        // A root once the roll-forward window is full, flushed or not;
        // cycles still open keep their pages above its horizon.
        self.base.checkpoint_if_due(&mut self.hook)
    }

    fn trim(&mut self, lpn: Lpn) -> Result<()> {
        self.base.counters_mut().trims += 1;
        self.base.trim_lpn(lpn)
    }

    fn flush(&mut self) -> Result<()> {
        self.base.counters_mut().flushes += 1;
        self.base.drain();
        if self.base.has_dirty_mapping() {
            self.base.checkpoint(&mut self.hook)?;
        }
        self.base.gc_step(&mut self.hook)
    }

    fn counters(&self) -> DevCounters {
        *self.base.counters()
    }
}

impl TxBlockDevice for TxFlashFtl {
    fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.base.counters_mut().host_reads += 1;
        // Own writes first: the buffered page, then the newest programmed
        // version of the page, then the committed copy.
        if let Some(Some((plpn, data))) = self.pending.get(&tid) {
            if *plpn == lpn {
                buf.copy_from_slice(data);
                return Ok(());
            }
        }
        if let Some(pages) = self.hook.programmed.get(&tid) {
            if let Some((_, ppa)) = pages.iter().rev().find(|(l, _)| *l == lpn) {
                let ppa = *ppa;
                self.base.read_at(ppa, buf)?;
                return Ok(());
            }
        }
        self.base.read_committed(lpn, buf)
    }

    fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()> {
        if tid == 0 {
            return self.write(lpn, buf);
        }
        self.base.counters_mut().host_writes += 1;
        // Program the previously buffered page with a plain link, then
        // buffer this one (it may turn out to be the cycle-closing page).
        self.flush_pending(tid, false)?;
        self.pending.insert(tid, Some((lpn, buf.to_vec())));
        Ok(())
    }

    fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
        // SCC's commit is inherently synchronous: durability *is* the
        // closing page's program, which this device does not queue. The
        // whole commit happens here and the ticket comes back immediate —
        // `commit_wait` has nothing left to do. (The contrast with
        // X-FTL's coalescing group flush is the point of the baseline.)
        self.base.counters_mut().commits += 1;
        let t_start = self.base.clock().now();
        self.flush_pending(tid, true)?;
        self.pending.remove(&tid);
        let folds = self.hook.programmed.remove(&tid);
        if let Some(pages) = folds {
            // The cycle is durably closed: fold the newest version of
            // every page into the committed mapping.
            for (lpn, ppa) in pages {
                self.base.fold_mapping(lpn, ppa)?;
            }
        }
        let t_end = self.base.clock().now();
        self.base
            .recorder()
            .record_span(OpClass::TxCommit, tid, 0, t_start, t_end);
        self.base.checkpoint_if_due(&mut self.hook)?;
        self.base.gc_step(&mut self.hook)?;
        Ok(CommitTicket::immediate(tid))
    }

    fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
        if ticket.is_immediate() {
            Ok(())
        } else {
            // This device only ever issues immediate tickets.
            Err(DevError::NotQueued)
        }
    }

    fn abort(&mut self, tid: Tid) -> Result<()> {
        self.base.counters_mut().aborts += 1;
        let t_start = self.base.clock().now();
        self.pending.remove(&tid);
        if let Some(pages) = self.hook.programmed.remove(&tid) {
            for (_, ppa) in pages {
                self.base.invalidate(ppa);
            }
        }
        let t_end = self.base.clock().now();
        self.base
            .recorder()
            .record_span(OpClass::TxAbort, tid, 0, t_start, t_end);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_flash::{FlashConfig, SimClock};

    #[test]
    fn commit_costs_zero_extra_pages() {
        let chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        let mut d = TxFlashFtl::format(chip, 32).unwrap();
        let a = vec![1; d.page_size()];
        for lpn in 0..5 {
            d.write_tx(7, lpn, &a).unwrap();
        }
        let before = d.base().flash_stats().programs;
        d.commit(7).unwrap();
        let after = d.base().flash_stats().programs;
        // Commit programs exactly the one buffered page — the cycle closer
        // rides on data, no commit record, no table write.
        assert_eq!(after - before, 1, "SCC's zero-overhead commit");
        assert_eq!(d.base().stats().data_writes, 5);
    }
}
