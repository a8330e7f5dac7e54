//! Baseline: the per-call atomic-write FTL (Park et al., cited as \[18\]).
//!
//! This device guarantees atomicity *per write call*: all pages passed to a
//! single [`AtomicWriteFtl::write_atomic`] land together or not at all,
//! sealed by a commit-record page programmed after the data pages. It is
//! the approach the paper contrasts X-FTL against in §3.3: because the
//! atomic unit is one call, a buffer manager that *steals* (evicts dirty
//! pages of uncommitted transactions at arbitrary times) cannot map a
//! database transaction onto it — each eviction becomes its own atomic
//! group. The ablation bench quantifies the extra commit-record writes this
//! costs relative to X-FTL's single X-L2P write per transaction.

use xftl_flash::{FlashChip, Oob, PageKind, Ppa};

use crate::base::{FtlBase, GcHook, Personality, RecoveryLog};
use crate::dev::{BlockDevice, DevCounters, Lpn, Tid};
use crate::error::Result;

/// Magic prefix of a commit-record page ("AWRECORD").
const RECORD_MAGIC: u64 = 0x4157_5245_434F_5244;

/// GC hook that chases commit records and in-flight group pages.
#[derive(Debug, Default)]
struct RecordHook {
    /// Live (not yet checkpoint-covered) commit-record pages.
    records: Vec<Ppa>,
    /// Data pages of the group currently being written, before fold.
    pending: Vec<(Lpn, Ppa)>,
}

impl GcHook for RecordHook {
    fn relocated(&mut self, oob: &Oob, old: Ppa, new: Ppa) {
        match oob.kind {
            PageKind::Commit => {
                if let Some(slot) = self.records.iter_mut().find(|p| **p == old) {
                    *slot = new;
                }
            }
            PageKind::Data => {
                if let Some((_, p)) = self
                    .pending
                    .iter_mut()
                    .find(|(lpn, p)| *lpn == oob.lpn && *p == old)
                {
                    *p = new;
                }
            }
            PageKind::Map | PageKind::Meta | PageKind::XL2p => {}
        }
    }

    /// A group is open only inside one call; between calls every
    /// tid-tagged page is sealed and folded, or dead.
    fn group_open(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// The per-call atomic-write FTL.
#[derive(Debug)]
pub struct AtomicWriteFtl {
    base: FtlBase,
    hook: RecordHook,
    next_group: Tid,
}

/// Groups whose commit record made it to flash are rolled forward;
/// groups without one vanish — the per-call all-or-nothing guarantee.
impl Personality for AtomicWriteFtl {
    fn assemble(base: FtlBase) -> Self {
        AtomicWriteFtl {
            base,
            hook: RecordHook::default(),
            next_group: 1,
        }
    }

    fn recover_from_scan(&mut self, log: &RecoveryLog) -> Result<()> {
        self.base.finish_recovery(log, Self::sealed_folds(log))
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

impl AtomicWriteFtl {
    /// The folds the commit records in `log` seal, each at its record's
    /// sequence.
    fn sealed_folds(log: &RecoveryLog) -> Vec<(u64, Lpn, Ppa)> {
        // Sequence number of each group's commit record (records before
        // the checkpoint are not in the log; their groups are covered by
        // the checkpointed L2P).
        // A record GC relocated seals at the original's sequence, which
        // the copy carries in its OOB `lpn` (0 on an original).
        let mut record_seq: Vec<(Tid, u64)> = Vec::new();
        for e in &log.events {
            if e.kind == PageKind::Commit {
                record_seq.push((e.tid, if e.lpn == 0 { e.seq } else { e.lpn }));
            }
        }
        // A group's pages become current at the record's sequence.
        let mut folds = Vec::new();
        for e in &log.events {
            if e.kind != PageKind::Data || e.tid == 0 {
                continue;
            }
            if e.seq <= log.tx_horizon {
                // Orphan from an earlier life; its group id may have been
                // reused since, so it must not join a newer record.
            } else if let Some(&(_, rec)) = record_seq
                .iter()
                .filter(|&&(tid, seq)| tid == e.tid && seq > e.seq)
                .min_by_key(|&&(_, seq)| seq)
            {
                folds.push((rec, e.lpn, e.ppa));
            }
        }
        folds
    }

    /// Writes `pages` as one atomic group: every page lands, then a commit
    /// record seals the group. Returns the group id. The data pages of the
    /// group ride the device queue, overlapping across channels; the
    /// record is chained after the last of them, then awaited — the call
    /// returns when the group is durable.
    pub fn write_atomic(&mut self, pages: &[(Lpn, &[u8])]) -> Result<Tid> {
        let group = self.next_group;
        self.next_group += 1;
        self.hook.pending.clear();
        let rec_ppa = match self.program_group(group, pages) {
            Ok(rec_ppa) => rec_ppa,
            Err(e) => {
                // Per-call rollback, whether a data page or the record
                // failed: orphan the pages already written.
                for (_, ppa) in self.hook.pending.drain(..) {
                    self.base.invalidate(ppa);
                }
                return Err(e);
            }
        };
        self.hook.records.push(rec_ppa);
        self.base.counters_mut().commits += 1;
        let pending = std::mem::take(&mut self.hook.pending);
        for (lpn, ppa) in pending {
            self.base.fold_mapping(lpn, ppa)?;
        }
        self.release_records_if_needed()?;
        self.base.gc_step(&mut self.hook)?;
        Ok(group)
    }

    /// Programs the group's data pages, queued, then its commit record
    /// chained behind them, and waits for the record; returns where it
    /// landed. The data pages are `pending` as they land.
    fn program_group(&mut self, group: Tid, pages: &[(Lpn, &[u8])]) -> Result<Ppa> {
        let mut data_done = 0;
        for (lpn, data) in pages {
            let (ppa, done) = self
                .base
                .write_cow(*lpn, group, data, false, &mut self.hook)?;
            data_done = data_done.max(done);
            self.hook.pending.push((*lpn, ppa));
        }
        let record = self.encode_record(group, pages);
        let oob = Oob {
            tid: group,
            kind: PageKind::Commit,
            ..Oob::data(0)
        };
        let (rec_ppa, rec_done) =
            self.base
                .program_raw(oob, &record, data_done, false, &mut self.hook)?;
        self.base.wait_for(rec_done);
        Ok(rec_ppa)
    }

    /// Commit-record pages stay valid (un-reclaimable) until a mapping
    /// checkpoint covers the groups they seal. Cap their number so a
    /// flush-averse host cannot fill the drive with records — nor, with
    /// few large groups, the roll-forward window with their pages.
    fn release_records_if_needed(&mut self) -> Result<()> {
        if self.hook.records.len() >= self.base.pages_per_block() / 2 || self.base.root_due() {
            self.checkpoint_and_release_records()?;
        }
        Ok(())
    }

    /// Checkpoints the L2P, which then covers every sealed group, and
    /// lets the records go.
    fn checkpoint_and_release_records(&mut self) -> Result<()> {
        self.base.checkpoint(&mut self.hook)?;
        for ppa in self.hook.records.drain(..) {
            self.base.invalidate(ppa);
        }
        Ok(())
    }

    fn encode_record(&self, group: Tid, pages: &[(Lpn, &[u8])]) -> Vec<u8> {
        let mut buf = vec![0u8; self.base.page_size()];
        buf[0..8].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&group.to_le_bytes());
        buf[16..24].copy_from_slice(&(pages.len() as u64).to_le_bytes());
        for (i, (lpn, _)) in pages.iter().enumerate() {
            let off = 24 + i * 8;
            buf[off..off + 8].copy_from_slice(&lpn.to_le_bytes());
        }
        buf
    }
}

impl BlockDevice for AtomicWriteFtl {
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

    /// A plain write is a single-page atomic group — this is exactly the
    /// per-call overhead §3.3 criticizes.
    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
        self.base.counters_mut().host_writes += 1;
        self.write_atomic(&[(lpn, buf)])?;
        Ok(())
    }

    fn trim(&mut self, lpn: Lpn) -> Result<()> {
        self.base.counters_mut().trims += 1;
        self.base.trim_lpn(lpn)
    }

    fn flush(&mut self) -> Result<()> {
        self.base.counters_mut().flushes += 1;
        self.base.drain();
        if self.base.has_dirty_mapping() {
            self.checkpoint_and_release_records()?;
        }
        self.base.gc_step(&mut self.hook)
    }

    fn counters(&self) -> DevCounters {
        *self.base.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_flash::{FlashConfig, SimClock};

    fn dev() -> AtomicWriteFtl {
        let chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        AtomicWriteFtl::format(chip, 32).unwrap()
    }

    fn page(d: &AtomicWriteFtl, byte: u8) -> Vec<u8> {
        vec![byte; d.page_size()]
    }

    #[test]
    fn atomic_group_lands_together() {
        let mut d = dev();
        let a = page(&d, 1);
        let b = page(&d, 2);
        d.write_atomic(&[(0, &a), (1, &b)]).unwrap();
        let mut out = page(&d, 0);
        d.read(0, &mut out).unwrap();
        assert_eq!(out, a);
        d.read(1, &mut out).unwrap();
        assert_eq!(out, b);
        assert_eq!(d.base().stats().commit_record_writes, 1);
    }

    #[test]
    fn every_plain_write_pays_a_record() {
        let mut d = dev();
        let a = page(&d, 1);
        for lpn in 0..5 {
            d.write(lpn, &a).unwrap();
        }
        // 5 data pages + 5 commit records: the per-call overhead X-FTL avoids.
        assert_eq!(d.base().stats().data_writes, 5);
        assert_eq!(d.base().stats().commit_record_writes, 5);
    }

    /// GC gives a relocated record a program sequence newer than records
    /// written since. Sealing at the copy's sequence would replay an old
    /// group over a newer one that wrote the same page; the copy carries
    /// the original's sequence, and that is where its group seals.
    #[test]
    fn a_relocated_record_seals_its_group_where_the_original_did() {
        use crate::base::ScanEvent;
        let event = |seq, lpn, tid, kind, page| ScanEvent {
            seq,
            lpn,
            tid,
            ppa: Ppa::new(3, page),
            kind,
            aux: 0,
        };
        let log = RecoveryLog {
            // Group 1 writes lpn 7 and seals at 2; group 2 overwrites it
            // and seals at 4; GC then moves group 1's record to 5.
            events: vec![
                event(1, 7, 1, PageKind::Data, 0),
                event(3, 7, 2, PageKind::Data, 1),
                event(4, 0, 2, PageKind::Commit, 2),
                event(5, 2, 1, PageKind::Commit, 3),
            ],
            ckpt_seq: 0,
            tx_horizon: 0,
            loaded_at: 0,
        };
        let mut folds = AtomicWriteFtl::sealed_folds(&log);
        folds.sort_unstable();
        assert_eq!(folds, [(2, 7, Ppa::new(3, 0)), (4, 7, Ppa::new(3, 1))]);
        // And GC stamps the copy so. A full device behind a 2-slab
        // mapping cache: eviction flushes close the mapping frontier over
        // live records, and GC takes it; churn until a record has moved.
        let cfg = xftl_flash::FlashConfigBuilder::tiny()
            .blocks(20)
            .pages_per_block(32)
            .build();
        let mut d = AtomicWriteFtl::format(FlashChip::new(cfg, SimClock::new()), 384).unwrap();
        d.base.set_map_cache_budget(Some(2)).unwrap();
        let mut buf = page(&d, 0);
        for lpn in 0..384 {
            d.write(lpn, &buf).unwrap();
        }
        d.flush().unwrap();
        let moved = (0..2000u64).find_map(|i| {
            let data = vec![(i % 250) as u8; d.page_size()];
            d.write_atomic(&[(i * 97 % 384, &data)]).unwrap();
            let records = d.hook.records.clone();
            records.into_iter().find_map(|ppa| {
                let oob = d.base.read_at(ppa, &mut buf).unwrap();
                (oob.lpn != 0).then_some(oob)
            })
        });
        let copy = moved.expect("GC never relocated a live record");
        assert_eq!(copy.kind, PageKind::Commit);
        assert!(copy.lpn < copy.seq, "the original's sequence, not its own");
    }
}
