//! Power-loss recovery: find the newest checkpoint root, take the
//! per-block census and the post-checkpoint events from one OOB scan,
//! rebuild the engine from them exactly as `format` builds it, and —
//! once the personality has decided what the events mean — replay and
//! persist the result.

use std::collections::BTreeMap;

use xftl_flash::{FlashChip, PageKind, PageProbe, Ppa};
use xftl_trace::{OpClass, Recorder};

use super::map::MapDir;
use super::pool::{BlockState, Class, FIRST_POOL_BLOCK};
use super::{with_read_retries, FtlBase, NoHook, RecoveryLog, ScanEvent, META_BLOCKS};
use crate::dev::Lpn;
use crate::error::{DevError, Result};
use crate::health::DeviceState;
use crate::meta::MetaPage;

/// Newest valid checkpoint root across both meta blocks, and which of
/// the two holds it.
fn newest_root(chip: &mut FlashChip) -> Result<(usize, MetaPage)> {
    let geo = chip.config().geometry;
    let mut newest: Option<(u64, usize, MetaPage)> = None;
    let mut buf = vec![0u8; geo.page_size];
    for (idx, mb) in META_BLOCKS.iter().enumerate() {
        for page in 0..geo.pages_per_block as u32 {
            let ppa = Ppa::new(*mb, page);
            let oob = match chip.probe(ppa)? {
                PageProbe::Erased => break,
                PageProbe::Programmed(oob) if oob.kind == PageKind::Meta => oob,
                PageProbe::Torn | PageProbe::Programmed(_) => continue,
            };
            if with_read_retries(|| chip.read(ppa, &mut buf)).0.is_err() {
                continue;
            }
            if let Some(m) = MetaPage::decode(&buf, geo.pages_per_block) {
                if newest.as_ref().is_none_or(|(s, _, _)| oob.seq > *s) {
                    newest = Some((oob.seq, idx, m));
                }
            }
        }
    }
    let (_, meta_cur, root) = newest.ok_or(DevError::NotFormatted)?;
    Ok((meta_cur, root))
}

/// Scans the OOB of every pool block once: the block census (a block is
/// free iff its first page is erased; what a written block holds is
/// decided by its first intact page) and the roll-forward events, in
/// ascending sequence order.
fn scan_pool(chip: &mut FlashChip, ckpt_seq: u64) -> Result<(Vec<BlockState>, Vec<ScanEvent>)> {
    let geo = chip.config().geometry;
    let mut census = vec![BlockState::Free; geo.blocks];
    let mut events = Vec::new();
    for b in FIRST_POOL_BLOCK..geo.blocks as u32 {
        let mut written = false;
        let mut holds = None;
        for page in 0..geo.pages_per_block as u32 {
            let ppa = Ppa::new(b, page);
            let oob = match chip.probe(ppa)? {
                PageProbe::Erased => break,
                PageProbe::Torn => {
                    written = true;
                    continue;
                }
                PageProbe::Programmed(oob) => oob,
            };
            written = true;
            holds = holds.or(Some(if oob.kind == PageKind::Data {
                Class::Data
            } else {
                Class::Map
            }));
            // Post-checkpoint pages are roll-forward events.
            // Transaction-tagged data pages are kept at ANY sequence: a
            // transaction may straddle a checkpoint (pages before it,
            // commit evidence after it), and only the wrapping
            // personality can tell.
            // A table-image page counts by its generation id, not its
            // own sequence: a GC copy of a checkpoint-covered image is
            // as covered as the original.
            let relevant = match oob.kind {
                PageKind::Data => oob.seq > ckpt_seq || oob.tid != 0,
                PageKind::Commit => oob.seq > ckpt_seq,
                PageKind::XL2p => oob.tid > ckpt_seq,
                PageKind::Map | PageKind::Meta => false,
            };
            if relevant {
                events.push(ScanEvent {
                    seq: oob.seq,
                    lpn: oob.lpn,
                    tid: oob.tid,
                    ppa,
                    kind: oob.kind,
                    aux: oob.aux,
                });
            }
        }
        if written {
            // A block holding nothing but torn pages has no class of its
            // own; it is collected with the mapping blocks.
            census[b as usize] = BlockState::Closed(holds.unwrap_or(Class::Map));
        }
    }
    events.sort_by_key(|e| e.seq);
    Ok((census, events))
}

/// The pages, in index order, of the newest X-L2P table generation the
/// scan found *complete* — an intact page for every index below the page
/// count each of its pages states (the original or a GC copy; they are
/// identical). A generation cut short by the power loss, or one GC has
/// begun to reclaim, is passed over for the one before it, which stayed
/// valid until its successor was completely issued. Empty if there is
/// none: no commit since the checkpoint.
fn newest_complete_generation(events: &[ScanEvent]) -> Vec<Ppa> {
    let mut generations: BTreeMap<u64, (u32, BTreeMap<u64, Ppa>)> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == PageKind::XL2p) {
        let (_, pages) = generations.entry(e.tid).or_insert((e.aux, BTreeMap::new()));
        pages.insert(e.lpn, e.ppa);
    }
    generations
        .into_values()
        .rev()
        .find_map(|(count, pages)| {
            (0..u64::from(count))
                .map(|i| pages.get(&i).copied())
                .collect::<Option<Vec<Ppa>>>()
        })
        .unwrap_or_default()
}

impl FtlBase {
    /// Rebuilds device state from the flash contents after a power loss.
    ///
    /// Loads the newest checkpoint, replays nothing yet: the returned
    /// [`RecoveryLog`] carries every post-checkpoint page in sequence
    /// order, and [`FtlBase::xl2p_roots`] names the live X-L2P table
    /// image if the scan found one. The wrapping device personality
    /// decides what the transactional events mean and hands the folds
    /// they imply to [`FtlBase::finish_recovery`].
    pub fn recover(mut chip: FlashChip) -> Result<(FtlBase, RecoveryLog)> {
        chip.power_cycle();
        let t_recover = chip.clock().now();
        let (meta_cur, root) = newest_root(&mut chip)?;
        let (map, valid) = MapDir::load(&mut chip, &root)?;
        let (census, events) = scan_pool(&mut chip, root.ckpt_seq)?;
        let log = RecoveryLog {
            events,
            ckpt_seq: root.ckpt_seq,
            tx_horizon: root.tx_horizon,
        };
        let mut base = FtlBase::assemble(chip, root, meta_cur, map, valid, census);
        // The image's folds live nowhere else until a checkpoint covers
        // them: its pages are valid, and chased, again.
        base.xl2p_roots = newest_complete_generation(&log.events);
        for ppa in &base.xl2p_roots {
            base.valid.mark_valid(*ppa);
        }
        // This boot's recovery establishes a new horizon: no live
        // transaction's evidence predates the scan we just did. The
        // post-recovery checkpoint persists it.
        base.tx_horizon = base.chip.next_seq();
        // The persisted state is a floor (transitions are forward-only
        // across any number of power cycles), and a root written before
        // the last retirement wave can under-report: re-derive
        // degradation from the pool the scan actually found.
        if base.short_of_spares() {
            base.device_state = base.device_state.max(DeviceState::Degraded);
        }
        let t_end = base.chip.clock().now();
        base.chip
            .recorder()
            .record_span(OpClass::RecoveryReplay, 0, 0, t_recover, t_end);
        Ok((base, log))
    }

    /// The tail of every personality's recovery: replays the log's plain
    /// (`tid == 0`) data writes merged, by program sequence, with the
    /// `(seq, lpn, ppa)` folds the personality derived from its
    /// transactional evidence — each becomes current at the sequence its
    /// commit evidence hit flash — then checkpoints, so the fresh root
    /// owns every fold and the X-L2P table image (live until that root is
    /// on the media) is retired. Replays are idempotent (last writer
    /// wins), which is what makes eviction flushes crash-safe without
    /// refreshing `ckpt_seq`. A device that reached end-of-life read-only
    /// mode cannot persist anything: the folds stay in RAM, the old root
    /// and the table image on flash (re-recovery replays the same log
    /// and picks the same generation), and reads keep working.
    pub fn finish_recovery(
        &mut self,
        log: &RecoveryLog,
        mut folds: Vec<(u64, Lpn, Ppa)>,
    ) -> Result<()> {
        let plain = log
            .events
            .iter()
            .filter(|e| e.kind == PageKind::Data && e.tid == 0);
        folds.extend(plain.map(|e| (e.seq, e.lpn, e.ppa)));
        folds.sort_by_key(|&(seq, _, _)| seq);
        for (_, lpn, ppa) in folds {
            if lpn < self.logical_pages {
                self.fold_mapping(lpn, ppa)?;
            }
        }
        if self.device_state != DeviceState::ReadOnly {
            self.checkpoint(&mut NoHook)?;
        }
        Ok(())
    }
}
