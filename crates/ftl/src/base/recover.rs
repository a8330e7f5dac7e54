//! Power-loss recovery: find the newest checkpoint root, take the
//! per-block census, the post-checkpoint events and every slab's home
//! from one OOB scan, rebuild the engine from them exactly as `format`
//! builds it, and — once the personality has decided what the events
//! mean — replay and persist the result.
//!
//! The root names no page of the pool. *A page the scan sees anyway
//! needs no pointer*: a translation page says which slab it holds, and a
//! table-image page which generation, in its own OOB, so the newest
//! intact one is the live one and no root — however old — can name a
//! page GC has since erased.

use std::collections::BTreeMap;

use xftl_flash::{FlashChip, PageKind, PageProbe, Ppa};
use xftl_trace::{OpClass, Recorder};

use super::map::{slab_count, MapDir};
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
            if let Some(m) = MetaPage::decode(&buf) {
                if newest.as_ref().is_none_or(|(s, _, _)| oob.seq > *s) {
                    newest = Some((oob.seq, idx, m));
                }
            }
        }
    }
    let (_, meta_cur, root) = newest.ok_or(DevError::NotFormatted)?;
    Ok((meta_cur, root))
}

/// What one pass over the OOB of every pool block finds.
struct Scan {
    /// A block is free iff its first page is erased; what a written block
    /// holds is decided by its first intact page.
    census: Vec<BlockState>,
    /// The roll-forward events, in ascending sequence order.
    events: Vec<ScanEvent>,
    /// The home of each slab: the intact `Map` page of that index with
    /// the highest program sequence (a GC copy outranks its original and
    /// holds the same bytes).
    homes: Vec<Option<Ppa>>,
}

fn scan_pool(chip: &mut FlashChip, ckpt_seq: u64, slabs: usize) -> Result<Scan> {
    let geo = chip.config().geometry;
    let mut census = vec![BlockState::Free; geo.blocks];
    let mut events = Vec::new();
    let mut homes: Vec<Option<(u64, Ppa)>> = vec![None; slabs];
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
            if oob.kind == PageKind::Map {
                if let Some(home) = homes.get_mut(oob.lpn as usize) {
                    if home.is_none_or(|(seq, _)| oob.seq > seq) {
                        *home = Some((oob.seq, ppa));
                    }
                }
            }
        }
        if written {
            // A block holding nothing but torn pages has no class of its
            // own; it is collected with the mapping blocks.
            census[b as usize] = BlockState::Closed(holds.unwrap_or(Class::Map));
        }
    }
    events.sort_by_key(|e| e.seq);
    Ok(Scan {
        census,
        events,
        homes: homes.into_iter().map(|h| h.map(|(_, ppa)| ppa)).collect(),
    })
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
    /// Loads the mapping the scan found, replays nothing yet: the returned
    /// [`RecoveryLog`] carries every post-checkpoint page in sequence
    /// order, and [`FtlBase::xl2p_roots`] names the live X-L2P table
    /// image if the scan found one. The wrapping device personality
    /// decides what the transactional events mean and hands the folds
    /// they imply to [`FtlBase::finish_recovery`].
    pub fn recover(mut chip: FlashChip) -> Result<(FtlBase, RecoveryLog)> {
        chip.power_cycle();
        let t_recover = chip.clock().now();
        let (meta_cur, root) = newest_root(&mut chip)?;
        let slabs = slab_count(root.logical_pages, chip.config().geometry.page_size);
        let scan = scan_pool(&mut chip, root.ckpt_seq, slabs)?;
        let map = MapDir::load(&mut chip, scan.homes)?;
        let log = RecoveryLog {
            events: scan.events,
            ckpt_seq: root.ckpt_seq,
            tx_horizon: root.tx_horizon,
        };
        let mut base = FtlBase::assemble(chip, root, meta_cur, map, scan.census);
        // The image's folds live nowhere else until a checkpoint covers
        // them: its pages are valid, and chased, again — like every page
        // a slab names, and the slabs' own.
        base.xl2p_roots = newest_complete_generation(&log.events);
        base.mark_referenced_valid();
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
    /// wins), which is what makes a translation page written since the
    /// root (an eviction, a checkpoint cut short) safe to load under it.
    /// A device that reached end-of-life read-only mode cannot persist
    /// anything: the folds stay in RAM, the old root and the table image
    /// on flash (re-recovery replays the same log and picks the same
    /// generation), and reads keep working.
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
        // A fold invalidates the page its slab said the LPN lived on
        // before — and a slab on flash may be several moves behind,
        // naming a page GC has since erased and the log reused: for
        // another LPN (whose own fold changes nothing, and re-marks
        // nothing, if its slab already names the page), for a translation
        // page, for a table-image page. What the replayed tables
        // reference is what is valid: marked again.
        self.mark_referenced_valid();
        if self.device_state != DeviceState::ReadOnly {
            self.checkpoint(&mut NoHook)?;
        }
        Ok(())
    }
}
