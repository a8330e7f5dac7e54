//! Power-loss recovery: find the newest checkpoint root, take the
//! per-block census, the post-checkpoint events and every slab's home
//! from one OOB scan — of what the root does not cover —, rebuild the
//! engine from them exactly as `format` builds it, and — once the
//! personality has decided what the events mean — replay and persist the
//! result.
//!
//! The root names no page of the pool. *A page the scan sees anyway
//! needs no pointer*: a translation page says which slab it holds, and a
//! table-image page which generation, in its own OOB, so the newest
//! intact one is the live one and no root — however old — can name a
//! page GC has since erased.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use xftl_flash::{FlashChip, PageKind, PageProbe, Ppa};
use xftl_trace::OpClass;

use super::map::{slab_count, MapDir};
use super::pool::{BlockState, Class, FIRST_POOL_BLOCK};
use super::{with_read_retries, FtlBase, NoHook, RecoveryLog, ScanEvent, META_BLOCKS};
use crate::dev::Lpn;
use crate::error::{DevError, Result};
use crate::health::DeviceState;
use crate::meta::MetaPage;

/// Newest valid checkpoint root across both meta blocks, and which of
/// the two holds it. The ring is probed, and only then read: newest
/// sequence first, falling back to the next on a torn or undecodable
/// page — one page read, not one per root ever written.
fn newest_root(chip: &mut FlashChip) -> Result<(usize, MetaPage)> {
    let geo = chip.config().geometry;
    let mut roots = Vec::new();
    for (idx, mb) in META_BLOCKS.iter().enumerate() {
        for page in 0..geo.pages_per_block as u32 {
            let ppa = Ppa::new(*mb, page);
            match chip.probe(ppa)? {
                PageProbe::Erased => break,
                PageProbe::Programmed(oob) if oob.kind == PageKind::Meta => {
                    roots.push((Reverse(oob.seq), idx, ppa));
                }
                PageProbe::Torn | PageProbe::Programmed(_) => {}
            }
        }
    }
    roots.sort_unstable();
    let mut buf = vec![0u8; geo.page_size];
    let mut intact = roots.into_iter().filter_map(|(_, idx, ppa)| {
        with_read_retries(|| chip.read(ppa, &mut buf)).0.ok()?;
        Some((idx, MetaPage::decode(&buf)?))
    });
    intact.next().ok_or(DevError::NotFormatted)
}

/// What one pass over the OOB of the pool finds.
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
    /// Data blocks taken on trust after two probes.
    skipped: u32,
}

/// Probes the pool, every page of every written block — except of a data
/// block the root covers. The chip stamps the sequence at program time
/// and programs a block in page order, so sequences ascend within a
/// block: if the *last* page of a block whose first page is data is an
/// intact data page at or below both `ckpt_seq` and `tx_horizon`, every
/// page in it is a data page (the classes never share a block) the
/// checkpoint covers and no personality would fold — no event, no slab
/// home — and the block enters the census as closed data after two
/// probes (which pages in it are valid is rebuilt from the tables, never
/// from the scan). Any other block — open or partly written (last page
/// erased), torn at either end, mapping-class (slab homes, table images,
/// commit records live there) — is read page by page.
fn scan_pool(chip: &mut FlashChip, root: &MetaPage, slabs: usize) -> Result<Scan> {
    let geo = chip.config().geometry;
    let (ckpt_seq, covered) = (root.ckpt_seq, root.ckpt_seq.min(root.tx_horizon));
    let last_page = geo.pages_per_block as u32 - 1;
    let data_seq = |probe| match probe {
        PageProbe::Programmed(oob) if oob.kind == PageKind::Data => Some(oob.seq),
        PageProbe::Erased | PageProbe::Programmed(_) | PageProbe::Torn => None,
    };
    let mut census = vec![BlockState::Free; geo.blocks];
    let mut events = Vec::new();
    let mut homes: Vec<Option<(u64, Ppa)>> = vec![None; slabs];
    let mut skipped = 0;
    for b in FIRST_POOL_BLOCK..geo.blocks as u32 {
        let first = chip.probe(Ppa::new(b, 0))?;
        if first == PageProbe::Erased {
            continue;
        }
        if data_seq(first).is_some()
            && data_seq(chip.probe(Ppa::new(b, last_page))?).is_some_and(|seq| seq <= covered)
        {
            census[b as usize] = BlockState::Closed(Class::Data);
            skipped += 1;
            continue;
        }
        let mut holds = None;
        for page in 0..=last_page {
            let ppa = Ppa::new(b, page);
            let probe = if page == 0 { first } else { chip.probe(ppa)? };
            let oob = match probe {
                PageProbe::Erased => break,
                PageProbe::Torn => continue,
                PageProbe::Programmed(oob) => oob,
            };
            holds = holds.or(Some(if oob.kind == PageKind::Data {
                Class::Data
            } else {
                Class::Map
            }));
            // Post-checkpoint pages are roll-forward events.
            // Transaction-tagged data pages are kept at any sequence a
            // skipped block cannot hide: a transaction may straddle a
            // checkpoint (pages before it, commit evidence after it),
            // and only the wrapping personality can tell.
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
        // A block holding nothing but torn pages has no class of its
        // own; it is collected with the mapping blocks.
        census[b as usize] = BlockState::Closed(holds.unwrap_or(Class::Map));
    }
    events.sort_by_key(|e| e.seq);
    Ok(Scan {
        census,
        events,
        homes: homes.into_iter().map(|h| h.map(|(_, ppa)| ppa)).collect(),
        skipped,
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
        let t_root = chip.clock().now();
        let slabs = slab_count(root.logical_pages, chip.config().geometry.page_size);
        let scan = scan_pool(&mut chip, &root, slabs)?;
        let t_scan = chip.clock().now();
        let map = MapDir::load(&mut chip, scan.homes)?;
        let log = RecoveryLog {
            events: scan.events,
            ckpt_seq: root.ckpt_seq,
            tx_horizon: root.tx_horizon,
            loaded_at: chip.clock().now(),
        };
        let mut base = FtlBase::assemble(chip, root, meta_cur, map, scan.census);
        base.recovery.root_ns = t_root - t_recover;
        base.recovery.scan_ns = t_scan - t_root;
        base.recovery.load_ns = log.loaded_at - t_scan;
        base.recovery.written_blocks = base.pool.closed().count() as u32;
        base.recovery.skipped_blocks = scan.skipped;
        // The image's folds live nowhere else until a checkpoint covers
        // them: its pages are valid, and chased, again — like every page
        // a slab names, and the slabs' own.
        base.xl2p_roots = newest_complete_generation(&log.events);
        base.mark_referenced_valid();
        // This boot's recovery establishes a new horizon: no live
        // transaction's evidence predates the scan we just did. The
        // closing checkpoint persists it, and every later one advances it
        // as far as the personality's open groups allow.
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
        let t_replayed = self.chip.clock().now();
        self.recovery.replay_ns = t_replayed - log.loaded_at;
        if self.device_state != DeviceState::ReadOnly {
            self.checkpoint(&mut NoHook)?;
        }
        self.recovery.checkpoint_ns = self.chip.clock().now() - t_replayed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use xftl_flash::{FlashConfig, Oob, SimClock};

    use super::super::never_written_root;
    use super::*;

    const PAGES: u32 = 8;

    /// A formatted-looking chip of eight 8-page blocks, pool blocks 2..8.
    fn chip() -> FlashChip {
        FlashChip::new(FlashConfig::tiny(8), SimClock::new())
    }

    /// Programs `pages` into `block` from its first page; returns the last
    /// page's sequence.
    fn fill(chip: &mut FlashChip, block: u32, pages: &[Oob]) -> u64 {
        let data = vec![0u8; chip.config().geometry.page_size];
        for (page, oob) in pages.iter().enumerate() {
            chip.program(Ppa::new(block, page as u32), &data, *oob)
                .unwrap();
        }
        chip.next_seq() - 1
    }

    /// Data pages of lpn 0.., the one at `tagged` carrying tid 7.
    fn data_pages(n: u32, tagged: u32) -> Vec<Oob> {
        (0..n)
            .map(|page| Oob {
                tid: if page == tagged { 7 } else { 0 },
                ..Oob::data(u64::from(page))
            })
            .collect()
    }

    fn root(ckpt_seq: u64, tx_horizon: u64) -> MetaPage {
        MetaPage {
            ckpt_seq,
            tx_horizon,
            ..never_written_root(64)
        }
    }

    /// The scan of `chip` under `root`, and how many probes it took.
    fn scan(chip: &mut FlashChip, root: &MetaPage) -> (Scan, u64) {
        let before = chip.stats().oob_reads;
        let scan = scan_pool(chip, root, 1).unwrap();
        (scan, chip.stats().oob_reads - before)
    }

    #[test]
    fn a_data_block_the_root_covers_costs_two_probes() {
        let mut chip = chip();
        let last = fill(&mut chip, 2, &data_pages(PAGES, 3));
        // Five free blocks, one probe each, beside the written one.
        let (covered, probes) = scan(&mut chip, &root(last, last));
        assert_eq!((covered.skipped, probes), (1, 2 + 5));
        assert_eq!(covered.census[2], BlockState::Closed(Class::Data));
        assert!(covered.census[3..].iter().all(|s| *s == BlockState::Free));
        assert!(covered.events.is_empty());
        // One sequence short on either bound and every page is read (the
        // last a second time): the last page is a post-checkpoint event,
        // and the tid-tagged page one whatever its age.
        for (ckpt, horizon, events) in [(last - 1, last, 2), (last, last - 1, 1), (0, 0, 8)] {
            let (full, probes) = scan(&mut chip, &root(ckpt, horizon));
            assert_eq!((full.skipped, probes), (0, 1 + 8 + 5), "{ckpt}/{horizon}");
            assert_eq!(full.census, covered.census);
            assert_eq!(full.events.len(), events, "{ckpt}/{horizon}");
            assert!(full.events.iter().any(|e| e.tid == 7));
        }
    }

    #[test]
    fn a_block_the_last_page_cannot_vouch_for_is_read_in_full() {
        let map_page = Oob {
            kind: PageKind::Map,
            ..Oob::data(0)
        };
        let mut chip = chip();
        // Block 2, partly written: its last page is erased.
        fill(&mut chip, 2, &data_pages(PAGES - 1, 3));
        // Block 3: its last page was torn by the power cut.
        fill(&mut chip, 3, &data_pages(PAGES - 1, 3));
        chip.arm_power_fuse(1);
        let data = vec![0u8; chip.config().geometry.page_size];
        assert!(chip
            .program(Ppa::new(3, PAGES - 1), &data, Oob::data(9))
            .is_err());
        chip.power_cycle();
        // Block 4 ends, and block 5 begins, with a translation page.
        let mut mixed = data_pages(PAGES - 1, 3);
        mixed.push(map_page);
        fill(&mut chip, 4, &mixed);
        mixed.rotate_right(1);
        let last = fill(&mut chip, 5, &mixed);
        // A root that covers every page of all four.
        let (scan, probes) = scan(&mut chip, &root(last, last));
        assert_eq!(scan.skipped, 0);
        // Four in full — the three that begin with data after a look at
        // their last page — and two free.
        assert_eq!(probes, 4 * u64::from(PAGES) + 3 + 2);
        // So the tid-tagged page of each is handed to the personality,
        // the newest translation page is the slab's home, and a block is
        // filed by its first intact page.
        assert_eq!(scan.events.iter().filter(|e| e.tid == 7).count(), 4);
        assert_eq!(scan.homes, [Some(Ppa::new(5, 0))]);
        let class = |b: usize| scan.census[b];
        assert_eq!(class(2), BlockState::Closed(Class::Data));
        assert_eq!(class(3), BlockState::Closed(Class::Data));
        assert_eq!(class(4), BlockState::Closed(Class::Data));
        assert_eq!(class(5), BlockState::Closed(Class::Map));
    }

    /// What the skip leaves out is exactly what nobody reads: on an image
    /// the engine wrote, the scan under the real root and under the same
    /// root with the horizon zeroed (nothing skippable) agree on the
    /// census and the slab homes, and differ only in tid-tagged data
    /// pages at or below the horizon.
    #[test]
    fn the_skip_hides_only_pages_below_both_bounds() {
        let chip = FlashChip::new(FlashConfig::tiny(40), SimClock::new());
        let mut f = FtlBase::format(chip, 128).unwrap();
        f.set_map_cache_budget(Some(1)).unwrap();
        let data = vec![0x5A; f.page_size()];
        for i in 0..400u64 {
            let lpn = i * 37 % 128;
            if i % 5 == 0 {
                f.write_cow(lpn, 7, &data, true, &mut NoHook).unwrap();
            } else {
                f.write_committed(lpn, &data, &mut NoHook).unwrap();
            }
            if i % 90 == 89 {
                f.checkpoint(&mut NoHook).unwrap();
            }
        }
        assert!(f.stats().gc_runs > 0 && f.stats().map_evictions_dirty > 0);
        let mut chip = f.into_chip();
        chip.power_cycle();
        let (_, real) = newest_root(&mut chip).unwrap();
        let slabs = slab_count(real.logical_pages, chip.config().geometry.page_size);
        let fast = scan_pool(&mut chip, &real, slabs).unwrap();
        let unskippable = MetaPage {
            tx_horizon: 0,
            ..real.clone()
        };
        let full = scan_pool(&mut chip, &unskippable, slabs).unwrap();
        assert!(fast.skipped > 5, "{} blocks skipped", fast.skipped);
        assert_eq!(full.skipped, 0);
        assert_eq!(fast.census, full.census);
        assert_eq!(fast.homes, full.homes);
        let bound = real.ckpt_seq.min(real.tx_horizon);
        let mut hidden = 0;
        for e in &full.events {
            if !fast.events.contains(e) {
                assert!(e.kind == PageKind::Data && e.tid != 0 && e.seq <= bound);
                hidden += 1;
            }
        }
        assert!(hidden > 0, "no tid-tagged page sat in a skipped block");
        assert_eq!(fast.events.len() + hidden, full.events.len());
    }
}
