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

use std::collections::BTreeMap;

use xftl_flash::{FlashChip, PageKind, PageProbe, Ppa};
use xftl_trace::OpClass;

use super::map::{slab_count, MapDir};
use super::pool::{BlockState, Class, Stream, FIRST_POOL_BLOCK};
use super::{with_read_retries, FtlBase, NoHook, RecoveryLog, ScanEvent, META_BLOCKS};
use crate::dev::Lpn;
use crate::error::{DevError, Result};
use crate::health::DeviceState;
use crate::meta::MetaPage;

/// The first page of `block` in `lo..hi` whose probe fails `holds`,
/// bisected — one probe per halving — on the word of the chip that it
/// holds on a prefix of the range and fails on the rest: a block is
/// programmed in page order, and sequences ascend within it. `hi` if it
/// holds throughout.
fn first_failing(
    chip: &mut FlashChip,
    block: u32,
    (mut lo, mut hi): (u32, u32),
    holds: impl Fn(PageProbe) -> bool,
) -> Result<u32> {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(chip.probe(Ppa::new(block, mid))?) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Newest valid checkpoint root across both meta blocks, and which of
/// the two holds it. Each block's write point is bisected — a meta block
/// is a prefix of programmed (or torn) pages and an erased rest — and
/// both are walked back from there in step, newest sequence first,
/// passing over torn and undecodable pages: a handful of probes and one
/// page read, not a probe per root ever written.
fn newest_root(chip: &mut FlashChip) -> Result<(usize, MetaPage)> {
    let geo = chip.config().geometry;
    let ppb = geo.pages_per_block as u32;
    let mut unwalked = [0u32; META_BLOCKS.len()];
    for (idx, mb) in META_BLOCKS.iter().enumerate() {
        unwalked[idx] = first_failing(chip, *mb, (0, ppb), |p| p != PageProbe::Erased)?;
    }
    // Each block's newest root not yet read: its sequence and page.
    let mut heads: [Option<(u64, Ppa)>; META_BLOCKS.len()] = [None; META_BLOCKS.len()];
    let mut buf = vec![0u8; geo.page_size];
    loop {
        for (idx, mb) in META_BLOCKS.iter().enumerate() {
            while heads[idx].is_none() && unwalked[idx] > 0 {
                unwalked[idx] -= 1;
                let ppa = Ppa::new(*mb, unwalked[idx]);
                match chip.probe(ppa)? {
                    PageProbe::Programmed(oob) if oob.kind == PageKind::Meta => {
                        heads[idx] = Some((oob.seq, ppa));
                    }
                    PageProbe::Erased | PageProbe::Torn | PageProbe::Programmed(_) => {}
                }
            }
        }
        let newest = (0..heads.len())
            .filter_map(|idx| Some((heads[idx]?, idx)))
            .max();
        let Some(((_, ppa), idx)) = newest else {
            return Err(DevError::NotFormatted);
        };
        heads[idx] = None;
        if with_read_retries(|| chip.read(ppa, &mut buf)).0.is_ok() {
            if let Some(root) = MetaPage::decode(&buf) {
                return Ok((idx, root));
            }
        }
    }
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

/// Probes the pool, every page of every written block — except the
/// pages of a data block the root covers. The chip stamps the sequence at
/// program time and programs a block in page order, so sequences ascend
/// within a block, and the classes never share one: if the *first* page
/// of a block is an intact data page at or below both `ckpt_seq` and
/// `tx_horizon`, the pages the checkpoint covers and no personality would
/// fold — no event, no slab home — are a prefix of it. If the last page
/// is one of them, so is the whole block, which enters the census as
/// closed data after two probes (which pages in it are valid is rebuilt
/// from the tables, never from the scan); otherwise the first page past
/// the prefix is bisected, and only the tail from there is read — the
/// frontier a root was written beside, a block torn or abandoned part
/// way. Any other block — torn at its start, mapping-class (slab homes,
/// table images, commit records live there), or begun after the root —
/// is read page by page.
fn scan_pool(chip: &mut FlashChip, root: &MetaPage, slabs: usize) -> Result<Scan> {
    let geo = chip.config().geometry;
    let (ckpt_seq, covered) = (root.ckpt_seq, root.ckpt_seq.min(root.tx_horizon));
    let last_page = geo.pages_per_block as u32 - 1;
    let is_covered = |probe| match probe {
        PageProbe::Programmed(oob) => oob.kind == PageKind::Data && oob.seq <= covered,
        PageProbe::Erased | PageProbe::Torn => false,
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
        let mut holds = None;
        let mut from = 0;
        if is_covered(first) {
            if is_covered(chip.probe(Ppa::new(b, last_page))?) {
                census[b as usize] = BlockState::Closed(Class::Data);
                skipped += 1;
                continue;
            }
            holds = Some(Class::Data);
            from = first_failing(chip, b, (1, last_page), is_covered)?;
        }
        for page in from..=last_page {
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
            // skipped prefix cannot hide: a transaction may straddle a
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
        // The map log's one lane resumes where the cut left it: a
        // collection whose victim is the only part-written mapping block
        // would otherwise find nowhere to copy it to. Data lanes reopen
        // such blocks only once the free list runs dry, as the log that
        // needs one.
        base.pool.reopen(&base.chip, Stream::Map, None);
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
    use xftl_flash::{FaultKind, FaultPlan, FaultTrigger, FlashConfig, FlashConfigBuilder, Oob};
    use xftl_flash::{FlashError, SimClock};

    use super::super::never_written_root;
    use super::*;

    const PAGES: u32 = 8;
    const WIDE: u32 = 64;

    /// A formatted-looking chip of eight 8-page blocks, pool blocks 2..8.
    fn chip() -> FlashChip {
        FlashChip::new(FlashConfig::tiny(8), SimClock::new())
    }

    /// Eight blocks of 64 pages: wide enough for a bisection to pay.
    fn wide_chip() -> FlashChip {
        let cfg = FlashConfigBuilder::tiny()
            .blocks(8)
            .pages_per_block(WIDE as usize)
            .build();
        FlashChip::new(cfg, SimClock::new())
    }

    /// Programs `pages` into `block` from its write point on; returns the
    /// last page's sequence.
    fn fill(chip: &mut FlashChip, block: u32, pages: &[Oob]) -> u64 {
        let data = vec![0u8; chip.config().geometry.page_size];
        for oob in pages {
            let page = chip.write_point(block).unwrap();
            chip.program(Ppa::new(block, page), &data, *oob).unwrap();
        }
        chip.next_seq() - 1
    }

    /// Data pages of lpn 0.., the ones at `tagged` carrying tid 7.
    fn tagged_pages(n: u32, tagged: &[u32]) -> Vec<Oob> {
        (0..n)
            .map(|page| Oob {
                tid: if tagged.contains(&page) { 7 } else { 0 },
                ..Oob::data(u64::from(page))
            })
            .collect()
    }

    fn data_pages(n: u32, tagged: u32) -> Vec<Oob> {
        tagged_pages(n, &[tagged])
    }

    /// Tears the next page of `block`: the power fails mid-program.
    fn tear(chip: &mut FlashChip, block: u32) {
        chip.arm_power_fuse(1);
        let page = chip.write_point(block).unwrap();
        let data = vec![0u8; chip.config().geometry.page_size];
        let torn = chip.program(Ppa::new(block, page), &data, Oob::data(99));
        assert_eq!(torn, Err(FlashError::PowerLost));
        chip.power_cycle();
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

    /// The scan under `root` beside the full walk — the same root with
    /// nothing skippable: both probe counts, and the events the walk finds
    /// that the scan leaves out. The two agree on the census and the slab
    /// homes, and the scan finds no event the walk does not.
    fn against_full_walk(chip: &mut FlashChip, root: &MetaPage) -> (Scan, u64, u64, Vec<Ppa>) {
        let (fast, probes) = scan(chip, root);
        let unskippable = MetaPage {
            tx_horizon: 0,
            ..root.clone()
        };
        let (full, walked) = scan(chip, &unskippable);
        assert_eq!(full.skipped, 0);
        assert_eq!(fast.census, full.census);
        assert_eq!(fast.homes, full.homes);
        assert!(fast.events.iter().all(|e| full.events.contains(e)));
        let hidden = (full.events.iter())
            .filter(|e| !fast.events.contains(e))
            .map(|e| e.ppa)
            .collect();
        (fast, probes, walked, hidden)
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
        // One sequence short on either bound and the last page is past
        // the root: two probes bisect pages 1..7 down to it, one reads
        // it. It is an event only past the checkpoint, and the tid-tagged
        // page 3 is one whatever its age — to the full walk, which reads
        // all eight.
        for (ckpt, horizon, events) in [(last - 1, last, 1), (last, last - 1, 0)] {
            let (tail, probes, walked, hidden) = against_full_walk(&mut chip, &root(ckpt, horizon));
            assert_eq!(tail.skipped, 0, "{ckpt}/{horizon}");
            assert_eq!((probes, walked), (2 + 2 + 1 + 5, 8 + 5), "{ckpt}/{horizon}");
            assert_eq!(tail.census, covered.census);
            assert_eq!(tail.events.len(), events, "{ckpt}/{horizon}");
            assert!(tail.events.iter().all(|e| e.ppa == Ppa::new(2, 7)));
            assert_eq!(hidden, [Ppa::new(2, 3)], "{ckpt}/{horizon}");
        }
        // Nothing covered: the first page vouches for nothing and the
        // block is read in full, one probe a page.
        let (full, probes) = scan(&mut chip, &root(0, 0));
        assert_eq!((full.skipped, probes), (0, 8 + 5));
        assert_eq!(full.events.len(), 8);
    }

    #[test]
    fn a_block_the_last_page_cannot_vouch_for_is_read_from_its_first_uncovered_page() {
        let map_page = Oob {
            kind: PageKind::Map,
            ..Oob::data(0)
        };
        let mut chip = chip();
        // Block 2, partly written: its last page is erased.
        fill(&mut chip, 2, &data_pages(PAGES - 1, 3));
        // Block 3: its last page was torn by the power cut.
        fill(&mut chip, 3, &data_pages(PAGES - 1, 3));
        tear(&mut chip, 3);
        // Block 4 ends, and block 5 begins, with a translation page.
        let mut mixed = data_pages(PAGES - 1, 3);
        mixed.push(map_page);
        fill(&mut chip, 4, &mixed);
        mixed.rotate_right(1);
        let last = fill(&mut chip, 5, &mixed);
        // A root that covers every page of all four.
        let (scan, probes, walked, hidden) = against_full_walk(&mut chip, &root(last, last));
        assert_eq!(scan.skipped, 0);
        // The three that begin with data: the first and last page, two
        // probes to bisect pages 1..7 down to page 7, and page 7 itself;
        // block 5 in full; two free. The full walk reads all four in full.
        assert_eq!(probes, 3 * (2 + 2 + 1) + u64::from(PAGES) + 2);
        assert_eq!(walked, 4 * u64::from(PAGES) + 2);
        // The tid-tagged page of the three is below both bounds — hidden
        // as a skipped block's would be —, block 5's is handed to the
        // personality, the newest translation page is the slab's home,
        // and a block is filed by its first intact page.
        let tagged: Vec<Ppa> = (2..=4).map(|b| Ppa::new(b, 3)).collect();
        assert_eq!(hidden, tagged);
        let events: Vec<Ppa> = scan.events.iter().map(|e| e.ppa).collect();
        assert_eq!(events, [Ppa::new(5, 4)]);
        assert_eq!(scan.homes, [Some(Ppa::new(5, 0))]);
        let class = |b: usize| scan.census[b];
        assert_eq!(class(2), BlockState::Closed(Class::Data));
        assert_eq!(class(3), BlockState::Closed(Class::Data));
        assert_eq!(class(4), BlockState::Closed(Class::Data));
        assert_eq!(class(5), BlockState::Closed(Class::Map));
    }

    /// The frontier a root was written beside: 40 pages below it, 24
    /// past it. Bisection finds page 40 in six probes (32, 48, 40, 36,
    /// 38, 39) and the scan reads the 24 from there.
    #[test]
    fn a_straddling_block_is_read_from_its_first_uncovered_page() {
        let mut chip = wide_chip();
        let pages = tagged_pages(WIDE, &[10, 50]);
        let below = fill(&mut chip, 2, &pages[..40]);
        fill(&mut chip, 2, &pages[40..]);
        let (scan, probes, walked, hidden) = against_full_walk(&mut chip, &root(below, below));
        assert_eq!(scan.skipped, 0);
        assert_eq!((probes, walked), (2 + 6 + 24 + 5, 64 + 5));
        // Every page past the root is an event; the tid-tagged page below
        // it is the one the walk reads and the scan need not.
        let events: Vec<Ppa> = scan.events.iter().map(|e| e.ppa).collect();
        assert_eq!(
            events,
            (40..WIDE).map(|p| Ppa::new(2, p)).collect::<Vec<_>>()
        );
        assert_eq!(hidden, [Ppa::new(2, 10)]);
    }

    /// A frontier the power cut tore: 40 pages below the root, ten past
    /// it, a torn page, then erased pages. The same six probes find page
    /// 40; the tail is read up to the first erased page.
    #[test]
    fn a_torn_tail_is_read_up_to_its_first_erased_page() {
        let mut chip = wide_chip();
        let pages = tagged_pages(50, &[10, 45]);
        let below = fill(&mut chip, 2, &pages[..40]);
        fill(&mut chip, 2, &pages[40..]);
        tear(&mut chip, 2);
        let (scan, probes, walked, hidden) = against_full_walk(&mut chip, &root(below, below));
        assert_eq!(scan.skipped, 0);
        // First and last page, six to bisect, pages 40..=49, the torn
        // page and the erased one that ends the walk; five free blocks.
        assert_eq!((probes, walked), (2 + 6 + 12 + 5, 52 + 5));
        let events: Vec<Ppa> = scan.events.iter().map(|e| e.ppa).collect();
        assert_eq!(events, (40..50).map(|p| Ppa::new(2, p)).collect::<Vec<_>>());
        assert_eq!(hidden, [Ppa::new(2, 10)]);
        assert_eq!(scan.census[2], BlockState::Closed(Class::Data));
    }

    /// A program failure tears page 45 of block 2 and the write goes on
    /// in block 3, as the engine re-executes it on a fresh block; the
    /// root covers block 2 up to the failure and block 3's first two
    /// pages. Each is read from its first uncovered page.
    #[test]
    fn a_block_abandoned_after_a_program_failure_is_read_from_the_failure() {
        let mut chip = wide_chip();
        let fail = FaultTrigger::new(FaultKind::ProgramFail).on_ppa(Ppa::new(2, 45));
        chip.set_fault_plan(FaultPlan::new(1).trigger(fail));
        fill(&mut chip, 2, &tagged_pages(45, &[10]));
        let data = vec![0u8; chip.config().geometry.page_size];
        let failed = chip.program(Ppa::new(2, 45), &data, Oob::data(45));
        assert_eq!(failed, Err(FlashError::ProgramFailed(Ppa::new(2, 45))));
        let below = fill(&mut chip, 3, &tagged_pages(2, &[0]));
        fill(&mut chip, 3, &tagged_pages(3, &[1]));
        let (scan, probes, walked, hidden) = against_full_walk(&mut chip, &root(below, below));
        assert_eq!(scan.skipped, 0);
        // Block 2: first and last page, six to bisect (32, 48, 40, 44, 46,
        // 45), the torn page 45 and the erased page 46. Block 3: first and
        // last page, six to bisect (32, 16, 8, 4, 2, 1), pages 2..5. Four
        // free blocks. The walk reads 47 and 6 pages.
        assert_eq!(
            (probes, walked),
            ((2 + 6 + 2) + (2 + 6 + 4) + 4, 47 + 6 + 4)
        );
        let events: Vec<Ppa> = scan.events.iter().map(|e| e.ppa).collect();
        assert_eq!(events, (2..5).map(|p| Ppa::new(3, p)).collect::<Vec<_>>());
        assert_eq!(hidden, [Ppa::new(2, 10), Ppa::new(3, 0)]);
    }

    /// What the skip leaves out is exactly what nobody reads: on an image
    /// the engine wrote, the scan under the real root and under the same
    /// root with the horizon zeroed (nothing skippable) agree on the
    /// census and the slab homes, and differ only in tid-tagged data
    /// pages at or below the horizon — in blocks skipped whole and in the
    /// covered prefixes of blocks read from their first uncovered page.
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
        let (fast, probes, walked, hidden) = against_full_walk(&mut chip, &real);
        assert!(fast.skipped > 5, "{} blocks skipped", fast.skipped);
        assert!(probes < walked);
        let bound = real.ckpt_seq.min(real.tx_horizon);
        let mut in_tails = 0;
        for ppa in &hidden {
            let PageProbe::Programmed(oob) = chip.probe_silent(*ppa) else {
                panic!("{ppa:?} hidden but not programmed");
            };
            assert!(oob.kind == PageKind::Data && oob.tid != 0 && oob.seq <= bound);
            // Its block's last page is past the root (or erased): hidden
            // in a covered prefix, not in a block skipped whole.
            let last = chip.probe_silent(Ppa::new(ppa.block, PAGES - 1));
            in_tails += usize::from(!matches!(last, PageProbe::Programmed(o) if o.seq <= bound));
        }
        assert!(!hidden.is_empty(), "no tid-tagged page sat below the root");
        assert!(in_tails > 0, "no tid-tagged page sat in a covered prefix");
    }

    /// Roots `ckpt_seq` `from..to`, appended to meta block `block`.
    fn put_roots(chip: &mut FlashChip, block: u32, seqs: std::ops::Range<u64>) {
        let page_size = chip.config().geometry.page_size;
        let meta = Oob {
            kind: PageKind::Meta,
            ..Oob::data(0)
        };
        for seq in seqs {
            let page = chip.write_point(block).unwrap();
            let buf = root(seq, seq).encode(page_size);
            chip.program(Ppa::new(block, page), &buf, meta).unwrap();
        }
    }

    /// The root the full walk of the ring picks: every meta page, newest
    /// sequence first, the first that decodes.
    fn walked_root(chip: &FlashChip) -> Option<MetaPage> {
        let geo = chip.config().geometry;
        let mut roots: Vec<(u64, Ppa)> = (META_BLOCKS.iter())
            .flat_map(|&b| (0..geo.pages_per_block as u32).map(move |p| Ppa::new(b, p)))
            .filter_map(|ppa| match chip.probe_silent(ppa) {
                PageProbe::Programmed(oob) if oob.kind == PageKind::Meta => Some((oob.seq, ppa)),
                PageProbe::Programmed(_) | PageProbe::Erased | PageProbe::Torn => None,
            })
            .collect();
        roots.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        let mut buf = vec![0u8; geo.page_size];
        (roots.into_iter()).find_map(|(_, ppa)| {
            chip.read_silent(ppa, &mut buf)?;
            MetaPage::decode(&buf)
        })
    }

    /// `newest_root` on `chip`, checked against the full walk: the root
    /// it found, which block holds it, and the probes and page reads it
    /// took.
    fn bisected_root(chip: &mut FlashChip) -> (u64, usize, u64, u64) {
        let count = |chip: &FlashChip| (chip.stats().oob_reads, chip.stats().reads);
        let (probes, reads) = count(chip);
        let (idx, found) = newest_root(chip).unwrap();
        assert_eq!(Some(&found), walked_root(chip).as_ref());
        let (probes_after, reads_after) = count(chip);
        (
            found.ckpt_seq,
            idx,
            probes_after - probes,
            reads_after - reads,
        )
    }

    /// Forty roots in block 0, then a root whose page does not decode and
    /// one the power cut tore. The write point (42) is bisected in six
    /// probes — 32, 48, 40, 44, 42, 41 — and the empty block 1's in six —
    /// 32, 16, 8, 4, 2, 1 — and 0; the walk back probes 42, 41 and 40 and
    /// reads 41 and 40.
    #[test]
    fn the_newest_root_is_bisected_and_a_torn_or_undecodable_one_passed_over() {
        let mut chip = wide_chip();
        put_roots(&mut chip, 0, 1..41);
        let meta = Oob {
            kind: PageKind::Meta,
            ..Oob::data(0)
        };
        let garbage = vec![0xEEu8; chip.config().geometry.page_size];
        chip.program(Ppa::new(0, 40), &garbage, meta).unwrap();
        tear(&mut chip, 0);
        assert_eq!(bisected_root(&mut chip), (40, 0, 6 + 7 + 3, 2));
        // Without the two, the newest root is the first page read.
        let mut clean = wide_chip();
        put_roots(&mut clean, 0, 1..41);
        assert_eq!(bisected_root(&mut clean), (40, 0, 6 + 7 + 1, 1));
    }

    /// Block 0 full, and the ring switching to block 1: the sibling is
    /// erased, then the power fails before its first root lands, or
    /// while it does. Either way the newest root is block 0's last.
    #[test]
    fn a_sibling_erased_mid_switch_leaves_the_full_blocks_newest_root() {
        for torn in [false, true] {
            let mut chip = wide_chip();
            put_roots(&mut chip, 1, 1..4);
            put_roots(&mut chip, 0, 4..4 + u64::from(WIDE));
            chip.erase(1).unwrap();
            if torn {
                tear(&mut chip, 1);
            }
            // Block 0: six probes find it full (32, 48, 56, 60, 62, 63).
            // Block 1: seven find it empty (32, 16, 8, 4, 2, 1, 0) — or
            // six and a probe of the torn page 0 on the way back. Then
            // page 63 of block 0, read once.
            let newest = 3 + u64::from(WIDE);
            let probes = 6 + 7 + 1 + u64::from(torn);
            assert_eq!(
                bisected_root(&mut chip),
                (newest, 0, probes, 1),
                "torn {torn}"
            );
        }
    }
}
