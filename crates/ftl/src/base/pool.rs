//! The block pool: the one place that knows what state a flash block is
//! in. Every block is in exactly one [`BlockState`]; the free list, the
//! open write frontiers and the FIFO victim queue are kept consistent
//! with it here and nowhere else. The pool owns no flash: it reads write
//! points and erase counts from the chip it is shown.

use std::collections::VecDeque;

use xftl_flash::{FlashChip, FlashGeometry, Ppa};

/// First block available for data/mapping allocation; the blocks below
/// it are the meta (checkpoint-root) ring.
pub(super) const FIRST_POOL_BLOCK: u32 = 2;

/// What a closed block holds. Data and mapping pages never share a block
/// — mixing them would let short-lived mapping pages pollute the data
/// blocks' GC validity — so the class is a property of the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Class {
    Data,
    Map,
}

/// The log a page is appended to. Host data rotates over one `Hot`
/// frontier per flash channel, so consecutive allocations stripe across
/// channels and queued programs overlap; `Cold` data (GC copies,
/// low-heat LPNs) fills its own per-channel frontiers so hot churn and
/// cold residue age in different blocks; mapping-class pages (L2P slabs,
/// X-L2P tables, commit records) share the single `Map` frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Stream {
    Hot,
    Cold,
    Map,
}

/// The state of one flash block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum BlockState {
    /// Part of the meta ring; never pooled.
    Meta,
    /// Erased and on the free list.
    Free,
    /// A write frontier of the stream. A frontier that filled up stays
    /// `Open` until the next allocation on its lane notices.
    Open(Stream),
    /// Written and no longer a frontier: a GC victim candidate.
    Closed(Class),
    /// Retired after an erase failure: never allocated from, never a
    /// victim, persisted in the meta page.
    Bad,
}

/// What the FIFO picker decides about a closed data block it is shown.
pub(super) enum Fifo {
    Take,
    Requeue,
    Drop,
}

/// The open blocks of one stream, one lane per flash channel (the map
/// stream has a single lane), and the round-robin cursor over them.
#[derive(Debug)]
struct Frontier {
    lanes: Vec<Option<u32>>,
    cursor: usize,
}

#[derive(Debug)]
pub(super) struct Pool {
    state: Vec<BlockState>,
    free: VecDeque<u32>,
    /// Data blocks in allocation order (FIFO victim cursor). Entries go
    /// stale when their block is erased; `fifo_next` drops them.
    fifo: VecDeque<u32>,
    /// Sequence number of the most recent program into each block
    /// (cost-benefit "age" reference; 0 = never programmed this boot).
    last_seq: Vec<u64>,
    /// Indexed by `Stream`.
    frontiers: [Frontier; 3],
}

impl Pool {
    /// Builds the pool from a per-block census (`Free`, `Closed` or `Bad`
    /// for every pool block — what format decides and the recovery scan
    /// finds). Free blocks pool in index order; data blocks enter the
    /// FIFO queue in index order (allocation age is unknown after a
    /// crash); block ages start over.
    pub(super) fn from_census(geo: FlashGeometry, mut state: Vec<BlockState>) -> Pool {
        state[..FIRST_POOL_BLOCK as usize].fill(BlockState::Meta);
        let blocks_in = |want: BlockState| -> VecDeque<u32> {
            (FIRST_POOL_BLOCK..geo.blocks as u32)
                .filter(|&b| state[b as usize] == want)
                .collect()
        };
        let frontier = |lanes: usize| Frontier {
            lanes: vec![None; lanes],
            cursor: 0,
        };
        let channels = geo.channels.max(1) as usize;
        Pool {
            free: blocks_in(BlockState::Free),
            fifo: blocks_in(BlockState::Closed(Class::Data)),
            last_seq: vec![0; geo.blocks],
            frontiers: [frontier(channels), frontier(channels), frontier(1)],
            state,
        }
    }

    /// Next free slot of `stream`'s log, opening a new block as needed;
    /// `None` when the stream's frontiers are full and the free list is
    /// empty. Fresh frontiers open on the least-worn free block (data
    /// lanes prefer one on their own channel), spreading erase load.
    pub(super) fn alloc(&mut self, chip: &FlashChip, stream: Stream) -> Option<Ppa> {
        let lanes = self.frontiers[stream as usize].lanes.len();
        for i in 0..lanes {
            let lane = (self.frontiers[stream as usize].cursor + i) % lanes;
            if let Some(b) = self.frontiers[stream as usize].lanes[lane] {
                if let Some(wp) = chip.write_point(b) {
                    self.frontiers[stream as usize].cursor = (lane + 1) % lanes;
                    return Some(Ppa::new(b, wp));
                }
                self.abandon(b);
            }
            // A frontier fed from the wrong channel still beats an idle
            // one (the stripe self-heals as blocks recycle); the map
            // lane takes any channel.
            let channel = (stream != Stream::Map).then_some(lane);
            if let Some(b) = self.pop_free(chip, channel) {
                self.state[b as usize] = BlockState::Open(stream);
                if stream != Stream::Map {
                    self.fifo.push_back(b);
                }
                let f = &mut self.frontiers[stream as usize];
                f.lanes[lane] = Some(b);
                f.cursor = (lane + 1) % lanes;
                return Some(Ppa::new(b, 0));
            }
        }
        None
    }

    /// Pops the least-worn free block on `channel` (any channel when
    /// `None` or when that channel has none), ties broken by queue
    /// position — which on a fresh chip makes wear-aware allocation
    /// identical to plain FIFO order.
    fn pop_free(&mut self, chip: &FlashChip, channel: Option<usize>) -> Option<u32> {
        let geo = chip.config().geometry;
        let min_wear_pos = |keep: &dyn Fn(u32) -> bool| {
            (self.free.iter().enumerate())
                .filter(|&(_, &b)| keep(b))
                .min_by_key(|&(_, &b)| chip.erase_count(b))
                .map(|(pos, _)| pos)
        };
        let pos = channel
            .and_then(|ch| min_wear_pos(&|b| geo.channel_of(b) == ch))
            .or_else(|| min_wear_pos(&|_| true))?;
        self.free.remove(pos)
    }

    /// Closes `block` if it is an open frontier — after a program
    /// failure (the re-executed write must land on a fresh block) or
    /// because it is full. It keeps its valid pages until GC reclaims it
    /// (a clean erase rehabilitates a suspect block for reuse).
    pub(super) fn abandon(&mut self, block: u32) {
        if let BlockState::Open(stream) = self.state[block as usize] {
            for lane in &mut self.frontiers[stream as usize].lanes {
                if *lane == Some(block) {
                    *lane = None;
                }
            }
            let class = if stream == Stream::Map {
                Class::Map
            } else {
                Class::Data
            };
            self.state[block as usize] = BlockState::Closed(class);
        }
    }

    /// Returns an erased victim to the free list.
    pub(super) fn release(&mut self, block: u32) {
        debug_assert!(matches!(self.state[block as usize], BlockState::Closed(_)));
        self.state[block as usize] = BlockState::Free;
        self.free.push_back(block);
    }

    /// Takes `block` out of every allocation path for good. Returns
    /// `false` if it was retired already.
    pub(super) fn retire(&mut self, block: u32) -> bool {
        match self.state[block as usize] {
            BlockState::Bad => return false,
            BlockState::Free => self.free.retain(|&b| b != block),
            BlockState::Meta | BlockState::Open(_) | BlockState::Closed(_) => self.abandon(block),
        }
        self.state[block as usize] = BlockState::Bad;
        true
    }

    /// Closed blocks and what they hold, in index order: the GC, scrub
    /// and wear-leveling victim candidates. Open frontiers, free, bad and
    /// meta blocks never appear.
    pub(super) fn closed(&self) -> impl Iterator<Item = (u32, Class)> + '_ {
        self.state.iter().enumerate().filter_map(|(b, s)| match s {
            BlockState::Closed(class) => Some((b as u32, *class)),
            BlockState::Meta | BlockState::Free | BlockState::Open(_) | BlockState::Bad => None,
        })
    }

    /// Walks the allocation-order queue once for the oldest closed data
    /// block `judge` takes. Blocks still filling their hot frontier and
    /// blocks `judge` requeues go to the back of the line; entries whose
    /// block has been erased or reused since are dropped (a block
    /// re-enters the queue when it is allocated again).
    pub(super) fn fifo_next(&mut self, mut judge: impl FnMut(u32) -> Fifo) -> Option<u32> {
        for _ in 0..self.fifo.len() {
            let b = self.fifo.pop_front()?;
            let verdict = match self.state[b as usize] {
                BlockState::Closed(Class::Data) => judge(b),
                BlockState::Open(Stream::Hot) => Fifo::Requeue,
                BlockState::Meta
                | BlockState::Free
                | BlockState::Open(_)
                | BlockState::Closed(_)
                | BlockState::Bad => Fifo::Drop,
            };
            match verdict {
                Fifo::Take => return Some(b),
                Fifo::Requeue => self.fifo.push_back(b),
                Fifo::Drop => {}
            }
        }
        None
    }

    /// True if `block` is waiting in the FIFO victim queue.
    #[cfg(test)]
    pub(super) fn fifo_contains(&self, block: u32) -> bool {
        self.fifo.contains(&block)
    }

    /// Records a successful program into `block` at sequence `seq`.
    pub(super) fn note_program(&mut self, block: u32, seq: u64) {
        self.last_seq[block as usize] = seq;
    }

    /// Sequence of the most recent program into `block` this boot.
    pub(super) fn last_program_seq(&self, block: u32) -> u64 {
        self.last_seq[block as usize]
    }

    /// Blocks on the free list.
    pub(super) fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Open write frontiers, filled-but-unnoticed ones included.
    pub(super) fn open_len(&self) -> usize {
        let open = |s: &&BlockState| matches!(s, BlockState::Open(_));
        self.state.iter().filter(open).count()
    }

    /// The state of `block` (`None` past the end of the array).
    pub(super) fn state(&self, block: u32) -> Option<BlockState> {
        self.state.get(block as usize).copied()
    }

    /// Retired blocks in ascending order.
    pub(super) fn bad_blocks(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.state.len() as u32).filter(|&b| self.state(b) == Some(BlockState::Bad))
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xftl_flash::{FlashConfigBuilder, Oob, SimClock};

    use super::*;

    /// The invariants the pool's parts must agree on at every step.
    fn check(pool: &Pool, chip: &FlashChip) {
        let free: Vec<u32> = pool.free.iter().copied().collect();
        let lanes: Vec<u32> = (pool.frontiers.iter())
            .flat_map(|f| f.lanes.iter().flatten().copied())
            .collect();
        for b in 0..pool.state.len() as u32 {
            let state = &pool.state(b).unwrap();
            // Exactly one state, and the lists agree with it.
            let on_free_list = free.iter().filter(|&&f| f == b).count();
            let in_lanes = lanes.iter().filter(|&&l| l == b).count();
            assert_eq!(
                on_free_list,
                usize::from(*state == BlockState::Free),
                "block {b}"
            );
            assert_eq!(
                in_lanes,
                usize::from(matches!(state, BlockState::Open(_))),
                "block {b}"
            );
            assert_eq!(*state == BlockState::Meta, b < FIRST_POOL_BLOCK);
            let closed = pool.closed().any(|(c, _)| c == b);
            assert_eq!(closed, matches!(state, BlockState::Closed(_)), "block {b}");
            if *state == BlockState::Free {
                assert_eq!(chip.write_point(b), Some(0), "free block {b} not erased");
            }
        }
        assert_eq!(pool.free_len(), free.len());
        assert_eq!(pool.open_len(), lanes.len());
    }

    /// Random `alloc / abandon / release / retire` on a tiny two-channel
    /// geometry: every block stays in exactly one state, free-list
    /// membership ⇔ `Free`, a `Bad` block is never handed out nor offered
    /// as a victim, and open frontiers are never victim candidates.
    #[test]
    fn random_schedules_keep_every_block_in_exactly_one_state() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = FlashConfigBuilder::tiny().blocks(14).channels(2).build();
            let geo = cfg.geometry;
            let mut chip = FlashChip::new(cfg, SimClock::new());
            let mut pool = Pool::from_census(geo, vec![BlockState::Free; geo.blocks]);
            let page = vec![0u8; geo.page_size];
            check(&pool, &chip);
            for _ in 0..600 {
                let closed: Vec<u32> = pool.closed().map(|(b, _)| b).collect();
                let pick = |rng: &mut StdRng| closed[rng.gen_range(0..closed.len())];
                match rng.gen_range(0..10) {
                    0..=5 => {
                        let stream = [Stream::Hot, Stream::Cold, Stream::Map][rng.gen_range(0..3)];
                        let Some(ppa) = pool.alloc(&chip, stream) else {
                            assert_eq!(pool.free_len(), 0, "alloc refused with free blocks");
                            continue;
                        };
                        assert_eq!(pool.state(ppa.block), Some(BlockState::Open(stream)));
                        assert!(pool.closed().all(|(b, _)| b != ppa.block));
                        assert_eq!(chip.write_point(ppa.block), Some(ppa.page));
                        chip.program(ppa, &page, Oob::data(0)).unwrap();
                        pool.note_program(ppa.block, chip.next_seq() - 1);
                        assert_eq!(pool.last_program_seq(ppa.block), chip.next_seq() - 1);
                    }
                    6 => {
                        // Abandon an open frontier (or a no-op on any
                        // other block).
                        let b = rng.gen_range(0..geo.blocks as u32);
                        let was = pool.state(b).unwrap();
                        pool.abandon(b);
                        match was {
                            BlockState::Open(_) => assert!(pool.closed().any(|(c, _)| c == b)),
                            other @ (BlockState::Meta
                            | BlockState::Free
                            | BlockState::Closed(_)
                            | BlockState::Bad) => assert_eq!(pool.state(b), Some(other)),
                        }
                    }
                    7 | 8 if !closed.is_empty() => {
                        let b = pick(&mut rng);
                        chip.erase(b).unwrap();
                        pool.release(b);
                        assert_eq!(pool.state(b), Some(BlockState::Free));
                    }
                    9 if !closed.is_empty() => {
                        let b = pick(&mut rng);
                        chip.erase(b).unwrap();
                        assert!(pool.retire(b));
                        assert!(!pool.retire(b), "retired twice");
                        assert_eq!(pool.state(b), Some(BlockState::Bad));
                    }
                    _ => {}
                }
                check(&pool, &chip);
            }
            let bad = pool.closed().count() + pool.free_len() + pool.open_len();
            assert_eq!(pool.bad_blocks().count(), geo.blocks - 2 - bad);
        }
    }

    #[test]
    fn retiring_a_free_or_open_block_takes_it_off_every_list() {
        let cfg = FlashConfigBuilder::tiny().blocks(8).build();
        let geo = cfg.geometry;
        let chip = FlashChip::new(cfg, SimClock::new());
        let mut pool = Pool::from_census(geo, vec![BlockState::Free; geo.blocks]);
        let open = pool.alloc(&chip, Stream::Hot).unwrap().block;
        assert!(pool.retire(open));
        assert!(pool.retire(5));
        check(&pool, &chip);
        assert_eq!(pool.bad_blocks().collect::<Vec<_>>(), vec![open, 5]);
        let next = pool.alloc(&chip, Stream::Hot).unwrap().block;
        assert!(next != open && next != 5);
    }
}
