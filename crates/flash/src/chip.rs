//! The simulated NAND array.
//!
//! [`FlashChip`] models the raw medium the FTL programs against. It enforces
//! the datasheet constraints that make flash management hard — erase before
//! program, whole-block erases, in-order programming within a block — and
//! charges realistic latencies to the shared [`SimClock`].
//!
//! # Channel model & command queue
//!
//! The array is organised as `channels × ways` independent units; physical
//! blocks stripe across channels (`channel = block % channels`). Timing is
//! modelled with *busy-until timestamps*, not threads: each channel (bus)
//! and each unit (cell array) remembers the absolute simulated instant it
//! becomes free, and an operation's completion time is computed by chaining
//! its phases after those instants. Reads occupy the cell array first and
//! the bus second; programs transfer over the bus first and then occupy the
//! cell array; erases touch only the cell array. Synchronous operations
//! advance the shared clock to their completion. Queued operations
//! ([`FlashChip::program_queued`] and friends) advance the clock only by
//! the firmware command overhead — the serial dispatch path — and return
//! their absolute completion time, so commands issued to distinct channels
//! overlap. [`FlashChip::drain`] is the barrier that waits for everything
//! outstanding. Because everything is a pure function of issue order and
//! the clock, the simulation stays deterministic.
//!
//! Flash contents survive a simulated power loss; everything above this
//! layer (mapping tables, caches) does not. Page state mutates at *issue*
//! time even for queued commands, so the power-loss fuse semantics are
//! independent of queueing.

use crate::clock::{Nanos, SimClock};
use crate::config::FlashConfig;
use crate::error::{FlashError, Result};
use crate::fault::{self, EccEvent, FaultKind, FaultOp, FaultPlan};
use crate::stats::{FlashStats, MAX_CHANNELS, QUEUE_DEPTH_BUCKETS};
use std::fmt;
use xftl_trace::{OpClass, Telemetry};

/// Physical page address: (block, page-within-block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppa {
    /// Erase-block index.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl Ppa {
    /// Creates a physical page address.
    pub fn new(block: u32, page: u32) -> Self {
        Ppa { block, page }
    }

    /// Linear index of this address in the given geometry.
    pub fn linear(&self, pages_per_block: usize) -> u64 {
        self.block as u64 * pages_per_block as u64 + self.page as u64
    }

    /// Inverse of [`Ppa::linear`].
    pub fn from_linear(linear: u64, pages_per_block: usize) -> Self {
        Ppa {
            block: (linear / pages_per_block as u64) as u32,
            page: (linear % pages_per_block as u64) as u32,
        }
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.block, self.page)
    }
}

/// What a programmed page holds, from the FTL's point of view. Stored in the
/// out-of-band (spare) area so that crash recovery can rebuild mapping state
/// by scanning the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Host data page; `lpn` is its logical page number.
    Data,
    /// A persisted slab of the L2P mapping table; `lpn` is the map-page index.
    Map,
    /// FTL meta/checkpoint root block page.
    Meta,
    /// One page of a persisted X-L2P table image. The OOB makes the image
    /// its own commit evidence for the recovery scan: `tid` is the image's
    /// *generation id* (the program sequence its group flush began at,
    /// which is also where its commits fold — GC copies keep it while
    /// `seq` moves), `lpn` the page's index within the image and `aux`
    /// the number of pages the image has.
    XL2p,
    /// Commit record of the per-call atomic-write baseline FTL (Park et
    /// al. \[18\] in the paper's related work).
    Commit,
}

/// Out-of-band metadata programmed atomically with each page.
///
/// Real NAND provides a spare area per page (64 bytes in the modelled chip);
/// we represent the fields the FTL needs as a typed struct. `seq` is a
/// device-global monotone program counter used to order pages during
/// recovery scans, exactly as log-structured FTLs do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oob {
    /// Logical page number (or table-specific index for Map/Meta/XL2p pages).
    pub lpn: u64,
    /// Device-global program sequence number.
    pub seq: u64,
    /// Transaction id that wrote this page; 0 for non-transactional
    /// writes. On an XL2p page: the generation id of its table image.
    pub tid: u64,
    /// Role of the page.
    pub kind: PageKind,
    /// FTL-specific auxiliary word: the image's page count on an XL2p
    /// page; on a GC copy of a committed data page (re-stamped tid 0),
    /// the program sequence of the write it copies; 0 on any other page
    /// as first written.
    pub aux: u32,
}

impl Oob {
    /// OOB for an ordinary non-transactional data page.
    pub fn data(lpn: u64) -> Self {
        Oob {
            lpn,
            seq: 0,
            tid: 0,
            kind: PageKind::Data,
            aux: 0,
        }
    }
}

/// Stored contents of a programmed page.
///
/// Multi-gigabyte simulated devices would not fit in host RAM if every page
/// kept a full byte buffer, so constant-fill pages (the common case in
/// synthetic workloads) compress to a single byte. The representation is
/// invisible above this layer: reads always materialise the full buffer,
/// and the fault model never mutates stored contents (bit flips surface in
/// the ECC path, not the cells), so compression cannot change observable
/// behaviour.
#[derive(Debug, Clone)]
enum PageData {
    /// Every byte of the page equals the given value.
    Fill(u8),
    /// Arbitrary contents.
    Bytes(Box<[u8]>),
}

impl PageData {
    /// Every byte equals its successor exactly when the page is one fill;
    /// the overlapping slice compare runs as a `memcmp`, not byte by byte.
    fn capture(data: &[u8]) -> Self {
        match data.first() {
            Some(&b) if data[1..] == data[..data.len() - 1] => PageData::Fill(b),
            _ => PageData::Bytes(data.into()),
        }
    }

    fn copy_to(&self, buf: &mut [u8]) {
        match self {
            PageData::Fill(b) => buf.fill(*b),
            PageData::Bytes(data) => buf.copy_from_slice(data),
        }
    }
}

/// Payload of a programmed page, boxed so the per-page footprint of the
/// (mostly erased) array stays one machine word plus discriminant.
#[derive(Debug, Clone)]
struct ProgrammedPage {
    data: PageData,
    oob: Oob,
    /// Simulated instant the program completed; retention aging measures
    /// data age from here.
    programmed_at: Nanos,
}

/// State of one physical page.
#[derive(Debug, Clone)]
enum Page {
    Erased,
    Programmed(Box<ProgrammedPage>),
    /// Power was lost mid-program; contents are garbage and the embedded
    /// checksum fails. Reads return [`FlashError::TornPage`].
    Torn,
}

const ERASED_PAGE: Page = Page::Erased;

/// One erase block.
///
/// `pages` grows lazily: programming is strictly in-order, so the vector
/// only ever holds the prefix of pages written since the last erase, and an
/// index at or past `pages.len()` is erased by construction. This keeps an
/// erased multi-terabit array at essentially zero host-memory cost.
#[derive(Debug, Clone)]
struct Block {
    pages: Vec<Page>,
    /// Index of the next page that may legally be programmed.
    write_point: u32,
    erase_count: u64,
    /// Full-page reads since the last erase; drives read-disturb aging.
    reads: u64,
    /// Bits ECC has corrected in this block since the last erase. The
    /// FTL's scrubber reads this as its risk signal.
    corrected_flips: u64,
}

impl Block {
    fn new(_pages_per_block: usize) -> Self {
        Block {
            pages: Vec::new(),
            write_point: 0,
            erase_count: 0,
            reads: 0,
            corrected_flips: 0,
        }
    }

    fn page(&self, idx: usize) -> &Page {
        self.pages.get(idx).unwrap_or(&ERASED_PAGE)
    }

    /// Stores `page` at `idx`, padding any gap with erased pages (programs
    /// are in-order, so in practice `idx == pages.len()`).
    fn set_page(&mut self, idx: usize, page: Page) {
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, || Page::Erased);
        }
        self.pages[idx] = page;
    }
}

/// Reliability state of one erase block, as the device's own status
/// reporting exposes it. Health is physical state: it survives power
/// cycles (real firmware derives it from bad-block marks in the spare
/// area) and is independent of any FTL bookkeeping above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockHealth {
    /// No operation on this block has ever failed.
    #[default]
    Good,
    /// At least one program in this block reported status failure since
    /// its last successful erase. The block may still hold valid data; a
    /// successful erase returns it to [`BlockHealth::Good`].
    Suspect,
    /// An erase reported status failure. The block is permanently bad:
    /// every future erase fails with [`FlashError::EraseFailed`] and the
    /// FTL must never allocate from it again.
    Retired,
}

/// Outcome of probing a page during a recovery scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageProbe {
    /// Never programmed since the last erase.
    Erased,
    /// Programmed; OOB metadata attached.
    Programmed(Oob),
    /// Interrupted program; must be treated as invalid.
    Torn,
}

/// Whose work a command is: what [`FlashChip::wait_by_work`] splits a
/// wait by, indexed as `Work as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// The host's own commands.
    Host,
    /// The FTL's collector: GC, scrub and wear-levelling copies and
    /// erases (see [`FlashChip::set_collecting`]).
    Collect,
    /// Firmware work run in the host's think time, on the background
    /// cursor (see [`FlashChip::begin_background`]).
    Background,
}

/// A queued operation not yet waited on: the instant it began to occupy
/// the array, the instant it finishes, and whose work it is.
#[derive(Debug, Clone, Copy)]
struct Busy {
    start: Nanos,
    done: Nanos,
    work: Work,
}

/// Completion schedule of one operation on the array.
#[derive(Debug, Clone, Copy)]
struct Sched {
    /// Absolute instant the operation begins to occupy its unit's cells.
    start: Nanos,
    /// Absolute instant the operation finishes.
    done: Nanos,
    /// Media service time (cell + bus occupancy, no command overhead).
    service: Nanos,
    /// Time spent waiting for the channel/unit to free up.
    wait: Nanos,
    /// Channel the operation ran on.
    channel: usize,
}

/// The simulated NAND array.
///
/// All operations advance the shared clock by their modelled cost and update
/// [`FlashStats`] counters. A `FlashChip` survives power loss: the owning
/// device is dropped and a new one is built around the same chip via the
/// FTL's recovery path.
#[derive(Debug, Clone)]
pub struct FlashChip {
    config: FlashConfig,
    blocks: Vec<Block>,
    seq: u64,
    clock: SimClock,
    stats: FlashStats,
    /// Instant each channel's bus becomes free.
    chan_busy: Vec<Nanos>,
    /// Instant each (channel, way) unit's cell array becomes free.
    unit_busy: Vec<Nanos>,
    /// Queued operations not yet waited on.
    outstanding: Vec<Busy>,
    /// Set while the FTL's collector issues commands.
    collecting: bool,
    /// The background cursor: set between
    /// [`FlashChip::begin_background`] and [`FlashChip::end_background`],
    /// the instant the firmware dispatches its next command.
    cursor: Option<Nanos>,
    /// Remaining program/erase operations before a simulated power loss.
    fuse: Option<u64>,
    /// Set once the fuse fires; all operations fail until `rearm` is called
    /// by the recovery path.
    dead: bool,
    /// Per-block reliability state (physical; survives power cycles).
    health: Vec<BlockHealth>,
    /// Installed per-operation fault schedule, if any. Survives power
    /// cycles: the fault environment is a property of the silicon, not of
    /// the boot.
    fault: Option<FaultPlan>,
    /// ECC outcome of the most recent full-page read, for FTL scrubber
    /// feedback (real controllers expose this via a read-status register).
    last_ecc: EccEvent,
    /// Telemetry sink; disabled by default. Host-side measurement, so it
    /// survives power cycles like [`FlashStats`] does.
    recorder: Telemetry,
}

impl FlashChip {
    /// Creates a fully erased array with the given configuration, charging
    /// time to `clock`.
    pub fn new(config: FlashConfig, clock: SimClock) -> Self {
        let blocks = (0..config.geometry.blocks)
            .map(|_| Block::new(config.geometry.pages_per_block))
            .collect();
        FlashChip {
            config,
            blocks,
            seq: 1,
            clock,
            stats: FlashStats::default(),
            chan_busy: vec![0; config.geometry.channels.max(1) as usize],
            unit_busy: vec![0; config.geometry.units()],
            outstanding: Vec::new(),
            collecting: false,
            cursor: None,
            fuse: None,
            dead: false,
            health: vec![BlockHealth::Good; config.geometry.blocks],
            fault: None,
            last_ecc: EccEvent::Clean,
            recorder: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; all chip-level latencies are recorded
    /// into it from then on. Layers above fetch it via
    /// [`FlashChip::recorder`] so one handle serves the whole stack.
    pub fn set_recorder(&mut self, recorder: Telemetry) {
        self.recorder = recorder;
    }

    /// The installed telemetry handle (disabled unless set).
    pub fn recorder(&self) -> &Telemetry {
        &self.recorder
    }

    /// Device configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Shared clock handle.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Resets operation counters (the clock and channel state are
    /// unaffected).
    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::default();
    }

    /// Next value the global program sequence counter will take.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Number of queued operations that have not yet completed as of the
    /// current simulated instant.
    pub fn outstanding_ops(&self) -> usize {
        let now = self.clock.now();
        self.outstanding.iter().filter(|b| b.done > now).count()
    }

    /// The instant the array goes idle if nothing more is issued: the
    /// latest completion among the outstanding queued operations, or the
    /// instant the next command dispatches. Waits for nothing — pass it
    /// as `not_before` to order a program after everything issued so far
    /// without draining.
    pub fn idle_at(&self) -> Nanos {
        self.outstanding
            .iter()
            .map(|b| b.done)
            .max()
            .unwrap_or(0)
            .max(self.issue_at())
    }

    /// Barrier: waits for every outstanding queued operation and returns
    /// the instant the array went idle.
    pub fn drain(&mut self) -> Nanos {
        let end = self.idle_at();
        self.wait_until(end);
        self.outstanding.clear();
        end
    }

    /// Waits until the operation that reported `completion` has finished
    /// (partial barrier; other queued operations may still be in flight).
    pub fn wait_for(&mut self, completion: Nanos) {
        self.wait_until(completion);
        let now = self.issue_at();
        self.outstanding.retain(|b| b.done > now);
    }

    /// Marks the commands issued from now on as the collector's, or the
    /// host's again, for [`FlashChip::wait_by_work`].
    pub fn set_collecting(&mut self, on: bool) {
        self.collecting = on;
    }

    /// Whether the commands issued now are the collector's
    /// ([`FlashChip::set_collecting`]).
    pub fn is_collecting(&self) -> bool {
        self.collecting
    }

    /// Starts the background cursor at `at`, an instant at or before now:
    /// firmware work run in the host's think time, back-dated into it.
    /// Until [`FlashChip::end_background`], commands dispatch at the
    /// cursor instead of now, their firmware dispatch and synchronous
    /// waits advance the cursor and not the clock, and their telemetry
    /// spans start there. Each is scheduled on the array as issued, so a
    /// host command issued after the run queues behind every background
    /// command the run started — the caller issues one only if it starts
    /// before the host's command arrived ([`FlashChip::background_start`]).
    pub fn begin_background(&mut self, at: Nanos) {
        debug_assert!(self.cursor.is_none(), "one background run at a time");
        self.cursor = Some(at);
    }

    /// Ends the background run. Firmware still dispatching past now
    /// holds the host: the clock waits for the cursor.
    pub fn end_background(&mut self) {
        if let Some(cursor) = self.cursor.take() {
            self.clock.advance_to(cursor);
        }
    }

    /// While the background cursor is set, the instant the next
    /// background command would start on the array: after its dispatch,
    /// and after every queued operation — exact on a chip of one unit,
    /// cautious on several.
    pub fn background_start(&self) -> Option<Nanos> {
        let dispatched = self.cursor? + self.config.timings.cmd_overhead_ns;
        Some(dispatched.max(self.idle_at()))
    }

    /// Splits the wait from `from` until [`FlashChip::idle_at`] by whose
    /// work fills it, indexed as `Work as usize`. Walking back from the
    /// end, each instant goes to the queued operation that occupies the
    /// array then, and an instant none occupies to the operation that
    /// starts after it, so the parts sum to the wait.
    pub fn wait_by_work(&self, from: Nanos) -> [Nanos; 3] {
        let mut parts = [0; 3];
        let mut t = self.idle_at();
        let mut next = Work::Host;
        while t > from {
            let covering = (self.outstanding.iter())
                .filter(|b| b.start < t && t <= b.done)
                .min_by_key(|b| b.start);
            let (until, work) = match covering {
                Some(b) => (b.start, b.work),
                None => {
                    let before = (self.outstanding.iter())
                        .map(|b| b.done)
                        .filter(|&d| d < t)
                        .max();
                    (before.unwrap_or(from), next)
                }
            };
            let until = until.max(from);
            parts[work as usize] += t - until;
            (t, next) = (until, work);
        }
        parts
    }

    /// The instant the next command dispatches: the background cursor
    /// while it is set, else now. Where a span of a command starts.
    pub fn issue_at(&self) -> Nanos {
        self.cursor.unwrap_or_else(|| self.clock.now())
    }

    /// Whose work a command issued now is.
    fn work(&self) -> Work {
        match (self.cursor, self.collecting) {
            (Some(_), _) => Work::Background,
            (None, true) => Work::Collect,
            (None, false) => Work::Host,
        }
    }

    /// Charges `ns` of serial firmware time: to the cursor while it is
    /// set, else to the clock.
    fn firmware(&mut self, ns: Nanos) {
        match &mut self.cursor {
            Some(cursor) => *cursor += ns,
            None => self.clock.advance(ns),
        }
    }

    /// Waits until `instant`: the cursor while it is set, else the clock.
    fn wait_until(&mut self, instant: Nanos) {
        match &mut self.cursor {
            Some(cursor) => *cursor = (*cursor).max(instant),
            None => self.clock.advance_to(instant),
        }
    }

    /// Queues the operation `sched` describes: it stays outstanding
    /// until waited on.
    fn enqueue(&mut self, sched: &Sched) {
        let work = self.work();
        self.outstanding.push(Busy {
            start: sched.start,
            done: sched.done,
            work,
        });
    }

    fn check_alive(&self) -> Result<()> {
        if self.dead {
            Err(FlashError::PowerLost)
        } else {
            Ok(())
        }
    }

    fn check_range(&self, ppa: Ppa) -> Result<()> {
        if (ppa.block as usize) < self.config.geometry.blocks
            && (ppa.page as usize) < self.config.geometry.pages_per_block
        {
            Ok(())
        } else {
            Err(FlashError::OutOfRange(ppa))
        }
    }

    /// Decrements the power fuse; returns true if it fires on this op.
    fn fuse_fires(&mut self) -> bool {
        match &mut self.fuse {
            Some(0) | None => false,
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.dead = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Arms a power-loss fuse: after `ops` more program/erase operations the
    /// device dies, tearing the in-flight program. Used by failure-injection
    /// tests. `ops` must be at least 1.
    pub fn arm_power_fuse(&mut self, ops: u64) {
        assert!(ops >= 1, "fuse must allow at least one operation");
        self.fuse = Some(ops);
    }

    /// Brings the chip back online after a simulated power cycle, with an
    /// explicit reset contract so fault-injection tests cannot leak state
    /// between injections.
    ///
    /// **Reset** (state that dies with power): the dead flag, any armed
    /// fuse, the queue of outstanding completions, and the channel/unit
    /// busy-until timestamps — a queued operation that never completed
    /// must not make the first command of the next boot wait on a phantom
    /// busy bus.
    ///
    /// **Retained** (physical state): flash contents including torn
    /// pages, the global program sequence counter (recovery re-derives it
    /// from the media), per-block erase counts and [`BlockHealth`]
    /// (bad-block marks live in the spare area), any installed
    /// [`FaultPlan`] (the fault environment is a property of the
    /// silicon), and cumulative [`FlashStats`] (host-side measurement;
    /// use [`FlashChip::reset_stats`] to zero them explicitly).
    pub fn power_cycle(&mut self) {
        self.dead = false;
        self.fuse = None;
        self.outstanding.clear();
        self.collecting = false;
        self.cursor = None;
        for t in &mut self.chan_busy {
            *t = 0;
        }
        for t in &mut self.unit_busy {
            *t = 0;
        }
    }

    /// True if the power fuse has fired and the chip is offline.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Installs (replacing any previous) a per-operation fault schedule.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Reliability state of `block`.
    pub fn block_health(&self, block: u32) -> BlockHealth {
        self.health[block as usize]
    }

    /// Blocks the device has permanently retired, in ascending order.
    pub fn retired_blocks(&self) -> Vec<u32> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| **h == BlockHealth::Retired)
            .map(|(b, _)| b as u32)
            .collect()
    }

    /// Records the queue depth an arriving command observes.
    fn note_arrival(&mut self) {
        let now = self.issue_at();
        self.outstanding.retain(|b| b.done > now);
        let depth = self.outstanding.len().min(QUEUE_DEPTH_BUCKETS - 1);
        self.stats.queue_depth_hist[depth] += 1;
    }

    fn note_channel_busy(&mut self, sched: &Sched) {
        self.stats.busy_channel_ns[sched.channel.min(MAX_CHANNELS - 1)] += sched.service;
        self.stats.queue_wait_ns += sched.wait;
        // Only contended commands feed the wait histogram; an uncontended
        // zero would otherwise drown the distribution.
        if sched.wait > 0 {
            self.recorder.record(OpClass::ChanQueueWait, sched.wait);
        }
    }

    /// Schedules a read-shaped operation: cell array first, then the bus.
    fn sched_read(&mut self, block: u32, cell_ns: Nanos, bytes: u64, not_before: Nanos) -> Sched {
        let t = self.config.timings;
        let g = self.config.geometry;
        let (ch, unit) = (g.channel_of(block), g.unit_of(block));
        let submit = self.issue_at().max(not_before);
        let xfer = bytes * t.channel_ns_per_byte;
        let cell_start = submit.max(self.unit_busy[unit]);
        let cell_end = cell_start + cell_ns;
        let xfer_start = cell_end.max(self.chan_busy[ch]);
        let done = xfer_start + xfer;
        self.unit_busy[unit] = done;
        self.chan_busy[ch] = done;
        Sched {
            start: cell_start,
            done,
            service: cell_ns + xfer,
            wait: (cell_start - submit) + (xfer_start - cell_end),
            channel: ch,
        }
    }

    /// Schedules a program: bus transfer first (from `not_before`), then
    /// the cell array (from `cells_after`, if the transfer ends earlier).
    fn sched_program(&mut self, block: u32, not_before: Nanos, cells_after: Nanos) -> Sched {
        let t = self.config.timings;
        let g = self.config.geometry;
        let (ch, unit) = (g.channel_of(block), g.unit_of(block));
        let submit = self.issue_at().max(not_before);
        let xfer = g.page_size as u64 * t.channel_ns_per_byte;
        let xfer_start = submit.max(self.chan_busy[ch]);
        let xfer_end = xfer_start + xfer;
        let cell_start = xfer_end.max(self.unit_busy[unit]).max(cells_after);
        let done = cell_start + t.program_ns;
        self.chan_busy[ch] = xfer_end;
        self.unit_busy[unit] = done;
        Sched {
            start: cell_start,
            done,
            service: xfer + t.program_ns,
            wait: (xfer_start - submit) + (cell_start - xfer_end),
            channel: ch,
        }
    }

    /// Schedules an erase: cell array only, no bus traffic.
    fn sched_erase(&mut self, block: u32, not_before: Nanos) -> Sched {
        let t = self.config.timings;
        let g = self.config.geometry;
        let (ch, unit) = (g.channel_of(block), g.unit_of(block));
        let submit = self.issue_at().max(not_before);
        let start = submit.max(self.unit_busy[unit]);
        let done = start + t.erase_ns;
        self.unit_busy[unit] = done;
        Sched {
            start,
            done,
            service: t.erase_ns,
            wait: start - submit,
            channel: ch,
        }
    }

    fn do_read(
        &mut self,
        ppa: Ppa,
        buf: &mut [u8],
        not_before: Nanos,
        sync: bool,
    ) -> Result<(Oob, Nanos)> {
        self.check_alive()?;
        self.check_range(ppa)?;
        let page_size = self.config.geometry.page_size;
        if buf.len() != page_size {
            return Err(FlashError::BadBufferSize {
                expected: page_size,
                got: buf.len(),
            });
        }
        let read_ns = self.config.timings.read_ns;
        let t_entry = self.issue_at();
        // Firmware dispatch is serial; media + bus time overlaps per lane.
        self.firmware(self.config.timings.cmd_overhead_ns);
        if !sync {
            self.note_arrival();
        }
        let sched = self.sched_read(ppa.block, read_ns, page_size as u64, not_before);
        self.stats.reads += 1;
        self.stats.busy_read_ns += self.config.timings.cmd_overhead_ns + sched.service;
        self.note_channel_busy(&sched);
        if sync {
            self.wait_until(sched.done);
        } else {
            self.enqueue(&sched);
        }
        let (lpn, tid, programmed_at) =
            match self.blocks[ppa.block as usize].page(ppa.page as usize) {
                Page::Erased => return Err(FlashError::ReadErased(ppa)),
                Page::Torn => return Err(FlashError::TornPage(ppa)),
                Page::Programmed(p) => (p.oob.lpn, p.oob.tid, p.programmed_at),
            };
        // Every full-page read disturbs the block (physical state, counted
        // whether or not a fault plan is installed).
        self.blocks[ppa.block as usize].reads += 1;
        self.recorder
            .record_span(OpClass::ChipRead, tid, lpn, t_entry, sched.done);
        // Fault model: bit flips surface on valid programmed pages. Two
        // sources stack: the plan's triggers/background rates, and the
        // deterministic aging curve (read disturb + retention + wear). The
        // stall of the ECC failure path is charged to the serial firmware
        // dispatch clock (the controller blocks on correction/retry).
        self.last_ecc = EccEvent::Clean;
        if let Some(plan) = &mut self.fault {
            let fault_bits = match plan.decide(FaultOp::Read, ppa, Some(lpn)) {
                Some(FaultKind::ReadFlips(bits)) => bits,
                // Program/erase faults never fire on the read path.
                Some(FaultKind::ProgramFail | FaultKind::EraseFail) | None => 0,
            };
            let aging_bits = match plan.aging_model() {
                Some(model) if !fault::is_exempt(ppa.block) => {
                    let b = &self.blocks[ppa.block as usize];
                    let age = self.issue_at().saturating_sub(programmed_at);
                    model.flips(b.reads, age, b.erase_count)
                }
                _ => 0,
            };
            let bits = fault_bits.saturating_add(aging_bits);
            if bits > 0 {
                self.stats.aging_flips += u64::from(aging_bits);
                if bits <= fault::CORRECTABLE_BITS {
                    self.last_ecc = EccEvent::Corrected(bits);
                    self.blocks[ppa.block as usize].corrected_flips += u64::from(bits);
                    self.stats.corrected_reads += 1;
                    self.stats.fault_stall_ns += fault::CORRECTION_NS;
                    self.recorder
                        .record(OpClass::EccCorrect, fault::CORRECTION_NS);
                    self.firmware(fault::CORRECTION_NS);
                } else {
                    self.last_ecc = EccEvent::Uncorrectable(bits);
                    self.stats.uncorrectable_reads += 1;
                    if aging_bits > 0 && fault_bits <= fault::CORRECTABLE_BITS {
                        // Aging pushed an otherwise-decodable page over the
                        // budget: this is the loss a scrubber prevents.
                        self.stats.aging_uncorrectable += 1;
                    }
                    self.stats.fault_stall_ns += fault::UNCORRECTABLE_NS;
                    self.recorder
                        .record(OpClass::EccCorrect, fault::UNCORRECTABLE_NS);
                    self.firmware(fault::UNCORRECTABLE_NS);
                    return Err(FlashError::Uncorrectable(ppa));
                }
            }
        }
        match self.blocks[ppa.block as usize].page(ppa.page as usize) {
            Page::Programmed(p) => {
                p.data.copy_to(buf);
                Ok((p.oob, sched.done))
            }
            // Checked Programmed above; nothing mutates page state between.
            Page::Erased | Page::Torn => Err(FlashError::ReadErased(ppa)),
        }
    }

    /// Reads a full page into `buf`, returning its OOB metadata. Blocks
    /// (advances the clock) until the data has transferred.
    pub fn read(&mut self, ppa: Ppa, buf: &mut [u8]) -> Result<Oob> {
        self.do_read(ppa, buf, 0, true).map(|(oob, _)| oob)
    }

    /// Queued read: data is delivered to `buf` immediately in simulation,
    /// but the clock only advances by the command overhead. Returns the OOB
    /// and the absolute instant the transfer completes; callers that need
    /// the data "on the wire" must [`FlashChip::wait_for`] that instant (or
    /// pass it as `not_before` of a dependent operation). `not_before`
    /// defers the start, expressing data dependencies between queued ops.
    pub fn read_queued(
        &mut self,
        ppa: Ppa,
        buf: &mut [u8],
        not_before: Nanos,
    ) -> Result<(Oob, Nanos)> {
        self.do_read(ppa, buf, not_before, false)
    }

    /// Reads only the OOB metadata of a page (cheap; used by recovery scans
    /// and GC validity checks). Exempt from read-fault injection: the
    /// spare area carries its own stronger ECC in the modelled chip, so
    /// recovery scans see page *state* reliably even when page *data*
    /// does not decode.
    pub fn probe(&mut self, ppa: Ppa) -> Result<PageProbe> {
        self.check_alive()?;
        self.check_range(ppa)?;
        let t = self.config.timings;
        let t_entry = self.issue_at();
        // OOB-only read: a quarter of the command overhead plus a short
        // cell access and transfer of the spare area.
        self.firmware(t.cmd_overhead_ns / 4);
        let sched = self.sched_read(
            ppa.block,
            t.read_ns / 8,
            self.config.geometry.oob_bytes as u64,
            0,
        );
        self.stats.oob_reads += 1;
        self.stats.busy_read_ns += t.cmd_overhead_ns / 4 + sched.service;
        self.note_channel_busy(&sched);
        self.wait_until(sched.done);
        self.recorder
            .record_span(OpClass::ChipOobRead, 0, 0, t_entry, sched.done);
        Ok(
            match self.blocks[ppa.block as usize].page(ppa.page as usize) {
                Page::Erased => PageProbe::Erased,
                Page::Torn => PageProbe::Torn,
                Page::Programmed(p) => PageProbe::Programmed(p.oob),
            },
        )
    }

    fn do_program(
        &mut self,
        ppa: Ppa,
        data: &[u8],
        mut oob: Oob,
        not_before: Nanos,
        cells_after: Nanos,
        sync: bool,
    ) -> Result<(Oob, Nanos)> {
        self.check_alive()?;
        self.check_range(ppa)?;
        let page_size = self.config.geometry.page_size;
        if data.len() != page_size {
            return Err(FlashError::BadBufferSize {
                expected: page_size,
                got: data.len(),
            });
        }
        let block = &self.blocks[ppa.block as usize];
        match block.page(ppa.page as usize) {
            Page::Erased => {}
            Page::Programmed(_) | Page::Torn => return Err(FlashError::ProgramOverwrite(ppa)),
        }
        if ppa.page != block.write_point {
            return Err(FlashError::ProgramOutOfOrder {
                ppa,
                expected_page: block.write_point,
            });
        }
        let t_entry = self.issue_at();
        self.firmware(self.config.timings.cmd_overhead_ns);
        if !sync {
            self.note_arrival();
        }
        let sched = self.sched_program(ppa.block, not_before, cells_after);
        self.stats.programs += 1;
        self.stats.busy_program_ns += self.config.timings.cmd_overhead_ns + sched.service;
        self.note_channel_busy(&sched);

        // Page state mutates at issue time, so the power fuse tears the
        // same page regardless of whether the op was queued or waited on.
        if self.fuse.is_some() {
            let fires = match &mut self.fuse {
                Some(n) => {
                    *n -= 1;
                    *n == 0
                }
                None => false,
            };
            if fires {
                self.dead = true;
                let block = &mut self.blocks[ppa.block as usize];
                block.set_page(ppa.page as usize, Page::Torn);
                block.write_point = ppa.page + 1;
                self.stats.torn_pages += 1;
                return Err(FlashError::PowerLost);
            }
        }
        // Fault model: a program-status failure leaves the page unreadable
        // (same observable state as a torn page: garbage that fails the
        // checksum), advances the write point past it, and flags the block
        // suspect. Detected by the status poll after the full tPROG, so
        // the scheduled media time stands; the extra firmware handling is
        // charged on top.
        if let Some(plan) = &mut self.fault {
            if let Some(FaultKind::ProgramFail) = plan.decide(FaultOp::Program, ppa, Some(oob.lpn))
            {
                self.stats.program_fails += 1;
                self.stats.torn_pages += 1;
                self.stats.fault_stall_ns += fault::PROGRAM_FAIL_NS;
                let block = &mut self.blocks[ppa.block as usize];
                block.set_page(ppa.page as usize, Page::Torn);
                block.write_point = ppa.page + 1;
                if self.health[ppa.block as usize] == BlockHealth::Good {
                    self.health[ppa.block as usize] = BlockHealth::Suspect;
                }
                if sync {
                    self.wait_until(sched.done);
                } else {
                    self.enqueue(&sched);
                }
                self.firmware(fault::PROGRAM_FAIL_NS);
                return Err(FlashError::ProgramFailed(ppa));
            }
        }
        oob.seq = self.seq;
        self.seq += 1;
        let block = &mut self.blocks[ppa.block as usize];
        block.set_page(
            ppa.page as usize,
            Page::Programmed(Box::new(ProgrammedPage {
                data: PageData::capture(data),
                oob,
                programmed_at: sched.done,
            })),
        );
        block.write_point = ppa.page + 1;
        if sync {
            self.wait_until(sched.done);
        } else {
            self.enqueue(&sched);
        }
        self.recorder
            .record_span(OpClass::ChipProgram, oob.tid, oob.lpn, t_entry, sched.done);
        Ok((oob, sched.done))
    }

    /// Programs a page. Fails if the page is not erased or is not the next
    /// in-order page of its block. On success the OOB is stamped with the
    /// next global sequence number, which is returned inside the final OOB.
    /// Blocks (advances the clock) until the cell program finishes.
    pub fn program(&mut self, ppa: Ppa, data: &[u8], oob: Oob) -> Result<Oob> {
        self.do_program(ppa, data, oob, 0, 0, true)
            .map(|(oob, _)| oob)
    }

    /// Queued program: validates and stamps the page immediately, advances
    /// the clock only by the command overhead, and returns the absolute
    /// completion instant alongside the stamped OOB. Programs to blocks on
    /// distinct channels overlap; [`FlashChip::drain`] (or
    /// [`FlashChip::wait_for`]) is the durability barrier. `not_before`
    /// defers the whole operation, bus transfer included — a data
    /// dependency, e.g. on the read that produces the page. `cells_after`
    /// defers only the cell program — an ordering dependency, e.g. a
    /// commit page that must not become durable before the pages it
    /// seals: its bytes may cross the bus while those are still
    /// programming.
    pub fn program_queued(
        &mut self,
        ppa: Ppa,
        data: &[u8],
        oob: Oob,
        not_before: Nanos,
        cells_after: Nanos,
    ) -> Result<(Oob, Nanos)> {
        self.do_program(ppa, data, oob, not_before, cells_after, false)
    }

    fn do_erase(&mut self, block: u32, not_before: Nanos, sync: bool) -> Result<Nanos> {
        self.check_alive()?;
        self.check_range(Ppa::new(block, 0))?;
        if self.fuse_fires() {
            // Erase is modelled as atomic: power loss before it takes effect.
            return Err(FlashError::PowerLost);
        }
        let t_entry = self.issue_at();
        self.firmware(self.config.timings.cmd_overhead_ns);
        if !sync {
            self.note_arrival();
        }
        let sched = self.sched_erase(block, not_before);
        self.stats.erases += 1;
        self.stats.busy_erase_ns += self.config.timings.cmd_overhead_ns + sched.service;
        self.note_channel_busy(&sched);
        // Fault model: a retired block fails every erase; otherwise the
        // plan may inject a first failure, which retires the block. Either
        // way the cells end up wiped (write point reset, erase counted) —
        // the failure is the device refusing to certify the block, not the
        // charge pump doing nothing — so a buggy FTL *can* still program a
        // retired block, which is exactly what the verify auditor catches.
        let fails = self.health[block as usize] == BlockHealth::Retired
            || match &mut self.fault {
                Some(plan) => matches!(
                    plan.decide(FaultOp::Erase, Ppa::new(block, 0), None),
                    Some(FaultKind::EraseFail)
                ),
                None => false,
            };
        let b = &mut self.blocks[block as usize];
        b.pages.clear();
        b.pages.shrink_to_fit();
        b.write_point = 0;
        b.erase_count += 1;
        // An erase rewrites every cell: disturb and retention damage (and
        // the ECC feedback that tracked it) reset with the charge.
        b.reads = 0;
        b.corrected_flips = 0;
        if sync {
            self.wait_until(sched.done);
        } else {
            self.enqueue(&sched);
        }
        if fails {
            self.stats.erase_fails += 1;
            self.stats.fault_stall_ns += fault::ERASE_FAIL_NS;
            self.firmware(fault::ERASE_FAIL_NS);
            self.health[block as usize] = BlockHealth::Retired;
            return Err(FlashError::EraseFailed(block));
        }
        if self.health[block as usize] == BlockHealth::Suspect {
            // A clean erase clears the suspicion left by a program fail.
            self.health[block as usize] = BlockHealth::Good;
        }
        self.recorder
            .record_span(OpClass::ChipErase, 0, u64::from(block), t_entry, sched.done);
        Ok(sched.done)
    }

    /// Erases a whole block, returning all its pages to the erased state.
    /// Blocks (advances the clock) until the erase finishes.
    pub fn erase(&mut self, block: u32) -> Result<()> {
        self.do_erase(block, 0, true).map(|_| ())
    }

    /// Queued erase: takes effect immediately in simulation, advances the
    /// clock only by the command overhead, and returns the completion
    /// instant. Overlaps with work on other units; GC uses this to erase
    /// victims while host IO proceeds on other channels.
    pub fn erase_queued(&mut self, block: u32, not_before: Nanos) -> Result<Nanos> {
        self.do_erase(block, not_before, false)
    }

    /// Reads a page's state and OOB metadata without charging simulated
    /// time or touching statistics. This is **not** a host command — it is
    /// the introspection hook the `xftl-verify` oracle uses to audit the
    /// array between operations without perturbing the timing model.
    pub fn probe_silent(&self, ppa: Ppa) -> PageProbe {
        match self.blocks[ppa.block as usize].page(ppa.page as usize) {
            Page::Erased => PageProbe::Erased,
            Page::Torn => PageProbe::Torn,
            Page::Programmed(p) => PageProbe::Programmed(p.oob),
        }
    }

    /// Reads a programmed page's contents and OOB without charging
    /// simulated time or touching statistics, bypassing the fault model.
    /// Like [`FlashChip::probe_silent`] this is **not** a host command: it
    /// is the introspection hook auditors use to decode on-flash structures
    /// (e.g. translation pages whose cache frame has been evicted) without
    /// perturbing the timing model. Returns `None` unless the page is
    /// programmed and `buf` matches the page size.
    pub fn read_silent(&self, ppa: Ppa, buf: &mut [u8]) -> Option<Oob> {
        if buf.len() != self.config.geometry.page_size {
            return None;
        }
        match self.blocks.get(ppa.block as usize)?.page(ppa.page as usize) {
            Page::Programmed(p) => {
                p.data.copy_to(buf);
                Some(p.oob)
            }
            Page::Erased | Page::Torn => None,
        }
    }

    /// Next in-order programmable page index of `block`, or `None` if full.
    pub fn write_point(&self, block: u32) -> Option<u32> {
        let b = &self.blocks[block as usize];
        if (b.write_point as usize) < self.config.geometry.pages_per_block {
            Some(b.write_point)
        } else {
            None
        }
    }

    /// Lifetime erase count of `block` (for wear statistics).
    pub fn erase_count(&self, block: u32) -> u64 {
        self.blocks[block as usize].erase_count
    }

    /// Full-page reads of `block` since its last erase (read-disturb
    /// exposure). Free introspection for the FTL's scrub policy — real
    /// firmware keeps this counter in controller SRAM.
    pub fn block_read_count(&self, block: u32) -> u64 {
        self.blocks[block as usize].reads
    }

    /// Bits ECC has corrected in `block` since its last erase — the
    /// feedback signal a scrubber ranks relocation candidates by.
    pub fn block_corrected_flips(&self, block: u32) -> u64 {
        self.blocks[block as usize].corrected_flips
    }

    /// ECC outcome of the most recent full-page read.
    pub fn last_ecc_event(&self) -> EccEvent {
        self.last_ecc
    }

    /// True if the page has never been programmed since its last erase.
    pub fn is_erased(&self, ppa: Ppa) -> bool {
        matches!(
            self.blocks[ppa.block as usize].page(ppa.page as usize),
            Page::Erased
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlashConfigBuilder;

    fn chip() -> FlashChip {
        FlashChip::new(FlashConfig::tiny(4), SimClock::new())
    }

    fn page(chip: &FlashChip, byte: u8) -> Vec<u8> {
        vec![byte; chip.config().geometry.page_size]
    }

    #[test]
    fn capture_decides_as_the_bytewise_fill_test() {
        // The byte-at-a-time test `capture` used to run, kept as its oracle.
        fn bytewise(data: &[u8]) -> Option<u8> {
            let b = *data.first()?;
            data.iter().all(|&x| x == b).then_some(b)
        }
        for size in [1, 512, 8192] {
            for fill in [0x00, 0x5A, 0xFF] {
                let constant = vec![fill; size];
                let mut pages = vec![constant.clone()];
                for at in [0, size / 2, size - 1] {
                    let mut page = constant.clone();
                    page[at] ^= 0x01;
                    pages.push(page);
                }
                for page in pages {
                    let fill = match PageData::capture(&page) {
                        PageData::Fill(b) => Some(b),
                        PageData::Bytes(bytes) => {
                            assert_eq!(&bytes[..], &page[..]);
                            None
                        }
                    };
                    assert_eq!(fill, bytewise(&page), "{size}-byte page");
                }
            }
        }
        assert!(matches!(PageData::capture(&[]), PageData::Bytes(b) if b.is_empty()));
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut c = chip();
        let data = page(&c, 0xAB);
        let oob = c.program(Ppa::new(0, 0), &data, Oob::data(42)).unwrap();
        assert_eq!(oob.lpn, 42);
        assert_eq!(oob.seq, 1);
        let mut buf = page(&c, 0);
        let read_oob = c.read(Ppa::new(0, 0), &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(read_oob, oob);
    }

    #[test]
    fn read_of_erased_page_fails() {
        let mut c = chip();
        let mut buf = page(&c, 0);
        assert_eq!(
            c.read(Ppa::new(1, 0), &mut buf),
            Err(FlashError::ReadErased(Ppa::new(1, 0)))
        );
    }

    #[test]
    fn overwrite_rejected() {
        let mut c = chip();
        let data = page(&c, 1);
        c.program(Ppa::new(0, 0), &data, Oob::data(1)).unwrap();
        c.program(Ppa::new(0, 1), &data, Oob::data(2)).unwrap();
        assert_eq!(
            c.program(Ppa::new(0, 0), &data, Oob::data(3)),
            Err(FlashError::ProgramOverwrite(Ppa::new(0, 0)))
        );
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut c = chip();
        let data = page(&c, 1);
        assert_eq!(
            c.program(Ppa::new(0, 3), &data, Oob::data(1)),
            Err(FlashError::ProgramOutOfOrder {
                ppa: Ppa::new(0, 3),
                expected_page: 0
            })
        );
    }

    #[test]
    fn erase_resets_block() {
        let mut c = chip();
        let data = page(&c, 9);
        for i in 0..8 {
            c.program(Ppa::new(2, i), &data, Oob::data(i as u64))
                .unwrap();
        }
        assert_eq!(c.write_point(2), None);
        c.erase(2).unwrap();
        assert_eq!(c.write_point(2), Some(0));
        assert_eq!(c.erase_count(2), 1);
        assert!(c.is_erased(Ppa::new(2, 5)));
        // Programmable again from page 0.
        c.program(Ppa::new(2, 0), &data, Oob::data(7)).unwrap();
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let mut c = chip();
        let data = page(&c, 3);
        let a = c.program(Ppa::new(0, 0), &data, Oob::data(1)).unwrap();
        let b = c.program(Ppa::new(1, 0), &data, Oob::data(2)).unwrap();
        assert!(b.seq > a.seq);
    }

    #[test]
    fn clock_advances_with_operations() {
        let mut c = chip();
        let t0 = c.clock().now();
        let data = page(&c, 3);
        c.program(Ppa::new(0, 0), &data, Oob::data(1)).unwrap();
        let t1 = c.clock().now();
        assert!(t1 > t0);
        let mut buf = page(&c, 0);
        c.read(Ppa::new(0, 0), &mut buf).unwrap();
        assert!(c.clock().now() > t1);
    }

    #[test]
    fn program_costs_more_than_read() {
        let mut c = chip();
        let data = page(&c, 3);
        let t0 = c.clock().now();
        c.program(Ppa::new(0, 0), &data, Oob::data(1)).unwrap();
        let prog_cost = c.clock().now() - t0;
        let mut buf = page(&c, 0);
        let t1 = c.clock().now();
        c.read(Ppa::new(0, 0), &mut buf).unwrap();
        let read_cost = c.clock().now() - t1;
        assert!(prog_cost > read_cost);
    }

    #[test]
    fn probe_reports_states() {
        let mut c = chip();
        assert_eq!(c.probe(Ppa::new(0, 0)).unwrap(), PageProbe::Erased);
        let data = page(&c, 3);
        let oob = c.program(Ppa::new(0, 0), &data, Oob::data(5)).unwrap();
        assert_eq!(c.probe(Ppa::new(0, 0)).unwrap(), PageProbe::Programmed(oob));
    }

    #[test]
    fn power_fuse_tears_inflight_program() {
        let mut c = chip();
        let data = page(&c, 3);
        c.program(Ppa::new(0, 0), &data, Oob::data(1)).unwrap();
        c.arm_power_fuse(1);
        assert_eq!(
            c.program(Ppa::new(0, 1), &data, Oob::data(2)),
            Err(FlashError::PowerLost)
        );
        assert!(c.is_dead());
        // Everything fails until power-cycled.
        let mut buf = page(&c, 0);
        assert_eq!(c.read(Ppa::new(0, 0), &mut buf), Err(FlashError::PowerLost));
        c.power_cycle();
        // Survivor page intact, torn page detectable.
        assert!(c.read(Ppa::new(0, 0), &mut buf).is_ok());
        assert_eq!(c.probe(Ppa::new(0, 1)).unwrap(), PageProbe::Torn);
        assert_eq!(
            c.read(Ppa::new(0, 1), &mut buf),
            Err(FlashError::TornPage(Ppa::new(0, 1)))
        );
        // Write point moved past the torn page: block still usable in order.
        assert_eq!(c.write_point(0), Some(2));
        c.program(Ppa::new(0, 2), &data, Oob::data(3)).unwrap();
    }

    #[test]
    fn fuse_counts_down_across_ops() {
        let mut c = chip();
        let data = page(&c, 3);
        c.arm_power_fuse(3);
        c.program(Ppa::new(0, 0), &data, Oob::data(1)).unwrap();
        c.program(Ppa::new(0, 1), &data, Oob::data(2)).unwrap();
        assert_eq!(
            c.program(Ppa::new(0, 2), &data, Oob::data(3)),
            Err(FlashError::PowerLost)
        );
    }

    #[test]
    fn bad_buffer_size_rejected() {
        let mut c = chip();
        assert!(matches!(
            c.program(Ppa::new(0, 0), &[0u8; 3], Oob::data(1)),
            Err(FlashError::BadBufferSize { .. })
        ));
    }

    #[test]
    fn stats_count_operations() {
        let mut c = chip();
        let data = page(&c, 3);
        c.program(Ppa::new(0, 0), &data, Oob::data(1)).unwrap();
        let mut buf = page(&c, 0);
        c.read(Ppa::new(0, 0), &mut buf).unwrap();
        c.erase(1).unwrap();
        c.probe(Ppa::new(0, 0)).unwrap();
        let s = c.stats();
        assert_eq!(s.programs, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.erases, 1);
        assert_eq!(s.oob_reads, 1);
        assert!(s.busy_program_ns > 0 && s.busy_read_ns > 0 && s.busy_erase_ns > 0);
        // Single-channel chip: all media time lands on channel 0.
        assert!(s.busy_channel_ns[0] > 0);
        assert_eq!(s.busy_channel_ns[1], 0);
    }

    #[test]
    fn fill_and_mixed_contents_roundtrip() {
        // Constant-fill pages compress internally; pages with mixed bytes
        // do not. Both must read back exactly.
        let mut c = chip();
        let fill = page(&c, 0x5A);
        let mut mixed = page(&c, 0);
        for (i, b) in mixed.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        c.program(Ppa::new(0, 0), &fill, Oob::data(1)).unwrap();
        c.program(Ppa::new(0, 1), &mixed, Oob::data(2)).unwrap();
        let mut buf = page(&c, 0);
        c.read(Ppa::new(0, 0), &mut buf).unwrap();
        assert_eq!(buf, fill);
        c.read(Ppa::new(0, 1), &mut buf).unwrap();
        assert_eq!(buf, mixed);
    }

    #[test]
    fn read_silent_sees_contents_without_time_or_stats() {
        let mut c = chip();
        let data = page(&c, 0x77);
        let oob = c.program(Ppa::new(1, 0), &data, Oob::data(9)).unwrap();
        let t = c.clock().now();
        let stats = *c.stats();
        let mut buf = page(&c, 0);
        assert_eq!(c.read_silent(Ppa::new(1, 0), &mut buf), Some(oob));
        assert_eq!(buf, data);
        // Erased and torn pages yield None instead of an error.
        assert_eq!(c.read_silent(Ppa::new(1, 1), &mut buf), None);
        assert_eq!(c.clock().now(), t, "silent read must not charge time");
        assert_eq!(c.stats(), &stats, "silent read must not touch stats");
    }

    #[test]
    fn linear_ppa_roundtrip() {
        let ppa = Ppa::new(3, 5);
        let lin = ppa.linear(8);
        assert_eq!(lin, 29);
        assert_eq!(Ppa::from_linear(lin, 8), ppa);
    }

    // --- channel model & queue ------------------------------------------------

    fn chip_with(channels: u32, ways: u32, blocks: usize) -> FlashChip {
        let cfg = FlashConfigBuilder::tiny()
            .blocks(blocks)
            .channels(channels)
            .ways(ways)
            .build();
        FlashChip::new(cfg, SimClock::new())
    }

    /// Serial cost of `n` programs on a dedicated single-channel chip.
    fn serial_program_cost(n: u64) -> u64 {
        let mut c = chip_with(1, 1, 8);
        let data = page(&c, 7);
        let t0 = c.clock().now();
        for i in 0..n {
            c.program(Ppa::new(i as u32, 0), &data, Oob::data(i))
                .unwrap();
        }
        c.clock().now() - t0
    }

    #[test]
    fn queued_programs_on_distinct_channels_overlap() {
        let mut c = chip_with(2, 1, 8);
        let data = page(&c, 7);
        let t0 = c.clock().now();
        // Blocks 0 and 1 stripe onto channels 0 and 1.
        c.program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        c.program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        let elapsed = c.drain() - t0;
        let serial = serial_program_cost(2);
        assert!(
            elapsed < serial,
            "two-channel batch ({elapsed} ns) should beat serial ({serial} ns)"
        );
        // Both channels saw media work.
        assert!(c.stats().busy_channel_ns[0] > 0);
        assert!(c.stats().busy_channel_ns[1] > 0);
    }

    #[test]
    fn queued_programs_on_same_unit_serialize() {
        let mut c = chip_with(2, 1, 8);
        let data = page(&c, 7);
        let t0 = c.clock().now();
        // Blocks 0 and 2 both live on channel 0, way 0.
        c.program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        c.program_queued(Ppa::new(2, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        let same_unit = c.drain() - t0;

        let mut c2 = chip_with(2, 1, 8);
        let t0 = c2.clock().now();
        c2.program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        c2.program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        let distinct = c2.drain() - t0;

        assert!(
            same_unit > distinct,
            "same-unit batch ({same_unit} ns) must serialize vs distinct channels ({distinct} ns)"
        );
        // The second same-unit program waited for the first's cell time.
        assert!(c.stats().queue_wait_ns > 0);
    }

    #[test]
    fn ways_overlap_cell_work_on_shared_bus() {
        // 1 channel × 2 ways: blocks 0 and 1 share the bus but have
        // independent cell arrays, so two programs beat strict serial.
        let mut c = chip_with(1, 2, 8);
        let data = page(&c, 7);
        let t0 = c.clock().now();
        c.program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        c.program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        let elapsed = c.drain() - t0;
        assert!(elapsed < serial_program_cost(2));
    }

    #[test]
    fn queued_op_defers_clock_until_drain() {
        let mut c = chip_with(1, 1, 4);
        let data = page(&c, 1);
        let t0 = c.clock().now();
        let (_, done) = c
            .program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        // Only the firmware overhead has been charged so far.
        assert_eq!(c.clock().now() - t0, c.config().timings.cmd_overhead_ns);
        assert!(done > c.clock().now());
        assert_eq!(c.outstanding_ops(), 1);
        // Data is already visible in simulation (issue-time mutation)...
        let mut buf = page(&c, 0);
        // ...but a dependent sync read schedules after the program's cell
        // time, so the clock lands past the program completion.
        c.read(Ppa::new(0, 0), &mut buf).unwrap();
        assert!(c.clock().now() > done);
        assert_eq!(c.outstanding_ops(), 0);
        c.drain();
    }

    #[test]
    fn not_before_defers_start() {
        let mut c = chip_with(2, 1, 8);
        let data = page(&c, 1);
        let gate = c.clock().now() + 50 * crate::clock::MILLI;
        let (_, done) = c
            .program_queued(Ppa::new(0, 0), &data, Oob::data(0), gate, 0)
            .unwrap();
        assert!(done >= gate + c.config().timings.program_ns);
    }

    #[test]
    fn cells_after_orders_the_cell_program_and_lets_the_transfer_go_ahead() {
        let cfg = *chip_with(1, 1, 8).config();
        let t = cfg.timings;
        let xfer = cfg.geometry.page_size as u64 * t.channel_ns_per_byte;
        // One channel, one unit: a data page, then a page that must land
        // after it, ordered each way.
        let ordered = |whole_op: bool| {
            let mut c = chip_with(1, 1, 8);
            let data = page(&c, 1);
            let (_, first) = c
                .program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
                .unwrap();
            let gate = c.idle_at();
            assert_eq!(gate, first);
            let (nb, ca) = if whole_op { (gate, 0) } else { (0, gate) };
            let (_, second) = c
                .program_queued(Ppa::new(1, 0), &data, Oob::data(1), nb, ca)
                .unwrap();
            (first, second)
        };
        let (first, behind) = ordered(true);
        assert_eq!(behind, first + xfer + t.program_ns);
        // Cell-only: the bytes cross the idle bus under the first page's
        // tPROG, and the cells start the instant it ends — never earlier.
        let (first, behind) = ordered(false);
        assert!(xfer < t.program_ns);
        assert_eq!(behind, first + t.program_ns);
    }

    #[test]
    fn queue_depth_histogram_counts_arrivals() {
        let mut c = chip_with(4, 1, 8);
        let data = page(&c, 1);
        for b in 0..4u32 {
            c.program_queued(Ppa::new(b, 0), &data, Oob::data(b as u64), 0, 0)
                .unwrap();
        }
        c.drain();
        let s = *c.stats();
        assert_eq!(s.queued_ops(), 4);
        // Later arrivals saw earlier commands still in flight.
        assert!(s.queue_depth_hist[1..].iter().sum::<u64>() > 0);
        assert!(s.mean_queue_depth() > 0.0);
        // After the drain the queue is empty again.
        assert_eq!(c.outstanding_ops(), 0);
    }

    #[test]
    fn wait_for_is_a_partial_barrier() {
        let mut c = chip_with(2, 1, 8);
        let data = page(&c, 1);
        let (_, done_a) = c
            .program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        let (_, done_b) = c
            .program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        assert!(done_a > 0 && done_b > 0); // both scheduled
        c.wait_for(done_a.min(done_b));
        assert_eq!(c.clock().now(), done_a.min(done_b));
        assert_eq!(c.outstanding_ops(), 1);
        c.drain();
        assert_eq!(c.clock().now(), done_a.max(done_b));
    }

    #[test]
    fn idle_at_names_the_drain_instant_without_waiting() {
        let mut c = chip_with(2, 1, 8);
        let data = page(&c, 1);
        assert_eq!(c.idle_at(), c.clock().now(), "an idle array is idle now");
        let (_, done_a) = c
            .program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        let (_, done_b) = c
            .program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        let now = c.clock().now();
        assert_eq!(c.idle_at(), done_a.max(done_b));
        assert_eq!(c.clock().now(), now, "idle_at advances nothing");
        assert_eq!(c.outstanding_ops(), 2);
        // A program ordered behind it starts no earlier, on any channel.
        let (_, done_c) = c
            .program_queued(Ppa::new(1, 1), &data, Oob::data(2), c.idle_at(), 0)
            .unwrap();
        let t = c.config().timings;
        let xfer = c.config().geometry.page_size as u64 * t.channel_ns_per_byte;
        assert_eq!(done_c, done_a.max(done_b) + xfer + t.program_ns);
        assert_eq!(c.drain(), done_c);
    }

    #[test]
    fn erase_overlaps_with_program_on_other_channel() {
        let mut c = chip_with(2, 1, 8);
        let data = page(&c, 1);
        c.program(Ppa::new(0, 0), &data, Oob::data(0)).unwrap();
        let t0 = c.clock().now();
        // Erase block 0 (channel 0) while programming block 1 (channel 1).
        c.erase_queued(0, 0).unwrap();
        c.program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        let elapsed = c.drain() - t0;
        let t = c.config().timings;
        let serial = 2 * t.cmd_overhead_ns
            + t.erase_ns
            + t.program_ns
            + c.config().geometry.page_size as u64 * t.channel_ns_per_byte;
        assert!(elapsed < serial);
    }

    // --- fault injection ------------------------------------------------------

    use crate::fault::{FaultKind, FaultPlan, FaultTrigger};

    #[test]
    fn program_fail_tears_page_and_marks_block_suspect() {
        let mut c = chip();
        c.set_fault_plan(
            FaultPlan::new(1).trigger(FaultTrigger::new(FaultKind::ProgramFail).on_block(2)),
        );
        let data = page(&c, 3);
        assert_eq!(
            c.program(Ppa::new(2, 0), &data, Oob::data(1)),
            Err(FlashError::ProgramFailed(Ppa::new(2, 0)))
        );
        // The failed page is unreadable and the write point moved past it.
        assert_eq!(c.probe(Ppa::new(2, 0)).unwrap(), PageProbe::Torn);
        assert_eq!(c.write_point(2), Some(1));
        assert_eq!(c.block_health(2), BlockHealth::Suspect);
        assert_eq!(c.stats().program_fails, 1);
        // Trigger consumed: the retry in the same block succeeds.
        c.program(Ppa::new(2, 1), &data, Oob::data(1)).unwrap();
        // A clean erase rehabilitates the suspect block.
        c.erase(2).unwrap();
        assert_eq!(c.block_health(2), BlockHealth::Good);
    }

    #[test]
    fn erase_fail_retires_block_permanently() {
        let mut c = chip();
        let data = page(&c, 5);
        c.program(Ppa::new(3, 0), &data, Oob::data(1)).unwrap();
        c.set_fault_plan(
            FaultPlan::new(1).trigger(FaultTrigger::new(FaultKind::EraseFail).on_block(3)),
        );
        assert_eq!(c.erase(3), Err(FlashError::EraseFailed(3)));
        assert_eq!(c.block_health(3), BlockHealth::Retired);
        assert_eq!(c.retired_blocks(), vec![3]);
        // The trigger was consumed, yet every later erase still fails:
        // retirement is permanent device state.
        assert_eq!(c.erase(3), Err(FlashError::EraseFailed(3)));
        assert_eq!(c.stats().erase_fails, 2);
        // The cells did wipe (the device just refuses to certify them), so
        // a buggy FTL could still program here — the auditor's job.
        assert!(c.is_erased(Ppa::new(3, 0)));
        c.program(Ppa::new(3, 0), &data, Oob::data(2)).unwrap();
    }

    #[test]
    fn correctable_read_succeeds_with_stall() {
        let mut c = chip();
        let data = page(&c, 7);
        c.program(Ppa::new(2, 0), &data, Oob::data(9)).unwrap();
        c.set_fault_plan(
            FaultPlan::new(1)
                .trigger(FaultTrigger::new(FaultKind::ReadFlips(1)).on_ppa(Ppa::new(2, 0))),
        );
        let before = c.clock().now();
        let mut buf = page(&c, 0);
        let oob = c.read(Ppa::new(2, 0), &mut buf).unwrap();
        assert_eq!(oob.lpn, 9);
        assert_eq!(buf, data);
        assert_eq!(c.stats().corrected_reads, 1);
        let plain_chip_read_cost = {
            let mut c2 = chip();
            c2.program(Ppa::new(2, 0), &data, Oob::data(9)).unwrap();
            let t = c2.clock().now();
            c2.read(Ppa::new(2, 0), &mut buf).unwrap();
            c2.clock().now() - t
        };
        assert!(
            c.clock().now() - before > plain_chip_read_cost,
            "correction must cost extra simulated time"
        );
    }

    #[test]
    fn uncorrectable_read_fails_but_preserves_page() {
        let mut c = chip();
        let data = page(&c, 7);
        c.program(Ppa::new(2, 0), &data, Oob::data(9)).unwrap();
        c.set_fault_plan(
            FaultPlan::new(1)
                .trigger(FaultTrigger::new(FaultKind::ReadFlips(1_000)).on_ppa(Ppa::new(2, 0))),
        );
        let mut buf = page(&c, 0);
        assert_eq!(
            c.read(Ppa::new(2, 0), &mut buf),
            Err(FlashError::Uncorrectable(Ppa::new(2, 0)))
        );
        assert_eq!(c.stats().uncorrectable_reads, 1);
        assert!(c.stats().fault_stall_ns > 0);
        // Transient: the one-shot trigger is spent, the retry decodes.
        assert!(c.read(Ppa::new(2, 0), &mut buf).is_ok());
        assert_eq!(buf, data);
    }

    #[test]
    fn sticky_uncorrectable_models_dead_page() {
        let mut c = chip();
        let data = page(&c, 7);
        c.program(Ppa::new(2, 0), &data, Oob::data(9)).unwrap();
        c.set_fault_plan(
            FaultPlan::new(1).trigger(
                FaultTrigger::new(FaultKind::ReadFlips(1_000))
                    .on_ppa(Ppa::new(2, 0))
                    .sticky(),
            ),
        );
        let mut buf = page(&c, 0);
        for _ in 0..3 {
            assert!(matches!(
                c.read(Ppa::new(2, 0), &mut buf),
                Err(FlashError::Uncorrectable(_))
            ));
        }
        // The OOB still probes fine: recovery scans keep working.
        assert!(matches!(
            c.probe(Ppa::new(2, 0)).unwrap(),
            PageProbe::Programmed(_)
        ));
    }

    #[test]
    fn read_disturb_ages_block_to_uncorrectable() {
        use crate::fault::{AgingModel, EccEvent};
        let mut c = chip();
        let data = page(&c, 7);
        c.program(Ppa::new(2, 0), &data, Oob::data(9)).unwrap();
        // One flip every 10 reads past 50; ECC corrects 8 bits, so reads
        // 51..=130 correct and read 141+ fails.
        c.set_fault_plan(FaultPlan::new(1).aging(AgingModel {
            read_disturb_threshold: 50,
            reads_per_flip: 10,
            ..AgingModel::inert()
        }));
        let mut buf = page(&c, 0);
        for _ in 0..50 {
            c.read(Ppa::new(2, 0), &mut buf).unwrap();
        }
        assert_eq!(c.last_ecc_event(), EccEvent::Clean);
        assert_eq!(c.stats().corrected_reads, 0);
        for _ in 0..80 {
            c.read(Ppa::new(2, 0), &mut buf).unwrap();
        }
        assert!(matches!(c.last_ecc_event(), EccEvent::Corrected(_)));
        assert!(c.stats().corrected_reads > 0);
        assert!(c.stats().aging_flips > 0);
        assert!(c.block_corrected_flips(2) > 0);
        assert_eq!(c.block_read_count(2), 130);
        for _ in 0..11 {
            let read = c.read(Ppa::new(2, 0), &mut buf);
            assert!(matches!(read, Ok(_) | Err(FlashError::Uncorrectable(_))));
        }
        assert_eq!(
            c.read(Ppa::new(2, 0), &mut buf),
            Err(FlashError::Uncorrectable(Ppa::new(2, 0)))
        );
        assert!(matches!(c.last_ecc_event(), EccEvent::Uncorrectable(_)));
        assert!(c.stats().aging_uncorrectable > 0);
        // OOB still probes: recovery scans survive aged-out data pages.
        assert!(matches!(
            c.probe(Ppa::new(2, 0)).unwrap(),
            PageProbe::Programmed(_)
        ));
        // An erase heals the disturb damage entirely.
        c.erase(2).unwrap();
        assert_eq!(c.block_read_count(2), 0);
        assert_eq!(c.block_corrected_flips(2), 0);
        c.program(Ppa::new(2, 0), &data, Oob::data(9)).unwrap();
        c.read(Ppa::new(2, 0), &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn retention_ages_old_data() {
        use crate::fault::AgingModel;
        let mut c = chip();
        let data = page(&c, 7);
        c.program(Ppa::new(2, 0), &data, Oob::data(9)).unwrap();
        let ns_per_flip = crate::clock::SECOND;
        c.set_fault_plan(FaultPlan::new(1).aging(AgingModel {
            retention_threshold_ns: crate::clock::SECOND,
            retention_ns_per_flip: ns_per_flip,
            ..AgingModel::inert()
        }));
        let mut buf = page(&c, 0);
        c.read(Ppa::new(2, 0), &mut buf).unwrap();
        assert_eq!(
            c.stats().aging_flips,
            0,
            "fresh data has no retention flips"
        );
        // Age the data far past the ECC budget (8 bits): 30 flips' worth.
        c.clock().advance(31 * ns_per_flip);
        assert_eq!(
            c.read(Ppa::new(2, 0), &mut buf),
            Err(FlashError::Uncorrectable(Ppa::new(2, 0)))
        );
        // Freshly rewritten data on another block decodes fine.
        c.program(Ppa::new(3, 0), &data, Oob::data(9)).unwrap();
        c.read(Ppa::new(3, 0), &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn aging_spares_exempt_blocks() {
        use crate::fault::AgingModel;
        let mut c = chip();
        let data = page(&c, 7);
        c.program(Ppa::new(0, 0), &data, Oob::data(1)).unwrap();
        c.set_fault_plan(FaultPlan::new(1).aging(AgingModel {
            read_disturb_threshold: 0,
            reads_per_flip: 1,
            ..AgingModel::inert()
        }));
        let mut buf = page(&c, 0);
        // Block 0 is exempt (meta ring): unlimited reads stay clean.
        for _ in 0..100 {
            c.read(Ppa::new(0, 0), &mut buf).unwrap();
        }
        assert_eq!(c.stats().uncorrectable_reads, 0);
    }

    #[test]
    fn fault_plan_survives_power_cycle() {
        let mut c = chip();
        let data = page(&c, 1);
        c.set_fault_plan(
            FaultPlan::new(1).trigger(FaultTrigger::new(FaultKind::EraseFail).on_block(2)),
        );
        c.program(Ppa::new(3, 0), &data, Oob::data(1)).unwrap();
        assert_eq!(c.erase(2), Err(FlashError::EraseFailed(2)));
        c.arm_power_fuse(1);
        assert_eq!(
            c.program(Ppa::new(3, 1), &data, Oob::data(2)),
            Err(FlashError::PowerLost)
        );
        assert!(c.is_dead());
        c.power_cycle();
        // Health and the plan survived the cycle.
        assert_eq!(c.block_health(2), BlockHealth::Retired);
        assert!(c.fault_plan().is_some());
        assert_eq!(c.erase(2), Err(FlashError::EraseFailed(2)));
    }

    #[test]
    fn power_cycle_resets_queue_timing_state() {
        // A queued program dies with power. Without the explicit
        // busy-timestamp reset, the next boot's first command would wait
        // on a phantom busy channel left by the dead operation.
        let mut c = chip();
        let data = page(&c, 1);
        c.program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        c.arm_power_fuse(1);
        assert_eq!(
            c.program_queued(Ppa::new(0, 1), &data, Oob::data(1), 0, 0),
            Err(FlashError::PowerLost)
        );
        c.power_cycle();
        assert_eq!(c.outstanding_ops(), 0);
        let fresh_cost = {
            let mut c2 = chip();
            let t = c2.clock().now();
            c2.program(Ppa::new(1, 0), &data, Oob::data(2)).unwrap();
            c2.clock().now() - t
        };
        let t = c.clock().now();
        c.program(Ppa::new(1, 0), &data, Oob::data(2)).unwrap();
        let post_cycle_cost = c.clock().now() - t;
        assert_eq!(
            post_cycle_cost, fresh_cost,
            "first program after a power cycle must not inherit queue waits"
        );
    }

    #[test]
    fn background_faults_are_deterministic() {
        let run = || {
            let mut c = chip_with(2, 1, 16);
            c.set_fault_plan(FaultPlan::background(42, 0.05, 0.05, 0.1, 0.02));
            let data = page(&c, 9);
            let mut buf = page(&c, 0);
            // Every outcome, in order: the schedule must replay op by op.
            let mut outcomes = Vec::new();
            for round in 0..4u64 {
                for b in 2..16u32 {
                    for p in 0..8u32 {
                        outcomes.push(c.program(Ppa::new(b, p), &data, Oob::data(round)).map(Some));
                    }
                }
                for b in 2..16u32 {
                    for p in 0..8u32 {
                        outcomes.push(c.read(Ppa::new(b, p), &mut buf).map(Some));
                    }
                }
                for b in 2..16u32 {
                    outcomes.push(c.erase(b).map(|()| None));
                }
            }
            (c.clock().now(), *c.stats(), c.retired_blocks(), outcomes)
        };
        let (t1, s1, r1, o1) = run();
        let (t2, s2, r2, o2) = run();
        assert_eq!((t1, s1, r1.clone(), o1), (t2, s2, r2, o2));
        // The rates were high enough that every fault class fired.
        assert!(s1.program_fails > 0);
        assert!(s1.erase_fails > 0);
        assert!(s1.corrected_reads > 0);
        assert!(s1.uncorrectable_reads > 0);
        assert!(!r1.is_empty());
    }

    #[test]
    fn chip_timing_is_deterministic() {
        let run = || {
            let mut c = chip_with(4, 2, 32);
            let data = page(&c, 5);
            for i in 0..16u32 {
                c.program_queued(Ppa::new(i % 32, 0), &data, Oob::data(i as u64), 0, 0)
                    .unwrap();
            }
            c.drain();
            for b in 0..4u32 {
                c.erase_queued(b, 0).unwrap();
            }
            c.drain();
            (c.clock().now(), *c.stats())
        };
        assert_eq!(run(), run());
    }

    // --- the background cursor -------------------------------------------------

    /// A one-unit chip with a host program queued at instant zero, the
    /// host then idle until `think` past the ack: the chip and the ack.
    fn acked_then_thinking(think: Nanos) -> (FlashChip, Nanos) {
        let mut c = chip_with(1, 1, 8);
        let data = page(&c, 1);
        c.program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        let ack = c.clock().now();
        c.clock().advance(think);
        (c, ack)
    }

    #[test]
    fn a_background_command_not_started_by_the_arrival_lets_the_host_go_first() {
        let (mut c, ack) = acked_then_thinking(0);
        let busy = c.idle_at();
        let arrival = c.clock().now();
        c.begin_background(ack);
        // The unit is busy past the arrival: a background program would
        // start when it frees, so the host's command goes first.
        let start = c.background_start().unwrap();
        assert_eq!(start, busy);
        assert!(start >= arrival);
        c.end_background();
        assert_eq!(c.clock().now(), arrival, "nothing was dispatched");
        let data = page(&c, 2);
        let (_, done) = c
            .program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        assert_eq!(done, busy + c.config().timings.program_ns);
    }

    #[test]
    fn a_background_command_started_before_the_arrival_finishes_first() {
        let t = chip_with(1, 1, 8).config().timings;
        let (mut c, ack) = acked_then_thinking(3 * t.program_ns / 2);
        let arrival = c.clock().now();
        c.begin_background(ack);
        assert!(c.background_start().unwrap() < arrival);
        let data = page(&c, 2);
        let (_, merged) = c
            .program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        c.end_background();
        assert!(merged > arrival, "still programming when the host arrives");
        let (_, host) = c
            .program_queued(Ppa::new(2, 0), &data, Oob::data(2), 0, 0)
            .unwrap();
        assert_eq!(host, merged + t.program_ns, "queued behind it");
    }

    #[test]
    fn background_dispatch_and_waits_leave_the_host_clock_alone() {
        let t = chip_with(1, 1, 8).config().timings;
        let (mut c, ack) = acked_then_thinking(10 * t.program_ns);
        let arrival = c.clock().now();
        let (recorder, before) = (Telemetry::new(), c.stats().programs);
        c.set_recorder(recorder.clone());
        c.begin_background(ack);
        let mut buf = page(&c, 0);
        c.read(Ppa::new(0, 0), &mut buf).unwrap();
        let data = page(&c, 3);
        c.program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        assert_eq!(c.clock().now(), arrival);
        c.end_background();
        assert_eq!(c.clock().now(), arrival, "the firmware was done by then");
        assert_eq!(c.stats().programs, before + 1);
        // Back-dated: the program's span starts where the read ended,
        // long before the arrival, and runs its whole course.
        let program = recorder.hist(OpClass::ChipProgram);
        assert_eq!(program.count(), 1);
        assert_eq!(
            program.max(),
            t.cmd_overhead_ns + page_xfer(&c) + t.program_ns
        );
    }

    #[test]
    fn a_host_command_waits_for_background_firmware_past_its_arrival() {
        let t = chip_with(1, 1, 8).config().timings;
        let (mut c, ack) = acked_then_thinking(0);
        let busy = c.idle_at();
        c.clock()
            .advance(busy - c.clock().now() + t.cmd_overhead_ns / 2);
        let arrival = c.clock().now();
        c.begin_background(ack);
        // The unit frees before the arrival; the base read's dispatch
        // and media time run past it.
        assert!(c.background_start().unwrap() < arrival);
        let mut buf = page(&c, 0);
        c.read(Ppa::new(0, 0), &mut buf).unwrap();
        c.end_background();
        assert!(c.clock().now() > arrival);
        assert_eq!(c.clock().now(), busy + t.read_ns + page_xfer(&c));
    }

    fn page_xfer(c: &FlashChip) -> Nanos {
        c.config().geometry.page_size as u64 * c.config().timings.channel_ns_per_byte
    }

    #[test]
    fn a_wait_splits_by_work_and_the_parts_sum_to_it() {
        let mut c = chip_with(1, 1, 8);
        let data = page(&c, 4);
        c.program_queued(Ppa::new(0, 0), &data, Oob::data(0), 0, 0)
            .unwrap();
        c.set_collecting(true);
        c.program_queued(Ppa::new(1, 0), &data, Oob::data(1), 0, 0)
            .unwrap();
        c.erase_queued(2, 0).unwrap();
        c.set_collecting(false);
        c.begin_background(c.clock().now());
        c.program_queued(Ppa::new(3, 0), &data, Oob::data(3), 0, 0)
            .unwrap();
        c.end_background();
        let from = c.clock().now();
        let parts = c.wait_by_work(from);
        assert_eq!(parts.iter().sum::<Nanos>(), c.idle_at() - from);
        let t = c.config().timings;
        assert!(parts[Work::Collect as usize] >= t.program_ns + t.erase_ns);
        assert!(parts[Work::Background as usize] >= t.program_ns);
        assert!(parts[Work::Host as usize] > 0 && parts[Work::Host as usize] < t.program_ns);
        assert_eq!(c.wait_by_work(c.idle_at()), [0; 3]);
    }
}
