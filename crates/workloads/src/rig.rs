//! Experiment rig: assembles the full stack — flash chip, FTL personality,
//! SATA link, file system, database — for one experimental configuration,
//! and provides crash/recover plumbing and cross-layer statistics
//! snapshots (the rows of the paper's Table 1).

use std::cell::RefCell;
use std::rc::Rc;

use xftl_core::XFtl;
use xftl_db::{Connection, DbJournalMode, SharedFs};
use xftl_flash::{AgingModel, FaultPlan, FlashChip, FlashConfigBuilder, Nanos, SimClock};
use xftl_fs::{FileSystem, FsConfig, FsError, FsStats, Ino, JournalMode};
use xftl_ftl::{
    BlockDevice, CmdId, CommitTicket, DevCounters, DevError, DeviceState, FtlBase, FtlStats,
    GcPolicy, IoCmd, LinkConfig, Lpn, PageMappedFtl, Personality, RecoveryBreakdown, Result,
    SataLink, ScrubConfig, Tid, TxBlockDevice,
};

use xftl_trace::Telemetry;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three system configurations the paper compares (§6.3): SQLite in
/// rollback or WAL mode over the original FTL, or journaling off over
/// X-FTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Rollback journal on the plain page-mapping FTL, ext4 ordered.
    Rbj,
    /// Write-ahead log on the plain page-mapping FTL, ext4 ordered.
    Wal,
    /// Journaling off on X-FTL; file-system journaling off too.
    XFtl,
}

impl Mode {
    /// The SQLite journal mode for this configuration.
    pub fn db_mode(self) -> DbJournalMode {
        match self {
            Mode::Rbj => DbJournalMode::Rollback,
            Mode::Wal => DbJournalMode::Wal,
            Mode::XFtl => DbJournalMode::Off,
        }
    }

    /// The file-system journal mode for this configuration.
    pub fn fs_mode(self) -> JournalMode {
        match self {
            Mode::Rbj | Mode::Wal => JournalMode::Ordered,
            Mode::XFtl => JournalMode::Off,
        }
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Rbj => "RBJ",
            Mode::Wal => "WAL",
            Mode::XFtl => "X-FTL",
        }
    }
}

/// Hardware profile: the OpenSSD development board or the newer Samsung
/// S830 consumer SSD of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs, reason = "variants are the devices named above")]
pub enum Profile {
    OpenSsd,
    S830,
}

/// A device of either FTL personality the rig builds — by default each
/// behind its SATA link. The forwarding below is generic over the two
/// slots, so a test harness that wraps the personalities differently
/// (say, in the shadow oracle) reuses it instead of hand-copying it and
/// forgetting a defaulted method.
#[derive(Debug)]
#[allow(missing_docs, reason = "one variant per device class, named above")]
#[allow(
    clippy::large_enum_variant,
    reason = "one AnyDev exists per rig, never in collections: boxing the X-FTL variant would only add indirection to every forwarded device call"
)]
pub enum AnyDev<P = SataLink<PageMappedFtl>, T = SataLink<XFtl>> {
    Plain(P),
    X(T),
}

macro_rules! fwd {
    ($self:ident, $d:ident => $body:expr) => {
        match $self {
            AnyDev::Plain($d) => $body,
            AnyDev::X($d) => $body,
        }
    };
}

impl<P: BlockDevice, T: BlockDevice> BlockDevice for AnyDev<P, T> {
    fn page_size(&self) -> usize {
        fwd!(self, d => d.page_size())
    }
    fn capacity_pages(&self) -> u64 {
        fwd!(self, d => d.capacity_pages())
    }
    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        fwd!(self, d => d.read(lpn, buf))
    }
    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
        fwd!(self, d => d.write(lpn, buf))
    }
    fn trim(&mut self, lpn: Lpn) -> Result<()> {
        fwd!(self, d => d.trim(lpn))
    }
    fn flush(&mut self) -> Result<()> {
        fwd!(self, d => d.flush())
    }
    fn counters(&self) -> DevCounters {
        fwd!(self, d => d.counters())
    }
    fn submit(&mut self, cmds: &[IoCmd<'_>]) -> Result<CmdId> {
        fwd!(self, d => d.submit(cmds))
    }
    fn complete_until(&mut self, barrier: CmdId) -> Result<()> {
        fwd!(self, d => d.complete_until(barrier))
    }
}

/// The enum erases the FTL personality, so the compile-time
/// `TxBlockDevice` capability becomes an invariant of whoever builds it:
/// only [`AnyDev::X`] actually speaks the transactional commands, and the
/// rig builds `Off`-mode volumes only over that personality. Reaching a tx
/// command on another personality is a configuration bug and panics.
/// Every method is forwarded, the defaulted ones included — a wrapper
/// that lets `begin` fall back to the trait's no-op silently degrades
/// snapshot reads to read-committed.
impl<P: BlockDevice, T: TxBlockDevice> TxBlockDevice for AnyDev<P, T> {
    fn begin(&mut self, tid: Tid) -> Result<()> {
        self.x().begin(tid)
    }
    fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.x().read_tx(tid, lpn, buf)
    }
    fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()> {
        self.x().write_tx(tid, lpn, buf)
    }
    fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
        self.x().commit_submit(tid)
    }
    fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
        self.x().commit_wait(ticket)
    }
    fn commit(&mut self, tid: Tid) -> Result<()> {
        self.x().commit(tid)
    }
    fn abort(&mut self, tid: Tid) -> Result<()> {
        self.x().abort(tid)
    }
    fn submit_tx(&mut self, tid: Tid, pages: &[(Lpn, &[u8])]) -> Result<CmdId> {
        self.x().submit_tx(tid, pages)
    }
}

impl<P, T> AnyDev<P, T> {
    /// The one personality that speaks the transactional commands.
    fn x(&mut self) -> &mut T {
        match self {
            AnyDev::X(d) => d,
            AnyDev::Plain(_) => panic!("rig bug: transactional command on the plain FTL"),
        }
    }
}

impl AnyDev {
    /// The shared FTL engine of whichever personality is inside.
    fn base(&self) -> &FtlBase {
        fwd!(self, d => d.inner().base())
    }

    fn base_mut(&mut self) -> &mut FtlBase {
        fwd!(self, d => d.inner_mut().base_mut())
    }

    /// FTL-attributed statistics of whichever personality is inside.
    pub fn ftl_stats(&self) -> FtlStats {
        *self.base().stats()
    }

    /// Raw flash statistics.
    pub fn flash_stats(&self) -> xftl_flash::FlashStats {
        self.base().flash_stats()
    }

    /// Resets device statistics (chip + FTL counters).
    pub fn reset_stats(&mut self) {
        self.base_mut().reset_stats();
    }

    /// The telemetry handle installed on the underlying chip. All clones
    /// share one sink, so this is how upper layers (and a rig recovered
    /// from a crash) rejoin the stack-wide telemetry: the chip carries the
    /// handle across power cycles.
    pub fn recorder(&self) -> Telemetry {
        self.base().recorder().clone()
    }

    /// Installs the GC victim policy and the background-scrub /
    /// wear-leveling policy of `cfg`. Both live in FTL RAM, so the rig
    /// re-installs them after every simulated power cycle.
    fn install_host_policies(&mut self, cfg: &RigConfig) {
        self.base_mut().set_gc_policy(cfg.gc_policy);
        self.base_mut().set_scrub_config(cfg.scrub);
    }

    /// Current device-health state (persisted by the FTL; survives
    /// power cycles).
    pub fn device_state(&self) -> DeviceState {
        self.base().device_state()
    }
}

/// Rig parameters.
#[derive(Debug, Clone, Copy)]
pub struct RigConfig {
    /// System configuration under test: the SQLite journal mode of
    /// [`Rig::open_db`], and what [`RigConfig::small`] derives `fs_mode`
    /// from.
    pub mode: Mode,
    /// Hardware profile.
    pub profile: Profile,
    /// Flash blocks (128 pages of 8 KB each on the OpenSSD geometry).
    pub blocks: usize,
    /// Logical pages the device exports.
    pub logical_pages: u64,
    /// OS page-cache capacity (pages).
    pub fs_cache_pages: usize,
    /// X-L2P capacity when the device is X-FTL.
    pub xl2p_capacity: usize,
    /// Pre-format aging: fraction of the logical space filled with cold
    /// data, plus churn rounds, to set the GC validity regime (Figure 5's
    /// 30/50/70 % knob). `None` = fresh drive.
    pub aging: Option<Aging>,
    /// File-system journal mode; it also picks the device, as the paper
    /// pairs them: `Off` runs on X-FTL, the journaling modes on the plain
    /// FTL. [`RigConfig::small`] sets the one `mode` implies; the FIO
    /// experiments, which open no database, set it directly (ext4 *full*
    /// journaling is a mode no SQLite configuration maps to).
    pub fs_mode: JournalMode,
    /// GC victim policy; the aged-drive experiments use `Fifo` (the
    /// OpenSSD-era behaviour that makes victim validity track utilization).
    pub gc_policy: GcPolicy,
    /// Overrides the hardware profile's flash channel count — the knob of
    /// the channel-scaling experiment. `None` keeps the profile's default
    /// (OpenSSD: 1, S830: 4).
    pub channels: Option<u32>,
    /// Background NAND fault environment installed on the chip before
    /// formatting (the plan is a property of the silicon and survives
    /// every power cycle). `None` = perfect flash.
    pub fault: Option<FaultEnv>,
    /// Background-scrub / static wear-leveling policy installed on the
    /// FTL. Unlike the fault plan this is *host* configuration, not a
    /// property of the silicon, so the rig re-installs it after every
    /// simulated power cycle. `None` = scrubber off (the default).
    pub scrub: Option<ScrubConfig>,
}

/// Background fault rates for a rig, in per-operation probabilities.
/// This is the `Copy`-able parameter form of [`FaultPlan::background`];
/// the rig builds the actual plan (and its deterministic RNG stream)
/// from it at format time.
#[derive(Debug, Clone, Copy)]
pub struct FaultEnv {
    /// Seed of the fault plan's dedicated RNG stream.
    pub seed: u64,
    /// Program status-failure probability per page program.
    pub program_fail: f64,
    /// Erase status-failure probability per block erase (each first
    /// failure retires the block permanently).
    pub erase_fail: f64,
    /// Correctable bit-flip probability per page read.
    pub read_flip: f64,
    /// Uncorrectable (beyond ECC strength) probability per page read.
    pub uncorrectable: f64,
    /// Deterministic wear-out curve (read disturb, retention, erase
    /// wear) layered under the probabilistic rates. `None` = silicon
    /// that never ages.
    pub aging: Option<AgingModel>,
}

impl FaultEnv {
    /// The fault plan this environment describes.
    pub fn plan(&self) -> FaultPlan {
        let plan = FaultPlan::background(
            self.seed,
            self.program_fail,
            self.erase_fail,
            self.read_flip,
            self.uncorrectable,
        );
        match self.aging {
            Some(model) => plan.aging(model),
            None => plan,
        }
    }
}

/// Seed of the aging pass's fill-and-churn stream.
const AGING_SEED: u64 = 42;

/// Aging parameters: fill the drive, then churn, before mkfs.
#[derive(Debug, Clone, Copy)]
pub struct Aging {
    /// Fraction of logical pages written with cold data.
    pub fill: f64,
    /// Random overwrites, as a multiple of the filled page count.
    pub churn: f64,
}

impl RigConfig {
    /// A small configuration for tests (tiny geometry is NOT used here:
    /// the rig always uses the paper's 8 KB/128 geometry).
    pub fn small(mode: Mode) -> RigConfig {
        RigConfig {
            mode,
            profile: Profile::OpenSsd,
            blocks: 64,
            logical_pages: 5_000,
            fs_cache_pages: 1024,
            xl2p_capacity: 500,
            aging: None,
            fs_mode: mode.fs_mode(),
            gc_policy: GcPolicy::Greedy,
            channels: None,
            fault: None,
            scrub: None,
        }
    }
}

/// The assembled stack.
pub struct Rig {
    /// The mounted file system (shared with open connections).
    pub fs: SharedFs<AnyDev>,
    /// The simulated clock every layer charges.
    pub clock: SimClock,
    cfg: RigConfig,
}

/// A cross-layer statistics snapshot (one Table 1 row, plus extras).
#[derive(Debug, Clone, Copy, Default)]
#[allow(
    missing_docs,
    reason = "fields are named after the counters they snapshot"
)]
pub struct Snapshot {
    pub fs: FsStats,
    pub ftl: FtlStats,
    pub flash: xftl_flash::FlashStats,
    pub dev: DevCounters,
    pub now_ns: Nanos,
}

impl Rig {
    /// Builds the stack: flash → (aging) → FTL → SATA link → mkfs.
    pub fn build(cfg: RigConfig) -> Rig {
        let clock = SimClock::new();
        let mut builder = match cfg.profile {
            Profile::OpenSsd => FlashConfigBuilder::openssd(),
            Profile::S830 => FlashConfigBuilder::s830(),
        }
        .blocks(cfg.blocks);
        if let Some(ch) = cfg.channels {
            builder = builder.channels(ch);
        }
        let flash_cfg = builder.build();
        let link = link_for(cfg.profile);
        let mut chip = FlashChip::new(flash_cfg, clock.clone());
        // One telemetry handle serves every layer; installed on the chip
        // pre-format so the FTL, file system, and database all clone it.
        chip.set_recorder(Telemetry::new());
        if let Some(env) = cfg.fault {
            chip.set_fault_plan(env.plan());
        }
        let mut dev = match cfg.fs_mode {
            JournalMode::Off => AnyDev::X(SataLink::new(
                XFtl::format_with_capacity(chip, cfg.logical_pages, cfg.xl2p_capacity)
                    .expect("format"),
                link,
                clock.clone(),
            )),
            JournalMode::Ordered | JournalMode::Full => AnyDev::Plain(SataLink::new(
                PageMappedFtl::format(chip, cfg.logical_pages).expect("format"),
                link,
                clock.clone(),
            )),
        };
        dev.install_host_policies(&cfg);
        if let Some(aging) = cfg.aging {
            age_device(&mut dev, aging, AGING_SEED);
        }
        let fs_cfg = FsConfig {
            inode_count: 256,
            journal_pages: 256.min(cfg.logical_pages / 8).max(16),
            cache_pages: cfg.fs_cache_pages,
        };
        let fs = match cfg.fs_mode {
            JournalMode::Off => FileSystem::mkfs_tx(dev, JournalMode::Off, fs_cfg),
            mode @ (JournalMode::Ordered | JournalMode::Full) => {
                FileSystem::mkfs(dev, mode, fs_cfg)
            }
        }
        .expect("mkfs");
        Rig::around(fs, clock, cfg)
    }

    /// Wraps a made or mounted volume, joining it to the telemetry handle
    /// its chip carries (across power cycles too).
    fn around(mut fs: FileSystem<AnyDev>, clock: SimClock, cfg: RigConfig) -> Rig {
        let telemetry = fs.device().recorder();
        fs.set_recorder(clock.clone(), telemetry);
        Rig {
            fs: Rc::new(RefCell::new(fs)),
            clock,
            cfg,
        }
    }

    /// Opens a database on the rig, in the mode's journal configuration.
    pub fn open_db(&self, name: &str) -> Connection<AnyDev> {
        self.try_open_db(name).expect("open db")
    }

    /// Like [`Rig::open_db`], but surfaces the open error instead of
    /// panicking. A database whose journal needs write-back cannot be
    /// opened once the device degrades to end-of-life read-only mode;
    /// the endurance experiments report that as a measured outcome.
    pub fn try_open_db(&self, name: &str) -> xftl_db::Result<Connection<AnyDev>> {
        let mut conn = Connection::open(Rc::clone(&self.fs), name, self.cfg.mode.db_mode())?;
        conn.set_recorder(self.clock.clone(), self.telemetry());
        Ok(conn)
    }

    /// The stack-wide telemetry handle (histograms and, once armed with
    /// `start_events`, the structured event ring).
    pub fn telemetry(&self) -> Telemetry {
        self.fs.borrow().device().recorder()
    }

    /// Current device-health state ([`DeviceState::ReadOnly`] once the
    /// free pool is exhausted by retired blocks — the end-of-life
    /// experiments poll this between transactions).
    pub fn device_state(&self) -> DeviceState {
        self.fs.borrow().device().device_state()
    }

    /// Cross-layer statistics snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let fs = self.fs.borrow();
        let dev = fs.device();
        Snapshot {
            fs: *fs.stats(),
            ftl: dev.ftl_stats(),
            flash: dev.flash_stats(),
            dev: dev.counters(),
            now_ns: self.clock.now(),
        }
    }

    /// Resets all statistics layers (clock keeps running).
    pub fn reset_stats(&self) {
        let mut fs = self.fs.borrow_mut();
        fs.reset_stats();
        fs.device_mut().reset_stats();
    }

    /// Simulates a power loss and full recovery: the file system and all
    /// caches are dropped, the device is rebuilt from flash through its
    /// recovery path, and the volume is re-mounted. Returns the recovered
    /// rig and what the *device-level* recovery cost, part by part — on
    /// X-FTL the replay and closing-checkpoint parts are the X-L2P fold
    /// Table 5 reports.
    ///
    /// All `Connection`s into the old rig must have been dropped.
    pub fn crash_and_recover(self) -> (Rig, RecoveryBreakdown) {
        let Rig { fs, clock, cfg } = self;
        let fs = Rc::try_unwrap(fs)
            .expect("connections still open")
            .into_inner();
        let link = link_for(cfg.profile);
        let (mut dev, breakdown) = match fs.into_device() {
            AnyDev::Plain(old) => {
                let ftl = PageMappedFtl::recover(old.into_inner().into_chip()).expect("recover");
                let breakdown = ftl.base().recovery();
                (
                    AnyDev::Plain(SataLink::new(ftl, link, clock.clone())),
                    breakdown,
                )
            }
            AnyDev::X(old) => {
                let chip = old.into_inner().into_chip();
                let ftl = XFtl::recover_with_capacity(chip, cfg.xl2p_capacity).expect("recover");
                let breakdown = ftl.base().recovery();
                (
                    AnyDev::X(SataLink::new(ftl, link, clock.clone())),
                    breakdown,
                )
            }
        };
        dev.install_host_policies(&cfg);
        let fs = match cfg.fs_mode {
            JournalMode::Off => FileSystem::mount_tx(dev, JournalMode::Off, cfg.fs_cache_pages),
            mode @ (JournalMode::Ordered | JournalMode::Full) => {
                FileSystem::mount(dev, mode, cfg.fs_cache_pages)
            }
        }
        .expect("mount");
        (Rig::around(fs, clock, cfg), breakdown)
    }

    /// Creates (or reuses) `name` pre-sized to `pages` zeroed pages and
    /// makes the allocation durable. Concurrent writers that only
    /// overwrite pre-sized pages touch no shared allocator metadata —
    /// bitmap or inode-map growth would make every writer pair conflict
    /// at the device, drowning the interleavings the harness is after.
    pub fn prepare_concurrent_file(&self, name: &str, pages: u64) -> Ino {
        let mut fs = self.fs.borrow_mut();
        let ino = if fs.exists(name) {
            fs.open(name).expect("open concurrent file")
        } else {
            fs.create(name).expect("create concurrent file")
        };
        let ps = fs.page_size() as u64;
        let zeros = vec![0u8; ps as usize];
        for p in 0..pages {
            fs.write(ino, p * ps, &zeros, None).expect("pre-size");
        }
        fs.sync_all().expect("pre-size sync");
        ino
    }

    /// Runs one deterministic round of interleaved snapshot writers over
    /// the X-FTL `begin`/first-committer-wins path: every writer opens a
    /// snapshot transaction, their page writes interleave round-robin
    /// (writer 0 step 0, writer 1 step 0, …, writer 0 step 1, …), then
    /// each commit is *submitted* in writer order — first-committer-wins
    /// validation and visibility happen at the submit — and the tickets
    /// are redeemed as `wait` says. Conflict losers are tallied, not
    /// fatal; any other error panics.
    ///
    /// Page images come from [`concurrent_fill`], so callers can verify
    /// exactly which writer's version survived.
    pub fn run_concurrent_writers(
        &self,
        ino: Ino,
        plan: &ConcurrentPlan,
        wait: CommitWait,
    ) -> ConcurrentOutcome {
        let mut fs = self.fs.borrow_mut();
        let ps = fs.page_size() as u64;
        let tids: Vec<Tid> = plan
            .writers
            .iter()
            .map(|_| fs.begin_tx_concurrent().expect("begin concurrent"))
            .collect();
        let depth = plan.writers.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..depth {
            for (w, pages) in plan.writers.iter().enumerate() {
                if let Some(&page) = pages.get(step) {
                    let img = concurrent_fill(ps as usize, plan.tag, w, page);
                    fs.write(ino, page * ps, &img, Some(tids[w]))
                        .expect("snapshot write");
                }
            }
        }
        let mut committed = Vec::new();
        let mut conflicted = Vec::new();
        let mut commit_latency_ns = Vec::new();
        let mut in_flight: Vec<(usize, CommitTicket, Nanos)> = Vec::new();
        for (w, &tid) in tids.iter().enumerate() {
            let t0 = self.clock.now();
            match fs.fsync_submit(ino, tid) {
                Ok(ticket) => in_flight.push((w, ticket, t0)),
                Err(FsError::Dev(DevError::Conflict)) => conflicted.push(w),
                Err(e) => panic!("concurrent writer {w} (tid {tid}) failed: {e:?}"),
            }
            if wait == CommitWait::EachSubmit || w + 1 == tids.len() {
                for (w, ticket, t0) in in_flight.drain(..) {
                    fs.fsync_wait(ticket).expect("fsync_wait");
                    committed.push(w);
                    commit_latency_ns.push(self.clock.now() - t0);
                }
            }
        }
        ConcurrentOutcome {
            tids,
            committed,
            conflicted,
            commit_latency_ns,
        }
    }
}

/// When [`Rig::run_concurrent_writers`] redeems its commit tickets — the
/// only difference between a blocking commit and a pipelined one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitWait {
    /// After each submit: every writer's commit is durable before the
    /// next writer's is validated, as with a blocking fsync.
    EachSubmit,
    /// After the last submit: staged commits coalesce into shared group
    /// flushes, which is the device-level scaling the concurrent bench
    /// measures.
    AllSubmitted,
}

/// One deterministic multi-writer round for the MVCC harness: which
/// pages of the shared file each writer overwrites, in issue order.
#[derive(Debug, Clone)]
pub struct ConcurrentPlan {
    /// Per-writer page-index scripts (outer index = writer).
    pub writers: Vec<Vec<u64>>,
    /// Byte tag baked into every page image (disambiguates rounds).
    pub tag: u8,
}

/// What one [`Rig::run_concurrent_writers`] round did.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// Device transaction id each writer ran under, in writer order.
    pub tids: Vec<Tid>,
    /// Writers (by index) whose commit was admitted, in commit order.
    pub committed: Vec<usize>,
    /// Writers (by index) that lost first-committer-wins validation.
    pub conflicted: Vec<usize>,
    /// Simulated submit-to-redeemed commit latency of each admitted
    /// writer (parallel to `committed`).
    pub commit_latency_ns: Vec<Nanos>,
}

/// The page image writer `writer` writes for page `page` in a round
/// tagged `tag`: a cheap, collision-free mix so two writers' images for
/// the same page always differ.
pub fn concurrent_fill(page_size: usize, tag: u8, writer: usize, page: u64) -> Vec<u8> {
    let w = (writer as u8).wrapping_mul(31).wrapping_add(1);
    let p = (page as u8).wrapping_mul(7);
    (0..page_size)
        .map(|i| tag ^ w ^ p.wrapping_add(i as u8))
        .collect()
}

/// SATA link parameters for a hardware profile.
fn link_for(profile: Profile) -> LinkConfig {
    match profile {
        Profile::OpenSsd => LinkConfig::SATA2,
        Profile::S830 => LinkConfig::SATA3,
    }
}

/// Ages the raw device before mkfs: fills a fraction of the logical space
/// with cold data (pages the FS will never trim), then churns random
/// overwrites so garbage collection reaches its steady state. This is the
/// reproduction of §6.3.1's "controlled aging" that sets the ratio of
/// valid pages carried by GC.
pub fn age_device(dev: &mut AnyDev, aging: Aging, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let logical = dev.capacity_pages();
    let ps = dev.page_size();
    let filled = ((logical as f64) * aging.fill) as u64;
    let mut page = vec![0u8; ps];
    // Cold fill occupies the TAIL of the logical space so the file
    // system's metadata and data regions (allocated low-first) stay
    // usable.
    let cold_start = logical - filled;
    for lpn in cold_start..logical {
        page[0] = lpn as u8;
        dev.write(lpn, &page).expect("aging fill");
    }
    let churn_ops = (filled as f64 * aging.churn) as u64;
    for _ in 0..churn_ops {
        let lpn = cold_start + rng.gen_range(0..filled.max(1));
        page[0] = lpn as u8;
        dev.write(lpn, &page).expect("aging churn");
    }
    dev.flush().expect("aging flush");
    dev.reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_builds_and_runs_sql_in_all_modes() {
        for mode in [Mode::Rbj, Mode::Wal, Mode::XFtl] {
            let rig = Rig::build(RigConfig::small(mode));
            let mut db = rig.open_db("t.db");
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
                .unwrap();
            db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
            let rows = db.query("SELECT v FROM t WHERE id = 1").unwrap();
            assert_eq!(rows[0][0], xftl_db::Value::Int(10), "{mode:?}");
            assert!(rig.clock.now() > 0);
        }
    }

    #[test]
    fn snapshot_reflects_layers() {
        let rig = Rig::build(RigConfig::small(Mode::Rbj));
        let mut db = rig.open_db("t.db");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        drop(db);
        let snap = rig.snapshot();
        assert!(snap.fs.fsyncs > 0);
        assert!(snap.ftl.data_writes > 0);
        assert!(snap.flash.programs > 0);
        assert!(snap.now_ns > 0);
    }

    #[test]
    fn crash_and_recover_preserves_committed_data() {
        for mode in [Mode::Rbj, Mode::Wal, Mode::XFtl] {
            let rig = Rig::build(RigConfig::small(mode));
            {
                let mut db = rig.open_db("t.db");
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
                    .unwrap();
                db.execute("INSERT INTO t VALUES (1, 77)").unwrap();
            }
            let (rig, recovery) = rig.crash_and_recover();
            let parts = [recovery.root_ns, recovery.scan_ns, recovery.checkpoint_ns];
            assert!(parts.iter().all(|ns| *ns > 0), "{mode:?}: {recovery:?}");
            assert!(recovery.written_blocks > recovery.skipped_blocks);
            let mut db = rig.open_db("t.db");
            let rows = db.query("SELECT v FROM t WHERE id = 1").unwrap();
            assert_eq!(rows[0][0], xftl_db::Value::Int(77), "{mode:?}");
        }
    }

    #[test]
    fn blocking_and_pipelined_commits_decide_and_write_the_same() {
        // Overlaps on pages 1 and 5, a disjoint writer, a rewrite within
        // one transaction: the wait policy may move time, nothing else.
        let plan = ConcurrentPlan {
            writers: vec![vec![0, 1], vec![1, 2], vec![6, 7, 6], vec![5, 3], vec![5]],
            tag: 3,
        };
        let run = |wait: CommitWait| {
            let rig = Rig::build(RigConfig::small(Mode::XFtl));
            let ino = rig.prepare_concurrent_file("conc.dat", 8);
            let out = rig.run_concurrent_writers(ino, &plan, wait);
            assert_eq!(out.committed.len(), out.commit_latency_ns.len());
            let mut fs = rig.fs.borrow_mut();
            let mut image = vec![0u8; 8 * fs.page_size()];
            fs.read(ino, 0, &mut image, None).unwrap();
            (out.committed, out.conflicted, image)
        };
        let blocking = run(CommitWait::EachSubmit);
        assert_eq!(blocking.0, vec![0, 2, 3], "first committer wins");
        assert_eq!(blocking.1, vec![1, 4]);
        assert!(blocking == run(CommitWait::AllSubmitted));
    }

    /// Mean GC victim validity of a small X-FTL rig under `gc_policy`,
    /// aged or fresh, after 3,000 upserts over 300 rows.
    fn mean_gc_validity(gc_policy: GcPolicy, aging: Option<Aging>) -> Option<f64> {
        let rig = Rig::build(RigConfig {
            aging,
            gc_policy,
            ..RigConfig::small(Mode::XFtl)
        });
        let mut db = rig.open_db("t.db");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        let filler = "x".repeat(400);
        for i in 0..3000i64 {
            db.execute_with(
                "INSERT OR REPLACE INTO t VALUES (?, ?)",
                &[
                    xftl_db::Value::Int(i % 300),
                    xftl_db::Value::Text(filler.clone()),
                ],
            )
            .unwrap();
        }
        drop(db);
        rig.snapshot().ftl.mean_gc_validity()
    }

    const HEAVY: Aging = Aging {
        fill: 0.85,
        churn: 1.0,
    };

    #[test]
    fn aging_drives_gc_validity_up() {
        // A heavily-aged drive must show a higher mean GC victim validity
        // than a fresh one under the same workload. The knob lives under
        // FIFO, the one-log firmware the paper aged (DESIGN.md §9): its
        // copies of the aged data rejoin the host's blocks and come round
        // again.
        let run = |aging: Option<Aging>| mean_gc_validity(GcPolicy::Fifo, aging);
        let fresh = run(None);
        let aged = run(Some(HEAVY));
        let aged_v = aged.expect("aged drive must garbage-collect");
        if let Some(fresh_v) = fresh {
            assert!(
                aged_v > fresh_v,
                "aged validity {aged_v} should exceed fresh {fresh_v}"
            );
        }
        assert!(aged_v > 0.3, "aged validity {aged_v} unexpectedly low");
    }

    #[test]
    fn greedy_keeps_the_aged_data_out_of_its_victims() {
        // Greedy's survivors have a log of their own, so the aged data it
        // copies once stays there instead of riding along in the blocks
        // the workload churns: on the same aged drive its victims carry
        // under half of what FIFO's do.
        let greedy = mean_gc_validity(GcPolicy::Greedy, Some(HEAVY)).unwrap();
        let fifo = mean_gc_validity(GcPolicy::Fifo, Some(HEAVY)).unwrap();
        assert!(greedy < fifo / 2.0, "greedy {greedy} vs FIFO {fifo}");
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        // The channel model is queued but threadless: everything advances
        // on the simulated clock, so two identical runs must produce
        // byte-for-byte identical statistics at every layer.
        let run = || {
            let rig = Rig::build(RigConfig {
                channels: Some(4),
                ..RigConfig::small(Mode::XFtl)
            });
            let mut db = rig.open_db("t.db");
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
                .unwrap();
            for i in 0..200i64 {
                db.execute_with(
                    "INSERT OR REPLACE INTO t VALUES (?, ?)",
                    &[
                        xftl_db::Value::Int(i % 40),
                        xftl_db::Value::Text("payload".repeat(30)),
                    ],
                )
                .unwrap();
            }
            drop(db);
            format!("{:?}", rig.snapshot())
        };
        assert_eq!(run(), run(), "simulation must be deterministic");
    }

    #[test]
    fn more_channels_run_the_same_workload_faster() {
        let time_with = |channels: u32| {
            let rig = Rig::build(RigConfig {
                channels: Some(channels),
                ..RigConfig::small(Mode::XFtl)
            });
            let mut db = rig.open_db("t.db");
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
                .unwrap();
            let t0 = rig.clock.now();
            for i in 0..120i64 {
                db.execute_with(
                    "INSERT OR REPLACE INTO t VALUES (?, ?)",
                    &[
                        xftl_db::Value::Int(i % 30),
                        xftl_db::Value::Text("x".repeat(600)),
                    ],
                )
                .unwrap();
            }
            rig.clock.now() - t0
        };
        let one = time_with(1);
        let four = time_with(4);
        assert!(
            four < one,
            "4 channels ({four} ns) should beat 1 channel ({one} ns)"
        );
    }

    #[test]
    fn faulty_rig_runs_sql_and_recovers_correctly() {
        // A rig built over misbehaving silicon must answer SQL queries
        // exactly as a clean one does: the FTL's retry and bad-block
        // machinery absorbs every injected fault below the host.
        for mode in [Mode::Rbj, Mode::XFtl] {
            let rig = Rig::build(RigConfig {
                fault: Some(FaultEnv {
                    seed: 0xBAD_F1A5,
                    program_fail: 1e-2,
                    erase_fail: 5e-3,
                    read_flip: 5e-2,
                    uncorrectable: 1e-3,
                    aging: None,
                }),
                ..RigConfig::small(mode)
            });
            {
                let mut db = rig.open_db("t.db");
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
                    .unwrap();
                for i in 0..200i64 {
                    db.execute_with(
                        "INSERT OR REPLACE INTO t VALUES (?, ?)",
                        &[xftl_db::Value::Int(i % 50), xftl_db::Value::Int(i)],
                    )
                    .unwrap();
                }
            }
            let snap = rig.snapshot();
            assert!(
                snap.flash.program_fails > 0 || snap.flash.corrected_reads > 0,
                "{mode:?}: fault environment never fired"
            );
            let (rig, _) = rig.crash_and_recover();
            let mut db = rig.open_db("t.db");
            for id in 0..50i64 {
                let rows = db
                    .query_with("SELECT v FROM t WHERE id = ?", &[xftl_db::Value::Int(id)])
                    .unwrap();
                assert_eq!(
                    rows[0][0],
                    xftl_db::Value::Int(150 + id),
                    "{mode:?}: id {id} after faulty run + recovery"
                );
            }
        }
    }

    #[test]
    fn xftl_mode_beats_wal_beats_rbj_on_updates() {
        // The paper's headline ordering, on a small update-only workload.
        let time_for = |mode: Mode| {
            let rig = Rig::build(RigConfig::small(mode));
            let mut db = rig.open_db("t.db");
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
                .unwrap();
            for i in 0..50i64 {
                db.execute_with("INSERT INTO t VALUES (?, 0)", &[xftl_db::Value::Int(i)])
                    .unwrap();
            }
            let t0 = rig.clock.now();
            for i in 0..100i64 {
                db.execute_with(
                    "UPDATE t SET v = v + 1 WHERE id = ?",
                    &[xftl_db::Value::Int(i % 50)],
                )
                .unwrap();
            }
            rig.clock.now() - t0
        };
        let rbj = time_for(Mode::Rbj);
        let wal = time_for(Mode::Wal);
        let xftl = time_for(Mode::XFtl);
        assert!(xftl < wal, "X-FTL ({xftl} ns) should beat WAL ({wal} ns)");
        assert!(wal < rbj, "WAL ({wal} ns) should beat RBJ ({rbj} ns)");
    }
}
