//! The ext4-like file system.
//!
//! [`FileSystem`] runs over any [`BlockDevice`] and plays exactly the
//! messenger role §5.2 assigns it: in `Ordered`/`Full` journal modes it is
//! a conventional journaling file system; in `Off` mode (over X-FTL) it
//! turns its journal off, tags every device write with the transaction id
//! it learned through `fsync(ino, tid)`/`ioctl(abort, tid)`, and lets the
//! device guarantee atomicity.
//!
//! Whether the device speaks the transactional command set is a
//! compile-time property: `Off` mode is only reachable through the
//! [`FileSystem::mkfs_tx`]/[`FileSystem::mount_tx`] constructors, which
//! require `D: TxBlockDevice` and capture the extended commands in a
//! dispatch table (`TxOps`). The plain constructors reject `Off`
//! up front — there is no runtime capability probe to fail later.
//!
//! Multi-page flushes ride the queued submission path
//! ([`BlockDevice::submit`] / [`TxBlockDevice::submit_tx`]): an fsync
//! hands the device the whole page set as one batch, which a
//! channel-parallel FTL overlaps across its flash channels.
//!
//! The volume has a single root directory (the workloads of the paper keep
//! SQLite databases, journals and WAL files side by side in one
//! directory), byte-granular file I/O through a write-back page cache with
//! LRU *steal* eviction, and per-file `fsync`.
//!
//! ## Abort (ioctl) path
//!
//! [`FileSystem::abort_tx`] implements §5.2's rollback: dirty pages tagged
//! with the transaction are dropped from the cache, an `abort(tid)`
//! command rolls back the stolen (already-written) pages inside the
//! device, and the in-RAM metadata is re-read from the committed state.
//! As in SQLite (which holds a database-level write lock), the aborting
//! transaction is assumed to be the volume's only in-flight mutator.

use std::collections::{HashMap, HashSet};
use std::fmt;

use xftl_ftl::{BlockDevice, CmdId, CommitTicket, IoCmd, Lpn, Nanos, SimClock, Tid, TxBlockDevice};
use xftl_trace::{OpClass, Telemetry};

use crate::alloc::BlockBitmap;
use crate::cache::PageCache;
use crate::error::{FsError, Result};
use crate::journal::Journal;
use crate::layout::{Ino, Inode, InodeKind, Superblock, NDIRECT};
use crate::stats::FsStats;

/// Little-endian u64 at `off` (callers guarantee the bounds).
fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(bytes)
}

/// Little-endian u32 at `off` (callers guarantee the bounds).
fn get_u32(buf: &[u8], off: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(bytes)
}

/// Little-endian u16 at `off` (callers guarantee the bounds).
fn get_u16(buf: &[u8], off: usize) -> u16 {
    let mut bytes = [0u8; 2];
    bytes.copy_from_slice(&buf[off..off + 2]);
    u16::from_le_bytes(bytes)
}

/// Journal mode of the volume (ext4's `data=ordered`, `data=journal`, and
/// the paper's journaling-off-over-X-FTL configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// Metadata journaled; data written in place before the journal commit.
    Ordered,
    /// Data and metadata journaled (each data page written twice).
    Full,
    /// No journal; transactional atomicity provided by the device (X-FTL).
    Off,
}

/// mkfs-time parameters.
#[derive(Debug, Clone, Copy)]
pub struct FsConfig {
    /// Number of inodes (files) the volume supports.
    pub inode_count: u32,
    /// Pages reserved for the journal region (header + log).
    pub journal_pages: u64,
    /// Page-cache capacity in pages.
    pub cache_pages: usize,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            inode_count: 256,
            journal_pages: 256,
            cache_pages: 512,
        }
    }
}

/// Dispatch table for the transactional device commands.
///
/// `FileSystem<D>` stays generic over plain [`BlockDevice`]s, but `Off`
/// mode needs the [`TxBlockDevice`] command set. The `*_tx` constructors
/// capture the extension's methods as function pointers here, so the
/// capability is fixed at compile time (the constructor simply does not
/// exist for a non-transactional `D`) while every other code path stays
/// monomorphic over `D: BlockDevice`.
struct TxOps<D> {
    begin: fn(&mut D, Tid) -> xftl_ftl::Result<()>,
    read_tx: fn(&mut D, Tid, Lpn, &mut [u8]) -> xftl_ftl::Result<()>,
    write_tx: fn(&mut D, Tid, Lpn, &[u8]) -> xftl_ftl::Result<()>,
    commit: fn(&mut D, Tid) -> xftl_ftl::Result<()>,
    commit_submit: fn(&mut D, Tid) -> xftl_ftl::Result<CommitTicket>,
    commit_wait: fn(&mut D, CommitTicket) -> xftl_ftl::Result<()>,
    abort: fn(&mut D, Tid) -> xftl_ftl::Result<()>,
    submit_tx: SubmitTxFn<D>,
}

/// Signature of [`TxBlockDevice::submit_tx`] as a plain function pointer.
type SubmitTxFn<D> = fn(&mut D, Tid, &[(Lpn, &[u8])]) -> xftl_ftl::Result<CmdId>;

impl<D: TxBlockDevice> TxOps<D> {
    fn new() -> Self {
        TxOps {
            begin: D::begin,
            read_tx: D::read_tx,
            write_tx: D::write_tx,
            commit: D::commit,
            commit_submit: D::commit_submit,
            commit_wait: D::commit_wait,
            abort: D::abort,
            submit_tx: D::submit_tx,
        }
    }
}

impl<D> Clone for TxOps<D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D> Copy for TxOps<D> {}

impl<D> fmt::Debug for TxOps<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TxOps")
    }
}

/// Why an inode-table page differs from its image on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum InodeDirt {
    Clean,
    /// Only a timestamp changed: every sync but a data-only one writes
    /// the page (`fdatasync` skips an inode whose data reads back
    /// without it).
    Stamp,
    /// A field needed to read the data back changed — size, a block
    /// pointer, the map root, the kind: every sync writes the page.
    Data,
}

impl InodeDirt {
    /// Whether a sync carries the page.
    fn rides(self, data_only: bool) -> bool {
        match self {
            InodeDirt::Clean => false,
            InodeDirt::Stamp => !data_only,
            InodeDirt::Data => true,
        }
    }
}

/// Block map for file blocks beyond the inode's direct pointers, chained
/// across map pages on the device.
#[derive(Debug, Default)]
struct BlockMap {
    /// Block address of file block `NDIRECT + i` (0 = hole).
    entries: Vec<u64>,
    /// Device pages holding the chain, in order.
    pages: Vec<Lpn>,
    /// Per-chain-page dirty flags (aligned with `pages`).
    dirty: Vec<bool>,
}

/// Entries per block-map page: one `next` pointer + one count, then u64s.
fn map_entries_per_page(page_size: usize) -> usize {
    (page_size - 16) / 8
}

/// The simulated file system.
#[derive(Debug)]
pub struct FileSystem<D: BlockDevice> {
    dev: D,
    sb: Superblock,
    mode: JournalMode,
    inodes: Vec<Inode>,
    /// Per inode-table page: what, if anything, a sync owes the device.
    inode_dirty: Vec<InodeDirt>,
    bitmap: BlockBitmap,
    /// Root directory: (name, inode).
    dir: Vec<(String, Ino)>,
    dir_dirty: bool,
    maps: HashMap<Ino, BlockMap>,
    cache: PageCache,
    journal: Journal,
    /// Blocks freed since the last metadata commit; their `trim` commands
    /// are issued only after the commit that makes the freeing durable
    /// (ext4's `discard` ordering). Empty in `Off` mode, where trims could
    /// not be rolled back by a device-level abort.
    pending_trims: Vec<Lpn>,
    next_tid: Tid,
    /// Monotone counter standing in for mtime.
    op_counter: u64,
    stats: FsStats,
    /// Telemetry sink plus the clock that timestamps its spans; both
    /// absent until [`FileSystem::set_recorder`] installs them (the
    /// device is generic, so the shared clock must be handed in).
    recorder: Telemetry,
    clock: Option<SimClock>,
    /// Transactional command table; `Some` iff mounted via a `*_tx`
    /// constructor. `Off` mode guarantees it is present.
    tx: Option<TxOps<D>>,
    /// Transactions opened with [`FileSystem::begin_tx_concurrent`]: they
    /// hold a device snapshot, so their reads and writes bypass the
    /// shared page cache (which always reflects newest state) and talk
    /// to the device directly under their tid.
    snapshot_tids: HashSet<Tid>,
    /// True when mount found the device in end-of-life read-only mode
    /// and skipped journal replay / header rewrite: the volume serves
    /// the last checkpointed state, reads only.
    mounted_read_only: bool,
}

impl<D: BlockDevice> FileSystem<D> {
    /// Formats `dev` and mounts the fresh volume in a journaling mode.
    ///
    /// `Off` mode is rejected with [`FsError::NeedsTxDevice`]: it needs
    /// the transactional command set, which only the [`FileSystem::
    /// mkfs_tx`] constructor (for `D: TxBlockDevice`) can wire up.
    pub fn mkfs(dev: D, mode: JournalMode, cfg: FsConfig) -> Result<Self> {
        if mode == JournalMode::Off {
            return Err(FsError::NeedsTxDevice);
        }
        Self::mkfs_with(dev, mode, cfg, None)
    }

    /// Formats a transactional device and mounts the fresh volume. Any
    /// journal mode works — including `Off`, where the device (X-FTL)
    /// provides atomicity instead of a journal.
    pub fn mkfs_tx(dev: D, mode: JournalMode, cfg: FsConfig) -> Result<Self>
    where
        D: TxBlockDevice,
    {
        Self::mkfs_with(dev, mode, cfg, Some(TxOps::new()))
    }

    fn mkfs_with(
        mut dev: D,
        mode: JournalMode,
        cfg: FsConfig,
        tx: Option<TxOps<D>>,
    ) -> Result<Self> {
        let ps = dev.page_size();
        let sb = Superblock::layout(dev.capacity_pages(), ps, cfg.inode_count, cfg.journal_pages)?;
        dev.write(0, &sb.encode())?;
        // Inode table: inode 0 is the root directory, the rest free.
        let mut inodes = vec![Inode::free(); cfg.inode_count as usize];
        inodes[0].kind = InodeKind::Dir;
        for p in 0..sb.it_pages {
            let img = encode_inode_page(&sb, &inodes, p as usize, ps);
            dev.write(sb.it_start + p, &img)?;
        }
        // Bitmap: metadata region pre-marked used.
        let mut bitmap = BlockBitmap::new(sb.total_pages, ps);
        for lpn in 0..sb.data_start {
            bitmap.set(lpn);
        }
        let _ = bitmap.take_dirty_pages();
        for p in 0..sb.bm_pages {
            dev.write(sb.bm_start + p, &bitmap.encode_page(p as usize, ps))?;
        }
        let journal = Journal::mkfs(&mut dev, &sb)?;
        dev.flush()?;
        Ok(FileSystem {
            dev,
            sb,
            mode,
            inodes,
            inode_dirty: vec![InodeDirt::Clean; sb.it_pages as usize],
            bitmap,
            dir: Vec::new(),
            dir_dirty: false,
            maps: HashMap::new(),
            cache: PageCache::new(cfg.cache_pages),
            journal,
            pending_trims: Vec::new(),
            next_tid: 1,
            op_counter: 1,
            stats: FsStats::default(),
            recorder: Telemetry::disabled(),
            clock: None,
            tx,
            snapshot_tids: HashSet::new(),
            mounted_read_only: false,
        })
    }

    /// Mounts an existing volume in a journaling mode, replaying the
    /// journal first. Like [`FileSystem::mkfs`], `Off` mode is rejected;
    /// use [`FileSystem::mount_tx`].
    pub fn mount(dev: D, mode: JournalMode, cache_pages: usize) -> Result<Self> {
        if mode == JournalMode::Off {
            return Err(FsError::NeedsTxDevice);
        }
        Self::mount_with(dev, mode, cache_pages, None)
    }

    /// Mounts an existing volume on a transactional device (any mode,
    /// including `Off`), replaying the journal first.
    pub fn mount_tx(dev: D, mode: JournalMode, cache_pages: usize) -> Result<Self>
    where
        D: TxBlockDevice,
    {
        Self::mount_with(dev, mode, cache_pages, Some(TxOps::new()))
    }

    fn mount_with(
        mut dev: D,
        mode: JournalMode,
        cache_pages: usize,
        tx: Option<TxOps<D>>,
    ) -> Result<Self> {
        let ps = dev.page_size();
        let mut buf = vec![0u8; ps];
        dev.read(0, &mut buf)?;
        let sb = Superblock::decode(&buf)?;
        let (journal, _replayed, mounted_read_only) = Journal::mount(&mut dev, &sb)?;
        // Load the inode table.
        let mut inodes = Vec::with_capacity(sb.inode_count as usize);
        let ipp = sb.inodes_per_page() as usize;
        for p in 0..sb.it_pages {
            dev.read(sb.it_start + p, &mut buf)?;
            for i in 0..ipp {
                if inodes.len() < sb.inode_count as usize {
                    inodes.push(Inode::decode(&buf, i * crate::layout::INODE_BYTES));
                }
            }
        }
        // Load the bitmap.
        let mut bm_bytes = Vec::with_capacity((sb.bm_pages as usize) * ps);
        for p in 0..sb.bm_pages {
            dev.read(sb.bm_start + p, &mut buf)?;
            bm_bytes.extend_from_slice(&buf);
        }
        let bitmap = BlockBitmap::from_bytes(&bm_bytes, sb.total_pages, ps);
        let mut fs = FileSystem {
            dev,
            sb,
            mode,
            inodes,
            inode_dirty: vec![InodeDirt::Clean; sb.it_pages as usize],
            bitmap,
            dir: Vec::new(),
            dir_dirty: false,
            maps: HashMap::new(),
            cache: PageCache::new(cache_pages),
            journal,
            pending_trims: Vec::new(),
            next_tid: 1,
            op_counter: 1,
            stats: FsStats::default(),
            recorder: Telemetry::disabled(),
            clock: None,
            tx,
            snapshot_tids: HashSet::new(),
            mounted_read_only,
        };
        fs.dir = fs.load_dir()?;
        Ok(fs)
    }

    /// The transactional command table, or the error every tx-dependent
    /// path reports when the volume was mounted without one.
    fn tx_ops(&self) -> Result<TxOps<D>> {
        self.tx.ok_or(FsError::NeedsTxDevice)
    }

    // --- accessors ---------------------------------------------------------

    /// Bytes per page/block.
    pub fn page_size(&self) -> usize {
        self.dev.page_size()
    }

    /// True when mount found the device in end-of-life read-only mode:
    /// journal replay was skipped, so the volume serves the last
    /// checkpointed state and every write path reports
    /// [`FsError::ReadOnly`].
    pub fn mounted_read_only(&self) -> bool {
        self.mounted_read_only
    }

    /// File-system I/O statistics.
    pub fn stats(&self) -> &FsStats {
        &self.stats
    }

    /// Resets FS statistics (device statistics are separate).
    pub fn reset_stats(&mut self) {
        self.stats = FsStats::default();
    }

    /// Access to the underlying device (for statistics).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the underlying device (failure injection).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Unmounts *without* syncing — equivalent to a crash of the host
    /// process. Use [`FileSystem::unmount`] for a clean shutdown.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Syncs everything and returns the device.
    pub fn unmount(mut self) -> Result<D> {
        self.sync_all()?;
        Ok(self.dev)
    }

    /// Allocates a fresh transaction id (§5.2: ids are managed by the file
    /// system, not SQLite, because SQLite is a library).
    pub fn begin_tx(&mut self) -> Tid {
        let tid = self.next_tid;
        self.next_tid += 1;
        tid
    }

    /// Allocates a transaction id *and* captures a device snapshot for it
    /// (the `BEGIN CONCURRENT` entry point). The transaction's reads see
    /// the volume as of this call; its writes go to the device
    /// immediately, bypassing the shared page cache, and stay invisible
    /// until commit. At commit the device runs first-committer-wins
    /// validation: if another transaction committed an overlapping page
    /// first, the commit fails with `DevError::Conflict` and the device
    /// has already rolled the loser back. `Off` mode only.
    pub fn begin_tx_concurrent(&mut self) -> Result<Tid> {
        if self.mode != JournalMode::Off {
            return Err(FsError::NeedsTxDevice);
        }
        let ops = self.tx_ops()?;
        let tid = self.begin_tx();
        (ops.begin)(&mut self.dev, tid)?;
        self.snapshot_tids.insert(tid);
        Ok(tid)
    }

    // --- namespace ---------------------------------------------------------

    /// Creates an empty file, returning its inode.
    pub fn create(&mut self, name: &str) -> Result<Ino> {
        if name.is_empty() || name.len() > 255 {
            return Err(FsError::BadName);
        }
        if self.dir.iter().any(|(n, _)| n == name) {
            return Err(FsError::Exists);
        }
        let ino = self
            .inodes
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, i)| i.kind == InodeKind::Free)
            .map(|(i, _)| i as Ino)
            .ok_or(FsError::NoSpace)?;
        self.inodes[ino as usize] = Inode {
            kind: InodeKind::File,
            size: 0,
            mtime: self.bump(),
            map_root: 0,
            direct: [0; NDIRECT],
        };
        self.mark_inode_dirty(ino);
        self.dir.push((name.to_string(), ino));
        self.dir_dirty = true;
        Ok(ino)
    }

    /// Looks a file up by name.
    pub fn open(&self, name: &str) -> Result<Ino> {
        self.dir
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, ino)| ino)
            .ok_or(FsError::NotFound)
    }

    /// True if `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.dir.iter().any(|(n, _)| n == name)
    }

    /// Names in the root directory.
    pub fn list(&self) -> Vec<String> {
        self.dir.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Deletes a file, freeing its blocks. (SQLite's rollback-journal
    /// deletion — its commit point — lands here.)
    pub fn unlink(&mut self, name: &str) -> Result<()> {
        let pos = self
            .dir
            .iter()
            .position(|(n, _)| n == name)
            .ok_or(FsError::NotFound)?;
        let (_, ino) = self.dir.remove(pos);
        self.dir_dirty = true;
        self.truncate(ino, 0)?;
        self.inodes[ino as usize] = Inode::free();
        self.mark_inode_dirty(ino);
        self.cache.drop_ino(ino);
        Ok(())
    }

    /// Current size of a file in bytes.
    pub fn size(&self, ino: Ino) -> Result<u64> {
        let inode = self.inodes.get(ino as usize).ok_or(FsError::BadInode)?;
        if inode.kind == InodeKind::Free {
            return Err(FsError::BadInode);
        }
        Ok(inode.size)
    }

    // --- data I/O ----------------------------------------------------------

    /// Writes `data` at byte `offset`, extending the file as needed. In
    /// `Off` mode, `tid` tags the dirtied pages with the writing
    /// transaction so stolen evictions reach the device as `write_tx`.
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8], tid: Option<Tid>) -> Result<()> {
        self.check_file(ino)?;
        if let Some(t) = tid {
            if self.snapshot_tids.contains(&t) {
                return self.write_snapshot(ino, offset, data, t);
            }
        }
        let ps = self.page_size() as u64;
        let mut off = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let idx = off / ps;
            let in_page = (off % ps) as usize;
            let take = rest.len().min(ps as usize - in_page);
            let lpn = self.ensure_block(ino, idx)?;
            let full_overwrite = in_page == 0 && take == ps as usize;
            if self.cache.get(lpn).is_none() {
                let mut page = vec![0u8; ps as usize];
                // Only fetch old content when partially overwriting a page
                // that may hold data.
                if !full_overwrite && self.block_may_have_data(ino, idx) {
                    self.read_dev_page(lpn, &mut page, tid)?;
                }
                self.cache.insert(lpn, ino, page, false, None);
            }
            let Some(p) = self.cache.get_mut(lpn) else {
                unreachable!("just inserted")
            };
            p.data[in_page..in_page + take].copy_from_slice(&rest[..take]);
            p.dirty = true;
            if tid.is_some() {
                p.tid = tid;
            }
            off += take as u64;
            rest = &rest[take..];
            self.evict_if_needed()?;
        }
        self.note_written(ino, offset + data.len() as u64);
        Ok(())
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short at end of file). `tid` routes reads of the transaction's own
    /// uncommitted pages in `Off` mode.
    pub fn read(
        &mut self,
        ino: Ino,
        offset: u64,
        buf: &mut [u8],
        tid: Option<Tid>,
    ) -> Result<usize> {
        self.check_file(ino)?;
        if let Some(t) = tid {
            if self.snapshot_tids.contains(&t) {
                return self.read_snapshot(ino, offset, buf, t);
            }
        }
        let size = self.inodes[ino as usize].size;
        if offset >= size {
            return Ok(0);
        }
        let want = buf.len().min((size - offset) as usize);
        let ps = self.page_size() as u64;
        let mut done = 0usize;
        while done < want {
            let off = offset + done as u64;
            let idx = off / ps;
            let in_page = (off % ps) as usize;
            let take = (want - done).min(ps as usize - in_page);
            let lpn = self.block_of(ino, idx)?;
            match lpn {
                None => buf[done..done + take].fill(0), // hole
                Some(lpn) => {
                    if let Some(p) = self.cache.get(lpn) {
                        buf[done..done + take].copy_from_slice(&p.data[in_page..in_page + take]);
                    } else {
                        let mut page = vec![0u8; ps as usize];
                        self.read_dev_page(lpn, &mut page, tid)?;
                        buf[done..done + take].copy_from_slice(&page[in_page..in_page + take]);
                        self.cache.insert(lpn, ino, page, false, None);
                        // May immediately evict the page just inserted
                        // under extreme pressure; the bytes are already out.
                        self.evict_if_needed()?;
                    }
                }
            }
            done += take;
        }
        Ok(want)
    }

    /// Snapshot-transaction write path: read-modify-write straight to the
    /// device under `tid`, bypassing the shared page cache (whose copies
    /// track newest committed state, not this transaction's snapshot).
    /// Clean cached copies of the touched pages are evicted so the cache
    /// cannot serve stale bytes to plain readers after this transaction
    /// commits. Concurrent writers that *allocate* (grow files or
    /// directories) share bitmap and inode pages and may conflict —
    /// pre-size files for conflict-free disjoint workloads. Overwrites
    /// only stamp the inode, and a snapshot commit is data-only (see
    /// [`FileSystem::fsync_snapshot`]), so they share nothing.
    fn write_snapshot(&mut self, ino: Ino, offset: u64, data: &[u8], tid: Tid) -> Result<()> {
        let ops = self.tx_ops()?;
        let ps = self.page_size() as u64;
        let mut off = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let idx = off / ps;
            let in_page = (off % ps) as usize;
            let take = rest.len().min(ps as usize - in_page);
            let lpn = self.ensure_block(ino, idx)?;
            let full_overwrite = in_page == 0 && take == ps as usize;
            let mut page = vec![0u8; ps as usize];
            if !full_overwrite && self.block_may_have_data(ino, idx) {
                self.stats.reads += 1;
                (ops.read_tx)(&mut self.dev, tid, lpn, &mut page)?;
            }
            page[in_page..in_page + take].copy_from_slice(&rest[..take]);
            (ops.write_tx)(&mut self.dev, tid, lpn, &page)?;
            self.stats.data_writes += 1;
            if self.cache.get(lpn).is_some_and(|p| !p.dirty) {
                self.cache.remove(lpn);
            }
            off += take as u64;
            rest = &rest[take..];
        }
        self.note_written(ino, offset + data.len() as u64);
        Ok(())
    }

    /// Snapshot-transaction read path: every page comes from the device
    /// under `tid` (`read_tx` serves the transaction's own writes first,
    /// then the version visible at its snapshot). The shared page cache is
    /// neither consulted — it reflects newest committed state — nor
    /// populated, so plain readers keep their read-committed view.
    fn read_snapshot(&mut self, ino: Ino, offset: u64, buf: &mut [u8], tid: Tid) -> Result<usize> {
        let ops = self.tx_ops()?;
        let size = self.inodes[ino as usize].size;
        if offset >= size {
            return Ok(0);
        }
        let want = buf.len().min((size - offset) as usize);
        let ps = self.page_size() as u64;
        let mut done = 0usize;
        while done < want {
            let off = offset + done as u64;
            let idx = off / ps;
            let in_page = (off % ps) as usize;
            let take = (want - done).min(ps as usize - in_page);
            match self.block_of(ino, idx)? {
                None => buf[done..done + take].fill(0), // hole
                Some(lpn) => {
                    let mut page = vec![0u8; ps as usize];
                    self.stats.reads += 1;
                    (ops.read_tx)(&mut self.dev, tid, lpn, &mut page)?;
                    buf[done..done + take].copy_from_slice(&page[in_page..in_page + take]);
                }
            }
            done += take;
        }
        Ok(want)
    }

    /// Shrinks a file to `new_size` bytes, freeing blocks past the end.
    /// The tail of the boundary page is zeroed so a later extension reads
    /// zeros in the gap (POSIX truncate semantics).
    pub fn truncate(&mut self, ino: Ino, new_size: u64) -> Result<()> {
        self.check_dir_or_file(ino)?;
        let ps = self.page_size() as u64;
        let keep_blocks = new_size.div_ceil(ps);
        let old_size = self.inodes[ino as usize].size;
        if new_size < old_size && !new_size.is_multiple_of(ps) {
            if let Some(lpn) = self.block_of(ino, new_size / ps)? {
                let cut = (new_size % ps) as usize;
                if self.cache.get(lpn).is_none() {
                    let mut page = vec![0u8; ps as usize];
                    self.read_dev_page(lpn, &mut page, None)?;
                    self.cache.insert(lpn, ino, page, false, None);
                }
                let Some(p) = self.cache.get_mut(lpn) else {
                    unreachable!("just inserted")
                };
                p.data[cut..].fill(0);
                p.dirty = true;
            }
        }
        let inode = self.inodes[ino as usize];
        // Free direct blocks past the cut.
        for i in 0..NDIRECT as u64 {
            if i >= keep_blocks && inode.direct[i as usize] != 0 {
                let lpn = inode.direct[i as usize];
                self.bitmap.clear(lpn);
                self.cache.remove(lpn);
                self.note_freed(lpn);
                self.inodes[ino as usize].direct[i as usize] = 0;
            }
        }
        // Free mapped blocks and, at size 0, the map chain itself.
        self.load_map(ino)?;
        if let Some(map) = self.maps.get_mut(&ino) {
            let cut = keep_blocks.saturating_sub(NDIRECT as u64) as usize;
            let mut freed = Vec::new();
            for i in cut..map.entries.len() {
                if map.entries[i] != 0 {
                    let lpn = map.entries[i];
                    self.bitmap.clear(lpn);
                    self.cache.remove(lpn);
                    freed.push(lpn);
                    map.entries[i] = 0;
                    let epp = map_entries_per_page(self.sb.page_size as usize);
                    map.dirty[i / epp] = true;
                }
            }
            if new_size == 0 {
                for lpn in std::mem::take(&mut map.pages) {
                    self.bitmap.clear(lpn);
                    freed.push(lpn);
                }
                map.entries.clear();
                map.dirty.clear();
                self.inodes[ino as usize].map_root = 0;
                self.maps.remove(&ino);
            }
            for lpn in freed {
                self.note_freed(lpn);
            }
        }
        let inode = &mut self.inodes[ino as usize];
        inode.size = new_size.min(inode.size);
        inode.mtime = self.op_counter;
        self.op_counter += 1;
        self.mark_inode_dirty(ino);
        Ok(())
    }

    // --- telemetry ---------------------------------------------------------

    /// Installs a telemetry handle and the simulated clock that
    /// timestamps its spans. The device layer below carries its own
    /// handle; pass a clone of the same one so the whole stack shares a
    /// single sink.
    pub fn set_recorder(&mut self, clock: SimClock, recorder: Telemetry) {
        self.clock = Some(clock);
        self.recorder = recorder;
    }

    fn span_start(&self) -> Option<Nanos> {
        self.clock.as_ref().map(SimClock::now)
    }

    fn record_fsync(&self, tid: Tid, t_start: Option<Nanos>) {
        if let (Some(clock), Some(t0)) = (&self.clock, t_start) {
            self.recorder
                .record_span(OpClass::FsFsync, tid, 0, t0, clock.now());
        }
    }

    // --- durability --------------------------------------------------------

    /// `fsync(ino)`. In `Off` mode the sync becomes a device transaction:
    /// dirty pages are written as `write_tx` and sealed with one
    /// `commit(tid)` — the paper's single-fsync commit path. In journal
    /// modes this is the classic ext4 sequence with two barriers.
    pub fn fsync(&mut self, ino: Ino, tid: Option<Tid>) -> Result<()> {
        self.sync_file(ino, tid, false)
    }

    /// `fdatasync(ino)`: [`FileSystem::fsync`] minus the metadata the
    /// data reads back without. An inode whose only change is its
    /// timestamp stays dirty in RAM until a full sync takes it — what
    /// SQLite's unix VFS asks of every commit, so an in-place page
    /// update costs no file-system metadata program (and, in the journal
    /// modes, no journal transaction).
    pub fn fdatasync(&mut self, ino: Ino, tid: Option<Tid>) -> Result<()> {
        self.sync_file(ino, tid, true)
    }

    fn sync_file(&mut self, ino: Ino, tid: Option<Tid>, data_only: bool) -> Result<()> {
        if let Some(t) = tid {
            if self.snapshot_tids.contains(&t) {
                let commit = self.tx_ops()?.commit;
                self.fsync_snapshot(t, commit)?;
                self.stats.barriers += 1;
                return Ok(());
            }
        }
        self.stats.fsyncs += 1;
        let t0 = self.span_start();
        let dirty = self.cache.dirty_of(ino);
        self.sync_pages(&dirty, tid, data_only)?;
        self.record_fsync(tid.unwrap_or(0), t0);
        Ok(())
    }

    /// Commit of a snapshot transaction, sealed with `seal` (the blocking
    /// `commit`, or `commit_submit` for the split-phase flavor — there
    /// validation and visibility happen at the submit, so conflicts
    /// surface here, not at the wait). Its data pages are already on the
    /// device (writes bypassed the cache), so only dirty metadata images
    /// ride along before the device runs first-committer-wins validation
    /// — data-only, whichever sync asked: a timestamp page every
    /// concurrent writer shares would make any two of them conflict.
    /// A losing transaction surfaces as [`FsError::Dev`] wrapping
    /// `DevError::Conflict`; the device has already rolled it back, and
    /// the in-RAM metadata is re-read from committed state before the
    /// error propagates.
    fn fsync_snapshot<T>(
        &mut self,
        tid: Tid,
        seal: fn(&mut D, Tid) -> xftl_ftl::Result<T>,
    ) -> Result<T> {
        self.stats.fsyncs += 1;
        let t0 = self.span_start();
        let res = self.flush_tx(&[], tid, true, seal);
        self.snapshot_tids.remove(&tid);
        match res {
            Ok(sealed) => {
                self.record_fsync(tid, t0);
                Ok(sealed)
            }
            Err(e) => {
                self.reload_metadata()?;
                Err(e)
            }
        }
    }

    /// Syncs every dirty page of every file plus all metadata.
    pub fn sync_all(&mut self) -> Result<()> {
        self.stats.fsyncs += 1;
        let t0 = self.span_start();
        let dirty = self.cache.dirty_all();
        self.sync_pages(&dirty, None, false)?;
        if self.mode != JournalMode::Off {
            self.stats.checkpoint_writes += self.journal.checkpoint(&mut self.dev)?;
            self.stats.barriers += 1;
        }
        self.dev.flush()?;
        self.flush_trims()?;
        self.record_fsync(0, t0);
        Ok(())
    }

    /// Metadata-only sync (directory updates after create/unlink — what
    /// SQLite's directory fsync achieves).
    pub fn sync_meta(&mut self, tid: Option<Tid>) -> Result<()> {
        self.stats.fsyncs += 1;
        let t0 = self.span_start();
        self.sync_pages(&[], tid, false)?;
        self.record_fsync(tid.unwrap_or(0), t0);
        Ok(())
    }

    /// `Off`-mode only: writes a file's dirty pages (and, data-only, its
    /// dirty metadata) to the device tagged with `tid` *without* issuing
    /// the commit — the multi-file transaction path (§4.3): every
    /// database file of the transaction is flushed under one tid, then a
    /// single [`FileSystem::commit_tx`] makes the whole group atomic (and
    /// is the barrier that waits for the queued batch).
    pub fn fdatasync_defer_commit(&mut self, ino: Ino, tid: Tid) -> Result<()> {
        if self.mode != JournalMode::Off {
            return Err(FsError::NeedsTxDevice);
        }
        self.stats.fsyncs += 1;
        let dirty = self.cache.dirty_of(ino);
        self.flush_tx(&dirty, tid, true, |_, _| Ok(()))
    }

    /// Issues the device commit sealing a multi-file transaction whose
    /// files were flushed with [`FileSystem::fdatasync_defer_commit`].
    pub fn commit_tx(&mut self, tid: Tid) -> Result<()> {
        if self.mode != JournalMode::Off {
            return Err(FsError::NeedsTxDevice);
        }
        let ops = self.tx_ops()?;
        (ops.commit)(&mut self.dev, tid)?;
        self.stats.barriers += 1;
        Ok(())
    }

    /// `Off`-mode only: split-phase fsync. Writes the file's dirty pages
    /// (and dirty metadata) as one queued batch under `tid`, then issues
    /// `commit_submit` instead of the blocking commit — the transaction
    /// becomes *visible* immediately and the returned ticket names the
    /// group flush that will make it *durable*. Callers overlap the next
    /// transaction's writes with this one's in-flight commit and redeem
    /// the ticket with [`FileSystem::fsync_wait`].
    pub fn fsync_submit(&mut self, ino: Ino, tid: Tid) -> Result<CommitTicket> {
        if self.mode != JournalMode::Off {
            return Err(FsError::NeedsTxDevice);
        }
        let commit_submit = self.tx_ops()?.commit_submit;
        if self.snapshot_tids.contains(&tid) {
            return self.fsync_snapshot(tid, commit_submit);
        }
        self.stats.fsyncs += 1;
        let t0 = self.span_start();
        let dirty = self.cache.dirty_of(ino);
        let ticket = self.flush_tx(&dirty, tid, false, commit_submit)?;
        self.record_fsync(tid, t0);
        Ok(ticket)
    }

    /// Redeems a ticket from [`FileSystem::fsync_submit`], blocking until
    /// the group flush carrying that commit is durable. Counts as the
    /// barrier the split fsync deferred.
    pub fn fsync_wait(&mut self, ticket: CommitTicket) -> Result<()> {
        if self.mode != JournalMode::Off {
            return Err(FsError::NeedsTxDevice);
        }
        let ops = self.tx_ops()?;
        (ops.commit_wait)(&mut self.dev, ticket)?;
        self.stats.barriers += 1;
        Ok(())
    }

    /// Takes the dirty pages `dirty` out of the cache's care: copies
    /// their images and marks them clean and untagged.
    fn take_dirty(&mut self, dirty: &[Lpn]) -> Vec<(Lpn, Vec<u8>)> {
        self.stats.data_writes += dirty.len() as u64;
        dirty
            .iter()
            .map(|&lpn| {
                let Some(p) = self.cache.get_mut(lpn) else {
                    unreachable!("dirty page in cache")
                };
                p.dirty = false;
                p.tid = None;
                (lpn, p.data.clone())
            })
            .collect()
    }

    /// The one `Off`-mode flush: a transaction's dirty data pages plus
    /// the dirty metadata images go to the device under `tid` as one
    /// queued batch — which a channel-parallel FTL overlaps across its
    /// channels — and `seal` ends it: the blocking `commit`, which waits
    /// for the batch and makes the whole transaction durable and atomic
    /// with one command in place of two barriers; `commit_submit`, which
    /// only stages it; or nothing, when a later
    /// [`FileSystem::commit_tx`] seals several files at once.
    fn flush_tx<T>(
        &mut self,
        dirty: &[Lpn],
        tid: Tid,
        data_only: bool,
        seal: fn(&mut D, Tid) -> xftl_ftl::Result<T>,
    ) -> Result<T> {
        let ops = self.tx_ops()?;
        let mut pages = self.take_dirty(dirty);
        let metas = self.collect_meta_images(data_only)?;
        self.stats.meta_writes += metas.len() as u64;
        pages.extend(metas);
        if !pages.is_empty() {
            let batch: Vec<(Lpn, &[u8])> = pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
            (ops.submit_tx)(&mut self.dev, tid, &batch)?;
        }
        Ok(seal(&mut self.dev, tid)?)
    }

    fn sync_pages(&mut self, dirty: &[Lpn], tid: Option<Tid>, data_only: bool) -> Result<()> {
        let has_meta = self.has_dirty_meta(data_only);
        if dirty.is_empty() && !has_meta {
            return Ok(());
        }
        match self.mode {
            JournalMode::Off => {
                let commit = self.tx_ops()?.commit;
                let tid = match tid {
                    Some(t) => t,
                    None => self.begin_tx(),
                };
                self.flush_tx(dirty, tid, data_only, commit)?;
                self.stats.barriers += 1;
            }
            JournalMode::Ordered => {
                // Data first, in place — one queued batch; the journal
                // barrier below completes the queue before the commit
                // page can land.
                let pages = self.take_dirty(dirty);
                if !pages.is_empty() {
                    let cmds: Vec<IoCmd<'_>> = pages
                        .iter()
                        .map(|(l, d)| IoCmd::Write { lpn: *l, data: d })
                        .collect();
                    self.dev.submit(&cmds)?;
                }
                let metas = self.collect_meta_images(data_only)?;
                self.journal_txn(&metas)?;
            }
            JournalMode::Full => {
                // Data rides inside the journal transaction; home writes
                // are owed at checkpoint (each page written twice).
                let mut entries = self.take_dirty(dirty);
                let metas = self.collect_meta_images(data_only)?;
                entries.extend(metas);
                self.journal_txn(&entries)?;
            }
        }
        Ok(())
    }

    /// One ext4-style journal transaction with the classic barrier pair.
    /// A transaction larger than the journal region is split into several
    /// back-to-back commits (JBD2 likewise bounds transaction size).
    fn journal_txn(&mut self, entries: &[(Lpn, Vec<u8>)]) -> Result<()> {
        if entries.is_empty() {
            // Nothing journaled, but the data writes above still need a
            // barrier to be durable.
            self.dev.flush()?;
            self.stats.barriers += 1;
            return Ok(());
        }
        let max_chunk = (self.sb.jr_pages.saturating_sub(3) as usize).max(1);
        for chunk in entries.chunks(max_chunk) {
            if self.journal.needs_checkpoint(chunk.len() as u64) {
                self.stats.checkpoint_writes += self.journal.checkpoint(&mut self.dev)?;
                self.stats.barriers += 1;
            }
            let written = self.journal.append_body(&mut self.dev, chunk)?;
            self.stats.journal_writes += written;
            self.dev.flush()?;
            self.stats.barriers += 1;
            self.journal.append_commit(&mut self.dev)?;
            self.stats.journal_writes += 1;
            self.dev.flush()?;
            self.stats.barriers += 1;
        }
        self.flush_trims()?;
        Ok(())
    }

    /// §5.2's `ioctl(abort)`: drops the transaction's cached dirty pages,
    /// rolls back its stolen writes inside the device, and re-reads
    /// metadata from committed state. Only meaningful in `Off` mode.
    ///
    /// The aborting transaction must be the volume's only in-flight
    /// mutator (SQLite guarantees this with its database write lock).
    pub fn abort_tx(&mut self, tid: Tid) -> Result<()> {
        self.snapshot_tids.remove(&tid);
        self.cache.drop_tid(tid);
        if self.mode == JournalMode::Off {
            let ops = self.tx_ops()?;
            (ops.abort)(&mut self.dev, tid)?;
        }
        self.reload_metadata()
    }

    // --- internals ---------------------------------------------------------

    fn note_freed(&mut self, lpn: Lpn) {
        if self.mode != JournalMode::Off {
            self.pending_trims.push(lpn);
        }
    }

    /// Issues the deferred discard commands; called after a metadata
    /// commit has made the freeing durable. The whole discard set goes
    /// out as one queued batch.
    fn flush_trims(&mut self) -> Result<()> {
        if self.pending_trims.is_empty() {
            return Ok(());
        }
        let cmds: Vec<IoCmd<'_>> = self
            .pending_trims
            .iter()
            .map(|&lpn| IoCmd::Trim { lpn })
            .collect();
        self.dev.submit(&cmds)?;
        self.pending_trims.clear();
        Ok(())
    }

    fn bump(&mut self) -> u64 {
        let v = self.op_counter;
        self.op_counter += 1;
        v
    }

    fn check_file(&self, ino: Ino) -> Result<()> {
        match self.inodes.get(ino as usize) {
            Some(i) if i.kind == InodeKind::File => Ok(()),
            Some(i) if i.kind == InodeKind::Dir => Ok(()),
            _ => Err(FsError::BadInode),
        }
    }

    fn check_dir_or_file(&self, ino: Ino) -> Result<()> {
        self.check_file(ino)
    }

    /// Raises the dirtiness of the inode-table page holding `ino`.
    fn mark_inode(&mut self, ino: Ino, dirt: InodeDirt) {
        let page = (ino as u64 / self.sb.inodes_per_page()) as usize;
        self.inode_dirty[page] = self.inode_dirty[page].max(dirt);
    }

    /// A field of `ino` needed to read its data back changed.
    fn mark_inode_dirty(&mut self, ino: Ino) {
        self.mark_inode(ino, InodeDirt::Data);
    }

    /// The tail of every file write ending at byte `end`: the file grows
    /// to cover it (a change a data-only sync must carry) and its mtime
    /// moves (one it need not).
    fn note_written(&mut self, ino: Ino, end: u64) {
        let mtime = self.bump();
        let inode = &mut self.inodes[ino as usize];
        inode.mtime = mtime;
        let grew = end > inode.size;
        inode.size = inode.size.max(end);
        self.mark_inode(
            ino,
            if grew {
                InodeDirt::Data
            } else {
                InodeDirt::Stamp
            },
        );
    }

    fn read_dev_page(&mut self, lpn: Lpn, buf: &mut [u8], tid: Option<Tid>) -> Result<()> {
        self.stats.reads += 1;
        match (self.mode, tid) {
            (JournalMode::Off, Some(t)) => {
                let ops = self.tx_ops()?;
                (ops.read_tx)(&mut self.dev, t, lpn, buf)?;
            }
            _ => self.dev.read(lpn, buf)?,
        }
        Ok(())
    }

    /// Existing block of file block `idx`, or `None` for a hole.
    fn block_of(&mut self, ino: Ino, idx: u64) -> Result<Option<Lpn>> {
        if (idx as usize) < NDIRECT {
            let lpn = self.inodes[ino as usize].direct[idx as usize];
            return Ok((lpn != 0).then_some(lpn));
        }
        self.load_map(ino)?;
        let Some(map) = self.maps.get(&ino) else {
            unreachable!("loaded above")
        };
        let i = idx as usize - NDIRECT;
        Ok(map.entries.get(i).copied().filter(|&l| l != 0))
    }

    fn block_may_have_data(&mut self, ino: Ino, idx: u64) -> bool {
        // ensure_block may have just allocated the block; a block is worth
        // reading only if it existed before this write, which we detect by
        // whether the file size reaches into it.
        let ps = self.page_size() as u64;
        self.inodes[ino as usize].size > idx * ps
    }

    /// Block of file block `idx`, allocating (and wiring the map) if absent.
    fn ensure_block(&mut self, ino: Ino, idx: u64) -> Result<Lpn> {
        if let Some(lpn) = self.block_of(ino, idx)? {
            return Ok(lpn);
        }
        let lpn = self.bitmap.alloc(self.sb.data_start)?;
        if (idx as usize) < NDIRECT {
            self.inodes[ino as usize].direct[idx as usize] = lpn;
            self.mark_inode_dirty(ino);
            return Ok(lpn);
        }
        let i = idx as usize - NDIRECT;
        let ps = self.sb.page_size as usize;
        let epp = map_entries_per_page(ps);
        // Grow the entry array and the chain to cover index i.
        let needed_pages = (i + 1).div_ceil(epp);
        loop {
            let Some(map) = self.maps.get_mut(&ino) else {
                unreachable!("loaded by block_of")
            };
            if map.pages.len() >= needed_pages {
                break;
            }
            let new_page = self.bitmap.alloc(self.sb.data_start)?;
            let Some(map) = self.maps.get_mut(&ino) else {
                unreachable!("loaded")
            };
            if let Some(last) = map.dirty.last_mut() {
                *last = true; // previous tail gains a next pointer
            }
            map.pages.push(new_page);
            map.dirty.push(true);
            if map.pages.len() == 1 {
                self.inodes[ino as usize].map_root = new_page;
                self.mark_inode_dirty(ino);
            }
        }
        let Some(map) = self.maps.get_mut(&ino) else {
            unreachable!("loaded")
        };
        if map.entries.len() <= i {
            map.entries.resize(i + 1, 0);
        }
        map.entries[i] = lpn;
        map.dirty[i / epp] = true;
        Ok(lpn)
    }

    /// Loads the block-map chain of `ino` into RAM if not present.
    fn load_map(&mut self, ino: Ino) -> Result<()> {
        if self.maps.contains_key(&ino) {
            return Ok(());
        }
        let mut map = BlockMap::default();
        let ps = self.page_size();
        let mut next = self.inodes[ino as usize].map_root;
        let mut buf = vec![0u8; ps];
        while next != 0 {
            self.stats.reads += 1;
            self.dev.read(next, &mut buf)?;
            map.pages.push(next);
            map.dirty.push(false);
            next = get_u64(&buf, 0);
            let count = get_u64(&buf, 8) as usize;
            for i in 0..count {
                let o = 16 + i * 8;
                map.entries.push(get_u64(&buf, o));
            }
        }
        self.maps.insert(ino, map);
        Ok(())
    }

    fn encode_map_page(&self, ino: Ino, page_idx: usize) -> Vec<u8> {
        let ps = self.page_size();
        let epp = map_entries_per_page(ps);
        let map = &self.maps[&ino];
        let mut buf = vec![0u8; ps];
        let next = map.pages.get(page_idx + 1).copied().unwrap_or(0);
        buf[0..8].copy_from_slice(&next.to_le_bytes());
        let start = page_idx * epp;
        let count = map.entries.len().saturating_sub(start).min(epp);
        buf[8..16].copy_from_slice(&(count as u64).to_le_bytes());
        for i in 0..count {
            let o = 16 + i * 8;
            buf[o..o + 8].copy_from_slice(&map.entries[start + i].to_le_bytes());
        }
        buf
    }

    fn has_dirty_meta(&self, data_only: bool) -> bool {
        self.dir_dirty
            || self.inode_dirty.iter().any(|d| d.rides(data_only))
            || !self.bitmap.dirty_pages().is_empty()
            || self.maps.values().any(|m| m.dirty.iter().any(|&d| d))
    }

    /// Serializes every dirty metadata page — bar, for a `data_only`
    /// sync, inode-table pages that differ by a timestamp alone — and
    /// clears the dirty flags of what it took. Directory content is
    /// re-packed into inode 0's blocks first (which may allocate,
    /// dirtying the bitmap and inode table in turn).
    fn collect_meta_images(&mut self, data_only: bool) -> Result<Vec<(Lpn, Vec<u8>)>> {
        let mut out: Vec<(Lpn, Vec<u8>)> = Vec::new();
        let ps = self.page_size();
        if self.dir_dirty {
            let bytes = encode_dir(&self.dir);
            let pages = bytes.len().div_ceil(ps).max(1);
            for p in 0..pages {
                let lpn = self.ensure_block(0, p as u64)?;
                let mut img = vec![0u8; ps];
                let start = p * ps;
                let take = bytes.len().saturating_sub(start).min(ps);
                img[..take].copy_from_slice(&bytes[start..start + take]);
                out.push((lpn, img));
            }
            let inode = &mut self.inodes[0];
            inode.size = bytes.len() as u64;
            self.mark_inode_dirty(0);
            self.dir_dirty = false;
        }
        // Block maps (may not allocate; chain pages already allocated), in
        // inode order: the device may diff some pages of a batch and not
        // others, so the order it sees them in is part of the result.
        let mut inos: Vec<Ino> = self.maps.keys().copied().collect();
        inos.sort_unstable();
        for ino in inos {
            let dirty: Vec<usize> = {
                let map = &self.maps[&ino];
                map.dirty
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &d)| d.then_some(i))
                    .collect()
            };
            for p in dirty {
                let img = self.encode_map_page(ino, p);
                let lpn = self.maps[&ino].pages[p];
                out.push((lpn, img));
                if let Some(m) = self.maps.get_mut(&ino) {
                    m.dirty[p] = false;
                }
            }
        }
        // Inode-table pages.
        for p in 0..self.inode_dirty.len() {
            if self.inode_dirty[p].rides(data_only) {
                out.push((
                    self.sb.it_start + p as u64,
                    encode_inode_page(&self.sb, &self.inodes, p, ps),
                ));
                self.inode_dirty[p] = InodeDirt::Clean;
            }
        }
        // Bitmap pages last: the allocations above may have dirtied them.
        for p in self.bitmap.take_dirty_pages() {
            out.push((self.sb.bm_start + p as u64, self.bitmap.encode_page(p, ps)));
        }
        Ok(out)
    }

    fn evict_if_needed(&mut self) -> Result<()> {
        while self.cache.needs_evict() {
            let Some((lpn, page)) = self.cache.pop_lru() else {
                break;
            };
            if !page.dirty {
                continue;
            }
            self.stats.evictions += 1;
            match (self.mode, page.tid) {
                (JournalMode::Off, Some(tid)) => {
                    // Steal: the uncommitted page reaches the device tagged
                    // with its transaction; X-FTL parks it in the X-L2P.
                    let ops = self.tx_ops()?;
                    (ops.write_tx)(&mut self.dev, tid, lpn, &page.data)?;
                }
                (JournalMode::Full, _) => {
                    // Full journaling may not write data home before its
                    // journal copy commits: evict through a mini journal
                    // transaction.
                    if self.journal.needs_checkpoint(1) {
                        self.stats.checkpoint_writes += self.journal.checkpoint(&mut self.dev)?;
                        self.stats.barriers += 1;
                    }
                    let w = self
                        .journal
                        .append_body(&mut self.dev, &[(lpn, page.data.clone())])?;
                    self.journal.append_commit(&mut self.dev)?;
                    self.stats.journal_writes += w + 1;
                }
                _ => {
                    self.dev.write(lpn, &page.data)?;
                }
            }
        }
        Ok(())
    }

    fn load_dir(&mut self) -> Result<Vec<(String, Ino)>> {
        let size = self.inodes[0].size;
        if size == 0 {
            return Ok(Vec::new());
        }
        let mut bytes = vec![0u8; size as usize];
        // Temporarily mark inode 0 readable through the normal path.
        let n = self.read(0, 0, &mut bytes, None)?;
        bytes.truncate(n);
        Ok(decode_dir(&bytes))
    }

    /// fsck-style consistency check: verifies that every block reachable
    /// from an inode is marked used in the bitmap, that no block is
    /// referenced twice, and that directory entries point at live inodes.
    /// Used by crash-recovery tests to assert volume integrity.
    pub fn check_consistency(&mut self) -> Result<FsckReport> {
        let mut report = FsckReport::default();
        let mut seen = std::collections::HashSet::new();
        let mut claim = |lpn: u64, report: &mut FsckReport, bitmap: &BlockBitmap| {
            if !seen.insert(lpn) {
                report.double_referenced += 1;
            }
            if !bitmap.is_set(lpn) {
                report.unmarked_in_bitmap += 1;
            }
        };
        let inos: Vec<Ino> = (0..self.inodes.len() as Ino).collect();
        for ino in inos {
            if self.inodes[ino as usize].kind == InodeKind::Free {
                continue;
            }
            report.live_inodes += 1;
            for i in 0..NDIRECT {
                let lpn = self.inodes[ino as usize].direct[i];
                if lpn != 0 {
                    claim(lpn, &mut report, &self.bitmap);
                }
            }
            self.load_map(ino)?;
            if let Some(map) = self.maps.get(&ino) {
                let entries = map.entries.clone();
                let pages = map.pages.clone();
                for lpn in pages {
                    claim(lpn, &mut report, &self.bitmap);
                }
                for lpn in entries {
                    if lpn != 0 {
                        claim(lpn, &mut report, &self.bitmap);
                    }
                }
            }
        }
        for (name, ino) in &self.dir {
            let ok = self
                .inodes
                .get(*ino as usize)
                .map(|i| i.kind != InodeKind::Free)
                .unwrap_or(false);
            if !ok {
                report.dangling_dir_entries += 1;
                report.first_dangling = Some(name.clone());
            }
        }
        Ok(report)
    }

    /// Re-reads all metadata from the device, discarding in-RAM changes
    /// (the abort path).
    fn reload_metadata(&mut self) -> Result<()> {
        let ps = self.page_size();
        let mut buf = vec![0u8; ps];
        let ipp = self.sb.inodes_per_page() as usize;
        let mut inodes = Vec::with_capacity(self.sb.inode_count as usize);
        for p in 0..self.sb.it_pages {
            self.dev.read(self.sb.it_start + p, &mut buf)?;
            for i in 0..ipp {
                if inodes.len() < self.sb.inode_count as usize {
                    inodes.push(Inode::decode(&buf, i * crate::layout::INODE_BYTES));
                }
            }
        }
        self.inodes = inodes;
        self.inode_dirty.fill(InodeDirt::Clean);
        let mut bm_bytes = Vec::with_capacity((self.sb.bm_pages as usize) * ps);
        for p in 0..self.sb.bm_pages {
            self.dev.read(self.sb.bm_start + p, &mut buf)?;
            bm_bytes.extend_from_slice(&buf);
        }
        self.bitmap = BlockBitmap::from_bytes(&bm_bytes, self.sb.total_pages, ps);
        self.maps.clear();
        self.dir = self.load_dir()?;
        self.dir_dirty = false;
        Ok(())
    }
}

/// Result of [`FileSystem::check_consistency`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Inodes in use.
    pub live_inodes: u64,
    /// Blocks referenced by an inode but free in the bitmap.
    pub unmarked_in_bitmap: u64,
    /// Blocks referenced by two different owners.
    pub double_referenced: u64,
    /// Directory entries pointing at free/invalid inodes.
    pub dangling_dir_entries: u64,
    /// Name of the first dangling entry found, for diagnostics.
    pub first_dangling: Option<String>,
}

impl FsckReport {
    /// True when no inconsistency was found.
    pub fn is_clean(&self) -> bool {
        self.unmarked_in_bitmap == 0
            && self.double_referenced == 0
            && self.dangling_dir_entries == 0
    }
}

fn encode_inode_page(sb: &Superblock, inodes: &[Inode], page: usize, ps: usize) -> Vec<u8> {
    let ipp = sb.inodes_per_page() as usize;
    let mut buf = vec![0u8; ps];
    for i in 0..ipp {
        let ino = page * ipp + i;
        if ino < inodes.len() {
            inodes[ino].encode(&mut buf, i * crate::layout::INODE_BYTES);
        }
    }
    buf
}

fn encode_dir(dir: &[(String, Ino)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(dir.len() as u32).to_le_bytes());
    for (name, ino) in dir {
        out.extend_from_slice(&ino.to_le_bytes());
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out
}

fn decode_dir(bytes: &[u8]) -> Vec<(String, Ino)> {
    let mut out = Vec::new();
    if bytes.len() < 4 {
        return out;
    }
    let count = get_u32(bytes, 0) as usize;
    let mut off = 4;
    for _ in 0..count {
        if off + 6 > bytes.len() {
            break;
        }
        let ino = get_u32(bytes, off);
        let len = usize::from(get_u16(bytes, off + 4));
        off += 6;
        if off + len > bytes.len() {
            break;
        }
        let name = String::from_utf8_lossy(&bytes[off..off + len]).into_owned();
        off += len;
        out.push((name, ino));
    }
    out
}
