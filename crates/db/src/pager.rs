//! The pager: page-level storage, transactions, and the three journal
//! modes of the paper.
//!
//! | mode       | commit protocol (per §2.1–§2.2 and Figure 1)             |
//! |------------|-----------------------------------------------------------|
//! | `Rollback` | copy originals to `<db>-journal`, fsync, fsync header,    |
//! |            | write pages to the DB file, fsync, delete the journal      |
//! | `Wal`      | append new versions to `<db>-wal` as one padded write,     |
//! |            | one fsync; every 1000 frames checkpoint into the DB file   |
//! |            | and reuse the log from its start under the next salt       |
//! | `Off`      | write pages straight to the DB file tagged with the        |
//! |            | transaction id; one `fsync(tid)` = device `commit`        |
//!
//! Every "fsync" above is issued as `fdatasync`, as SQLite's unix VFS
//! does: a sync carries the inode only when the file's size or block
//! pointers changed, never for a timestamp alone.
//!
//! The buffer pool is managed *steal/force* exactly as SQLite's (§2.1):
//! every commit force-writes the transaction's dirty pages, and under
//! memory pressure uncommitted dirty pages spill to storage early — via
//! the journal-sync-then-spill dance in `Rollback` mode, an uncommitted
//! WAL frame in `Wal` mode, and a tid-tagged `write_tx` in `Off` mode.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use xftl_fs::recency::Dirty;
use xftl_fs::{FileSystem, FsError, Ino};
use xftl_ftl::{BlockDevice, Nanos, SimClock, Tid};
use xftl_trace::{OpClass, Telemetry};

use crate::error::{DbError, Result};
use crate::frames::Frames;

/// Little-endian u64 at `off` (callers guarantee the bounds).
pub(crate) fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(bytes)
}

/// Little-endian u32 at `off` (callers guarantee the bounds).
pub(crate) fn get_u32(buf: &[u8], off: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(bytes)
}

/// Little-endian u16 at `off` (callers guarantee the bounds).
pub(crate) fn get_u16(buf: &[u8], off: usize) -> u16 {
    let mut bytes = [0u8; 2];
    bytes.copy_from_slice(&buf[off..off + 2]);
    u16::from_le_bytes(bytes)
}

/// Journal mode of one database connection (PRAGMA journal_mode analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbJournalMode {
    /// SQLite's default rollback-journal (DELETE) mode: the journal file
    /// is deleted at commit.
    Rollback,
    /// Rollback journal finalized by truncation to zero length
    /// (`PRAGMA journal_mode=TRUNCATE`) — avoids the per-transaction
    /// create/unlink metadata churn.
    RollbackTruncate,
    /// Rollback journal finalized by zeroing its header
    /// (`PRAGMA journal_mode=PERSIST`) — one page write instead of any
    /// file-system metadata operation.
    RollbackPersist,
    /// Write-ahead log mode.
    Wal,
    /// Journaling off — transactional atomicity delegated to X-FTL.
    Off,
}

impl DbJournalMode {
    /// True for any of the three rollback-journal variants.
    pub fn is_rollback(self) -> bool {
        matches!(
            self,
            DbJournalMode::Rollback
                | DbJournalMode::RollbackTruncate
                | DbJournalMode::RollbackPersist
        )
    }
}

/// A file system shared by several database files (Gmail uses 2, Facebook
/// 11 — Table 2).
pub type SharedFs<D> = Rc<RefCell<FileSystem<D>>>;

/// Database page number (page 0 is the header).
pub type PageNo = u32;

/// A shared, immutable page image as handed out by [`Pager::page`]. The
/// cache holds the same allocation; [`Pager::put`] installs a *new*
/// frame, so a handle taken earlier keeps the bytes it was taken with.
pub type PageRef = Rc<Vec<u8>>;

/// Magic of the DB header page ("XFTLSQL1").
const DB_MAGIC: u64 = 0x5846_544C_5351_4C31;
/// Magic of a rollback-journal header.
const RJ_MAGIC: u64 = 0x524A_4F55_524E_414C;
/// Magic of a WAL header.
const WAL_MAGIC: u64 = 0x5741_4C48_4452_5F31;
/// Bytes of the WAL header, and of the frame header preceding each page
/// image: page number, commit size (0 but in a commit's last frame),
/// magic, salt, the image's checksum, and the chain checksum of this
/// header's first 32 bytes over the previous frame's.
const WAL_FRAME_HDR: u64 = 64;

/// SQLite's WAL checksum (fileformat2 §4.3): two 32-bit running sums
/// over the bytes as little-endian word pairs, continuing from `seed`.
fn wal_sum(seed: u64, bytes: &[u8]) -> u64 {
    let (mut s0, mut s1) = (seed as u32, (seed >> 32) as u32);
    for w in bytes.chunks_exact(8) {
        s0 = s0.wrapping_add(get_u32(w, 0)).wrapping_add(s1);
        s1 = s1.wrapping_add(get_u32(w, 4)).wrapping_add(s0);
    }
    u64::from(s0) | u64::from(s1) << 32
}

/// The chain value a generation's first frame continues from.
fn wal_seed(salt: u64) -> u64 {
    wal_sum(0, &salt.to_le_bytes())
}

/// The chain value of frame header `fh`, following `prev`'s.
fn wal_chain(prev: u64, fh: &[u8]) -> u64 {
    wal_sum(prev, &fh[..32])
}

/// A commit the WAL recovery scan found: its frames (page, payload
/// offset, image checksum), the database size it records, and the log's
/// end and chain after it.
#[derive(Debug, Default)]
struct ScannedCommit {
    frames: Vec<(PageNo, u64, u64)>,
    size: u32,
    end: u64,
    chain: u64,
}

/// Pager-attributed I/O counts (the "SQLite DB / Journal" columns of
/// Table 1 come from here).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PagerStats {
    /// Pages written to the database file.
    pub db_writes: u64,
    /// Page-equivalents written to the rollback journal or WAL
    /// (headers included).
    pub journal_writes: u64,
    /// fsync calls issued by the pager.
    pub fsyncs: u64,
    /// Pages read (from DB file or WAL).
    pub reads: u64,
    /// WAL checkpoints performed.
    pub checkpoints: u64,
    /// Directory syncs after journal deletion (SQLite's dirsync, which
    /// makes the rollback-journal commit point durable).
    pub dirsyncs: u64,
    /// Dirty pages spilled before commit (steal events).
    pub spills: u64,
}

/// The pager over one database file.
#[derive(Debug)]
pub struct Pager<D: BlockDevice> {
    fs: SharedFs<D>,
    pub(crate) name: String,
    db_ino: Ino,
    mode: DbJournalMode,
    page_size: usize,
    cache: Frames,
    cache_cap: usize,

    /// Committed page count (header field), plus in-tx growth.
    page_count: u32,
    freelist_head: u32,
    schema_root: u32,

    in_tx: bool,
    tid: Option<Tid>,
    /// Open transaction was started with [`Pager::begin_concurrent`]: it
    /// holds a device snapshot and validates first-committer-wins at
    /// commit.
    concurrent: bool,
    dirty_in_tx: HashSet<PageNo>,

    // Rollback-journal state.
    journal_ino: Option<Ino>,
    journaled: Vec<PageNo>,
    journaled_set: HashSet<PageNo>,
    journal_synced_records: u32,
    /// Master-journal name recorded in the journal header during a
    /// multi-file commit (§4.3 / SQLite's master journal protocol).
    master_name: Option<String>,
    /// Page count at transaction start (journal restores it on rollback).
    tx_orig_page_count: u32,
    /// Header triple (page_count, freelist_head, schema_root) at
    /// `BEGIN CONCURRENT`: the header page is only force-written when the
    /// triple changed, so disjoint concurrent writers do not all collide
    /// on page 0.
    tx_orig_header: (u32, u32, u32),

    // WAL state.
    wal_ino: Option<Ino>,
    /// page -> byte offset of the latest committed (or own-tx) frame image.
    wal_index: HashMap<PageNo, u64>,
    /// Append offset in the WAL file; 0 until the generation's first
    /// write, which carries the header.
    wal_end: u64,
    /// Frames since the last checkpoint.
    wal_frames: u32,
    /// The log's generation: every frame carries it, and a checkpoint
    /// moves to the next.
    wal_salt: u64,
    /// Chain checksum of the last frame written, and of the last
    /// committed one (a rollback rewinds to it).
    wal_chain: u64,
    wal_commit_chain: u64,
    /// Frames appended by the open transaction, with the index entry they
    /// displaced (restored on rollback).
    tx_frames: Vec<(PageNo, Option<u64>)>,
    /// File offset just past the last *committed* frame.
    wal_last_commit_end: u64,
    /// Checkpoint threshold in frames (SQLite default: 1000).
    pub wal_autocheckpoint: u32,

    stats: PagerStats,

    /// Telemetry sink plus the clock that timestamps its spans; absent
    /// until [`Pager::set_recorder`] installs them.
    recorder: Telemetry,
    clock: Option<SimClock>,
}

impl<D: BlockDevice> Pager<D> {
    /// Opens (creating if necessary) the database file `name`, recovering
    /// from a hot rollback journal or an existing WAL as appropriate.
    pub fn open(fs: SharedFs<D>, name: &str, mode: DbJournalMode) -> Result<Self> {
        let page_size = fs.borrow().page_size();
        let existing = fs.borrow().exists(name);
        let db_ino = if existing {
            fs.borrow().open(name)?
        } else {
            fs.borrow_mut().create(name)?
        };
        let mut pager = Pager {
            fs,
            name: name.to_string(),
            db_ino,
            mode,
            page_size,
            cache: Frames::new(),
            // SQLite's default cache_size is ~2 MB; with the paper's 8 KB
            // pages that is 256 frames.
            cache_cap: 256,
            page_count: 1,
            freelist_head: 0,
            schema_root: 0,
            in_tx: false,
            tid: None,
            concurrent: false,
            dirty_in_tx: HashSet::new(),
            journal_ino: None,
            journaled: Vec::new(),
            journaled_set: HashSet::new(),
            journal_synced_records: 0,
            master_name: None,
            tx_orig_page_count: 1,
            tx_orig_header: (1, 0, 0),
            wal_ino: None,
            wal_index: HashMap::new(),
            wal_end: 0,
            wal_frames: 0,
            wal_salt: 0,
            wal_chain: 0,
            wal_commit_chain: 0,
            tx_frames: Vec::new(),
            wal_last_commit_end: 0,
            wal_autocheckpoint: 1000,
            stats: PagerStats::default(),
            recorder: Telemetry::disabled(),
            clock: None,
        };
        if mode.is_rollback() {
            pager.recover_hot_journal()?;
        }
        if mode == DbJournalMode::Wal {
            // The newest header may live in the WAL: index it first.
            pager.wal_open()?;
        }
        if existing {
            pager.load_header()?;
        } else {
            // Fresh database: header page 0.
            let mut hdr = vec![0u8; page_size];
            hdr[0..8].copy_from_slice(&DB_MAGIC.to_le_bytes());
            hdr[8..12].copy_from_slice(&1u32.to_le_bytes());
            pager.fs.borrow_mut().write(db_ino, 0, &hdr, None)?;
            pager.stats.db_writes += 1;
        }
        Ok(pager)
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pager statistics.
    pub fn stats(&self) -> &PagerStats {
        &self.stats
    }

    /// Resets statistics between experiment phases.
    pub fn reset_stats(&mut self) {
        self.stats = PagerStats::default();
    }

    /// Root page of the schema table (0 = not yet created).
    pub fn schema_root(&self) -> PageNo {
        self.schema_root
    }

    /// Records the schema root (dirties the header).
    pub fn set_schema_root(&mut self, pgno: PageNo) -> Result<()> {
        self.schema_root = pgno;
        self.write_header()
    }

    /// Shared file system handle.
    pub fn shared_fs(&self) -> SharedFs<D> {
        Rc::clone(&self.fs)
    }

    fn load_header(&mut self) -> Result<()> {
        let hdr = self.read_page_raw(0)?;
        let magic = get_u64(&hdr, 0);
        if magic == 0 {
            // The file was created but its header never reached storage
            // before a crash: treat as a fresh, empty database (SQLite
            // does the same for zero-length files).
            self.page_count = 1;
            self.freelist_head = 0;
            self.schema_root = 0;
            return Ok(());
        }
        if magic != DB_MAGIC {
            return Err(DbError::Corrupt("bad database header magic"));
        }
        self.page_count = get_u32(&hdr, 8);
        self.freelist_head = get_u32(&hdr, 12);
        self.schema_root = get_u32(&hdr, 16);
        Ok(())
    }

    fn write_header(&mut self) -> Result<()> {
        let mut hdr = self.page(0)?.to_vec();
        hdr[0..8].copy_from_slice(&DB_MAGIC.to_le_bytes());
        hdr[8..12].copy_from_slice(&self.page_count.to_le_bytes());
        hdr[12..16].copy_from_slice(&self.freelist_head.to_le_bytes());
        hdr[16..20].copy_from_slice(&self.schema_root.to_le_bytes());
        self.put(0, hdr)
    }

    // --- transactions -------------------------------------------------------

    /// True if a transaction is open.
    pub fn in_tx(&self) -> bool {
        self.in_tx
    }

    /// Installs a telemetry handle and the simulated clock that
    /// timestamps its spans (pass clones of the stack-wide pair).
    pub fn set_recorder(&mut self, clock: SimClock, recorder: Telemetry) {
        self.clock = Some(clock);
        self.recorder = recorder;
    }

    pub(crate) fn span_start(&self) -> Option<Nanos> {
        self.clock.as_ref().map(SimClock::now)
    }

    pub(crate) fn record_span(&self, op: OpClass, tid: u64, lpn: u64, t_start: Option<Nanos>) {
        if let (Some(clock), Some(t0)) = (&self.clock, t_start) {
            self.recorder.record_span(op, tid, lpn, t0, clock.now());
        }
    }

    /// Begins a transaction.
    pub fn begin(&mut self) -> Result<()> {
        if self.in_tx {
            return Err(DbError::TxState("transaction already active"));
        }
        self.in_tx = true;
        self.tx_orig_page_count = self.page_count;
        if self.mode == DbJournalMode::Off {
            self.tid = Some(self.fs.borrow_mut().begin_tx());
        }
        Ok(())
    }

    /// Begins a snapshot (`BEGIN CONCURRENT`) transaction, `Off` mode
    /// only. The transaction reads the database as of this call; its
    /// writes validate first-committer-wins inside the device at commit,
    /// and a loser surfaces as [`DbError::Conflict`] already rolled back.
    /// The pager cache is cleared so every page is re-fetched under the
    /// snapshot — another connection on the same file system may have
    /// committed since the cache was filled.
    pub fn begin_concurrent(&mut self) -> Result<()> {
        if self.mode != DbJournalMode::Off {
            return Err(DbError::TxState("BEGIN CONCURRENT needs journal mode Off"));
        }
        if self.in_tx {
            return Err(DbError::TxState("transaction already active"));
        }
        let tid = self.fs.borrow_mut().begin_tx_concurrent()?;
        self.in_tx = true;
        self.concurrent = true;
        self.tid = Some(tid);
        self.cache.clear();
        // Header fields re-read under the snapshot: a concurrent commit
        // by another connection must not bleed into this transaction.
        self.load_header()?;
        self.tx_orig_page_count = self.page_count;
        self.tx_orig_header = (self.page_count, self.freelist_head, self.schema_root);
        Ok(())
    }

    /// Commits the open transaction using the mode's protocol.
    pub fn commit(&mut self) -> Result<()> {
        if !self.in_tx {
            return Err(DbError::TxState("no transaction active"));
        }
        if self.end_read_only_tx()? {
            return Ok(());
        }
        let t0 = self.span_start();
        let res = match self.mode {
            m if m.is_rollback() => self.commit_rollback_mode(),
            DbJournalMode::Wal => self.commit_wal_mode(),
            _ => self.commit_off(|fs, ino, tid| fs.fdatasync(ino, Some(tid))),
        };
        if let Err(e) = res {
            return Err(self.unwind_conflict(e)?);
        }
        self.record_span(OpClass::PagerFlush, self.tid.unwrap_or(0), 0, t0);
        self.end_tx();
        Ok(())
    }

    /// Ends a transaction that changed nothing: there is nothing to make
    /// durable — but a snapshot transaction still holds device state to
    /// release. Returns `false` (and does nothing) if there is work to
    /// commit.
    fn end_read_only_tx(&mut self) -> Result<bool> {
        if !self.dirty_in_tx.is_empty() || self.journal_ino.is_some() {
            return Ok(false);
        }
        if self.concurrent {
            if let Some(tid) = self.tid {
                self.fs.borrow_mut().abort_tx(tid)?;
            }
        }
        self.end_tx();
        Ok(true)
    }

    /// Conflict cleanup for a `BEGIN CONCURRENT` loser: the device and
    /// file system have already rolled the transaction back, so only the
    /// pager's own state needs unwinding. Maps the device error to
    /// [`DbError::Conflict`]; any other error passes through untouched.
    fn unwind_conflict(&mut self, e: DbError) -> Result<DbError> {
        if !(self.concurrent && e == DbError::Fs(FsError::Dev(xftl_ftl::DevError::Conflict))) {
            return Ok(e);
        }
        self.drop_dirty_cache();
        self.end_tx();
        self.load_header()?;
        Ok(DbError::Conflict)
    }

    /// Rolls the open transaction back.
    pub fn rollback(&mut self) -> Result<()> {
        if !self.in_tx {
            return Err(DbError::TxState("no transaction active"));
        }
        match self.mode {
            m if m.is_rollback() => self.rollback_journal_mode()?,
            DbJournalMode::Wal => {
                // Frames spilled by this transaction are forgotten; index
                // entries they displaced come back, and the file tail is
                // rewound so the next transaction overwrites them.
                for (pgno, prev) in std::mem::take(&mut self.tx_frames).into_iter().rev() {
                    match prev {
                        Some(off) => {
                            self.wal_index.insert(pgno, off);
                        }
                        None => {
                            self.wal_index.remove(&pgno);
                        }
                    }
                }
                self.wal_end = self.wal_last_commit_end;
                self.wal_chain = self.wal_commit_chain;
                self.drop_dirty_cache();
            }
            _ => {
                self.drop_dirty_cache();
                let Some(tid) = self.tid else {
                    unreachable!("Off-mode tx has a tid")
                };
                self.fs.borrow_mut().abort_tx(tid)?;
            }
        }
        self.page_count = self.tx_orig_page_count;
        self.load_header()?;
        self.end_tx();
        Ok(())
    }

    fn end_tx(&mut self) {
        self.in_tx = false;
        self.tid = None;
        if self.concurrent {
            // Pages fetched under the snapshot may trail commits made by
            // other connections meanwhile; drop them so later reads
            // refetch current state.
            self.cache.clear();
            self.concurrent = false;
        }
        self.dirty_in_tx.clear();
        self.journaled.clear();
        self.journaled_set.clear();
        self.journal_synced_records = 0;
        self.master_name = None;
        self.tx_frames.clear();
    }

    fn drop_dirty_cache(&mut self) {
        let dirty: Vec<PageNo> = std::mem::take(&mut self.dirty_in_tx).into_iter().collect();
        for pgno in dirty {
            self.cache.remove(pgno);
        }
    }

    // --- rollback-journal protocol -------------------------------------------

    fn journal_name(&self) -> String {
        format!("{}-journal", self.name)
    }

    fn ensure_journal(&mut self) -> Result<Ino> {
        if let Some(ino) = self.journal_ino {
            return Ok(ino);
        }
        // DELETE mode creates the journal per transaction (Figure 1);
        // TRUNCATE/PERSIST reuse the file left by the previous commit.
        // Only a missing file falls through to create — a device failure
        // must propagate, not silently spawn a fresh journal.
        let name = self.journal_name();
        let existing = self.fs.borrow().open(&name);
        let ino = match existing {
            Ok(ino) => ino,
            Err(FsError::NotFound) => self.fs.borrow_mut().create(&name)?,
            Err(e) => return Err(e.into()),
        };
        // Header placeholder (record count 0) fills the first page.
        let hdr = self.encode_journal_header(0);
        self.fs.borrow_mut().write(ino, 0, &hdr, None)?;
        self.stats.journal_writes += 1;
        self.journal_ino = Some(ino);
        Ok(ino)
    }

    /// Finalizes the journal after a successful commit, rollback, or
    /// recovery — the step whose durability is the rollback-journal commit
    /// point. The strategy is the journal-mode knob: DELETE unlinks (plus
    /// dirsync), TRUNCATE shrinks to zero, PERSIST zeroes the header.
    fn finalize_journal(&mut self) -> Result<()> {
        let Some(ino) = self.journal_ino.take() else {
            return Ok(());
        };
        match self.mode {
            DbJournalMode::RollbackTruncate => {
                self.fs.borrow_mut().truncate(ino, 0)?;
                self.fs.borrow_mut().sync_meta(None)?;
                self.stats.dirsyncs += 1;
            }
            DbJournalMode::RollbackPersist => {
                let zero = vec![0u8; self.page_size];
                self.fs.borrow_mut().write(ino, 0, &zero, None)?;
                self.stats.journal_writes += 1;
                self.fs.borrow_mut().fdatasync(ino, None)?;
                self.stats.fsyncs += 1;
            }
            _ => {
                self.fs.borrow_mut().unlink(&self.journal_name())?;
                self.fs.borrow_mut().sync_meta(None)?;
                self.stats.dirsyncs += 1;
            }
        }
        Ok(())
    }

    fn encode_journal_header(&self, records: u32) -> Vec<u8> {
        let mut hdr = vec![0u8; self.page_size];
        hdr[0..8].copy_from_slice(&RJ_MAGIC.to_le_bytes());
        hdr[8..12].copy_from_slice(&records.to_le_bytes());
        hdr[12..16].copy_from_slice(&self.tx_orig_page_count.to_le_bytes());
        for (i, pgno) in self.journaled.iter().take(records as usize).enumerate() {
            let off = 16 + i * 4;
            hdr[off..off + 4].copy_from_slice(&pgno.to_le_bytes());
        }
        // Master-journal name in the trailing 256 bytes of the header.
        if let Some(m) = &self.master_name {
            let tail = self.page_size - 256;
            let bytes = m.as_bytes();
            let len = bytes.len().min(250);
            hdr[tail..tail + 2].copy_from_slice(&(len as u16).to_le_bytes());
            hdr[tail + 2..tail + 2 + len].copy_from_slice(&bytes[..len]);
        }
        hdr
    }

    fn decode_master_name(&self, hdr: &[u8]) -> Option<String> {
        let tail = self.page_size - 256;
        let len = usize::from(get_u16(hdr, tail));
        if len == 0 || len > 250 {
            return None;
        }
        Some(String::from_utf8_lossy(&hdr[tail + 2..tail + 2 + len]).into_owned())
    }

    /// Copies the pre-transaction image of `pgno` into the journal (done
    /// once per page per transaction, *before* the page is modified).
    fn journal_original(&mut self, pgno: PageNo) -> Result<()> {
        if self.journaled_set.contains(&pgno) || pgno >= self.tx_orig_page_count {
            return Ok(()); // already saved, or the page is new in this tx
        }
        let original = match self.cache.peek(pgno) {
            Some(f) if !f.is_dirty() => Rc::clone(&f.data),
            Some(_) => unreachable!("page journaled after modification"),
            None => Rc::new(self.read_page_raw(pgno)?),
        };
        let ino = self.ensure_journal()?;
        let slot = self.journaled.len() as u64;
        let off = (1 + slot) * self.page_size as u64;
        self.fs.borrow_mut().write(ino, off, &original, None)?;
        self.stats.journal_writes += 1;
        self.journaled.push(pgno);
        self.journaled_set.insert(pgno);
        Ok(())
    }

    /// Syncs the journal so far (records + header). Needed before any
    /// uncommitted page may spill to the DB file, and at commit.
    fn sync_journal(&mut self) -> Result<()> {
        let Some(ino) = self.journal_ino else {
            return Ok(());
        };
        // fsync #1: the record pages.
        self.fs.borrow_mut().fdatasync(ino, None)?;
        self.stats.fsyncs += 1;
        // Header with the final record count, then fsync #2.
        let hdr = self.encode_journal_header(self.journaled.len() as u32);
        self.fs.borrow_mut().write(ino, 0, &hdr, None)?;
        self.stats.journal_writes += 1;
        self.fs.borrow_mut().fdatasync(ino, None)?;
        self.stats.fsyncs += 1;
        self.journal_synced_records = self.journaled.len() as u32;
        Ok(())
    }

    /// Writes one page image to its home in the database file, tagged
    /// with `tid` in `Off` mode.
    fn write_home(&mut self, pgno: PageNo, data: &[u8], tid: Option<Tid>) -> Result<()> {
        self.fs
            .borrow_mut()
            .write(self.db_ino, pgno as u64 * self.page_size as u64, data, tid)?;
        self.stats.db_writes += 1;
        Ok(())
    }

    /// Force: writes every page the transaction dirtied to the database
    /// file, in page order, tagged with `tid` (`Off` mode) or untagged.
    /// A page no longer cached was spilled under cache pressure — already
    /// written home (or, in `Off` mode, stolen to the device under the
    /// tid) — and the fsync that follows makes it durable.
    fn force_dirty(&mut self, tid: Option<Tid>) -> Result<()> {
        let mut dirty: Vec<PageNo> = self.dirty_in_tx.iter().copied().collect();
        dirty.sort_unstable();
        for pgno in dirty {
            let Some(data) = self.cache.mark_clean(pgno) else {
                continue;
            };
            self.write_home(pgno, &data, tid)?;
        }
        Ok(())
    }

    fn commit_rollback_mode(&mut self) -> Result<()> {
        self.write_header()?;
        self.sync_journal()?;
        self.force_dirty(None)?;
        self.fs.borrow_mut().fdatasync(self.db_ino, None)?;
        self.stats.fsyncs += 1;
        // Commit point: finalize the journal (delete / truncate / zero
        // per the mode), durably, so a stale journal can never roll the
        // transaction back after a crash.
        self.finalize_journal()?;
        Ok(())
    }

    fn rollback_journal_mode(&mut self) -> Result<()> {
        // Undo spilled pages from the journal, drop cached changes.
        self.drop_dirty_cache();
        if let Some(ino) = self.journal_ino {
            // Only records already synced could have mattered; restoring
            // all journaled originals is always safe.
            let records = self.journaled.clone();
            for (i, pgno) in records.iter().enumerate() {
                let mut buf = vec![0u8; self.page_size];
                let off = (1 + i as u64) * self.page_size as u64;
                self.fs.borrow_mut().read(ino, off, &mut buf, None)?;
                self.write_home(*pgno, &buf, None)?;
            }
            self.fs.borrow_mut().fdatasync(self.db_ino, None)?;
            self.stats.fsyncs += 1;
            self.journal_ino = Some(ino);
            self.finalize_journal()?;
        }
        Ok(())
    }

    /// Open-time hot-journal recovery (§6.4: copy originals back, delete
    /// the journal).
    fn recover_hot_journal(&mut self) -> Result<()> {
        let jname = self.journal_name();
        let Ok(ino) = self.fs.borrow().open(&jname) else {
            return Ok(());
        };
        let mut hdr = vec![0u8; self.page_size];
        let n = self.fs.borrow_mut().read(ino, 0, &mut hdr, None)?;
        let valid = n == self.page_size && get_u64(&hdr, 0) == RJ_MAGIC;
        if valid {
            // A journal naming a master is hot only while the master file
            // exists; a missing master means the group transaction already
            // committed (the master's deletion is the group commit point).
            if let Some(master) = self.decode_master_name(&hdr) {
                if !self.fs.borrow().exists(&master) {
                    self.fs.borrow_mut().unlink(&jname)?;
                    self.fs.borrow_mut().sync_meta(None)?;
                    self.stats.dirsyncs += 1;
                    return Ok(());
                }
            }
            let records = get_u32(&hdr, 8);
            for i in 0..records {
                let off = 16 + (i as usize) * 4;
                let pgno = get_u32(&hdr, off);
                let mut buf = vec![0u8; self.page_size];
                let foff = (1 + i as u64) * self.page_size as u64;
                self.fs.borrow_mut().read(ino, foff, &mut buf, None)?;
                self.write_home(pgno, &buf, None)?;
            }
            if records > 0 {
                self.fs.borrow_mut().fdatasync(self.db_ino, None)?;
                self.stats.fsyncs += 1;
            }
        }
        self.journal_ino = Some(ino);
        self.finalize_journal()?;
        Ok(())
    }

    // --- WAL protocol ---------------------------------------------------------

    fn wal_name(&self) -> String {
        format!("{}-wal", self.name)
    }

    /// Opens (or creates) the WAL and rebuilds the in-RAM index from the
    /// committed frames of its current generation (§6.4's WAL recovery
    /// path when the file is found after a crash). The scan reads frame
    /// headers until the first that is not this generation's next: a salt
    /// other than the header's, or a broken chain. Every commit but the
    /// last was durable before the next one began to write, and no write
    /// of this generation overwrote it, so only the last commit's images
    /// are read and checked; a torn one drops that commit whole.
    fn wal_open(&mut self) -> Result<()> {
        let wname = self.wal_name();
        let exists = self.fs.borrow().exists(&wname);
        let ino = if exists {
            self.fs.borrow().open(&wname)?
        } else {
            self.fs.borrow_mut().create(&wname)?
        };
        self.wal_ino = Some(ino);
        self.wal_index.clear();
        self.wal_frames = 0;
        let mut fh = vec![0u8; WAL_FRAME_HDR as usize];
        let n = self.fs.borrow_mut().read(ino, 0, &mut fh, None)?;
        if n < fh.len() || get_u64(&fh, 0) != WAL_MAGIC {
            // A log that never had a header: its first write carries one.
            self.wal_restart(1);
            return Ok(());
        }
        let salt = get_u64(&fh, 8);
        // Until a commit is found, the next write rewrites the header.
        self.wal_restart(salt);
        let size = self.fs.borrow().size(ino)?;
        let frame_len = WAL_FRAME_HDR + self.page_size as u64;
        // The frames read since the last commit frame, and the last commit.
        let mut pending = Vec::new();
        let mut last = ScannedCommit::default();
        let (mut off, mut chain) = (WAL_FRAME_HDR, self.wal_chain);
        while off + frame_len <= size {
            self.fs.borrow_mut().read(ino, off, &mut fh, None)?;
            let next = wal_chain(chain, &fh);
            if get_u64(&fh, 8) != WAL_MAGIC || get_u64(&fh, 16) != salt || get_u64(&fh, 32) != next
            {
                break;
            }
            pending.push((get_u32(&fh, 0), off + WAL_FRAME_HDR, get_u64(&fh, 24)));
            off += frame_len;
            chain = next;
            let commit_size = get_u32(&fh, 4);
            if commit_size != 0 {
                // A commit frame: the commit before it is not the last,
                // and this one's padding to the page boundary is skipped.
                off = off.next_multiple_of(self.page_size as u64);
                let commit = ScannedCommit {
                    frames: std::mem::take(&mut pending),
                    size: commit_size,
                    end: off,
                    chain,
                };
                self.wal_keep(std::mem::replace(&mut last, commit));
            }
        }
        let mut image = vec![0u8; self.page_size];
        for &(_, o, sum) in &last.frames {
            self.fs.borrow_mut().read(ino, o, &mut image, None)?;
            if wal_sum(0, &image) != sum {
                return Ok(());
            }
        }
        self.wal_keep(last);
        Ok(())
    }

    /// Makes a recovered commit's frames visible, and appends after it.
    fn wal_keep(&mut self, commit: ScannedCommit) {
        if commit.frames.is_empty() {
            return;
        }
        self.wal_frames += commit.frames.len() as u32;
        for (pgno, off, _) in commit.frames {
            self.wal_index.insert(pgno, off);
        }
        self.page_count = self.page_count.max(commit.size);
        (self.wal_end, self.wal_chain) = (commit.end, commit.chain);
        (self.wal_last_commit_end, self.wal_commit_chain) = (commit.end, commit.chain);
    }

    /// Starts generation `salt` at the start of the log: its first write
    /// carries the header.
    fn wal_restart(&mut self, salt: u64) {
        self.wal_salt = salt;
        self.wal_end = 0;
        self.wal_last_commit_end = 0;
        self.wal_chain = wal_seed(self.wal_salt);
        self.wal_commit_chain = self.wal_chain;
    }

    /// Writes `frames` at the log's end as one file write, the last of
    /// them flagged as a commit of a `commit_size`-page database unless
    /// that is 0, and returns each frame's payload offset. The first
    /// write of a generation carries the log header. A commit is padded
    /// to the page boundary, so the next one starts a page and no page of
    /// the reused log is ever read back to be merged with a write.
    fn wal_write(&mut self, frames: &[(PageNo, PageRef)], commit_size: u32) -> Result<Vec<u64>> {
        let Some(ino) = self.wal_ino else {
            unreachable!("WAL open in Wal mode")
        };
        let start = self.wal_end;
        let frame_len = WAL_FRAME_HDR as usize + self.page_size;
        let mut buf = Vec::with_capacity(frame_len * (frames.len() + 1));
        if start == 0 {
            buf.extend_from_slice(&WAL_MAGIC.to_le_bytes());
            buf.extend_from_slice(&self.wal_salt.to_le_bytes());
            buf.resize(WAL_FRAME_HDR as usize, 0);
        }
        let mut offs = Vec::with_capacity(frames.len());
        for (i, (pgno, data)) in frames.iter().enumerate() {
            let cs = if i + 1 == frames.len() {
                commit_size
            } else {
                0
            };
            let mut fh = [0u8; WAL_FRAME_HDR as usize];
            fh[0..4].copy_from_slice(&pgno.to_le_bytes());
            fh[4..8].copy_from_slice(&cs.to_le_bytes());
            fh[8..16].copy_from_slice(&WAL_MAGIC.to_le_bytes());
            fh[16..24].copy_from_slice(&self.wal_salt.to_le_bytes());
            fh[24..32].copy_from_slice(&wal_sum(0, data).to_le_bytes());
            self.wal_chain = wal_chain(self.wal_chain, &fh);
            fh[32..40].copy_from_slice(&self.wal_chain.to_le_bytes());
            buf.extend_from_slice(&fh);
            offs.push(start + buf.len() as u64);
            buf.extend_from_slice(data);
        }
        if commit_size != 0 {
            let end = (start + buf.len() as u64).next_multiple_of(self.page_size as u64);
            buf.resize((end - start) as usize, 0);
        }
        self.fs.borrow_mut().write(ino, start, &buf, None)?;
        // Page-equivalents: a frame is a bit more than one page.
        self.stats.journal_writes += frames.len() as u64;
        self.wal_end = start + buf.len() as u64;
        self.wal_frames += frames.len() as u32;
        Ok(offs)
    }

    fn commit_wal_mode(&mut self) -> Result<()> {
        self.write_header()?;
        let mut dirty: Vec<PageNo> = self.dirty_in_tx.iter().copied().collect();
        dirty.sort_unstable();
        let mut frames = Vec::with_capacity(dirty.len());
        for pgno in dirty {
            // A spilled page already has an (uncommitted) frame; re-read it
            // so the final, commit-flagged frame sequence stays intact.
            let data = match self.cache.mark_clean(pgno) {
                Some(data) => data,
                None => Rc::new(self.read_page_raw(pgno)?),
            };
            frames.push((pgno, data));
        }
        let offs = self.wal_write(&frames, self.page_count)?;
        for ((pgno, _), off) in frames.iter().zip(offs) {
            self.wal_index.insert(*pgno, off);
        }
        let Some(ino) = self.wal_ino else {
            unreachable!("WAL open")
        };
        self.fs.borrow_mut().fdatasync(ino, None)?;
        self.stats.fsyncs += 1;
        self.wal_last_commit_end = self.wal_end;
        self.wal_commit_chain = self.wal_chain;
        if self.wal_frames >= self.wal_autocheckpoint {
            self.wal_checkpoint()?;
        }
        Ok(())
    }

    /// Copies the newest version of every WAL-resident page into the
    /// database file and resets the log (SQLite's checkpoint): the file
    /// keeps its size, and the next commit overwrites it from the start
    /// under the next salt. A page comes from the pager cache where that
    /// holds it clean and the open transaction has not touched it, and
    /// from the log otherwise. The new salt is made durable before any
    /// frame of its generation is written, as SQLite syncs the header
    /// when it restarts the log: a first write whose later pages landed
    /// and whose header page did not would otherwise leave the previous
    /// generation to be scanned, with some of its frames half
    /// overwritten.
    pub fn wal_checkpoint(&mut self) -> Result<()> {
        if self.wal_index.is_empty() {
            return Ok(());
        }
        self.stats.checkpoints += 1;
        let mut entries: Vec<(PageNo, u64)> =
            self.wal_index.iter().map(|(&p, &o)| (p, o)).collect();
        entries.sort_unstable();
        let Some(ino) = self.wal_ino else {
            unreachable!("WAL open")
        };
        for (pgno, off) in entries {
            let data = match self.cache.peek(pgno) {
                Some(f) if !f.is_dirty() && !self.dirty_in_tx.contains(&pgno) => Rc::clone(&f.data),
                _ => {
                    let mut buf = vec![0u8; self.page_size];
                    self.fs.borrow_mut().read(ino, off, &mut buf, None)?;
                    Rc::new(buf)
                }
            };
            self.write_home(pgno, &data, None)?;
        }
        self.fs.borrow_mut().fdatasync(self.db_ino, None)?;
        self.stats.fsyncs += 1;
        self.wal_index.clear();
        self.wal_frames = 0;
        self.wal_restart(self.wal_salt + 1);
        // The header page, whole, so nothing is read back to merge it;
        // the generation's first write carries the header again, so that
        // one too starts the page.
        let mut hdr = vec![0u8; self.page_size];
        hdr[0..8].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        hdr[8..16].copy_from_slice(&self.wal_salt.to_le_bytes());
        self.fs.borrow_mut().write(ino, 0, &hdr, None)?;
        self.stats.journal_writes += 1;
        self.fs.borrow_mut().fdatasync(ino, None)?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    // --- Off (X-FTL) protocol ---------------------------------------------------

    /// The one `Off`-mode commit body (§4.3): header, force-write under
    /// the transaction's tid, and a single file-system call that flushes
    /// the file and ends the device transaction as `seal` says —
    /// `fdatasync` (blocking commit) or `fdatasync_defer_commit` (a
    /// coordinator commits several files at once). Like SQLite's unix
    /// VFS, the pager never asks for more than a data-only sync: an
    /// in-place page update leaves nothing in the inode worth a program.
    fn commit_off(
        &mut self,
        seal: fn(&mut FileSystem<D>, Ino, Tid) -> xftl_fs::Result<()>,
    ) -> Result<()> {
        // A concurrent transaction skips the header force-write when
        // nothing in it changed: otherwise every pair of writers would
        // collide on page 0 and first-committer-wins would serialize them
        // all. (Real `BEGIN CONCURRENT` has the same page-1 hotspot.)
        let header = (self.page_count, self.freelist_head, self.schema_root);
        if !self.concurrent || header != self.tx_orig_header {
            self.write_header()?;
        }
        let Some(tid) = self.tid else {
            unreachable!("Off-mode tx has a tid")
        };
        self.force_dirty(Some(tid))?;
        seal(&mut self.fs.borrow_mut(), self.db_ino, tid)?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    // --- multi-file transactions (§4.3) ---------------------------------------

    /// Name of this database's rollback journal file.
    pub fn journal_file_name(&self) -> String {
        self.journal_name()
    }

    /// Journal mode of this pager.
    pub fn mode(&self) -> DbJournalMode {
        self.mode
    }

    /// The device transaction id of the open transaction (Off mode).
    pub fn current_tid(&self) -> Option<Tid> {
        self.tid
    }

    /// Begins a transaction that shares `tid` with other databases on the
    /// same file system (`Off` mode only): all of their updates commit
    /// atomically with one device `commit(tid)`.
    pub fn begin_with_tid(&mut self, tid: Tid) -> Result<()> {
        if self.mode != DbJournalMode::Off {
            return Err(DbError::TxState("shared-tid transactions need Off mode"));
        }
        if self.in_tx {
            return Err(DbError::TxState("transaction already active"));
        }
        self.in_tx = true;
        self.tx_orig_page_count = self.page_count;
        self.tid = Some(tid);
        Ok(())
    }

    /// Multi-file commit, `Off` mode: flushes this database's pages under
    /// the shared tid without the device commit (the coordinator issues it
    /// once for the whole group).
    pub fn commit_off_deferred(&mut self) -> Result<()> {
        if !self.in_tx {
            return Err(DbError::TxState("no transaction active"));
        }
        self.commit_off(FileSystem::fdatasync_defer_commit)?;
        self.end_tx();
        Ok(())
    }

    /// Multi-file commit, rollback mode, phase 1: records the master
    /// journal name in this database's journal header, syncs the journal,
    /// and force-writes the database pages — but keeps the journal, so the
    /// transaction stays revocable until the master is deleted.
    pub fn master_commit_prepare(&mut self, master: &str) -> Result<()> {
        if !self.mode.is_rollback() {
            return Err(DbError::TxState("master journals need rollback mode"));
        }
        if !self.in_tx {
            return Err(DbError::TxState("no transaction active"));
        }
        self.write_header()?;
        if self.dirty_in_tx.is_empty() && self.journal_ino.is_none() {
            return Ok(()); // read-only participant
        }
        self.ensure_journal()?;
        self.master_name = Some(master.to_string());
        self.sync_journal()?;
        self.force_dirty(None)?;
        self.fs.borrow_mut().fdatasync(self.db_ino, None)?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Multi-file commit, rollback mode, phase 2 (after the master journal
    /// has been deleted): removes this database's journal and ends the
    /// transaction.
    pub fn master_commit_cleanup(&mut self) -> Result<()> {
        if let Some(_ino) = self.journal_ino.take() {
            self.fs.borrow_mut().unlink(&self.journal_name())?;
            self.fs.borrow_mut().sync_meta(None)?;
            self.stats.dirsyncs += 1;
        }
        self.end_tx();
        Ok(())
    }

    // --- page access ---------------------------------------------------------

    /// Reads a page bypassing the pager cache (recovery paths).
    fn read_page_raw(&mut self, pgno: PageNo) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; self.page_size];
        self.stats.reads += 1;
        let t0 = self.span_start();
        if self.mode == DbJournalMode::Wal {
            if let Some(&off) = self.wal_index.get(&pgno) {
                let Some(ino) = self.wal_ino else {
                    unreachable!("WAL open")
                };
                self.fs.borrow_mut().read(ino, off, &mut buf, None)?;
                self.record_span(OpClass::PagerFetch, 0, u64::from(pgno), t0);
                return Ok(buf);
            }
        }
        let tid = self.tid;
        self.fs.borrow_mut().read(
            self.db_ino,
            pgno as u64 * self.page_size as u64,
            &mut buf,
            tid,
        )?;
        self.record_span(OpClass::PagerFetch, tid.unwrap_or(0), u64::from(pgno), t0);
        Ok(buf)
    }

    /// Returns page `pgno`: a handle on the cached frame, not a copy.
    pub fn page(&mut self, pgno: PageNo) -> Result<PageRef> {
        if let Some(data) = self.cache.get(pgno) {
            return Ok(data);
        }
        let data = Rc::new(self.read_page_raw(pgno)?);
        self.cache.insert(pgno, Rc::clone(&data), false);
        self.evict_if_needed()?;
        Ok(data)
    }

    /// Writes page `pgno` (transaction required). In rollback mode the
    /// original is journaled first.
    pub fn put(&mut self, pgno: PageNo, data: Vec<u8>) -> Result<()> {
        assert_eq!(data.len(), self.page_size, "whole pages only");
        if !self.in_tx {
            return Err(DbError::TxState("page write outside a transaction"));
        }
        if self.mode.is_rollback() && !self.dirty_in_tx.contains(&pgno) {
            self.journal_original(pgno)?;
        }
        self.cache.insert(pgno, Rc::new(data), true);
        self.dirty_in_tx.insert(pgno);
        self.evict_if_needed()?;
        Ok(())
    }

    /// Allocates a page (freelist first, then file growth).
    pub fn alloc_page(&mut self) -> Result<PageNo> {
        if self.freelist_head != 0 {
            let pgno = self.freelist_head;
            let page = self.page(pgno)?;
            self.freelist_head = get_u32(&page, 0);
            self.write_header()?;
            return Ok(pgno);
        }
        let pgno = self.page_count;
        self.page_count += 1;
        self.write_header()?;
        // Materialize the new page so reads within the tx see zeros.
        self.put(pgno, vec![0u8; self.page_size])?;
        Ok(pgno)
    }

    /// Returns a page to the freelist.
    pub fn free_page(&mut self, pgno: PageNo) -> Result<()> {
        let mut page = vec![0u8; self.page_size];
        page[0..4].copy_from_slice(&self.freelist_head.to_le_bytes());
        self.put(pgno, page)?;
        self.freelist_head = pgno;
        self.write_header()
    }

    /// Number of pages in the database file.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    fn evict_if_needed(&mut self) -> Result<()> {
        while self.cache.len() > self.cache_cap {
            // Clean victims first.
            let Some((pgno, frame)) = self.cache.pop_lru() else {
                break;
            };
            if !frame.is_dirty() {
                continue;
            }
            // Steal: spill an uncommitted page.
            self.stats.spills += 1;
            match self.mode {
                m if m.is_rollback() => {
                    // The original must be durably journaled before the DB
                    // file may be overwritten.
                    if (self.journal_synced_records as usize) < self.journaled.len() {
                        self.sync_journal()?;
                    }
                    self.write_home(pgno, &frame.data, None)?;
                }
                DbJournalMode::Wal => {
                    let off = self.wal_write(&[(pgno, frame.data)], 0)?[0];
                    let prev = self.wal_index.insert(pgno, off);
                    self.tx_frames.push((pgno, prev));
                }
                _ => {
                    let Some(tid) = self.tid else {
                        unreachable!("Off-mode tx has a tid")
                    };
                    self.write_home(pgno, &frame.data, Some(tid))?;
                }
            }
        }
        Ok(())
    }

    /// Shrinks the pager cache (tests exercise the steal path with this).
    pub fn set_cache_capacity(&mut self, pages: usize) {
        self.cache_cap = pages.max(4);
    }
}
