//! The storage-device abstraction and its transactional extension.
//!
//! [`BlockDevice`] is the Rust analogue of the paper's SATA command set:
//! `read`, `write`, `trim`, `flush` — what any page-mapping SSD exposes —
//! plus an NCQ-style batched submission path ([`BlockDevice::submit`] /
//! [`BlockDevice::complete_until`]) that lets hosts issue multi-page writes
//! as one queued batch the device may overlap across its flash channels.
//!
//! The transactional command set — `read_tx(tid, p)`, `write_tx(tid, p)`,
//! `commit(tid)`, `abort(tid)` — is exactly the interface §4.2 of the paper
//! adds (tid-tagged reads/writes plus commit/abort piggybacked on the trim
//! command). It lives in the separate [`TxBlockDevice`] extension trait:
//! whether a device speaks it is a compile-time property of the type, not a
//! runtime probe, so hosts that need transactions take `D: TxBlockDevice`
//! and the "command not supported" failure mode does not exist.
//!
//! Commit itself is split-phase, in the style of the barrier-enabled IO
//! stack: [`TxBlockDevice::commit_submit`] stages the commit and returns a
//! [`CommitTicket`] without waiting for durability, and
//! [`TxBlockDevice::commit_wait`] redeems the ticket, blocking until the
//! commit group containing the transaction is on the media. The classic
//! blocking `commit(tid)` survives as a provided wrapper (submit then
//! wait), and [`IoCmd::Barrier`] gives batched submissions an ordering
//! fence that — unlike `flush` — does not drain the queue.

use std::collections::VecDeque;

use xftl_flash::Nanos;

use crate::error::{DevError, Result};

/// Logical page number, the host-visible address unit (one 8 KB page).
pub type Lpn = u64;

/// Transaction identifier. Ids are allocated by the *file system* (per the
/// paper's §5.2, because SQLite is a library and cannot coordinate ids
/// across processes). `0` is reserved for non-transactional traffic.
pub type Tid = u64;

/// Reserved id meaning "not part of any transaction".
pub const NO_TID: Tid = 0;

/// One command of a batched submission (see [`BlockDevice::submit`]).
#[derive(Debug, Clone, Copy)]
pub enum IoCmd<'a> {
    /// Write `data` (one full page) to logical page `lpn`.
    Write {
        /// Destination logical page.
        lpn: Lpn,
        /// Page contents; must be exactly `page_size()` bytes.
        data: &'a [u8],
    },
    /// Declare logical page `lpn` unused.
    Trim {
        /// The page to trim.
        lpn: Lpn,
    },
    /// Ordering fence: commands after the barrier may not be reordered
    /// ahead of commands before it, but — unlike `flush` — the device does
    /// not drain its queue or persist anything. This is the
    /// order-preserving barrier of the barrier-enabled IO stack: ordering
    /// is decoupled from the durability wait.
    Barrier,
}

/// Completion ticket for a queued batch.
///
/// Tickets are ordered: waiting on a ticket with [`BlockDevice::
/// complete_until`] also waits for every batch submitted before it.
/// [`CmdId::IMMEDIATE`] means the batch completed synchronously at
/// submission (the default for devices without a queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId(pub u64);

impl CmdId {
    /// Ticket of a batch that completed before `submit` returned.
    pub const IMMEDIATE: CmdId = CmdId(0);
}

/// Ticket ledger behind `submit`/`complete_until`: pairs each issued
/// [`CmdId`] with the simulated-clock instant its batch completes on the
/// media. The engine keeps the one every personality's batches go
/// through, and it is where [`IoCmd::Barrier`] is honored: a barrier
/// raises an ordering floor (the completion horizon of everything issued
/// so far) without draining, so later batches complete no earlier than
/// earlier ones.
#[derive(Debug, Default)]
pub(crate) struct CmdQueue {
    issued: u64,
    pending: VecDeque<(u64, Nanos)>,
    /// Latest completion instant among all tickets ever issued.
    latest_done: Nanos,
    /// Ordering floor set by the last barrier: tickets issued after the
    /// barrier report completion no earlier than this.
    horizon: Nanos,
}

impl CmdQueue {
    /// Mints the next ticket for a batch completing at `done`. If a
    /// barrier was raised, the reported completion is floored at the
    /// barrier's horizon so the batch is ordered after everything that
    /// preceded the fence.
    pub(crate) fn issue(&mut self, done: Nanos) -> CmdId {
        let done = done.max(self.horizon);
        self.latest_done = self.latest_done.max(done);
        self.issued += 1;
        self.pending.push_back((self.issued, done));
        CmdId(self.issued)
    }

    /// Raises the ordering floor to cover every ticket issued so far —
    /// ordering without draining — and returns it.
    pub(crate) fn raise_barrier(&mut self) -> Nanos {
        self.horizon = self.latest_done;
        self.horizon
    }

    /// Retires every ticket up to `barrier` and returns the latest
    /// completion time among them (`None` when nothing that old is still
    /// outstanding — e.g. [`CmdId::IMMEDIATE`] or a re-waited ticket).
    pub(crate) fn retire(&mut self, barrier: CmdId) -> Option<Nanos> {
        let mut latest: Option<Nanos> = None;
        while let Some(&(id, done)) = self.pending.front() {
            if id > barrier.0 {
                break;
            }
            self.pending.pop_front();
            latest = Some(latest.map_or(done, |m| m.max(done)));
        }
        latest
    }
}

/// Host-visible counters a device keeps; these feed the paper's Table 1.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DevCounters {
    /// Host page writes (both plain and tid-tagged).
    pub host_writes: u64,
    /// Host page reads (both plain and tid-tagged).
    pub host_reads: u64,
    /// Flush/barrier commands.
    pub flushes: u64,
    /// Commit commands.
    pub commits: u64,
    /// Abort commands.
    pub aborts: u64,
    /// Trim commands.
    pub trims: u64,
    /// Queued batches accepted via `submit`/`submit_tx`.
    pub batches: u64,
    /// Ordering barriers dispatched via [`IoCmd::Barrier`].
    pub barriers: u64,
}

/// Receipt for a staged (submitted but not yet durable) commit.
///
/// Returned by [`TxBlockDevice::commit_submit`] and redeemed by
/// [`TxBlockDevice::commit_wait`]. It is a newtype over the commit
/// *group* ticket — not a bare [`CmdId`] — so commit receipts cannot be
/// confused with batch tickets, and it is `#[must_use]`: dropping one
/// without waiting means the transaction may silently never become
/// durable, which the compiler now flags.
#[must_use = "a submitted commit is not durable until commit_wait is called on its ticket"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitTicket {
    tid: Tid,
    group: CmdId,
}

impl CommitTicket {
    /// Ticket for a commit staged into the group identified by `group`.
    pub fn new(tid: Tid, group: CmdId) -> Self {
        CommitTicket { tid, group }
    }

    /// Ticket for a commit that was already durable (or had nothing to
    /// persist — e.g. a read-only transaction) when `commit_submit`
    /// returned.
    pub fn immediate(tid: Tid) -> Self {
        CommitTicket {
            tid,
            group: CmdId::IMMEDIATE,
        }
    }

    /// The transaction this ticket belongs to.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The commit group the transaction was staged into.
    pub fn group(&self) -> CmdId {
        self.group
    }

    /// Whether the commit was already durable at submission.
    pub fn is_immediate(&self) -> bool {
        self.group == CmdId::IMMEDIATE
    }
}

/// A page-addressed storage device.
///
/// All data commands move whole pages; `page_size()` tells the host how big
/// a page is. Implementations charge simulated latency for every command.
pub trait BlockDevice {
    /// Bytes per logical page.
    fn page_size(&self) -> usize;

    /// Number of logical pages the device exports.
    fn capacity_pages(&self) -> u64;

    /// Reads logical page `lpn` into `buf` (committed state).
    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()>;

    /// Writes logical page `lpn` (non-transactional; durably replaces the
    /// previous version only after the next `flush`).
    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()>;

    /// Declares logical page `lpn` unused so its flash copy may be
    /// reclaimed.
    fn trim(&mut self, lpn: Lpn) -> Result<()>;

    /// Write barrier: persists the mapping state so that everything written
    /// before the flush survives power loss. Models the barrier/FUA
    /// behaviour journaling file systems rely on (§6.3.4). Also a full
    /// queue barrier: every batch submitted earlier has completed when
    /// `flush` returns.
    fn flush(&mut self) -> Result<()>;

    /// Host-visible command counters.
    fn counters(&self) -> DevCounters;

    // --- batched submission (NCQ-style) ---

    /// Queues a batch of writes/trims. The device may reorder service
    /// across its internal channels but completes the batch atomically with
    /// respect to [`BlockDevice::complete_until`] on the returned ticket.
    /// The default implementation services the batch synchronously and
    /// returns [`CmdId::IMMEDIATE`]; queueing devices return a real ticket
    /// and only dispatch the commands, letting them overlap.
    fn submit(&mut self, cmds: &[IoCmd<'_>]) -> Result<CmdId> {
        for cmd in cmds {
            match cmd {
                IoCmd::Write { lpn, data } => self.write(*lpn, data)?,
                IoCmd::Trim { lpn } => self.trim(*lpn)?,
                // A synchronous device services commands in order, so the
                // fence holds trivially and costs nothing.
                IoCmd::Barrier => {}
            }
        }
        Ok(CmdId::IMMEDIATE)
    }

    /// Waits until the batch identified by `barrier` — and every batch
    /// submitted before it — has completed on the media. Completion is a
    /// *timing* property (simulated clock); it does not imply the mapping
    /// is durable, which still takes a `flush`/`commit`.
    ///
    /// The default is for devices that never queue: waiting on
    /// [`CmdId::IMMEDIATE`] succeeds (the batch completed at submission),
    /// but a *real* ticket cannot have come from this device, so the wait
    /// fails with [`DevError::NotQueued`] instead of silently ignoring
    /// the barrier. Queueing devices override this.
    fn complete_until(&mut self, barrier: CmdId) -> Result<()> {
        if barrier == CmdId::IMMEDIATE {
            Ok(())
        } else {
            Err(DevError::NotQueued)
        }
    }
}

/// The transactional command extension (X-FTL commands, §4.2).
///
/// Implemented only by devices that physically support tid-tagged
/// copy-on-write state — X-FTL itself — and pass-through layers above
/// it. (The atomic-write baseline offers only its per-call
/// `write_atomic`.) Hosts that need transactions bound `D:
/// TxBlockDevice` and get the commands unconditionally.
pub trait TxBlockDevice: BlockDevice {
    /// Reads page `lpn` as seen by transaction `tid`: the transaction's own
    /// uncommitted version if it wrote one, otherwise the committed copy.
    fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()>;

    /// Opens transaction `tid` with snapshot semantics: the device captures
    /// its commit sequence number, and every later `read_tx(tid, ..)` sees
    /// the page versions visible at that instant (plus the transaction's
    /// own writes), no matter what other writers commit in between. At
    /// `commit_submit` the device validates first-committer-wins and fails
    /// the transaction with [`DevError::Conflict`] if a newer version of
    /// any written page committed after the snapshot.
    ///
    /// The default is the snapshot-less contract every pre-MVCC device
    /// implements implicitly: `begin` is accepted and reads stay
    /// read-committed. Layering wrappers (SATA link, shadow oracle, rig
    /// personalities) must forward this explicitly — the default would
    /// silently swallow the snapshot on its way to the inner device.
    fn begin(&mut self, tid: Tid) -> Result<()> {
        let _ = tid;
        Ok(())
    }

    /// Copy-on-write page write on behalf of transaction `tid`; the old
    /// committed copy stays readable and reclaimable only after commit.
    fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()>;

    /// Split-phase commit, phase 1: atomically *stages* every page written
    /// by `tid` for commit and returns immediately with a ticket. The new
    /// versions become visible to subsequent reads at once (the commit is
    /// ordered), but durability is deferred: the device may coalesce
    /// several staged commits into one group and persist them with a
    /// single table write. Power loss before the group persists
    /// loses the *whole* transaction (never part of it).
    fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket>;

    /// Split-phase commit, phase 2: blocks until the commit group named by
    /// `ticket` is durable on the media. Redeeming a ticket also makes
    /// every commit submitted before it durable (groups are ordered).
    /// Waiting twice on the same ticket is a harmless no-op.
    fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()>;

    /// Atomically and durably commits every page written by `tid` —
    /// the classic blocking command, kept as a thin wrapper over the
    /// split-phase pair for hosts that do not pipeline.
    fn commit(&mut self, tid: Tid) -> Result<()> {
        let ticket = self.commit_submit(tid)?;
        self.commit_wait(ticket)
    }

    /// Discards every page written by `tid`; the committed copies remain.
    fn abort(&mut self, tid: Tid) -> Result<()>;

    /// Queues a batch of tid-tagged copy-on-write page writes. Like
    /// [`BlockDevice::submit`] but on the transactional path: the writes
    /// stay invisible until `commit(tid)`, which is also a queue barrier.
    /// The default services the batch synchronously.
    fn submit_tx(&mut self, tid: Tid, pages: &[(Lpn, &[u8])]) -> Result<CmdId> {
        for (lpn, data) in pages {
            self.write_tx(tid, *lpn, data)?;
        }
        Ok(CmdId::IMMEDIATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recording device to exercise the trait's default batch paths.
    #[derive(Default)]
    struct Rec {
        writes: Vec<Lpn>,
        trims: Vec<Lpn>,
        tx_writes: Vec<(Tid, Lpn)>,
        commits: Vec<Tid>,
        waits: Vec<Tid>,
    }

    impl BlockDevice for Rec {
        fn page_size(&self) -> usize {
            512
        }
        fn capacity_pages(&self) -> u64 {
            64
        }
        fn read(&mut self, _: Lpn, _: &mut [u8]) -> Result<()> {
            Ok(())
        }
        fn write(&mut self, lpn: Lpn, _: &[u8]) -> Result<()> {
            self.writes.push(lpn);
            Ok(())
        }
        fn trim(&mut self, lpn: Lpn) -> Result<()> {
            self.trims.push(lpn);
            Ok(())
        }
        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
        fn counters(&self) -> DevCounters {
            DevCounters::default()
        }
    }

    impl TxBlockDevice for Rec {
        fn read_tx(&mut self, _: Tid, _: Lpn, _: &mut [u8]) -> Result<()> {
            Ok(())
        }
        fn write_tx(&mut self, tid: Tid, lpn: Lpn, _: &[u8]) -> Result<()> {
            self.tx_writes.push((tid, lpn));
            Ok(())
        }
        fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
            self.commits.push(tid);
            Ok(CommitTicket::immediate(tid))
        }
        fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
            self.waits.push(ticket.tid());
            Ok(())
        }
        fn abort(&mut self, _: Tid) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn default_submit_services_batch_in_order() {
        let mut d = Rec::default();
        let page = [0u8; 512];
        let id = d
            .submit(&[
                IoCmd::Write {
                    lpn: 3,
                    data: &page,
                },
                IoCmd::Trim { lpn: 9 },
                IoCmd::Write {
                    lpn: 4,
                    data: &page,
                },
            ])
            .unwrap();
        assert_eq!(id, CmdId::IMMEDIATE);
        assert_eq!(d.writes, vec![3, 4]);
        assert_eq!(d.trims, vec![9]);
        d.complete_until(id).unwrap(); // no-op for a sync device
    }

    #[test]
    fn default_submit_tx_tags_every_page() {
        let mut d = Rec::default();
        let page = [0u8; 512];
        let batch: Vec<(Lpn, &[u8])> = vec![(10, &page[..]), (11, &page[..])];
        let id = d.submit_tx(7, &batch).unwrap();
        assert_eq!(id, CmdId::IMMEDIATE);
        assert_eq!(d.tx_writes, vec![(7, 10), (7, 11)]);
    }

    #[test]
    fn default_submit_accepts_barrier_as_ordering_noop() {
        let mut d = Rec::default();
        let page = [0u8; 512];
        let id = d
            .submit(&[
                IoCmd::Write {
                    lpn: 1,
                    data: &page,
                },
                IoCmd::Barrier,
                IoCmd::Write {
                    lpn: 2,
                    data: &page,
                },
            ])
            .unwrap();
        assert_eq!(id, CmdId::IMMEDIATE);
        assert_eq!(d.writes, vec![1, 2], "fence preserves service order");
    }

    #[test]
    fn default_complete_until_rejects_foreign_tickets() {
        let mut d = Rec::default();
        d.complete_until(CmdId::IMMEDIATE).unwrap();
        assert_eq!(
            d.complete_until(CmdId(3)),
            Err(DevError::NotQueued),
            "a device that never queues cannot honor a real ticket"
        );
    }

    #[test]
    fn blocking_commit_wraps_submit_and_wait() {
        let mut d = Rec::default();
        d.commit(9).unwrap();
        assert_eq!(d.commits, vec![9]);
        assert_eq!(d.waits, vec![9], "wrapper redeems the ticket it staged");
    }

    #[test]
    fn commit_ticket_accessors_and_immediacy() {
        let t = CommitTicket::new(4, CmdId(17));
        assert_eq!(t.tid(), 4);
        assert_eq!(t.group(), CmdId(17));
        assert!(!t.is_immediate());
        let i = CommitTicket::immediate(4);
        assert!(i.is_immediate());
        assert_eq!(i.group(), CmdId::IMMEDIATE);
    }

    #[test]
    fn queue_barrier_orders_without_draining() {
        let mut q = CmdQueue::default();
        let a = q.issue(100);
        assert_eq!(
            q.raise_barrier(),
            100,
            "the floor covers the pre-barrier batch"
        );
        // A fast post-barrier batch may not complete before the fence.
        let b = q.issue(40);
        assert_eq!(
            q.retire(a),
            Some(100),
            "barrier does not drain the queue: the pre-barrier ticket is still outstanding"
        );
        assert_eq!(q.retire(b), Some(100), "completion floored at horizon");
    }
}
