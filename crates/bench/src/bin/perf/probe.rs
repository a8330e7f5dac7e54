//! `Probe<D, T>`: a benchmark-owned tap on the stack's generic device
//! boundary.
//!
//! Every layer above the FTL is generic over `D: BlockDevice` (and
//! `TxBlockDevice` where it needs transactions), so the benchmark can
//! slide a wrapper in above and below `SataLink` without touching the
//! program. The wrapper forwards *every* trait method — including the
//! ones with default bodies, whose defaults would otherwise replace the
//! wrapped device's own `commit`/`submit`/`begin` with something that
//! charges different simulated time — and hands each call to a [`Tap`].
//!
//! The untraced stack uses [`NoTap`], a zero-sized tap whose methods are
//! empty, so it is the same assembly minus the probes and
//! `host.trace_overhead_frac` measures the probes alone. The traced
//! stack uses [`Spans`], which accumulates per-call count, simulated
//! time and host time, plus a submit-to-durable sample per commit.

use std::collections::BTreeMap;
use std::time::Instant; // xftl-analyze: allow(sim-clock): the probe's second clock is host time by design

use xftl_flash::{Nanos, SimClock};
use xftl_ftl::{
    BlockDevice, CmdId, CommitTicket, DevCounters, IoCmd, Lpn, Result, Tid, TxBlockDevice,
};

/// The device calls a probe distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Read,
    Write,
    Trim,
    Flush,
    Submit,
    CompleteUntil,
    Begin,
    ReadTx,
    WriteTx,
    CommitSubmit,
    CommitWait,
    Commit,
    Abort,
    SubmitTx,
}

/// Number of [`Call`] variants.
pub const N_CALLS: usize = 14;

/// What a probe does with the calls it sees.
pub trait Tap {
    /// Taken before the wrapped call, handed back after it.
    type Mark;
    /// A fresh tap reading simulated time from `clock`.
    fn new(clock: &SimClock) -> Self;
    /// Before the wrapped call.
    fn enter(&self) -> Self::Mark;
    /// After the wrapped call.
    fn exit(&mut self, call: Call, mark: Self::Mark);
    /// A `commit_submit` for `tid` was accepted.
    fn commit_staged(&mut self, tid: Tid, mark: &Self::Mark);
    /// The commit of `tid` became durable (its ticket was redeemed).
    fn commit_durable(&mut self, tid: Tid);
    /// Forgets everything recorded so far (start of the measured phase).
    fn reset(&mut self);
    /// What was recorded, if this tap records.
    fn totals(&self) -> Option<SpanTotals>;
}

/// The untraced stack's tap: zero-sized, every method empty.
#[derive(Debug)]
pub struct NoTap;

impl Tap for NoTap {
    type Mark = ();
    fn new(_: &SimClock) -> Self {
        NoTap
    }
    fn enter(&self) {}
    fn exit(&mut self, _: Call, (): ()) {}
    fn commit_staged(&mut self, _: Tid, (): &()) {}
    fn commit_durable(&mut self, _: Tid) {}
    fn reset(&mut self) {}
    fn totals(&self) -> Option<SpanTotals> {
        None
    }
}

/// Count and inclusive time of one call class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    pub count: u64,
    pub sim_ns: u64,
    pub host_ns: u64,
}

/// Everything a [`Spans`] tap recorded.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    pub calls: [CallTotals; N_CALLS],
    /// Simulated submit-to-durable time of every commit seen (blocking
    /// `commit`, or `commit_submit` to the `commit_wait` that redeemed it).
    pub commit_sim_ns: Vec<u64>,
}

impl SpanTotals {
    /// Totals of one call class.
    pub fn of(&self, call: Call) -> CallTotals {
        self.calls[call as usize]
    }

    /// Simulated time inside the probed device, all calls.
    pub fn sim_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.sim_ns).sum()
    }

    /// Host time inside the probed device, all calls.
    pub fn host_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.host_ns).sum()
    }
}

/// The traced stack's tap.
#[derive(Debug)]
pub struct Spans {
    clock: SimClock,
    totals: SpanTotals,
    staged_at: BTreeMap<Tid, Nanos>,
}

impl Tap for Spans {
    type Mark = (Instant, Nanos);

    fn new(clock: &SimClock) -> Self {
        Spans {
            clock: clock.clone(),
            totals: SpanTotals::default(),
            staged_at: BTreeMap::new(),
        }
    }

    fn enter(&self) -> Self::Mark {
        let host = Instant::now(); // xftl-analyze: allow(sim-clock): host-time span start at the device boundary
        (host, self.clock.now())
    }

    fn exit(&mut self, call: Call, (host, sim): Self::Mark) {
        let sim_ns = self.clock.now() - sim;
        let t = &mut self.totals.calls[call as usize];
        t.count += 1;
        t.sim_ns += sim_ns;
        t.host_ns += host.elapsed().as_nanos() as u64;
        if call == Call::Commit {
            self.totals.commit_sim_ns.push(sim_ns);
        }
    }

    fn commit_staged(&mut self, tid: Tid, mark: &Self::Mark) {
        self.staged_at.insert(tid, mark.1);
    }

    fn commit_durable(&mut self, tid: Tid) {
        if let Some(t0) = self.staged_at.remove(&tid) {
            self.totals.commit_sim_ns.push(self.clock.now() - t0);
        }
    }

    fn reset(&mut self) {
        self.totals = SpanTotals::default();
        self.staged_at.clear();
    }

    fn totals(&self) -> Option<SpanTotals> {
        Some(self.totals.clone())
    }
}

/// A device seen through a tap.
#[derive(Debug)]
pub struct Probe<D, T> {
    inner: D,
    tap: T,
}

impl<D, T> Probe<D, T> {
    pub fn new(inner: D, tap: T) -> Self {
        Probe { inner, tap }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    pub fn into_inner(self) -> D {
        self.inner
    }

    pub fn tap(&self) -> &T {
        &self.tap
    }

    pub fn tap_mut(&mut self) -> &mut T {
        &mut self.tap
    }
}

impl<D, T: Tap> Probe<D, T> {
    fn span<R>(&mut self, call: Call, f: impl FnOnce(&mut D) -> R) -> R {
        let mark = self.tap.enter();
        let out = f(&mut self.inner);
        self.tap.exit(call, mark);
        out
    }
}

impl<D: BlockDevice, T: Tap> BlockDevice for Probe<D, T> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.span(Call::Read, |d| d.read(lpn, buf))
    }

    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
        self.span(Call::Write, |d| d.write(lpn, buf))
    }

    fn trim(&mut self, lpn: Lpn) -> Result<()> {
        self.span(Call::Trim, |d| d.trim(lpn))
    }

    fn flush(&mut self) -> Result<()> {
        self.span(Call::Flush, BlockDevice::flush)
    }

    fn counters(&self) -> DevCounters {
        self.inner.counters()
    }

    fn submit(&mut self, cmds: &[IoCmd<'_>]) -> Result<CmdId> {
        self.span(Call::Submit, |d| d.submit(cmds))
    }

    fn complete_until(&mut self, barrier: CmdId) -> Result<()> {
        self.span(Call::CompleteUntil, |d| d.complete_until(barrier))
    }
}

impl<D: TxBlockDevice, T: Tap> TxBlockDevice for Probe<D, T> {
    fn begin(&mut self, tid: Tid) -> Result<()> {
        self.span(Call::Begin, |d| d.begin(tid))
    }

    fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.span(Call::ReadTx, |d| d.read_tx(tid, lpn, buf))
    }

    fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()> {
        self.span(Call::WriteTx, |d| d.write_tx(tid, lpn, buf))
    }

    fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
        let mark = self.tap.enter();
        let out = self.inner.commit_submit(tid);
        if out.is_ok() {
            self.tap.commit_staged(tid, &mark);
        }
        self.tap.exit(Call::CommitSubmit, mark);
        out
    }

    fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
        let out = self.span(Call::CommitWait, |d| d.commit_wait(ticket));
        if out.is_ok() {
            self.tap.commit_durable(ticket.tid());
        }
        out
    }

    fn commit(&mut self, tid: Tid) -> Result<()> {
        self.span(Call::Commit, |d| d.commit(tid))
    }

    fn abort(&mut self, tid: Tid) -> Result<()> {
        self.span(Call::Abort, |d| d.abort(tid))
    }

    fn submit_tx(&mut self, tid: Tid, pages: &[(Lpn, &[u8])]) -> Result<CmdId> {
        self.span(Call::SubmitTx, |d| d.submit_tx(tid, pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_ftl::DevError;

    /// Logs which trait method was reached, so a forgotten forward (which
    /// would silently fall back to a trait default) fails the test.
    #[derive(Default)]
    struct Rec(Vec<&'static str>);

    impl BlockDevice for Rec {
        fn page_size(&self) -> usize {
            512
        }
        fn capacity_pages(&self) -> u64 {
            64
        }
        fn read(&mut self, _: Lpn, _: &mut [u8]) -> Result<()> {
            self.0.push("read");
            Ok(())
        }
        fn write(&mut self, _: Lpn, _: &[u8]) -> Result<()> {
            self.0.push("write");
            Ok(())
        }
        fn trim(&mut self, _: Lpn) -> Result<()> {
            self.0.push("trim");
            Ok(())
        }
        fn flush(&mut self) -> Result<()> {
            self.0.push("flush");
            Ok(())
        }
        fn counters(&self) -> DevCounters {
            DevCounters::default()
        }
        fn submit(&mut self, _: &[IoCmd<'_>]) -> Result<CmdId> {
            self.0.push("submit");
            Ok(CmdId(1))
        }
        fn complete_until(&mut self, _: CmdId) -> Result<()> {
            self.0.push("complete_until");
            Ok(())
        }
    }

    impl TxBlockDevice for Rec {
        fn begin(&mut self, _: Tid) -> Result<()> {
            self.0.push("begin");
            Ok(())
        }
        fn read_tx(&mut self, _: Tid, _: Lpn, _: &mut [u8]) -> Result<()> {
            self.0.push("read_tx");
            Ok(())
        }
        fn write_tx(&mut self, _: Tid, _: Lpn, _: &[u8]) -> Result<()> {
            self.0.push("write_tx");
            Ok(())
        }
        fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
            self.0.push("commit_submit");
            if tid == 99 {
                return Err(DevError::Conflict);
            }
            Ok(CommitTicket::new(tid, CmdId(1)))
        }
        fn commit_wait(&mut self, _: CommitTicket) -> Result<()> {
            self.0.push("commit_wait");
            Ok(())
        }
        fn commit(&mut self, _: Tid) -> Result<()> {
            self.0.push("commit");
            Ok(())
        }
        fn abort(&mut self, _: Tid) -> Result<()> {
            self.0.push("abort");
            Ok(())
        }
        fn submit_tx(&mut self, _: Tid, _: &[(Lpn, &[u8])]) -> Result<CmdId> {
            self.0.push("submit_tx");
            Ok(CmdId(2))
        }
    }

    fn drive<T: Tap>(p: &mut Probe<Rec, T>) {
        let page = [0u8; 512];
        let mut buf = [0u8; 512];
        p.read(0, &mut buf).unwrap();
        p.write(0, &page).unwrap();
        p.trim(0).unwrap();
        p.flush().unwrap();
        let id = p.submit(&[IoCmd::Barrier]).unwrap();
        p.complete_until(id).unwrap();
        p.begin(7).unwrap();
        p.read_tx(7, 0, &mut buf).unwrap();
        p.write_tx(7, 0, &page).unwrap();
        let ticket = p.commit_submit(7).unwrap();
        p.commit_wait(ticket).unwrap();
        p.commit(8).unwrap();
        p.abort(9).unwrap();
        p.submit_tx(10, &[(0, &page[..])]).unwrap();
        assert_eq!(p.commit_submit(99).map(|_| ()), Err(DevError::Conflict));
    }

    const EXPECTED: [&str; 15] = [
        "read",
        "write",
        "trim",
        "flush",
        "submit",
        "complete_until",
        "begin",
        "read_tx",
        "write_tx",
        "commit_submit",
        "commit_wait",
        "commit",
        "abort",
        "submit_tx",
        "commit_submit",
    ];

    #[test]
    fn every_call_reaches_the_same_named_method_with_either_tap() {
        let clock = SimClock::new();
        let mut plain = Probe::new(Rec::default(), NoTap::new(&clock));
        drive(&mut plain);
        assert_eq!(plain.inner().0, EXPECTED);
        assert!(plain.tap().totals().is_none());
        assert_eq!(
            std::mem::size_of::<NoTap>(),
            0,
            "the no-op tap is zero-sized"
        );

        let mut traced = Probe::new(Rec::default(), Spans::new(&clock));
        drive(&mut traced);
        assert_eq!(traced.inner().0, EXPECTED);
    }

    #[test]
    fn spans_count_calls_and_time_commits_submit_to_durable() {
        /// Advances the clock inside the calls the test times.
        struct Slow(SimClock);
        impl BlockDevice for Slow {
            fn page_size(&self) -> usize {
                512
            }
            fn capacity_pages(&self) -> u64 {
                8
            }
            fn read(&mut self, _: Lpn, _: &mut [u8]) -> Result<()> {
                self.0.advance(10);
                Ok(())
            }
            fn write(&mut self, _: Lpn, _: &[u8]) -> Result<()> {
                self.0.advance(100);
                Ok(())
            }
            fn trim(&mut self, _: Lpn) -> Result<()> {
                Ok(())
            }
            fn flush(&mut self) -> Result<()> {
                Ok(())
            }
            fn counters(&self) -> DevCounters {
                DevCounters::default()
            }
        }
        impl TxBlockDevice for Slow {
            fn read_tx(&mut self, _: Tid, _: Lpn, _: &mut [u8]) -> Result<()> {
                Ok(())
            }
            fn write_tx(&mut self, _: Tid, _: Lpn, _: &[u8]) -> Result<()> {
                Ok(())
            }
            fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
                self.0.advance(5);
                Ok(CommitTicket::new(tid, CmdId(1)))
            }
            fn commit_wait(&mut self, _: CommitTicket) -> Result<()> {
                self.0.advance(1_000);
                Ok(())
            }
            fn abort(&mut self, _: Tid) -> Result<()> {
                Ok(())
            }
        }

        let clock = SimClock::new();
        let mut p = Probe::new(Slow(clock.clone()), Spans::new(&clock));
        let page = [0u8; 512];
        let mut buf = [0u8; 512];
        p.write(0, &page).unwrap();
        p.tap_mut().reset();
        p.write(1, &page).unwrap();
        p.write(2, &page).unwrap();
        p.read(1, &mut buf).unwrap();
        let ticket = p.commit_submit(3).unwrap();
        p.write(3, &page).unwrap(); // overlaps the in-flight commit
        p.commit_wait(ticket).unwrap();
        p.commit_wait(ticket).unwrap(); // a re-wait adds no second sample

        let t = p.tap().totals().unwrap();
        assert_eq!(t.of(Call::Write).count, 3, "the pre-reset write is gone");
        assert_eq!(t.of(Call::Write).sim_ns, 300);
        assert_eq!(t.of(Call::Read).sim_ns, 10);
        assert_eq!(t.commit_sim_ns, vec![5 + 100 + 1_000]);
        assert_eq!(t.sim_ns(), 300 + 10 + 5 + 2_000);
    }
}
