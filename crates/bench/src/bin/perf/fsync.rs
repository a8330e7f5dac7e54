//! `fsync-qd8`: FIO-style 8 KB random overwrites straight on
//! `FileSystem` over X-FTL — no database. Four jobs, five page writes
//! per fsync, and the split-phase `fsync_submit`/`fsync_wait` pair
//! keeping eight commits in flight per job, on a four-channel device.
//! This is `core`'s *pipelined group commit*, where `oltp-xftl` uses its
//! blocking commit at queue depth 1.
//!
//! Every page image carries a `(job, seq, page)` stamp, and the benchmark
//! keeps its own ledger of which batch last wrote each page and how far
//! that batch got (written, submitted, acknowledged), so the post-crash
//! audit needs nothing but the file contents.

use std::collections::VecDeque;
use std::time::Instant; // xftl-analyze: allow(sim-clock): lap set-up and measured-phase host times are the measurand

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_core::XFtl;
use xftl_flash::{Nanos, SimClock};
use xftl_fs::{FileSystem, Ino};
use xftl_ftl::{BlockDevice, CommitTicket, Tid};

use crate::lap::{Lap, Res};
use crate::probe::Tap;
use crate::stack::{
    build_fs, ftl_of, power_cut, recover_fs, reset_spans, snapshot, span_totals, Linked, StackSpec,
};

pub const JOBS: usize = 4;
pub const WRITES_PER_FSYNC: usize = 5;
pub const QUEUE_DEPTH: usize = 8;
const PRESIZE_SYNC_PAGES: u64 = 128;

/// Size of one `fsync-qd8` lap.
#[derive(Debug, Clone, Copy)]
pub struct FsyncScale {
    /// Fsynced batches in the measured phase, all jobs together.
    pub ops: usize,
    /// Pages of each job's file.
    pub pages_per_file: u64,
    pub stack: StackSpec,
}

const STAMP_MAGIC: u64 = 0x7866_746c_5f66_7371;

/// The page image batch `seq` of `job` writes to page `page` of its file.
fn stamp(buf: &mut [u8], job: usize, seq: u64, page: u64) {
    buf.fill(seq as u8);
    for (i, word) in [STAMP_MAGIC, job as u64, seq, page].iter().enumerate() {
        buf[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
    }
}

/// `(job, seq, page)` of a page image, if it is one.
fn read_stamp(buf: &[u8]) -> Option<(usize, u64, u64)> {
    let word = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[i * 8..i * 8 + 8]);
        u64::from_le_bytes(b)
    };
    (word(0) == STAMP_MAGIC).then(|| (word(1) as usize, word(2), word(3)))
}

/// One batch a job has started.
#[derive(Debug)]
struct Batch {
    seq: u64,
    tid: Tid,
    pages: Vec<u64>,
    started_at: Nanos,
}

/// What the benchmark knows about one job's file.
#[derive(Debug)]
struct Job {
    ino: Ino,
    /// Seq of the last *acknowledged* batch that wrote each page (0 is
    /// the set-up image).
    acked: Vec<u64>,
    /// The batch being written (not yet submitted).
    open: Option<Batch>,
    /// Submitted, not yet waited for, oldest first.
    in_flight: VecDeque<(Batch, CommitTicket)>,
    next_seq: u64,
}

/// The job loop and its ledger.
struct Runner {
    clock: SimClock,
    jobs: Vec<Job>,
    rng: StdRng,
    pages_per_file: u64,
    page: Vec<u8>,
    lat_ns: Vec<u64>,
}

impl Runner {
    /// One page write of job `j`; the fifth submits the batch and, if
    /// the ring is then over its depth, redeems the oldest commit.
    /// Returns whether a batch was submitted.
    fn step<D: BlockDevice>(&mut self, fs: &mut FileSystem<D>, j: usize) -> Res<bool> {
        let ps = self.page.len() as u64;
        let job = &mut self.jobs[j];
        let batch = job.open.get_or_insert_with(|| {
            let seq = job.next_seq;
            job.next_seq += 1;
            Batch {
                seq,
                tid: fs.begin_tx(),
                pages: Vec::with_capacity(WRITES_PER_FSYNC),
                started_at: self.clock.now(),
            }
        });
        let p = self.rng.gen_range(0..self.pages_per_file);
        stamp(&mut self.page, j, batch.seq, p);
        batch.pages.push(p);
        fs.write(job.ino, p * ps, &self.page, Some(batch.tid))?;
        if batch.pages.len() < WRITES_PER_FSYNC {
            return Ok(false);
        }
        let Some(batch) = job.open.take() else {
            unreachable!("inserted above")
        };
        let ticket = fs.fsync_submit(job.ino, batch.tid)?;
        job.in_flight.push_back((batch, ticket));
        if job.in_flight.len() > QUEUE_DEPTH {
            self.redeem_oldest(fs, j)?;
        }
        Ok(true)
    }

    /// Waits for job `j`'s oldest in-flight commit. Its latency sample
    /// runs from the batch's first write to this acknowledgement.
    fn redeem_oldest<D: BlockDevice>(&mut self, fs: &mut FileSystem<D>, j: usize) -> Res<()> {
        let job = &mut self.jobs[j];
        let Some((batch, ticket)) = job.in_flight.pop_front() else {
            return Ok(());
        };
        fs.fsync_wait(ticket)?;
        self.lat_ns.push(self.clock.now() - batch.started_at);
        for &p in &batch.pages {
            job.acked[p as usize] = batch.seq;
        }
        Ok(())
    }
}

fn file_name(job: usize) -> String {
    format!("fio-job-{job}")
}

/// Reads every page of every job's file back and checks it against the
/// ledger: an acknowledged batch is there (or overwritten by a later
/// submitted one), a submitted-but-unacknowledged batch is there entirely
/// or not at all, and a never-submitted write is nowhere.
fn audit<D: BlockDevice>(fs: &mut FileSystem<D>, jobs: &[Job], pages_per_file: u64) -> Res<()> {
    let ps = fs.page_size();
    let mut buf = vec![0u8; ps];
    for (j, job) in jobs.iter().enumerate() {
        let ino = fs.open(&file_name(j))?;
        let mut seen = Vec::with_capacity(pages_per_file as usize);
        for p in 0..pages_per_file {
            fs.read(ino, p * ps as u64, &mut buf, None)?;
            match read_stamp(&buf) {
                Some((sj, seq, sp)) if sj == j && sp == p => seen.push(seq),
                other => {
                    return Err(format!("audit: job {j} page {p} holds {other:?}").into());
                }
            }
        }
        // The one batch beyond the acknowledged one that may show on a
        // page: its last submitted writer.
        let mut pending = vec![None; pages_per_file as usize];
        for (batch, _) in &job.in_flight {
            for &p in &batch.pages {
                pending[p as usize] = Some(batch.seq);
            }
        }
        for (p, &seq) in seen.iter().enumerate() {
            if seq != job.acked[p] && Some(seq) != pending[p] {
                return Err(format!(
                    "audit: job {j} page {p} shows batch {seq}; acknowledged {}, in flight {:?}",
                    job.acked[p], pending[p]
                )
                .into());
            }
        }
        for (batch, _) in &job.in_flight {
            let mut shows = batch
                .pages
                .iter()
                .filter(|&&p| pending[p as usize] == Some(batch.seq))
                .map(|&p| seen[p as usize] == batch.seq);
            let first = shows.next();
            if shows.any(|s| Some(s) != first) {
                return Err(format!(
                    "audit: job {j} in-flight batch {} survived the cut in part",
                    batch.seq
                )
                .into());
            }
        }
    }
    Ok(())
}

/// Set-up: mkfs on a 4-channel X-FTL, pre-size one stamped file per job.
fn prepare<T: Tap>(scale: &FsyncScale, seed: u64) -> Res<(FileSystem<Linked<XFtl, T>>, Runner)> {
    let (mut fs, clock) = build_fs::<XFtl, T>(&scale.stack)?;
    let ps = fs.page_size();
    let mut page = vec![0u8; ps];
    let mut jobs = Vec::with_capacity(JOBS);
    for j in 0..JOBS {
        let ino = fs.create(&file_name(j))?;
        for p in 0..scale.pages_per_file {
            stamp(&mut page, j, 0, p);
            fs.write(ino, p * ps as u64, &page, None)?;
            // One sync is one device transaction, and the X-L2P table
            // holds 500 pages of them.
            if (p + 1) % PRESIZE_SYNC_PAGES == 0 {
                fs.fsync(ino, None)?;
            }
        }
        jobs.push(Job {
            ino,
            acked: vec![0; scale.pages_per_file as usize],
            open: None,
            in_flight: VecDeque::new(),
            next_seq: 1,
        });
    }
    fs.sync_all()?;
    let run = Runner {
        clock,
        jobs,
        rng: StdRng::seed_from_u64(seed),
        pages_per_file: scale.pages_per_file,
        page,
        lat_ns: Vec::with_capacity(scale.ops),
    };
    Ok((fs, run))
}

/// One lap: set-up; `ops` fsynced batches through the commit pipeline;
/// power cut with one batch per job submitted and another half written;
/// recover; audit.
pub fn lap<T: Tap>(scale: &FsyncScale, seed: u64) -> Res<Lap> {
    let host0 = Instant::now(); // xftl-analyze: allow(sim-clock): set-up host time
    let (mut fs, mut run) = prepare::<T>(scale, seed)?;
    let clock = run.clock.clone();
    let telemetry = ftl_of(fs.device()).base().recorder().clone();
    let mut lap = Lap {
        setup_host_ns: host0.elapsed().as_nanos() as u64,
        attempted: scale.ops as u64,
        ..Lap::default()
    };

    // Measured phase.
    telemetry.reset();
    reset_spans(fs.device_mut());
    let before = snapshot(&fs);
    let host1 = Instant::now(); // xftl-analyze: allow(sim-clock): measured-phase host time
    let sim1 = clock.now();
    let mut started = 0;
    'phase: loop {
        for j in 0..JOBS {
            if started == scale.ops {
                break 'phase;
            }
            let submitted = run.step(&mut fs, j).unwrap_or_else(|_| {
                // A typed error ends the batch: one failed op, and the
                // job starts a fresh one.
                lap.failed += 1;
                run.jobs[j].open = None;
                true
            });
            started += usize::from(submitted);
        }
    }
    // The phase ends with every measured op acknowledged. A job may be
    // left with a partly written batch, which is no op of this phase.
    for j in 0..JOBS {
        while !run.jobs[j].in_flight.is_empty() {
            if run.redeem_oldest(&mut fs, j).is_err() {
                lap.failed += 1;
            }
        }
    }
    lap.phase_sim_ns = clock.now() - sim1;
    lap.phase_host_ns = host1.elapsed().as_nanos() as u64;
    lap.counts.set_phase(before, snapshot(&fs));
    lap.counts.tele = telemetry.summaries();
    (lap.counts.outer, lap.counts.inner) = span_totals(fs.device());

    // In flight at the cut: per job, the partly written batch completed
    // and submitted but never waited for, and a further one half written.
    for j in 0..JOBS {
        while !run.step(&mut fs, j)? {}
        run.step(&mut fs, j)?;
        run.step(&mut fs, j)?;
    }
    run.lat_ns.sort_unstable();
    lap.lat_ns = std::mem::take(&mut run.lat_ns);

    let chip = power_cut(fs);
    let t0 = clock.now();
    let mut fs = recover_fs::<XFtl, T>(chip, &scale.stack)?;
    lap.recovery_sim_ns = clock.now() - t0;
    audit(&mut fs, &run.jobs, scale.pages_per_file)?;
    Ok(lap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoTap;
    use xftl_flash::FlashConfigBuilder;

    fn tiny() -> FsyncScale {
        FsyncScale {
            ops: 0,
            pages_per_file: 64,
            stack: StackSpec {
                flash: FlashConfigBuilder::openssd().blocks(64).channels(4).build(),
                logical_pages: 4_000,
                fs_cache_pages: 128,
                aging: None,
            },
        }
    }

    #[test]
    fn audit_accepts_what_the_ledger_allows_and_nothing_else() {
        let scale = tiny();
        let (mut fs, mut run) = prepare::<NoTap>(&scale, 3).unwrap();
        // 40 batches per job, then leave job 0 with one batch in flight
        // and two stray writes of the next.
        for _ in 0..40 * WRITES_PER_FSYNC {
            for j in 0..JOBS {
                run.step(&mut fs, j).unwrap();
            }
        }
        for j in 0..JOBS {
            while !run.jobs[j].in_flight.is_empty() {
                run.redeem_oldest(&mut fs, j).unwrap();
            }
        }
        while !run.step(&mut fs, 0).unwrap() {}
        run.step(&mut fs, 0).unwrap();
        run.step(&mut fs, 0).unwrap();
        let chip = power_cut(fs);
        let mut fs = recover_fs::<XFtl, NoTap>(chip, &scale.stack).unwrap();
        audit(&mut fs, &run.jobs, scale.pages_per_file).unwrap();

        // The stray writes of the unsubmitted batch are nowhere: had one
        // been acknowledged, the audit would miss it.
        let stray = run.jobs[0].open.take().unwrap();
        let (p, seq) = (stray.pages[0] as usize, stray.seq);
        let honest = std::mem::replace(&mut run.jobs[0].acked[p], seq);
        assert!(audit(&mut fs, &run.jobs, scale.pages_per_file).is_err());
        run.jobs[0].acked[p] = honest;

        // An in-flight batch that claims a page it never wrote would have
        // survived in part (if it survived at all) or have a page missing.
        let (batch, _) = run.jobs[0].in_flight.back_mut().unwrap();
        let foreign = (0..scale.pages_per_file)
            .find(|p| !batch.pages.contains(p))
            .unwrap();
        batch.pages.push(foreign);
        let survived = {
            let ino = fs.open(&file_name(0)).unwrap();
            let mut buf = vec![0u8; fs.page_size()];
            let first = batch.pages[0];
            fs.read(ino, first * buf.len() as u64, &mut buf, None)
                .unwrap();
            read_stamp(&buf).unwrap().1 == batch.seq
        };
        assert_eq!(
            audit(&mut fs, &run.jobs, scale.pages_per_file).is_err(),
            survived,
            "a surviving batch with a page missing is a partial commit"
        );
    }
}
