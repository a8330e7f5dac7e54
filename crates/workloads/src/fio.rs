//! FIO-style file-system benchmark (§6.3.4, Figures 8–9).
//!
//! The paper measures 8 KB random-write IOPS into a large file with an
//! fsync every 1/5/10/15/20 writes, comparing ext4 ordered and full
//! journaling against journaling-off over X-FTL. Figure 8 uses a single
//! thread; Figure 9 uses 16 concurrent threads on a newer drive. Threads
//! are simulated as round-robin jobs: interleaving order stands in for
//! host-side concurrency, while device-side parallelism is real — each
//! fsync submits its dirty pages as one queued batch that the flash array
//! overlaps across its channels.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_flash::SECOND;
use xftl_fs::Ino;
use xftl_ftl::CommitTicket;

use crate::rig::Rig;

/// FIO run parameters.
#[derive(Debug, Clone, Copy)]
pub struct FioConfig {
    /// Concurrent jobs, each with its own file and fsync cadence.
    pub jobs: usize,
    /// File size each job writes into (paper: 4 GB; scaled down by
    /// default to bound simulator memory).
    pub file_bytes: u64,
    /// Page writes between fsyncs (the Figure 8 x-axis: 1/5/10/15/20).
    pub writes_per_fsync: usize,
    /// Simulated duration of the measurement.
    pub duration_secs: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Outstanding split-phase commits per job (1 = classic blocking
    /// fsync). At depth N a job keeps up to N-1 commit tickets in flight,
    /// redeeming the oldest only when the ring is full — so transaction
    /// N+1's writes overlap transaction N's in-flight commit and the
    /// device coalesces the staged commits into one group flush. Only the
    /// `Off`-mode (X-FTL) rig has a split phase; other modes must run at
    /// depth 1.
    pub queue_depth: usize,
}

impl Default for FioConfig {
    fn default() -> Self {
        FioConfig {
            jobs: 1,
            file_bytes: 256 * 1024 * 1024,
            writes_per_fsync: 5,
            duration_secs: 30,
            seed: 99,
            queue_depth: 1,
        }
    }
}

/// Result of one FIO run.
#[derive(Debug, Clone, Copy)]
#[allow(
    missing_docs,
    reason = "fields are named after the quantities they hold"
)]
pub struct FioResult {
    pub writes: u64,
    pub fsyncs: u64,
    pub elapsed_ns: u64,
    /// 8 KB write IOPS over the simulated duration.
    pub iops: f64,
}

/// Runs the benchmark on a rig's file system.
pub fn run(rig: &Rig, cfg: &FioConfig) -> FioResult {
    let ps = rig.fs.borrow().page_size() as u64;
    // FIO's numjobs creates one file per job; `file_bytes` is the total
    // working-set size split across them, so memory stays bounded while
    // per-job fsyncs cover only that job's dirty pages (no cross-job
    // amortization — matching real FIO).
    let pages_per_file = (cfg.file_bytes / ps / cfg.jobs as u64).max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let files: Vec<Ino> = (0..cfg.jobs)
        .map(|j| {
            rig.fs
                .borrow_mut()
                .create(&format!("fio-job-{j}"))
                .expect("create")
        })
        .collect();
    let page = vec![0x5Au8; ps as usize];
    let deadline = rig.clock.now() + cfg.duration_secs * SECOND;
    let qd = cfg.queue_depth.max(1);
    let mut writes = 0u64;
    let mut fsyncs = 0u64;
    let mut pending = vec![0usize; cfg.jobs];
    let mut tickets: Vec<VecDeque<CommitTicket>> = vec![VecDeque::new(); cfg.jobs];
    let t0 = rig.clock.now();
    'outer: loop {
        for (j, &ino) in files.iter().enumerate() {
            if rig.clock.now() >= deadline {
                break 'outer;
            }
            let off = rng.gen_range(0..pages_per_file) * ps;
            rig.fs
                .borrow_mut()
                .write(ino, off, &page, None)
                .expect("write");
            writes += 1;
            pending[j] += 1;
            if pending[j] >= cfg.writes_per_fsync {
                if qd > 1 {
                    // Split phase: submit now, redeem the oldest ticket
                    // only once the ring is full — the commit pipeline.
                    let tid = rig.fs.borrow_mut().begin_tx();
                    let t = rig
                        .fs
                        .borrow_mut()
                        .fsync_submit(ino, tid)
                        .expect("fsync_submit");
                    tickets[j].push_back(t);
                    if tickets[j].len() >= qd {
                        let oldest = tickets[j].pop_front().expect("ring is full");
                        rig.fs.borrow_mut().fsync_wait(oldest).expect("fsync_wait");
                    }
                } else {
                    rig.fs.borrow_mut().fsync(ino, None).expect("fsync");
                }
                fsyncs += 1;
                pending[j] = 0;
            }
        }
    }
    // Drain the pipeline so every measured fsync is durable.
    for ring in &mut tickets {
        while let Some(t) = ring.pop_front() {
            rig.fs.borrow_mut().fsync_wait(t).expect("fsync_wait");
        }
    }
    let elapsed_ns = rig.clock.now() - t0;
    FioResult {
        writes,
        fsyncs,
        elapsed_ns,
        iops: writes as f64 / (elapsed_ns as f64 / SECOND as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{Mode, Rig, RigConfig};
    use xftl_fs::JournalMode;

    fn cfg(writes_per_fsync: usize) -> FioConfig {
        FioConfig {
            jobs: 1,
            file_bytes: 4 * 1024 * 1024,
            writes_per_fsync,
            duration_secs: 2,
            seed: 5,
            queue_depth: 1,
        }
    }

    fn rig(mode: Mode) -> Rig {
        Rig::build(RigConfig {
            blocks: 96,
            logical_pages: 8_000,
            ..RigConfig::small(mode)
        })
    }

    #[test]
    fn produces_iops() {
        let r = rig(Mode::XFtl);
        let res = run(&r, &cfg(5));
        assert!(res.writes > 0);
        assert!(res.iops > 0.0);
        assert!(res.fsyncs > 0);
    }

    #[test]
    fn fewer_fsyncs_mean_higher_iops() {
        // Figure 8's monotone trend along the x-axis.
        let r1 = run(&rig(Mode::XFtl), &cfg(1));
        let r20 = run(&rig(Mode::XFtl), &cfg(20));
        assert!(
            r20.iops > r1.iops,
            "sparser fsyncs should raise IOPS ({} vs {})",
            r20.iops,
            r1.iops
        );
    }

    #[test]
    fn xftl_beats_ordered_beats_full() {
        // Figure 8's mode ordering.
        let x = run(&rig(Mode::XFtl), &cfg(5)).iops;
        let ordered = run(&rig(Mode::Wal), &cfg(5)).iops; // Wal rig = ext4 ordered
        let full_rig = Rig::build(RigConfig {
            blocks: 96,
            logical_pages: 8_000,
            fs_mode: JournalMode::Full,
            ..RigConfig::small(Mode::Rbj)
        });
        let full = run(&full_rig, &cfg(5)).iops;
        assert!(x > ordered, "X-FTL {x} should beat ordered {ordered}");
        assert!(ordered > full, "ordered {ordered} should beat full {full}");
    }

    #[test]
    fn deeper_queue_means_higher_iops() {
        // The pipelining win: at depth 4 a job overlaps three in-flight
        // commits and the device coalesces their group flushes.
        let r1 = run(&rig(Mode::XFtl), &cfg(5));
        let r4 = run(
            &rig(Mode::XFtl),
            &FioConfig {
                queue_depth: 4,
                ..cfg(5)
            },
        );
        assert!(
            r4.iops > r1.iops,
            "queue depth 4 should beat depth 1 ({} vs {})",
            r4.iops,
            r1.iops
        );
    }

    #[test]
    fn pipelined_run_stays_durable() {
        // Draining the ring must leave everything consistent; re-reads see
        // the last written image.
        let r = rig(Mode::XFtl);
        let res = run(
            &r,
            &FioConfig {
                queue_depth: 8,
                ..cfg(1)
            },
        );
        assert!(res.fsyncs > 0);
        r.fs.borrow_mut().sync_all().expect("sync_all");
    }

    #[test]
    fn multiple_jobs_interleave() {
        let r = rig(Mode::XFtl);
        let res = run(&r, &FioConfig { jobs: 4, ..cfg(5) });
        assert!(res.writes > 4);
        assert_eq!(r.fs.borrow().list().len(), 4, "one file per job");
        assert!(res.fsyncs > 0);
    }
}
