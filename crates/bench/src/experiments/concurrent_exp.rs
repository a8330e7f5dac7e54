//! Concurrent-writer scaling: N MVCC snapshot writers over one shared
//! file, committed through the split-phase pipeline.
//!
//! Not a paper figure — the paper's SQLite workloads are single-writer —
//! but the measurable form of the claim behind the `BEGIN CONCURRENT`
//! extension: X-L2P snapshot transactions let independent writers stage
//! commits that coalesce into shared group flushes, so aggregate commit
//! throughput *rises* with writer count instead of serializing on the
//! per-commit flush. Two contention regimes bound the win:
//!
//! * **disjoint** — writers own non-overlapping page ranges; every
//!   commit is admitted and the sweep isolates the coalescing win.
//! * **zipfian** — writers draw pages from one hot-skewed distribution
//!   (rank probability ∝ 1/rank^θ); first-committer-wins validation
//!   rejects the overlap losers, and the table shows the throughput the
//!   survivors still sustain plus the conflict rate paid for it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_workloads::rig::{CommitWait, ConcurrentPlan, Mode, Profile, Rig, RigConfig};

use crate::metrics;
use crate::report::{millis, Table};
use crate::RunScale;

/// Writer counts swept by the experiment.
pub const WRITER_SWEEP: [usize; 3] = [1, 2, 4];

/// Zipfian skew of the contended regime (θ = 0.9, the YCSB default —
/// hot enough that overlapping write sets are routine at 4 writers).
pub const ZIPF_THETA: f64 = 0.9;

/// Seed of the page-selection stream (the sweep perturbs it per writer
/// count so regimes don't share a stream).
const PAGE_SEED: u64 = 0x4D5F_CC13;

/// Scale knobs for one run of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ConcScale {
    /// Multi-writer rounds per regime cell.
    pub rounds: usize,
    /// Pages each writer overwrites per transaction.
    pub writes_per_tx: usize,
    /// Pages of the shared file (and span of the Zipfian draw).
    pub file_pages: u64,
}

impl ConcScale {
    /// The parameters for a run scale.
    pub fn at(scale: RunScale) -> Self {
        match scale {
            RunScale::Full => ConcScale {
                rounds: 300,
                writes_per_tx: 8,
                file_pages: 256,
            },
            RunScale::Quick => ConcScale {
                rounds: 80,
                writes_per_tx: 6,
                file_pages: 128,
            },
            RunScale::Smoke => ConcScale {
                rounds: 30,
                writes_per_tx: 4,
                file_pages: 64,
            },
        }
    }
}

/// Deterministic Zipfian sampler over `0..n`: rank `i` is drawn with
/// probability proportional to `1/(i+1)^theta` via inverse-CDF lookup,
/// so page 0 is the hottest. Determinism (fixed seed → fixed draw
/// sequence) is what the bench baseline relies on.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF for `n` ranks at skew `theta`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

fn conc_rig() -> Rig {
    // 4 channels so the batched submit path has device parallelism to
    // spread group flushes over; blocks sized for the full-scale churn.
    Rig::build(RigConfig {
        mode: Mode::XFtl,
        profile: Profile::OpenSsd,
        blocks: 128,
        channels: Some(4),
        ..RigConfig::small(Mode::XFtl)
    })
}

/// Disjoint regime: writer `w` owns `file_pages / writers` consecutive
/// pages and walks them round-robin, so no two writers ever overlap and
/// every round's write set still moves across the file.
fn disjoint_plan(writers: usize, round: usize, scale: &ConcScale) -> ConcurrentPlan {
    let part = (scale.file_pages / writers as u64).max(1);
    ConcurrentPlan {
        writers: (0..writers)
            .map(|w| {
                (0..scale.writes_per_tx)
                    .map(|k| w as u64 * part + (round * scale.writes_per_tx + k) as u64 % part)
                    .collect()
            })
            .collect(),
        tag: (round % 251) as u8,
    }
}

/// Contended regime: every writer draws its pages from the shared
/// Zipfian distribution; within one transaction the draws are deduped
/// (a tx rewrites a hot page once), across writers they collide freely.
fn zipf_plan(
    rng: &mut StdRng,
    zipf: &Zipf,
    writers: usize,
    round: usize,
    scale: &ConcScale,
) -> ConcurrentPlan {
    ConcurrentPlan {
        writers: (0..writers)
            .map(|_| {
                let mut pages: Vec<u64> = Vec::with_capacity(scale.writes_per_tx);
                while pages.len() < scale.writes_per_tx {
                    let p = zipf.sample(rng);
                    if !pages.contains(&p) {
                        pages.push(p);
                    }
                }
                pages
            })
            .collect(),
        tag: (round % 251) as u8,
    }
}

/// One measured regime cell.
pub struct Point {
    /// Admitted commits per simulated second.
    pub commit_tps: f64,
    /// 99th-percentile submit-to-durable commit latency (ns).
    pub p99_commit_ns: u64,
    /// Total admitted commits.
    pub commits: u64,
    /// Total first-committer-wins rejections.
    pub conflicts: u64,
    /// Group flushes the device performed for those commits.
    pub group_flushes: u64,
}

fn p99(mut lat: Vec<u64>) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    lat[(lat.len() * 99 / 100).min(lat.len() - 1)]
}

/// Runs one regime cell: `rounds` rounds of `writers` pipelined snapshot
/// writers, disjoint when `zipf` is `None`, Zipfian-contended otherwise.
pub fn run_regime(writers: usize, scale: &ConcScale, zipf: Option<f64>) -> Point {
    let rig = conc_rig();
    let ino = rig.prepare_concurrent_file("conc.dat", scale.file_pages);
    let dist = zipf.map(|theta| Zipf::new(scale.file_pages, theta));
    let mut rng = StdRng::seed_from_u64(PAGE_SEED ^ writers as u64);
    let before = rig.snapshot();
    let t0 = rig.clock.now();
    let mut commits = 0u64;
    let mut conflicts = 0u64;
    let mut latencies = Vec::new();
    for round in 0..scale.rounds {
        let plan = match &dist {
            Some(z) => zipf_plan(&mut rng, z, writers, round, scale),
            None => disjoint_plan(writers, round, scale),
        };
        let out = rig.run_concurrent_writers(ino, &plan, CommitWait::AllSubmitted);
        commits += out.committed.len() as u64;
        conflicts += out.conflicted.len() as u64;
        latencies.extend(out.commit_latency_ns);
    }
    let elapsed_s = (rig.clock.now() - t0) as f64 / 1e9;
    let after = rig.snapshot();
    if writers == *WRITER_SWEEP.last().unwrap_or(&4) && zipf.is_none() {
        metrics::hists(&format!("concurrent.w{writers}"), &rig.telemetry());
    }
    Point {
        commit_tps: commits as f64 / elapsed_s.max(1e-9),
        p99_commit_ns: p99(latencies),
        commits,
        conflicts,
        group_flushes: (after.ftl - before.ftl).group_commit_flushes,
    }
}

/// The full experiment: both regimes swept over [`WRITER_SWEEP`], with
/// throughput, conflict-rate and tail-latency columns.
pub fn concurrent_scaling(scale: ConcScale) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Concurrent writers: pipelined MVCC snapshot commits, \
         {} rounds x {} pages/tx over a {}-page file (4 channels) ===\n\n",
        scale.rounds, scale.writes_per_tx, scale.file_pages
    ));
    let mut t = Table::new(vec![
        "writers",
        "disjoint commit/s",
        "speedup",
        "p99 commit",
        "flushes/commit",
        "zipf commit/s",
        "zipf conflict rate",
    ]);
    let mut base_tps = None;
    for &w in &WRITER_SWEEP {
        let d = run_regime(w, &scale, None);
        let z = run_regime(w, &scale, Some(ZIPF_THETA));
        metrics::metric(format!("concurrent.w{w}.disjoint_commit_tps"), d.commit_tps);
        metrics::metric(
            format!("concurrent.w{w}.disjoint_p99_commit_ns"),
            d.p99_commit_ns as f64,
        );
        metrics::metric(
            format!("concurrent.w{w}.disjoint_group_flushes"),
            d.group_flushes as f64,
        );
        metrics::metric(
            format!("concurrent.w{w}.disjoint_commits"),
            d.commits as f64,
        );
        metrics::metric(format!("concurrent.w{w}.zipf_commit_tps"), z.commit_tps);
        metrics::metric(format!("concurrent.w{w}.zipf_commits"), z.commits as f64);
        metrics::metric(
            format!("concurrent.w{w}.zipf_conflicts"),
            z.conflicts as f64,
        );
        let base = *base_tps.get_or_insert(d.commit_tps);
        // The MVCC claim: serialized snapshot commits would leave the
        // single-writer row intact, so only w1 vs w4 catches them.
        assert!(
            w != 4 || d.commit_tps > base,
            "concurrent-writer win lost: disjoint w4 commit/s {:.0} <= w1 {base:.0}",
            d.commit_tps
        );
        let attempts = (z.commits + z.conflicts).max(1);
        t.row(vec![
            w.to_string(),
            format!("{:.0}", d.commit_tps),
            format!("{:.2}x", d.commit_tps / base),
            millis(d.p99_commit_ns),
            format!("{:.2}", d.group_flushes as f64 / d.commits.max(1) as f64),
            format!("{:.0}", z.commit_tps),
            format!("{:.1}%", 100.0 * z.conflicts as f64 / attempts as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ConcScale {
        ConcScale {
            rounds: 8,
            writes_per_tx: 4,
            file_pages: 32,
        }
    }

    #[test]
    fn disjoint_writers_scale_past_one_by_coalescing() {
        let scale = tiny_scale();
        let w1 = run_regime(1, &scale, None);
        let w4 = run_regime(4, &scale, None);
        assert_eq!(w1.conflicts, 0, "disjoint writers must never conflict");
        assert_eq!(w4.conflicts, 0, "disjoint writers must never conflict");
        assert_eq!(w4.commits, 4 * w1.commits, "every commit admitted");
        assert!(
            w4.commit_tps > w1.commit_tps,
            "4 disjoint writers ({:.0}/s) should out-commit one ({:.0}/s)",
            w4.commit_tps,
            w1.commit_tps
        );
        // The win must come from commits sharing group flushes, not from
        // a timing accident: 4 pipelined commits per round need fewer
        // flushes than commits.
        assert!(
            w4.group_flushes < w4.commits,
            "4-writer rounds should coalesce ({} flushes for {} commits)",
            w4.group_flushes,
            w4.commits
        );
    }

    #[test]
    fn zipfian_contention_pays_conflicts_not_errors() {
        let scale = tiny_scale();
        let z = run_regime(4, &scale, Some(ZIPF_THETA));
        assert_eq!(
            z.commits + z.conflicts,
            (4 * scale.rounds) as u64,
            "every writer either commits or loses validation"
        );
        assert!(
            z.conflicts > 0,
            "theta={ZIPF_THETA} hot pages should produce overlap losers"
        );
        assert!(
            z.commits >= scale.rounds as u64,
            "first-committer-wins admits at least one writer per round \
             ({} commits over {} rounds)",
            z.commits,
            scale.rounds
        );
        assert!(z.commit_tps > 0.0);
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let z = Zipf::new(32, ZIPF_THETA);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 32];
        for _ in 0..4_000 {
            let p = z.sample(&mut rng);
            assert!(p < 32);
            counts[p as usize] += 1;
        }
        assert!(
            counts[0] > counts[16] && counts[0] > counts[31],
            "rank 0 should be the hottest: {counts:?}"
        );
    }
}
