//! Channel-scaling ablation: FIO random-write IOPS as the flash array
//! grows from one to four channels.
//!
//! Not a paper figure, but the measurable form of the claim behind
//! Figure 9: device-side parallelism shifts absolute IOPS for every
//! journaling mode while the X-FTL > ordered > full ordering is
//! preserved. The second table shows *why* the scaling happens — the
//! per-channel busy times level out as batches spread across channels,
//! and the queue-depth histogram shows how many commands the host
//! actually keeps in flight.

use xftl_flash::FlashStats;
use xftl_fs::JournalMode;
use xftl_workloads::fio::{self, FioConfig};
use xftl_workloads::rig::Profile;

use crate::experiments::fio_exp::{fio_rig, FioScale};
use crate::metrics;
use crate::report::{millis, Table};

/// Channel counts swept by the experiment.
pub const CHANNEL_SWEEP: [u32; 3] = [1, 2, 4];

/// Queue depths swept by the commit-pipeline experiment (X-FTL only —
/// the journal modes have no split-phase commit to pipeline).
pub const QDEPTH_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Channel count the queue-depth sweep runs at.
const QDEPTH_CHANNELS: u32 = 4;

const JOBS: usize = 4;
const WRITES_PER_FSYNC: usize = 10;

/// One measured point plus the flash- and FTL-level stats behind it.
struct Point {
    iops: f64,
    flash: FlashStats,
    ftl: xftl_ftl::FtlStats,
}

fn run_point(fs_mode: JournalMode, channels: u32, queue_depth: usize, scale: &FioScale) -> Point {
    let rig = fio_rig(fs_mode, Profile::OpenSsd, Some(channels), scale);
    let before = rig.snapshot();
    let r = fio::run(
        &rig,
        &FioConfig {
            jobs: JOBS,
            file_bytes: scale.file_bytes,
            writes_per_fsync: WRITES_PER_FSYNC,
            duration_secs: scale.duration_secs,
            seed: 7,
            queue_depth,
        },
    );
    let after = rig.snapshot();
    if fs_mode == JournalMode::Off && queue_depth == 1 {
        // Queue-wait / chip-op latency distributions behind the X-FTL
        // rows of the report.
        metrics::hists(&format!("channels.ch{channels}"), &rig.telemetry());
    }
    Point {
        iops: r.iops,
        flash: after.flash - before.flash,
        ftl: after.ftl - before.ftl,
    }
}

/// The full experiment: an IOPS-vs-channels table for the three
/// journaling setups, then channel-utilisation detail for the X-FTL runs.
pub fn channel_scaling(scale: FioScale) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Channel scaling: FIO {JOBS} jobs, {WRITES_PER_FSYNC} pages/fsync \
         (8 KB IOPS; OpenSSD timings, 1-4 channels) ===\n\n"
    ));
    let mut t = Table::new(vec![
        "channels",
        "X-FTL",
        "ordered",
        "full",
        "X-FTL speedup",
    ]);
    let mut x_points: Vec<Point> = Vec::new();
    for &ch in &CHANNEL_SWEEP {
        let x = run_point(JournalMode::Off, ch, 1, &scale);
        let o = run_point(JournalMode::Ordered, ch, 1, &scale);
        let f = run_point(JournalMode::Full, ch, 1, &scale);
        metrics::metric(format!("channels.ch{ch}.xftl_iops"), x.iops);
        metrics::metric(format!("channels.ch{ch}.ordered_iops"), o.iops);
        metrics::metric(format!("channels.ch{ch}.full_iops"), f.iops);
        metrics::metric(
            format!("channels.ch{ch}.queued_ops"),
            x.flash.queued_ops() as f64,
        );
        metrics::metric(
            format!("channels.ch{ch}.queue_wait_ns"),
            x.flash.queue_wait_ns as f64,
        );
        let speedup = x.iops / x_points.first().map_or(x.iops, |p| p.iops);
        t.row(vec![
            ch.to_string(),
            format!("{:.0}", x.iops),
            format!("{:.0}", o.iops),
            format!("{:.0}", f.iops),
            format!("{speedup:.2}x"),
        ]);
        x_points.push(x);
    }
    out.push_str(&t.render());
    out.push('\n');

    out.push_str("Channel utilisation of the X-FTL runs:\n\n");
    let mut u = Table::new(vec![
        "channels",
        "queued ops",
        "mean qdepth",
        "queue wait ms",
        "busy/channel ms",
        "max busy ms",
    ]);
    for (&ch, p) in CHANNEL_SWEEP.iter().zip(&x_points) {
        let s = &p.flash;
        let busy: Vec<String> = s
            .busy_channel_ns
            .iter()
            .take(ch as usize)
            .map(|&b| millis(b))
            .collect();
        u.row(vec![
            ch.to_string(),
            s.queued_ops().to_string(),
            format!("{:.2}", s.mean_queue_depth()),
            millis(s.queue_wait_ns),
            busy.join(" / "),
            millis(s.max_channel_busy_ns()),
        ]);
    }
    out.push_str(&u.render());
    out.push('\n');

    // Commit-pipeline sweep: IOPS vs split-phase queue depth on the
    // X-FTL rig. Depth 1 is the classic blocking fsync; deeper queues
    // overlap tx N+1's writes with tx N's in-flight commit and let the
    // device coalesce staged commits into one group flush (fewer table
    // programs per commit).
    out.push_str(&format!(
        "Commit pipeline: X-FTL IOPS vs queue depth ({QDEPTH_CHANNELS} channels):\n\n"
    ));
    let mut q = Table::new(vec![
        "queue depth",
        "IOPS",
        "speedup",
        "group flushes",
        "commits coalesced",
        "coalesce ratio",
    ]);
    let mut base_iops = None;
    for &qd in &QDEPTH_SWEEP {
        let p = run_point(JournalMode::Off, QDEPTH_CHANNELS, qd, &scale);
        let flushes = p.ftl.group_commit_flushes;
        let coalesced = p.ftl.commits_coalesced;
        metrics::metric(format!("channels.qd{qd}.xftl_iops"), p.iops);
        metrics::metric(
            format!("channels.qd{qd}.group_commit_flushes"),
            flushes as f64,
        );
        metrics::metric(
            format!("channels.qd{qd}.commits_coalesced"),
            coalesced as f64,
        );
        let base = *base_iops.get_or_insert(p.iops);
        q.row(vec![
            qd.to_string(),
            format!("{:.0}", p.iops),
            format!("{:.2}x", p.iops / base),
            flushes.to_string(),
            coalesced.to_string(),
            if flushes > 0 {
                format!("{:.2}", coalesced as f64 / flushes as f64)
            } else {
                "-".to_string()
            },
        ]);
        // The split-phase win itself: a serialized pipeline keeps every
        // depth-1 number intact, so only qd1 vs qd8 catches it.
        assert!(
            qd != 8 || p.iops > base,
            "commit-pipeline win lost: qd8 X-FTL IOPS {:.0} <= qd1 {base:.0}",
            p.iops
        );
    }
    out.push_str(&q.render());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> FioScale {
        FioScale {
            file_bytes: 4 * 1024 * 1024,
            duration_secs: 1,
        }
    }

    #[test]
    fn iops_scale_with_channels_and_mode_order_holds() {
        let scale = tiny_scale();
        let x1 = run_point(JournalMode::Off, 1, 1, &scale);
        let x4 = run_point(JournalMode::Off, 4, 1, &scale);
        assert!(
            x4.iops > x1.iops,
            "4 channels ({:.0}) should beat 1 ({:.0})",
            x4.iops,
            x1.iops
        );
        let o4 = run_point(JournalMode::Ordered, 4, 1, &scale);
        let f4 = run_point(JournalMode::Full, 4, 1, &scale);
        assert!(x4.iops > o4.iops, "X-FTL should beat ordered at 4 channels");
        assert!(o4.iops > f4.iops, "ordered should beat full at 4 channels");
        // The stats the report prints must actually be populated.
        assert!(x4.flash.queued_ops() > 0, "batched path unused");
        assert!(
            x4.flash.busy_channel_ns.iter().filter(|&&b| b > 0).count() >= 2,
            "work should spread over multiple channels"
        );
    }

    #[test]
    fn commit_pipeline_scales_with_queue_depth() {
        let scale = tiny_scale();
        let q1 = run_point(JournalMode::Off, 4, 1, &scale);
        let q8 = run_point(JournalMode::Off, 4, 8, &scale);
        assert!(
            q8.iops > q1.iops,
            "queue depth 8 ({:.0}) should beat depth 1 ({:.0})",
            q8.iops,
            q1.iops
        );
        // The win must come from group commit actually coalescing: fewer
        // table programs than commits.
        assert!(q8.ftl.group_commit_flushes > 0, "no group flushes recorded");
        assert!(
            q8.ftl.commits_coalesced > q8.ftl.group_commit_flushes,
            "commits ({}) should outnumber group flushes ({})",
            q8.ftl.commits_coalesced,
            q8.ftl.group_commit_flushes
        );
        // Depth 1 flushes every commit alone: one commit per group.
        assert_eq!(
            q1.ftl.commits_coalesced, q1.ftl.group_commit_flushes,
            "depth 1 should never coalesce"
        );
    }
}
