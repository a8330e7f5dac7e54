//! Figures 8–9: the FIO-style random-write file-system benchmark.

use xftl_fs::JournalMode;
use xftl_workloads::fio::{self, FioConfig};
use xftl_workloads::rig::{Mode, Profile, Rig, RigConfig};

use crate::metrics;
use crate::report::Table;
use crate::RunScale;

/// FIO experiment scale.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs, reason = "scale knobs are named after what they size")]
pub struct FioScale {
    /// File size per job (paper: 4 GB; scaled down to bound simulator
    /// memory — random-write IOPS at fixed fsync cadence is insensitive
    /// to file size once it exceeds the page cache).
    pub file_bytes: u64,
    pub duration_secs: u64,
}

impl FioScale {
    /// The parameters for a run scale.
    pub fn at(scale: RunScale) -> Self {
        match scale {
            RunScale::Full => FioScale {
                file_bytes: 128 * 1024 * 1024,
                duration_secs: 30,
            },
            RunScale::Quick => FioScale {
                file_bytes: 16 * 1024 * 1024,
                duration_secs: 4,
            },
            RunScale::Smoke => FioScale {
                file_bytes: 8 * 1024 * 1024,
                duration_secs: 2,
            },
        }
    }
}

/// The rig of one FIO point: a fresh drive under the file-system setup
/// `fs_mode` (Figure 8's three: `Off` = X-FTL, ordered, full), with the
/// profile's channel count unless `channels` overrides it.
pub fn fio_rig(
    fs_mode: JournalMode,
    profile: Profile,
    channels: Option<u32>,
    scale: &FioScale,
) -> Rig {
    let file_pages = scale.file_bytes / 8192;
    // Plenty of logical room; over-provisioning ~60 %.
    let logical = file_pages * 2 + 4_000;
    Rig::build(RigConfig {
        fs_mode,
        profile,
        blocks: ((logical as f64 * 1.6 / 128.0).ceil() as usize).max(64),
        logical_pages: logical,
        channels,
        // FIO opens no database, so the SQLite side of `Mode` is never
        // read; `fs_mode` alone describes the stack.
        ..RigConfig::small(Mode::Wal)
    })
}

/// Queue depth of the pipelined X-FTL rows in Figure 9. The ext4 setups
/// have no split-phase commit, so their rows always run at depth 1.
pub const FIG9_QUEUE_DEPTH: usize = 8;

/// One measured IOPS point.
pub fn run_point(
    fs_mode: JournalMode,
    profile: Profile,
    jobs: usize,
    writes_per_fsync: usize,
    queue_depth: usize,
    scale: &FioScale,
) -> f64 {
    let rig = fio_rig(fs_mode, profile, None, scale);
    let r = fio::run(
        &rig,
        &FioConfig {
            jobs,
            file_bytes: scale.file_bytes,
            writes_per_fsync,
            duration_secs: scale.duration_secs,
            seed: 7,
            queue_depth,
        },
    );
    r.iops
}

/// Figure 8: single-thread IOPS vs. fsync interval on the OpenSSD.
pub fn fig8(scale: FioScale) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Figure 8: FIO benchmark, single thread (8 KB IOPS; file {} MB, {} s) ===\n\n",
        scale.file_bytes / (1024 * 1024),
        scale.duration_secs
    ));
    let mut t = Table::new(vec!["pages/fsync", "X-FTL", "ordered", "full"]);
    for wpf in [1usize, 5, 10, 15, 20] {
        let x = run_point(JournalMode::Off, Profile::OpenSsd, 1, wpf, 1, &scale);
        let o = run_point(JournalMode::Ordered, Profile::OpenSsd, 1, wpf, 1, &scale);
        let f = run_point(JournalMode::Full, Profile::OpenSsd, 1, wpf, 1, &scale);
        metrics::metric(format!("fig8.wpf{wpf}.xftl_iops"), x);
        metrics::metric(format!("fig8.wpf{wpf}.ordered_iops"), o);
        metrics::metric(format!("fig8.wpf{wpf}.full_iops"), f);
        t.row(vec![
            wpf.to_string(),
            format!("{x:.0}"),
            format!("{o:.0}"),
            format!("{f:.0}"),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// Figure 9: 16 concurrent jobs — the S830 in ordered/full journaling
/// against the OpenSSD running X-FTL. The S830's IOPS advantage comes
/// from its array structure (4 channels x 2 ways vs the OpenSSD's single
/// channel) plus newer NAND timings; the paper's point is that X-FTL on
/// the old board still lands between the new drive's journaling modes.
pub fn fig9(scale: FioScale) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Figure 9: FIO benchmark, X-FTL vs S830 SSD (16 jobs; 8 KB IOPS; \
         X-FTL commit pipeline at queue depth {FIG9_QUEUE_DEPTH}) ===\n\n"
    ));
    let mut t = Table::new(vec![
        "pages/fsync",
        "S830 ordered",
        "OpenSSD X-FTL",
        "X-FTL qd=1",
        "S830 full",
    ]);
    for wpf in [1usize, 5, 10, 15, 20] {
        let so = run_point(JournalMode::Ordered, Profile::S830, 16, wpf, 1, &scale);
        let x = run_point(
            JournalMode::Off,
            Profile::OpenSsd,
            16,
            wpf,
            FIG9_QUEUE_DEPTH,
            &scale,
        );
        let x1 = run_point(JournalMode::Off, Profile::OpenSsd, 16, wpf, 1, &scale);
        let sf = run_point(JournalMode::Full, Profile::S830, 16, wpf, 1, &scale);
        metrics::metric(format!("fig9.wpf{wpf}.s830_ordered_iops"), so);
        metrics::metric(format!("fig9.wpf{wpf}.openssd_xftl_iops"), x);
        metrics::metric(format!("fig9.wpf{wpf}.openssd_xftl_qd1_iops"), x1);
        metrics::metric(format!("fig9.wpf{wpf}.s830_full_iops"), sf);
        assert!(
            wpf != 10 || x > x1,
            "commit-pipeline win lost in fig9: wpf10 pipelined X-FTL IOPS {x:.0} <= qd1 {x1:.0}"
        );
        t.row(vec![
            wpf.to_string(),
            format!("{so:.0}"),
            format!("{x:.0}"),
            format!("{x1:.0}"),
            format!("{sf:.0}"),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}
