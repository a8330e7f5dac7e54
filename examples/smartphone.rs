//! Smartphone scenario: replay the synthesized Android traces (the
//! paper's Figure 7 workloads) in WAL mode and with X-FTL, and compare.
//!
//! ```sh
//! cargo run --release --example smartphone [scale]
//! ```
//!
//! `scale` is the fraction of the published trace sizes to replay
//! (default 0.1; Table 2 scale is 1.0).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use xftl_workloads::android::{self, ALL_TRACES};
use xftl_workloads::rig::{Mode, Rig, RigConfig};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    println!("Replaying Android traces at scale {scale}\n");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>9}",
        "trace", "statements", "WAL (s)", "X-FTL (s)", "speedup"
    );
    for spec in &ALL_TRACES {
        let ops = android::synthesize(spec, scale, 2024);
        let mut elapsed = Vec::new();
        let mut statements = 0;
        for mode in [Mode::Wal, Mode::XFtl] {
            // Size the volume to the trace's insert volume plus one WAL
            // per database file.
            let inserts = (spec.inserts as f64 * scale) as u64;
            let blob_pages = if spec.blob_bytes > 0 { inserts / 2 } else { 0 };
            let hot = inserts / 8 + blob_pages + 1_100 * spec.db_files as u64 + 2_000;
            let rig = Rig::build(RigConfig {
                mode,
                blocks: ((hot as f64 * 3.6 / 128.0).ceil() as usize).max(48),
                logical_pages: hot * 2,
                ..RigConfig::small(mode)
            });
            let r = android::replay(&rig, spec, &ops);
            statements = r.statements;
            elapsed.push(r.elapsed_ns);
        }
        println!(
            "{:<14} {:>10} {:>12.2} {:>12.2} {:>8.1}x",
            spec.name,
            statements,
            elapsed[0] as f64 / 1e9,
            elapsed[1] as f64 / 1e9,
            elapsed[0] as f64 / elapsed[1] as f64,
        );
    }
    println!("\n(the paper reports 2.4x - 3.0x for these traces on real hardware)");
}
