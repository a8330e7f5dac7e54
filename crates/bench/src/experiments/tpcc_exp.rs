//! Tables 3–4: TPC-C throughput across the four transaction mixes.

use xftl_ftl::FtlStats;
use xftl_workloads::rig::{Mode, Rig, RigConfig};
use xftl_workloads::tpcc::{
    self, TpccDriver, TpccMix, TpccScale, JOIN_ONLY, READ_INTENSIVE, SELECTION_ONLY,
    WRITE_INTENSIVE,
};

use crate::metrics;
use crate::report::Table;
use crate::RunScale;

/// Stable lowercase key for a mix name in metric names.
fn mix_key(name: &str) -> String {
    name.to_ascii_lowercase().replace('-', "_")
}

/// The four named mixes of Table 3.
pub const MIXES: [(&str, TpccMix); 4] = [
    ("Write-intensive", WRITE_INTENSIVE),
    ("Read-intensive", READ_INTENSIVE),
    ("Selection-only", SELECTION_ONLY),
    ("Join-only", JOIN_ONLY),
];

/// TPC-C experiment scale.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs, reason = "scale knobs are named after what they size")]
pub struct TpccExpScale {
    pub scale: TpccScale,
    pub txns_per_mix: usize,
}

impl TpccExpScale {
    /// The parameters for a run scale. Full is the default benchmark
    /// scale (smaller than the paper's 10 warehouses — the mix ratios,
    /// not the warehouse count, drive the mode gap).
    pub fn at(scale: RunScale) -> Self {
        let reduced = TpccScale {
            warehouses: 1,
            districts_per_warehouse: 4,
            customers_per_district: 10,
            items: 200,
            initial_orders: 10,
        };
        match scale {
            RunScale::Full => TpccExpScale {
                scale: TpccScale::default(),
                txns_per_mix: 300,
            },
            RunScale::Quick => TpccExpScale {
                scale: reduced,
                txns_per_mix: 40,
            },
            RunScale::Smoke => TpccExpScale {
                scale: reduced,
                txns_per_mix: 20,
            },
        }
    }
}

fn tpcc_rig(mode: Mode, s: &TpccExpScale) -> Rig {
    // Footprint: items + stock + order lines grow with the run.
    let rows = s.scale.items * (1 + s.scale.warehouses)
        + s.scale.warehouses
            * s.scale.districts_per_warehouse
            * (s.scale.customers_per_district + s.scale.initial_orders * 12);
    let hot = (rows as u64) / 12 + 2_500;
    Rig::build(RigConfig {
        mode,
        blocks: ((hot as f64 * 2.6 / 128.0).ceil() as usize).max(64),
        logical_pages: hot * 2,
        ..RigConfig::small(mode)
    })
}

/// Runs one mode through all four mixes on one database instance:
/// throughput per mix, and what the write-intensive mix cost the device.
fn run_mode(mode: Mode, s: &TpccExpScale) -> (Vec<f64>, WriteCost) {
    let rig = tpcc_rig(mode, s);
    let mut db = rig.open_db("tpcc.db");
    tpcc::load(&mut db, &s.scale, 1234);
    // One driver across all four mixes: its per-district order counters
    // must track the database state.
    let mut driver = TpccDriver::new(s.scale, 99).with_clock(rig.clock.clone());
    let mut out = Vec::new();
    let mut cost = WriteCost::default();
    for (i, (_, mix)) in MIXES.iter().enumerate() {
        let before = rig.snapshot();
        let r = tpcc::run_mix(&mut db, &rig.clock, &mut driver, mix, s.txns_per_mix);
        out.push(r.tpm);
        if i == 0 {
            let after = rig.snapshot();
            let commits = (after.dev.commits - before.dev.commits).max(1);
            cost = WriteCost {
                commits,
                programs_per_commit: (after.flash.programs - before.flash.programs) as f64
                    / commits as f64,
                ftl: after.ftl - before.ftl,
            };
        }
    }
    (out, cost)
}

/// The device cost of the write-intensive mix.
#[derive(Debug, Default, Clone, Copy)]
struct WriteCost {
    /// Device commits.
    commits: u64,
    /// Flash programs per device commit, from every cause.
    programs_per_commit: f64,
    /// What the FTL did over the mix: the differentials by size
    /// ([`FtlStats::diff_size_hist`]), and the pages written whole.
    ftl: FtlStats,
}

/// Flash programs per commit the write-intensive mix may cost X-FTL:
/// each commit's changed bytes ride its table image instead of whole
/// pages (DESIGN.md §5.2, "Differentials").
const MAX_XFTL_PROGRAMS_PER_COMMIT: f64 = 4.5;

/// The histogram of encoded differential bytes per transactional write:
/// past 512 B a differential rides its commit's image and is merged
/// after it, up to the quarter-page cap; past that it is refused.
fn diff_size_table(cost: &WriteCost) -> String {
    let sizes = cost.ftl.diff_size_hist;
    let total = sizes.iter().sum::<u64>().max(1) as f64;
    let mut t = Table::new(vec![
        "Encoded bytes",
        "0",
        "1-64",
        "65-128",
        "129-256",
        "257-512",
        "513-2048 (merged after)",
        "Refused (whole)",
    ]);
    let mut row = vec!["Writes".to_string()];
    row.extend((sizes.iter()).map(|&n| format!("{:.1}%", 100.0 * n as f64 / total)));
    t.row(row);
    t.render()
}

/// The pages written whole per commit, by cause — the size merges split
/// into those before the table image, which the commit waits for, and
/// those after its durability point — and the share of the
/// differentials kept that carry a copy run; beside them, what decides
/// the room: the mean entries and record bytes per table image, the
/// checkpoints per 1,000 commits, and the translation pages GC rewrote
/// from RAM; and what a table image waits for on the chip, by whose
/// work fills the wait, beside the merges run in the host's think time,
/// those of them run whether or not the host's command had arrived, and
/// those the gaps left for the next flush.
fn whole_write_table(cost: &WriteCost) -> String {
    let s = &cost.ftl;
    let per_commit = |n: u64| format!("{:.2}", n as f64 / cost.commits.max(1) as f64);
    let mut t = Table::new(vec![
        "Whole writes",
        "Size, before image",
        "Size, after image",
        "Room",
        "Cache miss",
    ]);
    t.row(vec![
        "Per commit".to_string(),
        per_commit(s.merges_size_before),
        per_commit(s.merges_size_after),
        per_commit(s.merges_room),
        per_commit(s.image_cache_misses),
    ]);
    let per_image = |n: u64| format!("{:.1}", n as f64 / s.group_commit_flushes.max(1) as f64);
    let mut room = Table::new(vec![
        "Table image",
        "Entries",
        "Record bytes",
        "Checkpoints/1k commits",
        "Slab rewrites from RAM",
    ]);
    room.row(vec![
        "Mean".to_string(),
        per_image(s.image_entries),
        per_image(s.image_record_bytes),
        format!(
            "{:.1}",
            1000.0 * s.checkpoints as f64 / cost.commits.max(1) as f64
        ),
        s.gc_slab_rewrites.to_string(),
    ]);
    let image_wait_ns = s.image_wait_gap_ns + s.image_wait_own_ns + s.image_wait_gc_ns;
    let ms_per_image = |ns: u64| {
        format!(
            "{:.3}",
            ns as f64 / 1e6 / s.group_commit_flushes.max(1) as f64
        )
    };
    let mut wait = Table::new(vec![
        "Image wait (ms)",
        "Total",
        "Merges",
        "Own writes",
        "GC",
        "Merges/commit",
        "Forced/commit",
        "Left/commit",
    ]);
    wait.row(vec![
        "Per image".to_string(),
        ms_per_image(image_wait_ns),
        ms_per_image(s.image_wait_gap_ns),
        ms_per_image(s.image_wait_own_ns),
        ms_per_image(s.image_wait_gc_ns),
        per_commit(s.merges_size_after + s.merges_room),
        per_commit(s.merges_forced),
        per_commit(s.gap_merges_left),
    ]);
    format!(
        "{}\nDifferentials with a copy run: {:.1}%\n\n{}\n{}",
        t.render(),
        100.0 * s.diff_copies as f64 / s.diff_writes.max(1) as f64,
        room.render(),
        wait.render()
    )
}

/// Tables 3–4: the mix definitions and measured throughput.
pub fn tables_3_4(s: TpccExpScale) -> String {
    let mut out = String::new();
    out.push_str("=== Table 3: TPC-C transaction mixes ===\n\n");
    let mut t3 = Table::new(vec![
        "Mix",
        "Delivery",
        "OrderStatus",
        "Payment",
        "StockLevel",
        "NewOrder",
    ]);
    for (name, m) in MIXES {
        t3.row(vec![
            name.to_string(),
            format!("{}%", m.delivery),
            format!("{}%", m.order_status),
            format!("{}%", m.payment),
            format!("{}%", m.stock_level),
            format!("{}%", m.new_order),
        ]);
    }
    out.push_str(&t3.render());
    out.push_str(&format!(
        "\n=== Table 4: TPC-C throughput (txns per simulated minute; \
         {} warehouses, {} txns/mix) ===\n\n",
        s.scale.warehouses, s.txns_per_mix
    ));
    let (wal, _) = run_mode(Mode::Wal, &s);
    let (x, x_cost) = run_mode(Mode::XFtl, &s);
    for (i, (name, _)) in MIXES.iter().enumerate() {
        metrics::metric(format!("table4.{}.wal_tpm", mix_key(name)), wal[i]);
        metrics::metric(format!("table4.{}.xftl_tpm", mix_key(name)), x[i]);
    }
    let mut t4 = Table::new(vec![
        "",
        "Write-int.",
        "Read-int.",
        "Select-only",
        "Join-only",
    ]);
    t4.row(vec![
        "WAL".to_string(),
        format!("{:.0}", wal[0]),
        format!("{:.0}", wal[1]),
        format!("{:.0}", wal[2]),
        format!("{:.0}", wal[3]),
    ]);
    t4.row(vec![
        "X-FTL".to_string(),
        format!("{:.0}", x[0]),
        format!("{:.0}", x[1]),
        format!("{:.0}", x[2]),
        format!("{:.0}", x[3]),
    ]);
    t4.row(vec![
        "X/WAL".to_string(),
        format!("{:.2}", x[0] / wal[0].max(1e-9)),
        format!("{:.2}", x[1] / wal[1].max(1e-9)),
        format!("{:.2}", x[2] / wal[2].max(1e-9)),
        format!("{:.2}", x[3] / wal[3].max(1e-9)),
    ]);
    out.push_str(&t4.render());
    out.push_str(&format!(
        "\n=== Write-intensive mix on X-FTL: differential bytes per page write \
         ({:.2} flash programs per commit) ===\n\n",
        x_cost.programs_per_commit
    ));
    out.push_str(&diff_size_table(&x_cost));
    out.push('\n');
    out.push_str(&whole_write_table(&x_cost));
    out.push('\n');
    metrics::metric(
        "table4.write_intensive.xftl_programs_per_commit",
        x_cost.programs_per_commit,
    );
    assert!(
        x_cost.programs_per_commit <= MAX_XFTL_PROGRAMS_PER_COMMIT,
        "X-FTL write-intensive mix: {:.2} flash programs per commit, over {MAX_XFTL_PROGRAMS_PER_COMMIT}",
        x_cost.programs_per_commit
    );
    // A differential past the limit rides its commit's image and is
    // merged after the durability point, off the commit's critical path;
    // only one past the cap, or one the image has no room for, is
    // written whole before the image (DESIGN.md §5.2).
    let (before, after) = (x_cost.ftl.merges_size_before, x_cost.ftl.merges_size_after);
    assert!(
        after > before,
        "X-FTL write-intensive mix: {after} size merges after the table image, \
         not more than the {before} whole writes before it"
    );
    out
}
