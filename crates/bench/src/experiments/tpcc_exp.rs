//! Tables 3–4: TPC-C throughput across the four transaction mixes.

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

/// Runs one mode through all four mixes on one database instance.
fn run_mode(mode: Mode, s: &TpccExpScale) -> Vec<f64> {
    let rig = tpcc_rig(mode, s);
    let mut db = rig.open_db("tpcc.db");
    tpcc::load(&mut db, &s.scale, 1234);
    // One driver across all four mixes: its per-district order counters
    // must track the database state.
    let mut driver = TpccDriver::new(s.scale, 99).with_clock(rig.clock.clone());
    let mut out = Vec::new();
    for (_, mix) in MIXES.iter() {
        let r = tpcc::run_mix(&mut db, &rig.clock, &mut driver, mix, s.txns_per_mix);
        out.push(r.tpm);
    }
    out
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
    let wal = run_mode(Mode::Wal, &s);
    let x = run_mode(Mode::XFtl, &s);
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
    out.push('\n');
    out
}
