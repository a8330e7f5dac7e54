//! OLTP scenario: a "nightly" TPC-C run on X-FTL with a full statistics
//! report from every layer of the stack.
//!
//! ```sh
//! cargo run --release --example tpcc_night [txns]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use xftl_workloads::rig::{Mode, Rig, RigConfig};
use xftl_workloads::tpcc::{self, TpccDriver, TpccScale, WRITE_INTENSIVE};

fn main() {
    let txns: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let scale = TpccScale::default();
    let rig = Rig::build(RigConfig {
        mode: Mode::XFtl,
        blocks: 220,
        logical_pages: 18_000,
        ..RigConfig::small(Mode::XFtl)
    });
    let mut db = rig.open_db("tpcc.db");
    println!(
        "Loading TPC-C ({} warehouses, {} items)...",
        scale.warehouses, scale.items
    );
    tpcc::load(&mut db, &scale, 7);
    rig.reset_stats();
    db.reset_stats();

    println!("Running {txns} write-intensive transactions on X-FTL...");
    let mut driver = TpccDriver::new(scale, 11).with_clock(rig.clock.clone());
    let r = tpcc::run_mix(&mut db, &rig.clock, &mut driver, &WRITE_INTENSIVE, txns);
    let pstats = *db.pager_stats();
    drop(db);
    let snap = rig.snapshot();

    println!("\n== results ==");
    println!("throughput:        {:>10.0} txns/simulated-minute", r.tpm);
    println!(
        "elapsed:           {:>10.2} simulated seconds",
        r.elapsed_ns as f64 / 1e9
    );
    println!("\n== I/O by layer ==");
    println!("SQLite  DB writes: {:>10}", pstats.db_writes);
    println!(
        "SQLite  journal:   {:>10}  (journaling is OFF)",
        pstats.journal_writes
    );
    println!("SQLite  fsyncs:    {:>10}", pstats.fsyncs);
    println!("FS      metadata:  {:>10}", snap.fs.meta_writes);
    println!("FS      barriers:  {:>10}", snap.fs.barriers);
    println!("device  commits:   {:>10}", snap.dev.commits);
    println!("FTL     data:      {:>10}", snap.ftl.data_writes);
    println!("FTL     X-L2P:     {:>10}", snap.ftl.xl2p_writes);
    println!("FTL     GC copies: {:>10}", snap.ftl.gc_copies);
    println!("flash   programs:  {:>10}", snap.flash.programs);
    println!("flash   erases:    {:>10}", snap.flash.erases);
    if let Some(v) = snap.ftl.mean_gc_validity() {
        println!("GC victim validity: {:>8.1}%", v * 100.0);
    }
}
