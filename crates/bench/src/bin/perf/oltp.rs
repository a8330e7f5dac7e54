//! `oltp-xftl` and `oltp-wal`: the TPC-C write-intensive mix through
//! `Connection`, once over X-FTL (journaling off at both levels) and once
//! over the plain FTL (SQLite WAL on ext4 ordered). Same seed, same
//! transaction stream, same pre-aged device: the two differ only in who
//! does the commit work.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant; // xftl-analyze: allow(sim-clock): lap set-up and measured-phase host times are the measurand

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_db::{Connection, DbError, SharedFs, Value};
use xftl_flash::SimClock;
use xftl_fs::FileSystem;
use xftl_ftl::BlockDevice;
use xftl_workloads::tpcc::{self, TpccDriver, TpccScale, WRITE_INTENSIVE};

use crate::lap::{Lap, Res};
use crate::probe::Tap;
use crate::stack::{
    build_fs, ftl_of, power_cut, recover_fs, reset_spans, snapshot, span_totals, Linked,
    Personality, StackSpec,
};

/// Size of one OLTP lap.
#[derive(Debug, Clone, Copy)]
pub struct OltpScale {
    pub tpcc: TpccScale,
    pub txns: usize,
    pub stack: StackSpec,
}

/// Unmeasured transactions between a forced WAL checkpoint and the power
/// cut. Where the cut falls relative to the last checkpoint decides how
/// much log recovery replays; left to chance (it depends on the seed) it
/// made `recovery_sim_ms` on `oltp-wal` spread 11 % over seeds.
const TAIL_TXNS: usize = 100;

const DB_NAME: &str = "tpcc.db";

/// Seed of the initial table population: set-up, so `--seed` does not
/// reach it.
const LOAD_SEED: u64 = 1234;

/// Decorrelates the class picker from the driver's own stream.
const PICK_SALT: u64 = 0x7063_6b5f_636c_6173;

/// The durability ledger: aggregates that every committed transaction
/// class moves, taken just before the cut and re-run after recovery.
const AUDIT_QUERIES: [&str; 10] = [
    "SELECT COUNT(*) FROM orders",
    "SELECT COUNT(*) FROM new_order",
    "SELECT COUNT(*) FROM order_line",
    "SELECT COUNT(*) FROM history",
    "SELECT SUM(w_ytd) FROM warehouse",
    "SELECT SUM(d_ytd) FROM district",
    "SELECT SUM(d_next_o_id) FROM district",
    "SELECT SUM(c_balance) FROM customer",
    "SELECT SUM(s_ytd) FROM stock",
    "SELECT SUM(o_carrier_id) FROM orders",
];

fn open_db<D: BlockDevice>(
    fs: &SharedFs<D>,
    clock: &SimClock,
    mode: xftl_db::DbJournalMode,
    telemetry: &xftl_trace::Telemetry,
) -> Res<Connection<D>> {
    let mut db = Connection::open(Rc::clone(fs), DB_NAME, mode)?;
    db.set_recorder(clock.clone(), telemetry.clone());
    Ok(db)
}

fn audit<D: BlockDevice>(db: &mut Connection<D>) -> Res<Vec<Vec<Vec<Value>>>> {
    AUDIT_QUERIES
        .iter()
        .map(|q| db.query(q).map_err(Into::into))
        .collect()
}

/// Draws a class index (into `lap::TXN_CLASSES`) from the
/// write-intensive mix: 45 NO / 43 P / 4 D / 4 OS / 4 SL.
fn pick_class(rng: &mut StdRng) -> usize {
    let mix = WRITE_INTENSIVE;
    let p = rng.gen_range(0..100u32);
    let no = u32::from(mix.new_order);
    let pay = no + u32::from(mix.payment);
    let del = pay + u32::from(mix.delivery);
    let os = del + u32::from(mix.order_status);
    if p < no {
        0
    } else if p < pay {
        1
    } else if p < del {
        2
    } else if p < os {
        3
    } else {
        4
    }
}

/// Runs one transaction of `class`. `TpccDriver` `expect`s its
/// statements, so a typed `DbError` inside one surfaces as a panic; it is
/// caught here, the open transaction rolled back, and the op reported as
/// failed — never a crashed run.
fn run_txn<D: BlockDevice>(
    driver: &mut TpccDriver,
    db: &mut Connection<D>,
    class: usize,
) -> Res<bool> {
    let outcome = catch_unwind(AssertUnwindSafe(|| match class {
        0 => driver.new_order(db),
        1 => driver.payment(db),
        2 => driver.delivery(db),
        3 => driver.order_status(db),
        _ => driver.stock_level(db),
    }));
    if outcome.is_ok() {
        return Ok(true);
    }
    match db.execute("ROLLBACK") {
        Ok(_) | Err(DbError::TxState(_)) => Ok(false),
        Err(e) => Err(e.into()),
    }
}

fn unshare<D: BlockDevice>(fs: SharedFs<D>) -> Res<FileSystem<D>> {
    Ok(Rc::try_unwrap(fs)
        .map_err(|_| "file system still shared at the power cut")?
        .into_inner())
}

/// One lap: build and age the device, mkfs, load TPC-C; run `txns`
/// transactions; cut power with a transaction open; recover; audit.
pub fn lap<F: Personality, T: Tap>(scale: &OltpScale, seed: u64) -> Res<Lap> {
    let host0 = Instant::now(); // xftl-analyze: allow(sim-clock): set-up host time
    let (fs, clock) = build_fs::<F, T>(&scale.stack)?;
    let telemetry = ftl_of(fs.device()).base().recorder().clone();
    let fs: SharedFs<Linked<F, T>> = Rc::new(RefCell::new(fs));
    let mut db = open_db(&fs, &clock, F::DB_MODE, &telemetry)?;
    tpcc::load(&mut db, &scale.tpcc, LOAD_SEED);
    let mut driver = TpccDriver::new(scale.tpcc, seed).with_clock(clock.clone());
    let mut picker = StdRng::seed_from_u64(seed ^ PICK_SALT);
    let setup_host_ns = host0.elapsed().as_nanos() as u64;

    // Measured phase.
    db.reset_stats();
    telemetry.reset();
    reset_spans(fs.borrow_mut().device_mut());
    let before = snapshot(&fs.borrow());
    let mut lap = Lap {
        setup_host_ns,
        attempted: scale.txns as u64,
        ..Lap::default()
    };
    let host1 = Instant::now(); // xftl-analyze: allow(sim-clock): measured-phase host time
    let sim1 = clock.now();
    for _ in 0..scale.txns {
        let class = pick_class(&mut picker);
        let t0 = clock.now();
        if run_txn(&mut driver, &mut db, class)? {
            let dt = clock.now() - t0;
            lap.lat_ns.push(dt);
            lap.counts.class_lat_ns[class].push(dt);
        } else {
            lap.failed += 1;
        }
    }
    lap.phase_sim_ns = clock.now() - sim1;
    lap.phase_host_ns = host1.elapsed().as_nanos() as u64;
    lap.counts.set_phase(before, snapshot(&fs.borrow()));
    lap.lat_ns.sort_unstable();
    for v in &mut lap.counts.class_lat_ns {
        v.sort_unstable();
    }
    lap.counts.pager = *db.pager_stats();
    lap.counts.tele = telemetry.summaries();
    (lap.counts.outer, lap.counts.inner) = span_totals(fs.borrow().device());

    // A fixed distance past a checkpoint, then the power cut with one
    // transaction in flight.
    db.checkpoint()?;
    for _ in 0..TAIL_TXNS {
        if !run_txn(&mut driver, &mut db, pick_class(&mut picker))? {
            return Err("a transaction of the unmeasured tail failed".into());
        }
    }
    let expected = audit(&mut db)?;
    db.execute("BEGIN")?;
    db.execute("UPDATE warehouse SET w_ytd = w_ytd + 4096.0 WHERE w_id = 1")?;
    db.execute("INSERT INTO history (h_c_key, h_amount, h_data) VALUES (1, 1.0, 'in flight')")?;
    drop(db);
    let chip = power_cut(unshare(fs)?);

    // Recovery: device, mount, database open (WAL replay where there is one).
    let t0 = clock.now();
    let fs = Rc::new(RefCell::new(recover_fs::<F, T>(chip, &scale.stack)?));
    let mut db = open_db(&fs, &clock, F::DB_MODE, &telemetry)?;
    lap.recovery_sim_ns = clock.now() - t0;

    let recovered = audit(&mut db)?;
    if recovered != expected {
        return Err(format!(
            "durability audit failed: before the cut {expected:?}, after recovery {recovered:?}"
        )
        .into());
    }
    Ok(lap)
}
