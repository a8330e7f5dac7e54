//! TPC-C benchmark (§6.3.3, Tables 3–4), DBT2-style.
//!
//! All five transaction types are implemented against the SQL engine. The
//! paper runs 10 warehouses through SQLite with a single connection (the
//! locking granularity of SQLite is the whole file); the default scale
//! here is smaller so the database fits a simulated drive comfortably —
//! the WAL-vs-X-FTL ratios are driven by the transaction mix, not the row
//! counts. Composite integer keys encode (warehouse, district, ...) so
//! every hot path is a rowid lookup or rowid-range scan, as SQLite's
//! planner would achieve with its integer primary keys.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_db::{Connection, Value};
use xftl_flash::SimClock;
use xftl_flash::SECOND;
use xftl_ftl::BlockDevice;

/// Host CPU time charged per SQL statement (SQLite parse + VM execution
/// on the paper's Core i7 host). Storage latencies dwarf this for write
/// transactions; it is what bounds the read-only mixes (Table 4's
/// selection-only and join-only rows).
pub const CPU_STMT_NS: u64 = 70_000;
/// Extra host CPU time for the Stock-Level nested-loop join.
pub const CPU_JOIN_NS: u64 = 1_400_000;

/// Scale parameters (the paper: 10 warehouses via DBT2).
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs, reason = "scale knobs are named after what they size")]
pub struct TpccScale {
    pub warehouses: i64,
    pub districts_per_warehouse: i64,
    pub customers_per_district: i64,
    pub items: i64,
    /// Orders pre-loaded per district (one third stay undelivered).
    pub initial_orders: i64,
}

impl Default for TpccScale {
    fn default() -> Self {
        TpccScale {
            warehouses: 2,
            districts_per_warehouse: 10,
            customers_per_district: 30,
            items: 1_000,
            initial_orders: 30,
        }
    }
}

impl TpccScale {
    fn d_key(&self, w: i64, d: i64) -> i64 {
        w * 100 + d
    }
    fn c_key(&self, w: i64, d: i64, c: i64) -> i64 {
        self.d_key(w, d) * 100_000 + c
    }
    fn o_key(&self, w: i64, d: i64, o: i64) -> i64 {
        self.d_key(w, d) * 10_000_000 + o
    }
    fn s_key(&self, w: i64, i: i64) -> i64 {
        w * 1_000_000 + i
    }
}

/// Transaction-type percentages (Table 3 rows).
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs, reason = "fields are Table 3's transaction types")]
pub struct TpccMix {
    pub delivery: u8,
    pub order_status: u8,
    pub payment: u8,
    pub stock_level: u8,
    pub new_order: u8,
}

/// Table 3: write-intensive.
pub const WRITE_INTENSIVE: TpccMix = TpccMix {
    delivery: 4,
    order_status: 4,
    payment: 43,
    stock_level: 4,
    new_order: 45,
};
/// Table 3: read-intensive.
pub const READ_INTENSIVE: TpccMix = TpccMix {
    delivery: 0,
    order_status: 50,
    payment: 0,
    stock_level: 45,
    new_order: 5,
};
/// Table 3: selection-only (100 % Order-Status).
pub const SELECTION_ONLY: TpccMix = TpccMix {
    delivery: 0,
    order_status: 100,
    payment: 0,
    stock_level: 0,
    new_order: 0,
};
/// Table 3: join-only (100 % Stock-Level).
pub const JOIN_ONLY: TpccMix = TpccMix {
    delivery: 0,
    order_status: 0,
    payment: 0,
    stock_level: 100,
    new_order: 0,
};

/// Creates the TPC-C schema and loads the initial population.
pub fn load<D: BlockDevice>(db: &mut Connection<D>, scale: &TpccScale, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for ddl in [
        "CREATE TABLE warehouse (w_id INTEGER PRIMARY KEY, w_name TEXT, w_ytd REAL)",
        "CREATE TABLE district (d_key INTEGER PRIMARY KEY, d_w_id INT, d_id INT, \
         d_ytd REAL, d_next_o_id INT)",
        "CREATE TABLE customer (c_key INTEGER PRIMARY KEY, c_w_id INT, c_d_id INT, c_id INT, \
         c_balance REAL, c_ytd_payment REAL, c_payment_cnt INT, c_data TEXT)",
        "CREATE TABLE history (h_id INTEGER PRIMARY KEY, h_c_key INT, h_amount REAL, h_data TEXT)",
        "CREATE TABLE orders (o_key INTEGER PRIMARY KEY, o_d_key INT, o_c_key INT, \
         o_carrier_id INT, o_ol_cnt INT)",
        "CREATE INDEX ix_orders_cust ON orders (o_c_key)",
        "CREATE TABLE new_order (no_o_key INTEGER PRIMARY KEY)",
        "CREATE TABLE order_line (ol_key INTEGER PRIMARY KEY, ol_o_key INT, ol_i_id INT, \
         ol_qty INT, ol_amount REAL, ol_dist_info TEXT)",
        "CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_name TEXT, i_price REAL)",
        "CREATE TABLE stock (s_key INTEGER PRIMARY KEY, s_w_id INT, s_i_id INT, \
         s_quantity INT, s_ytd INT, s_order_cnt INT)",
    ] {
        db.execute(ddl).expect("tpcc ddl");
    }
    // Items.
    db.execute("BEGIN").expect("begin");
    for i in 1..=scale.items {
        db.execute_with(
            "INSERT INTO item VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Text(format!("item-{i}")),
                Value::Real(rng.gen_range(1.0..100.0)),
            ],
        )
        .expect("item");
        if i % 500 == 0 {
            db.execute("COMMIT").expect("commit");
            db.execute("BEGIN").expect("begin");
        }
    }
    db.execute("COMMIT").expect("commit");
    for w in 1..=scale.warehouses {
        db.execute("BEGIN").expect("begin");
        db.execute_with(
            "INSERT INTO warehouse VALUES (?, ?, 0.0)",
            &[Value::Int(w), Value::Text(format!("wh-{w}"))],
        )
        .expect("warehouse");
        for i in 1..=scale.items {
            db.execute_with(
                "INSERT INTO stock VALUES (?, ?, ?, ?, 0, 0)",
                &[
                    Value::Int(scale.s_key(w, i)),
                    Value::Int(w),
                    Value::Int(i),
                    Value::Int(rng.gen_range(10..100)),
                ],
            )
            .expect("stock");
            if i % 500 == 0 {
                db.execute("COMMIT").expect("commit");
                db.execute("BEGIN").expect("begin");
            }
        }
        db.execute("COMMIT").expect("commit");
        for d in 1..=scale.districts_per_warehouse {
            db.execute("BEGIN").expect("begin");
            db.execute_with(
                "INSERT INTO district VALUES (?, ?, ?, 0.0, ?)",
                &[
                    Value::Int(scale.d_key(w, d)),
                    Value::Int(w),
                    Value::Int(d),
                    Value::Int(scale.initial_orders + 1),
                ],
            )
            .expect("district");
            for c in 1..=scale.customers_per_district {
                db.execute_with(
                    "INSERT INTO customer VALUES (?, ?, ?, ?, 0.0, 0.0, 0, ?)",
                    &[
                        Value::Int(scale.c_key(w, d, c)),
                        Value::Int(w),
                        Value::Int(d),
                        Value::Int(c),
                        Value::Text("customer-data".into()),
                    ],
                )
                .expect("customer");
            }
            // Initial orders; the last third are undelivered (new_order).
            for o in 1..=scale.initial_orders {
                let c = rng.gen_range(1..=scale.customers_per_district);
                let ol_cnt = rng.gen_range(5..=15i64);
                let okey = scale.o_key(w, d, o);
                db.execute_with(
                    "INSERT INTO orders VALUES (?, ?, ?, ?, ?)",
                    &[
                        Value::Int(okey),
                        Value::Int(scale.d_key(w, d)),
                        Value::Int(scale.c_key(w, d, c)),
                        if o <= scale.initial_orders * 2 / 3 {
                            Value::Int(rng.gen_range(1..=10))
                        } else {
                            Value::Null
                        },
                        Value::Int(ol_cnt),
                    ],
                )
                .expect("order");
                if o > scale.initial_orders * 2 / 3 {
                    db.execute_with("INSERT INTO new_order VALUES (?)", &[Value::Int(okey)])
                        .expect("new_order");
                }
                for l in 1..=ol_cnt {
                    let i = rng.gen_range(1..=scale.items);
                    db.execute_with(
                        "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, 'dist-info')",
                        &[
                            Value::Int(okey * 100 + l),
                            Value::Int(okey),
                            Value::Int(i),
                            Value::Int(rng.gen_range(1..=10)),
                            Value::Real(rng.gen_range(1.0..100.0)),
                        ],
                    )
                    .expect("order_line");
                }
            }
            db.execute("COMMIT").expect("commit");
        }
    }
}

/// One driver holding per-district order counters.
pub struct TpccDriver {
    scale: TpccScale,
    rng: StdRng,
    /// Next order id per (warehouse, district).
    next_o_id: Vec<i64>,
    /// Oldest undelivered order per (warehouse, district).
    oldest_undelivered: Vec<i64>,
    /// Shared clock, charged [`CPU_STMT_NS`] per statement.
    clock: Option<SimClock>,
}

impl TpccDriver {
    /// Builds a driver for a freshly-loaded database.
    pub fn new(scale: TpccScale, seed: u64) -> Self {
        let slots = (scale.warehouses * scale.districts_per_warehouse) as usize;
        TpccDriver {
            rng: StdRng::seed_from_u64(seed),
            next_o_id: vec![scale.initial_orders + 1; slots],
            oldest_undelivered: vec![scale.initial_orders * 2 / 3 + 1; slots],
            scale,
            clock: None,
        }
    }

    /// Attaches the clock used for host-CPU accounting.
    pub fn with_clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    fn cpu(&self, statements: u64) {
        if let Some(c) = &self.clock {
            c.advance(statements * CPU_STMT_NS);
        }
    }

    fn cpu_join(&self) {
        if let Some(c) = &self.clock {
            c.advance(CPU_JOIN_NS);
        }
    }

    fn slot(&self, w: i64, d: i64) -> usize {
        ((w - 1) * self.scale.districts_per_warehouse + (d - 1)) as usize
    }

    fn pick_wd(&mut self) -> (i64, i64) {
        (
            self.rng.gen_range(1..=self.scale.warehouses),
            self.rng.gen_range(1..=self.scale.districts_per_warehouse),
        )
    }

    /// New-Order: the tpmC metric transaction.
    pub fn new_order<D: BlockDevice>(&mut self, db: &mut Connection<D>) {
        self.cpu(3);
        let (w, d) = self.pick_wd();
        let c = self.rng.gen_range(1..=self.scale.customers_per_district);
        let sc = self.scale;
        db.execute("BEGIN").expect("begin");
        let slot = self.slot(w, d);
        let o_id = self.next_o_id[slot];
        self.next_o_id[slot] += 1;
        db.execute_with(
            "UPDATE district SET d_next_o_id = ? WHERE d_key = ?",
            &[Value::Int(o_id + 1), Value::Int(sc.d_key(w, d))],
        )
        .expect("district bump");
        let okey = sc.o_key(w, d, o_id);
        let ol_cnt = self.rng.gen_range(5..=15i64);
        db.execute_with(
            "INSERT INTO orders VALUES (?, ?, ?, NULL, ?)",
            &[
                Value::Int(okey),
                Value::Int(sc.d_key(w, d)),
                Value::Int(sc.c_key(w, d, c)),
                Value::Int(ol_cnt),
            ],
        )
        .expect("order insert");
        db.execute_with("INSERT INTO new_order VALUES (?)", &[Value::Int(okey)])
            .expect("new_order insert");
        self.cpu(4 * ol_cnt as u64);
        for l in 1..=ol_cnt {
            let i = self.rng.gen_range(1..=sc.items);
            let price = db
                .query_with("SELECT i_price FROM item WHERE i_id = ?", &[Value::Int(i)])
                .expect("item read")[0][0]
                .as_f64()
                .expect("price");
            let skey = sc.s_key(w, i);
            let qty_rows = db
                .query_with(
                    "SELECT s_quantity FROM stock WHERE s_key = ?",
                    &[Value::Int(skey)],
                )
                .expect("stock read");
            let qty = qty_rows[0][0].as_i64().expect("qty");
            let order_qty = self.rng.gen_range(1..=10i64);
            let new_qty = if qty - order_qty >= 10 {
                qty - order_qty
            } else {
                qty - order_qty + 91
            };
            db.execute_with(
                "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, \
                 s_order_cnt = s_order_cnt + 1 WHERE s_key = ?",
                &[Value::Int(new_qty), Value::Int(order_qty), Value::Int(skey)],
            )
            .expect("stock update");
            db.execute_with(
                "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, 'dist-info')",
                &[
                    Value::Int(okey * 100 + l),
                    Value::Int(okey),
                    Value::Int(i),
                    Value::Int(order_qty),
                    Value::Real(price * order_qty as f64),
                ],
            )
            .expect("order_line insert");
        }
        db.execute("COMMIT").expect("commit");
    }

    /// Payment.
    pub fn payment<D: BlockDevice>(&mut self, db: &mut Connection<D>) {
        self.cpu(6);
        let (w, d) = self.pick_wd();
        let c = self.rng.gen_range(1..=self.scale.customers_per_district);
        let amount = self.rng.gen_range(1.0..5_000.0);
        let sc = self.scale;
        db.execute("BEGIN").expect("begin");
        db.execute_with(
            "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
            &[Value::Real(amount), Value::Int(w)],
        )
        .expect("warehouse update");
        db.execute_with(
            "UPDATE district SET d_ytd = d_ytd + ? WHERE d_key = ?",
            &[Value::Real(amount), Value::Int(sc.d_key(w, d))],
        )
        .expect("district update");
        db.execute_with(
            "UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, \
             c_payment_cnt = c_payment_cnt + 1 WHERE c_key = ?",
            &[
                Value::Real(amount),
                Value::Real(amount),
                Value::Int(sc.c_key(w, d, c)),
            ],
        )
        .expect("customer update");
        db.execute_with(
            "INSERT INTO history (h_c_key, h_amount, h_data) VALUES (?, ?, 'payment')",
            &[Value::Int(sc.c_key(w, d, c)), Value::Real(amount)],
        )
        .expect("history insert");
        db.execute("COMMIT").expect("commit");
    }

    /// Order-Status (read-only selection).
    pub fn order_status<D: BlockDevice>(&mut self, db: &mut Connection<D>) {
        self.cpu(3);
        let (w, d) = self.pick_wd();
        let c = self.rng.gen_range(1..=self.scale.customers_per_district);
        let ckey = self.scale.c_key(w, d, c);
        db.query_with(
            "SELECT c_balance, c_payment_cnt FROM customer WHERE c_key = ?",
            &[Value::Int(ckey)],
        )
        .expect("customer read");
        let last = db
            .query_with(
                "SELECT MAX(o_key) FROM orders WHERE o_c_key = ?",
                &[Value::Int(ckey)],
            )
            .expect("last order");
        if let Some(okey) = last.first().and_then(|r| r[0].as_i64()) {
            db.query_with(
                "SELECT ol_i_id, ol_qty, ol_amount FROM order_line \
                 WHERE ol_key >= ? AND ol_key <= ?",
                &[Value::Int(okey * 100), Value::Int(okey * 100 + 99)],
            )
            .expect("order lines");
        }
    }

    /// Delivery: delivers the oldest undelivered order of each district.
    pub fn delivery<D: BlockDevice>(&mut self, db: &mut Connection<D>) {
        self.cpu(5 * self.scale.districts_per_warehouse as u64 + 2);
        let w = self.rng.gen_range(1..=self.scale.warehouses);
        let carrier = self.rng.gen_range(1..=10i64);
        let sc = self.scale;
        db.execute("BEGIN").expect("begin");
        for d in 1..=sc.districts_per_warehouse {
            let slot = self.slot(w, d);
            let o_id = self.oldest_undelivered[slot];
            if o_id >= self.next_o_id[slot] {
                continue; // nothing undelivered in this district
            }
            self.oldest_undelivered[slot] += 1;
            let okey = sc.o_key(w, d, o_id);
            let deleted = db
                .execute_with(
                    "DELETE FROM new_order WHERE no_o_key = ?",
                    &[Value::Int(okey)],
                )
                .expect("new_order delete")
                .affected();
            if deleted == 0 {
                continue;
            }
            db.execute_with(
                "UPDATE orders SET o_carrier_id = ? WHERE o_key = ?",
                &[Value::Int(carrier), Value::Int(okey)],
            )
            .expect("order update");
            let total = db
                .query_with(
                    "SELECT SUM(ol_amount) FROM order_line WHERE ol_key >= ? AND ol_key <= ?",
                    &[Value::Int(okey * 100), Value::Int(okey * 100 + 99)],
                )
                .expect("sum lines")[0][0]
                .as_f64()
                .unwrap_or(0.0);
            let ckey = db
                .query_with(
                    "SELECT o_c_key FROM orders WHERE o_key = ?",
                    &[Value::Int(okey)],
                )
                .expect("order read")[0][0]
                .as_i64()
                .expect("customer key");
            db.execute_with(
                "UPDATE customer SET c_balance = c_balance + ? WHERE c_key = ?",
                &[Value::Real(total), Value::Int(ckey)],
            )
            .expect("customer credit");
        }
        db.execute("COMMIT").expect("commit");
    }

    /// Stock-Level (the join transaction).
    pub fn stock_level<D: BlockDevice>(&mut self, db: &mut Connection<D>) {
        self.cpu(1);
        self.cpu_join();
        let (w, d) = self.pick_wd();
        let threshold = self.rng.gen_range(10..=20i64);
        let next = self.next_o_id[self.slot(w, d)];
        let from = (next - 20).max(1);
        let lo = self.scale.o_key(w, d, from) * 100;
        let hi = self.scale.o_key(w, d, next) * 100;
        db.query_with(
            "SELECT COUNT(DISTINCT ol.ol_i_id) FROM order_line ol \
             JOIN stock s ON ol.ol_i_id = s.s_i_id \
             WHERE ol.ol_key >= ? AND ol.ol_key < ? AND s.s_w_id = ? AND s.s_quantity < ?",
            &[
                Value::Int(lo),
                Value::Int(hi),
                Value::Int(w),
                Value::Int(threshold),
            ],
        )
        .expect("stock level join");
    }

    /// Runs one transaction drawn from the mix.
    pub fn run_one<D: BlockDevice>(&mut self, db: &mut Connection<D>, mix: &TpccMix) {
        let p = self.rng.gen_range(0..100u32);
        let d = mix.delivery as u32;
        let os = d + mix.order_status as u32;
        let pay = os + mix.payment as u32;
        let sl = pay + mix.stock_level as u32;
        if p < d {
            self.delivery(db);
        } else if p < os {
            self.order_status(db);
        } else if p < pay {
            self.payment(db);
        } else if p < sl {
            self.stock_level(db);
        } else {
            self.new_order(db);
        }
    }
}

/// Result of one mix run.
#[derive(Debug, Clone, Copy)]
#[allow(
    missing_docs,
    reason = "fields are named after the quantities they hold"
)]
pub struct TpccResult {
    pub txns: usize,
    pub elapsed_ns: u64,
    /// Transactions per simulated minute (the paper's Table 4 metric).
    pub tpm: f64,
}

/// Runs `txns` transactions of the given mix, returning throughput in
/// transactions per simulated minute.
pub fn run_mix<D: BlockDevice>(
    db: &mut Connection<D>,
    clock: &xftl_flash::SimClock,
    driver: &mut TpccDriver,
    mix: &TpccMix,
    txns: usize,
) -> TpccResult {
    let t0 = clock.now();
    for _ in 0..txns {
        driver.run_one(db, mix);
    }
    let elapsed_ns = clock.now() - t0;
    let minutes = elapsed_ns as f64 / (60.0 * SECOND as f64);
    TpccResult {
        txns,
        elapsed_ns,
        tpm: txns as f64 / minutes.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{Mode, Rig, RigConfig};

    fn tiny_scale() -> TpccScale {
        TpccScale {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 5,
            items: 50,
            initial_orders: 6,
        }
    }

    fn rig_cfg(mode: Mode) -> RigConfig {
        RigConfig {
            blocks: 96,
            logical_pages: 8_000,
            ..RigConfig::small(mode)
        }
    }

    #[test]
    fn mixes_sum_to_100() {
        for m in [WRITE_INTENSIVE, READ_INTENSIVE, SELECTION_ONLY, JOIN_ONLY] {
            assert_eq!(
                m.delivery as u32
                    + m.order_status as u32
                    + m.payment as u32
                    + m.stock_level as u32
                    + m.new_order as u32,
                100
            );
        }
    }

    #[test]
    fn loads_and_runs_every_transaction_type() {
        let rig = Rig::build(rig_cfg(Mode::XFtl));
        let mut db = rig.open_db("tpcc.db");
        let scale = tiny_scale();
        load(&mut db, &scale, 3);
        let mut driver = TpccDriver::new(scale, 4);
        driver.new_order(&mut db);
        driver.payment(&mut db);
        driver.order_status(&mut db);
        driver.delivery(&mut db);
        driver.stock_level(&mut db);
        // Consistency spot-checks.
        let orders = db.query("SELECT COUNT(*) FROM orders").unwrap()[0][0]
            .as_i64()
            .unwrap();
        assert!(orders > scale.initial_orders * 2, "orders grew");
        let hist = db.query("SELECT COUNT(*) FROM history").unwrap()[0][0]
            .as_i64()
            .unwrap();
        assert_eq!(hist, 1, "one payment recorded");
    }

    #[test]
    fn new_order_preserves_order_line_counts() {
        let rig = Rig::build(rig_cfg(Mode::Wal));
        let mut db = rig.open_db("tpcc.db");
        let scale = tiny_scale();
        load(&mut db, &scale, 5);
        let before = db.query("SELECT COUNT(*) FROM order_line").unwrap()[0][0]
            .as_i64()
            .unwrap();
        let mut driver = TpccDriver::new(scale, 6);
        driver.new_order(&mut db);
        let after = db.query("SELECT COUNT(*) FROM order_line").unwrap()[0][0]
            .as_i64()
            .unwrap();
        let cnt = db
            .query("SELECT o_ol_cnt FROM orders ORDER BY o_key DESC LIMIT 1")
            .unwrap()[0][0]
            .as_i64()
            .unwrap();
        assert_eq!(after - before, cnt, "order_line rows match o_ol_cnt");
    }

    #[test]
    fn mix_run_reports_throughput() {
        let rig = Rig::build(rig_cfg(Mode::XFtl));
        let mut db = rig.open_db("tpcc.db");
        let scale = tiny_scale();
        load(&mut db, &scale, 7);
        let mut driver = TpccDriver::new(scale, 8);
        let r = run_mix(&mut db, &rig.clock, &mut driver, &WRITE_INTENSIVE, 20);
        assert_eq!(r.txns, 20);
        assert!(r.tpm > 0.0);
    }

    #[test]
    fn read_mixes_write_nothing() {
        let rig = Rig::build(rig_cfg(Mode::Wal));
        let mut db = rig.open_db("tpcc.db");
        let scale = tiny_scale();
        load(&mut db, &scale, 9);
        db.reset_stats();
        let mut driver = TpccDriver::new(scale, 10);
        run_mix(&mut db, &rig.clock, &mut driver, &SELECTION_ONLY, 10);
        run_mix(&mut db, &rig.clock, &mut driver, &JOIN_ONLY, 10);
        assert_eq!(db.pager_stats().db_writes, 0);
        assert_eq!(db.pager_stats().journal_writes, 0);
        assert_eq!(db.pager_stats().fsyncs, 0);
    }
}
