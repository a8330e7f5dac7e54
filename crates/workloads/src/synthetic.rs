//! The paper's synthetic workload (§6.2): a TPC-H `partsupp`-style table
//! of 60,000 tuples of 220 bytes; each transaction reads a fixed number of
//! tuples at random keys, updates their `supplycost`, and commits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_db::{Connection, DbError, Value};
use xftl_ftl::BlockDevice;

/// Host CPU time charged per SQL statement (see `tpcc::CPU_STMT_NS`).
const CPU_STMT_NS: u64 = 70_000;

/// Synthetic workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Rows in the partsupp table (paper: 60,000).
    pub tuples: usize,
    /// Bytes per tuple including the comment filler (paper: 220).
    pub tuple_bytes: usize,
    /// Tuples read + updated per transaction (Figure 5 sweeps 1..20).
    pub updates_per_txn: usize,
    /// Transactions to run (paper: 1,000 per configuration).
    pub txns: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            tuples: 60_000,
            tuple_bytes: 220,
            updates_per_txn: 5,
            txns: 1_000,
            seed: 7,
        }
    }
}

/// Creates and populates the partsupp table.
///
/// # Errors
/// Propagates database errors — in particular the typed end-of-life
/// refusals ([`DbError::ReadOnly`], device `OutOfSpace`) a fault-heavy
/// environment can produce mid-load.
pub fn load_partsupply<D: BlockDevice>(
    db: &mut Connection<D>,
    cfg: &SyntheticConfig,
) -> xftl_db::Result<()> {
    db.execute(
        "CREATE TABLE partsupp (ps_id INTEGER PRIMARY KEY, ps_partkey INT, \
         ps_suppkey INT, ps_supplycost REAL, ps_comment TEXT)",
    )?;
    // Fixed fields take ~40 bytes in record form; the comment pads the
    // tuple to the configured width.
    let comment_len = cfg.tuple_bytes.saturating_sub(40);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let comment: String = (0..comment_len)
        .map(|i| (b'a' + (i % 26) as u8) as char)
        .collect();
    // Bulk-load in batches inside explicit transactions so population does
    // not dominate the measured run.
    let batch = 500;
    let mut i = 0usize;
    while i < cfg.tuples {
        db.execute("BEGIN")?;
        for _ in 0..batch.min(cfg.tuples - i) {
            db.execute_with(
                "INSERT INTO partsupp VALUES (?, ?, ?, ?, ?)",
                &[
                    Value::Int(i as i64 + 1),
                    Value::Int((i % 20_000) as i64 + 1),
                    Value::Int(rng.gen_range(1..=1_000)),
                    Value::Real(rng.gen_range(1.0..1_000.0)),
                    Value::Text(comment.clone()),
                ],
            )?;
            i += 1;
        }
        db.execute("COMMIT")?;
    }
    Ok(())
}

/// Outcome of a synthetic run.
#[derive(Debug, Clone, Copy)]
#[allow(
    missing_docs,
    reason = "fields are named after the quantities they hold"
)]
pub struct SyntheticResult {
    /// Simulated execution time of the transaction phase, nanoseconds.
    pub elapsed_ns: u64,
    pub txns: usize,
}

/// Runs the transaction phase: `txns` transactions of
/// `updates_per_txn` read-modify-write operations each.
///
/// # Errors
/// Propagates database errors so harnesses can report a device that died
/// mid-run (end-of-life `ReadOnly`, pool `OutOfSpace`) as a typed result
/// instead of a panic.
pub fn run_transactions<D: BlockDevice>(
    db: &mut Connection<D>,
    rig_clock: &xftl_flash::SimClock,
    cfg: &SyntheticConfig,
) -> xftl_db::Result<SyntheticResult> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEAD_BEEF);
    let t0 = rig_clock.now();
    for _ in 0..cfg.txns {
        rig_clock.advance((2 + 2 * cfg.updates_per_txn as u64) * CPU_STMT_NS);
        db.execute("BEGIN")?;
        for _ in 0..cfg.updates_per_txn {
            let key = rng.gen_range(1..=cfg.tuples as i64);
            let rows = db.query_with(
                "SELECT ps_supplycost FROM partsupp WHERE ps_id = ?",
                &[Value::Int(key)],
            )?;
            let cost = rows
                .first()
                .and_then(|r| r[0].as_f64())
                .ok_or(DbError::Corrupt("partsupp tuple missing"))?;
            db.execute_with(
                "UPDATE partsupp SET ps_supplycost = ? WHERE ps_id = ?",
                &[Value::Real((cost + 1.0) % 1_000.0), Value::Int(key)],
            )?;
        }
        db.execute("COMMIT")?;
    }
    Ok(SyntheticResult {
        elapsed_ns: rig_clock.now() - t0,
        txns: cfg.txns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{Mode, Rig, RigConfig};

    fn tiny_cfg() -> SyntheticConfig {
        SyntheticConfig {
            tuples: 400,
            tuple_bytes: 220,
            updates_per_txn: 3,
            txns: 20,
            seed: 1,
        }
    }

    #[test]
    fn loads_and_updates() {
        let rig = Rig::build(RigConfig::small(Mode::XFtl));
        let mut db = rig.open_db("s.db");
        let cfg = tiny_cfg();
        load_partsupply(&mut db, &cfg).unwrap();
        let rows = db.query("SELECT COUNT(*) FROM partsupp").unwrap();
        assert_eq!(rows[0][0], Value::Int(400));
        let r = run_transactions(&mut db, &rig.clock, &cfg).unwrap();
        assert_eq!(r.txns, 20);
        assert!(r.elapsed_ns > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let elapsed = |(): ()| {
            let rig = Rig::build(RigConfig::small(Mode::Wal));
            let mut db = rig.open_db("s.db");
            let cfg = tiny_cfg();
            load_partsupply(&mut db, &cfg).unwrap();
            run_transactions(&mut db, &rig.clock, &cfg)
                .unwrap()
                .elapsed_ns
        };
        assert_eq!(elapsed(()), elapsed(()), "simulation must be deterministic");
    }

    #[test]
    fn tuple_width_close_to_target() {
        // 220-byte tuples: ~35 rows per 8 KB page, as the paper's layout
        // implies. Verify the record is in the right ballpark.
        let rig = Rig::build(RigConfig::small(Mode::Rbj));
        let mut db = rig.open_db("s.db");
        let cfg = SyntheticConfig {
            tuples: 10,
            ..tiny_cfg()
        };
        load_partsupply(&mut db, &cfg).unwrap();
        let rows = db
            .query("SELECT ps_comment FROM partsupp WHERE ps_id = 1")
            .unwrap();
        if let Value::Text(c) = &rows[0][0] {
            assert!(c.len() >= 170 && c.len() <= 220);
        } else {
            panic!("comment missing");
        }
    }
}
