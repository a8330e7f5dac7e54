//! Crash torture: round after round, commit a batch of inserts, leave a
//! second transaction open over a random number of updates, and power the
//! (simulated) device off between statements (`Rig::crash_and_recover`);
//! then verify that the database holds exactly the committed prefix — the
//! paper's §5.4 guarantees, exercised hundreds of times. No flash
//! operation is cut part way: the every-cut sweeps of
//! `tests/crash_matrix.rs` arm the power fuse inside them.
//!
//! ```sh
//! cargo run --release --example crash_torture [rounds]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use xftl_db::Value;
use xftl_workloads::rig::{Mode, Rig, RigConfig};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for mode in [Mode::Rbj, Mode::Wal, Mode::XFtl] {
        let mut rig = Rig::build(RigConfig {
            blocks: 80,
            logical_pages: 6_000,
            ..RigConfig::small(mode)
        });
        {
            let mut db = rig.open_db("torture.db");
            db.execute("CREATE TABLE log (id INTEGER PRIMARY KEY, v INT)")
                .unwrap();
        }
        let mut committed: i64 = 0;
        let mut survived = 0usize;
        for round in 0..rounds {
            {
                let mut db = rig.open_db("torture.db");
                // Commit a batch...
                let n = rng.gen_range(1..=5);
                db.execute("BEGIN").unwrap();
                for _ in 0..n {
                    committed += 1;
                    db.execute_with(
                        "INSERT INTO log VALUES (?, ?)",
                        &[Value::Int(committed), Value::Int(round as i64)],
                    )
                    .unwrap();
                }
                db.execute("COMMIT").unwrap();
                // ...then crash mid-way through an uncommitted one.
                db.execute("BEGIN").unwrap();
                for k in 0..rng.gen_range(1..=8) {
                    db.execute_with(
                        "UPDATE log SET v = -1 WHERE id = ?",
                        &[Value::Int((k % committed) + 1)],
                    )
                    .unwrap();
                }
                // power cut: no COMMIT, everything dropped
            }
            let (recovered, recovery) = rig.crash_and_recover();
            rig = recovered;
            let mut db = rig.open_db("torture.db");
            let rows = db
                .query("SELECT COUNT(*), MIN(v), MAX(id) FROM log")
                .unwrap();
            let count = rows[0][0].as_i64().unwrap();
            let min_v = rows[0][1].as_i64().unwrap();
            let max_id = rows[0][2].as_i64().unwrap();
            assert_eq!(
                count, committed,
                "{mode:?} round {round}: lost committed rows"
            );
            assert_eq!(
                max_id, committed,
                "{mode:?} round {round}: wrong id high-water"
            );
            assert!(
                min_v >= 0,
                "{mode:?} round {round}: uncommitted update leaked"
            );
            survived += 1;
            if round == 0 {
                let r = recovery;
                let total_ns = r.root_ns + r.scan_ns + r.load_ns + r.replay_ns + r.checkpoint_ns;
                println!(
                    "{:>6}: first recovery took {:.2} ms simulated",
                    mode.label(),
                    total_ns as f64 / 1e6
                );
            }
        }
        println!(
            "{:>6}: {survived}/{rounds} crash/recover rounds passed, {} rows intact",
            mode.label(),
            committed
        );
    }
    println!("\nAll modes preserved exactly the committed prefix after every crash.");
}
