//! Golden database-file image: a fixed schedule — TPC-C load at the
//! `perf` scale, 300 seeded transactions of the write-intensive mix, a
//! blob table that spills to overflow chains, and a mass delete that
//! merges leaves and collapses roots — must leave a database file whose
//! per-page hash list equals `tests/golden/file_image.txt`, in journal
//! modes `Off` and `Wal` alike.
//!
//! The on-page B-tree format, the split points, the merge thresholds and
//! the freelist order all feed the image, so a B-tree change that moves
//! any byte of any page shows up here as the first differing page. To
//! bless an intended format change:
//!
//! ```text
//! XFTL_BLESS_GOLDEN=1 cargo test --test file_image
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_db::Value;
use xftl_workloads::rig::{Mode, Rig, RigConfig};
use xftl_workloads::tpcc::{self, TpccDriver, TpccScale, WRITE_INTENSIVE};

const GOLDEN: &str = "tests/golden/file_image.txt";
const DB_NAME: &str = "image.db";

/// The `oltp-*` scale of `perf`.
const SCALE: TpccScale = TpccScale {
    warehouses: 1,
    districts_per_warehouse: 10,
    customers_per_district: 30,
    items: 200,
    initial_orders: 30,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the schedule and returns one `page-number hash` line per page of
/// the database file.
fn file_image(mode: Mode) -> String {
    let rig = Rig::build(RigConfig {
        blocks: 96,
        logical_pages: 8_000,
        ..RigConfig::small(mode)
    });
    let mut db = rig.open_db(DB_NAME);
    tpcc::load(&mut db, &SCALE, 1234);
    let mut driver = TpccDriver::new(SCALE, 7);
    tpcc::run_mix(&mut db, &rig.clock, &mut driver, &WRITE_INTENSIVE, 300);

    // Overflow chains: bodies from in-page to several pages, some
    // replaced (the old chain is freed, the new one reuses its pages).
    let mut rng = StdRng::seed_from_u64(99);
    db.execute("CREATE TABLE blobs (id INTEGER PRIMARY KEY, tag INT, body BLOB)")
        .unwrap();
    db.execute("CREATE INDEX ix_blobs_tag ON blobs (tag)")
        .unwrap();
    db.execute("BEGIN").unwrap();
    for id in 1..=40i64 {
        let len = rng.gen_range(100..30_000usize);
        let body: Vec<u8> = (0..len)
            .map(|i| (i as u64 * 31 + id as u64) as u8)
            .collect();
        db.execute_with(
            "INSERT INTO blobs VALUES (?, ?, ?)",
            &[Value::Int(id), Value::Int(id % 7), Value::Blob(body)],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();
    db.execute("BEGIN").unwrap();
    for id in (1..=40i64).step_by(3) {
        let len = rng.gen_range(100..20_000usize);
        db.execute_with(
            "INSERT OR REPLACE INTO blobs VALUES (?, ?, ?)",
            &[
                Value::Int(id),
                Value::Int(id % 5),
                Value::Blob(vec![id as u8; len]),
            ],
        )
        .unwrap();
    }
    db.execute("DELETE FROM blobs WHERE tag = 2").unwrap();
    db.execute("COMMIT").unwrap();

    // Leaf merges and root collapse, table and index tree alike: fill
    // several levels, delete a scattered 95 %, refill part, empty it.
    db.execute("CREATE TABLE bulk (id INTEGER PRIMARY KEY, k INT, pad TEXT)")
        .unwrap();
    db.execute("CREATE INDEX ix_bulk_k ON bulk (k)").unwrap();
    db.execute("BEGIN").unwrap();
    for id in 0..6_000i64 {
        db.execute_with(
            "INSERT INTO bulk VALUES (?, ?, ?)",
            &[
                Value::Int(id),
                Value::Int((id * 7919) % 6_000),
                Value::Text(format!("pad-{id:05}-{}", "x".repeat((id % 40) as usize))),
            ],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();
    db.execute("BEGIN").unwrap();
    for id in 0..6_000i64 {
        if id % 20 != 0 {
            db.execute_with("DELETE FROM bulk WHERE id = ?", &[Value::Int(id)])
                .unwrap();
        }
    }
    db.execute("COMMIT").unwrap();
    db.execute("BEGIN").unwrap();
    for id in 10_000..11_000i64 {
        db.execute_with(
            "INSERT INTO bulk VALUES (?, ?, 'refill')",
            &[Value::Int(id), Value::Int(id % 13)],
        )
        .unwrap();
    }
    db.execute("UPDATE bulk SET k = k + 100000 WHERE id >= 10500")
        .unwrap();
    db.execute("COMMIT").unwrap();
    db.execute("DELETE FROM bulk WHERE id < 10900").unwrap();
    db.execute("DROP TABLE history").unwrap();

    // WAL mode keeps the newest pages in the log until a checkpoint.
    db.checkpoint().unwrap();
    drop(db);

    let mut fs = rig.fs.borrow_mut();
    let ino = fs.open(DB_NAME).unwrap();
    let page_size = fs.page_size();
    let pages = fs.size(ino).unwrap() / page_size as u64;
    let mut out = String::new();
    let mut buf = vec![0u8; page_size];
    for pgno in 0..pages {
        fs.read(ino, pgno * page_size as u64, &mut buf, None)
            .unwrap();
        out.push_str(&format!("{pgno} {:016x}\n", fnv1a(&buf)));
    }
    out
}

#[test]
fn database_file_image_matches_golden_in_off_and_wal_mode() {
    let off = file_image(Mode::XFtl);
    let wal = file_image(Mode::Wal);
    assert!(off.lines().count() > 100, "schedule too small to pin much");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("XFTL_BLESS_GOLDEN").is_some() {
        std::fs::write(&golden_path, &off).unwrap();
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN}: {e}\nbless it with: XFTL_BLESS_GOLDEN=1 cargo test --test file_image")
    });
    for (mode, got) in [("Off", &off), ("Wal", &wal)] {
        if *got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            panic!(
                "{mode}-mode file image diverges from {GOLDEN} at page {line} \
                 ({} got vs {} golden pages)\n got: {}\nwant: {}",
                got.lines().count(),
                want.lines().count(),
                got.lines().nth(line).unwrap_or("<eof>"),
                want.lines().nth(line).unwrap_or("<eof>"),
            );
        }
    }
}
