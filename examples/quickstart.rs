//! Quickstart: the X-FTL stack from bare flash to SQL, in one file.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: a panic on a setup failure is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use std::cell::RefCell;
use std::rc::Rc;

use xftl_core::XFtl;
use xftl_db::{Connection, DbJournalMode, Value};
use xftl_flash::{FlashChip, FlashConfigBuilder, SimClock};
use xftl_fs::{FileSystem, FsConfig, JournalMode};
use xftl_ftl::{BlockDevice, TxBlockDevice};

fn main() {
    // 1. A simulated OpenSSD-class flash array (8 KB pages, 128 pages per
    //    block, one channel) sharing one simulated clock with everything
    //    above it. Try `.channels(4)` to watch the total time drop.
    let clock = SimClock::new();
    let chip = FlashChip::new(
        FlashConfigBuilder::openssd().blocks(64).build(),
        clock.clone(),
    );

    // 2. X-FTL: the transactional flash translation layer.
    let mut dev = XFtl::format(chip, 5_000).expect("format");

    // --- the raw device-level API (the paper's extended SATA commands) ---
    let old = vec![1u8; dev.page_size()];
    let new = vec![2u8; dev.page_size()];
    dev.write(0, &old).unwrap();

    // Transaction 42 updates page 0 out of place...
    dev.write_tx(42, 0, &new).unwrap();
    let mut buf = vec![0u8; dev.page_size()];
    dev.read(0, &mut buf).unwrap();
    assert_eq!(buf, old, "not visible before commit");

    // ...and one commit command publishes it atomically and durably.
    dev.commit(42).unwrap();
    dev.read(0, &mut buf).unwrap();
    assert_eq!(buf, new);
    println!(
        "device-level transaction: OK ({} ns simulated)",
        clock.now()
    );

    // 3. The ext4-like file system in journaling-OFF mode: X-FTL supplies
    //    the atomicity its journal would have. `Off` mode requires the
    //    transactional command set, so it goes through `mkfs_tx`.
    let fs = FileSystem::mkfs_tx(dev, JournalMode::Off, FsConfig::default()).expect("mkfs");
    let fs = Rc::new(RefCell::new(fs));

    // 4. The SQLite-like database, also journaling OFF.
    let mut db = Connection::open(Rc::clone(&fs), "app.db", DbJournalMode::Off).expect("open");
    db.execute("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
        .unwrap();
    db.execute("BEGIN").unwrap();
    for i in 1..=10 {
        db.execute_with(
            "INSERT INTO notes (body) VALUES (?)",
            &[Value::Text(format!("note number {i}"))],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();

    let rows = db.query("SELECT COUNT(*) FROM notes").unwrap();
    println!("rows committed: {}", rows[0][0]);
    let stats = db.pager_stats();
    println!(
        "pager I/O: {} DB page writes, {} journal writes (no journal!), {} fsyncs",
        stats.db_writes, stats.journal_writes, stats.fsyncs
    );
    println!("total simulated time: {:.3} ms", clock.now() as f64 / 1e6);
}
