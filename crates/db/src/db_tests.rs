//! End-to-end database tests across all three journal modes, including
//! crash recovery (the behaviours behind §6.4 / Table 5).

use std::cell::RefCell;
use std::rc::Rc;

use xftl_core::XFtl;
use xftl_flash::{FlashChip, FlashConfig, SimClock};
use xftl_fs::{FileSystem, FsConfig, JournalMode};
use xftl_ftl::PageMappedFtl;

use crate::db::Connection;
use crate::error::DbError;
use crate::pager::{DbJournalMode, SharedFs};
use crate::value::Value;

const BLOCKS: usize = 300;
const LOGICAL: u64 = 2200;

fn fs_plain() -> SharedFs<PageMappedFtl> {
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), SimClock::new());
    let dev = PageMappedFtl::format(chip, LOGICAL).unwrap();
    let fs = FileSystem::mkfs(
        dev,
        JournalMode::Ordered,
        FsConfig {
            inode_count: 32,
            journal_pages: 48,
            cache_pages: 512,
        },
    )
    .unwrap();
    Rc::new(RefCell::new(fs))
}

fn fs_tx() -> SharedFs<XFtl> {
    let chip = FlashChip::new(FlashConfig::tiny(BLOCKS), SimClock::new());
    let dev = XFtl::format(chip, LOGICAL).unwrap();
    let fs = FileSystem::mkfs_tx(
        dev,
        JournalMode::Off,
        FsConfig {
            inode_count: 32,
            journal_pages: 48,
            cache_pages: 512,
        },
    )
    .unwrap();
    Rc::new(RefCell::new(fs))
}

fn conn(mode: DbJournalMode) -> Connection<PageMappedFtl> {
    Connection::open(fs_plain(), "t.db", mode).unwrap()
}

#[test]
fn create_insert_select() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 'alice', 9.5)")
        .unwrap();
    db.execute("INSERT INTO t (name, score) VALUES ('bob', 7.0)")
        .unwrap();
    let rows = db
        .query("SELECT id, name, score FROM t ORDER BY id")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[0],
        vec![Value::Int(1), Value::Text("alice".into()), Value::Real(9.5)]
    );
    assert_eq!(
        rows[1][0],
        Value::Int(2),
        "auto rowid continues after explicit one"
    );
}

#[test]
fn update_and_delete() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    for i in 1..=10 {
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(i), Value::Int(i * 10)],
        )
        .unwrap();
    }
    let n = db
        .execute("UPDATE t SET v = v + 1 WHERE id > 5")
        .unwrap()
        .affected();
    assert_eq!(n, 5);
    let rows = db.query("SELECT v FROM t WHERE id = 6").unwrap();
    assert_eq!(rows[0][0], Value::Int(61));
    let n = db.execute("DELETE FROM t WHERE v < 30").unwrap().affected();
    assert_eq!(n, 2);
    let rows = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::Int(8));
}

#[test]
fn pk_lookup_uses_point_access() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        .unwrap();
    db.execute("BEGIN").unwrap();
    for i in 1..=500 {
        db.execute_with("INSERT INTO t VALUES (?, 'x')", &[Value::Int(i)])
            .unwrap();
    }
    db.execute("COMMIT").unwrap();
    let rows = db.query("SELECT id FROM t WHERE id = 250").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(250)]]);
    let rows = db
        .query("SELECT COUNT(*) FROM t WHERE id >= 100 AND id <= 199")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(100));
}

#[test]
fn secondary_index_is_used_and_maintained() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE users (id INTEGER PRIMARY KEY, email TEXT, age INT)")
        .unwrap();
    db.execute("CREATE INDEX idx_email ON users (email)")
        .unwrap();
    db.execute("BEGIN").unwrap();
    for i in 1..=200 {
        db.execute_with(
            "INSERT INTO users VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Text(format!("u{i}@x.com")),
                Value::Int(i % 40),
            ],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();
    let rows = db
        .query("SELECT id FROM users WHERE email = 'u42@x.com'")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(42)]]);
    // Update moves the row in the index.
    db.execute("UPDATE users SET email = 'changed@x.com' WHERE id = 42")
        .unwrap();
    assert!(db
        .query("SELECT id FROM users WHERE email = 'u42@x.com'")
        .unwrap()
        .is_empty());
    let rows = db
        .query("SELECT id FROM users WHERE email = 'changed@x.com'")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(42)]]);
    // Delete removes it.
    db.execute("DELETE FROM users WHERE id = 42").unwrap();
    assert!(db
        .query("SELECT id FROM users WHERE email = 'changed@x.com'")
        .unwrap()
        .is_empty());
}

#[test]
fn index_created_after_data_is_backfilled() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, tag TEXT)")
        .unwrap();
    for i in 1..=50 {
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(i), Value::Text(format!("tag{}", i % 5))],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX i_tag ON t (tag)").unwrap();
    let rows = db
        .query("SELECT COUNT(*) FROM t WHERE tag = 'tag3'")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(10));
}

#[test]
fn join_nested_loop() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, bid INT)")
        .unwrap();
    db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, name TEXT)")
        .unwrap();
    db.execute("INSERT INTO b VALUES (1, 'one'), (2, 'two')")
        .unwrap();
    db.execute("INSERT INTO a VALUES (10, 1), (11, 2), (12, 1)")
        .unwrap();
    let rows = db
        .query("SELECT a.id, b.name FROM a JOIN b ON a.bid = b.id WHERE b.name = 'one' ORDER BY id")
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(10), Value::Text("one".into())],
            vec![Value::Int(12), Value::Text("one".into())]
        ]
    );
}

#[test]
fn aggregates() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    db.execute("INSERT INTO t (v) VALUES (1), (2), (3), (3), (NULL)")
        .unwrap();
    let rows = db
        .query(
            "SELECT COUNT(*), COUNT(v), COUNT(DISTINCT v), SUM(v), MIN(v), MAX(v), AVG(v) FROM t",
        )
        .unwrap();
    assert_eq!(
        rows[0],
        vec![
            Value::Int(5),
            Value::Int(4),
            Value::Int(3),
            Value::Int(9),
            Value::Int(1),
            Value::Int(3),
            Value::Real(2.25),
        ]
    );
}

#[test]
fn like_and_between() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
        .unwrap();
    db.execute("INSERT INTO t (s) VALUES ('apple'), ('apricot'), ('banana')")
        .unwrap();
    let rows = db
        .query("SELECT s FROM t WHERE s LIKE 'ap%' ORDER BY s")
        .unwrap();
    assert_eq!(rows.len(), 2);
    let rows = db
        .query("SELECT COUNT(*) FROM t WHERE id BETWEEN 2 AND 3")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(2));
}

#[test]
fn blob_roundtrip_through_overflow() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE thumbs (id INTEGER PRIMARY KEY, img BLOB)")
        .unwrap();
    // Bigger than a tiny 512-byte page: forced through overflow chains.
    let blob: Vec<u8> = (0..3000).map(|i| (i % 256) as u8).collect();
    db.execute_with(
        "INSERT INTO thumbs VALUES (1, ?)",
        &[Value::Blob(blob.clone())],
    )
    .unwrap();
    let rows = db.query("SELECT img FROM thumbs WHERE id = 1").unwrap();
    assert_eq!(rows[0][0], Value::Blob(blob));
}

#[test]
fn explicit_transaction_commit_and_rollback() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    db.execute("INSERT INTO t VALUES (2, 20)").unwrap();
    db.execute("COMMIT").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("UPDATE t SET v = 999").unwrap();
    db.execute("DELETE FROM t WHERE id = 1").unwrap();
    db.execute("ROLLBACK").unwrap();
    let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)]
        ]
    );
}

#[test]
fn rollback_in_all_modes_restores_state() {
    for (name, mode) in [
        ("rbj", DbJournalMode::Rollback),
        ("wal", DbJournalMode::Wal),
    ] {
        let mut db = conn(mode);
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE t SET v = 2").unwrap();
        db.execute("ROLLBACK").unwrap();
        let rows = db.query("SELECT v FROM t").unwrap();
        assert_eq!(rows[0][0], Value::Int(1), "mode {name}");
    }
    // Off mode over X-FTL.
    let mut db = Connection::open(fs_tx(), "t.db", DbJournalMode::Off).unwrap();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("UPDATE t SET v = 2").unwrap();
    db.execute("ROLLBACK").unwrap();
    let rows = db.query("SELECT v FROM t").unwrap();
    assert_eq!(rows[0][0], Value::Int(1), "mode off");
}

#[test]
fn constraint_violation_and_or_replace() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    let err = db.execute("INSERT INTO t VALUES (1, 20)").unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)));
    db.execute("INSERT OR REPLACE INTO t VALUES (1, 20)")
        .unwrap();
    assert_eq!(db.query("SELECT v FROM t").unwrap()[0][0], Value::Int(20));
}

#[test]
fn drop_table_frees_and_forgets() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        .unwrap();
    db.execute("INSERT INTO t (v) VALUES ('x')").unwrap();
    db.execute("DROP TABLE t").unwrap();
    assert!(matches!(
        db.execute("SELECT * FROM t"),
        Err(DbError::Unknown(_))
    ));
    // Name reusable.
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (5)").unwrap();
    assert_eq!(db.query("SELECT a FROM t").unwrap()[0][0], Value::Int(5));
}

#[test]
fn schema_persists_across_reopen() {
    let fs = fs_plain();
    {
        let mut db = Connection::open(Rc::clone(&fs), "app.db", DbJournalMode::Rollback).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute("CREATE INDEX iv ON t (v)").unwrap();
        db.execute("INSERT INTO t (v) VALUES ('persisted')")
            .unwrap();
    }
    let mut db = Connection::open(fs, "app.db", DbJournalMode::Rollback).unwrap();
    let rows = db.query("SELECT id FROM t WHERE v = 'persisted'").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
    db.execute("INSERT INTO t (v) VALUES ('two')").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(2)
    );
}

#[test]
fn wal_reads_see_wal_content_before_checkpoint() {
    let mut db = conn(DbJournalMode::Wal);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 100)").unwrap();
    // No checkpoint yet (threshold 1000): read must come from the WAL.
    assert!(db.pager_stats().checkpoints == 0);
    assert_eq!(
        db.query("SELECT v FROM t WHERE id = 1").unwrap()[0][0],
        Value::Int(100)
    );
    db.checkpoint().unwrap();
    assert_eq!(db.pager_stats().checkpoints, 1);
    assert_eq!(
        db.query("SELECT v FROM t WHERE id = 1").unwrap()[0][0],
        Value::Int(100)
    );
}

#[test]
fn wal_autocheckpoint_fires() {
    let mut db = conn(DbJournalMode::Wal);
    db.pager_mut().wal_autocheckpoint = 20;
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..30 {
        db.execute_with("INSERT INTO t (v) VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    assert!(db.pager_stats().checkpoints >= 1);
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(30)
    );
}

// --- crash recovery --------------------------------------------------------

/// Runs a committed transaction plus an uncommitted one, crashes the
/// device, reopens, and checks atomicity + durability.
fn crash_roundtrip_plain(mode: DbJournalMode) {
    let fs = fs_plain();
    {
        let mut db = Connection::open(Rc::clone(&fs), "c.db", mode).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        // Uncommitted transaction in flight at crash time.
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE t SET v = 999 WHERE id = 1").unwrap();
        // no COMMIT — connection and FS dropped (process crash), then the
        // device loses power too.
    }
    let fs_inner = Rc::try_unwrap(fs).expect("sole owner").into_inner();
    let dev = fs_inner.into_device();
    let dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
    let fs = FileSystem::mount(dev, JournalMode::Ordered, 512).unwrap();
    let fs = Rc::new(RefCell::new(fs));
    let mut db = Connection::open(fs, "c.db", mode).unwrap();
    let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)]
        ],
        "mode {mode:?}"
    );
}

#[test]
fn crash_recovery_rollback_mode() {
    crash_roundtrip_plain(DbJournalMode::Rollback);
}

#[test]
fn crash_recovery_wal_mode() {
    crash_roundtrip_plain(DbJournalMode::Wal);
}

#[test]
fn crash_recovery_off_mode_xftl() {
    let fs = fs_tx();
    {
        let mut db = Connection::open(Rc::clone(&fs), "c.db", DbJournalMode::Off).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE t SET v = 999 WHERE id = 1").unwrap();
        // crash before COMMIT
    }
    let fs_inner = Rc::try_unwrap(fs).expect("sole owner").into_inner();
    let dev = fs_inner.into_device();
    let dev = XFtl::recover(dev.into_chip()).unwrap();
    let fs = FileSystem::mount_tx(dev, JournalMode::Off, 512).unwrap();
    let fs = Rc::new(RefCell::new(fs));
    let mut db = Connection::open(fs, "c.db", DbJournalMode::Off).unwrap();
    let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)]
        ]
    );
}

#[test]
fn hot_journal_is_rolled_back_on_open() {
    let fs = fs_plain();
    {
        let mut db = Connection::open(Rc::clone(&fs), "c.db", DbJournalMode::Rollback).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    }
    {
        let mut db = Connection::open(Rc::clone(&fs), "c.db", DbJournalMode::Rollback).unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE t SET v = 777 WHERE id = 1").unwrap();
        // Force the dirty page and journal to storage mid-transaction
        // through cache pressure (the steal path).
        db.pager_mut().set_cache_capacity(4);
        for i in 0..40 {
            db.execute_with("INSERT INTO t (v) VALUES (?)", &[Value::Int(i)])
                .unwrap();
        }
        // Process dies without COMMIT; journal file remains (hot).
    }
    assert!(fs.borrow().exists("c.db-journal"), "journal must be hot");
    let mut db = Connection::open(Rc::clone(&fs), "c.db", DbJournalMode::Rollback).unwrap();
    assert!(
        !fs.borrow().exists("c.db-journal"),
        "recovery deletes the journal"
    );
    let rows = db.query("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(rows[0][0], Value::Int(10), "uncommitted update rolled back");
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(1)
    );
}

#[test]
fn steal_spills_and_commit_still_works() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v BLOB)")
        .unwrap();
    db.pager_mut().set_cache_capacity(6);
    db.execute("BEGIN").unwrap();
    let blob = vec![7u8; 300];
    for i in 1..=60 {
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(i), Value::Blob(blob.clone())],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();
    assert!(db.pager_stats().spills > 0, "steal must have happened");
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(60)
    );
}

#[test]
fn multi_database_files_share_one_fs() {
    let fs = fs_plain();
    let mut db1 = Connection::open(Rc::clone(&fs), "one.db", DbJournalMode::Rollback).unwrap();
    let mut db2 = Connection::open(Rc::clone(&fs), "two.db", DbJournalMode::Rollback).unwrap();
    db1.execute("CREATE TABLE a (x INT)").unwrap();
    db2.execute("CREATE TABLE b (y INT)").unwrap();
    db1.execute("INSERT INTO a VALUES (1)").unwrap();
    db2.execute("INSERT INTO b VALUES (2)").unwrap();
    assert_eq!(db1.query("SELECT x FROM a").unwrap()[0][0], Value::Int(1));
    assert_eq!(db2.query("SELECT y FROM b").unwrap()[0][0], Value::Int(2));
    assert!(matches!(
        db1.execute("SELECT y FROM b"),
        Err(DbError::Unknown(_))
    ));
}

#[test]
fn fsync_counts_match_figure1_shape() {
    // RBJ: 3 fsyncs per update transaction; WAL: 1; Off: 1 (at the FS).
    let mut rbj = conn(DbJournalMode::Rollback);
    rbj.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    rbj.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    rbj.reset_stats();
    rbj.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    assert_eq!(
        rbj.pager_stats().fsyncs,
        3,
        "journal data + journal header + db"
    );

    let mut wal = conn(DbJournalMode::Wal);
    wal.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    wal.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    wal.reset_stats();
    wal.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    assert_eq!(wal.pager_stats().fsyncs, 1, "single WAL fsync");

    let mut off = Connection::open(fs_tx(), "t.db", DbJournalMode::Off).unwrap();
    off.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    off.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    off.reset_stats();
    off.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    assert_eq!(
        off.pager_stats().fsyncs,
        1,
        "single fsync carrying the commit"
    );
    assert_eq!(off.pager_stats().journal_writes, 0, "no journal at all");
}

#[test]
fn select_without_from() {
    let mut db = conn(DbJournalMode::Rollback);
    let rows = db.query("SELECT 1 + 2 * 3, 'x'").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(7), Value::Text("x".into())]]);
}

#[test]
fn order_by_desc_and_limit() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    for i in 1..=10 {
        db.execute_with("INSERT INTO t (v) VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    let rows = db.query("SELECT v FROM t ORDER BY v DESC LIMIT 3").unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(10)],
            vec![Value::Int(9)],
            vec![Value::Int(8)]
        ]
    );
}

// --- multi-file transactions (§4.3) -----------------------------------------

mod multi {
    use super::*;
    use crate::multidb::{begin_multi, commit_multi, rollback_multi};
    use xftl_ftl::BlockDevice;

    fn two_dbs<D: xftl_ftl::BlockDevice>(
        fs: &SharedFs<D>,
        mode: DbJournalMode,
    ) -> (Connection<D>, Connection<D>) {
        let mut a = Connection::open(Rc::clone(fs), "a.db", mode).unwrap();
        let mut b = Connection::open(Rc::clone(fs), "b.db", mode).unwrap();
        a.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        b.execute("CREATE TABLE u (id INTEEGER, w INT)")
            .unwrap_or_else(|_| {
                b.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, w INT)")
                    .unwrap()
            });
        (a, b)
    }

    #[test]
    fn multi_commit_applies_both_rbj() {
        let fs = fs_plain();
        let (mut a, mut b) = two_dbs(&fs, DbJournalMode::Rollback);
        begin_multi(&mut [&mut a, &mut b]).unwrap();
        a.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        b.execute("INSERT INTO u VALUES (1, 20)").unwrap();
        commit_multi(&mut [&mut a, &mut b], "group-master").unwrap();
        assert_eq!(a.query("SELECT v FROM t").unwrap()[0][0], Value::Int(10));
        assert_eq!(b.query("SELECT w FROM u").unwrap()[0][0], Value::Int(20));
        assert!(!fs.borrow().exists("group-master"));
        assert!(!fs.borrow().exists("a.db-journal"));
    }

    #[test]
    fn multi_commit_applies_both_xftl() {
        let fs = fs_tx();
        let (mut a, mut b) = two_dbs(&fs, DbJournalMode::Off);
        begin_multi(&mut [&mut a, &mut b]).unwrap();
        a.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        b.execute("INSERT INTO u VALUES (1, 20)").unwrap();
        let commits_before = fs.borrow().device().counters().commits;
        commit_multi(&mut [&mut a, &mut b], "unused-master").unwrap();
        assert_eq!(
            fs.borrow().device().counters().commits - commits_before,
            1,
            "one device commit seals the whole group"
        );
        assert_eq!(a.query("SELECT v FROM t").unwrap()[0][0], Value::Int(10));
        assert_eq!(b.query("SELECT w FROM u").unwrap()[0][0], Value::Int(20));
        assert!(
            !fs.borrow().exists("unused-master"),
            "X-FTL needs no master file"
        );
    }

    #[test]
    fn multi_rollback_undoes_both() {
        let fs = fs_tx();
        let (mut a, mut b) = two_dbs(&fs, DbJournalMode::Off);
        a.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        b.execute("INSERT INTO u VALUES (1, 1)").unwrap();
        begin_multi(&mut [&mut a, &mut b]).unwrap();
        a.execute("UPDATE t SET v = 99").unwrap();
        b.execute("UPDATE u SET w = 99").unwrap();
        rollback_multi(&mut [&mut a, &mut b]).unwrap();
        assert_eq!(a.query("SELECT v FROM t").unwrap()[0][0], Value::Int(1));
        assert_eq!(b.query("SELECT w FROM u").unwrap()[0][0], Value::Int(1));
    }

    #[test]
    fn crash_before_master_delete_rolls_back_both() {
        // Power fails after phase 1 (journals reference the master, DB
        // files written) but before the master's deletion: recovery must
        // roll BOTH databases back.
        let fs = fs_plain();
        {
            let (mut a, mut b) = two_dbs(&fs, DbJournalMode::Rollback);
            a.execute("INSERT INTO t VALUES (1, 1)").unwrap();
            b.execute("INSERT INTO u VALUES (1, 1)").unwrap();
            begin_multi(&mut [&mut a, &mut b]).unwrap();
            a.execute("UPDATE t SET v = 99").unwrap();
            b.execute("UPDATE u SET w = 99").unwrap();
            // Reproduce phase 1 by hand, then "crash" (drop everything).
            {
                let mut fsb = fs.borrow_mut();
                let ino = fsb.create("m1").unwrap();
                fsb.write(ino, 0, b"a.db-journal\nb.db-journal", None)
                    .unwrap();
                fsb.fsync(ino, None).unwrap();
            }
            a.pager_mut().master_commit_prepare("m1").unwrap();
            b.pager_mut().master_commit_prepare("m1").unwrap();
            // crash here: master still exists
        }
        let fs_inner = Rc::try_unwrap(fs).expect("sole owner").into_inner();
        let dev = PageMappedFtl::recover(fs_inner.into_device().into_chip()).unwrap();
        let fs = Rc::new(RefCell::new(
            FileSystem::mount(dev, JournalMode::Ordered, 512).unwrap(),
        ));
        let mut a = Connection::open(Rc::clone(&fs), "a.db", DbJournalMode::Rollback).unwrap();
        let mut b = Connection::open(Rc::clone(&fs), "b.db", DbJournalMode::Rollback).unwrap();
        assert_eq!(a.query("SELECT v FROM t").unwrap()[0][0], Value::Int(1));
        assert_eq!(b.query("SELECT w FROM u").unwrap()[0][0], Value::Int(1));
    }

    #[test]
    fn crash_after_master_delete_commits_both() {
        // Power fails after the master's deletion but before the child
        // journals are cleaned up: both databases must show the new state
        // (the stale journals are ignored because their master is gone).
        let fs = fs_plain();
        {
            let (mut a, mut b) = two_dbs(&fs, DbJournalMode::Rollback);
            a.execute("INSERT INTO t VALUES (1, 1)").unwrap();
            b.execute("INSERT INTO u VALUES (1, 1)").unwrap();
            begin_multi(&mut [&mut a, &mut b]).unwrap();
            a.execute("UPDATE t SET v = 99").unwrap();
            b.execute("UPDATE u SET w = 99").unwrap();
            {
                let mut fsb = fs.borrow_mut();
                let ino = fsb.create("m2").unwrap();
                fsb.write(ino, 0, b"a.db-journal\nb.db-journal", None)
                    .unwrap();
                fsb.fsync(ino, None).unwrap();
            }
            a.pager_mut().master_commit_prepare("m2").unwrap();
            b.pager_mut().master_commit_prepare("m2").unwrap();
            {
                let mut fsb = fs.borrow_mut();
                fsb.unlink("m2").unwrap();
                fsb.sync_meta(None).unwrap();
            }
            // crash here: child journals still exist, master gone
        }
        let fs_inner = Rc::try_unwrap(fs).expect("sole owner").into_inner();
        let dev = PageMappedFtl::recover(fs_inner.into_device().into_chip()).unwrap();
        let fs = Rc::new(RefCell::new(
            FileSystem::mount(dev, JournalMode::Ordered, 512).unwrap(),
        ));
        assert!(
            fs.borrow().exists("a.db-journal"),
            "stale journal present pre-open"
        );
        let mut a = Connection::open(Rc::clone(&fs), "a.db", DbJournalMode::Rollback).unwrap();
        let mut b = Connection::open(Rc::clone(&fs), "b.db", DbJournalMode::Rollback).unwrap();
        assert_eq!(a.query("SELECT v FROM t").unwrap()[0][0], Value::Int(99));
        assert_eq!(b.query("SELECT w FROM u").unwrap()[0][0], Value::Int(99));
        assert!(
            !fs.borrow().exists("a.db-journal"),
            "stale journal cleaned on open"
        );
    }

    #[test]
    fn crash_mid_group_rolls_back_both_xftl() {
        let fs = fs_tx();
        {
            let (mut a, mut b) = two_dbs(&fs, DbJournalMode::Off);
            a.execute("INSERT INTO t VALUES (1, 1)").unwrap();
            b.execute("INSERT INTO u VALUES (1, 1)").unwrap();
            begin_multi(&mut [&mut a, &mut b]).unwrap();
            a.execute("UPDATE t SET v = 99").unwrap();
            b.execute("UPDATE u SET w = 99").unwrap();
            // Flush a's pages under the shared tid but crash before the
            // single device commit.
            a.pager_mut().commit_off_deferred().unwrap();
            // crash
        }
        let fs_inner = Rc::try_unwrap(fs).expect("sole owner").into_inner();
        let dev = XFtl::recover(fs_inner.into_device().into_chip()).unwrap();
        let fs = Rc::new(RefCell::new(
            FileSystem::mount_tx(dev, JournalMode::Off, 512).unwrap(),
        ));
        let mut a = Connection::open(Rc::clone(&fs), "a.db", DbJournalMode::Off).unwrap();
        let mut b = Connection::open(Rc::clone(&fs), "b.db", DbJournalMode::Off).unwrap();
        assert_eq!(a.query("SELECT v FROM t").unwrap()[0][0], Value::Int(1));
        assert_eq!(b.query("SELECT w FROM u").unwrap()[0][0], Value::Int(1));
    }

    #[test]
    fn wal_groups_are_rejected() {
        let fs = fs_plain();
        let (mut a, mut b) = two_dbs(&fs, DbJournalMode::Wal);
        assert!(matches!(
            begin_multi(&mut [&mut a, &mut b]),
            Err(DbError::TxState(_))
        ));
    }
}

// --- GROUP BY ----------------------------------------------------------------

#[test]
fn group_by_with_aggregates() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE sales (id INTEGER PRIMARY KEY, region TEXT, amount INT)")
        .unwrap();
    db.execute(
        "INSERT INTO sales (region, amount) VALUES \
         ('east', 10), ('west', 5), ('east', 20), ('west', 7), ('north', 1)",
    )
    .unwrap();
    let rows = db
        .query("SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region ORDER BY region")
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Text("east".into()), Value::Int(2), Value::Int(30)],
            vec![Value::Text("north".into()), Value::Int(1), Value::Int(1)],
            vec![Value::Text("west".into()), Value::Int(2), Value::Int(12)],
        ]
    );
}

#[test]
fn group_by_multiple_columns_and_where() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INT, b INT, v INT)")
        .unwrap();
    for (a, b, v) in [(1, 1, 10), (1, 2, 20), (1, 1, 30), (2, 1, 40), (2, 1, 5)] {
        db.execute_with(
            "INSERT INTO t (a, b, v) VALUES (?, ?, ?)",
            &[Value::Int(a), Value::Int(b), Value::Int(v)],
        )
        .unwrap();
    }
    let rows = db
        .query("SELECT a, b, MAX(v) FROM t WHERE v >= 10 GROUP BY a, b ORDER BY a")
        .unwrap();
    assert_eq!(rows.len(), 3);
    // (1,1)->30, (1,2)->20, (2,1)->40; BTreeMap key order = (a,b) ascending.
    assert_eq!(rows[0], vec![Value::Int(1), Value::Int(1), Value::Int(30)]);
    assert_eq!(rows[1], vec![Value::Int(1), Value::Int(2), Value::Int(20)]);
    assert_eq!(rows[2], vec![Value::Int(2), Value::Int(1), Value::Int(40)]);
}

#[test]
fn group_by_with_limit() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INT)")
        .unwrap();
    for i in 0..20 {
        db.execute_with("INSERT INTO t (g) VALUES (?)", &[Value::Int(i % 5)])
            .unwrap();
    }
    let rows = db
        .query("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g LIMIT 2")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], vec![Value::Int(0), Value::Int(4)]);
}

#[test]
fn group_by_rejects_star() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INT)")
        .unwrap();
    assert!(db.execute("SELECT * FROM t GROUP BY g").is_err());
}

// --- journal finalization variants (TRUNCATE / PERSIST) ----------------------

#[test]
fn truncate_and_persist_modes_commit_and_recover() {
    for mode in [
        DbJournalMode::RollbackTruncate,
        DbJournalMode::RollbackPersist,
    ] {
        let fs = fs_plain();
        {
            let mut db = Connection::open(Rc::clone(&fs), "v.db", mode).unwrap();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
                .unwrap();
            db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
            db.execute("BEGIN").unwrap();
            db.execute("UPDATE t SET v = 999 WHERE id = 1").unwrap();
            // crash without COMMIT
        }
        let fs_inner = Rc::try_unwrap(fs).expect("sole owner").into_inner();
        let dev = PageMappedFtl::recover(fs_inner.into_device().into_chip()).unwrap();
        let fs = Rc::new(RefCell::new(
            FileSystem::mount(dev, JournalMode::Ordered, 512).unwrap(),
        ));
        let mut db = Connection::open(fs, "v.db", mode).unwrap();
        let rows = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)]
            ],
            "{mode:?}"
        );
    }
}

#[test]
fn persist_mode_leaves_cold_journal_file() {
    let fs = fs_plain();
    let mut db = Connection::open(Rc::clone(&fs), "p.db", DbJournalMode::RollbackPersist).unwrap();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    // The journal file persists between transactions with a zeroed header.
    assert!(fs.borrow().exists("p.db-journal"));
    db.execute("UPDATE t SET v = 2").unwrap();
    assert_eq!(db.query("SELECT v FROM t").unwrap()[0][0], Value::Int(2));
    // Re-open: the zeroed header must not look like a hot journal.
    drop(db);
    let mut db2 = Connection::open(Rc::clone(&fs), "p.db", DbJournalMode::RollbackPersist).unwrap();
    assert_eq!(db2.query("SELECT v FROM t").unwrap()[0][0], Value::Int(2));
}

#[test]
fn truncate_mode_reuses_empty_journal() {
    let fs = fs_plain();
    let mut db =
        Connection::open(Rc::clone(&fs), "tr.db", DbJournalMode::RollbackTruncate).unwrap();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..5 {
        db.execute_with("INSERT INTO t (v) VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    assert!(fs.borrow().exists("tr.db-journal"));
    let jino = fs.borrow().open("tr.db-journal").unwrap();
    assert_eq!(
        fs.borrow().size(jino).unwrap(),
        0,
        "journal truncated after commit"
    );
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(5)
    );
}

#[test]
fn persist_mode_avoids_metadata_churn() {
    // PERSIST should issue no directory syncs after warm-up; DELETE does
    // one per transaction.
    let run = |mode: DbJournalMode| {
        let fs = fs_plain();
        let mut db = Connection::open(Rc::clone(&fs), "m.db", mode).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        db.reset_stats();
        for i in 0..10 {
            db.execute_with("UPDATE t SET v = ? WHERE id = 1", &[Value::Int(i)])
                .unwrap();
        }
        db.pager_stats().dirsyncs
    };
    assert_eq!(
        run(DbJournalMode::Rollback),
        10,
        "DELETE: one dirsync per txn"
    );
    assert_eq!(run(DbJournalMode::RollbackPersist), 0, "PERSIST: none");
}

#[test]
fn in_list_having_offset_end_to_end() {
    let mut db = conn(DbJournalMode::Rollback);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INT, v INT)")
        .unwrap();
    for i in 0..12 {
        db.execute_with(
            "INSERT INTO t (g, v) VALUES (?, ?)",
            &[Value::Int(i % 4), Value::Int(i)],
        )
        .unwrap();
    }
    // IN list.
    let rows = db
        .query("SELECT COUNT(*) FROM t WHERE g IN (1, 3)")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(6));
    // NOT IN.
    let rows = db
        .query("SELECT COUNT(*) FROM t WHERE g NOT IN (0, 1, 2)")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(3));
    // HAVING on aggregates.
    // sums: g0=12, g1=15, g2=18, g3=21 — only g3 exceeds 18.
    let rows = db
        .query("SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(v) > 18 ORDER BY g")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(3), Value::Int(21)]]);
    let rows = db
        .query("SELECT g FROM t GROUP BY g HAVING SUM(v) >= 18 ORDER BY g")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
    // OFFSET pagination.
    let rows = db
        .query("SELECT id FROM t ORDER BY id LIMIT 3 OFFSET 4")
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(5)],
            vec![Value::Int(6)],
            vec![Value::Int(7)]
        ]
    );
    // OFFSET with GROUP BY.
    let rows = db
        .query("SELECT g FROM t GROUP BY g ORDER BY g LIMIT 2 OFFSET 1")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
}

/// Joins: the probe path emits exactly what the nested loop would, in
/// its order; and a join with an equality in `ON` never walks the cross
/// product.
mod join_equivalence {
    use super::*;
    use crate::exec::JOIN_PAIRS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    /// `ON` operand: column `col` of table `table`, or a literal.
    #[derive(Debug, Clone)]
    enum Operand {
        Col(usize, usize),
        Lit(Value),
    }

    /// One conjunct of an `ON`: a comparison.
    #[derive(Debug, Clone)]
    struct Cmp {
        l: Operand,
        op: &'static str,
        r: Operand,
    }

    const COLS: [&str; 3] = ["id", "k", "v"];

    /// Join keys that collide in every way `=` allows: duplicates, NULL,
    /// Int against Real (also past 2^53, where two integers share one
    /// float, and at the two zeros), NaN, Text and Blob of equal bytes.
    fn key(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..16u32) {
            0 | 1 => Value::Null,
            2..=5 => Value::Int(rng.gen_range(0..4)),
            6 | 7 => Value::Real(f64::from(rng.gen_range(0..4i32))),
            8 => Value::Real(1.5),
            9 => Value::Int((1 << 53) + rng.gen_range(0..2i64)),
            10 => Value::Real((1u64 << 53) as f64),
            11 => Value::Real(if rng.gen_range(0..2) == 0 {
                -0.0
            } else {
                f64::NAN
            }),
            12 | 13 => Value::Text(["a", "b", ""][rng.gen_range(0..3usize)].into()),
            _ => Value::Blob(
                [b"a".to_vec(), b"b".to_vec(), Vec::new()][rng.gen_range(0..3usize)].clone(),
            ),
        }
    }

    /// The nested loop, and `=`/`<`/`<>` as `eval` defines them: NULL
    /// compares to nothing, the rest by `sort_cmp`.
    fn reference(tables: &[Vec<Vec<Value>>], ons: &[Vec<Cmp>]) -> Vec<Vec<Value>> {
        let holds = |c: &Cmp, tuple: &[&Vec<Value>]| {
            let get = |o: &Operand| match o {
                Operand::Col(t, col) => tuple[*t][*col].clone(),
                Operand::Lit(v) => v.clone(),
            };
            let (l, r) = (get(&c.l), get(&c.r));
            if l == Value::Null || r == Value::Null {
                return false;
            }
            let ord = l.sort_cmp(&r);
            match c.op {
                "=" => ord == Ordering::Equal,
                "<" => ord == Ordering::Less,
                "<>" => ord != Ordering::Equal,
                _ => unreachable!(),
            }
        };
        let mut tuples: Vec<Vec<&Vec<Value>>> = tables[0].iter().map(|r| vec![r]).collect();
        for (inner, on) in tables[1..].iter().zip(ons) {
            let mut next = Vec::new();
            for tuple in &tuples {
                for row in inner {
                    let mut t = tuple.clone();
                    t.push(row);
                    if on.iter().all(|c| holds(c, &t)) {
                        next.push(t);
                    }
                }
            }
            tuples = next;
        }
        tuples
            .into_iter()
            .map(|t| t.into_iter().flatten().cloned().collect())
            .collect()
    }

    #[test]
    fn probe_and_nested_loop_emit_the_same_tuples_in_the_same_order() {
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(0x6a6f_696e ^ case);
            let n_tables = rng.gen_range(2..=3usize);
            let mut db = conn(DbJournalMode::Wal);
            let mut tables = Vec::new();
            for t in 0..n_tables {
                db.execute(&format!(
                    "CREATE TABLE t{t} (id{t} INTEGER PRIMARY KEY, k{t}, v{t} INT)"
                ))
                .unwrap();
                let mut rows = Vec::new();
                for id in 1..=rng.gen_range(0..8i64) {
                    let row = vec![
                        Value::Int(id),
                        key(&mut rng),
                        Value::Int(rng.gen_range(0..3)),
                    ];
                    db.execute_with(&format!("INSERT INTO t{t} VALUES (?, ?, ?)"), &row)
                        .unwrap();
                    rows.push(row);
                }
                tables.push(rows);
            }
            // Each table is aliased or not; each column reference is
            // qualified (by alias, or by name where there is none) or bare.
            let aliases: Vec<Option<String>> = (0..n_tables)
                .map(|t| (rng.gen_range(0..2) == 0).then(|| format!("x{t}")))
                .collect();
            let mut ons = Vec::new();
            for inner in 1..n_tables {
                let outer = rng.gen_range(0..inner);
                let equi = Cmp {
                    l: Operand::Col(outer, 1),
                    op: "=",
                    r: Operand::Col(inner, 1),
                };
                let flipped = Cmp {
                    l: equi.r.clone(),
                    op: "=",
                    r: equi.l.clone(),
                };
                let residual = [
                    Cmp {
                        l: Operand::Col(inner, 2),
                        op: "<",
                        r: Operand::Col(outer, 2),
                    },
                    Cmp {
                        l: Operand::Col(inner, 2),
                        op: "<>",
                        r: Operand::Lit(Value::Int(1)),
                    },
                    Cmp {
                        l: Operand::Col(outer, 1),
                        op: "<>",
                        r: Operand::Lit(key(&mut rng)),
                    },
                ][rng.gen_range(0..3usize)]
                .clone();
                ons.push(match rng.gen_range(0..7u32) {
                    0 => vec![equi],
                    1 => vec![flipped],
                    2 => vec![equi, residual],
                    3 => vec![residual, flipped],
                    // Non-equi: no column = column of the right shape.
                    4 => vec![Cmp { op: "<", ..equi }],
                    5 => vec![residual],
                    _ => vec![Cmp {
                        l: Operand::Col(inner, 1),
                        op: "=",
                        r: Operand::Lit(key(&mut rng)),
                    }],
                });
            }
            // Literals travel as parameters: no SQL text spells NaN or -0.0.
            let mut params = Vec::new();
            let mut render = |o: &Operand| match o {
                Operand::Lit(v) => {
                    params.push(v.clone());
                    "?".to_string()
                }
                Operand::Col(t, col) => {
                    let name = format!("{}{t}", COLS[*col]);
                    match (&aliases[*t], rng.gen_range(0..2)) {
                        (_, 0) => name,
                        (Some(a), _) => format!("{a}.{name}"),
                        (None, _) => format!("t{t}.{name}"),
                    }
                }
            };
            let table = |t: usize| match &aliases[t] {
                Some(a) => format!("t{t} AS {a}"),
                None => format!("t{t}"),
            };
            let mut sql = format!("SELECT * FROM {}", table(0));
            for (j, on) in ons.iter().enumerate() {
                let on: Vec<String> = on
                    .iter()
                    .map(|c| format!("{} {} {}", render(&c.l), c.op, render(&c.r)))
                    .collect();
                sql += &format!(" JOIN {} ON {}", table(j + 1), on.join(" AND "));
            }
            // NaN never equals itself as a `Value`: compare the printout.
            let got = format!("{:?}", db.query_with(&sql, &params).unwrap());
            let want = format!("{:?}", reference(&tables, &ons));
            assert_eq!(got, want, "case {case}: {sql}");
        }
    }

    #[test]
    fn stock_level_join_looks_at_matching_pairs_only() {
        // The shape of TPC-C Stock-Level at `TpccScale::default()`: the
        // lines of a district's last 20 orders against the stock rows of
        // 2 warehouses x 1000 items.
        let mut db = conn(DbJournalMode::Wal);
        db.execute(
            "CREATE TABLE order_line (ol_key INTEGER PRIMARY KEY, ol_o_key INT, ol_i_id INT, \
             ol_qty INT, ol_amount REAL, ol_dist_info TEXT)",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE stock (s_key INTEGER PRIMARY KEY, s_w_id INT, s_i_id INT, \
             s_quantity INT, s_ytd INT, s_order_cnt INT)",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        db.execute("BEGIN").unwrap();
        for w in 1..=2i64 {
            for i in 1..=1000i64 {
                let qty = rng.gen_range(10..100i64);
                db.execute_with(
                    "INSERT INTO stock VALUES (?, ?, ?, ?, 0, 0)",
                    &[
                        Value::Int(w * 1_000_000 + i),
                        Value::Int(w),
                        Value::Int(i),
                        Value::Int(qty),
                    ],
                )
                .unwrap();
            }
        }
        let mut lines = 0u64;
        for o in 1..=30i64 {
            for l in 1..=rng.gen_range(5..=15i64) {
                db.execute_with(
                    "INSERT INTO order_line VALUES (?, ?, ?, 1, 1.0, 'dist-info')",
                    &[
                        Value::Int(o * 100 + l),
                        Value::Int(o),
                        Value::Int(rng.gen_range(1..=1000)),
                    ],
                )
                .unwrap();
                lines += u64::from(o >= 10);
            }
        }
        db.execute("COMMIT").unwrap();
        let before = JOIN_PAIRS.with(std::cell::Cell::get);
        let rows = db
            .query_with(
                "SELECT COUNT(DISTINCT ol.ol_i_id) FROM order_line ol \
                 JOIN stock s ON ol.ol_i_id = s.s_i_id \
                 WHERE ol.ol_key >= ? AND ol.ol_key < ? AND s.s_w_id = ? AND s.s_quantity < ?",
                &[
                    Value::Int(1000),
                    Value::Int(3100),
                    Value::Int(1),
                    Value::Int(20),
                ],
            )
            .unwrap();
        assert!(matches!(rows[0][0], Value::Int(n) if n > 0));
        // Every item is stocked once per warehouse: two matches a line.
        let pairs = JOIN_PAIRS.with(std::cell::Cell::get) - before;
        assert_eq!(pairs, 2 * lines, "the join looked beyond its matches");
        assert!(lines > 100);
    }
}

/// The prepared-statement cache is invisible: the same SQL text behaves
/// as a fresh parse and plan would, whatever happened to the schema in
/// between.
mod stale_plans {
    use super::*;

    fn ints(rows: Vec<Vec<Value>>) -> Vec<Vec<i64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.as_i64().unwrap()).collect())
            .collect()
    }

    #[test]
    fn drop_and_recreate_with_another_column_order() {
        let mut db = conn(DbJournalMode::Rollback);
        let select = "SELECT a, b FROM t WHERE id = 1";
        let insert = "INSERT INTO t VALUES (?, ?, ?)";
        let update = "UPDATE t SET b = b + 1 WHERE a = 20";
        let row = [Value::Int(1), Value::Int(20), Value::Int(30)];
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INT, b INT)")
            .unwrap();
        db.execute_with(insert, &row).unwrap();
        db.execute(update).unwrap();
        assert_eq!(ints(db.query(select).unwrap()), [[20, 31]]);
        db.execute("DROP TABLE t").unwrap();
        assert!(matches!(db.query(select), Err(DbError::Unknown(_))));
        db.execute("CREATE TABLE t (b INT, id INTEGER PRIMARY KEY, a INT)")
            .unwrap();
        // Same texts, other positions: id is now the second value.
        db.execute_with(insert, &row).unwrap();
        assert!(db.query(select).unwrap().is_empty());
        db.execute_with(insert, &[Value::Int(7), Value::Int(1), Value::Int(20)])
            .unwrap();
        db.execute(update).unwrap();
        assert_eq!(ints(db.query(select).unwrap()), [[20, 8]]);
    }

    #[test]
    fn create_and_drop_index_move_the_access_path() {
        let mut db = conn(DbJournalMode::Wal);
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INT, pad TEXT)")
            .unwrap();
        // A cache this small turns the access path into page reads.
        db.pager_mut().set_cache_capacity(4);
        db.execute("BEGIN").unwrap();
        for i in 0..600i64 {
            db.execute_with(
                "INSERT INTO t VALUES (?, ?, 'padding-padding-padding')",
                &[Value::Int(i), Value::Int(i % 200)],
            )
            .unwrap();
        }
        db.execute("COMMIT").unwrap();
        let select = "SELECT id FROM t WHERE k = 77";
        let reads = |db: &mut Connection<PageMappedFtl>| {
            db.reset_stats();
            assert_eq!(ints(db.query(select).unwrap()), [[77], [277], [477]]);
            db.pager_stats().reads
        };
        let full_scan = reads(&mut db);
        db.execute("CREATE INDEX ix_k ON t (k)").unwrap();
        let by_index = reads(&mut db);
        assert!(
            by_index * 4 < full_scan,
            "{by_index} vs {full_scan} page reads"
        );
        db.execute("DROP INDEX ix_k").unwrap();
        assert_eq!(reads(&mut db), full_scan);
        // An index maintained by a cached UPDATE and INSERT plan.
        let update = "UPDATE t SET k = 77 WHERE id = 5";
        let insert = "INSERT INTO t VALUES (?, 77, 'x')";
        db.execute(update).unwrap();
        db.execute("CREATE INDEX ix_k ON t (k)").unwrap();
        db.execute("UPDATE t SET k = 0 WHERE id = 5").unwrap();
        db.execute(update).unwrap();
        db.execute_with(insert, &[Value::Int(1000)]).unwrap();
        db.reset_stats();
        assert_eq!(
            ints(db.query(select).unwrap()),
            [[5], [77], [277], [477], [1000]]
        );
        assert!(db.pager_stats().reads * 4 < full_scan);
    }

    #[test]
    fn rolled_back_ddl_leaves_no_plan_behind() {
        let mut db = conn(DbJournalMode::Rollback);
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        let by_k = "SELECT id FROM t WHERE k = 20";
        let star = "SELECT * FROM t ORDER BY id";
        assert_eq!(ints(db.query(by_k).unwrap()), [[2]]);
        db.execute("BEGIN").unwrap();
        db.execute("CREATE INDEX ix_k ON t (k)").unwrap();
        assert_eq!(ints(db.query(by_k).unwrap()), [[2]]); // planned on ix_k
        db.execute("DROP TABLE t").unwrap();
        db.execute("CREATE TABLE t (k INT, extra INT, id INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (20, 0, 9)").unwrap();
        assert_eq!(ints(db.query(by_k).unwrap()), [[9]]);
        assert_eq!(ints(db.query(star).unwrap()), [[20, 0, 9]]);
        db.execute("ROLLBACK").unwrap();
        // The index root and the second `t` went back to the freelist.
        assert_eq!(ints(db.query(by_k).unwrap()), [[2]]);
        assert_eq!(ints(db.query(star).unwrap()), [[1, 10], [2, 20]]);
        // A statement failing in autocommit rolls back and reloads too.
        assert!(db.execute("INSERT INTO t VALUES (1, 0)").is_err());
        assert_eq!(ints(db.query(by_k).unwrap()), [[2]]);
    }

    #[test]
    fn concurrent_loser_and_foreign_ddl_replan() {
        let fs = fs_tx();
        let open = || Connection::open(Rc::clone(&fs), "t.db", DbJournalMode::Off).unwrap();
        let (mut a, mut b) = (open(), open());
        a.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INT)")
            .unwrap();
        a.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        let by_k = "SELECT id FROM t WHERE k = 20";
        let bump = "UPDATE t SET k = k + 1 WHERE id = 1";

        // The loser planned against an index its rollback takes away.
        a.execute("BEGIN CONCURRENT").unwrap();
        b.execute("BEGIN CONCURRENT").unwrap();
        b.execute("CREATE INDEX ix_k ON t (k)").unwrap();
        assert_eq!(ints(b.query(by_k).unwrap()), [[2]]);
        b.execute(bump).unwrap();
        a.execute(bump).unwrap();
        a.execute("COMMIT").unwrap();
        assert_eq!(b.execute("COMMIT"), Err(DbError::Conflict));
        assert_eq!(ints(b.query(by_k).unwrap()), [[2]]);
        assert!(matches!(
            b.execute("DROP INDEX ix_k"),
            Err(DbError::Unknown(_))
        ));

        // DDL committed by the other connection: seen from the next
        // snapshot on, by the same texts.
        a.execute("DROP TABLE t").unwrap();
        a.execute("CREATE TABLE t (k INT, id INTEGER PRIMARY KEY)")
            .unwrap();
        a.execute("INSERT INTO t VALUES (20, 5), (11, 1)").unwrap();
        b.execute("BEGIN CONCURRENT").unwrap();
        assert_eq!(ints(b.query(by_k).unwrap()), [[5]]);
        b.execute(bump).unwrap();
        b.execute("COMMIT").unwrap();
        a.execute("BEGIN CONCURRENT").unwrap();
        assert_eq!(
            ints(a.query("SELECT * FROM t ORDER BY id").unwrap()),
            [[12, 1], [20, 5]]
        );
        a.execute("COMMIT").unwrap();
    }

    #[test]
    fn more_texts_than_the_cache_holds_stay_correct_and_bounded() {
        let mut db = conn(DbJournalMode::Wal);
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .unwrap();
        for round in 0..3i64 {
            for i in 0..200i64 {
                db.execute(&format!(
                    "INSERT OR REPLACE INTO t VALUES ({i}, {})",
                    i * round
                ))
                .unwrap();
                let got = db
                    .query_with("SELECT v FROM t WHERE id = ?", &[Value::Int(i)])
                    .unwrap();
                assert_eq!(ints(got), [[i * round]]);
                assert_eq!(
                    ints(
                        db.query(&format!("SELECT v + 1 FROM t WHERE id = {i}"))
                            .unwrap()
                    ),
                    [[i * round + 1]]
                );
                assert!(db.prepared_len() <= 64);
            }
        }
        assert_eq!(db.prepared_len(), 64);
        assert!(db.execute("SELEC 1").is_err());
        assert_eq!(db.prepared_len(), 64);
    }
}

/// WAL log reuse: a checkpoint rewinds the log under the next salt, so
/// stale frames lie past its end, and recovery must stop at the first
/// frame that is not the generation's next. Each case drives the pager
/// directly, at 512 B pages (a frame is 576 B), and cuts the power with
/// the volume as the case leaves it.
mod wal_reuse {
    use super::*;
    use crate::pager::{PageNo, Pager};

    type P = Pager<PageMappedFtl>;

    const DB: &str = "w.db";
    const WAL: &str = "w.db-wal";

    fn open(fs: &SharedFs<PageMappedFtl>) -> P {
        Pager::open(Rc::clone(fs), DB, DbJournalMode::Wal).unwrap()
    }

    /// One committed transaction filling each of `pages` with `fill`,
    /// growing the database to cover them.
    fn commit(p: &mut P, pages: &[PageNo], fill: u8) {
        p.begin().unwrap();
        for &pgno in pages {
            while p.page_count() <= pgno {
                p.alloc_page().unwrap();
            }
            p.put(pgno, vec![fill; p.page_size()]).unwrap();
        }
        p.commit().unwrap();
    }

    /// The byte every page in `pages` is filled with.
    fn fills(p: &mut P, pages: &[PageNo]) -> Vec<u8> {
        pages
            .iter()
            .map(|&pg| {
                let page = p.page(pg).unwrap();
                assert!(page.iter().all(|&b| b == page[0]), "page {pg} is torn");
                page[0]
            })
            .collect()
    }

    fn wal_bytes(fs: &SharedFs<PageMappedFtl>) -> Vec<u8> {
        let mut fs = fs.borrow_mut();
        let ino = fs.open(WAL).unwrap();
        let mut buf = vec![0u8; fs.size(ino).unwrap() as usize];
        let n = fs.read(ino, 0, &mut buf, None).unwrap();
        assert_eq!(n, buf.len());
        buf
    }

    /// Puts back the log's `page`-th page as `old` had it (zeros past its
    /// end): a page of the last write that never reached flash.
    fn tear(fs: &SharedFs<PageMappedFtl>, old: &[u8], page: usize) {
        let mut fs = fs.borrow_mut();
        let ps = fs.page_size();
        let ino = fs.open(WAL).unwrap();
        let bytes = old
            .get(page * ps..(page + 1) * ps)
            .map_or(vec![0; ps], <[u8]>::to_vec);
        fs.write(ino, (page * ps) as u64, &bytes, None).unwrap();
        fs.fdatasync(ino, None).unwrap();
    }

    /// Power cut: the device recovers from its flash, the volume is
    /// mounted again.
    fn power_cycle(fs: SharedFs<PageMappedFtl>) -> SharedFs<PageMappedFtl> {
        let fs = Rc::try_unwrap(fs).expect("sole owner").into_inner();
        let dev = PageMappedFtl::recover(fs.into_device().into_chip()).unwrap();
        let fs = FileSystem::mount(dev, JournalMode::Ordered, 512).unwrap();
        Rc::new(RefCell::new(fs))
    }

    /// The pages in which `new` differs from `old`.
    fn changed(old: &[u8], new: &[u8], ps: usize) -> Vec<usize> {
        (0..new.len() / ps)
            .filter(|&i| old.get(i * ps..(i + 1) * ps) != Some(&new[i * ps..(i + 1) * ps]))
            .collect()
    }

    /// Three generations over the same two-frame start of the log: the
    /// third's commit ends where the first's second commit began, which
    /// still holds that commit's frames under the first salt, page 2 at
    /// the value the second generation overwrote and checkpointed. Its
    /// salt and its chain each stop the scan there.
    #[test]
    fn a_stale_frame_of_an_earlier_generation_past_the_end_is_not_replayed() {
        let fs = fs_plain();
        let mut p = open(&fs);
        commit(&mut p, &[1, 2, 3], 1);
        p.wal_checkpoint().unwrap();
        commit(&mut p, &[1], 2);
        commit(&mut p, &[2], 3);
        p.wal_checkpoint().unwrap();
        commit(&mut p, &[2], 4);
        p.wal_checkpoint().unwrap();
        commit(&mut p, &[3], 5);
        drop(p);
        let fs = power_cycle(fs);
        let mut p = open(&fs);
        assert_eq!(fills(&mut p, &[1, 2, 3]), [2, 4, 5]);
    }

    /// A transaction spills nine frames and rolls back; the next commit,
    /// eight frames long, ends on a page boundary just where the ninth
    /// spilled frame begins, the same generation's and intact. The chain
    /// stops the scan there, and the commit, which continues the chain
    /// from the last commit and not from the spill, survives the cut.
    #[test]
    fn a_rolled_back_spill_under_a_shorter_commit_is_not_replayed() {
        let fs = fs_plain();
        let mut p = open(&fs);
        let pages: Vec<PageNo> = (1..=14).collect();
        commit(&mut p, &pages, 1);
        p.set_cache_capacity(4);
        p.begin().unwrap();
        for &pgno in &pages {
            p.put(pgno, vec![6; p.page_size()]).unwrap();
        }
        assert!(p.stats().spills >= 9, "{:?}", p.stats());
        p.rollback().unwrap();
        commit(&mut p, &pages[..7], 7);
        drop(p);
        let fs = power_cycle(fs);
        let mut p = open(&fs);
        let want: Vec<u8> = pages
            .iter()
            .map(|&pg| if pg <= 7 { 7 } else { 1 })
            .collect();
        assert_eq!(fills(&mut p, &pages), want);
    }

    /// The last commit's last page, which holds no frame header but the
    /// tail of its last image, never reached flash: every header is
    /// intact, and only the image checksum tells the commit is torn. It
    /// is dropped whole; the commit before it stays.
    #[test]
    fn a_torn_last_commit_is_dropped_whole() {
        let fs = fs_plain();
        let mut p = open(&fs);
        commit(&mut p, &[1, 2, 3, 4, 5, 6], 1);
        p.wal_checkpoint().unwrap();
        commit(&mut p, &[1], 2);
        let old = wal_bytes(&fs);
        commit(&mut p, &[2, 3], 3);
        drop(p);
        let new = wal_bytes(&fs);
        let ps = fs.borrow().page_size();
        let Some(&last) = changed(&old, &new, ps).last() else {
            panic!("the commit wrote nothing")
        };
        // Frames are 576 B from a page boundary: the third ends 192 B
        // into the page after its header's, and padding fills the rest.
        assert_eq!(
            new[last * ps + 192..(last + 1) * ps],
            vec![0u8; ps - 192][..]
        );
        tear(&fs, &old, last);
        let fs = power_cycle(fs);
        let mut p = open(&fs);
        assert_eq!(fills(&mut p, &[1, 2, 3]), [2, 1, 1]);
    }

    /// A commit of nine frames is torn at the page holding its fourth
    /// header, and recovery drops it. The eight-frame commit written over
    /// it ends on a page boundary where the dropped commit's ninth frame,
    /// its commit frame, still lies intact under the same salt. The chain
    /// stops the scan there: page 8 keeps its value.
    #[test]
    fn a_dropped_commit_under_a_shorter_one_stays_dropped() {
        let fs = fs_plain();
        let mut p = open(&fs);
        let pages: Vec<PageNo> = (1..=8).collect();
        commit(&mut p, &(1..=20).collect::<Vec<_>>(), 9);
        p.wal_checkpoint().unwrap();
        commit(&mut p, &pages, 1);
        let old = wal_bytes(&fs);
        commit(&mut p, &pages, 2);
        drop(p);
        let new = wal_bytes(&fs);
        let ps = fs.borrow().page_size();
        let first = changed(&old, &new, ps)[0];
        tear(&fs, &old, first + 3);
        let fs = power_cycle(fs);
        let mut p = open(&fs);
        assert_eq!(fills(&mut p, &pages), [1; 8]);
        commit(&mut p, &pages[..7], 3);
        drop(p);
        let fs = power_cycle(fs);
        let mut p = open(&fs);
        assert_eq!(fills(&mut p, &pages), [3, 3, 3, 3, 3, 3, 3, 1]);
    }

    /// The first write of a generation overwrites the last one's frames
    /// in place. Here only its third page reached flash: the previous
    /// generation's first commit has its last frame's header in an
    /// untouched page and its image's tail in that one, and its second
    /// commit is intact. The checkpoint made the new salt durable, so the
    /// scan reads none of them; had the header ridden the first write,
    /// the scan would read the old generation, check only the image of
    /// its last commit, and replay page 1 torn.
    #[test]
    fn a_torn_first_write_of_a_generation_replays_no_old_frame_it_overwrote() {
        let fs = fs_plain();
        let mut p = open(&fs);
        commit(&mut p, &[1], 1);
        commit(&mut p, &[2, 3, 4], 1);
        p.wal_checkpoint().unwrap();
        let old = wal_bytes(&fs);
        commit(&mut p, &[5, 6], 2);
        drop(p);
        let new = wal_bytes(&fs);
        let ps = fs.borrow().page_size();
        assert_eq!(changed(&old, &new, ps), [0, 1, 2, 3]);
        for page in [0, 1, 3] {
            tear(&fs, &old, page);
        }
        let fs = power_cycle(fs);
        let mut p = open(&fs);
        assert_eq!(fills(&mut p, &[1, 2, 3, 4, 5, 6]), [1, 1, 1, 1, 0, 0]);
    }
}
