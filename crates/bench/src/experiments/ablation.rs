//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **X-L2P capacity** (paper §5.3 sizes it at 500/1000 entries): does a
//!    bigger table help or hurt? Commit writes grow with table size.
//! 2. **X-FTL vs the per-call atomic-write FTL** (§3.3's argument): with a
//!    steal-y buffer manager each eviction becomes its own atomic group,
//!    costing one commit record per page; X-FTL pays one X-L2P write per
//!    transaction regardless.
//! 3. **WAL checkpoint interval**: the knob behind WAL's read overhead.
//! 4. **Barrier cost**: how much of a flush is the mapping-table persist.

use xftl_core::XFtl;
use xftl_flash::{FlashChip, FlashConfigBuilder, SimClock};
use xftl_ftl::{AtomicWriteFtl, BlockDevice, FtlStats, Personality, TxBlockDevice};
use xftl_workloads::rig::{Mode, Rig, RigConfig};
use xftl_workloads::synthetic::{self, SyntheticConfig};

use crate::metrics::{self, mode_key};
use crate::report::{secs, Table};

/// Ablation 1: X-L2P capacity sweep on the synthetic workload.
pub fn xl2p_capacity(quick: bool) -> String {
    let syn = if quick {
        SyntheticConfig {
            tuples: 3_000,
            txns: 60,
            updates_per_txn: 5,
            ..Default::default()
        }
    } else {
        SyntheticConfig {
            tuples: 20_000,
            txns: 400,
            updates_per_txn: 5,
            ..Default::default()
        }
    };
    let mut out = String::new();
    out.push_str("=== Ablation: X-L2P table capacity ===\n\n");
    let mut t = Table::new(vec!["capacity", "time (s)", "X-L2P writes", "checkpoints"]);
    for cap in [64usize, 500, 1000, 4096] {
        let hot = (syn.tuples as u64 / 33) * 2 + 1_200;
        let logical = hot * 2;
        let rig = Rig::build(RigConfig {
            mode: Mode::XFtl,
            xl2p_capacity: cap,
            blocks: ((logical / 128 + 14) as usize).max(48),
            logical_pages: logical,
            ..RigConfig::small(Mode::XFtl)
        });
        let mut db = rig.open_db("s.db");
        synthetic::load_partsupply(&mut db, &syn).expect("partsupp load failed");
        rig.reset_stats();
        let r = synthetic::run_transactions(&mut db, &rig.clock, &syn)
            .expect("transaction phase failed");
        drop(db);
        let snap = rig.snapshot();
        metrics::metric(
            format!("ablation.xl2p.cap{cap}.elapsed_ns"),
            r.elapsed_ns as f64,
        );
        metrics::metric(
            format!("ablation.xl2p.cap{cap}.xl2p_writes"),
            snap.ftl.xl2p_writes as f64,
        );
        t.row(vec![
            cap.to_string(),
            secs(r.elapsed_ns),
            snap.ftl.xl2p_writes.to_string(),
            snap.ftl.checkpoints.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// Logical pages of ablation 2's devices.
const AW_LOGICAL: u64 = 4_000;

/// Ablation 2: X-FTL vs the related-work baseline — the per-call
/// atomic-write FTL (Park et al. \[18\]) — on raw-device transactions of
/// `group` pages each, with and without steal.
pub fn atomic_write_baseline(quick: bool) -> String {
    let (txns, group) = if quick {
        (200usize, 5usize)
    } else {
        (2_000, 5)
    };
    let page = vec![0xC3u8; 8192];
    // The pages transaction `i` updates.
    let lpns = |i: u64| (0..group as u64).map(move |p| (i * group as u64 + p) % AW_LOGICAL);
    let mut out = String::new();
    out.push_str("=== Ablation: X-FTL vs atomic-write FTL [18] ===\n");
    out.push_str(&format!(
        "({txns} transactions of {group} page updates each)\n\n"
    ));
    let mut t = Table::new(vec![
        "device",
        "time (s)",
        "flash programs",
        "overhead pages",
    ]);
    // X-FTL: write_tx x group + one commit.
    baseline_row::<XFtl>(
        &mut t,
        ("X-FTL", "xftl"),
        txns,
        |s| s.xl2p_writes + s.meta_writes,
        |d, i| {
            for lpn in lpns(i) {
                d.write_tx(i + 1, lpn, &page).expect("write_tx");
            }
            d.commit(i + 1).expect("commit");
        },
    );
    // Atomic-write FTL, ideal case: the whole group in one call (only
    // possible when nothing is stolen early).
    baseline_row::<AtomicWriteFtl>(
        &mut t,
        ("atomic-write (one call/txn)", "one_call"),
        txns,
        |s| s.commit_record_writes + s.meta_writes,
        |d, i| {
            let pages: Vec<(u64, &[u8])> = lpns(i).map(|lpn| (lpn, page.as_slice())).collect();
            d.write_atomic(&pages).expect("write_atomic");
        },
    );
    // Atomic-write FTL under steal: every page eviction is its own call,
    // so every page pays a commit record (§3.3's incompatibility).
    baseline_row::<AtomicWriteFtl>(
        &mut t,
        ("atomic-write (steal: call/page)", "steal"),
        txns,
        |s| s.commit_record_writes + s.meta_writes,
        |d, i| {
            for lpn in lpns(i) {
                d.write(lpn, &page).expect("write");
            }
        },
    );
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// One row of ablation 2: `P` formatted on a fresh 64-block OpenSSD chip
/// runs `txns` transactions, the `i`-th issued by `txn(dev, i)`; its time,
/// flash programs and the overhead pages `overhead` counts are tabulated
/// under `label` and recorded under `ablation.aw.<key>`.
fn baseline_row<P: Personality>(
    t: &mut Table,
    (label, key): (&str, &str),
    txns: usize,
    overhead: fn(&FtlStats) -> u64,
    mut txn: impl FnMut(&mut P, u64),
) {
    let clock = SimClock::new();
    let chip = FlashChip::new(
        FlashConfigBuilder::openssd().blocks(64).build(),
        clock.clone(),
    );
    let mut dev = P::format(chip, AW_LOGICAL).expect("format");
    let t0 = clock.now();
    for i in 0..txns as u64 {
        txn(&mut dev, i);
    }
    let elapsed = clock.now() - t0;
    let programs = dev.base().flash_stats().programs;
    metrics::metric(format!("ablation.aw.{key}.elapsed_ns"), elapsed as f64);
    metrics::metric(format!("ablation.aw.{key}.programs"), programs as f64);
    t.row(vec![
        label.to_string(),
        secs(elapsed),
        programs.to_string(),
        overhead(dev.base().stats()).to_string(),
    ]);
}

/// Ablation 3: WAL auto-checkpoint interval.
pub fn wal_checkpoint_interval(quick: bool) -> String {
    let syn = if quick {
        SyntheticConfig {
            tuples: 3_000,
            txns: 80,
            updates_per_txn: 5,
            ..Default::default()
        }
    } else {
        SyntheticConfig {
            tuples: 20_000,
            txns: 500,
            updates_per_txn: 5,
            ..Default::default()
        }
    };
    let mut out = String::new();
    out.push_str("=== Ablation: WAL checkpoint interval ===\n\n");
    let mut t = Table::new(vec![
        "interval (frames)",
        "time (s)",
        "checkpoints",
        "db writes",
    ]);
    for interval in [250u32, 1000, 4000] {
        // The WAL itself grows to `interval` frames before a checkpoint:
        // the volume must hold it alongside the table.
        let hot = (syn.tuples as u64 / 33) * 2 + interval as u64 + 800;
        let logical = hot * 2;
        let rig = Rig::build(RigConfig {
            mode: Mode::Wal,
            blocks: ((logical / 128 + 14) as usize).max(48),
            logical_pages: logical,
            ..RigConfig::small(Mode::Wal)
        });
        let mut db = rig.open_db("s.db");
        db.pager_mut().wal_autocheckpoint = interval;
        synthetic::load_partsupply(&mut db, &syn).expect("partsupp load failed");
        db.reset_stats();
        rig.reset_stats();
        let r = synthetic::run_transactions(&mut db, &rig.clock, &syn)
            .expect("transaction phase failed");
        let stats = *db.pager_stats();
        drop(db);
        metrics::metric(
            format!("ablation.walck.i{interval}.elapsed_ns"),
            r.elapsed_ns as f64,
        );
        metrics::metric(
            format!("ablation.walck.i{interval}.checkpoints"),
            stats.checkpoints as f64,
        );
        t.row(vec![
            interval.to_string(),
            secs(r.elapsed_ns),
            stats.checkpoints.to_string(),
            stats.db_writes.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// Ablation 4: cost of the write barrier (mapping-table persist) on the
/// plain FTL, as a function of flush frequency.
pub fn barrier_cost(quick: bool) -> String {
    let writes: u64 = if quick { 2_000 } else { 20_000 };
    let logical: u64 = 4_000;
    let page = vec![0x11u8; 8192];
    let mut out = String::new();
    out.push_str("=== Ablation: write-barrier (mapping persist) cost ===\n\n");
    let mut t = Table::new(vec!["writes/flush", "time (s)", "map+meta pages"]);
    for k in [1u64, 5, 20, 100] {
        let clock = SimClock::new();
        let chip = FlashChip::new(
            FlashConfigBuilder::openssd().blocks(64).build(),
            clock.clone(),
        );
        let mut dev = xftl_ftl::PageMappedFtl::format(chip, logical).expect("format");
        let t0 = clock.now();
        for i in 0..writes {
            dev.write(i % logical, &page).expect("write");
            if (i + 1) % k == 0 {
                dev.flush().expect("flush");
            }
        }
        let elapsed = clock.now() - t0;
        let s = dev.base().stats();
        metrics::metric(format!("ablation.barrier.k{k}.elapsed_ns"), elapsed as f64);
        metrics::metric(
            format!("ablation.barrier.k{k}.map_meta_pages"),
            (s.map_writes + s.meta_writes) as f64,
        );
        t.row(vec![
            k.to_string(),
            secs(elapsed),
            (s.map_writes + s.meta_writes).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// Ablation 5: multi-file atomic transactions (§4.3) — the SQLite master
/// journal protocol vs X-FTL's shared transaction id.
pub fn multi_file_commit(quick: bool) -> String {
    use xftl_db::{begin_multi, commit_multi, Value};
    let txns = if quick { 50 } else { 400 };
    let files = 3usize;
    let mut out = String::new();
    out.push_str("=== Ablation: multi-file atomic commit (master journal vs X-FTL) ===\n");
    out.push_str(&format!(
        "({txns} transactions spanning {files} database files)\n\n"
    ));
    let mut t = Table::new(vec!["mode", "time (s)", "fsyncs", "extra files"]);
    for mode in [Mode::Rbj, Mode::XFtl] {
        let rig = Rig::build(RigConfig {
            mode,
            blocks: 96,
            logical_pages: 8_000,
            ..RigConfig::small(mode)
        });
        let mut dbs: Vec<_> = (0..files)
            .map(|i| rig.open_db(&format!("m{i}.db")))
            .collect();
        for db in &mut dbs {
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
                .expect("ddl");
            db.execute("INSERT INTO t VALUES (1, 0)").expect("seed");
        }
        rig.reset_stats();
        for db in &mut dbs {
            db.reset_stats();
        }
        let t0 = rig.clock.now();
        for i in 0..txns {
            let mut refs: Vec<&mut xftl_db::Connection<_>> = dbs.iter_mut().collect();
            begin_multi(&mut refs).expect("begin");
            for db in refs.iter_mut() {
                db.execute_with("UPDATE t SET v = ? WHERE id = 1", &[Value::Int(i as i64)])
                    .expect("update");
            }
            commit_multi(&mut refs, &format!("master-{i}")).expect("commit");
        }
        let elapsed = rig.clock.now() - t0;
        let fsyncs: u64 = dbs.iter().map(|d| d.pager_stats().fsyncs).sum();
        metrics::metric(
            format!("ablation.multifile.{}.elapsed_ns", mode_key(mode)),
            elapsed as f64,
        );
        metrics::metric(
            format!("ablation.multifile.{}.fsyncs", mode_key(mode)),
            fsyncs as f64,
        );
        let extra = match mode {
            Mode::Rbj => format!("{} masters + {} journals", txns, txns * files),
            Mode::Wal | Mode::XFtl => "none".to_string(),
        };
        t.row(vec![
            mode.label().to_string(),
            secs(elapsed),
            fsyncs.to_string(),
            extra,
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// Ablation 6: rollback-journal finalization strategy (SQLite's
/// journal_mode DELETE vs TRUNCATE vs PERSIST), against X-FTL.
pub fn journal_finalization(quick: bool) -> String {
    use xftl_db::{Connection, DbJournalMode, Value};
    let txns = if quick { 60 } else { 500 };
    let mut out = String::new();
    out.push_str("=== Ablation: rollback-journal finalization (DELETE/TRUNCATE/PERSIST) ===\n");
    out.push_str(&format!("({txns} single-update transactions)\n\n"));
    let mut t = Table::new(vec!["mode", "time (s)", "fsyncs", "dirsyncs"]);
    let variants: [(&str, Option<DbJournalMode>); 4] = [
        ("DELETE", Some(DbJournalMode::Rollback)),
        ("TRUNCATE", Some(DbJournalMode::RollbackTruncate)),
        ("PERSIST", Some(DbJournalMode::RollbackPersist)),
        ("X-FTL (off)", None),
    ];
    for (label, db_mode) in variants {
        let rig_mode = if db_mode.is_some() {
            Mode::Rbj
        } else {
            Mode::XFtl
        };
        let rig = Rig::build(RigConfig {
            mode: rig_mode,
            blocks: 72,
            logical_pages: 5_000,
            ..RigConfig::small(rig_mode)
        });
        let mut db = match db_mode {
            Some(m) => Connection::open(rig.fs.clone(), "j.db", m).expect("open"),
            None => rig.open_db("j.db"),
        };
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)")
            .expect("ddl");
        for i in 0..50i64 {
            db.execute_with("INSERT INTO t VALUES (?, 0)", &[Value::Int(i)])
                .expect("seed");
        }
        db.reset_stats();
        let t0 = rig.clock.now();
        for i in 0..txns as i64 {
            db.execute_with(
                "UPDATE t SET v = ? WHERE id = ?",
                &[Value::Int(i), Value::Int(i % 50)],
            )
            .expect("update");
        }
        let elapsed = rig.clock.now() - t0;
        let s = db.pager_stats();
        let key = label
            .split_whitespace()
            .next()
            .unwrap_or(label)
            .to_ascii_lowercase();
        metrics::metric(format!("ablation.jfin.{key}.elapsed_ns"), elapsed as f64);
        metrics::metric(format!("ablation.jfin.{key}.fsyncs"), s.fsyncs as f64);
        t.row(vec![
            label.to_string(),
            secs(elapsed),
            s.fsyncs.to_string(),
            s.dirsyncs.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// All ablations.
pub fn all(quick: bool) -> String {
    let mut out = String::new();
    out.push_str(&xl2p_capacity(quick));
    out.push_str(&atomic_write_baseline(quick));
    out.push_str(&wal_checkpoint_interval(quick));
    out.push_str(&barrier_cost(quick));
    out.push_str(&multi_file_commit(quick));
    out.push_str(&journal_finalization(quick));
    out
}
