//! `host.*`: what the simulator itself costs the host, by isolated calls
//! into each layer's public functions (the cases of `benches/micro.rs`,
//! recorded instead of printed). Each case is calibrated to a batch of
//! roughly `batch_ns` of host time and reported as the median ns per call
//! over [`BATCHES`] batches.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant; // xftl-analyze: allow(sim-clock): these cases measure host time per call by design

use xftl_core::{XFtl, Xl2pTable};
use xftl_db::{record, Connection, DbJournalMode, Value};
use xftl_flash::{FlashChip, FlashConfigBuilder, Oob, Ppa, SimClock};
use xftl_fs::{FileSystem, FsConfig, JournalMode};
use xftl_ftl::{BlockDevice, PageMappedFtl, TxBlockDevice};

use crate::lap::Res;
use crate::layers::Metric;
use crate::stats::median;

/// Batches per case.
pub const BATCHES: usize = 5;

/// Median ns per call of `f` over [`BATCHES`] batches of about
/// `batch_ns` each.
fn time_case(batch_ns: u64, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    const CALIBRATION: u32 = 16;
    let t0 = Instant::now(); // xftl-analyze: allow(sim-clock): calibration pass, host time
    for _ in 0..CALIBRATION {
        f()?;
    }
    let per_call = (t0.elapsed().as_nanos() as u64 / u64::from(CALIBRATION)).max(1);
    let calls = (batch_ns / per_call).clamp(4, 4_000_000);
    let mut per_call_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now(); // xftl-analyze: allow(sim-clock): one measured batch, host time
        for _ in 0..calls {
            f()?;
        }
        per_call_ns.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    Ok(median(&mut per_call_ns))
}

fn chip(blocks: usize) -> FlashChip {
    FlashChip::new(
        FlashConfigBuilder::openssd().blocks(blocks).build(),
        SimClock::new(),
    )
}

fn sql_db() -> Res<Connection<XFtl>> {
    let dev = XFtl::format(chip(80), 6000)?;
    let fs = FileSystem::mkfs_tx(dev, JournalMode::Off, FsConfig::default())?;
    let fs = Rc::new(RefCell::new(fs));
    let mut db = Connection::open(fs, "bench.db", DbJournalMode::Off)?;
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")?;
    for i in 0..500i64 {
        db.execute_with("INSERT INTO t VALUES (?, 'payload')", &[Value::Int(i)])?;
    }
    Ok(db)
}

/// Runs every case; `batch_ns` is 0.2 s in a real run, tiny under
/// `--check`.
pub fn metrics(batch_ns: u64) -> Res<Vec<Metric>> {
    let mut out = Vec::new();
    let mut put = |name: &str, value| out.push(Metric::new(name, "ns", value));
    // Not a constant fill: the chip stores those in one byte, and the
    // cases below are to pay for the 8 KB copies real pages cost.
    let page: Vec<u8> = (0..8192u32).map(|i| ((i * 31) >> 3) as u8).collect();
    let mut buf = vec![0u8; 8192];

    {
        let mut c = chip(64);
        let span = 63 * 128;
        let mut i = 0u64;
        let ns = time_case(batch_ns, || {
            let ppa = Ppa::from_linear(i % span, 128);
            if ppa.page == 0 && !c.is_erased(ppa) {
                c.erase(ppa.block)?;
            }
            c.program(ppa, &page, Oob::data(i))?;
            i += 1;
            Ok(())
        })?;
        put("host.flash_program_ns", ns);
    }
    {
        let mut c = chip(64);
        for i in 0..1024u64 {
            c.program(Ppa::from_linear(i, 128), &page, Oob::data(i))?;
        }
        let mut i = 0u64;
        let ns = time_case(batch_ns, || {
            black_box(c.read(Ppa::from_linear(i % 1024, 128), &mut buf)?);
            i += 1;
            Ok(())
        })?;
        put("host.flash_read_ns", ns);
    }
    {
        let mut dev = PageMappedFtl::format(chip(64), 4000)?;
        let mut i = 0u64;
        let ns = time_case(batch_ns, || {
            dev.write(i % 4000, &page)?;
            i += 1;
            Ok(())
        })?;
        put("host.ftl_write_ns", ns);
        let ns = time_case(batch_ns, || {
            dev.read(i % 4000, &mut buf)?;
            i += 1;
            Ok(())
        })?;
        put("host.ftl_read_ns", ns);
    }
    {
        let mut dev = XFtl::format(chip(64), 4000)?;
        let mut tid = 1u64;
        let ns = time_case(batch_ns, || {
            for p in 0..5u64 {
                dev.write_tx(tid, (tid * 5 + p) % 4000, &page)?;
            }
            dev.commit(tid)?;
            tid += 1;
            Ok(())
        })?;
        put("host.core_commit5_ns", ns);
    }
    {
        let mut t = Xl2pTable::new(500);
        for i in 0..400u64 {
            t.upsert(i % 8 + 1, i, Ppa::new(1, (i % 128) as u32))
                .map_err(|e| format!("xl2p upsert: {e:?}"))?;
        }
        let mut i = 0u64;
        let ns = time_case(batch_ns, || {
            black_box(t.lookup(i % 8 + 1, i % 400));
            i += 1;
            Ok(())
        })?;
        put("host.xl2p_lookup_ns", ns);
    }
    {
        let dev = XFtl::format(chip(80), 6000)?;
        let mut fs = FileSystem::mkfs_tx(dev, JournalMode::Off, FsConfig::default())?;
        let ino = fs.create("f")?;
        let mut i = 0u64;
        let ns = time_case(batch_ns, || {
            let tid = fs.begin_tx();
            fs.write(ino, (i % 256) * 8192, &page, Some(tid))?;
            fs.fsync(ino, Some(tid))?;
            i += 1;
            Ok(())
        })?;
        put("host.fs_write_fsync_ns", ns);
    }
    {
        let mut db = sql_db()?;
        let mut i = 0i64;
        let ns = time_case(batch_ns, || {
            black_box(db.query_with("SELECT v FROM t WHERE id = ?", &[Value::Int(i % 500)])?);
            i += 1;
            Ok(())
        })?;
        put("host.db_point_select_ns", ns);
        let ns = time_case(batch_ns, || {
            db.execute_with("UPDATE t SET v = 'x' WHERE id = ?", &[Value::Int(i % 500)])?;
            i += 1;
            Ok(())
        })?;
        put("host.db_update_txn_ns", ns);
    }
    {
        let row = vec![
            Value::Int(42),
            Value::Text("a moderately sized text field for the row".into()),
            Value::Real(3.25),
            Value::Blob(vec![7u8; 64]),
        ];
        let ns = time_case(batch_ns, || {
            let enc = record::encode_record(&row);
            black_box(record::decode_record(&enc)?);
            Ok(())
        })?;
        put("host.record_codec_ns", ns);
    }
    Ok(out)
}
