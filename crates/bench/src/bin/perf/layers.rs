//! Per-layer metrics: one traced lap's counter differences and probe
//! spans, turned into the named numbers of `BENCHMARK.json`.
//!
//! Layers are the crate names. Counts are per op over the measured
//! phase unless the unit says otherwise; a metric that does not apply to
//! a workload (no `core` under WAL, no `db` under `fsync-qd8`, …) reads 0,
//! which is itself a checked prediction. The same set of names is
//! reported on every workload.

use xftl_trace::{HistSummary, OpClass};

use crate::lap::{Lap, TXN_CLASSES};
use crate::probe::{Call, SpanTotals};
use crate::stats::quantile;

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// Which workload-specific host self-time metric the op span minus the
/// device-probe spans feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AboveDevice {
    /// `oltp-*`: database + file system → `db.above_dev_host_us_per_op`.
    Db,
    /// `fsync-qd8`: file system alone → `fs.self_host_us_per_op`.
    Fs,
    /// `dev-steady`: nothing above the device.
    Nothing,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn summary(lap: &Lap, op: OpClass) -> HistSummary {
    lap.counts
        .tele
        .iter()
        .find(|(o, _)| *o == op)
        .map(|(_, s)| *s)
        .unwrap_or_default()
}

/// The stack-derived per-layer metrics of one traced lap (everything but
/// the `host.*` group, which comes from isolated calls and lap timing).
pub fn metrics(lap: &Lap, above: AboveDevice) -> Vec<Metric> {
    let c = &lap.counts;
    let ops = lap.ops();
    let per_op = |n: u64| n as f64 / ops;
    let per_kop = |n: u64| n as f64 * 1e3 / ops;
    let ms = |ns: f64| ns / 1e6;
    let sim = lap.phase_sim_ns.max(1) as f64;
    let none = SpanTotals::default();
    let inner = c.inner.as_ref().unwrap_or(&none);
    let mut out = Vec::new();
    let mut put = |name: &str, unit, value| out.push(Metric::new(name, unit, value));

    // flash: chip time is the floor under every workload.
    put("flash.busy_frac", "ratio", c.flash.busy_ns() as f64 / sim);
    put(
        "flash.chan_busy_max_frac",
        "ratio",
        c.flash.max_channel_busy_ns() as f64 / sim,
    );
    put(
        "flash.queue_wait_ms_per_op",
        "ms",
        ms(c.flash.queue_wait_ns as f64) / ops,
    );
    put(
        "flash.mean_queue_depth",
        "count",
        c.flash.mean_queue_depth(),
    );
    put("flash.oob_reads_per_op", "pages", per_op(c.flash.oob_reads));

    // ftl: write amplification, GC, mapping cache, link and device time.
    put(
        "ftl.write_amp",
        "ratio",
        ratio(c.ftl.total_writes(), c.ftl.data_writes),
    );
    put("ftl.gc_copies_per_op", "pages", per_op(c.ftl.gc_copies));
    put("ftl.gc_runs_per_kop", "count", per_kop(c.ftl.gc_runs));
    put(
        "ftl.gc_victim_validity",
        "ratio",
        c.ftl.mean_gc_validity().unwrap_or(0.0),
    );
    put(
        "ftl.map_writes_per_op",
        "pages",
        per_op(c.ftl.map_writes + c.ftl.gtd_writes),
    );
    put("ftl.meta_writes_per_op", "pages", per_op(c.ftl.meta_writes));
    put(
        "ftl.cmt_hit_ratio",
        "ratio",
        c.ftl.map_cache_hit_rate().unwrap_or(0.0),
    );
    put(
        "ftl.cmt_demand_loads_per_op",
        "pages",
        per_op(c.ftl.map_demand_loads),
    );
    put(
        "ftl.cmt_dirty_evictions_per_kop",
        "count",
        per_kop(c.ftl.map_evictions_dirty),
    );
    put(
        "ftl.cmt_flush_batches_per_kop",
        "count",
        per_kop(c.ftl.map_flush_batches),
    );
    // Link self time: outer probe minus inner probe. No link, no metric.
    let link_sim = c
        .outer
        .as_ref()
        .map_or(0, |o| o.sim_ns().saturating_sub(inner.sim_ns()));
    put("ftl.sata_sim_ms_per_op", "ms", ms(link_sim as f64) / ops);
    put(
        "ftl.dev_sim_ms_per_op",
        "ms",
        ms(inner.sim_ns() as f64) / ops,
    );
    put(
        "ftl.dev_host_us_per_op",
        "us",
        inner.host_ns() as f64 / 1e3 / ops,
    );

    // core: the X-L2P commit path. All zero where no commit is issued.
    put(
        "core.xl2p_writes_per_commit",
        "pages",
        ratio(c.ftl.xl2p_writes, c.dev.commits),
    );
    put(
        "core.commit_record_writes_per_commit",
        "pages",
        ratio(c.ftl.commit_record_writes, c.dev.commits),
    );
    let mut commits = inner.commit_sim_ns.clone();
    commits.sort_unstable();
    put("core.commit_sim_ms_p50", "ms", ms(quantile(&commits, 0.5)));
    put("core.commit_sim_ms_p99", "ms", ms(quantile(&commits, 0.99)));
    put(
        "core.commits_per_group_flush",
        "ratio",
        ratio(c.ftl.commits_coalesced, c.ftl.group_commit_flushes),
    );
    let read_tx = inner.of(Call::ReadTx);
    put(
        "core.read_tx_host_ns",
        "ns",
        ratio(read_tx.host_ns, read_tx.count),
    );

    // fs: fsync protocol, journal, cache.
    put("fs.fsyncs_per_op", "count", per_op(c.fs.fsyncs));
    put("fs.barriers_per_op", "count", per_op(c.fs.barriers));
    put(
        "fs.journal_writes_per_op",
        "pages",
        per_op(c.fs.journal_writes),
    );
    put("fs.meta_writes_per_op", "pages", per_op(c.fs.meta_writes));
    put("fs.data_writes_per_op", "pages", per_op(c.fs.data_writes));
    put(
        "fs.checkpoint_writes_per_op",
        "pages",
        per_op(c.fs.checkpoint_writes),
    );
    put("fs.cache_evictions_per_op", "pages", per_op(c.fs.evictions));
    put("fs.dev_reads_per_op", "pages", per_op(c.fs.reads));
    let fsync = summary(lap, OpClass::FsFsync);
    put("fs.fsync_sim_ms_p50", "ms", ms(fsync.p50_ns as f64));
    put("fs.fsync_sim_ms_p99", "ms", ms(fsync.p99_ns as f64));
    // Host time spent above the device boundary: op span minus the
    // outermost probe's spans.
    let above_host_us = c.outer.as_ref().map_or(0.0, |o| {
        lap.phase_host_ns.saturating_sub(o.host_ns()) as f64 / 1e3 / ops
    });
    put(
        "fs.self_host_us_per_op",
        "us",
        if above == AboveDevice::Fs {
            above_host_us
        } else {
            0.0
        },
    );

    // db: pager traffic, statements, per-class latency.
    put(
        "db.pager_db_writes_per_op",
        "pages",
        per_op(c.pager.db_writes),
    );
    put(
        "db.pager_journal_writes_per_op",
        "pages",
        per_op(c.pager.journal_writes),
    );
    put("db.pager_fsyncs_per_op", "count", per_op(c.pager.fsyncs));
    put("db.pager_reads_per_op", "pages", per_op(c.pager.reads));
    put("db.pager_spills_per_kop", "count", per_kop(c.pager.spills));
    put(
        "db.wal_checkpoints_per_kop",
        "count",
        per_kop(c.pager.checkpoints),
    );
    let stmt = summary(lap, OpClass::SqlStatement);
    put("db.stmts_per_op", "count", per_op(stmt.count));
    put("db.stmt_sim_ms_p50", "ms", ms(stmt.p50_ns as f64));
    for (class, lat) in TXN_CLASSES.iter().zip(&c.class_lat_ns) {
        put(
            &format!("db.txn_sim_ms_p50.{class}"),
            "ms",
            ms(quantile(lat, 0.5)),
        );
    }
    put(
        "db.above_dev_host_us_per_op",
        "us",
        if above == AboveDevice::Db {
            above_host_us
        } else {
            0.0
        },
    );
    out
}

/// Where one op's time goes, as text: the probes' self times against the
/// op span, with the residual, on both clocks. With one client and no
/// concurrency a layer can save at most its row.
pub fn waterfall(lap: &Lap) -> String {
    let c = &lap.counts;
    let ops = lap.ops();
    let none = SpanTotals::default();
    let inner = c.inner.as_ref().unwrap_or(&none);
    let outer = c.outer.as_ref().unwrap_or(inner);
    let row = |what: &str, sim_ns: u64, host_ns: u64| {
        format!(
            "  {what:<34} {:>10.4} ms sim {:>10.2} us host\n",
            sim_ns as f64 / 1e6 / ops,
            host_ns as f64 / 1e3 / ops
        )
    };
    let mut s = String::from("per-op time by layer (exclusive; rows sum to the op span):\n");
    s += &row(
        "above the device (db, fs, client)",
        lap.phase_sim_ns.saturating_sub(outer.sim_ns()),
        lap.phase_host_ns.saturating_sub(outer.host_ns()),
    );
    s += &row(
        "SATA link",
        outer.sim_ns().saturating_sub(inner.sim_ns()),
        outer.host_ns().saturating_sub(inner.host_ns()),
    );
    s += &row("ftl + flash (inner probe)", inner.sim_ns(), inner.host_ns());
    s += &row("op span", lap.phase_sim_ns, lap.phase_host_ns);
    s += &format!(
        "  of the inner probe's simulated time, the chips were busy {:.4} ms/op \
         (read {:.4}, program {:.4}, erase {:.4})\n",
        c.flash.busy_ns() as f64 / 1e6 / ops,
        c.flash.busy_read_ns as f64 / 1e6 / ops,
        c.flash.busy_program_ns as f64 / 1e6 / ops,
        c.flash.busy_erase_ns as f64 / 1e6 / ops,
    );
    s
}
