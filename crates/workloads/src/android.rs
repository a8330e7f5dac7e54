//! Android smartphone trace synthesizers (§6.2, Table 2).
//!
//! The paper replays SQL traces captured from four real applications (RL
//! Benchmark, Gmail, Facebook, the stock web browser). The traces
//! themselves are not published; what *is* published is their structure —
//! Table 2: number of database files, tables, and statements of each kind,
//! plus the average number of updated pages per transaction. These
//! generators synthesize statement streams matching those published
//! statistics exactly (at scale 1.0), with per-application touches the
//! paper calls out: Facebook stores thumbnail blobs, the browser is
//! join-heavy, Gmail is insert-heavy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_db::{Connection, Value};

use crate::rig::Rig;

/// Published per-trace statistics (Table 2).
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs, reason = "fields mirror Table 2's row labels")]
pub struct TraceSpec {
    pub name: &'static str,
    pub db_files: usize,
    pub tables: usize,
    pub selects: usize,
    pub joins: usize,
    pub inserts: usize,
    pub updates: usize,
    pub deletes: usize,
    pub ddl: usize,
    /// Published average updated pages per transaction (for Table 2).
    pub paper_pages_per_txn: f64,
    /// Write statements grouped per transaction by the synthesizer.
    pub txn_batch: usize,
    /// Blob payload bytes attached to a fraction of inserts (0 = none).
    pub blob_bytes: usize,
    /// Text payload bytes for ordinary inserts.
    pub text_bytes: usize,
}

/// RL Benchmark: write-intensive single-file microbenchmark.
pub const RL_BENCHMARK: TraceSpec = TraceSpec {
    name: "RL Benchmark",
    db_files: 1,
    tables: 3,
    selects: 5_200,
    joins: 0,
    inserts: 51_002,
    updates: 26_000,
    deletes: 2,
    ddl: 30,
    paper_pages_per_txn: 3.31,
    txn_batch: 2,
    blob_bytes: 0,
    text_bytes: 60,
};

/// Gmail: insert-heavy mail store across 2 files / 31 tables.
pub const GMAIL: TraceSpec = TraceSpec {
    name: "Gmail",
    db_files: 2,
    tables: 31,
    selects: 3_540,
    joins: 1_381,
    inserts: 7_288,
    updates: 889,
    deletes: 2_357,
    ddl: 78,
    paper_pages_per_txn: 4.93,
    txn_batch: 3,
    blob_bytes: 0,
    text_bytes: 400,
};

/// Facebook: 11 files, thumbnails stored as blobs.
pub const FACEBOOK: TraceSpec = TraceSpec {
    name: "Facebook",
    db_files: 11,
    tables: 72,
    selects: 1_687,
    joins: 28,
    inserts: 2_403,
    updates: 430,
    deletes: 117,
    ddl: 259,
    paper_pages_per_txn: 2.29,
    txn_batch: 1,
    blob_bytes: 4_096,
    text_bytes: 150,
};

/// Web browser: history/cookie churn, join-heavy.
pub const WEB_BROWSER: TraceSpec = TraceSpec {
    name: "WebBrowser",
    db_files: 6,
    tables: 26,
    selects: 1_954,
    joins: 1_351,
    inserts: 1_261,
    updates: 1_813,
    deletes: 1_373,
    ddl: 177,
    paper_pages_per_txn: 2.95,
    txn_batch: 1,
    blob_bytes: 0,
    text_bytes: 120,
};

/// All four traces, in the paper's presentation order.
pub const ALL_TRACES: [TraceSpec; 4] = [RL_BENCHMARK, GMAIL, FACEBOOK, WEB_BROWSER];

impl TraceSpec {
    /// Total statement count (the paper's "# of queries").
    pub fn total_queries(&self) -> usize {
        self.selects + self.joins + self.inserts + self.updates + self.deletes + self.ddl
    }
}

/// One replayable operation.
#[derive(Debug, Clone)]
#[allow(
    missing_docs,
    reason = "variants mirror the SQL operations they replay"
)]
pub enum TraceOp {
    Begin(usize),
    Commit(usize),
    Stmt {
        file: usize,
        sql: String,
        params: Vec<Value>,
    },
}

/// Result of replaying one trace.
#[derive(Debug, Clone, Copy)]
#[allow(
    missing_docs,
    reason = "fields are named after the quantities they hold"
)]
pub struct TraceResult {
    pub elapsed_ns: u64,
    pub statements: usize,
    pub write_txns: usize,
    /// Measured DB pages written per write transaction.
    pub measured_pages_per_txn: f64,
}

/// Synthesizes a statement stream matching `spec`'s statistics, scaled by
/// `scale` (1.0 = the full published counts).
pub fn synthesize(spec: &TraceSpec, scale: f64, seed: u64) -> Vec<TraceOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sc = |n: usize| ((n as f64 * scale).round() as usize).max(if n > 0 { 1 } else { 0 });
    let tables_per_file = spec.tables.div_ceil(spec.db_files);
    let mut ops = Vec::new();

    // DDL phase: create every table, then spend the remaining DDL budget
    // on indexes (RL Benchmark's trace also drops a table at the end; the
    // two DELETE statements there are modelled as deletes).
    let mut table_names: Vec<(usize, String)> = Vec::new();
    for t in 0..spec.tables {
        let file = t / tables_per_file;
        let name = format!("t{file}_{t}");
        ops.push(TraceOp::Stmt {
            file,
            sql: format!("CREATE TABLE {name} (id INTEGER PRIMARY KEY, k INT, s TEXT, b BLOB)"),
            params: vec![],
        });
        table_names.push((file, name));
    }
    // One real index per table; the rest of the DDL budget replays as
    // idempotent re-issues (the traces' PRAGMA/DDL chatter does not keep
    // adding indexes).
    let index_budget = spec.ddl.saturating_sub(spec.tables);
    for i in 0..index_budget {
        let (file, name) = &table_names[i % table_names.len()];
        ops.push(TraceOp::Stmt {
            file: *file,
            sql: format!("CREATE INDEX IF NOT EXISTS ix_{name} ON {name} (k)"),
            params: vec![],
        });
    }

    // DML phase: interleave statement kinds in proportion to the remaining
    // budget, grouping consecutive writes into transactions of txn_batch.
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Select,
        Join,
        Insert,
        Update,
        Delete,
    }
    let mut remaining = [
        (Kind::Select, sc(spec.selects)),
        (Kind::Join, sc(spec.joins)),
        (Kind::Insert, sc(spec.inserts)),
        (Kind::Update, sc(spec.updates)),
        (Kind::Delete, sc(spec.deletes)),
    ];
    // Per-table live-row tracking so updates/deletes hit real rows.
    let mut next_id: Vec<i64> = vec![1; table_names.len()];
    let mut low_id: Vec<i64> = vec![1; table_names.len()];
    let text: String = "lorem ipsum dolor sit amet "
        .chars()
        .cycle()
        .take(spec.text_bytes)
        .collect();

    let mut open_txn: Option<(usize, usize)> = None; // (file, writes so far)
    loop {
        let total: usize = remaining.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            break;
        }
        let mut pick = rng.gen_range(0..total);
        let kind = remaining
            .iter_mut()
            .find_map(|(k, n)| {
                if *n == 0 {
                    return None;
                }
                if pick < *n {
                    *n -= 1;
                    Some(*k)
                } else {
                    pick -= *n;
                    None
                }
            })
            .expect("non-empty remaining");
        let ti = rng.gen_range(0..table_names.len());
        let (file, name) = table_names[ti].clone();
        let is_write = matches!(kind, Kind::Insert | Kind::Update | Kind::Delete);
        if is_write {
            match open_txn {
                Some((f, _)) if f != file => {
                    ops.push(TraceOp::Commit(f));
                    ops.push(TraceOp::Begin(file));
                    open_txn = Some((file, 0));
                }
                None => {
                    ops.push(TraceOp::Begin(file));
                    open_txn = Some((file, 0));
                }
                _ => {}
            }
        } else if let Some((f, _)) = open_txn.take() {
            // Reads run outside write transactions, as SQLite's autocommit
            // reads would between app transactions.
            ops.push(TraceOp::Commit(f));
        }
        match kind {
            Kind::Select => ops.push(TraceOp::Stmt {
                file,
                sql: format!("SELECT s FROM {name} WHERE id = ?"),
                params: vec![Value::Int(
                    rng.gen_range(low_id[ti]..next_id[ti].max(low_id[ti] + 1)),
                )],
            }),
            Kind::Join => {
                // Join with a sibling table in the same file.
                let tj = table_names
                    .iter()
                    .enumerate()
                    .filter(|(j, (f, _))| *f == file && *j != ti)
                    .map(|(j, _)| j)
                    .next()
                    .unwrap_or(ti);
                let other = &table_names[tj].1;
                ops.push(TraceOp::Stmt {
                    file,
                    sql: format!(
                        "SELECT a.id FROM {name} a JOIN {other} b ON a.k = b.k WHERE a.id = ?"
                    ),
                    params: vec![Value::Int(
                        rng.gen_range(low_id[ti]..next_id[ti].max(low_id[ti] + 1)),
                    )],
                });
            }
            Kind::Insert => {
                let use_blob = spec.blob_bytes > 0 && rng.gen_bool(0.3);
                let blob = if use_blob {
                    Value::Blob(vec![0xAB; spec.blob_bytes])
                } else {
                    Value::Null
                };
                ops.push(TraceOp::Stmt {
                    file,
                    sql: format!("INSERT INTO {name} (k, s, b) VALUES (?, ?, ?)"),
                    params: vec![
                        Value::Int(rng.gen_range(0..1000)),
                        Value::Text(text.clone()),
                        blob,
                    ],
                });
                next_id[ti] += 1;
            }
            Kind::Update => ops.push(TraceOp::Stmt {
                file,
                sql: format!("UPDATE {name} SET s = ? WHERE id = ?"),
                params: vec![
                    Value::Text(text.clone()),
                    Value::Int(rng.gen_range(low_id[ti]..next_id[ti].max(low_id[ti] + 1))),
                ],
            }),
            Kind::Delete => {
                let id = low_id[ti];
                if id < next_id[ti] {
                    low_id[ti] += 1;
                }
                ops.push(TraceOp::Stmt {
                    file,
                    sql: format!("DELETE FROM {name} WHERE id = ?"),
                    params: vec![Value::Int(id)],
                });
            }
        }
        if is_write {
            if let Some((f, w)) = &mut open_txn {
                *w += 1;
                if *w >= spec.txn_batch {
                    ops.push(TraceOp::Commit(*f));
                    open_txn = None;
                }
            }
        }
    }
    if let Some((f, _)) = open_txn {
        ops.push(TraceOp::Commit(f));
    }
    ops
}

/// Host CPU time charged per replayed statement.
const CPU_STMT_NS: u64 = 70_000;

/// Replays a synthesized trace on the rig, one connection per DB file.
pub fn replay(rig: &Rig, spec: &TraceSpec, ops: &[TraceOp]) -> TraceResult {
    let mut dbs: Vec<Connection<crate::rig::AnyDev>> = (0..spec.db_files)
        .map(|f| {
            rig.open_db(&format!(
                "{}-{f}.db",
                spec.name.replace(' ', "_").to_lowercase()
            ))
        })
        .collect();
    let t0 = rig.clock.now();
    let mut statements = 0usize;
    let mut write_txns = 0usize;
    for op in ops {
        match op {
            TraceOp::Begin(f) => {
                dbs[*f].execute("BEGIN").expect("begin");
            }
            TraceOp::Commit(f) => {
                dbs[*f].execute("COMMIT").expect("commit");
                write_txns += 1;
            }
            TraceOp::Stmt { file, sql, params } => {
                rig.clock.advance(CPU_STMT_NS);
                dbs[*file]
                    .execute_with(sql, params)
                    .expect("trace statement");
                statements += 1;
            }
        }
    }
    let elapsed_ns = rig.clock.now() - t0;
    // "Updated pages per transaction": the pages each commit ships — WAL
    // frames in WAL mode (checkpoint re-copies excluded), direct DB writes
    // otherwise.
    let pages: u64 = dbs
        .iter()
        .map(|db| {
            let s = db.pager_stats();
            if s.journal_writes > 0 {
                s.journal_writes
            } else {
                s.db_writes
            }
        })
        .sum();
    TraceResult {
        elapsed_ns,
        statements,
        write_txns,
        measured_pages_per_txn: if write_txns > 0 {
            pages as f64 / write_txns as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{Mode, Rig, RigConfig};

    #[test]
    fn specs_match_table2_totals() {
        assert_eq!(RL_BENCHMARK.total_queries(), 82_234);
        assert_eq!(GMAIL.total_queries(), 15_533);
        assert_eq!(FACEBOOK.total_queries(), 4_924);
        assert_eq!(WEB_BROWSER.total_queries(), 7_929);
    }

    #[test]
    fn synthesis_produces_right_statement_counts_at_scale_1() {
        let ops = synthesize(&GMAIL, 1.0, 3);
        let stmts = ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Stmt { .. }))
            .count();
        assert_eq!(stmts, GMAIL.total_queries());
    }

    #[test]
    fn begins_and_commits_are_balanced() {
        let ops = synthesize(&WEB_BROWSER, 0.05, 5);
        let begins = ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Begin(_)))
            .count();
        let commits = ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Commit(_)))
            .count();
        assert_eq!(begins, commits);
        assert!(begins > 0);
    }

    #[test]
    fn small_scale_trace_replays_in_every_mode() {
        for mode in [Mode::Wal, Mode::XFtl] {
            let rig = Rig::build(RigConfig::small(mode));
            let spec = WEB_BROWSER;
            let ops = synthesize(&spec, 0.02, 9);
            let r = replay(&rig, &spec, &ops);
            assert!(r.statements > 100, "{mode:?}");
            assert!(r.elapsed_ns > 0);
            assert!(r.write_txns > 0);
        }
    }

    #[test]
    fn facebook_trace_carries_blobs() {
        let ops = synthesize(&FACEBOOK, 0.05, 11);
        let has_blob = ops.iter().any(|o| match o {
            TraceOp::Stmt { params, .. } => params
                .iter()
                .any(|p| matches!(p, Value::Blob(b) if b.len() >= 4096)),
            TraceOp::Begin(_) | TraceOp::Commit(_) => false,
        });
        assert!(has_blob, "Facebook inserts must include thumbnail blobs");
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize(&GMAIL, 0.02, 123);
        let b = synthesize(&GMAIL, 0.02, 123);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (TraceOp::Stmt { sql: s1, .. }, TraceOp::Stmt { sql: s2, .. }) => {
                    assert_eq!(s1, s2);
                }
                (TraceOp::Begin(f1), TraceOp::Begin(f2)) => assert_eq!(f1, f2),
                (TraceOp::Commit(f1), TraceOp::Commit(f2)) => assert_eq!(f1, f2),
                _ => panic!("op kind mismatch"),
            }
        }
    }
}
