//! The connection: the `sqlite3*`-equivalent handle.
//!
//! A [`Connection`] owns one database file's pager and catalog. Statements
//! run inside the open explicit transaction if there is one (`BEGIN` ...
//! `COMMIT`), otherwise each statement is auto-wrapped in its own
//! transaction — SQLite's autocommit behaviour, which is what makes the
//! per-transaction journal costs of Figure 1 so dominant for the
//! one-statement transactions typical of smartphone apps.
//!
//! Applications repeat a handful of SQL texts, so the connection keeps
//! each text's parse tree and — for DML — its plan (`sqlite3_prepare`
//! without the handle): `Prepared`, looked up by text, the plan valid
//! for one [`Catalog::generation`].

use xftl_ftl::{BlockDevice, Tid};

use crate::catalog::Catalog;
use crate::error::{DbError, Result};
use crate::exec::{self, ExecOutcome, Plan};
use crate::pager::{DbJournalMode, Pager, PagerStats, SharedFs};
use crate::sql::{parse, Stmt};
use crate::value::Value;

/// SQL texts the connection keeps prepared. A working set beyond this
/// (ad-hoc SQL with literals spelled in) re-parses; the least recently
/// used text makes room.
const PREPARED_CAP: usize = 64;

/// One SQL text, parsed, and planned once it has run.
#[derive(Debug)]
struct Prepared {
    sql: String,
    stmt: Stmt,
    /// The plan and the catalog generation it was compiled under.
    plan: Option<(u64, Plan)>,
    last_used: u64,
}

/// A connection to one database file.
#[derive(Debug)]
pub struct Connection<D: BlockDevice> {
    pager: Pager<D>,
    catalog: Catalog,
    explicit_tx: bool,
    prepared: Vec<Prepared>,
    uses: u64,
}

impl<D: BlockDevice> Connection<D> {
    /// Opens (creating if needed) the database `name` on the shared file
    /// system, running in the given journal mode. Recovery — rolling back
    /// a hot journal, rebuilding the WAL index — happens here, exactly as
    /// in SQLite's first access after a crash (§6.4).
    pub fn open(fs: SharedFs<D>, name: &str, mode: DbJournalMode) -> Result<Self> {
        let mut pager = Pager::open(fs, name, mode)?;
        let catalog = Catalog::load(&mut pager)?;
        Ok(Connection {
            pager,
            catalog,
            explicit_tx: false,
            prepared: Vec::new(),
            uses: 0,
        })
    }

    /// Executes one SQL statement without parameters.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        self.execute_with(sql, &[])
    }

    /// Installs a telemetry handle and its timestamp clock on the pager
    /// (pass clones of the stack-wide pair) so SQL statements, page
    /// fetches, and commit flushes are recorded.
    pub fn set_recorder(&mut self, clock: xftl_ftl::SimClock, recorder: xftl_trace::Telemetry) {
        self.pager.set_recorder(clock, recorder);
    }

    /// Executes one SQL statement with `?` positional parameters.
    pub fn execute_with(&mut self, sql: &str, params: &[Value]) -> Result<ExecOutcome> {
        let t0 = self.pager.span_start();
        let out = self.execute_inner(sql, params);
        self.pager
            .record_span(xftl_trace::OpClass::SqlStatement, 0, 0, t0);
        out
    }

    /// Position of `sql` among the prepared texts, parsing it on a miss.
    fn prepare(&mut self, sql: &str) -> Result<usize> {
        self.uses += 1;
        let at = match self.prepared.iter().position(|p| p.sql == sql) {
            Some(at) => at,
            None => {
                let fresh = Prepared {
                    sql: sql.to_string(),
                    stmt: parse(sql)?,
                    plan: None,
                    last_used: 0,
                };
                if self.prepared.len() < PREPARED_CAP {
                    self.prepared.push(fresh);
                    self.prepared.len() - 1
                } else {
                    let lru = (0..PREPARED_CAP).min_by_key(|&i| self.prepared[i].last_used);
                    let at = lru.unwrap_or(0);
                    self.prepared[at] = fresh;
                    at
                }
            }
        };
        self.prepared[at].last_used = self.uses;
        Ok(at)
    }

    /// Runs prepared statement `at` (DDL or DML) in the open transaction,
    /// planning it if the schema moved since it last ran.
    fn run(&mut self, at: usize, params: &[Value]) -> Result<ExecOutcome> {
        let Prepared {
            sql, stmt, plan, ..
        } = &mut self.prepared[at];
        let generation = self.catalog.generation();
        let current = match plan {
            Some(current) if current.0 == generation => current,
            stale => match exec::plan(stmt, &self.catalog)? {
                Some(p) => stale.insert((generation, p)),
                None => return exec::run_ddl(&mut self.pager, &mut self.catalog, stmt, sql),
            },
        };
        exec::run(&mut self.pager, &current.1, params)
    }

    fn execute_inner(&mut self, sql: &str, params: &[Value]) -> Result<ExecOutcome> {
        let at = self.prepare(sql)?;
        match self.prepared[at].stmt {
            Stmt::Begin => {
                if self.explicit_tx {
                    return Err(DbError::TxState("nested BEGIN"));
                }
                self.pager.begin()?;
                self.explicit_tx = true;
                Ok(ExecOutcome::Done { rows_affected: 0 })
            }
            Stmt::BeginConcurrent => {
                if self.explicit_tx {
                    return Err(DbError::TxState("nested BEGIN"));
                }
                self.pager.begin_concurrent()?;
                // Schema re-read under the snapshot: another connection on
                // the same file may have committed DDL since this catalog
                // was loaded.
                self.catalog.reload(&mut self.pager)?;
                self.explicit_tx = true;
                Ok(ExecOutcome::Done { rows_affected: 0 })
            }
            Stmt::Commit => {
                if !self.explicit_tx {
                    return Err(DbError::TxState("COMMIT without BEGIN"));
                }
                self.explicit_tx = false;
                if let Err(e) = self.pager.commit() {
                    if e == DbError::Conflict {
                        // A `BEGIN CONCURRENT` loser: the pager already
                        // rolled back; restore the committed schema before
                        // reporting the retryable error.
                        self.catalog.reload(&mut self.pager)?;
                    }
                    return Err(e);
                }
                Ok(ExecOutcome::Done { rows_affected: 0 })
            }
            Stmt::Rollback => {
                if !self.explicit_tx {
                    return Err(DbError::TxState("ROLLBACK without BEGIN"));
                }
                self.explicit_tx = false;
                self.pager.rollback()?;
                // In-RAM schema may reflect rolled-back DDL: reload.
                self.catalog.reload(&mut self.pager)?;
                Ok(ExecOutcome::Done { rows_affected: 0 })
            }
            _ => {
                if self.explicit_tx {
                    self.run(at, params)
                } else {
                    // Autocommit: one transaction per statement.
                    self.pager.begin()?;
                    match self.run(at, params) {
                        Ok(out) => {
                            self.pager.commit()?;
                            Ok(out)
                        }
                        Err(e) => {
                            self.pager.rollback()?;
                            self.catalog.reload(&mut self.pager)?;
                            Err(e)
                        }
                    }
                }
            }
        }
    }

    /// Convenience: runs a SELECT and returns its rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>> {
        Ok(match self.execute(sql)? {
            ExecOutcome::Rows { rows, .. } => rows,
            ExecOutcome::Done { .. } => Vec::new(),
        })
    }

    /// Convenience: runs a parameterized SELECT and returns its rows.
    pub fn query_with(&mut self, sql: &str, params: &[Value]) -> Result<Vec<Vec<Value>>> {
        Ok(match self.execute_with(sql, params)? {
            ExecOutcome::Rows { rows, .. } => rows,
            ExecOutcome::Done { .. } => Vec::new(),
        })
    }

    /// Forces a WAL checkpoint (no-op in other modes).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.pager.wal_checkpoint()
    }

    /// Pager statistics (DB/journal write counts, fsyncs).
    pub fn pager_stats(&self) -> &PagerStats {
        self.pager.stats()
    }

    /// Resets pager statistics.
    pub fn reset_stats(&mut self) {
        self.pager.reset_stats();
    }

    /// Direct pager access (benches tune cache size / checkpoint interval).
    pub fn pager_mut(&mut self) -> &mut Pager<D> {
        &mut self.pager
    }

    /// SQL texts currently kept prepared.
    #[cfg(test)]
    pub(crate) fn prepared_len(&self) -> usize {
        self.prepared.len()
    }

    // --- multi-file transaction plumbing (used by `multidb`) ---------------

    /// Begins a transaction controlled by an external coordinator
    /// (optionally joining a shared device transaction id in Off mode).
    /// Statements then run inside it until `end_external` /
    /// `rollback_external`.
    pub fn begin_external(&mut self, tid: Option<Tid>) -> Result<()> {
        if self.explicit_tx {
            return Err(DbError::TxState("transaction already active"));
        }
        match tid {
            Some(tid) => self.pager.begin_with_tid(tid)?,
            None => self.pager.begin()?,
        }
        self.explicit_tx = true;
        Ok(())
    }

    /// Marks the externally-coordinated transaction finished (the
    /// coordinator already committed at the pager level).
    pub fn end_external(&mut self) {
        self.explicit_tx = false;
    }

    /// Rolls an externally-coordinated transaction back.
    pub fn rollback_external(&mut self) -> Result<()> {
        self.explicit_tx = false;
        if self.pager.in_tx() {
            self.pager.rollback()?;
            self.catalog.reload(&mut self.pager)?;
        }
        Ok(())
    }
}
