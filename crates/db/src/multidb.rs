//! Multi-file atomic transactions (§4.3).
//!
//! SQLite can update several database files in one transaction. In
//! rollback mode it needs the *master journal* protocol: a master file
//! lists every participant's journal, each journal header references the
//! master, and the atomic deletion of the master file is the group commit
//! point. The paper calls this "awkward or incomplete" — and contrasts it
//! with X-FTL, where all files' pages simply carry the same transaction id
//! and one device `commit(tid)` makes the whole group atomic.
//!
//! Both protocols are implemented here, so the contrast is measurable (see
//! the ablation bench) and the atomicity of each is crash-tested.

use xftl_ftl::BlockDevice;

use crate::db::Connection;
use crate::error::{DbError, Result};
use crate::pager::DbJournalMode;

/// Begins one transaction spanning every connection in `conns`. All
/// connections must live on the same file system and share a journal mode
/// (`Rollback` or `Off`; WAL has no atomic multi-file commit, as in
/// SQLite).
pub fn begin_multi<D: BlockDevice>(conns: &mut [&mut Connection<D>]) -> Result<()> {
    let mode = common_mode(conns)?;
    match mode {
        DbJournalMode::Off => {
            let fs = conns[0].pager_mut().shared_fs();
            let tid = fs.borrow_mut().begin_tx();
            for c in conns.iter_mut() {
                c.begin_external(Some(tid))?;
            }
        }
        m if m.is_rollback() => {
            for c in conns.iter_mut() {
                c.begin_external(None)?;
            }
        }
        _ => {
            return Err(DbError::TxState("WAL mode has no atomic multi-file commit"));
        }
    }
    Ok(())
}

/// Commits the group transaction atomically.
///
/// * `Off` mode: every database flushes its pages under the shared tid,
///   then one device `commit(tid)` seals them all — no extra files, no
///   extra writes (§4.3's "without additional effort").
/// * `Rollback` mode: the SQLite master-journal protocol; `master_name`
///   names the master file, whose deletion is the commit point.
pub fn commit_multi<D: BlockDevice>(
    conns: &mut [&mut Connection<D>],
    master_name: &str,
) -> Result<()> {
    let mode = common_mode(conns)?;
    match mode {
        DbJournalMode::Off => {
            let tid = conns[0]
                .pager_mut()
                .current_tid()
                .ok_or(DbError::TxState("no shared transaction active"))?;
            for c in conns.iter_mut() {
                c.pager_mut().commit_off_deferred()?;
            }
            let fs = conns[0].pager_mut().shared_fs();
            fs.borrow_mut().commit_tx(tid)?;
            for c in conns.iter_mut() {
                c.end_external();
            }
            Ok(())
        }
        m if m.is_rollback() => {
            // 1. Master journal: the participants' journal names, synced.
            let fs = conns[0].pager_mut().shared_fs();
            {
                let mut fsb = fs.borrow_mut();
                let ino = fsb.create(master_name)?;
                let listing: String = conns
                    .iter_mut()
                    .map(|c| c.pager_mut().journal_file_name())
                    .collect::<Vec<_>>()
                    .join("\n");
                fsb.write(ino, 0, listing.as_bytes(), None)?;
                fsb.fdatasync(ino, None)?;
            }
            // 2. Each journal references the master and each database is
            //    force-written (still revocable).
            for c in conns.iter_mut() {
                c.pager_mut().master_commit_prepare(master_name)?;
            }
            // 3. Commit point: atomically delete the master.
            {
                let mut fsb = fs.borrow_mut();
                fsb.unlink(master_name)?;
                fsb.sync_meta(None)?;
            }
            // 4. Cleanup: the child journals are now stale.
            for c in conns.iter_mut() {
                c.pager_mut().master_commit_cleanup()?;
                c.end_external();
            }
            Ok(())
        }
        _ => unreachable!("rejected at begin_multi"),
    }
}

/// Rolls the group transaction back on every participant.
pub fn rollback_multi<D: BlockDevice>(conns: &mut [&mut Connection<D>]) -> Result<()> {
    for c in conns.iter_mut() {
        c.rollback_external()?;
    }
    Ok(())
}

fn common_mode<D: BlockDevice>(conns: &mut [&mut Connection<D>]) -> Result<DbJournalMode> {
    let mode = conns
        .first_mut()
        .ok_or(DbError::TxState("empty connection group"))?
        .pager_mut()
        .mode();
    for c in conns.iter_mut() {
        if c.pager_mut().mode() != mode {
            return Err(DbError::TxState("mixed journal modes in one group"));
        }
    }
    Ok(mode)
}
