//! # xftl-db — a SQLite-like embedded SQL database
//!
//! The paper's host-side workload generator: an embedded, serverless SQL
//! engine whose pager reproduces SQLite 3.7.10's storage protocols —
//! rollback-journal mode, WAL mode (checkpoint every 1000 frames), and
//! journaling-`Off` mode over X-FTL — on top of the `xftl-fs` file system.
//! Tables and indexes are B+trees of whole 8 KB pages; rows use SQLite's
//! record format; large blobs spill to overflow page chains; the buffer
//! pool is managed steal/force.
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use xftl_core::XFtl;
//! use xftl_db::{Connection, DbJournalMode, Value};
//! use xftl_flash::{FlashChip, FlashConfig, SimClock};
//! use xftl_fs::{FileSystem, FsConfig, JournalMode};
//!
//! let clock = SimClock::new();
//! let chip = FlashChip::new(FlashConfig::tiny(220), clock.clone());
//! let dev = XFtl::format(chip, 1600).unwrap();
//! let fs = FileSystem::mkfs_tx(dev, JournalMode::Off, FsConfig::default()).unwrap();
//! let fs = Rc::new(RefCell::new(fs));
//!
//! let mut db = Connection::open(fs, "app.db", DbJournalMode::Off).unwrap();
//! db.execute("CREATE TABLE msgs (id INTEGER PRIMARY KEY, body TEXT)").unwrap();
//! db.execute_with("INSERT INTO msgs (body) VALUES (?)",
//!                 &[Value::Text("hello".into())]).unwrap();
//! let rows = db.query("SELECT body FROM msgs WHERE id = 1").unwrap();
//! assert_eq!(rows[0][0], Value::Text("hello".into()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod catalog;
pub mod db;
pub mod error;
pub mod exec;
mod frames;
pub mod multidb;
pub mod pager;
pub mod record;
pub mod sql;
pub mod value;

pub use catalog::{Catalog, IndexInfo, TableInfo};
pub use db::Connection;
pub use error::{DbError, Result};
pub use exec::ExecOutcome;
pub use multidb::{begin_multi, commit_multi, rollback_multi};
pub use pager::{DbJournalMode, PageRef, Pager, PagerStats, SharedFs};
pub use value::Value;

#[cfg(test)]
mod db_tests;
