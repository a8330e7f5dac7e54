//! # xftl-fs — an ext4-like journaling file system over simulated flash
//!
//! The file system sits between the database and the device, exactly as in
//! the paper's stack (Figure 2): it owns transaction ids, translates
//! `fsync`/`ioctl` into the extended device commands, and — in its
//! journaling modes — reproduces ext4's ordered and full (data) journaling
//! with JBD2-style descriptor/commit blocks and write barriers.
//!
//! | mode      | data pages        | metadata        | barriers per fsync |
//! |-----------|-------------------|-----------------|--------------------|
//! | `Ordered` | written in place  | journaled       | 2                  |
//! | `Full`    | journaled (x2)    | journaled       | 2                  |
//! | `Off`     | `write_tx(tid,p)` | `write_tx` too  | 1 `commit(tid)`    |
//!
//! ```
//! use xftl_core::XFtl;
//! use xftl_flash::{FlashChip, FlashConfig, SimClock};
//! use xftl_fs::{FileSystem, FsConfig, JournalMode};
//!
//! let clock = SimClock::new();
//! let chip = FlashChip::new(FlashConfig::tiny(64), clock.clone());
//! let dev = XFtl::format(chip, 400).unwrap();
//! // `Off` mode needs the transactional command set, so it is only
//! // reachable through the `*_tx` constructors (`D: TxBlockDevice`).
//! let mut fs = FileSystem::mkfs_tx(dev, JournalMode::Off, FsConfig::default()).unwrap();
//!
//! let f = fs.create("hello.db").unwrap();
//! let tid = fs.begin_tx();
//! fs.write(f, 0, b"hello, transactional world", Some(tid)).unwrap();
//! fs.fsync(f, Some(tid)).unwrap(); // one commit, no journal
//! let mut buf = [0u8; 26];
//! fs.read(f, 0, &mut buf, None).unwrap();
//! assert_eq!(&buf, b"hello, transactional world");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A match over a protocol enum names every variant: a new variant is a
// compile error wherever its meaning must be decided.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod alloc;
pub mod cache;
pub mod error;
pub mod fs;
pub mod journal;
pub mod layout;
pub mod recency;
pub mod stats;

pub use error::{FsError, Result};
pub use fs::{FileSystem, FsConfig, FsckReport, JournalMode};
pub use layout::{Ino, Inode, InodeKind, Superblock};
pub use stats::FsStats;

#[cfg(test)]
mod fs_tests;
