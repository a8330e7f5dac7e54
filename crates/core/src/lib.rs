//! # xftl-core — X-FTL, the transactional flash translation layer
//!
//! Reproduction of the primary contribution of *X-FTL: Transactional FTL
//! for SQLite Databases* (Kang, Lee, Moon, Oh, Min — SIGMOD 2013).
//!
//! Flash storage cannot update pages in place, so every FTL already writes
//! out of place and keeps the old version around until garbage collection.
//! X-FTL turns that weakness into transactional atomicity: a small
//! *transactional L2P table* ([`xl2p::Xl2pTable`]) tracks the new versions
//! written by each in-flight transaction and pins both versions against
//! GC; `commit` atomically publishes all of a transaction's pages with one
//! small table write, and `abort` (or a crash) discards them with no flash
//! writes at all. SQLite can then run with journaling `OFF` and a file
//! system can skip data journaling, each halving its write volume.
//!
//! Beyond the paper, a small update is not programmed either: its
//! changed bytes against the page's cached base ([`diff::Diff`],
//! [`cache::ImageCache`]) ride the commit's table image instead.
//!
//! ```
//! use xftl_core::XFtl;
//! use xftl_flash::{FlashChip, FlashConfig, SimClock};
//! use xftl_ftl::{BlockDevice, TxBlockDevice};
//!
//! let clock = SimClock::new();
//! let chip = FlashChip::new(FlashConfig::tiny(16), clock.clone());
//! let mut dev = XFtl::format(chip, 32).unwrap();
//!
//! let old = vec![1u8; dev.page_size()];
//! let new = vec![2u8; dev.page_size()];
//! dev.write(0, &old).unwrap();
//!
//! // Transaction 7 updates page 0; nobody else sees it yet.
//! dev.write_tx(7, 0, &new).unwrap();
//! let mut buf = vec![0u8; dev.page_size()];
//! dev.read(0, &mut buf).unwrap();
//! assert_eq!(buf, old);
//!
//! // One commit command makes it durable and visible — atomically.
//! dev.commit(7).unwrap();
//! dev.read(0, &mut buf).unwrap();
//! assert_eq!(buf, new);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A match over a protocol enum names every variant: a new variant is a
// compile error wherever its meaning must be decided.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod cache;
pub mod diff;
pub mod xftl;
pub mod xl2p;

pub use cache::{ImageCache, IMAGE_CACHE_PAGES};
pub use diff::{Diff, DIFF_LIMIT};
pub use xftl::{XFtl, DEFAULT_XL2P_CAPACITY};
pub use xl2p::{Entry, Live, TxStatus, Xl2pError, Xl2pTable};
