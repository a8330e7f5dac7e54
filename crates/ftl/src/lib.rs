//! # xftl-ftl — device abstraction and flash translation layers
//!
//! This crate provides everything between the raw NAND (`xftl-flash`) and
//! the transactional X-FTL (`xftl-core`):
//!
//! * [`dev::BlockDevice`] — the standard storage command set plus the
//!   NCQ-style batched submission path (`submit`/`complete_until`), and
//!   [`dev::TxBlockDevice`] — the paper's transactional SATA extension
//!   (`read_tx`/`write_tx`/`commit`/`abort`) as a compile-time capability.
//! * [`sata::SataLink`] — host-interface latency model (SATA 2/3).
//! * [`base::FtlBase`] — the shared FTL engine: log-structured allocation,
//!   a demand-paged L2P (bounded mapping cache over flash-resident
//!   translation pages that the recovery scan finds by their own OOB),
//!   greedy / FIFO / cost-benefit garbage collection with optional
//!   hot/cold write-frontier separation, checkpoint-root meta ring, and
//!   crash-recovery scanning.
//! * [`base::Personality`] — what a device personality over that engine
//!   is: its RAM state and its recovery rule (the folds its commit
//!   evidence seals), with `format` and `recover` written once for all
//!   three.
//! * [`pagemap::PageMappedFtl`] — the OpenSSD's original FTL (the paper's
//!   baseline device for SQLite's RBJ and WAL modes).
//! * [`atomicwrite::AtomicWriteFtl`] — the per-call atomic-write FTL of
//!   Park et al., the related-work baseline of §3.3.
//!
//! ```
//! use xftl_flash::{FlashChip, FlashConfig, SimClock};
//! use xftl_ftl::dev::BlockDevice;
//! use xftl_ftl::pagemap::PageMappedFtl;
//!
//! let clock = SimClock::new();
//! let chip = FlashChip::new(FlashConfig::tiny(16), clock.clone());
//! let mut dev = PageMappedFtl::format(chip, 32).unwrap();
//! let page = vec![7u8; dev.page_size()];
//! dev.write(0, &page).unwrap();
//! dev.flush().unwrap();
//! // Power loss: only the flash medium survives.
//! let mut dev = PageMappedFtl::recover(dev.into_chip()).unwrap();
//! let mut out = vec![0u8; dev.page_size()];
//! dev.read(0, &mut out).unwrap();
//! assert_eq!(out, page);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A match over a protocol enum names every variant: a new variant is a
// compile error wherever its meaning must be decided.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod atomicwrite;
pub mod base;
pub mod cmt;
pub mod dev;
pub mod error;
pub mod health;
pub mod meta;
pub mod pagemap;
pub mod sata;
pub mod stats;
pub mod validity;

pub use atomicwrite::AtomicWriteFtl;
pub use base::{
    origin_seq, FtlBase, GcHook, GcPolicy, NoHook, Personality, RecoveryBreakdown, RecoveryLog,
    ScanEvent, WearSummary,
};
pub use cmt::MappingCache;
pub use dev::{
    BlockDevice, CmdId, CommitTicket, DevCounters, IoCmd, Lpn, Tid, TxBlockDevice, NO_TID,
};
pub use error::{DevError, Result};
pub use health::{DeviceState, ScrubConfig, ScrubReason};
pub use pagemap::PageMappedFtl;
pub use sata::{LinkConfig, SataLink};
pub use stats::{diff_size_bucket, FtlStats, DIFF_SIZE_BUCKETS};
pub use validity::ValidityMap;
/// The simulated clock, re-exported so the host layers (fs, db) need no
/// dependency on the flash crate: they reach flash only through the
/// device traits above.
pub use xftl_flash::{Nanos, SimClock};
