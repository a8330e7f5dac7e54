//! # xftl-flash — simulated NAND flash with deterministic timing
//!
//! This crate is the bottom of the X-FTL reproduction stack. It models the
//! raw NAND array of the paper's OpenSSD testbed (Samsung K9LCG08U1M MLC
//! chips: 8 KB pages, 128 pages per block) and a shared simulated clock that
//! all higher layers charge their latencies to.
//!
//! The simulator is *constraint-faithful*: pages must be erased before they
//! are programmed, erases cover whole blocks, and pages within a block must
//! be programmed in ascending order. Violations are hard errors so that FTL
//! bugs surface in tests instead of silently corrupting data. Each page
//! carries typed out-of-band metadata (logical page number, global program
//! sequence, transaction id, page kind) that the FTL layers use for
//! crash-recovery scans — exactly the information real FTLs keep in the
//! spare area.
//!
//! ## Power loss
//!
//! [`FlashChip::arm_power_fuse`] schedules a power loss after a chosen
//! number of program/erase operations: the in-flight program is *torn*
//! (reads fail a checksum), and the device goes offline until
//! [`FlashChip::power_cycle`]. Flash contents survive; everything the upper
//! layers keep in device RAM or host caches does not. This is the mechanism
//! behind the paper's recovery experiment (Table 5) and our failure
//! injection tests.
//!
//! ## Per-operation faults
//!
//! Beyond whole-device power loss, a [`FaultPlan`] injects
//! the failures real MLC NAND exhibits per operation: program-status
//! failures (page unreadable, block suspect), erase-status failures
//! (block permanently retired — see [`BlockHealth`]), and read bit-flips
//! against an ECC model that corrects up to 8 bits per page and
//! otherwise fails with [`FlashError::Uncorrectable`]. Plans are
//! seeded and fully deterministic, schedulable by op index, block, page,
//! or LPN, and charge realistic retry/correction latencies to the shared
//! clock.
//!
//! ## Example
//!
//! ```
//! use xftl_flash::{FlashChip, FlashConfig, Oob, Ppa, SimClock};
//!
//! let clock = SimClock::new();
//! let mut chip = FlashChip::new(FlashConfig::tiny(8), clock.clone());
//! let page = vec![7u8; chip.config().geometry.page_size];
//! chip.program(Ppa::new(0, 0), &page, Oob::data(99)).unwrap();
//! let mut buf = vec![0u8; page.len()];
//! let oob = chip.read(Ppa::new(0, 0), &mut buf).unwrap();
//! assert_eq!(oob.lpn, 99);
//! assert!(clock.now() > 0); // latencies were charged
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A match over a protocol enum names every variant: a new variant is a
// compile error wherever its meaning must be decided.
#![deny(clippy::wildcard_enum_match_arm)]

mod chip;
mod clock;
mod config;
mod error;
mod fault;
mod stats;

pub use chip::{BlockHealth, FlashChip, Oob, PageKind, PageProbe, Ppa, Work};
pub use clock::{Nanos, SimClock, MICRO, MILLI, SECOND};
pub use config::{FlashConfig, FlashConfigBuilder, FlashGeometry, FlashTimings};
pub use error::{FlashError, Result};
pub use fault::{AgingModel, EccEvent, FaultKind, FaultOp, FaultPlan, FaultTrigger};
pub use stats::{FlashStats, MAX_CHANNELS, QUEUE_DEPTH_BUCKETS};
