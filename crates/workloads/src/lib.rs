//! # xftl-workloads — the paper's workload generators and experiment rig
//!
//! * [`rig`] — assembles the full stack (flash → FTL → SATA → FS → DB)
//!   for one experimental configuration, with crash/recover plumbing and
//!   cross-layer statistics snapshots.
//! * [`synthetic`] — the partsupp update workload of §6.3.1.
//! * [`android`] — statement-stream synthesizers matching Table 2's
//!   published Android trace statistics.
//! * [`tpcc`] — TPC-C with the paper's four transaction mixes.
//! * [`fio`] — the random-write file-system benchmark of §6.3.4.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A match over a protocol enum names every variant: a new variant is a
// compile error wherever its meaning must be decided.
#![deny(clippy::wildcard_enum_match_arm)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "experiment code, not device firmware: a failed SQL statement or device command means the experiment is broken, and a panic is the desired failure mode"
)]

pub mod android;
pub mod fio;
pub mod rig;
pub mod synthetic;
pub mod tpcc;

pub use rig::{
    concurrent_fill, Aging, AnyDev, CommitWait, ConcurrentOutcome, ConcurrentPlan, Mode, Profile,
    Rig, RigConfig, Snapshot,
};
