//! # xtask — repository automation library
//!
//! The binary (`src/main.rs`) is a thin CLI over two subsystems:
//!
//! - [`loc`] — code-line accounting (non-test / test lines per crate and
//!   per file) on its own token-line scanner and test-boundary pass.
//! - [`perfpair`] — the paired-run protocol behind a host-clock claim:
//!   `perf` of a parent checkout and of this one, run alternately.

#![forbid(unsafe_code)]

pub mod loc;
pub mod perfpair;
