//! # xtask — repository automation library
//!
//! The binary (`src/main.rs`) is a thin CLI over three subsystems:
//!
//! - [`benchcheck`] — the baseline diff comparing a fresh `BENCH_*.json`
//!   report against its committed baseline. The absolute claims are
//!   `assert!`s inside the experiments that measure them.
//! - [`loc`] — code-line accounting (non-test / test lines per crate and
//!   per file) on its own token-line scanner and test-boundary pass.
//! - [`perfpair`] — the paired-run protocol behind a host-clock claim:
//!   `perf` of a parent checkout and of this one, run alternately.

#![forbid(unsafe_code)]

pub mod benchcheck;
pub mod loc;
pub mod perfpair;
