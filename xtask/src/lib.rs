//! # xtask — repository automation library
//!
//! The binary (`src/main.rs`) is a thin CLI over four subsystems:
//!
//! - [`analyze`] — the `xftl-analyze` static analysis engine: an
//!   AST-level lint suite encoding X-FTL's domain invariants
//!   (ticket-leak, layering, error-discard, wildcard-arm, sim-clock),
//!   with span diagnostics, JSON findings reports,
//!   justified waivers, and a fixture-backed mutation self-test.
//! - [`benchcheck`] — the perf-regression gate comparing a fresh
//!   `BENCH_all.json` against the committed `BENCH_BASELINE.json`.
//! - [`loc`] — code-line accounting (non-test / test lines per crate and
//!   per file) on the analyzer's lexer and test-boundary pass.
//! - [`perfpair`] — the paired-run protocol behind a host-clock claim:
//!   `perf` of a parent checkout and of this one, run alternately.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod benchcheck;
pub mod loc;
pub mod perfpair;
