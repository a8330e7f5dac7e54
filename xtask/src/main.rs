//! # xtask — repository automation
//!
//! Run with `cargo run -p xtask -- <command>`:
//!
//! - `loc [ROOT]` — non-test and test code lines per crate and per file
//!   (see [`xtask::loc`]), of this checkout or of the one at `ROOT` — so
//!   a "net lines down" claim is one `diff` of two reports.
//! - `perf-pair --parent <checkout> --workload <w> [--pairs 10] [--seeds 1,7,13]`
//!   — builds `perf` there and here, runs the workload alternately on
//!   both, cycling the seeds across the pairs, and prints medians,
//!   quartiles, wins and the difference beside its `BENCHMARK.json` bound
//!   per end-to-end metric (see [`xtask::perfpair`]): the evidence a
//!   host-clock claim needs, and a simulated-clock claim on several seeds.
//!
//! The static checks are the toolchain's: `cargo clippy --workspace
//! --all-targets -- -D warnings` over the lints in the root `Cargo.toml`
//! and `clippy.toml` (DESIGN.md §12). The bench reports need no tool:
//! the simulation is deterministic, so each `BENCH_*.json` is compared
//! with its committed baseline by `diff -u`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::loc;
use xtask::perfpair;

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR points at xtask/; the repo root is its parent.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("loc") => {
            let root = args.get(2).map_or_else(repo_root, PathBuf::from);
            print!("{}", loc::render(&loc::loc_repo(&root)));
            ExitCode::SUCCESS
        }
        Some("perf-pair") => {
            let report = perfpair::Args::parse(&args[2..])
                .and_then(|args| perfpair::perf_pair(&repo_root(), &args));
            match report {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perf-pair: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <command>\n\
                 \n\
                 commands:\n\
                 \x20 loc [ROOT]                       code / test lines per crate and per file\n\
                 \x20 perf-pair --parent <checkout> --workload <w> [--pairs 10] [--seeds 1,7,13]\n\
                 \x20                                  perf of a parent checkout and of this one,\n\
                 \x20                                  run alternately, seeds cycled over the pairs:\n\
                 \x20                                  medians, quartiles, wins, difference vs bound"
            );
            ExitCode::FAILURE
        }
    }
}
