//! # xtask — repository automation
//!
//! Run with `cargo run -p xtask -- <command>`:
//!
//! - `analyze [--json PATH] [--lints LIST]` — the
//!   `xftl-analyze` static analysis engine: AST-level domain lints over
//!   the whole workspace with rustc-style span diagnostics, a JSON
//!   findings report (default `ANALYZE_REPORT.json`), and a
//!   `BENCH_`-style summary line. Exits nonzero on any violation.
//! - `analyze --selftest` — mutation self-test: every lint must fire on
//!   its seeded fixture violation and stay quiet on the clean twin; a
//!   lint that cannot fire is a failure naming the lint.
//! - `bench-check [fresh] [baseline] [--allow-new]` — the
//!   perf-regression gate over `BENCH_*.json` reports (see
//!   [`xtask::benchcheck`]). `--allow-new` downgrades metrics the
//!   baseline lacks to warnings so instrumentation can land ahead of a
//!   baseline re-bless; missing or drifted metrics still fail.
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
//! Waiver policy, lint catalogue, and the fixture corpus are documented
//! in DESIGN.md ("Static analysis") and in [`xtask::analyze`].

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::analyze::{self, Config};
use xtask::benchcheck;
use xtask::loc;
use xtask::perfpair;

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR points at xtask/; the repo root is its parent.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// `analyze` subcommand: parses flags, runs the engine, writes the
/// report, prints diagnostics + summary.
fn run_analyze(args: &[String]) -> ExitCode {
    let root = repo_root();
    let mut cfg = Config::default();
    let mut json_path = root.join("ANALYZE_REPORT.json");
    let mut selftest = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--selftest" => selftest = true,
            "--json" => {
                if let Some(p) = args.get(i + 1) {
                    json_path = PathBuf::from(p);
                    i += 1;
                }
            }
            "--lints" => {
                if let Some(list) = args.get(i + 1) {
                    let wanted: Vec<&'static str> = analyze::lints::LINTS
                        .into_iter()
                        .filter(|l| list.split(',').any(|w| w.trim() == *l))
                        .collect();
                    cfg.lints = wanted;
                    i += 1;
                }
            }
            other => {
                eprintln!("analyze: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if selftest {
        let failures = analyze::selftest(&root);
        if failures.is_empty() {
            println!(
                "analyze --selftest: all {} lints proven live against the fixture corpus",
                analyze::lints::LINTS.len()
            );
            return ExitCode::SUCCESS;
        }
        for f in &failures {
            eprintln!("analyze --selftest: {f}");
        }
        return ExitCode::FAILURE;
    }

    let analysis = analyze::analyze_repo(&root, &cfg);
    print!("{}", analysis.render_text());
    if let Err(e) = fs::write(&json_path, analysis.to_json()) {
        eprintln!("analyze: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", analysis.summary_line());
    if analysis.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("analyze") => run_analyze(&args[2..]),
        Some("bench-check") => {
            let root = repo_root();
            let mut allow_new = false;
            let mut paths = Vec::new();
            for arg in &args[2..] {
                match arg.as_str() {
                    "--allow-new" => allow_new = true,
                    other if other.starts_with("--") => {
                        eprintln!("bench-check: unknown flag `{other}`");
                        return ExitCode::FAILURE;
                    }
                    path => paths.push(PathBuf::from(path)),
                }
            }
            let fresh = paths
                .first()
                .cloned()
                .unwrap_or_else(|| root.join("BENCH_all.json"));
            let baseline = paths
                .get(1)
                .cloned()
                .unwrap_or_else(|| root.join("BENCH_BASELINE.json"));
            match benchcheck::bench_check(&fresh, &baseline, allow_new) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("bench-check: {e}");
                    ExitCode::FAILURE
                }
            }
        }
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
                 \x20 analyze [--json P] [--lints L]   domain lint suite (JSON report + summary)\n\
                 \x20 analyze --selftest               prove every lint live against the fixtures\n\
                 \x20 bench-check [fresh] [baseline] [--allow-new]\n\
                 \x20                                  compare bench reports; --allow-new downgrades\n\
                 \x20                                  metrics absent from the baseline to warnings\n\
                 \x20                                  (defaults: BENCH_all.json BENCH_BASELINE.json)\n\
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
