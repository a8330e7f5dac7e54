//! Integration tests for the `xftl-analyze` engine: the mutation
//! self-test over the seeded fixture corpus, the waiver policy, and the
//! promise that the checked-in tree itself analyzes clean.

use std::path::{Path, PathBuf};

use xtask::analyze::{self, lints, Config};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn run_on(path: &str, src: &str, only: &[&'static str]) -> analyze::Analysis {
    let cfg = Config {
        lints: only.to_vec(),
    };
    analyze::analyze_sources(&[(path.to_string(), src.to_string())], &cfg)
}

/// The acceptance criterion in one test: every lint must fire on its
/// seeded fixture violation and stay quiet on the clean twin. A lint
/// that cannot fire is dead code pretending to be a guarantee.
#[test]
fn every_lint_is_proven_live_by_its_fixtures() {
    let failures = analyze::selftest(&repo_root());
    assert!(failures.is_empty(), "selftest failures: {failures:#?}");
}

/// The tree this test runs in must itself be clean: `cargo test` fails
/// the same way CI's `xtask analyze` job would.
#[test]
fn checked_in_tree_analyzes_clean() {
    let analysis = analyze::analyze_repo(&repo_root(), &Config::default());
    let msgs: Vec<String> = analysis
        .violations
        .iter()
        .map(|v| format!("{}:{}:{} [{}] {}", v.path, v.line, v.col, v.lint, v.msg))
        .collect();
    assert!(
        msgs.is_empty(),
        "violations on the tree:\n{}",
        msgs.join("\n")
    );
    assert!(analysis.files_scanned > 50, "scan missed most of the tree");
}

#[test]
fn unjustified_waiver_is_rejected_and_violation_stands() {
    let src = "use std::time::Instant; // xftl-analyze: allow(sim-clock):\n";
    let a = run_on("crates/fixture/src/probe.rs", src, &["sim-clock"]);
    assert!(
        a.violations.iter().any(|v| v.lint == "sim-clock"),
        "the waived violation must stand: {:?}",
        a.violations
    );
    assert!(
        a.violations.iter().any(|v| v.lint == "waiver"),
        "the bare waiver must itself be flagged: {:?}",
        a.violations
    );
}

#[test]
fn trace_honours_no_waivers() {
    let src =
        "use std::time::Instant; // xftl-analyze: allow(sim-clock): determinism is negotiable\n";
    let a = run_on("crates/trace/src/probe.rs", src, &["sim-clock"]);
    assert!(
        a.violations.iter().any(|v| v.lint == "sim-clock"),
        "crates/trace must ignore even a justified waiver: {:?}",
        a.violations
    );
}

#[test]
fn justified_waiver_suppresses_and_is_reported() {
    let src =
        "use std::time::Instant; // xftl-analyze: allow(sim-clock): host-time bench by design\n";
    let a = run_on("crates/fixture/src/probe.rs", src, &["sim-clock"]);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.waivers_used.len(), 1);
    assert_eq!(a.waivers_used[0].lint, "sim-clock");
}

#[test]
fn waiver_naming_an_unknown_lint_is_flagged() {
    let src = "pub fn f() {} // xftl-analyze: allow(made-up-lint): because\n";
    let a = run_on("crates/fixture/src/probe.rs", src, &["sim-clock"]);
    assert!(
        a.violations
            .iter()
            .any(|v| v.lint == "waiver" && v.msg.contains("made-up-lint")),
        "{:?}",
        a.violations
    );
}

/// The grep-scanner's classic false positives: the engine reads token
/// structure, so paths in strings and comments are data, not uses.
#[test]
fn strings_and_comments_do_not_trip_sim_clock() {
    let src = "// std::time::Instant in prose\npub fn f() -> &'static str { \"std::time::Instant::now()\" }\n";
    let a = run_on("crates/fixture/src/probe.rs", src, &["sim-clock"]);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
}

#[test]
fn summary_line_and_json_report_shape() {
    let src = "use std::time::Instant;\n";
    let a = run_on("crates/fixture/src/probe.rs", src, &["sim-clock"]);
    let line = a.summary_line();
    assert!(line.starts_with("ANALYZE {"), "{line}");
    assert!(line.contains("\"files_scanned\":1"), "{line}");
    assert!(line.contains("\"violations\":1"), "{line}");
    let json = a.to_json();
    assert!(json.contains("\"lint\": \"sim-clock\""), "{json}");
    assert!(json.contains("crates/fixture/src/probe.rs"), "{json}");
}

/// All five lints exist, and the registry-driven ones see through the
/// domain vocabulary (a `Result` alias, a `*Ticket` constructor).
#[test]
fn lint_catalogue_is_complete() {
    let expected = [
        "sim-clock",
        "layering",
        "error-discard",
        "wildcard-arm",
        "ticket-leak",
    ];
    assert_eq!(lints::LINTS, expected);
}
