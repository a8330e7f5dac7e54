//! # xftl-analyze — AST-level, domain-aware static analysis
//!
//! `cargo run -p xtask -- analyze` runs a lint suite encoding X-FTL's
//! protocol discipline over the whole workspace, with rustc-style span
//! diagnostics, a machine-readable JSON findings report, and per-lint
//! waivers. The workspace build is hermetic (no crates.io, hence no
//! `syn`), so the engine rests on an in-tree lexer ([`lexer`]) and a
//! lightweight structural layer ([`parse`]) that recover exactly the
//! facts the lints need: paired delimiters, `cfg` regions, use-trees,
//! fn signatures and bodies, impl spans, and match arms.
//!
//! The analysis is two-phase. A **registry pass** over every file
//! collects the domain vocabulary — `enum *Error` declarations,
//! per-crate `type Result<T> = …` aliases, fns returning domain-error
//! `Result`s, fns returning `*Ticket` types (with `-> Self`
//! constructors resolved through their impl block), and the files
//! pulled in by `#[cfg(test)] mod …;` declarations. The **lint pass**
//! then runs each enabled lint over each file against that registry.
//!
//! ## Waivers
//!
//! `// xftl-analyze: allow(<lint>): <justification>` on the violating
//! line (or the line above) suppresses one lint there. The
//! justification text is mandatory — a waiver without one is itself a
//! violation — and no waiver is honoured inside `crates/trace`: the
//! telemetry crate is what everything else's determinism leans on.
//!
//! ## Self-test
//!
//! `analyze --selftest` proves every lint live against the seeded
//! fixture corpus under `xtask/tests/fixtures/`: each lint must fire on
//! its `fire.rs` and stay quiet on its `clean.rs`, and an unjustified
//! waiver must be rejected. A lint that cannot fire fails CI.

pub mod lexer;
pub mod lints;
pub mod parse;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use parse::{fns, impl_spans, result_alias_error, second_angle_arg, SourceFile};

/// One finding, anchored to a source span.
#[derive(Debug, Clone)]
pub struct Violation {
    pub lint: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

/// A waiver that suppressed a violation.
#[derive(Debug, Clone)]
pub struct UsedWaiver {
    pub lint: String,
    pub path: String,
    pub line: u32,
    pub justification: String,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Lints to run (defaults to all).
    pub lints: Vec<&'static str>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            lints: lints::LINTS.to_vec(),
        }
    }
}

/// The workspace vocabulary the lints consult.
#[derive(Debug, Default)]
pub struct Registry {
    /// Error enums discovered from `enum *Error` declarations.
    pub error_enums: BTreeSet<String>,
    /// Per-region (`crates/<name>`) error type of the local `Result`
    /// alias.
    pub region_err: BTreeMap<String, String>,
    /// Fn name → domain error type, for fns returning `Result<_, E>`.
    pub fallible: BTreeMap<String, String>,
    /// Ticket-returning fns callable without a qualifier.
    pub ticket_plain: BTreeSet<String>,
    /// Ticket-returning assoc fns, as `Type::name`.
    pub ticket_qualified: BTreeSet<String>,
    /// `*Ticket` struct names.
    pub ticket_types: BTreeSet<String>,
    /// Files that are test-only in their entirety (targets of
    /// `#[cfg(test)] mod …;` declarations).
    pub test_files: BTreeSet<String>,
}

impl Registry {
    /// The domain error type of fn `name`, when registered.
    pub fn fallible_err(&self, name: &str) -> Option<String> {
        self.fallible.get(name).cloned()
    }
}

/// Names too generic to register by bare name (they would swallow every
/// `Foo::new()` in the workspace); these participate only as
/// `Type::name` qualified entries.
const COMMON_NAMES: [&str; 8] = [
    "new",
    "default",
    "from",
    "clone",
    "into",
    "build",
    "immediate",
    "with_capacity",
];

/// Builds the workspace registry over all parsed files.
pub fn build_registry(files: &[SourceFile]) -> Registry {
    let mut reg = Registry::default();
    // Phase 1: type vocabulary and test-file resolution.
    let paths: BTreeSet<&str> = files.iter().map(|f| f.path.as_str()).collect();
    for f in files {
        for i in 0..f.toks.len().saturating_sub(1) {
            let t = &f.toks[i];
            let n = &f.toks[i + 1];
            if n.kind != lexer::TokKind::Ident {
                continue;
            }
            if t.is_ident("enum") && n.text.ends_with("Error") {
                reg.error_enums.insert(n.text.clone());
            }
            if t.is_ident("struct") && n.text.ends_with("Ticket") {
                reg.ticket_types.insert(n.text.clone());
            }
        }
        if let Some(err) = result_alias_error(f) {
            reg.region_err.entry(f.region()).or_insert(err);
        }
        let dir = f.path.rsplit_once('/').map_or("", |(d, _)| d);
        for m in &f.test_mod_decls {
            for candidate in [format!("{dir}/{m}.rs"), format!("{dir}/{m}/mod.rs")] {
                if paths.contains(candidate.as_str()) {
                    reg.test_files.insert(candidate);
                }
            }
        }
    }
    // Phase 2: fn signatures against the vocabulary.
    for f in files {
        let impls = impl_spans(f);
        for d in fns(f) {
            let enclosing = impls
                .iter()
                .rfind(|s| s.body.0 < d.fn_tok && d.fn_tok < s.body.1);
            // Ticket-returning fns.
            let ticket_ty = reg
                .ticket_types
                .iter()
                .find(|ty| d.ret.split_whitespace().any(|w| w == ty.as_str()))
                .cloned()
                .or_else(|| {
                    (d.ret.split_whitespace().any(|w| w == "Self"))
                        .then(|| enclosing.map(|s| s.type_name.clone()))
                        .flatten()
                        .filter(|ty| reg.ticket_types.contains(ty))
                });
            if ticket_ty.is_some() {
                if let Some(s) = enclosing {
                    reg.ticket_qualified
                        .insert(format!("{}::{}", s.type_name, d.name));
                }
                if !COMMON_NAMES.contains(&d.name.as_str()) {
                    reg.ticket_plain.insert(d.name.clone());
                }
            }
            // Fallible fns with domain errors.
            if let Some((rs, re)) = d.ret_range {
                if let Some(ri) = (rs..re).find(|&k| f.toks[k].is_ident("Result")) {
                    // Skip foreign Results (`fmt::Result`, `io::Result`):
                    // accept bare `Result` or `std::result::Result` only.
                    let qualified_foreign = ri >= 2
                        && f.toks[ri - 1].is_punct("::")
                        && !f.toks[ri - 2].is_ident("result");
                    if !qualified_foreign {
                        let err = second_angle_arg(f, ri, re)
                            .or_else(|| reg.region_err.get(&f.region()).cloned());
                        if let Some(err) = err {
                            if reg.error_enums.contains(&err)
                                && !COMMON_NAMES.contains(&d.name.as_str())
                            {
                                reg.fallible.entry(d.name.clone()).or_insert(err);
                            }
                        }
                    }
                }
            }
        }
    }
    reg
}

/// A completed analysis.
#[derive(Debug)]
pub struct Analysis {
    pub files_scanned: usize,
    pub lints_run: Vec<&'static str>,
    pub violations: Vec<Violation>,
    pub waivers_used: Vec<UsedWaiver>,
}

impl Analysis {
    /// Rustc-style text diagnostics, one block per violation.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            let _ = writeln!(s, "error[{}]: {}", v.lint, v.msg);
            let _ = writeln!(s, "  --> {}:{}:{}", v.path, v.line, v.col);
        }
        s
    }

    /// The `BENCH_`-style one-line machine-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "ANALYZE {{\"files_scanned\":{},\"lints_run\":{},\"violations\":{},\"waivers\":{}}}",
            self.files_scanned,
            self.lints_run.len(),
            self.violations.len(),
            self.waivers_used.len(),
        )
    }

    /// The JSON findings report.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"tool\": \"xftl-analyze\",\n  \"schema\": 1,\n");
        let lints: Vec<String> = self.lints_run.iter().map(|l| json_str(l)).collect();
        let _ = writeln!(s, "  \"lints_run\": [{}],", lints.join(", "));
        let _ = writeln!(
            s,
            "  \"summary\": {{\"files_scanned\": {}, \"lints_run\": {}, \"violations\": {}, \"waivers\": {}}},",
            self.files_scanned,
            self.lints_run.len(),
            self.violations.len(),
            self.waivers_used.len(),
        );
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
                json_str(v.lint),
                json_str(&v.path),
                v.line,
                v.col,
                json_str(&v.msg),
            );
        }
        s.push_str("\n  ],\n  \"waivers\": [");
        for (i, w) in self.waivers_used.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"justification\": {}}}",
                json_str(&w.lint),
                json_str(&w.path),
                w.line,
                json_str(&w.justification),
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Directory whose sources get no waivers: the telemetry crate is the
/// thing whose determinism everything else leans on.
pub const NO_WAIVER_REGION: &str = "crates/trace";

/// Analyzes a set of (virtual-path, source) pairs. This is the whole
/// engine; `analyze_repo` merely collects the real tree into it.
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Analysis {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, src)| SourceFile::parse(p, src))
        .collect();
    let reg = build_registry(&files);

    let mut raw: Vec<Violation> = Vec::new();
    for f in &files {
        for lint in &cfg.lints {
            lints::run_lint(lint, f, &reg, &mut raw);
        }
    }

    // Waiver application. A waiver matches a violation of its lint on
    // the same line or the line directly below the comment.
    let mut violations = Vec::new();
    let mut waivers_used = Vec::new();
    for v in raw {
        let file = files.iter().find(|f| f.path == v.path);
        let waiver = file.and_then(|f| {
            f.waivers
                .iter()
                .find(|w| w.lint == v.lint && (w.line == v.line || w.line + 1 == v.line))
        });
        match waiver {
            Some(w) => {
                let region = file.map(parse::SourceFile::region).unwrap_or_default();
                if region == NO_WAIVER_REGION {
                    let mut v = v;
                    v.msg
                        .push_str(" [waiver ignored: crates/trace honours no waivers]");
                    violations.push(v);
                } else if w.justification.is_empty() {
                    // Rejected below as a waiver-syntax violation; the
                    // underlying violation stands too.
                    violations.push(v);
                } else {
                    waivers_used.push(UsedWaiver {
                        lint: w.lint.clone(),
                        path: v.path.clone(),
                        line: w.line,
                        justification: w.justification.clone(),
                    });
                }
            }
            None => violations.push(v),
        }
    }

    // Waiver syntax policing: unknown lint names and missing
    // justifications are violations wherever they appear.
    for f in &files {
        for w in &f.waivers {
            if !lints::LINTS.contains(&w.lint.as_str()) {
                violations.push(Violation {
                    lint: "waiver",
                    path: f.path.clone(),
                    line: w.line,
                    col: 1,
                    msg: format!(
                        "waiver names unknown lint `{}` (known: {})",
                        w.lint,
                        lints::LINTS.join(", ")
                    ),
                });
            } else if w.justification.is_empty() {
                violations.push(Violation {
                    lint: "waiver",
                    path: f.path.clone(),
                    line: w.line,
                    col: 1,
                    msg: format!(
                        "waiver for `{}` has no justification — write `// xftl-analyze: allow({}): <why>`",
                        w.lint, w.lint
                    ),
                });
            }
        }
    }

    violations
        .sort_by(|a, b| (&a.path, a.line, a.col, a.lint).cmp(&(&b.path, b.line, b.col, b.lint)));
    Analysis {
        files_scanned: files.len(),
        lints_run: cfg.lints.clone(),
        violations,
        waivers_used,
    }
}

/// Source roots scanned in the real repository.
const SCAN_ROOTS: [&str; 6] = [
    "crates",
    "src",
    "tests",
    "examples",
    "xtask/src",
    "xtask/tests",
];

/// Directory names never descended into (build output, and the seeded
/// violation corpus which exists to fire the lints).
const SKIP_DIRS: [&str; 2] = ["target", "fixtures"];

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Ok(src) = fs::read_to_string(&path) {
                out.push((rel, src));
            }
        }
    }
}

/// Every scanned source of the repository rooted at `root`, as sorted
/// (repo-relative path, contents) pairs.
pub fn repo_sources(root: &Path) -> Vec<(String, String)> {
    let mut sources = Vec::new();
    for sub in SCAN_ROOTS {
        collect_rs(root, &root.join(sub), &mut sources);
    }
    sources.sort();
    sources.dedup_by(|a, b| a.0 == b.0);
    sources
}

/// Analyzes the repository rooted at `root`.
pub fn analyze_repo(root: &Path, cfg: &Config) -> Analysis {
    analyze_sources(&repo_sources(root), cfg)
}

/// Mutation self-test: proves every lint live against the fixture
/// corpus. Returns human-readable failures, empty on success.
pub fn selftest(root: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    let fixtures = root.join("xtask/tests/fixtures");
    for lint in lints::LINTS {
        let dir = fixtures.join(lint.replace('-', "_"));
        for (which, expect_fire) in [("fire.rs", true), ("clean.rs", false)] {
            let path = dir.join(which);
            let Ok(src) = fs::read_to_string(&path) else {
                failures.push(format!("{lint}: missing fixture {}", path.display()));
                continue;
            };
            let vpath = fixture_virtual_path(&src)
                .unwrap_or_else(|| "crates/fixture/src/lib.rs".to_string());
            let cfg = Config { lints: vec![lint] };
            let analysis = analyze_sources(&[(vpath, src)], &cfg);
            let fired = analysis.violations.iter().any(|v| v.lint == lint);
            if expect_fire && !fired {
                failures.push(format!(
                    "{lint}: did NOT fire on its seeded violation ({}) — the lint is dead",
                    path.display()
                ));
            }
            if !expect_fire && !analysis.violations.is_empty() {
                failures.push(format!(
                    "{lint}: fired on the clean fixture ({}): {}",
                    path.display(),
                    analysis.violations[0].msg
                ));
            }
        }
    }
    // Waiver policy fixtures: unjustified waivers are rejected, trace
    // honours none, a justified waiver suppresses.
    for (file, expect_violation, why) in [
        (
            "waivers/unjustified.rs",
            true,
            "an unjustified waiver must be rejected",
        ),
        (
            "waivers/trace.rs",
            true,
            "crates/trace must honour no waivers",
        ),
        (
            "waivers/justified.rs",
            false,
            "a justified waiver must suppress",
        ),
    ] {
        let path = fixtures.join(file);
        let Ok(src) = fs::read_to_string(&path) else {
            failures.push(format!("waiver fixture missing: {}", path.display()));
            continue;
        };
        let vpath =
            fixture_virtual_path(&src).unwrap_or_else(|| "crates/fixture/src/lib.rs".to_string());
        let analysis = analyze_sources(&[(vpath, src)], &Config::default());
        if expect_violation && analysis.violations.is_empty() {
            failures.push(format!("{file}: expected a violation — {why}"));
        }
        if !expect_violation && !analysis.violations.is_empty() {
            failures.push(format!(
                "{file}: expected clean ({why}); got: {}",
                analysis.violations[0].msg
            ));
        }
    }
    failures
}

/// Fixtures name their pretend location with a first-line directive:
/// `// xftl-analyze-fixture: path=crates/db/src/bad.rs`.
pub fn fixture_virtual_path(src: &str) -> Option<String> {
    let first = src.lines().next()?;
    let idx = first.find("xftl-analyze-fixture: path=")?;
    Some(
        first[idx + "xftl-analyze-fixture: path=".len()..]
            .trim()
            .to_string(),
    )
}
