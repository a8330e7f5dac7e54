//! `xtask loc` — code-line accounting on the analyzer's front end.
//!
//! "Net lines down" is an acceptance criterion of the simplification
//! work (ROADMAP item 2), so builder and reviewer must compute it the
//! same way. This counts source *lines that carry at least one token*
//! of the analyzer's lexer — comments, doc comments and blank lines
//! carry none — and splits them with the analyzer's own
//! `#[cfg(test)]` / `#[test]` boundary pass:
//!
//! - **code**: lines with a token outside every test range;
//! - **test**: the remaining token-bearing lines — `#[cfg(test)]`
//!   items, `#[test]` fns, files pulled in by `#[cfg(test)] mod x;`,
//!   and everything under a `tests/` or `benches/` directory.
//!
//! A token spanning several lines (a multi-line string literal) counts
//! once, on its first line; the `#[cfg(test)]` attribute line itself
//! counts as code. Both conventions are the same at every commit, which
//! is all a before/after delta needs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use crate::analyze::parse::SourceFile;
use crate::analyze::{build_registry, repo_sources};

/// Token-bearing lines of one file, split at the test boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileLoc {
    /// Repo-relative path.
    pub path: String,
    /// What the file is totalled under: `crates/<name>`, or the first
    /// path component (`tests`, `src`, `examples`, `xtask`).
    pub region: String,
    /// Lines carrying non-test code.
    pub code: usize,
    /// Lines carrying only test code.
    pub test: usize,
}

/// Counts a set of (virtual-path, source) pairs.
pub fn loc_sources(sources: &[(String, String)]) -> Vec<FileLoc> {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, src)| SourceFile::parse(p, src))
        .collect();
    let reg = build_registry(&files);
    files
        .iter()
        .map(|f| {
            let test_file = reg.test_files.contains(&f.path)
                || f.path
                    .split('/')
                    .any(|part| part == "tests" || part == "benches");
            let mut code = BTreeSet::new();
            let mut any = BTreeSet::new();
            for (i, t) in f.toks.iter().enumerate() {
                any.insert(t.line);
                if !test_file && !f.in_test(i) {
                    code.insert(t.line);
                }
            }
            FileLoc {
                path: f.path.clone(),
                region: f.region(),
                code: code.len(),
                test: any.len() - code.len(),
            }
        })
        .collect()
}

/// Counts the repository rooted at `root` (the analyzer's scan roots).
pub fn loc_repo(root: &Path) -> Vec<FileLoc> {
    loc_sources(&repo_sources(root))
}

/// The report: one total row per region, one row per file under it,
/// and a grand total. Plain text, stable order, so two reports `diff`.
pub fn render(files: &[FileLoc]) -> String {
    let mut regions: BTreeMap<String, Vec<&FileLoc>> = BTreeMap::new();
    for f in files {
        regions.entry(f.region.clone()).or_default().push(f);
    }
    let mut s = String::new();
    let _ = writeln!(s, "{:>7} {:>7}  path", "code", "test");
    let (mut code, mut test) = (0, 0);
    for (name, members) in &regions {
        let c: usize = members.iter().map(|f| f.code).sum();
        let t: usize = members.iter().map(|f| f.test).sum();
        code += c;
        test += t;
        let _ = writeln!(s, "{c:>7} {t:>7}  {name}/");
        for f in members {
            let _ = writeln!(s, "{:>7} {:>7}    {}", f.code, f.test, f.path);
        }
    }
    let _ = writeln!(s, "{code:>7} {test:>7}  total");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(path: &str, src: &str) -> FileLoc {
        loc_sources(&[(path.to_string(), src.to_string())]).remove(0)
    }

    #[test]
    fn comments_and_blank_lines_carry_no_code() {
        let src = "//! docs\n\n/// more docs\nfn f() {\n    // why\n    g(); // trailing\n}\n";
        let loc = count("crates/x/src/lib.rs", src);
        assert_eq!((loc.code, loc.test), (3, 0));
    }

    #[test]
    fn cfg_test_items_and_test_fns_count_as_test() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        f();\n    }\n}\n";
        let loc = count("crates/x/src/lib.rs", src);
        // `fn f` and the `#[cfg(test)]` attribute line are code.
        assert_eq!((loc.code, loc.test), (2, 6));
    }

    #[test]
    fn integration_tests_and_test_mod_files_are_test_throughout() {
        let helper = "pub fn helper() {}\n";
        assert_eq!(count("tests/common/mod.rs", helper).code, 0);
        assert_eq!(count("crates/x/benches/b.rs", helper).test, 1);
        let files = loc_sources(&[
            (
                "crates/x/src/lib.rs".to_string(),
                "#[cfg(test)]\nmod x_tests;\n".to_string(),
            ),
            ("crates/x/src/x_tests.rs".to_string(), helper.to_string()),
        ]);
        assert_eq!((files[1].code, files[1].test), (0, 1));
    }

    #[test]
    fn report_totals_regions_and_files() {
        let files = loc_sources(&[
            ("crates/a/src/lib.rs".to_string(), "fn a() {}\n".to_string()),
            (
                "crates/a/src/m.rs".to_string(),
                "fn m() {}\nfn n() {}\n".to_string(),
            ),
            ("tests/t.rs".to_string(), "fn t() {}\n".to_string()),
        ]);
        let text = render(&files);
        assert!(text.contains("      3       0  crates/a/"), "{text}");
        assert!(text.contains("      0       1  tests/"), "{text}");
        assert!(text.ends_with("      3       1  total\n"), "{text}");
    }
}
