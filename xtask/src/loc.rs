//! `xtask loc` — code-line accounting.
//!
//! "Net lines down" is an acceptance criterion of the simplification
//! work, so builder and reviewer must compute it the same way. This
//! counts source *lines that carry at least one token* — comments, doc
//! comments and blank lines carry none — and splits them at the
//! `#[cfg(test)]` / `#[test]` boundary:
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
use std::fs;
use std::path::Path;

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

/// One token: the line it starts on and its source bytes. Literals keep
/// their quotes, so only an identifier reads as `test` and only
/// punctuation as `#` or `;`.
type Tok<'a> = (u32, &'a [u8]);

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    is_ident_start(b) || b.is_ascii_digit()
}

/// Splits `src` into tokens. Comments and whitespace yield none; a
/// string, raw string or char literal is one token; `'a` is a lifetime
/// unless a quote closes it as a char (`'a'`).
fn tokens(src: &[u8]) -> Vec<Tok<'_>> {
    let at = |i: usize| src.get(i).copied().unwrap_or(0);
    // End of the `'`-delimited literal opening at `i`.
    let char_end = |mut i: usize| {
        i += 1;
        while i < src.len() {
            i += 1;
            match src[i - 1] {
                b'\'' => break,
                b'\\' => i += 1,
                _ => {}
            }
        }
        i
    };
    let (mut toks, mut pos, mut line) = (Vec::new(), 0, 1);
    while pos < src.len() {
        let b = src[pos];
        // `r"`, `r#"`, `br#"`: the number of `#` fences.
        let raw = {
            let r = pos + usize::from(b == b'b');
            let hashes = src[r.min(src.len())..].iter().skip(1);
            let hashes = hashes.take_while(|&&c| c == b'#').count();
            (at(r) == b'r' && at(r + 1 + hashes) == b'"').then_some(hashes)
        };
        let (end, token) = match b {
            b' ' | b'\t' | b'\r' | b'\n' => (pos + 1, false),
            b'/' if at(pos + 1) == b'/' => {
                let rest = src[pos..].iter().position(|&c| c == b'\n');
                (rest.map_or(src.len(), |n| pos + n), false)
            }
            b'/' if at(pos + 1) == b'*' => {
                let (mut i, mut depth) = (pos + 2, 1);
                while i < src.len() && depth > 0 {
                    match (src[i], at(i + 1)) {
                        (b'/', b'*') => (i, depth) = (i + 2, depth + 1),
                        (b'*', b'/') => (i, depth) = (i + 2, depth - 1),
                        _ => i += 1,
                    }
                }
                (i, false)
            }
            b'"' | b'r' | b'b'
                if b == b'"' || raw.is_some() || (b == b'b' && at(pos + 1) == b'"') =>
            {
                let mut i = pos + src[pos..].iter().take_while(|&&c| c != b'"').count() + 1;
                while i < src.len() {
                    i += 1;
                    match (src[i - 1], raw) {
                        (b'"', Some(h)) if (i..i + h).all(|k| at(k) == b'#') => {
                            i += h;
                            break;
                        }
                        (b'"', None) => break,
                        (b'\\', None) => i += 1,
                        _ => {}
                    }
                }
                (i, true)
            }
            b'b' if at(pos + 1) == b'\'' => (char_end(pos + 1), true),
            b'\'' if is_ident_start(at(pos + 1)) && at(pos + 2) != b'\'' => {
                let name = src[pos + 1..].iter().take_while(|&&c| is_ident_continue(c));
                (pos + 1 + name.count(), true)
            }
            b'\'' => (char_end(pos), true),
            _ if is_ident_continue(b) => {
                let word = src[pos..].iter().take_while(|&&c| is_ident_continue(c));
                (pos + word.count(), true)
            }
            _ => (pos + 1, true),
        };
        let end = end.min(src.len());
        if token {
            toks.push((line, &src[pos..end]));
        }
        line += src[pos..end].iter().filter(|&&c| c == b'\n').count() as u32;
        pos = end;
    }
    toks
}

/// Per token, whether it is test-only: inside a `#[cfg(test)]` item or
/// a `#[test]` fn. Also the names of `#[cfg(test)] mod name;`
/// declarations, whose sibling files are test-only throughout.
fn test_items<'a>(toks: &[Tok<'a>]) -> (Vec<bool>, Vec<&'a [u8]>) {
    const NONE: usize = usize::MAX;
    let text = |i: usize| toks.get(i).map_or(&b""[..], |t| t.1);
    let mut pair = vec![NONE; toks.len()];
    let mut stack = Vec::new();
    for i in 0..toks.len() {
        match text(i) {
            b"(" | b"[" | b"{" => stack.push(i),
            b")" | b"]" | b"}" => {
                if let Some(open) = stack.pop() {
                    (pair[open], pair[i]) = (i, open);
                }
            }
            _ => {}
        }
    }
    // End (exclusive) of the item starting at `i`: its first `;` or `,`,
    // or its first brace group, at its own depth.
    let item_end = |mut i: usize| {
        while i < toks.len() {
            match text(i) {
                b"(" | b"[" | b"{" if pair[i] == NONE => return toks.len(),
                b"{" => return pair[i] + 1,
                b"(" | b"[" => i = pair[i] + 1,
                b")" | b"]" | b"}" => return i,
                b";" | b"," => return i + 1,
                _ => i += 1,
            }
        }
        toks.len()
    };
    let attr = |i: usize| text(i) == b"#" && text(i + 1) == b"[" && pair[i + 1] != NONE;
    let (mut in_test, mut mods) = (vec![false; toks.len()], Vec::new());
    let mut i = 0;
    while i < toks.len() {
        // Inner attributes `#![...]` are scanned too.
        let open = i + 1 + usize::from(text(i + 1) == b"!");
        if text(i) != b"#" || text(open) != b"[" || pair[open] == NONE {
            i += 1;
            continue;
        }
        let close = pair[open];
        let is_test = match &toks[open + 1..close] {
            [only] => only.1 == b"test",
            [first, rest @ ..] => first.1 == b"cfg" && rest.iter().any(|t| t.1 == b"test"),
            [] => false,
        };
        if is_test {
            // The item follows this and any further attributes.
            let mut item = close + 1;
            while item + 1 < toks.len() && attr(item) {
                item = pair[item + 1] + 1;
            }
            if text(item) == b"mod" && text(item + 2) == b";" {
                mods.push(text(item + 1));
            }
            let end = item_end(item);
            in_test[item..end].fill(true);
        }
        i = close + 1;
    }
    (in_test, mods)
}

/// Counts a set of (virtual-path, source) pairs.
pub fn loc_sources(sources: &[(String, String)]) -> Vec<FileLoc> {
    let scanned: Vec<_> = sources
        .iter()
        .map(|(path, src)| {
            let toks = tokens(src.as_bytes());
            let (in_test, mods) = test_items(&toks);
            (path, toks, in_test, mods)
        })
        .collect();
    let paths: BTreeSet<&str> = sources.iter().map(|(p, _)| p.as_str()).collect();
    let mut test_files = BTreeSet::new();
    for (path, _, _, mods) in &scanned {
        let dir = path.rsplit_once('/').map_or("", |(d, _)| d);
        for m in mods.iter().map(|m| String::from_utf8_lossy(m)) {
            for candidate in [format!("{dir}/{m}.rs"), format!("{dir}/{m}/mod.rs")] {
                if paths.contains(candidate.as_str()) {
                    test_files.insert(candidate);
                }
            }
        }
    }
    scanned
        .iter()
        .map(|(path, toks, in_test, _)| {
            let test_file = test_files.contains(path.as_str())
                || path.split('/').any(|p| p == "tests" || p == "benches");
            let mut code = BTreeSet::new();
            let mut any = BTreeSet::new();
            for (&(line, _), &test) in toks.iter().zip(in_test) {
                any.insert(line);
                if !test_file && !test {
                    code.insert(line);
                }
            }
            let mut parts = path.split('/');
            let region = match parts.next() {
                Some("crates") => format!("crates/{}", parts.next().unwrap_or("")),
                first => first.unwrap_or("").to_string(),
            };
            FileLoc {
                path: path.to_string(),
                region,
                code: code.len(),
                test: any.len() - code.len(),
            }
        })
        .collect()
}

/// Source roots scanned, and directory names never descended into
/// (build output, and source corpora that are not the project's code).
const SCAN_ROOTS: [&str; 6] = [
    "crates",
    "src",
    "tests",
    "examples",
    "xtask/src",
    "xtask/tests",
];
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
            if !SKIP_DIRS.contains(&name) {
                collect_rs(root, &path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            if let Ok(src) = fs::read_to_string(&path) {
                out.push((rel, src));
            }
        }
    }
}

/// Counts the repository rooted at `root`.
pub fn loc_repo(root: &Path) -> Vec<FileLoc> {
    let mut sources = Vec::new();
    for sub in SCAN_ROOTS {
        collect_rs(root, &root.join(sub), &mut sources);
    }
    sources.sort();
    sources.dedup_by(|a, b| a.0 == b.0);
    loc_sources(&sources)
}

/// The report: one total row per region, one row per file under it,
/// and a grand total. Plain text, stable order, so two reports `diff`.
pub fn render(files: &[FileLoc]) -> String {
    let mut regions: BTreeMap<String, Vec<&FileLoc>> = BTreeMap::new();
    for f in files {
        regions.entry(f.region.clone()).or_default().push(f);
    }
    let mut s = format!("{:>7} {:>7}  path\n", "code", "test");
    let (mut code, mut test) = (0, 0);
    for (name, members) in &regions {
        let c: usize = members.iter().map(|f| f.code).sum();
        let t: usize = members.iter().map(|f| f.test).sum();
        code += c;
        test += t;
        s += &format!("{c:>7} {t:>7}  {name}/\n");
        for f in members {
            s += &format!("{:>7} {:>7}    {}\n", f.code, f.test, f.path);
        }
    }
    s + &format!("{code:>7} {test:>7}  total\n")
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
        // A `//` inside a raw string is not a comment, a nested block
        // comment is one comment, and a multi-line string counts on its
        // first line only.
        let src = "let a = r#\"// not \"a comment\"#;\n/* a /* b */\n c */\nfn s() -> &'static str {\n    \"one\ntwo\"\n}\n";
        let loc = count("crates/x/src/lib.rs", src);
        assert_eq!((loc.code, loc.test), (4, 0));
    }

    #[test]
    fn cfg_test_items_and_test_fns_count_as_test() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        f();\n    }\n}\n";
        let loc = count("crates/x/src/lib.rs", src);
        // `fn f` and the `#[cfg(test)]` attribute line are code.
        assert_eq!((loc.code, loc.test), (2, 6));
        // `'{'` is a char, not a brace that would end the test item
        // early; `'a` is a lifetime, not a char running to the next `'`.
        let src = "#[test]\nfn t<'a>(x: &'a u8) {\n    let c = '{';\n}\nfn live() {}\n";
        let loc = count("crates/x/src/lib.rs", src);
        assert_eq!((loc.code, loc.test), (2, 3));
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
