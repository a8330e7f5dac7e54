//! Structural facts over the token stream: delimiter pairing, `cfg`
//! regions, flattened use-trees, and fn-signature extraction.
//!
//! This is deliberately *not* a full parser. Each lint needs a handful
//! of reliable structural facts — "this token range is `#[cfg(test)]`
//! code", "this fn returns `Result<_, DevError>`", "these are the arms
//! of that `match`" — and those are all derivable from a paired token
//! stream plus a few local scans. Where the heuristics cut a corner the
//! cut is *conservative for the code we lint* (a `cfg` predicate other
//! than `test` counts as active, an unparseable pattern is never flagged).

use super::lexer::{lex, Tok, TokKind, WaiverDecl};

/// A lexed, paired, cfg-annotated source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (also used as the virtual
    /// path for fixture sources).
    pub path: String,
    pub toks: Vec<Tok>,
    /// `pair[i]` = index of the delimiter matching `toks[i]`
    /// (`usize::MAX` for non-delimiters and unbalanced ones).
    pub pair: Vec<usize>,
    pub waivers: Vec<WaiverDecl>,
    /// Token-index ranges (half-open) that are test-only code:
    /// `#[cfg(test)]` items and `#[test]` fns.
    pub test_ranges: Vec<(usize, usize)>,
    /// Names from `#[cfg(test)] mod <name>;` declarations: the named
    /// sibling files are test-only in their entirety.
    pub test_mod_decls: Vec<String>,
}

impl SourceFile {
    /// Lex and annotate one source file.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let (toks, waivers) = lex(src);
        let pair = pair_delims(&toks);
        let mut f = SourceFile {
            path: path.to_string(),
            toks,
            pair,
            waivers,
            test_ranges: Vec::new(),
            test_mod_decls: Vec::new(),
        };
        f.scan_cfg();
        f
    }

    /// The crate-ish component the file belongs to: `crates/<name>`,
    /// `src`, `tests`, `examples`, or its first path component.
    pub fn region(&self) -> String {
        let mut parts = self.path.split('/');
        match parts.next() {
            Some("crates") => format!("crates/{}", parts.next().unwrap_or("")),
            Some(first) => first.to_string(),
            None => String::new(),
        }
    }

    /// True when token `i` is inside test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i < b)
    }

    /// End (exclusive) of the item/statement whose first token after
    /// its attributes is `start`: the first `;` or top-level `,` at the
    /// same depth, or the end of the first brace group at the same
    /// depth, whichever comes first.
    pub fn item_end(&self, start: usize) -> usize {
        let mut i = start;
        while i < self.toks.len() {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Open => {
                    let close = self.pair[i];
                    if close == usize::MAX {
                        return self.toks.len();
                    }
                    if t.text == "{" {
                        return close + 1;
                    }
                    i = close + 1;
                }
                TokKind::Close => return i, // enclosing group ended first
                TokKind::Punct if t.text == ";" || t.text == "," => return i + 1,
                _ => i += 1,
            }
        }
        self.toks.len()
    }

    /// Walks every `#[...]` attribute, recording test ranges and
    /// `#[cfg(test)] mod name;` declarations.
    fn scan_cfg(&mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            if !self.toks[i].is_punct("#") {
                i += 1;
                continue;
            }
            // Inner attrs `#![...]` are file-scoped; skip over them.
            let mut j = i + 1;
            if j < self.toks.len() && self.toks[j].is_punct("!") {
                j += 1;
            }
            let Some(open) = self.toks.get(j).filter(|t| t.kind == TokKind::Open) else {
                i += 1;
                continue;
            };
            if open.text != "[" || self.pair[j] == usize::MAX {
                i += 1;
                continue;
            }
            let close = self.pair[j];
            let inner = &self.toks[j + 1..close];
            let is_test = is_test_attr(inner);
            // The attributed item starts after this attribute and any
            // further consecutive attributes.
            let mut item = close + 1;
            while item + 1 < self.toks.len()
                && self.toks[item].is_punct("#")
                && self.toks[item + 1].kind == TokKind::Open
                && self.toks[item + 1].text == "["
                && self.pair[item + 1] != usize::MAX
            {
                item = self.pair[item + 1] + 1;
            }
            if is_test {
                let end = self.item_end(item);
                // `#[cfg(test)] mod name;` pulls a sibling file in.
                if self.toks.get(item).is_some_and(|t| t.is_ident("mod"))
                    && self.toks.get(item + 2).is_some_and(|t| t.is_punct(";"))
                {
                    if let Some(name) = self.toks.get(item + 1) {
                        self.test_mod_decls.push(name.text.clone());
                    }
                }
                self.test_ranges.push((item, end));
            }
            i = close + 1;
        }
    }

    /// Flattens every `use` declaration into absolute path strings: `use a::b::{c, d::e as f};` yields
    /// `a::b::c` and `a::b::d::e`, each tagged with the line of the
    /// `use` keyword.
    pub fn use_paths(&self) -> Vec<(String, u32, usize)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.toks.len() {
            if self.toks[i].is_ident("use") {
                let end = self.item_end(i);
                let line = self.toks[i].line;
                flatten_use(self, i + 1, end, String::new(), line, i, &mut out);
                i = end;
            } else {
                i += 1;
            }
        }
        out
    }

    /// The longest `a::b::c` path starting at token `i`, as segment
    /// texts. Empty when `i` is not an ident.
    pub fn path_at(&self, i: usize) -> Vec<&str> {
        let mut segs = Vec::new();
        let mut j = i;
        while let Some(t) = self.toks.get(j) {
            if t.kind != TokKind::Ident {
                break;
            }
            segs.push(t.text.as_str());
            if self.toks.get(j + 1).is_some_and(|p| p.is_punct("::")) {
                j += 2;
            } else {
                break;
            }
        }
        segs
    }

    /// True when token `i` starts a path (its predecessor is not `::`,
    /// so `std::time` inside `a::std::time` doesn't count).
    pub fn path_starts_at(&self, i: usize) -> bool {
        self.toks[i].kind == TokKind::Ident && !(i > 0 && self.toks[i - 1].is_punct("::"))
    }
}

/// `#[test]`, or a `#[cfg(...)]` naming `test`.
fn is_test_attr(inner: &[Tok]) -> bool {
    match inner {
        [only] => only.is_ident("test"),
        [first, rest @ ..] => first.is_ident("cfg") && rest.iter().any(|t| t.text == "test"),
        [] => false,
    }
}

/// Matches `(`/`)`, `[`/`]`, `{`/`}` into a pairing table.
fn pair_delims(toks: &[Tok]) -> Vec<usize> {
    let mut pair = vec![usize::MAX; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open => stack.push(i),
            TokKind::Close => {
                if let Some(open) = stack.pop() {
                    pair[open] = i;
                    pair[i] = open;
                }
            }
            _ => {}
        }
    }
    pair
}

/// Recursive flattening of one use-tree segment.
fn flatten_use(
    f: &SourceFile,
    mut i: usize,
    end: usize,
    prefix: String,
    line: u32,
    use_tok: usize,
    out: &mut Vec<(String, u32, usize)>,
) {
    let mut path = prefix;
    while i < end {
        let t = &f.toks[i];
        match t.kind {
            TokKind::Ident if t.text == "as" => {
                // Rename: the imported path is already complete.
                i += 2;
            }
            TokKind::Ident | TokKind::Num => {
                if !path.is_empty() && !path.ends_with("::") {
                    path.push_str("::");
                }
                path.push_str(&t.text);
                i += 1;
            }
            TokKind::Punct if t.text == "::" => {
                i += 1;
            }
            TokKind::Punct if t.text == "*" => {
                if !path.is_empty() && !path.ends_with("::") {
                    path.push_str("::");
                }
                path.push('*');
                i += 1;
            }
            TokKind::Open if t.text == "{" => {
                let close = f.pair[i];
                if close == usize::MAX {
                    break;
                }
                // Split the group's top level on commas, recursing on
                // each branch with the current prefix.
                let mut start = i + 1;
                let mut k = i + 1;
                while k <= close {
                    let at_comma = f.toks[k].is_punct(",") && same_level(f, i, k);
                    if at_comma || k == close {
                        if k > start {
                            flatten_use(f, start, k, path.clone(), line, use_tok, out);
                        }
                        start = k + 1;
                    }
                    if f.toks[k].kind == TokKind::Open && f.pair[k] != usize::MAX {
                        k = f.pair[k] + 1;
                    } else {
                        k += 1;
                    }
                }
                return; // the group terminates this branch
            }
            TokKind::Punct if t.text == ";" || t.text == "," => break,
            _ => {
                i += 1;
            }
        }
    }
    if !path.is_empty() {
        out.push((path, line, use_tok));
    }
}

/// True when token `k` sits directly inside the group opened at `open`
/// (not in a nested group).
fn same_level(f: &SourceFile, open: usize, k: usize) -> bool {
    let close = f.pair[open];
    let mut i = open + 1;
    while i < k {
        if f.toks[i].kind == TokKind::Open && f.pair[i] != usize::MAX && f.pair[i] < close {
            if f.pair[i] >= k {
                return false;
            }
            i = f.pair[i] + 1;
        } else {
            i += 1;
        }
    }
    true
}

/// One `fn` found anywhere in a file (free, impl, or trait).
#[derive(Debug)]
pub struct FnDecl {
    pub name: String,
    /// Index of the `fn` keyword token.
    pub fn_tok: usize,
    /// Return-type tokens rendered as text (empty for `()`-returning).
    pub ret: String,
    /// Token range of the return type (half-open), when there is one.
    pub ret_range: Option<(usize, usize)>,
    /// Body token range (open-brace .. close-brace inclusive), when the
    /// fn has a body.
    pub body: Option<(usize, usize)>,
}

/// Extracts every fn declaration with its return type and body range.
pub fn fns(f: &SourceFile) -> Vec<FnDecl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < f.toks.len() {
        if !f.toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = f.toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        // Find the parameter list: first `(` group after the name
        // (skipping generics `<...>` which are not delimiter-paired —
        // scan forward to the first Open paren at this level).
        let mut j = i + 2;
        let mut params_close = None;
        while j < f.toks.len() {
            let t = &f.toks[j];
            if t.kind == TokKind::Open && t.text == "(" {
                params_close = (f.pair[j] != usize::MAX).then(|| f.pair[j]);
                break;
            }
            if t.kind == TokKind::Open {
                if f.pair[j] == usize::MAX {
                    break;
                }
                j = f.pair[j];
            }
            if t.is_punct(";") || (t.kind == TokKind::Open && t.text == "{") {
                break;
            }
            j += 1;
        }
        let Some(close) = params_close else {
            i += 1;
            continue;
        };
        // Return type: tokens between `->` and the body `{` / `;` /
        // `where`.
        let mut ret = String::new();
        let mut body = None;
        let mut k = close + 1;
        let has_arrow = f.toks.get(k).is_some_and(|t| t.is_punct("->"));
        if has_arrow {
            k += 1;
        }
        let ret_start = k;
        while k < f.toks.len() {
            let t = &f.toks[k];
            if t.kind == TokKind::Open && t.text == "{" {
                if f.pair[k] != usize::MAX {
                    body = Some((k, f.pair[k]));
                }
                break;
            }
            if t.is_punct(";") || t.is_ident("where") {
                // `where` clauses end the return type; the body (if
                // any) is the next top-level brace group.
                if t.is_ident("where") {
                    let mut m = k + 1;
                    while m < f.toks.len() {
                        let w = &f.toks[m];
                        if w.kind == TokKind::Open && w.text == "{" {
                            if f.pair[m] != usize::MAX {
                                body = Some((m, f.pair[m]));
                            }
                            break;
                        }
                        if w.is_punct(";") {
                            break;
                        }
                        if w.kind == TokKind::Open && f.pair[m] != usize::MAX {
                            m = f.pair[m];
                        }
                        m += 1;
                    }
                }
                break;
            }
            if has_arrow {
                if !ret.is_empty() {
                    ret.push(' ');
                }
                ret.push_str(&t.text);
            }
            if t.kind == TokKind::Open {
                if f.pair[k] == usize::MAX {
                    break;
                }
                // Render group contents into the return type text too.
                if has_arrow {
                    for inner in &f.toks[k + 1..=f.pair[k]] {
                        ret.push(' ');
                        ret.push_str(&inner.text);
                    }
                }
                k = f.pair[k];
            }
            k += 1;
        }
        out.push(FnDecl {
            name,
            fn_tok: i,
            ret,
            ret_range: has_arrow.then_some((ret_start, k)),
            body,
        });
        i += 2;
    }
    out
}

/// One `impl` block: the type it implements on (last path segment of
/// the self type) and its body token range.
#[derive(Debug)]
pub struct ImplSpan {
    pub type_name: String,
    pub body: (usize, usize),
}

/// Extracts every `impl` block's self-type name and body range, so fns
/// returning `Self` can be attributed to their type.
pub fn impl_spans(f: &SourceFile) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < f.toks.len() {
        if !f.toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Walk to the body `{`, remembering the last path segment seen
        // after a `for` (trait impls) or overall (inherent impls),
        // skipping generic parameter lists by angle counting.
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut j = i + 1;
        let mut body = None;
        while j < f.toks.len() {
            let t = &f.toks[j];
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "for" if t.kind == TokKind::Ident && angle == 0 => saw_for = true,
                "where" if t.kind == TokKind::Ident && angle == 0 => {}
                "{" if t.kind == TokKind::Open && angle <= 0 => {
                    if f.pair[j] != usize::MAX {
                        body = Some((j, f.pair[j]));
                    }
                    break;
                }
                _ => {
                    if t.kind == TokKind::Ident && angle == 0 {
                        if saw_for {
                            after_for = Some(t.text.clone());
                        } else {
                            last_ident = Some(t.text.clone());
                        }
                    }
                    if t.kind == TokKind::Open {
                        if f.pair[j] == usize::MAX {
                            break;
                        }
                        j = f.pair[j];
                    }
                }
            }
            j += 1;
        }
        if let (Some(body), Some(name)) = (body, after_for.or(last_ident)) {
            out.push(ImplSpan {
                type_name: name,
                body,
            });
            i = body.0 + 1; // nested impls are rare; scan inside anyway
        } else {
            i = j + 1;
        }
    }
    out
}

/// A `type Result<T> = std::result::Result<T, Err>;` alias: returns the
/// error type name, when the file declares one.
pub fn result_alias_error(f: &SourceFile) -> Option<String> {
    let mut i = 0;
    while i + 1 < f.toks.len() {
        if f.toks[i].is_ident("type") && f.toks[i + 1].is_ident("Result") {
            // `item_end` stops at commas (for field/variant scans), but a
            // `Result<T, E>` alias has commas inside its angle brackets —
            // scan to the terminating `;` ourselves, hopping over groups.
            let mut end = i;
            while end < f.toks.len() && !f.toks[end].is_punct(";") {
                if f.toks[end].kind == TokKind::Open {
                    let close = f.pair[end];
                    if close == usize::MAX {
                        break;
                    }
                    end = close;
                }
                end += 1;
            }
            // Error type = second top-level angle argument of the RHS
            // `Result`: find `=` then the last `Result` ident, then the
            // comma-separated args.
            let eq = (i..end).find(|&k| f.toks[k].is_punct("="))?;
            let rhs_result = (eq..end).rev().find(|&k| f.toks[k].is_ident("Result"))?;
            return second_angle_arg(f, rhs_result, end);
        }
        i += 1;
    }
    None
}

/// For `Result<...>` at token `i`, the last ident of the second
/// top-level generic argument (the error type), when present.
pub fn second_angle_arg(f: &SourceFile, i: usize, end: usize) -> Option<String> {
    let mut k = i + 1;
    if !f.toks.get(k).is_some_and(|t| t.is_punct("<")) {
        return None;
    }
    k += 1;
    let mut depth = 1i32;
    let mut arg = 0usize;
    let mut last_ident_in_arg1: Option<String> = None;
    while k < end && depth > 0 {
        let t = &f.toks[k];
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "," if depth == 1 => arg += 1,
            _ => {
                if arg == 1 && t.kind == TokKind::Ident {
                    last_ident_in_arg1 = Some(t.text.clone());
                }
            }
        }
        if t.kind == TokKind::Open {
            if f.pair[k] == usize::MAX {
                break;
            }
            k = f.pair[k];
        }
        k += 1;
    }
    last_ident_in_arg1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn cfg_test_mod_range_covers_the_block() {
        let f =
            parse("fn live() {}\n#[cfg(test)]\nmod tests { fn t() { bad(); } }\nfn also_live() {}");
        let bad = f.toks.iter().position(|t| t.is_ident("bad")).unwrap();
        let live = f.toks.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(f.in_test(bad));
        assert!(!f.in_test(live));
    }

    #[test]
    fn cfg_test_mod_decl_is_recorded() {
        let f = parse("#[cfg(test)]\nmod fs_tests;\nfn live() {}");
        assert_eq!(f.test_mod_decls, vec!["fs_tests".to_string()]);
    }

    #[test]
    fn use_trees_flatten() {
        let f = parse("use a::b::{c, d::e as f, g::*};\nuse h;\n");
        let paths: Vec<String> = f.use_paths().into_iter().map(|(p, _, _)| p).collect();
        assert_eq!(paths, vec!["a::b::c", "a::b::d::e", "a::b::g::*", "h"]);
    }

    #[test]
    fn fn_return_types_extract() {
        let f = parse(
            "fn plain() {}\nfn fall(x: u8) -> Result<()> { body() }\nfn exp() -> Result<u64, DevError>;\nfn tick(&mut self) -> Result<CommitTicket> { t() }",
        );
        let decls = fns(&f);
        let names: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["plain", "fall", "exp", "tick"]);
        assert_eq!(decls[0].ret, "");
        assert!(decls[1].ret.starts_with("Result"));
        assert!(decls[2].ret.contains("DevError"));
        assert!(decls[3].ret.contains("CommitTicket"));
        assert!(decls[1].body.is_some());
        assert!(decls[2].body.is_none());
    }

    #[test]
    fn result_alias_error_extracts() {
        let f = parse("pub type Result<T> = std::result::Result<T, DevError>;\n");
        assert_eq!(result_alias_error(&f).as_deref(), Some("DevError"));
        let f = parse("pub type Result<T, E = FsError> = std::result::Result<T, E>;\n");
        // Unresolvable default-param aliases yield the generic name —
        // callers treat unknown names as not-domain-errors.
        assert!(result_alias_error(&f).is_some());
    }

    #[test]
    fn explicit_result_error_arg() {
        let f = parse("fn f() -> Result<Vec<u8>, DevError> {}\n");
        let r = f.toks.iter().position(|t| t.is_ident("Result")).unwrap();
        assert_eq!(
            second_angle_arg(&f, r, f.toks.len()).as_deref(),
            Some("DevError")
        );
    }

    #[test]
    fn impl_spans_find_inherent_and_trait_impls() {
        let f = parse(
            "impl CommitTicket { fn new() -> Self { x() } }\nimpl<'a> TxBlockDevice for XftlDev<'a> { fn commit_submit(&mut self) -> Result<CommitTicket> { y() } }",
        );
        let spans = impl_spans(&f);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].type_name, "CommitTicket");
        assert_eq!(spans[1].type_name, "XftlDev");
    }

    #[test]
    fn item_end_stops_at_semicolon_or_brace() {
        let f = parse("mod a;\nmod b { fn x() {} }\nfn c() {}");
        let a = f.toks.iter().position(|t| t.is_ident("mod")).unwrap();
        assert!(f.toks[f.item_end(a) - 1].is_punct(";"));
    }
}
