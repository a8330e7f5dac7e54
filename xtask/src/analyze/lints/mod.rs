//! The lint suite: each module encodes one X-FTL domain invariant.
//!
//! Shared here: the call-site walker, backward statement scanning, and
//! the match-arm parser that individual lints build on. Each lint's own
//! module documents the invariant it encodes and its waiver policy (see
//! also DESIGN.md "Static analysis").

pub mod error_discard;
pub mod layering;
pub mod sim_clock;
pub mod ticket_leak;
pub mod wildcard_arm;

pub use super::parse::SourceFile;
pub use super::{Registry, Violation};
use crate::analyze::lexer::TokKind;

/// Stable lint identifiers (also the names accepted in waivers).
pub const LINTS: [&str; 5] = [
    "sim-clock",
    "layering",
    "error-discard",
    "wildcard-arm",
    "ticket-leak",
];

/// Runs one lint over one file, appending violations.
pub fn run_lint(lint: &'static str, f: &SourceFile, reg: &Registry, out: &mut Vec<Violation>) {
    match lint {
        "sim-clock" => sim_clock::run(f, out),
        "layering" => layering::run(f, reg, out),
        "error-discard" => error_discard::run(f, reg, out),
        "wildcard-arm" => wildcard_arm::run(f, reg, out),
        "ticket-leak" => ticket_leak::run(f, reg, out),
        _ => {}
    }
}

/// True for files where the *code-shape* lints (error-discard,
/// ticket-leak, wildcard-arm) apply: library code, not integration
/// tests, examples, or bench harnesses (those are covered by the
/// determinism lints but may legitimately discard errors or match
/// loosely).
pub fn library_code(f: &SourceFile, reg: &Registry) -> bool {
    let p = f.path.as_str();
    let lib = (p.starts_with("crates/") && p.contains("/src/")) || p.starts_with("src/");
    lib && !reg.test_files.contains(p)
}

/// Emits one violation anchored at token `i`.
pub fn emit(out: &mut Vec<Violation>, lint: &'static str, f: &SourceFile, i: usize, msg: String) {
    let (line, col) = f.toks.get(i).map_or((1, 1), |t| (t.line, t.col));
    out.push(Violation {
        lint,
        path: f.path.clone(),
        line,
        col,
        msg,
    });
}

/// A call site: identifier immediately followed by a parenthesis group
/// (macro invocations — ident `!` `(` — never match this shape).
#[derive(Debug)]
pub struct CallSite {
    /// Token index of the callee identifier.
    pub ident: usize,
    /// Token index of the opening `(` of the arguments.
    pub args_open: usize,
    /// `Some("Type")` when the call is written `Type::name(...)`.
    pub qualifier: Option<String>,
    /// True when written as a method call (`recv.name(...)`).
    pub method: bool,
}

/// All call sites inside the half-open token range.
pub fn call_sites(f: &SourceFile, start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in start..end.min(f.toks.len()) {
        if f.toks[i].kind != TokKind::Ident {
            continue;
        }
        let Some(next) = f.toks.get(i + 1) else {
            continue;
        };
        if !(next.kind == TokKind::Open && next.text == "(") {
            continue;
        }
        // `fn name(` and `struct`/`if`/`match` keywords are not calls.
        if i > 0 && matches!(f.toks[i - 1].text.as_str(), "fn") {
            continue;
        }
        if matches!(
            f.toks[i].text.as_str(),
            "if" | "while" | "match" | "for" | "return" | "fn"
        ) {
            continue;
        }
        let qualifier =
            (i >= 2 && f.toks[i - 1].is_punct("::") && f.toks[i - 2].kind == TokKind::Ident)
                .then(|| f.toks[i - 2].text.clone());
        let method = i >= 1 && f.toks[i - 1].is_punct(".");
        out.push(CallSite {
            ident: i,
            args_open: i + 1,
            qualifier,
            method,
        });
    }
    out
}

/// Start of the statement containing token `i`: scans backward, jumping
/// over complete delimiter groups, until a `;`, the opening brace of
/// the enclosing block, or the file start.
pub fn stmt_start(f: &SourceFile, i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let prev = &f.toks[j - 1];
        match prev.kind {
            TokKind::Close => {
                // A `}` directly behind us is a brace-terminated statement
                // (`for`/`if`/`match`/block) — a boundary, not a group to
                // hop: jumping it would walk into the *previous* statement
                // and mis-attribute its `let` binders to this one. Paren
                // and bracket groups are sub-expressions; hop those.
                if prev.text == "}" {
                    return j;
                }
                let open = f.pair[j - 1];
                if open == usize::MAX {
                    return j;
                }
                j = open;
            }
            TokKind::Open => return j,
            TokKind::Punct if prev.text == ";" || prev.text == "," => return j,
            _ => j -= 1,
        }
    }
    j
}

/// End of the statement containing token `i`: index of its terminating
/// `;` at the statement's level, or of the closing token of the
/// enclosing block (tail expression).
pub fn stmt_end(f: &SourceFile, i: usize) -> usize {
    let mut j = i;
    while j < f.toks.len() {
        let t = &f.toks[j];
        match t.kind {
            TokKind::Open => {
                if f.pair[j] == usize::MAX {
                    return f.toks.len();
                }
                j = f.pair[j] + 1;
            }
            TokKind::Close => return j,
            TokKind::Punct if t.text == ";" => return j,
            _ => j += 1,
        }
    }
    f.toks.len()
}

/// One arm of a `match`: pattern token range (guard excluded) and the
/// index of its `=>`.
#[derive(Debug)]
pub struct Arm {
    pub pat: (usize, usize),
    pub arrow: usize,
}

/// Parses the arms of the match whose body opens at `body_open`.
pub fn match_arms(f: &SourceFile, body_open: usize) -> Vec<Arm> {
    let close = f.pair[body_open];
    if close == usize::MAX {
        return Vec::new();
    }
    let mut arms = Vec::new();
    let mut i = body_open + 1;
    while i < close {
        let pat_start = i;
        // Scan to the arm's `=>` at this level.
        let mut arrow = None;
        let mut k = i;
        while k < close {
            let t = &f.toks[k];
            if t.is_punct("=>") {
                arrow = Some(k);
                break;
            }
            if t.kind == TokKind::Open {
                if f.pair[k] == usize::MAX {
                    return arms;
                }
                k = f.pair[k];
            }
            k += 1;
        }
        let Some(arrow) = arrow else {
            break;
        };
        // Guard: `pat if cond =>` — the pattern ends at the `if`.
        let mut pat_end = arrow;
        let mut g = pat_start;
        while g < arrow {
            let t = &f.toks[g];
            if t.is_ident("if") {
                pat_end = g;
                break;
            }
            if t.kind == TokKind::Open {
                if f.pair[g] == usize::MAX {
                    break;
                }
                g = f.pair[g];
            }
            g += 1;
        }
        arms.push(Arm {
            pat: (pat_start, pat_end),
            arrow,
        });
        // Step over the arm body: a brace group, or tokens to the next
        // top-level comma.
        i = arrow + 1;
        if f.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Open && t.text == "{")
            && f.pair[i] != usize::MAX
        {
            i = f.pair[i] + 1;
            if f.toks.get(i).is_some_and(|t| t.is_punct(",")) {
                i += 1;
            }
        } else {
            while i < close {
                let t = &f.toks[i];
                if t.is_punct(",") {
                    i += 1;
                    break;
                }
                if t.kind == TokKind::Open {
                    if f.pair[i] == usize::MAX {
                        return arms;
                    }
                    i = f.pair[i];
                }
                i += 1;
            }
        }
    }
    arms
}
