//! `error-discard`: domain `Result`s must not be silently dropped.
//!
//! `Result` is `#[must_use]`, so a bare `foo();` statement already
//! warns — but `let _ = foo();` and `foo().ok();` defeat that, and both
//! idioms appear exactly where a tired hand reaches during an
//! integration debug session. In this stack a swallowed `DevError` or
//! `FlashError` is not an inconvenience; it is a correctness hole the
//! shadow oracle may only catch thousands of operations later.
//!
//! The pass is two-phase and domain-aware: a workspace registry pass
//! collects every `fn … -> Result<_, E>` whose error type is one of the
//! stack's error enums (discovered from `enum *Error` declarations,
//! with per-crate `type Result<T> = …` aliases resolved), then flags:
//!
//! - `let _ = <expr>;` where the expression's top-level call chain ends
//!   in a registered fallible fn (an expression ending in `?` is fine —
//!   the error propagates, only the `Ok` value is dropped);
//! - `<call>.ok();` as a statement — the `Result` is converted to an
//!   `Option` and immediately dropped.
//!
//! Scope: library code outside `#[cfg(test)]`. Tests may discard
//! errors they have just asserted on.
//!
//! Waivers: `// xftl-analyze: allow(error-discard): <why>` — e.g. a
//! best-effort cleanup path where failure is genuinely ignorable.

use super::{emit, Registry, SourceFile, Violation};
use crate::analyze::lexer::TokKind;

pub fn run(f: &SourceFile, reg: &Registry, out: &mut Vec<Violation>) {
    if !super::library_code(f, reg) {
        return;
    }
    let toks = &f.toks;
    let mut i = 0;
    while i < toks.len() {
        if f.in_test(i) {
            i += 1;
            continue;
        }
        // Form 1: `let _ = <expr> ;`
        if toks[i].is_ident("let")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("="))
        {
            let expr_start = i + 3;
            let end = super::stmt_end(f, expr_start);
            // `let _ = f()?;` propagates the error; only the Ok value
            // is dropped, which is fine.
            let ends_with_try = end > 0 && toks.get(end - 1).is_some_and(|t| t.is_punct("?"));
            if !ends_with_try {
                if let Some((callee, err)) = last_fallible_call(f, reg, expr_start, end) {
                    emit(
                        out,
                        "error-discard",
                        f,
                        callee,
                        format!(
                            "`let _ =` discards the Result<_, {err}> from `{}` — handle it or propagate with `?`",
                            toks[callee].text
                        ),
                    );
                }
            }
            i = end + 1;
            continue;
        }
        // Form 2: `<call>.ok();` as a statement.
        if toks[i].is_ident("ok")
            && i >= 2
            && toks[i - 1].is_punct(".")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Open && t.text == "(")
            && f.pair[i + 1] == i + 2
            && toks.get(i + 3).is_some_and(|t| t.is_punct(";"))
        {
            // The receiver chain must end in a registered fallible call:
            // `recv.fallible(args).ok();`
            if toks[i - 2].kind == TokKind::Close && f.pair[i - 2] != usize::MAX {
                let args_open = f.pair[i - 2];
                if args_open >= 1 && toks[args_open - 1].kind == TokKind::Ident {
                    let name = &toks[args_open - 1].text;
                    if let Some(err) = reg.fallible_err(name) {
                        emit(
                            out,
                            "error-discard",
                            f,
                            args_open - 1,
                            format!(
                                "Result<_, {err}> from `{name}` converted with `.ok()` and dropped — handle it or propagate with `?`"
                            ),
                        );
                    }
                }
            }
        }
        i += 1;
    }
}

/// The last top-level call in `[start, end)` that is registered as
/// fallible with a domain error; returns (callee token, error name).
fn last_fallible_call(
    f: &SourceFile,
    reg: &Registry,
    start: usize,
    end: usize,
) -> Option<(usize, String)> {
    let mut found = None;
    let mut i = start;
    while i < end.min(f.toks.len()) {
        let t = &f.toks[i];
        if t.kind == TokKind::Open {
            if f.pair[i] == usize::MAX {
                break;
            }
            i = f.pair[i] + 1;
            continue;
        }
        if t.kind == TokKind::Ident
            && f.toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Open && n.text == "(")
        {
            if let Some(err) = reg.fallible_err(&t.text) {
                found = Some((i, err));
            }
        }
        i += 1;
    }
    found
}
