//! `ticket-leak`: every commit/fsync ticket must flow somewhere live.
//!
//! The split-phase commit API returns a `#[must_use] CommitTicket`
//! whose *redemption* (`commit_wait` / `fsync_wait`) is what makes the
//! transaction durable. `#[must_use]` catches a bare `submit();`
//! statement — but is defeated by `let _ = submit();` and by
//! store-and-drop (`let t = submit();` with `t` never touched again).
//! Either way the transaction may silently never become durable: the
//! writes are visible (submit flips X-L2P state in RAM) and the meta
//! page may never be programmed, which is precisely the
//! lost-durability window the crash matrix exists to rule out.
//!
//! The registry pass collects every fn returning a ticket type (any
//! `*Ticket` struct, today `CommitTicket`) — trait methods, inherent
//! impls, and `-> Self` constructors resolved through their impl
//! block. The lint then walks each fn body and flags a ticket-producing
//! call when:
//!
//! - it is bound with `let _ =` (with or without `?`);
//! - it stands as a bare `…;` statement (the `?` form included: the
//!   ticket out of `submit()?` is dropped on the floor);
//! - it is bound to identifiers none of which appear again in the
//!   enclosing fn (store-and-drop).
//!
//! A ticket that is returned, stored, passed on, or method-chained is
//! accepted — the receiving code is then the one this lint audits.
//!
//! Waivers: `// xftl-analyze: allow(ticket-leak): <why>` — e.g. an
//! immediate ticket constructed for a read-only no-op path.

use super::{emit, Registry, SourceFile, Violation};
use crate::analyze::lexer::TokKind;
use crate::analyze::parse::fns;

pub fn run(f: &SourceFile, reg: &Registry, out: &mut Vec<Violation>) {
    if !super::library_code(f, reg) {
        return;
    }
    for decl in fns(f) {
        let Some((body_open, body_close)) = decl.body else {
            continue;
        };
        if f.in_test(decl.fn_tok) {
            continue;
        }
        for call in super::call_sites(f, body_open + 1, body_close) {
            let name = &f.toks[call.ident].text;
            let is_ticket = reg.ticket_plain.contains(name)
                || call
                    .qualifier
                    .as_ref()
                    .is_some_and(|q| reg.ticket_qualified.contains(&format!("{q}::{name}")));
            if !is_ticket || f.in_test(call.ident) {
                continue;
            }
            check_site(f, &call, body_close, out);
        }
    }
}

fn check_site(f: &SourceFile, call: &super::CallSite, body_close: usize, out: &mut Vec<Violation>) {
    let name = f.toks[call.ident].text.clone();
    let args_close = f.pair[call.args_open];
    if args_close == usize::MAX {
        return;
    }
    // Token after the call (skipping a `?`).
    let mut after = args_close + 1;
    if f.toks.get(after).is_some_and(|t| t.is_punct("?")) {
        after += 1;
    }
    let start = super::stmt_start(f, call.ident);
    let prefix = &f.toks[start..call.ident];

    // `let` statement? Find the binder pattern.
    if let Some(let_off) = prefix.iter().position(|t| t.is_ident("let")) {
        let let_idx = start + let_off;
        // Pattern tokens: between `let` and the first `=` before the call.
        let eq = (let_idx + 1..call.ident).find(|&k| f.toks[k].is_punct("="));
        let Some(eq) = eq else {
            return; // `let … else` without binder shapes we understand
        };
        let pat: Vec<&crate::analyze::lexer::Tok> = f.toks[let_idx + 1..eq].iter().collect();
        if pat.len() == 1 && pat[0].is_ident("_") {
            emit(
                out,
                "ticket-leak",
                f,
                call.ident,
                format!(
                    "ticket from `{name}` discarded with `let _ =` — it must reach a *_wait, a return, or a live store"
                ),
            );
            return;
        }
        // Collect candidate binding identifiers (skip keywords and
        // pattern constructors, which start uppercase).
        let binders: Vec<String> = pat
            .iter()
            .filter(|t| {
                t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "mut" | "ref" | "box")
                    && t.text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                    && t.text != "_"
            })
            .map(|t| t.text.clone())
            .collect();
        if binders.is_empty() {
            return;
        }
        let stmt_end = super::stmt_end(f, call.ident);
        let used = f.toks[stmt_end..body_close.min(f.toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && binders.contains(&t.text));
        if !used {
            emit(
                out,
                "ticket-leak",
                f,
                call.ident,
                format!(
                    "ticket from `{name}` bound to `{}` is never used again — it must reach a *_wait, a return, or a live store",
                    binders.join("`/`")
                ),
            );
        }
        return;
    }

    // Assignment (`x = submit();`) or `return`: the ticket is stored or
    // escapes; accepted.
    if prefix
        .iter()
        .any(|t| t.is_punct("=") || t.is_ident("return"))
    {
        return;
    }

    // Bare statement: `submit();` / `submit()?;` — ticket dropped.
    if f.toks.get(after).is_some_and(|t| t.is_punct(";")) {
        emit(
            out,
            "ticket-leak",
            f,
            call.ident,
            format!(
                "ticket from `{name}` dropped by this statement — it must reach a *_wait, a return, or a live store"
            ),
        );
    }
    // Anything else (method chain, tail expression, argument position)
    // hands the ticket onward; the receiving code is audited in turn.
}
