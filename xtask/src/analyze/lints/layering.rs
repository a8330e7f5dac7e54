//! `layering`: the import/path graph must respect the stack.
//!
//! Three rules, checked over use-trees *and* inline path expressions:
//!
//! 1. **`crates/trace` is dependency-free.** Every layer feeds the
//!    telemetry crate, so it may name no other workspace crate (and not
//!    the `rand` shim). This holds even in its tests.
//! 2. **`crates/db` and `crates/fs` touch flash only through the
//!    transactional device surface.** The only `xftl_flash` items the
//!    host layers may name are the clock types (`SimClock`, `Nanos`);
//!    data-path types (`FlashChip`, `Ppa`, fault plans, …) must stay
//!    behind `TxBlockDevice`. Test modules are exempt — tests build
//!    rigs, and rigs own chips.
//! 3. **No one above the flash crate names `xftl_flash` module
//!    internals.** `xftl_flash::chip::…` / `xftl_flash::fault::…`
//!    reach-through bypasses the curated root re-export surface that
//!    keeps the crate free to reorganise.
//!
//! Waivers: `// xftl-analyze: allow(layering): <why>` — e.g. a
//! diagnostic tool that genuinely must inspect chip internals.

use super::{emit, Registry, SourceFile, Violation};
use crate::analyze::lexer::TokKind;

/// Flash items host layers (db/fs) may name: the simulated clock.
const FLASH_ALLOWED_ABOVE: [&str; 2] = ["SimClock", "Nanos"];

pub fn run(f: &SourceFile, reg: &Registry, out: &mut Vec<Violation>) {
    let region = f.region();
    let in_trace = region == "crates/trace";
    let host_layer = region == "crates/db" || region == "crates/fs";
    let in_flash = region == "crates/flash";
    if reg.test_files.contains(&f.path) {
        return;
    }

    // Use-declarations: check the flattened trees so `use
    // xftl_flash::{FlashChip, Nanos}` attributes the violation to the
    // offending branch, not the whole decl.
    let use_ranges: Vec<(usize, usize)> = {
        let mut v = Vec::new();
        let mut i = 0;
        while i < f.toks.len() {
            if f.toks[i].is_ident("use") {
                let end = f.item_end(i);
                v.push((i, end));
                i = end;
            } else {
                i += 1;
            }
        }
        v
    };
    for (path, line, use_tok) in f.use_paths() {
        let segs: Vec<&str> = path.split("::").collect();
        check_path(f, &segs, use_tok, line, in_trace, host_layer, in_flash, out);
    }

    // Inline path expressions, skipping tokens inside use decls (those
    // were handled above).
    for i in 0..f.toks.len() {
        if f.toks[i].kind != TokKind::Ident || !f.path_starts_at(i) {
            continue;
        }
        if use_ranges.iter().any(|&(a, b)| a <= i && i < b) {
            continue;
        }
        let segs = f.path_at(i);
        if segs.len() < 2 && !in_trace {
            continue; // a bare crate name outside a use is just a token
        }
        let segs: Vec<&str> = segs.to_vec();
        let line = f.toks[i].line;
        check_path(f, &segs, i, line, in_trace, host_layer, in_flash, out);
    }
}

#[allow(clippy::too_many_arguments)]
fn check_path(
    f: &SourceFile,
    segs: &[&str],
    tok: usize,
    _line: u32,
    in_trace: bool,
    host_layer: bool,
    in_flash: bool,
    out: &mut Vec<Violation>,
) {
    let Some(&first) = segs.first() else {
        return;
    };
    if in_trace {
        if first.starts_with("xftl_") || first == "rand" {
            emit(
                out,
                "layering",
                f,
                tok,
                format!(
                    "`{}` — crates/trace is dependency-free: every layer feeds it, so it may name no workspace crate",
                    segs.join("::")
                ),
            );
        }
        return;
    }
    if first != "xftl_flash" || in_flash {
        return;
    }
    // Rule 3: module reach-through (a lowercase second segment is a
    // module, not a re-exported item), for everyone above flash.
    if segs.len() >= 3
        && segs[1]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase())
    {
        emit(
            out,
            "layering",
            f,
            tok,
            format!(
                "`{}` — names xftl_flash module internals; use the crate-root re-export surface",
                segs.join("::")
            ),
        );
        return;
    }
    // Rule 2: db/fs outside tests may only take the clock types.
    if host_layer && !f.in_test(tok) {
        let item = segs.get(1).copied().unwrap_or("*");
        if !FLASH_ALLOWED_ABOVE.contains(&item) {
            emit(
                out,
                "layering",
                f,
                tok,
                format!(
                    "`{}` — {} may touch flash only through the TxBlockDevice surface (allowed: SimClock, Nanos)",
                    segs.join("::"),
                    f.region(),
                ),
            );
        }
    }
}
