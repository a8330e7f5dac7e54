//! `wildcard-arm`: protocol enums must be matched exhaustively.
//!
//! `IoCmd`, `DevError`, and the fault-model kinds are *protocol*
//! enums: adding a variant is a protocol change, and every site that
//! handles the protocol must decide what the new variant means for it.
//! A `_ =>` arm silently absorbs new variants — the compiler stays
//! quiet while a new command class (say, a future `IoCmd::Discard`)
//! falls into whatever the wildcard happens to do. Banning wildcards
//! over these enums turns "new variant" into "compile error at every
//! site", which is exactly the forcing function a state machine wants
//! (the same discipline the shadow oracle applies at runtime).
//!
//! Detection: a `match` is *protocol* when any arm pattern names a
//! protocol enum variant (`IoCmd::…`, `DevError::…`, …); in such a
//! match, a bare `_` arm (guarded or not) is a violation. Library code
//! only — tests asserting on one specific variant may match loosely.
//!
//! Waivers: `// xftl-analyze: allow(wildcard-arm): <why>` — e.g. a
//! display impl that genuinely only distinguishes one variant.

use super::{emit, match_arms, Registry, SourceFile, Violation};
use crate::analyze::lexer::TokKind;

/// The protocol enums. Extend this list when a new protocol state
/// machine lands (the GC/DFTL work from ROADMAP item 2 will).
pub const PROTOCOL_ENUMS: [&str; 7] = [
    "IoCmd",
    "DevError",
    "FaultKind",
    "FaultOp",
    "Xl2pError",
    "DeviceState",
    "ScrubReason",
];

pub fn run(f: &SourceFile, reg: &Registry, out: &mut Vec<Violation>) {
    if !super::library_code(f, reg) {
        return;
    }
    let mut i = 0;
    while i < f.toks.len() {
        if !f.toks[i].is_ident("match") || f.in_test(i) {
            i += 1;
            continue;
        }
        // The match body is the first top-level `{` after the
        // scrutinee (struct literals are not legal in scrutinee
        // position, so the first brace group is the body).
        let mut j = i + 1;
        let mut body = None;
        while j < f.toks.len() {
            let t = &f.toks[j];
            if t.kind == TokKind::Open {
                if t.text == "{" {
                    body = Some(j);
                    break;
                }
                if f.pair[j] == usize::MAX {
                    break;
                }
                j = f.pair[j];
            }
            if t.kind == TokKind::Close || t.is_punct(";") {
                break;
            }
            j += 1;
        }
        let Some(body) = body else {
            i += 1;
            continue;
        };
        let arms = match_arms(f, body);
        let mut protocol: Option<&str> = None;
        for arm in &arms {
            for k in arm.pat.0..arm.pat.1 {
                let t = &f.toks[k];
                if t.kind == TokKind::Ident && f.toks.get(k + 1).is_some_and(|n| n.is_punct("::")) {
                    if let Some(&name) = PROTOCOL_ENUMS.iter().find(|&&e| t.text == e) {
                        protocol = Some(name);
                    }
                }
            }
        }
        if let Some(enum_name) = protocol {
            for arm in &arms {
                let (a, b) = arm.pat;
                if b - a == 1 && f.toks[a].is_ident("_") {
                    emit(
                        out,
                        "wildcard-arm",
                        f,
                        a,
                        format!(
                            "`_ =>` arm in a match over protocol enum `{enum_name}` — name every variant so new protocol states force a decision here"
                        ),
                    );
                }
            }
        }
        i = body + 1;
    }
}
