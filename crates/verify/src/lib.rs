//! # xftl-verify — shadow-model oracle and flash physics auditor
//!
//! Machine-checkable transactional correctness for the X-FTL stack. The
//! crate contributes two cooperating checkers. It is a dev-dependency of
//! the workspace root: every integration test runs its devices behind
//! both, and no bench, example or library build links it:
//!
//! * [`shadow::ShadowDevice`] — wraps any [`xftl_ftl::BlockDevice`] /
//!   [`xftl_ftl::TxBlockDevice`] and mirrors every command into a
//!   trivially-correct in-memory reference model. Every read the host
//!   issues is compared against the model, which checks, per operation:
//!   read-your-own-writes within a transaction, isolation of uncommitted
//!   writes between transactions, all-or-nothing visibility at
//!   commit/abort, snapshot views and first-committer-wins verdicts, and
//!   durability of the committed image across `power_cycle()` + recovery
//!   — staged commits included, of which a power cut keeps a prefix in
//!   submission order. A violation panics with a diagnostic prefixed
//!   `shadow oracle:` naming the transaction and page.
//! * [`audit`] — the flash physics / metadata auditor. Walks the raw
//!   [`xftl_flash::FlashChip`] array and the FTL's mapping state between
//!   operations (using silent probes that charge no simulated time) and
//!   checks erase-before-program, in-order programming within each block,
//!   device-global OOB sequence monotonicity, and X-L2P sanity: every
//!   pinned physical page is still programmed, GC never reclaimed a pinned
//!   old version, and the table's committed count never exceeds its size.
//!   It also enforces bad-block discipline: a block the chip retired after
//!   an erase failure holds no data, is listed in the FTL's persisted
//!   bad-block table, and can never be allocated again.
//!
//! The oracle deliberately knows nothing about how the FTLs work — it is a
//! specification, not a re-implementation. Failed operations (a power fuse
//! tripping mid-command) put the affected pages *in doubt*: the model
//! tracks every state the device is allowed to be in and narrows the set
//! as later reads observe the survivor, so torn commits that expose a
//! partial transaction are detected without the oracle having to predict
//! which world the crash picked.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// A match over a protocol enum names every variant: a new variant is a
// compile error wherever its meaning must be decided.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod audit;
pub mod shadow;

pub use audit::{
    audit_base, audit_chip, audit_xftl, newest_root, AuditReport, AuditViolation, Auditable,
};
pub use shadow::{ShadowDevice, ShadowModel};
