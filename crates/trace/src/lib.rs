//! # xftl-trace — deterministic observability for the X-FTL stack
//!
//! Every layer of the reproduction (flash chip, FTL, file system,
//! database) charges its latencies to one shared simulated clock, which
//! makes *measurement* a pure function of the workload: the same run
//! produces the same latencies, bit for bit. This crate turns that
//! property into an observability layer:
//!
//! * [`Hist`] — fixed-bucket log-linear latency histograms with exact
//!   deterministic quantiles (p50/p95/p99/max), one per [`OpClass`];
//! * [`Telemetry`] — a cheaply cloneable recorder handle threaded through
//!   the stack; all clones feed the same histogram set;
//! * a bounded structured-event ring, armed at run time by
//!   [`Telemetry::start_events`], holding typed spans `{layer, op, tid,
//!   lpn, t_start, t_end}`, dumpable as JSONL for post-hoc analysis of a
//!   failing test or bench;
//! * [`BenchReport`] — a JSON report schema every bench experiment writes
//!   next to its text tables, which CI diffs byte for byte against a
//!   committed baseline because the simulated clock makes the numbers
//!   reproducible.
//!
//! The crate has **no dependencies** and **never reads a clock of its
//! own**: timestamps enter exclusively as simulated nanoseconds produced
//! by `SimClock` above. The empty `[dependencies]` table and the
//! workspace `clippy.toml`'s host-clock ban enforce both.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod heat;
pub mod hist;
pub mod json;
pub mod op;
pub mod recorder;
pub mod report;

pub use event::{Event, Layer, RING_CAPACITY};
pub use heat::HeatSketch;
pub use hist::{Hist, HistSummary};
pub use json::{parse as parse_json, JsonError, JsonValue};
pub use op::OpClass;
pub use recorder::Telemetry;
pub use report::BenchReport;

/// Simulated nanoseconds — the same unit as `xftl_flash::Nanos`, redefined
/// here so the telemetry layer can sit *below* the flash crate.
pub type Nanos = u64;
