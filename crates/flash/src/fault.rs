//! Deterministic per-operation NAND fault injection.
//!
//! Real MLC NAND (the paper's Samsung K9LCG08U1M) fails per-operation:
//! programs report status failure and leave the page unreadable, erases
//! eventually fail permanently (the block is retired to the bad-block
//! table), and reads return bit errors that the controller's ECC corrects
//! up to a fixed strength. The power fuse in [`crate::FlashChip`]
//! models whole-device failure; a [`FaultPlan`] models the per-operation
//! failures every production FTL must additionally survive.
//!
//! A plan is installed on the chip with [`crate::FlashChip::set_fault_plan`]
//! and consulted once per host-visible read/program/erase. Decisions come
//! from two deterministic sources:
//!
//! 1. **Triggers** ([`FaultTrigger`]): exact schedules — "fail the program
//!    that touches block 7", "return an uncorrectable error on fault-op
//!    index 231". Matched triggers fire once unless marked sticky.
//! 2. **Background rates**: per-operation probabilities drawn from a
//!    seeded [`rand::StdRng`] (the in-tree `xftl-simrand` shim — never OS
//!    entropy), so a `(seed, workload)` pair replays the same faults.
//!
//! Latency of the failure paths (ECC correction stalls, failed-program
//! status polls, failed-erase retries) is charged to the simulated clock
//! using the ECC constants below (`CORRECTABLE_BITS` and four stall
//! figures), so fault sweeps move the benchmark numbers the way real
//! degraded media would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chip::Ppa;
use crate::clock::{Nanos, MICRO};

/// Operation class a fault decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Full-page host read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

/// Concrete fault injected into one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Program-status failure: the page is left unreadable (torn) and the
    /// block is marked [`crate::BlockHealth::Suspect`].
    ProgramFail,
    /// Erase-status failure: the block is permanently retired
    /// ([`crate::BlockHealth::Retired`]); further erases always fail.
    EraseFail,
    /// The read raises this many flipped bits. At or below the ECC
    /// correction strength the read succeeds after a correction stall;
    /// above it the read fails with [`crate::FlashError::Uncorrectable`].
    ReadFlips(u32),
}

impl FaultKind {
    /// The operation class this fault can be injected into.
    fn class(self) -> FaultOp {
        match self {
            FaultKind::ProgramFail => FaultOp::Program,
            FaultKind::EraseFail => FaultOp::Erase,
            FaultKind::ReadFlips(_) => FaultOp::Read,
        }
    }
}

/// An exact fault schedule entry. All set constraints must match for the
/// trigger to fire; an unconstrained trigger matches every operation of
/// its fault's class. Non-sticky triggers are consumed by their first
/// match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTrigger {
    kind: FaultKind,
    at_op: Option<u64>,
    block: Option<u32>,
    page: Option<u32>,
    lpn: Option<u64>,
    sticky: bool,
}

impl FaultTrigger {
    /// A trigger injecting `kind`, initially unconstrained and one-shot.
    pub fn new(kind: FaultKind) -> Self {
        FaultTrigger {
            kind,
            at_op: None,
            block: None,
            page: None,
            lpn: None,
            sticky: false,
        }
    }

    /// Fire only on the fault-op with this index (the plan numbers every
    /// consulted operation 0, 1, 2, … — see [`FaultPlan::ops_seen`]).
    pub fn at_op(mut self, index: u64) -> Self {
        self.at_op = Some(index);
        self
    }

    /// Fire only on operations touching this physical block.
    pub fn on_block(mut self, block: u32) -> Self {
        self.block = Some(block);
        self
    }

    /// Fire only on operations touching exactly this physical page.
    pub fn on_ppa(mut self, ppa: Ppa) -> Self {
        self.block = Some(ppa.block);
        self.page = Some(ppa.page);
        self
    }

    /// Fire only on operations carrying this logical page number (as
    /// recorded in the page's OOB; erases carry no LPN and never match).
    pub fn on_lpn(mut self, lpn: u64) -> Self {
        self.lpn = Some(lpn);
        self
    }

    /// Keep firing on every match instead of being consumed by the first.
    /// A sticky `ReadFlips` trigger on one page models a page gone
    /// persistently unreadable.
    pub fn sticky(mut self) -> Self {
        self.sticky = true;
        self
    }

    fn matches(&self, index: u64, op: FaultOp, ppa: Ppa, lpn: Option<u64>) -> bool {
        self.kind.class() == op
            && self.at_op.is_none_or(|n| n == index)
            && self.block.is_none_or(|b| b == ppa.block)
            && self.page.is_none_or(|p| p == ppa.page)
            && self.lpn.is_none_or(|l| Some(l) == lpn)
    }
}

/// ECC feedback from one full-page read, surfaced by the chip so the FTL
/// can steer its scrubber: a stream of `Corrected` events on one block is
/// the early warning that precedes `Uncorrectable` data loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EccEvent {
    /// The page decoded with no bit errors.
    #[default]
    Clean,
    /// ECC corrected this many flipped bits in-line (read succeeded after
    /// a correction stall).
    Corrected(u32),
    /// Flips exceeded the correction strength; the data did not decode.
    Uncorrectable(u32),
}

/// Deterministic media-aging curve: read disturb, retention decay, and
/// wear acceleration.
///
/// Real NAND accumulates raw bit errors from three processes: reads
/// disturb the charge of neighbouring pages in the same block, stored
/// charge leaks over time (retention), and both get worse as erase cycles
/// wear the oxide. This model computes the *extra* flipped bits of one
/// read as a pure function of physical state — the block's read count
/// since its last erase, the page's age since program, and the block's
/// lifetime erase count. No RNG is consulted, so installing an aging
/// model never shifts the [`FaultPlan`] seed stream: the same seed
/// draws the same background faults with or without it.
///
/// The curve is piecewise linear: below each threshold a process
/// contributes nothing; past it, one bit per `per_flip` step. Wear
/// multiplies the sum once the erase count passes its threshold, modeling
/// the end-of-life error-rate explosion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgingModel {
    /// Reads of a block (since its last erase) before disturb flips start.
    pub read_disturb_threshold: u64,
    /// One disturb flip per this many reads past the threshold.
    pub reads_per_flip: u64,
    /// Page age (ns since program) before retention flips start.
    pub retention_threshold_ns: Nanos,
    /// One retention flip per this much age past the threshold.
    pub retention_ns_per_flip: Nanos,
    /// Erase count past which the disturb+retention sum is amplified.
    pub wear_threshold: u64,
    /// Amplification step: the sum is multiplied by
    /// `1 + (erase_count - wear_threshold) / wear_per_step` (saturating).
    pub wear_per_step: u64,
}

impl AgingModel {
    /// A curve that never fires (all thresholds at the maximum). Useful
    /// as a base for tests that enable one process at a time.
    pub fn inert() -> Self {
        AgingModel {
            read_disturb_threshold: u64::MAX,
            reads_per_flip: u64::MAX,
            retention_threshold_ns: Nanos::MAX,
            retention_ns_per_flip: Nanos::MAX,
            wear_threshold: u64::MAX,
            wear_per_step: u64::MAX,
        }
    }

    /// Extra flipped bits for one read of a page whose block has seen
    /// `reads` full-page reads since its last erase, whose data is
    /// `age_ns` old, on a block with `erase_count` lifetime erases.
    /// Deterministic; consumes no randomness.
    pub fn flips(&self, reads: u64, age_ns: Nanos, erase_count: u64) -> u32 {
        let disturb =
            reads.saturating_sub(self.read_disturb_threshold) / self.reads_per_flip.max(1);
        let retention =
            age_ns.saturating_sub(self.retention_threshold_ns) / self.retention_ns_per_flip.max(1);
        let wear_factor =
            1 + erase_count.saturating_sub(self.wear_threshold) / self.wear_per_step.max(1);
        u32::try_from((disturb + retention).saturating_mul(wear_factor)).unwrap_or(u32::MAX)
    }
}

// ECC strength and the latency cost of the failure paths. The latencies
// model a BCH/LDPC engine plus firmware handling on the OpenSSD-era
// controller: a correction stall is tens of microseconds, a failed
// program is detected by the status poll after the full `tPROG`, and a
// failed erase is detected after the full `tBERS` (both already charged
// by the chip) plus firmware handling modelled here.

/// Bit flips per page read the ECC corrects in-line.
pub(crate) const CORRECTABLE_BITS: u32 = 8;
/// Extra stall charged when a read needs correction.
pub(crate) const CORRECTION_NS: Nanos = 15 * MICRO;
/// Extra firmware time charged when ECC gives up on a read (re-read
/// attempts, read-retry voltage shifts) before reporting
/// [`crate::FlashError::Uncorrectable`].
pub(crate) const UNCORRECTABLE_NS: Nanos = 450 * MICRO;
/// Extra firmware time charged when a program reports status failure.
pub(crate) const PROGRAM_FAIL_NS: Nanos = 120 * MICRO;
/// Extra firmware time charged when an erase reports status failure.
pub(crate) const ERASE_FAIL_NS: Nanos = 700 * MICRO;

/// Blocks never faulted, never aged. NAND datasheets guarantee the first
/// block(s) valid for the device's lifetime (boot/firmware storage); the
/// FTL keeps its meta root ring there.
const EXEMPT_BLOCKS: [u32; 2] = [0, 1];

/// Whether `block` is one of the fault-exempt `EXEMPT_BLOCKS`.
pub(crate) fn is_exempt(block: u32) -> bool {
    EXEMPT_BLOCKS.contains(&block)
}

/// A deterministic fault schedule for one chip.
///
/// See the [module docs](self) for the model. Construct with
/// [`FaultPlan::new`], configure with the builder methods, then install
/// with [`crate::FlashChip::set_fault_plan`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: StdRng,
    program_fail_rate: f64,
    erase_fail_rate: f64,
    read_flip_rate: f64,
    uncorrectable_rate: f64,
    triggers: Vec<FaultTrigger>,
    aging: Option<AgingModel>,
    ops_seen: u64,
}

impl FaultPlan {
    /// A plan with no background fault rates and no triggers, seeded for
    /// any later rate draws. Blocks 0 and 1 are never faulted (the meta
    /// root ring lives there).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            program_fail_rate: 0.0,
            erase_fail_rate: 0.0,
            read_flip_rate: 0.0,
            uncorrectable_rate: 0.0,
            triggers: Vec::new(),
            aging: None,
            ops_seen: 0,
        }
    }

    /// Convenience: a plan with uniform background rates for all four
    /// fault processes.
    pub fn background(
        seed: u64,
        program_fail_rate: f64,
        erase_fail_rate: f64,
        read_flip_rate: f64,
        uncorrectable_rate: f64,
    ) -> Self {
        FaultPlan::new(seed)
            .program_fail_rate(program_fail_rate)
            .erase_fail_rate(erase_fail_rate)
            .read_flip_rate(read_flip_rate)
            .uncorrectable_rate(uncorrectable_rate)
    }

    /// Per-program probability of a program-status failure.
    pub fn program_fail_rate(mut self, rate: f64) -> Self {
        self.program_fail_rate = rate;
        self
    }

    /// Per-erase probability of an erase-status failure (block retired).
    pub fn erase_fail_rate(mut self, rate: f64) -> Self {
        self.erase_fail_rate = rate;
        self
    }

    /// Per-read probability of a correctable bit-flip burst (1 to
    /// `CORRECTABLE_BITS` flips, uniformly drawn).
    pub fn read_flip_rate(mut self, rate: f64) -> Self {
        self.read_flip_rate = rate;
        self
    }

    /// Per-read probability of an uncorrectable error (flips beyond the
    /// ECC strength). Checked before the correctable draw.
    pub fn uncorrectable_rate(mut self, rate: f64) -> Self {
        self.uncorrectable_rate = rate;
        self
    }

    /// Appends an exact-schedule trigger.
    pub fn trigger(mut self, trigger: FaultTrigger) -> Self {
        self.triggers.push(trigger);
        self
    }

    /// Installs a deterministic media-aging curve. Aging flips stack on
    /// top of any trigger/background flips for the same read and consume
    /// no RNG draws, so the background fault stream is unchanged.
    pub fn aging(mut self, model: AgingModel) -> Self {
        self.aging = Some(model);
        self
    }

    /// The aging curve in force, if any.
    pub fn aging_model(&self) -> Option<AgingModel> {
        self.aging
    }

    /// How many operations this plan has been consulted for. Trigger
    /// op-indices ([`FaultTrigger::at_op`]) count in this sequence.
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Unconsumed triggers remaining in the plan.
    pub fn pending_triggers(&self) -> usize {
        self.triggers.len()
    }

    /// Decides the fate of one operation. Called by the chip once per
    /// host-visible read/program/erase; deterministic in call order.
    pub(crate) fn decide(&mut self, op: FaultOp, ppa: Ppa, lpn: Option<u64>) -> Option<FaultKind> {
        let index = self.ops_seen;
        self.ops_seen += 1;
        if is_exempt(ppa.block) {
            return None;
        }
        if let Some(pos) = self
            .triggers
            .iter()
            .position(|t| t.matches(index, op, ppa, lpn))
        {
            let kind = self.triggers[pos].kind;
            if !self.triggers[pos].sticky {
                self.triggers.remove(pos);
            }
            return Some(kind);
        }
        // Background rates. Zero-rate processes consume no RNG draws, so a
        // pure trigger plan never touches the stream.
        match op {
            FaultOp::Program => {
                if self.program_fail_rate > 0.0 && self.rng.gen_bool(self.program_fail_rate) {
                    return Some(FaultKind::ProgramFail);
                }
            }
            FaultOp::Erase => {
                if self.erase_fail_rate > 0.0 && self.rng.gen_bool(self.erase_fail_rate) {
                    return Some(FaultKind::EraseFail);
                }
            }
            FaultOp::Read => {
                if self.uncorrectable_rate > 0.0 && self.rng.gen_bool(self.uncorrectable_rate) {
                    return Some(FaultKind::ReadFlips(CORRECTABLE_BITS + 1));
                }
                if self.read_flip_rate > 0.0 && self.rng.gen_bool(self.read_flip_rate) {
                    let bits = self.rng.gen_range(1..=CORRECTABLE_BITS);
                    return Some(FaultKind::ReadFlips(bits));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ppa(block: u32) -> Ppa {
        Ppa::new(block, 0)
    }

    #[test]
    fn empty_plan_never_faults() {
        let mut plan = FaultPlan::new(1);
        for i in 0..1000 {
            assert_eq!(plan.decide(FaultOp::Program, ppa(2 + i % 4), Some(7)), None);
        }
        assert_eq!(plan.ops_seen(), 1000);
    }

    #[test]
    fn trigger_fires_once_by_default() {
        let mut plan =
            FaultPlan::new(1).trigger(FaultTrigger::new(FaultKind::ProgramFail).on_block(5));
        assert_eq!(plan.decide(FaultOp::Program, ppa(4), None), None);
        assert_eq!(
            plan.decide(FaultOp::Program, ppa(5), None),
            Some(FaultKind::ProgramFail)
        );
        assert_eq!(plan.decide(FaultOp::Program, ppa(5), None), None);
        assert_eq!(plan.pending_triggers(), 0);
    }

    #[test]
    fn sticky_trigger_keeps_firing() {
        let mut plan = FaultPlan::new(1).trigger(
            FaultTrigger::new(FaultKind::ReadFlips(99))
                .on_ppa(Ppa::new(3, 2))
                .sticky(),
        );
        for _ in 0..3 {
            assert_eq!(
                plan.decide(FaultOp::Read, Ppa::new(3, 2), Some(1)),
                Some(FaultKind::ReadFlips(99))
            );
        }
        assert_eq!(plan.decide(FaultOp::Read, Ppa::new(3, 3), Some(1)), None);
        assert_eq!(plan.pending_triggers(), 1);
    }

    #[test]
    fn trigger_class_must_match_op() {
        let mut plan =
            FaultPlan::new(1).trigger(FaultTrigger::new(FaultKind::EraseFail).on_block(5));
        // A program on block 5 is not an erase; the trigger stays armed.
        assert_eq!(plan.decide(FaultOp::Program, ppa(5), None), None);
        assert_eq!(
            plan.decide(FaultOp::Erase, ppa(5), None),
            Some(FaultKind::EraseFail)
        );
    }

    #[test]
    fn at_op_counts_all_consulted_ops() {
        let mut plan =
            FaultPlan::new(1).trigger(FaultTrigger::new(FaultKind::ProgramFail).at_op(2));
        assert_eq!(plan.decide(FaultOp::Program, ppa(9), None), None); // op 0
        assert_eq!(plan.decide(FaultOp::Read, ppa(9), None), None); // op 1
        assert_eq!(
            plan.decide(FaultOp::Program, ppa(9), None), // op 2
            Some(FaultKind::ProgramFail)
        );
    }

    #[test]
    fn lpn_constraint_matches_oob() {
        let mut plan = FaultPlan::new(1).trigger(
            FaultTrigger::new(FaultKind::ReadFlips(1))
                .on_lpn(42)
                .sticky(),
        );
        assert_eq!(plan.decide(FaultOp::Read, ppa(6), Some(41)), None);
        assert_eq!(plan.decide(FaultOp::Read, ppa(6), None), None);
        assert_eq!(
            plan.decide(FaultOp::Read, ppa(6), Some(42)),
            Some(FaultKind::ReadFlips(1))
        );
    }

    #[test]
    fn exempt_blocks_never_fault() {
        let mut plan = FaultPlan::background(7, 1.0, 1.0, 1.0, 1.0)
            .trigger(FaultTrigger::new(FaultKind::ProgramFail).sticky());
        assert_eq!(plan.decide(FaultOp::Program, ppa(0), None), None);
        assert_eq!(plan.decide(FaultOp::Erase, ppa(1), None), None);
        assert!(plan.decide(FaultOp::Program, ppa(2), None).is_some());
    }

    #[test]
    fn background_rates_are_deterministic_per_seed() {
        let run = |seed| {
            let mut plan = FaultPlan::background(seed, 0.05, 0.05, 0.1, 0.01);
            (0..500)
                .map(|i| plan.decide(FaultOp::Read, ppa(2 + i % 8), Some(i as u64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn background_rate_actually_fires() {
        let mut plan = FaultPlan::new(5).program_fail_rate(0.5);
        let fired = (0..200)
            .filter(|_| plan.decide(FaultOp::Program, ppa(3), None).is_some())
            .count();
        assert!(fired > 50 && fired < 150, "fired {fired}/200 at p=0.5");
    }

    #[test]
    fn aging_curve_is_piecewise_linear() {
        let model = AgingModel {
            read_disturb_threshold: 100,
            reads_per_flip: 50,
            retention_threshold_ns: 1_000,
            retention_ns_per_flip: 500,
            wear_threshold: 10,
            wear_per_step: 5,
        };
        // Below every threshold: nothing.
        assert_eq!(model.flips(100, 1_000, 10), 0);
        // Disturb only: (300-100)/50 = 4.
        assert_eq!(model.flips(300, 0, 0), 4);
        // Retention only: (3000-1000)/500 = 4.
        assert_eq!(model.flips(0, 3_000, 0), 4);
        // Both, wear-amplified: (4+4) * (1 + (25-10)/5) = 32.
        assert_eq!(model.flips(300, 3_000, 25), 32);
    }

    #[test]
    fn inert_model_never_flips() {
        let model = AgingModel::inert();
        assert_eq!(model.flips(u64::MAX, Nanos::MAX, u64::MAX), 0);
    }

    #[test]
    fn aging_does_not_shift_background_stream() {
        let run = |aged: bool| {
            let mut plan = FaultPlan::background(9, 0.05, 0.05, 0.1, 0.01);
            if aged {
                plan = plan.aging(AgingModel::inert());
            }
            (0..500)
                .map(|i| plan.decide(FaultOp::Read, ppa(2 + i % 8), Some(i as u64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn uncorrectable_draw_exceeds_ecc_strength() {
        let mut plan = FaultPlan::new(5).uncorrectable_rate(1.0);
        match plan.decide(FaultOp::Read, ppa(2), None) {
            Some(FaultKind::ReadFlips(bits)) => {
                assert!(bits > CORRECTABLE_BITS);
            }
            other => panic!("expected uncorrectable flips, got {other:?}"),
        }
    }

    #[test]
    fn correctable_draw_within_ecc_strength() {
        let mut plan = FaultPlan::new(5).read_flip_rate(1.0);
        for _ in 0..50 {
            match plan.decide(FaultOp::Read, ppa(2), None) {
                Some(FaultKind::ReadFlips(bits)) => {
                    assert!((1..=CORRECTABLE_BITS).contains(&bits));
                }
                other => panic!("expected correctable flips, got {other:?}"),
            }
        }
    }
}
