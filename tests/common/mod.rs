//! Verify wiring shared by the integration tests.
//!
//! With the `verify` feature every device personality under test runs
//! behind the shadow oracle: each command the test (or the FS/DB stack
//! above it) issues is mirrored into the reference model, every read is
//! checked against the worlds the crash semantics allow, and each
//! recovery ends with a durability sweep plus a flash-physics audit.
//! Without the feature [`Checked`] collapses to the bare device and the
//! helpers are identities — the op loops in the test files only use the
//! device traits, which the wrapper forwards, so they are oblivious to
//! the wrapping.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use xftl_flash::FlashChip;
use xftl_ftl::BlockDevice;

/// What a personality must offer to be audited after recovery.
#[cfg(feature = "verify")]
pub use xftl_verify::Auditable;
#[cfg(not(feature = "verify"))]
pub trait Auditable {}
#[cfg(not(feature = "verify"))]
impl<D> Auditable for D {}

/// `D` behind the shadow oracle under `verify`, bare otherwise.
#[cfg(feature = "verify")]
pub type Checked<D> = xftl_verify::ShadowDevice<D>;
#[cfg(not(feature = "verify"))]
pub type Checked<D> = D;

pub fn wrap<D: BlockDevice>(d: D) -> Checked<D> {
    #[cfg(feature = "verify")]
    let d = xftl_verify::ShadowDevice::new(d);
    d
}

/// The personality inside the wrapper.
pub fn ftl<D: BlockDevice>(d: &Checked<D>) -> &D {
    #[cfg(feature = "verify")]
    let d = d.inner();
    d
}

pub fn ftl_mut<D: BlockDevice>(d: &mut Checked<D>) -> &mut D {
    #[cfg(feature = "verify")]
    let d = d.inner_mut();
    d
}

/// Flash-physics audit of a live device (`verify` only).
pub fn audit<D: BlockDevice + Auditable>(d: &Checked<D>) {
    #[cfg(feature = "verify")]
    d.audit();
    let _ = d;
}

/// Durability sweep of the committed image against the oracle's model
/// (`verify` only).
pub fn verify_recovered<D: BlockDevice>(d: &mut Checked<D>) {
    #[cfg(feature = "verify")]
    d.verify_recovered();
    let _ = d;
}

/// Takes a crashed device down to its flash (`into_chip`) and brings it
/// back (`recover`, which may power-cycle the chip or arm faults first).
/// Under `verify` the oracle carries its model across the power cycle,
/// sweeps the committed image for durability, and audits the flash
/// metadata before handing the device back.
pub fn recover_with<D: BlockDevice + Auditable>(
    d: Checked<D>,
    into_chip: impl FnOnce(D) -> FlashChip,
    recover: impl FnOnce(FlashChip) -> D,
) -> Checked<D> {
    #[cfg(feature = "verify")]
    {
        let (inner, model) = d.into_parts();
        let mut dev = xftl_verify::ShadowDevice::resume(recover(into_chip(inner)), model);
        dev.verify_recovered();
        dev.audit();
        dev
    }
    #[cfg(not(feature = "verify"))]
    recover(into_chip(d))
}
