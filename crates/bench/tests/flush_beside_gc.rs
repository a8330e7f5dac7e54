//! Regression replay of the one defect the repository's benchmark found
//! (`crates/bench/src/bin/perf/README.md`, "A defect this benchmark
//! found"): `dev-steady`'s schedule with a host `flush()` every 4096 ops.
//! On seeds 3, 4 and 7 of its first sizing a read, with the device still
//! powered, returned another LPN's newer image — an L2P entry left naming
//! a page that garbage collection had erased and the log reprogrammed,
//! where a mapping checkpoint and GC interleave.
//!
//! The device is the benchmark's: 2048 OpenSSD blocks at 0.75
//! utilisation, the mapping cache bounded to a quarter of the slabs,
//! cost-benefit GC over hot/cold frontiers; a sequential fill, then
//! 281,000 Zipf θ = 0.9 page ops, 70 % writes. Every read is checked
//! against the last write to its LPN, and so is every LPN at the end.
//! Images are one-byte fills, which the chip stores compressed, so the
//! multi-gigabyte device fits in host RAM.

#![allow(
    clippy::unwrap_used,
    reason = "test code: a panic on a device error is the right failure mode, and allow-unwrap-in-tests covers #[test] fns only"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_bench::experiments::concurrent_exp::Zipf;
use xftl_flash::{FlashChip, FlashConfigBuilder, SimClock};
use xftl_ftl::{BlockDevice, GcPolicy, PageMappedFtl};

const BLOCKS: usize = 2048;
const UTILIZATION: f64 = 0.75;
const CACHE_FRACTION: f64 = 0.25;
const ZIPF_THETA: f64 = 0.9;
const WRITE_SHARE: f64 = 0.7;
const OPS: u64 = 281_000;
const FLUSH_EVERY: u64 = 4096;

/// The byte that fills the image write `seq` puts on `lpn`.
fn fill_byte(lpn: u64, seq: u64) -> u8 {
    let h = (lpn ^ seq.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 56) as u8
}

/// Whether `buf` is the image of `lpn`'s last write, `seq`; the panic
/// names the op.
fn check(buf: &[u8], lpn: u64, seq: u64, at: &str) {
    let want = fill_byte(lpn, seq);
    assert!(
        buf.iter().all(|&b| b == want),
        "{at}: lpn {lpn} holds {:#04x}, not the image of its last write {seq} ({want:#04x})",
        buf[0]
    );
}

fn replay(seed: u64) {
    let cfg = FlashConfigBuilder::openssd().blocks(BLOCKS).build();
    let logical = (cfg.geometry.total_pages() as f64 * UTILIZATION) as u64;
    let mut dev = PageMappedFtl::format(FlashChip::new(cfg, SimClock::new()), logical).unwrap();
    let slabs = dev.base().map_cache().slabs();
    let budget = ((slabs as f64 * CACHE_FRACTION) as usize).max(1);
    dev.base_mut().set_gc_policy(GcPolicy::CostBenefit);
    dev.base_mut().set_hot_cold(true);
    dev.base_mut().set_map_cache_budget(Some(budget)).unwrap();

    // Fill: write `lpn + 1` goes to `lpn`.
    let mut buf = vec![0u8; dev.page_size()];
    let mut last: Vec<u64> = (1..=logical).collect();
    for (lpn, &seq) in last.iter().enumerate() {
        buf.fill(fill_byte(lpn as u64, seq));
        dev.write(lpn as u64, &buf).unwrap();
    }
    dev.flush().unwrap();

    let zipf = Zipf::new(logical, ZIPF_THETA);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..OPS {
        let lpn = zipf.sample(&mut rng);
        if rng.gen_bool(WRITE_SHARE) {
            let seq = logical + 1 + i;
            buf.fill(fill_byte(lpn, seq));
            dev.write(lpn, &buf).unwrap();
            last[lpn as usize] = seq;
        } else {
            dev.read(lpn, &mut buf).unwrap();
            check(
                &buf,
                lpn,
                last[lpn as usize],
                &format!("seed {seed}, op {i}"),
            );
        }
        if (i + 1) % FLUSH_EVERY == 0 {
            dev.flush().unwrap();
        }
    }
    assert!(dev.base().stats().gc_runs > 0, "seed {seed}: GC never ran");
    for (lpn, &seq) in last.iter().enumerate() {
        dev.read(lpn as u64, &mut buf).unwrap();
        check(&buf, lpn as u64, seq, &format!("seed {seed}, read-back"));
    }
}

#[test]
fn flushes_beside_gc_leave_no_stale_mapping_seed_3() {
    replay(3);
}

#[test]
fn flushes_beside_gc_leave_no_stale_mapping_seed_4() {
    replay(4);
}

#[test]
fn flushes_beside_gc_leave_no_stale_mapping_seed_7() {
    replay(7);
}
