//! The OpenSSD's original FTL: plain page mapping with greedy GC.
//!
//! This is the baseline device the paper runs SQLite's rollback-journal and
//! WAL modes against. It speaks only the standard command set — it does not
//! implement [`crate::dev::TxBlockDevice`], so hosts needing transactions
//! cannot be instantiated over it at compile time. Batched submissions ride
//! the chip's channel queue: writes in one batch stripe across channels and
//! overlap, which is where the multi-channel S830 numbers come from.

use xftl_flash::{FlashChip, Nanos};

use crate::base::{FtlBase, NoHook, Personality, RecoveryLog};
use crate::dev::{BlockDevice, CmdId, DevCounters, IoCmd, Lpn};
use crate::error::Result;

/// A plain page-mapping FTL device.
#[derive(Debug)]
pub struct PageMappedFtl {
    base: FtlBase,
}

// The five constructors and accessors below only delegate to
// `Personality`: the frozen `perf` package calls them by path from its
// own trait of the same method names, where without them the call would
// resolve to that trait and recurse. They go once perf is unfrozen.
impl PageMappedFtl {
    /// [`Personality::format`].
    pub fn format(chip: FlashChip, logical_pages: u64) -> Result<Self> {
        <Self as Personality>::format(chip, logical_pages)
    }

    /// [`Personality::recover`].
    pub fn recover(chip: FlashChip) -> Result<Self> {
        <Self as Personality>::recover(chip)
    }

    /// [`Personality::into_chip`].
    pub fn into_chip(self) -> FlashChip {
        <Self as Personality>::into_chip(self)
    }

    /// [`Personality::base_mut`].
    pub fn base_mut(&mut self) -> &mut FtlBase {
        <Self as Personality>::base_mut(self)
    }

    /// [`Personality::base`].
    pub fn base(&self) -> &FtlBase {
        <Self as Personality>::base(self)
    }

    /// One host page write, blocking (`wait`) or queued; returns the
    /// instant the page is on the media. A host that never flushes still
    /// gets a root once the roll-forward window is full.
    fn write_page(&mut self, lpn: Lpn, buf: &[u8], wait: bool) -> Result<Nanos> {
        self.base.counters_mut().host_writes += 1;
        let done = self.base.write_folded(lpn, buf, wait, &mut NoHook)?;
        if self.base.root_due() {
            self.base.checkpoint(&mut NoHook)?;
        }
        Ok(done)
    }
}

/// No commit evidence: every plain write is the engine's own roll-forward.
impl Personality for PageMappedFtl {
    fn assemble(base: FtlBase) -> Self {
        PageMappedFtl { base }
    }

    fn recover_from_scan(&mut self, log: &RecoveryLog) -> Result<()> {
        self.base.finish_recovery(log, Vec::new())
    }

    fn base(&self) -> &FtlBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut FtlBase {
        &mut self.base
    }

    fn into_chip(self) -> FlashChip {
        self.base.into_chip()
    }
}

impl BlockDevice for PageMappedFtl {
    fn page_size(&self) -> usize {
        self.base.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.base.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.base.counters_mut().host_reads += 1;
        self.base.read_committed(lpn, buf)
    }

    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
        self.write_page(lpn, buf, true).map(drop)
    }

    fn trim(&mut self, lpn: Lpn) -> Result<()> {
        self.base.counters_mut().trims += 1;
        self.base.trim_lpn(lpn)
    }

    fn flush(&mut self) -> Result<()> {
        self.base.counters_mut().flushes += 1;
        // A flush is also a full queue barrier.
        self.base.drain();
        // A write barrier on the OpenSSD persists the mapping table
        // (§6.3.4); skip the writes when nothing changed.
        if self.base.has_dirty_mapping() {
            self.base.checkpoint(&mut NoHook)?;
        }
        self.base.gc_step(&mut NoHook)
    }

    fn counters(&self) -> DevCounters {
        *self.base.counters()
    }

    fn submit(&mut self, cmds: &[IoCmd<'_>]) -> Result<CmdId> {
        self.base.counters_mut().batches += 1;
        let mut done = 0;
        for cmd in cmds {
            match cmd {
                IoCmd::Write { lpn, data } => {
                    done = done.max(self.write_page(*lpn, data, false)?);
                }
                IoCmd::Trim { lpn } => {
                    self.base.counters_mut().trims += 1;
                    self.base.trim_lpn(*lpn)?;
                }
                // Ordering without draining: later commands complete no
                // earlier than everything already issued.
                IoCmd::Barrier => done = done.max(self.base.barrier()),
            }
        }
        Ok(self.base.issue(done))
    }

    fn complete_until(&mut self, barrier: CmdId) -> Result<()> {
        self.base.complete_until(barrier);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xftl_flash::{FlashConfig, FlashConfigBuilder, SimClock};

    fn dev() -> PageMappedFtl {
        let chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        PageMappedFtl::format(chip, 32).unwrap()
    }

    #[test]
    fn implements_standard_commands() {
        let mut d = dev();
        let data = vec![9u8; d.page_size()];
        d.write(1, &data).unwrap();
        let mut out = vec![0u8; d.page_size()];
        d.read(1, &mut out).unwrap();
        assert_eq!(out, data);
        d.flush().unwrap();
        d.trim(1).unwrap();
        let c = d.counters();
        assert_eq!(
            (c.host_writes, c.host_reads, c.flushes, c.trims),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn batched_writes_overlap_across_channels() {
        let cfg = FlashConfigBuilder::tiny().channels(2).build();
        let chip = FlashChip::new(cfg, SimClock::new());
        let mut d = PageMappedFtl::format(chip, 32).unwrap();
        let clock = d.base().clock();
        let data = vec![7u8; d.page_size()];
        let t0 = clock.now();
        d.write(0, &data).unwrap();
        d.write(1, &data).unwrap();
        let serial = clock.now() - t0;
        let t1 = clock.now();
        let id = d
            .submit(&[
                IoCmd::Write {
                    lpn: 2,
                    data: &data,
                },
                IoCmd::Write {
                    lpn: 3,
                    data: &data,
                },
            ])
            .unwrap();
        assert_ne!(id, CmdId::IMMEDIATE);
        d.complete_until(id).unwrap();
        let batched = clock.now() - t1;
        assert!(
            batched < serial,
            "two queued writes ({batched} ns) must beat two sync writes ({serial} ns)"
        );
        let mut out = vec![0u8; d.page_size()];
        d.read(2, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(d.counters().batches, 1);
    }

    #[test]
    fn batched_trim_and_write_mix_services_both() {
        let mut d = dev();
        let data = vec![9u8; d.page_size()];
        d.write(5, &data).unwrap();
        let id = d
            .submit(&[
                IoCmd::Trim { lpn: 5 },
                IoCmd::Write {
                    lpn: 6,
                    data: &data,
                },
            ])
            .unwrap();
        d.complete_until(id).unwrap();
        let mut out = vec![1u8; d.page_size()];
        d.read(5, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "trimmed page reads zeros");
        d.read(6, &mut out).unwrap();
        assert_eq!(out, data);
    }

    /// Skewed overwrites with a `flush` every 16 writes on a device small
    /// enough that GC runs during most checkpoints, then a power cut:
    /// every page must read back its last image.
    fn churn_flush_recover(seed: u64, budget: Option<usize>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const LOGICAL: u64 = 384;
        let cfg = FlashConfigBuilder::tiny().blocks(64).build();
        let mut d = PageMappedFtl::format(FlashChip::new(cfg, SimClock::new()), LOGICAL).unwrap();
        d.base_mut().set_map_cache_budget(budget).unwrap();
        let ps = d.page_size();
        let image = |lpn: u64, version: u32| {
            let mut page = vec![(lpn % 251) as u8; ps];
            page[..4].copy_from_slice(&version.to_le_bytes());
            page
        };
        let mut version = vec![0u32; LOGICAL as usize];
        for lpn in 0..LOGICAL {
            d.write(lpn, &image(lpn, 0)).unwrap();
        }
        d.flush().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 1..=6000u32 {
            let lpn = if rng.gen_bool(0.8) {
                rng.gen_range(0..LOGICAL / 5)
            } else {
                rng.gen_range(0..LOGICAL)
            };
            version[lpn as usize] = i;
            d.write(lpn, &image(lpn, i)).unwrap();
            if i % 16 == 0 {
                d.flush().unwrap();
            }
        }
        d.flush().unwrap();
        let mut chip = d.into_chip();
        chip.power_cycle();
        let mut d = PageMappedFtl::recover(chip).unwrap();
        d.base_mut().set_map_cache_budget(budget).unwrap();
        let mut out = vec![0u8; ps];
        for lpn in 0..LOGICAL {
            d.read(lpn, &mut out)
                .unwrap_or_else(|e| panic!("seed {seed} budget {budget:?}: lpn {lpn}: {e:?}"));
            assert!(
                out == image(lpn, version[lpn as usize]),
                "seed {seed} budget {budget:?}: lpn {lpn} lost its last write"
            );
        }
    }

    #[test]
    fn checkpoint_under_gc_pressure_keeps_every_mapping() {
        for seed in 1..=6 {
            churn_flush_recover(seed, None);
            churn_flush_recover(seed, Some(2));
        }
    }

    #[test]
    fn flush_with_clean_mapping_writes_nothing() {
        let mut d = dev();
        let data = vec![5u8; d.page_size()];
        d.write(0, &data).unwrap();
        d.flush().unwrap();
        let before = d.base().flash_stats().programs;
        d.flush().unwrap();
        assert_eq!(d.base().flash_stats().programs, before);
    }
}

#[cfg(test)]
mod wear_tests {
    use super::*;
    use xftl_flash::{FlashConfig, SimClock};

    #[test]
    fn wear_summary_tracks_erases() {
        let chip = FlashChip::new(FlashConfig::tiny(16), SimClock::new());
        let mut d = PageMappedFtl::format(chip, 32).unwrap();
        let data = vec![1u8; d.page_size()];
        let w0 = d.base_mut().wear();
        for i in 0..500u64 {
            crate::dev::BlockDevice::write(&mut d, i % 8, &data).unwrap();
        }
        let w1 = d.base_mut().wear();
        assert!(w1.total > w0.total, "churn must erase blocks");
        assert!(w1.max >= w1.min);
        assert!(w1.mean() > 0.0);
    }
}
