//! Flash geometry and timing configuration.
//!
//! The defaults model the paper's testbed: an OpenSSD development board with
//! Samsung K9LCG08U1M MLC NAND (8 KB pages, 128 pages per block) behind an
//! Indilinx Barefoot controller on SATA 2.0. A second profile models the
//! one-generation-newer Samsung S830 consumer SSD used in Figure 9, whose
//! advantage comes from faster NAND *and* internal channel/way parallelism
//! (modelled structurally by the chip layer, not as a latency divisor).

use crate::clock::{Nanos, MICRO};

/// Per-operation NAND latencies plus controller/interface costs.
///
/// These are *model parameters*, not claims about the exact silicon: the
/// reproduction validates relative shapes (who wins, by what factor), so the
/// values only need to sit in the right regime (MLC program ≫ read ≫ bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTimings {
    /// Array-to-register read time (tR).
    pub read_ns: Nanos,
    /// Register-to-array program time (tPROG).
    pub program_ns: Nanos,
    /// Block erase time (tBERS).
    pub erase_ns: Nanos,
    /// Flash channel transfer cost per byte (register <-> controller DRAM).
    pub channel_ns_per_byte: Nanos,
    /// Fixed firmware/controller overhead charged per flash command.
    pub cmd_overhead_ns: Nanos,
}

impl FlashTimings {
    /// MLC-class timings matching the OpenSSD/Barefoot era.
    pub const OPENSSD: FlashTimings = FlashTimings {
        read_ns: 150 * MICRO,
        program_ns: 900 * MICRO,
        erase_ns: 2_600 * MICRO,
        channel_ns_per_byte: 25,      // ~40 MB/s flash channel
        cmd_overhead_ns: 120 * MICRO, // 87.5 MHz ARM firmware path
    };

    /// A one-generation-newer consumer SSD (Samsung S830 in the paper):
    /// faster NAND and channels plus a leaner firmware path. Combined with
    /// the S830 geometry's 4 channels × 2 ways this lands the drive about
    /// 2-3x the OpenSSD on small random writes, matching the Figure 9 gap.
    pub const S830: FlashTimings = FlashTimings {
        read_ns: 60 * MICRO,
        program_ns: 700 * MICRO,
        erase_ns: 2_200 * MICRO,
        channel_ns_per_byte: 8, // ~125 MB/s flash channel
        cmd_overhead_ns: 45 * MICRO,
    };
}

/// Physical layout of the simulated NAND array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Bytes per flash page (paper: 8 KB).
    pub page_size: usize,
    /// Pages per erase block (paper: 128).
    pub pages_per_block: usize,
    /// Total erase blocks in the array.
    pub blocks: usize,
    /// Bytes of out-of-band (spare) area per page available for FTL
    /// metadata; modelled as a typed struct rather than raw bytes.
    pub oob_bytes: usize,
    /// Independent flash channels (buses). Physical blocks are striped
    /// across channels (`channel = block % channels`), so operations on
    /// blocks of distinct channels overlap in time.
    pub channels: u32,
    /// Chips (ways) per channel. Ways share their channel's bus but have
    /// independent cell arrays, so cell work overlaps while transfers
    /// serialize on the shared bus.
    pub ways: u32,
}

impl FlashGeometry {
    /// The paper's chip: 8 KB pages, 128 pages/block, and a single
    /// channel/way — the OpenSSD firmware in the paper drives its chips
    /// mostly serially. Block count is chosen by the caller to size the
    /// drive.
    pub fn openssd(blocks: usize) -> Self {
        FlashGeometry {
            page_size: 8 * 1024,
            pages_per_block: 128,
            blocks,
            oob_bytes: 64,
            channels: 1,
            ways: 1,
        }
    }

    /// A small geometry for unit tests: 512 B pages, 8 pages/block.
    pub fn tiny(blocks: usize) -> Self {
        FlashGeometry {
            page_size: 512,
            pages_per_block: 8,
            blocks,
            oob_bytes: 64,
            channels: 1,
            ways: 1,
        }
    }

    /// Total pages in the array.
    pub fn total_pages(&self) -> usize {
        self.blocks * self.pages_per_block
    }

    /// Total raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() as u64 * self.page_size as u64
    }

    /// Independent (channel, way) units in the array.
    pub fn units(&self) -> usize {
        (self.channels.max(1) * self.ways.max(1)) as usize
    }

    /// Channel a physical block lives on.
    pub fn channel_of(&self, block: u32) -> usize {
        (block as usize) % self.channels.max(1) as usize
    }

    /// Independent-unit index (channel × way) a physical block lives on.
    /// Blocks stripe first across channels, then across ways within a
    /// channel, so consecutive block numbers land on distinct buses.
    pub fn unit_of(&self, block: u32) -> usize {
        let channels = self.channels.max(1) as usize;
        let ways = self.ways.max(1) as usize;
        let ch = (block as usize) % channels;
        let way = (block as usize / channels) % ways;
        ch * ways + way
    }
}

/// Complete flash device model: geometry plus timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashConfig {
    /// Physical layout of the array.
    pub geometry: FlashGeometry,
    /// Operation latency model.
    pub timings: FlashTimings,
}

impl FlashConfig {
    /// OpenSSD-like device with the given number of blocks.
    pub fn openssd(blocks: usize) -> Self {
        FlashConfig {
            geometry: FlashGeometry::openssd(blocks),
            timings: FlashTimings::OPENSSD,
        }
    }

    /// S830-like device with the given number of blocks: newer NAND
    /// timings and a 4-channel × 2-way array.
    pub fn s830(blocks: usize) -> Self {
        FlashConfig {
            geometry: FlashGeometry {
                channels: 4,
                ways: 2,
                ..FlashGeometry::openssd(blocks)
            },
            timings: FlashTimings::S830,
        }
    }

    /// Tiny geometry with OpenSSD timings, for tests.
    pub fn tiny(blocks: usize) -> Self {
        FlashConfig {
            geometry: FlashGeometry::tiny(blocks),
            timings: FlashTimings::OPENSSD,
        }
    }
}

/// Fluent construction of a [`FlashConfig`] from a profile preset plus
/// overrides, replacing bare-struct literals at call sites.
///
/// ```
/// use xftl_flash::FlashConfigBuilder;
/// let cfg = FlashConfigBuilder::s830().blocks(256).channels(8).build();
/// assert_eq!(cfg.geometry.blocks, 256);
/// assert_eq!(cfg.geometry.channels, 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FlashConfigBuilder {
    config: FlashConfig,
}

impl FlashConfigBuilder {
    /// Starts from the paper's OpenSSD testbed profile (64 blocks; resize
    /// with [`blocks`](Self::blocks)).
    pub fn openssd() -> Self {
        FlashConfigBuilder {
            config: FlashConfig::openssd(64),
        }
    }

    /// Starts from the Figure 9 S830 profile (64 blocks, 4 channels × 2
    /// ways).
    pub fn s830() -> Self {
        FlashConfigBuilder {
            config: FlashConfig::s830(64),
        }
    }

    /// Starts from the tiny unit-test profile (16 blocks).
    pub fn tiny() -> Self {
        FlashConfigBuilder {
            config: FlashConfig::tiny(16),
        }
    }

    /// 100× the paper's 64 MB OpenSSD testbed: ~6.8 GB raw in 1 MB erase
    /// blocks (8 KB pages × 128), spread over 8 channels × 2 ways with
    /// S830-class timings. This is the CI soak-lane scale — big enough
    /// that the mapping table cannot stay RAM-resident in a bounded cache,
    /// small enough to reach GC steady state in minutes of host time.
    pub fn scale_100x() -> Self {
        FlashConfigBuilder {
            config: FlashConfig {
                geometry: FlashGeometry {
                    channels: 8,
                    ways: 2,
                    ..FlashGeometry::openssd(6_800)
                },
                timings: FlashTimings::S830,
            },
        }
    }

    /// A 64 GB-class consumer drive: 16 KB pages × 256 pages/block (4 MB
    /// erase blocks), 17,536 blocks ≈ 68.5 GB raw (~7% spare for GC
    /// headroom over a 64 GB logical space), 8 channels × 4 ways. Only
    /// feasible in host RAM because page contents fill-compress and the
    /// demand-paged FTL keeps a bounded mapping cache.
    pub fn scale_64g() -> Self {
        FlashConfigBuilder {
            config: FlashConfig {
                geometry: FlashGeometry {
                    page_size: 16 * 1024,
                    pages_per_block: 256,
                    blocks: 17_536,
                    oob_bytes: 64,
                    channels: 8,
                    ways: 4,
                },
                timings: FlashTimings::S830,
            },
        }
    }

    /// Sets the number of erase blocks (drive size).
    pub fn blocks(mut self, blocks: usize) -> Self {
        self.config.geometry.blocks = blocks;
        self
    }

    /// Sets the page size in bytes.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.config.geometry.page_size = bytes;
        self
    }

    /// Sets the number of pages per erase block.
    pub fn pages_per_block(mut self, pages: usize) -> Self {
        self.config.geometry.pages_per_block = pages;
        self
    }

    /// Sets the number of independent flash channels.
    pub fn channels(mut self, channels: u32) -> Self {
        self.config.geometry.channels = channels.max(1);
        self
    }

    /// Sets the number of ways (chips) per channel.
    pub fn ways(mut self, ways: u32) -> Self {
        self.config.geometry.ways = ways.max(1);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> FlashConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openssd_geometry_matches_paper() {
        let g = FlashGeometry::openssd(16);
        assert_eq!(g.page_size, 8192);
        assert_eq!(g.pages_per_block, 128);
        assert_eq!(g.total_pages(), 16 * 128);
        assert_eq!(g.capacity_bytes(), 16 * 128 * 8192);
        assert_eq!(g.units(), 1);
    }

    #[test]
    fn blocks_stripe_across_channels_then_ways() {
        let g = FlashGeometry {
            channels: 4,
            ways: 2,
            ..FlashGeometry::openssd(64)
        };
        assert_eq!(g.units(), 8);
        // Consecutive blocks land on distinct channels...
        assert_eq!(g.channel_of(0), 0);
        assert_eq!(g.channel_of(1), 1);
        assert_eq!(g.channel_of(3), 3);
        assert_eq!(g.channel_of(4), 0);
        // ...and wrap onto the second way after one channel sweep.
        assert_eq!(g.unit_of(0), 0);
        assert_ne!(g.unit_of(0), g.unit_of(4));
        assert_eq!(g.unit_of(0), g.unit_of(8));
    }

    #[test]
    fn profiles_are_ordered_by_speed() {
        // The newer device must be strictly faster on every axis the
        // Figure 9 comparison depends on: NAND latencies, firmware path,
        // and the degree of structural parallelism.
        let old = FlashConfig::openssd(64);
        let new = FlashConfig::s830(64);
        assert!(new.timings.read_ns < old.timings.read_ns);
        assert!(new.timings.program_ns < old.timings.program_ns);
        assert!(new.timings.cmd_overhead_ns < old.timings.cmd_overhead_ns);
        assert!(new.geometry.units() > old.geometry.units());
        assert_eq!(new.geometry.channels, 4);
        assert_eq!(new.geometry.ways, 2);
    }

    #[test]
    fn scale_presets_hit_their_capacity_classes() {
        let soak = FlashConfigBuilder::scale_100x().build();
        let small = FlashConfig::openssd(64);
        assert!(soak.geometry.capacity_bytes() >= 100 * small.geometry.capacity_bytes());
        let g64 = FlashConfigBuilder::scale_64g().build();
        assert!(g64.geometry.capacity_bytes() >= 64 << 30);
        // All presets keep channel striping within the stats array bound.
        for cfg in [soak, g64] {
            assert!(cfg.geometry.channels as usize <= crate::stats::MAX_CHANNELS);
            assert!(cfg.geometry.units() > 1);
        }
    }

    #[test]
    fn builder_overrides_profile_fields() {
        let cfg = FlashConfigBuilder::openssd()
            .blocks(128)
            .channels(2)
            .ways(4)
            .build();
        assert_eq!(cfg.geometry.blocks, 128);
        assert_eq!(cfg.geometry.channels, 2);
        assert_eq!(cfg.geometry.ways, 4);
        assert_eq!(cfg.timings, FlashTimings::OPENSSD);
        let tiny = FlashConfigBuilder::tiny().blocks(40).build();
        assert_eq!(tiny, FlashConfig::tiny(40));
    }
}
