//! FTL-level statistics.
//!
//! These are the "FTL-side" counters of the paper's Table 1 and Figure 6:
//! pages written (host data, GC copy-backs, mapping, metadata), pages read,
//! garbage-collection frequency, and erase counts. Raw media totals live in
//! [`xftl_flash::FlashStats`]; this struct attributes them to causes.

use std::ops::Sub;

/// Cause-attributed FTL operation counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FtlStats {
    /// Host data pages programmed (plain and transactional).
    pub data_writes: u64,
    /// Pages copied by garbage collection.
    pub gc_copies: u64,
    /// Garbage-collection runs: victim blocks erased (or retired), however
    /// many steps drained them.
    pub gc_runs: u64,
    /// Background collection steps that did work: a budgeted share of a
    /// victim's copies, its erase, or both, issued at a durability
    /// acknowledgement (a step that finishes its victim with the pool
    /// still at the mark goes on to the next, and counts again).
    pub gc_background_steps: u64,
    /// Collections run inline, ahead of a write that found the free pool
    /// below the low-water mark (each finishes its victim).
    pub gc_inline_collections: u64,
    /// GC runs that recycled mapping-class blocks (excluded from the
    /// validity ratio).
    pub gc_map_runs: u64,
    /// Pages inspected in *data* GC victims, for the validity ratio.
    pub gc_victim_pages: u64,
    /// Valid pages found in *data* GC victims.
    pub gc_valid_pages: u64,
    /// L2P mapping slabs written, by checkpoints and dirty evictions.
    pub map_writes: u64,
    /// Meta (checkpoint-root) pages written.
    pub meta_writes: u64,
    /// Persisted X-L2P table pages written (X-FTL only).
    pub xl2p_writes: u64,
    /// Commit-record pages written (atomic-write baseline only).
    pub commit_record_writes: u64,
    /// Checkpoints taken (mapping-table persist events).
    pub checkpoints: u64,
    /// Programs re-executed on a fresh block after a program-status
    /// failure (host writes and GC copies alike).
    pub program_retries: u64,
    /// Re-issues of reads that returned an uncorrectable ECC error
    /// (transient bit-flip bursts usually decode on retry).
    pub read_retries: u64,
    /// Blocks permanently retired to the bad-block table after an erase
    /// failure.
    pub bad_block_retirements: u64,
    /// Group-commit flushes: X-L2P persist events that made one or more
    /// staged commits durable with a single table-image write.
    pub group_commit_flushes: u64,
    /// Transactions whose commits were made durable by those flushes; the
    /// ratio to `group_commit_flushes` is the mean coalescing factor.
    pub commits_coalesced: u64,
    /// Snapshot transactions aborted at `commit_submit` because another
    /// writer committed a newer version of a page they wrote
    /// (first-committer-wins losers).
    pub conflict_aborts: u64,
    /// Superseded page versions retained in the RAM version chains for
    /// active snapshot readers instead of being invalidated at fold time.
    pub versions_retained: u64,
    /// Retained versions pruned (invalidated, handed to GC) once no
    /// active snapshot could still read them.
    pub versions_pruned: u64,
    /// Mapping-cache lookups that found the slab resident in RAM.
    pub map_cache_hits: u64,
    /// Mapping-cache lookups that missed (slab had to be made resident).
    pub map_cache_misses: u64,
    /// Cache misses that read a persisted translation page from flash
    /// (the rest install fresh never-persisted slabs).
    pub map_demand_loads: u64,
    /// Clean frames dropped by eviction (no flash write needed).
    pub map_evictions_clean: u64,
    /// Dirty frames whose eviction forced a translation-page program.
    pub map_evictions_dirty: u64,
    /// Always equal to `map_evictions_dirty` (an eviction programs its
    /// victim and nothing else); a field because the `perf` benchmark
    /// reads it.
    pub map_flush_batches: u64,
    /// Always 0: no root names a translation page, so there is no
    /// directory of them to page out. Kept for the `perf` benchmark.
    pub gtd_writes: u64,
    /// Cost-benefit GC victims drawn from the data block class.
    pub gc_cb_data_victims: u64,
    /// Cost-benefit GC victims drawn from the mapping block class.
    pub gc_cb_map_victims: u64,
    /// Host data writes routed to the hot write frontier.
    pub hot_writes: u64,
    /// Data writes routed to the cold log: GC data copies (but under
    /// FIFO without heat classification, which keeps one log), and the
    /// low-heat host writes while hot/cold separation is enabled.
    pub cold_writes: u64,
    /// Background-scrub victims relocated (one block each) before their
    /// accumulated read-disturb / retention damage crossed the ECC budget.
    pub scrub_runs: u64,
    /// Pages copied by scrub relocations.
    pub scrub_copies: u64,
    /// Static wear-leveling relocations: cold low-wear blocks recycled so
    /// their cells rejoin the free pool.
    pub wear_level_runs: u64,
    /// Pages copied by wear-leveling relocations.
    pub wear_level_copies: u64,
    /// Transitions into the `Degraded` health state (0 or 1 per device
    /// lifetime; the state machine is forward-only).
    pub degraded_entries: u64,
    /// Transitions into the `ReadOnly` health state (0 or 1 per device
    /// lifetime).
    pub read_only_entries: u64,
}

impl FtlStats {
    /// All pages programmed by the FTL, from any cause.
    pub fn total_writes(&self) -> u64 {
        self.data_writes
            + self.gc_copies
            + self.map_writes
            + self.gtd_writes
            + self.meta_writes
            + self.xl2p_writes
            + self.commit_record_writes
    }

    /// Mean fraction of valid pages in *data* GC victim blocks, if any
    /// data-block GC ran. This is the "GC validity" knob of Figures 5/6.
    pub fn mean_gc_validity(&self) -> Option<f64> {
        if self.gc_victim_pages == 0 {
            None
        } else {
            Some(self.gc_valid_pages as f64 / self.gc_victim_pages as f64)
        }
    }

    /// Fraction of mapping lookups served from RAM, if any lookup ran.
    pub fn map_cache_hit_rate(&self) -> Option<f64> {
        let total = self.map_cache_hits + self.map_cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.map_cache_hits as f64 / total as f64)
        }
    }
}

impl Sub for FtlStats {
    type Output = FtlStats;

    fn sub(self, rhs: FtlStats) -> FtlStats {
        FtlStats {
            data_writes: self.data_writes - rhs.data_writes,
            gc_copies: self.gc_copies - rhs.gc_copies,
            gc_runs: self.gc_runs - rhs.gc_runs,
            gc_background_steps: self.gc_background_steps - rhs.gc_background_steps,
            gc_inline_collections: self.gc_inline_collections - rhs.gc_inline_collections,
            gc_map_runs: self.gc_map_runs - rhs.gc_map_runs,
            gc_victim_pages: self.gc_victim_pages - rhs.gc_victim_pages,
            gc_valid_pages: self.gc_valid_pages - rhs.gc_valid_pages,
            map_writes: self.map_writes - rhs.map_writes,
            meta_writes: self.meta_writes - rhs.meta_writes,
            xl2p_writes: self.xl2p_writes - rhs.xl2p_writes,
            commit_record_writes: self.commit_record_writes - rhs.commit_record_writes,
            checkpoints: self.checkpoints - rhs.checkpoints,
            program_retries: self.program_retries - rhs.program_retries,
            read_retries: self.read_retries - rhs.read_retries,
            bad_block_retirements: self.bad_block_retirements - rhs.bad_block_retirements,
            group_commit_flushes: self.group_commit_flushes - rhs.group_commit_flushes,
            commits_coalesced: self.commits_coalesced - rhs.commits_coalesced,
            conflict_aborts: self.conflict_aborts - rhs.conflict_aborts,
            versions_retained: self.versions_retained - rhs.versions_retained,
            versions_pruned: self.versions_pruned - rhs.versions_pruned,
            map_cache_hits: self.map_cache_hits - rhs.map_cache_hits,
            map_cache_misses: self.map_cache_misses - rhs.map_cache_misses,
            map_demand_loads: self.map_demand_loads - rhs.map_demand_loads,
            map_evictions_clean: self.map_evictions_clean - rhs.map_evictions_clean,
            map_evictions_dirty: self.map_evictions_dirty - rhs.map_evictions_dirty,
            map_flush_batches: self.map_flush_batches - rhs.map_flush_batches,
            gtd_writes: self.gtd_writes - rhs.gtd_writes,
            gc_cb_data_victims: self.gc_cb_data_victims - rhs.gc_cb_data_victims,
            gc_cb_map_victims: self.gc_cb_map_victims - rhs.gc_cb_map_victims,
            hot_writes: self.hot_writes - rhs.hot_writes,
            cold_writes: self.cold_writes - rhs.cold_writes,
            scrub_runs: self.scrub_runs - rhs.scrub_runs,
            scrub_copies: self.scrub_copies - rhs.scrub_copies,
            wear_level_runs: self.wear_level_runs - rhs.wear_level_runs,
            wear_level_copies: self.wear_level_copies - rhs.wear_level_copies,
            degraded_entries: self.degraded_entries - rhs.degraded_entries,
            read_only_entries: self.read_only_entries - rhs.read_only_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_causes() {
        let s = FtlStats {
            data_writes: 1,
            gc_copies: 2,
            map_writes: 3,
            meta_writes: 4,
            xl2p_writes: 5,
            commit_record_writes: 6,
            ..Default::default()
        };
        assert_eq!(s.total_writes(), 21);
    }

    #[test]
    fn validity_ratio() {
        let s = FtlStats {
            gc_victim_pages: 100,
            gc_valid_pages: 37,
            ..Default::default()
        };
        assert_eq!(s.mean_gc_validity(), Some(0.37));
        assert_eq!(FtlStats::default().mean_gc_validity(), None);
    }

    #[test]
    fn diff_subtracts_fieldwise() {
        let a = FtlStats {
            data_writes: 10,
            gc_runs: 4,
            ..Default::default()
        };
        let b = FtlStats {
            data_writes: 3,
            gc_runs: 1,
            ..Default::default()
        };
        let d = a - b;
        assert_eq!(d.data_writes, 7);
        assert_eq!(d.gc_runs, 3);
    }
}
