//! Property-based tests of the cache hierarchy invariants.

use bp_mem::{Cache, CacheConfig, LineState, MemoryConfig, MemoryHierarchy, ServiceLevel};
use proptest::prelude::*;

/// A random access pattern: (core, line, is_write).
fn accesses(cores: usize) -> impl Strategy<Value = Vec<(usize, u64, bool)>> {
    proptest::collection::vec((0..cores, 0u64..512, any::<bool>()), 1..400)
        .prop_map(|v| v.into_iter().map(|(c, l, w)| (c, l * 64, w)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A cache never holds more lines than its capacity, and a line that was
    /// just inserted is always resident.
    #[test]
    fn cache_occupancy_bounded(lines in proptest::collection::vec(0u64..256, 1..300)) {
        let config = CacheConfig::new(2048, 4, 1); // 32 lines
        let mut cache = Cache::new(&config, 64);
        for &line in &lines {
            cache.insert(line, LineState::Shared);
            prop_assert!(cache.contains(line));
            prop_assert!(cache.occupancy() <= cache.capacity_lines());
        }
    }

    /// Replaying the same access sequence on a fresh hierarchy gives exactly
    /// the same statistics (full determinism).
    #[test]
    fn hierarchy_is_deterministic(pattern in accesses(4)) {
        let config = MemoryConfig::tiny();
        let mut a = MemoryHierarchy::new(&config, 4);
        let mut b = MemoryHierarchy::new(&config, 4);
        for &(core, addr, write) in &pattern {
            let ra = a.access(core, addr, write);
            let rb = b.access(core, addr, write);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Every access is serviced by exactly one level and its latency is at
    /// least the L1 latency; service-level counters add up to the access
    /// count.
    #[test]
    fn accounting_adds_up(pattern in accesses(3)) {
        let config = MemoryConfig::tiny();
        let mut hierarchy = MemoryHierarchy::new(&config, 3);
        for &(core, addr, write) in &pattern {
            let result = hierarchy.access(core, addr, write);
            prop_assert!(result.latency >= config.l1d.latency_cycles);
            prop_assert!(matches!(
                result.level,
                ServiceLevel::L1
                    | ServiceLevel::L2
                    | ServiceLevel::L3
                    | ServiceLevel::RemoteCache
                    | ServiceLevel::Dram
            ));
        }
        let stats = hierarchy.stats();
        prop_assert_eq!(stats.data_accesses, pattern.len() as u64);
        prop_assert_eq!(
            stats.l1_hits + stats.l2_hits + stats.l3_hits + stats.remote_cache_hits
                + stats.dram_accesses + stats.upgrades,
            stats.data_accesses
        );
    }

    /// After a write by one core, a read of the same address by another core
    /// must observe coherent data (serviced by the owner's cache, the shared
    /// cache or DRAM after a writeback — never silently from its own stale L1).
    #[test]
    fn writes_invalidate_remote_readers(addr in (0u64..128).prop_map(|l| l * 64)) {
        let config = MemoryConfig::tiny();
        let mut hierarchy = MemoryHierarchy::new(&config, 2);
        // Core 1 caches the line, core 0 then writes it.
        hierarchy.access(1, addr, false);
        hierarchy.access(0, addr, true);
        let reread = hierarchy.access(1, addr, false);
        prop_assert_ne!(reread.level, ServiceLevel::L1);
    }

    /// Per level, hits plus misses equal the accesses that reached it.
    /// Where each access went is read off the state before it: an access
    /// reaches the L2 unless its core's L1D holds the line, and the L3
    /// unless its L2 does too; a write to a Shared private copy misses that
    /// level as an upgrade.  The counters must agree level by level.
    #[test]
    fn accounting_adds_up_per_level(pattern in accesses(3)) {
        let config = MemoryConfig::tiny();
        let mut hierarchy = MemoryHierarchy::new(&config, 3);
        let (mut reach_l2, mut reach_l3, mut l1_upgrades, mut l2_upgrades) = (0, 0, 0, 0);
        for &(core, addr, write) in &pattern {
            let line = addr / config.line_bytes;
            let before = hierarchy.canonical_state();
            let held = |level: usize| {
                before.cores[core][level].iter().flatten().find(|w| w.0 == line).map(|w| w.1)
            };
            let upgrade = |state| write && state == LineState::Shared;
            match (held(1), held(2)) {
                (Some(l1), _) => l1_upgrades += u64::from(upgrade(l1)),
                (None, Some(l2)) => {
                    reach_l2 += 1;
                    l2_upgrades += u64::from(upgrade(l2));
                }
                (None, None) => {
                    reach_l2 += 1;
                    reach_l3 += 1;
                }
            }
            hierarchy.access(core, addr, write);
        }
        let stats = hierarchy.stats();
        let accesses = pattern.len() as u64;
        prop_assert_eq!(stats.l1_hits + reach_l2 + l1_upgrades, accesses);
        prop_assert_eq!(stats.l2_hits + reach_l3 + l2_upgrades, reach_l2);
        prop_assert_eq!(stats.l3_hits + stats.remote_cache_hits + stats.dram_accesses, reach_l3);
        prop_assert_eq!(stats.upgrades, l1_upgrades + l2_upgrades);
    }
}
