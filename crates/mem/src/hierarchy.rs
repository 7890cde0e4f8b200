use crate::cache::{Cache, LineState};
use crate::config::MemoryConfig;
use crate::shared_cache::{DirEntry, SharedCache};
use crate::stats::MemoryStats;
use crate::MAX_CORES;
use serde::{Deserialize, Serialize};

mod install;

/// Which level of the hierarchy serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceLevel {
    /// Hit in the core's own L1 (data or instruction).
    L1,
    /// Hit in the core's private L2.
    L2,
    /// Serviced by a shared L3 (local or remote socket) or by the directory
    /// (write upgrades).
    L3,
    /// Serviced by another core's private cache (dirty-data transfer).
    RemoteCache,
    /// Serviced by DRAM.
    Dram,
}

/// Result of routing one access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Latency of the access in core cycles.
    pub latency: u64,
    /// Level that provided the data.
    pub level: ServiceLevel,
    /// Whether DRAM was accessed.
    pub dram_access: bool,
}

#[derive(Debug, Clone)]
struct CoreCaches {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
}

/// A hierarchy's contents independent of how its caches store them: every
/// set's valid lines least recently used first, with their MSI states (the
/// private caches) or directory entries (the L3).  Raw recency timestamps
/// and way positions are left out: two hierarchies of one configuration
/// with equal canonical states behave identically from then on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalState {
    /// Per core: its L1I, L1D and L2.
    pub cores: Vec<[Sets<LineState>; 3]>,
    /// Per socket: its L3.
    pub sockets: Vec<Sets<DirEntry>>,
}

/// A cache as a list of sets, each its valid lines least recently used
/// first, with what the cache keeps per line.
type Sets<T> = Vec<Vec<(u64, T)>>;

/// The multi-socket memory hierarchy of the simulated machine.
///
/// Topology follows Table I of the paper: each core has private L1I/L1D and
/// L2 caches; every `cores_per_socket` cores share an inclusive L3 with a
/// full-map MSI directory; lines are interleaved across sockets (the home
/// socket of a line is `line % num_sockets`), so the aggregate LLC capacity
/// grows with the socket count — the effect behind CG's superlinear scaling
/// in Figure 8.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemoryConfig,
    /// `log2(line_bytes)`: the line of byte address `addr` is `addr >> line_shift`.
    line_shift: u32,
    cores: Vec<CoreCaches>,
    sockets: Vec<SharedCache>,
    stats: MemoryStats,
}

impl MemoryHierarchy {
    /// Builds a cold hierarchy for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds [`MAX_CORES`] (the directory
    /// uses a 64-bit sharer mask), or if [`MemoryConfig::validate`] rejects
    /// `config`.
    pub fn new(config: &MemoryConfig, num_cores: usize) -> Self {
        assert!((1..=MAX_CORES).contains(&num_cores), "1..={MAX_CORES} cores supported");
        if let Err(message) = config.validate() {
            panic!("invalid memory configuration: {message}");
        }
        let cores = (0..num_cores)
            .map(|_| CoreCaches {
                l1i: Cache::new(&config.l1i, config.line_bytes),
                l1d: Cache::new(&config.l1d, config.line_bytes),
                l2: Cache::new(&config.l2, config.line_bytes),
            })
            .collect();
        let num_sockets = config.num_sockets(num_cores) as u64;
        let sockets = (0..config.num_sockets(num_cores))
            .map(|_| SharedCache::with_interleave(&config.l3, config.line_bytes, num_sockets))
            .collect();
        Self {
            config: *config,
            line_shift: config.line_bytes.trailing_zeros(),
            cores,
            sockets,
            stats: MemoryStats::new(),
        }
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Accumulated statistics since construction or the last reset.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Resets the statistics counters (cache contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::new();
    }

    /// Drops all cached state, returning the hierarchy to cold caches.
    pub fn clear(&mut self) {
        for core in &mut self.cores {
            core.l1i.clear();
            core.l1d.clear();
            core.l2.clear();
        }
        for socket in &mut self.sockets {
            socket.clear();
        }
    }

    /// The hierarchy's contents in canonical form.
    pub fn canonical_state(&self) -> CanonicalState {
        CanonicalState {
            cores: self
                .cores
                .iter()
                .map(|c| [c.l1i.recency_sets(), c.l1d.recency_sets(), c.l2.recency_sets()])
                .collect(),
            sockets: self.sockets.iter().map(SharedCache::recency_sets).collect(),
        }
    }

    fn socket_of_core(&self, core: usize) -> usize {
        core / self.config.cores_per_socket
    }

    fn home_socket(&self, line: u64) -> usize {
        match self.sockets.len() {
            // One socket homes every line: skip the division.
            1 => 0,
            sockets => (line % sockets as u64) as usize,
        }
    }

    /// Issues a data access (load or store) from `core` to byte address `addr`.
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool) -> AccessResult {
        let line = addr >> self.line_shift;
        self.stats.data_accesses += 1;
        if is_write {
            self.stats.writes += 1;
        }
        self.access_line(core, line, is_write, false)
    }

    /// Issues an instruction fetch from `core` at byte address `addr`.
    pub fn fetch_instruction(&mut self, core: usize, addr: u64) -> AccessResult {
        let line = addr >> self.line_shift;
        self.stats.instruction_fetches += 1;
        self.access_line(core, line, false, true)
    }

    fn access_line(
        &mut self,
        core: usize,
        line: u64,
        is_write: bool,
        is_instr: bool,
    ) -> AccessResult {
        // --- L1 ---
        let caches = &mut self.cores[core];
        let l1 = if is_instr { &mut caches.l1i } else { &mut caches.l1d };
        let l1_latency = l1.latency();
        if let Some(state) = l1.lookup(line) {
            if !is_write || state == LineState::Modified {
                self.stats.l1_hits += 1;
                return AccessResult {
                    latency: l1_latency,
                    level: ServiceLevel::L1,
                    dram_access: false,
                };
            }
            // Write hit on a Shared line: upgrade through the directory.
            let latency = l1_latency + self.upgrade(core, line);
            self.cores[core].l1d.set_state(line, LineState::Modified);
            self.cores[core].l2.set_state(line, LineState::Modified);
            self.stats.upgrades += 1;
            return AccessResult { latency, level: ServiceLevel::L3, dram_access: false };
        }

        // --- L2 ---
        let l2_latency = self.cores[core].l2.latency();
        if let Some(state) = self.cores[core].l2.lookup(line) {
            if !is_write || state == LineState::Modified {
                self.stats.l2_hits += 1;
                let fill_state = state;
                self.fill_l1(core, line, fill_state, is_instr);
                return AccessResult {
                    latency: l1_latency + l2_latency,
                    level: ServiceLevel::L2,
                    dram_access: false,
                };
            }
            // Write on a Shared L2 line: upgrade.
            let latency = l1_latency + l2_latency + self.upgrade(core, line);
            self.cores[core].l2.set_state(line, LineState::Modified);
            self.fill_l1(core, line, LineState::Modified, is_instr);
            self.stats.upgrades += 1;
            return AccessResult { latency, level: ServiceLevel::L3, dram_access: false };
        }

        // --- L3 / directory ---
        let home = self.home_socket(line);
        let local_socket = self.socket_of_core(core);
        let mut latency = l1_latency + l2_latency + self.sockets[home].latency();
        if home != local_socket {
            latency += self.config.remote_penalty_cycles;
        }

        let (level, dram_access) = match self.sockets[home].lookup_slot(line) {
            Some((slot, entry)) => {
                let mut level = ServiceLevel::L3;
                // Dirty data in another core's cache must be fetched from
                // there.  Only private caches change before the directory
                // write, so `slot` still names the line.
                if let Some(owner) = entry.owner {
                    if owner as usize != core {
                        latency += self.config.remote_penalty_cycles;
                        level = ServiceLevel::RemoteCache;
                        self.stats.remote_cache_hits += 1;
                        let owner = owner as usize;
                        if is_write {
                            self.invalidate_private(owner, line);
                        } else {
                            self.cores[owner].l1d.set_state(line, LineState::Shared);
                            self.cores[owner].l2.set_state(line, LineState::Shared);
                        }
                        let e = self.sockets[home].entry_mut(slot);
                        e.dirty = true;
                        if is_write {
                            e.sharers = 1 << core;
                            e.owner = Some(core as u32);
                        } else {
                            e.sharers |= 1 << core;
                            e.owner = None;
                        }
                    } else {
                        // The requester itself is the registered owner (its L1/L2
                        // copy was silently evicted); just refresh the directory.
                        self.stats.l3_hits += 1;
                        let e = self.sockets[home].entry_mut(slot);
                        e.sharers |= 1 << core;
                        if is_write {
                            e.owner = Some(core as u32);
                        }
                    }
                } else {
                    self.stats.l3_hits += 1;
                    if is_write {
                        let others = entry.sharers & !(1 << core);
                        self.invalidate_sharers(others, line);
                        let e = self.sockets[home].entry_mut(slot);
                        e.sharers = 1 << core;
                        e.owner = Some(core as u32);
                    } else {
                        self.sockets[home].entry_mut(slot).sharers |= 1 << core;
                    }
                }
                (level, false)
            }
            None => {
                // DRAM fill.
                latency += self.config.dram_latency_cycles;
                self.stats.dram_accesses += 1;
                let new_entry = DirEntry {
                    dirty: false,
                    sharers: 1 << core,
                    owner: if is_write { Some(core as u32) } else { None },
                };
                if let Some(victim) = self.sockets[home].fill(line, new_entry) {
                    self.back_invalidate(victim.sharers, victim.line);
                    if victim.dirty {
                        self.stats.dram_writebacks += 1;
                    }
                }
                (ServiceLevel::Dram, true)
            }
        };

        // Fill the private caches.
        let fill_state = if is_write { LineState::Modified } else { LineState::Shared };
        self.fill_l2(core, line, fill_state);
        self.fill_l1(core, line, fill_state, is_instr);

        AccessResult { latency, level, dram_access }
    }

    /// Directory round trip invalidating all other sharers for a write upgrade.
    /// Returns the extra latency.
    fn upgrade(&mut self, core: usize, line: u64) -> u64 {
        let home = self.home_socket(line);
        let local = self.socket_of_core(core);
        let mut latency = self.sockets[home].latency();
        if home != local {
            latency += self.config.remote_penalty_cycles;
        }
        // Ensure the directory has an entry recording the new owner (the line
        // may have been evicted from the inclusive L3; re-install it).  Only
        // private caches change before the directory write, so `slot` still
        // names the line.
        match self.sockets[home].peek_slot(line) {
            Some((slot, entry)) => {
                self.invalidate_sharers(entry.sharers & !(1 << core), line);
                let e = self.sockets[home].entry_mut(slot);
                e.sharers = 1 << core;
                e.owner = Some(core as u32);
            }
            None => {
                let entry = DirEntry { dirty: true, sharers: 1 << core, owner: Some(core as u32) };
                if let Some(victim) = self.sockets[home].fill(line, entry) {
                    self.back_invalidate(victim.sharers, victim.line);
                    if victim.dirty {
                        self.stats.dram_writebacks += 1;
                    }
                }
            }
        }
        latency
    }

    /// Invalidates `line` in the private caches of every core in `mask`.
    fn invalidate_sharers(&mut self, mask: u64, line: u64) {
        let mut mask = mask;
        while mask != 0 {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if core < self.cores.len() {
                self.invalidate_private(core, line);
            }
        }
    }

    /// Invalidation triggered by an L3 eviction (inclusion): dirty private
    /// copies are written back to DRAM.
    fn back_invalidate(&mut self, mask: u64, line: u64) {
        let mut mask = mask;
        let mut dirty = false;
        while mask != 0 {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if core < self.cores.len() {
                dirty |= self.invalidate_private(core, line);
            }
        }
        if dirty {
            self.stats.dram_writebacks += 1;
        }
    }

    /// Invalidates `line` in one core's private caches.  Returns `true` if a
    /// modified copy was dropped.
    fn invalidate_private(&mut self, core: usize, line: u64) -> bool {
        let caches = &mut self.cores[core];
        let mut dirty = false;
        if let Some(d) = caches.l1d.invalidate(line) {
            dirty |= d;
            self.stats.invalidations += 1;
        }
        if caches.l1i.invalidate(line).is_some() {
            self.stats.invalidations += 1;
        }
        if let Some(d) = caches.l2.invalidate(line) {
            dirty |= d;
            self.stats.invalidations += 1;
        }
        dirty
    }

    /// Fills the L1 (instruction or data) with `line`, spilling any dirty
    /// victim into the L2.
    fn fill_l1(&mut self, core: usize, line: u64, state: LineState, is_instr: bool) {
        let victim = if is_instr {
            self.cores[core].l1i.fill(line, LineState::Shared)
        } else {
            self.cores[core].l1d.fill(line, state)
        };
        if let Some(victim) = victim {
            if victim.dirty {
                // Dirty L1 victims merge into the L2 copy (inclusion means the
                // line is normally present there).
                if !self.cores[core].l2.set_state(victim.line, LineState::Modified) {
                    self.spill_into_l2(core, victim.line);
                }
            }
        }
    }

    /// Fills the private L2 with `line`, writing back any dirty victim to the
    /// home L3 and keeping the directory consistent.
    fn fill_l2(&mut self, core: usize, line: u64, state: LineState) {
        if let Some(victim) = self.cores[core].l2.fill(line, state) {
            self.handle_l2_victim(core, victim.line, victim.dirty);
        }
    }

    /// Re-inserts a dirty line into the L2 (used when an L1 victim's L2 copy
    /// has already been evicted).
    fn spill_into_l2(&mut self, core: usize, line: u64) {
        if let Some(victim) = self.cores[core].l2.fill(line, LineState::Modified) {
            self.handle_l2_victim(core, victim.line, victim.dirty);
        }
    }

    fn handle_l2_victim(&mut self, core: usize, line: u64, dirty: bool) {
        // Maintain L1 ⊆ L2 inclusion.
        let mut dirty = dirty;
        if let Some(d) = self.cores[core].l1d.invalidate(line) {
            dirty |= d;
        }
        self.cores[core].l1i.invalidate(line);
        let home = self.home_socket(line);
        let updated = self.sockets[home].update(line, |e| {
            if dirty {
                e.dirty = true;
            }
            e.sharers &= !(1u64 << core);
            if e.owner == Some(core as u32) {
                e.owner = None;
            }
        });
        if dirty && !updated {
            // The L3 copy is gone (non-inclusive corner); write straight to DRAM.
            self.stats.dram_writebacks += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(cores: usize) -> MemoryHierarchy {
        MemoryHierarchy::new(&MemoryConfig::scaled(), cores)
    }

    #[test]
    fn cold_miss_then_warm_hit() {
        let mut h = hierarchy(2);
        let miss = h.access(0, 0x10_000, false);
        assert_eq!(miss.level, ServiceLevel::Dram);
        assert!(miss.dram_access);
        let hit = h.access(0, 0x10_000, false);
        assert_eq!(hit.level, ServiceLevel::L1);
        assert_eq!(hit.latency, 4);
        assert_eq!(h.stats().dram_accesses, 1);
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn dirty_data_transferred_between_cores() {
        let mut h = hierarchy(2);
        h.access(0, 0x20_000, true); // core 0 owns the line (Modified)
        let read = h.access(1, 0x20_000, false);
        assert_eq!(read.level, ServiceLevel::RemoteCache);
        assert!(!read.dram_access);
        // Both cores now share the line.
        assert_eq!(h.access(0, 0x20_000, false).level, ServiceLevel::L1);
        assert_eq!(h.access(1, 0x20_000, false).level, ServiceLevel::L1);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut h = hierarchy(2);
        h.access(0, 0x30_000, false);
        h.access(1, 0x30_000, false);
        // Core 1 upgrades; core 0's copy must disappear.
        let upgrade = h.access(1, 0x30_000, true);
        assert_eq!(upgrade.level, ServiceLevel::L3);
        assert!(h.stats().invalidations > 0);
        let reread = h.access(0, 0x30_000, false);
        // Core 0 misses privately and gets the dirty data from core 1.
        assert_eq!(reread.level, ServiceLevel::RemoteCache);
    }

    #[test]
    fn instruction_fetches_hit_after_first_touch() {
        let mut h = hierarchy(1);
        let first = h.fetch_instruction(0, 0x4000_0000);
        assert_eq!(first.level, ServiceLevel::Dram);
        let second = h.fetch_instruction(0, 0x4000_0000);
        assert_eq!(second.level, ServiceLevel::L1);
        assert_eq!(h.stats().instruction_fetches, 2);
    }

    #[test]
    fn aggregate_llc_capacity_grows_with_sockets() {
        let config = MemoryConfig::scaled();
        // Working set of 8192 lines (512 KiB): fits in 4 sockets' L3 (16K lines
        // total is not needed — 4x256 KiB = 1 MiB) but not in one socket (256 KiB).
        let lines: Vec<u64> = (0..8192u64).map(|i| i * 64).collect();
        let mut small = MemoryHierarchy::new(&config, 8);
        let mut large = MemoryHierarchy::new(&config, 32);
        for pass in 0..3 {
            for &addr in &lines {
                // Interleave requesting cores so all sockets participate.
                let core_small = (addr / 64 % 8) as usize;
                let core_large = (addr / 64 % 32) as usize;
                small.access(core_small, addr, false);
                large.access(core_large, addr, false);
                let _ = pass;
            }
        }
        let small_dram = small.stats().dram_accesses;
        let large_dram = large.stats().dram_accesses;
        assert!(
            large_dram * 2 < small_dram,
            "32-core machine should capture the working set: {large_dram} vs {small_dram}"
        );
    }

    #[test]
    fn reset_stats_keeps_cache_contents() {
        let mut h = hierarchy(1);
        h.access(0, 0x5000, false);
        h.reset_stats();
        assert_eq!(h.stats().data_accesses, 0);
        assert_eq!(h.access(0, 0x5000, false).level, ServiceLevel::L1);
    }

    #[test]
    #[should_panic]
    fn too_many_cores_rejected() {
        let _ = MemoryHierarchy::new(&MemoryConfig::scaled(), 65);
    }
}

/// Coherence invariants of the whole hierarchy over random multi-core
/// streams, checked after every access through the private fields.
#[cfg(test)]
mod coherence_invariants {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One request: `(core, line, kind)` with kind 0 = load, 1 = store,
    /// 2 = instruction fetch.
    type Request = (usize, u64, u8);

    /// Streams over a pool of 16 lines (heavy sharing and upgrades), 128
    /// lines (private evictions) or twice the L3's lines (L3 evictions and
    /// back-invalidations).
    fn streams() -> impl Strategy<Value = (usize, Vec<Request>)> {
        let l3_lines = MemoryConfig::tiny().l3.num_lines(64);
        let requests = proptest::collection::vec((0usize..4, any::<u64>(), 0u8..3), 1..1500);
        (1usize..5, proptest::sample::select(vec![16, 128, 2 * l3_lines]), requests).prop_map(
            |(cores, pool, requests)| {
                let requests = requests.into_iter().map(|(c, l, k)| (c % cores, l % pool, k));
                (cores, requests.collect())
            },
        )
    }

    fn check(h: &MemoryHierarchy) -> Result<(), String> {
        // line -> (core, holds a Modified copy) for every private holder.
        let mut holders: BTreeMap<u64, Vec<(usize, bool)>> = BTreeMap::new();
        for (core, caches) in h.cores.iter().enumerate() {
            for (line, _) in caches.l1d.valid_lines() {
                if !caches.l2.contains(line) {
                    return Err(format!("core {core}: L1D line {line} missing from its L2"));
                }
            }
            let mut lines: BTreeMap<u64, bool> = BTreeMap::new();
            for (line, state) in caches
                .l1i
                .valid_lines()
                .chain(caches.l1d.valid_lines())
                .chain(caches.l2.valid_lines())
            {
                *lines.entry(line).or_default() |= state == LineState::Modified;
            }
            for (line, modified) in lines {
                holders.entry(line).or_default().push((core, modified));
            }
        }
        for (line, cores) in holders {
            let modified: Vec<usize> = cores.iter().filter(|c| c.1).map(|c| c.0).collect();
            if modified.len() > 1 {
                return Err(format!("line {line}: Modified in cores {modified:?}"));
            }
            if modified.len() == 1 && cores.len() > 1 {
                return Err(format!(
                    "line {line}: Modified in core {} but held by {cores:?}",
                    modified[0]
                ));
            }
            let home = h.home_socket(line);
            for (core, _) in cores {
                match h.sockets[home].peek(line) {
                    None => {
                        return Err(format!("line {line}: held by core {core}, not in L3 {home}"))
                    }
                    Some(entry) if !entry.has_sharer(core) => {
                        return Err(format!(
                            "line {line}: core {core} missing from sharers {entry:?}"
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// L1D ⊆ L2 per core; at most one Modified private copy, which
        /// excludes every other core's copy; every private holder is resident
        /// in the home L3 and set in its sharer mask.
        #[test]
        fn coherence_holds_after_every_access((cores, stream) in streams()) {
            let mut h = MemoryHierarchy::new(&MemoryConfig::tiny(), cores);
            for (step, &(core, line, kind)) in stream.iter().enumerate() {
                let addr = line * 64;
                match kind {
                    0 => h.access(core, addr, false),
                    1 => h.access(core, addr, true),
                    _ => h.fetch_instruction(core, addr),
                };
                if let Err(violation) = check(&h) {
                    panic!("{cores} cores, step {step} {:?}: {violation}", stream[step]);
                }
            }
        }
    }
}
