use bp_mem::MemoryConfig;
use serde::{Deserialize, Serialize};

/// Core microarchitecture parameters (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Core clock frequency in GHz.
    ///
    /// The cycle model never reads it: it only turns cycles into seconds
    /// ([`RegionMetrics::seconds`](crate::RegionMetrics::seconds), run and
    /// reconstruction totals).  [`SimConfig::cycle_equivalent`] relies on
    /// that to let configurations that differ only in frequency share one
    /// detailed simulation.  Anyone who makes a latency or penalty depend on
    /// the frequency must change that method too.
    pub frequency_ghz: f64,
    /// Issue width (instructions retired per cycle at best).
    pub issue_width: u32,
    /// Reorder-buffer size; bounds how much memory latency can be hidden.
    pub rob_entries: u32,
    /// Memory-level parallelism: long-latency misses overlap by this factor.
    pub memory_level_parallelism: f64,
    /// Latency (cycles) below which a memory access is considered fully
    /// hidden by out-of-order execution.
    pub hidden_latency_cycles: u64,
    /// Branch misprediction penalty in cycles (Pentium M predictor, 8 cycles).
    pub branch_penalty_cycles: u64,
    /// Fraction of basic-block executions that suffer a branch misprediction.
    pub branch_miss_rate: f64,
}

impl CoreConfig {
    /// Table I core: 2.66 GHz, 4-wide, 128-entry ROB, 8-cycle branch penalty.
    pub fn table1() -> Self {
        Self {
            frequency_ghz: 2.66,
            issue_width: 4,
            rob_entries: 128,
            memory_level_parallelism: 2.0,
            hidden_latency_cycles: 8,
            branch_penalty_cycles: 8,
            branch_miss_rate: 0.02,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// Full simulated-machine configuration: cores plus memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of cores (== application threads).
    pub num_cores: usize,
    /// Core model parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub memory: MemoryConfig,
    /// Fixed cost of a global barrier, in cycles, plus a per-core component.
    pub barrier_base_cycles: u64,
    /// Additional barrier cost per participating core, in cycles.
    pub barrier_per_core_cycles: u64,
}

impl SimConfig {
    /// The paper's machine with Table I cache sizes and `num_cores` cores
    /// (8 = one socket, 32 = four sockets).
    pub fn table1(num_cores: usize) -> Self {
        Self {
            num_cores,
            core: CoreConfig::table1(),
            memory: MemoryConfig::table1(),
            barrier_base_cycles: 200,
            barrier_per_core_cycles: 20,
        }
    }

    /// The scaled-down hierarchy used by default in this reproduction (same
    /// topology and latencies as Table I, smaller capacities; see DESIGN.md).
    pub fn scaled(num_cores: usize) -> Self {
        Self { memory: MemoryConfig::scaled(), ..Self::table1(num_cores) }
    }

    /// A tiny machine for fast tests: pairs with workload scales around 0.05
    /// so that test working sets still exceed the LLC.
    pub fn tiny(num_cores: usize) -> Self {
        Self { memory: MemoryConfig::tiny(), ..Self::table1(num_cores) }
    }

    /// Returns a copy configured for a different core count.
    pub fn with_cores(mut self, num_cores: usize) -> Self {
        self.num_cores = num_cores;
        self
    }

    /// Whether `self` and `other` are equal bit for bit in every field but
    /// [`core.frequency_ghz`](CoreConfig::frequency_ghz).  Such configurations
    /// simulate any region to identical [`RegionMetrics`](crate::RegionMetrics),
    /// so a design-space sweep simulates them once and converts the cycles
    /// to seconds at each one's own frequency.
    pub fn cycle_equivalent(&self, other: &SimConfig) -> bool {
        let mut this = *self;
        this.core.frequency_ghz = other.core.frequency_ghz;
        serde::to_vec(&this) == serde::to_vec(other)
    }

    /// Seconds per core cycle.
    pub fn seconds_per_cycle(&self) -> f64 {
        1.0 / (self.core.frequency_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_machine_matches_paper() {
        let c = SimConfig::table1(32);
        assert_eq!(c.num_cores, 32);
        assert_eq!(c.core.issue_width, 4);
        assert_eq!(c.core.rob_entries, 128);
        assert!((c.core.frequency_ghz - 2.66).abs() < 1e-9);
        assert_eq!(c.memory.l3.size_bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn scaled_keeps_core_model() {
        let c = SimConfig::scaled(8);
        assert_eq!(c.core, CoreConfig::table1());
        assert!(c.memory.l3.size_bytes < MemoryConfig::table1().l3.size_bytes);
    }

    #[test]
    fn only_the_frequency_is_outside_the_cycle_model() {
        let base = SimConfig::scaled(8);
        let mut fast = base;
        fast.core.frequency_ghz *= 1.25;
        assert!(base.cycle_equivalent(&fast) && fast.cycle_equivalent(&base));
        let mut small_llc = fast;
        small_llc.memory.l3.size_bytes /= 2;
        assert!(!base.cycle_equivalent(&small_llc));
        let mut wide = base;
        wide.core.issue_width += 1;
        assert!(!base.cycle_equivalent(&wide));
        assert!(!base.cycle_equivalent(&base.with_cores(4)));
    }

    #[test]
    fn seconds_per_cycle_is_inverse_frequency() {
        let c = SimConfig::table1(8);
        assert!((c.seconds_per_cycle() - 1.0 / 2.66e9).abs() < 1e-18);
    }
}
