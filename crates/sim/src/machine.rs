use crate::barrier::BarrierModel;
use crate::config::SimConfig;
use crate::core_model::CoreModel;
use crate::metrics::{RegionMetrics, RunMetrics};
use bp_mem::MemoryHierarchy;
use bp_workload::{BlockExecution, Workload};

/// The simulated multi-core machine.
///
/// A [`Machine`] couples one [`CoreModel`] per core with a shared
/// [`MemoryHierarchy`] and a [`BarrierModel`].  Threads of an inter-barrier
/// region are interleaved at basic-block granularity so that data sharing and
/// coherence interactions between cores are captured, then joined at the
/// barrier (passive wait: the region's wall-clock time is the slowest
/// thread's time plus the barrier cost).
#[derive(Debug, Clone)]
pub struct Machine {
    config: SimConfig,
    hierarchy: MemoryHierarchy,
    barrier: BarrierModel,
}

impl Machine {
    /// Builds a machine with cold caches.
    pub fn new(config: &SimConfig) -> Self {
        Self {
            config: *config,
            hierarchy: MemoryHierarchy::new(&config.memory, config.num_cores),
            barrier: BarrierModel::new(config.barrier_base_cycles, config.barrier_per_core_cycles),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Mutable access to the memory hierarchy (used by warmup strategies).
    pub fn hierarchy_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.hierarchy
    }

    /// Read access to the memory hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Drops all cached state (cold caches) and clears statistics.
    pub fn reset(&mut self) {
        self.hierarchy.clear();
        self.hierarchy.reset_stats();
    }

    /// Simulates one inter-barrier region on the current (possibly warm)
    /// machine state and returns its metrics.
    ///
    /// Thread traces are interleaved round-robin at basic-block granularity.
    ///
    /// # Panics
    ///
    /// Panics if the workload's thread count differs from the machine's core
    /// count or if `region` is out of range.
    pub fn run_region<W: Workload + ?Sized>(
        &mut self,
        workload: &W,
        region: usize,
    ) -> RegionMetrics {
        assert_eq!(
            workload.num_threads(),
            self.config.num_cores,
            "workload threads must match machine cores"
        );
        let cores = self.config.num_cores;
        let stats_before = *self.hierarchy.stats();

        let mut models: Vec<CoreModel> =
            (0..cores).map(|c| CoreModel::new(&self.config.core, c)).collect();
        let mut traces: Vec<_> = (0..cores).map(|t| workload.region_trace(region, t)).collect();
        let mut exec = BlockExecution::default();
        let mut live = cores;
        // Round-robin interleaving of block executions across threads.
        while live > 0 {
            live = 0;
            for (thread, trace) in traces.iter_mut().enumerate() {
                if trace.next_into(&mut exec) {
                    models[thread].execute_block(&exec, &mut self.hierarchy);
                    live += 1;
                }
            }
        }

        let per_thread_cycles: Vec<u64> = models.iter().map(|m| m.cycles()).collect();
        let instructions: u64 = models.iter().map(|m| m.instructions()).sum();
        let cycles = self.barrier.region_cycles(&per_thread_cycles);
        let memory = self.hierarchy.stats().delta_since(&stats_before);

        RegionMetrics { region, cycles, instructions, per_thread_cycles, memory }
    }

    /// Simulates the complete application (all inter-barrier regions in
    /// program order, caches warm across regions) and returns per-region and
    /// aggregate metrics — the ground truth the sampling methodology is
    /// compared against, and the source of "perfect warmup" region metrics.
    pub fn run_full<W: Workload + ?Sized>(&mut self, workload: &W) -> RunMetrics {
        self.reset();
        let regions =
            (0..workload.num_regions()).map(|region| self.run_region(workload, region)).collect();
        RunMetrics::new(regions, self.config.core.frequency_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workload::{Benchmark, WorkloadConfig};

    fn small_workload(threads: usize) -> impl Workload {
        Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.02))
    }

    #[test]
    fn full_run_covers_every_region() {
        let w = small_workload(4);
        let mut machine = Machine::new(&SimConfig::scaled(4));
        let run = machine.run_full(&w);
        assert_eq!(run.regions().len(), 46);
        assert!(run.total_instructions() > 0);
        assert!(run.total_cycles() > 0);
        assert!(run.regions().iter().all(|r| r.cycles > 0));
    }

    #[test]
    fn full_run_is_deterministic() {
        let w = small_workload(2);
        let a = Machine::new(&SimConfig::scaled(2)).run_full(&w);
        let b = Machine::new(&SimConfig::scaled(2)).run_full(&w);
        assert_eq!(a, b);
    }

    #[test]
    fn cold_region_is_slower_than_in_context() {
        let w = small_workload(2);
        let mut machine = Machine::new(&SimConfig::scaled(2));
        let full = machine.run_full(&w);
        // Re-simulate region 10 with completely cold caches.
        machine.reset();
        let cold = machine.run_region(&w, 10);
        let in_context = &full.regions()[10];
        assert_eq!(cold.instructions, in_context.instructions);
        assert!(
            cold.cycles >= in_context.cycles,
            "cold {} should not be faster than warm {}",
            cold.cycles,
            in_context.cycles
        );
        assert!(cold.memory.dram_accesses >= in_context.memory.dram_accesses);
    }

    #[test]
    #[should_panic]
    fn thread_core_mismatch_panics() {
        let w = small_workload(4);
        let mut machine = Machine::new(&SimConfig::scaled(2));
        let _ = machine.run_region(&w, 0);
    }
}
