use crate::config::CoreConfig;
use bp_mem::{AccessResult, MemoryHierarchy};
use bp_workload::BlockExecution;

/// An interval-style core timing model.
///
/// Rather than simulating individual pipeline stages, the model accounts for
/// the two first-order effects the paper's evaluation depends on:
///
/// * instructions retire at the issue width (the "base" interval), and
/// * memory accesses whose latency exceeds what out-of-order execution can
///   hide add stall cycles, divided by the configured memory-level
///   parallelism, plus a small fixed branch misprediction cost per block.
///
/// The model is deterministic and stateless apart from its accumulated cycle
/// count, so a region's cost depends only on its instruction mix and on the
/// state of the shared memory hierarchy.
#[derive(Debug, Clone)]
pub struct CoreModel {
    config: CoreConfig,
    core_id: usize,
    cycles: f64,
    instructions: u64,
    /// Residual fractional branch mispredictions (deterministic accumulator).
    branch_accumulator: f64,
}

impl CoreModel {
    /// Creates a core model for core `core_id`.
    pub fn new(config: &CoreConfig, core_id: usize) -> Self {
        Self { config: *config, core_id, cycles: 0.0, instructions: 0, branch_accumulator: 0.0 }
    }

    /// The core this model simulates.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// Cycles accumulated so far (rounded up).
    pub fn cycles(&self) -> u64 {
        self.cycles.ceil() as u64
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Resets the accumulated cycle and instruction counts.
    pub fn reset(&mut self) {
        self.cycles = 0.0;
        self.instructions = 0;
        self.branch_accumulator = 0.0;
    }

    /// Executes one basic-block execution, issuing its instruction fetch and
    /// memory accesses to `hierarchy` and accumulating the cycle cost.
    pub fn execute_block(&mut self, exec: &BlockExecution, hierarchy: &mut MemoryHierarchy) {
        // Instruction fetch for the block (one line per static block).
        let fetch = hierarchy.fetch_instruction(self.core_id, exec.block.code_addr());
        self.cycles += self.stall_cycles(&fetch);

        // Base cost: retire at the issue width.
        self.cycles += f64::from(exec.instructions) / f64::from(self.config.issue_width);
        self.instructions += u64::from(exec.instructions);

        // Deterministic branch misprediction cost (one conditional branch per
        // block execution on average).
        self.branch_accumulator += self.config.branch_miss_rate;
        if self.branch_accumulator >= 1.0 {
            self.branch_accumulator -= 1.0;
            self.cycles += self.config.branch_penalty_cycles as f64;
        }

        // Memory accesses.
        for access in &exec.accesses {
            let result = hierarchy.access(self.core_id, access.addr, access.kind.is_write());
            self.cycles += self.stall_cycles(&result);
        }
    }

    /// Stall cycles contributed by one memory access: latency beyond what the
    /// out-of-order window hides, divided by the memory-level parallelism.
    fn stall_cycles(&self, result: &AccessResult) -> f64 {
        let exposed = result.latency.saturating_sub(self.config.hidden_latency_cycles);
        exposed as f64 / self.config.memory_level_parallelism.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_mem::MemoryConfig;
    use bp_workload::{BasicBlockId, MemoryAccess};

    fn block(instr: u32, addrs: &[u64]) -> BlockExecution {
        BlockExecution {
            block: BasicBlockId(0),
            instructions: instr,
            accesses: addrs.iter().map(|&a| MemoryAccess::read(a, 8)).collect(),
        }
    }

    #[test]
    fn compute_only_blocks_retire_at_issue_width() {
        let mut hierarchy = MemoryHierarchy::new(&MemoryConfig::scaled(), 1);
        let mut core = CoreModel::new(&CoreConfig::table1(), 0);
        // Warm the instruction line so the fetch is free on the second call.
        core.execute_block(&block(400, &[]), &mut hierarchy);
        let before = core.cycles();
        core.execute_block(&block(400, &[]), &mut hierarchy);
        let delta = core.cycles() - before;
        // 400 instructions / 4-wide = 100 cycles (plus at most a branch penalty).
        assert!((100..=110).contains(&delta), "delta = {delta}");
        assert_eq!(core.instructions(), 800);
    }

    #[test]
    fn cache_misses_add_stalls() {
        let mut hierarchy = MemoryHierarchy::new(&MemoryConfig::scaled(), 1);
        let mut cold = CoreModel::new(&CoreConfig::table1(), 0);
        cold.execute_block(&block(40, &[0x10000, 0x20000, 0x30000]), &mut hierarchy);
        let cold_cycles = cold.cycles();

        let mut warm = CoreModel::new(&CoreConfig::table1(), 0);
        warm.execute_block(&block(40, &[0x10000, 0x20000, 0x30000]), &mut hierarchy);
        let warm_cycles = warm.cycles();
        assert!(cold_cycles > warm_cycles * 2, "{cold_cycles} vs {warm_cycles}");
    }

    #[test]
    fn reset_clears_counters() {
        let mut hierarchy = MemoryHierarchy::new(&MemoryConfig::scaled(), 1);
        let mut core = CoreModel::new(&CoreConfig::table1(), 0);
        core.execute_block(&block(10, &[0x100]), &mut hierarchy);
        assert!(core.cycles() > 0);
        core.reset();
        assert_eq!(core.cycles(), 0);
        assert_eq!(core.instructions(), 0);
    }
}
