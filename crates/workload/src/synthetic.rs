use crate::block::{BasicBlockId, BlockTable};
use crate::phase::{AccessPattern, Phase, PhaseBlock, PhaseId, ScheduleEntry};
use crate::region::{RegionTrace, TracePhase};
use crate::workload::{Workload, WorkloadConfig};

/// A data-driven barrier-synchronized workload built from phases and a
/// region schedule.
///
/// Every benchmark model in [`crate::kernels`] is an instance of this type;
/// custom workloads can be assembled with [`SyntheticWorkloadBuilder`].
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    config: WorkloadConfig,
    phases: Vec<Phase>,
    schedule: Vec<ScheduleEntry>,
    blocks: BlockTable,
    /// `phases`, prepared once for trace generation.
    trace_phases: Vec<TracePhase>,
    /// [`Workload::profile_fingerprint`], computed once in
    /// [`SyntheticWorkloadBuilder::build`]: nothing changes a built workload.
    fingerprint: u64,
}

impl SyntheticWorkload {
    /// The workload configuration (threads, scale, seed).
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The region schedule: which phase each inter-barrier region executes.
    pub fn schedule(&self) -> &[ScheduleEntry] {
        &self.schedule
    }

    /// The phase definitions.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Deterministic seed for a `(region, thread)` trace.
    fn trace_seed(&self, region: usize, thread: usize) -> u64 {
        // SplitMix-style mixing keeps per-(region, thread) streams decorrelated.
        let mut x = self
            .config
            .seed
            .wrapping_add(region as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(thread as u64 + 1);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x
    }

    /// The content fingerprint [`Workload::profile_fingerprint`] returns.
    /// The trait's default hashes only what is visible through the trait;
    /// synthetic traces additionally depend on the configuration (seed,
    /// scale, threads) and on every phase/schedule parameter.  Hash the
    /// serialized forms so new pattern fields can never silently alias.
    fn content_fingerprint(&self) -> u64 {
        let mut hasher = crate::workload::FingerprintHasher::new();
        hasher.write_str("synthetic-v1");
        hasher.write_str(&self.name);
        hasher.write_u64(self.config.threads as u64);
        hasher.write_f64(self.config.scale);
        hasher.write_u64(self.config.seed);
        hasher.write_bytes(&serde::to_vec(&self.phases));
        hasher.write_bytes(&serde::to_vec(&self.schedule));
        hasher.write_bytes(&serde::to_vec(&self.blocks));
        hasher.finish()
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_threads(&self) -> usize {
        self.config.threads
    }

    fn num_regions(&self) -> usize {
        self.schedule.len()
    }

    fn block_table(&self) -> &BlockTable {
        &self.blocks
    }

    fn region_trace(&self, region: usize, thread: usize) -> RegionTrace {
        assert!(region < self.schedule.len(), "region {region} out of range");
        assert!(thread < self.config.threads, "thread {thread} out of range");
        let entry = self.schedule[region];
        // The workload-level scale shrinks both the per-region work and the
        // working sets (applied once, in `trace_phases`), so a scaled-down run
        // behaves like a smaller input class (the regions still sweep their
        // whole data set).  The schedule-entry scale only lengthens/shortens
        // the region.
        let iterations = self.phases[entry.phase.0]
            .iterations_per_thread(entry.scale * self.config.scale, self.config.threads);
        RegionTrace::new(
            &self.trace_phases[entry.phase.0],
            iterations,
            self.config.threads,
            thread,
            self.trace_seed(region, thread),
        )
    }

    fn region_phase_name(&self, region: usize) -> &str {
        &self.phases[self.schedule[region].phase.0].name
    }

    /// A hash of the name, the configuration and the serialized phases,
    /// schedule and block table.  It is computed once, when
    /// [`SyntheticWorkloadBuilder::build`] finishes the workload, so a call
    /// reads a field instead of re-serializing the whole spec.
    fn profile_fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Builder for [`SyntheticWorkload`]s.
///
/// ```
/// use bp_workload::{AccessPattern, SyntheticWorkloadBuilder, WorkloadConfig, Workload};
///
/// let mut b = SyntheticWorkloadBuilder::new("demo", WorkloadConfig::new(4));
/// let compute = b
///     .phase("compute", 64, true)
///     .pattern(AccessPattern::PrivateStream { bytes: 8192, stride: 64 })
///     .block("compute.loop", 20, 4, 0)
///     .finish();
/// b.schedule_repeat(compute, 10);
/// let workload = b.build();
/// assert_eq!(workload.num_regions(), 10);
/// ```
#[derive(Debug)]
pub struct SyntheticWorkloadBuilder {
    name: String,
    config: WorkloadConfig,
    phases: Vec<Phase>,
    schedule: Vec<ScheduleEntry>,
    blocks: BlockTable,
}

impl SyntheticWorkloadBuilder {
    /// Starts building a workload called `name` under `config`.
    pub fn new(name: impl Into<String>, config: WorkloadConfig) -> Self {
        Self {
            name: name.into(),
            config,
            phases: Vec::new(),
            schedule: Vec::new(),
            blocks: BlockTable::new(),
        }
    }

    /// Starts the definition of a new phase with `iterations` loop-body
    /// traversals per region; `divide_by_threads` selects data-parallel
    /// splitting of the iterations across threads.
    pub fn phase(
        &mut self,
        name: impl Into<String>,
        iterations: u64,
        divide_by_threads: bool,
    ) -> PhaseBuilder<'_> {
        PhaseBuilder {
            owner: self,
            phase: Phase {
                name: name.into(),
                patterns: Vec::new(),
                blocks: Vec::new(),
                iterations,
                divide_by_threads,
            },
        }
    }

    /// Appends one region running `phase` at nominal scale.
    pub fn schedule_one(&mut self, phase: PhaseId) -> &mut Self {
        self.schedule.push(ScheduleEntry::new(phase));
        self
    }

    /// Appends one region running `phase` with an extra length scale.
    pub fn schedule_scaled(&mut self, phase: PhaseId, scale: f64) -> &mut Self {
        self.schedule.push(ScheduleEntry::scaled(phase, scale));
        self
    }

    /// Appends `count` consecutive regions all running `phase`.
    pub fn schedule_repeat(&mut self, phase: PhaseId, count: usize) -> &mut Self {
        for _ in 0..count {
            self.schedule.push(ScheduleEntry::new(phase));
        }
        self
    }

    /// Appends regions cycling through `phases`, `cycles` times
    /// (`cycles * phases.len()` regions in total).
    pub fn schedule_cycle(&mut self, phases: &[PhaseId], cycles: usize) -> &mut Self {
        for _ in 0..cycles {
            for &p in phases {
                self.schedule.push(ScheduleEntry::new(p));
            }
        }
        self
    }

    /// Number of regions scheduled so far.
    pub fn scheduled_regions(&self) -> usize {
        self.schedule.len()
    }

    /// Finalizes the workload.
    ///
    /// # Panics
    ///
    /// Panics if no region has been scheduled or if a schedule entry refers
    /// to an unknown phase.
    pub fn build(self) -> SyntheticWorkload {
        assert!(!self.schedule.is_empty(), "workload has no regions");
        for entry in &self.schedule {
            assert!(entry.phase.0 < self.phases.len(), "schedule refers to unknown phase");
        }
        let trace_phases =
            self.phases.iter().map(|phase| TracePhase::new(phase, self.config.scale)).collect();
        let mut workload = SyntheticWorkload {
            name: self.name,
            config: self.config,
            phases: self.phases,
            schedule: self.schedule,
            blocks: self.blocks,
            trace_phases,
            fingerprint: 0,
        };
        workload.fingerprint = workload.content_fingerprint();
        workload
    }
}

/// In-progress phase definition produced by [`SyntheticWorkloadBuilder::phase`].
#[derive(Debug)]
pub struct PhaseBuilder<'a> {
    owner: &'a mut SyntheticWorkloadBuilder,
    phase: Phase,
}

impl PhaseBuilder<'_> {
    /// Adds an access pattern to the phase and returns `self` for chaining.
    /// Patterns are referenced by blocks via their insertion index.
    pub fn pattern(mut self, pattern: AccessPattern) -> Self {
        self.phase.patterns.push(pattern);
        self
    }

    /// Adds a basic block to the phase loop body.
    ///
    /// `instructions` is the block's non-memory instruction count,
    /// `accesses` the number of memory references per execution and
    /// `pattern` the index of a previously added access pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` does not refer to a pattern added earlier.
    pub fn block(
        mut self,
        name: impl Into<String>,
        instructions: u32,
        accesses: u32,
        pattern: usize,
    ) -> Self {
        assert!(pattern < self.phase.patterns.len(), "pattern index out of range");
        let id: BasicBlockId = self.owner.blocks.add(name, instructions + accesses);
        self.phase.blocks.push(PhaseBlock { block: id, instructions, accesses, pattern });
        self
    }

    /// Completes the phase and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the phase has no blocks.
    pub fn finish(self) -> PhaseId {
        assert!(!self.phase.blocks.is_empty(), "phase {:?} has no blocks", self.phase.name);
        let id = PhaseId(self.owner.phases.len());
        self.owner.phases.push(self.phase);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload(threads: usize) -> SyntheticWorkload {
        let mut b = SyntheticWorkloadBuilder::new("tiny", WorkloadConfig::new(threads));
        let a = b
            .phase("a", 32, true)
            .pattern(AccessPattern::PrivateStream { bytes: 4096, stride: 64 })
            .block("a.body", 12, 4, 0)
            .finish();
        let c = b
            .phase("c", 16, true)
            .pattern(AccessPattern::SharedRandom { id: 0, bytes: 1 << 16, write_fraction: 0.2 })
            .block("c.body", 30, 8, 0)
            .finish();
        b.schedule_one(a).schedule_cycle(&[a, c], 3).schedule_one(c);
        b.build()
    }

    #[test]
    fn schedule_length_matches_regions() {
        let w = tiny_workload(4);
        assert_eq!(w.num_regions(), 8);
        assert_eq!(w.num_threads(), 4);
        assert_eq!(w.block_table().len(), 2);
        assert_eq!(w.region_phase_name(0), "a");
        assert_eq!(w.region_phase_name(7), "c");
    }

    #[test]
    fn traces_are_reproducible_across_calls() {
        let w = tiny_workload(4);
        let a: Vec<_> = w.region_trace(2, 1).collect();
        let b: Vec<_> = w.region_trace(2, 1).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_regions_of_same_phase_differ_in_random_patterns() {
        let w = tiny_workload(4);
        // Regions 2 and 4 both run phase "c" (random pattern) but with
        // different seeds, so the generated addresses differ.
        let a: Vec<_> = w.region_trace(2, 0).flat_map(|e| e.accesses).collect();
        let b: Vec<_> = w.region_trace(4, 0).flat_map(|e| e.accesses).collect();
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn barrier_count_independent_of_threads() {
        assert_eq!(tiny_workload(2).num_regions(), tiny_workload(16).num_regions());
    }

    #[test]
    #[should_panic]
    fn out_of_range_region_panics() {
        let w = tiny_workload(2);
        let _ = w.region_trace(100, 0);
    }

    #[test]
    #[should_panic]
    fn empty_schedule_rejected() {
        let b = SyntheticWorkloadBuilder::new("x", WorkloadConfig::new(2));
        let _ = b.build();
    }
}
