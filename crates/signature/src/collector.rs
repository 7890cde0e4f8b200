use crate::bbv::Bbv;
use crate::config::{SignatureConfig, SignatureKind};
use crate::ldv::Ldv;
use crate::stack_distance::StackDistanceTracker;
use crate::vector::SignatureVector;
use bp_workload::Workload;
use serde::{Deserialize, Serialize};

/// Raw per-thread signatures of one inter-barrier region.
///
/// This is what the paper's Pintool emits per region; the reproduction
/// obtains it by walking the workload model's region traces
/// ([`ApplicationProfiler::profile_region`]).  The raw form is kept so that the same
/// profile can be assembled into any of the Figure 5 signature-vector
/// variants without re-profiling.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegionSignature {
    per_thread_bbv: Vec<Bbv>,
    per_thread_ldv: Vec<Ldv>,
    per_thread_instructions: Vec<u64>,
}

impl RegionSignature {
    /// Creates a region signature from per-thread components.
    ///
    /// # Panics
    ///
    /// Panics if the three vectors do not have one entry per thread each.
    pub fn new(bbvs: Vec<Bbv>, ldvs: Vec<Ldv>, instructions: Vec<u64>) -> Self {
        assert!(
            bbvs.len() == ldvs.len() && ldvs.len() == instructions.len(),
            "per-thread component counts must match"
        );
        Self { per_thread_bbv: bbvs, per_thread_ldv: ldvs, per_thread_instructions: instructions }
    }

    /// Number of threads profiled.
    pub fn num_threads(&self) -> usize {
        self.per_thread_bbv.len()
    }

    /// Aggregate instruction count across all threads — the region's weight
    /// in the clustering step and its length for runtime reconstruction.
    pub fn total_instructions(&self) -> u64 {
        self.per_thread_instructions.iter().sum()
    }

    /// Per-thread instruction counts.
    pub fn thread_instructions(&self) -> &[u64] {
        &self.per_thread_instructions
    }

    /// Per-thread basic block vectors.
    pub fn bbvs(&self) -> &[Bbv] {
        &self.per_thread_bbv
    }

    /// Per-thread LRU stack distance vectors.
    pub fn ldvs(&self) -> &[Ldv] {
        &self.per_thread_ldv
    }

    /// Assembles the signature vector for the given configuration:
    /// per-thread components are normalized individually and concatenated
    /// across threads.
    pub fn assemble(&self, config: &SignatureConfig) -> SignatureVector {
        let mut values = Vec::new();
        for thread in 0..self.num_threads() {
            match config.kind {
                SignatureKind::BbvOnly => {
                    values.extend(self.per_thread_bbv[thread].normalized());
                }
                SignatureKind::LdvOnly => {
                    values.extend(self.per_thread_ldv[thread].normalized(config.weighting));
                }
                SignatureKind::Combined => {
                    values.extend(self.per_thread_bbv[thread].normalized());
                    values.extend(self.per_thread_ldv[thread].normalized(config.weighting));
                }
            }
        }
        SignatureVector::new(values, self.total_instructions())
    }
}

// Hand-written decoding: a region must carry one BBV, one LDV and one
// instruction count per thread, as `RegionSignature::new` asserts, so an
// entry that does not is a decode error rather than a later out-of-bounds
// panic in `assemble`.
impl Deserialize for RegionSignature {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let bbvs = Vec::<Bbv>::deserialize(de)?;
        let ldvs = Vec::<Ldv>::deserialize(de)?;
        let instructions = Vec::<u64>::deserialize(de)?;
        if bbvs.len() != ldvs.len() || ldvs.len() != instructions.len() {
            return Err(serde::Error::custom(format!(
                "region signature with {} BBVs, {} LDVs and {} instruction counts",
                bbvs.len(),
                ldvs.len(),
                instructions.len()
            )));
        }
        Ok(Self::new(bbvs, ldvs, instructions))
    }
}

/// Streaming whole-application profiler: walks inter-barrier regions in
/// program order while keeping per-thread LRU stack distance state *across*
/// regions, the way the paper's Pintool does.
///
/// The continuous tracking is what gives the first dynamic instance of a
/// phase a distinct data signature (many infinite/huge reuse distances) even
/// though its basic-block vector is identical to later instances — the
/// cold-start separation discussed in Section III-A2.
#[derive(Debug)]
pub struct ApplicationProfiler {
    trackers: Vec<StackDistanceTracker>,
    num_blocks: usize,
}

impl ApplicationProfiler {
    /// Creates a profiler for `workload` (one reuse-distance tracker per
    /// thread).
    pub fn new<W: Workload + ?Sized>(workload: &W) -> Self {
        Self {
            trackers: (0..workload.num_threads()).map(|_| StackDistanceTracker::new()).collect(),
            num_blocks: workload.block_table().len(),
        }
    }

    /// Profiles the next region (regions must be fed in program order for the
    /// reuse distances to be meaningful).  A fresh profiler's first call
    /// profiles the region in isolation, with region-local reuse
    /// distances.
    ///
    /// # Panics
    ///
    /// Panics if `workload` has a different thread count than the profiler
    /// was created for.
    pub fn profile_region<W: Workload + ?Sized>(
        &mut self,
        workload: &W,
        region: usize,
    ) -> RegionSignature {
        assert_eq!(workload.num_threads(), self.trackers.len(), "thread count changed");
        let threads = self.trackers.len();
        let mut bbvs = Vec::with_capacity(threads);
        let mut ldvs = Vec::with_capacity(threads);
        let mut instructions = Vec::with_capacity(threads);
        for (thread, tracker) in self.trackers.iter_mut().enumerate() {
            let (bbv, ldv, instr) =
                profile_region_thread(workload, region, thread, tracker, self.num_blocks);
            bbvs.push(bbv);
            ldvs.push(ldv);
            instructions.push(instr);
        }
        RegionSignature::new(bbvs, ldvs, instructions)
    }

    /// Profiles every region of `workload` in program order.
    pub fn profile_all<W: Workload + ?Sized>(&mut self, workload: &W) -> Vec<RegionSignature> {
        (0..workload.num_regions()).map(|region| self.profile_region(workload, region)).collect()
    }
}

/// Records one block execution into a region's in-progress signature
/// components — the innermost operation of the region-major
/// [`profile_region_thread`] walk.  The thread-major streaming path builds
/// the same components with a [`crate::ProfileAccumulator`] fed by a
/// recency engine, and the equivalence suites pin the two together.
pub(crate) fn record_execution(
    bbv: &mut Bbv,
    ldv: &mut Ldv,
    instructions: &mut u64,
    tracker: &mut StackDistanceTracker,
    exec: &bp_workload::BlockExecution,
) {
    bbv.record(exec.block, exec.instructions);
    *instructions += u64::from(exec.instructions);
    for access in &exec.accesses {
        let distance = tracker.record(access.line());
        ldv.record(distance);
    }
}

/// The region-major inner profiling loop used by [`ApplicationProfiler`]:
/// walks one `(region, thread)` trace, updating `tracker` and returning the
/// trace's BBV, LDV and instruction count.
pub(crate) fn profile_region_thread<W: Workload + ?Sized>(
    workload: &W,
    region: usize,
    thread: usize,
    tracker: &mut StackDistanceTracker,
    num_blocks: usize,
) -> (Bbv, Ldv, u64) {
    let mut bbv = Bbv::new(num_blocks);
    let mut ldv = Ldv::new();
    let mut instr: u64 = 0;
    for exec in workload.region_trace(region, thread) {
        record_execution(&mut bbv, &mut ldv, &mut instr, tracker, &exec);
    }
    (bbv, ldv, instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workload::{Benchmark, WorkloadConfig};

    fn workload() -> impl Workload {
        Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.05))
    }

    #[test]
    fn signature_collection_is_deterministic() {
        let w = workload();
        let a = ApplicationProfiler::new(&w).profile_region(&w, 1);
        let b = ApplicationProfiler::new(&w).profile_region(&w, 1);
        assert_eq!(a, b);
        assert_eq!(a.num_threads(), 4);
        assert!(a.total_instructions() > 0);
    }

    #[test]
    fn same_phase_regions_have_similar_vectors() {
        let w = workload();
        // Regions 1 and 4 both run the matvec phase; region 2 runs reduce.
        let config = SignatureConfig::combined();
        let matvec_a =
            ApplicationProfiler::new(&w).profile_region(&w, 1).assemble(&config).normalized();
        let matvec_b =
            ApplicationProfiler::new(&w).profile_region(&w, 4).assemble(&config).normalized();
        let reduce =
            ApplicationProfiler::new(&w).profile_region(&w, 2).assemble(&config).normalized();
        let same = matvec_a.euclidean_distance(&matvec_b);
        let different = matvec_a.euclidean_distance(&reduce);
        assert!(
            same < different,
            "same-phase distance {same} should be below cross-phase distance {different}"
        );
    }

    #[test]
    fn continuous_profiling_separates_cold_start_regions() {
        // With application-wide reuse-distance tracking, the first instance of
        // the matvec phase (region 1, touching its data for the first time)
        // must look different from steady-state instances (regions 4 and 7),
        // while the steady-state instances look like each other.
        let w = workload();
        let signatures = ApplicationProfiler::new(&w).profile_all(&w);
        let config = SignatureConfig::combined();
        let first = signatures[1].assemble(&config).normalized();
        let second = signatures[4].assemble(&config).normalized();
        let third = signatures[7].assemble(&config).normalized();
        let steady = second.euclidean_distance(&third);
        let cold = first.euclidean_distance(&second);
        assert!(
            cold > steady,
            "cold-start distance {cold} should exceed steady-state distance {steady}"
        );
        // Cold accesses only appear in the first touches.
        assert!(signatures[1].ldvs()[0].cold_accesses() > signatures[7].ldvs()[0].cold_accesses());
    }

    #[test]
    fn profiler_counts_match_per_region_collection() {
        let w = workload();
        let continuous = ApplicationProfiler::new(&w).profile_all(&w);
        assert_eq!(continuous.len(), 46);
        for (region, signature) in continuous.iter().enumerate().take(5) {
            // Instruction counts and BBVs do not depend on the reuse-distance
            // tracking mode; only the LDVs differ.
            let isolated = ApplicationProfiler::new(&w).profile_region(&w, region);
            assert_eq!(signature.total_instructions(), isolated.total_instructions());
            assert_eq!(signature.bbvs(), isolated.bbvs());
        }
    }

    #[test]
    fn assembled_dimensions_are_consistent() {
        let w = workload();
        let sig = ApplicationProfiler::new(&w).profile_region(&w, 0);
        let bbv_dim = sig.assemble(&SignatureConfig::bbv_only()).dimension();
        let ldv_dim = sig.assemble(&SignatureConfig::ldv_only()).dimension();
        let combined = sig.assemble(&SignatureConfig::combined()).dimension();
        assert_eq!(combined, bbv_dim + ldv_dim);
        // One BBV block-table slice and one LDV histogram per thread.
        assert_eq!(bbv_dim, w.block_table().len() * 4);
    }

    #[test]
    fn instruction_counts_match_trace() {
        let w = workload();
        let sig = ApplicationProfiler::new(&w).profile_region(&w, 3);
        let direct: u64 = (0..4)
            .map(|t| w.region_trace(3, t).map(|e| u64::from(e.instructions)).sum::<u64>())
            .sum();
        assert_eq!(sig.total_instructions(), direct);
    }

    #[test]
    #[should_panic]
    fn mismatched_component_lengths_rejected() {
        let _ = RegionSignature::new(vec![Bbv::new(1)], vec![], vec![0]);
    }
}
