//! Thread-major streaming profiling.
//!
//! The paper's Pintool observes execution region by region: region 0 for
//! all threads, then region 1, and so on.  But the state a thread's
//! profiling carries across regions — its LRU stack — is independent of the
//! other threads: thread `t`'s BBVs, LDVs and instruction counts depend only
//! on thread `t`'s traces, in region order.  Profiling can therefore be
//! restructured *thread-major* — walk each thread's entire trace (all
//! regions, in program order) as one streaming pass — and the passes can
//! run on separate OS threads.  Zipping the per-thread streams back
//! together region by region gives the region-by-region result bit for bit.
//!
//! The streaming path splits a thread's profiling into its carried state and
//! its outputs.  The carried state is the thread's LRU stack, kept by
//! `bp-workload`'s [`RecencyEngine`](bp_workload::RecencyEngine); the
//! outputs are built by a [`ProfileAccumulator`] from each block and each
//! access's stack distance.  bp-core's trace walk runs one engine per
//! thread — windowed when it also collects MRU warmup, and then feeding
//! `bp-warmup`'s MRU interval recorder from the same engine, so each
//! access's stack position is found once.  The workspace's integration
//! tests check the walks against a naive region-by-region reference that
//! keeps each thread's stack as a plain list.
//!
//! **The outputs are interned.**  Iterative kernels repeat the same region
//! thousands of times (npb-sp at the repository benchmark's shape: 3,601
//! regions, 18 distinct signatures), so no output is kept per region.  The
//! accumulator counts a region into buffers it reuses, and at the region's
//! end looks its `(BBV, LDV, instructions)` up in the thread's table by a
//! folded hash plus an exact comparison: a repeat costs one `u32` region
//! index entry, and only a new output is copied into the table.  A
//! [`ThreadProfile`] is that table, in order of first occurrence, plus the
//! per-region index.  [`zip_thread_profiles`] interns each region's tuple
//! of per-thread ids the same way and builds one [`RegionSignature`] per
//! distinct tuple, so the application profile is a [`PerRegion`] table of
//! distinct signatures plus the region index.  [`concat_thread_profiles`]
//! re-interns each later segment's table in order, so a segmented walk
//! yields the sequential walk's tables entry for entry.  Interning is exact
//! equality: every region reads back bit for bit.
//!
//! This matters because profiling is the one pipeline stage BarrierPoint
//! cannot sample away: the paper's Pin-based profiler runs the full
//! application at a 20–30x slowdown (Section III).  Thread-parallel profiling
//! divides the reproduction's equivalent wall-clock cost by up to the
//! workload's thread count.

use crate::bbv::Bbv;
use crate::collector::RegionSignature;
use crate::ldv::Ldv;
use crate::per_region::{fold, Interner, PerRegion};
use bp_workload::{BlockExecution, Workload};

/// One thread's outputs for one region.
#[derive(Debug, Clone, PartialEq)]
struct ThreadRegion {
    bbv: Bbv,
    ldv: Ldv,
    instructions: u64,
}

impl ThreadRegion {
    /// The interning hash of a region's outputs.
    fn hash_of(bbv: &Bbv, ldv: &Ldv, instructions: u64) -> u64 {
        fold(&[bbv.counts(), ldv.buckets(), &[ldv.cold_accesses(), instructions]])
    }

    fn hash(&self) -> u64 {
        Self::hash_of(&self.bbv, &self.ldv, self.instructions)
    }
}

/// The complete profile of one thread, collected in a single streaming pass
/// with continuous reuse-distance tracking across regions: the distinct
/// per-region outputs (BBV, LDV and instruction count) in order of first
/// occurrence, plus each region's position among them.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProfile {
    thread: usize,
    regions: PerRegion<ThreadRegion>,
}

impl ThreadProfile {
    /// The profiled thread id.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Number of regions profiled.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total instructions this thread retired over all regions.
    pub fn total_instructions(&self) -> u64 {
        self.regions.iter().map(|r| r.instructions).sum()
    }
}

/// One thread's per-region profile outputs — BBVs, LDVs and instruction
/// counts — built from the block executions and the stack distances a
/// [`RecencyEngine`](bp_workload::RecencyEngine) reports for them.
///
/// A region accumulates into buffers the accumulator reuses;
/// [`finish_region`](Self::finish_region) interns the region's outputs in
/// the thread's table (a folded hash plus an exact comparison), so only a
/// region whose outputs are new is copied.  The accumulator carries nothing
/// else across a region boundary: the only cross-region state of profiling
/// is the engine's LRU stack (its profile image, when a walk is
/// checkpointed).  That lets one engine serve it and `bp-warmup`'s MRU
/// interval recorder in a fused walk (bp-core's trace walk), and makes the
/// partial profiles of a segmented walk prefix-free
/// ([`concat_thread_profiles`]).
#[derive(Debug)]
pub struct ProfileAccumulator {
    thread: usize,
    regions: Interner<ThreadRegion>,
    bbv: Bbv,
    ldv: Ldv,
    instructions: u64,
}

impl ProfileAccumulator {
    /// Creates the accumulator for `thread` of `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `thread >= workload.num_threads()`.
    pub fn new<W: Workload + ?Sized>(workload: &W, thread: usize) -> Self {
        assert!(thread < workload.num_threads(), "thread {thread} out of range");
        Self {
            thread,
            regions: Interner::new(),
            bbv: Bbv::new(workload.block_table().len()),
            ldv: Ldv::new(),
            instructions: 0,
        }
    }

    /// Counts one block execution's block and instructions (its accesses'
    /// distances arrive through [`distance`](Self::distance)).
    pub fn block(&mut self, exec: &BlockExecution) {
        self.bbv.record(exec.block, exec.instructions);
        self.instructions += u64::from(exec.instructions);
    }

    /// Records one access's stack distance (`None` for a first access).
    pub fn distance(&mut self, distance: Option<u64>) {
        self.ldv.record(distance);
    }

    /// Closes the region: interns its outputs and starts the next region's.
    pub fn finish_region(&mut self) {
        let Self { regions, bbv, ldv, instructions, .. } = self;
        let id = regions.intern(
            ThreadRegion::hash_of(bbv, ldv, *instructions),
            |r| r.instructions == *instructions && r.bbv == *bbv && r.ldv == *ldv,
            || ThreadRegion { bbv: bbv.clone(), ldv: ldv.clone(), instructions: *instructions },
        );
        regions.push(id);
        bbv.clear();
        ldv.clear();
        *instructions = 0;
    }

    /// The completed per-thread profile (one entry per finished region).
    pub fn into_profile(self) -> ThreadProfile {
        ThreadProfile { thread: self.thread, regions: self.regions.finish() }
    }
}

/// Stitches the partial [`ThreadProfile`]s of consecutive trace segments
/// (walked over adjacent region ranges) into the single profile a
/// sequential walk would have produced.
///
/// Per-region outputs are prefix-free — each region's BBV/LDV/instruction
/// count is fully emitted by whichever segment walked that region — so
/// stitching re-interns each later segment's distinct outputs, in order,
/// into the first segment's table and appends its regions.  A value new to
/// the whole first occurs in the segment that adds it, so the stitched table
/// is the sequential walk's, entry for entry.  The continuity of the
/// *cross-region* state (reuse distances) is the recency engine's
/// checkpoint contract ([`bp_workload::RecencyEngine::restore`]), not this
/// function's concern.
///
/// # Panics
///
/// Panics if `segments` is empty or the segments disagree on the thread id.
pub fn concat_thread_profiles(segments: Vec<ThreadProfile>) -> ThreadProfile {
    let mut segments = segments.into_iter();
    let Some(first) = segments.next() else { panic!("at least one segment profile required") };
    let mut whole = Interner::resume(first.regions, ThreadRegion::hash);
    for part in segments {
        assert_eq!(part.thread, first.thread, "segment profiles must share one thread");
        let ids: Vec<u32> = part
            .regions
            .distinct()
            .iter()
            .map(|region| whole.intern(region.hash(), |r| r == region, || region.clone()))
            .collect();
        part.regions.index().iter().for_each(|&id| whole.push(ids[id as usize]));
    }
    ThreadProfile { thread: first.thread, regions: whole.finish() }
}

/// Zips per-thread streaming profiles back into the region-major shape the
/// rest of the pipeline consumes: one [`RegionSignature`] per distinct
/// tuple of per-thread outputs, in order of first occurrence, plus each
/// region's position among them.
///
/// # Panics
///
/// Panics if the profiles disagree on region count or are not given in
/// thread order starting at 0.
pub fn zip_thread_profiles(profiles: Vec<ThreadProfile>) -> PerRegion<RegionSignature> {
    assert!(!profiles.is_empty(), "at least one thread profile required");
    let num_regions = profiles[0].num_regions();
    for (expected, profile) in profiles.iter().enumerate() {
        assert_eq!(profile.thread(), expected, "thread profiles must be in thread order");
        assert_eq!(profile.num_regions(), num_regions, "region count mismatch across threads");
    }
    // Intern each region's tuple of per-thread ids, then build one
    // signature per distinct tuple.
    let mut tuples = Interner::new();
    let mut tuple = vec![0u64; profiles.len()];
    for region in 0..num_regions {
        for (id, profile) in tuple.iter_mut().zip(&profiles) {
            *id = u64::from(profile.regions.index()[region]);
        }
        let id = tuples.intern(fold(&[&tuple]), |t: &Vec<u64>| *t == tuple, || tuple.clone());
        tuples.push(id);
    }
    tuples.finish().map(|tuple| {
        let (mut bbvs, mut ldvs, mut instructions) = (Vec::new(), Vec::new(), Vec::new());
        for (&id, profile) in tuple.iter().zip(&profiles) {
            let region = &profile.regions.distinct()[id as usize];
            bbvs.push(region.bbv.clone());
            ldvs.push(region.ldv.clone());
            instructions.push(region.instructions);
        }
        RegionSignature::new(bbvs, ldvs, instructions)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignatureConfig;
    use bp_workload::{Benchmark, RecencyEngine, WorkloadConfig};

    fn workload() -> impl Workload {
        Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.05))
    }

    /// Walks regions `from..until` of `thread`'s trace into `engine` and
    /// `profile`, as bp-core's trace walk does for a profile-only walk.
    fn walk<W: Workload + ?Sized>(
        w: &W,
        thread: usize,
        engine: &mut RecencyEngine,
        profile: &mut ProfileAccumulator,
        regions: std::ops::Range<usize>,
    ) {
        for region in regions {
            for exec in w.region_trace(region, thread) {
                profile.block(&exec);
                for access in &exec.accesses {
                    profile.distance(engine.touch(access.line(), access.kind.is_write()).distance);
                }
            }
            profile.finish_region();
        }
    }

    /// One thread's whole trace through an accumulator and an engine of its
    /// own.
    fn profile_thread<W: Workload + ?Sized>(w: &W, thread: usize) -> ThreadProfile {
        let mut profile = ProfileAccumulator::new(w, thread);
        walk(w, thread, &mut RecencyEngine::new(), &mut profile, 0..w.num_regions());
        profile.into_profile()
    }

    /// The engine's profile image after walking regions `0..until` of
    /// `thread`.
    fn image_after<W: Workload + ?Sized>(w: &W, thread: usize, until: usize) -> Vec<u8> {
        let mut engine = RecencyEngine::new();
        walk(w, thread, &mut engine, &mut ProfileAccumulator::new(w, thread), 0..until);
        engine.profile_image()
    }

    /// The signatures of `regions`, each thread walked with an engine of
    /// its own that starts empty at the first of them.
    fn signatures<W: Workload + ?Sized>(
        w: &W,
        regions: std::ops::Range<usize>,
    ) -> PerRegion<RegionSignature> {
        let profiles = (0..w.num_threads()).map(|thread| {
            let mut profile = ProfileAccumulator::new(w, thread);
            walk(w, thread, &mut RecencyEngine::new(), &mut profile, regions.clone());
            profile.into_profile()
        });
        zip_thread_profiles(profiles.collect())
    }

    /// Region `region` profiled in isolation, with region-local reuse
    /// distances.
    fn isolated<W: Workload + ?Sized>(w: &W, region: usize) -> RegionSignature {
        signatures(w, region..region + 1).get(0).clone()
    }

    #[test]
    fn signature_collection_is_deterministic() {
        let w = workload();
        let a = isolated(&w, 1);
        let b = isolated(&w, 1);
        assert_eq!(a, b);
        assert_eq!(a.num_threads(), 4);
        assert!(a.total_instructions() > 0);
    }

    #[test]
    fn same_phase_regions_have_similar_vectors() {
        let w = workload();
        // Regions 1 and 4 both run the matvec phase; region 2 runs reduce.
        let config = SignatureConfig::combined();
        let matvec_a = isolated(&w, 1).assemble(&config).normalized();
        let matvec_b = isolated(&w, 4).assemble(&config).normalized();
        let reduce = isolated(&w, 2).assemble(&config).normalized();
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
        let signatures = signatures(&w, 0..w.num_regions());
        assert_eq!(signatures.len(), 46);
        let config = SignatureConfig::combined();
        let first = signatures.get(1).assemble(&config).normalized();
        let second = signatures.get(4).assemble(&config).normalized();
        let third = signatures.get(7).assemble(&config).normalized();
        let steady = second.euclidean_distance(&third);
        let cold = first.euclidean_distance(&second);
        assert!(
            cold > steady,
            "cold-start distance {cold} should exceed steady-state distance {steady}"
        );
        // Cold accesses only appear in the first touches.
        assert!(
            signatures.get(1).ldvs()[0].cold_accesses()
                > signatures.get(7).ldvs()[0].cold_accesses()
        );
    }

    #[test]
    fn assembled_dimensions_are_consistent() {
        let w = workload();
        let sig = isolated(&w, 0);
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
        let sig = isolated(&w, 3);
        let direct: u64 = (0..4)
            .map(|t| w.region_trace(3, t).map(|e| u64::from(e.instructions)).sum::<u64>())
            .sum();
        assert_eq!(sig.total_instructions(), direct);
    }

    #[test]
    fn thread_profile_totals_match_traces() {
        let w = workload();
        for thread in 0..4 {
            let profile = profile_thread(&w, thread);
            assert_eq!(profile.thread(), thread);
            assert_eq!(profile.num_regions(), w.num_regions());
            let direct: u64 = (0..w.num_regions())
                .map(|r| w.region_trace(r, thread).map(|e| u64::from(e.instructions)).sum::<u64>())
                .sum();
            assert_eq!(profile.total_instructions(), direct);
        }
    }

    #[test]
    fn zip_reassembles_thread_order() {
        let w = workload();
        let profiles: Vec<_> = (0..4).map(|t| profile_thread(&w, t)).collect();
        let zipped = zip_thread_profiles(profiles);
        assert_eq!(zipped.len(), w.num_regions());
        assert!(zipped.iter().all(|s| s.num_threads() == 4));
    }

    #[test]
    #[should_panic]
    fn zip_rejects_out_of_order_profiles() {
        let w = workload();
        let profiles = vec![profile_thread(&w, 1), profile_thread(&w, 0)];
        let _ = zip_thread_profiles(profiles);
    }

    #[test]
    #[should_panic]
    fn profile_thread_rejects_bad_thread() {
        let w = workload();
        let _ = profile_thread(&w, 9);
    }

    /// Walks `thread` as independent segments delimited by `cuts`, carrying
    /// state across cuts through checkpoint bytes only, exactly as the
    /// segment scheduler does with cached checkpoints.
    fn profile_thread_segmented<W: Workload + ?Sized>(
        w: &W,
        thread: usize,
        cuts: &[usize],
    ) -> ThreadProfile {
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(w.num_regions());
        let mut snapshot: Option<Vec<u8>> = None;
        let mut parts = Vec::new();
        for pair in bounds.windows(2) {
            let mut engine = RecencyEngine::new();
            if let Some(bytes) = snapshot.take() {
                engine.restore(Some(&bytes), None).expect("restore own snapshot");
            }
            let mut profile = ProfileAccumulator::new(w, thread);
            walk(w, thread, &mut engine, &mut profile, pair[0]..pair[1]);
            snapshot = Some(engine.profile_image());
            parts.push(profile.into_profile());
        }
        concat_thread_profiles(parts)
    }

    #[test]
    fn segmented_profiling_matches_sequential_bit_for_bit() {
        let w = workload();
        let regions = w.num_regions();
        let cut_sets: Vec<Vec<usize>> = vec![
            vec![],
            vec![1],
            vec![regions / 2],
            vec![regions - 1],
            vec![1, 2, regions / 3, regions / 2],
            (1..regions).collect(), // one segment per region
        ];
        for thread in 0..4 {
            let sequential = profile_thread(&w, thread);
            let distinct = sequential.regions.distinct().len();
            assert!(distinct < regions, "thread {thread}: {distinct} distinct of {regions}");
            for cuts in &cut_sets {
                let stitched = profile_thread_segmented(&w, thread, cuts);
                assert_eq!(stitched, sequential, "thread {thread} cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let w = workload();
        let region = w.num_regions();
        assert_eq!(image_after(&w, 0, region), image_after(&w, 0, region));
    }

    #[test]
    fn restore_rejects_truncated_and_trailing_bytes() {
        let w = workload();
        let bytes = image_after(&w, 0, 2);
        let restore = |bytes: &[u8]| RecencyEngine::new().restore(Some(bytes), None);
        assert!(restore(&bytes[..bytes.len() - 1]).is_err());

        let mut extended = bytes.clone();
        extended.push(0);
        assert!(restore(&extended).is_err());

        assert!(restore(&bytes).is_ok());
    }

    #[test]
    #[should_panic]
    fn concat_rejects_mixed_threads() {
        let w = workload();
        let _ = concat_thread_profiles(vec![profile_thread(&w, 0), profile_thread(&w, 1)]);
    }
}
