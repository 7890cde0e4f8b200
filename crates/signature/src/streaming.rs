//! Thread-major streaming profiling.
//!
//! The region-major [`ApplicationProfiler`](crate::ApplicationProfiler) walks
//! region 0 for all threads, then region 1, and so on — mirroring how the
//! paper's Pintool observes execution.  But the per-thread state it carries
//! (one [`StackDistanceTracker`](crate::StackDistanceTracker) per thread) is
//! completely independent across threads: thread `t`'s BBVs, LDVs and
//! instruction counts depend only on thread `t`'s traces, in region order.
//! Profiling can therefore be restructured *thread-major* — walk each
//! thread's entire trace (all regions, in program order) as one streaming
//! pass — and the passes can run on separate OS threads.  Zipping the
//! per-thread streams back together region by region reproduces the
//! region-major result bit for bit.
//!
//! The streaming path splits a thread's profiling into its carried state and
//! its outputs.  The carried state is the thread's LRU stack, kept by
//! `bp-workload`'s [`RecencyEngine`](bp_workload::RecencyEngine); the
//! outputs are built by a [`ProfileAccumulator`] from each block and each
//! access's stack distance.  bp-core's trace walk runs one engine per
//! thread — windowed when it also collects MRU warmup, and then feeding
//! `bp-warmup`'s MRU interval recorder from the same engine, so each
//! access's stack position is found once.  The region-major profiler keeps
//! its own [`StackDistanceTracker`](crate::StackDistanceTracker): it is the
//! oracle the engine is tested against.
//!
//! This matters because profiling is the one pipeline stage BarrierPoint
//! cannot sample away: the paper's Pin-based profiler runs the full
//! application at a 20–30x slowdown (Section III).  Thread-parallel profiling
//! divides the reproduction's equivalent wall-clock cost by up to the
//! workload's thread count.

use crate::bbv::Bbv;
use crate::collector::RegionSignature;
use crate::ldv::Ldv;
use bp_workload::{BlockExecution, Workload};

/// The complete profile of one thread: per-region BBVs, LDVs and instruction
/// counts, collected in a single streaming pass with continuous
/// reuse-distance tracking across regions.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProfile {
    thread: usize,
    bbvs: Vec<Bbv>,
    ldvs: Vec<Ldv>,
    instructions: Vec<u64>,
}

impl ThreadProfile {
    /// The profiled thread id.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Number of regions profiled.
    pub fn num_regions(&self) -> usize {
        self.bbvs.len()
    }

    /// Total instructions this thread retired over all regions.
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }

    fn into_components(self) -> (Vec<Bbv>, Vec<Ldv>, Vec<u64>) {
        (self.bbvs, self.ldvs, self.instructions)
    }
}

/// One thread's per-region profile outputs — BBVs, LDVs and instruction
/// counts — built from the block executions and the stack distances a
/// [`RecencyEngine`](bp_workload::RecencyEngine) reports for them.
///
/// The accumulator carries nothing across a region boundary: the only
/// cross-region state of profiling is the engine's LRU stack (its profile
/// image, when a walk is checkpointed).  That lets one engine serve it and
/// `bp-warmup`'s MRU interval recorder in a fused walk (bp-core's trace
/// walk), and makes the partial profiles of a segmented walk prefix-free
/// ([`concat_thread_profiles`]).
#[derive(Debug)]
pub struct ProfileAccumulator {
    thread: usize,
    num_blocks: usize,
    bbvs: Vec<Bbv>,
    ldvs: Vec<Ldv>,
    instructions: Vec<u64>,
    current_bbv: Bbv,
    current_ldv: Ldv,
    current_instructions: u64,
}

impl ProfileAccumulator {
    /// Creates the accumulator for `thread` of `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `thread >= workload.num_threads()`.
    pub fn new<W: Workload + ?Sized>(workload: &W, thread: usize) -> Self {
        assert!(thread < workload.num_threads(), "thread {thread} out of range");
        let num_blocks = workload.block_table().len();
        let num_regions = workload.num_regions();
        Self {
            thread,
            num_blocks,
            bbvs: Vec::with_capacity(num_regions),
            ldvs: Vec::with_capacity(num_regions),
            instructions: Vec::with_capacity(num_regions),
            current_bbv: Bbv::new(num_blocks),
            current_ldv: Ldv::new(),
            current_instructions: 0,
        }
    }

    /// Starts a region's outputs.
    pub fn enter_region(&mut self) {
        self.current_bbv = Bbv::new(self.num_blocks);
        self.current_ldv = Ldv::new();
        self.current_instructions = 0;
    }

    /// Counts one block execution's block and instructions (its accesses'
    /// distances arrive through [`distance`](Self::distance)).
    pub fn block(&mut self, exec: &BlockExecution) {
        self.current_bbv.record(exec.block, exec.instructions);
        self.current_instructions += u64::from(exec.instructions);
    }

    /// Records one access's stack distance (`None` for a first access).
    pub fn distance(&mut self, distance: Option<u64>) {
        self.current_ldv.record(distance);
    }

    /// Closes the region's outputs.
    pub fn finish_region(&mut self) {
        self.bbvs.push(std::mem::replace(&mut self.current_bbv, Bbv::new(0)));
        self.ldvs.push(std::mem::take(&mut self.current_ldv));
        self.instructions.push(self.current_instructions);
    }

    /// The completed per-thread profile (one entry per finished region).
    pub fn into_profile(self) -> ThreadProfile {
        ThreadProfile {
            thread: self.thread,
            bbvs: self.bbvs,
            ldvs: self.ldvs,
            instructions: self.instructions,
        }
    }
}

/// Stitches the partial [`ThreadProfile`]s of consecutive trace segments
/// (walked over adjacent region ranges) into the single profile a
/// sequential walk would have produced.
///
/// Per-region outputs are prefix-free — each region's BBV/LDV/instruction
/// count is fully emitted by whichever segment walked that region — so
/// stitching is plain concatenation in segment order.  The continuity of the
/// *cross-region* state (reuse distances) is the recency engine's
/// checkpoint contract ([`bp_workload::RecencyEngine::restore`]), not this
/// function's concern.
///
/// # Panics
///
/// Panics if `segments` is empty or the segments disagree on the thread id.
pub fn concat_thread_profiles(segments: Vec<ThreadProfile>) -> ThreadProfile {
    let stitched = segments.into_iter().reduce(|mut whole, part| {
        assert_eq!(part.thread, whole.thread, "segment profiles must share one thread");
        whole.bbvs.extend(part.bbvs);
        whole.ldvs.extend(part.ldvs);
        whole.instructions.extend(part.instructions);
        whole
    });
    stitched.unwrap_or_else(|| panic!("at least one segment profile required"))
}

/// Zips per-thread streaming profiles back into one [`RegionSignature`] per
/// region (the region-major shape the rest of the pipeline consumes).
///
/// # Panics
///
/// Panics if the profiles disagree on region count or are not given in
/// thread order starting at 0.
pub fn zip_thread_profiles(profiles: Vec<ThreadProfile>) -> Vec<RegionSignature> {
    assert!(!profiles.is_empty(), "at least one thread profile required");
    let num_regions = profiles[0].num_regions();
    for (expected, profile) in profiles.iter().enumerate() {
        assert_eq!(profile.thread(), expected, "thread profiles must be in thread order");
        assert_eq!(profile.num_regions(), num_regions, "region count mismatch across threads");
    }
    let mut per_thread: Vec<_> = profiles
        .into_iter()
        .map(|p| {
            let (bbvs, ldvs, instructions) = p.into_components();
            (bbvs.into_iter(), ldvs.into_iter(), instructions.into_iter())
        })
        .collect();
    (0..num_regions)
        .map(|_| {
            let mut bbvs = Vec::with_capacity(per_thread.len());
            let mut ldvs = Vec::with_capacity(per_thread.len());
            let mut instructions = Vec::with_capacity(per_thread.len());
            for (bbv_iter, ldv_iter, instr_iter) in per_thread.iter_mut() {
                let (Some(bbv), Some(ldv), Some(instr)) =
                    (bbv_iter.next(), ldv_iter.next(), instr_iter.next())
                else {
                    // Every per-thread iterator was verified to yield
                    // exactly `num_regions` items.
                    unreachable!("per-thread signature stream ended early")
                };
                bbvs.push(bbv);
                ldvs.push(ldv);
                instructions.push(instr);
            }
            RegionSignature::new(bbvs, ldvs, instructions)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::ApplicationProfiler;
    use crate::stack_distance::StackDistanceTracker;
    use bp_workload::{Benchmark, RecencyEngine, WorkloadConfig};
    use proptest::prelude::*;

    /// The tracker's checkpoint in the profile image's byte layout.
    fn tracker_image(tracker: &StackDistanceTracker) -> Vec<u8> {
        let (time, total, entries) = tracker.checkpoint();
        let mut out = serde::Serializer::new();
        out.write_u64(time);
        out.write_u64(total);
        out.write_len(entries.len());
        for (timestamp, line) in entries {
            out.write_u64(timestamp);
            out.write_u64(line);
        }
        out.into_bytes()
    }

    /// Feeds `lines` to a tracker and to engines with and without a window,
    /// checking every distance and, every `probe` accesses and at the end,
    /// the profile images against the tracker's checkpoint.
    fn check_images(lines: impl Iterator<Item = u64>, capacity: u64, probe: usize) {
        let mut tracker = StackDistanceTracker::new();
        let mut plain = RecencyEngine::new();
        let mut windowed = RecencyEngine::with_window(capacity);
        for (index, line) in lines.enumerate() {
            let expected = tracker.record(line);
            assert_eq!(plain.touch(line, false).distance, expected, "access {index}");
            assert_eq!(windowed.touch(line, index % 3 == 0).distance, expected, "access {index}");
            if index % probe == 0 {
                assert_eq!(plain.profile_image(), tracker_image(&tracker), "access {index}");
            }
        }
        assert_eq!(plain.profile_image(), tracker_image(&tracker));
        assert_eq!(windowed.profile_image(), tracker_image(&tracker));
    }

    #[test]
    fn engine_profile_image_matches_the_tracker_across_compaction() {
        // More than 2^20 accesses over 300 lines: the tracker renumbers its
        // timestamps, and so must the engine, to the same bytes.
        check_images((0..1_100_000u64).map(|i| (i * 7919 + i / 13) % 300), 64, 250_000);
    }

    proptest! {
        #[test]
        fn engine_profile_image_matches_the_tracker_checkpoint(
            lines in proptest::collection::vec(0u64..80, 1..400),
            capacity in 1u64..40,
        ) {
            check_images(lines.into_iter(), capacity, 37);
        }
    }

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
            profile.enter_region();
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

    #[test]
    fn thread_major_matches_region_major_bit_for_bit() {
        let w = workload();
        let region_major = ApplicationProfiler::new(&w).profile_all(&w);
        let serial = zip_thread_profiles((0..4).map(|t| profile_thread(&w, t)).collect());
        // One OS thread per workload thread: the walks share no state.
        let parallel = zip_thread_profiles(std::thread::scope(|scope| {
            let w = &w;
            let walks: Vec<_> = (0..4).map(|t| scope.spawn(move || profile_thread(w, t))).collect();
            walks.into_iter().map(|walk| walk.join().unwrap()).collect()
        }));
        assert_eq!(region_major, serial);
        assert_eq!(region_major, parallel);
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
