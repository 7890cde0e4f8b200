//! Thread-major streaming profiling.
//!
//! The region-major [`ApplicationProfiler`](crate::ApplicationProfiler) walks
//! region 0 for all threads, then region 1, and so on — mirroring how the
//! paper's Pintool observes execution.  But the per-thread state it carries
//! (one [`StackDistanceTracker`] per thread) is completely independent across
//! threads: thread `t`'s BBVs, LDVs and instruction counts depend only on
//! thread `t`'s traces, in region order.  Profiling can therefore be
//! restructured *thread-major* — walk each thread's entire trace (all
//! regions, in program order) as one streaming pass — and the passes can run
//! on separate OS threads.  Zipping the per-thread streams back together
//! region by region reproduces the region-major result bit for bit.
//!
//! This matters because profiling is the one pipeline stage BarrierPoint
//! cannot sample away: the paper's Pin-based profiler runs the full
//! application at a 20–30x slowdown (Section III).  Thread-parallel profiling
//! divides the reproduction's equivalent wall-clock cost by up to the
//! workload's thread count.

use crate::bbv::Bbv;
use crate::collector::RegionSignature;
use crate::ldv::Ldv;
use crate::stack_distance::StackDistanceTracker;
use bp_workload::{BlockExecution, CheckpointError, CheckpointObserver, TraceObserver, Workload};

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

/// [`TraceObserver`] that computes one thread's streaming profile — per-region
/// BBVs, LDVs and instruction counts with continuous reuse-distance tracking —
/// from a single walk of the thread's trace.
///
/// This is the profiling consumer of the trace-observer engine
/// ([`bp_workload::drive`]): attached alone it reproduces the historical
/// dedicated profiling pass bit for bit; attached next to other observers
/// (e.g. `bp-warmup`'s MRU collector) it shares their one trace generation.
#[derive(Debug)]
pub struct ThreadProfileObserver {
    thread: usize,
    num_blocks: usize,
    tracker: StackDistanceTracker,
    bbvs: Vec<Bbv>,
    ldvs: Vec<Ldv>,
    instructions: Vec<u64>,
    current_bbv: Bbv,
    current_ldv: Ldv,
    current_instructions: u64,
}

impl ThreadProfileObserver {
    /// Creates the profiling observer for `thread` of `workload`.
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
            tracker: StackDistanceTracker::new(),
            bbvs: Vec::with_capacity(num_regions),
            ldvs: Vec::with_capacity(num_regions),
            instructions: Vec::with_capacity(num_regions),
            current_bbv: Bbv::new(num_blocks),
            current_ldv: Ldv::new(),
            current_instructions: 0,
        }
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

impl CheckpointObserver for ThreadProfileObserver {
    /// The only state a profiling walk carries *across* a region boundary
    /// is the reuse-distance tracker: BBVs, LDVs and instruction counts are
    /// strictly per-region (reset at `enter_region`), so the partial
    /// profiles of stitched segments are prefix-free and simply
    /// concatenate ([`concat_thread_profiles`]).
    fn snapshot_at(&self, _region: usize) -> Vec<u8> {
        let (time, total, entries) = self.tracker.checkpoint();
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

    fn restore(&mut self, _region: usize, bytes: &[u8]) -> Result<(), CheckpointError> {
        let corrupt = |e: serde::Error| CheckpointError::new(format!("profiler state: {e}"));
        let mut de = serde::Deserializer::new(bytes);
        let time = de.read_u64().map_err(corrupt)?;
        let total = de.read_u64().map_err(corrupt)?;
        let len = de.read_len().map_err(corrupt)?;
        let mut entries = Vec::with_capacity(len.min(bytes.len() / 16 + 1));
        for _ in 0..len {
            let timestamp = de.read_u64().map_err(corrupt)?;
            let line = de.read_u64().map_err(corrupt)?;
            entries.push((timestamp, line));
        }
        if de.remaining() != 0 {
            return Err(CheckpointError::new("profiler state: trailing bytes"));
        }
        self.tracker = StackDistanceTracker::from_checkpoint(time, total, &entries);
        Ok(())
    }
}

impl TraceObserver for ThreadProfileObserver {
    fn enter_region(&mut self, _region: usize) {
        self.current_bbv = Bbv::new(self.num_blocks);
        self.current_ldv = Ldv::new();
        self.current_instructions = 0;
    }

    fn observe(&mut self, _thread: usize, exec: &BlockExecution) {
        crate::collector::record_execution(
            &mut self.current_bbv,
            &mut self.current_ldv,
            &mut self.current_instructions,
            &mut self.tracker,
            exec,
        );
    }

    fn finish_region(&mut self, _region: usize) {
        self.bbvs.push(std::mem::replace(&mut self.current_bbv, Bbv::new(0)));
        self.ldvs.push(std::mem::take(&mut self.current_ldv));
        self.instructions.push(self.current_instructions);
    }
}

/// Stitches the partial [`ThreadProfile`]s of consecutive trace segments
/// (produced by [`bp_workload::drive_segment`] over adjacent region ranges)
/// into the single profile a sequential walk would have produced.
///
/// Per-region outputs are prefix-free — each region's BBV/LDV/instruction
/// count is fully emitted by whichever segment walked that region — so
/// stitching is plain concatenation in segment order.  The continuity of the
/// *cross-region* state (reuse distances) is the checkpoint contract of
/// [`ThreadProfileObserver`]'s [`CheckpointObserver`] impl, not this
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
    use bp_workload::{Benchmark, WorkloadConfig};

    fn workload() -> impl Workload {
        Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.05))
    }

    /// One thread's whole trace through a lone profiling observer.
    fn profile_thread<W: Workload + ?Sized>(w: &W, thread: usize) -> ThreadProfile {
        let mut observer = ThreadProfileObserver::new(w, thread);
        bp_workload::drive(w, thread, &mut [&mut observer]);
        observer.into_profile()
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
        let mut snapshot: Option<(usize, Vec<u8>)> = None;
        let mut parts = Vec::new();
        for pair in bounds.windows(2) {
            let (from, until) = (pair[0], pair[1]);
            let mut observer = ThreadProfileObserver::new(w, thread);
            if let Some((region, bytes)) = snapshot.take() {
                observer.restore(region, &bytes).expect("restore own snapshot");
            }
            bp_workload::drive_segment(w, thread, from, until, &mut [&mut observer]);
            snapshot = Some((until, observer.snapshot_at(until)));
            parts.push(observer.into_profile());
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
        let mut a = ThreadProfileObserver::new(&w, 0);
        let mut b = ThreadProfileObserver::new(&w, 0);
        bp_workload::drive(&w, 0, &mut [&mut a]);
        bp_workload::drive(&w, 0, &mut [&mut b]);
        let region = w.num_regions();
        assert_eq!(a.snapshot_at(region), b.snapshot_at(region));
    }

    #[test]
    fn restore_rejects_truncated_and_trailing_bytes() {
        let w = workload();
        let mut source = ThreadProfileObserver::new(&w, 0);
        bp_workload::drive_segment(&w, 0, 0, 2, &mut [&mut source]);
        let bytes = source.snapshot_at(2);

        let mut truncated = ThreadProfileObserver::new(&w, 0);
        assert!(truncated.restore(2, &bytes[..bytes.len() - 1]).is_err());

        let mut extended = bytes.clone();
        extended.push(0);
        let mut trailing = ThreadProfileObserver::new(&w, 0);
        assert!(trailing.restore(2, &extended).is_err());

        let mut ok = ThreadProfileObserver::new(&w, 0);
        assert!(ok.restore(2, &bytes).is_ok());
    }

    #[test]
    #[should_panic]
    fn concat_rejects_mixed_threads() {
        let w = workload();
        let _ = concat_thread_profiles(vec![profile_thread(&w, 0), profile_thread(&w, 1)]);
    }
}
