//! The trace-observer abstraction: one trace walk, many consumers.
//!
//! Every analysis BarrierPoint runs over a workload — signature profiling,
//! MRU warmup collection, and anything added later — is a per-thread
//! reduction over the same deterministic block-execution stream.  Before
//! this abstraction each consumer re-walked [`RegionTrace`] with its own
//! ad-hoc loop, so a cold pipeline *generated* every trace once per
//! consumer.  [`TraceObserver`] inverts that: consumers become observers,
//! and [`drive`] walks one thread's full trace exactly once, fanning each
//! block execution out to every attached observer.
//!
//! The walk is region-ordered (`enter_region`, the region's block
//! executions via `observe`, `finish_region`, for regions `0, 1, …`), which
//! is the program order a real profiler sees — reuse-distance trackers and
//! MRU recency state stay continuous across region boundaries.  An observer
//! that has seen everything it needs can return `false` from
//! [`TraceObserver::wants_more`]; once *every* observer is done, [`drive`]
//! stops without generating the remaining regions, so a bounded consumer
//! (e.g. warmup collection up to its last barrierpoint) pays exactly the
//! prefix it consumes.
//!
//! Because every barrier is a natural cut point of the fold, observers that
//! implement [`CheckpointObserver`] (serialize/restore their carried state
//! at a region boundary) can be driven over disjoint *segments* of one
//! thread's trace via [`drive_segment`] — the seam that lets a scheduler
//! split a single thread's walk into `segments` parallel jobs.
//!
//! [`RegionTrace`]: crate::RegionTrace

use crate::region::BlockExecution;
use crate::workload::Workload;

/// A consumer of one thread's block-execution stream.
///
/// Implementations hold whatever per-thread state their analysis needs
/// (a reuse-distance tracker, an MRU recency list, …) and receive the
/// stream in program order from [`drive`].  Because observers never see
/// scheduling — only the deterministic stream — any set of observers
/// driven together produces bit-identical results to each observer driven
/// alone.
pub trait TraceObserver {
    /// Called before the block executions of `region` (regions arrive in
    /// program order starting at 0).  A natural place to snapshot state
    /// "as of the barrier before `region`".
    fn enter_region(&mut self, region: usize) {
        let _ = region;
    }

    /// One block execution of the driven thread, in program order.
    fn observe(&mut self, thread: usize, exec: &BlockExecution);

    /// Called after the last block execution of `region`.
    fn finish_region(&mut self, region: usize) {
        let _ = region;
    }

    /// Whether this observer still needs to see block executions.  When
    /// every observer of a [`drive`] call returns `false`, the walk stops
    /// early (the current region's trace is not generated).  Defaults to
    /// `true` — observe the whole trace.
    fn wants_more(&self) -> bool {
        true
    }
}

/// A [`TraceObserver`] whose state is checkpointable at region boundaries.
///
/// A trace walk is a fold over the block-execution stream, and every
/// barrier is a natural cut point: an observer that can serialize its
/// resumable state *as of the barrier before region `r`* — and later
/// restore it into a freshly constructed instance — lets [`drive_segment`]
/// walk disjoint region ranges of one thread's trace on different workers,
/// bit-identically to one sequential [`drive`].  That is what turns a
/// few-thread many-region workload from `threads` jobs into
/// `threads × segments` jobs on a worker budget.
///
/// The contract:
///
/// * `snapshot_at(region)` is called after the observer finished region
///   `region - 1` (i.e. [`drive_segment`] ran up to `until_region ==
///   region`).  The returned bytes must capture everything a continuation
///   from region `region` needs — *not* the per-region outputs already
///   produced, only the carried state (reuse-distance trackers, recency
///   lists, …).
/// * `restore(region, bytes)` is called on a freshly constructed observer
///   and must leave it in exactly the state `snapshot_at(region)` captured,
///   so that driving it over regions `region..` continues the sequential
///   fold bit for bit.
/// * Checkpoint bytes must be deterministic: two walks over the same trace
///   snapshot identical bytes (sort any hash-ordered state).
pub trait CheckpointObserver: TraceObserver {
    /// Serializes the resumable state as of the barrier before `region`
    /// (all accesses of regions `0..region` applied).
    fn snapshot_at(&self, region: usize) -> Vec<u8>;

    /// Restores state previously captured by [`snapshot_at`] with the same
    /// `region`, preparing this (freshly constructed) observer to continue
    /// the walk from `region`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when the bytes are truncated, corrupt,
    /// or incompatible with this observer's configuration.
    ///
    /// [`snapshot_at`]: CheckpointObserver::snapshot_at
    fn restore(&mut self, region: usize, bytes: &[u8]) -> Result<(), CheckpointError>;
}

/// A checkpoint payload could not be restored (truncated, corrupt, or
/// incompatible with the observer it was handed to).
///
/// Restoration failures are recoverable by construction: the caller falls
/// back to walking the segment's prefix sequentially (or the whole trace),
/// which needs no checkpoint at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    message: String,
}

impl CheckpointError {
    /// Creates an error carrying a human-readable reason.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint restore failed: {}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

/// Walks `thread`'s entire trace of `workload` — all regions, in program
/// order — exactly once, feeding every block execution to each observer.
///
/// For each region the walker calls `enter_region` on every observer,
/// generates the region's [`RegionTrace`](crate::RegionTrace) (unless every
/// observer already reported `wants_more() == false`, in which case the
/// generation is skipped), feeds each execution to every observer's
/// `observe`, then calls `finish_region`.  `enter_region`/`finish_region`
/// stay paired for every region entered, including the final one of an
/// early stop.
///
/// # Panics
///
/// Panics if `thread >= workload.num_threads()`.
pub fn drive<W: Workload + ?Sized>(
    workload: &W,
    thread: usize,
    observers: &mut [&mut dyn TraceObserver],
) {
    drive_segment(workload, thread, 0, workload.num_regions(), observers);
}

/// Walks one *segment* of `thread`'s trace: regions `from_region` up to
/// (but excluding) `until_region`, clamped to the workload's region count,
/// with exactly [`drive`]'s per-region protocol — `drive(w, t, obs)` is
/// `drive_segment(w, t, 0, w.num_regions(), obs)`.
///
/// Observers entering mid-trace (`from_region > 0`) are expected to have
/// been [restored](CheckpointObserver::restore) from a checkpoint taken at
/// `from_region`; chaining `drive_segment` calls over consecutive ranges
/// with the *same* observers is bit-identical to one sequential [`drive`]
/// (the per-region protocol is identical, so the fold composes).
///
/// # Panics
///
/// Panics if `thread >= workload.num_threads()` or
/// `from_region > until_region`.
pub fn drive_segment<W: Workload + ?Sized>(
    workload: &W,
    thread: usize,
    from_region: usize,
    until_region: usize,
    observers: &mut [&mut dyn TraceObserver],
) {
    assert!(thread < workload.num_threads(), "thread {thread} out of range");
    assert!(
        from_region <= until_region,
        "segment start {from_region} past segment end {until_region}"
    );
    let mut exec = BlockExecution::default();
    for region in from_region..until_region.min(workload.num_regions()) {
        for observer in observers.iter_mut() {
            observer.enter_region(region);
        }
        let active = observers.iter().any(|observer| observer.wants_more());
        if active {
            let mut trace = workload.region_trace(region, thread);
            while trace.next_into(&mut exec) {
                for observer in observers.iter_mut() {
                    observer.observe(thread, &exec);
                }
            }
        }
        for observer in observers.iter_mut() {
            observer.finish_region(region);
        }
        if !active {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::suite::Benchmark;
    use crate::workload::WorkloadConfig;

    /// Records the full event stream for comparison against manual walks.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
        instructions: u64,
        stop_after_region: Option<usize>,
        finished: Vec<usize>,
    }

    impl TraceObserver for Recorder {
        fn enter_region(&mut self, region: usize) {
            self.events.push(format!("enter {region}"));
        }

        fn observe(&mut self, _thread: usize, exec: &BlockExecution) {
            self.instructions += u64::from(exec.instructions);
        }

        fn finish_region(&mut self, region: usize) {
            self.events.push(format!("finish {region}"));
            self.finished.push(region);
        }

        fn wants_more(&self) -> bool {
            match self.stop_after_region {
                Some(limit) => self.finished.last().is_none_or(|&r| r < limit),
                None => true,
            }
        }
    }

    fn workload() -> impl Workload {
        Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02))
    }

    #[test]
    fn drive_visits_every_region_in_order() {
        let w = workload();
        let mut recorder = Recorder::default();
        drive(&w, 0, &mut [&mut recorder]);
        let direct: u64 = (0..w.num_regions())
            .map(|r| w.region_trace(r, 0).map(|e| u64::from(e.instructions)).sum::<u64>())
            .sum();
        assert_eq!(recorder.instructions, direct);
        let expected: Vec<String> = (0..w.num_regions())
            .flat_map(|r| [format!("enter {r}"), format!("finish {r}")])
            .collect();
        assert_eq!(recorder.events, expected);
    }

    #[test]
    fn drive_fans_one_generation_out_to_all_observers() {
        let w = workload();
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        drive(&w, 1, &mut [&mut a, &mut b]);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.events, b.events);
        assert!(a.instructions > 0);
    }

    #[test]
    fn drive_stops_when_no_observer_wants_more() {
        let w = workload();
        let mut bounded = Recorder { stop_after_region: Some(2), ..Default::default() };
        drive(&w, 0, &mut [&mut bounded]);
        // Regions 0..=2 are walked; region 3's trace is skipped but its
        // enter/finish pair still fires before the stop.
        let walked: u64 = (0..3)
            .map(|r| w.region_trace(r, 0).map(|e| u64::from(e.instructions)).sum::<u64>())
            .sum();
        assert_eq!(bounded.instructions, walked);
        assert_eq!(bounded.finished, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_full_observer_keeps_a_bounded_one_fed() {
        // A bounded observer riding with an unbounded one sees exactly the
        // same stream it would alone, because it simply ignores the tail.
        let w = workload();
        let mut alone = Recorder { stop_after_region: Some(1), ..Default::default() };
        drive(&w, 0, &mut [&mut alone]);
        let mut riding = Recorder { stop_after_region: Some(1), ..Default::default() };
        let mut full = Recorder::default();
        drive(&w, 0, &mut [&mut riding, &mut full]);
        // The riding observer observes more regions (the walk continues for
        // the full observer) but its own early events match.
        assert_eq!(full.finished.len(), w.num_regions());
        assert!(riding.instructions >= alone.instructions);
    }

    #[test]
    #[should_panic]
    fn drive_rejects_out_of_range_thread() {
        let w = workload();
        drive(&w, 99, &mut []);
    }

    #[test]
    #[should_panic]
    fn drive_segment_rejects_inverted_range() {
        let w = workload();
        let mut recorder = Recorder::default();
        drive_segment(&w, 0, 3, 1, &mut [&mut recorder]);
    }

    #[test]
    fn chained_segments_reproduce_a_sequential_drive() {
        let w = workload();
        let n = w.num_regions();
        let mut sequential = Recorder::default();
        drive(&w, 0, &mut [&mut sequential]);
        for cut in [0, 1, n / 2, n - 1, n, n + 5] {
            let mut chained = Recorder::default();
            drive_segment(&w, 0, 0, cut, &mut [&mut chained]);
            drive_segment(&w, 0, cut.min(n), n, &mut [&mut chained]);
            assert_eq!(chained.events, sequential.events, "cut {cut}");
            assert_eq!(chained.instructions, sequential.instructions, "cut {cut}");
        }
    }

    #[test]
    fn segment_past_the_region_count_is_clamped() {
        let w = workload();
        let mut recorder = Recorder::default();
        drive_segment(&w, 0, w.num_regions() + 3, w.num_regions() + 9, &mut [&mut recorder]);
        assert!(recorder.events.is_empty());
        assert_eq!(recorder.instructions, 0);
    }

    #[test]
    fn checkpoint_error_displays_its_reason() {
        let err = CheckpointError::new("bad magic");
        assert_eq!(err.to_string(), "checkpoint restore failed: bad magic");
    }
}
