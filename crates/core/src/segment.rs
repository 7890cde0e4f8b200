//! The one trace walk: every profiling and warmup walk bp-core runs is a
//! [`TraceWalk`] request executed by this module's segment scheduler.
//!
//! A request names what the walk collects — the signature profile, the MRU
//! warmup bank at chosen [`MruBoundaries`] and a collection capacity, or
//! both — and where each thread starts: at region 0 (optionally
//! snapshotting the carried state every K regions into a
//! [`WorkloadCheckpoints`] artifact, the `ckpt` kind of the
//! [`ArtifactCache`](crate::ArtifactCache)), or resumed from such
//! checkpoints.  A walk from region 0 is the case "one segment per
//! thread"; a resumed walk fans `threads × segments` jobs onto the
//! [`WorkerBudget`], so a re-walk can use more workers than the workload
//! has threads.  Either way there is one job (restore when resuming, walk
//! `[from, until)`, snapshot at interior cuts), one fan-out, and one stitch
//! ([`bp_signature::concat_thread_profiles`] then the per-region zip, and
//! [`MruSnapshotBank::from_recorders`]).
//!
//! The job's walk is bp-core's only trace-walking loop (the `core-drive`
//! lint flags a `region_trace` call anywhere else in bp-core).  Per region
//! it enters the region (the MRU collector snapshots a requested boundary),
//! generates and feeds the region's trace only while an output still wants
//! more, and finishes the region; it stops after the first region it
//! skips, so an MRU-only walk ends each thread right after its last target.
//!
//! Each thread's walk runs **one recency engine**
//! ([`bp_workload::RecencyEngine`]), windowed at the collection capacity
//! when the MRU collector rides the walk.  The profile accumulator
//! ([`bp_signature::ProfileAccumulator`]) reads each access's stack distance
//! from it and the MRU interval recorder ([`bp_warmup::IntervalRecorder`])
//! its window, so a fused walk finds each access's LRU stack position once
//! rather than once per output.  The engine finds that position from a
//! bitset with one bit per access timestamp (set iff the timestamp is some
//! line's latest access) and a Fenwick tree of per-word popcounts over it:
//! a word-level prefix sum plus one masked popcount per access.  The engine writes the checkpoint's two
//! images — the profile image and the window image — byte for byte in the
//! layouts the golden checkpoint digests pin.  The bit-identity suites
//! compare every walk with a naive reference in the workspace's
//! integration tests, which keeps each thread's LRU stack and each
//! capacity's MRU list as plain lists, so the engine is checked against
//! independent code.
//!
//! **Bit-identity is the contract.**  Checkpoint restoration reproduces
//! the engine's exact carried state (including compaction timing and
//! sequence counters), so the stitched segmented results are byte-equal to
//! one sequential walk — pinned by the proptests here, the request matrix
//! and kernel matrix in `tests/segments.rs`, and the recency engine's own
//! restore tests in bp-workload.

use crate::error::Error;
use crate::profile::ApplicationProfile;
use bp_exec::{ExecutionPolicy, WorkerBudget};
use bp_signature::{concat_thread_profiles, ProfileAccumulator, ThreadProfile};
use bp_warmup::{IntervalRecorder, MruSnapshotBank};
use bp_workload::{BlockExecution, RecencyEngine, Workload};

/// Default number of segments the cold walk cuts each thread's trace into
/// (the checkpoint interval is `ceil(regions / segments)`).  Eight keeps
/// the artifact small while letting re-walks outrun the thread count on
/// typical hosts; callers with wider budgets can ask for more.
pub const DEFAULT_SEGMENTS: usize = 8;

/// The interior cut regions that split a `num_regions`-region trace into at
/// most `max_segments` near-equal segments: every `interval`-th region
/// boundary, where `interval = ceil(num_regions / max_segments)`, clamped
/// to at least 1.  The returned cuts are strictly inside `(0, num_regions)`
/// — segment `i` covers `[cuts[i-1], cuts[i])` with the implicit outer
/// bounds `0` and `num_regions`.
pub fn checkpoint_cuts(num_regions: usize, max_segments: usize) -> Vec<usize> {
    if num_regions == 0 || max_segments <= 1 {
        return Vec::new();
    }
    let interval = num_regions.div_ceil(max_segments).max(1);
    (1..max_segments).map(|i| i * interval).take_while(|&cut| cut < num_regions).collect()
}

/// One thread's serialized engine state at one cut region: everything a
/// segment job needs to resume the walk at `region` bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentCheckpoint {
    /// The region the snapshot was taken at (the segment's first region).
    region: u64,
    /// The engine's profile image ([`RecencyEngine::profile_image`]); empty
    /// when the emitting walk did not attach the profiler.
    profiler: Vec<u8>,
    /// The engine's window image ([`RecencyEngine::window_image`]); empty
    /// when the emitting walk did not attach the collector.
    mru: Vec<u8>,
}

/// One thread's checkpoints, in cut order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ThreadCheckpoints {
    cuts: Vec<SegmentCheckpoint>,
}

/// The region-segment checkpoints of one workload's cold walk: per thread,
/// the engine's serialized profile and window images at every interior cut.
/// Cached as the `ckpt` artifact kind so every later walk of the same
/// workload content can fan `threads × segments` jobs onto the budget.
///
/// The MRU snapshots are taken at one *collection capacity* (the largest
/// the cold pass needed); restoring requires an engine windowed at exactly
/// that capacity, so segmented MRU re-walks serve any capacity up to it (bank
/// assembly truncates) and fall back to a dedicated walk above it.  A walk
/// that emitted without the collector records capacity 0, which no MRU
/// walk can resume from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadCheckpoints {
    /// MRU collection capacity (lines) the snapshots were taken at.
    collection_capacity: u64,
    /// Region count of the checkpointed workload (compatibility check).
    num_regions: u64,
    per_thread: Vec<ThreadCheckpoints>,
}

impl WorkloadCheckpoints {
    /// The MRU collection capacity the checkpoints were taken at.
    pub fn collection_capacity(&self) -> u64 {
        self.collection_capacity
    }

    /// Region count of the checkpointed workload.
    pub fn num_regions(&self) -> usize {
        self.num_regions as usize
    }

    /// Thread count of the checkpointed workload.
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    /// Segments each thread's walk splits into (cuts + 1).
    pub fn num_segments(&self) -> usize {
        self.per_thread.first().map_or(1, |t| t.cuts.len() + 1)
    }

    /// Segment jobs a full segmented walk fans out (`threads × segments`).
    pub fn segment_jobs(&self) -> usize {
        self.threads() * self.num_segments()
    }

    /// Whether these checkpoints can drive a segmented walk of `workload`
    /// serving MRU capacities up to `capacity`: thread and region counts
    /// must match, and the snapshots' collection capacity must cover the
    /// request.  (Content identity is the cache key's job — this check
    /// guards the shape invariants a restore relies on.)
    pub fn covers<W: Workload + ?Sized>(&self, workload: &W, capacity: u64) -> bool {
        self.check_fits(workload, Some(capacity)).is_ok()
    }

    /// [`covers`](Self::covers) as an error naming the mismatch; `capacity`
    /// is `None` for a walk without the MRU collector.
    fn check_fits<W: Workload + ?Sized>(
        &self,
        workload: &W,
        capacity: Option<u64>,
    ) -> Result<(), Error> {
        let mismatch = if self.threads() != workload.num_threads() {
            format!("{} threads, workload has {}", self.threads(), workload.num_threads())
        } else if self.num_regions() != workload.num_regions() {
            format!("{} regions, workload has {}", self.num_regions(), workload.num_regions())
        } else if let Some(asked) = capacity.filter(|&c| c > self.collection_capacity) {
            format!("collection capacity {}, walk asks for {asked}", self.collection_capacity)
        } else {
            return Ok(());
        };
        Err(Error::CheckpointRestore {
            message: format!("checkpoints do not fit {}: {mismatch}", workload.name()),
        })
    }
}

// Hand-written serialization: the derived impl would encode every snapshot
// byte as a full little-endian u64 (the vendored codec has no specialized
// `Vec<u8>` path), inflating the artifact 8×.  `write_len` + `write_bytes`
// stores the payloads verbatim.
impl serde::Serialize for WorkloadCheckpoints {
    fn serialize(&self, out: &mut serde::Serializer) {
        out.write_u64(self.collection_capacity);
        out.write_u64(self.num_regions);
        out.write_len(self.per_thread.len());
        for thread in &self.per_thread {
            out.write_len(thread.cuts.len());
            for cut in &thread.cuts {
                out.write_u64(cut.region);
                out.write_len(cut.profiler.len());
                out.write_bytes(&cut.profiler);
                out.write_len(cut.mru.len());
                out.write_bytes(&cut.mru);
            }
        }
    }
}

impl serde::Deserialize for WorkloadCheckpoints {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let collection_capacity = de.read_u64()?;
        let num_regions = de.read_u64()?;
        let threads = de.read_len()?;
        let mut per_thread = Vec::with_capacity(threads.min(1 << 10));
        for _ in 0..threads {
            let num_cuts = de.read_len()?;
            let mut cuts = Vec::with_capacity(num_cuts.min(1 << 10));
            for _ in 0..num_cuts {
                let region = de.read_u64()?;
                let profiler_len = de.read_len()?;
                let profiler = de.read_bytes(profiler_len)?.to_vec();
                let mru_len = de.read_len()?;
                let mru = de.read_bytes(mru_len)?.to_vec();
                cuts.push(SegmentCheckpoint { region, profiler, mru });
            }
            per_thread.push(ThreadCheckpoints { cuts });
        }
        Ok(Self { collection_capacity, num_regions, per_thread })
    }
}

/// The region boundaries a walk's MRU collector snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MruBoundaries<'a> {
    /// Every region boundary: what a walk collects while the barrierpoint
    /// selection is still unknown.  The resulting bank serves any target
    /// subset.
    Every,
    /// Only these boundaries (any order, duplicates allowed; boundaries at
    /// or past the region count are never reached).  An MRU-only walk stops
    /// each thread after its last target.
    Targets(&'a [usize]),
}

/// Where each thread's walk starts.
#[derive(Debug, Clone, Copy)]
enum Start<'a> {
    /// Region 0, no checkpoints.
    Beginning,
    /// Region 0, snapshotting at the interior cuts of
    /// [`checkpoint_cuts`]`(regions, max_segments)`.
    Emitting { max_segments: usize },
    /// Every segment of the checkpoints, each restored from its first cut.
    Resume(&'a WorkloadCheckpoints),
}

/// One trace-walk request: which outputs ride the walk and where each
/// thread starts.  [`run`](Self::run) executes it.
///
/// * [`profile`](Self::profile) attaches the signature profiler,
///   [`mru`](Self::mru) the MRU collector, and
///   `profile().`[`with_mru`](Self::with_mru)`(..)` both — the fused cold
///   pass: one trace generation and one recency engine per thread for both
///   artifacts.
/// * [`emitting_checkpoints`](Self::emitting_checkpoints) also snapshots
///   the carried state every K regions.  A checkpoint must hold the
///   collector's full recency state at each cut, so an emitting walk
///   collects MRU state at every boundary whatever [`MruBoundaries`] says.
/// * [`resuming`](Self::resuming) walks as `threads × segments` jobs
///   restored from checkpoints.  The checkpoints must match the workload's
///   thread and region counts and, for the MRU collector, hold a collection
///   capacity at least the requested one; the returned bank is then
///   collected at the checkpoints' capacity, and assembly truncates.
///
/// Every request's artifacts are bit-identical, under every policy and
/// budget, to a naive region-by-region walk over plain per-thread lists
/// (the reference in the workspace's integration tests).
#[derive(Debug, Clone, Copy)]
pub struct TraceWalk<'a> {
    profile: bool,
    mru: Option<(MruBoundaries<'a>, u64)>,
    start: Start<'a>,
}

impl<'a> TraceWalk<'a> {
    /// A walk from region 0 with the signature profiler attached.
    pub fn profile() -> Self {
        Self { profile: true, mru: None, start: Start::Beginning }
    }

    /// A walk from region 0 with only the MRU collector attached,
    /// snapshotting at `boundaries` and collecting at `capacity` lines
    /// (clamped to at least 1).
    pub fn mru(boundaries: MruBoundaries<'a>, capacity: u64) -> Self {
        Self { profile: false, ..Self::profile().with_mru(boundaries, capacity) }
    }

    /// Also attaches the MRU collector (see [`mru`](Self::mru)).
    pub fn with_mru(self, boundaries: MruBoundaries<'a>, capacity: u64) -> Self {
        Self { mru: Some((boundaries, capacity.max(1))), ..self }
    }

    /// Walks from region 0 and snapshots the walk's engine at the
    /// interior cuts of [`checkpoint_cuts`]`(regions, max_segments)`.
    pub fn emitting_checkpoints(self, max_segments: usize) -> Self {
        Self { start: Start::Emitting { max_segments }, ..self }
    }

    /// Resumes every segment of `checkpoints` instead of walking from
    /// region 0.
    pub fn resuming(self, checkpoints: &'a WorkloadCheckpoints) -> Self {
        Self { start: Start::Resume(checkpoints), ..self }
    }

    /// Runs the walk under `policy`, drawing helper threads from `budget`
    /// when given.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyWorkload`] for a region-less workload, and
    /// [`Error::CheckpointRestore`] when resumed checkpoints do not fit the
    /// workload or the request, or hold invalid state.
    pub fn run<W: Workload + ?Sized>(
        &self,
        workload: &W,
        policy: &ExecutionPolicy,
        budget: Option<&WorkerBudget>,
    ) -> Result<WalkOutput, Error> {
        let num_regions = workload.num_regions();
        if num_regions == 0 {
            return Err(Error::EmptyWorkload { workload: workload.name().to_string() });
        }
        let (emit, resume) = match self.start {
            Start::Beginning => (None, None),
            Start::Emitting { max_segments } => {
                (Some(checkpoint_cuts(num_regions, max_segments)), None)
            }
            Start::Resume(checkpoints) => {
                checkpoints.check_fits(workload, self.mru.map(|(_, capacity)| capacity))?;
                (None, Some(checkpoints))
            }
        };
        let mru = self.mru.map(|(boundaries, capacity)| {
            let boundaries = match boundaries {
                MruBoundaries::Targets(targets) if emit.is_none() => targets.to_vec(),
                _ => (0..num_regions).collect(),
            };
            // Restoring requires an engine windowed at the snapshots' capacity.
            (boundaries, resume.map_or(capacity, |c| c.collection_capacity))
        });
        let plan =
            Plan { profile: self.profile, mru, emit: emit.as_deref().unwrap_or(&[]), resume };
        let threads = workload.num_threads();
        let segments = resume.map_or(1, WorkloadCheckpoints::num_segments);
        let jobs = threads * segments;
        let job = |j: usize| plan.job(workload, j / segments, j % segments, num_regions);
        let results = match budget {
            Some(budget) => policy.execute_budgeted(jobs, budget, job),
            None => policy.execute(jobs, job),
        };

        let mut profiles = Vec::with_capacity(threads);
        let mut recorders = Vec::with_capacity(threads);
        let mut per_thread = Vec::with_capacity(threads);
        let mut results = results.into_iter();
        for _ in 0..threads {
            let mut thread_profiles = Vec::with_capacity(segments);
            let mut thread_recorders = Vec::with_capacity(segments);
            let mut cuts = Vec::new();
            for walked in results.by_ref().take(segments) {
                let (profile, mru, emitted) = walked?;
                thread_profiles.extend(profile);
                thread_recorders.extend(mru);
                cuts.extend(emitted);
            }
            if self.profile {
                profiles.push(concat_thread_profiles(thread_profiles));
            }
            recorders.push(thread_recorders);
            per_thread.push(ThreadCheckpoints { cuts });
        }
        Ok(WalkOutput {
            profile: self.profile.then(|| {
                ApplicationProfile::from_thread_profiles(
                    workload.name().to_string(),
                    threads,
                    profiles,
                )
            }),
            bank: self.mru.map(|_| MruSnapshotBank::from_recorders(recorders)),
            checkpoints: emit.map(|_| WorkloadCheckpoints {
                collection_capacity: self.mru.map_or(0, |(_, capacity)| capacity),
                num_regions: num_regions as u64,
                per_thread,
            }),
            jobs,
            // Every job but each thread's first segment restores.
            restores: resume.map_or(0, |_| jobs - threads),
        })
    }
}

/// What a [`TraceWalk`] produced: the artifacts it was asked for, and how
/// many jobs it fanned out and how many of them restored a checkpoint.
#[derive(Debug)]
pub struct WalkOutput {
    /// The application profile, when the profiler was attached.
    pub profile: Option<ApplicationProfile>,
    /// The MRU snapshot bank, when the collector was attached.
    pub bank: Option<MruSnapshotBank>,
    /// The emitted checkpoints, when the walk emitted them.
    pub checkpoints: Option<WorkloadCheckpoints>,
    /// Jobs fanned out: one per thread from region 0, `threads × segments`
    /// when resumed.
    pub jobs: usize,
    /// Jobs that started from a restored checkpoint.
    pub restores: usize,
}

impl WalkOutput {
    /// Takes the profile of a walk that attached the profiler.
    pub(crate) fn take_profile(&mut self) -> ApplicationProfile {
        self.profile.take().unwrap_or_else(|| unreachable!("the walk attached no profiler"))
    }

    /// Takes the bank of a walk that attached the MRU collector.
    pub(crate) fn take_bank(&mut self) -> MruSnapshotBank {
        self.bank.take().unwrap_or_else(|| unreachable!("the walk attached no MRU collector"))
    }
}

/// A [`TraceWalk`] resolved against one workload.
struct Plan<'a> {
    profile: bool,
    /// The MRU collector's boundaries and collection capacity.
    mru: Option<(Vec<usize>, u64)>,
    /// The cuts a walk from region 0 snapshots at.
    emit: &'a [usize],
    resume: Option<&'a WorkloadCheckpoints>,
}

/// One job's finished profile, MRU interval recorder, and emitted
/// checkpoints.
type Walked = (Option<ThreadProfile>, Option<IntervalRecorder>, Vec<SegmentCheckpoint>);

/// One thread segment's walk: one [`RecencyEngine`] — windowed at the
/// collection capacity when the MRU collector rides the walk — and the
/// outputs that read its touches.  A fused walk thereby finds each access's
/// LRU stack position once for both the LDV and the MRU window.
struct ThreadWalk {
    engine: RecencyEngine,
    profile: Option<ProfileAccumulator>,
    mru: Option<IntervalRecorder>,
}

impl ThreadWalk {
    /// Walks regions `[from, until)` of `thread`'s trace (clamped to the
    /// region count) with the per-region protocol of the module doc.
    fn walk<W: Workload + ?Sized>(
        &mut self,
        workload: &W,
        thread: usize,
        from: usize,
        until: usize,
    ) {
        let mut exec = BlockExecution::default();
        for region in from..until.min(workload.num_regions()) {
            if let Some(profile) = &mut self.profile {
                profile.enter_region();
            }
            if let Some(mru) = &mut self.mru {
                mru.enter_region(&mut self.engine, region);
            }
            // A profiling walk needs the whole trace.
            let active = self.profile.is_some()
                || self.mru.as_ref().is_some_and(IntervalRecorder::wants_more);
            if active {
                let mut trace = workload.region_trace(region, thread);
                while trace.next_into(&mut exec) {
                    self.observe(&exec);
                }
            }
            if let Some(profile) = &mut self.profile {
                profile.finish_region();
            }
            if !active {
                break;
            }
        }
    }

    /// Feeds one block execution: its block to the profile, each access to
    /// the engine, and each touch to the outputs.
    fn observe(&mut self, exec: &BlockExecution) {
        if let Some(profile) = &mut self.profile {
            profile.block(exec);
        }
        for access in &exec.accesses {
            let touch = self.engine.touch(access.line(), access.kind.is_write());
            if let Some(profile) = &mut self.profile {
                profile.distance(touch.distance);
            }
            if let Some(mru) = &mut self.mru {
                mru.touched(&touch);
            }
        }
    }
}

impl Plan<'_> {
    /// The one job: construct the thread's engine and attached outputs,
    /// restore the engine when the segment starts at a checkpoint, walk
    /// `[from, until)`, and snapshot at every emission cut on the way.
    fn job<W: Workload + ?Sized>(
        &self,
        workload: &W,
        thread: usize,
        segment: usize,
        num_regions: usize,
    ) -> Result<Walked, Error> {
        // Segment `s` of a resumed thread runs from cut `s - 1` to cut `s`.
        let thread_cuts: &[SegmentCheckpoint] =
            self.resume.map_or(&[], |c| &c.per_thread[thread].cuts);
        let restore = segment.checked_sub(1).map(|previous| &thread_cuts[previous]);
        let from = restore.map_or(0, |cut| cut.region as usize);
        let until = thread_cuts.get(segment).map_or(num_regions, |cut| cut.region as usize);
        let mut walk = ThreadWalk {
            engine: self.mru.as_ref().map_or_else(RecencyEngine::new, |(_, capacity)| {
                RecencyEngine::with_window(*capacity)
            }),
            profile: self.profile.then(|| ProfileAccumulator::new(workload, thread)),
            mru: self
                .mru
                .as_ref()
                .map(|(boundaries, capacity)| IntervalRecorder::new(boundaries, *capacity)),
        };
        if let Some(cut) = restore {
            let profile = self.profile.then_some(&cut.profiler[..]);
            let window = walk.mru.is_some().then_some(&cut.mru[..]);
            walk.engine.restore(profile, window).map_err(|e| Error::CheckpointRestore {
                message: format!("thread {thread} segment at region {from}: {e}"),
            })?;
            if let Some(mru) = &mut walk.mru {
                mru.resume_at(from);
            }
        }
        let mut cuts = Vec::with_capacity(self.emit.len());
        let mut start = from;
        for &end in self.emit.iter().chain([&until]) {
            walk.walk(workload, thread, start, end);
            if end < until {
                cuts.push(SegmentCheckpoint {
                    region: end as u64,
                    profiler: if self.profile { walk.engine.profile_image() } else { Vec::new() },
                    mru: walk.engine.window_image(),
                });
            }
            start = end;
        }
        Ok((walk.profile.map(ProfileAccumulator::into_profile), walk.mru, cuts))
    }
}

/// Re-profiles `workload` as `threads × segments` parallel segment jobs,
/// each resuming from `checkpoints`, bit-identical to
/// [`crate::profile_application_with`]'s sequential thread-major pass.
/// This is how a sweep re-profiles at a new [`crate::SignatureConfig`] — or any
/// forced re-profile — using more workers than the workload has threads.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] for a region-less workload and
/// [`Error::CheckpointRestore`] for checkpoints that do not fit the
/// workload or hold invalid state.
pub fn profile_application_segmented<W: Workload + ?Sized>(
    workload: &W,
    checkpoints: &WorkloadCheckpoints,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<ApplicationProfile, Error> {
    TraceWalk::profile()
        .resuming(checkpoints)
        .run(workload, policy, budget)
        .map(|mut walk| walk.take_profile())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_and_collect_warmup, profile_application_with};
    use bp_workload::{Benchmark, WorkloadConfig};
    use proptest::prelude::*;

    /// The fused cold pass emitting checkpoints for `max_segments`
    /// segments at `capacity`, serially.
    fn checkpointed(
        w: &impl Workload,
        capacity: u64,
        max_segments: usize,
    ) -> (ApplicationProfile, MruSnapshotBank, WorkloadCheckpoints) {
        let walk = TraceWalk::profile()
            .with_mru(MruBoundaries::Every, capacity)
            .emitting_checkpoints(max_segments)
            .run(w, &ExecutionPolicy::Serial, None)
            .unwrap();
        (walk.profile.unwrap(), walk.bank.unwrap(), walk.checkpoints.unwrap())
    }

    /// The every-boundary MRU collection resumed from `checkpoints`.
    fn resumed_bank(
        w: &impl Workload,
        checkpoints: &WorkloadCheckpoints,
        policy: &ExecutionPolicy,
        budget: Option<&WorkerBudget>,
    ) -> Result<MruSnapshotBank, Error> {
        TraceWalk::mru(MruBoundaries::Every, checkpoints.collection_capacity())
            .resuming(checkpoints)
            .run(w, policy, budget)
            .map(|walk| walk.bank.unwrap())
    }

    /// The fused re-walk resumed from `checkpoints`.
    fn resumed_fused(
        w: &impl Workload,
        checkpoints: &WorkloadCheckpoints,
        policy: &ExecutionPolicy,
    ) -> (ApplicationProfile, MruSnapshotBank) {
        let walk = TraceWalk::profile()
            .with_mru(MruBoundaries::Every, checkpoints.collection_capacity())
            .resuming(checkpoints)
            .run(w, policy, None)
            .unwrap();
        (walk.profile.unwrap(), walk.bank.unwrap())
    }

    #[test]
    fn cuts_split_near_equally_and_stay_interior() {
        assert_eq!(checkpoint_cuts(11, 4), vec![3, 6, 9]);
        assert_eq!(checkpoint_cuts(8, 4), vec![2, 4, 6]);
        assert_eq!(checkpoint_cuts(3, 8), vec![1, 2]);
        assert_eq!(checkpoint_cuts(1, 8), Vec::<usize>::new());
        assert_eq!(checkpoint_cuts(100, 1), Vec::<usize>::new());
        assert_eq!(checkpoint_cuts(0, 4), Vec::<usize>::new());
        for (regions, segments) in [(11, 4), (46, 8), (200, 3), (7, 7), (5, 100)] {
            let cuts = checkpoint_cuts(regions, segments);
            assert!(cuts.len() < segments);
            assert!(cuts.windows(2).all(|w| w[0] < w[1]));
            assert!(cuts.iter().all(|&c| c > 0 && c < regions));
        }
    }

    #[test]
    fn checkpointed_cold_pass_matches_the_plain_fused_pass_bit_for_bit() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let capacities = [256, 2048];
        let policy = ExecutionPolicy::Serial;
        let (profile, bank) = profile_and_collect_warmup(&w, &capacities, &policy, None).unwrap();
        let (ck_profile, ck_bank, checkpoints) = checkpointed(&w, 2048, 4);
        assert_eq!(profile, ck_profile);
        let targets = [0, 5, 20];
        for capacity in [100u64, 256, 2048] {
            assert_eq!(bank.assemble(&targets, capacity), ck_bank.assemble(&targets, capacity));
        }
        assert_eq!(checkpoints.threads(), 2);
        assert_eq!(checkpoints.num_segments(), 4);
        assert_eq!(checkpoints.collection_capacity(), 2048);
        assert!(checkpoints.covers(&w, 2048));
        assert!(!checkpoints.covers(&w, 4096), "capacity above the collection must not cover");
    }

    #[test]
    fn segmented_walks_match_sequential_bit_for_bit_at_every_segment_count() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.05));
        let regions = w.num_regions();
        let policy = ExecutionPolicy::parallel_with(4);
        let sequential = profile_application_with(&w, &policy).unwrap();
        let (_, bank) = profile_and_collect_warmup(&w, &[700], &policy, None).unwrap();
        let targets: Vec<usize> = (0..regions).collect();
        for segments in [1, 2, 3, 7, regions] {
            let (_, _, checkpoints) = checkpointed(&w, 700, segments);
            let profile = profile_application_segmented(&w, &checkpoints, &policy, None).unwrap();
            assert_eq!(profile, sequential, "{segments} segments");
            let seg_bank = resumed_bank(&w, &checkpoints, &policy, None).unwrap();
            for capacity in [1u64, 64, 700] {
                assert_eq!(
                    seg_bank.assemble(&targets, capacity),
                    bank.assemble(&targets, capacity),
                    "{segments} segments, capacity {capacity}"
                );
            }
            let (fused_profile, fused_bank) = resumed_fused(&w, &checkpoints, &policy);
            assert_eq!(fused_profile, sequential, "{segments} segments fused");
            assert_eq!(
                fused_bank.assemble(&targets, 700),
                bank.assemble(&targets, 700),
                "{segments} segments fused bank"
            );
        }
    }

    #[test]
    fn segmented_walk_draws_more_workers_than_threads_under_a_budget() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let (_, _, checkpoints) = checkpointed(&w, 256, 4);
        assert_eq!(checkpoints.segment_jobs(), 8, "2 threads × 4 segments");
        // A budget of 6 workers (more than the 2 threads) is fully legal
        // for the 8-job fan-out and returns every permit.
        let budget = WorkerBudget::new(6);
        let policy = ExecutionPolicy::parallel_with(6);
        let walk = TraceWalk::profile().resuming(&checkpoints);
        let segmented = walk.run(&w, &policy, Some(&budget)).unwrap();
        assert_eq!((segmented.jobs, segmented.restores), (8, 6), "all but each first segment");
        assert_eq!(budget.available(), 6, "all permits returned");
        assert_eq!(
            segmented.profile.unwrap(),
            profile_application_with(&w, &ExecutionPolicy::Serial).unwrap()
        );
    }

    #[test]
    fn checkpoints_round_trip_through_serde() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let (_, _, checkpoints) = checkpointed(&w, 256, 4);
        let bytes = serde::to_vec(&checkpoints);
        let back: WorkloadCheckpoints = serde::from_slice(&bytes).unwrap();
        assert_eq!(checkpoints, back);
        // And the payloads are stored verbatim, not u64-expanded: the
        // encoding must stay within ~2× of the raw snapshot bytes.
        let raw: usize = checkpoints
            .per_thread
            .iter()
            .flat_map(|t| &t.cuts)
            .map(|c| c.profiler.len() + c.mru.len())
            .sum();
        assert!(raw > 0);
        assert!(bytes.len() < 2 * raw + 1024, "bytes {} vs raw {raw}", bytes.len());
    }

    #[test]
    fn mismatched_restore_surfaces_as_checkpoint_error() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let (_, _, mut checkpoints) = checkpointed(&w, 256, 4);
        // Truncate one MRU snapshot: the restore must fail loudly (the
        // cache's checksum seal makes this unreachable for cache-served
        // checkpoints, but the API contract still has to hold).
        checkpoints.per_thread[1].cuts[0].mru.pop();
        let err = resumed_bank(&w, &checkpoints, &ExecutionPolicy::Serial, None).unwrap_err();
        assert!(matches!(err, Error::CheckpointRestore { .. }), "{err:?}");
        assert!(err.to_string().contains("thread 1"));
    }

    #[test]
    fn checkpoints_that_do_not_fit_the_workload_are_rejected() {
        let cg4 = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.02));
        let cg2 = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.02));
        let is2 = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let (_, _, four_threads) = checkpointed(&cg4, 256, 4);
        let (_, _, cg_regions) = checkpointed(&cg2, 256, 4);
        let policy = ExecutionPolicy::Serial;
        let fits = |result: Result<WalkOutput, Error>, what: &str| match result {
            Err(Error::CheckpointRestore { message }) => {
                assert!(message.contains(what), "{message}")
            }
            other => panic!("expected a {what} mismatch, got {other:?}"),
        };
        // Thread count, region count, then collection capacity.
        for (w, checkpoints, what) in
            [(&cg2, &four_threads, "threads"), (&is2, &cg_regions, "regions")]
        {
            let segmented = profile_application_segmented(w, checkpoints, &policy, None);
            assert!(
                matches!(&segmented, Err(Error::CheckpointRestore { message }) if message.contains(what)),
                "{segmented:?}"
            );
            fits(TraceWalk::profile().resuming(checkpoints).run(w, &policy, None), what);
            let mru = TraceWalk::mru(MruBoundaries::Every, 256).resuming(checkpoints);
            fits(mru.run(w, &policy, None), what);
        }
        let too_large = TraceWalk::mru(MruBoundaries::Targets(&[3]), 257).resuming(&cg_regions);
        fits(too_large.run(&cg2, &policy, None), "capacity");
        let fused = TraceWalk::profile().with_mru(MruBoundaries::Every, 4096).resuming(&cg_regions);
        fits(fused.run(&cg2, &policy, None), "capacity");
        // A profile-only resume needs no MRU capacity at all.
        assert!(TraceWalk::profile().resuming(&cg_regions).run(&cg2, &policy, None).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Segmentation invariance at the pipeline level: for random
        /// workload shapes and random segment counts, the stitched
        /// segmented profile and bank are byte-identical to one
        /// sequential walk.
        #[test]
        fn segmentation_is_invariant_for_random_shapes(
            threads in 1usize..4,
            scale in 2u32..6,
            segments in 1usize..12,
            capacity in 1u64..600,
        ) {
            let scale = f64::from(scale) / 100.0;
            let w = Benchmark::NpbIs.build(&WorkloadConfig::new(threads).with_scale(scale));
            let policy = ExecutionPolicy::Serial;
            let sequential = profile_application_with(&w, &policy).unwrap();
            let (_, bank) = profile_and_collect_warmup(&w, &[capacity], &policy, None).unwrap();
            let (_, _, checkpoints) = checkpointed(&w, capacity, segments);
            let (profile, seg_bank) = resumed_fused(&w, &checkpoints, &policy);
            prop_assert_eq!(profile, sequential);
            let targets: Vec<usize> = (0..w.num_regions()).collect();
            prop_assert_eq!(
                seg_bank.assemble(&targets, capacity),
                bank.assemble(&targets, capacity)
            );
        }
    }
}
