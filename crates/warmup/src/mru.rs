use bp_workload::{RecencyEngine, Residency, Touch};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The warmup payload of one barrierpoint: per core, the most recently used
/// unique cache lines (least recent first) together with the most recent
/// access kind, bounded by the shared-LLC capacity.
///
/// Replaying these accesses in order rebuilds an approximation of every
/// private cache and of the shared LLC without either a
/// microarchitecture-specific checkpoint or a full functional replay — the
/// paper's proposed warmup (Section IV).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MruWarmupData {
    per_thread: Vec<Vec<(u64, bool)>>,
    capacity_lines: u64,
}

impl MruWarmupData {
    /// Per-thread replay sequences: cache line addresses (least recent first)
    /// and whether the most recent access to that line was a write.
    pub fn per_thread(&self) -> &[Vec<(u64, bool)>] {
        &self.per_thread
    }

    /// The per-core capacity bound (in lines) used during collection.
    pub fn capacity_lines(&self) -> u64 {
        self.capacity_lines
    }

    /// Total number of lines that will be replayed across all cores.
    pub fn total_lines(&self) -> usize {
        self.per_thread.iter().map(|t| t.len()).sum()
    }

    /// Returns `true` when no state was recorded (e.g. the first region).
    pub fn is_empty(&self) -> bool {
        self.total_lines() == 0
    }
}

/// One thread's raw `(line, dirty_depth)` recency list, least recent first.
type RawRecency = Vec<(u64, u64)>;

/// Derives one capacity's per-thread payload from a raw `(line, dirty_depth)`
/// snapshot taken at a larger collection capacity.
fn truncate_raw(raw: &[(u64, u64)], capacity: u64) -> Vec<(u64, bool)> {
    let skip = (raw.len() as u64).saturating_sub(capacity) as usize;
    raw[skip..].iter().map(|&(line, depth)| (line, depth < capacity)).collect()
}

/// Sentinel `until` of an interval record whose residency span has not been
/// closed by a later boundary yet.
const OPEN: u32 = u32::MAX;

/// One residency span of one cache line: the line entered the thread's
/// recency list with access order `tick` and dirty depth `dirty_depth`
/// before boundary `from`, and neither was re-accessed nor evicted before
/// boundary `until` — so the *same* record reconstructs the line's recency
/// rank and dirty state at every snapshotted boundary in `from..until`.
#[derive(Debug, Clone, Copy)]
struct IntervalRecord {
    line: u64,
    /// Access-order key ([`Residency::tick`]); sorting a boundary's covering
    /// records by `tick` rebuilds the recency list least recent first.
    tick: u64,
    dirty_depth: u64,
    /// First boundary index (into the bank's boundary list) the record
    /// covers.
    from: u32,
    /// One past the last covered boundary index ([`OPEN`] while unclosed).
    until: u32,
}

/// One thread's MRU warmup state as *residency intervals*, recorded from
/// the touches of a windowed [`RecencyEngine`] instead of as per-boundary
/// snapshots.
///
/// A touch closes the interval records of the residencies it ends — the
/// line's own previous one and the evicted line's — at the next boundary's
/// index.  At each requested boundary the recorder opens fresh records, with
/// the current access order and dirty depth, for the lines touched since the
/// previous boundary that are still windowed
/// ([`RecencyEngine::touched_since`]).  A line that sits untouched in the
/// window across many boundaries is covered by one record for the whole
/// span, so bank size scales with the eviction/write activity between
/// boundaries rather than `boundaries × capacity`.  Each residency's open
/// record is the [`Residency::record`] the engine keeps for it: every touch
/// starts a residency without one, so the lines a boundary must open are
/// exactly those touched since the previous boundary.
///
/// bp-core's trace walk feeds a recorder — and, in a fused walk,
/// `bp-signature`'s profile accumulator — from one engine per thread,
/// entering each region through [`enter_region`](Self::enter_region) and
/// stopping once [`wants_more`](Self::wants_more) turns false.  Hand the
/// finished recorders of all threads to [`MruSnapshotBank::from_recorders`].
#[derive(Debug)]
pub struct IntervalRecorder {
    capacity: u64,
    boundaries: Vec<usize>,
    /// Boundaries snapshotted so far; doubles as the index the next
    /// boundary's records will carry in `from`.
    next: usize,
    /// The engine's [`tick`](RecencyEngine::tick) at the last snapshotted
    /// boundary: the next boundary opens records for the windowed lines
    /// touched after it.  0 at the start and after
    /// [`resume_at`](Self::resume_at), so the first boundary opens every
    /// windowed line.  After a restore there are no prior records in the
    /// segment to extend, so a sequential walk's records that span the
    /// segment cut are split into two records covering the same boundary
    /// indices with the same `(line, tick, dirty_depth)` — invisible to
    /// [`MruSnapshotBank`] assembly, which is the bit-identity contract.
    since: u64,
    intervals: Vec<IntervalRecord>,
}

impl IntervalRecorder {
    /// Creates a recorder snapshotting at `boundaries` (deduplicated and
    /// sorted internally; a boundary `r` snapshot reflects all accesses of
    /// regions `0..r`) for an engine windowed at `collection_capacity`
    /// lines (clamped to at least 1).
    pub fn new(boundaries: &[usize], collection_capacity: u64) -> Self {
        let mut boundaries = boundaries.to_vec();
        boundaries.sort_unstable();
        boundaries.dedup();
        assert!(boundaries.len() < OPEN as usize, "boundary count overflows interval index");
        Self {
            capacity: collection_capacity.max(1),
            boundaries,
            next: 0,
            since: 0,
            intervals: Vec::new(),
        }
    }

    /// Whether a boundary is still ahead: once the last one is snapshotted,
    /// later touches cannot influence any snapshot.
    pub fn wants_more(&self) -> bool {
        self.next < self.boundaries.len()
    }

    /// Snapshots `region`'s boundary, if requested, by opening records for
    /// the windowed lines touched since the last one.
    pub fn enter_region(&mut self, engine: &mut RecencyEngine, region: usize) {
        if self.boundaries.get(self.next) != Some(&region) {
            return;
        }
        let from = self.next as u32;
        let intervals = &mut self.intervals;
        engine.touched_since(self.since, |line, residency| {
            residency.record = intervals.len();
            intervals.push(IntervalRecord {
                line,
                tick: residency.tick,
                dirty_depth: residency.dirty_depth,
                from,
                until: OPEN,
            });
        });
        self.since = engine.tick();
        self.next += 1;
    }

    /// Closes, at the next boundary index, the records of the residencies
    /// a touch ended: the touched line's previous one and the evicted
    /// line's.  A no-op past the last boundary.
    pub fn touched(&mut self, touch: &Touch) {
        if !self.wants_more() {
            return;
        }
        let until = self.next as u32;
        let ended = touch.previous.iter().chain(touch.evicted.iter().map(|(_, gone)| gone));
        for residency in ended {
            if residency.record != Residency::NO_RECORD {
                self.intervals[residency.record].until = until;
            }
        }
    }

    /// Prepares the recorder to continue from `region` after its engine was
    /// restored from a checkpoint taken there.
    pub fn resume_at(&mut self, region: usize) {
        self.next = self.boundaries.partition_point(|&b| b < region);
        self.since = 0;
        self.intervals.clear();
    }

    /// Closes every still-open record at this recorder's own end and clamps
    /// all records to the uniformly `taken` boundary count, yielding the
    /// thread's finished interval list.
    fn finish(mut self, taken: usize) -> Vec<IntervalRecord> {
        let limit = self.next.min(taken) as u32;
        self.intervals.retain_mut(|record| {
            record.until = record.until.min(limit);
            record.from < record.until
        });
        self.intervals
    }
}

/// The interval-encoded multi-boundary MRU state of a whole application —
/// one [`IntervalRecorder`] per thread — from which the warmup
/// payload of *any* boundary subset at *any* capacity (up to the collection
/// capacity) is assembled, without re-walking any trace.
///
/// This is what makes the fused cold pass affordable at scale: when a sweep
/// must profile (so the barrierpoint selection is not known yet), the
/// recorders cover every region boundary during the one fused walk, yet the
/// bank holds one record per *residency interval* — lines that stay
/// resident and untouched across boundaries cost one record for the whole
/// span — so even a 32-thread many-region collection stays far below the
/// old `threads × regions × capacity` snapshot footprint that used to force
/// a byte-cap fallback onto two separate walks.
#[derive(Debug, Clone)]
pub struct MruSnapshotBank {
    boundaries: Vec<usize>,
    collection_capacity: u64,
    /// `[thread] -> interval records` (each covering `from..until` boundary
    /// indices into `boundaries`).
    per_thread: Vec<Vec<IntervalRecord>>,
}

impl MruSnapshotBank {
    /// Assembles the bank from the finished recorders of threads `0..n`:
    /// `per_thread[t]` holds the recorders of thread `t`'s consecutive trace
    /// segments, in segment order — a single one for a thread walked in one
    /// piece — where every segment after the first was resumed
    /// ([`IntervalRecorder::resume_at`]) from its predecessor's cut-point
    /// snapshot.  Each thread's records are the concatenation of its
    /// segments' records; assembly output is bit-identical however the
    /// walks were segmented (records that spanned a cut are split in two,
    /// which reconstruction — a filter by covered boundary index plus a
    /// sort by access tick — cannot observe).
    ///
    /// # Panics
    ///
    /// Panics if `per_thread` is empty, any thread has no segments, or the
    /// recorders disagree on boundaries or collection capacity.
    pub fn from_recorders(per_thread: Vec<Vec<IntervalRecorder>>) -> Self {
        assert!(!per_thread.is_empty(), "at least one thread required");
        assert!(
            per_thread.iter().all(|segments| !segments.is_empty()),
            "at least one segment recorder per thread required"
        );
        let boundaries = per_thread[0][0].boundaries.clone();
        let collection_capacity = per_thread[0][0].capacity;
        for recorder in per_thread.iter().flatten() {
            assert_eq!(recorder.boundaries, boundaries, "recorders disagree on boundaries");
            assert_eq!(
                recorder.capacity, collection_capacity,
                "recorders disagree on collection capacity"
            );
        }
        // Boundaries at or past the region count are never reached by the
        // walk; every thread stops at the same region (its last segment's
        // progress), so truncate uniformly to the boundaries actually
        // snapshotted.
        let taken = per_thread
            .iter()
            .map(|segments| segments.last().map_or(0, |r| r.next))
            .min()
            .unwrap_or(0);
        Self {
            boundaries: boundaries[..taken].to_vec(),
            collection_capacity,
            per_thread: per_thread
                .into_iter()
                .map(|segments| {
                    let records = segments.into_iter().map(|recorder| recorder.finish(taken));
                    let stitched = records.reduce(|mut all, more| {
                        all.extend(more);
                        all
                    });
                    stitched.unwrap_or_default()
                })
                .collect(),
        }
    }

    /// The boundaries actually snapshotted (sorted; requested boundaries at
    /// or past the workload's region count are absent).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// The capacity the bank was collected at — the upper bound for
    /// [`assemble`](Self::assemble).
    pub fn collection_capacity(&self) -> u64 {
        self.collection_capacity
    }

    /// Reconstructs the raw per-thread `(line, dirty_depth)` recency lists
    /// (least recent first) of every target present in the bank, in one
    /// pass over each thread's records: a record lands in the bucket of
    /// every wanted boundary index in its `from..until` span, and sorting a
    /// bucket by access tick rebuilds that boundary's recency order (ticks
    /// are unique among the lines live at one boundary).  Returns
    /// `(target, per-thread lists)` once per distinct target.
    fn reconstruct(&self, targets: &[usize]) -> Vec<(usize, Vec<RawRecency>)> {
        let mut wanted: Vec<u32> = targets
            .iter()
            .filter_map(|target| self.boundaries.binary_search(target).ok())
            .map(|idx| idx as u32)
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut per_target: Vec<Vec<RawRecency>> =
            vec![Vec::with_capacity(self.per_thread.len()); wanted.len()];
        let mut buckets: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); wanted.len()];
        for records in &self.per_thread {
            for record in records {
                let mut k = wanted.partition_point(|&idx| idx < record.from);
                while k < wanted.len() && wanted[k] < record.until {
                    buckets[k].push((record.tick, record.line, record.dirty_depth));
                    k += 1;
                }
            }
            for (bucket, lists) in buckets.iter_mut().zip(&mut per_target) {
                bucket.sort_unstable_by_key(|&(tick, _, _)| tick);
                lists.push(bucket.drain(..).map(|(_, line, depth)| (line, depth)).collect());
            }
        }
        wanted.iter().map(|&idx| self.boundaries[idx as usize]).zip(per_target).collect()
    }

    /// The warmup payload of every requested target present in the bank, at
    /// `capacity` lines (clamped to `1..=collection_capacity`) — bit
    /// identical to a dedicated collection at that capacity.
    pub fn assemble(&self, targets: &[usize], capacity: u64) -> HashMap<usize, MruWarmupData> {
        self.assemble_multi(targets, &[capacity]).remove(&capacity).unwrap_or_default()
    }

    /// [`assemble`](Self::assemble) for several capacities at once, keyed by
    /// the capacity values as given (duplicates collapse).  The recency
    /// lists are reconstructed once and truncated per capacity.
    pub fn assemble_multi(
        &self,
        targets: &[usize],
        capacities: &[u64],
    ) -> HashMap<u64, HashMap<usize, MruWarmupData>> {
        let raw = self.reconstruct(targets);
        let mut result: HashMap<u64, HashMap<usize, MruWarmupData>> =
            HashMap::with_capacity(capacities.len());
        for &requested in capacities {
            let capacity = requested.max(1).min(self.collection_capacity);
            result.entry(requested).or_insert_with(|| {
                raw.iter()
                    .map(|(target, lists)| {
                        let per_thread =
                            lists.iter().map(|list| truncate_raw(list, capacity)).collect();
                        (*target, MruWarmupData { per_thread, capacity_lines: capacity })
                    })
                    .collect()
            });
        }
        result
    }

    /// Bytes held by the interval records — the *actual* snapshot cost of a
    /// fused pass, reported in sweep counters where the old code compared a
    /// `threads × regions × capacity` worst case against a byte cap.
    pub fn snapshot_bytes(&self) -> u64 {
        let record = std::mem::size_of::<IntervalRecord>() as u64;
        self.per_thread.iter().map(|records| records.len() as u64 * record).sum()
    }

    /// Total interval records across all threads.
    pub fn interval_records(&self) -> usize {
        self.per_thread.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workload::{Benchmark, CheckpointError, Workload, WorkloadConfig};
    use proptest::prelude::*;

    /// One thread's windowed engine and interval recorder, fed by the test
    /// loops below the way bp-core's trace walk feeds an MRU-only walk.
    struct Walker {
        engine: RecencyEngine,
        recorder: IntervalRecorder,
    }

    impl Walker {
        fn new(boundaries: &[usize], capacity: u64) -> Self {
            Self {
                engine: RecencyEngine::with_window(capacity),
                recorder: IntervalRecorder::new(boundaries, capacity),
            }
        }

        /// Records one access.
        fn access(&mut self, line: u64, is_write: bool) {
            self.recorder.touched(&self.engine.touch(line, is_write));
        }

        /// Walks regions `from..until` of `thread`'s trace: each region is
        /// entered, and the walk stops at the first region entered with no
        /// boundary left ahead.
        fn walk(&mut self, w: &impl Workload, thread: usize, from: usize, until: usize) {
            for region in from..until.min(w.num_regions()) {
                self.recorder.enter_region(&mut self.engine, region);
                if !self.recorder.wants_more() {
                    break;
                }
                for exec in w.region_trace(region, thread) {
                    for access in &exec.accesses {
                        self.access(access.line(), access.kind.is_write());
                    }
                }
            }
        }

        /// Resumes at `region` from a window image taken there.
        fn restore(&mut self, region: usize, bytes: &[u8]) -> Result<(), CheckpointError> {
            self.engine.restore(None, Some(bytes))?;
            self.recorder.resume_at(region);
            Ok(())
        }
    }

    /// One lone [`Walker`] per thread of `w` (each on its own OS thread when
    /// `parallel`), stitched into a bank.
    fn thread_major_bank(
        w: &impl Workload,
        boundaries: &[usize],
        capacity: u64,
        parallel: bool,
    ) -> MruSnapshotBank {
        let walk = |thread: usize| {
            let mut walker = Walker::new(boundaries, capacity);
            walker.walk(w, thread, 0, w.num_regions());
            vec![walker.recorder]
        };
        let per_thread = if parallel {
            std::thread::scope(|scope| {
                let walks: Vec<_> =
                    (0..w.num_threads()).map(|t| scope.spawn(move || walk(t))).collect();
                walks.into_iter().map(|walk| walk.join().unwrap()).collect()
            })
        } else {
            (0..w.num_threads()).map(walk).collect()
        };
        MruSnapshotBank::from_recorders(per_thread)
    }

    /// The warmup payloads of `targets` at `capacity` lines, from a bank
    /// collected at that capacity.
    fn payloads(
        w: &impl Workload,
        targets: &[usize],
        capacity: u64,
    ) -> HashMap<usize, MruWarmupData> {
        thread_major_bank(w, targets, capacity, false).assemble(targets, capacity)
    }

    /// One thread's payload at `capacity` after `accesses`, from a bank
    /// collected at `collection` lines.
    fn payload_after(accesses: &[(u64, bool)], collection: u64, capacity: u64) -> Vec<(u64, bool)> {
        let mut walker = Walker::new(&[1], collection);
        walker.recorder.enter_region(&mut walker.engine, 0);
        for &(line, write) in accesses {
            walker.access(line, write);
        }
        walker.recorder.enter_region(&mut walker.engine, 1);
        let bank = MruSnapshotBank::from_recorders(vec![vec![walker.recorder]]);
        bank.assemble(&[1], capacity)[&1].per_thread()[0].clone()
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let reads: Vec<(u64, bool)> = (0..10u64).map(|line| (line, false)).collect();
        let lines = payload_after(&reads, 4, 4);
        // Only the four most recent lines remain, least recent first.
        assert_eq!(lines, vec![(6, false), (7, false), (8, false), (9, false)]);
    }

    #[test]
    fn re_access_moves_line_to_most_recent() {
        let mut accesses: Vec<(u64, bool)> = (0..5u64).map(|line| (line, false)).collect();
        accesses.push((1, true));
        let lines = payload_after(&accesses, 8, 8);
        assert_eq!(lines.last(), Some(&(1, true)));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn written_lines_stay_marked_dirty() {
        assert_eq!(payload_after(&[(42, true), (42, false)], 8, 8), vec![(42, true)]);
    }

    #[test]
    fn dirty_state_is_lost_exactly_where_a_smaller_collector_would_evict() {
        // Write A, read B, read A: at capacity 1 the write to A is evicted by
        // B before A returns, so A re-enters clean; at capacity >= 2 A stays
        // resident and the sticky dirty bit survives.
        let accesses = [(0xa, true), (0xb, false), (0xa, false)];
        assert_eq!(payload_after(&accesses, 4, 1), vec![(0xa, false)]);
        assert_eq!(payload_after(&accesses, 4, 2), vec![(0xb, false), (0xa, true)]);
        // And a bank collected at capacity 1 agrees bit for bit.
        assert_eq!(payload_after(&accesses, 1, 1), payload_after(&accesses, 4, 1));
    }

    #[test]
    fn first_region_has_empty_warmup() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let data = payloads(&w, &[0, 3], 1024);
        assert!(data[&0].is_empty());
        assert!(!data[&3].is_empty());
        assert!(data[&3].total_lines() as u64 <= 1024 * 2);
    }

    #[test]
    fn later_targets_accumulate_more_state_up_to_capacity() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let data = payloads(&w, &[1, 10], 100_000);
        assert!(data[&10].total_lines() >= data[&1].total_lines());
    }

    #[test]
    fn collection_is_deterministic() {
        let w = Benchmark::NpbFt.build(&WorkloadConfig::new(2).with_scale(0.02));
        let a = payloads(&w, &[7], 4096);
        let b = payloads(&w, &[7], 4096);
        assert_eq!(a[&7], b[&7]);
    }

    #[test]
    fn thread_major_collection_handles_empty_and_out_of_range_targets() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let empty = thread_major_bank(&w, &[], 1024, true).assemble(&[], 1024);
        assert!(empty.is_empty());
        // Targets past the last region are simply absent.
        let clamped = thread_major_bank(&w, &[1, 999], 1024, false).assemble(&[1, 999], 1024);
        assert_eq!(clamped.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert!(clamped.contains_key(&1) && !clamped.contains_key(&999));
    }

    /// The single-capacity [`MruSnapshotBank::assemble`] wrapper is the
    /// multi-capacity assembly with one capacity — pinned here so the
    /// wrapper can never drift from the shared path.
    #[test]
    fn single_capacity_wrapper_is_the_multi_pass() {
        let w = Benchmark::NpbLu.build(&WorkloadConfig::new(2).with_scale(0.02));
        let targets = [1usize, 4];
        let bank = thread_major_bank(&w, &targets, 777, false);
        let single = bank.assemble(&targets, 777);
        let multi = bank.assemble_multi(&targets, &[777]);
        assert_eq!(single, multi[&777]);
    }

    /// Walks every thread of `w` as independent segments delimited by
    /// `cuts`, carrying state across cuts through checkpoint bytes only —
    /// exactly what the segment scheduler does with cached checkpoints.
    fn segmented_bank(
        w: &impl Workload,
        boundaries: &[usize],
        capacity: u64,
        cuts: &[usize],
    ) -> MruSnapshotBank {
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(w.num_regions());
        let per_thread = (0..w.num_threads())
            .map(|thread| {
                let mut snapshot: Option<(usize, Vec<u8>)> = None;
                let mut segments = Vec::new();
                for pair in bounds.windows(2) {
                    let (from, until) = (pair[0], pair[1]);
                    let mut walker = Walker::new(boundaries, capacity);
                    if let Some((region, bytes)) = snapshot.take() {
                        walker.restore(region, &bytes).expect("restore own snapshot");
                    }
                    walker.walk(w, thread, from, until);
                    snapshot = Some((until, walker.engine.window_image()));
                    segments.push(walker.recorder);
                }
                segments
            })
            .collect();
        MruSnapshotBank::from_recorders(per_thread)
    }

    #[test]
    fn segmented_walks_match_the_sequential_bank_bit_for_bit() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let regions = w.num_regions();
        let all: Vec<usize> = (0..regions).collect();
        let sequential = thread_major_bank(&w, &all, 1024, false);
        let cut_sets: Vec<Vec<usize>> = vec![
            vec![],
            vec![1],
            vec![regions / 2],
            vec![regions - 1],
            vec![1, 2, regions / 3, regions / 2],
            (1..regions).collect(), // one segment per region
        ];
        for cuts in &cut_sets {
            let segmented = segmented_bank(&w, &all, 1024, cuts);
            assert_eq!(segmented.boundaries(), sequential.boundaries(), "cuts {cuts:?}");
            for capacity in [1u64, 64, 700, 1024] {
                assert_eq!(
                    segmented.assemble(&all, capacity),
                    sequential.assemble(&all, capacity),
                    "cuts {cuts:?} capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn segmented_walks_handle_sparse_boundaries_and_cuts_between_them() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let regions = w.num_regions();
        // Sparse boundaries plus one past the region count (never reached);
        // cuts deliberately placed between and on top of boundaries.
        let boundaries = vec![0, 2, 5, regions - 1, regions + 10];
        let sequential = thread_major_bank(&w, &boundaries, 512, false);
        assert_eq!(sequential.boundaries(), &boundaries[..4]);
        for cuts in [vec![1], vec![2], vec![3, 4], vec![1, 5, regions - 1]] {
            let segmented = segmented_bank(&w, &boundaries, 512, &cuts);
            assert_eq!(segmented.boundaries(), sequential.boundaries(), "cuts {cuts:?}");
            for capacity in [1u64, 16, 512] {
                assert_eq!(
                    segmented.assemble(&boundaries, capacity),
                    sequential.assemble(&boundaries, capacity),
                    "cuts {cuts:?} capacity {capacity}"
                );
            }
        }
    }
    #[test]
    fn mru_snapshot_bytes_are_deterministic() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let boundaries: Vec<usize> = (0..w.num_regions()).collect();
        let walk = || {
            let mut walker = Walker::new(&boundaries, 256);
            walker.walk(&w, 0, 0, w.num_regions());
            walker.engine.window_image()
        };
        assert_eq!(walk(), walk());
    }

    #[test]
    fn mru_restore_rejects_corrupt_and_mismatched_checkpoints() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let boundaries: Vec<usize> = (0..w.num_regions()).collect();
        let mut source = Walker::new(&boundaries, 256);
        source.walk(&w, 0, 0, 3);
        let bytes = source.engine.window_image();

        // Capacity recorded in the checkpoint must match the engine's.
        let mut wrong_capacity = Walker::new(&boundaries, 128);
        assert!(wrong_capacity.restore(3, &bytes).is_err());

        let mut truncated = Walker::new(&boundaries, 256);
        assert!(truncated.restore(3, &bytes[..bytes.len() - 1]).is_err());

        let mut extended = bytes.clone();
        extended.push(0);
        let mut trailing = Walker::new(&boundaries, 256);
        assert!(trailing.restore(3, &extended).is_err());

        let mut ok = Walker::new(&boundaries, 256);
        assert!(ok.restore(3, &bytes).is_ok());
        assert_eq!(ok.recorder.next, boundaries.partition_point(|&b| b < 3));
        assert_eq!(ok.recorder.since, 0);
    }

    /// Feeds regions `from..until` of a direct access stream — chopped into
    /// pseudo-regions of `stride` accesses — through a walker's boundary
    /// and recording path.
    fn feed(
        walker: &mut Walker,
        accesses: &[(u64, bool)],
        stride: usize,
        from: usize,
        until: usize,
    ) {
        for (region, chunk) in accesses.chunks(stride).enumerate().take(until).skip(from) {
            walker.recorder.enter_region(&mut walker.engine, region);
            for &(line, write) in chunk {
                walker.access(line, write);
            }
        }
    }

    proptest! {
        /// Cutting the stream at an arbitrary region and carrying state
        /// across the cut through checkpoint bytes alone must leave bank
        /// assembly unchanged at every probe capacity.
        #[test]
        fn segmented_direct_feed_matches_sequential(
            accesses in proptest::collection::vec((0u64..48, any::<bool>()), 1..800),
            collection_capacity in 1u64..24,
            probe_capacity in 1u64..32,
            stride in 1usize..40,
            cut in 0usize..64,
        ) {
            let num_regions = accesses.len().div_ceil(stride);
            let cut = cut.min(num_regions);
            let boundaries: Vec<usize> = (0..num_regions).collect();
            let mut sequential = Walker::new(&boundaries, collection_capacity);
            feed(&mut sequential, &accesses, stride, 0, num_regions);
            let mut first = Walker::new(&boundaries, collection_capacity);
            feed(&mut first, &accesses, stride, 0, cut);
            let bytes = first.engine.window_image();
            let mut second = Walker::new(&boundaries, collection_capacity);
            second.restore(cut, &bytes).expect("restore own snapshot");
            feed(&mut second, &accesses, stride, cut, num_regions);
            let seq_bank = MruSnapshotBank::from_recorders(vec![vec![sequential.recorder]]);
            let seg_bank = MruSnapshotBank::from_recorders(vec![vec![first.recorder, second.recorder]]);
            prop_assert_eq!(
                seg_bank.assemble(&boundaries, probe_capacity),
                seq_bank.assemble(&boundaries, probe_capacity)
            );
        }
    }
}
