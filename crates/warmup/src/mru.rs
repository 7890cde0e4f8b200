use bp_workload::{BlockExecution, LineMap, RecencyEngine, Residency, Touch, Workload};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
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

/// Per-line recency state inside the collector.
///
/// `dirty_depth` encodes the dirty bit for *every* capacity at once: the
/// line is dirty at capacity `c` iff `dirty_depth < c`.  It is the maximum
/// recency depth (number of distinct more recently used lines) this line has
/// reached since its last write — the depth at which a capacity-`c` collector
/// would have evicted it, losing the dirty state.  `u64::MAX` marks a line
/// with no write in its current residency (clean at every capacity).
#[derive(Debug, Clone, Copy)]
struct LineState {
    seq: u64,
    /// Monotonic per-thread access counter, assigned alongside `seq` but —
    /// unlike `seq` — never renumbered by compaction: among live lines,
    /// ordering by `tick` always equals ordering by `seq`.  Read only by
    /// the checkpoint image, which tests compare with the recency engine's.
    #[cfg_attr(not(test), allow(dead_code))]
    tick: u64,
    dirty_depth: u64,
}

/// Marks an empty recency slot.  Never a real line: line addresses are byte
/// addresses shifted down by the line size, so their top bits are clear.
const NO_LINE: u64 = u64::MAX;

fn tree_add(tree: &mut [u64], mut idx: usize, delta: i64) {
    while idx < tree.len() {
        tree[idx] = (tree[idx] as i64 + delta) as u64;
        idx += idx & idx.wrapping_neg();
    }
}

fn tree_prefix_sum(tree: &[u64], idx: usize) -> u64 {
    let mut sum = 0;
    let mut idx = idx.min(tree.len().saturating_sub(1));
    while idx > 0 {
        sum += tree[idx];
        idx -= idx & idx.wrapping_neg();
    }
    sum
}

/// One thread's MRU recency state.
///
/// The recency list is a vector of slots indexed by access sequence number:
/// slot `s` holds the line whose current residency began with sequence `s`,
/// or [`NO_LINE`] once that line was re-accessed (moving to a newer slot) or
/// evicted.  Appending the newest residency and vacating an old one are
/// `O(1)`; eviction advances a head cursor past vacated slots, amortised
/// `O(1)`; in-order iteration is a scan from the head.  A Fenwick tree over
/// the same sequence numbers answers the dirty-depth query ("how many
/// distinct lines were touched since this line's own last access?") in
/// `O(log n)`, and a [`LineMap`] maps each live line to its state — one
/// lookup per access.
/// [`maybe_compact`](Self::maybe_compact) renumbers the live sequences once
/// the sequence space far outgrows the live set, which bounds both the slot
/// vector and the tree by the collection capacity.
#[derive(Debug, Clone)]
struct ThreadMruState {
    /// Sequence -> line ([`NO_LINE`] for a vacated slot); `slots.len() ==
    /// next_seq + 1` (sequence 0 is never assigned).
    slots: Vec<u64>,
    /// No live sequence is below `head`.
    head: usize,
    /// Line -> recency state, live residencies only.
    by_line: LineMap<LineState>,
    /// Fenwick tree over sequence numbers; `tree[s] == 1` iff sequence `s`
    /// is live.  1-based, power-of-two sized.
    tree: Vec<u64>,
    /// Next sequence number (per thread; renumbered by compaction).
    next_seq: u64,
    /// Next access tick (per thread; never renumbered — see
    /// [`LineState::tick`]).
    next_tick: u64,
}

impl Default for ThreadMruState {
    fn default() -> Self {
        Self {
            slots: vec![NO_LINE],
            head: 1,
            by_line: LineMap::default(),
            tree: Vec::new(),
            next_seq: 0,
            next_tick: 0,
        }
    }
}

impl ThreadMruState {
    /// Number of live residencies.
    fn len(&self) -> usize {
        self.by_line.len()
    }

    /// The live `(seq, line)` residencies, least recent first.
    fn live(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots[self.head..]
            .iter()
            .enumerate()
            .filter(|&(_, &line)| line != NO_LINE)
            .map(move |(offset, &line)| ((self.head + offset) as u64, line))
    }

    /// The live lines, least recent first.
    fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.live().map(|(_, line)| line)
    }

    /// Appends `line` as the residency with the newest sequence number
    /// `next_seq` (already incremented) and marks it live.  Must be called
    /// *after* `by_line` holds the line: growing the tree rebuilds from the
    /// live set, which must already include it.
    fn push(&mut self, line: u64) {
        self.slots.push(line);
        let idx = self.next_seq as usize;
        if idx >= self.tree.len() {
            self.rebuild_tree((idx + 1).next_power_of_two().max(64));
        } else {
            tree_add(&mut self.tree, idx, 1);
        }
    }

    /// Vacates the residency slot `seq`.
    fn vacate(&mut self, seq: u64) {
        self.slots[seq as usize] = NO_LINE;
        tree_add(&mut self.tree, seq as usize, -1);
    }

    /// Removes and returns the least recent live line and its state.
    fn pop_oldest(&mut self) -> Option<(u64, LineState)> {
        while self.slots.get(self.head) == Some(&NO_LINE) {
            self.head += 1;
        }
        let line = *self.slots.get(self.head)?;
        self.vacate(self.head as u64);
        self.head += 1;
        self.by_line.remove(&line).map(|state| (line, state))
    }

    /// Rebuilds the Fenwick tree at `len` slots from the live set.  (A
    /// Fenwick tree cannot simply be zero-extended: appended internal nodes
    /// cover existing index ranges.)
    fn rebuild_tree(&mut self, len: usize) {
        self.tree.clear();
        self.tree.resize(len, 0);
        for seq in self.head..self.slots.len() {
            if self.slots[seq] != NO_LINE {
                tree_add(&mut self.tree, seq, 1);
            }
        }
    }

    /// Renumbers the live sequences to `1..=n` (preserving order) once the
    /// sequence space far outgrows the capacity-bounded live set, keeping
    /// the slot vector and the Fenwick tree proportional to the collection
    /// capacity rather than to the trace length.
    fn maybe_compact(&mut self) {
        if self.next_seq <= 4096 || self.next_seq < 8 * (self.len() as u64 + 1) {
            return;
        }
        let lines: Vec<u64> = self.lines().collect();
        self.slots.clear();
        self.slots.push(NO_LINE);
        for (i, &line) in lines.iter().enumerate() {
            self.slots.push(line);
            match self.by_line.get_mut(&line) {
                Some(state) => state.seq = i as u64 + 1,
                // The slots and `by_line` always hold the same line set.
                None => unreachable!("line {line:#x} in a slot but not by_line"),
            }
        }
        self.head = 1;
        self.next_seq = lines.len() as u64;
        self.rebuild_tree((lines.len() + 2).next_power_of_two().max(64));
    }
}

/// Streaming collector of per-core MRU unique-line state.
///
/// Feed it the application's inter-barrier regions in program order; at any
/// region boundary, [`MruCollector::snapshot`] yields the warmup data that a
/// barrierpoint starting at that boundary needs.
///
/// The collector runs at one *collection capacity* but can snapshot at any
/// smaller capacity too ([`MruCollector::snapshot_at`]), bit-identically to
/// a collector run directly at that capacity: the MRU list's inclusion
/// property makes the smaller list a suffix of the larger one, and a
/// per-line *dirty depth* (the maximum recency depth reached since the
/// line's last write) reconstructs the capacity-dependent dirty bit — a
/// smaller collector loses a line's written state whenever the line's
/// recency depth exceeds that capacity, so the line is dirty at capacity
/// `c` iff its dirty depth is below `c`.
///
/// The collector keeps its own recency list, the engine of the region-major
/// oracles [`collect_mru_warmup`] and [`PerBoundarySnapshotBank::collect`].
/// The thread-major walks read the same window from `bp-workload`'s
/// [`RecencyEngine`] instead.
#[derive(Debug, Clone)]
pub struct MruCollector {
    threads: Vec<ThreadMruState>,
    capacity_lines: u64,
}

impl MruCollector {
    /// Creates a collector for `threads` threads with a per-core bound of
    /// `capacity_lines` unique lines (the paper uses the total shared LLC
    /// capacity visible to a core).
    pub fn new(threads: usize, capacity_lines: u64) -> Self {
        Self {
            threads: vec![ThreadMruState::default(); threads],
            capacity_lines: capacity_lines.max(1),
        }
    }

    /// The collection capacity (upper bound for [`snapshot_at`](Self::snapshot_at)).
    pub fn capacity_lines(&self) -> u64 {
        self.capacity_lines
    }

    /// Records one access by `thread` to cache line `line`, returning the
    /// line this access evicted from the thread's recency list (if any).
    ///
    /// One [`LineMap`] lookup finds the line's previous residency; its slot
    /// is vacated and the line appended at the newest sequence in `O(1)`,
    /// and eviction pops the oldest live slot in amortised `O(1)`.  Only the
    /// Fenwick tree costs `O(log n)`: one update per appended or vacated
    /// slot, plus one prefix sum when a written line is re-read.  `line` is
    /// a cache-line number ([`MemoryAccess::line`](bp_workload::MemoryAccess::line)),
    /// never `u64::MAX`, which marks a vacated slot.
    pub fn record(&mut self, thread: usize, line: u64, is_write: bool) -> Option<u64> {
        let capacity = self.capacity_lines;
        let state = &mut self.threads[thread];
        state.maybe_compact();
        state.next_seq += 1;
        state.next_tick += 1;
        let seq = state.next_seq;
        let tick = state.next_tick;
        let live = state.len() as u64;
        let previous = match state.by_line.entry(line) {
            Entry::Occupied(mut slot) => {
                let prev = *slot.get();
                let dirty_depth = if is_write {
                    // A write is in-residency at every capacity that still
                    // holds the line.
                    0
                } else if prev.dirty_depth == u64::MAX {
                    // Never written in this residency: stays clean
                    // everywhere.  `u64::MAX` is absorbing, so the depth
                    // query is skipped.
                    u64::MAX
                } else {
                    // Read of a line written earlier in this residency: the
                    // dirty state survives at capacity `c` only if the line
                    // never sank to depth >= c since that write.  The
                    // current depth is the number of distinct lines touched
                    // since the line's own last access — all still
                    // resident, because this line is.
                    prev.dirty_depth.max(live - tree_prefix_sum(&state.tree, prev.seq as usize))
                };
                slot.insert(LineState { seq, tick, dirty_depth });
                Some(prev)
            }
            Entry::Vacant(slot) => {
                // (Re-)entering the list: a write re-enters dirty at every
                // capacity, a read clean everywhere.
                let dirty_depth = if is_write { 0 } else { u64::MAX };
                slot.insert(LineState { seq, tick, dirty_depth });
                None
            }
        };
        if let Some(prev) = previous {
            state.vacate(prev.seq);
        }
        state.push(line);
        let evicted = if state.len() as u64 > capacity { state.pop_oldest() } else { None };
        evicted.map(|(line, _)| line)
    }

    /// Walks every thread's trace of `region`, recording all its accesses.
    pub fn observe_region<W: Workload + ?Sized>(&mut self, workload: &W, region: usize) {
        let mut exec = BlockExecution::default();
        for thread in 0..workload.num_threads() {
            let mut trace = workload.region_trace(region, thread);
            while trace.next_into(&mut exec) {
                for access in &exec.accesses {
                    self.record(thread, access.line(), access.kind.is_write());
                }
            }
        }
    }

    /// The warmup data corresponding to the current point in the program, at
    /// the full collection capacity.
    pub fn snapshot(&self) -> MruWarmupData {
        self.snapshot_at(self.capacity_lines)
    }

    /// The warmup data a collector bounded by `capacity_lines` (clamped to
    /// the collection capacity) would hold at this point — bit-identical to
    /// running a dedicated collector at that capacity over the same
    /// accesses.  This is what lets one collection pass at the largest LLC
    /// capacity of a design-space sweep serve every smaller capacity by
    /// truncation.
    pub fn snapshot_at(&self, capacity_lines: u64) -> MruWarmupData {
        let capacity = capacity_lines.max(1).min(self.capacity_lines);
        let per_thread =
            self.threads.iter().map(|state| Self::truncate_thread(state, capacity)).collect();
        MruWarmupData { per_thread, capacity_lines: capacity }
    }

    /// The most recent `capacity` entries of one thread's recency list
    /// (least recent first), with the capacity-dependent dirty bit.
    fn truncate_thread(state: &ThreadMruState, capacity: u64) -> Vec<(u64, bool)> {
        let skip = (state.len() as u64).saturating_sub(capacity) as usize;
        state
            .lines()
            .skip(skip)
            .map(|line| {
                let dirty = state.by_line.get(&line).is_some_and(|s| s.dirty_depth < capacity);
                (line, dirty)
            })
            .collect()
    }

    /// Raw per-thread recency state — `(line, dirty_depth)` least recent
    /// first — from which [`PerBoundarySnapshotBank`] derives every
    /// requested capacity's payload after the streaming pass.
    fn raw_thread_state(&self, thread: usize) -> Vec<(u64, u64)> {
        let state = &self.threads[thread];
        state
            .lines()
            .map(|line| {
                let depth = state.by_line.get(&line).map_or(u64::MAX, |s| s.dirty_depth);
                (line, depth)
            })
            .collect()
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

/// The per-boundary raw-snapshot bank — the test oracle for
/// [`MruSnapshotBank`]: it keeps the *full* raw recency list of every
/// requested boundary, so it grows as `boundaries × capacity` regardless of
/// how little the cache contents change between boundaries.  Same assembly
/// semantics as the interval-sharing bank, in the simplest possible
/// formulation, so equivalence tests can pin the interval encoding on any
/// workload, boundary subset and capacity.
#[derive(Debug)]
pub struct PerBoundarySnapshotBank {
    boundaries: Vec<usize>,
    collection_capacity: u64,
    /// `[thread][boundary index] -> (line, dirty_depth)` least recent first.
    per_thread: Vec<Vec<Vec<(u64, u64)>>>,
}

impl PerBoundarySnapshotBank {
    /// Collects the bank of `workload` at `boundaries` (deduplicated and
    /// sorted; a boundary `r` snapshot reflects all accesses of regions
    /// `0..r`, and boundaries at or past the region count are never
    /// reached) with an [`MruCollector`] at `collection_capacity` lines
    /// (clamped to at least 1), walking regions in program order up to the
    /// last boundary.
    pub fn collect<W: Workload + ?Sized>(
        workload: &W,
        boundaries: &[usize],
        collection_capacity: u64,
    ) -> Self {
        let mut boundaries = boundaries.to_vec();
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries.retain(|&boundary| boundary < workload.num_regions());
        let threads = workload.num_threads();
        let mut collector = MruCollector::new(threads, collection_capacity);
        let mut per_thread = vec![Vec::with_capacity(boundaries.len()); threads];
        let mut walked = 0;
        for &boundary in &boundaries {
            for region in walked..boundary {
                collector.observe_region(workload, region);
            }
            walked = boundary;
            for (thread, snapshots) in per_thread.iter_mut().enumerate() {
                snapshots.push(collector.raw_thread_state(thread));
            }
        }
        Self { boundaries, collection_capacity: collector.capacity_lines(), per_thread }
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

    /// The warmup payload of every requested target present in the bank, at
    /// `capacity` lines (clamped to `1..=collection_capacity`) — bit
    /// identical to a dedicated collection at that capacity.
    pub fn assemble(&self, targets: &[usize], capacity: u64) -> HashMap<usize, MruWarmupData> {
        let capacity = capacity.max(1).min(self.collection_capacity);
        let mut result = HashMap::with_capacity(targets.len());
        for &target in targets {
            let Ok(idx) = self.boundaries.binary_search(&target) else { continue };
            result.entry(target).or_insert_with(|| MruWarmupData {
                per_thread: self
                    .per_thread
                    .iter()
                    .map(|snaps| truncate_raw(&snaps[idx], capacity))
                    .collect(),
                capacity_lines: capacity,
            });
        }
        result
    }

    /// [`assemble`](Self::assemble) for several capacities at once, keyed by
    /// the capacity values as given (duplicates collapse).
    pub fn assemble_multi(
        &self,
        targets: &[usize],
        capacities: &[u64],
    ) -> HashMap<u64, HashMap<usize, MruWarmupData>> {
        let mut result: HashMap<u64, HashMap<usize, MruWarmupData>> =
            HashMap::with_capacity(capacities.len());
        for &requested in capacities {
            result.entry(requested).or_insert_with(|| self.assemble(targets, requested));
        }
        result
    }

    /// Bytes held by the raw per-boundary snapshots — the worst case the
    /// interval encoding is measured against.
    pub fn snapshot_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<(u64, u64)>() as u64;
        self.per_thread
            .iter()
            .map(|snaps| snaps.iter().map(|s| s.len() as u64 * entry).sum::<u64>())
            .sum()
    }
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

/// Collects MRU warmup data for each region in `targets` by streaming the
/// application's regions in program order (a single pass, as the paper's
/// Pintool does at 20–30x native slowdown).
///
/// Returns a map from target region index to its warmup data; the data for
/// region `r` reflects all accesses of regions `0..r`.
///
/// This is the serial, region-major reference: the thread-major walks'
/// [`IntervalRecorder`]s, assembled through [`MruSnapshotBank`] at any
/// capacity up to the collection capacity, must reproduce it bit for bit.
pub fn collect_mru_warmup<W: Workload + ?Sized>(
    workload: &W,
    targets: &[usize],
    capacity_lines: u64,
) -> HashMap<usize, MruWarmupData> {
    let mut wanted: Vec<usize> = targets.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let mut collector = MruCollector::new(workload.num_threads(), capacity_lines);
    let mut result = HashMap::with_capacity(wanted.len());
    let last = wanted.last().copied().unwrap_or(0);
    for region in 0..=last.min(workload.num_regions().saturating_sub(1)) {
        if wanted.binary_search(&region).is_ok() {
            result.insert(region, collector.snapshot());
        }
        if region < last {
            collector.observe_region(workload, region);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workload::{Benchmark, CheckpointError, WorkloadConfig};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One live residency in a checkpoint image: `(seq, line, tick,
    /// dirty_depth)`.
    type CheckpointEntry = (u64, u64, u64, u64);

    /// The collector state's checkpoint image, the oracle for the recency
    /// engine's window image.
    impl ThreadMruState {
        /// The state's checkpoint image: `(next_seq, next_tick, entries)` with
        /// the live residencies in recency order as `(seq, line, tick,
        /// dirty_depth)`.  Sequence numbers are preserved verbatim (not
        /// renumbered), so a restored state reproduces future behaviour —
        /// including [`maybe_compact`](Self::maybe_compact) timing, which
        /// depends only on `next_seq` and the live count — bit for bit.  The
        /// slot order makes the image deterministic.
        fn checkpoint(&self) -> (u64, u64, Vec<CheckpointEntry>) {
            let entries = self
                .live()
                .map(|(seq, line)| match self.by_line.get(&line) {
                    Some(state) => (seq, line, state.tick, state.dirty_depth),
                    // The slots and `by_line` always hold the same line set.
                    None => unreachable!("line {line:#x} in a slot but not by_line"),
                })
                .collect();
            (self.next_seq, self.next_tick, entries)
        }

        /// Rebuilds a state from a [`checkpoint`](Self::checkpoint) image,
        /// validating its internal consistency (checkpoints may arrive from a
        /// disk cache).  The Fenwick tree is reconstructed from the live set,
        /// exactly as compaction rebuilds it; its length never affects query
        /// results, only when the next growth-rebuild happens.
        fn from_checkpoint(
            next_seq: u64,
            next_tick: u64,
            entries: &[CheckpointEntry],
        ) -> Result<Self, String> {
            // `maybe_compact` keeps `next_seq <= max(4097, 8 * (live + 1))`
            // after every access; a larger counter cannot come from a real walk
            // and would size the slot vector by it.
            let bound = (8 * (entries.len() as u64 + 1)).max(4097);
            if next_seq > bound {
                return Err(format!("sequence counter {next_seq} past compaction bound {bound}"));
            }
            let mut state = Self {
                slots: vec![NO_LINE; next_seq as usize + 1],
                head: entries.first().map_or(next_seq as usize + 1, |entry| entry.0 as usize),
                next_seq,
                next_tick,
                ..Self::default()
            };
            let mut prev_seq = 0;
            for &(seq, line, tick, dirty_depth) in entries {
                if seq <= prev_seq {
                    return Err(format!("sequence {seq} not increasing"));
                }
                if seq > next_seq {
                    return Err(format!("live sequence {seq} past counter {next_seq}"));
                }
                if line == NO_LINE {
                    return Err(format!("line {line:#x} is the empty-slot marker"));
                }
                prev_seq = seq;
                let residency = LineState { seq, tick, dirty_depth };
                if state.by_line.insert(line, residency).is_some() {
                    return Err(format!("line {line:#x} recorded twice"));
                }
                state.slots[seq as usize] = line;
            }
            state.rebuild_tree((next_seq as usize + 2).next_power_of_two().max(64));
            Ok(state)
        }
    }

    /// The pre-Fenwick collector, kept verbatim as the oracle for the
    /// order-statistic and slot-vector rewrites: the recency list was a
    /// `BTreeMap` and the dirty-depth query an `O(depth)`
    /// `BTreeMap::range().count()` scan over it.
    #[derive(Debug, Clone)]
    struct ReferenceCollector {
        by_seq: Vec<BTreeMap<u64, u64>>,
        by_line: Vec<HashMap<u64, LineState>>,
        capacity_lines: u64,
        next_seq: u64,
    }

    impl ReferenceCollector {
        fn new(threads: usize, capacity_lines: u64) -> Self {
            Self {
                by_seq: vec![BTreeMap::new(); threads],
                by_line: vec![HashMap::new(); threads],
                capacity_lines: capacity_lines.max(1),
                next_seq: 0,
            }
        }

        fn record(&mut self, thread: usize, line: u64, is_write: bool) {
            self.next_seq += 1;
            let seq = self.next_seq;
            let tick = seq;
            let dirty_depth = if is_write {
                0
            } else {
                match self.by_line[thread].get(&line) {
                    Some(state) if state.dirty_depth == u64::MAX => u64::MAX,
                    Some(state) => {
                        let depth = self.by_seq[thread].range(state.seq + 1..).count() as u64;
                        state.dirty_depth.max(depth)
                    }
                    None => u64::MAX,
                }
            };
            if let Some(old) =
                self.by_line[thread].insert(line, LineState { seq, tick, dirty_depth })
            {
                self.by_seq[thread].remove(&old.seq);
            }
            self.by_seq[thread].insert(seq, line);
            if self.by_seq[thread].len() as u64 > self.capacity_lines {
                if let Some((&oldest, &old_line)) = self.by_seq[thread].iter().next() {
                    self.by_seq[thread].remove(&oldest);
                    self.by_line[thread].remove(&old_line);
                }
            }
        }

        fn snapshot_at(&self, capacity_lines: u64) -> Vec<Vec<(u64, bool)>> {
            let capacity = capacity_lines.max(1).min(self.capacity_lines);
            self.by_seq
                .iter()
                .zip(&self.by_line)
                .map(|(seqs, lines)| {
                    let skip = (seqs.len() as u64).saturating_sub(capacity) as usize;
                    seqs.iter()
                        .skip(skip)
                        .map(|(_, &line)| {
                            let dirty = lines.get(&line).is_some_and(|s| s.dirty_depth < capacity);
                            (line, dirty)
                        })
                        .collect()
                })
                .collect()
        }
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let mut collector = MruCollector::new(1, 4);
        for line in 0..10u64 {
            collector.record(0, line, false);
        }
        let data = collector.snapshot();
        assert_eq!(data.per_thread()[0].len(), 4);
        // Only the four most recent lines remain, least recent first.
        let lines: Vec<u64> = data.per_thread()[0].iter().map(|&(l, _)| l).collect();
        assert_eq!(lines, vec![6, 7, 8, 9]);
    }

    #[test]
    fn re_access_moves_line_to_most_recent() {
        let mut collector = MruCollector::new(1, 8);
        for line in 0..5u64 {
            collector.record(0, line, false);
        }
        collector.record(0, 1, true);
        let lines: Vec<(u64, bool)> = collector.snapshot().per_thread()[0].clone();
        assert_eq!(lines.last(), Some(&(1, true)));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn written_lines_stay_marked_dirty() {
        let mut collector = MruCollector::new(1, 8);
        collector.record(0, 42, true);
        collector.record(0, 42, false);
        let lines = collector.snapshot();
        assert_eq!(lines.per_thread()[0], vec![(42, true)]);
    }

    #[test]
    fn dirty_state_is_lost_exactly_where_a_smaller_collector_would_evict() {
        // Write A, read B, read A: at capacity 1 the write to A is evicted by
        // B before A returns, so A re-enters clean; at capacity >= 2 A stays
        // resident and the sticky dirty bit survives.
        let mut large = MruCollector::new(1, 4);
        large.record(0, 0xa, true);
        large.record(0, 0xb, false);
        large.record(0, 0xa, false);
        assert_eq!(large.snapshot_at(1).per_thread()[0], vec![(0xa, false)]);
        assert_eq!(large.snapshot_at(2).per_thread()[0], vec![(0xb, false), (0xa, true)]);

        // And a dedicated capacity-1 collector agrees bit for bit.
        let mut small = MruCollector::new(1, 1);
        small.record(0, 0xa, true);
        small.record(0, 0xb, false);
        small.record(0, 0xa, false);
        assert_eq!(small.snapshot().per_thread(), large.snapshot_at(1).per_thread());
    }

    #[test]
    fn fenwick_query_matches_the_reference_scan_across_compaction() {
        // A deterministic churn pattern long enough to trigger sequence
        // compaction (threshold 4096) at a small capacity, with periodic
        // re-reads of written lines so the depth query is exercised
        // throughout.
        let mut fast = MruCollector::new(1, 16);
        let mut slow = ReferenceCollector::new(1, 16);
        for i in 0..20_000u64 {
            let line = (i * 7) % 48;
            let write = i % 5 == 0;
            fast.record(0, line, write);
            slow.record(0, line, write);
            if i % 1000 == 999 {
                for capacity in [1, 3, 16, 64] {
                    assert_eq!(
                        fast.snapshot_at(capacity).per_thread(),
                        &slow.snapshot_at(capacity)[..],
                        "capacity {capacity} at access {i}"
                    );
                }
            }
        }
    }

    proptest! {
        /// The Fenwick-backed dirty-depth query must agree with the old
        /// `range().count()` scan on arbitrary access streams, at every
        /// snapshot capacity.
        #[test]
        fn fenwick_collector_matches_reference(
            accesses in proptest::collection::vec((0u64..32, any::<bool>()), 1..600),
            collection_capacity in 1u64..24,
            probe_capacity in 1u64..32,
        ) {
            let mut fast = MruCollector::new(1, collection_capacity);
            let mut slow = ReferenceCollector::new(1, collection_capacity);
            for &(line, write) in &accesses {
                fast.record(0, line, write);
                slow.record(0, line, write);
            }
            prop_assert_eq!(
                fast.snapshot_at(probe_capacity).per_thread(),
                &slow.snapshot_at(probe_capacity)[..]
            );
            prop_assert_eq!(fast.snapshot().per_thread(), &slow.snapshot_at(u64::MAX)[..]);
        }
    }

    #[test]
    fn first_region_has_empty_warmup() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let data = collect_mru_warmup(&w, &[0, 3], 1024);
        assert!(data[&0].is_empty());
        assert!(!data[&3].is_empty());
        assert!(data[&3].total_lines() as u64 <= 1024 * 2);
    }

    #[test]
    fn later_targets_accumulate_more_state_up_to_capacity() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let data = collect_mru_warmup(&w, &[1, 10], 100_000);
        assert!(data[&10].total_lines() >= data[&1].total_lines());
    }

    #[test]
    fn collection_is_deterministic() {
        let w = Benchmark::NpbFt.build(&WorkloadConfig::new(2).with_scale(0.02));
        let a = collect_mru_warmup(&w, &[7], 4096);
        let b = collect_mru_warmup(&w, &[7], 4096);
        assert_eq!(a[&7], b[&7]);
    }

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

    #[test]
    fn thread_major_collection_matches_region_major_bit_for_bit() {
        for threads in [1, 2, 4] {
            let w = Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.05));
            let targets = [0, 3, 9, 3]; // duplicate + first region on purpose
            let reference = collect_mru_warmup(&w, &targets, 2048);
            let serial = thread_major_bank(&w, &targets, 2048, false).assemble(&targets, 2048);
            let parallel = thread_major_bank(&w, &targets, 2048, true).assemble(&targets, 2048);
            assert_eq!(reference, serial, "{threads} threads, serial");
            assert_eq!(reference, parallel, "{threads} threads, parallel");
        }
    }

    #[test]
    fn thread_major_collection_handles_empty_and_out_of_range_targets() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let empty = thread_major_bank(&w, &[], 1024, true).assemble(&[], 1024);
        assert!(empty.is_empty());
        // Targets past the last region are simply absent, as in the serial pass.
        let clamped = thread_major_bank(&w, &[1, 999], 1024, false).assemble(&[1, 999], 1024);
        assert_eq!(
            clamped.keys().copied().collect::<Vec<_>>(),
            collect_mru_warmup(&w, &[1, 999], 1024).keys().copied().collect::<Vec<_>>()
        );
        assert!(clamped.contains_key(&1) && !clamped.contains_key(&999));
    }

    #[test]
    fn multi_capacity_collection_matches_direct_collection_per_capacity() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let targets = [2, 7];
        let capacities = [64u64, 512, 2048];
        let multi =
            thread_major_bank(&w, &targets, 2048, false).assemble_multi(&targets, &capacities);
        assert_eq!(multi.len(), capacities.len());
        for &capacity in &capacities {
            let direct = collect_mru_warmup(&w, &targets, capacity);
            assert_eq!(multi[&capacity], direct, "capacity {capacity}");
        }
    }

    #[test]
    fn multi_capacity_handles_duplicates_and_zero() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let multi = thread_major_bank(&w, &[3], 128, false).assemble_multi(&[3], &[128, 128, 0]);
        assert_eq!(multi.len(), 2, "duplicates collapse, 0 clamps to 1");
        assert_eq!(multi[&0], collect_mru_warmup(&w, &[3], 0));
        assert_eq!(multi[&128], collect_mru_warmup(&w, &[3], 128));
    }

    #[test]
    fn snapshot_bank_serves_any_boundary_subset() {
        // A bank snapshotting *every* boundary (what a fused cold pass
        // collects while the barrierpoint selection is still unknown) must
        // reproduce the targeted collection bit for bit, for any subset of
        // targets and any capacity up to the collection capacity.
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let all: Vec<usize> = (0..w.num_regions()).collect();
        let bank = thread_major_bank(&w, &all, 2048, false);
        assert_eq!(bank.boundaries(), &all[..]);
        assert_eq!(bank.collection_capacity(), 2048);
        for targets in [vec![0], vec![3, 9], vec![1, 5, 17, 44]] {
            for capacity in [64u64, 700, 2048] {
                let direct = collect_mru_warmup(&w, &targets, capacity);
                assert_eq!(bank.assemble(&targets, capacity), direct, "{targets:?}@{capacity}");
            }
        }
        // Targets outside the bank are skipped, mirroring the collectors.
        assert!(bank.assemble(&[999], 64).is_empty());
    }

    /// Both bank flavours over every thread of `w` at the same boundaries
    /// and collection capacity.
    fn both_banks(
        w: &impl Workload,
        boundaries: &[usize],
        capacity: u64,
    ) -> (MruSnapshotBank, PerBoundarySnapshotBank) {
        let interval = thread_major_bank(w, boundaries, capacity, false);
        (interval, PerBoundarySnapshotBank::collect(w, boundaries, capacity))
    }

    #[test]
    fn interval_bank_matches_the_per_boundary_oracle_on_every_boundary() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let all: Vec<usize> = (0..w.num_regions()).collect();
        let (interval, oracle) = both_banks(&w, &all, 2048);
        assert_eq!(interval.boundaries(), oracle.boundaries());
        for capacity in [1u64, 64, 700, 2048, 4096] {
            assert_eq!(
                interval.assemble(&all, capacity),
                oracle.assemble(&all, capacity),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn interval_bank_is_smaller_than_the_per_boundary_oracle() {
        // The whole point of the encoding: lines resident and untouched
        // across boundaries cost one record for the span, not one entry per
        // boundary.
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let all: Vec<usize> = (0..w.num_regions()).collect();
        let (interval, oracle) = both_banks(&w, &all, 2048);
        assert!(
            interval.snapshot_bytes() < oracle.snapshot_bytes(),
            "interval {} >= raw {}",
            interval.snapshot_bytes(),
            oracle.snapshot_bytes()
        );
        assert!(interval.interval_records() > 0);
    }

    #[test]
    fn interval_bank_handles_sparse_boundaries_and_truncation() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        // Sparse boundaries, one past the region count (never reached).
        let boundaries = vec![0, 2, 5, w.num_regions() - 1, w.num_regions() + 10];
        let (interval, oracle) = both_banks(&w, &boundaries, 512);
        assert_eq!(interval.boundaries(), oracle.boundaries());
        for capacity in [1u64, 16, 512] {
            assert_eq!(
                interval.assemble(&boundaries, capacity),
                oracle.assemble(&boundaries, capacity),
                "capacity {capacity}"
            );
        }
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
        let (sequential, oracle) = both_banks(&w, &all, 1024);
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
                assert_eq!(
                    segmented.assemble(&all, capacity),
                    oracle.assemble(&all, capacity),
                    "cuts {cuts:?} capacity {capacity} vs oracle"
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
        let (sequential, oracle) = both_banks(&w, &boundaries, 512);
        for cuts in [vec![1], vec![2], vec![3, 4], vec![1, 5, regions - 1]] {
            let segmented = segmented_bank(&w, &boundaries, 512, &cuts);
            assert_eq!(segmented.boundaries(), oracle.boundaries(), "cuts {cuts:?}");
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

    /// An engine's window truncated to `capacity`, least recent first, with
    /// the dirty bit at that capacity.
    fn window_at(engine: &RecencyEngine, capacity: u64) -> Vec<(u64, bool)> {
        let lines: Vec<u64> = engine.window().collect();
        let skip = lines.len().saturating_sub(capacity as usize);
        lines[skip..]
            .iter()
            .map(|&line| (line, engine.residency(line).is_some_and(|r| r.dirty_depth < capacity)))
            .collect()
    }

    /// The collector state's checkpoint in the window image's byte layout.
    fn state_image(collector: &MruCollector) -> Vec<u8> {
        let (next_seq, next_tick, entries) = collector.threads[0].checkpoint();
        let mut out = serde::Serializer::new();
        out.write_u64(collector.capacity_lines());
        out.write_u64(next_seq);
        out.write_u64(next_tick);
        out.write_len(entries.len());
        for (seq, line, tick, dirty_depth) in entries {
            out.write_u64(seq);
            out.write_u64(line);
            out.write_u64(tick);
            out.write_u64(dirty_depth);
        }
        out.into_bytes()
    }

    /// Feeds `accesses` to a one-thread collector and to a windowed engine,
    /// checking every eviction and, every `probe` accesses and at the end,
    /// the engine's window image against the collector's checkpoint and its
    /// window against the collector's snapshot at every capacity.
    fn check_window_images(accesses: &[(u64, bool)], capacity: u64, probe: usize) {
        let mut collector = MruCollector::new(1, capacity);
        let mut engine = RecencyEngine::with_window(capacity);
        for (index, &(line, write)) in accesses.iter().enumerate() {
            let evicted = collector.record(0, line, write);
            let touch = engine.touch(line, write);
            assert_eq!(touch.evicted.map(|(gone, _)| gone), evicted, "access {index}");
            if index % probe == 0 || index + 1 == accesses.len() {
                assert_eq!(engine.window_image(), state_image(&collector), "access {index}");
                for c in 1..=capacity.min(40) {
                    let expected = collector.snapshot_at(c).per_thread()[0].clone();
                    assert_eq!(window_at(&engine, c), expected, "access {index} capacity {c}");
                }
            }
        }
    }

    #[test]
    fn engine_window_image_matches_the_collector_across_compaction() {
        // 9,000 accesses re-reading written lines: the sequence space
        // compacts at both capacities, and capacity 16 evicts throughout.
        let accesses: Vec<(u64, bool)> =
            (0..9_000u64).map(|i| ((i * 7) % 48 + (i / 3000) * 5, i % 5 == 0)).collect();
        for capacity in [16, 4096] {
            check_window_images(&accesses, capacity, 997);
        }
    }

    #[test]
    fn recency_list_checkpoint_restores_across_compaction() {
        // Churn long enough to compact the sequence space several times at
        // capacity 16 (threshold 4096), re-reading written lines so the
        // dirty-depth query runs throughout; cut at a boundary past the
        // first compaction and carry the state across through checkpoint
        // bytes alone.
        let accesses: Vec<(u64, bool)> =
            (0..20_000u64).map(|i| ((i * 7) % 48 + (i / 3000) * 5, i % 5 == 0)).collect();
        let stride = 500;
        let regions = accesses.len().div_ceil(stride);
        let boundaries: Vec<usize> = (0..regions).collect();
        let cut = 23;
        let mut uninterrupted = Walker::new(&boundaries, 16);
        feed(&mut uninterrupted, &accesses, stride, 0, cut);
        let image = uninterrupted.engine.window_image();
        let next_seq = u64::from_le_bytes(image[8..16].try_into().unwrap());
        assert!(next_seq < (cut * stride) as u64, "no compaction before the cut");
        let mut first = Walker::new(&boundaries, 16);
        feed(&mut first, &accesses, stride, 0, cut);
        let bytes = first.engine.window_image();
        assert_eq!(bytes, uninterrupted.engine.window_image());
        let mut restored = Walker::new(&boundaries, 16);
        restored.restore(cut, &bytes).expect("restore own snapshot");
        for region in cut..regions {
            feed(&mut uninterrupted, &accesses, stride, region, region + 1);
            feed(&mut restored, &accesses, stride, region, region + 1);
            assert_eq!(
                restored.engine.window_image(),
                uninterrupted.engine.window_image(),
                "checkpoint image after region {region}"
            );
            for capacity in [1, 5, 16] {
                assert_eq!(
                    window_at(&restored.engine, capacity),
                    window_at(&uninterrupted.engine, capacity),
                    "capacity {capacity} after region {region}"
                );
            }
        }
        let sequential = MruSnapshotBank::from_recorders(vec![vec![uninterrupted.recorder]]);
        let stitched =
            MruSnapshotBank::from_recorders(vec![vec![first.recorder, restored.recorder]]);
        let capacities = [1, 5, 16, 40];
        assert_eq!(
            stitched.assemble_multi(&boundaries, &capacities),
            sequential.assemble_multi(&boundaries, &capacities)
        );
    }

    #[test]
    fn thread_state_from_checkpoint_validates_entries() {
        // Non-increasing sequence numbers.
        assert!(ThreadMruState::from_checkpoint(9, 9, &[(3, 1, 1, 0), (3, 2, 2, 0)]).is_err());
        // Duplicate line.
        assert!(ThreadMruState::from_checkpoint(9, 9, &[(1, 5, 1, 0), (2, 5, 2, 0)]).is_err());
        // Live sequence past the counter.
        assert!(ThreadMruState::from_checkpoint(1, 9, &[(4, 5, 1, 0)]).is_err());
        // The empty-slot marker is not a line.
        assert!(ThreadMruState::from_checkpoint(9, 9, &[(1, 5, 1, 0), (2, NO_LINE, 2, 0)]).is_err());
        // A counter no walk can reach (compaction bounds it by the live set).
        assert!(ThreadMruState::from_checkpoint(1 << 40, 9, &[(1, 5, 1, 0)]).is_err());
        // A well-formed image round-trips.
        let state = ThreadMruState::from_checkpoint(4, 4, &[(2, 5, 2, 0), (4, 7, 4, 1)])
            .expect("well-formed checkpoint");
        assert_eq!(state.checkpoint(), (4, 4, vec![(2, 5, 2, 0), (4, 7, 4, 1)]));
    }

    proptest! {
        /// The engine's window image and window equal the untouched
        /// collector's checkpoint and snapshots on random streams.
        #[test]
        fn engine_window_image_matches_the_collector_checkpoint(
            accesses in proptest::collection::vec((0u64..48, any::<bool>()), 1..600),
            capacity in 1u64..40,
        ) {
            check_window_images(&accesses, capacity, 23);
        }

        /// Interval assembly must reproduce the per-boundary oracle for
        /// arbitrary access streams, boundary placements, and capacities —
        /// including streams that churn the list hard enough to trigger
        /// sequence compaction inside a span.
        #[test]
        fn interval_bank_matches_oracle_on_random_streams(
            accesses in proptest::collection::vec((0u64..48, any::<bool>()), 1..800),
            collection_capacity in 1u64..24,
            probe_capacity in 1u64..32,
            stride in 1usize..40,
            targets in proptest::collection::vec(0usize..96, 0..12),
        ) {
            // Chop the stream into pseudo-regions of `stride` accesses and
            // snapshot at every region boundary, by feeding the walker and
            // the per-boundary collector directly (no workload needed for
            // this state machine).
            let num_regions = accesses.len().div_ceil(stride);
            let boundaries: Vec<usize> = (0..num_regions).collect();
            let mut interval = Walker::new(&boundaries, collection_capacity);
            feed(&mut interval, &accesses, stride, 0, num_regions);
            let mut collector = MruCollector::new(1, collection_capacity);
            let mut snapshots = Vec::with_capacity(num_regions);
            for chunk in accesses.chunks(stride) {
                snapshots.push(collector.raw_thread_state(0));
                for &(line, write) in chunk {
                    collector.record(0, line, write);
                }
            }
            let interval_bank = MruSnapshotBank::from_recorders(vec![vec![interval.recorder]]);
            let raw_bank = PerBoundarySnapshotBank {
                boundaries: boundaries.clone(),
                collection_capacity: collector.capacity_lines(),
                per_thread: vec![snapshots],
            };
            prop_assert_eq!(
                interval_bank.assemble(&boundaries, probe_capacity),
                raw_bank.assemble(&boundaries, probe_capacity)
            );
            // Untruncated, too: exactly the resident lines' records cover
            // each boundary (an evicted line's record must not linger).
            let expected: Vec<(usize, Vec<RawRecency>)> = raw_bank
                .boundaries
                .iter()
                .zip(&raw_bank.per_thread[0])
                .map(|(&boundary, raw)| (boundary, vec![raw.clone()]))
                .collect();
            prop_assert_eq!(interval_bank.reconstruct(&boundaries), expected);
            // Arbitrary target lists — unsorted, duplicated, partly past
            // the last boundary — at capacities below, at and above the
            // collection capacity, one at a time and all at once.
            let capacities = [
                1,
                (collection_capacity / 2).max(1),
                collection_capacity,
                collection_capacity + 5,
                probe_capacity,
            ];
            let multi = interval_bank.assemble_multi(&targets, &capacities);
            prop_assert_eq!(multi, raw_bank.assemble_multi(&targets, &capacities));
            for capacity in capacities {
                prop_assert_eq!(
                    interval_bank.assemble(&targets, capacity),
                    raw_bank.assemble(&targets, capacity)
                );
            }
        }

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
