//! The exact per-thread recency engine: one LRU stack that serves both
//! questions a trace walk asks of a thread's accesses.
//!
//! Signature profiling needs each access's *stack distance* (the number of
//! distinct lines touched since the line's previous access) for the LDV.
//! MRU warmup collection needs the *window* — the most recently used lines
//! up to a collection capacity — with each line's dirty state.  Both read
//! the same LRU stack: the window is the stack's top `capacity` lines, and a
//! windowed line's recency depth is its stack distance.  [`RecencyEngine`]
//! keeps that stack once: one `LineMap` entry per line, one Fenwick tree
//! over access timestamps, and — when a window is attached — a slot vector
//! indexed by window sequence number, holding each windowed line and its
//! residency, with a head cursor on the oldest windowed line.  The map entry
//! stays two words, so a walk without a window pays nothing for it.
//! [`RecencyEngine::touch`] finds an access's stack position with one map
//! lookup and one prefix sum, and returns everything both consumers need
//! ([`Touch`]).
//!
//! The engine's carried state is written as two checkpoint images: the
//! *profile image* `(time, total, [(timestamp, line)] by timestamp)` and
//! the *window image* `(capacity, next_seq, next_tick, [(seq, line, tick,
//! dirty_depth)] by seq)`.  Their bytes — timestamp and sequence numbering
//! and compaction rules included — are pinned by the golden checkpoint
//! digests of the emitting walks (`tests/segments.rs`), so a cached
//! checkpoint stays readable.

use crate::workload::LineMap;
use std::collections::hash_map::Entry;

/// Timestamps are renumbered once they pass this many *and* eight times the
/// distinct-line count.
const TIME_COMPACTION_FLOOR: usize = 1_048_576;

/// Window sequences are renumbered once they pass this many *and* eight
/// times the windowed-line count (plus one).
const SEQ_COMPACTION_FLOOR: u64 = 4096;

/// Marks an empty window slot.  Never a real line: line addresses are byte
/// addresses shifted down by the line size, so their top bits are clear.
const NO_LINE: u64 = u64::MAX;

/// One windowed line's residency: what the window keeps per line besides
/// its place in the recency order.  Every access to a line starts a new
/// residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residency {
    /// The thread's access counter at the access that began this residency.
    /// Unlike the window sequence it is never renumbered, so residencies
    /// captured at different times stay comparable: among windowed lines,
    /// ordering by `tick` is the recency order.
    pub tick: u64,
    /// The line's dirty bit at *every* capacity at once: the line is dirty
    /// at capacity `c` iff `dirty_depth < c`.  It is the largest recency
    /// depth the line reached since its last write in this residency —
    /// where a capacity-`c` window would have evicted it and lost the
    /// written state — and `u64::MAX` when the residency holds no write.
    pub dirty_depth: u64,
    /// An index the window's consumer attaches to this residency (the MRU
    /// collector's open interval record), [`Residency::NO_RECORD`] until it
    /// sets one.
    pub record: usize,
}

impl Residency {
    /// [`Residency::record`] of a residency no consumer has tagged.
    pub const NO_RECORD: usize = usize::MAX;
}

/// What one [`RecencyEngine::touch`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// The access's LRU stack distance, `None` for the line's first access.
    pub distance: Option<u64>,
    /// The residency the access ended, when the line was in the window.
    pub previous: Option<Residency>,
    /// The line the window evicted to make room, with its final residency.
    pub evicted: Option<(u64, Residency)>,
}

/// [`Residency`] of a line outside the window.
const NO_RESIDENCY: Residency =
    Residency { tick: 0, dirty_depth: u64::MAX, record: Residency::NO_RECORD };

/// One line's entry in the engine's map.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// The line's last-access timestamp: its one mark in the Fenwick tree.
    time: usize,
    /// The line's window sequence, 0 when the line is outside the window.
    seq: u64,
}

impl Mark {
    /// A line outside the window, last accessed at `time`.
    fn unwindowed(time: usize) -> Self {
        Self { time, seq: 0 }
    }
}

/// One window slot: the line whose residency began with the slot's
/// sequence ([`NO_LINE`] once that line moved on or was evicted), and that
/// residency.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    residency: Residency,
}

const EMPTY_SLOT: Slot = Slot { line: NO_LINE, residency: NO_RESIDENCY };

/// The MRU window: the stack's top `capacity` lines in sequence order.
#[derive(Debug, Clone)]
struct Window {
    capacity: u64,
    /// Sequence -> slot; `slots.len() == next_seq + 1` (sequence 0 is never
    /// assigned).
    slots: Vec<Slot>,
    /// No windowed sequence is below `head`.
    head: usize,
    /// Windowed lines.
    live: usize,
    next_seq: u64,
    next_tick: u64,
}

impl Window {
    fn new(capacity: u64) -> Self {
        Self { capacity, slots: vec![EMPTY_SLOT], head: 1, live: 0, next_seq: 0, next_tick: 0 }
    }

    /// The windowed `(seq, slot)`s, least recent first.
    fn live(&self) -> impl Iterator<Item = (u64, &Slot)> + '_ {
        let head = self.head;
        self.slots[head..]
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.line != NO_LINE)
            .map(move |(offset, slot)| ((head + offset) as u64, slot))
    }

    /// Renumbers the windowed sequences to `1..=live`, in order, once the
    /// sequence space far outgrows the window.  This bounds the slot vector
    /// by the capacity rather than by the trace length.
    fn maybe_compact(&mut self, marks: &mut LineMap<Mark>) {
        if self.next_seq <= SEQ_COMPACTION_FLOOR || self.next_seq < 8 * (self.live as u64 + 1) {
            return;
        }
        let mut kept = 1;
        for read in self.head..self.slots.len() {
            let slot = self.slots[read];
            if slot.line == NO_LINE {
                continue;
            }
            self.slots[kept] = slot;
            if let Some(mark) = marks.get_mut(&slot.line) {
                mark.seq = kept as u64;
            }
            kept += 1;
        }
        self.slots.truncate(kept);
        self.head = 1;
        self.next_seq = self.live as u64;
    }

    /// Empties slot `seq`, returning the residency it held.
    fn vacate(&mut self, seq: u64) -> Residency {
        let slot = &mut self.slots[seq as usize];
        slot.line = NO_LINE;
        self.live -= 1;
        slot.residency
    }

    /// Removes the least recent windowed line, returning it and its
    /// residency.  Only called on a window holding more than its capacity,
    /// so at least two are live.
    fn pop_oldest(&mut self) -> (u64, Residency) {
        while self.slots[self.head].line == NO_LINE {
            self.head += 1;
        }
        let seq = self.head as u64;
        self.head += 1;
        (self.slots[seq as usize].line, self.vacate(seq))
    }
}

fn tree_add(tree: &mut [u64], mut idx: usize, delta: i64) {
    while idx < tree.len() {
        tree[idx] = (tree[idx] as i64 + delta) as u64;
        idx += idx & idx.wrapping_neg();
    }
}

fn tree_prefix_sum(tree: &[u64], mut idx: usize) -> u64 {
    let mut sum = 0;
    while idx > 0 {
        sum += tree[idx];
        idx -= idx & idx.wrapping_neg();
    }
    sum
}

/// Moves a line's mark off its previous timestamp `previous`, returning its
/// stack distance: the marks after `previous`, out of `marked` in all.
fn unmark(tree: &mut [u64], marked: u64, previous: usize) -> u64 {
    let after = marked - tree_prefix_sum(tree, previous);
    tree_add(tree, previous, -1);
    after
}

/// One thread's exact LRU stack, with an optional MRU window on its top.
///
/// Every line ever touched holds one hash-map entry with its last-access
/// timestamp; a Fenwick tree marks the timestamps that are some line's
/// latest, so a line's stack distance is the number of marks after its
/// previous timestamp.  A windowed engine ([`with_window`]) also keeps the
/// top `capacity` lines in a slot vector indexed by window sequence, and
/// each windowed line's [`Residency`] in its slot.  A windowed line's
/// recency depth *is* its stack distance, so the window needs no order
/// statistic of its own.  An engine without a window ([`new`]) skips all
/// window work.
///
/// [`with_window`]: Self::with_window
/// [`new`]: Self::new
#[derive(Debug, Clone, Default)]
pub struct RecencyEngine {
    /// Fenwick tree over timestamps; `tree[t] == 1` iff `t` is the latest
    /// access of some line.  1-based, power-of-two sized.
    tree: Vec<u64>,
    marks: LineMap<Mark>,
    /// Latest timestamp; renumbered by compaction.
    time: usize,
    /// Accesses touched (never renumbered).
    total: u64,
    window: Option<Window>,
}

impl RecencyEngine {
    /// An engine without a window: [`touch`](Self::touch) returns distances
    /// only.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine keeping an MRU window of `capacity` lines (clamped to at
    /// least 1).
    pub fn with_window(capacity: u64) -> Self {
        Self { window: Some(Window::new(capacity.max(1))), ..Self::default() }
    }

    /// The window's capacity, `None` without a window.
    fn window_capacity(&self) -> Option<u64> {
        self.window.as_ref().map(|window| window.capacity)
    }

    /// Records an access to `line` — a cache-line number, never `u64::MAX` —
    /// and returns its stack distance and, with a window, the residency the
    /// access ended and the line the window evicted.
    ///
    /// One hash-map lookup finds the line; the Fenwick tree costs one
    /// prefix sum and two updates.  With a window, the line's old slot is
    /// vacated and a new one appended in `O(1)`, and an eviction pops the
    /// oldest live slot in amortised `O(1)` plus one more lookup.
    #[inline]
    pub fn touch(&mut self, line: u64, is_write: bool) -> Touch {
        // Keep the timestamp space proportional to the distinct lines.
        if self.time > TIME_COMPACTION_FLOOR && self.time > 8 * self.marks.len() {
            self.compact_times();
        }
        self.total += 1;
        self.time += 1;
        let now = self.time;
        if now >= self.tree.len() {
            self.rebuild_tree((now + 1).next_power_of_two().max(64));
        }
        // Every line holds exactly one mark, so the tree total is the
        // distinct-line count taken before this access.
        let marked = self.marks.len() as u64;
        let Some(window) = self.window.as_mut() else {
            let distance = match self.marks.entry(line) {
                Entry::Occupied(mut entry) => {
                    let previous = std::mem::replace(&mut entry.get_mut().time, now);
                    Some(unmark(&mut self.tree, marked, previous))
                }
                Entry::Vacant(entry) => {
                    entry.insert(Mark::unwindowed(now));
                    None
                }
            };
            tree_add(&mut self.tree, now, 1);
            return Touch { distance, previous: None, evicted: None };
        };
        window.maybe_compact(&mut self.marks);
        window.next_seq += 1;
        window.next_tick += 1;
        let seq = window.next_seq;
        let (distance, previous, dirty_depth) = match self.marks.entry(line) {
            Entry::Occupied(mut entry) => {
                let previous = std::mem::replace(entry.get_mut(), Mark { time: now, seq });
                let distance = unmark(&mut self.tree, marked, previous.time);
                let previous = (previous.seq != 0).then(|| window.vacate(previous.seq));
                let dirty_depth = match previous {
                    // A write is in-residency at every capacity that holds
                    // the line.
                    _ if is_write => 0,
                    // A read of a line written earlier in this residency
                    // keeps the dirty state at capacity `c` only if the line
                    // never sank to depth >= c since.  Its depth now is its
                    // stack distance.
                    Some(previous) if previous.dirty_depth != u64::MAX => {
                        previous.dirty_depth.max(distance)
                    }
                    // Never written in this residency, or re-entering the
                    // window on a read: clean everywhere.
                    _ => u64::MAX,
                };
                (Some(distance), previous, dirty_depth)
            }
            Entry::Vacant(entry) => {
                entry.insert(Mark { time: now, seq });
                (None, None, if is_write { 0 } else { u64::MAX })
            }
        };
        tree_add(&mut self.tree, now, 1);
        let residency =
            Residency { tick: window.next_tick, dirty_depth, record: Residency::NO_RECORD };
        window.slots.push(Slot { line, residency });
        window.live += 1;
        let evicted = (window.live as u64 > window.capacity).then(|| {
            let (gone, residency) = window.pop_oldest();
            if let Some(mark) = self.marks.get_mut(&gone) {
                mark.seq = 0;
            }
            (gone, residency)
        });
        Touch { distance, previous, evicted }
    }

    /// The windowed lines, least recent first (empty without a window).
    pub fn window(&self) -> impl Iterator<Item = u64> + '_ {
        self.window.iter().flat_map(|window| window.live().map(|(_, slot)| slot.line))
    }

    /// The current residency of `line`, `None` when it is not windowed.
    pub fn residency(&self, line: u64) -> Option<&Residency> {
        let seq = self.marks.get(&line)?.seq;
        let window = self.window.as_ref().filter(|_| seq != 0)?;
        Some(&window.slots[seq as usize].residency)
    }

    /// The [`tick`](Residency::tick) of the latest access (0 before the
    /// first, and without a window).
    pub fn tick(&self) -> u64 {
        self.window.as_ref().map_or(0, |window| window.next_tick)
    }

    /// Visits every windowed line whose residency began after `tick` — the
    /// lines touched since then that are still windowed — most recent
    /// first, with its residency (to set its [`record`](Residency::record)).
    /// Costs one slot per access since `tick`, with no map lookups.
    pub fn touched_since(&mut self, tick: u64, mut visit: impl FnMut(u64, &mut Residency)) {
        let Some(window) = self.window.as_mut() else { return };
        let head = window.head;
        for slot in window.slots[head..].iter_mut().rev() {
            if slot.line == NO_LINE {
                continue;
            }
            if slot.residency.tick <= tick {
                break;
            }
            visit(slot.line, &mut slot.residency);
        }
    }

    /// Rebuilds the Fenwick tree at `len` slots from the per-line marks.  (A
    /// Fenwick tree cannot simply be zero-extended: appended internal nodes
    /// cover existing timestamp ranges.)
    fn rebuild_tree(&mut self, len: usize) {
        self.tree.clear();
        self.tree.resize(len, 0);
        for mark in self.marks.values() {
            tree_add(&mut self.tree, mark.time, 1);
        }
    }

    /// The marks as `(timestamp, line)`, sorted by timestamp.
    fn marks_by_time(&self) -> Vec<(usize, u64)> {
        let mut entries: Vec<(usize, u64)> =
            self.marks.iter().map(|(&line, mark)| (mark.time, line)).collect();
        entries.sort_unstable();
        entries
    }

    /// Renumbers the timestamps to `1..=distinct lines`, keeping their
    /// order, so the tree stays proportional to the distinct lines rather
    /// than to the access count.
    fn compact_times(&mut self) {
        let entries = self.marks_by_time();
        for (new_time, (_, line)) in entries.iter().enumerate() {
            if let Some(mark) = self.marks.get_mut(line) {
                mark.time = new_time + 1;
            }
        }
        self.time = entries.len();
        self.rebuild_tree((self.time + 2).next_power_of_two().max(64));
    }

    /// The profile image: `time`, `total`, then every line's `(timestamp,
    /// line)` by timestamp.  Deterministic whatever the map's order.  Only
    /// an engine that has seen every line since region 0 — never one
    /// restored from a window image alone — can write it.
    pub fn profile_image(&self) -> Vec<u8> {
        let entries = self.marks_by_time();
        let mut out = serde::Serializer::new();
        out.write_u64(self.time as u64);
        out.write_u64(self.total);
        out.write_len(entries.len());
        for (time, line) in entries {
            out.write_u64(time as u64);
            out.write_u64(line);
        }
        out.into_bytes()
    }

    /// The window image: `capacity`, `next_seq`, `next_tick`, then every
    /// windowed line's `(seq, line, tick, dirty_depth)` in sequence order.
    /// Empty without a window.
    pub fn window_image(&self) -> Vec<u8> {
        let Some(window) = &self.window else { return Vec::new() };
        let mut out = serde::Serializer::new();
        out.write_u64(window.capacity);
        out.write_u64(window.next_seq);
        out.write_u64(window.next_tick);
        out.write_len(window.live);
        for (seq, slot) in window.live() {
            out.write_u64(seq);
            out.write_u64(slot.line);
            out.write_u64(slot.residency.tick);
            out.write_u64(slot.residency.dirty_depth);
        }
        out.into_bytes()
    }

    /// Replaces the engine's state with the given images, so it continues
    /// exactly as the engine that wrote them.  An engine without a window
    /// takes a profile image.  A windowed engine takes a window image of its
    /// own capacity, and a profile image too when the walk also profiles;
    /// from a window image alone it knows only the windowed lines, which is
    /// all a window needs (lines below the window re-enter it as new).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when an image is truncated or
    /// inconsistent, the window image is missing, unexpected or of another
    /// capacity, or the two images disagree: the window must hold exactly
    /// the profile image's `min(capacity, lines)` most recent lines, in the
    /// same order.
    pub fn restore(
        &mut self,
        profile: Option<&[u8]>,
        window: Option<&[u8]>,
    ) -> Result<(), CheckpointError> {
        let window = match (self.window_capacity(), window) {
            (Some(capacity), Some(bytes)) => Some(WindowImage::decode(bytes, capacity)?),
            (None, None) => None,
            (Some(_), None) => return Err(CheckpointError::new("mru state: missing")),
            (None, Some(_)) => {
                return Err(CheckpointError::new("mru state: the engine keeps no window"))
            }
        };
        let profile = match profile {
            Some(bytes) => Some(ProfileImage::decode(bytes)?),
            None if window.is_some() => None,
            None => return Err(CheckpointError::new("profiler state: missing")),
        };
        let mut restored = Self::default();
        if let Some(image) = &profile {
            restored.time = image.time as usize;
            restored.total = image.total;
            restored.marks = image
                .entries
                .iter()
                .map(|&(time, line)| (line, Mark::unwindowed(time as usize)))
                .collect();
        }
        if let Some(image) = window {
            match &profile {
                Some(profile) => image.check_against(profile)?,
                // Window image alone: the windowed lines in their order are
                // all of the stack the window ever consults.
                // (Its clock and access count are never observed: such an
                // engine writes no profile image.)
                None => {
                    restored.time = image.entries.len();
                    restored.total = image.next_tick;
                    for (index, &(_, line, _, _)) in image.entries.iter().enumerate() {
                        restored.marks.insert(line, Mark::unwindowed(index + 1));
                    }
                }
            }
            let mut window = Window::new(image.capacity);
            window.slots = vec![EMPTY_SLOT; image.next_seq as usize + 1];
            window.head =
                image.entries.first().map_or(window.slots.len(), |entry| entry.0 as usize);
            window.live = image.entries.len();
            window.next_seq = image.next_seq;
            window.next_tick = image.next_tick;
            for (seq, line, tick, dirty_depth) in image.entries {
                let residency = Residency { tick, dirty_depth, record: Residency::NO_RECORD };
                window.slots[seq as usize] = Slot { line, residency };
                if let Some(mark) = restored.marks.get_mut(&line) {
                    mark.seq = seq;
                }
            }
            restored.window = Some(window);
        }
        restored.rebuild_tree((restored.time + 2).next_power_of_two().max(64));
        *self = restored;
        Ok(())
    }
}

/// A checkpoint image could not be restored (truncated, corrupt, or
/// incompatible with the engine it was handed to).
///
/// Restoration failures are recoverable by construction: the caller can
/// walk the trace from region 0 instead, which needs no checkpoint at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    message: String,
}

impl CheckpointError {
    /// Creates an error carrying a human-readable reason.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint restore failed: {}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

/// A decoded, validated profile image.
struct ProfileImage {
    time: u64,
    total: u64,
    /// `(timestamp, line)`, strictly increasing timestamps in `1..=time`,
    /// distinct lines.
    entries: Vec<(u64, u64)>,
}

impl ProfileImage {
    fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let fail = |reason: String| CheckpointError::new(format!("profiler state: {reason}"));
        let corrupt = |e: serde::Error| fail(e.to_string());
        let mut de = serde::Deserializer::new(bytes);
        let time = de.read_u64().map_err(corrupt)?;
        let total = de.read_u64().map_err(corrupt)?;
        let len = de.read_len().map_err(corrupt)?;
        let mut entries = Vec::with_capacity(len.min(bytes.len() / 16 + 1));
        let mut lines = LineMap::default();
        let mut previous = 0;
        for _ in 0..len {
            let stamp = de.read_u64().map_err(corrupt)?;
            let line = de.read_u64().map_err(corrupt)?;
            if stamp <= previous || stamp > time {
                return Err(fail(format!("timestamp {stamp} out of order or past {time}")));
            }
            if lines.insert(line, ()).is_some() {
                return Err(fail(format!("line {line:#x} recorded twice")));
            }
            previous = stamp;
            entries.push((stamp, line));
        }
        if de.remaining() != 0 {
            return Err(fail("trailing bytes".to_string()));
        }
        // Compaction keeps `time <= max(floor + 1, 8 * lines + 1)` after
        // every access; a larger clock cannot come from a real walk and
        // would size the Fenwick tree by it.
        let bound = (TIME_COMPACTION_FLOOR as u64 + 1).max(8 * len as u64 + 1);
        if time > bound {
            return Err(fail(format!("clock {time} past compaction bound {bound}")));
        }
        Ok(Self { time, total, entries })
    }
}

/// A decoded, validated window image.
struct WindowImage {
    capacity: u64,
    next_seq: u64,
    next_tick: u64,
    /// `(seq, line, tick, dirty_depth)`, strictly increasing sequences in
    /// `1..=next_seq`, distinct real lines, at most `capacity` of them.
    entries: Vec<(u64, u64, u64, u64)>,
}

impl WindowImage {
    fn decode(bytes: &[u8], expected_capacity: u64) -> Result<Self, CheckpointError> {
        let fail = |reason: String| CheckpointError::new(format!("mru state: {reason}"));
        let corrupt = |e: serde::Error| fail(e.to_string());
        let mut de = serde::Deserializer::new(bytes);
        let capacity = de.read_u64().map_err(corrupt)?;
        if capacity != expected_capacity {
            return Err(fail(format!(
                "collection capacity mismatch (checkpoint {capacity}, engine {expected_capacity})"
            )));
        }
        let next_seq = de.read_u64().map_err(corrupt)?;
        let next_tick = de.read_u64().map_err(corrupt)?;
        let len = de.read_len().map_err(corrupt)?;
        if len as u64 > capacity {
            return Err(fail(format!("{len} live lines exceed capacity {capacity}")));
        }
        // Compaction keeps `next_seq <= max(floor + 1, 8 * (live + 1))`
        // after every access; a larger counter cannot come from a real walk
        // and would size the slot vector by it.
        let bound = (8 * (len as u64 + 1)).max(SEQ_COMPACTION_FLOOR + 1);
        if next_seq > bound {
            return Err(fail(format!("sequence counter {next_seq} past compaction bound {bound}")));
        }
        let mut entries = Vec::with_capacity(len.min(bytes.len() / 32 + 1));
        let mut lines = LineMap::default();
        let mut previous = 0;
        for _ in 0..len {
            let seq = de.read_u64().map_err(corrupt)?;
            let line = de.read_u64().map_err(corrupt)?;
            let tick = de.read_u64().map_err(corrupt)?;
            let dirty_depth = de.read_u64().map_err(corrupt)?;
            if seq <= previous {
                return Err(fail(format!("sequence {seq} not increasing")));
            }
            if seq > next_seq {
                return Err(fail(format!("live sequence {seq} past counter {next_seq}")));
            }
            if line == NO_LINE {
                return Err(fail(format!("line {line:#x} is the empty-slot marker")));
            }
            if lines.insert(line, ()).is_some() {
                return Err(fail(format!("line {line:#x} recorded twice")));
            }
            previous = seq;
            entries.push((seq, line, tick, dirty_depth));
        }
        if de.remaining() != 0 {
            return Err(fail("trailing bytes".to_string()));
        }
        Ok(Self { capacity, next_seq, next_tick, entries })
    }

    /// A window is the top of the stack: its lines, in sequence order, must
    /// be the profile image's `min(capacity, lines)` most recent lines in
    /// timestamp order.
    fn check_against(&self, profile: &ProfileImage) -> Result<(), CheckpointError> {
        let expected = (profile.entries.len() as u64).min(self.capacity) as usize;
        if self.entries.len() != expected {
            return Err(CheckpointError::new(format!(
                "mru state holds {} lines where the profiler state implies {expected}",
                self.entries.len()
            )));
        }
        let top = profile.entries.len() - expected;
        let recent = &profile.entries[top..];
        for (index, &(_, line, _, _)) in self.entries.iter().enumerate() {
            if recent.get(index).map(|&(_, top_line)| top_line) == Some(line) {
                continue;
            }
            let reason = if profile.entries.iter().any(|&(_, known)| known == line) {
                format!("profiler and mru states order line {line:#x} differently")
            } else {
                format!("window line {line:#x} missing from the profiler state")
            };
            return Err(CheckpointError::new(reason));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive oracle: an explicit LRU stack (most recent first) for the
    /// distances, plus one explicit MRU list per capacity `1..=collection`
    /// with a plain dirty flag per line — the definition the engine's
    /// single window and dirty depth must reproduce at every capacity.
    struct Naive {
        stack: Vec<u64>,
        /// `lists[c - 1]`: the capacity-`c` list, most recent first, as
        /// `(line, dirty, tick)`.
        lists: Vec<Vec<(u64, bool, u64)>>,
        tick: u64,
    }

    /// What one naive access reports at the collection capacity.
    struct NaiveTouch {
        distance: Option<u64>,
        /// The tick of the residency the access ended, if windowed.
        previous_tick: Option<u64>,
        evicted: Option<u64>,
    }

    impl Naive {
        fn new(collection: u64) -> Self {
            Self { stack: Vec::new(), lists: vec![Vec::new(); collection as usize], tick: 0 }
        }

        fn touch(&mut self, line: u64, is_write: bool) -> NaiveTouch {
            self.tick += 1;
            let distance = self.stack.iter().position(|&l| l == line).map(|at| {
                self.stack.remove(at);
                at as u64
            });
            self.stack.insert(0, line);
            let (mut previous_tick, mut evicted) = (None, None);
            let collection = self.lists.len();
            for (index, list) in self.lists.iter_mut().enumerate() {
                let found = list.iter().position(|&(l, _, _)| l == line).map(|at| list.remove(at));
                let dirty = is_write || found.is_some_and(|(_, dirty, _)| dirty);
                list.insert(0, (line, dirty, self.tick));
                let popped = (list.len() > index + 1).then(|| list.pop()).flatten();
                if index + 1 == collection {
                    previous_tick = found.map(|(_, _, tick)| tick);
                    evicted = popped.map(|(l, _, _)| l);
                }
            }
            NaiveTouch { distance, previous_tick, evicted }
        }

        /// The capacity-`c` list, least recent first.
        fn list(&self, capacity: usize) -> Vec<(u64, bool)> {
            self.lists[capacity - 1].iter().rev().map(|&(line, dirty, _)| (line, dirty)).collect()
        }
    }

    /// The engine's window truncated to `capacity`, least recent first.
    fn window_at(engine: &RecencyEngine, capacity: u64) -> Vec<(u64, bool)> {
        let lines: Vec<u64> = engine.window().collect();
        let skip = lines.len().saturating_sub(capacity as usize);
        lines[skip..]
            .iter()
            .map(|&line| {
                let residency = engine.residency(line).copied().unwrap_or(NO_RESIDENCY);
                (line, residency.dirty_depth < capacity)
            })
            .collect()
    }

    /// Stream of `(line, is_write)` from a seed: a hot set, a streaming
    /// scan and random reuse, so the window both hits and evicts.
    fn stream(len: usize, lines: u64, seed: u64) -> Vec<(u64, bool)> {
        let mut state = seed | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let line = match state % 4 {
                    0 => state % 8,
                    1 => (i as u64) % lines,
                    _ => (state >> 8) % lines,
                };
                (line, (state >> 40).is_multiple_of(3))
            })
            .collect()
    }

    #[test]
    fn checkpoint_error_displays_its_reason() {
        let err = CheckpointError::new("bad magic");
        assert_eq!(err.to_string(), "checkpoint restore failed: bad magic");
    }

    #[test]
    fn a_windowless_engine_reports_distances_only() {
        let mut engine = RecencyEngine::new();
        let distances: Vec<Option<u64>> =
            [1, 2, 3, 1, 1, 2].iter().map(|&l| engine.touch(l, true).distance).collect();
        assert_eq!(distances, [None, None, None, Some(2), Some(0), Some(2)]);
        assert_eq!(
            engine.touch(3, true),
            Touch { distance: Some(2), previous: None, evicted: None }
        );
        assert_eq!(engine.window().count(), 0);
        assert!(engine.window_image().is_empty());
        assert_eq!(engine.window_capacity(), None);
    }

    #[test]
    fn restore_rejects_missing_and_mismatched_images() {
        let mut windowed = RecencyEngine::with_window(4);
        let mut plain = RecencyEngine::new();
        for (line, write) in stream(200, 12, 3) {
            windowed.touch(line, write);
            plain.touch(line, write);
        }
        let (profile, window) = (windowed.profile_image(), windowed.window_image());
        let mut fresh = RecencyEngine::with_window(4);
        assert!(fresh.restore(Some(&profile), None).is_err(), "window image missing");
        assert!(RecencyEngine::new().restore(None, None).is_err(), "profile image missing");
        assert!(RecencyEngine::new().restore(Some(&profile), Some(&window)).is_err());
        assert!(RecencyEngine::with_window(5).restore(None, Some(&window)).is_err(), "capacity");
        // A window line the profiler never saw, and a reordered window.
        let mut other = RecencyEngine::with_window(4);
        for line in [1000, 1, 2, 3] {
            other.touch(line, false);
        }
        let err = fresh.restore(Some(&plain.profile_image()), Some(&other.window_image()));
        assert!(err.unwrap_err().to_string().contains("missing"));
        let mut reordered = RecencyEngine::with_window(4);
        for line in windowed.window().collect::<Vec<_>>().into_iter().rev() {
            reordered.touch(line, false);
        }
        let err = fresh.restore(Some(&profile), Some(&reordered.window_image()));
        assert!(err.unwrap_err().to_string().contains("differently"));
        // A window holding fewer lines than the stack's top.
        let mut short = RecencyEngine::with_window(4);
        short.touch(windowed.window().last().unwrap(), false);
        let err = fresh.restore(Some(&profile), Some(&short.window_image()));
        assert!(err.unwrap_err().to_string().contains("implies 4"));
        // Truncated and trailing bytes, a zero timestamp and a huge clock.
        assert!(fresh.restore(Some(&profile[..profile.len() - 1]), Some(&window)).is_err());
        assert!(fresh.restore(Some(&profile), Some(&[window.as_slice(), &[0]].concat())).is_err());
        let mut zero = profile.clone();
        zero[24..32].copy_from_slice(&0u64.to_le_bytes());
        assert!(RecencyEngine::new().restore(Some(&zero), None).is_err());
        let mut huge = profile.clone();
        huge[..8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(RecencyEngine::new().restore(Some(&huge), None).is_err());
        assert!(fresh.restore(Some(&profile), Some(&window)).is_ok());
    }

    #[test]
    fn compaction_of_both_clocks_survives_a_mid_stream_restore() {
        // 64 lines over more than 2^20 accesses: the timestamp clock passes
        // its compaction floor (and the window sequences compact hundreds
        // of times), and a restore taken after that continues exactly.
        let accesses = TIME_COMPACTION_FLOOR + 60_000;
        let trace = stream(accesses, 64, 11);
        let mut whole = RecencyEngine::with_window(24);
        let mut naive = Naive::new(0);
        let cut = TIME_COMPACTION_FLOOR + 20_000;
        let mut images = None;
        let mut tail = Vec::new();
        for (index, &(line, write)) in trace.iter().enumerate() {
            if index == cut {
                images = Some((whole.profile_image(), whole.window_image()));
            }
            let touch = whole.touch(line, write);
            assert_eq!(touch.distance, naive.touch(line, write).distance, "access {index}");
            if index >= cut {
                tail.push(touch);
            }
        }
        let (profile, window) = images.unwrap();
        let clock = u64::from_le_bytes(profile[..8].try_into().unwrap());
        assert!(clock < 100_000, "the clock was compacted, not {clock}");
        let mut resumed = RecencyEngine::with_window(24);
        resumed.restore(Some(&profile), Some(&window)).unwrap();
        let continued: Vec<Touch> =
            trace[cut..].iter().map(|&(line, write)| resumed.touch(line, write)).collect();
        assert_eq!(continued, tail);
        assert_eq!(resumed.profile_image(), whole.profile_image());
        assert_eq!(resumed.window_image(), whole.window_image());
    }

    proptest! {
        /// Against the naive stack and lists: the distance, the previous
        /// residency and the eviction of every access, and after every
        /// access the window order and the dirty bit at every capacity up
        /// to the collection capacity.
        #[test]
        fn engine_matches_the_naive_lru_stack(
            collection in 1u64..24,
            lines in 1u64..48,
            len in 1usize..400,
            seed in any::<u64>(),
        ) {
            let mut engine = RecencyEngine::with_window(collection);
            let mut plain = RecencyEngine::new();
            let mut naive = Naive::new(collection);
            for (line, write) in stream(len, lines, seed) {
                let touch = engine.touch(line, write);
                let expected = naive.touch(line, write);
                prop_assert_eq!(touch.distance, expected.distance);
                prop_assert_eq!(plain.touch(line, write).distance, expected.distance);
                prop_assert_eq!(touch.previous.map(|p| p.tick), expected.previous_tick);
                prop_assert_eq!(touch.evicted.map(|(l, _)| l), expected.evicted);
                for capacity in 1..=collection {
                    prop_assert_eq!(window_at(&engine, capacity), naive.list(capacity as usize));
                }
            }
        }

        /// Snapshot at an arbitrary access, restore from both images, from
        /// the window image alone and (windowless) from the profile image
        /// alone, and continue: every later touch and final image matches
        /// the uninterrupted engine's.
        #[test]
        fn restored_engines_continue_like_the_uninterrupted_one(
            collection in 1u64..24,
            lines in 1u64..48,
            len in 1usize..400,
            cut in 0usize..400,
            seed in any::<u64>(),
        ) {
            let trace = stream(len, lines, seed);
            let cut = cut.min(len);
            let mut windowed = RecencyEngine::with_window(collection);
            let mut plain = RecencyEngine::new();
            for &(line, write) in &trace[..cut] {
                windowed.touch(line, write);
                plain.touch(line, write);
            }
            let (profile, window) = (windowed.profile_image(), windowed.window_image());
            prop_assert_eq!(&plain.profile_image(), &profile);
            let mut fused = RecencyEngine::with_window(collection);
            fused.restore(Some(&profile), Some(&window)).unwrap();
            let mut window_only = RecencyEngine::with_window(collection);
            window_only.restore(None, Some(&window)).unwrap();
            let mut profile_only = RecencyEngine::new();
            profile_only.restore(Some(&profile), None).unwrap();
            for &(line, write) in &trace[cut..] {
                let expected = windowed.touch(line, write);
                prop_assert_eq!(fused.touch(line, write), expected);
                let from_window = window_only.touch(line, write);
                prop_assert_eq!(from_window.previous, expected.previous);
                prop_assert_eq!(from_window.evicted, expected.evicted);
                prop_assert_eq!(profile_only.touch(line, write).distance, expected.distance);
            }
            prop_assert_eq!(fused.profile_image(), windowed.profile_image());
            prop_assert_eq!(fused.window_image(), windowed.window_image());
            prop_assert_eq!(window_only.window_image(), windowed.window_image());
            prop_assert_eq!(profile_only.profile_image(), windowed.profile_image());
        }
    }
}
