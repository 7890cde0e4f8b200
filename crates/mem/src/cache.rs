use crate::config::CacheConfig;
use crate::sets::SetTable;
use serde::{Deserialize, Serialize};

/// MSI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineState {
    /// The line is owned exclusively and has been written.
    Modified,
    /// The line is (potentially) shared, read-only, and clean.
    Shared,
    /// The line is not present.
    Invalid,
}

impl LineState {
    /// Returns `true` if the state holds valid data.
    pub fn is_valid(self) -> bool {
        !matches!(self, LineState::Invalid)
    }
}

/// A line evicted from a cache by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line address (byte address divided by the line size).
    pub line: u64,
    /// Whether the evicted copy was modified and must be written back.
    pub dirty: bool,
}

/// A set-associative cache with true-LRU replacement and per-line MSI state.
///
/// The cache operates on *line addresses* (byte address / line size); the
/// set is selected by the low bits of the line address, so the set count is
/// a power of two (see [`CacheConfig::num_sets`]).  The sets are the
/// crate's one set table, which [`SharedCache`](crate::SharedCache) uses
/// too: each set's valid lines packed at the front, with their states and
/// last-touch times.  Only valid lines are stored, so setting a line
/// [`LineState::Invalid`] removes it.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: SetTable<LineState>,
    /// `num_sets - 1`: the set index is `line & set_mask`.
    set_mask: u64,
    latency: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate or its set count is not a power
    /// of two (see [`CacheConfig::num_sets`]).
    pub fn new(config: &CacheConfig, line_bytes: u64) -> Self {
        let num_sets = config.num_sets(line_bytes);
        Self {
            sets: SetTable::new(num_sets, config.associativity, LineState::Invalid),
            set_mask: num_sets as u64 - 1,
            latency: config.latency_cycles,
        }
    }

    /// Access latency of this cache level in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Total number of ways in the cache.
    pub fn capacity_lines(&self) -> usize {
        self.sets.capacity()
    }

    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Looks up `line`; on a hit the LRU position is refreshed and the line's
    /// state is returned.
    pub fn lookup(&mut self, line: u64) -> Option<LineState> {
        let at = self.sets.find(self.set_index(line), line)?;
        self.sets.touch(at);
        Some(self.sets.value(at))
    }

    /// Returns the state of `line` without updating replacement metadata.
    pub fn peek(&self, line: u64) -> Option<LineState> {
        self.sets.find(self.set_index(line), line).map(|at| self.sets.value(at))
    }

    /// Returns `true` if `line` is present (any valid state).
    pub fn contains(&self, line: u64) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts `line` with `state`, evicting the LRU way of its set if needed.
    /// If the line is already present its state is overwritten in place.
    ///
    /// Returns the victim line, if a valid line had to be evicted.
    pub fn insert(&mut self, line: u64, state: LineState) -> Option<EvictedLine> {
        debug_assert!(state.is_valid(), "inserting an Invalid line makes no sense");
        let (line, old) = self.sets.insert(self.set_index(line), line, state)?;
        Some(EvictedLine { line, dirty: old == LineState::Modified })
    }

    /// [`insert`](Self::insert) of a line known to be absent, without the
    /// lookup.
    pub(crate) fn fill(&mut self, line: u64, state: LineState) -> Option<EvictedLine> {
        debug_assert!(state.is_valid() && !self.contains(line), "fill of {line} as {state:?}");
        let (line, old) = self.sets.push(self.set_index(line), line, state)?;
        Some(EvictedLine { line, dirty: old == LineState::Modified })
    }

    /// Changes the state of `line` if present; returns `true` on success.
    /// Setting [`LineState::Invalid`] removes the line.
    pub fn set_state(&mut self, line: u64, state: LineState) -> bool {
        let set = self.set_index(line);
        let Some(at) = self.sets.find(set, line) else {
            return false;
        };
        if state.is_valid() {
            *self.sets.value_mut(at) = state;
        } else {
            self.sets.remove(set, at);
        }
        true
    }

    /// Invalidates `line` if present.  Returns `Some(dirty)` when a valid copy
    /// was removed, where `dirty` indicates the copy was modified.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_index(line);
        let at = self.sets.find(set, line)?;
        Some(self.sets.remove(set, at) == LineState::Modified)
    }

    /// Invalidates every line, returning the cache to its cold state.
    pub fn clear(&mut self) {
        self.sets.clear();
    }

    /// Every set's valid lines and states, least recently used first.
    pub(crate) fn recency_sets(&self) -> Vec<Vec<(u64, LineState)>> {
        self.sets.recency_sets()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.sets.occupancy()
    }

    /// Iterates over all valid lines as `(line, state)` pairs.
    pub fn valid_lines(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.sets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(&CacheConfig::new(512, 2, 3), 64)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.lookup(10), None);
        assert_eq!(c.insert(10, LineState::Shared), None);
        assert_eq!(c.lookup(10), Some(LineState::Shared));
        assert_eq!(c.latency(), 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0, LineState::Shared);
        c.insert(4, LineState::Shared);
        // Touch 0 so 4 becomes LRU.
        c.lookup(0);
        let evicted = c.insert(8, LineState::Shared).expect("eviction");
        assert_eq!(evicted.line, 4);
        assert!(!evicted.dirty);
        assert!(c.contains(0) && c.contains(8) && !c.contains(4));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small_cache();
        c.insert(0, LineState::Modified);
        c.insert(4, LineState::Shared);
        c.lookup(4);
        let evicted = c.insert(8, LineState::Shared).expect("eviction");
        assert_eq!(evicted.line, 0);
        assert!(evicted.dirty);
    }

    #[test]
    fn insert_existing_updates_state_without_eviction() {
        let mut c = small_cache();
        c.insert(0, LineState::Shared);
        assert_eq!(c.insert(0, LineState::Modified), None);
        assert_eq!(c.peek(0), Some(LineState::Modified));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small_cache();
        c.insert(0, LineState::Modified);
        c.insert(1, LineState::Shared);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(1), Some(false));
        assert_eq!(c.invalidate(2), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = small_cache();
        c.insert(0, LineState::Shared);
        c.insert(1, LineState::Modified);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.lookup(0), None);
    }

    #[test]
    fn capacity_matches_geometry() {
        assert_eq!(small_cache().capacity_lines(), 8);
    }

    #[test]
    fn valid_lines_iterates_everything() {
        let mut c = small_cache();
        c.insert(3, LineState::Shared);
        c.insert(7, LineState::Modified);
        let mut lines: Vec<_> = c.valid_lines().collect();
        lines.sort_by_key(|(line, _)| *line);
        assert_eq!(lines, vec![(3, LineState::Shared), (7, LineState::Modified)]);
    }
}
