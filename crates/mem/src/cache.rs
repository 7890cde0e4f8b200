use crate::config::CacheConfig;
use crate::install::SetTable;
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    line: u64,
    state: LineState,
    /// Monotonic timestamp of the last touch; larger is more recent.
    lru: u64,
}

impl Way {
    fn invalid() -> Self {
        Self { line: 0, state: LineState::Invalid, lru: 0 }
    }
}

/// A set-associative cache with true-LRU replacement and per-line MSI state.
///
/// The cache operates on *line addresses* (byte address / line size); the
/// set is selected by the low bits of the line address, so the set count is
/// a power of two (see [`CacheConfig::num_sets`]).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Way>>,
    /// `num_sets - 1`: the set index is `line & set_mask`.
    set_mask: u64,
    associativity: usize,
    latency: u64,
    tick: u64,
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
            sets: vec![vec![Way::invalid(); config.associativity]; num_sets],
            set_mask: num_sets as u64 - 1,
            associativity: config.associativity,
            latency: config.latency_cycles,
            tick: 0,
        }
    }

    /// Access latency of this cache level in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Total number of ways in the cache.
    pub fn capacity_lines(&self) -> usize {
        self.sets.len() * self.associativity
    }

    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    fn find(&mut self, line: u64) -> Option<&mut Way> {
        let set = self.set_index(line);
        self.sets[set].iter_mut().find(|w| w.state.is_valid() && w.line == line)
    }

    /// Looks up `line`; on a hit the LRU position is refreshed and the line's
    /// state is returned.
    pub fn lookup(&mut self, line: u64) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        let way = self.find(line)?;
        way.lru = tick;
        Some(way.state)
    }

    /// Returns the state of `line` without updating replacement metadata.
    pub fn peek(&self, line: u64) -> Option<LineState> {
        let set = self.set_index(line);
        self.sets[set].iter().find(|w| w.state.is_valid() && w.line == line).map(|w| w.state)
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
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(line);
        let ways = &mut self.sets[set];
        // One pass: a resident copy is updated in place; otherwise the first
        // free way is filled, else the first way with the oldest touch.
        let (mut free, mut victim, mut oldest) = (None, 0, u64::MAX);
        for (idx, way) in ways.iter_mut().enumerate() {
            if way.state.is_valid() {
                if way.line == line {
                    way.state = state;
                    way.lru = tick;
                    return None;
                }
                if way.lru < oldest {
                    (victim, oldest) = (idx, way.lru);
                }
            } else if free.is_none() {
                free = Some(idx);
            }
        }
        let old =
            std::mem::replace(&mut ways[free.unwrap_or(victim)], Way { line, state, lru: tick });
        free.is_none()
            .then_some(EvictedLine { line: old.line, dirty: old.state == LineState::Modified })
    }

    /// Changes the state of `line` if present; returns `true` on success.
    pub fn set_state(&mut self, line: u64, state: LineState) -> bool {
        self.find(line).map(|way| way.state = state).is_some()
    }

    /// Invalidates `line` if present.  Returns `Some(dirty)` when a valid copy
    /// was removed, where `dirty` indicates the copy was modified.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let way = self.find(line)?;
        let dirty = way.state == LineState::Modified;
        way.state = LineState::Invalid;
        Some(dirty)
    }

    /// Invalidates every line, returning the cache to its cold state.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            for way in set {
                *way = Way::invalid();
            }
        }
        self.tick = 0;
    }

    /// Replaces the contents with `sets`' sets `first..first + num_sets`:
    /// their lines and states, each line's last-touch time as its recency.
    pub(crate) fn load(&mut self, sets: &SetTable<LineState>, first: usize) {
        for (index, ways) in self.sets.iter_mut().enumerate() {
            let (lines, states, stamps) = sets.set(first + index);
            let (filled, empty) = ways.split_at_mut(lines.len());
            for (way, ((&line, &state), &lru)) in
                filled.iter_mut().zip(lines.iter().zip(states).zip(stamps))
            {
                *way = Way { line, state, lru };
            }
            empty.fill(Way::invalid());
        }
        self.tick = sets.clock();
    }

    /// Every set's valid lines and states, least recently used first.
    pub(crate) fn recency_sets(&self) -> Vec<Vec<(u64, LineState)>> {
        self.sets
            .iter()
            .map(|ways| {
                let mut valid: Vec<&Way> = ways.iter().filter(|w| w.state.is_valid()).collect();
                valid.sort_by_key(|w| w.lru);
                valid.iter().map(|w| (w.line, w.state)).collect()
            })
            .collect()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|set| set.iter().filter(|w| w.state.is_valid()).count()).sum()
    }

    /// Iterates over all valid lines as `(line, state)` pairs.
    pub fn valid_lines(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.sets.iter().flatten().filter(|w| w.state.is_valid()).map(|w| (w.line, w.state))
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
