use bp_workload::LineMap;
use std::collections::hash_map::Entry;

/// Exact LRU stack distance (reuse distance) computation.
///
/// The LRU stack distance of an access is the number of *distinct* cache
/// lines referenced since the previous access to the same line
/// (Mattson et al., 1970).  The first access to a line has infinite distance.
///
/// The tracker uses the classic last-access-time + Fenwick-tree formulation:
/// each access is assigned a monotonically increasing timestamp, a binary
/// indexed tree marks the timestamps that are currently the *most recent*
/// access of some line, and the stack distance is the number of marked
/// timestamps after the line's previous access.  Every line has exactly one
/// mark, so that count is the number of distinct lines minus one prefix sum
/// up to the previous access: every access costs one `O(log n)` query, two
/// `O(log n)` updates and one [`LineMap`] lookup.
#[derive(Debug, Clone, Default)]
pub struct StackDistanceTracker {
    /// Fenwick tree over timestamps; `tree[i] == 1` iff timestamp `i` is the
    /// latest access of some line.
    tree: Vec<u64>,
    /// Last access timestamp of each line.
    last: LineMap<usize>,
    /// Next timestamp (1-based for the Fenwick tree); may shrink on compaction.
    time: usize,
    /// Total accesses recorded (monotonic, unaffected by compaction).
    total: usize,
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

impl StackDistanceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct lines seen so far.
    pub fn unique_lines(&self) -> usize {
        self.last.len()
    }

    /// Total accesses recorded.
    pub fn accesses(&self) -> usize {
        self.total
    }

    /// Rebuilds the Fenwick tree at `len` slots from the per-line marks.  (A
    /// Fenwick tree cannot simply be zero-extended: appended internal nodes
    /// cover existing timestamp ranges.)
    fn rebuild_tree(&mut self, len: usize) {
        self.tree.clear();
        self.tree.resize(len, 0);
        for &t in self.last.values() {
            tree_add(&mut self.tree, t, 1);
        }
    }

    /// Re-numbers all last-access timestamps to `1..=unique_lines`, keeping
    /// their relative order, so the Fenwick tree's size stays proportional to
    /// the number of distinct lines rather than to the total access count.
    /// This keeps memory bounded for application-length profiling runs.
    fn compact(&mut self) {
        let mut entries: Vec<(usize, u64)> =
            self.last.iter().map(|(&line, &t)| (t, line)).collect();
        entries.sort_unstable();
        for (new_time, (_, line)) in entries.iter().enumerate() {
            self.last.insert(*line, new_time + 1);
        }
        self.time = entries.len();
        self.rebuild_tree((self.time + 2).next_power_of_two().max(64));
    }

    /// The tracker's carried state at a region boundary: `(time, total,
    /// entries)` where `entries` are the live `(timestamp, line)`
    /// last-access marks sorted by timestamp.  Deterministic regardless of
    /// hash-map iteration order.  Restoring via [`from_checkpoint`]
    /// reproduces the tracker's future behaviour — the distances *and* the
    /// compaction timing (which depends only on `time` and the entry
    /// count) — exactly.
    ///
    /// [`from_checkpoint`]: Self::from_checkpoint
    #[cfg(test)] // the oracle for the recency engine's profile image
    pub(crate) fn checkpoint(&self) -> (u64, u64, Vec<(u64, u64)>) {
        let mut entries: Vec<(u64, u64)> =
            self.last.iter().map(|(&line, &t)| (t as u64, line)).collect();
        entries.sort_unstable();
        (self.time as u64, self.total as u64, entries)
    }

    /// Rebuilds a tracker from a [`checkpoint`](Self::checkpoint) — the
    /// Fenwick tree is reconstructed from the last-access marks (it is
    /// always derivable from them, exactly as compaction rebuilds it).
    #[cfg(test)]
    pub(crate) fn from_checkpoint(time: u64, total: u64, entries: &[(u64, u64)]) -> Self {
        let time = time as usize;
        let mut tracker = Self {
            tree: Vec::new(),
            last: entries.iter().map(|&(t, line)| (line, t as usize)).collect(),
            time,
            total: total as usize,
        };
        tracker.rebuild_tree((time + 2).next_power_of_two().max(64));
        tracker
    }

    /// Records an access to `line` and returns its LRU stack distance, or
    /// `None` for the first (cold) access to the line.
    pub fn record(&mut self, line: u64) -> Option<u64> {
        // Keep the timestamp space compact: once timestamps far outnumber the
        // distinct lines, renumber them.
        if self.time > 1_048_576 && self.time > 8 * self.last.len() {
            self.compact();
        }
        self.total += 1;
        self.time += 1;
        let now = self.time;
        // Grow the Fenwick tree (power-of-two sizing keeps growth amortized).
        if now >= self.tree.len() {
            self.rebuild_tree((now + 1).next_power_of_two().max(64));
        }
        // Every line holds exactly one mark, so the tree total is the
        // distinct-line count taken before this access.
        let marked = self.last.len() as u64;
        let distance = match self.last.entry(line) {
            Entry::Occupied(mut slot) => {
                let prev = slot.insert(now);
                // Distinct lines accessed strictly after `prev`.
                let marked_after_prev = marked - tree_prefix_sum(&self.tree, prev);
                tree_add(&mut self.tree, prev, -1);
                Some(marked_after_prev)
            }
            Entry::Vacant(slot) => {
                slot.insert(now);
                None
            }
        };
        tree_add(&mut self.tree, now, 1);
        distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive oracle: walk an explicit LRU stack.
    #[derive(Default)]
    struct NaiveStack {
        stack: Vec<u64>,
    }

    impl NaiveStack {
        fn record(&mut self, line: u64) -> Option<u64> {
            let pos = self.stack.iter().position(|&l| l == line);
            match pos {
                Some(idx) => {
                    self.stack.remove(idx);
                    self.stack.insert(0, line);
                    Some(idx as u64)
                }
                None => {
                    self.stack.insert(0, line);
                    None
                }
            }
        }
    }

    #[test]
    fn simple_sequence() {
        let mut t = StackDistanceTracker::new();
        assert_eq!(t.record(1), None);
        assert_eq!(t.record(2), None);
        assert_eq!(t.record(3), None);
        // 1 was followed by 2 distinct lines.
        assert_eq!(t.record(1), Some(2));
        // Immediately re-accessing 1: distance 0.
        assert_eq!(t.record(1), Some(0));
        // 2 was followed by 3 and 1.
        assert_eq!(t.record(2), Some(2));
        assert_eq!(t.unique_lines(), 3);
        assert_eq!(t.accesses(), 6);
    }

    #[test]
    fn repeated_scan_has_constant_distance() {
        let mut t = StackDistanceTracker::new();
        for line in 0..10u64 {
            assert_eq!(t.record(line), None);
        }
        for line in 0..10u64 {
            assert_eq!(t.record(line), Some(9), "line {line}");
        }
    }

    #[test]
    fn compaction_preserves_distances() {
        let pattern: Vec<u64> = (0..200).map(|i| (i * 7) % 23).collect();
        let mut compacted = StackDistanceTracker::new();
        let mut plain = StackDistanceTracker::new();
        let mut oracle = NaiveStack::default();
        for (i, &line) in pattern.iter().enumerate() {
            if i % 50 == 25 {
                compacted.compact();
            }
            let expected = oracle.record(line);
            assert_eq!(compacted.record(line), expected, "compacted at access {i}");
            assert_eq!(plain.record(line), expected, "plain at access {i}");
        }
        assert_eq!(compacted.accesses(), pattern.len());
        assert_eq!(compacted.unique_lines(), plain.unique_lines());
    }

    #[test]
    fn matches_naive_oracle_on_fixed_pattern() {
        let pattern: Vec<u64> = vec![5, 1, 2, 5, 3, 2, 2, 7, 1, 5, 9, 3, 3, 1, 7, 2];
        let mut fast = StackDistanceTracker::new();
        let mut slow = NaiveStack::default();
        for &line in &pattern {
            assert_eq!(fast.record(line), slow.record(line), "line {line}");
        }
    }

    #[test]
    fn checkpoint_round_trip_continues_bit_for_bit() {
        let pattern: Vec<u64> = (0..500).map(|i| (i * 13) % 37).collect();
        let mut original = StackDistanceTracker::new();
        for &line in &pattern[..250] {
            original.record(line);
        }
        let (time, total, entries) = original.checkpoint();
        // Checkpoint bytes are deterministic (sorted), not hash-ordered.
        assert_eq!(original.checkpoint(), (time, total, entries.clone()));
        let mut restored = StackDistanceTracker::from_checkpoint(time, total, &entries);
        assert_eq!(restored.unique_lines(), original.unique_lines());
        assert_eq!(restored.accesses(), original.accesses());
        for &line in &pattern[250..] {
            assert_eq!(restored.record(line), original.record(line), "line {line}");
        }
        assert_eq!(restored.checkpoint(), original.checkpoint());
    }

    proptest! {
        /// The Fenwick-tree implementation must agree with the explicit LRU
        /// stack on arbitrary access sequences.
        #[test]
        fn matches_naive_oracle(pattern in proptest::collection::vec(0u64..64, 1..400)) {
            let mut fast = StackDistanceTracker::new();
            let mut slow = NaiveStack::default();
            for &line in &pattern {
                prop_assert_eq!(fast.record(line), slow.record(line));
            }
        }

        /// A tracker restored from a checkpoint taken at an arbitrary point
        /// must continue exactly like the uninterrupted tracker.
        #[test]
        fn checkpoint_restore_matches_uninterrupted(
            pattern in proptest::collection::vec(0u64..48, 1..400),
            cut in 0usize..400,
        ) {
            let cut = cut.min(pattern.len());
            let mut original = StackDistanceTracker::new();
            for &line in &pattern[..cut] {
                original.record(line);
            }
            let (time, total, entries) = original.checkpoint();
            let mut restored = StackDistanceTracker::from_checkpoint(time, total, &entries);
            for &line in &pattern[cut..] {
                prop_assert_eq!(restored.record(line), original.record(line));
            }
        }
    }
}
