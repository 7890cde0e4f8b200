//! The one set-associative structure of bp-mem: a table of true-LRU sets,
//! under both [`Cache`](crate::Cache) and [`SharedCache`](crate::SharedCache).

use std::ops::Range;

/// The sets of one cache: each set's valid lines packed at the front of its
/// ways, beside each line's value (an MSI state or a directory entry) and
/// last-touch time.  A lookup scans one short array of line addresses, a
/// removal moves the set's last line into the hole, and only an eviction
/// scans the touch times.
///
/// A line's table position, from [`find`](Self::find), stays valid until
/// the next [`remove`](Self::remove), [`push`](Self::push) or
/// [`clear`](Self::clear) in its set.
#[derive(Debug, Clone)]
pub(crate) struct SetTable<T> {
    ways: usize,
    /// Valid lines per set.
    len: Vec<u32>,
    lines: Vec<u64>,
    values: Vec<T>,
    /// Last-touch time of each line, from one clock per table: larger is
    /// more recent, and no two lines share a time.
    stamps: Vec<u64>,
    clock: u64,
}

impl<T: Copy> SetTable<T> {
    /// An empty table of `sets` sets of `ways` ways; `blank` fills the
    /// unused value slots.
    pub(crate) fn new(sets: usize, ways: usize, blank: T) -> Self {
        Self {
            ways,
            len: vec![0; sets],
            lines: vec![0; sets * ways],
            values: vec![blank; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    /// Total number of ways.
    pub(crate) fn capacity(&self) -> usize {
        self.lines.len()
    }

    fn range(&self, set: usize) -> Range<usize> {
        let base = set * self.ways;
        base..base + self.len[set] as usize
    }

    /// The table position of `line` in `set`, if resident.
    pub(crate) fn find(&self, set: usize, line: u64) -> Option<usize> {
        let range = self.range(set);
        let base = range.start;
        self.lines[range].iter().position(|&l| l == line).map(|way| base + way)
    }

    /// The value of the line at table position `at`.
    pub(crate) fn value(&self, at: usize) -> T {
        self.values[at]
    }

    /// The value of the line at table position `at`, for writing.
    pub(crate) fn value_mut(&mut self, at: usize) -> &mut T {
        &mut self.values[at]
    }

    /// Makes the line at table position `at` the most recent of its set.
    pub(crate) fn touch(&mut self, at: usize) {
        self.clock += 1;
        self.stamps[at] = self.clock;
    }

    /// Drops the line at table position `at` of `set`, moving the set's
    /// last line into its place; returns the dropped line's value.
    pub(crate) fn remove(&mut self, set: usize, at: usize) -> T {
        let value = self.values[at];
        let last = self.range(set).end - 1;
        self.lines[at] = self.lines[last];
        self.values[at] = self.values[last];
        self.stamps[at] = self.stamps[last];
        self.len[set] -= 1;
        value
    }

    /// Adds `line`, which is not resident, as the most recent of `set`, in
    /// place of the least recent line of a full set; returns the victim.
    pub(crate) fn push(&mut self, set: usize, line: u64, value: T) -> Option<(u64, T)> {
        self.clock += 1;
        let base = set * self.ways;
        let len = self.len[set] as usize;
        let (at, victim) = if len < self.ways {
            self.len[set] += 1;
            (base + len, None)
        } else {
            let stamps = self.stamps[base..base + len].iter().enumerate();
            let oldest = stamps.min_by_key(|&(_, &stamp)| stamp).map_or(0, |(way, _)| way);
            let at = base + oldest;
            (at, Some((self.lines[at], self.values[at])))
        };
        self.lines[at] = line;
        self.values[at] = value;
        self.stamps[at] = self.clock;
        victim
    }

    /// Stores `value` for `line` as the most recent of `set`: in place of
    /// its old value when resident, else as [`push`](Self::push) does.
    pub(crate) fn insert(&mut self, set: usize, line: u64, value: T) -> Option<(u64, T)> {
        match self.find(set, line) {
            Some(at) => {
                self.values[at] = value;
                self.touch(at);
                None
            }
            None => self.push(set, line, value),
        }
    }

    /// Drops every line.
    pub(crate) fn clear(&mut self) {
        self.len.fill(0);
        self.clock = 0;
    }

    /// Number of valid lines.
    pub(crate) fn occupancy(&self) -> usize {
        self.len.iter().map(|&len| len as usize).sum()
    }

    /// Every valid line with its value, set by set.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        (0..self.len.len()).flat_map(move |set| {
            let range = self.range(set);
            self.lines[range.clone()].iter().copied().zip(self.values[range].iter().copied())
        })
    }

    /// Every set's valid lines with their values, least recently used
    /// first.
    pub(crate) fn recency_sets(&self) -> Vec<Vec<(u64, T)>> {
        (0..self.len.len())
            .map(|set| {
                let mut order: Vec<usize> = self.range(set).collect();
                order.sort_unstable_by_key(|&at| self.stamps[at]);
                order.into_iter().map(|at| (self.lines[at], self.values[at])).collect()
            })
            .collect()
    }
}
