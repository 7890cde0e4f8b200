//! The model behind [`MemoryHierarchy::install`]: the hierarchy's state
//! after a stream of data accesses from cleared caches, without latencies
//! or statistics.
//!
//! Each cache level is a table of sets: each set's valid lines packed at
//! the front of its ways, beside each line's MSI state (private levels) or
//! directory entry (L3) and last-touch time.  A lookup scans one short
//! array of line addresses, a removal moves the set's last line into the
//! hole, and only an eviction scans the touch times.  The model steps
//! through the protocol of [`MemoryHierarchy::access`], relying on three
//! facts about data accesses from cleared caches:
//!
//! - **The directory is exact.**  A core is a sharer of an L3 line iff its
//!   L2 holds the line: an access sets the bit as it fills the L2, and every
//!   way a private copy leaves (L2 eviction, a remote write, an L3 eviction)
//!   clears the bit, resets the mask or drops the entry.  So the home L3 set
//!   is consulted first, and an access by a non-sharer misses both private
//!   levels without looking.
//! - **L1D ⊆ L2, with equal states.**  Both levels fill with one state, and
//!   downgrades, upgrades and invalidations change both.  So a dirty L1D
//!   victim's merge into its L2 copy changes nothing, and an L2 victim's own
//!   state says whether a dirty copy is written back.
//! - **The instruction caches stay empty.**
//!
//! [`MemoryHierarchy::install`]: crate::MemoryHierarchy::install
//! [`MemoryHierarchy::access`]: crate::MemoryHierarchy::access

use crate::cache::LineState;
use crate::config::MemoryConfig;
use crate::shared_cache::DirEntry;
use std::ops::Range;

/// The sets of one cache level: each set's valid lines packed at the front
/// of its ways, beside each line's value and last-touch time.  The private
/// levels keep every core's sets in one table (core `c`'s set `s` is set
/// `c * sets_per_core + s`); the L3 keeps every socket's sets the same way.
#[derive(Debug, Clone)]
pub(crate) struct SetTable<T> {
    ways: usize,
    len: Vec<usize>,
    lines: Vec<u64>,
    values: Vec<T>,
    /// Last-touch time of each line, from one clock per table: larger is
    /// more recent, and no two lines share a time.
    stamps: Vec<u64>,
    clock: u64,
}

impl<T> Default for SetTable<T> {
    fn default() -> Self {
        Self {
            ways: 0,
            len: Vec::new(),
            lines: Vec::new(),
            values: Vec::new(),
            stamps: Vec::new(),
            clock: 0,
        }
    }
}

impl<T: Copy> SetTable<T> {
    /// Empties the table and shapes it as `sets` sets of `ways` ways.
    fn reset(&mut self, sets: usize, ways: usize, blank: T) {
        self.ways = ways;
        self.len.clear();
        self.len.resize(sets, 0);
        self.lines.resize(sets * ways, 0);
        self.values.resize(sets * ways, blank);
        self.stamps.resize(sets * ways, 0);
        self.clock = 0;
    }

    /// The latest last-touch time handed out.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    fn range(&self, set: usize) -> Range<usize> {
        let base = set * self.ways;
        base..base + self.len[set]
    }

    /// Set `set`'s valid lines with their values and last-touch times.
    pub(crate) fn set(&self, set: usize) -> (&[u64], &[T], &[u64]) {
        let range = self.range(set);
        (&self.lines[range.clone()], &self.values[range.clone()], &self.stamps[range])
    }

    /// The table position of `line` in `set`, if resident.
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let range = self.range(set);
        let base = range.start;
        self.lines[range].iter().position(|&l| l == line).map(|way| base + way)
    }

    /// Drops the line at table position `at` of `set`, moving the set's
    /// last line into its place.
    fn remove(&mut self, set: usize, at: usize) {
        let last = self.range(set).end - 1;
        self.lines[at] = self.lines[last];
        self.values[at] = self.values[last];
        self.stamps[at] = self.stamps[last];
        self.len[set] -= 1;
    }

    /// Makes the line at table position `at` the most recent of its set.
    fn touch(&mut self, at: usize) {
        self.clock += 1;
        self.stamps[at] = self.clock;
    }

    /// Adds `line` (not resident) as the most recent of `set`, in place of
    /// the least recent line of a full set; returns the victim.
    fn push(&mut self, set: usize, line: u64, value: T) -> Option<(u64, T)> {
        self.clock += 1;
        let base = set * self.ways;
        let len = self.len[set];
        let (at, victim) = if len < self.ways {
            self.len[set] += 1;
            (base + len, None)
        } else {
            let stamps = &self.stamps[base..base + len];
            let oldest = (0..len).min_by_key(|&way| stamps[way]).unwrap_or(0);
            let at = base + oldest;
            (at, Some((self.lines[at], self.values[at])))
        };
        self.lines[at] = line;
        self.values[at] = value;
        self.stamps[at] = self.clock;
        victim
    }
}

/// A cleared hierarchy's L1D, L2 and L3 contents under a stream of data
/// accesses.
#[derive(Debug, Clone, Default)]
pub(crate) struct InstallModel {
    pub(crate) l1d: SetTable<LineState>,
    pub(crate) l2: SetTable<LineState>,
    pub(crate) l3: SetTable<DirEntry>,
    cores: usize,
    sockets: u64,
    /// Sets per core (L1D, L2) and per socket (L3); powers of two.
    l1_sets: usize,
    l2_sets: usize,
    l3_sets: usize,
}

impl InstallModel {
    /// Empties the model and shapes it as `config`'s hierarchy of `cores`
    /// cores.
    pub(crate) fn reset(&mut self, config: &MemoryConfig, cores: usize) {
        let line = config.line_bytes;
        self.cores = cores;
        self.sockets = config.num_sockets(cores) as u64;
        self.l1_sets = config.l1d.num_sets(line);
        self.l2_sets = config.l2.num_sets(line);
        self.l3_sets = config.l3.num_sets(line);
        self.l1d.reset(cores * self.l1_sets, config.l1d.associativity, LineState::Invalid);
        self.l2.reset(cores * self.l2_sets, config.l2.associativity, LineState::Invalid);
        let sets = self.sockets as usize * self.l3_sets;
        self.l3.reset(sets, config.l3.associativity, DirEntry::clean());
    }

    /// Sets per core of the L1D and the L2, and per socket of the L3.
    pub(crate) fn sets_per_cache(&self) -> (usize, usize, usize) {
        (self.l1_sets, self.l2_sets, self.l3_sets)
    }

    fn l1_set(&self, core: usize, line: u64) -> usize {
        core * self.l1_sets + (line & (self.l1_sets as u64 - 1)) as usize
    }

    fn l2_set(&self, core: usize, line: u64) -> usize {
        core * self.l2_sets + (line & (self.l2_sets as u64 - 1)) as usize
    }

    /// The L3 set of `line`: its home socket is `line % sockets`, and the
    /// set within it is picked from `line / sockets`, as in
    /// [`SharedCache::with_interleave`](crate::SharedCache::with_interleave).
    fn l3_set(&self, line: u64) -> usize {
        let mask = self.l3_sets as u64 - 1;
        if self.sockets == 1 {
            return (line & mask) as usize;
        }
        let home = (line % self.sockets) as usize;
        home * self.l3_sets + ((line / self.sockets) & mask) as usize
    }

    /// One data access by `core` to `line`: [`MemoryHierarchy::access`]'s
    /// effect on the caches and the directory.
    ///
    /// [`MemoryHierarchy::access`]: crate::MemoryHierarchy::access
    pub(crate) fn access(&mut self, core: usize, line: u64, is_write: bool) {
        let bit = 1u64 << core;
        let l3_set = self.l3_set(line);
        let found = self.l3.find(l3_set, line);
        if let Some(at) = found {
            if self.l3.values[at].sharers & bit != 0 && self.private_hit(core, line, is_write, at) {
                return;
            }
        }
        match found {
            Some(at) => {
                self.l3.touch(at);
                let entry = self.l3.values[at];
                match entry.owner {
                    // Dirty data moves from the owner's caches.  The owner
                    // is not the requester: an owner is a sharer.
                    Some(owner) => {
                        let owner = owner as usize;
                        if is_write {
                            self.invalidate_private(owner, line);
                        } else {
                            self.set_private_state(owner, line, LineState::Shared);
                        }
                        let e = &mut self.l3.values[at];
                        e.dirty = true;
                        if is_write {
                            e.sharers = bit;
                            e.owner = Some(core as u32);
                        } else {
                            e.sharers |= bit;
                            e.owner = None;
                        }
                    }
                    None if is_write => {
                        self.invalidate_sharers(entry.sharers & !bit, line);
                        let e = &mut self.l3.values[at];
                        e.sharers = bit;
                        e.owner = Some(core as u32);
                    }
                    None => self.l3.values[at].sharers |= bit,
                }
            }
            None => {
                let owner = is_write.then_some(core as u32);
                let entry = DirEntry { dirty: false, sharers: bit, owner };
                if let Some((victim, evicted)) = self.l3.push(l3_set, line, entry) {
                    // Inclusion: the victim leaves every private cache.
                    self.invalidate_sharers(evicted.sharers, victim);
                }
            }
        }
        let state = if is_write { LineState::Modified } else { LineState::Shared };
        self.fill_l2(core, line, state);
        self.fill_l1(core, line, state);
    }

    /// An access by a sharer of `line` (at L3 position `at`), serviced by
    /// its own L1D or L2.  Returns `false` if neither holds the line.
    fn private_hit(&mut self, core: usize, line: u64, is_write: bool, at: usize) -> bool {
        let l1_set = self.l1_set(core, line);
        if let Some(way) = self.l1d.find(l1_set, line) {
            self.l1d.touch(way);
            if is_write && self.l1d.values[way] == LineState::Shared {
                self.upgrade(core, line, at);
                self.l1d.values[way] = LineState::Modified;
                self.set_l2_state(core, line, LineState::Modified);
            }
            return true;
        }
        let l2_set = self.l2_set(core, line);
        let Some(way) = self.l2.find(l2_set, line) else {
            return false;
        };
        self.l2.touch(way);
        let mut state = self.l2.values[way];
        if is_write && state == LineState::Shared {
            self.upgrade(core, line, at);
            self.l2.values[way] = LineState::Modified;
            state = LineState::Modified;
        }
        self.fill_l1(core, line, state);
        true
    }

    /// A write upgrade of `line` (at L3 position `at`) by `core`: every
    /// other private copy goes and `core` becomes the owner.
    fn upgrade(&mut self, core: usize, line: u64, at: usize) {
        let others = self.l3.values[at].sharers & !(1 << core);
        self.invalidate_sharers(others, line);
        let e = &mut self.l3.values[at];
        e.sharers = 1 << core;
        e.owner = Some(core as u32);
    }

    fn invalidate_sharers(&mut self, mut mask: u64, line: u64) {
        while mask != 0 {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if core < self.cores {
                self.invalidate_private(core, line);
            }
        }
    }

    fn invalidate_private(&mut self, core: usize, line: u64) {
        let l1_set = self.l1_set(core, line);
        if let Some(way) = self.l1d.find(l1_set, line) {
            self.l1d.remove(l1_set, way);
        }
        let l2_set = self.l2_set(core, line);
        if let Some(way) = self.l2.find(l2_set, line) {
            self.l2.remove(l2_set, way);
        }
    }

    fn set_private_state(&mut self, core: usize, line: u64, state: LineState) {
        let l1_set = self.l1_set(core, line);
        if let Some(way) = self.l1d.find(l1_set, line) {
            self.l1d.values[way] = state;
        }
        self.set_l2_state(core, line, state);
    }

    /// Sets the state of `core`'s L2 copy of `line`, if it has one.
    fn set_l2_state(&mut self, core: usize, line: u64, state: LineState) {
        let l2_set = self.l2_set(core, line);
        if let Some(way) = self.l2.find(l2_set, line) {
            self.l2.values[way] = state;
        }
    }

    /// Fills `core`'s L1D.  The victim's L2 copy already holds its state
    /// (L1D ⊆ L2 with equal states), so merging a dirty victim into it
    /// changes nothing.
    fn fill_l1(&mut self, core: usize, line: u64, state: LineState) {
        let l1_set = self.l1_set(core, line);
        self.l1d.push(l1_set, line, state);
    }

    /// Fills `core`'s L2; the victim leaves the L1D too, and its directory
    /// entry drops `core` (and records the write-back of a dirty copy).
    fn fill_l2(&mut self, core: usize, line: u64, state: LineState) {
        let l2_set = self.l2_set(core, line);
        let Some((victim, victim_state)) = self.l2.push(l2_set, line, state) else {
            return;
        };
        let dirty = victim_state == LineState::Modified;
        let l1_set = self.l1_set(core, victim);
        if let Some(way) = self.l1d.find(l1_set, victim) {
            self.l1d.remove(l1_set, way);
        }
        let l3_set = self.l3_set(victim);
        if let Some(at) = self.l3.find(l3_set, victim) {
            let e = &mut self.l3.values[at];
            e.dirty |= dirty;
            e.sharers &= !(1 << core);
            if e.owner == Some(core as u32) {
                e.owner = None;
            }
        }
    }
}
