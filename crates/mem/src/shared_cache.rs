use crate::config::CacheConfig;
use crate::install::SetTable;
use serde::{Deserialize, Serialize};

/// Directory information attached to a line in the shared last-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Whether the L3 copy is newer than DRAM.
    pub dirty: bool,
    /// Bitmask of cores that may hold the line in their private caches.
    pub sharers: u64,
    /// Core holding the line in Modified state, if any.
    pub owner: Option<u32>,
}

impl DirEntry {
    /// An entry with no private copies.
    pub fn clean() -> Self {
        Self { dirty: false, sharers: 0, owner: None }
    }

    /// Returns `true` if `core` is marked as a sharer.
    pub fn has_sharer(&self, core: usize) -> bool {
        self.sharers & (1u64 << core) != 0
    }
}

/// A line evicted from the shared cache; the caller must back-invalidate the
/// listed sharers to preserve inclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedShared {
    /// Line address of the victim.
    pub line: u64,
    /// Whether the line (or a private copy) must be written back to memory.
    pub dirty: bool,
    /// Private caches that may still hold the line.
    pub sharers: u64,
    /// Core owning a Modified copy, if any.
    pub owner: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirWay {
    line: u64,
    valid: bool,
    lru: u64,
    entry: DirEntry,
}

impl DirWay {
    fn invalid() -> Self {
        Self { line: 0, valid: false, lru: 0, entry: DirEntry::clean() }
    }
}

/// Where a resident line sits: its set and way.  Valid until the next
/// insert, invalidate or clear of the cache that returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    set: usize,
    way: usize,
}

/// An inclusive, set-associative shared last-level cache with an embedded
/// full-map MSI directory (up to 64 cores).
///
/// The BarrierPoint machine (Table I) shares one such cache among the eight
/// cores of a socket; the directory tracks which cores hold private copies so
/// that writes can invalidate remote sharers and reads can fetch dirty data
/// from a remote owner.
#[derive(Debug, Clone)]
pub struct SharedCache {
    sets: Vec<Vec<DirWay>>,
    /// `num_sets - 1`: the set index is `(line / interleave) & set_mask`.
    set_mask: u64,
    latency: u64,
    tick: u64,
    /// Socket-interleaving factor: set selection uses `line / interleave` so
    /// that lines homed to this socket (every `interleave`-th line) spread
    /// over all sets instead of aliasing into a fraction of them.
    interleave: u64,
}

impl SharedCache {
    /// Builds an empty shared cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate or its set count is not a power
    /// of two (see [`CacheConfig::num_sets`]).
    pub fn new(config: &CacheConfig, line_bytes: u64) -> Self {
        Self::with_interleave(config, line_bytes, 1)
    }

    /// Builds an empty shared cache whose set index is computed from
    /// `line / interleave`, for use in a machine that interleaves lines
    /// across `interleave` sockets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate or its set count is not a power
    /// of two (see [`CacheConfig::num_sets`]).
    pub fn with_interleave(config: &CacheConfig, line_bytes: u64, interleave: u64) -> Self {
        let num_sets = config.num_sets(line_bytes);
        Self {
            sets: vec![vec![DirWay::invalid(); config.associativity]; num_sets],
            set_mask: num_sets as u64 - 1,
            latency: config.latency_cycles,
            tick: 0,
            interleave: interleave.max(1),
        }
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    fn set_index(&self, line: u64) -> usize {
        ((line / self.interleave) & self.set_mask) as usize
    }

    fn find(&self, line: u64) -> Option<Slot> {
        let set = self.set_index(line);
        let way = self.sets[set].iter().position(|w| w.valid && w.line == line)?;
        Some(Slot { set, way })
    }

    /// [`lookup`](Self::lookup) that also returns where the line sits, so
    /// the caller can write its entry through [`entry_mut`](Self::entry_mut)
    /// without a second scan.
    pub(crate) fn lookup_slot(&mut self, line: u64) -> Option<(Slot, DirEntry)> {
        self.tick += 1;
        let slot = self.find(line)?;
        let way = &mut self.sets[slot.set][slot.way];
        way.lru = self.tick;
        Some((slot, way.entry))
    }

    /// [`peek`](Self::peek) that also returns where the line sits.
    pub(crate) fn peek_slot(&self, line: u64) -> Option<(Slot, DirEntry)> {
        let slot = self.find(line)?;
        Some((slot, self.sets[slot.set][slot.way].entry))
    }

    /// The directory entry of the line at `slot` (from
    /// [`lookup_slot`](Self::lookup_slot) or [`peek_slot`](Self::peek_slot)).
    pub(crate) fn entry_mut(&mut self, slot: Slot) -> &mut DirEntry {
        &mut self.sets[slot.set][slot.way].entry
    }

    /// Looks up a line, refreshing its LRU position.
    pub fn lookup(&mut self, line: u64) -> Option<DirEntry> {
        self.lookup_slot(line).map(|(_, entry)| entry)
    }

    /// Reads a line's directory entry without touching LRU state.
    pub fn peek(&self, line: u64) -> Option<DirEntry> {
        self.peek_slot(line).map(|(_, entry)| entry)
    }

    /// Returns `true` if `line` is resident.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Inserts a line with a fresh directory entry, evicting the LRU victim
    /// of the set if necessary.
    pub fn insert(&mut self, line: u64, entry: DirEntry) -> Option<EvictedShared> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(line);
        let ways = &mut self.sets[set];
        // One pass, with the same choice as `Cache::insert`: the resident
        // copy, else the first free way, else the first with the oldest touch.
        let (mut free, mut victim, mut oldest) = (None, 0, u64::MAX);
        for (idx, way) in ways.iter_mut().enumerate() {
            if way.valid {
                if way.line == line {
                    way.entry = entry;
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
        let new = DirWay { line, valid: true, lru: tick, entry };
        let old = std::mem::replace(&mut ways[free.unwrap_or(victim)], new);
        free.is_none().then_some(EvictedShared {
            line: old.line,
            dirty: old.entry.dirty || old.entry.owner.is_some(),
            sharers: old.entry.sharers,
            owner: old.entry.owner,
        })
    }

    /// Applies `f` to the directory entry of `line`; returns `false` if the
    /// line is not resident.
    pub fn update<F: FnOnce(&mut DirEntry)>(&mut self, line: u64, f: F) -> bool {
        match self.find(line) {
            Some(slot) => {
                f(self.entry_mut(slot));
                true
            }
            None => false,
        }
    }

    /// Removes `line`; returns its entry if it was resident.
    pub fn invalidate(&mut self, line: u64) -> Option<DirEntry> {
        let slot = self.find(line)?;
        let way = &mut self.sets[slot.set][slot.way];
        way.valid = false;
        Some(way.entry)
    }

    /// Drops all lines.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            for way in set {
                *way = DirWay::invalid();
            }
        }
        self.tick = 0;
    }

    /// Replaces the contents with `sets`' sets `first..first + num_sets`:
    /// their lines and directory entries, each line's last-touch time as
    /// its recency.
    pub(crate) fn load(&mut self, sets: &SetTable<DirEntry>, first: usize) {
        for (index, ways) in self.sets.iter_mut().enumerate() {
            let (lines, entries, stamps) = sets.set(first + index);
            let (filled, empty) = ways.split_at_mut(lines.len());
            for (way, ((&line, &entry), &lru)) in
                filled.iter_mut().zip(lines.iter().zip(entries).zip(stamps))
            {
                *way = DirWay { line, valid: true, lru, entry };
            }
            empty.fill(DirWay::invalid());
        }
        self.tick = sets.clock();
    }

    /// Every set's resident lines and directory entries, least recently
    /// used first.
    pub(crate) fn recency_sets(&self) -> Vec<Vec<(u64, DirEntry)>> {
        self.sets
            .iter()
            .map(|ways| {
                let mut valid: Vec<&DirWay> = ways.iter().filter(|w| w.valid).collect();
                valid.sort_by_key(|w| w.lru);
                valid.iter().map(|w| (w.line, w.entry)).collect()
            })
            .collect()
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.iter().filter(|w| w.valid).count()).sum()
    }

    /// Iterates over resident lines as `(line, entry)`.
    pub fn valid_lines(&self) -> impl Iterator<Item = (u64, DirEntry)> + '_ {
        self.sets.iter().flatten().filter(|w| w.valid).map(|w| (w.line, w.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SharedCache {
        // 2 sets x 2 ways.
        SharedCache::new(&CacheConfig::new(256, 2, 30), 64)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = small();
        let entry = DirEntry { dirty: true, sharers: 0b101, owner: Some(2) };
        assert!(c.insert(10, entry).is_none());
        assert_eq!(c.lookup(10), Some(entry));
        assert!(c.peek(10).unwrap().has_sharer(0));
        assert!(!c.peek(10).unwrap().has_sharer(1));
    }

    #[test]
    fn eviction_reports_sharers_for_back_invalidation() {
        let mut c = small();
        // Lines 0, 2, 4 map to set 0.
        c.insert(0, DirEntry { dirty: false, sharers: 0b11, owner: None });
        c.insert(2, DirEntry::clean());
        c.lookup(0);
        let victim = c.insert(4, DirEntry::clean()).expect("eviction");
        assert_eq!(victim.line, 2);
        let victim2 = c.insert(6, DirEntry::clean()).expect("eviction");
        assert_eq!(victim2.line, 0);
        assert_eq!(victim2.sharers, 0b11);
    }

    #[test]
    fn owner_implies_dirty_eviction() {
        let mut c = small();
        c.insert(0, DirEntry { dirty: false, sharers: 0b1, owner: Some(0) });
        c.insert(2, DirEntry::clean());
        c.lookup(2);
        let victim = c.insert(4, DirEntry::clean()).expect("eviction");
        assert_eq!(victim.line, 0);
        assert!(victim.dirty);
    }

    #[test]
    fn update_in_place() {
        let mut c = small();
        c.insert(1, DirEntry::clean());
        assert!(c.update(1, |e| {
            e.sharers |= 0b100;
            e.dirty = true;
        }));
        assert_eq!(c.peek(1).unwrap().sharers, 0b100);
        assert!(c.peek(1).unwrap().dirty);
        assert!(!c.update(99, |_| {}));
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = small();
        c.insert(1, DirEntry::clean());
        c.insert(3, DirEntry::clean());
        assert!(c.invalidate(1).is_some());
        assert!(c.invalidate(1).is_none());
        assert_eq!(c.occupancy(), 1);
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }
}
