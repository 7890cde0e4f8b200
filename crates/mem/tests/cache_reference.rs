//! Differential tests of [`Cache`] and [`SharedCache`] against a naive
//! true-LRU reference model.
//!
//! The reference keeps each set as a recency-ordered list (least recent
//! first) and knows nothing about ways, ticks or victim scans.  Every valid
//! way of a real set carries a distinct touch time, so true LRU names exactly
//! one victim; any scan order, indexing scheme or bookkeeping shortcut in the
//! caches must therefore reproduce the reference's return values one for one.
//!
//! The same generators drive the differential contract of
//! [`MemoryHierarchy::install`]: its state must equal the one a replay
//! through [`MemoryHierarchy::access`] reaches, set by set and entry by
//! entry.

use bp_mem::{
    Cache, CacheConfig, DirEntry, EvictedLine, EvictedShared, LineState, MemoryConfig,
    MemoryHierarchy, SharedCache,
};
use proptest::prelude::*;

const LINE_BYTES: u64 = 64;

/// `(sets, ways)` geometries: direct-mapped, fully associative, and a
/// non-power-of-two associativity.
const GEOMETRIES: [(u64, usize); 5] = [(1, 1), (1, 4), (4, 2), (8, 3), (16, 4)];

/// A recency-ordered set model: `entries[0]` is the least recently used.
#[derive(Debug, Clone)]
struct RefSet<T> {
    entries: Vec<(u64, T)>,
}

impl<T: Copy> RefSet<T> {
    fn position(&self, line: u64) -> Option<usize> {
        self.entries.iter().position(|&(l, _)| l == line)
    }

    /// Moves `line` to the most-recent end and returns its payload.
    fn touch(&mut self, line: u64) -> Option<T> {
        let idx = self.position(line)?;
        let entry = self.entries.remove(idx);
        self.entries.push(entry);
        Some(entry.1)
    }

    fn get(&self, line: u64) -> Option<T> {
        self.position(line).map(|idx| self.entries[idx].1)
    }

    fn get_mut(&mut self, line: u64) -> Option<&mut T> {
        let idx = self.position(line)?;
        Some(&mut self.entries[idx].1)
    }

    /// Inserts or overwrites `line` as most recent; returns the evicted
    /// least-recent entry when the set was full.
    fn insert(&mut self, line: u64, value: T, ways: usize) -> Option<(u64, T)> {
        if let Some(idx) = self.position(line) {
            self.entries.remove(idx);
            self.entries.push((line, value));
            return None;
        }
        let victim = if self.entries.len() == ways { Some(self.entries.remove(0)) } else { None };
        self.entries.push((line, value));
        victim
    }

    fn remove(&mut self, line: u64) -> Option<T> {
        let idx = self.position(line)?;
        Some(self.entries.remove(idx).1)
    }
}

/// A cache model: `sets` recency lists selected by `(line / interleave) % sets`.
#[derive(Debug, Clone)]
struct RefCache<T> {
    sets: Vec<RefSet<T>>,
    ways: usize,
    interleave: u64,
}

impl<T: Copy> RefCache<T> {
    fn new(sets: u64, ways: usize, interleave: u64) -> Self {
        Self {
            sets: vec![RefSet { entries: Vec::new() }; sets as usize],
            ways,
            interleave: interleave.max(1),
        }
    }

    fn set(&mut self, line: u64) -> &mut RefSet<T> {
        let idx = (line / self.interleave) % self.sets.len() as u64;
        &mut self.sets[idx as usize]
    }

    fn insert(&mut self, line: u64, value: T) -> Option<(u64, T)> {
        let ways = self.ways;
        self.set(line).insert(line, value, ways)
    }

    fn clear(&mut self) {
        for set in &mut self.sets {
            set.entries.clear();
        }
    }

    fn sorted_lines(&self) -> Vec<(u64, T)> {
        let mut lines: Vec<_> = self.sets.iter().flat_map(|s| s.entries.iter().copied()).collect();
        lines.sort_by_key(|&(line, _)| line);
        lines
    }
}

/// One operation of a random stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u64),
    Peek(u64),
    Contains(u64),
    Insert(u64, u8),
    SetState(u64, u8),
    Update(u64, u8),
    Invalidate(u64),
    Clear,
}

/// Line addresses: a small pool (so sets conflict) placed at one of several
/// bases, including the top of the address space.
fn lines() -> impl Strategy<Value = u64> {
    (proptest::sample::select(vec![0u64, 1 << 40, u64::MAX / LINE_BYTES - 256]), 0u64..96)
        .prop_map(|(base, offset)| base + offset)
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..100, lines(), any::<u8>()).prop_map(|(pick, line, arg)| match pick {
        0..=24 => Op::Lookup(line),
        25..=31 => Op::Peek(line),
        32..=35 => Op::Contains(line),
        36..=71 => Op::Insert(line, arg),
        72..=81 => Op::SetState(line, arg),
        82..=89 => Op::Update(line, arg),
        90..=98 => Op::Invalidate(line),
        _ => Op::Clear,
    });
    proptest::collection::vec(op, 1..600)
}

fn valid_state(arg: u8) -> LineState {
    if arg.is_multiple_of(2) {
        LineState::Shared
    } else {
        LineState::Modified
    }
}

fn any_state(arg: u8) -> LineState {
    match arg % 3 {
        0 => LineState::Shared,
        1 => LineState::Modified,
        _ => LineState::Invalid,
    }
}

fn dir_entry(arg: u8) -> DirEntry {
    let sharers = u64::from(arg) * 0x0101_0101_0001;
    DirEntry {
        dirty: arg & 1 == 1,
        sharers,
        owner: arg.is_multiple_of(5).then_some(u32::from(arg % 7)),
    }
}

fn config(sets: u64, ways: usize) -> CacheConfig {
    CacheConfig::new(sets * ways as u64 * LINE_BYTES, ways, 3)
}

fn check_cache(sets: u64, ways: usize, stream: &[Op]) {
    let mut cache = Cache::new(&config(sets, ways), LINE_BYTES);
    let mut model: RefCache<LineState> = RefCache::new(sets, ways, 1);
    assert_eq!(cache.capacity_lines(), sets as usize * ways);
    for (step, &op) in stream.iter().enumerate() {
        let ctx = format!("{sets}x{ways} step {step}: {op:?}");
        match op {
            Op::Lookup(line) => {
                assert_eq!(cache.lookup(line), model.set(line).touch(line), "{ctx}")
            }
            Op::Peek(line) => assert_eq!(cache.peek(line), model.set(line).get(line), "{ctx}"),
            Op::Contains(line) => {
                assert_eq!(cache.contains(line), model.set(line).get(line).is_some(), "{ctx}")
            }
            Op::Insert(line, arg) => {
                let state = valid_state(arg);
                let expected = model
                    .insert(line, state)
                    .map(|(line, s)| EvictedLine { line, dirty: s == LineState::Modified });
                assert_eq!(cache.insert(line, state), expected, "{ctx}");
            }
            Op::SetState(line, arg) | Op::Update(line, arg) => {
                let state = any_state(arg);
                let set = model.set(line);
                let expected = set.get(line).is_some();
                if expected {
                    if state.is_valid() {
                        *set.get_mut(line).expect("resident") = state;
                    } else {
                        set.remove(line);
                    }
                }
                assert_eq!(cache.set_state(line, state), expected, "{ctx}");
            }
            Op::Invalidate(line) => {
                let expected = model.set(line).remove(line).map(|s| s == LineState::Modified);
                assert_eq!(cache.invalidate(line), expected, "{ctx}");
            }
            Op::Clear => {
                cache.clear();
                model.clear();
            }
        }
        let mut actual: Vec<_> = cache.valid_lines().collect();
        actual.sort_by_key(|&(line, _)| line);
        assert_eq!(actual, model.sorted_lines(), "{ctx}");
        assert_eq!(cache.occupancy(), actual.len(), "{ctx}");
    }
}

fn check_shared(sets: u64, ways: usize, interleave: u64, stream: &[Op]) {
    let mut cache = SharedCache::with_interleave(&config(sets, ways), LINE_BYTES, interleave);
    let mut model: RefCache<DirEntry> = RefCache::new(sets, ways, interleave);
    for (step, &op) in stream.iter().enumerate() {
        let ctx = format!("{sets}x{ways}/{interleave} step {step}: {op:?}");
        match op {
            Op::Lookup(line) => {
                assert_eq!(cache.lookup(line), model.set(line).touch(line), "{ctx}")
            }
            Op::Peek(line) => assert_eq!(cache.peek(line), model.set(line).get(line), "{ctx}"),
            Op::Contains(line) => {
                assert_eq!(cache.contains(line), model.set(line).get(line).is_some(), "{ctx}")
            }
            Op::Insert(line, arg) | Op::SetState(line, arg) => {
                let entry = dir_entry(arg);
                let expected = model.insert(line, entry).map(|(line, e)| EvictedShared {
                    line,
                    dirty: e.dirty || e.owner.is_some(),
                    sharers: e.sharers,
                    owner: e.owner,
                });
                assert_eq!(cache.insert(line, entry), expected, "{ctx}");
            }
            Op::Update(line, arg) => {
                let edit = |e: &mut DirEntry| {
                    e.sharers ^= 1 << (arg % 64);
                    e.dirty |= arg.is_multiple_of(3);
                    e.owner = arg.is_multiple_of(4).then_some(u32::from(arg % 9));
                };
                let expected = match model.set(line).get_mut(line) {
                    Some(e) => {
                        edit(e);
                        true
                    }
                    None => false,
                };
                assert_eq!(cache.update(line, edit), expected, "{ctx}");
            }
            Op::Invalidate(line) => {
                assert_eq!(cache.invalidate(line), model.set(line).remove(line), "{ctx}");
            }
            Op::Clear => {
                cache.clear();
                model.clear();
            }
        }
        let mut actual: Vec<_> = cache.valid_lines().collect();
        actual.sort_by_key(|&(line, _)| line);
        assert_eq!(actual, model.sorted_lines(), "{ctx}");
        assert_eq!(cache.occupancy(), actual.len(), "{ctx}");
    }
}

/// A data-access stream for [`MemoryHierarchy::install`]: `(cores, line
/// size, accesses)`.  Lines come from [`lines`] (few lines, heavy sharing,
/// set conflicts) or from a pool twice the L3's size (L3 evictions and
/// back-invalidations); half the accesses write; up to ten cores span two
/// sockets.  At 128-byte lines two of the stream's 64-byte lines share one
/// hierarchy line, so cores repeat lines they still hold.
fn install_streams() -> impl Strategy<Value = (usize, u64, Vec<(usize, u64, bool)>)> {
    let l3_lines = MemoryConfig::tiny().l3.num_lines(LINE_BYTES);
    let access = (0usize..10, lines(), 0..2 * l3_lines, any::<bool>());
    let line_bytes = proptest::sample::select(vec![32u64, 64, 128]);
    (1usize..=10, line_bytes, any::<bool>(), proptest::collection::vec(access, 0..1500)).prop_map(
        |(cores, line_bytes, wide, accesses)| {
            let stream = accesses
                .into_iter()
                .map(|(core, near, far, is_write)| {
                    let line = if wide { far } else { near };
                    (core % cores, line * LINE_BYTES, is_write)
                })
                .collect();
            (cores, line_bytes, stream)
        },
    )
}

/// [`install_streams`] on at most six cores: with two cores per socket
/// they span up to three sockets, so lines interleave over a socket count
/// that is not a power of two.
fn three_socket_streams() -> impl Strategy<Value = (usize, u64, Vec<(usize, u64, bool)>)> {
    install_streams().prop_map(|(cores, line_bytes, stream)| {
        let cores = cores.min(6);
        let stream = stream.into_iter().map(|(core, addr, w)| (core % cores, addr, w)).collect();
        (cores, line_bytes, stream)
    })
}

/// The oracle of [`MemoryHierarchy::install`]: every access replayed
/// through the timed path of a cleared hierarchy.
fn replay(hierarchy: &mut MemoryHierarchy, stream: &[(usize, u64, bool)]) {
    hierarchy.clear();
    for &(core, addr, is_write) in stream {
        hierarchy.access(core, addr, is_write);
    }
    hierarchy.reset_stats();
}

/// The assertions of `install_matches_replay_through_access` on `config`:
/// `install` of `stream` over a hierarchy dirtied by `probe` leaves the
/// canonical state and statistics of a replay, and both then answer
/// `probe` identically.
fn check_install(
    config: &MemoryConfig,
    cores: usize,
    stream: &[(usize, u64, bool)],
    probe: &[(usize, u64, bool)],
) {
    let mut installed = MemoryHierarchy::new(config, cores);
    for &(core, addr, is_write) in probe.iter().rev() {
        installed.access(core % cores, addr, is_write);
    }
    installed.install(stream.iter().copied());
    let mut replayed = MemoryHierarchy::new(config, cores);
    replay(&mut replayed, stream);
    prop_assert_eq!(installed.canonical_state(), replayed.canonical_state());
    prop_assert_eq!(installed.stats(), replayed.stats());
    for (step, &(core, addr, is_write)) in probe.iter().enumerate() {
        let core = core % cores;
        let (a, b) = if step % 5 == 4 {
            (installed.fetch_instruction(core, addr), replayed.fetch_instruction(core, addr))
        } else {
            (installed.access(core, addr, is_write), replayed.access(core, addr, is_write))
        };
        prop_assert_eq!(a, b, "probe step {}", step);
    }
    prop_assert_eq!(installed.stats(), replayed.stats());
    prop_assert_eq!(installed.canonical_state(), replayed.canonical_state());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every return value of `Cache` — hits, states, victims and their
    /// dirtiness — and its resident set match true LRU after every op.
    #[test]
    fn cache_matches_true_lru_reference(stream in ops()) {
        for (sets, ways) in GEOMETRIES {
            check_cache(sets, ways, &stream);
        }
    }

    /// Every return value of `SharedCache` — directory entries, victims
    /// with their dirtiness, sharers and owner — and its resident set match
    /// true LRU after every op, for every socket interleave.
    #[test]
    fn shared_cache_matches_true_lru_reference(stream in ops()) {
        for (sets, ways) in GEOMETRIES {
            for interleave in [1, 2, 3, 4] {
                check_shared(sets, ways, interleave, &stream);
            }
        }
    }

    /// `install` leaves every set holding the lines, recency order, MSI
    /// states and directory entries an access-by-access replay leaves, with
    /// cleared statistics, starting from a hierarchy in any state; both
    /// then answer a probe stream (loads, stores and instruction fetches)
    /// identically.
    #[test]
    fn install_matches_replay_through_access(
        (cores, line_bytes, stream) in install_streams(),
        (_, _, probe) in install_streams(),
    ) {
        let config = MemoryConfig { line_bytes, ..MemoryConfig::tiny() };
        let mut installed = MemoryHierarchy::new(&config, cores);
        // A stale state the install must overwrite.
        for &(core, addr, is_write) in probe.iter().rev() {
            installed.access(core % cores, addr, is_write);
        }
        installed.install(stream.iter().copied());
        let mut replayed = MemoryHierarchy::new(&config, cores);
        replay(&mut replayed, &stream);
        prop_assert_eq!(installed.canonical_state(), replayed.canonical_state());
        prop_assert_eq!(installed.stats(), replayed.stats());
        for (step, &(core, addr, is_write)) in probe.iter().enumerate() {
            let core = core % cores;
            let (a, b) = if step % 5 == 4 {
                (installed.fetch_instruction(core, addr), replayed.fetch_instruction(core, addr))
            } else {
                (installed.access(core, addr, is_write), replayed.access(core, addr, is_write))
            };
            prop_assert_eq!(a, b, "probe step {}", step);
        }
        prop_assert_eq!(installed.stats(), replayed.stats());
        prop_assert_eq!(installed.canonical_state(), replayed.canonical_state());
    }

    /// The install differential on machines of two cores per socket, up to
    /// three sockets: the home socket and the L3 set of a line come from a
    /// division by three, which no other machine here exercises.
    #[test]
    fn install_matches_replay_across_three_sockets(
        (cores, line_bytes, stream) in three_socket_streams(),
        (_, _, probe) in three_socket_streams(),
    ) {
        let config = MemoryConfig { line_bytes, cores_per_socket: 2, ..MemoryConfig::tiny() };
        check_install(&config, cores, &stream, &probe);
    }
}
