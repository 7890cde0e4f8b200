//! A byte-bounded, least-recently-used in-process cache tier: the core of
//! the [`ArtifactCache`](crate::ArtifactCache) memory tier, generic so its
//! unit tests drive it with small types.
//!
//! One mutex guards the entries, the LRU clock, the byte total and the
//! bound, and every operation, eviction included, runs under it: eviction is
//! exact global LRU and [`total_bytes`](MemoryTier::total_bytes) equals the
//! sum of resident entry sizes at every instant.  The artifact cache calls
//! the tier only from the thread that drives a sweep or a stage, never from
//! a fan-out worker, so the lock is uncontended in practice.

use bp_exec::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

/// One resident entry: the value, the bytes it charges against the bound
/// (for the artifact cache, the serialized entry size, so both tiers meter
/// the same way) and its LRU stamp, the clock at its last hit or insert.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    bytes: u64,
    last_used: u64,
}

/// Everything the tier's one lock guards.  `tick` is the LRU clock, advanced
/// by every lookup and insert so stamps are unique; `total_bytes` is the sum
/// of the entries' `bytes`.
#[derive(Debug)]
struct State<K, V> {
    entries: HashMap<K, Entry<V>>,
    tick: u64,
    total_bytes: u64,
    max_bytes: Option<u64>,
}

impl<K: Hash + Eq, V> State<K, V> {
    /// Removes `key`, releasing its bytes.
    fn remove(&mut self, key: &K) -> Option<Entry<V>> {
        let entry = self.entries.remove(key)?;
        self.total_bytes -= entry.bytes;
        Some(entry)
    }
}

/// An in-process cache tier with a global LRU order and a byte bound.
/// Values are returned by clone, so `V` is typically an `Arc` (or a small
/// enum of `Arc`s): a hit is a pointer clone.
#[derive(Debug)]
pub struct MemoryTier<K, V> {
    state: Mutex<State<K, V>>,
}

impl<K, V> Default for MemoryTier<K, V> {
    fn default() -> Self {
        let state = State { entries: HashMap::new(), tick: 0, total_bytes: 0, max_bytes: None };
        Self { state: Mutex::new(state) }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> MemoryTier<K, V> {
    /// Looks up `key`, marking the entry most recently used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let state = &mut *self.state.lock();
        state.tick += 1;
        let entry = state.entries.get_mut(key)?;
        entry.last_used = state.tick;
        Some(entry.value.clone())
    }

    /// Inserts (or replaces) `key`, then enforces the byte bound by
    /// dropping least-recently-used entries.  An entry that on its own
    /// exceeds the bound is declined without flushing anything else, which
    /// makes a bound of `0` an exact "tier off" switch.  `evictions` is
    /// bumped once per capacity eviction; replacing or declining under the
    /// inserted key is not an eviction.
    ///
    /// Returns whether the entry was retained, so a caller whose disk store
    /// also failed knows the artifact is resident in *neither* tier.
    pub fn insert(&self, key: K, value: V, bytes: u64, evictions: &AtomicU64) -> bool {
        let mut state = self.state.lock();
        let max_bytes = state.max_bytes.unwrap_or(u64::MAX);
        if bytes > max_bytes {
            state.remove(&key);
            return false;
        }
        state.tick += 1;
        let entry = Entry { value, bytes, last_used: state.tick };
        let replaced = state.entries.insert(key, entry).map_or(0, |old| old.bytes);
        state.total_bytes = state.total_bytes - replaced + bytes;
        while state.total_bytes > max_bytes {
            // The new entry holds the newest stamp and fits the bound alone,
            // so the loop stops before it becomes the oldest.
            let oldest = state.entries.iter().min_by_key(|(_, entry)| entry.last_used);
            let Some(victim) = oldest.map(|(key, _)| key.clone()) else { break };
            state.remove(&victim);
            // ordering: Relaxed — the caller's monotonic telemetry counter;
            // readers only snapshot it.
            evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Removes `key`, returning whether it was resident.  An explicit
    /// invalidation, not an eviction.
    pub fn remove(&self, key: &K) -> bool {
        self.state.lock().remove(key).is_some()
    }

    /// Sets (or clears) the byte bound.  Applies to subsequent inserts;
    /// resident entries above a lowered bound age out on the next insert.
    pub fn set_max_bytes(&self, max_bytes: Option<u64>) {
        self.state.lock().max_bytes = max_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Barrier;

    /// Read-only views the tests check the tier's state through.
    impl<K: Hash + Eq, V> MemoryTier<K, V> {
        /// Whether `key` is resident, *without* touching its LRU stamp.
        fn contains(&self, key: &K) -> bool {
            self.state.lock().entries.contains_key(key)
        }

        /// The configured byte bound, if any.
        fn max_bytes(&self) -> Option<u64> {
            self.state.lock().max_bytes
        }

        /// The byte accounting total, kept with every change to the entries.
        fn total_bytes(&self) -> u64 {
            self.state.lock().total_bytes
        }

        /// The sum of resident entry sizes, recomputed: it equals
        /// [`total_bytes`](Self::total_bytes).
        fn resident_bytes(&self) -> u64 {
            self.state.lock().entries.values().map(|entry| entry.bytes).sum()
        }

        /// Number of resident entries.
        fn len(&self) -> usize {
            self.state.lock().entries.len()
        }

        /// Whether the tier is empty.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Evictions counter for tests.
    fn ctr() -> AtomicU64 {
        AtomicU64::new(0)
    }

    fn ctr_value(c: &AtomicU64) -> u64 {
        // ordering: Relaxed — test-side snapshot.
        c.load(Ordering::Relaxed)
    }

    #[test]
    fn get_returns_inserted_value_and_misses_absent_keys() {
        let tier: MemoryTier<u32, u64> = MemoryTier::default();
        let ev = ctr();
        assert!(tier.insert(1, 10, 4, &ev), "a fitting insert is retained");
        assert_eq!(tier.get(&1), Some(10));
        assert_eq!(tier.get(&2), None);
        assert_eq!(tier.total_bytes(), 4);
        assert_eq!(tier.resident_bytes(), 4);
        assert_eq!(ctr_value(&ev), 0);
    }

    #[test]
    fn replace_updates_value_and_accounting() {
        let tier: MemoryTier<u32, u64> = MemoryTier::default();
        let ev = ctr();
        tier.insert(1, 10, 4, &ev);
        tier.insert(1, 11, 9, &ev);
        assert_eq!(tier.get(&1), Some(11));
        assert_eq!(tier.total_bytes(), 9);
        assert_eq!(tier.len(), 1);
        assert_eq!(ctr_value(&ev), 0, "a replace is not an eviction");
    }

    #[test]
    fn bound_evicts_globally_least_recently_used_first() {
        let tier: MemoryTier<u32, u64> = MemoryTier::default();
        tier.set_max_bytes(Some(3));
        let ev = ctr();
        tier.insert(1, 10, 1, &ev);
        tier.insert(2, 20, 1, &ev);
        tier.insert(3, 30, 1, &ev);
        // Touch 1 so 2 becomes the LRU entry, then overflow.
        assert_eq!(tier.get(&1), Some(10));
        tier.insert(4, 40, 1, &ev);
        assert!(tier.contains(&1), "touched entry survives");
        assert!(!tier.contains(&2), "LRU entry is the victim");
        assert!(tier.contains(&3));
        assert!(tier.contains(&4), "an insert never evicts itself");
        assert_eq!(ctr_value(&ev), 1);
        assert_eq!(tier.total_bytes(), 3);
        assert_eq!(tier.resident_bytes(), 3);
    }

    #[test]
    fn oversized_entry_is_declined_and_clears_stale_value() {
        let tier: MemoryTier<u32, u64> = MemoryTier::default();
        tier.set_max_bytes(Some(10));
        let ev = ctr();
        tier.insert(1, 10, 4, &ev);
        // The replacement is too large: the key ends up absent entirely,
        // and the caller is told the entry was declined.
        assert!(!tier.insert(1, 11, 11, &ev), "an oversized insert reports decline");
        assert!(!tier.contains(&1));
        assert_eq!(tier.total_bytes(), 0);
        assert_eq!(ctr_value(&ev), 0, "declining an insert is not an eviction");
        // And nothing else was flushed trying to make room.
        tier.insert(2, 20, 4, &ev);
        tier.insert(3, 30, 99, &ev);
        assert!(tier.contains(&2));
        assert_eq!(ctr_value(&ev), 0);
    }

    #[test]
    fn zero_bound_disables_the_tier() {
        let tier: MemoryTier<u32, u64> = MemoryTier::default();
        tier.set_max_bytes(Some(0));
        let ev = ctr();
        assert!(!tier.insert(1, 10, 1, &ev), "a disabled tier declines every insert");
        assert_eq!(tier.get(&1), None);
        assert_eq!(tier.total_bytes(), 0);
        assert!(tier.is_empty());
    }

    /// Byte accounting under a replace race: however two threads racing to
    /// replace one key interleave, exactly one entry remains and the byte
    /// total equals the resident entry's size once both are done.
    #[test]
    fn byte_accounting_is_exact_after_a_replace_race() {
        for round in 0..200 {
            let tier: MemoryTier<u32, u64> = MemoryTier::default();
            let evictions = ctr();
            let start = Barrier::new(2);
            std::thread::scope(|scope| {
                for (value, bytes) in [(10, 3), (20, 5)] {
                    let (tier, evictions, start) = (&tier, &evictions, &start);
                    scope.spawn(move || {
                        start.wait();
                        tier.insert(1, value, bytes, evictions)
                    });
                }
            });
            assert_eq!(tier.len(), 1, "a replace race must leave exactly one entry ({round})");
            assert_eq!(
                tier.total_bytes(),
                tier.resident_bytes(),
                "the byte total must be exact once the race is over ({round})"
            );
            assert_eq!(ctr_value(&evictions), 0, "replaces are not evictions ({round})");
        }
    }

    /// A lookup next to an evicting insert, in both orders the tier's lock
    /// can put them: a lookup that hit has made its entry the most recently
    /// used, so the insert evicts the other one.
    #[test]
    fn touched_entry_survives_an_evicting_insert_in_either_order() {
        for lookup_first in [true, false] {
            let tier: MemoryTier<u32, u64> = MemoryTier::default();
            let evictions = ctr();
            tier.set_max_bytes(Some(2));
            // Entry 1 first, so it is the LRU candidate when entry 3
            // overflows the bound...
            tier.insert(1, 10, 1, &evictions);
            tier.insert(2, 20, 1, &evictions);
            // ...while a lookup touches entry 1 before or after the insert.
            let hit = if lookup_first {
                let hit = tier.get(&1).is_some();
                tier.insert(3, 30, 1, &evictions);
                hit
            } else {
                tier.insert(3, 30, 1, &evictions);
                tier.get(&1).is_some()
            };
            if hit {
                assert!(tier.contains(&1), "a just-touched entry must never be the victim");
            }
            assert_eq!(hit, lookup_first, "the insert evicts entry 1 unless it was touched");
            assert_eq!(ctr_value(&evictions), 1, "exactly one entry is evicted");
            assert_eq!(tier.total_bytes(), tier.resident_bytes());
            assert_eq!(tier.total_bytes(), 2, "the bound holds after both operations");
        }
    }

    #[test]
    fn max_bytes_round_trips() {
        let tier: MemoryTier<u32, u64> = MemoryTier::default();
        assert_eq!(tier.max_bytes(), None);
        tier.set_max_bytes(Some(7));
        assert_eq!(tier.max_bytes(), Some(7));
        tier.set_max_bytes(None);
        assert_eq!(tier.max_bytes(), None);
    }

    /// One operation of the differential test: keys come from a small set
    /// so lookups hit, replaces happen and evictions pick among few entries.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u32),
        Insert(u32, u64),
        Remove(u32),
        Bound(Option<u64>),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..5).prop_map(Op::Get),
            (0u32..5, 0u64..9).prop_map(|(key, bytes)| Op::Insert(key, bytes)),
            (0u32..5).prop_map(Op::Remove),
            prop_oneof![Just(None), (0u64..20).prop_map(Some)].prop_map(Op::Bound),
        ]
    }

    /// The naive model: `(key, value, bytes)` from least to most recently
    /// used, the byte bound and the eviction count.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u32, u64, u64)>,
        max_bytes: Option<u64>,
        evictions: u64,
    }

    impl Model {
        fn take(&mut self, key: u32) -> Option<(u32, u64, u64)> {
            let at = self.entries.iter().position(|&(k, ..)| k == key)?;
            Some(self.entries.remove(at))
        }

        fn total(&self) -> u64 {
            self.entries.iter().map(|&(.., bytes)| bytes).sum()
        }

        fn get(&mut self, key: u32) -> Option<u64> {
            let entry = self.take(key)?;
            self.entries.push(entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: u32, value: u64, bytes: u64) -> bool {
            self.take(key);
            let max = self.max_bytes.unwrap_or(u64::MAX);
            if bytes > max {
                return false;
            }
            self.entries.push((key, value, bytes));
            while self.total() > max {
                self.entries.remove(0);
                self.evictions += 1;
            }
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tier against the naive model over random operation
        /// sequences: after every operation the insert verdict, every
        /// lookup, the resident keys, the byte total and the eviction count
        /// agree.
        #[test]
        fn tier_matches_a_naive_lru_model(ops in proptest::collection::vec(op(), 0..64)) {
            let tier: MemoryTier<u32, u64> = MemoryTier::default();
            let ev = ctr();
            let mut model = Model::default();
            for (value, op) in ops.into_iter().enumerate() {
                let value = value as u64;
                match op {
                    Op::Get(key) => prop_assert_eq!(tier.get(&key), model.get(key)),
                    Op::Insert(key, bytes) => {
                        let retained = tier.insert(key, value, bytes, &ev);
                        prop_assert_eq!(retained, model.insert(key, value, bytes), "{:?}", op);
                    }
                    Op::Remove(key) => prop_assert_eq!(tier.remove(&key), model.take(key).is_some()),
                    Op::Bound(bound) => {
                        tier.set_max_bytes(bound);
                        model.max_bytes = bound;
                    }
                }
                for key in 0..5 {
                    let resident = model.entries.iter().any(|&(k, ..)| k == key);
                    prop_assert_eq!(tier.contains(&key), resident, "key {}", key);
                }
                prop_assert_eq!(tier.len(), model.entries.len());
                prop_assert_eq!(tier.total_bytes(), model.total());
                prop_assert_eq!(tier.resident_bytes(), model.total());
                prop_assert_eq!(ctr_value(&ev), model.evictions);
            }
        }
    }
}
