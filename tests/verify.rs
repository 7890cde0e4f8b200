//! Bounded interleaving model checks over the workspace's concurrency core.
//!
//! These tests drive the *real* implementations — `WorkerBudget`'s packed
//! permit word and the artifact cache's one-lock memory tier — under
//! `bp-verify`'s deterministic scheduler, which enumerates thread
//! interleavings (DFS over preemption points).  The root package's test
//! build enables the `model` cargo feature, so the `bp_exec::sync` seam the
//! library crates are written against resolves to the modeled atomics and
//! mutexes here, while `cargo build --release` still compiles to plain
//! `std::sync` types.
//!
//! `WorkerBudget`, the one lock-free protocol, is checked three ways:
//!
//! * tier-1 checks on the smallest interesting configuration (run in the
//!   default `cargo test -q`),
//! * a `#[should_panic]` twin driving a *deliberately broken* variant of the
//!   protocol (`SplitQuiescenceBudget`, defined below) through the same
//!   schedule space, proving the checker actually has the power to catch
//!   the bug class the real code must not have,
//! * an `#[ignore]`d deeper search (more threads, higher preemption bound)
//!   for CI's model job (`cargo test -q --test verify -- --include-ignored`).
//!
//! The memory tier keeps its two tier-1 checks: exact byte accounting under
//! a replace race, and a lookup racing an evicting insert.

use barrierpoint::memtier::MemoryTier;
use barrierpoint::sync::{Arc, AtomicU64, Ordering};
use bp_exec::WorkerBudget;
use bp_verify::{check, check_with, thread, ModelOptions};

// The packed permit word's layout, mirroring the constants in
// `crates/exec/src/lib.rs`: `epoch << 48 | releases << 16 | permits`.
const PERMIT_MASK: u64 = (1 << 16) - 1;
const RELEASE_MASK: u64 = (1 << 32) - 1;
const RELEASE_SHIFT: u32 = 16;
const EPOCH_SHIFT: u32 = 48;

fn pack(epoch: u64, releases: u64, permits: u64) -> u64 {
    (epoch << EPOCH_SHIFT) | (releases << RELEASE_SHIFT) | permits
}

/// A deliberately broken [`WorkerBudget`] whose quiescing release is split
/// across **two** CASes: the first returns the permit and counts the
/// release, the second bumps the epoch and zeroes the in-epoch count.  This
/// is exactly the narrowed-but-not-closed window the packed single-CAS
/// protocol was built to eliminate — between the two CASes the pool is
/// momentarily "quiescent with a non-zero release count", so a concurrent
/// acquire classifies a ramp-up as a steal.
///
/// The invariant it breaks (and the model test checks): on a budget of one
/// permit every release quiesces, so `steal_count` must be zero under
/// *every* interleaving.
struct SplitQuiescenceBudget {
    state: AtomicU64,
    total: usize,
    steals: AtomicU64,
}

impl SplitQuiescenceBudget {
    fn new(permits: usize) -> Self {
        assert!(permits as u64 <= PERMIT_MASK);
        Self { state: AtomicU64::new(permits as u64), total: permits, steals: AtomicU64::new(0) }
    }

    /// Same acquire path (and steal classification) as the real budget.
    fn try_acquire(&self) -> bool {
        let mut current = self.state.load(Ordering::Relaxed);
        while current & PERMIT_MASK > 0 {
            match self.state.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if (current >> RELEASE_SHIFT) & RELEASE_MASK > 0 {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return true;
                }
                Err(observed) => current = observed,
            }
        }
        false
    }

    /// The broken release: permit return and epoch transition are two
    /// separate CASes instead of one.
    fn release(&self) {
        let mut current = self.state.load(Ordering::Relaxed);
        let after = loop {
            let permits = (current & PERMIT_MASK) + 1;
            let epoch = current >> EPOCH_SHIFT;
            let releases = ((current >> RELEASE_SHIFT) & RELEASE_MASK).min(RELEASE_MASK - 1);
            // BUG (deliberate): the release count is incremented even on the
            // quiescing release; the epoch bump + count reset happen in a
            // *second* CAS below, leaving a window in between.
            let next = pack(epoch, releases + 1, permits);
            match self.state.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break next,
                Err(observed) => current = observed,
            }
        };
        if (after & PERMIT_MASK) as usize == self.total {
            let epoch = after >> EPOCH_SHIFT;
            let quiesced =
                pack(epoch.wrapping_add(1) & (u64::MAX >> EPOCH_SHIFT), 0, after & PERMIT_MASK);
            // The orderings are not the bug; the second CAS gives up if
            // anything intervened, which is precisely how the
            // misclassification window stays open.
            let _ =
                self.state.compare_exchange(after, quiesced, Ordering::AcqRel, Ordering::Relaxed);
        }
    }

    fn steal_count(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

/// Permit conservation: however two workers interleave their acquire/release
/// cycles, once both are done every permit is home, the in-epoch release
/// count has been reset by the quiescing CAS, and the monotonic release
/// counter equals the number of successful acquires.
#[test]
fn worker_budget_conserves_permits() {
    let report = check(|| {
        let budget = WorkerBudget::new(1);
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let b = budget.clone();
                thread::spawn(move || {
                    if b.try_acquire() {
                        b.release();
                        1u64
                    } else {
                        0
                    }
                })
            })
            .collect();
        let acquired: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(budget.available(), 1, "every permit must come home");
        assert_eq!(budget.in_epoch_releases(), 0, "quiescence must reset the in-epoch count");
        assert_eq!(budget.released_total(), acquired, "release count must match acquire count");
    });
    assert!(report.complete, "bounded search space must be exhausted");
}

/// Steal classification: on a budget of one permit every release quiesces
/// (the permit coming home is always the last one), so no acquire can ever
/// observe an in-epoch release and `steal_count` must be zero under *every*
/// interleaving.  This is the linearizability property of the packed-word
/// protocol: the epoch bump and the release-count reset are one CAS.
#[test]
fn single_permit_budget_never_classifies_a_steal() {
    let report = check(|| {
        let budget = WorkerBudget::new(1);
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let b = budget.clone();
                thread::spawn(move || {
                    if b.try_acquire() {
                        b.release();
                    }
                })
            })
            .collect();
        for handle in workers {
            handle.join().unwrap();
        }
        assert_eq!(budget.steal_count(), 0, "ramp-up acquires must not count as steals");
    });
    assert!(report.complete, "bounded search space must be exhausted");
}

/// The broken twin: a release whose epoch bump + count reset happen in a
/// *second* CAS (the narrowed-but-not-closed window of the old two-counter
/// scheme).  Between the two CASes the pool is "quiescent with a non-zero
/// release count", so a concurrent acquire misclassifies ramp-up as a steal
/// — and the checker must find that schedule.
#[test]
#[should_panic(expected = "model violation")]
fn split_quiescence_release_is_caught_by_the_checker() {
    check(|| {
        let budget = Arc::new(SplitQuiescenceBudget::new(1));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&budget);
                thread::spawn(move || {
                    if b.try_acquire() {
                        b.release();
                    }
                })
            })
            .collect();
        for handle in workers {
            handle.join().unwrap();
        }
        assert_eq!(budget.steal_count(), 0, "ramp-up acquires must not count as steals");
    });
}

/// Byte accounting: whatever way two inserts racing to replace one key
/// interleave, exactly one entry remains and the byte total equals the
/// resident entry's size once both are done.
#[test]
fn memtier_byte_accounting_is_exact_at_quiescence() {
    let report = check(|| {
        let tier: Arc<MemoryTier<u32, u64>> = Arc::new(MemoryTier::default());
        let evictions = Arc::new(AtomicU64::new(0));
        let t1 = {
            let (tier, ev) = (Arc::clone(&tier), Arc::clone(&evictions));
            thread::spawn(move || tier.insert(1, 10, 3, &ev))
        };
        let t2 = {
            let (tier, ev) = (Arc::clone(&tier), Arc::clone(&evictions));
            thread::spawn(move || tier.insert(1, 20, 5, &ev))
        };
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(tier.len(), 1, "a replace race must leave exactly one entry");
        assert_eq!(
            tier.total_bytes(),
            tier.resident_bytes(),
            "the conservation counter must be exact at quiescence"
        );
        assert_eq!(evictions.load(Ordering::Relaxed), 0, "replaces are not evictions");
    });
    assert!(report.complete, "bounded search space must be exhausted");
}

/// A lookup racing an evicting insert: whichever runs first under the
/// tier's lock, a lookup that hit has made its entry the most recently used,
/// so the insert evicts the other one.
#[test]
fn memtier_touched_entry_survives_concurrent_eviction() {
    let report = check(|| {
        let tier: Arc<MemoryTier<u32, u64>> = Arc::new(MemoryTier::default());
        let evictions = Arc::new(AtomicU64::new(0));
        tier.set_max_bytes(Some(2));
        // Entry 1 first, so it is the LRU candidate when entry 3 overflows
        // the bound...
        tier.insert(1, 10, 1, &evictions);
        tier.insert(2, 20, 1, &evictions);
        // ...while a concurrent lookup touches entry 1 mid-eviction.
        let toucher = {
            let tier = Arc::clone(&tier);
            thread::spawn(move || tier.get(&1).is_some())
        };
        let inserter = {
            let (tier, ev) = (Arc::clone(&tier), Arc::clone(&evictions));
            thread::spawn(move || tier.insert(3, 30, 1, &ev))
        };
        let hit = toucher.join().unwrap();
        inserter.join().unwrap();
        if hit {
            assert!(tier.contains(&1), "a just-touched entry must never be the victim");
        }
        assert_eq!(evictions.load(Ordering::Relaxed), 1, "exactly one entry is evicted");
        assert_eq!(tier.total_bytes(), tier.resident_bytes());
        assert_eq!(tier.total_bytes(), 2, "the bound holds at quiescence");
    });
    assert!(report.complete, "bounded search space must be exhausted");
}

/// Deeper search for CI's model job: three workers contending for two
/// permits, explored without pruning so the verdict covers the full
/// bounded space (about 60,000 executions).
#[test]
#[ignore = "deep model search; run via the CI model job (--include-ignored)"]
fn deep_worker_budget_three_workers_two_permits() {
    let opts = ModelOptions::default().with_preemption_bound(Some(3));
    let report = check_with(opts, || {
        let budget = WorkerBudget::new(2);
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let b = budget.clone();
                thread::spawn(move || {
                    if b.try_acquire() {
                        b.release();
                        1u64
                    } else {
                        0
                    }
                })
            })
            .collect();
        let acquired: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(budget.available(), 2, "every permit must come home");
        assert_eq!(budget.in_epoch_releases(), 0, "quiescence must reset the in-epoch count");
        assert_eq!(budget.released_total(), acquired, "release count must match acquire count");
    });
    assert!(report.executions > 0);
}
