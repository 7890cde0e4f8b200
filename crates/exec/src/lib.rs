//! Shared execution layer for the BarrierPoint pipeline.
//!
//! Two independent fan-outs in the pipeline used to hand-roll their own
//! `std::thread::scope` plumbing: the detailed simulation of the selected
//! barrierpoints, and (since the thread-major profiling refactor) the
//! per-thread profiling passes.  Both are *index-parallel* computations — run
//! a pure function over `0..jobs` and collect the results in index order —
//! so they share one abstraction, [`ExecutionPolicy::execute`].
//!
//! The policy is a configuration value (serializable, hashable) so it can sit
//! in builder APIs: [`ExecutionPolicy::Serial`] runs jobs back to back on the
//! calling thread, [`ExecutionPolicy::Parallel`] fans out over scoped OS
//! threads with an optional cap.  Results are returned in job-index order in
//! both modes, and job functions are required to be deterministic-per-index
//! by contract, so the two modes are observationally identical — the property
//! the equivalence test suite pins down.
//!
//! # Two-level scheduling with a shared worker budget
//!
//! Nested fan-outs (a design-space sweep running legs in parallel, each leg
//! simulating barrierpoints in parallel) share one machine.  A static split
//! of the worker count across the levels strands cores whenever the legs are
//! imbalanced: a worker that finishes a small leg cannot help a large one.
//! [`WorkerBudget`] fixes this: it is a shared pool of *helper permits*, and
//! [`ExecutionPolicy::execute_budgeted`] recruits helper threads from the
//! pool dynamically — between job claims — so a permit released by a drained
//! fan-out is picked up mid-flight by whichever fan-out still has unclaimed
//! jobs.  Results stay bit-identical under every schedule because they are
//! reassembled by job index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sync;

use crate::sync::{Arc, AtomicU64, AtomicUsize, Mutex, Ordering};
use serde::{Deserialize, Serialize};
use std::thread::Scope;

/// A shared pool of helper-thread permits, used to bound the total number of
/// OS worker threads across *nested* [`ExecutionPolicy::execute_budgeted`]
/// fan-outs.
///
/// One permit stands for the right to run one helper thread *in addition to*
/// the thread that entered the fan-out.  Every fan-out always makes progress
/// on its calling thread, so a budget with zero permits degrades to serial
/// execution and can never deadlock.  Permits are acquired when a fan-out
/// still has unclaimed jobs and released as soon as the helper finds the job
/// queue drained — at which point another fan-out (e.g. a larger sweep leg)
/// can immediately re-acquire them.
///
/// Budgets are cheaply cloneable handles to shared state; clones count
/// against the same pool.
#[derive(Debug, Clone)]
pub struct WorkerBudget {
    inner: Arc<BudgetInner>,
}

/// Bit layout of [`BudgetInner::state`]: `epoch << 48 | releases << 16 |
/// permits`.  Everything steal classification needs lives in one word, so a
/// single CAS observes permits, the in-epoch release count, and the
/// quiescence epoch *at the same instant* — there is no window in which a
/// quiescence transition and a concurrent release can be observed in
/// different orders by different threads (the linearizability gap the old
/// two-counter baseline scheme merely narrowed).
const PERMIT_BITS: u32 = 16;
const RELEASE_BITS: u32 = 32;
const PERMIT_MASK: u64 = (1 << PERMIT_BITS) - 1;
const RELEASE_MASK: u64 = (1 << RELEASE_BITS) - 1;
const RELEASE_SHIFT: u32 = PERMIT_BITS;
const EPOCH_SHIFT: u32 = PERMIT_BITS + RELEASE_BITS;

#[derive(Debug)]
struct BudgetInner {
    /// Packed `(epoch, releases-in-epoch, permits)` word — see the layout
    /// constants above.  `permits` is the number of free helper permits;
    /// `releases` counts [`WorkerBudget::release`] calls since the pool was
    /// last quiescent (every permit home); `epoch` increments at each
    /// quiescent instant, in the *same* CAS that returns the final permit
    /// and zeroes the release count, so an acquire can classify itself as a
    /// steal (`releases > 0`) from the very word its CAS succeeded against.
    state: AtomicU64,
    total: usize,
    /// Monotonic count of every [`WorkerBudget::release`] call, never reset.
    /// Not used for steal classification (the packed word is); kept as an
    /// independent conservation check — the stress tests assert it equals
    /// the number of successful acquires once all permits are home.
    released: AtomicU64,
    steals: AtomicU64,
}

fn pack(epoch: u64, releases: u64, permits: u64) -> u64 {
    (epoch << EPOCH_SHIFT) | (releases << RELEASE_SHIFT) | permits
}

impl WorkerBudget {
    /// A budget with `permits` helper permits (total concurrency of a fan-out
    /// tree sharing this budget is `permits + 1`), saturated at the packed
    /// word's field maximum of 65,535.
    pub fn new(permits: usize) -> Self {
        let permits = permits.min(PERMIT_MASK as usize);
        Self {
            inner: Arc::new(BudgetInner {
                state: AtomicU64::new(permits as u64),
                total: permits,
                released: AtomicU64::new(0),
                steals: AtomicU64::new(0),
            }),
        }
    }

    /// The budget matching `policy`'s worker cap: `cap - 1` permits for
    /// [`ExecutionPolicy::Parallel`] (the calling thread is the first
    /// worker), zero permits for [`ExecutionPolicy::Serial`].
    pub fn for_policy(policy: &ExecutionPolicy) -> Self {
        match *policy {
            ExecutionPolicy::Serial => Self::new(0),
            ExecutionPolicy::Parallel { max_threads } => {
                let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                let cap = if max_threads == 0 { hw } else { max_threads };
                Self::new(cap.max(1) - 1)
            }
        }
    }

    /// Takes one helper permit if any is available.
    pub fn try_acquire(&self) -> bool {
        // ordering: Relaxed — this load only seeds the CAS loop; any stale
        // value is caught (and refreshed) by the compare_exchange failure.
        let mut current = self.inner.state.load(Ordering::Relaxed);
        while current & PERMIT_MASK > 0 {
            // ordering: AcqRel on success — the Acquire half pairs with the
            // Release half of `release()`'s CAS so a stolen permit observes
            // everything its releaser published; the Release half pairs with
            // the next acquirer/releaser of this word.  Relaxed on failure —
            // a failed CAS only restarts the loop with the observed word.
            match self.inner.state.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Relaxed, // ordering: failure restarts the loop (see above)
            ) {
                Ok(_) => {
                    // Telemetry: a permit acquired from a partially drained
                    // pool — some sibling fan-out released it and others are
                    // still holding permits — is a "steal": a worker slot
                    // migrating into a still-busy fan-out.  Ramp-up acquires
                    // from a quiescent (full) pool are not counted, even
                    // when the budget is reused across sequential fan-outs.
                    // The classification reads the in-epoch release count
                    // from `current`, the exact word this CAS succeeded
                    // against, so it is linearized with the acquire itself:
                    // no interleaving of releases and quiescence transitions
                    // on other threads can misclassify it.
                    // ordering: Relaxed — `steals` is a monotonic telemetry
                    // counter; readers only assert on it after joining the
                    // worker threads (a stronger happens-before than any
                    // ordering here could provide), and no other memory is
                    // published through it.
                    if (current >> RELEASE_SHIFT) & RELEASE_MASK > 0 {
                        self.inner.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return true;
                }
                Err(observed) => current = observed,
            }
        }
        false
    }

    /// Returns one helper permit to the pool.
    pub fn release(&self) {
        // ordering: Relaxed — `released` is the independent conservation
        // counter (monotonic, never reset); it is compared against acquire
        // counts only after every worker has been joined, so the join edge
        // already orders it.  Incrementing it *before* the permit goes home
        // keeps the invariant `released >= acquires classified against the
        // new epoch` at every instant.
        self.inner.released.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — seed for the CAS loop, same as try_acquire.
        let mut current = self.inner.state.load(Ordering::Relaxed);
        loop {
            let permits = (current & PERMIT_MASK) + 1;
            debug_assert!(permits as usize <= self.inner.total, "release without acquire");
            let epoch = current >> EPOCH_SHIFT;
            let next = if permits as usize == self.inner.total {
                // This release makes the pool quiescent — every fan-out
                // drained.  Later acquires are ordinary ramp-up, not
                // migration, so the epoch bump and the release-count reset
                // happen *in this same CAS*: a concurrent release can only
                // land before it (and be cleared, correctly — its permit was
                // re-acquired before quiescence or is the one coming home)
                // or after it (and count toward the new epoch).  The old
                // two-word scheme had a window between returning the last
                // permit and recording the baseline; this has none.
                pack(epoch.wrapping_add(1) & (u64::MAX >> EPOCH_SHIFT), 0, permits)
            } else {
                // Saturate rather than wrap: the count is only ever compared
                // against zero, and wrapping to zero after 2^32 in-epoch
                // releases would misclassify real steals as ramp-up.
                let releases = ((current >> RELEASE_SHIFT) & RELEASE_MASK).min(RELEASE_MASK - 1);
                pack(epoch, releases + 1, permits)
            };
            // ordering: AcqRel on success — Release publishes the returning
            // worker's writes to whichever thread re-acquires this permit;
            // Acquire pairs with prior releases so the epoch/count fields
            // this CAS builds on are the latest.  Relaxed on failure — the
            // loop retries from the observed word.
            match self.inner.state.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed, // ordering: failure restarts the loop (see above)
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        // ordering: Acquire — strengthened from Relaxed as part of the
        // telemetry-ordering audit: tests (and future daemon admission
        // logic) assert "pool fully home ⇒ prior workers' effects visible".
        // Acquire pairs with the Release half of `release()`'s CAS, so
        // observing `permits == total` here also observes everything those
        // releasing workers published.  Uncontended Acquire loads are free
        // on x86 and near-free elsewhere; this is not a hot-path call.
        (self.inner.state.load(Ordering::Acquire) & PERMIT_MASK) as usize
    }

    /// How many helper threads were recruited from a *partially drained*
    /// pool — worker slots that left one fan-out and migrated into a
    /// sibling still running.  Acquires from a quiescent pool (all permits
    /// home, e.g. the ramp-up of sequential fan-outs reusing one budget) do
    /// not count.  Purely scheduling telemetry: results never depend on it.
    pub fn steal_count(&self) -> u64 {
        // ordering: Relaxed — audited and deliberately left Relaxed: the
        // counter is monotonic and carries no payload; every caller that
        // asserts an exact value first joins the worker threads, and a
        // mid-flight read is only ever a progress snapshot where a slightly
        // stale value is indistinguishable from reading a moment earlier.
        self.inner.steals.load(Ordering::Relaxed)
    }

    /// Monotonic count of every [`release`](Self::release) call across the
    /// budget's lifetime (the conservation counter the stress and model
    /// tests check against successful acquires at quiescence).
    #[cfg(feature = "model")]
    pub fn released_total(&self) -> u64 {
        // ordering: Relaxed — same audit verdict as `steal_count`.
        self.inner.released.load(Ordering::Relaxed)
    }

    /// The in-epoch release count of the packed permit word (model-checking
    /// accessor: at quiescence this must be zero under every interleaving).
    #[cfg(feature = "model")]
    pub fn in_epoch_releases(&self) -> u64 {
        // ordering: Acquire — pairs with the release CAS like `available`,
        // so a reader that sees the quiescent word sees the whole epoch
        // transition.
        (self.inner.state.load(Ordering::Acquire) >> RELEASE_SHIFT) & RELEASE_MASK
    }
}

/// Everything a budgeted fan-out's workers share, bundled so helper threads
/// can recruit further helpers recursively.
struct FanOut<'a, T, F> {
    next: &'a AtomicUsize,
    collected: &'a Mutex<Vec<(usize, T)>>,
    job: &'a F,
    budget: &'a WorkerBudget,
    jobs: usize,
    chunk: usize,
}

/// The claim-and-run loop of one worker.  Before working on each claimed
/// chunk the worker tries to recruit one more helper from the budget when
/// unclaimed jobs remain — this is both the initial ramp-up (a cascade of
/// spawns) and the mid-flight stealing of permits released by other
/// fan-outs.
fn worker_loop<'s, T, F>(scope: &'s Scope<'s, '_>, shared: &'s FanOut<'s, T, F>, helper: bool)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut local: Vec<(usize, T)> = Vec::new();
    loop {
        // ordering: Relaxed — the claim counter is pure work distribution:
        // which worker claims which index is unobservable (results are
        // reassembled by index), and the scope join at the end of
        // `execute_budgeted` is the synchronization point for the results
        // themselves.
        let start = shared.next.fetch_add(shared.chunk, Ordering::Relaxed);
        if start >= shared.jobs {
            break;
        }
        let end = (start + shared.chunk).min(shared.jobs);
        if end < shared.jobs && shared.budget.try_acquire() {
            scope.spawn(move || worker_loop(scope, shared, true));
        }
        for index in start..end {
            local.push((index, (shared.job)(index)));
        }
    }
    if !local.is_empty() {
        shared.collected.lock().extend(local);
    }
    if helper {
        shared.budget.release();
    }
}

/// How an index-parallel pipeline stage executes its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionPolicy {
    /// Run all jobs back to back on the calling thread.  Useful for
    /// deterministic timing of the harness itself and as the baseline of the
    /// serial-vs-parallel equivalence tests.
    Serial,
    /// Fan jobs out over scoped OS threads.
    Parallel {
        /// Upper bound on worker threads; `0` means "one per available CPU".
        /// The effective worker count never exceeds the number of jobs.
        max_threads: usize,
    },
}

impl ExecutionPolicy {
    /// Serial execution.
    pub fn serial() -> Self {
        ExecutionPolicy::Serial
    }

    /// Parallel execution using all available CPUs.
    pub fn parallel() -> Self {
        ExecutionPolicy::Parallel { max_threads: 0 }
    }

    /// Parallel execution with at most `max_threads` workers.
    ///
    /// `max_threads == 0` means "one per available CPU" and
    /// `max_threads == 1` is equivalent to [`ExecutionPolicy::Serial`].
    pub fn parallel_with(max_threads: usize) -> Self {
        ExecutionPolicy::Parallel { max_threads }
    }

    /// The policy matching the host: [`ExecutionPolicy::Parallel`] over all
    /// CPUs on multi-core machines, [`ExecutionPolicy::Serial`] when only a
    /// single CPU is available (where spawning worker threads can only add
    /// overhead — degenerate hosts measured parallel *slowdowns* before
    /// this existed).
    pub fn auto() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => ExecutionPolicy::parallel(),
            _ => ExecutionPolicy::Serial,
        }
    }

    /// Short label used in reports and benchmark ids.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutionPolicy::Serial => "serial",
            ExecutionPolicy::Parallel { .. } => "parallel",
        }
    }

    /// The number of worker threads [`execute`](Self::execute) would use for
    /// `jobs` jobs.
    pub fn worker_count(&self, jobs: usize) -> usize {
        match *self {
            ExecutionPolicy::Serial => 1,
            ExecutionPolicy::Parallel { max_threads } => {
                let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                // An explicit cap is honored even above the CPU count so that
                // the parallel code path can be exercised (and tested) on
                // machines with few cores.
                let cap = if max_threads == 0 { hw } else { max_threads };
                cap.max(1).min(jobs.max(1))
            }
        }
    }

    /// How many job indices a worker claims per atomic fetch: single claims
    /// for small batches (where claim contention is irrelevant and fine-
    /// grained stealing matters most), growing chunks for many-tiny-job
    /// fan-outs so the shared counter stops being a contention point.
    fn chunk_size(&self, jobs: usize) -> usize {
        if matches!(self, ExecutionPolicy::Serial) {
            return 1;
        }
        let workers = self.worker_count(jobs);
        if jobs <= workers.saturating_mul(8) {
            1
        } else {
            // ~8 chunks per worker keeps stealing responsive while cutting
            // the number of atomic claims by the chunk factor.
            (jobs / workers.saturating_mul(8).max(1)).clamp(1, 64)
        }
    }

    /// Runs `job(i)` for every `i in 0..jobs` and returns the results in
    /// index order.
    ///
    /// `job` must be deterministic per index for the serial/parallel
    /// equivalence guarantee to hold; nothing else about scheduling is
    /// observable through this API.
    pub fn execute<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.worker_count(jobs);
        if workers <= 1 {
            // The budget below would be private and empty — no sibling can
            // ever donate a permit — so skip the fan-out scaffolding
            // entirely (e.g. `Parallel` on a single-CPU host).
            return (0..jobs).map(job).collect();
        }
        let budget = WorkerBudget::new(workers - 1);
        self.execute_budgeted(jobs, &budget, job)
    }

    /// [`execute`](Self::execute) drawing helper threads from a shared
    /// [`WorkerBudget`] instead of a private per-call worker pool.
    ///
    /// The calling thread always participates, so the call completes even
    /// with an exhausted budget; helpers are recruited between job claims
    /// whenever unclaimed jobs remain and a permit is available — including
    /// permits released mid-flight by sibling fan-outs sharing the budget.
    /// Results are identical to [`execute`](Self::execute) for every budget
    /// (the serial/parallel equivalence invariant).
    pub fn execute_budgeted<T, F>(&self, jobs: usize, budget: &WorkerBudget, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if matches!(self, ExecutionPolicy::Serial) || jobs <= 1 {
            return (0..jobs).map(job).collect();
        }
        // Work-stealing over an atomic index counter: deterministic results
        // regardless of which worker claims which chunk, because results are
        // reassembled by index afterwards.
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(jobs));
        let shared = FanOut {
            next: &next,
            collected: &collected,
            job: &job,
            budget,
            jobs,
            chunk: self.chunk_size(jobs),
        };
        std::thread::scope(|scope| worker_loop(scope, &shared, false));
        let mut results = collected.into_inner();
        results.sort_by_key(|&(index, _)| index);
        debug_assert_eq!(results.len(), jobs);
        results.into_iter().map(|(_, value)| value).collect()
    }
}

impl Default for ExecutionPolicy {
    /// The default is parallel execution over all available CPUs.
    fn default() -> Self {
        ExecutionPolicy::parallel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_and_preserve_order() {
        let f = |i: usize| i * i + 1;
        let serial = ExecutionPolicy::Serial.execute(100, f);
        let parallel = ExecutionPolicy::parallel().execute(100, f);
        let capped = ExecutionPolicy::parallel_with(3).execute(100, f);
        assert_eq!(serial, parallel);
        assert_eq!(serial, capped);
        assert_eq!(serial[10], 101);
    }

    #[test]
    fn zero_and_single_job_edge_cases() {
        let f = |i: usize| i;
        assert!(ExecutionPolicy::parallel().execute(0, f).is_empty());
        assert_eq!(ExecutionPolicy::parallel().execute(1, f), vec![0]);
    }

    #[test]
    fn worker_count_respects_caps() {
        assert_eq!(ExecutionPolicy::Serial.worker_count(16), 1);
        assert!(ExecutionPolicy::parallel().worker_count(16) >= 1);
        assert!(ExecutionPolicy::parallel_with(2).worker_count(16) <= 2);
        // Never more workers than jobs.
        assert_eq!(ExecutionPolicy::parallel_with(8).worker_count(2), 2);
    }

    #[test]
    fn policy_round_trips_through_serde() {
        for policy in [ExecutionPolicy::Serial, ExecutionPolicy::parallel_with(4)] {
            let bytes = serde::to_vec(&policy);
            let back: ExecutionPolicy = serde::from_slice(&bytes).unwrap();
            assert_eq!(policy, back);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ExecutionPolicy::Serial.name(), "serial");
        assert_eq!(ExecutionPolicy::parallel().name(), "parallel");
    }

    #[test]
    fn auto_policy_matches_host_parallelism() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        match ExecutionPolicy::auto() {
            ExecutionPolicy::Serial => assert_eq!(hw, 1),
            ExecutionPolicy::Parallel { max_threads } => {
                assert!(hw > 1);
                assert_eq!(max_threads, 0);
            }
        }
    }

    #[test]
    fn chunked_claiming_still_yields_index_order() {
        // 4096 jobs over few workers forces the chunked claim path.
        let f = |i: usize| i as u64 * 3;
        let serial = ExecutionPolicy::Serial.execute(4096, f);
        let chunked = ExecutionPolicy::parallel_with(4).execute(4096, f);
        assert_eq!(serial, chunked);
        assert!(ExecutionPolicy::parallel_with(4).chunk_size(4096) > 1);
        assert_eq!(ExecutionPolicy::parallel_with(4).chunk_size(8), 1);
        assert_eq!(ExecutionPolicy::Serial.chunk_size(4096), 1);
    }

    #[test]
    fn budgeted_execution_matches_unbudgeted() {
        let f = |i: usize| i * 7 + 1;
        let reference = ExecutionPolicy::Serial.execute(200, f);
        for permits in [0, 1, 3, 16] {
            let budget = WorkerBudget::new(permits);
            let got = ExecutionPolicy::parallel().execute_budgeted(200, &budget, f);
            assert_eq!(reference, got, "permits = {permits}");
            assert_eq!(budget.available(), permits, "all permits returned");
        }
    }

    #[test]
    fn nested_budgeted_fanouts_share_one_pool() {
        // Two outer "legs" of very different sizes share one budget; the
        // total thread count stays bounded by permits + outer callers, and
        // results are exact.
        let budget = WorkerBudget::new(3);
        let outer = ExecutionPolicy::parallel_with(2);
        let inner = ExecutionPolicy::parallel();
        let legs = outer.execute_budgeted(2, &budget, |leg| {
            let jobs = if leg == 0 { 64 } else { 4 };
            inner.execute_budgeted(jobs, &budget, move |i| leg * 1000 + i)
        });
        assert_eq!(legs[0].len(), 64);
        assert_eq!(legs[1].len(), 4);
        assert_eq!(legs[0][63], 63);
        assert_eq!(legs[1][3], 1003);
        assert_eq!(budget.available(), 3, "no permit leaked");
    }

    #[test]
    fn steal_counter_counts_recycled_permits_only() {
        let budget = WorkerBudget::new(2);
        assert!(budget.try_acquire());
        assert!(budget.try_acquire());
        assert!(!budget.try_acquire());
        assert_eq!(budget.steal_count(), 0, "fresh permits are not steals");
        budget.release();
        assert!(budget.try_acquire(), "released permit is reusable");
        assert_eq!(budget.steal_count(), 1, "a recycled permit is a steal");
        budget.release();
        budget.release();
        assert_eq!(budget.available(), 2);

        // Quiescence resets the marker: once every permit is home, a new
        // fan-out's ramp-up on the same budget is not counted as stealing.
        assert!(budget.try_acquire());
        assert_eq!(budget.steal_count(), 1, "ramp-up from a full pool is not a steal");
        budget.release();
    }

    /// Regression test for the quiescence-reset race: two generations of
    /// the budget got this wrong.  The first reset (`released.store(0)`)
    /// could wipe a release another thread had just recorded; the baseline
    /// fix (`quiesced.fetch_max`) never lost an increment but still read
    /// two separate words in `try_acquire`, so a quiescence transition and
    /// a concurrent release could be observed out of order.  Now permits,
    /// the in-epoch release count, and the epoch live in one packed word:
    /// the quiescing release zeroes the count in the same CAS that returns
    /// the last permit, and an acquire classifies itself from the very word
    /// its own CAS succeeded against.  Replaying the racy schedule's
    /// logical order through the public API must classify the mid-flight
    /// hand-off as a steal and the post-quiescence ramp-up as not one.
    #[test]
    fn quiescence_marking_never_wipes_a_concurrent_release() {
        let budget = WorkerBudget::new(2);
        assert!(budget.try_acquire()); // thread A holds the only outstanding permit
        budget.release(); // A: pool quiescent — epoch bump + count reset, atomically

        // A fresh fan-out ramps up on the quiescent pool: not stealing.
        assert!(budget.try_acquire()); // B
        assert!(budget.try_acquire()); // C
        assert_eq!(budget.steal_count(), 0, "ramp-up after quiescence is not a steal");

        // B drains and hands its permit off mid-flight while C still works.
        budget.release(); // B

        // D picks up B's mid-flight permit while C still holds one: a
        // genuine steal, and it must be counted.
        let steals_before = budget.steal_count();
        assert!(budget.try_acquire()); // D
        assert_eq!(
            budget.steal_count(),
            steals_before + 1,
            "a mid-flight permit hand-off must count as a steal"
        );
        budget.release(); // C
        budget.release(); // D
    }

    /// The release counter is monotonic — nothing the quiescence epoch
    /// transition does may lose an increment, under any interleaving.
    /// Hammer the budget from many threads over several rounds (every
    /// release racing every other and the quiescence CAS) and check exact
    /// conservation after each round; under the original wiping reset this
    /// failed with near certainty.  Each round also checks the packed-word
    /// invariants at quiescence: the in-epoch release count is zero once
    /// every permit is home, so the next fan-out's first acquire is
    /// ramp-up, never a steal.
    #[test]
    fn release_counter_is_conserved_under_contention() {
        let budget = WorkerBudget::new(2);
        let threads = 4;
        // Miri interprets every atomic op; keep the sanitizer run tractable
        // while native runs keep the full hammering.
        let iterations = if cfg!(miri) { 25 } else { 1_000u64 };
        let mut total_acquired = 0u64;
        for round in 0..3 {
            let acquired: u64 = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let budget = budget.clone();
                        scope.spawn(move || {
                            let mut acquired = 0u64;
                            for _ in 0..iterations {
                                if budget.try_acquire() {
                                    acquired += 1;
                                    budget.release();
                                }
                            }
                            acquired
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).sum()
            });
            total_acquired += acquired;
            assert_eq!(budget.available(), 2, "all permits home after round {round}");
            let state = budget.inner.state.load(Ordering::Relaxed);
            assert_eq!(
                (state >> RELEASE_SHIFT) & RELEASE_MASK,
                0,
                "the closing release of round {round} zeroed the in-epoch count"
            );
            // Steal classification linearizes with the quiescence CAS: an
            // acquire from the fully quiescent pool is never a steal, no
            // matter how contended the round was.
            let steals = budget.steal_count();
            assert!(budget.try_acquire());
            assert_eq!(
                budget.steal_count(),
                steals,
                "post-quiescence ramp-up acquire misclassified as a steal in round {round}"
            );
            budget.release();
            total_acquired += 1;
        }
        assert_eq!(
            budget.inner.released.load(Ordering::Relaxed),
            total_acquired,
            "every release must be recorded exactly once — none wiped by quiescence"
        );
    }

    /// A cap beyond the packed word's permit field saturates instead of
    /// panicking.  Construction only: no fan-out runs on these budgets.
    #[test]
    fn oversized_worker_caps_saturate_at_the_permit_field() {
        let policy = ExecutionPolicy::parallel_with(70_000);
        assert_eq!(WorkerBudget::for_policy(&policy).available(), 65_535);
        assert_eq!(WorkerBudget::new(70_000).available(), 65_535);
    }

    #[test]
    fn for_policy_budgets_match_worker_caps() {
        assert_eq!(WorkerBudget::for_policy(&ExecutionPolicy::Serial).available(), 0);
        assert_eq!(WorkerBudget::for_policy(&ExecutionPolicy::parallel_with(4)).available(), 3);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(WorkerBudget::for_policy(&ExecutionPolicy::parallel()).available(), hw - 1);
    }
}
