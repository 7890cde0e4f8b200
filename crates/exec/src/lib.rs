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

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard, PoisonError};
use std::thread::Scope;

/// A `std::sync::Mutex` whose [`lock`](Self::lock) recovers the guard from
/// a poisoned mutex instead of returning an error.
///
/// Poison transparency is a deliberate policy, not a shortcut: every
/// critical section in this workspace either leaves the guarded data valid
/// at all times or repairs it on the panic path, so a poisoned lock carries
/// no information beyond "some thread panicked" — which the panic itself
/// already propagates through `std::thread::scope`.  Recovering the guard
/// keeps the panic that surfaces to the user the *original* one instead of
/// a cascade of `PoisonError` panics on every other worker.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering the guard from a poisoned mutex.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The most helper permits one budget holds: a thread-count cap far above
/// any host's CPU count.  A larger requested cap saturates here.
const MAX_HELPER_THREADS: usize = 65_535;

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
/// against the same pool.  One lock guards that state: an acquire or a
/// release is one short critical section, taken once per claimed chunk of a
/// budgeted fan-out, never per job.
#[derive(Debug, Clone)]
pub struct WorkerBudget {
    pool: Arc<Mutex<Pool>>,
}

/// Everything the budget's lock guards.
#[derive(Debug)]
struct Pool {
    /// Free helper permits.
    permits: usize,
    /// The permits the budget was built with; the pool is *quiescent* (every
    /// fan-out drained) whenever `permits == total`.
    total: usize,
    /// [`WorkerBudget::release`] calls since the pool was last quiescent.
    /// An acquire that sees a non-zero count takes a permit some fan-out
    /// dropped while others still run: a steal.
    releases_in_epoch: u64,
    /// How many times the pool has gone quiescent.
    epoch: u64,
    /// Every release across the budget's lifetime, never reset: the stress
    /// tests check it against the successful acquires at quiescence.
    released: u64,
    /// Acquires classified as steals.
    steals: u64,
}

impl WorkerBudget {
    /// A budget with `permits` helper permits (total concurrency of a fan-out
    /// tree sharing this budget is `permits + 1`), saturated at 65,535
    /// helper threads.
    pub fn new(permits: usize) -> Self {
        let permits = permits.min(MAX_HELPER_THREADS);
        let pool = Pool {
            permits,
            total: permits,
            releases_in_epoch: 0,
            epoch: 0,
            released: 0,
            steals: 0,
        };
        Self { pool: Arc::new(Mutex::new(pool)) }
    }

    /// The budget matching `policy`'s worker cap: `cap - 1` permits for
    /// [`ExecutionPolicy::Parallel`] (the calling thread is the first
    /// worker), zero permits for [`ExecutionPolicy::Serial`].
    pub fn for_policy(policy: &ExecutionPolicy) -> Self {
        Self::new(policy.worker_count(usize::MAX) - 1)
    }

    /// Takes one helper permit if any is available.
    pub fn try_acquire(&self) -> bool {
        let mut pool = self.pool.lock();
        if pool.permits == 0 {
            return false;
        }
        pool.permits -= 1;
        // Telemetry: a permit acquired from a partially drained pool — some
        // sibling fan-out released it and others are still holding permits
        // — is a "steal": a worker slot migrating into a still-busy fan-out.
        // Ramp-up acquires from a quiescent (full) pool are not counted,
        // even when the budget is reused across sequential fan-outs.
        if pool.releases_in_epoch > 0 {
            pool.steals += 1;
        }
        true
    }

    /// Returns one helper permit to the pool.
    pub fn release(&self) {
        let mut pool = self.pool.lock();
        pool.permits += 1;
        debug_assert!(pool.permits <= pool.total, "release without acquire");
        pool.released += 1;
        if pool.permits == pool.total {
            // This release makes the pool quiescent — every fan-out drained.
            // Later acquires are ordinary ramp-up, not migration, so the
            // epoch ends in this same critical section: no acquire can see
            // every permit home next to a stale release count.
            pool.epoch += 1;
            pool.releases_in_epoch = 0;
        } else {
            pool.releases_in_epoch += 1;
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.pool.lock().permits
    }

    /// How many helper threads were recruited from a *partially drained*
    /// pool — worker slots that left one fan-out and migrated into a
    /// sibling still running.  Acquires from a quiescent pool (all permits
    /// home, e.g. the ramp-up of sequential fan-outs reusing one budget) do
    /// not count.  Purely scheduling telemetry: results never depend on it.
    pub fn steal_count(&self) -> u64 {
        self.pool.lock().steals
    }
}

/// A helper's permit, returned to the budget when the helper ends — also
/// when one of its jobs panics and the panic unwinds the helper.
struct Permit<'a>(&'a WorkerBudget);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
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
///
/// A helper holds its permit for its whole run; the permit goes home when
/// the helper returns or unwinds.
fn worker_loop<'s, T, F>(
    scope: &'s Scope<'s, '_>,
    shared: &'s FanOut<'s, T, F>,
    _permit: Option<Permit<'s>>,
) where
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
            let permit = Permit(shared.budget);
            scope.spawn(move || worker_loop(scope, shared, Some(permit)));
        }
        for index in start..end {
            local.push((index, (shared.job)(index)));
        }
    }
    if !local.is_empty() {
        shared.collected.lock().extend(local);
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
        std::thread::scope(|scope| worker_loop(scope, &shared, None));
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
    /// the in-epoch release count, and the epoch sit under one lock: the
    /// quiescing release zeroes the count in the same critical section that
    /// returns the last permit, and an acquire classifies itself in the
    /// critical section that takes its permit.  Replaying the racy schedule's
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
    /// failed with near certainty.  Each round also checks the pool's
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
            assert_eq!(
                budget.pool.lock().releases_in_epoch,
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
            budget.pool.lock().released,
            total_acquired,
            "every release must be recorded exactly once — none wiped by quiescence"
        );
    }

    /// A cap beyond `MAX_HELPER_THREADS` (65,535 helper threads) saturates
    /// there instead of panicking.  Construction only: no fan-out runs on
    /// these budgets.
    #[test]
    fn oversized_worker_caps_saturate_at_the_permit_field() {
        let policy = ExecutionPolicy::parallel_with(70_000);
        assert_eq!(WorkerBudget::for_policy(&policy).available(), 65_535);
        assert_eq!(WorkerBudget::new(70_000).available(), 65_535);
    }

    /// On a one-permit budget every release quiesces the pool, so no
    /// acquire can ever be a steal, however four threads contend for the
    /// permit.
    #[test]
    fn one_permit_pool_never_counts_a_steal_under_contention() {
        let budget = WorkerBudget::new(1);
        let iterations = if cfg!(miri) { 25 } else { 1_000 };
        for round in 0..3 {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let budget = budget.clone();
                    scope.spawn(move || {
                        for _ in 0..iterations {
                            if budget.try_acquire() {
                                budget.release();
                            }
                        }
                    });
                }
            });
            assert_eq!(budget.steal_count(), 0, "a steal was counted in round {round}");
            assert_eq!(budget.available(), 1);
        }
    }

    /// A job that panics unwinds its helper thread; the helper's permit must
    /// still come home, or a budget shared across fan-outs shrinks for good
    /// each time a caller catches such a panic.
    #[test]
    fn panicking_jobs_return_every_helper_permit() {
        let budget = WorkerBudget::new(3);
        let policy = ExecutionPolicy::parallel_with(4);
        for round in 0..20 {
            let outcome = std::panic::catch_unwind(|| {
                policy.execute_budgeted(64, &budget, |_| -> usize {
                    // Unwinds without the panic hook's message on stderr.
                    std::panic::resume_unwind(Box::new("job failed"))
                })
            });
            assert!(outcome.is_err(), "the job's panic reaches the caller");
            assert_eq!(budget.available(), 3, "a permit leaked in round {round}");
        }
    }

    #[test]
    fn for_policy_budgets_match_worker_caps() {
        assert_eq!(WorkerBudget::for_policy(&ExecutionPolicy::Serial).available(), 0);
        assert_eq!(WorkerBudget::for_policy(&ExecutionPolicy::parallel_with(4)).available(), 3);
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(WorkerBudget::for_policy(&ExecutionPolicy::parallel()).available(), hw - 1);
    }
}
