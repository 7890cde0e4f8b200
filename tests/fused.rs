//! Fused-vs-separate equivalence: the single-pass trace engine must be
//! invisible in every artifact.
//!
//! A cold pipeline used to walk every per-thread trace at least twice — once
//! for signature profiling, once for MRU warmup collection.
//! `profile_and_collect_warmup` fuses both consumers onto one `TraceWalk`,
//! one recency engine per thread; these tests pin that the fused pass is
//! bit-identical to the historical separate passes across the whole kernel
//! suite, every thread count the paper evaluates, and multiple LLC
//! capacities — and that the same holds end to end through `Sweep`.

use barrierpoint::{
    profile_and_collect_warmup, profile_application_with, ExecutionPolicy, MruBoundaries,
    SimConfig, Sweep, TraceWalk, WorkerBudget,
};
use bp_warmup::MruSnapshotBank;
use bp_workload::{Benchmark, SyntheticWorkloadBuilder, Workload, WorkloadConfig};
use proptest::prelude::*;

mod reference;

const CAPACITIES: [u64; 3] = [128, 1024, 4096];

/// Region boundaries probed for warmup equivalence: first, an early one, a
/// mid one, and the last (clamped to the region count).
fn probe_targets(num_regions: usize) -> Vec<usize> {
    let mut targets = vec![0, 1, num_regions / 2, num_regions.saturating_sub(1)];
    targets.sort_unstable();
    targets.dedup();
    targets
}

#[test]
fn fused_pass_is_bit_identical_across_the_whole_suite() {
    for &bench in Benchmark::all() {
        for threads in [1usize, 2, 4, 8] {
            let w = bench.build(&WorkloadConfig::new(threads).with_scale(0.02));
            let policy = ExecutionPolicy::parallel_with(threads);
            let (profile, bank) =
                profile_and_collect_warmup(&w, &CAPACITIES, &policy, None).unwrap();
            let separate = profile_application_with(&w, &policy).unwrap();
            assert_eq!(profile, separate, "{bench:?} at {threads} threads: profile differs");
            let targets = probe_targets(w.num_regions());
            for &capacity in &CAPACITIES {
                let direct = reference::mru(&w, &targets, capacity);
                assert_eq!(
                    reference::payloads(&bank.assemble(&targets, capacity)),
                    direct,
                    "{bench:?} at {threads} threads, capacity {capacity}: warmup differs"
                );
            }
        }
    }
}

#[test]
fn fused_pass_is_schedule_invariant() {
    // Serial, parallel, and budgeted-parallel walks must agree exactly.
    let w = Benchmark::NpbMg.build(&WorkloadConfig::new(4).with_scale(0.02));
    let serial =
        profile_and_collect_warmup(&w, &CAPACITIES, &ExecutionPolicy::Serial, None).unwrap();
    let parallel =
        profile_and_collect_warmup(&w, &CAPACITIES, &ExecutionPolicy::parallel_with(4), None)
            .unwrap();
    let budget = WorkerBudget::new(2);
    let budgeted = profile_and_collect_warmup(
        &w,
        &CAPACITIES,
        &ExecutionPolicy::parallel_with(4),
        Some(&budget),
    )
    .unwrap();
    assert_eq!(serial.0, parallel.0);
    assert_eq!(serial.0, budgeted.0);
    let targets = probe_targets(w.num_regions());
    for &capacity in &CAPACITIES {
        assert_eq!(serial.1.assemble(&targets, capacity), parallel.1.assemble(&targets, capacity));
        assert_eq!(serial.1.assemble(&targets, capacity), budgeted.1.assemble(&targets, capacity));
    }
}

#[test]
fn fused_sweep_legs_match_monolithic_runs_across_thread_counts() {
    // End to end: a cold (fused) sweep must reproduce the monolithic
    // per-config pipeline bit for bit, at several thread counts.
    for threads in [2usize, 4] {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(threads).with_scale(0.02));
        let base = SimConfig::tiny(threads);
        let mut small_llc = base;
        small_llc.memory.l3.size_bytes /= 4;
        let report = Sweep::new(&w)
            .add_config("base", base)
            .add_config("small-llc", small_llc)
            .run()
            .unwrap();
        assert_eq!(report.counters().trace_walks, threads, "{threads} threads: fused cold walk");
        for (label, machine) in [("base", base), ("small-llc", small_llc)] {
            let monolithic =
                barrierpoint::BarrierPoint::new(&w).with_sim_config(machine).run().unwrap();
            let leg = report.get(label).unwrap();
            assert_eq!(leg.simulated().metrics(), monolithic.barrierpoint_metrics(), "{label}");
            assert_eq!(leg.reconstruction(), monolithic.reconstruction(), "{label}");
        }
    }
}

/// The interval-sharing bank of the shipped MRU-only walk.
fn interval_bank<W: Workload + ?Sized>(
    w: &W,
    boundaries: &[usize],
    capacity: u64,
) -> MruSnapshotBank {
    let walk = TraceWalk::mru(MruBoundaries::Targets(boundaries), capacity);
    walk.run(w, &ExecutionPolicy::Serial, None).unwrap().bank.unwrap()
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn interval_bank_matches_the_oracle_across_the_suite_and_thread_counts() {
    // The interval-sharing bank must be bit-identical to the naive
    // reference's dedicated lists on every kernel, at every thread count the paper evaluates
    // (plus an over-subscribed 32), on a seeded pseudo-random boundary
    // subset, at every capacity at or below the collection capacity.
    const COLLECTION: u64 = 1024;
    for &bench in Benchmark::all() {
        for threads in [1usize, 2, 4, 8, 32] {
            let scale = if threads >= 32 { 0.01 } else { 0.02 };
            let w = bench.build(&WorkloadConfig::new(threads).with_scale(scale));
            let mut boundaries = probe_targets(w.num_regions());
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ ((threads as u64) << 8) ^ bench as u64;
            for region in 0..w.num_regions() {
                if xorshift(&mut state).is_multiple_of(3) {
                    boundaries.push(region);
                }
            }
            boundaries.sort_unstable();
            boundaries.dedup();
            let interval = interval_bank(&w, &boundaries, COLLECTION);
            for capacity in [1u64, 64, COLLECTION] {
                assert_eq!(
                    reference::payloads(&interval.assemble(&boundaries, capacity)),
                    reference::mru(&w, &boundaries, capacity),
                    "{bench:?} at {threads} threads, capacity {capacity}: banks differ"
                );
            }
        }
    }
}

#[test]
fn interval_bank_matches_the_oracle_on_an_eviction_heavy_workload() {
    // Adversarial case for interval sharing: a private stream far larger
    // than the collection capacity churns the entire recency list between
    // every pair of adjacent boundaries, so almost no interval spans more
    // than one boundary.  Correctness must hold even where the encoding's
    // compression is weakest.
    let capacity = 256u64;
    let mut builder =
        SyntheticWorkloadBuilder::new("evict-heavy", WorkloadConfig::new(4).with_seed(7));
    let phase = builder
        .phase("churn", 48, true)
        // 1 MiB at 64-byte stride = 16384 distinct lines per block pass,
        // 64x the 256-line collection capacity.
        .pattern(bp_workload::AccessPattern::PrivateStream { bytes: 1 << 20, stride: 64 })
        .pattern(bp_workload::AccessPattern::SharedRandom {
            id: 0,
            bytes: 1 << 20,
            write_fraction: 0.5,
        })
        .block("stream", 16, 6, 0)
        .block("scatter", 8, 4, 1)
        .finish();
    builder.schedule_repeat(phase, 10);
    let w = builder.build();
    let all: Vec<usize> = (0..w.num_regions()).collect();
    let interval = interval_bank(&w, &all, capacity);
    let lists = [1u64, 16, capacity].map(|c| (c, reference::mru(&w, &all, c)));
    for (c, expected) in &lists {
        assert_eq!(
            &reference::payloads(&interval.assemble(&all, *c)),
            expected,
            "capacity {c}: banks differ under full churn"
        );
    }
    // Full churn is the encoding's worst case: roughly one record per
    // boundary per resident line, the entry count of a snapshot of every
    // boundary's lists at the collection capacity.
    assert!(interval.interval_records() > 0);
    let (_, full) = &lists[2];
    let snapshot_entries: usize = full.values().flatten().map(Vec::len).sum();
    assert!(
        interval.interval_records() as u64
            <= snapshot_entries as u64 + (capacity * w.num_threads() as u64),
        "even fully churned, the interval bank stores at most one record per snapshot entry \
         (plus the still-open residencies at the final boundary)"
    );
}

/// A [`Workload`] wrapper counting every `region_trace` materialisation, to
/// pin the trace-generation economy of the staged API.
struct CountingWorkload<W> {
    inner: W,
    trace_calls: std::sync::atomic::AtomicUsize,
}

impl<W: Workload> Workload for CountingWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }
    fn num_regions(&self) -> usize {
        self.inner.num_regions()
    }
    fn block_table(&self) -> &bp_workload::BlockTable {
        self.inner.block_table()
    }
    fn region_trace(&self, region: usize, thread: usize) -> bp_workload::RegionTrace {
        self.trace_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.region_trace(region, thread)
    }
    fn region_phase_name(&self, region: usize) -> &str {
        self.inner.region_phase_name(region)
    }
    fn profile_fingerprint(&self) -> u64 {
        self.inner.profile_fingerprint()
    }
}

#[test]
fn cold_staged_chain_generates_each_region_trace_exactly_once_per_thread() {
    // A cold `profile()` fuses MRU warmup collection onto the profiling
    // walk and hands the snapshot bank down the staged chain, so
    // `Selected::simulate` must not launch the historical dedicated
    // collection pass (a second full `threads x regions` trace walk).
    let threads = 4;
    let counting = CountingWorkload {
        inner: Benchmark::NpbIs.build(&WorkloadConfig::new(threads).with_scale(0.02)),
        trace_calls: std::sync::atomic::AtomicUsize::new(0),
    };
    let regions = counting.num_regions();
    let machine = SimConfig::tiny(threads);
    let selected = barrierpoint::BarrierPoint::new(&counting)
        .with_sim_config(machine)
        .profile()
        .unwrap()
        .select()
        .unwrap();
    let after_select = counting.trace_calls.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        after_select,
        threads * regions,
        "cold fused profile: one walk per thread, each touching every region once"
    );
    let simulated = selected.simulate(&machine).unwrap();
    assert!(!simulated.metrics().is_empty());
    let selected_regions = selected.selection().barrierpoint_regions().len();
    let after_simulate = counting.trace_calls.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        after_simulate - after_select,
        threads * selected_regions,
        "simulate serves warmup from the fused bank: only the selected regions' own \
         traces are regenerated, never a second full collection walk"
    );
}

#[test]
fn mru_only_walk_stops_after_its_last_target_and_a_profile_walk_does_not() {
    // The walk generates each region's trace only while an output still
    // wants it: an MRU-only walk stops each thread after its last target
    // boundary, a profiling walk reads every region of every thread.
    let threads = 2;
    let counting = CountingWorkload {
        inner: Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.02)),
        trace_calls: std::sync::atomic::AtomicUsize::new(0),
    };
    let calls = || counting.trace_calls.swap(0, std::sync::atomic::Ordering::Relaxed);
    let (regions, last) = (counting.num_regions(), 5);
    let targets = [1, last];
    let mru = TraceWalk::mru(MruBoundaries::Targets(&targets), 256);
    mru.run(&counting, &ExecutionPolicy::Serial, None).unwrap();
    assert_eq!(calls(), threads * last, "regions 0..{last} of each thread");
    TraceWalk::profile().run(&counting, &ExecutionPolicy::Serial, None).unwrap();
    assert_eq!(calls(), threads * regions, "every region of every thread");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random synthetic workloads (random phase structure, seeds, thread
    /// counts) and random capacity sets: the fused pass must match the
    /// separate passes on every artifact — the same style of proof that
    /// pinned the PR 3 multi-capacity collector.
    #[test]
    fn fused_pass_matches_separate_passes_on_random_workloads(
        threads_pow in 0u32..3,
        regions in 2usize..14,
        seed in any::<u32>(),
        capacity_a in 16u64..512,
        capacity_b in 16u64..4096,
    ) {
        let threads = 1usize << threads_pow;
        let mut builder = SyntheticWorkloadBuilder::new(
            "fused-prop",
            WorkloadConfig::new(threads).with_seed(u64::from(seed)),
        );
        let phase = builder
            .phase("p0", 48, true)
            .pattern(bp_workload::AccessPattern::PrivateStream { bytes: 32 * 1024, stride: 64 })
            .pattern(bp_workload::AccessPattern::SharedRandom {
                id: 0,
                bytes: 64 * 1024,
                write_fraction: 0.3,
            })
            .block("work", 20, 4, 0)
            .block("mix", 12, 2, 1)
            .finish();
        builder.schedule_repeat(phase, regions);
        let w = builder.build();
        let policy = ExecutionPolicy::parallel_with(threads);
        let capacities = [capacity_a, capacity_b];
        let (profile, bank) = profile_and_collect_warmup(&w, &capacities, &policy, None).unwrap();
        prop_assert_eq!(&profile, &profile_application_with(&w, &policy).unwrap());
        let targets = probe_targets(w.num_regions());
        for &capacity in &capacities {
            let direct = reference::mru(&w, &targets, capacity);
            prop_assert_eq!(reference::payloads(&bank.assemble(&targets, capacity)), direct);
        }
    }
}
