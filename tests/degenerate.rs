//! Degenerate inputs through the public pipeline: one region on one thread,
//! blocks without memory accesses, regions without iterations, more threads
//! than iterations, many identical regions, more cores than the memory
//! hierarchy models, and memory geometries no hierarchy can be built from.
//! Every entry point must return a result or an `Error` on them, never
//! panic: the core count above the limit asks for
//! `Error::UnsupportedCoreCount`, a degenerate geometry for
//! `Error::InvalidMemoryConfig`, every other case for `Ok`.
//!
//! Each workload goes through `BarrierPoint::run` (cold and MRU-replay
//! warmup), an uncached `Sweep::run`, a cached sweep followed by re-sweeps
//! at a larger LLC (`SimConfig::table1`, which walks from region 0) and at a
//! smaller one (which resumes from the stored region checkpoints), and
//! MRU-only `TraceWalk`s with no targets and with a target past the last
//! region.  Selection budgets above the region count go through
//! `BarrierPoint::run` and `Sweep::run`, and a property test sends random
//! small degenerate shapes through a cached sweep and a warm re-sweep from
//! a fresh handle (the disk tier's codec, LDVs without populated buckets
//! included).

use barrierpoint::{
    ArtifactCache, BarrierPoint, Error, ExecutionPolicy, MruBoundaries, SelectionStrategy,
    SimConfig, SimPointConfig, SimPointStrategy, Sweep, SweepReport, TraceWalk, TwoPhaseStratified,
    WarmupKind,
};
use bp_workload::{
    AccessPattern, Benchmark, SyntheticWorkload, SyntheticWorkloadBuilder, Workload, WorkloadConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A workload of `threads` threads running one phase of `iterations`
/// loop-body traversals (split across the threads) for `regions` regions;
/// the phase's one block performs `accesses` memory references.
fn workload(
    name: &str,
    threads: usize,
    regions: usize,
    iterations: u64,
    accesses: u32,
) -> SyntheticWorkload {
    let mut builder = SyntheticWorkloadBuilder::new(name, WorkloadConfig::new(threads));
    let phase = builder
        .phase("body", iterations, true)
        .pattern(AccessPattern::PrivateRandom { bytes: 16 * 1024, write_fraction: 0.3 })
        .block("work", 12, accesses, 0)
        .finish();
    builder.schedule_repeat(phase, regions);
    builder.build()
}

/// The value of an entry point that must succeed on `what`.
fn ok<T>(result: Result<T, Error>, what: &str) -> T {
    result.unwrap_or_else(|e| panic!("{what}: {e:?}"))
}

/// Runs every public entry point the module doc lists on `w`.
fn exercise(w: &SyntheticWorkload, threads: usize) {
    let name = w.name().to_string();
    let machine = SimConfig::scaled(threads);
    for warmup in [WarmupKind::Cold, WarmupKind::MruReplay] {
        let run = BarrierPoint::new(w).with_sim_config(machine).with_warmup(warmup).run();
        ok(run, &format!("{name}, {warmup:?}"));
    }
    ok(Sweep::new(w).add_config("scaled", machine).run(), &format!("{name}, uncached sweep"));

    let dir = std::env::temp_dir().join(format!("bp-degenerate-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ArtifactCache::new(&dir);
    let first = Sweep::new(w).with_cache(cache.clone()).add_config("scaled", machine).run();
    ok(first, &format!("{name}, cached sweep"));
    // The stored checkpoints hold the MRU window at the first sweep's LLC
    // capacity: a larger LLC walks from region 0, a smaller one resumes.
    let table1 = SimConfig::table1(threads);
    assert!(table1.memory.llc_total_lines(threads) > machine.memory.llc_total_lines(threads));
    let larger = Sweep::new(w).with_cache(cache.clone()).add_config("table1", table1).run();
    let larger = ok(larger, &format!("{name}, re-sweep at a larger LLC"));
    assert_eq!(larger.counters().trace_walks, threads, "{name}: larger LLC walks from region 0");
    let mut small_llc = machine;
    small_llc.memory.l3.size_bytes /= 2;
    let smaller = Sweep::new(w).with_cache(cache).add_config("small-llc", small_llc).run();
    let counters = ok(smaller, &format!("{name}, re-sweep at a smaller LLC")).counters();
    assert_eq!(counters.trace_walks, 0, "{name}: smaller LLC resumes from the checkpoints");
    assert!(counters.segment_walks >= threads, "{name}: {counters:?}");
    std::fs::remove_dir_all(&dir).ok();

    let regions = w.num_regions();
    for targets in [&[][..], &[regions + 3][..]] {
        let walk = TraceWalk::mru(MruBoundaries::Targets(targets), 256);
        ok(
            walk.run(w, &ExecutionPolicy::Serial, None),
            &format!("{name}, MRU walk to {targets:?}"),
        );
    }
}

#[test]
fn one_region_on_one_thread() {
    exercise(&workload("one-region", 1, 1, 64, 4), 1);
}

#[test]
fn blocks_without_memory_accesses() {
    exercise(&workload("no-accesses", 2, 6, 64, 0), 2);
}

#[test]
fn regions_without_iterations() {
    exercise(&workload("no-iterations", 2, 6, 0, 4), 2);
}

#[test]
fn more_threads_than_iterations() {
    exercise(&workload("eight-threads-two-iterations", 8, 6, 2, 4), 8);
}

#[test]
fn forty_identical_regions() {
    exercise(&workload("forty-identical", 2, 40, 32, 4), 2);
}

/// A design point with one core more than the memory hierarchy models is
/// refused with an `Error` before any machine is built.
#[test]
fn more_cores_than_the_hierarchy_models() {
    let threads = 65;
    let w = Benchmark::NpbIs.build(&WorkloadConfig::new(threads).with_scale(0.01));
    let machine = SimConfig::tiny(threads);
    let unsupported = |result: Result<(), Error>, what: &str| match result {
        Err(Error::UnsupportedCoreCount { cores: 65, max: 64 }) => {}
        other => panic!("{what}: expected UnsupportedCoreCount, got {other:?}"),
    };
    let run = BarrierPoint::new(&w)
        .with_sim_config(machine)
        .with_execution_policy(ExecutionPolicy::Serial)
        .run();
    unsupported(run.map(drop), "BarrierPoint::run");
    let sweep = Sweep::new(&w)
        .with_execution_policy(ExecutionPolicy::Serial)
        .add_config("65 cores", machine)
        .run();
    unsupported(sweep.map(drop), "uncached Sweep::run");
}

/// Machines whose memory geometry no hierarchy can be built from: an L3
/// of three times a power of two sets, an L1D without ways, 48-byte lines
/// and sockets without cores.
fn degenerate_memories() -> [(&'static str, SimConfig); 4] {
    let machine = SimConfig::tiny(2);
    let (mut l3, mut l1d, mut lines, mut sockets) = (machine, machine, machine, machine);
    l3.memory.l3.size_bytes = 3 * 16 * l3.memory.l3.associativity as u64 * 64;
    l1d.memory.l1d.associativity = 0;
    lines.memory.line_bytes = 48;
    sockets.memory.cores_per_socket = 0;
    [
        ("48-set L3", l3),
        ("0-way L1D", l1d),
        ("48-byte lines", lines),
        ("0 cores per socket", sockets),
    ]
}

/// Each degenerate memory geometry is refused with an `Error` by the
/// staged chain's `Selected::simulate`, by `BarrierPoint::run` and by
/// `Sweep::run`, before any machine is built.
#[test]
fn degenerate_memory_geometry_is_an_error() {
    let w = workload("degenerate-geometry", 2, 3, 32, 4);
    let selected = ok(BarrierPoint::new(&w).select(), "select on the default machine");
    for (what, machine) in degenerate_memories() {
        let invalid = |result: Result<(), Error>, entry: &str| match result {
            Err(Error::InvalidMemoryConfig { message }) => assert!(!message.is_empty()),
            other => panic!("{what}, {entry}: expected InvalidMemoryConfig, got {other:?}"),
        };
        invalid(selected.simulate(&machine).map(drop), "Selected::simulate");
        let run = BarrierPoint::new(&w).with_sim_config(machine).run();
        invalid(run.map(drop), "BarrierPoint::run");
        invalid(Sweep::new(&w).add_config("degenerate", machine).run().map(drop), "Sweep::run");
    }
}

/// Both selection backends with a budget far above the region count.
fn oversized_budgets(regions: usize) -> [Arc<dyn SelectionStrategy>; 2] {
    [
        Arc::new(SimPointStrategy::new(SimPointConfig::paper().with_max_k(regions + 10))),
        Arc::new(TwoPhaseStratified::with_budget(regions + 10)),
    ]
}

#[test]
fn selection_budget_above_the_region_count() {
    let w = workload("oversized-budget", 2, 3, 32, 4);
    let machine = SimConfig::scaled(2);
    for strategy in oversized_budgets(w.num_regions()) {
        let name = strategy.name();
        let run = BarrierPoint::new(&w)
            .with_selection_strategy(strategy.clone())
            .with_sim_config(machine)
            .run();
        let run = ok(run, &format!("{name}, BarrierPoint::run"));
        assert!(run.selection().num_barrierpoints() <= w.num_regions(), "{name}");
        let sweep =
            Sweep::new(&w).with_selection_strategy(strategy).add_config("scaled", machine).run();
        let sweep = ok(sweep, &format!("{name}, Sweep::run"));
        assert_eq!(sweep.selection(), run.selection(), "{name}: the sweep selects the same");
    }
}

/// The bytes of everything a sweep computed: its selection and every leg.
fn outputs(report: &SweepReport) -> Vec<u8> {
    let mut bytes = serde::to_vec(report.selection());
    report.legs().iter().for_each(|leg| bytes.extend(serde::to_vec(leg.simulated())));
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small degenerate shapes — 1–3 regions, blocks with or without
    /// accesses, often more threads than iterations — through a cached
    /// `Sweep::run`; a warm re-sweep from a fresh handle over the same
    /// directory decodes every artifact from disk and must reproduce the
    /// cold sweep bit for bit without walking a trace.
    #[test]
    fn random_degenerate_shapes_resweep_identically(
        threads in 1usize..=4,
        regions in 1usize..=3,
        iterations in 0u64..6,
        accesses in proptest::sample::select(vec![0u32, 0, 1, 3]),
    ) {
        let name = format!("shape-{threads}t-{regions}r-{iterations}i-{accesses}a");
        let w = workload(&name, threads, regions, iterations, accesses);
        let dir = std::env::temp_dir().join(format!("bp-degenerate-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let sweep = |cache: ArtifactCache| {
            let sweep = Sweep::new(&w)
                .with_execution_policy(ExecutionPolicy::Serial)
                .with_cache(cache)
                .add_config("scaled", SimConfig::scaled(threads))
                .run();
            ok(sweep, &name)
        };
        let cold = sweep(ArtifactCache::new(&dir));
        let warm = sweep(ArtifactCache::new(&dir));
        prop_assert_eq!(outputs(&warm), outputs(&cold), "{}", name);
        prop_assert_eq!(warm.counters().trace_walks, 0, "{}", name);
        prop_assert_eq!(warm.counters().simulate_legs, 0, "{}", name);
        std::fs::remove_dir_all(&dir).ok();
    }
}
