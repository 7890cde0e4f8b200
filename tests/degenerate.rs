//! Degenerate inputs through the public pipeline: one region on one thread,
//! blocks without memory accesses, regions without iterations, more threads
//! than iterations, and many identical regions.  Every entry point must
//! return a result or an `Error` on them, never panic; today each case
//! succeeds, so the tests ask for `Ok`.
//!
//! Each workload goes through `BarrierPoint::run` (cold and MRU-replay
//! warmup), an uncached `Sweep::run`, a cached sweep followed by re-sweeps
//! at a larger LLC (`SimConfig::table1`, which walks from region 0) and at a
//! smaller one (which resumes from the stored region checkpoints), and
//! MRU-only `TraceWalk`s with no targets and with a target past the last
//! region.

use barrierpoint::{
    ArtifactCache, BarrierPoint, Error, ExecutionPolicy, MruBoundaries, SimConfig, Sweep,
    TraceWalk, WarmupKind,
};
use bp_workload::{
    AccessPattern, SyntheticWorkload, SyntheticWorkloadBuilder, Workload, WorkloadConfig,
};

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
