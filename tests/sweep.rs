//! Design-space `Sweep` acceptance tests: the amortization economy must be
//! real (one-time stages run exactly once) and free (per-config results are
//! bit-identical to running the monolithic pipeline per configuration).

use barrierpoint::{ArtifactCache, BarrierPoint, SimConfig, Sweep};
use bp_workload::{Benchmark, Workload, WorkloadConfig};

fn workload(threads: usize) -> impl Workload {
    Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.05))
}

/// Three machine variants at the same core count: stock, faster clock,
/// half-size LLC.
fn machine_matrix(cores: usize) -> Vec<(&'static str, SimConfig)> {
    let base = SimConfig::tiny(cores);
    let mut fast_clock = base;
    fast_clock.core.frequency_ghz *= 1.5;
    let mut small_llc = base;
    small_llc.memory.l3.size_bytes /= 2;
    vec![("base", base), ("fast-clock", fast_clock), ("small-llc", small_llc)]
}

#[test]
fn sweep_runs_one_time_stages_once_for_three_configs() {
    let w = workload(4);
    let mut sweep = Sweep::new(&w);
    for (label, machine) in machine_matrix(4) {
        sweep = sweep.add_config(label, machine);
    }
    let report = sweep.run().unwrap();
    let counters = report.counters();
    assert_eq!(counters.profile_passes, 1, "exactly one profiling pass");
    assert_eq!(counters.clustering_passes, 1, "exactly one clustering pass");
    assert_eq!(counters.simulate_legs, 3, "one leg per configuration");
    assert_eq!(
        counters.warmup_collections, 1,
        "one multi-capacity MRU collection serves base, fast-clock AND the half-size-LLC \
         point (prefix truncation of the largest capacity)"
    );
    assert_eq!(
        counters.trace_walks,
        w.num_threads(),
        "the fused cold pass walks each per-thread trace exactly once, feeding the \
         signature profiler and the MRU collector from one generation (was 2x threads \
         with separate passes)"
    );
    assert_eq!(counters.simulated_cache_hits, 0, "no cache attached");
    assert_eq!(report.legs().len(), 3);
}

#[test]
fn sweep_legs_are_bit_identical_to_monolithic_runs() {
    let w = workload(4);
    let matrix = machine_matrix(4);
    let mut sweep = Sweep::new(&w);
    for (label, machine) in &matrix {
        sweep = sweep.add_config(*label, *machine);
    }
    let report = sweep.run().unwrap();

    for (label, machine) in &matrix {
        let monolithic = BarrierPoint::new(&w).with_sim_config(*machine).run().unwrap();
        let leg = report.get(label).unwrap();
        assert_eq!(
            leg.simulated().metrics(),
            monolithic.barrierpoint_metrics(),
            "{label}: barrierpoint metrics must match the monolithic pipeline"
        );
        assert_eq!(
            leg.reconstruction(),
            monolithic.reconstruction(),
            "{label}: reconstruction must be bit-identical to the monolithic pipeline"
        );
        assert_eq!(report.selection(), monolithic.selection());
    }
}

#[test]
fn cached_sweep_skips_profiling_and_clustering_and_counts_hits() {
    let dir = std::env::temp_dir().join(format!("bp-sweep-accept-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let w = workload(2);
    let cache = ArtifactCache::new(&dir);
    let run_sweep = || {
        let mut sweep = Sweep::new(&w).with_cache(cache.clone());
        for (label, machine) in machine_matrix(2) {
            sweep = sweep.add_config(label, machine);
        }
        sweep.run().unwrap()
    };

    let cold = run_sweep();
    assert_eq!(cold.counters().profile_passes, 1);
    assert_eq!(cold.counters().clustering_passes, 1);
    assert_eq!(cold.counters().simulate_legs, 3, "cold run simulates every leg");
    assert_eq!(cold.counters().simulated_cache_hits, 0);
    assert_eq!(
        cold.counters().trace_walks,
        w.num_threads(),
        "cold sweep: one fused walk per thread covers profiling and warmup"
    );
    let stats = cache.stats();
    assert_eq!((stats.profile_misses, stats.selection_misses), (1, 1));
    assert_eq!(stats.simulated_misses, 3);

    let warm = run_sweep();
    assert_eq!(warm.counters().profile_passes, 0, "no profiling needed");
    assert_eq!(warm.counters().clustering_passes, 0, "selection served from cache");
    assert_eq!(warm.counters().simulate_legs, 0, "warm re-sweep executes zero simulate legs");
    assert_eq!(warm.counters().warmup_collections, 0, "no uncached leg, no trace walk");
    assert_eq!(warm.counters().trace_walks, 0, "warm re-sweep generates zero traces");
    assert_eq!(warm.counters().simulated_cache_hits, 3, "every leg served from cache");
    // Same process, same cache: the warm re-sweep is served entirely by the
    // memory tier — zero disk decodes.  The selection key is derivable from
    // the configuration alone, so the profile is not even *looked up* once
    // the selection is cached.
    let stats = cache.stats();
    assert_eq!((stats.profile_memory_hits, stats.selection_memory_hits), (0, 1));
    assert_eq!(stats.profile_misses, 1, "the profile was only probed by the cold run");
    assert_eq!(stats.simulated_memory_hits, 3);
    assert_eq!(stats.disk_hits(), 0, "write-through stores mean the disk tier is never read");
    // Counters differ by design (1 pass vs 0); the artifacts must not.
    assert_eq!(cold.selection(), warm.selection());
    assert_eq!(cold.legs(), warm.legs(), "cached artifacts reproduce the sweep bit for bit");

    // A fresh cache handle (the "new process" view) decodes the same sweep
    // from the disk tier instead.
    let disk_cache = ArtifactCache::new(&dir);
    let disk_warm = {
        let mut sweep = Sweep::new(&w).with_cache(disk_cache.clone());
        for (label, machine) in machine_matrix(2) {
            sweep = sweep.add_config(label, machine);
        }
        sweep.run().unwrap()
    };
    assert_eq!(disk_warm.counters().simulate_legs, 0);
    let stats = disk_cache.stats();
    assert_eq!((stats.profile_hits, stats.selection_hits), (0, 1), "profile never read");
    assert_eq!(stats.simulated_hits, 3);
    assert_eq!(stats.memory_hits(), 0, "cold memory tier: everything decoded from disk");
    assert_eq!(disk_warm.legs(), warm.legs(), "both tiers reproduce the sweep bit for bit");

    // A third sweep extending the matrix with a new design point is
    // incremental: only the new leg simulates, and only the warmup walk for
    // that leg touches the traces (the profile stays untouched).
    let mut extended = Sweep::new(&w).with_cache(cache.clone());
    for (label, machine) in machine_matrix(2) {
        extended = extended.add_config(label, machine);
    }
    let mut tiny_llc = SimConfig::tiny(2);
    tiny_llc.memory.l3.size_bytes /= 4;
    let extended = extended.add_config("tiny-llc", tiny_llc).run().unwrap();
    assert_eq!(extended.counters().simulate_legs, 1, "only the new design point simulates");
    assert_eq!(extended.counters().simulated_cache_hits, 3);
    assert_eq!(extended.counters().profile_passes, 0);
    // The new leg's warmup collection rides the cold run's segment
    // checkpoints: `threads × segments` jobs on the worker budget instead
    // of one sequential walk per thread.
    assert_eq!(
        extended.counters().trace_walks,
        0,
        "matrix extension re-collects from checkpoints, not by sequential walks"
    );
    assert!(
        extended.counters().segment_walks > w.num_threads(),
        "the segmented re-collection fans out more jobs than threads"
    );
    assert!(extended.counters().checkpoint_hits > 0, "segments resumed from checkpoints");
    assert_eq!(extended.legs()[..3], *cold.legs(), "old legs are reproduced bit for bit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_selection_makes_the_profile_unnecessary() {
    // The selection cache key is derivable from the configuration alone, so
    // a sweep whose selection is cached must not re-profile even when the
    // profile artifact itself has been evicted — the pre-refactor flow
    // re-walked every trace to rebuild an artifact the sweep never reads.
    let dir = std::env::temp_dir().join(format!("bp-sweep-noprof-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let w = workload(2);
    let run_sweep = |cache: &ArtifactCache| {
        let mut sweep = Sweep::new(&w).with_cache(cache.clone());
        for (label, machine) in machine_matrix(2) {
            sweep = sweep.add_config(label, machine);
        }
        sweep.run().unwrap()
    };
    let cold = run_sweep(&ArtifactCache::new(&dir));

    // Evict the profile behind the cache's back; keep selection and legs.
    let mut removed = 0;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        if entry.path().extension().is_some_and(|e| e == "bpprof") {
            std::fs::remove_file(entry.path()).unwrap();
            removed += 1;
        }
    }
    assert_eq!(removed, 1, "exactly one profile entry existed");

    let fresh = ArtifactCache::new(&dir); // cold memory tier, no profile on disk
    let warm = run_sweep(&fresh);
    assert_eq!(warm.counters().profile_passes, 0, "no re-profiling without a profile entry");
    assert_eq!(warm.counters().trace_walks, 0);
    assert_eq!(fresh.stats().profile_misses, 0, "the profile was never even probed");
    assert_eq!(warm.legs(), cold.legs());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_capacity_sweep_legs_match_monolithic_runs_bit_for_bit() {
    // Four distinct LLC capacities -> one shared collection pass, every
    // leg's payload derived by truncation; the acceptance bar is that this
    // is invisible in the results.
    let w = workload(2);
    let base = SimConfig::tiny(2);
    let mut sweep = Sweep::new(&w);
    let mut matrix = Vec::new();
    for (i, divisor) in [1u64, 2, 4, 8].into_iter().enumerate() {
        let mut machine = base;
        machine.memory.l3.size_bytes /= divisor;
        let label = format!("llc-div-{i}");
        matrix.push((label.clone(), machine));
        sweep = sweep.add_config(label, machine);
    }
    let report = sweep.run().unwrap();
    assert_eq!(report.counters().warmup_collections, 1, "one pass covers all four capacities");
    for (label, machine) in &matrix {
        let monolithic = BarrierPoint::new(&w).with_sim_config(*machine).run().unwrap();
        let leg = report.get(label).unwrap();
        assert_eq!(leg.simulated().metrics(), monolithic.barrierpoint_metrics(), "{label}");
        assert_eq!(leg.reconstruction(), monolithic.reconstruction(), "{label}");
    }
}

#[test]
fn cached_simulate_legs_are_bit_identical_to_uncached_runs() {
    let dir = std::env::temp_dir().join(format!("bp-sweep-simcache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let w = workload(2);
    let matrix = machine_matrix(2);
    let uncached = {
        let mut sweep = Sweep::new(&w);
        for (label, machine) in &matrix {
            sweep = sweep.add_config(*label, *machine);
        }
        sweep.run().unwrap()
    };
    let cache = ArtifactCache::new(&dir);
    let cached_run = || {
        let mut sweep = Sweep::new(&w).with_cache(cache.clone());
        for (label, machine) in &matrix {
            sweep = sweep.add_config(*label, *machine);
        }
        sweep.run().unwrap()
    };
    let cold = cached_run();
    let warm = cached_run();
    assert_eq!(warm.counters().simulate_legs, 0);
    for report in [&cold, &warm] {
        assert_eq!(report.legs(), uncached.legs(), "caching must be invisible in the results");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cross_core_count_sweep_expresses_figure6_in_one_call() {
    // Figure 6: one selection drives design points at two core counts.
    let bench = Benchmark::NpbFt;
    let w4 = bench.build(&WorkloadConfig::new(4).with_scale(0.05));
    let w8 = bench.build(&WorkloadConfig::new(8).with_scale(0.05));
    let report = Sweep::new(&w4)
        .add_config("4c", SimConfig::tiny(4))
        .add_point("8c", SimConfig::tiny(8), &w8)
        .run()
        .unwrap();
    assert_eq!(report.counters().profile_passes, 1);
    assert_eq!(report.counters().clustering_passes, 1);
    let t4 = report.get("4c").unwrap().reconstruction().execution_time_seconds();
    let t8 = report.get("8c").unwrap().reconstruction().execution_time_seconds();
    assert!(t4 > 0.0 && t8 > 0.0);
    assert!(t8 < t4, "8 cores should be estimated faster than 4 ({t8} vs {t4})");
    // The Figure 8 one-liner: predicted speedup of the scaled machine.
    assert!(report.predicted_speedup("4c", "8c").unwrap() > 1.0);
}

/// The staged chain (profile → select → one `simulate` per design point)
/// and `Sweep::run` resolve the same stages: with no cache, a cold cache
/// and a fresh handle over the warm directory, the chain's legs equal the
/// sweep's bit for bit, and every phase leaves exactly the pinned per-kind
/// cache traffic.
#[test]
fn staged_chain_matches_the_sweep_and_pins_its_cache_traffic() {
    use barrierpoint::CacheStats;
    for bench in [Benchmark::NpbIs, Benchmark::NpbCg, Benchmark::NpbLu] {
        let w = bench.build(&WorkloadConfig::new(4).with_scale(0.02));
        let matrix = machine_matrix(4);
        let mut sweep = Sweep::new(&w);
        for (label, machine) in &matrix {
            sweep = sweep.add_config(*label, *machine);
        }
        let swept = sweep.run().unwrap();
        let staged = |cache: Option<&ArtifactCache>| {
            let mut pipeline = BarrierPoint::new(&w);
            if let Some(cache) = cache {
                pipeline = pipeline.with_cache(cache.clone());
            }
            let selected = pipeline.profile().unwrap().select().unwrap();
            assert_eq!(selected.selection(), swept.selection(), "{}", w.name());
            for (label, machine) in &matrix {
                let leg = selected.simulate(machine).unwrap();
                assert_eq!(*leg, *swept.get(label).unwrap().simulated(), "{}: {label}", w.name());
            }
        };
        staged(None);

        let dir = std::env::temp_dir().join(format!(
            "bp-sweep-staged-{}-{}",
            w.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cold = ArtifactCache::new(&dir);
        staged(Some(&cold));
        assert_eq!(
            cold.stats(),
            CacheStats {
                profile_misses: 1,
                selection_misses: 1,
                simulated_misses: 3,
                // The cold fused walk probes for checkpoints to resume from
                // before it emits (and stores) its own.
                checkpoint_misses: 1,
                ..CacheStats::default()
            },
            "{}: cold staged chain",
            w.name()
        );

        let warm = ArtifactCache::new(&dir);
        staged(Some(&warm));
        assert_eq!(
            warm.stats(),
            CacheStats {
                profile_hits: 1,
                selection_hits: 1,
                simulated_hits: 3,
                ..CacheStats::default()
            },
            "{}: fresh handle over the warm directory",
            w.name()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The fused cold pass takes the interval-sharing snapshot bank, and the
/// bank stays far below the per-boundary worst case it replaced: one raw
/// `(line, dirty_depth)` entry per boundary per resident line, i.e.
/// `threads × regions × collection-capacity × 16` bytes.
#[test]
fn fused_cold_sweep_bank_stays_below_the_per_boundary_worst_case() {
    let w = workload(4);
    let matrix = machine_matrix(4);
    let mut sweep = Sweep::new(&w);
    for (label, machine) in &matrix {
        sweep = sweep.add_config(*label, *machine);
    }
    let report = sweep.run().unwrap();
    let collection_capacity = matrix
        .iter()
        .map(|(_, machine)| machine.memory.llc_total_lines(machine.num_cores))
        .max()
        .unwrap_or(1);
    let raw_snapshot_worst_case = 4 * w.num_regions() as u64 * collection_capacity * 16;
    assert!(
        report.counters().fused_snapshot_bytes > 0,
        "cold sweep must report the fused bank's actual snapshot bytes"
    );
    // This matrix pairs a tiny LLC with a working set that exceeds it, so
    // the recency lists churn almost fully between boundaries — near the
    // encoding's worst case.  Even there the bank must stay below half the
    // raw-snapshot bound; the big win is pinned on the realistically-sized
    // 32-thread sweep below.
    assert!(
        report.counters().fused_snapshot_bytes < raw_snapshot_worst_case / 2,
        "interval sharing must stay below the per-boundary worst case \
         ({} >= {raw_snapshot_worst_case} / 2)",
        report.counters().fused_snapshot_bytes
    );
}

/// A cold sweep at heavy oversubscription — 32 application threads, two
/// paper-scaled machines — still walks each trace once, and the interval
/// bank holds where the per-boundary encoding hurt most: an LLC the
/// per-region working set does not fully churn.
#[test]
fn cold_32_thread_sweep_walks_each_trace_once_with_a_small_bank() {
    let wide_workload = Benchmark::NpbCg.build(&WorkloadConfig::new(32).with_scale(0.02));
    let wide_base = SimConfig::scaled(32);
    let mut wide_small = wide_base;
    wide_small.memory.l3.size_bytes /= 4;
    let report = Sweep::new(&wide_workload)
        .add_config("base", wide_base)
        .add_config("small-llc", wide_small)
        .run()
        .unwrap();
    let counters = report.counters();
    assert_eq!(counters.trace_walks, 32, "cold 32-thread sweep must walk each trace once");
    assert_eq!(counters.warmup_collections, 1);
    assert!(counters.fused_snapshot_bytes > 0, "32-thread sweep must take the fused path");
    let worst = 32u64
        * wide_workload.num_regions() as u64
        * wide_base.memory.llc_total_lines(wide_base.num_cores)
        * 16;
    assert!(
        counters.fused_snapshot_bytes < worst / 4,
        "interval sharing must hold at 32 threads ({} >= {worst} / 4)",
        counters.fused_snapshot_bytes
    );
}

/// A re-sweep on a fresh handle over a warm directory (the "new process"
/// case): nothing degrades, retries or contends on a healthy filesystem,
/// and exactly the selection and the three legs are read from disk.
#[test]
fn warm_disk_resweep_is_healthy_and_reads_only_the_selection_and_legs() {
    let dir = std::env::temp_dir().join(format!("bp-sweep-warm-disk-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let w = workload(4);
    let run_sweep = |cache: &ArtifactCache| {
        let mut sweep = Sweep::new(&w).with_cache(cache.clone());
        for (label, machine) in machine_matrix(4) {
            sweep = sweep.add_config(label, machine);
        }
        sweep.run().unwrap()
    };
    run_sweep(&ArtifactCache::new(&dir));
    let cache = ArtifactCache::new(&dir);
    let counters = run_sweep(&cache).counters();
    assert_eq!(counters.profile_passes, 0);
    assert_eq!(counters.clustering_passes, 0);
    assert_eq!(counters.degraded_loads, 0, "healthy disk must not degrade loads");
    assert_eq!(counters.degraded_stores, 0, "healthy disk must not degrade stores");
    assert_eq!(counters.io_retries, 0, "healthy disk must not retry");
    assert_eq!(counters.lock_contended, 0, "single process must never contend");
    assert_eq!(counters.simulate_legs, 0, "warm re-sweep must execute zero simulate legs");
    assert_eq!(counters.warmup_collections, 0, "warm re-sweep must not walk any trace");
    assert_eq!(counters.simulated_cache_hits, 3);
    assert_eq!(counters.trace_walks, 0, "warm re-sweep must not generate any trace");
    assert_eq!(counters.segment_walks, 0, "warm re-sweep must run zero segment jobs");
    let stats = cache.stats();
    assert_eq!(stats.memory_hits(), 0, "fresh handles must decode from disk");
    // The profile is never read: a cached selection makes it unnecessary.
    assert_eq!(stats.disk_hits(), 4, "selection + three legs");
    std::fs::remove_dir_all(&dir).ok();
}

/// The cold sweep stores region-segment checkpoints as a side product of
/// its fused walk.  After the profile is invalidated and the clustering
/// configuration changes, the re-profile restores them and fans
/// `threads × segments` jobs across the worker budget instead of walking
/// each trace sequentially — with a report bit-identical to an uncached
/// sequential sweep.
#[test]
fn segmented_resweep_after_invalidation_matches_a_sequential_sweep() {
    use barrierpoint::{ProfileCacheKey, SimPointConfig};
    let dir = std::env::temp_dir().join(format!("bp-sweep-segmented-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cores = 4;
    let w = workload(cores);
    let cache = ArtifactCache::new(&dir);
    let build_sweep = |config: Option<SimPointConfig>, cache: Option<&ArtifactCache>| {
        let mut sweep = Sweep::new(&w);
        if let Some(config) = config {
            sweep = sweep.with_simpoint_config(config);
        }
        if let Some(cache) = cache {
            sweep = sweep.with_cache(cache.clone());
        }
        for (label, machine) in machine_matrix(cores) {
            sweep = sweep.add_config(label, machine);
        }
        sweep
    };
    build_sweep(None, Some(&cache)).run().unwrap();
    cache.invalidate_profile(&ProfileCacheKey::for_workload(&w));
    let reclustered = SimPointConfig::paper().with_max_k(3);
    let segmented_report = build_sweep(Some(reclustered), Some(&cache)).run().unwrap();
    let segmented_counters = segmented_report.counters();
    assert_eq!(segmented_counters.profile_passes, 1, "the re-profile must recompute");
    assert_eq!(segmented_counters.trace_walks, 0, "re-profile must not walk sequentially");
    assert!(
        segmented_counters.segment_walks > cores,
        "segmented re-profile must fan out more jobs ({}) than threads ({cores})",
        segmented_counters.segment_walks
    );
    assert!(segmented_counters.checkpoint_hits > 0, "segments must resume from checkpoints");
    let sequential_report = build_sweep(Some(reclustered), None).run().unwrap();
    assert_eq!(
        segmented_report.legs(),
        sequential_report.legs(),
        "segmented sweep report must be bit-identical to the sequential sweep"
    );
    assert_eq!(segmented_report.selections(), sequential_report.selections());
    std::fs::remove_dir_all(&dir).ok();
}
