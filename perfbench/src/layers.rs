//! Per-unit layer numbers from loops over fixed inputs.
//!
//! Every loop times calls into one crate's public API from outside, on
//! inputs built from the run's seed: npb-cg for the per-access and codec
//! loops (mid-sized: 8 threads, one region per CG iteration), all eight
//! kernels for clustering.  Each timing is the median of [`SAMPLES`] runs.

use crate::report::Metrics;
use crate::stats::median;
use crate::workloads::{host_cpus, Env};
use barrierpoint::{
    profile_and_collect_warmup, profile_application_budgeted, profile_application_segmented,
    profile_application_with, select_barrierpoints_with, ArtifactCache, CheckpointCacheKey, Error,
    ExecutionPolicy, ProfileCacheKey, SelectionCacheKey, SignatureConfig, SimPointConfig,
    SimPointStrategy, SimulatedCacheKey, WarmupKind, WorkerBudget,
};
use bp_sim::{CoreModel, Machine};
use bp_workload::{BlockExecution, Workload};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed repetitions behind each per-unit number.
const SAMPLES: usize = 9;

/// Cap on the recorded access stream replayed into the memory hierarchy.
const MAX_ACCESSES: usize = 1 << 20;

/// Cap on the pre-generated block executions replayed into the core model.
const MAX_BLOCKS: usize = 1 << 17;

/// The kernel behind the per-unit loops.
const LAYER_KERNEL: &str = "npb-cg";

/// Median seconds of `SAMPLES` calls of `f`.
fn time_s<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The block executions of `kernel` in the order `Machine::run_region`
/// interleaves them: region by region, round-robin over threads.
fn interleaved(kernel: &impl Workload, mut visit: impl FnMut(usize, &BlockExecution) -> bool) {
    for region in 0..kernel.num_regions() {
        let mut traces: Vec<_> =
            (0..kernel.num_threads()).map(|t| kernel.region_trace(region, t)).collect();
        let mut live = true;
        while live {
            live = false;
            for (thread, trace) in traces.iter_mut().enumerate() {
                if let Some(exec) = trace.next() {
                    live = true;
                    if !visit(thread, &exec) {
                        return;
                    }
                }
            }
        }
    }
}

/// Measures every fixed-input layer loop into `out`.
pub fn measure(env: &Env, scratch: &Path, out: &mut Metrics) -> Result<(), String> {
    let kernel = env.kernel(LAYER_KERNEL);
    let serial = ExecutionPolicy::Serial;
    let base = env.points[0].1;

    // bp-workload: trace generation to exhaustion.
    let walk = || {
        let (mut blocks, mut accesses) = (0u64, 0u64);
        for region in 0..kernel.num_regions() {
            for thread in 0..kernel.num_threads() {
                for exec in kernel.region_trace(region, thread) {
                    blocks += 1;
                    accesses += exec.accesses.len() as u64;
                }
            }
        }
        (blocks, accesses)
    };
    let (blocks, accesses) = walk();
    let trace_s = time_s(walk);
    out.set("workload.trace_ns_per_block", trace_s * 1e9 / blocks as f64);
    out.set("workload.blocks", blocks as f64);
    out.set("workload.accesses", accesses as f64);

    // bp-signature: the profiling walk minus its trace generation.
    let profile_s = time_s(|| profile_application_budgeted(kernel, &serial, None));
    out.set("signature.profile_ns_per_access", (profile_s - trace_s) * 1e9 / accesses as f64);

    // bp-warmup: the fused profile + MRU walk minus the signature-only walk.
    let mut capacities: Vec<u64> =
        env.points.iter().map(|(_, m)| m.memory.llc_total_lines(m.num_cores)).collect();
    capacities.sort_unstable();
    capacities.dedup();
    let (_, bank) = profile_and_collect_warmup(kernel, &capacities, &serial, None)
        .map_err(|e| e.to_string())?;
    let fused_s = time_s(|| profile_and_collect_warmup(kernel, &capacities, &serial, None));
    out.set("warmup.collect_ns_per_access", (fused_s - profile_s) * 1e9 / accesses as f64);
    out.set("warmup.bank_bytes", bank.snapshot_bytes() as f64);

    // bp-clustering: selection over every kernel's profile.
    let profiles = env
        .kernels
        .iter()
        .map(|k| profile_application_with(k, &env.policy))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let strategy = SimPointStrategy::new(SimPointConfig::paper());
    let signature = SignatureConfig::combined();
    let regions: usize = profiles.iter().map(|p| p.num_regions()).sum();
    let select_all = || {
        profiles
            .iter()
            .map(|p| select_barrierpoints_with(p, &signature, &strategy))
            .collect::<Result<Vec<_>, _>>()
    };
    let selections = select_all().map_err(|e| e.to_string())?;
    let select_s = time_s(select_all);
    out.set("clustering.select_us_per_region", select_s * 1e6 / regions as f64);
    out.set(
        "clustering.barrierpoints",
        selections.iter().map(|s| s.num_barrierpoints()).sum::<usize>() as f64,
    );

    // bp-mem: a recorded data-access stream replayed into a cold hierarchy.
    let (mut stream, mut stream_instructions) = (Vec::new(), 0u64);
    interleaved(kernel, |thread, exec| {
        stream_instructions += u64::from(exec.instructions);
        stream.extend(exec.accesses.iter().map(|a| (thread, a.addr, a.kind.is_write())));
        stream.len() < MAX_ACCESSES
    });
    let replay = || {
        let mut machine = Machine::new(&base);
        let hierarchy = machine.hierarchy_mut();
        for &(core, addr, is_write) in &stream {
            black_box(hierarchy.access(core, addr, is_write));
        }
        *hierarchy.stats()
    };
    let stats = replay();
    out.set("mem.access_ns", time_s(replay) * 1e9 / stream.len() as f64);
    out.set("mem.l1_miss_ratio", stats.l1_miss_ratio());
    out.set("mem.dram_apki", stats.dram_apki(stream_instructions));

    // bp-sim: the core model over pre-generated executions, and whole
    // detailed regions through the machine.
    let mut execs = Vec::new();
    interleaved(kernel, |thread, exec| {
        execs.push((thread, exec.clone()));
        execs.len() < MAX_BLOCKS
    });
    let execute = || {
        let mut machine = Machine::new(&base);
        let mut cores: Vec<CoreModel> =
            (0..base.num_cores).map(|c| CoreModel::new(&base.core, c)).collect();
        for (thread, exec) in &execs {
            cores[*thread].execute_block(exec, machine.hierarchy_mut());
        }
        cores.iter().map(CoreModel::cycles).sum::<u64>()
    };
    out.set("sim.execute_block_ns", time_s(execute) * 1e9 / execs.len() as f64);
    let detailed = || {
        let mut machine = Machine::new(&base);
        (0..kernel.num_regions()).map(|r| machine.run_region(kernel, r).instructions).sum::<u64>()
    };
    let detailed_instructions = detailed();
    out.set("sim.detailed_minstr_per_s", detailed_instructions as f64 / time_s(detailed) / 1e6);

    // bp-exec: the layer kernel's cold sweep and the segmented re-profiles
    // below share one worker budget over every CPU the host offers.
    let all_cpus = ExecutionPolicy::parallel_with(host_cpus());
    let budget = WorkerBudget::for_policy(&all_cpus);

    // barrierpoint cache/storage: encode+write and read+decode per kind,
    // on the artifacts a cold sweep of the layer kernel leaves behind.
    let filled = scratch.join("layer-filled");
    let _ = std::fs::remove_dir_all(&filled);
    env.sweep(kernel)
        .with_execution_policy(all_cpus)
        .with_shared_budget(budget.clone())
        .with_cache(ArtifactCache::new(&filled))
        .run()
        .map_err(|e| e.to_string())?;
    let source = ArtifactCache::new(&filled);
    let missing = |kind: &str| format!("the cold sweep left no {kind} entry");
    let load_err = |e: Error| e.to_string();
    let profile_key = ProfileCacheKey::for_workload(kernel);
    let profile = source.load(&profile_key).map_err(load_err)?.ok_or_else(|| missing("profile"))?;
    let selection_key = SelectionCacheKey::for_workload(kernel, &signature, &strategy);
    let selection = source
        .load_selection(&selection_key)
        .map_err(load_err)?
        .ok_or_else(|| missing("selection"))?;
    let simulated_key = SimulatedCacheKey::new(kernel, &selection, &base, WarmupKind::MruReplay);
    let simulated = source
        .load_simulated(&simulated_key)
        .map_err(load_err)?
        .ok_or_else(|| missing("simulated"))?;
    let checkpoint_key = CheckpointCacheKey::for_workload(kernel);
    let checkpoints = source
        .load_checkpoint(&checkpoint_key)
        .map_err(load_err)?
        .ok_or_else(|| missing("checkpoint"))?;
    drop(source);

    let encoded = scratch.join("layer-encoded");
    let _ = std::fs::remove_dir_all(&encoded);
    let dirs = (filled.as_path(), encoded.as_path());
    codec(
        out,
        dirs,
        "profile",
        "bpprof",
        |c| c.store(&profile_key, &profile),
        |c| c.load(&profile_key).map(|a| a.is_some()),
    )?;
    codec(
        out,
        dirs,
        "selection",
        "bpsel",
        |c| c.store_selection(&selection_key, &selection),
        |c| c.load_selection(&selection_key).map(|a| a.is_some()),
    )?;
    codec(
        out,
        dirs,
        "simulated",
        "bpsim",
        |c| c.store_simulated(&simulated_key, &simulated),
        |c| c.load_simulated(&simulated_key).map(|a| a.is_some()),
    )?;
    codec(
        out,
        dirs,
        "checkpoint",
        "bpckpt",
        |c| c.store_checkpoint(&checkpoint_key, &checkpoints),
        |c| c.load_checkpoint(&checkpoint_key).map(|a| a.is_some()),
    )?;

    // barrierpoint segment: sequential vs checkpoint-resumed re-profiles.
    let shared = Some(&budget);
    let sequential = profile_application_budgeted(kernel, &all_cpus, shared);
    let segmented = profile_application_segmented(kernel, &checkpoints, &all_cpus, shared);
    if sequential.map_err(load_err)? != segmented.map_err(load_err)? {
        return Err("segmented re-profile differs from the sequential walk".into());
    }
    let sequential_s = time_s(|| profile_application_budgeted(kernel, &all_cpus, shared));
    let segmented_s =
        time_s(|| profile_application_segmented(kernel, &checkpoints, &all_cpus, shared));
    out.set("segment.sequential_reprofile_ms", sequential_s * 1e3);
    out.set("segment.reprofile_ms", segmented_s * 1e3);
    if host_cpus() > 1 {
        out.set("segment.speedup", sequential_s / segmented_s);
    } else {
        out.not_measured("segment.speedup", "1-CPU host: no spare core to run segments on");
    }
    // The same restore path through a sweep: drop the cached profile and
    // change the clustering so the selection misses too, which makes the
    // sweep re-profile from the checkpoints the cold sweep stored.
    let cache = ArtifactCache::new(&filled);
    cache.invalidate_profile(&profile_key);
    let reprofiled = env
        .sweep(kernel)
        .with_simpoint_config(SimPointConfig::paper().with_max_k(3))
        .with_execution_policy(all_cpus)
        .with_shared_budget(budget.clone())
        .with_cache(cache)
        .run()
        .map_err(|e| e.to_string())?;
    out.set("segment.checkpoint_hits", reprofiled.counters().checkpoint_hits as f64);
    out.set("exec.workers", host_cpus() as f64);
    out.set("exec.steal_count", budget.steal_count() as f64);

    let _ = std::fs::remove_dir_all(&filled);
    let _ = std::fs::remove_dir_all(&encoded);
    Ok(())
}

/// Encode and decode throughput of one artifact kind: `store` on a fresh
/// handle writes into `encoded`, `load` on a fresh handle reads the entry
/// back from `filled` (a cold memory tier, warm disk).  Only the call itself
/// is timed, not opening or dropping the handle.
fn codec(
    out: &mut Metrics,
    (filled, encoded): (&Path, &Path),
    kind: &str,
    ext: &str,
    store: impl Fn(&ArtifactCache) -> Result<(), Error>,
    load: impl Fn(&ArtifactCache) -> Result<bool, Error>,
) -> Result<(), String> {
    let timed = |dir: &Path, f: &dyn Fn(&ArtifactCache) -> Result<bool, Error>| {
        let samples = (0..SAMPLES)
            .map(|_| {
                let cache = ArtifactCache::new(dir);
                let start = Instant::now();
                let ok = f(&cache);
                let elapsed = start.elapsed().as_secs_f64();
                match ok {
                    Ok(true) => Ok(elapsed),
                    Ok(false) => Err(format!("the {kind} entry is missing")),
                    Err(e) => Err(e.to_string()),
                }
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok::<f64, String>(median(&samples))
    };
    let store_s = timed(encoded, &|c| store(c).map(|()| true))?;
    let load_s = timed(filled, &load)?;
    let bytes = std::fs::read_dir(encoded)
        .map_err(|e| e.to_string())?
        .flatten()
        .find(|e| e.path().extension().is_some_and(|x| x == ext))
        .and_then(|e| e.metadata().ok())
        .map(|m| m.len() as f64)
        .ok_or_else(|| format!("no .{ext} entry was written"))?;
    out.set(&format!("cache.encode_mb_per_s.{kind}"), bytes / store_s / 1e6);
    out.set(&format!("cache.decode_mb_per_s.{kind}"), bytes / load_s / 1e6);
    Ok(())
}
