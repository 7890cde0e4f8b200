//! What each artifact kind costs the cache on disk: entry bytes, `store`
//! time, and the `load` time of a freshly opened handle (disk read, seal
//! check and decode — the memory tier is cold).
//!
//! For the eight paper kernels at the repository benchmark's shape (8
//! threads, scale 0.15), it builds each kernel's profile, selection,
//! simulated leg (the `scaled` design point, MRU warmup) and region-segment
//! checkpoints through the public pipeline, then stores and reloads each
//! one through `ArtifactCache` in an otherwise empty directory.  Times are
//! the minimum of `--reps` store/load pairs; the totals row sums every
//! kernel.
//!
//! ```bash
//! cargo run --release --example artifact_cost -- [--seed 1] [--scale 0.15] [--reps 5]
//! ```

use barrierpoint::{
    ArtifactCache, BarrierPoint, CheckpointCacheKey, ExecutionPolicy, MruBoundaries,
    ProfileCacheKey, SimConfig, SimulatedCacheKey, TraceWalk, WarmupKind, DEFAULT_SEGMENTS,
};
use bp_workload::{Benchmark, WorkloadConfig};
use std::path::Path;
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const KINDS: [&str; 4] = ["profile", "selection", "simulated", "checkpoint"];

fn arg(args: &[String], name: &str, default: &str) -> String {
    args.windows(2).find(|w| w[0] == name).map_or(default.to_string(), |w| w[1].clone())
}

/// Bytes of every file in `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// One kind's cost: entry bytes, fastest store, fastest reopened load.
#[derive(Default, Clone, Copy)]
struct Cost {
    bytes: u64,
    store: Duration,
    load: Duration,
}

/// Stores with `store` into an empty `dir` and reloads with `load` from a
/// fresh handle, `reps` times.
fn measure(
    dir: &Path,
    reps: usize,
    store: impl Fn(&ArtifactCache) -> Result<(), barrierpoint::Error>,
    load: impl Fn(&ArtifactCache) -> Result<bool, barrierpoint::Error>,
) -> Result<Cost, Box<dyn std::error::Error>> {
    let mut cost = Cost { bytes: 0, store: Duration::MAX, load: Duration::MAX };
    for _ in 0..reps {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let cache = ArtifactCache::new(dir);
        let start = Instant::now();
        store(&cache)?;
        cost.store = cost.store.min(start.elapsed());
        drop(cache);
        cost.bytes = dir_bytes(dir)?;

        let reopened = ArtifactCache::new(dir);
        let start = Instant::now();
        let hit = load(&reopened)?;
        cost.load = cost.load.min(start.elapsed());
        assert!(hit, "a stored entry must load");
    }
    std::fs::remove_dir_all(dir)?;
    Ok(cost)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg(&args, "--seed", "1").parse()?;
    let scale: f64 = arg(&args, "--scale", "0.15").parse()?;
    let reps: usize = arg(&args, "--reps", "5").parse::<usize>()?.max(1);

    let config = WorkloadConfig::new(THREADS).with_seed(seed).with_scale(scale);
    let machine = SimConfig::scaled(THREADS);
    let capacity = machine.memory.llc_total_lines(THREADS);
    let dir = std::env::temp_dir().join(format!("bp-artifact-cost-{}", std::process::id()));

    println!(
        "artifact cost: {} kernels x {THREADS} threads, scale {scale}, seed {seed}, min of {reps}",
        Benchmark::all().len()
    );
    println!(
        "{:<16} {:<10} {:>12} {:>10} {:>10} {:>10}",
        "kernel", "kind", "bytes", "store", "load", "store MB/s"
    );
    let mut totals = [Cost::default(); 4];
    for benchmark in Benchmark::all() {
        let kernel = benchmark.build(&config);
        let selected = BarrierPoint::new(&kernel).select()?;
        let simulated = selected.simulate(&machine)?;
        let checkpoints = TraceWalk::profile()
            .with_mru(MruBoundaries::Every, capacity)
            .emitting_checkpoints(DEFAULT_SEGMENTS)
            .run(&kernel, &ExecutionPolicy::Serial, None)?
            .checkpoints
            .expect("an emitting walk returns checkpoints");

        let profile_key = ProfileCacheKey::for_workload(&kernel);
        let selection_key = selected.selection_cache_key();
        let simulated_key =
            SimulatedCacheKey::new(&kernel, selected.selection(), &machine, WarmupKind::MruReplay);
        let checkpoint_key = CheckpointCacheKey::for_workload(&kernel);
        let costs = [
            measure(
                &dir,
                reps,
                |c| c.store(&profile_key, selected.profile()),
                |c| Ok(c.load(&profile_key)?.is_some()),
            )?,
            measure(
                &dir,
                reps,
                |c| c.store_selection(&selection_key, selected.selection()),
                |c| Ok(c.load_selection(&selection_key)?.is_some()),
            )?,
            measure(
                &dir,
                reps,
                |c| c.store_simulated(&simulated_key, &simulated),
                |c| Ok(c.load_simulated(&simulated_key)?.is_some()),
            )?,
            measure(
                &dir,
                reps,
                |c| c.store_checkpoint(&checkpoint_key, &checkpoints),
                |c| Ok(c.load_checkpoint(&checkpoint_key)?.is_some()),
            )?,
        ];
        for ((kind, cost), total) in KINDS.iter().zip(costs).zip(&mut totals) {
            print_row(benchmark.name(), kind, cost);
            total.bytes += cost.bytes;
            total.store += cost.store;
            total.load += cost.load;
        }
    }
    for (kind, total) in KINDS.iter().zip(totals) {
        print_row("total", kind, total);
    }
    Ok(())
}

fn print_row(kernel: &str, kind: &str, cost: Cost) {
    println!(
        "{kernel:<16} {kind:<10} {:>12} {:>8.3}ms {:>8.3}ms {:>10.0}",
        cost.bytes,
        ms(cost.store),
        ms(cost.load),
        cost.bytes as f64 / 1e6 / cost.store.as_secs_f64()
    );
}
