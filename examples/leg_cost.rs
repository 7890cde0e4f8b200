//! Where a sweep leg's time goes, set against the full run it replaces.
//!
//! For the eight paper kernels at the repository benchmark's shape (8
//! threads, scale 0.15), it selects each kernel's barrierpoints, assembles
//! their MRU warmup payloads, and simulates every barrierpoint the way a
//! sweep leg does, timing each phase summed over all kernels:
//!
//! - `setup`: readying the leg's machine (one machine per leg, reused);
//! - `hand-off`: building the warmup strategy from the payload (a borrow);
//! - `warmup`: `apply_warmup` with that strategy;
//! - `run_region`: the detailed simulation of the barrierpoint;
//!
//! and, for scale, `Machine::run_full` of every kernel at each design
//! point.  It runs the two legs a sweep over `base`, `fast-clock` and
//! `small-llc` simulates (`fast-clock` shares `base`'s).  Every figure is
//! the median of `--reps` passes; the digest hashes every barrierpoint's
//! metrics, so two builds that print the same digest simulated the same.
//!
//! ```bash
//! cargo run --release --example leg_cost -- [--seed 1] [--scale 0.15] [--reps 5]
//! ```

use barrierpoint::{profile_and_collect_warmup, BarrierPoint, ExecutionPolicy};
use bp_sim::{Machine, SimConfig};
use bp_warmup::{apply_warmup, WarmupStrategy};
use bp_workload::{Benchmark, SyntheticWorkload, WorkloadConfig};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

const THREADS: usize = 8;

/// Per-phase time of one pass over every kernel's barrierpoints.
#[derive(Default, Clone, Copy)]
struct Phases {
    setup: Duration,
    hand_off: Duration,
    warmup: Duration,
    region: Duration,
}

fn arg(args: &[String], name: &str, default: &str) -> String {
    args.windows(2).find(|w| w[0] == name).map_or(default.to_string(), |w| w[1].clone())
}

fn median(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg(&args, "--seed", "1").parse()?;
    let scale: f64 = arg(&args, "--scale", "0.15").parse()?;
    let reps: usize = arg(&args, "--reps", "5").parse::<usize>()?.max(1);

    let config = WorkloadConfig::new(THREADS).with_seed(seed).with_scale(scale);
    let kernels: Vec<SyntheticWorkload> =
        Benchmark::all().iter().map(|b| b.build(&config)).collect();
    let base = SimConfig::scaled(THREADS);
    let mut small_llc = base;
    small_llc.memory.l3.size_bytes /= 2;
    let legs = [("base", base), ("small-llc", small_llc)];
    let capacities: Vec<u64> =
        legs.iter().map(|(_, m)| m.memory.llc_total_lines(m.num_cores)).collect();

    // Per kernel: its barrierpoints and, per leg, their payloads.
    let mut inputs = Vec::new();
    for kernel in &kernels {
        let regions = BarrierPoint::new(kernel).select()?.into_selection().barrierpoint_regions();
        let (_, bank) =
            profile_and_collect_warmup(kernel, &capacities, &ExecutionPolicy::Serial, None)?;
        inputs.push((regions.clone(), bank.assemble_multi(&regions, &capacities)));
    }
    let barrierpoints: usize = inputs.iter().map(|(regions, _)| regions.len()).sum();
    println!(
        "leg cost: {} kernels x {THREADS} threads, scale {scale}, seed {seed}, {barrierpoints} \
         barrierpoints, median of {reps}",
        kernels.len()
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9} {:>8}  digest",
        "leg",
        "lines",
        "setup",
        "hand-off",
        "warmup",
        "ns/line",
        "run_region",
        "run_full",
        "warmup%"
    );

    for (leg, (label, machine_config)) in legs.iter().enumerate() {
        let capacity = capacities[leg];
        let lines: usize = inputs
            .iter()
            .flat_map(|(_, payloads)| payloads[&capacity].values())
            .map(|data| data.total_lines())
            .sum();
        let mut passes = Vec::with_capacity(reps);
        let mut digest = 0;
        for _ in 0..reps {
            let mut phases = Phases::default();
            let mut hasher = DefaultHasher::new();
            let start = Instant::now();
            let mut machine = Machine::new(machine_config);
            phases.setup += start.elapsed();
            for (kernel, (regions, payloads)) in kernels.iter().zip(&inputs) {
                for region in regions {
                    let start = Instant::now();
                    let strategy = WarmupStrategy::MruReplay(&payloads[&capacity][region]);
                    phases.hand_off += start.elapsed();

                    let start = Instant::now();
                    apply_warmup(machine.hierarchy_mut(), kernel, &strategy);
                    phases.warmup += start.elapsed();

                    let start = Instant::now();
                    let metrics = machine.run_region(kernel, *region);
                    phases.region += start.elapsed();
                    format!("{metrics:?}").hash(&mut hasher);
                }
            }
            digest = hasher.finish();
            passes.push(phases);
        }
        let full: Vec<Duration> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                for kernel in &kernels {
                    std::hint::black_box(Machine::new(machine_config).run_full(kernel));
                }
                start.elapsed()
            })
            .collect();
        let phase = |f: fn(&Phases) -> Duration| median(passes.iter().map(f).collect());
        let warmup = phase(|p| p.warmup);
        let run_full = median(full);
        println!(
            "{label:<10} {lines:>9} {:>7.2}ms {:>7.2}ms {warmup:>7.2}ms {:>9.1} {:>9.2}ms \
             {run_full:>7.2}ms {:>7.1}%  {digest:016x}",
            phase(|p| p.setup),
            phase(|p| p.hand_off),
            warmup * 1e6 / lines.max(1) as f64,
            phase(|p| p.region),
            100.0 * warmup / run_full,
        );
    }
    Ok(())
}
