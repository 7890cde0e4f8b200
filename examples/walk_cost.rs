//! Where the cold sweep's trace walk spends its time, kernel by kernel.
//!
//! For the eight paper kernels at the repository benchmark's shape (8
//! threads, scale 0.15, seed 1, serial), it times four passes over each
//! kernel:
//!
//! - `trace`: generating every thread's trace of every region, feeding
//!   nothing;
//! - `profile`: `TraceWalk::profile()`, the signature profile;
//! - `fused`: `TraceWalk::profile().with_mru(Every, base LLC lines)`, the
//!   cold sweep's walk (the profile and the MRU warmup bank from one
//!   recency engine per thread);
//! - `run_full`: `Machine::run_full` at the `base` design point, for scale.
//!
//! `mru` is the fused walk's median less the profile's: what the MRU
//! collector adds to a profiling walk.  Each figure is the median, min and
//! max over `--reps` passes in milliseconds; the `total` row sums the
//! kernels within each pass.  The last line is the same table as JSON.
//!
//! ```bash
//! cargo run --release --example walk_cost -- [--seed 1] [--scale 0.15] [--reps 5]
//! ```

use barrierpoint::{ExecutionPolicy, MruBoundaries, TraceWalk};
use bp_sim::{Machine, SimConfig};
use bp_workload::{Benchmark, BlockExecution, SyntheticWorkload, Workload, WorkloadConfig};
use std::time::{Duration, Instant};

const THREADS: usize = 8;

/// The timed passes, in the order each kernel runs them.
const STAGES: [&str; 4] = ["trace", "profile", "fused", "run_full"];

fn arg(args: &[String], name: &str, default: &str) -> String {
    args.windows(2).find(|w| w[0] == name).map_or(default.to_string(), |w| w[1].clone())
}

/// Generates every thread's trace of every region of `kernel`.
fn generate(kernel: &SyntheticWorkload) -> u64 {
    let mut exec = BlockExecution::default();
    let mut blocks = 0;
    for region in 0..kernel.num_regions() {
        for thread in 0..kernel.num_threads() {
            let mut trace = kernel.region_trace(region, thread);
            while trace.next_into(&mut exec) {
                blocks += 1;
            }
        }
    }
    blocks
}

/// `(median, min, max)` in milliseconds.
fn spread(samples: &[Duration]) -> (f64, f64, f64) {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    (ms[ms.len() / 2], ms[0], ms[ms.len() - 1])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg(&args, "--seed", "1").parse()?;
    let scale: f64 = arg(&args, "--scale", "0.15").parse()?;
    let reps: usize = arg(&args, "--reps", "5").parse::<usize>()?.max(1);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let config = WorkloadConfig::new(THREADS).with_seed(seed).with_scale(scale);
    let kernels: Vec<(&str, SyntheticWorkload)> =
        Benchmark::all().iter().map(|b| (b.name(), b.build(&config))).collect();
    let base = SimConfig::scaled(THREADS);
    let llc_lines = base.memory.llc_total_lines(base.num_cores);
    let fused = TraceWalk::profile().with_mru(MruBoundaries::Every, llc_lines);
    let serial = ExecutionPolicy::Serial;

    // samples[kernel][stage][rep]; the kernels of one rep run back to back.
    let mut samples = vec![vec![Vec::with_capacity(reps); STAGES.len()]; kernels.len()];
    for _ in 0..reps {
        for ((_, kernel), times) in kernels.iter().zip(&mut samples) {
            let start = Instant::now();
            std::hint::black_box(generate(kernel));
            times[0].push(start.elapsed());

            let start = Instant::now();
            std::hint::black_box(TraceWalk::profile().run(kernel, &serial, None)?);
            times[1].push(start.elapsed());

            let start = Instant::now();
            std::hint::black_box(fused.run(kernel, &serial, None)?);
            times[2].push(start.elapsed());

            let start = Instant::now();
            std::hint::black_box(Machine::new(&base).run_full(kernel));
            times[3].push(start.elapsed());
        }
    }
    let total: Vec<Vec<Duration>> = (0..STAGES.len())
        .map(|stage| (0..reps).map(|rep| samples.iter().map(|k| k[stage][rep]).sum()).collect())
        .collect();

    println!(
        "walk cost: {} kernels x {THREADS} threads, scale {scale}, seed {seed}, serial, base LLC \
         {llc_lines} lines, median [min, max] of {reps} reps in ms, nproc {nproc}",
        kernels.len()
    );
    print!("{:<18}", "kernel");
    for stage in STAGES {
        print!(" {stage:>26}");
    }
    println!(" {:>9}", "mru");
    let rows = kernels.iter().map(|(name, _)| *name).zip(&samples).chain([("total", &total)]);
    let mut json = Vec::new();
    for (name, times) in rows {
        print!("{name:<18}");
        let mut fields = vec![format!("\"kernel\": \"{name}\"")];
        let mut medians = Vec::new();
        for (stage, times) in STAGES.iter().zip(times) {
            let (median, min, max) = spread(times);
            print!(" {median:>9.2} [{min:>6.2}, {max:>6.2}]");
            fields.push(format!(
                "\"{stage}_ms\": {{\"median\": {median:.3}, \"min\": {min:.3}, \"max\": {max:.3}}}"
            ));
            medians.push(median);
        }
        let mru = medians[2] - medians[1];
        println!(" {mru:>9.2}");
        fields.push(format!("\"mru_ms\": {mru:.3}"));
        json.push(format!("{{{}}}", fields.join(", ")));
    }
    println!(
        "{{\"example\": \"walk_cost\", \"threads\": {THREADS}, \"scale\": {scale}, \"seed\": {seed}, \
         \"policy\": \"serial\", \"llc_lines\": {llc_lines}, \"reps\": {reps}, \"nproc\": {nproc}, \
         \"rows\": [{}]}}",
        json.join(", ")
    );
    Ok(())
}
