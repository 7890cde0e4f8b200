//! `perfbench` — the repository benchmark of the BarrierPoint reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-sweep|ground-truth|warm-resweep> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One invocation sets one workload up five times, each set-up followed by
//! a fifth of `--seconds` of its ops in a closed loop, checks every
//! op's output against references computed at set-up, and prints its
//! metrics; the last stdout line is the JSON result.  `--trace 0` prints the
//! end-to-end metrics; `--trace 1` is the separate traced run that prints
//! the per-layer metrics.  `--describe` prints `BENCHMARK.json`.  See
//! `README.md` beside this crate for the workloads, the metrics and which
//! layer should move which end-to-end number.

mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Metrics, END_TO_END, PER_LAYER};
use stats::median;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{host_cpus, Counts, Kind, Setup};

const USAGE: &str = "usage: perfbench --workload <cold-sweep|ground-truth|warm-resweep> \
--seed <n> --seconds <n> --trace <0|1> [--scale <f>] [--setups <n>]
       [--inject-mismatch]
       perfbench --describe";

/// Kernel work scale: small enough that a `cold-sweep` rotation of all
/// eight kernels takes about 1.3 s, so each of a run's five 4-second rounds
/// (`run_seconds` is 20) holds about the 3 rotations it must run.
const DEFAULT_SCALE: f64 = 0.15;

/// Fewest rotations a run measures, even past `--seconds`.  It fixes the
/// percentile `op_tail_ms` reports on every run of a workload: 13 rotations
/// of eight slots leave 10 ops beyond p90.
const MIN_ROTATIONS: usize = 13;

/// Set-ups per untraced run, one per round; `setup_s` is their median.
const DEFAULT_SETUPS: usize = 5;

/// Where runs keep their caches and span dumps, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: f64,
    setups: usize,
    inject_mismatch: bool,
}

impl Args {
    fn inputs(&self) -> workloads::Inputs {
        workloads::Inputs {
            seed: self.seed,
            scale: self.scale,
            inject_mismatch: self.inject_mismatch,
        }
    }
}

enum Command {
    Run(Args),
    Describe,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scale, mut setups, mut inject_mismatch) = (DEFAULT_SCALE, DEFAULT_SETUPS, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad {flag} value {v}"));
        match flag.as_str() {
            "--describe" => return Ok(Command::Describe),
            "--inject-mismatch" => inject_mismatch = true,
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace value {other}")),
                })
            }
            "--scale" => {
                let v = value()?;
                scale =
                    v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or(format!("bad scale {v}"))?;
            }
            "--setups" => setups = number(value()?)?.max(1) as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        setups,
        inject_mismatch,
    }))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Command::Describe) => {
            print!("{}", report::describe());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sets the workload up, runs it, and returns the result line.
///
/// An untraced run is `--setups` rounds, each a fresh set-up followed by its
/// share of the measured time.  Set-ups and ops then sample the same
/// stretch of the host's time: with every set-up done first, a slow phase of
/// a few seconds at the start of a run moved the median set-up by a third.
fn run(args: &Args, work: &Path) -> Result<String, String> {
    let rounds = if args.trace { 1 } else { args.setups };
    let mut setup_s = Vec::with_capacity(rounds);
    let mut phase = Phase::default();
    let mut ops_peak_kib = 0;
    let mut setup = None;
    for round in 0..rounds {
        drop(setup.take()); // release the previous set-up's memory first
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        let start = Instant::now();
        let current = workloads::setup(args.kind, &args.inputs(), work)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if round == 0 {
            print_host(args, &current, rounds);
            println!("peak resident set after set-up: {} MiB", peak_rss_kib()? as f64 / 1024.0);
        }
        if !args.trace {
            let seconds = args.seconds as f64 / rounds as f64;
            let min_rotations = MIN_ROTATIONS.div_ceil(rounds);
            // The graded peak is the ops' own: set-up's peak is forgotten.
            reset_peak_rss()?;
            run_phase(&mut phase, &current, seconds, min_rotations, &mut Recorder::new(false));
            ops_peak_kib = ops_peak_kib.max(peak_rss_kib()?);
        }
        setup = Some(current);
    }
    let setup = setup.ok_or("no set-up ran")?;
    if args.trace {
        traced(args, &setup, work)
    } else {
        untraced(&setup, &setup_s, &phase, ops_peak_kib)
    }
}

fn print_host(args: &Args, setup: &Setup, setups: usize) {
    let env = &setup.env;
    let points: Vec<&str> = env.points.iter().map(|(label, _)| *label).collect();
    println!(
        "perfbench {} seed {} trace {} | host nproc {} workers {} | {} kernels x {} threads at \
         scale {} | design points {} | set-ups {setups}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        host_cpus(),
        workloads::WORKERS,
        env.kernels.len(),
        workloads::THREADS,
        args.scale,
        points.join(","),
    );
    let fingerprints: Vec<String> =
        setup.fingerprints().iter().map(|f| format!("{f:016x}")).collect();
    println!("workload fingerprints {}", fingerprints.join(","));
    println!(
        "simulated-output digest {:016x} (ungraded; a performance-only change leaves it identical)",
        setup.digest()
    );
}

/// The ops of one closed-loop phase.
#[derive(Debug, Default)]
struct Phase {
    samples_ms: Vec<f64>,
    /// Where each round's samples end.
    round_ends: Vec<usize>,
    attempted: u64,
    failed: u64,
    instructions: u64,
    counts: Counts,
}

/// Timing statistics of a phase of whole rotations.
///
/// Each rotation samples every slot (kernel, or kernel and design point)
/// once.  For the median and the throughput a slot's latency is its lowest
/// over rotations, which keeps the host's interference phases off them (see
/// `stats::slot_minima`); the median is then taken over every op at its
/// slot's latency, and each slot has as many ops as any other.  Throughput
/// is the instructions of one rotation over the sum of the slot latencies.
/// The tail is that median times the tail of every op's own slowdown, the
/// median over the rounds (see `stats::tail`), so it is the one figure that
/// sees ops that are only sometimes slow.
struct Timing {
    slot_ms: Vec<f64>,
    p50_ms: f64,
    tail_ms: f64,
    tail: stats::Tail,
    minstr_per_s: f64,
    rotations: usize,
}

impl Phase {
    fn timing(&self, slots: usize) -> Timing {
        let slot_ms = stats::slot_minima(&self.samples_ms, slots);
        let rotations = self.samples_ms.len() / slots;
        let rotation_s = slot_ms.iter().sum::<f64>() / 1e3;
        let p50_ms = median(&slot_ms);
        let tail = stats::tail(&self.samples_ms, &self.round_ends, slots, slots * MIN_ROTATIONS);
        Timing {
            p50_ms,
            tail_ms: p50_ms * tail.slowdown,
            tail,
            minstr_per_s: self.instructions as f64 / rotations as f64 / rotation_s / 1e6,
            slot_ms,
            rotations,
        }
    }
}

/// Adds whole rotations of `setup`'s ops to `phase` until `seconds` have
/// passed and at least `min_rotations` rotations ran.
fn run_phase(
    phase: &mut Phase,
    setup: &Setup,
    seconds: f64,
    min_rotations: usize,
    rec: &mut Recorder,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rotations = 0;
    loop {
        for _ in 0..setup.slots() {
            let op = phase.attempted;
            let result = setup.run_op(op, rec);
            phase.attempted += 1;
            if let Some(failure) = &result.failure {
                phase.failed += 1;
                eprintln!("perfbench: failed op {op}: {failure}");
            }
            phase.samples_ms.push(result.elapsed.as_secs_f64() * 1e3);
            phase.instructions += result.instructions;
            phase.counts.add(&result.counts);
        }
        rotations += 1;
        if Instant::now() >= deadline && rotations >= min_rotations {
            phase.round_ends.push(phase.samples_ms.len());
            return;
        }
    }
}

fn untraced(
    setup: &Setup,
    setup_s: &[f64],
    phase: &Phase,
    ops_peak_kib: u64,
) -> Result<String, String> {
    let timing = phase.timing(setup.slots());
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(setup_s));
    metrics.set("op_p50_ms", timing.p50_ms);
    metrics.set("op_tail_ms", timing.tail_ms);
    metrics.set("app_minstr_per_s", timing.minstr_per_s);
    metrics.set("peak_rss_mib", ops_peak_kib as f64 / 1024.0);

    println!(
        "samples: setup_s {} set-ups | {} ops in {} rotations of {} slots | op_tail_ms is \
         op_p50_ms x the p{} op slowdown {}, with {} ops slower | peak_rss_mib highest of {} \
         readings, one after each round's ops",
        setup_s.len(),
        phase.attempted,
        timing.rotations,
        setup.slots(),
        timing.tail.percentile,
        timing.tail.slowdown,
        timing.tail.beyond,
        setup_s.len()
    );
    let each_setup: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up times (s): {}", each_setup.join(" "));
    let per_slot: Vec<String> = timing.slot_ms.iter().map(|ms| format!("{ms:.3}")).collect();
    println!("op latency per rotation slot (lowest over rotations, ms): {}", per_slot.join(" "));
    println!(
        "failed_op_share {} ({} of {} ops failed their output check or returned Err)",
        phase.failed as f64 / phase.attempted as f64,
        phase.failed,
        phase.attempted
    );
    if let Some(accuracy) = setup.accuracy {
        println!(
            "runtime_error_pct {} % (mean absolute error of each leg's reconstruction; the \
             reference is this repo's own full detailed model, Machine::run_full, not hardware)",
            accuracy.runtime_error_pct
        );
        println!(
            "detailed_instr_pct {} % (sampled_instructions / total_instructions)",
            accuracy.detailed_instr_pct
        );
        // Derived only: a faster simulator lowers it, so it is not graded.
        let sweep_s = timing.slot_ms.iter().sum::<f64>() / 1e3;
        println!(
            "derived, ungraded: full detailed simulation of every (kernel, design point) takes {} \
             s; one cold sweep of every kernel takes {} s; ratio {}",
            accuracy.full_sim_s,
            sweep_s,
            accuracy.full_sim_s / sweep_s
        );
    }
    let registry: Vec<(&str, &str)> = END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect();
    let json = metrics.render(&registry)?;
    Ok(report::result_line(phase.failed == 0, phase.attempted, phase.failed, &json))
}

fn traced(args: &Args, setup: &Setup, work: &Path) -> Result<String, String> {
    let half = args.seconds as f64 / 2.0;
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    run_phase(&mut plain, setup, half, MIN_ROTATIONS, &mut Recorder::new(false));
    let mut rec = Recorder::new(true);
    run_phase(&mut traced, setup, half, MIN_ROTATIONS, &mut rec);

    let slots = setup.slots();
    let mut metrics = Metrics::default();
    // Per traced op, the summed self time of each span name.
    let by_op: Vec<_> = rec.self_ms_by_op().into_values().collect();
    let stage_p50 = |name: &str| {
        let per_op: Vec<f64> = by_op.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect();
        median(&stats::slot_minima(&per_op, slots))
    };
    let points = setup.env.points.len() as f64;
    metrics.set("core.profile_ms", stage_p50("core.profile"));
    metrics.set("core.select_ms", stage_p50("core.select"));
    metrics.set("core.simulate_ms", stage_p50("core.simulate") / points);
    metrics.set("core.reconstruct_us", stage_p50("core.reconstruct") / points * 1e3);

    // Attribution: per op, the self time of the spans around public calls
    // (everything but the op span itself), against the untraced op median.
    let attributed: Vec<f64> = by_op
        .iter()
        .map(|m| m.iter().filter(|(name, _)| **name != "op").map(|(_, ms)| ms).sum())
        .collect();
    let untraced_p50 = plain.timing(slots).p50_ms;
    let traced_p50 = traced.timing(slots).p50_ms;
    let unattributed =
        (untraced_p50 - median(&stats::slot_minima(&attributed, slots))) / untraced_p50;
    metrics.set("core.unattributed_share", unattributed);
    metrics.set("trace.untraced_op_p50_ms", untraced_p50);
    metrics.set("trace.traced_op_p50_ms", traced_p50);
    metrics.set("trace.overhead_ms", traced_p50 - untraced_p50);
    metrics.set("trace.overhead_share", (traced_p50 - untraced_p50) / untraced_p50);
    println!(
        "attribution: stage self times cover {:.1} % of the untraced op median ({} untraced ops, \
         {} traced ops, {} spans){}",
        (1.0 - unattributed) * 100.0,
        plain.attempted,
        traced.attempted,
        rec.len(),
        if unattributed > 0.1 { " -- below the 90 % target" } else { "" }
    );

    let c = plain.counts;
    let per_op = |v: u64| v as f64 / plain.attempted as f64;
    metrics.set("core.trace_walks", per_op(c.trace_walks));
    metrics.set("core.segment_walks", per_op(c.segment_walks));
    metrics.set("core.simulate_legs", per_op(c.simulate_legs));
    metrics.set("core.warmup_collections", per_op(c.warmup_collections));
    let lookups = c.hits + c.misses;
    metrics.set("cache.hit_ratio", if lookups == 0 { 0.0 } else { c.hits as f64 / lookups as f64 });
    metrics.set("cache.disk_hits", per_op(c.disk_hits));
    metrics.set("cache.misses", per_op(c.misses));
    metrics.set("cache.degraded_ops", per_op(c.degraded));
    metrics.set("cache.io_retries", per_op(c.retries));
    metrics.set("cache.lock_contended", per_op(c.lock_contended));
    metrics.set("cache.bytes_on_disk", per_op(c.bytes_on_disk));

    layers::measure(&setup.env, work, &mut metrics)?;

    let dump = Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.kind.name(), args.seed));
    match std::fs::write(&dump, rec.write_json()) {
        Ok(()) => println!("spans written to {}", dump.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", dump.display()),
    }
    let registry: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    let json = metrics.render(&registry)?;
    let (attempted, failed) = (plain.attempted + traced.attempted, plain.failed + traced.failed);
    Ok(report::result_line(failed == 0, attempted, failed, &json))
}

extern "C" {
    /// glibc: returns the free pages of every heap arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets this process's peak resident set (VmHWM) to its current resident
/// set, so the next reading is the peak of what ran since.  The heap pages
/// earlier work freed are returned to the system first: still resident,
/// they would hold the reset peak at set-up's level, and ops reusing them
/// would never raise it.
fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim only releases free memory; it takes the
    // allocator's own locks and touches no live allocation.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident set of this process (VmHWM), in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
