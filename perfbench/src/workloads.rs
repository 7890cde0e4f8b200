//! The benchmark's workloads: set-up, one op, and each op's output check.
//!
//! Every workload is a closed loop with one client: the next op starts when
//! the previous one returned.  Ops rotate through the eight paper kernels
//! (and, for `ground-truth`, the design points) in a fixed order.

use crate::trace::Recorder;
use barrierpoint::evaluate::prediction_error;
use barrierpoint::{
    reconstruct, ArtifactCache, BarrierPoint, CacheStats, Error, ExecutionPolicy, SimConfig, Sweep,
    SweepCounters, SweepReport, WorkerBudget,
};
use bp_bench::{sweep_machine_variants, ExperimentConfig};
use bp_sim::Machine;
use bp_workload::{Benchmark, FingerprintHasher, SyntheticWorkload, Workload, WorkloadConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Simulated application threads (and cores) of every kernel.
pub const THREADS: usize = 8;

/// The pipeline's worker threads.  One: on a shared 2-CPU host, two workers
/// made an op wait for whichever CPU another tenant slowed, and made the
/// peak resident set depend on how the workers interleaved (its spread over
/// five seeds was 0.15 with two workers, 0.003 with one).  The traced run
/// measures bp-exec on every CPU.
pub const WORKERS: usize = 1;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdSweep,
    GroundTruth,
    WarmResweep,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ColdSweep, Kind::GroundTruth, Kind::WarmResweep];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdSweep => "cold-sweep",
            Kind::GroundTruth => "ground-truth",
            Kind::WarmResweep => "warm-resweep",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Kind::ColdSweep => {
                "Sweep::run from an empty cache: the fused trace walk, clustering, detailed \
                 simulation and every cache write (the paper's use case from nothing)"
            }
            Kind::GroundTruth => {
                "Machine::run_full per kernel and design point: trace generation, the core model \
                 and the cache hierarchy only (what BarrierPoint replaces)"
            }
            Kind::WarmResweep => {
                "each kernel's sweep re-run on a fresh cache handle over its warm directory: disk \
                 read, checksum, decode and key derivation only"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// Inputs every workload shares: the kernels built from the seed, the
/// design points, and how the pipeline executes.
pub struct Env {
    pub kernels: Vec<SyntheticWorkload>,
    pub points: Vec<(&'static str, SimConfig)>,
    pub policy: ExecutionPolicy,
    /// The worker budget every sweep of the ops shares.
    pub budget: WorkerBudget,
    pub work_dir: PathBuf,
}

/// What a run's inputs are built from.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub seed: u64,
    /// Kernel work scale (`WorkloadConfig::with_scale`).
    pub scale: f64,
    /// Corrupt the first reference, so the first op of every rotation must
    /// fail its check.
    pub inject_mismatch: bool,
}

impl Env {
    pub fn new(inputs: &Inputs, work_dir: &Path) -> Self {
        let Inputs { seed, scale, .. } = *inputs;
        let config = WorkloadConfig::new(THREADS).with_seed(seed).with_scale(scale);
        let kernels = Benchmark::all().iter().map(|bench| bench.build(&config)).collect();
        let experiment = ExperimentConfig {
            scale,
            cores_small: THREADS,
            cores_large: THREADS,
            tiny_machine: false,
        };
        let policy = ExecutionPolicy::parallel_with(WORKERS);
        Self {
            kernels,
            points: sweep_machine_variants(&experiment, THREADS),
            policy,
            budget: WorkerBudget::for_policy(&policy),
            work_dir: work_dir.to_path_buf(),
        }
    }

    /// A sweep of `kernel` over every design point.
    pub fn sweep<'a>(&self, kernel: &'a SyntheticWorkload) -> Sweep<'a, SyntheticWorkload> {
        let mut sweep = Sweep::new(kernel)
            .with_execution_policy(self.policy)
            .with_shared_budget(self.budget.clone());
        for (label, machine) in &self.points {
            sweep = sweep.add_config(*label, *machine);
        }
        sweep
    }

    pub fn kernel(&self, name: &str) -> &SyntheticWorkload {
        self.kernels.iter().find(|k| k.name() == name).unwrap_or(&self.kernels[0])
    }
}

/// CPUs the host offers this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Counts accumulated over ops, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub trace_walks: u64,
    pub segment_walks: u64,
    pub simulate_legs: u64,
    pub warmup_collections: u64,
    pub hits: u64,
    pub disk_hits: u64,
    pub misses: u64,
    pub degraded: u64,
    pub retries: u64,
    pub lock_contended: u64,
    pub bytes_on_disk: u64,
}

impl Counts {
    fn add_sweep(&mut self, c: &SweepCounters) {
        self.trace_walks += c.trace_walks as u64;
        self.segment_walks += c.segment_walks as u64;
        self.simulate_legs += c.simulate_legs as u64;
        self.warmup_collections += c.warmup_collections as u64;
    }

    fn add_cache(&mut self, s: &CacheStats) {
        self.hits += s.memory_hits() + s.disk_hits();
        self.disk_hits += s.disk_hits();
        self.misses +=
            s.profile_misses + s.selection_misses + s.simulated_misses + s.checkpoint_misses;
        self.degraded += s.degraded_loads + s.degraded_stores;
        self.retries += s.retries;
        self.lock_contended += s.lock_contended;
    }

    pub fn add(&mut self, o: &Counts) {
        self.trace_walks += o.trace_walks;
        self.segment_walks += o.segment_walks;
        self.simulate_legs += o.simulate_legs;
        self.warmup_collections += o.warmup_collections;
        self.hits += o.hits;
        self.disk_hits += o.disk_hits;
        self.misses += o.misses;
        self.degraded += o.degraded;
        self.retries += o.retries;
        self.lock_contended += o.lock_contended;
        self.bytes_on_disk += o.bytes_on_disk;
    }
}

/// What one op did.
#[derive(Debug)]
pub struct OpResult {
    /// Time of the op itself (set-up and output check excluded).
    pub elapsed: Duration,
    /// Application instructions the op covered.
    pub instructions: u64,
    /// Why the op failed (an `Err` or a failed output check), if it did.
    pub failure: Option<String>,
    pub counts: Counts,
}

/// Per-workload state built at set-up.
enum State {
    Cold { covered: Vec<u64> },
    Ground { region_instructions: Vec<Vec<u64>>, covered: Vec<u64> },
    Warm { dirs: Vec<PathBuf>, covered: Vec<u64>, bytes_on_disk: Vec<u64> },
}

/// A workload after set-up: its inputs, its references and its state.
pub struct Setup {
    pub env: Env,
    /// The expected serialized output of each op slot.
    expected: Vec<Vec<u8>>,
    state: State,
    /// Ungraded accuracy figures of `cold-sweep`, computed at set-up.
    pub accuracy: Option<Accuracy>,
}

/// Accuracy of the sampled estimates against full detailed simulation.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Mean absolute runtime error over every (kernel, design point), %.
    pub runtime_error_pct: f64,
    /// Share of application instructions simulated in detail, %.
    pub detailed_instr_pct: f64,
    /// Host seconds of full detailed simulation of every (kernel, point).
    pub full_sim_s: f64,
}

fn fail(e: Error) -> String {
    e.to_string()
}

/// Builds `kind`'s inputs and the reference output of every op slot.
pub fn setup(kind: Kind, inputs: &Inputs, work_dir: &Path) -> Result<Setup, String> {
    let env = Env::new(inputs, work_dir);
    let points = env.points.len() as u64;
    let mut expected = Vec::new();
    let mut accuracy = None;
    let state = match kind {
        Kind::ColdSweep => {
            // References through the independent monolithic pipeline, one
            // run per design point, and the full detailed simulation each
            // estimate is judged against.
            let mut covered = Vec::new();
            let (mut errors, mut sampled, mut total, mut full_sim_s) = (Vec::new(), 0, 0, 0.0);
            for kernel in &env.kernels {
                let mut bytes = Vec::new();
                for (i, (_, machine)) in env.points.iter().enumerate() {
                    let outcome = BarrierPoint::new(kernel)
                        .with_execution_policy(env.policy)
                        .with_sim_config(*machine)
                        .run()
                        .map_err(fail)?;
                    if i == 0 {
                        bytes.extend(serde::to_vec(outcome.selection()));
                        sampled += outcome.selection().sampled_instructions();
                        total += outcome.selection().total_instructions();
                        covered.push(outcome.selection().total_instructions() * points);
                    }
                    bytes.extend(leg_bytes(
                        outcome.barrierpoint_metrics(),
                        outcome.reconstruction(),
                    ));
                    let start = Instant::now();
                    let ground = Machine::new(machine).run_full(kernel);
                    full_sim_s += start.elapsed().as_secs_f64();
                    errors.push(
                        prediction_error(&ground, outcome.reconstruction()).runtime_percent_error,
                    );
                }
                expected.push(bytes);
            }
            accuracy = Some(Accuracy {
                runtime_error_pct: errors.iter().sum::<f64>() / errors.len() as f64,
                detailed_instr_pct: sampled as f64 / total as f64 * 100.0,
                full_sim_s,
            });
            State::Cold { covered }
        }
        Kind::GroundTruth => {
            let mut region_instructions = Vec::new();
            let mut covered = Vec::new();
            for kernel in &env.kernels {
                let profile =
                    barrierpoint::profile_application_with(kernel, &env.policy).map_err(fail)?;
                for (_, machine) in &env.points {
                    let run = Machine::new(machine).run_full(kernel);
                    expected.push(serde::to_vec(&run));
                    covered.push(run.total_instructions());
                    region_instructions.push(profile.all_region_instructions());
                }
            }
            State::Ground { region_instructions, covered }
        }
        Kind::WarmResweep => {
            let mut dirs = Vec::new();
            let mut covered = Vec::new();
            for (k, kernel) in env.kernels.iter().enumerate() {
                let dir = work_dir.join(format!("warm-{k}"));
                let report = env.sweep(kernel).with_cache(ArtifactCache::new(&dir)).run();
                let report = report.map_err(fail)?;
                expected.push(report_bytes(&report));
                covered.push(report.selection().total_instructions() * points);
                dirs.push(dir);
            }
            let bytes_on_disk = dirs.iter().map(|dir| dir_bytes(dir)).collect();
            State::Warm { dirs, covered, bytes_on_disk }
        }
    };
    if inputs.inject_mismatch {
        if let Some(byte) = expected.first_mut().and_then(|bytes| bytes.last_mut()) {
            *byte ^= 1;
        }
    }
    Ok(Setup { env, expected, state, accuracy })
}

fn leg_bytes(
    metrics: &barrierpoint::BarrierPointMetrics,
    reconstruction: &barrierpoint::ReconstructedRun,
) -> Vec<u8> {
    serde::to_vec(&(metrics, reconstruction))
}

/// The machine-visible outcome of a sweep: selections and legs (the stage
/// counters differ between cold and warm runs by design).
fn report_bytes(report: &SweepReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    for selection in report.selections() {
        bytes.extend(serde::to_vec(selection));
    }
    for leg in report.legs() {
        bytes.extend(serde::to_vec(leg));
    }
    bytes
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

impl Setup {
    /// Ops in one rotation.
    pub fn slots(&self) -> usize {
        self.expected.len()
    }

    /// FNV-1a digest of every reference output: identical across a
    /// performance-only change.
    pub fn digest(&self) -> u64 {
        let mut hasher = FingerprintHasher::new();
        for bytes in &self.expected {
            hasher.write_bytes(bytes);
        }
        hasher.finish()
    }

    /// Content fingerprints of the kernels built from the seed.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.env.kernels.iter().map(|k| k.profile_fingerprint()).collect()
    }

    fn check(&self, slot: usize, actual: &[u8]) -> Option<String> {
        (actual != self.expected[slot].as_slice())
            .then(|| format!("op slot {slot}: output differs from the set-up reference"))
    }

    /// Runs op `op` (slot `op % slots`).  With an enabled recorder the op is
    /// wrapped in spans; `cold-sweep` then replays the sweep through the
    /// staged API so each stage gets its own span.
    pub fn run_op(&self, op: u64, rec: &mut Recorder) -> OpResult {
        let slot = op as usize % self.slots();
        rec.set_op(op);
        match &self.state {
            State::Cold { covered } => {
                let mut result = if rec.enabled() {
                    self.cold_staged(slot, op, rec)
                } else {
                    self.cold_sweep(slot, op)
                };
                result.instructions = covered[slot];
                result
            }
            State::Ground { region_instructions, covered } => {
                let kernel = &self.env.kernels[slot / self.env.points.len()];
                let machine = &self.env.points[slot % self.env.points.len()].1;
                let start = Instant::now();
                let run = rec.span("op", |rec| {
                    rec.span("sim.run_full", |_| Machine::new(machine).run_full(kernel))
                });
                let elapsed = start.elapsed();
                let regions: Vec<u64> = run.regions().iter().map(|r| r.instructions).collect();
                let failure = self.check(slot, &serde::to_vec(&run)).or_else(|| {
                    (regions != region_instructions[slot]).then(|| {
                        format!("op slot {slot}: region instructions differ from the profile")
                    })
                });
                OpResult {
                    elapsed,
                    instructions: covered[slot],
                    failure,
                    counts: Counts::default(),
                }
            }
            State::Warm { dirs, covered, bytes_on_disk } => {
                let kernel = &self.env.kernels[slot];
                let start = Instant::now();
                let (report, stats) = rec.span("op", |rec| {
                    let cache = rec.span("cache.open", |_| ArtifactCache::new(&dirs[slot]));
                    let report = rec.span("sweep.run", |_| {
                        self.env.sweep(kernel).with_cache(cache.clone()).run()
                    });
                    let stats = cache.stats();
                    rec.span("cache.close", |_| drop(cache));
                    (report, stats)
                });
                let elapsed = start.elapsed();
                let mut counts = Counts { bytes_on_disk: bytes_on_disk[slot], ..Counts::default() };
                counts.add_cache(&stats);
                let failure = match &report {
                    Err(e) => Some(e.to_string()),
                    Ok(report) => {
                        let c = report.counters();
                        counts.add_sweep(&c);
                        self.check(slot, &report_bytes(report)).or_else(|| {
                            (c.simulate_legs + c.trace_walks + c.segment_walks > 0
                                || c.degraded_loads + stats.degraded_loads > 0)
                                .then(|| {
                                    format!("op slot {slot}: warm re-sweep recomputed or degraded")
                                })
                        })
                    }
                };
                OpResult { elapsed, instructions: covered[slot], failure, counts }
            }
        }
    }

    fn op_dir(&self, op: u64) -> PathBuf {
        let dir = self.env.work_dir.join(format!("cold-{op}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One untraced `cold-sweep` op: `Sweep::run` on an empty cache.
    fn cold_sweep(&self, slot: usize, op: u64) -> OpResult {
        let dir = self.op_dir(op);
        let start = Instant::now();
        let cache = ArtifactCache::new(&dir);
        let report = self.env.sweep(&self.env.kernels[slot]).with_cache(cache.clone()).run();
        let stats = cache.stats();
        drop(cache);
        let elapsed = start.elapsed();
        let mut counts = Counts { bytes_on_disk: dir_bytes(&dir), ..Counts::default() };
        counts.add_cache(&stats);
        let failure = match &report {
            Err(e) => Some(e.to_string()),
            Ok(report) => {
                counts.add_sweep(&report.counters());
                let mut bytes = serde::to_vec(report.selection());
                for leg in report.legs() {
                    bytes.extend(leg_bytes(leg.simulated().metrics(), leg.reconstruction()));
                }
                self.check(slot, &bytes)
            }
        };
        let _ = std::fs::remove_dir_all(&dir);
        OpResult { elapsed, instructions: 0, failure, counts }
    }

    /// One traced `cold-sweep` op, replayed through the staged API (profile,
    /// select, then simulate and reconstruct per design point) on an empty
    /// cache, one span per stage.
    fn cold_staged(&self, slot: usize, op: u64, rec: &mut Recorder) -> OpResult {
        let dir = self.op_dir(op);
        let kernel = &self.env.kernels[slot];
        let start = Instant::now();
        let cache = ArtifactCache::new(&dir);
        let outcome = rec.span("op", |rec| -> Result<Vec<u8>, Error> {
            let pipeline = BarrierPoint::new(kernel)
                .with_execution_policy(self.env.policy)
                .with_sim_config(self.env.points[0].1)
                .with_cache(cache.clone());
            let profiled = rec.span("core.profile", |_| pipeline.profile())?;
            let selected = rec.span("core.select", |_| profiled.select())?;
            let mut bytes = serde::to_vec(selected.selection());
            for (_, machine) in &self.env.points {
                let simulated = rec.span("core.simulate", |_| selected.simulate(machine))?;
                let reconstruction = rec.span("core.reconstruct", |_| {
                    reconstruct(
                        selected.selection(),
                        simulated.metrics(),
                        machine.core.frequency_ghz,
                    )
                })?;
                bytes.extend(leg_bytes(simulated.metrics(), &reconstruction));
            }
            Ok(bytes)
        });
        let stats = cache.stats();
        drop(cache);
        let elapsed = start.elapsed();
        let mut counts = Counts { bytes_on_disk: dir_bytes(&dir), ..Counts::default() };
        counts.add_cache(&stats);
        let failure = match outcome {
            Err(e) => Some(e.to_string()),
            Ok(bytes) => self.check(slot, &bytes),
        };
        let _ = std::fs::remove_dir_all(&dir);
        OpResult { elapsed, instructions: 0, failure, counts }
    }
}
