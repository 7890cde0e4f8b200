//! # BarrierPoint — sampled simulation of multi-threaded applications
//!
//! This crate is the top of the BarrierPoint reproduction (Carlson, Heirman,
//! Van Craeynest, Eeckhout — ISPASS 2014).  It implements the complete
//! methodology of Figure 2 of the paper as a **staged, artifact-typed
//! pipeline** on top of the substrate crates:
//!
//! 1. **Profile** ([`BarrierPoint::profile`] → [`Profiled`]) — collect
//!    microarchitecture-independent signatures (BBVs and LRU stack distance
//!    vectors) for every inter-barrier region
//!    ([`ApplicationProfile`]; signatures from `bp-signature`, workload
//!    models from `bp-workload`).  Profiling is *thread-major*: each
//!    workload thread's full trace streams on its own OS thread under the
//!    pipeline's [`ExecutionPolicy`], bit-identical to serial profiling.
//! 2. **Select** ([`Profiled::select`] → [`Selected`]) — pick one
//!    representative region per behaviour cluster, the *barrierpoint*, with
//!    its instruction-count multiplier ([`BarrierPointSelection`]).  The
//!    backend is pluggable ([`SelectionStrategy`] from `bp-clustering`,
//!    default [`SimPointStrategy`] — the paper's SimPoint pipeline;
//!    [`TwoPhaseStratified`] is the cheap stratified alternative), and a
//!    strategy's fingerprint keys its selections in the cache and in sweep
//!    deduplication.
//! 3. **Simulate** ([`Selected::simulate`] → [`Simulated`]) — run only the
//!    barrierpoints in detailed simulation on one machine configuration,
//!    after MRU-replay warmup (or any other [`WarmupKind`]), and
//!    **reconstruct** the whole-application estimate from the samples
//!    ([`ReconstructedRun`]).
//!
//! Each stage is an explicit, serializable artifact.  The profile and the
//! selection are machine-independent (Section III / Figure 6), so one
//! [`Selected`] fans out to any number of [`Selected::simulate`] legs —
//! and [`Sweep`] packages that fan-out: given N machine configurations it
//! walks each per-thread trace **once** (the fused cold pass,
//! [`profile_and_collect_warmup`], feeds the signature profiler and the
//! MRU warmup collector from one trace generation; legs differing in LLC
//! capacity share it too, smaller capacities falling out by truncation),
//! clusters once, and simulates the legs in parallel under one shared,
//! work-stealing [`WorkerBudget`] ([`SweepReport`] — whose
//! [`SweepCounters::trace_walks`] pins the single-walk economy).  An
//! [`ArtifactCache`] keeps all
//! three artifact kinds — profiles, selections *and* simulated legs — in
//! two tiers: an in-process memory tier of decoded, `Arc`-shared artifacts
//! (a hit is a pointer clone) in front of an on-disk tier of serialized
//! entries (each with its own LRU size bounding, and per-tier hit/miss
//! accounting).  The amortization therefore extends across processes, and
//! repeated sweeps over overlapping configuration matrices are fully
//! incremental: a warm re-sweep executes zero simulate legs — in the same
//! process, it performs zero disk reads altogether.
//!
//! Every trace walk the pipeline runs — profiling, the fused cold pass,
//! warmup collection, checkpoint emission and checkpoint-resumed segment
//! walks — is one [`TraceWalk`] request: it names the outputs and where
//! each thread starts, and the segment scheduler fans it out under an
//! [`ExecutionPolicy`] and optional [`WorkerBudget`].  Likewise each stage
//! has one implementation, shared by the staged chain and [`Sweep`]: both
//! probe and store the cache the same way, and with a cache attached a
//! cold fused profile stores region-segment checkpoints that every later
//! walk of the same workload content resumes from.
//!
//! The [`evaluate`] module adds everything needed to reproduce the paper's
//! evaluation (prediction errors, cross-core-count validation, relative
//! scaling, speedup and resource-reduction accounting); the `bp-bench`
//! crate renders the paper-style tables and figures from it.
//!
//! ## Quick start
//!
//! ```
//! use barrierpoint::BarrierPoint;
//! use bp_sim::SimConfig;
//! use bp_workload::{Benchmark, WorkloadConfig};
//!
//! // A small CG run; stages are explicit artifacts.
//! let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.02));
//! let selected = BarrierPoint::new(&workload).profile()?.select()?;
//! let simulated = selected.simulate(&SimConfig::scaled(4))?;
//!
//! println!(
//!     "{} barrierpoints estimate {:.3} ms of execution time",
//!     selected.selection().num_barrierpoints(),
//!     simulated.reconstruction().execution_time_seconds() * 1e3,
//! );
//! # Ok::<(), barrierpoint::Error>(())
//! ```
//!
//! The one-call convenience wrapper is still there:
//!
//! ```
//! use barrierpoint::{BarrierPoint, WarmupKind};
//! use bp_workload::{Benchmark, WorkloadConfig};
//!
//! let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.02));
//! let outcome = BarrierPoint::new(&workload).with_warmup(WarmupKind::MruReplay).run()?;
//! assert!(outcome.reconstruction().execution_time_seconds() > 0.0);
//! # Ok::<(), barrierpoint::Error>(())
//! ```
//!
//! ## Design-space sweeps
//!
//! [`Sweep`] turns the amortization economy into one call — one workload,
//! one selection, many machine configurations — and the staged chain's
//! [`Selected::simulate_on`] carries that selection to the benchmark
//! rebuilt at another core count (a miniature Figure 6):
//!
//! ```
//! use barrierpoint::{BarrierPoint, Sweep};
//! use bp_sim::SimConfig;
//! use bp_workload::{Benchmark, WorkloadConfig};
//!
//! let w2 = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
//! let w4 = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
//! let base = SimConfig::scaled(2);
//! let mut small_llc = base;
//! small_llc.memory.l3.size_bytes /= 2;
//!
//! let report = Sweep::new(&w2)
//!     .add_config("base", base)
//!     .add_config("small-llc", small_llc)
//!     .run()?;
//!
//! assert_eq!(report.counters().profile_passes, 1);    // profiled once,
//! assert_eq!(report.counters().clustering_passes, 1); // clustered once,
//! assert_eq!(report.legs().len(), 2);                 // simulated per config.
//!
//! // The same selection drives the 4-thread build on a 4-core machine.
//! let selected = BarrierPoint::new(&w2).profile()?.select()?;
//! assert_eq!(selected.selection(), report.selection());
//! let leg = selected.simulate_on(&w4, &SimConfig::scaled(4))?;
//! assert!(leg.reconstruction().execution_time_seconds() > 0.0);
//! # Ok::<(), barrierpoint::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
pub mod evaluate;
mod memtier;
mod pipeline;
mod profile;
mod reconstruct;
mod segment;
mod select;
mod simulate;
mod stages;
pub mod storage;
mod sweep;

pub use cache::{
    ArtifactCache, CacheStats, CheckpointCacheKey, ProfileCacheKey, SelectionCacheKey,
    SimulatedCacheKey,
};
pub use error::{classify_io_error, Error, IoErrorClass};
pub use pipeline::{BarrierPoint, BarrierPointOutcome};
pub use profile::{
    profile_and_collect_warmup, profile_application_budgeted, profile_application_with,
    ApplicationProfile,
};
pub use reconstruct::{reconstruct, reconstruct_with_mode, ReconstructedRun, ScalingMode};
pub use segment::{
    profile_application_segmented, MruBoundaries, TraceWalk, WalkOutput, WorkloadCheckpoints,
    DEFAULT_SEGMENTS,
};
pub use select::{
    select_barrierpoints, select_barrierpoints_with, BarrierPointInfo, BarrierPointSelection,
    SIGNIFICANCE_THRESHOLD,
};
pub use simulate::{simulate_barrierpoints, BarrierPointMetrics, WarmupKind};
pub use stages::{Profiled, Selected, Simulated};
pub use storage::{DirEntryInfo, Fault, FaultFs, FaultOp, RealFs, Storage};
pub use sweep::{Sweep, SweepCounters, SweepLeg, SweepReport, SweepSelection};

// Re-export the substrate configuration types users need to drive the API.
pub use bp_clustering::{
    SelectionContext, SelectionSpec, SelectionStrategy, SimPointConfig, SimPointStrategy,
    TwoPhaseStratified, TwoPhaseStratifiedConfig,
};
pub use bp_exec::{ExecutionPolicy, WorkerBudget};
pub use bp_signature::{LdvWeighting, SignatureConfig, SignatureKind};
pub use bp_sim::SimConfig;
