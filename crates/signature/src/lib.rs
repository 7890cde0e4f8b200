//! Microarchitecture-independent region signatures for BarrierPoint.
//!
//! Section III-A of the paper characterizes every inter-barrier region with
//! two kinds of per-thread signatures collected by a Pintool:
//!
//! * **Basic Block Vectors (BBVs)** — the dynamic instruction count
//!   contributed by each static basic block ([`Bbv`]),
//! * **LRU stack distance vectors (LDVs)** — a power-of-two histogram of the
//!   reuse distances (number of distinct cache lines touched between two
//!   accesses to the same line) of the region's memory references
//!   ([`Ldv`], computed exactly by [`StackDistanceTracker`]).
//!
//! Per-thread vectors are normalized individually and *concatenated* (not
//! summed) into a single [`SignatureVector`] per region, so heterogeneous
//! thread behaviour remains visible to the clustering step.  The
//! [`SignatureKind`] and [`LdvWeighting`] options reproduce the seven
//! configurations compared in Figure 5 (`bbv`, `reuse_dist`,
//! `reuse_dist-1_2`, `reuse_dist-1_5`, `combine`, `combine-1_2`,
//! `combine-1_5`).
//!
//! [`ApplicationProfiler`] runs a `bp-workload` application's region
//! traces through the collectors region-major, with continuous
//! reuse-distance tracking — the reproduction's substitute for the paper's
//! Pin-based profiler, and the oracle the pipeline's walk is tested against.
//!
//! The whole-application walk the pipeline runs is *thread-major*: each
//! workload thread's entire trace (all regions, in program order) feeds one
//! [`ProfileAccumulator`] from `bp-workload`'s recency engine
//! ([`bp_workload::RecencyEngine`]), and [`zip_thread_profiles`] zips the
//! per-thread streams back into per-region signatures.  Because the
//! per-thread state is independent across threads, the walks can run on
//! separate OS threads and still match [`ApplicationProfiler`] bit for bit.
//! A fused cold pass feeds the accumulator and `bp-warmup`'s MRU interval
//! recorder from one engine per thread, so the walk finds each access's LRU
//! stack position once.  The engine checkpoints the carried state, so a
//! thread's walk can be split into segments that [`concat_thread_profiles`]
//! stitches.  The walks themselves — which outputs, which threads, on which
//! workers — are scheduled by `bp-core`.
//!
//! # Example
//!
//! ```
//! use bp_workload::{Benchmark, WorkloadConfig, Workload};
//! use bp_signature::{ApplicationProfiler, SignatureConfig};
//!
//! let workload = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.05));
//! let sig = ApplicationProfiler::new(&workload).profile_region(&workload, 0);
//! let vector = sig.assemble(&SignatureConfig::combined());
//! assert!(!vector.values().is_empty());
//! assert!(sig.total_instructions() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbv;
mod collector;
mod config;
mod ldv;
mod stack_distance;
mod streaming;
mod vector;

pub use bbv::Bbv;
pub use collector::{ApplicationProfiler, RegionSignature};
pub use config::{LdvWeighting, SignatureConfig, SignatureKind};
pub use ldv::{Ldv, LDV_BUCKETS};
pub use stack_distance::StackDistanceTracker;
pub use streaming::{
    concat_thread_profiles, zip_thread_profiles, ProfileAccumulator, ThreadProfile,
};
pub use vector::SignatureVector;
