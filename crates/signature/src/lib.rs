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
//!   ([`Ldv`]).
//!
//! Per-thread vectors are normalized individually and *concatenated* (not
//! summed) into a single [`SignatureVector`] per region, so heterogeneous
//! thread behaviour remains visible to the clustering step.  The
//! [`SignatureKind`] and [`LdvWeighting`] options reproduce the seven
//! configurations compared in Figure 5 (`bbv`, `reuse_dist`,
//! `reuse_dist-1_2`, `reuse_dist-1_5`, `combine`, `combine-1_2`,
//! `combine-1_5`).
//!
//! The reproduction's substitute for the paper's Pin-based profiler is a
//! *thread-major* walk: each workload thread's entire trace (all regions,
//! in program order) feeds one [`ProfileAccumulator`], which reads each
//! access's stack distance from `bp-workload`'s recency engine
//! ([`bp_workload::RecencyEngine`]) — one LRU stack per thread, carried
//! across regions — and [`zip_thread_profiles`] zips the per-thread streams
//! back into per-region signatures.  Each distinct signature is stored once:
//! a [`PerRegion`] table holds the distinct values in order of first
//! occurrence plus every region's position among them, and selection reads
//! the assembled vectors through the same index ([`RegionVectors`]).
//! Because the per-thread state is independent across threads, the walks
//! can run on separate OS threads.  A fused cold pass feeds the accumulator and `bp-warmup`'s MRU interval
//! recorder from one engine per thread, so the walk finds each access's LRU
//! stack position once.  The engine checkpoints the carried state, so a
//! thread's walk can be split into segments that [`concat_thread_profiles`]
//! stitches.  The walks themselves — which outputs, which threads, on which
//! workers — are scheduled by `bp-core`.
//!
//! # Example
//!
//! ```
//! use bp_signature::{zip_thread_profiles, ProfileAccumulator, SignatureConfig};
//! use bp_workload::{Benchmark, RecencyEngine, Workload, WorkloadConfig};
//!
//! let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.05));
//! let profiles = (0..workload.num_threads())
//!     .map(|thread| {
//!         let mut engine = RecencyEngine::new();
//!         let mut profile = ProfileAccumulator::new(&workload, thread);
//!         for region in 0..workload.num_regions() {
//!             for exec in workload.region_trace(region, thread) {
//!                 profile.block(&exec);
//!                 for access in &exec.accesses {
//!                     let touch = engine.touch(access.line(), access.kind.is_write());
//!                     profile.distance(touch.distance);
//!                 }
//!             }
//!             profile.finish_region();
//!         }
//!         profile.into_profile()
//!     })
//!     .collect();
//! let signatures = zip_thread_profiles(profiles);
//! assert_eq!(signatures.len(), workload.num_regions());
//! let vector = signatures.get(0).assemble(&SignatureConfig::combined());
//! assert!(!vector.values().is_empty());
//! assert!(signatures.get(0).total_instructions() > 0);
//! // The regions repeat a few phases: each distinct signature is stored once.
//! assert!(signatures.distinct().len() < signatures.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbv;
mod collector;
mod config;
mod ldv;
mod per_region;
mod streaming;
mod vector;

pub use bbv::Bbv;
pub use collector::RegionSignature;
pub use config::{LdvWeighting, SignatureConfig, SignatureKind};
pub use ldv::{Ldv, LDV_BUCKETS};
pub use per_region::{PerRegion, RegionVectors};
pub use streaming::{
    concat_thread_profiles, zip_thread_profiles, ProfileAccumulator, ThreadProfile,
};
pub use vector::SignatureVector;
