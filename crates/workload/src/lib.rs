//! Synthetic barrier-synchronized multi-threaded workload models.
//!
//! The BarrierPoint paper instruments real NPB / PARSEC binaries with a Pin
//! tool to obtain, for every *inter-barrier region*, each thread's dynamic
//! basic-block stream and memory-reference stream.  This crate provides the
//! equivalent substrate without binary instrumentation: deterministic,
//! phase-structured workload models that emit exactly those streams.
//!
//! The central abstraction is the [`Workload`] trait.  A workload exposes a
//! fixed number of inter-barrier regions (the code executed between two
//! consecutive global barriers) and, for every `(region, thread)` pair, an
//! iterator of [`BlockExecution`]s — a basic block execution together with the
//! memory accesses it performs.  Downstream crates consume these streams to
//! build signatures (`bp-signature`), to drive timing simulation (`bp-sim`)
//! and to collect warmup data (`bp-warmup`).
//!
//! Profiling and MRU warmup collection both read each thread's LRU stack:
//! profiling needs each access's stack distance, MRU collection the stack's
//! most recent lines.  [`RecencyEngine`] keeps that stack once per thread —
//! one hash-map entry per line, a timestamp bitset with a Fenwick tree of
//! per-word popcounts, and an optional MRU window on top — so a walk that
//! collects both finds each access's stack position once.  Its two checkpoint images let a thread's walk resume at a
//! region boundary ([`CheckpointError`] when an image does not fit).  The
//! walk itself — which regions, which outputs, on which workers — belongs to
//! `bp-core`.
//!
//! The [`kernels`] module contains models of the benchmarks evaluated in the
//! paper (NPB bt, cg, ft, is, lu, mg, sp and PARSEC bodytrack), matching their
//! dynamic barrier counts (Figure 1 / Table III) and their qualitative phase
//! structure.  The [`SyntheticWorkload`] engine underneath is fully
//! data-driven, so custom workloads can be assembled with
//! [`SyntheticWorkloadBuilder`].
//!
//! # Example
//!
//! ```
//! use bp_workload::{Benchmark, WorkloadConfig, Workload};
//!
//! let config = WorkloadConfig::new(8).with_scale(0.1);
//! let workload = Benchmark::NpbCg.build(&config);
//! assert_eq!(workload.num_threads(), 8);
//! assert_eq!(workload.num_regions(), 46);
//!
//! // Stream the block executions of thread 0 in region 3.
//! let instructions: u64 = workload
//!     .region_trace(3, 0)
//!     .map(|exec| u64::from(exec.instructions))
//!     .sum();
//! assert!(instructions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod block;
pub mod kernels;
mod phase;
mod recency;
mod region;
mod synthetic;
mod workload;

pub use access::{AccessKind, MemoryAccess, CACHE_LINE_BYTES};
pub use block::{BasicBlock, BasicBlockId, BlockTable};
pub use kernels::suite::Benchmark;
pub use phase::{AccessPattern, Phase, PhaseBlock, PhaseId, ScheduleEntry};
pub use recency::{CheckpointError, RecencyEngine, Residency, Touch};
pub use region::{BlockExecution, RegionTrace};
pub use synthetic::{SyntheticWorkload, SyntheticWorkloadBuilder};
pub use workload::{FingerprintHasher, Workload, WorkloadConfig};
