//! Microarchitectural state reconstruction (warmup) for sampled simulation.
//!
//! Detailed simulation of a barrierpoint must start from a realistic cache
//! state, otherwise the cold-start error dominates.  Section IV of the paper
//! discusses the design space and proposes a middle ground: record, per core,
//! the **most recently used unique cache lines** (bounded by the total
//! last-level-cache capacity visible to a core) during the profiling run, and
//! replay them in access order before simulating the barrierpoint.  The
//! replay is not timed line by line: [`apply_warmup`] installs the state it
//! leaves with [`bp_mem::MemoryHierarchy::install`].
//!
//! This crate implements that technique plus the baselines it is compared
//! against:
//!
//! * [`WarmupStrategy::Cold`] — no warmup (worst case),
//! * [`WarmupStrategy::FunctionalReplay`] — replay *all* memory accesses of
//!   every earlier region (accurate but cost proportional to the skipped
//!   instruction count — the limitation BarrierPoint wants to avoid),
//! * [`WarmupStrategy::MruReplay`] — the paper's proposal
//!   ([`MruWarmupData`], collected with one [`IntervalRecorder`] per thread
//!   whose [`MruSnapshotBank`] serves several LLC capacities from one walk
//!   by truncating at the largest requested capacity; `bp-core` schedules
//!   those walks).
//!
//! Collection reads `bp-workload`'s recency engine
//! ([`bp_workload::RecencyEngine`]), the one LRU stack a thread's walk
//! keeps.  The engine keeps the thread's LRU stack with an MRU window on
//! top: the collection capacity's most recent lines, each with its access
//! order and dirty depth.  The [`IntervalRecorder`] reads the engine's
//! touches and records the window *by residency interval* — one record per
//! cache line per span of consecutive boundaries over which that line sat
//! untouched in the window, rather than a full raw snapshot at every
//! boundary.  A line's recorded `(access order, dirty depth)` pair can only
//! change at its own accesses, so one interval record reproduces the line's
//! contribution to every boundary it covers; bank size therefore scales
//! with the eviction/write *activity* between boundaries instead of
//! `boundaries × capacity`.  [`MruSnapshotBank`] reconstructs any
//! boundary's raw snapshot from the interval records and assembles
//! [`MruWarmupData`] for any boundary subset at any capacity up to the
//! collection capacity — bit-identical to a dedicated list of that many
//! lines per thread, which is what the workspace's integration tests check
//! it against.  The walk that feeds the recorders is bp-core's trace walk:
//! it runs one engine per thread and feeds both the recorder and
//! `bp-signature`'s profile accumulator from it, and an MRU-only walk stops
//! after its last boundary.  A windowed line's recency depth is its stack
//! distance, so the capacity-dependent dirty bit costs no order statistic
//! beyond the profiler's own.
//!
//! # Example
//!
//! ```
//! use bp_mem::{MemoryConfig, MemoryHierarchy};
//! use bp_warmup::{apply_warmup, IntervalRecorder, MruSnapshotBank, WarmupStrategy};
//! use bp_workload::{Benchmark, RecencyEngine, Workload, WorkloadConfig};
//!
//! let workload = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
//! let config = MemoryConfig::scaled();
//! // Warmup data for barrierpoint (region) 5, bounded by the LLC capacity.
//! let capacity = config.llc_total_lines(4);
//! let recorders = (0..workload.num_threads())
//!     .map(|thread| {
//!         let mut engine = RecencyEngine::with_window(capacity);
//!         let mut recorder = IntervalRecorder::new(&[5], capacity);
//!         for region in 0..workload.num_regions() {
//!             recorder.enter_region(&mut engine, region);
//!             if !recorder.wants_more() {
//!                 break;
//!             }
//!             for exec in workload.region_trace(region, thread) {
//!                 for access in &exec.accesses {
//!                     recorder.touched(&engine.touch(access.line(), access.kind.is_write()));
//!                 }
//!             }
//!         }
//!         vec![recorder]
//!     })
//!     .collect();
//! let warmup = MruSnapshotBank::from_recorders(recorders).assemble(&[5], capacity);
//! let mut hierarchy = MemoryHierarchy::new(&config, 4);
//! apply_warmup(&mut hierarchy, &workload, &WarmupStrategy::MruReplay(&warmup[&5]));
//! assert!(hierarchy.stats().data_accesses == 0); // statistics were reset
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod mru;
mod strategy;

pub use apply::apply_warmup;
pub use mru::{IntervalRecorder, MruSnapshotBank, MruWarmupData};
pub use strategy::WarmupStrategy;
