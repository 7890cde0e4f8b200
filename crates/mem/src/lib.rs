//! Multi-core memory hierarchy substrate for the BarrierPoint reproduction.
//!
//! The BarrierPoint paper evaluates its sampling methodology on the Sniper
//! simulator configured as in Table I: per-core L1 instruction and data
//! caches, per-core L2 caches, an L3 cache shared by the eight cores of a
//! socket, an MSI directory coherence protocol, and a simple DRAM model.
//! This crate implements that hierarchy from scratch:
//!
//! * [`Cache`] — a set-associative, true-LRU cache with per-line MSI state,
//! * [`SharedCache`] — an inclusive last-level cache with an embedded
//!   directory tracking per-core sharers and the modified owner,
//! * [`MemoryHierarchy`] — the full multi-socket hierarchy that routes a
//!   core's loads, stores and instruction fetches through the levels,
//!   maintains coherence, and reports access latency and DRAM traffic,
//! * [`MemoryHierarchy::install`] — the state a stream of data accesses
//!   leaves in cleared caches, written into the hierarchy's caches without
//!   the timing model (MRU warmup installs its replay this way), and
//!   [`MemoryHierarchy::canonical_state`] — a hierarchy's contents in a form
//!   in which two hierarchies that compare equal behave alike from then on.
//!
//! Both cache types store their sets in one structure: a table whose sets
//! keep their valid lines packed at the front, beside each line's MSI state
//! or directory entry and last-touch time.  A lookup scans only the valid
//! lines' addresses, and only an eviction scans the touch times.
//!
//! Two stock configurations are provided: [`MemoryConfig::table1`], the
//! paper's machine, and [`MemoryConfig::scaled`], a proportionally scaled-down
//! hierarchy matched to the scaled-down synthetic workloads of `bp-workload`
//! (see DESIGN.md for the substitution rationale).
//!
//! # Example
//!
//! ```
//! use bp_mem::{MemoryConfig, MemoryHierarchy};
//!
//! let config = MemoryConfig::scaled();
//! let mut hierarchy = MemoryHierarchy::new(&config, 8);
//! let cold = hierarchy.access(0, 0x1000, false);
//! let warm = hierarchy.access(0, 0x1000, false);
//! assert!(cold.latency > warm.latency);
//! assert!(cold.dram_access && !warm.dram_access);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod sets;
mod shared_cache;
mod stats;

/// The most cores a [`MemoryHierarchy`] models: the directory keeps each
/// line's sharers in one 64-bit mask.
pub const MAX_CORES: usize = 64;

pub use cache::{Cache, EvictedLine, LineState};
pub use config::{CacheConfig, MemoryConfig};
pub use hierarchy::{AccessResult, CanonicalState, MemoryHierarchy, ServiceLevel};
pub use shared_cache::{DirEntry, EvictedShared, SharedCache};
pub use stats::MemoryStats;
