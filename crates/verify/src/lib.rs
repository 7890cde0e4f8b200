//! `bp-verify` — in-repo verification tooling for the BarrierPoint
//! concurrency core.
//!
//! Two halves:
//!
//! * **A bounded exhaustive-interleaving model checker** in the loom
//!   tradition ([`check`], [`check_with`], [`try_check_with`]): modeled
//!   [`sync::AtomicU64`]/[`sync::AtomicUsize`]/[`sync::Mutex`] types and
//!   [`thread::spawn`] driven by a deterministic scheduler that enumerates
//!   thread interleavings — depth-first search over preemption points,
//!   bounded preemptions, optional state-hash pruning.  The modeled types
//!   fall back to plain `std::sync` behaviour outside a model run, so code
//!   compiled against them runs normally under the ordinary test suite and
//!   exhaustively under [`check`].
//! * **A source-scanning repo lint** ([`lint`], shipped as the `bp-lint`
//!   binary): enforces the concurrency hygiene rules the checker cannot —
//!   every `Ordering::` argument in the concurrency core justified by an
//!   `// ordering:` comment, no `unwrap()`/`expect()` in library code, a
//!   `#![forbid(unsafe_code)]` in every crate root, and no direct
//!   `std::sync` imports in modules ported to the modeled abstraction.
//!   `bp-lint --count` measures code size instead: each crate's non-test
//!   lines and public items ([`lint::count`]).
//!
//! The crate is dependency-free and is pulled in only through the `model`
//! cargo feature of `bp-exec`/`bp-core` (a dev-dependency path), so release
//! builds of the workspace never compile it.
//!
//! # Example
//!
//! ```
//! use bp_verify::{check, sync::{Arc, AtomicU64, Ordering}, thread};
//!
//! // Two racing increments: under every interleaving the final value is 2,
//! // because fetch_add is atomic.  (A load-then-store would fail here.)
//! let report = check(|| {
//!     let counter = Arc::new(AtomicU64::new(0));
//!     let c2 = counter.clone();
//!     let t = thread::spawn(move || {
//!         c2.fetch_add(1, Ordering::Relaxed);
//!     });
//!     counter.fetch_add(1, Ordering::Relaxed);
//!     t.join().ok();
//!     assert_eq!(counter.load(Ordering::Relaxed), 2);
//! });
//! assert!(report.complete);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
mod scheduler;
pub mod sync;
pub mod thread;

pub use scheduler::{check, check_with, try_check_with};
pub use scheduler::{ModelOptions, Report, Violation, ViolationKind};
