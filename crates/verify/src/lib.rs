//! `bp-verify` — the repo lint for the BarrierPoint workspace.
//!
//! A source-scanning lint ([`lint`], shipped as the `bp-lint` binary)
//! enforces the rules the compiler cannot: every `Ordering::` argument in
//! the concurrency core justified by an `// ordering:` comment, no
//! `unwrap()`/`expect()` in library code, a `#![forbid(unsafe_code)]` in
//! every crate root, disk I/O in the artifact cache only through its
//! `Storage` seam, and each trace walk and cache probe in bp-core in the one
//! module that owns it.  `bp-lint --count` measures code size instead: each
//! crate's non-test lines and public items ([`lint::count`]).
//!
//! The crate is dependency-free and nothing in the workspace depends on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
