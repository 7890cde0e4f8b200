//! Barrierpoint selection for the BarrierPoint reproduction: pluggable
//! strategies behind one seam, with the paper's SimPoint pipeline as the
//! default backend.
//!
//! # The selection seam
//!
//! Everything above this crate — selection assembly, cache keys, design-space
//! sweeps, reports — is written against [`SelectionStrategy`]: a backend
//! takes a region-indexed view of the signature vectors
//! ([`RegionVectors`](bp_signature::RegionVectors): the distinct
//! [`SignatureVector`](bp_signature::SignatureVector)s plus each region's
//! position among them) and a [`SelectionContext`], and
//! returns a [`Clustering`] (one representative region per cluster with its
//! reconstruction multiplier).  A strategy's cacheable identity is its
//! [`SelectionSpec`], whose serialized bytes double as the strategy
//! fingerprint in persistent cache keys.
//!
//! Two backends ship here:
//!
//! * [`SimPointStrategy`] — the paper's selection (Section III-B and
//!   Table II), and the default everywhere: signature vectors are
//!   normalized, reduced by seeded **random linear projection** to 15
//!   dimensions ([`RandomProjection`]), **weighted k-means** runs for every
//!   candidate cluster count up to `maxK = 20` ([`weighted_kmeans`]), the
//!   **Bayesian Information Criterion** picks the final clustering
//!   ([`bic_score`]), and one representative per cluster is chosen with its
//!   instruction-count multiplier ([`cluster_regions`]).  This is the
//!   from-scratch substitute for the SimPoint 3.2 binary the paper invokes;
//!   its defaults mirror Table II ([`SimPointConfig`]).
//! * [`TwoPhaseStratified`] — a cheap deterministic alternative (after
//!   NVIDIA's two-phase stratified CPU-sampling methodology): phase 1
//!   buckets regions by quantized coarse signature features, phase 2 spreads
//!   a fixed representative budget across the strata in proportion to their
//!   instruction weight ([`TwoPhaseStratifiedConfig`]).  Its selection cost
//!   is linear in regions × dimensions — no k-means sweep — which makes it
//!   the budget-axis counterpoint in the accuracy-vs-cost harness.
//!
//! # Example
//!
//! ```
//! use bp_clustering::{
//!     SelectionContext, SelectionStrategy, SimPointConfig, SimPointStrategy,
//!     TwoPhaseStratified,
//! };
//! use bp_signature::SignatureVector;
//!
//! // Six regions of two behaviours.
//! let vectors = vec![
//!     SignatureVector::new(vec![1.0, 0.0], 100),
//!     SignatureVector::new(vec![0.0, 1.0], 80),
//!     SignatureVector::new(vec![1.0, 0.0], 100),
//!     SignatureVector::new(vec![0.0, 1.0], 80),
//!     SignatureVector::new(vec![1.0, 0.0], 100),
//!     SignatureVector::new(vec![0.0, 1.0], 80),
//! ];
//! let ctx = SelectionContext { threads: 1, total_instructions: 540 };
//!
//! // The default SimPoint backend, capped at two clusters…
//! let simpoint = SimPointStrategy::new(SimPointConfig::default().with_max_k(2));
//! let clustering = simpoint.select((&vectors).into(), &ctx);
//! assert_eq!(clustering.num_clusters(), 2);
//! assert_eq!(clustering.assignment(0), clustering.assignment(2));
//! assert_ne!(clustering.assignment(0), clustering.assignment(1));
//!
//! // …and the stratified backend under the same trait: same two behaviours
//! // found, without any k-means sweep.
//! let stratified = TwoPhaseStratified::with_budget(2);
//! assert_eq!(stratified.select((&vectors).into(), &ctx).num_clusters(), 2);
//! assert_ne!(simpoint.fingerprint(), stratified.fingerprint());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bic;
mod kmeans;
mod projection;
mod simpoint;
mod strategy;

pub use bic::bic_score;
pub use kmeans::{weighted_kmeans, KMeansResult};
pub use projection::RandomProjection;
pub use simpoint::{cluster_regions, ClusterSummary, Clustering, SimPointConfig};
pub use strategy::{
    SelectionContext, SelectionSpec, SelectionStrategy, SimPointStrategy, TwoPhaseStratified,
    TwoPhaseStratifiedConfig,
};
