//! The barrierpoint-selection seam: a [`SelectionStrategy`] turns per-region
//! signature vectors into a [`Clustering`], and every layer above (selection
//! assembly, cache keys, sweeps, reports) is written against the trait
//! instead of against SimPoint's parameters.
//!
//! Two backends ship with the crate:
//!
//! * [`SimPointStrategy`] — the paper's k-means/BIC pipeline
//!   ([`cluster_regions`]), and the default everywhere.
//! * [`TwoPhaseStratified`] — a cheap stratified-sampling alternative:
//!   phase 1 buckets regions by coarse signature features, phase 2 spreads a
//!   fixed representative budget across the strata proportionally to their
//!   instruction weight.
//!
//! A strategy's identity for caching purposes is its [`SelectionSpec`] — a
//! serializable value whose encoding doubles as the strategy fingerprint.
//! The spec's serialization is carefully arranged so that the default
//! SimPoint spec encodes byte-identically to a bare [`SimPointConfig`]:
//! cache entries written before the strategy seam existed keep their file
//! names and contents, so a warm artifact cache stays warm across the
//! refactor (see [`SelectionSpec`]'s serialization notes).

use crate::simpoint::{cluster_regions, ClusterSummary, Clustering, SimPointConfig};
use bp_signature::RegionVectors;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// FNV-1a over `bytes` — the same function (and constants) as
/// `bp_workload::FingerprintHasher`, inlined because this crate sits below
/// `bp-workload` in the dependency graph.  Both are stable by contract:
/// fingerprints derived here key on-disk cache entries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Profile-level context handed to a [`SelectionStrategy`] alongside the
/// signature vectors.  Strategies are free to ignore it; it exists so the
/// trait does not need to grow a parameter for every new backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionContext {
    /// Thread count of the profiling run the vectors were collected from.
    pub threads: usize,
    /// Aggregate instruction count over all regions and threads.
    pub total_instructions: u64,
}

/// A pluggable barrierpoint-selection backend: clusters per-region signature
/// vectors and picks one representative per cluster.
///
/// The contract mirrors [`cluster_regions`]: every region must be assigned
/// to exactly one returned cluster, weight fractions must sum to 1, and the
/// multiplier-weighted representative instruction counts must reconstruct
/// the application total — the reconstruction layer depends on it.
///
/// Selection determinism is part of the contract too: for equal inputs and
/// an equal [`SelectionSpec`], `select` must return an identical
/// [`Clustering`] on every run, because the fingerprint derived from the
/// spec keys persistent cache entries holding the output.
pub trait SelectionStrategy: fmt::Debug + Send + Sync {
    /// Short stable identifier (used in sweep labels and reports).
    fn name(&self) -> &'static str;

    /// Clusters the regions' vectors and chooses representatives.
    ///
    /// `vectors` is region-indexed: every region reads its vector through
    /// it, and a backend may work on the distinct vectors once each.
    ///
    /// # Panics
    ///
    /// May panic if `vectors` is empty (callers filter empty profiles out
    /// before reaching the strategy).
    fn select(&self, vectors: RegionVectors<'_>, ctx: &SelectionContext) -> Clustering;

    /// The serializable identity of this strategy instance.
    fn spec(&self) -> SelectionSpec;

    /// The bytes that identify this strategy in cache keys.  The default —
    /// the serialized [`SelectionSpec`] — is correct for every backend; it
    /// is a separate method (rather than hashing internally) so callers can
    /// compose the bytes into a larger fingerprint without double-hashing.
    fn fingerprint_bytes(&self) -> Vec<u8> {
        serde::to_vec(&self.spec())
    }

    /// A stable 64-bit fingerprint of the strategy (FNV-1a over
    /// [`fingerprint_bytes`](Self::fingerprint_bytes)).
    fn fingerprint(&self) -> u64 {
        fnv1a(&self.fingerprint_bytes())
    }
}

/// The serializable identity of a selection strategy: which backend, with
/// which parameters.
///
/// # Serialization
///
/// The encoding is **not** the derive's variant-index layout.  To keep
/// cache entries written before the strategy seam valid, the
/// [`SelectionSpec::SimPoint`] variant encodes as the raw
/// [`SimPointConfig`] fields — byte-identical to serializing the config
/// directly, which is what both the selection artifact and the selection
/// cache key did historically.  Other variants are distinguished by a
/// sentinel first word: `u64::MAX` is an impossible value for
/// `projected_dimensions` (the config's first field), so a reader can
/// branch on the first 8 bytes without any framing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionSpec {
    /// The paper's k-means/BIC SimPoint selection.
    SimPoint(SimPointConfig),
    /// Two-phase stratified sampling.
    TwoPhaseStratified(TwoPhaseStratifiedConfig),
}

/// Sentinel first word marking a non-SimPoint [`SelectionSpec`] encoding.
const SPEC_SENTINEL: u64 = u64::MAX;
/// Variant tag following the sentinel: two-phase stratified sampling.
const SPEC_TAG_TWO_PHASE: u64 = 1;

impl Serialize for SelectionSpec {
    fn serialize(&self, out: &mut Serializer) {
        match self {
            // Raw config fields, no prefix: byte-identical to the
            // pre-seam encoding of a bare SimPointConfig.
            SelectionSpec::SimPoint(config) => config.serialize(out),
            SelectionSpec::TwoPhaseStratified(config) => {
                out.write_u64(SPEC_SENTINEL);
                out.write_u64(SPEC_TAG_TWO_PHASE);
                config.serialize(out);
            }
        }
    }
}

impl Deserialize for SelectionSpec {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        let first = de.read_u64()?;
        if first == SPEC_SENTINEL {
            match de.read_u64()? {
                SPEC_TAG_TWO_PHASE => Ok(SelectionSpec::TwoPhaseStratified(
                    TwoPhaseStratifiedConfig::deserialize(de)?,
                )),
                tag => {
                    Err(serde::Error::custom(format!("invalid SelectionSpec variant tag {tag}")))
                }
            }
        } else {
            // `first` is the projected_dimensions field of a raw
            // SimPointConfig encoding; read the remaining four fields.
            Ok(SelectionSpec::SimPoint(SimPointConfig {
                projected_dimensions: first as usize,
                max_k: usize::deserialize(de)?,
                bic_threshold: f64::deserialize(de)?,
                kmeans_iterations: usize::deserialize(de)?,
                seed: u64::deserialize(de)?,
            }))
        }
    }
}

impl SelectionSpec {
    /// The owning strategy's short name.
    pub fn name(&self) -> &'static str {
        match self {
            SelectionSpec::SimPoint(_) => "simpoint",
            SelectionSpec::TwoPhaseStratified(_) => "two-phase-stratified",
        }
    }

    /// The SimPoint parameters, when this spec is the default backend.
    pub fn simpoint_config(&self) -> Option<&SimPointConfig> {
        match self {
            SelectionSpec::SimPoint(config) => Some(config),
            SelectionSpec::TwoPhaseStratified(_) => None,
        }
    }

    /// Rebuilds the strategy this spec describes (e.g. from a deserialized
    /// selection artifact).
    pub fn to_strategy(&self) -> Box<dyn SelectionStrategy> {
        match self {
            SelectionSpec::SimPoint(config) => Box::new(SimPointStrategy::new(*config)),
            SelectionSpec::TwoPhaseStratified(config) => Box::new(TwoPhaseStratified::new(*config)),
        }
    }

    /// The strategy's parameters as `(name, value)` rows, for reports.
    pub fn parameters(&self) -> Vec<(&'static str, String)> {
        match self {
            SelectionSpec::SimPoint(c) => vec![
                ("projected dimensions (-dim)", c.projected_dimensions.to_string()),
                ("maxK", c.max_k.to_string()),
                ("BIC threshold", format!("{:.2}", c.bic_threshold)),
                ("k-means iterations", c.kmeans_iterations.to_string()),
                ("seed", format!("{:#x}", c.seed)),
            ],
            SelectionSpec::TwoPhaseStratified(c) => vec![
                ("coarse bands", c.bands.to_string()),
                ("quantization levels", c.levels.to_string()),
                ("representative budget", c.budget.to_string()),
            ],
        }
    }

    /// FNV-1a fingerprint of the serialized spec (equals the owning
    /// strategy's [`SelectionStrategy::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&serde::to_vec(self))
    }
}

/// The default selection backend: the paper's SimPoint pipeline
/// ([`cluster_regions`]) behind the [`SelectionStrategy`] seam.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimPointStrategy {
    config: SimPointConfig,
}

impl SimPointStrategy {
    /// Wraps `config` as a strategy.
    pub fn new(config: SimPointConfig) -> Self {
        Self { config }
    }

    /// The wrapped SimPoint parameters.
    pub fn config(&self) -> &SimPointConfig {
        &self.config
    }
}

impl SelectionStrategy for SimPointStrategy {
    fn name(&self) -> &'static str {
        "simpoint"
    }

    fn select(&self, vectors: RegionVectors<'_>, _ctx: &SelectionContext) -> Clustering {
        cluster_regions(vectors, &self.config)
    }

    fn spec(&self) -> SelectionSpec {
        SelectionSpec::SimPoint(self.config)
    }
}

/// Parameters of [`TwoPhaseStratified`] selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoPhaseStratifiedConfig {
    /// Number of coarse feature bands the signature is folded into during
    /// phase-1 stratification.
    pub bands: usize,
    /// Quantization levels per band: each band's mass in `[0, 1]` is
    /// discretized into this many buckets to form the stratum key.
    pub levels: usize,
    /// Phase-2 budget: the maximum number of representatives (barrierpoints)
    /// selected across all strata.
    pub budget: usize,
}

impl TwoPhaseStratifiedConfig {
    /// A new configuration with the given representative budget and the
    /// default stratification resolution (4 bands × 4 levels).
    pub fn new(budget: usize) -> Self {
        Self { bands: 4, levels: 4, budget }
    }

    /// Overrides the representative budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the number of coarse feature bands.
    pub fn with_bands(mut self, bands: usize) -> Self {
        self.bands = bands;
        self
    }

    /// Overrides the per-band quantization levels.
    pub fn with_levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }
}

impl Default for TwoPhaseStratifiedConfig {
    fn default() -> Self {
        Self::new(10)
    }
}

/// Two-phase stratified selection (after NVIDIA's "CPU Simulation Using
/// Two-Phase Stratified Sampling"): instead of clustering in a projected
/// space, regions are bucketed by cheap coarse features of their signatures
/// (phase 1), and a fixed representative budget is spread across the strata
/// proportionally to instruction weight (phase 2).
///
/// Properties (all pinned by tests):
///
/// * **Deterministic** — no randomness; strata are ordered by key, all tie
///   breaks are by index.
/// * **Budget-monotone** — growing the budget never removes a stratum's
///   representation: seats are granted in a fixed order (heaviest strata
///   first, then D'Hondt divisor rounds), so budget *b* selects a prefix of
///   the seat sequence for budget *b + 1*.
/// * **Covering** — when the budget is at least the stratum count, every
///   stratum with at least one region gets at least one representative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TwoPhaseStratified {
    config: TwoPhaseStratifiedConfig,
}

impl TwoPhaseStratified {
    /// Wraps `config` as a strategy.
    pub fn new(config: TwoPhaseStratifiedConfig) -> Self {
        Self { config }
    }

    /// A strategy with the given representative budget and default
    /// stratification resolution.
    pub fn with_budget(budget: usize) -> Self {
        Self::new(TwoPhaseStratifiedConfig::new(budget))
    }

    /// The wrapped parameters.
    pub fn config(&self) -> &TwoPhaseStratifiedConfig {
        &self.config
    }
}

impl SelectionStrategy for TwoPhaseStratified {
    fn name(&self) -> &'static str {
        "two-phase-stratified"
    }

    fn select(&self, vectors: RegionVectors<'_>, _ctx: &SelectionContext) -> Clustering {
        stratified_select(vectors, &self.config)
    }

    fn spec(&self) -> SelectionSpec {
        SelectionSpec::TwoPhaseStratified(self.config)
    }
}

/// One phase-1 stratum: a coarse-feature key and its member regions.
struct Stratum {
    key: Vec<usize>,
    members: Vec<usize>,
    weight: f64,
}

/// Phase 1: bucket every region by its quantized coarse-feature key (each
/// distinct vector's key is computed once).  Strata come back sorted by key
/// (deterministic, input-order independent).
fn stratify(vectors: RegionVectors<'_>, config: &TwoPhaseStratifiedConfig) -> Vec<Stratum> {
    let dim = vectors.get(0).dimension();
    let bands = config.bands.clamp(1, dim.max(1));
    let levels = config.levels.max(1);
    let keys: Vec<Vec<usize>> = vectors
        .distinct()
        .iter()
        .map(|vector| {
            let normalized = vector.normalized();
            let values = normalized.values();
            (0..bands)
                .map(|band| {
                    // Contiguous dimension bands; the last band absorbs the
                    // remainder when `dim` is not divisible by `bands`.
                    let start = band * dim / bands;
                    let end = if band + 1 == bands { dim } else { (band + 1) * dim / bands };
                    let mass: f64 = values[start..end].iter().map(|v| v.abs()).sum();
                    ((mass * levels as f64) as usize).min(levels - 1)
                })
                .collect()
        })
        .collect();
    let mut by_key: std::collections::BTreeMap<&[usize], Vec<usize>> =
        std::collections::BTreeMap::new();
    for region in 0..vectors.len() {
        by_key.entry(&keys[vectors.distinct_of(region)]).or_default().push(region);
    }
    by_key
        .into_iter()
        .map(|(key, members)| {
            let weight = members.iter().map(|&m| vectors.get(m).instructions() as f64).sum();
            Stratum { key: key.to_vec(), members, weight }
        })
        .collect()
}

/// The fixed seat-award order over strata: the first `S` seats go one per
/// stratum in decreasing weight (ties towards the smaller stratum index),
/// every later seat by the D'Hondt divisor rule (highest
/// `weight / (seats + 1)`, ties towards the smaller stratum index).
///
/// Awarding seats in a budget-independent order is what makes the strategy
/// budget-monotone: budget `b` takes a prefix of the same sequence budget
/// `b + 1` takes.
fn seat_counts(strata: &[Stratum], budget: usize) -> Vec<usize> {
    let s = strata.len();
    let mut order: Vec<usize> = (0..s).collect();
    order.sort_by(|&a, &b| strata[b].weight.total_cmp(&strata[a].weight).then_with(|| a.cmp(&b)));

    let mut seats = vec![0usize; s];
    let first_round = budget.min(s);
    for &stratum in order.iter().take(first_round) {
        seats[stratum] = 1;
    }
    let mut extra = budget.saturating_sub(s);
    while extra > 0 {
        let mut best = 0usize;
        let mut best_quotient = f64::NEG_INFINITY;
        for (stratum, &count) in seats.iter().enumerate() {
            let quotient = strata[stratum].weight / (count + 1) as f64;
            if quotient > best_quotient {
                best_quotient = quotient;
                best = stratum;
            }
        }
        seats[best] += 1;
        extra -= 1;
    }
    seats
}

/// Splits `members` (region indices, ascending) into exactly
/// `min(chunks, members.len())` contiguous non-empty groups balanced by
/// cumulative weight.  Boundaries are clamped so no group is empty, which
/// keeps the realized representative count equal to the granted seats.
fn weight_balanced_chunks(members: &[usize], weights: &[f64], chunks: usize) -> Vec<Vec<usize>> {
    let len = members.len();
    let count = chunks.clamp(1, len);
    let mut cumulative = Vec::with_capacity(len + 1);
    let mut running = 0.0;
    cumulative.push(0.0);
    for &member in members {
        running += weights[member];
        cumulative.push(running);
    }
    let total = running;

    let mut bounds = Vec::with_capacity(count + 1);
    bounds.push(0usize);
    for j in 1..count {
        let target = total * j as f64 / count as f64;
        let ideal = cumulative.partition_point(|&w| w < target).min(len);
        let lower = j.max(bounds[j - 1] + 1);
        let upper = len - (count - j);
        bounds.push(ideal.clamp(lower, upper));
    }
    bounds.push(len);

    (0..count).map(|j| members[bounds[j]..bounds[j + 1]].to_vec()).collect()
}

/// Phase 1 + phase 2: the full [`TwoPhaseStratified`] selection.
///
/// # Panics
///
/// Panics if `vectors` is empty (mirrors [`cluster_regions`]).
fn stratified_select(vectors: RegionVectors<'_>, config: &TwoPhaseStratifiedConfig) -> Clustering {
    assert!(!vectors.is_empty(), "cannot select from zero regions");
    let weights: Vec<f64> = vectors.iter().map(|v| v.instructions() as f64).collect();
    let total_weight: f64 = weights.iter().sum();
    let strata = stratify(vectors, config);
    let budget = config.budget.max(1);
    let seats = seat_counts(&strata, budget);

    // Under-budget strata (budget < stratum count) fold into the
    // represented stratum with the nearest coarse key, so every region
    // stays covered and the multipliers still reconstruct the total.
    let represented: Vec<usize> = (0..strata.len()).filter(|&stratum| seats[stratum] > 0).collect();
    let mut folded_members: Vec<Vec<usize>> = vec![Vec::new(); strata.len()];
    for stratum in 0..strata.len() {
        if seats[stratum] > 0 {
            continue;
        }
        let key = &strata[stratum].key;
        let mut target = represented[0];
        let mut best_distance = usize::MAX;
        for &candidate in &represented {
            let distance: usize =
                strata[candidate].key.iter().zip(key).map(|(a, b)| a.abs_diff(*b)).sum();
            if distance < best_distance {
                best_distance = distance;
                target = candidate;
            }
        }
        folded_members[target].extend(strata[stratum].members.iter().copied());
    }

    let mut assignments = vec![0usize; vectors.len()];
    let mut clusters = Vec::new();
    for (stratum_index, stratum) in strata.iter().enumerate() {
        if seats[stratum_index] == 0 {
            continue;
        }
        let chunks = weight_balanced_chunks(&stratum.members, &weights, seats[stratum_index]);
        for (chunk_index, chunk) in chunks.iter().enumerate() {
            let cluster = clusters.len();
            // Representative: the heaviest member; ties go to the first
            // (lowest region index) so the choice is deterministic.
            let mut representative = chunk[0];
            for &member in chunk {
                if weights[member] > weights[representative] {
                    representative = member;
                }
            }
            let mut members: Vec<usize> = chunk.clone();
            if chunk_index == 0 {
                // Folded regions ride the stratum's first chunk: they have
                // no seat of their own, only coverage.
                members.extend(folded_members[stratum_index].iter().copied());
                members.sort_unstable();
            }
            for &member in &members {
                assignments[member] = cluster;
            }
            let cluster_weight: f64 = members.iter().map(|&m| weights[m]).sum();
            clusters.push(ClusterSummary {
                cluster,
                representative,
                multiplier: cluster_weight / weights[representative].max(1.0),
                members,
                weight_fraction: if total_weight > 0.0 {
                    cluster_weight / total_weight
                } else {
                    0.0
                },
            });
        }
    }

    Clustering::from_parts(assignments, clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_signature::SignatureVector;
    use proptest::prelude::*;

    fn vector(values: Vec<f64>, instructions: u64) -> SignatureVector {
        SignatureVector::new(values, instructions)
    }

    fn ctx(vectors: &[SignatureVector]) -> SelectionContext {
        SelectionContext {
            threads: 1,
            total_instructions: vectors.iter().map(|v| v.instructions()).sum(),
        }
    }

    /// A mixed set of synthetic regions with three clearly distinct
    /// behaviours and skewed weights.
    fn mixed_vectors() -> Vec<SignatureVector> {
        let mut vectors = Vec::new();
        for i in 0..30 {
            match i % 3 {
                0 => vectors.push(vector(vec![1.0, 0.0, 0.0, 0.0], 1000 + i as u64)),
                1 => vectors.push(vector(vec![0.0, 0.0, 1.0, 0.0], 400 + i as u64)),
                _ => vectors.push(vector(vec![0.0, 0.5, 0.0, 0.5], 50 + i as u64)),
            }
        }
        vectors
    }

    #[test]
    fn simpoint_spec_encodes_byte_identically_to_bare_config() {
        for config in [
            SimPointConfig::paper(),
            SimPointConfig::paper().with_max_k(3),
            SimPointConfig::paper().with_seed(42),
        ] {
            let spec = SelectionSpec::SimPoint(config);
            assert_eq!(
                serde::to_vec(&spec),
                serde::to_vec(&config),
                "SimPoint spec must serialize exactly like the bare config"
            );
            let strategy = SimPointStrategy::new(config);
            assert_eq!(strategy.fingerprint_bytes(), serde::to_vec(&config));
        }
    }

    #[test]
    fn spec_round_trips_both_variants() {
        let specs = [
            SelectionSpec::SimPoint(SimPointConfig::paper().with_max_k(7)),
            SelectionSpec::TwoPhaseStratified(TwoPhaseStratifiedConfig::new(12).with_bands(6)),
        ];
        for spec in specs {
            let bytes = serde::to_vec(&spec);
            let back: SelectionSpec = serde::from_slice(&bytes).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn specs_of_distinct_strategies_have_distinct_fingerprints() {
        let simpoint = SimPointStrategy::new(SimPointConfig::paper());
        let stratified = TwoPhaseStratified::with_budget(10);
        assert_ne!(simpoint.fingerprint(), stratified.fingerprint());
        assert_ne!(
            TwoPhaseStratified::with_budget(5).fingerprint(),
            TwoPhaseStratified::with_budget(6).fingerprint()
        );
        assert_eq!(simpoint.fingerprint(), simpoint.spec().fingerprint());
    }

    #[test]
    fn stratified_reconstructs_total_instruction_count() {
        let vectors = mixed_vectors();
        for budget in [1, 2, 3, 7, 30, 100] {
            let strategy = TwoPhaseStratified::with_budget(budget);
            let clustering = strategy.select((&vectors).into(), &ctx(&vectors));
            let reconstructed: f64 = clustering
                .clusters()
                .iter()
                .map(|c| c.multiplier * vectors[c.representative].instructions() as f64)
                .sum();
            let total: f64 = vectors.iter().map(|v| v.instructions() as f64).sum();
            assert!(
                (reconstructed - total).abs() / total < 1e-9,
                "budget {budget}: reconstructed {reconstructed} != total {total}"
            );
            let coverage: f64 = clustering.clusters().iter().map(|c| c.weight_fraction).sum();
            assert!((coverage - 1.0).abs() < 1e-9, "budget {budget}: coverage {coverage}");
            // Every region is assigned to an existing cluster that lists it.
            for region in 0..vectors.len() {
                assert!(clustering.cluster_of(region).members.contains(&region));
            }
            assert!(clustering.num_clusters() <= budget.max(1));
        }
    }

    #[test]
    fn stratified_is_deterministic_across_runs_and_threads() {
        let vectors = mixed_vectors();
        let strategy = TwoPhaseStratified::with_budget(6);
        let baseline = strategy.select((&vectors).into(), &ctx(&vectors));
        for _ in 0..3 {
            assert_eq!(strategy.select((&vectors).into(), &ctx(&vectors)), baseline);
        }
        // Concurrent invocations (the sweep runs strategies from worker
        // threads) must agree with the serial result too.
        let results: Vec<Clustering> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| strategy.select((&vectors).into(), &ctx(&vectors))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for result in results {
            assert_eq!(result, baseline);
        }
        // The context is advisory: a different thread count must not change
        // the selection for identical vectors.
        let other_ctx = SelectionContext { threads: 16, ..ctx(&vectors) };
        assert_eq!(strategy.select((&vectors).into(), &other_ctx), baseline);
    }

    /// More budget never removes representation: the represented strata only
    /// grow, per-cluster representative counts never shrink, and the
    /// barrierpoint count is non-decreasing.
    #[test]
    fn stratified_budget_is_monotone() {
        let vectors = mixed_vectors();
        let mut previous: Option<Clustering> = None;
        for budget in 1..=40 {
            let clustering =
                TwoPhaseStratified::with_budget(budget).select((&vectors).into(), &ctx(&vectors));
            if let Some(prev) = &previous {
                assert!(
                    clustering.num_clusters() >= prev.num_clusters(),
                    "budget {budget} shrank the selection: {} -> {}",
                    prev.num_clusters(),
                    clustering.num_clusters()
                );
                // Regions that had a dedicated representative among the
                // previous representatives keep one: the set of strata with
                // at least one seat is monotone, pinned here through the
                // global heaviest representative of each stratum.
                let prev_reps: std::collections::BTreeSet<usize> =
                    prev.representatives().into_iter().collect();
                let reps: std::collections::BTreeSet<usize> =
                    clustering.representatives().into_iter().collect();
                let heaviest_kept = prev_reps
                    .iter()
                    .filter(|&&r| {
                        // A previous rep that is the heaviest member of its
                        // new cluster must itself still be a rep.
                        let cluster = clustering.cluster_of(r);
                        cluster
                            .members
                            .iter()
                            .all(|&m| vectors[m].instructions() <= vectors[r].instructions())
                    })
                    .all(|r| reps.contains(r));
                assert!(heaviest_kept, "budget {budget} dropped a heaviest representative");
            }
            previous = Some(clustering);
        }
    }

    proptest! {
        /// Every stratum with at least one region gets at least one
        /// representative once the budget reaches the stratum count.
        #[test]
        fn every_stratum_represented_when_budget_suffices(
            raw in proptest::collection::vec((0usize..4, 1u64..10_000), 1..80),
        ) {
            // Four well-separated behaviours, arbitrary weights.
            let vectors: Vec<SignatureVector> = raw
                .iter()
                .map(|&(behaviour, instructions)| {
                    let mut values = vec![0.0; 4];
                    values[behaviour] = 1.0;
                    vector(values, instructions)
                })
                .collect();
            let config = TwoPhaseStratifiedConfig::new(0);
            let strata = super::stratify((&vectors).into(), &config);
            let budget = strata.len();
            let clustering = TwoPhaseStratified::new(config.with_budget(budget))
                .select((&vectors).into(), &ctx(&vectors));
            // One representative per stratum: regions of different strata
            // never share a cluster.
            prop_assert_eq!(clustering.num_clusters(), strata.len());
            for stratum in &strata {
                let clusters: std::collections::BTreeSet<usize> = stratum
                    .members
                    .iter()
                    .map(|&m| clustering.assignment(m))
                    .collect();
                prop_assert_eq!(clusters.len(), 1, "stratum split without extra seats");
            }
        }
    }
}
