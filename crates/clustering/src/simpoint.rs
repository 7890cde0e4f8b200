use crate::bic::bic;
use crate::kmeans::{kmeans, squared_distance, DistinctPoints};
use crate::projection::RandomProjection;
use bp_signature::SignatureVector;
use serde::{Deserialize, Serialize};

/// SimPoint-style clustering parameters (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimPointConfig {
    /// Number of dimensions after random projection (`-dim`, 15).
    pub projected_dimensions: usize,
    /// Maximum number of clusters (`-maxK`, 20).
    pub max_k: usize,
    /// Fraction of the best BIC a clustering must reach to be chosen; the
    /// smallest such `k` wins (SimPoint's default behaviour).
    pub bic_threshold: f64,
    /// Lloyd iterations per k-means run.
    pub kmeans_iterations: usize,
    /// Random seed for projection and k-means seeding.
    pub seed: u64,
}

impl SimPointConfig {
    /// The paper's configuration: 15 projected dimensions, `maxK = 20`,
    /// variable-length regions, 100 % coverage.
    pub fn paper() -> Self {
        Self {
            projected_dimensions: 15,
            max_k: 20,
            bic_threshold: 0.9,
            kmeans_iterations: 100,
            seed: 0x5109,
        }
    }

    /// Overrides the maximum cluster count (`maxK`), as swept in Figure 5.
    pub fn with_max_k(mut self, max_k: usize) -> Self {
        self.max_k = max_k;
        self
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SimPointConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Per-cluster summary of a [`Clustering`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSummary {
    /// Cluster index.
    pub cluster: usize,
    /// Region chosen as the cluster's representative (the barrierpoint).
    pub representative: usize,
    /// Sum of member instruction counts divided by the representative's
    /// instruction count (Section III-D).
    pub multiplier: f64,
    /// Members of the cluster (region indices).
    pub members: Vec<usize>,
    /// Fraction of total instructions covered by this cluster.
    pub weight_fraction: f64,
}

/// The output of the region-clustering step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    assignments: Vec<usize>,
    clusters: Vec<ClusterSummary>,
    chosen_k: usize,
    bic_by_k: Vec<(usize, f64)>,
}

impl Clustering {
    /// Assembles a clustering from raw parts — the constructor used by
    /// non-SimPoint [`SelectionStrategy`](crate::SelectionStrategy) backends.
    /// `bic_by_k` stays empty: no BIC sweep happened.
    ///
    /// Invariants expected (and relied upon downstream): every assignment
    /// names an existing cluster whose `members` list contains the region,
    /// and cluster ids equal their position in `clusters`.
    pub fn from_parts(assignments: Vec<usize>, clusters: Vec<ClusterSummary>) -> Self {
        let chosen_k = clusters.len();
        Self { assignments, clusters, chosen_k, bic_by_k: Vec::new() }
    }

    /// Cluster index of region `region`.
    pub fn assignment(&self, region: usize) -> usize {
        self.assignments[region]
    }

    /// Per-region cluster assignments.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Number of clusters chosen by the BIC.
    pub fn num_clusters(&self) -> usize {
        self.chosen_k
    }

    /// Per-cluster summaries (one barrierpoint each), ordered by cluster index.
    pub fn clusters(&self) -> &[ClusterSummary] {
        &self.clusters
    }

    /// The representative region (barrierpoint) for each cluster.
    pub fn representatives(&self) -> Vec<usize> {
        self.clusters.iter().map(|c| c.representative).collect()
    }

    /// The BIC score obtained for every candidate `k` (diagnostics).
    pub fn bic_scores(&self) -> &[(usize, f64)] {
        &self.bic_by_k
    }

    /// The summary of the cluster containing `region`.
    pub fn cluster_of(&self, region: usize) -> &ClusterSummary {
        let c = self.assignments[region];
        match self.clusters.iter().find(|s| s.cluster == c) {
            Some(summary) => summary,
            // Summaries are built from the assignment vector itself, so
            // every assigned cluster id has one.
            None => unreachable!("no summary for cluster {c}"),
        }
    }
}

/// Clusters the per-region signature vectors and selects one representative
/// (barrierpoint) plus multiplier per cluster.
///
/// The pipeline follows Section III-B: L1 normalization, random projection to
/// `projected_dimensions`, weighted k-means for `k = 1..=max_k`, BIC model
/// selection (smallest `k` within `bic_threshold` of the best score), and
/// representative selection favouring regions close to the cluster centre
/// with ties broken towards longer regions.
///
/// Regions whose signature vectors are equal bit for bit — the repeated
/// iterations of an iterative kernel — are normalized and projected once,
/// and k-means searches nearest centroids once per distinct vector, so the
/// cost scales with the number of distinct signatures rather than regions.
/// The result is identical to clustering every region on its own.
///
/// # Panics
///
/// Panics if `vectors` is empty or if the vectors have differing dimensions.
pub fn cluster_regions(vectors: &[SignatureVector], config: &SimPointConfig) -> Clustering {
    assert!(!vectors.is_empty(), "cannot cluster zero regions");
    let dim = vectors[0].dimension();
    assert!(
        vectors.iter().all(|v| v.dimension() == dim),
        "all signature vectors must have the same dimension"
    );

    // Normalize and project each distinct signature once.
    let projection = RandomProjection::new(dim, config.projected_dimensions, config.seed);
    let points = DistinctPoints::new(vectors, SignatureVector::values, |v| {
        projection.project(v.normalized().values())
    });
    let weights: Vec<f64> = vectors.iter().map(|v| v.instructions() as f64).collect();

    // Sweep k and score with the BIC.
    let max_k = config.max_k.max(1).min(vectors.len());
    let mut runs = Vec::with_capacity(max_k);
    for k in 1..=max_k {
        let result = kmeans(&points, &weights, k, config.kmeans_iterations, config.seed + k as u64);
        let score = bic(points.dim(), &weights, &result);
        runs.push((k, score, result));
    }
    let best_score = runs.iter().map(|(_, s, _)| *s).fold(f64::NEG_INFINITY, f64::max);
    let worst_score =
        runs.iter().map(|(_, s, _)| *s).filter(|s| s.is_finite()).fold(f64::INFINITY, f64::min);
    // Smallest k whose score reaches threshold% of the way from the worst to
    // the best score (SimPoint's "pick the smallest good-enough k" rule).
    let cutoff = worst_score + (best_score - worst_score) * config.bic_threshold;
    let chosen = runs.iter().find(|(_, s, _)| *s >= cutoff).map(|(k, _, _)| *k).unwrap_or(max_k);
    let bic_by_k: Vec<(usize, f64)> = runs.iter().map(|(k, s, _)| (*k, *s)).collect();
    let Some((_, _, result)) = runs.into_iter().find(|(k, _, _)| *k == chosen) else {
        // `chosen` is either a run's own k or `max_k`, and every candidate
        // k up to `max_k` has a run.
        unreachable!("k={chosen} is not among the candidate runs")
    };

    // Build cluster summaries: representative = member closest to the
    // centroid, ties broken towards the heaviest member.
    let total_weight: f64 = weights.iter().sum();
    let mut clusters = Vec::new();
    for cluster in 0..result.centroids.len() {
        let members: Vec<usize> = result
            .assignments
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == cluster)
            .map(|(i, _)| i)
            .collect();
        if members.is_empty() {
            continue;
        }
        let centroid = &result.centroids[cluster];
        let distance_to_centroid = |m: usize| squared_distance(points.point(m), centroid);
        let min_distance =
            members.iter().map(|&m| distance_to_centroid(m)).fold(f64::INFINITY, f64::min);
        // Representative: the member closest to the centroid; ties (regions
        // with indistinguishable signatures, e.g. hundreds of identical
        // solver iterations) are broken towards the heaviest member and then
        // towards the median occurrence, so a boundary instance (typically
        // the cold first iteration) is never picked systematically.
        let epsilon = (min_distance * 1e-9).max(1e-12);
        let mut candidates: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&m| distance_to_centroid(m) <= min_distance + epsilon)
            .collect();
        let max_weight = candidates.iter().map(|&m| weights[m]).fold(f64::NEG_INFINITY, f64::max);
        candidates.retain(|&m| weights[m] >= max_weight * (1.0 - 1e-9));
        let representative = candidates[candidates.len() / 2];
        let cluster_instructions: f64 = members.iter().map(|&m| weights[m]).sum();
        let representative_instructions = weights[representative].max(1.0);
        clusters.push(ClusterSummary {
            cluster,
            representative,
            multiplier: cluster_instructions / representative_instructions,
            members,
            weight_fraction: if total_weight > 0.0 {
                cluster_instructions / total_weight
            } else {
                0.0
            },
        });
    }

    Clustering { assignments: result.assignments, chosen_k: clusters.len(), clusters, bic_by_k }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(values: Vec<f64>, instructions: u64) -> SignatureVector {
        SignatureVector::new(values, instructions)
    }

    /// Regions alternating between two behaviours must produce two clusters
    /// whose multipliers account for every region.
    #[test]
    fn two_behaviours_two_clusters() {
        let mut vectors = Vec::new();
        for i in 0..20 {
            if i % 2 == 0 {
                vectors.push(vector(vec![1.0, 0.0, 0.0], 1000));
            } else {
                vectors.push(vector(vec![0.0, 0.0, 1.0], 500));
            }
        }
        let clustering = cluster_regions(&vectors, &SimPointConfig::paper());
        assert_eq!(clustering.num_clusters(), 2);
        let total_multiplied: f64 = clustering
            .clusters()
            .iter()
            .map(|c| c.multiplier * vectors[c.representative].instructions() as f64)
            .sum();
        let total: f64 = vectors.iter().map(|v| v.instructions() as f64).sum();
        assert!((total_multiplied - total).abs() / total < 1e-9);
        // Weight fractions cover everything.
        let coverage: f64 = clustering.clusters().iter().map(|c| c.weight_fraction).sum();
        assert!((coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_behaviour_collapses_to_one_cluster() {
        let vectors: Vec<_> = (0..15).map(|_| vector(vec![0.3, 0.7], 100)).collect();
        let clustering = cluster_regions(&vectors, &SimPointConfig::paper());
        assert_eq!(clustering.num_clusters(), 1);
        assert_eq!(clustering.clusters()[0].members.len(), 15);
        assert!((clustering.clusters()[0].multiplier - 15.0).abs() < 1e-9);
    }

    #[test]
    fn max_k_one_forces_single_cluster() {
        let vectors = vec![
            vector(vec![1.0, 0.0], 10),
            vector(vec![0.0, 1.0], 10),
            vector(vec![0.5, 0.5], 10),
        ];
        let clustering = cluster_regions(&vectors, &SimPointConfig::paper().with_max_k(1));
        assert_eq!(clustering.num_clusters(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let vectors: Vec<_> = (0..30)
            .map(|i| vector(vec![(i % 3) as f64, (i % 5) as f64, 1.0], 100 + i as u64))
            .collect();
        let a = cluster_regions(&vectors, &SimPointConfig::paper());
        let b = cluster_regions(&vectors, &SimPointConfig::paper());
        assert_eq!(a, b);
    }

    #[test]
    fn representative_prefers_longer_region_among_identical() {
        let vectors = vec![
            vector(vec![1.0, 0.0], 10),
            vector(vec![1.0, 0.0], 10_000),
            vector(vec![1.0, 0.0], 10),
        ];
        let clustering = cluster_regions(&vectors, &SimPointConfig::paper());
        assert_eq!(clustering.num_clusters(), 1);
        // All three project to the same point; the heaviest must win the tie.
        assert_eq!(clustering.clusters()[0].representative, 1);
    }

    #[test]
    fn assignments_and_cluster_of_agree() {
        let vectors = vec![
            vector(vec![1.0, 0.0], 100),
            vector(vec![0.0, 1.0], 100),
            vector(vec![1.0, 0.05], 100),
        ];
        let clustering = cluster_regions(&vectors, &SimPointConfig::paper());
        for region in 0..vectors.len() {
            assert!(clustering.cluster_of(region).members.contains(&region));
            assert_eq!(clustering.cluster_of(region).cluster, clustering.assignment(region));
        }
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let _ = cluster_regions(&[], &SimPointConfig::paper());
    }
}
