//! The point-by-point SimPoint pipeline as it stood before the clustering
//! stage learned to fold repeated signatures: every region is normalized,
//! projected and searched on its own.  It is the test oracle the shipped
//! `weighted_kmeans` and `cluster_regions` must match bit for bit.

use super::{ClusterSummary, Clustering, SimPointConfig};
use crate::bic::bic_score;
use crate::kmeans::KMeansResult;
use crate::projection::RandomProjection;
use bp_signature::SignatureVector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// K-means++ seeding over weighted points.
fn seed_centroids(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    rng: &mut SmallRng,
) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    // First centroid: weighted draw over the points.
    let total_weight: f64 = weights.iter().sum();
    let mut pick = rng.gen_range(0.0..total_weight.max(f64::MIN_POSITIVE));
    let mut first = 0;
    for (i, &w) in weights.iter().enumerate() {
        if pick <= w {
            first = i;
            break;
        }
        pick -= w;
    }
    centroids.push(points[first].clone());

    while centroids.len() < k {
        // Squared distance to the nearest existing centroid, times weight.
        let scores: Vec<f64> = points
            .iter()
            .zip(weights)
            .map(|(p, &w)| {
                let d = centroids.iter().map(|c| squared_distance(p, c)).fold(f64::MAX, f64::min);
                d * w
            })
            .collect();
        let total: f64 = scores.iter().sum();
        if total <= 0.0 {
            // All remaining points coincide with existing centroids; duplicate one.
            centroids.push(points[rng.gen_range(0..points.len())].clone());
            continue;
        }
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = points.len() - 1;
        for (i, &s) in scores.iter().enumerate() {
            if pick <= s {
                chosen = i;
                break;
            }
            pick -= s;
        }
        centroids.push(points[chosen].clone());
    }
    centroids
}

/// Weighted k-means (k-means++ seeding, Lloyd iterations), every point
/// searched on its own.
pub(crate) fn weighted_kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    max_iterations: usize,
    seed: u64,
) -> KMeansResult {
    assert!(!points.is_empty(), "k-means needs at least one point");
    assert_eq!(points.len(), weights.len(), "one weight per point required");
    assert!(k > 0, "k must be positive");
    let k = k.min(points.len());
    let dim = points[0].len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids = seed_centroids(points, weights, k, &mut rng);
    let mut assignments = vec![0usize; points.len()];

    for _ in 0..max_iterations {
        // Assignment step.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .map(|(c, centroid)| (c, squared_distance(p, centroid)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(c, _)| c);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update step (weighted means).
        let mut sums = vec![vec![0.0; dim]; k];
        let mut totals = vec![0.0; k];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            totals[c] += weights[i];
            for (s, x) in sums[c].iter_mut().zip(p) {
                *s += weights[i] * x;
            }
        }
        for c in 0..k {
            if totals[c] > 0.0 {
                for s in &mut sums[c] {
                    *s /= totals[c];
                }
                centroids[c] = sums[c].clone();
            }
            // Empty clusters keep their previous centroid.
        }
        if !changed {
            break;
        }
    }

    let inertia = points
        .iter()
        .zip(weights)
        .zip(&assignments)
        .map(|((p, &w), &c)| w * squared_distance(p, &centroids[c]))
        .sum();
    let mut seen = vec![false; k];
    for &c in &assignments {
        seen[c] = true;
    }
    KMeansResult {
        assignments,
        centroids,
        inertia,
        num_clusters: seen.iter().filter(|&&s| s).count(),
    }
}

pub(crate) fn cluster_regions(vectors: &[SignatureVector], config: &SimPointConfig) -> Clustering {
    assert!(!vectors.is_empty(), "cannot cluster zero regions");
    let dim = vectors[0].dimension();
    assert!(
        vectors.iter().all(|v| v.dimension() == dim),
        "all signature vectors must have the same dimension"
    );

    // Normalize and project.
    let projection = RandomProjection::new(dim, config.projected_dimensions, config.seed);
    let points: Vec<Vec<f64>> =
        vectors.iter().map(|v| projection.project(v.normalized().values())).collect();
    let weights: Vec<f64> = vectors.iter().map(|v| v.instructions() as f64).collect();

    // Sweep k and score with the BIC.
    let max_k = config.max_k.max(1).min(vectors.len());
    let mut runs = Vec::with_capacity(max_k);
    for k in 1..=max_k {
        let result =
            weighted_kmeans(&points, &weights, k, config.kmeans_iterations, config.seed + k as u64);
        let score = bic_score(&points, &weights, &result);
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
        let distance_to_centroid = |m: usize| -> f64 {
            points[m].iter().zip(centroid).map(|(x, c)| (x - c) * (x - c)).sum()
        };
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

mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Region weights, zero included: empty regions carry no instructions.
    const WEIGHTS: [u64; 6] = [0, 0, 1, 40, 1000, 12_345];

    /// `regions` signature vectors drawn from a pool of `pool` distinct
    /// `dim`-dimensional vectors, weights from [`WEIGHTS`].
    fn pooled_vectors(seed: u64, pool: usize, dim: usize, regions: usize) -> Vec<SignatureVector> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool: Vec<Vec<f64>> = (0..pool)
            .map(|_| {
                (0..dim)
                    .map(|_| match rng.gen_range(0usize..4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(0.0..10.0),
                    })
                    .collect()
            })
            .collect();
        (0..regions)
            .map(|_| {
                let values = pool[rng.gen_range(0..pool.len())].clone();
                SignatureVector::new(values, WEIGHTS[rng.gen_range(0..WEIGHTS.len())])
            })
            .collect()
    }

    fn assert_matches_oracle(vectors: &[SignatureVector], config: &SimPointConfig) {
        assert_eq!(crate::cluster_regions(vectors, config), cluster_regions(vectors, config));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Folding repeated points changes no bit of a k-means run, even
        /// with zero weights and more clusters than distinct points.
        #[test]
        fn folded_kmeans_matches_the_point_by_point_oracle(
            seed in any::<u64>(),
            pool in 1usize..6,
            dim in 1usize..5,
            regions in 1usize..48,
            extra_k in 0usize..5,
        ) {
            let vectors = pooled_vectors(seed, pool, dim, regions);
            let points: Vec<Vec<f64>> = vectors.iter().map(|v| v.values().to_vec()).collect();
            let weights: Vec<f64> = vectors.iter().map(|v| v.instructions() as f64).collect();
            for k in 1..=pool + extra_k {
                prop_assert_eq!(
                    crate::weighted_kmeans(&points, &weights, k, 100, seed ^ k as u64),
                    weighted_kmeans(&points, &weights, k, 100, seed ^ k as u64)
                );
            }
        }

        /// The whole selection — projection, k sweep, BIC and representative
        /// choice — is identical to clustering every region on its own.
        #[test]
        fn folded_clustering_matches_the_point_by_point_oracle(
            seed in any::<u64>(),
            pool in 1usize..6,
            dim in 1usize..7,
            regions in 1usize..48,
            max_k in 1usize..12,
        ) {
            let vectors = pooled_vectors(seed, pool, dim, regions);
            let config = SimPointConfig {
                projected_dimensions: 3,
                ..SimPointConfig::paper().with_max_k(max_k).with_seed(seed)
            };
            assert_matches_oracle(&vectors, &config);
        }
    }

    #[test]
    fn identical_regions_form_one_cluster_like_the_oracle() {
        let vectors: Vec<_> =
            (0..30).map(|i| SignatureVector::new(vec![0.25, 0.0, 0.75], 100 + i % 3)).collect();
        for config in [SimPointConfig::paper(), SimPointConfig::paper().with_max_k(5)] {
            assert_matches_oracle(&vectors, &config);
            let clustering = crate::cluster_regions(&vectors, &config);
            assert_eq!(clustering.num_clusters(), 1);
            assert_eq!(clustering.clusters()[0].members.len(), 30);
        }
        let weightless: Vec<_> = (0..8).map(|_| SignatureVector::new(vec![1.0, 2.0], 0)).collect();
        assert_matches_oracle(&weightless, &SimPointConfig::paper());
        assert_eq!(crate::cluster_regions(&weightless, &SimPointConfig::paper()).num_clusters(), 1);
    }

    #[test]
    fn a_single_region_is_its_own_barrierpoint_like_the_oracle() {
        for instructions in [0, 1, 5000] {
            let vectors = vec![SignatureVector::new(vec![3.0, 1.0, 0.0], instructions)];
            assert_matches_oracle(&vectors, &SimPointConfig::paper());
            let clustering = crate::cluster_regions(&vectors, &SimPointConfig::paper());
            assert_eq!(clustering.representatives(), vec![0]);
            assert_eq!(clustering.assignments(), &[0]);
        }
    }
}
