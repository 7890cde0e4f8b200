use crate::kmeans::KMeansResult;

/// Bayesian Information Criterion of a k-means clustering, following the
/// Pelleg–Moore (X-means) formulation used by SimPoint for model selection.
///
/// Higher is better.  The score trades off the log-likelihood of the data
/// under a spherical-Gaussian mixture fitted to the clusters against the
/// number of model parameters, so it penalizes adding clusters that do not
/// substantially improve the fit.
///
/// `weights` are treated as (fractional) repetition counts of each point,
/// mirroring the instruction-count weighting of BarrierPoint's clustering.
///
/// # Panics
///
/// Panics if `points`, `weights` and the clustering's `assignments` have
/// inconsistent lengths.
pub fn bic_score(points: &[Vec<f64>], weights: &[f64], result: &KMeansResult) -> f64 {
    assert_eq!(points.len(), weights.len(), "one weight per point");
    bic(points.first().map_or(0, Vec::len), weights, result)
}

/// [`bic_score`] of `dim`-dimensional points: the score reads the points
/// only through their count and dimensionality.
pub(crate) fn bic(dim: usize, weights: &[f64], result: &KMeansResult) -> f64 {
    assert_eq!(weights.len(), result.assignments.len(), "one assignment per point");
    let dim = dim as f64;
    let k = result.centroids.len();
    let total_weight: f64 = weights.iter().sum();
    if total_weight <= 0.0 || weights.is_empty() {
        return f64::NEG_INFINITY;
    }

    // Per-cluster weights.
    let mut cluster_weight = vec![0.0f64; k];
    for (&assignment, &w) in result.assignments.iter().zip(weights) {
        cluster_weight[assignment] += w;
    }

    // Pooled spherical variance estimate (weighted).
    let effective_k = cluster_weight.iter().filter(|&&w| w > 0.0).count() as f64;
    let denom = (total_weight - effective_k).max(1e-9) * dim.max(1.0);
    let variance = (result.inertia / denom).max(1e-12);

    // Weighted log-likelihood.
    let mut log_likelihood = 0.0;
    for (c, &rn) in cluster_weight.iter().enumerate() {
        if rn <= 0.0 {
            continue;
        }
        let _ = c;
        log_likelihood += rn * rn.ln()
            - rn * total_weight.ln()
            - rn * dim / 2.0 * (2.0 * std::f64::consts::PI * variance).ln()
            - (rn - 1.0) * dim / 2.0;
    }

    // Free parameters: k-1 mixture weights, k*dim centroid coordinates, 1 variance.
    let parameters = (effective_k - 1.0) + effective_k * dim + 1.0;
    log_likelihood - parameters / 2.0 * total_weight.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::weighted_kmeans;

    fn blobs(n_per: usize, centers: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut points = Vec::new();
        for &c in centers {
            for i in 0..n_per {
                points.push(vec![c + (i as f64) * 1e-3, c - (i as f64) * 1e-3]);
            }
        }
        let weights = vec![1.0; points.len()];
        (points, weights)
    }

    /// SimPoint's selection rule: smallest k whose score reaches 90 % of the
    /// way from the worst to the best score.
    fn select_k(scores: &[(usize, f64)]) -> usize {
        let best = scores.iter().map(|(_, s)| *s).fold(f64::NEG_INFINITY, f64::max);
        let worst = scores.iter().map(|(_, s)| *s).fold(f64::INFINITY, f64::min);
        let cutoff = worst + 0.9 * (best - worst);
        scores.iter().find(|(_, s)| *s >= cutoff).map(|(k, _)| *k).unwrap()
    }

    #[test]
    fn selection_rule_finds_true_cluster_count() {
        let (points, weights) = blobs(20, &[0.0, 10.0, 20.0]);
        let scores: Vec<(usize, f64)> = (1..=6)
            .map(|k| {
                let result = weighted_kmeans(&points, &weights, k, 100, 7);
                (k, bic_score(&points, &weights, &result))
            })
            .collect();
        assert_eq!(select_k(&scores), 3, "scores: {scores:?}");
    }

    #[test]
    fn under_fitting_scores_much_worse_than_the_true_fit() {
        let (points, weights) = blobs(30, &[0.0, 50.0]);
        let k1 = weighted_kmeans(&points, &weights, 1, 100, 1);
        let k2 = weighted_kmeans(&points, &weights, 2, 100, 1);
        let k6 = weighted_kmeans(&points, &weights, 6, 100, 1);
        let s1 = bic_score(&points, &weights, &k1);
        let s2 = bic_score(&points, &weights, &k2);
        let s6 = bic_score(&points, &weights, &k6);
        // Under-fitting is heavily punished; over-fitting at most marginally
        // improves on the true fit (the threshold rule therefore keeps k=2).
        assert!(s2 > s1 + 10.0, "s1={s1} s2={s2}");
        assert!(s6 - s2 < (s2 - s1) / 10.0, "s2={s2} s6={s6}");
    }

    #[test]
    fn degenerate_input_returns_negative_infinity() {
        let result =
            KMeansResult { assignments: vec![], centroids: vec![], inertia: 0.0, num_clusters: 0 };
        assert_eq!(bic_score(&[], &[], &result), f64::NEG_INFINITY);
    }
}
