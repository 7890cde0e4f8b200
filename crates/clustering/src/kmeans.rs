use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Result of one weighted k-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster index assigned to each input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Weighted sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Number of non-empty clusters.
    pub num_clusters: usize,
}

pub(crate) fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Input points with duplicates folded: each distinct point is stored once,
/// and every input position names its distinct point.  Iterative kernels
/// repeat the same inter-barrier region thousands of times, so the distinct
/// points are usually a small fraction of the inputs.
pub(crate) struct DistinctPoints {
    /// The distinct points, in order of first occurrence among the items.
    points: Vec<Vec<f64>>,
    /// For every input position, the index of its point in `points`.
    of: Vec<usize>,
}

impl DistinctPoints {
    /// Folds `items` whose `key`s are equal bit for bit, maps each distinct
    /// item to its point with `point` (called once per distinct key, in
    /// item order), and names, for every input position, the point of item
    /// `positions[i]`.  Only the items are hashed, not the positions.
    pub(crate) fn new<'a, T>(
        items: &'a [T],
        positions: impl Iterator<Item = usize>,
        key: impl Fn(&'a T) -> &'a [f64],
        mut point: impl FnMut(&'a T) -> Vec<f64>,
    ) -> Self {
        let mut first: HashMap<BitKey<'a>, usize> = HashMap::new();
        let mut points = Vec::new();
        let folded: Vec<usize> = items
            .iter()
            .map(|item| {
                *first.entry(BitKey::new(key(item))).or_insert_with(|| {
                    points.push(point(item));
                    points.len() - 1
                })
            })
            .collect();
        Self { points, of: positions.map(|i| folded[i]).collect() }
    }

    /// Number of input positions.
    pub(crate) fn len(&self) -> usize {
        self.of.len()
    }

    /// Dimensionality of the points.
    pub(crate) fn dim(&self) -> usize {
        self.points.first().map_or(0, Vec::len)
    }

    /// The point at input position `i`.
    pub(crate) fn point(&self, i: usize) -> &[f64] {
        &self.points[self.of[i]]
    }
}

/// A float slice hashed and compared by bit pattern.  The hash is folded
/// once up front, so the map hashes one word per probe.
struct BitKey<'a> {
    hash: u64,
    values: &'a [f64],
}

impl<'a> BitKey<'a> {
    fn new(values: &'a [f64]) -> Self {
        let hash = values.iter().fold(values.len() as u64, |h, x| {
            (h.rotate_left(5) ^ x.to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        Self { hash, values }
    }
}

impl Hash for BitKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for BitKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.values.len() == other.values.len()
            && self.values.iter().zip(other.values).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for BitKey<'_> {}

/// K-means++ seeding over weighted points.  Distances are taken once per
/// distinct point; the weighted draws walk every input position in order.
fn seed_centroids(
    points: &DistinctPoints,
    weights: &[f64],
    k: usize,
    rng: &mut SmallRng,
) -> Vec<Vec<f64>> {
    let n = points.len();
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
    centroids.push(points.point(first).to_vec());

    // Squared distance of each distinct point to its nearest centroid so
    // far, folded one centroid at a time in the order they were chosen.
    let mut nearest = vec![f64::MAX; points.points.len()];
    while centroids.len() < k {
        let newest = &centroids[centroids.len() - 1];
        for (d, p) in nearest.iter_mut().zip(&points.points) {
            *d = d.min(squared_distance(p, newest));
        }
        // Squared distance to the nearest existing centroid, times weight.
        let score = |i: usize| nearest[points.of[i]] * weights[i];
        let total: f64 = (0..n).map(score).sum();
        if total <= 0.0 {
            // All remaining points coincide with existing centroids; duplicate one.
            centroids.push(points.point(rng.gen_range(0..n)).to_vec());
            continue;
        }
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = n - 1;
        for i in 0..n {
            let s = score(i);
            if pick <= s {
                chosen = i;
                break;
            }
            pick -= s;
        }
        centroids.push(points.point(chosen).to_vec());
    }
    centroids
}

/// Runs weighted k-means (k-means++ seeding, Lloyd iterations) on `points`.
///
/// `weights` gives each point's importance — BarrierPoint uses the region's
/// aggregate instruction count so that long regions dominate both the cluster
/// centres and the choice of representatives.
///
/// The run is deterministic for a given `seed`.  Its cost scales with the
/// number of *distinct* points, not the number of points: points equal bit
/// for bit share one nearest-centroid search per seeding draw and per Lloyd
/// assignment step.  Only the weighted sums walk every point, in input order.
///
/// # Panics
///
/// Panics if `points` is empty, if `weights` has a different length, or if
/// `k` is zero.
pub fn weighted_kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    max_iterations: usize,
    seed: u64,
) -> KMeansResult {
    assert!(!points.is_empty(), "k-means needs at least one point");
    assert_eq!(points.len(), weights.len(), "one weight per point required");
    assert!(k > 0, "k must be positive");
    let distinct = DistinctPoints::new(points, 0..points.len(), Vec::as_slice, Vec::clone);
    kmeans(&distinct, weights, k, max_iterations, seed)
}

/// [`weighted_kmeans`] over already folded points.  Every float is formed
/// in the same order as a point-by-point run, so the result does not depend
/// on how many points were folded.
pub(crate) fn kmeans(
    points: &DistinctPoints,
    weights: &[f64],
    k: usize,
    max_iterations: usize,
    seed: u64,
) -> KMeansResult {
    let k = k.min(points.len());
    let dim = points.dim();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids = seed_centroids(points, weights, k, &mut rng);
    // Cluster of each distinct point: every copy of a point is assigned
    // alike, so the per-point assignment is read through `points.of`.
    let mut assigned = vec![0usize; points.points.len()];

    for iteration in 0..max_iterations {
        // Assignment step.
        let mut changed = false;
        for (a, p) in assigned.iter_mut().zip(&points.points) {
            let best = centroids
                .iter()
                .enumerate()
                .map(|(c, centroid)| (c, squared_distance(p, centroid)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(c, _)| c);
            if *a != best {
                *a = best;
                changed = true;
            }
        }
        // An unchanged assignment recomputes the centroids it computed last
        // time, bit for bit; only iteration 0's centroids come from seeding.
        if !changed && iteration > 0 {
            break;
        }
        // Update step (weighted means), summed in input order.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut totals = vec![0.0; k];
        for (i, (&u, &w)) in points.of.iter().zip(weights).enumerate() {
            let c = assigned[u];
            totals[c] += w;
            for (s, x) in sums[c].iter_mut().zip(points.point(i)) {
                *s += w * x;
            }
        }
        for c in 0..k {
            if totals[c] > 0.0 {
                for s in &mut sums[c] {
                    *s /= totals[c];
                }
                centroids[c] = std::mem::take(&mut sums[c]);
            }
            // Empty clusters keep their previous centroid.
        }
        if !changed {
            break;
        }
    }

    let distance: Vec<f64> = points
        .points
        .iter()
        .zip(&assigned)
        .map(|(p, &c)| squared_distance(p, &centroids[c]))
        .collect();
    let inertia = points.of.iter().zip(weights).map(|(&u, &w)| w * distance[u]).sum();
    let mut seen = vec![false; k];
    for &c in &assigned {
        seen[c] = true;
    }
    KMeansResult {
        assignments: points.of.iter().map(|&u| assigned[u]).collect(),
        centroids,
        inertia,
        num_clusters: seen.iter().filter(|&&s| s).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut points = Vec::new();
        for i in 0..10 {
            points.push(vec![0.0 + i as f64 * 0.01, 0.0]);
            points.push(vec![5.0 + i as f64 * 0.01, 5.0]);
        }
        let weights = vec![1.0; points.len()];
        (points, weights)
    }

    #[test]
    fn separates_two_blobs() {
        let (points, weights) = two_blobs();
        let result = weighted_kmeans(&points, &weights, 2, 50, 1);
        assert_eq!(result.num_clusters, 2);
        // All even indices (first blob) share a cluster, all odd share the other.
        let first = result.assignments[0];
        let second = result.assignments[1];
        assert_ne!(first, second);
        for i in 0..points.len() {
            let expected = if i % 2 == 0 { first } else { second };
            assert_eq!(result.assignments[i], expected);
        }
        assert!(result.inertia < 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (points, weights) = two_blobs();
        let a = weighted_kmeans(&points, &weights, 3, 50, 9);
        let b = weighted_kmeans(&points, &weights, 3, 50, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn k_larger_than_points_is_clamped() {
        let points = vec![vec![0.0], vec![1.0]];
        let weights = vec![1.0, 1.0];
        let result = weighted_kmeans(&points, &weights, 10, 10, 0);
        assert!(result.num_clusters <= 2);
    }

    #[test]
    fn single_cluster_centroid_is_weighted_mean() {
        let points = vec![vec![0.0], vec![10.0]];
        let weights = vec![3.0, 1.0];
        let result = weighted_kmeans(&points, &weights, 1, 10, 0);
        assert!((result.centroids[0][0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn heavy_points_pull_centroids() {
        // One heavy point far away should end up in its own cluster even
        // though the light points outnumber it.
        let mut points = vec![vec![100.0]];
        let mut weights = vec![1000.0];
        for i in 0..20 {
            points.push(vec![i as f64 * 0.1]);
            weights.push(1.0);
        }
        let result = weighted_kmeans(&points, &weights, 2, 50, 3);
        let heavy_cluster = result.assignments[0];
        assert!(result.assignments[1..].iter().all(|&c| c != heavy_cluster));
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let _ = weighted_kmeans(&[], &[], 2, 10, 0);
    }
}
