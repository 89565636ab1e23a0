//! k-means clustering of node health profiles.
//!
//! §III-E2: "we perform a modified k-means clustering of these nine health
//! metrics for the computing nodes", producing the seven host groups of
//! Fig. 9. The modification relative to textbook k-means: dimensions are
//! min–max normalized before clustering (temperatures and RPMs live on
//! wildly different scales), initialization is deterministic k-means++
//! seeded from a supplied RNG, and emptied clusters are reseeded from the
//! point farthest from its centroid instead of being dropped.

use monster_sim::SimRng;

/// Maximum Lloyd iterations.
const MAX_ITERS: usize = 100;
/// Convergence threshold on centroid movement (in normalized space).
const TOLERANCE: f64 = 1e-6;
/// RNG seed for initialization.
const SEED: u64 = 7;

/// A fitted clustering.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Centroids in **normalized** space, `k × dims`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids (normalized space).
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Per-dimension (min, max) used for normalization.
    pub ranges: Vec<(f64, f64)>,
}

impl KMeans {
    /// Fit `k` clusters (the paper uses k = 7) on raw (unnormalized)
    /// observations, `n × dims`.
    ///
    /// Panics if `data` is empty, rows are ragged, or `k` is 0.
    pub fn fit(data: &[Vec<f64>], k: usize) -> KMeans {
        assert!(k > 0, "k must be positive");
        assert!(!data.is_empty(), "cannot cluster zero points");
        let dims = data[0].len();
        assert!(data.iter().all(|r| r.len() == dims), "ragged input");

        let ranges = ranges_of(data);
        let normed: Vec<Vec<f64>> = data.iter().map(|r| normalize_row(r, &ranges)).collect();
        let k = k.min(normed.len());
        let mut rng = SimRng::derive(SEED, "kmeans");

        // k-means++ initialization.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(normed[rng.below(normed.len())].clone());
        while centroids.len() < k {
            let d2: Vec<f64> = normed
                .iter()
                .map(|p| centroids.iter().map(|c| dist2(p, c)).fold(f64::INFINITY, f64::min))
                .collect();
            let total: f64 = d2.iter().sum();
            if total <= 0.0 {
                // All points coincide with centroids; duplicate one.
                centroids.push(normed[rng.below(normed.len())].clone());
                continue;
            }
            let mut target = rng.uniform01() * total;
            let mut chosen = normed.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            centroids.push(normed[chosen].clone());
        }

        let mut assignments = vec![0usize; normed.len()];
        let mut iterations = 0;
        for iter in 0..MAX_ITERS {
            iterations = iter + 1;
            // Assign.
            for (i, p) in normed.iter().enumerate() {
                assignments[i] = nearest(p, &centroids).0;
            }
            // Update.
            let mut sums = vec![vec![0.0; dims]; k];
            let mut counts = vec![0usize; k];
            for (p, &a) in normed.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, x) in sums[a].iter_mut().zip(p) {
                    *s += x;
                }
            }
            let mut movement: f64 = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    // Modified step: reseed an empty cluster from the point
                    // farthest from its current centroid.
                    let (far_idx, _) = normed
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i, dist2(p, &centroids[assignments[i]])))
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
                        .expect("non-empty data");
                    centroids[c] = normed[far_idx].clone();
                    movement = f64::INFINITY;
                    continue;
                }
                let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
                movement += dist2(&new, &centroids[c]);
                centroids[c] = new;
            }
            if movement <= TOLERANCE {
                break;
            }
        }
        // Final assignment + inertia.
        let mut inertia = 0.0;
        for (i, p) in normed.iter().enumerate() {
            let (a, d) = nearest(p, &centroids);
            assignments[i] = a;
            inertia += d;
        }
        KMeans { centroids, assignments, inertia, iterations, ranges }
    }

    /// Assign a new raw observation to its nearest cluster.
    pub fn predict(&self, row: &[f64]) -> usize {
        let p = normalize_row(row, &self.ranges);
        nearest(&p, &self.centroids).0
    }

    /// Number of points per cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

fn ranges_of(data: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let dims = data[0].len();
    (0..dims)
        .map(|d| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for row in data {
                lo = lo.min(row[d]);
                hi = hi.max(row[d]);
            }
            (lo, hi)
        })
        .collect()
}

fn normalize_row(row: &[f64], ranges: &[(f64, f64)]) -> Vec<f64> {
    row.iter()
        .zip(ranges)
        .map(|(&x, &(lo, hi))| if hi > lo { ((x - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.5 })
        .collect()
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = dist2(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2D.
    fn blobs() -> Vec<Vec<f64>> {
        let mut rng = SimRng::derive(1, "blobs");
        let mut data = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)] {
            for _ in 0..40 {
                data.push(vec![cx + rng.normal(0.0, 0.5), cy + rng.normal(0.0, 0.5)]);
            }
        }
        data
    }

    #[test]
    fn recovers_separated_blobs() {
        let km = KMeans::fit(&blobs(), 3);
        // Each blob's 40 points share one label.
        for blob in 0..3 {
            let labels: std::collections::HashSet<usize> =
                (0..40).map(|i| km.assignments[blob * 40 + i]).collect();
            assert_eq!(labels.len(), 1, "blob {blob} split: {labels:?}");
        }
        let sizes = km.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 120);
        assert!(sizes.iter().all(|&s| s == 40), "{sizes:?}");
    }

    #[test]
    fn assignment_is_nearest_centroid() {
        let km = KMeans::fit(&blobs(), 3);
        // Invariant: every point's assigned centroid is its argmin.
        let data = blobs();
        for (i, row) in data.iter().enumerate() {
            assert_eq!(km.predict(row), km.assignments[i]);
        }
    }

    #[test]
    fn more_clusters_never_increase_inertia() {
        let data = blobs();
        let mut prev = f64::INFINITY;
        for k in [1, 2, 3, 5, 8] {
            let km = KMeans::fit(&data, k);
            assert!(
                km.inertia <= prev + 1e-9,
                "inertia rose from {prev} to {} at k={k}",
                km.inertia
            );
            prev = km.inertia;
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = blobs();
        let a = KMeans::fit(&data, 7);
        let b = KMeans::fit(&data, 7);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn k_larger_than_points_clamps() {
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let km = KMeans::fit(&data, 7);
        assert!(km.centroids.len() <= 2);
        assert_eq!(km.assignments.len(), 2);
    }

    #[test]
    fn identical_points_converge() {
        let data = vec![vec![5.0, 5.0]; 20];
        let km = KMeans::fit(&data, 3);
        assert!(km.inertia < 1e-9);
    }

    #[test]
    fn scale_invariance_through_normalization() {
        // One dimension a thousand times larger must not dominate: same
        // blobs, but dim 1 scaled by 1000 — clustering is unchanged.
        let data = blobs();
        let scaled: Vec<Vec<f64>> = data.iter().map(|r| vec![r[0], r[1] * 1000.0]).collect();
        let a = KMeans::fit(&data, 3);
        let b = KMeans::fit(&scaled, 3);
        // Same partition (labels may permute): compare co-assignment.
        for i in (0..120).step_by(7) {
            for j in (0..120).step_by(11) {
                assert_eq!(
                    a.assignments[i] == a.assignments[j],
                    b.assignments[i] == b.assignments[j],
                    "pair ({i},{j}) co-assignment differs"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero points")]
    fn empty_input_panics() {
        KMeans::fit(&[], 7);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_input_panics() {
        KMeans::fit(&[vec![1.0], vec![1.0, 2.0]], 7);
    }
}
