//! Named, seeded random streams and latency distributions.
//!
//! Reproducibility rule: a random draw's value may depend only on (master
//! seed, stream label, draw index). Every simulated component derives its
//! own [`SimRng`] from a label ("bmc/10.101.1.1", "arrivals", ...), so
//! adding or reordering components never perturbs another component's
//! stream, and parallel execution cannot introduce nondeterminism.

use crate::vtime::VDuration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: SmallRng,
}

/// FNV-1a, used to fold stream labels into seed material.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl SimRng {
    /// Master stream for a given seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng { rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)) }
    }

    /// Derive an independent child stream from a label. Children with
    /// different labels are uncorrelated; the same (seed, label) always
    /// yields the same stream.
    pub fn derive(seed: u64, label: &str) -> Self {
        SimRng::from_seed(seed ^ fnv1a(label.as_bytes()))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let u1: f64 = self.uniform01().max(1e-12);
        let u2: f64 = self.uniform01();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + stddev * z
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.uniform01()).ln()
    }

    /// Log-normal parameterized by the *target* median and a shape sigma.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        let z = self.normal(0.0, 1.0);
        median * (sigma * z).exp()
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform01() < p
    }

    /// Pick a random element of a slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// A latency distribution, sampled into [`VDuration`]s.
///
/// The BMC model uses `LogNormal` around the paper's 4.29 s mean with a
/// long `Exponential` tail mixed in for firmware stalls; timeouts and retries in
/// the collector exist because of that tail.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyDist {
    /// Always the same value (seconds).
    Const(f64),
    /// Uniform over `[lo, hi)` seconds.
    Uniform(f64, f64),
    /// Normal (mean, stddev) seconds, truncated at ≥ 0.
    Normal(f64, f64),
    /// Exponential with mean seconds.
    Exponential(f64),
    /// Log-normal with (median, sigma).
    LogNormal(f64, f64),
    /// Mixture: with probability `p`, draw from `a`, else from `b`.
    Mix {
        /// Probability of drawing from `a`.
        p: f64,
        /// First component.
        a: Box<LatencyDist>,
        /// Second component.
        b: Box<LatencyDist>,
    },
}

impl LatencyDist {
    /// Draw one latency.
    pub fn sample(&self, rng: &mut SimRng) -> VDuration {
        let secs = self.sample_secs(rng);
        VDuration::from_secs_f64(secs.max(0.0))
    }

    fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        match self {
            LatencyDist::Const(s) => *s,
            LatencyDist::Uniform(lo, hi) => rng.uniform(*lo, *hi),
            LatencyDist::Normal(m, sd) => rng.normal(*m, *sd),
            LatencyDist::Exponential(m) => rng.exponential(*m),
            LatencyDist::LogNormal(median, sigma) => rng.lognormal(*median, *sigma),
            LatencyDist::Mix { p, a, b } => {
                if rng.chance(*p) {
                    a.sample_secs(rng)
                } else {
                    b.sample_secs(rng)
                }
            }
        }
    }

    /// Analytic mean in seconds (used in tests and doc tables).
    pub fn mean_secs(&self) -> f64 {
        match self {
            LatencyDist::Const(s) => *s,
            LatencyDist::Uniform(lo, hi) => (lo + hi) / 2.0,
            LatencyDist::Normal(m, _) => *m,
            LatencyDist::Exponential(m) => *m,
            LatencyDist::LogNormal(median, sigma) => median * (sigma * sigma / 2.0).exp(),
            LatencyDist::Mix { p, a, b } => p * a.mean_secs() + (1.0 - p) * b.mean_secs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_util::stats::OnlineStats;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::derive(7, "bmc/10.101.1.1");
        let mut b = SimRng::derive(7, "bmc/10.101.1.1");
        for _ in 0..100 {
            assert_eq!(a.uniform01(), b.uniform01());
        }
    }

    #[test]
    fn different_labels_decorrelate() {
        let mut a = SimRng::derive(7, "bmc/10.101.1.1");
        let mut b = SimRng::derive(7, "bmc/10.101.1.2");
        let same = (0..64).filter(|_| a.uniform01() == b.uniform01()).count();
        assert!(same < 4, "streams look identical");
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = SimRng::from_seed(3);
        let mut s = OnlineStats::new();
        for _ in 0..20_000 {
            s.push(rng.normal(4.29, 0.8));
        }
        assert!((s.mean() - 4.29).abs() < 0.05, "mean {}", s.mean());
        assert!((s.stddev() - 0.8).abs() < 0.05, "sd {}", s.stddev());
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::from_seed(4);
        let mut s = OnlineStats::new();
        for _ in 0..50_000 {
            s.push(rng.exponential(2.0));
        }
        assert!((s.mean() - 2.0).abs() < 0.06, "mean {}", s.mean());
        assert!(s.min() >= 0.0);
    }

    #[test]
    fn latency_dist_sampling_matches_mean() {
        let dist = LatencyDist::Mix {
            p: 0.9,
            a: Box::new(LatencyDist::LogNormal(4.0, 0.25)),
            b: Box::new(LatencyDist::Exponential(8.0)),
        };
        let mut rng = SimRng::from_seed(6);
        let mut s = OnlineStats::new();
        for _ in 0..50_000 {
            s.push(dist.sample(&mut rng).as_secs_f64());
        }
        let expect = dist.mean_secs();
        assert!(
            (s.mean() - expect).abs() / expect < 0.05,
            "sampled {} vs analytic {}",
            s.mean(),
            expect
        );
    }

    #[test]
    fn negative_draws_clamp_to_zero() {
        let dist = LatencyDist::Normal(0.0, 1.0);
        let mut rng = SimRng::from_seed(8);
        for _ in 0..1000 {
            assert!(dist.sample(&mut rng) >= VDuration::ZERO);
        }
    }

    #[test]
    fn chance_frequencies() {
        let mut rng = SimRng::from_seed(9);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }
}
