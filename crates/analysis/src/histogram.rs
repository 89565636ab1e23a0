//! The per-user symmetric-histogram matrix (Fig. 9, right panel).
//!
//! For each user and each of the nine dimensions, a histogram of the
//! readings observed on the nodes that user's jobs occupy — "a visual
//! summary for comparing resource usage across users". Sorting by a
//! dimension ("by clicking on the attribute name") surfaces the heaviest
//! consumer.

use crate::radar::METRIC_NAMES;
use monster_util::stats::Histogram;
use monster_util::UserName;
use std::collections::BTreeMap;

/// Histogram buckets per dimension (the glyphs are small).
pub const BINS: usize = 12;

/// One user's row: a histogram per dimension plus summary means.
#[derive(Debug, Clone)]
pub struct UserUsageRow {
    /// The user.
    pub user: UserName,
    /// One histogram per dimension, normalized ranges [0, 1] (inputs are
    /// fleet-normalized readings).
    pub histograms: Vec<Histogram>,
    /// Mean normalized reading per dimension (the sort key).
    pub means: Vec<f64>,
    /// Observations folded in (node-intervals).
    pub samples: usize,
}

/// The full matrix.
#[derive(Debug, Clone, Default)]
pub struct UsageMatrix {
    rows: BTreeMap<UserName, (Vec<Histogram>, Vec<f64>, usize)>,
}

impl UsageMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        UsageMatrix::default()
    }

    /// Fold one observation: `reading` is a fleet-normalized 9-vector for
    /// one node currently occupied by `user`.
    pub fn observe(&mut self, user: &UserName, reading: &[f64; 9]) {
        let entry = self.rows.entry(user.clone()).or_insert_with(|| {
            ((0..9).map(|_| Histogram::new(0.0, 1.0, BINS)).collect(), vec![0.0; 9], 0)
        });
        for (d, &v) in reading.iter().enumerate() {
            entry.0[d].push(v);
            entry.1[d] += v;
        }
        entry.2 += 1;
    }

    /// Finish into rows, sorted descending by mean of `sort_dimension`
    /// (0..9 — the "click on the attribute name" interaction).
    pub fn rows_sorted_by(&self, sort_dimension: usize) -> Vec<UserUsageRow> {
        assert!(sort_dimension < METRIC_NAMES.len(), "dimension out of range");
        let mut rows: Vec<UserUsageRow> = self
            .rows
            .iter()
            .map(|(user, (hists, sums, n))| UserUsageRow {
                user: user.clone(),
                histograms: hists.clone(),
                means: sums.iter().map(|s| if *n > 0 { s / *n as f64 } else { 0.0 }).collect(),
                samples: *n,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.means[sort_dimension]
                .partial_cmp(&a.means[sort_dimension])
                .expect("no NaN means")
                .then_with(|| a.user.cmp(&b.user))
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec9(v: f64) -> [f64; 9] {
        [v; 9]
    }

    #[test]
    fn observe_accumulates_per_user() {
        let mut m = UsageMatrix::new();
        let alice = UserName::new("alice");
        m.observe(&alice, &vec9(0.2));
        m.observe(&alice, &vec9(0.4));
        let rows = m.rows_sorted_by(0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].samples, 2);
        assert!((rows[0].means[0] - 0.3).abs() < 1e-12);
        assert_eq!(rows[0].histograms[0].total(), 2);
    }

    #[test]
    fn sorting_surfaces_heaviest_consumer() {
        let mut m = UsageMatrix::new();
        // bob hot on power (dim 7), alice hot on cpu1 (dim 0).
        let mut bob_reading = vec9(0.1);
        bob_reading[7] = 0.95;
        let mut alice_reading = vec9(0.1);
        alice_reading[0] = 0.95;
        for _ in 0..5 {
            m.observe(&UserName::new("bob"), &bob_reading);
            m.observe(&UserName::new("alice"), &alice_reading);
        }
        let by_power = m.rows_sorted_by(7);
        assert_eq!(by_power[0].user.as_str(), "bob");
        let by_cpu = m.rows_sorted_by(0);
        assert_eq!(by_cpu[0].user.as_str(), "alice");
        assert_eq!(by_cpu.len(), 2);
    }

    #[test]
    fn ties_break_by_name_for_determinism() {
        let mut m = UsageMatrix::new();
        m.observe(&UserName::new("zed"), &vec9(0.5));
        m.observe(&UserName::new("amy"), &vec9(0.5));
        let rows = m.rows_sorted_by(3);
        assert_eq!(rows[0].user.as_str(), "amy");
    }

    #[test]
    #[should_panic(expected = "dimension out of range")]
    fn bad_dimension_panics() {
        UsageMatrix::new().rows_sorted_by(9);
    }
}
