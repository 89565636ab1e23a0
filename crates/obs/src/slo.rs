//! Data-freshness SLO engine: watermarks, staleness percentiles, and
//! multi-window burn rates.
//!
//! The paper's promise is timeliness — a 60 s cadence whose data is only
//! useful if it is *recent*. PR 4's resilient sweeps made staleness a
//! first-class outcome (`Stale=true` substitution when a BMC is skipped),
//! but offered no aggregate answer to "how fresh is the pipeline right
//! now?". This module keeps a **last-good-ingest watermark** per
//! `(node, category)` series: the collector bumps it whenever a sweep
//! returns a live (non-substituted) reading, and every sweep tick records
//! an **attainment sample** — the fraction of tracked series whose lag is
//! within the SLO threshold (2 cadences: 120 s at the paper's 60 s).
//!
//! From those two ingredients the tracker derives everything
//! `GET /debug/pipeline` reports:
//!
//! * staleness percentiles (p50/p90/p99/max) over current per-series lags;
//! * SLO attainment vs. the target ("99% of series fresher than
//!   2 cadences");
//! * burn rates over a fast and a slow window — the standard
//!   multi-window alerting pair. A burn rate of 1.0 means the error
//!   budget is being consumed exactly at the sustainable rate; 10× means
//!   ten times too fast.
//!
//! The builder reads the same watermarks to stamp `/v1/metrics` responses
//! with `X-Freshness-Lag-Seconds`: the worst lag, read in O(1) from the
//! smallest watermark, which the tracker keeps as ingests are recorded.
//!
//! Time is the simulation's epoch-seconds timeline (the collector's
//! `now`), not host wall time, so chaos replays yield identical reports.

use monster_json::{jobj, Value};
use monster_util::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Freshness SLO parameters; `SLO` is the one set the tracker runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Collection cadence in seconds: the latest sweep's (60 s before one).
    pub cadence_secs: f64,
    /// Lag at or under which a series counts as fresh (2 cadences).
    pub fresh_within_secs: f64,
    /// Target fraction of series fresh (0.99 = "99% of nodes fresher
    /// than 2 cadences").
    pub target: f64,
    /// Fast burn-rate window in seconds (5 min).
    pub fast_window_secs: f64,
    /// Slow burn-rate window in seconds (1 h).
    pub slow_window_secs: f64,
}

/// The SLO at the paper's 60 s cadence, 99% of series fresher than 2 × 60 s;
/// `State::slo` moves the cadence and that bound to the latest sweep's.
const SLO: SloConfig = SloConfig {
    cadence_secs: 60.0,
    fresh_within_secs: 120.0,
    target: 0.99,
    fast_window_secs: 300.0,
    slow_window_secs: 3600.0,
};

#[derive(Debug, Default)]
struct State {
    /// `(node, category)` → epoch-seconds of the last live ingest, keyed by
    /// the ids the collector already holds: no key is formatted.
    watermarks: BTreeMap<(NodeId, &'static str), f64>,
    /// The smallest watermark, updated as ingests are recorded: watermarks
    /// only rise, so the worst lag is `latest − min_watermark`.
    min_watermark: f64,
    /// Epoch-seconds of the most recent sweep tick.
    latest: f64,
    /// The cadence the most recent sweep ran at.
    cadence_secs: Option<f64>,
    /// (sweep time, attainment) samples, oldest first, trimmed to the
    /// slow burn-rate window.
    attainment: Vec<(f64, f64)>,
}

/// Per-series freshness watermarks plus the attainment history that burn
/// rates are computed from. One lives in the global
/// [`Registry`](crate::Registry); stages reach it via
/// [`crate::freshness`].
#[derive(Debug, Default)]
pub struct FreshnessTracker {
    state: Mutex<State>,
}

impl FreshnessTracker {
    /// New tracker with no watermarks.
    pub fn new() -> FreshnessTracker {
        FreshnessTracker::default()
    }

    /// The SLO parameters at the latest sweep's cadence.
    pub fn config(&self) -> SloConfig {
        self.state.lock().slo()
    }

    /// Record a sweep's live (non-substituted) readings, each a `(node,
    /// category)` ingested at epoch-seconds `now`: one lock acquisition,
    /// and no allocation for a series that already has a watermark.
    /// Watermarks are monotone.
    pub fn record_ingests(
        &self,
        now_secs: f64,
        series: impl IntoIterator<Item = (NodeId, &'static str)>,
    ) {
        let mut state = self.state.lock();
        for key in series {
            let w = state.watermarks.entry(key).or_insert(0.0);
            if now_secs > *w {
                *w = now_secs;
            }
        }
        state.min_watermark = state.watermarks.values().copied().fold(f64::INFINITY, f64::min);
    }

    /// Mark a sweep tick at epoch-seconds `now` of a collector running every
    /// `cadence_secs`: advances the reference time lags are measured against,
    /// judges freshness by that cadence and appends an attainment sample.
    pub fn record_sweep(&self, now_secs: f64, cadence_secs: f64) {
        let mut state = self.state.lock();
        if now_secs > state.latest {
            state.latest = now_secs;
        }
        state.cadence_secs = Some(cadence_secs);
        let attainment = attainment_of(&state);
        state.attainment.push((now_secs, attainment));
        let cutoff = now_secs - SLO.slow_window_secs;
        state.attainment.retain(|&(t, _)| t >= cutoff);
    }

    /// Number of `(node, category)` series with a watermark.
    pub fn tracked_series(&self) -> usize {
        self.state.lock().watermarks.len()
    }

    /// Current lag (seconds behind the latest sweep) of every tracked
    /// series, in `(node, category)` order.
    pub fn lags(&self) -> Vec<f64> {
        let state = self.state.lock();
        state.watermarks.values().map(|w| (state.latest - w).max(0.0)).collect()
    }

    /// Worst lag across all tracked series, or `None` if nothing is
    /// tracked yet. O(1): the smallest watermark is kept, not searched for.
    pub fn max_lag_secs(&self) -> Option<f64> {
        let state = self.state.lock();
        (!state.watermarks.is_empty()).then(|| (state.latest - state.min_watermark).max(0.0))
    }

    /// Fraction of tracked series currently within the SLO freshness
    /// threshold (1.0 when nothing is tracked — no data is not an SLO
    /// violation).
    pub fn attainment(&self) -> f64 {
        attainment_of(&self.state.lock())
    }

    /// Error-budget burn rate averaged over the trailing `window_secs`:
    /// `(1 - attainment) / (1 - target)`. 0.0 with no samples in window.
    pub fn burn_rate(&self, window_secs: f64) -> f64 {
        let state = self.state.lock();
        let cutoff = state.latest - window_secs;
        let (sum, samples) = state
            .attainment
            .iter()
            .filter(|&&(t, _)| t >= cutoff)
            .fold((0.0, 0usize), |(sum, n), &(_, a)| (sum + a, n + 1));
        if samples == 0 {
            return 0.0;
        }
        let budget = (1.0 - SLO.target).max(1e-9);
        (1.0 - sum / samples as f64) / budget
    }

    /// Forget all watermarks and attainment history (the chaos harness
    /// calls this between cells so runs don't contaminate each other).
    pub fn reset(&self) {
        *self.state.lock() = State::default();
    }

    /// The full `/debug/pipeline` report as a JSON value.
    pub fn report(&self) -> Value {
        let mut lags = self.lags();
        lags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let attainment = self.attainment();
        let budget = (1.0 - SLO.target).max(1e-9);
        let slo = self.config();
        jobj! {
            "tracked_series" => lags.len() as i64,
            "latest_sweep_epoch_secs" => self.state.lock().latest,
            "slo" => jobj! {
                "cadence_secs" => slo.cadence_secs,
                "fresh_within_secs" => slo.fresh_within_secs,
                "target" => SLO.target,
            },
            "staleness_secs" => jobj! {
                "p50" => percentile(&lags, 0.50),
                "p90" => percentile(&lags, 0.90),
                "p99" => percentile(&lags, 0.99),
                "max" => lags.last().copied().unwrap_or(0.0),
            },
            "attainment" => attainment,
            "error_budget_used" => ((1.0 - attainment) / budget).min(1e9),
            "burn_rate" => jobj! {
                "fast_window_secs" => SLO.fast_window_secs,
                "fast" => self.burn_rate(SLO.fast_window_secs),
                "slow_window_secs" => SLO.slow_window_secs,
                "slow" => self.burn_rate(SLO.slow_window_secs),
            },
        }
    }
}

impl State {
    /// [`SLO`] at the latest sweep's cadence: fresh within 2 cadences.
    fn slo(&self) -> SloConfig {
        let cadence_secs = self.cadence_secs.unwrap_or(SLO.cadence_secs);
        SloConfig { cadence_secs, fresh_within_secs: 2.0 * cadence_secs, ..SLO }
    }
}

fn attainment_of(state: &State) -> f64 {
    let (mut fresh, mut tracked, within) = (0usize, 0usize, state.slo().fresh_within_secs);
    for w in state.watermarks.values() {
        tracked += 1;
        fresh += usize::from((state.latest - w).max(0.0) <= within);
    }
    if tracked == 0 {
        return 1.0;
    }
    fresh as f64 / tracked as f64
}

/// Nearest-rank percentile over an ascending-sorted slice; 0.0 if empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CATEGORIES: [&str; 4] = ["Thermal", "Power", "Manager", "System"];

    fn node(slot: u16) -> NodeId {
        NodeId::new(1, slot)
    }

    #[test]
    fn batched_ingest_matches_one_at_a_time() {
        let series = [(node(2), "Power"), (node(1), "Thermal"), (node(1), "Power")];
        let (single, batched) = (FreshnessTracker::new(), FreshnessTracker::new());
        for now in [900.0, 1000.0, 950.0] {
            for one in series {
                single.record_ingests(now, [one]);
            }
            batched.record_ingests(now, series);
            single.record_sweep(now, 60.0);
            batched.record_sweep(now, 60.0);
        }
        assert_eq!(batched.tracked_series(), 3);
        assert_eq!(batched.report(), single.report());
        assert_eq!(batched.lags(), single.lags());
    }

    #[test]
    fn watermarks_drive_lags_and_attainment() {
        let t = FreshnessTracker::new();
        assert_eq!(t.attainment(), 1.0);
        assert_eq!(t.max_lag_secs(), None);

        // Three series: two fresh, one stale by 3 cadences.
        t.record_ingests(1000.0, [(node(1), "Thermal"), (node(1), "Power")]);
        t.record_ingests(820.0, [(node(2), "Thermal")]);
        t.record_sweep(1000.0, 60.0);

        assert_eq!(t.tracked_series(), 3);
        assert_eq!(t.max_lag_secs(), Some(180.0));
        // Series in (node, category) order: node 1's two, then node 2's.
        assert_eq!(t.lags(), vec![0.0, 0.0, 180.0]);
        let a = t.attainment();
        assert!((a - 2.0 / 3.0).abs() < 1e-9, "attainment {a}");

        // Watermarks are monotone: an older ingest can't regress one.
        t.record_ingests(900.0, [(node(1), "Thermal")]);
        assert_eq!(t.lags(), vec![0.0, 0.0, 180.0]);
        // The stale series catching up lifts the worst lag with it.
        t.record_ingests(1000.0, [(node(2), "Thermal")]);
        assert_eq!(t.max_lag_secs(), Some(0.0));
    }

    #[test]
    fn burn_rate_windows() {
        let t = FreshnessTracker::new();
        t.record_ingests(0.0, [(node(1), "Thermal")]);
        // Sweep at t=0 of a 60 s collector: the series is fresh →
        // attainment 1, burn 0.
        t.record_sweep(0.0, 60.0);
        assert_eq!(t.burn_rate(300.0), 0.0);
        // Sweep at t=180 with the watermark stuck at 0 → lag 180 > 2 × 60 →
        // attainment 0 for that sample.
        t.record_sweep(180.0, 60.0);
        // Window covering both samples: mean attainment 0.5, budget 0.01 →
        // burn 50.0.
        assert!((t.burn_rate(300.0) - 50.0).abs() < 1e-9);
        // Window covering only the latest sample: burn 100.0.
        assert!((t.burn_rate(60.0) - 100.0).abs() < 1e-9);
        // No samples in a zero-width future window.
        let empty = FreshnessTracker::new();
        assert_eq!(empty.burn_rate(300.0), 0.0);
    }

    #[test]
    fn report_shape_and_percentiles() {
        let t = FreshnessTracker::new();
        for i in 0..100 {
            t.record_ingests(1000.0 - f64::from(i), [(node(i), "Thermal")]);
        }
        t.record_sweep(1000.0, 60.0);
        let report = t.report();
        assert_eq!(report.get("tracked_series").unwrap().as_i64(), Some(100));
        let stale = report.get("staleness_secs").unwrap();
        assert_eq!(stale.get("p50").unwrap().as_f64(), Some(49.0));
        assert_eq!(stale.get("p99").unwrap().as_f64(), Some(98.0));
        assert_eq!(stale.get("max").unwrap().as_f64(), Some(99.0));
        let burn = report.get("burn_rate").unwrap();
        assert!(burn.get("fast").unwrap().as_f64().is_some());
        assert!(burn.get("slow").unwrap().as_f64().is_some());

        t.reset();
        assert_eq!(t.tracked_series(), 0);
        assert_eq!(t.max_lag_secs(), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    proptest! {
        /// The kept minimum is the walk it replaced: after any sequence of
        /// ingest batches and sweeps, in any time order, the O(1) worst lag
        /// is the largest of `lags()`.
        #[test]
        fn max_lag_is_the_largest_lag(
            steps in prop::collection::vec(
                (
                    any::<bool>(),
                    prop::collection::vec((1u16..6, 0usize..4), 0..6),
                    -100.0..2000.0f64,
                ),
                0..40,
            )
        ) {
            let t = FreshnessTracker::new();
            for (sweep, series, now) in steps {
                if sweep {
                    t.record_sweep(now, 60.0);
                } else {
                    t.record_ingests(now, series.iter().map(|&(n, c)| (node(n), CATEGORIES[c])));
                }
                let walked = t.lags().into_iter().reduce(f64::max);
                prop_assert_eq!(t.max_lag_secs(), walked);
            }
        }
    }
}
