//! Aggregation machinery and result types.
//!
//! The storage scan (in [`crate::db`]) feeds `(timestamp, value)` pairs into
//! a [`WindowAggregator`] per series; this module owns the accumulator
//! semantics so they can be tested in isolation.

use super::ast::{Aggregation, Fill};
use crate::column::{BlockSummary, NumericSummary};
use crate::field::FieldValue;
use crate::series::SeriesKey;
use monster_util::EpochSecs;
use std::sync::Arc;

/// One series' query output.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesResult {
    /// The series this row belongs to: the index's own key, shared.
    pub key: Arc<SeriesKey>,
    /// `(window start, value)` pairs in ascending time order. For raw
    /// (non-aggregated) queries, the original timestamps and values.
    pub points: Vec<(EpochSecs, FieldValue)>,
}

/// A query's full result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Per-series results, ordered by series key.
    pub series: Vec<SeriesResult>,
}

impl ResultSet {
    /// Total points across all series.
    pub fn point_count(&self) -> usize {
        self.series.iter().map(|s| s.points.len()).sum()
    }
}

/// Numeric accumulator for one window.
#[derive(Debug, Clone, Copy)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    first_ts: i64,
    first: f64,
    last_ts: i64,
    last: f64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            first_ts: i64::MAX,
            first: 0.0,
            last_ts: i64::MIN,
            last: 0.0,
        }
    }

    fn push(&mut self, ts: i64, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if ts < self.first_ts {
            self.first_ts = ts;
            self.first = v;
        }
        if ts >= self.last_ts {
            self.last_ts = ts;
            self.last = v;
        }
    }

    /// Merge a sealed block's pre-folded summary, exactly as if the
    /// block's points had been pushed in append order after everything
    /// already absorbed: the block fold uses `push`'s arithmetic and this
    /// merge preserves its tie-breaking (`first` keeps the earlier
    /// arrival on equal timestamps, `last` takes the later one).
    fn merge(&mut self, count: usize, n: &NumericSummary) {
        self.count += count as u64;
        self.sum += n.sum;
        self.min = self.min.min(n.min);
        self.max = self.max.max(n.max);
        if n.first_ts < self.first_ts {
            self.first_ts = n.first_ts;
            self.first = n.first;
        }
        if n.last_ts >= self.last_ts {
            self.last_ts = n.last_ts;
            self.last = n.last;
        }
    }

    fn finish(&self, agg: Aggregation) -> f64 {
        match agg {
            Aggregation::Max => self.max,
            Aggregation::Min => self.min,
            Aggregation::Mean => self.sum / self.count as f64,
            Aggregation::Sum => self.sum,
            Aggregation::Count => self.count as f64,
            Aggregation::First => self.first,
            Aggregation::Last => self.last,
        }
    }
}

/// Buckets `(ts, value)` pairs into fixed windows and finishes them into
/// aggregated points. Windows with no data are omitted (InfluxDB's
/// default null-window behaviour).
#[derive(Debug)]
pub struct WindowAggregator {
    agg: Aggregation,
    /// Window length in seconds; `None` = single whole-range window.
    window: Option<i64>,
    range_start: i64,
    /// `(window start, accumulator)`, ascending.
    buckets: Vec<(i64, Acc)>,
    /// Non-numeric values count toward `count` but have no numeric stats.
    non_numeric: u64,
}

impl WindowAggregator {
    /// Create an aggregator for a query range starting at `range_start`.
    pub fn new(agg: Aggregation, window: Option<i64>, range_start: i64) -> Self {
        WindowAggregator { agg, window, range_start, buckets: Vec::new(), non_numeric: 0 }
    }

    /// Start over on another series, of this query or the next, keeping the
    /// buckets' allocation.
    pub fn restart(&mut self, agg: Aggregation, window: Option<i64>, range_start: i64) {
        (self.agg, self.window, self.range_start, self.non_numeric) = (agg, window, range_start, 0);
        self.buckets.clear();
    }

    /// Window start for a timestamp. Windows are aligned to the epoch
    /// (InfluxDB aligns `GROUP BY time` buckets absolutely, not to the
    /// query start).
    fn bucket_of(&self, ts: i64) -> i64 {
        match self.window {
            Some(w) => ts.div_euclid(w) * w,
            None => self.range_start,
        }
    }

    /// The accumulator of `ts`'s window: the last bucket or a new one after
    /// it while points arrive in time order (a scan's do), searched for if not.
    fn acc(&mut self, ts: i64) -> &mut Acc {
        let bucket = self.bucket_of(ts);
        let (len, last) = (self.buckets.len(), self.buckets.last().map(|b| b.0));
        let found = match last {
            Some(last) if last == bucket => Ok(len - 1),
            Some(last) if last > bucket => self.buckets.binary_search_by_key(&bucket, |b| b.0),
            _ => Err(len),
        };
        let at = found.unwrap_or_else(|at| {
            self.buckets.insert(at, (bucket, Acc::new()));
            at
        });
        &mut self.buckets[at].1
    }

    /// Feed one point.
    pub fn push(&mut self, ts: i64, v: &FieldValue) {
        match v.as_f64() {
            Some(x) => self.acc(ts).push(ts, x),
            None => {
                if self.agg == Aggregation::Count {
                    self.acc(ts).push(ts, 0.0);
                } else {
                    self.non_numeric += 1;
                }
            }
        }
    }

    /// Feed a whole sealed block's zone-map summary (aggregation
    /// pushdown). The caller guarantees the block lies entirely inside one
    /// aggregation window — [`crate::column::BlockSummary::usable_for`] —
    /// so the merge lands in a single bucket. `count` over non-numeric
    /// blocks merges an all-zeros fold, mirroring the `(ts, 0.0)` pushes
    /// of the per-point path; other aggregations never receive
    /// non-numeric partials (the scan decodes those blocks instead).
    pub fn push_partial(&mut self, s: &BlockSummary) {
        match &s.numeric {
            Some(n) => self.acc(s.ts_min).merge(s.count, n),
            None if self.agg == Aggregation::Count => {
                let zeros = NumericSummary {
                    min: 0.0,
                    max: 0.0,
                    sum: 0.0,
                    first_ts: s.ts_min,
                    first: 0.0,
                    last_ts: s.ts_max,
                    last: 0.0,
                };
                self.acc(s.ts_min).merge(s.count, &zeros);
            }
            None => self.non_numeric += s.count as u64,
        }
    }

    /// Number of points that could not be aggregated numerically.
    pub fn non_numeric(&self) -> u64 {
        self.non_numeric
    }

    /// Finish into ordered `(window, value)` points.
    pub fn finish(&self) -> Vec<(EpochSecs, FieldValue)> {
        self.finish_filled(Fill::None, i64::MIN, i64::MAX)
    }

    /// Finish with an empty-window policy over the query range
    /// `[range_start, range_end)`.
    pub fn finish_filled(
        &self,
        fill: Fill,
        range_start: i64,
        range_end: i64,
    ) -> Vec<(EpochSecs, FieldValue)> {
        let agg = self.agg;
        let point = |(t, v): (i64, f64)| (EpochSecs::new(t), FieldValue::Float(v));
        let present = self.buckets.iter().map(|(w, acc)| (*w, acc.finish(agg)));
        let points: Vec<(i64, f64)> = match (fill, self.window) {
            // What every dashboard query asks for: the output is built once.
            (Fill::None, _) | (_, None) => return present.map(point).collect(),
            (policy, Some(w)) => {
                let present: Vec<(i64, f64)> = present.collect();
                if present.is_empty() {
                    match policy {
                        // fill(0) materializes every window in range.
                        Fill::Zero => {
                            let first = range_start.div_euclid(w) * w;
                            let mut out = Vec::new();
                            let mut t = first.max(range_start - w + 1);
                            // Align to window boundary ≥ first window.
                            t = t.div_euclid(w) * w;
                            while t < range_end {
                                out.push((t, 0.0));
                                t += w;
                            }
                            out
                        }
                        _ => Vec::new(),
                    }
                } else {
                    let lo = match policy {
                        Fill::Zero => range_start.div_euclid(w) * w,
                        // previous/linear: start at the first real window.
                        _ => present[0].0,
                    };
                    let hi = match policy {
                        Fill::Zero => (range_end - 1).div_euclid(w) * w,
                        Fill::Previous => (range_end - 1).div_euclid(w) * w,
                        // linear: stop at the last real window.
                        _ => present[present.len() - 1].0,
                    };
                    let mut out = Vec::new();
                    let mut idx = 0usize;
                    let mut t = lo;
                    while t <= hi {
                        if idx < present.len() && present[idx].0 == t {
                            out.push(present[idx]);
                            idx += 1;
                        } else {
                            let v = match policy {
                                Fill::Zero => 0.0,
                                Fill::Previous => out.last().map(|&(_, v)| v).unwrap_or(0.0),
                                Fill::Linear => {
                                    let (t0, v0) = *out.last().expect("lo starts on data");
                                    let (t1, v1) = present[idx];
                                    v0 + (v1 - v0) * (t - t0) as f64 / (t1 - t0) as f64
                                }
                                Fill::None => unreachable!("handled above"),
                            };
                            out.push((t, v));
                        }
                        t += w;
                    }
                    out
                }
            }
        };
        points.into_iter().map(point).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(agg: Aggregation, window: Option<i64>, pts: &[(i64, f64)]) -> Vec<(i64, f64)> {
        let mut w = WindowAggregator::new(agg, window, 0);
        for &(t, v) in pts {
            w.push(t, &FieldValue::Float(v));
        }
        w.finish().into_iter().map(|(t, v)| (t.as_secs(), v.as_f64().unwrap())).collect()
    }

    #[test]
    fn max_per_window() {
        let pts = [(0, 1.0), (100, 5.0), (299, 2.0), (300, 9.0), (599, 3.0)];
        let out = run(Aggregation::Max, Some(300), &pts);
        assert_eq!(out, vec![(0, 5.0), (300, 9.0)]);
    }

    #[test]
    fn all_aggregations_on_one_window() {
        let pts = [(10, 4.0), (20, 1.0), (30, 7.0)];
        assert_eq!(run(Aggregation::Min, None, &pts), vec![(0, 1.0)]);
        assert_eq!(run(Aggregation::Max, None, &pts), vec![(0, 7.0)]);
        assert_eq!(run(Aggregation::Sum, None, &pts), vec![(0, 12.0)]);
        assert_eq!(run(Aggregation::Mean, None, &pts), vec![(0, 4.0)]);
        assert_eq!(run(Aggregation::Count, None, &pts), vec![(0, 3.0)]);
        assert_eq!(run(Aggregation::First, None, &pts), vec![(0, 4.0)]);
        assert_eq!(run(Aggregation::Last, None, &pts), vec![(0, 7.0)]);
    }

    #[test]
    fn first_last_use_timestamps_not_arrival_order() {
        let pts = [(30, 7.0), (10, 4.0), (20, 1.0)]; // out of order
        assert_eq!(run(Aggregation::First, None, &pts), vec![(0, 4.0)]);
        assert_eq!(run(Aggregation::Last, None, &pts), vec![(0, 7.0)]);
    }

    #[test]
    fn out_of_order_pushes_finish_in_bucket_order() {
        let in_order = [(5, 1.0), (70, 2.0), (100, 8.0), (130, 3.0), (185, 4.0), (250, 6.0)];
        let shuffled = [(130, 3.0), (250, 6.0), (5, 1.0), (185, 4.0), (70, 2.0), (100, 8.0)];
        for agg in [Aggregation::Max, Aggregation::Sum, Aggregation::First, Aggregation::Last] {
            let want = run(agg, Some(60), &in_order);
            assert_eq!(want.iter().map(|p| p.0).collect::<Vec<_>>(), [0, 60, 120, 180, 240]);
            assert_eq!(run(agg, Some(60), &shuffled), want, "{agg:?}");
        }
    }

    #[test]
    fn a_restarted_aggregator_carries_nothing_over() {
        let mut reused = WindowAggregator::new(Aggregation::Count, None, 0);
        reused.push(10, &FieldValue::Str("a".into()));
        reused.push(900, &FieldValue::Float(1.0));
        reused.restart(Aggregation::Max, Some(300), 0);
        let mut fresh = WindowAggregator::new(Aggregation::Max, Some(300), 0);
        for w in [&mut reused, &mut fresh] {
            w.push(20, &FieldValue::Str("b".into()));
            w.push(310, &FieldValue::Float(4.0));
        }
        assert_eq!(reused.non_numeric(), 1);
        assert_eq!(reused.finish(), fresh.finish());
        assert_eq!(fresh.finish().len(), 1, "finishing leaves the buckets where they are");
    }

    #[test]
    fn empty_windows_are_omitted() {
        let pts = [(0, 1.0), (900, 2.0)];
        let out = run(Aggregation::Mean, Some(300), &pts);
        assert_eq!(out, vec![(0, 1.0), (900, 2.0)]);
    }

    #[test]
    fn windows_align_to_epoch_not_range_start() {
        let mut w = WindowAggregator::new(Aggregation::Max, Some(300), 450);
        w.push(451, &FieldValue::Float(1.0));
        let out = w.finish();
        assert_eq!(out[0].0.as_secs(), 300);
    }

    #[test]
    fn negative_timestamps_bucket_correctly() {
        let out = run(Aggregation::Count, Some(300), &[(-1, 1.0), (-300, 1.0), (-301, 1.0)]);
        assert_eq!(out, vec![(-600, 1.0), (-300, 2.0)]);
    }

    #[test]
    fn count_includes_strings_others_skip_them() {
        let mut w = WindowAggregator::new(Aggregation::Count, None, 0);
        w.push(1, &FieldValue::Str("['123']".into()));
        w.push(2, &FieldValue::Float(1.0));
        assert_eq!(w.finish()[0].1.as_f64(), Some(2.0));

        let mut w = WindowAggregator::new(Aggregation::Max, None, 0);
        w.push(1, &FieldValue::Str("x".into()));
        w.push(2, &FieldValue::Float(5.0));
        assert_eq!(w.non_numeric(), 1);
        assert_eq!(w.finish()[0].1.as_f64(), Some(5.0));
    }

    #[test]
    fn int_fields_aggregate_numerically() {
        let mut w = WindowAggregator::new(Aggregation::Mean, None, 0);
        w.push(1, &FieldValue::Int(4));
        w.push(2, &FieldValue::Int(6));
        assert_eq!(w.finish()[0].1.as_f64(), Some(5.0));
    }

    #[test]
    fn partial_merge_matches_per_point_pushes_bit_for_bit() {
        // Awkward float values whose sum depends on association order: the
        // fold + merge path must reproduce the per-point fold exactly.
        let pts: Vec<(i64, f64)> =
            (0..50).map(|i| (100 + i, 0.1 + i as f64 * 1e-13 + (i % 7) as f64 * 1e7)).collect();
        let ts: Vec<i64> = pts.iter().map(|&(t, _)| t).collect();
        let summary = BlockSummary {
            count: pts.len(),
            ts_min: 100,
            ts_max: 149,
            numeric: Some(NumericSummary::fold(&ts, pts.iter().map(|&(_, v)| v))),
        };
        for agg in [
            Aggregation::Max,
            Aggregation::Min,
            Aggregation::Mean,
            Aggregation::Sum,
            Aggregation::Count,
            Aggregation::First,
            Aggregation::Last,
        ] {
            // Whole block in one window, empty bucket before the merge —
            // the contract scan_agg eligibility guarantees.
            let mut per_point = WindowAggregator::new(agg, Some(300), 0);
            for &(t, v) in &pts {
                per_point.push(t, &FieldValue::Float(v));
            }
            let mut merged = WindowAggregator::new(agg, Some(300), 0);
            merged.push_partial(&summary);
            assert_eq!(per_point.finish(), merged.finish(), "agg {agg:?}");
        }
    }

    #[test]
    fn count_partial_over_non_numeric_block() {
        let s = BlockSummary { count: 7, ts_min: 10, ts_max: 60, numeric: None };
        let mut w = WindowAggregator::new(Aggregation::Count, Some(300), 0);
        w.push_partial(&s);
        assert_eq!(w.finish(), vec![(EpochSecs::new(0), FieldValue::Float(7.0))]);
        // Other aggregations only count the skip, like the per-point path.
        let mut w = WindowAggregator::new(Aggregation::Max, Some(300), 0);
        w.push_partial(&s);
        assert_eq!(w.non_numeric(), 7);
        assert!(w.finish().is_empty());
    }
}
