//! Fig. 8's historical status trend.
//!
//! One node's metrics over a time window, each sample coloured by the
//! cluster its instantaneous profile belongs to ("the colors indicate the
//! clustering group that the status belongs to in a particular time
//! window").

use crate::kmeans::KMeans;
use monster_util::EpochSecs;

/// One sample on the trend.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Sample time.
    pub time: EpochSecs,
    /// The raw nine-metric profile at that time.
    pub metrics: [f64; 9],
    /// Cluster the profile belongs to (background colour).
    pub cluster: usize,
}

/// A node's historical trend.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrend {
    /// Node label ("1-31").
    pub node: String,
    /// Samples in time order.
    pub points: Vec<TrendPoint>,
}

impl NodeTrend {
    /// Build a trend by classifying each historical sample against a
    /// fitted fleet clustering.
    pub fn build(
        node: impl Into<String>,
        samples: &[(EpochSecs, [f64; 9])],
        clustering: &KMeans,
    ) -> NodeTrend {
        let mut points: Vec<TrendPoint> = samples
            .iter()
            .map(|(t, m)| TrendPoint { time: *t, metrics: *m, cluster: clustering.predict(m) })
            .collect();
        points.sort_by_key(|p| p.time);
        NodeTrend { node: node.into(), points }
    }

    /// Contiguous runs of the same cluster: `(start, end, cluster)` —
    /// the coloured background bands of Fig. 8.
    pub fn bands(&self) -> Vec<(EpochSecs, EpochSecs, usize)> {
        let mut bands = Vec::new();
        let mut iter = self.points.iter();
        let Some(first) = iter.next() else { return bands };
        let mut start = first.time;
        let mut last = first.time;
        let mut cluster = first.cluster;
        for p in iter {
            if p.cluster != cluster {
                bands.push((start, p.time, cluster));
                start = p.time;
                cluster = p.cluster;
            }
            last = p.time;
        }
        bands.push((start, last, cluster));
        bands
    }

    /// Extract one metric's series (for the line charts of Fig. 8).
    pub fn metric_series(&self, dimension: usize) -> Vec<(EpochSecs, f64)> {
        assert!(dimension < 9);
        self.points.iter().map(|p| (p.time, p.metrics[dimension])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustering() -> KMeans {
        // Two regimes: idle-ish and hot.
        let mut data = Vec::new();
        for i in 0..30 {
            let j = i as f64 * 0.01;
            data.push(vec![40.0 + j, 41.0, 20.0, 4000.0, 4000.0, 4000.0, 4000.0, 150.0, 0.2]);
            data.push(vec![85.0 + j, 86.0, 24.0, 14000.0, 14000.0, 14000.0, 14000.0, 380.0, 0.9]);
        }
        KMeans::fit(&data, 2)
    }

    fn idle(t: i64) -> (EpochSecs, [f64; 9]) {
        (EpochSecs::new(t), [41.0, 41.5, 20.0, 4100.0, 4000.0, 4050.0, 4020.0, 155.0, 0.25])
    }

    fn hot(t: i64) -> (EpochSecs, [f64; 9]) {
        (EpochSecs::new(t), [86.0, 87.0, 24.0, 13900.0, 14100.0, 14000.0, 14050.0, 375.0, 0.88])
    }

    #[test]
    fn trend_classifies_each_sample() {
        let km = clustering();
        let samples = vec![idle(0), idle(60), hot(120), hot(180), idle(240)];
        let trend = NodeTrend::build("1-31", &samples, &km);
        assert_eq!(trend.points.len(), 5);
        // Idle samples share a cluster; hot samples share the other.
        let c_idle = trend.points[0].cluster;
        let c_hot = trend.points[2].cluster;
        assert_ne!(c_idle, c_hot);
        assert_eq!(trend.points[1].cluster, c_idle);
        assert_eq!(trend.points[3].cluster, c_hot);
        assert_eq!(trend.points[4].cluster, c_idle);
    }

    #[test]
    fn bands_merge_contiguous_runs() {
        let km = clustering();
        let samples = vec![idle(0), idle(60), hot(120), hot(180), idle(240)];
        let trend = NodeTrend::build("1-31", &samples, &km);
        let bands = trend.bands();
        assert_eq!(bands.len(), 3);
        assert_eq!(bands[0].0, EpochSecs::new(0));
        assert_eq!(bands[1].0, EpochSecs::new(120));
        assert_eq!(bands[2].0, EpochSecs::new(240));
    }

    #[test]
    fn samples_sorted_by_time_regardless_of_input_order() {
        let km = clustering();
        let samples = vec![hot(180), idle(0), hot(120), idle(60)];
        let trend = NodeTrend::build("1-31", &samples, &km);
        let times: Vec<i64> = trend.points.iter().map(|p| p.time.as_secs()).collect();
        assert_eq!(times, vec![0, 60, 120, 180]);
    }

    #[test]
    fn metric_series_extraction() {
        let km = clustering();
        let trend = NodeTrend::build("1-31", &[idle(0), hot(60)], &km);
        let power = trend.metric_series(7);
        assert_eq!(power.len(), 2);
        assert_eq!(power[0].1, 155.0);
        assert_eq!(power[1].1, 375.0);
    }

    #[test]
    fn empty_trend_has_no_bands() {
        let km = clustering();
        let trend = NodeTrend::build("1-31", &[], &km);
        assert!(trend.bands().is_empty());
        assert!(trend.metric_series(0).is_empty());
    }
}
