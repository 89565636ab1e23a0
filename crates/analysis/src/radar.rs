//! Radar-chart profiles: normalized nine-dimensional node state (Fig. 7).

use monster_redfish::sensors::{CPU_TEMP_LABELS, FAN_LABELS, INLET_LABEL};

/// The nine dimensions the radar charts render, in display order: the
/// first seven are the thermal labels the collector stores readings under,
/// the last two the node power and CPU usage (slots used / slots) sections
/// of a served document ([`crate::served`] reads all nine).
pub const METRIC_NAMES: [&str; 9] = {
    let ([cpu1, cpu2], [fan1, fan2, fan3, fan4]) = (CPU_TEMP_LABELS, FAN_LABELS);
    [cpu1, cpu2, INLET_LABEL, fan1, fan2, fan3, fan4, "Power", "CPU Usage"]
};

/// Expected operating ranges per dimension (lo, hi), used to normalize a
/// single node's profile without needing the whole fleet: temperatures in
/// °C, fans in RPM, power in W, CPU usage as a fraction.
pub const DEFAULT_RANGES: [(f64, f64); 9] = [
    (20.0, 100.0),
    (20.0, 100.0),
    (10.0, 40.0),
    (2_000.0, 16_000.0),
    (2_000.0, 16_000.0),
    (2_000.0, 16_000.0),
    (2_000.0, 16_000.0),
    (80.0, 450.0),
    (0.0, 1.0),
];

/// A node's normalized profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RadarProfile {
    /// Node label ("1-31").
    pub node: String,
    /// Raw readings in [`METRIC_NAMES`] order.
    pub raw: [f64; 9],
    /// Normalized readings, each in [0, 1].
    pub normalized: [f64; 9],
}

impl RadarProfile {
    /// Build a profile from raw readings using [`DEFAULT_RANGES`].
    pub fn new(node: impl Into<String>, raw: [f64; 9]) -> Self {
        let mut normalized = [0.0; 9];
        for (i, (&x, &(lo, hi))) in raw.iter().zip(DEFAULT_RANGES.iter()).enumerate() {
            normalized[i] = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
        }
        RadarProfile { node: node.into(), raw, normalized }
    }

    /// The polygon "area" of the radar glyph (normalized, 0..1): the mean
    /// of adjacent-dimension products — a scalar summary of how "hot" the
    /// profile looks.
    pub fn glyph_area(&self) -> f64 {
        let n = self.normalized.len();
        (0..n).map(|i| self.normalized[i] * self.normalized[(i + 1) % n]).sum::<f64>() / n as f64
    }

    /// The Fig. 7 classification: a profile is *critical* when its hottest
    /// CPU is in the top decile of range or CPU usage exceeds 90 %.
    pub fn is_critical(&self) -> bool {
        self.normalized[0].max(self.normalized[1]) > 0.9 || self.normalized[8] > 0.9
    }
}

/// Normalize a whole fleet against its own observed ranges (the
/// fleet-relative normalization the clustering uses).
pub fn fleet_normalized(raw: &[[f64; 9]]) -> Vec<[f64; 9]> {
    if raw.is_empty() {
        return Vec::new();
    }
    let mut lo = [f64::INFINITY; 9];
    let mut hi = [f64::NEG_INFINITY; 9];
    for row in raw {
        for d in 0..9 {
            lo[d] = lo[d].min(row[d]);
            hi[d] = hi[d].max(row[d]);
        }
    }
    raw.iter()
        .map(|row| {
            let mut out = [0.0; 9];
            for d in 0..9 {
                out[d] = if hi[d] > lo[d] { (row[d] - lo[d]) / (hi[d] - lo[d]) } else { 0.5 };
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_node() -> RadarProfile {
        RadarProfile::new("1-30", [45.0, 46.0, 21.0, 4500.0, 4510.0, 4480.0, 4520.0, 180.0, 0.3])
    }

    fn hot_node() -> RadarProfile {
        // Fig. 7's right panel: high CPU temperature and high CPU usage.
        RadarProfile::new(
            "1-31",
            [95.0, 93.0, 24.0, 14500.0, 14400.0, 14600.0, 14550.0, 390.0, 0.95],
        )
    }

    #[test]
    fn normalization_bounds_and_ordering() {
        let n = normal_node();
        let h = hot_node();
        for v in n.normalized.iter().chain(h.normalized.iter()) {
            assert!((0.0..=1.0).contains(v));
        }
        // Hot node dominates on every dimension except inlet.
        for d in [0, 1, 3, 4, 5, 6, 7, 8] {
            assert!(h.normalized[d] > n.normalized[d], "dim {d}");
        }
    }

    #[test]
    fn classification_separates_fig7_cases() {
        assert!(!normal_node().is_critical());
        assert!(hot_node().is_critical());
        // CPU usage alone can trip it.
        let saturated = RadarProfile::new(
            "2-1",
            [50.0, 50.0, 20.0, 5000.0, 5000.0, 5000.0, 5000.0, 200.0, 0.97],
        );
        assert!(saturated.is_critical());
    }

    #[test]
    fn glyph_area_orders_profiles() {
        assert!(hot_node().glyph_area() > normal_node().glyph_area());
        let idle =
            RadarProfile::new("3-1", [20.0, 20.0, 10.0, 2000.0, 2000.0, 2000.0, 2000.0, 80.0, 0.0]);
        assert_eq!(idle.glyph_area(), 0.0);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let p =
            RadarProfile::new("x", [500.0, -40.0, 20.0, 99999.0, 0.0, 5000.0, 5000.0, 200.0, 2.0]);
        assert_eq!(p.normalized[0], 1.0);
        assert_eq!(p.normalized[1], 0.0);
        assert_eq!(p.normalized[3], 1.0);
        assert_eq!(p.normalized[8], 1.0);
    }

    #[test]
    fn fleet_normalization_uses_observed_extremes() {
        let raw = vec![
            [40.0, 40.0, 20.0, 4000.0, 4000.0, 4000.0, 4000.0, 150.0, 0.2],
            [80.0, 80.0, 25.0, 12000.0, 12000.0, 12000.0, 12000.0, 380.0, 0.9],
        ];
        let normed = fleet_normalized(&raw);
        assert_eq!(normed[0][0], 0.0);
        assert_eq!(normed[1][0], 1.0);
        // Degenerate dimension (same value) maps to 0.5.
        let flat = vec![[1.0; 9], [1.0; 9]];
        assert!(fleet_normalized(&flat).iter().all(|r| r.iter().all(|&v| v == 0.5)));
        assert!(fleet_normalized(&[]).is_empty());
    }
}
