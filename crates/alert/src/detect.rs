//! Streaming per-series anomaly detectors, run inside the collection path.
//!
//! Every live BMC reading is folded into a small set of per-node signals
//! (hottest CPU socket, inlet temperature, slowest fan, node power) and
//! evaluated by three detectors as it is ingested:
//!
//! * **z-score** — windowed EWMA mean/variance; an observation further
//!   than `z_threshold` EW standard deviations from the baseline for
//!   `raise_after` consecutive samples raises, `clear_after` consecutive
//!   inliers clears. Outliers never pollute the baseline, so an alarm
//!   cannot self-clear while the incident persists.
//! * **rate-of-change** — a single-interval jump larger than the signal's
//!   configured slew bound (a power step no physical load change could
//!   produce, a thermal jump faster than the chassis time constant).
//! * **flatline** — the simulated sensors (like real ones) carry
//!   measurement noise, so a value that repeats *exactly* for
//!   `flatline_after` samples means the sensor is stuck, however plausible
//!   the level looks.
//!
//! Detectors follow the same steady-state discipline as
//! `tsdb::write_batch`: state lives in a flat map keyed by the `Copy` pair
//! `(NodeId, Signal)`, observation is pure arithmetic on that state, and
//! events are appended to a caller-owned scratch vector — a healthy sweep
//! allocates nothing. Everything is a pure function of the readings, so a
//! seeded chaos replay produces byte-identical event streams.

use monster_redfish::types::NodeReading;
use monster_util::{EpochSecs, NodeId};
use std::collections::HashMap;
use std::fmt;

/// The per-node signals the collector derives from raw readings. Keeping
/// the set small and fixed bounds detector cardinality at
/// `4 × nodes` series regardless of socket or fan count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Signal {
    /// Hottest CPU socket temperature, °C.
    CpuTemp,
    /// Chassis inlet temperature, °C.
    InletTemp,
    /// Slowest fan, RPM (a dying fan drags the minimum down first).
    FanSpeed,
    /// Node power draw, W.
    Power,
}

impl Signal {
    /// Every signal, in evaluation order.
    pub const ALL: [Signal; 4] =
        [Signal::CpuTemp, Signal::InletTemp, Signal::FanSpeed, Signal::Power];

    /// Stable lowercase name used in alert labels and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Signal::CpuTemp => "cpu_temp",
            Signal::InletTemp => "inlet_temp",
            Signal::FanSpeed => "fan_speed",
            Signal::Power => "power",
        }
    }

    /// Dense index into per-signal tuning tables.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which detector produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// EWMA z-score excursion.
    ZScore,
    /// Single-interval jump beyond the slew bound.
    RateOfChange,
    /// Exactly repeated value on a noisy sensor.
    Flatline,
}

impl AnomalyKind {
    /// Stable lowercase name used in alert labels and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            AnomalyKind::ZScore => "zscore",
            AnomalyKind::RateOfChange => "rate_of_change",
            AnomalyKind::Flatline => "flatline",
        }
    }
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-signal detector floors. Signals live in wildly different units
/// (°C, RPM, W) and have wildly different *legitimate* dynamics — a job
/// start swings node power by ~280 W and fans by ~8000 RPM within one
/// collection interval, entirely healthy. The floors sit above the
/// largest load-driven transient so scheduling never alarms, while faults
/// the physics cannot explain still do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalTuning {
    /// Absolute deviation floor: differences smaller than this are never
    /// z-score anomalous, however tight the variance.
    pub min_deviation: f64,
    /// Single-interval jump (absolute, in the signal's unit) that trips
    /// the rate-of-change detector. `f64::INFINITY` disables it.
    pub rate_threshold: f64,
    /// Exactly repeated samples that trip the flatline detector. Must be
    /// calibrated against the wire quantization: a sensor whose noise is
    /// smaller than the payload's rounding step repeats honestly.
    pub flatline_after: u32,
}

/// Detector tuning. Defaults are deliberately conservative: a calm
/// deployment must stay silent through sensor noise, job starts/stops,
/// and slow drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// EWMA decay per observation (0 < alpha ≤ 1); smaller = longer
    /// memory.
    pub alpha: f64,
    /// Flag when |x − mean| exceeds this many EW standard deviations.
    pub z_threshold: f64,
    /// Consecutive outliers required to raise the z-score alarm.
    pub raise_after: u32,
    /// Consecutive inliers required to clear any alarm.
    pub clear_after: u32,
    /// Observations to absorb before flagging anything (warm-up).
    pub warmup: u32,
    /// Per-signal floors, indexed by [`Signal::index`].
    pub tuning: [SignalTuning; 4],
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            alpha: 0.15,
            z_threshold: 4.5,
            raise_after: 2,
            clear_after: 3,
            warmup: 10,
            tuning: [
                // CpuTemp: the 180 s thermal time constant bounds a
                // legitimate ramp at ~14 °C per 60 s interval.
                SignalTuning { min_deviation: 35.0, rate_threshold: 30.0, flatline_after: 5 },
                // InletTemp: machine-room drift (σ≈0.05 °C/step) is
                // *below* the wire's 0.1 °C rounding, so short exact-repeat
                // runs are honest quantization — a stuck sensor repeats for
                // an hour, a healthy one will not.
                SignalTuning { min_deviation: 6.0, rate_threshold: 8.0, flatline_after: 60 },
                // FanSpeed: fans legitimately slew idle→max (~8000 RPM)
                // inside one interval, so the slew bound is useless —
                // flatline and large z excursions carry this signal.
                SignalTuning {
                    min_deviation: 9000.0,
                    rate_threshold: f64::INFINITY,
                    flatline_after: 5,
                },
                // Power: idle→peak under load is ~280 W and near-instant;
                // anything past these floors is electrically wrong.
                SignalTuning { min_deviation: 320.0, rate_threshold: 400.0, flatline_after: 5 },
            ],
        }
    }
}

impl DetectorConfig {
    /// A config with the same floors for all four signals — unit tests
    /// and single-signal pipelines.
    pub fn uniform(min_deviation: f64, rate_threshold: f64) -> DetectorConfig {
        DetectorConfig {
            tuning: [SignalTuning { min_deviation, rate_threshold, flatline_after: 5 }; 4],
            ..DetectorConfig::default()
        }
    }
}

/// A typed anomaly transition emitted by one detector on one series.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// Node the series belongs to.
    pub node: NodeId,
    /// Which derived signal.
    pub signal: Signal,
    /// Which detector fired.
    pub kind: AnomalyKind,
    /// True = anomaly began; false = anomaly ended.
    pub raised: bool,
    /// Observation time (the collection interval's `now`).
    pub time: EpochSecs,
    /// The observation that completed the transition.
    pub value: f64,
    /// The detector's baseline at that moment (EW mean for z-score, the
    /// previous sample for rate-of-change/flatline).
    pub expected: f64,
    /// The distributed-trace context of the reading that fired, linking
    /// the alert back to the exact sweep in `/debug/trace`.
    pub trace: Option<monster_obs::TraceContext>,
}

/// Per-(node, signal) detector state: one EWMA tracker plus hysteresis
/// runs for each detector kind. Fixed-size and `Copy`-friendly — updating
/// it never allocates.
#[derive(Debug, Clone)]
struct SeriesState {
    mean: f64,
    var: f64,
    seen: u32,
    last: f64,
    outlier_run: u32,
    inlier_run: u32,
    z_alarmed: bool,
    rate_calm_run: u32,
    rate_alarmed: bool,
    flat_run: u32,
    flat_alarmed: bool,
}

impl SeriesState {
    fn new(value: f64) -> SeriesState {
        SeriesState {
            mean: value,
            var: 0.0,
            seen: 0,
            last: value,
            outlier_run: 0,
            inlier_run: 0,
            z_alarmed: false,
            rate_calm_run: 0,
            rate_alarmed: false,
            flat_run: 0,
            flat_alarmed: false,
        }
    }
}

/// The collector-side detector bank: independent [`SeriesState`]s per
/// `(node, signal)`, fed every live reading as it is ingested.
#[derive(Debug)]
pub struct DetectorBank {
    config: DetectorConfig,
    series: HashMap<(NodeId, Signal), SeriesState>,
}

impl DetectorBank {
    /// A bank with the given tuning.
    pub fn new(config: DetectorConfig) -> DetectorBank {
        DetectorBank { config, series: HashMap::new() }
    }

    /// Fold one live reading into the bank, appending any transitions to
    /// `events`. Health readings carry no numeric signal and are ignored
    /// (health alerting flows through the engine's own rules).
    pub fn observe_reading(
        &mut self,
        node: NodeId,
        reading: &NodeReading,
        time: EpochSecs,
        trace: Option<monster_obs::TraceContext>,
        events: &mut Vec<AnomalyEvent>,
    ) {
        match reading {
            NodeReading::Thermal { cpu_temps, inlet, fans } => {
                if let Some(hottest) = cpu_temps.iter().copied().reduce(f64::max) {
                    self.observe(node, Signal::CpuTemp, hottest, time, trace, events);
                }
                self.observe(node, Signal::InletTemp, *inlet, time, trace, events);
                if let Some(slowest) = fans.iter().copied().reduce(f64::min) {
                    self.observe(node, Signal::FanSpeed, slowest, time, trace, events);
                }
            }
            NodeReading::Power { usage_watts, .. } => {
                self.observe(node, Signal::Power, *usage_watts, time, trace, events);
            }
            NodeReading::Manager { .. } | NodeReading::System { .. } => {}
        }
    }

    /// Feed one observation of one signal directly (tests and non-Redfish
    /// pipelines).
    pub fn observe(
        &mut self,
        node: NodeId,
        signal: Signal,
        value: f64,
        time: EpochSecs,
        trace: Option<monster_obs::TraceContext>,
        events: &mut Vec<AnomalyEvent>,
    ) {
        if !value.is_finite() {
            return;
        }
        let c = self.config;
        let t = c.tuning[signal.index()];
        let s = self.series.entry((node, signal)).or_insert_with(|| SeriesState::new(value));
        s.seen += 1;
        let warm = s.seen > c.warmup;
        let prev = s.last;

        let mut emit = |raised: bool, kind: AnomalyKind, expected: f64| {
            events.push(AnomalyEvent { node, signal, kind, raised, time, value, expected, trace });
        };

        // --- flatline: exact repeats on a noisy sensor ---
        if s.seen > 1 && value == prev {
            s.flat_run += 1;
        } else {
            s.flat_run = 0;
            if s.flat_alarmed {
                s.flat_alarmed = false;
                emit(false, AnomalyKind::Flatline, prev);
            }
        }
        if warm && !s.flat_alarmed && s.flat_run >= t.flatline_after {
            s.flat_alarmed = true;
            emit(true, AnomalyKind::Flatline, prev);
        }

        // --- rate-of-change: single-interval slew bound ---
        let jump = (value - prev).abs();
        if warm && jump > t.rate_threshold {
            s.rate_calm_run = 0;
            if !s.rate_alarmed {
                s.rate_alarmed = true;
                emit(true, AnomalyKind::RateOfChange, prev);
            }
        } else if s.rate_alarmed {
            s.rate_calm_run += 1;
            if s.rate_calm_run >= c.clear_after {
                s.rate_alarmed = false;
                s.rate_calm_run = 0;
                emit(false, AnomalyKind::RateOfChange, prev);
            }
        }

        // --- z-score: EWMA mean/variance with hysteresis ---
        let deviation = (value - s.mean).abs();
        let sigma = s.var.sqrt().max(t.min_deviation / c.z_threshold);
        let is_outlier = warm && deviation > c.z_threshold * sigma && deviation > t.min_deviation;
        if is_outlier {
            s.outlier_run += 1;
            s.inlier_run = 0;
            if !s.z_alarmed && s.outlier_run >= c.raise_after {
                s.z_alarmed = true;
                emit(true, AnomalyKind::ZScore, s.mean);
            }
            // Outliers do not pollute the baseline.
        } else {
            s.inlier_run += 1;
            s.outlier_run = 0;
            if s.z_alarmed && s.inlier_run >= c.clear_after {
                s.z_alarmed = false;
                emit(false, AnomalyKind::ZScore, s.mean);
            }
            let delta = value - s.mean;
            s.mean += c.alpha * delta;
            s.var = (1.0 - c.alpha) * (s.var + c.alpha * delta * delta);
        }

        s.last = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeId {
        NodeId::new(1, 1)
    }

    fn feed(
        bank: &mut DetectorBank,
        signal: Signal,
        values: impl IntoIterator<Item = f64>,
    ) -> Vec<AnomalyEvent> {
        let mut events = Vec::new();
        for (i, v) in values.into_iter().enumerate() {
            bank.observe(node(), signal, v, EpochSecs::new(i as i64 * 60), None, &mut events);
        }
        events
    }

    /// A noisy-but-steady baseline: 270 W ± small deterministic wiggle.
    fn steady(n: usize) -> impl Iterator<Item = f64> {
        (0..n).map(|i| 270.0 + ((i * 7) % 13) as f64 * 0.5)
    }

    #[test]
    fn steady_noisy_signal_stays_silent() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        let events = feed(&mut bank, Signal::Power, steady(200));
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(bank.series.len(), 1);
    }

    #[test]
    fn zscore_step_raises_then_clears() {
        let mut bank = DetectorBank::new(DetectorConfig::uniform(8.0, f64::INFINITY));
        let series: Vec<f64> = steady(50).chain((0..5).map(|_| 400.0)).chain(steady(50)).collect();
        let events = feed(&mut bank, Signal::Power, series);
        let z: Vec<&AnomalyEvent> =
            events.iter().filter(|e| e.kind == AnomalyKind::ZScore).collect();
        assert_eq!(z.len(), 2, "{events:?}");
        assert!(z[0].raised && z[0].value > 390.0);
        assert!(!z[1].raised);
        let s = &bank.series[&(node(), Signal::Power)];
        assert!(!(s.z_alarmed || s.rate_alarmed || s.flat_alarmed));
    }

    #[test]
    fn zscore_baseline_frozen_during_incident() {
        let mut bank = DetectorBank::new(DetectorConfig::uniform(8.0, f64::INFINITY));
        let series: Vec<f64> = steady(50).chain((0..60).map(|_| 400.0)).collect();
        let events = feed(&mut bank, Signal::Power, series);
        // One raise; the alarm must not self-clear while the incident
        // persists (a constant 400 W also trips flatline — filter to z).
        let z: Vec<&AnomalyEvent> =
            events.iter().filter(|e| e.kind == AnomalyKind::ZScore).collect();
        assert_eq!(z.len(), 1, "{z:?}");
        assert!(z[0].raised);
    }

    #[test]
    fn single_glitch_is_debounced() {
        let mut bank = DetectorBank::new(DetectorConfig::uniform(8.0, f64::INFINITY));
        let series: Vec<f64> = steady(25).chain([430.0]).chain(steady(25)).collect();
        let events = feed(&mut bank, Signal::Power, series);
        assert!(events.is_empty(), "one-sample glitch alarmed: {events:?}");
    }

    #[test]
    fn rate_of_change_fires_on_impossible_jump() {
        let mut bank = DetectorBank::new(DetectorConfig::uniform(f64::INFINITY, 150.0));
        let series: Vec<f64> = steady(20).chain([480.0]).chain(steady(20)).collect();
        let events = feed(&mut bank, Signal::Power, series);
        let rate: Vec<&AnomalyEvent> =
            events.iter().filter(|e| e.kind == AnomalyKind::RateOfChange).collect();
        // The jump up fires; the jump back down keeps it alarmed (still
        // slewing); the steady tail clears it.
        assert_eq!(rate.len(), 2, "{events:?}");
        assert!(rate[0].raised);
        assert!((rate[0].value - 480.0).abs() < 1e-9);
        assert!(!rate[1].raised);
    }

    #[test]
    fn flatline_fires_on_exact_repeats_only() {
        let mut bank = DetectorBank::new(DetectorConfig::uniform(f64::INFINITY, f64::INFINITY));
        // Noisy warm-up, then the sensor sticks at its last value.
        let series: Vec<f64> = steady(20).chain((0..10).map(|_| 271.25)).chain(steady(5)).collect();
        let events = feed(&mut bank, Signal::Power, series);
        let flat: Vec<&AnomalyEvent> =
            events.iter().filter(|e| e.kind == AnomalyKind::Flatline).collect();
        assert_eq!(flat.len(), 2, "{events:?}");
        assert!(flat[0].raised);
        assert!(!flat[1].raised);
    }

    #[test]
    fn warmup_suppresses_everything() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        let events = feed(&mut bank, Signal::Power, [100.0, 900.0, 50.0, 800.0, 120.0]);
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn slow_drift_tracks_without_alarm() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        let events = feed(&mut bank, Signal::CpuTemp, (0..300).map(|i| 40.0 + i as f64 * 0.1));
        assert!(events.is_empty(), "drift alarmed: {events:?}");
    }

    #[test]
    fn readings_fan_out_to_signals() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        let mut events = Vec::new();
        let reading = NodeReading::Thermal {
            cpu_temps: vec![55.0, 61.0],
            inlet: 20.0,
            fans: vec![4000.0, 3800.0],
        };
        bank.observe_reading(node(), &reading, EpochSecs::new(0), None, &mut events);
        bank.observe_reading(
            node(),
            &NodeReading::Power { usage_watts: 260.0, voltages: vec![12.0] },
            EpochSecs::new(0),
            None,
            &mut events,
        );
        assert_eq!(bank.series.len(), 4);
        assert!(events.is_empty());
    }

    #[test]
    fn series_are_independent_and_deterministic() {
        let run = || {
            let mut bank = DetectorBank::new(DetectorConfig::uniform(8.0, 150.0));
            let mut events = Vec::new();
            for i in 0..80i64 {
                let hot = if (30..35).contains(&i) { 450.0 } else { 260.0 + (i % 5) as f64 };
                bank.observe(
                    NodeId::new(1, 1),
                    Signal::Power,
                    hot,
                    EpochSecs::new(i * 60),
                    None,
                    &mut events,
                );
                bank.observe(
                    NodeId::new(1, 2),
                    Signal::Power,
                    260.0 + (i % 5) as f64,
                    EpochSecs::new(i * 60),
                    None,
                    &mut events,
                );
            }
            events
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "detector stream not deterministic");
        assert!(a.iter().any(|e| e.raised && e.node == NodeId::new(1, 1)));
        assert!(a.iter().all(|e| e.node != NodeId::new(1, 2)), "quiet node alarmed");
    }
}
