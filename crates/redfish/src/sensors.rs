//! Per-node physical sensor dynamics.
//!
//! The simulated substitute for real silicon: each node carries a small
//! first-order thermal/power model driven by its scheduler load. The model
//! is deliberately simple but preserves the correlations the paper's
//! analysis tools rely on (Figs. 7–9): hot CPUs ⇒ fast fans ⇒ flagged
//! health; busy nodes ⇒ high power.

use crate::types::HealthState;
use monster_sim::SimRng;

/// Number of CPU sockets per node (Quanah's C6320 sleds are dual-socket).
pub const CPUS_PER_NODE: usize = 2;
/// Fans per node (Table I lists Fan 1–4).
pub const FANS_PER_NODE: usize = 4;
/// Voltage rails reported by the PSU.
pub const VOLTAGE_RAILS: [f64; 3] = [12.0, 5.0, 3.3];
/// The sensors' names, one a sensor the fleet has: what a payload calls a
/// CPU or a fan, and the `Label` a point stores for it and for a rail.
pub const CPU_TEMP_LABELS: [&str; CPUS_PER_NODE] = ["CPU1 Temp", "CPU2 Temp"];
/// See [`CPU_TEMP_LABELS`].
pub const FAN_LABELS: [&str; FANS_PER_NODE] = ["Fan 1", "Fan 2", "Fan 3", "Fan 4"];
/// See [`CPU_TEMP_LABELS`].
pub const VOLTAGE_LABELS: [&str; VOLTAGE_RAILS.len()] = ["Voltage 1", "Voltage 2", "Voltage 3"];

/// Idle and peak operating points for the power model (W).
const POWER_IDLE: f64 = 118.0;
const POWER_PEAK: f64 = 395.0;
/// Idle and loaded CPU temperature targets (°C).
const TEMP_IDLE: f64 = 36.0;
const TEMP_LOADED: f64 = 84.0;
/// Health thresholds on CPU temperature (°C).
const TEMP_WARNING: f64 = 88.0;
const TEMP_CRITICAL: f64 = 97.0;

/// One node's live sensor state.
#[derive(Debug, Clone)]
pub struct NodeSensors {
    /// Current CPU utilization driving the model, 0..=1.
    pub load: f64,
    /// Per-socket CPU temperatures (°C).
    pub cpu_temps: [f64; CPUS_PER_NODE],
    /// Chassis inlet temperature (°C).
    pub inlet: f64,
    /// Fan speeds (RPM).
    pub fans: [f64; FANS_PER_NODE],
    /// Node power draw (W).
    pub power: f64,
    /// Additive fault injection on the power rail (W): a shorted VRM or
    /// runaway component that physical load cannot explain. Zero in
    /// healthy operation; the chaos harness and detector tests set it.
    pub power_offset: f64,
    /// Host health (derived from temperatures).
    pub host_health: HealthState,
    /// BMC health (rare independent hiccups).
    pub bmc_health: HealthState,
    /// A per-socket offset making sockets distinguishable.
    socket_bias: [f64; CPUS_PER_NODE],
}

impl NodeSensors {
    /// A node at idle equilibrium, with small per-node parameter jitter
    /// drawn from `rng`.
    pub fn new(rng: &mut SimRng) -> Self {
        let inlet = rng.uniform(17.0, 23.0);
        let socket_bias = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)];
        NodeSensors {
            load: 0.0,
            cpu_temps: [TEMP_IDLE + socket_bias[0], TEMP_IDLE + socket_bias[1]],
            inlet,
            fans: [4400.0; FANS_PER_NODE],
            power: POWER_IDLE,
            power_offset: 0.0,
            host_health: HealthState::Ok,
            bmc_health: HealthState::Ok,
            socket_bias,
        }
    }

    /// Advance the model by one collection interval under utilization
    /// `load` (0..=1). `dt_secs` scales the first-order approach rate.
    pub fn step(&mut self, load: f64, dt_secs: f64, rng: &mut SimRng) {
        let load = load.clamp(0.0, 1.0);
        self.load = load;
        // Thermal time constant ~180 s: alpha per step.
        let alpha = (dt_secs / 180.0).clamp(0.0, 1.0);

        // Inlet drifts slowly with machine-room conditions.
        self.inlet += rng.normal(0.0, 0.05);
        self.inlet = self.inlet.clamp(15.0, 30.0);

        for (i, t) in self.cpu_temps.iter_mut().enumerate() {
            let target = TEMP_IDLE
                + (TEMP_LOADED - TEMP_IDLE) * load
                + (self.inlet - 20.0) * 0.6
                + self.socket_bias[i];
            *t += (target - *t) * alpha + rng.normal(0.0, 0.4);
            *t = t.clamp(self.inlet, 105.0);
        }

        // Fans chase the hotter socket.
        let hottest: f64 = self.cpu_temps.iter().copied().fold(f64::MIN, f64::max);
        let fan_target = 4200.0 + 9500.0 * ((hottest - 45.0) / 45.0).clamp(0.0, 1.0);
        for f in self.fans.iter_mut() {
            *f += (fan_target - *f) * (dt_secs / 30.0).clamp(0.0, 1.0) + rng.normal(0.0, 60.0);
            *f = f.clamp(2000.0, 16000.0);
        }

        // Power responds almost instantly to load, plus fan draw.
        let fan_watts = self.fans.iter().sum::<f64>() / (16000.0 * 4.0) * 35.0;
        self.power = POWER_IDLE
            + (POWER_PEAK - POWER_IDLE) * load
            + fan_watts
            + self.power_offset
            + rng.normal(0.0, 4.0);
        self.power = self.power.max(80.0);

        // Health derivation.
        self.host_health = if hottest >= TEMP_CRITICAL {
            HealthState::Critical
        } else if hottest >= TEMP_WARNING {
            HealthState::Warning
        } else {
            HealthState::Ok
        };
        // Rare BMC firmware hiccups, self-healing.
        self.bmc_health = if rng.chance(0.0005) { HealthState::Warning } else { HealthState::Ok };
    }

    /// The nine metrics the radar/clustering analysis consumes (Fig. 7's
    /// nine-dimensional profile): CPU1/CPU2 temp, inlet, 4 fans, power,
    /// and load.
    pub fn nine_metrics(&self) -> [f64; 9] {
        [
            self.cpu_temps[0],
            self.cpu_temps[1],
            self.inlet,
            self.fans[0],
            self.fans[1],
            self.fans[2],
            self.fans[3],
            self.power,
            self.load,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::derive(42, "sensors-test")
    }

    fn settle(s: &mut NodeSensors, load: f64, steps: usize, rng: &mut SimRng) {
        for _ in 0..steps {
            s.step(load, 60.0, rng);
        }
    }

    #[test]
    fn idle_node_is_cool_and_low_power() {
        let mut r = rng();
        let mut s = NodeSensors::new(&mut r);
        settle(&mut s, 0.0, 30, &mut r);
        assert!(s.cpu_temps[0] < 50.0, "idle temp {}", s.cpu_temps[0]);
        assert!(s.power < 180.0, "idle power {}", s.power);
        assert_eq!(s.host_health, HealthState::Ok);
    }

    #[test]
    fn loaded_node_heats_up_and_draws_power() {
        let mut r = rng();
        let mut s = NodeSensors::new(&mut r);
        settle(&mut s, 1.0, 60, &mut r);
        assert!(s.cpu_temps[0] > 70.0, "loaded temp {}", s.cpu_temps[0]);
        assert!(s.power > 300.0, "loaded power {}", s.power);
        // Fans responded.
        assert!(s.fans[0] > 8000.0, "fan {}", s.fans[0]);
    }

    #[test]
    fn load_change_moves_state_monotonically() {
        let mut r = rng();
        let mut s = NodeSensors::new(&mut r);
        settle(&mut s, 0.0, 30, &mut r);
        let idle_power = s.power;
        let idle_temp = s.cpu_temps[0];
        settle(&mut s, 0.9, 60, &mut r);
        assert!(s.power > idle_power + 100.0);
        assert!(s.cpu_temps[0] > idle_temp + 15.0);
        // Back to idle: cools again.
        settle(&mut s, 0.0, 60, &mut r);
        assert!(s.cpu_temps[0] < idle_temp + 12.0);
    }

    #[test]
    fn health_follows_thresholds() {
        let mut r = rng();
        let mut s = NodeSensors::new(&mut r);
        // Force a hot socket directly and step once at full load.
        s.cpu_temps = [99.0, 98.0];
        s.step(1.0, 1.0, &mut r);
        assert_eq!(s.host_health, HealthState::Critical);
        s.cpu_temps = [90.0, 85.0];
        s.step(1.0, 1.0, &mut r);
        assert_ne!(s.host_health, HealthState::Ok);
    }

    #[test]
    fn values_stay_physical_under_noise() {
        let mut r = rng();
        let mut s = NodeSensors::new(&mut r);
        for i in 0..500 {
            let load = ((i % 50) as f64) / 50.0;
            s.step(load, 60.0, &mut r);
            assert!(s.inlet >= 15.0 && s.inlet <= 30.0);
            for t in s.cpu_temps {
                assert!((15.0..=105.0).contains(&t), "temp {t}");
            }
            for f in s.fans {
                assert!((2000.0..=16000.0).contains(&f), "fan {f}");
            }
            assert!(s.power >= 80.0 && s.power < 500.0, "power {}", s.power);
        }
    }

    #[test]
    fn nine_metrics_vector_shape() {
        let mut r = rng();
        let s = NodeSensors::new(&mut r);
        let m = s.nine_metrics();
        assert_eq!(m.len(), 9);
        assert_eq!(m[8], 0.0); // load at init
    }

    #[test]
    fn determinism_same_seed_same_trajectory() {
        let mut r1 = SimRng::derive(7, "bmc/10.101.1.1");
        let mut r2 = SimRng::derive(7, "bmc/10.101.1.1");
        let mut a = NodeSensors::new(&mut r1);
        let mut b = NodeSensors::new(&mut r2);
        for i in 0..50 {
            let load = (i % 10) as f64 / 10.0;
            a.step(load, 60.0, &mut r1);
            b.step(load, 60.0, &mut r2);
        }
        assert_eq!(a.nine_metrics(), b.nine_metrics());
    }
}
