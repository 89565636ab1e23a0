//! The simulated node fleet.
//!
//! Owns one BMC + sensor model per node, with per-node deterministic RNG
//! streams so the fleet's behaviour is identical across runs regardless of
//! thread interleaving. The scheduler simulation drives per-node load; the
//! Redfish client polls concurrently.

use crate::bmc::{Answer, BmcConfig, SimulatedBmc};
use crate::sensors::NodeSensors;
use crate::types::Category;
use monster_json::Value;
use monster_sim::SimRng;
use monster_util::{Error, NodeId, Result};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (the paper's Quanah cluster: 467).
    pub nodes: usize,
    /// Sleds per chassis for the management addressing scheme.
    pub slots_per_chassis: u16,
    /// Master seed for all per-node streams.
    pub seed: u64,
    /// BMC behaviour applied to every node.
    pub bmc: BmcConfig,
    /// Per-node BMC overrides by enumeration index, applied on top of
    /// `bmc` — a heterogeneous fleet (one flaky rack) in one config.
    /// Empty by default.
    pub bmc_overrides: Vec<(usize, BmcConfig)>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 467,
            slots_per_chassis: 4,
            seed: 20_170_101, // Quanah commissioning date
            bmc: BmcConfig::default(),
            bmc_overrides: Vec::new(),
        }
    }
}

impl ClusterConfig {
    /// A small fleet for fast tests.
    pub fn small(nodes: usize, seed: u64) -> Self {
        ClusterConfig { nodes, seed, ..ClusterConfig::default() }
    }
}

struct NodeCell {
    bmc: SimulatedBmc,
    sensors: NodeSensors,
    sensor_rng: SimRng,
}

/// The fleet. All methods take `&self`; per-node state is individually
/// locked so concurrent polling scales.
pub struct SimulatedCluster {
    ids: Vec<NodeId>,
    cells: HashMap<NodeId, Mutex<NodeCell>>,
}

impl SimulatedCluster {
    /// Build the fleet at idle.
    pub fn new(config: ClusterConfig) -> Self {
        let ids = NodeId::enumerate(config.nodes, config.slots_per_chassis);
        let cells = ids
            .iter()
            .enumerate()
            .map(|(index, &id)| {
                let mut sensor_rng =
                    SimRng::derive(config.seed, &format!("sensors/{}", id.bmc_addr()));
                let sensors = NodeSensors::new(&mut sensor_rng);
                let bmc_config = config
                    .bmc_overrides
                    .iter()
                    .rev()
                    .find(|(i, _)| *i == index)
                    .map(|(_, c)| c.clone())
                    .unwrap_or_else(|| config.bmc.clone());
                let bmc = SimulatedBmc::new(id, bmc_config, config.seed);
                (id, Mutex::new(NodeCell { bmc, sensors, sensor_rng }))
            })
            .collect();
        SimulatedCluster { ids, cells }
    }

    /// All node ids, in management-network order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the fleet is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Advance every node's physics by `dt_secs`, with per-node utilization
    /// supplied by `load_of` (the scheduler's view).
    pub fn step(&self, dt_secs: f64, mut load_of: impl FnMut(NodeId) -> f64) {
        for &id in &self.ids {
            let mut cell = self.cells[&id].lock();
            let load = load_of(id);
            let cell = &mut *cell;
            cell.sensors.step(load, dt_secs, &mut cell.sensor_rng);
        }
    }

    /// Issue one Redfish request against a node's BMC and hand its answer
    /// to `f`, under the node's lock: the payload is lent, not returned
    /// ([`SimulatedBmc::answer`]).
    pub fn request<R>(
        &self,
        node: NodeId,
        category: Category,
        f: impl FnOnce(Answer<&Value>) -> R,
    ) -> Result<R> {
        let cell =
            self.cells.get(&node).ok_or_else(|| Error::not_found(format!("no node {node}")))?;
        let mut cell = cell.lock();
        let cell = &mut *cell;
        Ok(cell.bmc.answer(category, &cell.sensors, f))
    }

    /// Failure injection: mark a node's BMC dead or alive.
    // kept: the dead-BMC fault the failure drill and the resilience, alert and failure-injection tests inject
    pub fn set_bmc_alive(&self, node: NodeId, alive: bool) -> Result<()> {
        let cell =
            self.cells.get(&node).ok_or_else(|| Error::not_found(format!("no node {node}")))?;
        cell.lock().bmc.set_alive(alive);
        Ok(())
    }

    /// Fault injection: apply a [`monster_sim::FaultSpec`] to one node —
    /// failure/stall rates plus dead/alive state in a single call (the chaos
    /// harness drives these from a [`monster_sim::FaultProfile`] schedule).
    pub fn apply_fault(&self, node: NodeId, spec: monster_sim::FaultSpec) -> Result<()> {
        let cell =
            self.cells.get(&node).ok_or_else(|| Error::not_found(format!("no node {node}")))?;
        let mut cell = cell.lock();
        cell.bmc.set_rates(spec.failure_rate, spec.stall_rate);
        cell.bmc.set_alive(!spec.dead);
        Ok(())
    }

    /// Inject an additive power fault on one node (W): the sensor model
    /// adds it every step, so the reading jumps by an amount no load
    /// change explains — exactly what the streaming detectors exist to
    /// catch. Zero restores healthy physics.
    // kept: the power fault the alert tests and the telemetry example inject (ROADMAP item 26)
    pub fn set_power_offset(&self, node: NodeId, watts: f64) -> Result<()> {
        let cell =
            self.cells.get(&node).ok_or_else(|| Error::not_found(format!("no node {node}")))?;
        cell.lock().sensors.power_offset = watts;
        Ok(())
    }

    /// Snapshot a node's current sensor state (ground truth for tests and
    /// the analysis pipeline).
    pub fn sensors(&self, node: NodeId) -> Result<NodeSensors> {
        let cell =
            self.cells.get(&node).ok_or_else(|| Error::not_found(format!("no node {node}")))?;
        Ok(cell.lock().sensors.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a request did, its payload dropped.
    fn ask(c: &SimulatedCluster, node: NodeId, category: Category) -> Answer<()> {
        c.request(node, category, |a| a.map(drop)).unwrap()
    }

    #[test]
    fn default_is_quanah_sized() {
        let c = SimulatedCluster::new(ClusterConfig::default());
        assert_eq!(c.len(), 467);
        assert_eq!(c.node_ids()[0], NodeId::new(1, 1));
        assert!(!c.is_empty());
    }

    #[test]
    fn step_applies_per_node_load() {
        let c = SimulatedCluster::new(ClusterConfig::small(4, 1));
        let hot = c.node_ids()[0];
        for _ in 0..40 {
            c.step(60.0, |id| if id == hot { 1.0 } else { 0.0 });
        }
        let hot_s = c.sensors(hot).unwrap();
        let cold_s = c.sensors(c.node_ids()[3]).unwrap();
        assert!(hot_s.power > cold_s.power + 150.0);
        assert!(hot_s.cpu_temps[0] > cold_s.cpu_temps[0] + 20.0);
    }

    #[test]
    fn requests_reflect_current_state() {
        let c = SimulatedCluster::new(ClusterConfig::small(2, 2));
        for _ in 0..30 {
            c.step(60.0, |_| 0.8);
        }
        let node = c.node_ids()[0];
        // Retry until the stochastic BMC answers.
        let mut watts = None;
        for _ in 0..20 {
            let answer = c.request(node, Category::Power, |a| {
                a.map(|v| v.pointer("PowerControl/0/PowerConsumedWatts").and_then(Value::as_f64))
            });
            if let Answer::Ok(w, _) = answer.unwrap() {
                watts = w;
                break;
            }
        }
        let truth = c.sensors(node).unwrap().power;
        let got = watts.expect("BMC never answered in 20 tries");
        assert!((got - truth).abs() < 0.06, "got {got}, truth {truth}");
    }

    #[test]
    fn unknown_node_is_not_found() {
        let c = SimulatedCluster::new(ClusterConfig::small(2, 3));
        assert!(c.request(NodeId::new(99, 9), Category::Power, |_| ()).is_err());
        assert!(c.sensors(NodeId::new(99, 9)).is_err());
        assert!(c.set_bmc_alive(NodeId::new(99, 9), false).is_err());
    }

    #[test]
    fn killed_bmc_stalls_until_revived() {
        let c = SimulatedCluster::new(ClusterConfig::small(2, 4));
        let node = c.node_ids()[1];
        c.set_bmc_alive(node, false).unwrap();
        for _ in 0..5 {
            assert_eq!(ask(&c, node, Category::System), Answer::Stalled);
        }
        c.set_bmc_alive(node, true).unwrap();
        let mut any_ok = false;
        for _ in 0..20 {
            if matches!(ask(&c, node, Category::System), Answer::Ok(..)) {
                any_ok = true;
                break;
            }
        }
        assert!(any_ok);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let c = SimulatedCluster::new(ClusterConfig::small(3, 7));
            for i in 0..20 {
                c.step(60.0, |id| ((id.slot as usize + i) % 3) as f64 / 2.0);
            }
            let sensors = c.node_ids().iter().map(|&id| c.sensors(id).unwrap());
            sensors.map(|s| (s.cpu_temps, s.inlet, s.fans, s.power, s.load)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_node_overrides_make_heterogeneous_fleets() {
        // Node 0 is configured always-refusing, node 1 keeps the clean
        // cluster-wide default: one bad sled, one good one.
        let cfg = ClusterConfig {
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            bmc_overrides: vec![(
                0,
                BmcConfig { failure_rate: 1.0, stall_rate: 0.0, ..BmcConfig::default() },
            )],
            ..ClusterConfig::small(2, 11)
        };
        let c = SimulatedCluster::new(cfg);
        let (bad, good) = (c.node_ids()[0], c.node_ids()[1]);
        for _ in 0..20 {
            assert!(matches!(ask(&c, bad, Category::Power), Answer::Refused(_)));
            assert!(matches!(ask(&c, good, Category::Power), Answer::Ok(..)));
        }
    }

    #[test]
    fn runtime_rate_overrides_apply_and_clear() {
        let cfg = ClusterConfig {
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..ClusterConfig::small(2, 12)
        };
        let c = SimulatedCluster::new(cfg);
        let node = c.node_ids()[0];
        let stalling = monster_sim::FaultSpec { failure_rate: 0.0, stall_rate: 1.0, dead: false };
        c.apply_fault(node, stalling).unwrap();
        for _ in 0..5 {
            assert_eq!(ask(&c, node, Category::Thermal), Answer::Stalled);
        }
        c.apply_fault(node, monster_sim::FaultSpec::NONE).unwrap();
        assert!(matches!(ask(&c, node, Category::Thermal), Answer::Ok(..)));
        // apply_fault drives liveness as well as the rates.
        c.apply_fault(
            node,
            monster_sim::FaultSpec { failure_rate: 0.0, stall_rate: 0.0, dead: true },
        )
        .unwrap();
        assert_eq!(ask(&c, node, Category::Thermal), Answer::Stalled);
        c.apply_fault(node, monster_sim::FaultSpec::NONE).unwrap();
        assert!(matches!(ask(&c, node, Category::Thermal), Answer::Ok(..)));
        assert!(c.apply_fault(NodeId::new(99, 9), stalling).is_err());
    }

    #[test]
    fn concurrent_polling_is_safe() {
        let c = std::sync::Arc::new(SimulatedCluster::new(ClusterConfig::small(8, 8)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for &id in c.node_ids() {
                        for cat in Category::ALL {
                            ask(&c, id, cat);
                        }
                    }
                });
            }
            let c2 = std::sync::Arc::clone(&c);
            s.spawn(move || {
                for _ in 0..10 {
                    c2.step(60.0, |_| 0.5);
                }
            });
        });
    }
}
