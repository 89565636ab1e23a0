//! The simulated iDRAC: latency, stalls, and failures.
//!
//! §III-B1: "the current version of iDRAC has limited resources and cannot
//! handle a large number of requests ... a Redfish API request takes 4.29
//! seconds on average." The latency model is a log-normal body (firmware
//! doing its slow thing) mixed with an exponential stall tail (garbage
//! collection, flash writes); a small probability of outright failure
//! (connection refused / 503) forces the client's retry path.

use crate::model::with_payload;
use crate::sensors::NodeSensors;
use crate::types::Category;
use monster_json::Value;
use monster_sim::{LatencyDist, SimRng, VDuration};
use monster_util::NodeId;

/// Tunables for the BMC behaviour model.
#[derive(Debug, Clone)]
pub struct BmcConfig {
    /// Response latency distribution.
    pub latency: LatencyDist,
    /// Probability a request fails outright (refused/5xx), per attempt.
    pub failure_rate: f64,
    /// Probability a request stalls past any reasonable read timeout
    /// (the client will time it out), per attempt.
    pub stall_rate: f64,
}

impl Default for BmcConfig {
    /// Calibrated to the paper's 4.29 s mean response time.
    fn default() -> Self {
        BmcConfig {
            latency: LatencyDist::Mix {
                p: 0.96,
                a: Box::new(LatencyDist::LogNormal(3.9, 0.30)),
                b: Box::new(LatencyDist::Exponential(9.0)),
            },
            failure_rate: 0.01,
            stall_rate: 0.004,
        }
    }
}

/// What one request attempt did: the payload is lent (`P = &Value`), and
/// [`Answer::map`] turns it into what the caller keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer<P> {
    /// Payload delivered after the given processing time.
    Ok(P, VDuration),
    /// The BMC refused or errored quickly.
    Refused(VDuration),
    /// The BMC never answered; the client's read timeout governs the
    /// elapsed time.
    Stalled,
}

impl<P> Answer<P> {
    /// The same answer with its payload passed through `f`.
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> Answer<Q> {
        match self {
            Answer::Ok(p, latency) => Answer::Ok(f(p), latency),
            Answer::Refused(latency) => Answer::Refused(latency),
            Answer::Stalled => Answer::Stalled,
        }
    }
}

/// One node's BMC.
#[derive(Debug)]
pub struct SimulatedBmc {
    node: NodeId,
    config: BmcConfig,
    /// Dead BMCs (node powered off, or iDRAC crashed) answer nothing.
    alive: bool,
    rng: SimRng,
}

impl SimulatedBmc {
    /// Create the BMC for `node` with per-node deterministic randomness.
    pub fn new(node: NodeId, config: BmcConfig, seed: u64) -> Self {
        let rng = SimRng::derive(seed, &format!("bmc/{}", node.bmc_addr()));
        SimulatedBmc { node, config, alive: true, rng }
    }

    /// The node this BMC serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Power the BMC off/on (failure injection; §III-B1 notes out-of-band
    /// status works "even if the computing node is down" — but a dead BMC
    /// itself is unreachable).
    pub fn set_alive(&mut self, alive: bool) {
        self.alive = alive;
    }

    /// The current behaviour model.
    pub fn config(&self) -> &BmcConfig {
        &self.config
    }

    /// Override this BMC's failure/stall rates (fault injection and
    /// heterogeneous-fleet modelling: one bad rack in an otherwise healthy
    /// cluster). The latency distribution is untouched.
    pub fn set_rates(&mut self, failure_rate: f64, stall_rate: f64) {
        self.config.failure_rate = failure_rate;
        self.config.stall_rate = stall_rate;
    }

    /// Answer one request against the current sensor state, lending `f`
    /// the payload ([`with_payload`]).
    pub fn answer<R>(
        &mut self,
        category: Category,
        sensors: &NodeSensors,
        f: impl FnOnce(Answer<&Value>) -> R,
    ) -> R {
        if !self.alive || self.rng.chance(self.config.stall_rate) {
            return f(Answer::Stalled);
        }
        if self.rng.chance(self.config.failure_rate) {
            // Fast refusal: TCP reset or instant 503.
            let t = VDuration::from_secs_f64(self.rng.uniform(0.05, 0.5));
            return f(Answer::Refused(t));
        }
        let latency = self.config.latency.sample(&mut self.rng);
        with_payload(category, self.node, sensors, |payload| f(Answer::Ok(payload, latency)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_util::stats::OnlineStats;

    fn sensors() -> NodeSensors {
        let mut rng = SimRng::derive(3, "bmc-test-sensors");
        NodeSensors::new(&mut rng)
    }

    #[test]
    fn default_latency_matches_paper_mean() {
        // Sampled mean should be near the paper's 4.29 s.
        let cfg = BmcConfig::default();
        let mut rng = SimRng::derive(11, "latency-check");
        let mut s = OnlineStats::new();
        for _ in 0..50_000 {
            s.push(cfg.latency.sample(&mut rng).as_secs_f64());
        }
        assert!((4.0..4.6).contains(&s.mean()), "mean latency {:.3}s, want ≈4.29s", s.mean());
    }

    #[test]
    fn ok_responses_carry_payload_and_latency() {
        let mut bmc = SimulatedBmc::new(NodeId::new(1, 1), BmcConfig::default(), 5);
        let s = sensors();
        let mut oks = 0;
        for _ in 0..200 {
            bmc.answer(Category::Power, &s, |a| {
                if let Answer::Ok(v, t) = a {
                    assert!(v.get("PowerControl").is_some());
                    assert!(t > VDuration::ZERO);
                    oks += 1;
                }
            });
        }
        assert!(oks > 150, "only {oks}/200 succeeded");
    }

    #[test]
    fn failure_rates_materialize() {
        let cfg = BmcConfig { failure_rate: 0.5, stall_rate: 0.2, ..BmcConfig::default() };
        let mut bmc = SimulatedBmc::new(NodeId::new(1, 2), cfg, 5);
        let s = sensors();
        let (mut ok, mut refused, mut stalled) = (0, 0, 0);
        for _ in 0..1000 {
            match bmc.answer(Category::Thermal, &s, |a| a.map(drop)) {
                Answer::Ok(..) => ok += 1,
                Answer::Refused(_) => refused += 1,
                Answer::Stalled => stalled += 1,
            }
        }
        assert!(stalled > 120, "stalled {stalled}");
        assert!(refused > 250, "refused {refused}");
        assert!(ok > 200, "ok {ok}");
    }

    #[test]
    fn dead_bmc_always_stalls() {
        let mut bmc = SimulatedBmc::new(NodeId::new(1, 3), BmcConfig::default(), 5);
        bmc.set_alive(false);
        let s = sensors();
        for _ in 0..10 {
            assert_eq!(bmc.answer(Category::System, &s, |a| a.map(drop)), Answer::Stalled);
        }
        bmc.set_alive(true);
        assert!(
            (0..20).any(|_| bmc.answer(Category::System, &s, |a| a.map(drop)) != Answer::Stalled)
        );
    }

    #[test]
    fn determinism_per_node_stream() {
        let s = sensors();
        let run = || {
            let mut bmc = SimulatedBmc::new(NodeId::new(2, 2), BmcConfig::default(), 9);
            (0..50)
                .map(|_| match bmc.answer(Category::Power, &s, |a| a.map(drop)) {
                    Answer::Ok(_, t) | Answer::Refused(t) => t.as_nanos(),
                    Answer::Stalled => 0,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
