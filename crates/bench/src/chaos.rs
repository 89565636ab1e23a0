//! What the two chaos gates (`chaos_sweep`: collection, `alert_chaos`:
//! alerting) share: the fleet a seeded fault profile is replayed against
//! and the replay step. Both must drive the **same** schedule the same way
//! or a `(profile, seed)` cell of the chaos matrix means two things.

use monster_core::{Monster, MonsterConfig};
use monster_redfish::bmc::BmcConfig;
use monster_redfish::client::ClientConfig;
use monster_redfish::resilience::ResilienceConfig;
use monster_sim::{FaultProfile, LatencyDist};

/// The size of a run: `active` sweeps under the fault schedule, the rest
/// of `sweeps` to observe recovery in.
pub struct Shape {
    pub nodes: usize,
    pub channels: usize,
    pub sweeps: u64,
    pub active: u64,
}

/// A fleet on the paper's log-normal latency body with the exponential
/// stall tail removed and zero base fault rates: every fault comes from
/// the profile schedule, so "healthy nodes stay fresh" is exact rather
/// than probabilistic. `resilient: false` is the legacy sweep (immediate
/// retries, no breakers, no deadline).
pub fn fleet(seed: u64, shape: &Shape, resilient: bool) -> Monster {
    Monster::new(MonsterConfig {
        nodes: shape.nodes,
        seed,
        bmc: BmcConfig {
            latency: LatencyDist::LogNormal(4.0, 0.30),
            failure_rate: 0.0,
            stall_rate: 0.0,
        },
        client: ClientConfig { max_inflight: shape.channels, ..ClientConfig::default() },
        resilience: resilient.then(ResilienceConfig::default),
        workload: None,
        horizon_secs: 0,
        ..MonsterConfig::default()
    })
}

/// Put every node of `m` in the state `profile` schedules for sweep `tick`.
pub fn inject(m: &Monster, profile: FaultProfile, seed: u64, tick: u64, shape: &Shape) {
    let ids = m.node_ids();
    for (i, &node) in ids.iter().enumerate() {
        let spec = profile.spec(seed, i, ids.len(), tick, shape.active);
        m.cluster().apply_fault(node, spec).expect("known node");
    }
}
