//! What the two chaos gates (`chaos_sweep`: collection, `alert_chaos`:
//! alerting) share: the fleet a seeded fault profile is replayed against,
//! the replay step, and the `--profile NAME --seed N` that pick a cell. Both must drive the **same** schedule the same way
//! or a `(profile, seed)` cell of the CI matrix means two things.

use crate::report::arg;
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

/// `--seed N`, default 1.
pub fn seed() -> u64 {
    arg("--seed").map_or(1, |s| s.parse().expect("--seed N"))
}

/// `--profile NAME`; `all`, the default, is every profile in turn.
pub fn profiles() -> Vec<FaultProfile> {
    match arg("--profile").as_deref() {
        None | Some("all") => FaultProfile::ALL.to_vec(),
        Some(name) => {
            vec![FaultProfile::parse(name).unwrap_or_else(|| panic!("unknown profile {name:?}"))]
        }
    }
}
