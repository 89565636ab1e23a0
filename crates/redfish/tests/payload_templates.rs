//! A payload written over is the payload built: whatever node a thread's
//! template last answered for, the document it lends for the next node is
//! the one `model::payload` builds for it, and a warm request allocates
//! exactly the `Vec`s of the reading it returns.
//!
//! Templates are per thread and so are the allocation counts
//! (`counting_alloc::counted`): each test warms its own, and sibling tests
//! allocate beside a window without showing up in it.

use counting_alloc::{counted, Counts};
use monster_redfish::bmc::BmcConfig;
use monster_redfish::cluster::{ClusterConfig, SimulatedCluster};
use monster_redfish::model::{payload, with_payload};
use monster_redfish::sensors::NodeSensors;
use monster_redfish::{Category, HealthState, RedfishClient};
use monster_sim::SimRng;
use monster_util::NodeId;
use proptest::prelude::*;

/// One request: a node anywhere from `10.101.1.1` to `10.101.150.9` (so
/// the `Name` grows and shrinks from one to the next), its sensors stepped
/// under some load, its host and BMC health forced or left to the model.
#[derive(Debug, Clone)]
struct Ask {
    node: NodeId,
    seed: u64,
    load: f64,
    steps: usize,
    host: Option<HealthState>,
    bmc: Option<HealthState>,
}

impl Ask {
    fn sensors(&self) -> NodeSensors {
        let mut rng = SimRng::derive(self.seed, "payload-templates");
        let mut s = NodeSensors::new(&mut rng);
        for _ in 0..self.steps {
            s.step(self.load, 60.0, &mut rng);
        }
        s.host_health = self.host.unwrap_or(s.host_health);
        s.bmc_health = self.bmc.unwrap_or(s.bmc_health);
        s
    }
}

fn arb_health() -> impl Strategy<Value = Option<HealthState>> {
    prop_oneof![
        Just(None),
        Just(Some(HealthState::Ok)),
        Just(Some(HealthState::Warning)),
        Just(Some(HealthState::Critical)),
    ]
}

fn arb_ask() -> impl Strategy<Value = Ask> {
    (1u16..151, 1u16..10, any::<u64>(), 0.0..1.0f64, 0usize..30, arb_health(), arb_health())
        .prop_map(|(chassis, slot, seed, load, steps, host, bmc)| Ask {
            node: NodeId::new(chassis, slot),
            seed,
            load,
            steps,
            host,
            bmc,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_template_written_over_is_the_payload_built(
        asks in prop::collection::vec(arb_ask(), 1..12),
    ) {
        // The thread's templates carry over from ask to ask and case to
        // case, as they do from request to request in a sweep.
        for ask in &asks {
            let s = ask.sensors();
            for category in Category::ALL {
                let built = payload(category, ask.node, &s);
                let same = with_payload(category, ask.node, &s, |lent| *lent == built);
                prop_assert!(same, "{category} payload of {} differs from a fresh build", ask.node);
            }
        }
    }
}

#[test]
fn a_request_answered_inside_another_gets_its_own_payload() {
    let s = Ask { node: NodeId::new(1, 1), seed: 3, load: 0.9, steps: 20, host: None, bmc: None }
        .sensors();
    let (outer, inner) = (NodeId::new(1, 1), NodeId::new(117, 4));
    for category in Category::ALL {
        with_payload(category, outer, &s, |lent| {
            with_payload(category, inner, &s, |nested| {
                assert_eq!(*nested, payload(category, inner, &s));
            });
            assert_eq!(*lent, payload(category, outer, &s));
        });
    }
}

#[test]
fn a_warm_fetch_allocates_only_the_vecs_of_its_reading() {
    let cluster = SimulatedCluster::new(ClusterConfig {
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..ClusterConfig::small(8, 5)
    });
    cluster.step(60.0, |_| 0.7);
    let client = RedfishClient::default();
    // Warm: this thread's four templates, written for the whole fleet.
    for &node in cluster.node_ids() {
        for category in Category::ALL {
            assert!(client.fetch(&cluster, node, category).reading.is_some());
        }
    }

    let node = cluster.node_ids()[5];
    // Thermal: `cpu_temps` and `fans`; Power: `voltages`; health: nothing.
    let expected = [
        (Category::Thermal, 2),
        (Category::Power, 1),
        (Category::Manager, 0),
        (Category::System, 0),
    ];
    for (category, vecs) in expected {
        let (outcome, Counts { blocks, .. }) = counted(|| client.fetch(&cluster, node, category));
        assert!(outcome.reading.is_some(), "{category}: {outcome:?}");
        assert_eq!(blocks, vecs, "{category}: {blocks} blocks");
    }
}
