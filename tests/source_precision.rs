//! One precision from every source: a fault-free Redfish sweep and the bulk
//! load that reads the simulated sensors directly store the same value for
//! the same fleet state, the reading at the one decimal a BMC reports.
//!
//! Two seeded 8-node deployments run the same 40 intervals, one through the
//! sweep and one from the sensors, and the Metrics Builder's documents are
//! decoded into the analyses' nine dimensions: every row of one equals the
//! other's to the bit.

use monster::analysis::served;
use monster::builder::{BuilderRequest, ExecMode};
use monster::redfish::bmc::BmcConfig;
use monster::tsdb::Aggregation;
use monster::util::EpochSecs;
use monster::{Monster, MonsterConfig};

const INTERVALS: usize = 40;

fn deployment() -> Monster {
    Monster::new(MonsterConfig {
        nodes: 8,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        horizon_secs: 3600,
        ..MonsterConfig::default()
    })
}

/// Each node's served rows over the run, one-minute windows of the last
/// reading.
fn served_rows(m: &Monster, start: EpochSecs) -> Vec<served::ServedNode> {
    let req = BuilderRequest::new(start, m.now() + 60, 60, Aggregation::Last).unwrap();
    served::decode(&m.builder_query(&req, ExecMode::Sequential).unwrap().document).unwrap()
}

#[test]
fn a_sweep_and_the_sensors_store_the_same_readings() {
    let (mut swept, mut loaded) = (deployment(), deployment());
    let start = swept.now();
    assert_eq!(loaded.now(), start);
    swept.run_intervals(INTERVALS);
    loaded.run_intervals_bulk(INTERVALS);
    let (wire, bulk) = (served_rows(&swept, start), served_rows(&loaded, start));
    assert_eq!(wire.len(), 8);
    assert_eq!(bulk.iter().map(|n| n.node).collect::<Vec<_>>(), swept.node_ids());
    let mut rows = 0;
    for (w, b) in wire.iter().zip(&bulk) {
        assert_eq!(w.node, b.node);
        assert_eq!(w.rows.len(), INTERVALS, "{}", w.node);
        for ((tw, rw), (tb, rb)) in w.rows.iter().zip(&b.rows) {
            assert_eq!(tw, tb, "{}", w.node);
            // f64 `==`, dimension by dimension: 83.4 is not 83.35518534390458.
            assert_eq!(rw, rb, "{} at {tw}", w.node);
            rows += 1;
        }
    }
    assert_eq!(rows, 8 * INTERVALS);
}
