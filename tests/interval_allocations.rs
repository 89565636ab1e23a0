//! What a warm collection interval may allocate, counted.
//!
//! An interval used to build every point from fresh `String`s — about
//! nine and a half blocks a point written at paper scale — and free them
//! the next. The collector now writes over last interval's points, so on
//! an unchanged fleet what is left is what the interval does *around* its
//! points: the accounting snapshot, the alert engine's per-node table, the
//! batch's id buffers. This gate keeps the per-point cost from coming back.
//!
//! The sweep is the exception and is measured apart: rendering each
//! Redfish payload and parsing it back into a `Value` tree is ≈ 26 blocks a
//! request (ROADMAP item 1), on whichever worker takes the request. With
//! one worker that is the calling thread, every time; the same sweep run
//! alone says how many blocks to set aside.
//!
//! `counting_alloc::counted` counts the calling thread's blocks, so sibling
//! tests allocate beside the window without showing up in it.

use counting_alloc::{counted, Counts};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::client::{ClientConfig, RedfishClient};
use monster::{Monster, MonsterConfig};

#[test]
fn a_warm_interval_allocates_less_than_a_block_a_point_beside_its_sweep() {
    // Sixteen healthy nodes, no jobs arriving: every interval has the
    // points of the one before, a minute older.
    let client = ClientConfig { pool_workers: 1, ..ClientConfig::default() };
    let mut monster = Monster::new(MonsterConfig {
        nodes: 16,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        client: client.clone(),
        workload: None,
        ..MonsterConfig::default()
    });
    monster.run_intervals(3);

    let (summary, Counts { blocks: interval, .. }) =
        counted(|| monster.run_interval().expect("consistent writes"));
    let (outcome, Counts { blocks: sweep, .. }) =
        counted(|| RedfishClient::new(client).sweep(monster.cluster()));
    assert_eq!(outcome.successes(), 64, "the sweep set aside is not the interval's");
    assert_eq!(summary.bmc_failures, 0);
    assert!(summary.points >= 16 * 13, "points written: {}", summary.points);

    let beside = interval.saturating_sub(sweep);
    assert!(
        beside < summary.points,
        "{beside} blocks beside the sweep's {sweep} for {} points",
        summary.points
    );
}
