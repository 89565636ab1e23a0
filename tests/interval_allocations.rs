//! What a warm collection interval may allocate, counted — its sweep
//! included.
//!
//! An interval used to build every point from fresh `String`s — about
//! nine and a half blocks a point written at paper scale — and free them
//! the next. The collector now writes over last interval's points, and a
//! BMC answers over a payload its thread keeps (`model::with_payload`)
//! instead of building a `Value` tree a request (≈ 26 blocks each, until
//! PR 25 the bulk of what was left). So on an unchanged fleet what an
//! interval allocates is what it does *around* its points: each reading's
//! own `Vec`s, the accounting snapshot, the alert engine's per-node table,
//! the batch's id buffers. This gate keeps the per-point cost from coming
//! back.
//!
//! One sweep worker, so every request runs on the calling thread:
//! `counting_alloc::counted` counts that thread's blocks, and sibling tests
//! allocate beside the window without showing up in it.

use counting_alloc::{counted, Counts};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::client::ClientConfig;
use monster::{Monster, MonsterConfig};

#[test]
fn a_warm_interval_sweep_included_allocates_under_three_quarters_of_a_block_a_point() {
    // Sixteen healthy nodes, no jobs arriving: every interval has the
    // points of the one before, a minute older.
    let mut monster = Monster::new(MonsterConfig {
        nodes: 16,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        client: ClientConfig { pool_workers: 1, ..ClientConfig::default() },
        workload: None,
        ..MonsterConfig::default()
    });
    monster.run_intervals(3);

    let (summary, Counts { blocks, .. }) =
        counted(|| monster.run_interval().expect("consistent writes"));
    assert_eq!(summary.bmc_failures, 0);
    assert!(summary.points >= 16 * 13, "points written: {}", summary.points);
    assert!(
        4 * blocks < 3 * summary.points,
        "{blocks} blocks for {} points, sweep included",
        summary.points
    );
}
