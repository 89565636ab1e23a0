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
//! Some intervals make more: the 5th, 9th, 17th … of a store's life. Each
//! column's raw tail is a timestamp `Vec` and a value `Vec`, one push an
//! interval, and a `Vec` of 8-byte items that grows from 4 to 8, 16, 32 …
//! reallocates at its 5th, 9th and 17th push (a `bool` tail, from 8, at the
//! 9th and 17th). That is at most two blocks a column, once per doubling —
//! tail growth, not a leak — and the last assertion holds it there.
//!
//! One sweep worker, so every request runs on the calling thread:
//! `counting_alloc::counted` counts that thread's blocks, and sibling tests
//! allocate beside the window without showing up in it.

use counting_alloc::{counted, Counts};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::client::ClientConfig;
use monster::{IntervalSummary, Monster, MonsterConfig};

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
    // Five warm intervals: the fifth is the tails' first doubling.
    monster.run_intervals(5);
    let interval = |monster: &mut Monster| -> (IntervalSummary, usize, usize) {
        let values = monster.db().stats().points;
        let (summary, Counts { blocks, .. }) =
            counted(|| monster.run_interval().expect("consistent writes"));
        (summary, blocks, monster.db().stats().points - values)
    };

    // The 6th, 7th and 8th push no tail past its capacity.
    let mut steady = 0;
    for k in 6..=8 {
        let (summary, blocks, _) = interval(&mut monster);
        assert_eq!(summary.bmc_failures, 0);
        assert!(summary.points >= 16 * 13, "interval {k}: points written: {}", summary.points);
        assert!(
            4 * blocks < 3 * summary.points,
            "interval {k}: {blocks} blocks for {} points, sweep included",
            summary.points
        );
        steady = blocks;
    }

    // The 9th push doubles every tail: each column takes one value an
    // interval, so the values written are the columns written to. One block
    // more is the freshness tracker's attainment history, a sample a sweep,
    // which doubles on the same pushes (16 nodes: 680 = 103 + 2 × 288 + 1).
    let (_, grown, columns) = interval(&mut monster);
    assert!(
        grown.saturating_sub(steady) <= 2 * columns + 1,
        "the 9th interval made {grown} blocks against the 8th's {steady}: more than two a \
         column over {columns} columns"
    );
}
