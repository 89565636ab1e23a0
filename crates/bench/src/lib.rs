//! `monster-bench` — the evaluation harness, with two deterministic jobs.
//!
//! [`paper`] reproduces the paper's tables and figures in simulated time
//! (`cargo run -p monster-bench --release --bin paper -- fig10`) and checks
//! them against committed goldens; the gate binaries assert invariants and
//! write a `BENCH_*.json` that is a function of (code, seed) ([`report`]).
//! Wall-clock numbers are `bench_pipeline`'s. This file holds the shared
//! fixtures: populated deployments at a reduced node count with cost
//! amplification back to Quanah scale, so the simulated timings are
//! comparable to the paper's while the harness runs in seconds.

pub mod chaos;
pub mod paper;
pub mod report;
pub mod storm;

use monster_collector::SchemaVersion;
use monster_core::{Monster, MonsterConfig};
use monster_redfish::bmc::BmcConfig;
use monster_scheduler::WorkloadConfig;
use monster_sim::DiskModel;

/// Nodes in the scaled-down experiment fleet. Costs are amplified by
/// 467/16 ≈ 29× so simulated timings read at full-cluster scale.
pub const FIXTURE_NODES: usize = 16;

/// The workload used by the query-performance fixtures: small enough to
/// keep a 16-node fleet sane, busy enough that UGE/job measurements carry
/// realistic data.
pub fn fixture_workload() -> WorkloadConfig {
    WorkloadConfig {
        mpi_users: 1,
        array_users: 1,
        serial_users: 5,
        submissions_per_user_day: 4.0,
        seed: 77,
    }
}

/// Build a deployment and collect `days` of history on the bulk path.
///
/// `sample_every_secs` is the collection cadence; the paper's is 60 s, but
/// fixtures may coarsen it (the query-time experiments care about relative
/// shape, and the cost amplification keeps absolute numbers at scale).
pub fn populated(
    schema: SchemaVersion,
    disk: DiskModel,
    days: i64,
    sample_every_secs: i64,
) -> Monster {
    let mut m = Monster::new(MonsterConfig {
        nodes: FIXTURE_NODES,
        seed: 42,
        schema,
        interval_secs: sample_every_secs,
        disk,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        workload: Some(fixture_workload()),
        horizon_secs: days * 86_400,
        amplify_to_quanah: true,
        ..MonsterConfig::default()
    });
    let intervals = (days * 86_400 / sample_every_secs) as usize;
    m.run_intervals_bulk(intervals);
    m
}

use monster_builder::{BuilderRequest, ExecMode};
use monster_scheduler::QmasterConfig;
use monster_tsdb::{Aggregation, DataPoint};

/// The experiment's data start time (the deployment epoch).
pub fn data_start() -> monster_util::EpochSecs {
    QmasterConfig::default().start_time
}

/// The Fig. 10 interval grid, in seconds: 5/10/30/60/120 minutes.
pub const INTERVALS: [i64; 5] = [300, 600, 1_800, 3_600, 7_200];

/// The Fig. 10 time-range grid, in days: 1..=7.
pub const RANGES_DAYS: [i64; 7] = [1, 2, 3, 4, 5, 6, 7];

/// Run the Fig. 10-style grid on a populated deployment and return
/// `(days, interval_secs, simulated query+processing time)`.
pub fn query_grid(
    m: &Monster,
    ranges_days: &[i64],
    intervals: &[i64],
    mode: ExecMode,
) -> Vec<(i64, i64, monster_sim::VDuration)> {
    let t0 = data_start();
    let mut out = Vec::new();
    for &days in ranges_days {
        for &interval in intervals {
            let req = BuilderRequest::new(t0, t0 + days * 86_400, interval, Aggregation::Max)
                .expect("valid request");
            let outcome = m.builder_query(&req, mode).expect("query grid");
            out.push((days, interval, outcome.query_processing_time()));
        }
    }
    out
}

/// One node's `Power` readings over `[from, to)` at `cadence_secs`: the
/// synthetic series the storage gates (`query_pushdown`, `crash_recovery`)
/// ingest, the same wave `storm::sample_batch` draws.
pub fn power_samples(series: usize, from: i64, to: i64, cadence_secs: i64) -> Vec<DataPoint> {
    (from..to)
        .step_by(cadence_secs as usize)
        .map(|ts| {
            DataPoint::new("Power", monster_util::EpochSecs::new(ts))
                .tag("NodeId", format!("10.101.1.{}", series + 1))
                .tag("Label", "NodePower")
                .field_f64("Reading", 250.0 + ((ts + series as i64 * 13) % 359) as f64 * 0.25)
        })
        .collect()
}

/// Format seconds like the paper's axes.
pub fn secs(d: monster_sim::VDuration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_populates_quickly_and_fully() {
        let m = populated(SchemaVersion::Optimized, DiskModel::SSD, 1, 300);
        let stats = m.db().stats();
        assert!(stats.points > 50_000, "points {}", stats.points);
        assert!(stats.shards >= 1);
        // Amplification configured.
        assert!(m.db().config().cost.amplification > 20.0);
    }
}
