//! End-to-end integration: simulate a cluster, collect through the full
//! Redfish path, store, query through Metrics Builder, and verify the data
//! round-trips faithfully.

use monster::analysis::served;
use monster::builder::{BuilderRequest, ExecMode};
use monster::redfish::bmc::BmcConfig;
use monster::scheduler::{JobShape, JobSpec};
use monster::tsdb::Aggregation;
use monster::util::UserName;
use monster::{Monster, MonsterConfig};

fn reliable(nodes: usize) -> MonsterConfig {
    MonsterConfig {
        nodes,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..MonsterConfig::default()
    }
}

#[test]
fn collected_power_matches_ground_truth() {
    let mut m = Monster::new(reliable(6));
    m.run_intervals(3);

    // Ground truth from the sensor model at the last interval.
    let node = m.node_ids()[2];
    let truth = m.cluster().sensors(node).unwrap().power;

    // Query the last stored sample back through the builder.
    let req = BuilderRequest::new(m.now() - 60, m.now() + 60, 60, Aggregation::Last).unwrap();
    let out = m.builder_query(&req, ExecMode::Sequential).unwrap();
    let power = served::section(&out.document, &node.bmc_addr(), "power").unwrap();
    let stored = power.last().and_then(|(_, _, v)| v.as_f64()).expect("stored power value");
    // Rounded to 0.1 W by the Redfish payload.
    assert!((stored - truth).abs() < 0.06, "stored {stored}, ground truth {truth}");
}

#[test]
fn job_lifecycle_visible_through_storage() {
    let mut m = Monster::new(MonsterConfig { workload: None, ..reliable(4) });
    let t0 = m.now();
    m.qmaster_mut().submit_at(
        t0 + 5,
        JobSpec {
            user: UserName::new("itest"),
            name: "integration.sh".into(),
            shape: JobShape::Serial { slots: 36 },
            runtime_secs: 150,
            priority: 0,
            mem_per_slot_gib: 1.0,
        },
    );
    // Interval 1: job running; interval 4+: finished.
    m.run_intervals(5);

    // NodeJobs shows the job while it ran.
    let (rs, _) = m
        .db()
        .query_str(&format!(
            "SELECT JobList FROM NodeJobs WHERE time >= {} AND time < {}",
            t0.as_secs(),
            m.now().as_secs()
        ))
        .unwrap();
    let mentions = rs
        .series
        .iter()
        .flat_map(|s| s.points.iter())
        .filter(|(_, v)| v.as_str().map(|s| s.contains("1290000")).unwrap_or(false))
        .count();
    assert!(mentions >= 1, "job never appeared in NodeJobs");

    // JobsInfo carries the final record with both times.
    let (rs, _) = m
        .db()
        .query_str(&format!(
            "SELECT FinishTime FROM JobsInfo WHERE JobId='1290000' AND time >= {} AND time < {}",
            t0.as_secs(),
            m.now().as_secs()
        ))
        .unwrap();
    let finish = rs
        .series
        .first()
        .and_then(|s| s.points.last())
        .and_then(|(_, v)| v.as_i64())
        .expect("finish time recorded");
    // Runtime 150 s after a dispatch within the first minute.
    assert!(finish >= (t0 + 150).as_secs() && finish <= (t0 + 300).as_secs());
}

#[test]
fn load_correlates_with_power_across_fleet() {
    // The monitoring pipeline must preserve the load→power correlation the
    // analysis layer (Figs. 7-9) depends on.
    let mut m = Monster::new(MonsterConfig { workload: None, ..reliable(8) });
    let t0 = m.now();
    // Load half the fleet.
    for i in 0..4 {
        m.qmaster_mut().submit_at(
            t0 + 1 + i,
            JobSpec {
                user: UserName::new("loader"),
                name: "hot.sh".into(),
                shape: JobShape::Serial { slots: 36 },
                runtime_secs: 100_000,
                priority: 0,
                mem_per_slot_gib: 2.0,
            },
        );
    }
    m.run_intervals(20); // let thermal state settle

    let req = BuilderRequest::new(m.now() - 300, m.now() + 60, 300, Aggregation::Mean).unwrap();
    let out = m.builder_query(&req, ExecMode::Concurrent { workers: 4 }).unwrap();
    let mut busy_power = Vec::new();
    let mut idle_power = Vec::new();
    for node in m.node_ids() {
        let report = m.qmaster().load_report(node).unwrap();
        let power = served::section(&out.document, &node.bmc_addr(), "power").unwrap();
        let p = power.last().and_then(|(_, _, v)| v.as_f64()).expect("power series");
        if report.cpu_usage > 0.5 {
            busy_power.push(p);
        } else {
            idle_power.push(p);
        }
    }
    assert_eq!(busy_power.len(), 4);
    assert_eq!(idle_power.len(), 4);
    let busy_mean = monster::util::stats::mean(&busy_power);
    let idle_mean = monster::util::stats::mean(&idle_power);
    assert!(busy_mean > idle_mean + 100.0, "busy {busy_mean:.0} W vs idle {idle_mean:.0} W");
}

#[test]
fn finish_time_estimation_then_reconciliation() {
    let mut m = Monster::new(MonsterConfig { workload: None, ..reliable(2) });
    let t0 = m.now();
    m.qmaster_mut().submit_at(
        t0 + 5,
        JobSpec {
            user: UserName::new("est"),
            name: "short.sh".into(),
            shape: JobShape::Serial { slots: 4 },
            runtime_secs: 70,
            priority: 0,
            mem_per_slot_gib: 0.5,
        },
    );
    let s1 = m.run_interval().unwrap(); // running
    let s2 = m.run_interval().unwrap(); // finished between pulls
    let _ = (s1, s2);
    // ARCo has the accurate end time; the estimator flagged it the
    // interval after it vanished.
    let job = m.qmaster().finished_jobs()[0];
    let accurate = match &job.state {
        monster::scheduler::JobState::Done { end, .. } => *end,
        other => panic!("unexpected state {other:?}"),
    };
    assert!(accurate > t0 && accurate < m.now());
}
