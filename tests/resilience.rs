//! Integration: the resilient collection path end-to-end — a deployment
//! with circuit breakers and deadline-aware sweeps rides out a dead BMC
//! (stale substitution, bounded makespans, recovery), and the resilience
//! series show up in a live `/metrics` scrape over a real socket.

use monster::http::{Client, Request};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::client::{ClientConfig, SkipReason};
use monster::redfish::resilience::{sweep_deadline, ResilienceConfig};
use monster::sim::VDuration;
use monster::{obs, Monster, MonsterConfig};
use std::sync::{Mutex, MutexGuard};

/// Every sweep in this process writes the same breaker gauges in the
/// process-wide registry, and the last test below scrapes them. Each test
/// holds this lock for as long as it runs intervals, so the scrape reads
/// what its own sweep wrote — not what a sibling's wrote a millisecond
/// later. (Which sibling that was depended on how long an interval takes.)
static SWEEPS: Mutex<()> = Mutex::new(());

fn sweeping() -> MutexGuard<'static, ()> {
    SWEEPS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn resilient_deployment(nodes: usize, seed: u64) -> Monster {
    Monster::new(MonsterConfig {
        nodes,
        seed,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        resilience: Some(ResilienceConfig::default()),
        workload: None,
        horizon_secs: 0,
        ..MonsterConfig::default()
    })
}

#[test]
fn dead_bmc_degrades_gracefully_and_recovers() {
    let _sweeping = sweeping();
    let mut m = resilient_deployment(6, 31);
    let victim = m.node_ids()[0];
    let deadline = sweep_deadline(m.config().interval_secs);

    // Interval 1: everything healthy; the victim's readings get cached as
    // last-known-good.
    let s1 = m.run_interval().unwrap();
    assert!(!s1.degraded);
    assert_eq!(s1.stale_points, 0);
    assert_eq!(s1.breakers_open, 0);

    // The BMC dies. Interval 2: its first request burns the retry budget,
    // trips the breaker, and the collector substitutes stale
    // last-known-good values for everything the node failed to deliver.
    m.cluster().set_bmc_alive(victim, false).unwrap();
    let s2 = m.run_interval().unwrap();
    assert!(s2.degraded);
    assert_eq!(s2.breakers_open, 1);
    assert!(s2.stale_points > 0, "no last-known-good substitution");
    assert_eq!(s2.stale_nodes.len(), 1);
    assert_eq!(s2.stale_nodes[0].0, victim);
    assert!(s2.collection_time <= deadline);

    // Intervals 3-4 (breaker cooldown): the victim is skipped wholesale;
    // staleness ages count up; makespans stay bounded.
    let s3 = m.run_interval().unwrap();
    let s4 = m.run_interval().unwrap();
    for s in [&s3, &s4] {
        assert!(s.degraded);
        assert!(s.bmc_skipped >= 4);
        assert_eq!(s.stale_nodes.len(), 1);
        assert!(s.collection_time <= deadline);
    }
    assert!(s4.stale_nodes[0].1 > s3.stale_nodes[0].1, "staleness age did not grow");

    // The BMC comes back: the half-open probe closes the breaker and the
    // deployment returns to fully fresh intervals.
    m.cluster().set_bmc_alive(victim, true).unwrap();
    let s5 = m.run_interval().unwrap(); // probe sweep
    assert_eq!(s5.breakers_open, 0);
    let s6 = m.run_interval().unwrap();
    assert!(!s6.degraded);
    assert_eq!(s6.stale_points, 0);
    assert_eq!(s6.bmc_skipped, 0);
}

#[test]
fn stale_substitutes_land_in_storage_tagged() {
    let _sweeping = sweeping();
    let mut m = resilient_deployment(4, 32);
    let victim = m.node_ids()[1];
    m.run_interval().unwrap();
    m.cluster().set_bmc_alive(victim, false).unwrap();
    m.run_interval().unwrap();

    // Power readings substituted for the dead node carry the Stale tag;
    // an explicit tag filter pulls exactly those.
    let q = format!(
        "SELECT count(Reading) FROM Power WHERE NodeId='{}' AND Stale='true' AND \
         time >= 0 AND time < 4000000000",
        victim.bmc_addr()
    );
    let (rs, _) = m.db().query_str(&q).unwrap();
    let stale_count: f64 =
        rs.series.iter().flat_map(|s| s.points.iter()).filter_map(|(_, v)| v.as_f64()).sum();
    assert!(stale_count >= 1.0, "no Stale-tagged Power points in storage");
}

#[test]
fn resilient_sweep_holds_deadline_on_quanah_scale_fleet() {
    let _sweeping = sweeping();
    // The paper's fleet size through the resilient path: the deadline is
    // honored by construction even at the 1868-request pool size.
    let mut m = Monster::new(MonsterConfig {
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        resilience: Some(ResilienceConfig::default()),
        workload: None,
        horizon_secs: 0,
        ..MonsterConfig::default()
    });
    let s = m.run_interval().unwrap();
    assert!(s.collection_time <= sweep_deadline(m.config().interval_secs));
    assert!(s.collection_time > VDuration::from_secs(10), "suspiciously fast full sweep");
    // The 150-channel / 54 s budget is deliberately tight at this scale
    // (the legacy sweep averages ~55 s): a little shedding is acceptable,
    // wholesale shedding is not.
    let lost = s.bmc_failures + s.bmc_skipped;
    assert!(lost * 10 < 1868, "lost {lost} of 1868 requests");
}

#[test]
fn the_sweep_deadline_follows_a_shorter_cadence() {
    let _sweeping = sweeping();
    // 32 requests of ≈ 4.3 s through 2 channels are ≈ 69 s of work: more
    // than a 30 s cadence holds, so the sweep must stop at 27 s and shed
    // the rest instead of running on to a 60 s cadence's 54 s.
    let mut m = Monster::new(MonsterConfig {
        nodes: 8,
        seed: 34,
        interval_secs: 30,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        client: ClientConfig { max_inflight: 2, ..ClientConfig::default() },
        resilience: Some(ResilienceConfig::default()),
        workload: None,
        horizon_secs: 0,
        ..MonsterConfig::default()
    });
    for s in m.run_intervals(3) {
        assert!(s.collection_time <= VDuration::from_secs(27), "makespan {}", s.collection_time);
        assert_eq!(s.bmc_failures, 0);
        assert!(s.bmc_skipped > 0, "nothing shed under a 27 s / 2-channel budget");
        assert!(s.skipped_nodes.iter().all(|&(_, reason)| reason == SkipReason::Deadline));
    }
}

#[test]
fn the_freshness_slo_follows_a_shorter_cadence() {
    let _sweeping = sweeping();
    // The tracker is process-wide: start it from this deployment's sweeps.
    obs::freshness().reset();
    let mut m = Monster::new(MonsterConfig {
        nodes: 4,
        seed: 35,
        interval_secs: 30,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        resilience: Some(ResilienceConfig::default()),
        workload: None,
        horizon_secs: 0,
        ..MonsterConfig::default()
    });
    let victim = m.node_ids()[0];
    m.run_interval().unwrap();
    m.cluster().set_bmc_alive(victim, false).unwrap();
    m.run_intervals(3);

    // At a 30 s cadence a series is fresh for two cadences, 60 s, so the
    // dead node's four series, 90 s behind the latest sweep, are stale.
    let server = m.serve_api(0).unwrap();
    let doc = Client::new()
        .send_ok(server.addr(), &Request::get("/debug/pipeline"))
        .unwrap()
        .json_body()
        .unwrap();
    let number = |path: &str| doc.pointer(path).and_then(|v| v.as_f64());
    assert_eq!(number("/slo/cadence_secs"), Some(30.0));
    assert_eq!(number("/slo/fresh_within_secs"), Some(60.0));
    assert_eq!(number("/staleness_secs/max"), Some(90.0));
    assert_eq!(number("/attainment"), Some(12.0 / 16.0));
}

#[test]
fn metrics_endpoint_exposes_resilience_series() {
    let _sweeping = sweeping();
    let mut m = resilient_deployment(3, 33);
    let victim = m.node_ids()[2];
    m.run_interval().unwrap();
    m.cluster().set_bmc_alive(victim, false).unwrap();
    m.run_interval().unwrap(); // trips the breaker, writes stale points

    // Scrape the exposition exactly as a Prometheus agent would.
    let server = m.serve_api(0).unwrap();
    let client = Client::new();
    let resp = client.send_ok(server.addr(), &Request::get("/metrics")).unwrap();
    let text = String::from_utf8(resp.body.to_vec()).unwrap();
    let scrape = |name: &str| {
        obs::sample(&text, name).unwrap_or_else(|| panic!("{name} missing from exposition"))
    };

    // Breaker-state gauges: the dead node's breaker is open, the others
    // closed.
    assert!(scrape("monster_redfish_breakers_open") >= 1.0);
    assert!(scrape("monster_redfish_breakers_closed") >= 2.0);
    // The jittered-backoff histogram saw the dead node's retry delays.
    assert!(scrape("monster_redfish_backoff_seconds_count") >= 1.0);
    // Stale substitution and skip accounting reached the collector series.
    assert!(scrape("monster_collector_stale_points_total") >= 1.0);
    assert!(scrape("monster_redfish_skipped_total") >= 1.0);
}
