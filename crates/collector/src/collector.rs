//! The collection loop: read a [`Source`] (sweep the BMCs, read the
//! sensors, or fetch telemetry reports), pull the resource manager, build
//! points.

use crate::preprocess::FinishEstimator;
use crate::schema::{PointWriter, SchemaVersion};
use monster_alert::{AnomalyEvent, DetectorBank, DetectorConfig, NodeInterval};
use monster_redfish::client::{ClientConfig, RedfishClient, SkipReason, SweepOutcome};
use monster_redfish::resilience::{
    sweep_deadline, BreakerCounts, HealthRegistry, ResilienceConfig,
};
use monster_redfish::telemetry::{parse_report, TelemetryService};
use monster_redfish::types::{Category, NodeReading};
use monster_redfish::SimulatedCluster;
use monster_scheduler::accounting::accounting_pull;
use monster_scheduler::{JobState, Qmaster};
use monster_tsdb::DataPoint;
use monster_util::{EpochSecs, JobId, NodeId, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Collector configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Storage schema generation to build points for.
    pub schema: SchemaVersion,
    /// Collection interval in seconds (the paper settles on 60 s,
    /// §III-B4). Past ARCo's `RECENT_FINISH_WINDOW_SECS` a job can finish
    /// and leave the accounting pull between two intervals.
    pub interval_secs: i64,
    /// Redfish client settings.
    pub client: ClientConfig,
    /// When set, sweeps run through the resilience layer: per-BMC circuit
    /// breakers, jittered retry backoff, and the deadline-aware degraded
    /// sweep scheduler (deadline: [`sweep_deadline`] of `interval_secs`)
    /// with last-known-good staleness substitution.
    pub resilience: Option<ResilienceConfig>,
    /// When set, every live reading is folded through the streaming
    /// anomaly detectors (EWMA z-score, rate-of-change, flatline) as it is
    /// ingested, and transitions surface in
    /// [`IntervalOutput::anomalies`]. On by default — detection is the
    /// product, not an add-on.
    pub detectors: Option<DetectorConfig>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            schema: SchemaVersion::Optimized,
            interval_secs: 60,
            client: ClientConfig::default(),
            resilience: None,
            detectors: Some(DetectorConfig::default()),
        }
    }
}

/// Where an interval's out-of-band readings come from. The in-band half,
/// the resource manager pull, is the same for every source.
pub enum Source<'a> {
    /// The Redfish sweep of §III-B1: one request a node and category,
    /// through the resilience layer when it is configured.
    Sweep,
    /// The simulated sensors read directly, without the wire layer: the
    /// bulk load that fills days of history for the query experiments
    /// (Figs. 10, 12–15).
    Sensors,
    /// The Telemetry Service of §VI: one metric-report fetch a node yields
    /// every sample recorded since the last fetch.
    Telemetry(&'a mut TelemetryService),
}

/// What one interval produced. The fields that describe a sweep are empty
/// for the other sources.
pub struct IntervalOutput {
    /// The trace this interval's pipeline pass belongs to: the sweep, its
    /// per-BMC children, and (once the deployment re-installs it around
    /// its writes) the TSDB write batches all hang off this context's span.
    pub trace: monster_obs::TraceContext,
    /// Points built this interval, in storage the collector takes back.
    pub points: PointBatch,
    /// The BMC sweep outcome (latency/makespan statistics).
    pub sweep: SweepOutcome,
    /// Bytes of accounting payload pulled from the resource manager.
    pub uge_bytes: usize,
    /// Jobs whose finish was *estimated* this interval by job-list
    /// diffing.
    pub estimated_finishes: Vec<(JobId, EpochSecs)>,
    /// Last-known-good points written tagged `Stale=true` in place of
    /// missing readings (resilient path only).
    pub stale_points: usize,
    /// Nodes that got at least one stale substitution this interval, with
    /// the number of sweeps since that node was last fully fresh.
    pub stale_nodes: Vec<(NodeId, u64)>,
    /// Every fleet node's collection health this interval, in fleet order
    /// (a sweep's; no rows for the other sources).
    pub nodes: Recycled<NodeInterval>,
    /// Breaker census at sweep end (all-closed on the legacy path).
    pub breakers: BreakerCounts,
    /// Detector transitions observed while ingesting this interval's live
    /// readings (empty when detectors are off — and on a healthy interval).
    pub anomalies: Vec<AnomalyEvent>,
}

/// One interval's points.
pub type PointBatch = Recycled<DataPoint>;

/// One interval's `T`s, in storage the collector takes back when this is
/// dropped.
pub struct Recycled<T> {
    items: Vec<T>,
    /// Where the collector looks for them next interval.
    home: Arc<Mutex<Vec<T>>>,
}

impl<T> Recycled<T> {
    /// What the last guard over `home` handed back — a guard from the
    /// start, so an early return hands the storage back too.
    fn take(home: &Arc<Mutex<Vec<T>>>) -> Recycled<T> {
        Recycled { items: std::mem::take(&mut *home.lock()), home: Arc::clone(home) }
    }
}

impl<T> std::ops::Deref for Recycled<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T> Drop for Recycled<T> {
    /// Hands `items` back as they are: the next interval writes over them.
    fn drop(&mut self) {
        *self.home.lock() = std::mem::take(&mut self.items);
    }
}

/// The Metrics Collector service.
pub struct Collector {
    config: CollectorConfig,
    client: RedfishClient,
    finish_estimator: FinishEstimator,
    /// Per-BMC health and breakers (resilient path only).
    registry: Option<HealthRegistry>,
    /// Last successfully parsed reading per (node, category) and the
    /// sweep index it came from, served tagged stale while the node is
    /// skipped or failing.
    last_good: HashMap<(NodeId, Category), (NodeReading, u64)>,
    /// Streaming per-(node, signal) anomaly detectors, fed live readings.
    detectors: Option<DetectorBank>,
    /// The previous interval's points, once its output has been dropped;
    /// the next interval writes over them ([`PointWriter`]).
    point_home: Arc<Mutex<Vec<DataPoint>>>,
    /// The same for its per-node health table.
    node_home: Arc<Mutex<Vec<NodeInterval>>>,
}

impl Collector {
    /// Build a collector.
    pub fn new(config: CollectorConfig) -> Self {
        let client = RedfishClient::new(config.client.clone());
        let registry = config.resilience.as_ref().map(|_| HealthRegistry::new());
        let detectors = config.detectors.map(DetectorBank::new);
        if detectors.is_some() {
            // Register the event counter up front so a scrape before the
            // first anomaly sees an explicit 0, not a missing family.
            monster_obs::counter_help(
                "monster_anomaly_events_total",
                "Streaming detector transitions (raises + clears) observed at ingest.",
            );
        }
        Collector {
            config,
            client,
            finish_estimator: FinishEstimator::new(),
            registry,
            last_good: HashMap::new(),
            detectors,
            point_home: Arc::default(),
            node_home: Arc::default(),
        }
    }

    /// Collect one interval at time `now` from `source`: its out-of-band
    /// readings, then the resource manager's in-band half, built into one
    /// batch of points. Every source runs under one `collector.interval`
    /// root span and counts its interval, points and finish estimates.
    /// Fails only when a sensor or telemetry read does; a sweep's failures
    /// are in its outcome.
    pub fn collect(
        &mut self,
        source: Source<'_>,
        cluster: &SimulatedCluster,
        qm: &Qmaster,
        now: EpochSecs,
    ) -> Result<IntervalOutput> {
        let span = monster_obs::Span::enter("collector.interval");
        // Mint this interval's trace context and install it for the
        // duration: the sweep, its per-BMC child spans, and any TSDB
        // writes made while we hold the guard all join the same trace.
        let trace = span.context();
        let _trace_guard = monster_obs::trace::set_current(trace);
        let mut points = Recycled::take(&self.point_home);
        let mut writer = PointWriter::new(self.config.schema, &mut points.items);
        let mut nodes = Recycled::take(&self.node_home);
        nodes.items.clear();
        let mut sweep = SweepOutcome::default();
        // `Vec::new` allocates at its first push: a healthy sweep adds nothing here.
        let (mut stale_points, mut stale_nodes, mut anomalies) = (0, Vec::new(), Vec::new());
        let mut breakers = BreakerCounts::default();
        match source {
            // What describes a sweep stays in this arm: the node table,
            // last-good substitution, the breaker census, the makespan and
            // the stale/degraded counters. So do the detectors and the
            // freshness ingests: they are tuned to the wire's rounded
            // readings, and the other sources carry full precision.
            Source::Sweep => {
                // Resilient when configured: breakers + backoff + deadline
                // budget; otherwise the legacy fan-out with immediate retries.
                let deadline = sweep_deadline(self.config.interval_secs);
                sweep = match &self.registry {
                    Some(registry) => self.client.sweep_resilient(cluster, registry, deadline),
                    None => self.client.sweep(cluster),
                };
                let resilient = self.registry.is_some();
                let current_sweep = self.registry.as_ref().map_or(0, |r| r.sweep_index());
                // One row a fleet node, in the fleet's (`NodeId`) order: how the
                // loop finds a result's row whatever order the sweep ran in.
                nodes.items.extend(cluster.node_ids().iter().map(|&node| NodeInterval {
                    node,
                    live_readings: 0,
                    skipped: 0,
                    breaker_open: false,
                    stale_age_sweeps: 0,
                }));
                for outcome in &sweep.results {
                    let row = nodes.items.binary_search_by_key(&outcome.node, |n| n.node);
                    let health = &mut nodes.items[row.expect("the sweep visits fleet nodes")];
                    health.skipped += outcome.skip.is_some() as usize;
                    health.breaker_open |= outcome.skip == Some(SkipReason::BreakerOpen);
                    if let Some(reading) = &outcome.reading {
                        health.live_readings += 1;
                        writer.bmc(outcome.node, reading, now, false);
                        // Streaming detection happens at ingest: only *live*
                        // readings are evaluated — stale substitutions repeat
                        // last-known-good values and would fake flatlines.
                        if let Some(bank) = &mut self.detectors {
                            bank.observe_reading(
                                outcome.node,
                                reading,
                                now,
                                Some(trace),
                                &mut anomalies,
                            );
                        }
                        if resilient {
                            let fresh = (reading.clone(), current_sweep);
                            self.last_good.insert((outcome.node, outcome.category), fresh);
                        }
                    } else if resilient {
                        // Degraded: serve the last-known-good reading for this
                        // (node, category), tagged stale so queries can tell
                        // substituted values from live ones.
                        if let Some((prev, fresh_at)) =
                            self.last_good.get(&(outcome.node, outcome.category))
                        {
                            let before = writer.written();
                            writer.bmc(outcome.node, prev, now, true);
                            stale_points += writer.written() - before;
                            let age = current_sweep.saturating_sub(*fresh_at);
                            health.stale_age_sweeps = health.stale_age_sweeps.max(age);
                        }
                    }
                }
                // A live reading advances its series' last-good-ingest watermark —
                // the raw material of the freshness SLO.
                monster_obs::freshness().record_ingests(
                    now.as_secs() as f64,
                    sweep
                        .results
                        .iter()
                        .filter(|o| o.reading.is_some())
                        .map(|o| (o.node, o.category.as_str())),
                );
                // A substitute is at least a sweep old, so a zero is a fresh node.
                stale_nodes = nodes
                    .iter()
                    .filter(|n| n.stale_age_sweeps > 0)
                    .map(|n| (n.node, n.stale_age_sweeps))
                    .collect();
                breakers = self.registry.as_ref().map(|r| r.breaker_counts()).unwrap_or_default();
                monster_obs::histo("monster_collector_interval_seconds")
                    .observe_vdur(sweep.makespan);
                monster_obs::counter("monster_collector_stale_points_total")
                    .add(stale_points as u64);
                monster_obs::gauge("monster_collector_stale_nodes").set(stale_nodes.len() as i64);
                if sweep.degraded() {
                    monster_obs::counter("monster_collector_degraded_sweeps_total").inc();
                }
                if !anomalies.is_empty() {
                    monster_obs::counter("monster_anomaly_events_total")
                        .add(anomalies.len() as u64);
                }
                // Sweep tick: the burn-rate sample and lag reference, at this cadence.
                let cadence = self.config.interval_secs as f64;
                monster_obs::freshness().record_sweep(now.as_secs() as f64, cadence);
            }
            Source::Sensors => {
                for &node in cluster.node_ids() {
                    let s = cluster.sensors(node)?;
                    writer.thermal(node, &s.cpu_temps, s.inlet, &s.fans, now);
                    writer.power(node, s.power, &monster_redfish::sensors::VOLTAGE_RAILS, now);
                    writer.bmc(node, &NodeReading::Manager { health: s.bmc_health }, now, false);
                    writer.bmc(node, &NodeReading::System { health: s.host_health }, now, false);
                }
            }
            Source::Telemetry(service) => {
                for &node in cluster.node_ids() {
                    for sample in parse_report(&service.take_report(node)?)? {
                        let t = sample.time;
                        writer.thermal(node, &sample.cpu_temps, sample.inlet, &sample.fans, t);
                        writer.power(node, sample.power, &[], t);
                    }
                }
            }
        }

        // --- in-band: resource manager pull --- the UGE / NodeJobs points
        // of each load report, the JobsInfo point of each job that is
        // running or that ARCo first reports finished this interval, and
        // the finish times estimated from job-list diffs.
        let (snapshot, uge_bytes) = accounting_pull(qm);
        for report in &snapshot.nodes {
            writer.uge(report, now);
        }
        let previous_pull = now - self.config.interval_secs;
        for job in &snapshot.jobs {
            let fresh = match &job.state {
                JobState::Done { end, .. } | JobState::Failed { end, .. } => *end > previous_pull,
                JobState::Running { .. } => true,
                JobState::Pending => false,
            };
            if fresh {
                writer.job(job, now);
            }
        }
        drop(writer);
        let on_nodes = snapshot.nodes.iter().flat_map(|r| r.job_list.iter().copied());
        let estimated_finishes = self.finish_estimator.observe(on_nodes, now);

        // Self-monitoring: one interval's worth of `monster_collector_*`
        // series (the sweep itself reported its own statistics).
        monster_obs::counter("monster_collector_intervals_total").inc();
        monster_obs::counter("monster_collector_points_total").add(points.len() as u64);
        monster_obs::counter("monster_collector_finish_estimates_total")
            .add(estimated_finishes.len() as u64);
        span.finish_after(sweep.makespan);

        Ok(IntervalOutput {
            trace,
            points,
            sweep,
            uge_bytes,
            estimated_finishes,
            stale_points,
            stale_nodes,
            nodes,
            breakers,
            anomalies,
        })
    }

    /// [`Collector::collect`] from the sweep.
    pub fn collect_interval(
        &mut self,
        cluster: &SimulatedCluster,
        qm: &Qmaster,
        now: EpochSecs,
    ) -> IntervalOutput {
        self.collect(Source::Sweep, cluster, qm, now).expect("a sweep reports its failures")
    }

    /// The points of [`Collector::collect`] from the sensors.
    pub fn collect_interval_direct(
        &mut self,
        cluster: &SimulatedCluster,
        qm: &Qmaster,
        now: EpochSecs,
    ) -> PointBatch {
        self.collect(Source::Sensors, cluster, qm, now).expect("a fleet node has sensors").points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_redfish::bmc::BmcConfig;
    use monster_redfish::cluster::ClusterConfig;
    use monster_redfish::resilience::ResilienceConfig;
    use monster_scheduler::{JobShape, JobSpec, QmasterConfig, WorkloadConfig, WorkloadGenerator};
    use monster_tsdb::{Db, DbConfig};
    use monster_util::UserName;

    fn rig(nodes: usize, seed: u64) -> (SimulatedCluster, Qmaster) {
        let cluster = SimulatedCluster::new(ClusterConfig {
            nodes,
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..ClusterConfig::small(nodes, seed)
        });
        let qm = Qmaster::new(QmasterConfig { nodes, ..QmasterConfig::default() });
        (cluster, qm)
    }

    fn t0() -> EpochSecs {
        QmasterConfig::default().start_time
    }

    #[test]
    fn one_interval_produces_expected_point_mix() {
        let (cluster, mut qm) = rig(8, 1);
        qm.submit_at(
            t0() + 1,
            JobSpec {
                user: UserName::new("alice"),
                name: "a.sh".into(),
                shape: JobShape::Serial { slots: 8 },
                runtime_secs: 100_000,
                priority: 0,
                mem_per_slot_gib: 1.0,
            },
        );
        qm.run_until(t0() + 60);
        cluster.step(60.0, |n| qm.utilization(n));
        let mut col = Collector::new(CollectorConfig::default());
        let out = col.collect(Source::Sweep, &cluster, &qm, t0() + 60).unwrap();

        let measurements: std::collections::HashSet<&str> =
            out.points.iter().map(|p| p.measurement.as_str()).collect();
        for m in ["Power", "Thermal", "UGE", "NodeJobs", "JobsInfo"] {
            assert!(measurements.contains(m), "missing {m}; got {measurements:?}");
        }
        // Optimized schema: ~16 BMC+UGE points per node + 1 job.
        let per_node = out.points.len() as f64 / 8.0;
        assert!((10.0..20.0).contains(&per_node), "points/node {per_node}");
        assert!(out.sweep.successes() == 32);
        assert!(out.uge_bytes > 1000);
    }

    #[test]
    fn quanah_scale_interval_is_about_10k_points() {
        // The paper: "the total number of data points generated within
        // each interval is approximately 10,000".
        let (cluster, mut qm) = rig(467, 2);
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default());
        gen.drive(&mut qm, t0(), t0() + 3600);
        qm.run_until(t0() + 3600);
        cluster.step(60.0, |n| qm.utilization(n));
        let mut col = Collector::new(CollectorConfig::default());
        let out = col.collect(Source::Sweep, &cluster, &qm, t0() + 3600).unwrap();
        assert!(
            (6_000..16_000).contains(&out.points.len()),
            "points per interval: {}",
            out.points.len()
        );
    }

    #[test]
    fn finish_estimation_fires_when_job_vanishes() {
        let (cluster, mut qm) = rig(2, 3);
        qm.submit_at(
            t0() + 1,
            JobSpec {
                user: UserName::new("bob"),
                name: "short.sh".into(),
                shape: JobShape::Serial { slots: 2 },
                runtime_secs: 90,
                priority: 0,
                mem_per_slot_gib: 1.0,
            },
        );
        let mut col = Collector::new(CollectorConfig::default());
        // Interval 1: job running.
        qm.run_until(t0() + 60);
        let out1 = col.collect(Source::Sweep, &cluster, &qm, t0() + 60).unwrap();
        assert!(out1.estimated_finishes.is_empty());
        // Interval 2: job finished between the pulls.
        qm.run_until(t0() + 120);
        let out2 = col.collect(Source::Sweep, &cluster, &qm, t0() + 120).unwrap();
        assert_eq!(out2.estimated_finishes.len(), 1);
        assert_eq!(out2.estimated_finishes[0].1, t0() + 120);
    }

    #[test]
    fn collected_points_land_in_db() {
        let (cluster, mut qm) = rig(4, 4);
        qm.run_until(t0() + 60);
        cluster.step(60.0, |n| qm.utilization(n));
        let db = Db::new(DbConfig::default());
        let mut col = Collector::new(CollectorConfig::default());
        let out = col.collect(Source::Sweep, &cluster, &qm, t0() + 60).unwrap();
        db.write_batch(&out.points).unwrap();
        let stats = db.stats();
        assert!(stats.points > 0);
        assert!(stats.cardinality > 0);
        // Every point written (fields counted individually by the db).
        let field_count: usize = out.points.iter().map(|p| p.fields.len()).sum();
        assert_eq!(stats.points, field_count);
    }

    #[test]
    fn previous_schema_writes_more_volume_than_optimized() {
        let (cluster, mut qm) = rig(6, 5);
        qm.submit_at(
            t0() + 1,
            JobSpec {
                user: UserName::new("carol"),
                name: "c.sh".into(),
                shape: JobShape::Serial { slots: 4 },
                runtime_secs: 100_000,
                priority: 0,
                mem_per_slot_gib: 1.0,
            },
        );
        qm.run_until(t0() + 60);
        cluster.step(60.0, |n| qm.utilization(n));

        let run = |schema: SchemaVersion| {
            let db = Db::new(DbConfig::default());
            let mut col = Collector::new(CollectorConfig { schema, ..CollectorConfig::default() });
            for k in 1..=5 {
                db.write_batch(
                    &col.collect(Source::Sweep, &cluster, &qm, t0() + 60 * k).unwrap().points,
                )
                .unwrap();
            }
            db.stats()
        };
        let old = run(SchemaVersion::Previous);
        let new = run(SchemaVersion::Optimized);
        assert!(
            old.wire_bytes > new.wire_bytes * 3,
            "old={} new={}",
            old.wire_bytes,
            new.wire_bytes
        );
        assert!(old.cardinality > new.cardinality, "cardinality didn't drop");
    }

    /// Six intervals over a rig whose third node's BMC dies after the
    /// first and comes back after the fourth, with a job that finishes on
    /// the way; `keep_outputs` decides whether each output is dropped
    /// (handing its buffer back) before the next interval runs.
    fn buffer_run(keep_outputs: bool) -> (Vec<Vec<DataPoint>>, Vec<*const DataPoint>, usize) {
        let (cluster, mut qm) = rig(5, 6);
        let victim = cluster.node_ids()[2];
        for (name, runtime_secs) in [("short.sh", 150), ("long.sh", 100_000)] {
            qm.submit_at(
                t0() + 1,
                JobSpec {
                    user: UserName::new("dana"),
                    name: name.into(),
                    shape: JobShape::Serial { slots: 6 },
                    runtime_secs,
                    priority: 0,
                    mem_per_slot_gib: 1.0,
                },
            );
        }
        let mut col = Collector::new(CollectorConfig {
            resilience: Some(ResilienceConfig::default()),
            ..CollectorConfig::default()
        });
        let (mut built, mut storage, mut stale, mut kept) = (Vec::new(), Vec::new(), 0, Vec::new());
        for k in 1..=6 {
            cluster.set_bmc_alive(victim, !(2..=4).contains(&k)).unwrap();
            qm.run_until(t0() + 60 * k);
            cluster.step(60.0, |n| qm.utilization(n));
            let out = col.collect(Source::Sweep, &cluster, &qm, t0() + 60 * k).unwrap();
            built.push(out.points.to_vec());
            storage.push(out.points.as_ptr());
            stale += out.stale_points;
            if keep_outputs {
                kept.push(out);
            }
        }
        (built, storage, stale)
    }

    /// The per-node table against a straight recount of the sweep it was
    /// built beside, over intervals in which a BMC dies, is skipped with its
    /// breaker open, and comes back.
    #[test]
    fn node_table_is_the_sweep_recounted_in_storage_it_takes_back() {
        let (cluster, qm) = rig(5, 7);
        let victim = cluster.node_ids()[2];
        let mut col = Collector::new(CollectorConfig {
            resilience: Some(ResilienceConfig::default()),
            ..CollectorConfig::default()
        });
        let (mut storage, mut skipped, mut stale) = (Vec::new(), 0, 0);
        for k in 1..=8 {
            cluster.set_bmc_alive(victim, !(2..=6).contains(&k)).unwrap();
            let out = col.collect(Source::Sweep, &cluster, &qm, t0() + 60 * k).unwrap();
            let want: Vec<NodeInterval> = cluster
                .node_ids()
                .iter()
                .map(|&node| {
                    let of_node = || out.sweep.results.iter().filter(move |r| r.node == node);
                    let age = out.stale_nodes.iter().find(|(n, _)| *n == node).map(|(_, age)| *age);
                    NodeInterval {
                        node,
                        live_readings: of_node().filter(|r| r.reading.is_some()).count(),
                        skipped: of_node().filter(|r| r.skip.is_some()).count(),
                        breaker_open: of_node().any(|r| r.skip == Some(SkipReason::BreakerOpen)),
                        stale_age_sweeps: age.unwrap_or(0),
                    }
                })
                .collect();
            assert_eq!(&*out.nodes, &want[..], "interval {k}");
            skipped += out.nodes[2].skipped;
            stale += out.nodes[2].stale_age_sweeps;
            storage.push(out.nodes.as_ptr());
        }
        assert!(skipped > 0 && stale > 0, "the victim was never skipped ({skipped}) or stale");
        assert!(storage.windows(2).all(|w| w[0] == w[1]), "one table, written over");
    }

    #[test]
    fn recycled_buffer_builds_the_same_points_as_a_fresh_one() {
        let (recycled, recycled_storage, stale) = buffer_run(false);
        let (fresh, fresh_storage, _) = buffer_run(true);
        assert!(stale > 0, "no Stale=true substitution interval in the run");
        assert!(recycled.iter().flatten().any(|p| p.tags.iter().any(|(k, _)| k == "Stale")));
        assert_eq!(recycled, fresh);
        // The two runs really differ in where they built: outputs alive
        // together cannot share storage; dropped ones hand theirs on.
        let distinct =
            |ptrs: &[*const DataPoint]| ptrs.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(distinct(&fresh_storage), fresh_storage.len());
        assert!(distinct(&recycled_storage) < recycled_storage.len());
    }
}
