//! The deployment driver: cluster + scheduler + collector + storage +
//! builder, advanced in lock-step.

use monster_alert::{AlertEngine, DetectorConfig, EngineConfig, IntervalInput};
use monster_builder::{build_plan, encode_response, BuilderRequest, ExecMode};
use monster_collector::{Collector, CollectorConfig, IntervalOutput, SchemaVersion, Source};
use monster_compress::Level;
use monster_obs::{IntervalStage, LapClock, NotableRequest, Registry, TraceContext};
use monster_redfish::bmc::BmcConfig;
use monster_redfish::client::{ClientConfig, RequestOutcome, SkipReason};
use monster_redfish::cluster::{ClusterConfig, SimulatedCluster};
use monster_redfish::resilience::ResilienceConfig;
use monster_redfish::telemetry::SAMPLE_INTERVAL_SECS;
use monster_scheduler::{Qmaster, QmasterConfig, WorkloadConfig, WorkloadGenerator};
use monster_sim::{DiskModel, VDuration};
use monster_tsdb::retention::TierConfig;
use monster_tsdb::{CostParams, Db, DbConfig, RecoveryReport};
use monster_util::{EpochSecs, JobId, NodeId, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Quanah's size; amplification defaults scale against it.
pub const QUANAH_NODES: usize = 467;

/// Deployment configuration.
#[derive(Debug, Clone)]
pub struct MonsterConfig {
    /// Cluster size. Experiments may run scaled down; set
    /// `amplify_to_quanah` to keep simulated timings at 467-node scale.
    pub nodes: usize,
    /// Master seed for all stochastic components.
    pub seed: u64,
    /// Storage schema generation.
    pub schema: SchemaVersion,
    /// Collection interval (the paper's 60 s).
    pub interval_secs: i64,
    /// Storage device backing the TSDB.
    pub disk: DiskModel,
    /// BMC behaviour model.
    pub bmc: BmcConfig,
    /// Redfish client tunables (in-flight budget, sweep workers).
    pub client: ClientConfig,
    /// When set, collection runs through the resilience layer: circuit
    /// breakers, jittered backoff, deadline-aware degraded sweeps (9/10 of
    /// `interval_secs`) with stale substitution.
    pub resilience: Option<ResilienceConfig>,
    /// Turns on the collector's streaming anomaly detectors (`None`
    /// disables detection; on by default). Their floors and thresholds are
    /// the constants of `monster_alert::detect` (`TUNING` and its peers).
    pub detectors: Option<DetectorConfig>,
    /// Turns on the alert engine (`None` disables alerting; on by
    /// default). It runs on the constants of `monster_alert::engine`
    /// (`HOLDDOWN_SECS` and its peers), consumes detector events,
    /// collection health and freshness burn each interval, and serves
    /// `GET /v1/alerts`.
    pub alerting: Option<EngineConfig>,
    /// Synthetic workload (`None` leaves the cluster idle).
    pub workload: Option<WorkloadConfig>,
    /// How much simulated time the workload generator pre-populates.
    pub horizon_secs: i64,
    /// When true, query-cost counters are scaled by `467 / nodes` so a
    /// scaled-down deployment reports full-Quanah simulated timings.
    pub amplify_to_quanah: bool,
    /// Durable-storage directory. When set, the deployment opens its TSDB
    /// with [`Db::recover`] — replaying any WAL and cold-tier segment
    /// files left by a previous (possibly crashed) run — and every write
    /// is logged for the next restart. `None` keeps storage memory-only,
    /// the historical behavior.
    pub data_dir: Option<std::path::PathBuf>,
    /// Age-based storage tiering (requires nothing but a cold-device
    /// model; pairs naturally with `data_dir` so cold shards land in
    /// reclaimable segment files). The maintenance pass runs once per
    /// collection interval.
    pub tiering: Option<TierConfig>,
}

impl Default for MonsterConfig {
    fn default() -> Self {
        MonsterConfig {
            nodes: QUANAH_NODES,
            seed: 2020,
            schema: SchemaVersion::Optimized,
            interval_secs: 60,
            disk: DiskModel::HDD,
            bmc: BmcConfig::default(),
            client: ClientConfig::default(),
            resilience: None,
            detectors: Some(DetectorConfig::default()),
            alerting: Some(EngineConfig::default()),
            workload: Some(WorkloadConfig::default()),
            horizon_secs: 86_400,
            amplify_to_quanah: false,
            data_dir: None,
            tiering: None,
        }
    }
}

/// Summary of one collection interval.
#[derive(Debug, Clone)]
pub struct IntervalSummary {
    /// Interval timestamp.
    pub time: EpochSecs,
    /// Points written.
    pub points: usize,
    /// Simulated sweep makespan (zero for the other sources).
    pub collection_time: VDuration,
    /// BMC requests that failed after retries (zero for the other sources).
    pub bmc_failures: usize,
    /// Requests the resilient scheduler skipped (breaker open or deadline
    /// budget exhausted; zero on the legacy path).
    pub bmc_skipped: usize,
    /// Last-known-good points written tagged stale this interval.
    pub stale_points: usize,
    /// Nodes substituted with stale data, with sweeps-since-fresh ages.
    pub stale_nodes: Vec<(NodeId, u64)>,
    /// True when the interval ran on partial data.
    pub degraded: bool,
    /// Circuit breakers open at sweep end.
    pub breakers_open: usize,
    /// The distributed-trace context this interval's pipeline pass ran
    /// under (sweep, per-BMC children, and TSDB writes share it).
    pub trace: TraceContext,
    /// Nodes the resilient scheduler skipped this interval, with the
    /// reason (`BreakerOpen` / `Deadline`) — deduplicated per node.
    pub skipped_nodes: Vec<(NodeId, SkipReason)>,
    /// Detector transitions observed while ingesting this interval.
    pub anomaly_events: usize,
    /// What the alert engine did this interval (all zero with alerting
    /// off).
    pub alerts: monster_alert::IntervalOutcome,
}

/// A running MonSTer deployment.
pub struct Monster {
    config: MonsterConfig,
    cluster: SimulatedCluster,
    qmaster: Qmaster,
    collector: Collector,
    db: Arc<Db>,
    now: EpochSecs,
    intervals_run: usize,
    /// The alert engine, shared with the HTTP service when serving.
    alerts: Option<Arc<AlertEngine>>,
    /// What startup recovery replayed (`None` for memory-only storage).
    recovery: Option<RecoveryReport>,
    /// What every part of this deployment reports to, and what its
    /// `/metrics`, `/debug/trace` and `/debug/pipeline` export.
    registry: Arc<Registry>,
}

impl Monster {
    /// Assemble a deployment with a registry of its own and pre-generate its
    /// workload.
    pub fn new(config: MonsterConfig) -> Monster {
        let registry = Arc::new(Registry::new());
        let cluster = SimulatedCluster::new(ClusterConfig {
            nodes: config.nodes,
            slots_per_chassis: 4,
            seed: config.seed,
            bmc: config.bmc.clone(),
            bmc_overrides: Vec::new(),
        });
        let qm_config = QmasterConfig { nodes: config.nodes, ..QmasterConfig::default() };
        let start = qm_config.start_time;
        let mut qmaster = Qmaster::new_in(qm_config, &registry);
        if let Some(wl) = &config.workload {
            let mut gen =
                WorkloadGenerator::new(WorkloadConfig { seed: config.seed ^ 0x5EED, ..wl.clone() });
            gen.drive(&mut qmaster, start, start + config.horizon_secs);
        }
        let amplification =
            if config.amplify_to_quanah { QUANAH_NODES as f64 / config.nodes as f64 } else { 1.0 };
        let db_config = DbConfig {
            shard_duration: 86_400,
            disk: config.disk,
            cost: CostParams::default().with_amplification(amplification),
            tiering: config.tiering,
            ..DbConfig::default()
        };
        let (db, recovery) = match &config.data_dir {
            Some(dir) => {
                let (db, report) = Db::recover_in(db_config, dir, &registry)
                    .expect("durable storage directory must open");
                (Arc::new(db), Some(report))
            }
            None => (Arc::new(Db::new_in(db_config, &registry)), None),
        };
        let collector_config = CollectorConfig {
            schema: config.schema,
            interval_secs: config.interval_secs,
            client: config.client.clone(),
            resilience: config.resilience.clone(),
            detectors: config.detectors,
        };
        let collector = Collector::new_in(collector_config, &registry);
        let alerts = config.alerting.map(|c| Arc::new(AlertEngine::new_in(c, &registry)));
        Monster {
            config,
            cluster,
            qmaster,
            collector,
            db,
            now: start,
            intervals_run: 0,
            alerts,
            recovery,
            registry,
        }
    }

    /// The registry every part of this deployment reports to.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// What startup recovery replayed from `data_dir`, when configured.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The deployment configuration.
    pub fn config(&self) -> &MonsterConfig {
        &self.config
    }

    /// Current simulation time.
    pub fn now(&self) -> EpochSecs {
        self.now
    }

    /// Collection intervals executed so far.
    pub fn intervals_run(&self) -> usize {
        self.intervals_run
    }

    /// The storage layer.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// The simulated fleet.
    pub fn cluster(&self) -> &SimulatedCluster {
        &self.cluster
    }

    /// The scheduler.
    pub fn qmaster(&self) -> &Qmaster {
        &self.qmaster
    }

    /// Mutable scheduler access (failure injection, extra submissions).
    pub fn qmaster_mut(&mut self) -> &mut Qmaster {
        &mut self.qmaster
    }

    /// The alert engine, when alerting is on.
    pub fn alerts(&self) -> Option<&Arc<AlertEngine>> {
        self.alerts.as_ref()
    }

    /// Node inventory.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.cluster.node_ids().to_vec()
    }

    /// Run one collection interval from `source`: advance the world, collect,
    /// land the points and do the per-interval maintenance. A sweep, the one
    /// source with a node table, is also folded through the alert engine.
    /// The interval leaves one [`IntervalRecord`](monster_obs::IntervalRecord)
    /// in the registry's ring, its stages timed by one lap clock.
    pub fn run_interval_from(&mut self, mut source: Source<'_>) -> Result<IntervalSummary> {
        let mut clock = LapClock::<{ IntervalStage::COUNT }>::start();
        let source_name = source.name();
        self.advance_world(&mut source);
        clock.lap(IntervalStage::Advance);
        let mut out = self.collector.collect(source, &self.cluster, &self.qmaster, self.now)?;
        clock.lap(IntervalStage::Collect);
        // The points go in as the collector's 10 000-point batches
        // (§III-C), sequentially — same-timestamp points must reach a
        // shard in collection order — under the interval's trace.
        let batches = out.points.chunks(10_000);
        let write_batches = batches.len() as u64;
        let trace_guard = monster_obs::trace::set_current(out.trace);
        batches.into_iter().try_for_each(|chunk| self.db.write_batch(chunk))?;
        drop(trace_guard);
        self.intervals_run += 1;
        clock.lap(IntervalStage::Store);

        let mut skipped_nodes: Vec<(NodeId, SkipReason)> = out
            .sweep
            .results
            .iter()
            .filter_map(|r| r.skip.map(|reason| (r.node, reason)))
            .collect();
        // Stable: a node skipped for two reasons reports its first in
        // sweep order.
        skipped_nodes.sort_by_key(|&(n, _)| n);
        skipped_nodes.dedup_by_key(|&mut (n, _)| n);

        // Fold the interval through the alert engine: detector events, the
        // collector's per-node health table, freshness burn, and the
        // scheduler's placement for job attribution.
        let alerts = match &self.alerts {
            Some(engine) if !out.nodes.is_empty() => {
                let jobs: BTreeMap<NodeId, Vec<JobId>> =
                    out.nodes.iter().map(|n| (n.node, self.qmaster.jobs_on(n.node))).collect();
                let fresh = self.registry.freshness();
                let slo = fresh.config();
                engine.observe_interval(&IntervalInput {
                    now: self.now,
                    anomalies: &out.anomalies,
                    nodes: &out.nodes,
                    burn_fast: fresh.burn_rate(slo.fast_window_secs),
                    burn_slow: fresh.burn_rate(slo.slow_window_secs),
                    jobs: &jobs,
                })
            }
            _ => monster_alert::IntervalOutcome::default(),
        };
        clock.lap(IntervalStage::Alerts);

        // Age-based tiering piggybacks on the same per-interval maintenance
        // pass: a no-op scan when nothing crossed the hot horizon. A
        // tiering error comes back after the points have landed (and, with
        // a `data_dir`, are in the WAL) and the interval is recorded; a
        // failed pass leaves its shard hot for the next interval's to retry.
        let tiered = self.db.tier_cold_shards(self.now);
        clock.lap(IntervalStage::Tiering);
        self.record_interval(&out, source_name, write_batches, clock);
        tiered?;

        Ok(IntervalSummary {
            time: self.now,
            points: out.points.len(),
            collection_time: out.sweep.makespan,
            bmc_failures: out.sweep.failures(),
            bmc_skipped: out.sweep.skipped(),
            stale_points: out.stale_points,
            stale_nodes: std::mem::take(&mut out.stale_nodes),
            degraded: out.sweep.degraded(),
            breakers_open: out.breakers.open,
            trace: out.trace,
            skipped_nodes,
            anomaly_events: out.anomalies.len(),
            alerts,
        })
    }

    /// Fill this interval's record in the registry's ring: its ids (the
    /// children's minted here, under the collector's root), the lap
    /// clock's stages, and the sweep's skipped, failed and retried
    /// requests. A healthy interval allocates nothing here.
    fn record_interval(
        &self,
        out: &IntervalOutput,
        source: &'static str,
        write_batches: u64,
        clock: LapClock<{ IntervalStage::COUNT }>,
    ) {
        let obs = &self.registry;
        let root = out.trace;
        let start_ns = clock.start_ns();
        let (stages_ns, total_ns) = clock.finish();
        obs.intervals().push(|_, rec| {
            (rec.trace, rec.span, rec.source) = (root.trace, root.span, source);
            let sweep = (source == "sweep").then(|| root.child(obs).span);
            rec.sweep_span = sweep;
            rec.write_span = root.child(obs).span;
            (rec.start_ns, rec.stages_ns, rec.total_ns) = (start_ns, stages_ns, total_ns);
            rec.makespan_ns = out.sweep.makespan.as_nanos();
            (rec.points, rec.write_batches) = (out.points.len() as u64, write_batches);
            rec.requests.clear();
            let notable =
                |r: &&RequestOutcome| r.skip.is_some() || r.reading.is_none() || r.attempts > 1;
            rec.requests.extend(out.sweep.results.iter().filter(notable).map(|r| NotableRequest {
                span: root.child(obs).span,
                node: r.node,
                category: r.category.as_str(),
                skip: r.skip.map(SkipReason::as_str),
                attempts: r.attempts,
                timeouts: r.timeouts,
                delivered: r.reading.is_some(),
                elapsed_ns: r.elapsed.as_nanos(),
            }));
        });
    }

    /// Advance the scheduler and the cluster physics by one collection
    /// interval. A telemetry source steps at its sample cadence and records
    /// every step, the §VI reports' fast samples.
    fn advance_world(&mut self, source: &mut Source<'_>) {
        let step = match source {
            Source::Telemetry(_) => SAMPLE_INTERVAL_SECS,
            _ => self.config.interval_secs,
        };
        assert!(
            step > 0 && self.config.interval_secs % step == 0,
            "collection interval must be a multiple of the telemetry cadence"
        );
        for _ in 0..self.config.interval_secs / step {
            let next = self.now + step;
            self.qmaster.run_until(next);
            let qm = &self.qmaster;
            self.cluster.step(step as f64, |n| qm.utilization(n));
            self.now = next;
            if let Source::Telemetry(service) = source {
                service.record(&self.cluster, self.now);
            }
        }
    }

    /// One interval from the Redfish sweep.
    pub fn run_interval(&mut self) -> Result<IntervalSummary> {
        self.run_interval_from(Source::Sweep)
    }

    /// Run `n` full intervals.
    pub fn run_intervals(&mut self, n: usize) -> Vec<IntervalSummary> {
        (0..n).map(|_| self.run_interval().expect("schema-consistent writes")).collect()
    }

    /// Run `n` intervals from the sensors (no Redfish wire layer) — used to
    /// populate days of history for the query experiments. Returns the
    /// points written.
    pub fn run_intervals_bulk(&mut self, n: usize) -> usize {
        (0..n)
            .map(|_| self.run_interval_from(Source::Sensors).expect("sensor intervals").points)
            .sum()
    }

    /// Execute a Metrics Builder request against this deployment's data.
    pub fn builder_query(
        &self,
        req: &BuilderRequest,
        mode: ExecMode,
    ) -> Result<monster_builder::BuilderOutcome> {
        let plan = build_plan(self.config.schema, self.cluster.node_ids(), req);
        monster_builder::exec::execute(&self.db, &plan, mode)
    }

    /// Execute a request and encode the response for a consumer on `net`:
    /// the bytes a `/v1/metrics` miss sends, with no `Value` tree built.
    pub fn builder_respond(
        &self,
        req: &BuilderRequest,
        mode: ExecMode,
        net: &monster_sim::NetModel,
    ) -> Result<monster_builder::response::EncodedResponse> {
        let plan = build_plan(self.config.schema, self.cluster.node_ids(), req);
        encode_response(&self.db, &plan, mode, req.compress, Level::default(), net)
    }

    /// Serve the Metrics Builder HTTP API for this deployment.
    pub fn serve_api(&self, port: u16) -> Result<monster_http::Server> {
        let router = monster_builder::service::router(
            Arc::clone(&self.db),
            self.node_ids(),
            monster_builder::service::ServiceConfig {
                schema: self.config.schema,
                alerts: self.alerts.clone(),
                ..monster_builder::service::ServiceConfig::default()
            },
        );
        monster_http::Server::spawn(port, router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_tsdb::Aggregation;

    fn small(nodes: usize) -> Monster {
        Monster::new(MonsterConfig {
            nodes,
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..MonsterConfig::default()
        })
    }

    #[test]
    fn full_interval_pipeline_lands_points() {
        let mut m = small(8);
        let summaries = m.run_intervals(3);
        assert_eq!(summaries.len(), 3);
        assert!(summaries.iter().all(|s| s.points > 0));
        assert!(m.db().stats().points > 0);
        assert_eq!(m.intervals_run(), 3);
        // Time advanced 3 intervals.
        let t0 = QmasterConfig::default().start_time;
        assert_eq!(m.now() - t0, 180);
    }

    #[test]
    fn bulk_path_matches_schema_of_wire_path() {
        let mut a = small(4);
        a.run_intervals(2);
        let mut b = small(4);
        b.run_intervals_bulk(2);
        let ma = a.db().measurements();
        let mb = b.db().measurements();
        // Same measurement inventory from both paths (modulo Health,
        // which only appears when a node is abnormal).
        let core = |v: &Vec<String>| {
            v.iter().filter(|m| m.as_str() != "Health").cloned().collect::<Vec<_>>()
        };
        assert_eq!(core(&ma), core(&mb));
    }

    #[test]
    fn builder_queries_see_collected_data() {
        let mut m = small(6);
        m.run_intervals_bulk(30);
        let t0 = QmasterConfig::default().start_time;
        let req = BuilderRequest::new(t0, t0 + 1800, 300, Aggregation::Max).unwrap();
        let outcome = m.builder_query(&req, ExecMode::Sequential).unwrap();
        assert!(outcome.points_out > 0);
        assert!(outcome.document.get("10.101.1.1").is_some(), "node in doc");
        let power = monster_analysis::served::section(&outcome.document, "10.101.1.1", "power");
        assert!(!power.unwrap().is_empty());
    }

    #[test]
    fn api_serves_over_sockets() {
        let mut m = small(3);
        m.run_intervals_bulk(10);
        let server = m.serve_api(0).unwrap();
        let client = monster_http::Client::new();
        let resp = client.send_ok(server.addr(), &monster_http::Request::get("/v1/nodes")).unwrap();
        assert_eq!(resp.json_body().unwrap().get("nodes").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn amplification_scales_simulated_time() {
        let mk = |amp: bool| {
            let mut m = Monster::new(MonsterConfig {
                nodes: 8,
                amplify_to_quanah: amp,
                bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
                ..MonsterConfig::default()
            });
            m.run_intervals_bulk(20);
            let t0 = QmasterConfig::default().start_time;
            let req = BuilderRequest::new(t0, t0 + 1200, 300, Aggregation::Max).unwrap();
            let out = m.builder_query(&req, ExecMode::Sequential).unwrap();
            out.query_processing_time()
        };
        let plain = mk(false);
        let amplified = mk(true);
        assert!(
            amplified.as_secs_f64() > plain.as_secs_f64() * 2.0,
            "plain {plain}, amplified {amplified}"
        );
    }

    #[test]
    fn durable_deployment_recovers_across_restart() {
        let dir =
            std::env::temp_dir().join(format!("monster-deploy-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = MonsterConfig {
            nodes: 4,
            data_dir: Some(dir.clone()),
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..MonsterConfig::default()
        };
        let mut m = Monster::new(config.clone());
        assert_eq!(m.recovery().unwrap().replayed_points, 0, "fresh dir replays nothing");
        m.run_intervals_bulk(10);
        let points = m.db().stats().points;
        assert!(points > 0);
        drop(m); // best-effort final sync, then the process image is gone

        let m2 = Monster::new(config);
        let report = m2.recovery().expect("durable deployment reports recovery");
        // `replayed_points` counts DataPoints; `stats().points` counts
        // field values (Power carries Reading + sometimes Health), so the
        // field-level count is the equality that matters.
        assert!(report.replayed_points > 0 && report.records_failed == 0);
        assert_eq!(m2.db().stats().points, points, "restart must replay the full history");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tiering pass that cannot write its segment fails the interval
    /// instead of panicking, leaves the shard hot, and the next interval's
    /// pass writes the segment.
    #[test]
    fn a_failed_tiering_pass_fails_the_interval_and_the_next_pass_retries() {
        let dir =
            std::env::temp_dir().join(format!("monster-deploy-tiering-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Monster::new(MonsterConfig {
            nodes: 2,
            interval_secs: 3600,
            data_dir: Some(dir.clone()),
            tiering: Some(TierConfig::days(1)),
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..MonsterConfig::default()
        });
        // 47 hours: the first day is not yet a whole day past the horizon.
        m.run_intervals_bulk(47);
        let t0 = QmasterConfig::default().start_time;
        let segment = dir.join(format!("shard-{}.seg", t0.as_secs()));
        assert!(!segment.exists());
        std::fs::create_dir(&segment).unwrap();
        let err = m.run_interval().expect_err("the segment path is a directory");
        assert!(format!("{err:?}").contains("directory"), "{err:?}");
        assert_eq!(m.intervals_run(), 48, "the interval's points landed");
        std::fs::remove_dir(&segment).unwrap();
        m.run_interval().unwrap();
        assert!(segment.is_file(), "the retry did not write the hot shard's segment");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workload_drives_cluster_load() {
        let mut m = Monster::new(MonsterConfig {
            nodes: 32,
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..MonsterConfig::default()
        });
        // Run 2 hours of bulk collection; the default workload should put
        // jobs on the cluster.
        m.run_intervals_bulk(120);
        assert!(
            !m.qmaster().running_jobs().is_empty() || !m.qmaster().finished_jobs().is_empty(),
            "no jobs appeared"
        );
    }
}
