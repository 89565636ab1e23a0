//! The deployment driver: cluster + scheduler + collector + storage +
//! builder, advanced in lock-step.

use monster_alert::{AlertEngine, DetectorConfig, EngineConfig, IntervalInput};
use monster_builder::{
    build_plan, encode_response, BuilderRequest, ExecMode, Materializer, RollupRoute,
};
use monster_collector::{Collector, CollectorConfig, SchemaVersion, Source};
use monster_compress::Level;
use monster_obs::TraceContext;
use monster_redfish::bmc::BmcConfig;
use monster_redfish::client::{ClientConfig, SkipReason};
use monster_redfish::cluster::{ClusterConfig, SimulatedCluster};
use monster_redfish::resilience::ResilienceConfig;
use monster_scheduler::{Qmaster, QmasterConfig, WorkloadConfig, WorkloadGenerator};
use monster_sim::{DiskModel, VDuration};
use monster_tsdb::retention::TierConfig;
use monster_tsdb::{Aggregation, CostParams, DataPoint, Db, DbConfig, RecoveryReport};
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
    /// Per-node BMC overrides by enumeration index (heterogeneous fleets:
    /// one flaky rack in an otherwise healthy cluster).
    pub bmc_overrides: Vec<(usize, BmcConfig)>,
    /// Redfish client tunables (timeouts, retries, in-flight budget).
    pub client: ClientConfig,
    /// When set, collection runs through the resilience layer: circuit
    /// breakers, jittered backoff, deadline-aware degraded sweeps (9/10 of
    /// `interval_secs`) with stale substitution.
    pub resilience: Option<ResilienceConfig>,
    /// Streaming anomaly detector tuning for the collector (`None`
    /// disables detection; on by default).
    pub detectors: Option<DetectorConfig>,
    /// Alert engine tuning (`None` disables alerting; on by default). The
    /// engine consumes detector events, collection health, and freshness
    /// burn each interval, and serves `GET /v1/alerts`.
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
            bmc_overrides: Vec::new(),
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
    /// Maintained roll-ups plus their routing table.
    rollups: Option<Materializer>,
    /// The alert engine, shared with the HTTP service when serving.
    alerts: Option<Arc<AlertEngine>>,
    /// What startup recovery replayed (`None` for memory-only storage).
    recovery: Option<RecoveryReport>,
}

impl Monster {
    /// Assemble a deployment and pre-generate its workload.
    pub fn new(config: MonsterConfig) -> Monster {
        let cluster = SimulatedCluster::new(ClusterConfig {
            nodes: config.nodes,
            slots_per_chassis: 4,
            seed: config.seed,
            bmc: config.bmc.clone(),
            bmc_overrides: config.bmc_overrides.clone(),
        });
        let qm_config = QmasterConfig { nodes: config.nodes, ..QmasterConfig::default() };
        let start = qm_config.start_time;
        let mut qmaster = Qmaster::new(qm_config);
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
                let (db, report) =
                    Db::recover(db_config, dir).expect("durable storage directory must open");
                (Arc::new(db), Some(report))
            }
            None => (Arc::new(Db::new(db_config)), None),
        };
        let collector = Collector::new(CollectorConfig {
            schema: config.schema,
            interval_secs: config.interval_secs,
            client: config.client.clone(),
            resilience: config.resilience.clone(),
            detectors: config.detectors,
        });
        let alerts = config.alerting.map(|c| Arc::new(AlertEngine::new(c)));
        Monster {
            config,
            cluster,
            qmaster,
            collector,
            db,
            now: start,
            intervals_run: 0,
            rollups: None,
            alerts,
            recovery,
        }
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
    pub fn run_interval_from(&mut self, mut source: Source<'_>) -> Result<IntervalSummary> {
        self.advance_world(&mut source);
        let mut out = self.collector.collect(source, &self.cluster, &self.qmaster, self.now)?;
        self.store_interval(&out.points, out.trace)?;
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
                let fresh = monster_obs::freshness();
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

    /// Advance the scheduler and the cluster physics by one collection
    /// interval. A telemetry source steps at its sample cadence and records
    /// every step, the §VI reports' fast samples.
    fn advance_world(&mut self, source: &mut Source<'_>) {
        let step = match source {
            Source::Telemetry(service) => service.config().sample_interval_secs,
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

    /// Maintain hourly `max` roll-ups of the sensor measurements (the
    /// InfluxDB downsampling pattern of §III-C). Once enabled, each
    /// collection interval advances the roll-ups, and coarse `max`
    /// requests route to them automatically.
    pub fn enable_rollups(&mut self, window_secs: i64) -> Result<()> {
        let suffix = monster_util::time::format_interval(window_secs);
        let routes = [
            ("Power", "Reading", "Power"),
            ("Thermal", "Reading", "Thermal"),
            ("UGE", "CPUUsage", "UGECpu"),
        ]
        .map(|(source, field, stem)| {
            let target = format!("{stem}_{suffix}");
            RollupRoute::new(source, field, target, Aggregation::Max, window_secs)
        });
        self.rollups = Some(Materializer::new(&routes, self.now)?);
        Ok(())
    }

    /// Land one interval's points under its trace, then do the per-interval
    /// maintenance. The points go in as the collector's 10 000-point
    /// batches (§III-C), sequentially — same-timestamp points must reach a
    /// shard in collection order. A roll-up or tiering error comes back
    /// after the points have landed (and, with a `data_dir`, are in the
    /// WAL); a failed tiering pass leaves its shard hot for the next
    /// interval's pass to retry.
    fn store_interval(&mut self, points: &[DataPoint], trace: TraceContext) -> Result<()> {
        let trace_guard = monster_obs::trace::set_current(trace);
        points.chunks(10_000).try_for_each(|chunk| self.db.write_batch(chunk))?;
        drop(trace_guard);
        self.intervals_run += 1;
        if let Some(rollups) = &mut self.rollups {
            rollups.run_once(&self.db, self.now)?;
        }
        // Age-based tiering piggybacks on the same per-interval
        // maintenance pass: a no-op scan when nothing crossed the hot
        // horizon this interval.
        if self.config.tiering.is_some() {
            self.db.tier_cold_shards(self.now)?;
        }
        Ok(())
    }

    /// Execute a Metrics Builder request against this deployment's data.
    /// Requests that can be answered exactly from maintained roll-ups are
    /// rerouted to them.
    pub fn builder_query(
        &self,
        req: &BuilderRequest,
        mode: ExecMode,
    ) -> Result<monster_builder::BuilderOutcome> {
        let mut plan = build_plan(self.config.schema, self.cluster.node_ids(), req);
        if let Some(rollups) = &self.rollups {
            monster_builder::rollup::reroute(&mut plan, rollups.routes());
        }
        monster_builder::exec::execute(&self.db, &plan, mode)
    }

    /// Execute a request and encode the response for a consumer on `net`.
    pub fn builder_respond(
        &self,
        req: &BuilderRequest,
        mode: ExecMode,
        net: &monster_sim::NetModel,
    ) -> Result<monster_builder::response::EncodedResponse> {
        let outcome = self.builder_query(req, mode)?;
        Ok(encode_response(&outcome, req.compress, Level::default(), net))
    }

    /// Serve the Metrics Builder HTTP API for this deployment.
    pub fn serve_api(&self, port: u16) -> Result<monster_http::Server> {
        let router = monster_builder::service::router(
            Arc::clone(&self.db),
            self.node_ids(),
            monster_builder::service::ServiceConfig {
                schema: self.config.schema,
                alerts: self.alerts.clone(),
                rollup_routes: self.rollups.as_ref().map_or_else(Vec::new, |r| r.routes().to_vec()),
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
        let node = outcome.document.get("10.101.1.1").expect("node in doc");
        assert!(!node.get("power").unwrap().as_array().unwrap().is_empty());
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
    fn rollups_answer_coarse_queries_identically_but_cheaper() {
        let build = |rollups: bool| {
            let mut m = small(6);
            if rollups {
                m.enable_rollups(3600).unwrap();
            }
            // 3 hours of 60 s data.
            m.run_intervals_bulk(180);
            m
        };
        let raw = build(false);
        let rolled = build(true);
        let t0 = QmasterConfig::default().start_time;
        let req = BuilderRequest::new(t0, t0 + 3 * 3600, 3600, Aggregation::Max).unwrap();
        let out_raw = raw.builder_query(&req, ExecMode::Sequential).unwrap();
        let out_rolled = rolled.builder_query(&req, ExecMode::Sequential).unwrap();
        // Identical answers for node power at hourly max...
        let series = |o: &monster_builder::BuilderOutcome| {
            o.document
                .get("10.101.1.1")
                .and_then(|n| n.get("power"))
                .cloned()
                .expect("power series")
        };
        assert_eq!(series(&out_raw), series(&out_rolled));
        // ...from far fewer scanned points.
        assert!(
            out_rolled.cost.points * 5 < out_raw.cost.points,
            "rolled {} raw {}",
            out_rolled.cost.points,
            out_raw.cost.points
        );
    }

    /// The HTTP face uses the roll-ups `builder_query` uses: the same
    /// bytes for an hourly `max` request, from fewer scanned points.
    #[test]
    fn serve_api_routes_coarse_requests_to_the_rollups() {
        let t0 = QmasterConfig::default().start_time;
        let url = format!(
            "/v1/metrics?start={}&end={}&interval=1h&aggregation=max&explain=true",
            t0.to_rfc3339(),
            (t0 + 3 * 3600).to_rfc3339()
        );
        let answer = |rollups: bool| {
            let mut m = small(6);
            if rollups {
                m.enable_rollups(3600).unwrap();
            }
            m.run_intervals_bulk(180);
            let server = m.serve_api(0).unwrap();
            let doc = monster_http::Client::new()
                .send_ok(server.addr(), &monster_http::Request::get(&url))
                .unwrap()
                .json_body()
                .unwrap();
            let points = doc.pointer("/explain/cost/actual/points").unwrap().as_f64().unwrap();
            (doc.get("payload_base64").unwrap().as_str().unwrap().to_string(), points)
        };
        let (raw_body, raw_points) = answer(false);
        let (rolled_body, rolled_points) = answer(true);
        assert_eq!(raw_body, rolled_body);
        assert!(rolled_points * 5.0 < raw_points, "rolled {rolled_points} raw {raw_points}");
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
