//! The deployment every workload runs on: the paper's 467 nodes under a
//! steady, seeded job population, as the product assembles it
//! ([`monster_core::Monster`]) and as the traced run assembles it from the
//! same public parts ([`Parts`]).

use crate::catalog::{Ask, Panel};
use crate::rng::Rng;
use crate::spans::{Recorder, SpanId};
use monster_alert::{AlertEngine, IntervalInput, NodeInterval};
use monster_builder::service::ServiceConfig;
use monster_builder::{build_plan, estimate_plan_cost, AdmissionConfig};
use monster_collector::{Collector, CollectorConfig, IntervalOutput, SchemaVersion};
use monster_core::{Monster, MonsterConfig};
use monster_redfish::client::{ClientConfig, SkipReason};
use monster_redfish::{ClusterConfig, RedfishClient, SimulatedCluster};
use monster_scheduler::{JobId, JobShape, JobSpec, Qmaster, QmasterConfig};
use monster_sim::DiskModel;
use monster_tsdb::{CostParams, Db, DbConfig};
use monster_util::{EpochSecs, NodeId, UserName};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Quanah's size (the paper's deployment).
pub const PAPER_NODES: usize = 467;
/// Jobs the paper reports on those nodes (Table IV).
const PAPER_JOBS: usize = 400;
/// Collection cadence.
pub const INTERVAL_SECS: i64 = 60;

/// What a deployment is built from. The harness tests shrink `nodes`; the
/// workloads always run at [`PAPER_NODES`].
#[derive(Debug, Clone)]
pub struct Spec {
    pub seed: u64,
    pub nodes: usize,
    pub disk: DiskModel,
    /// WAL-on when set.
    pub data_dir: Option<PathBuf>,
    /// Intervals the run may advance; short churn jobs are scheduled this
    /// far ahead.
    pub horizon_intervals: usize,
}

impl Spec {
    pub fn config(&self) -> MonsterConfig {
        MonsterConfig {
            nodes: self.nodes,
            seed: self.seed,
            disk: self.disk,
            data_dir: self.data_dir.clone(),
            // The default workload generator is bursty (array jobs of up
            // to 997 tasks arrive and drain over minutes), so the cost of
            // an interval depends on which burst a seed puts inside the
            // timed part. `populate` submits a steady population of the
            // paper's size instead.
            workload: None,
            ..MonsterConfig::default()
        }
    }

    /// Simulation start (the scheduler's).
    pub fn start(&self) -> EpochSecs {
        QmasterConfig::default().start_time
    }

    /// The product's deployment, populated.
    pub fn monster(&self) -> Monster {
        let mut m = Monster::new(self.config());
        populate(m.qmaster_mut(), self);
        m
    }
}

/// Submit the job population: about 400 long-running jobs at paper scale
/// (a few whole-node MPI jobs, one large array, serial jobs) that stay on
/// the cluster for the whole run, plus two short serial jobs per interval
/// so that job starts, finishes and finish estimation keep happening. How
/// many there are does not depend on the seed; users, shapes, memory and
/// arrival offsets do.
pub fn populate(qm: &mut Qmaster, spec: &Spec) {
    const FOREVER_SECS: i64 = 10_000_000;
    let mut rng = Rng::new(spec.seed, "jobs");
    let start = spec.start();
    let total = (PAPER_JOBS * spec.nodes / PAPER_NODES).max(4);
    let mpi = (total / 100).max(1);
    let array = total * 5 / 8;
    let serial = total - mpi - array;
    let job = |rng: &mut Rng, user: String, name: String, shape, runtime_secs| JobSpec {
        user: UserName::new(user),
        name,
        shape,
        runtime_secs,
        priority: 0,
        mem_per_slot_gib: 0.5 + 3.0 * rng.unit(),
    };
    for i in 0..mpi {
        let nodes = (spec.nodes / 16).clamp(1, [4, 8, 16, 29][i % 4]) as u32;
        let shape = JobShape::Parallel { nodes };
        let name = format!("mpi_{nodes}n.sh");
        qm.submit_at(start + 1, job(&mut rng, format!("mpi{i}"), name, shape, FOREVER_SECS));
    }
    let parent = JobId(900_000);
    for index in 0..array as u32 {
        let shape = JobShape::ArrayTask { parent, index };
        let name = format!("array_{parent}.{index}");
        qm.submit_at(start + 1, job(&mut rng, "abdumal".to_string(), name, shape, FOREVER_SECS));
    }
    for _ in 0..serial {
        let user = format!("user{:02}", rng.below(18));
        let shape = JobShape::Serial { slots: rng.pick(&[1, 1, 2, 4, 8, 12]) };
        qm.submit_at(start + 1, job(&mut rng, user, "serial.sh".to_string(), shape, FOREVER_SECS));
    }
    for k in 0..spec.horizon_intervals as i64 {
        for _ in 0..2 {
            let at = start + k * INTERVAL_SECS + 1 + rng.below(58) as i64;
            let user = format!("user{:02}", rng.below(18));
            let shape = JobShape::Serial { slots: rng.pick(&[1, 2, 4]) };
            let runtime = 90 + rng.below(120) as i64;
            qm.submit_at(at, job(&mut rng, user, "short.sh".to_string(), shape, runtime));
        }
    }
}

/// The deployment assembled from its public parts, so that the traced run
/// can put a span round each call `Monster::run_interval` makes.
pub struct Parts {
    pub cluster: SimulatedCluster,
    pub qmaster: Qmaster,
    pub collector: Collector,
    pub db: Arc<Db>,
    /// Memory-only twin fed the same chunks, for the WAL's share of a write.
    pub mem_twin: Db,
    /// A second client over the same cluster, for the sweep probe.
    pub probe_client: RedfishClient,
    pub alerts: AlertEngine,
    pub now: EpochSecs,
}

/// Counts one traced interval reports beside its spans.
pub struct IntervalCounts {
    pub points: usize,
    pub field_values: usize,
    pub accounting_bytes: usize,
    pub sweep_requests: usize,
    pub sweep_retries: usize,
    pub sweep_failed: usize,
    pub sweep_modelled_s: f64,
}

impl Parts {
    /// Mirrors `Monster::new` for `spec.config()`, then `populate`.
    pub fn new(spec: &Spec) -> Parts {
        let config = spec.config();
        let cluster = SimulatedCluster::new(ClusterConfig {
            nodes: config.nodes,
            slots_per_chassis: 4,
            seed: config.seed,
            bmc: config.bmc.clone(),
            bmc_overrides: Vec::new(),
        });
        let mut qmaster = Qmaster::new(QmasterConfig { nodes: config.nodes, ..Default::default() });
        populate(&mut qmaster, spec);
        let db_config = DbConfig {
            shard_duration: 86_400,
            disk: config.disk,
            cost: CostParams::default(),
            ..DbConfig::default()
        };
        let dir = spec.data_dir.as_deref().expect("the traced write path runs WAL-on");
        let (db, _) = Db::recover(db_config, dir).expect("durable storage directory");
        let collector = Collector::new(CollectorConfig {
            schema: config.schema,
            interval_secs: config.interval_secs,
            client: config.client.clone(),
            resilience: None,
            detectors: config.detectors,
        });
        Parts {
            cluster,
            qmaster,
            collector,
            db: Arc::new(db),
            mem_twin: Db::new(db_config),
            probe_client: RedfishClient::new(ClientConfig::default()),
            alerts: AlertEngine::new(config.alerting.unwrap_or_default()),
            now: spec.start(),
        }
    }

    /// `Monster::run_intervals_bulk`'s sequence, to load history.
    pub fn bulk(&mut self, n: usize) {
        for _ in 0..n {
            let next = self.now + INTERVAL_SECS;
            self.qmaster.run_until(next);
            let qm = &self.qmaster;
            self.cluster.step(INTERVAL_SECS as f64, |node| qm.utilization(node));
            self.now = next;
            let points =
                self.collector.collect_interval_direct(&self.cluster, &self.qmaster, self.now);
            for chunk in points.chunks(10_000) {
                self.db.write_batch(chunk).expect("schema-consistent writes");
            }
        }
    }

    /// One collection interval in `Monster::run_interval`'s order, a span
    /// round each call; probes for what `collect_interval` calls inside
    /// itself follow once `root` has closed.
    pub fn interval(&mut self, rec: &mut Recorder, op: u32) -> IntervalCounts {
        let root = rec.open("core.interval", crate::spans::ROOT, op);
        let next = self.now + INTERVAL_SECS;
        rec.span("scheduler.advance", root, op, || self.qmaster.run_until(next));
        let qm = &self.qmaster;
        rec.span("redfish.step", root, op, || {
            self.cluster.step(INTERVAL_SECS as f64, |n| qm.utilization(n))
        });
        self.now = next;
        let collect = rec.open("collector.collect", root, op);
        let out = self.collector.collect_interval(&self.cluster, &self.qmaster, self.now);
        rec.close(collect);
        rec.span("tsdb.write_batch", root, op, || {
            let _trace = monster_obs::trace::set_current(out.trace);
            for chunk in out.points.chunks(10_000) {
                self.db.write_batch(chunk).expect("schema-consistent writes");
            }
        });
        rec.span("alert.observe", root, op, || self.observe(&out));
        rec.close(root);

        self.probes(rec, collect, op, &out)
    }

    /// The input assembly `deployment.rs` does, then the engine.
    fn observe(&self, out: &IntervalOutput) {
        let mut per_node: BTreeMap<NodeId, NodeInterval> = self
            .cluster
            .node_ids()
            .iter()
            .map(|&node| {
                let blank = NodeInterval {
                    node,
                    live_readings: 0,
                    skipped: 0,
                    breaker_open: false,
                    stale_age_sweeps: 0,
                };
                (node, blank)
            })
            .collect();
        for r in &out.sweep.results {
            if let Some(entry) = per_node.get_mut(&r.node) {
                if r.reading.is_some() {
                    entry.live_readings += 1;
                }
                if let Some(reason) = r.skip {
                    entry.skipped += 1;
                    entry.breaker_open |= reason == SkipReason::BreakerOpen;
                }
            }
        }
        for &(node, age) in &out.stale_nodes {
            if let Some(entry) = per_node.get_mut(&node) {
                entry.stale_age_sweeps = age;
            }
        }
        let jobs: BTreeMap<NodeId, Vec<JobId>> =
            per_node.keys().map(|&n| (n, self.qmaster.jobs_on(n))).collect();
        let nodes: Vec<NodeInterval> = per_node.into_values().collect();
        let fresh = monster_obs::freshness();
        let slo = fresh.config();
        self.alerts.observe_interval(&IntervalInput {
            now: self.now,
            anomalies: &out.anomalies,
            nodes: &nodes,
            burn_fast: fresh.burn_rate(slo.fast_window_secs),
            burn_slow: fresh.burn_rate(slo.slow_window_secs),
            jobs: &jobs,
        });
    }

    fn probes(
        &mut self,
        rec: &mut Recorder,
        collect: SpanId,
        op: u32,
        out: &IntervalOutput,
    ) -> IntervalCounts {
        // The twin write goes first, while the points are as warm as they
        // were for the WAL-on write.
        rec.probe("tsdb.write_batch_mem", crate::spans::ROOT, op, || {
            for chunk in out.points.chunks(10_000) {
                self.mem_twin.write_batch(chunk).expect("schema-consistent writes");
            }
        });
        let sweep =
            rec.probe("redfish.sweep", collect, op, || self.probe_client.sweep(&self.cluster));
        let (_, accounting_bytes) = rec.probe("scheduler.accounting_pull", collect, op, || {
            monster_scheduler::accounting::accounting_pull(&self.qmaster)
        });
        IntervalCounts {
            points: out.points.len(),
            field_values: out.points.iter().map(|p| p.fields.len()).sum(),
            accounting_bytes,
            sweep_requests: sweep.results.len(),
            sweep_retries: sweep.retries(),
            sweep_failed: sweep.failures(),
            sweep_modelled_s: sweep.makespan.as_secs_f64(),
        }
    }
}

/// The service as the product ships it, except for the two admission
/// thresholds. With the defaults (`cheap_secs` 1, `reject_secs` 30,
/// `tenant_burst` 20) every 467-node panel prices above the burst and is
/// answered `429`, so the thresholds are derived from the loaded data the
/// way `dashboard_storm` derives them: `cheap_secs` = 2 × the dearest
/// panel's estimate, so that panels are always admitted, and rejection
/// starts an order of magnitude above. Returns the dearest estimate too.
pub fn service_config(
    db: &Db,
    nodes: &[NodeId],
    history_start: EpochSecs,
    now: EpochSecs,
    panels: &[Panel],
) -> (ServiceConfig, f64) {
    let modelled_secs = |panel| {
        let request = Ask::new(panel, history_start, now, false).request();
        let plan = build_plan(SchemaVersion::Optimized, nodes, &request);
        db.simulate_elapsed(&estimate_plan_cost(db, &plan)).as_secs_f64()
    };
    let dearest = panels.iter().map(|&p| modelled_secs(p)).fold(0.0f64, f64::max);
    let cheap_secs = dearest * 2.0;
    let config = ServiceConfig {
        admission: AdmissionConfig {
            cheap_secs,
            reject_secs: cheap_secs * 10.0,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    };
    (config, dearest)
}
