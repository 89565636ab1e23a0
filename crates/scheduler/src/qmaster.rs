//! The qmaster: queueing, scheduling, load reports, failure detection.
//!
//! A discrete-event reimplementation of the UGE control flow the paper
//! sketches in §III-B2: users submit through `qsub`; the qmaster holds
//! pending jobs in a priority queue and dispatches the highest-priority job
//! when resources free up; execution daemons report load every 40 s; a host
//! that stops reporting is labelled unavailable and receives no further
//! work.
//!
//! The queue order is submitted priority, then submit time; the backfill
//! policy is the one scheduling choice a caller makes.

use crate::accounting::{MemoStats, PullMemo, PullTelemetry};
use crate::host::{ExecHost, LoadReport, SLOTS_PER_NODE};
#[cfg(test)]
use crate::job::JobShape;
use crate::job::{Job, JobId, JobSpec, JobState};
use monster_sim::{EventQueue, VInstant};
use monster_util::{EpochSecs, Error, NodeId, Result};
use parking_lot::{Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Execd load-report interval (UGE default: 40 s).
const LOAD_REPORT_INTERVAL: i64 = 40;

/// Scheduler pass interval, seconds.
const SCHEDULE_INTERVAL: i64 = 15;

/// Reports a host may miss before being declared lost.
const LOST_AFTER_MISSED_REPORTS: i64 = 3;

/// Backfill policy for the scheduler pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackfillPolicy {
    /// First-fit skip: any pending job that fits starts, even if it delays
    /// a bigger job ahead of it (can starve wide jobs).
    #[default]
    Aggressive,
    /// EASY backfill: the highest-priority blocked job gets a reservation
    /// at the earliest time its resources free up (runtimes are known);
    /// later jobs may only start if they cannot delay that reservation.
    Easy,
}

/// Qmaster configuration.
#[derive(Debug, Clone)]
pub struct QmasterConfig {
    /// Cluster size (467 for Quanah).
    pub nodes: usize,
    /// Sleds per chassis (management addressing).
    pub slots_per_chassis: u16,
    /// Simulation start time.
    pub start_time: EpochSecs,
    /// Backfill policy.
    pub backfill: BackfillPolicy,
}

impl Default for QmasterConfig {
    fn default() -> Self {
        QmasterConfig {
            nodes: 467,
            slots_per_chassis: 4,
            start_time: EpochSecs::parse_rfc3339("2020-04-20T00:00:00Z").expect("valid"),
            backfill: BackfillPolicy::default(),
        }
    }
}

/// An EASY reservation for the head blocked job.
#[derive(Debug)]
struct Reservation {
    /// When the resources provably free up.
    at: EpochSecs,
    /// The hosts providing them.
    #[allow(dead_code)]
    shadow: Vec<NodeId>,
    /// Per-shadow-host spare slots beyond the reservation at `at`.
    slack: std::collections::HashMap<NodeId, u32>,
    /// Reserved slots per host.
    per_host: u32,
    /// Reserved host count.
    hosts_needed: u32,
}

#[derive(Debug)]
enum Event {
    Submit(JobSpec),
    JobEnd(JobId),
    ScheduleTick,
    LoadReportTick,
    /// Failure injection: the execd on this node stops responding.
    ExecdDown(NodeId),
    /// The execd comes back.
    ExecdUp(NodeId),
}

/// The scheduler core.
pub struct Qmaster {
    config: QmasterConfig,
    now: EpochSecs,
    hosts: BTreeMap<NodeId, ExecHost>,
    /// Ground truth: execds that are actually down (failure injection).
    execds_down: HashSet<NodeId>,
    jobs: BTreeMap<JobId, Job>,
    pending: Vec<JobId>,
    next_id: u64,
    events: EventQueue<Event>,
    /// Completed/failed jobs, in completion order (ARCo's source).
    finished: Vec<JobId>,
    /// Set when cluster state changed in a way that could let a pending
    /// job start; cleared after a scheduler pass. Skipping no-op passes
    /// keeps day-scale simulations fast.
    dirty: bool,
    /// ARCo's memo of accounting-document sizes. Behind a lock because a
    /// pull reads the qmaster; validated by record equality, so nothing in
    /// this file has to invalidate it.
    accounting: Mutex<PullMemo>,
    /// Where job counts and queue depths are reported.
    obs: Arc<monster_obs::Registry>,
    /// What an accounting pull reports, resolved once from `obs`.
    pub(crate) pull_telemetry: PullTelemetry,
}

impl Qmaster {
    /// [`Qmaster::new_in`] the process default registry.
    // Goes with ROADMAP item 8(ii): the benchmark harness calls it.
    pub fn new(config: QmasterConfig) -> Self {
        Qmaster::new_in(config, monster_obs::global())
    }

    /// Boot a qmaster over an idle cluster, reporting to `obs`.
    pub fn new_in(config: QmasterConfig, obs: &Arc<monster_obs::Registry>) -> Self {
        let ids = NodeId::enumerate(config.nodes, config.slots_per_chassis);
        let hosts = ids
            .iter()
            .map(|&id| {
                let mut h = ExecHost::new(id);
                h.last_report = config.start_time;
                (id, h)
            })
            .collect();
        let mut qm = Qmaster {
            now: config.start_time,
            hosts,
            execds_down: HashSet::new(),
            jobs: BTreeMap::new(),
            pending: Vec::new(),
            next_id: 1_290_000, // Quanah-era job ids (Fig. 5)
            events: EventQueue::new(),
            finished: Vec::new(),
            dirty: false,
            accounting: Mutex::default(),
            obs: Arc::clone(obs),
            pull_telemetry: PullTelemetry::new(obs),
            config,
        };
        // Kick off the periodic ticks.
        let t0 = qm.now;
        qm.schedule_event(t0 + SCHEDULE_INTERVAL, Event::ScheduleTick);
        qm.schedule_event(t0 + LOAD_REPORT_INTERVAL, Event::LoadReportTick);
        qm
    }

    fn instant_of(&self, t: EpochSecs) -> VInstant {
        let offset = t - self.config.start_time;
        assert!(offset >= 0, "time before simulation start");
        VInstant::from_nanos(offset as u64 * 1_000_000_000)
    }

    fn schedule_event(&mut self, at: EpochSecs, e: Event) {
        let at = at.max(self.now);
        self.events.schedule(self.instant_of(at), e);
    }

    /// Current simulation time.
    pub fn now(&self) -> EpochSecs {
        self.now
    }

    /// Enqueue a submission at `at` (≥ now).
    pub fn submit_at(&mut self, at: EpochSecs, spec: JobSpec) {
        self.schedule_event(at, Event::Submit(spec));
    }

    /// Inject an execd failure at `at`.
    pub fn fail_execd_at(&mut self, at: EpochSecs, node: NodeId) {
        self.schedule_event(at, Event::ExecdDown(node));
    }

    /// Bring an execd back at `at`.
    pub fn recover_execd_at(&mut self, at: EpochSecs, node: NodeId) {
        self.schedule_event(at, Event::ExecdUp(node));
    }

    /// Advance the simulation to `t`, processing every event on the way.
    pub fn run_until(&mut self, t: EpochSecs) {
        let target = self.instant_of(t);
        while let Some(at) = self.events.peek_time() {
            if at > target {
                break;
            }
            let (at, event) = self.events.pop().expect("peeked");
            self.now = self.config.start_time + (at.as_nanos() / 1_000_000_000) as i64;
            self.handle(event);
        }
        self.now = self.now.max(t);
    }

    fn handle(&mut self, e: Event) {
        match e {
            Event::Submit(spec) => {
                let id = JobId(self.next_id);
                self.next_id += 1;
                self.jobs
                    .insert(id, Job { id, spec, submit_time: self.now, state: JobState::Pending });
                self.pending.push(id);
                self.dirty = true;
                self.obs.counter("monster_sched_jobs_submitted_total").inc();
                self.obs.gauge("monster_sched_pending_jobs").set(self.pending.len() as i64);
            }
            Event::ScheduleTick => {
                self.schedule_pass();
                let next = self.now + SCHEDULE_INTERVAL;
                self.schedule_event(next, Event::ScheduleTick);
            }
            Event::LoadReportTick => {
                self.receive_reports();
                let next = self.now + LOAD_REPORT_INTERVAL;
                self.schedule_event(next, Event::LoadReportTick);
            }
            Event::JobEnd(id) => self.finish_job(id, false),
            Event::ExecdDown(node) => {
                self.execds_down.insert(node);
            }
            Event::ExecdUp(node) => {
                self.execds_down.remove(&node);
                if let Some(h) = self.hosts.get_mut(&node) {
                    h.alive = true;
                    h.last_report = self.now;
                }
                self.dirty = true;
            }
        }
    }

    /// One scheduler pass: highest priority first, FIFO within priority,
    /// first-fit host selection.
    fn schedule_pass(&mut self) {
        if !self.dirty || self.pending.is_empty() {
            return;
        }
        self.dirty = false;
        // Highest priority first, then FIFO.
        let mut ids = std::mem::take(&mut self.pending);
        ids.sort_by_cached_key(|id| {
            let j = &self.jobs[id];
            (Reverse(j.spec.priority), j.submit_time, j.id)
        });
        let mut still_pending = Vec::new();
        // Identical shapes fail identically within one pass: memoize the
        // (slots_per_host, hosts_needed) pairs that could not be placed so
        // a 997-task array job costs one host scan, not 997.
        let mut failed_shapes: Vec<(u32, u32)> = Vec::new();
        // EASY state: the head blocked job's reservation, if any.
        let mut reservation: Option<Reservation> = None;
        for id in ids {
            let shape_key = {
                let shape = &self.jobs[&id].spec.shape;
                (shape.slots_per_host(SLOTS_PER_NODE), shape.hosts_needed())
            };
            if failed_shapes.iter().any(|&(s, h)| s <= shape_key.0 && h <= shape_key.1) {
                still_pending.push(id);
                continue;
            }
            // Under EASY with an active reservation, a candidate may only
            // start if it cannot delay the reserved job.
            if let Some(res) = &reservation {
                let runtime = self.jobs[&id].spec.runtime_secs;
                if !self.backfill_allowed(res, shape_key.0, shape_key.1, runtime) {
                    still_pending.push(id);
                    continue;
                }
            }
            if self.try_dispatch(id) {
                // A dispatch may consume reserved slack; recompute.
                if let Some(res) = &reservation {
                    reservation = self.easy_reservation(res.per_host, res.hosts_needed);
                }
            } else {
                failed_shapes.push(shape_key);
                still_pending.push(id);
                if self.config.backfill == BackfillPolicy::Easy && reservation.is_none() {
                    reservation = self.easy_reservation(shape_key.0, shape_key.1);
                }
            }
        }
        self.pending = still_pending;
        // Queue depth after the pass: what `/metrics` reports as backlog.
        self.obs.gauge("monster_sched_pending_jobs").set(self.pending.len() as i64);
    }

    /// Earliest future instant at which `hosts_needed` hosts each have
    /// `per_host` free slots, assuming running jobs end on schedule.
    /// Returns `None` when the shape never fits (bigger than the cluster).
    fn easy_reservation(&self, per_host: u32, hosts_needed: u32) -> Option<Reservation> {
        // Per-host: free slots now, plus (end_time, slots) of running jobs.
        let mut frees: std::collections::HashMap<NodeId, Vec<(EpochSecs, u32)>> =
            std::collections::HashMap::new();
        for job in self.jobs.values() {
            if let JobState::Running { start, hosts } = &job.state {
                let end = *start + job.spec.runtime_secs;
                let slots = job.spec.shape.slots_per_host(SLOTS_PER_NODE);
                for h in hosts {
                    frees.entry(*h).or_default().push((end, slots));
                }
            }
        }
        let mut end_times: Vec<EpochSecs> =
            frees.values().flat_map(|v| v.iter().map(|(e, _)| *e)).collect();
        end_times.push(self.now);
        end_times.sort();
        end_times.dedup();
        for t in end_times {
            let mut shadow = Vec::new();
            let mut slack = std::collections::HashMap::new();
            for (node, h) in self.hosts.iter() {
                if !h.alive {
                    continue;
                }
                let freed: u32 = frees
                    .get(node)
                    .map(|v| v.iter().filter(|(e, _)| *e <= t).map(|(_, s)| s).sum())
                    .unwrap_or(0);
                let free_at_t = h.slots_free() + freed;
                if free_at_t >= per_host {
                    shadow.push(*node);
                    slack.insert(*node, free_at_t - per_host);
                    if shadow.len() == hosts_needed as usize {
                        return Some(Reservation { at: t, shadow, slack, per_host, hosts_needed });
                    }
                }
            }
        }
        None
    }

    /// Whether starting a (per_host, hosts_needed, runtime) job *now*
    /// provably cannot delay the reservation: it either ends before the
    /// reserved time, or the shadow hosts keep enough slack even with it
    /// still running.
    fn backfill_allowed(
        &self,
        res: &Reservation,
        per_host: u32,
        hosts_needed: u32,
        runtime_secs: i64,
    ) -> bool {
        if self.now + runtime_secs <= res.at {
            return true;
        }
        // Ends after the reservation: it must fit entirely on capacity the
        // reservation does not need. Count hosts that could host it without
        // eating reserved slots.
        let mut usable = 0u32;
        for (node, h) in self.hosts.iter() {
            if !h.fits(per_host) {
                continue;
            }
            let ok = match res.slack.get(node) {
                // Shadow host: only its slack beyond the reservation.
                Some(&slack) => slack >= per_host,
                None => true,
            };
            if ok {
                usable += 1;
                if usable >= hosts_needed {
                    return true;
                }
            }
        }
        false
    }

    fn try_dispatch(&mut self, id: JobId) -> bool {
        let (shape, mem_per_slot, runtime) = {
            let j = &self.jobs[&id];
            (j.spec.shape.clone(), j.spec.mem_per_slot_gib, j.spec.runtime_secs)
        };
        let per_host = shape.slots_per_host(SLOTS_PER_NODE);
        let hosts_needed = shape.hosts_needed() as usize;
        let mut chosen: Vec<NodeId> = Vec::with_capacity(hosts_needed);
        for (node, h) in self.hosts.iter() {
            if h.fits(per_host) {
                chosen.push(*node);
                if chosen.len() == hosts_needed {
                    break;
                }
            }
        }
        if chosen.len() < hosts_needed {
            return false;
        }
        for node in &chosen {
            self.hosts.get_mut(node).expect("chosen host exists").allocate(
                id,
                per_host,
                per_host as f64 * mem_per_slot,
            );
        }
        let start = self.now;
        let job = self.jobs.get_mut(&id).expect("job exists");
        job.state = JobState::Running { start, hosts: chosen };
        self.schedule_event(start + runtime, Event::JobEnd(id));
        self.obs.counter("monster_sched_jobs_started_total").inc();
        self.obs.gauge("monster_sched_running_jobs").add(1);
        true
    }

    fn finish_job(&mut self, id: JobId, failed: bool) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        let JobState::Running { start, hosts } = job.state.clone() else {
            return; // already finished (e.g. killed by host loss)
        };
        job.state = if failed {
            JobState::Failed { start, end: self.now, hosts: hosts.clone() }
        } else {
            JobState::Done { start, end: self.now, hosts: hosts.clone() }
        };
        for node in hosts {
            if let Some(h) = self.hosts.get_mut(&node) {
                h.release(id);
            }
        }
        self.finished.push(id);
        self.dirty = true;
        self.obs.counter("monster_sched_jobs_finished_total").inc();
        self.obs.gauge("monster_sched_running_jobs").sub(1);
    }

    /// Load-report processing: live execds refresh their stamp; hosts past
    /// the lost threshold are declared unavailable and their jobs killed
    /// ("the qmaster labels the executing host and its resources as no
    /// longer available", §III-B2).
    fn receive_reports(&mut self) {
        let lost_after = LOAD_REPORT_INTERVAL * LOST_AFTER_MISSED_REPORTS;
        let mut lost: Vec<NodeId> = Vec::new();
        for (node, h) in self.hosts.iter_mut() {
            if self.execds_down.contains(node) {
                if h.alive && self.now - h.last_report > lost_after {
                    h.alive = false;
                    lost.push(*node);
                }
            } else {
                h.last_report = self.now;
                h.alive = true;
            }
        }
        // Kill jobs on lost hosts.
        let victims: Vec<JobId> = lost.iter().flat_map(|n| self.hosts[n].job_ids()).collect();
        for id in victims {
            self.finish_job(id, true);
        }
    }

    // ----- queries (the surface the collector consumes) -----

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.hosts.keys().copied().collect()
    }

    /// A host's latest load report (what ARCo exposes per node).
    pub fn load_report(&self, node: NodeId) -> Result<LoadReport> {
        let h = self.hosts.get(&node).ok_or_else(|| Error::not_found(format!("no host {node}")))?;
        Ok(h.load_report(self.now))
    }

    /// Load reports for the whole cluster.
    pub fn all_load_reports(&self) -> Vec<LoadReport> {
        self.hosts.values().map(|h| h.load_report(self.now)).collect()
    }

    /// Ids of the jobs currently placed on `node` — the attribution the
    /// alert engine stamps on node-scoped alerts, so an operator can see
    /// whose work a failing node is carrying.
    pub fn jobs_on(&self, node: NodeId) -> Vec<JobId> {
        self.hosts.get(&node).map(|h| h.job_ids()).unwrap_or_default()
    }

    /// CPU utilization of a node, 0..=1 (drives the BMC sensor model).
    pub fn utilization(&self, node: NodeId) -> f64 {
        self.hosts.get(&node).map(|h| h.slots_used() as f64 / SLOTS_PER_NODE as f64).unwrap_or(0.0)
    }

    /// A job by id.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All jobs (any state), ascending id.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Currently running jobs.
    pub fn running_jobs(&self) -> Vec<&Job> {
        self.jobs.values().filter(|j| j.is_running()).collect()
    }

    /// Currently pending jobs.
    pub fn pending_jobs(&self) -> Vec<&Job> {
        self.pending.iter().map(|id| &self.jobs[id]).collect()
    }

    /// Jobs finished since the start, in completion order.
    pub fn finished_jobs(&self) -> Vec<&Job> {
        self.finished.iter().map(|id| &self.jobs[id]).collect()
    }

    /// The accounting memo, for [`accounting_pull`](crate::accounting::accounting_pull).
    pub(crate) fn accounting_memo(&self) -> MutexGuard<'_, PullMemo> {
        self.accounting.lock()
    }

    /// How many accounting documents pulls have rendered and reused, and
    /// how many sizes the memo holds.
    pub fn accounting_memo_stats(&self) -> MemoStats {
        self.accounting.lock().stats()
    }

    /// Whether the qmaster currently considers a host available.
    // kept: the lost-host verdict the failure drill prints and the scheduler tests assert
    pub fn host_available(&self, node: NodeId) -> bool {
        self.hosts.get(&node).map(|h| h.alive).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_util::UserName;

    fn cfg(nodes: usize) -> QmasterConfig {
        QmasterConfig { nodes, ..QmasterConfig::default() }
    }

    fn t0() -> EpochSecs {
        QmasterConfig::default().start_time
    }

    fn serial_spec(user: &str, slots: u32, runtime: i64) -> JobSpec {
        JobSpec {
            user: UserName::new(user),
            name: "job.sh".into(),
            shape: JobShape::Serial { slots },
            runtime_secs: runtime,
            priority: 0,
            mem_per_slot_gib: 2.0,
        }
    }

    #[test]
    fn job_lifecycle_pending_running_done() {
        let mut qm = Qmaster::new(cfg(2));
        qm.submit_at(t0() + 5, serial_spec("alice", 4, 600));
        qm.run_until(t0() + 10);
        assert_eq!(qm.pending_jobs().len(), 1);
        // Next schedule tick at +15 dispatches it.
        qm.run_until(t0() + 20);
        assert_eq!(qm.running_jobs().len(), 1);
        let job = qm.running_jobs()[0];
        assert_eq!(job.hosts().len(), 1);
        assert!(job.wait_secs(qm.now()) <= 15);
        // Runs 600 s.
        qm.run_until(t0() + 700);
        assert_eq!(qm.running_jobs().len(), 0);
        assert_eq!(qm.finished_jobs().len(), 1);
        assert!(matches!(qm.finished_jobs()[0].state, JobState::Done { .. }));
        // Slots freed.
        assert_eq!(qm.utilization(qm.node_ids()[0]), 0.0);
    }

    #[test]
    fn priority_order_dispatch() {
        let mut qm = Qmaster::new(cfg(1));
        // Fill the node so both candidates queue.
        qm.submit_at(t0() + 1, serial_spec("hog", 36, 100));
        let mut low = serial_spec("low", 36, 100);
        low.priority = 0;
        let mut high = serial_spec("high", 36, 100);
        high.priority = 10;
        // Submitted after the first schedule tick (t0+15) so the hog is
        // already running when they queue.
        qm.submit_at(t0() + 16, low);
        qm.submit_at(t0() + 17, high);
        qm.run_until(t0() + 50);
        assert_eq!(qm.running_jobs()[0].spec.user.as_str(), "hog");
        // After the hog ends, "high" must beat "low" despite later submit.
        qm.run_until(t0() + 200);
        let running = qm.running_jobs();
        assert_eq!(running.len(), 1);
        assert_eq!(running[0].spec.user.as_str(), "high");
    }

    #[test]
    fn equal_priorities_dispatch_in_submit_order() {
        let mut qm = Qmaster::new(cfg(1));
        // The hog holds the node for an hour; while it runs, it queues its
        // next job before the light user does.
        qm.submit_at(t0() + 1, serial_spec("hog", 36, 3600));
        qm.run_until(t0() + 60);
        qm.submit_at(t0() + 100, serial_spec("hog", 36, 3600));
        qm.submit_at(t0() + 200, serial_spec("light", 36, 3600));
        // The node frees up: the earlier submission runs first.
        qm.run_until(t0() + 3700 + 60);
        let running = qm.running_jobs();
        assert_eq!(running.len(), 1, "exactly one job should hold the node");
        assert_eq!(running[0].spec.user.as_str(), "hog");
        assert_eq!(qm.pending_jobs()[0].spec.user.as_str(), "light");
    }

    #[test]
    fn mpi_job_takes_whole_nodes() {
        let mut qm = Qmaster::new(cfg(8));
        let spec = JobSpec {
            user: UserName::new("jieyao"),
            name: "mpi.sh".into(),
            shape: JobShape::Parallel { nodes: 4 },
            runtime_secs: 1000,
            priority: 0,
            mem_per_slot_gib: 1.0,
        };
        qm.submit_at(t0() + 1, spec);
        qm.run_until(t0() + 60);
        let running = qm.running_jobs();
        assert_eq!(running.len(), 1);
        assert_eq!(running[0].hosts().len(), 4);
        for &n in running[0].hosts() {
            assert_eq!(qm.utilization(n), 1.0);
        }
        // Remaining hosts idle.
        let busy: HashSet<NodeId> = running[0].hosts().iter().copied().collect();
        for n in qm.node_ids() {
            if !busy.contains(&n) {
                assert_eq!(qm.utilization(n), 0.0);
            }
        }
    }

    #[test]
    fn too_large_job_waits_forever() {
        let mut qm = Qmaster::new(cfg(2));
        let spec = JobSpec {
            user: UserName::new("greedy"),
            name: "huge.sh".into(),
            shape: JobShape::Parallel { nodes: 10 },
            runtime_secs: 100,
            priority: 0,
            mem_per_slot_gib: 1.0,
        };
        qm.submit_at(t0() + 1, spec);
        qm.run_until(t0() + 3600);
        assert_eq!(qm.pending_jobs().len(), 1);
        assert_eq!(qm.running_jobs().len(), 0);
    }

    #[test]
    fn array_tasks_pack_onto_hosts() {
        let mut qm = Qmaster::new(cfg(2));
        // The "abdumal" pattern: many 1-slot tasks sharing hosts.
        for i in 0..72 {
            let spec = JobSpec {
                user: UserName::new("abdumal"),
                name: format!("array.{i}"),
                shape: JobShape::ArrayTask { parent: JobId(1), index: i },
                runtime_secs: 500,
                priority: 0,
                mem_per_slot_gib: 0.5,
            };
            qm.submit_at(t0() + 1, spec);
        }
        qm.run_until(t0() + 60);
        assert_eq!(qm.running_jobs().len(), 72);
        // 72 single-slot tasks exactly fill 2 x 36-core hosts.
        for n in qm.node_ids() {
            assert_eq!(qm.utilization(n), 1.0);
        }
    }

    #[test]
    fn lost_execd_kills_jobs_and_blocks_scheduling() {
        let mut qm = Qmaster::new(cfg(2));
        qm.submit_at(t0() + 1, serial_spec("victim", 36, 100_000));
        qm.run_until(t0() + 30);
        let node = qm.running_jobs()[0].hosts()[0];
        qm.fail_execd_at(t0() + 60, node);
        // After 3 missed 40 s reports the host is declared lost.
        qm.run_until(t0() + 400);
        assert!(!qm.host_available(node));
        assert_eq!(qm.running_jobs().len(), 0);
        assert!(matches!(qm.finished_jobs()[0].state, JobState::Failed { .. }));
        // New work avoids the dead host.
        qm.submit_at(t0() + 410, serial_spec("next", 36, 100));
        qm.run_until(t0() + 500);
        let running = qm.running_jobs();
        assert_eq!(running.len(), 1);
        assert_ne!(running[0].hosts()[0], node);
        // Recovery restores availability.
        qm.recover_execd_at(t0() + 600, node);
        qm.run_until(t0() + 700);
        assert!(qm.host_available(node));
    }

    #[test]
    fn load_reports_expose_table2_metrics() {
        let mut qm = Qmaster::new(cfg(1));
        qm.submit_at(t0() + 1, serial_spec("alice", 18, 10_000));
        qm.run_until(t0() + 60);
        let node = qm.node_ids()[0];
        let r = qm.load_report(node).unwrap();
        assert_eq!(r.cpu_usage, 0.5);
        assert!(r.mem_used_gib > 6.0);
        assert!(r.mem_free_gib() > 0.0);
        assert_eq!(r.swap_total_gib, 4.0);
        assert_eq!(r.job_list.len(), 1);
        assert!(qm.load_report(NodeId::new(99, 1)).is_err());
    }

    #[test]
    fn backfill_behaviour_fifo_within_priority() {
        let mut qm = Qmaster::new(cfg(1));
        qm.submit_at(t0() + 1, serial_spec("first", 20, 10_000));
        qm.submit_at(t0() + 2, serial_spec("second", 20, 10_000)); // doesn't fit
        qm.submit_at(t0() + 3, serial_spec("third", 16, 10_000)); // fits alongside first
        qm.run_until(t0() + 60);
        let users: Vec<&str> = qm.running_jobs().iter().map(|j| j.spec.user.as_str()).collect();
        // First-fit lets "third" in while "second" waits.
        assert!(users.contains(&"first"));
        assert!(users.contains(&"third"));
        assert_eq!(qm.pending_jobs().len(), 1);
        assert_eq!(qm.pending_jobs()[0].spec.user.as_str(), "second");
    }
}
