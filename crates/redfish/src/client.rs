//! The Redfish polling client.
//!
//! Implements §III-B1's collection mechanics: build the request pool (467
//! nodes × 4 categories = 1868 URLs), issue everything asynchronously,
//! enforce connection/read timeouts, and retry transient failures. Each
//! request's *simulated* elapsed time accumulates across attempts (a
//! stalled BMC costs a full read timeout before the retry fires); the sweep
//! makespan bin-packs request times onto the client's in-flight channel
//! budget, which is what bounds the paper's ~55 s full sweep.

use crate::bmc::Answer;
use crate::cluster::SimulatedCluster;
use crate::model::parse_reading;
use crate::resilience::{
    backoff_delay, Admission, HealthRegistry, JITTER_SEED, MIN_ATTEMPT_BUDGET,
};
use crate::types::{Category, NodeReading};
use monster_sim::VDuration;
use monster_util::pool::{self, ThreadPool};
use monster_util::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Read timeout per attempt: a stalled BMC costs exactly this long.
const READ_TIMEOUT: VDuration = VDuration::from_secs(15);

/// Retries after the first attempt (the paper's "retry mechanisms").
const MAX_RETRIES: usize = 2;

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Simultaneous in-flight requests the collector host sustains
    /// (connection-pool limit). Default calibrated so a 1868-URL sweep
    /// lands near the paper's ~55 s.
    pub max_inflight: usize,
    /// Real worker threads used to execute the sweep, at most; never more
    /// than the machine has cores.
    pub pool_workers: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { max_inflight: 150, pool_workers: 8 }
    }
}

/// Why the resilient sweep scheduler skipped a request without issuing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The node's circuit breaker was open (or half-open beyond its one
    /// probe request).
    BreakerOpen,
    /// The sweep's deadline budget was exhausted before this request could
    /// be scheduled.
    Deadline,
}

impl SkipReason {
    /// The reason's name, as `/debug/trace` shows it.
    pub fn as_str(self) -> &'static str {
        match self {
            SkipReason::BreakerOpen => "BreakerOpen",
            SkipReason::Deadline => "Deadline",
        }
    }
}

/// Outcome of a single request (including its retries).
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Target node.
    pub node: NodeId,
    /// Category queried.
    pub category: Category,
    /// Parsed reading; `None` after exhausting retries or being skipped.
    pub reading: Option<NodeReading>,
    /// Total attempts made (1 = first try succeeded, 0 = skipped).
    pub attempts: usize,
    /// Attempts that hit the read timeout (stalled BMC).
    pub timeouts: usize,
    /// Simulated elapsed time across all attempts.
    pub elapsed: VDuration,
    /// Set when the resilient scheduler never issued the request.
    pub skip: Option<SkipReason>,
}

impl RequestOutcome {
    fn skipped(node: NodeId, category: Category, reason: SkipReason) -> RequestOutcome {
        RequestOutcome {
            node,
            category,
            reading: None,
            attempts: 0,
            timeouts: 0,
            elapsed: VDuration::ZERO,
            skip: Some(reason),
        }
    }
}

/// Outcome of a full sweep.
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Per-request outcomes, in request-pool order.
    pub results: Vec<RequestOutcome>,
    /// Simulated wall time for the sweep under the in-flight budget.
    pub makespan: VDuration,
    /// The deadline the sweep was budgeted against (resilient path only).
    pub deadline: Option<VDuration>,
}

impl SweepOutcome {
    /// Requests that delivered a reading.
    pub fn successes(&self) -> usize {
        self.results.iter().filter(|r| r.reading.is_some()).count()
    }

    /// Requests that were issued but exhausted retries.
    pub fn failures(&self) -> usize {
        self.results.len() - self.successes() - self.skipped()
    }

    /// Requests the resilient scheduler never issued.
    pub fn skipped(&self) -> usize {
        self.results.iter().filter(|r| r.skip.is_some()).count()
    }

    /// True when anything was skipped or failed — the sweep is running on
    /// partial data and staleness substitution applies downstream.
    pub fn degraded(&self) -> bool {
        self.skipped() > 0 || self.failures() > 0
    }

    /// Extra attempts beyond the first, summed.
    pub fn retries(&self) -> usize {
        self.results.iter().map(|r| r.attempts.saturating_sub(1)).sum()
    }

    /// Read-timeout hits across all requests and attempts.
    pub fn timeouts(&self) -> usize {
        self.results.iter().map(|r| r.timeouts).sum()
    }

    /// Mean simulated time of *successful first-attempt* requests — the
    /// statistic the paper reports as "a Redfish API request takes 4.29
    /// seconds on average".
    pub fn mean_request_secs(&self) -> f64 {
        let firsts: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.reading.is_some() && r.attempts == 1)
            .map(|r| r.elapsed.as_secs_f64())
            .collect();
        monster_util::stats::mean(&firsts)
    }
}

/// The in-flight channels' loads, least loaded on top. Which of two equally
/// loaded channels takes a request leaves the loads the same, so the
/// makespan is the linear scan's.
struct Channels(BinaryHeap<Reverse<VDuration>>);

impl Channels {
    fn new(count: usize) -> Channels {
        Channels(vec![Reverse(VDuration::ZERO); count.max(1)].into())
    }

    fn least(&self) -> VDuration {
        self.0.peek().expect("at least one channel").0
    }

    fn load_least(&mut self, t: VDuration) {
        self.0.peek_mut().expect("at least one channel").0 += t;
    }

    fn makespan(self) -> VDuration {
        self.0.into_iter().map(|Reverse(load)| load).max().unwrap_or(VDuration::ZERO)
    }
}

/// The polling client. Its default reports to a registry of its own.
#[derive(Debug, Clone, Default)]
pub struct RedfishClient {
    config: ClientConfig,
    /// Where sweep statistics are reported.
    obs: Arc<monster_obs::Registry>,
}

impl RedfishClient {
    /// [`RedfishClient::new_in`] the process default registry.
    // Goes with ROADMAP item 8(ii): the benchmark harness calls it.
    pub fn new(config: ClientConfig) -> Self {
        RedfishClient::new_in(config, monster_obs::global())
    }

    /// Client with explicit configuration, reporting to `obs`.
    pub fn new_in(config: ClientConfig, obs: &Arc<monster_obs::Registry>) -> Self {
        RedfishClient { config, obs: Arc::clone(obs) }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Execute one request with the retry policy against the simulated
    /// fleet.
    pub fn fetch(
        &self,
        cluster: &SimulatedCluster,
        node: NodeId,
        category: Category,
    ) -> RequestOutcome {
        let mut elapsed = VDuration::ZERO;
        let mut attempts = 0;
        let mut timeouts = 0;
        while attempts <= MAX_RETRIES {
            attempts += 1;
            match cluster.request(node, category, |a| a.map(|p| parse_reading(category, p).ok())) {
                Ok(Answer::Ok(reading, latency)) => {
                    elapsed += latency;
                    return RequestOutcome {
                        node,
                        category,
                        reading,
                        attempts,
                        timeouts,
                        elapsed,
                        skip: None,
                    };
                }
                Ok(Answer::Refused(latency)) => {
                    elapsed += latency;
                }
                Ok(Answer::Stalled) => {
                    timeouts += 1;
                    elapsed += READ_TIMEOUT;
                }
                Err(_) => {
                    // Unknown node: not retryable.
                    return RequestOutcome {
                        node,
                        category,
                        reading: None,
                        attempts,
                        timeouts,
                        elapsed,
                        skip: None,
                    };
                }
            }
        }
        RequestOutcome { node, category, reading: None, attempts, timeouts, elapsed, skip: None }
    }

    /// Execute one request with the resilient retry policy: jittered
    /// exponential backoff between attempts, per-attempt read timeouts
    /// trimmed to the remaining `budget`, and attempt-level failure
    /// reporting to `registry` (so a node's breaker can trip mid-request
    /// and cut the remaining retries).
    ///
    /// The total elapsed time never exceeds `budget` — that bound is what
    /// lets the sweep scheduler guarantee its deadline.
    pub fn fetch_resilient(
        &self,
        cluster: &SimulatedCluster,
        node: NodeId,
        category: Category,
        registry: &HealthRegistry,
        budget: VDuration,
        sweep: u64,
    ) -> RequestOutcome {
        let mut elapsed = VDuration::ZERO;
        let mut attempts = 0;
        let mut timeouts = 0;
        loop {
            attempts += 1;
            let remaining = budget.saturating_sub(elapsed);
            // A real client bounds the read by both its read timeout and
            // the time left in the sweep budget.
            let attempt_timeout = std::cmp::min(READ_TIMEOUT, remaining);
            match cluster.request(node, category, |a| a.map(|p| parse_reading(category, p).ok())) {
                Ok(Answer::Ok(reading, latency)) if latency <= attempt_timeout => {
                    elapsed += latency;
                    registry.record_success(node, latency);
                    return RequestOutcome {
                        node,
                        category,
                        reading,
                        attempts,
                        timeouts,
                        elapsed,
                        skip: None,
                    };
                }
                Ok(Answer::Ok(..)) => {
                    // The payload would have arrived after the (possibly
                    // budget-trimmed) read timeout: the client hangs up.
                    timeouts += 1;
                    elapsed += attempt_timeout;
                    registry.record_failure(node);
                }
                Ok(Answer::Refused(latency)) => {
                    elapsed += std::cmp::min(latency, attempt_timeout);
                    registry.record_failure(node);
                }
                Ok(Answer::Stalled) => {
                    timeouts += 1;
                    elapsed += attempt_timeout;
                    registry.record_failure(node);
                }
                Err(_) => {
                    // Unknown node: not retryable.
                    return RequestOutcome {
                        node,
                        category,
                        reading: None,
                        attempts,
                        timeouts,
                        elapsed,
                        skip: None,
                    };
                }
            }
            if attempts > MAX_RETRIES || registry.is_open(node) {
                break;
            }
            let delay = backoff_delay(JITTER_SEED, node, sweep, attempts as u32);
            if elapsed + delay + MIN_ATTEMPT_BUDGET > budget {
                break; // not enough budget left for a meaningful retry
            }
            elapsed += delay;
            self.obs.histo("monster_redfish_backoff_seconds").observe_vdur(delay);
        }
        RequestOutcome { node, category, reading: None, attempts, timeouts, elapsed, skip: None }
    }

    /// Sweep the whole fleet: fan the request pool out on the worker pool,
    /// then compute the simulated makespan on the in-flight budget
    /// (longest-processing-time-first onto the least loaded channel).
    pub fn sweep(&self, cluster: &SimulatedCluster) -> SweepOutcome {
        // The threads follow the machine: a worker without a core to run
        // on costs a spawn and buys nothing.
        self.sweep_with(self.config.pool_workers.min(pool::cores()), cluster)
    }

    fn sweep_with(&self, workers: usize, cluster: &SimulatedCluster) -> SweepOutcome {
        // A node's four requests stay on one worker, in category order:
        // its BMC draws latencies from one seeded stream, so the order the
        // requests reach it — not which thread wins a race to its lock —
        // decides which request gets which draw, and the outcome is the same
        // for any number of workers.
        let pool = ThreadPool::new(workers);
        let per_node = pool
            .scope_map(cluster.node_ids(), |&n| Category::ALL.map(|c| self.fetch(cluster, n, c)));
        let results: Vec<RequestOutcome> = per_node.into_iter().flatten().collect();

        let mut times: Vec<VDuration> = results.iter().map(|r| r.elapsed).collect();
        times.sort_unstable_by(|a, b| b.cmp(a));
        let mut channels = Channels::new(self.config.max_inflight.min(times.len()));
        for t in times {
            channels.load_least(t);
        }
        let makespan = channels.makespan();
        let outcome = SweepOutcome { results, makespan, deadline: None };
        self.report(&outcome);
        outcome
    }

    /// Sweep the fleet with the resilience layer engaged: open-circuit
    /// nodes are skipped outright, half-open nodes get a single probe, and
    /// the remaining requests are packed cheapest-estimate-first onto the
    /// in-flight channels against `deadline` (see
    /// [`crate::resilience::sweep_deadline`]). When the
    /// budget runs out the sweep returns *degraded* — the unscheduled
    /// requests are reported as skipped instead of dragging the makespan
    /// past the collection cadence.
    ///
    /// By construction no channel is ever loaded past the deadline: a
    /// request is only admitted while its latency estimate fits, and
    /// [`Self::fetch_resilient`] trims per-attempt read timeouts to the
    /// channel's remaining budget.
    ///
    /// Runs single-threaded on purpose: breaker transitions, EWMA updates,
    /// and per-node RNG draws then happen in one deterministic order, so a
    /// seeded chaos replay is bit-identical across runs and machines (the
    /// wall-clock cost of a simulated fetch is microseconds).
    pub fn sweep_resilient(
        &self,
        cluster: &SimulatedCluster,
        registry: &HealthRegistry,
        deadline: VDuration,
    ) -> SweepOutcome {
        registry.begin_sweep();
        let sweep_idx = registry.sweep_index();

        // Breaker admission, node by node.
        let mut admitted: Vec<(NodeId, Category)> = Vec::new();
        let mut results: Vec<RequestOutcome> = Vec::new();
        for &node in cluster.node_ids() {
            match registry.admit(node) {
                Admission::Allow => admitted.extend(Category::ALL.into_iter().map(|c| (node, c))),
                Admission::Probe => {
                    // One probe request; the other categories stay skipped
                    // until the breaker closes.
                    admitted.push((node, Category::ALL[0]));
                    for &c in &Category::ALL[1..] {
                        results.push(RequestOutcome::skipped(node, c, SkipReason::BreakerOpen));
                    }
                }
                Admission::Skip => {
                    for c in Category::ALL {
                        results.push(RequestOutcome::skipped(node, c, SkipReason::BreakerOpen));
                    }
                }
            }
        }

        // Cheapest-estimate-first order: deadline exhaustion then sheds the
        // highest-latency suspects, never the healthy fleet. The sort is
        // stable, so ties keep management-network order.
        let mut order: Vec<(VDuration, NodeId, Category)> =
            admitted.into_iter().map(|(n, c)| (registry.estimate(n), n, c)).collect();
        order.sort_by_key(|&(estimate, _, _)| estimate);

        // Greedy least-loaded channel packing against the deadline.
        let mut channels = Channels::new(self.config.max_inflight.min(order.len()));
        for (estimate, node, category) in order {
            // A breaker may have opened mid-sweep from this sweep's own
            // failures; skip the node's remaining requests if so.
            if registry.is_open(node) {
                results.push(RequestOutcome::skipped(node, category, SkipReason::BreakerOpen));
                continue;
            }
            let load = channels.least();
            let budget = deadline.saturating_sub(load);
            if load + estimate > deadline || budget < MIN_ATTEMPT_BUDGET {
                results.push(RequestOutcome::skipped(node, category, SkipReason::Deadline));
                continue;
            }
            let outcome =
                self.fetch_resilient(cluster, node, category, registry, budget, sweep_idx);
            channels.load_least(outcome.elapsed);
            results.push(outcome);
        }

        let makespan = channels.makespan();
        let outcome = SweepOutcome { results, makespan, deadline: Some(deadline) };
        registry.publish_gauges();
        self.report(&outcome);
        outcome
    }

    /// Publish a sweep's health to the self-monitoring registry
    /// (`monster_redfish_*` series on `GET /metrics`), its makespan linked
    /// to the trace installed on this thread. The sweep's notable requests
    /// reach `/debug/trace` through the interval record its outcome fills.
    /// Kept out of [`Self::fetch`] so the per-request hot path stays
    /// untouched.
    fn report(&self, outcome: &SweepOutcome) {
        self.obs.counter("monster_redfish_sweeps_total").inc();
        self.obs.counter("monster_redfish_requests_total").add(outcome.results.len() as u64);
        self.obs.counter("monster_redfish_failures_total").add(outcome.failures() as u64);
        self.obs.counter("monster_redfish_retries_total").add(outcome.retries() as u64);
        self.obs.counter("monster_redfish_timeouts_total").add(outcome.timeouts() as u64);
        self.obs.counter("monster_redfish_skipped_total").add(outcome.skipped() as u64);
        self.obs
            .histo_help(
                "monster_sweep_duration_seconds",
                "Simulated makespan of one full-fleet Redfish sweep.",
            )
            .observe_vdur_traced(outcome.makespan, monster_obs::trace::current());
        let histo = self.obs.histo("monster_redfish_request_seconds");
        for r in outcome.results.iter().filter(|r| r.skip.is_none()) {
            histo.observe_vdur(r.elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmc::BmcConfig;
    use crate::cluster::ClusterConfig;
    use proptest::prelude::*;

    fn small_cluster(nodes: usize, seed: u64) -> SimulatedCluster {
        SimulatedCluster::new(ClusterConfig::small(nodes, seed))
    }

    #[test]
    fn fetch_retries_through_refusals() {
        // A BMC that refuses often but never stalls: retries should lift
        // the success rate well above the single-attempt rate.
        let cfg = ClusterConfig {
            nodes: 30,
            bmc: BmcConfig { failure_rate: 0.3, stall_rate: 0.0, ..BmcConfig::default() },
            ..ClusterConfig::small(30, 2)
        };
        let cluster = SimulatedCluster::new(cfg);
        let client = RedfishClient::default();
        let outcomes: Vec<_> = cluster
            .node_ids()
            .iter()
            .map(|&n| client.fetch(&cluster, n, Category::Power))
            .collect();
        let ok = outcomes.iter().filter(|o| o.reading.is_some()).count();
        // P(fail all 3 attempts) = 0.3^3 ≈ 2.7%.
        assert!(ok >= 27, "ok {ok}/30");
        assert!(outcomes.iter().any(|o| o.attempts > 1), "no retries exercised");
    }

    #[test]
    fn stall_costs_full_read_timeout() {
        let cluster = small_cluster(1, 3);
        let node = cluster.node_ids()[0];
        cluster.set_bmc_alive(node, false).unwrap();
        let client = RedfishClient::default();
        let o = client.fetch(&cluster, node, Category::Thermal);
        assert!(o.reading.is_none());
        assert_eq!(o.attempts, 3);
        // 3 attempts x 15 s timeout.
        assert_eq!(o.elapsed, VDuration::from_secs(45));
    }

    #[test]
    fn sweep_makespan_matches_paper_scale() {
        // Full Quanah-sized sweep: mean request ≈4.3 s, 1868 requests over
        // 150 channels → makespan in the paper's ~55 s neighbourhood.
        let cluster = SimulatedCluster::new(ClusterConfig::default());
        let client = RedfishClient::default();
        let sweep = client.sweep(&cluster);
        assert_eq!(sweep.results.len(), 1868);
        assert!(sweep.successes() as f64 / 1868.0 > 0.97, "successes {}", sweep.successes());
        let mean = sweep.mean_request_secs();
        assert!((3.9..4.7).contains(&mean), "mean request {mean:.2}s");
        let makespan = sweep.makespan.as_secs_f64();
        assert!((45.0..70.0).contains(&makespan), "makespan {makespan:.1}s");
    }

    #[test]
    fn sweep_outcome_does_not_depend_on_the_worker_count() {
        // Refusals, stalls and retries on every node's seeded stream: were a
        // node's requests to race each other, the draws would change hands.
        // `sweep_with`: real threads, however few cores the machine has.
        let outcome = |workers: usize| {
            let cluster = SimulatedCluster::new(ClusterConfig {
                bmc: BmcConfig { failure_rate: 0.3, stall_rate: 0.1, ..BmcConfig::default() },
                ..ClusterConfig::small(24, 7)
            });
            let client = RedfishClient::new(ClientConfig::default());
            let first = format!("{:?}", client.sweep_with(workers, &cluster));
            (first, format!("{:?}", client.sweep_with(workers, &cluster)))
        };
        let one = outcome(1);
        assert!(one.0.contains("reading: None") && one.0 != one.1, "nothing failed or moved");
        assert_eq!(outcome(2), one);
        assert_eq!(outcome(8), one);
    }

    /// The packing as it was: a linear scan for the least loaded channel,
    /// the first of equals. Returns the least load each request met, and
    /// the makespan.
    fn pack_linear(times: &[(VDuration, bool)], channels: usize) -> (Vec<VDuration>, VDuration) {
        let mut bins = vec![VDuration::ZERO; channels.max(1).min(times.len().max(1))];
        let mut met = Vec::new();
        for &(t, take) in times {
            let least = bins.iter_mut().min().expect("non-empty bins");
            met.push(*least);
            if take {
                *least += t;
            }
        }
        (met, bins.into_iter().max().unwrap_or(VDuration::ZERO))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_heap_packs_as_the_linear_scan_did(
            ticks in prop::collection::vec((0u64..6, any::<bool>()), 0..300),
            longest_first in any::<bool>(),
            channels in 0usize..24,
        ) {
            // Six distinct durations: ties at every step, equal-load
            // channels everywhere. `sweep_with` takes every request longest
            // first; `sweep_resilient` takes them in arrival order and
            // skips some it has looked at.
            let mut times: Vec<(VDuration, bool)> = ticks
                .iter()
                .map(|&(t, take)| (VDuration::from_millis(250 * t), take || longest_first))
                .collect();
            if longest_first {
                times.sort_unstable_by(|a, b| b.cmp(a));
            }
            let (met, makespan) = pack_linear(&times, channels);
            let mut heap = Channels::new(channels.min(times.len()));
            for (&(t, take), &least) in times.iter().zip(&met) {
                prop_assert_eq!(heap.least(), least);
                if take {
                    heap.load_least(t);
                }
            }
            prop_assert_eq!(heap.makespan(), makespan);
        }
    }

    #[test]
    fn sweep_on_tiny_cluster_is_fast() {
        let cluster = small_cluster(4, 4);
        let client = RedfishClient::default();
        let sweep = client.sweep(&cluster);
        assert_eq!(sweep.results.len(), 16);
        // 16 requests over 150 channels: makespan ≈ slowest single request.
        assert!(sweep.makespan < VDuration::from_secs(50));
    }

    #[test]
    fn unknown_node_fetch_fails_cleanly() {
        let cluster = small_cluster(2, 5);
        let client = RedfishClient::default();
        let o = client.fetch(&cluster, NodeId::new(40, 1), Category::Power);
        assert!(o.reading.is_none());
        assert_eq!(o.attempts, 1);
    }

    // ---- resilient path -------------------------------------------------

    use crate::resilience::{sweep_deadline, BreakerState};

    /// The paper's 60 s cadence's deadline.
    fn deadline() -> VDuration {
        sweep_deadline(60)
    }

    fn skipped(sweep: &SweepOutcome, reason: SkipReason) -> usize {
        sweep.results.iter().filter(|r| r.skip == Some(reason)).count()
    }

    fn clean_cluster(nodes: usize, seed: u64) -> SimulatedCluster {
        SimulatedCluster::new(ClusterConfig {
            bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
            ..ClusterConfig::small(nodes, seed)
        })
    }

    #[test]
    fn retry_exhaustion_accounts_attempts_timeouts_elapsed() {
        // The satellite-checklist accounting test: a dead BMC exhausts
        // MAX_RETRIES and the outcome reports exactly what was spent.
        let cluster = clean_cluster(1, 21);
        let node = cluster.node_ids()[0];
        cluster.set_bmc_alive(node, false).unwrap();
        let client = RedfishClient::default();
        let registry = HealthRegistry::new(&Arc::default());
        registry.begin_sweep();

        let budget = VDuration::from_secs(300); // ample: no trimming
        let o = client.fetch_resilient(&cluster, node, Category::Power, &registry, budget, 1);
        assert!(o.reading.is_none());
        assert!(o.skip.is_none());
        // Default breaker threshold is 3: the third stalled attempt trips
        // the breaker mid-request, so all 3 attempts ran.
        assert_eq!(o.attempts, MAX_RETRIES + 1);
        assert_eq!(o.timeouts, 3);
        // Elapsed = 3 read timeouts + the two jittered backoff delays.
        let d1 = backoff_delay(JITTER_SEED, node, 1, 1);
        let d2 = backoff_delay(JITTER_SEED, node, 1, 2);
        assert_eq!(o.elapsed, VDuration::from_secs(45) + d1 + d2);
        assert_eq!(registry.breaker_state(node), BreakerState::Open);
    }

    #[test]
    fn budget_cuts_retries_and_bounds_elapsed() {
        let cluster = clean_cluster(1, 22);
        let node = cluster.node_ids()[0];
        cluster.set_bmc_alive(node, false).unwrap();
        let client = RedfishClient::default();
        let registry = HealthRegistry::new(&Arc::default());
        registry.begin_sweep();

        // 20 s budget: one full 15 s timeout, then no room for another
        // attempt after backoff — the request gives up inside its budget.
        let budget = VDuration::from_secs(20);
        let o = client.fetch_resilient(&cluster, node, Category::Power, &registry, budget, 1);
        assert!(o.reading.is_none());
        assert!(o.elapsed <= budget, "elapsed {} > budget {budget}", o.elapsed);
        assert!(o.attempts <= 2, "attempts {}", o.attempts);
    }

    #[test]
    fn resilient_sweep_on_clean_fleet_matches_plain_sweep_semantics() {
        let cluster = clean_cluster(6, 23);
        let client = RedfishClient::default();
        let registry = HealthRegistry::new(&Arc::default());
        let sweep = client.sweep_resilient(&cluster, &registry, deadline());
        assert_eq!(sweep.results.len(), 24);
        assert_eq!(sweep.successes(), 24);
        assert_eq!(sweep.skipped(), 0);
        assert!(!sweep.degraded());
        assert_eq!(sweep.deadline, Some(deadline()));
        assert!(sweep.makespan <= deadline());
    }

    #[test]
    fn open_breaker_skips_node_then_probe_recovers_it() {
        let cluster = clean_cluster(3, 24);
        let victim = cluster.node_ids()[0];
        cluster.set_bmc_alive(victim, false).unwrap();
        let client = RedfishClient::default();
        let registry = HealthRegistry::new(&Arc::default());

        // Sweep 1: the victim's first request burns its attempts and trips
        // the breaker; its other 3 categories are skipped mid-sweep.
        let s1 = client.sweep_resilient(&cluster, &registry, deadline());
        assert_eq!(s1.failures(), 1);
        assert_eq!(skipped(&s1, SkipReason::BreakerOpen), 3);
        assert_eq!(registry.breaker_state(victim), BreakerState::Open);

        // Sweeps 2-3 (cooldown): the victim is skipped wholesale at zero
        // simulated cost.
        for _ in 0..2 {
            let s = client.sweep_resilient(&cluster, &registry, deadline());
            assert_eq!(skipped(&s, SkipReason::BreakerOpen), 4);
            assert_eq!(s.failures(), 0);
        }

        // The BMC comes back; the half-open probe succeeds and closes the
        // breaker, and the following sweep is fully fresh again.
        cluster.set_bmc_alive(victim, true).unwrap();
        let s4 = client.sweep_resilient(&cluster, &registry, deadline());
        assert_eq!(skipped(&s4, SkipReason::BreakerOpen), 3, "only the probe ran");
        assert_eq!(registry.breaker_state(victim), BreakerState::Closed);
        let s5 = client.sweep_resilient(&cluster, &registry, deadline());
        assert_eq!(s5.successes(), 12);
        assert!(!s5.degraded());
    }

    #[test]
    fn deadline_sheds_load_instead_of_overrunning() {
        // 8 nodes / 32 requests forced through 2 channels with a tight
        // deadline: the sweep must degrade, not overrun.
        let cluster = clean_cluster(8, 25);
        let client =
            RedfishClient::new(ClientConfig { max_inflight: 2, ..ClientConfig::default() });
        let registry = HealthRegistry::new(&Arc::default());
        let sweep = client.sweep_resilient(&cluster, &registry, VDuration::from_secs(30));
        assert!(sweep.makespan <= VDuration::from_secs(30), "makespan {}", sweep.makespan);
        assert!(
            skipped(&sweep, SkipReason::Deadline) > 0,
            "nothing shed under a 30 s / 2-channel budget"
        );
        assert!(sweep.successes() > 0, "everything shed");
        assert!(sweep.degraded());
    }
}
