//! Per-BMC health tracking, circuit breakers, and jittered backoff.
//!
//! §III-B1 motivates the whole collector design with BMC misbehaviour:
//! 4.29 s mean requests, stalls, and drops against a 60 s cadence. The
//! original client retried instantly and remembered nothing between sweeps,
//! so a handful of stalled iDRACs could push a sweep past the cadence. This
//! module gives the client a memory:
//!
//! * [`HealthRegistry`] — one record per BMC: an EWMA of successful-request
//!   latency (the sweep scheduler's cost estimate) and a consecutive-failure
//!   count feeding a circuit breaker;
//! * circuit breakers — `Closed → Open → HalfOpen → Closed`. A breaker
//!   opens after `FAILURE_THRESHOLD` consecutive failed *attempts*, which
//!   lets it trip mid-request: a dead BMC costs one 45-second request, not
//!   four. Open breakers skip the node entirely for `COOLDOWN_SWEEPS`
//!   sweeps, then admit a single probe request; probe success closes the
//!   breaker, probe failure re-opens it;
//! * `backoff_delay` — jittered exponential backoff between retry
//!   attempts, replacing the immediate retry. The jitter factor is a pure
//!   function of (seed, node, sweep, attempt) so replays are deterministic;
//! * [`sweep_deadline`] — the makespan budget a sweep is packed against,
//!   derived from the collection cadence.
//!
//! The values below are the ones the collector ships with; nothing sets
//! another. All state transitions are driven by the *sequential* resilient
//! sweep in [`crate::client`], so a chaos replay with a fixed seed is
//! bit-identical across runs and machines.

use monster_sim::{SimRng, VDuration};
use monster_util::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Delay before the first retry.
const BACKOFF_BASE: VDuration = VDuration::from_millis(500);
/// Upper bound on any single (nominal) delay.
const BACKOFF_CAP: VDuration = VDuration::from_secs(8);
/// Growth factor per retry.
const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Fraction of the nominal delay randomized away: the drawn delay is
/// uniform in `[nominal * (1 - jitter), nominal * (1 + jitter)]`.
const BACKOFF_JITTER: f64 = 0.5;
/// Seed for the deterministic backoff jitter.
pub(crate) const JITTER_SEED: u64 = 0x5AFE;

/// Consecutive failed attempts that open a breaker.
const FAILURE_THRESHOLD: u32 = 3;
/// Sweeps an open breaker waits before admitting a probe.
const COOLDOWN_SWEEPS: u64 = 2;
/// Consecutive probe successes that close a half-open breaker.
const PROBE_SUCCESSES: u32 = 1;

/// EWMA smoothing factor for per-BMC latency (weight of the newest
/// sample).
const EWMA_ALPHA: f64 = 0.3;
/// Latency estimate for a BMC with no successful history yet — the
/// paper's 4.29 s fleet mean.
const DEFAULT_ESTIMATE: VDuration = VDuration::from_millis(4290);
/// Minimum budget worth starting a retry attempt with.
pub(crate) const MIN_ATTEMPT_BUDGET: VDuration = VDuration::from_secs(1);

/// The delay before retry number `retry` (1-based) of a request to `node`
/// during sweep `sweep`. Deterministic: the jitter draw depends only on
/// the arguments, never on shared RNG state.
pub(crate) fn backoff_delay(seed: u64, node: NodeId, sweep: u64, retry: u32) -> VDuration {
    let nominal = (BACKOFF_BASE.as_secs_f64()
        * BACKOFF_MULTIPLIER.powi(retry.saturating_sub(1) as i32))
    .min(BACKOFF_CAP.as_secs_f64());
    let mut rng = SimRng::derive(seed, &format!("backoff/{}/{sweep}/{retry}", node.bmc_addr()));
    let factor = 1.0 + BACKOFF_JITTER * (2.0 * rng.uniform01() - 1.0);
    VDuration::from_secs_f64(nominal * factor)
}

/// The sweep deadline for a collection cadence of `cadence_secs`: 9/10 of
/// it (54 s at the paper's 60 s), so a degraded sweep leaves headroom and
/// can never delay the next one.
pub fn sweep_deadline(cadence_secs: i64) -> VDuration {
    VDuration::from_millis(cadence_secs.max(0) as u64 * 900)
}

/// Turns the resilience layer on where a configuration holds it
/// (`Some(ResilienceConfig::default())`); every value it runs on is a
/// constant of this module.
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {}

/// Circuit-breaker state for one BMC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// The node is skipped; last-known-good values are served instead.
    Open,
    /// Cooldown elapsed: one probe request per sweep is admitted.
    HalfOpen,
}

/// What the registry says about issuing a request to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: all categories may be fetched.
    Allow,
    /// Breaker half-open: fetch a single probe request, skip the rest.
    Probe,
    /// Breaker open: skip the node, serve last-known-good.
    Skip,
}

#[derive(Debug, Clone)]
struct NodeHealth {
    state: BreakerState,
    consecutive_failures: u32,
    /// Sweep index at which the breaker (re-)opened.
    opened_at: u64,
    probe_ok: u32,
    ewma_secs: Option<f64>,
}

impl NodeHealth {
    fn new() -> Self {
        NodeHealth {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
            probe_ok: 0,
            ewma_secs: None,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    nodes: HashMap<NodeId, NodeHealth>,
    sweep: u64,
}

/// A point-in-time count of breakers by state, published as gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakerCounts {
    /// Breakers in [`BreakerState::Closed`] (includes never-seen nodes
    /// only once they have a record).
    pub closed: usize,
    /// Breakers in [`BreakerState::Open`].
    pub open: usize,
    /// Breakers in [`BreakerState::HalfOpen`].
    pub half_open: usize,
}

/// Per-BMC health registry: EWMA latency, consecutive-failure counts, and
/// the circuit breakers they feed.
#[derive(Debug, Default)]
pub struct HealthRegistry {
    inner: Mutex<Inner>,
}

impl HealthRegistry {
    /// Fresh registry: every breaker closed, no latency history.
    pub fn new() -> Self {
        HealthRegistry::default()
    }

    /// Start a new sweep: advance the sweep clock and move open breakers
    /// whose cooldown has elapsed to half-open.
    pub fn begin_sweep(&self) {
        let mut inner = self.inner.lock();
        inner.sweep += 1;
        let sweep = inner.sweep;
        for health in inner.nodes.values_mut() {
            if health.state == BreakerState::Open && sweep > health.opened_at + COOLDOWN_SWEEPS {
                health.state = BreakerState::HalfOpen;
                health.probe_ok = 0;
                monster_obs::counter("monster_redfish_breaker_transitions_total").inc();
            }
        }
    }

    /// Sweeps started so far.
    pub fn sweep_index(&self) -> u64 {
        self.inner.lock().sweep
    }

    /// Admission decision for a node at the current sweep.
    pub fn admit(&self, node: NodeId) -> Admission {
        let inner = self.inner.lock();
        match inner.nodes.get(&node).map(|h| h.state).unwrap_or(BreakerState::Closed) {
            BreakerState::Closed => Admission::Allow,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => Admission::Skip,
        }
    }

    /// Current breaker state for a node (closed if never seen).
    pub fn breaker_state(&self, node: NodeId) -> BreakerState {
        self.inner.lock().nodes.get(&node).map(|h| h.state).unwrap_or(BreakerState::Closed)
    }

    /// True when the node's breaker is open — checked between retry
    /// attempts so a request in flight stops retrying the moment its own
    /// failures trip the breaker.
    pub fn is_open(&self, node: NodeId) -> bool {
        self.breaker_state(node) == BreakerState::Open
    }

    /// The scheduler's per-request cost estimate for a node: the latency
    /// EWMA, or `DEFAULT_ESTIMATE` for nodes without history.
    pub fn estimate(&self, node: NodeId) -> VDuration {
        let inner = self.inner.lock();
        match inner.nodes.get(&node).and_then(|h| h.ewma_secs) {
            Some(s) => VDuration::from_secs_f64(s),
            None => DEFAULT_ESTIMATE,
        }
    }

    /// Record a successful request and its latency.
    pub fn record_success(&self, node: NodeId, latency: VDuration) {
        let mut inner = self.inner.lock();
        let health = inner.nodes.entry(node).or_insert_with(NodeHealth::new);
        health.consecutive_failures = 0;
        let secs = latency.as_secs_f64();
        health.ewma_secs =
            Some(health.ewma_secs.map_or(secs, |e| EWMA_ALPHA * secs + (1.0 - EWMA_ALPHA) * e));
        if health.state == BreakerState::HalfOpen {
            health.probe_ok += 1;
            if health.probe_ok >= PROBE_SUCCESSES {
                health.state = BreakerState::Closed;
                monster_obs::counter("monster_redfish_breaker_transitions_total").inc();
            }
        }
    }

    /// Record one failed attempt (refused, stalled, or timed out). Opens
    /// the breaker when the consecutive-failure threshold is reached; a
    /// half-open breaker re-opens on any failed probe.
    pub fn record_failure(&self, node: NodeId) {
        let mut inner = self.inner.lock();
        let sweep = inner.sweep;
        let health = inner.nodes.entry(node).or_insert_with(NodeHealth::new);
        health.consecutive_failures += 1;
        let trip = match health.state {
            BreakerState::Closed => health.consecutive_failures >= FAILURE_THRESHOLD,
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trip {
            health.state = BreakerState::Open;
            health.opened_at = sweep;
            health.probe_ok = 0;
            monster_obs::counter("monster_redfish_breaker_transitions_total").inc();
            monster_obs::counter("monster_redfish_breaker_opens_total").inc();
        }
    }

    /// Count breakers by state and publish the
    /// `monster_redfish_breakers_{closed,open,half_open}` gauges.
    pub fn publish_gauges(&self) -> BreakerCounts {
        let counts = self.breaker_counts();
        monster_obs::gauge("monster_redfish_breakers_closed").set(counts.closed as i64);
        monster_obs::gauge("monster_redfish_breakers_open").set(counts.open as i64);
        monster_obs::gauge("monster_redfish_breakers_half_open").set(counts.half_open as i64);
        counts
    }

    /// Count breakers by state.
    pub fn breaker_counts(&self) -> BreakerCounts {
        let inner = self.inner.lock();
        let mut counts = BreakerCounts::default();
        for h in inner.nodes.values() {
            match h.state {
                BreakerState::Closed => counts.closed += 1,
                BreakerState::Open => counts.open += 1,
                BreakerState::HalfOpen => counts.half_open += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeId {
        NodeId::new(1, 1)
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let d1 = backoff_delay(1, node(), 1, 1);
        let d2 = backoff_delay(1, node(), 1, 2);
        let d9 = backoff_delay(1, node(), 1, 9);
        // Nominal 0.5 s / 1 s: jitter keeps each within +/-50%.
        assert!(d1.as_secs_f64() >= 0.25 && d1.as_secs_f64() <= 0.75, "d1 {d1}");
        assert!(d2.as_secs_f64() >= 0.5 && d2.as_secs_f64() <= 1.5, "d2 {d2}");
        // Deep retries cap at 8 s (+50% jitter).
        assert!(d9.as_secs_f64() <= 12.0, "d9 {d9}");
        // Pure function of its inputs.
        assert_eq!(d1, backoff_delay(1, node(), 1, 1));
        assert_ne!(backoff_delay(1, node(), 1, 1), backoff_delay(1, node(), 2, 1));
        assert_ne!(backoff_delay(1, node(), 1, 1), backoff_delay(2, node(), 1, 1));
    }

    #[test]
    fn the_deadline_is_nine_tenths_of_the_cadence() {
        assert_eq!(sweep_deadline(60), VDuration::from_secs(54));
        assert_eq!(sweep_deadline(30), VDuration::from_secs(27));
        assert_eq!(sweep_deadline(10), VDuration::from_secs(9));
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        // The deterministic state walk of the satellite checklist: a seeded
        // schedule of failures and successes drives one full cycle.
        let reg = HealthRegistry::new();
        let n = node();
        reg.begin_sweep();
        assert_eq!(reg.breaker_state(n), BreakerState::Closed);
        assert_eq!(reg.admit(n), Admission::Allow);

        // Three consecutive failed attempts trip the breaker mid-request.
        reg.record_failure(n);
        reg.record_failure(n);
        assert_eq!(reg.breaker_state(n), BreakerState::Closed);
        reg.record_failure(n);
        assert_eq!(reg.breaker_state(n), BreakerState::Open);
        assert!(reg.is_open(n));
        assert_eq!(reg.admit(n), Admission::Skip);

        // Cooldown: 2 full sweeps skipped, then half-open with a probe.
        reg.begin_sweep();
        assert_eq!(reg.admit(n), Admission::Skip);
        reg.begin_sweep();
        assert_eq!(reg.admit(n), Admission::Skip);
        reg.begin_sweep();
        assert_eq!(reg.breaker_state(n), BreakerState::HalfOpen);
        assert_eq!(reg.admit(n), Admission::Probe);

        // Probe success closes it again.
        reg.record_success(n, VDuration::from_secs(4));
        assert_eq!(reg.breaker_state(n), BreakerState::Closed);
        assert_eq!(reg.admit(n), Admission::Allow);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let reg = HealthRegistry::new();
        let n = node();
        reg.begin_sweep();
        for _ in 0..3 {
            reg.record_failure(n);
        }
        reg.begin_sweep();
        reg.begin_sweep();
        reg.begin_sweep();
        assert_eq!(reg.admit(n), Admission::Probe);
        reg.record_failure(n); // probe fails
        assert_eq!(reg.breaker_state(n), BreakerState::Open);
        // Cooldown restarts from the re-open sweep.
        reg.begin_sweep();
        assert_eq!(reg.admit(n), Admission::Skip);
        reg.begin_sweep();
        assert_eq!(reg.admit(n), Admission::Skip);
        reg.begin_sweep();
        assert_eq!(reg.admit(n), Admission::Probe);
    }

    #[test]
    fn success_resets_failure_streak() {
        let reg = HealthRegistry::new();
        let n = node();
        reg.begin_sweep();
        reg.record_failure(n);
        reg.record_failure(n);
        reg.record_success(n, VDuration::from_secs(4));
        reg.record_failure(n);
        reg.record_failure(n);
        assert_eq!(reg.breaker_state(n), BreakerState::Closed, "streak did not reset");
        reg.record_failure(n);
        assert_eq!(reg.breaker_state(n), BreakerState::Open);
    }

    #[test]
    fn ewma_tracks_latency_and_feeds_estimates() {
        let reg = HealthRegistry::new();
        let n = node();
        assert_eq!(reg.estimate(n), DEFAULT_ESTIMATE);
        assert_eq!(DEFAULT_ESTIMATE, VDuration::from_secs_f64(4.29));
        reg.record_success(n, VDuration::from_secs(10));
        assert_eq!(reg.estimate(n), VDuration::from_secs(10));
        reg.record_success(n, VDuration::from_secs(2));
        // 0.3 * 2 + 0.7 * 10 = 7.6
        assert!((reg.estimate(n).as_secs_f64() - 7.6).abs() < 1e-9);
    }

    #[test]
    fn breaker_counts_partition_the_fleet() {
        let reg = HealthRegistry::new();
        reg.begin_sweep();
        let a = NodeId::new(1, 1);
        let b = NodeId::new(1, 2);
        let c = NodeId::new(1, 3);
        reg.record_success(a, VDuration::from_secs(4));
        for _ in 0..3 {
            reg.record_failure(b);
        }
        for _ in 0..3 {
            reg.record_failure(c);
        }
        reg.begin_sweep();
        reg.begin_sweep();
        reg.begin_sweep(); // b and c move to half-open
        reg.record_success(c, VDuration::from_secs(4)); // c closes
        let counts = reg.publish_gauges();
        assert_eq!(counts, BreakerCounts { closed: 2, open: 0, half_open: 1 });
    }
}
