//! The deterministic alert engine.
//!
//! One engine instance watches a whole deployment. Each collection
//! interval the deployment hands it an [`IntervalInput`]: the detector
//! events from the collector, per-node collection health (live readings,
//! skips, breaker state, stale substitution age), the freshness SLO burn
//! rates, and the scheduler's job placement for attribution. The engine
//! folds all of it through a fixed rule set into a dedup'd alert table.
//!
//! Design rules that make the output reproducible byte-for-byte under the
//! seeded chaos matrix:
//!
//! * All state lives in `BTreeMap`s keyed by [`AlertKey`]; iteration order
//!   is total and stable, never hash order.
//! * Alert ids are sequential `u64`s assigned in raise order; two runs of
//!   the same seeded simulation assign identical ids.
//! * Time is virtual: every decision (hold-downs) uses the simulation
//!   clock passed in `IntervalInput::now`, never wall time.
//! * Resolution is two-phase. A firing alert whose condition goes quiet
//!   enters `PendingResolve` and only resolves after `holddown_secs` of
//!   sustained quiet; a re-fire during the hold-down snaps it back to
//!   `Firing` and counts a *suppressed flap* instead of a new alert pair.

use crate::detect::{AnomalyEvent, AnomalyKind, Signal};
use monster_json::Value;
use monster_obs::{Counter, Gauge, TraceId};
use monster_util::{EpochSecs, JobId, NodeId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Alert severity, ordered `Info < Warning < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy, no action required.
    Info,
    /// Degraded but serving.
    Warning,
    /// Operator action required.
    Critical,
}

impl Severity {
    /// All severities, ascending.
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Critical];

    /// Stable lowercase name used in labels and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Coarse grouping used in the dedup key and the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertCategory {
    /// Raised by the streaming detectors in the collector.
    Anomaly,
    /// Raised from collection-path health (breakers, skips, staleness).
    Collection,
    /// Raised from the freshness SLO burn rate.
    Freshness,
}

impl AlertCategory {
    /// Stable lowercase name used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            AlertCategory::Anomaly => "anomaly",
            AlertCategory::Collection => "collection",
            AlertCategory::Freshness => "freshness",
        }
    }
}

/// The rule that raised an alert. Compact and `Copy` so the dedup key
/// stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// A detector transition on `(signal, kind)`.
    Anomaly(Signal, AnomalyKind),
    /// Zero live readings for `unreachable_after` consecutive intervals.
    NodeUnreachable,
    /// Skipped/failed requests or stale substitution on a node.
    CollectionDegraded,
    /// Cluster-wide freshness SLO fast-burn.
    FreshnessBurn,
}

impl RuleId {
    /// The category this rule files under.
    pub fn category(&self) -> AlertCategory {
        match self {
            RuleId::Anomaly(..) => AlertCategory::Anomaly,
            RuleId::NodeUnreachable | RuleId::CollectionDegraded => AlertCategory::Collection,
            RuleId::FreshnessBurn => AlertCategory::Freshness,
        }
    }

    /// Stable slash-separated rule name, e.g. `anomaly/power/zscore` or
    /// `collection/unreachable`.
    pub fn name(&self) -> String {
        match self {
            RuleId::Anomaly(signal, kind) => format!("anomaly/{}/{}", signal.name(), kind.name()),
            RuleId::NodeUnreachable => "collection/unreachable".to_string(),
            RuleId::CollectionDegraded => "collection/degraded".to_string(),
            RuleId::FreshnessBurn => "freshness/burn".to_string(),
        }
    }
}

/// The dedup key: at most one active alert exists per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AlertKey {
    /// `None` for cluster-scoped alerts (freshness burn).
    pub node: Option<NodeId>,
    /// The rule (category is derived from it).
    pub rule: RuleId,
}

/// Lifecycle of one alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition currently true.
    Firing,
    /// Condition went quiet; resolves at `clear_at` unless it re-fires.
    PendingResolve {
        /// Virtual time at which the hold-down expires.
        clear_at: EpochSecs,
    },
    /// Finalized; lives in the history ring.
    Resolved,
}

impl AlertState {
    /// Stable lowercase name used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::PendingResolve { .. } => "pending_resolve",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One alert, active or historical.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Sequential id in raise order (deterministic under seeded replay).
    pub id: u64,
    /// Dedup key.
    pub key: AlertKey,
    /// Current severity (may escalate while firing, never de-escalate).
    pub severity: Severity,
    /// Lifecycle state.
    pub state: AlertState,
    /// Virtual time of the first raise.
    pub raised_at: EpochSecs,
    /// Virtual time of final resolution, once resolved.
    pub resolved_at: Option<EpochSecs>,
    /// Last interval at which the condition was observed true.
    pub last_seen: EpochSecs,
    /// Re-fires absorbed during hold-downs instead of new raise/resolve
    /// pairs.
    pub flaps: u32,
    /// The observation that raised (or last refreshed) the alert.
    pub value: f64,
    /// What the rule expected instead.
    pub expected: f64,
    /// Human-readable one-liner.
    pub description: String,
    /// Exemplar trace of the offending reading (`GET /debug/trace`).
    pub trace_id: Option<TraceId>,
    /// Jobs placed on the node when the alert raised (attribution).
    pub jobs: Vec<JobId>,
}

impl Alert {
    /// Render one alert as the JSON object served by `/v1/alerts`.
    pub fn to_json(&self) -> Value {
        let mut obj = monster_json::jobj! {
            "id" => self.id,
            "rule" => self.key.rule.name(),
            "category" => self.key.rule.category().name(),
            "severity" => self.severity.name(),
            "state" => self.state.name(),
            "raised_at" => self.raised_at.as_secs(),
            "last_seen" => self.last_seen.as_secs(),
            "flaps" => u64::from(self.flaps),
            "value" => self.value,
            "expected" => self.expected,
            "description" => self.description.as_str(),
        };
        let o = obj.as_object_mut().expect("jobj");
        o.insert(
            "node",
            match self.key.node {
                Some(n) => Value::from(n.bmc_addr()),
                None => Value::Null,
            },
        );
        o.insert(
            "resolved_at",
            match self.resolved_at {
                Some(t) => Value::from(t.as_secs()),
                None => Value::Null,
            },
        );
        o.insert(
            "trace_id",
            match self.trace_id {
                Some(t) => Value::from(t.to_string()),
                None => Value::Null,
            },
        );
        o.insert("jobs", Value::Array(self.jobs.iter().map(|j| Value::from(j.as_u64())).collect()));
        obj
    }
}

/// Engine tuning. Defaults are calibrated against the chaos matrix: the
/// dead-rack profile must produce exactly one critical per dead node with
/// zero flaps, rolling-brownout must raise-then-resolve, calm must stay
/// silent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Hold-down before a quiet alert resolves (virtual seconds).
    pub holddown_secs: i64,
    /// Consecutive all-dead intervals before `collection/unreachable`.
    pub unreachable_after: u32,
    /// Consecutive degraded intervals before `collection/degraded`.
    pub degraded_after: u32,
    /// Fast burn rate at which `freshness/burn` raises as a warning.
    pub burn_warn: f64,
    /// Fast burn rate at which `freshness/burn` escalates to critical.
    pub burn_critical: f64,
    /// Resolved alerts retained in the history ring.
    pub history_cap: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            holddown_secs: 180,
            unreachable_after: 3,
            degraded_after: 2,
            burn_warn: 6.0,
            burn_critical: 30.0,
            history_cap: 256,
        }
    }
}

/// Per-node collection health for one interval, as reported by the
/// deployment loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInterval {
    /// The node.
    pub node: NodeId,
    /// Categories answered live by the BMC this interval.
    pub live_readings: usize,
    /// Categories skipped (breaker open / deadline exhausted).
    pub skipped: usize,
    /// Whether the node's circuit breaker is currently open.
    pub breaker_open: bool,
    /// Sweeps since the newest substituted reading was actually fresh
    /// (0 = nothing stale this interval).
    pub stale_age_sweeps: u64,
}

/// Everything the engine consumes for one collection interval.
#[derive(Debug, Clone)]
pub struct IntervalInput<'a> {
    /// Virtual time of this interval.
    pub now: EpochSecs,
    /// Detector transitions from the collector, in ingest order.
    pub anomalies: &'a [AnomalyEvent],
    /// Per-node collection health, any order (re-sorted internally).
    pub nodes: &'a [NodeInterval],
    /// Freshness SLO fast-window burn rate.
    pub burn_fast: f64,
    /// Freshness SLO slow-window burn rate.
    pub burn_slow: f64,
    /// Scheduler placement: jobs running per node (attribution).
    pub jobs: &'a BTreeMap<NodeId, Vec<JobId>>,
}

impl Default for IntervalInput<'_> {
    fn default() -> Self {
        static EMPTY_JOBS: std::sync::OnceLock<BTreeMap<NodeId, Vec<JobId>>> =
            std::sync::OnceLock::new();
        IntervalInput {
            now: EpochSecs::new(0),
            anomalies: &[],
            nodes: &[],
            burn_fast: 0.0,
            burn_slow: 0.0,
            jobs: EMPTY_JOBS.get_or_init(BTreeMap::new),
        }
    }
}

/// Counts of what one `observe_interval` call changed — handy for logs and
/// the deployment's `IntervalSummary`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalOutcome {
    /// Alerts newly raised this interval.
    pub raised: usize,
    /// Alerts finally resolved this interval.
    pub resolved: usize,
    /// Re-fires absorbed by hold-downs this interval.
    pub flaps_suppressed: usize,
    /// Active (firing or pending-resolve) alerts after this interval.
    pub active: usize,
}

#[derive(Debug, Default)]
struct Inner {
    next_alert_id: u64,
    active: BTreeMap<AlertKey, Alert>,
    history: VecDeque<Alert>,
    unreachable_runs: BTreeMap<NodeId, u32>,
    degraded_runs: BTreeMap<NodeId, u32>,
}

/// The deterministic alert engine. Cheap to share (`Arc`) between the
/// deployment loop that feeds it and the HTTP service that reads it.
pub struct AlertEngine {
    config: EngineConfig,
    inner: Mutex<Inner>,
    active_gauges: [Arc<Gauge>; 3],
    transitions: Arc<Counter>,
    flaps: Arc<Counter>,
}

impl fmt::Debug for AlertEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlertEngine").field("config", &self.config).finish_non_exhaustive()
    }
}

impl AlertEngine {
    /// Build an engine and register its metrics immediately: severity
    /// gauges appear in `/metrics` as `0` from the first scrape, not from
    /// the first alert.
    pub fn new(config: EngineConfig) -> AlertEngine {
        let active_gauges = Severity::ALL.map(|sev| {
            monster_obs::gauge_help(
                &format!("monster_alert_active{{severity=\"{sev}\"}}"),
                "Active (firing or pending-resolve) alerts by severity.",
            )
        });
        for g in &active_gauges {
            g.set(0);
        }
        AlertEngine {
            config,
            inner: Mutex::new(Inner::default()),
            active_gauges,
            transitions: monster_obs::counter_help(
                "monster_alert_transitions_total",
                "Alert lifecycle transitions (raises + resolves).",
            ),
            flaps: monster_obs::counter_help(
                "monster_alert_flaps_suppressed_total",
                "Alert re-fires absorbed by hold-down timers instead of flapping.",
            ),
        }
    }

    /// Fold one collection interval through the rules. The single entry
    /// point for state change; everything else is read-only.
    pub fn observe_interval(&self, input: &IntervalInput<'_>) -> IntervalOutcome {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let now = input.now;
        let mut outcome = IntervalOutcome::default();

        // 1. Detector events, in a canonical order so id assignment never
        //    depends on collector iteration details.
        let mut events: Vec<&AnomalyEvent> = input.anomalies.iter().collect();
        events.sort_by_key(|e| (e.node, e.signal, e.kind, e.raised));
        for event in events {
            let key = AlertKey {
                node: Some(event.node),
                rule: RuleId::Anomaly(event.signal, event.kind),
            };
            if event.raised {
                let severity = anomaly_severity(event.signal, event.kind);
                let description = format!(
                    "{} {} on {}: observed {:.1}, expected ~{:.1}",
                    event.signal,
                    event.kind,
                    event.node.label(),
                    event.value,
                    event.expected
                );
                self.raise(
                    inner,
                    &mut outcome,
                    key,
                    now,
                    severity,
                    event.value,
                    event.expected,
                    description,
                    event.trace.map(|t| t.trace),
                    input.jobs,
                );
            } else {
                Self::quiesce(inner, &key, now, self.config.holddown_secs);
            }
        }

        // 2. Per-node collection rules (sorted for deterministic ids).
        let mut nodes: Vec<NodeInterval> = input.nodes.to_vec();
        nodes.sort_by_key(|n| n.node);
        for n in &nodes {
            // collection/unreachable: no live data at all for k intervals.
            let run = inner.unreachable_runs.entry(n.node).or_insert(0);
            *run = if n.live_readings == 0 { *run + 1 } else { 0 };
            let unreachable = *run >= self.config.unreachable_after;
            let run = *run;
            let key = AlertKey { node: Some(n.node), rule: RuleId::NodeUnreachable };
            if unreachable {
                let description = format!(
                    "{} unreachable: 0 live readings for {run} consecutive intervals (breaker {})",
                    n.node.label(),
                    if n.breaker_open { "open" } else { "closed" },
                );
                self.raise(
                    inner,
                    &mut outcome,
                    key,
                    now,
                    Severity::Critical,
                    0.0,
                    1.0,
                    description,
                    None,
                    input.jobs,
                );
            } else {
                Self::quiesce(inner, &key, now, self.config.holddown_secs);
            }

            // collection/degraded: partial data (skips or stale fills)
            // while the node is still partly reachable. Fully-dead nodes
            // are the unreachable rule's business — suppressing the
            // weaker alert keeps dead-rack at exactly one alert per node.
            let degraded_now = n.live_readings > 0 && (n.skipped > 0 || n.stale_age_sweeps > 0);
            let drun = inner.degraded_runs.entry(n.node).or_insert(0);
            *drun = if degraded_now { *drun + 1 } else { 0 };
            let degraded = *drun >= self.config.degraded_after;
            let drun = *drun;
            let key = AlertKey { node: Some(n.node), rule: RuleId::CollectionDegraded };
            if degraded {
                let description = format!(
                    "{} collection degraded for {drun} intervals: {} skipped, stale age {} sweeps",
                    n.node.label(),
                    n.skipped,
                    n.stale_age_sweeps,
                );
                self.raise(
                    inner,
                    &mut outcome,
                    key,
                    now,
                    Severity::Warning,
                    n.skipped as f64 + n.stale_age_sweeps as f64,
                    0.0,
                    description,
                    None,
                    input.jobs,
                );
            } else if !unreachable {
                Self::quiesce(inner, &key, now, self.config.holddown_secs);
            }
        }
        inner.unreachable_runs.retain(|_, r| *r > 0);
        inner.degraded_runs.retain(|_, r| *r > 0);

        // 3. Cluster-scope freshness burn.
        let key = AlertKey { node: None, rule: RuleId::FreshnessBurn };
        let burn_severity = if input.burn_fast >= self.config.burn_critical {
            Some(Severity::Critical)
        } else if input.burn_fast >= self.config.burn_warn {
            Some(Severity::Warning)
        } else {
            None
        };
        if let Some(severity) = burn_severity {
            let description = format!(
                "freshness SLO burning {:.1}x budget (slow window {:.1}x)",
                input.burn_fast, input.burn_slow
            );
            self.raise(
                inner,
                &mut outcome,
                key,
                now,
                severity,
                input.burn_fast,
                self.config.burn_warn,
                description,
                None,
                input.jobs,
            );
        } else {
            Self::quiesce(inner, &key, now, self.config.holddown_secs);
        }

        // 4. Expire hold-downs whose quiet period is over.
        let expired: Vec<AlertKey> = inner
            .active
            .iter()
            .filter(|(_, a)| matches!(a.state, AlertState::PendingResolve { clear_at } if clear_at <= now))
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            let mut alert = inner.active.remove(&key).expect("expired key present");
            alert.state = AlertState::Resolved;
            alert.resolved_at = Some(now);
            self.transitions.inc();
            outcome.resolved += 1;
            inner.history.push_back(alert);
            while inner.history.len() > self.config.history_cap {
                inner.history.pop_front();
            }
        }

        // 5. Refresh the severity gauges.
        for (i, sev) in Severity::ALL.iter().enumerate() {
            let n = inner.active.values().filter(|a| a.severity == *sev).count();
            self.active_gauges[i].set(n as i64);
        }

        outcome.active = inner.active.len();
        outcome
    }

    /// Snapshot of active alerts, ascending id order.
    pub fn active(&self) -> Vec<Alert> {
        let inner = self.inner.lock();
        let mut v: Vec<Alert> = inner.active.values().cloned().collect();
        v.sort_by_key(|a| a.id);
        v
    }

    /// Snapshot of the resolved-history ring, oldest first.
    pub fn history(&self) -> Vec<Alert> {
        self.inner.lock().history.iter().cloned().collect()
    }

    /// Look up one alert (active or historical) by id.
    pub fn alert(&self, id: u64) -> Option<Alert> {
        let inner = self.inner.lock();
        inner
            .active
            .values()
            .find(|a| a.id == id)
            .or_else(|| inner.history.iter().find(|a| a.id == id))
            .cloned()
    }

    /// The JSON document served at `GET /v1/alerts`.
    pub fn alerts_json(&self) -> Value {
        let active = self.active();
        let history = self.history();
        let count = |sev: Severity| {
            u64::try_from(active.iter().filter(|a| a.severity == sev).count()).unwrap_or(0)
        };
        monster_json::jobj! {
            "counts" => monster_json::jobj! {
                "critical" => count(Severity::Critical),
                "warning" => count(Severity::Warning),
                "info" => count(Severity::Info),
            },
            "active" => Value::Array(active.iter().map(Alert::to_json).collect()),
            "resolved" => Value::Array(history.iter().map(Alert::to_json).collect()),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn raise(
        &self,
        inner: &mut Inner,
        outcome: &mut IntervalOutcome,
        key: AlertKey,
        now: EpochSecs,
        severity: Severity,
        value: f64,
        expected: f64,
        description: String,
        trace_id: Option<TraceId>,
        jobs: &BTreeMap<NodeId, Vec<JobId>>,
    ) {
        match inner.active.get_mut(&key) {
            Some(alert) => {
                if matches!(alert.state, AlertState::PendingResolve { .. }) {
                    // Re-fire inside the hold-down: suppressed flap, not a
                    // new raise/resolve pair.
                    alert.state = AlertState::Firing;
                    alert.flaps += 1;
                    self.flaps.inc();
                    outcome.flaps_suppressed += 1;
                }
                alert.severity = alert.severity.max(severity);
                alert.last_seen = now;
                alert.value = value;
                alert.description = description;
                if trace_id.is_some() {
                    alert.trace_id = trace_id;
                }
            }
            None => {
                inner.next_alert_id += 1;
                let attributed =
                    key.node.and_then(|n| jobs.get(&n)).map(|j| j.to_vec()).unwrap_or_default();
                inner.active.insert(
                    key,
                    Alert {
                        id: inner.next_alert_id,
                        key,
                        severity,
                        state: AlertState::Firing,
                        raised_at: now,
                        resolved_at: None,
                        last_seen: now,
                        flaps: 0,
                        value,
                        expected,
                        description,
                        trace_id,
                        jobs: attributed,
                    },
                );
                self.transitions.inc();
                outcome.raised += 1;
            }
        }
    }

    /// The condition behind `key` is quiet this interval: start (or keep)
    /// the hold-down clock.
    fn quiesce(inner: &mut Inner, key: &AlertKey, now: EpochSecs, holddown_secs: i64) {
        if let Some(alert) = inner.active.get_mut(key) {
            if alert.state == AlertState::Firing {
                alert.state = AlertState::PendingResolve { clear_at: now + holddown_secs };
            }
        }
    }
}

/// Severity grading for detector alerts: thermal z-score excursions are
/// critical (hardware at risk); everything else is a warning until an
/// operator or a stronger rule says otherwise.
fn anomaly_severity(signal: Signal, kind: AnomalyKind) -> Severity {
    match (signal, kind) {
        (Signal::CpuTemp | Signal::InletTemp, AnomalyKind::ZScore) => Severity::Critical,
        _ => Severity::Warning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(slot: u16) -> NodeId {
        NodeId::new(1, slot)
    }

    fn dead(n: NodeId) -> NodeInterval {
        NodeInterval {
            node: n,
            live_readings: 0,
            skipped: 4,
            breaker_open: true,
            stale_age_sweeps: 3,
        }
    }

    fn healthy(n: NodeId) -> NodeInterval {
        NodeInterval {
            node: n,
            live_readings: 4,
            skipped: 0,
            breaker_open: false,
            stale_age_sweeps: 0,
        }
    }

    fn step(engine: &AlertEngine, tick: i64, nodes: &[NodeInterval]) -> IntervalOutcome {
        let jobs = BTreeMap::new();
        engine.observe_interval(&IntervalInput {
            now: EpochSecs::new(tick * 60),
            nodes,
            jobs: &jobs,
            ..IntervalInput::default()
        })
    }

    #[test]
    fn unreachable_raises_once_and_resolves_after_holddown() {
        let engine = AlertEngine::new(EngineConfig::default());
        // Dead for 6 intervals: raises at the 3rd, exactly once.
        for t in 0..6 {
            step(&engine, t, &[dead(node(1)), healthy(node(2))]);
        }
        let active = engine.active();
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].severity, Severity::Critical);
        assert_eq!(active[0].key.rule, RuleId::NodeUnreachable);
        assert_eq!(active[0].flaps, 0);
        // Recovery: quiet intervals outlasting the hold-down resolve it.
        for t in 6..12 {
            step(&engine, t, &[healthy(node(1)), healthy(node(2))]);
        }
        assert!(engine.active().is_empty());
        let history = engine.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].state, AlertState::Resolved);
        assert_eq!(history[0].flaps, 0);
    }

    #[test]
    fn holddown_absorbs_flaps() {
        let engine = AlertEngine::new(EngineConfig::default());
        for t in 0..3 {
            step(&engine, t, &[dead(node(1))]);
        }
        // One quiet interval (shorter than the 180 s hold-down at 60 s
        // cadence would need 3+), then dead again: same alert, one flap.
        step(&engine, 3, &[healthy(node(1))]);
        for t in 4..8 {
            step(&engine, t, &[dead(node(1))]);
        }
        let active = engine.active();
        assert_eq!(active.len(), 1, "{active:?}");
        assert_eq!(active[0].flaps, 1);
        assert_eq!(engine.history().len(), 0, "flap must not resolve+re-raise");
    }

    #[test]
    fn degraded_is_warning_and_suppressed_on_dead_nodes() {
        let engine = AlertEngine::new(EngineConfig::default());
        let partly = NodeInterval {
            node: node(1),
            live_readings: 2,
            skipped: 2,
            breaker_open: false,
            stale_age_sweeps: 1,
        };
        for t in 0..4 {
            step(&engine, t, &[partly, dead(node(2))]);
        }
        let active = engine.active();
        // node 1: degraded warning; node 2: unreachable critical only.
        assert_eq!(active.len(), 2, "{active:?}");
        let by_rule = |r: RuleId| active.iter().find(|a| a.key.rule == r).unwrap();
        assert_eq!(by_rule(RuleId::CollectionDegraded).severity, Severity::Warning);
        assert_eq!(by_rule(RuleId::CollectionDegraded).key.node, Some(node(1)));
        assert_eq!(by_rule(RuleId::NodeUnreachable).key.node, Some(node(2)));
    }

    #[test]
    fn freshness_burn_grades_and_escalates() {
        let engine = AlertEngine::new(EngineConfig::default());
        let jobs = BTreeMap::new();
        let mut input = IntervalInput {
            now: EpochSecs::new(0),
            burn_fast: 10.0,
            jobs: &jobs,
            ..IntervalInput::default()
        };
        engine.observe_interval(&input);
        assert_eq!(engine.active()[0].severity, Severity::Warning);
        input.now = EpochSecs::new(60);
        input.burn_fast = 40.0;
        engine.observe_interval(&input);
        let active = engine.active();
        assert_eq!(active.len(), 1, "escalation must not duplicate");
        assert_eq!(active[0].severity, Severity::Critical);
        assert_eq!(active[0].key.node, None);
    }

    #[test]
    fn anomaly_events_raise_and_attribute_jobs() {
        let engine = AlertEngine::new(EngineConfig::default());
        let mut jobs = BTreeMap::new();
        jobs.insert(node(1), vec![JobId(7), JobId(9)]);
        let event = AnomalyEvent {
            node: node(1),
            signal: Signal::Power,
            kind: AnomalyKind::ZScore,
            raised: true,
            time: EpochSecs::new(0),
            value: 430.0,
            expected: 265.0,
            trace: None,
        };
        engine.observe_interval(&IntervalInput {
            now: EpochSecs::new(0),
            anomalies: std::slice::from_ref(&event),
            jobs: &jobs,
            ..IntervalInput::default()
        });
        let active = engine.active();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].key.rule, RuleId::Anomaly(Signal::Power, AnomalyKind::ZScore));
        assert_eq!(active[0].severity, Severity::Warning);
        assert_eq!(active[0].jobs, vec![JobId(7), JobId(9)]);
        assert_eq!(active[0].key.rule.name(), "anomaly/power/zscore");
    }

    #[test]
    fn ids_are_sequential_and_replay_identical() {
        let run = || {
            let engine = AlertEngine::new(EngineConfig::default());
            for t in 0..10 {
                let cells: Vec<NodeInterval> = (1..=4)
                    .map(|s| if t >= 2 && s <= 2 { dead(node(s)) } else { healthy(node(s)) })
                    .collect();
                step(&engine, t, &cells);
            }
            engine.alerts_json().to_string_compact()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "alert table not deterministic");
    }

    #[test]
    fn gauges_exist_before_first_alert() {
        let _engine = AlertEngine::new(EngineConfig::default());
        let text = monster_obs::global().text_exposition();
        for sev in Severity::ALL {
            let name = format!("monster_alert_active{{severity=\"{sev}\"}}");
            assert!(text.contains(&name), "missing {name} in exposition");
        }
        assert!(text.contains("# HELP monster_alert_active"));
        assert!(text.contains("monster_alert_transitions_total"));
        assert!(text.contains("monster_alert_flaps_suppressed_total"));
    }

    #[test]
    fn alert_json_shape() {
        let engine = AlertEngine::new(EngineConfig::default());
        for t in 0..3 {
            step(&engine, t, &[dead(node(1))]);
        }
        let alert = &engine.active()[0];
        let json = alert.to_json();
        for field in [
            "id",
            "rule",
            "category",
            "severity",
            "state",
            "node",
            "raised_at",
            "resolved_at",
            "last_seen",
            "flaps",
            "value",
            "expected",
            "description",
            "trace_id",
            "jobs",
        ] {
            assert!(json.get(field).is_some(), "missing field {field}");
        }
        assert_eq!(json.get("node").and_then(|v| v.as_str()), Some("10.101.1.1"));
        assert_eq!(json.get("state").and_then(|v| v.as_str()), Some("firing"));
    }
}
