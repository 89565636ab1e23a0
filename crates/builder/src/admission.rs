//! Cost-based admission control for the query path.
//!
//! The TSDB's plan-time cost estimator ([`monster_tsdb::Prepared::estimate`])
//! prices a request's queries in modelled seconds *before* they execute,
//! from the same index pass ([`monster_tsdb::Db::prepare`]) the scan then
//! runs on. Admission classifies on that price:
//!
//! * **cheap** (at or below [`AdmissionConfig::cheap_secs`]) — always
//!   admitted; dashboard sliding windows live here and must never queue
//!   behind accounting scans;
//! * **over budget** (above [`AdmissionConfig::reject_secs`]) — rejected
//!   outright with `429` + `Retry-After`; one request this size would blow
//!   the latency budget for everyone sharing the shards;
//! * **expensive but affordable** — debited against a per-tenant token
//!   bucket (tokens are modelled seconds, refilled at
//!   [`AdmissionConfig::tenant_rate`] per wall second up to
//!   [`AdmissionConfig::tenant_burst`]). A tenant hammering expensive
//!   queries exhausts *its own* bucket; everyone else's budget is
//!   untouched — that is the fair-share property.
//!
//! `Retry-After` is computed from the deficit and the refill rate, so a
//! compliant client that waits exactly that long will be admitted.
//!
//! The wall clock is injected (`with_clock`) so tests drive time
//! deterministically; the default reads a monotonic [`std::time::Instant`].

use crate::qlog::{AdmissionDecision, AdmissionSnapshot};
use monster_obs::Registry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Admission-control tuning. Plain data so it can ride in a service
/// config; thresholds are in *modelled* seconds (the same currency as
/// [`monster_tsdb::Db::simulate_elapsed`]).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Master switch; `false` admits everything.
    pub enabled: bool,
    /// Estimated cost at or below which a query is always admitted.
    pub cheap_secs: f64,
    /// Estimated cost above which a query is rejected outright.
    pub reject_secs: f64,
    /// Modelled seconds of expensive work a tenant earns per wall second.
    pub tenant_rate: f64,
    /// Token-bucket capacity per tenant (modelled seconds).
    pub tenant_burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            enabled: true,
            cheap_secs: 1.0,
            reject_secs: 30.0,
            tenant_rate: 2.0,
            tenant_burst: 20.0,
        }
    }
}

struct Bucket {
    tokens: f64,
    last_refill: f64,
}

/// Tenants that may hold a bucket at once. One more first drops every bucket
/// refilled to its burst (the fresh bucket its tenant would get back is the
/// same, so no decision changes), else the one holding the most tokens.
const MAX_TENANTS: usize = 4_096;

type Clock = Box<dyn Fn() -> f64 + Send + Sync>;

/// Per-router admission state: the config plus one token bucket per
/// tenant, created on first sight with a full burst.
pub struct AdmissionController {
    config: AdmissionConfig,
    clock: Clock,
    buckets: Mutex<HashMap<String, Bucket>>,
    rejected: Arc<monster_obs::Counter>,
    tenants: Arc<monster_obs::Gauge>,
}

impl AdmissionController {
    /// A controller on the real (monotonic) clock, reporting to `obs`.
    pub fn new(config: AdmissionConfig, obs: &Registry) -> AdmissionController {
        let epoch = Instant::now();
        let clock = Box::new(move || epoch.elapsed().as_secs_f64());
        AdmissionController::with_clock(config, clock, obs)
    }

    /// A controller with an injected wall clock (seconds; tests advance it
    /// manually for deterministic refill arithmetic).
    pub fn with_clock(
        config: AdmissionConfig,
        clock: Clock,
        obs: &Registry,
    ) -> AdmissionController {
        AdmissionController {
            config,
            clock,
            buckets: Mutex::new(HashMap::new()),
            rejected: obs.counter_help(
                "monster_builder_cache_admission_rejected_total",
                "Queries turned away by cost-based admission control (429).",
            ),
            tenants: obs.gauge("monster_builder_admission_tenants"),
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decide whether `tenant` may run a query estimated at
    /// `modelled_secs`: the decision and the token-bucket arithmetic behind
    /// it, which the flight recorder's `?explain=true` view shows. Token
    /// fields are `NaN` when no bucket was consulted.
    pub fn admit(&self, tenant: &str, modelled_secs: f64) -> AdmissionSnapshot {
        let cfg = &self.config;
        let mut snap = AdmissionSnapshot {
            decision: AdmissionDecision::Disabled,
            estimated_secs: modelled_secs,
            tokens_before: f64::NAN,
            tokens_after: f64::NAN,
            rate: cfg.tenant_rate,
            burst: cfg.tenant_burst,
            retry_after_secs: 0,
        };
        if !cfg.enabled || modelled_secs <= cfg.cheap_secs {
            if cfg.enabled {
                snap.decision = AdmissionDecision::Cheap;
            }
            return snap;
        }
        if modelled_secs > cfg.reject_secs {
            self.rejected.inc();
            // No bucket will ever cover this; tell the client when enough
            // budget *would* have accrued, bounded to something humane.
            snap.retry_after_secs =
                ((modelled_secs / cfg.tenant_rate.max(1e-9)).ceil() as u64).clamp(1, 300);
            snap.decision = AdmissionDecision::RejectedOverBudget;
            return snap;
        }
        let now = (self.clock)();
        let mut buckets = self.buckets.lock();
        if !buckets.contains_key(tenant) {
            if buckets.len() >= MAX_TENANTS {
                buckets.retain(|_, b| level(b, cfg, now) < cfg.tenant_burst);
            }
            if buckets.len() >= MAX_TENANTS {
                let most = |a: &(_, &Bucket), b: &(_, &Bucket)| {
                    level(a.1, cfg, now).total_cmp(&level(b.1, cfg, now))
                };
                let richest = buckets.iter().max_by(most).map(|(tenant, _)| tenant.clone());
                buckets.remove(&richest.expect("a full map"));
            }
            buckets
                .insert(tenant.to_string(), Bucket { tokens: cfg.tenant_burst, last_refill: now });
            self.tenants.set(buckets.len() as i64);
        }
        let bucket = buckets.get_mut(tenant).expect("inserted above");
        bucket.tokens = level(bucket, cfg, now);
        bucket.last_refill = now;
        snap.tokens_before = bucket.tokens;
        if bucket.tokens >= modelled_secs {
            bucket.tokens -= modelled_secs;
            snap.decision = AdmissionDecision::Charged;
            snap.tokens_after = bucket.tokens;
            return snap;
        }
        let deficit = modelled_secs - bucket.tokens;
        snap.tokens_after = bucket.tokens;
        drop(buckets);
        self.rejected.inc();
        snap.retry_after_secs = ((deficit / cfg.tenant_rate.max(1e-9)).ceil() as u64).max(1);
        snap.decision = AdmissionDecision::RejectedTenantBudget;
        snap
    }
}

/// The tokens `bucket` holds at `now`, refill included.
fn level(bucket: &Bucket, cfg: &AdmissionConfig, now: f64) -> f64 {
    (bucket.tokens + (now - bucket.last_refill).max(0.0) * cfg.tenant_rate).min(cfg.tenant_burst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A controller whose clock is an atomic number of milliseconds.
    fn manual() -> (Arc<AtomicU64>, AdmissionController) {
        let ms = Arc::new(AtomicU64::new(0));
        let handle = Arc::clone(&ms);
        let cfg = AdmissionConfig {
            enabled: true,
            cheap_secs: 0.1,
            reject_secs: 10.0,
            tenant_rate: 1.0,
            tenant_burst: 4.0,
        };
        let ctl = AdmissionController::with_clock(
            cfg,
            Box::new(move || handle.load(Ordering::SeqCst) as f64 / 1000.0),
            &Registry::new(),
        );
        (ms, ctl)
    }

    #[test]
    fn cheap_queries_always_admitted() {
        let (_, ctl) = manual();
        for _ in 0..1000 {
            assert_eq!(ctl.admit("t", 0.05).decision, AdmissionDecision::Cheap);
        }
    }

    #[test]
    fn over_budget_rejected_outright() {
        let (_, ctl) = manual();
        let snap = ctl.admit("t", 50.0);
        assert_eq!(snap.decision, AdmissionDecision::RejectedOverBudget);
        assert!(snap.retry_after_secs >= 1);
    }

    #[test]
    fn bucket_drains_then_refills_per_retry_after() {
        let (ms, ctl) = manual();
        // Burst 4.0, each query 2.0: two admitted, third rejected.
        assert_eq!(ctl.admit("t", 2.0).decision, AdmissionDecision::Charged);
        assert_eq!(ctl.admit("t", 2.0).decision, AdmissionDecision::Charged);
        let snap = ctl.admit("t", 2.0);
        assert_eq!(snap.decision, AdmissionDecision::RejectedTenantBudget);
        // Waiting exactly Retry-After must succeed (rate 1.0/s).
        ms.fetch_add(snap.retry_after_secs * 1000, Ordering::SeqCst);
        assert_eq!(ctl.admit("t", 2.0).decision, AdmissionDecision::Charged);
    }

    #[test]
    fn tenants_have_independent_buckets() {
        let (_, ctl) = manual();
        // "greedy" drains its bucket dry…
        assert_eq!(ctl.admit("greedy", 4.0).decision, AdmissionDecision::Charged);
        assert_eq!(ctl.admit("greedy", 4.0).decision, AdmissionDecision::RejectedTenantBudget);
        // …while "polite" is untouched.
        assert_eq!(ctl.admit("polite", 4.0).decision, AdmissionDecision::Charged);
    }

    #[test]
    fn snapshot_exposes_bucket_math() {
        let (_, ctl) = manual();
        // Cheap: no bucket consulted.
        let snap = ctl.admit("t", 0.05);
        assert_eq!(snap.decision, AdmissionDecision::Cheap);
        assert!(snap.tokens_before.is_nan());
        assert_eq!(snap.retry_after_secs, 0);

        // Charged: burst 4.0 debited by 2.0.
        let snap = ctl.admit("t", 2.0);
        assert_eq!(snap.decision, AdmissionDecision::Charged);
        assert_eq!(snap.tokens_before, 4.0);
        assert_eq!(snap.tokens_after, 2.0);
        assert_eq!(snap.rate, 1.0);
        assert_eq!(snap.burst, 4.0);
        assert_eq!(snap.retry_after_secs, 0);

        // Tenant-budget rejection: tokens untouched, retry covers the
        // deficit (2.0 tokens) at the configured rate (1.0/s).
        ctl.admit("t", 2.0);
        let snap = ctl.admit("t", 2.0);
        assert_eq!(snap.decision, AdmissionDecision::RejectedTenantBudget);
        assert_eq!(snap.tokens_before, snap.tokens_after);
        assert_eq!(snap.retry_after_secs, 2);

        // Over-budget: rejected before any bucket exists.
        let snap = ctl.admit("fresh", 50.0);
        assert_eq!(snap.decision, AdmissionDecision::RejectedOverBudget);
        assert!(snap.tokens_before.is_nan());
        assert!(snap.retry_after_secs >= 1);
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let config = AdmissionConfig { enabled: false, ..AdmissionConfig::default() };
        let ctl = AdmissionController::new(config, &Registry::new());
        assert_eq!(ctl.admit("t", 1e9).decision, AdmissionDecision::Disabled);
    }

    /// A client that cycles `X-Tenant` may not grow the map without bound:
    /// 100 000 tenants charged once each, a millisecond apart, leave at
    /// most `MAX_TENANTS` buckets.
    #[test]
    fn distinct_tenants_leave_a_bounded_map() {
        let (ms, ctl) = manual();
        for i in 0..100_000 {
            ms.fetch_add(1, Ordering::SeqCst);
            assert_eq!(ctl.admit(&format!("t{i}"), 2.0).decision, AdmissionDecision::Charged);
        }
        assert!(ctl.buckets.lock().len() <= MAX_TENANTS, "{}", ctl.buckets.lock().len());
    }

    /// With no bucket refilled, the one holding the most tokens goes.
    #[test]
    fn a_full_map_evicts_its_richest_bucket() {
        let (_, ctl) = manual();
        ctl.admit("rich", 0.5);
        for i in 1..MAX_TENANTS {
            ctl.admit(&format!("t{i}"), 2.0);
        }
        ctl.admit("newcomer", 2.0);
        let buckets = ctl.buckets.lock();
        assert_eq!(buckets.len(), MAX_TENANTS);
        assert!(!buckets.contains_key("rich") && buckets.contains_key("newcomer"));
    }
}
