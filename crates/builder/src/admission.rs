//! Cost-based admission control for the query path.
//!
//! The TSDB's plan-time cost estimator ([`monster_tsdb::Db::estimate_cost`])
//! prices a query in modelled seconds *before* it executes. Admission
//! classifies on that price:
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

/// The verdict for one query.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Run it. `expensive` records whether a bucket was debited.
    Admitted {
        /// `true` when the query cost tokens (above the cheap threshold).
        expensive: bool,
    },
    /// Turn it away with `429`.
    Rejected {
        /// Seconds after which a retry can succeed (the `Retry-After`
        /// header value).
        retry_after_secs: u64,
        /// Which rule fired: `"over_budget"` or `"tenant_budget"`.
        reason: &'static str,
    },
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
    /// A controller on the real (monotonic) clock.
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        let epoch = Instant::now();
        AdmissionController::with_clock(config, Box::new(move || epoch.elapsed().as_secs_f64()))
    }

    /// A controller with an injected wall clock (seconds; tests advance it
    /// manually for deterministic refill arithmetic).
    pub fn with_clock(config: AdmissionConfig, clock: Clock) -> AdmissionController {
        AdmissionController {
            config,
            clock,
            buckets: Mutex::new(HashMap::new()),
            rejected: monster_obs::counter_help(
                "monster_builder_cache_admission_rejected_total",
                "Queries turned away by cost-based admission control (429).",
            ),
            tenants: monster_obs::gauge("monster_builder_admission_tenants"),
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decide whether `tenant` may run a query estimated at
    /// `modelled_secs`.
    pub fn admit(&self, tenant: &str, modelled_secs: f64) -> Admission {
        self.admit_observed(tenant, modelled_secs).0
    }

    /// [`AdmissionController::admit`] plus the token-bucket arithmetic
    /// behind the decision, for the flight recorder's `?explain=true`
    /// view. Token fields are `NaN` when no bucket was consulted.
    pub fn admit_observed(
        &self,
        tenant: &str,
        modelled_secs: f64,
    ) -> (Admission, AdmissionSnapshot) {
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
            return (Admission::Admitted { expensive: false }, snap);
        }
        if modelled_secs > cfg.reject_secs {
            self.rejected.inc();
            // No bucket will ever cover this; tell the client when enough
            // budget *would* have accrued, bounded to something humane.
            let retry = ((modelled_secs / cfg.tenant_rate.max(1e-9)).ceil() as u64).clamp(1, 300);
            snap.decision = AdmissionDecision::RejectedOverBudget;
            snap.retry_after_secs = retry;
            return (Admission::Rejected { retry_after_secs: retry, reason: "over_budget" }, snap);
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
            return (Admission::Admitted { expensive: true }, snap);
        }
        let deficit = modelled_secs - bucket.tokens;
        snap.tokens_after = bucket.tokens;
        drop(buckets);
        self.rejected.inc();
        let retry = ((deficit / cfg.tenant_rate.max(1e-9)).ceil() as u64).max(1);
        snap.decision = AdmissionDecision::RejectedTenantBudget;
        snap.retry_after_secs = retry;
        (Admission::Rejected { retry_after_secs: retry, reason: "tenant_budget" }, snap)
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
        );
        (ms, ctl)
    }

    #[test]
    fn cheap_queries_always_admitted() {
        let (_, ctl) = manual();
        for _ in 0..1000 {
            assert_eq!(ctl.admit("t", 0.05), Admission::Admitted { expensive: false });
        }
    }

    #[test]
    fn over_budget_rejected_outright() {
        let (_, ctl) = manual();
        match ctl.admit("t", 50.0) {
            Admission::Rejected { reason: "over_budget", retry_after_secs } => {
                assert!(retry_after_secs >= 1);
            }
            other => panic!("expected over_budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn bucket_drains_then_refills_per_retry_after() {
        let (ms, ctl) = manual();
        // Burst 4.0, each query 2.0: two admitted, third rejected.
        assert_eq!(ctl.admit("t", 2.0), Admission::Admitted { expensive: true });
        assert_eq!(ctl.admit("t", 2.0), Admission::Admitted { expensive: true });
        let retry = match ctl.admit("t", 2.0) {
            Admission::Rejected { retry_after_secs, reason: "tenant_budget" } => retry_after_secs,
            other => panic!("expected tenant_budget rejection, got {other:?}"),
        };
        // Waiting exactly Retry-After must succeed (rate 1.0/s).
        ms.fetch_add(retry * 1000, Ordering::SeqCst);
        assert_eq!(ctl.admit("t", 2.0), Admission::Admitted { expensive: true });
    }

    #[test]
    fn tenants_have_independent_buckets() {
        let (_, ctl) = manual();
        // "greedy" drains its bucket dry…
        assert_eq!(ctl.admit("greedy", 4.0), Admission::Admitted { expensive: true });
        assert!(matches!(ctl.admit("greedy", 4.0), Admission::Rejected { .. }));
        // …while "polite" is untouched.
        assert_eq!(ctl.admit("polite", 4.0), Admission::Admitted { expensive: true });
    }

    #[test]
    fn observed_snapshot_exposes_bucket_math() {
        let (_, ctl) = manual();
        // Cheap: no bucket consulted.
        let (_, snap) = ctl.admit_observed("t", 0.05);
        assert_eq!(snap.decision, AdmissionDecision::Cheap);
        assert!(snap.tokens_before.is_nan());

        // Charged: burst 4.0 debited by 2.0.
        let (adm, snap) = ctl.admit_observed("t", 2.0);
        assert_eq!(adm, Admission::Admitted { expensive: true });
        assert_eq!(snap.decision, AdmissionDecision::Charged);
        assert_eq!(snap.tokens_before, 4.0);
        assert_eq!(snap.tokens_after, 2.0);
        assert_eq!(snap.rate, 1.0);
        assert_eq!(snap.burst, 4.0);

        // Tenant-budget rejection: tokens untouched, retry covers the
        // deficit at the configured rate.
        ctl.admit("t", 2.0);
        let (adm, snap) = ctl.admit_observed("t", 2.0);
        let retry = match adm {
            Admission::Rejected { retry_after_secs, .. } => retry_after_secs,
            other => panic!("expected rejection, got {other:?}"),
        };
        assert_eq!(snap.decision, AdmissionDecision::RejectedTenantBudget);
        assert_eq!(snap.tokens_before, snap.tokens_after);
        assert_eq!(snap.retry_after_secs, retry);

        // Over-budget: rejected before any bucket exists.
        let (_, snap) = ctl.admit_observed("fresh", 50.0);
        assert_eq!(snap.decision, AdmissionDecision::RejectedOverBudget);
        assert!(snap.tokens_before.is_nan());
        assert!(snap.retry_after_secs >= 1);
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let ctl = AdmissionController::new(AdmissionConfig {
            enabled: false,
            ..AdmissionConfig::default()
        });
        assert_eq!(ctl.admit("t", 1e9), Admission::Admitted { expensive: false });
    }

    /// A client that cycles `X-Tenant` may not grow the map without bound:
    /// 100 000 tenants charged once each, a millisecond apart, leave at
    /// most `MAX_TENANTS` buckets.
    #[test]
    fn distinct_tenants_leave_a_bounded_map() {
        let (ms, ctl) = manual();
        for i in 0..100_000 {
            ms.fetch_add(1, Ordering::SeqCst);
            assert_eq!(ctl.admit(&format!("t{i}"), 2.0), Admission::Admitted { expensive: true });
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
