//! `monster-obs` — self-monitoring for the monitor.
//!
//! MonSTer observes an HPC cluster; this crate observes MonSTer. It is a
//! dependency-light metrics and tracing layer threaded through the four
//! pipeline stages (Redfish client, collector, TSDB, scheduler) and
//! exported by the Metrics Builder service at `GET /metrics`
//! (Prometheus-style text) and `GET /debug/trace` (chrome-trace JSON).
//!
//! Three primitives, all lock-free on the update path:
//!
//! * [`Counter`] — monotone event counts (requests, retries, points
//!   written);
//! * [`Gauge`] — instantaneous values (pending queue depth, live series);
//! * [`Histo`] — latency distributions over fixed power-of-two buckets
//!   (per-request sweep latency, write-batch latency, query cost).
//!
//! Plus virtual-time-aware [`Span`]s: the registry carries a monotone
//! virtual clock (nanoseconds of `monster_sim` time), and spans stamp
//! their begin/end against it, so a trace of a simulated day lines up
//! with the simulated sweeps rather than host wall time. The spans form a
//! **distributed trace**: every span carries a [`TraceId`]/[`SpanId`] pair
//! with parent links (see [`trace`]), propagated in-process via a
//! thread-local [`TraceContext`] and over HTTP as W3C `traceparent`
//! headers. Histograms can park per-bucket [`Exemplar`]s linking a latency
//! bucket to the trace that produced it, and a [`FreshnessTracker`] turns
//! per-series last-good-ingest watermarks into staleness percentiles, SLO
//! attainment, and burn rates for `GET /debug/pipeline`.
//!
//! Every deployment owns one [`Registry`] — metrics, span ring, virtual
//! clock, freshness tracker and trace/span id mint — and hands it to each
//! component it builds, so its `/metrics`, `/debug/trace` and
//! `/debug/pipeline` describe that deployment alone. [`global`] is only
//! the process default behind the registry-less constructors.
//!
//! # Quick use
//!
//! ```
//! use monster_obs::{sample, Registry, Span};
//! use monster_sim::VDuration;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//!
//! // Hot path: resolve once, update lock-free.
//! let sweeps = registry.counter_help("doc_sweeps_total", "Sweeps run.");
//! let latency = registry.histo("doc_sweep_seconds");
//! sweeps.inc();
//! latency.observe(4.2);
//!
//! // Bracket simulated work with a span.
//! let span = Span::enter(&registry, "doc.sweep");
//! span.finish_after(VDuration::from_secs(52));
//!
//! let text = registry.text_exposition();
//! assert_eq!(sample(&text, "doc_sweeps_total"), Some(1.0));
//! assert_eq!(registry.recent_spans()[0].name, "doc.sweep");
//! ```

#![warn(missing_docs)]

mod metrics;
mod registry;
mod slo;
mod span;
pub mod trace;

pub use metrics::{Counter, Exemplar, Gauge, Histo, BUCKETS};
pub use registry::{sample, Registry, DEFAULT_SPAN_CAPACITY};
pub use slo::{percentile, FreshnessTracker, SloConfig};
pub use span::{Span, SpanRecord};
pub use trace::{SpanId, TraceContext, TraceId};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process default registry: what a component built by a
/// registry-less constructor (`Db::new`, `Collector::new`, …) reports to.
/// A deployment makes and passes down its own.
pub fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(Arc::default)
}

/// The default registry's freshness SLO tracker (watermarks, attainment,
/// burn rates).
pub fn freshness() -> &'static FreshnessTracker {
    global().freshness()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::thread;

    /// N threads hammering the same counter and histogram: totals must be
    /// exact — the registry loses no updates under contention.
    #[test]
    fn concurrent_registry_is_exact() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        let r = Registry::new();
        thread::scope(|s| {
            for t in 0..THREADS {
                let r = &r;
                s.spawn(move || {
                    let c = r.counter("hammer_total");
                    let h = r.histo("hammer_seconds");
                    let g = r.gauge("hammer_depth");
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.observe(1e-6 * (t * PER_THREAD + i) as f64);
                        g.add(1);
                        g.sub(1);
                    }
                });
            }
        });
        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(r.counter_value("hammer_total"), total);
        let h = r.histo("hammer_seconds");
        assert_eq!(h.count(), total);
        assert_eq!(h.counts().iter().sum::<u64>(), total);
        assert_eq!(r.gauge_value("hammer_depth"), 0);
    }

    proptest! {
        /// Bucket counts always sum to the number of *finite* observations,
        /// whatever mix of magnitudes, signs, NaNs and infinities arrives.
        #[test]
        fn histo_buckets_sum_to_finite_observations(
            xs in proptest::collection::vec(
                prop_oneof![
                    any::<f64>(),
                    Just(f64::NAN),
                    Just(f64::INFINITY),
                    Just(f64::NEG_INFINITY),
                    -1e-3..1e3f64,
                ],
                0..200,
            )
        ) {
            let h = Histo::new();
            let finite = xs.iter().filter(|x| x.is_finite()).count() as u64;
            for x in xs {
                h.observe(x);
            }
            prop_assert_eq!(h.count(), finite);
            prop_assert_eq!(h.counts().iter().sum::<u64>(), finite);
        }
    }
}
