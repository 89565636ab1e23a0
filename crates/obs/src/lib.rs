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
//! Plus one wide record per unit of work — a [`LapClock`] times its
//! stages, which sum to its total, and a bounded [`Ring`] keeps it. A
//! deployment's collection intervals land as [`IntervalRecord`]s in its
//! registry; the Metrics Builder keeps its requests' records. `GET
//! /debug/trace` renders both as chrome-trace events ([`trace_event`]).
//! Records carry [`TraceId`]/[`SpanId`] lineage (see [`trace`]),
//! propagated as W3C `traceparent` headers over HTTP; histogram
//! [`Exemplar`]s link a latency bucket to a trace; a [`FreshnessTracker`]
//! turns last-good-ingest watermarks into the SLO report of `GET
//! /debug/pipeline`.
//!
//! Every deployment owns one [`Registry`] and hands it to each component
//! it builds, so its `/metrics`, `/debug/trace` and `/debug/pipeline`
//! describe that deployment alone. [`global`] is only the process default
//! behind the registry-less constructors.
//!
//! # Quick use
//!
//! ```
//! use monster_obs::{sample, IntervalStage, LapClock, Registry, TraceContext};
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
//! // Time a unit of work stage by stage, then record it once.
//! let mut clock = LapClock::<{ IntervalStage::COUNT }>::start();
//! clock.lap(IntervalStage::Collect);
//! let ctx = TraceContext::root(&registry);
//! registry.intervals().push(|_, rec| {
//!     (rec.trace, rec.span) = (ctx.trace, ctx.span);
//!     (rec.stages_ns, rec.total_ns) = clock.finish();
//! });
//!
//! let text = registry.text_exposition();
//! assert_eq!(sample(&text, "doc_sweeps_total"), Some(1.0));
//! let last = registry.intervals().live(|r| r.trace == ctx.trace).next().unwrap();
//! assert_eq!(last.total_ns, last.stages_ns.iter().sum::<u64>());
//! ```

#![warn(missing_docs)]

mod metrics;
mod record;
mod registry;
mod ring;
mod slo;
pub mod trace;

pub use metrics::{Counter, Exemplar, Gauge, Histo, BUCKETS};
pub use record::{trace_event, IntervalRecord, IntervalStage, LapClock, NotableRequest};
pub use registry::{sample, Registry};
pub use ring::Ring;
pub use slo::{percentile, FreshnessTracker, SloConfig};
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
