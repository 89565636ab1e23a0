//! The metrics registry: named handles, the interval ring and the
//! Prometheus-style text export.

use crate::metrics::{Counter, Gauge, Histo, BUCKETS};
use crate::record::IntervalRecord;
use crate::ring::Ring;
use crate::slo::FreshnessTracker;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Interval records a registry keeps: an hour of the paper's 60 s cadence.
const INTERVAL_CAPACITY: usize = 64;

/// A named collection of metrics plus the interval ring, a freshness
/// tracker and the trace/span id mint: everything one deployment reports
/// about itself.
///
/// Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histo`](Registry::histo) are `Arc`s:
/// hot call sites should resolve a handle once (e.g. when their component
/// is built) and then update it lock-free. Metric names are stored in
/// `BTreeMap`s so the text exposition is deterministic.
#[derive(Debug)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histos: RwLock<BTreeMap<String, Arc<Histo>>>,
    helps: RwLock<BTreeMap<String, String>>,
    intervals: Ring<IntervalRecord>,
    freshness: FreshnessTracker,
    /// The next trace/span id, before mixing (see [`crate::trace`]).
    next_id: AtomicU64,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            counters: RwLock::default(),
            gauges: RwLock::default(),
            histos: RwLock::default(),
            helps: RwLock::default(),
            intervals: Ring::new(INTERVAL_CAPACITY, IntervalRecord::default),
            freshness: FreshnessTracker::new(),
            next_id: AtomicU64::new(1),
        }
    }
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The next raw id of this registry's mint: ids are unique per
    /// registry and, minted in the same order, the same in every replay.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name.to_string()).or_default())
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(name.to_string()).or_default())
    }

    /// Get or create the histogram named `name`.
    pub fn histo(&self, name: &str) -> Arc<Histo> {
        if let Some(h) = self.histos.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(self.histos.write().entry(name.to_string()).or_default())
    }

    /// [`Registry::counter`], attaching a `# HELP` string for the text
    /// exposition ([`Registry::describe`]).
    pub fn counter_help(&self, name: &str, help: &str) -> Arc<Counter> {
        self.describe(name, help);
        self.counter(name)
    }

    /// [`Registry::gauge`], attaching a `# HELP` string.
    pub fn gauge_help(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.describe(name, help);
        self.gauge(name)
    }

    /// [`Registry::histo`], attaching a `# HELP` string.
    pub fn histo_help(&self, name: &str, help: &str) -> Arc<Histo> {
        self.describe(name, help);
        self.histo(name)
    }

    /// Attach a `# HELP` string to the metric named `name` (first writer
    /// wins; re-registration with a different string is ignored). A name
    /// already described costs a read lock and allocates nothing.
    pub fn describe(&self, name: &str, help: &str) {
        if self.helps.read().contains_key(name) {
            return;
        }
        self.helps.write().entry(name.to_string()).or_insert_with(|| help.to_string());
    }

    /// The freshness SLO tracker backing `/debug/pipeline` and the
    /// `X-Freshness-Lag-Seconds` response header.
    pub fn freshness(&self) -> &FreshnessTracker {
        &self.freshness
    }

    /// The deployment's collection intervals, one [`IntervalRecord`]
    /// each (`GET /debug/trace` renders them).
    pub fn intervals(&self) -> &Ring<IntervalRecord> {
        &self.intervals
    }

    /// Every registered metric name with its kind (`"counter"`,
    /// `"gauge"`, or `"histogram"`). A name appearing twice means it was
    /// registered as two different kinds — the metrics-name lint fails on
    /// that.
    pub fn metric_kinds(&self) -> Vec<(String, &'static str)> {
        let mut out: Vec<_> = self.counters.read().keys().map(|n| (n.clone(), "counter")).collect();
        out.extend(self.gauges.read().keys().map(|n| (n.clone(), "gauge")));
        out.extend(self.histos.read().keys().map(|n| (n.clone(), "histogram")));
        out
    }

    /// Current value of a counter, or 0 if it has never been touched.
    // kept: the exact counter reads the registry and exec-metrics tests assert
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.read().get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Current value of a gauge, or 0 if it has never been touched.
    // kept: the exact gauge reads the registry tests assert
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.gauges.read().get(name).map(|g| g.get()).unwrap_or(0)
    }

    /// Render every metric in Prometheus/OpenMetrics text exposition.
    ///
    /// Counters and gauges emit `# HELP` (when described) and `# TYPE`
    /// lines followed by `name value`; histograms emit cumulative
    /// `name_bucket{le="..."}` lines plus `name_sum` / `name_count`.
    /// Buckets holding a traced observation append an OpenMetrics
    /// exemplar: `... # {trace_id="...",span_id="..."} value`. Output
    /// order is lexicographic within each metric kind, so successive
    /// scrapes diff cleanly.
    pub fn text_exposition(&self) -> String {
        let helps = self.helps.read();
        let help_line = |out: &mut String, name: &str| {
            if let Some(help) = helps.get(name) {
                let _ = writeln!(out, "# HELP {name} {help}");
            }
        };
        let mut out = String::new();
        for (name, c) in self.counters.read().iter() {
            help_line(&mut out, name);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", c.get());
        }
        for (name, g) in self.gauges.read().iter() {
            help_line(&mut out, name);
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", g.get());
        }
        for (name, h) in self.histos.read().iter() {
            help_line(&mut out, name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let counts = h.counts();
            let exemplars = h.exemplars();
            let mut cumulative = 0u64;
            for (i, &c) in counts.iter().take(BUCKETS).enumerate() {
                cumulative += c;
                let _ =
                    write!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", Histo::upper_bound(i));
                if let Some(ex) = &exemplars[i] {
                    let _ = write!(
                        out,
                        " # {{trace_id=\"{}\",span_id=\"{}\"}} {}",
                        ex.trace,
                        ex.span,
                        ex.value_secs()
                    );
                }
                out.push('\n');
            }
            cumulative += counts[BUCKETS];
            let _ = write!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            if let Some(ex) = &exemplars[BUCKETS] {
                let _ = write!(
                    out,
                    " # {{trace_id=\"{}\",span_id=\"{}\"}} {}",
                    ex.trace,
                    ex.span,
                    ex.value_secs()
                );
            }
            out.push('\n');
            let _ = writeln!(out, "{name}_sum {}", h.sum_secs());
            let _ = writeln!(out, "{name}_count {cumulative}");
        }
        out
    }
}

/// Parse one sample out of a text exposition: returns the value on the
/// line whose metric name (including any `{labels}` part) is exactly
/// `name`. OpenMetrics exemplar suffixes (`... # {...} value`) are
/// ignored. Intended for tests asserting on scraped `/metrics` bodies.
pub fn sample(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let line = line.split(" # ").next()?;
        let (metric, value) = line.rsplit_once(' ')?;
        if metric == name {
            value.parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").inc();
        assert_eq!(r.counter_value("a"), 3);
        r.gauge("g").set(-4);
        assert_eq!(r.gauge_value("g"), -4);
        assert_eq!(r.counter_value("never_touched"), 0);
    }

    #[test]
    fn exposition_format_and_order() {
        let r = Registry::new();
        r.counter("m_b_total").inc();
        r.counter("m_a_total").add(7);
        r.gauge("m_depth").set(3);
        r.histo("m_seconds").observe(1.5e-6);
        r.describe("m_a_total", "events of kind a");
        r.describe("m_a_total", "ignored re-registration");
        let text = r.text_exposition();
        // Lexicographic counter order.
        let a = text.find("m_a_total 7").unwrap();
        let b = text.find("m_b_total 1").unwrap();
        assert!(a < b);
        assert!(text.contains("# HELP m_a_total events of kind a"));
        assert!(!text.contains("ignored re-registration"));
        assert!(text.contains("# TYPE m_a_total counter"));
        assert!(text.contains("# TYPE m_depth gauge\nm_depth 3"));
        assert!(text.contains("# TYPE m_seconds histogram"));
        // Cumulative buckets: the 2 µs bucket already includes the 1.5 µs
        // observation, and +Inf equals the total count.
        assert!(text.contains("m_seconds_bucket{le=\"0.000002\"} 1"));
        assert!(text.contains("m_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("m_seconds_count 1"));
        // The helper reads plain samples back out.
        assert_eq!(sample(&text, "m_a_total"), Some(7.0));
        assert_eq!(sample(&text, "m_depth"), Some(3.0));
        assert_eq!(sample(&text, "m_seconds_count"), Some(1.0));
        assert_eq!(sample(&text, "m_seconds_bucket{le=\"+Inf\"}"), Some(1.0));
        assert_eq!(sample(&text, "nope"), None);
    }

    #[test]
    fn exposition_exemplars_parse_back_out() {
        let r = Registry::new();
        let ctx = TraceContext::root(&r);
        r.histo("ex_seconds").observe_traced(0.5, Some(ctx));
        let text = r.text_exposition();
        let line = text
            .lines()
            .find(|l| l.starts_with("ex_seconds_bucket") && l.contains(" # "))
            .expect("exemplar line present");
        assert!(line.contains(&format!("trace_id=\"{}\"", ctx.trace)), "line: {line}");
        assert!(line.contains(&format!("span_id=\"{}\"", ctx.span)));
        assert!(line.ends_with(" 0.5"));
        // sample() ignores the exemplar suffix.
        let bucket = line.split(' ').next().unwrap();
        assert_eq!(sample(&text, bucket), Some(1.0));
    }

    #[test]
    fn interval_records_land_in_their_own_registry() {
        let (a, b) = (Registry::new(), Registry::new());
        let ctx = TraceContext::root(&a);
        a.intervals().push(|_, rec| (rec.trace, rec.span) = (ctx.trace, ctx.span));
        let mine: Vec<_> = a.intervals().live(|r| r.trace == ctx.trace).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].span, ctx.span);
        assert_eq!(b.intervals().recorded(), 0);
        assert_eq!(b.intervals().live(|_| true).count(), 0);
    }

    #[test]
    fn a_trace_scrape_does_not_stall_interval_writers() {
        // `/debug/trace` renders the interval ring while intervals land
        // from other threads: every record lands, nothing deadlocks, and a
        // snapshot never holds more than the ring.
        let r = Registry::new();
        let cap = r.intervals().capacity();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..500 {
                        r.intervals().push(|_, rec| rec.points = t * 1_000 + i);
                    }
                });
            }
            let r = &r;
            s.spawn(move || {
                for _ in 0..200 {
                    let mut events = Vec::new();
                    let snap: Vec<_> = r.intervals().live(|_| true).collect();
                    snap.iter().for_each(|rec| rec.trace_events(&mut events));
                    assert!(snap.len() <= cap);
                }
            });
        });
        assert_eq!(r.intervals().recorded(), 4 * 500);
        assert_eq!(r.intervals().live(|_| true).count(), cap);
    }
}
