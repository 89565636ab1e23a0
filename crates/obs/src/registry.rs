//! The metrics registry: named handles, virtual clock, span ring buffer,
//! and the two export formats (Prometheus-style text, chrome-trace JSON).

use crate::metrics::{Counter, Gauge, Histo, BUCKETS};
use crate::slo::FreshnessTracker;
use crate::span::SpanRecord;
use monster_json::{jobj, Value};
use monster_sim::VInstant;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of completed spans retained for `/debug/trace`; a
/// registry that needs more is built with [`Registry::with_span_capacity`].
pub const DEFAULT_SPAN_CAPACITY: usize = 512;

/// A named collection of metrics plus a trace ring buffer, a freshness
/// tracker, a virtual clock and the trace/span id mint: everything one
/// deployment reports about itself.
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
    spans: Mutex<VecDeque<Arc<SpanRecord>>>,
    span_capacity: usize,
    spans_dropped: Counter,
    freshness: FreshnessTracker,
    vclock: AtomicU64,
    /// The next trace/span id, before mixing (see [`crate::trace`]).
    next_id: AtomicU64,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl Registry {
    /// New empty registry with the virtual clock at [`VInstant::EPOCH`]
    /// and the default span ring capacity.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// New empty registry retaining up to `capacity` completed spans
    /// (minimum 1).
    pub fn with_span_capacity(capacity: usize) -> Registry {
        Registry {
            counters: RwLock::default(),
            gauges: RwLock::default(),
            histos: RwLock::default(),
            helps: RwLock::default(),
            spans: Mutex::default(),
            span_capacity: capacity.max(1),
            spans_dropped: Counter::new(),
            freshness: FreshnessTracker::new(),
            vclock: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    /// Span ring capacity.
    pub fn span_capacity(&self) -> usize {
        self.span_capacity
    }

    /// The next raw id of this registry's mint: ids are unique per
    /// registry and, minted in the same order, the same in every replay.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Total spans evicted from the ring before being exported
    /// (`monster_obs_spans_dropped_total`).
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped.get()
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

    /// Current virtual time.
    pub fn vtime(&self) -> VInstant {
        VInstant::from_nanos(self.vclock.load(Ordering::Relaxed))
    }

    /// Advance the virtual clock to `t`. The clock is monotone: setting an
    /// earlier time than the current one is a no-op, so concurrent stages
    /// can each report their own finish times safely.
    pub fn set_vtime(&self, t: VInstant) {
        self.vclock.fetch_max(t.as_nanos(), Ordering::Relaxed);
    }

    /// Append a completed span to the trace ring buffer. Oldest spans are
    /// evicted beyond the configured capacity and counted in
    /// `monster_obs_spans_dropped_total` so trace loss is visible.
    pub fn record_span(&self, record: SpanRecord) {
        let record = Arc::new(record);
        let mut spans = self.spans.lock();
        while spans.len() >= self.span_capacity {
            spans.pop_front();
            self.spans_dropped.inc();
        }
        spans.push_back(record);
    }

    /// Snapshot of the retained spans, oldest first. Clones `Arc`s, not
    /// span payloads, so a `/debug/trace` scrape holds the ring lock for
    /// O(capacity) pointer copies rather than O(total string bytes).
    pub fn recent_spans(&self) -> Vec<Arc<SpanRecord>> {
        let spans = self.spans.lock();
        spans.iter().cloned().collect()
    }

    /// Every registered metric name with its kind (`"counter"`,
    /// `"gauge"`, or `"histogram"`), including the synthetic ring-drop
    /// counter. A name appearing twice means it was registered as two
    /// different kinds — the metrics-name lint fails on that.
    pub fn metric_kinds(&self) -> Vec<(String, &'static str)> {
        let mut out = vec![("monster_obs_spans_dropped_total".to_string(), "counter")];
        out.extend(self.counters.read().keys().map(|n| (n.clone(), "counter")));
        out.extend(self.gauges.read().keys().map(|n| (n.clone(), "gauge")));
        out.extend(self.histos.read().keys().map(|n| (n.clone(), "histogram")));
        out
    }

    /// Current value of a counter, or 0 if it has never been touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        if name == "monster_obs_spans_dropped_total" {
            return self.spans_dropped();
        }
        self.counters.read().get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Current value of a gauge, or 0 if it has never been touched.
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
        help_line(&mut out, "monster_obs_spans_dropped_total");
        let _ = writeln!(
            out,
            "# TYPE monster_obs_spans_dropped_total counter\nmonster_obs_spans_dropped_total {}",
            self.spans_dropped()
        );
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

    /// Render the retained spans as a chrome-trace JSON document
    /// (`{"traceEvents": [...]}`, complete `"X"` events, microsecond
    /// virtual timestamps). Trace lineage and attributes ride in each
    /// event's `args`. Load it in `chrome://tracing` or Perfetto.
    pub fn trace_json(&self) -> Value {
        self.trace_json_filtered(None)
    }

    /// [`Registry::trace_json`], optionally restricted to the spans of a
    /// single trace — the `GET /debug/trace?trace_id=<id>` drill-down from
    /// a flight-recorder record to its spans.
    pub fn trace_json_filtered(&self, trace: Option<crate::TraceId>) -> Value {
        let events: Vec<Value> = self
            .recent_spans()
            .iter()
            .filter(|s| trace.is_none_or(|t| s.trace == t))
            .map(|s| {
                let mut args = monster_json::Object::new();
                args.insert("trace_id", Value::Str(s.trace.to_string()));
                args.insert("span_id", Value::Str(s.span.to_string()));
                if let Some(parent) = s.parent {
                    args.insert("parent_span_id", Value::Str(parent.to_string()));
                }
                for (k, v) in &s.attrs {
                    args.insert(k, Value::Str(v.clone()));
                }
                jobj! {
                    "name" => s.name.as_str(),
                    "ph" => "X",
                    "ts" => (s.begin.as_nanos() / 1_000) as i64,
                    "dur" => (s.duration().as_nanos() / 1_000) as i64,
                    "pid" => 1,
                    "tid" => 1,
                    "args" => Value::Object(args),
                }
            })
            .collect();
        jobj! { "traceEvents" => Value::Array(events) }
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
    use monster_sim::VDuration;

    fn rec(r: &Registry, name: &str, begin: VInstant, end: VInstant) -> SpanRecord {
        let ctx = TraceContext::root(r);
        SpanRecord {
            name: name.into(),
            begin,
            end,
            trace: ctx.trace,
            span: ctx.span,
            parent: None,
            attrs: Vec::new(),
        }
    }

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
        // The ring-drop counter is always exported.
        assert!(text.contains("# TYPE monster_obs_spans_dropped_total counter"));
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
    fn vclock_is_monotone() {
        let r = Registry::new();
        r.set_vtime(VInstant::from_nanos(100));
        r.set_vtime(VInstant::from_nanos(50));
        assert_eq!(r.vtime(), VInstant::from_nanos(100));
    }

    #[test]
    fn span_ring_evicts_oldest_and_counts_drops() {
        let r = Registry::with_span_capacity(32);
        assert_eq!(r.span_capacity(), 32);
        for i in 0..42 {
            r.record_span(rec(
                &r,
                &format!("s{i}"),
                VInstant::EPOCH,
                VInstant::EPOCH + VDuration::from_nanos(i as u64),
            ));
        }
        let spans = r.recent_spans();
        assert_eq!(spans.len(), 32);
        assert_eq!(spans[0].name, "s10");
        assert_eq!(r.spans_dropped(), 10);
        assert_eq!(r.counter_value("monster_obs_spans_dropped_total"), 10);
    }

    #[test]
    fn scrape_does_not_stall_writers() {
        // A /debug/trace snapshot while record_span runs from other
        // threads: everything lands, nothing deadlocks, and snapshots
        // are cheap Arc clones.
        let r = Registry::with_span_capacity(256);
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..500 {
                        r.record_span(rec(
                            r,
                            &format!("w{t}.{i}"),
                            VInstant::EPOCH,
                            VInstant::EPOCH,
                        ));
                    }
                });
            }
            let r = &r;
            s.spawn(move || {
                for _ in 0..200 {
                    let snap = r.recent_spans();
                    assert!(snap.len() <= 256);
                    let _ = r.trace_json();
                }
            });
        });
        assert_eq!(r.recent_spans().len(), 256);
        assert_eq!(r.spans_dropped(), 4 * 500 - 256);
    }

    #[test]
    fn trace_json_shape() {
        let r = Registry::new();
        let mut record = rec(&r, "sweep", VInstant::from_nanos(2_000), VInstant::from_nanos(5_000));
        record.attrs.push(("SkipReason".into(), "BreakerOpen".into()));
        let expected_trace = record.trace.to_string();
        r.record_span(record);
        let v = r.trace_json();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("sweep"));
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("ts").unwrap().as_i64(), Some(2));
        assert_eq!(events[0].get("dur").unwrap().as_i64(), Some(3));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("trace_id").unwrap().as_str(), Some(expected_trace.as_str()));
        assert_eq!(args.get("SkipReason").unwrap().as_str(), Some("BreakerOpen"));
        assert!(args.get("parent_span_id").is_none());
    }

    #[test]
    fn trace_json_filters_to_one_trace() {
        let r = Registry::new();
        let a = rec(&r, "api", VInstant::from_nanos(1_000), VInstant::from_nanos(2_000));
        let wanted = a.trace;
        let mut a2 = rec(&r, "execute", VInstant::from_nanos(2_000), VInstant::from_nanos(3_000));
        a2.trace = wanted;
        r.record_span(a);
        r.record_span(a2);
        r.record_span(rec(&r, "other", VInstant::from_nanos(1_000), VInstant::from_nanos(9_000)));

        let all = r.trace_json();
        assert_eq!(all.get("traceEvents").unwrap().as_array().unwrap().len(), 3);

        let one = r.trace_json_filtered(Some(wanted));
        let events = one.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2, "only the requested trace's spans survive");
        let hex = wanted.to_string();
        for ev in events {
            assert_eq!(
                ev.get("args").unwrap().get("trace_id").unwrap().as_str(),
                Some(hex.as_str())
            );
        }

        let none = r.trace_json_filtered(Some(crate::TraceId(0xdead)));
        assert!(none.get("traceEvents").unwrap().as_array().unwrap().is_empty());
    }
}
