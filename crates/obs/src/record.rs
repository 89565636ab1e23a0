//! One wide record per unit of work: the lap clock that times it, the
//! collection interval's record, and the chrome-trace event each unit of
//! a record's work renders as on `GET /debug/trace`. A request's record
//! lives in the Metrics Builder's ring (`monster_builder::qlog`), an
//! interval's in its deployment's [`Registry::intervals`](crate::Registry::intervals).

use crate::trace::{SpanId, TraceId};
use monster_json::{jobj, Object, Value};
use monster_util::NodeId;
use std::sync::OnceLock;
use std::time::Instant;

/// One unit of work's stage timer over `N` stages. [`lap`](Self::lap)
/// charges the time since the previous lap (or the start) to a stage,
/// accumulating, so the stages cover the work's wall time with no gap and
/// no overlap. It reads [`Instant`] once at the start and once a lap.
#[derive(Debug, Clone, Copy)]
pub struct LapClock<const N: usize> {
    /// Wall nanoseconds from the records' time origin (the process's first
    /// clock) to the start: the time base of `/debug/trace`'s `ts`.
    start_ns: u64,
    /// The previous lap (or the start).
    last: Instant,
    stages_ns: [u64; N],
}

impl<const N: usize> LapClock<N> {
    /// Start timing now.
    #[inline]
    pub fn start() -> LapClock<N> {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        let now = Instant::now();
        let start_ns = now.saturating_duration_since(*ORIGIN.get_or_init(|| now)).as_nanos();
        LapClock { start_ns: start_ns as u64, last: now, stages_ns: [0; N] }
    }

    /// Charge everything since the previous lap to `stage`.
    #[inline]
    pub fn lap(&mut self, stage: impl Into<usize>) {
        let now = Instant::now();
        self.stages_ns[stage.into()] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }

    /// When the clock started, in wall nanoseconds from the records' time
    /// origin.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Per-stage wall nanoseconds (indexed by stage) and their sum, the
    /// work's total.
    pub fn finish(self) -> ([u64; N], u64) {
        (self.stages_ns, self.stages_ns.iter().sum())
    }
}

/// A complete (`"ph": "X"`) chrome-trace event for one unit of a record's
/// work: `wall_ns` (start, duration) as microseconds from the records' time
/// origin, the `(trace, span, parent)` ids and the modelled duration in
/// `args`, then `attrs`.
pub fn trace_event(
    name: &str,
    (trace, span, parent): (TraceId, SpanId, Option<SpanId>),
    (start_ns, dur_ns): (u64, u64),
    modelled_ns: u64,
    attrs: Vec<(&str, Value)>,
) -> Value {
    let mut args = Object::with_capacity(4 + attrs.len());
    args.insert("trace_id", trace.to_string());
    args.insert("span_id", span.to_string());
    if let Some(parent) = parent {
        args.insert("parent_span_id", parent.to_string());
    }
    args.insert("modelled_ms", modelled_ns as f64 / 1e6);
    attrs.into_iter().for_each(|(k, v)| args.insert(k, v));
    jobj! {
        "name" => name,
        "ph" => "X",
        "ts" => (start_ns / 1_000) as i64,
        "dur" => (dur_ns / 1_000) as i64,
        "pid" => 1,
        "tid" => 1,
        "args" => Value::Object(args),
    }
}

/// The stages an interval record times, in the order an interval runs
/// them; `stage as usize` indexes [`IntervalRecord::stages_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalStage {
    /// Advancing the scheduler and the cluster physics to the interval.
    Advance,
    /// Reading the source and building the points (the sweep included).
    Collect,
    /// Landing the points in storage, batch by batch.
    Store,
    /// Folding the interval through the alert engine.
    Alerts,
    /// The age-based tiering pass.
    Tiering,
}

impl IntervalStage {
    /// How many stages there are.
    pub const COUNT: usize = 5;
}

impl From<IntervalStage> for usize {
    fn from(stage: IntervalStage) -> usize {
        stage as usize
    }
}

/// A sweep request worth a look: skipped, failed or retried. Healthy
/// first-try requests stay out, so a sweep keeps at most one a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotableRequest {
    /// Its span id (`redfish.skip` or `redfish.request`, under the sweep).
    pub span: SpanId,
    /// Target node.
    pub node: NodeId,
    /// Category queried.
    pub category: &'static str,
    /// Why the sweep never issued it (`BreakerOpen`, `Deadline`).
    pub skip: Option<&'static str>,
    /// Attempts made (0 when skipped).
    pub attempts: usize,
    /// Attempts that hit the read timeout.
    pub timeouts: usize,
    /// Whether a reading came back in the end.
    pub delivered: bool,
    /// Simulated nanoseconds across its attempts.
    pub elapsed_ns: u64,
}

/// One collection interval: what `Monster::run_interval_from` did, timed
/// and counted once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalRecord {
    /// The interval's trace.
    pub trace: TraceId,
    /// Its root span (`collector.interval`).
    pub span: SpanId,
    /// The sweep's span (`redfish.sweep`), for an interval read from one.
    pub sweep_span: Option<SpanId>,
    /// The storage write's span (`tsdb.write_batch`).
    pub write_span: SpanId,
    /// Where the readings came from: `sweep`, `sensors` or `telemetry`.
    pub source: &'static str,
    /// Wall start, nanoseconds from the records' time origin.
    pub start_ns: u64,
    /// Per-stage wall nanoseconds, indexed by `IntervalStage as usize`.
    pub stages_ns: [u64; IntervalStage::COUNT],
    /// End-to-end wall nanoseconds: the sum of `stages_ns`.
    pub total_ns: u64,
    /// The sweep's modelled makespan (zero for the other sources).
    pub makespan_ns: u64,
    /// Points written.
    pub points: u64,
    /// The write batches they went in as.
    pub write_batches: u64,
    /// The sweep's skipped, failed and retried requests, in sweep order.
    pub requests: Vec<NotableRequest>,
}

impl IntervalRecord {
    /// Append this interval's chrome-trace events to `out`: the
    /// `collector.interval` root, its `redfish.sweep` (a `redfish.skip` or
    /// `redfish.request` under it a notable request) and its
    /// `tsdb.write_batch`, a child's wall window its stage's.
    pub fn trace_events(&self, out: &mut Vec<Value>) {
        let ids = |span, parent| (self.trace, span, parent);
        let [advance, collect, store, ..] = self.stages_ns;
        let (root, collect_ns) = (Some(self.span), self.start_ns + advance);
        let attrs = vec![("source", self.source.into()), ("points", self.points.into())];
        let (wall, modelled) = ((self.start_ns, self.total_ns), self.makespan_ns);
        out.push(trace_event("collector.interval", ids(self.span, None), wall, modelled, attrs));
        if let Some(sweep) = self.sweep_span {
            let wall = (collect_ns, collect);
            out.push(trace_event("redfish.sweep", ids(sweep, root), wall, modelled, vec![]));
            for r in &self.requests {
                let mut attrs =
                    vec![("node", r.node.to_string().into()), ("category", r.category.into())];
                let name = if let Some(reason) = r.skip {
                    attrs.push(("SkipReason", reason.into()));
                    "redfish.skip"
                } else {
                    let outcome = if r.delivered { "retried_ok" } else { "failed" };
                    attrs.extend([
                        ("attempts", r.attempts.into()),
                        ("timeouts", r.timeouts.into()),
                        ("outcome", outcome.into()),
                    ]);
                    "redfish.request"
                };
                let lineage = ids(r.span, Some(sweep));
                out.push(trace_event(name, lineage, (collect_ns, 0), r.elapsed_ns, attrs));
            }
        }
        let attrs = vec![("points", self.points.into()), ("batches", self.write_batches.into())];
        let wall = (collect_ns + collect, store);
        out.push(trace_event("tsdb.write_batch", ids(self.write_span, root), wall, 0, attrs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_clock_charges_each_lap_to_its_stage_and_sums() {
        let mut clock = LapClock::<3>::start();
        clock.lap(0usize);
        std::thread::sleep(std::time::Duration::from_millis(5));
        clock.lap(1usize);
        clock.lap(2usize);
        std::thread::sleep(std::time::Duration::from_millis(1));
        clock.lap(1usize); // accumulates
        let (stages, total) = clock.finish();
        assert!(stages[1] > 3_000_000, "6 ms of sleep measured as {} ns", stages[1]);
        assert!(stages[1] < 1_000_000_000, "6 ms of sleep measured as {} ns", stages[1]);
        assert!(stages[0] < 1_000_000);
        assert_eq!(total, stages.iter().sum::<u64>());
        let later = LapClock::<1>::start();
        assert!(later.start_ns() >= clock.start_ns(), "one time origin, moving forward");
    }

    #[test]
    fn an_interval_renders_its_lineage_and_modelled_time() {
        let node = NodeId::enumerate(1, 4)[0];
        let record = IntervalRecord {
            trace: TraceId(0xabc),
            span: SpanId(1),
            sweep_span: Some(SpanId(2)),
            write_span: SpanId(3),
            source: "sweep",
            start_ns: 10_000,
            stages_ns: [1_000, 50_000, 7_000, 0, 0],
            total_ns: 58_000,
            makespan_ns: 52_000_000_000,
            points: 42,
            write_batches: 1,
            requests: vec![NotableRequest {
                span: SpanId(4),
                node,
                category: "Power",
                skip: Some("BreakerOpen"),
                attempts: 0,
                timeouts: 0,
                delivered: false,
                elapsed_ns: 0,
            }],
        };
        let mut events = Vec::new();
        record.trace_events(&mut events);
        let names: Vec<&str> =
            events.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(
            names,
            ["collector.interval", "redfish.sweep", "redfish.skip", "tsdb.write_batch"]
        );
        let arg = |i: usize, k: &str| events[i].get("args").unwrap().get(k).cloned();
        let id = |s: SpanId| Some(Value::Str(s.to_string()));
        assert_eq!(arg(0, "parent_span_id"), None);
        assert_eq!(arg(1, "parent_span_id"), id(SpanId(1)));
        assert_eq!(arg(2, "parent_span_id"), id(SpanId(2)));
        assert_eq!(arg(3, "parent_span_id"), id(SpanId(1)));
        assert_eq!(arg(2, "SkipReason"), Some(Value::Str("BreakerOpen".into())));
        assert_eq!(arg(2, "node"), Some(Value::Str(node.to_string())));
        assert_eq!(arg(1, "modelled_ms").and_then(|v| v.as_f64()), Some(52_000.0));
        // Wall microseconds: the sweep starts after the advance stage.
        let ts = |i: usize| events[i].get("ts").unwrap().as_i64().unwrap();
        let dur = |i: usize| events[i].get("dur").unwrap().as_i64().unwrap();
        assert_eq!((ts(0), dur(0)), (10, 58));
        assert_eq!((ts(1), dur(1)), (11, 50));
        assert_eq!((ts(3), dur(3)), (61, 7));
        for e in &events {
            assert_eq!(
                e.pointer("/args/trace_id").and_then(Value::as_str),
                Some(&*TraceId(0xabc).to_string())
            );
        }
    }
}
