//! Virtual-time-aware spans with distributed-trace lineage.
//!
//! A [`Span`] brackets a unit of pipeline work (a sweep, a collection
//! interval, a builder request) and records a [`SpanRecord`] into its
//! [`Registry`]'s ring buffer when it finishes. Timestamps come from
//! the registry's **virtual clock** — the same `monster_sim` time that
//! drives sweeps and query costs — so exported traces line up with
//! simulated activity instead of host wall time.
//!
//! Every span carries a [`TraceContext`]: which trace it belongs to and
//! its own span id, plus an optional parent span id. [`Span::enter`]
//! joins the thread's current context (see [`crate::trace`]) as a child,
//! or starts a fresh root trace when none is installed; [`Span::root`]
//! and [`Span::child_of`] make the choice explicit. Key/value attributes
//! (`SkipReason`, node addresses, attempt counts) ride along on the
//! record.

use crate::trace::{self, SpanId, TraceContext, TraceId};
use crate::Registry;
use monster_sim::{VDuration, VInstant};
use std::sync::Arc;

/// A completed span, as stored in the registry's trace ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Operation name (e.g. `redfish.sweep`).
    pub name: String,
    /// Virtual start time.
    pub begin: VInstant,
    /// Virtual end time (`>= begin`).
    pub end: VInstant,
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span id (`None` for a trace root).
    pub parent: Option<SpanId>,
    /// Key/value attributes (`SkipReason`, node, attempts, ...).
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in virtual time.
    pub fn duration(&self) -> VDuration {
        self.end.since(self.begin)
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// An in-flight span. Create one with [`Span::enter`]; it records itself
/// into the registry it was opened in when finished (explicitly, or on
/// drop).
#[derive(Debug)]
pub struct Span {
    registry: Arc<Registry>,
    name: String,
    begin: VInstant,
    ctx: TraceContext,
    parent: Option<SpanId>,
    attrs: Vec<(String, String)>,
    done: bool,
}

impl Span {
    /// Open a span named `name` in `registry`, stamped with its current
    /// virtual time. If a trace context is installed on this thread (see
    /// [`trace::set_current`]) the span joins it as a child; otherwise it
    /// starts a fresh root trace.
    pub fn enter(registry: &Arc<Registry>, name: impl Into<String>) -> Span {
        Span::open(registry, name, trace::current())
    }

    /// Open a span that starts a fresh trace, ignoring any installed
    /// context.
    pub fn root(registry: &Arc<Registry>, name: impl Into<String>) -> Span {
        Span::open(registry, name, None)
    }

    /// Open a span as an explicit child of `parent`.
    pub fn child_of(
        registry: &Arc<Registry>,
        name: impl Into<String>,
        parent: TraceContext,
    ) -> Span {
        Span::open(registry, name, Some(parent))
    }

    /// A child of `parent`, or a root without one; ids from `registry`'s mint.
    fn open(
        registry: &Arc<Registry>,
        name: impl Into<String>,
        parent: Option<TraceContext>,
    ) -> Span {
        let ctx = match parent {
            Some(parent) => parent.child(registry),
            None => TraceContext::root(registry),
        };
        Span {
            registry: Arc::clone(registry),
            name: name.into(),
            begin: registry.vtime(),
            ctx,
            parent: parent.map(|p| p.span),
            attrs: Vec::new(),
            done: false,
        }
    }

    /// Virtual time at which the span was opened.
    pub fn begin(&self) -> VInstant {
        self.begin
    }

    /// This span's context — hand it to children (or serialize it as a
    /// `traceparent` header).
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// Attach a key/value attribute (later values for the same key are
    /// appended, not replaced — records are cheap and append-only).
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.attrs.push((key.into(), value.into()));
    }

    /// Builder-style attribute attachment.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Span {
        self.set_attr(key, value);
        self
    }

    /// Close the span at the registry's current virtual time.
    pub fn finish(mut self) {
        self.record(self.registry.vtime());
    }

    /// Close the span `dur` after it began, advancing the registry's
    /// virtual clock to at least the span's end. This is the common form
    /// for simulated work: the caller knows the simulated elapsed time
    /// (e.g. a `SweepOutcome` makespan) rather than observing it.
    pub fn finish_after(mut self, dur: VDuration) {
        let end = self.begin + dur;
        self.registry.set_vtime(end);
        self.record(end);
    }

    /// Close the span `dur` after it began **without** advancing the
    /// registry clock. Use this for work that overlaps other work in
    /// virtual time (per-request spans inside a sweep run on parallel
    /// channels; summing their durations onto the clock would be wrong).
    pub fn finish_spanning(mut self, dur: VDuration) {
        let end = self.begin + dur;
        self.record(end);
    }

    fn record(&mut self, end: VInstant) {
        if self.done {
            return;
        }
        self.done = true;
        self.registry.record_span(SpanRecord {
            name: std::mem::take(&mut self.name),
            begin: self.begin,
            end: end.max(self.begin),
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.parent,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record(self.registry.vtime());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_after_advances_vclock_and_records() {
        let r = Arc::new(Registry::new());
        let span = Span::enter(&r, "test.op");
        span.finish_after(VDuration::from_secs(2));
        assert_eq!(r.vtime(), VInstant::EPOCH + VDuration::from_secs(2));
        let spans = r.recent_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.op");
        assert_eq!(spans[0].duration(), VDuration::from_secs(2));
    }

    #[test]
    fn drop_records_without_double_count() {
        let r = Arc::new(Registry::new());
        {
            let _span = Span::enter(&r, "test.drop");
        }
        assert_eq!(r.recent_spans().len(), 1);
    }

    #[test]
    fn enter_joins_installed_context() {
        let r = Arc::new(Registry::new());
        let root = Span::root(&r, "test.parent");
        let root_ctx = root.context();
        let child_ctx = {
            let _g = trace::set_current(root_ctx);
            let child = Span::enter(&r, "test.child").with_attr("k", "v");
            let ctx = child.context();
            child.finish();
            ctx
        };
        root.finish();
        assert_eq!(child_ctx.trace, root_ctx.trace);
        let spans = r.recent_spans();
        let [child, parent] = [&spans[0], &spans[1]];
        assert_eq!((child.name.as_str(), parent.name.as_str()), ("test.child", "test.parent"));
        assert_eq!(child.trace, parent.trace);
        assert_eq!(child.parent, Some(parent.span));
        assert_eq!(parent.parent, None);
        assert_eq!(child.attr("k"), Some("v"));
        assert_eq!(child.attr("missing"), None);
    }

    #[test]
    fn enter_without_context_is_a_root() {
        let r = Arc::new(Registry::new());
        let span = Span::enter(&r, "test.rootless");
        assert!(span.context().trace.0 != 0);
        let ctx = span.context();
        span.finish();
        let spans = r.recent_spans();
        assert_eq!(spans[0].trace, ctx.trace);
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    fn finish_spanning_does_not_advance_the_clock() {
        let r = Arc::new(Registry::new());
        let span = Span::enter(&r, "test.spanning");
        span.finish_spanning(VDuration::from_secs(3600));
        assert_eq!(r.vtime(), VInstant::EPOCH);
        assert_eq!(r.recent_spans()[0].duration(), VDuration::from_secs(3600));
    }

    #[test]
    fn spans_land_in_their_own_registry() {
        let (a, b) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
        Span::enter(&a, "test.a").finish_after(VDuration::from_secs(5));
        assert_eq!(a.recent_spans().len(), 1);
        assert!(b.recent_spans().is_empty());
        assert_eq!(b.vtime(), VInstant::EPOCH);
    }
}
