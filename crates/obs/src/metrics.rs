//! Atomic metric primitives: [`Counter`], [`Gauge`], and [`Histo`].
//!
//! All three are lock-free and cheap under contention: a handful of
//! `Relaxed` atomic operations per update, no allocation, no locking.
//! They are shared via `Arc` handles obtained from a
//! [`Registry`](crate::Registry), so hot call sites can cache the handle
//! in a `OnceLock` and pay only the atomic update per event.

use crate::trace::{SpanId, TraceContext, TraceId};
use monster_sim::VDuration;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter starting at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depth, live series count, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// New gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtract a delta.
    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets. Bucket `i` covers observations in
/// `(bound(i-1), bound(i)]` seconds with `bound(i) = 1 µs × 2^i`; a final
/// overflow bucket catches everything above `bound(BUCKETS - 1)` (≈ 9.5 h).
pub const BUCKETS: usize = 36;

/// A trace reference attached to one histogram bucket: the most recent
/// traced observation that landed there. Exported in OpenMetrics exemplar
/// syntax (`... # {trace_id="...",span_id="..."} value`) so a dashboard
/// can jump from a suspicious latency bucket straight to the trace that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value, in nanoseconds (kept integral so the type stays
    /// `Eq`; render with [`Exemplar::value_secs`]).
    pub value_nanos: u64,
    /// Trace the observation belonged to.
    pub trace: TraceId,
    /// Span the observation belonged to.
    pub span: SpanId,
}

impl Exemplar {
    /// The observed value in seconds.
    pub fn value_secs(&self) -> f64 {
        self.value_nanos as f64 / 1e9
    }
}

/// A latency histogram with fixed log-scale (power-of-two) buckets.
///
/// The bucket layout is identical for every `Histo`, which keeps
/// [`observe`](Histo::observe) allocation-free and makes histograms from
/// different processes mergeable. Observations are in **seconds**;
/// non-finite values are ignored (the invariant tested by the crate's
/// proptest: bucket counts always sum to the number of *finite*
/// observations).
///
/// Observations made through [`observe_traced`](Histo::observe_traced)
/// with a live [`TraceContext`] additionally park an [`Exemplar`] on the
/// bucket they land in; plain [`observe`](Histo::observe) stays lock-free.
#[derive(Debug)]
pub struct Histo {
    counts: [AtomicU64; BUCKETS + 1],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    exemplars: Mutex<[Option<Exemplar>; BUCKETS + 1]>,
}

impl Default for Histo {
    fn default() -> Histo {
        Histo::new()
    }
}

impl Histo {
    /// New empty histogram.
    pub fn new() -> Histo {
        Histo {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            exemplars: Mutex::new([None; BUCKETS + 1]),
        }
    }

    /// Upper bound (inclusive, in seconds) of finite bucket `i`.
    ///
    /// # Panics
    /// If `i >= BUCKETS`.
    pub fn upper_bound(i: usize) -> f64 {
        assert!(i < BUCKETS, "bucket index {i} out of range");
        1e-6 * (1u64 << i) as f64
    }

    fn bucket_index(secs: f64) -> usize {
        for i in 0..BUCKETS {
            if secs <= Self::upper_bound(i) {
                return i;
            }
        }
        BUCKETS
    }

    /// Record one observation of `secs` seconds. NaN and infinite values
    /// are skipped; negative values clamp to zero (the smallest bucket).
    pub fn observe(&self, secs: f64) {
        if !secs.is_finite() {
            return;
        }
        let secs = secs.max(0.0);
        self.counts[Self::bucket_index(secs)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
    }

    /// Record a simulated duration (convenience for vtime call sites).
    pub fn observe_vdur(&self, d: VDuration) {
        self.observe(d.as_secs_f64());
    }

    /// Record one observation and, when `ctx` is present, park an
    /// [`Exemplar`] on the bucket the observation lands in (overwriting
    /// any previous one — each bucket keeps its most recent trace ref).
    pub fn observe_traced(&self, secs: f64, ctx: Option<TraceContext>) {
        self.observe(secs);
        if !secs.is_finite() {
            return;
        }
        if let Some(ctx) = ctx {
            let secs = secs.max(0.0);
            let slot = Self::bucket_index(secs);
            self.exemplars.lock()[slot] = Some(Exemplar {
                value_nanos: (secs * 1e9) as u64,
                trace: ctx.trace,
                span: ctx.span,
            });
        }
    }

    /// Record a simulated duration with an optional trace exemplar.
    pub fn observe_vdur_traced(&self, d: VDuration, ctx: Option<TraceContext>) {
        self.observe_traced(d.as_secs_f64(), ctx);
    }

    /// Snapshot of the per-bucket exemplars (length `BUCKETS + 1`,
    /// parallel to [`counts`](Histo::counts)).
    pub fn exemplars(&self) -> Vec<Option<Exemplar>> {
        self.exemplars.lock().to_vec()
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations, in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Mean observation in seconds, or `None` if empty.
    pub fn mean_secs(&self) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.sum_secs() / n as f64)
        }
    }

    /// Snapshot of the per-bucket counts (length `BUCKETS + 1`; the last
    /// entry is the overflow bucket).
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(7);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn histo_bucket_layout() {
        assert_eq!(Histo::upper_bound(0), 1e-6);
        assert_eq!(Histo::upper_bound(1), 2e-6);
        // ~9.5 hours at the top of the finite range.
        assert!(Histo::upper_bound(BUCKETS - 1) > 30_000.0);

        let h = Histo::new();
        h.observe(0.5e-6); // bucket 0
        h.observe(1e-6); // bucket 0 (inclusive upper bound)
        h.observe(1.5e-6); // bucket 1
        h.observe(-3.0); // clamps into bucket 0
        h.observe(1e9); // overflow
        let counts = h.counts();
        assert_eq!(counts[0], 3);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[BUCKETS], 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histo_skips_non_finite() {
        let h = Histo::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert!(h.counts().iter().all(|&c| c == 0));
        assert_eq!(h.mean_secs(), None);
    }

    #[test]
    fn histo_sum_and_mean() {
        let h = Histo::new();
        h.observe(1.0);
        h.observe(3.0);
        assert!((h.sum_secs() - 4.0).abs() < 1e-9);
        assert!((h.mean_secs().unwrap() - 2.0).abs() < 1e-9);
        h.observe_vdur(VDuration::from_millis(500));
        assert!((h.sum_secs() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn exemplars_park_on_the_observed_bucket() {
        let h = Histo::new();
        // Untraced observations never set an exemplar.
        h.observe(0.5);
        assert!(h.exemplars().iter().all(|e| e.is_none()));

        let mint = crate::Registry::new();
        let ctx = TraceContext::root(&mint);
        h.observe_traced(0.5, Some(ctx));
        let slot = (0..BUCKETS)
            .find(|&i| 0.5 <= Histo::upper_bound(i))
            .expect("0.5s fits a finite bucket");
        let ex = h.exemplars()[slot].expect("exemplar parked");
        assert_eq!(ex.trace, ctx.trace);
        assert_eq!(ex.span, ctx.span);
        assert!((ex.value_secs() - 0.5).abs() < 1e-9);

        // A later traced observation in the same bucket overwrites.
        let ctx2 = TraceContext::root(&mint);
        h.observe_traced(0.4, Some(ctx2));
        assert_eq!(h.exemplars()[slot].unwrap().trace, ctx2.trace);

        // Non-finite traced observations are skipped entirely.
        h.observe_traced(f64::NAN, Some(ctx2));
        assert_eq!(h.count(), 3);
    }
}
