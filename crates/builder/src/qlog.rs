//! The query flight recorder: one structured wide event per
//! `/v1/metrics` request.
//!
//! Every request — whatever its disposition — leaves behind a
//! [`RequestRecord`]: trace/span ids, tenant, the normalized plan
//! fingerprint, per-stage wall timings (parse → plan → cache → admission
//! → execute → encode) next to the modelled vtime the simulation charges,
//! the plan-time estimated [`QueryCost`] beside the measured actual
//! (cold-tier subsets included), the admission token-bucket math that
//! produced any `Retry-After`, and bytes out. Records land in a
//! pre-allocated bounded ring and surface three ways: `GET
//! /debug/requests` (+ `/:trace_id`), inline via `?explain=true`, and as
//! the estimator-accuracy metrics
//! (`monster_builder_cost_estimate_ratio{stage=...}`,
//! `monster_builder_slow_queries_total`).
//!
//! # Mechanism: a ring of locked records and one lap clock
//!
//! The ring is a power-of-two `Box<[Mutex<RequestRecord>]>` behind one
//! `head` counter:
//!
//! * a writer takes the next sequence number, locks that number's slot and
//!   overwrites the record in place with [`Draft::fill`] — assignments, and
//!   the two strings into capacity reserved at construction — so the ring
//!   never allocates after construction and recording on the warm
//!   cache-hit path stays at zero allocations (asserted by the
//!   counting-allocator test in `tests/cache_zero_copy.rs`);
//! * a reader (debug endpoints; rare) locks one slot at a time and clones
//!   it, so every record it returns is whole; a writer waits out that
//!   clone instead of dropping its record;
//! * a writer that was descheduled for a whole lap finds a *newer*
//!   sequence number in its slot and leaves it alone — an older record
//!   never overwrites a newer one, and that is the only thing
//!   `monster_builder_qlog_dropped_total` counts.
//!
//! The lock and the eager fingerprint cost the hit path some 10 ns more
//! than the word-atomic seqlock they replaced (EXPERIMENTS.md "Flight
//! recorder in plain Rust") — beside the ~130 ns span the same handler
//! records, and for a structure a stress test can check and a reader can
//! review.
//!
//! Stage timings come from one [`LapClock`] per request: `lap(stage)`
//! charges the time since the previous lap to `stage`, so every record's
//! stages sum to its total by construction. It reads raw TSC ticks on
//! x86-64 (half the cost of `Instant::now`), calibrated once per process
//! against [`std::time::Instant`].

use monster_json::{jobj, Value};
use monster_obs::{SpanId, TraceId};
use monster_tsdb::QueryCost;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Cheap wall-clock ticks
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[inline]
fn raw_ticks() -> u64 {
    // SAFETY: RDTSC is unprivileged baseline x86-64 and has no
    // memory-safety effects; it only reads the time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn raw_ticks() -> u64 {
    // Portable fallback: one monotonic clock read per stamp.
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per [`raw_ticks`] tick, calibrated once per process.
fn ns_per_tick() -> f64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // Calibrate TSC frequency against the OS monotonic clock over
            // a short busy window. ~1 ms keeps the relative error well
            // under 0.1%, plenty for per-stage profiling.
            let wall = Instant::now();
            let t0 = raw_ticks();
            while wall.elapsed().as_micros() < 1_000 {
                std::hint::spin_loop();
            }
            let ticks = raw_ticks().saturating_sub(t0).max(1);
            wall.elapsed().as_nanos() as f64 / ticks as f64
        }
        #[cfg(not(target_arch = "x86_64"))]
        1.0
    })
}

/// One request's stage timer. [`lap`](Self::lap) charges the ticks since
/// the previous lap (or the start) to a stage, accumulating, so the stages
/// cover the request's wall time with no gap and no overlap.
#[derive(Debug, Clone, Copy)]
pub struct LapClock {
    /// Tick of the previous lap (or the start).
    last: u64,
    ticks: [u64; Stage::ALL.len()],
}

impl LapClock {
    /// Start timing now.
    #[inline]
    pub fn start() -> LapClock {
        LapClock { last: raw_ticks(), ticks: [0; Stage::ALL.len()] }
    }

    /// Charge everything since the previous lap to `stage`.
    #[inline]
    pub fn lap(&mut self, stage: Stage) {
        let now = raw_ticks();
        self.ticks[stage as usize] += now.saturating_sub(self.last);
        self.last = now;
    }

    /// Per-stage wall nanoseconds (indexed by `Stage as usize`) and their
    /// sum, the request's total.
    pub fn finish(self) -> ([u64; Stage::ALL.len()], u64) {
        let ns_per_tick = ns_per_tick();
        // Through `i64`: a request's ticks fit, and the signed conversions
        // are one instruction each where the unsigned ones branch — seven
        // of them on every request (EXPERIMENTS.md "Flight recorder").
        let stages_ns = self.ticks.map(|ticks| (ticks as i64 as f64 * ns_per_tick) as i64 as u64);
        (stages_ns, stages_ns.iter().sum())
    }
}

// ---------------------------------------------------------------------------
// Record vocabulary
// ---------------------------------------------------------------------------

/// How a request was ultimately served.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served from a validated cache entry.
    Hit,
    /// Planned, admitted, and executed against storage.
    Miss,
    /// Joined another request's in-flight execution.
    Coalesced,
    /// A deterministic 400 — parse rejection, first-seen or served from
    /// the negative cache.
    Negative,
    /// Turned away by cost-based admission (429).
    Rejected,
    /// Execution failed (500) — and what a request is until it is served.
    #[default]
    Error,
}

impl Disposition {
    /// Lower-case wire name (`hit`, `miss`, `coalesced`, `negative`,
    /// `rejected`, `error`) — also what `?disposition=` filters accept.
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Hit => "hit",
            Disposition::Miss => "miss",
            Disposition::Coalesced => "coalesced",
            Disposition::Negative => "negative",
            Disposition::Rejected => "rejected",
            Disposition::Error => "error",
        }
    }

    /// Inverse of [`Disposition::as_str`].
    pub fn parse(s: &str) -> Option<Disposition> {
        use Disposition::*;
        [Hit, Miss, Coalesced, Negative, Rejected, Error].into_iter().find(|d| d.as_str() == s)
    }
}

/// What the response cache said about this request's key.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum CacheVerdict {
    /// A positive entry existed and its watermark snapshot validated.
    Valid,
    /// A negative (deterministic-400) entry was served.
    Negative,
    /// No entry for this key.
    #[default]
    Absent,
    /// An entry existed but a write invalidated it.
    Invalidated,
}

impl CacheVerdict {
    /// Wire name used by `/debug/requests` and `?explain=true`.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheVerdict::Valid => "valid",
            CacheVerdict::Negative => "negative",
            CacheVerdict::Absent => "absent",
            CacheVerdict::Invalidated => "invalidated",
        }
    }
}

/// Admission control's decision for this request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The controller is disabled; everything passes.
    Disabled,
    /// At or below the cheap threshold — admitted without touching the
    /// tenant's bucket.
    Cheap,
    /// Expensive but affordable — the tenant's bucket was debited.
    Charged,
    /// Above the hard reject threshold (no bucket could ever cover it).
    RejectedOverBudget,
    /// Affordable in principle but the tenant's bucket is short.
    RejectedTenantBudget,
}

impl AdmissionDecision {
    /// Wire name used by `/debug/requests` and `?explain=true`.
    pub fn as_str(self) -> &'static str {
        match self {
            AdmissionDecision::Disabled => "disabled",
            AdmissionDecision::Cheap => "admitted_cheap",
            AdmissionDecision::Charged => "admitted_charged",
            AdmissionDecision::RejectedOverBudget => "rejected_over_budget",
            AdmissionDecision::RejectedTenantBudget => "rejected_tenant_budget",
        }
    }
}

/// The token-bucket arithmetic behind one admission decision — exactly the
/// numbers a client needs to understand its `Retry-After`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSnapshot {
    /// Which rule fired.
    pub decision: AdmissionDecision,
    /// The plan-time modelled seconds the decision priced.
    pub estimated_secs: f64,
    /// Tenant bucket tokens after refill, before any debit. `NaN` when no
    /// bucket was consulted (disabled / cheap / over-budget).
    pub tokens_before: f64,
    /// Tokens after the debit (== `tokens_before` on rejection).
    pub tokens_after: f64,
    /// Modelled seconds the tenant earns per wall second.
    pub rate: f64,
    /// Bucket capacity.
    pub burst: f64,
    /// The `Retry-After` value sent on rejection; 0 when admitted.
    pub retry_after_secs: u64,
}

/// The pipeline stages a record times, in wire order. `stage as usize`
/// indexes [`RequestRecord::stages_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Parsing the query parameters into a `BuilderRequest`.
    Parse,
    /// Plan building + rollup rerouting + cost estimation.
    Plan,
    /// Response-cache probe, single-flight join (a follower's wait) and
    /// the validity snapshot. A hit charges its whole wall time here.
    Cache,
    /// Admission decision (token-bucket refill + debit).
    Admission,
    /// Storage execution: the plan's query batch (`exec::run`), nothing else.
    Execute,
    /// Rendering the body (`exec::render`), header stamping, the cache insert.
    Encode,
    /// Deflating the rendered body (`compress=true` misses only).
    Compress,
}

impl Stage {
    /// Every stage, in discriminant (and wire) order.
    pub const ALL: [Stage; 7] = [
        Stage::Parse,
        Stage::Plan,
        Stage::Cache,
        Stage::Admission,
        Stage::Execute,
        Stage::Encode,
        Stage::Compress,
    ];

    /// The stage's key under `wall_ms` in a record's JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::Cache => "cache",
            Stage::Admission => "admission",
            Stage::Execute => "execute",
            Stage::Encode => "encode",
            Stage::Compress => "compress",
        }
    }
}

/// A request's estimated-vs-actual cost pair, modelled seconds included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPair {
    /// The plan-time estimate admission priced.
    pub estimated: QueryCost,
    /// The measured physical cost out of the scans.
    pub actual: QueryCost,
    /// `simulate_elapsed(estimated)`, nanoseconds.
    pub estimated_ns: u64,
    /// `simulate_elapsed(actual)`, nanoseconds — same pricing function, so
    /// the ratio isolates estimator accuracy from execution mode.
    pub actual_ns: u64,
}

/// The cost dimensions an estimate is scored on, in [`CostPair::ratios`]
/// order — the `stage` label of `monster_builder_cost_estimate_ratio`.
pub const RATIO_STAGES: [&str; 4] = ["seconds", "points", "bytes", "blocks"];

impl CostPair {
    /// Measured over estimated per [`RATIO_STAGES`] entry; `None` where the
    /// estimate was zero.
    fn ratios(&self) -> [Option<f64>; 4] {
        let (act, est) = (&self.actual, &self.estimated);
        [
            (self.actual_ns, self.estimated_ns),
            (act.points as u64, est.points as u64),
            (act.bytes as u64, est.bytes as u64),
            (act.blocks as u64, est.blocks as u64),
        ]
        .map(|(act, est)| (est > 0).then(|| act as f64 / est as f64))
    }
}

/// One flight-recorder record: what a ring slot holds, what the slow log
/// pins and what `?explain=true` embeds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RequestRecord {
    /// Monotone sequence number (also the ring-recycling order).
    pub seq: u64,
    /// Disposition the request ended with.
    pub disposition: Disposition,
    /// HTTP status served.
    pub status: u16,
    /// Trace id (joins `GET /debug/trace?trace_id=`).
    pub trace: TraceId,
    /// The request's server-side span id.
    pub span: SpanId,
    /// Normalized plan fingerprint: a 64-bit hash of the request key with
    /// per-request noise (`explain`) stripped, so identical plans collapse
    /// to one value across dispositions.
    pub fingerprint: u64,
    /// Tenant the request was billed to.
    pub tenant: String,
    /// The normalized request key (path + query, `explain` stripped).
    pub url: String,
    /// `true` when `tenant`/`url` exceeded [`TENANT_BYTES`]/[`URL_BYTES`]
    /// and were cut (on a char boundary).
    pub truncated: bool,
    /// Whether the caller asked for `?explain=true`.
    pub explain: bool,
    /// Whether this record crossed the slow-query threshold (also pinned
    /// in the slow log).
    pub slow: bool,
    /// Per-stage wall nanoseconds, indexed by `Stage as usize`.
    pub stages_ns: [u64; Stage::ALL.len()],
    /// End-to-end wall nanoseconds inside the handler — the sum of
    /// `stages_ns` for every record a [`LapClock`] timed.
    pub total_ns: u64,
    /// Modelled (vtime) execution nanoseconds, when executed.
    pub vtime_execute_ns: u64,
    /// Modelled (vtime) marshalling nanoseconds, when executed.
    pub vtime_encode_ns: u64,
    /// Response body bytes (the payload, not any explain envelope).
    pub bytes_out: u64,
    /// Points rendered into the body: the plan's count on a miss, 0 for a
    /// request that rendered nothing (`wall_ms.encode` ÷ this is the cost
    /// of a rendered point).
    pub points_out: u64,
    /// What the cache said about this key.
    pub verdict: CacheVerdict,
    /// Estimated-vs-actual cost, for requests that executed.
    pub cost: Option<CostPair>,
    /// Admission math, for requests that reached admission.
    pub admission: Option<AdmissionSnapshot>,
}

/// `seq` of a ring slot no record has been written to yet.
const NEVER: u64 = u64::MAX;

impl RequestRecord {
    /// A record nothing has been written to: `seq` is [`NEVER`], the
    /// strings are empty and unallocated.
    pub(crate) fn blank() -> RequestRecord {
        RequestRecord { seq: NEVER, ..RequestRecord::default() }
    }

    /// Wall milliseconds end to end.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Modelled (vtime) milliseconds charged to this request.
    pub fn modelled_ms(&self) -> f64 {
        (self.vtime_execute_ns + self.vtime_encode_ns) as f64 / 1e6
    }

    /// The record as the JSON object `/debug/requests` and
    /// `?explain=true` serve. Shape is a compatibility contract (golden
    /// test in `service.rs`).
    pub fn to_json(&self) -> Value {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut wall_ms = monster_json::Object::with_capacity(1 + Stage::ALL.len());
        wall_ms.insert("total", ms(self.total_ns));
        for stage in Stage::ALL {
            wall_ms.insert(stage.name(), ms(self.stages_ns[stage as usize]));
        }
        let mut doc = jobj! {
            "seq" => self.seq as i64,
            "trace_id" => self.trace.to_string(),
            "span_id" => self.span.to_string(),
            "disposition" => self.disposition.as_str(),
            "status" => self.status as i64,
            "tenant" => self.tenant.as_str(),
            "url" => self.url.as_str(),
            "fingerprint" => format!("{:016x}", self.fingerprint),
            "explain" => self.explain,
            "slow" => self.slow,
            "truncated" => self.truncated,
            "bytes_out" => self.bytes_out as i64,
            "points_out" => self.points_out as i64,
            "wall_ms" => Value::Object(wall_ms),
            "vtime_ms" => jobj! {
                "execute" => ms(self.vtime_execute_ns),
                "encode" => ms(self.vtime_encode_ns),
                "total" => self.modelled_ms(),
            },
            "cache" => jobj! { "verdict" => self.verdict.as_str() },
        };
        if let Some(cost) = &self.cost {
            let mut ratio = monster_json::Object::with_capacity(RATIO_STAGES.len());
            for (stage, r) in RATIO_STAGES.into_iter().zip(cost.ratios()) {
                ratio.insert(stage, r.map_or(Value::Null, Value::from));
            }
            let obj = doc.as_object_mut().expect("record doc is an object");
            obj.insert(
                "cost".to_string(),
                jobj! {
                    "estimated" => cost.estimated.to_json(),
                    "actual" => cost.actual.to_json(),
                    "estimated_modelled_ms" => ms(cost.estimated_ns),
                    "actual_modelled_ms" => ms(cost.actual_ns),
                    "ratio" => Value::Object(ratio),
                },
            );
        }
        if let Some(adm) = &self.admission {
            let f = |v: f64| if v.is_nan() { Value::Null } else { Value::from(v) };
            let obj = doc.as_object_mut().expect("record doc is an object");
            obj.insert(
                "admission".to_string(),
                jobj! {
                    "decision" => adm.decision.as_str(),
                    "estimated_secs" => adm.estimated_secs,
                    "tokens_before" => f(adm.tokens_before),
                    "tokens_after" => f(adm.tokens_after),
                    "rate" => adm.rate,
                    "burst" => adm.burst,
                    "retry_after_secs" => adm.retry_after_secs as i64,
                },
            );
        }
        doc
    }
}

/// A record under construction: the service assigns what it learns to
/// `record` as the request proceeds, and the two strings stay borrowed —
/// no heap — until [`Draft::fill`] copies the draft into a ring slot.
/// `record`'s own `tenant`, `url`, `truncated`, `fingerprint`, `seq` and
/// `slow` are not the draft's to set: `fill` and the recorder derive them.
#[derive(Debug, Clone)]
pub struct Draft<'a> {
    /// Normalized request key (path + query, `explain` stripped).
    pub url: &'a str,
    /// Tenant header value (or `"anonymous"`).
    pub tenant: &'a str,
    /// Everything else the request will be remembered by.
    pub record: RequestRecord,
}

impl<'a> Draft<'a> {
    /// A draft with everything unset except identity.
    pub fn new(url: &'a str, tenant: &'a str, trace: TraceId, span: SpanId) -> Draft<'a> {
        Draft { url, tenant, record: RequestRecord { trace, span, ..RequestRecord::blank() } }
    }

    /// Overwrite `rec` with this request — everything but `seq` and
    /// `slow`, which are the recorder's to assign. The one place a draft
    /// becomes a record: the ring slot, the slow-log pin (a clone of the
    /// slot) and the `?explain=true` inline record all come from here, so
    /// they agree on the cut strings, the `truncated` flag and the
    /// fingerprint (always of the full key). Reuses `rec`'s strings:
    /// allocates nothing when they hold [`TENANT_BYTES`]/[`URL_BYTES`] of
    /// capacity.
    pub(crate) fn fill(&self, rec: &mut RequestRecord) {
        let tenant_cut = copy_prefix(&mut rec.tenant, self.tenant, TENANT_BYTES);
        let url_cut = copy_prefix(&mut rec.url, self.url, URL_BYTES);
        rec.truncated = tenant_cut | url_cut;
        rec.fingerprint = fingerprint64(self.url);
        let d = &self.record;
        rec.trace = d.trace;
        rec.span = d.span;
        rec.disposition = d.disposition;
        rec.status = d.status;
        rec.verdict = d.verdict;
        rec.explain = d.explain;
        rec.stages_ns = d.stages_ns;
        rec.total_ns = d.total_ns;
        rec.vtime_execute_ns = d.vtime_execute_ns;
        rec.vtime_encode_ns = d.vtime_encode_ns;
        rec.bytes_out = d.bytes_out;
        rec.points_out = d.points_out;
        rec.cost = d.cost;
        rec.admission = d.admission;
    }
}

/// Max tenant bytes a record stores before truncating.
pub const TENANT_BYTES: usize = 24;
/// Max url bytes a record stores before truncating.
pub const URL_BYTES: usize = 160;

/// Overwrite `dst` with the longest prefix of `src` that fits `cap` bytes
/// and ends on a char boundary; `true` when that cut anything off.
fn copy_prefix(dst: &mut String, src: &str, cap: usize) -> bool {
    let end = src.floor_char_boundary(cap);
    dst.clear();
    dst.push_str(&src[..end]);
    end < src.len()
}

/// The normalized plan fingerprint: FNV-1a folded over 8-byte chunks, so
/// hashing an 80-byte key costs ~10 multiplies. Identical normalized keys
/// — and therefore identical plans — collapse to one value whatever their
/// disposition. Always hashed from the full key, never from the prefix a
/// record stores.
pub fn fingerprint64(s: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let bytes = s.as_bytes();
    let mut h = OFFSET ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    (h ^ tail).wrapping_mul(PRIME)
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// Filters for [`QueryRecorder::recent`] — the `/debug/requests` query
/// parameters.
#[derive(Debug, Default, Clone)]
pub struct RecordFilter {
    /// Keep only this disposition.
    pub disposition: Option<Disposition>,
    /// Keep only records at least this many milliseconds end to end, wall
    /// or modelled. `/debug/requests` rejects a non-finite or negative one.
    pub min_ms: Option<f64>,
    /// Keep only this tenant.
    pub tenant: Option<String>,
    /// Newest-first result cap (default 50).
    pub limit: Option<usize>,
}

impl RecordFilter {
    fn matches(&self, rec: &RequestRecord) -> bool {
        self.disposition.is_none_or(|d| rec.disposition == d)
            && self.min_ms.is_none_or(|ms| rec.total_ms() >= ms || rec.modelled_ms() >= ms)
            && self.tenant.as_ref().is_none_or(|t| rec.tenant == *t)
    }
}

/// How many slow records stay pinned (oldest evicted).
const SLOW_PINNED: usize = 64;

/// The per-service flight recorder. Constructing one registers the
/// qlog/slow-query metrics (with `HELP` strings).
pub struct QueryRecorder {
    /// Slot `seq & mask` holds record `seq` until a later lap overwrites it.
    slots: Box<[Mutex<RequestRecord>]>,
    mask: u64,
    /// Next sequence number. A plain counter: the slot locks, not this,
    /// publish the records, so every access is `Relaxed`.
    head: AtomicU64,
    slow_ns: u64,
    dropped: AtomicU64,
    pinned: Mutex<VecDeque<RequestRecord>>,
    records_total: Arc<monster_obs::Counter>,
    dropped_total: Arc<monster_obs::Counter>,
    slow_total: Arc<monster_obs::Counter>,
    ratio_histos: [Arc<monster_obs::Histo>; 4],
}

impl QueryRecorder {
    /// A recorder with `capacity` ring slots (rounded up to a power of
    /// two, min 16) pinning records slower than `slow_ms` wall-or-modelled
    /// milliseconds.
    pub fn new(capacity: usize, slow_ms: f64) -> QueryRecorder {
        let cap = capacity.max(16).next_power_of_two();
        // Calibrate now, so that it never lands mid-request.
        ns_per_tick();
        let ratio_histos = RATIO_STAGES.map(|stage| {
            monster_obs::histo_help(
                &format!("monster_builder_cost_estimate_ratio{{stage=\"{stage}\"}}"),
                "Measured-over-estimated query cost per request, by cost stage; \
                 drift from 1.0 means the plan-time estimator admission trusts \
                 is mispricing queries.",
            )
        });
        QueryRecorder {
            slots: (0..cap)
                .map(|_| {
                    // Reserved once, overwritten in place ever after.
                    let mut slot = RequestRecord::blank();
                    slot.tenant.reserve(TENANT_BYTES);
                    slot.url.reserve(URL_BYTES);
                    Mutex::new(slot)
                })
                .collect(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            slow_ns: (slow_ms.max(0.0) * 1e6) as u64,
            dropped: AtomicU64::new(0),
            pinned: Mutex::new(VecDeque::with_capacity(SLOW_PINNED)),
            records_total: monster_obs::counter_help(
                "monster_builder_qlog_records_total",
                "Flight-recorder records captured on the query path.",
            ),
            dropped_total: monster_obs::counter_help(
                "monster_builder_qlog_dropped_total",
                "Flight-recorder records dropped because a concurrent writer \
                 lapped the ring onto the same slot.",
            ),
            slow_total: monster_obs::counter_help(
                "monster_builder_slow_queries_total",
                "Requests over the slow-query threshold, pinned in the slow log.",
            ),
            ratio_histos,
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records captured since construction.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped because their slot already held a newer one.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Capture one request; returns the record's sequence number and
    /// whether it crossed the slow-query threshold. One uncontended lock
    /// and an in-place overwrite — no heap (see the module docs).
    pub fn record(&self, d: &Draft<'_>) -> (u64, bool) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        (seq, self.write(seq, d))
    }

    /// Write `d` as record `seq` into `seq`'s slot, unless the slot already
    /// holds a newer record; returns whether `d` is slow.
    fn write(&self, seq: u64, d: &Draft<'_>) -> bool {
        let slow = self.is_slow(d);
        let pin = {
            let mut slot = self.slots[(seq & self.mask) as usize].lock();
            if slot.seq != NEVER && slot.seq > seq {
                // The ring lapped a full capacity between this writer's
                // `fetch_add` and its lock.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped_total.inc();
                return slow;
            }
            d.fill(&mut slot);
            slot.seq = seq;
            slot.slow = slow;
            slow.then(|| slot.clone())
        };

        // Everything below is off the common path: estimator-accuracy
        // histograms fire only when a request executed, the slow log only
        // past the threshold.
        if let Some(cost) = &d.record.cost {
            for (histo, ratio) in self.ratio_histos.iter().zip(cost.ratios()) {
                if let Some(ratio) = ratio {
                    histo.observe(ratio);
                }
            }
        }
        if let Some(rec) = pin {
            self.slow_total.inc();
            let mut pinned = self.pinned.lock();
            if pinned.len() == SLOW_PINNED {
                pinned.pop_front();
            }
            pinned.push_back(rec);
        }
        slow
    }

    /// Bring `monster_builder_qlog_records_total` up to date with the
    /// ring head. The hot path never touches the Prometheus counter —
    /// `head` already counts records, so the counter is reconciled here,
    /// at scrape/debug time, instead of costing an extra atomic RMW per
    /// request. Monotone: concurrent syncs can only add.
    pub fn sync_counters(&self) {
        let head = self.head.load(Ordering::Relaxed);
        let published = self.records_total.get();
        if head > published {
            self.records_total.add(head - published);
        }
    }

    /// Would this draft cross the slow-query threshold (wall *or*
    /// modelled time)?
    pub fn is_slow(&self, d: &Draft<'_>) -> bool {
        self.slow_ns > 0
            && (d.record.total_ns >= self.slow_ns
                || d.record.vtime_execute_ns + d.record.vtime_encode_ns >= self.slow_ns)
    }

    /// Clones of the live records `keep` accepts, newest first: walk back
    /// one lap from the head, one slot lock at a time. A slot whose stored
    /// sequence number is not the cursor's is unwritten, mid-claim or
    /// already lapped — skipped.
    fn live<'s>(
        &'s self,
        keep: impl Fn(&RequestRecord) -> bool + 's,
    ) -> impl Iterator<Item = RequestRecord> + 's {
        let head = self.head.load(Ordering::Relaxed);
        let oldest = head.saturating_sub(self.slots.len() as u64);
        (oldest..head).rev().filter_map(move |seq| {
            let slot = self.slots[(seq & self.mask) as usize].lock();
            (slot.seq == seq && keep(&slot)).then(|| slot.clone())
        })
    }

    /// Newest-first records matching `filter`.
    pub fn recent(&self, filter: &RecordFilter) -> Vec<RequestRecord> {
        self.live(|rec| filter.matches(rec)).take(filter.limit.unwrap_or(50)).collect()
    }

    /// All live records carrying `trace`, newest first.
    pub fn by_trace(&self, trace: TraceId) -> Vec<RequestRecord> {
        self.live(|rec| rec.trace == trace).collect()
    }

    /// The pinned slow-query log, newest first.
    pub fn slow_log(&self) -> Vec<RequestRecord> {
        self.pinned.lock().iter().rev().cloned().collect()
    }

    /// The `GET /debug/requests` document.
    pub fn debug_json(&self, filter: &RecordFilter) -> Value {
        self.sync_counters();
        let requests: Vec<Value> = self.recent(filter).iter().map(|r| r.to_json()).collect();
        let slow: Vec<Value> = self.slow_log().iter().map(|r| r.to_json()).collect();
        jobj! {
            "capacity" => self.capacity() as i64,
            "recorded_total" => self.recorded() as i64,
            "dropped_total" => self.dropped() as i64,
            "slow_threshold_ms" => self.slow_ns as f64 / 1e6,
            "requests" => Value::Array(requests),
            "slow" => Value::Array(slow),
        }
    }
}

// ---------------------------------------------------------------------------
// Base64 (for the explain envelope's byte-exact payload)
// ---------------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (RFC 4648, padded). The explain envelope carries the
/// response payload through this so compressed bodies survive JSON.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { B64[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if chunk.len() > 2 { B64[n as usize & 63] as char } else { '=' });
    }
    out
}

/// Inverse of [`base64_encode`]; `None` on malformed input.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        Some(match c {
            b'A'..=b'Z' => (c - b'A') as u32,
            b'a'..=b'z' => (c - b'a' + 26) as u32,
            b'0'..=b'9' => (c - b'0' + 52) as u32,
            b'+' => 62,
            b'/' => 63,
            _ => return None,
        })
    }
    let s = s.as_bytes();
    if !s.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 4 * 3);
    for chunk in s.chunks(4) {
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || chunk[..4 - pad].contains(&b'=') {
            return None;
        }
        let mut n = 0u32;
        for &c in &chunk[..4 - pad] {
            n = (n << 6) | val(c)?;
        }
        n <<= 6 * pad;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft_with<'a>(url: &'a str, seq_hint: u64) -> Draft<'a> {
        let mut d = Draft::new(url, "anonymous", TraceId(seq_hint as u128 + 1), SpanId(7));
        d.record.disposition = Disposition::Hit;
        d.record.status = 200;
        d.record.verdict = CacheVerdict::Valid;
        d.record.total_ns = 1_000;
        d.record.stages_ns[Stage::Cache as usize] = 1_000;
        d.record.bytes_out = 42;
        d
    }

    #[test]
    fn record_roundtrips_every_field() {
        let rec = QueryRecorder::new(16, 0.0);
        let mut d = Draft::new("/v1/metrics?start=a&end=b", "tenant-x", TraceId(0xabcd), SpanId(9));
        d.record.disposition = Disposition::Miss;
        d.record.status = 200;
        d.record.verdict = CacheVerdict::Invalidated;
        d.record.explain = true;
        d.record.stages_ns = [1, 2, 3, 4, 5, 6, 7];
        d.record.total_ns = 21;
        d.record.vtime_execute_ns = 1_000_000;
        d.record.vtime_encode_ns = 2_000_000;
        d.record.bytes_out = 711;
        let est = QueryCost { points: 100, bytes: 800, queries: 5, ..QueryCost::default() };
        let act = QueryCost {
            points: 90,
            bytes: 750,
            queries: 5,
            blocks_cold: 2,
            bytes_cold: 64,
            ..QueryCost::default()
        };
        d.record.cost =
            Some(CostPair { estimated: est, actual: act, estimated_ns: 500, actual_ns: 450 });
        d.record.admission = Some(AdmissionSnapshot {
            decision: AdmissionDecision::Charged,
            estimated_secs: 1.5,
            tokens_before: 10.0,
            tokens_after: 8.5,
            rate: 2.0,
            burst: 20.0,
            retry_after_secs: 0,
        });
        rec.record(&d);
        let got = rec.recent(&RecordFilter::default());
        assert_eq!(got.len(), 1);
        let r = &got[0];
        assert_eq!(r.seq, 0);
        assert_eq!(r.disposition, Disposition::Miss);
        assert_eq!(r.status, 200);
        assert_eq!(r.trace, TraceId(0xabcd));
        assert_eq!(r.span, SpanId(9));
        assert_eq!(r.fingerprint, fingerprint64("/v1/metrics?start=a&end=b"));
        assert_eq!(r.tenant, "tenant-x");
        assert_eq!(r.url, "/v1/metrics?start=a&end=b");
        assert!(r.explain && !r.truncated);
        assert_eq!(r.stages_ns, [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(r.vtime_execute_ns, 1_000_000);
        assert_eq!(r.bytes_out, 711);
        assert_eq!(r.verdict, CacheVerdict::Invalidated);
        let cost = r.cost.expect("cost present");
        assert_eq!(cost.actual.bytes_cold, 64);
        assert_eq!(cost.estimated.points, 100);
        let adm = r.admission.expect("admission present");
        assert_eq!(adm.decision, AdmissionDecision::Charged);
        assert_eq!(adm.tokens_after, 8.5);
    }

    #[test]
    fn ring_recycles_oldest_slots() {
        let rec = QueryRecorder::new(16, 0.0);
        for i in 0..40u64 {
            rec.record(&draft_with("/u", i));
        }
        let all = rec.recent(&RecordFilter { limit: Some(100), ..RecordFilter::default() });
        assert_eq!(all.len(), 16, "ring holds exactly capacity");
        assert_eq!(all[0].seq, 39, "newest first");
        assert_eq!(all.last().unwrap().seq, 24, "oldest surviving = head - capacity");
        assert_eq!(rec.recorded(), 40);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn an_older_sequence_number_never_overwrites_a_newer_one() {
        // A writer descheduled between taking its number and its slot's
        // lock, for a whole lap: 5 and 21 share slot 5 of 16.
        let rec = QueryRecorder::new(16, 0.0);
        let slot_5 = || {
            let slot = rec.slots[5].lock();
            (slot.seq, slot.url.clone())
        };
        rec.write(21, &draft_with("/newer", 0));
        rec.write(5, &draft_with("/older", 1));
        assert_eq!(slot_5(), (21, "/newer".to_string()));
        assert_eq!(rec.dropped(), 1, "that, and only that, is a drop");
        rec.write(37, &draft_with("/newest", 2));
        assert_eq!(slot_5(), (37, "/newest".to_string()));
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn filters_match_disposition_tenant_and_min_ms() {
        let rec = QueryRecorder::new(64, 0.0);
        let mut a = draft_with("/a", 0);
        a.record.disposition = Disposition::Miss;
        a.record.total_ns = 5_000_000; // 5 ms
        rec.record(&a);
        let mut b = draft_with("/b", 1);
        b.tenant = "rogue";
        rec.record(&b);
        rec.record(&draft_with("/c", 2));

        let miss = rec.recent(&RecordFilter {
            disposition: Some(Disposition::Miss),
            ..RecordFilter::default()
        });
        assert_eq!(miss.len(), 1);
        assert_eq!(miss[0].url, "/a");

        let slow = rec.recent(&RecordFilter { min_ms: Some(1.0), ..RecordFilter::default() });
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].url, "/a");

        let rogue = rec
            .recent(&RecordFilter { tenant: Some("rogue".to_string()), ..RecordFilter::default() });
        assert_eq!(rogue.len(), 1);
        assert_eq!(rogue[0].url, "/b");

        let limited = rec.recent(&RecordFilter { limit: Some(2), ..RecordFilter::default() });
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn by_trace_finds_all_records_of_a_trace() {
        let rec = QueryRecorder::new(64, 0.0);
        for i in 0..6u64 {
            let mut d = draft_with("/t", i);
            d.record.trace = TraceId(if i % 2 == 0 { 0x11 } else { 0x22 });
            rec.record(&d);
        }
        let found = rec.by_trace(TraceId(0x11));
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|r| r.trace == TraceId(0x11)));
        assert!(rec.by_trace(TraceId(0x99)).is_empty());
    }

    #[test]
    fn slow_records_pin_and_survive_ring_recycling() {
        let rec = QueryRecorder::new(16, 1.0); // 1 ms threshold
        let mut slow = draft_with("/slow", 0);
        slow.record.disposition = Disposition::Miss;
        slow.record.vtime_execute_ns = 5_000_000; // 5 ms modelled
        rec.record(&slow);
        // Lap the ring twice; the pinned record must survive.
        for i in 0..40u64 {
            rec.record(&draft_with("/fast", i));
        }
        let pinned = rec.slow_log();
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned[0].url, "/slow");
        assert!(pinned[0].slow);
        let live = rec.recent(&RecordFilter { limit: Some(100), ..RecordFilter::default() });
        assert!(live.iter().all(|r| r.url != "/slow"), "ring copy recycled");
    }

    #[test]
    fn long_strings_truncate_and_flag() {
        let rec = QueryRecorder::new(16, 0.0);
        let long_url = format!("/v1/metrics?{}", "x".repeat(400));
        let mut d = draft_with(&long_url, 0);
        d.tenant = "a-tenant-name-well-beyond-twenty-four-bytes";
        rec.record(&d);
        let got = &rec.recent(&RecordFilter::default())[0];
        assert!(got.truncated);
        assert_eq!(got.url.len(), URL_BYTES);
        assert_eq!(got.tenant.len(), TENANT_BYTES);
        assert!(long_url.starts_with(&got.url));
        assert_eq!(got.fingerprint, fingerprint64(&long_url), "hashed from the full key");

        // Non-ASCII: the cut backs off to a char boundary instead of
        // splitting a char (159 ASCII bytes, then two-byte chars: the
        // 160-byte limit falls inside the first).
        let accented = format!("/v1/metrics?{}{}", "x".repeat(147), "é".repeat(40));
        rec.record(&draft_with(&accented, 1));
        let got = &rec.recent(&RecordFilter::default())[0];
        assert!(got.truncated);
        assert_eq!(
            got.url.len(),
            URL_BYTES - 1,
            "a byte short of the limit, not a char cut in two"
        );
        assert!(accented.starts_with(&got.url));
        assert_eq!(got.fingerprint, fingerprint64(&accented));
        // At most the limit is not truncation.
        let exact = "y".repeat(URL_BYTES);
        rec.record(&draft_with(&exact, 2));
        let got = &rec.recent(&RecordFilter::default())[0];
        assert!(!got.truncated && got.url == exact);
    }

    #[test]
    fn fingerprint_is_stable_and_key_sensitive() {
        let a = fingerprint64("/v1/metrics?start=1&end=2");
        assert_eq!(a, fingerprint64("/v1/metrics?start=1&end=2"));
        assert_ne!(a, fingerprint64("/v1/metrics?start=1&end=3"));
        assert_ne!(fingerprint64(""), fingerprint64("\0"));
    }

    #[test]
    fn base64_roundtrips_arbitrary_bytes() {
        for len in [0usize, 1, 2, 3, 4, 57, 256] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let enc = base64_encode(&data);
            assert_eq!(base64_decode(&enc).expect("decodes"), data, "len {len}");
        }
        assert_eq!(base64_encode(b"Mon"), "TW9u");
        assert_eq!(base64_encode(b"M"), "TQ==");
        assert!(base64_decode("bad!").is_none());
        assert!(base64_decode("abc").is_none());
    }

    #[test]
    fn lap_clock_charges_each_lap_to_its_stage_and_sums() {
        let mut clock = LapClock::start();
        clock.lap(Stage::Parse);
        std::thread::sleep(std::time::Duration::from_millis(5));
        clock.lap(Stage::Execute);
        clock.lap(Stage::Encode);
        std::thread::sleep(std::time::Duration::from_millis(1));
        clock.lap(Stage::Execute); // accumulates
        let (stages, total) = clock.finish();
        let execute = stages[Stage::Execute as usize];
        assert!(execute > 3_000_000, "6 ms of sleep measured as {execute} ns");
        assert!(execute < 1_000_000_000, "6 ms of sleep measured as {execute} ns");
        assert!(stages[Stage::Parse as usize] < 1_000_000);
        assert_eq!(stages[Stage::Compress as usize], 0, "never lapped");
        assert_eq!(total, stages.iter().sum::<u64>());
    }

    /// A draft whose every field is a function of `id` (and `url`, which
    /// `whole` recomputes from the id too).
    fn draft_of<'a>(id: u64, url: &'a str, tenant: &'a str) -> Draft<'a> {
        let mut d = Draft::new(url, tenant, TraceId(id as u128 * 3 + 1), SpanId(id ^ 0xa5a5));
        d.record.disposition =
            if id.is_multiple_of(2) { Disposition::Hit } else { Disposition::Miss };
        d.record.status = (id % 500) as u16;
        d.record.verdict =
            if id.is_multiple_of(3) { CacheVerdict::Valid } else { CacheVerdict::Absent };
        d.record.explain = id.is_multiple_of(5);
        d.record.stages_ns = std::array::from_fn(|i| id + i as u64);
        d.record.total_ns = id * 7;
        d.record.vtime_execute_ns = id * 11;
        d.record.vtime_encode_ns = id * 13;
        d.record.bytes_out = id * 17;
        // Executed records carry the wide suffix; the rest must read None.
        if id % 2 == 1 {
            let cost = |k: usize| QueryCost {
                points: id as usize + k,
                bytes: 2 * id as usize + k,
                queries: k,
                ..QueryCost::default()
            };
            d.record.cost = Some(CostPair {
                estimated: cost(1),
                actual: cost(2),
                estimated_ns: id + 1,
                actual_ns: id + 2,
            });
            d.record.admission = Some(AdmissionSnapshot {
                decision: AdmissionDecision::Charged,
                estimated_secs: id as f64,
                tokens_before: id as f64 + 1.0,
                tokens_after: id as f64 - 1.0,
                rate: 2.0,
                burst: 20.0,
                retry_after_secs: id % 9,
            });
        }
        d
    }

    fn strings_of(id: u64) -> (String, String) {
        // Lengths vary with the id so a torn copy cannot pass for whole.
        (format!("/v1/metrics?id={id}&pad={}", "p".repeat((id % 40) as usize)), format!("t{id}"))
    }

    /// `rec` is exactly what `draft_of(id)` recorded — no field from any
    /// other record.
    fn whole(rec: &RequestRecord, id: u64) -> bool {
        let (url, tenant) = strings_of(id);
        let mut want = RequestRecord::blank();
        draft_of(id, &url, &tenant).fill(&mut want);
        (want.seq, want.slow) = (rec.seq, rec.slow);
        *rec == want
    }

    #[test]
    fn concurrent_writers_and_a_reader_see_only_whole_records() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 20_000;
        // A 16-slot ring laps every 16 records: writers collide on slots
        // constantly and the reader clones slots that are being rewritten.
        let rec = QueryRecorder::new(16, 0.0);
        let writing = std::sync::atomic::AtomicBool::new(true);
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        // The id rides in `span`, the one field `whole` needs to find the
        // rest; everything else must then agree with it.
        let id_of = |r: &RequestRecord| r.span.0 ^ 0xa5a5;
        let check = |records: &[RequestRecord]| {
            for r in records {
                assert!(whole(r, id_of(r)), "torn record: {r:?}");
            }
            assert!(records.windows(2).all(|w| w[0].seq > w[1].seq), "newest first");
        };
        let reads = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (rec, start) = (&rec, &start);
                    s.spawn(move || {
                        start.wait();
                        for id in w * PER_WRITER..(w + 1) * PER_WRITER {
                            let (url, tenant) = strings_of(id);
                            rec.record(&draft_of(id, &url, &tenant));
                        }
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                let mut reads = 0u64;
                while writing.load(Ordering::SeqCst) {
                    let recent = rec.recent(&RecordFilter::default());
                    check(&recent);
                    if let Some(r) = recent.first() {
                        check(&rec.by_trace(r.trace));
                    }
                    let doc = rec.debug_json(&RecordFilter::default());
                    assert!(doc.get("requests").unwrap().as_array().is_some());
                    reads += 1;
                }
                reads
            });
            for w in writers {
                w.join().expect("writer panicked");
            }
            writing.store(false, Ordering::SeqCst);
            reader.join().expect("reader panicked")
        });
        assert!(reads > 0, "the reader ran beside the writers");
        assert_eq!(rec.recorded(), WRITERS * PER_WRITER);
        // An older sequence number never overwrites a newer one, so once
        // every writer is done each slot holds its last lap.
        let last = rec.recent(&RecordFilter { limit: Some(16), ..RecordFilter::default() });
        let seqs: Vec<u64> = last.iter().map(|r| r.seq).collect();
        let head = WRITERS * PER_WRITER;
        assert_eq!(seqs, (head - 16..head).rev().collect::<Vec<_>>());
        check(&last);
    }

    #[test]
    fn record_json_shape_carries_cost_and_admission() {
        let rec = QueryRecorder::new(16, 0.0);
        let mut d = draft_with("/v1/metrics?x=1", 0);
        d.record.disposition = Disposition::Rejected;
        d.record.status = 429;
        d.record.admission = Some(AdmissionSnapshot {
            decision: AdmissionDecision::RejectedTenantBudget,
            estimated_secs: 3.0,
            tokens_before: 1.0,
            tokens_after: 1.0,
            rate: 2.0,
            burst: 20.0,
            retry_after_secs: 1,
        });
        rec.record(&d);
        let doc = rec.debug_json(&RecordFilter::default());
        assert_eq!(doc.get("capacity").unwrap().as_i64().unwrap(), 16);
        let reqs = doc.get("requests").unwrap().as_array().unwrap();
        assert_eq!(reqs.len(), 1);
        let adm = reqs[0].get("admission").expect("admission block");
        assert_eq!(adm.get("decision").unwrap().as_str().unwrap(), "rejected_tenant_budget");
        assert_eq!(adm.get("retry_after_secs").unwrap().as_i64().unwrap(), 1);
        assert!(reqs[0].get("cost").is_none(), "no cost block without execution");
    }
}
