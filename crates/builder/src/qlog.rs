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
//! # Hot-path design: word-atomic slots, no locks, no allocation
//!
//! The warm cache-hit path serves in under a microsecond, so the recorder
//! budget is tens of nanoseconds. Each ring slot is a fixed array of
//! `AtomicU64` words guarded by a per-slot seqlock version counter:
//!
//! * a writer claims the slot with one CAS (odd version = write in
//!   progress), stores only the words its disposition needs with relaxed
//!   ordering, and releases with an even version — no mutex, no heap;
//! * a reader (debug endpoints; rare) snapshots the words and retries if
//!   the version moved underneath it. Because every word is an atomic,
//!   a torn read is impossible by construction — the version check only
//!   guards *cross-word* consistency;
//! * a writer that loses the claim CAS (another writer lapped the ring
//!   onto the same slot) drops its record and bumps
//!   `monster_builder_qlog_dropped_total` rather than spin.
//!
//! Slots are recycled in place — the ring never allocates after
//! construction, which is what keeps recording on the warm cache-hit path
//! at zero allocations (asserted by the counting-allocator test in
//! `tests/cache_zero_copy.rs`). Wall timings use raw TSC reads on x86-64
//! (two orders of magnitude cheaper than a `clock_gettime` pair),
//! calibrated once per process against [`std::time::Instant`].

use monster_json::{jobj, Value};
use monster_obs::{SpanId, TraceId};
use monster_tsdb::{QueryCost, COST_WORDS};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Cheap wall-clock ticks
// ---------------------------------------------------------------------------

/// Nanoseconds per TSC tick, calibrated once per process.
struct Ticker {
    ns_per_tick: f64,
}

static TICKER: OnceLock<Ticker> = OnceLock::new();

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

fn ticker() -> &'static Ticker {
    TICKER.get_or_init(|| {
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
            Ticker { ns_per_tick: wall.elapsed().as_nanos() as f64 / ticks as f64 }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Ticker { ns_per_tick: 1.0 }
        }
    })
}

/// An opaque timestamp in recorder ticks; subtract two with
/// [`ticks_to_ns`]. Reading one costs ~7 ns on x86-64.
#[inline]
pub fn ticks_now() -> u64 {
    raw_ticks()
}

/// Convert a tick delta to nanoseconds.
pub fn ticks_to_ns(delta: u64) -> u64 {
    (delta as f64 * ticker().ns_per_tick) as u64
}

// ---------------------------------------------------------------------------
// Record vocabulary
// ---------------------------------------------------------------------------

/// How a request was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Execution failed (500).
    Error,
}

impl Disposition {
    fn code(self) -> u64 {
        match self {
            Disposition::Hit => 0,
            Disposition::Miss => 1,
            Disposition::Coalesced => 2,
            Disposition::Negative => 3,
            Disposition::Rejected => 4,
            Disposition::Error => 5,
        }
    }

    fn from_code(c: u64) -> Disposition {
        match c {
            0 => Disposition::Hit,
            1 => Disposition::Miss,
            2 => Disposition::Coalesced,
            3 => Disposition::Negative,
            4 => Disposition::Rejected,
            _ => Disposition::Error,
        }
    }

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
        Some(match s {
            "hit" => Disposition::Hit,
            "miss" => Disposition::Miss,
            "coalesced" => Disposition::Coalesced,
            "negative" => Disposition::Negative,
            "rejected" => Disposition::Rejected,
            "error" => Disposition::Error,
            _ => return None,
        })
    }
}

/// What the response cache said about this request's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheVerdict {
    /// A positive entry existed and its watermark snapshot validated.
    Valid,
    /// A negative (deterministic-400) entry was served.
    Negative,
    /// No entry for this key.
    Absent,
    /// An entry existed but a write/retention event invalidated it.
    Invalidated,
}

impl CacheVerdict {
    fn code(self) -> u64 {
        match self {
            CacheVerdict::Valid => 0,
            CacheVerdict::Negative => 1,
            CacheVerdict::Absent => 2,
            CacheVerdict::Invalidated => 3,
        }
    }

    fn from_code(c: u64) -> CacheVerdict {
        match c {
            0 => CacheVerdict::Valid,
            1 => CacheVerdict::Negative,
            3 => CacheVerdict::Invalidated,
            _ => CacheVerdict::Absent,
        }
    }

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
    fn code(self) -> u64 {
        match self {
            AdmissionDecision::Disabled => 0,
            AdmissionDecision::Cheap => 1,
            AdmissionDecision::Charged => 2,
            AdmissionDecision::RejectedOverBudget => 3,
            AdmissionDecision::RejectedTenantBudget => 4,
        }
    }

    fn from_code(c: u64) -> AdmissionDecision {
        match c {
            1 => AdmissionDecision::Cheap,
            2 => AdmissionDecision::Charged,
            3 => AdmissionDecision::RejectedOverBudget,
            4 => AdmissionDecision::RejectedTenantBudget,
            _ => AdmissionDecision::Disabled,
        }
    }

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

/// The pipeline stages a record times. Indexes into
/// [`RequestRecord::stages_ns`].
pub const STAGES: [&str; 7] =
    ["parse", "plan", "cache", "admission", "execute", "encode", "compress"];

/// Stage index constants (see [`STAGES`]).
pub const STAGE_PARSE: usize = 0;
/// Plan building + rollup rerouting + cost estimation.
pub const STAGE_PLAN: usize = 1;
/// Response-cache probe. On a hit this is the only populated stage and it
/// includes serving the shared body (probe dominates).
pub const STAGE_CACHE: usize = 2;
/// Admission decision (token-bucket refill + debit).
pub const STAGE_ADMISSION: usize = 3;
/// Storage execution: the plan's query batch (`exec::run`), nothing else.
pub const STAGE_EXECUTE: usize = 4;
/// Rendering the body (`exec::render`), header stamping, the cache insert.
pub const STAGE_ENCODE: usize = 5;
/// Deflating the rendered body (`compress=true` misses only).
pub const STAGE_COMPRESS: usize = 6;

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

/// One decoded flight-recorder record — the owned, reader-side form.
#[derive(Debug, Clone, PartialEq)]
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
    /// `true` when `tenant`/`url` exceeded the slot's fixed capacity and
    /// were truncated.
    pub truncated: bool,
    /// Whether the caller asked for `?explain=true`.
    pub explain: bool,
    /// Whether this record crossed the slow-query threshold (also pinned
    /// in the slow log).
    pub slow: bool,
    /// Per-stage wall nanoseconds, indexed by the `STAGE_*` constants.
    pub stages_ns: [u64; STAGES.len()],
    /// End-to-end wall nanoseconds inside the handler.
    pub total_ns: u64,
    /// Modelled (vtime) execution nanoseconds, when executed.
    pub vtime_execute_ns: u64,
    /// Modelled (vtime) marshalling nanoseconds, when executed.
    pub vtime_encode_ns: u64,
    /// Response body bytes (the payload, not any explain envelope).
    pub bytes_out: u64,
    /// What the cache said about this key.
    pub verdict: CacheVerdict,
    /// Estimated-vs-actual cost, for requests that executed.
    pub cost: Option<CostPair>,
    /// Admission math, for requests that reached admission.
    pub admission: Option<AdmissionSnapshot>,
}

impl RequestRecord {
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
            "wall_ms" => jobj! {
                "total" => ms(self.total_ns),
                "parse" => ms(self.stages_ns[STAGE_PARSE]),
                "plan" => ms(self.stages_ns[STAGE_PLAN]),
                "cache" => ms(self.stages_ns[STAGE_CACHE]),
                "admission" => ms(self.stages_ns[STAGE_ADMISSION]),
                "execute" => ms(self.stages_ns[STAGE_EXECUTE]),
                "encode" => ms(self.stages_ns[STAGE_ENCODE]),
                "compress" => ms(self.stages_ns[STAGE_COMPRESS]),
            },
            "vtime_ms" => jobj! {
                "execute" => ms(self.vtime_execute_ns),
                "encode" => ms(self.vtime_encode_ns),
                "total" => self.modelled_ms(),
            },
            "cache" => jobj! { "verdict" => self.verdict.as_str() },
        };
        if let Some(cost) = &self.cost {
            let ratio = |act: u64, est: u64| {
                if est == 0 {
                    Value::Null
                } else {
                    Value::from(act as f64 / est as f64)
                }
            };
            let obj = doc.as_object_mut().expect("record doc is an object");
            obj.insert(
                "cost".to_string(),
                jobj! {
                    "estimated" => cost.estimated.to_json(),
                    "actual" => cost.actual.to_json(),
                    "estimated_modelled_ms" => ms(cost.estimated_ns),
                    "actual_modelled_ms" => ms(cost.actual_ns),
                    "ratio" => jobj! {
                        "seconds" => ratio(cost.actual_ns, cost.estimated_ns),
                        "points" => ratio(cost.actual.points as u64, cost.estimated.points as u64),
                        "bytes" => ratio(cost.actual.bytes as u64, cost.estimated.bytes as u64),
                        "blocks" => ratio(cost.actual.blocks as u64, cost.estimated.blocks as u64),
                    },
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

/// What the service hands the recorder: borrowed strings, stack data, no
/// heap. [`QueryRecorder::record`] copies it into a recycled slot.
#[derive(Debug, Clone, Copy)]
pub struct Draft<'a> {
    /// Normalized request key (path + query, `explain` stripped).
    pub url: &'a str,
    /// Tenant header value (or `"anonymous"`).
    pub tenant: &'a str,
    /// Trace id of the request's server-side span.
    pub trace: TraceId,
    /// Span id of the request's server-side span.
    pub span: SpanId,
    /// Normalized plan fingerprint ([`fingerprint64`] of `url`), or 0 to
    /// let the ring decoder derive it from the stored key at read time.
    pub fingerprint: u64,
    /// Final disposition.
    pub disposition: Disposition,
    /// HTTP status served.
    pub status: u16,
    /// Cache probe verdict.
    pub verdict: CacheVerdict,
    /// Whether `?explain=true` was requested.
    pub explain: bool,
    /// Per-stage wall nanoseconds.
    pub stages_ns: [u64; STAGES.len()],
    /// End-to-end wall nanoseconds.
    pub total_ns: u64,
    /// Modelled execution nanoseconds.
    pub vtime_execute_ns: u64,
    /// Modelled marshalling nanoseconds.
    pub vtime_encode_ns: u64,
    /// Payload bytes out.
    pub bytes_out: u64,
    /// Estimated-vs-actual costs, when executed.
    pub cost: Option<CostPair>,
    /// Admission math, when evaluated.
    pub admission: Option<AdmissionSnapshot>,
}

impl<'a> Draft<'a> {
    /// A draft with everything zeroed except identity.
    pub fn new(url: &'a str, tenant: &'a str, trace: TraceId, span: SpanId) -> Draft<'a> {
        Draft {
            url,
            tenant,
            trace,
            span,
            fingerprint: 0,
            disposition: Disposition::Error,
            status: 0,
            verdict: CacheVerdict::Absent,
            explain: false,
            stages_ns: [0; STAGES.len()],
            total_ns: 0,
            vtime_execute_ns: 0,
            vtime_encode_ns: 0,
            bytes_out: 0,
            cost: None,
            admission: None,
        }
    }

    /// Materialize the owned record the `?explain=true` envelope embeds
    /// (the ring stores the same data in word form).
    pub fn to_record(&self, seq: u64, slow: bool) -> RequestRecord {
        RequestRecord {
            seq,
            disposition: self.disposition,
            status: self.status,
            trace: self.trace,
            span: self.span,
            fingerprint: self.fingerprint,
            tenant: self.tenant.to_string(),
            url: self.url.to_string(),
            truncated: self.tenant.len() > TENANT_BYTES || self.url.len() > URL_BYTES,
            explain: self.explain,
            slow,
            stages_ns: self.stages_ns,
            total_ns: self.total_ns,
            vtime_execute_ns: self.vtime_execute_ns,
            vtime_encode_ns: self.vtime_encode_ns,
            bytes_out: self.bytes_out,
            verdict: self.verdict,
            cost: self.cost,
            admission: self.admission,
        }
    }
}

/// The normalized plan fingerprint: FNV-1a folded over 8-byte chunks, so
/// hashing an 80-byte key costs ~10 multiplies. Identical normalized keys
/// — and therefore identical plans — collapse to one value whatever their
/// disposition. The hot path never computes it: ring records store 0 and
/// the decoder derives it from the stored key at read time; only the
/// opt-in explain path (and the slow-log pin) hash eagerly.
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
// Slot layout
// ---------------------------------------------------------------------------

const TENANT_WORDS: usize = 3;
const URL_WORDS: usize = 20;
/// Max tenant bytes a slot stores before truncating.
pub const TENANT_BYTES: usize = TENANT_WORDS * 8;
/// Max url bytes a slot stores before truncating.
pub const URL_BYTES: usize = URL_WORDS * 8;

// Word layout. Every disposition writes the prefix up through the url
// words; only executed/priced requests write the cost and admission
// suffix. Keeping the universally-written words contiguous at the front
// means the hot (cache-hit) write touches one run of cache lines — see
// `HOT_PREFIX_LINES`.
const W_SEQ: usize = 0;
const W_META: usize = 1; // disposition | status<<8 | flags<<24 | verdict<<32 | adm<<40 | tlen<<48 | ulen<<56
const W_TRACE_HI: usize = 2;
const W_TRACE_LO: usize = 3;
const W_SPAN: usize = 4;
const W_FP: usize = 5;
const W_STAGE0: usize = 6; // ..=12
const W_TOTAL: usize = 13;
const W_VT_EXEC: usize = 14;
const W_VT_ENC: usize = 15;
const W_BYTES_OUT: usize = 16;
const W_TENANT0: usize = 17; // ..=19
const W_URL0: usize = 20; // ..=39
const W_EST0: usize = 40; // ..=49
const W_EST_NS: usize = 50;
const W_ACT0: usize = 51; // ..=60
const W_ACT_NS: usize = 61;
const W_ADM_EST: usize = 62;
const W_ADM_BEFORE: usize = 63;
const W_ADM_AFTER: usize = 64;
const W_ADM_RATE: usize = 65;
const W_ADM_BURST: usize = 66;
const W_ADM_RETRY: usize = 67;
const SLOT_WORDS: usize = W_ADM_RETRY + 1;

/// Cache lines covering the slot version plus the universally-written
/// word prefix (`W_SEQ..=W_URL0 + URL_WORDS`) — what `prefetch_next`
/// warms for the common dispositions.
const HOT_PREFIX_LINES: usize = (8 + W_EST0 * 8).div_ceil(64);

const FLAG_COST: u64 = 1;
const FLAG_ADMISSION: u64 = 2;
const FLAG_EXPLAIN: u64 = 4;
const FLAG_SLOW: u64 = 8;
const FLAG_TRUNCATED: u64 = 16;

struct Slot {
    /// Seqlock: odd while a writer owns the slot.
    version: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot { version: AtomicU64::new(0), words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// Pack a string into word-atomic storage; returns the stored length.
#[inline]
fn store_str(words: &[AtomicU64], s: &str, cap_bytes: usize) -> usize {
    let bytes = &s.as_bytes()[..s.len().min(cap_bytes)];
    let mut chunks = bytes.chunks_exact(8);
    let mut w = words.iter();
    for chunk in chunks.by_ref() {
        let word = u64::from_le_bytes(chunk.try_into().unwrap());
        w.next().unwrap().store(word, Ordering::Relaxed);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = 0u64;
        for (i, &b) in tail.iter().enumerate() {
            word |= (b as u64) << (8 * i);
        }
        w.next().unwrap().store(word, Ordering::Relaxed);
    }
    bytes.len()
}

fn load_str(words: &[u64], len: usize) -> String {
    let mut out = Vec::with_capacity(len);
    for (i, w) in words.iter().enumerate() {
        for b in 0..8 {
            let pos = i * 8 + b;
            if pos >= len {
                break;
            }
            out.push((w >> (8 * b)) as u8);
        }
    }
    String::from_utf8_lossy(&out).into_owned()
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
    /// Keep only records at least this many wall milliseconds end to end.
    pub min_ms: Option<f64>,
    /// Keep only this tenant.
    pub tenant: Option<String>,
    /// Newest-first result cap (default 50).
    pub limit: Option<usize>,
}

/// How many slow records stay pinned (oldest evicted).
const SLOW_PINNED: usize = 64;

/// The per-service flight recorder. Constructing one registers the
/// qlog/slow-query metrics (with `HELP` strings); a service with the
/// recorder disabled never constructs it, so those series never appear in
/// the exposition.
pub struct QueryRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    slow_ns: u64,
    dropped: AtomicU64,
    pinned: Mutex<VecDeque<RequestRecord>>,
    records_total: Arc<monster_obs::Counter>,
    dropped_total: Arc<monster_obs::Counter>,
    slow_total: Arc<monster_obs::Counter>,
    ratio_histos: [Arc<monster_obs::Histo>; 4],
}

/// Ratio histogram stage labels, index-aligned with
/// `QueryRecorder::ratio_histos`.
pub const RATIO_STAGES: [&str; 4] = ["seconds", "points", "bytes", "blocks"];

impl QueryRecorder {
    /// A recorder with `capacity` ring slots (rounded up to a power of
    /// two, min 16) pinning records slower than `slow_ms` wall-or-modelled
    /// milliseconds.
    pub fn new(capacity: usize, slow_ms: f64) -> QueryRecorder {
        let cap = capacity.max(16).next_power_of_two();
        // Touch the ticker once so calibration never lands mid-request.
        let _ = ticker();
        let ratio_histos = RATIO_STAGES.map(|stage| {
            monster_obs::histo_help(
                &format!("monster_builder_cost_estimate_ratio{{stage=\"{stage}\"}}"),
                "Measured-over-estimated query cost per request, by cost stage; \
                 drift from 1.0 means the plan-time estimator admission trusts \
                 is mispricing queries.",
            )
        });
        QueryRecorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
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

    /// Records dropped to a lapped-writer collision.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Hint the cache that the slot the *next* [`record`](Self::record)
    /// call will claim is about to be written. The ring's working set
    /// (capacity × ~0.5 KiB) can dwarf L1/L2, so by the time a slot comes
    /// around again its lines are cold — without this, every record pays
    /// read-for-ownership misses on the hot path. Called at request
    /// entry, the prefetch overlaps the entire serve. Only the
    /// universally-written word prefix is warmed; the cost/admission
    /// suffix belongs to executed requests, which run at micro- not
    /// nanosecond scale. Racing another writer to the slot is harmless: a
    /// prefetch is only a hint.
    #[inline]
    pub fn prefetch_next(&self) {
        #[cfg(target_arch = "x86_64")]
        {
            let slot = &self.slots[(self.head.load(Ordering::Relaxed) & self.mask) as usize];
            let base = slot as *const Slot as *const i8;
            for line in 0..HOT_PREFIX_LINES {
                // SAFETY: every address in [base, base + size_of::<Slot>())
                // lies inside the `slot` allocation; prefetch has no
                // architectural effect regardless.
                unsafe {
                    core::arch::x86_64::_mm_prefetch(
                        base.add(line * 64),
                        core::arch::x86_64::_MM_HINT_T0,
                    )
                };
            }
        }
    }

    /// Capture one request; returns the record's sequence number and
    /// whether it crossed the slow-query threshold. The common
    /// (cache-hit) disposition stores ~30 words under a single
    /// CAS-claimed seqlock — no locks, no heap; see the module docs for
    /// the budget arithmetic.
    pub fn record(&self, d: &Draft<'_>) -> (u64, bool) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        let v = slot.version.load(Ordering::Relaxed);
        if v & 1 == 1
            || slot
                .version
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            // Another writer owns this slot (the ring lapped a full
            // capacity while it was mid-write). Debug data is best-effort:
            // drop rather than spin on the hot path.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.dropped_total.inc();
            return (seq, self.is_slow(d));
        }
        let w = &slot.words;
        let tlen = store_str(&w[W_TENANT0..W_TENANT0 + TENANT_WORDS], d.tenant, TENANT_BYTES);
        let ulen = store_str(&w[W_URL0..W_URL0 + URL_WORDS], d.url, URL_BYTES);
        let truncated = d.tenant.len() > TENANT_BYTES || d.url.len() > URL_BYTES;
        let slow = self.is_slow(d);
        let mut flags = 0u64;
        if d.explain {
            flags |= FLAG_EXPLAIN;
        }
        if slow {
            flags |= FLAG_SLOW;
        }
        if truncated {
            flags |= FLAG_TRUNCATED;
        }
        let adm_code = d.admission.map_or(0, |a| a.decision.code());
        if let Some(cost) = &d.cost {
            flags |= FLAG_COST;
            for (i, word) in cost.estimated.to_words().iter().enumerate() {
                w[W_EST0 + i].store(*word, Ordering::Relaxed);
            }
            for (i, word) in cost.actual.to_words().iter().enumerate() {
                w[W_ACT0 + i].store(*word, Ordering::Relaxed);
            }
            w[W_EST_NS].store(cost.estimated_ns, Ordering::Relaxed);
            w[W_ACT_NS].store(cost.actual_ns, Ordering::Relaxed);
        }
        if let Some(adm) = &d.admission {
            flags |= FLAG_ADMISSION;
            w[W_ADM_EST].store(adm.estimated_secs.to_bits(), Ordering::Relaxed);
            w[W_ADM_BEFORE].store(adm.tokens_before.to_bits(), Ordering::Relaxed);
            w[W_ADM_AFTER].store(adm.tokens_after.to_bits(), Ordering::Relaxed);
            w[W_ADM_RATE].store(adm.rate.to_bits(), Ordering::Relaxed);
            w[W_ADM_BURST].store(adm.burst.to_bits(), Ordering::Relaxed);
            w[W_ADM_RETRY].store(adm.retry_after_secs, Ordering::Relaxed);
        }
        w[W_SEQ].store(seq, Ordering::Relaxed);
        let meta = d.disposition.code()
            | (d.status as u64) << 8
            | flags << 24
            | d.verdict.code() << 32
            | adm_code << 40
            | (tlen as u64) << 48
            | (ulen as u64) << 56;
        w[W_META].store(meta, Ordering::Relaxed);
        w[W_TRACE_HI].store((d.trace.0 >> 64) as u64, Ordering::Relaxed);
        w[W_TRACE_LO].store(d.trace.0 as u64, Ordering::Relaxed);
        w[W_SPAN].store(d.span.0, Ordering::Relaxed);
        w[W_FP].store(d.fingerprint, Ordering::Relaxed);
        for (i, ns) in d.stages_ns.iter().enumerate() {
            w[W_STAGE0 + i].store(*ns, Ordering::Relaxed);
        }
        w[W_TOTAL].store(d.total_ns, Ordering::Relaxed);
        w[W_VT_EXEC].store(d.vtime_execute_ns, Ordering::Relaxed);
        w[W_VT_ENC].store(d.vtime_encode_ns, Ordering::Relaxed);
        w[W_BYTES_OUT].store(d.bytes_out, Ordering::Relaxed);
        slot.version.store(v + 2, Ordering::Release);

        // Everything below is off the common path: estimator-accuracy
        // histograms fire only when a request executed, the slow log only
        // past the threshold.
        if let Some(cost) = &d.cost {
            let pairs: [(u64, u64); 4] = [
                (cost.actual_ns, cost.estimated_ns),
                (cost.actual.points as u64, cost.estimated.points as u64),
                (cost.actual.bytes as u64, cost.estimated.bytes as u64),
                (cost.actual.blocks as u64, cost.estimated.blocks as u64),
            ];
            for (histo, (act, est)) in self.ratio_histos.iter().zip(pairs) {
                if est > 0 {
                    histo.observe(act as f64 / est as f64);
                }
            }
        }
        if slow {
            self.slow_total.inc();
            let mut rec = d.to_record(seq, true);
            if rec.fingerprint == 0 {
                rec.fingerprint = fingerprint64(&rec.url);
            }
            let mut pinned = self.pinned.lock();
            if pinned.len() == SLOW_PINNED {
                pinned.pop_front();
            }
            pinned.push_back(rec);
        }
        (seq, slow)
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
    /// modelled time)? Used by `?explain=true` to report the flag before
    /// the pinned copy is queryable.
    pub fn is_slow(&self, d: &Draft<'_>) -> bool {
        self.slow_ns > 0
            && (d.total_ns >= self.slow_ns
                || d.vtime_execute_ns + d.vtime_encode_ns >= self.slow_ns)
    }

    /// Snapshot one slot; `None` while a writer owns it or if it has never
    /// been written.
    fn read_slot(&self, idx: usize) -> Option<RequestRecord> {
        let slot = &self.slots[idx];
        for _ in 0..4 {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 & 1 == 1 {
                return None;
            }
            let words: [u64; SLOT_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // Word loads are atomic, so tearing within a word is
            // impossible; the version re-check guards cross-word
            // consistency against a concurrent rewrite.
            let v2 = slot.version.load(Ordering::Acquire);
            if v1 == v2 {
                return Some(decode(&words));
            }
        }
        None
    }

    /// Newest-first records matching `filter`.
    pub fn recent(&self, filter: &RecordFilter) -> Vec<RequestRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let limit = filter.limit.unwrap_or(50);
        let mut out = Vec::new();
        let mut seq = head;
        while seq > 0 && seq + cap > head && out.len() < limit {
            seq -= 1;
            let Some(rec) = self.read_slot((seq & self.mask) as usize) else {
                continue;
            };
            // A lapped slot can hold a newer record than the cursor; skip
            // anything whose stored seq disagrees.
            if rec.seq != seq {
                continue;
            }
            if self.matches(&rec, filter) {
                out.push(rec);
            }
        }
        out
    }

    fn matches(&self, rec: &RequestRecord, filter: &RecordFilter) -> bool {
        if let Some(d) = filter.disposition {
            if rec.disposition != d {
                return false;
            }
        }
        if let Some(min_ms) = filter.min_ms {
            if rec.total_ms() < min_ms && rec.modelled_ms() < min_ms {
                return false;
            }
        }
        if let Some(tenant) = &filter.tenant {
            if rec.tenant != *tenant {
                return false;
            }
        }
        true
    }

    /// All live records carrying `trace`, newest first.
    pub fn by_trace(&self, trace: TraceId) -> Vec<RequestRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut out = Vec::new();
        let mut seq = head;
        while seq > 0 && seq + cap > head {
            seq -= 1;
            if let Some(rec) = self.read_slot((seq & self.mask) as usize) {
                if rec.seq == seq && rec.trace == trace {
                    out.push(rec);
                }
            }
        }
        out
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

fn decode(w: &[u64; SLOT_WORDS]) -> RequestRecord {
    let meta = w[W_META];
    let flags = (meta >> 24) & 0xff;
    let tlen = ((meta >> 48) & 0xff) as usize;
    let ulen = (meta >> 56) as usize;
    let cost = if flags & FLAG_COST != 0 {
        let mut est = [0u64; COST_WORDS];
        let mut act = [0u64; COST_WORDS];
        est.copy_from_slice(&w[W_EST0..W_EST0 + COST_WORDS]);
        act.copy_from_slice(&w[W_ACT0..W_ACT0 + COST_WORDS]);
        Some(CostPair {
            estimated: QueryCost::from_words(&est),
            actual: QueryCost::from_words(&act),
            estimated_ns: w[W_EST_NS],
            actual_ns: w[W_ACT_NS],
        })
    } else {
        None
    };
    let admission = if flags & FLAG_ADMISSION != 0 {
        Some(AdmissionSnapshot {
            decision: AdmissionDecision::from_code((meta >> 40) & 0xff),
            estimated_secs: f64::from_bits(w[W_ADM_EST]),
            tokens_before: f64::from_bits(w[W_ADM_BEFORE]),
            tokens_after: f64::from_bits(w[W_ADM_AFTER]),
            rate: f64::from_bits(w[W_ADM_RATE]),
            burst: f64::from_bits(w[W_ADM_BURST]),
            retry_after_secs: w[W_ADM_RETRY],
        })
    } else {
        None
    };
    let url = load_str(&w[W_URL0..W_URL0 + URL_WORDS], ulen);
    // The hot path stores 0 rather than hashing; recompute from the
    // stored (possibly truncated) key at read time. A nonzero word means
    // an eager path (explain) hashed the full key already.
    let fingerprint = if w[W_FP] != 0 { w[W_FP] } else { fingerprint64(&url) };
    RequestRecord {
        seq: w[W_SEQ],
        disposition: Disposition::from_code(meta & 0xff),
        status: ((meta >> 8) & 0xffff) as u16,
        trace: TraceId(((w[W_TRACE_HI] as u128) << 64) | w[W_TRACE_LO] as u128),
        span: SpanId(w[W_SPAN]),
        fingerprint,
        tenant: load_str(&w[W_TENANT0..W_TENANT0 + TENANT_WORDS], tlen),
        url,
        truncated: flags & FLAG_TRUNCATED != 0,
        explain: flags & FLAG_EXPLAIN != 0,
        slow: flags & FLAG_SLOW != 0,
        stages_ns: std::array::from_fn(|i| w[W_STAGE0 + i]),
        total_ns: w[W_TOTAL],
        vtime_execute_ns: w[W_VT_EXEC],
        vtime_encode_ns: w[W_VT_ENC],
        bytes_out: w[W_BYTES_OUT],
        verdict: CacheVerdict::from_code((meta >> 32) & 0xff),
        cost,
        admission,
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
        d.fingerprint = fingerprint64(url);
        d.disposition = Disposition::Hit;
        d.status = 200;
        d.verdict = CacheVerdict::Valid;
        d.total_ns = 1_000;
        d.stages_ns[STAGE_CACHE] = 1_000;
        d.bytes_out = 42;
        d
    }

    #[test]
    fn record_roundtrips_every_field() {
        let rec = QueryRecorder::new(16, 0.0);
        let mut d = Draft::new("/v1/metrics?start=a&end=b", "tenant-x", TraceId(0xabcd), SpanId(9));
        d.fingerprint = 0xfeed;
        d.disposition = Disposition::Miss;
        d.status = 200;
        d.verdict = CacheVerdict::Invalidated;
        d.explain = true;
        d.stages_ns = [1, 2, 3, 4, 5, 6, 7];
        d.total_ns = 21;
        d.vtime_execute_ns = 1_000_000;
        d.vtime_encode_ns = 2_000_000;
        d.bytes_out = 711;
        let est = QueryCost { points: 100, bytes: 800, queries: 5, ..QueryCost::default() };
        let act = QueryCost {
            points: 90,
            bytes: 750,
            queries: 5,
            blocks_cold: 2,
            bytes_cold: 64,
            ..QueryCost::default()
        };
        d.cost = Some(CostPair { estimated: est, actual: act, estimated_ns: 500, actual_ns: 450 });
        d.admission = Some(AdmissionSnapshot {
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
        assert_eq!(r.fingerprint, 0xfeed);
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
    fn filters_match_disposition_tenant_and_min_ms() {
        let rec = QueryRecorder::new(64, 0.0);
        let mut a = draft_with("/a", 0);
        a.disposition = Disposition::Miss;
        a.total_ns = 5_000_000; // 5 ms
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
            d.trace = TraceId(if i % 2 == 0 { 0x11 } else { 0x22 });
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
        slow.disposition = Disposition::Miss;
        slow.vtime_execute_ns = 5_000_000; // 5 ms modelled
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
    fn ticks_convert_to_plausible_nanos() {
        let t0 = ticks_now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let ns = ticks_to_ns(ticks_now().saturating_sub(t0));
        assert!(ns > 2_000_000, "5 ms sleep measured as {ns} ns");
        assert!(ns < 1_000_000_000, "5 ms sleep measured as {ns} ns");
    }

    #[test]
    fn record_json_shape_carries_cost_and_admission() {
        let rec = QueryRecorder::new(16, 0.0);
        let mut d = draft_with("/v1/metrics?x=1", 0);
        d.disposition = Disposition::Rejected;
        d.status = 429;
        d.admission = Some(AdmissionSnapshot {
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
