//! The Metrics Builder HTTP API service.
//!
//! Routes:
//!
//! * `GET /v1/nodes` — the monitored node inventory.
//! * `GET /v1/metrics?start=..&end=..[&interval=5m][&aggregation=max]`
//!   `[&compress=true][&explain=true]` — the assembled response document,
//!   with `X-Query-Processing-Ms`, `X-Cache`, `traceparent`, and
//!   `X-Freshness-Lag-Seconds` observability headers. Requests carrying a
//!   well-formed W3C `traceparent` header join that trace; malformed
//!   headers are ignored (a new root trace is started). `explain=true`
//!   wraps the response in a JSON envelope carrying the request's
//!   flight-recorder record (estimate vs actual cost, cache verdict,
//!   admission math) next to the base64-coded payload — which stays
//!   byte-identical to the explain-off response, whatever the disposition
//!   (`explain` is stripped from the cache key, so both forms share one
//!   cache entry and one flight).
//! * `GET /metrics` — Prometheus/OpenMetrics text exposition of the
//!   pipeline's own metrics (self-monitoring), exemplars included.
//! * `GET /debug/trace[?trace_id=<32-hex>]` — the deployment's live
//!   interval records and this service's request records rendered as
//!   chrome-trace JSON: wall `ts`/`dur`, trace/span/parent lineage and the
//!   modelled duration in `args`, optionally restricted to one trace.
//! * `GET /debug/requests[?disposition=..&min_ms=..&tenant=..&limit=..]`
//!   — the query flight recorder ([`crate::qlog`]): recent per-request
//!   wide events, newest first, plus the pinned slow-query log.
//! * `GET /debug/requests/:trace_id` — symptom→request drill-down: every
//!   live record of one trace (join the id against `/debug/trace`).
//! * `GET /debug/pipeline` — the freshness SLO report: staleness
//!   percentiles, attainment, and multi-window burn rates.
//! * `GET /v1/alerts` — active and recently resolved alerts with severity
//!   counts (when the deployment runs an alert engine).
//! * `GET /v1/alerts/:id` — one alert's detail: rule, state, flap count,
//!   attributed job ids, and the exemplar trace id of the offending
//!   reading (join it against `GET /debug/trace`).

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::cache::{Claim, ResponseCache, Validity, ValiditySnapshot};
use crate::exec::{run_prepared, ExecMetrics, ExecMode};
use crate::plan::{build_plan, BuilderRequest};
use crate::qlog::{
    self, AdmissionDecision, CacheVerdict, CostPair, Disposition, Draft, LapClock, QueryRecorder,
    RecordFilter, RequestRecord, Stage,
};
use crate::response::{deflate, CompressMetrics};
use monster_collector::SchemaVersion;
use monster_compress::Level;
use monster_http::{Method, Request, Response, Router, Status};
use monster_json::{jarr, jobj, Value};
use monster_obs::{Counter, Gauge, Registry, TraceContext, TraceId};
use monster_tsdb::{Aggregation, Db, Query};
use monster_util::{EpochSecs, NodeId};
use std::sync::Arc;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Storage schema the deployment writes (decides the plan shape).
    pub schema: SchemaVersion,
    /// Execution mode for planned queries.
    pub exec: ExecMode,
    /// Compression level for `compress=true` responses.
    pub level: Level,
    /// Response-cache capacity (entries); 0 disables caching.
    pub cache_entries: usize,
    /// Request coalescing (single-flight): concurrent identical requests
    /// share one execution. `false` is the benchmark baseline.
    pub coalesce: bool,
    /// Cost-based admission control (`AdmissionConfig { enabled: false,
    /// .. }` admits everything).
    pub admission: AdmissionConfig,
    /// The deployment's alert engine, when alerting is on; backs
    /// `/v1/alerts`. `None` serves 404s there.
    pub alerts: Option<Arc<monster_alert::AlertEngine>>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            schema: SchemaVersion::Optimized,
            exec: ExecMode::Concurrent { workers: 8 },
            level: Level::default(),
            cache_entries: 64,
            coalesce: true,
            admission: AdmissionConfig::default(),
            alerts: None,
        }
    }
}

fn bad_request(msg: &str) -> Response {
    Response::error(Status::BAD_REQUEST, msg)
}

/// Build the per-request response from a shared (cached/coalesced) one:
/// headers are cloned so the `X-Cache` disposition and trace headers can
/// be stamped per request, the body is reference-shared — zero byte
/// copies.
fn serve_shared(shared: &Response, cache_status: &str) -> Response {
    let mut resp = shared.clone();
    resp.headers.set("X-Cache", cache_status);
    resp
}

/// The tenant/client id admission buckets are keyed by. Dashboards and
/// batch consumers identify themselves with `X-Tenant`; anonymous traffic
/// shares one bucket.
fn tenant_of(req: &Request) -> &str {
    req.headers.get("X-Tenant").unwrap_or("anonymous")
}

/// RAII increment of the in-flight-queries gauge; panic-safe decrement.
struct InflightGuard(Arc<Gauge>);

impl InflightGuard {
    fn enter(gauge: &Arc<Gauge>) -> InflightGuard {
        gauge.add(1);
        InflightGuard(Arc::clone(gauge))
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Stamp the trace/freshness headers every `/v1/metrics` response carries:
/// `traceparent` echoes the server-side span (joined to the caller's trace
/// when the request carried a well-formed `traceparent`), and
/// `X-Freshness-Lag-Seconds` reports the worst last-good-ingest lag across
/// the tracked fleet at response time.
fn stamp_trace_headers(mut resp: Response, ctx: TraceContext, obs: &Registry) -> Response {
    resp.headers.set("traceparent", ctx.to_traceparent());
    let lag = obs.freshness().max_lag_secs().unwrap_or(0.0);
    resp.headers.set("X-Freshness-Lag-Seconds", format!("{lag:.3}"));
    resp
}

/// The normalized request key: path + query with the per-request
/// `explain` parameter stripped, plus whether `explain=true` was asked.
/// Explain-on and explain-off forms of a request share one cache entry
/// and one flight under this key — which is what makes the explain
/// payload byte-identical by construction. Callers pre-check
/// `req.query.contains("explain")` so the common path never splits.
fn normalize_key(req: &Request) -> (String, bool) {
    let explain = req.query_param("explain") == Some("true");
    let kept: Vec<&str> =
        req.query.split('&').filter(|kv| kv.split('=').next() != Some("explain")).collect();
    (format!("{}?{}", req.path, kept.join("&")), explain)
}

/// Wrap a finished response in the `?explain=true` envelope: the
/// flight-recorder record inline, the payload carried byte-exact as
/// base64. Original status and headers (sans the entity headers the
/// envelope re-derives) are preserved, so a 429 explain is still a 429
/// with its `Retry-After`.
fn explain_envelope(resp: &Response, record: &RequestRecord) -> Response {
    let payload_encoding = resp.headers.get("Content-Encoding").unwrap_or("identity").to_string();
    let doc = jobj! {
        "explain" => record.to_json(),
        "payload_status" => resp.status.0 as i64,
        "payload_content_type" => resp.headers.get("Content-Type").unwrap_or(""),
        "payload_encoding" => payload_encoding,
        "payload_base64" => qlog::base64_encode(&resp.body),
    };
    let mut out = Response::json(&doc);
    out.status = resp.status;
    let entity = ["Content-Type", "Content-Length", "Content-Encoding"];
    for (name, value) in resp.headers.iter() {
        if !entity.iter().any(|h| name.eq_ignore_ascii_case(h)) {
            out.headers.set(name, value);
        }
    }
    out
}

/// Parse `/v1/metrics` query parameters into a request. The `start` and
/// `end` parameters are required RFC 3339 timestamps; `interval` (default
/// `5m`) and `aggregation` (default `max`) are optional.
fn parse_metrics_request(req: &Request) -> Result<BuilderRequest, Response> {
    let start =
        req.query_param("start").ok_or_else(|| bad_request("missing required parameter: start"))?;
    let end =
        req.query_param("end").ok_or_else(|| bad_request("missing required parameter: end"))?;
    let start =
        EpochSecs::parse_rfc3339(start).map_err(|e| bad_request(&format!("bad start: {e}")))?;
    let end = EpochSecs::parse_rfc3339(end).map_err(|e| bad_request(&format!("bad end: {e}")))?;
    let interval = match req.query_param("interval") {
        Some(s) => monster_util::time::parse_interval(s)
            .map_err(|e| bad_request(&format!("bad interval: {e}")))?,
        None => 300,
    };
    let aggregation = match req.query_param("aggregation") {
        Some(s) => Aggregation::parse(s)
            .ok_or_else(|| bad_request(&format!("unknown aggregation: {s}")))?,
        None => Aggregation::Max,
    };
    let builder_req = BuilderRequest::new(start, end, interval, aggregation)
        .map_err(|e| bad_request(&e.to_string()))?;
    let compress = req.query_param("compress") == Some("true");
    Ok(if compress { builder_req.compressed() } else { builder_req })
}

/// Everything the `/v1/metrics` handler closes over, so the serving logic
/// can live in a named function instead of a 150-line closure.
struct MetricsState {
    db: Arc<Db>,
    /// The database's registry: what `/metrics`, `/debug/trace` and
    /// `/debug/pipeline` export and where every handle below lives.
    obs: Arc<Registry>,
    nodes: Vec<NodeId>,
    config: ServiceConfig,
    cache: Arc<ResponseCache>,
    admission: Arc<AdmissionController>,
    coalesced: Arc<Counter>,
    inflight: Arc<Gauge>,
    compress: CompressMetrics,
    exec_metrics: Arc<ExecMetrics>,
    recorder: Arc<QueryRecorder>,
}

/// Serve one `/v1/metrics` request (key `draft.url`) through the cache →
/// claim → admission → execute layers, filling the flight-recorder draft and
/// lapping the clock as it goes: every return is preceded by a lap, so the
/// stages the caller reads from `clock` cover the whole handler. Trace
/// headers and explain wrapping are the caller's job.
fn serve_metrics(
    st: &MetricsState,
    req: &Request,
    ctx: TraceContext,
    draft: &mut Draft<'_>,
    clock: &mut LapClock<{ Stage::ALL.len() }>,
) -> Response {
    let (key, d) = (draft.url, &mut draft.record);
    // Layer 1: the result cache. Positive entries validate their
    // watermark snapshot; negative entries (deterministic 400s) are
    // data-independent and always valid.
    let (cached, verdict) = st.cache.probe(key, &st.db);
    d.verdict = verdict;
    if let Some(shared) = cached {
        // A hit is one probe plus a header clone: its whole wall time is
        // the cache stage, and this lap is its only clock read after the
        // start.
        let negative = verdict == CacheVerdict::Negative;
        d.disposition = if negative { Disposition::Negative } else { Disposition::Hit };
        let resp = serve_shared(&shared, "hit");
        clock.lap(Stage::Cache);
        return resp;
    }
    clock.lap(Stage::Cache);

    let builder_req = match parse_metrics_request(req) {
        Ok(r) => r,
        Err(resp) => {
            clock.lap(Stage::Parse);
            d.disposition = Disposition::Negative;
            // A parse rejection depends only on the URL: cache it so
            // malformed dashboards don't re-parse forever.
            let shared = st.cache.put(key, Validity::Always, resp);
            let resp = serve_shared(&shared, "miss");
            clock.lap(Stage::Encode);
            return resp;
        }
    };
    clock.lap(Stage::Parse);

    // Layer 2: the claim (single-flight). The first identical request
    // leads and executes; the rest block and share its response; a request
    // that probed before a flight stored its answer hits it here. The
    // claim — a joiner's wait included — is charged to the cache stage: it
    // is served from shared state.
    let ticket = match st.cache.claim(key, &st.db, st.config.coalesce) {
        Claim::Hit(shared) => {
            (d.verdict, d.disposition) = (CacheVerdict::Valid, Disposition::Hit);
            let resp = serve_shared(&shared, "hit");
            clock.lap(Stage::Cache);
            return resp;
        }
        Claim::Joined(shared) => {
            st.coalesced.inc();
            clock.lap(Stage::Cache);
            d.disposition = Disposition::Coalesced;
            let resp = serve_shared(&shared, "coalesced");
            clock.lap(Stage::Encode);
            return resp;
        }
        Claim::Lead(ticket) => ticket,
    };
    clock.lap(Stage::Cache);

    let plan = build_plan(st.config.schema, &st.nodes, &builder_req);
    clock.lap(Stage::Plan);

    // Snapshot validity *before* resolving the plan's series: a write
    // racing the resolution or the scan can then only invalidate the entry
    // spuriously, never leave a stale one validating.
    let validity = ValiditySnapshot::capture(
        &st.db,
        plan.iter().map(|pq| pq.query.measurement.as_str()),
        builder_req.end.as_secs(),
    );
    clock.lap(Stage::Cache);

    // Layer 3: cost-based admission, leaders only — a coalesced burst
    // debits one token, not one per request. The plan is resolved once
    // and priced before anything is scanned.
    let queries: Vec<&Query> = plan.iter().map(|pq| &pq.query).collect();
    let prepared = st.db.prepare(&queries);
    let est = prepared.estimate();
    let est_secs = st.db.simulate_elapsed(&est).as_secs_f64();
    clock.lap(Stage::Plan);
    let admission = st.admission.admit(tenant_of(req), est_secs);
    d.admission = Some(admission);
    clock.lap(Stage::Admission);
    let rejected = match admission.decision {
        AdmissionDecision::Disabled | AdmissionDecision::Cheap | AdmissionDecision::Charged => None,
        AdmissionDecision::RejectedOverBudget => Some("over_budget"),
        AdmissionDecision::RejectedTenantBudget => Some("tenant_budget"),
    };
    if let Some(reason) = rejected {
        d.disposition = Disposition::Rejected;
        let mut resp = Response::error(
            Status::TOO_MANY_REQUESTS,
            &format!(
                "admission control rejected this query ({reason}): \
                 estimated cost {est_secs:.3}s modelled; retry later"
            ),
        );
        resp.headers.set("Retry-After", admission.retry_after_secs.to_string());
        let shared = Arc::new(resp);
        // Joiners share the 429 (they are the same query), but it is
        // never cached: the budget refills.
        ticket.share(Arc::clone(&shared));
        let resp = serve_shared(&shared, "miss");
        clock.lap(Stage::Encode);
        return resp;
    }

    // The execution and its scan are children of the request; the scan's
    // context is installed so the storage layer's exemplars link to it.
    let exec = ctx.child(&st.obs);
    let scan = exec.child(&st.obs);
    (d.exec_span, d.scan_span) = (Some(exec.span), scan.span);
    let guard = (InflightGuard::enter(&st.inflight), monster_obs::trace::set_current(scan));
    let batch = run_prepared(&st.db, prepared, st.config.exec, Arc::clone(&st.exec_metrics));
    drop(guard);
    clock.lap(Stage::Execute);
    let batch = match batch {
        Ok(b) => b,
        Err(e) => {
            // Dropping the ticket closes the flight with no answer;
            // joiners execute for themselves.
            drop(ticket);
            d.disposition = Disposition::Error;
            let resp =
                Response::error(Status::INTERNAL_ERROR, &format!("query execution failed: {e}"));
            clock.lap(Stage::Encode);
            return resp;
        }
    };
    // Render the results straight into the reply's text, once; `deflate`
    // compresses it and the text is dropped.
    d.scan_threads = batch.scan_threads;
    let outcome = batch.render_into(&st.db, &plan);
    d.cost = Some(CostPair {
        estimated: est,
        actual: outcome.cost,
        estimated_ns: (est_secs * 1e9) as u64,
        actual_ns: st.db.simulate_elapsed(&outcome.cost).as_nanos(),
    });
    d.vtime_execute_ns = outcome.query_time.as_nanos();
    d.vtime_encode_ns = outcome.processing_time.as_nanos();
    d.points_out = outcome.points_out as u64;
    let processing = outcome.query_processing_time();
    let json = outcome.document;
    let mut resp = if builder_req.compress {
        clock.lap(Stage::Encode);
        let packed = deflate(&json, st.config.level, &st.compress);
        clock.lap(Stage::Compress);
        Response::bytes(packed, "application/json").content_encoded()
    } else {
        Response::bytes(json, "application/json")
    };
    resp.headers.set("X-Query-Processing-Ms", format!("{:.3}", processing.as_millis_f64()));
    let shared = ticket.complete(validity, resp);
    d.disposition = Disposition::Miss;
    let out = serve_shared(&shared, "miss");
    clock.lap(Stage::Encode);
    out
}

/// Parse the `/debug/requests` filter parameters; `Err` is the 400.
fn parse_record_filter(req: &Request) -> Result<RecordFilter, Response> {
    let mut filter = RecordFilter::default();
    if let Some(s) = req.query_param("disposition") {
        filter.disposition = Some(Disposition::parse(s).ok_or_else(|| {
            bad_request(&format!(
                "unknown disposition {s:?} (expected hit|miss|coalesced|negative|rejected|error)"
            ))
        })?);
    }
    if let Some(s) = req.query_param("min_ms") {
        // `"NaN".parse::<f64>()` succeeds, and a NaN threshold compares
        // false with every record.
        let min_ms = s.parse::<f64>().ok().filter(|ms| ms.is_finite() && *ms >= 0.0);
        filter.min_ms = Some(min_ms.ok_or_else(|| bad_request("min_ms must be a number >= 0"))?);
    }
    if let Some(s) = req.query_param("tenant") {
        filter.tenant = Some(s.to_string());
    }
    if let Some(s) = req.query_param("limit") {
        filter.limit =
            Some(s.parse::<usize>().map_err(|_| bad_request("limit must be an integer"))?);
    }
    Ok(filter)
}

impl MetricsState {
    fn new(db: Arc<Db>, nodes: Vec<NodeId>, config: ServiceConfig) -> MetricsState {
        let obs = Arc::clone(db.registry());
        MetricsState {
            cache: Arc::new(ResponseCache::new_in(config.cache_entries, &obs)),
            admission: Arc::new(AdmissionController::new(config.admission, &obs)),
            coalesced: obs.counter_help(
                "monster_builder_cache_coalesced_total",
                "Requests served by joining another request's in-flight execution.",
            ),
            inflight: obs.gauge_help(
                "monster_builder_inflight_queries",
                "Metrics queries currently executing against storage.",
            ),
            compress: CompressMetrics::new(&obs),
            exec_metrics: Arc::new(ExecMetrics::new(&obs)),
            recorder: Arc::new(QueryRecorder::new_in(qlog::RING_CAPACITY, qlog::SLOW_MS, &obs)),
            obs,
            db,
            nodes,
            config,
        }
    }

    /// This state with its recorder rebuilt to pin requests at or over
    /// `slow_ms`, so a test can put the fixture on either side of it.
    #[cfg(test)]
    fn with_slow_ms(mut self, slow_ms: f64) -> MetricsState {
        self.recorder = Arc::new(QueryRecorder::new_in(qlog::RING_CAPACITY, slow_ms, &self.obs));
        self
    }
}

/// The `GET /debug/trace` document: the deployment's live interval
/// records, then the service's request records, oldest first, each
/// rendered as its chrome-trace events — of one trace, or all.
fn trace_doc(obs: &Registry, recorder: &QueryRecorder, trace: Option<TraceId>) -> Value {
    let intervals: Vec<_> = obs.intervals().live(|r| trace.is_none_or(|t| r.trace == t)).collect();
    let mut events = Vec::new();
    intervals.iter().rev().for_each(|r| r.trace_events(&mut events));
    recorder.by_trace(trace).iter().rev().for_each(|r| r.trace_events(&mut events));
    jobj! { "traceEvents" => Value::Array(events) }
}

/// Build the service router over `db` for the given node inventory. The
/// service reports to, and exports, the database's registry.
pub fn router(db: Arc<Db>, nodes: Vec<NodeId>, config: ServiceConfig) -> Router {
    routes(Arc::new(MetricsState::new(db, nodes, config)))
}

/// The routes over one service's state (apart from `router` so a test can
/// hold the state its router serves from).
fn routes(state: Arc<MetricsState>) -> Router {
    let node_list: Vec<Value> = state.nodes.iter().map(|n| Value::from(n.bmc_addr())).collect();
    let nodes_doc = jobj! { "nodes" => Value::Array(node_list) };
    let alerts = state.config.alerts.clone();
    let [scrape_recorder, requests_recorder, drill_recorder, trace_recorder] =
        [(); 4].map(|()| Arc::clone(&state.recorder));
    let [scrape_obs, trace_obs, pipeline_obs] = [(); 3].map(|()| Arc::clone(&state.obs));

    Router::new()
        .route(Method::Get, "/v1/nodes", move |_req, _params| Response::json(&nodes_doc))
        .route(Method::Get, "/v1/metrics", move |req, _params| {
            // Join the caller's trace when the request carries a
            // well-formed W3C traceparent; a malformed or absent header
            // starts a new root — never an error.
            let parent = req.headers.get("traceparent").and_then(TraceContext::parse_traceparent);
            let ctx = match parent {
                Some(parent) => parent.child(&state.obs),
                None => TraceContext::root(&state.obs),
            };
            // Install the context so the exemplars underneath this request
            // join its trace.
            let _trace_guard = monster_obs::trace::set_current(ctx);

            let mut clock = LapClock::start();
            // The substring pre-check keeps explain-off requests from
            // paying the query split.
            let (key, explain) = if req.query.contains("explain") {
                normalize_key(req)
            } else {
                (format!("{}?{}", req.path, req.query), false)
            };
            let mut draft = Draft::new(&key, tenant_of(req), ctx.trace, ctx.span);
            (draft.record.explain, draft.record.parent) = (explain, parent.map(|p| p.span));

            let mut resp = serve_metrics(&state, req, ctx, &mut draft, &mut clock);

            let rec = &mut draft.record;
            rec.start_ns = clock.start_ns();
            (rec.stages_ns, rec.total_ns) = clock.finish();
            rec.status = resp.status.0;
            rec.bytes_out = resp.body.len() as u64;
            let (seq, slow) = state.recorder.record(&draft);
            if explain {
                let mut record = RequestRecord::default();
                draft.fill(&mut record);
                (record.seq, record.slow) = (seq, slow);
                resp = explain_envelope(&resp, &record);
            }
            stamp_trace_headers(resp, ctx, &state.obs)
        })
        .route(Method::Get, "/metrics", move |_req, _params| {
            // The hot path never pays for the records counter; it is
            // reconciled with the ring head here, at scrape time.
            scrape_recorder.sync_counters();
            Response::bytes(scrape_obs.text_exposition().into_bytes(), "text/plain; version=0.0.4")
        })
        .route(Method::Get, "/debug/trace", move |req, _params| {
            let trace = match req.query_param("trace_id").map(TraceId::parse_hex) {
                None => None,
                Some(Some(id)) => Some(id),
                Some(None) => return bad_request("trace_id must be 32 lowercase hex digits"),
            };
            Response::json(&trace_doc(&trace_obs, &trace_recorder, trace))
        })
        .route(Method::Get, "/debug/requests", move |req, _params| match parse_record_filter(req) {
            Ok(filter) => Response::json(&requests_recorder.debug_json(&filter)),
            Err(resp) => resp,
        })
        .route(Method::Get, "/debug/requests/:trace_id", move |_req, params| {
            let Some(id) = params.get("trace_id").and_then(TraceId::parse_hex) else {
                return bad_request("trace_id must be 32 lowercase hex digits");
            };
            let records: Vec<Value> =
                drill_recorder.by_trace(Some(id)).iter().map(|r| r.to_json()).collect();
            if records.is_empty() {
                return Response::error(
                    Status::NOT_FOUND,
                    &format!("no live flight-recorder records for trace {id}"),
                );
            }
            Response::json(&jobj! {
                "trace_id" => id.to_string(),
                "requests" => Value::Array(records),
            })
        })
        .route(Method::Get, "/debug/pipeline", move |_req, _params| {
            Response::json(&pipeline_obs.freshness().report())
        })
        .route(Method::Get, "/v1/alerts", {
            let engine = alerts.clone();
            move |_req, _params| match &engine {
                Some(e) => Response::json(&e.alerts_json()),
                None => Response::error(Status::NOT_FOUND, "alerting is not enabled"),
            }
        })
        .route(Method::Get, "/v1/alerts/:id", {
            let engine = alerts;
            move |_req, params| {
                let Some(engine) = &engine else {
                    return Response::error(Status::NOT_FOUND, "alerting is not enabled");
                };
                let Some(id) = params.get("id").and_then(|s| s.parse::<u64>().ok()) else {
                    return bad_request("alert id must be an integer");
                };
                match engine.alert(id) {
                    Some(alert) => Response::json(&alert.to_json()),
                    None => Response::error(Status::NOT_FOUND, &format!("no alert {id}")),
                }
            }
        })
        .route(Method::Get, "/healthz", |_req, _params| {
            Response::json(&jobj! { "status" => "ok", "checks" => jarr!["registry", "db"] })
        })
        .route(Method::Get, "/v1/health", |_req, _params| {
            Response::json(&jobj! { "status" => "ok", "checks" => jarr!["registry", "db"] })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_tsdb::{DataPoint, DbConfig};

    /// A service over a two-node store with a registry of its own.
    fn service() -> (Arc<Db>, Router) {
        let db = Arc::new(Db::new_in(DbConfig::default(), &Arc::default()));
        let ids = NodeId::enumerate(2, 4);
        let mut batch = Vec::new();
        for i in 0..60i64 {
            for &n in &ids {
                batch.push(
                    DataPoint::new("Power", EpochSecs::new(i * 60))
                        .tag("NodeId", n.bmc_addr())
                        .tag("Label", "NodePower")
                        .field_f64("Reading", 250.0 + i as f64),
                );
            }
        }
        db.write_batch(&batch).unwrap();
        let router = router(Arc::clone(&db), ids, ServiceConfig::default());
        (db, router)
    }

    fn get(router: &Router, path: &str) -> Response {
        router.dispatch(&Request::get(path))
    }

    /// The readings a body carries, read as the analyses read them: none in
    /// a body that is not a served document.
    fn readings_in(body: &[u8]) -> usize {
        let doc = std::str::from_utf8(body).ok().and_then(|text| monster_json::parse(text).ok());
        let read = doc.as_ref().map(monster_analysis::served::readings);
        read.map_or(0, |r| r.map_or(0, |r| r.len()))
    }

    #[test]
    fn nodes_endpoint_lists_inventory() {
        let (_db, router) = service();
        let resp = get(&router, "/v1/nodes");
        assert_eq!(resp.status, Status::OK);
        let v = resp.json_body().unwrap();
        assert_eq!(v.get("nodes").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn metrics_endpoint_validates_parameters() {
        let (_db, router) = service();
        assert_eq!(get(&router, "/v1/metrics").status, Status::BAD_REQUEST);
        assert_eq!(
            get(&router, "/v1/metrics?start=bogus&end=2020-01-01T01:00:00Z").status,
            Status::BAD_REQUEST
        );
        assert_eq!(
            get(
                &router,
                "/v1/metrics?start=2020-01-01T00:00:00Z&end=2020-01-01T01:00:00Z&aggregation=median"
            )
            .status,
            Status::BAD_REQUEST
        );
        // End before start.
        assert_eq!(
            get(&router, "/v1/metrics?start=2020-01-01T01:00:00Z&end=2020-01-01T00:00:00Z").status,
            Status::BAD_REQUEST
        );
    }

    #[test]
    fn metrics_endpoint_serves_documents_and_headers() {
        let (_db, router) = service();
        let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";
        let resp = get(&router, url);
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.headers.get("X-Cache"), Some("miss"));
        assert!(resp.headers.get("X-Query-Processing-Ms").is_some());
        let doc = resp.json_body().unwrap();
        assert!(doc.get("10.101.1.1").unwrap().get("power").is_some());
        // Second identical request hits the cache.
        let again = get(&router, url);
        assert_eq!(again.headers.get("X-Cache"), Some("hit"));
        assert_eq!(again.json_body().unwrap(), doc);
    }

    #[test]
    fn a_percent_encoded_query_is_the_literal_query() {
        let (_db, router) = service();
        let plain = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z";
        let first = get(&router, plain);
        assert_eq!(first.status, Status::OK);
        // What `urllib.parse.urlencode` sends: the same body, from the same
        // cache entry.
        let encoded = get(&router, &plain.replace(':', "%3A"));
        assert_eq!(encoded.status, Status::OK);
        assert_eq!(encoded.headers.get("X-Cache"), Some("hit"));
        assert_eq!(encoded.body.as_ptr(), first.body.as_ptr());
        // An escaped `true` compresses, and shares the literal one's entry.
        let packed = get(&router, &format!("{plain}&compress=%74rue"));
        assert_eq!(packed.headers.get("Content-Encoding"), Some("deflate"));
        let literal = get(&router, &format!("{plain}&compress=true"));
        assert_eq!(literal.headers.get("X-Cache"), Some("hit"));
        assert_eq!(&literal.body[..], &packed.body[..]);
        // A `%` that starts no escape reaches the parameter's parser as is.
        for (param, error) in [
            ("interval=%", "bad interval"),
            ("interval=%4", "bad interval"),
            ("aggregation=%G1", "unknown aggregation: %G1"),
        ] {
            let resp = get(&router, &format!("{plain}&{param}"));
            assert_eq!(resp.status, Status::BAD_REQUEST, "{param}");
            let body = String::from_utf8_lossy(&resp.body).into_owned();
            assert!(body.contains(error), "{param}: {body}");
        }
        let resp = get(&router, "/v1/metrics?start=%G1&end=1970-01-01T01:00:00Z");
        assert_eq!(resp.status, Status::BAD_REQUEST);
        assert!(String::from_utf8_lossy(&resp.body).contains("bad start"));
    }

    #[test]
    fn metrics_endpoint_trace_and_freshness_headers() {
        let (db, router) = service();
        let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";

        // No traceparent: the response carries a fresh, well-formed one.
        let resp = get(&router, url);
        assert_eq!(resp.status, Status::OK);
        let tp = resp.headers.get("traceparent").expect("traceparent header");
        let ctx = TraceContext::parse_traceparent(tp).expect("well-formed");
        // The miss's modelled latency carries the request's exemplar.
        let exemplars = db.registry().histo("monster_builder_query_seconds").exemplars();
        let linked = exemplars.iter().flatten().any(|e| (e.trace, e.span) == (ctx.trace, ctx.span));
        assert!(linked, "{exemplars:?}");
        let lag = resp.headers.get("X-Freshness-Lag-Seconds").expect("freshness header");
        assert!(lag.parse::<f64>().unwrap() >= 0.0);

        // A valid inbound traceparent joins: same trace id, new span id.
        // (Minted from the service's registry, so it cannot repeat `ctx`.)
        let inbound = TraceContext::root(db.registry());
        let req = Request::get(url).with_header("traceparent", inbound.to_traceparent());
        let resp = router.dispatch(&req);
        let echoed =
            TraceContext::parse_traceparent(resp.headers.get("traceparent").unwrap()).unwrap();
        assert_eq!(echoed.trace, inbound.trace);
        assert_ne!(echoed.span, inbound.span);
        assert_ne!(echoed.trace, ctx.trace);
        // Cache hits are stamped too.
        assert_eq!(resp.headers.get("X-Cache"), Some("hit"));
        assert!(resp.headers.get("X-Freshness-Lag-Seconds").is_some());

        // Malformed traceparent: ignored, new root, still 200.
        let req = Request::get(url).with_header("traceparent", "zz-not-a-trace");
        let resp = router.dispatch(&req);
        assert_eq!(resp.status, Status::OK);
        let fresh =
            TraceContext::parse_traceparent(resp.headers.get("traceparent").unwrap()).unwrap();
        assert_ne!(fresh.trace, inbound.trace);

        // Error responses carry the headers as well.
        let bad = get(&router, "/v1/metrics");
        assert_eq!(bad.status, Status::BAD_REQUEST);
        assert!(bad.headers.get("traceparent").is_some());
    }

    #[test]
    fn closed_window_cache_survives_new_interval_writes() {
        // The tentpole behavior: under the old global-version cache, every
        // collection interval nuked every entry. With watermark validity a
        // closed historical window stays served from cache while new
        // intervals land — and a backfill still invalidates it.
        let (db, router) = service(); // data at ts 0..3540
                                      // Close the window: the watermark must reach past `end` (3600),
                                      // otherwise a later in-order point could still land inside it.
        db.write(
            DataPoint::new("Power", EpochSecs::new(3600))
                .tag("NodeId", "10.101.1.1")
                .tag("Label", "NodePower")
                .field_f64("Reading", 260.0),
        )
        .unwrap();
        let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";
        assert_eq!(get(&router, url).headers.get("X-Cache"), Some("miss"));

        // A new collection interval arrives above the queried window.
        db.write(
            DataPoint::new("Power", EpochSecs::new(7200))
                .tag("NodeId", "10.101.1.1")
                .tag("Label", "NodePower")
                .field_f64("Reading", 300.0),
        )
        .unwrap();
        let resp = get(&router, url);
        assert_eq!(
            resp.headers.get("X-Cache"),
            Some("hit"),
            "closed window must survive in-order appends"
        );

        // A backfill inside the window rewrites history: must invalidate.
        db.write(
            DataPoint::new("Power", EpochSecs::new(600))
                .tag("NodeId", "10.101.1.1")
                .tag("Label", "NodePower")
                .field_f64("Reading", 999.0),
        )
        .unwrap();
        let resp = get(&router, url);
        assert_eq!(resp.headers.get("X-Cache"), Some("miss"), "backfill must invalidate");
        let doc = resp.json_body().unwrap();
        // And the re-executed document sees the backfilled reading.
        let text = doc.to_string_compact();
        assert!(text.contains("999"), "re-execution must observe the backfill");
    }

    #[test]
    fn admission_rejects_expensive_queries_with_retry_after() {
        let db = Arc::new(Db::new(DbConfig::default()));
        let ids = NodeId::enumerate(2, 4);
        let mut batch = Vec::new();
        for i in 0..60i64 {
            for &n in &ids {
                batch.push(
                    DataPoint::new("Power", EpochSecs::new(i * 60))
                        .tag("NodeId", n.bmc_addr())
                        .tag("Label", "NodePower")
                        .field_f64("Reading", 250.0 + i as f64),
                );
            }
        }
        db.write_batch(&batch).unwrap();
        let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";
        let request = parse_metrics_request(&Request::get(url)).unwrap();
        let plan = build_plan(ServiceConfig::default().schema, &ids, &request);
        let est = db.simulate_elapsed(&crate::estimate_plan_cost(&db, &plan)).as_secs_f64();
        let rate = AdmissionConfig::default().tenant_rate;
        // Everything is "expensive" and nothing is affordable, by either
        // rule: the admission layer must turn the query away before it
        // executes, with the body and `Retry-After` of the rule that fired.
        let over_budget =
            AdmissionConfig { cheap_secs: 0.0, reject_secs: 0.0, ..AdmissionConfig::default() };
        let tenant_budget =
            AdmissionConfig { cheap_secs: 0.0, tenant_burst: 0.0, ..AdmissionConfig::default() };
        for (admission, reason, retry) in [
            (over_budget, "over_budget", ((est / rate).ceil() as u64).clamp(1, 300)),
            (tenant_budget, "tenant_budget", ((est / rate).ceil() as u64).max(1)),
        ] {
            let config = ServiceConfig { admission, ..ServiceConfig::default() };
            let router = router(Arc::clone(&db), ids.clone(), config);
            let resp = get(&router, url);
            assert_eq!(resp.status, Status::TOO_MANY_REQUESTS);
            let body = format!(
                "admission control rejected this query ({reason}): \
                 estimated cost {est:.3}s modelled; retry later"
            );
            assert_eq!(std::str::from_utf8(&resp.body[..]), Ok(body.as_str()));
            assert_eq!(resp.headers.get("Retry-After"), Some(retry.to_string().as_str()));
            assert!(retry >= 1);
            assert!(resp.headers.get("traceparent").is_some(), "429s carry trace headers too");
            // Rejections are not cached: the next attempt is re-evaluated.
            assert_eq!(get(&router, url).status, Status::TOO_MANY_REQUESTS);
        }
    }

    #[test]
    fn repeated_bad_requests_hit_the_negative_cache() {
        let (_db, router) = service();
        let url = "/v1/metrics?start=bogus&end=2020-01-01T01:00:00Z";
        let first = get(&router, url);
        assert_eq!(first.status, Status::BAD_REQUEST);
        assert_eq!(first.headers.get("X-Cache"), Some("miss"));
        let second = get(&router, url);
        assert_eq!(second.status, Status::BAD_REQUEST);
        assert_eq!(second.headers.get("X-Cache"), Some("hit"), "deterministic 400s are cached");
        assert_eq!(first.body, second.body);
    }

    #[test]
    fn concurrent_identical_requests_serve_identical_bytes() {
        // Coalescing plus caching under concurrency: every response for
        // the same URL must be byte-identical, whatever its disposition.
        let (_db, router) = service();
        let router = Arc::new(router);
        let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";
        let mut handles = Vec::new();
        for _ in 0..8 {
            let router = Arc::clone(&router);
            handles.push(std::thread::spawn(move || {
                let resp = router.dispatch(&Request::get(url));
                assert_eq!(resp.status, Status::OK);
                let disposition = resp.headers.get("X-Cache").unwrap().to_string();
                assert!(
                    ["hit", "miss", "coalesced"].contains(&disposition.as_str()),
                    "unexpected X-Cache: {disposition}"
                );
                resp.body.to_vec()
            }));
        }
        let bodies: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for b in &bodies[1..] {
            assert_eq!(b, &bodies[0]);
        }
    }

    #[test]
    fn pipeline_endpoint_reports_freshness() {
        let (db, router) = service();
        db.registry().freshness().record_ingests(0.0, [(NodeId::new(9, 9), "Thermal")]);
        db.registry().freshness().record_sweep(0.0, 60.0);
        let resp = get(&router, "/debug/pipeline");
        assert_eq!(resp.status, Status::OK);
        let doc = resp.json_body().unwrap();
        assert_eq!(doc.get("tracked_series").unwrap().as_i64(), Some(1));
        assert!(doc.get("staleness_secs").unwrap().get("p99").is_some());
        assert!(doc.get("attainment").unwrap().as_f64().is_some());
        assert!(doc.get("burn_rate").unwrap().get("fast").is_some());
    }

    /// Leaf paths of a JSON document with their types — the golden shape
    /// of `/debug/pipeline`. Values vary with what the tracker has seen;
    /// the key tree and types must not.
    fn shape_of(v: &Value, prefix: &str, out: &mut Vec<String>) {
        match v {
            Value::Object(o) => {
                for (k, inner) in o.iter() {
                    let path =
                        if prefix.is_empty() { k.to_string() } else { format!("{prefix}.{k}") };
                    shape_of(inner, &path, out);
                }
            }
            Value::Array(_) => out.push(format!("{prefix}:array")),
            Value::Int(_) | Value::Float(_) => out.push(format!("{prefix}:number")),
            Value::Str(_) => out.push(format!("{prefix}:string")),
            Value::Bool(_) => out.push(format!("{prefix}:bool")),
            Value::Null => out.push(format!("{prefix}:null")),
        }
    }

    #[test]
    fn pipeline_endpoint_shape_is_golden() {
        // Dashboards and the chaos harness key into this document by
        // path; adding a field is fine everywhere *except* silently, and
        // renaming one breaks consumers. This golden list is the contract
        // — update it deliberately, in the same commit as the consumer.
        let (db, router) = service();
        db.registry().freshness().record_ingests(0.0, [(NodeId::new(9, 8), "Thermal")]);
        db.registry().freshness().record_sweep(0.0, 60.0);
        let doc = get(&router, "/debug/pipeline").json_body().unwrap();
        let mut got = Vec::new();
        shape_of(&doc, "", &mut got);
        assert_eq!(
            got,
            [
                "tracked_series:number",
                "latest_sweep_epoch_secs:number",
                "slo.cadence_secs:number",
                "slo.fresh_within_secs:number",
                "slo.target:number",
                "staleness_secs.p50:number",
                "staleness_secs.p90:number",
                "staleness_secs.p99:number",
                "staleness_secs.max:number",
                "attainment:number",
                "error_budget_used:number",
                "burn_rate.fast_window_secs:number",
                "burn_rate.fast:number",
                "burn_rate.slow_window_secs:number",
                "burn_rate.slow:number",
            ],
            "GET /debug/pipeline shape drifted"
        );
    }

    const URL: &str = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z&interval=5m";

    fn payload_of(envelope: &Response) -> Vec<u8> {
        let doc = envelope.json_body().expect("envelope is JSON");
        qlog::base64_decode(doc.get("payload_base64").unwrap().as_str().unwrap())
            .expect("payload decodes")
    }

    #[test]
    fn explain_wraps_but_payload_is_byte_identical() {
        let (_db, router) = service();
        // Explain-off first: this is the reference payload (a miss).
        let plain = get(&router, URL);
        assert_eq!(plain.status, Status::OK);

        // Explain-on shares the same (normalized) cache entry: a hit.
        let wrapped = get(&router, &format!("{URL}&explain=true"));
        assert_eq!(wrapped.status, Status::OK);
        assert_eq!(wrapped.headers.get("X-Cache"), Some("hit"), "explain shares the cache key");
        assert_eq!(payload_of(&wrapped), plain.body.to_vec(), "payload must be byte-identical");

        let doc = wrapped.json_body().unwrap();
        let explain = doc.get("explain").expect("explain block");
        assert_eq!(explain.get("disposition").unwrap().as_str(), Some("hit"));
        assert_eq!(explain.get("cache").unwrap().get("verdict").unwrap().as_str(), Some("valid"));
        assert_eq!(
            explain.get("bytes_out").unwrap().as_i64().unwrap() as usize,
            plain.body.len(),
            "bytes_out counts the payload, not the envelope"
        );
        // And the explain request itself was recorded as explain=true.
        assert_eq!(explain.get("explain").unwrap(), &Value::Bool(true));

        // explain=false (or any other value) is stripped but not wrapped.
        let off = get(&router, &format!("{URL}&explain=false"));
        assert_eq!(off.headers.get("X-Cache"), Some("hit"));
        assert_eq!(off.body, plain.body);
    }

    #[test]
    fn explain_covers_negative_and_rejected_dispositions() {
        let (_db, router) = service();
        // Negative: parse rejection, still a 400 under explain.
        let bad = "/v1/metrics?start=bogus&end=2020-01-01T01:00:00Z";
        let plain = get(&router, bad);
        assert_eq!(plain.status, Status::BAD_REQUEST);
        let wrapped = get(&router, &format!("{bad}&explain=true"));
        assert_eq!(wrapped.status, Status::BAD_REQUEST, "explain preserves the status");
        assert_eq!(payload_of(&wrapped), plain.body.to_vec());
        let doc = wrapped.json_body().unwrap();
        assert_eq!(
            doc.get("explain").unwrap().get("disposition").unwrap().as_str(),
            Some("negative")
        );

        // Rejected: 429 with Retry-After and the bucket math inline.
        let (db2, _) = service();
        let config = ServiceConfig {
            admission: AdmissionConfig {
                enabled: true,
                cheap_secs: 0.0,
                reject_secs: 0.0,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        };
        let strict = super::router(Arc::clone(&db2), NodeId::enumerate(2, 4), config);
        let plain = get(&strict, URL);
        assert_eq!(plain.status, Status::TOO_MANY_REQUESTS);
        let wrapped = get(&strict, &format!("{URL}&explain=true"));
        assert_eq!(wrapped.status, Status::TOO_MANY_REQUESTS);
        let retry = wrapped.headers.get("Retry-After").expect("Retry-After survives explain");
        assert_eq!(payload_of(&wrapped), plain.body.to_vec());
        let doc = wrapped.json_body().unwrap();
        let explain = doc.get("explain").unwrap();
        assert_eq!(explain.get("disposition").unwrap().as_str(), Some("rejected"));
        let adm = explain.get("admission").expect("admission math inline");
        assert_eq!(adm.get("decision").unwrap().as_str(), Some("rejected_over_budget"));
        assert_eq!(
            adm.get("retry_after_secs").unwrap().as_i64().unwrap().to_string(),
            retry,
            "the explain math must reproduce the Retry-After header"
        );
    }

    /// A record stores its tenant cut to `TENANT_BYTES`; `?tenant=` with
    /// the full value must still find it, and only it.
    #[test]
    fn debug_requests_tenant_filter_finds_a_long_tenant() {
        let (_db, router) = service();
        let long = "dashboard-tenant-0123456789abc";
        let short = "dash-short";
        assert_eq!((long.len(), short.len()), (30, 10));
        for tenant in [long, short] {
            router.dispatch(&Request::get(URL).with_header("X-Tenant", tenant));
        }
        for tenant in [long, short] {
            let doc =
                get(&router, &format!("/debug/requests?tenant={tenant}")).json_body().unwrap();
            let rows = doc.get("requests").unwrap().as_array().unwrap();
            assert_eq!(rows.len(), 1, "?tenant={tenant}: {rows:?}");
            let stored = &tenant[..tenant.len().min(qlog::TENANT_BYTES)];
            assert_eq!(rows[0].get("tenant").unwrap().as_str(), Some(stored));
        }
    }

    #[test]
    fn debug_requests_lists_filters_and_drills_down() {
        let (_db, router) = service();
        let miss = get(&router, URL);
        let hit = get(&router, URL);
        assert_eq!(hit.headers.get("X-Cache"), Some("hit"));
        let tenant_req = Request::get(URL).with_header("X-Tenant", "dash-7");
        router.dispatch(&tenant_req);

        let doc = get(&router, "/debug/requests").json_body().unwrap();
        let requests = doc.get("requests").unwrap().as_array().unwrap();
        assert!(requests.len() >= 3);
        assert!(doc.get("recorded_total").unwrap().as_i64().unwrap() >= 3);

        // Filter: dispositions.
        let doc = get(&router, "/debug/requests?disposition=miss").json_body().unwrap();
        let misses = doc.get("requests").unwrap().as_array().unwrap();
        assert!(!misses.is_empty());
        for r in misses {
            assert_eq!(r.get("disposition").unwrap().as_str(), Some("miss"));
        }

        // Filter: tenant.
        let doc = get(&router, "/debug/requests?tenant=dash-7").json_body().unwrap();
        let tenant_rows = doc.get("requests").unwrap().as_array().unwrap();
        assert_eq!(tenant_rows.len(), 1);
        assert_eq!(tenant_rows[0].get("tenant").unwrap().as_str(), Some("dash-7"));
        assert_eq!(tenant_rows[0].get("disposition").unwrap().as_str(), Some("hit"));

        // Filter: limit, and the same fingerprint across dispositions.
        let doc = get(&router, "/debug/requests?limit=2").json_body().unwrap();
        assert_eq!(doc.get("requests").unwrap().as_array().unwrap().len(), 2);
        let doc = get(&router, "/debug/requests").json_body().unwrap();
        let all = doc.get("requests").unwrap().as_array().unwrap();
        let fps: Vec<&str> =
            all.iter().map(|r| r.get("fingerprint").unwrap().as_str().unwrap()).collect();
        assert!(fps.windows(2).all(|w| w[0] == w[1]), "one plan, one fingerprint: {fps:?}");

        // Malformed filters are 400s.
        assert_eq!(
            get(&router, "/debug/requests?disposition=sideways").status,
            Status::BAD_REQUEST
        );
        for min_ms in ["soon", "NaN", "inf", "-1"] {
            let resp = get(&router, &format!("/debug/requests?min_ms={min_ms}"));
            assert_eq!(resp.status, Status::BAD_REQUEST, "min_ms={min_ms}");
        }
        assert_eq!(get(&router, "/debug/requests?min_ms=0").status, Status::OK);

        // Drill-down by the trace id the response advertised.
        let tp = miss.headers.get("traceparent").unwrap();
        let trace_hex = tp.split('-').nth(1).unwrap();
        let drill = get(&router, &format!("/debug/requests/{trace_hex}"));
        assert_eq!(drill.status, Status::OK);
        let doc = drill.json_body().unwrap();
        assert_eq!(doc.get("trace_id").unwrap().as_str(), Some(trace_hex));
        let rows = doc.get("requests").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("disposition").unwrap().as_str(), Some("miss"));

        // And the same id filters the span ring.
        let spans = get(&router, &format!("/debug/trace?trace_id={trace_hex}"));
        let events = spans.json_body().unwrap();
        let events = events.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty(), "the request's spans are reachable from its record");
        for ev in events {
            assert_eq!(ev.get("args").unwrap().get("trace_id").unwrap().as_str(), Some(trace_hex));
        }

        assert_eq!(get(&router, "/debug/requests/not-hex").status, Status::BAD_REQUEST);
        assert_eq!(get(&router, "/debug/trace?trace_id=not-hex").status, Status::BAD_REQUEST);
        assert_eq!(
            get(&router, &format!("/debug/requests/{}", "f".repeat(32))).status,
            Status::NOT_FOUND
        );
    }

    #[test]
    fn every_request_leaves_exactly_one_record_whatever_its_outcome() {
        // `ServiceConfig::default()` but for admission that refuses what it
        // prices: the recorder has no switch to forget.
        let (db, _) = service();
        let strict = AdmissionConfig {
            enabled: true,
            cheap_secs: 0.0,
            reject_secs: 0.0,
            ..AdmissionConfig::default()
        };
        for (admission, url, status, disposition) in [
            (AdmissionConfig::default(), URL, Status::OK, "miss"),
            (
                AdmissionConfig::default(),
                "/v1/metrics?start=bogus",
                Status::BAD_REQUEST,
                "negative",
            ),
            (strict, URL, Status::TOO_MANY_REQUESTS, "rejected"),
        ] {
            let config = ServiceConfig { admission, ..ServiceConfig::default() };
            let router = router(Arc::clone(&db), NodeId::enumerate(2, 4), config);
            let empty = get(&router, "/debug/requests");
            assert_eq!(empty.status, Status::OK, "an empty ring is served, never \"disabled\"");
            let doc = empty.json_body().unwrap();
            assert_eq!(doc.get("recorded_total").unwrap().as_i64(), Some(0));
            let unknown = get(&router, &format!("/debug/requests/{}", "1".repeat(32)));
            assert_eq!(unknown.status, Status::NOT_FOUND);
            assert!(String::from_utf8_lossy(&unknown.body).contains("no live flight-recorder"));

            let resp = get(&router, url);
            assert_eq!(resp.status, status, "{url}");
            let doc = get(&router, "/debug/requests").json_body().unwrap();
            assert_eq!(doc.get("recorded_total").unwrap().as_i64(), Some(1), "{url}");
            let rows = doc.get("requests").unwrap().as_array().unwrap();
            assert_eq!(rows.len(), 1, "{url}");
            assert_eq!(rows[0].get("disposition").unwrap().as_str(), Some(disposition));
            assert_eq!(rows[0].get("status").unwrap().as_i64(), Some(status.0 as i64));
            // Only a miss renders: its record counts the points in its body.
            let rendered = readings_in(&resp.body);
            assert_eq!(rendered > 0, disposition == "miss", "{url}");
            assert_eq!(rows[0].get("points_out").unwrap().as_i64(), Some(rendered as i64));
            let trace = resp.headers.get("traceparent").unwrap().split('-').nth(1).unwrap();
            assert_eq!(get(&router, &format!("/debug/requests/{trace}")).status, Status::OK);
            if disposition == "miss" {
                assert_eq!(get(&router, url).headers.get("X-Cache"), Some("hit"));
                let doc = get(&router, "/debug/requests?disposition=hit").json_body().unwrap();
                let hit = &doc.get("requests").unwrap().as_array().unwrap()[0];
                assert_eq!(
                    hit.get("points_out").unwrap().as_i64(),
                    Some(0),
                    "a hit renders nothing"
                );
            }
        }
    }

    #[test]
    fn compress_stage_and_metrics_account_for_the_deflate() {
        let (db, router) = service();
        let obs = db.registry();
        let seconds = obs.histo("monster_builder_compress_seconds");
        let raw = obs.counter("monster_builder_compress_bytes_total{kind=\"raw\"}");
        let wire = obs.counter("monster_builder_compress_bytes_total{kind=\"wire\"}");

        let plain = get(&router, URL);
        let packed = get(&router, &format!("{URL}&compress=true"));
        assert_eq!(packed.headers.get("Content-Encoding"), Some("deflate"));
        assert_eq!(packed.decoded_body().unwrap(), plain.body.to_vec());
        // The service's registry is its own: the one deflate, exactly.
        assert_eq!(seconds.count(), 1, "one deflate observed");
        assert_eq!(raw.get(), plain.body.len() as u64);
        assert_eq!(wire.get(), packed.body.len() as u64);
        assert!(packed.body.len() < plain.body.len());

        // The record of the compressed miss times the deflate on its own;
        // the plain miss and the hit have none.
        let doc = get(&router, "/debug/requests").json_body().unwrap();
        let stage = |want_compress: bool, name: &str| {
            let rows = doc.get("requests").unwrap().as_array().unwrap();
            let row = rows
                .iter()
                .find(|r| {
                    r.get("disposition").unwrap().as_str() == Some("miss")
                        && r.get("url").unwrap().as_str().unwrap().contains("compress=true")
                            == want_compress
                })
                .expect("a miss of each kind");
            row.get("wall_ms").unwrap().get(name).unwrap().as_f64().unwrap()
        };
        assert!(stage(true, "compress") > 0.0);
        assert_eq!(stage(false, "compress"), 0.0);
        assert!(stage(true, "encode") > 0.0 && stage(false, "encode") > 0.0);
    }

    #[test]
    fn debug_requests_record_shape_is_golden() {
        // Like the /debug/pipeline golden: consumers key into records by
        // path. This is the contract for an executed (miss) record —
        // update it deliberately, with the consumer, in one commit.
        let (_db, router) = service();
        get(&router, URL);
        let doc = get(&router, "/debug/requests?disposition=miss").json_body().unwrap();
        let record = &doc.get("requests").unwrap().as_array().unwrap()[0];
        let mut got = Vec::new();
        shape_of(record, "", &mut got);
        assert_eq!(
            got,
            [
                "seq:number",
                "trace_id:string",
                "span_id:string",
                "disposition:string",
                "status:number",
                "tenant:string",
                "url:string",
                "fingerprint:string",
                "explain:bool",
                "slow:bool",
                "truncated:bool",
                "bytes_out:number",
                "points_out:number",
                "wall_ms.total:number",
                "wall_ms.parse:number",
                "wall_ms.plan:number",
                "wall_ms.cache:number",
                "wall_ms.admission:number",
                "wall_ms.execute:number",
                "wall_ms.encode:number",
                "wall_ms.compress:number",
                "vtime_ms.execute:number",
                "vtime_ms.encode:number",
                "vtime_ms.total:number",
                "cache.verdict:string",
                "cost.estimated.index_entries:number",
                "cost.estimated.series:number",
                "cost.estimated.blocks:number",
                "cost.estimated.blocks_summarized:number",
                "cost.estimated.points:number",
                "cost.estimated.bytes:number",
                "cost.estimated.blocks_cold:number",
                "cost.estimated.bytes_cold:number",
                "cost.estimated.shards_scanned:number",
                "cost.estimated.queries:number",
                "cost.actual.index_entries:number",
                "cost.actual.series:number",
                "cost.actual.blocks:number",
                "cost.actual.blocks_summarized:number",
                "cost.actual.points:number",
                "cost.actual.bytes:number",
                "cost.actual.blocks_cold:number",
                "cost.actual.bytes_cold:number",
                "cost.actual.shards_scanned:number",
                "cost.actual.queries:number",
                "cost.estimated_modelled_ms:number",
                "cost.actual_modelled_ms:number",
                "cost.ratio.seconds:number",
                "cost.ratio.points:number",
                "cost.ratio.bytes:number",
                "cost.ratio.blocks:number",
                "admission.decision:string",
                "admission.estimated_secs:number",
                "admission.tokens_before:null",
                "admission.tokens_after:null",
                "admission.rate:number",
                "admission.burst:number",
                "admission.retry_after_secs:number",
            ],
            "GET /debug/requests record shape drifted"
        );
        // The top-level document shape, one level deep.
        assert!(doc.get("capacity").unwrap().as_i64().unwrap() >= 16);
        assert!(doc.get("dropped_total").unwrap().as_i64().is_some());
        assert!(doc.get("slow_threshold_ms").unwrap().as_f64().is_some());
        assert!(doc.get("slow").unwrap().as_array().is_some());
    }

    /// A router over a fresh fixture db whose every request pins in the
    /// slow log (a 1 ns threshold), under `admission` — and the state it
    /// serves from.
    fn pinning_router(admission: AdmissionConfig) -> (Arc<MetricsState>, Router) {
        let (db, _) = service();
        let config = ServiceConfig { admission, ..ServiceConfig::default() };
        let state =
            Arc::new(MetricsState::new(db, NodeId::enumerate(2, 4), config).with_slow_ms(1e-6));
        (Arc::clone(&state), routes(state))
    }

    #[test]
    fn a_long_key_has_one_fingerprint_and_one_truncated_url_everywhere() {
        // Past URL_BYTES, and non-ASCII where the cut falls: the ring slot,
        // the pinned copy and the explain-inline record are one `fill`.
        let (_, router) = pinning_router(AdmissionConfig::default());
        let key = format!("{URL}&pad=x{}", "é".repeat(120));
        assert!(key.len() > 2 * qlog::URL_BYTES);
        assert_eq!(get(&router, &key).headers.get("X-Cache"), Some("miss"));
        assert_eq!(get(&router, &key).headers.get("X-Cache"), Some("hit"));
        let wrapped = get(&router, &format!("{key}&explain=true"));
        assert_eq!(wrapped.headers.get("X-Cache"), Some("hit"));

        let debug = get(&router, "/debug/requests").json_body().unwrap();
        let ring = debug.get("requests").unwrap().as_array().unwrap();
        let pinned = debug.get("slow").unwrap().as_array().unwrap();
        assert_eq!((ring.len(), pinned.len()), (3, 3));
        let envelope = wrapped.json_body().unwrap();
        let inline = envelope.get("explain").unwrap();
        let fingerprint = format!("{:016x}", qlog::fingerprint64(&key));
        for rec in ring.iter().chain(pinned).chain([inline]) {
            let url = rec.get("url").unwrap().as_str().unwrap();
            assert!(key.starts_with(url), "a prefix of the key: {url}");
            assert!(url.len() <= qlog::URL_BYTES && url.len() > qlog::URL_BYTES - 4);
            assert_eq!(rec.get("truncated").unwrap(), &Value::Bool(true));
            assert_eq!(rec.get("fingerprint").unwrap().as_str(), Some(fingerprint.as_str()));
        }
        assert_eq!(inline.get("url"), ring[0].get("url"));
    }

    #[test]
    fn every_records_stages_sum_to_its_total() {
        let (state, router) = pinning_router(AdmissionConfig::default());
        get(&router, URL); // miss
        get(&router, URL); // hit
        get(&router, &format!("{URL}&compress=true")); // compressed miss
        let bad = "/v1/metrics?start=bogus&end=2020-01-01T01:00:00Z";
        get(&router, bad); // negative, parsed
        get(&router, bad); // negative, from the cache
        let explained = get(&router, &format!("{URL}&aggregation=min&explain=true"));
        // Coalesced: the test claims the key's flight itself and shares an
        // answer once the request is on it.
        let shared_url = format!("{URL}&aggregation=mean");
        let Claim::Lead(ticket) = state.cache.claim(&shared_url, &state.db, true) else {
            panic!("nobody else flies this key");
        };
        std::thread::scope(|s| {
            let joiner = s.spawn(|| get(&router, &shared_url));
            while state.cache.joiners(&shared_url) == 0 {
                std::thread::yield_now();
            }
            ticket.share(Arc::new(Response::json(&jobj! { "led" => "by the test" })));
            let resp = joiner.join().expect("joiner panicked");
            assert_eq!(resp.headers.get("X-Cache"), Some("coalesced"));
        });
        let (_, strict) = pinning_router(AdmissionConfig {
            enabled: true,
            cheap_secs: 0.0,
            reject_secs: 0.0,
            ..AdmissionConfig::default()
        });
        assert_eq!(get(&strict, URL).status, Status::TOO_MANY_REQUESTS); // rejected

        let mut seen = std::collections::BTreeSet::new();
        let mut check = |rec: &Value| {
            let wall = rec.get("wall_ms").unwrap();
            let of = |name: &str| wall.get(name).unwrap().as_f64().unwrap();
            let (total, sum) = (of("total"), Stage::ALL.iter().map(|s| of(s.name())).sum::<f64>());
            assert!((total - sum).abs() < 1e-3, "stages sum to {sum} ms of {total} ms: {rec:?}");
            let disposition = rec.get("disposition").unwrap().as_str().unwrap().to_string();
            let compressed = rec.get("url").unwrap().as_str().unwrap().contains("compress=true");
            if disposition == "miss" && compressed {
                assert!(of("compress") > 0.0);
            } else {
                assert_eq!(of("compress"), 0.0, "{rec:?}");
            }
            // The two requests above that the first probe answered.
            let forced = [URL, bad].contains(&rec.get("url").unwrap().as_str().unwrap());
            if forced
                && rec.get("cache").unwrap().get("verdict").unwrap().as_str() != Some("absent")
            {
                assert!(["hit", "negative"].contains(&disposition.as_str()));
                assert_eq!(of("cache"), total, "a hit is all cache stage: {rec:?}");
            }
            seen.insert((disposition, compressed));
        };
        for router in [&router, &strict] {
            let doc = get(router, "/debug/requests?limit=1000").json_body().unwrap();
            let ring = doc.get("requests").unwrap().as_array().unwrap();
            let pinned = doc.get("slow").unwrap().as_array().unwrap();
            assert!(!ring.is_empty() && !pinned.is_empty());
            ring.iter().chain(pinned).for_each(&mut check);
        }
        check(explained.json_body().unwrap().get("explain").unwrap());
        let want = [
            ("coalesced", false),
            ("hit", false),
            ("miss", false),
            ("miss", true),
            ("negative", false),
            ("rejected", false),
        ];
        assert_eq!(seen, want.map(|(d, c)| (d.to_string(), c)).into_iter().collect());
    }

    #[test]
    fn slow_queries_pin_past_the_threshold() {
        let (db, _) = service();
        // The fixture's miss models ~21 ms of storage work — over a 5 ms
        // threshold on modelled time. A cache hit models nothing and
        // serves in well under 5 ms of wall: it must not pin.
        let state = MetricsState::new(db, NodeId::enumerate(2, 4), ServiceConfig::default());
        let router = routes(Arc::new(state.with_slow_ms(5.0)));
        get(&router, URL);
        let hit = get(&router, URL);
        assert_eq!(hit.headers.get("X-Cache"), Some("hit"));
        let doc = get(&router, "/debug/requests").json_body().unwrap();
        let slow = doc.get("slow").unwrap().as_array().unwrap();
        assert_eq!(slow.len(), 1, "the miss pins; the hit does not");
        assert_eq!(slow[0].get("disposition").unwrap().as_str(), Some("miss"));
        assert_eq!(slow[0].get("slow").unwrap(), &Value::Bool(true));
        // The counter moved: the one pinned miss.
        let metrics = get(&router, "/metrics");
        let text = String::from_utf8(metrics.body.to_vec()).unwrap();
        assert_eq!(monster_obs::sample(&text, "monster_builder_slow_queries_total"), Some(1.0));
    }

    #[test]
    fn self_monitoring_endpoints_serve() {
        let (_db, router) = service();
        // Generate some activity first.
        let url = "/v1/metrics?start=1970-01-01T00:00:00Z&end=1970-01-01T01:00:00Z";
        assert_eq!(get(&router, url).status, Status::OK);
        let metrics = get(&router, "/metrics");
        assert_eq!(metrics.status, Status::OK);
        let text = String::from_utf8(metrics.body.to_vec()).unwrap();
        assert_eq!(monster_obs::sample(&text, "monster_builder_requests_total"), Some(1.0));
        // Every flight-recorder family is in the exposition of any service,
        // each under a `# HELP` line.
        for family in [
            "monster_builder_qlog_records_total",
            "monster_builder_qlog_dropped_total",
            "monster_builder_slow_queries_total",
            "monster_builder_cost_estimate_ratio",
        ] {
            let help = |l: &str| {
                l.strip_prefix("# HELP ")
                    .is_some_and(|rest| rest.split(['{', ' ']).next() == Some(family))
            };
            assert!(text.lines().any(help), "`{family}` has no HELP line");
        }
        for stage in qlog::RATIO_STAGES {
            let series = format!("monster_builder_cost_estimate_ratio{{stage=\"{stage}\"}}");
            assert!(text.contains(&series), "`{series}` missing from the exposition");
        }
        let trace = get(&router, "/debug/trace");
        assert_eq!(trace.status, Status::OK);
        let events = trace.json_body().unwrap();
        assert!(!events.get("traceEvents").unwrap().as_array().unwrap().is_empty());
        assert_eq!(get(&router, "/healthz").status, Status::OK);
        assert_eq!(get(&router, "/v1/health").status, Status::OK);
    }
}
