//! `monster-builder` — the Metrics Builder (§II-C).
//!
//! The middleware between API consumers and the TSDB: it expands a
//! consumer request into per-node, per-measurement queries
//! ([`build_plan`]), executes them sequentially or concurrently
//! ([`exec::execute`], §IV-B3), reroutes coarse queries to maintained
//! roll-ups ([`rollup::reroute`]), marshals the results into a JSON
//! document, and encodes the response with optional compression
//! ([`encode_response`], §IV-B4). [`service::router`] exposes the whole
//! pipeline over HTTP, including the self-monitoring endpoints
//! `GET /metrics` and `GET /debug/trace` backed by `monster_obs`.
//!
//! Execution is instrumented end to end: request/query/point counters,
//! simulated query-latency histograms, cache hit/miss counters, and
//! vtime-stamped spans all land in the `monster_obs` global registry.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod exec;
pub mod flight;
pub mod materializer;
pub mod plan;
pub mod qlog;
pub mod response;
pub mod rollup;
pub mod service;

pub use admission::{Admission, AdmissionConfig, AdmissionController};
pub use cache::{ResponseCache, Validity, ValiditySnapshot};
pub use exec::{execute, BuilderOutcome, ExecMode};
pub use flight::{FlightGroup, Join};
pub use materializer::Materializer;
pub use plan::{build_plan, estimate_plan_cost, BuilderRequest, PlannedQuery, QueryGroup};
pub use qlog::{Disposition, QueryRecorder, RecordFilter, RequestRecord};
pub use response::{encode_response, EncodedResponse};
pub use rollup::RollupRoute;
