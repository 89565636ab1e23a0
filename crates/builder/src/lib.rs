//! `monster-builder` — the Metrics Builder (§II-C).
//!
//! The middleware between API consumers and the TSDB: it expands a
//! consumer request into per-node, per-measurement queries
//! ([`build_plan`]), executes them sequentially or concurrently
//! ([`exec::execute`], §IV-B3) over the raw columns when the request
//! arrives, marshals the results into a JSON document, and encodes the
//! response with optional compression ([`encode_response`], §IV-B4).
//! [`service::router`] exposes the whole pipeline over HTTP, including the
//! self-monitoring endpoints `GET /metrics` and `GET /debug/trace` backed
//! by `monster_obs`. In front of execution sits one [`ResponseCache`]: one
//! map holds its watermark-valid answers and, beside them, the flights
//! that coalesce identical misses ([`ResponseCache::claim`]).
//!
//! Execution is instrumented end to end: request/query/point counters,
//! simulated query-latency histograms and cache hit/miss counters land in
//! the registry of the database served, and every request leaves one
//! record in the service's flight recorder ([`qlog`]), which is also its
//! trace.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod exec;
pub mod plan;
pub mod qlog;
pub mod response;
pub mod service;

pub use admission::{Admission, AdmissionConfig, AdmissionController};
pub use cache::{Claim, ResponseCache, Ticket, Validity, ValiditySnapshot};
pub use exec::{execute, BuilderOutcome, ExecMode};
pub use monster_collector::QueryGroup;
pub use plan::{build_plan, estimate_plan_cost, BuilderRequest, PlannedQuery};
pub use qlog::{Disposition, QueryRecorder, RecordFilter, RequestRecord};
pub use response::{encode_response, EncodedResponse};
