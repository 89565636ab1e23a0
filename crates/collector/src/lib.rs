//! `monster-collector` — the Metrics Collector service.
//!
//! The centralized collecting agent of §III-B: every interval (60 s) it
//! reads one [`Source`] — a fan-out of requests to all BMCs, the sensors
//! directly, or the §VI telemetry reports — pulls node/job accounting from
//! the resource manager, **pre-processes** the raw readings (§III-B3), and
//! builds data points against a storage schema for the deployment to
//! batch-write to the TSDB.
//!
//! Two complete schema generations are implemented because the paper's
//! Fig. 13/14 experiments compare them:
//!
//! * [`schema::SchemaVersion::Previous`] — the original deployment's
//!   layout: per-metric measurements carrying threshold metadata and
//!   human-readable date/health strings, **plus** the coexisting second
//!   iteration (a unified metric measurement and one dedicated measurement
//!   per job), exactly the cardinality accident §IV-B2 describes;
//! * [`schema::SchemaVersion::Optimized`] — the redesigned layout: binary
//!   health codes stored only when abnormal, integer epoch times,
//!   consolidated measurements (`Health`, `Power`, `Thermal`, `UGE`,
//!   `JobsInfo`, `NodeJobs` — the §III-C inventory).
//!
//! Beside the writer, each generation declares its dashboard layout once:
//! [`SchemaVersion::sections`] lists the [`Section`]s of a node's document
//! — name, measurement, field and tag — that the Metrics Builder plans its
//! queries from.
//!
//! Pre-processing ([`preprocess`]) implements the §III-B3 rules: health
//! string → binary code (abnormal-only retention), date string → epoch
//! int, job-list diffing to estimate finish times UGE does not report, and
//! derived per-job core/node counts.

#![warn(missing_docs)]

pub mod collector;
pub mod preprocess;
pub mod schema;

pub use collector::{Collector, CollectorConfig, IntervalOutput, PointBatch, Recycled, Source};
pub use schema::{PointWriter, QueryGroup, SchemaVersion, Section, NODE_TAG};
