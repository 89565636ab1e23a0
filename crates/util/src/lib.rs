//! `monster-util` — shared foundations for the MonSTer workspace.
//!
//! This crate hosts the small building blocks every other MonSTer crate
//! needs:
//!
//! * [`error`] — the workspace-wide error type and `Result` alias;
//! * [`time`] — epoch seconds, RFC 3339 parsing/formatting, and the
//!   human-readable interval grammar (`"5m"`, `"72h"`) used by the Metrics
//!   Builder API;
//! * [`stats`] — streaming and batch descriptive statistics used by the
//!   evaluation harness and the analysis crate;
//! * [`pool`] — scoped fan-out over a fixed number of threads, used by the
//!   Redfish client sweep and the TSDB's batched read path;
//! * [`bytesize`] — human byte-size formatting for the volume experiments;
//! * [`ids`] — strongly-typed identifiers (nodes, jobs, users) shared by the
//!   scheduler, collector, and storage layers.

#![warn(missing_docs)]

pub mod bytesize;
pub mod error;
pub mod ids;
pub mod pool;
pub mod stats;
pub mod time;

pub use error::{Error, Result};
pub use ids::{JobId, NodeId, UserName};
pub use time::EpochSecs;
