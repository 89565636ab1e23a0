//! `monster-alert` — streaming anomaly detection and deterministic
//! alerting.
//!
//! MonSTer's value is not shipping raw BMC readings but telling operators
//! *what is wrong*. This crate is that layer, in two halves:
//!
//! * [`detect`] — per-`(node, signal)` streaming detectors (EWMA z-score,
//!   rate-of-change, flatline) run by the collector on every live reading,
//!   emitting typed [`AnomalyEvent`]s with the exemplar trace of the
//!   offending sweep;
//! * [`engine`] — the [`AlertEngine`] that folds those events together
//!   with collection health (breaker trips, skips, stale substitution) and
//!   the freshness SLO burn rate into a dedup'd alert table with severity
//!   grading, hold-down flap suppression on virtual time, and per-job
//!   attribution — served at `GET /v1/alerts`.
//!
//! Both halves are pure functions of their inputs and of virtual time, so
//! the seeded chaos matrix asserts *exact* alert sets: dead-rack raises
//! one critical per dead node with zero flaps, rolling-brownout
//! raises-then-resolves, calm raises nothing.

#![warn(missing_docs)]

pub mod detect;
pub mod engine;

pub use detect::{AnomalyEvent, AnomalyKind, DetectorBank, DetectorConfig, Signal};
pub use engine::{
    Alert, AlertCategory, AlertEngine, AlertKey, AlertState, EngineConfig, IntervalInput,
    IntervalOutcome, NodeInterval, RuleId, Severity,
};
