//! `monster-analysis` — the analytics behind HiperJobViz.
//!
//! The paper's data-analysis layer (§III-E) is a visualization tool; what
//! this crate reproduces is every data product those visuals render:
//!
//! * [`kmeans`] — the (modified) k-means clustering that groups the 467
//!   nodes into the seven host groups of Fig. 9 and colours Fig. 8's
//!   historical trend;
//! * [`radar`] — per-node nine-dimensional normalized profiles (Fig. 7's
//!   radar charts) and the normal/critical classification;
//! * [`histogram`] — the per-user symmetric-histogram matrix of Fig. 9's
//!   right panel (resource-usage variance per dimension per user);
//! * [`timeline`] — the Fig. 6 job-scheduling timeline: per-user waiting/
//!   running bars with job and host counts;
//! * [`trend`] — Fig. 8's historical status trend: a node's metrics over
//!   time with the cluster each window belongs to.
//!
//! Streaming anomaly detection lives with the collector and the alert
//! engine (`monster_alert::detect`), not here.

#![warn(missing_docs)]

pub mod histogram;
pub mod kmeans;
pub mod radar;
pub mod report;
pub mod timeline;
pub mod trend;

pub use kmeans::{KMeans, KMeansConfig};
pub use radar::{RadarProfile, METRIC_NAMES};
pub use report::ClusterReport;
pub use timeline::{JobBar, UserTimeline};
