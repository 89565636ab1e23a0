//! `monster-redfish` — a simulated Redfish/BMC fleet and its client.
//!
//! The paper's out-of-band collection path (§III-B1) polls the iDRAC BMC of
//! each of 467 nodes over the management network: four Redfish resource
//! URLs per node (Thermal, Power, Managers, Systems) — a request pool of
//! 1868 URLs per sweep — with a measured mean response time of 4.29 s and a
//! full asynchronous sweep of about 55 s. iDRACs are resource-starved and
//! drop or stall requests under load, which is why the collector carries
//! connection timeouts, read timeouts, and retries.
//!
//! No iDRACs are available here, so this crate builds the fleet:
//!
//! * [`sensors`] — per-node physical state with first-order dynamics
//!   (CPU temperature follows scheduler load, fans follow temperature,
//!   power follows load) and health derived from thresholds;
//! * [`model`] — Redfish-conformant JSON payloads for the four resource
//!   categories (Table I's metric inventory), answered over a template each
//!   thread keeps a category rather than built a request;
//! * [`bmc`] — a simulated iDRAC: latency distribution calibrated to the
//!   paper's 4.29 s mean, a heavy stall tail, failure injection;
//! * [`cluster`] — the 467-node fleet with per-node deterministic RNG
//!   streams, advanced in lockstep with the scheduler simulation; a request
//!   lends its answer to a closure under the node's lock;
//! * [`client`] — the polling client: request-pool fan-out on a worker
//!   pool, timeout + retry policy, simulated sweep makespan;
//! * [`resilience`] — per-BMC health registry (EWMA latency, consecutive
//!   failures), circuit breakers, and jittered retry backoff feeding the
//!   client's deadline-aware degraded sweeps;
//! * [`gateway`] — an HTTP facade that serves the simulated fleet over
//!   real sockets (`/nodes/:addr/redfish/v1/...`) for end-to-end tests;
//! * [`telemetry`] — the DMTF Telemetry Service (the paper's §VI future
//!   work): BMC-side fast sampling with batched metric reports;
//! * [`auth`] — Redfish SessionService authentication (X-Auth-Token).

#![warn(missing_docs)]

pub mod auth;
pub mod bmc;
pub mod client;
pub mod cluster;
pub mod gateway;
pub mod model;
pub mod resilience;
pub mod sensors;
pub mod telemetry;
pub mod types;

pub use bmc::{BmcConfig, SimulatedBmc};
pub use client::{RedfishClient, SweepOutcome};
pub use cluster::{ClusterConfig, SimulatedCluster};
pub use resilience::{BreakerState, HealthRegistry, ResilienceConfig};
pub use types::{Category, HealthState, NodeReading};
