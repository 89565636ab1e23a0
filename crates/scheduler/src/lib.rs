//! `monster-scheduler` — a discrete-event Univa Grid Engine simulator.
//!
//! MonSTer's in-band measurements come from the cluster's resource manager
//! (§III-B2): UGE's qmaster tracks node load and job state via execution-
//! daemon reports every 40 s, and its ARCo console exposes accounting
//! records the collector polls each interval (≈19 KB per node and ≈23 KB
//! per job of accounting payload — Table IV's traffic).
//!
//! No UGE deployment exists here, so this crate implements the moving
//! parts the paper describes:
//!
//! * [`job`] — job specs, lifecycle states, array/parallel job shapes;
//! * [`host`] — execution hosts: slot accounting, per-job CPU/memory
//!   model, load reports;
//! * [`qmaster`] — the scheduler core: priority queue, first-fit
//!   placement, 40 s load reports, lost-host detection, completion events,
//!   driven by a discrete-event queue;
//! * [`accounting`] — ARCo-style records and the JSON payloads whose
//!   sizes reproduce Table IV;
//! * [`workload`] — a synthetic user population (MPI users, array-job
//!   users, serial users — the Fig. 6 cast) generating Poisson arrivals.
//!
//! MonSTer "also supports query metrics from Slurm" (§III-B2); this
//! reproduction simulates UGE only, and the collector reads it through
//! [`accounting::accounting_pull`].

#![warn(missing_docs)]

pub mod accounting;
pub mod host;
pub mod job;
pub mod qmaster;
pub mod workload;

pub use job::{Job, JobId, JobShape, JobSpec, JobState};
pub use qmaster::{Qmaster, QmasterConfig};
pub use workload::{WorkloadConfig, WorkloadGenerator};
