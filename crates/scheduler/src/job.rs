//! Job model: specs, shapes, lifecycle.

use monster_util::{EpochSecs, NodeId, UserName};

pub use monster_util::JobId;

/// How a job consumes resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobShape {
    /// A serial/threaded job: `slots` cores on one node.
    Serial {
        /// Cores requested (1..=slots_per_node).
        slots: u32,
    },
    /// An MPI job under a parallel environment: `nodes` whole nodes,
    /// exclusively (36 slots each on Quanah).
    Parallel {
        /// Whole nodes requested.
        nodes: u32,
    },
    /// One task of an array job: 1 slot, tagged with the array task index
    /// (UGE schedules tasks independently; the Fig. 6 "997 jobs on 29
    /// hosts" user is this shape).
    ArrayTask {
        /// The parent array job id.
        parent: JobId,
        /// Task index within the array.
        index: u32,
    },
}

impl JobShape {
    /// Slots needed on each node the job lands on.
    pub fn slots_per_host(&self, slots_per_node: u32) -> u32 {
        match self {
            JobShape::Serial { slots } => *slots,
            JobShape::Parallel { .. } => slots_per_node,
            JobShape::ArrayTask { .. } => 1,
        }
    }

    /// Number of distinct hosts required.
    pub fn hosts_needed(&self) -> u32 {
        match self {
            JobShape::Parallel { nodes } => *nodes,
            _ => 1,
        }
    }
}

/// A submission: everything known at `qsub` time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owner.
    pub user: UserName,
    /// Job name (script name).
    pub name: String,
    /// Resource shape.
    pub shape: JobShape,
    /// True runtime once started (the simulator knows; the scheduler does
    /// not use it for placement, mirroring UGE without h_rt hints).
    pub runtime_secs: i64,
    /// Scheduling priority (higher first).
    pub priority: i32,
    /// Memory per occupied slot, in GiB (drives the node memory model).
    pub mem_per_slot_gib: f64,
}

/// Lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Executing.
    Running {
        /// Dispatch time.
        start: EpochSecs,
        /// Hosts allocated.
        hosts: Vec<NodeId>,
    },
    /// Finished normally.
    Done {
        /// Dispatch time.
        start: EpochSecs,
        /// Completion time.
        end: EpochSecs,
        /// Hosts that ran it.
        hosts: Vec<NodeId>,
    },
    /// Killed by a host failure.
    Failed {
        /// Dispatch time.
        start: EpochSecs,
        /// Failure time.
        end: EpochSecs,
        /// Hosts that ran it.
        hosts: Vec<NodeId>,
    },
}

/// A job known to the qmaster.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Assigned id.
    pub id: JobId,
    /// The submission.
    pub spec: JobSpec,
    /// Submission time.
    pub submit_time: EpochSecs,
    /// Current state.
    pub state: JobState,
}

impl Job {
    /// Queue wait so far (or total, once started).
    pub fn wait_secs(&self, now: EpochSecs) -> i64 {
        match &self.state {
            JobState::Pending => now - self.submit_time,
            JobState::Running { start, .. }
            | JobState::Done { start, .. }
            | JobState::Failed { start, .. } => *start - self.submit_time,
        }
    }

    /// Hosts currently/finally allocated (empty while pending).
    pub fn hosts(&self) -> &[NodeId] {
        match &self.state {
            JobState::Pending => &[],
            JobState::Running { hosts, .. }
            | JobState::Done { hosts, .. }
            | JobState::Failed { hosts, .. } => hosts,
        }
    }

    /// True while executing.
    pub fn is_running(&self) -> bool {
        matches!(self.state, JobState::Running { .. })
    }

    /// Total slots across all hosts.
    pub fn total_slots(&self, slots_per_node: u32) -> u32 {
        self.spec.shape.slots_per_host(slots_per_node) * self.spec.shape.hosts_needed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(shape: JobShape) -> JobSpec {
        JobSpec {
            user: UserName::new("jieyao"),
            name: "run.sh".into(),
            shape,
            runtime_secs: 3600,
            priority: 0,
            mem_per_slot_gib: 2.0,
        }
    }

    #[test]
    fn shapes_compute_resources() {
        assert_eq!(JobShape::Serial { slots: 4 }.slots_per_host(36), 4);
        assert_eq!(JobShape::Serial { slots: 4 }.hosts_needed(), 1);
        assert_eq!(JobShape::Parallel { nodes: 58 }.slots_per_host(36), 36);
        assert_eq!(JobShape::Parallel { nodes: 58 }.hosts_needed(), 58);
        let at = JobShape::ArrayTask { parent: JobId(100), index: 7 };
        assert_eq!(at.slots_per_host(36), 1);
        assert_eq!(at.hosts_needed(), 1);
    }

    #[test]
    fn wait_time_freezes_at_start() {
        let mut j = Job {
            id: JobId(1),
            spec: spec(JobShape::Serial { slots: 1 }),
            submit_time: EpochSecs::new(100),
            state: JobState::Pending,
        };
        assert_eq!(j.wait_secs(EpochSecs::new(160)), 60);
        j.state = JobState::Running { start: EpochSecs::new(150), hosts: vec![NodeId::new(1, 1)] };
        assert_eq!(j.wait_secs(EpochSecs::new(1_000)), 50);
        assert!(j.is_running());
        assert!(!matches!(j.state, JobState::Done { .. } | JobState::Failed { .. }));
        assert_eq!(j.hosts().len(), 1);
    }

    #[test]
    fn total_slots_for_mpi_job() {
        let j = Job {
            id: JobId(2),
            spec: spec(JobShape::Parallel { nodes: 58 }),
            submit_time: EpochSecs::new(0),
            state: JobState::Pending,
        };
        // The paper's user "jieyao": 58 hosts x 36 cores.
        assert_eq!(j.total_slots(36), 2088);
        assert!(j.hosts().is_empty());
    }
}
