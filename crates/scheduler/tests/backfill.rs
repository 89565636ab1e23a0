//! EASY-backfill tests: wide jobs cannot be starved; harmless short jobs
//! still slip through.

use monster_scheduler::qmaster::BackfillPolicy;
use monster_scheduler::{JobShape, JobSpec, JobState, Qmaster, QmasterConfig};
use monster_util::{EpochSecs, UserName};

fn spec(user: &str, shape: JobShape, runtime: i64) -> JobSpec {
    JobSpec {
        user: UserName::new(user),
        name: format!("{user}.sh"),
        shape,
        runtime_secs: runtime,
        priority: 0,
        mem_per_slot_gib: 1.0,
    }
}

fn qm(nodes: usize, backfill: BackfillPolicy) -> (Qmaster, EpochSecs) {
    let cfg = QmasterConfig { nodes, backfill, ..QmasterConfig::default() };
    let t0 = cfg.start_time;
    (Qmaster::new(cfg), t0)
}

/// The starvation scenario on a 2-node cluster:
///   t=1:  filler occupies node A for 1 h.
///   t=10: a 2-node MPI job queues (needs both nodes: blocked for ~1 h).
///   t=20: a stream of 2-hour single-node jobs queues behind it.
/// Under aggressive backfill the long jobs keep grabbing node B and the
/// MPI job starves; under EASY they must wait and the MPI job starts the
/// moment the filler ends.
fn starvation_scenario(policy: BackfillPolicy) -> (Qmaster, EpochSecs) {
    let (mut qm, t0) = qm(2, policy);
    qm.submit_at(t0 + 1, spec("filler", JobShape::Serial { slots: 36 }, 3600));
    qm.submit_at(t0 + 10, spec("mpi", JobShape::Parallel { nodes: 2 }, 1800));
    for i in 0..4 {
        qm.submit_at(t0 + 20 + i, spec("stream", JobShape::Serial { slots: 36 }, 7200));
    }
    qm.run_until(t0 + 2 * 3600);
    (qm, t0)
}

#[test]
fn aggressive_backfill_starves_the_wide_job() {
    let (qm, _) = starvation_scenario(BackfillPolicy::Aggressive);
    let mpi = qm.jobs().find(|j| j.spec.user.as_str() == "mpi").unwrap();
    // Two hours in, the MPI job still hasn't started: stream jobs keep
    // taking the free node.
    assert!(matches!(mpi.state, JobState::Pending), "state {:?}", mpi.state);
}

#[test]
fn easy_backfill_honours_the_reservation() {
    let (qm, t0) = starvation_scenario(BackfillPolicy::Easy);
    let mpi = qm.jobs().find(|j| j.spec.user.as_str() == "mpi").unwrap();
    // The MPI job ran: it started right after the filler ended (~1 h)
    // and finished 30 minutes later.
    match &mpi.state {
        monster_scheduler::JobState::Done { start, end, .. } => {
            assert!((*start - t0) >= 3600 && (*start - t0) <= 3700, "started {} s in", *start - t0);
            assert_eq!(*end - *start, 1800);
        }
        other => panic!("MPI job should have completed, state {other:?}"),
    }
    // No stream job started before the MPI job (they all end after the
    // reservation and would consume its second node).
    for j in qm.jobs().filter(|j| j.spec.user.as_str() == "stream") {
        if let Some(start) = match &j.state {
            monster_scheduler::JobState::Running { start, .. } => Some(*start),
            monster_scheduler::JobState::Done { start, .. } => Some(*start),
            _ => None,
        } {
            assert!(start - t0 >= 3600, "stream job jumped the reservation at {}", start - t0);
        }
    }
}

#[test]
fn easy_still_backfills_harmless_short_jobs() {
    let (mut qm, t0) = qm(2, BackfillPolicy::Easy);
    qm.submit_at(t0 + 1, spec("filler", JobShape::Serial { slots: 36 }, 3600));
    qm.submit_at(t0 + 10, spec("mpi", JobShape::Parallel { nodes: 2 }, 1800));
    // A 10-minute job ends well before the ~1 h reservation: backfillable.
    qm.submit_at(t0 + 20, spec("quickie", JobShape::Serial { slots: 36 }, 600));
    qm.run_until(t0 + 900);
    let quickie = qm.jobs().find(|j| j.spec.user.as_str() == "quickie").unwrap();
    assert!(
        matches!(quickie.state, JobState::Done { .. } | JobState::Failed { .. }),
        "short job should have backfilled, state {:?}",
        quickie.state
    );
    // And the MPI job's reservation still holds.
    qm.run_until(t0 + 2 * 3600);
    let mpi = qm.jobs().find(|j| j.spec.user.as_str() == "mpi").unwrap();
    assert!(
        matches!(mpi.state, JobState::Done { .. } | JobState::Failed { .. }),
        "MPI delayed: {:?}",
        mpi.state
    );
}

#[test]
fn easy_with_empty_cluster_behaves_normally() {
    let (mut qm, t0) = qm(4, BackfillPolicy::Easy);
    for i in 0..6 {
        qm.submit_at(t0 + 1 + i, spec("u", JobShape::Serial { slots: 18 }, 300));
    }
    qm.run_until(t0 + 600);
    // 6 x 18-slot jobs fit on 4 nodes (2 per node on 3 nodes); all done.
    assert_eq!(qm.finished_jobs().len(), 6);
}

#[test]
fn impossible_jobs_never_block_the_queue() {
    let (mut qm, t0) = qm(2, BackfillPolicy::Easy);
    // Wider than the cluster: no reservation possible.
    qm.submit_at(t0 + 1, spec("huge", JobShape::Parallel { nodes: 10 }, 100));
    qm.submit_at(t0 + 2, spec("ok", JobShape::Serial { slots: 4 }, 100));
    qm.run_until(t0 + 300);
    assert_eq!(qm.pending_jobs().len(), 1);
    let ok = qm.jobs().find(|j| j.spec.user.as_str() == "ok").unwrap();
    assert!(matches!(ok.state, JobState::Done { .. } | JobState::Failed { .. }));
}
