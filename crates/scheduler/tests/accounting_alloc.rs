//! A pull on an unchanged qmaster must cost nothing but its answer.
//!
//! The memoized pull hands back typed records, so it has to allocate the
//! `Vec`s those records live in — and nothing else: no document tree, no
//! XML, no formatted scalar. `counting_alloc::counted` proves it by charging
//! a pull exactly what building the same `Vec`s from the qmaster's public
//! surface costs — on the calling thread, where a pull runs, so sibling
//! tests are not in the window.

use counting_alloc::counted;
use monster_scheduler::accounting::{accounting_pull, RECENT_FINISH_WINDOW_SECS};
use monster_scheduler::{Job, JobShape, JobSpec, JobState, Qmaster, QmasterConfig};
use monster_util::UserName;

fn spec(name: &str, shape: JobShape) -> JobSpec {
    JobSpec {
        user: UserName::new("alice"),
        name: name.to_string(),
        shape,
        runtime_secs: 1_000_000,
        priority: 0,
        mem_per_slot_gib: 1.5,
    }
}

/// 16 nodes carrying 40 long-running jobs, pulled once.
fn warm() -> Qmaster {
    let config = QmasterConfig { nodes: 16, ..QmasterConfig::default() };
    let t0 = config.start_time;
    let mut qm = Qmaster::new(config);
    for i in 0..40 {
        qm.submit_at(t0 + 1, spec(&format!("job{i}.sh"), JobShape::Serial { slots: 1 + i % 5 }));
    }
    qm.run_until(t0 + 120);
    assert_eq!(qm.running_jobs().len(), 40);
    let _ = accounting_pull(&qm);
    qm
}

/// The records a pull returns, built from the public surface.
fn records(qm: &Qmaster) -> (usize, usize) {
    let nodes = qm.all_load_reports();
    let jobs: Vec<&Job> = qm
        .jobs()
        .filter(|j| match &j.state {
            JobState::Pending => false,
            JobState::Running { .. } => true,
            JobState::Done { end, .. } | JobState::Failed { end, .. } => {
                qm.now() - *end <= RECENT_FINISH_WINDOW_SECS
            }
        })
        .collect();
    (nodes.len(), jobs.len())
}

#[test]
fn unchanged_pull_allocates_only_its_records() {
    let qm = warm();
    let rendered = qm.accounting_memo_stats().docs_rendered;

    let (sizes, for_records) = counted(|| records(&qm));
    let ((snapshot_sizes, bytes), for_pull) = counted(|| {
        let (snapshot, bytes) = accounting_pull(&qm);
        ((snapshot.nodes.len(), snapshot.jobs.len()), bytes)
    });

    assert_eq!(snapshot_sizes, sizes);
    assert!(bytes > 16 * 10_000, "a pull of {bytes} bytes rendered nothing to count");
    assert!(for_records.blocks > 2, "counter not counting: {for_records:?}");
    assert_eq!(
        for_pull.blocks, for_records.blocks,
        "the pull allocated beyond the records it returns"
    );
    assert_eq!(qm.accounting_memo_stats().docs_rendered, rendered);
}

#[test]
fn a_job_start_rerenders_its_hosts_and_itself() {
    let mut qm = warm();
    let before = qm.accounting_memo_stats();

    let at = qm.now();
    qm.submit_at(at + 1, spec("wide.sh", JobShape::Parallel { nodes: 3 }));
    qm.run_until(at + 60);
    let wide = qm.running_jobs().into_iter().find(|j| j.spec.name == "wide.sh").expect("started");
    assert_eq!(wide.hosts().len(), 3);

    let (snapshot, _) = accounting_pull(&qm);
    let pulled = (snapshot.nodes.len() + snapshot.jobs.len()) as u64;
    let after = qm.accounting_memo_stats();
    assert_eq!(after.docs_rendered - before.docs_rendered, 3 + 1, "three hosts and the job");
    assert_eq!(after.docs_reused - before.docs_reused, pulled - 4);
}
