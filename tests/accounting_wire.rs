//! Integration: the in-band pull on a live deployment. Every interval the
//! memoized `accounting_pull` must report the byte count a full render of
//! every document gives, hold no more sizes than it returned, and feed
//! the collector the same jobs the fresh-finish rule picks from the
//! scheduler's own job table.

use monster::collector::{Collector, CollectorConfig};
use monster::redfish::bmc::BmcConfig;
use monster::redfish::cluster::{ClusterConfig, SimulatedCluster};
use monster::scheduler::accounting::{
    accounting_pull, job_document, node_document, to_xml, RECENT_FINISH_WINDOW_SECS,
};
use monster::scheduler::host::SLOTS_PER_NODE;
use monster::scheduler::{JobState, Qmaster, QmasterConfig, WorkloadConfig, WorkloadGenerator};
use monster::util::JobId;

const NODES: usize = 24;

/// Bytes of the pull with every document built and rendered, and how
/// many documents that is.
fn rendered(qm: &Qmaster) -> (usize, usize) {
    let mut docs = 0;
    let mut bytes = 0;
    for report in qm.all_load_reports() {
        docs += 1;
        bytes += to_xml("host", &node_document(&report)).len();
    }
    for job in qm.jobs() {
        let pulled = match &job.state {
            JobState::Pending => false,
            JobState::Running { .. } => true,
            JobState::Done { end, .. } | JobState::Failed { end, .. } => {
                qm.now() - *end <= RECENT_FINISH_WINDOW_SECS
            }
        };
        if pulled {
            docs += 1;
            bytes += to_xml("job_info", &job_document(job, SLOTS_PER_NODE)).len();
        }
    }
    (bytes, docs)
}

#[test]
fn memoized_wire_size_is_the_rendered_size_every_interval() {
    let cluster = SimulatedCluster::new(ClusterConfig {
        nodes: NODES,
        bmc: BmcConfig { failure_rate: 0.0, stall_rate: 0.0, ..BmcConfig::default() },
        ..ClusterConfig::small(NODES, 13)
    });
    let config = QmasterConfig { nodes: NODES, ..QmasterConfig::default() };
    let t0 = config.start_time;
    let mut qm = Qmaster::new(config);
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        mpi_users: 1,
        array_users: 1,
        serial_users: 12,
        submissions_per_user_day: 400.0,
        seed: 13,
    });
    workload.drive(&mut qm, t0, t0 + 3_600);
    let mut collector = Collector::new(CollectorConfig::default());

    for k in 1..=40 {
        let now = t0 + 60 * k;
        qm.run_until(now);
        cluster.step(60.0, |n| qm.utilization(n));
        let out = collector.collect_interval(&cluster, &qm, now);

        let (bytes, docs) = rendered(&qm);
        assert_eq!(out.uge_bytes, bytes, "interval {k}");
        assert_eq!(accounting_pull(&qm).1, bytes, "interval {k}, pulled again");
        assert_eq!(qm.accounting_memo_stats().docs_held, docs, "interval {k}");

        // Running jobs every interval, finished jobs once.
        let expected: Vec<JobId> = qm
            .jobs()
            .filter(|j| match &j.state {
                JobState::Pending => false,
                JobState::Running { .. } => true,
                JobState::Done { end, .. } | JobState::Failed { end, .. } => *end > now - 60,
            })
            .map(|j| j.id)
            .collect();
        let stored: Vec<JobId> = out
            .points
            .iter()
            .filter(|p| p.measurement == "JobsInfo")
            .map(|p| JobId(p.tags[0].1.parse().expect("JobId tag")))
            .collect();
        assert_eq!(stored, expected, "interval {k}");
    }
    let stats = qm.accounting_memo_stats();
    assert!(!qm.finished_jobs().is_empty(), "no job finished: nothing ever left the memo");
    assert!(stats.docs_reused > stats.docs_rendered, "{stats:?}");
}
