//! Operational reports: the daily summary a site would mail out.
//!
//! The Background section of the paper describes Univa Unisight's role:
//! "generate various reports across the cluster". This module produces that
//! report from simulator state — utilization, queue statistics, top users,
//! health incidents — as a plain structure (renderable as text or JSON).

use crate::timeline::build_timeline;
use monster_scheduler::{JobState, Qmaster};
use monster_util::EpochSecs;

/// One user's row in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct UserReport {
    /// The account name.
    pub user: String,
    /// Jobs submitted in the window.
    pub jobs_submitted: usize,
    /// Jobs that finished successfully.
    pub jobs_done: usize,
    /// Jobs killed by failures.
    pub jobs_failed: usize,
    /// Core-hours consumed by finished jobs.
    pub core_hours: f64,
    /// Mean queue wait, seconds.
    pub mean_wait_secs: f64,
    /// Distinct hosts touched.
    pub hosts_used: usize,
}

/// A whole-cluster report over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Window start.
    pub start: EpochSecs,
    /// Window end.
    pub end: EpochSecs,
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Jobs submitted in the window.
    pub jobs_submitted: usize,
    /// Jobs completed in the window.
    pub jobs_done: usize,
    /// Jobs failed in the window.
    pub jobs_failed: usize,
    /// Jobs still pending at the window edge.
    pub jobs_pending: usize,
    /// Core-hours delivered to finished jobs.
    pub core_hours_delivered: f64,
    /// Delivered core-hours over the window's total capacity, 0..=1.
    pub utilization: f64,
    /// Per-user rows, heaviest consumer first.
    pub users: Vec<UserReport>,
}

impl ClusterReport {
    /// Build the report for `[start, end)` from scheduler state.
    pub fn build(qm: &Qmaster, start: EpochSecs, end: EpochSecs) -> ClusterReport {
        assert!(end > start, "empty report window");
        let slots_per_node = monster_scheduler::host::SLOTS_PER_NODE;
        let nodes = qm.node_ids().len();

        let mut users: Vec<UserReport> = Vec::new();
        let mut total_done = 0;
        let mut total_failed = 0;
        let mut total_core_hours = 0.0;
        for tl in build_timeline(qm.jobs(), start, end) {
            let mut row = UserReport {
                user: tl.user.as_str().to_string(),
                jobs_submitted: tl.job_count(),
                jobs_done: 0,
                jobs_failed: 0,
                core_hours: 0.0,
                mean_wait_secs: tl.mean_wait_secs(end),
                hosts_used: tl.hosts_used,
            };
            for bar in &tl.bars {
                let Some(job) = qm.job(bar.job) else { continue };
                match &job.state {
                    JobState::Done { start: s, end: e, .. } => {
                        row.jobs_done += 1;
                        row.core_hours +=
                            (*e - *s) as f64 * job.total_slots(slots_per_node) as f64 / 3600.0;
                    }
                    JobState::Failed { .. } => row.jobs_failed += 1,
                    _ => {}
                }
            }
            total_done += row.jobs_done;
            total_failed += row.jobs_failed;
            total_core_hours += row.core_hours;
            users.push(row);
        }
        users.sort_by(|a, b| {
            b.core_hours
                .partial_cmp(&a.core_hours)
                .expect("finite core-hours")
                .then_with(|| a.user.cmp(&b.user))
        });

        let capacity = nodes as f64 * slots_per_node as f64 * (end - start) as f64 / 3600.0;
        ClusterReport {
            start,
            end,
            nodes,
            jobs_submitted: users.iter().map(|u| u.jobs_submitted).sum(),
            jobs_done: total_done,
            jobs_failed: total_failed,
            jobs_pending: qm.pending_jobs().len(),
            core_hours_delivered: total_core_hours,
            utilization: if capacity > 0.0 { (total_core_hours / capacity).min(1.0) } else { 0.0 },
            users,
        }
    }

    /// Render as plain text (the mailed report).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "CLUSTER REPORT  {} .. {}\n{} nodes | {} submitted | {} done | {} failed | {} pending\n",
            self.start,
            self.end,
            self.nodes,
            self.jobs_submitted,
            self.jobs_done,
            self.jobs_failed,
            self.jobs_pending,
        ));
        out.push_str(&format!(
            "delivered {:.1} core-hours ({:.1}% of capacity)\n\n",
            self.core_hours_delivered,
            self.utilization * 100.0
        ));
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>6} {:>12} {:>10} {:>6}\n",
            "user", "subm", "done", "fail", "core-hours", "wait(min)", "hosts"
        ));
        for u in &self.users {
            out.push_str(&format!(
                "{:<12} {:>6} {:>6} {:>6} {:>12.1} {:>10.1} {:>6}\n",
                u.user,
                u.jobs_submitted,
                u.jobs_done,
                u.jobs_failed,
                u.core_hours,
                u.mean_wait_secs / 60.0,
                u.hosts_used,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_scheduler::{JobShape, JobSpec, QmasterConfig};
    use monster_util::UserName;

    fn spec(user: &str, slots: u32, runtime: i64) -> JobSpec {
        JobSpec {
            user: UserName::new(user),
            name: format!("{user}.sh"),
            shape: JobShape::Serial { slots },
            runtime_secs: runtime,
            priority: 0,
            mem_per_slot_gib: 1.0,
        }
    }

    fn scenario() -> (Qmaster, EpochSecs) {
        let cfg = QmasterConfig { nodes: 4, ..QmasterConfig::default() };
        let t0 = cfg.start_time;
        let mut qm = Qmaster::new(cfg);
        // alice: two 1-hour 36-core jobs (72 core-hours).
        qm.submit_at(t0 + 10, spec("alice", 36, 3600));
        qm.submit_at(t0 + 20, spec("alice", 36, 3600));
        // bob: one 2-hour 18-core job (36 core-hours).
        qm.submit_at(t0 + 30, spec("bob", 18, 7200));
        // carol: a job that will not finish inside the window.
        qm.submit_at(t0 + 40, spec("carol", 4, 500_000));
        qm.run_until(t0 + 4 * 3600);
        (qm, t0)
    }

    #[test]
    fn report_aggregates_per_user() {
        let (qm, t0) = scenario();
        let report = ClusterReport::build(&qm, t0, t0 + 4 * 3600);
        assert_eq!(report.jobs_submitted, 4);
        assert_eq!(report.jobs_done, 3);
        assert_eq!(report.jobs_failed, 0);
        assert_eq!(report.nodes, 4);

        // alice leads with ~72 core-hours.
        assert_eq!(report.users[0].user, "alice");
        assert!((report.users[0].core_hours - 72.0).abs() < 0.5);
        assert_eq!(report.users[1].user, "bob");
        assert!((report.users[1].core_hours - 36.0).abs() < 0.5);
        // carol's running job contributes no finished core-hours yet.
        let carol = report.users.iter().find(|u| u.user == "carol").unwrap();
        assert_eq!(carol.core_hours, 0.0);
        assert_eq!(carol.jobs_done, 0);
    }

    #[test]
    fn utilization_is_bounded_and_sane() {
        let (qm, t0) = scenario();
        let report = ClusterReport::build(&qm, t0, t0 + 4 * 3600);
        // 108 finished core-hours over 4 nodes x 36 cores x 4 h = 576.
        assert!(
            (report.utilization - 108.0 / 576.0).abs() < 0.01,
            "utilization {}",
            report.utilization
        );
        assert!(report.utilization <= 1.0);
    }

    #[test]
    fn text_rendering_contains_the_rows() {
        let (qm, t0) = scenario();
        let text = ClusterReport::build(&qm, t0, t0 + 4 * 3600).to_text();
        assert!(text.contains("alice"));
        assert!(text.contains("bob"));
        assert!(text.contains("core-hours"));
        assert!(text.contains("4 nodes"));
    }

    #[test]
    fn window_excludes_outside_submissions() {
        let (qm, t0) = scenario();
        // A window covering only the first two submissions.
        let report = ClusterReport::build(&qm, t0, t0 + 25);
        assert_eq!(report.jobs_submitted, 2);
        assert!(report.users.iter().all(|u| u.user == "alice"));
    }

    #[test]
    #[should_panic(expected = "empty report window")]
    fn empty_window_panics() {
        let (qm, t0) = scenario();
        ClusterReport::build(&qm, t0, t0);
    }
}
