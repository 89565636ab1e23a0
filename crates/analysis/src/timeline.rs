//! The Fig. 6 job-scheduling timeline.
//!
//! Per user: one bar per job — gray (waiting) from submission to start,
//! green (running) from start to end — plus the summary counts the figure
//! annotates (jobs submitted, distinct hosts used).

use monster_scheduler::{Job, JobState};
use monster_util::{EpochSecs, JobId, NodeId, UserName};
use std::collections::{BTreeMap, HashSet};

/// One job's bar on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct JobBar {
    /// The job.
    pub job: JobId,
    /// Submission time (bar origin).
    pub submit: EpochSecs,
    /// Start time (`None` while still queued at the window edge).
    pub start: Option<EpochSecs>,
    /// End time (`None` while still running at the window edge).
    pub end: Option<EpochSecs>,
}

impl JobBar {
    /// Waiting span in seconds, up to `horizon` for still-pending jobs.
    pub fn wait_secs(&self, horizon: EpochSecs) -> i64 {
        match self.start {
            Some(s) => s - self.submit,
            None => horizon - self.submit,
        }
    }
}

/// One user's row in the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct UserTimeline {
    /// The user.
    pub user: UserName,
    /// Bars, ordered by submission time.
    pub bars: Vec<JobBar>,
    /// Distinct hosts this user's jobs touched (Fig. 6's host count).
    pub hosts_used: usize,
}

impl UserTimeline {
    /// Jobs submitted in the window (Fig. 6's job count).
    pub fn job_count(&self) -> usize {
        self.bars.len()
    }

    /// Mean queue wait across the user's jobs.
    pub fn mean_wait_secs(&self, horizon: EpochSecs) -> f64 {
        if self.bars.is_empty() {
            return 0.0;
        }
        self.bars.iter().map(|b| b.wait_secs(horizon) as f64).sum::<f64>() / self.bars.len() as f64
    }
}

/// Build the timeline for every user with a job submitted in
/// `[window_start, window_end)`.
pub fn build_timeline<'a>(
    jobs: impl Iterator<Item = &'a Job>,
    window_start: EpochSecs,
    window_end: EpochSecs,
) -> Vec<UserTimeline> {
    let mut per_user: BTreeMap<UserName, (Vec<JobBar>, HashSet<NodeId>)> = BTreeMap::new();
    for job in jobs {
        if job.submit_time < window_start || job.submit_time >= window_end {
            continue;
        }
        let (start, end) = match &job.state {
            JobState::Pending => (None, None),
            JobState::Running { start, .. } => (Some(*start), None),
            JobState::Done { start, end, .. } | JobState::Failed { start, end, .. } => {
                (Some(*start), Some(*end))
            }
        };
        let entry =
            per_user.entry(job.spec.user.clone()).or_insert_with(|| (Vec::new(), HashSet::new()));
        entry.0.push(JobBar { job: job.id, submit: job.submit_time, start, end });
        entry.1.extend(job.hosts().iter().copied());
    }
    per_user
        .into_iter()
        .map(|(user, (mut bars, hosts))| {
            bars.sort_by_key(|b| (b.submit, b.job));
            UserTimeline { user, bars, hosts_used: hosts.len() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use monster_scheduler::{JobShape, JobSpec};

    fn job(id: u64, user: &str, submit: i64, state: JobState) -> Job {
        Job {
            id: JobId(id),
            spec: JobSpec {
                user: UserName::new(user),
                name: "j".into(),
                shape: JobShape::Serial { slots: 1 },
                runtime_secs: 100,
                priority: 0,
                mem_per_slot_gib: 1.0,
            },
            submit_time: EpochSecs::new(submit),
            state,
        }
    }

    fn running(start: i64, hosts: Vec<NodeId>) -> JobState {
        JobState::Running { start: EpochSecs::new(start), hosts }
    }

    fn done(start: i64, end: i64, hosts: Vec<NodeId>) -> JobState {
        JobState::Done { start: EpochSecs::new(start), end: EpochSecs::new(end), hosts }
    }

    #[test]
    fn bars_capture_wait_and_run_spans() {
        let jobs = [
            job(1, "jieyao", 100, done(160, 400, vec![NodeId::new(1, 1), NodeId::new(1, 2)])),
            job(2, "jieyao", 150, running(150, vec![NodeId::new(1, 2)])),
            job(3, "abdumal", 200, JobState::Pending),
        ];
        let tl = build_timeline(jobs.iter(), EpochSecs::new(0), EpochSecs::new(1000));
        assert_eq!(tl.len(), 2);
        let horizon = EpochSecs::new(1000);

        let abdumal = &tl[0];
        assert_eq!(abdumal.user.as_str(), "abdumal");
        assert_eq!(abdumal.job_count(), 1);
        assert_eq!(abdumal.bars[0].wait_secs(horizon), 800); // still queued
        assert_eq!((abdumal.bars[0].start, abdumal.bars[0].end), (None, None));
        assert_eq!(abdumal.hosts_used, 0);

        let jieyao = &tl[1];
        assert_eq!(jieyao.job_count(), 2);
        assert_eq!(jieyao.bars[0].wait_secs(horizon), 60);
        assert_eq!(
            (jieyao.bars[0].start, jieyao.bars[0].end),
            (Some(EpochSecs::new(160)), Some(EpochSecs::new(400)))
        );
        // Job 2: zero wait (started at submit), still running.
        assert_eq!(jieyao.bars[1].wait_secs(horizon), 0);
        assert_eq!((jieyao.bars[1].start, jieyao.bars[1].end), (Some(EpochSecs::new(150)), None));
        // Hosts deduplicate across jobs: {1-1, 1-2}.
        assert_eq!(jieyao.hosts_used, 2);
        assert!((jieyao.mean_wait_secs(horizon) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn window_filters_by_submission_time() {
        let jobs = [
            job(1, "u", 50, JobState::Pending),  // before window
            job(2, "u", 150, JobState::Pending), // inside
            job(3, "u", 999, JobState::Pending), // at edge (excluded)
        ];
        let tl = build_timeline(jobs.iter(), EpochSecs::new(100), EpochSecs::new(999));
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0].job_count(), 1);
        assert_eq!(tl[0].bars[0].job, JobId(2));
    }

    #[test]
    fn bars_sorted_by_submit() {
        let jobs = [
            job(5, "u", 300, JobState::Pending),
            job(4, "u", 100, JobState::Pending),
            job(6, "u", 200, JobState::Pending),
        ];
        let tl = build_timeline(jobs.iter(), EpochSecs::new(0), EpochSecs::new(1000));
        let submits: Vec<i64> = tl[0].bars.iter().map(|b| b.submit.as_secs()).collect();
        assert_eq!(submits, vec![100, 200, 300]);
    }

    #[test]
    fn empty_input_is_empty_timeline() {
        let tl = build_timeline([].iter(), EpochSecs::new(0), EpochSecs::new(1));
        assert!(tl.is_empty());
    }
}
