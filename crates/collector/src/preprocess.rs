//! The §III-B3 pre-processing rules.
//!
//! "Pre-processing the collected metrics has significantly reduced the
//! amount of data": health strings become binary integers and only
//! abnormal states are kept; job lists are diffed across intervals to
//! estimate finish times UGE doesn't report in real time; and memory usage
//! is standardized once at collection time.

use monster_redfish::HealthState;
use monster_util::{EpochSecs, JobId};
use std::collections::HashSet;

/// Health-string compaction: `None` when the state is healthy (not
/// stored), `Some(code)` for abnormal states.
pub fn health_code_if_abnormal(h: HealthState) -> Option<i64> {
    match h {
        HealthState::Ok => None,
        other => Some(other.code()),
    }
}

/// Tracks job lists across intervals to estimate finish times: "if a job
/// is in the previous list, but not in the current job list, then that job
/// should be completed before the current collection interval."
#[derive(Debug, Default)]
pub struct FinishEstimator {
    prev: HashSet<JobId>,
}

impl FinishEstimator {
    /// Fresh estimator (first interval estimates nothing).
    pub fn new() -> Self {
        FinishEstimator::default()
    }

    /// Feed the current interval's running set; returns jobs estimated to
    /// have finished since the previous interval, stamped with `now`.
    pub fn observe(
        &mut self,
        running: impl IntoIterator<Item = JobId>,
        now: EpochSecs,
    ) -> Vec<(JobId, EpochSecs)> {
        let current: HashSet<JobId> = running.into_iter().collect();
        let finished: Vec<(JobId, EpochSecs)> =
            self.prev.difference(&current).map(|&id| (id, now)).collect();
        self.prev = current;
        finished
    }
}

/// Memory usage standardization: used/total → fraction in [0, 1].
pub fn memory_usage_fraction(used_gib: f64, total_gib: f64) -> f64 {
    if total_gib <= 0.0 {
        return 0.0;
    }
    (used_gib / total_gib).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abnormal_only_health_retention() {
        assert_eq!(health_code_if_abnormal(HealthState::Ok), None);
        assert_eq!(health_code_if_abnormal(HealthState::Warning), Some(1));
        assert_eq!(health_code_if_abnormal(HealthState::Critical), Some(2));
    }

    #[test]
    fn finish_estimation_by_list_diff() {
        let mut est = FinishEstimator::new();
        let t1 = EpochSecs::new(60);
        let t2 = EpochSecs::new(120);
        let t3 = EpochSecs::new(180);
        // First interval: nothing to diff against.
        assert!(est.observe([JobId(1), JobId(2)], t1).is_empty());
        // Job 1 disappears.
        let fin = est.observe([JobId(2), JobId(3)], t2);
        assert_eq!(fin, vec![(JobId(1), t2)]);
        // All disappear.
        let mut fin = est.observe([], t3);
        fin.sort();
        assert_eq!(fin, vec![(JobId(2), t3), (JobId(3), t3)]);
        // Empty → empty: nothing spurious.
        assert!(est.observe([], t3 + 60).is_empty());
    }

    #[test]
    fn memory_fraction_clamps() {
        assert_eq!(memory_usage_fraction(96.0, 192.0), 0.5);
        assert_eq!(memory_usage_fraction(300.0, 192.0), 1.0);
        assert_eq!(memory_usage_fraction(1.0, 0.0), 0.0);
    }
}
