//! MNOF / MTBF estimation from historical failure records.
//!
//! This is how the paper's evaluation feeds the formulas: sample jobs are
//! grouped by the 12 Google priorities (optionally restricted to tasks below
//! a length limit), and for each group
//!
//! * **MNOF** — the mean number of failure events per task — drives the
//!   paper's Formula (3), and
//! * **MTBF** — the mean uninterrupted interval between failures — drives
//!   Young's and Daly's formulas.
//!
//! Table 7 of the paper is exactly the output of this module over the Google
//! trace. The paper's observation: per-priority MNOF is stable across task
//! lengths, while MTBF is inflated by the Pareto tail, which is why Young's
//! formula mispredicts for the short tasks that dominate the workload.

use std::collections::HashMap;

/// One task's failure history: the raw material for estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskHistory {
    /// Google-style priority (1..=12 in the paper's trace).
    pub priority: u8,
    /// The task's productive length `Te` (seconds).
    pub task_length: f64,
    /// Number of failure events that struck the task.
    pub failure_count: u32,
    /// Observed uninterrupted work intervals (seconds) — the gaps between
    /// consecutive failures (and task start/end) while the task was running.
    pub intervals: Vec<f64>,
}

/// A group's MNOF/MTBF estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Mean number of failures per task.
    pub mnof: f64,
    /// Mean time between failures (mean uninterrupted interval), seconds.
    pub mtbf: f64,
    /// Number of tasks the estimate is based on.
    pub n_tasks: usize,
    /// Number of intervals the MTBF is based on.
    pub n_intervals: usize,
    /// Mean task length in the group (used for MNOF length-scaling).
    pub mean_length: f64,
}

/// Estimator that groups task histories by priority and an optional task
/// length limit (the paper's Table 7 crosses priorities with limits
/// 1000 s / 3600 s / ∞).
#[derive(Debug, Clone, Default)]
pub struct GroupedEstimator {
    groups: HashMap<u8, Vec<TaskHistory>>,
}

impl GroupedEstimator {
    /// Empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one task history.
    pub fn add(&mut self, history: TaskHistory) {
        self.groups
            .entry(history.priority)
            .or_default()
            .push(history);
    }

    /// Ingest many task histories.
    pub fn extend<I: IntoIterator<Item = TaskHistory>>(&mut self, iter: I) {
        for h in iter {
            self.add(h);
        }
    }

    /// Priorities that have at least one record.
    pub fn priorities(&self) -> Vec<u8> {
        let mut ps: Vec<u8> = self.groups.keys().copied().collect();
        ps.sort_unstable();
        ps
    }

    /// Estimate for one priority, over tasks with `task_length <= limit`
    /// (use `f64::INFINITY` for no limit). Returns `None` if no task in the
    /// group qualifies.
    pub fn estimate(&self, priority: u8, limit: f64) -> Option<Estimate> {
        let tasks = self.groups.get(&priority)?;
        let selected: Vec<&TaskHistory> = tasks.iter().filter(|t| t.task_length <= limit).collect();
        if selected.is_empty() {
            return None;
        }
        let n_tasks = selected.len();
        let total_failures: u64 = selected.iter().map(|t| t.failure_count as u64).sum();
        let mnof = total_failures as f64 / n_tasks as f64;
        let mut n_intervals = 0usize;
        let mut interval_sum = 0.0;
        for t in &selected {
            for &iv in &t.intervals {
                if iv.is_finite() && iv >= 0.0 {
                    interval_sum += iv;
                    n_intervals += 1;
                }
            }
        }
        let mtbf = if n_intervals > 0 {
            interval_sum / n_intervals as f64
        } else {
            f64::INFINITY
        };
        let mean_length = selected.iter().map(|t| t.task_length).sum::<f64>() / n_tasks as f64;
        Some(Estimate {
            mnof,
            mtbf,
            n_tasks,
            n_intervals,
            mean_length,
        })
    }

    /// Estimate pooled over *all* priorities (for the global-estimator
    /// ablation).
    pub fn estimate_pooled(&self, limit: f64) -> Option<Estimate> {
        let mut all: Vec<&TaskHistory> = Vec::new();
        for tasks in self.groups.values() {
            all.extend(tasks.iter().filter(|t| t.task_length <= limit));
        }
        if all.is_empty() {
            return None;
        }
        let n_tasks = all.len();
        let total_failures: u64 = all.iter().map(|t| t.failure_count as u64).sum();
        let mut n_intervals = 0usize;
        let mut interval_sum = 0.0;
        for t in &all {
            for &iv in &t.intervals {
                if iv.is_finite() && iv >= 0.0 {
                    interval_sum += iv;
                    n_intervals += 1;
                }
            }
        }
        Some(Estimate {
            mnof: total_failures as f64 / n_tasks as f64,
            mtbf: if n_intervals > 0 {
                interval_sum / n_intervals as f64
            } else {
                f64::INFINITY
            },
            n_tasks,
            n_intervals,
            mean_length: all.iter().map(|t| t.task_length).sum::<f64>() / n_tasks as f64,
        })
    }

    /// The full Table-7-style cross product: for each priority and each
    /// length limit, the `(priority, limit, estimate)` rows.
    pub fn table(&self, limits: &[f64]) -> Vec<(u8, f64, Estimate)> {
        let mut rows = Vec::new();
        for p in self.priorities() {
            for &limit in limits {
                if let Some(e) = self.estimate(p, limit) {
                    rows.push((p, limit, e));
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(priority: u8, len: f64, failures: u32, intervals: &[f64]) -> TaskHistory {
        TaskHistory {
            priority,
            task_length: len,
            failure_count: failures,
            intervals: intervals.to_vec(),
        }
    }

    #[test]
    fn basic_mnof_mtbf() {
        let mut est = GroupedEstimator::new();
        est.add(hist(2, 500.0, 2, &[100.0, 200.0, 200.0]));
        est.add(hist(2, 300.0, 0, &[300.0]));
        let e = est.estimate(2, f64::INFINITY).unwrap();
        assert!((e.mnof - 1.0).abs() < 1e-12); // (2+0)/2
        assert!((e.mtbf - 200.0).abs() < 1e-12); // 800/4
        assert_eq!(e.n_tasks, 2);
        assert_eq!(e.n_intervals, 4);
        assert!((e.mean_length - 400.0).abs() < 1e-12);
    }

    #[test]
    fn length_limit_filters() {
        let mut est = GroupedEstimator::new();
        est.add(hist(1, 500.0, 1, &[250.0, 250.0]));
        est.add(hist(1, 5000.0, 10, &[500.0; 10]));
        let short = est.estimate(1, 1000.0).unwrap();
        assert!((short.mnof - 1.0).abs() < 1e-12);
        let all = est.estimate(1, f64::INFINITY).unwrap();
        assert!((all.mnof - 5.5).abs() < 1e-12);
        // The paper's phenomenon: long-task histories inflate MTBF.
        assert!(all.mtbf > short.mtbf);
    }

    #[test]
    fn missing_group_is_none() {
        let est = GroupedEstimator::new();
        assert!(est.estimate(3, 1000.0).is_none());
        let mut est2 = GroupedEstimator::new();
        est2.add(hist(3, 2000.0, 1, &[2000.0]));
        assert!(est2.estimate(3, 1000.0).is_none()); // filtered out by limit
    }

    #[test]
    fn mtbf_infinite_without_intervals() {
        let mut est = GroupedEstimator::new();
        est.add(hist(4, 100.0, 0, &[]));
        let e = est.estimate(4, f64::INFINITY).unwrap();
        assert_eq!(e.mnof, 0.0);
        assert!(e.mtbf.is_infinite());
    }

    #[test]
    fn pooled_covers_all_priorities() {
        let mut est = GroupedEstimator::new();
        est.add(hist(1, 100.0, 1, &[50.0, 50.0]));
        est.add(hist(9, 100.0, 3, &[25.0, 25.0, 25.0, 25.0]));
        let pooled = est.estimate_pooled(f64::INFINITY).unwrap();
        assert!((pooled.mnof - 2.0).abs() < 1e-12);
        assert_eq!(pooled.n_tasks, 2);
        assert_eq!(pooled.n_intervals, 6);
    }

    #[test]
    fn table_cross_product() {
        let mut est = GroupedEstimator::new();
        est.add(hist(1, 100.0, 1, &[100.0]));
        est.add(hist(2, 5000.0, 2, &[2500.0, 2500.0]));
        let rows = est.table(&[1000.0, f64::INFINITY]);
        // Priority 1 qualifies for both limits, priority 2 only for ∞.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[2].0, 2);
    }

    #[test]
    fn intervals_with_nan_ignored() {
        let mut est = GroupedEstimator::new();
        est.add(hist(5, 100.0, 1, &[f64::NAN, 100.0]));
        let e = est.estimate(5, f64::INFINITY).unwrap();
        assert_eq!(e.n_intervals, 1);
        assert!((e.mtbf - 100.0).abs() < 1e-12);
    }
}
