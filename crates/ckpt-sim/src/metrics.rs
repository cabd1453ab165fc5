//! Per-job metrics: the Workload-Processing Ratio (paper Formula (9)) and
//! the aggregations the evaluation figures are built from.
//!
//! WPR(J) = workload processed / real wall-clock length. For sequential
//! jobs the wall-clock is the sum of task spans (tasks run back-to-back);
//! for bag-of-tasks jobs we aggregate per-task efficiency
//! (`Σ Te_i / Σ wall_i`), which keeps WPR in `(0, 1]` for arbitrary
//! parallelism while preserving the paper's policy ordering. (On the
//! paper's own 224-VM testbed BoT tasks largely serialized on memory
//! anyway, making job span ≈ Σ task spans.)

use crate::task_sim::TaskOutcome;
use ckpt_stats::ecdf::Ecdf;
use ckpt_stats::sketch::QuantileSketch;
use ckpt_stats::summary::OnlineStats;
use ckpt_trace::gen::JobStructure;
use std::collections::HashMap;

/// Mergeable constant-memory summary of a value stream: count, total,
/// min, max. The streaming fast path ([`crate::runner::run_trace_stream`])
/// folds one of these per metric per fixed job block, then merges block
/// partials in block order — deterministic for any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub total: f64,
    /// Smallest observation (`+∞` when empty).
    pub min: f64,
    /// Largest observation (`−∞` when empty).
    pub max: f64,
}

impl Default for StreamSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            total: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Ingest one observation.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.total += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merge another summary in (callers merge in a fixed order so float
    /// totals stay deterministic).
    pub fn merge(&mut self, other: &StreamSummary) {
        self.count += other.count;
        self.total += other.total;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Mean of the observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.total / self.count as f64
        }
    }
}

/// A [`StreamSummary`] paired with a mergeable quantile sketch: the
/// constant-memory per-metric accumulator the streaming sweep path folds,
/// now carrying real p50/p99. Merging is deterministic for any thread
/// count: the summary is merged in fixed block order and the sketch's
/// merge is exactly associative/commutative (integer bucket counts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamDist {
    /// Count/total/min/max moments.
    pub stats: StreamSummary,
    /// Log-spaced quantile sketch over the same observations.
    pub sketch: QuantileSketch,
}

impl StreamDist {
    /// An empty distribution accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one observation into both the moments and the sketch.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.stats.add(v);
        self.sketch.add(v);
    }

    /// Merge another accumulator in (callers merge in a fixed order so
    /// float totals stay deterministic; the sketch merge is order-free).
    pub fn merge(&mut self, other: &StreamDist) {
        self.stats.merge(&other.stats);
        self.sketch.merge(&other.sketch);
    }
}

/// Aggregated outcome of one job under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id (matches the trace).
    pub job_id: u64,
    /// ST or BoT.
    pub structure: JobStructure,
    /// Priority at submission.
    pub priority: u8,
    /// Total productive work across tasks (seconds).
    pub total_work: f64,
    /// Sum of task wall-clocks (seconds) — the WPR denominator.
    pub total_wall: f64,
    /// Total failures across tasks.
    pub failures: u32,
    /// Total durable checkpoints across tasks.
    pub checkpoints: u32,
    /// Total rollback loss (seconds).
    pub rollback_loss: f64,
    /// Total checkpoint-writing time (seconds).
    pub checkpoint_time: f64,
    /// Total restart overhead (seconds).
    pub restart_time: f64,
    /// Longest single task length (for restricted-length filtering).
    pub max_task_length: f64,
}

impl JobRecord {
    /// An all-zero record for a job — the seed [`JobRecord::accumulate`]
    /// folds task outcomes into.
    pub fn empty(job_id: u64, structure: JobStructure, priority: u8) -> Self {
        JobRecord {
            job_id,
            structure,
            priority,
            total_work: 0.0,
            total_wall: 0.0,
            failures: 0,
            checkpoints: 0,
            rollback_loss: 0.0,
            checkpoint_time: 0.0,
            restart_time: 0.0,
            max_task_length: 0.0,
        }
    }

    /// Fold one task's outcome (and its length) into the record — the
    /// streaming form of [`JobRecord::from_outcomes`]: folding outcomes in
    /// task order performs the same additions in the same order, so the
    /// result is bit-identical while the per-job outcome/length vectors
    /// the batch form consumes never need to exist.
    #[inline]
    pub fn accumulate(&mut self, o: &TaskOutcome, task_length: f64) {
        self.total_work += o.productive;
        self.total_wall += o.wall;
        self.failures += o.failures;
        self.checkpoints += o.checkpoints;
        self.rollback_loss += o.rollback_loss;
        self.checkpoint_time += o.checkpoint_time;
        self.restart_time += o.restart_time;
        self.max_task_length = self.max_task_length.max(task_length);
    }

    /// Assemble a job record from its tasks' outcomes.
    pub fn from_outcomes(
        job_id: u64,
        structure: JobStructure,
        priority: u8,
        outcomes: &[TaskOutcome],
        task_lengths: &[f64],
    ) -> Self {
        let mut rec = JobRecord::empty(job_id, structure, priority);
        for (o, &l) in outcomes.iter().zip(task_lengths) {
            rec.accumulate(o, l);
        }
        rec
    }

    /// The workload-processing ratio (paper Formula (9)).
    pub fn wpr(&self) -> f64 {
        if self.total_wall > 0.0 {
            self.total_work / self.total_wall
        } else {
            1.0
        }
    }
}

/// WPR values of a batch of job records.
pub fn wprs(records: &[JobRecord]) -> Vec<f64> {
    records.iter().map(|r| r.wpr()).collect()
}

/// ECDF of WPR values (the paper's Figures 9, 11, 14(a)).
pub fn wpr_ecdf(records: &[JobRecord]) -> Option<Ecdf> {
    if records.is_empty() {
        return None;
    }
    Ecdf::new(&wprs(records)).ok()
}

/// Min/avg/max WPR per priority (the paper's Figure 10).
pub fn wpr_by_priority(records: &[JobRecord]) -> HashMap<u8, OnlineStats> {
    let mut map: HashMap<u8, OnlineStats> = HashMap::new();
    for r in records {
        map.entry(r.priority).or_default().add(r.wpr());
    }
    map
}

/// Filter records by structure.
pub fn with_structure(records: &[JobRecord], s: JobStructure) -> Vec<JobRecord> {
    records
        .iter()
        .filter(|r| r.structure == s)
        .cloned()
        .collect()
}

/// Filter records by restricted task length (the paper's RL parameter).
pub fn with_max_length(records: &[JobRecord], rl: f64) -> Vec<JobRecord> {
    records
        .iter()
        .filter(|r| r.max_task_length <= rl)
        .cloned()
        .collect()
}

/// Paired per-job comparison between two runs over the same trace
/// (the paper's Figure 13): for each job present in both, the ratio
/// `wall_a / wall_b` and the difference `wall_a − wall_b` (seconds).
pub fn paired_wall_clock(
    a: &[JobRecord],
    b: &[JobRecord],
) -> Vec<(u64, f64 /* ratio */, f64 /* diff */)> {
    let bmap: HashMap<u64, &JobRecord> = b.iter().map(|r| (r.job_id, r)).collect();
    let mut out = Vec::new();
    for ra in a {
        if let Some(rb) = bmap.get(&ra.job_id) {
            if rb.total_wall > 0.0 {
                out.push((
                    ra.job_id,
                    ra.total_wall / rb.total_wall,
                    ra.total_wall - rb.total_wall,
                ));
            }
        }
    }
    out
}

/// Mean WPR of a batch (`NaN` for empty).
pub fn mean_wpr(records: &[JobRecord]) -> f64 {
    if records.is_empty() {
        return f64::NAN;
    }
    wprs(records).iter().sum::<f64>() / records.len() as f64
}

/// Lowest WPR of a batch (`NaN` for empty) — the "lowest WPR" column of the
/// paper's Table 6.
pub fn lowest_wpr(records: &[JobRecord]) -> f64 {
    wprs(records)
        .into_iter()
        .fold(f64::NAN, |m, w| if m.is_nan() || w < m { w } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(wall: f64, te: f64, failures: u32) -> TaskOutcome {
        TaskOutcome {
            wall,
            productive: te,
            failures,
            checkpoints: 1,
            aborted_checkpoints: 0,
            rollback_loss: 0.0,
            checkpoint_time: 0.0,
            restart_time: 0.0,
            flipped: false,
        }
    }

    fn rec(id: u64, s: JobStructure, p: u8, walls: &[(f64, f64)]) -> JobRecord {
        let outcomes: Vec<TaskOutcome> = walls.iter().map(|&(w, te)| outcome(w, te, 0)).collect();
        let lengths: Vec<f64> = walls.iter().map(|&(_, te)| te).collect();
        JobRecord::from_outcomes(id, s, p, &outcomes, &lengths)
    }

    #[test]
    fn wpr_is_work_over_wall() {
        let r = rec(
            0,
            JobStructure::Sequential,
            1,
            &[(110.0, 100.0), (55.0, 50.0)],
        );
        assert!((r.wpr() - 150.0 / 165.0).abs() < 1e-12);
        assert!((r.total_work - 150.0).abs() < 1e-12);
        assert!(r.wpr() <= 1.0);
    }

    #[test]
    fn wpr_bounded_by_one_even_for_bot() {
        let r = rec(0, JobStructure::BagOfTasks, 1, &[(100.0, 100.0); 8]);
        assert!((r.wpr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_and_stats() {
        let rs = vec![
            rec(0, JobStructure::Sequential, 1, &[(100.0, 90.0)]),
            rec(1, JobStructure::Sequential, 1, &[(100.0, 80.0)]),
            rec(2, JobStructure::Sequential, 2, &[(100.0, 95.0)]),
        ];
        let e = wpr_ecdf(&rs).unwrap();
        assert_eq!(e.len(), 3);
        assert!((mean_wpr(&rs) - (0.9 + 0.8 + 0.95) / 3.0).abs() < 1e-12);
        assert!((lowest_wpr(&rs) - 0.8).abs() < 1e-12);
        let by_p = wpr_by_priority(&rs);
        assert_eq!(by_p[&1].count(), 2);
        assert_eq!(by_p[&2].count(), 1);
    }

    #[test]
    fn filters() {
        let rs = vec![
            rec(0, JobStructure::Sequential, 1, &[(100.0, 90.0)]),
            rec(1, JobStructure::BagOfTasks, 1, &[(2000.0, 1500.0)]),
        ];
        assert_eq!(with_structure(&rs, JobStructure::Sequential).len(), 1);
        assert_eq!(with_max_length(&rs, 1000.0).len(), 1);
        assert_eq!(with_max_length(&rs, 1500.0).len(), 2);
    }

    #[test]
    fn paired_comparison() {
        let a = vec![rec(0, JobStructure::Sequential, 1, &[(120.0, 100.0)])];
        let b = vec![rec(0, JobStructure::Sequential, 1, &[(100.0, 100.0)])];
        let pairs = paired_wall_clock(&a, &b);
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].1 - 1.2).abs() < 1e-12);
        assert!((pairs[0].2 - 20.0).abs() < 1e-12);
        // Missing job in b ⇒ no pair.
        let c = vec![rec(9, JobStructure::Sequential, 1, &[(1.0, 1.0)])];
        assert!(paired_wall_clock(&c, &b).is_empty());
    }

    #[test]
    fn empty_edge_cases() {
        assert!(wpr_ecdf(&[]).is_none());
        assert!(mean_wpr(&[]).is_nan());
        assert!(lowest_wpr(&[]).is_nan());
    }
}
