//! Policy drivers: turn a [`PolicyKind`] plus an estimator configuration
//! into per-task checkpoint controllers and device choices — the glue the
//! paper's evaluation section describes in §5.1/§5.2.

use crate::blcr::{BlcrModel, Device};
use crate::controller::{Controller, FixedSchedule};
use ckpt_policy::adaptive::AdaptiveCheckpointer;
use ckpt_policy::daly::daly_interval_count;
use ckpt_policy::estimator::{Estimate, GroupedEstimator};
use ckpt_policy::optimal::optimal_interval_count;
use ckpt_policy::schedule::EquidistantSchedule;
use ckpt_policy::storage::{choose_storage, DeviceCosts};
use ckpt_policy::young::young_interval_count;
use ckpt_policy::PolicyKind;
use ckpt_trace::gen::TaskSpec;
use ckpt_trace::stats::TaskRecord;
use std::collections::HashMap;

/// How MNOF/MTBF are predicted for a task — the axis of Table 6 vs
/// Figures 9–13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Per-task oracle: the task's own recorded failure count and mean
    /// interval ("precise prediction", Table 6).
    Oracle,
    /// Group statistics by priority, over tasks with length ≤ `limit`
    /// (Figures 9–13; the paper uses limit = ∞ for the month-scale runs and
    /// the RL value for the restricted-length runs).
    PerPriority {
        /// Task-length cutoff for the estimation population (seconds).
        limit: f64,
    },
    /// One pooled estimate for everything (ablation baseline).
    Global {
        /// Task-length cutoff for the estimation population (seconds).
        limit: f64,
    },
}

/// How the checkpoint storage device is chosen per task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageChoice {
    /// §4.2.2's expected-cost comparison per task.
    Auto,
    /// Force one device for every task.
    Force(Device),
}

/// Adjustments layered on top of the BLCR cost model — the knob parameter
/// sweeps turn to explore cheaper/pricier checkpointing without touching
/// the calibrated Figure 7 tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTweak {
    /// Multiplier on the per-checkpoint cost `C`.
    pub ckpt_scale: f64,
    /// Multiplier on the per-restart cost `R`.
    pub restart_scale: f64,
    /// Absolute override for `C` (seconds), applied after scaling.
    pub ckpt_override: Option<f64>,
    /// Absolute override for `R` (seconds), applied after scaling.
    pub restart_override: Option<f64>,
}

impl Default for CostTweak {
    fn default() -> Self {
        Self {
            ckpt_scale: 1.0,
            restart_scale: 1.0,
            ckpt_override: None,
            restart_override: None,
        }
    }
}

impl CostTweak {
    /// Identity tweak (the calibrated model as-is).
    pub fn identity() -> Self {
        Self::default()
    }

    /// Apply to a model checkpoint cost.
    pub fn apply_ckpt(&self, c: f64) -> f64 {
        self.ckpt_override.unwrap_or(c * self.ckpt_scale)
    }

    /// Apply to a model restart cost.
    pub fn apply_restart(&self, r: f64) -> f64 {
        self.restart_override.unwrap_or(r * self.restart_scale)
    }
}

/// Full policy configuration for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Which checkpoint-placement formula.
    pub kind: PolicyKind,
    /// Which MNOF/MTBF estimator feeds it.
    pub estimator: EstimatorKind,
    /// Whether Formula (3) adapts to MNOF changes (Algorithm 1) or keeps the
    /// start-of-task schedule (the "static algorithm" of Figure 14).
    pub adaptive: bool,
    /// Checkpoint storage selection.
    pub storage: StorageChoice,
    /// Checkpoint/restart cost adjustments (identity = calibrated model).
    pub cost: CostTweak,
}

impl PolicyConfig {
    /// The paper's primary configuration: Formula (3) with per-priority
    /// estimation, static schedule, automatic storage choice.
    pub fn formula3() -> Self {
        Self {
            kind: PolicyKind::Formula3,
            estimator: EstimatorKind::PerPriority {
                limit: f64::INFINITY,
            },
            adaptive: false,
            storage: StorageChoice::Auto,
            cost: CostTweak::identity(),
        }
    }

    /// Young's-formula baseline with the same estimation granularity.
    pub fn young() -> Self {
        Self {
            kind: PolicyKind::Young,
            ..Self::formula3()
        }
    }

    /// Daly's-formula baseline.
    pub fn daly() -> Self {
        Self {
            kind: PolicyKind::Daly,
            ..Self::formula3()
        }
    }

    /// No checkpointing at all.
    pub fn none() -> Self {
        Self {
            kind: PolicyKind::None,
            ..Self::formula3()
        }
    }

    /// Builder-style: set the estimator.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }

    /// Builder-style: enable Algorithm 1 adaptivity.
    pub fn with_adaptivity(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Builder-style: set the storage choice.
    pub fn with_storage(mut self, storage: StorageChoice) -> Self {
        self.storage = storage;
        self
    }

    /// Builder-style: set the cost tweak.
    pub fn with_cost(mut self, cost: CostTweak) -> Self {
        self.cost = cost;
        self
    }
}

/// Precomputed estimates a run draws from: group statistics plus the
/// per-task oracle.
///
/// Group lookups are memoized per `(pooled, priority, limit)`: a grouped
/// estimate is a pure function of the ingested histories, but computing it
/// scans the whole priority group — which made planning O(tasks ×
/// group size) before the cache. The memo returns the exact value the
/// uncached scan produces, so results are bit-identical; it only removes
/// the repeated work.
#[derive(Debug)]
pub struct Estimates {
    groups: GroupedEstimator,
    per_task: HashMap<u64, (u32, Option<f64>)>,
    /// Pooled fallback MTBF for tasks/groups with no recorded intervals.
    fallback_mtbf: f64,
    /// Pooled fallback per-second failure rate.
    fallback_mnof_per_sec: f64,
    /// Memoized group estimates keyed by `(pooled, priority, limit bits)`.
    /// Read-mostly: each key is computed once per run configuration.
    cache: std::sync::RwLock<HashMap<(bool, u8, u64), Option<Estimate>>>,
}

impl Clone for Estimates {
    fn clone(&self) -> Self {
        Self {
            groups: self.groups.clone(),
            per_task: self.per_task.clone(),
            fallback_mtbf: self.fallback_mtbf,
            fallback_mnof_per_sec: self.fallback_mnof_per_sec,
            cache: std::sync::RwLock::new(
                self.cache.read().expect("estimate cache poisoned").clone(),
            ),
        }
    }
}

impl Estimates {
    /// Build from trace histories.
    pub fn from_records(records: &[TaskRecord]) -> Self {
        let groups = ckpt_trace::stats::estimator_from_records(records);
        let per_task = ckpt_trace::stats::per_task_oracle(records);
        let pooled = groups.estimate_pooled(f64::INFINITY);
        let (fallback_mtbf, fallback_mnof_per_sec) = match pooled {
            Some(p) => (
                if p.mtbf.is_finite() { p.mtbf } else { 1e9 },
                if p.mean_length > 0.0 {
                    p.mnof / p.mean_length
                } else {
                    0.0
                },
            ),
            None => (1e9, 0.0),
        };
        Self {
            groups,
            per_task,
            fallback_mtbf,
            fallback_mnof_per_sec,
            cache: std::sync::RwLock::new(HashMap::new()),
        }
    }

    /// Memoized [`GroupedEstimator::estimate`] / `estimate_pooled` lookup.
    fn cached_estimate(&self, pooled: bool, priority: u8, limit: f64) -> Option<Estimate> {
        let key = (pooled, priority, limit.to_bits());
        if let Some(e) = self
            .cache
            .read()
            .expect("estimate cache poisoned")
            .get(&key)
        {
            return *e;
        }
        let e = if pooled {
            self.groups.estimate_pooled(limit)
        } else {
            self.groups.estimate(priority, limit)
        };
        self.cache
            .write()
            .expect("estimate cache poisoned")
            .insert(key, e);
        e
    }

    /// The grouped estimator (Table 7 queries).
    pub fn groups(&self) -> &GroupedEstimator {
        &self.groups
    }

    /// Predicted `(MNOF, MTBF)` for a task under an estimator kind.
    ///
    /// Group estimators use the **raw group MNOF** — the paper's estimator.
    /// This works because MNOF is nearly length-independent per priority in
    /// Google workloads (Table 7: 1.06 → 1.27 for priority 2 over a ~50×
    /// length range), which is precisely the paper's argument for preferring
    /// the failure *count* over failure *intervals*.
    pub fn predict(&self, kind: EstimatorKind, task: &TaskSpec, priority: u8) -> (f64, f64) {
        match kind {
            EstimatorKind::Oracle => {
                let (count, mtbf) = self.per_task.get(&task.id).copied().unwrap_or((0, None));
                (count as f64, mtbf.unwrap_or(self.fallback_mtbf))
            }
            EstimatorKind::PerPriority { limit } => {
                match self.cached_estimate(false, priority, limit) {
                    Some(e) => {
                        let mtbf = if e.mtbf.is_finite() {
                            e.mtbf
                        } else {
                            self.fallback_mtbf
                        };
                        (e.mnof, mtbf)
                    }
                    None => (
                        self.fallback_mnof_per_sec * task.length_s,
                        self.fallback_mtbf,
                    ),
                }
            }
            EstimatorKind::Global { limit } => match self.cached_estimate(true, 0, limit) {
                Some(e) => {
                    let mtbf = if e.mtbf.is_finite() {
                        e.mtbf
                    } else {
                        self.fallback_mtbf
                    };
                    (e.mnof, mtbf)
                }
                None => (
                    self.fallback_mnof_per_sec * task.length_s,
                    self.fallback_mtbf,
                ),
            },
        }
    }
}

/// Everything the executor needs to run one task under a policy.
#[derive(Debug, Clone)]
pub struct TaskPlan {
    /// The controller driving checkpoint positions.
    pub controller: Controller,
    /// Chosen storage device.
    pub device: Device,
    /// Per-checkpoint cost `C` (uncontended).
    pub ckpt_cost: f64,
    /// Per-restart cost `R`.
    pub restart_cost: f64,
    /// The MNOF prediction that was used (diagnostics / flip scaling).
    pub mnof: f64,
    /// The MTBF prediction that was used.
    pub mtbf: f64,
    /// The interval count the policy chose.
    pub intervals: u32,
}

/// Build the execution plan for one task.
pub fn plan_task(
    cfg: &PolicyConfig,
    blcr: &BlcrModel,
    estimates: &Estimates,
    task: &TaskSpec,
    priority: u8,
) -> TaskPlan {
    let (mnof, mtbf) = estimates.predict(cfg.estimator, task, priority);
    let te = task.length_s;
    let mem = task.mem_mb;

    // Device: §4.2.2 expected-cost comparison (or forced). Cost tweaks are
    // applied before the comparison so the decision sees the same `C`/`R`
    // the executor will pay.
    let local = DeviceCosts::new(
        cfg.cost
            .apply_ckpt(blcr.checkpoint_cost(Device::Ramdisk, mem)),
        cfg.cost
            .apply_restart(blcr.restart_cost_for_device(Device::Ramdisk, mem)),
    )
    .expect("cost model yields positive costs");
    let shared = DeviceCosts::new(
        cfg.cost
            .apply_ckpt(blcr.checkpoint_cost(Device::DmNfs, mem)),
        cfg.cost
            .apply_restart(blcr.restart_cost_for_device(Device::DmNfs, mem)),
    )
    .expect("cost model yields positive costs");
    let device = match cfg.storage {
        StorageChoice::Force(d) => d,
        StorageChoice::Auto => match choose_storage(te, mnof, local, shared) {
            Ok((ckpt_policy::storage::StoragePick::Local, ..)) => Device::Ramdisk,
            Ok((ckpt_policy::storage::StoragePick::Shared, ..)) => Device::DmNfs,
            Err(_) => Device::Ramdisk,
        },
    };
    let ckpt_cost = cfg.cost.apply_ckpt(blcr.checkpoint_cost(device, mem));
    let restart_cost = cfg
        .cost
        .apply_restart(blcr.restart_cost_for_device(device, mem));

    // Interval count per the policy formula.
    let intervals: u32 = match cfg.kind {
        PolicyKind::Formula3 => optimal_interval_count(te, ckpt_cost, mnof)
            .map(|x| x.rounded())
            .unwrap_or(1),
        PolicyKind::Young => young_interval_count(te, ckpt_cost, mtbf).unwrap_or(1),
        PolicyKind::Daly => daly_interval_count(te, ckpt_cost, mtbf).unwrap_or(1),
        PolicyKind::None => 1,
    };

    let controller = if cfg.adaptive && cfg.kind == PolicyKind::Formula3 {
        match AdaptiveCheckpointer::new(te, ckpt_cost, mnof) {
            Ok(a) => Controller::Adaptive(a),
            Err(_) => Controller::Fixed(FixedSchedule::none()),
        }
    } else if intervals <= 1 {
        Controller::Fixed(FixedSchedule::none())
    } else {
        Controller::Fixed(FixedSchedule::new(
            &EquidistantSchedule::new(te, intervals).expect("validated inputs"),
        ))
    };

    TaskPlan {
        controller,
        device,
        ckpt_cost,
        restart_cost,
        mnof,
        mtbf,
        intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Schedule;
    use ckpt_trace::gen::generate;
    use ckpt_trace::spec::WorkloadSpec;
    use ckpt_trace::stats::trace_histories;

    fn setup() -> (ckpt_trace::gen::Trace, Estimates) {
        let trace = generate(&WorkloadSpec::google_like(600), 55).expect("valid workload spec");
        let records = trace_histories(&trace);
        let est = Estimates::from_records(&records);
        (trace, est)
    }

    #[test]
    fn oracle_prediction_matches_history() {
        let (trace, est) = setup();
        let records = trace_histories(&trace);
        for r in records.iter().take(50) {
            let job = &trace.jobs[r.job_id as usize];
            let task = job.tasks.iter().find(|t| t.id == r.task_id).unwrap();
            let (mnof, _) = est.predict(EstimatorKind::Oracle, task, job.priority);
            assert_eq!(mnof, r.history.failure_count as f64);
        }
    }

    #[test]
    fn group_prediction_is_length_free() {
        // The paper's estimator hands every task of a priority group the
        // same MNOF and MTBF, regardless of its length.
        let (trace, est) = setup();
        let job = &trace.jobs[0];
        let mut t1 = job.tasks[0].clone();
        let mut t2 = job.tasks[0].clone();
        t1.length_s = 100.0;
        t2.length_s = 1000.0;
        let kind = EstimatorKind::PerPriority {
            limit: f64::INFINITY,
        };
        let (m1, tb1) = est.predict(kind, &t1, job.priority);
        let (m2, tb2) = est.predict(kind, &t2, job.priority);
        assert_eq!(m1, m2, "group MNOF is per-task, not per-second");
        assert_eq!(tb1, tb2, "group MTBF is length-independent");
    }

    #[test]
    fn formula3_plans_more_intervals_than_young_under_inflated_mtbf() {
        // The paper's core claim at plan level: per-priority heavy-tail MTBF
        // makes Young checkpoint less than Formula (3) for short tasks.
        let (trace, est) = setup();
        let blcr = BlcrModel;
        let mut f3_total = 0u64;
        let mut yg_total = 0u64;
        let mut n = 0;
        for job in &trace.jobs {
            for task in &job.tasks {
                if task.length_s > 1000.0 {
                    continue; // the short tasks are where the effect lives
                }
                let f3 = plan_task(&PolicyConfig::formula3(), &blcr, &est, task, job.priority);
                let yg = plan_task(&PolicyConfig::young(), &blcr, &est, task, job.priority);
                f3_total += f3.intervals as u64;
                yg_total += yg.intervals as u64;
                n += 1;
            }
        }
        assert!(n > 100);
        assert!(
            f3_total > yg_total,
            "Formula3 {f3_total} vs Young {yg_total} over {n} short tasks"
        );
    }

    #[test]
    fn none_policy_never_checkpoints() {
        let (trace, est) = setup();
        let blcr = BlcrModel;
        let job = &trace.jobs[0];
        let plan = plan_task(
            &PolicyConfig::none(),
            &blcr,
            &est,
            &job.tasks[0],
            job.priority,
        );
        assert_eq!(plan.intervals, 1);
        assert_eq!(plan.controller.next_checkpoint(), None);
    }

    #[test]
    fn forced_storage_respected() {
        let (trace, est) = setup();
        let blcr = BlcrModel;
        let job = &trace.jobs[0];
        for dev in [Device::Ramdisk, Device::CentralNfs, Device::DmNfs] {
            let cfg = PolicyConfig::formula3().with_storage(StorageChoice::Force(dev));
            let plan = plan_task(&cfg, &blcr, &est, &job.tasks[0], job.priority);
            assert_eq!(plan.device, dev);
        }
    }

    #[test]
    fn auto_storage_prefers_local_for_typical_tasks() {
        // For the common case (few failures, small memory) the paper's
        // example picks local ramdisk; our planner should mostly agree.
        let (trace, est) = setup();
        let blcr = BlcrModel;
        let mut local = 0;
        let mut shared = 0;
        for job in trace.jobs.iter().take(200) {
            for task in &job.tasks {
                let plan = plan_task(&PolicyConfig::formula3(), &blcr, &est, task, job.priority);
                match plan.device {
                    Device::Ramdisk => local += 1,
                    _ => shared += 1,
                }
            }
        }
        assert!(local > shared, "local {local} vs shared {shared}");
    }

    #[test]
    fn adaptive_config_builds_adaptive_controller() {
        let (trace, est) = setup();
        let blcr = BlcrModel;
        let job = &trace.jobs[0];
        let cfg = PolicyConfig::formula3().with_adaptivity(true);
        let plan = plan_task(&cfg, &blcr, &est, &job.tasks[0], job.priority);
        assert!(matches!(plan.controller, Controller::Adaptive(_)));
    }

    #[test]
    fn cost_tweak_scales_and_overrides_plan_costs() {
        let (trace, est) = setup();
        let blcr = BlcrModel;
        let job = &trace.jobs[0];
        let task = &job.tasks[0];
        let base_cfg = PolicyConfig::formula3().with_storage(StorageChoice::Force(Device::Ramdisk));
        let base = plan_task(&base_cfg, &blcr, &est, task, job.priority);

        let scaled_cfg = base_cfg.with_cost(CostTweak {
            ckpt_scale: 3.0,
            ..CostTweak::identity()
        });
        let scaled = plan_task(&scaled_cfg, &blcr, &est, task, job.priority);
        assert!((scaled.ckpt_cost - 3.0 * base.ckpt_cost).abs() < 1e-12);
        // Pricier checkpoints ⇒ weakly fewer planned intervals (Theorem 1).
        assert!(scaled.intervals <= base.intervals);

        let forced_cfg = base_cfg.with_cost(CostTweak {
            ckpt_override: Some(2.5),
            restart_override: Some(1.25),
            ..CostTweak::identity()
        });
        let forced = plan_task(&forced_cfg, &blcr, &est, task, job.priority);
        assert_eq!(forced.ckpt_cost, 2.5);
        assert_eq!(forced.restart_cost, 1.25);
    }

    #[test]
    fn identity_tweak_changes_nothing() {
        let (trace, est) = setup();
        let blcr = BlcrModel;
        let job = &trace.jobs[1];
        let a = plan_task(
            &PolicyConfig::formula3(),
            &blcr,
            &est,
            &job.tasks[0],
            job.priority,
        );
        let b = plan_task(
            &PolicyConfig::formula3().with_cost(CostTweak::identity()),
            &blcr,
            &est,
            &job.tasks[0],
            job.priority,
        );
        assert_eq!(a.ckpt_cost, b.ckpt_cost);
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.device, b.device);
    }

    #[test]
    fn config_builders() {
        let c = PolicyConfig::formula3()
            .with_estimator(EstimatorKind::Oracle)
            .with_adaptivity(true)
            .with_storage(StorageChoice::Force(Device::Ramdisk));
        assert_eq!(c.estimator, EstimatorKind::Oracle);
        assert!(c.adaptive);
        assert_eq!(c.storage, StorageChoice::Force(Device::Ramdisk));
        assert_eq!(PolicyConfig::daly().kind, PolicyKind::Daly);
    }
}
