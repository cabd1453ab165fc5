//! [`ScenarioSpec`] — the declarative description of **one** run: which
//! engine, which workload (generated or replayed from a trace file), which
//! policy/estimator/adaptivity/storage configuration, which cost tweaks,
//! and which record filters feed the aggregation.
//!
//! A scenario is a *value*: the sweep layer clones the base scenario and
//! applies axis assignments via [`ScenarioSpec::apply`], so every grid cell
//! is itself a complete, self-describing `ScenarioSpec`.

use crate::parse::Value;
use ckpt_policy::PolicyKind;
use ckpt_sim::blcr::Device;
use ckpt_sim::cluster::ClusterConfig;
use ckpt_sim::policy::{CostTweak, EstimatorKind, PolicyConfig, StorageChoice};
use ckpt_trace::failure::{FailureKind, FailureModelSpec};
use ckpt_trace::gen::JobStructure;
use ckpt_trace::spec::WorkloadSpec;

/// Which execution engine evaluates a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The fast per-task replay path (`ckpt_sim::runner`).
    Fast,
    /// The full-cluster DES (`ckpt_sim::cluster`): scheduling, storage
    /// contention, restart migration.
    Cluster,
    /// Analytic BLCR checkpoint-cost evaluation (Figure 7 style): no
    /// simulation, just the calibrated cost model.
    CkptCost,
    /// Simultaneous-checkpoint contention microbenchmark on a
    /// processor-sharing storage server (Table 2/3 style).
    Contention,
}

impl EngineKind {
    /// Short label for reports and exports.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Fast => "fast",
            EngineKind::Cluster => "cluster",
            EngineKind::CkptCost => "ckpt-cost",
            EngineKind::Contention => "contention",
        }
    }

    /// Parse from a spec string. (Inherent rather than `std::str::FromStr`
    /// so call sites read as spec vocabulary, like the CLI's parsers.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fast" => Ok(EngineKind::Fast),
            "cluster" => Ok(EngineKind::Cluster),
            "ckpt-cost" => Ok(EngineKind::CkptCost),
            "contention" => Ok(EngineKind::Contention),
            other => Err(format!(
                "unknown engine {other:?} (expected fast|cluster|ckpt-cost|contention)"
            )),
        }
    }
}

/// How a trace-engine cell aggregates its replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsChoice {
    /// Materialize per-job records (full order statistics: p50/p99; all
    /// aggregation filters available). The default.
    #[default]
    Full,
    /// Fold records into constant-memory streaming summaries as the
    /// replay produces them (replay engines — fast and cluster;
    /// `sample = "all"` and no record filters). Exports exact
    /// count/mean/min/max plus p50/p99 from a deterministic mergeable
    /// quantile sketch ([`ckpt_stats::sketch`]): exact in rank, within
    /// the sketch's documented ≈ 1 % relative value error of the
    /// full-record percentiles, and byte-identical at any thread count.
    /// For stress-scale sweeps where the per-cell record vector is the
    /// dominant allocation.
    Streaming,
}

impl MetricsChoice {
    /// Spec label.
    pub fn label(&self) -> &'static str {
        match self {
            MetricsChoice::Full => "full",
            MetricsChoice::Streaming => "streaming",
        }
    }
}

/// Which jobs feed the aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleFilter {
    /// Every job in the trace.
    All,
    /// The paper's sample: jobs where at least `fraction` of tasks failed.
    FailureProne {
        /// Minimum failed-task fraction for a job to qualify.
        fraction: f64,
    },
}

/// Workload-shape overrides applied on top of
/// [`WorkloadSpec::google_like`]. `None` keeps the calibrated default.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkloadTweaks {
    /// Median task length (seconds).
    pub length_median_s: Option<f64>,
    /// Multiplicative task-length spread.
    pub length_spread: Option<f64>,
    /// Bag-of-tasks job fraction.
    pub bot_fraction: Option<f64>,
    /// Long-running-service job fraction.
    pub long_task_fraction: Option<f64>,
    /// Mean job inter-arrival time (seconds).
    pub mean_interarrival_s: Option<f64>,
    /// Median task memory (MB).
    pub mem_median_mb: Option<f64>,
    /// Give every job a mid-run priority flip (the Figure 14 scenario).
    pub flips: bool,
}

/// The declarative description of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in output paths and labels).
    pub name: String,
    /// Execution engine.
    pub engine: EngineKind,
    /// Base RNG seed — trace generation and failure streams derive from it.
    pub seed: u64,
    /// Number of jobs to generate (ignored when `trace_file` is set).
    pub jobs: usize,
    /// Replay this exported trace CSV instead of generating a workload.
    pub trace_file: Option<String>,
    /// Workload-shape overrides.
    pub workload: WorkloadTweaks,

    /// Which inter-failure law the workload's kill plans (and the cluster
    /// engine's host failures) are drawn from. The default `exponential`
    /// is the bit-identical legacy path; see [`ckpt_trace::failure`].
    pub failure_model: FailureKind,
    /// Shape parameter of the failure model (`None` = the kind's default:
    /// Weibull 0.7, log-normal σ 1.0, Pareto 1.5).
    pub failure_shape: Option<f64>,
    /// Mean-interval multiplier of the failure model (> 1 ⇒ fewer
    /// failures than the MNOF calibration).
    pub failure_scale: f64,

    /// Checkpoint-placement policy.
    pub policy: PolicyKind,
    /// MNOF/MTBF estimator.
    pub estimator: EstimatorKind,
    /// Algorithm 1 adaptivity.
    pub adaptive: bool,
    /// Checkpoint storage selection.
    pub storage: StorageChoice,
    /// Checkpoint/restart cost adjustments.
    pub cost: CostTweak,

    /// How trace-engine cells aggregate their replay (full records vs
    /// streaming summaries).
    pub metrics: MetricsChoice,
    /// Which jobs feed the aggregation.
    pub sample: SampleFilter,
    /// Restrict aggregation to one job structure.
    pub structure: Option<JobStructure>,
    /// Restrict aggregation to one priority.
    pub priority: Option<u8>,
    /// Restrict aggregation to jobs whose longest task is ≤ this (the
    /// paper's RL parameter).
    pub max_task_length: Option<f64>,

    /// Cluster engine topology/storage parameters.
    pub cluster: ClusterConfig,
    /// Cluster engine host-group shards: 1 (the default) is the single
    /// engine; `S > 1` partitions the host fleet into `S` contiguous
    /// groups and runs one engine per shard in parallel
    /// (`ckpt_sim::shard`). Must not exceed `n_hosts` — validated at
    /// execution time, when both final values are known.
    pub shards: usize,

    /// `ckpt-cost` / `contention` engines: checkpoint device.
    pub device: Device,
    /// `ckpt-cost` / `contention` engines: task memory (MB).
    pub mem_mb: f64,
    /// `ckpt-cost` engine: number of checkpoints.
    pub n_checkpoints: u32,
    /// `contention` engine: simultaneous checkpoint degree X.
    pub degree: usize,
    /// `contention` engine: measurement repetitions.
    pub reps: usize,
}

impl ScenarioSpec {
    /// A paper-default scenario: fast engine, Formula (3), per-priority
    /// estimation, failure-prone sample — the configuration behind the
    /// headline figures.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            engine: EngineKind::Fast,
            seed: 20130217,
            jobs: 2000,
            trace_file: None,
            workload: WorkloadTweaks::default(),
            failure_model: FailureKind::Exponential,
            failure_shape: None,
            failure_scale: 1.0,
            policy: PolicyKind::Formula3,
            estimator: EstimatorKind::PerPriority {
                limit: f64::INFINITY,
            },
            adaptive: false,
            storage: StorageChoice::Auto,
            cost: CostTweak::identity(),
            metrics: MetricsChoice::Full,
            sample: SampleFilter::FailureProne { fraction: 0.5 },
            structure: None,
            priority: None,
            max_task_length: None,
            cluster: ClusterConfig::default(),
            shards: 1,
            device: Device::Ramdisk,
            mem_mb: 160.0,
            n_checkpoints: 1,
            degree: 1,
            reps: 25,
        }
    }

    /// The validated failure model this scenario runs under. Errors name
    /// the offending spec field (`failure_shape` / `failure_scale`) —
    /// combinations that only meet across sweep axes surface here.
    pub fn failure_spec(&self) -> Result<FailureModelSpec, String> {
        self.failure_model
            .build(self.failure_shape, self.failure_scale)
    }

    /// The workload spec this scenario generates (when no trace file).
    /// Fails when the failure-model fields form an invalid combination
    /// (e.g. a `failure_shape` axis meeting the exponential model).
    pub fn workload_spec(&self) -> Result<WorkloadSpec, String> {
        let mut w = WorkloadSpec::google_like(self.jobs);
        let t = &self.workload;
        if let Some(v) = t.length_median_s {
            w.length_median_s = v;
        }
        if let Some(v) = t.length_spread {
            w.length_spread = v;
        }
        if let Some(v) = t.bot_fraction {
            w.bot_fraction = v;
        }
        if let Some(v) = t.long_task_fraction {
            w.long_task_fraction = v;
        }
        if let Some(v) = t.mean_interarrival_s {
            w.mean_interarrival_s = v;
        }
        if let Some(v) = t.mem_median_mb {
            w.mem_median_mb = v;
        }
        if t.flips {
            w = w.with_priority_flips();
        }
        w.failure_model = self.failure_spec()?;
        Ok(w)
    }

    /// The policy configuration this scenario runs.
    pub fn policy_config(&self) -> PolicyConfig {
        let base = match self.policy {
            PolicyKind::Formula3 => PolicyConfig::formula3(),
            PolicyKind::Young => PolicyConfig::young(),
            PolicyKind::Daly => PolicyConfig::daly(),
            PolicyKind::None => PolicyConfig::none(),
        };
        base.with_estimator(self.estimator)
            .with_adaptivity(self.adaptive)
            .with_storage(self.storage)
            .with_cost(self.cost)
    }

    /// The run identity as text: the 16 hex digits of the digest of
    /// everything that affects the *simulation* (the run scope of
    /// [`crate::identity`]; the aggregation filters do not enter it).
    /// [`crate::ckpt::cell_key_digest`] of this key and a cell's params is
    /// the digest the executor stores for that cell. The executor itself
    /// keys on the typed words, never on this text.
    pub fn run_key(&self) -> String {
        let digits = crate::identity::hex_digits(crate::identity::run_digest(self));
        digits.iter().map(|&b| char::from(b)).collect()
    }

    /// Apply one `key = value` assignment (used for both base-scenario
    /// fields and sweep-axis values).
    pub fn apply(&mut self, key: &str, value: &Value) -> Result<(), String> {
        let num = |v: &Value| {
            v.as_num()
                .ok_or_else(|| format!("key {key:?}: expected a number, got {}", v.render()))
        };
        fn text_of<'v>(key: &str, v: &'v Value) -> Result<&'v str, String> {
            v.as_str()
                .ok_or_else(|| format!("key {key:?}: expected a string, got {}", v.render()))
        }
        let boolean = |v: &Value| {
            v.as_bool()
                .ok_or_else(|| format!("key {key:?}: expected a bool, got {}", v.render()))
        };
        // Cost and size inputs feed `DeviceCosts::new`, which rejects
        // non-positive values with a panic deep in plan_task; validate here
        // so bad specs fail with a named key instead of killing the sweep.
        let positive = |v: &Value| -> Result<f64, String> {
            let x = num(v)?;
            if x > 0.0 {
                Ok(x)
            } else {
                Err(format!("key {key:?}: must be positive, got {x}"))
            }
        };
        // Count-like inputs: a bare `as usize` would saturate `jobs = -100`
        // to zero and truncate `2.7` to 2, silently producing a degenerate
        // sweep; require an exact non-negative integer.
        let count = |v: &Value| -> Result<u64, String> {
            let x = num(v)?;
            if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 {
                Ok(x as u64)
            } else {
                Err(format!(
                    "key {key:?}: expected a non-negative integer, got {x}"
                ))
            }
        };
        let at_least_one = |v: &Value| -> Result<u64, String> {
            match count(v)? {
                0 => Err(format!("key {key:?}: must be >= 1, got 0")),
                n => Ok(n),
            }
        };
        match key {
            "engine" => self.engine = EngineKind::from_str(text_of(key, value)?)?,
            "seed" => self.seed = count(value)?,
            "jobs" => self.jobs = count(value)? as usize,
            "trace" | "trace_file" => self.trace_file = Some(text_of(key, value)?.to_string()),

            "policy" => {
                self.policy = match text_of(key, value)? {
                    "formula3" => PolicyKind::Formula3,
                    "young" => PolicyKind::Young,
                    "daly" => PolicyKind::Daly,
                    "none" => PolicyKind::None,
                    other => {
                        return Err(format!(
                            "unknown policy {other:?} (expected formula3|young|daly|none)"
                        ))
                    }
                }
            }
            "estimator" => {
                let limit = self.estimator_limit();
                self.estimator = match text_of(key, value)? {
                    "oracle" => EstimatorKind::Oracle,
                    "priority" => EstimatorKind::PerPriority { limit },
                    "global" => EstimatorKind::Global { limit },
                    other => {
                        return Err(format!(
                            "unknown estimator {other:?} (expected oracle|priority|global)"
                        ))
                    }
                }
            }
            "limit" => {
                let limit = num(value)?;
                // A non-positive or NaN length cutoff would silently empty
                // the estimation population (every group falls back to the
                // pooled rate); reject it by name. `inf` stays valid — it
                // is the paper's unrestricted-length configuration.
                if limit.is_nan() || limit <= 0.0 {
                    return Err(format!(
                        "key \"limit\": must be positive (or inf), got {limit}"
                    ));
                }
                self.estimator = match self.estimator {
                    // Silently keeping Oracle would make a `limit` axis a
                    // no-op grid of identical cells.
                    EstimatorKind::Oracle => {
                        return Err("key \"limit\" has no effect with the oracle estimator; \
                             set estimator = \"priority\" or \"global\" first"
                            .to_string())
                    }
                    EstimatorKind::PerPriority { .. } => EstimatorKind::PerPriority { limit },
                    EstimatorKind::Global { .. } => EstimatorKind::Global { limit },
                };
            }
            "adaptive" => self.adaptive = boolean(value)?,
            "storage" => {
                self.storage = match text_of(key, value)? {
                    "auto" => StorageChoice::Auto,
                    other => StorageChoice::Force(parse_device(other)?),
                }
            }
            "ckpt_cost_scale" => self.cost.ckpt_scale = positive(value)?,
            "restart_cost_scale" => self.cost.restart_scale = positive(value)?,
            "ckpt_cost" => self.cost.ckpt_override = Some(positive(value)?),
            "restart_cost" => self.cost.restart_override = Some(positive(value)?),

            "metrics" => {
                self.metrics = match text_of(key, value)? {
                    "full" => MetricsChoice::Full,
                    "streaming" => MetricsChoice::Streaming,
                    other => {
                        return Err(format!(
                            "unknown metrics mode {other:?} (expected full|streaming)"
                        ))
                    }
                }
            }
            "sample" => {
                self.sample = match text_of(key, value)? {
                    "all" => SampleFilter::All,
                    "failure-prone" => SampleFilter::FailureProne { fraction: 0.5 },
                    other => {
                        return Err(format!(
                            "unknown sample {other:?} (expected all|failure-prone)"
                        ))
                    }
                }
            }
            "sample_fraction" => {
                let fraction = num(value)?;
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(format!(
                        "key \"sample_fraction\": must be in (0, 1], got {fraction}"
                    ));
                }
                self.sample = SampleFilter::FailureProne { fraction }
            }
            "structure" => {
                self.structure = match text_of(key, value)? {
                    "ST" => Some(JobStructure::Sequential),
                    "BoT" => Some(JobStructure::BagOfTasks),
                    "any" => None,
                    other => return Err(format!("unknown structure {other:?} (ST|BoT|any)")),
                }
            }
            "priority" => {
                let p = count(value)?;
                if !(1..=12).contains(&p) {
                    return Err(format!("key \"priority\": must be in 1..=12, got {p}"));
                }
                self.priority = Some(p as u8);
            }
            "max_task_length" => self.max_task_length = Some(num(value)?),

            // The three failure keys validate the *combination* before
            // committing, so a bad pairing (e.g. a failure_shape axis over
            // an exponential base) fails at parse time with the spec left
            // untouched, not mid-sweep with half-applied state.
            "failure_model" => {
                let kind = FailureKind::from_name(text_of(key, value)?)?;
                kind.build(self.failure_shape, self.failure_scale)?;
                self.failure_model = kind;
            }
            "failure_shape" => {
                let shape = num(value)?;
                self.failure_model.build(Some(shape), self.failure_scale)?;
                self.failure_shape = Some(shape);
            }
            "failure_scale" => {
                let scale = num(value)?;
                self.failure_model.build(self.failure_shape, scale)?;
                self.failure_scale = scale;
            }

            "length_median_s" => self.workload.length_median_s = Some(num(value)?),
            "length_spread" => self.workload.length_spread = Some(num(value)?),
            "bot_fraction" => self.workload.bot_fraction = Some(num(value)?),
            "long_task_fraction" => self.workload.long_task_fraction = Some(num(value)?),
            "mean_interarrival_s" => self.workload.mean_interarrival_s = Some(num(value)?),
            "mem_median_mb" => self.workload.mem_median_mb = Some(num(value)?),
            "flips" => self.workload.flips = boolean(value)?,

            // A cluster without hosts, VM slots or memory can place no
            // task, and a zero/negative storage rate or host MTBF would
            // hang the DES (zero-length service / failure intervals
            // rescheduled at the same instant forever); reject at spec
            // time by name.
            "n_hosts" => self.cluster.n_hosts = at_least_one(value)? as usize,
            "vms_per_host" => self.cluster.vms_per_host = at_least_one(value)? as usize,
            "host_mem_mb" => self.cluster.host_mem_mb = positive(value)?,
            "storage_rate" => self.cluster.storage_rate = positive(value)?,
            "host_mtbf_s" => self.cluster.host_mtbf_s = Some(positive(value)?),
            // Zero shards has no meaning (who owns the hosts?); the upper
            // bound (shards <= n_hosts) is checked at execution time,
            // where the final n_hosts is known even when the two values
            // arrive via different sweep axes.
            "shards" => self.shards = at_least_one(value)? as usize,

            "device" => self.device = parse_device(text_of(key, value)?)?,
            "mem_mb" => self.mem_mb = positive(value)?,
            "n_checkpoints" => self.n_checkpoints = count(value)? as u32,
            "degree" => self.degree = count(value)? as usize,
            "reps" => self.reps = count(value)? as usize,

            other => return Err(format!("unknown scenario key {other:?}")),
        }
        Ok(())
    }

    fn estimator_limit(&self) -> f64 {
        match self.estimator {
            EstimatorKind::Oracle => f64::INFINITY,
            EstimatorKind::PerPriority { limit } | EstimatorKind::Global { limit } => limit,
        }
    }
}

fn parse_device(s: &str) -> Result<Device, String> {
    match s {
        "ramdisk" => Ok(Device::Ramdisk),
        "nfs" => Ok(Device::CentralNfs),
        "dmnfs" | "dm-nfs" => Ok(Device::DmNfs),
        other => Err(format!(
            "unknown device {other:?} (expected ramdisk|nfs|dmnfs)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_key(s: &ScenarioSpec) -> Vec<u64> {
        crate::identity::key(s, crate::identity::Scope::Run)
    }

    #[test]
    fn defaults_match_paper_primary_config() {
        let s = ScenarioSpec::new("t");
        let cfg = s.policy_config();
        assert_eq!(cfg.kind, PolicyKind::Formula3);
        assert!(!cfg.adaptive);
        assert_eq!(cfg.storage, StorageChoice::Auto);
        assert_eq!(s.workload_spec().unwrap().n_jobs, 2000);
    }

    #[test]
    fn apply_sets_policy_and_cost() {
        let mut s = ScenarioSpec::new("t");
        s.apply("policy", &Value::Str("young".into())).unwrap();
        s.apply("ckpt_cost_scale", &Value::Num(4.0)).unwrap();
        s.apply("adaptive", &Value::Bool(true)).unwrap();
        assert_eq!(s.policy, PolicyKind::Young);
        assert_eq!(s.cost.ckpt_scale, 4.0);
        let cfg = s.policy_config();
        assert_eq!(cfg.kind, PolicyKind::Young);
        assert!(cfg.adaptive);
        assert_eq!(cfg.cost.ckpt_scale, 4.0);
    }

    #[test]
    fn estimator_and_limit_compose_in_either_order() {
        let mut a = ScenarioSpec::new("a");
        a.apply("estimator", &Value::Str("global".into())).unwrap();
        a.apply("limit", &Value::Num(1000.0)).unwrap();
        let mut b = ScenarioSpec::new("b");
        b.apply("limit", &Value::Num(1000.0)).unwrap();
        b.apply("estimator", &Value::Str("global".into())).unwrap();
        assert_eq!(a.estimator, EstimatorKind::Global { limit: 1000.0 });
        assert_eq!(a.estimator, b.estimator);
    }

    #[test]
    fn filters_do_not_change_the_run_key() {
        let mut a = ScenarioSpec::new("x");
        let base_key = run_key(&a);
        a.apply("structure", &Value::Str("BoT".into())).unwrap();
        a.apply("priority", &Value::Num(2.0)).unwrap();
        a.apply("max_task_length", &Value::Num(1000.0)).unwrap();
        assert_eq!(run_key(&a), base_key);
        a.apply("policy", &Value::Str("daly".into())).unwrap();
        assert_ne!(run_key(&a), base_key);
    }

    #[test]
    fn workload_tweaks_apply() {
        let mut s = ScenarioSpec::new("w");
        s.apply("length_median_s", &Value::Num(100.0)).unwrap();
        s.apply("flips", &Value::Bool(true)).unwrap();
        let w = s.workload_spec().unwrap();
        assert_eq!(w.length_median_s, 100.0);
        assert_eq!(w.priority_flip_prob, 1.0);
    }

    #[test]
    fn limit_rejects_nonpositive_and_nan_by_name() {
        let mut s = ScenarioSpec::new("l");
        for bad in [0.0, -100.0, f64::NAN] {
            let e = s.apply("limit", &Value::Num(bad)).unwrap_err();
            assert!(e.contains("\"limit\""), "{e}");
        }
        // inf stays valid: the paper's unrestricted-length configuration.
        assert!(s.apply("limit", &Value::Num(f64::INFINITY)).is_ok());
        assert_eq!(
            s.estimator,
            EstimatorKind::PerPriority {
                limit: f64::INFINITY
            }
        );
    }

    #[test]
    fn failure_model_axis_applies_and_validates() {
        let mut s = ScenarioSpec::new("f");
        s.apply("failure_model", &Value::Str("weibull".into()))
            .unwrap();
        s.apply("failure_shape", &Value::Num(0.5)).unwrap();
        s.apply("failure_scale", &Value::Num(2.0)).unwrap();
        assert_eq!(
            s.failure_spec().unwrap(),
            FailureModelSpec::Weibull {
                shape: 0.5,
                scale: 2.0
            }
        );
        let w = s.workload_spec().unwrap();
        assert_eq!(
            w.failure_model,
            FailureModelSpec::Weibull {
                shape: 0.5,
                scale: 2.0
            }
        );

        // Bad values are rejected at apply time with named fields.
        let mut bad = ScenarioSpec::new("b");
        let e = bad
            .apply("failure_model", &Value::Str("gamma".into()))
            .unwrap_err();
        assert!(e.contains("failure model"), "{e}");
        // Shape on the exponential default is a no-op grid in disguise.
        let e = bad.apply("failure_shape", &Value::Num(0.7)).unwrap_err();
        assert!(e.contains("exponential"), "{e}");
        bad.apply("failure_model", &Value::Str("pareto".into()))
            .unwrap();
        let e = bad.apply("failure_shape", &Value::Num(0.9)).unwrap_err();
        assert!(e.contains("shape > 1"), "{e}");
        let e = bad
            .apply("failure_scale", &Value::Num(f64::NAN))
            .unwrap_err();
        assert!(e.contains("failure_scale"), "{e}");
    }

    #[test]
    fn failure_model_enters_the_run_key() {
        let mut a = ScenarioSpec::new("x");
        let base_key = run_key(&a);
        a.apply("failure_model", &Value::Str("pareto".into()))
            .unwrap();
        assert_ne!(run_key(&a), base_key);
        let with_default_shape = run_key(&a);
        a.apply("failure_shape", &Value::Num(1.8)).unwrap();
        assert_ne!(run_key(&a), with_default_shape);
    }

    #[test]
    fn host_mtbf_and_storage_rate_must_be_positive() {
        let mut s = ScenarioSpec::new("c");
        assert!(s.apply("host_mtbf_s", &Value::Num(0.0)).is_err());
        assert!(s.apply("storage_rate", &Value::Num(-1.0)).is_err());
        assert!(s.apply("host_mtbf_s", &Value::Num(3600.0)).is_ok());
        // Capacity that can place no task is rejected by name too.
        let before = s.cluster;
        for (key, bad) in [
            ("n_hosts", 0.0),
            ("vms_per_host", 0.0),
            ("host_mem_mb", 0.0),
            ("host_mem_mb", -512.0),
        ] {
            let err = s.apply(key, &Value::Num(bad)).unwrap_err();
            assert!(err.contains(key), "{key} = {bad}: {err}");
        }
        assert_eq!(s.cluster, before);
        assert!(s.apply("n_hosts", &Value::Num(1.0)).is_ok());
        assert!(s.apply("vms_per_host", &Value::Num(1.0)).is_ok());
        assert!(s.apply("host_mem_mb", &Value::Num(0.5)).is_ok());
    }

    #[test]
    fn shards_key_validates_and_enters_the_run_key() {
        let mut s = ScenarioSpec::new("c");
        assert_eq!(s.shards, 1);
        assert!(s.apply("shards", &Value::Num(0.0)).is_err());
        assert!(s.apply("shards", &Value::Num(2.5)).is_err());
        assert!(s.apply("shards", &Value::Str("four".into())).is_err());
        let unsharded_key = run_key(&s);
        s.apply("shards", &Value::Num(4.0)).unwrap();
        assert_eq!(s.shards, 4);
        // Sharding changes the simulation, so cells with different shard
        // counts must never share a replay.
        assert_ne!(run_key(&s), unsharded_key);
    }

    #[test]
    fn unknown_keys_and_bad_values_error() {
        let mut s = ScenarioSpec::new("e");
        assert!(s.apply("zebra", &Value::Num(1.0)).is_err());
        assert!(s.apply("policy", &Value::Num(3.0)).is_err());
        assert!(s.apply("policy", &Value::Str("zebra".into())).is_err());
        assert!(s.apply("device", &Value::Str("floppy".into())).is_err());
        assert!(s.apply("engine", &Value::Str("warp".into())).is_err());
    }
}
