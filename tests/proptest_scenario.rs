//! Property-based tests of the scenario/sweep subsystem: grid expansion
//! arithmetic, thread-count invariance of the executor's exported bytes,
//! and agreement between the sweep engine and a direct `run_trace` call
//! over the same trace (the "subsumes the one-off binaries" guarantee).

use cloud_ckpt::scenario::parse::Value;
use cloud_ckpt::scenario::{
    csv_string, json_string, run_sweep, Axis, ScenarioSpec, SweepOptions, SweepSpec,
};
use cloud_ckpt::sim::metrics::{mean_wpr, with_structure};
use cloud_ckpt::sim::policy::{Estimates, PolicyConfig};
use cloud_ckpt::sim::runner::{run_trace, RunOptions};
use cloud_ckpt::trace::gen::{generate, JobStructure};
use cloud_ckpt::trace::spec::WorkloadSpec;
use cloud_ckpt::trace::stats::{failure_prone_jobs, trace_histories};
use proptest::prelude::*;

/// Numeric scenario keys safe to use as synthetic axes.
const NUMERIC_PARAMS: [&str; 6] = [
    "ckpt_cost_scale",
    "seed",
    "mem_mb",
    "n_checkpoints",
    "degree",
    "reps",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grid expansion size equals the product of the axis lengths, for any
    /// axis count and any per-axis value counts.
    #[test]
    fn grid_size_is_product_of_axis_lengths(
        lens in proptest::collection::vec(1usize..5, 1..4),
        offset in 0usize..6,
    ) {
        let axes: Vec<Axis> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| Axis {
                param: NUMERIC_PARAMS[(i + offset) % NUMERIC_PARAMS.len()].to_string(),
                values: (1..=len).map(|v| Value::Num(v as f64)).collect(),
            })
            .collect();
        let expected: usize = lens.iter().product();
        let sweep = SweepSpec {
            name: "prop".into(),
            base: ScenarioSpec::new("prop"),
            axes,
            threads: 0,
        };
        prop_assert_eq!(sweep.grid_size(), expected);
        prop_assert_eq!(sweep.cells().unwrap().len(), expected);
        // Row-major order: consecutive cells differ in the last axis.
        if expected > 1 && *lens.last().unwrap() > 1 {
            let p0: Vec<_> = sweep.cell_values(0).collect();
            let p1: Vec<_> = sweep.cell_values(1).collect();
            prop_assert_eq!(&p0[..p0.len() - 1], &p1[..p1.len() - 1]);
            prop_assert_ne!(&p0[p0.len() - 1], &p1[p1.len() - 1]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The executor's exported bytes are identical for 1 vs 8 worker
    /// threads at any fixed seed — per-cell RNG streams are derived from
    /// `(seed, cell_index)`, never shared.
    #[test]
    fn sweep_outputs_thread_invariant(seed in 0u64..10_000, jobs in 40usize..120) {
        let text = format!(
            r#"
            [sweep]
            name = "prop_threads"
            engine = "fast"
            seed = {seed}
            jobs = {jobs}

            [axes]
            policy = ["formula3", "none"]
            ckpt_cost_scale = [0.5, 2.0]
            "#,
        );
        let sweep = SweepSpec::from_str(&text).unwrap();
        let a = run_sweep(&sweep, SweepOptions { threads: 1 }).map_err(|e| e.to_string()).unwrap();
        let b = run_sweep(&sweep, SweepOptions { threads: 8 }).map_err(|e| e.to_string()).unwrap();
        prop_assert_eq!(csv_string(&sweep, &a), csv_string(&sweep, &b));
        prop_assert_eq!(json_string(&sweep, &a), json_string(&sweep, &b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Contention cells are also thread-invariant (they are the only
    /// engine drawing fresh randomness during the sweep).
    #[test]
    fn contention_thread_invariant(seed in 0u64..10_000) {
        let text = format!(
            r#"
            [sweep]
            name = "prop_contention"
            engine = "contention"
            seed = {seed}
            mem_mb = 160
            reps = 10

            [axes]
            device = ["ramdisk", "nfs", "dmnfs"]
            degree = [1, 4]
            "#,
        );
        let sweep = SweepSpec::from_str(&text).unwrap();
        let a = run_sweep(&sweep, SweepOptions { threads: 1 }).map_err(|e| e.to_string()).unwrap();
        let b = run_sweep(&sweep, SweepOptions { threads: 6 }).map_err(|e| e.to_string()).unwrap();
        prop_assert_eq!(a.cells, b.cells);
    }
}

/// The engine must reproduce a hand-rolled `run_trace` experiment exactly:
/// same trace, same estimator, same failure-prone sample, same mean WPR —
/// the Figure 10 "matching numbers" guarantee.
#[test]
fn sweep_matches_direct_run_trace() {
    let jobs = 300;
    let seed = 20130217;

    // Direct computation, the way the old one-off binaries did it.
    let trace = generate(&WorkloadSpec::google_like(jobs), seed).expect("valid workload spec");
    let records = trace_histories(&trace);
    let estimates = Estimates::from_records(&records);
    let sample = failure_prone_jobs(&records, 0.5);
    let direct: Vec<_> = run_trace(
        &trace,
        &estimates,
        &PolicyConfig::young(),
        RunOptions { threads: 0 },
    )
    .into_iter()
    .filter(|r| sample.contains(&r.job_id))
    .collect();
    let direct_st = with_structure(&direct, JobStructure::Sequential);

    // The same experiment as a one-cell sweep with a structure filter.
    let text = format!(
        r#"
        [sweep]
        name = "match"
        engine = "fast"
        seed = {seed}
        jobs = {jobs}

        [scenario]
        policy = "young"
        structure = "ST"
        "#,
    );
    let sweep = SweepSpec::from_str(&text).unwrap();
    let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
    let wpr = result.cells[0]
        .metrics
        .iter()
        .find(|(n, _)| *n == "wpr")
        .unwrap()
        .1;

    assert_eq!(wpr.count, direct_st.len());
    assert!(
        (wpr.mean - mean_wpr(&direct_st)).abs() < 1e-12,
        "sweep {} vs direct {}",
        wpr.mean,
        mean_wpr(&direct_st)
    );
}
