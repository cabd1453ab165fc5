//! Property-based tests of the fast path: a replay from a shared plan
//! arena must be byte-identical to `run_trace`, which samples an arena of
//! its own, across every failure model, flip traces and thread counts, and
//! the chunked `parallel_indexed` substrate must match the sequential path
//! on adversarial sizes.

use cloud_ckpt::sim::policy::{Estimates, PolicyConfig};
use cloud_ckpt::sim::runner::{
    parallel_indexed, parallel_indexed_scratch, run_trace, run_trace_with_plans, RunOptions,
};
use cloud_ckpt::trace::failure::FailureModelSpec;
use cloud_ckpt::trace::gen::generate;
use cloud_ckpt::trace::plan::FailurePlanArena;
use cloud_ckpt::trace::spec::WorkloadSpec;
use cloud_ckpt::trace::stats::trace_histories;
use proptest::prelude::*;

/// The whole model family, at non-default parameters where they exist.
fn failure_model(idx: usize) -> FailureModelSpec {
    match idx % 5 {
        0 => FailureModelSpec::Exponential,
        1 => FailureModelSpec::Weibull {
            shape: 0.7,
            scale: 1.0,
        },
        2 => FailureModelSpec::LogNormal {
            sigma: 1.0,
            scale: 1.0,
        },
        3 => FailureModelSpec::Pareto {
            shape: 1.5,
            scale: 1.0,
        },
        _ => FailureModelSpec::TraceReplay { scale: 1.0 },
    }
}

fn policy(idx: usize) -> PolicyConfig {
    match idx % 4 {
        0 => PolicyConfig::formula3(),
        1 => PolicyConfig::young(),
        2 => PolicyConfig::none(),
        _ => PolicyConfig::formula3().with_adaptivity(true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared-arena replay == `run_trace` on one thread, byte for byte,
    /// for every failure model × flip/no-flip trace × policy × thread
    /// count. (This is the contract that lets the sweep executor and the
    /// experiments share one arena across every cell.)
    #[test]
    fn arena_replay_is_byte_identical_to_fresh_sampling(
        seed in 0u64..1_000,
        model_idx in 0usize..5,
        policy_idx in 0usize..4,
        flip_bit in 0usize..2,
        threads in 1usize..5,
    ) {
        let flips = flip_bit == 1;
        let mut spec = WorkloadSpec::google_like(60)
            .with_failure_model(failure_model(model_idx));
        if flips {
            spec = spec.with_priority_flips();
        }
        let trace = generate(&spec, seed).expect("valid workload spec");
        let records = trace_histories(&trace);
        let est = Estimates::from_records(&records);
        let cfg = policy(policy_idx);
        let own = run_trace(&trace, &est, &cfg, RunOptions { threads: 1 });
        let arena = FailurePlanArena::build(&trace);
        prop_assert_eq!(arena.captures_streams(), flips);
        let shared = run_trace_with_plans(&trace, &est, &cfg, RunOptions { threads }, &arena);
        prop_assert_eq!(own, shared);
    }

    /// Chunked claiming with direct in-place writes returns exactly the
    /// sequential result on adversarial sizes: n = 0, n < threads,
    /// n ≫ threads, and everything between.
    #[test]
    fn parallel_indexed_matches_sequential_on_adversarial_sizes(
        n_class in 0usize..4,
        n_jitter in 0usize..4,
        threads in 1usize..9,
        salt in 0u64..1_000_000,
    ) {
        // Adversarial sizes: empty, fewer items than workers, around the
        // chunk boundary, and ≫ threads.
        let n = match n_class {
            0 => 0,
            1 => n_jitter,          // 0..4: n < threads for most draws
            2 => 63 + n_jitter,     // straddles the 64-item chunk cap
            _ => 997 + n_jitter,    // n ≫ threads
        };
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        let seq: Vec<u64> = (0..n).map(f).collect();
        let par = parallel_indexed(n, threads, f);
        prop_assert_eq!(&seq, &par);
        // The scratch variant must agree too, with scratch history
        // invisible in the output (each worker's scratch accumulates).
        let (scr, _) = parallel_indexed_scratch(
            n,
            threads,
            Vec::<usize>::new,
            |scratch, i| {
                scratch.push(i);
                f(i)
            },
        );
        prop_assert_eq!(&seq, &scr);
    }
}
