//! Property-based tests of the execution model: the wall-clock accounting
//! identity, WPR bounds, kill-plan replay exactness, and the benefit of
//! checkpointing under heavy failure plans — over randomized tasks — plus
//! a pinned digest of the executor's exact ties and the fixed schedule's
//! cursor against the materialized positions.

use cloud_ckpt::policy::adaptive::AdaptiveCheckpointer;
use cloud_ckpt::policy::schedule::EquidistantSchedule;
use cloud_ckpt::sim::controller::{Controller, FixedSchedule, Schedule};
use cloud_ckpt::sim::task_sim::{simulate_task_with_plan, ExecFlip, TaskOutcome, TaskSimSpec};
use cloud_ckpt::stats::rng::Xoshiro256StarStar;
use cloud_ckpt::trace::failure::FailureModelSpec;
use cloud_ckpt::trace::spec::FailurePlan;
use proptest::prelude::*;

/// Strategy: a sorted kill plan inside (0, te) with ≥ 1 s gaps.
fn kill_plan(te: f64, max_kills: usize) -> impl Strategy<Value = FailurePlan> {
    proptest::collection::vec(0.001..0.999f64, 0..max_kills).prop_map(move |fracs| {
        let mut pos: Vec<f64> = fracs.into_iter().map(|f| f * te).collect();
        pos.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pos.dedup_by(|a, b| *a - *b < 1.0);
        // dedup_by keeps the FIRST of a run when the closure mutates in
        // reverse order; enforce the ≥1 s gap explicitly to be safe.
        let mut cleaned: Vec<f64> = Vec::new();
        for p in pos {
            if cleaned.last().map(|&q| p - q >= 1.0).unwrap_or(true) && p < te {
                cleaned.push(p);
            }
        }
        FailurePlan { positions: cleaned }
    })
}

fn fixed_ctl(te: f64, x: u32) -> Controller {
    Controller::Fixed(FixedSchedule::new(
        &EquidistantSchedule::new(te, x).unwrap(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// wall = productive + checkpoint_time + rollback_loss + restart_time,
    /// exactly, for every plan and schedule.
    #[test]
    fn accounting_identity(
        te in 50.0..3_000.0f64,
        x in 1u32..40,
        c in 0.0..4.0f64,
        r in 0.0..4.0f64,
        seed in 0u64..1000,
    ) {
        let spec = TaskSimSpec { te, ckpt_cost: c, restart_cost: r };
        let plan = {
            let model = cloud_ckpt::trace::spec::FailureModel::for_priority(2);
            let mut rng = Xoshiro256StarStar::new(seed);
            model.sample_plan(te, &mut rng)
        };
        let mut ctl = fixed_ctl(te, x);
        let mut rng = Xoshiro256StarStar::new(seed);
        let out = simulate_task_with_plan(&spec, plan, None, &mut ctl, &mut rng);
        let parts = out.productive + out.checkpoint_time + out.rollback_loss + out.restart_time;
        prop_assert!((out.wall - parts).abs() < 1e-6, "wall {} vs parts {}", out.wall, parts);
        prop_assert!(out.wpr() > 0.0 && out.wpr() <= 1.0);
        prop_assert_eq!(out.productive, te);
    }

    /// Every planned kill strikes exactly once (kills live in busy time
    /// inside (0, te), and total busy time always exceeds te).
    #[test]
    fn kill_plan_replayed_exactly(
        te in 50.0..2_000.0f64,
        x in 1u32..30,
        plan in (100.0..2_000.0f64).prop_flat_map(|te| kill_plan(te, 10).prop_map(move |p| (te, p))),
    ) {
        let (plan_te, plan) = plan;
        let te = te.max(plan_te); // ensure kills fit within this task
        let expected = plan.positions.len() as u32;
        let spec = TaskSimSpec { te, ckpt_cost: 0.5, restart_cost: 0.5 };
        let mut ctl = fixed_ctl(te, x);
        let mut rng = Xoshiro256StarStar::new(1);
        let out = simulate_task_with_plan(&spec, plan, None, &mut ctl, &mut rng);
        prop_assert_eq!(out.failures, expected);
        prop_assert_eq!(out.aborted_checkpoints <= out.failures, true);
    }

    /// Rollback loss per failure is bounded by one segment plus the
    /// checkpoint write time (with durable checkpoints in place).
    #[test]
    fn rollback_bounded_by_segment(
        te in 100.0..2_000.0f64,
        x in 2u32..40,
        seed in 0u64..500,
    ) {
        let spec = TaskSimSpec { te, ckpt_cost: 0.3, restart_cost: 0.2 };
        let model = cloud_ckpt::trace::spec::FailureModel::for_priority(10);
        let mut ctl = fixed_ctl(te, x);
        let mut rng = Xoshiro256StarStar::new(seed);
        let plan = model.sample_plan(te, &mut rng);
        let failures = plan.count();
        let mut rng2 = Xoshiro256StarStar::new(seed);
        let out = simulate_task_with_plan(&spec, plan, None, &mut ctl, &mut rng2);
        let seg = te / x as f64;
        let bound = failures as f64 * (seg + spec.ckpt_cost) + 1e-6;
        prop_assert!(out.rollback_loss <= bound, "loss {} > bound {bound}", out.rollback_loss);
    }

    /// More checkpoints can only reduce the total rollback loss (weakly)
    /// for the same kill plan when checkpoints are free.
    #[test]
    fn free_checkpoints_weakly_reduce_rollback(
        te in 100.0..2_000.0f64,
        seed in 0u64..500,
    ) {
        let model = cloud_ckpt::trace::spec::FailureModel::for_priority(10);
        let run = |x: u32| {
            let spec = TaskSimSpec { te, ckpt_cost: 0.0, restart_cost: 0.0 };
            let mut ctl = fixed_ctl(te, x);
            let mut rng = Xoshiro256StarStar::new(seed);
            simulate_task(&spec, model, &mut ctl, &mut rng)
        };
        fn simulate_task(
            spec: &TaskSimSpec,
            model: cloud_ckpt::trace::spec::FailureModel,
            ctl: &mut Controller,
            rng: &mut Xoshiro256StarStar,
        ) -> cloud_ckpt::sim::task_sim::TaskOutcome {
            let plan = model.sample_plan(spec.te, rng);
            let mut rng2 = Xoshiro256StarStar::new(7);
            simulate_task_with_plan(spec, plan, None, ctl, &mut rng2)
        }
        let sparse = run(2);
        let dense = run(16);
        // With C = 0 the fine schedule can only lose less work per kill.
        prop_assert!(dense.rollback_loss <= sparse.rollback_loss + 1e-6,
            "dense {} vs sparse {}", dense.rollback_loss, sparse.rollback_loss);
    }

    /// Same stream ⇒ identical outcome (full determinism of the executor).
    #[test]
    fn executor_deterministic(
        te in 50.0..1_000.0f64,
        x in 1u32..20,
        seed in 0u64..300,
    ) {
        let spec = TaskSimSpec { te, ckpt_cost: 0.4, restart_cost: 0.7 };
        let model = cloud_ckpt::trace::spec::FailureModel::for_priority(1);
        let run = || {
            let mut ctl = fixed_ctl(te, x);
            let mut rng = Xoshiro256StarStar::new(seed);
            let plan = model.sample_plan(te, &mut rng);
            simulate_task_with_plan(&spec, plan, None, &mut ctl, &mut rng)
        };
        prop_assert_eq!(run(), run());
    }
}

/// FNV-1a 64 over every field of every outcome, floats as IEEE bit
/// patterns — so a one-ulp drift anywhere in the executor changes it.
fn outcome_digest(outcomes: &[TaskOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for o in outcomes {
        for v in [
            o.wall,
            o.productive,
            o.rollback_loss,
            o.checkpoint_time,
            o.restart_time,
        ] {
            eat(v.to_bits());
        }
        for n in [o.failures, o.checkpoints, o.aborted_checkpoints] {
            eat(n as u64);
        }
        eat(o.flipped as u64);
    }
    h
}

/// Kill plans that land exactly on the executor's ties under
/// `fixed(te, x)` with write cost `c`: the busy time at which a milestone
/// is reached (`tf == run_needed`) and at which its write completes
/// (`tf == ckpt_cost`), each computed with the executor's own additions,
/// plus equal back-to-back kills and kills at busy time 0.
fn tie_plans(te: f64, x: u32, c: f64) -> Vec<Vec<f64>> {
    let w = te / x as f64;
    let (mut busy, mut live) = (0.0f64, 0.0f64);
    let (mut reached, mut written) = (Vec::new(), Vec::new());
    for i in 1..x {
        let p = i as f64 * w;
        busy += p - live;
        live = p;
        reached.push(busy);
        busy += c;
        written.push(busy);
    }
    let end = busy + (te - live);
    let mut plans = vec![vec![], vec![0.0], vec![0.0, 0.0], vec![end], vec![end, end]];
    if let (Some(&r1), Some(&w1)) = (reached.first(), written.first()) {
        let mid = reached.len() / 2;
        let (rm, rl) = (reached[mid], reached[reached.len() - 1]);
        plans.extend([
            vec![r1],
            vec![w1],
            vec![r1, r1],
            vec![w1, w1],
            vec![rm, rm, rm],
            vec![written[mid], written[mid]],
            vec![rl],
            vec![r1, w1, rm],
        ]);
    }
    plans
}

/// The executor's exact ties and degenerate inputs, pinned by one digest
/// over every `TaskOutcome` field: kills landing exactly on a milestone
/// and exactly on a write's completion, equal back-to-back kills,
/// `ckpt_cost = 0`, `restart_cost = 0`, `x = 1`, thousands of intervals
/// on a short task, fixed, checkpoint-free and adaptive (Algorithm 1,
/// adaptive and static) controllers, and priority flips that tie with a
/// checkpoint position, fire at progress 0 or at `te`, or leave the
/// controller uninformed. The randomized properties above keep kills
/// ≥ 1 s apart, so none of these ties occur there.
#[test]
fn executor_ties_and_edge_cases_are_pinned() {
    let shapes: [(f64, u32); 6] = [
        (100.0, 4),
        (100.0, 1),
        (7.3, 3),
        (0.3, 3),
        (1.0, 5_000),
        (2.5, 2_000),
    ];
    let mut outcomes = Vec::new();
    for (te, x) in shapes {
        let w = te / x as f64;
        let flips = [
            None,
            Some((w, 10, Some(12.0))),
            Some((te / 2.0, 12, Some(0.2))),
            Some((0.0, 10, None)),
            Some((te, 2, Some(3.0))),
        ];
        for c in [0.0, 0.5, 2.0] {
            for r in [0.0, 1.5] {
                let spec = TaskSimSpec {
                    te,
                    ckpt_cost: c,
                    restart_cost: r,
                };
                for plan in tie_plans(te, x, c) {
                    for kind in 0..4 {
                        for flip in flips {
                            let belief = if c > 0.0 { c } else { 0.1 };
                            let mut ctl = match kind {
                                0 => fixed_ctl(te, x),
                                1 => Controller::Fixed(FixedSchedule::none()),
                                2 => Controller::Adaptive(
                                    AdaptiveCheckpointer::new(te, belief, 3.0).unwrap(),
                                ),
                                _ => Controller::Adaptive(
                                    AdaptiveCheckpointer::new_static(te, belief, 3.0).unwrap(),
                                ),
                            };
                            let flip =
                                flip.map(|(at_progress, new_priority, new_mnof_full)| ExecFlip {
                                    at_progress,
                                    new_priority,
                                    model: FailureModelSpec::Exponential,
                                    new_mnof_full,
                                });
                            let mut rng = Xoshiro256StarStar::new(outcomes.len() as u64);
                            let plan = FailurePlan {
                                positions: plan.clone(),
                            };
                            outcomes.push(simulate_task_with_plan(
                                &spec, plan, flip, &mut ctl, &mut rng,
                            ));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(outcomes.len(), 8_400);
    assert_eq!(outcome_digest(&outcomes), 0xb024_16b9_361b_04b1);

    // The ties are real: under fixed(100, 4) with C = 2 the first
    // milestone is reached at busy 25 and its write completes at 27.
    let spec = TaskSimSpec {
        te: 100.0,
        ckpt_cost: 2.0,
        restart_cost: 0.0,
    };
    let run = |kill: f64| {
        let plan = FailurePlan {
            positions: vec![kill],
        };
        let mut rng = Xoshiro256StarStar::new(0);
        simulate_task_with_plan(&spec, plan, None, &mut fixed_ctl(100.0, 4), &mut rng)
    };
    let at_milestone = run(25.0);
    assert_eq!(at_milestone.aborted_checkpoints, 1);
    assert_eq!(at_milestone.rollback_loss, 25.0);
    let at_write_end = run(27.0);
    assert_eq!(at_write_end.aborted_checkpoints, 0);
    assert_eq!(at_write_end.rollback_loss, 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The fixed schedule's cursor agrees with the materialized positions:
    /// after any sequence of checkpoints completing at the next position,
    /// rollbacks to durable progress, and rollbacks to an earlier point
    /// (seek's backward reset), the next checkpoint is the first of
    /// `EquidistantSchedule::positions()` strictly above durable.
    #[test]
    fn fixed_schedule_cursor_matches_materialized_positions(
        te in 0.2..5_000.0f64,
        x in 1u32..300,
        ops in proptest::collection::vec(0u32..100, 0..400),
    ) {
        let schedule = EquidistantSchedule::new(te, x).unwrap();
        let positions = schedule.positions();
        let mut ctl = Controller::Fixed(FixedSchedule::new(&schedule));
        let mut durable = 0.0f64;
        for op in ops {
            if op < 70 {
                if let Some(p) = ctl.next_checkpoint() {
                    durable = p;
                    ctl.on_checkpoint_complete(p);
                }
            } else if op < 85 {
                ctl.on_rollback(durable);
            } else {
                // Back to an earlier point: 0, an earlier position, or
                // somewhere inside an earlier segment.
                let behind = positions.partition_point(|&q| q <= durable);
                durable = match op % 3 {
                    0 => 0.0,
                    1 if behind > 0 => positions[op as usize % behind],
                    _ => durable * (op - 85) as f64 / 15.0,
                };
                ctl.on_rollback(durable);
            }
            let expected = positions.iter().copied().find(|&q| q > durable);
            prop_assert_eq!(ctl.next_checkpoint(), expected);
        }
    }
}
