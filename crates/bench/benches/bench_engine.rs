//! Criterion benches of the DES substrate: event-queue throughput,
//! processor-sharing server churn, and single-task execution.

use ckpt_policy::schedule::EquidistantSchedule;
use ckpt_sim::controller::{Controller, FixedSchedule};
use ckpt_sim::event::FastQueue;
use ckpt_sim::storage::{OpId, PsResource};
use ckpt_sim::task_sim::{simulate_task, TaskSimSpec};
use ckpt_sim::time::SimTime;
use ckpt_stats::rng::Xoshiro256StarStar;
use ckpt_trace::spec::FailureModel;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500))
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = FastQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime((i * 7919) % 100_000), SimTime::ZERO, i);
            }
            let mut acc = 0u64;
            while let Some((_, _, p)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            acc
        })
    });
    g.finish();
}

fn bench_ps_server(c: &mut Criterion) {
    c.benchmark_group("ps_server")
        .bench_function("churn_1000_ops", |b| {
            b.iter(|| {
                let mut ps = PsResource::new(1.0);
                let mut now = SimTime::ZERO;
                let mut next_op = 0u64;
                // Keep ~8 ops in flight, completing the earliest each round.
                for _ in 0..1000 {
                    while ps.active() < 8 {
                        ps.add(now, OpId(next_op), 1.0 + (next_op % 5) as f64 * 0.3);
                        next_op += 1;
                    }
                    let (op, when) = ps.next_completion(now).unwrap();
                    ps.remove(when, op);
                    now = when;
                }
                now
            })
        });
}

fn bench_task_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("task_sim");
    let spec = TaskSimSpec {
        te: 600.0,
        ckpt_cost: 0.5,
        restart_cost: 1.0,
    };
    g.bench_function("quiet_priority12_task", |b| {
        let model = FailureModel::for_priority(12);
        b.iter(|| {
            let mut ctl = Controller::Fixed(FixedSchedule::new(
                &EquidistantSchedule::new(600.0, 12).unwrap(),
            ));
            let mut rng = Xoshiro256StarStar::new(black_box(3));
            simulate_task(&spec, model, None, &mut ctl, &mut rng).wall
        })
    });
    g.bench_function("heavy_priority10_task", |b| {
        let model = FailureModel::for_priority(10);
        b.iter(|| {
            let mut ctl = Controller::Fixed(FixedSchedule::new(
                &EquidistantSchedule::new(600.0, 40).unwrap(),
            ));
            let mut rng = Xoshiro256StarStar::new(black_box(3));
            simulate_task(&spec, model, None, &mut ctl, &mut rng).wall
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_event_queue, bench_ps_server, bench_task_sim
}
criterion_main!(benches);
