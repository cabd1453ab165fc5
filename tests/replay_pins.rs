//! Pinned bytes of the replay entries that take no kill-plan arena.
//!
//! `run_trace`, `run_trace_stream`, `trace_histories` and a
//! `ShardedClusterSim` without `with_plans` all replay the kill plans the
//! trace's per-task failure streams produce. The arena-vs-`run_trace`
//! differential tests show that two routes agree; these digests show that
//! the bytes themselves stay put, whichever route draws the plans.

use cloud_ckpt::sim::cluster::{ClusterConfig, ClusterRunResult};
use cloud_ckpt::sim::policy::{Estimates, PolicyConfig};
use cloud_ckpt::sim::runner::{run_trace, run_trace_stream, RunOptions};
use cloud_ckpt::sim::shard::ShardedClusterSim;
use cloud_ckpt::sim::JobRecord;
use cloud_ckpt::trace::gen::{generate, Trace};
use cloud_ckpt::trace::spec::WorkloadSpec;
use cloud_ckpt::trace::stats::{trace_histories, TaskRecord};

/// FNV-1a over 64-bit words, the shape the cluster golden digests use.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3);
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn bytes(&mut self, b: &[u8]) {
        for &byte in b {
            self.word(u64::from(byte));
        }
    }
}

fn records_digest(records: &[JobRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.word(r.job_id);
        h.word(u64::from(r.priority));
        h.float(r.total_work);
        h.float(r.total_wall);
        h.word(u64::from(r.failures));
        h.word(u64::from(r.checkpoints));
        h.float(r.rollback_loss);
        h.float(r.checkpoint_time);
        h.float(r.restart_time);
        h.float(r.max_task_length);
    }
    h.0
}

fn histories_digest(records: &[TaskRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.word(r.task_id);
        h.word(r.job_id);
        h.word(u64::from(r.history.priority));
        h.float(r.history.task_length);
        h.word(u64::from(r.history.failure_count));
        h.word(r.history.intervals.len() as u64);
        for &iv in &r.history.intervals {
            h.float(iv);
        }
    }
    h.0
}

fn cluster_digest(result: &ClusterRunResult) -> u64 {
    let mut h = Fnv::new();
    for j in &result.jobs {
        h.word(j.base.job_id);
        h.float(j.base.total_work);
        h.float(j.base.total_wall);
        h.word(u64::from(j.base.failures));
        h.word(u64::from(j.base.checkpoints));
        h.float(j.base.rollback_loss);
        h.float(j.base.checkpoint_time);
        h.float(j.base.restart_time);
        h.float(j.queue_wait);
        h.float(j.span);
    }
    for &d in &result.checkpoint_durations {
        h.float(d);
    }
    h.word(result.max_concurrent_checkpoints as u64);
    h.word(result.makespan.0);
    h.word(result.host_failures);
    h.word(result.events);
    h.0
}

fn world(spec: WorkloadSpec) -> (Trace, Vec<TaskRecord>, Estimates) {
    let trace = generate(&spec, 7).expect("valid workload spec");
    let records = trace_histories(&trace);
    let estimates = Estimates::from_records(&records);
    (trace, records, estimates)
}

const OPTIONS: RunOptions = RunOptions { threads: 2 };

#[test]
fn histories_and_fast_replays_are_pinned() {
    let (trace, records, est) = world(WorkloadSpec::google_like(600));
    assert_eq!(
        (records.len(), histories_digest(&records)),
        (2_538, 0x0d57_4c57_5f94_2f4e),
        "trace_histories drifted"
    );

    let cases = [
        ("formula3", PolicyConfig::formula3(), 0xde0c_7577_ef1f_e908),
        ("young", PolicyConfig::young(), 0x5c83_f437_f928_13e0),
        ("none", PolicyConfig::none(), 0x93f6_5bf2_e6fa_6616),
        (
            "adaptive formula3",
            PolicyConfig::formula3().with_adaptivity(true),
            0x2a81_53ff_1534_736f,
        ),
    ];
    for (name, cfg, expected) in cases {
        let got = records_digest(&run_trace(&trace, &est, &cfg, OPTIONS));
        assert_eq!(
            got, expected,
            "run_trace under {name} drifted (got {got:#x})"
        );
    }

    // The Debug rendering carries every accumulated bit of the fold.
    let stats = run_trace_stream(&trace, &est, &PolicyConfig::formula3(), OPTIONS, None);
    let mut h = Fnv::new();
    h.bytes(format!("{stats:?}").as_bytes());
    assert_eq!(
        h.0, 0x4610_999c_24ae_a040,
        "run_trace_stream drifted (got {:#x})",
        h.0
    );
}

/// A flip re-draws the remaining plan from the task's stream right after
/// the initial plan's draws, so this pins where that stream resumes.
#[test]
fn flip_trace_replay_is_pinned() {
    let (trace, _, est) = world(WorkloadSpec::google_like(600).with_priority_flips());
    let cfg = PolicyConfig::formula3().with_adaptivity(true);
    let got = records_digest(&run_trace(&trace, &est, &cfg, OPTIONS));
    assert_eq!(
        got, 0x78bc_1ef5_08fe_761b,
        "flip-trace run_trace drifted (got {got:#x})"
    );
}

#[test]
fn sharded_cluster_without_an_arena_is_pinned() {
    let (trace, _, est) = world(WorkloadSpec::google_like(600));
    for (shards, expected) in [
        (1usize, 0xced8_c906_11d3_f2ee_u64),
        (3, 0x6e9d_b1fc_067a_374b),
    ] {
        let result = ShardedClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
            shards,
        )
        .run()
        .expect("every task is placed");
        assert_eq!(result.tasks_done, trace.task_count());
        let got = cluster_digest(&result);
        assert_eq!(got, expected, "{shards} shard(s) drifted (got {got:#x})");
    }
}
