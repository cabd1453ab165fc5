//! One identity encoder for scenarios and sweeps: what a cached replay or
//! a stored cell depends on, written as words.
//!
//! Three scopes cover a [`ScenarioSpec`]:
//!
//! * **prep** — the inputs of trace preparation (generation, kill-plan
//!   arena, failure histories, estimates): seed, job count, trace file,
//!   workload tweaks and the failure model;
//! * **run** — prep plus everything a replay or an analytic engine reads:
//!   engine, policy, estimator, adaptivity, storage, cost tweaks, metrics
//!   mode, cluster, shards, device, memory, checkpoint count, degree and
//!   repetitions. Cells with equal run identities share one replay;
//! * **sweep** — run plus the scenario name and the aggregation filters
//!   (`sample`, `structure`, `priority`, `max_task_length`), which shape
//!   output bytes but never the replay. A sweep's identity is its name,
//!   its base scenario in this scope, and its axes.
//!
//! The encoder writes fields as fixed-width `u64` words in one fixed
//! order: the prep fields, then the run fields, then the sweep fields, so
//! each scope is a prefix of the next. Floats are written as their bits,
//! enums as explicit tags, an optional value as a 0/1 tag before it (an
//! optional or wrapped small integer or enum as one word: 0 for none, else
//! 1 + its value or tag), and text as its byte length followed by the
//! bytes packed eight to a word. Every struct is destructured without
//! `..`, so a new field does not compile until it is placed in a scope.
//!
//! The words go to a [`WordSink`]. The executor's caches collect them into
//! a [`key`] and compare keys word for word; the checkpoint store hashes
//! the same words through [`WordHasher`]. A change to the order or to an
//! encoding changes every stored digest, so it must come with a new
//! `ckpt_store::FORMAT_VERSION` and re-recorded pins: this module's tests
//! and `tests/identity_pins.rs` pin digests that any such change moves.

use crate::parse::Value;
use crate::spec::{EngineKind, MetricsChoice, SampleFilter, ScenarioSpec, WorkloadTweaks};
use crate::sweep::{Axis, SweepSpec};
use ckpt_policy::PolicyKind;
use ckpt_sim::blcr::Device;
use ckpt_sim::cluster::ClusterConfig;
use ckpt_sim::policy::{CostTweak, EstimatorKind, StorageChoice};
use ckpt_stats::rng::SplitMix64;
use ckpt_trace::failure::FailureKind;
use ckpt_trace::gen::JobStructure;

/// Which fields of a scenario an identity covers (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Trace preparation inputs.
    Prep,
    /// Prep plus the replay and analytic-engine inputs.
    Run,
    /// Run plus the name and the aggregation filters.
    Sweep,
}

/// Where the encoder writes its words, with the encodings of the value
/// shapes built on the one required method.
pub trait WordSink {
    /// Take the next word.
    fn word(&mut self, w: u64);

    /// A float, as its bits.
    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// A count or size.
    fn count(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// Bytes: their length, then the bytes packed little-endian eight to a
    /// word, the last word zero-padded.
    fn bytes(&mut self, b: &[u8]) {
        self.count(b.len());
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// Text, as its UTF-8 bytes.
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// An enum variant: its tag, then its float fields.
    fn tagged(&mut self, tag: u64, floats: &[f64]) {
        self.word(tag);
        for &v in floats {
            self.float(v);
        }
    }

    /// An optional float: tag 0, or tag 1 and the float.
    fn opt_float(&mut self, v: Option<f64>) {
        match v {
            None => self.tagged(0, &[]),
            Some(v) => self.tagged(1, &[v]),
        }
    }
}

impl WordSink for Vec<u64> {
    fn word(&mut self, w: u64) {
        self.push(w);
    }
}

/// A word-at-a-time 64-bit hash for the store's digests. Each word is
/// xored into the state, which is then multiplied by an odd constant and
/// rotated (the FNV-1a shape over whole words; the rotation carries high
/// bits down), and [`WordHasher::finish`] applies the SplitMix64
/// finalizer. Every step is a bijection of the state for a fixed word, so
/// two sequences of equal length that differ in one word never collide.
#[derive(Debug, Clone)]
pub struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl WordHasher {
    /// The digest of the words written so far.
    pub fn finish(&self) -> u64 {
        SplitMix64::mix(self.0)
    }
}

impl WordSink for WordHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(27);
    }
}

/// The words of `spec`'s identity in `scope`: an exact cache key.
pub fn key(spec: &ScenarioSpec, scope: Scope) -> Vec<u64> {
    let mut words = Vec::with_capacity(64);
    scenario(spec, scope, &mut words);
    words
}

/// The hash of `spec`'s run identity.
pub fn run_digest(spec: &ScenarioSpec) -> u64 {
    let mut h = WordHasher::default();
    scenario(spec, Scope::Run, &mut h);
    h.finish()
}

/// The 16 lowercase hex digits of `digest`: how a run digest is rendered
/// as a run key, in text and inside the record digest.
pub fn hex_digits(digest: u64) -> [u8; 16] {
    std::array::from_fn(|i| b"0123456789abcdef"[(digest >> (60 - 4 * i)) as usize & 0xf])
}

/// Write `spec`'s identity in `scope` to `out`.
pub fn scenario(spec: &ScenarioSpec, scope: Scope, out: &mut impl WordSink) {
    let ScenarioSpec {
        name,
        engine,
        seed,
        jobs,
        trace_file,
        workload,
        failure_model,
        failure_shape,
        failure_scale,
        policy,
        estimator,
        adaptive,
        storage,
        cost,
        metrics,
        sample,
        structure,
        priority,
        max_task_length,
        cluster,
        shards,
        device,
        mem_mb,
        n_checkpoints,
        degree,
        reps,
    } = spec;

    // Prep: what trace preparation reads.
    out.word(*seed);
    out.count(*jobs);
    out.word(u64::from(trace_file.is_some()));
    if let Some(path) = trace_file {
        out.text(path);
    }
    workload_tweaks(workload, out);
    out.word(match failure_model {
        FailureKind::Exponential => 0,
        FailureKind::Weibull => 1,
        FailureKind::LogNormal => 2,
        FailureKind::Pareto => 3,
        FailureKind::TraceReplay => 4,
    });
    out.opt_float(*failure_shape);
    out.float(*failure_scale);
    if scope == Scope::Prep {
        return;
    }

    // Run: what a replay or an analytic engine reads besides the prepared
    // trace.
    out.word(match engine {
        EngineKind::Fast => 0,
        EngineKind::Cluster => 1,
        EngineKind::CkptCost => 2,
        EngineKind::Contention => 3,
    });
    out.word(match policy {
        PolicyKind::Formula3 => 0,
        PolicyKind::Young => 1,
        PolicyKind::Daly => 2,
        PolicyKind::None => 3,
    });
    match *estimator {
        EstimatorKind::Oracle => out.tagged(0, &[]),
        EstimatorKind::PerPriority { limit } => out.tagged(1, &[limit]),
        EstimatorKind::Global { limit } => out.tagged(2, &[limit]),
    }
    out.word(u64::from(*adaptive));
    out.word(match *storage {
        StorageChoice::Auto => 0,
        StorageChoice::Force(d) => 1 + device_tag(d),
    });
    cost_tweak(cost, out);
    // Streaming cells produce stream-shaped run data, so the aggregation
    // mode is replay identity (unlike the record filters below).
    out.word(match metrics {
        MetricsChoice::Full => 0,
        MetricsChoice::Streaming => 1,
    });
    cluster_config(cluster, out);
    // Sharding changes the simulation (shard-local scheduling and
    // per-shard RNG streams).
    out.count(*shards);
    out.word(device_tag(*device));
    out.float(*mem_mb);
    out.word(u64::from(*n_checkpoints));
    out.count(*degree);
    out.count(*reps);
    if scope == Scope::Run {
        return;
    }

    // Sweep: what shapes output bytes without changing the replay.
    out.text(name);
    match *sample {
        SampleFilter::All => out.tagged(0, &[]),
        SampleFilter::FailureProne { fraction } => out.tagged(1, &[fraction]),
    }
    out.word(match structure {
        None => 0,
        Some(JobStructure::Sequential) => 1,
        Some(JobStructure::BagOfTasks) => 2,
    });
    out.word(priority.map_or(0, |p| 1 + u64::from(p)));
    out.opt_float(*max_task_length);
}

/// Write a sweep's identity to `out`: its name, its base scenario in the
/// sweep scope, and its axes. The thread count is not identity: results
/// never depend on it, and a resume at another `--threads` must be able
/// to fill in the same store.
pub fn sweep(sweep: &SweepSpec, out: &mut impl WordSink) {
    let SweepSpec {
        name,
        base,
        axes,
        threads: _,
    } = sweep;
    out.text(name);
    scenario(base, Scope::Sweep, out);
    out.count(axes.len());
    for Axis { param, values } in axes {
        out.text(param);
        out.count(values.len());
        for v in values {
            value(v, out);
        }
    }
}

/// Write a cell's rendered axis params to `out`.
pub fn params(params: &[(String, String)], out: &mut impl WordSink) {
    out.count(params.len());
    for (k, v) in params {
        out.text(k);
        out.text(v);
    }
}

fn value(v: &Value, out: &mut impl WordSink) {
    match v {
        Value::Str(s) => {
            out.word(0);
            out.text(s);
        }
        Value::Num(x) => out.tagged(1, &[*x]),
        Value::Bool(b) => {
            out.word(2);
            out.word(u64::from(*b));
        }
        Value::Array(xs) => {
            out.word(3);
            out.count(xs.len());
            for x in xs {
                value(x, out);
            }
        }
        Value::Table(t) => {
            out.word(4);
            out.count(t.len());
            for (k, x) in t {
                out.text(k);
                value(x, out);
            }
        }
    }
}

fn workload_tweaks(w: &WorkloadTweaks, out: &mut impl WordSink) {
    let WorkloadTweaks {
        length_median_s,
        length_spread,
        bot_fraction,
        long_task_fraction,
        mean_interarrival_s,
        mem_median_mb,
        flips,
    } = w;
    for v in [
        length_median_s,
        length_spread,
        bot_fraction,
        long_task_fraction,
        mean_interarrival_s,
        mem_median_mb,
    ] {
        out.opt_float(*v);
    }
    out.word(u64::from(*flips));
}

fn cost_tweak(c: &CostTweak, out: &mut impl WordSink) {
    let CostTweak {
        ckpt_scale,
        restart_scale,
        ckpt_override,
        restart_override,
    } = c;
    out.float(*ckpt_scale);
    out.float(*restart_scale);
    out.opt_float(*ckpt_override);
    out.opt_float(*restart_override);
}

fn cluster_config(c: &ClusterConfig, out: &mut impl WordSink) {
    let ClusterConfig {
        n_hosts,
        vms_per_host,
        host_mem_mb,
        storage_rate,
        host_mtbf_s,
        failure_model: _,
    } = c;
    out.count(*n_hosts);
    out.count(*vms_per_host);
    out.float(*host_mem_mb);
    out.float(*storage_rate);
    out.opt_float(*host_mtbf_s);
    // The executor replaces this model with the scenario's own before
    // every cluster replay, so it never reaches a result, and writing it
    // would split the cache between cells that compute the same thing.
    // The scenario's model is identity already, through the prep words.
    // The word stays the `Exponential` tag, 0, that every spec has written
    // here (no spec key sets the field), so no stored digest moves.
    out.tagged(0, &[]);
}

fn device_tag(d: Device) -> u64 {
    match d {
        Device::Ramdisk => 0,
        Device::CentralNfs => 1,
        Device::DmNfs => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_trace::failure::FailureModelSpec;
    use std::collections::HashSet;

    type Mutation = (&'static str, fn(&mut ScenarioSpec));

    /// One change to each field that prep reads.
    const PREP: &[Mutation] = &[
        ("seed", |s| s.seed += 1),
        ("jobs", |s| s.jobs += 1),
        ("trace_file", |s| s.trace_file = Some("t.csv".into())),
        ("length_median_s", |s| {
            s.workload.length_median_s = Some(100.0)
        }),
        ("length_spread", |s| s.workload.length_spread = Some(2.0)),
        ("bot_fraction", |s| s.workload.bot_fraction = Some(0.3)),
        ("long_task_fraction", |s| {
            s.workload.long_task_fraction = Some(0.1)
        }),
        ("mean_interarrival_s", |s| {
            s.workload.mean_interarrival_s = Some(5.0)
        }),
        ("mem_median_mb", |s| s.workload.mem_median_mb = Some(64.0)),
        ("flips", |s| s.workload.flips = true),
        ("failure_model", |s| s.failure_model = FailureKind::Weibull),
        ("failure_shape", |s| s.failure_shape = Some(0.7)),
        ("failure_scale", |s| s.failure_scale = 2.0),
    ];

    /// One change to each simulation field that prep does not read.
    const RUN_ONLY: &[Mutation] = &[
        ("engine", |s| s.engine = EngineKind::Cluster),
        ("policy", |s| s.policy = PolicyKind::Young),
        ("estimator kind", |s| {
            s.estimator = EstimatorKind::Global {
                limit: f64::INFINITY,
            }
        }),
        ("estimator limit", |s| {
            s.estimator = EstimatorKind::PerPriority { limit: 1000.0 }
        }),
        ("oracle estimator", |s| s.estimator = EstimatorKind::Oracle),
        ("adaptive", |s| s.adaptive = true),
        ("storage", |s| {
            s.storage = StorageChoice::Force(Device::Ramdisk)
        }),
        ("ckpt_cost_scale", |s| s.cost.ckpt_scale = 2.0),
        ("restart_cost_scale", |s| s.cost.restart_scale = 2.0),
        ("ckpt_cost", |s| s.cost.ckpt_override = Some(3.0)),
        ("restart_cost", |s| s.cost.restart_override = Some(3.0)),
        ("metrics", |s| s.metrics = MetricsChoice::Streaming),
        ("n_hosts", |s| s.cluster.n_hosts = 64),
        ("vms_per_host", |s| s.cluster.vms_per_host = 4),
        ("host_mem_mb", |s| s.cluster.host_mem_mb = 4096.0),
        ("storage_rate", |s| s.cluster.storage_rate = 2.0),
        ("host_mtbf_s", |s| s.cluster.host_mtbf_s = Some(3600.0)),
        ("shards", |s| s.shards = 2),
        ("device", |s| s.device = Device::CentralNfs),
        ("mem_mb", |s| s.mem_mb = 320.0),
        ("n_checkpoints", |s| s.n_checkpoints = 2),
        ("degree", |s| s.degree = 2),
        ("reps", |s| s.reps = 26),
    ];

    /// One change to each field that no result reads: the executor
    /// overwrites the cluster failure model with the scenario's own.
    const IGNORED: &[Mutation] = &[("cluster failure_model", |s| {
        s.cluster.failure_model = FailureModelSpec::Weibull {
            shape: 0.7,
            scale: 1.0,
        }
    })];

    /// One change to each field that shapes output but not the replay.
    const FILTERS: &[Mutation] = &[
        ("name", |s| s.name = "other".into()),
        ("sample all", |s| s.sample = SampleFilter::All),
        ("sample fraction", |s| {
            s.sample = SampleFilter::FailureProne { fraction: 0.3 }
        }),
        ("structure", |s| {
            s.structure = Some(JobStructure::BagOfTasks)
        }),
        ("priority", |s| s.priority = Some(3)),
        ("max_task_length", |s| s.max_task_length = Some(1000.0)),
    ];

    #[test]
    fn every_field_lands_in_its_scope() {
        let base = ScenarioSpec::new("base");
        // Fails to compile when a field is added, until it gets a mutation
        // in one of the lists above.
        let ScenarioSpec {
            name: _,
            engine: _,
            seed: _,
            jobs: _,
            trace_file: _,
            workload: _,
            failure_model: _,
            failure_shape: _,
            failure_scale: _,
            policy: _,
            estimator: _,
            adaptive: _,
            storage: _,
            cost: _,
            metrics: _,
            sample: _,
            structure: _,
            priority: _,
            max_task_length: _,
            cluster: _,
            shards: _,
            device: _,
            mem_mb: _,
            n_checkpoints: _,
            degree: _,
            reps: _,
        } = &base;
        let mut run_keys = HashSet::from([key(&base, Scope::Run)]);
        let mut sweep_keys = HashSet::from([key(&base, Scope::Sweep)]);
        for (group, list) in [("prep", PREP), ("run", RUN_ONLY), ("filter", FILTERS)] {
            for (field, mutate) in list {
                let mut spec = base.clone();
                mutate(&mut spec);
                assert_ne!(spec, base, "{field}: the mutation changes nothing");
                let changed = |scope| key(&spec, scope) != key(&base, scope);
                assert_eq!(changed(Scope::Prep), group == "prep", "{field}: prep");
                assert_eq!(changed(Scope::Run), group != "filter", "{field}: run");
                assert_eq!(
                    run_digest(&spec) != run_digest(&base),
                    group != "filter",
                    "{field}: run digest"
                );
                // Every change is a distinct sweep identity, and every
                // simulation change a distinct run identity.
                assert!(sweep_keys.insert(key(&spec, Scope::Sweep)), "{field}");
                if group != "filter" {
                    assert!(run_keys.insert(key(&spec, Scope::Run)), "{field}");
                }
            }
        }
        for (field, mutate) in IGNORED {
            let mut spec = base.clone();
            mutate(&mut spec);
            assert_ne!(spec, base, "{field}: the mutation changes nothing");
            for scope in [Scope::Prep, Scope::Run, Scope::Sweep] {
                assert_eq!(key(&spec, scope), key(&base, scope), "{field}: {scope:?}");
            }
            assert_eq!(run_digest(&spec), run_digest(&base), "{field}: run digest");
        }
    }

    /// The encoding itself, on a scenario whose fields all hold distinct,
    /// non-default values: a reordered field, a changed tag or a changed
    /// hash step moves these digests. (The specs in `specs/` leave most
    /// fields at their defaults, where two swapped fields can write the
    /// same words.)
    #[test]
    fn the_encoding_of_every_field_is_pinned() {
        let mut s = ScenarioSpec::new("pinned");
        s.engine = EngineKind::Contention;
        s.seed = 11;
        s.jobs = 12;
        s.trace_file = Some("trace.csv".into());
        s.workload = WorkloadTweaks {
            length_median_s: Some(13.0),
            length_spread: Some(14.0),
            bot_fraction: Some(0.15),
            long_task_fraction: Some(0.16),
            mean_interarrival_s: Some(17.0),
            mem_median_mb: Some(18.0),
            flips: true,
        };
        s.failure_model = FailureKind::Weibull;
        s.failure_shape = Some(0.19);
        s.failure_scale = 2.0;
        s.policy = PolicyKind::Daly;
        s.estimator = EstimatorKind::Global { limit: 21.0 };
        s.adaptive = true;
        s.storage = StorageChoice::Force(Device::DmNfs);
        s.cost = CostTweak {
            ckpt_scale: 2.2,
            restart_scale: 2.3,
            ckpt_override: Some(2.4),
            restart_override: Some(2.5),
        };
        s.metrics = MetricsChoice::Streaming;
        s.sample = SampleFilter::FailureProne { fraction: 0.26 };
        s.structure = Some(JobStructure::Sequential);
        s.priority = Some(7);
        s.max_task_length = Some(28.0);
        s.cluster = ClusterConfig {
            n_hosts: 29,
            vms_per_host: 3,
            host_mem_mb: 31.0,
            storage_rate: 3.2,
            host_mtbf_s: Some(33.0),
            failure_model: FailureModelSpec::Pareto {
                shape: 3.4,
                scale: 3.5,
            },
        };
        s.shards = 6;
        s.device = Device::CentralNfs;
        s.mem_mb = 37.0;
        s.n_checkpoints = 38;
        s.degree = 39;
        s.reps = 40;
        let mut h = WordHasher::default();
        scenario(&s, Scope::Sweep, &mut h);
        assert_eq!(
            (key(&s, Scope::Sweep).len(), run_digest(&s), h.finish()),
            (57, 0x88c6_80c8_b4dd_e47d, 0x1e19_b623_0291_69bd)
        );
    }

    #[test]
    fn scopes_nest_as_prefixes() {
        let spec = ScenarioSpec::new("nest");
        let (prep, run, sweep) = (
            key(&spec, Scope::Prep),
            key(&spec, Scope::Run),
            key(&spec, Scope::Sweep),
        );
        assert!(run.starts_with(&prep) && sweep.starts_with(&run));
        assert!(prep.len() < run.len() && run.len() < sweep.len());
    }

    #[test]
    fn text_packs_bytes_behind_their_length() {
        let mut words = Vec::new();
        words.text("abcdefghi");
        assert_eq!(
            words,
            vec![
                9,
                u64::from_le_bytes(*b"abcdefgh"),
                u64::from_le_bytes(*b"i\0\0\0\0\0\0\0")
            ]
        );
        // The length prefix keeps a shifted boundary distinct.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        a.text("ab");
        a.text("c");
        b.text("a");
        b.text("bc");
        assert_ne!(a, b);
    }
}
