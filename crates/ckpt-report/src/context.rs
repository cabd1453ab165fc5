//! The run context every experiment and sweep consumes: seed, scale,
//! thread budget, output sink — with strict environment resolution.

use crate::sink::Sink;
use ckpt_obs::Telemetry;
use std::sync::Arc;

/// Default seed used by every experiment (override with `CKPT_SEED` or
/// `--seed`): the paper's submission date.
pub const DEFAULT_SEED: u64 = 20130217;

/// Experiment scale, controlling trace sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: quick sanity run (a few hundred jobs).
    Quick,
    /// The paper's one-day experiment (~10k jobs).
    Day,
    /// The paper's month-scale analysis (large; used by Table 6 / Fig 9-10).
    Month,
    /// Stress tier: beyond the paper — the regimes of the restart/checkpoint
    /// asymptotics literature (very long tasks, high failure rates, large
    /// fleets) that only the high-throughput DES core can reach.
    Stress,
}

impl Scale {
    /// Number of jobs at this scale.
    pub fn jobs(&self) -> usize {
        match self {
            Scale::Quick => 800,
            Scale::Day => 10_000,
            Scale::Month => 100_000,
            Scale::Stress => 400_000,
        }
    }

    /// Lowercase label (`quick` / `day` / `month` / `stress`).
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Day => "day",
            Scale::Month => "month",
            Scale::Stress => "stress",
        }
    }

    /// Parse a scale name. Unknown values are an error naming the
    /// accepted set.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "quick" => Ok(Scale::Quick),
            "day" => Ok(Scale::Day),
            "month" => Ok(Scale::Month),
            "stress" => Ok(Scale::Stress),
            other => Err(format!(
                "unknown scale {other:?} (accepted values: quick, day, month, stress)"
            )),
        }
    }

    /// Resolve from the `CKPT_SCALE` environment variable, defaulting to
    /// `default` when unset. An unrecognized value is a hard error (it
    /// would otherwise silently run the wrong experiment size).
    pub fn from_env(default: Scale) -> Result<Scale, String> {
        match std::env::var("CKPT_SCALE") {
            Err(std::env::VarError::NotPresent) => Ok(default),
            Err(std::env::VarError::NotUnicode(_)) => Err("CKPT_SCALE: value is not valid UTF-8 \
                     (accepted values: quick, day, month, stress)"
                .to_string()),
            Ok(v) => Scale::parse(&v).map_err(|e| format!("CKPT_SCALE: {e}")),
        }
    }
}

/// Seed from `CKPT_SEED`, or [`DEFAULT_SEED`] when unset. A value that is
/// not a `u64` is a hard error.
pub fn seed_from_env() -> Result<u64, String> {
    match std::env::var("CKPT_SEED") {
        Err(std::env::VarError::NotPresent) => Ok(DEFAULT_SEED),
        Err(std::env::VarError::NotUnicode(_)) => Err(
            "CKPT_SEED: value is not valid UTF-8 (expected an unsigned 64-bit seed)".to_string(),
        ),
        Ok(v) => v
            .parse()
            .map_err(|_| format!("CKPT_SEED: cannot parse {v:?} as an unsigned 64-bit seed")),
    }
}

/// Centralized execution context: one value carries everything an
/// experiment or sweep needs to run and report.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Base RNG seed (experiments derive their streams from it).
    pub seed: u64,
    /// Workload scale.
    pub scale: Scale,
    /// Worker-thread budget for parallel replays; 0 ⇒ one per core.
    pub threads: usize,
    /// Where rendered frames go.
    pub sink: Sink,
    /// Telemetry bundle (counters, timers, optional progress heartbeats).
    /// `None` — the default — means instrumentation compiles to nothing
    /// in the engines and outputs are byte-identical to an
    /// uninstrumented build.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Cluster shard count override (`--shards`). `None` leaves whatever
    /// the spec says; `Some(s)` forces every cluster replay under this
    /// context to partition its host fleet into `s` shards. Results
    /// depend on the shard count (it is part of the replay identity),
    /// never on the thread count.
    pub shards: Option<usize>,
}

impl RunContext {
    /// A context at the given scale with the default seed, automatic
    /// thread count, and a stdout table sink.
    pub fn new(scale: Scale) -> Self {
        Self {
            seed: DEFAULT_SEED,
            scale,
            threads: 0,
            sink: Sink::table(),
            telemetry: None,
            shards: None,
        }
    }

    /// Resolve scale and seed from the environment (`CKPT_SCALE`,
    /// `CKPT_SEED`), starting from the experiment's default scale.
    /// Unrecognized values are hard errors.
    pub fn from_env(default_scale: Scale) -> Result<Self, String> {
        Ok(Self {
            seed: seed_from_env()?,
            scale: Scale::from_env(default_scale)?,
            threads: 0,
            sink: Sink::table(),
            telemetry: None,
            shards: None,
        })
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a telemetry bundle; sweeps and experiments running under
    /// this context will count into it (and heartbeat, if it carries a
    /// progress sink).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Override the cluster shard count for every cluster replay run
    /// under this context.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Derive an experiment-local seed: the shared base seed XOR a
    /// per-use salt (replaces the ad-hoc XOR constants the one-off
    /// binaries used to scatter).
    pub fn salted_seed(&self, salt: u64) -> u64 {
        self.seed ^ salt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_accepts_known_and_rejects_unknown() {
        assert_eq!(Scale::parse("quick").unwrap(), Scale::Quick);
        assert_eq!(Scale::parse("month").unwrap(), Scale::Month);
        let err = Scale::parse("huge").unwrap_err();
        assert!(err.contains("quick, day, month"), "{err}");
    }

    #[test]
    fn context_carries_overrides() {
        let ctx = RunContext::new(Scale::Quick).with_seed(7).with_threads(2);
        assert_eq!(ctx.seed, 7);
        assert_eq!(ctx.threads, 2);
        assert_eq!(ctx.salted_seed(0xFF), 7 ^ 0xFF);
    }

    #[test]
    fn scale_jobs_are_monotone() {
        assert!(Scale::Quick.jobs() < Scale::Day.jobs());
        assert!(Scale::Day.jobs() < Scale::Month.jobs());
        assert!(Scale::Month.jobs() < Scale::Stress.jobs());
    }

    #[test]
    fn stress_scale_parses_and_labels() {
        assert_eq!(Scale::parse("stress").unwrap(), Scale::Stress);
        assert_eq!(Scale::Stress.label(), "stress");
    }
}
