//! Output checks. Every check is one attempt; a failed check is one
//! failure. `failed / attempted` is the run's `failed_frac`, and any
//! failure makes the benchmark exit non-zero.

use crate::workload::{Export, Rep};
use ckpt_obs::{Counter, Counters};
use ckpt_scenario::SweepResult;

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let outcome = if got == want {
            Ok(())
        } else {
            Err(format!("got {got:?}, expected {want:?}"))
        };
        self.record(what, outcome);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// What every repetition must show, besides its own consistency: the grid
/// size, and for cluster cells the job count every cell must complete.
pub struct Expect {
    pub grid: usize,
    pub cluster_jobs: Option<usize>,
}

/// The sweep result is whole: every grid cell present and healthy, no cell
/// quarantined, every metric finite, and on the cluster engine every job
/// of the trace completed.
pub fn check_result(result: &SweepResult, expect: &Expect) -> Result<(), String> {
    if result.cells.len() != expect.grid {
        return Err(format!(
            "{} cells, grid has {}",
            result.cells.len(),
            expect.grid
        ));
    }
    if result.health.cells_quarantined != 0 {
        return Err(format!(
            "{} cells quarantined",
            result.health.cells_quarantined
        ));
    }
    for cell in &result.cells {
        if !cell.status.is_ok() {
            return Err(format!("cell {} failed: {:?}", cell.index, cell.status));
        }
        if let Some((name, _)) = cell.metrics.iter().find(|(_, m)| !m.mean.is_finite()) {
            return Err(format!("cell {} metric {name} is not finite", cell.index));
        }
        if let Some(jobs) = expect.cluster_jobs {
            let done = cell.metric("wpr")?.count;
            if done != jobs {
                return Err(format!(
                    "cell {}: {done} of {jobs} jobs completed",
                    cell.index
                ));
            }
        }
    }
    Ok(())
}

/// The checks of one repetition: a whole result, a resume that loaded
/// every cell and exported the same bytes, and the same export digest as
/// every other run of this invocation (`digest` holds the first one seen).
pub fn check_rep(rep: &Rep, expect: &Expect, digest: &mut Option<u64>, checks: &mut Checks) {
    checks.record("result", check_result(&rep.result, expect));
    checks.record("resume", check_resume(rep, expect.grid));
    checks.record("digest", check_digest(&rep.export, digest));
}

fn check_resume(rep: &Rep, grid: usize) -> Result<(), String> {
    if rep.loaded != grid || rep.evaluated_on_resume != 0 {
        return Err(format!(
            "resume loaded {} and evaluated {} of {grid} cells",
            rep.loaded, rep.evaluated_on_resume
        ));
    }
    if rep.resumed.csv != rep.export.csv || rep.resumed.json != rep.export.json {
        return Err("resumed export bytes differ from the sweep's".to_string());
    }
    Ok(())
}

pub fn check_digest(export: &Export, digest: &mut Option<u64>) -> Result<(), String> {
    let d = export.digest();
    match *digest {
        None => {
            *digest = Some(d);
            Ok(())
        }
        Some(first) if first == d => Ok(()),
        Some(first) => Err(format!(
            "export digest {d:016x} != first run's {first:016x}"
        )),
    }
}

/// Exact work counts of one sweep. The counters pass fills them from the
/// `Counters` observer; the traced run fills the same fields from its own
/// layer calls' outputs, and the two must agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    pub cells: u64,
    pub tasks: u64,
    pub kills: u64,
    pub checkpoints: u64,
    pub events: u64,
}

impl WorkCounts {
    pub fn from_counters(c: &Counters) -> WorkCounts {
        use ckpt_obs::Observer;
        WorkCounts {
            cells: c.get(Counter::CellsEvaluated),
            tasks: c.get(Counter::TasksReplayed),
            kills: c.get(Counter::TaskKills),
            checkpoints: c.get(Counter::CheckpointsWritten),
            events: c.get(Counter::EventsPopped),
        }
    }
}

fn flip_middle_byte(s: &str) -> String {
    let mut bytes = s.as_bytes().to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A named way to damage one repetition's outputs.
type Corruption = (&'static str, fn(&mut Rep));

/// One corruption per guarded output.
const CORRUPTIONS: [Corruption; 6] = [
    ("resumed CSV byte flipped", |r| {
        r.resumed.csv = flip_middle_byte(&r.resumed.csv)
    }),
    ("exported JSON byte flipped", |r| {
        r.export.json = flip_middle_byte(&r.export.json)
    }),
    ("cell dropped", |r| {
        r.result.cells.pop();
    }),
    ("cell quarantined", |r| {
        r.result.health.cells_quarantined = 1
    }),
    ("metric turned NaN", |r| {
        r.result.cells[0].metrics[0].1.mean = f64::NAN
    }),
    ("resume re-evaluated a cell", |r| r.evaluated_on_resume = 1),
];

/// Corrupt each output a check guards, one at a time, and confirm the
/// check catches it (and passes the clean output). Returns one line per
/// case; an `Err` names a corruption that slipped through.
pub fn self_test(rep: &Rep, expect: &Expect) -> Result<Vec<String>, String> {
    let mut clean = Checks::default();
    let mut digest = None;
    check_rep(rep, expect, &mut digest, &mut clean);
    check_rep(rep, expect, &mut digest, &mut clean);
    if clean.failed() != 0 {
        return Err(format!("clean output failed: {:?}", clean.failures));
    }
    let mut lines = vec![format!("clean output: {} checks pass", clean.attempted)];
    for (label, corrupt) in CORRUPTIONS {
        let mut bad = rep.clone();
        corrupt(&mut bad);
        let mut checks = Checks::default();
        check_rep(&bad, expect, &mut digest.clone(), &mut checks);
        if checks.failed() == 0 {
            return Err(format!("corruption not caught: {label}"));
        }
        lines.push(format!("{label}: caught ({})", checks.failures.join("; ")));
    }
    Ok(lines)
}
