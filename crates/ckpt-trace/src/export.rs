//! Trace export/import: a flat CSV format so generated workloads can be
//! inspected, archived, or consumed by external tools, and external traces
//! (e.g. parsed from the real Google cluster data) can be replayed through
//! the simulator.
//!
//! Format: one row per task, job attributes repeated —
//! `job_id,arrival_s,priority,structure,flip_fraction,flip_priority,task_id,task_idx,length_s,mem_mb`
//! with a `# seed=<seed>` comment line carrying the RNG seed (so failure
//! streams reproduce). Task ids index the kill-plan arena
//! ([`crate::plan::FailurePlanArena`]), so a trace of `n` task rows must
//! number its tasks `0..n`, each id once — the numbering
//! [`crate::gen::generate`] produces — and [`read_csv`] rejects any other.

use crate::failure::FailureModelSpec;
use crate::gen::{JobSpec, JobStructure, PriorityFlip, TaskSpec, Trace};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Errors from trace I/O.
#[derive(Debug)]
pub enum ExportError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or numeric parse failure, with the offending line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        what: String,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "trace I/O error: {e}"),
            ExportError::Parse { line, what } => {
                write!(f, "trace parse error at line {line}: {what}")
            }
        }
    }
}

impl std::error::Error for ExportError {}

impl From<std::io::Error> for ExportError {
    fn from(e: std::io::Error) -> Self {
        ExportError::Io(e)
    }
}

const HEADER: &str = "job_id,arrival_s,priority,structure,flip_fraction,flip_priority,task_id,task_idx,length_s,mem_mb";

/// Write a trace as CSV.
pub fn write_csv<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), ExportError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# seed={}", trace.seed)?;
    // Non-default failure models are part of the replay contract; record
    // them so a re-imported trace replays the same kill plans. (Default
    // traces keep the historical two-line preamble byte-for-byte.)
    if !trace.failure_model.is_default() {
        writeln!(
            f,
            "# failure_model={}",
            trace.failure_model.render_compact()
        )?;
    }
    writeln!(f, "{HEADER}")?;
    for job in &trace.jobs {
        let (ff, fp) = match job.flip {
            Some(flip) => (flip.at_fraction.to_string(), flip.new_priority.to_string()),
            None => (String::new(), String::new()),
        };
        for t in &job.tasks {
            writeln!(
                f,
                "{},{},{},{},{},{},{},{},{},{}",
                job.id,
                job.arrival_s,
                job.priority,
                job.structure.label(),
                ff,
                fp,
                t.id,
                t.idx,
                t.length_s,
                t.mem_mb
            )?;
        }
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, ExportError> {
    s.parse().map_err(|_| ExportError::Parse {
        line,
        what: format!("bad {what}: {s:?}"),
    })
}

/// Read a trace back from CSV. Tasks of a job must be contiguous rows (the
/// format [`write_csv`] produces), and the task ids must be `0..n` for `n`
/// task rows, each once (see the module docs); a parse error names the
/// first row that breaks this.
pub fn read_csv<P: AsRef<Path>>(path: P) -> Result<Trace, ExportError> {
    let f = BufReader::new(std::fs::File::open(path)?);
    let mut seed = 0u64;
    let mut failure_model = FailureModelSpec::default();
    let mut jobs: Vec<JobSpec> = Vec::new();
    // `(task id, line)` of every task row, checked once `n` is known.
    let mut ids: Vec<(u64, usize)> = Vec::new();
    for (i, line) in f.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed == HEADER {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("# seed=") {
            seed = parse(rest, lineno, "seed")?;
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("# failure_model=") {
            failure_model = FailureModelSpec::parse_compact(rest)
                .map_err(|what| ExportError::Parse { line: lineno, what })?;
            continue;
        }
        if trimmed.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = trimmed.split(',').collect();
        if cols.len() != 10 {
            return Err(ExportError::Parse {
                line: lineno,
                what: format!("expected 10 columns, found {}", cols.len()),
            });
        }
        let job_id: u64 = parse(cols[0], lineno, "job_id")?;
        let arrival_s: f64 = parse(cols[1], lineno, "arrival_s")?;
        let priority: u8 = parse(cols[2], lineno, "priority")?;
        let structure = match cols[3] {
            "ST" => JobStructure::Sequential,
            "BoT" => JobStructure::BagOfTasks,
            other => {
                return Err(ExportError::Parse {
                    line: lineno,
                    what: format!("unknown structure {other:?}"),
                })
            }
        };
        let flip = if cols[4].is_empty() {
            None
        } else {
            Some(PriorityFlip {
                at_fraction: parse(cols[4], lineno, "flip_fraction")?,
                new_priority: parse(cols[5], lineno, "flip_priority")?,
            })
        };
        let task = TaskSpec {
            id: parse(cols[6], lineno, "task_id")?,
            job: job_id,
            idx: parse(cols[7], lineno, "task_idx")?,
            length_s: parse(cols[8], lineno, "length_s")?,
            mem_mb: parse(cols[9], lineno, "mem_mb")?,
        };
        ids.push((task.id, lineno));
        match jobs.last_mut() {
            Some(last) if last.id == job_id => last.tasks.push(task),
            _ => jobs.push(JobSpec {
                id: job_id,
                arrival_s,
                priority,
                structure,
                tasks: vec![task],
                flip,
            }),
        }
    }
    let n = ids.len();
    let mut seen = vec![false; n];
    for (id, line) in ids {
        let fault = if id >= n as u64 {
            "is out of range"
        } else if std::mem::replace(&mut seen[id as usize], true) {
            "is a duplicate"
        } else {
            continue;
        };
        return Err(ExportError::Parse {
            line,
            what: format!(
                "task_id {id} {fault}: {n} task rows must number their tasks 0 to {}, \
                 each id once",
                n - 1
            ),
        });
    }
    Ok(Trace {
        jobs,
        seed,
        failure_model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::WorkloadSpec;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ckpt_trace_test_{}_{name}.csv", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = generate(&WorkloadSpec::google_like(120), 777).expect("valid workload spec");
        let path = tmp("roundtrip");
        write_csv(&trace, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.seed, trace.seed);
        assert_eq!(back.jobs, trace.jobs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_preserves_flips() {
        let trace = generate(&WorkloadSpec::google_like(40).with_priority_flips(), 778)
            .expect("valid workload spec");
        let path = tmp("flips");
        write_csv(&trace, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.jobs, trace.jobs);
        assert!(back.jobs.iter().all(|j| j.flip.is_some()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_preserves_failure_streams() {
        use ckpt_stats::rng::Rng64;
        let trace = generate(&WorkloadSpec::google_like(10), 779).expect("valid workload spec");
        let path = tmp("streams");
        write_csv(&trace, &path).unwrap();
        let back = read_csv(&path).unwrap();
        let mut a = trace.failure_stream(3);
        let mut b = back.failure_stream(3);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_preserves_failure_model() {
        use crate::failure::FailureModelSpec;
        let model = FailureModelSpec::Pareto {
            shape: 1.5,
            scale: 2.0,
        };
        let spec = WorkloadSpec::google_like(20).with_failure_model(model);
        let trace = generate(&spec, 780).expect("valid workload spec");
        let path = tmp("failure_model");
        write_csv(&trace, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.failure_model, model);
        assert_eq!(back.jobs, trace.jobs);
        // Replayed histories must match, since they depend on the model.
        assert_eq!(
            crate::stats::trace_histories(&back),
            crate::stats::trace_histories(&trace)
        );
        std::fs::remove_file(&path).ok();

        // Default traces keep the historical preamble (no model line) and
        // read back as the default model.
        let default_trace = generate(&WorkloadSpec::google_like(5), 781).expect("valid spec");
        let path2 = tmp("default_model");
        write_csv(&default_trace, &path2).unwrap();
        let text = std::fs::read_to_string(&path2).unwrap();
        assert!(!text.contains("failure_model"));
        assert!(read_csv(&path2).unwrap().failure_model.is_default());
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn rejects_malformed_rows() {
        let path = tmp("bad");
        std::fs::write(&path, "# seed=1\nnot,enough,columns\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(matches!(err, ExportError::Parse { line: 2, .. }), "{err}");
        std::fs::remove_file(&path).ok();

        let path2 = tmp("badnum");
        std::fs::write(&path2, format!("{HEADER}\n0,abc,1,ST,,,0,0,100.0,50.0\n")).unwrap();
        let err2 = read_csv(&path2).unwrap_err();
        assert!(matches!(err2, ExportError::Parse { .. }), "{err2}");
        std::fs::remove_file(&path2).ok();
    }

    /// A written trace with the task ids of some rows replaced, as
    /// `(task row, id)` pairs. Line 1 is the seed and line 2 the header,
    /// so task row `k` (1-based) is line `k + 2`.
    fn with_task_ids(name: &str, edits: &[(usize, &str)]) -> std::path::PathBuf {
        let trace = generate(&WorkloadSpec::google_like(30), 782).expect("valid workload spec");
        let path = tmp(name);
        write_csv(&trace, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for &(row, id) in edits {
            let mut cols: Vec<&str> = lines[row + 1].split(',').collect();
            cols[6] = id;
            lines[row + 1] = cols.join(",");
        }
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    #[test]
    fn task_ids_must_number_the_rows_once_each() {
        // An id past the row count would size the plan arena by it, the
        // largest id wraps its span count, and a duplicate keeps only one
        // of two plans: each is a parse error naming its line and id.
        for (name, row, id, fault) in [
            ("huge_id", 5, "1000000000000", "is out of range"),
            ("max_id", 1, "18446744073709551615", "is out of range"),
            ("dup_id", 4, "2", "is a duplicate"),
        ] {
            let path = with_task_ids(name, &[(row, id)]);
            let err = read_csv(&path).unwrap_err();
            let ExportError::Parse { line, what } = &err else {
                panic!("{name}: {err}");
            };
            assert_eq!(*line, row + 2, "{name}: {err}");
            assert!(
                what.starts_with(&format!("task_id {id} {fault}")),
                "{name}: {err}"
            );
            std::fs::remove_file(&path).ok();
        }
        // Any order of 0..n reads.
        let path = with_task_ids("swapped_ids", &[(1, "1"), (2, "0")]);
        let back = read_csv(&path).unwrap();
        assert_eq!(back.jobs[0].tasks[0].id, 1);
        assert_eq!(back.jobs[1].tasks[0].id, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_csv("/nonexistent/definitely/not/here.csv").unwrap_err();
        assert!(matches!(err, ExportError::Io(_)));
    }
}
