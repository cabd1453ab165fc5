//! Checkpointing the sweep itself: the glue between the executor and the
//! [`ckpt_store`] append-only store.
//!
//! The store is deliberately payload-agnostic, so this module owns the
//! sweep-shaped half of the contract:
//!
//! * a binary codec for [`CellResult`] — strings length-prefixed, floats
//!   as IEEE bit patterns (NaN-exact, so loaded cells export the same
//!   bytes as freshly evaluated ones), metric names re-interned against
//!   the static catalog on load;
//! * the identity digests, hashed word by word from the encoder in
//!   [`crate::identity`]: [`sweep_digest`] over the sweep scope (name,
//!   base scenario with its aggregation filters, axes — *not* the thread
//!   count, which never changes results) pins the store header, and a
//!   per-record [`record_digest`] covers the cell's run scope (the
//!   simulation inputs: the prep fields plus engine, policy, estimator,
//!   storage, cost, metrics mode, cluster, shards and the analytic-engine
//!   fields) and its rendered params. The encoder writes the prep fields,
//!   then the run fields, then the sweep fields, in one fixed order, with
//!   floats as bits and enums as explicit tags, so no digest depends on
//!   how a type prints. Store format version 2 marks this encoding: a
//!   version-1 store hashed the `Debug` text of the spec, and now fails
//!   with the named version error instead of a digest mismatch;
//! * [`CheckpointConfig`] / [`ResumeReport`] — what the caller asks for
//!   and what the executor did about it.

use crate::agg::MetricSummary;
use crate::exec::CellResult;
use crate::identity::{self, WordHasher, WordSink};
use crate::spec::ScenarioSpec;
use crate::sweep::SweepSpec;
use std::path::{Path, PathBuf};

/// Every metric name a cell can carry, across all engines. Loading a
/// record re-interns names against this catalog (cells hold
/// `&'static str`); an unknown name means the store was written by a
/// different version of the code and is rejected by name.
const METRIC_NAMES: &[&str] = &[
    "wpr",
    "wall_s",
    "ckpt_overhead_s",
    "rollback_s",
    "restart_s",
    "failures",
    "checkpoints",
    "queue_wait_s",
    "makespan_s",
    "events",
    "unit_cost_s",
    "total_cost_s",
    "duration_s",
];

/// What `sweep --checkpoint-dir` / `--resume` asked the executor to do.
#[derive(Debug, Clone, Default)]
pub struct CheckpointConfig {
    /// Directory holding the store (one file per sweep name).
    pub dir: PathBuf,
    /// Reuse an existing store: validate its header, load its cells, and
    /// evaluate only the missing ones. Without this, an existing store is
    /// truncated and the sweep starts fresh.
    pub resume: bool,
    /// The programmatic crash hook: abort the process (exit code
    /// [`CRASH_EXIT_CODE`]) once this many records have been persisted
    /// *by this run*. The CLI never sets it; a `crash@cells=N` fault plan
    /// (`sweep --inject`) feeds the same abort, and this field wins when
    /// both are set.
    pub crash_after_cells: Option<u64>,
}

/// Exit code of a [`CheckpointConfig::crash_after_cells`] injected crash —
/// distinctive on purpose, so tests can tell the injected kill from a
/// genuine panic (101) or success (0).
pub const CRASH_EXIT_CODE: i32 = 86;

impl CheckpointConfig {
    /// The store file for a sweep: `<dir>/<name>.sweepckpt`. Sweep names
    /// are validated to `[A-Za-z0-9._-]` at parse time, so the join cannot
    /// escape the directory.
    pub fn store_path(&self, sweep_name: &str) -> PathBuf {
        self.dir.join(format!("{sweep_name}.sweepckpt"))
    }
}

/// What a checkpointed run did: how much came from the store, how much was
/// evaluated, and whether recovery touched the file.
#[derive(Debug, Clone, Default)]
pub struct ResumeReport {
    /// Cells loaded from the store (skipped, not evaluated).
    pub loaded: usize,
    /// Cells evaluated (and persisted) by this run.
    pub evaluated: usize,
    /// The store file in use.
    pub store_path: PathBuf,
    /// Corrupt-tail recovery note from [`ckpt_store::SweepStore::open`],
    /// if the previous run died mid-append.
    pub recovered: Option<String>,
    /// `--resume` was asked for but no store existed yet — the run started
    /// fresh (the friendly behavior for `until sweep --resume; do :; done`
    /// restart loops).
    pub fresh_start: bool,
}

/// Digest of everything that shapes a sweep's output bytes: the sweep
/// identity of [`identity::sweep`] (name, base scenario with its filters,
/// axes; not the thread count).
pub fn sweep_digest(sweep: &SweepSpec) -> u64 {
    let mut h = WordHasher::default();
    identity::sweep(sweep, &mut h);
    h.finish()
}

/// Per-record identity: the cell's run identity (simulation inputs) plus
/// its rendered axis params (which also carry the filter axes that the run
/// identity omits). Checked on load, so a record is never replayed into the
/// wrong cell. Equal to [`cell_key_digest`] of the cell's
/// [`ScenarioSpec::run_key`] and the same params, without building the key
/// text.
pub fn record_digest(spec: &ScenarioSpec, params: &[(String, String)]) -> u64 {
    key_digest(&identity::hex_digits(identity::run_digest(spec)), params)
}

/// [`record_digest`] from a run key in text form, as
/// [`ScenarioSpec::run_key`] renders it.
pub fn cell_key_digest(run_key: &str, params: &[(String, String)]) -> u64 {
    key_digest(run_key.as_bytes(), params)
}

fn key_digest(run_key: &[u8], params: &[(String, String)]) -> u64 {
    let mut h = WordHasher::default();
    h.bytes(run_key);
    identity::params(params, &mut h);
    h.finish()
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Encode a cell's params and metrics as a store payload (the cell index
/// rides in the record frame, not the payload).
pub fn encode_cell(cell: &CellResult) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + 32 * cell.params.len() + 56 * cell.metrics.len());
    buf.extend_from_slice(&(cell.params.len() as u32).to_le_bytes());
    for (k, v) in &cell.params {
        push_str(&mut buf, k);
        push_str(&mut buf, v);
    }
    buf.extend_from_slice(&(cell.metrics.len() as u32).to_le_bytes());
    for (name, m) in &cell.metrics {
        push_str(&mut buf, name);
        buf.extend_from_slice(&(m.count as u64).to_le_bytes());
        for v in [m.mean, m.p50, m.p99, m.min, m.max] {
            push_f64(&mut buf, v);
        }
    }
    buf
}

/// A bounds-checked cursor over a payload; every read error names the
/// store as the culprit (payloads are checksummed, so a short read here
/// means a version skew, not disk corruption).
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Offset just past the next `n` bytes, if the payload holds them.
    fn end_of(&self, n: usize) -> Result<usize, String> {
        self.at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "cell payload too short (need {n} bytes at offset {}, have {})",
                    self.at,
                    self.buf.len()
                )
            })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.end_of(n)?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    /// An item count, where each item takes at least `min_bytes`: a count
    /// the rest of the payload cannot hold is rejected before anything is
    /// allocated for it.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        self.end_of(n.saturating_mul(min_bytes))?;
        Ok(n)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "cell payload string not UTF-8".into())
    }
}

/// Decode a store payload back into a [`CellResult`] (index supplied from
/// the record frame). Metric names are re-interned against the static
/// catalog; unknown names mean the store predates or postdates this build.
pub fn decode_cell(index: usize, payload: &[u8]) -> Result<CellResult, String> {
    let mut cur = Cursor {
        buf: payload,
        at: 0,
    };
    // A param is two length-prefixed strings; a metric is a name, a count
    // and five floats.
    let n_params = cur.count(4 + 4)?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let k = cur.string()?;
        let v = cur.string()?;
        params.push((k, v));
    }
    let n_metrics = cur.count(4 + 8 + 5 * 8)?;
    let mut metrics = Vec::with_capacity(n_metrics);
    for _ in 0..n_metrics {
        let name = cur.string()?;
        let interned = METRIC_NAMES
            .iter()
            .find(|&&n| n == name)
            .copied()
            .ok_or_else(|| {
                format!(
                    "unknown metric {name:?} in checkpoint store \
                     (written by a different version of this tool?)"
                )
            })?;
        let count = cur.u64()? as usize;
        let summary = MetricSummary {
            count,
            mean: cur.f64()?,
            p50: cur.f64()?,
            p99: cur.f64()?,
            min: cur.f64()?,
            max: cur.f64()?,
        };
        metrics.push((interned, summary));
    }
    if cur.at != payload.len() {
        return Err(format!(
            "cell payload has {} trailing bytes (version skew?)",
            payload.len() - cur.at
        ));
    }
    // Only successfully evaluated cells are ever persisted (quarantined
    // cells must be re-evaluated on resume), so a decoded cell is Ok by
    // construction.
    Ok(CellResult {
        index,
        params,
        metrics,
        status: crate::exec::CellStatus::Ok,
    })
}

/// Render a [`ResumeReport`] as the one-line stderr notes the CLI prints.
pub fn report_lines(report: &ResumeReport, out: &mut Vec<String>) {
    if let Some(note) = &report.recovered {
        out.push(note.clone());
    }
    if report.fresh_start {
        out.push(format!(
            "resume: no store at {}, starting fresh",
            report.store_path.display()
        ));
    }
    if report.loaded > 0 {
        out.push(format!(
            "resume: loaded {} cell{} from {}, evaluating {} missing",
            report.loaded,
            if report.loaded == 1 { "" } else { "s" },
            report.store_path.display(),
            report.evaluated,
        ));
    }
}

/// `path` exists as a file (the resume-or-fresh probe).
pub fn store_exists(path: &Path) -> bool {
    path.is_file()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellResult {
        CellResult {
            index: 7,
            params: vec![
                ("policy".into(), "formula3".into()),
                ("ckpt_cost_scale".into(), "0.5".into()),
            ],
            metrics: vec![
                (
                    "wpr",
                    MetricSummary {
                        count: 123,
                        mean: 0.87,
                        p50: 0.9,
                        p99: 0.99,
                        min: 0.1,
                        max: 1.0,
                    },
                ),
                (
                    "wall_s",
                    MetricSummary {
                        count: 0,
                        mean: f64::NAN,
                        p50: f64::NAN,
                        p99: f64::NAN,
                        min: f64::NAN,
                        max: f64::NAN,
                    },
                ),
            ],
            status: crate::exec::CellStatus::Ok,
        }
    }

    #[test]
    fn cell_roundtrips_including_nan_bits() {
        let original = cell();
        let decoded = decode_cell(7, &encode_cell(&original)).unwrap();
        assert_eq!(decoded.index, original.index);
        assert_eq!(decoded.params, original.params);
        assert_eq!(decoded.metrics.len(), original.metrics.len());
        for ((na, ma), (nb, mb)) in original.metrics.iter().zip(&decoded.metrics) {
            assert_eq!(na, nb);
            assert_eq!(ma.count, mb.count);
            for (a, b) in [
                (ma.mean, mb.mean),
                (ma.p50, mb.p50),
                (ma.p99, mb.p99),
                (ma.min, mb.min),
                (ma.max, mb.max),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{na}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn unknown_metric_names_are_rejected() {
        let mut rogue = cell();
        rogue.metrics = vec![("wpr", rogue.metrics[0].1)];
        let mut bytes = encode_cell(&rogue);
        // Rewrite the metric name in place: same length, unknown name.
        let at = bytes
            .windows(3)
            .position(|w| w == b"wpr")
            .expect("name present");
        bytes[at..at + 3].copy_from_slice(b"xyz");
        let err = decode_cell(0, &bytes).unwrap_err();
        assert!(
            err.contains("xyz") && err.contains("different version"),
            "{err}"
        );
    }

    #[test]
    fn short_and_oversized_payloads_are_rejected() {
        let bytes = encode_cell(&cell());
        assert!(decode_cell(0, &bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        let err = decode_cell(0, &padded).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        // Counts the payload cannot hold are named errors, not an
        // out-of-memory abort.
        let err = decode_cell(0, &u32::MAX.to_le_bytes()).unwrap_err();
        assert!(err.contains("too short"), "{err}");
        let mut no_params = 0u32.to_le_bytes().to_vec();
        no_params.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_cell(0, &no_params).unwrap_err();
        assert!(err.contains("too short"), "{err}");
    }

    #[test]
    fn digests_separate_cells_and_specs() {
        let params_a = vec![("policy".to_string(), "formula3".to_string())];
        let params_b = vec![("policy".to_string(), "young".to_string())];
        assert_ne!(
            cell_key_digest("samekey", &params_a),
            cell_key_digest("samekey", &params_b)
        );
        assert_eq!(
            cell_key_digest("samekey", &params_a),
            cell_key_digest("samekey", &params_a)
        );

        let a = SweepSpec::from_str("[sweep]\nname = \"x\"\nseed = 1\n").unwrap();
        // A run key in text form gives the digest the executor stores.
        let spec = a.cell(0).unwrap();
        assert_eq!(spec.run_key().len(), 16);
        assert_eq!(
            cell_key_digest(&spec.run_key(), &params_a),
            record_digest(&spec, &params_a)
        );
        assert_ne!(record_digest(&spec, &params_a), record_digest(&spec, &[]));

        let b = SweepSpec::from_str("[sweep]\nname = \"x\"\nseed = 2\n").unwrap();
        assert_ne!(sweep_digest(&a), sweep_digest(&b));
        // Threads are execution shape, not identity: same digest.
        let c = SweepSpec::from_str("[sweep]\nname = \"x\"\nseed = 1\nthreads = 7\n").unwrap();
        assert_eq!(sweep_digest(&a), sweep_digest(&c));
    }
}
