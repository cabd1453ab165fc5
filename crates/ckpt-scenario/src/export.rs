//! Sweep exports: the per-cell long-format table, one row per
//! `(cell, metric)`. [`csv_string`] and [`json_string`] stream rows
//! borrowed from the [`SweepResult`] straight through `ckpt-report`'s row
//! writers, with no owned frame in between. [`to_frame`] builds the same
//! rows as an owned [`Frame`] (for experiments that post-process them)
//! from the same row source, so the two cannot drift. Every rendering is
//! byte-identical across runs and thread counts.

use crate::exec::{CellStatus, SweepResult};
use crate::sweep::SweepSpec;
use ckpt_report::{reserve_hint, Cell, CsvWriter, Frame, JsonWriter, RowWriter, Value};
use std::path::{Path, PathBuf};

/// The summary columns after the axis columns.
const METRIC_COLUMNS: [&str; 7] = ["metric", "count", "mean", "p50", "p99", "min", "max"];

/// A quarantine reason as a single CSV-safe cell: commas, quotes, and
/// newlines (which would break the line-oriented CSV writer) collapse to
/// spaces/semicolons.
fn sanitize_reason(reason: &str) -> String {
    reason
        .chars()
        .map(|c| match c {
            ',' => ';',
            '"' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect()
}

/// Everything of the export but its rows: name, title, metadata and
/// whether the run is degraded.
///
/// A degraded run (at least one quarantined cell) appends a `status`
/// column — `ok` for healthy rows, `failed: <reason>` for quarantined
/// ones. A fully healthy run emits exactly the historical columns, so
/// fault tolerance never perturbs clean-run bytes.
struct Header<'s> {
    spec: &'s SweepSpec,
    name: String,
    title: String,
    metadata: [(&'static str, String); 4],
    degraded: bool,
}

impl<'s> Header<'s> {
    fn new(spec: &'s SweepSpec, result: &SweepResult) -> Self {
        let axes: Vec<String> = spec
            .axes
            .iter()
            .map(|a| format!("{}({})", a.param, a.values.len()))
            .collect();
        Header {
            spec,
            name: format!("{}_cells", result.name),
            title: format!("sweep {}", result.name),
            metadata: [
                ("engine", spec.base.engine.label().to_string()),
                // The seed the run actually used (a RunContext may have
                // overridden the spec's), so the metadata is reproducible.
                ("seed", result.seed.to_string()),
                ("grid_size", spec.grid_size().to_string()),
                ("axes", axes.join(" x ")),
            ],
            degraded: result.cells.iter().any(|c| !c.status.is_ok()),
        }
    }

    /// `cell`, one column per axis, the summary columns, and `status` on a
    /// degraded run.
    fn columns(&self) -> impl Iterator<Item = &str> {
        std::iter::once("cell")
            .chain(self.spec.axes.iter().map(|a| a.param.as_str()))
            .chain(METRIC_COLUMNS)
            .chain(self.degraded.then_some("status"))
    }

    fn metadata(&self) -> impl Iterator<Item = (&str, &str)> {
        self.metadata.iter().map(|(k, v)| (*k, v.as_str()))
    }

    /// Capacity for the rendered rows, header line included.
    fn reserve(&self, result: &SweepResult) -> usize {
        let rows: usize = result.cells.iter().map(|c| c.metrics.len()).sum();
        reserve_hint(rows + 1, self.columns().count())
    }
}

/// Write an index or sample count as an integer cell. Past `i64::MAX`
/// (a count decoded from a corrupt store can be anything) it is exact
/// text, as `Value::from(u64)` renders it, instead of wrapping negative.
fn write_count(w: &mut impl RowWriter, n: usize) {
    match i64::try_from(n) {
        Ok(i) => w.cell(Cell::Int(i)),
        Err(_) => w.cell(Cell::Text(&n.to_string())),
    }
}

/// The row source every rendering shares: each `(cell, metric)` row, cell
/// by cell, borrowed from `result`.
fn write_rows(result: &SweepResult, degraded: bool, w: &mut impl RowWriter) {
    for cell in &result.cells {
        let failed;
        let status = match &cell.status {
            CellStatus::Ok => "ok",
            CellStatus::Failed { reason } => {
                failed = format!("failed: {}", sanitize_reason(reason));
                &failed
            }
        };
        for (metric, s) in &cell.metrics {
            write_count(w, cell.index);
            for (_, rendered) in &cell.params {
                w.cell(Cell::Text(rendered));
            }
            w.cell(Cell::Text(metric));
            write_count(w, s.count);
            for v in [s.mean, s.p50, s.p99, s.min, s.max] {
                w.cell(Cell::Num(v));
            }
            if degraded {
                w.cell(Cell::Text(status));
            }
            w.end_row();
        }
    }
}

/// Collects the row source's rows as owned values, for [`to_frame`].
struct FrameRows {
    frame: Frame,
    row: Vec<Value>,
}

impl RowWriter for FrameRows {
    fn cell(&mut self, cell: Cell<'_>) {
        self.row.push(Value::from(cell));
    }

    fn end_row(&mut self) {
        self.frame.push_row(std::mem::take(&mut self.row));
    }
}

/// Build the long-format cells frame: one row per `(cell, metric)` with
/// the axis assignments as leading columns, plus sweep identity metadata
/// (engine, seed, grid size, axes), and a `status` column on a degraded
/// run. [`csv_string`] and [`json_string`] render the same rows without
/// building it.
pub fn to_frame(spec: &SweepSpec, result: &SweepResult) -> Frame {
    let header = Header::new(spec, result);
    let mut frame =
        Frame::new(&header.name, header.columns().collect()).with_title(header.title.as_str());
    for (k, v) in header.metadata() {
        frame = frame.with_meta(k, v);
    }
    let mut rows = FrameRows {
        frame,
        row: Vec::new(),
    };
    write_rows(result, header.degraded, &mut rows);
    rows.frame
}

/// Render the per-cell CSV (the cells frame as CSV).
pub fn csv_string(spec: &SweepSpec, result: &SweepResult) -> String {
    let header = Header::new(spec, result);
    let mut out = String::with_capacity(header.reserve(result));
    let mut w = CsvWriter::new(&mut out);
    w.row(header.columns().map(Cell::Text));
    write_rows(result, header.degraded, &mut w);
    out
}

/// Render the JSON summary (the cells frame as a self-describing JSON
/// document).
pub fn json_string(spec: &SweepSpec, result: &SweepResult) -> String {
    let header = Header::new(spec, result);
    let mut out = String::with_capacity(header.reserve(result));
    let mut w = JsonWriter::begin(
        &mut out,
        0,
        &header.name,
        &header.title,
        header.metadata(),
        header.columns(),
    );
    write_rows(result, header.degraded, &mut w);
    w.finish();
    out.push('\n');
    out
}

/// Write `<out_dir>/<name>_cells.csv` and `<out_dir>/<name>_summary.json`;
/// returns both paths.
pub fn write_outputs(
    spec: &SweepSpec,
    result: &SweepResult,
    out_dir: impl AsRef<Path>,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let dir = out_dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let csv_path = dir.join(format!("{}_cells.csv", result.name));
    let json_path = dir.join(format!("{}_summary.json", result.name));
    std::fs::write(&csv_path, csv_string(spec, result))?;
    std::fs::write(&json_path, json_string(spec, result))?;
    Ok((csv_path, json_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_sweep, SweepOptions};

    const SPEC: &str = r#"
        [sweep]
        name = "export_test"
        engine = "ckpt-cost"

        [axes]
        device = ["ramdisk", "nfs"]
        n_checkpoints = [1, 3]
    "#;

    #[test]
    fn csv_has_axis_columns_and_all_cells() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let csv = csv_string(&sweep, &result);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "cell,device,n_checkpoints,metric,count,mean,p50,p99,min,max"
        );
        // 4 cells × 2 metrics.
        assert_eq!(csv.lines().count(), 1 + 8);
        assert!(csv.contains("ramdisk"));
        assert!(csv.contains("total_cost_s"));
    }

    #[test]
    fn json_is_the_shared_frame_document() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let json = json_string(&sweep, &result);
        assert!(json.contains("\"name\": \"export_test_cells\""));
        assert!(json.contains("\"engine\": \"ckpt-cost\""));
        assert!(json.contains("\"grid_size\": \"4\""));
        assert!(json.contains("\"axes\": \"device(2) x n_checkpoints(2)\""));
        // 4 cells × 2 metrics = 8 data rows.
        let frame = to_frame(&sweep, &result);
        assert_eq!(frame.rows.len(), 8);
        // Balanced braces/brackets (cheap structural sanity without a
        // JSON dependency).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn exports_are_thread_invariant() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let a = run_sweep(&sweep, SweepOptions { threads: 1 }).unwrap();
        let b = run_sweep(&sweep, SweepOptions { threads: 4 }).unwrap();
        assert_eq!(csv_string(&sweep, &a), csv_string(&sweep, &b));
        assert_eq!(json_string(&sweep, &a), json_string(&sweep, &b));
    }

    #[test]
    fn status_column_appears_only_on_degraded_runs() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let mut result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let clean_header = "cell,device,n_checkpoints,metric,count,mean,p50,p99,min,max";
        assert_eq!(
            csv_string(&sweep, &result).lines().next().unwrap(),
            clean_header
        );

        // Quarantine one cell by hand: the column appears, healthy rows
        // say "ok", and the failed cell exports exactly one NaN row with
        // a CSV-safe reason.
        let params = result.cells[2].params.clone();
        result.cells[2] = crate::exec::CellResult {
            index: 2,
            params,
            metrics: vec![("failed", crate::agg::MetricSummary::from_values(&[]))],
            status: CellStatus::Failed {
                reason: "panicked: injected, with\nnewline".into(),
            },
        };
        let csv = csv_string(&sweep, &result);
        assert_eq!(
            csv.lines().next().unwrap(),
            "cell,device,n_checkpoints,metric,count,mean,p50,p99,min,max,status"
        );
        let failed: Vec<&str> = csv.lines().filter(|l| l.contains("failed")).collect();
        assert_eq!(failed.len(), 1, "one metric row per quarantined cell");
        assert!(
            failed[0]
                .ends_with("failed,0,NaN,NaN,NaN,NaN,NaN,failed: panicked: injected; with newline"),
            "unexpected failed row: {}",
            failed[0]
        );
        // Every other data row carries the ok marker.
        assert_eq!(
            csv.lines().skip(1).filter(|l| l.ends_with(",ok")).count(),
            6
        );
        // JSON mirrors the same gating: NaN metrics render as null.
        let json = json_string(&sweep, &result);
        assert!(json.contains("failed: panicked: injected; with newline"));
        assert!(json.contains("null"));
    }

    #[test]
    fn counts_past_i64_max_export_as_exact_text() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let mut result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        result.cells[1].metrics[0].1.count = usize::MAX;
        let csv = csv_string(&sweep, &result);
        let json = json_string(&sweep, &result);
        let frame = to_frame(&sweep, &result);
        assert_eq!(frame.to_csv(), csv);
        assert_eq!(frame.to_json(), json);
        assert!(csv.contains(",18446744073709551615,"), "{csv}");
        assert!(json.contains(", \"18446744073709551615\", "), "{json}");
    }

    #[test]
    fn files_written_to_out_dir() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("ckpt_scenario_export_{}", std::process::id()));
        let (csv, json) = write_outputs(&sweep, &result, &dir).unwrap();
        assert!(csv.ends_with("export_test_cells.csv"));
        assert_eq!(
            std::fs::read_to_string(&csv).unwrap(),
            csv_string(&sweep, &result)
        );
        assert!(std::fs::read_to_string(&json).unwrap().contains("\"rows\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
