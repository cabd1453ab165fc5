//! The output sink: one place that decides how frames reach stdout and
//! disk, shared by the experiment registry and the CLI.

use crate::frame::{ExpOutput, Frame};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Rendering format for frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned text tables with title banners (human-facing default).
    Table,
    /// RFC-4180 CSV, one document per frame.
    Csv,
    /// One self-describing JSON document for the whole output.
    Json,
}

impl Format {
    /// Parse a format name. Unknown values are an error naming the
    /// accepted set.
    pub fn parse(s: &str) -> Result<Format, String> {
        match s {
            "table" => Ok(Format::Table),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!(
                "unknown format {other:?} (accepted values: table, csv, json)"
            )),
        }
    }

    /// Lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            Format::Table => "table",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }

    /// File extension for per-frame files.
    pub fn extension(&self) -> &'static str {
        match self {
            Format::Table => "txt",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }
}

/// Where rendered frames go: a stdout format plus an optional directory
/// that receives one file per frame.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Format used on the stream passed to [`Sink::emit_to`].
    pub format: Format,
    /// When set, every frame is also written to `<dir>/<name>.<ext>`.
    pub dir: Option<PathBuf>,
    /// Format used for the per-frame files (legacy experiment binaries
    /// print tables but persist CSV).
    pub file_format: Format,
}

impl Sink {
    /// Human-facing default: tables on stdout, CSV files when a directory
    /// is attached.
    pub fn table() -> Self {
        Self {
            format: Format::Table,
            dir: None,
            file_format: Format::Csv,
        }
    }

    /// A sink rendering `format` both on the stream and in files.
    pub fn new(format: Format) -> Self {
        Self {
            format,
            dir: None,
            file_format: format,
        }
    }

    /// Attach an output directory (one file per frame).
    pub fn with_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Override the per-frame file format.
    pub fn with_file_format(mut self, format: Format) -> Self {
        self.file_format = format;
        self
    }

    fn render(frame: &Frame, format: Format) -> String {
        match format {
            Format::Table => frame.to_table(),
            Format::Csv => frame.to_csv(),
            Format::Json => frame.to_json(),
        }
    }

    /// Emit an output: render frames (and notes) onto `w` and, when a
    /// directory is attached, write one file per frame. Returns the file
    /// paths written.
    pub fn emit_to(&self, output: &ExpOutput, w: &mut dyn Write) -> std::io::Result<Vec<PathBuf>> {
        match self.format {
            Format::Json => {
                // One document for the whole output, notes included.
                w.write_all(output.to_json().as_bytes())?;
            }
            Format::Table => {
                for frame in &output.frames {
                    w.write_all(frame.to_table().as_bytes())?;
                }
                for note in &output.notes {
                    writeln!(w, "\n{note}")?;
                }
            }
            Format::Csv => {
                for frame in &output.frames {
                    writeln!(w, "# frame: {}", frame.name)?;
                    w.write_all(frame.to_csv().as_bytes())?;
                }
            }
        }
        let mut paths = Vec::new();
        if let Some(dir) = &self.dir {
            std::fs::create_dir_all(dir)?;
            for frame in &output.frames {
                let path = dir.join(format!("{}.{}", frame.name, self.file_format.extension()));
                std::fs::write(&path, Self::render(frame, self.file_format))?;
                paths.push(path);
            }
        }
        Ok(paths)
    }

    /// [`Sink::emit_to`] onto real stdout.
    pub fn emit(&self, output: &ExpOutput) -> std::io::Result<Vec<PathBuf>> {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let paths = self.emit_to(output, &mut lock)?;
        lock.flush()?;
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn output() -> ExpOutput {
        let mut f = Frame::new("sink_test", vec!["k", "v"]);
        f.push_row(row!["a", 1.5]);
        let mut out = ExpOutput::new();
        out.push(f);
        out.note("done");
        out
    }

    #[test]
    fn table_stream_includes_notes() {
        let mut buf = Vec::new();
        Sink::table().emit_to(&output(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("=== sink_test ==="));
        assert!(s.contains("done"));
    }

    #[test]
    fn csv_stream_prefixes_frame_names() {
        let mut buf = Vec::new();
        Sink::new(Format::Csv).emit_to(&output(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("# frame: sink_test\n"));
        assert!(s.contains("k,v\na,1.5\n"));
    }

    #[test]
    fn files_land_in_dir_with_format_extension() {
        let dir = std::env::temp_dir().join(format!("ckpt_report_sink_{}", std::process::id()));
        let paths = Sink::new(Format::Json)
            .with_dir(&dir)
            .emit_to(&output(), &mut Vec::new())
            .unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].ends_with("sink_test.json"));
        let body = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(body.contains("\"columns\": [\"k\", \"v\"]"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_parse_rejects_unknown() {
        assert!(Format::parse("yaml")
            .unwrap_err()
            .contains("table, csv, json"));
        assert_eq!(Format::parse("json").unwrap(), Format::Json);
    }
}
