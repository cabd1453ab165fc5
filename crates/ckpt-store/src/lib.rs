//! # ckpt-store — append-only, crash-safe store of completed sweep cells
//!
//! The paper optimizes long-running cloud tasks by checkpointing them;
//! this crate applies the same mechanism to our own long-running task,
//! the sweep executor. A [`SweepStore`] is a single on-disk file holding
//! every grid cell a sweep has completed so far, written so that a
//! process killed at **any** byte boundary leaves a file the next run can
//! open, trust, and extend:
//!
//! * a versioned, checksummed **header** pins the run identity — format
//!   version, spec digest, seed, scale (base job count), grid size — so a
//!   resume against a changed spec is rejected by name instead of
//!   silently merging incompatible cells;
//! * each **record** is one completed cell, framed as
//!   `len | fnv1a(blob) | blob` and appended with a single `write_all`,
//!   so a record is either fully present and checksummed or detectably
//!   partial;
//! * [`SweepStore::open`] scans the file front to back and, on the first
//!   short or checksum-failing frame, **truncates** the file back to the
//!   last valid record and reports the dropped bytes — the
//!   corrupt-tail-recovery discipline of every append-only log.
//!
//! The store knows nothing about what a cell *is*: records carry an
//! opaque payload plus the cell's grid index and a caller-computed key
//! digest (the sweep layer uses a digest of the cell's run key and
//! rendered axis params). Layering stays clean — framing, checksums and
//! recovery live here; the cell codec lives with the cell type.
//!
//! Durability model: appends reach the kernel page cache on return
//! (process-crash/preemption safe — the threat model of the ROADMAP's
//! preemptible-fleet item); [`SweepStore::sync`] forces them to stable
//! storage for power-loss durability at the caller's cadence.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// On-disk format magic, bumped together with [`FORMAT_VERSION`].
pub const MAGIC: [u8; 8] = *b"CKPTSWP\x01";

/// On-disk format version; stores written by a different version are
/// rejected at open time.
pub const FORMAT_VERSION: u32 = 1;

/// Header size on disk: magic + version + reserved + 4 identity words +
/// header checksum.
const HEADER_LEN: u64 = 8 + 4 + 4 + 8 * 4 + 8;

/// Cap on a single record's blob length; anything larger is treated as a
/// corrupt frame (a real cell record is a few hundred bytes).
const MAX_BLOB_LEN: u32 = 1 << 30;

/// FNV-1a 64 — the workspace's checksum idiom (golden DES digests, pinned
/// export tests), here guarding record frames and the header.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Errors opening, validating, or appending to a store. Recoverable
/// corruption (a torn tail) is *not* an error — [`SweepStore::open`]
/// repairs it and reports the repair in its [`OpenReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    message: String,
    /// The kind of the `io::Error` behind the failure; `None` for format,
    /// identity and size errors.
    kind: Option<std::io::ErrorKind>,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint store error: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// A failure with no I/O error behind it.
    fn new(message: String) -> Self {
        StoreError {
            message,
            kind: None,
        }
    }

    /// An I/O error `e`, described by `message`.
    fn io(message: String, e: &std::io::Error) -> Self {
        StoreError {
            message,
            kind: Some(e.kind()),
        }
    }

    /// The kind of the I/O error behind the failure, if there was one.
    pub fn kind(&self) -> Option<std::io::ErrorKind> {
        self.kind
    }

    /// True when the underlying failure was a transient I/O condition —
    /// the "try again" family ([`ckpt_faults::is_transient_kind`]) — so
    /// the caller may retry the operation with backoff instead of
    /// aborting the run. Everything else is fatal.
    pub fn is_transient(&self) -> bool {
        self.kind.is_some_and(ckpt_faults::is_transient_kind)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        let kind = ckpt_faults::io_kind_name(e.kind());
        StoreError::io(format!("io ({kind}): {e}"), &e)
    }
}

/// The run identity a store is pinned to. Two runs may share a store only
/// if every field matches; [`StoreHeader::validate_against`] names the
/// first field that differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreHeader {
    /// Digest of the full sweep spec (base scenario + axes + name) — the
    /// caller computes it over everything that shapes output bytes.
    pub spec_digest: u64,
    /// The base RNG seed the sweep runs with.
    pub seed: u64,
    /// The scale knob (base job count for trace engines).
    pub scale: u64,
    /// Total grid cells; record indices must stay below this.
    pub grid_size: u64,
}

impl StoreHeader {
    /// Check that a store written under `self` may serve a run described
    /// by `current`, naming the first mismatching field.
    pub fn validate_against(&self, current: &StoreHeader) -> Result<(), StoreError> {
        let mismatch = |field: &str, stored: u64, now: u64| {
            Err(StoreError::new(format!(
                "store was written for a different sweep: {field} was {stored}, \
                 current spec has {now} (rerun without --resume to start fresh)"
            )))
        };
        if self.spec_digest != current.spec_digest {
            return mismatch("spec digest", self.spec_digest, current.spec_digest);
        }
        if self.seed != current.seed {
            return mismatch("seed", self.seed, current.seed);
        }
        if self.scale != current.scale {
            return mismatch("scale (base jobs)", self.scale, current.scale);
        }
        if self.grid_size != current.grid_size {
            return mismatch("grid size", self.grid_size, current.grid_size);
        }
        Ok(())
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN as usize);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // reserved
        for v in [self.spec_digest, self.seed, self.scale, self.grid_size] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        if buf.len() < HEADER_LEN as usize {
            return Err(StoreError::new(format!(
                "header truncated: {} bytes, need {HEADER_LEN} \
                 (store was interrupted before the header landed)",
                buf.len()
            )));
        }
        let body = &buf[..HEADER_LEN as usize - 8];
        let stored_sum = u64_at(buf, HEADER_LEN as usize - 8);
        if fnv1a(body) != stored_sum {
            return Err(StoreError::new("header checksum mismatch".into()));
        }
        if buf[..8] != MAGIC {
            return Err(StoreError::new(format!(
                "bad magic {:?} (not a sweep checkpoint store)",
                &buf[..8]
            )));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(StoreError::new(format!(
                "store format version {version}, this build reads {FORMAT_VERSION}"
            )));
        }
        Ok(StoreHeader {
            spec_digest: u64_at(buf, 16),
            seed: u64_at(buf, 24),
            scale: u64_at(buf, 32),
            grid_size: u64_at(buf, 40),
        })
    }
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// One persisted cell: its grid index, a caller-computed digest of its
/// identity (validated on load against the current spec), and the opaque
/// encoded result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// Row-major grid index of the cell.
    pub index: u64,
    /// Digest of the cell's identity under the current spec (the sweep
    /// layer digests the run key + rendered axis params).
    pub key_digest: u64,
    /// The encoded cell result (the sweep layer's codec).
    pub payload: Vec<u8>,
}

/// What [`SweepStore::open`] found: how many records were loaded and
/// whether a torn tail was truncated away.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpenReport {
    /// Valid records loaded (after last-write-wins dedup happens in the
    /// caller; this counts raw frames).
    pub records: usize,
    /// Bytes dropped from the corrupt tail (0 on a clean open).
    pub truncated_bytes: u64,
    /// Human-readable recovery note, present iff bytes were dropped.
    pub warning: Option<String>,
}

/// The append-only store: a header plus a sequence of framed records.
/// One writer at a time; appends are single `write_all` calls so the
/// tail is the only region a crash can tear.
#[derive(Debug)]
pub struct SweepStore {
    file: File,
    path: PathBuf,
    header: StoreHeader,
    /// Offset of the valid end of the file — where the next append lands.
    end: u64,
    records: usize,
}

impl SweepStore {
    /// Create (or truncate) a store at `path` with the given identity
    /// header. The header is written immediately.
    pub fn create(path: impl AsRef<Path>, header: StoreHeader) -> Result<SweepStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StoreError::io(format!("cannot create {path:?}: {e}"), &e))?;
        let buf = header.encode();
        file.write_all(&buf)?;
        Ok(SweepStore {
            file,
            path,
            header,
            end: HEADER_LEN,
            records: 0,
        })
    }

    /// Open an existing store: validate the header, scan every record,
    /// and truncate away a torn tail if the last append was interrupted.
    /// Returns the store (positioned to append), the records in file
    /// order, and a report of any recovery performed.
    pub fn open(
        path: impl AsRef<Path>,
    ) -> Result<(SweepStore, Vec<CellRecord>, OpenReport), StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io(format!("cannot open {path:?}: {e}"), &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let header = StoreHeader::decode(&bytes)
            .map_err(|e| StoreError::new(format!("{}: {}", path.display(), e.message)))?;

        // Scan frames front to back; the first bad frame ends the valid
        // region — everything after it is untrusted (framing is lost).
        let mut records = Vec::new();
        let mut offset = HEADER_LEN as usize;
        let valid_end = loop {
            if offset == bytes.len() {
                break offset; // clean end
            }
            let Some(frame) = read_frame(&bytes, offset) else {
                break offset; // torn or corrupt frame: valid region ends here
            };
            let (record, next) = frame;
            if record.index >= header.grid_size {
                // A frame that checksums but violates the header is not a
                // torn write — refuse rather than silently drop data.
                return Err(StoreError::new(format!(
                    "{}: record index {} out of range (grid size {})",
                    path.display(),
                    record.index,
                    header.grid_size
                )));
            }
            records.push(record);
            offset = next;
        };

        let mut report = OpenReport {
            records: records.len(),
            ..OpenReport::default()
        };
        if valid_end < bytes.len() {
            let dropped = (bytes.len() - valid_end) as u64;
            file.set_len(valid_end as u64)?;
            file.sync_data()?;
            report.truncated_bytes = dropped;
            report.warning = Some(format!(
                "recovered {}: dropped {dropped} corrupt tail byte{} after {} intact record{} \
                 (interrupted append)",
                path.display(),
                if dropped == 1 { "" } else { "s" },
                records.len(),
                if records.len() == 1 { "" } else { "s" },
            ));
        }

        Ok((
            SweepStore {
                file,
                path,
                header,
                end: valid_end as u64,
                records: records.len(),
            },
            records,
            report,
        ))
    }

    /// The identity header this store was created with.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// Records appended so far (including those loaded at open).
    pub fn records(&self) -> usize {
        self.records
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record: a single `write_all` of the framed bytes at the
    /// valid end, so a crash mid-call can only tear the tail — which the
    /// next [`SweepStore::open`] truncates away.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), StoreError> {
        let frame = self.frame_bytes(record)?;
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame)?;
        self.end += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Fault-injection support (`torn_write@record=N`): build the
    /// record's frame but write only its first half, simulating a
    /// process killed mid-`write_all`. The store's valid end does *not*
    /// advance — the file now carries a torn tail that the next
    /// [`SweepStore::open`] truncates away. The caller must abort the
    /// process after this; appending past a torn tail would corrupt the
    /// log mid-file, which open treats as a hard error.
    pub fn append_torn(&mut self, record: &CellRecord) -> Result<(), StoreError> {
        let frame = self.frame_bytes(record)?;
        let half = frame.len() / 2;
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&frame[..half])?;
        Ok(())
    }

    /// Frame a record for the on-disk log: `len | fnv1a(blob) | blob`.
    fn frame_bytes(&self, record: &CellRecord) -> Result<Vec<u8>, StoreError> {
        if record.index >= self.header.grid_size {
            return Err(StoreError::new(format!(
                "record index {} out of range (grid size {})",
                record.index, self.header.grid_size
            )));
        }
        let mut blob = Vec::with_capacity(16 + record.payload.len());
        blob.extend_from_slice(&record.index.to_le_bytes());
        blob.extend_from_slice(&record.key_digest.to_le_bytes());
        blob.extend_from_slice(&record.payload);
        let len = u32::try_from(blob.len())
            .ok()
            .filter(|&l| l <= MAX_BLOB_LEN)
            .ok_or_else(|| StoreError::new(format!("record too large: {} bytes", blob.len())))?;
        let mut frame = Vec::with_capacity(12 + blob.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&fnv1a(&blob).to_le_bytes());
        frame.extend_from_slice(&blob);
        Ok(frame)
    }

    /// Force everything appended so far to stable storage (power-loss
    /// durability; appends alone already survive process death).
    pub fn sync(&self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// Parse one frame at `offset`; `None` if the frame is short or fails its
/// checksum (i.e. the valid region ends before it).
fn read_frame(bytes: &[u8], offset: usize) -> Option<(CellRecord, usize)> {
    let head = bytes.get(offset..offset + 12)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    if !(16..=MAX_BLOB_LEN).contains(&len) {
        return None;
    }
    let stored_sum = u64_at(head, 4);
    let blob = bytes.get(offset + 12..offset + 12 + len as usize)?;
    if fnv1a(blob) != stored_sum {
        return None;
    }
    Some((
        CellRecord {
            index: u64_at(blob, 0),
            key_digest: u64_at(blob, 8),
            payload: blob[16..].to_vec(),
        },
        offset + 12 + len as usize,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ckpt_store_{}_{name}.ckpt", std::process::id()))
    }

    fn header() -> StoreHeader {
        StoreHeader {
            spec_digest: 0xabad_1dea,
            seed: 7,
            scale: 800,
            grid_size: 24,
        }
    }

    fn record(i: u64) -> CellRecord {
        CellRecord {
            index: i,
            key_digest: 1000 + i,
            payload: format!("cell-{i}-payload").into_bytes(),
        }
    }

    #[test]
    fn roundtrip_records_and_header() {
        let path = tmp("roundtrip");
        let mut store = SweepStore::create(&path, header()).unwrap();
        for i in [0, 5, 23] {
            store.append(&record(i)).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let (store, records, report) = SweepStore::open(&path).unwrap();
        assert_eq!(*store.header(), header());
        assert_eq!(records, vec![record(0), record(5), record(23)]);
        assert_eq!(report.records, 3);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.warning.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_reopen_extends_the_log() {
        let path = tmp("extend");
        let mut store = SweepStore::create(&path, header()).unwrap();
        store.append(&record(0)).unwrap();
        drop(store);
        let (mut store, _, _) = SweepStore::open(&path).unwrap();
        store.append(&record(1)).unwrap();
        drop(store);
        let (_, records, _) = SweepStore::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], record(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_warned_then_appendable() {
        let path = tmp("torn");
        let mut store = SweepStore::create(&path, header()).unwrap();
        store.append(&record(0)).unwrap();
        store.append(&record(1)).unwrap();
        drop(store);
        // Simulate a crash mid-append: half a frame of garbage at the tail.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x2a; 7]).unwrap();
        drop(f);

        let (mut store, records, report) = SweepStore::open(&path).unwrap();
        assert_eq!(records.len(), 2, "intact records survive");
        assert_eq!(report.truncated_bytes, 7);
        assert!(report.warning.as_deref().unwrap().contains("7 corrupt"));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The log is healthy again: appends land and reopen cleanly.
        store.append(&record(2)).unwrap();
        drop(store);
        let (_, records, report) = SweepStore::open(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert!(report.warning.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_append_is_recovered_on_the_next_open() {
        let path = tmp("torn_append");
        let mut store = SweepStore::create(&path, header()).unwrap();
        store.append(&record(0)).unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        store.append_torn(&record(1)).unwrap();
        assert!(
            std::fs::metadata(&path).unwrap().len() > clean_len,
            "the torn half-frame reached the file"
        );
        drop(store);

        let (mut store, records, report) = SweepStore::open(&path).unwrap();
        assert_eq!(records, vec![record(0)], "the torn record is dropped");
        assert!(report.truncated_bytes > 0);
        assert!(report.warning.as_deref().unwrap().contains("corrupt tail"));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The log is append-clean again: the re-evaluated cell lands.
        store.append(&record(1)).unwrap();
        drop(store);
        let (_, records, report) = SweepStore::open(&path).unwrap();
        assert_eq!(records, vec![record(0), record(1)]);
        assert!(report.warning.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_io_errors_are_classified() {
        let transient: StoreError =
            std::io::Error::new(std::io::ErrorKind::Interrupted, "blip").into();
        assert!(transient.is_transient(), "{transient}");
        assert_eq!(transient.kind(), Some(std::io::ErrorKind::Interrupted));
        assert!(transient.to_string().contains("interrupted"), "{transient}");
        let fatal: StoreError =
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "locked").into();
        assert!(!fatal.is_transient(), "{fatal}");
        assert_eq!(fatal.kind(), Some(std::io::ErrorKind::PermissionDenied));
        let format = StoreError::new("header checksum mismatch".into());
        assert!(!format.is_transient() && format.kind().is_none());
    }

    #[test]
    fn corrupt_mid_file_drops_everything_after_it() {
        let path = tmp("midflip");
        let mut store = SweepStore::create(&path, header()).unwrap();
        for i in 0..4 {
            store.append(&record(i)).unwrap();
        }
        drop(store);
        // Flip one payload byte inside record 1: its checksum fails, and
        // framing beyond it can no longer be trusted.
        let mut bytes = std::fs::read(&path).unwrap();
        let frame_len = 12 + 16 + record(0).payload.len();
        let target = HEADER_LEN as usize + frame_len + 12 + 16 + 2;
        bytes[target] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (_, records, report) = SweepStore::open(&path).unwrap();
        assert_eq!(records, vec![record(0)], "only the prefix survives");
        assert!(report.truncated_bytes > 0);
        assert!(report.warning.is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_header_is_a_named_error() {
        let path = tmp("shorthdr");
        std::fs::write(&path, b"CKPTSW").unwrap();
        let err = SweepStore::open(&path).unwrap_err();
        assert!(err.message.contains("header truncated"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = tmp("foreign");
        std::fs::write(&path, vec![0x41u8; 128]).unwrap();
        let err = SweepStore::open(&path).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatches_are_named() {
        let stored = header();
        let mut other = header();
        other.seed = 9;
        let err = stored.validate_against(&other).unwrap_err();
        assert!(err.message.contains("seed was 7"), "{err}");
        let mut other = header();
        other.spec_digest = 1;
        let err = stored.validate_against(&other).unwrap_err();
        assert!(err.message.contains("spec digest"), "{err}");
        let mut other = header();
        other.grid_size = 25;
        let err = stored.validate_against(&other).unwrap_err();
        assert!(err.message.contains("grid size"), "{err}");
        assert!(stored.validate_against(&header()).is_ok());
    }

    #[test]
    fn out_of_range_index_rejected_on_append_and_open() {
        let path = tmp("range");
        let mut store = SweepStore::create(&path, header()).unwrap();
        let err = store.append(&record(24)).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_drift_is_rejected() {
        let path = tmp("version");
        let store = SweepStore::create(&path, header()).unwrap();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = FORMAT_VERSION as u8 + 1; // bump stored version...
        let body_len = HEADER_LEN as usize - 8;
        let sum = fnv1a(&bytes[..body_len]); // ...and re-checksum it
        bytes[body_len..HEADER_LEN as usize].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = SweepStore::open(&path).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
