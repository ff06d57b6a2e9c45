//! Crash-safe persistence primitives: atomic file replacement and a
//! write-ahead log (WAL) of dynamic update batches.
//!
//! The dynamic serving layer (PR 5) applies UPDATE batches in memory and
//! hot-swaps epochs, but a crash loses every applied batch and a partially
//! written index file corrupts the target path. This module supplies the two
//! durability building blocks:
//!
//! * [`atomic_write`] / [`atomic_write_with`] — write to a sibling temp
//!   file, `sync_all`, `rename` over the target, then fsync the parent
//!   directory, so the target path always holds either the complete old
//!   bytes or the complete new bytes;
//! * a WAL ([`WalWriter`] / [`read_wal`]) that journals update batches with
//!   per-record length prefixes and FNV-1a checksums, fsyncs each append,
//!   and on recovery distinguishes a *torn tail* (the expected artefact of a
//!   crash mid-append: tolerated and truncated) from *corruption* (any
//!   byte-flip inside a complete record or the header: a typed
//!   [`PllError::Format`], never a panic).
//!
//! # WAL file layout (little-endian)
//!
//! ```text
//! header  40 bytes:
//!   magic             8 bytes  "PLLWAL01"
//!   fingerprint       u64      [`fingerprint_file`] of the base index generation
//!   prev_fingerprint  u64      fingerprint of the previous generation
//!   base_epoch        u64      epoch already folded into the base index
//!   checksum          u64      FNV-1a of header bytes 0..32
//! records, each:
//!   len       u32     payload length in bytes
//!   checksum  u64     FNV-1a of the payload
//!   payload   len bytes:
//!     kind    u8      1 = Update, 2 = Commit, 3 = Rebase
//!     meta    u64     Update: journal-time epoch; Commit: sequence number
//!                     of the Update record it commits; Rebase: informational
//!     count   u32     number of (u32, u32) edge pairs that follow
//!     edges   count × (u32, u32)
//! ```
//!
//! The header is written via [`atomic_write`], so a WAL file never exists
//! with a partial header: a file shorter than the header is corruption, not
//! a torn create. Appends are a single `write_all` + `sync_all`, so a crash
//! mid-append leaves a record whose length prefix exceeds the remaining
//! bytes — the torn tail that [`read_wal`] truncates. One ambiguity is
//! inherent to length-prefixed logs: a byte-flip that *enlarges* a record's
//! `len` field past the end of the file is indistinguishable from a torn
//! tail and truncates from that record onward; flips anywhere else produce
//! a typed error because the header and every complete record carry
//! checksums over fixed spans.

use crate::checksum::{fnv1a, Fnv1a};
use crate::error::{PllError, Result};
use crate::types::Vertex;
use crate::v2;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"PLLWAL01";
/// Size of the fixed WAL header in bytes.
pub const WAL_HEADER_LEN: u64 = 40;
/// Per-record framing overhead: `len` (u32) + checksum (u64).
const RECORD_OVERHEAD: u64 = 12;
/// Fixed payload prefix: kind (u8) + meta (u64) + count (u32).
const PAYLOAD_PREFIX: usize = 13;
/// Upper bound on a single record payload (1 GiB); larger lengths are
/// treated as corruption rather than attempted allocations.
const MAX_RECORD_PAYLOAD: u64 = 1 << 30;
/// Largest number of edges a single record may carry without its payload
/// exceeding `MAX_RECORD_PAYLOAD` (≈134M). Writers of unbounded edge
/// sets (a snapshot's `Rebase` of every edge inserted across server
/// lifetimes) must chunk at this bound; [`WalRecord`] encoding refuses
/// larger records with a typed error rather than writing a length prefix
/// the next [`read_wal`] would reject as corrupt (or, past `u32::MAX`
/// payload bytes, silently truncating the length field).
pub const MAX_RECORD_EDGES: usize = (MAX_RECORD_PAYLOAD as usize - PAYLOAD_PREFIX) / 8;

/// Refuses an edge count whose record payload would exceed
/// [`MAX_RECORD_PAYLOAD`], keeping every on-disk length prefix readable.
fn check_record_edges(count: usize) -> Result<()> {
    if count > MAX_RECORD_EDGES {
        return Err(PllError::Format {
            message: format!(
                "WAL record with {count} edges exceeds the {MAX_RECORD_EDGES}-edge \
                 record cap; split it into chunks"
            ),
        });
    }
    Ok(())
}

/// The fingerprint a v2 header already holds, if its version is ≥ 3.
fn stamped_fingerprint(header: Option<v2::HeaderChecksum>) -> Option<u64> {
    header.filter(|h| h.version >= 3).map(|h| h.value)
}

/// WAL fingerprint of an in-memory index image (e.g. a serialised index
/// about to be snapshotted): what [`fingerprint_file`] returns once the
/// image is on disk.
///
/// For a v2 image of header version ≥ 3 that is the header's whole-file
/// checksum, read off the header — [`AnyIndex::open`](v2::AnyIndex::open)
/// verifies it against every byte, so hashing the image again would
/// only repeat that pass. Every other image (v1, and v2 header version
/// 2, whose journals predate this rule) keeps the bytewise FNV-1a of
/// the whole image, so a WAL the previous binary keyed still matches.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    stamped_fingerprint(v2::header_checksum(bytes)).unwrap_or_else(|| fnv1a(bytes))
}

/// [`fingerprint_bytes`] of a file's contents: one 64-byte read for a
/// stamped v2 index, a chunked streaming FNV-1a otherwise.
pub fn fingerprint_file(path: &Path) -> Result<u64> {
    if let Some(stamped) = stamped_fingerprint(v2::read_header_checksum(path)?) {
        return Ok(stamped);
    }
    let mut file = File::open(path)?;
    let mut h = Fnv1a::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(h.finish());
        }
        h.update(&buf[..n]);
    }
}

/// Writes `bytes` to `path` atomically: the target either keeps its old
/// contents or holds exactly `bytes`, even across a crash at any point.
///
/// Implementation: write to a sibling `.tmp.<pid>` file, `sync_all`, rename
/// over the target, then fsync the parent directory so the rename itself is
/// durable.
///
/// ```
/// use pll_core::wal::atomic_write;
///
/// let dir = std::env::temp_dir().join(format!("pll-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let target = dir.join("index.pll2");
///
/// atomic_write(&target, b"generation 1").unwrap();
/// // Replacement is all-or-nothing: readers of `target` only ever see
/// // one complete generation, never a partial write.
/// atomic_write(&target, b"generation 2").unwrap();
/// assert_eq!(std::fs::read(&target).unwrap(), b"generation 2");
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    atomic_write_with(path, |w| w.write_all(bytes).map_err(PllError::from))
}

/// Like [`atomic_write`], but the caller streams the contents through a
/// buffered writer. If the closure (or any subsequent step) fails, the
/// temporary file is removed and the target is left untouched.
pub fn atomic_write_with<F>(path: &Path, write: F) -> Result<()>
where
    F: FnOnce(&mut BufWriter<File>) -> Result<()>,
{
    let file_name = path
        .file_name()
        .ok_or_else(|| PllError::Format {
            message: format!("atomic_write: path {} has no file name", path.display()),
        })?
        .to_os_string();
    let mut tmp_name = file_name;
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);

    let cleanup = |e: PllError| {
        let _ = fs::remove_file(&tmp);
        e
    };
    let file = File::create(&tmp).map_err(PllError::from)?;
    let mut writer = BufWriter::new(file);
    write(&mut writer).map_err(cleanup)?;
    let file = writer
        .into_inner()
        .map_err(|e| cleanup(PllError::Io(e.into_error())))?;
    file.sync_all().map_err(|e| cleanup(PllError::Io(e)))?;
    fs::rename(&tmp, path).map_err(|e| cleanup(PllError::Io(e)))?;
    // Make the rename itself durable. Directories cannot be opened for
    // fsync on every platform, so this step is best-effort.
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Fixed per-file WAL metadata, keying the log to a base index generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalHeader {
    /// [`fingerprint_file`] of the index file this WAL journals against.
    pub fingerprint: u64,
    /// Fingerprint of the previous index generation. During snapshot
    /// compaction the WAL is reset *before* the new index lands, so a crash
    /// between the two leaves a new WAL next to the old index; recovery
    /// accepts either fingerprint and the leading `Rebase` record restores
    /// the state the old index is missing.
    pub prev_fingerprint: u64,
    /// Epoch already folded into the base index (0 for a freshly built
    /// index); recovery restores the epoch counter to this value after
    /// replaying the `Rebase` record.
    pub base_epoch: u64,
}

impl WalHeader {
    fn to_bytes(self) -> [u8; WAL_HEADER_LEN as usize] {
        let mut out = [0u8; WAL_HEADER_LEN as usize];
        out[0..8].copy_from_slice(WAL_MAGIC);
        out[8..16].copy_from_slice(&self.fingerprint.to_le_bytes());
        out[16..24].copy_from_slice(&self.prev_fingerprint.to_le_bytes());
        out[24..32].copy_from_slice(&self.base_epoch.to_le_bytes());
        let sum = fnv1a(&out[0..32]);
        out[32..40].copy_from_slice(&sum.to_le_bytes());
        out
    }
}

/// One journaled record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// An UPDATE batch journaled *before* it was applied.
    Update {
        /// The serving epoch at journal time (metadata; replay recomputes
        /// epochs deterministically).
        epoch: u64,
        /// The edge batch exactly as received.
        edges: Vec<(Vertex, Vertex)>,
    },
    /// Marks the `seq`-th `Update` record (0-based, counting only `Update`
    /// records) as published. Advisory: recovery replays every complete
    /// `Update` record whether or not it is committed, because replay is
    /// idempotent — an uncommitted batch was journaled and possibly applied,
    /// and re-inserting an existing edge is skipped.
    Commit {
        /// 0-based index of the committed `Update` record.
        seq: u64,
    },
    /// Written as the first record of a compacted WAL: every edge inserted
    /// since the *graph file* was loaded. If the snapshot index landed, these
    /// all prune to no-ops on replay; if the crash beat the snapshot rename,
    /// they rebuild the missing state on top of the previous index.
    Rebase {
        /// All inserted edges since the base graph.
        edges: Vec<(Vertex, Vertex)>,
    },
}

impl WalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let (kind, meta, edges): (u8, u64, &[(Vertex, Vertex)]) = match self {
            WalRecord::Update { epoch, edges } => (1, *epoch, edges),
            WalRecord::Commit { seq } => (2, *seq, &[]),
            WalRecord::Rebase { edges } => (3, 0, edges),
        };
        let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + edges.len() * 8);
        payload.push(kind);
        payload.extend_from_slice(&meta.to_le_bytes());
        payload.extend_from_slice(&(edges.len() as u32).to_le_bytes());
        for &(u, v) in edges {
            payload.extend_from_slice(&u.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload
    }

    fn encode(&self) -> Result<Vec<u8>> {
        let edge_count = match self {
            WalRecord::Update { edges, .. } | WalRecord::Rebase { edges } => edges.len(),
            WalRecord::Commit { .. } => 0,
        };
        check_record_edges(edge_count)?;
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(RECORD_OVERHEAD as usize + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    fn decode_payload(payload: &[u8]) -> Result<WalRecord> {
        let malformed = |message: String| PllError::Format { message };
        if payload.len() < PAYLOAD_PREFIX {
            return Err(malformed(format!(
                "WAL record payload of {} bytes is shorter than the {} byte prefix",
                payload.len(),
                PAYLOAD_PREFIX
            )));
        }
        let kind = payload[0];
        let meta = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(payload[9..13].try_into().expect("4 bytes")) as usize;
        if payload.len() != PAYLOAD_PREFIX + count * 8 {
            return Err(malformed(format!(
                "WAL record declares {count} edges but carries {} payload bytes",
                payload.len()
            )));
        }
        let mut edges = Vec::with_capacity(count);
        for i in 0..count {
            let at = PAYLOAD_PREFIX + i * 8;
            let u = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
            let v = u32::from_le_bytes(payload[at + 4..at + 8].try_into().expect("4 bytes"));
            edges.push((u, v));
        }
        match kind {
            1 => Ok(WalRecord::Update { epoch: meta, edges }),
            2 => {
                if count != 0 {
                    return Err(malformed(format!(
                        "WAL commit record carries {count} edges; commits have none"
                    )));
                }
                Ok(WalRecord::Commit { seq: meta })
            }
            3 => Ok(WalRecord::Rebase { edges }),
            k => Err(malformed(format!("unknown WAL record kind {k}"))),
        }
    }
}

/// The result of reading a WAL file: header, every complete record, and how
/// much of the file they span.
#[derive(Debug)]
pub struct WalContents {
    /// The validated file header.
    pub header: WalHeader,
    /// Every complete, checksum-verified record in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + complete records). A
    /// writer reopening this WAL truncates the file to this length.
    pub valid_len: u64,
    /// Bytes beyond `valid_len` — the torn tail left by a crash mid-append
    /// (0 for a cleanly closed log).
    pub truncated_bytes: u64,
}

/// Reads a WAL file. Returns `Ok(None)` if the file does not exist (no log
/// yet). A torn tail record — the expected artefact of a crash mid-append —
/// is tolerated and reported via `truncated_bytes`; any other malformation
/// (bad magic, short file, checksum mismatch, structural nonsense inside a
/// complete record) is a typed [`PllError::Format`].
pub fn read_wal(path: &Path) -> Result<Option<WalContents>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PllError::Io(e)),
    };
    read_wal_bytes(&bytes).map(Some)
}

fn read_wal_bytes(bytes: &[u8]) -> Result<WalContents> {
    let corrupt = |message: String| PllError::Format { message };
    // The header is created atomically, so a short or mismatched header is
    // corruption — it cannot be a torn create.
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        return Err(corrupt(format!(
            "WAL file of {} bytes is shorter than the {WAL_HEADER_LEN} byte header",
            bytes.len()
        )));
    }
    if &bytes[0..8] != WAL_MAGIC {
        return Err(corrupt("WAL file has bad magic bytes".into()));
    }
    let stored = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
    if stored != fnv1a(&bytes[0..32]) {
        return Err(corrupt("WAL header checksum mismatch".into()));
    }
    let header = WalHeader {
        fingerprint: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        prev_fingerprint: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
        base_epoch: u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")),
    };

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        let rem = (bytes.len() - pos) as u64;
        if rem == 0 {
            // Cleanly closed log.
            break;
        }
        if rem < RECORD_OVERHEAD {
            // Not even a full length prefix + checksum: torn tail.
            break;
        }
        let len = u64::from(u32::from_le_bytes(
            bytes[pos..pos + 4].try_into().expect("4 bytes"),
        ));
        if len > MAX_RECORD_PAYLOAD {
            return Err(corrupt(format!(
                "WAL record at byte {pos} declares an implausible {len} byte payload"
            )));
        }
        if RECORD_OVERHEAD + len > rem {
            // The append was cut short: torn tail.
            break;
        }
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let payload = &bytes[pos + 12..pos + 12 + len as usize];
        // A crashed append only ever leaves a *short* record (single
        // write_all), so a full-length record with a bad checksum is
        // corruption even at the tail.
        if sum != fnv1a(payload) {
            return Err(corrupt(format!(
                "WAL record at byte {pos} fails its checksum"
            )));
        }
        records.push(WalRecord::decode_payload(payload)?);
        pos += (RECORD_OVERHEAD + len) as usize;
    }
    Ok(WalContents {
        header,
        records,
        valid_len: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
    })
}

/// Appends records to a WAL file, fsyncing each append.
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Creates (or atomically replaces) a WAL at `path` containing `header`
    /// and `initial` records, then reopens it for appending. Because the
    /// initial image goes through [`atomic_write`], a crash during creation
    /// never leaves a partial header on disk.
    pub fn create(path: &Path, header: &WalHeader, initial: &[WalRecord]) -> Result<WalWriter> {
        let mut image = Vec::new();
        image.extend_from_slice(&header.to_bytes());
        for rec in initial {
            image.extend_from_slice(&rec.encode()?);
        }
        atomic_write(path, &image)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter { file })
    }

    /// Reopens an existing WAL for appending, truncating it to `valid_len`
    /// first (discarding the torn tail reported by [`read_wal`]).
    pub fn open_existing(path: &Path, valid_len: u64) -> Result<WalWriter> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let actual = file.metadata()?.len();
        if actual > valid_len {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter { file })
    }

    /// Appends one record and fsyncs. The record is written with a single
    /// `write_all`, so a crash mid-append leaves at most a torn tail that
    /// the next [`read_wal`] truncates. A record over [`MAX_RECORD_EDGES`]
    /// is refused with a typed error before any byte is written.
    ///
    /// Returns a receipt with the appended byte count and the fsync wall
    /// time, so callers can account WAL throughput and sync latency
    /// (`pll-server` feeds these into its metrics registry); callers
    /// that only need durability can ignore it.
    pub fn append(&mut self, record: &WalRecord) -> Result<AppendReceipt> {
        let encoded = record.encode()?;
        self.file.write_all(&encoded)?;
        let sync_started = std::time::Instant::now();
        self.file.sync_all()?;
        Ok(AppendReceipt {
            bytes: encoded.len() as u64,
            fsync_nanos: sync_started.elapsed().as_nanos() as u64,
        })
    }
}

/// Accounting for one [`WalWriter::append`]: how many bytes landed in
/// the journal and how long the fsync took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Encoded record size appended to the WAL.
    pub bytes: u64,
    /// Wall-clock nanoseconds the `fsync` (`File::sync_all`) took.
    pub fsync_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("pll_wal_test_{}_{id}_{name}", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Rebase {
                edges: vec![(7, 9)],
            },
            WalRecord::Update {
                epoch: 3,
                edges: vec![(1, 2), (3, 4), (1, 2)],
            },
            WalRecord::Commit { seq: 0 },
            WalRecord::Update {
                epoch: 4,
                edges: vec![],
            },
        ]
    }

    #[test]
    fn wal_roundtrip_create_append_read() {
        let path = temp_path("roundtrip");
        let header = WalHeader {
            fingerprint: 0xdead_beef,
            prev_fingerprint: 0xdead_beef,
            base_epoch: 5,
        };
        let records = sample_records();
        let mut writer = WalWriter::create(&path, &header, &records[..1]).unwrap();
        for rec in &records[1..] {
            writer.append(rec).unwrap();
        }
        drop(writer);
        let contents = read_wal(&path).unwrap().unwrap();
        assert_eq!(contents.header, header);
        assert_eq!(contents.records, records);
        assert_eq!(contents.truncated_bytes, 0);
        assert_eq!(contents.valid_len, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_wal_reads_as_none() {
        assert!(read_wal(&temp_path("missing")).unwrap().is_none());
    }

    #[test]
    fn torn_tail_is_truncated_at_every_boundary() {
        let header = WalHeader {
            fingerprint: 1,
            prev_fingerprint: 1,
            base_epoch: 0,
        };
        let mut image = Vec::new();
        image.extend_from_slice(&header.to_bytes());
        let complete = vec![
            WalRecord::Update {
                epoch: 1,
                edges: vec![(0, 1)],
            },
            WalRecord::Commit { seq: 0 },
        ];
        for rec in &complete {
            image.extend_from_slice(&rec.encode().unwrap());
        }
        let valid_len = image.len() as u64;
        let tail = WalRecord::Update {
            epoch: 2,
            edges: vec![(2, 3), (4, 5)],
        }
        .encode()
        .unwrap();
        // Every strictly-partial prefix of the final append must be treated
        // as a torn tail: both records survive, the tail is reported.
        for cut in 0..tail.len() {
            let mut bytes = image.clone();
            bytes.extend_from_slice(&tail[..cut]);
            let contents = read_wal_bytes(&bytes).unwrap();
            assert_eq!(contents.records, complete, "cut at {cut}");
            assert_eq!(contents.valid_len, valid_len, "cut at {cut}");
            assert_eq!(contents.truncated_bytes, cut as u64, "cut at {cut}");
        }
    }

    #[test]
    fn open_existing_truncates_the_torn_tail() {
        let path = temp_path("truncate");
        let header = WalHeader {
            fingerprint: 2,
            prev_fingerprint: 2,
            base_epoch: 0,
        };
        let first = WalRecord::Update {
            epoch: 1,
            edges: vec![(0, 1)],
        };
        let mut writer = WalWriter::create(&path, &header, std::slice::from_ref(&first)).unwrap();
        drop(writer);
        // Simulate a crash mid-append: half a record at the tail.
        let tail = WalRecord::Update {
            epoch: 2,
            edges: vec![(1, 2)],
        }
        .encode()
        .unwrap();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&tail[..tail.len() / 2]).unwrap();
        }
        let contents = read_wal(&path).unwrap().unwrap();
        assert!(contents.truncated_bytes > 0);
        writer = WalWriter::open_existing(&path, contents.valid_len).unwrap();
        let second = WalRecord::Commit { seq: 0 };
        writer.append(&second).unwrap();
        drop(writer);
        let contents = read_wal(&path).unwrap().unwrap();
        assert_eq!(contents.records, vec![first, second]);
        assert_eq!(contents.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_byte_flip_is_truncation_or_typed_error_never_panic() {
        let header = WalHeader {
            fingerprint: 42,
            prev_fingerprint: 41,
            base_epoch: 9,
        };
        let mut image = Vec::new();
        image.extend_from_slice(&header.to_bytes());
        let records = sample_records();
        // Byte positions of the records' u32 length prefixes: a flip there
        // can enlarge the length past EOF, which is indistinguishable from
        // a torn tail (the documented ambiguity of length-prefixed logs).
        let mut len_field: Vec<bool> = Vec::new();
        for rec in &records {
            let encoded = rec.encode().unwrap();
            for i in 0..encoded.len() {
                len_field.push(i < 4);
            }
            image.extend_from_slice(&encoded);
        }
        for at in 0..image.len() {
            for flip in [0x01u8, 0x80u8] {
                let mut bytes = image.clone();
                bytes[at] ^= flip;
                match read_wal_bytes(&bytes) {
                    // A flip may mimic a torn tail (e.g. enlarging the last
                    // record's length prefix); the recovered records must
                    // then be a strict prefix of the real ones.
                    Ok(contents) => {
                        assert!(
                            records.starts_with(&contents.records),
                            "flip at {at}: recovered records are not a prefix"
                        );
                        assert!(
                            contents.records.len() < records.len(),
                            "flip at {at}: a corrupted image decoded fully"
                        );
                    }
                    Err(PllError::Format { .. }) => {}
                    Err(e) => panic!("flip at {at}: unexpected error kind {e}"),
                }
                // Outside the length prefixes a flip can never be mistaken
                // for a torn tail: the header and every payload/checksum
                // byte is covered by a checksum over a fixed span.
                let in_len_field =
                    at >= WAL_HEADER_LEN as usize && len_field[at - WAL_HEADER_LEN as usize];
                if !in_len_field {
                    assert!(
                        matches!(read_wal_bytes(&bytes), Err(PllError::Format { .. })),
                        "flip at {at}: non-length corruption must be a typed error"
                    );
                }
            }
        }
    }

    #[test]
    fn short_file_and_bad_magic_are_typed_errors() {
        assert!(matches!(
            read_wal_bytes(&[0u8; 10]),
            Err(PllError::Format { .. })
        ));
        let mut bytes = WalHeader {
            fingerprint: 0,
            prev_fingerprint: 0,
            base_epoch: 0,
        }
        .to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            read_wal_bytes(&bytes),
            Err(PllError::Format { .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let path = temp_path("atomic");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_partial_write_never_replaces_the_old_file() {
        let path = temp_path("partial");
        std::fs::write(&path, b"precious old index").unwrap();
        // Simulate a crash mid-write: the closure emits half the data and
        // then fails, as an interrupted serialisation would.
        let result = atomic_write_with(&path, |w| {
            w.write_all(b"half of the new conte")
                .map_err(PllError::from)?;
            Err(PllError::Format {
                message: "simulated crash mid-write".into(),
            })
        });
        assert!(result.is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"precious old index",
            "a failed write must leave the old file untouched"
        );
        // And no temp litter alongside it.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                !(name.starts_with(&stem) && name.contains(".tmp.")),
                "leftover temp file {name}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_records_are_refused_with_a_typed_error() {
        // The cap sits exactly where a record's payload would cross
        // MAX_RECORD_PAYLOAD and the next read_wal would reject the log
        // as corrupt.
        assert!(check_record_edges(MAX_RECORD_EDGES).is_ok());
        assert!(matches!(
            check_record_edges(MAX_RECORD_EDGES + 1),
            Err(PllError::Format { .. })
        ));
        assert!(
            (PAYLOAD_PREFIX + MAX_RECORD_EDGES * 8) as u64 <= MAX_RECORD_PAYLOAD,
            "a maximal record must still be readable"
        );
        assert!(
            (PAYLOAD_PREFIX + (MAX_RECORD_EDGES + 1) * 8) as u64 > MAX_RECORD_PAYLOAD,
            "the cap must not be needlessly conservative"
        );
        // Ordinary records still encode.
        for rec in sample_records() {
            assert!(rec.encode().is_ok());
        }
    }

    #[test]
    fn fingerprints_agree_between_file_and_bytes() {
        let path = temp_path("fingerprint");
        let data = b"some index image bytes".repeat(1000);
        std::fs::write(&path, &data).unwrap();
        assert_eq!(fingerprint_file(&path).unwrap(), fingerprint_bytes(&data));
        assert_eq!(fingerprint_bytes(&data), fnv1a(&data));
        // Shorter than a v2 header, and empty: still the plain FNV.
        for short in [&data[..10], &data[..0]] {
            std::fs::write(&path, short).unwrap();
            assert_eq!(fingerprint_file(&path).unwrap(), fnv1a(short));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stamped_v2_index_is_fingerprinted_by_its_header_checksum() {
        let g = pll_graph::gen::path(30).unwrap();
        let index = crate::IndexBuilder::new().build(&g).unwrap();
        let mut image = Vec::new();
        v2::save_v2_index(&index, &mut image).unwrap();
        let stamped = u64::from_le_bytes(image[56..64].try_into().unwrap());
        let path = temp_path("stamped");
        std::fs::write(&path, &image).unwrap();
        assert_eq!(fingerprint_bytes(&image), stamped);
        assert_eq!(fingerprint_file(&path).unwrap(), stamped);
        // The same index as the previous binary wrote it (header version
        // 2): the whole-file FNV its WALs are keyed by, not the header.
        image[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &image).unwrap();
        assert_eq!(fingerprint_bytes(&image), fnv1a(&image));
        assert_eq!(fingerprint_file(&path).unwrap(), fnv1a(&image));
        let _ = std::fs::remove_file(&path);
    }
}
