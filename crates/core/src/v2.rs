//! The v2 on-disk index format: zero-copy, section-aligned, queryable in
//! place.
//!
//! The v1 format (`crate::serialize`) is a stream the loader parses into
//! owned `Vec`s — an O(index) copy before the first query. v2 instead
//! lays every array out as its own little-endian section starting on a
//! 64-byte boundary, so the section layout *is* the in-memory layout of
//! the view backends in [`crate::storage`]. Opening an index is one read
//! of the file into one buffer (or an `mmap` with the `mmap` feature on
//! Linux), one checksum pass over every byte, one O(entries) structural
//! scan, then pointer casts — no per-label parsing, no per-label
//! allocation. On an 18 MB index that is ≈ 13 ms: ≈ 9 ms read, ≈ 3 ms
//! checksum, < 1 ms scan. Writing is the mirror image: the arenas are
//! checksummed and streamed where they lie, with no file-sized buffer.
//!
//! ```text
//! header   64 bytes
//!   0   magic          8 bytes   PLLIDX02 | PLLDIDX2 | PLLWIDX2 | PLLWDID2
//!   8   version        u32       3 (2 is still read: same layout, FNV-1a checksum)
//!   12  flags          u32       bit 0: parents stored
//!   16  n              u64       vertices
//!   24  t              u64       bit-parallel roots (undirected only)
//!   32  file_len       u64       total file bytes (truncation check)
//!   40  section_count  u64
//!   48  reserved       u64       0
//!   56  checksum       u64       Wide64 over the file, this field read as 0
//! stats    128 bytes at offset 64 (persisted ConstructionStats)
//! table    section_count × 16 bytes at offset 192
//!   id u32, elem_size u32, byte_offset u64 — elem_count is implied by the
//!   header fields per id, and re-checked on open
//! sections each at its 64-byte-aligned byte_offset, zero-padded between
//! ```
//!
//! Unlike v1, the bit-parallel entries are stored structure-of-arrays
//! (`dist` / `set_minus1` / `set_zero` sections): the in-memory `BpEntry`
//! is packed to 17 bytes, so its masks are unaligned and cannot be cast
//! to `u64` in place, while each section is aligned for a zero-copy view.
//!
//! [`AnyIndex`] is the one-stop opener: it sniffs the magic and yields
//! either an owned index (v1 files, parsed as before) or a zero-copy view
//! (v2 files) for any of the four variants.

use crate::bp::{BitParallelLabels, BpEntry};
use crate::checksum::{Fnv1a, Wide64};
use crate::directed::{DirectedPllIndex, DirectedPllIndexView};
use crate::error::{PllError, Result};
use crate::index::{PllIndex, PllIndexView};
use crate::kernel::DIST8_ESCAPE;
use crate::label::LabelSet;
use crate::serialize::{detect_format_versioned, FormatVersion, IndexFormat};
use crate::stats::ConstructionStats;
use crate::storage::{
    pod_bytes, AlignedBytes, Pod, SectionSlice, ViewBp, ViewLabels, SECTION_ALIGN,
};
use crate::types::{Dist, Rank, WDist, INF8, RANK_SENTINEL};
use crate::weighted::{WeightedPllIndex, WeightedPllIndexView};
use crate::weighted_directed::{WeightedDirectedPllIndex, WeightedDirectedPllIndexView};
use crate::weighted_dist8::{WeightedDist8Index, WeightedDist8IndexView};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

#[cfg(target_endian = "big")]
compile_error!(
    "the v2 zero-copy reader casts little-endian sections in place and \
     requires a little-endian target"
);

/// v2 magic for the undirected unweighted index.
pub const V2_UNDIRECTED_MAGIC: &[u8; 8] = b"PLLIDX02";
/// v2 magic for the directed index.
pub const V2_DIRECTED_MAGIC: &[u8; 8] = b"PLLDIDX2";
/// v2 magic for the weighted index.
pub const V2_WEIGHTED_MAGIC: &[u8; 8] = b"PLLWIDX2";
/// v2 magic for the weighted directed index.
pub const V2_WEIGHTED_DIRECTED_MAGIC: &[u8; 8] = b"PLLWDID2";

/// Header `version` every writer emits: [`Wide64`] whole-file checksum.
const VERSION: u32 = 3;
/// Header `version` of files written before the checksum changed: the
/// same layout under a bytewise FNV-1a checksum. Still opened, never
/// written.
const VERSION_FNV: u32 = 2;
/// Byte offset of the header's checksum field.
const CHECKSUM_OFFSET: usize = 56;
const FLAG_PARENTS: u32 = 1;
/// The weighted index's distance arena is narrowed to `u8` + escape
/// sidecar (`SEC_DISTS8` + `SEC_ESC_POS`/`SEC_ESC_VAL` replace
/// `SEC_DISTS32`); see `weighted_dist8`.
const FLAG_DIST8: u32 = 2;
/// Byte length of the fixed v2 header.
pub const HEADER_LEN: usize = 64;
const STATS_LEN: usize = 128;
const TABLE_OFFSET: usize = HEADER_LEN + STATS_LEN;
const TABLE_ENTRY_LEN: usize = 16;
/// Highest section id + 1 (table slots the parser tracks).
const MAX_SECTION_ID: usize = 18;

// Section ids. The OUT side of a directed index reuses the plain label
// ids; the IN side has its own.
const SEC_ORDER: u32 = 1;
const SEC_INV: u32 = 2;
const SEC_OFFSETS: u32 = 3;
const SEC_RANKS: u32 = 4;
const SEC_DISTS8: u32 = 5;
const SEC_DISTS32: u32 = 6;
const SEC_PARENTS: u32 = 7;
const SEC_BP_ROOTS: u32 = 8;
const SEC_BP_DIST: u32 = 9;
const SEC_BP_M1: u32 = 10;
const SEC_BP_Z: u32 = 11;
const SEC_OFFSETS_IN: u32 = 12;
const SEC_RANKS_IN: u32 = 13;
const SEC_DISTS8_IN: u32 = 14;
const SEC_DISTS32_IN: u32 = 15;
const SEC_ESC_POS: u32 = 16;
const SEC_ESC_VAL: u32 = 17;

/// A whole-file checksum as a function of `(head, rest)`: the header up
/// to its checksum field, and everything after the field.
type FileChecksum = fn(&[u8], &[u8]) -> u64;

/// Version 3: [`Wide64`] over the file image with the checksum field
/// read as zero, so every hashed word sits at its file offset.
fn wide64_file(head: &[u8], rest: &[u8]) -> u64 {
    let mut h = Wide64::new();
    h.update(head);
    h.update(&[0u8; HEADER_LEN - CHECKSUM_OFFSET]);
    h.update(rest);
    h.finish()
}

/// Version 2: bytewise FNV-1a over the file minus the checksum field.
fn fnv1a_file(head: &[u8], rest: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(head);
    h.update(rest);
    h.finish()
}

/// The whole-file checksum a header `version` declares — its name and
/// its function of `(head, rest)` — or `None` for a version this build
/// does not read.
fn checksum_of_version(version: u32) -> Option<(&'static str, FileChecksum)> {
    match version {
        VERSION => Some(("wide64", wide64_file)),
        VERSION_FNV => Some(("fnv1a", fnv1a_file)),
        _ => None,
    }
}

/// What a v2 header declares about the file's checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeaderChecksum {
    /// Header `version` field (2 or 3).
    pub version: u32,
    /// Digest name: `"fnv1a"` (version 2) or `"wide64"` (version 3).
    pub kind: &'static str,
    /// The stored checksum, which [`AnyIndex::open`] verifies against
    /// the whole file.
    pub value: u64,
}

/// Reads the checksum declaration off the first [`HEADER_LEN`] bytes of
/// a file without verifying it; `None` when they are not a v2 header of
/// a supported version.
pub fn header_checksum(head: &[u8]) -> Option<HeaderChecksum> {
    let head: &[u8; HEADER_LEN] = head.get(..HEADER_LEN)?.try_into().ok()?;
    let magic: &[u8; 8] = head[0..8].try_into().expect("8 bytes");
    if !matches!(detect_format_versioned(magic), Ok((_, FormatVersion::V2))) {
        return None;
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    let (kind, _) = checksum_of_version(version)?;
    let value = u64::from_le_bytes(head[CHECKSUM_OFFSET..].try_into().expect("8 bytes"));
    Some(HeaderChecksum {
        version,
        kind,
        value,
    })
}

/// [`header_checksum`] of the file at `path`: one 64-byte read.
pub fn read_header_checksum(path: &Path) -> Result<Option<HeaderChecksum>> {
    use std::io::Read;
    let mut head = Vec::with_capacity(HEADER_LEN);
    std::fs::File::open(path)?
        .take(HEADER_LEN as u64)
        .read_to_end(&mut head)?;
    Ok(header_checksum(&head))
}

fn format_err(message: impl Into<String>) -> PllError {
    PllError::Format {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// One section's payload: an arena the writer hashes and writes where
/// it lies, never copies.
enum SecData<'a> {
    /// A [`Pod`] arena viewed as its little-endian bytes.
    Pod { elem_size: usize, bytes: &'a [u8] },
    /// One field of the array-of-structs bit-parallel arena, gathered
    /// through a small fixed buffer (see the module docs on why the file
    /// stores it structure-of-arrays).
    Bp(&'a [BpEntry], BpField),
}

#[derive(Clone, Copy)]
enum BpField {
    Dist,
    Minus1,
    Zero,
}

/// Entries gathered per [`SecData::Bp`] chunk: a 64 KiB stack buffer,
/// large enough that a `BufWriter<File>` passes each chunk straight to
/// one `write` call.
const BP_CHUNK: usize = 8192;

impl<'a> SecData<'a> {
    fn pod<T: Pod>(arena: &'a [T]) -> SecData<'a> {
        SecData::Pod {
            elem_size: T::SIZE,
            bytes: pod_bytes(arena),
        }
    }
    fn elem_size(&self) -> usize {
        match self {
            SecData::Pod { elem_size, .. } => *elem_size,
            SecData::Bp(_, BpField::Dist) => 1,
            SecData::Bp(..) => 8,
        }
    }
    fn byte_len(&self) -> usize {
        match self {
            SecData::Pod { bytes, .. } => bytes.len(),
            SecData::Bp(entries, _) => entries.len() * self.elem_size(),
        }
    }
    /// Feeds the section's bytes to `sink` in file order.
    fn emit(&self, sink: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let (entries, field) = match self {
            SecData::Pod { bytes, .. } => return sink(bytes),
            SecData::Bp(entries, field) => (entries, *field),
        };
        // One loop body for the three fields: a per-field generic helper
        // reads better but measured ~1.6x slower on a 13 MB arena.
        let mut buf = [0u8; BP_CHUNK * 8];
        for chunk in entries.chunks(BP_CHUNK) {
            let len = match field {
                BpField::Dist => {
                    for (out, e) in buf.iter_mut().zip(chunk) {
                        *out = e.dist;
                    }
                    chunk.len()
                }
                BpField::Minus1 | BpField::Zero => {
                    for (out, e) in buf.chunks_exact_mut(8).zip(chunk) {
                        let mask = match field {
                            BpField::Minus1 => e.set_minus1,
                            _ => e.set_zero,
                        };
                        out.copy_from_slice(&mask.to_le_bytes());
                    }
                    chunk.len() * 8
                }
            };
            sink(&buf[..len])?;
        }
        Ok(())
    }
}

fn align_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

fn stats_block(stats: &ConstructionStats) -> [u8; STATS_LEN] {
    let mut out = [0u8; STATS_LEN];
    let fields: [u64; 13] = [
        stats.order_seconds.to_bits(),
        stats.relabel_seconds.to_bits(),
        stats.bp_seconds.to_bits(),
        stats.pruned_seconds.to_bits(),
        stats.flatten_seconds.to_bits(),
        stats.bp_roots_used as u64,
        stats.pruned_roots as u64,
        stats.total_visited,
        stats.total_labeled,
        stats.total_pruned,
        stats.threads as u64,
        stats.parallel_batches as u64,
        stats.repruned,
    ];
    for (i, f) in fields.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&f.to_le_bytes());
    }
    out
}

fn parse_stats_block(block: &[u8]) -> ConstructionStats {
    let u = |i: usize| u64::from_le_bytes(block[i * 8..(i + 1) * 8].try_into().unwrap());
    ConstructionStats {
        order_seconds: f64::from_bits(u(0)),
        relabel_seconds: f64::from_bits(u(1)),
        bp_seconds: f64::from_bits(u(2)),
        pruned_seconds: f64::from_bits(u(3)),
        flatten_seconds: f64::from_bits(u(4)),
        bp_roots_used: u(5) as usize,
        pruned_roots: u(6) as usize,
        total_visited: u(7),
        total_labeled: u(8),
        total_pruned: u(9),
        threads: u(10) as usize,
        parallel_batches: u(11) as usize,
        repruned: u(12),
        per_root: None,
    }
}

/// Writes one v2 container: header + stats + table + aligned sections.
///
/// Two passes over the sections where they lie, no file-sized buffer:
/// one to checksum the image, one to stream it to `writer` behind the
/// finished header.
fn write_container<W: Write>(
    mut writer: W,
    magic: &[u8; 8],
    flags: u32,
    n: u64,
    t: u64,
    stats: &ConstructionStats,
    sections: &[(u32, SecData<'_>)],
) -> Result<()> {
    // Lay out the sections: each starts on the next 64-byte boundary.
    let table_end = TABLE_OFFSET + sections.len() * TABLE_ENTRY_LEN;
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = table_end;
    for (_, data) in sections {
        let off = align_up(cursor, SECTION_ALIGN);
        offsets.push(off);
        cursor = off + data.byte_len();
    }
    let file_len = cursor;

    // Head = header (checksum field still zero) + stats block + table.
    let mut head = Vec::with_capacity(table_end);
    head.extend_from_slice(magic);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&flags.to_le_bytes());
    head.extend_from_slice(&n.to_le_bytes());
    head.extend_from_slice(&t.to_le_bytes());
    head.extend_from_slice(&(file_len as u64).to_le_bytes());
    head.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    head.extend_from_slice(&[0u8; 16]); // reserved, checksum
    debug_assert_eq!(head.len(), HEADER_LEN);
    head.extend_from_slice(&stats_block(stats));
    for ((id, data), off) in sections.iter().zip(&offsets) {
        head.extend_from_slice(&id.to_le_bytes());
        head.extend_from_slice(&(data.elem_size() as u32).to_le_bytes());
        head.extend_from_slice(&(*off as u64).to_le_bytes());
    }

    // Everything after the head, in file order: zero padding up to each
    // section's offset, then the section.
    let emit_sections = |sink: &mut dyn FnMut(&[u8]) -> Result<()>| -> Result<()> {
        let mut pos = table_end;
        for ((_, data), &off) in sections.iter().zip(&offsets) {
            sink(&[0u8; SECTION_ALIGN][..off - pos])?;
            data.emit(sink)?;
            pos = off + data.byte_len();
        }
        Ok(())
    };

    // With the checksum field zero the head already is its hashed image.
    let mut digest = Wide64::new();
    digest.update(&head);
    emit_sections(&mut |bytes| {
        digest.update(bytes);
        Ok(())
    })?;
    head[CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&digest.finish().to_le_bytes());

    writer.write_all(&head)?;
    emit_sections(&mut |bytes| Ok(writer.write_all(bytes)?))?;
    writer.flush()?;
    Ok(())
}

/// Writes an undirected index in the v2 zero-copy format (`PLLIDX02`),
/// including its construction statistics.
pub fn save_v2_index<W: Write>(index: &PllIndex, writer: W) -> Result<()> {
    let (order, inv, labels, bp, stats) = index.parts();
    let (offsets, ranks, dists, parents) = labels.as_raw();
    let (bp_roots, bp_entries) = bp.as_raw();
    let mut sections = vec![
        (SEC_ORDER, SecData::pod(order)),
        (SEC_INV, SecData::pod(inv)),
        (SEC_OFFSETS, SecData::pod(offsets)),
        (SEC_RANKS, SecData::pod(ranks)),
        (SEC_DISTS8, SecData::pod(dists)),
        (SEC_BP_ROOTS, SecData::pod(bp_roots)),
        (SEC_BP_DIST, SecData::Bp(bp_entries, BpField::Dist)),
        (SEC_BP_M1, SecData::Bp(bp_entries, BpField::Minus1)),
        (SEC_BP_Z, SecData::Bp(bp_entries, BpField::Zero)),
    ];
    let mut flags = 0u32;
    if let Some(parents) = parents {
        flags |= FLAG_PARENTS;
        sections.push((SEC_PARENTS, SecData::pod(parents)));
    }
    write_container(
        writer,
        V2_UNDIRECTED_MAGIC,
        flags,
        order.len() as u64,
        bp.num_roots() as u64,
        stats,
        &sections,
    )
}

/// Writes a directed index in the v2 zero-copy format (`PLLDIDX2`).
pub fn save_v2_directed_index<W: Write>(index: &DirectedPllIndex, writer: W) -> Result<()> {
    let (order, inv, labels_in, labels_out) = index.as_raw();
    let (in_offsets, in_ranks, in_dists, _) = labels_in.as_raw();
    let (out_offsets, out_ranks, out_dists, _) = labels_out.as_raw();
    let sections = [
        (SEC_ORDER, SecData::pod(order)),
        (SEC_INV, SecData::pod(inv)),
        (SEC_OFFSETS_IN, SecData::pod(in_offsets)),
        (SEC_RANKS_IN, SecData::pod(in_ranks)),
        (SEC_DISTS8_IN, SecData::pod(in_dists)),
        (SEC_OFFSETS, SecData::pod(out_offsets)),
        (SEC_RANKS, SecData::pod(out_ranks)),
        (SEC_DISTS8, SecData::pod(out_dists)),
    ];
    write_container(
        writer,
        V2_DIRECTED_MAGIC,
        0,
        order.len() as u64,
        0,
        index.stats(),
        &sections,
    )
}

/// Writes a weighted index in the v2 zero-copy format (`PLLWIDX2`).
///
/// The distance arena is narrowed to the Dist8 representation (`u8`
/// arena + escape sidecar, `FLAG_DIST8`) whenever
/// [`crate::weighted_dist8::encode_dist8`] judges it profitable; arenas
/// dominated by ≥ 255 distances keep the plain `u32` section. Either
/// way the file reopens to bit-identical answers.
pub fn save_v2_weighted_index<W: Write>(index: &WeightedPllIndex, writer: W) -> Result<()> {
    save_v2_weighted_index_with(index, writer, true)
}

/// [`save_v2_weighted_index`] with the Dist8 narrowing switchable:
/// `narrow = false` always writes the plain `u32` distance section,
/// which trades file size for skipping the escape-sidecar lookup at
/// query time (and is what the query microbench uses to measure both
/// arena widths on the same index).
pub fn save_v2_weighted_index_with<W: Write>(
    index: &WeightedPllIndex,
    writer: W,
    narrow: bool,
) -> Result<()> {
    let (order, inv, offsets, ranks, dists) = index.as_raw();
    if let Some(enc) = narrow
        .then(|| crate::weighted_dist8::encode_dist8(offsets, dists))
        .flatten()
    {
        let sections = [
            (SEC_ORDER, SecData::pod(order)),
            (SEC_INV, SecData::pod(inv)),
            (SEC_OFFSETS, SecData::pod(offsets)),
            (SEC_RANKS, SecData::pod(ranks)),
            (SEC_DISTS8, SecData::pod(&enc.dists8)),
            (SEC_ESC_POS, SecData::pod(&enc.esc_pos)),
            (SEC_ESC_VAL, SecData::pod(&enc.esc_val)),
        ];
        // The `t` header field (bit-parallel root count elsewhere) holds
        // the sidecar length — section table entries carry no counts.
        return write_container(
            writer,
            V2_WEIGHTED_MAGIC,
            FLAG_DIST8,
            order.len() as u64,
            enc.esc_pos.len() as u64,
            index.stats(),
            &sections,
        );
    }
    let sections = [
        (SEC_ORDER, SecData::pod(order)),
        (SEC_INV, SecData::pod(inv)),
        (SEC_OFFSETS, SecData::pod(offsets)),
        (SEC_RANKS, SecData::pod(ranks)),
        (SEC_DISTS32, SecData::pod(dists)),
    ];
    write_container(
        writer,
        V2_WEIGHTED_MAGIC,
        0,
        order.len() as u64,
        0,
        index.stats(),
        &sections,
    )
}

/// Writes a weighted directed index in the v2 zero-copy format
/// (`PLLWDID2`).
pub fn save_v2_weighted_directed_index<W: Write>(
    index: &WeightedDirectedPllIndex,
    writer: W,
) -> Result<()> {
    let (order, inv, side_in, side_out) = index.as_raw();
    let (in_offsets, in_ranks, in_dists) = side_in;
    let (out_offsets, out_ranks, out_dists) = side_out;
    let sections = [
        (SEC_ORDER, SecData::pod(order)),
        (SEC_INV, SecData::pod(inv)),
        (SEC_OFFSETS_IN, SecData::pod(in_offsets)),
        (SEC_RANKS_IN, SecData::pod(in_ranks)),
        (SEC_DISTS32_IN, SecData::pod(in_dists)),
        (SEC_OFFSETS, SecData::pod(out_offsets)),
        (SEC_RANKS, SecData::pod(out_ranks)),
        (SEC_DISTS32, SecData::pod(out_dists)),
    ];
    write_container(
        writer,
        V2_WEIGHTED_DIRECTED_MAGIC,
        0,
        order.len() as u64,
        0,
        index.stats(),
        &sections,
    )
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct RawSection {
    elem_size: u32,
    offset: u64,
}

/// Parsed v2 container: header fields plus the section table, all
/// validated against the buffer bounds. Every typed section handed out is
/// a zero-copy [`SectionSlice`].
struct Container {
    buf: Arc<AlignedBytes>,
    flags: u32,
    n: usize,
    t: usize,
    stats: ConstructionStats,
    sections: [Option<RawSection>; MAX_SECTION_ID],
}

impl Container {
    fn parse(buf: Arc<AlignedBytes>) -> Result<(IndexFormat, Container)> {
        let bytes = buf.as_bytes();
        if bytes.len() < TABLE_OFFSET {
            return Err(format_err(format!(
                "v2 index truncated: {} bytes, need at least {TABLE_OFFSET}",
                bytes.len()
            )));
        }
        let magic: &[u8; 8] = bytes[0..8].try_into().expect("8 bytes");
        let (format, version) = detect_format_versioned(magic)?;
        if version != FormatVersion::V2 {
            return Err(format_err("not a v2 index (v1 magic)"));
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let version = u32_at(8);
        let (_, checksum) = checksum_of_version(version)
            .ok_or_else(|| format_err(format!("unsupported v2 header version {version}")))?;
        let flags = u32_at(12);
        let n = usize::try_from(u64_at(16)).map_err(|_| format_err("vertex count overflows"))?;
        let t = usize::try_from(u64_at(24)).map_err(|_| format_err("root count overflows"))?;
        let file_len = u64_at(32);
        if file_len != bytes.len() as u64 {
            return Err(format_err(format!(
                "file length mismatch: header says {file_len}, file has {} bytes (truncated?)",
                bytes.len()
            )));
        }
        let section_count =
            usize::try_from(u64_at(40)).map_err(|_| format_err("section count overflows"))?;
        if checksum(&bytes[..CHECKSUM_OFFSET], &bytes[HEADER_LEN..]) != u64_at(CHECKSUM_OFFSET) {
            return Err(format_err("checksum mismatch"));
        }
        let table_end = section_count
            .checked_mul(TABLE_ENTRY_LEN)
            .and_then(|len| len.checked_add(TABLE_OFFSET))
            .ok_or_else(|| format_err("section table overflows"))?;
        if table_end > bytes.len() {
            return Err(format_err("section table exceeds file size"));
        }
        let mut sections = [None; MAX_SECTION_ID];
        for i in 0..section_count {
            let base = TABLE_OFFSET + i * TABLE_ENTRY_LEN;
            let id = u32_at(base) as usize;
            let raw = RawSection {
                elem_size: u32_at(base + 4),
                offset: u64_at(base + 8),
            };
            if id >= MAX_SECTION_ID {
                continue; // unknown section: ignore for forward compat
            }
            if sections[id].is_some() {
                return Err(format_err(format!("duplicate section id {id}")));
            }
            sections[id] = Some(raw);
        }
        let stats = parse_stats_block(&bytes[HEADER_LEN..TABLE_OFFSET]);
        Ok((
            format,
            Container {
                buf,
                flags,
                n,
                t,
                stats,
                sections,
            },
        ))
    }

    /// Resolves section `id` as `count` elements of `T`, enforcing the
    /// element size, the 64-byte section alignment and the buffer bounds.
    fn section<T: Pod>(&self, id: u32, count: usize) -> Result<SectionSlice<T>> {
        let raw = self.sections[id as usize]
            .ok_or_else(|| format_err(format!("missing section id {id}")))?;
        if raw.elem_size as usize != T::SIZE {
            return Err(format_err(format!(
                "section id {id} has element size {}, expected {}",
                raw.elem_size,
                T::SIZE
            )));
        }
        let offset =
            usize::try_from(raw.offset).map_err(|_| format_err("section offset overflows"))?;
        if offset % SECTION_ALIGN != 0 {
            return Err(format_err(format!(
                "section id {id} at byte {offset} is not {SECTION_ALIGN}-byte aligned"
            )));
        }
        SectionSlice::new(Arc::clone(&self.buf), offset, count)
    }

    /// The validated `(order, inv)` permutation sections.
    fn permutations(&self) -> Result<(SectionSlice<u32>, SectionSlice<u32>)> {
        let order = self.section::<u32>(SEC_ORDER, self.n)?;
        let inv = self.section::<u32>(SEC_INV, self.n)?;
        {
            let (o, i) = (order.as_slice(), inv.as_slice());
            let n = self.n as u32;
            // inv[order[r]] == r for all r proves `order` injective (hence
            // a permutation) and `inv` its inverse — no allocation needed.
            for (rank, &v) in o.iter().enumerate() {
                if v >= n || i[v as usize] != rank as u32 {
                    return Err(format_err(
                        "order/inv sections are not mutually inverse permutations",
                    ));
                }
            }
        }
        Ok((order, inv))
    }

    /// Resolves one label side (`offsets` + `ranks` + `dists` + optional
    /// `parents`) and validates its sentinel/sort structure.
    fn label_side<D: Pod>(
        &self,
        ids: (u32, u32, u32),
        parents_id: Option<u32>,
    ) -> Result<ViewLabels<D>> {
        let (offsets_id, ranks_id, dists_id) = ids;
        let offsets = self.section::<u32>(offsets_id, self.n + 1)?;
        let off = offsets.as_slice();
        if off.first() != Some(&0) || off.windows(2).any(|w| w[0] > w[1]) {
            return Err(format_err("non-monotone label offsets"));
        }
        let total = usize::try_from(*off.last().expect("n + 1 >= 1 entries"))
            .map_err(|_| format_err("label arena length overflows"))?;
        let ranks = self.section::<Rank>(ranks_id, total)?;
        let dists = self.section::<D>(dists_id, total)?;
        {
            let r = ranks.as_slice();
            for v in 0..self.n {
                let s = off[v] as usize;
                let e = off[v + 1] as usize;
                if s == e || r[e - 1] != RANK_SENTINEL {
                    return Err(format_err(format!(
                        "label of rank {v} not sentinel-terminated"
                    )));
                }
                if r[s..e].windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format_err(format!("label of rank {v} not strictly sorted")));
                }
                // Hub ranks index the permutation arrays (e.g. in
                // `distance_with_hub`), so out-of-range ranks must be a
                // typed error here, not a panic later. The body is
                // strictly ascending, so its last entry is its maximum.
                if e - s >= 2 && r[e - 2] as usize >= self.n {
                    return Err(format_err(format!(
                        "label of rank {v} holds hub rank {} >= n = {}",
                        r[e - 2],
                        self.n
                    )));
                }
            }
        }
        let parents = match parents_id {
            Some(id) if self.flags & FLAG_PARENTS != 0 => Some(self.section::<Rank>(id, total)?),
            _ => None,
        };
        if let Some(parents) = &parents {
            for &x in parents.as_slice() {
                if x != RANK_SENTINEL && x as usize >= self.n {
                    return Err(format_err(format!("parent rank {x} >= n = {}", self.n)));
                }
            }
        }
        Ok(ViewLabels {
            offsets,
            ranks,
            dists,
            parents,
        })
    }

    /// Resolves and validates the Dist8 escape sidecar against its `u8`
    /// label arena. The sidecar length comes from the header's `t`
    /// field; structurally every escape position must be strictly
    /// ascending, in bounds, hold the escape byte, not be a sentinel
    /// slot, and carry a value that genuinely needs escaping — so a
    /// crafted file cannot make the query kernel mis-resolve.
    fn dist8_sidecar(
        &self,
        labels: &ViewLabels<u8>,
    ) -> Result<(SectionSlice<u32>, SectionSlice<u32>)> {
        let esc_pos = self.section::<u32>(SEC_ESC_POS, self.t)?;
        let esc_val = self.section::<u32>(SEC_ESC_VAL, self.t)?;
        let off = labels.offsets.as_slice();
        let d = labels.dists.as_slice();
        for v in 0..self.n {
            if d[off[v + 1] as usize - 1] != DIST8_ESCAPE {
                return Err(format_err(format!(
                    "Dist8 label of rank {v} lacks the sentinel escape byte"
                )));
            }
        }
        let (pos, val) = (esc_pos.as_slice(), esc_val.as_slice());
        for (k, &p) in pos.iter().enumerate() {
            if k > 0 && pos[k - 1] >= p {
                return Err(format_err("Dist8 escape positions not strictly ascending"));
            }
            if p as usize >= d.len() {
                return Err(format_err(format!(
                    "Dist8 escape position {p} beyond the {}-entry arena",
                    d.len()
                )));
            }
            if d[p as usize] != DIST8_ESCAPE {
                return Err(format_err(format!(
                    "Dist8 escape position {p} does not hold the escape byte"
                )));
            }
            // Offsets are strictly increasing, so `p` is a sentinel slot
            // iff `p + 1` is a label end offset.
            if off[1..].binary_search(&(p + 1)).is_ok() {
                return Err(format_err(format!(
                    "Dist8 escape position {p} is a sentinel slot"
                )));
            }
            if val[k] < DIST8_ESCAPE as u32 {
                return Err(format_err(format!(
                    "Dist8 escape value {} fits the arena byte",
                    val[k]
                )));
            }
        }
        Ok((esc_pos, esc_val))
    }

    /// Resolves the bit-parallel structure-of-arrays sections.
    fn bp(&self) -> Result<ViewBp> {
        let entries = self
            .n
            .checked_mul(self.t)
            .ok_or_else(|| format_err("bit-parallel entry count overflows"))?;
        let view = ViewBp {
            roots: self.section::<Rank>(SEC_BP_ROOTS, self.t)?,
            dist: self.section::<u8>(SEC_BP_DIST, entries)?,
            set_minus1: self.section::<u64>(SEC_BP_M1, entries)?,
            set_zero: self.section::<u64>(SEC_BP_Z, entries)?,
        };
        for &root in view.roots.as_slice() {
            if root != u32::MAX && root as usize >= self.n {
                return Err(format_err("bit-parallel root out of range"));
            }
        }
        Ok(view)
    }
}

/// Opens a v2 index zero-copy from an in-memory buffer: pointer casts and
/// validation scans only — no per-label parsing or allocation.
pub fn open_v2_bytes(buf: Arc<AlignedBytes>) -> Result<AnyIndex> {
    let (format, c) = Container::parse(buf)?;
    match format {
        IndexFormat::Undirected => {
            let (order, inv) = c.permutations()?;
            let labels: ViewLabels<Dist> =
                c.label_side((SEC_OFFSETS, SEC_RANKS, SEC_DISTS8), Some(SEC_PARENTS))?;
            // The unweighted sentinel distance is INF8 (v1 parity check).
            {
                let off = labels.offsets.as_slice();
                let d = labels.dists.as_slice();
                for v in 0..c.n {
                    if d[off[v + 1] as usize - 1] != INF8 {
                        return Err(format_err(format!(
                            "label of rank {v} not sentinel-terminated"
                        )));
                    }
                }
            }
            let bp = c.bp()?;
            Ok(AnyIndex::UndirectedView(PllIndex::assemble(
                order,
                inv,
                LabelSet::from_store(labels),
                BitParallelLabels::from_store(c.n, c.t, bp),
                c.stats.clone(),
            )))
        }
        IndexFormat::Directed => {
            let (order, inv) = c.permutations()?;
            let side_in: ViewLabels<Dist> =
                c.label_side((SEC_OFFSETS_IN, SEC_RANKS_IN, SEC_DISTS8_IN), None)?;
            let side_out: ViewLabels<Dist> =
                c.label_side((SEC_OFFSETS, SEC_RANKS, SEC_DISTS8), None)?;
            Ok(AnyIndex::DirectedView(DirectedPllIndex::assemble(
                order,
                inv,
                LabelSet::from_store(side_in),
                LabelSet::from_store(side_out),
                c.stats.clone(),
            )))
        }
        IndexFormat::Weighted => {
            let (order, inv) = c.permutations()?;
            if c.flags & FLAG_DIST8 != 0 {
                let labels: ViewLabels<u8> =
                    c.label_side((SEC_OFFSETS, SEC_RANKS, SEC_DISTS8), None)?;
                let (esc_pos, esc_val) = c.dist8_sidecar(&labels)?;
                return Ok(AnyIndex::WeightedDist8View(WeightedDist8Index::assemble(
                    order,
                    inv,
                    labels,
                    esc_pos,
                    esc_val,
                    c.stats.clone(),
                )));
            }
            let labels: ViewLabels<WDist> =
                c.label_side((SEC_OFFSETS, SEC_RANKS, SEC_DISTS32), None)?;
            Ok(AnyIndex::WeightedView(WeightedPllIndex::assemble(
                order,
                inv,
                labels,
                c.stats.clone(),
            )))
        }
        IndexFormat::WeightedDirected => {
            let (order, inv) = c.permutations()?;
            let side_in: ViewLabels<WDist> =
                c.label_side((SEC_OFFSETS_IN, SEC_RANKS_IN, SEC_DISTS32_IN), None)?;
            let side_out: ViewLabels<WDist> =
                c.label_side((SEC_OFFSETS, SEC_RANKS, SEC_DISTS32), None)?;
            Ok(AnyIndex::WeightedDirectedView(
                WeightedDirectedPllIndex::assemble(order, inv, side_in, side_out, c.stats.clone()),
            ))
        }
    }
}

/// Opens a v2 index file zero-copy: one buffer load (a single `read`, or
/// an `mmap` with the `mmap` feature on Linux), then [`open_v2_bytes`].
pub fn open_v2_path(path: &Path) -> Result<AnyIndex> {
    open_v2_bytes(Arc::new(AlignedBytes::from_file(path)?))
}

// ---------------------------------------------------------------------------
// AnyIndex
// ---------------------------------------------------------------------------

/// Any loaded index: one of the four variants, in either the owned (v1
/// files, parsed) or the zero-copy view (v2 files) representation. The
/// `pll` CLI and `pll-server` work exclusively through this type, so every
/// subcommand and the query service accept every format.
#[derive(Debug)]
pub enum AnyIndex {
    /// Owned undirected index (v1 file).
    Undirected(PllIndex),
    /// Zero-copy undirected index (v2 file).
    UndirectedView(PllIndexView),
    /// Owned directed index (v1 file).
    Directed(DirectedPllIndex),
    /// Zero-copy directed index (v2 file).
    DirectedView(DirectedPllIndexView),
    /// Owned weighted index (v1 file).
    Weighted(WeightedPllIndex),
    /// Zero-copy weighted index (v2 file).
    WeightedView(WeightedPllIndexView),
    /// Zero-copy weighted index with the Dist8 narrowed distance arena
    /// (v2 file written with `FLAG_DIST8`).
    WeightedDist8View(WeightedDist8IndexView),
    /// Owned weighted directed index (v1 file).
    WeightedDirected(WeightedDirectedPllIndex),
    /// Zero-copy weighted directed index (v2 file).
    WeightedDirectedView(WeightedDirectedPllIndexView),
}

/// Applies an expression to the concrete index inside an [`AnyIndex`].
macro_rules! with_index {
    ($self:expr, $idx:ident => $body:expr) => {
        match $self {
            AnyIndex::Undirected($idx) => $body,
            AnyIndex::UndirectedView($idx) => $body,
            AnyIndex::Directed($idx) => $body,
            AnyIndex::DirectedView($idx) => $body,
            AnyIndex::Weighted($idx) => $body,
            AnyIndex::WeightedView($idx) => $body,
            AnyIndex::WeightedDist8View($idx) => $body,
            AnyIndex::WeightedDirected($idx) => $body,
            AnyIndex::WeightedDirectedView($idx) => $body,
        }
    };
}

impl AnyIndex {
    /// Opens an index file of any format generation and variant: one
    /// buffer load, then the magic bytes decide — v1 images parse into
    /// owned indices exactly as before, v2 images open zero-copy.
    pub fn open(path: &Path) -> Result<AnyIndex> {
        let buf = AlignedBytes::from_file(path)?;
        let bytes = buf.as_bytes();
        let magic: &[u8; 8] = bytes
            .get(..8)
            .and_then(|m| m.try_into().ok())
            .ok_or_else(|| format_err("file too short to hold an index magic (8 bytes)"))?;
        let (format, version) = detect_format_versioned(magic)?;
        if version == FormatVersion::V2 {
            return open_v2_bytes(Arc::new(buf));
        }
        Ok(match format {
            IndexFormat::Undirected => AnyIndex::Undirected(crate::serialize::load_index(bytes)?),
            IndexFormat::Directed => {
                AnyIndex::Directed(crate::serialize::load_directed_index(bytes)?)
            }
            IndexFormat::Weighted => {
                AnyIndex::Weighted(crate::serialize::load_weighted_index(bytes)?)
            }
            IndexFormat::WeightedDirected => {
                AnyIndex::WeightedDirected(crate::serialize::load_weighted_directed_index(bytes)?)
            }
        })
    }

    /// Which index family this is.
    pub fn format(&self) -> IndexFormat {
        match self {
            AnyIndex::Undirected(_) | AnyIndex::UndirectedView(_) => IndexFormat::Undirected,
            AnyIndex::Directed(_) | AnyIndex::DirectedView(_) => IndexFormat::Directed,
            AnyIndex::Weighted(_) | AnyIndex::WeightedView(_) | AnyIndex::WeightedDist8View(_) => {
                IndexFormat::Weighted
            }
            AnyIndex::WeightedDirected(_) | AnyIndex::WeightedDirectedView(_) => {
                IndexFormat::WeightedDirected
            }
        }
    }

    /// Format generation the index was loaded from (1 or 2).
    pub fn format_version(&self) -> u8 {
        if self.is_zero_copy() {
            2
        } else {
            1
        }
    }

    /// Whether this index queries the file buffer in place (v2).
    pub fn is_zero_copy(&self) -> bool {
        matches!(
            self,
            AnyIndex::UndirectedView(_)
                | AnyIndex::DirectedView(_)
                | AnyIndex::WeightedView(_)
                | AnyIndex::WeightedDist8View(_)
                | AnyIndex::WeightedDirectedView(_)
        )
    }

    /// Number of indexed vertices.
    pub fn num_vertices(&self) -> usize {
        with_index!(self, idx => idx.num_vertices())
    }

    /// Hints the CPU to pull both endpoints' label slices toward cache
    /// ahead of an [`AnyIndex::distance`] call for the same pair —
    /// useful to overlap the next pair's memory latency with the
    /// current pair's merge in a batch. Advisory: out-of-range vertices
    /// are ignored, nothing is computed.
    pub fn prefetch_query(&self, s: u32, t: u32) {
        with_index!(self, idx => idx.prefetch_query(s, t))
    }

    /// Distance from `s` to `t` widened to `u64`; `None` when
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics when an endpoint is out of range (use
    /// [`AnyIndex::try_distance`] for the checked variant).
    pub fn distance(&self, s: u32, t: u32) -> Option<u64> {
        match self {
            AnyIndex::Undirected(idx) => idx.distance(s, t).map(u64::from),
            AnyIndex::UndirectedView(idx) => idx.distance(s, t).map(u64::from),
            AnyIndex::Directed(idx) => idx.distance(s, t).map(u64::from),
            AnyIndex::DirectedView(idx) => idx.distance(s, t).map(u64::from),
            AnyIndex::Weighted(idx) => idx.distance(s, t),
            AnyIndex::WeightedView(idx) => idx.distance(s, t),
            AnyIndex::WeightedDist8View(idx) => idx.distance(s, t),
            AnyIndex::WeightedDirected(idx) => idx.distance(s, t),
            AnyIndex::WeightedDirectedView(idx) => idx.distance(s, t),
        }
    }

    /// Checked variant of [`AnyIndex::distance`].
    pub fn try_distance(&self, s: u32, t: u32) -> Result<Option<u64>> {
        match self {
            AnyIndex::Undirected(idx) => Ok(idx.try_distance(s, t)?.map(u64::from)),
            AnyIndex::UndirectedView(idx) => Ok(idx.try_distance(s, t)?.map(u64::from)),
            AnyIndex::Directed(idx) => Ok(idx.try_distance(s, t)?.map(u64::from)),
            AnyIndex::DirectedView(idx) => Ok(idx.try_distance(s, t)?.map(u64::from)),
            AnyIndex::Weighted(idx) => idx.try_distance(s, t),
            AnyIndex::WeightedView(idx) => idx.try_distance(s, t),
            AnyIndex::WeightedDist8View(idx) => idx.try_distance(s, t),
            AnyIndex::WeightedDirected(idx) => idx.try_distance(s, t),
            AnyIndex::WeightedDirectedView(idx) => idx.try_distance(s, t),
        }
    }

    /// Whether `t` is reachable from `s`: a same-component check for
    /// the undirected families (early-exit label intersection /
    /// bit-parallel co-reachability, no distance math), reachability
    /// for the directed ones.
    pub fn try_connected(&self, s: u32, t: u32) -> Result<bool> {
        let n = self.num_vertices();
        for x in [s, t] {
            if x as usize >= n {
                return Err(PllError::VertexOutOfRange {
                    vertex: x,
                    num_vertices: n,
                });
            }
        }
        match self {
            AnyIndex::Undirected(idx) => Ok(idx.connected(s, t)),
            AnyIndex::UndirectedView(idx) => Ok(idx.connected(s, t)),
            other => Ok(other.distance(s, t).is_some()),
        }
    }

    /// Whether this index can answer [`AnyIndex::shortest_path`]
    /// requests (undirected family with parent pointers stored).
    pub fn supports_paths(&self) -> bool {
        match self {
            AnyIndex::Undirected(idx) => idx.has_parents(),
            AnyIndex::UndirectedView(idx) => idx.has_parents(),
            _ => false,
        }
    }

    /// Reconstructs one shortest path from `s` to `t` (inclusive), or
    /// `None` when disconnected; works on both the owned and zero-copy
    /// undirected representations.
    ///
    /// # Errors
    ///
    /// [`PllError::Unsupported`] for the directed/weighted families
    /// (their builders do not store parent pointers),
    /// [`PllError::ParentsNotStored`] when the undirected index was
    /// built without them, [`PllError::VertexOutOfRange`] for bad
    /// endpoints.
    pub fn shortest_path(&self, s: u32, t: u32) -> Result<Option<Vec<u32>>> {
        match self {
            AnyIndex::Undirected(idx) => crate::paths::shortest_path(idx, s, t),
            AnyIndex::UndirectedView(idx) => crate::paths::shortest_path(idx, s, t),
            other => Err(PllError::Unsupported {
                message: format!(
                    "path reconstruction is implemented for the undirected index only \
                     (this is a {} index)",
                    other.format().name()
                ),
            }),
        }
    }

    /// Construction statistics (persisted by v2 files; default for v1).
    pub fn stats(&self) -> &ConstructionStats {
        with_index!(self, idx => idx.stats())
    }

    /// Average label entries per vertex.
    pub fn avg_label_size(&self) -> f64 {
        with_index!(self, idx => idx.avg_label_size())
    }

    /// Total index bytes (owned heap bytes or mapped section bytes).
    pub fn memory_bytes(&self) -> usize {
        with_index!(self, idx => idx.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuilder;
    use crate::directed::DirectedIndexBuilder;
    use crate::weighted::WeightedIndexBuilder;
    use crate::weighted_directed::WeightedDirectedIndexBuilder;
    use pll_graph::gen;

    fn ba_graph(n: usize) -> pll_graph::CsrGraph {
        gen::barabasi_albert(n, 3, 7).unwrap()
    }

    fn open_bytes(bytes: &[u8]) -> Result<AnyIndex> {
        open_v2_bytes(Arc::new(AlignedBytes::from_bytes(bytes)))
    }

    /// Recomputes the checksum the image's header version declares, so a
    /// test can hand-edit an image and still reach the structural checks.
    fn restamp(buf: &mut [u8]) {
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        let (_, checksum) = checksum_of_version(version).unwrap();
        let sum = checksum(&buf[..CHECKSUM_OFFSET], &buf[HEADER_LEN..]);
        buf[CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    }

    /// The image as the previous binary wrote it: header version 2 under
    /// the FNV-1a checksum, every other byte the same.
    fn as_version_2(image: &[u8]) -> Vec<u8> {
        let mut old = image.to_vec();
        old[8..12].copy_from_slice(&VERSION_FNV.to_le_bytes());
        restamp(&mut old);
        old
    }

    /// One small image per variant (both weighted arena widths), each in
    /// the version the writer emits and as its version-2 twin.
    fn images_of_every_variant_and_version(n: u32) -> Vec<(String, Vec<u8>)> {
        use pll_graph::{wdigraph::WeightedDigraph, wgraph::WeightedGraph};
        let ring: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let chord = |w: u32| -> Vec<(u32, u32, u32)> {
            let mut e: Vec<_> = ring.iter().map(|&(u, v)| (u, v, w)).collect();
            e.push((0, n / 2, 2 * w));
            e
        };
        let mut current: Vec<(&str, Vec<u8>)> = Vec::new();
        let mut save = |name, write: &dyn Fn(&mut Vec<u8>) -> Result<()>| {
            let mut buf = Vec::new();
            write(&mut buf).unwrap();
            current.push((name, buf));
        };
        let g = pll_graph::CsrGraph::from_edges(n as usize, &ring).unwrap();
        let idx = IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap();
        save("undirected", &|b| save_v2_index(&idx, b));
        let dg = pll_graph::CsrDigraph::from_edges(n as usize, &ring).unwrap();
        let didx = DirectedIndexBuilder::new().build(&dg).unwrap();
        save("directed", &|b| save_v2_directed_index(&didx, b));
        let wg = WeightedGraph::from_edges(n as usize, &chord(3)).unwrap();
        let widx = WeightedIndexBuilder::new().build(&wg).unwrap();
        save("weighted-dist8", &|b| save_v2_weighted_index(&widx, b));
        save("weighted-u32", &|b| {
            save_v2_weighted_index_with(&widx, b, false)
        });
        let wdg = WeightedDigraph::from_edges(n as usize, &chord(5)).unwrap();
        let wdidx = WeightedDirectedIndexBuilder::new().build(&wdg).unwrap();
        save("weighted-directed", &|b| {
            save_v2_weighted_directed_index(&wdidx, b)
        });
        let mut all = Vec::new();
        for (name, image) in current {
            assert_eq!(image[8..12], VERSION.to_le_bytes(), "{name} writes v3");
            all.push((format!("{name}/version-2"), as_version_2(&image)));
            all.push((format!("{name}/version-3"), image));
        }
        all
    }

    #[test]
    fn undirected_v2_roundtrip_queries_match() {
        let g = ba_graph(150);
        let idx = IndexBuilder::new().bit_parallel_roots(3).build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_index(&idx, &mut buf).unwrap();
        let any = open_bytes(&buf).unwrap();
        assert!(any.is_zero_copy());
        assert_eq!(any.format(), IndexFormat::Undirected);
        assert_eq!(any.format_version(), 2);
        assert_eq!(any.num_vertices(), 150);
        for s in (0..150u32).step_by(7) {
            for t in (0..150u32).step_by(11) {
                assert_eq!(
                    any.distance(s, t),
                    idx.distance(s, t).map(u64::from),
                    "pair ({s}, {t})"
                );
            }
        }
        // Stats survive the round trip.
        assert_eq!(any.stats().threads, idx.stats().threads);
        assert!(any.stats().total_seconds() > 0.0);
        assert_eq!(any.stats().total_labeled, idx.stats().total_labeled);
    }

    #[test]
    fn undirected_v2_roundtrip_with_parents() {
        let g = gen::grid(6, 6).unwrap();
        let idx = IndexBuilder::new()
            .bit_parallel_roots(0)
            .store_parents(true)
            .build(&g)
            .unwrap();
        let mut buf = Vec::new();
        save_v2_index(&idx, &mut buf).unwrap();
        match open_bytes(&buf).unwrap() {
            AnyIndex::UndirectedView(view) => {
                assert!(view.has_parents());
                for v in 0..36u32 {
                    assert_eq!(
                        view.labels().parents(view.rank_of(v)),
                        idx.labels().parents(idx.rank_of(v))
                    );
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn directed_v2_roundtrip_queries_match() {
        let mut arcs: Vec<(u32, u32)> = (0..80u32)
            .flat_map(|v| [(v, (v + 1) % 80), (v, (v * 13 + 5) % 80)])
            .filter(|&(a, b)| a != b)
            .collect();
        arcs.sort_unstable();
        arcs.dedup();
        let g = pll_graph::CsrDigraph::from_edges(80, &arcs).unwrap();
        let idx = DirectedIndexBuilder::new().build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_directed_index(&idx, &mut buf).unwrap();
        let any = open_bytes(&buf).unwrap();
        assert_eq!(any.format(), IndexFormat::Directed);
        for s in 0..80u32 {
            for t in (0..80u32).step_by(9) {
                assert_eq!(any.distance(s, t), idx.distance(s, t).map(u64::from));
            }
        }
    }

    #[test]
    fn weighted_v2_roundtrip_queries_match() {
        use pll_graph::wgraph::WeightedGraph;
        let base = gen::erdos_renyi_gnm(70, 180, 3).unwrap();
        let mut rng = pll_graph::Xoshiro256pp::seed_from_u64(5);
        let edges: Vec<(u32, u32, u32)> = base
            .edges()
            .map(|(u, v)| (u, v, rng.next_below(9) as u32 + 1))
            .collect();
        let g = WeightedGraph::from_edges(70, &edges).unwrap();
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_weighted_index(&idx, &mut buf).unwrap();
        let any = open_bytes(&buf).unwrap();
        assert_eq!(any.format(), IndexFormat::Weighted);
        for s in 0..70u32 {
            for t in (0..70u32).step_by(7) {
                assert_eq!(any.distance(s, t), idx.distance(s, t));
            }
        }
    }

    #[test]
    fn weighted_v2_dist8_roundtrip_with_escapes() {
        use pll_graph::wgraph::WeightedGraph;
        // Weight-9 ring: eccentricities ~540, so the label arena holds
        // entries on both sides of the 255 escape threshold.
        let n = 120usize;
        let mut edges: Vec<(u32, u32, u32)> =
            (0..n as u32).map(|v| (v, (v + 1) % n as u32, 9)).collect();
        edges.push((0, (n / 2) as u32, 400));
        let g = WeightedGraph::from_edges(n, &edges).unwrap();
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_weighted_index(&idx, &mut buf).unwrap();
        let any = open_bytes(&buf).unwrap();
        let AnyIndex::WeightedDist8View(view) = &any else {
            panic!("small-weight arena must take the Dist8 path");
        };
        assert!(view.escape_count() > 0, "expected escaped entries");
        for s in (0..n as u32).step_by(7) {
            for t in (0..n as u32).step_by(11) {
                assert_eq!(any.distance(s, t), idx.distance(s, t), "pair ({s}, {t})");
            }
        }
    }

    #[test]
    fn weighted_v2_unprofitable_arena_falls_back_to_u32() {
        use pll_graph::wgraph::WeightedGraph;
        // Every edge weight ≥ 255 → every finite label distance escapes,
        // so the writer must keep the plain u32 sections.
        let edges: Vec<(u32, u32, u32)> = (0..19u32).map(|v| (v, v + 1, 1_000)).collect();
        let g = WeightedGraph::from_edges(20, &edges).unwrap();
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_weighted_index(&idx, &mut buf).unwrap();
        let any = open_bytes(&buf).unwrap();
        assert!(
            matches!(any, AnyIndex::WeightedView(_)),
            "all-escaping arena must fall back to the u32 sections"
        );
        for s in 0..20u32 {
            for t in 0..20u32 {
                assert_eq!(any.distance(s, t), idx.distance(s, t));
            }
        }
    }

    #[test]
    fn weighted_directed_v2_roundtrip_queries_match() {
        use pll_graph::wdigraph::WeightedDigraph;
        let mut rng = pll_graph::Xoshiro256pp::seed_from_u64(11);
        let mut arcs = std::collections::HashMap::new();
        while arcs.len() < 160 {
            let u = rng.next_below(45) as u32;
            let v = rng.next_below(45) as u32;
            if u != v {
                arcs.entry((u, v))
                    .or_insert_with(|| rng.next_below(9) as u32 + 1);
            }
        }
        let mut list: Vec<(u32, u32, u32)> =
            arcs.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        list.sort_unstable();
        let g = WeightedDigraph::from_edges(45, &list).unwrap();
        let idx = WeightedDirectedIndexBuilder::new().build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_weighted_directed_index(&idx, &mut buf).unwrap();
        let any = open_bytes(&buf).unwrap();
        assert_eq!(any.format(), IndexFormat::WeightedDirected);
        for s in 0..45u32 {
            for t in (0..45u32).step_by(4) {
                assert_eq!(any.distance(s, t), idx.distance(s, t));
            }
        }
    }

    #[test]
    fn connected_and_paths_over_anyindex() {
        // Two components with parents stored: PATH and CONNECTED must
        // work identically on the owned index and the zero-copy view.
        let g =
            pll_graph::CsrGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]).unwrap();
        let idx = IndexBuilder::new()
            .bit_parallel_roots(0)
            .store_parents(true)
            .build(&g)
            .unwrap();
        let mut buf = Vec::new();
        save_v2_index(&idx, &mut buf).unwrap();
        let view = open_bytes(&buf).unwrap();
        let owned = AnyIndex::Undirected(idx);
        for any in [&owned, &view] {
            assert!(any.supports_paths());
            assert!(any.try_connected(0, 3).unwrap());
            assert!(!any.try_connected(0, 6).unwrap());
            assert!(any.try_connected(2, 2).unwrap());
            assert!(matches!(
                any.try_connected(0, 99),
                Err(PllError::VertexOutOfRange { .. })
            ));
            assert_eq!(
                any.shortest_path(0, 3).unwrap(),
                Some(vec![0, 1, 2, 3]),
                "path 0..3"
            );
            assert_eq!(any.shortest_path(0, 6).unwrap(), None);
            assert_eq!(any.shortest_path(5, 5).unwrap(), Some(vec![5]));
            assert!(matches!(
                any.shortest_path(0, 99),
                Err(PllError::VertexOutOfRange { .. })
            ));
        }
        // Without parents: PATH errors, CONNECTED still answers.
        let bare =
            AnyIndex::Undirected(IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap());
        assert!(!bare.supports_paths());
        assert!(matches!(
            bare.shortest_path(0, 3),
            Err(PllError::ParentsNotStored)
        ));
        assert!(bare.try_connected(1, 3).unwrap());
        // Non-undirected families refuse PATH with a typed error.
        use pll_graph::wgraph::WeightedGraph;
        let wg = WeightedGraph::from_edges(3, &[(0, 1, 2), (1, 2, 3)]).unwrap();
        let weighted = AnyIndex::Weighted(
            crate::weighted::WeightedIndexBuilder::new()
                .build(&wg)
                .unwrap(),
        );
        assert!(!weighted.supports_paths());
        assert!(matches!(
            weighted.shortest_path(0, 2),
            Err(PllError::Unsupported { .. })
        ));
        assert!(weighted.try_connected(0, 2).unwrap());
    }

    #[test]
    fn empty_index_roundtrips() {
        let idx = IndexBuilder::new()
            .build(&pll_graph::CsrGraph::empty(0))
            .unwrap();
        let mut buf = Vec::new();
        save_v2_index(&idx, &mut buf).unwrap();
        let any = open_bytes(&buf).unwrap();
        assert_eq!(any.num_vertices(), 0);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        // Truncating at any byte boundary must yield Err, never a panic.
        for (name, buf) in images_of_every_variant_and_version(24) {
            assert!(open_bytes(&buf).is_ok(), "{name}");
            for cut in 0..buf.len() {
                let err = open_bytes(&buf[..cut]);
                assert!(err.is_err(), "{name}: cut at {cut}/{} accepted", buf.len());
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        for (name, buf) in images_of_every_variant_and_version(12) {
            assert!(open_bytes(&buf).is_ok(), "{name}");
            for pos in 0..buf.len() {
                let mut corrupt = buf.clone();
                corrupt[pos] ^= 0x5A;
                assert!(
                    open_bytes(&corrupt).is_err(),
                    "{name}: flip at byte {pos}/{} accepted",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn version_2_images_open_and_answer_like_version_3() {
        let g = ba_graph(150);
        let idx = IndexBuilder::new().bit_parallel_roots(3).build(&g).unwrap();
        let mut new = Vec::new();
        save_v2_index(&idx, &mut new).unwrap();
        let old = as_version_2(&new);
        // The layout is untouched: only `version` and the checksum differ.
        let differing: Vec<usize> = (0..new.len()).filter(|&i| new[i] != old[i]).collect();
        assert!(differing
            .iter()
            .all(|i| (8..12).contains(i) || (56..64).contains(i)));
        let (new_hdr, old_hdr) = (header_checksum(&new), header_checksum(&old));
        assert_eq!(new_hdr.map(|h| (h.version, h.kind)), Some((3, "wide64")));
        assert_eq!(old_hdr.map(|h| (h.version, h.kind)), Some((2, "fnv1a")));
        let (new_idx, old_idx) = (open_bytes(&new).unwrap(), open_bytes(&old).unwrap());
        for s in (0..150u32).step_by(7) {
            for t in (0..150u32).step_by(11) {
                assert_eq!(
                    new_idx.distance(s, t),
                    old_idx.distance(s, t),
                    "pair ({s}, {t})"
                );
            }
        }
        // Any other version is refused by number, before any hashing.
        let mut future = new;
        future[8..12].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(header_checksum(&future), None);
        match open_bytes(&future).unwrap_err() {
            PllError::Format { message } => {
                assert_eq!(message, "unsupported v2 header version 4")
            }
            other => panic!("expected Format error, got {other}"),
        }
    }

    #[test]
    fn corrupt_section_table_is_rejected_structurally() {
        // Rewrite a section offset to point out of bounds *and* fix up the
        // checksum, so the structural bounds checks (not the checksum)
        // must catch it.
        let g = gen::path(10).unwrap();
        let idx = IndexBuilder::new().bit_parallel_roots(0).build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_index(&idx, &mut buf).unwrap();
        // First table entry's byte_offset field lives at TABLE_OFFSET + 8.
        let pos = TABLE_OFFSET + 8;
        buf[pos..pos + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        restamp(&mut buf);
        let err = open_bytes(&buf).unwrap_err();
        assert!(matches!(err, PllError::Format { .. }), "got {err}");
    }

    #[test]
    fn out_of_range_hub_rank_is_rejected_structurally() {
        // Craft a label body holding a hub rank >= n with the checksum
        // fixed up: the structural validation must reject it (otherwise
        // `distance_with_hub` would index the permutation arrays out of
        // bounds later).
        let g = gen::path(4).unwrap();
        let idx = IndexBuilder::new().bit_parallel_roots(0).build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_index(&idx, &mut buf).unwrap();
        assert!(open_bytes(&buf).is_ok());
        // Locate the ranks section (id SEC_RANKS) via the table and
        // overwrite its first body entry with a huge rank, keeping the
        // strictly-ascending/sentinel structure intact (n = 4, so any
        // body value in [4, SENTINEL) is out of range).
        let count = u64::from_le_bytes(buf[40..48].try_into().unwrap()) as usize;
        let mut ranks_off = None;
        for i in 0..count {
            let base = TABLE_OFFSET + i * TABLE_ENTRY_LEN;
            if u32::from_le_bytes(buf[base..base + 4].try_into().unwrap()) == SEC_RANKS {
                ranks_off =
                    Some(u64::from_le_bytes(buf[base + 8..base + 16].try_into().unwrap()) as usize);
            }
        }
        let ranks_off = ranks_off.expect("ranks section present");
        buf[ranks_off..ranks_off + 4].copy_from_slice(&(RANK_SENTINEL - 1).to_le_bytes());
        restamp(&mut buf);
        let err = open_bytes(&buf).unwrap_err();
        match err {
            PllError::Format { message } => {
                assert!(message.contains("hub rank"), "got: {message}")
            }
            other => panic!("expected Format error, got {other}"),
        }
    }

    #[test]
    fn wrong_variant_magic_is_rejected() {
        let g = gen::path(6).unwrap();
        let idx = IndexBuilder::new().bit_parallel_roots(0).build(&g).unwrap();
        let mut buf = Vec::new();
        save_v2_index(&idx, &mut buf).unwrap();
        // Rewriting the magic to the weighted family (and fixing the
        // checksum) must fail on missing sections, not panic.
        buf[0..8].copy_from_slice(V2_WEIGHTED_MAGIC);
        restamp(&mut buf);
        assert!(open_bytes(&buf).is_err());
        assert!(open_bytes(b"NOTANIDXatall").is_err());
        assert!(open_bytes(b"").is_err());
    }

    #[test]
    fn anyindex_open_handles_v1_and_v2_files() {
        let g = ba_graph(60);
        let idx = IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap();
        let dir = std::env::temp_dir();
        let v1_path = dir.join(format!("pll_v2test_v1_{}.idx", std::process::id()));
        let v2_path = dir.join(format!("pll_v2test_v2_{}.idx", std::process::id()));
        crate::serialize::save_index(&idx, std::fs::File::create(&v1_path).unwrap()).unwrap();
        save_v2_index(&idx, std::fs::File::create(&v2_path).unwrap()).unwrap();
        let v1 = AnyIndex::open(&v1_path).unwrap();
        let v2 = AnyIndex::open(&v2_path).unwrap();
        assert_eq!(v1.format_version(), 1);
        assert_eq!(v2.format_version(), 2);
        assert!(!v1.is_zero_copy());
        assert!(v2.is_zero_copy());
        // v1 files carry no stats; v2 files do.
        assert_eq!(v1.stats().total_seconds(), 0.0);
        assert!(v2.stats().total_seconds() > 0.0);
        for s in (0..60u32).step_by(5) {
            for t in (0..60u32).step_by(3) {
                assert_eq!(v1.distance(s, t), v2.distance(s, t));
                assert_eq!(v2.distance(s, t), idx.distance(s, t).map(u64::from));
            }
        }
        assert!(matches!(
            v2.try_distance(0, 60),
            Err(PllError::VertexOutOfRange { .. })
        ));
        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
        assert!(AnyIndex::open(&v2_path).is_err());
    }
}
