//! Versioned binary serialisation of [`PllIndex`] — the **v1** stream
//! formats.
//!
//! Superseded as the write path by the zero-copy v2 format of
//! [`crate::v2`] (`pll build` writes v2); the v1 readers here stay
//! supported so existing index files keep loading, and
//! [`detect_format`] sniffs both generations. The v1 writers remain for
//! compatibility tests and for producing files older tooling can read.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic    8 bytes  "PLLIDX01"
//! length   u64      payload byte count
//! checksum u64      FNV-1a over the payload
//! payload:
//!   n           u64
//!   t           u64
//!   flags       u8      bit 0: parents stored
//!   order       n × u32
//!   offsets     (n+1) × u32
//!   ranks       len × u32
//!   dists       len × u8
//!   [parents    len × u32]           (iff flag)
//!   bp_roots    t × u32
//!   bp_entries  n·t × (u8 + u64 + u64)
//! ```
//!
//! `inv` is recomputed from `order` on load; construction statistics are
//! not persisted (a loaded index reports default stats).

use crate::bp::{BitParallelLabels, BpEntry};
use crate::checksum::fnv1a;
use crate::error::{PllError, Result};
use crate::index::PllIndex;
use crate::label::LabelSet;
use crate::stats::ConstructionStats;
use crate::types::{INF8, RANK_SENTINEL};
use pll_graph::reorder::inverse_permutation;
use std::io::{Read, Write};

const MAGIC: &[u8; 8] = b"PLLIDX01";

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(PllError::Format {
                message: "payload truncated".into(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>> {
        let bytes = count.checked_mul(4).ok_or(PllError::Format {
            message: "array length overflows".into(),
        })?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Writes `index` to `writer`.
pub fn save_index<W: Write>(index: &PllIndex, mut writer: W) -> Result<()> {
    let (order, _inv, labels, bp, _stats) = index.parts();
    let (offsets, ranks, dists, parents) = labels.as_raw();
    let (bp_roots, bp_entries) = bp.as_raw();

    let mut payload: Vec<u8> = Vec::new();
    payload.extend_from_slice(&(order.len() as u64).to_le_bytes());
    payload.extend_from_slice(&(bp_roots.len() as u64).to_le_bytes());
    payload.push(u8::from(parents.is_some()));
    for &v in order {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for &o in offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    for &r in ranks {
        payload.extend_from_slice(&r.to_le_bytes());
    }
    payload.extend_from_slice(dists);
    if let Some(parents) = parents {
        for &p in parents {
            payload.extend_from_slice(&p.to_le_bytes());
        }
    }
    for &r in bp_roots {
        payload.extend_from_slice(&r.to_le_bytes());
    }
    for e in bp_entries {
        payload.push(e.dist);
        payload.extend_from_slice(&e.set_minus1.to_le_bytes());
        payload.extend_from_slice(&e.set_zero.to_le_bytes());
    }

    writer.write_all(MAGIC)?;
    writer.write_all(&(payload.len() as u64).to_le_bytes())?;
    writer.write_all(&fnv1a(&payload).to_le_bytes())?;
    writer.write_all(&payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads an index written by [`save_index`].
///
/// # Errors
///
/// [`PllError::Format`] on bad magic, checksum mismatch, truncation or
/// structural inconsistencies.
pub fn load_index<R: Read>(mut reader: R) -> Result<PllIndex> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PllError::Format {
            message: "bad magic bytes".into(),
        });
    }
    let mut hdr = [0u8; 16];
    reader.read_exact(&mut hdr)?;
    let len = u64::from_le_bytes(hdr[..8].try_into().unwrap());
    let checksum = u64::from_le_bytes(hdr[8..].try_into().unwrap());
    // Never allocate `len` up front: a corrupt header could claim exabytes.
    // `Read::take` bounds the read; growth is bounded by the actual stream.
    let mut payload = Vec::new();
    reader.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(PllError::Format {
            message: "payload truncated".into(),
        });
    }
    if fnv1a(&payload) != checksum {
        return Err(PllError::Format {
            message: "checksum mismatch".into(),
        });
    }

    let mut c = Cursor {
        buf: &payload,
        pos: 0,
    };
    let n = c.u64()? as usize;
    let t = c.u64()? as usize;
    // A vertex costs at least 9 payload bytes (order entry + offset +
    // sentinel); reject fabricated counts before any sized allocation.
    if n.saturating_mul(9) > payload.len() || t.saturating_mul(4) > payload.len() {
        return Err(PllError::Format {
            message: "vertex/root counts exceed payload size".into(),
        });
    }
    let flags = c.u8()?;
    let has_parents = flags & 1 != 0;

    let order = c.u32_vec(n)?;
    let offsets = c.u32_vec(n + 1)?;
    let total = *offsets.last().unwrap_or(&0) as usize;
    if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PllError::Format {
            message: "non-monotone label offsets".into(),
        });
    }
    let ranks = c.u32_vec(total)?;
    let dists = c.take(total)?.to_vec();
    let parents = if has_parents {
        Some(c.u32_vec(total)?)
    } else {
        None
    };
    let bp_roots = c.u32_vec(t)?;
    let entry_count = n.checked_mul(t).ok_or(PllError::Format {
        message: "bit-parallel entry count overflows".into(),
    })?;
    if entry_count.saturating_mul(17) > payload.len() {
        return Err(PllError::Format {
            message: "bit-parallel entries exceed payload size".into(),
        });
    }
    let mut bp_entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let dist = c.u8()?;
        let set_minus1 = c.u64()?;
        let set_zero = c.u64()?;
        bp_entries.push(BpEntry {
            dist,
            set_minus1,
            set_zero,
        });
    }
    if c.pos != payload.len() {
        return Err(PllError::Format {
            message: format!("{} trailing payload bytes", payload.len() - c.pos),
        });
    }

    // Structural validation: each label strictly sorted and
    // sentinel-terminated.
    for v in 0..n {
        let s = offsets[v] as usize;
        let e = offsets[v + 1] as usize;
        if s == e {
            return Err(PllError::Format {
                message: format!("label of rank {v} lacks a sentinel"),
            });
        }
        if ranks[e - 1] != RANK_SENTINEL || dists[e - 1] != INF8 {
            return Err(PllError::Format {
                message: format!("label of rank {v} not sentinel-terminated"),
            });
        }
        if ranks[s..e].windows(2).any(|w| w[0] >= w[1]) {
            return Err(PllError::Format {
                message: format!("label of rank {v} not strictly sorted"),
            });
        }
        // Hub ranks index the permutation arrays (`distance_with_hub`);
        // the body is strictly ascending, so checking its maximum
        // suffices.
        if e - s >= 2 && ranks[e - 2] as usize >= n {
            return Err(PllError::Format {
                message: format!("label of rank {v} holds an out-of-range hub rank"),
            });
        }
    }
    if let Some(parents) = &parents {
        for &x in parents {
            if x != RANK_SENTINEL && x as usize >= n {
                return Err(PllError::Format {
                    message: format!("parent rank {x} out of range"),
                });
            }
        }
    }
    // `inverse_permutation` panics on malformed permutations; validate.
    let mut seen = vec![false; n];
    for &v in &order {
        if v as usize >= n || seen[v as usize] {
            return Err(PllError::Format {
                message: "order array is not a permutation".into(),
            });
        }
        seen[v as usize] = true;
    }
    let inv = inverse_permutation(&order);

    let labels = LabelSet::from_raw(offsets, ranks, dists, parents);
    let bp = BitParallelLabels::from_raw(n, bp_roots, bp_entries);
    Ok(PllIndex::from_parts(
        order,
        inv,
        labels,
        bp,
        ConstructionStats::default(),
    ))
}

const WEIGHTED_MAGIC: &[u8; 8] = b"PLLWIDX1";
const DIRECTED_MAGIC: &[u8; 8] = b"PLLDIDX1";

fn write_framed<W: Write>(mut writer: W, magic: &[u8; 8], payload: &[u8]) -> Result<()> {
    writer.write_all(magic)?;
    writer.write_all(&(payload.len() as u64).to_le_bytes())?;
    writer.write_all(&fnv1a(payload).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

fn read_framed<R: Read>(mut reader: R, magic: &[u8; 8]) -> Result<Vec<u8>> {
    let mut m = [0u8; 8];
    reader.read_exact(&mut m)?;
    if &m != magic {
        return Err(PllError::Format {
            message: "bad magic bytes".into(),
        });
    }
    let mut hdr = [0u8; 16];
    reader.read_exact(&mut hdr)?;
    let len = u64::from_le_bytes(hdr[..8].try_into().unwrap());
    let checksum = u64::from_le_bytes(hdr[8..].try_into().unwrap());
    let mut payload = Vec::new();
    reader.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(PllError::Format {
            message: "payload truncated".into(),
        });
    }
    if fnv1a(&payload) != checksum {
        return Err(PllError::Format {
            message: "checksum mismatch".into(),
        });
    }
    Ok(payload)
}

fn validate_order(order: &[u32], n: usize) -> Result<()> {
    let mut seen = vec![false; n];
    for &v in order {
        if v as usize >= n || seen[v as usize] {
            return Err(PllError::Format {
                message: "order array is not a permutation".into(),
            });
        }
        seen[v as usize] = true;
    }
    Ok(())
}

fn validate_sentinel_labels(offsets: &[u32], ranks: &[u32]) -> Result<()> {
    if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(PllError::Format {
            message: "non-monotone label offsets".into(),
        });
    }
    let n = offsets.len() - 1;
    for v in 0..n {
        let s = offsets[v] as usize;
        let e = offsets[v + 1] as usize;
        if s == e || ranks[e - 1] != RANK_SENTINEL {
            return Err(PllError::Format {
                message: format!("label of rank {v} not sentinel-terminated"),
            });
        }
        if ranks[s..e].windows(2).any(|w| w[0] >= w[1]) {
            return Err(PllError::Format {
                message: format!("label of rank {v} not strictly sorted"),
            });
        }
        // Hub ranks live in [0, n); the strictly ascending body makes
        // its last entry the maximum.
        if e - s >= 2 && ranks[e - 2] as usize >= n {
            return Err(PllError::Format {
                message: format!("label of rank {v} holds an out-of-range hub rank"),
            });
        }
    }
    Ok(())
}

/// Writes a weighted index (`PLLWIDX1` frame; 32-bit label distances).
pub fn save_weighted_index<W: Write>(
    index: &crate::weighted::WeightedPllIndex,
    writer: W,
) -> Result<()> {
    let (order, _inv, offsets, ranks, dists) = index.as_raw();
    let mut payload = Vec::new();
    payload.extend_from_slice(&(order.len() as u64).to_le_bytes());
    for &v in order {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for &o in offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    for &r in ranks {
        payload.extend_from_slice(&r.to_le_bytes());
    }
    for &d in dists {
        payload.extend_from_slice(&d.to_le_bytes());
    }
    write_framed(writer, WEIGHTED_MAGIC, &payload)
}

/// Reads a weighted index written by [`save_weighted_index`].
pub fn load_weighted_index<R: Read>(reader: R) -> Result<crate::weighted::WeightedPllIndex> {
    let payload = read_framed(reader, WEIGHTED_MAGIC)?;
    let mut c = Cursor {
        buf: &payload,
        pos: 0,
    };
    let n = c.u64()? as usize;
    if n.saturating_mul(12) > payload.len() {
        return Err(PllError::Format {
            message: "vertex count exceeds payload size".into(),
        });
    }
    let order = c.u32_vec(n)?;
    let offsets = c.u32_vec(n + 1)?;
    let total = *offsets.last().unwrap_or(&0) as usize;
    let ranks = c.u32_vec(total)?;
    let dists = c.u32_vec(total)?;
    if c.pos != payload.len() {
        return Err(PllError::Format {
            message: "trailing payload bytes".into(),
        });
    }
    validate_order(&order, n)?;
    validate_sentinel_labels(&offsets, &ranks)?;
    let inv = inverse_permutation(&order);
    Ok(crate::weighted::WeightedPllIndex::from_raw(
        order, inv, offsets, ranks, dists,
    ))
}

/// Writes a directed index (`PLLDIDX1` frame; IN then OUT labels).
pub fn save_directed_index<W: Write>(
    index: &crate::directed::DirectedPllIndex,
    writer: W,
) -> Result<()> {
    let (order, _inv, labels_in, labels_out) = index.as_raw();
    let mut payload = Vec::new();
    payload.extend_from_slice(&(order.len() as u64).to_le_bytes());
    for &v in order {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for labels in [labels_in, labels_out] {
        let (offsets, ranks, dists, _parents) = labels.as_raw();
        for &o in offsets {
            payload.extend_from_slice(&o.to_le_bytes());
        }
        payload.extend_from_slice(&(ranks.len() as u64).to_le_bytes());
        for &r in ranks {
            payload.extend_from_slice(&r.to_le_bytes());
        }
        payload.extend_from_slice(dists);
    }
    write_framed(writer, DIRECTED_MAGIC, &payload)
}

/// Reads a directed index written by [`save_directed_index`].
pub fn load_directed_index<R: Read>(reader: R) -> Result<crate::directed::DirectedPllIndex> {
    let payload = read_framed(reader, DIRECTED_MAGIC)?;
    let mut c = Cursor {
        buf: &payload,
        pos: 0,
    };
    let n = c.u64()? as usize;
    if n.saturating_mul(12) > payload.len() {
        return Err(PllError::Format {
            message: "vertex count exceeds payload size".into(),
        });
    }
    let order = c.u32_vec(n)?;
    validate_order(&order, n)?;
    let mut sides = Vec::with_capacity(2);
    for _ in 0..2 {
        let offsets = c.u32_vec(n + 1)?;
        let total = c.u64()? as usize;
        if total != *offsets.last().unwrap_or(&0) as usize {
            return Err(PllError::Format {
                message: "label length disagrees with offsets".into(),
            });
        }
        let ranks = c.u32_vec(total)?;
        let dists = c.take(total)?.to_vec();
        validate_sentinel_labels(&offsets, &ranks)?;
        sides.push(LabelSet::from_raw(offsets, ranks, dists, None));
    }
    if c.pos != payload.len() {
        return Err(PllError::Format {
            message: "trailing payload bytes".into(),
        });
    }
    let labels_out = sides.pop().expect("two sides pushed");
    let labels_in = sides.pop().expect("two sides pushed");
    let inv = inverse_permutation(&order);
    Ok(crate::directed::DirectedPllIndex::from_raw(
        order, inv, labels_in, labels_out,
    ))
}

const WEIGHTED_DIRECTED_MAGIC: &[u8; 8] = b"PLLWDID1";

/// Writes a weighted directed index (`PLLWDID1` frame; IN then OUT label
/// sides, 32-bit label distances).
pub fn save_weighted_directed_index<W: Write>(
    index: &crate::weighted_directed::WeightedDirectedPllIndex,
    writer: W,
) -> Result<()> {
    let (order, _inv, side_in, side_out) = index.as_raw();
    let mut payload = Vec::new();
    payload.extend_from_slice(&(order.len() as u64).to_le_bytes());
    for &v in order {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for (offsets, ranks, dists) in [side_in, side_out] {
        for &o in offsets {
            payload.extend_from_slice(&o.to_le_bytes());
        }
        payload.extend_from_slice(&(ranks.len() as u64).to_le_bytes());
        for &r in ranks {
            payload.extend_from_slice(&r.to_le_bytes());
        }
        for &d in dists {
            payload.extend_from_slice(&d.to_le_bytes());
        }
    }
    write_framed(writer, WEIGHTED_DIRECTED_MAGIC, &payload)
}

/// Reads a weighted directed index written by
/// [`save_weighted_directed_index`].
pub fn load_weighted_directed_index<R: Read>(
    reader: R,
) -> Result<crate::weighted_directed::WeightedDirectedPllIndex> {
    let payload = read_framed(reader, WEIGHTED_DIRECTED_MAGIC)?;
    let mut c = Cursor {
        buf: &payload,
        pos: 0,
    };
    let n = c.u64()? as usize;
    if n.saturating_mul(12) > payload.len() {
        return Err(PllError::Format {
            message: "vertex count exceeds payload size".into(),
        });
    }
    let order = c.u32_vec(n)?;
    validate_order(&order, n)?;
    let mut sides = Vec::with_capacity(2);
    for _ in 0..2 {
        let offsets = c.u32_vec(n + 1)?;
        let total = c.u64()? as usize;
        if total != *offsets.last().unwrap_or(&0) as usize {
            return Err(PllError::Format {
                message: "label length disagrees with offsets".into(),
            });
        }
        let ranks = c.u32_vec(total)?;
        let dists = c.u32_vec(total)?;
        validate_sentinel_labels(&offsets, &ranks)?;
        sides.push((offsets, ranks, dists));
    }
    if c.pos != payload.len() {
        return Err(PllError::Format {
            message: "trailing payload bytes".into(),
        });
    }
    let (out_offsets, out_ranks, out_dists) = sides.pop().expect("two sides pushed");
    let (in_offsets, in_ranks, in_dists) = sides.pop().expect("two sides pushed");
    let inv = inverse_permutation(&order);
    Ok(
        crate::weighted_directed::WeightedDirectedPllIndex::from_raw(
            order,
            inv,
            in_offsets,
            in_ranks,
            in_dists,
            out_offsets,
            out_ranks,
            out_dists,
        ),
    )
}

/// The four index families the versioned on-disk format distinguishes,
/// detected from the 8-byte magic prefix (see [`detect_format`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexFormat {
    /// `PLLIDX01` — undirected unweighted ([`load_index`]).
    Undirected,
    /// `PLLDIDX1` — directed unweighted ([`load_directed_index`]).
    Directed,
    /// `PLLWIDX1` — weighted undirected ([`load_weighted_index`]).
    Weighted,
    /// `PLLWDID1` — weighted directed
    /// ([`load_weighted_directed_index`]).
    WeightedDirected,
}

impl IndexFormat {
    /// The CLI-facing name (`pll build --format <name>`).
    pub fn name(self) -> &'static str {
        match self {
            IndexFormat::Undirected => "undirected",
            IndexFormat::Directed => "directed",
            IndexFormat::Weighted => "weighted",
            IndexFormat::WeightedDirected => "weighted-directed",
        }
    }
}

/// Format generation of a serialised index file, from its magic prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormatVersion {
    /// The stream formats of this module (parsed into owned indices).
    V1,
    /// The section-aligned zero-copy format of [`crate::v2`].
    V2,
}

/// Identifies which index family a serialised file holds from its 8-byte
/// magic prefix (v1 or v2 generation), or [`PllError::Format`] for an
/// unknown prefix.
pub fn detect_format(magic: &[u8; 8]) -> Result<IndexFormat> {
    detect_format_versioned(magic).map(|(format, _)| format)
}

/// Like [`detect_format`], also reporting the format generation.
pub fn detect_format_versioned(magic: &[u8; 8]) -> Result<(IndexFormat, FormatVersion)> {
    use crate::v2;
    match magic {
        m if m == MAGIC => Ok((IndexFormat::Undirected, FormatVersion::V1)),
        m if m == DIRECTED_MAGIC => Ok((IndexFormat::Directed, FormatVersion::V1)),
        m if m == WEIGHTED_MAGIC => Ok((IndexFormat::Weighted, FormatVersion::V1)),
        m if m == WEIGHTED_DIRECTED_MAGIC => Ok((IndexFormat::WeightedDirected, FormatVersion::V1)),
        m if m == v2::V2_UNDIRECTED_MAGIC => Ok((IndexFormat::Undirected, FormatVersion::V2)),
        m if m == v2::V2_DIRECTED_MAGIC => Ok((IndexFormat::Directed, FormatVersion::V2)),
        m if m == v2::V2_WEIGHTED_MAGIC => Ok((IndexFormat::Weighted, FormatVersion::V2)),
        m if m == v2::V2_WEIGHTED_DIRECTED_MAGIC => {
            Ok((IndexFormat::WeightedDirected, FormatVersion::V2))
        }
        _ => Err(PllError::Format {
            message: "bad magic bytes".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuilder;
    use pll_graph::gen;

    fn roundtrip(index: &PllIndex) -> PllIndex {
        let mut buf = Vec::new();
        save_index(index, &mut buf).unwrap();
        load_index(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_all_distances() {
        let g = gen::barabasi_albert(150, 3, 5).unwrap();
        let idx = IndexBuilder::new().bit_parallel_roots(4).build(&g).unwrap();
        let loaded = roundtrip(&idx);
        assert_eq!(loaded.num_vertices(), idx.num_vertices());
        for s in (0..150u32).step_by(7) {
            for t in (0..150u32).step_by(11) {
                assert_eq!(loaded.distance(s, t), idx.distance(s, t));
            }
        }
    }

    #[test]
    fn roundtrip_with_parents() {
        let g = gen::grid(5, 5).unwrap();
        let idx = IndexBuilder::new()
            .bit_parallel_roots(0)
            .store_parents(true)
            .build(&g)
            .unwrap();
        let loaded = roundtrip(&idx);
        assert!(loaded.has_parents());
        let p = crate::paths::shortest_path(&loaded, 0, 24)
            .unwrap()
            .unwrap();
        assert_eq!(p.len() as u32, loaded.distance(0, 24).unwrap() + 1);
    }

    #[test]
    fn roundtrip_empty_index() {
        let idx = IndexBuilder::new()
            .build(&pll_graph::CsrGraph::empty(0))
            .unwrap();
        let loaded = roundtrip(&idx);
        assert_eq!(loaded.num_vertices(), 0);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load_index(&b"NOTANIDX________"[..]).unwrap_err();
        assert!(matches!(err, PllError::Format { .. }));
    }

    #[test]
    fn rejects_corruption() {
        let g = gen::path(6).unwrap();
        let idx = IndexBuilder::new().bit_parallel_roots(1).build(&g).unwrap();
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).unwrap();

        // Flip a payload byte: checksum must catch it.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(matches!(
            load_index(corrupt.as_slice()).unwrap_err(),
            PllError::Format { .. }
        ));

        // Truncate: must not panic.
        let truncated = &buf[..buf.len() - 3];
        assert!(load_index(truncated).is_err());
    }

    #[test]
    fn weighted_roundtrip() {
        use crate::weighted::WeightedIndexBuilder;
        use pll_graph::wgraph::WeightedGraph;
        let base = gen::erdos_renyi_gnm(80, 200, 3).unwrap();
        let mut rng = pll_graph::Xoshiro256pp::seed_from_u64(5);
        let edges: Vec<(u32, u32, u32)> = base
            .edges()
            .map(|(u, v)| (u, v, rng.next_below(9) as u32 + 1))
            .collect();
        let g = WeightedGraph::from_edges(80, &edges).unwrap();
        let idx = WeightedIndexBuilder::new().build(&g).unwrap();
        let mut buf = Vec::new();
        save_weighted_index(&idx, &mut buf).unwrap();
        let loaded = load_weighted_index(buf.as_slice()).unwrap();
        for s in 0..80u32 {
            for t in (0..80u32).step_by(7) {
                assert_eq!(loaded.distance(s, t), idx.distance(s, t));
            }
        }
        // Corruption detection.
        let last = buf.len() - 1;
        buf[last] ^= 0x55;
        assert!(load_weighted_index(buf.as_slice()).is_err());
        assert!(load_weighted_index(&b"garbage"[..]).is_err());
    }

    #[test]
    fn directed_roundtrip() {
        use crate::directed::DirectedIndexBuilder;
        let arcs: Vec<(u32, u32)> = (0..60u32)
            .flat_map(|v| [(v, (v + 1) % 60), (v, (v * 7 + 3) % 60)])
            .filter(|&(a, b)| a != b)
            .collect();
        let mut arcs = arcs;
        arcs.sort_unstable();
        arcs.dedup();
        let g = pll_graph::CsrDigraph::from_edges(60, &arcs).unwrap();
        let idx = DirectedIndexBuilder::new().build(&g).unwrap();
        let mut buf = Vec::new();
        save_directed_index(&idx, &mut buf).unwrap();
        let loaded = load_directed_index(buf.as_slice()).unwrap();
        for s in 0..60u32 {
            for t in (0..60u32).step_by(5) {
                assert_eq!(loaded.distance(s, t), idx.distance(s, t), "({s}->{t})");
            }
        }
        // Wrong-family magic is rejected.
        let mut plain = Vec::new();
        let undirected = IndexBuilder::new()
            .bit_parallel_roots(0)
            .build(&gen::path(4).unwrap())
            .unwrap();
        save_index(&undirected, &mut plain).unwrap();
        assert!(load_directed_index(plain.as_slice()).is_err());
        // Truncation is rejected.
        buf.truncate(buf.len() - 3);
        assert!(load_directed_index(buf.as_slice()).is_err());
    }

    #[test]
    fn weighted_directed_roundtrip() {
        use crate::weighted_directed::WeightedDirectedIndexBuilder;
        use pll_graph::wdigraph::WeightedDigraph;
        let mut rng = pll_graph::Xoshiro256pp::seed_from_u64(11);
        let mut arcs = std::collections::HashMap::new();
        while arcs.len() < 200 {
            let u = rng.next_below(50) as u32;
            let v = rng.next_below(50) as u32;
            if u != v {
                arcs.entry((u, v))
                    .or_insert_with(|| rng.next_below(9) as u32 + 1);
            }
        }
        let mut list: Vec<(u32, u32, u32)> =
            arcs.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        list.sort_unstable();
        let g = WeightedDigraph::from_edges(50, &list).unwrap();
        let idx = WeightedDirectedIndexBuilder::new().build(&g).unwrap();
        let mut buf = Vec::new();
        save_weighted_directed_index(&idx, &mut buf).unwrap();
        let loaded = load_weighted_directed_index(buf.as_slice()).unwrap();
        for s in 0..50u32 {
            for t in (0..50u32).step_by(3) {
                assert_eq!(loaded.distance(s, t), idx.distance(s, t), "({s}->{t})");
            }
        }
        // Corruption and wrong-family magic are rejected.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x55;
        assert!(load_weighted_directed_index(corrupt.as_slice()).is_err());
        assert!(load_weighted_directed_index(&b"garbage"[..]).is_err());
        let mut weighted = Vec::new();
        let base = gen::path(4).unwrap();
        let wg = pll_graph::wgraph::WeightedGraph::from_unweighted(&base);
        let widx = crate::weighted::WeightedIndexBuilder::new()
            .build(&wg)
            .unwrap();
        save_weighted_index(&widx, &mut weighted).unwrap();
        assert!(load_weighted_directed_index(weighted.as_slice()).is_err());
        // Truncation is rejected.
        buf.truncate(buf.len() - 3);
        assert!(load_weighted_directed_index(buf.as_slice()).is_err());
    }

    #[test]
    fn detect_format_recognises_all_magics() {
        assert_eq!(detect_format(b"PLLIDX01").unwrap(), IndexFormat::Undirected);
        assert_eq!(detect_format(b"PLLDIDX1").unwrap(), IndexFormat::Directed);
        assert_eq!(detect_format(b"PLLWIDX1").unwrap(), IndexFormat::Weighted);
        assert_eq!(
            detect_format(b"PLLWDID1").unwrap(),
            IndexFormat::WeightedDirected
        );
        assert!(detect_format(b"NOTMAGIC").is_err());
        assert_eq!(IndexFormat::WeightedDirected.name(), "weighted-directed");
    }

    #[test]
    fn memory_size_within_expected_bounds() {
        let g = gen::barabasi_albert(100, 2, 1).unwrap();
        let idx = IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap();
        let mut buf = Vec::new();
        save_index(&idx, &mut buf).unwrap();
        // Serialised form tracks in-memory size within a small factor.
        assert!(buf.len() < 4 * idx.memory_bytes() + 1024);
    }
}
