//! The adapter between the traced run and the layers of the program.
//!
//! This is the **only** file of the benchmark that names builder, kernel,
//! label, dynamic-overlay, WAL, answer-cache or frame-codec types. When a
//! refactor renames or merges those (ROADMAP items 2–4), this file
//! changes; the end-to-end binary and everything in `src/*.rs` compile
//! untouched. Each function replays seeded inputs through one group of
//! layers' public functions, wraps every call (or block of
//! [`frozen::BLOCK`] calls, so the stopwatch stays under 1% of a
//! sub-microsecond layer) in a span, and returns counts the layers
//! already produce.

use crate::spans::Tracer;
use pll_benchmark::inputs::Pair;
use pll_benchmark::load::Stream;
use pll_benchmark::{frozen, BenchError, Result};
use pll_core::dynamic::DynamicIndex;
use pll_core::wal::{read_wal, WalHeader, WalRecord, WalWriter};
use pll_core::{AnyIndex, IndexBuilder, OrderingStrategy};
use pll_graph::CsrGraph;
use pll_server::cache::AnswerCache;
use pll_server::protocol::{read_frame, write_frame, OP_BATCH, OP_QUERY, STATUS_OK, UNREACHABLE};
use pll_server::{Served, SwapCell};
use std::path::Path;
use std::sync::Arc;

/// `(metric name, value)` pairs a layer group reports.
pub type Values = Vec<(&'static str, f64)>;

fn layer_err(what: &str, e: impl std::fmt::Display) -> BenchError {
    BenchError::Index(format!("{what}: {e}"))
}

/// The merge-join kernel the library resolved `PLL_KERNEL` to.
pub fn active_kernel() -> &'static str {
    pll_core::active_kernel().name()
}

/// Construction, layer by layer: ingest → order → relabel → the builder
/// (bit-parallel + pruned searches + flatten, from its own
/// `ConstructionStats`) → v2 save → open.
pub fn construction(
    t: &mut Tracer,
    edges: &Path,
    scratch_index: &Path,
    threads: usize,
) -> Result<Values> {
    let mut root = t.open("construction", None, 0);
    let file = std::fs::File::open(edges)
        .map_err(|e| BenchError::io(format!("open {}", edges.display()), e))?;
    let graph = t
        .time("graph.ingest", &mut root, 1, || {
            pll_graph::edgelist::read_text(std::io::BufReader::new(file))
        })
        .map_err(|e| layer_err("read_text", e))?;
    let order = t
        .time("order.compute", &mut root, 1, || {
            pll_core::order::compute_order_threaded(&graph, &OrderingStrategy::Degree, 0, threads)
        })
        .map_err(|e| layer_err("compute_order_threaded", e))?;
    t.time("graph.relabel", &mut root, 1, || {
        pll_graph::reorder::apply_order_threaded(&graph, &order, threads)
    })
    .map_err(|e| layer_err("apply_order_threaded", e))?;
    // The builder orders and relabels again internally; its own stats
    // split the rest.
    let index = t
        .time("build.index", &mut root, 1, || {
            IndexBuilder::new()
                .bit_parallel_roots(frozen::BP_ROOTS)
                .threads(threads)
                .build(&graph)
        })
        .map_err(|e| layer_err("IndexBuilder::build", e))?;
    let out = std::fs::File::create(scratch_index)
        .map_err(|e| BenchError::io(format!("create {}", scratch_index.display()), e))?;
    t.time("v2.save", &mut root, 1, || {
        pll_core::v2::save_v2_index(&index, std::io::BufWriter::new(out))
    })
    .map_err(|e| layer_err("save_v2_index", e))?;
    let file_bytes = std::fs::metadata(scratch_index)
        .map_err(|e| BenchError::io(format!("stat {}", scratch_index.display()), e))?
        .len();
    t.time("v2.open", &mut root, 1, || AnyIndex::open(scratch_index))
        .map_err(|e| layer_err("AnyIndex::open", e))?;
    t.close(root, 1, None);

    let s = index.stats();
    let secs = |layer: &str| t.total(layer).total_ns as f64 / 1e9;
    Ok(vec![
        ("graph.ingest_s", secs("graph.ingest")),
        ("order.compute_s", secs("order.compute")),
        ("graph.relabel_s", secs("graph.relabel")),
        ("bp.build_s", s.bp_seconds),
        ("bp.roots_used", s.bp_roots_used as f64),
        ("build.pruned_s", s.pruned_seconds),
        ("build.visited", s.total_visited as f64),
        ("build.labeled", s.total_labeled as f64),
        ("build.prune_rate", s.prune_rate()),
        ("build.repruned", s.repruned as f64),
        ("build.batches", s.parallel_batches as f64),
        ("label.flatten_s", s.flatten_seconds),
        ("label.entries_per_vertex", index.avg_label_size()),
        ("v2.save_s", secs("v2.save")),
        ("v2.file_bytes", file_bytes as f64),
        ("v2.open_ms", secs("v2.open") * 1e3),
    ])
}

/// The request path, layer by layer, over `stream` cut into frames of
/// `frame_pairs` pairs: frame decode → answer-cache probe → engine
/// (`try_distance`, and separately its parts: rank map, bit-parallel
/// probe, label merge-join) → frame encode. At most
/// [`frozen::UNIFORM_POOL`] pairs of the stream are replayed. Also returns
/// the nanoseconds one whole frame spends in decode + cache + engine +
/// encode, as replayed here.
pub fn request_path(
    t: &mut Tracer,
    index: &AnyIndex,
    stream: Stream<'_>,
    frame_pairs: usize,
) -> Result<(Values, f64)> {
    let AnyIndex::UndirectedView(view) = index else {
        return Err(BenchError::Index(
            "the traced run expects the zero-copy undirected index `pll build` writes".into(),
        ));
    };
    if stream.expected.is_none() {
        return Err(BenchError::Input(
            "the replayed stream needs known answers".into(),
        ));
    }
    let total_pairs = stream.order.len().min(frozen::UNIFORM_POOL) / frozen::BLOCK * frozen::BLOCK;
    let frames_per_block = frozen::BLOCK / frame_pairs;
    let mut cache = AnswerCache::default();
    let (mut hits, mut evictions, mut decided, mut scanned) = (0u64, 0u64, 0u64, 0u64);
    let (mut pairs, mut want): (Vec<Pair>, Vec<Option<u64>>) = (Vec::new(), Vec::new());
    let mut checksum = 0u64;
    for block in 0..total_pairs / frozen::BLOCK {
        let at = (block * frozen::BLOCK) as u64;
        stream.fill(at, frozen::BLOCK, &mut pairs, &mut want);
        // The frames a client would send for these pairs, back to back.
        let mut wire_in = Vec::with_capacity(frozen::BLOCK * 8 + frames_per_block * 16);
        for frame in pairs.chunks(frame_pairs) {
            let mut payload = Vec::with_capacity(5 + frame.len() * 8);
            if frame_pairs == 1 {
                payload.push(OP_QUERY);
            } else {
                payload.push(OP_BATCH);
                payload.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            }
            for &(s, t) in frame {
                payload.extend_from_slice(&s.to_le_bytes());
                payload.extend_from_slice(&t.to_le_bytes());
            }
            write_frame(&mut wire_in, &payload)
                .map_err(|e| BenchError::io("write_frame to memory", e))?;
        }
        // …and the response payloads the server would send back.
        let responses: Vec<Vec<u8>> = want
            .chunks(frame_pairs)
            .map(|answers| {
                let mut payload = Vec::with_capacity(5 + answers.len() * 8);
                payload.push(STATUS_OK);
                if frame_pairs > 1 {
                    payload.extend_from_slice(&(answers.len() as u32).to_le_bytes());
                }
                for a in answers {
                    payload.extend_from_slice(&a.unwrap_or(UNREACHABLE).to_le_bytes());
                }
                payload
            })
            .collect();

        let frames = frames_per_block as u64;
        let calls = frozen::BLOCK as u64;
        let mut request = t.open("request", None, at);
        t.time("protocol.decode", &mut request, frames, || {
            let mut cursor = std::io::Cursor::new(&wire_in);
            let mut decoded = 0usize;
            while let Ok(Some(payload)) = read_frame(&mut cursor) {
                decoded += std::hint::black_box(payload).len();
            }
            decoded
        });
        t.time("cache.probe", &mut request, calls, || {
            for (&(u, v), w) in pairs.iter().zip(&want) {
                if std::hint::black_box(cache.get(&[], u, v)).is_some() {
                    hits += 1;
                } else {
                    evictions += u64::from(cache.put(&[], 0, u, v, w.unwrap_or(UNREACHABLE)));
                }
            }
        });
        t.time("index.distance", &mut request, calls, || {
            for &(u, v) in &pairs {
                checksum = checksum.wrapping_add(
                    std::hint::black_box(index.try_distance(u, v))
                        .ok()
                        .flatten()
                        .unwrap_or(UNREACHABLE),
                );
            }
        });
        t.time("protocol.encode", &mut request, frames, || {
            let mut wire_out = Vec::with_capacity(frozen::BLOCK * 8 + frames_per_block * 16);
            for payload in &responses {
                // Writing to a Vec cannot fail.
                let _ = write_frame(&mut wire_out, payload);
            }
            std::hint::black_box(wire_out.len())
        });
        t.close(request, frames, None);

        // The engine again, taken apart.
        let mut parts = t.open("index.distance.parts", None, at);
        let ranks: Vec<(u32, u32)> = t.time("index.rank_map", &mut parts, calls, || {
            pairs
                .iter()
                .map(|&(u, v)| (view.rank_of(u), view.rank_of(v)))
                .collect()
        });
        let bp: Vec<u32> = t.time("bp.probe", &mut parts, calls, || {
            ranks
                .iter()
                .map(|&(rs, rt)| view.bit_parallel().query(rs, rt))
                .collect()
        });
        let merged: Vec<u32> = t.time("label.merge", &mut parts, calls, || {
            ranks
                .iter()
                .map(|&(rs, rt)| view.labels().query(rs, rt))
                .collect()
        });
        t.close(parts, calls, None);
        for ((&(rs, rt), b), m) in ranks.iter().zip(&bp).zip(&merged) {
            decided += u64::from(b <= m);
            scanned += (view.labels().label_len(rs) + view.labels().label_len(rt)) as u64;
        }
    }
    std::hint::black_box(checksum);

    let probes = total_pairs.max(1) as f64;
    let merge_ns = t.total("label.merge").total_ns as f64;
    let hit_ratio = hits as f64 / probes;
    let per_frame = t.ns_per_call("protocol.decode")
        + t.ns_per_call("protocol.encode")
        + frame_pairs as f64
            * (t.ns_per_call("cache.probe") + (1.0 - hit_ratio) * t.ns_per_call("index.distance"));
    Ok((
        vec![
            ("index.rank_map_ns", t.ns_per_call("index.rank_map")),
            ("bp.probe_ns", t.ns_per_call("bp.probe")),
            ("bp.decided_frac", decided as f64 / probes),
            ("label.merge_ns", t.ns_per_call("label.merge")),
            ("label.entries_scanned", scanned as f64 / probes),
            (
                "kernel.ns_per_entry",
                if scanned == 0 {
                    0.0
                } else {
                    merge_ns / scanned as f64
                },
            ),
            ("index.distance_ns", t.ns_per_call("index.distance")),
            ("protocol.decode_ns", t.ns_per_call("protocol.decode")),
            ("protocol.encode_ns", t.ns_per_call("protocol.encode")),
            ("cache.probe_ns", t.ns_per_call("cache.probe")),
            ("cache.hit_ratio", hit_ratio),
            ("cache.evictions_per_probe", evictions as f64 / probes),
        ],
        per_frame,
    ))
}

/// The update path, layer by layer, over `batches`: journal → apply →
/// snapshot → publish per batch, a flatten + rebase whenever the overlay
/// passes `flatten_threshold`, and at the end recovery (read the WAL
/// back and replay it through a fresh overlay).
pub fn update_path(
    t: &mut Tracer,
    index_path: &Path,
    graph: &CsrGraph,
    batches: &[Vec<Pair>],
    wal_path: &Path,
    threads: usize,
    flatten_threshold: u64,
) -> Result<Values> {
    let open = || {
        AnyIndex::open(index_path)
            .map(Arc::new)
            .map_err(|e| layer_err("open", e))
    };
    let base = open()?;
    let mut dynamic = DynamicIndex::new(Arc::clone(&base), graph)
        .map_err(|e| layer_err("DynamicIndex::new", e))?;
    let cell = SwapCell::new(base);
    let header = WalHeader {
        fingerprint: 0,
        prev_fingerprint: 0,
        base_epoch: 0,
    };
    let mut wal =
        WalWriter::create(wal_path, &header, &[]).map_err(|e| layer_err("WalWriter::create", e))?;
    let (mut wal_bytes, mut edges, mut visited, mut delta) = (0u64, 0u64, 0u64, 0u64);
    for (k, batch) in batches.iter().enumerate() {
        let epoch = k as u64 + 1;
        let record = WalRecord::Update {
            epoch,
            edges: batch.clone(),
        };
        let mut update = t.open("update", None, k as u64);
        wal_bytes += t
            .time("wal.append", &mut update, 1, || wal.append(&record))
            .map_err(|e| layer_err("WalWriter::append", e))?
            .bytes;
        let stats = t
            .time("dynamic.apply", &mut update, 1, || dynamic.apply(batch))
            .map_err(|e| layer_err("DynamicIndex::apply", e))?;
        edges += stats.edges_applied as u64;
        visited += stats.vertices_visited;
        delta += stats.entries_added as u64;
        let snapshot = t.time("dynamic.snapshot", &mut update, 1, || dynamic.snapshot());
        t.time("server.publish", &mut update, 1, || {
            cell.store(epoch, Served::Overlay(Arc::new(snapshot)))
        });
        // The commit marker is a second, edge-less append.
        t.time("wal.append", &mut update, 1, || {
            wal.append(&WalRecord::Commit { seq: k as u64 })
        })
        .map_err(|e| layer_err("WalWriter::append", e))?;
        t.close(update, 1, None);

        if dynamic.overlay_dirty() && dynamic.delta_entries() as u64 >= flatten_threshold {
            let mut pass = t.open("flatten_pass", None, k as u64);
            let (frozen_overlay, absorbed) = (dynamic.snapshot(), dynamic.inserted_edges().len());
            let flat = t
                .time("dynamic.flatten", &mut pass, 1, || {
                    frozen_overlay.flatten(threads)
                })
                .map_err(|e| layer_err("flatten", e))?;
            let flat = Arc::new(AnyIndex::Undirected(flat));
            t.time("dynamic.rebase", &mut pass, 1, || {
                dynamic.rebase(Arc::clone(&flat), absorbed)
            })
            .map_err(|e| layer_err("DynamicIndex::rebase", e))?;
            cell.store(epoch, Served::Flat(flat));
            t.close(pass, 1, None);
        }
    }
    drop(wal);

    let mut recovery = t.open("recovery", None, 0);
    let mut fresh =
        DynamicIndex::new(open()?, graph).map_err(|e| layer_err("DynamicIndex::new", e))?;
    let replayed = t
        .time(
            "wal.recover",
            &mut recovery,
            1,
            || -> pll_core::Result<usize> {
                let contents = read_wal(wal_path)?;
                let mut replayed = 0;
                for record in contents.iter().flat_map(|c| &c.records) {
                    if let WalRecord::Update { edges, .. } = record {
                        fresh.apply(edges)?;
                        replayed += 1;
                    }
                }
                Ok(replayed)
            },
        )
        .map_err(|e| layer_err("read_wal + replay", e))?;
    t.close(recovery, 1, None);
    if replayed != batches.len() {
        return Err(BenchError::Check(format!(
            "the WAL replayed {replayed} batches, {} were journaled",
            batches.len()
        )));
    }

    let ms = |layer: &str| t.ns_per_call(layer) / 1e6;
    let per_edge = |total: u64| {
        if edges == 0 {
            0.0
        } else {
            total as f64 / edges as f64
        }
    };
    Ok(vec![
        ("wal.append_ms", ms("wal.append")),
        ("wal.bytes_per_edge", per_edge(wal_bytes)),
        ("dynamic.apply_ms", ms("dynamic.apply")),
        ("dynamic.visited_per_edge", per_edge(visited)),
        ("dynamic.delta_entries_per_edge", per_edge(delta)),
        ("dynamic.snapshot_ms", ms("dynamic.snapshot")),
        ("server.publish_ms", ms("server.publish")),
        ("dynamic.flatten_ms", ms("dynamic.flatten")),
        ("dynamic.rebase_ms", ms("dynamic.rebase")),
        ("wal.recover_ms", ms("wal.recover")),
    ])
}
