//! Crash-recovery integration tests: WAL files are constructed directly
//! through `pll::wal` — including deliberately damaged ones — and then
//! recovered through `pll_server::serve_dynamic`, asserting the startup
//! replay semantics end to end:
//!
//! * uncommitted `Update` records (journaled, crash before the commit
//!   marker) are replayed anyway — journaling precedes apply, so they
//!   are at-least-once delivery and replay is idempotent;
//! * a torn tail (crash mid-append) is silently truncated, never a
//!   panic or an error;
//! * a byte flip inside a complete record is corruption: startup must
//!   refuse with a typed `Format` error rather than serve wrong answers.
//!
//! `scripts/crash_smoke.sh` proves the same properties against real
//! `kill`ed server processes; these tests pin the exact stats and error
//! types in-process.

use pll_server::{serve_dynamic, ServeError, ServerConfig, ServerHandle, WalConfig};
use pruned_landmark_labeling::graph::CsrGraph;
use pruned_landmark_labeling::pll::wal::{self, WalHeader, WalRecord, WalWriter};
use pruned_landmark_labeling::pll::{checksum, v2, AnyIndex, IndexBuilder, PllError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

type Edge = (u32, u32);

const N: u32 = 60;

fn temp_path(name: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "pll_crash_recovery_{}_{n}_{name}",
        std::process::id()
    ))
}

fn ring() -> Vec<Edge> {
    (0..N).map(|i| (i, (i + 1) % N)).collect()
}

fn chords() -> Vec<Edge> {
    (0..N / 2).map(|i| (i, i + N / 2)).collect()
}

/// Builds the ring-only base index, persists it at `index_path`, and
/// returns the graph and the index as served.
fn base_fixture(index_path: &Path) -> (CsrGraph, Arc<AnyIndex>) {
    let g = CsrGraph::from_edges(N as usize, &ring()).unwrap();
    let idx = IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap();
    let mut buf = Vec::new();
    v2::save_v2_index(&idx, &mut buf).unwrap();
    wal::atomic_write(index_path, &buf).unwrap();
    (g, Arc::new(v2::open_v2_path(index_path).unwrap()))
}

fn start(
    index: Arc<AnyIndex>,
    graph: &CsrGraph,
    wal_path: &Path,
    index_path: &Path,
) -> Result<ServerHandle, ServeError> {
    start_snapshotting(index, graph, wal_path, index_path, 0)
}

fn start_snapshotting(
    index: Arc<AnyIndex>,
    graph: &CsrGraph,
    wal_path: &Path,
    index_path: &Path,
    snapshot_every: u64,
) -> Result<ServerHandle, ServeError> {
    serve_dynamic(
        index,
        Some(graph),
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            wal: Some(WalConfig {
                wal_path: wal_path.into(),
                index_path: index_path.into(),
                snapshot_every,
            }),
            ..ServerConfig::default()
        },
    )
}

/// Every-pair answers from the recovered server must equal a
/// from-scratch rebuild of ring + all chords.
fn assert_serves_full_graph(handle: &ServerHandle) {
    let full: Vec<Edge> = ring().into_iter().chain(chords()).collect();
    let g = CsrGraph::from_edges(N as usize, &full).unwrap();
    let rebuilt = IndexBuilder::new().bit_parallel_roots(2).build(&g).unwrap();
    let pairs: Vec<Edge> = (0..N).flat_map(|s| (0..N).map(move |t| (s, t))).collect();
    let mut client =
        pll_server::protocol::Client::connect(&handle.local_addr().to_string()).unwrap();
    let online = client.batch(&pairs).unwrap();
    for (&(s, t), got) in pairs.iter().zip(online) {
        assert_eq!(
            got,
            rebuilt.distance(s, t).map(u64::from),
            "({s}, {t}) diverges"
        );
    }
}

#[test]
fn uncommitted_updates_are_replayed() {
    let index_path = temp_path("uncommitted.idx");
    let wal_path = temp_path("uncommitted.wal");
    let (g, index) = base_fixture(&index_path);

    // A journal whose second batch was acknowledged but never marked
    // committed — the crash hit between journal+apply and the marker.
    let fp = wal::fingerprint_file(&index_path).unwrap();
    let header = WalHeader {
        fingerprint: fp,
        prev_fingerprint: fp,
        base_epoch: 0,
    };
    let all = chords();
    let (first, second) = all.split_at(all.len() / 2);
    let mut writer = WalWriter::create(&wal_path, &header, &[]).unwrap();
    writer
        .append(&WalRecord::Update {
            epoch: 1,
            edges: first.to_vec(),
        })
        .unwrap();
    writer.append(&WalRecord::Commit { seq: 0 }).unwrap();
    writer
        .append(&WalRecord::Update {
            epoch: 2,
            edges: second.to_vec(),
        })
        .unwrap();
    drop(writer);

    let handle = start(index, &g, &wal_path, &index_path).unwrap();
    let stats = handle.recovery().expect("a WAL was replayed").clone();
    assert_eq!(stats.replayed_batches, 2);
    assert_eq!(stats.uncommitted_batches, 1, "the unmarked batch counts");
    assert_eq!(stats.replayed_edges, all.len() as u64);
    assert_eq!(stats.truncated_bytes, 0);
    assert_eq!(stats.recovered_epoch, 2, "epoch numbering is deterministic");
    assert_eq!(handle.current_epoch(), 2);
    assert_serves_full_graph(&handle);
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_file(&index_path);
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn torn_tail_is_truncated_not_fatal() {
    let index_path = temp_path("torn.idx");
    let wal_path = temp_path("torn.wal");
    let (g, index) = base_fixture(&index_path);

    let fp = wal::fingerprint_file(&index_path).unwrap();
    let header = WalHeader {
        fingerprint: fp,
        prev_fingerprint: fp,
        base_epoch: 0,
    };
    let mut writer = WalWriter::create(&wal_path, &header, &[]).unwrap();
    writer
        .append(&WalRecord::Update {
            epoch: 1,
            edges: chords(),
        })
        .unwrap();
    drop(writer);

    // A crash mid-append leaves a half-written record: a length prefix
    // promising more bytes than the file holds.
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let valid_len = bytes.len() as u64;
    bytes.extend_from_slice(&200u32.to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 11]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let handle = start(index, &g, &wal_path, &index_path).unwrap();
    let stats = handle.recovery().expect("a WAL was replayed").clone();
    assert_eq!(stats.truncated_bytes, 15, "the torn tail, byte for byte");
    assert_eq!(stats.replayed_batches, 1);
    assert_eq!(stats.recovered_epoch, 1);
    assert_serves_full_graph(&handle);
    handle.shutdown();
    handle.join();

    // The reopened writer truncated the tail away on disk.
    let after = std::fs::metadata(&wal_path).unwrap().len();
    assert!(
        after >= valid_len && after < valid_len + 15,
        "tail still present: {after} vs valid {valid_len}"
    );
    let _ = std::fs::remove_file(&index_path);
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn corrupt_record_is_a_typed_error() {
    let index_path = temp_path("corrupt.idx");
    let wal_path = temp_path("corrupt.wal");
    let (g, index) = base_fixture(&index_path);

    let fp = wal::fingerprint_file(&index_path).unwrap();
    let header = WalHeader {
        fingerprint: fp,
        prev_fingerprint: fp,
        base_epoch: 0,
    };
    let mut writer = WalWriter::create(&wal_path, &header, &[]).unwrap();
    writer
        .append(&WalRecord::Update {
            epoch: 1,
            edges: chords(),
        })
        .unwrap();
    drop(writer);

    // Flip one byte inside the record payload (past the 40-byte header
    // and the 12-byte length+checksum prefix): a full-length record with
    // a checksum mismatch is corruption, not a torn tail.
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let at = 40 + 12 + 5;
    bytes[at] ^= 0x40;
    std::fs::write(&wal_path, &bytes).unwrap();

    match start(index, &g, &wal_path, &index_path) {
        Err(ServeError::Dynamic(PllError::Format { message })) => {
            assert!(message.contains("checksum"), "{message}");
        }
        Ok(_) => panic!("a corrupt WAL must refuse to serve"),
        Err(other) => panic!("expected a Format error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&index_path);
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn wrong_index_fingerprint_is_refused() {
    let index_path = temp_path("wrongfp.idx");
    let wal_path = temp_path("wrongfp.wal");
    let (g, index) = base_fixture(&index_path);

    // A journal keyed to some other index generation entirely.
    let header = WalHeader {
        fingerprint: 0xDEAD_BEEF,
        prev_fingerprint: 0xDEAD_BEEF,
        base_epoch: 0,
    };
    drop(WalWriter::create(&wal_path, &header, &[]).unwrap());

    match start(index, &g, &wal_path, &index_path) {
        Err(ServeError::Dynamic(e)) => {
            let message = e.to_string();
            assert!(message.contains("different base index"), "{message}");
        }
        Ok(_) => panic!("a mismatched WAL must refuse to serve"),
        Err(other) => panic!("expected a Dynamic error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&index_path);
    let _ = std::fs::remove_file(&wal_path);
}

/// Rewrites a v2 image as the previous binary wrote it: header version
/// 2, checksum = FNV-1a over the file minus the checksum field.
fn as_version_2(image: &mut [u8]) {
    image[8..12].copy_from_slice(&2u32.to_le_bytes());
    let mut h = checksum::Fnv1a::new();
    h.update(&image[..56]);
    h.update(&image[64..]);
    image[56..64].copy_from_slice(&h.finish().to_le_bytes());
}

#[test]
fn previous_binary_index_and_wal_recover_and_chain_across_the_first_snapshot() {
    let index_path = temp_path("legacy.idx");
    let wal_path = temp_path("legacy.wal");
    let (g, _) = base_fixture(&index_path);

    // What the previous binary left behind: a version-2 index, and a WAL
    // keyed by the bytewise FNV-1a of that whole file, holding one batch.
    let mut old_image = std::fs::read(&index_path).unwrap();
    as_version_2(&mut old_image);
    wal::atomic_write(&index_path, &old_image).unwrap();
    let old_fp = checksum::fnv1a(&old_image);
    let header = WalHeader {
        fingerprint: old_fp,
        prev_fingerprint: old_fp,
        base_epoch: 0,
    };
    let all = chords();
    let (first, second) = all.split_at(all.len() / 2);
    let mut writer = WalWriter::create(&wal_path, &header, &[]).unwrap();
    writer
        .append(&WalRecord::Update {
            epoch: 1,
            edges: first.to_vec(),
        })
        .unwrap();
    drop(writer);

    // The new binary opens the old index, recovers its WAL, takes one
    // more batch and snapshots on the way down.
    let open = || Arc::new(AnyIndex::open(&index_path).unwrap());
    let handle = start_snapshotting(open(), &g, &wal_path, &index_path, 1).unwrap();
    assert_eq!(handle.recovery().unwrap().replayed_batches, 1);
    let mut client =
        pll_server::protocol::Client::connect(&handle.local_addr().to_string()).unwrap();
    client.update(second).unwrap();
    client.shutdown_server().unwrap();
    handle.join();

    // The snapshot is a version-3 file fingerprinted by its own header
    // checksum, and the new WAL still names the old generation.
    let new_image = std::fs::read(&index_path).unwrap();
    let stamped = v2::header_checksum(&new_image).unwrap();
    assert_eq!((stamped.version, stamped.kind), (3, "wide64"));
    assert_eq!(wal::fingerprint_file(&index_path).unwrap(), stamped.value);
    let contents = wal::read_wal(&wal_path).unwrap().unwrap();
    assert_eq!(contents.header.fingerprint, stamped.value);
    assert_eq!(contents.header.prev_fingerprint, old_fp);

    // Either generation of the index recovers under that WAL: the new
    // one, and — a crash between the WAL reset and the index rename —
    // the old version-2 one, whose missing edges the Rebase restores.
    for image in [&new_image, &old_image] {
        wal::atomic_write(&index_path, image).unwrap();
        let handle = start(open(), &g, &wal_path, &index_path).unwrap();
        assert_eq!(handle.recovery().unwrap().rebase_edges, all.len() as u64);
        assert_serves_full_graph(&handle);
        handle.shutdown();
        handle.join();
    }
    let _ = std::fs::remove_file(&index_path);
    let _ = std::fs::remove_file(&wal_path);
}
