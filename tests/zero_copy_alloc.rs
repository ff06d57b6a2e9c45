//! Proof of the two no-copy acceptance criteria of the v2 format, by a
//! process-global counting allocator:
//!
//! * opening a v2 index performs **no per-label allocations** — the
//!   whole open is one buffer plus pointer-cast sections — and querying
//!   the view allocates nothing at all;
//! * writing one allocates **O(sections), not O(file)**: the writer
//!   hashes and streams the arenas where they lie.
//!
//! The same allocator keeps a live-bytes high-water mark, which guards the
//! peak heap of a parallel build against regressions.
//!
//! These tests live in their own integration-test binary and serialise
//! on [`COUNTER_LOCK`]: any concurrently running test would pollute the
//! counters.

use pruned_landmark_labeling::graph::gen;
use pruned_landmark_labeling::pll::{v2, AlignedBytes, IndexBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

struct CountingAllocator;

/// Adds `grow` and subtracts `shrink` live bytes, raising the high-water
/// mark if the result tops it.
fn track_live(grow: usize, shrink: usize) {
    let live = LIVE_BYTES.fetch_add(grow as u64, Ordering::Relaxed) + grow as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(shrink as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards verbatim to `System` with the caller's
// own layout/pointer arguments, so `System`'s contract is upheld exactly
// when the caller's is; the only extra work is an atomic counter bump,
// which never allocates (a re-entrant allocation here would deadlock the
// allocator).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY (each method below): same forwarding argument as the impl.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        track_live(layout.size(), 0);
        // SAFETY: caller guarantees `layout` is valid; forwarded as-is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_live(0, layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System` plus
        // a counter, so it satisfies `System::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        track_live(new_size, layout.size());
        // SAFETY: same forwarding argument as `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        track_live(layout.size(), 0);
        // SAFETY: same forwarding argument as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let result = f();
    (ALLOC_CALLS.load(Ordering::SeqCst) - before, result)
}

#[test]
fn opening_a_v2_index_performs_no_per_label_allocations() {
    let _alone = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Two indices two orders of magnitude apart in label count: if the
    // open path allocated per label (or per vertex), the counts below
    // could not both be zero.
    for n in [64usize, 4096] {
        let g = gen::barabasi_albert(n, 3, 13).unwrap();
        let idx = IndexBuilder::new().bit_parallel_roots(4).build(&g).unwrap();
        let mut bytes = Vec::new();
        v2::save_v2_index(&idx, &mut bytes).unwrap();
        let buf = Arc::new(AlignedBytes::from_bytes(&bytes));

        // Warm up once (lazy stdlib initialisation must not skew the
        // measured open).
        drop(v2::open_v2_bytes(Arc::clone(&buf)).unwrap());

        let (opens_allocs, view) =
            allocations_during(|| v2::open_v2_bytes(Arc::clone(&buf)).expect("open v2 buffer"));
        assert_eq!(
            opens_allocs, 0,
            "zero-copy open of the n={n} index allocated {opens_allocs} times \
             (expected: one buffer, pointer-cast sections, nothing else)"
        );

        // Queries over the view are allocation-free too.
        let (query_allocs, checksum) = allocations_during(|| {
            let mut acc = 0u64;
            for s in (0..n as u32).step_by(7) {
                for t in (0..n as u32).step_by(11) {
                    if let Some(d) = view.distance(s, t) {
                        acc = acc.wrapping_add(d);
                    }
                }
            }
            acc
        });
        assert_eq!(query_allocs, 0, "querying the n={n} view allocated");
        // Sanity: the view really answered like the owned index.
        let mut expect = 0u64;
        for s in (0..n as u32).step_by(7) {
            for t in (0..n as u32).step_by(11) {
                if let Some(d) = idx.distance(s, t) {
                    expect = expect.wrapping_add(u64::from(d));
                }
            }
        }
        assert_eq!(checksum, expect);
    }
}

/// A sink that only counts, so the test can state the file size the
/// writer streamed without holding the file.
struct ByteCount(u64);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn saving_a_v2_index_allocates_no_file_sized_buffer() {
    let _alone = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A star keeps every label two entries long, so the build is cheap
    // and the 17-byte-per-(vertex, root) bit-parallel arena — the part
    // the writer has to transpose — is nearly all of the file.
    let g = gen::star(1 << 16).unwrap();
    let idx = IndexBuilder::new().bit_parallel_roots(8).build(&g).unwrap();
    let mut sink = ByteCount(0);
    let before = ALLOC_BYTES.load(Ordering::SeqCst);
    v2::save_v2_index(&idx, &mut sink).unwrap();
    let allocated = ALLOC_BYTES.load(Ordering::SeqCst) - before;
    assert!(sink.0 >= 8 << 20, "index of {} bytes is too small", sink.0);
    assert!(
        allocated < 1 << 20,
        "writing a {}-byte index allocated {allocated} bytes",
        sink.0
    );
}

/// Peak heap of a parallel build above what was live before it. This build
/// peaks at ~11.2 MB, 5.4 MB of it the n × t × 17-byte bit-parallel arena.
/// Padding `BpEntry` to 24 bytes would add 2.2 MB and top the bound;
/// buffering all t per-root BP columns beside the arena until the last
/// one is committed took the peak to ~23 MB.
#[test]
fn parallel_build_peak_heap_stays_bounded() {
    const PEAK_BOUND: u64 = 12_500_000;
    let _alone = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::chung_lu(20_000, 2.3, 12.0, 1).unwrap();
    let base = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(base, Ordering::SeqCst);
    let idx = IndexBuilder::new()
        .bit_parallel_roots(16)
        .threads(2)
        .build(&g)
        .unwrap();
    let peak = PEAK_BYTES.load(Ordering::SeqCst) - base;
    eprintln!("peak heap of the build: {peak} bytes");
    assert!(idx.distance(0, 0) == Some(0));
    assert!(
        peak < PEAK_BOUND,
        "a threads(2), t=16 build of a 20k-vertex graph peaked at {peak} heap bytes \
         (bound {PEAK_BOUND})"
    );
}
