//! Proof of the two no-copy acceptance criteria of the v2 format, by a
//! process-global counting allocator:
//!
//! * opening a v2 index performs **no per-label allocations** — the
//!   whole open is one buffer plus pointer-cast sections — and querying
//!   the view allocates nothing at all;
//! * writing one allocates **O(sections), not O(file)**: the writer
//!   hashes and streams the arenas where they lie.
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
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

struct CountingAllocator;

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
        // SAFETY: caller guarantees `layout` is valid; forwarded as-is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System` plus
        // a counter, so it satisfies `System::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: same forwarding argument as `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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
