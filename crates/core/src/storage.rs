//! Storage backends for label arenas: owned `Vec`s or borrowed views over
//! one contiguous, section-aligned byte buffer.
//!
//! The paper's point (§4.3, §6 "Disk-based Query Answering") is that a
//! built 2-hop label answers queries from a handful of contiguous regions.
//! This module makes that literal: [`LabelStorage`] and [`BpStorage`]
//! abstract *where* those regions live, with two implementations each —
//!
//! * [`OwnedLabels`] / [`OwnedBp`] — the classic heap-allocated arenas the
//!   builders produce;
//! * [`ViewLabels`] / [`ViewBp`] — zero-copy [`SectionSlice`] views into a
//!   single [`AlignedBytes`] buffer holding a v2 index file
//!   ([`crate::v2`]), where every section starts on a 64-byte boundary so
//!   a verified buffer is queried through pointer casts, never parsed.
//!
//! The query kernels in [`crate::label`], [`crate::bp`] and the index
//! types are generic over these traits, so the exact same merge-join runs
//! on either backend.
//!
//! This is the one module in the crate that uses `unsafe`: the pointer
//! casts from the byte buffer to typed slices, and `pod_bytes` the
//! other way for the v2 writer. Every buffer-to-typed cast is guarded by
//! the bounds and alignment checks in [`SectionSlice::new`], and the
//! element types are restricted to the sealed [`Pod`] trait (`u8`, `u32`,
//! `u64`: no padding, no invalid bit patterns, alignment ≤ 8).
#![allow(unsafe_code)]

use crate::bp::BpEntry;
use crate::error::{PllError, Result};
use crate::types::Rank;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Alignment (bytes) of every section inside an [`AlignedBytes`] buffer —
/// one cache line, and a multiple of every [`Pod`] element's alignment.
pub const SECTION_ALIGN: usize = 64;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// Plain-old-data element types a [`SectionSlice`] may view: fixed-size
/// little-endian integers with no padding and no invalid bit patterns.
/// Sealed — the unsafe casts in this module are only sound for these.
pub trait Pod: Copy + Send + Sync + sealed::Sealed + 'static {
    /// Element size in bytes (`align_of` equals `size_of` for all three).
    const SIZE: usize;
}

impl Pod for u8 {
    const SIZE: usize = 1;
}
impl Pod for u32 {
    const SIZE: usize = 4;
}
impl Pod for u64 {
    const SIZE: usize = 8;
}

/// Views a [`Pod`] slice as its in-memory bytes — on the little-endian
/// targets the v2 format supports, exactly the bytes the slice occupies
/// as a file section, so the v2 writer hashes and writes arenas in place.
pub(crate) fn pod_bytes<T: Pod>(slice: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` is sealed to `u8`/`u32`/`u64` — no padding, so all
    // `size_of_val(slice)` bytes are initialised; `u8` has alignment 1;
    // the returned borrow keeps `slice` alive and shared.
    unsafe { std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), std::mem::size_of_val(slice)) }
}

/// An immutable byte buffer whose base address is 8-byte aligned, so any
/// section at a [`SECTION_ALIGN`]-multiple offset can be viewed as `&[u8]`,
/// `&[u32]` or `&[u64]` without copying.
///
/// The default backing store is a heap `Vec<u64>` filled by one
/// `read_exact` (a single allocation for the whole file). With the `mmap`
/// feature on Linux the file is memory-mapped instead: no copy, and the
/// pages are shared read-only between every process serving the same
/// index. (The v2 opener still touches each page once for checksum and
/// structural validation, so mapping buys sharing and copy-avoidance,
/// not lazy page-in; a validation-skipping trusted-open is a possible
/// future knob.)
pub struct AlignedBytes {
    inner: Inner,
}

enum Inner {
    Heap {
        /// Backing words: the `Vec<u64>` guarantees 8-byte base alignment.
        words: Vec<u64>,
        /// Logical byte length (≤ `words.len() * 8`).
        len: usize,
    },
    #[cfg(all(target_os = "linux", feature = "mmap"))]
    Mmap(mmap_linux::Mapping),
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh aligned buffer (one allocation).
    pub fn from_bytes(bytes: &[u8]) -> AlignedBytes {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: u64 -> u8 view of the same allocation; the byte length
        // never exceeds the word capacity.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), bytes.len()) };
        dst.copy_from_slice(bytes);
        AlignedBytes {
            inner: Inner::Heap {
                words,
                len: bytes.len(),
            },
        }
    }

    /// Loads a whole file: a single `mmap` when built with the `mmap`
    /// feature on Linux, otherwise one sized allocation + one `read_exact`.
    pub fn from_file(path: &Path) -> Result<AlignedBytes> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| PllError::TooLarge {
            what: "index file length",
        })?;
        #[cfg(all(target_os = "linux", feature = "mmap"))]
        {
            if len > 0 {
                return Ok(AlignedBytes {
                    inner: Inner::Mmap(mmap_linux::Mapping::map(&file, len)?),
                });
            }
        }
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: as in `from_bytes`.
        let dst = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        std::io::Read::read_exact(&mut file, dst)?;
        Ok(AlignedBytes {
            inner: Inner::Heap { words, len },
        })
    }

    /// Byte length of the buffer.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap { len, .. } => *len,
            #[cfg(all(target_os = "linux", feature = "mmap"))]
            Inner::Mmap(m) => m.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole buffer as bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.inner {
            Inner::Heap { words, len } => {
                // SAFETY: u64 -> u8 view of the same allocation, len is
                // within the allocation by construction.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len) }
            }
            #[cfg(all(target_os = "linux", feature = "mmap"))]
            Inner::Mmap(m) => m.as_bytes(),
        }
    }
}

impl fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(all(target_os = "linux", feature = "mmap"))]
mod mmap_linux {
    //! Minimal read-only `mmap` shim. The real `memmap2` crate is the
    //! right dependency once a cargo registry is reachable; this container
    //! has none, so the two syscalls are declared directly against the
    //! libc that std already links.
    use crate::error::{PllError, Result};
    use std::os::unix::io::AsRawFd;

    // Linux ABI constants for the two calls we make.
    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    pub struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) for its
    // whole lifetime, so shared references from any thread are sound.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub fn map(file: &std::fs::File, len: usize) -> Result<Mapping> {
            debug_assert!(len > 0, "mmap of an empty file is invalid");
            // SAFETY: fd is valid for the duration of the call; a failed
            // map returns MAP_FAILED which we check before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(PllError::Io(std::io::Error::last_os_error()));
            }
            Ok(Mapping {
                ptr: ptr.cast_const().cast::<u8>(),
                len,
            })
        }

        pub fn len(&self) -> usize {
            self.len
        }

        pub fn as_bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region returned by mmap.
            unsafe {
                munmap(self.ptr.cast_mut().cast(), self.len);
            }
        }
    }
}

/// A typed view of one section of an [`AlignedBytes`] buffer: `len`
/// elements of `T` starting at `byte_offset`. Holding the buffer behind an
/// `Arc` makes the slice self-sufficient — cloning a view is two pointer
/// copies, and [`SectionSlice::as_slice`] is a pointer cast, not a parse.
pub struct SectionSlice<T: Pod> {
    buf: Arc<AlignedBytes>,
    byte_offset: usize,
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod> SectionSlice<T> {
    /// Creates a view after checking bounds and alignment.
    ///
    /// # Errors
    ///
    /// [`PllError::Format`] when the section overflows the buffer or its
    /// start is not aligned to `T`.
    pub fn new(buf: Arc<AlignedBytes>, byte_offset: usize, len: usize) -> Result<SectionSlice<T>> {
        let byte_len = len.checked_mul(T::SIZE).ok_or_else(|| PllError::Format {
            message: "section length overflows".into(),
        })?;
        let end = byte_offset
            .checked_add(byte_len)
            .ok_or_else(|| PllError::Format {
                message: "section end overflows".into(),
            })?;
        if end > buf.len() {
            return Err(PllError::Format {
                message: format!(
                    "section [{byte_offset}, {end}) exceeds buffer of {} bytes",
                    buf.len()
                ),
            });
        }
        if !byte_offset.is_multiple_of(T::SIZE)
            || !(buf.as_bytes().as_ptr() as usize).is_multiple_of(T::SIZE)
        {
            return Err(PllError::Format {
                message: format!("section at byte {byte_offset} is not {}-aligned", T::SIZE),
            });
        }
        Ok(SectionSlice {
            buf,
            byte_offset,
            len,
            _marker: std::marker::PhantomData,
        })
    }

    /// An empty view over `buf` (for absent optional sections).
    pub fn empty(buf: Arc<AlignedBytes>) -> SectionSlice<T> {
        SectionSlice {
            buf,
            byte_offset: 0,
            len: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The section as a typed slice — a pointer cast, zero work.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `new` checked that [byte_offset, byte_offset + len * SIZE)
        // is in bounds and `T`-aligned; `T: Pod` guarantees every bit
        // pattern is a valid `T`; the Arc keeps the buffer alive for the
        // returned borrow's lifetime (tied to &self).
        unsafe {
            std::slice::from_raw_parts(
                self.buf
                    .as_bytes()
                    .as_ptr()
                    .add(self.byte_offset)
                    .cast::<T>(),
                self.len,
            )
        }
    }

    /// Bytes occupied by the section.
    pub fn byte_len(&self) -> usize {
        self.len * T::SIZE
    }
}

impl<T: Pod> Clone for SectionSlice<T> {
    fn clone(&self) -> Self {
        SectionSlice {
            buf: Arc::clone(&self.buf),
            byte_offset: self.byte_offset,
            len: self.len,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Pod> fmt::Debug for SectionSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SectionSlice")
            .field("byte_offset", &self.byte_offset)
            .field("len", &self.len)
            .finish()
    }
}

impl<T: Pod> AsRef<[T]> for SectionSlice<T> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

/// Storage backend of a sentinel-terminated label arena (offsets + ranks +
/// distances + optional parents). `Dist` is `u8` for unweighted labels and
/// `u32` for the weighted arenas.
pub trait LabelStorage {
    /// Element type of the distance array.
    type Dist: Pod;
    /// Arena offsets (`n + 1` entries, offset `v` is vertex `v`'s start).
    fn offsets(&self) -> &[u32];
    /// Hub-rank arena (sentinel-terminated per label).
    fn ranks(&self) -> &[Rank];
    /// Distance arena, parallel to `ranks`.
    fn dists(&self) -> &[Self::Dist];
    /// Parent-pointer arena, if stored.
    fn parents(&self) -> Option<&[Rank]>;
    /// Bytes occupied by the arenas.
    fn memory_bytes(&self) -> usize {
        self.offsets().len() * 4
            + self.ranks().len() * 4
            + std::mem::size_of_val(self.dists())
            + self.parents().map_or(0, |p| p.len() * 4)
    }
}

/// Heap-owned label arenas — what the builders produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedLabels<D: Pod> {
    pub(crate) offsets: Vec<u32>,
    pub(crate) ranks: Vec<Rank>,
    pub(crate) dists: Vec<D>,
    pub(crate) parents: Option<Vec<Rank>>,
}

impl<D: Pod> LabelStorage for OwnedLabels<D> {
    type Dist = D;
    fn offsets(&self) -> &[u32] {
        &self.offsets
    }
    fn ranks(&self) -> &[Rank] {
        &self.ranks
    }
    fn dists(&self) -> &[D] {
        &self.dists
    }
    fn parents(&self) -> Option<&[Rank]> {
        self.parents.as_deref()
    }
}

/// Zero-copy label arenas: four [`SectionSlice`] views into one buffer.
#[derive(Clone, Debug)]
pub struct ViewLabels<D: Pod> {
    pub(crate) offsets: SectionSlice<u32>,
    pub(crate) ranks: SectionSlice<Rank>,
    pub(crate) dists: SectionSlice<D>,
    pub(crate) parents: Option<SectionSlice<Rank>>,
}

impl<D: Pod> LabelStorage for ViewLabels<D> {
    type Dist = D;
    fn offsets(&self) -> &[u32] {
        self.offsets.as_slice()
    }
    fn ranks(&self) -> &[Rank] {
        self.ranks.as_slice()
    }
    fn dists(&self) -> &[D] {
        self.dists.as_slice()
    }
    fn parents(&self) -> Option<&[Rank]> {
        self.parents.as_ref().map(SectionSlice::as_slice)
    }
}

/// Storage backend of the bit-parallel label arena.
///
/// The owned backend keeps the array-of-structs `Vec<BpEntry>` (packed,
/// 17 bytes per entry) the builders fill in place; the view backend reads
/// the v2 format's structure-of-arrays sections (`dist` / `set_minus1` /
/// `set_zero`), whose masks — unlike a packed `BpEntry`'s — are 8-byte
/// aligned and so can be cast from the file. [`BpStorage::entry`]
/// assembles the same 17 bytes either way; the query kernel is identical.
pub trait BpStorage {
    /// Ranks used as BP roots (`u32::MAX` marks an exhausted slot).
    fn roots(&self) -> &[Rank];
    /// Entry at flat index `idx` (= `v * num_roots + i`).
    fn entry(&self, idx: usize) -> BpEntry;
    /// Number of entries in the arena.
    fn entry_count(&self) -> usize;
    /// Bytes occupied by the arena.
    fn memory_bytes(&self) -> usize;
}

/// Heap-owned bit-parallel arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedBp {
    pub(crate) roots: Vec<Rank>,
    pub(crate) entries: Vec<BpEntry>,
}

impl BpStorage for OwnedBp {
    fn roots(&self) -> &[Rank] {
        &self.roots
    }
    #[inline]
    fn entry(&self, idx: usize) -> BpEntry {
        self.entries[idx]
    }
    fn entry_count(&self) -> usize {
        self.entries.len()
    }
    fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<BpEntry>() + self.roots.len() * 4
    }
}

/// Zero-copy bit-parallel arena over the v2 structure-of-arrays sections.
#[derive(Clone, Debug)]
pub struct ViewBp {
    pub(crate) roots: SectionSlice<Rank>,
    pub(crate) dist: SectionSlice<u8>,
    pub(crate) set_minus1: SectionSlice<u64>,
    pub(crate) set_zero: SectionSlice<u64>,
}

impl BpStorage for ViewBp {
    fn roots(&self) -> &[Rank] {
        self.roots.as_slice()
    }
    #[inline]
    fn entry(&self, idx: usize) -> BpEntry {
        BpEntry {
            dist: self.dist.as_slice()[idx],
            set_minus1: self.set_minus1.as_slice()[idx],
            set_zero: self.set_zero.as_slice()[idx],
        }
    }
    fn entry_count(&self) -> usize {
        self.dist.len()
    }
    fn memory_bytes(&self) -> usize {
        self.dist.byte_len()
            + self.set_minus1.byte_len()
            + self.set_zero.byte_len()
            + self.roots.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_bytes_roundtrip_and_alignment() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let src: Vec<u8> = (0..n).map(|i| (i * 37) as u8).collect();
            let buf = AlignedBytes::from_bytes(&src);
            assert_eq!(buf.len(), n);
            assert_eq!(buf.as_bytes(), &src[..]);
            assert_eq!(buf.as_bytes().as_ptr() as usize % 8, 0, "base alignment");
            assert_eq!(buf.is_empty(), n == 0);
        }
    }

    #[test]
    fn pod_bytes_views_the_little_endian_image() {
        assert_eq!(pod_bytes::<u64>(&[]), &[] as &[u8]);
        assert_eq!(pod_bytes(&[7u8, 9]), &[7, 9]);
        assert_eq!(pod_bytes(&[0x0403_0201u32, 5]), &[1, 2, 3, 4, 5, 0, 0, 0]);
        assert_eq!(
            pod_bytes(&[0x0807_0605_0403_0201u64]),
            &[1, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn section_slice_casts_u32_and_u64() {
        // 64 zero bytes, then 4 u32s, then (aligned) 2 u64s.
        let mut bytes = vec![0u8; 64];
        for v in [1u32, 2, 3, 4] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.resize(128, 0);
        for v in [0xDEAD_BEEFu64, 42] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let buf = Arc::new(AlignedBytes::from_bytes(&bytes));
        let s32 = SectionSlice::<u32>::new(Arc::clone(&buf), 64, 4).unwrap();
        assert_eq!(s32.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(s32.byte_len(), 16);
        let s64 = SectionSlice::<u64>::new(Arc::clone(&buf), 128, 2).unwrap();
        assert_eq!(s64.as_slice(), &[0xDEAD_BEEF, 42]);
        let s8 = SectionSlice::<u8>::new(Arc::clone(&buf), 64, 4).unwrap();
        assert_eq!(s8.as_slice(), &[1, 0, 0, 0]);
        assert!(!s8.is_empty());
        assert!(SectionSlice::<u32>::empty(buf).is_empty());
    }

    #[test]
    fn section_slice_rejects_bad_bounds_and_alignment() {
        let buf = Arc::new(AlignedBytes::from_bytes(&[0u8; 64]));
        // Out of bounds.
        assert!(matches!(
            SectionSlice::<u32>::new(Arc::clone(&buf), 60, 2),
            Err(PllError::Format { .. })
        ));
        // Misaligned start.
        assert!(matches!(
            SectionSlice::<u32>::new(Arc::clone(&buf), 2, 1),
            Err(PllError::Format { .. })
        ));
        assert!(matches!(
            SectionSlice::<u64>::new(Arc::clone(&buf), 4, 1),
            Err(PllError::Format { .. })
        ));
        // Length overflow must not wrap.
        assert!(matches!(
            SectionSlice::<u64>::new(Arc::clone(&buf), 0, usize::MAX / 2),
            Err(PllError::Format { .. })
        ));
        // In-bounds aligned view is fine.
        assert!(SectionSlice::<u64>::new(buf, 8, 7).is_ok());
    }

    #[test]
    fn from_file_matches_from_bytes() {
        let mut path = std::env::temp_dir();
        path.push(format!("pll_storage_test_{}", std::process::id()));
        let payload: Vec<u8> = (0..300u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let buf = AlignedBytes::from_file(&path).unwrap();
        assert_eq!(buf.as_bytes(), &payload[..]);
        std::fs::remove_file(&path).ok();
        assert!(AlignedBytes::from_file(&path).is_err());
    }

    #[test]
    fn owned_and_view_labels_agree() {
        let owned = OwnedLabels::<u8> {
            offsets: vec![0, 2, 3],
            ranks: vec![0, u32::MAX, u32::MAX],
            dists: vec![0, 255, 255],
            parents: None,
        };
        // Lay the same arenas out in one buffer at 64-byte sections.
        let mut bytes = vec![0u8; 64];
        for &o in &owned.offsets {
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        bytes.resize(128, 0);
        for &r in &owned.ranks {
            bytes.extend_from_slice(&r.to_le_bytes());
        }
        bytes.resize(192, 0);
        bytes.extend_from_slice(&owned.dists);
        let buf = Arc::new(AlignedBytes::from_bytes(&bytes));
        let view = ViewLabels::<u8> {
            offsets: SectionSlice::new(Arc::clone(&buf), 64, 3).unwrap(),
            ranks: SectionSlice::new(Arc::clone(&buf), 128, 3).unwrap(),
            dists: SectionSlice::new(Arc::clone(&buf), 192, 3).unwrap(),
            parents: None,
        };
        assert_eq!(owned.offsets(), view.offsets());
        assert_eq!(owned.ranks(), view.ranks());
        assert_eq!(owned.dists(), view.dists());
        assert_eq!(owned.parents(), view.parents());
        assert_eq!(view.memory_bytes(), 3 * 4 + 3 * 4 + 3);
    }
}
