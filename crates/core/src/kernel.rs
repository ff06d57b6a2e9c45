//! The merge-join query kernels: the branch-heavy scalar reference and
//! the branchless kernel every index family answers queries with (§3.3
//! of the paper; the ROADMAP's "as fast as the hardware allows" item).
//!
//! Every distance query bottoms out in a two-pointer merge over two
//! sorted, sentinel-terminated `(hub rank, distance)` arrays. The scalar
//! kernel ([`merge_query_scalar`]) compares and branches three ways per
//! step; on the power-law labels PLL produces the branch history is
//! near-random, so the mispredict penalty dominates. The branchless
//! kernel ([`merge_query_branchless`]) replaces the three-way branch
//! with arithmetic on the comparison results:
//!
//! * pointer advance: `i += (ru <= rv)`, `j += (rv <= ru)` — both sides
//!   advance on a tie, one side otherwise, no branch;
//! * candidate select: `best = min(best, if ru == rv { du + dv } else
//!   { INF })` — two conditional moves;
//! * termination: `ru & rv == RANK_SENTINEL`, true iff *both* cursors sit
//!   on their sentinel (the sentinel is all-ones), one well-predicted
//!   exit branch per step instead of three.
//!
//! [`merge_query`], [`merge_query_weighted`] and
//! [`merge_query_weighted_dist8`] are the query path and call their
//! branchless kernel directly. The `*_scalar` kernels stay public as the
//! `well_formed` fallback and as the reference the branchless kernels
//! must match bit for bit on every input; `tests` and the proptest suite
//! in `tests/kernel_equivalence.rs` enforce that.
//!
//! # Safety
//!
//! Like `storage`, this module locally re-allows `unsafe` (the crate
//! root denies it) for exactly one pattern: `get_unchecked` label reads
//! inside the branchless loops, eliminating the per-iteration bounds
//! checks the issue of three-way branching was traded away for. The
//! loops are sound because of the sentinel invariant, checked up front
//! by `well_formed`: each rank array is non-empty, as long as its
//! distance array, and ends with [`RANK_SENTINEL`] (the maximum rank).
//! A cursor only advances while its rank is `<=` the other side's; once
//! it reaches the sentinel, `ru <= rv` can only hold when the other side
//! is *also* at its sentinel, and then the loop has already terminated —
//! so neither index ever passes its sentinel slot. Inputs failing the
//! `well_formed` guard fall back to the safe scalar kernel.

#![allow(unsafe_code)]

use crate::types::{Dist, Rank, INF_QUERY, RANK_SENTINEL};

/// The merge-join implementation that answers queries: there is one.
/// It exists so callers that report the kernel in their output (the
/// benchmark's trace record) have a name to print.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Branchless advance + conditional-move select, unchecked reads.
    Branchless,
}

impl KernelKind {
    /// The kernel's name as records print it.
    pub const fn name(self) -> &'static str {
        match self {
            KernelKind::Branchless => "branchless",
        }
    }
}

/// The kernel answering queries: always [`KernelKind::Branchless`].
/// Kept so a record can name the kernel it measured.
pub const fn active_kernel() -> KernelKind {
    KernelKind::Branchless
}

/// The O(1) entry guard the branchless kernels' unchecked reads rely on;
/// see the module-level safety argument.
#[inline]
fn well_formed(ranks: &[Rank], dists_len: usize) -> bool {
    ranks.len() == dists_len && ranks.last() == Some(&RANK_SENTINEL)
}

/// Merge-join over two sentinel-terminated unweighted labels (`u8`
/// distances, summed in `u32`): [`INF_QUERY`] when no common hub.
#[inline]
pub fn merge_query(ur: &[Rank], ud: &[Dist], vr: &[Rank], vd: &[Dist]) -> u32 {
    merge_query_branchless(ur, ud, vr, vd)
}

/// Merge-join over two sentinel-terminated *weighted* labels (`u32`
/// distances, summed in `u64`): `u64::MAX` when no common hub. Shared by
/// the weighted and weighted-directed indices on both storage backends.
#[inline]
pub fn merge_query_weighted(ar: &[Rank], ad: &[u32], br: &[Rank], bd: &[u32]) -> u64 {
    merge_query_weighted_branchless(ar, ad, br, bd)
}

/// Scalar reference kernel (unweighted). [`merge_query_branchless`]
/// must return exactly this function's answers.
#[inline]
pub fn merge_query_scalar(ur: &[Rank], ud: &[Dist], vr: &[Rank], vd: &[Dist]) -> u32 {
    debug_assert_eq!(*ur.last().unwrap(), RANK_SENTINEL);
    debug_assert_eq!(*vr.last().unwrap(), RANK_SENTINEL);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut best = INF_QUERY;
    loop {
        let (ru, rv) = (ur[i], vr[j]);
        if ru == rv {
            if ru == RANK_SENTINEL {
                break;
            }
            let d = ud[i] as u32 + vd[j] as u32;
            if d < best {
                best = d;
            }
            i += 1;
            j += 1;
        } else if ru < rv {
            i += 1;
        } else {
            j += 1;
        }
    }
    best
}

/// Scalar reference kernel (weighted).
#[inline]
pub fn merge_query_weighted_scalar(ar: &[Rank], ad: &[u32], br: &[Rank], bd: &[u32]) -> u64 {
    let mut i = 0usize;
    let mut j = 0usize;
    let mut best = u64::MAX;
    loop {
        let (ru, rv) = (ar[i], br[j]);
        if ru == rv {
            if ru == RANK_SENTINEL {
                break;
            }
            let d = ad[i] as u64 + bd[j] as u64;
            if d < best {
                best = d;
            }
            i += 1;
            j += 1;
        } else if ru < rv {
            i += 1;
        } else {
            j += 1;
        }
    }
    best
}

/// Branchless kernel (unweighted): see the module docs for the advance /
/// select / termination arithmetic. Falls back to
/// [`merge_query_scalar`] when either label fails the `well_formed` guard.
#[inline]
pub fn merge_query_branchless(ur: &[Rank], ud: &[Dist], vr: &[Rank], vd: &[Dist]) -> u32 {
    if !well_formed(ur, ud.len()) || !well_formed(vr, vd.len()) {
        return merge_query_scalar(ur, ud, vr, vd);
    }
    let mut i = 0usize;
    let mut j = 0usize;
    let mut best = INF_QUERY;
    // SAFETY: `well_formed` holds for both labels, so neither cursor can
    // pass its sentinel slot (module-level argument) and the distance
    // arrays are exactly as long as the rank arrays.
    unsafe {
        loop {
            let ru = *ur.get_unchecked(i);
            let rv = *vr.get_unchecked(j);
            if ru & rv == RANK_SENTINEL {
                break;
            }
            let d = *ud.get_unchecked(i) as u32 + *vd.get_unchecked(j) as u32;
            let cand = if ru == rv { d } else { INF_QUERY };
            best = if cand < best { cand } else { best };
            i += (ru <= rv) as usize;
            j += (rv <= ru) as usize;
        }
    }
    best
}

/// Branchless kernel (weighted); distance sums saturate nowhere because
/// two `u32`s always fit a `u64` (the sentinel distance `u32::MAX` is
/// read but its `u64` sum loses to any real candidate or to `u64::MAX`).
#[inline]
pub fn merge_query_weighted_branchless(ar: &[Rank], ad: &[u32], br: &[Rank], bd: &[u32]) -> u64 {
    if !well_formed(ar, ad.len()) || !well_formed(br, bd.len()) {
        return merge_query_weighted_scalar(ar, ad, br, bd);
    }
    let mut i = 0usize;
    let mut j = 0usize;
    let mut best = u64::MAX;
    // SAFETY: as in `merge_query_branchless`.
    unsafe {
        loop {
            let ru = *ar.get_unchecked(i);
            let rv = *br.get_unchecked(j);
            if ru & rv == RANK_SENTINEL {
                break;
            }
            let d = *ad.get_unchecked(i) as u64 + *bd.get_unchecked(j) as u64;
            let cand = if ru == rv { d } else { u64::MAX };
            best = if cand < best { cand } else { best };
            i += (ru <= rv) as usize;
            j += (rv <= ru) as usize;
        }
    }
    best
}

// ---------------------------------------------------------------------
// Dist8: weighted labels with narrowed u8 distances + escape sidecar.
// ---------------------------------------------------------------------

/// Arena byte marking a Dist8 entry whose true distance does not fit in
/// a `u8`: either an *escaped* real entry (true value in the sidecar,
/// keyed by arena position) or a label's sentinel slot (never read as a
/// distance — the merge terminates on the rank sentinel first).
pub const DIST8_ESCAPE: u8 = u8::MAX;

/// True `u64` distance of the Dist8 arena byte `d` at global arena
/// position `pos`: the byte itself below [`DIST8_ESCAPE`], the sidecar
/// value for escaped entries. An escape byte *without* a sidecar entry
/// (rejected by the v2 validator; defensive here) reads as the saturated
/// 255.
#[inline]
fn dist8_resolve(d: u8, pos: u32, esc_pos: &[u32], esc_val: &[u32]) -> u64 {
    if d != DIST8_ESCAPE {
        return d as u64;
    }
    match esc_pos.binary_search(&pos) {
        Ok(k) => esc_val[k] as u64,
        Err(_) => DIST8_ESCAPE as u64,
    }
}

/// Scalar reference kernel over two Dist8 labels. `a_base` / `b_base`
/// are the labels' start offsets in the global distance arena (sidecar
/// positions are arena-global); `esc_pos` / `esc_val` are the sorted
/// escape sidecar shared by both labels.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn merge_query_weighted_dist8_scalar(
    ar: &[Rank],
    ad: &[u8],
    a_base: u32,
    br: &[Rank],
    bd: &[u8],
    b_base: u32,
    esc_pos: &[u32],
    esc_val: &[u32],
) -> u64 {
    let mut i = 0usize;
    let mut j = 0usize;
    let mut best = u64::MAX;
    loop {
        let (ru, rv) = (ar[i], br[j]);
        if ru == rv {
            if ru == RANK_SENTINEL {
                break;
            }
            let d = dist8_resolve(ad[i], a_base + i as u32, esc_pos, esc_val)
                + dist8_resolve(bd[j], b_base + j as u32, esc_pos, esc_val);
            if d < best {
                best = d;
            }
            i += 1;
            j += 1;
        } else if ru < rv {
            i += 1;
        } else {
            j += 1;
        }
    }
    best
}

/// Branchless kernel over two Dist8 labels: the common no-escape case
/// runs the same advance/select arithmetic as
/// [`merge_query_weighted_branchless`] on `u8` sums; a matching hub with
/// an escape byte on either side takes a rare, well-predicted cold
/// branch through the sidecar.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn merge_query_weighted_dist8_branchless(
    ar: &[Rank],
    ad: &[u8],
    a_base: u32,
    br: &[Rank],
    bd: &[u8],
    b_base: u32,
    esc_pos: &[u32],
    esc_val: &[u32],
) -> u64 {
    if !well_formed(ar, ad.len()) || !well_formed(br, bd.len()) {
        return merge_query_weighted_dist8_scalar(ar, ad, a_base, br, bd, b_base, esc_pos, esc_val);
    }
    let mut i = 0usize;
    let mut j = 0usize;
    let mut best = u64::MAX;
    // SAFETY: as in `merge_query_branchless`.
    unsafe {
        loop {
            let ru = *ar.get_unchecked(i);
            let rv = *br.get_unchecked(j);
            if ru & rv == RANK_SENTINEL {
                break;
            }
            let du = *ad.get_unchecked(i);
            let dv = *bd.get_unchecked(j);
            let eq = ru == rv;
            if eq & (du.max(dv) == DIST8_ESCAPE) {
                // Cold path: a real matching hub with an escaped byte.
                let d = dist8_resolve(du, a_base + i as u32, esc_pos, esc_val)
                    + dist8_resolve(dv, b_base + j as u32, esc_pos, esc_val);
                if d < best {
                    best = d;
                }
            } else {
                let cand = if eq { du as u64 + dv as u64 } else { u64::MAX };
                best = if cand < best { cand } else { best };
            }
            i += (ru <= rv) as usize;
            j += (rv <= ru) as usize;
        }
    }
    best
}

/// Dist8 merge-join: the query path's entry point over two Dist8
/// labels (see [`merge_query_weighted_dist8_scalar`] for the arguments).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn merge_query_weighted_dist8(
    ar: &[Rank],
    ad: &[u8],
    a_base: u32,
    br: &[Rank],
    bd: &[u8],
    b_base: u32,
    esc_pos: &[u32],
    esc_val: &[u32],
) -> u64 {
    merge_query_weighted_dist8_branchless(ar, ad, a_base, br, bd, b_base, esc_pos, esc_val)
}

// ---------------------------------------------------------------------
// Software prefetch.
// ---------------------------------------------------------------------

/// Cache-line stride for [`prefetch_read`].
const CACHE_LINE: usize = 64;
/// Upper bound on bytes prefetched per call: enough for the label head
/// that decides most merges, without flooding the L1 on huge labels.
const PREFETCH_MAX_BYTES: usize = 512;

/// Best-effort prefetch of the leading bytes of `data` into L1 (up to
/// 512 B, one request per cache line). A no-op off x86_64. Used by the
/// server's BATCH loop to pull the *next* pair's label sections in
/// while the current pair is merging.
#[inline]
pub fn prefetch_read<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let bytes = std::mem::size_of_val(data).min(PREFETCH_MAX_BYTES);
        let base = data.as_ptr().cast::<i8>();
        let mut off = 0usize;
        while off < bytes {
            // SAFETY: `off < bytes <= size_of_val(data)`, so the address
            // stays inside `data` (and prefetch is non-faulting anyway).
            unsafe { _mm_prefetch(base.add(off), _MM_HINT_T0) };
            off += CACHE_LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = data;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair of fixture labels, as (rank, dist) entry lists.
    type Cases<D> = Vec<(Vec<(Rank, D)>, Vec<(Rank, D)>)>;

    fn label(entries: &[(Rank, Dist)]) -> (Vec<Rank>, Vec<Dist>) {
        let mut ranks: Vec<Rank> = entries.iter().map(|&(r, _)| r).collect();
        let mut dists: Vec<Dist> = entries.iter().map(|&(_, d)| d).collect();
        ranks.push(RANK_SENTINEL);
        dists.push(crate::types::INF8);
        (ranks, dists)
    }

    fn wlabel(entries: &[(Rank, u32)]) -> (Vec<Rank>, Vec<u32>) {
        let mut ranks: Vec<Rank> = entries.iter().map(|&(r, _)| r).collect();
        let mut dists: Vec<u32> = entries.iter().map(|&(_, d)| d).collect();
        ranks.push(RANK_SENTINEL);
        dists.push(u32::MAX);
        (ranks, dists)
    }

    #[test]
    fn all_unweighted_kernels_agree_on_fixtures() {
        let cases: Cases<Dist> = vec![
            (vec![], vec![]),
            (vec![(0, 0), (2, 3)], vec![(0, 1)]),
            (vec![(1, 2)], vec![(0, 1), (2, 9)]),
            (vec![(0, 4), (1, 1), (5, 2)], vec![(1, 3), (5, 1), (9, 0)]),
            (vec![(3, 7)], vec![(3, 7)]),
        ];
        for (a, b) in cases {
            let (ur, ud) = label(&a);
            let (vr, vd) = label(&b);
            let want = merge_query_scalar(&ur, &ud, &vr, &vd);
            assert_eq!(merge_query_branchless(&ur, &ud, &vr, &vd), want);
            // And symmetrically.
            assert_eq!(merge_query_branchless(&vr, &vd, &ur, &ud), want);
        }
    }

    #[test]
    fn all_weighted_kernels_agree_on_fixtures() {
        let cases: Cases<u32> = vec![
            (vec![], vec![]),
            (vec![(0, 10), (4, 300)], vec![(0, 5), (4, 1)]),
            (vec![(2, u32::MAX - 1)], vec![(2, u32::MAX - 1)]),
            (vec![(0, 1), (1, 2), (7, 3)], vec![(1, 9), (7, 0)]),
        ];
        for (a, b) in cases {
            let (ar, ad) = wlabel(&a);
            let (br, bd) = wlabel(&b);
            let want = merge_query_weighted_scalar(&ar, &ad, &br, &bd);
            assert_eq!(merge_query_weighted_branchless(&ar, &ad, &br, &bd), want);
        }
    }

    #[test]
    fn malformed_labels_fall_back_to_scalar_without_panicking() {
        // Missing sentinel / length mismatch must not reach the unsafe
        // loop; the scalar fallback then panics or answers exactly as the
        // scalar kernel always did. Use a well-formed pair against an
        // empty-bodied one to stay panic-free.
        let (ur, ud) = label(&[(1, 1)]);
        // Length mismatch: dists shorter than ranks.
        let short = &ud[..1];
        assert_eq!(
            merge_query_branchless(&ur, short, &ur, &ud),
            merge_query_scalar(&ur, &ud, &ur, &ud)
        );
    }

    #[test]
    fn dist8_kernels_agree_and_resolve_escapes() {
        // Arena layout: label A at base 0 = [(1, 200), (3, ESC->500)],
        // label B at base 3 = [(3, ESC->300), (9, 4)].
        let ar = vec![1, 3, RANK_SENTINEL];
        let ad = vec![200u8, DIST8_ESCAPE, DIST8_ESCAPE];
        let br = vec![3, 9, RANK_SENTINEL];
        let bd = vec![DIST8_ESCAPE, 4u8, DIST8_ESCAPE];
        // Global positions: A = 0..3, B = 3..6; sentinels (2 and 5) have
        // no sidecar entry.
        let esc_pos = vec![1u32, 3u32];
        let esc_val = vec![500u32, 300u32];
        let want = 500 + 300;
        assert_eq!(
            merge_query_weighted_dist8_scalar(&ar, &ad, 0, &br, &bd, 3, &esc_pos, &esc_val),
            want
        );
        assert_eq!(
            merge_query_weighted_dist8_branchless(&ar, &ad, 0, &br, &bd, 3, &esc_pos, &esc_val),
            want
        );
    }

    #[test]
    fn dist8_small_values_need_no_sidecar() {
        let ar = vec![0, 5, RANK_SENTINEL];
        let ad = vec![7u8, 1u8, DIST8_ESCAPE];
        let br = vec![5, RANK_SENTINEL];
        let bd = vec![2u8, DIST8_ESCAPE];
        for f in [
            merge_query_weighted_dist8_scalar,
            merge_query_weighted_dist8_branchless,
        ] {
            assert_eq!(f(&ar, &ad, 0, &br, &bd, 3, &[], &[]), 3);
        }
    }

    #[test]
    fn prefetch_is_safe_on_any_slice() {
        prefetch_read::<u32>(&[]);
        prefetch_read(&[1u8; 3]);
        let big = vec![0u64; 4096];
        prefetch_read(&big);
    }
}
