//! The two 64-bit checksums of the on-disk formats.
//!
//! * [`Fnv1a`] — byte-at-a-time FNV-1a, the legacy digest: v1 index
//!   payloads, WAL headers and records, and v2 files with header
//!   `version` 2 (read-only). One dependent multiply per byte caps it
//!   near 0.8 GB/s, which is why whole-file hashing moved off it.
//! * [`Wide64`] — the v2 `version` 3 digest: 8-byte little-endian words
//!   dealt round-robin onto four independent multiply-rotate lanes, so
//!   the four multiplies of a 32-byte block overlap and hashing runs at
//!   memory bandwidth.
//!
//! Both are streaming: the digest depends only on the concatenated
//! input, never on how it was split across `update` calls. Neither is
//! cryptographic; they detect truncation, bit rot and torn writes.
//!
//! # `Wide64` definition
//!
//! ```text
//! step(h, w)  = ((h ^ w) * P).rotate_left(29)          P = 0x9E3779B97F4A7C15 (odd)
//! lanes       = SEED[0..4]
//! for each complete 8-byte LE word w_i of the input:   lanes[i % 4] = step(lanes[i % 4], w_i)
//! h = len                                              (total input bytes)
//! for k in 0..4:                                       h = step(h, lanes[k])
//! h = step(h, tail)                                    (the len % 8 trailing bytes, zero-padded
//!                                                       to one LE word; 0 when there are none)
//! digest = mix(h)      mix(h): h ^= h >> 32; h *= P; h ^= h >> 29
//! ```
//!
//! For a fixed second argument `step` is a bijection of the first, and
//! for a fixed first argument a bijection of the second (xor, multiply
//! by an odd constant and rotate all are); `mix` is a bijection too. So
//! a change confined to one word — or to the tail — changes exactly one
//! lane (or the tail fold), and every later operation carries the
//! difference through: like FNV-1a, a single-word change *provably*
//! changes the digest rather than merely probably.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 (see the module docs for where it is still used).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A digest over no bytes yet.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// One-shot FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

const LANES: usize = 4;
const BLOCK: usize = LANES * 8;
const P: u64 = 0x9E37_79B9_7F4A_7C15;
const SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(P).rotate_left(29)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Streaming four-lane word-wise digest (see the module docs).
#[derive(Clone, Debug)]
pub struct Wide64 {
    lanes: [u64; LANES],
    /// Input bytes not yet folded into the lanes: always fewer than
    /// [`BLOCK`], and always starting on a block boundary of the input.
    pending: [u8; BLOCK],
    pending_len: usize,
    len: u64,
}

impl Wide64 {
    /// A digest over no bytes yet.
    pub fn new() -> Wide64 {
        Wide64 {
            lanes: SEEDS,
            pending: [0; BLOCK],
            pending_len: 0,
            len: 0,
        }
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.pending_len > 0 {
            let take = bytes.len().min(BLOCK - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK {
                return;
            }
            let block = self.pending;
            self.fold_blocks(&block);
        }
        let rest = self.fold_blocks(bytes);
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Folds every complete block of `bytes` into the lanes and returns
    /// the incomplete last one.
    fn fold_blocks<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        let mut blocks = bytes.chunks_exact(BLOCK);
        // Lanes in locals: the four chains stay in registers across the
        // loop instead of round-tripping through `self`.
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in &mut blocks {
            a = step(a, word(&block[0..8]));
            b = step(b, word(&block[8..16]));
            c = step(c, word(&block[16..24]));
            d = step(d, word(&block[24..32]));
        }
        self.lanes = [a, b, c, d];
        blocks.remainder()
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        let mut words = self.pending[..self.pending_len].chunks_exact(8);
        for (lane, w) in lanes.iter_mut().zip(&mut words) {
            *lane = step(*lane, word(w));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        let mut h = lanes.iter().fold(self.len, |h, &lane| step(h, lane));
        h = step(h, u64::from_le_bytes(tail));
        h ^= h >> 32;
        h = h.wrapping_mul(P);
        h ^ (h >> 29)
    }
}

impl Default for Wide64 {
    fn default() -> Wide64 {
        Wide64::new()
    }
}

/// One-shot [`Wide64`] digest of `bytes`.
pub fn wide64(bytes: &[u8]) -> u64 {
    let mut h = Wide64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test pattern: byte `i` is `(31 i + (i >> 8)) mod 256`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + (i >> 8)) as u8).collect()
    }

    #[test]
    fn frozen_vectors_pin_the_format() {
        // docs/FORMATS.md quotes these; a change here is a format break.
        let cases: [(usize, u64); 8] = [
            (0, 0xf0d4_8e39_392b_c3eb),
            (1, 0x7fa2_a7ed_2984_9cda),
            (7, 0x7786_7244_7d5c_1dab),
            (8, 0xbb7d_e05e_8118_2a7b),
            (31, 0x049b_9e39_32c8_527e),
            (32, 0xbe96_edf9_3df6_0821),
            (33, 0xd7ca_ef06_75f4_1254),
            (1 << 20, 0x40e4_8615_83de_df97),
        ];
        for (len, want) in cases {
            assert_eq!(
                wide64(&pattern(len)),
                want,
                "wide64 of the {len}-byte pattern"
            );
        }
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn update_is_split_invariant_at_every_cut() {
        let data = pattern(200);
        let (whole, whole_fnv) = (wide64(&data), fnv1a(&data));
        for a in 0..=data.len() {
            for b in [a, (a + 1).min(data.len()), (a + 37).min(data.len())] {
                let mut h = Wide64::new();
                let mut f = Fnv1a::new();
                for part in [&data[..a], &data[a..b], &data[b..]] {
                    h.update(part);
                    f.update(part);
                }
                assert_eq!(h.finish(), whole, "cuts {a}, {b}");
                assert_eq!(f.finish(), whole_fnv, "cuts {a}, {b}");
            }
        }
    }

    #[test]
    fn every_single_byte_change_and_every_length_differ() {
        let data = pattern(101);
        let whole = wide64(&data);
        for pos in 0..data.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = data.clone();
                bad[pos] ^= flip;
                assert_ne!(wide64(&bad), whole, "flip {flip:#x} at {pos}");
            }
        }
        // Zero bytes appended or dropped are seen (the length is folded).
        let zeros = [0u8; 80];
        let digests: std::collections::HashSet<u64> =
            (0..=zeros.len()).map(|n| wide64(&zeros[..n])).collect();
        assert_eq!(digests.len(), zeros.len() + 1);
    }
}
