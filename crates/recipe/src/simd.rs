//! Vectorized intra-node key search primitives shared by the trie crates.
//!
//! The paper's fast tries (ART, HOT) spend most of a lookup *inside* nodes, comparing
//! a search byte (or partial key) against a small key array. The original C++
//! implementations use SSE2 `_mm_cmpeq_epi8` + `movemask` for this; the DRAM→PM
//! conversion does not change it, so a faithful speed profile needs the same shape.
//!
//! This module provides branch-free equality masks over key material packed into
//! `u64` words. Callers load each word with **one** atomic load (the words live in
//! `AtomicU64` fields inside nodes), then hand the plain values here — so the
//! concurrency story stays entirely in the caller and everything below is pure
//! arithmetic on owned integers, with no aliasing or data-race concerns.
//!
//! Each primitive has one search path per target, chosen at compile time: SSE2
//! (`_mm_cmpeq_epi8`/`epi16` + movemask) on x86-64, NEON (`vceqq` + `shrn`) on
//! aarch64 (both part of their target's baseline, so no CPU feature detection is
//! needed), and the `*_scalar` per-lane loop on any other target. The scalar loops
//! are also the reference the differential tests here and in `art::search` hold the
//! vectorized paths to, bit for bit.

// ---------------------------------------------------------------------------
// Lane accessors: key material is packed little-endian into u64 words, byte
// lane `i` of a word pair = bits `8*(i%8) ..` of word `i/8` (same order SSE2's
// movemask reports), u16 lane `i` = bits `16*(i%4) ..` of word `i/4`.
// ---------------------------------------------------------------------------

/// Read byte lane `lane` (0..8) of `w`.
#[inline]
#[must_use]
pub fn get_lane8(w: u64, lane: usize) -> u8 {
    debug_assert!(lane < 8);
    (w >> (8 * lane)) as u8
}

/// Return `w` with byte lane `lane` (0..8) replaced by `v`.
#[inline]
#[must_use]
pub fn set_lane8(w: u64, lane: usize, v: u8) -> u64 {
    debug_assert!(lane < 8);
    let sh = 8 * lane;
    (w & !(0xFFu64 << sh)) | (u64::from(v) << sh)
}

/// Read 16-bit lane `lane` (0..4) of `w`.
#[inline]
#[must_use]
pub fn get_lane16(w: u64, lane: usize) -> u16 {
    debug_assert!(lane < 4);
    (w >> (16 * lane)) as u16
}

/// Return `w` with 16-bit lane `lane` (0..4) replaced by `v`.
#[inline]
#[must_use]
pub fn set_lane16(w: u64, lane: usize, v: u16) -> u64 {
    debug_assert!(lane < 4);
    let sh = 16 * lane;
    (w & !(0xFFFFu64 << sh)) | (u64::from(v) << sh)
}

/// Iterator over the indexes of the set bits of a mask, ascending.
///
/// This is how callers walk a match mask: `for slot in SetBits(mask) { ... }`.
#[derive(Debug, Clone)]
pub struct SetBits(pub u32);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

// ---------------------------------------------------------------------------
// 16-lane byte equality: which of the 16 byte lanes of (w0, w1) equal `needle`?
// ---------------------------------------------------------------------------

/// Bitmask (bit `i` = lane `i`) of the 16 byte lanes of `(w0, w1)` equal to `needle`.
#[inline]
#[must_use]
pub fn eq_mask16(w0: u64, w1: u64, needle: u8) -> u32 {
    #[cfg(target_arch = "x86_64")]
    return x86::eq_mask16(w0, w1, needle);
    #[cfg(target_arch = "aarch64")]
    return neon::eq_mask16(w0, w1, needle);
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    return eq_mask16_scalar(w0, w1, needle);
}

/// Scalar reference implementation of [`eq_mask16`] (per-lane loop).
#[must_use]
pub fn eq_mask16_scalar(w0: u64, w1: u64, needle: u8) -> u32 {
    let mut m = 0u32;
    for i in 0..16 {
        let b = if i < 8 { get_lane8(w0, i) } else { get_lane8(w1, i - 8) };
        if b == needle {
            m |= 1 << i;
        }
    }
    m
}

// ---------------------------------------------------------------------------
// 16-lane nonzero detect: which byte lanes of (w0, w1) hold a nonzero value?
// ART's Node48 packs its 256-entry byte index (key byte -> child slot + 1,
// 0 = empty) into u64 words; iterating the live entries is a nonzero-lane scan.
// ---------------------------------------------------------------------------

/// Bitmask (bit `i` = lane `i`) of the 16 byte lanes of `(w0, w1)` that are nonzero:
/// [`eq_mask16`] against zero, inverted.
#[inline]
#[must_use]
pub fn nonzero_mask16(w0: u64, w1: u64) -> u32 {
    !eq_mask16(w0, w1, 0) & 0xFFFF
}

/// Scalar reference implementation of [`nonzero_mask16`] (per-lane loop).
#[must_use]
pub fn nonzero_mask16_scalar(w0: u64, w1: u64) -> u32 {
    let mut m = 0u32;
    for i in 0..16 {
        let b = if i < 8 { get_lane8(w0, i) } else { get_lane8(w1, i - 8) };
        if b != 0 {
            m |= 1 << i;
        }
    }
    m
}

// ---------------------------------------------------------------------------
// 8-lane masked u16 equality: which lanes satisfy (ext & mask_i) == pkey_i?
// HOT's compound nodes store sparse partial keys (pkey) with per-entry prefix
// masks; a lookup extracts `ext` once and matches all entries at once.
// ---------------------------------------------------------------------------

/// Bitmask (bit `i` = lane `i`) of the 8 u16 lanes where `(ext & mask) == pkey`,
/// with lanes 0..4 from `(p0, m0)` and lanes 4..8 from `(p1, m1)`.
#[inline]
#[must_use]
pub fn masked_eq_mask8(p0: u64, p1: u64, m0: u64, m1: u64, ext: u16) -> u32 {
    #[cfg(target_arch = "x86_64")]
    return x86::masked_eq_mask8(p0, p1, m0, m1, ext);
    #[cfg(target_arch = "aarch64")]
    return neon::masked_eq_mask8(p0, p1, m0, m1, ext);
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    return masked_eq_mask8_scalar(p0, p1, m0, m1, ext);
}

/// Scalar reference implementation of [`masked_eq_mask8`] (per-lane loop).
#[must_use]
pub fn masked_eq_mask8_scalar(p0: u64, p1: u64, m0: u64, m1: u64, ext: u16) -> u32 {
    let mut out = 0u32;
    for i in 0..8 {
        let (p, m) = if i < 4 {
            (get_lane16(p0, i), get_lane16(m0, i))
        } else {
            (get_lane16(p1, i - 4), get_lane16(m1, i - 4))
        };
        if (ext & m) == p {
            out |= 1 << i;
        }
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_cmpeq_epi16, _mm_cmpeq_epi8, _mm_movemask_epi8, _mm_set1_epi16,
        _mm_set1_epi8, _mm_set_epi64x,
    };

    #[inline]
    pub(super) fn eq_mask16(w0: u64, w1: u64, needle: u8) -> u32 {
        // SAFETY: SSE2 is unconditionally available on x86_64 (part of the ABI
        // baseline); the intrinsics operate only on register values.
        unsafe {
            let v = _mm_set_epi64x(w1 as i64, w0 as i64);
            let n = _mm_set1_epi8(needle as i8);
            (_mm_movemask_epi8(_mm_cmpeq_epi8(v, n)) as u32) & 0xFFFF
        }
    }

    #[inline]
    pub(super) fn masked_eq_mask8(p0: u64, p1: u64, m0: u64, m1: u64, ext: u16) -> u32 {
        // SAFETY: SSE2 is unconditionally available on x86_64; register-only ops.
        unsafe {
            let p = _mm_set_epi64x(p1 as i64, p0 as i64);
            let m = _mm_set_epi64x(m1 as i64, m0 as i64);
            let e = _mm_set1_epi16(ext as i16);
            let eq = _mm_cmpeq_epi16(_mm_and_si128(e, m), p);
            // movemask yields 2 bits per u16 lane (both set on equality); keep the
            // even bit of each pair and compact to one bit per lane.
            let bm = _mm_movemask_epi8(eq) as u32;
            let pairs = bm & (bm >> 1) & 0x5555;
            compact_even8(pairs)
        }
    }

    /// Gather bits 0,2,4,...,14 of `pairs` into bits 0..8.
    #[inline]
    fn compact_even8(pairs: u32) -> u32 {
        let mut out = 0u32;
        for i in 0..8 {
            out |= ((pairs >> (2 * i)) & 1) << i;
        }
        out
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{
        uint8x16_t, vceqq_u16, vceqq_u8, vcombine_u16, vcombine_u8, vcreate_u16, vcreate_u8,
        vdupq_n_u16, vdupq_n_u8, vget_lane_u64, vreinterpret_u64_u8, vreinterpretq_u16_u8,
        vreinterpretq_u8_u16, vshrn_n_u16,
    };

    /// NEON "movemask": 4-bit nibble per byte lane (0x0 or 0xF), packed into a u64
    /// via the narrowing-shift trick, then compacted to one bit per lane.
    #[inline]
    fn bytemask16(eq: uint8x16_t) -> u32 {
        // SAFETY: NEON is unconditionally available on aarch64; register-only ops.
        let nib = unsafe {
            let n = vshrn_n_u16::<4>(vreinterpretq_u16_u8(eq));
            vget_lane_u64::<0>(vreinterpret_u64_u8(n))
        };
        let mut out = 0u32;
        for i in 0..16 {
            out |= (((nib >> (4 * i)) & 1) as u32) << i;
        }
        out
    }

    #[inline]
    pub(super) fn eq_mask16(w0: u64, w1: u64, needle: u8) -> u32 {
        // SAFETY: NEON is unconditionally available on aarch64; register-only ops.
        let eq = unsafe {
            let v = vcombine_u8(vreinterpret_u64_u8_inv(w0), vreinterpret_u64_u8_inv(w1));
            vceqq_u8(v, vdupq_n_u8(needle))
        };
        bytemask16(eq)
    }

    /// `vcreate_u8` spelled as a helper so both call sites read the same way.
    #[inline]
    fn vreinterpret_u64_u8_inv(w: u64) -> std::arch::aarch64::uint8x8_t {
        // SAFETY: register-only reinterpretation of a u64 as 8 byte lanes.
        unsafe { vcreate_u8(w) }
    }

    #[inline]
    pub(super) fn masked_eq_mask8(p0: u64, p1: u64, m0: u64, m1: u64, ext: u16) -> u32 {
        // SAFETY: NEON is unconditionally available on aarch64; register-only ops.
        let bm = unsafe {
            let p = vcombine_u16(vcreate_u16(p0), vcreate_u16(p1));
            let m = vcombine_u16(vcreate_u16(m0), vcreate_u16(m1));
            let e = vdupq_n_u16(ext);
            let masked = std::arch::aarch64::vandq_u16(e, m);
            let eq = vceqq_u16(masked, p);
            bytemask16(vreinterpretq_u8_u16(eq))
        };
        // Each u16 lane produced two identical byte-mask bits; keep one per lane.
        let pairs = bm & (bm >> 1) & 0x5555;
        let mut out = 0u32;
        for i in 0..8 {
            out |= ((pairs >> (2 * i)) & 1) << i;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 64-bit mixer (splitmix64) so tests need no RNG dependency.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn lane_accessors_roundtrip() {
        let mut w = 0u64;
        for i in 0..8 {
            w = set_lane8(w, i, (i as u8) * 17);
        }
        for i in 0..8 {
            assert_eq!(get_lane8(w, i), (i as u8) * 17);
        }
        let mut w = 0u64;
        for i in 0..4 {
            w = set_lane16(w, i, (i as u16) * 1000 + 7);
        }
        for i in 0..4 {
            assert_eq!(get_lane16(w, i), (i as u16) * 1000 + 7);
        }
    }

    #[test]
    fn set_bits_iterates_ascending() {
        assert_eq!(SetBits(0).collect::<Vec<_>>(), Vec::<usize>::new());
        assert_eq!(SetBits(0b1011_0001).collect::<Vec<_>>(), vec![0, 4, 5, 7]);
        assert_eq!(SetBits(1 << 31).collect::<Vec<_>>(), vec![31]);
    }

    #[test]
    fn eq_mask16_paths_agree() {
        let mut s = 42u64;
        for _ in 0..2000 {
            let w0 = mix(&mut s);
            let w1 = mix(&mut s);
            // Pick needles that sometimes hit: either random or a lane of w0/w1.
            let pick = mix(&mut s);
            let needle = match pick % 3 {
                0 => pick as u8,
                1 => get_lane8(w0, (pick >> 8) as usize % 8),
                _ => get_lane8(w1, (pick >> 8) as usize % 8),
            };
            let scalar = eq_mask16_scalar(w0, w1, needle);
            assert_eq!(eq_mask16(w0, w1, needle), scalar);
        }
    }

    #[test]
    fn eq_mask16_edge_values() {
        for needle in [0u8, 0xFF, 0x80, 1] {
            for (w0, w1) in
                [(0u64, 0u64), (u64::MAX, u64::MAX), (0x8080_8080_8080_8080, 0x0101_0101_0101_0101)]
            {
                assert_eq!(eq_mask16(w0, w1, needle), eq_mask16_scalar(w0, w1, needle));
            }
        }
    }

    #[test]
    fn nonzero_mask16_paths_agree() {
        let mut s = 99u64;
        for _ in 0..2000 {
            // Mix sparse words (mostly-zero lanes, the common Node48 shape) with
            // dense random ones.
            let pick = mix(&mut s);
            let (w0, w1) = if pick % 2 == 0 {
                (mix(&mut s) & 0x0000_FF00_0000_00FF, mix(&mut s) & 0xFF00_0000_0012_0000)
            } else {
                (mix(&mut s), mix(&mut s))
            };
            let scalar = nonzero_mask16_scalar(w0, w1);
            assert_eq!(nonzero_mask16(w0, w1), scalar);
        }
        assert_eq!(nonzero_mask16(0, 0), 0);
        assert_eq!(nonzero_mask16(u64::MAX, u64::MAX), 0xFFFF);
    }

    #[test]
    fn masked_eq_mask8_paths_agree() {
        let mut s = 7u64;
        for _ in 0..2000 {
            let p0 = mix(&mut s);
            let p1 = mix(&mut s);
            let m0 = mix(&mut s);
            let m1 = mix(&mut s);
            let ext = mix(&mut s) as u16;
            let scalar = masked_eq_mask8_scalar(p0, p1, m0, m1, ext);
            assert_eq!(masked_eq_mask8(p0, p1, m0, m1, ext), scalar);
        }
    }

    #[test]
    fn masked_eq_mask8_edge_values() {
        for ext in [0u16, 0xFFFF, 0x8000, 1] {
            for (p, m) in [(0u64, 0u64), (u64::MAX, u64::MAX), (0x8000_0001_8000_0001, u64::MAX)] {
                let scalar = masked_eq_mask8_scalar(p, !p, m, m, ext);
                assert_eq!(masked_eq_mask8(p, !p, m, m, ext), scalar);
            }
        }
    }

    #[test]
    fn masked_eq_matches_prefix_semantics() {
        // Entry 0: pkey 0b10100_00000000000 with a 5-bit prefix mask; entry 1: full
        // 15-bit key. ext sharing the 5-bit prefix matches entry 0 only.
        let mask5 = 0b1111_1000_0000_0000u16;
        let full = 0xFFFFu16;
        let p0 = u64::from(0b1010_1000_0000_0000u16) | (u64::from(0b1010_1010_1010_1010u16) << 16);
        let m0 = u64::from(mask5) | (u64::from(full) << 16);
        let ext = 0b1010_1111_0000_1111u16;
        let got = masked_eq_mask8_scalar(p0, 0, m0, u64::MAX, ext);
        assert_eq!(got & 0b11, 0b01);
        assert_eq!(masked_eq_mask8(p0, 0, m0, u64::MAX, ext) & 0b11, 0b01);
    }
}
