//! Intra-node key search for the linear-keyed mappings (Node4/Node16).
//!
//! This is the single entry point the node code (`find_child`, `collect`,
//! `replace_child`, `remove_child`) uses to match a search byte against a node's
//! packed key words. A node's key bytes live in `AtomicU64` words (slot `i` = byte
//! lane `i % 8` of word `i / 8`); callers load each word **once** with `Acquire`
//! and pass the plain values here — the old code issued one `Acquire` load per key
//! byte. The compare itself is [`recipe::simd::eq_mask16`] (SSE2 or NEON, chosen
//! at compile time), masked down to the node's occupied slots.

use recipe::simd::{self, SetBits};

/// Bitmask of slots in `0..count` whose key byte equals `b`.
///
/// `count` is the node's occupancy (≤16); lanes at and above it are ignored, so
/// stale key bytes in unused or not-yet-committed slots can never match.
#[inline]
#[must_use]
pub fn match_mask(w0: u64, w1: u64, count: usize, b: u8) -> u32 {
    debug_assert!(count <= 16);
    simd::eq_mask16(w0, w1, b) & occupancy_mask(count)
}

/// Iterator over the slots of [`match_mask`], ascending.
#[inline]
#[must_use]
pub fn match_slots(w0: u64, w1: u64, count: usize, b: u8) -> SetBits {
    SetBits(match_mask(w0, w1, count, b))
}

/// Mask with the low `count` bits set (`count` ≤ 16).
#[inline]
#[must_use]
pub fn occupancy_mask(count: usize) -> u32 {
    debug_assert!(count <= 16);
    if count >= 16 {
        0xFFFF
    } else {
        (1u32 << count) - 1
    }
}

/// The key byte stored at slot `i` of the packed words.
#[inline]
#[must_use]
pub fn key_at(w0: u64, w1: u64, i: usize) -> u8 {
    debug_assert!(i < 16);
    if i < 8 {
        simd::get_lane8(w0, i)
    } else {
        simd::get_lane8(w1, i - 8)
    }
}

/// Scalar reference: the per-slot byte loop the vectorized paths must agree with.
#[must_use]
pub fn match_mask_scalar(w0: u64, w1: u64, count: usize, b: u8) -> u32 {
    let mut m = 0u32;
    for i in 0..count.min(16) {
        if key_at(w0, w1, i) == b {
            m |= 1 << i;
        }
    }
    m
}

/// Bitmask of the 16 byte lanes of `(w0, w1)` holding a live slot reference.
///
/// Node48 packs its 256-entry byte index (key byte → child slot + 1, 0 = empty)
/// into `AtomicU64` words; iterating the node's children is a nonzero-lane scan
/// over those words, vectorized through [`recipe::simd::nonzero_mask16`].
#[inline]
#[must_use]
pub fn occupied_mask(w0: u64, w1: u64) -> u32 {
    simd::nonzero_mask16(w0, w1)
}

/// Iterator over the lanes of [`occupied_mask`], ascending.
#[inline]
#[must_use]
pub fn occupied_slots(w0: u64, w1: u64) -> SetBits {
    SetBits(occupied_mask(w0, w1))
}

/// Scalar reference for [`occupied_mask`]: the per-lane nonzero loop.
#[must_use]
pub fn occupied_mask_scalar(w0: u64, w1: u64) -> u32 {
    let mut m = 0u32;
    for i in 0..16 {
        if key_at(w0, w1, i) != 0 {
            m |= 1 << i;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recipe::simd::set_lane8;

    fn pack(keys: &[u8]) -> (u64, u64) {
        let (mut w0, mut w1) = (0u64, 0u64);
        for (i, &k) in keys.iter().enumerate() {
            if i < 8 {
                w0 = set_lane8(w0, i, k);
            } else {
                w1 = set_lane8(w1, i - 8, k);
            }
        }
        (w0, w1)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The differential property: the vectorized entry point agrees with the
        /// scalar byte loop, across **all** occupancies 0..=16, duplicate key bytes
        /// included.
        #[test]
        fn vectorized_matches_scalar_reference(
            keys in proptest::collection::vec(any::<u8>(), 0..=16),
            needle in any::<u8>(),
            pick_existing in any::<bool>(),
        ) {
            let (w0, w1) = pack(&keys);
            let count = keys.len();
            // Half the time aim the needle at a stored byte so hits are common.
            let b = if pick_existing && count > 0 { keys[usize::from(needle) % count] } else { needle };
            let reference = match_mask_scalar(w0, w1, count, b);
            prop_assert_eq!(match_mask(w0, w1, count, b), reference);
            // And the slot iterator visits exactly the reference's set bits.
            let slots: Vec<usize> = match_slots(w0, w1, count, b).collect();
            let expect: Vec<usize> = (0..16).filter(|i| reference & (1 << i) != 0).collect();
            prop_assert_eq!(slots, expect);
        }

        /// The Node48 occupancy scan gets the same differential treatment: the
        /// vectorized entry point agrees with the scalar nonzero loop, for sparse
        /// (Node48-shaped) and dense index words alike.
        #[test]
        fn occupied_matches_scalar_reference(
            slots in proptest::collection::vec(0u8..=48, 0..=16),
        ) {
            let (w0, w1) = pack(&slots);
            let reference = occupied_mask_scalar(w0, w1);
            prop_assert_eq!(occupied_mask(w0, w1), reference);
            let lanes: Vec<usize> = occupied_slots(w0, w1).collect();
            let expect: Vec<usize> = (0..16).filter(|i| reference & (1 << i) != 0).collect();
            prop_assert_eq!(lanes, expect);
        }
    }

    #[test]
    fn occupancy_masks_out_stale_lanes() {
        // Slots ≥ count hold a matching byte but must not be reported.
        let keys = [7u8; 16];
        let (w0, w1) = pack(&keys);
        for count in 0..=16 {
            assert_eq!(match_mask(w0, w1, count, 7), occupancy_mask(count));
            assert_eq!(match_mask(w0, w1, count, 8), 0);
        }
    }

    #[test]
    fn key_at_reads_back_packed_bytes() {
        let keys: Vec<u8> = (0..16).map(|i| 200 - i).collect();
        let (w0, w1) = pack(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(key_at(w0, w1, i), k);
        }
    }
}
