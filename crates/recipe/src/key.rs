//! Key encodings and hashing shared across the indexes and the YCSB driver.
//!
//! The paper evaluates two key types (§7): `randint` — 8-byte random integers — and
//! `string` — 24-byte YCSB string keys; both uniformly distributed. Ordered indexes in
//! this workspace compare keys as byte strings, so integer keys are encoded big-endian
//! to preserve numeric order. Unordered indexes hash the raw bytes with a 64-bit
//! FNV-1a variant.
//!
//! It also holds the key as a persistent record stores it — [`LeafKey`], inline up to
//! [`INLINE_KEY`] bytes — and the one-line trie [`Leaf`] built on it.

use crate::persist::{span, PersistMode, Span};
use std::sync::atomic::AtomicU64;

/// Encode a `u64` as an order-preserving 8-byte big-endian key.
#[inline]
#[must_use]
pub fn u64_key(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

/// Decode a key produced by [`u64_key`]. Shorter keys are zero-padded on the right;
/// longer keys use only their first 8 bytes.
#[inline]
#[must_use]
pub fn key_to_u64(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// 64-bit FNV-1a hash of a byte string, with an additional avalanche step (fmix64 from
/// MurmurHash3) so that sequential integer keys spread across buckets.
#[inline]
#[must_use]
pub fn hash64(key: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    fmix64(h)
}

/// Hash a `u64` key directly (equivalent to `hash64(&u64_key(k))` but cheaper).
#[inline]
#[must_use]
pub fn hash_u64(k: u64) -> u64 {
    fmix64(k.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xcbf29ce484222325)
}

#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^= h >> 33;
    h
}

/// Length, in bytes, of the common prefix of `a` and `b`.
#[inline]
#[must_use]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Extract the 8-byte slice of `key` starting at byte offset `off`, zero-padded, as a
/// big-endian integer. Used by Masstree-style layered indexes.
#[inline]
#[must_use]
pub fn keyslice(key: &[u8], off: usize) -> u64 {
    if off >= key.len() {
        return 0;
    }
    let rest = &key[off..];
    let mut buf = [0u8; 8];
    let n = rest.len().min(8);
    buf[..n].copy_from_slice(&rest[..n]);
    u64::from_be_bytes(buf)
}

/// Number of key bytes covered by the slice at `off` (0..=8).
#[inline]
#[must_use]
pub fn keyslice_len(key: &[u8], off: usize) -> usize {
    key.len().saturating_sub(off).min(8)
}

/// Bytes of a key a [`LeafKey`] holds inline; a longer key spills to a box.
pub const INLINE_KEY: usize = 22;

/// A key inside a persistent record (a trie [`Leaf`], a Bw-tree delta): inline up to
/// [`INLINE_KEY`] bytes, so an 8-byte integer key or a short string costs no
/// allocation and no line of its own, else a spilled copy on the PM pool
/// (`pm::alloc::pm_slice`) that the record flushes with itself.
pub enum LeafKey {
    /// The key's bytes, in the record.
    Inline {
        /// Key length.
        len: u8,
        /// Key bytes; those past `len` are zero.
        bytes: [u8; INLINE_KEY],
    },
    /// A key longer than [`INLINE_KEY`] bytes.
    Spilled(Box<[u8]>),
}

impl LeafKey {
    /// The record form of `key`.
    #[must_use]
    pub fn new(key: &[u8]) -> LeafKey {
        if key.len() <= INLINE_KEY {
            let mut bytes = [0u8; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key);
            LeafKey::Inline { len: key.len() as u8, bytes }
        } else {
            LeafKey::Spilled(pm::alloc::pm_slice(key))
        }
    }

    /// The spilled copy's bytes, if the key did not fit inline.
    #[must_use]
    pub fn spill(&self) -> Option<&[u8]> {
        match self {
            LeafKey::Inline { .. } => None,
            LeafKey::Spilled(b) => Some(b),
        }
    }
}

impl std::ops::Deref for LeafKey {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            LeafKey::Inline { len, bytes } => &bytes[..*len as usize],
            LeafKey::Spilled(b) => b,
        }
    }
}

/// A single-value leaf of the PM tries (P-ART, P-HOT): the value and the full key,
/// which non-blocking readers verify on every hit. One cache line from the slab
/// (`pm::alloc::pm_line_box`), so staging a leaf whose key sits inline flushes one
/// line; a spilled key adds its own lines.
#[repr(align(64))]
pub struct Leaf {
    /// Current value; updates are single atomic stores.
    pub value: AtomicU64,
    /// Full key bytes.
    pub key: LeafKey,
}

const _: () = {
    assert!(std::mem::size_of::<Leaf>() == pm::CACHE_LINE, "a leaf is one line");
    assert!(std::mem::align_of::<Leaf>() == pm::CACHE_LINE, "a leaf starts on a line");
};

impl Leaf {
    /// Allocate a leaf in a one-line slab block of the PM pool. It is never freed:
    /// the tries leak what they unlink, the simplest sound realisation of RECIPE's
    /// garbage-collecting allocator (`pm::alloc`). The caller must [`Leaf::stage`] it
    /// before the fence that precedes the store publishing it.
    #[must_use]
    pub fn alloc(key: &[u8], value: u64) -> &'static Leaf {
        let leaf = Leaf { value: AtomicU64::new(value), key: LeafKey::new(key) };
        // SAFETY: a fresh slab block that nothing ever frees.
        unsafe { &*pm::alloc::pm_line_box(leaf) }
    }

    /// Stage the leaf: flush its spilled key, if any, and its line, without a fence.
    /// It becomes durable under the next fence, which must precede the store that
    /// makes it reachable.
    pub fn stage<P: PersistMode>(&self) {
        for (ptr, len) in self.covers() {
            P::stage(ptr, len);
        }
    }

    /// What publishing the leaf makes reachable — its spilled key, if any, then its
    /// line: the `covers` of the [`PersistMode::publish`] that links it.
    #[must_use]
    pub fn covers(&self) -> [Span; 2] {
        let spill = self.key.spill().map_or((std::ptr::null(), 0), |s| (s.as_ptr(), s.len()));
        [spill, span(self)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_key_is_order_preserving() {
        let mut prev = u64_key(0);
        for k in [1u64, 2, 255, 256, 1 << 20, u64::MAX / 2, u64::MAX] {
            let enc = u64_key(k);
            assert!(enc > prev, "encoding must preserve order at {k}");
            prev = enc;
        }
    }

    #[test]
    fn key_roundtrip() {
        for k in [0u64, 1, 42, u64::MAX, 0xdead_beef_cafe_babe] {
            assert_eq!(key_to_u64(&u64_key(k)), k);
        }
    }

    #[test]
    fn key_to_u64_pads_short_keys() {
        assert_eq!(key_to_u64(&[0x01]), 0x0100_0000_0000_0000);
        assert_eq!(key_to_u64(&[]), 0);
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        let h: Vec<u64> = (0..64u64).map(|k| hash64(&u64_key(k)) % 64).collect();
        let distinct: std::collections::HashSet<_> = h.iter().collect();
        assert!(distinct.len() > 32, "sequential keys should spread over buckets");
    }

    #[test]
    fn hash_u64_matches_quality_of_hash64() {
        let a = hash_u64(12345);
        let b = hash_u64(12346);
        assert_ne!(a, b);
        assert_ne!(a >> 32, 0, "high bits should be populated");
    }

    #[test]
    fn common_prefix() {
        assert_eq!(common_prefix_len(b"abcd", b"abxy"), 2);
        assert_eq!(common_prefix_len(b"", b"abc"), 0);
        assert_eq!(common_prefix_len(b"same", b"same"), 4);
    }

    #[test]
    fn keyslice_extraction() {
        let key = b"abcdefghijk"; // 11 bytes
        assert_eq!(keyslice(key, 0), u64::from_be_bytes(*b"abcdefgh"));
        assert_eq!(keyslice_len(key, 0), 8);
        assert_eq!(keyslice_len(key, 8), 3);
        let tail = keyslice(key, 8);
        assert_eq!(&tail.to_be_bytes()[..3], b"ijk");
        assert_eq!(keyslice(key, 11), 0);
        assert_eq!(keyslice_len(key, 11), 0);
        assert_eq!(keyslice_len(key, 100), 0);
    }

    #[test]
    fn leaf_keys_sit_inline_up_to_22_bytes_and_spill_beyond() {
        let short = LeafKey::new(&[7u8; INLINE_KEY]);
        assert!(short.spill().is_none());
        assert_eq!(&*short, &[7u8; INLINE_KEY][..]);
        assert_eq!(&*LeafKey::new(b""), b"");
        let long = LeafKey::new(&[9u8; INLINE_KEY + 1]);
        assert_eq!(long.spill().map(<[u8]>::len), Some(INLINE_KEY + 1));
        assert_eq!(&*long, &[9u8; INLINE_KEY + 1][..]);
    }

    #[test]
    fn staging_a_leaf_flushes_its_line_and_only_a_spill_beyond() {
        use crate::persist::Pmem;
        let clwbs = |l: &Leaf| {
            let before = pm::stats::snapshot_local();
            l.stage::<Pmem>();
            let d = pm::stats::snapshot_local().since(&before);
            assert_eq!(d.fence, 0, "staging never fences");
            d.clwb
        };
        let short = Leaf::alloc(&[3u8; 8], 1);
        assert_eq!(short as *const Leaf as usize % pm::CACHE_LINE, 0);
        assert_eq!(clwbs(short), 1, "an inline key is on the leaf's line");
        let long = Leaf::alloc(&[4u8; 24], 2);
        let spill = long.key.spill().expect("24 bytes spill");
        let spill_lines = pm::flush::lines_spanned(spill.as_ptr() as usize, spill.len()) as u64;
        assert_eq!(clwbs(long), 1 + spill_lines, "a spilled key is flushed with its leaf");
        let value = long.value.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!((&*long.key, value), (&[4u8; 24][..], 2));
    }
}
