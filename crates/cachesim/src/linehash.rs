//! Runtime-selectable hashing for line- and page-index keys.
//!
//! Hashes the keys of the simulator's remaining hash structures: the
//! TLB's [`LruSet`](crate::lru::LruSet) index, the page map of the
//! classifier's [`LineTable`](crate::linetable::LineTable), and the
//! classifier's slow-path seen-set and `LruSet`. The fast path hashes
//! the 64-bit key with one multiply and a shift-xor; the slow path
//! keeps the standard library's SipHash so it remains byte-for-byte the
//! exhaustive reference implementation. The hash function never affects
//! *what* a map or set contains, only where it stores it, so statistics
//! are bit-identical across modes.

use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, Hasher};

/// Which hash function a [`LineHashState`] builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HashMode {
    /// The standard library's SipHash (the exhaustive reference path).
    Sip,
    /// One-multiply mixing of the 64-bit key (the fast path).
    Mult,
}

/// A `BuildHasher` whose mode is chosen at construction time, so a map
/// can switch algorithms when the fast path is toggled (rebuilding the
/// map, since bucket positions change).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LineHashState(pub(crate) HashMode);

impl LineHashState {
    pub(crate) fn for_fast(fast: bool) -> Self {
        LineHashState(if fast { HashMode::Mult } else { HashMode::Sip })
    }
}

impl BuildHasher for LineHashState {
    type Hasher = LineHasher;

    #[inline]
    fn build_hasher(&self) -> LineHasher {
        match self.0 {
            HashMode::Sip => LineHasher::Sip(DefaultHasher::new()),
            HashMode::Mult => LineHasher::Mult(0),
        }
    }
}

/// See [`LineHashState`].
pub(crate) enum LineHasher {
    Sip(DefaultHasher),
    Mult(u64),
}

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        match self {
            LineHasher::Sip(h) => h.finish(),
            LineHasher::Mult(x) => *x,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        match self {
            LineHasher::Sip(h) => h.write(bytes),
            // FNV-style fallback for non-u64 keys (unused by the line
            // maps, but required for a complete Hasher).
            LineHasher::Mult(x) => {
                for &b in bytes {
                    *x = (*x ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        match self {
            LineHasher::Sip(h) => h.write_u64(n),
            LineHasher::Mult(x) => {
                // Fibonacci multiply then fold the high bits down so the
                // low bits (hashbrown's bucket index) see the whole key.
                let v = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                *x = v ^ (v >> 32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn both_modes_agree_on_set_contents() {
        let mut sip: HashSet<u64, LineHashState> =
            HashSet::with_hasher(LineHashState::for_fast(false));
        let mut mult: HashSet<u64, LineHashState> =
            HashSet::with_hasher(LineHashState::for_fast(true));
        let mut state = 0xDEAD_BEEFu64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 512;
            assert_eq!(sip.insert(key), mult.insert(key));
        }
        assert_eq!(sip.len(), mult.len());
    }

    #[test]
    fn mult_mode_spreads_sequential_keys() {
        // Sequential line indexes are the common case; the low bits of
        // their hashes (the bucket index) must not collide en masse.
        let build = LineHashState::for_fast(true);
        let mut low_bits = HashSet::new();
        for key in 0..256u64 {
            low_bits.insert(build.hash_one(key) & 0xFF);
        }
        assert!(
            low_bits.len() > 128,
            "got {} distinct buckets",
            low_bits.len()
        );
    }
}
