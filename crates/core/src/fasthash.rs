//! A minimal multiplicative hasher for the DP memo tables.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~2× the whole probe
//! on the packed-`u64` keys the exact solvers use; the memo tables are
//! process-internal (keys are never attacker-controlled), so a single
//! round of splitmix64-style mixing is enough. Every key is one integer
//! word: the multi-exact memo keeps a table per slot so that its key is
//! just the 64-bit placed-job mask. The finisher keeps the high bits well
//! distributed, which is what `HashMap`'s power-of-two bucket masking
//! consumes.

use std::hash::{BuildHasherDefault, Hasher};

/// One-shot mixing hasher for integer keys (splitmix64 finalizer).
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        let mut z = self.state ^ v;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.state = z ^ (z >> 31);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback for non-integer keys: mix 8 bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` plugging [`FastHasher`] into `HashMap`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by small integers with the fast hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k.wrapping_mul(0x1234_5678_9abc_def1), k as u32);
        }
        for k in 0..1000u64 {
            assert_eq!(
                m.get(&k.wrapping_mul(0x1234_5678_9abc_def1)),
                Some(&(k as u32))
            );
        }
    }

    #[test]
    fn nearby_keys_spread() {
        // Packed DP states differ in low bits; the finisher must spread
        // them across high bits so bucket masking doesn't cluster.
        let hash = |v: u64| {
            let mut h = FastHasher::default();
            h.write_u64(v);
            h.finish()
        };
        let top: Vec<u64> = (0..64).map(|v| hash(v) >> 56).collect();
        let distinct = {
            let mut t = top.clone();
            t.sort_unstable();
            t.dedup();
            t.len()
        };
        assert!(distinct > 32, "top bytes too clustered: {distinct}");
    }
}
