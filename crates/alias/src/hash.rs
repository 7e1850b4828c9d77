//! A deterministic multiply-fold hasher for the optimizer's and the
//! audit's membership indexes. Their keys are node ids and memory
//! references the compiler built, never outside input, so the
//! collision resistance of the default SipHash buys nothing and costs
//! a slower hash on every probe.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Folds each word in with a Fibonacci multiply, so the low bits (the
/// bucket index) depend on every bit of the key.
#[derive(Default)]
pub(crate) struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }
}

/// A `HashMap` hashed with [`FoldHasher`].
pub(crate) type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;
/// A `HashSet` hashed with [`FoldHasher`].
pub(crate) type FoldSet<K> = HashSet<K, BuildHasherDefault<FoldHasher>>;
