//! The cheap integer hashing behind the manager's tables and node-keyed
//! memos.
//!
//! Keys here are node indices, packed edges and small signal ids, never
//! attacker-chosen strings, so SipHash's flooding resistance buys nothing
//! and its per-probe cost dominates a BDD apply step. One multiply-rotate
//! round per word is enough to spread sequential indices over a table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply-rotate [`Hasher`] for integer keys (FxHash's round, with a
/// final rotate so the low bits `HashMap` indexes by see the high product
/// bits).
#[derive(Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// The multiply-mix of a three-word table key. Callers take the **high**
/// bits (`>> (64 - log2(capacity))`), which every key word reaches.
#[inline]
pub(crate) fn mix3(a: u32, b: u32, c: u32) -> u64 {
    let x = (u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (x.rotate_left(29) ^ u64::from(c)).wrapping_mul(MUL)
}
