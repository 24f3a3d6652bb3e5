//! The per-enumerator index from a choice set's key (a [slot
//! id](crate::tdp::TdpInstance::slot_id) or a node index) to the position of
//! its structure in the enumerator's pool.
//!
//! An enumerator touches a few thousand of an instance's hundreds of
//! thousands of choice sets, and the touched keys are scattered across the
//! key space, so the index is a hash map, not a table over the key space:
//! std's `HashMap` keyed by the `u32` key, with a one-multiply hasher. Its
//! size follows the structures built, and a lookup allocates nothing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map from `u32` keys to `u32` pool positions; enumerators only insert.
pub(crate) type SlotMap = HashMap<u32, u32, BuildHasherDefault<SlotHasher>>;

/// An empty map with room for the first few structures: an enumerator
/// builds one per level of the instance on its first answer, and these need
/// no rehash.
pub(crate) fn new() -> SlotMap {
    SlotMap::with_capacity_and_hasher(8, BuildHasherDefault::default())
}

/// Fibonacci hashing of one `u32` key: a multiply by 2⁶⁴/φ, with the
/// product's high half folded into its low half, since the map picks a
/// bucket from the low bits and a tag from the top seven.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SlotHasher(u64);

impl Hasher for SlotHasher {
    #[inline]
    fn write_u32(&mut self, key: u32) {
        let h = (u64::from(key) ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
