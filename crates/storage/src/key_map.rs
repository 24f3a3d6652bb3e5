//! A map from multi-column keys to `u32` ids, stored flat.
//!
//! [`KeyMap`] keeps its keys in one vector, `arity` values each, and finds
//! them through a power-of-two open-addressing table of entry ids, hashed
//! like [`crate::HashIndex`]. Inserting or looking up a key borrows a slice:
//! nothing is allocated per key, and a clone is three vector copies.

use crate::index::hash_key;
use crate::tuple::Value;

/// Marker for an empty bucket.
const EMPTY: u32 = u32::MAX;

/// A map from keys of a fixed arity to `u32` ids; see the module docs.
#[derive(Debug, Clone)]
pub struct KeyMap {
    arity: usize,
    /// Entry `e`'s key is `keys[e·arity .. (e+1)·arity]`.
    keys: Vec<Value>,
    /// Entry `e`'s id.
    ids: Vec<u32>,
    /// Entry per bucket (`EMPTY` = free); at most half full.
    buckets: Vec<u32>,
}

impl KeyMap {
    /// An empty map for keys of `arity` values, with room for `capacity`
    /// keys before it grows.
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        KeyMap {
            arity,
            keys: Vec::with_capacity(arity * capacity),
            ids: Vec::with_capacity(capacity),
            buckets: vec![EMPTY; (2 * capacity).next_power_of_two().max(4)],
        }
    }

    /// The id of `key`, if the map holds it.
    pub fn get(&self, key: &[Value]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.arity);
        let mask = self.buckets.len() - 1;
        let mut b = hash_key(key.iter().copied()) as usize & mask;
        loop {
            match self.buckets[b] {
                EMPTY => return None,
                e if self.key(e) == key => return Some(self.ids[e as usize]),
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// Map `key`, which the map must not hold yet, to `id`.
    pub fn insert(&mut self, key: &[Value], id: u32) {
        debug_assert_eq!(key.len(), self.arity);
        debug_assert!(self.get(key).is_none(), "key inserted twice");
        if 2 * (self.ids.len() + 1) > self.buckets.len() {
            self.buckets = vec![EMPTY; 2 * self.buckets.len()];
            for e in 0..self.ids.len() as u32 {
                self.place(e);
            }
        }
        let e = self.ids.len() as u32;
        self.keys.extend_from_slice(key);
        self.ids.push(id);
        self.place(e);
    }

    fn key(&self, e: u32) -> &[Value] {
        let start = e as usize * self.arity;
        &self.keys[start..start + self.arity]
    }

    /// Put entry `e` in the first free bucket of its probe sequence.
    fn place(&mut self, e: u32) {
        let mask = self.buckets.len() - 1;
        let mut b = hash_key(self.key(e).iter().copied()) as usize & mask;
        while self.buckets[b] != EMPTY {
            b = (b + 1) & mask;
        }
        self.buckets[b] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_of_every_arity_map_to_their_ids() {
        for arity in 0..3 {
            let mut map = KeyMap::with_capacity(arity, 1);
            // The one empty key, or 200 distinct keys whose later columns
            // repeat.
            let count = if arity == 0 { 1 } else { 200 };
            let keys: Vec<Vec<Value>> = (0..count)
                .map(|i| {
                    (0..arity as u64)
                        .map(|c| if c == 0 { i } else { i % 7 })
                        .collect()
                })
                .collect();
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(map.get(key), None);
                map.insert(key, i as u32 * 3);
            }
            let copy = map.clone();
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(
                    copy.get(key),
                    Some(i as u32 * 3),
                    "arity {arity} key {key:?}"
                );
            }
            if arity > 0 {
                assert_eq!(copy.get(&vec![u64::MAX; arity]), None);
            }
        }
    }
}
