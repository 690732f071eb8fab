//! A fast, fixed-key hasher for the dictionary maps and the triple set.
//!
//! It is the multiply-rotate scheme of Firefox's and rustc's `FxHasher`:
//! one multiply per word, against std's SipHash-1-3, which costs several
//! rounds per word. A fixed key means a crafted document could pick terms
//! that collide and make interning quadratic. That is safe here because only
//! documents a local caller chooses to load reach a [`crate::graph::Graph`]:
//! the refinement server receives signature views, never triples, and
//! `strudel-server` builds no graph.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A [`HashSet`] keyed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one word, folded with each input word.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward, so the high bits are the well-mixed
        // ones; std's table picks buckets from the low bits.
        self.hash.rotate_left(26)
    }
}
