//! Keyed one-multiply hashing for the fixed-width hash-consing tables.
//!
//! The structural-hash tables of [`Mig`](crate::Mig) and
//! [`RewriteArena`](crate::arena::RewriteArena), and the e-graph memo in
//! `plim-egraph`, are probed on every node creation and every repair, with
//! keys that pack into one 128-bit word. SipHash spends a dozen rounds on
//! each such probe. [`KeyedState`] spends one folded 64×64→128 multiply per
//! word instead, under a random 64-bit key drawn per table from the
//! standard library's [`RandomState`], so an input cannot be crafted to
//! collide without knowing the key.
//!
//! Only fixed-width keys use it, each hashed as one packed word. Tables
//! keyed by strings keep SipHash, which is built for variable-length
//! input: [`parse_mig`](crate::io::parse_mig) keeps input names, and every
//! name but the canonical node names `n<k>` it looks up by number, in a
//! SipHash map, since its text may come from a client. Every
//! table here was randomly keyed before, too, so no output can depend on
//! iteration order.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::node::MigNode;
use crate::signal::{NodeId, Signal};

/// Odd constant (the fractional bits of π) that keeps the high-word
/// multiplier away from zero and apart from the key itself.
const PI: u64 = 0x243f_6a88_85a3_08d3;

/// The 128-bit product of `x` and `y` with its halves XOR-folded: every
/// output bit depends on every input bit.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A [`BuildHasher`] with one random 64-bit key per table.
///
/// Each `write_u128` costs one folded multiply; keys should hash as a
/// single packed word, as the strash's child triples and
/// `plim_egraph::ENode` do.
#[derive(Clone, Copy)]
pub struct KeyedState {
    key: u64,
}

impl KeyedState {
    /// A state with a fresh random key, taken from a new [`RandomState`]
    /// (whose keys differ per instance).
    pub fn new() -> KeyedState {
        KeyedState {
            key: RandomState::new().hash_one(PI),
        }
    }
}

impl Default for KeyedState {
    fn default() -> Self {
        KeyedState::new()
    }
}

/// The key stays out of debug output.
impl fmt::Debug for KeyedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedState").finish_non_exhaustive()
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            acc: self.key,
            key: self.key.rotate_left(32) ^ PI,
        }
    }
}

/// The hasher built by [`KeyedState`].
#[derive(Clone, Copy, Debug)]
pub struct KeyedHasher {
    acc: u64,
    key: u64,
}

impl Hasher for KeyedHasher {
    #[inline]
    fn write_u128(&mut self, word: u128) {
        self.acc = folded_multiply(self.acc ^ word as u64, self.key ^ (word >> 64) as u64);
    }

    /// Byte strings are folded in 16-byte words; fixed-width keys never
    /// come through here.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(16) {
            let mut word = [0u8; 16];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u128(u128::from_le_bytes(word));
        }
        self.write_u128(bytes.len() as u128);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

/// A sorted child triple, the structural-hash key. It hashes as one packed
/// word but is stored as the three signals: a `u128` key would be 16-byte
/// aligned and double the table's entry size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Triple([Signal; 3]);

impl Hash for Triple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c] = self.0;
        state.write_u128(
            u128::from(c.raw()) << 64 | u128::from(b.raw()) << 32 | u128::from(a.raw()),
        );
    }
}

/// A structural-hash table from sorted majority child triples to nodes,
/// shared by [`Mig`](crate::Mig) and
/// [`RewriteArena`](crate::arena::RewriteArena).
#[derive(Clone, Debug, Default)]
pub(crate) struct Strash(HashMap<Triple, NodeId, KeyedState>);

#[cfg(test)]
thread_local! {
    /// Strash inserts made on this thread, so a test can count the hashing
    /// of the code it calls.
    static INSERTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Strash {
    pub(crate) fn with_capacity(capacity: usize) -> Strash {
        Strash(HashMap::with_capacity_and_hasher(
            capacity,
            KeyedState::new(),
        ))
    }

    /// The table of every majority node of a canonical node table.
    pub(crate) fn index(nodes: &[MigNode]) -> Strash {
        let mut strash = Strash::with_capacity(nodes.len());
        for (index, node) in nodes.iter().enumerate() {
            if let MigNode::Majority(children) = node {
                strash.insert(*children, NodeId::from_index(index));
            }
        }
        strash
    }

    /// Inserts made on the calling thread so far.
    #[cfg(test)]
    pub(crate) fn inserts() -> usize {
        INSERTS.with(|count| count.get())
    }

    #[inline]
    pub(crate) fn get(&self, children: [Signal; 3]) -> Option<NodeId> {
        self.0.get(&Triple(children)).copied()
    }

    #[inline]
    pub(crate) fn insert(&mut self, children: [Signal; 3], node: NodeId) {
        #[cfg(test)]
        INSERTS.with(|count| count.set(count.get() + 1));
        self.0.insert(Triple(children), node);
    }

    #[inline]
    pub(crate) fn remove(&mut self, children: [Signal; 3]) {
        self.0.remove(&Triple(children));
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn two_tables_get_different_keys() {
        let (one, two) = (KeyedState::new(), KeyedState::new());
        assert_ne!(one.key, two.key);
        assert_ne!(one.hash_one(12345u128), two.hash_one(12345u128));
    }

    #[test]
    fn consecutive_strash_triples_spread_over_the_low_bits() {
        // The triples a levelized graph builds back to back: children a
        // few nodes apart, node ids counting up. A table of 4096 buckets
        // indexes by the low 12 bits, where a fair hash fills about
        // 1 - 1/e ≈ 63 % of the buckets with 4096 keys.
        const BUCKETS: u64 = 4096;
        for _ in 0..4 {
            let state = KeyedState::new();
            let mut used = HashSet::new();
            for i in 0..BUCKETS as u32 {
                let triple = [
                    Signal::from_raw(2 * i),
                    Signal::from_raw(2 * i + 3),
                    Signal::from_raw(2 * i + 8),
                ];
                used.insert(state.hash_one(Triple(triple)) % BUCKETS);
            }
            let share = used.len() as f64 / BUCKETS as f64;
            assert!(
                share > 0.55,
                "low 12 bits fill only {share:.3} of the buckets"
            );
        }
    }

    #[test]
    fn the_strash_table_round_trips_triples() {
        let mut strash = Strash::default();
        let triple = [
            Signal::from_raw(2),
            Signal::from_raw(5),
            Signal::from_raw(u32::MAX),
        ];
        assert_eq!(strash.get(triple), None);
        strash.insert(triple, NodeId::from_index(7));
        assert_eq!(strash.get(triple), Some(NodeId::from_index(7)));
        assert_eq!(strash.get([triple[1], triple[0], triple[2]]), None);
        strash.remove(triple);
        assert_eq!(strash.get(triple), None);
    }
}
