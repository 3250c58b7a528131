//! Canonical structural hashing of MIGs.
//!
//! [`structural_digest`] computes a 128-bit digest that identifies a graph
//! by *structure*, not by how its dump happened to be written. Two parses
//! of the same circuit hash equal even when
//!
//! * majority-node definitions appear in a different order (arena indices
//!   and therefore node names like `n7` differ),
//! * internal node names differ (they never appear in compiled output),
//! * complement edges sit on the other side of an Ω.I inverter identity:
//!   `⟨x̄ ȳ z̄⟩` hashes like `!⟨x y z⟩`, so a dump that complements all
//!   three children of a node matches one that complements the node's
//!   fanout edges instead.
//!
//! Everything that *does* reach compiled output stays significant: the
//! primary-input order and count (programs address inputs by index), the
//! primary-output names and order (listings bind outputs by name), every
//! edge's polarity modulo Ω.I, and the shape of the live cone. Unreachable
//! majority nodes are ignored — every consumer cleans or rewrites the
//! graph before compiling, so dead logic cannot influence the result.
//!
//! The digest is the content-address of the compile-service cache
//! (`plimd`): requests whose graphs digest equally are served the same
//! cached artifact. Hash-equal graphs are logically equivalent by
//! construction, and structurally identical up to the Ω.I normalization
//! above; the service documents that a cache hit returns the artifact
//! compiled for the first-seen member of the equivalence class.
//!
//! The implementation is a deterministic bottom-up combine (FNV-1a over
//! 128 bits with an extra mixing step): children are folded as a *sorted
//! multiset* of `(child digest, polarity)` pairs, which removes the arena
//! order without weakening the distinction between different functions.
//! No `RandomState` is involved, so digests are stable across processes —
//! a requirement for any content-addressed store.
//!
//! # Examples
//!
//! ```
//! use mig::{Mig, canon::structural_digest};
//!
//! let build = |swap: bool| {
//!     let mut mig = Mig::new();
//!     let a = mig.add_input("a");
//!     let b = mig.add_input("b");
//!     let c = mig.add_input("c");
//!     // Same structure, different creation order for the two AND gates.
//!     let (x, y) = if swap {
//!         let y = mig.and(b, c);
//!         (mig.and(a, b), y)
//!     } else {
//!         let x = mig.and(a, b);
//!         (x, mig.and(b, c))
//!     };
//!     let f = mig.maj(x, y, c);
//!     mig.add_output("f", f);
//!     mig
//! };
//! assert_eq!(structural_digest(&build(false)), structural_digest(&build(true)));
//! ```

use crate::graph::Mig;
use crate::node::MigNode;
use crate::signal::Signal;

/// 128-bit FNV-1a with a final avalanche, specialized for digest folding.
#[derive(Debug, Clone, Copy)]
struct Mixer(u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Mixer {
    fn new(tag: u8) -> Self {
        let mut m = Mixer(FNV_OFFSET);
        m.byte(tag);
        m
    }

    fn byte(&mut self, byte: u8) {
        self.0 ^= byte as u128;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    fn word(&mut self, value: u128) {
        self.bytes(&value.to_le_bytes());
    }

    /// Finishes with an xor-shift avalanche so low-entropy inputs (small
    /// integers) still flip high digest bits.
    fn finish(mut self) -> u128 {
        self.0 ^= self.0 >> 67;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
        self.0 ^= self.0 >> 59;
        self.0
    }
}

/// Plain 128-bit FNV-1a over a byte string — the primitive the digest's
/// internal mixer builds on, exported for the values that must be the same
/// in every process: the artifact store's file checksums, the request
/// options fingerprint of the cache key, and `perfbench`'s input and output
/// digests. It is unkeyed, so text a client
/// chooses is indexed with the keyed [`TextHash`](crate::hash::TextHash)
/// instead.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= byte as u128;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

const TAG_CONSTANT: u8 = 0xC0;
const TAG_INPUT: u8 = 0x11;
const TAG_MAJORITY: u8 = 0x3A;
const TAG_OUTPUT: u8 = 0x0F;
const TAG_GRAPH: u8 = 0x66;

/// Computes the canonical structural digest of a graph.
///
/// See the [module docs](self) for what the digest is and is not sensitive
/// to. The cost is one linear pass over the arena.
pub fn structural_digest(mig: &Mig) -> u128 {
    // digest[i]: canonical digest of node i's structure.
    // flipped[i]: true when the node was Ω.I-normalized (all three child
    // edges complemented); every edge referencing it must toggle polarity.
    let mut digests = vec![0u128; mig.len()];
    let mut flipped = vec![false; mig.len()];
    let reachable = mig.reachable_mask();

    digests[0] = Mixer::new(TAG_CONSTANT).finish();

    // The full input interface is significant even for inputs the live cone
    // never reads: compiled programs carry the input count and address
    // inputs by declaration index.
    for (position, &id) in mig.inputs().iter().enumerate() {
        let mut m = Mixer::new(TAG_INPUT);
        m.word(position as u128);
        m.bytes(mig.input_name(position).as_bytes());
        digests[id.index()] = m.finish();
    }

    for id in mig.node_ids() {
        if !reachable[id.index()] {
            continue;
        }
        let MigNode::Majority(children) = mig.node(id) else {
            continue;
        };
        let mut edges: [(u128, bool); 3] = children.map(|c| edge_key(c, &digests, &flipped));
        // Ω.I: ⟨x̄ ȳ z̄⟩ = !⟨x y z⟩ — normalize the fully-complemented form
        // to the plain node and push the inversion onto the fanout.
        if edges.iter().all(|(_, complemented)| *complemented) {
            for edge in &mut edges {
                edge.1 = false;
            }
            flipped[id.index()] = true;
        }
        // The arena stores children sorted by raw signal value, which leaks
        // creation order; sorting by digest makes the fold order-free.
        edges.sort_unstable();
        let mut m = Mixer::new(TAG_MAJORITY);
        for (digest, complemented) in edges {
            m.word(digest);
            m.byte(complemented as u8);
        }
        digests[id.index()] = m.finish();
    }

    let mut graph = Mixer::new(TAG_GRAPH);
    // Fold every input digest, not just the count: an *unused* input's
    // name and position still appear in `mig`/`dot` emits and in the
    // program interface, so renaming one must change the digest.
    for id in mig.inputs() {
        graph.word(digests[id.index()]);
    }
    for (name, signal) in mig.outputs() {
        let (digest, complemented) = edge_key(*signal, &digests, &flipped);
        let mut m = Mixer::new(TAG_OUTPUT);
        m.bytes(name.as_bytes());
        m.byte(0);
        m.word(digest);
        m.byte(complemented as u8);
        graph.word(m.finish());
    }
    graph.finish()
}

/// The canonical `(digest, polarity)` of an edge, folding in the Ω.I flip
/// of the node it points to.
fn edge_key(signal: Signal, digests: &[u128], flipped: &[bool]) -> (u128, bool) {
    let index = signal.node().index();
    (digests[index], signal.is_complemented() ^ flipped[index])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::parse_mig;

    fn digest_of(text: &str) -> u128 {
        structural_digest(&parse_mig(text).unwrap())
    }

    #[test]
    fn permuted_node_order_hashes_equal() {
        let forward = "inputs a b c d\n\
                       n1 = maj(0, a, b)\n\
                       n2 = maj(1, c, d)\n\
                       n3 = maj(n1, n2, a)\n\
                       output f = n3\n";
        let backward = "inputs a b c d\n\
                        x = maj(1, c, d)\n\
                        y = maj(0, a, b)\n\
                        top = maj(y, x, a)\n\
                        output f = top\n";
        assert_eq!(digest_of(forward), digest_of(backward));
    }

    #[test]
    fn internal_names_do_not_matter() {
        let a = "inputs a b\nn1 = maj(0, a, b)\noutput f = n1\n";
        let b = "inputs a b\nweird_name = maj(0, a, b)\noutput f = weird_name\n";
        assert_eq!(digest_of(a), digest_of(b));
    }

    #[test]
    fn inverter_propagation_is_normalized() {
        // Ω.I: complementing all three children equals complementing the
        // node's fanout edge.
        let node_side = "inputs a b c\nn = maj(!a, !b, !c)\noutput f = n\n";
        let edge_side = "inputs a b c\nn = maj(a, b, c)\noutput f = !n\n";
        assert_eq!(digest_of(node_side), digest_of(edge_side));
        // ... including through an interior node.
        let deep_node = "inputs a b c d\n\
                         inner = maj(!a, !b, !c)\n\
                         top = maj(inner, c, d)\n\
                         output f = top\n";
        let deep_edge = "inputs a b c d\n\
                         inner = maj(a, b, c)\n\
                         top = maj(!inner, c, d)\n\
                         output f = top\n";
        assert_eq!(digest_of(deep_node), digest_of(deep_edge));
    }

    #[test]
    fn distinct_functions_hash_unequal() {
        let and = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";
        let or = "inputs a b\nn = maj(1, a, b)\noutput f = n\n";
        let nand = "inputs a b\nn = maj(0, a, b)\noutput f = !n\n";
        let one_complement = "inputs a b\nn = maj(0, !a, b)\noutput f = n\n";
        let digests = [
            digest_of(and),
            digest_of(or),
            digest_of(nand),
            digest_of(one_complement),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn two_complemented_children_are_not_normalized() {
        // Ω.I only applies to all-three complementation; partial complement
        // patterns are distinct structures with distinct RM3 costs.
        let two = "inputs a b c\nn = maj(!a, !b, c)\noutput f = n\n";
        let one = "inputs a b c\nn = maj(a, b, !c)\noutput f = !n\n";
        assert_ne!(digest_of(two), digest_of(one));
    }

    #[test]
    fn interface_is_significant() {
        let base = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";
        // Input order changes program input indices.
        let swapped_inputs = "inputs b a\nn = maj(0, a, b)\noutput f = n\n";
        // Output names appear in listings.
        let renamed_output = "inputs a b\nn = maj(0, a, b)\noutput g = n\n";
        // An extra (unused) input changes the program interface.
        let extra_input = "inputs a b c\nn = maj(0, a, b)\noutput f = n\n";
        // Even an unused input's NAME is significant: it appears in
        // `mig`/`dot` artifacts, so hash-equal inputs must agree on it.
        let renamed_unused = "inputs a b X\nn = maj(0, a, b)\noutput f = n\n";
        assert_ne!(digest_of(base), digest_of(swapped_inputs));
        assert_ne!(digest_of(base), digest_of(renamed_output));
        assert_ne!(digest_of(base), digest_of(extra_input));
        assert_ne!(digest_of(extra_input), digest_of(renamed_unused));
    }

    #[test]
    fn dead_logic_is_ignored() {
        let lean = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";
        let dangling = "inputs a b\nn = maj(0, a, b)\ndead = maj(1, a, b)\noutput f = n\n";
        assert_eq!(digest_of(lean), digest_of(dangling));
    }

    #[test]
    fn output_order_and_multiplicity_matter() {
        let fg = "inputs a b\nn = maj(0, a, b)\noutput f = n\noutput g = !n\n";
        let gf = "inputs a b\nn = maj(0, a, b)\noutput g = !n\noutput f = n\n";
        let f = "inputs a b\nn = maj(0, a, b)\noutput f = n\n";
        assert_ne!(digest_of(fg), digest_of(gf));
        assert_ne!(digest_of(fg), digest_of(f));
    }

    #[test]
    fn digest_is_stable_for_builder_and_text_forms() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, !b);
        mig.add_output("f", f);
        let text = crate::io::write_mig(&mig);
        assert_eq!(structural_digest(&mig), digest_of(&text));
    }

    #[test]
    fn suite_circuits_have_distinct_digests() {
        // A light collision sanity check over real structures.
        let mut mig1 = Mig::new();
        let xs = mig1.add_inputs("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig1.xor(acc, x);
        }
        mig1.add_output("parity", acc);

        let mut mig2 = Mig::new();
        let ys = mig2.add_inputs("x", 6);
        let mut acc2 = ys[0];
        for &y in &ys[1..] {
            acc2 = mig2.and(acc2, y);
        }
        mig2.add_output("parity", acc2);
        assert_ne!(structural_digest(&mig1), structural_digest(&mig2));
    }
}
