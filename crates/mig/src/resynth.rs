//! Cut-based majority resynthesis.
//!
//! The axiomatic rewriting of [`crate::rewrite`] is purely structural: it
//! never discovers that a multi-node cone *functionally* equals a single
//! majority gate. This pass does — it enumerates 3-leaf cuts, matches each
//! cone's truth table against the NPN class of the majority function, and
//! collapses matching fanout-free cones into one `⟨· · ·⟩` node.
//!
//! This is the step that turns the paper's Fig. 1 AOIG-transposed majority
//! (five AND/OR nodes, depth 3) into the single majority node of Fig. 1(b).
//! It generalizes the paper's "fully exploiting the majority functionality"
//! remark into an automatic procedure; `rewrite_extended` interleaves it
//! with Algorithm 1.

use crate::cut::{cone_function, enumerate_cuts};
use crate::graph::Mig;
use crate::node::MigNode;
use crate::rewrite::{self, RewriteStats};
use crate::signal::{NodeId, Signal};
use crate::simulate::TruthTable;

/// A discovered majority match: `root = ⟨l₀^c₀ l₁^c₁ l₂^c₂⟩ ^ out`.
#[derive(Debug, Clone, Copy)]
struct MajorityMatch {
    leaves: [NodeId; 3],
    complements: [bool; 3],
    output_complement: bool,
    /// Interior nodes that disappear if the cone is replaced.
    gain: usize,
}

/// Tests whether `function` (a 3-variable table in the low 8 bits) is a
/// majority up to input/output complementation, returning the complement
/// assignment.
fn match_majority(function: u64) -> Option<([bool; 3], bool)> {
    let f = function & 0xFF;
    let vars = [
        TruthTable::variable(3, 0).blocks()[0],
        TruthTable::variable(3, 1).blocks()[0],
        TruthTable::variable(3, 2).blocks()[0],
    ];
    for mask in 0..8u32 {
        let w = |i: usize| {
            if mask >> i & 1 == 1 {
                !vars[i]
            } else {
                vars[i]
            }
        };
        let (a, b, c) = (w(0), w(1), w(2));
        let maj = ((a & b) | (a & c) | (b & c)) & 0xFF;
        if f == maj {
            return Some((
                [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1],
                false,
            ));
        }
        if f == !maj & 0xFF {
            return Some((
                [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1],
                true,
            ));
        }
    }
    None
}

/// Counts the interior nodes of the cone (nodes strictly between the cut
/// leaves and the root, plus the root) and checks that all non-root
/// interior nodes are fanout-free (used only inside the cone).
fn cone_gain(mig: &Mig, root: NodeId, leaves: &[NodeId], fanout: &[u32]) -> Option<usize> {
    let mut interior = Vec::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if id.is_constant() || leaves.contains(&id) || interior.contains(&id) {
            continue;
        }
        let MigNode::Majority(children) = mig.node(id) else {
            return None;
        };
        interior.push(id);
        stack.extend(children.iter().map(|c| c.node()));
    }
    // A non-root interior node may be shared *within* the cone, but not
    // referenced from outside it — otherwise the replacement duplicates
    // logic instead of removing it.
    let mut internal_refs: Vec<u32> = vec![0; interior.len()];
    for &id in &interior {
        let MigNode::Majority(children) = mig.node(id) else {
            unreachable!("interior nodes are majorities");
        };
        for child in children {
            if let Some(pos) = interior.iter().position(|&n| n == child.node()) {
                internal_refs[pos] += 1;
            }
        }
    }
    for (pos, &id) in interior.iter().enumerate() {
        if id != root && fanout[id.index()] != internal_refs[pos] {
            return None;
        }
    }
    // Replacing `interior` nodes with one majority gains `len - 1`.
    (interior.len() > 1).then(|| interior.len() - 1)
}

/// One majority-resynthesis pass. Returns the new graph and the number of
/// collapsed cones.
pub fn pass_majority_resynthesis(mig: &Mig) -> (Mig, usize) {
    let cuts = enumerate_cuts(mig, 3, 12);
    let fanout = mig.fanout_counts();

    // Select the best match per node, bottom-up.
    let mut matches: Vec<Option<MajorityMatch>> = vec![None; mig.len()];
    for id in mig.majority_ids() {
        let mut best: Option<MajorityMatch> = None;
        for cut in cuts.of(id) {
            if cut.size() != 3 || cut.leaves() == [id] {
                continue;
            }
            let Some(function) = cone_function(mig, id, cut) else {
                continue;
            };
            let Some((complements, output_complement)) = match_majority(function) else {
                continue;
            };
            let Some(gain) = cone_gain(mig, id, cut.leaves(), &fanout) else {
                continue;
            };
            let leaves = [cut.leaves()[0], cut.leaves()[1], cut.leaves()[2]];
            let candidate = MajorityMatch {
                leaves,
                complements,
                output_complement,
                gain,
            };
            if best.is_none_or(|b| candidate.gain > b.gain) {
                best = Some(candidate);
            }
        }
        matches[id.index()] = best;
    }

    // Rebuild, applying matches at their roots.
    let mut new = Mig::with_capacity(mig.num_majority_nodes());
    let mut map: Vec<Option<Signal>> = vec![None; mig.len()];
    map[0] = Some(Signal::FALSE);
    for (k, &input) in mig.inputs().iter().enumerate() {
        map[input.index()] = Some(new.add_input(mig.input_name(k).to_string()));
    }
    let mut applied = 0;
    for id in mig.node_ids() {
        let MigNode::Majority(children) = mig.node(id) else {
            continue;
        };
        let mapped = if let Some(m) = matches[id.index()] {
            // Leaves are always mapped already: they precede the root.
            let leaf = |k: usize| {
                map[m.leaves[k].index()]
                    .expect("leaves precede the root")
                    .complement_if(m.complements[k])
            };
            applied += 1;
            new.maj(leaf(0), leaf(1), leaf(2))
                .complement_if(m.output_complement)
        } else {
            let c: Vec<Signal> = children
                .iter()
                .map(|s| {
                    map[s.node().index()]
                        .expect("children precede parents")
                        .complement_if(s.is_complemented())
                })
                .collect();
            new.maj(c[0], c[1], c[2])
        };
        map[id.index()] = Some(mapped);
    }
    for (name, signal) in mig.outputs() {
        let mapped = map[signal.node().index()]
            .expect("outputs reachable")
            .complement_if(signal.is_complemented());
        new.add_output(name.clone(), mapped);
    }
    (new.cleaned(), applied)
}

/// Extended rewriting: Algorithm 1 cycles interleaved with majority
/// resynthesis. Strictly more powerful than [`rewrite::rewrite`] on graphs
/// that contain AOIG-expanded majorities (adder carry chains, voters, …).
pub fn rewrite_extended(mig: &Mig, effort: usize) -> Mig {
    rewrite_extended_with_stats(mig, effort).0
}

/// Like [`rewrite_extended`], also returning the rewrite statistics and
/// the number of majority-resynthesis applications.
pub fn rewrite_extended_with_stats(mig: &Mig, effort: usize) -> (Mig, RewriteStats, usize) {
    let mut current = mig.cleaned();
    let mut total_stats = RewriteStats {
        nodes_before: mig.num_majority_nodes(),
        ..RewriteStats::default()
    };
    let mut resynthesized = 0;
    for _ in 0..effort.max(1) {
        let size_before = current.num_majority_nodes();
        let (next, stats) = rewrite::rewrite_with_stats(&current, 1);
        total_stats.cycles += stats.cycles;
        total_stats.distributivity_applied += stats.distributivity_applied;
        total_stats.associativity_applied += stats.associativity_applied;
        total_stats.inverter_flips += stats.inverter_flips;
        current = next;
        let (next, applied) = pass_majority_resynthesis(&current);
        resynthesized += applied;
        current = next;
        total_stats
            .size_per_cycle
            .push(current.num_majority_nodes());
        if applied == 0 && current.num_majority_nodes() == size_before {
            break;
        }
    }
    total_stats.nodes_after = current.num_majority_nodes();
    (current, total_stats, resynthesized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equivalence;

    fn aoig_majority() -> Mig {
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        let xy = mig.and(x, y);
        let xz = mig.and(x, z);
        let yz = mig.and(y, z);
        let or1 = mig.or(xy, xz);
        let top = mig.or(or1, yz);
        mig.add_output("f", top);
        mig
    }

    #[test]
    fn match_majority_recognizes_all_polarities() {
        let vars = [
            TruthTable::variable(3, 0).blocks()[0],
            TruthTable::variable(3, 1).blocks()[0],
            TruthTable::variable(3, 2).blocks()[0],
        ];
        let maj = (vars[0] & vars[1]) | (vars[0] & vars[2]) | (vars[1] & vars[2]);
        assert_eq!(match_majority(maj), Some(([false; 3], false)));
        assert_eq!(match_majority(!maj & 0xFF), Some(([false; 3], true)));
        let flipped = (!vars[0] & vars[1]) | (!vars[0] & vars[2]) | (vars[1] & vars[2]);
        let m = match_majority(flipped & 0xFF).expect("majority with x̄");
        assert!(m.0[0]);
        // AND is not a majority of three variables.
        assert_eq!(match_majority(vars[0] & vars[1] & vars[2]), None);
    }

    #[test]
    fn fig1_aoig_collapses_to_single_node() {
        let mig = aoig_majority();
        assert_eq!(mig.num_majority_nodes(), 5);
        let (collapsed, applied) = pass_majority_resynthesis(&mig);
        assert!(applied >= 1);
        assert_eq!(collapsed.num_majority_nodes(), 1);
        assert_eq!(collapsed.depth(), 1);
        assert!(check_equivalence(&mig, &collapsed, 8, 1).unwrap().holds());
    }

    #[test]
    fn full_adder_carry_collapses_inside_extended_rewrite() {
        // carry = (a ∧ b) ∨ (c ∧ (a ⊕ b)) — functionally ⟨a b c⟩.
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let ab = mig.and(a, b);
        let axb = {
            let or = mig.or(a, b);
            mig.and(or, !ab)
        };
        let cx = mig.and(c, axb);
        let carry = mig.or(ab, cx);
        mig.add_output("cout", carry);
        let optimized = rewrite_extended(&mig, 4);
        assert!(check_equivalence(&mig, &optimized, 8, 2).unwrap().holds());
        assert_eq!(
            optimized.num_majority_nodes(),
            1,
            "carry must collapse to ⟨a b c⟩"
        );
    }

    #[test]
    fn shared_interior_nodes_are_not_duplicated() {
        let mut mig = aoig_majority();
        // Expose an interior node as an extra output: the cone is no longer
        // fanout-free, so the collapse must keep the graph consistent.
        let interior = mig.majority_ids().next().expect("has majority nodes");
        mig.add_output("tap", Signal::new(interior, false));
        let (collapsed, _) = pass_majority_resynthesis(&mig);
        assert!(check_equivalence(&mig, &collapsed, 8, 3).unwrap().holds());
        assert!(collapsed.num_majority_nodes() <= mig.num_majority_nodes());
    }

    #[test]
    fn carry_chain_collapses_to_majority_chain() {
        // A pure AOIG carry chain (no sum outputs): every per-bit cone is
        // fanout-free and must collapse to one majority per bit.
        let bits = 4;
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", bits);
        let ys = mig.add_inputs("y", bits);
        let cin = mig.add_input("cin");
        let mut carry = cin;
        for i in 0..bits {
            let ab = mig.and(xs[i], ys[i]);
            let axb = {
                let or = mig.or(xs[i], ys[i]);
                mig.and(or, !ab)
            };
            let cx = mig.and(carry, axb);
            carry = mig.or(ab, cx);
        }
        mig.add_output("cout", carry);
        let (optimized, stats, resynth) = rewrite_extended_with_stats(&mig, 4);
        assert!(check_equivalence(&mig, &optimized, 16, 4).unwrap().holds());
        assert_eq!(
            optimized.num_majority_nodes(),
            bits,
            "one majority per carry stage"
        );
        assert!(resynth >= bits, "every stage must be resynthesized");
        assert!(stats.nodes_after <= stats.nodes_before);
    }

    #[test]
    fn extended_rewrite_never_grows_shared_structures() {
        // A full AOIG ripple adder: the xor tower is shared between sum and
        // carry, so the carry cones are *not* fanout-free. Resynthesis must
        // leave the sharing intact (no duplication, no growth).
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 4);
        let ys = mig.add_inputs("y", 4);
        let mut carry = Signal::FALSE;
        for i in 0..4 {
            let axb = {
                let or = mig.or(xs[i], ys[i]);
                let and = mig.and(xs[i], ys[i]);
                mig.and(or, !and)
            };
            let sum = {
                let or = mig.or(axb, carry);
                let and = mig.and(axb, carry);
                mig.and(or, !and)
            };
            let ab = mig.and(xs[i], ys[i]);
            let cx = mig.and(carry, axb);
            carry = mig.or(ab, cx);
            mig.add_output(format!("s{i}"), sum);
        }
        mig.add_output("cout", carry);
        let (optimized, stats, _) = rewrite_extended_with_stats(&mig, 4);
        assert!(check_equivalence(&mig, &optimized, 16, 4).unwrap().holds());
        assert!(optimized.num_majority_nodes() <= mig.num_majority_nodes());
        assert!(stats.nodes_after <= stats.nodes_before);
    }

    #[test]
    fn resynthesis_is_idempotent_at_fixpoint() {
        let mig = aoig_majority();
        let (once, first) = pass_majority_resynthesis(&mig);
        assert!(first > 0);
        let (twice, second) = pass_majority_resynthesis(&once);
        assert_eq!(second, 0);
        assert_eq!(twice.num_majority_nodes(), once.num_majority_nodes());
    }
}
