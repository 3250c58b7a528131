//! MIG rewriting for the PLiM architecture (Algorithm 1 of the paper).
//!
//! The rewriting flow interleaves two goals:
//!
//! 1. **Size reduction** — the majority axiom Ω.M (applied at node-creation
//!    time) and right-to-left distributivity Ω.D eliminate nodes; the
//!    associativity axiom Ω.A (with commutativity Ω.C) reshapes the graph to
//!    expose further elimination opportunities.
//! 2. **Complement-edge redistribution** — the extended inverter-propagation
//!    rules Ω.I R→L(1–3) rewrite nodes with two or three complemented child
//!    edges into nodes with at most one, the shape the RM3 instruction
//!    computes natively (`Z ← ⟨A B̄ Z⟩`).
//!
//! One rewriting *cycle* is the paper's Algorithm 1 body:
//!
//! ```text
//! Ω.M ; Ω.D(R→L) ; Ω.A ; Ω.C ; Ω.M ; Ω.D(R→L) ; Ω.I(R→L)(1–3) ; Ω.I(R→L)
//! ```
//!
//! and [`rewrite`] runs `effort` cycles (the paper uses 4).
//!
//! # Two engines, one schedule
//!
//! The module ships two implementations of the same pass schedule:
//!
//! * the **in-place engine** ([`rewrite`], [`rewrite_with_stats`],
//!   [`crate::arena::RewriteArena`]) mutates one arena across all passes
//!   and cycles, re-strashing only the nodes a rewrite touches, and
//!   compacts the graph exactly once at the end of the run. This is the
//!   default: it performs no per-pass graph reconstruction and its working
//!   set is a single node table plus one hash map.
//! * the **rebuild engine** ([`rewrite_rebuild`], [`pass_distributivity_rl`],
//!   [`pass_associativity`], [`pass_inverter_reduce`]) reconstructs the
//!   graph on every pass. It is retained as the simple reference
//!   implementation the in-place engine is differential-tested against
//!   (`tests/rewrite_differential.rs`).
//!
//! Both engines apply only Ω-axiom instances, so their results are
//! functionally equivalent to the input; the in-place engine additionally
//! never produces more nodes than the rebuild engine on the benchmark
//! suite (asserted in the differential tests).

use crate::algebra::{find_shared_pair, invert_triple, trivial_triple};
use crate::arena::RewriteArena;
use crate::graph::Mig;
use crate::node::MigNode;
use crate::signal::{NodeId, Signal};

/// Statistics collected by [`rewrite_with_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Majority-node count before rewriting.
    pub nodes_before: usize,
    /// Majority-node count after rewriting.
    pub nodes_after: usize,
    /// Number of cycles actually executed (may stop early at a fixpoint).
    pub cycles: usize,
    /// Distributivity R→L applications across all cycles.
    pub distributivity_applied: usize,
    /// Associativity reshapes across all cycles.
    pub associativity_applied: usize,
    /// Inverter flips (nodes whose complement edges were redistributed).
    pub inverter_flips: usize,
    /// Node count at the end of each cycle.
    pub size_per_cycle: Vec<usize>,
}

/// Rewrites the graph for PLiM compilation, running `effort` cycles of
/// Algorithm 1 on the in-place arena engine. Returns the rewritten graph.
///
/// The result is functionally equivalent to the input (every pass applies
/// only Ω-axiom instances); [`crate::equiv::check_equivalence`] can be used
/// to validate this.
///
/// # Examples
///
/// ```
/// use mig::{Mig, rewrite::rewrite};
///
/// let mut mig = Mig::new();
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let f = mig.maj(!a, !b, mig.constant(true));
/// mig.add_output("f", f);
/// let rewritten = rewrite(&mig, 4);
/// // The double complement was redistributed: at most one complemented
/// // non-constant child per node remains.
/// assert!(rewritten.num_majority_nodes() <= mig.num_majority_nodes());
/// ```
pub fn rewrite(mig: &Mig, effort: usize) -> Mig {
    rewrite_with_stats(mig, effort).0
}

/// Like [`rewrite`], also returning pass statistics.
///
/// Allocates a fresh [`RewriteArena`] per call; callers that rewrite many
/// circuits should keep one arena and call [`RewriteArena::rewrite`] to
/// reuse its buffers.
pub fn rewrite_with_stats(mig: &Mig, effort: usize) -> (Mig, RewriteStats) {
    RewriteArena::new().rewrite_with_stats(mig, effort)
}

/// The rebuild-based reference engine: every pass reconstructs the graph.
/// Kept for differential testing and benchmarking against the in-place
/// engine; prefer [`rewrite`] everywhere else.
pub fn rewrite_rebuild(mig: &Mig, effort: usize) -> Mig {
    rewrite_rebuild_with_stats(mig, effort).0
}

/// Like [`rewrite_rebuild`], also returning pass statistics.
pub fn rewrite_rebuild_with_stats(mig: &Mig, effort: usize) -> (Mig, RewriteStats) {
    let mut stats = RewriteStats {
        nodes_before: mig.num_majority_nodes(),
        ..RewriteStats::default()
    };
    let mut current = mig.cleaned();
    for _ in 0..effort {
        let size_at_cycle_start = current.num_majority_nodes();
        let flips_at_cycle_start = stats.inverter_flips;

        // Ω.M ; Ω.D(R→L)
        let (next, dist) = pass_distributivity_rl(&current);
        stats.distributivity_applied += dist;
        current = next;

        // Ω.A ; Ω.C  (commutativity is implicit in canonical child sorting)
        let (next, assoc) = pass_associativity(&current);
        stats.associativity_applied += assoc;
        current = next;

        // Ω.M ; Ω.D(R→L)
        let (next, dist) = pass_distributivity_rl(&current);
        stats.distributivity_applied += dist;
        current = next;

        // Ω.I(R→L)(1–3) followed by a final Ω.I(R→L) sweep.
        let (next, flips) = pass_inverter_reduce(&current);
        stats.inverter_flips += flips;
        current = next;
        let (next, flips) = pass_inverter_reduce(&current);
        stats.inverter_flips += flips;
        current = next;

        stats.cycles += 1;
        stats.size_per_cycle.push(current.num_majority_nodes());
        let unchanged = current.num_majority_nodes() == size_at_cycle_start
            && stats.inverter_flips == flips_at_cycle_start
            && dist == 0
            && assoc == 0;
        if unchanged {
            break;
        }
    }
    stats.nodes_after = current.num_majority_nodes();
    (current, stats)
}

/// Maps old-graph signals to new-graph signals during a rebuild pass.
struct Remap {
    map: Vec<Signal>,
}

impl Remap {
    fn with_inputs(old: &Mig, new: &mut Mig) -> Self {
        let mut map = vec![Signal::FALSE; old.len()];
        for (index, &id) in old.inputs().iter().enumerate() {
            map[id.index()] = new.add_input(old.input_name(index).to_string());
        }
        Remap { map }
    }

    #[inline]
    fn get(&self, s: Signal) -> Signal {
        self.map[s.node().index()].complement_if(s.is_complemented())
    }

    #[inline]
    fn set(&mut self, id: NodeId, s: Signal) {
        self.map[id.index()] = s;
    }
}

fn copy_outputs(old: &Mig, new: &mut Mig, remap: &Remap) {
    for (name, signal) in old.outputs() {
        let mapped = remap.get(*signal);
        new.add_output(name.clone(), mapped);
    }
}

/// Plain rebuild pass: applies Ω.M (node-creation simplification), structural
/// hashing, and dead-node elimination. Equivalent to [`Mig::cleaned`].
pub fn pass_majority(mig: &Mig) -> Mig {
    mig.cleaned()
}

/// Right-to-left distributivity pass:
/// `⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩`.
///
/// The rewrite is applied when two majority children of a node share two
/// child signals and neither has other fanout (so the rewrite cannot
/// duplicate logic). Complemented edges to the majority children are handled
/// by pushing the inverter into the child triple via Ω.I. Returns the new
/// graph and the number of applications.
pub fn pass_distributivity_rl(mig: &Mig) -> (Mig, usize) {
    let reachable = mig.reachable_mask();
    let fanout = mig.fanout_counts();
    let mut new = Mig::with_capacity(mig.num_majority_nodes());
    let mut remap = Remap::with_inputs(mig, &mut new);
    let mut applied = 0;

    for id in mig.node_ids() {
        if !reachable[id.index()] {
            continue;
        }
        let MigNode::Majority(children) = mig.node(id) else {
            continue;
        };

        let mut replaced = None;
        'outer: for i in 0..3 {
            for j in (i + 1)..3 {
                let (ci, cj) = (children[i], children[j]);
                if let Some(result) = try_distributivity(mig, &fanout, ci, cj, children[3 - i - j])
                {
                    replaced = Some(result);
                    break 'outer;
                }
            }
        }

        let mapped = match replaced {
            Some((common, rest_a, rest_b, z)) => {
                applied += 1;
                let inner = new.maj(remap.get(rest_a), remap.get(rest_b), remap.get(z));
                new.maj(remap.get(common[0]), remap.get(common[1]), inner)
            }
            None => new.maj(
                remap.get(children[0]),
                remap.get(children[1]),
                remap.get(children[2]),
            ),
        };
        remap.set(id, mapped);
    }

    copy_outputs(mig, &mut new, &remap);
    // Children bypassed by a rewrite were already rebuilt (they precede their
    // parents in topological order); a final cleanup drops them if dead.
    (new.cleaned(), applied)
}

/// Checks whether children `ci` and `cj` of a node (with third child `z`)
/// match the distributivity R→L pattern. Returns the rewrite ingredients in
/// old-graph signal space: shared pair, the two rest signals, and `z`.
fn try_distributivity(
    mig: &Mig,
    fanout: &[u32],
    ci: Signal,
    cj: Signal,
    z: Signal,
) -> Option<([Signal; 2], Signal, Signal, Signal)> {
    let ti = effective_triple(mig, ci)?;
    let tj = effective_triple(mig, cj)?;
    if fanout[ci.node().index()] != 1 || fanout[cj.node().index()] != 1 {
        return None;
    }
    let shared = find_shared_pair(&ti, &tj)?;
    Some((shared.common, shared.rest_a, shared.rest_b, z))
}

/// The child triple a signal stands for, pushing a complemented edge into the
/// children via Ω.I: `!⟨a b c⟩ = ⟨ā b̄ c̄⟩`.
fn effective_triple(mig: &Mig, s: Signal) -> Option<[Signal; 3]> {
    let children = mig.node(s.node()).children()?;
    Some(if s.is_complemented() {
        invert_triple(children)
    } else {
        *children
    })
}

/// Associativity reshaping pass: `⟨x u ⟨y u z⟩⟩ → ⟨z u ⟨y u x⟩⟩`.
///
/// A swap is performed only when it is guaranteed not to increase size:
/// either the new inner triple already exists in the graph (sharing gain) or
/// it simplifies trivially under Ω.M. Returns the new graph and the number of
/// applications.
pub fn pass_associativity(mig: &Mig) -> (Mig, usize) {
    let reachable = mig.reachable_mask();
    let fanout = mig.fanout_counts();
    let mut new = Mig::with_capacity(mig.num_majority_nodes());
    let mut remap = Remap::with_inputs(mig, &mut new);
    let mut applied = 0;

    for id in mig.node_ids() {
        if !reachable[id.index()] {
            continue;
        }
        let MigNode::Majority(children) = mig.node(id) else {
            continue;
        };

        let mapped = match try_associativity(mig, &fanout, &mut new, &remap, children) {
            Some((outer_a, outer_b, inner)) => {
                applied += 1;
                new.maj(outer_a, outer_b, inner)
            }
            None => new.maj(
                remap.get(children[0]),
                remap.get(children[1]),
                remap.get(children[2]),
            ),
        };
        remap.set(id, mapped);
    }

    copy_outputs(mig, &mut new, &remap);
    (new.cleaned(), applied)
}

/// Attempts an associativity swap on the given node children. Returns the
/// new-graph signals `(outer_a, outer_b, inner)` such that the node becomes
/// `⟨outer_a outer_b inner⟩`.
fn try_associativity(
    mig: &Mig,
    fanout: &[u32],
    new: &mut Mig,
    remap: &Remap,
    children: &[Signal; 3],
) -> Option<(Signal, Signal, Signal)> {
    for g_pos in 0..3 {
        let g = children[g_pos];
        // Only restructure through a plain edge to a single-fanout child, so
        // the old inner node disappears and size cannot grow.
        if g.is_complemented() || fanout[g.node().index()] != 1 {
            continue;
        }
        let Some(inner_children) = mig.node(g.node()).children() else {
            continue;
        };
        let outer_rest: [Signal; 2] = {
            let rest: Vec<Signal> = (0..3)
                .filter(|&k| k != g_pos)
                .map(|k| children[k])
                .collect();
            [rest[0], rest[1]]
        };
        // The axiom requires a signal `u` shared (exactly, with polarity)
        // between the outer children and the inner triple.
        for u_pos in 0..2 {
            let u = outer_rest[u_pos];
            let Some(u_inner) = inner_children.iter().position(|&s| s == u) else {
                continue;
            };
            let x = outer_rest[1 - u_pos];
            let inner_rest: Vec<Signal> = (0..3)
                .filter(|&k| k != u_inner)
                .map(|k| inner_children[k])
                .collect();
            for r in 0..2 {
                let swap = inner_rest[r]; // moves to the outer node
                let other = inner_rest[1 - r]; // stays inner
                                               // New inner ⟨other u x⟩, new node ⟨swap u inner'⟩.
                let (mo, mu, mx) = (remap.get(other), remap.get(u), remap.get(x));
                if trivial_triple(mo, mu, mx) || new.find_maj(mo, mu, mx).is_some() {
                    let inner_sig = new.maj(mo, mu, mx);
                    return Some((remap.get(swap), mu, inner_sig));
                }
            }
        }
    }
    None
}

/// Inverter-propagation pass Ω.I R→L(1–3): rewrites every node with two or
/// three complemented non-constant children into a node with at most one,
/// complementing the output edge:
///
/// * `⟨x̄ ȳ z̄⟩ → ¬⟨x y z⟩`
/// * `⟨x̄ ȳ z⟩ → ¬⟨x y z̄⟩`
///
/// Complemented constant children (the signal `1`) do not count: constants
/// are free operands in the RM3 translation. Returns the new graph and the
/// number of flipped nodes.
pub fn pass_inverter_reduce(mig: &Mig) -> (Mig, usize) {
    let reachable = mig.reachable_mask();
    let mut new = Mig::with_capacity(mig.num_majority_nodes());
    let mut remap = Remap::with_inputs(mig, &mut new);
    let mut flips = 0;

    for id in mig.node_ids() {
        if !reachable[id.index()] {
            continue;
        }
        let MigNode::Majority(children) = mig.node(id) else {
            continue;
        };
        let mapped: Vec<Signal> = children.iter().map(|c| remap.get(*c)).collect();
        let real_complemented = mapped
            .iter()
            .filter(|c| c.is_complemented() && !c.is_constant())
            .count();
        let result = if real_complemented >= 2 {
            flips += 1;
            !new.maj(!mapped[0], !mapped[1], !mapped[2])
        } else {
            new.maj(mapped[0], mapped[1], mapped[2])
        };
        remap.set(id, result);
    }

    copy_outputs(mig, &mut new, &remap);
    (new, flips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equivalence;

    fn assert_equivalent(a: &Mig, b: &Mig) {
        assert!(
            check_equivalence(a, b, 32, 0xBEEF).unwrap().holds(),
            "rewrite changed the function"
        );
    }

    #[test]
    fn inverter_pass_redistributes_complements() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let n = mig.maj(!a, !b, c);
        mig.add_output("f", n);
        let (new, flips) = pass_inverter_reduce(&mig);
        assert_eq!(flips, 1);
        assert_equivalent(&mig, &new);
        // The rewritten node has one complemented child; output is inverted.
        let (_, out) = &new.outputs()[0];
        assert!(out.is_complemented());
        let children = new.node(out.node()).children().unwrap();
        let compl = children.iter().filter(|s| s.is_complemented()).count();
        assert_eq!(compl, 1);
    }

    #[test]
    fn inverter_pass_handles_triple_complement() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let n = mig.maj(!a, !b, !c);
        mig.add_output("f", n);
        let (new, flips) = pass_inverter_reduce(&mig);
        assert_eq!(flips, 1);
        assert_equivalent(&mig, &new);
        let (_, out) = &new.outputs()[0];
        let children = new.node(out.node()).children().unwrap();
        assert_eq!(children.iter().filter(|s| s.is_complemented()).count(), 0);
    }

    #[test]
    fn inverter_pass_ignores_constant_complements() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        // OR(a, !b) = ⟨1 a b̄⟩ has one real complement; must not flip.
        let n = mig.maj(Signal::TRUE, a, !b);
        mig.add_output("f", n);
        let (new, flips) = pass_inverter_reduce(&mig);
        assert_eq!(flips, 0);
        assert_equivalent(&mig, &new);
    }

    #[test]
    fn inverter_pass_cascades_through_levels() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let d = mig.add_input("d");
        let lower = mig.maj(!a, !b, c); // will flip; parents see !lower'
        let upper = mig.maj(lower, !d, c); // had one complement; gains another
        mig.add_output("f", upper);
        let (new, flips) = pass_inverter_reduce(&mig);
        assert!(flips >= 1);
        assert_equivalent(&mig, &new);
        // After a second sweep every node is in the ≤1 complement form.
        let (second, _) = pass_inverter_reduce(&new);
        assert_equivalent(&mig, &second);
        for id in second.majority_ids() {
            let children = second.node(id).children().unwrap();
            let real = children
                .iter()
                .filter(|s| s.is_complemented() && !s.is_constant())
                .count();
            assert!(real <= 1, "node {id} still has {real} complements");
        }
    }

    #[test]
    fn distributivity_merges_shared_pairs() {
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let u = mig.add_input("u");
        let v = mig.add_input("v");
        let z = mig.add_input("z");
        let left = mig.maj(x, y, u);
        let right = mig.maj(x, y, v);
        let top = mig.maj(left, right, z);
        mig.add_output("f", top);
        assert_eq!(mig.num_majority_nodes(), 3);
        let (new, applied) = pass_distributivity_rl(&mig);
        assert_eq!(applied, 1);
        assert_eq!(new.num_majority_nodes(), 2);
        assert_equivalent(&mig, &new);
    }

    #[test]
    fn distributivity_skips_shared_fanout() {
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let u = mig.add_input("u");
        let v = mig.add_input("v");
        let z = mig.add_input("z");
        let left = mig.maj(x, y, u);
        let right = mig.maj(x, y, v);
        let top = mig.maj(left, right, z);
        mig.add_output("f", top);
        mig.add_output("g", left); // left now has fanout 2
        let (new, applied) = pass_distributivity_rl(&mig);
        assert_eq!(applied, 0);
        assert_equivalent(&mig, &new);
    }

    #[test]
    fn distributivity_handles_complemented_pair() {
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let y = mig.add_input("y");
        let u = mig.add_input("u");
        let v = mig.add_input("v");
        let z = mig.add_input("z");
        // ⟨!⟨x y u⟩ !⟨x y v⟩ z⟩ = ⟨⟨x̄ ȳ ū⟩ ⟨x̄ ȳ v̄⟩ z⟩ → ⟨x̄ ȳ ⟨ū v̄ z⟩⟩
        let left = mig.maj(x, y, u);
        let right = mig.maj(x, y, v);
        let top = mig.maj(!left, !right, z);
        mig.add_output("f", top);
        let (new, applied) = pass_distributivity_rl(&mig);
        assert_eq!(applied, 1);
        assert_eq!(new.num_majority_nodes(), 2);
        assert_equivalent(&mig, &new);
    }

    #[test]
    fn rewrite_is_equivalence_preserving_on_adders() {
        // A small ripple-carry adder built AOIG-style exercises every pass.
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 4);
        let ys = mig.add_inputs("y", 4);
        let mut carry = Signal::FALSE;
        for i in 0..4 {
            let sum = mig.xor3(xs[i], ys[i], carry);
            carry = mig.maj(xs[i], ys[i], carry);
            mig.add_output(format!("s{i}"), sum);
        }
        mig.add_output("cout", carry);
        let (rewritten, stats) = rewrite_with_stats(&mig, 4);
        assert_equivalent(&mig, &rewritten);
        assert!(stats.nodes_after <= stats.nodes_before);
        assert!(stats.cycles >= 1);
    }

    #[test]
    fn rewrite_reaches_fixpoint_early() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let (_, stats) = rewrite_with_stats(&mig, 100);
        assert!(stats.cycles < 100, "tiny graph must reach fixpoint quickly");
    }

    #[test]
    fn rewrite_removes_multi_complement_nodes() {
        use crate::analysis::MigStats;
        let mut mig = Mig::new();
        let sigs = mig.add_inputs("x", 6);
        let n1 = mig.maj(!sigs[0], !sigs[1], sigs[2]);
        let n2 = mig.maj(!sigs[3], !sigs[4], !sigs[5]);
        let n3 = mig.maj(!n1, !n2, sigs[0]);
        mig.add_output("f", n3);
        let before = MigStats::gather(&mig);
        assert!(before.multi_complement_nodes() > 0);
        let rewritten = rewrite(&mig, 4);
        assert_equivalent(&mig, &rewritten);
        let mut multi = 0;
        for id in rewritten.majority_ids() {
            let children = rewritten.node(id).children().unwrap();
            let real = children
                .iter()
                .filter(|s| s.is_complemented() && !s.is_constant())
                .count();
            if real >= 2 {
                multi += 1;
            }
        }
        assert_eq!(multi, 0, "all multi-complement nodes must be rewritten");
    }

    #[test]
    fn associativity_enables_sharing() {
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let u = mig.add_input("u");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        // f = ⟨x u ⟨y u z⟩⟩ and g = ⟨y u x⟩ exists already: the swap
        // ⟨z u ⟨y u x⟩⟩ can share g.
        let g = mig.maj(y, u, x);
        mig.add_output("g", g);
        let inner = mig.maj(y, u, z);
        let f = mig.maj(x, u, inner);
        mig.add_output("f", f);
        assert_eq!(mig.num_majority_nodes(), 3);
        let (new, applied) = pass_associativity(&mig);
        assert_eq!(applied, 1);
        assert_equivalent(&mig, &new);
        assert_eq!(new.num_majority_nodes(), 2);
    }
}
