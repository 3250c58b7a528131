//! The Majority-Inverter Graph.

use std::fmt;
use std::sync::OnceLock;

use crate::hash::Strash;
use crate::node::MigNode;
use crate::signal::{NodeId, Signal};

/// A Majority-Inverter Graph: a DAG of 3-input majority nodes with
/// regular/complemented edges, primary inputs and named primary outputs.
///
/// The graph maintains the following invariants:
///
/// * node 0 is the constant-zero node;
/// * children of a majority node always precede it in the arena, so the
///   arena index order is a topological order;
/// * children are stored canonically sorted (commutativity Ω.C is implicit);
/// * trivial majorities are simplified at creation time (majority axiom Ω.M):
///   `⟨x x y⟩ = x` and `⟨x x̄ y⟩ = y`;
/// * structural hashing guarantees that no two majority nodes have the same
///   (sorted) child triple.
///
/// Only [`Mig::maj`] hashes. A graph made by [`Mig::new`] or
/// [`Mig::with_capacity`] (the builders, [`parse_mig`](crate::io::parse_mig))
/// keeps its structural-hash table from the start. A copied graph —
/// [`Mig::cleaned`], [`Mig::levelized`] and the rewrite arena's compaction —
/// maps a canonical graph node for node, so it keeps the invariants without
/// hashing and builds its table on first use, by the first `maj` or
/// [`Mig::find_maj`]. A compile that never probes the result hash-conses
/// each node once, when it is parsed or built.
///
/// Complement placement is **not** canonicalized: `⟨x̄ ȳ z̄⟩` and `!⟨x y z⟩`
/// are distinct structures. This is deliberate — the PLiM compiler's cost
/// model depends on the distribution of complemented edges, and the rewriting
/// passes of [`crate::rewrite`] manipulate it explicitly.
///
/// # Examples
///
/// ```
/// use mig::Mig;
///
/// let mut mig = Mig::new();
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let c = mig.add_input("c");
/// let m = mig.maj(a, b, c);
/// mig.add_output("f", m);
/// assert_eq!(mig.num_majority_nodes(), 1);
/// ```
#[derive(Clone)]
pub struct Mig {
    nodes: Vec<MigNode>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<(String, Signal)>,
    /// Index of the majority nodes by child triple; built on first use in
    /// a copied graph.
    strash: OnceLock<Strash>,
}

/// The batch shares `&Mig` across worker threads.
const _: fn() = || {
    fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<Mig>();
};

impl Mig {
    /// Creates an empty graph containing only the constant node.
    pub fn new() -> Self {
        Mig {
            nodes: vec![MigNode::Constant],
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: OnceLock::from(Strash::default()),
        }
    }

    /// Creates an empty graph with capacity for `nodes` majority nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut arena = Vec::with_capacity(nodes + 1);
        arena.push(MigNode::Constant);
        Mig {
            nodes: arena,
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: OnceLock::from(Strash::with_capacity(nodes)),
        }
    }

    /// The constant signal of the given value.
    #[inline]
    pub fn constant(&self, value: bool) -> Signal {
        Signal::constant(value)
    }

    /// Adds a primary input with the given name and returns its signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> Signal {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(MigNode::Input(self.inputs.len() as u32));
        self.inputs.push(id);
        self.input_names.push(name.into());
        Signal::new(id, false)
    }

    /// Adds `count` primary inputs named `prefix0`, `prefix1`, ….
    pub fn add_inputs(&mut self, prefix: &str, count: usize) -> Vec<Signal> {
        (0..count)
            .map(|i| self.add_input(format!("{prefix}{i}")))
            .collect()
    }

    /// Registers `signal` as a primary output under `name`.
    pub fn add_output(&mut self, name: impl Into<String>, signal: Signal) {
        debug_assert!(signal.node().index() < self.nodes.len());
        self.outputs.push((name.into(), signal));
    }

    /// Creates (or reuses) the majority node `⟨a b c⟩`.
    ///
    /// Applies the Ω.M simplifications and structural hashing, so the result
    /// may be an existing node or even one of the arguments.
    pub fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        let mut children = [a, b, c];
        children.sort_unstable();
        let [x, y, z] = children;

        // Ω.M: ⟨x x y⟩ = x. Sorting places equal signals adjacently.
        if x == y || y == z {
            return y;
        }
        // Ω.M: ⟨x x̄ y⟩ = y. Complementary pairs are adjacent after sorting.
        if x.node() == y.node() {
            debug_assert_ne!(x.is_complemented(), y.is_complemented());
            return z;
        }
        if y.node() == z.node() {
            debug_assert_ne!(y.is_complemented(), z.is_complemented());
            return x;
        }

        self.strash.get_or_init(|| Strash::index(&self.nodes));
        let strash = self.strash.get_mut().expect("built above");
        if let Some(id) = strash.get(children) {
            return Signal::new(id, false);
        }
        let id = NodeId::from_index(self.nodes.len());
        strash.insert(children, id);
        self.nodes.push(MigNode::Majority(children));
        Signal::new(id, false)
    }

    /// Looks up an existing majority node with the given children without
    /// creating one. The children are sorted internally before lookup.
    ///
    /// Trivial triples (which Ω.M would simplify) return `None`.
    pub fn find_maj(&self, a: Signal, b: Signal, c: Signal) -> Option<Signal> {
        let mut children = [a, b, c];
        children.sort_unstable();
        let [x, y, z] = children;
        if x.node() == y.node() || y.node() == z.node() {
            return None;
        }
        self.strash
            .get_or_init(|| Strash::index(&self.nodes))
            .get(children)
            .map(|id| Signal::new(id, false))
    }

    /// `a ∧ b`, built as `⟨0 a b⟩`.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.maj(Signal::FALSE, a, b)
    }

    /// `a ∨ b`, built as `⟨1 a b⟩`.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.maj(Signal::TRUE, a, b)
    }

    /// `a ⊕ b`, built from two majority nodes (AOIG style):
    /// `(a ∨ b) ∧ ¬(a ∧ b)`.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        let or = self.or(a, b);
        let and = self.and(a, b);
        self.and(or, !and)
    }

    /// `a ⊕ b ⊕ c`, built compactly with majority sharing:
    /// `x ⊕ y ⊕ z = ⟨m̄ ⟨x y z̄⟩ ... ⟩` — we use the classic construction
    /// via the carry `m = ⟨x y z⟩`: `x ⊕ y ⊕ z = ⟨m̄ z ⟨x y z̄⟩⟩`.
    pub fn xor3(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        let carry = self.maj(a, b, c);
        let inner = self.maj(a, b, !c);
        self.maj(!carry, c, inner)
    }

    /// If-then-else: `s ? t : e`, built as `⟨⟨0 s t⟩ ⟨0 s̄ e⟩ 1⟩`.
    pub fn mux(&mut self, s: Signal, t: Signal, e: Signal) -> Signal {
        let st = self.and(s, t);
        let se = self.and(!s, e);
        self.or(st, se)
    }

    /// Number of nodes in the arena (constant + inputs + majority nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes besides the constant.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of majority nodes (the MIG *size* in the paper's sense, `#N`).
    pub fn num_majority_nodes(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The node with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn node(&self, id: NodeId) -> &MigNode {
        &self.nodes[id.index()]
    }

    /// Iterates over all node identifiers in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over the identifiers of all majority nodes in topological
    /// order.
    pub fn majority_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |id| self.node(*id).is_majority())
    }

    /// The primary-input node identifiers, in declaration order.
    #[inline]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The name of primary input `index`.
    pub fn input_name(&self, index: usize) -> &str {
        &self.input_names[index]
    }

    /// The primary outputs as `(name, signal)` pairs.
    #[inline]
    pub fn outputs(&self) -> &[(String, Signal)] {
        &self.outputs
    }

    /// Replaces the signal of output `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_output(&mut self, index: usize, signal: Signal) {
        self.outputs[index].1 = signal;
    }

    /// Computes, for every node, the number of references from majority-node
    /// child edges and primary outputs (the *fanout count*).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            if let MigNode::Majority(children) = node {
                for child in children {
                    counts[child.node().index()] += 1;
                }
            }
        }
        for (_, signal) in &self.outputs {
            counts[signal.node().index()] += 1;
        }
        counts
    }

    /// Computes, for every node, the list of majority nodes referencing it.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut fanouts = vec![Vec::new(); self.nodes.len()];
        for id in self.node_ids() {
            if let MigNode::Majority(children) = self.node(id) {
                for child in children {
                    let list = &mut fanouts[child.node().index()];
                    if list.last() != Some(&id) {
                        list.push(id);
                    }
                }
            }
        }
        fanouts
    }

    /// Computes the level (logic depth from the inputs) of each node.
    /// Constants and inputs are level 0.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.nodes.len()];
        for (index, node) in self.nodes.iter().enumerate() {
            if let MigNode::Majority(children) = node {
                levels[index] = 1 + children
                    .iter()
                    .map(|c| levels[c.node().index()])
                    .max()
                    .unwrap_or(0);
            }
        }
        levels
    }

    /// The depth of the graph: the maximum output level.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|(_, s)| levels[s.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Computes, for every node, whether it is reachable from a primary
    /// output (the "live cone" of the graph).
    pub fn reachable_mask(&self) -> Vec<bool> {
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|(_, s)| s.node()).collect();
        while let Some(id) = stack.pop() {
            if reachable[id.index()] {
                continue;
            }
            reachable[id.index()] = true;
            if let MigNode::Majority(children) = self.node(id) {
                stack.extend(children.iter().map(|c| c.node()));
            }
        }
        reachable
    }

    /// Returns a copy of this graph containing only the logic reachable from
    /// the primary outputs ("dangling" nodes are removed). All primary inputs
    /// are kept to preserve the interface.
    pub fn cleaned(&self) -> Mig {
        let reachable = self.reachable_mask();
        let order = self
            .node_ids()
            .filter(|id| reachable[id.index()] && self.node(*id).is_majority());
        self.copied_in(order, self.num_majority_nodes())
    }

    /// Returns a copy of this graph with majority nodes stored in
    /// *levelized* order: all level-1 nodes first, then level 2, and so on
    /// (ties broken by original index). Dangling nodes are removed.
    ///
    /// This is the node order produced by typical netlist writers (and by
    /// the EPFL benchmark distribution), as opposed to the depth-first
    /// creation order of this crate's builders. Schedulers that process
    /// nodes "in index order" — like the paper's naive translation — behave
    /// very differently on the two orders, so benchmark circuits are
    /// levelized before compilation.
    pub fn levelized(&self) -> Mig {
        let levels = self.levels();
        let reachable = self.reachable_mask();

        let mut order: Vec<NodeId> = self
            .node_ids()
            .filter(|id| reachable[id.index()] && self.node(*id).is_majority())
            .collect();
        order.sort_by_key(|id| (levels[id.index()], id.index()));
        let len = order.len();
        self.copied_in(order, len)
    }

    /// A copy of this graph with its inputs first and then the majority
    /// nodes of `order` (a topological order of `count` of them that
    /// includes the output cone), without hashing: the copy maps distinct
    /// nodes to distinct nodes, so its triples stay distinct and
    /// irreducible, and sorting each mapped triple keeps it canonical.
    fn copied_in(&self, order: impl IntoIterator<Item = NodeId>, count: usize) -> Mig {
        let mut nodes = canonical_table(self.inputs.len(), count);
        let mut map: Vec<Option<Signal>> = vec![None; self.nodes.len()];
        map[0] = Some(Signal::FALSE);
        for (k, &id) in self.inputs.iter().enumerate() {
            map[id.index()] = Some(Signal::new(NodeId::from_index(1 + k), false));
        }
        for id in order {
            let children = self.node(id).children().expect("majority nodes only");
            let mapped = children.map(|c| {
                map[c.node().index()]
                    .expect("children precede parents")
                    .complement_if(c.is_complemented())
            });
            map[id.index()] = Some(push_canonical(&mut nodes, mapped));
        }
        let outputs = self
            .outputs
            .iter()
            .map(|(name, signal)| {
                let mapped = map[signal.node().index()]
                    .expect("output cone is reachable")
                    .complement_if(signal.is_complemented());
                (name.clone(), mapped)
            })
            .collect();
        Mig::from_canonical(nodes, self.input_names.clone(), outputs)
    }

    /// A graph over a node table that is canonical by construction. The
    /// table holds the constant, one input node per name, then majority
    /// nodes whose children precede them, each triple sorted, irreducible
    /// by Ω.M and unlike every other. Nothing is hashed: the graph builds
    /// its structural-hash table on first use.
    ///
    /// Every build checks that no triple is Ω.M-reducible; debug builds
    /// also check the order, the sorting and that no triple repeats.
    pub(crate) fn from_canonical(
        nodes: Vec<MigNode>,
        input_names: Vec<String>,
        outputs: Vec<(String, Signal)>,
    ) -> Mig {
        let majority = 1 + input_names.len();
        for node in &nodes[majority..] {
            let MigNode::Majority([x, y, z]) = node else {
                panic!("canonical table: {node:?} after the inputs");
            };
            assert!(
                x.node() != y.node() && y.node() != z.node(),
                "canonical table: ⟨{x} {y} {z}⟩ is Ω.M-reducible"
            );
        }
        #[cfg(debug_assertions)]
        check_canonical(&nodes, majority, &outputs);
        Mig {
            nodes,
            inputs: (1..majority).map(NodeId::from_index).collect(),
            input_names,
            outputs,
            strash: OnceLock::new(),
        }
    }

    /// The node table, for the rewrite arena's import.
    pub(crate) fn node_table(&self) -> &[MigNode] {
        &self.nodes
    }

    /// The structural-hash table, if it has been built.
    pub(crate) fn built_strash(&self) -> Option<&Strash> {
        self.strash.get()
    }
}

/// The start of a canonical node table: the constant and `inputs` input
/// nodes, with room for `majority` majority nodes.
pub(crate) fn canonical_table(inputs: usize, majority: usize) -> Vec<MigNode> {
    let mut nodes = Vec::with_capacity(1 + inputs + majority);
    nodes.push(MigNode::Constant);
    nodes.extend((0..inputs as u32).map(MigNode::Input));
    nodes
}

/// Appends the majority node over `children` to a canonical table and
/// returns its signal. Only the sorting is left of [`Mig::maj`]'s work:
/// the caller maps a canonical graph injectively.
#[inline]
pub(crate) fn push_canonical(nodes: &mut Vec<MigNode>, mut children: [Signal; 3]) -> Signal {
    children.sort_unstable();
    let id = NodeId::from_index(nodes.len());
    nodes.push(MigNode::Majority(children));
    Signal::new(id, false)
}

/// The debug check behind [`Mig::from_canonical`].
#[cfg(debug_assertions)]
fn check_canonical(nodes: &[MigNode], majority: usize, outputs: &[(String, Signal)]) {
    assert_eq!(nodes[0], MigNode::Constant, "canonical table: node 0");
    for (k, node) in nodes[1..majority].iter().enumerate() {
        assert_eq!(
            *node,
            MigNode::Input(k as u32),
            "canonical table: input {k}"
        );
    }
    let mut seen = std::collections::HashSet::with_capacity(nodes.len() - majority);
    for (index, node) in nodes.iter().enumerate().skip(majority) {
        let MigNode::Majority(children) = node else {
            unreachable!("checked by the caller");
        };
        assert!(
            children[0] < children[1] && children[1] < children[2],
            "canonical table: node {index} is not sorted"
        );
        assert!(
            children[2].node().index() < index,
            "canonical table: node {index} precedes a child"
        );
        assert!(
            seen.insert(*children),
            "canonical table: node {index} repeats a triple"
        );
    }
    for (name, signal) in outputs {
        assert!(
            signal.node().index() < nodes.len(),
            "canonical table: output {name} is out of range"
        );
    }
}

impl Default for Mig {
    fn default() -> Self {
        Mig::new()
    }
}

impl fmt::Debug for Mig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mig")
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .field("majority_nodes", &self.num_majority_nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_only_constant() {
        let mig = Mig::new();
        assert!(mig.is_empty());
        assert_eq!(mig.len(), 1);
        assert_eq!(mig.num_majority_nodes(), 0);
        assert!(mig.node(NodeId::CONSTANT).is_constant());
    }

    #[test]
    fn maj_simplifies_equal_children() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        assert_eq!(mig.maj(a, a, b), a);
        assert_eq!(mig.maj(b, a, b), b);
        assert_eq!(mig.maj(a, b, a), a);
        assert_eq!(mig.num_majority_nodes(), 0);
    }

    #[test]
    fn maj_simplifies_complementary_children() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        assert_eq!(mig.maj(a, !a, b), b);
        assert_eq!(mig.maj(b, a, !b), a);
        assert_eq!(mig.maj(!a, b, a), b);
        assert_eq!(mig.num_majority_nodes(), 0);
    }

    #[test]
    fn maj_with_two_constants_simplifies() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        // ⟨0 1 a⟩ = a because 0 and 1 are complementary.
        assert_eq!(mig.maj(Signal::FALSE, Signal::TRUE, a), a);
        assert_eq!(mig.maj(Signal::FALSE, Signal::FALSE, a), Signal::FALSE);
        assert_eq!(mig.maj(Signal::TRUE, a, Signal::TRUE), Signal::TRUE);
    }

    #[test]
    fn strash_reuses_nodes() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m1 = mig.maj(a, b, c);
        let m2 = mig.maj(c, a, b);
        let m3 = mig.maj(b, c, a);
        assert_eq!(m1, m2);
        assert_eq!(m2, m3);
        assert_eq!(mig.num_majority_nodes(), 1);
        // Different complementation is a different node.
        let m4 = mig.maj(!a, b, c);
        assert_ne!(m1, m4);
        assert_eq!(mig.num_majority_nodes(), 2);
    }

    #[test]
    fn find_maj_matches_created_nodes() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        assert_eq!(mig.find_maj(a, b, c), None);
        let m = mig.maj(a, b, c);
        assert_eq!(mig.find_maj(c, b, a), Some(m));
        assert_eq!(mig.find_maj(a, a, b), None);
    }

    #[test]
    fn and_or_build_constant_gates() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let g_and = mig.and(a, b);
        let g_or = mig.or(a, b);
        assert_ne!(g_and, g_or);
        assert_eq!(mig.num_majority_nodes(), 2);
        let children = mig.node(g_and.node()).children().unwrap();
        assert_eq!(children[0], Signal::FALSE);
    }

    #[test]
    fn levels_and_depth() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let x = mig.and(a, b);
        let y = mig.or(x, c);
        mig.add_output("f", y);
        let levels = mig.levels();
        assert_eq!(levels[x.node().index()], 1);
        assert_eq!(levels[y.node().index()], 2);
        assert_eq!(mig.depth(), 2);
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let x = mig.and(a, b);
        let y = mig.or(x, a);
        mig.add_output("f", y);
        mig.add_output("g", x);
        let counts = mig.fanout_counts();
        assert_eq!(counts[a.node().index()], 2); // x and y
        assert_eq!(counts[x.node().index()], 2); // y and output g
        assert_eq!(counts[y.node().index()], 1); // output f
    }

    #[test]
    fn cleaned_removes_dangling_nodes() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let used = mig.and(a, b);
        let _dangling = mig.or(a, b);
        mig.add_output("f", used);
        assert_eq!(mig.num_majority_nodes(), 2);
        let cleaned = mig.cleaned();
        assert_eq!(cleaned.num_majority_nodes(), 1);
        assert_eq!(cleaned.num_inputs(), 2);
        assert_eq!(cleaned.num_outputs(), 1);
    }

    #[test]
    fn cleaned_preserves_output_complement() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let x = mig.and(a, b);
        mig.add_output("f", !x);
        let cleaned = mig.cleaned();
        assert!(cleaned.outputs()[0].1.is_complemented());
    }

    #[test]
    fn xor3_uses_three_nodes() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let x = mig.xor3(a, b, c);
        mig.add_output("s", x);
        assert_eq!(mig.num_majority_nodes(), 3);
    }

    /// A two-input canonical table with `triples` as its majority nodes.
    fn canonical_graph(triples: &[[Signal; 3]]) -> Mig {
        let mut nodes = canonical_table(2, triples.len());
        nodes.extend(triples.iter().map(|&t| MigNode::Majority(t)));
        Mig::from_canonical(nodes, vec!["a".into(), "b".into()], Vec::new())
    }

    fn input(k: usize) -> Signal {
        Signal::new(NodeId::from_index(1 + k), false)
    }

    #[test]
    fn the_canonical_constructor_takes_a_canonical_table() {
        let (a, b) = (input(0), input(1));
        let mig = canonical_graph(&[[Signal::FALSE, a, b], [Signal::TRUE, a, !b]]);
        assert_eq!(mig.num_majority_nodes(), 2);
        assert_eq!(
            mig.inputs(),
            &[NodeId::from_index(1), NodeId::from_index(2)]
        );
        assert_eq!(
            mig.find_maj(b, a, Signal::FALSE),
            Some(Signal::new(NodeId::from_index(3), false))
        );
    }

    #[test]
    #[should_panic(expected = "is Ω.M-reducible")]
    fn the_canonical_constructor_refuses_a_reducible_triple() {
        let (a, b) = (input(0), input(1));
        canonical_graph(&[[a, !a, b]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "repeats a triple")]
    fn the_canonical_constructor_refuses_a_duplicated_triple() {
        let (a, b) = (input(0), input(1));
        canonical_graph(&[[Signal::FALSE, a, b], [Signal::FALSE, a, b]]);
    }

    #[test]
    fn input_names_are_retained() {
        let mut mig = Mig::new();
        mig.add_input("alpha");
        mig.add_input("beta");
        assert_eq!(mig.input_name(0), "alpha");
        assert_eq!(mig.input_name(1), "beta");
        let many = mig.add_inputs("x", 3);
        assert_eq!(many.len(), 3);
        assert_eq!(mig.input_name(4), "x2");
    }
}
