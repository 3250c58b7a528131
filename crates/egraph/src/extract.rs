//! Extraction: turning a saturated e-graph back into one concrete MIG.
//!
//! The fast path is a greedy bottom-up extractor: a per-e-class cost table
//! relaxed to a fixpoint, choosing for every class the cheapest canonical
//! node under a per-node weight. Several [`ExtractObjective`]s produce
//! structurally different candidates; the compiling cost function in
//! [`crate::optimize`] then scores each candidate by actually compiling it
//! and keeps the cheapest *artifact*, so the per-node weights only have to
//! be good candidate generators, not perfect cost models.

use mig::{Mig, Signal};

use crate::graph::{ClassNode, EGraph};

/// Per-node weighting used by the greedy extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractObjective {
    /// Minimize majority-node count (tree-cost approximation).
    Nodes,
    /// Minimize an RM3 instruction estimate: majority nodes with two or
    /// three complemented non-constant children need extra instructions
    /// and RRAMs, so they weigh almost twice as much.
    Rm3,
    /// Minimize depth (longest root-to-leaf chain), breaking the tie
    /// toward fewer nodes only implicitly. Produces shallow, wide
    /// candidates the other two objectives never propose.
    Depth,
}

impl ExtractObjective {
    /// Every objective, in the deterministic candidate-generation order.
    pub const ALL: [ExtractObjective; 3] = [
        ExtractObjective::Nodes,
        ExtractObjective::Rm3,
        ExtractObjective::Depth,
    ];

    fn weight(self, key: [crate::graph::ClassSignal; 3]) -> u64 {
        match self {
            ExtractObjective::Nodes | ExtractObjective::Depth => 4,
            ExtractObjective::Rm3 => {
                let complemented = key
                    .iter()
                    .filter(|c| c.is_complemented() && c.class() != 0)
                    .count();
                if complemented >= 2 {
                    7
                } else {
                    4
                }
            }
        }
    }

    fn combine(self, weight: u64, children: [u64; 3]) -> u64 {
        match self {
            ExtractObjective::Depth => {
                weight.saturating_add(children.into_iter().max().unwrap_or(0))
            }
            _ => children
                .into_iter()
                .fold(weight, |acc, c| acc.saturating_add(c)),
        }
    }
}

/// Greedily extracts one MIG from the e-graph under the given objective.
///
/// A thin wrapper over [`Extractor`]; build one extractor instead when
/// extracting several objectives from the same graph. Returns `None` only
/// in pathological cases (a cost fixpoint that refuses to converge or a
/// cyclic choice, neither of which sound rules can produce); callers fall
/// back to their baseline graph.
pub fn extract(g: &EGraph, objective: ExtractObjective) -> Option<Mig> {
    Extractor::new(g).extract(objective)
}

/// The extraction index of one saturated e-graph, shared by every
/// objective: each class's canonical node list and, per class, the
/// classes that have a node reading it (its parents).
///
/// The cost table is **memoized per e-class**: every class's cheapest
/// (cost, node) choice is relaxed to a fixpoint and reused by every
/// parent. The relaxation is the in-order sweep the extractor has always
/// run (ids ascending, each pass reading the costs earlier classes of the
/// same pass just lowered, until a pass changes nothing), except that a
/// class is re-evaluated only when one of its children's cost fell since
/// its last evaluation. A class whose children did not move cannot move
/// either, so every pass ends with exactly the costs a full sweep reaches,
/// and every choice is the same.
#[derive(Debug)]
pub struct Extractor<'g> {
    g: &'g EGraph,
    /// Canonical nodes of class `id`: `nodes[node_start[id]..node_start[id + 1]]`
    /// (empty for merged ids).
    node_start: Vec<u32>,
    nodes: Vec<ClassNode>,
    /// Distinct parents of class `id`, the class itself excluded:
    /// `parents[parent_start[id]..parent_start[id + 1]]`.
    parent_start: Vec<u32>,
    parents: Vec<u32>,
}

impl<'g> Extractor<'g> {
    /// Indexes `g` (which must be rebuilt, as [`crate::saturate`] leaves
    /// it) in time linear in its node lists.
    pub fn new(g: &'g EGraph) -> Self {
        let n = g.num_ids();
        let mut node_start: Vec<u32> = Vec::with_capacity(n + 1);
        let mut nodes: Vec<ClassNode> = Vec::new();
        node_start.push(0);
        for id in 0..n as u32 {
            if g.find(id).0 == id {
                g.extend_canonical_nodes(id, &mut nodes);
            }
            node_start.push(nodes.len() as u32);
        }

        // Counting-sort CSR of the child → parent edges. Parents are
        // visited in ascending id order, so a repeated (child, parent)
        // edge is always the last one recorded for that child.
        let children = |id: usize| {
            nodes[node_start[id] as usize..node_start[id + 1] as usize]
                .iter()
                .filter_map(|node| match node {
                    ClassNode::Maj(key, _) => Some(key.map(|c| c.class())),
                    _ => None,
                })
                .flatten()
                .filter(move |&child| child != id)
        };
        let mut last: Vec<u32> = vec![u32::MAX; n];
        let mut parent_start: Vec<u32> = vec![0; n + 1];
        for id in 0..n {
            for child in children(id) {
                if last[child] != id as u32 {
                    last[child] = id as u32;
                    parent_start[child + 1] += 1;
                }
            }
        }
        for id in 0..n {
            parent_start[id + 1] += parent_start[id];
        }
        let mut fill: Vec<u32> = parent_start[..n].to_vec();
        let mut parents: Vec<u32> = vec![0; parent_start[n] as usize];
        last.fill(u32::MAX);
        for id in 0..n {
            for child in children(id) {
                if last[child] != id as u32 {
                    last[child] = id as u32;
                    parents[fill[child] as usize] = id as u32;
                    fill[child] += 1;
                }
            }
        }

        Extractor {
            g,
            node_start,
            nodes,
            parent_start,
            parents,
        }
    }

    fn class_nodes(&self, id: usize) -> &[ClassNode] {
        &self.nodes[self.node_start[id] as usize..self.node_start[id + 1] as usize]
    }

    fn class_parents(&self, id: usize) -> &[u32] {
        &self.parents[self.parent_start[id] as usize..self.parent_start[id + 1] as usize]
    }

    /// Greedily extracts one MIG under `objective` (see [`extract`]).
    pub fn extract(&self, objective: ExtractObjective) -> Option<Mig> {
        let cost = self.costs(objective);
        // Final choice per class: first node achieving the fixpoint
        // minimum (deterministic: node lists are in insertion order).
        let choice: Vec<Option<ClassNode>> = (0..self.g.num_ids())
            .map(|id| {
                let mut best: Option<(u64, ClassNode)> = None;
                for node in self.class_nodes(id) {
                    let Some(value) = node_cost(objective, node, &cost) else {
                        continue;
                    };
                    if best.is_none_or(|(b, _)| value < b) {
                        best = Some((value, *node));
                    }
                }
                best.map(|(_, node)| node)
            })
            .collect();
        materialize(self.g, &choice)
    }

    /// The per-class cost fixpoint: in-order passes, at most
    /// `max(#ids, 8)` of them, each visiting only the classes queued for
    /// it. A class whose cost falls queues its parents: a parent with a
    /// higher id is visited later in the same pass (the sweep reads the
    /// lowered cost there too), a lower one in the next pass. The queues
    /// are bitsets over class ids, so a pass walks its queued classes in
    /// id order at a cost of one word per 64 ids.
    fn costs(&self, objective: ExtractObjective) -> Vec<u64> {
        let n = self.g.num_ids();
        let mut cost: Vec<u64> = vec![u64::MAX; n];
        let mut current: Vec<u64> = vec![0; n.div_ceil(64)];
        let mut next = current.clone();
        for id in 0..n {
            if !self.class_nodes(id).is_empty() {
                next[id / 64] |= 1 << (id % 64);
            }
        }
        for _pass in 0..n.max(8) {
            if next.iter().all(|&word| word == 0) {
                break;
            }
            std::mem::swap(&mut current, &mut next);
            let mut word = 0;
            while word < current.len() {
                let bits = current[word];
                if bits == 0 {
                    word += 1;
                    continue;
                }
                current[word] = bits & (bits - 1);
                let id = word * 64 + bits.trailing_zeros() as usize;
                let before = cost[id];
                for node in self.class_nodes(id) {
                    if let Some(candidate) = node_cost(objective, node, &cost) {
                        cost[id] = cost[id].min(candidate);
                    }
                }
                if cost[id] == before {
                    continue;
                }
                for &parent in self.class_parents(id) {
                    let parent = parent as usize;
                    let queue = if parent > id { &mut current } else { &mut next };
                    queue[parent / 64] |= 1 << (parent % 64);
                }
            }
        }
        cost
    }
}

/// The cost of choosing `node` given the current class costs, or `None`
/// while a child has no cost yet.
fn node_cost(objective: ExtractObjective, node: &ClassNode, cost: &[u64]) -> Option<u64> {
    match node {
        ClassNode::Const(_) | ClassNode::Input(_, _) => Some(0),
        ClassNode::Maj(key, _) => {
            let children = key.map(|c| cost[c.class()]);
            if children.contains(&u64::MAX) {
                return None;
            }
            Some(objective.combine(objective.weight(*key), children))
        }
    }
}

/// Builds the concrete MIG for a per-class node choice.
fn materialize(g: &EGraph, choice: &[Option<ClassNode>]) -> Option<Mig> {
    let mut mig = Mig::with_capacity(g.num_enodes());
    let inputs: Vec<Signal> = g
        .input_names()
        .iter()
        .map(|name| mig.add_input(name))
        .collect();

    let n = choice.len();
    // built[c] = signal of class c's representative; awaiting = on the DFS
    // stack with children pending (used as the cycle guard).
    let mut built: Vec<Option<Signal>> = vec![None; n];
    let mut awaiting: Vec<bool> = vec![false; n];
    let mut resolved: Vec<(String, Signal)> = Vec::with_capacity(g.outputs().len());

    for (name, out) in g.outputs() {
        let out = g.canonical(*out);
        let root = out.class();
        let mut stack: Vec<usize> = vec![root];
        while let Some(&class) = stack.last() {
            if built[class].is_some() {
                awaiting[class] = false;
                stack.pop();
                continue;
            }
            match choice[class]? {
                ClassNode::Const(par) => {
                    built[class] = Some(Signal::constant(par));
                }
                ClassNode::Input(index, par) => {
                    built[class] = Some(inputs[index as usize].complement_if(par));
                }
                ClassNode::Maj(key, par) => {
                    let mut pending = false;
                    for child in key {
                        let cc = child.class();
                        if built[cc].is_none() {
                            if awaiting[cc] {
                                // A cycle in the chosen nodes: bail out,
                                // the caller falls back to its baseline.
                                return None;
                            }
                            stack.push(cc);
                            pending = true;
                        }
                    }
                    if pending {
                        awaiting[class] = true;
                        continue;
                    }
                    let sigs =
                        key.map(|c| built[c.class()].unwrap().complement_if(c.is_complemented()));
                    let m = mig.maj(sigs[0], sigs[1], sigs[2]);
                    built[class] = Some(m.complement_if(par));
                }
            }
        }
        resolved.push((
            name.clone(),
            built[root].unwrap().complement_if(out.is_complemented()),
        ));
    }
    for (name, signal) in resolved {
        mig.add_output(&name, signal);
    }
    Some(mig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ClassSignal;
    use crate::rules::{saturate, EgraphBudget};
    use plim_benchmarks::random::{random_logic, RandomLogicSpec};
    use proptest::prelude::*;

    /// The reference extractor: every pass re-evaluates every class, in id
    /// order, until a pass changes nothing. [`Extractor`] must choose
    /// exactly what this sweep chooses.
    fn sweep_extract(g: &EGraph, objective: ExtractObjective) -> Option<Mig> {
        let n = g.num_ids();
        let nodes: Vec<Vec<ClassNode>> = (0..n as u32)
            .map(|id| {
                if g.find(id).0 == id {
                    g.canonical_nodes(id)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut cost: Vec<u64> = vec![u64::MAX; n];
        for _pass in 0..n.max(8) {
            let mut changed = false;
            for (id, class_nodes) in nodes.iter().enumerate() {
                for node in class_nodes {
                    let Some(candidate) = node_cost(objective, node, &cost) else {
                        continue;
                    };
                    if candidate < cost[id] {
                        cost[id] = candidate;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let choice: Vec<Option<ClassNode>> = nodes
            .iter()
            .map(|class_nodes| {
                let mut best: Option<(u64, ClassNode)> = None;
                for node in class_nodes {
                    let Some(value) = node_cost(objective, node, &cost) else {
                        continue;
                    };
                    if best.is_none_or(|(b, _)| value < b) {
                        best = Some((value, *node));
                    }
                }
                best.map(|(_, node)| node)
            })
            .collect();
        materialize(g, &choice)
    }

    /// Every objective's extraction, as MIG text, from the shared index and
    /// from the reference sweep.
    fn assert_matches_the_sweep(g: &EGraph) {
        let extractor = Extractor::new(g);
        for objective in ExtractObjective::ALL {
            let ours = extractor.extract(objective).map(|m| mig::io::write_mig(&m));
            let reference = sweep_extract(g, objective).map(|m| mig::io::write_mig(&m));
            assert_eq!(ours, reference, "{objective:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On seeded random logic, saturated at every effort the product
        /// uses and under a starved budget, the indexed extractor picks
        /// exactly the reference sweep's graph for every objective.
        #[test]
        fn indexed_extraction_matches_the_reference_sweep(
            seed: u64,
            inputs in 2usize..8,
            outputs in 1usize..4,
            nodes in 8usize..80,
            effort in 1usize..5,
        ) {
            let raw = random_logic(&RandomLogicSpec::new(inputs, outputs, nodes, seed));
            let baseline = mig::rewrite::rewrite(&raw, effort);
            let mut g = EGraph::from_mig(&baseline);
            g.absorb_equivalent(&raw);
            let seeded = g.num_enodes();
            let mut starved = EGraph::from_mig(&baseline);
            saturate(&mut g, &EgraphBudget::for_effort(effort).scaled_to(seeded));
            assert_matches_the_sweep(&g);
            saturate(
                &mut starved,
                &EgraphBudget {
                    max_enodes: seeded + 16,
                    max_iterations: 1,
                    max_work: 500,
                },
            );
            assert_matches_the_sweep(&starved);
        }
    }

    /// A chain of classes where every parent has a *lower* id than the
    /// child it reads: class `f[i]` gets a cheap spelling `⟨f[i+1] x_i y⟩`
    /// only through a union with a later-built class. Each level's cost
    /// falls one pass after the level below it, after the lower-id parent
    /// was already evaluated in that pass, so the cheap chain is found
    /// only if every fall re-queues its parent for the next pass.
    #[test]
    fn a_fall_below_an_evaluated_parent_reaches_it_next_pass() {
        const LEVELS: usize = 24;
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let y = mig.add_input("y");
        let xs = mig.add_inputs("x", LEVELS);
        // One shared expensive operand: a chain deeper than the cheap one.
        let mut heavy = mig.maj(a, b, y);
        for _ in 0..2 * LEVELS {
            heavy = mig.maj(heavy, a, b);
        }
        for (i, &x) in xs.iter().enumerate() {
            let level = mig.maj(heavy, x, y);
            mig.add_output(format!("f{i}"), level);
        }
        let mut g = EGraph::from_mig(&mig);
        let f: Vec<ClassSignal> = g.outputs().iter().map(|&(_, s)| s).collect();
        let x: Vec<ClassSignal> = (0..LEVELS)
            .map(|i| ClassSignal::new(4 + i, false))
            .collect();
        let [ca, cb, cy] = [1, 2, 3].map(|i| ClassSignal::new(i, false));

        // Cheap spellings, built top-down so each one's id exceeds its
        // level's: the last level is a plain leaf majority, every other
        // level reads the next one.
        let mut cheap = [ca; LEVELS];
        cheap[LEVELS - 1] = g.add([ca, cb, x[LEVELS - 1]]);
        for i in (0..LEVELS - 1).rev() {
            cheap[i] = g.add([f[i + 1], x[i], cy]);
        }
        for i in 0..LEVELS {
            assert!(cheap[i].class() > f[i].class());
            g.union(f[i], cheap[i]);
        }
        g.rebuild();

        assert_matches_the_sweep(&g);
        let nodes = extract(&g, ExtractObjective::Nodes).expect("extraction succeeds");
        assert_eq!(
            nodes.num_majority_nodes(),
            LEVELS,
            "every level must switch to its cheap spelling"
        );
    }

    fn check_equiv(a: &Mig, b: &Mig) {
        assert!(mig::equiv::check_equivalence(a, b, 64, 7)
            .expect("interfaces match")
            .holds());
    }

    #[test]
    fn extraction_round_trips_a_plain_graph() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, !b, c);
        let m2 = mig.maj(m, b, !c);
        mig.add_output("f", m2);
        mig.add_output("g", !m);
        let g = EGraph::from_mig(&mig);
        for objective in ExtractObjective::ALL {
            let out = extract(&g, objective).expect("extraction succeeds");
            assert_eq!(out.num_inputs(), 3);
            assert_eq!(out.num_outputs(), 2);
            check_equiv(&mig, &out);
            assert!(out.num_majority_nodes() <= mig.num_majority_nodes());
        }
    }

    #[test]
    fn extraction_after_saturation_stays_equivalent_and_never_grows() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 5);
        let m1 = mig.maj(xs[0], xs[1], xs[2]);
        let m2 = mig.maj(m1, xs[3], xs[4]);
        let m3 = mig.maj(m1, !m2, xs[0]);
        let m4 = mig.maj(m2, m3, xs[1]);
        mig.add_output("f", m4);
        let mut g = EGraph::from_mig(&mig);
        saturate(&mut g, &EgraphBudget::for_effort(2));
        for objective in ExtractObjective::ALL {
            let out = extract(&g, objective).expect("extraction succeeds");
            check_equiv(&mig, &out);
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let build = || {
            let mut mig = Mig::new();
            let xs = mig.add_inputs("x", 6);
            let mut acc = xs[0];
            for &x in &xs[1..] {
                acc = mig.xor(acc, x);
            }
            mig.add_output("f", acc);
            mig
        };
        let one = {
            let mut g = EGraph::from_mig(&build());
            saturate(&mut g, &EgraphBudget::for_effort(2));
            extract(&g, ExtractObjective::Rm3).unwrap()
        };
        let two = {
            let mut g = EGraph::from_mig(&build());
            saturate(&mut g, &EgraphBudget::for_effort(2));
            extract(&g, ExtractObjective::Rm3).unwrap()
        };
        assert_eq!(mig::io::write_mig(&one), mig::io::write_mig(&two));
    }
}
