//! Liveness/lifetime analysis over the MIG.
//!
//! The scheduler and the allocator both reason about *when a value dies*:
//! the scheduler wants to compute nodes whose children die immediately
//! (releasing their RRAMs), and a lifetime-aware allocator wants to place
//! long-lived values on different cells than short-lived churn. This module
//! computes that information **up front**, once per compilation:
//!
//! * a Sethi–Ullman-style depth-first **post-order** from the primary
//!   outputs — the reference schedule position (`def`) of every node;
//! * each node's **last-use position** — the largest post-order position
//!   among its consumers (`u32::MAX` for nodes kept alive by a primary
//!   output, which never die during translation);
//! * the **lifetime span** `last_use − def`, and a coarse [`LifetimeClass`]
//!   splitting nodes at the mean span;
//! * each node's **reference count**: the edges from reachable majority
//!   nodes plus the primary outputs reading it — the references lowering
//!   consumes before it releases the node's cells.
//!
//! The post-order itself is the default [`crate::ScheduleOrder::Priority`]
//! schedule: [`Lifetimes::order`] keeps the sequence the depth-first search
//! emits, and `ir::lower` translates its majority nodes in that order.

use mig::{Mig, MigNode, NodeId};

/// Coarse expected-lifetime class of a value, used as an allocation hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LifetimeClass {
    /// Dies soon after computation (span below the graph's mean span).
    #[default]
    Short,
    /// Stays live across many other computations, or feeds a primary
    /// output (never released during translation).
    Long,
}

/// Precomputed lifetime information for every node of a graph.
#[derive(Debug, Clone)]
pub struct Lifetimes {
    postorder: Vec<u32>,
    order: Vec<NodeId>,
    last_use: Vec<u32>,
    references: Vec<u32>,
    span_threshold: u32,
}

impl Lifetimes {
    /// Runs the analysis on a graph.
    pub fn compute(mig: &Mig) -> Self {
        let levels = mig.levels();
        // Depth-first post-order over the output cones, visiting the
        // deepest child of each node first (Sethi–Ullman order): shallow
        // operands are then computed right before their consumer instead
        // of staying live across a deep sibling subtree.
        let mut postorder = vec![u32::MAX; mig.len()];
        let mut order: Vec<NodeId> = Vec::with_capacity(mig.len());
        let mut stack: Vec<(NodeId, bool)> = mig
            .outputs()
            .iter()
            .rev()
            .map(|(_, s)| (s.node(), false))
            .collect();
        while let Some((id, expanded)) = stack.pop() {
            if postorder[id.index()] != u32::MAX {
                continue;
            }
            if expanded {
                postorder[id.index()] = order.len() as u32;
                order.push(id);
                continue;
            }
            if let MigNode::Majority(children) = mig.node(id) {
                stack.push((id, true));
                // Deepest child last on the stack ⇒ visited first.
                let mut kids = children.map(|c| c.node());
                kids.sort_by_key(|n| levels[n.index()]);
                for n in kids {
                    if postorder[n.index()] == u32::MAX {
                        stack.push((n, false));
                    }
                }
            } else {
                postorder[id.index()] = order.len() as u32;
                order.push(id);
            }
        }

        // Last use: the largest consumer position under the reference
        // schedule. Nodes referenced by a primary output stay live to the
        // end of the program, so their lifetime is unbounded. Dangling
        // consumers are never translated, so they neither extend a
        // lifetime nor hold a reference.
        let mut last_use = vec![0u32; mig.len()];
        let mut references = vec![0u32; mig.len()];
        for id in mig.node_ids() {
            if let MigNode::Majority(children) = mig.node(id) {
                let here = postorder[id.index()];
                if here == u32::MAX {
                    continue; // unreachable consumer
                }
                for child in children {
                    let entry = &mut last_use[child.node().index()];
                    *entry = (*entry).max(here);
                    references[child.node().index()] += 1;
                }
            }
        }
        for (_, signal) in mig.outputs() {
            last_use[signal.node().index()] = u32::MAX;
            references[signal.node().index()] += 1;
        }

        // Split lifetimes at the mean span of the reachable majority nodes
        // with a bounded lifetime; a graph with no such node keeps the
        // threshold at 0 (everything with a bounded span is Short).
        let mut total = 0u64;
        let mut counted = 0u64;
        for id in mig.node_ids() {
            let i = id.index();
            if !mig.node(id).is_majority() || postorder[i] == u32::MAX || last_use[i] == u32::MAX {
                continue;
            }
            total += last_use[i].saturating_sub(postorder[i]) as u64;
            counted += 1;
        }
        let span_threshold = total.checked_div(counted).unwrap_or(0) as u32;

        Lifetimes {
            postorder,
            order,
            last_use,
            references,
            span_threshold,
        }
    }

    /// The node's position in the reference (Sethi–Ullman post-order)
    /// schedule; `u32::MAX` for nodes unreachable from every output.
    pub fn postorder(&self, id: NodeId) -> u32 {
        self.postorder[id.index()]
    }

    /// Every node reachable from an output, in post-order: `order()[p]` is
    /// the node at position `p`.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The reference-schedule position of the node's last consumer;
    /// `u32::MAX` when a primary output keeps the node alive forever.
    pub fn last_use(&self, id: NodeId) -> u32 {
        self.last_use[id.index()]
    }

    /// Every node's reference count: the child edges of reachable majority
    /// nodes and the primary outputs that read it (a node read twice by
    /// one parent counts twice). Unlike [`Mig::fanout_counts`], dangling
    /// parents do not count.
    pub fn references(&self) -> &[u32] {
        &self.references
    }

    /// How long the node's value stays live under the reference schedule
    /// (`u32::MAX` for output-pinned nodes).
    pub fn span(&self, id: NodeId) -> u32 {
        let last = self.last_use[id.index()];
        if last == u32::MAX {
            u32::MAX
        } else {
            last.saturating_sub(self.postorder[id.index()])
        }
    }

    /// The span value separating [`LifetimeClass::Short`] from
    /// [`LifetimeClass::Long`] (the mean bounded span).
    pub fn span_threshold(&self) -> u32 {
        self.span_threshold
    }

    /// The coarse lifetime class of the node's value.
    pub fn class(&self, id: NodeId) -> LifetimeClass {
        if self.span(id) > self.span_threshold {
            LifetimeClass::Long
        } else {
            LifetimeClass::Short
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::Mig;

    fn chain() -> (Mig, Vec<mig::Signal>) {
        // x0 ── n1 ── n2 ── n3 ── f, with x0 also feeding n3 (long-lived).
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 4);
        let n1 = mig.and(xs[0], xs[1]);
        let n2 = mig.and(n1, xs[2]);
        let n3 = mig.maj(n2, xs[3], xs[0]);
        mig.add_output("f", n3);
        (mig, vec![n1, n2, n3])
    }

    #[test]
    fn postorder_is_a_permutation_of_the_cone() {
        let (mig, _) = chain();
        let lt = Lifetimes::compute(&mig);
        let mut seen: Vec<u32> = mig
            .node_ids()
            .map(|id| lt.postorder(id))
            .filter(|&p| p != u32::MAX)
            .collect();
        seen.sort_unstable();
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(*p, i as u32, "positions must be dense");
        }
        assert_eq!(lt.order().len(), seen.len());
        for (p, &id) in lt.order().iter().enumerate() {
            assert_eq!(lt.postorder(id), p as u32, "order inverts postorder");
        }
    }

    #[test]
    fn children_precede_parents() {
        let (mig, nodes) = chain();
        let lt = Lifetimes::compute(&mig);
        for s in &nodes {
            let children = mig.node(s.node()).children().unwrap();
            for c in children {
                assert!(lt.postorder(c.node()) < lt.postorder(s.node()));
            }
        }
    }

    #[test]
    fn last_use_points_at_the_latest_consumer() {
        let (mig, nodes) = chain();
        let lt = Lifetimes::compute(&mig);
        let [n1, n2, n3] = [nodes[0].node(), nodes[1].node(), nodes[2].node()];
        assert_eq!(lt.last_use(n1), lt.postorder(n2));
        assert_eq!(lt.last_use(n2), lt.postorder(n3));
        // The output pins n3 forever.
        assert_eq!(lt.last_use(n3), u32::MAX);
        assert_eq!(lt.span(n3), u32::MAX);
        assert_eq!(lt.class(n3), LifetimeClass::Long);
    }

    #[test]
    fn spans_are_consistent_with_positions() {
        let (mig, nodes) = chain();
        let lt = Lifetimes::compute(&mig);
        for s in &nodes[..2] {
            let id = s.node();
            assert_eq!(lt.span(id), lt.last_use(id) - lt.postorder(id));
        }
    }

    #[test]
    fn unreachable_nodes_have_no_position() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        let dead = mig.or(a, b);
        mig.add_output("f", f);
        let lt = Lifetimes::compute(&mig);
        assert_eq!(lt.postorder(dead.node()), u32::MAX);
        assert_ne!(lt.postorder(f.node()), u32::MAX);
    }
}
