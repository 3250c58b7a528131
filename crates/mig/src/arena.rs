//! In-place MIG rewriting on a reusable arena.
//!
//! The rebuild-based passes of [`crate::rewrite`] reconstruct the entire
//! graph twice per pass (a remap rebuild followed by a [`Mig::cleaned`]
//! copy), so one `effort = 4` run of Algorithm 1 performs up to ~40
//! whole-graph copies, each allocating a fresh structural-hash table. The
//! [`RewriteArena`] eliminates those copies: the graph is imported **once**,
//! every pass mutates it in place, and a **single** compaction at the end of
//! the run produces the canonical result [`Mig`].
//!
//! The arena supports the four ingredients in-place rewriting needs:
//!
//! * **Incremental re-strashing** — the internal `set_children` step rewrites
//!   one node's child triple, re-sorts it, re-applies the Ω.M creation-time
//!   simplification, and moves the node's structural-hash entry, merging the
//!   node into a structural duplicate when one exists.
//! * **Forwarding** — a replaced node leaves a complement-carrying forward
//!   pointer behind (path-compressed on access), so parents and outputs
//!   resolve to the replacement lazily instead of being rebuilt eagerly.
//! * **Generation-marked dead nodes** — every pass bumps a generation
//!   counter; nodes that die (replaced, merged, or unreferenced) are stamped
//!   with the generation they died in and reclaimed reference-count-style,
//!   releasing their whole dangling cone immediately.
//! * **Iterator-safe traversal** — passes walk a topological order of the
//!   live cone that is snapshotted per pass (and the order buffer is
//!   reused), so nodes appended mid-pass never invalidate the walk.
//!   [`RewriteArena::live_majority_ids`] enumerates the live majority slots
//!   by index for inspection; it is not that order.
//! * **A change counter** — one counter goes up on every structural
//!   change: a node created by `maj`, a child triple rewritten by
//!   `set_children`, a `replace`, a node killed by `collect`, and `load`.
//!   Every reference-count change happens inside one of these. A sweep is
//!   a deterministic function of the resolved graph (path compression in
//!   `resolve` does not change what it resolves to), so work done at an
//!   unchanged counter value can be reused exactly:
//!   * the topological order is recomputed only when the counter moved
//!     since it was last computed (sweeps and [`RewriteArena::compact`]);
//!   * each pass kind remembers the counter value at a sweep of it that
//!     changed nothing, and a later sweep of that kind at the same value
//!     bumps the generation and returns 0 without walking the graph (a
//!     sweep counts only rewrites that change the graph, so one that
//!     changed nothing counted none).
//!
//!   On a graph that converges in the first cycle of Algorithm 1, the later
//!   cycles therefore cost almost nothing. [`RewriteArena::profile`] counts
//!   the sweeps run and skipped and the orders computed and reused.
//!
//! Only structure that is new gets hashed. [`Mig::maj`] hash-conses each
//! node as a graph is parsed or built, and the arena keeps that work: when
//! the import is the identity (inputs are nodes `1..=k`, every majority
//! node is reachable, and the graph's table is built — the shape of every
//! parsed suite circuit), [`RewriteArena::load`] adopts the graph's node
//! table and copies its hash table. Any other input is imported node by
//! node through the arena's hashing `maj`. [`RewriteArena::compact`]
//! copies the live cone without hashing, and the result builds its table
//! on first use. A compile through the arena therefore hash-conses each
//! input node once, plus the nodes the passes create or re-strash.
//!
//! The arena itself is reusable: [`RewriteArena::rewrite_with_stats`] clears
//! and refills the node table, hash map, and scratch buffers in place, so a
//! driver compiling many circuits (the batch pipeline, the Table 1 harness)
//! pays for the allocations once per worker thread instead of ~40 times per
//! `rewrite` call.
//!
//! # Examples
//!
//! ```
//! use mig::{Mig, arena::RewriteArena, equiv::check_equivalence};
//!
//! let mut mig = Mig::new();
//! let a = mig.add_input("a");
//! let b = mig.add_input("b");
//! let f = mig.maj(!a, !b, mig.constant(true));
//! mig.add_output("f", f);
//!
//! let mut arena = RewriteArena::new();
//! let (rewritten, stats) = arena.rewrite_with_stats(&mig, 4);
//! assert!(check_equivalence(&mig, &rewritten, 16, 0).unwrap().holds());
//! assert!(stats.nodes_after <= stats.nodes_before);
//! // The arena never grew beyond the live graph by more than the few
//! // transient nodes the passes appended.
//! assert!(arena.peak_arena_len() >= rewritten.len());
//! ```

use crate::algebra::{find_shared_pair, invert_triple, trivial_triple};
use crate::graph::{canonical_table, push_canonical, Mig};
use crate::hash::Strash;
use crate::node::MigNode;
use crate::rewrite::RewriteStats;
use crate::signal::{NodeId, Signal};

/// Sentinel in the `dead_at` table: the node is alive.
const LIVE: u32 = u32::MAX;

/// Sweeps of one Ω pass kind in a rewrite run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCount {
    /// Sweeps that walked the topological order.
    pub run: usize,
    /// Sweeps answered without a walk: a sweep of the same kind had already
    /// run on the unchanged graph and changed nothing.
    pub skipped: usize,
}

/// Deterministic work counters of the most recent rewrite run (everything
/// since the last [`RewriteArena::load`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteProfile {
    /// Ω.M/Ω.D distributivity sweeps.
    pub distributivity: SweepCount,
    /// Ω.A associativity sweeps.
    pub associativity: SweepCount,
    /// Ω.I inverter-redistribution sweeps.
    pub inverter: SweepCount,
    /// Topological orders computed by a depth-first walk of the live cone.
    pub orders_computed: usize,
    /// Topological orders reused because the graph had not changed since
    /// the order was computed.
    pub orders_reused: usize,
    /// Nodes the sweeps that ran visited (the sum of their order lengths).
    pub nodes_visited: usize,
    /// Largest node-arena length observed during the run (live + dead
    /// slots). The rebuild engine's equivalent is the sum of every
    /// intermediate graph it allocates.
    pub peak_arena_nodes: usize,
}

impl RewriteProfile {
    /// Sweeps of every pass kind together.
    pub fn sweeps(&self) -> SweepCount {
        let all = [self.distributivity, self.associativity, self.inverter];
        SweepCount {
            run: all.iter().map(|c| c.run).sum(),
            skipped: all.iter().map(|c| c.skipped).sum(),
        }
    }

    fn sweep_count(&mut self, pass: Pass) -> &mut SweepCount {
        match pass {
            Pass::Distributivity => &mut self.distributivity,
            Pass::Associativity => &mut self.associativity,
            Pass::Inverter => &mut self.inverter,
        }
    }
}

/// The three Ω pass kinds a sweep can run.
#[derive(Debug, Clone, Copy)]
enum Pass {
    Distributivity,
    Associativity,
    Inverter,
}

/// A mutable rewriting workspace for one MIG.
///
/// See the [module documentation](self) for the design. The typical entry
/// points are [`RewriteArena::rewrite`] / [`RewriteArena::rewrite_with_stats`],
/// which run the full Algorithm 1 schedule; the individual passes are
/// exposed for testing and profiling.
#[derive(Debug, Clone)]
pub struct RewriteArena {
    nodes: Vec<MigNode>,
    /// `forward[i]` is the signal node `i` now stands for; `Signal(i, +)`
    /// when the node is not forwarded. Path-compressed on resolution.
    forward: Vec<Signal>,
    /// Live references (parent child-edges and primary outputs) that
    /// currently resolve to each node.
    refcount: Vec<u32>,
    /// Generation in which the node died, or [`LIVE`].
    dead_at: Vec<u32>,
    /// DFS visitation epoch per node (avoids clearing a visited set).
    mark: Vec<u32>,
    strash: Strash,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<(String, Signal)>,
    /// Bumped once per pass; stamps dead nodes.
    generation: u32,
    /// Bumped on every structural change (see the module documentation).
    changes: u64,
    /// The `changes` value `order` was computed at.
    order_at: Option<u64>,
    /// Per [`Pass`], the `changes` value at its last sweep that changed
    /// nothing.
    unchanged: [Option<u64>; 3],
    /// Test-only reference mode: recompute every order, run every sweep.
    #[cfg(test)]
    reference: bool,
    epoch: u32,
    live_majority: usize,
    peak_len: usize,
    profile: RewriteProfile,
    // Reusable scratch buffers.
    order: Vec<NodeId>,
    stack: Vec<(NodeId, u8)>,
    collect_stack: Vec<NodeId>,
    scratch_map: Vec<Signal>,
}

impl Default for RewriteArena {
    fn default() -> Self {
        RewriteArena::new()
    }
}

impl RewriteArena {
    /// Creates an empty arena. All buffers are allocated lazily on first
    /// [`load`](RewriteArena::load) and reused across runs.
    pub fn new() -> Self {
        RewriteArena {
            nodes: Vec::new(),
            forward: Vec::new(),
            refcount: Vec::new(),
            dead_at: Vec::new(),
            mark: Vec::new(),
            strash: Strash::default(),
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            generation: 0,
            changes: 0,
            order_at: None,
            unchanged: [None; 3],
            #[cfg(test)]
            reference: false,
            epoch: 0,
            live_majority: 0,
            peak_len: 0,
            profile: RewriteProfile::default(),
            order: Vec::new(),
            stack: Vec::new(),
            collect_stack: Vec::new(),
            scratch_map: Vec::new(),
        }
    }

    /// Runs `effort` cycles of the paper's Algorithm 1 **in place** and
    /// returns the compacted result. Equivalent in function to
    /// [`crate::rewrite::rewrite_rebuild`], without the per-pass graph
    /// reconstructions.
    pub fn rewrite(&mut self, mig: &Mig, effort: usize) -> Mig {
        self.rewrite_with_stats(mig, effort).0
    }

    /// Like [`RewriteArena::rewrite`], also returning pass statistics.
    pub fn rewrite_with_stats(&mut self, mig: &Mig, effort: usize) -> (Mig, RewriteStats) {
        self.load(mig);

        let mut stats = RewriteStats {
            nodes_before: mig.num_majority_nodes(),
            ..RewriteStats::default()
        };
        for _ in 0..effort {
            let size_at_cycle_start = self.live_majority;

            // Ω.M ; Ω.D(R→L)
            let dist_a = self.pass_distributivity();
            // Ω.A ; Ω.C  (commutativity is implicit in canonical sorting)
            let assoc = self.pass_associativity();
            // Ω.M ; Ω.D(R→L)
            let dist_b = self.pass_distributivity();
            // Ω.I(R→L)(1–3) followed by a final Ω.I(R→L) sweep.
            let flips = self.pass_inverter() + self.pass_inverter();

            stats.distributivity_applied += dist_a + dist_b;
            stats.associativity_applied += assoc;
            stats.inverter_flips += flips;
            stats.cycles += 1;
            stats.size_per_cycle.push(self.live_majority);
            let unchanged = self.live_majority == size_at_cycle_start
                && dist_a + dist_b == 0
                && assoc == 0
                && flips == 0;
            if unchanged {
                break;
            }
        }

        let result = self.compact();
        self.profile.peak_arena_nodes = self.peak_len;
        stats.nodes_after = result.num_majority_nodes();
        (result, stats)
    }

    /// The work counters of the most recent rewrite run.
    pub fn profile(&self) -> &RewriteProfile {
        &self.profile
    }

    /// Number of live majority nodes currently in the arena.
    pub fn live_majority_count(&self) -> usize {
        self.live_majority
    }

    /// Current arena length (live and dead slots).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the arena holds no graph.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Largest arena length reached during the most recent run.
    pub fn peak_arena_len(&self) -> usize {
        self.peak_len
    }

    /// The pass generation counter (bumped once per pass; dead nodes are
    /// stamped with the generation they died in).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Whether the node is alive (not replaced, merged, or reclaimed).
    pub fn is_live(&self, id: NodeId) -> bool {
        self.dead_at[id.index()] == LIVE
    }

    /// The generation in which `id` died, or `None` while it is alive.
    pub fn died_in_generation(&self, id: NodeId) -> Option<u32> {
        let gen = self.dead_at[id.index()];
        (gen != LIVE).then_some(gen)
    }

    /// Iterates over the live majority nodes in arena order.
    ///
    /// The iterator borrows the arena, so the traversal cannot be
    /// invalidated by concurrent mutation; passes use a per-pass snapshot of
    /// the topological order internally for the same reason.
    pub fn live_majority_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len())
            .map(NodeId::from_index)
            .filter(|id| self.dead_at[id.index()] == LIVE && self.nodes[id.index()].is_majority())
    }

    // -----------------------------------------------------------------
    // Import / compaction
    // -----------------------------------------------------------------

    /// Clears the arena (keeping its allocations) and imports the cone of
    /// `mig` reachable from the primary outputs.
    ///
    /// When the import is the identity — the inputs are nodes `1..=k`,
    /// every majority node is reachable, and `mig` has built its
    /// structural-hash table — the arena adopts `mig`'s node table and a
    /// copy of its hash table. Any other input is imported through the
    /// arena's own hashing `maj`, as the test reference arena
    /// does with every input.
    pub fn load(&mut self, mig: &Mig) {
        self.nodes.clear();
        self.forward.clear();
        self.refcount.clear();
        self.dead_at.clear();
        self.mark.clear();
        self.inputs.clear();
        self.input_names.clear();
        self.outputs.clear();
        self.generation = 0;
        self.changes += 1;
        self.epoch = 0;
        self.live_majority = 0;
        self.profile = RewriteProfile::default();

        if !(self.shortcuts() && self.adopt(mig)) {
            self.import(mig);
        }
        self.peak_len = self.nodes.len();
    }

    /// Adopts `mig`'s node and hash tables when the import is the identity
    /// (see [`load`](Self::load)); otherwise leaves the arena empty and
    /// returns `false`.
    fn adopt(&mut self, mig: &Mig) -> bool {
        let Some(strash) = mig.built_strash() else {
            return false;
        };
        let first_majority = 1 + mig.num_inputs();
        let dense = mig
            .inputs()
            .iter()
            .enumerate()
            .all(|(k, id)| id.index() == 1 + k);
        if !dense {
            return false;
        }
        // A node's references are its fanout. In a topological table every
        // majority node is reachable exactly when each has a reference:
        // the last unreachable one would have none.
        let nodes = mig.node_table();
        self.refcount.resize(nodes.len(), 0);
        for node in nodes {
            if let MigNode::Majority(children) = node {
                for child in children {
                    self.refcount[child.node().index()] += 1;
                }
            }
        }
        for (_, signal) in mig.outputs() {
            self.refcount[signal.node().index()] += 1;
        }
        if self.refcount[first_majority..].contains(&0) {
            self.refcount.clear();
            return false;
        }

        self.nodes.extend_from_slice(nodes);
        self.forward
            .extend((0..nodes.len()).map(|index| Signal::new(NodeId::from_index(index), false)));
        self.dead_at.resize(nodes.len(), LIVE);
        self.mark.resize(nodes.len(), 0);
        self.strash.clone_from(strash);
        self.inputs.extend_from_slice(mig.inputs());
        self.input_names
            .extend((0..mig.num_inputs()).map(|k| mig.input_name(k).to_string()));
        self.outputs.extend_from_slice(mig.outputs());
        self.live_majority = nodes.len() - first_majority;
        true
    }

    /// Imports the reachable cone of `mig` node by node through the
    /// hashing `maj`.
    fn import(&mut self, mig: &Mig) {
        self.strash.clear();
        self.push_node(MigNode::Constant);
        for k in 0..mig.num_inputs() {
            let id = self.push_node(MigNode::Input(k as u32));
            self.inputs.push(id);
            self.input_names.push(mig.input_name(k).to_string());
        }

        let reachable = mig.reachable_mask();
        self.scratch_map.clear();
        self.scratch_map.resize(mig.len(), Signal::FALSE);
        for (k, &old_id) in mig.inputs().iter().enumerate() {
            self.scratch_map[old_id.index()] = Signal::new(self.inputs[k], false);
        }
        for old_id in mig.node_ids() {
            if !reachable[old_id.index()] {
                continue;
            }
            if let MigNode::Majority(children) = mig.node(old_id) {
                let mapped = children
                    .map(|c| self.scratch_map[c.node().index()].complement_if(c.is_complemented()));
                let signal = self.maj(mapped[0], mapped[1], mapped[2]);
                self.scratch_map[old_id.index()] = signal;
            }
        }
        for (name, signal) in mig.outputs() {
            let mapped =
                self.scratch_map[signal.node().index()].complement_if(signal.is_complemented());
            self.refcount[mapped.node().index()] += 1;
            self.outputs.push((name.clone(), mapped));
        }

        // Ω.M merges during the import can orphan already-imported nodes
        // (their only would-be parent simplified away); reclaim them so the
        // fanout counts the passes rely on match the live cone exactly.
        self.collect_unreferenced();
    }

    /// The single end-of-rewrite compaction: copies the live cone into a
    /// fresh canonical [`Mig`] (children before parents, dead slots and
    /// forward pointers dropped). All primary inputs are preserved.
    ///
    /// Nothing is hashed. The live nodes' resolved triples are canonical:
    /// a sweep normalizes every node it reaches and merges it into any
    /// structural twin. Numbering them afresh maps distinct nodes to
    /// distinct ones, so sorting each mapped triple keeps the copy
    /// canonical. The result builds its hash table on first use.
    pub fn compact(&mut self) -> Mig {
        let mut nodes = canonical_table(self.inputs.len(), self.live_majority);
        self.scratch_map.clear();
        self.scratch_map.resize(self.nodes.len(), Signal::FALSE);
        for (k, id) in self.inputs.iter().enumerate() {
            self.scratch_map[id.index()] = Signal::new(NodeId::from_index(1 + k), false);
        }

        self.compute_topo_order();
        let order = std::mem::take(&mut self.order);
        for &id in &order {
            let MigNode::Majority(children) = self.nodes[id.index()] else {
                continue;
            };
            let mut mapped = [Signal::FALSE; 3];
            for (k, child) in children.iter().enumerate() {
                let resolved = self.resolve(*child);
                mapped[k] = self.scratch_map[resolved.node().index()]
                    .complement_if(resolved.is_complemented());
            }
            self.scratch_map[id.index()] = push_canonical(&mut nodes, mapped);
        }
        self.order = order;

        let mut outputs = Vec::with_capacity(self.outputs.len());
        for k in 0..self.outputs.len() {
            let resolved = self.resolve(self.outputs[k].1);
            let mapped =
                self.scratch_map[resolved.node().index()].complement_if(resolved.is_complemented());
            outputs.push((self.outputs[k].0.clone(), mapped));
        }
        Mig::from_canonical(nodes, self.input_names.clone(), outputs)
    }

    // -----------------------------------------------------------------
    // Core mutation primitives
    // -----------------------------------------------------------------

    fn push_node(&mut self, node: MigNode) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        self.forward.push(Signal::new(id, false));
        self.refcount.push(0);
        self.dead_at.push(LIVE);
        self.mark.push(0);
        self.peak_len = self.peak_len.max(self.nodes.len());
        id
    }

    /// Resolves a signal through the forwarding chain (path-compressing),
    /// returning the live signal it currently stands for.
    fn resolve(&mut self, signal: Signal) -> Signal {
        let idx = signal.node().index();
        let fwd = self.forward[idx];
        if fwd.node() == signal.node() {
            return signal;
        }
        let root = self.resolve(fwd);
        self.forward[idx] = root;
        root.complement_if(signal.is_complemented())
    }

    /// Creates (or reuses) the majority node `⟨a b c⟩` in the arena:
    /// resolves the operands, applies Ω.M, and structurally hashes the
    /// sorted triple. A freshly created node starts with zero references;
    /// the caller's edge to it is accounted by [`set_children`] /
    /// [`replace`] / the output table.
    fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        let mut triple = [self.resolve(a), self.resolve(b), self.resolve(c)];
        triple.sort_unstable();
        let [x, y, z] = triple;
        if x == y || y == z {
            return y;
        }
        if x.node() == y.node() {
            return z;
        }
        if y.node() == z.node() {
            return x;
        }
        if let Some(id) = self.strash.get(triple) {
            return Signal::new(id, false);
        }
        let id = self.push_node(MigNode::Majority(triple));
        self.changes += 1;
        self.strash.insert(triple, id);
        for child in triple {
            self.refcount[child.node().index()] += 1;
        }
        self.live_majority += 1;
        Signal::new(id, false)
    }

    /// Looks up an existing live node `⟨a b c⟩` without creating one.
    fn find_maj(&mut self, a: Signal, b: Signal, c: Signal) -> Option<Signal> {
        let mut triple = [self.resolve(a), self.resolve(b), self.resolve(c)];
        triple.sort_unstable();
        if triple[0].node() == triple[1].node() || triple[1].node() == triple[2].node() {
            return None;
        }
        self.strash.get(triple).map(|id| Signal::new(id, false))
    }

    /// Rewrites the child triple of live node `n` in place, incrementally
    /// re-strashing it: the triple is resolved, re-sorted, Ω.M-simplified,
    /// and its structural-hash entry moved. If the new triple simplifies or
    /// collides with an existing node, `n` is replaced (forwarded) instead
    /// and the replacement signal is returned.
    fn set_children(&mut self, n: NodeId, triple: [Signal; 3]) -> Option<Signal> {
        let mut resolved = triple.map(|s| self.resolve(s));
        resolved.sort_unstable();
        let idx = n.index();
        let MigNode::Majority(old) = self.nodes[idx] else {
            unreachable!("set_children on a non-majority node");
        };
        if resolved == old {
            return None;
        }

        let [x, y, z] = resolved;
        let simplified = if x == y || y == z {
            Some(y)
        } else if x.node() == y.node() {
            Some(z)
        } else if y.node() == z.node() {
            Some(x)
        } else {
            None
        };
        if let Some(signal) = simplified {
            self.replace(n, signal);
            return Some(signal);
        }
        if let Some(existing) = self.strash.get(resolved) {
            debug_assert_ne!(existing, n, "node registered under a stale key");
            let signal = Signal::new(existing, false);
            self.replace(n, signal);
            return Some(signal);
        }

        self.changes += 1;
        // Add the new edges before dropping the old ones so a child shared
        // between the two triples never transits through refcount zero.
        for child in resolved {
            self.refcount[child.node().index()] += 1;
        }
        self.strash.remove(old);
        self.nodes[idx] = MigNode::Majority(resolved);
        self.strash.insert(resolved, n);
        for child in old {
            self.release_edge(child);
        }
        None
    }

    /// Replaces live node `n` by `target`: transfers all references,
    /// installs the forward pointer, stamps the death generation, and
    /// releases `n`'s own child edges (reclaiming any cone that dies).
    fn replace(&mut self, n: NodeId, target: Signal) {
        let target = self.resolve(target);
        debug_assert_ne!(target.node(), n, "self-replacement");
        let idx = n.index();
        debug_assert_eq!(self.dead_at[idx], LIVE, "replacing a dead node");
        let MigNode::Majority(children) = self.nodes[idx] else {
            unreachable!("only majority nodes are replaced");
        };
        self.changes += 1;
        let refs = self.refcount[idx];
        self.refcount[idx] = 0;
        self.refcount[target.node().index()] += refs;
        self.dead_at[idx] = self.generation;
        self.live_majority -= 1;
        self.strash.remove(children);
        self.forward[idx] = target;
        for child in children {
            self.release_edge(child);
        }
    }

    /// Drops one reference to (the resolution of) `child`, reclaiming its
    /// cone if the count reaches zero.
    fn release_edge(&mut self, child: Signal) {
        let resolved = self.resolve(child);
        let idx = resolved.node().index();
        debug_assert!(self.refcount[idx] > 0, "refcount underflow");
        self.refcount[idx] -= 1;
        if self.refcount[idx] == 0 && self.nodes[idx].is_majority() && self.dead_at[idx] == LIVE {
            self.collect(resolved.node());
        }
    }

    /// Reclaims an unreferenced majority node and, transitively, every node
    /// of its cone whose reference count drops to zero.
    fn collect(&mut self, n: NodeId) {
        let mut work = std::mem::take(&mut self.collect_stack);
        work.push(n);
        while let Some(id) = work.pop() {
            let idx = id.index();
            if self.dead_at[idx] != LIVE || self.refcount[idx] != 0 {
                continue;
            }
            let MigNode::Majority(children) = self.nodes[idx] else {
                continue;
            };
            self.changes += 1;
            self.dead_at[idx] = self.generation;
            self.live_majority -= 1;
            self.strash.remove(children);
            for child in children {
                let resolved = self.resolve(child);
                let child_idx = resolved.node().index();
                self.refcount[child_idx] -= 1;
                if self.refcount[child_idx] == 0
                    && self.nodes[child_idx].is_majority()
                    && self.dead_at[child_idx] == LIVE
                {
                    work.push(resolved.node());
                }
            }
        }
        self.collect_stack = work;
    }

    fn collect_unreferenced(&mut self) {
        for idx in 0..self.nodes.len() {
            if self.dead_at[idx] == LIVE && self.refcount[idx] == 0 && self.nodes[idx].is_majority()
            {
                self.collect(NodeId::from_index(idx));
            }
        }
    }

    /// Resolves the stored children of live node `n` and re-strashes it if
    /// anything changed. Returns `false` when the node is dead or got merged
    /// away by the normalization.
    fn normalize(&mut self, n: NodeId) -> bool {
        let idx = n.index();
        if self.dead_at[idx] != LIVE {
            return false;
        }
        let MigNode::Majority(children) = self.nodes[idx] else {
            return false;
        };
        let resolved = children.map(|s| self.resolve(s));
        if resolved == children {
            return true;
        }
        self.set_children(n, resolved).is_none()
    }

    // -----------------------------------------------------------------
    // Traversal
    // -----------------------------------------------------------------

    /// Fills `self.order` with a topological order (children first) of the
    /// live majority cone reachable from the outputs, resolving output
    /// signals on the way. Keeps the order already there when the graph has
    /// not changed since it was computed: the walk would find the same one.
    fn compute_topo_order(&mut self) {
        if self.shortcuts() && self.order_at == Some(self.changes) {
            self.profile.orders_reused += 1;
            return;
        }
        self.profile.orders_computed += 1;
        self.order_at = Some(self.changes);
        self.epoch += 1;
        self.order.clear();
        for k in 0..self.outputs.len() {
            let signal = self.outputs[k].1;
            let resolved = self.resolve(signal);
            self.outputs[k].1 = resolved;
            self.visit(resolved.node());
        }
    }

    fn visit(&mut self, root: NodeId) {
        if !self.nodes[root.index()].is_majority() || self.mark[root.index()] == self.epoch {
            return;
        }
        self.mark[root.index()] = self.epoch;
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (id, next) = *top;
            if next == 3 {
                stack.pop();
                self.order.push(id);
                continue;
            }
            top.1 = next + 1;
            let MigNode::Majority(children) = self.nodes[id.index()] else {
                unreachable!("only majority nodes are stacked");
            };
            let child = self.resolve(children[next as usize]).node();
            if self.nodes[child.index()].is_majority() && self.mark[child.index()] != self.epoch {
                self.mark[child.index()] = self.epoch;
                stack.push((child, 0));
            }
        }
        self.stack = stack;
    }

    // -----------------------------------------------------------------
    // Rewriting passes (in-place twins of the rebuild passes)
    // -----------------------------------------------------------------

    /// Whether to reuse work done on an unchanged graph: always, outside
    /// the tests' reference arena.
    #[cfg(not(test))]
    fn shortcuts(&self) -> bool {
        true
    }

    /// `false` in the reference arena, which recomputes every order and
    /// runs every sweep.
    #[cfg(test)]
    fn shortcuts(&self) -> bool {
        !self.reference
    }

    /// One sweep of `pass`: bumps the generation, then applies `step` to
    /// every node of the topological order that is still live after
    /// normalization, passing its children. `step` returns whether it
    /// applied a rewrite; the sweep returns how many it applied.
    ///
    /// A rewrite counts only when it changes the graph, so a sweep that
    /// changes nothing returns 0. It records the change counter, and a
    /// later sweep of the same kind at that counter value returns 0 without
    /// a walk: it would visit the same nodes in the same state and find the
    /// same (no) matches.
    fn sweep(
        &mut self,
        pass: Pass,
        mut step: impl FnMut(&mut Self, NodeId, [Signal; 3]) -> bool,
    ) -> usize {
        self.generation += 1;
        if self.shortcuts() && self.unchanged[pass as usize] == Some(self.changes) {
            self.profile.sweep_count(pass).skipped += 1;
            return 0;
        }
        self.profile.sweep_count(pass).run += 1;
        let changes_before = self.changes;
        self.compute_topo_order();
        let order = std::mem::take(&mut self.order);
        self.profile.nodes_visited += order.len();
        let mut applied = 0;
        for &n in &order {
            if !self.normalize(n) {
                continue;
            }
            let MigNode::Majority(children) = self.nodes[n.index()] else {
                continue;
            };
            applied += usize::from(step(self, n, children));
        }
        self.order = order;
        if self.changes == changes_before {
            debug_assert_eq!(
                applied, 0,
                "{pass:?} counted a rewrite that changed nothing"
            );
            self.unchanged[pass as usize] = Some(changes_before);
        }
        applied
    }

    /// In-place right-to-left distributivity pass:
    /// `⟨⟨x y u⟩ ⟨x y v⟩ z⟩ → ⟨x y ⟨u v z⟩⟩` wherever two single-fanout
    /// majority children share two signals. Returns the number of
    /// applications.
    pub fn pass_distributivity(&mut self) -> usize {
        self.sweep(Pass::Distributivity, |arena, n, children| {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    let (ci, cj, z) = (children[i], children[j], children[3 - i - j]);
                    if let Some(shared) = arena.match_distributivity(ci, cj) {
                        let inner = arena.maj(shared.0, shared.1, z);
                        arena.set_children(n, [shared.2[0], shared.2[1], inner]);
                        return true;
                    }
                }
            }
            false
        })
    }

    /// Checks the distributivity pattern on two children, returning
    /// `(rest_a, rest_b, common)` when it matches.
    fn match_distributivity(
        &mut self,
        ci: Signal,
        cj: Signal,
    ) -> Option<(Signal, Signal, [Signal; 2])> {
        let ti = self.effective_triple(ci)?;
        let tj = self.effective_triple(cj)?;
        if self.refcount[ci.node().index()] != 1 || self.refcount[cj.node().index()] != 1 {
            return None;
        }
        let shared = find_shared_pair(&ti, &tj)?;
        Some((shared.rest_a, shared.rest_b, shared.common))
    }

    /// The child triple a signal stands for, pushing a complemented edge
    /// into the children via Ω.I.
    fn effective_triple(&self, signal: Signal) -> Option<[Signal; 3]> {
        let MigNode::Majority(children) = self.nodes[signal.node().index()] else {
            return None;
        };
        Some(if signal.is_complemented() {
            invert_triple(&children)
        } else {
            children
        })
    }

    /// In-place associativity pass: `⟨x u ⟨y u z⟩⟩ → ⟨z u ⟨y u x⟩⟩` when the
    /// new inner triple already exists (sharing gain) or simplifies
    /// trivially. Returns the number of applications that changed the
    /// graph: a reshape of `⟨x u ⟨x u y⟩⟩` gives the node its own triple
    /// back, which does not count.
    pub fn pass_associativity(&mut self) -> usize {
        self.sweep(Pass::Associativity, |arena, n, children| {
            let before = arena.changes;
            let Some((outer_a, outer_b, inner)) = arena.try_associativity(&children) else {
                return false;
            };
            arena.set_children(n, [outer_a, outer_b, inner]);
            arena.changes != before
        })
    }

    /// The two indices of a triple other than `excluded`, in ascending
    /// order (matching the candidate order of the rebuild engine).
    #[inline]
    fn other_two(excluded: usize) -> [usize; 2] {
        match excluded {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        }
    }

    fn try_associativity(&mut self, children: &[Signal; 3]) -> Option<(Signal, Signal, Signal)> {
        for g_pos in 0..3 {
            let g = children[g_pos];
            // Only restructure through a plain edge to a single-fanout
            // child, so the old inner node disappears and size cannot grow.
            if g.is_complemented() || self.refcount[g.node().index()] != 1 {
                continue;
            }
            let MigNode::Majority(inner_children) = self.nodes[g.node().index()] else {
                continue;
            };
            let outer_rest = Self::other_two(g_pos).map(|k| children[k]);
            // The axiom requires a signal `u` shared (exactly, with
            // polarity) between the outer children and the inner triple.
            for u_pos in 0..2 {
                let u = outer_rest[u_pos];
                let Some(u_inner) = inner_children.iter().position(|&s| s == u) else {
                    continue;
                };
                let x = outer_rest[1 - u_pos];
                let inner_rest = Self::other_two(u_inner).map(|k| inner_children[k]);
                for r in 0..2 {
                    let swap = inner_rest[r]; // moves to the outer node
                    let other = inner_rest[1 - r]; // stays inner
                    if trivial_triple(other, u, x) || self.find_maj(other, u, x).is_some() {
                        let inner_sig = self.maj(other, u, x);
                        return Some((swap, u, inner_sig));
                    }
                }
            }
        }
        None
    }

    /// In-place inverter-propagation pass Ω.I R→L(1–3): every node with two
    /// or three complemented non-constant children is replaced by the
    /// complement of its Ω.I-flipped twin. Because the pass walks a
    /// topological order, a flip cascades through all of its transitive
    /// parents within the same sweep. Returns the number of flipped nodes.
    pub fn pass_inverter(&mut self) -> usize {
        self.sweep(Pass::Inverter, |arena, n, children| {
            let real_complemented = children
                .iter()
                .filter(|c| c.is_complemented() && !c.is_constant())
                .count();
            if real_complemented < 2 {
                return false;
            }
            let flipped = arena.maj(!children[0], !children[1], !children[2]);
            debug_assert_ne!(flipped.node(), n, "flip resolved to the node itself");
            arena.replace(n, !flipped);
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equivalence;
    use crate::hash::Strash;
    use crate::io::{parse_mig, write_mig};
    use crate::rewrite::{rewrite_rebuild, rewrite_rebuild_with_stats};
    use crate::simulate::XorShift64;
    use proptest::prelude::*;

    impl RewriteArena {
        /// The reference arena: recomputes every topological order and runs
        /// every sweep, so it shows what the shortcuts must reproduce.
        fn reference() -> Self {
            RewriteArena {
                reference: true,
                ..RewriteArena::new()
            }
        }
    }

    /// `f`'s result and the strash inserts it made.
    fn inserts_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = Strash::inserts();
        let result = f();
        (result, Strash::inserts() - before)
    }

    /// `mig` written and parsed back: inputs first, every majority node
    /// reachable, the hash table built by the parser — the shape of every
    /// parsed suite circuit.
    fn parsed(mig: &Mig) -> Mig {
        parse_mig(&write_mig(&mig.cleaned())).expect("write_mig text parses")
    }

    /// Loads `mig` into a fresh arena, checks whether the import adopted
    /// its tables (it hashes nothing then), and checks the rewrite against
    /// the reference arena, which always hashes.
    fn assert_load_matches_the_reference(mig: &Mig, adopts: bool) {
        let mut fast = RewriteArena::new();
        let ((), load_inserts) = inserts_of(|| fast.load(mig));
        assert_eq!(load_inserts == 0, adopts, "{load_inserts} inserts on load");
        let mut slow = RewriteArena::reference();
        slow.load(mig);
        assert_eq!(fast.len(), slow.len());
        assert_eq!(fast.live_majority_count(), slow.live_majority_count());
        assert_eq!(write_mig(&fast.compact()), write_mig(&slow.compact()));

        let (fast_out, fast_stats) = fast.rewrite_with_stats(mig, 4);
        let (slow_out, slow_stats) = slow.rewrite_with_stats(mig, 4);
        assert_eq!(write_mig(&fast_out), write_mig(&slow_out));
        assert_eq!(fast_stats, slow_stats);
        assert_eq!(fast.len(), slow.len());
        for idx in 0..fast.len() {
            let id = NodeId::from_index(idx);
            assert_eq!(fast.died_in_generation(id), slow.died_in_generation(id));
        }
        assert_equivalent(mig, &fast_out);
    }

    fn assert_equivalent(a: &Mig, b: &Mig) {
        assert!(
            check_equivalence(a, b, 32, 0xBEEF).unwrap().holds(),
            "in-place rewrite changed the function"
        );
    }

    fn adder(bits: usize) -> Mig {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", bits);
        let ys = mig.add_inputs("y", bits);
        let mut carry = Signal::FALSE;
        for i in 0..bits {
            let sum = mig.xor3(xs[i], ys[i], carry);
            carry = mig.maj(xs[i], ys[i], carry);
            mig.add_output(format!("s{i}"), sum);
        }
        mig.add_output("cout", carry);
        mig
    }

    #[test]
    fn load_then_compact_is_cleaned_copy() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let used = mig.and(a, b);
        let _dangling = mig.or(a, b);
        mig.add_output("f", !used);
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        assert_eq!(arena.live_majority_count(), 1);
        let out = arena.compact();
        assert_eq!(out.num_majority_nodes(), 1);
        assert_eq!(out.num_inputs(), 2);
        assert!(out.outputs()[0].1.is_complemented());
        assert_equivalent(&mig, &out);
    }

    #[test]
    fn inverter_pass_flips_in_place() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let n = mig.maj(!a, !b, c);
        mig.add_output("f", n);
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        let flips = arena.pass_inverter();
        assert_eq!(flips, 1);
        let out = arena.compact();
        assert_equivalent(&mig, &out);
        let (_, out_sig) = &out.outputs()[0];
        assert!(out_sig.is_complemented());
    }

    #[test]
    fn inverter_pass_cascades_in_one_sweep() {
        // A chain of multi-complement nodes: the topological sweep must
        // resolve every level in a single pass, like the rebuild engine.
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 8);
        let mut acc = mig.maj(!xs[0], !xs[1], xs[2]);
        for i in 2..8 {
            acc = mig.maj(!acc, !xs[i], xs[i - 1]);
        }
        mig.add_output("f", acc);
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        arena.pass_inverter();
        arena.pass_inverter();
        let out = arena.compact();
        assert_equivalent(&mig, &out);
        for id in out.majority_ids() {
            let children = out.node(id).children().unwrap();
            let real = children
                .iter()
                .filter(|s| s.is_complemented() && !s.is_constant())
                .count();
            assert!(real <= 1, "node {id} still has {real} complements");
        }
    }

    #[test]
    fn distributivity_pass_merges_shared_pairs_in_place() {
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
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        let applied = arena.pass_distributivity();
        assert_eq!(applied, 1);
        assert_eq!(arena.live_majority_count(), 2);
        let out = arena.compact();
        assert_eq!(out.num_majority_nodes(), 2);
        assert_equivalent(&mig, &out);
    }

    #[test]
    fn distributivity_respects_live_fanout() {
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
        mig.add_output("g", left); // left has fanout 2
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        assert_eq!(arena.pass_distributivity(), 0);
        assert_equivalent(&mig, &arena.compact());
    }

    #[test]
    fn associativity_pass_shares_existing_nodes() {
        let mut mig = Mig::new();
        let x = mig.add_input("x");
        let u = mig.add_input("u");
        let y = mig.add_input("y");
        let z = mig.add_input("z");
        let g = mig.maj(y, u, x);
        mig.add_output("g", g);
        let inner = mig.maj(y, u, z);
        let f = mig.maj(x, u, inner);
        mig.add_output("f", f);
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        let applied = arena.pass_associativity();
        assert_eq!(applied, 1);
        let out = arena.compact();
        assert_eq!(out.num_majority_nodes(), 2);
        assert_equivalent(&mig, &out);
    }

    #[test]
    fn full_rewrite_matches_rebuild_on_adders() {
        let mig = adder(4);
        let mut arena = RewriteArena::new();
        let (inplace, stats) = arena.rewrite_with_stats(&mig, 4);
        let (rebuild, rebuild_stats) = rewrite_rebuild_with_stats(&mig, 4);
        assert_equivalent(&mig, &inplace);
        assert_equivalent(&mig, &rebuild);
        assert!(
            inplace.num_majority_nodes() <= rebuild.num_majority_nodes(),
            "in-place ({}) must not lose to rebuild ({})",
            inplace.num_majority_nodes(),
            rebuild.num_majority_nodes()
        );
        assert_eq!(stats.nodes_before, rebuild_stats.nodes_before);
        assert_eq!(stats.nodes_after, inplace.num_majority_nodes());
        assert!(stats.cycles >= 1);
    }

    #[test]
    fn arena_is_reusable_across_circuits() {
        let mut arena = RewriteArena::new();
        let first = adder(3);
        let second = adder(5);
        let out1 = arena.rewrite(&first, 4);
        assert_equivalent(&first, &out1);
        let out2 = arena.rewrite(&second, 4);
        assert_equivalent(&second, &out2);
        // A rerun of the first circuit is deterministic.
        let out1_again = arena.rewrite(&first, 4);
        assert_eq!(
            crate::io::write_mig(&out1),
            crate::io::write_mig(&out1_again)
        );
    }

    #[test]
    fn dead_nodes_carry_their_generation() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let n = mig.maj(!a, !b, !c);
        mig.add_output("f", n);
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        let flipped_old = NodeId::from_index(4); // constant + 3 inputs, then n
        assert!(arena.is_live(flipped_old));
        assert_eq!(arena.died_in_generation(flipped_old), None);
        arena.pass_inverter();
        assert!(!arena.is_live(flipped_old));
        assert_eq!(arena.died_in_generation(flipped_old), Some(1));
        assert_eq!(arena.generation(), 1);
        assert_eq!(arena.live_majority_ids().count(), 1);
    }

    #[test]
    fn rewrite_reaches_fixpoint_without_exhausting_effort() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let mut arena = RewriteArena::new();
        let (_, stats) = arena.rewrite_with_stats(&mig, 100);
        assert!(stats.cycles < 100);
    }

    #[test]
    fn effort_zero_compacts_only() {
        let mig = adder(3);
        let mut arena = RewriteArena::new();
        let (out, stats) = arena.rewrite_with_stats(&mig, 0);
        assert_eq!(stats.cycles, 0);
        assert_eq!(out.num_majority_nodes(), mig.cleaned().num_majority_nodes());
        assert_equivalent(&mig, &out);
    }

    #[test]
    fn profile_reports_peak_arena() {
        let mig = adder(6);
        let mut arena = RewriteArena::new();
        let (out, _) = arena.rewrite_with_stats(&mig, 4);
        let profile = arena.profile();
        assert!(profile.peak_arena_nodes >= out.len());
        assert!(profile.peak_arena_nodes >= arena.len());
        // Matches rebuild on the result.
        let rebuild = rewrite_rebuild(&mig, 4);
        assert!(out.num_majority_nodes() <= rebuild.num_majority_nodes());
    }

    /// Rewriting a converged result again walks it once: the first sweep
    /// of each kind comes up empty, so the order is computed once and
    /// reused, and every later sweep of a kind that already came up empty
    /// is skipped.
    #[test]
    fn a_converged_graph_is_walked_once() {
        let mut arena = RewriteArena::new();
        let (converged, stats) = arena.rewrite_with_stats(&adder(4), 8);
        assert!(
            stats.cycles < 8,
            "the adder converges before the effort runs out"
        );

        let (again, stats) = arena.rewrite_with_stats(&converged, 8);
        assert_eq!(write_mig(&again), write_mig(&converged));
        assert_eq!(stats.cycles, 1);
        let profile = arena.profile();
        let once_then_skipped = SweepCount { run: 1, skipped: 1 };
        assert_eq!(profile.distributivity, once_then_skipped);
        assert_eq!(profile.associativity, SweepCount { run: 1, skipped: 0 });
        assert_eq!(profile.inverter, once_then_skipped);
        // Ω.D computes the order; Ω.A, Ω.I and the compaction reuse it.
        assert_eq!((profile.orders_computed, profile.orders_reused), (1, 3));
        assert_eq!(profile.nodes_visited, 3 * converged.num_majority_nodes());
        assert_eq!(
            arena.generation(),
            5,
            "a skipped sweep still bumps the generation"
        );
    }

    /// A sweep that applies a rewrite changes the graph, so the next sweep
    /// walks a fresh order. Here the flip creates no node (its twin is
    /// already there), so only the replacement itself moves the counter.
    #[test]
    fn a_rewrite_forces_a_fresh_order() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 3);
        let n = mig.maj(!xs[0], !xs[1], xs[2]);
        let twin = mig.maj(xs[0], xs[1], !xs[2]);
        mig.add_output("f", n);
        mig.add_output("g", twin);
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        let len = arena.len();
        assert_eq!(arena.pass_inverter(), 1);
        assert_eq!(arena.len(), len, "the flip reused its twin");
        assert_eq!(arena.pass_distributivity(), 0);
        let profile = arena.profile();
        assert_eq!((profile.orders_computed, profile.orders_reused), (2, 0));
    }

    /// The Ω.A reshape of `⟨x u ⟨x u y⟩⟩` gives the node its own triple
    /// back: it changes nothing, so no engine counts it, and the first
    /// cycle is already a fixpoint.
    #[test]
    fn a_reshape_to_the_nodes_own_triple_does_not_count() {
        let mut mig = Mig::new();
        let [x, u, y] = mig.add_inputs("x", 3)[..] else {
            unreachable!()
        };
        let g = mig.maj(x, u, y);
        let f = mig.maj(x, u, g);
        mig.add_output("f", f);
        let mut arena = RewriteArena::new();
        let (out, stats) = arena.rewrite_with_stats(&mig, 4);
        let (reference_out, reference_stats) =
            RewriteArena::reference().rewrite_with_stats(&mig, 4);
        let (rebuild_out, rebuild_stats) = rewrite_rebuild_with_stats(&mig, 4);
        for (out, stats) in [
            (&out, &stats),
            (&reference_out, &reference_stats),
            (&rebuild_out, &rebuild_stats),
        ] {
            assert_eq!((stats.cycles, stats.associativity_applied), (1, 0));
            assert_eq!(write_mig(out), write_mig(&mig.cleaned()));
        }
        assert_eq!(
            arena.profile().associativity,
            SweepCount { run: 1, skipped: 0 }
        );
    }

    /// A sweep whose only change is `normalize` re-strashing a node with a
    /// forwarded child also changed the graph: the next sweep of the same
    /// kind runs on a fresh order instead of being skipped, and only the
    /// sweep after that one is skipped.
    #[test]
    fn a_restrash_in_normalize_forces_a_fresh_order() {
        let mut mig = Mig::new();
        let [a, b, c, d] = mig.add_inputs("x", 4)[..] else {
            unreachable!()
        };
        let m = mig.maj(a, b, c);
        let p = mig.maj(m, d, a);
        mig.add_output("f", p);
        let mut arena = RewriteArena::new();
        arena.load(&mig);
        // Forward `m` to `b` behind the sweeps' back (the arena numbers the
        // constant and the inputs as `mig` does): `p` keeps a stale child
        // until a sweep normalizes it to `⟨a b d⟩`.
        let m = NodeId::from_index(5);
        arena.replace(m, b);
        assert_eq!(arena.pass_associativity(), 0);
        assert_eq!(arena.pass_associativity(), 0);
        assert_eq!(arena.pass_associativity(), 0);
        let profile = arena.profile();
        assert_eq!(profile.associativity, SweepCount { run: 2, skipped: 1 });
        assert_eq!((profile.orders_computed, profile.orders_reused), (2, 0));
        assert_eq!(arena.live_majority_count(), 1);
    }

    /// A parsed graph is adopted as it is; a graph with a dangling node, an
    /// input declared after a majority node, or no hash table built yet is
    /// imported node by node. Every branch matches the reference arena.
    #[test]
    fn load_adopts_only_identity_imports() {
        let dense = parsed(&adder(5));
        assert_load_matches_the_reference(&dense, true);
        assert_load_matches_the_reference(&adder(5), true);
        // A canonical copy builds its table on first use, not on load.
        assert_load_matches_the_reference(&adder(5).cleaned(), false);

        let mut dangling = adder(3);
        let [x, y] = [dangling.inputs()[0], dangling.inputs()[3]].map(|id| Signal::new(id, false));
        dangling.maj(x, !y, Signal::TRUE);
        assert_load_matches_the_reference(&dangling, false);

        let mut late_input = Mig::new();
        let [a, b, c] = late_input.add_inputs("x", 3)[..] else {
            unreachable!()
        };
        let m = late_input.maj(!a, !b, c);
        let d = late_input.add_input("late");
        let top = late_input.maj(m, d, !a);
        late_input.add_output("f", top);
        late_input.add_output("g", !m);
        assert_load_matches_the_reference(&late_input, false);
    }

    /// A compile hashes each node once, when it is parsed: loading a parsed
    /// graph, compacting, and the canonical copies hash nothing.
    #[test]
    fn load_compact_and_copies_insert_nothing() {
        let dense = parsed(&random_mig(7, 8, 300));
        let mut arena = RewriteArena::new();
        let ((), load) = inserts_of(|| arena.load(&dense));
        assert_eq!(load, 0, "load hashed an identity import");
        let (compacted, compact) = inserts_of(|| arena.compact());
        assert_eq!(compact, 0, "compact hashed");
        assert_eq!(compacted.num_majority_nodes(), dense.num_majority_nodes());

        let source = random_mig(11, 6, 200);
        let (cleaned, clean) = inserts_of(|| source.cleaned());
        let (levelized, level) = inserts_of(|| source.levelized());
        assert_eq!((clean, level), (0, 0), "a canonical copy hashed");
        assert_equivalent(&source, &cleaned);
        assert_equivalent(&source, &levelized);

        let (_, rewrite) = inserts_of(|| arena.rewrite_with_stats(&dense, 4));
        let (_, reference) = inserts_of(|| RewriteArena::reference().rewrite_with_stats(&dense, 4));
        assert!(
            rewrite + dense.num_majority_nodes() <= reference,
            "the rewrite hashed {rewrite}, the reference {reference}"
        );
    }

    /// A copied graph builds its table on first use: `find_maj` then finds
    /// every node, and `maj` of an existing triple returns that node
    /// without growing the graph.
    #[test]
    fn copied_graphs_find_every_node() {
        let source = random_mig(3, 7, 250);
        let mut arena = RewriteArena::new();
        for copy in [
            arena.rewrite(&source, 4),
            source.cleaned(),
            source.levelized(),
        ] {
            let mut grown = copy.clone();
            for (k, id) in copy.majority_ids().enumerate() {
                let [a, b, c] = *copy.node(id).children().expect("majority node");
                let node = Some(Signal::new(id, false));
                let (found, inserts) = inserts_of(|| copy.find_maj(c, a, b));
                assert_eq!(found, node);
                let expected = if k == 0 { copy.num_majority_nodes() } else { 0 };
                assert_eq!(inserts, expected, "only the first probe indexes the nodes");
                assert_eq!(Some(grown.maj(b, c, a)), node);
            }
            assert_eq!(grown.len(), copy.len());
            assert_eq!(write_mig(&grown), write_mig(&copy));
        }
    }

    /// A seeded random MIG that gives every pass work: random majority
    /// nodes over recent signals with random complements, plus planted
    /// distributivity (`⟨⟨x y u⟩ ⟨x y v⟩ z⟩`) and associativity
    /// (`⟨x u ⟨y u z⟩⟩`, sometimes with `⟨y u x⟩` already present) motifs.
    fn random_mig(seed: u64, inputs: usize, steps: usize) -> Mig {
        let mut rng = XorShift64::new(seed);
        let mut below = |n: usize| (rng.next_word() % n as u64) as usize;
        let mut mig = Mig::new();
        let mut pool = mig.add_inputs("x", inputs);
        pool.push(Signal::TRUE);
        for _ in 0..steps {
            let mut picks = [Signal::FALSE; 5];
            for pick in &mut picks {
                let k = if below(4) == 0 {
                    below(pool.len())
                } else {
                    pool.len() - 1 - below(pool.len().min(12))
                };
                *pick = pool[k].complement_if(below(2) == 0);
            }
            let [x, y, u, v, z] = picks;
            let node = match below(4) {
                0 => {
                    let left = mig.maj(x, y, u);
                    let right = mig.maj(x, y, v);
                    mig.maj(left, right, z)
                }
                1 => {
                    if below(2) == 0 {
                        pool.push(mig.maj(y, u, x));
                    }
                    let inner = mig.maj(y, u, z);
                    mig.maj(x, u, inner)
                }
                _ => mig.maj(x, y, u),
            };
            pool.push(node);
        }
        for k in 0..below(6) {
            let signal = pool[pool.len() - 1 - below(pool.len().min(24))];
            mig.add_output(format!("f{k}"), signal.complement_if(below(2) == 0));
        }
        mig.add_output("top", pool[pool.len() - 1]);
        mig
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The shortcuts are exact: on seeded random graphs, with one arena
        /// of each kind reused across two graphs, the arena that reuses
        /// orders and skips idle sweeps matches the reference that does
        /// neither in its output text, its statistics and the generation
        /// every slot died in.
        #[test]
        fn shortcuts_match_the_reference(seed in any::<u64>(), size in 1usize..150, effort in 1usize..6) {
            let steps = if cfg!(debug_assertions) { size } else { 20 * size };
            let mut fast = RewriteArena::new();
            let mut slow = RewriteArena::reference();
            for round in 0..4u64 {
                // Odd rounds load a parsed copy, which the fast arena adopts.
                let mig = random_mig(seed ^ (round / 2), 3 + (seed + round / 2) as usize % 10, steps);
                let mig = if round % 2 == 1 { parsed(&mig) } else { mig };
                if round % 2 == 1 {
                    prop_assert_eq!(inserts_of(|| fast.load(&mig)).1, 0);
                }
                let (fast_out, fast_stats) = fast.rewrite_with_stats(&mig, effort);
                let (slow_out, slow_stats) = slow.rewrite_with_stats(&mig, effort);
                prop_assert_eq!(write_mig(&fast_out), write_mig(&slow_out));
                prop_assert_eq!(fast_stats, slow_stats);
                prop_assert_eq!(fast.generation(), slow.generation());
                prop_assert_eq!(fast.len(), slow.len());
                for idx in 0..fast.len() {
                    let id = NodeId::from_index(idx);
                    prop_assert_eq!(fast.died_in_generation(id), slow.died_in_generation(id));
                }
                let (fast_sweeps, slow_sweeps) = (fast.profile().sweeps(), slow.profile().sweeps());
                prop_assert_eq!(fast_sweeps.run + fast_sweeps.skipped, slow_sweeps.run);
                prop_assert_eq!(slow_sweeps.skipped, 0);
            }
        }
    }
}
