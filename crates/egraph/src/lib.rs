//! # plim-egraph — equality saturation for the MIG → PLiM flow
//!
//! The arena rewriter (Algorithm 1) applies the MIG axioms greedily and
//! destructively: every step must pay for itself immediately, so rewrites
//! that only pay off two or three steps later are never found. This crate
//! is the non-greedy counterpart, an offline equality-saturation engine in
//! the spirit of egg (Willsey et al., POPL 2021):
//!
//! 1. the rewritten MIG is loaded into a hashconsed [`EGraph`] whose
//!    union-find tracks complement parity (Ω.I is free) and whose node
//!    canonicalization bakes in Ω.C and Ω.M;
//! 2. the remaining axioms — associativity Ω.A, distributivity Ω.D in
//!    *both* directions, one-level relevance Ω.R — are saturated under a
//!    deterministic [`EgraphBudget`] (e-node / iteration / work ceilings,
//!    no wall-clock anywhere);
//! 3. greedy bottom-up extraction (cost table memoized per e-class)
//!    proposes one candidate MIG per [`ExtractObjective`]. One
//!    [`Extractor`] indexes the saturated graph once (canonical node lists
//!    and a child → parent class index) for all objectives, which are
//!    extracted and polished in parallel; its cost sweep re-evaluates a
//!    class only when a child's cost fell;
//! 4. a compiling cost function scores the arena baseline and every
//!    distinct candidate by *actually compiling them* — lowering plus the
//!    `-O` pass pipeline ([`plim_compiler::compile_ir`]), judged by the
//!    active backend's [`plim_compiler::Cost`] — in one parallel map over
//!    the `plim-parallel` pool, and keeps the lexicographically cheapest
//!    (#I, #R, wear) artifact that is admissible (no axis worse than the
//!    arena baseline's). Only the winner is emitted, and its compilation
//!    is returned with it ([`optimize_compiled`]), so the caller never
//!    compiles the chosen graph a second time.
//!
//! Because the arena baseline is always in the candidate set (it is the
//! fallback), [`optimize_compiled`] is **never worse than the arena
//! engine** on any cost axis, by construction.
//!
//! The engine is the third [`plim_compiler::RewriteMode`]. This crate
//! compiles through `plim-compiler`, so the compiler cannot call it; the
//! `plim-service` pipeline calls [`optimize_compiled`] directly, which is
//! what `--rewrite egraph` runs in `plimc` and `plimd`.

mod extract;
mod graph;
mod rules;

pub use extract::{extract, ExtractObjective, Extractor};
pub use graph::{Canon, ClassNode, ClassSignal, EGraph, ENode};
pub use rules::{saturate, EgraphBudget, StopReason};

use mig::Mig;
use plim_compiler::ir::passes::PassReport;
use plim_compiler::ir::{self, IrProgram};
use plim_compiler::{compile_ir, Compilation, CompilerOptions};
use plim_parallel::{par_map, Parallelism};

/// Raw (pre-rewrite) graphs up to this many nodes are also absorbed into
/// the e-graph, giving saturation the original structure alongside the
/// greedily rewritten one. Larger graphs skip this: the rewritten form
/// alone keeps the budget productive.
const RAW_ABSORB_LIMIT: usize = 3_000;

/// What one [`optimize_with_stats`] run did, for bench reports and the
/// `--rewrite egraph` saturation-stats lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturationStats {
    /// E-nodes after loading the input graph(s), before any rule fired.
    pub initial_enodes: usize,
    /// E-nodes when saturation stopped.
    pub final_enodes: usize,
    /// Live e-classes when saturation stopped.
    pub classes: usize,
    /// Rule iterations run.
    pub iterations: usize,
    /// Why saturation stopped.
    pub stop: StopReason,
    /// Distinct extraction candidates scored by compilation.
    pub candidates_scored: usize,
    /// Whether a candidate beat the arena baseline's compiled cost.
    pub improved: bool,
}

impl SaturationStats {
    /// One-line human-readable summary
    /// (`enodes 120→340, classes 95, 3 iters, stop=saturated, 2 candidates, improved`).
    pub fn summary(&self) -> String {
        format!(
            "enodes {}→{}, classes {}, {} iters, stop={}, {} candidates, {}",
            self.initial_enodes,
            self.final_enodes,
            self.classes,
            self.iterations,
            self.stop.name(),
            self.candidates_scored,
            if self.improved {
                "improved"
            } else {
                "kept arena"
            }
        )
    }
}

/// A graph compiled up to, but not including, emission
/// ([`plim_compiler::compile_ir`]), which is all the compiling cost
/// function needs. Only the winner is emitted.
struct Scored {
    /// Lexicographic compiled cost under the active backend:
    /// (#I, #R/footprint, wear).
    cost: (u64, u64, u64),
    ir: IrProgram,
    report: PassReport,
}

impl Scored {
    fn new(mig: &Mig, options: CompilerOptions) -> Scored {
        let (ir, report) = compile_ir(mig, options);
        let cost = options.target.backend().cost(&ir);
        Scored {
            cost: (
                cost.instructions as u64,
                u64::from(cost.footprint),
                cost.wear,
            ),
            ir,
            report,
        }
    }
}

/// Post-extraction cleanup: polarity normalization moved complements
/// around freely, so push them back into the RM3-friendly ≤1-complement
/// form the translator's cost model expects, then drop dangling nodes.
fn polish(mig: &Mig) -> Mig {
    let (once, _) = mig::rewrite::pass_inverter_reduce(mig);
    let (twice, _) = mig::rewrite::pass_inverter_reduce(&once);
    twice.cleaned()
}

/// Saturates, extracts and scores; returns the chosen graph with its
/// scored (not yet emitted) compilation.
fn optimize_scored(
    raw: &Mig,
    baseline: &Mig,
    effort: usize,
    options: CompilerOptions,
) -> (Mig, Scored, SaturationStats) {
    let mut g = EGraph::from_mig(baseline);
    if raw.len() <= RAW_ABSORB_LIMIT {
        g.absorb_equivalent(raw);
    }
    let initial_enodes = g.num_enodes();
    let budget = EgraphBudget::for_effort(effort.max(1)).scaled_to(initial_enodes);
    let (iterations, stop) = saturate(&mut g, &budget);
    let (final_enodes, classes) = (g.num_enodes(), g.num_classes());

    // Candidate generation: one greedy extraction per objective over one
    // shared index, polished, fanned out across the worker pool. The graph
    // and the index are dropped before scoring.
    let extracted = {
        let extractor = Extractor::new(&g);
        par_map(
            &ExtractObjective::ALL,
            Parallelism::Auto,
            |_, &objective| extractor.extract(objective).map(|mig| polish(&mig)),
        )
    };
    drop(g);

    // Deduplicate in objective order (identical candidates would be scored
    // twice), comparing structures exactly as their `write_mig` text would.
    let mut candidates: Vec<Mig> = Vec::new();
    for polished in extracted.into_iter().flatten() {
        if !std::iter::once(baseline)
            .chain(&candidates)
            .any(|seen| mig::io::same_text(seen, &polished))
        {
            candidates.push(polished);
        }
    }

    // Compiling cost function: score the baseline and every candidate by
    // replaying them through the full lower → optimize pipeline, fanned out
    // across the worker pool. A candidate wins only if *no* axis regresses
    // against the baseline and the lexicographic (#I, #R, wear) triple
    // strictly improves.
    let graphs: Vec<&Mig> = std::iter::once(baseline).chain(&candidates).collect();
    let mut scored = par_map(&graphs, Parallelism::Auto, |_, mig| {
        Scored::new(mig, options)
    });
    let base_cost = scored[0].cost;
    let mut best: Option<(usize, (u64, u64, u64))> = None;
    for (index, candidate) in scored.iter().enumerate().skip(1) {
        let cost = candidate.cost;
        let admissible = cost.0 <= base_cost.0 && cost.1 <= base_cost.1 && cost.2 <= base_cost.2;
        if admissible && cost < base_cost && best.is_none_or(|(_, b)| cost < b) {
            best = Some((index, cost));
        }
    }

    let stats = SaturationStats {
        initial_enodes,
        final_enodes,
        classes,
        iterations,
        stop,
        candidates_scored: candidates.len(),
        improved: best.is_some(),
    };
    let winner = best.map_or(0, |(index, _)| index);
    let chosen = match winner {
        0 => baseline.clone(),
        index => candidates.swap_remove(index - 1),
    };
    (chosen, scored.swap_remove(winner), stats)
}

/// Equality-saturation optimization of `baseline` (the arena-rewritten
/// graph), returning the chosen MIG, its compilation under `options` and
/// the run's [`SaturationStats`].
///
/// `raw` is the pre-rewrite input graph; small raw graphs are absorbed
/// into the e-graph as an extra structural seed. `effort` scales the
/// saturation budget (see [`EgraphBudget::for_effort`]); `options` selects
/// the backend whose compiled [`plim_compiler::Cost`] judges candidates.
/// The compilation is the one the winner was scored with, so it equals
/// [`plim_compiler::compile_full`] of the chosen MIG and callers need not
/// compile it again.
///
/// Deterministic end to end: same inputs, effort, and options ⇒
/// byte-identical output graph.
pub fn optimize_compiled(
    raw: &Mig,
    baseline: &Mig,
    effort: usize,
    options: CompilerOptions,
) -> (Mig, Compilation, SaturationStats) {
    let (chosen, Scored { ir, report, .. }, stats) =
        optimize_scored(raw, baseline, effort, options);
    let compilation = Compilation {
        compiled: ir::emit(&ir),
        ir,
        report,
    };
    (chosen, compilation, stats)
}

/// [`optimize_compiled`] without the compilation: the chosen MIG and the
/// run's [`SaturationStats`].
pub fn optimize_with_stats(
    raw: &Mig,
    baseline: &Mig,
    effort: usize,
    options: CompilerOptions,
) -> (Mig, SaturationStats) {
    let (chosen, _, stats) = optimize_scored(raw, baseline, effort, options);
    (chosen, stats)
}

/// Does nothing: the `plim-service` pipeline calls
/// [`optimize_compiled`] directly. Kept only because the `perfbench/`
/// benchmark package still calls it; a change to the benchmark deletes it.
pub fn install() {}

#[cfg(test)]
mod tests {
    use super::*;
    use mig::io::{same_text, write_mig};
    use mig::{MigNode, Signal};
    use plim_benchmarks::random::{random_logic, RandomLogicSpec};
    use plim_compiler::OptLevel;
    use proptest::prelude::*;

    /// One change to a graph, applied by [`edited`].
    #[derive(Clone, Copy, Debug)]
    enum Edit {
        /// Renames input `.0`; `.1` picks the new name (fresh, another
        /// input's, or one that prints like a majority node).
        InputName(usize, u64),
        /// Renames output `.0`.
        OutputName(usize),
        /// Flips the complement bit of child `.1` of the `.0`-th majority
        /// node, or of output `.0 - #majority` past the last node.
        Complement(usize, usize),
        /// Points child `.1` of the `.0`-th majority node at the node
        /// just before it.
        Child(usize, usize),
    }

    /// A copy of `mig` rebuilt node by node with `edit` applied.
    fn edited(mig: &Mig, edit: Edit) -> Mig {
        let mut out = Mig::new();
        let mut map: Vec<Signal> = Vec::with_capacity(mig.len());
        let mut majority = 0;
        for id in mig.node_ids() {
            let signal = match *mig.node(id) {
                MigNode::Constant => Signal::FALSE,
                MigNode::Input(i) => {
                    let i = i as usize;
                    let name = match edit {
                        Edit::InputName(at, pick) if at == i => match pick % 3 {
                            0 => format!("{}_", mig.input_name(i)),
                            1 => mig.input_name((i + 1) % mig.num_inputs()).to_string(),
                            _ => format!("n{}", mig.len() - 1),
                        },
                        _ => mig.input_name(i).to_string(),
                    };
                    out.add_input(name)
                }
                MigNode::Majority(children) => {
                    let mut cs =
                        children.map(|c| map[c.node().index()].complement_if(c.is_complemented()));
                    match edit {
                        Edit::Complement(at, k) if at == majority => cs[k] = !cs[k],
                        Edit::Child(at, k) if at == majority => cs[k] = map[id.index() - 1],
                        _ => {}
                    }
                    majority += 1;
                    out.maj(cs[0], cs[1], cs[2])
                }
            };
            map.push(signal);
        }
        for (index, (name, s)) in mig.outputs().iter().enumerate() {
            let mut signal = map[s.node().index()].complement_if(s.is_complemented());
            let mut name = name.clone();
            match edit {
                Edit::OutputName(at) if at == index => name.push('_'),
                Edit::Complement(at, _) if at == majority + index => signal = !signal,
                _ => {}
            }
            out.add_output(name, signal);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Candidate deduplication's structural test agrees with comparing
        /// `write_mig` text: on random graphs, their polished extractions,
        /// and copies that differ in one name, complement bit or child.
        #[test]
        fn candidate_equality_is_text_equality(
            seed: u64,
            inputs in 2usize..6,
            outputs in 1usize..4,
            nodes in 4usize..40,
            pick: u64,
        ) {
            let raw = random_logic(&RandomLogicSpec::new(inputs, outputs, nodes, seed));
            let baseline = mig::rewrite::rewrite(&raw, 1);
            let mut g = EGraph::from_mig(&baseline);
            let budget = EgraphBudget::for_effort(1).scaled_to(g.num_enodes());
            saturate(&mut g, &budget);
            let extractor = Extractor::new(&g);
            let mut graphs = vec![raw.clone(), baseline];
            graphs.extend(
                ExtractObjective::ALL
                    .iter()
                    .filter_map(|&objective| extractor.extract(objective))
                    .map(|mig| polish(&mig)),
            );
            let at = (pick % 1024) as usize;
            let k = (pick >> 10) as usize % 3;
            for mig in graphs.clone() {
                let nodes = mig.num_majority_nodes().max(1);
                graphs.extend([
                    mig.clone(),
                    edited(&mig, Edit::InputName(at % mig.num_inputs(), pick >> 12)),
                    edited(&mig, Edit::OutputName(at % mig.num_outputs())),
                    edited(&mig, Edit::Complement(at % (nodes + mig.num_outputs()), k)),
                    edited(&mig, Edit::Child(at % nodes, k)),
                ]);
            }
            let texts: Vec<String> = graphs.iter().map(write_mig).collect();
            for (a, text_a) in graphs.iter().zip(&texts) {
                for (b, text_b) in graphs.iter().zip(&texts) {
                    prop_assert_eq!(same_text(a, b), text_a == text_b);
                }
            }
        }
    }

    fn fig3b() -> Mig {
        let mut mig = Mig::new();
        let i1 = mig.add_input("i1");
        let i2 = mig.add_input("i2");
        let i3 = mig.add_input("i3");
        let n1 = mig.maj(Signal::FALSE, i1, i2);
        let n2 = mig.maj(Signal::TRUE, !i2, i3);
        let n3 = mig.maj(i1, i2, i3);
        let n4 = mig.maj(Signal::TRUE, n1, i3);
        let n5 = mig.maj(n1, !n2, n3);
        let n6 = mig.maj(n4, !n5, n1);
        mig.add_output("f", n6);
        mig
    }

    #[test]
    fn optimize_is_equivalent_and_never_worse_than_the_baseline() {
        let raw = fig3b();
        let baseline = mig::rewrite::rewrite(&raw, 4);
        let options = CompilerOptions::new().opt(OptLevel::O2);
        let (chosen, stats) = optimize_with_stats(&raw, &baseline, 4, options);
        assert!(mig::equiv::check_equivalence(&raw, &chosen, 64, 3)
            .expect("interfaces match")
            .holds());
        let base = Scored::new(&baseline, options).cost;
        let ours = Scored::new(&chosen, options).cost;
        assert!(
            ours <= base,
            "egraph result must not regress: {ours:?} vs {base:?}"
        );
        assert!(stats.iterations >= 1);
        assert!(stats.final_enodes >= stats.initial_enodes);
        assert!(!stats.summary().is_empty());
    }

    #[test]
    fn optimize_is_deterministic() {
        let raw = fig3b();
        let baseline = mig::rewrite::rewrite(&raw, 2);
        let options = CompilerOptions::new().opt(OptLevel::O2);
        let (one, ..) = optimize_compiled(&raw, &baseline, 2, options);
        let (two, ..) = optimize_compiled(&raw, &baseline, 2, options);
        assert_eq!(mig::io::write_mig(&one), mig::io::write_mig(&two));
    }

    #[test]
    fn the_returned_compilation_is_the_chosen_graphs() {
        let raw = fig3b();
        let baseline = mig::rewrite::rewrite(&raw, 4);
        for opt in OptLevel::ALL {
            let options = CompilerOptions::new().opt(opt);
            let (chosen, compilation, stats) = optimize_compiled(&raw, &baseline, 4, options);
            let fresh = plim_compiler::compile_full(&chosen, options);
            assert_eq!(compilation.ir.dump(), fresh.ir.dump(), "{opt:?}");
            assert_eq!(
                compilation.compiled.program.to_string(),
                fresh.compiled.program.to_string(),
                "{opt:?}"
            );
            assert_eq!(compilation.report.runs, fresh.report.runs, "{opt:?}");
            let (alone, alone_stats) = optimize_with_stats(&raw, &baseline, 4, options);
            assert_eq!(mig::io::write_mig(&alone), mig::io::write_mig(&chosen));
            assert_eq!(alone_stats, stats);
        }
    }
}
