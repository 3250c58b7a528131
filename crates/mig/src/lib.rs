//! # mig — Majority-Inverter Graphs
//!
//! A Majority-Inverter Graph (MIG) is a directed acyclic graph whose only
//! logic primitives are the 3-input majority function `⟨x y z⟩ = xy ∨ xz ∨ yz`
//! and edge inverters. MIGs subsume And-Or-Inverter Graphs (fixing one
//! majority input to a constant yields AND/OR) and come with a complete
//! Boolean algebra Ω that permits reaching any equivalent MIG structure by
//! axiomatic rewriting.
//!
//! This crate provides the MIG substrate used by the PLiM compiler
//! reproduction (Soeken et al., *An MIG-based Compiler for Programmable
//! Logic-in-Memory Architectures*, DAC 2016):
//!
//! * [`Mig`] — the graph: structural hashing, creation-time Ω.M
//!   simplification, logic-builder helpers;
//! * [`rewrite`] — the paper's Algorithm 1: size rewriting plus
//!   complement-edge redistribution targeted at the RM3 instruction;
//! * [`arena`] — the in-place rewriting engine behind [`rewrite::rewrite`]:
//!   a reusable arena with incremental re-strashing, generation-marked dead
//!   nodes, and a single end-of-rewrite compaction;
//! * [`simulate`] / [`equiv`] — bit-parallel simulation, truth tables, and
//!   equivalence checking;
//! * [`analysis`] — structural statistics (complement profile, depth);
//! * [`canon`] — canonical structural hashing (order-independent,
//!   Ω.I-normalized), the content-address of the compile-service cache;
//! * [`hash`] — the keyed one-multiply hasher behind the structural-hash
//!   tables (and the e-graph memo);
//! * [`io`] / [`dot`] — a textual interchange format and Graphviz export.
//!
//! ## Quick example
//!
//! ```
//! use mig::{Mig, rewrite::rewrite, equiv::check_equivalence};
//!
//! let mut mig = Mig::new();
//! let a = mig.add_input("a");
//! let b = mig.add_input("b");
//! let c = mig.add_input("c");
//! // An AOIG-style construction with redundant inverters.
//! let f = mig.maj(!a, !b, c);
//! mig.add_output("f", f);
//!
//! let optimized = rewrite(&mig, 4);
//! assert!(check_equivalence(&mig, &optimized, 16, 0)?.holds());
//! # Ok::<(), mig::equiv::InterfaceMismatch>(())
//! ```

pub mod aiger;
pub mod algebra;
pub mod analysis;
pub mod arena;
pub mod canon;
pub mod cut;
pub mod dot;
pub mod equiv;
mod graph;
pub mod hash;
pub mod io;
mod node;
pub mod resynth;
pub mod rewrite;
mod signal;
pub mod simulate;

pub use graph::Mig;
pub use node::MigNode;
pub use signal::{NodeId, Signal};
