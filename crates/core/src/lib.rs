//! # plim-compiler — an MIG-based compiler for the PLiM architecture
//!
//! Reproduction of Soeken, Shirinzadeh, Gaillardon, Amarú, Drechsler,
//! De Micheli: *An MIG-based Compiler for Programmable Logic-in-Memory
//! Architectures*, DAC 2016.
//!
//! The compiler translates Boolean functions, represented as
//! Majority-Inverter Graphs ([`mig::Mig`]), into programs for the PLiM
//! in-memory computer ([`plim::Program`]), whose single instruction is the
//! 3-input resistive majority `RM3(A, B, Z): Z ← ⟨A B̄ Z⟩`.
//!
//! Two quality metrics matter: the number of RM3 instructions (`#I`,
//! latency) and the number of work RRAM cells (`#R`, space). The compiler
//! minimizes both through
//!
//! * **lifetime analysis** ([`lifetime`]): one up-front pass computes every
//!   node's reference schedule position, last-use point, and lifetime
//!   class; the scheduler and the allocator both consume it;
//! * **candidate selection** ([`ir::lower`]): the default schedule
//!   translates nodes in the lifetime analysis' depth-first post-order,
//!   which is what a priority queue releasing RRAMs early and allocating
//!   them late pops; [`ScheduleOrder::Lookahead`] keeps a heap of computable
//!   nodes and weighs the cells a candidate frees now against those it must
//!   newly allocate;
//! * **smart node translation** ([`compile`]): a case analysis picks which
//!   child feeds the natively-inverted operand `B`, which child's RRAM is
//!   overwritten as destination `Z`, and how operand `A` is read, caching
//!   materialized complements for reuse;
//! * **RRAM allocation** ([`alloc`]): a pluggable free-cell pool reuses
//!   released cells — FIFO rotation (the paper's default), LIFO,
//!   wear-budget (least-written first, driven by per-cell write counters),
//!   or lifetime-binned placement;
//! * **the IR pass pipeline** ([`ir`]): translation runs as three phases —
//!   lower (scheduling + node translation into an explicit IR over virtual
//!   cells), optimize (in-place-overwrite forwarding and
//!   identity-write removal, selected by [`OptLevel`]), and emit (event-stream replay back to a physical
//!   program). `-O0` is byte-identical to the paper reproduction; `-O2`
//!   harvests instruction-level slack no scheduler can see.
//!
//! The `BENCH.json` artifact and the `plimd` compile-service wire protocol
//! (both in `plim-service`) are built on the shared [`json`] layer, and
//! [`cache`] provides the service's content-addressed, byte-budgeted result
//! store.
//!
//! Pair it with [`mig::rewrite`] (the paper's Algorithm 1) to optimize the
//! graph before compilation, and with [`batch`] to compile whole benchmark
//! suites in parallel (one memoized rewrite pass per `(circuit, effort)`,
//! deterministic result order).
//!
//! ## Quick example
//!
//! ```
//! use mig::{Mig, rewrite::rewrite};
//! use plim_compiler::{compile, verify::verify, CompilerOptions};
//!
//! let mut mig = Mig::new();
//! let a = mig.add_input("a");
//! let b = mig.add_input("b");
//! let cin = mig.add_input("cin");
//! let sum = mig.xor3(a, b, cin);
//! let cout = mig.maj(a, b, cin);
//! mig.add_output("sum", sum);
//! mig.add_output("cout", cout);
//!
//! let optimized = rewrite(&mig, 4);
//! let compiled = compile(&optimized, CompilerOptions::new());
//! verify(&optimized, &compiled, 4, 0)?;
//! println!("{}", compiled.program); // paper-style listing
//! # Ok::<(), plim_compiler::verify::VerifyError>(())
//! ```

pub mod alloc;
mod ambit;
pub mod backend;
pub mod batch;
pub mod cache;
mod compile;
pub mod ir;
pub mod json;
pub mod lifetime;
mod magic;
mod options;
mod program;
pub mod report;
mod rows;
pub mod store;
pub mod verify;

// The crate-root surface, grouped by pipeline stage: configuration, the
// compile entry points and their result types, the analyses they share,
// and the caching layers the `plimd` service builds on. Everything else
// is reached through its module.
pub use backend::{
    Artifact, Backend, Cost, CostTable, InstructionInfo, OpCost, Target, TrialCounts, TrialEdit,
    TrialScorer, WorkRegion,
};
pub use cache::{CacheKey, CacheStats, LruCache};
pub use compile::{compile, compile_full, compile_ir, Compilation};
pub use lifetime::{LifetimeClass, Lifetimes};
pub use options::{
    AllocatorStrategy, CompilerOptions, OperandSelection, OptLevel, RewriteMode, ScheduleOrder,
};
pub use program::{Rm3Program, Rm3Stats, UninitializedRead};
pub use store::{ArtifactStore, StoreCounters, StoreLookup, StoredArtifact};
