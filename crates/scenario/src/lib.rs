//! # plim-scenario — reliability scenarios for compiled PLiM programs
//!
//! The compiler's claims are functional (the program computes the MIG's
//! function) and physical (FIFO / wear-aware RRAM allocation spreads
//! writes). This crate turns both into *measured* results by driving the
//! bit-parallel [`plim::wide`] executor through three scenario engines:
//!
//! * **Exhaustive equivalence** — [`verify::verify_exhaustive`] proves a
//!   compiled artifact of any target equal to its source MIG over the
//!   full input space for circuits of up to 20 inputs (2²⁰ patterns in
//!   4096 runs of the 256-wide executor); callers pass the RM3 program or
//!   a backend's artifact, so this crate has no per-target dispatch;
//! * **Monte-Carlo fault injection** ([`fault`]) — stuck-at cells and
//!   probabilistically drifted writes, injected through the executor's
//!   [`plim::wide::WriteHook`], with a seeded RNG whose per-block streams
//!   make every report reproducible bit-for-bit regardless of thread
//!   count;
//! * **Device-lifetime simulation** ([`lifetime`]) — wear accumulation
//!   over millions of invocations against each `FreePool` allocation
//!   strategy, reporting the invocation at which the first cell exceeds
//!   its endurance budget.
//!
//! [`fidelity`] packages the three engines into the `BENCH.json` fidelity
//! columns (`verified_exhaustive`, `fault_error_rate`,
//! `lifetime_invocations`) that the bench-regression gate enforces.
//!
//! [`verify::verify_exhaustive`]: plim_compiler::verify::verify_exhaustive

pub mod fault;
pub mod fidelity;
pub mod lifetime;
pub mod random;

pub use fault::{fault_sweep, sweep_strategies, FaultModel, FaultReport, FaultScenario};
pub use fidelity::{annotate_bench, fidelity_for, Fidelity, FidelityConfig};
pub use lifetime::{compare_strategies, simulate_lifetime, LifetimeReport, LifetimeScenario};
pub use random::BiasedBits;
