//! # plim — the Programmable Logic-in-Memory architecture model
//!
//! The PLiM computer (Gaillardon et al., DATE'16) performs computation
//! *inside* a resistive memory array: a thin controller wraps a standard
//! RRAM array and executes a single instruction, the 3-input resistive
//! majority
//!
//! ```text
//! RM3(A, B, Z):   Z ← ⟨A B̄ Z⟩
//! ```
//!
//! which the physics of bipolar resistive switches implements natively in
//! one memory write. This crate models the architecture:
//!
//! * [`Instruction`], [`Operand`], [`Program`] — the RM3 ISA with
//!   paper-style program listings;
//! * [`Machine`] — a functional simulator with per-cell write counters;
//! * [`wide`] — a bit-parallel executor running 64 or 256 input patterns
//!   per instruction step, with fault-injection hooks;
//! * [`endurance`] — wear statistics, since RRAM endurance is a first-class
//!   concern for in-memory computing.
//!
//! Programs are normally produced from Majority-Inverter Graphs by the
//! `plim-compiler` crate; this crate is deliberately independent of the
//! logic representation.

pub mod asm;
pub mod controller;
pub mod endurance;
mod error;
mod isa;
mod machine;
pub mod text;
pub mod wide;

pub use endurance::EnduranceStats;
pub use error::MachineError;
pub use isa::{Instruction, Operand, OutputLoc, Program, RamAddr, Rhs};
pub use machine::Machine;
