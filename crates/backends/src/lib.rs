//! # plim-backends — kept only for the benchmark's build
//!
//! The Ambit and MAGIC targets are built into `plim-compiler`: its
//! `backend::backends` table lists every target, so nothing needs to be
//! registered at run time. This crate is left with one no-op function
//! because the `perfbench/` benchmark package still calls it; a change to
//! the benchmark deletes both.

/// Does nothing: every target is built into `plim-compiler`.
pub fn install() {}
