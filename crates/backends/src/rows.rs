//! Deterministic row placement shared by the alternative backends.
//!
//! Both targets keep the compiler's allocation discipline: the IR event
//! stream is replayed through a fresh [`RramAllocator`] of the program's
//! strategy, so a virtual cell occupies the same physical row the RM3
//! emitter would have chosen. Backends add their own scratch rows above
//! the work region.

use plim_compiler::alloc::RramAllocator;
use plim_compiler::backend::{text, LaneWord, W256};
use plim_compiler::ir::{Event, IrProgram};
use plim_compiler::verify::VerifyError;

/// Physical placement of an IR program's virtual cells.
pub(crate) struct Rows {
    /// Row of each virtual cell, indexed by `CellId`. A cell's row is
    /// stable across its whole lifetime; slots of never-requested cells
    /// are unused.
    pub cell_row: Vec<u32>,
    /// Rows of the work region (scratch rows live above this).
    pub work_rows: u32,
}

/// Replays the event stream's request/release sequence, assigning every
/// virtual cell its physical row.
pub(crate) fn assign_rows(ir: &IrProgram) -> Rows {
    let mut alloc = RramAllocator::new(ir.allocator);
    let mut cell_row = vec![0u32; ir.cells.len()];
    let mut live = vec![None; ir.cells.len()];
    let mut work_rows = 0u32;
    for &event in &ir.events {
        match event {
            Event::Request(c) => {
                let addr = alloc.request_with_hint(ir.cells[c.index()].hint);
                cell_row[c.index()] = addr.0;
                live[c.index()] = Some(addr);
                work_rows = work_rows.max(addr.0 + 1);
            }
            Event::Release(c) => {
                let addr = live[c.index()].take().expect("release before request");
                alloc.release(addr);
            }
            Event::Op(_) => {}
        }
    }
    Rows {
        cell_row,
        work_rows,
    }
}

/// Where a primary output lives at program end, in physical-row terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutLoc {
    /// In a work row.
    Row(u32),
    /// Equal to a primary input (possibly complemented).
    Input {
        /// Input index.
        index: u32,
        /// Whether the output is the input's complement.
        complemented: bool,
    },
    /// A constant.
    Const(bool),
}

/// Maps the IR's virtual-cell outputs onto physical rows.
pub(crate) fn lower_outputs(ir: &IrProgram, rows: &Rows) -> Vec<(String, OutLoc)> {
    use plim_compiler::ir::IrOutput;
    ir.outputs
        .iter()
        .map(|(name, output)| {
            let loc = match *output {
                IrOutput::Cell(c) => OutLoc::Row(rows.cell_row[c.index()]),
                IrOutput::Input {
                    index,
                    complemented,
                } => OutLoc::Input {
                    index,
                    complemented,
                },
                IrOutput::Const(v) => OutLoc::Const(v),
            };
            (name.clone(), loc)
        })
        .collect()
}

/// Reads the declared outputs from the final row state, one 256-lane word
/// per output.
pub(crate) fn read_outputs(
    outputs: &[(String, OutLoc)],
    rows: &[W256],
    inputs: &[W256],
) -> Vec<W256> {
    outputs
        .iter()
        .map(|(_, loc)| match *loc {
            OutLoc::Row(r) => rows[r as usize],
            OutLoc::Input {
                index,
                complemented,
            } => inputs[index as usize] ^ W256::splat(complemented),
            OutLoc::Const(v) => W256::splat(v),
        })
        .collect()
}

/// Rejects an input vector whose length is not the artifact's input count.
pub(crate) fn check_inputs(expected: usize, inputs: &[W256]) -> Result<(), VerifyError> {
    if inputs.len() == expected {
        Ok(())
    } else {
        Err(VerifyError::Backend(format!(
            "expected {expected} input words, got {}",
            inputs.len()
        )))
    }
}

/// Appends row `r` as the listings name it (`r5`).
pub(crate) fn push_row(out: &mut String, r: u32) {
    out.push('r');
    text::push_uint(out, u64::from(r));
}

/// Appends primary input `index` as the listings name it (`i3`, 1-based).
pub(crate) fn push_input(out: &mut String, index: u32) {
    out.push('i');
    text::push_uint(out, u64::from(index) + 1);
}

/// Renders an output directory block (`.output f = r5` / `!i3` / `1`).
pub(crate) fn render_outputs(out: &mut String, outputs: &[(String, OutLoc)]) {
    for (name, loc) in outputs {
        out.push_str(".output ");
        out.push_str(name);
        out.push_str(" = ");
        match *loc {
            OutLoc::Row(r) => push_row(out, r),
            OutLoc::Input {
                index,
                complemented,
            } => {
                if complemented {
                    out.push('!');
                }
                push_input(out, index);
            }
            OutLoc::Const(v) => out.push(if v { '1' } else { '0' }),
        }
        out.push('\n');
    }
}

/// The `format!` renderer [`render_outputs`] replaced, kept as the oracle
/// of the listings' tests.
#[cfg(test)]
pub(crate) fn format_outputs(out: &mut String, outputs: &[(String, OutLoc)]) {
    use std::fmt::Write as _;
    for (name, loc) in outputs {
        let text = match *loc {
            OutLoc::Row(r) => format!("r{r}"),
            OutLoc::Input {
                index,
                complemented,
            } => format!("{}i{}", if complemented { "!" } else { "" }, index + 1),
            OutLoc::Const(v) => format!("{}", u8::from(v)),
        };
        let _ = writeln!(out, ".output {name} = {text}");
    }
}

/// Random draws for the listings' oracle tests.
#[cfg(test)]
pub(crate) mod draw {
    use super::OutLoc;
    use proptest::TestRng;

    /// A draw below `n`.
    pub(crate) fn below(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// A row or input index: small mostly, seven digits now and then.
    pub(crate) fn index(rng: &mut TestRng) -> u32 {
        let bound = if below(rng, 8) == 0 { 10_000_000 } else { 120 };
        below(rng, bound) as u32
    }

    /// Up to five outputs of every `OutLoc` form.
    pub(crate) fn outputs(rng: &mut TestRng) -> Vec<(String, OutLoc)> {
        (0..below(rng, 6))
            .map(|k| {
                let loc = match below(rng, 3) {
                    0 => OutLoc::Const(below(rng, 2) == 1),
                    1 => OutLoc::Input {
                        index: index(rng),
                        complemented: below(rng, 2) == 1,
                    },
                    _ => OutLoc::Row(index(rng)),
                };
                (format!("f{k}"), loc)
            })
            .collect()
    }
}
