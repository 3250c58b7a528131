//! Row helpers shared by the alternative backends.
//!
//! Both targets keep the compiler's allocation discipline: their lowerings
//! take each op's rows from the one allocator replay
//! ([`crate::ir::place`]), so a virtual cell occupies the physical
//! row the RM3 emitter would choose under the same writes. Backends add
//! their own scratch rows above the work region.

use plim::text;
use plim::wide::{LaneWord, W256};
use plim::OutputLoc;

use crate::verify::VerifyError;

/// Reads the declared outputs from the final row state, one 256-lane word
/// per output.
pub(crate) fn read_outputs(
    outputs: &[(String, OutputLoc)],
    rows: &[W256],
    inputs: &[W256],
) -> Vec<W256> {
    outputs
        .iter()
        .map(|(_, loc)| match *loc {
            OutputLoc::Ram(r) => rows[r.index()],
            OutputLoc::Input {
                index,
                complemented,
            } => inputs[index as usize] ^ W256::splat(complemented),
            OutputLoc::Const(v) => W256::splat(v),
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
pub(crate) fn render_outputs(out: &mut String, outputs: &[(String, OutputLoc)]) {
    for (name, loc) in outputs {
        out.push_str(".output ");
        out.push_str(name);
        out.push_str(" = ");
        match *loc {
            OutputLoc::Ram(r) => push_row(out, r.0),
            OutputLoc::Input {
                index,
                complemented,
            } => {
                if complemented {
                    out.push('!');
                }
                push_input(out, index);
            }
            OutputLoc::Const(v) => out.push(if v { '1' } else { '0' }),
        }
        out.push('\n');
    }
}

/// The `format!` renderer [`render_outputs`] replaced, kept as the oracle
/// of the listings' tests.
#[cfg(test)]
pub(crate) fn format_outputs(out: &mut String, outputs: &[(String, OutputLoc)]) {
    use std::fmt::Write as _;
    for (name, loc) in outputs {
        let text = match *loc {
            OutputLoc::Ram(r) => format!("r{}", r.0),
            OutputLoc::Input {
                index,
                complemented,
            } => format!("{}i{}", if complemented { "!" } else { "" }, index + 1),
            OutputLoc::Const(v) => format!("{}", u8::from(v)),
        };
        let _ = writeln!(out, ".output {name} = {text}");
    }
}

/// Random draws for the listings' oracle tests.
#[cfg(test)]
pub(crate) mod draw {
    use plim::{OutputLoc, RamAddr};
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

    /// Up to five outputs of every `OutputLoc` form.
    pub(crate) fn outputs(rng: &mut TestRng) -> Vec<(String, OutputLoc)> {
        (0..below(rng, 6))
            .map(|k| {
                let loc = match below(rng, 3) {
                    0 => OutputLoc::Const(below(rng, 2) == 1),
                    1 => OutputLoc::Input {
                        index: index(rng),
                        complemented: below(rng, 2) == 1,
                    },
                    _ => OutputLoc::Ram(RamAddr(index(rng))),
                };
                (format!("f{k}"), loc)
            })
            .collect()
    }
}

/// Streams and a replay-free work region for the cost oracles of the
/// lowerings' tests.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::ir::passes::PassManager;
    use crate::ir::{self, CellId, Event, IrCell, IrOp, IrOutput, IrProgram, Value};
    use crate::{AllocatorStrategy, Backend, CompilerOptions, LifetimeClass, OptLevel};
    use plim::{RamAddr, Rhs};
    use plim_benchmarks::random::{random_logic, RandomLogicSpec};

    /// The rows of the work region, derived without an allocator: a pool
    /// that reuses cells hands out a fresh one only when every cell it has
    /// is live, so its high-water mark is the peak live count; `fresh`
    /// hands out one per request.
    pub(crate) fn work_rows(ir: &IrProgram) -> u32 {
        let (mut live, mut peak, mut requests) = (0u32, 0, 0);
        for event in &ir.events {
            match event {
                Event::Request(_) => {
                    live += 1;
                    requests += 1;
                    peak = peak.max(live);
                }
                Event::Release(_) => live -= 1,
                Event::Op(_) => {}
            }
        }
        if ir.allocator == AllocatorStrategy::Fresh {
            requests
        } else {
            peak
        }
    }

    /// Random logic of `seed` lowered under every allocator, at `-O0` and
    /// at `-O2` scored by `backend`, and a stream that requests a cell no
    /// op touches, above the one it computes in.
    pub(crate) fn streams(seed: u64, backend: &dyn Backend) -> Vec<IrProgram> {
        let spec =
            RandomLogicSpec::new(3 + (seed % 6) as usize, 1 + (seed % 3) as usize, 120, seed);
        let mig = random_logic(&spec);
        let mut streams = vec![untouched_cell()];
        for alloc in AllocatorStrategy::ALL {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let mut ir = ir::lower(&mig, CompilerOptions::new().allocator(alloc));
                PassManager::for_level(opt).run(&mut ir, &mig, backend);
                streams.push(ir);
            }
        }
        streams
    }

    /// `%0 ← 0; %0 ← ⟨i1 0 %0⟩`, with `%1` requested above `%0` and
    /// released untouched.
    fn untouched_cell() -> IrProgram {
        let cell = IrCell {
            pinned: RamAddr(0),
            hint: LifetimeClass::Short,
        };
        let op = |a, rhs| IrOp {
            a,
            b: Value::Const(true),
            z: CellId(0),
            rhs,
            node: None,
        };
        let (c0, c1) = (CellId(0), CellId(1));
        IrProgram {
            num_inputs: 1,
            ops: vec![
                op(Value::Const(false), Rhs::Const(false)),
                op(Value::Input(0), Rhs::Input(0, false)),
            ],
            cells: vec![cell; 2],
            events: vec![
                Event::Request(c0),
                Event::Request(c1),
                Event::Op(0),
                Event::Op(1),
                Event::Release(c1),
            ],
            outputs: vec![("f".to_string(), IrOutput::Cell(c0))],
            mig_nodes: 1,
            allocator: AllocatorStrategy::Fifo,
        }
    }
}
