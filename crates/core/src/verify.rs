//! End-to-end verification of compiled artifacts.
//!
//! An artifact is correct when executing it reproduces the MIG's Boolean
//! function for every primary output. One private checker verifies every
//! target's [`Artifact`] — the RM3 [`Rm3Program`] as much as the Ambit
//! and MAGIC ones — in four steps:
//!
//! 1. the artifact's static checks ([`Artifact::static_check`]; for RM3,
//!    [`check_init_discipline`]) and its input/output counts against the
//!    MIG's ([`VerifyError::Interface`]);
//! 2. the input patterns: all 2ⁿ in [`variable_word`] block order, or
//!    seeded random rounds of 64 patterns;
//! 3. runs of the artifact's 256-lane executor ([`Artifact::run_wide`]),
//!    four 64-pattern blocks per run, each from freshly poisoned memory;
//! 4. the first mismatch by (block, output, lane) against MIG word
//!    simulation, as a counterexample.
//!
//! [`verify`] and [`verify_artifact`] are exhaustive up to
//! [`EXHAUSTIVE_LIMIT`] inputs and sample beyond it; [`verify_exhaustive`]
//! proves the full input space up to [`EXHAUSTIVE_WIDE_LIMIT`] inputs
//! (2²⁰ patterns in 4096 runs). Both take a concrete artifact or a
//! `dyn Artifact`; a concrete one (the RM3 program) gets a checker with
//! its checks and executor inlined.

use std::fmt;

use mig::simulate::{variable_word, XorShift64};
use mig::Mig;
use plim::wide::{LaneWord, W256};
use plim::MachineError;

use crate::backend::Artifact;
use crate::program::{Rm3Program, UninitializedRead};

/// Number of primary inputs up to which [`verify`] is exhaustive.
pub const EXHAUSTIVE_LIMIT: usize = 12;

/// Number of primary inputs up to which [`verify_exhaustive`] accepts a
/// circuit: 2²⁰ patterns execute as 4096 runs of the 256-wide machine,
/// comfortably fast even for the larger reduced-suite circuits.
pub const EXHAUSTIVE_WIDE_LIMIT: usize = 20;

/// Error raised when a compiled program does not match its source MIG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The machine rejected the program.
    Machine(MachineError),
    /// Outputs differ on some input pattern.
    Mismatch {
        /// Name of the first differing output.
        output: String,
        /// The offending input assignment.
        inputs: Vec<bool>,
    },
    /// An instruction reads a work cell that no earlier instruction wrote
    /// and whose result depends on that cell (initialization-discipline
    /// violation, detected statically).
    UninitializedRead {
        /// 0-based index of the offending instruction.
        pc: usize,
    },
    /// The circuit has too many inputs for exhaustive enumeration.
    TooManyInputs {
        /// The circuit's primary-input count.
        inputs: usize,
    },
    /// The artifact's interface differs from the MIG's.
    Interface {
        /// Primary-input counts, `(MIG, artifact)`.
        inputs: (usize, usize),
        /// Primary-output counts, `(MIG, artifact)`.
        outputs: (usize, usize),
    },
    /// A backend artifact's executor rejected the run.
    Backend(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Machine(e) => write!(f, "machine error: {e}"),
            VerifyError::Mismatch { output, inputs } => {
                let pattern: String = inputs.iter().map(|&b| if b { '1' } else { '0' }).collect();
                write!(f, "output `{output}` differs on input pattern {pattern}")
            }
            VerifyError::UninitializedRead { pc } => {
                write!(f, "instruction {} reads an uninitialized cell", pc + 1)
            }
            VerifyError::TooManyInputs { inputs } => write!(
                f,
                "circuit has {inputs} inputs; exhaustive verification supports at most {EXHAUSTIVE_WIDE_LIMIT}"
            ),
            VerifyError::Interface { inputs, outputs } => write!(
                f,
                "the MIG has {} inputs and {} outputs but the artifact has {} and {}",
                inputs.0, outputs.0, inputs.1, outputs.1
            ),
            VerifyError::Backend(message) => write!(f, "backend executor error: {message}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<MachineError> for VerifyError {
    fn from(e: MachineError) -> Self {
        VerifyError::Machine(e)
    }
}

/// Verifies that the compiled RM3 program computes the MIG's function:
/// [`verify_artifact`] on the program.
///
/// # Errors
///
/// As [`verify_artifact`].
pub fn verify(
    mig: &Mig,
    compiled: &Rm3Program,
    rounds: usize,
    seed: u64,
) -> Result<(), VerifyError> {
    verify_artifact(mig, compiled, rounds, seed)
}

/// Verifies that an artifact of any target computes the MIG's function.
///
/// Exhaustive for up to [`EXHAUSTIVE_LIMIT`] inputs; otherwise
/// `rounds × 64` random patterns seeded by `seed` are checked.
///
/// # Errors
///
/// Returns [`VerifyError::Mismatch`] with the first counterexample on
/// failure, [`VerifyError::Interface`] when the artifact's input or output
/// count differs from the MIG's, or the artifact's static-check or
/// executor error.
pub fn verify_artifact<A: Artifact + ?Sized>(
    mig: &Mig,
    artifact: &A,
    rounds: usize,
    seed: u64,
) -> Result<(), VerifyError> {
    if mig.num_inputs() <= EXHAUSTIVE_LIMIT {
        check(mig, artifact, None)
    } else {
        check(mig, artifact, Some((rounds.max(1), seed)))
    }
}

/// Proves an artifact of any target equal to its source MIG over the
/// **full** input space (2ⁿ patterns in `2ⁿ⁻⁸` runs).
///
/// # Errors
///
/// Returns [`VerifyError::TooManyInputs`] for circuits beyond
/// [`EXHAUSTIVE_WIDE_LIMIT`] inputs, otherwise as [`verify_artifact`],
/// with the first counterexample in pattern order.
pub fn verify_exhaustive<A: Artifact + ?Sized>(mig: &Mig, artifact: &A) -> Result<(), VerifyError> {
    let n = mig.num_inputs();
    if n > EXHAUSTIVE_WIDE_LIMIT {
        return Err(VerifyError::TooManyInputs { inputs: n });
    }
    check(mig, artifact, None)
}

/// The one verification checker: all 2ⁿ patterns when `sampled` is `None`,
/// otherwise `rounds` seeded random 64-pattern blocks (drawn round by
/// round, `n` words each).
fn check<A: Artifact + ?Sized>(
    mig: &Mig,
    artifact: &A,
    sampled: Option<(usize, u64)>,
) -> Result<(), VerifyError> {
    artifact.static_check()?;
    let n = mig.num_inputs();
    let interface = |outputs: usize| {
        if artifact.num_inputs() == n && outputs == mig.num_outputs() {
            Ok(())
        } else {
            Err(VerifyError::Interface {
                inputs: (n, artifact.num_inputs()),
                outputs: (mig.num_outputs(), outputs),
            })
        }
    };
    interface(artifact.num_outputs())?;
    let (blocks, drawn) = match sampled {
        Some((rounds, seed)) => {
            let mut rng = XorShift64::new(seed);
            (rounds, (0..rounds * n).map(|_| rng.next_word()).collect())
        }
        None => (1 << n.saturating_sub(6), Vec::new()),
    };
    // Input `var`'s word in 64-pattern block `block`.
    let word = |block: usize, var: usize| match sampled {
        Some(_) => drawn[block * n + var],
        None => variable_word(var, block),
    };
    for first in (0..blocks).step_by(W256::WORDS) {
        let group = W256::WORDS.min(blocks - first);
        let inputs: Vec<W256> = (0..n)
            .map(|var| W256::from_blocks(|w| if w < group { word(first + w, var) } else { 0 }))
            .collect();
        let got = artifact.run_wide(&inputs)?;
        interface(got.len())?;
        for w in 0..group {
            let words: Vec<u64> = (0..n).map(|var| word(first + w, var)).collect();
            let expected = mig::simulate::simulate(mig, &words);
            for (index, (&e, g)) in expected.iter().zip(&got).enumerate() {
                let diff = e ^ g.block(w);
                if diff != 0 {
                    let lane = diff.trailing_zeros();
                    return Err(VerifyError::Mismatch {
                        output: mig.outputs()[index].0.clone(),
                        inputs: words.iter().map(|word| word >> lane & 1 != 0).collect(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Statically checks that no instruction's result depends on a work cell
/// that has not been written yet: the first finding of
/// [`Rm3Program::uninitialized_reads`].
///
/// # Errors
///
/// Returns [`VerifyError::UninitializedRead`] at the first offending
/// instruction.
pub fn check_init_discipline(compiled: &Rm3Program) -> Result<(), VerifyError> {
    match compiled.uninitialized_reads().first() {
        Some(&(UninitializedRead::Operand(pc, _) | UninitializedRead::Destination(pc, _))) => {
            Err(VerifyError::UninitializedRead { pc })
        }
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::options::CompilerOptions;
    use crate::program::Rm3Stats;
    use plim::{Instruction, Operand, Program, RamAddr};

    #[test]
    fn verify_accepts_correct_compilation() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let f = mig.maj(a, !b, c);
        mig.add_output("f", f);
        let compiled = compile(&mig, CompilerOptions::new());
        verify(&mig, &compiled, 4, 1).unwrap();
    }

    #[test]
    fn verify_detects_wrong_program() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let mut compiled = compile(&mig, CompilerOptions::new());
        // Sabotage: flip the output location to a constant.
        let mut program = Program::new(2);
        for &i in compiled.program.instructions() {
            program.push(i);
        }
        program.add_output("f", plim::OutputLoc::Const(true));
        compiled.program = program;
        let err = verify(&mig, &compiled, 4, 1).unwrap_err();
        assert!(matches!(err, VerifyError::Mismatch { .. }));
    }

    #[test]
    fn verify_exhaustive_accepts_correct_compilation() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 8);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("parity", acc);
        let compiled = compile(&mig, CompilerOptions::new());
        verify_exhaustive(&mig, &compiled).unwrap();
    }

    #[test]
    fn verify_exhaustive_rejects_oversized_interface() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", EXHAUSTIVE_WIDE_LIMIT + 1);
        mig.add_output("f", xs[0]);
        let compilation = crate::compile::compile_full(&mig, CompilerOptions::new());
        let artifact = crate::backend::Target::RM3.backend().emit(&compilation.ir);
        for artifact in [&compilation.compiled as &dyn Artifact, artifact.as_ref()] {
            assert_eq!(
                verify_exhaustive(&mig, artifact),
                Err(VerifyError::TooManyInputs {
                    inputs: EXHAUSTIVE_WIDE_LIMIT + 1
                })
            );
        }
    }

    #[test]
    fn verify_exhaustive_reports_first_pattern_counterexample() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let mut compiled = compile(&mig, CompilerOptions::new());
        let mut program = Program::new(2);
        for &i in compiled.program.instructions() {
            program.push(i);
        }
        // Doctor the program: claim the output is constant 1; the first
        // differing pattern is 00 (AND = 0 there).
        program.add_output("f", plim::OutputLoc::Const(true));
        compiled.program = program;
        assert_eq!(
            verify_exhaustive(&mig, &compiled),
            Err(VerifyError::Mismatch {
                output: "f".into(),
                inputs: vec![false, false],
            })
        );
    }

    #[test]
    fn wide_random_path_detects_wrong_program_on_large_interface() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", EXHAUSTIVE_LIMIT + 2);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("f", acc);
        let mut compiled = compile(&mig, CompilerOptions::new());
        verify(&mig, &compiled, 4, 1).unwrap();
        let mut program = Program::new(EXHAUSTIVE_LIMIT + 2);
        for &i in compiled.program.instructions() {
            program.push(i);
        }
        program.add_output("f", plim::OutputLoc::Const(false));
        compiled.program = program;
        let err = verify(&mig, &compiled, 4, 1).unwrap_err();
        match err {
            VerifyError::Mismatch { inputs, .. } => {
                assert_eq!(inputs.len(), EXHAUSTIVE_LIMIT + 2);
                // Parity of the counterexample must actually be 1 (the
                // doctored constant says 0).
                assert!(inputs.iter().filter(|&&b| b).count() % 2 == 1);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_exhaustive_accepts_the_rm3_backend_artifact() {
        use crate::backend::Target;
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 7);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.maj(acc, !x, xs[0]);
        }
        mig.add_output("f", acc);
        mig.add_output("nf", !acc);
        let compilation = crate::compile::compile_full(&mig, CompilerOptions::new());
        let artifact = Target::RM3.backend().emit(&compilation.ir);
        verify_exhaustive(&mig, artifact.as_ref()).unwrap();
    }

    #[test]
    fn init_discipline_catches_unwritten_destination() {
        let mut program = Program::new(0);
        // Non-masking instruction on an unwritten cell.
        program.push(Instruction::new(
            Operand::Const(true),
            Operand::Const(true),
            RamAddr(0),
        ));
        let compiled = Rm3Program {
            program,
            stats: Rm3Stats::default(),
        };
        assert_eq!(
            check_init_discipline(&compiled),
            Err(VerifyError::UninitializedRead { pc: 0 })
        );
    }

    #[test]
    fn init_discipline_catches_unwritten_operand() {
        let mut program = Program::new(0);
        program.push(Instruction::reset(RamAddr(0)));
        program.push(Instruction::new(
            Operand::Ram(RamAddr(1)),
            Operand::Const(true),
            RamAddr(0),
        ));
        let compiled = Rm3Program {
            program,
            stats: Rm3Stats::default(),
        };
        assert_eq!(
            check_init_discipline(&compiled),
            Err(VerifyError::UninitializedRead { pc: 1 })
        );
    }

    #[test]
    fn init_discipline_accepts_masking_idioms() {
        let mut program = Program::new(0);
        program.push(Instruction::reset(RamAddr(0)));
        program.push(Instruction::set(RamAddr(1)));
        program.push(Instruction::new(
            Operand::Ram(RamAddr(0)),
            Operand::Ram(RamAddr(1)),
            RamAddr(0),
        ));
        let compiled = Rm3Program {
            program,
            stats: Rm3Stats::default(),
        };
        check_init_discipline(&compiled).unwrap();
    }

    #[test]
    fn compiled_programs_satisfy_init_discipline() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 5);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = mig.xor(acc, x);
        }
        mig.add_output("f", !acc);
        for opts in [CompilerOptions::new(), CompilerOptions::naive()] {
            let compiled = compile(&mig, opts);
            check_init_discipline(&compiled).unwrap();
        }
    }
}
