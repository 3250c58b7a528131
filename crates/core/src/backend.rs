//! Emission backends: one IR, three in-memory targets.
//!
//! Emission is the only target-specific phase of lower → optimize → emit.
//! A [`Backend`] consumes the optimized [`IrProgram`] event stream and
//! produces a target-native [`Artifact`], prices ops for the pass pipeline
//! with its [`CostTable`], and executes its artifact bit-parallel so
//! exhaustive equivalence proofs work on every target.
//!
//! The targets are a fixed table, [`backends`]:
//!
//! * [`Rm3Backend`] (`rm3`) — the paper's ReRAM target; it delegates to
//!   [`crate::ir::emit`] unchanged, so `-O0` RM3 output stays
//!   byte-identical to the pre-trait compiler (the goldens in
//!   `tests/golden/` pin this);
//! * [`AmbitBackend`] (`ambit`) — an Ambit-style bulk-bitwise DRAM target:
//!   each IR majority step becomes RowClone copies into a triple-row group,
//!   one triple-row activation and a copy back, priced in row activations;
//! * [`MagicBackend`] (`magic`) — a MAGIC-style memristive NOR sketch: each
//!   majority step is seven NOR pulses over six scratch memristors, each
//!   preceded by its output device's `set`, priced in pulses.
//!
//! Ambit and MAGIC take their rows from the one allocator replay
//! ([`crate::ir::place`]), so costing, `-O2` trial scoring and `--alloc
//! wear` work as for RM3, and the one verifier ([`crate::verify`]) proves
//! their artifacts against the source MIG exactly as it proves RM3.
//! [`Target`] names resolve against the table, which is also what
//! `plimc targets` and the service's stats advertisement list. Adding a
//! target is one module of this crate (the lowerings are the private
//! `ambit` and `magic` modules, sharing `rows`) plus one row of the table.

use std::fmt;

use plim::wide::WideMachine;
/// The lane word of [`Artifact::run_wide`].
pub use plim::wide::W256;

use crate::ir::{CellId, IrProgram};
use crate::program::Rm3Program;
use crate::report::CostReport;
use crate::verify::VerifyError;

pub use crate::ambit::AmbitBackend;
pub use crate::magic::MagicBackend;

/// The cost of a program under a backend's model.
///
/// The pass pipeline's quality gate, [`Cost::improves_on`], commits a
/// forwarding edit by comparing these triples exactly the way it compared
/// the hard-coded `(#I, #R, max-writes)` metrics before the trait existed.
/// For the RM3 backend the fields are exactly the historical metrics, which
/// keeps every gating decision — and therefore every emitted byte —
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Native instruction count (`#I` for RM3, row operations for Ambit,
    /// NOR steps for MAGIC).
    pub instructions: usize,
    /// Memory footprint in the target's allocation unit (work RRAMs for
    /// RM3, subarray rows for Ambit, memristor cells for MAGIC).
    pub footprint: u32,
    /// Highest write count on one cell/row in a single execution (the
    /// endurance-limiting element).
    pub wear: u64,
    /// Weighted execution cost: instructions × their per-instruction cost
    /// from [`Backend::instruction_set`] (row activations for Ambit).
    pub units: u64,
}

impl Cost {
    /// `true` when this cost strictly improves instruction count without
    /// regressing footprint or wear — the forwarding pass's commit
    /// condition.
    #[must_use]
    pub fn improves_on(self, other: Cost) -> bool {
        self.instructions < other.instructions
            && self.footprint <= other.footprint
            && self.wear <= other.wear
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#I={} #R={} maxw={} units={}",
            self.instructions, self.footprint, self.wear, self.units
        )
    }
}

/// A target's cost model as plain data, which the one allocator replay
/// ([`crate::ir::place`]) prices each op with. Of a replayed stream,
/// `instructions` and `units` are the sums over its ops; `footprint` is the
/// work region, plus the scratch rows once a non-masking op runs; `wear` is
/// the larger of the work rows' highest write count and the scratch rows'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostTable {
    /// The cost of a masking op (a reset/set idiom: differing constants).
    pub masking: OpCost,
    /// The cost of every other op.
    pub other: OpCost,
    /// Scratch rows the target needs once the stream has a non-masking op.
    pub scratch_rows: u32,
    /// Writes each non-masking op makes to every scratch row.
    pub scratch_writes: u64,
    /// What the work region spans.
    pub work_region: WorkRegion,
}

/// What one IR op costs a target (see [`CostTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Native instructions.
    pub instructions: usize,
    /// [`Cost::units`] when neither operand is a constant.
    pub units: u64,
    /// Units a constant operand saves.
    pub const_discount: u64,
    /// Writes to the destination row.
    pub writes: u64,
}

/// The work region a [`CostTable`] counts in the footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkRegion {
    /// Up to the highest address an op touches (RM3's `#R`).
    Touched,
    /// Up to the highest address the allocator hands out.
    Requested,
}

impl CostTable {
    /// RM3: one instruction and one destination write per op, no scratch.
    pub const RM3: CostTable = CostTable {
        masking: OpCost::ONE,
        other: OpCost::ONE,
        scratch_rows: 0,
        scratch_writes: 0,
        work_region: WorkRegion::Touched,
    };
}

impl OpCost {
    /// One instruction of one unit writing its destination once.
    pub const ONE: OpCost = OpCost {
        instructions: 1,
        units: 1,
        const_discount: 0,
        writes: 1,
    };
}

/// One instruction of a backend's native instruction set, with its unit
/// cost under the backend's model (`plimc targets` prints these).
#[derive(Debug, Clone, Copy)]
pub struct InstructionInfo {
    /// Assembly mnemonic.
    pub mnemonic: &'static str,
    /// Cost in [`Cost::units`] per executed instruction.
    pub cost: u64,
    /// One-line semantics.
    pub summary: &'static str,
}

/// A target-native compiled program: what a [`Backend`] emits. The RM3
/// target's artifact is the [`Rm3Program`] itself.
///
/// Besides rendering (listing/stats), an artifact must *execute*
/// bit-parallel — 256 input patterns per run, one [`W256`] lane per
/// pattern — and may declare static checks of its own, so
/// [`crate::verify`] can prove any target equivalent to the source MIG
/// without knowing anything about its semantics.
pub trait Artifact {
    /// Name of the target that produced this artifact.
    fn target(&self) -> &'static str;

    /// Number of primary inputs the artifact reads.
    fn num_inputs(&self) -> usize;

    /// Cost of the artifact under its backend's model.
    fn cost(&self) -> Cost;

    /// Target-native assembly listing.
    fn listing(&self) -> String;

    /// Human-readable stats block (the `--emit stats` form).
    fn stats_text(&self) -> String;

    /// Number of primary outputs the artifact declares.
    fn num_outputs(&self) -> usize;

    /// Checks the artifact statically, before any run. The default accepts
    /// every artifact.
    ///
    /// # Errors
    ///
    /// Returns the first violation of the target's own discipline (for
    /// RM3, [`VerifyError::UninitializedRead`]).
    fn static_check(&self) -> Result<(), VerifyError> {
        Ok(())
    }

    /// Executes the artifact on 256 input patterns at once from a freshly
    /// [poisoned](plim::wide::poison) memory: `inputs[i]` carries input
    /// `i`'s value for lanes 0–255; the result carries one word per
    /// declared output.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Machine`] or [`VerifyError::Backend`] when
    /// the artifact is malformed (reads an out-of-range row, wrong input
    /// count).
    fn run_wide(&self, inputs: &[W256]) -> Result<Vec<W256>, VerifyError>;
}

/// An emission backend: lowers the optimized IR event stream onto one
/// in-memory computing architecture.
///
/// Implementations must be stateless (`Sync`, shared as `&'static`): one
/// instance in [`backends`] serves every compile on every thread.
pub trait Backend: Sync {
    /// The CLI/spec name (`rm3`, `ambit`, `magic`).
    fn name(&self) -> &'static str;

    /// One-line description shown by `plimc targets`.
    fn description(&self) -> &'static str;

    /// The target's native instruction set with per-instruction costs.
    fn instruction_set(&self) -> &'static [InstructionInfo];

    /// The target's cost model: what each IR op costs it, as plain data.
    fn cost_table(&self) -> CostTable;

    /// Scores the IR under [`Backend::cost_table`] **without** building
    /// the artifact, for callers that want a compiled stream's cost where
    /// full emission would dominate. The pass pipeline replays nothing:
    /// forwarding prices its trials, and the stream it returns, through
    /// [`Backend::scorer`].
    fn cost(&self, ir: &IrProgram) -> Cost {
        crate::ir::place(ir, self.cost_table(), &mut ()).cost
    }

    /// A scorer for trial edits of `ir`, and `ir`'s cost: the replay of
    /// [`Backend::cost`], bounded. Under `fifo` each trial forks the
    /// committed replay at its edit; under every other allocator it resumes
    /// from the last checkpoint before its edit. Either way it stops as
    /// soon as the footprint or wear passes the incumbent's.
    fn scorer(&self, ir: &IrProgram) -> (Box<dyn TrialScorer + '_>, Cost) {
        crate::ir::scorer(ir, self.cost_table())
    }

    /// Emits the target-native artifact.
    fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact>;
}

/// Scores trial edits against a committed stream, for passes that apply an
/// edit, score it, and keep or revert it (see [`Backend::scorer`]).
pub trait TrialScorer {
    /// Scores the edited stream `ir`, which differs from the committed
    /// stream only where `edit` says, against the incumbent `bound`:
    /// returns its cost when that [improves on](Cost::improves_on) `bound`,
    /// `None` otherwise.
    fn trial(&mut self, ir: &IrProgram, edit: &TrialEdit, bound: Cost) -> Option<Cost>;

    /// Makes the last trial's stream, which improved on its bound, the
    /// committed one. A trial that is not committed is assumed reverted.
    fn commit(&mut self);

    /// What the trials so far cost.
    fn counts(&self) -> TrialCounts;
}

/// Where a trial edit changed the committed stream.
///
/// Events before `from` are the committed stream's. From committed
/// position `until` on, the edited stream repeats the committed one
/// `shift` positions later, except that the committed stream's cell
/// `merged.0` is the edited stream's `merged.1` there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialEdit {
    /// The first position the edit changed.
    pub from: usize,
    /// The committed position past the last event the edit changed.
    pub until: usize,
    /// The edited stream's length minus the committed stream's.
    pub shift: isize,
    /// The committed cell the edit merged away, and the cell it became.
    pub merged: (CellId, CellId),
}

/// What a [`TrialScorer`]'s trials cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialCounts {
    /// Trials scored.
    pub trials: usize,
    /// Events replayed to score them.
    pub replayed: u64,
    /// Of those, the events the trials that reconverged replayed outside
    /// their edited spans — before the first event an edit changed, or
    /// past the last, in the edited stream and in the committed one where
    /// a scorer replays that too: what finding the reconvergence cost.
    pub overhead: u64,
    /// Trials finished early because their replay reconverged with the
    /// committed one.
    pub cuts: usize,
}

impl std::ops::AddAssign for TrialCounts {
    fn add_assign(&mut self, other: TrialCounts) {
        self.trials += other.trials;
        self.replayed += other.replayed;
        self.overhead += other.overhead;
        self.cuts += other.cuts;
    }
}

/// The built-in reference backend: the paper's ReRAM RM3 target.
///
/// Delegates to [`crate::ir::emit`] and the allocator-replay metrics the
/// pass pipeline always used, so compiling through the trait is
/// byte-identical to the pre-trait compiler at every `-O` level.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rm3Backend;

/// RM3's instruction set: a single resistive-majority instruction.
const RM3_ISA: [InstructionInfo; 1] = [InstructionInfo {
    mnemonic: "rm3",
    cost: 1,
    summary: "Z ← ⟨A B̄ Z⟩ (3-input resistive majority, B inverted intrinsically)",
}];

impl Backend for Rm3Backend {
    fn name(&self) -> &'static str {
        "rm3"
    }

    fn description(&self) -> &'static str {
        "ReRAM resistive-majority PLiM computer (the paper's architecture)"
    }

    fn instruction_set(&self) -> &'static [InstructionInfo] {
        &RM3_ISA
    }

    fn cost_table(&self) -> CostTable {
        CostTable::RM3
    }

    fn emit(&self, ir: &IrProgram) -> Box<dyn Artifact> {
        Box::new(crate::ir::emit(ir))
    }
}

impl Artifact for Rm3Program {
    fn target(&self) -> &'static str {
        "rm3"
    }

    fn num_inputs(&self) -> usize {
        self.program.num_inputs()
    }

    fn cost(&self) -> Cost {
        Cost {
            instructions: self.stats.instructions,
            footprint: self.stats.rams,
            wear: self.stats.max_cell_writes,
            units: self.stats.instructions as u64,
        }
    }

    fn listing(&self) -> String {
        self.program.listing()
    }

    fn stats_text(&self) -> String {
        format!("{}\n", CostReport::analyze(self))
    }

    fn num_outputs(&self) -> usize {
        self.program.outputs().len()
    }

    fn static_check(&self) -> Result<(), VerifyError> {
        crate::verify::check_init_discipline(self)
    }

    fn run_wide(&self, inputs: &[W256]) -> Result<Vec<W256>, VerifyError> {
        Ok(WideMachine::poisoned(self.program.num_rams()).run(&self.program, inputs)?)
    }
}

/// Every target, in `plimc targets` order: RM3 first.
static BACKENDS: [&dyn Backend; 3] = [&Rm3Backend, &AmbitBackend, &MagicBackend];

/// Every backend, RM3 first.
#[must_use]
pub fn backends() -> &'static [&'static dyn Backend] {
    &BACKENDS
}

/// A compilation target: one row of [`backends`].
///
/// `Copy`-cheap (it carries the row's index) so it can live inside
/// [`crate::CompilerOptions`]; the default is [`Target::RM3`], which keeps
/// every existing call site compiling the paper's architecture.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target(usize);

impl Target {
    /// The RM3 target, the paper's architecture.
    pub const RM3: Target = Target(0);

    /// The CLI/spec name of the target.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.backend().name()
    }

    /// The backend behind this target.
    #[must_use]
    pub fn backend(self) -> &'static dyn Backend {
        BACKENDS[self.0]
    }

    /// Every target, in table order (RM3 first).
    #[must_use]
    pub fn all() -> Vec<Target> {
        (0..BACKENDS.len()).map(Target).collect()
    }

    /// Parses a target name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message listing the target names when `name` is
    /// not one of them (the `--schedule`/`--alloc` convention).
    pub fn parse(name: &str) -> Result<Self, String> {
        BACKENDS
            .iter()
            .position(|b| b.name() == name)
            .map(Target)
            .ok_or_else(|| {
                let names: Vec<&str> = BACKENDS.iter().map(|b| b.name()).collect();
                format!("unknown target `{name}` (expected {})", names.join("|"))
            })
    }
}

impl fmt::Debug for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Target").field(&self.name()).finish()
    }
}

impl Default for Target {
    fn default() -> Self {
        Target::RM3
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompilerOptions;

    #[test]
    fn rm3_is_always_registered_and_is_the_default() {
        assert_eq!(Target::default(), Target::RM3);
        assert_eq!(Target::parse("rm3"), Ok(Target::RM3));
        assert_eq!(Target::RM3.backend().name(), "rm3");
        assert_eq!(Target::all()[0], Target::RM3);
        assert_eq!(format!("{:?}", Target::RM3), "Target(\"rm3\")");
    }

    #[test]
    fn unknown_targets_list_the_valid_names() {
        let err = Target::parse("tpu").unwrap_err();
        assert!(err.contains("unknown target `tpu`"), "{err}");
        assert!(err.contains("rm3"), "{err}");
    }

    #[test]
    fn cost_gates_mirror_the_historical_tuple_comparisons() {
        let base = Cost {
            instructions: 10,
            footprint: 4,
            wear: 6,
            units: 10,
        };
        assert!(Cost {
            instructions: 9,
            ..base
        }
        .improves_on(base));
        assert!(!base.improves_on(base));
        assert!(!Cost {
            instructions: 9,
            footprint: 5,
            ..base
        }
        .improves_on(base));
    }

    #[test]
    fn rm3_backend_cost_equals_emitted_stats() {
        let mut mig = mig::Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let f = mig.maj(a, b, c);
        let g = mig.xor(a, c);
        mig.add_output("f", f);
        mig.add_output("g", g);
        let compilation = crate::compile_full(&mig, CompilerOptions::new());
        let backend = Rm3Backend;
        let cost = backend.cost(&compilation.ir);
        assert_eq!(cost.instructions, compilation.compiled.stats.instructions);
        assert_eq!(cost.footprint, compilation.compiled.stats.rams);
        assert_eq!(cost.wear, compilation.compiled.stats.max_cell_writes);
        // And the artifact is the same program, byte for byte.
        let artifact = backend.emit(&compilation.ir);
        assert_eq!(artifact.listing(), compilation.compiled.program.to_string());
        assert_eq!(artifact.cost(), cost);
        assert_eq!(artifact.target(), "rm3");
        assert_eq!(artifact.num_inputs(), 3);
        assert_eq!(artifact.num_outputs(), 2);
    }

    #[test]
    fn rm3_artifact_runs_wide_like_the_machine() {
        let mut mig = mig::Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let f = mig.and(a, b);
        mig.add_output("f", f);
        let compilation = crate::compile_full(&mig, CompilerOptions::new());
        let artifact = Rm3Backend.emit(&compilation.ir);
        let got = artifact
            .run_wide(&[W256([0b1100, 0, 0, 1]), W256([0b1010, 0, 1, 1])])
            .unwrap();
        assert_eq!(got, [W256([0b1000, 0, 0, 1])]);
        assert!(
            matches!(
                artifact.run_wide(&[W256::default()]),
                Err(VerifyError::Machine(_))
            ),
            "input count mismatch"
        );
    }
}
