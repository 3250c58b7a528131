//! The PLiM instruction set: the single RM3 instruction.
//!
//! The PLiM computer (Gaillardon et al., DATE'16) executes one instruction,
//! 3-input resistive majority:
//!
//! ```text
//! RM3(A, B, Z):   Z ← ⟨A B̄ Z⟩
//! ```
//!
//! where `A` and `B` are single-bit operands read from constants, primary
//! inputs, or RRAM cells, and `Z` is the address of the destination RRAM
//! cell, whose stored value participates in the majority and is overwritten
//! by the result. The inversion of the second operand is intrinsic to the
//! RRAM write mechanism (Linn et al. 2012), which is why Majority-Inverter
//! Graphs map so directly onto this architecture.

use std::fmt;

use crate::text::{self, push_uint};

/// Address of a work RRAM cell inside the PLiM memory array.
///
/// Displayed as `@X1`, `@X2`, … matching the paper's program listings
/// (addresses are 0-based internally, 1-based in listings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RamAddr(pub u32);

impl RamAddr {
    /// The raw cell index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Appends the listing form `@X<index + 1>` to `out`.
    #[inline]
    pub(crate) fn push_to(self, out: &mut String) {
        out.push_str("@X");
        push_uint(out, u64::from(self.0) + 1);
    }
}

impl fmt::Display for RamAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@X{}", self.0 + 1)
    }
}

/// A single-bit operand of an RM3 instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A constant 0 or 1 applied to the array terminal.
    Const(bool),
    /// Primary input with the given index, read from the input region of the
    /// memory array.
    Input(u32),
    /// A work RRAM cell.
    Ram(RamAddr),
}

impl Operand {
    /// `true` if the operand is a constant.
    #[inline]
    pub fn is_const(self) -> bool {
        matches!(self, Operand::Const(_))
    }

    /// Appends the listing form (`0`, `1`, `i3`, `@X1`) to `out`.
    #[inline]
    pub(crate) fn push_to(self, out: &mut String) {
        match self {
            Operand::Const(v) => out.push(if v { '1' } else { '0' }),
            Operand::Input(i) => {
                out.push('i');
                push_uint(out, u64::from(i) + 1);
            }
            Operand::Ram(addr) => addr.push_to(out),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(v) => write!(f, "{}", *v as u8),
            Operand::Input(i) => write!(f, "i{}", i + 1),
            Operand::Ram(addr) => write!(f, "{addr}"),
        }
    }
}

impl From<bool> for Operand {
    fn from(value: bool) -> Self {
        Operand::Const(value)
    }
}

impl From<RamAddr> for Operand {
    fn from(addr: RamAddr) -> Self {
        Operand::Ram(addr)
    }
}

/// One RM3 instruction: `Z ← ⟨A B̄ Z⟩`.
///
/// # Examples
///
/// ```
/// use plim::{Instruction, Operand, RamAddr};
///
/// // X1 ← 0  (the canonical reset idiom: ⟨0 1̄ Z⟩ = ⟨0 0 Z⟩ = 0)
/// let reset = Instruction::new(Operand::Const(false), Operand::Const(true), RamAddr(0));
/// assert_eq!(reset.to_string(), "0, 1, @X1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// First operand (applied non-inverted).
    pub a: Operand,
    /// Second operand (inverted intrinsically by the RRAM write).
    pub b: Operand,
    /// Destination cell; its current value is the third majority operand.
    pub z: RamAddr,
}

impl Instruction {
    /// Creates an RM3 instruction.
    pub fn new(a: Operand, b: Operand, z: RamAddr) -> Self {
        Instruction { a, b, z }
    }

    /// The canonical "reset to 0" idiom `(0, 1, @Z)`.
    pub fn reset(z: RamAddr) -> Self {
        Instruction::new(Operand::Const(false), Operand::Const(true), z)
    }

    /// The canonical "set to 1" idiom `(1, 0, @Z)`.
    pub fn set(z: RamAddr) -> Self {
        Instruction::new(Operand::Const(true), Operand::Const(false), z)
    }

    /// Appends the listing form `A, B, @Xk` to `out`.
    #[inline]
    pub(crate) fn push_to(self, out: &mut String) {
        self.a.push_to(out);
        out.push_str(", ");
        self.b.push_to(out);
        out.push_str(", ");
        self.z.push_to(out);
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}, {}, {}", self.a, self.b, self.z)
    }
}

/// The value an instruction computes, as its listing comment names it: the
/// right-hand side of `X<addr> ← rhs`.
///
/// Plain data, so compilers can carry it per instruction without a heap
/// string; [`fmt::Display`] renders the listing text (`0`, `1`, `i3`, `¬i3`,
/// `N46`, `¬N46`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rhs {
    /// A constant 0 or 1.
    Const(bool),
    /// Primary input `index` (0-based; listed 1-based), complemented when
    /// the flag is set.
    Input(u32, bool),
    /// Logic node `index` (listed as is), complemented when the flag is set.
    Node(u32, bool),
}

impl Rhs {
    /// Appends the listing text (as [`fmt::Display`] renders it) to `out`.
    pub fn push_to(self, out: &mut String) {
        let bar = |out: &mut String, complemented: bool| {
            if complemented {
                out.push('¬');
            }
        };
        match self {
            Rhs::Const(v) => out.push(if v { '1' } else { '0' }),
            Rhs::Input(i, c) => {
                bar(out, c);
                out.push('i');
                push_uint(out, u64::from(i) + 1);
            }
            Rhs::Node(n, c) => {
                bar(out, c);
                out.push('N');
                push_uint(out, u64::from(n));
            }
        }
    }
}

impl fmt::Display for Rhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bar = |complemented: bool| if complemented { "¬" } else { "" };
        match *self {
            Rhs::Const(v) => write!(f, "{}", v as u8),
            Rhs::Input(i, c) => write!(f, "{}i{}", bar(c), i + 1),
            Rhs::Node(n, c) => write!(f, "{}N{n}", bar(c)),
        }
    }
}

/// Where a program's primary-output value resides after execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputLoc {
    /// The output is stored in a work RRAM cell.
    Ram(RamAddr),
    /// The output equals a primary input (possibly complemented) — the
    /// compiler does not copy pass-through outputs unless asked to.
    Input {
        /// Input index.
        index: u32,
        /// Whether the output is the complement of the input.
        complemented: bool,
    },
    /// The output is a constant.
    Const(bool),
}

/// A PLiM program: a sequence of RM3 instructions plus interface metadata.
///
/// Programs are produced by the `plim-compiler` crate and executed by
/// [`crate::Machine`].
#[derive(Debug, Clone, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
    /// Per instruction, the right-hand side of its listing comment
    /// `X<z+1> ← rhs`, where `z` is the instruction's destination.
    comments: Vec<Option<Rhs>>,
    num_inputs: usize,
    num_rams: u32,
    outputs: Vec<(String, OutputLoc)>,
}

impl Program {
    /// Creates an empty program over `num_inputs` primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        Program {
            num_inputs,
            ..Program::default()
        }
    }

    /// Appends an instruction with an empty comment.
    pub fn push(&mut self, instruction: Instruction) {
        self.push_with(instruction, None);
    }

    /// Appends an instruction commented `X<z> ← rhs`, where `X<z>` is its
    /// destination; the text is rendered only when the listing is.
    pub fn push_assignment(&mut self, instruction: Instruction, rhs: Rhs) {
        self.push_with(instruction, Some(rhs));
    }

    fn push_with(&mut self, instruction: Instruction, comment: Option<Rhs>) {
        if instruction.z.0 >= self.num_rams {
            self.num_rams = instruction.z.0 + 1;
        }
        if let Operand::Ram(addr) = instruction.a {
            self.num_rams = self.num_rams.max(addr.0 + 1);
        }
        if let Operand::Ram(addr) = instruction.b {
            self.num_rams = self.num_rams.max(addr.0 + 1);
        }
        self.instructions.push(instruction);
        self.comments.push(comment);
    }

    /// The instruction sequence.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions (`#I` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Number of primary inputs the program expects.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of distinct work RRAM cells referenced (`#R` in the paper).
    #[inline]
    pub fn num_rams(&self) -> u32 {
        self.num_rams
    }

    /// Declares where output `name` lives after execution.
    pub fn add_output(&mut self, name: impl Into<String>, loc: OutputLoc) {
        self.outputs.push((name.into(), loc));
    }

    /// The declared outputs.
    #[inline]
    pub fn outputs(&self) -> &[(String, OutputLoc)] {
        &self.outputs
    }

    /// The paper-style listing, one line per instruction; a commented line
    /// pads its instruction column to 18 bytes:
    ///
    /// ```text
    /// 01: 0, 1, @X1          X1 ← 0
    /// 02: i3, 0, @X1         X1 ← i3
    /// 03: 1, 0, @X2
    /// ```
    pub fn listing(&self) -> String {
        let width = text::line_number_width(self.len());
        let mut out = String::with_capacity(self.len() * (width + LISTING_LINE_BYTES));
        for (index, (instruction, comment)) in
            self.instructions.iter().zip(&self.comments).enumerate()
        {
            text::push_line_number(&mut out, index + 1, width);
            let column = out.len();
            instruction.push_to(&mut out);
            if let Some(rhs) = comment {
                text::pad_column(&mut out, column, 18);
                out.push_str(" X");
                push_uint(&mut out, u64::from(instruction.z.0) + 1);
                out.push_str(" ← ");
                rhs.push_to(&mut out);
            }
            out.push('\n');
        }
        out
    }
}

/// Bytes a listing line takes past its line number, as sized up front: the
/// padded instruction column and a comment such as `X12 ← ¬N3456`.
const LISTING_LINE_BYTES: usize = 36;

impl fmt::Display for Program {
    /// Formats the program as its [listing](Program::listing).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.listing())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::{any, prop_assert_eq, proptest, ProptestConfig, TestRng};

    #[test]
    fn operand_display_matches_paper() {
        assert_eq!(Operand::Const(false).to_string(), "0");
        assert_eq!(Operand::Const(true).to_string(), "1");
        assert_eq!(Operand::Input(2).to_string(), "i3");
        assert_eq!(Operand::Ram(RamAddr(0)).to_string(), "@X1");
    }

    #[test]
    fn instruction_idioms() {
        assert_eq!(Instruction::reset(RamAddr(4)).to_string(), "0, 1, @X5");
        assert_eq!(Instruction::set(RamAddr(4)).to_string(), "1, 0, @X5");
    }

    #[test]
    fn program_tracks_ram_high_water() {
        let mut p = Program::new(2);
        p.push(Instruction::reset(RamAddr(0)));
        p.push(Instruction::new(
            Operand::Ram(RamAddr(3)),
            Operand::Input(0),
            RamAddr(1),
        ));
        assert_eq!(p.num_rams(), 4);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn listing_format() {
        let mut p = Program::new(3);
        p.push_assignment(Instruction::reset(RamAddr(0)), Rhs::Const(false));
        p.push_assignment(
            Instruction::new(Operand::Input(2), Operand::Const(false), RamAddr(0)),
            Rhs::Input(2, false),
        );
        let text = p.to_string();
        assert!(text.contains("01: 0, 1, @X1"));
        assert!(text.contains("02: i3, 0, @X1"));
        assert!(text.contains("X1 ← i3"));
    }

    /// Every `Rhs` form renders exactly as the compiler's listing comments
    /// were formatted before they became plain data.
    #[test]
    fn rhs_renders_like_the_listing_comments() {
        // The old `format!`s, over the same fields as the `Rhs`.
        let old = |rhs: Rhs| match rhs {
            Rhs::Const(v) => format!("{}", v as u8),
            Rhs::Input(i, c) => format!("{}i{}", if c { "¬" } else { "" }, i + 1),
            Rhs::Node(n, c) => format!("{}N{}", if c { "¬" } else { "" }, n),
        };
        for (rhs, text) in [
            (Rhs::Const(false), "0"),
            (Rhs::Const(true), "1"),
            (Rhs::Input(0, false), "i1"),
            (Rhs::Input(2, true), "¬i3"),
            (Rhs::Node(46, false), "N46"),
            (Rhs::Node(7, true), "¬N7"),
        ] {
            assert_eq!(rhs.to_string(), text);
            assert_eq!(rhs.to_string(), old(rhs));
            let mut pushed = String::new();
            rhs.push_to(&mut pushed);
            assert_eq!(pushed, text);
        }
    }

    #[test]
    fn assignment_comments_render_from_the_destination() {
        let mut p = Program::new(3);
        p.push_assignment(Instruction::reset(RamAddr(11)), Rhs::Const(false));
        p.push_assignment(
            Instruction::new(Operand::Const(true), Operand::Input(2), RamAddr(11)),
            Rhs::Input(2, true),
        );
        p.push(Instruction::set(RamAddr(0)));
        p.push_assignment(
            Instruction::new(
                Operand::Ram(RamAddr(99_999)),
                Operand::Ram(RamAddr(99_999)),
                RamAddr(99_999),
            ),
            Rhs::Node(4_567, true),
        );
        let mut text = String::new();
        text.push_str(&format!("01: {:<18} {}\n", "0, 1, @X12", "X12 ← 0"));
        text.push_str(&format!("02: {:<18} {}\n", "1, i3, @X12", "X12 ← ¬i3"));
        text.push_str("03: 1, 0, @X1\n");
        // A column past 18 bytes is not padded: one space, then the comment.
        text.push_str("04: @X100000, @X100000, @X100000 X100000 ← ¬N4567\n");
        assert_eq!(p.to_string(), text);
        assert_eq!(p.listing(), text);
        assert_eq!(p.num_rams(), 100_000);
    }

    #[test]
    fn conversions() {
        assert_eq!(Operand::from(true), Operand::Const(true));
        assert_eq!(Operand::from(RamAddr(7)), Operand::Ram(RamAddr(7)));
        assert!(Operand::Const(false).is_const());
        assert!(!Operand::Input(0).is_const());
    }

    #[test]
    fn outputs_are_recorded() {
        let mut p = Program::new(1);
        p.add_output("f", OutputLoc::Ram(RamAddr(0)));
        p.add_output("g", OutputLoc::Const(true));
        p.add_output(
            "h",
            OutputLoc::Input {
                index: 0,
                complemented: true,
            },
        );
        assert_eq!(p.outputs().len(), 3);
    }

    /// The `format!` renderer [`Program::listing`] replaced, kept as its
    /// oracle.
    pub(crate) fn format_listing(p: &Program) -> String {
        use fmt::Write as _;
        let width = p.len().to_string().len().max(2);
        let mut out = String::new();
        for (index, (instruction, comment)) in p.instructions.iter().zip(&p.comments).enumerate() {
            let line = index + 1;
            let _ = match comment {
                None => writeln!(out, "{line:0width$}: {instruction}"),
                Some(rhs) => writeln!(
                    out,
                    "{line:0width$}: {:<18} X{} ← {rhs}",
                    instruction.to_string(),
                    instruction.z.0 + 1
                ),
            };
        }
        out
    }

    /// A draw below `n`.
    fn below(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// A cell, input or node index: small mostly, seven digits now and then.
    fn index(rng: &mut TestRng) -> u32 {
        let bound = if below(rng, 8) == 0 { 10_000_000 } else { 120 };
        below(rng, bound) as u32
    }

    fn operand(rng: &mut TestRng) -> Operand {
        match below(rng, 3) {
            0 => Operand::Const(below(rng, 2) == 1),
            1 => Operand::Input(index(rng)),
            _ => Operand::Ram(RamAddr(index(rng))),
        }
    }

    /// A random program of `len` instructions over every operand form,
    /// with and without comments of every `Rhs` form, outputs of every
    /// `OutputLoc` form, and addresses large enough that some instruction
    /// columns pass 18 bytes.
    pub(crate) fn arbitrary_program(rng: &mut TestRng, len: usize) -> Program {
        let mut p = Program::new(below(rng, 50) as usize);
        for _ in 0..len {
            let instruction = Instruction::new(operand(rng), operand(rng), RamAddr(index(rng)));
            let complemented = below(rng, 2) == 1;
            match below(rng, 4) {
                0 => p.push(instruction),
                1 => p.push_assignment(instruction, Rhs::Const(complemented)),
                2 => p.push_assignment(instruction, Rhs::Input(index(rng), complemented)),
                _ => p.push_assignment(instruction, Rhs::Node(index(rng), complemented)),
            }
        }
        for k in 0..below(rng, 6) {
            let loc = match below(rng, 3) {
                0 => OutputLoc::Const(below(rng, 2) == 1),
                1 => OutputLoc::Input {
                    index: index(rng),
                    complemented: below(rng, 2) == 1,
                },
                _ => OutputLoc::Ram(RamAddr(index(rng))),
            };
            p.add_output(format!("f{k}"), loc);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The listing writer renders random programs byte for byte like
        /// the `format!` renderer it replaced.
        #[test]
        fn listing_matches_the_format_oracle(seed in any::<u64>(), len in 0usize..240) {
            let p = arbitrary_program(&mut TestRng::new(seed), len);
            prop_assert_eq!(p.listing(), format_listing(&p));
        }
    }

    /// On both sides of each step of the line-number width.
    #[test]
    fn listing_matches_the_oracle_across_line_number_widths() {
        let mut rng = TestRng::for_test("listing_widths");
        for len in [99, 100, 99_999, 100_000] {
            let p = arbitrary_program(&mut rng, len);
            let listing = p.listing();
            assert_eq!(listing, format_listing(&p), "{len} instructions");
            let width = len.to_string().len().max(2);
            assert_eq!(
                listing.lines().last().map(|l| l.find(':')),
                Some(Some(width))
            );
        }
    }
}
