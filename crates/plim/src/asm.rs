//! PLiM assembly: a textual format for RM3 programs.
//!
//! The format extends the paper's listing notation with the interface
//! directives a loader needs:
//!
//! ```text
//! .inputs 3
//! 01: 0, 1, @X1
//! 02: i3, 0, @X1
//! .output f = @X1
//! .output g = !i2
//! .output one = 1
//! ```
//!
//! Instruction lines are `A, B, @Xk` (the leading `NN:` counter is
//! optional and ignored); operands are `0`/`1`, `iK` (primary input K,
//! 1-based as in the paper) or `@Xk` (work cell k, 1-based). Output
//! directives bind a name to a cell, an input (optionally `!`-complemented)
//! or a constant.

use std::fmt;

use crate::isa::{Instruction, Operand, OutputLoc, Program, RamAddr};
use crate::text;

/// Error produced while parsing PLiM assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

/// Serializes a program as PLiM assembly (parseable by [`parse_asm`]).
pub fn write_asm(program: &Program) -> String {
    let width = text::line_number_width(program.len());
    let mut out = String::with_capacity(program.len() * (width + ASM_LINE_BYTES));
    out.push_str(".inputs ");
    text::push_uint(&mut out, program.num_inputs() as u64);
    out.push('\n');
    for (index, instruction) in program.instructions().iter().enumerate() {
        text::push_line_number(&mut out, index + 1, width);
        instruction.push_to(&mut out);
        out.push('\n');
    }
    for (name, loc) in program.outputs() {
        out.push_str(".output ");
        out.push_str(name);
        out.push_str(" = ");
        match *loc {
            OutputLoc::Ram(addr) => addr.push_to(&mut out),
            OutputLoc::Const(v) => out.push(if v { '1' } else { '0' }),
            OutputLoc::Input {
                index,
                complemented,
            } => {
                if complemented {
                    out.push('!');
                }
                out.push('i');
                text::push_uint(&mut out, u64::from(index) + 1);
            }
        }
        out.push('\n');
    }
    out
}

/// Bytes an instruction line takes past its line number, as sized up
/// front (`i12, @X345, @X67`).
const ASM_LINE_BYTES: usize = 18;

fn parse_operand(token: &str, line: usize) -> Result<Operand, ParseAsmError> {
    let err = |message: String| ParseAsmError { line, message };
    match token {
        "0" => Ok(Operand::Const(false)),
        "1" => Ok(Operand::Const(true)),
        _ => {
            if let Some(rest) = token.strip_prefix("@X") {
                let k: u32 = rest
                    .parse()
                    .map_err(|_| err(format!("bad cell `{token}`")))?;
                if k == 0 {
                    return Err(err("cell numbers are 1-based".to_string()));
                }
                Ok(Operand::Ram(RamAddr(k - 1)))
            } else if let Some(rest) = token.strip_prefix('i') {
                let k: u32 = rest
                    .parse()
                    .map_err(|_| err(format!("bad input `{token}`")))?;
                if k == 0 {
                    return Err(err("input numbers are 1-based".to_string()));
                }
                Ok(Operand::Input(k - 1))
            } else {
                Err(err(format!("unrecognized operand `{token}`")))
            }
        }
    }
}

/// Parses PLiM assembly into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseAsmError`] on malformed directives, operands, or
/// destinations.
pub fn parse_asm(text: &str) -> Result<Program, ParseAsmError> {
    let err = |line: usize, message: &str| ParseAsmError {
        line,
        message: message.to_string(),
    };
    let mut program = Program::new(0);
    let mut num_inputs: Option<usize> = None;

    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = keyword(line, ".inputs") {
            let n = rest
                .trim()
                .parse()
                .map_err(|_| err(line_no, "bad .inputs count"))?;
            num_inputs = Some(n);
            let outputs: Vec<(String, OutputLoc)> = program.outputs().to_vec();
            let mut fresh = Program::new(n);
            for &i in program.instructions() {
                fresh.push(i);
            }
            for (name, loc) in outputs {
                fresh.add_output(name, loc);
            }
            program = fresh;
        } else if let Some(rest) = keyword(line, ".output") {
            let mut parts = rest.splitn(2, '=');
            let name = parts
                .next()
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| err(line_no, "missing output name"))?;
            let target = parts
                .next()
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| err(line_no, "missing `=` in .output"))?;
            let (complemented, target) = match target.strip_prefix('!') {
                Some(rest) => (true, rest),
                None => (false, target),
            };
            let loc = match parse_operand(target, line_no)? {
                Operand::Const(v) => OutputLoc::Const(v ^ complemented),
                Operand::Input(i) => OutputLoc::Input {
                    index: i,
                    complemented,
                },
                Operand::Ram(addr) => {
                    if complemented {
                        return Err(err(line_no, "cell outputs cannot be complemented"));
                    }
                    OutputLoc::Ram(addr)
                }
            };
            program.add_output(name, loc);
        } else if line.starts_with('.') {
            let directive = line.split_whitespace().next().unwrap_or(line);
            return Err(err(line_no, &format!("unknown directive `{directive}`")));
        } else {
            // Instruction line, with an optional `NN:` prefix.
            let body = match line.split_once(':') {
                Some((counter, rest)) if counter.trim().parse::<usize>().is_ok() => rest,
                _ => line,
            };
            let tokens: Vec<&str> = body.split(',').map(str::trim).collect();
            if tokens.len() != 3 {
                return Err(err(line_no, "instruction needs `A, B, @Xk`"));
            }
            let a = parse_operand(tokens[0], line_no)?;
            let b = parse_operand(tokens[1], line_no)?;
            let z = match parse_operand(tokens[2], line_no)? {
                Operand::Ram(addr) => addr,
                _ => return Err(err(line_no, "destination must be a cell `@Xk`")),
            };
            program.push(Instruction::new(a, b, z));
        }
    }

    if num_inputs.is_none() {
        // Infer from the largest referenced input.
        let max_input = program
            .instructions()
            .iter()
            .flat_map(|i| [i.a, i.b])
            .filter_map(|o| match o {
                Operand::Input(i) => Some(i as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let outputs: Vec<(String, OutputLoc)> = program.outputs().to_vec();
        let mut fresh = Program::new(max_input);
        for &i in program.instructions() {
            fresh.push(i);
        }
        for (name, loc) in outputs {
            fresh.add_output(name, loc);
        }
        program = fresh;
    }
    Ok(program)
}

/// The rest of `line` after a leading `keyword`, if the keyword is a whole
/// token there: followed by whitespace or the end of the line.
fn keyword<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?;
    (rest.is_empty() || rest.starts_with(char::is_whitespace)).then_some(rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::tests::arbitrary_program;
    use crate::machine::Machine;
    use proptest::{any, prop_assert_eq, proptest, ProptestConfig, TestRng};

    /// The `format!` renderer [`write_asm`] replaced, kept as its oracle.
    fn format_asm(program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, ".inputs {}", program.num_inputs());
        let width = program.len().to_string().len().max(2);
        for (index, instruction) in program.instructions().iter().enumerate() {
            let _ = writeln!(out, "{:0width$}: {}", index + 1, instruction);
        }
        for (name, loc) in program.outputs() {
            let target = match loc {
                OutputLoc::Ram(addr) => format!("{addr}"),
                OutputLoc::Const(v) => format!("{}", *v as u8),
                OutputLoc::Input {
                    index,
                    complemented,
                } => format!("{}i{}", if *complemented { "!" } else { "" }, index + 1),
            };
            let _ = writeln!(out, ".output {name} = {target}");
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `write_asm` renders random programs byte for byte like the
        /// `format!` renderer it replaced.
        #[test]
        fn write_asm_matches_the_format_oracle(seed in any::<u64>(), len in 0usize..240) {
            let p = arbitrary_program(&mut TestRng::new(seed), len);
            prop_assert_eq!(write_asm(&p), format_asm(&p));
        }
    }

    /// On both sides of each step of the line-number width.
    #[test]
    fn write_asm_matches_the_oracle_across_line_number_widths() {
        let mut rng = TestRng::for_test("asm_widths");
        for len in [99, 100, 99_999, 100_000] {
            let p = arbitrary_program(&mut rng, len);
            assert_eq!(write_asm(&p), format_asm(&p), "{len} instructions");
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut p = Program::new(3);
        p.push(Instruction::reset(RamAddr(0)));
        p.push(Instruction::new(
            Operand::Input(2),
            Operand::Const(false),
            RamAddr(0),
        ));
        p.push(Instruction::new(
            Operand::Ram(RamAddr(0)),
            Operand::Input(0),
            RamAddr(1),
        ));
        p.add_output("f", OutputLoc::Ram(RamAddr(1)));
        p.add_output(
            "g",
            OutputLoc::Input {
                index: 1,
                complemented: true,
            },
        );
        p.add_output("k", OutputLoc::Const(true));

        let text = write_asm(&p);
        let parsed = parse_asm(&text).unwrap();
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.instructions(), p.instructions());
        assert_eq!(parsed.outputs(), p.outputs());
    }

    #[test]
    fn executes_identically_after_roundtrip() {
        let mut p = Program::new(2);
        p.push(Instruction::reset(RamAddr(0)));
        p.push(Instruction::new(
            Operand::Input(0),
            Operand::Input(1),
            RamAddr(0),
        ));
        p.add_output("f", OutputLoc::Ram(RamAddr(0)));
        let parsed = parse_asm(&write_asm(&p)).unwrap();
        let mut m1 = Machine::new();
        let mut m2 = Machine::new();
        for pattern in 0..4 {
            let inputs = [pattern & 1 != 0, pattern & 2 != 0];
            assert_eq!(
                m1.run(&p, &inputs).unwrap(),
                m2.run(&parsed, &inputs).unwrap()
            );
        }
    }

    #[test]
    fn parses_paper_listing_style() {
        let text = "\
.inputs 3
01: 0, 1, @X1
02: i3, 0, @X1
03: i1, i2, @X1
.output f = @X1
";
        let p = parse_asm(text).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_rams(), 1);
        assert_eq!(p.num_inputs(), 3);
    }

    #[test]
    fn counter_prefix_is_optional_and_comments_ignored() {
        let text = "0, 1, @X1  # reset\ni1, 0, @X1\n.output f = @X1\n";
        let p = parse_asm(text).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_inputs(), 1, "inferred from i1");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_asm("0, 1\n").is_err());
        assert!(parse_asm("0, 1, i2\n").is_err());
        assert!(parse_asm("0, 1, @X0\n").is_err());
        assert!(parse_asm("zz, 1, @X1\n").is_err());
        assert!(parse_asm(".output f\n").is_err());
        assert!(parse_asm(".output f = !@X1\n").is_err());
        assert!(parse_asm(".inputs many\n").is_err());
        assert!(parse_asm("i0, 1, @X1\n").is_err());
    }

    /// `.outputs` is no `.output` directive followed by a name `s f`.
    #[test]
    fn an_outputs_line_is_an_unknown_directive() {
        let e = parse_asm("0, 1, @X1\n.outputs f = @X1\n").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "unknown directive `.outputs`")
        );
    }

    /// `.inputsx` is no `.inputs` directive with a bad count.
    #[test]
    fn an_inputsx_line_is_an_unknown_directive() {
        let e = parse_asm(".inputsx 2\n").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (1, "unknown directive `.inputsx`")
        );
    }

    #[test]
    fn complemented_constant_output_folds() {
        let p = parse_asm(".output f = !0\n").unwrap();
        assert_eq!(p.outputs()[0].1, OutputLoc::Const(true));
    }
}
