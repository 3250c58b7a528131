//! ASCII (`.aag`) and binary (`.aig`) AIGER import, plus ASCII export.
//!
//! The EPFL benchmark suite the paper evaluates on is distributed in the
//! AIGER format. This module reads combinational AIGER files into
//! MIGs (ANDs become majority nodes with a constant-0 child — the exact
//! "transposed AOIG" starting point of the paper) and writes MIGs back out,
//! decomposing full majority nodes into their AND/OR expansion.
//!
//! The binary format ([`parse_binary_aiger`]) shares the ASCII header
//! shape but encodes the AND section as delta-coded 7-bit varints; its
//! ordering discipline (each AND's operands are strictly smaller than its
//! output literal) makes forward references, duplicates, and cycles
//! unrepresentable, so the decoder only has to harden against truncation,
//! varint overflow, and header/section disagreement.
//!
//! Only combinational AIGs are supported (no latches).

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::graph::Mig;
use crate::node::MigNode;
use crate::signal::Signal;

/// Error produced while parsing an ASCII AIGER file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAigerError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAigerError {}

/// Parses a combinational ASCII AIGER (`aag`) document into an MIG.
///
/// AND gates map to `⟨0 a b⟩`; inverters map to complemented edges. Latches
/// are rejected. Symbol-table names for inputs and outputs are honored.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed headers, out-of-range literals,
/// sequential circuits, or undefined AND operands.
///
/// # Examples
///
/// ```
/// use mig::aiger::parse_aiger;
///
/// // f = a AND NOT b
/// let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 5\ni0 a\ni1 b\no0 f\n";
/// let mig = parse_aiger(src).unwrap();
/// assert_eq!(mig.num_inputs(), 2);
/// assert_eq!(mig.num_majority_nodes(), 1);
/// ```
pub fn parse_aiger(text: &str) -> Result<Mig, ParseAigerError> {
    let err = |line: usize, message: &str| ParseAigerError {
        line,
        message: message.to_string(),
    };
    let mut lines = text.lines().enumerate();
    // The 1-based number of the most recently consumed line, so truncated
    // documents report where the input actually stopped.
    let mut last_line = 1usize;

    let (_, header) = lines.next().ok_or_else(|| err(1, "empty document"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(err(1, "expected header `aag M I L O A`"));
    }
    let parse_field = |s: &str| s.parse::<usize>().map_err(|_| err(1, "bad header field"));
    let max_var = parse_field(fields[1])?;
    let num_inputs = parse_field(fields[2])?;
    let num_latches = parse_field(fields[3])?;
    let num_outputs = parse_field(fields[4])?;
    let num_ands = parse_field(fields[5])?;
    if num_latches != 0 {
        return Err(err(1, "sequential AIGs (latches) are not supported"));
    }
    // Header counts are claims, not sizes: every declared input, output and
    // AND takes a line of at least two bytes, so no buffer is reserved
    // beyond what the document could fill.
    let lines_left = text.len() / 2 + 1;

    let mut mig = Mig::new();
    // literal → signal, keyed by variable (literal / 2). Sparse, because
    // variables need not be consecutive: `M` bounds the indices, not the
    // definitions.
    let mut map: HashMap<usize, Signal> = HashMap::new();
    map.insert(0, Signal::FALSE);

    let take_line = |what: &str,
                     lines: &mut std::iter::Enumerate<std::str::Lines<'_>>,
                     last_line: &mut usize|
     -> Result<(usize, String), ParseAigerError> {
        match lines.next() {
            Some((i, l)) => {
                *last_line = i + 1;
                Ok((i + 1, l.to_string()))
            }
            None => Err(err(
                *last_line,
                &format!("unexpected end of file reading {what}"),
            )),
        }
    };

    let mut input_vars = Vec::with_capacity(num_inputs.min(lines_left));
    for k in 0..num_inputs {
        let (line_no, line) = take_line("an input literal", &mut lines, &mut last_line)?;
        let lit: usize = line
            .trim()
            .parse()
            .map_err(|_| err(line_no, "bad input literal"))?;
        if !lit.is_multiple_of(2) || lit / 2 > max_var || lit == 0 {
            return Err(err(line_no, "input literal must be a fresh even literal"));
        }
        let signal = mig.add_input(format!("i{k}"));
        if map.insert(lit / 2, signal).is_some() {
            return Err(err(line_no, "duplicate variable definition"));
        }
        input_vars.push(lit / 2);
    }

    // Each output keeps the line it was declared on, so errors discovered
    // later (an undefined literal) can point at the offending line.
    let mut output_lits = Vec::with_capacity(num_outputs.min(lines_left));
    for _ in 0..num_outputs {
        let (line_no, line) = take_line("an output literal", &mut lines, &mut last_line)?;
        let lit: usize = line
            .trim()
            .parse()
            .map_err(|_| err(line_no, "bad output literal"))?;
        if lit / 2 > max_var {
            return Err(err(line_no, "output literal out of range"));
        }
        output_lits.push((line_no, lit));
    }

    let mut and_defs = Vec::with_capacity(num_ands.min(lines_left));
    let mut and_outputs = HashSet::new();
    for _ in 0..num_ands {
        let (line_no, line) = take_line("an AND definition", &mut lines, &mut last_line)?;
        let lits: Vec<usize> = line
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| err(line_no, "bad AND literal")))
            .collect::<Result<_, _>>()?;
        if lits.len() != 3 {
            return Err(err(line_no, "AND definition needs three literals"));
        }
        if !lits[0].is_multiple_of(2) || lits[0] / 2 > max_var {
            return Err(err(line_no, "AND output must be a fresh even literal"));
        }
        if lits[1] / 2 > max_var || lits[2] / 2 > max_var {
            return Err(err(line_no, "AND operand literal out of range"));
        }
        let var = lits[0] / 2;
        if map.contains_key(&var) || !and_outputs.insert(var) {
            return Err(err(line_no, "duplicate variable definition"));
        }
        and_defs.push((line_no, lits[0], lits[1], lits[2]));
    }

    // AIGER allows AND definitions in any topological order; ours resolves
    // them with a worklist.
    let mut pending = and_defs;
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|&(line_no, out, a, b)| {
            let resolve = |lit: usize| map.get(&(lit / 2)).map(|s| s.complement_if(lit % 2 == 1));
            match (resolve(a), resolve(b)) {
                (Some(sa), Some(sb)) => {
                    let gate = mig.and(sa, sb);
                    map.insert(out / 2, gate);
                    let _ = line_no;
                    false
                }
                _ => true,
            }
        });
        if pending.len() == before {
            let (line_no, ..) = pending[0];
            return Err(err(line_no, "AND operands form a cycle or are undefined"));
        }
    }

    // Symbol table (optional): `iK name` / `oK name`; comments after `c`.
    let mut input_names: Vec<Option<String>> = vec![None; num_inputs];
    let mut output_names: Vec<Option<String>> = vec![None; num_outputs];
    for (line_no, line) in lines {
        let line = line.trim();
        if line == "c" || line.starts_with("c ") {
            break;
        }
        if line.is_empty() {
            continue;
        }
        let (kind, rest) = line.split_at(1);
        let mut parts = rest.splitn(2, ' ');
        let index: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err(line_no + 1, "bad symbol table index"))?;
        let name = parts.next().unwrap_or("").to_string();
        match kind {
            "i" if index < num_inputs => input_names[index] = Some(name),
            "o" if index < num_outputs => output_names[index] = Some(name),
            _ => return Err(err(line_no + 1, "bad symbol table entry")),
        }
    }

    // Rebuild with final names (inputs were created before names were known).
    let mut named = Mig::new();
    let mut name_map: Vec<Option<Signal>> = vec![None; mig.len()];
    name_map[0] = Some(Signal::FALSE);
    for (k, &id) in mig.inputs().iter().enumerate() {
        let name = input_names[k].clone().unwrap_or_else(|| format!("i{k}"));
        name_map[id.index()] = Some(named.add_input(name));
    }
    for id in mig.node_ids() {
        if let MigNode::Majority(children) = mig.node(id) {
            let mapped: Vec<Signal> = children
                .iter()
                .map(|c| {
                    name_map[c.node().index()]
                        .expect("topological order")
                        .complement_if(c.is_complemented())
                })
                .collect();
            name_map[id.index()] = Some(named.maj(mapped[0], mapped[1], mapped[2]));
        }
    }
    for (k, &(line_no, lit)) in output_lits.iter().enumerate() {
        let signal = map
            .get(&(lit / 2))
            .ok_or_else(|| err(line_no, "output references an undefined literal"))?
            .complement_if(lit % 2 == 1);
        let mapped = name_map[signal.node().index()]
            .expect("defined")
            .complement_if(signal.is_complemented());
        let name = output_names[k].clone().unwrap_or_else(|| format!("o{k}"));
        named.add_output(name, mapped);
    }
    Ok(named)
}

/// The most inputs a binary AIGER header may declare. The format spends no
/// bytes on inputs, so this limit, not the document's length, bounds them.
const MAX_BINARY_INPUTS: usize = 1 << 20;

/// Parses a combinational binary AIGER (`aig`) document into an MIG.
///
/// The header is the ASCII line `aig M I L O A` with `M = I + L + A`
/// (inputs are implicit: input `k` is literal `2(k+1)`), followed by `O`
/// ASCII output-literal lines, then `A` AND gates. The `i`-th AND defines
/// literal `lhs = 2(I + L + i + 1)` and stores two 7-bit little-endian
/// varint deltas: `rhs0 = lhs - delta0` (with `delta0 >= 1`) and
/// `rhs1 = rhs0 - delta1`. An optional ASCII symbol table and comment
/// section follow, honored exactly as in [`parse_aiger`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed or inconsistent headers,
/// sequential circuits, out-of-range output literals, truncated or
/// overflowing varints, deltas that underflow their literal (including
/// `delta0 == 0`, a self-reference), and malformed symbol tables. Error
/// lines point into the ASCII prefix; errors inside the binary AND
/// section carry the line where that section begins.
pub fn parse_binary_aiger(bytes: &[u8]) -> Result<Mig, ParseAigerError> {
    let err = |line: usize, message: &str| ParseAigerError {
        line,
        message: message.to_string(),
    };

    // Header: one ASCII line `aig M I L O A`.
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| err(1, "missing header line"))?;
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| err(1, "header is not ASCII text"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aig" {
        return Err(err(1, "expected header `aig M I L O A`"));
    }
    let parse_field = |s: &str| s.parse::<usize>().map_err(|_| err(1, "bad header field"));
    let max_var = parse_field(fields[1])?;
    let num_inputs = parse_field(fields[2])?;
    let num_latches = parse_field(fields[3])?;
    let num_outputs = parse_field(fields[4])?;
    let num_ands = parse_field(fields[5])?;
    if num_latches != 0 {
        return Err(err(1, "sequential AIGs (latches) are not supported"));
    }
    // In the binary format every variable is either an implicit input or
    // an AND output, so M is fully determined; a disagreeing header is
    // corrupt, not merely sloppy.
    if num_inputs.checked_add(num_ands) != Some(max_var) {
        return Err(err(1, "header requires M = I + L + A"));
    }
    if max_var >= usize::try_from(u32::MAX / 2).expect("fits usize") {
        return Err(err(1, "header variable count out of range"));
    }
    // Inputs are implicit, so no byte of the document bounds their number;
    // a fixed limit keeps a short header from demanding gigabytes.
    if num_inputs > MAX_BINARY_INPUTS {
        return Err(err(
            1,
            &format!("header declares more than {MAX_BINARY_INPUTS} inputs"),
        ));
    }

    let mut pos = header_end + 1;
    let mut line = 1usize;

    // O output-literal lines, still ASCII.
    let mut output_lits = Vec::with_capacity(num_outputs.min(bytes.len()));
    for _ in 0..num_outputs {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| err(line, "unexpected end of file reading an output literal"))?;
        line += 1;
        let text = std::str::from_utf8(&bytes[pos..pos + end])
            .map_err(|_| err(line, "output literal is not ASCII text"))?;
        let lit: usize = text
            .trim()
            .parse()
            .map_err(|_| err(line, "bad output literal"))?;
        if lit / 2 > max_var {
            return Err(err(line, "output literal out of range"));
        }
        output_lits.push(lit);
        pos += end + 1;
    }

    // The AND section: 2A delta varints of at least one byte each. The
    // up-front size check both reports truncation before decoding and caps
    // the allocations a hostile header could otherwise demand.
    let and_line = line + 1;
    if bytes.len().saturating_sub(pos) / 2 < num_ands {
        return Err(err(and_line, "unexpected end of file in the AND section"));
    }
    let read_varint = |pos: &mut usize| -> Result<usize, ParseAigerError> {
        let mut value = 0usize;
        let mut shift = 0u32;
        loop {
            let &byte = bytes
                .get(*pos)
                .ok_or_else(|| err(and_line, "unexpected end of file in the AND section"))?;
            *pos += 1;
            if shift >= 63 {
                return Err(err(and_line, "delta varint overflows"));
            }
            value |= usize::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    };
    let mut ands = Vec::with_capacity(num_ands);
    for i in 0..num_ands {
        let lhs = 2 * (num_inputs + i + 1);
        let delta0 = read_varint(&mut pos)?;
        if delta0 == 0 {
            return Err(err(and_line, "AND operand equals its own output literal"));
        }
        let rhs0 = lhs
            .checked_sub(delta0)
            .ok_or_else(|| err(and_line, "AND delta underflows its output literal"))?;
        let delta1 = read_varint(&mut pos)?;
        let rhs1 = rhs0
            .checked_sub(delta1)
            .ok_or_else(|| err(and_line, "AND delta underflows its first operand"))?;
        ands.push((rhs0, rhs1));
    }

    // Symbol table (optional): the ASCII tail, same grammar as `aag`.
    let mut input_names: Vec<Option<String>> = vec![None; num_inputs];
    let mut output_names: Vec<Option<String>> = vec![None; num_outputs];
    if pos < bytes.len() {
        let tail = std::str::from_utf8(&bytes[pos..])
            .map_err(|_| err(and_line, "symbol table is not valid UTF-8 text"))?;
        for (k, raw) in tail.lines().enumerate() {
            let line_no = and_line + 1 + k;
            let entry = raw.trim();
            if entry == "c" || entry.starts_with("c ") {
                break;
            }
            if entry.is_empty() {
                continue;
            }
            let (kind, rest) = entry.split_at(1);
            let mut parts = rest.splitn(2, ' ');
            let index: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(line_no, "bad symbol table index"))?;
            let name = parts.next().unwrap_or("").to_string();
            match kind {
                "i" if index < num_inputs => input_names[index] = Some(name),
                "o" if index < num_outputs => output_names[index] = Some(name),
                _ => return Err(err(line_no, "bad symbol table entry")),
            }
        }
    }

    // Build the MIG in one pass: the delta coding guarantees every AND's
    // operands were defined before it, so no worklist is needed.
    let mut mig = Mig::new();
    let mut signals: Vec<Signal> = Vec::with_capacity(max_var + 1);
    signals.push(Signal::FALSE);
    for (k, name) in input_names.iter().enumerate() {
        let name = name.clone().unwrap_or_else(|| format!("i{k}"));
        signals.push(mig.add_input(name));
    }
    for &(rhs0, rhs1) in &ands {
        let resolve = |lit: usize| signals[lit / 2].complement_if(!lit.is_multiple_of(2));
        let gate = mig.and(resolve(rhs0), resolve(rhs1));
        signals.push(gate);
    }
    for (k, &lit) in output_lits.iter().enumerate() {
        let name = output_names[k].clone().unwrap_or_else(|| format!("o{k}"));
        let signal = signals[lit / 2].complement_if(!lit.is_multiple_of(2));
        mig.add_output(name, signal);
    }
    Ok(mig)
}

/// Writes an MIG as a combinational ASCII AIGER document.
///
/// AND/OR-shaped majority nodes (one constant child) map directly to one
/// AND gate (OR via De Morgan); full majority nodes are decomposed into
/// their 4-AND expansion `¬(¬(ab) ∧ ¬(ac) ∧ ¬(bc))`.
pub fn write_aiger(mig: &Mig) -> String {
    use std::fmt::Write as _;

    // Assign AIGER variables: inputs first, then one or more ANDs per node.
    let mut literal: Vec<u32> = vec![0; mig.len()]; // positive literal per node
    let mut next_var = 1u32;
    for &id in mig.inputs() {
        literal[id.index()] = next_var * 2;
        next_var += 1;
    }

    let mut ands: Vec<(u32, u32, u32)> = Vec::new();
    let mut new_and = |a: u32, b: u32, ands: &mut Vec<(u32, u32, u32)>| -> u32 {
        let out = next_var * 2;
        next_var += 1;
        ands.push((out, a, b));
        out
    };

    for id in mig.node_ids() {
        let MigNode::Majority(children) = mig.node(id) else {
            continue;
        };
        let lit = |s: &Signal| literal[s.node().index()] ^ s.is_complemented() as u32;
        let constant = children.iter().position(|c| c.is_constant());
        let out = match constant {
            Some(k) => {
                let value = children[k].constant_value().expect("constant");
                let rest: Vec<u32> = (0..3)
                    .filter(|&i| i != k)
                    .map(|i| lit(&children[i]))
                    .collect();
                if value {
                    // OR = ¬(¬a ∧ ¬b)
                    new_and(rest[0] ^ 1, rest[1] ^ 1, &mut ands) ^ 1
                } else {
                    new_and(rest[0], rest[1], &mut ands)
                }
            }
            None => {
                let (a, b, c) = (lit(&children[0]), lit(&children[1]), lit(&children[2]));
                let ab = new_and(a, b, &mut ands);
                let ac = new_and(a, c, &mut ands);
                let bc = new_and(b, c, &mut ands);
                let n1 = new_and(ab ^ 1, ac ^ 1, &mut ands);
                new_and(n1, bc ^ 1, &mut ands) ^ 1
            }
        };
        // `out` may be odd (the node's function is the complement of an
        // AND output); edge complements simply XOR onto it.
        literal[id.index()] = out;
    }

    let mut out = String::new();
    let num_ands = ands.len();
    let _ = writeln!(
        out,
        "aag {} {} 0 {} {}",
        next_var - 1,
        mig.num_inputs(),
        mig.num_outputs(),
        num_ands
    );
    for &id in mig.inputs() {
        let _ = writeln!(out, "{}", literal[id.index()]);
    }
    for (_, signal) in mig.outputs() {
        let lit = literal[signal.node().index()] ^ signal.is_complemented() as u32;
        let _ = writeln!(out, "{lit}");
    }
    for (o, a, b) in ands {
        let _ = writeln!(out, "{o} {a} {b}");
    }
    for k in 0..mig.num_inputs() {
        let _ = writeln!(out, "i{k} {}", mig.input_name(k));
    }
    for (k, (name, _)) in mig.outputs().iter().enumerate() {
        let _ = writeln!(out, "o{k} {name}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equivalence;

    #[test]
    fn parses_minimal_and() {
        let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let mig = parse_aiger(src).unwrap();
        assert_eq!(mig.num_inputs(), 2);
        assert_eq!(mig.num_outputs(), 1);
        assert_eq!(mig.num_majority_nodes(), 1);
        let tts = crate::simulate::truth_tables(&mig);
        assert_eq!(tts[0].blocks()[0], 0b1000);
    }

    #[test]
    fn parses_inverted_edges_and_outputs() {
        // f = NOT(a AND NOT b)
        let src = "aag 3 2 0 1 1\n2\n4\n7\n6 2 5\n";
        let mig = parse_aiger(src).unwrap();
        let tts = crate::simulate::truth_tables(&mig);
        // a AND NOT b = 0b0010 → complement 0b1101.
        assert_eq!(tts[0].blocks()[0], 0b1101);
    }

    #[test]
    fn honors_symbol_table() {
        let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 alpha\ni1 beta\no0 result\n";
        let mig = parse_aiger(src).unwrap();
        assert_eq!(mig.input_name(0), "alpha");
        assert_eq!(mig.input_name(1), "beta");
        assert_eq!(mig.outputs()[0].0, "result");
    }

    #[test]
    fn rejects_latches_and_bad_headers() {
        assert!(parse_aiger("aag 1 0 1 0 0\n").is_err());
        assert!(parse_aiger("aig 1 0 0 0 0\n").is_err());
        assert!(parse_aiger("").is_err());
        assert!(parse_aiger("aag 1 0 0 0\n").is_err());
    }

    #[test]
    fn rejects_truncated_documents() {
        // Header promises inputs/outputs/ANDs that never arrive. The error
        // must carry the last line the parser actually read, not line 0.
        for (src, what, last_line) in [
            ("aag 3 2 0 1 1\n2\n", "input", 2),
            ("aag 3 2 0 1 1\n2\n4\n", "output", 3),
            ("aag 3 2 0 1 1\n2\n4\n6\n", "AND definition", 4),
        ] {
            let e = parse_aiger(src).unwrap_err();
            assert!(e.message.contains("unexpected end of file"), "{what}: {e}");
            assert_eq!(e.line, last_line, "{what}: {e}");
        }
        // A document truncated right after the header points at line 1.
        let e = parse_aiger("aag 3 2 0 1 1\n").unwrap_err();
        assert!(e.message.contains("unexpected end of file"), "{e}");
        assert_eq!(e.line, 1);
        // A header cut short mid-field is rejected up front.
        let e = parse_aiger("aag 3 2 0\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected header"));
        assert!(parse_aiger("aag 3 2 x 1 1\n").is_err());
    }

    /// Header counts are claims: a short document declaring billions of
    /// variables gets a one-line error without reserving room for them, and
    /// a sparse variable numbering is still accepted.
    #[test]
    fn huge_headers_cost_only_what_the_document_defines() {
        let e = parse_aiger("aag 4000000000 4000000000 0 0 0\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(
            e.message
                .contains("unexpected end of file reading an input"),
            "{e}"
        );
        let e = parse_aiger("aag 18446744073709551615 0 0 1 0\n2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("undefined literal"), "{e}");
        let sparse = "aag 4000000000 1 0 1 1\n8000000000\n4\n4 8000000000 1\n";
        let mig = parse_aiger(sparse).unwrap();
        assert_eq!((mig.num_inputs(), mig.outputs().len()), (1, 1));
    }

    #[test]
    fn rejects_out_of_range_literals() {
        // Input literal beyond the declared maximum variable.
        let e = parse_aiger("aag 1 1 0 0 0\n4\n").unwrap_err();
        assert!(e.message.contains("fresh even literal"), "{e}");
        assert_eq!(e.line, 2);
        // Odd input literal.
        assert!(parse_aiger("aag 1 1 0 0 0\n3\n").is_err());
        // Output literal beyond the maximum variable.
        let e = parse_aiger("aag 1 1 0 1 0\n2\n9\n").unwrap_err();
        assert!(e.message.contains("output literal out of range"), "{e}");
        // AND output beyond the maximum variable.
        let e = parse_aiger("aag 2 1 0 1 1\n2\n4\n8 2 2\n").unwrap_err();
        assert!(e.message.contains("fresh even literal"), "{e}");
        // AND operand beyond the maximum variable (must error, not panic).
        let e = parse_aiger("aag 2 1 0 1 1\n2\n4\n4 98 2\n").unwrap_err();
        assert!(e.message.contains("operand literal out of range"), "{e}");
    }

    #[test]
    fn rejects_reused_output_literals() {
        // An AND redefining an input variable.
        let e = parse_aiger("aag 3 2 0 1 1\n2\n4\n6\n2 2 4\n").unwrap_err();
        assert!(e.message.contains("duplicate variable definition"), "{e}");
        // Two ANDs writing the same variable.
        let e = parse_aiger("aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n6 4 2\n").unwrap_err();
        assert!(e.message.contains("duplicate variable definition"), "{e}");
        assert_eq!(e.line, 6);
        // An AND redefining the constant.
        let e = parse_aiger("aag 2 1 0 1 1\n2\n4\n0 2 2\n").unwrap_err();
        assert!(e.message.contains("duplicate variable definition"), "{e}");
        // Duplicate input literals are already rejected.
        let e = parse_aiger("aag 2 2 0 0 0\n2\n2\n").unwrap_err();
        assert!(e.message.contains("duplicate variable definition"), "{e}");
    }

    #[test]
    fn undefined_output_literal_reports_its_line() {
        // Output literal 4 (variable 2) is declared by neither an input nor
        // an AND; the error must point at the output's own line (3).
        let e = parse_aiger("aag 2 1 0 1 0\n2\n4\n").unwrap_err();
        assert!(
            e.message.contains("output references an undefined literal"),
            "{e}"
        );
        assert_eq!(e.line, 3);
        // With two outputs, the second one (line 4) is the offender.
        let e = parse_aiger("aag 2 1 0 2 0\n2\n2\n5\n").unwrap_err();
        assert!(
            e.message.contains("output references an undefined literal"),
            "{e}"
        );
        assert_eq!(e.line, 4);
    }

    #[test]
    fn rejects_cyclic_ands() {
        let src = "aag 4 1 0 1 2\n2\n8\n6 8 2\n8 6 2\n";
        let e = parse_aiger(src).unwrap_err();
        assert!(e.message.contains("cycle"));
    }

    #[test]
    fn constant_outputs_parse() {
        // Output literal 1 = constant true.
        let src = "aag 1 1 0 2 0\n2\n1\n0\n";
        let mig = parse_aiger(src).unwrap();
        let tts = crate::simulate::truth_tables(&mig);
        assert_eq!(tts[0].count_ones(), 2); // constant 1 over 1 var
        assert_eq!(tts[1].count_ones(), 0);
    }

    /// Encodes one 7-bit little-endian AIGER varint.
    fn varint(mut v: usize) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let byte = u8::try_from(v & 0x7f).expect("masked");
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return out;
            }
            out.push(byte | 0x80);
        }
    }

    /// Assembles a binary AIGER document from its ASCII prefix and the
    /// delta pairs of the AND section.
    fn binary_doc(prefix: &str, deltas: &[(usize, usize)], tail: &str) -> Vec<u8> {
        let mut bytes = prefix.as_bytes().to_vec();
        for &(d0, d1) in deltas {
            bytes.extend(varint(d0));
            bytes.extend(varint(d1));
        }
        bytes.extend(tail.as_bytes());
        bytes
    }

    #[test]
    fn binary_matches_ascii_on_a_minimal_and() {
        // f = NOT b AND a: lhs 6, rhs0 5, rhs1 2 → deltas (1, 3).
        let bin = binary_doc("aig 3 2 0 1 1\n6\n", &[(1, 3)], "");
        let from_binary = parse_binary_aiger(&bin).unwrap();
        let from_ascii = parse_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 5 2\n").unwrap();
        assert!(check_equivalence(&from_binary, &from_ascii, 8, 7)
            .unwrap()
            .holds());
        assert_eq!(from_binary.num_inputs(), 2);
        assert_eq!(from_binary.num_majority_nodes(), 1);
    }

    #[test]
    fn binary_decodes_multi_byte_varints_and_symbol_table() {
        // 100 implicit inputs force a two-byte delta: lhs = 2*101 = 202,
        // rhs0 = 4, rhs1 = 2 → deltas (198, 2).
        let bin = binary_doc(
            "aig 101 100 0 1 1\n202\n",
            &[(198, 2)],
            "i0 alpha\ni1 beta\no0 result\nc\nignored comment\n",
        );
        let mig = parse_binary_aiger(&bin).unwrap();
        assert_eq!(mig.num_inputs(), 100);
        assert_eq!(mig.input_name(0), "alpha");
        assert_eq!(mig.input_name(1), "beta");
        assert_eq!(mig.outputs()[0].0, "result");
        assert_eq!(mig.num_majority_nodes(), 1);
    }

    #[test]
    fn binary_outputs_may_reference_inputs_and_constants() {
        let bin = binary_doc("aig 1 1 0 2 0\n1\n2\n", &[], "");
        let mig = parse_binary_aiger(&bin).unwrap();
        let tts = crate::simulate::truth_tables(&mig);
        assert_eq!(tts[0].count_ones(), 2); // constant true over 1 var
        assert_eq!(tts[1].blocks()[0], 0b10); // the input itself
    }

    #[test]
    fn binary_headers_cannot_claim_unbounded_inputs() {
        let e = parse_binary_aiger(b"aig 2000000000 2000000000 0 0 0\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("more than 1048576 inputs"), "{e}");
        let e = parse_binary_aiger(b"aig 0 18446744073709551615 0 0 1\n").unwrap_err();
        assert!(e.message.contains("M = I + L + A"), "{e}");
    }

    #[test]
    fn binary_rejects_bad_headers() {
        // Latches, non-binary magic, inconsistent M, and missing newline.
        assert!(parse_binary_aiger(b"aig 1 0 1 0 0\n").is_err());
        assert!(parse_binary_aiger(b"aag 1 1 0 0 0\n").is_err());
        let e = parse_binary_aiger(b"aig 5 2 0 0 1\n").unwrap_err();
        assert!(e.message.contains("M = I + L + A"), "{e}");
        assert!(parse_binary_aiger(b"aig 3 2 0 1 1").is_err());
        assert!(parse_binary_aiger(b"aig 3 2 x 1 1\n").is_err());
    }

    #[test]
    fn binary_rejects_truncation_everywhere() {
        // Missing output line.
        let e = parse_binary_aiger(b"aig 3 2 0 1 1\n").unwrap_err();
        assert!(e.message.contains("output literal"), "{e}");
        // AND section shorter than the header promises.
        let e = parse_binary_aiger(b"aig 3 2 0 1 1\n6\n\x01").unwrap_err();
        assert!(e.message.contains("AND section"), "{e}");
        // A varint whose continuation bit runs off the end of the file.
        let bin = binary_doc("aig 3 2 0 1 1\n6\n", &[], "");
        let e = parse_binary_aiger(&[bin, vec![0x81, 0x80]].concat()).unwrap_err();
        assert!(e.message.contains("AND section"), "{e}");
    }

    #[test]
    fn binary_rejects_overflowing_and_underflowing_deltas() {
        // Ten continuation bytes push the varint past 63 bits.
        let mut bin = binary_doc("aig 3 2 0 1 1\n6\n", &[], "");
        bin.extend([0xff; 10]);
        bin.push(0x01);
        let e = parse_binary_aiger(&bin).unwrap_err();
        assert!(e.message.contains("overflow"), "{e}");
        // delta0 = 0 would make the AND its own operand.
        let e = parse_binary_aiger(&binary_doc("aig 3 2 0 1 1\n6\n", &[(0, 0)], "")).unwrap_err();
        assert!(e.message.contains("own output literal"), "{e}");
        // delta0 larger than the lhs literal underflows.
        let e = parse_binary_aiger(&binary_doc("aig 3 2 0 1 1\n6\n", &[(7, 0)], "")).unwrap_err();
        assert!(e.message.contains("underflow"), "{e}");
        // delta1 larger than rhs0 underflows.
        let e = parse_binary_aiger(&binary_doc("aig 3 2 0 1 1\n6\n", &[(2, 5)], "")).unwrap_err();
        assert!(e.message.contains("underflow"), "{e}");
    }

    #[test]
    fn binary_rejects_out_of_range_outputs_and_bad_symbols() {
        let e = parse_binary_aiger(&binary_doc("aig 3 2 0 1 1\n9\n", &[(2, 2)], "")).unwrap_err();
        assert!(e.message.contains("output literal out of range"), "{e}");
        let e = parse_binary_aiger(&binary_doc("aig 3 2 0 1 1\n6\n", &[(2, 2)], "i9 nope\n"))
            .unwrap_err();
        assert!(e.message.contains("bad symbol table entry"), "{e}");
        let e = parse_binary_aiger(&binary_doc("aig 3 2 0 1 1\n6\n", &[(2, 2)], "ix nope\n"))
            .unwrap_err();
        assert!(e.message.contains("bad symbol table index"), "{e}");
    }

    #[test]
    fn binary_roundtrips_generated_logic_through_ascii() {
        // Parse the ASCII export of a generated MIG, re-encode its AND
        // list in the binary format by hand, and check both parses agree.
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 5);
        let mut acc = xs[0];
        for (k, &x) in xs[1..].iter().enumerate() {
            acc = if k % 2 == 0 {
                mig.and(acc, !x)
            } else {
                mig.or(acc, x)
            };
        }
        mig.add_output("f", acc);
        let text = write_aiger(&mig);
        let from_ascii = parse_aiger(&text).unwrap();

        // The exporter already emits ANDs in increasing-lhs order with
        // operands strictly below the output, which is exactly the binary
        // ordering discipline.
        let mut lines = text.lines();
        let header: Vec<usize> = lines
            .next()
            .unwrap()
            .split_whitespace()
            .skip(1)
            .map(|t| t.parse().unwrap())
            .collect();
        let (m, i, o, a) = (header[0], header[1], header[3], header[4]);
        let mut prefix = format!("aig {m} {i} 0 {o} {a}\n");
        let body: Vec<&str> = lines.collect();
        for line in &body[i..i + o] {
            prefix.push_str(line);
            prefix.push('\n');
        }
        let mut deltas = Vec::new();
        for line in &body[i + o..i + o + a] {
            let lits: Vec<usize> = line
                .split_whitespace()
                .map(|t| t.parse().unwrap())
                .collect();
            let (lhs, mut r0, mut r1) = (lits[0], lits[1], lits[2]);
            if r0 < r1 {
                std::mem::swap(&mut r0, &mut r1);
            }
            deltas.push((lhs - r0, r0 - r1));
        }
        let from_binary = parse_binary_aiger(&binary_doc(&prefix, &deltas, "")).unwrap();
        assert!(check_equivalence(&from_ascii, &from_binary, 16, 11)
            .unwrap()
            .holds());
    }

    #[test]
    fn roundtrip_preserves_function_with_and_or() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let x = mig.and(a, !b);
        let y = mig.or(x, c);
        mig.add_output("f", !y);
        mig.add_output("g", x);
        let text = write_aiger(&mig);
        let reparsed = parse_aiger(&text).unwrap();
        assert!(check_equivalence(&mig, &reparsed, 8, 5).unwrap().holds());
        assert_eq!(reparsed.input_name(0), "a");
    }

    #[test]
    fn roundtrip_decomposes_full_majority() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let m = mig.maj(a, !b, c);
        mig.add_output("f", m);
        let text = write_aiger(&mig);
        let reparsed = parse_aiger(&text).unwrap();
        assert!(check_equivalence(&mig, &reparsed, 8, 5).unwrap().holds());
        // The majority expands into five ANDs.
        assert_eq!(reparsed.num_majority_nodes(), 5);
    }

    #[test]
    fn roundtrip_on_generated_logic() {
        let mut mig = Mig::new();
        let xs = mig.add_inputs("x", 6);
        let mut acc = xs[0];
        for (k, &x) in xs[1..].iter().enumerate() {
            acc = if k % 2 == 0 {
                mig.and(acc, !x)
            } else {
                mig.maj(acc, x, xs[0])
            };
        }
        mig.add_output("f", acc);
        let text = write_aiger(&mig);
        let reparsed = parse_aiger(&text).unwrap();
        assert!(check_equivalence(&mig, &reparsed, 8, 6).unwrap().holds());
    }
}
