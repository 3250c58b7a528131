//! A simple textual interchange format for MIGs.
//!
//! The format is line-oriented:
//!
//! ```text
//! # comment
//! inputs a b cin
//! n1 = maj(a, !b, 0)
//! n2 = maj(n1, cin, 1)
//! output f = !n2
//! ```
//!
//! Signals are referenced by name (`a`, `n1`), optionally prefixed with `!`
//! for complementation; `0` and `1` denote the constants. Node definitions
//! must precede their uses. Lines end at `\n`; everything from a `#` to the
//! end of its line is a comment, and tokens are trimmed of Unicode
//! whitespace, `\r` included.
//!
//! ## Reading
//!
//! [`parse_mig`] reads the text in one pass over its bytes: each line's
//! `=`, operand commas, `#` and end are found by the same scan, and a
//! token is trimmed at its two ends only. Before it, a vectorised count of
//! `=` sizes the graph. On the 23 seed-3 `compile-o2` inputs of the
//! repository's benchmark (4.6 MB, 145,397 node lines) it takes 18–20 ms
//! on a two-core VM, about half the time of the line-by-line parser its
//! tests keep as the oracle, which walks each line several times with
//! `str` methods and hashes every name.
//!
//! Names live in one of two stores. A canonical node name, `n` and a
//! decimal number without a leading zero (how [`write_mig`] names majority
//! nodes), is found by that number in a vector, with no hashing. Every
//! other name, each input's among them, is a key of a SipHash map, since
//! the text may come from an untrusted client. The vector serves
//! only numbers below half the text's length, a bound fixed before
//! reading and never taken from a name: a node name at or past it is
//! hashed like any other, so `n99999999999999999999` in a short text costs
//! one map entry, and no text grows the vector past a few bytes per byte
//! of its own.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use crate::graph::Mig;
use crate::node::MigNode;
use crate::signal::Signal;

/// Error produced when parsing the MIG text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMigError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Explanation of the problem.
    pub message: String,
}

impl fmt::Display for ParseMigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseMigError {}

/// Serializes a graph into the MIG text format.
///
/// # Examples
///
/// ```
/// use mig::{Mig, io::{write_mig, parse_mig}};
///
/// let mut mig = Mig::new();
/// let a = mig.add_input("a");
/// let b = mig.add_input("b");
/// let f = mig.and(a, !b);
/// mig.add_output("f", f);
/// let text = write_mig(&mig);
/// let reparsed = parse_mig(&text).unwrap();
/// assert_eq!(reparsed.num_majority_nodes(), 1);
/// ```
pub fn write_mig(mig: &Mig) -> String {
    let mut out = String::with_capacity(64 + mig.len() * NODE_LINE_BYTES);
    let _ = writeln!(out, "# MIG v1: {} nodes", mig.num_majority_nodes());
    if mig.num_inputs() > 0 {
        out.push_str("inputs");
        for i in 0..mig.num_inputs() {
            out.push(' ');
            out.push_str(mig.input_name(i));
        }
        out.push('\n');
    }

    // Constants print as `0`, inputs by name and majority nodes as
    // `n<index>`, with a `!` when complemented; a complemented `0` (the
    // constant, or an input so named) prints as `1`.
    let push_signal = |out: &mut String, s: Signal| {
        let name = match mig.node(s.node()) {
            MigNode::Constant => Some("0"),
            MigNode::Input(pi) => Some(mig.input_name(*pi as usize)),
            MigNode::Majority(_) => None,
        };
        if s.is_complemented() {
            if name == Some("0") {
                out.push('1');
                return;
            }
            out.push('!');
        }
        match name {
            Some(name) => out.push_str(name),
            None => {
                let _ = write!(out, "n{}", s.node().index());
            }
        }
    };

    for id in mig.majority_ids() {
        let children = mig.node(id).children().expect("majority node");
        let _ = write!(out, "n{} = maj(", id.index());
        push_signal(&mut out, children[0]);
        out.push_str(", ");
        push_signal(&mut out, children[1]);
        out.push_str(", ");
        push_signal(&mut out, children[2]);
        out.push_str(")\n");
    }
    for (name, signal) in mig.outputs() {
        out.push_str("output ");
        out.push_str(name);
        out.push_str(" = ");
        push_signal(&mut out, *signal);
        out.push('\n');
    }
    out
}

/// Bytes a node line takes, as sized up front (`n1234 = maj(!n1, n22, !n333)`).
const NODE_LINE_BYTES: usize = 36;

/// Whether [`write_mig`] renders `a` and `b` to the same text, decided on
/// the structure without rendering either: the same input names, the same
/// node list (majority nodes at the same indices), the same children and
/// the same outputs. Children and outputs compare the way they print:
/// constants and majority nodes by signal, inputs by complement and name,
/// so two inputs that share a name print alike.
///
/// The structure pins the text only while no name is ambiguous (see
/// [`ambiguous_name`]). Otherwise both graphs are rendered and their text
/// compared.
pub fn same_text(a: &Mig, b: &Mig) -> bool {
    if ambiguous_name(a).is_some() || ambiguous_name(b).is_some() {
        return write_mig(a) == write_mig(b);
    }
    if a.len() != b.len()
        || a.num_inputs() != b.num_inputs()
        || a.num_outputs() != b.num_outputs()
        || (0..a.num_inputs()).any(|i| a.input_name(i) != b.input_name(i))
    {
        return false;
    }
    let same_signal = |x: Signal, y: Signal| match (a.node(x.node()), b.node(y.node())) {
        (MigNode::Input(i), MigNode::Input(j)) => {
            x.is_complemented() == y.is_complemented()
                && a.input_name(*i as usize) == b.input_name(*j as usize)
        }
        (MigNode::Input(_), _) | (_, MigNode::Input(_)) => false,
        // Constants sit at index 0 of both graphs and majority nodes print
        // as `n<index>`, so equal signals print alike and unequal ones not.
        _ => x == y,
    };
    a.node_ids().all(|id| match (a.node(id), b.node(id)) {
        (MigNode::Majority(x), MigNode::Majority(y)) => {
            x.iter().zip(y).all(|(&x, &y)| same_signal(x, y))
        }
        (MigNode::Majority(_), _) | (_, MigNode::Majority(_)) => false,
        _ => true,
    }) && a
        .outputs()
        .iter()
        .zip(b.outputs())
        .all(|((m, x), (n, y))| m == n && same_signal(*x, *y))
}

/// The first input or output name of `mig` that [`write_mig`] would
/// print as text that reads back as another circuit, or not at all, if
/// any: an empty name, `0`, `1`, `n` followed by digits (the spellings of
/// constants and majority nodes), or a name holding whitespace, `!`, `,`,
/// `=` or `#`.
pub fn ambiguous_name(mig: &Mig) -> Option<&str> {
    (0..mig.num_inputs())
        .map(|i| mig.input_name(i))
        .chain(mig.outputs().iter().map(|(name, _)| name.as_str()))
        .find(|name| !plain_name(name))
}

/// Whether `name` prints as one token that no other name, constant or
/// majority node prints as, and that splits no line.
fn plain_name(name: &str) -> bool {
    !(name.is_empty()
        || name == "0"
        || name == "1"
        || name.contains(|c: char| c.is_whitespace() || matches!(c, '!' | ',' | '=' | '#'))
        || name
            .strip_prefix('n')
            .is_some_and(|digits| digits.bytes().all(|b| b.is_ascii_digit())))
}

/// Parses the MIG text format produced by [`write_mig`].
///
/// # Errors
///
/// Returns [`ParseMigError`] on malformed lines, references to undefined
/// signals, or duplicate definitions.
pub fn parse_mig(text: &str) -> Result<Mig, ParseMigError> {
    let mut reader = Reader::new(text);
    reader.read()?;
    Ok(reader.mig)
}

/// Nodes to reserve for `text`: one per `=` (each definition line has
/// one), but no more than the text could define. The shortest definition
/// line, `a=maj(b,c,d)` and its newline, takes 13 bytes, so neither blank
/// lines nor a flood of `=` reserve more than the text's length allows.
///
/// Counted into a `u8` per 255-byte chunk, a loop the compiler vectorises:
/// a tenth of the time of a `usize` count, under 2 % of the read. Sizing
/// from the length alone overshoots by a third on `write_mig`'s text,
/// which can double the strash table a compile keeps to its end.
fn capacity(text: &str) -> usize {
    let definitions: usize = text
        .as_bytes()
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'='))))
        .sum();
    definitions.min(text.len() / 13 + 1)
}

/// The one-pass reader behind [`parse_mig`].
struct Reader<'a> {
    text: &'a str,
    mig: Mig,
    names: Names<'a>,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        let capacity = capacity(text);
        Reader {
            text,
            mig: Mig::with_capacity(capacity),
            names: Names::new(text, capacity),
        }
    }

    /// Reads every line into `mig`, stopping at the first error.
    fn read(&mut self) -> Result<(), ParseMigError> {
        let bytes = self.text.as_bytes();
        let mut at = 0;
        let mut line = 0;
        while at < bytes.len() {
            line += 1;
            let start = skip_space(self.text, at);
            at = match bytes.get(start) {
                None => break,
                Some(b'\n') => start + 1,
                Some(b'#') => next_line(bytes, start),
                Some(_) => self.line(start, line)?,
            };
        }
        Ok(())
    }

    /// Reads the line whose first non-blank byte is at `start` and returns
    /// where the next line starts.
    fn line(&mut self, start: usize, line: usize) -> Result<usize, ParseMigError> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        if let Some(rest) = self.keyword(start, "inputs") {
            let end = content_end(bytes, rest);
            for name in text[rest..end].split_whitespace() {
                let key = self.names.key(name);
                if self.names.get(key).is_some() {
                    return Err(error(line, format!("duplicate input `{name}`")));
                }
                let signal = self.mig.add_input(name);
                self.names.set(key, signal);
            }
            Ok(next_line(bytes, end))
        } else if let Some(rest) = self.keyword(start, "output") {
            let end = content_end(bytes, rest);
            let (name, token) = match text[rest..end].split_once('=') {
                Some((name, token)) => (name.trim(), token.trim()),
                None => (text[rest..end].trim(), ""),
            };
            if name.is_empty() {
                return Err(error(line, "missing output name".into()));
            }
            if token.is_empty() {
                return Err(error(line, "missing `=` in output".into()));
            }
            let signal = self.resolve(token, line)?;
            self.mig.add_output(name, signal);
            Ok(next_line(bytes, end))
        } else {
            self.definition(start, line)
        }
    }

    /// The position after a leading `keyword` at `start`, if the keyword is
    /// a whole token there: followed by whitespace, a comment or the end of
    /// the line, so that `inputsx = …` and `output_q = …` define nodes.
    fn keyword(&self, start: usize, keyword: &str) -> Option<usize> {
        let rest = self.text[start..].strip_prefix(keyword)?;
        match rest.chars().next() {
            None | Some('#') => Some(start + keyword.len()),
            Some(c) if c.is_whitespace() => Some(start + keyword.len()),
            Some(_) => None,
        }
    }

    /// Reads `name = maj(a, b, c)`, scanning its bytes once: up to the
    /// `=`, then the operands' commas up to the end of the line or a `#`.
    fn definition(&mut self, start: usize, line: usize) -> Result<usize, ParseMigError> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        let mut eq = start;
        while eq < bytes.len() && !matches!(bytes[eq], b'=' | b'#' | b'\n') {
            eq += 1;
        }
        if bytes.get(eq) != Some(&b'=') {
            return Err(error(line, "unrecognized line".into()));
        }
        let name = text[start..eq].trim_end();
        let key = self.names.key(name);
        if self.names.get(key).is_some() {
            return Err(error(line, format!("duplicate definition `{name}`")));
        }

        let open = skip_space(text, eq + 1);
        if !bytes[open..].starts_with(b"maj(") {
            return Err(error(line, "expected `maj(a, b, c)`".into()));
        }
        let first = open + 4;
        let (mut commas, mut count) = ([0; 2], 0);
        let mut end = first;
        while end < bytes.len() {
            match bytes[end] {
                b',' => {
                    if count < 2 {
                        commas[count] = end;
                    }
                    count += 1;
                }
                b'#' | b'\n' => break,
                _ => {}
            }
            end += 1;
        }
        let close = first + text[first..end].trim_end().len();
        if close == first || bytes[close - 1] != b')' {
            return Err(error(line, "expected `maj(a, b, c)`".into()));
        }
        if count != 2 {
            return Err(error(line, "maj takes exactly three operands".into()));
        }
        let a = self.resolve(text[first..commas[0]].trim(), line)?;
        let b = self.resolve(text[commas[0] + 1..commas[1]].trim(), line)?;
        let c = self.resolve(text[commas[1] + 1..close - 1].trim(), line)?;
        let signal = self.mig.maj(a, b, c);
        self.names.set(key, signal);
        Ok(next_line(bytes, end))
    }

    /// The signal a token names: `0`, `1` or a defined name, complemented
    /// by one leading `!`.
    fn resolve(&mut self, token: &'a str, line: usize) -> Result<Signal, ParseMigError> {
        let (complement, name) = match token.strip_prefix('!') {
            Some(rest) => (true, rest),
            None => (false, token),
        };
        let base = match name {
            "0" => Signal::FALSE,
            "1" => Signal::TRUE,
            _ => {
                let key = self.names.key(name);
                self.names
                    .get(key)
                    .ok_or_else(|| error(line, format!("undefined signal `{name}`")))?
            }
        };
        Ok(base.complement_if(complement))
    }
}

fn error(line: usize, message: String) -> ParseMigError {
    ParseMigError { line, message }
}

/// The first position at or after `at` that is not whitespace other than
/// a newline (Unicode's, as `str::trim` has it).
fn skip_space(text: &str, mut at: usize) -> usize {
    let bytes = text.as_bytes();
    while let Some(&byte) = bytes.get(at) {
        match byte {
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => at += 1,
            0..=0x7f => break,
            _ => match text[at..].chars().next() {
                Some(c) if c.is_whitespace() => at += c.len_utf8(),
                _ => break,
            },
        }
    }
    at
}

/// Where the line content from `at` ends: at a `#`, a newline or the end.
fn content_end(bytes: &[u8], mut at: usize) -> usize {
    while at < bytes.len() && !matches!(bytes[at], b'#' | b'\n') {
        at += 1;
    }
    at
}

/// Where the line holding position `at` ends, past its newline.
fn next_line(bytes: &[u8], mut at: usize) -> usize {
    while at < bytes.len() && bytes[at] != b'\n' {
        at += 1;
    }
    at + 1
}

/// What each defined name denotes.
///
/// A canonical node name, `n` and a decimal number without a leading zero,
/// is looked up by that number in `nodes` while the number is below
/// `limit`. Every other name, and a node name at or past `limit`, is a
/// SipHash key of `hashed`. Which store a name uses depends only on its
/// spelling and the text's length, so a name always meets itself.
struct Names<'a> {
    nodes: Vec<Option<Signal>>,
    /// Half the text's length, plus one: [`write_mig`] prints a graph of
    /// `k` nodes in more than `2 k` bytes, as each input takes two and each
    /// node line more. It is never a number read out of a name, so no text
    /// grows `nodes` past a few bytes per byte of its own.
    limit: usize,
    hashed: HashMap<&'a str, Signal>,
    #[cfg(test)]
    probes: Probes,
}

/// Where a name is kept: its `nodes` slot, or its `hashed` key.
#[derive(Clone, Copy)]
enum Key<'a> {
    Slot(usize),
    Hashed(&'a str),
}

/// Name lookups and definitions by store, counted in test builds.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Probes {
    indexed: usize,
    hashed: usize,
}

impl<'a> Names<'a> {
    fn new(text: &str, capacity: usize) -> Self {
        Names {
            nodes: Vec::with_capacity(capacity),
            limit: text.len() / 2 + 1,
            hashed: HashMap::new(),
            #[cfg(test)]
            probes: Probes::default(),
        }
    }

    /// Where `name` is kept.
    #[inline]
    fn key(&self, name: &'a str) -> Key<'a> {
        let slot = || {
            let (&first, rest) = name.as_bytes().strip_prefix(b"n")?.split_first()?;
            if !first.is_ascii_digit() || (first == b'0' && !rest.is_empty()) {
                return None;
            }
            let mut k = usize::from(first - b'0');
            for &digit in rest {
                if !digit.is_ascii_digit() {
                    return None;
                }
                k = k.checked_mul(10)?.checked_add(usize::from(digit - b'0'))?;
            }
            (k < self.limit).then_some(k)
        };
        slot().map_or(Key::Hashed(name), Key::Slot)
    }

    #[inline]
    fn get(&mut self, key: Key<'a>) -> Option<Signal> {
        #[cfg(test)]
        self.probes.count(key);
        match key {
            Key::Slot(k) => self.nodes.get(k).copied().flatten(),
            Key::Hashed(name) => self.hashed.get(name).copied(),
        }
    }

    #[inline]
    fn set(&mut self, key: Key<'a>, signal: Signal) {
        #[cfg(test)]
        self.probes.count(key);
        match key {
            Key::Slot(k) => {
                if k >= self.nodes.len() {
                    self.nodes.resize(k + 1, None);
                }
                self.nodes[k] = Some(signal);
            }
            Key::Hashed(name) => {
                self.hashed.insert(name, signal);
            }
        }
    }
}

#[cfg(test)]
impl Probes {
    fn count(&mut self, key: Key<'_>) {
        match key {
            Key::Slot(_) => self.indexed += 1,
            Key::Hashed(_) => self.hashed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equivalence;
    use proptest::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, TestRng};

    /// The `format!` renderer [`write_mig`] replaced, kept as its oracle.
    fn format_mig(mig: &Mig) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# MIG v1: {} nodes", mig.num_majority_nodes());
        if mig.num_inputs() > 0 {
            let _ = write!(out, "inputs");
            for i in 0..mig.num_inputs() {
                let _ = write!(out, " {}", mig.input_name(i));
            }
            let _ = writeln!(out);
        }
        let name_of = |s: Signal, mig: &Mig| -> String {
            let base = match mig.node(s.node()) {
                MigNode::Constant => "0".to_string(),
                MigNode::Input(pi) => mig.input_name(*pi as usize).to_string(),
                MigNode::Majority(_) => format!("n{}", s.node().index()),
            };
            if s.is_complemented() {
                if base == "0" {
                    "1".to_string()
                } else {
                    format!("!{base}")
                }
            } else {
                base
            }
        };
        for id in mig.majority_ids() {
            let children = mig.node(id).children().expect("majority node");
            let _ = writeln!(
                out,
                "n{} = maj({}, {}, {})",
                id.index(),
                name_of(children[0], mig),
                name_of(children[1], mig),
                name_of(children[2], mig),
            );
        }
        for (name, signal) in mig.outputs() {
            let _ = writeln!(out, "output {} = {}", name, name_of(*signal, mig));
        }
        out
    }

    /// The line-by-line `str` parser [`parse_mig`] replaced, kept as its
    /// oracle.
    fn parse_mig_by_lines(text: &str) -> Result<Mig, ParseMigError> {
        // Room for a node per `=` (each definition line has one), but no more
        // than the text could define: the shortest definition line,
        // `a=maj(b,c,d)` and its newline, takes 13 bytes, so neither blank
        // lines nor a flood of `=` reserve more than the text's length allows.
        let definitions = text.bytes().filter(|&b| b == b'=').count();
        let capacity = definitions.min(text.len() / 13 + 1);
        let mut mig = Mig::with_capacity(capacity);
        // Keyed by slices of `text`: no line allocates. String keys keep the
        // default SipHash (the text may come from an untrusted client); the
        // one-word `hash::KeyedState` is only for the fixed-width strash keys.
        let mut names: HashMap<&str, Signal> = HashMap::with_capacity(capacity);

        let err = |line: usize, message: &str| ParseMigError {
            line,
            message: message.to_string(),
        };

        let resolve = |token: &str,
                       names: &HashMap<&str, Signal>,
                       line: usize|
         -> Result<Signal, ParseMigError> {
            let (compl, name) = match token.strip_prefix('!') {
                Some(rest) => (true, rest),
                None => (false, token),
            };
            let base = match name {
                "0" => Signal::FALSE,
                "1" => Signal::TRUE,
                _ => *names
                    .get(name)
                    .ok_or_else(|| err(line, &format!("undefined signal `{name}`")))?,
            };
            Ok(base.complement_if(compl))
        };

        for (index, raw_line) in text.lines().enumerate() {
            let line_no = index + 1;
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }

            if let Some(rest) = keyword(line, "inputs") {
                for name in rest.split_whitespace() {
                    if names.contains_key(name) {
                        return Err(err(line_no, &format!("duplicate input `{name}`")));
                    }
                    let s = mig.add_input(name);
                    names.insert(name, s);
                }
            } else if let Some(rest) = keyword(line, "output") {
                let mut parts = rest.splitn(2, '=');
                let name = parts
                    .next()
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| err(line_no, "missing output name"))?;
                let token = parts
                    .next()
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| err(line_no, "missing `=` in output"))?;
                let signal = resolve(token, &names, line_no)?;
                mig.add_output(name, signal);
            } else if line.contains('=') {
                let mut parts = line.splitn(2, '=');
                let name = parts.next().unwrap().trim();
                let body = parts.next().unwrap().trim();
                if names.contains_key(name) {
                    return Err(err(line_no, &format!("duplicate definition `{name}`")));
                }
                let inner = body
                    .strip_prefix("maj(")
                    .and_then(|s| s.strip_suffix(')'))
                    .ok_or_else(|| err(line_no, "expected `maj(a, b, c)`"))?;
                let mut tokens = inner.split(',').map(str::trim);
                let (Some(a), Some(b), Some(c), None) =
                    (tokens.next(), tokens.next(), tokens.next(), tokens.next())
                else {
                    return Err(err(line_no, "maj takes exactly three operands"));
                };
                let a = resolve(a, &names, line_no)?;
                let b = resolve(b, &names, line_no)?;
                let c = resolve(c, &names, line_no)?;
                let signal = mig.maj(a, b, c);
                names.insert(name, signal);
            } else {
                return Err(err(line_no, "unrecognized line"));
            }
        }
        Ok(mig)
    }

    /// The rest of `line` after a leading `keyword`, if the keyword is a whole
    /// token there: followed by whitespace or the end of the line, so that
    /// `inputsx = …` and `output_q = …` define nodes.
    fn keyword<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
        let rest = line.strip_prefix(keyword)?;
        (rest.is_empty() || rest.starts_with(char::is_whitespace)).then_some(rest)
    }

    /// A random graph of up to `nodes` majority nodes over inputs whose
    /// names include the constants' spellings and a majority node's, with
    /// complemented and plain outputs on every kind of signal.
    fn arbitrary_mig(rng: &mut TestRng, nodes: usize) -> Mig {
        const NAMES: [&str; 6] = ["a", "0", "1", "n3", "b c", "x_1"];
        let mut below = |n: u64| (rng.next_u64() % n) as usize;
        let mut mig = Mig::new();
        let mut signals = vec![Signal::FALSE];
        for k in 0..1 + below(6) {
            let name = if below(2) == 0 {
                NAMES[below(NAMES.len() as u64)].to_string()
            } else {
                format!("i{k}")
            };
            signals.push(mig.add_input(name));
        }
        for _ in 0..nodes {
            let mut pick = || signals[below(signals.len() as u64)].complement_if(below(2) == 1);
            let (a, b, c) = (pick(), pick(), pick());
            signals.push(mig.maj(a, b, c));
        }
        for k in 0..below(5) {
            let signal = signals[below(signals.len() as u64)].complement_if(below(2) == 1);
            mig.add_output(format!("f{k}"), signal);
        }
        mig
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `write_mig` renders random graphs byte for byte like the
        /// `format!` renderer it replaced.
        #[test]
        fn write_mig_matches_the_format_oracle(seed in any::<u64>(), nodes in 0usize..200) {
            let mig = arbitrary_mig(&mut TestRng::new(seed), nodes);
            prop_assert_eq!(write_mig(&mig), format_mig(&mig));
        }
    }

    /// Byte offsets of the tokens `n<digits>` in `text`.
    fn node_name_spans(text: &str) -> Vec<(usize, usize)> {
        let bytes = text.as_bytes();
        let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let mut spans = Vec::new();
        for start in 0..bytes.len() {
            if bytes[start] != b'n' || (start > 0 && word(bytes[start - 1])) {
                continue;
            }
            let end = start
                + 1
                + bytes[start + 1..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
            if end > start + 1 && !bytes.get(end).is_some_and(|&b| word(b)) {
                spans.push((start, end));
            }
        }
        spans
    }

    /// One seeded edit of `text` aimed at one of the reader's rules.
    fn mutate(text: &mut String, rng: &mut TestRng) {
        let mut below = |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
        let boundaries: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let anywhere = boundaries[below(boundaries.len())];
        let lines: Vec<(usize, usize)> = text
            .match_indices('\n')
            .scan(0, |start, (at, _)| {
                let line = (*start, at + 1);
                *start = at + 1;
                Some(line)
            })
            .collect();
        match below(12) {
            0 => *text = text.replace('\n', "\r\n"),
            1 => text.push('\r'),
            2 => {
                // Whitespace where a token starts or ends, line starts included.
                const SPACES: [char; 6] = ['\t', '\u{b}', '\u{c}', '\u{a0}', '\u{3000}', ' '];
                let b = text.as_bytes();
                let edges: Vec<usize> = (0..=b.len())
                    .filter(|&i| {
                        i == 0
                            || b"\n ,(=!".contains(&b[i - 1])
                            || b.get(i).is_some_and(|c| b"\r\n ,)=".contains(c))
                    })
                    .collect();
                let at = edges[below(edges.len())];
                text.insert(at, SPACES[below(SPACES.len())]);
            }
            3 => text.insert(anywhere, '#'),
            4 => {
                // Respell a node name at one use, or at all of them.
                let spans = node_name_spans(text);
                if let Some(&(start, end)) = spans.get(below(spans.len())) {
                    let old = text[start..end].to_string();
                    let new = match below(5) {
                        0 => "n0".to_string(),
                        1 => format!("n0{}", &old[1..]),
                        2 => format!("n{}", "9".repeat(20)),
                        3 => format!("n{}", 4_294_967_296u64 + below(3) as u64),
                        _ => "a".to_string(),
                    };
                    if below(2) == 0 {
                        text.replace_range(start..end, &new);
                    } else {
                        for &(start, end) in spans.iter().rev() {
                            if text[start..end] == old {
                                text.replace_range(start..end, &new);
                            }
                        }
                    }
                }
            }
            5 => {
                // A space inside a token.
                let inner: Vec<usize> = (1..text.len())
                    .filter(|&i| {
                        let b = text.as_bytes();
                        b[i - 1].is_ascii_alphanumeric() && b[i].is_ascii_alphanumeric()
                    })
                    .collect();
                if let Some(&at) = inner.get(below(inner.len())) {
                    text.insert(at, ' ');
                }
            }
            6 => {
                let closes: Vec<usize> = text.match_indices(')').map(|(at, _)| at).collect();
                if let Some(&at) = closes.get(below(closes.len())) {
                    text.remove(at);
                }
            }
            7 => {
                // Two operands: drop the one after a comma.
                let commas: Vec<usize> = text.match_indices(',').map(|(at, _)| at).collect();
                if let Some(&at) = commas.get(below(commas.len())) {
                    let end = at + 1 + text[at + 1..].find([',', ')', '\n']).unwrap_or(0);
                    text.replace_range(at..end, "");
                }
            }
            8 => {
                // Four operands.
                let closes: Vec<usize> = text.match_indices(')').map(|(at, _)| at).collect();
                if let Some(&at) = closes.get(below(closes.len())) {
                    text.insert_str(at, [", 0", ", a", ", !n3"][below(3)]);
                }
            }
            9 => {
                // Names that start with a keyword, defined and used.
                let name = ["inputsx", "output_q"][below(2)];
                let spans = node_name_spans(text);
                if let Some(&(start, end)) = spans.get(below(spans.len())) {
                    let old = text[start..end].to_string();
                    for &(start, end) in spans.iter().rev() {
                        if text[start..end] == old {
                            text.replace_range(start..end, name);
                        }
                    }
                } else {
                    text.insert_str(0, &format!("{name} = maj(0, 1, 1)\n"));
                }
            }
            10 => {
                // A duplicate line: an input list or a node definition.
                if let Some(&(start, end)) = lines.get(below(lines.len())) {
                    let line = text[start..end].to_string();
                    text.insert_str(end, &line);
                }
            }
            _ => {
                // One more input: a node's name, an input's, or a fresh one.
                if let Some(at) = text.find("inputs").map(|at| at + "inputs".len()) {
                    let name = ["n3", "n5", "n05", "a", "i0", "fresh"][below(6)];
                    text.insert_str(at, &format!(" {name}"));
                }
            }
        }
    }

    /// [`write_mig`]'s text of a random graph after up to four edits.
    fn mutated_text(seed: u64) -> String {
        let mut rng = TestRng::new(seed);
        let nodes = (rng.next_u64() % 40) as usize;
        let mut text = write_mig(&arbitrary_mig(&mut rng, nodes));
        for _ in 0..rng.next_u64() % 5 {
            mutate(&mut text, &mut rng);
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass reader builds the graph the line-by-line parser
        /// builds, or fails with its line and message.
        #[test]
        fn parse_mig_matches_the_line_parser_oracle(seed in any::<u64>()) {
            let text = mutated_text(seed);
            match (parse_mig(&text), parse_mig_by_lines(&text)) {
                (Ok(read), Ok(oracle)) => prop_assert!(same_text(&read, &oracle), "{text:?}"),
                (read, oracle) => prop_assert_eq!(read.map(|_| ()), oracle.map(|_| ()), "{text:?}"),
            }
        }
    }

    /// The mutated texts reach every outcome: some parse, and each of the
    /// reader's diagnostics comes up.
    #[test]
    fn mutated_texts_reach_every_diagnostic() {
        let mut parsed = 0;
        let mut messages = std::collections::BTreeSet::new();
        for seed in 0..2000 {
            match parse_mig(&mutated_text(seed)) {
                Ok(_) => parsed += 1,
                Err(e) => {
                    messages.insert(e.message.split(" `").next().unwrap().to_string());
                }
            }
        }
        assert!(parsed > 500, "{parsed} of 2000 parsed");
        for message in [
            "undefined signal",
            "duplicate input",
            "duplicate definition",
            "expected",
            "maj takes exactly three operands",
            "unrecognized line",
        ] {
            assert!(
                messages.contains(message),
                "{message} not reached: {messages:?}"
            );
        }
    }

    /// Node names past what the text could number are hashed like any
    /// other name, and the index stays within a bound of the text's size.
    #[test]
    fn hostile_node_names_are_hashed_and_the_index_stays_small() {
        let text = "inputs a b n99999999999999999999\n\
                    n4294967296 = maj(a, !b, n99999999999999999999)\n\
                    n7 = maj(n4294967296, !a, 1)\n\
                    output f = !n7\n\
                    output g = n4294967296\n";
        let mut reader = Reader::new(text);
        reader.read().unwrap();
        assert!(same_text(&reader.mig, &parse_mig_by_lines(text).unwrap()));
        assert_eq!(reader.mig.num_majority_nodes(), 2);
        assert!(reader.names.nodes.len() <= text.len() / 2 + 1);
        assert_eq!(reader.names.nodes.len(), 8);
        assert!(reader.names.hashed.contains_key("n4294967296"));
        assert!(reader.names.hashed.contains_key("n99999999999999999999"));

        // A name just inside the limit is indexed, one at it is not.
        let limit = reader.names.limit;
        assert!(matches!(reader.names.key("n1"), Key::Slot(1)));
        assert!(matches!(
            reader.names.key(&format!("n{}", limit - 1)),
            Key::Slot(_)
        ));
        assert!(matches!(
            reader.names.key(&format!("n{limit}")),
            Key::Hashed(_)
        ));
        for name in ["n", "n05", "n00", "nx", "n1x", "m1", "n١"] {
            assert!(matches!(reader.names.key(name), Key::Hashed(_)), "{name}");
        }
    }

    /// Random logic of `nodes` majority nodes over 16 inputs `x<i>` with 8
    /// outputs, in the layered, locality-biased shape of the suite's
    /// seeded control logic: children come from the last few dozen signals.
    fn layered_logic(seed: u64, nodes: usize) -> Mig {
        let mut rng = TestRng::new(seed);
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        let mut mig = Mig::new();
        let mut signals = mig.add_inputs("x", 16);
        while mig.num_majority_nodes() < nodes {
            let window = signals.len().min(48);
            let mut pick =
                || signals[signals.len() - 1 - below(window)].complement_if(below(3) == 0);
            let (a, b, c) = (pick(), pick(), pick());
            let c = if c.is_complemented() {
                c
            } else {
                Signal::FALSE
            };
            signals.push(mig.maj(a, b, c));
        }
        for k in 0..8 {
            mig.add_output(format!("f{k}"), signals[signals.len() - 1 - k]);
        }
        mig
    }

    /// The reader's name lookups, counted: at `n` and `4 n` nodes the only
    /// hashed names are the inputs', defined once and looked up where
    /// used; every node name goes through the index.
    #[test]
    fn only_input_names_are_hashed_at_every_size() {
        for nodes in [1_000, 4_000] {
            let mig = layered_logic(3, nodes);
            let text = write_mig(&mig);
            let mut reader = Reader::new(&text);
            reader.read().unwrap();
            assert!(same_text(&reader.mig, &mig));

            let uses = |input: bool| {
                let children = mig
                    .majority_ids()
                    .flat_map(|id| mig.node(id).children().unwrap().to_vec());
                children
                    .chain(mig.outputs().iter().map(|(_, s)| *s))
                    .filter(|s| matches!(mig.node(s.node()), MigNode::Input(_)) == input)
                    .filter(|s| !s.node().is_constant())
                    .count()
            };
            // Each definition checks its name, then sets it.
            let expected = Probes {
                indexed: 2 * mig.num_majority_nodes() + uses(false),
                hashed: 2 * mig.num_inputs() + uses(true),
            };
            assert_eq!(reader.names.probes, expected, "{nodes} nodes");
            assert_eq!(reader.names.hashed.len(), mig.num_inputs());
        }
    }

    /// A line is a keyword line only when `inputs` or `output` is a whole
    /// token; a name that merely starts with one defines a node.
    #[test]
    fn a_name_starting_with_inputs_defines_a_node() {
        let mig = parse_mig("inputs a b c\ninputsx = maj(a, b, c)\noutput f = inputsx\n").unwrap();
        assert_eq!((mig.num_inputs(), mig.num_majority_nodes()), (3, 1));
        assert_eq!(mig.outputs()[0].0, "f");
    }

    #[test]
    fn a_name_starting_with_output_defines_a_node() {
        let mig =
            parse_mig("inputs a b c\noutput_q = maj(a, b, c)\noutput q = output_q\n").unwrap();
        assert_eq!((mig.num_inputs(), mig.num_majority_nodes()), (3, 1));
        assert_eq!(mig.outputs()[0].0, "q");
    }

    #[test]
    fn an_outputs_line_is_an_error() {
        let e = parse_mig("inputs a b c\nn1 = maj(a, b, c)\noutputs f = n1\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (3, "expected `maj(a, b, c)`"));
        assert_eq!(e.to_string().lines().count(), 1);
    }

    fn sample() -> Mig {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let b = mig.add_input("b");
        let c = mig.add_input("c");
        let n1 = mig.maj(a, !b, Signal::FALSE);
        let n2 = mig.maj(n1, c, Signal::TRUE);
        mig.add_output("f", !n2);
        mig.add_output("g", n1);
        mig
    }

    #[test]
    fn roundtrip_preserves_function() {
        let original = sample();
        let text = write_mig(&original);
        let parsed = parse_mig(&text).unwrap();
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_outputs(), 2);
        assert!(check_equivalence(&original, &parsed, 8, 1).unwrap().holds());
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "\n# header\ninputs a b # trailing\nn1 = maj(a, b, 0)\noutput f = n1\n";
        let mig = parse_mig(text).unwrap();
        assert_eq!(mig.num_majority_nodes(), 1);
    }

    #[test]
    fn parses_constants() {
        let text = "inputs a\nn1 = maj(a, 1, 0)\noutput f = !n1";
        let mig = parse_mig(text).unwrap();
        // ⟨a 1 0⟩ = a, so n1 resolves to the input itself.
        assert_eq!(mig.num_majority_nodes(), 0);
        assert!(mig.outputs()[0].1.is_complemented());
    }

    #[test]
    fn rejects_undefined_signal() {
        let e = parse_mig("inputs a\nn1 = maj(a, bogus, 0)").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_malformed_node() {
        assert!(parse_mig("inputs a\nn1 = and(a, a, a)").is_err());
        assert!(parse_mig("inputs a\nn1 = maj(a, a)").is_err());
        assert!(parse_mig("garbage").is_err());
    }

    #[test]
    fn rejects_duplicates() {
        assert!(parse_mig("inputs a a").is_err());
        assert!(parse_mig("inputs a\na = maj(a, a, 0)").is_err());
    }

    #[test]
    fn rejects_incomplete_output() {
        assert!(parse_mig("inputs a\noutput f").is_err());
        assert!(parse_mig("inputs a\noutput = a").is_err());
    }

    /// Every diagnostic, with the line it points at.
    #[test]
    fn every_error_keeps_its_message_and_line() {
        for (text, line, message) in [
            (
                "inputs a\nn1 = maj(a, bogus, 0)",
                2,
                "undefined signal `bogus`",
            ),
            ("inputs a\n\noutput f = !x", 3, "undefined signal `x`"),
            ("inputs a b a", 1, "duplicate input `a`"),
            ("inputs a\noutput = a", 2, "missing output name"),
            ("inputs a\noutput f", 2, "missing `=` in output"),
            ("inputs a\na = maj(a, a, 0)", 2, "duplicate definition `a`"),
            ("inputs a\nn1 = and(a, a, a)", 2, "expected `maj(a, b, c)`"),
            (
                "inputs a\nn1 = maj(a, a)",
                2,
                "maj takes exactly three operands",
            ),
            (
                "inputs a\nn1 = maj(a, a, a, a)",
                2,
                "maj takes exactly three operands",
            ),
            ("# header\ngarbage", 2, "unrecognized line"),
        ] {
            let e = parse_mig(text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (line, message), "{text:?}");
        }
    }

    #[test]
    fn same_text_agrees_with_the_rendered_text() {
        let one = sample();
        assert!(same_text(&one, &one.clone()));
        let mut other = sample();
        other.set_output(1, !other.outputs()[1].1);
        assert!(!same_text(&one, &other));
        assert_ne!(write_mig(&one), write_mig(&other));

        // Two inputs of one name print alike, so these texts are equal.
        let shared = |pick: usize| {
            let mut mig = Mig::new();
            let inputs = [mig.add_input("a"), mig.add_input("a")];
            let b = mig.add_input("b");
            let n = mig.and(inputs[pick], b);
            mig.add_output("f", n);
            mig
        };
        let (x, y) = (shared(0), shared(1));
        assert_eq!(write_mig(&x), write_mig(&y));
        assert!(same_text(&x, &y));
    }

    #[test]
    fn same_text_falls_back_to_the_text_for_ambiguous_names() {
        // An input named `n3` prints like majority node 3: node 4 reads
        // `maj(1, a, n3)` in both graphs, over different children.
        let build = |input_child: bool| {
            let mut mig = Mig::new();
            let a = mig.add_input("a");
            let n = mig.add_input("n3");
            let m3 = mig.maj(Signal::FALSE, a, n);
            let m4 = mig.maj(Signal::TRUE, a, if input_child { n } else { m3 });
            mig.add_output("f", m4);
            mig
        };
        let (x, y) = (build(true), build(false));
        assert_eq!(write_mig(&x), write_mig(&y));
        assert!(same_text(&x, &y));
        let mut renamed = build(true);
        renamed.add_output("1", Signal::TRUE);
        let mut plain = build(true);
        plain.add_output("g", Signal::TRUE);
        assert!(!same_text(&renamed, &plain));
    }

    #[test]
    fn complemented_constant_written_as_one() {
        let mut mig = Mig::new();
        let a = mig.add_input("a");
        let or = mig.or(a, a); // simplifies; force constant usage instead
        let _ = or;
        let n = mig.maj(a, Signal::TRUE, Signal::FALSE);
        mig.add_output("f", n);
        let text = write_mig(&mig);
        // ⟨a 1 0⟩ simplified to `a` at creation: output references input.
        assert!(text.contains("output f = a"));
    }
}
