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
//! must precede their uses.

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
/// The structure pins the text only while every name prints as one
/// unambiguous token. If a name contains whitespace, `!`, `,` or `=`, or
/// reads `0`, `1` or `n` followed by digits (the spellings of constants
/// and majority nodes), both graphs are rendered and their text compared.
pub fn same_text(a: &Mig, b: &Mig) -> bool {
    if !(plain_names(a) && plain_names(b)) {
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

/// Whether every input and output name of `mig` prints as a token no
/// other name, constant or majority node prints as, and splits no line.
fn plain_names(mig: &Mig) -> bool {
    let plain = |name: &str| {
        !(name == "0"
            || name == "1"
            || name.contains(|c: char| c.is_whitespace() || matches!(c, '!' | ',' | '='))
            || name
                .strip_prefix('n')
                .is_some_and(|digits| digits.bytes().all(|b| b.is_ascii_digit())))
    };
    (0..mig.num_inputs()).all(|i| plain(mig.input_name(i)))
        && mig.outputs().iter().all(|(name, _)| plain(name))
}

/// Parses the MIG text format produced by [`write_mig`].
///
/// # Errors
///
/// Returns [`ParseMigError`] on malformed lines, references to undefined
/// signals, or duplicate definitions.
pub fn parse_mig(text: &str) -> Result<Mig, ParseMigError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equivalence;
    use proptest::{any, prop_assert_eq, proptest, ProptestConfig, TestRng};

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
