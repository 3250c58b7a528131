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

/// Parses the MIG text format produced by [`write_mig`].
///
/// # Errors
///
/// Returns [`ParseMigError`] on malformed lines, references to undefined
/// signals, or duplicate definitions.
pub fn parse_mig(text: &str) -> Result<Mig, ParseMigError> {
    let mut mig = Mig::new();
    // Keyed by slices of `text`: no line allocates. The default hasher stays,
    // since the text may come from an untrusted client.
    let mut names: HashMap<&str, Signal> = HashMap::new();

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

        if let Some(rest) = line.strip_prefix("inputs") {
            for name in rest.split_whitespace() {
                if names.contains_key(name) {
                    return Err(err(line_no, &format!("duplicate input `{name}`")));
                }
                let s = mig.add_input(name);
                names.insert(name, s);
            }
        } else if let Some(rest) = line.strip_prefix("output") {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equivalence;

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
