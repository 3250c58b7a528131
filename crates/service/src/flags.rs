//! The one command-line flag reader behind `plimc` and `plimd`.
//!
//! Every subcommand walks its arguments with a [`Flags`], matching the
//! flags it knows and asking the reader for their values, so a missing
//! value, a bad number and an unknown flag read the same everywhere.
//! `--help` and `-h` print the caller's usage text and exit 0.

use std::str::FromStr;

/// A cursor over one subcommand's arguments.
#[derive(Debug)]
pub struct Flags<'a> {
    command: &'a str,
    usage: &'a str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    /// Reads `args` for `command` (the name diagnostics give it; empty for
    /// the plain compile), answering `--help` with `usage`.
    pub fn new(command: &'a str, usage: &'a str, args: &'a [String]) -> Self {
        Flags {
            command,
            usage,
            args: args.iter(),
        }
    }

    /// The value that follows `flag`; an error if the arguments end first.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value of `flag` as a `T` that `valid` accepts; errors as
    /// [`Flags::value`] and [`parse_value`].
    pub fn typed<T: FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        parse_value(flag, what, self.value(flag)?, valid)
    }

    /// The value of `flag` as a number.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.typed(flag, "a number", |_| true)
    }

    /// The value of `flag` as a number above zero.
    pub fn positive<T: FromStr + Default + PartialOrd>(&mut self, flag: &str) -> Result<T, String> {
        self.typed(flag, "a positive number", |n| *n > T::default())
    }

    /// `arg` as an operand: `-` (stdin) or anything not starting with `-`;
    /// a flag is [`Flags::unknown`].
    pub fn operand(&self, arg: &'a str) -> Result<&'a str, String> {
        if arg.starts_with('-') && arg != "-" {
            return Err(self.unknown(arg));
        }
        Ok(arg)
    }

    /// The diagnostic for a flag the command does not know.
    pub fn unknown(&self, flag: &str) -> String {
        match self.command {
            "" => format!("unknown option `{flag}`"),
            command => format!("unknown {command} option `{flag}`"),
        }
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    /// The next argument; `--help` and `-h` print the usage text to stderr
    /// and exit the process with status 0.
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.next()?.as_str();
        if arg == "--help" || arg == "-h" {
            eprint!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }
}

/// `text`, the value of `flag`, parsed as a `T` that `valid` accepts;
/// otherwise the error ``<flag> needs <what> (got `<text>`)``.
pub fn parse_value<T: FromStr>(
    flag: &str,
    what: &str,
    text: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    text.parse()
        .ok()
        .filter(|value| valid(value))
        .ok_or_else(|| format!("{flag} needs {what} (got `{text}`)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn values_and_numbers_share_one_message_shape() {
        let args = argv(&["--n", "x", "--p", "0", "--s", "inf", "--v"]);
        let mut flags = Flags::new("demo", "", &args);
        assert_eq!(flags.next(), Some("--n"));
        assert_eq!(
            flags.number::<u32>("--n"),
            Err("--n needs a number (got `x`)".to_string())
        );
        assert_eq!(flags.next(), Some("--p"));
        assert_eq!(
            flags.positive::<usize>("--p"),
            Err("--p needs a positive number (got `0`)".to_string())
        );
        assert_eq!(flags.next(), Some("--s"));
        assert_eq!(
            flags.typed("--s", "a finite number", |s: &f64| s.is_finite()),
            Err("--s needs a finite number (got `inf`)".to_string())
        );
        assert_eq!(flags.next(), Some("--v"));
        // The missing-value message is pinned end to end in `tests/cli.rs`.
        assert!(flags.value("--v").unwrap_err().starts_with("--v "));
        assert_eq!(flags.next(), None);
    }

    #[test]
    fn unknown_flags_name_the_command_and_operands_pass() {
        let args = argv(&[]);
        let flags = Flags::new("lint", "", &args);
        assert_eq!(flags.unknown("--x"), "unknown lint option `--x`");
        assert_eq!(flags.operand("-"), Ok("-"));
        assert_eq!(flags.operand("a.mig"), Ok("a.mig"));
        assert_eq!(flags.operand("--x"), Err(flags.unknown("--x")));
        assert_eq!(
            Flags::new("", "", &args).unknown("--x"),
            "unknown option `--x`"
        );
    }
}
