//! The text writer behind every listing.
//!
//! Listings run to millions of lines, so each renderer appends straight
//! into the one `String` it returns: numbers go through a stack buffer and
//! columns are padded by byte count, so rendering a line allocates nothing
//! and goes through no [`std::fmt::Formatter`]. A padded column matches
//! `{:<N}` only while its text is ASCII, which every padded column of the
//! listings is.

/// Appends `n` in decimal (`{n}`).
#[inline]
pub fn push_uint(out: &mut String, n: u64) {
    push_zero_padded(out, n, 0);
}

/// Appends `n` in decimal, left-padded with zeros to `width` digits
/// (`{n:0width$}`).
pub fn push_zero_padded(out: &mut String, mut n: u64, width: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for _ in digits.len() - start..width {
        out.push('0');
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Pads the column that starts at byte `start` of `out` with spaces to
/// `width` bytes; a longer column is left as it is (`{:<width}`).
#[inline]
pub fn pad_column(out: &mut String, start: usize, width: usize) {
    let end = start + width;
    while out.len() < end {
        out.push(' ');
    }
}

/// Digits of a listing's zero-padded line numbers: those of the line
/// count, and at least two (`01:`, `0100:`).
pub fn line_number_width(lines: usize) -> usize {
    let mut width = 1;
    let mut rest = lines / 10;
    while rest > 0 {
        width += 1;
        rest /= 10;
    }
    width.max(2)
}

/// Appends a listing line's `NN: ` prefix: `line` zero-padded to `width`.
#[inline]
pub fn push_line_number(out: &mut String, line: usize, width: usize) {
    push_zero_padded(out, line as u64, width);
    out.push_str(": ");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_columns_match_the_formatter() {
        for n in [
            0u64,
            7,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            for width in [0, 1, 2, 5, 21, 24] {
                let mut out = String::from("x");
                push_zero_padded(&mut out, n, width);
                assert_eq!(out, format!("x{n:0width$}"));
            }
            let mut out = String::new();
            push_uint(&mut out, n);
            assert_eq!(out, n.to_string());
        }
        for text in ["", "abc", "0, 1, @X12", "@X100000, @X100000, @X100000"] {
            let mut out = String::from("01: ");
            out.push_str(text);
            pad_column(&mut out, 4, 18);
            assert_eq!(out, format!("01: {text:<18}"));
        }
    }

    #[test]
    fn line_numbers_widen_past_each_power_of_ten() {
        for lines in [0usize, 1, 9, 10, 99, 100, 999, 1000, 99_999, 100_000] {
            let width = line_number_width(lines);
            assert_eq!(width, lines.to_string().len().max(2), "{lines}");
            let mut out = String::new();
            push_line_number(&mut out, lines, width);
            assert_eq!(out, format!("{lines:0width$}: "));
        }
    }
}
