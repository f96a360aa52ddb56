//! The one JSON number / string-escape pair every hand-rolled document
//! in the workspace goes through (the crate takes no serializer).

use std::fmt::Write as _;

/// Render an `f64` as a JSON number (`{v:e}`). NaN and ±inf are not
/// JSON; they become `null`, which keeps the document parseable and is
/// itself a diagnostic (a poisoned residual).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Escape `s` for use inside a JSON string literal: quotes, backslashes
/// and control bytes (`\u00XX`).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_become_null_and_control_bytes_are_escaped() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
        assert_eq!(number(1.5), "1.5e0");
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
