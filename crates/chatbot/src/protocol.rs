//! The JSON tuple protocol between the pipeline and the chatbot.
//!
//! Task inputs are numbered-line documents (`[123] text…`); task outputs are
//! JSON-formatted strings containing lists of tuples, exactly as the
//! paper's prompts dictate. This module renders inputs and encodes and
//! parses outputs.
//!
//! The encoders write each row straight into the output string, escaping
//! text through [`serde_json::write_json_string`]; the bytes are exactly
//! those of the equivalent `serde_json::Value` tree's rendering. Each
//! parser reads a completion once and answers two questions: `None` means
//! the completion is not well-formed (not a top-level JSON array — a
//! refusal, a malformed prefix, a truncation), which the re-prompt loop
//! retries; `Some(rows)` holds the rows that decode, dropping malformed
//! ones (models occasionally emit them; they are not fatal).

use aipan_taxonomy::Aspect;
use serde_json::{write_json_string, Value};
use std::fmt::Write as _;

/// Render lines as a numbered-line document (1-based).
pub fn number_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    number_lines_into(&mut out, lines);
    out
}

/// [`number_lines`], rendered into a caller-owned buffer (cleared first).
/// A worker annotating many policies reuses one buffer across all of them
/// instead of allocating a fresh full-text document per policy.
pub fn number_lines_into<'a>(out: &mut String, lines: impl IntoIterator<Item = &'a str>) {
    let lines = lines.into_iter();
    out.clear();
    // ~6 bytes of numbering overhead plus a short line per row; a no-op on
    // a reused buffer that is already large enough.
    out.reserve(lines.size_hint().0.saturating_mul(48));
    for (i, line) in lines.enumerate() {
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "[{}] {line}", i + 1);
    }
}

/// Render (line-number, text) pairs as a numbered document, preserving the
/// given numbers (used when feeding a subset of a document, e.g. one
/// section, so the model reports original line numbers).
pub fn number_lines_with<'a>(lines: impl IntoIterator<Item = (usize, &'a str)>) -> String {
    let lines = lines.into_iter();
    let mut out = String::with_capacity(lines.size_hint().0.saturating_mul(48));
    for (n, line) in lines {
        let _ = writeln!(out, "[{n}] {line}");
    }
    out
}

/// A heading/segment label row: line number + aspects.
pub type LabelRow = (usize, Vec<Aspect>);
/// An extraction row: line number + verbatim text.
pub type ExtractRow = (usize, String);
/// A normalization row: line number + descriptor + category name.
pub type NormalizeRow = (usize, String, String);
/// A purpose row: line, verbatim text, descriptor, category name.
pub type PurposeRow = (usize, String, String, String);
/// A handling row: line, verbatim text, label, optional period text.
pub type HandlingRow = (usize, String, String, Option<String>);
/// A rights row: line, verbatim text, label.
pub type RightsRow = (usize, String, String);

/// Encode label rows (`[[1,["types"]],…]`).
pub fn encode_labels(rows: &[LabelRow]) -> String {
    encode_rows(
        rows,
        |(_, aspects)| aspects.len() * 12,
        |out, (n, aspects)| {
            push_line_no(out, *n);
            out.push_str(",[");
            for (i, aspect) in aspects.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(aspect.key(), out);
            }
            out.push(']');
        },
    )
}

/// Parse label rows; `None` if `output` is not well-formed.
pub fn parse_labels(output: &str) -> Option<Vec<LabelRow>> {
    parse_rows(output, |mut row| {
        let n = line_no(row.next())?;
        let Value::Array(keys) = row.next()? else {
            return None;
        };
        let aspects = keys
            .iter()
            .filter_map(|v| v.as_str().and_then(Aspect::from_key))
            .collect::<Vec<_>>();
        Some((n, aspects))
    })
}

/// Encode extraction rows (`[[4,"email address"],…]`).
pub fn encode_extractions(rows: &[ExtractRow]) -> String {
    encode_rows(
        rows,
        |(_, text)| text.len(),
        |out, (n, text)| {
            push_line_no(out, *n);
            push_text(out, text);
        },
    )
}

/// Parse extraction rows; `None` if `output` is not well-formed.
pub fn parse_extractions(output: &str) -> Option<Vec<ExtractRow>> {
    parse_rows(output, |mut row| {
        Some((line_no(row.next())?, text(row.next())?))
    })
}

/// Encode normalization rows (`[[1,"postal address","Contact info"],…]`).
pub fn encode_normalizations(rows: &[NormalizeRow]) -> String {
    encode_rows(
        rows,
        |(_, d, c)| d.len() + c.len(),
        |out, (n, d, c)| {
            push_line_no(out, *n);
            push_text(out, d);
            push_text(out, c);
        },
    )
}

/// Parse normalization rows; `None` if `output` is not well-formed.
pub fn parse_normalizations(output: &str) -> Option<Vec<NormalizeRow>> {
    parse_rows(output, |mut row| {
        Some((line_no(row.next())?, text(row.next())?, text(row.next())?))
    })
}

/// Encode purpose rows.
pub fn encode_purposes(rows: &[PurposeRow]) -> String {
    encode_rows(
        rows,
        |(_, t, d, c)| t.len() + d.len() + c.len(),
        |out, (n, t, d, c)| {
            push_line_no(out, *n);
            push_text(out, t);
            push_text(out, d);
            push_text(out, c);
        },
    )
}

/// Parse purpose rows; `None` if `output` is not well-formed.
pub fn parse_purposes(output: &str) -> Option<Vec<PurposeRow>> {
    parse_rows(output, |mut row| {
        Some((
            line_no(row.next())?,
            text(row.next())?,
            text(row.next())?,
            text(row.next())?,
        ))
    })
}

/// Encode handling rows (period is `null` when absent).
pub fn encode_handling(rows: &[HandlingRow]) -> String {
    encode_rows(
        rows,
        |(_, t, l, p)| t.len() + l.len() + p.as_ref().map_or(0, String::len),
        |out, (n, t, l, p)| {
            push_line_no(out, *n);
            push_text(out, t);
            push_text(out, l);
            match p {
                Some(p) => push_text(out, p),
                None => out.push_str(",null"),
            }
        },
    )
}

/// Parse handling rows; `None` if `output` is not well-formed.
pub fn parse_handling(output: &str) -> Option<Vec<HandlingRow>> {
    parse_rows(output, |mut row| {
        Some((
            line_no(row.next())?,
            text(row.next())?,
            text(row.next())?,
            text(row.next()),
        ))
    })
}

/// Encode rights rows.
pub fn encode_rights(rows: &[RightsRow]) -> String {
    encode_rows(
        rows,
        |(_, t, l)| t.len() + l.len(),
        |out, (n, t, l)| {
            push_line_no(out, *n);
            push_text(out, t);
            push_text(out, l);
        },
    )
}

/// Parse rights rows; `None` if `output` is not well-formed.
pub fn parse_rights(output: &str) -> Option<Vec<RightsRow>> {
    parse_rows(output, |mut row| {
        Some((line_no(row.next())?, text(row.next())?, text(row.next())?))
    })
}

/// Shared encoder: a JSON array of rows, each row an array whose fields
/// `row` writes (the line number first, every later field after a `,`).
/// `text_len` is a row's string bytes, to size the buffer up front.
fn encode_rows<R>(
    rows: &[R],
    text_len: impl Fn(&R) -> usize,
    row: impl Fn(&mut String, &R),
) -> String {
    // Brackets, commas, quotes and a line number come to under 24 bytes a
    // row; escapes past that grow the buffer as usual.
    let capacity = rows.iter().map(|r| text_len(r) + 24).sum::<usize>() + 2;
    let mut out = String::with_capacity(capacity);
    out.push('[');
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        row(&mut out, r);
        out.push(']');
    }
    out.push(']');
    out
}

fn push_line_no(out: &mut String, n: usize) {
    let _ = write!(out, "{n}");
}

fn push_text(out: &mut String, text: &str) {
    out.push(',');
    write_json_string(text, out);
}

/// Shared parser: `None` unless `output` is a top-level JSON array; rows
/// that are not arrays, or that `row` cannot decode from their fields, are
/// dropped. Field strings move out of the parsed tree rather than being
/// copied.
fn parse_rows<T>(
    output: &str,
    row: impl Fn(std::vec::IntoIter<Value>) -> Option<T>,
) -> Option<Vec<T>> {
    let Ok(Value::Array(rows)) = serde_json::from_str::<Value>(output.trim()) else {
        return None;
    };
    Some(
        rows.into_iter()
            .filter_map(|r| match r {
                Value::Array(fields) => row(fields.into_iter()),
                _ => None,
            })
            .collect(),
    )
}

fn line_no(field: Option<Value>) -> Option<usize> {
    Some(field?.as_u64()? as usize)
}

fn text(field: Option<Value>) -> Option<String> {
    match field? {
        Value::String(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_lines_formats() {
        let doc = number_lines(["alpha", "beta"]);
        assert_eq!(doc, "[1] alpha\n[2] beta\n");
        let sub = number_lines_with([(7, "x"), (12, "y")]);
        assert_eq!(sub, "[7] x\n[12] y\n");
    }

    #[test]
    fn number_lines_into_clears_and_matches() {
        let mut buf = String::from("stale contents from the previous policy");
        number_lines_into(&mut buf, ["alpha", "beta"]);
        assert_eq!(buf, number_lines(["alpha", "beta"]));
        number_lines_into(&mut buf, std::iter::empty());
        assert_eq!(buf, "");
    }

    #[test]
    fn labels_roundtrip() {
        let rows = vec![
            (1, vec![Aspect::Types]),
            (8, vec![Aspect::Purposes, Aspect::Other]),
        ];
        let encoded = encode_labels(&rows);
        assert_eq!(encoded, r#"[[1,["types"]],[8,["purposes","other"]]]"#);
        assert_eq!(parse_labels(&encoded), Some(rows));
    }

    #[test]
    fn extractions_roundtrip() {
        let rows = vec![
            (4, "email address".to_string()),
            (9, "ip address".to_string()),
        ];
        assert_eq!(parse_extractions(&encode_extractions(&rows)), Some(rows));
    }

    #[test]
    fn normalizations_roundtrip() {
        let rows = vec![(1, "postal address".to_string(), "Contact info".to_string())];
        assert_eq!(
            parse_normalizations(&encode_normalizations(&rows)),
            Some(rows)
        );
    }

    #[test]
    fn purposes_roundtrip() {
        let rows = vec![(
            2,
            "prevent fraud".to_string(),
            "fraud prevention".to_string(),
            "Security".to_string(),
        )];
        assert_eq!(parse_purposes(&encode_purposes(&rows)), Some(rows));
    }

    #[test]
    fn handling_roundtrip_with_and_without_period() {
        let rows = vec![
            (
                3,
                "retain for two (2) years".to_string(),
                "Stated".to_string(),
                Some("2 years".to_string()),
            ),
            (
                5,
                "as long as necessary".to_string(),
                "Limited".to_string(),
                None,
            ),
        ];
        let encoded = encode_handling(&rows);
        assert_eq!(
            encoded,
            r#"[[3,"retain for two (2) years","Stated","2 years"],[5,"as long as necessary","Limited",null]]"#
        );
        assert_eq!(parse_handling(&encoded), Some(rows));
    }

    #[test]
    fn rights_roundtrip() {
        let rows = vec![(5, "update or correct".to_string(), "Edit".to_string())];
        assert_eq!(parse_rights(&encode_rights(&rows)), Some(rows));
    }

    #[test]
    fn malformed_output_tolerated() {
        // Not a top-level array: not well-formed, so the loop re-prompts.
        assert_eq!(parse_labels("not json at all"), None);
        assert_eq!(parse_extractions("{\"a\": 1}"), None);
        assert_eq!(
            parse_extractions("I cannot assist with analyzing this."),
            None
        );
        assert_eq!(parse_extractions("[[1, \"trunc"), None);
        // A valid empty result is well-formed.
        assert_eq!(parse_extractions(" [] \n"), Some(Vec::new()));
        // Bad rows dropped, good rows kept.
        let mixed = "[[1, \"ok\"], [\"bad\"], 42, [2, \"also ok\"]]";
        let parsed = parse_extractions(mixed).unwrap_or_default();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn unknown_aspect_keys_dropped() {
        let parsed = parse_labels("[[1, [\"types\", \"bogus\"]]]");
        assert_eq!(parsed, Some(vec![(1, vec![Aspect::Types])]));
    }

    #[test]
    fn optional_period_is_null_absent_or_not_a_string() {
        let parsed =
            parse_handling(r#"[[1,"a","Limited",null],[2,"b","Limited"],[3,"c","Stated",7]]"#);
        let periods: Vec<Option<String>> = parsed
            .unwrap_or_default()
            .into_iter()
            .map(|r| r.3)
            .collect();
        assert_eq!(periods, [None, None, None]);
    }
}
