//! Textual trace format — the on-the-wire and on-disk record layout.
//!
//! One record per line, bracketed and comma-separated in the style of the
//! MonetDB profiler streams the paper's Figure 3 shows:
//!
//! ```text
//! [ 12, "done", 5, 2, 10345, 873, 51234, "X_5 := algebra.select(X_2, 1:int, 1:int);" ]
//! ```
//!
//! Field order: `event, status, pc, thread, clk, usec, rss, stmt`.
//! The format round-trips: [`parse_event`] ∘ [`format_event`] = identity.

use std::fmt;
use std::fmt::Write as _;

use crate::event::{EventStatus, TraceEvent};

/// Errors from [`parse_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace format error: {}", self.msg)
    }
}

impl std::error::Error for FormatError {}

fn err(msg: impl Into<String>) -> FormatError {
    FormatError { msg: msg.into() }
}

/// Render an event as one trace line (no trailing newline).
pub fn format_event(e: &TraceEvent) -> String {
    let mut out = String::with_capacity(64 + e.stmt.len());
    push_event(&mut out, e);
    out
}

/// Append [`format_event`]'s line to `out`.
pub(crate) fn push_event(out: &mut String, e: &TraceEvent) {
    let _ = write!(
        out,
        "[ {}, \"{}\", {}, {}, {}, {}, {}, \"",
        e.event,
        e.status.as_str(),
        e.pc,
        e.thread,
        e.clk,
        e.usec,
        e.rss,
    );
    push_escaped(out, &e.stmt);
    out.push_str("\" ]");
}

/// Parse one trace line.
pub fn parse_event(line: &str) -> Result<TraceEvent, FormatError> {
    let line = line.trim();
    let inner = line
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err("record must be bracketed"))?
        .trim();

    let (count, fields) = split_record(inner)?;
    if count != 8 {
        return Err(err(format!("expected 8 fields, got {count}")));
    }
    let num = |i: usize, name: &str| -> Result<u64, FormatError> {
        fields[i]
            .trim()
            .parse::<u64>()
            .map_err(|_| err(format!("bad {name} field `{}`", fields[i])))
    };
    let status = match fields[1].trim() {
        "\"start\"" => EventStatus::Start,
        "\"done\"" => EventStatus::Done,
        quoted => match unquote(quoted)?.as_str() {
            "start" => EventStatus::Start,
            "done" => EventStatus::Done,
            other => return Err(err(format!("bad status `{other}`"))),
        },
    };
    Ok(TraceEvent {
        event: num(0, "event")?,
        status,
        pc: num(2, "pc")? as usize,
        thread: num(3, "thread")? as usize,
        clk: num(4, "clk")?,
        usec: num(5, "usec")?,
        rss: num(6, "rss")?,
        stmt: unquote(fields[7].trim())?,
    })
}

/// Split on commas outside quoted strings: the number of fields and
/// the first eight of them. Quotes, commas and backslashes are ASCII, so
/// scanning bytes finds the same boundaries as scanning chars.
fn split_record(s: &str) -> Result<(usize, [&str; 8]), FormatError> {
    let mut parts = [""; 8];
    let mut count = 0;
    let mut start = 0;
    let mut in_str = false;
    let mut prev_escape = false;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'"' if !prev_escape => in_str = !in_str,
            b',' if !in_str => {
                if let Some(slot) = parts.get_mut(count) {
                    *slot = &s[start..i];
                }
                count += 1;
                start = i + 1;
            }
            _ => {}
        }
        prev_escape = b == b'\\' && !prev_escape;
    }
    if in_str {
        return Err(err("unterminated string"));
    }
    if let Some(slot) = parts.get_mut(count) {
        *slot = &s[start..];
    }
    Ok((count + 1, parts))
}

fn unquote(s: &str) -> Result<String, FormatError> {
    let body = s
        .strip_prefix('"')
        .and_then(|x| x.strip_suffix('"'))
        .ok_or_else(|| err(format!("expected quoted string, got `{s}`")))?;
    if !body.contains('\\') {
        return Ok(body.to_string());
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => return Err(err("dangling escape")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Append `s` with `"`, `\\`, newline and tab escaped.
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.find(['"', '\\', '\n', '\t']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            _ => "\\t",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent::done(
            12,
            5,
            2,
            10_345,
            873,
            51_234,
            "X_5 := algebra.select(X_2, 1:int, 1:int);",
        )
    }

    #[test]
    fn round_trip() {
        let e = sample();
        let line = format_event(&e);
        let back = parse_event(&line).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn round_trip_with_escapes() {
        let mut e = sample();
        e.stmt = "X := f(\"a,b\", \"c\\\"d\");\nnext".to_string();
        let back = parse_event(&format_event(&e)).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn figure3_style_line_parses() {
        let line = r#"[ 0, "start", 1, 0, 42, 0, 1024, "X_1:bat[:oid] := sql.tid(X_0, \"sys\", \"lineitem\");" ]"#;
        let e = parse_event(line).unwrap();
        assert_eq!(e.event, 0);
        assert_eq!(e.status, EventStatus::Start);
        assert_eq!(e.pc, 1);
        assert!(e.stmt.contains("sql.tid"));
    }

    #[test]
    fn commas_inside_stmt_do_not_split() {
        let e = TraceEvent::start(1, 2, 3, 4, 5, "f(a, b, c)");
        let back = parse_event(&format_event(&e)).unwrap();
        assert_eq!(back.stmt, "f(a, b, c)");
    }

    #[test]
    fn malformed_lines_error() {
        assert!(parse_event("not a record").is_err());
        assert!(parse_event("[ 1, \"start\", 2 ]").is_err());
        assert!(parse_event("[ 1, \"weird\", 2, 3, 4, 5, 6, \"s\" ]").is_err());
        assert!(parse_event("[ x, \"start\", 2, 3, 4, 5, 6, \"s\" ]").is_err());
        assert!(parse_event("[ 1, \"start\", 2, 3, 4, 5, 6, \"unterminated ]").is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let line = "  [1,\"done\",2,3,4,5,6,\"s\"]  ";
        let e = parse_event(line).unwrap();
        assert_eq!(e.status, EventStatus::Done);
        assert_eq!(e.rss, 6);
    }
}
