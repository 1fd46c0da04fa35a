//! JSON serialization: compact and pretty printers.
//!
//! One writer, generic over [`fmt::Write`]: a `String`, a formatter (the
//! `Display` impls write straight into it) or a hasher can be the sink.

use std::fmt::{self, Write};

use crate::value::{Object, Value};

/// Serializes a value to compact JSON (no insignificant whitespace).
///
/// # Examples
///
/// ```
/// use mathcloud_json::{json, ser};
///
/// let v = json!({"a": [1, 2]});
/// assert_eq!(ser::to_string(&v), r#"{"a":[1,2]}"#);
/// ```
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value).expect("writing to a String cannot fail");
    out
}

/// Serializes a value with two-space indentation, the format used by the
/// container's human-facing web UI and the workflow editor export.
///
/// # Examples
///
/// ```
/// use mathcloud_json::{json, ser};
///
/// let v = json!({"a": 1});
/// assert_eq!(ser::to_pretty_string(&v), "{\n  \"a\": 1\n}");
/// ```
pub fn to_pretty_string(value: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, value, 0).expect("writing to a String cannot fail");
    out
}

impl Value {
    /// Serializes this value with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        to_pretty_string(self)
    }
}

/// Writes the compact JSON encoding of `value` into `out`; it fails only
/// when the sink does.
pub fn write_value<W: Write>(out: &mut W, value: &Value) -> fmt::Result {
    match value {
        Value::Null => out.write_str("null"),
        Value::Bool(true) => out.write_str("true"),
        Value::Bool(false) => out.write_str("false"),
        Value::Number(n) => write!(out, "{n}"),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(out, item)?;
            }
            out.write_char(']')
        }
        Value::Object(obj) => write_object(out, obj),
    }
}

fn write_object<W: Write>(out: &mut W, obj: &Object) -> fmt::Result {
    out.write_char('{')?;
    for (i, (k, v)) in obj.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_escaped(out, k)?;
        out.write_char(':')?;
        write_value(out, v)?;
    }
    out.write_char('}')
}

impl fmt::Display for Object {
    /// Writes the compact JSON encoding, as `Value::Object` would — for
    /// callers that hold an object by reference and must not clone it into
    /// a [`Value`] just to serialize it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_object(f, self)
    }
}

fn write_pretty<W: Write>(out: &mut W, value: &Value, indent: usize) -> fmt::Result {
    let newline = |out: &mut W, indent: usize| write!(out, "\n{:1$}", "", 2 * indent);
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline(out, indent + 1)?;
                write_pretty(out, item, indent + 1)?;
            }
            newline(out, indent)?;
            out.write_char(']')
        }
        Value::Object(obj) if !obj.is_empty() => {
            out.write_char('{')?;
            for (i, (k, v)) in obj.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline(out, indent + 1)?;
                write_escaped(out, k)?;
                out.write_str(": ")?;
                write_pretty(out, v, indent + 1)?;
            }
            newline(out, indent)?;
            out.write_char('}')
        }
        other => write_value(out, other),
    }
}

/// Length of the prefix of `bytes` that JSON copies unescaped: everything up
/// to the first `"`, `\\` or control character below 0x20 — what the writer
/// copies out and the parser copies in. Eight bytes at a
/// time while a word holds none of them (`(x - 0x01…) & !x & 0x80…` flags the
/// zero bytes of `x`, the same with `0x20…` the bytes below 0x20; a borrow can
/// only start at a byte that really is one, so "none flagged" is exact).
pub(crate) fn clean_prefix_len(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    let mut len = 0;
    for word in bytes.chunks_exact(8) {
        let x = u64::from_ne_bytes(word.try_into().expect("chunks of 8"));
        let quote = x ^ (ONES * u64::from(b'"'));
        let slash = x ^ (ONES * u64::from(b'\\'));
        let flagged = (x.wrapping_sub(ONES * 0x20) & !x)
            | (quote.wrapping_sub(ONES) & !quote)
            | (slash.wrapping_sub(ONES) & !slash);
        if flagged & (ONES * 0x80) != 0 {
            break;
        }
        len += 8;
    }
    let escaped = |&b: &u8| b < 0x20 || b == b'"' || b == b'\\';
    len + bytes[len..]
        .iter()
        .position(escaped)
        .unwrap_or(bytes.len() - len)
}

/// Writes `s` as a quoted JSON string. What needs escaping is single ASCII
/// bytes, so the runs between them are copied whole.
pub fn write_escaped<W: Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    loop {
        let (clean, tail) = rest.split_at(clean_prefix_len(rest.as_bytes()));
        out.write_str(clean)?;
        let Some(&byte) = tail.as_bytes().first() else {
            return out.write_char('"');
        };
        match byte {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            0x08 => out.write_str("\\b")?,
            0x0c => out.write_str("\\f")?,
            b => write!(out, "\\u{b:04x}")?,
        }
        rest = &tail[1..];
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{json, parse};

    /// Every escaped byte, its neighbours in value (`!#[]`, 0x7f, and the
    /// UTF-8 bytes that differ from `"` and `\` in the top bit only: ¢ is
    /// C2 A2, U+071C is DC 9C), and 1- to 4-byte characters.
    pub(crate) const ALPHABET: [char; 26] = [
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{8}',
        '\u{c}',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '\u{2028}',
        '€',
        '𝄞',
        '\u{10ffff}',
        '!',
        '#',
        '[',
        ']',
        '¢',
        '\u{71c}',
    ];

    #[test]
    fn compact_has_no_whitespace() {
        let v = json!({"a": [1, true, "x"], "b": null});
        assert_eq!(to_string(&v), r#"{"a":[1,true,"x"],"b":null}"#);
    }

    #[test]
    fn objects_display_as_their_value_form() {
        let v = json!({"a": [1, true, "x\"y"], "b": {"c": null}});
        assert_eq!(v.as_object().unwrap().to_string(), to_string(&v));
        assert_eq!(Object::new().to_string(), "{}");
    }

    #[test]
    fn escapes_control_characters() {
        let v = json!({"s": "a\u{0001}b\nc"});
        let s = to_string(&v);
        assert!(s.contains("\\u0001"));
        assert!(s.contains("\\n"));
        assert_eq!(parse(&s).unwrap(), v);
    }

    /// The escaper as it was before it copied runs: one `char` at a time.
    /// Kept as the reference the run-copy escaper is compared against.
    fn write_escaped_per_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{0008}' => out.push_str("\\b"),
                '\u{000C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn run_copy_escaper_matches_the_per_char_reference() {
        let mut x = 0x7365_725f_6573_6361u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut cases: Vec<String> = (0..0x80u8).map(|b| (b as char).to_string()).collect();
        cases.push(String::new());
        // Each of them at every offset of a clean run: the scan reads eight
        // bytes at a time, so every alignment of hit and tail occurs.
        for c in ALPHABET {
            for at in 0..=24 {
                cases.push(format!("{}{c}{}", "x".repeat(at), "y".repeat(24 - at)));
            }
        }
        for _ in 0..2_000 {
            // Half the strings are mostly clean, so long runs occur too.
            let len = (next() % 40) as usize;
            let clean = next() % 2 == 0;
            cases.push(
                (0..len)
                    .map(|_| match next() {
                        r if clean && r % 8 != 0 => 'x',
                        r => ALPHABET[(r >> 8) as usize % ALPHABET.len()],
                    })
                    .collect(),
            );
        }
        for s in &cases {
            let mut expected = String::new();
            write_escaped_per_char(&mut expected, s);
            let mut got = String::new();
            write_escaped(&mut got, s).unwrap();
            assert_eq!(got, expected, "{s:?}");
            assert_eq!(parse(&got).unwrap(), Value::from(s.as_str()), "{s:?}");
        }
    }

    #[test]
    fn display_writes_what_to_string_returns() {
        let v = json!({"k\"": ["a\u{1}b", 2.0, (-3), null, {"é": true}], "e": {}, "z": []});
        assert_eq!(format!("{v}"), to_string(&v));
        assert_eq!(format!("{:>4}", json!(7)), "7", "padding is not applied");
        let mut sink = String::from(">");
        write_value(&mut sink, &v).unwrap();
        assert_eq!(sink, format!(">{}", to_string(&v)));
    }

    #[test]
    fn pretty_round_trips() {
        let v = json!({"outer": {"inner": [1, {"deep": []}]}, "empty": {}});
        assert_eq!(parse(&to_pretty_string(&v)).unwrap(), v);
    }

    #[test]
    fn empty_containers_stay_compact_in_pretty_mode() {
        assert_eq!(to_pretty_string(&json!([])), "[]");
        assert_eq!(to_pretty_string(&json!({})), "{}");
    }

    #[test]
    fn float_int_distinction_survives() {
        let v = json!({"f": 2.0, "i": 2});
        let rt = parse(&to_string(&v)).unwrap();
        assert!(matches!(
            rt["f"],
            crate::Value::Number(crate::Number::Float(_))
        ));
        assert!(matches!(
            rt["i"],
            crate::Value::Number(crate::Number::Int(_))
        ));
    }
}
