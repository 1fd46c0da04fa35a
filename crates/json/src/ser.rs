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
/// copies out and the parser copies in. On `x86_64` it tests 16 bytes a step
/// with SSE2 (baseline there, so nothing is detected at run time) and leaves
/// the last 0–15 bytes to [`clean_prefix_len_swar`], which is the whole scan
/// on every other target.
pub(crate) fn clean_prefix_len(bytes: &[u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the `x86_64` baseline; every such CPU has it.
    return unsafe { clean_prefix_len_sse2(bytes) };
    #[cfg(not(target_arch = "x86_64"))]
    return clean_prefix_len_swar(bytes);
}

// rustc calls the SSE2 intrinsics safe only inside a function that names the
// feature itself; SSE2 being on for the whole `x86_64` build does not count
// (E0133), so the attribute stays although it changes no code generated.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn clean_prefix_len_sse2(bytes: &[u8]) -> usize {
    use std::arch::x86_64::*;
    let quote = _mm_set1_epi8(b'"' as i8);
    let slash = _mm_set1_epi8(b'\\' as i8);
    // SSE2 compares bytes as signed: flipping the top bit maps 0x00..0x20
    // onto the lowest 32 values, so one `cmplt` finds the control bytes.
    let flip = _mm_set1_epi8(i8::MIN);
    let below = _mm_set1_epi8((0x20 ^ 0x80) as u8 as i8);
    let mut len = 0;
    for block in bytes.chunks_exact(16) {
        // SAFETY: `block` is 16 readable bytes; the load is unaligned.
        let x = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        let hits = _mm_or_si128(
            _mm_or_si128(_mm_cmpeq_epi8(x, quote), _mm_cmpeq_epi8(x, slash)),
            _mm_cmplt_epi8(_mm_xor_si128(x, flip), below),
        );
        let mask = _mm_movemask_epi8(hits);
        if mask != 0 {
            return len + mask.trailing_zeros() as usize;
        }
        len += 16;
    }
    len + clean_prefix_len_swar(&bytes[len..])
}

/// [`clean_prefix_len`] on plain integers, the reference the SSE2 scan is
/// tested against. Eight bytes at a time while a word holds none of them
/// (`(x - 0x01…) & !x & 0x80…` flags the zero bytes of `x`, the same with
/// `0x20…` the bytes below 0x20; a borrow can only start at a byte that
/// really is one, so "none flagged" is exact), then one byte at a time.
fn clean_prefix_len_swar(bytes: &[u8]) -> usize {
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
        // Each of them at every offset of a clean run: the scan reads 16
        // bytes a step (eight in the SWAR tail), so every alignment of hit
        // and tail occurs, past the 16-, 32- and 64-byte edges.
        for c in ALPHABET {
            for at in 0..=72 {
                cases.push(format!("{}{c}{}", "x".repeat(at), "y".repeat(72 - at)));
            }
        }
        for _ in 0..2_000 {
            // Half the strings are mostly clean, so long runs occur too.
            let len = (next() % 161) as usize;
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

    /// Every byte value at every offset 0..=72 of a clean run, and random
    /// buffers up to 160 bytes: the scan this target runs and the SWAR scan
    /// (the fallback off `x86_64`, called directly so it stays tested where
    /// SSE2 is taken) both stop where the per-byte reference does.
    #[test]
    fn scans_match_the_per_byte_reference() {
        let reference = |bytes: &[u8]| {
            bytes
                .iter()
                .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
                .unwrap_or(bytes.len())
        };
        let mut x = 0x7363_616e_5f72_6566u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut cases: Vec<Vec<u8>> = Vec::new();
        for byte in 0..=255u8 {
            for at in 0..=72 {
                let mut run = vec![b'x'; 80];
                run[at] = byte;
                cases.push(run[..at + 1].to_vec());
                cases.push(run);
            }
        }
        for _ in 0..5_000 {
            let len = (next() % 161) as usize;
            // One special byte in `1 << sparsity` on average.
            let sparsity = next() % 8;
            cases.push(
                (0..len)
                    .map(|_| match next() {
                        r if r % (1 << sparsity) != 0 => b'a' + (r >> 8) as u8 % 26,
                        r => (r >> 16) as u8,
                    })
                    .collect(),
            );
        }
        for bytes in &cases {
            let expected = reference(bytes);
            assert_eq!(clean_prefix_len(bytes), expected, "{bytes:?}");
            assert_eq!(clean_prefix_len_swar(bytes), expected, "SWAR: {bytes:?}");
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
