//! Result memoization: canonical memo keys over `(service, inputs)`.
//!
//! The paper's premise is that scientific services are *reused* — the same
//! inverse, the same subproblem, the same scattering fit is submitted over
//! and over. This module derives a SHA-256 **memo key** from a submission so
//! the container can answer a repeat of an already-completed job instantly
//! instead of re-running the kernel.
//!
//! Two submissions must map to the same key exactly when they are
//! *semantically* the same request. The canonical form therefore erases
//! every wire-level accident:
//!
//! * **Key order** — object members are sorted by key (recursively), so
//!   `{"a":1,"b":2}` and `{"b":2,"a":1}` collide.
//! * **Number spelling** — a float with zero fractional part in `i64` range
//!   is folded to its integer spelling, so `1`, `1.0` and `1e0` collide.
//! * **Whitespace** — keys are computed over parsed values, never raw text.
//! * **File content** — an `mc-file:<id>` input is replaced by
//!   `mc-blob:<sha256>` of the file's bytes, so two uploads of the same
//!   payload under different ids collide (and the same id re-uploaded with
//!   different bytes does not).
//!
//! Anything the canonical form does *not* erase — a flipped value, an added
//! field, a different service name — must change the key; the
//! `memo_canon` differential battery locks both directions down.

use std::fmt::{self, Write};

use mathcloud_core::FileRef;
use mathcloud_json::value::Object;
use mathcloud_json::{ser, Value};
use mathcloud_security::sha256::{self, Sha256};

/// Scheme prefix a resolved file input canonicalizes to.
const BLOB_SCHEME: &str = "mc-blob:";

/// Maps a container-local file id to the hex digest of its content.
/// Unresolvable references are kept literal (two submissions naming the same
/// dangling id still collide, which is the conservative choice: they would
/// also fail identically at execution time).
pub type ResolveFile<'a> = &'a dyn Fn(&str) -> Option<String>;

/// Writes the canonical form of `(service, inputs)` into `out`. This is its
/// one definition, and it works by reference: the sink decides whether the
/// text is kept ([`canonical_string`]) or only hashed ([`memo_key`]).
fn write_canonical<W: Write>(
    out: &mut W,
    service: &str,
    inputs: &Object,
    resolve_file: ResolveFile<'_>,
) -> fmt::Result {
    out.write_str(service)?;
    out.write_char('\n')?;
    write_object(out, inputs, resolve_file)
}

fn write_object<W: Write>(out: &mut W, map: &Object, resolve_file: ResolveFile<'_>) -> fmt::Result {
    let mut entries: Vec<(&String, &Value)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    out.write_char('{')?;
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        ser::write_escaped(out, k)?;
        out.write_char(':')?;
        write_value(out, v, resolve_file)?;
    }
    out.write_char('}')
}

fn write_value<W: Write>(out: &mut W, value: &Value, resolve_file: ResolveFile<'_>) -> fmt::Result {
    match value {
        Value::Object(map) => write_object(out, map, resolve_file),
        Value::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(out, item, resolve_file)?;
            }
            out.write_char(']')
        }
        // Numeric spellings of one quantity fold onto one representative:
        // an integral float in `i64` range is written as the integer.
        Value::Number(n) => match n.as_i64() {
            Some(i) => write!(out, "{i}"),
            None => write!(out, "{n}"),
        },
        Value::String(s) => match s.strip_prefix(FileRef::SCHEME).and_then(resolve_file) {
            Some(hash) => ser::write_escaped(out, &format!("{BLOB_SCHEME}{hash}")),
            None => ser::write_escaped(out, s),
        },
        Value::Bool(_) | Value::Null => ser::write_value(out, value),
    }
}

/// The canonical serialized form a memo key hashes over.
///
/// Exposed for the differential battery, which asserts textual equality of
/// canonical forms as a stronger check than hash equality.
pub fn canonical_string(service: &str, inputs: &Object, resolve_file: ResolveFile<'_>) -> String {
    let mut out = String::new();
    write_canonical(&mut out, service, inputs, resolve_file)
        .expect("writing to a String cannot fail");
    out
}

/// The SHA-256 memo key of a `(service, inputs)` submission, as lowercase
/// hex: the digest of [`canonical_string`], hashed while it is written.
pub fn memo_key(service: &str, inputs: &Object, resolve_file: ResolveFile<'_>) -> String {
    let mut hasher = Sha256::new();
    write_canonical(&mut hasher, service, inputs, resolve_file)
        .expect("writing to a hasher cannot fail");
    sha256::to_hex(&hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::{json, parse};

    fn no_files(_: &str) -> Option<String> {
        None
    }

    fn obj(text: &str) -> Object {
        match parse(text).unwrap() {
            Value::Object(o) => o,
            other => panic!("not an object: {other}"),
        }
    }

    #[test]
    fn key_order_is_erased() {
        let a = obj(r#"{"a": 1, "b": {"x": true, "y": [1, 2]}}"#);
        let b = obj(r#"{"b": {"y": [1, 2], "x": true}, "a": 1}"#);
        assert_eq!(
            canonical_string("svc", &a, &no_files),
            canonical_string("svc", &b, &no_files)
        );
    }

    #[test]
    fn numeric_spellings_collide() {
        for spelling in ["1", "1.0", "1e0", "1.0e0", "10e-1"] {
            let v = obj(&format!(r#"{{"n": {spelling}}}"#));
            assert_eq!(
                memo_key("svc", &v, &no_files),
                memo_key("svc", &obj(r#"{"n": 1}"#), &no_files),
                "spelling {spelling}"
            );
        }
        // A genuinely fractional number must stay distinct.
        assert_ne!(
            memo_key("svc", &obj(r#"{"n": 1.5}"#), &no_files),
            memo_key("svc", &obj(r#"{"n": 1}"#), &no_files)
        );
    }

    #[test]
    fn array_order_is_semantic() {
        assert_ne!(
            memo_key("svc", &obj(r#"{"v": [1, 2]}"#), &no_files),
            memo_key("svc", &obj(r#"{"v": [2, 1]}"#), &no_files)
        );
    }

    #[test]
    fn service_name_is_part_of_the_key() {
        let inputs = obj(r#"{"a": 1}"#);
        assert_ne!(
            memo_key("inverse", &inputs, &no_files),
            memo_key("determinant", &inputs, &no_files)
        );
    }

    #[test]
    fn file_inputs_resolve_to_content() {
        let resolve = |id: &str| match id {
            "f-1" | "f-2" => Some("aabb".to_string()),
            "f-3" => Some("ccdd".to_string()),
            _ => None,
        };
        let by_id = |id: &str| {
            let mut o = Object::new();
            o.insert("m".to_string(), json!(format!("mc-file:{id}")));
            o
        };
        // Different ids, same bytes: collide.
        assert_eq!(
            memo_key("svc", &by_id("f-1"), &resolve),
            memo_key("svc", &by_id("f-2"), &resolve)
        );
        // Different bytes: distinct.
        assert_ne!(
            memo_key("svc", &by_id("f-1"), &resolve),
            memo_key("svc", &by_id("f-3"), &resolve)
        );
        // Unresolvable references stay literal (and still differ from a
        // resolved one).
        assert_ne!(
            memo_key("svc", &by_id("f-9"), &resolve),
            memo_key("svc", &by_id("f-1"), &resolve)
        );
        // Plain strings and remote URLs are never rewritten.
        let plain = obj(r#"{"m": "not a file"}"#);
        assert_eq!(
            canonical_string("svc", &plain, &resolve),
            "svc\n{\"m\":\"not a file\"}"
        );
    }
}
