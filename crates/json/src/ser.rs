//! JSON serialization: compact and pretty printers.

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
    write_value(&mut out, value);
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
    write_pretty(&mut out, value, 0);
    out
}

impl Value {
    /// Serializes this value with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        to_pretty_string(self)
    }
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(obj) => write_object(out, obj),
    }
}

fn write_object(out: &mut String, obj: &Object) {
    out.push('{');
    for (i, (k, v)) in obj.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, k);
        out.push(':');
        write_value(out, v);
    }
    out.push('}');
}

impl std::fmt::Display for Object {
    /// Writes the compact JSON encoding, as `Value::Object` would — for
    /// callers that hold an object by reference and must not clone it into
    /// a [`Value`] just to serialize it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_object(&mut out, self);
        f.write_str(&out)
    }
}

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(obj) if !obj.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in obj.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, v, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(out, other),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, parse};

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
