//! JSON support for the MathCloud platform.
//!
//! The MathCloud unified REST API (see the `mathcloud-core` crate) uses JSON
//! as its only wire representation and JSON Schema to describe service
//! parameters. This crate provides everything the platform needs, written
//! from scratch on the standard library:
//!
//! * [`Value`] — an owned JSON document model,
//! * [`parse()`] — a recursive-descent parser with line/column error reporting,
//!   and [`parse_bytes`], the same parser on raw bytes that checks the UTF-8
//!   itself,
//! * serialization via `Value::to_string` (compact) and [`Value::to_pretty_string`],
//! * [`pointer::Pointer`] — RFC 6901 JSON Pointers,
//! * [`schema::Schema`] — a practical JSON Schema subset used to describe and
//!   validate service inputs and outputs.
//!
//! # Examples
//!
//! ```
//! use mathcloud_json::{parse, Value};
//!
//! # fn main() -> Result<(), mathcloud_json::ParseError> {
//! let v = parse(r#"{"name": "inverse", "inputs": ["matrix"], "version": 2}"#)?;
//! assert_eq!(v["name"].as_str(), Some("inverse"));
//! assert_eq!(v["version"].as_i64(), Some(2));
//! let round_trip = parse(&v.to_string())?;
//! assert_eq!(v, round_trip);
//! # Ok(())
//! # }
//! ```

pub mod number;
pub mod parse;
pub mod pointer;
pub mod schema;
pub mod ser;
pub mod value;

pub use number::Number;
pub use parse::{parse, parse_bytes, ParseError};
pub use pointer::Pointer;
pub use schema::{Schema, SchemaError, ValidationError};
pub use value::Value;

/// Builds a [`Value`] with a literal-like syntax.
///
/// Mirrors the JSON grammar: objects use `{ "key": value }`, arrays use
/// `[a, b, c]`, and any Rust expression convertible into a [`Value`] may be
/// used in value position. Negative number literals inside arrays or objects
/// must be parenthesized (`json!([(-1), 2])`) because a bare `-1` is two
/// tokens to the macro matcher.
///
/// # Examples
///
/// ```
/// use mathcloud_json::json;
///
/// let v = json!({
///     "name": "inverse",
///     "parallel": true,
///     "sizes": [250, 300, 350],
///     "nested": { "n": 1 },
/// });
/// assert_eq!(v["sizes"][1].as_i64(), Some(300));
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $( $elem:tt ),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ({ $( $key:tt : $val:tt ),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut obj = $crate::value::Object::new();
        $( obj.insert($key.to_string(), $crate::json!($val)); )*
        $crate::Value::Object(obj)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod macro_tests {
    use crate::Value;

    #[test]
    fn json_macro_builds_nested_documents() {
        let v = json!({
            "a": [1, 2.5, "three", true, null],
            "b": { "c": {} },
        });
        assert_eq!(v["a"][0].as_i64(), Some(1));
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert_eq!(v["a"][2].as_str(), Some("three"));
        assert_eq!(v["a"][3].as_bool(), Some(true));
        assert!(v["a"][4].is_null());
        assert!(v["b"]["c"].is_object());
    }

    #[test]
    fn json_macro_accepts_expressions() {
        let n = 40 + 2;
        let v = json!({ "answer": n });
        assert_eq!(v["answer"].as_i64(), Some(42));
        assert_eq!(json!(null), Value::Null);
    }
}
