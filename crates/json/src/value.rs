//! The owned JSON document model.

use std::fmt;
use std::ops::Index;

use crate::number::Number;

/// An insertion-ordered JSON object.
///
/// MathCloud service descriptions are written by humans and read by humans;
/// preserving key order keeps the JSON a service publishes identical in shape
/// to the JSON its author wrote. Lookup is linear, which is the right
/// trade-off for the small objects that dominate protocol traffic.
///
/// # Examples
///
/// ```
/// use mathcloud_json::value::Object;
/// use mathcloud_json::Value;
///
/// let mut o = Object::new();
/// o.insert("b".into(), Value::from(1));
/// o.insert("a".into(), Value::from(2));
/// let keys: Vec<_> = o.iter().map(|(k, _)| k.as_str()).collect();
/// assert_eq!(keys, ["b", "a"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Object {
    entries: Vec<(String, Value)>,
}

impl Object {
    /// Creates an empty object.
    pub fn new() -> Self {
        Object {
            entries: Vec::new(),
        }
    }

    /// Creates an empty object with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Object {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the object has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a key mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Returns `true` if `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Inserts a key, replacing (and returning) any previous value while
    /// keeping the key's original position.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates entries mutably in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Value)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl PartialEq for Object {
    /// Objects compare as maps: order-insensitive.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl FromIterator<(String, Value)> for Object {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut obj = Object::new();
        for (k, v) in iter {
            obj.insert(k, v);
        }
        obj
    }
}

impl Extend<(String, Value)> for Object {
    fn extend<T: IntoIterator<Item = (String, Value)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl IntoIterator for Object {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// An owned JSON value.
///
/// # Examples
///
/// ```
/// use mathcloud_json::{json, Value};
///
/// let v = json!({"state": "DONE", "outputs": {"det": "1/6"}});
/// assert_eq!(v["state"].as_str(), Some("DONE"));
/// assert!(v["missing"].is_null());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// A JSON number.
    Number(Number),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object.
    Object(Object),
}

impl Value {
    /// Returns the JSON type name, matching JSON Schema `type` keywords.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(n) if n.is_int() => "integer",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Returns `true` for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` for objects.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Returns `true` for arrays.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as `i64` if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Returns the value as `u64` if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Returns the value as `f64` if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Returns the string slice if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array slice if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the object if this is an `Object`.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Returns the object mutably if this is an `Object`.
    pub fn as_object_mut(&mut self) -> Option<&mut Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up `key` in an object, returning `None` for other types.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Looks up index `i` in an array, returning `None` for other types.
    pub fn at(&self, i: usize) -> Option<&Value> {
        self.as_array().and_then(|a| a.get(i))
    }

    /// Convenience: `get(key)` then `as_str`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Convenience: `get(key)` then `as_i64`.
    pub fn int_field(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_i64)
    }
}

/// Shared sentinel for indexing misses.
static NULL: Value = Value::Null;

impl Index<&str> for Value {
    type Output = Value;

    /// Indexes into an object; missing keys and non-objects yield `Null`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    /// Indexes into an array; out-of-range and non-arrays yield `Null`.
    fn index(&self, i: usize) -> &Value {
        self.at(i).unwrap_or(&NULL)
    }
}

impl fmt::Display for Value {
    /// Writes the compact JSON encoding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::ser::write_value(f, self)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Number(Number::Int(i))
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Number(Number::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Number(Number::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Number(Number::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Number(Number::Float(f))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<Number> for Value {
    fn from(n: Number) -> Self {
        Value::Number(n)
    }
}

impl From<Object> for Value {
    fn from(o: Object) -> Self {
        Value::Object(o)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::Array(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_preserves_insertion_order_and_replaces_in_place() {
        let mut o = Object::new();
        o.insert("x".into(), Value::from(1));
        o.insert("y".into(), Value::from(2));
        let old = o.insert("x".into(), Value::from(3));
        assert_eq!(old, Some(Value::from(1)));
        let keys: Vec<_> = o.keys().map(String::as_str).collect();
        assert_eq!(keys, ["x", "y"]);
        assert_eq!(o.get("x"), Some(&Value::from(3)));
    }

    #[test]
    fn object_equality_ignores_order() {
        let a: Object = [
            ("p".to_string(), Value::from(1)),
            ("q".to_string(), Value::from(2)),
        ]
        .into_iter()
        .collect();
        let b: Object = [
            ("q".to_string(), Value::from(2)),
            ("p".to_string(), Value::from(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn indexing_missing_paths_yields_null() {
        let v = crate::json!({"a": [10]});
        assert!(v["b"]["c"][3].is_null());
        assert_eq!(v["a"][0].as_i64(), Some(10));
    }

    #[test]
    fn type_names_match_json_schema_keywords() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::from(1).type_name(), "integer");
        assert_eq!(Value::from(1.5).type_name(), "number");
        assert_eq!(Value::from("s").type_name(), "string");
        assert_eq!(Value::Array(vec![]).type_name(), "array");
        assert_eq!(Value::Object(Object::new()).type_name(), "object");
    }

    #[test]
    fn object_remove_returns_value() {
        let mut o = Object::new();
        o.insert("k".into(), Value::from("v"));
        assert_eq!(o.remove("k"), Some(Value::from("v")));
        assert_eq!(o.remove("k"), None);
        assert!(o.is_empty());
    }
}
