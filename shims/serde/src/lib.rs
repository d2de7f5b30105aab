//! Offline shim for the `serde` API subset used in this repository.
//!
//! The real serde's visitor-based data model is far larger than what this
//! workspace needs (plain `#[derive(Serialize, Deserialize)]` on concrete
//! types plus `serde_json` string round-trips), so this shim collapses the
//! model to a single JSON-like [`Value`] tree:
//!
//! * [`Serialize`] renders a value into a [`Value`];
//! * [`Deserialize`] rebuilds a value from a [`&Value`][Value];
//! * the `serde_derive` shim generates both impls for structs and enums
//!   (externally tagged, matching serde's default representation);
//! * the `serde_json` shim prints/parses `Value` as JSON text.
//!
//! Unsupported serde features (attributes like `#[serde(rename)]`, generic
//! types, non-string map keys) fail at compile time, not silently.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree: the whole (de)serialization data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (covers every in-repo integer except huge `u64`s).
    Int(i64),
    /// Unsigned integer above `i64::MAX`.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, insertion-ordered (printed as given).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as a string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as an array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as an object, if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Numeric value as `i64`, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(n) => Some(n),
            Value::UInt(n) => i64::try_from(n).ok(),
            _ => None,
        }
    }

    /// Numeric value as `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => u64::try_from(n).ok(),
            Value::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// Numeric value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::UInt(n) => Some(n as f64),
            Value::Float(n) => Some(n),
            _ => None,
        }
    }

    /// Boolean value, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Short tag for error messages.
    fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// A (de)serialization error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Build an error from any message.
    pub fn message(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }

    /// "expected X while decoding Y, found Z" convenience constructor.
    pub fn expected(what: &str, context: &str, found: &Value) -> Error {
        Error::message(format!(
            "expected {what} while decoding {context}, found {}",
            found.kind_name()
        ))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Render `self` into the [`Value`] data model.
pub trait Serialize {
    /// Produce the value tree for `self`.
    fn serialize(&self) -> Value;
}

/// Rebuild `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Decode a value tree into `Self`.
    fn deserialize(value: &Value) -> Result<Self, Error>;
}

/// Look up a struct field while decoding; `Option` fields tolerate absence.
pub fn field<T: Deserialize>(
    object: &[(String, Value)],
    name: &str,
    context: &str,
) -> Result<T, Error> {
    match object.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v)
            .map_err(|e| Error::message(format!("in field `{context}.{name}`: {e}"))),
        None => T::deserialize(&Value::Null).map_err(|_| {
            Error::message(format!("missing field `{name}` while decoding {context}"))
        }),
    }
}

/// Like [`field`], but an absent key produces `T::default()` — the shim's
/// implementation of `#[serde(default)]`.
pub fn field_default<T: Deserialize + Default>(
    object: &[(String, Value)],
    name: &str,
    context: &str,
) -> Result<T, Error> {
    match object.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v)
            .map_err(|e| Error::message(format!("in field `{context}.{name}`: {e}"))),
        None => Ok(T::default()),
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                match i64::try_from(*self) {
                    Ok(n) => Value::Int(n),
                    Err(_) => Value::UInt(*self as u64),
                }
            }
        }

        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let out = match *value {
                    Value::Int(n) => <$t>::try_from(n).ok(),
                    Value::UInt(n) => <$t>::try_from(n).ok(),
                    _ => None,
                };
                out.ok_or_else(|| Error::expected("integer", stringify!($t), value))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::expected("number", "f64", value))
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        f64::deserialize(value).map(|n| n as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::expected("bool", "bool", value))
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::expected("string", "String", value))
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for std::sync::Arc<str> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(Into::into)
            .ok_or_else(|| Error::expected("string", "Arc<str>", value))
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let s = value
            .as_str()
            .ok_or_else(|| Error::expected("single-char string", "char", value))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::expected("single-char string", "char", value)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        T::deserialize(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::expected("array", "Vec", value))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let items = value
                    .as_array()
                    .ok_or_else(|| Error::expected("array", "tuple", value))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::message(format!(
                        "expected {expected}-tuple, found array of {}",
                        items.len()
                    )));
                }
                Ok(($($name::deserialize(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::expected("object", "map", value))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self) -> Value {
        // Deterministic output: sort keys.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.serialize()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::expected("object", "map", value))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
            .collect()
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::expected("array", "set", value))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for () {
    fn serialize(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(()),
            other => Err(Error::expected("null", "()", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::deserialize(&7u32.serialize()).unwrap(), 7);
        assert_eq!(i64::deserialize(&(-3i64).serialize()).unwrap(), -3);
        assert_eq!(
            String::deserialize(&"hi".to_string().serialize()).unwrap(),
            "hi"
        );
        let shared: std::sync::Arc<str> = "hi".into();
        assert_eq!(shared.serialize(), "hi".to_string().serialize());
        assert_eq!(
            std::sync::Arc::<str>::deserialize(&shared.serialize()).unwrap(),
            shared
        );
        assert!(bool::deserialize(&true.serialize()).unwrap());
        let v: Vec<u8> = Vec::deserialize(&vec![1u8, 2].serialize()).unwrap();
        assert_eq!(v, vec![1, 2]);
    }

    #[test]
    fn option_null_roundtrip() {
        let none: Option<u32> = None;
        assert_eq!(none.serialize(), Value::Null);
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::deserialize(&Value::Int(4)).unwrap(), Some(4));
    }

    #[test]
    fn big_u64_uses_uint() {
        let big = u64::MAX;
        assert_eq!(big.serialize(), Value::UInt(u64::MAX));
        assert_eq!(u64::deserialize(&Value::UInt(u64::MAX)).unwrap(), u64::MAX);
        assert!(i64::deserialize(&Value::UInt(u64::MAX)).is_err());
    }

    #[test]
    fn type_mismatch_is_reported() {
        let err = u32::deserialize(&Value::Str("x".into())).unwrap_err();
        assert!(err.to_string().contains("expected integer"));
    }

    #[test]
    fn missing_optional_field_is_none() {
        let obj = vec![("a".to_string(), Value::Int(1))];
        let missing: Option<u32> = field(&obj, "b", "T").unwrap();
        assert_eq!(missing, None);
        let present: u32 = field(&obj, "a", "T").unwrap();
        assert_eq!(present, 1);
        assert!(field::<u32>(&obj, "b", "T").is_err());
    }
}
