//! Offline stand-in for the `serde` crate.
//!
//! The build environment of this workspace has no access to crates.io, so the external
//! `serde` dependency is replaced by this minimal reimplementation of the surface the
//! workspace actually uses: the [`Serialize`] / [`Deserialize`] traits, derive macros for
//! plain structs and fieldless enums (including `#[serde(transparent)]` newtypes), and a
//! self-describing [`Value`] data model that `serde_json` renders to and parses from.
//!
//! The design intentionally differs from upstream serde (no `Serializer`/`Deserializer`
//! visitors): every type converts to and from [`Value`], which is all a JSON-only workspace
//! needs, at a small fraction of the complexity.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing data value — the interchange format between [`Serialize`],
/// [`Deserialize`] and the `serde_json` text layer.
///
/// Objects preserve insertion order so serialized artifacts are deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number (stored as `f64`; integers up to 2^53 round-trip exactly).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map of string keys to values.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as an object's entry list, if it is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // 2^64 is the first integer past `u64::MAX`.
        let in_range = (0.0..18_446_744_073_709_551_616.0).contains(&n);
        (n.fract() == 0.0 && in_range).then_some(n as u64)
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns `true` for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Looks a key up in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|entries| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// An error with an arbitrary message.
    pub fn custom(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// "Expected X, found Y" type mismatch.
    pub fn expected(what: &str, found: &Value) -> Self {
        Self::custom(format!("expected {what}, found {}", found.kind()))
    }

    /// A missing object field.
    pub fn missing_field(name: &str) -> Self {
        Self::custom(format!("missing field `{name}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Converts a value into the [`Value`] data model.
pub trait Serialize {
    /// The data-model representation of `self`.
    fn to_value(&self) -> Value;
}

/// Reconstructs a value from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parses `self` out of a data-model value.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first shape or type mismatch.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// Called by derived struct impls when an object field is absent.  The default is an
    /// error; `Option<T>` overrides it to yield `None` so optional fields can be omitted.
    ///
    /// # Errors
    ///
    /// Returns a "missing field" error unless overridden.
    fn absent_field(name: &str) -> Result<Self, Error> {
        Err(Error::missing_field(name))
    }
}

/// Reads one named field of an object during derived deserialization.
///
/// # Errors
///
/// Propagates the field's own parse error, or `absent_field` when the key is missing.
pub fn field<T: Deserialize>(entries: &[(String, Value)], name: &str) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error::custom(format!("field `{name}`: {e}"))),
        None => T::absent_field(name),
    }
}

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                value
                    .as_f64()
                    .map(|n| n as $t)
                    .ok_or_else(|| Error::expected("number", value))
            }
        }
    )*};
}

impl_float!(f32, f64);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_f64().ok_or_else(|| Error::expected("number", value))?;
                if n.fract() != 0.0 {
                    return Err(Error::custom(format!("expected integer, found {n}")));
                }
                // Range check before the cast: `as` would silently saturate, turning e.g.
                // a typo'd negative seed into 0.  The upper bound is exclusive and exact:
                // `MAX as f64` rounds up to 2^64 (2^63 for i64), which would let exactly
                // that value through, but `(MAX / 2 + 1) * 2` is MAX + 1, a power of two.
                let above_max = (<$t>::MAX / 2 + 1) as f64 * 2.0;
                if n < <$t>::MIN as f64 || n >= above_max {
                    return Err(Error::custom(format!(
                        "integer {n} out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::expected("boolean", value))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string", value))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::expected("array", value))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_array()
            .ok_or_else(|| Error::expected("array", value))?;
        if items.len() != N {
            return Err(Error::custom(format!(
                "expected array of {N} elements, found {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(key, value)| (key.clone(), value.to_value()))
                .collect(),
        )
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_value(value).map(Some)
        }
    }

    fn absent_field(_name: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value.as_array().ok_or_else(|| Error::expected("array", value))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::custom(format!(
                        "expected array of {expected} elements, found {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert!(u64::from_value(&Value::Number(1.5)).is_err());
        assert!(
            u64::from_value(&Value::Number(-5.0)).is_err(),
            "negative must not saturate to 0"
        );
        assert!(
            u8::from_value(&Value::Number(300.0)).is_err(),
            "overflow must not saturate"
        );
        assert_eq!(i32::from_value(&Value::Number(-5.0)).unwrap(), -5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        assert!(String::from_value(&Value::Null).is_err());
    }

    #[test]
    fn one_past_max_is_out_of_range_for_64_bit_integers() {
        // `MAX as f64` is 2^64 (2^63 for i64); that value is one past MAX, not MAX.
        let two_to_the = |bits: i32| Value::Number(2f64.powi(bits));
        for (value, ty) in [
            (u64::from_value(&two_to_the(64)).err(), "u64"),
            (usize::from_value(&two_to_the(64)).err(), "usize"),
            (i64::from_value(&two_to_the(63)).err(), "i64"),
        ] {
            let err = value.expect("2^width must not saturate to MAX");
            assert!(err.to_string().contains("out of range"), "{ty}: {err}");
        }
        // The largest doubles below the bound and the signed minimum still convert.
        let below = |bits: i32| Value::Number(2f64.powi(bits) - 2f64.powi(bits - 53));
        assert_eq!(u64::from_value(&below(64)).unwrap(), u64::MAX - 2047);
        assert_eq!(i64::from_value(&below(63)).unwrap(), i64::MAX - 1023);
        assert_eq!(
            i64::from_value(&Value::Number(-(2f64.powi(63)))).unwrap(),
            i64::MIN
        );
    }

    #[test]
    fn as_u64_takes_only_non_negative_integers() {
        assert_eq!(Value::Number(42.0).as_u64(), Some(42));
        assert_eq!(Value::Number(0.0).as_u64(), Some(0));
        assert_eq!(Value::Number(1.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(Value::Number(f64::INFINITY).as_u64(), None);
        assert_eq!(Value::Number(1e20).as_u64(), None);
        assert_eq!(Value::String("1".to_string()).as_u64(), None);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let t = (1usize, 2usize, 3usize);
        assert_eq!(
            <(usize, usize, usize)>::from_value(&t.to_value()).unwrap(),
            t
        );
        let none: Option<String> = None;
        assert!(none.to_value().is_null());
        assert_eq!(Option::<String>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<String>::absent_field("x").unwrap(), None);
        assert!(String::absent_field("x").is_err());
        let map = std::collections::BTreeMap::from([("b".to_string(), 2u8), ("a".to_string(), 1)]);
        assert_eq!(
            map.to_value(),
            Value::Object(vec![
                ("a".to_string(), Value::Number(1.0)),
                ("b".to_string(), Value::Number(2.0)),
            ])
        );
    }

    #[test]
    fn object_field_lookup() {
        let obj = vec![("a".to_string(), Value::Number(2.0))];
        assert_eq!(field::<u32>(&obj, "a").unwrap(), 2);
        assert!(field::<u32>(&obj, "b").is_err());
        assert_eq!(field::<Option<u32>>(&obj, "b").unwrap(), None);
    }
}
