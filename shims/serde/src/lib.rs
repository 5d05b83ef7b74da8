//! Offline stand-in for the `serde` crate.
//!
//! The real serde's visitor architecture is far more than this workspace
//! needs: the only typed values that leave the process are report and
//! artifact rows, cache sidecars and wire replies, all written out as JSON.
//! So [`Serialize`] converts straight into a self-describing [`Value`] tree
//! (miniserde style), the derive macro in `serde_derive` generates that
//! conversion for named-field structs, and `serde_json` renders the tree.
//! Nothing decodes into a typed value: data read back in is parsed into a
//! [`Value`] and decoded from it by hand. The std impls below cover what
//! those types hold.

pub use serde_derive::Serialize;

/// A self-describing serialized tree (JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Unsigned integers.
    U64(u64),
    /// Signed integers that don't fit the unsigned arm.
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Field order is preserved (declaration order for derived structs).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` if this is a [`Value::Map`] that has one —
    /// `serde_json::Value::get` for string keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Conversion into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

macro_rules! impl_serialize_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_serialize_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
    )*};
}

impl_serialize_unsigned!(u8, u16, u32, u64, usize);
impl_serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
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

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                Value::Seq(vec![$($name.to_value()),+])
            }
        }
    )*};
}

impl_serialize_tuple! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_arms() {
        assert_eq!(5u32.to_value(), Value::U64(5));
        assert_eq!((-3i64).to_value(), Value::I64(-3));
        assert_eq!(7i64.to_value(), Value::U64(7));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(Option::<u8>::None.to_value(), Value::Null);
    }

    #[test]
    fn collections_nest() {
        let v = vec![1u8, 2, 3].to_value();
        assert_eq!(
            v,
            Value::Seq(vec![Value::U64(1), Value::U64(2), Value::U64(3)])
        );
        let m = Value::Map(vec![("a".into(), (1u8, 2.5f64).to_value())]);
        assert_eq!(
            m.get("a"),
            Some(&Value::Seq(vec![Value::U64(1), Value::F64(2.5)]))
        );
        assert_eq!(m.get("b"), None);
        assert_eq!(v.get("a"), None, "only maps have keys");
    }
}
