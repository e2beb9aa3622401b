//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so this shim provides a
//! value-model serialization framework under the `serde` name:
//! [`Serialize`] renders a type into a [`Value`] tree, [`Deserialize`]
//! rebuilds the type from one, and the [`json`] module converts trees
//! to/from JSON text. In place of the derive macros, [`codec!`] (a
//! `macro_rules!` macro, no proc-macro crate) writes both impls from a
//! type's definition: field defaults, omitted fields, tagged enums and
//! one key policy per type, strict or lenient.

use std::collections::BTreeMap;
use std::fmt;

/// A self-describing value tree (the JSON data model).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absent/null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Number (stored as f64; integers round-trip exactly to 2^53).
    Num(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Arr(Vec<Value>),
    /// Key→value map, sorted by key for deterministic output.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Required object member.
    pub fn require(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error::new(format!("missing field {key:?}")))
    }

    /// As f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// As u64, if an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// As str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
///
/// A decode error names where it happened: the key path into the value
/// (`dags[1].ks`, built as the error travels out of the nested
/// decoders) and, for a [`json::parse`] error, the byte offset into the
/// text.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    path: String,
    message: String,
    offset: Option<usize>,
}

impl Error {
    /// Error with the given description.
    pub fn new(message: impl Into<String>) -> Error {
        Error {
            path: String::new(),
            message: message.into(),
            offset: None,
        }
    }

    /// Error at byte `offset` of a JSON text.
    pub(crate) fn at_byte(message: impl Into<String>, offset: usize) -> Error {
        Error {
            offset: Some(offset),
            ..Error::new(message)
        }
    }

    /// Byte offset into the JSON text, for [`json::parse`] errors.
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }

    /// The same error, inside member `key` of an object.
    pub(crate) fn at_key(mut self, key: &str) -> Error {
        let sep = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{key}{sep}{}", self.path);
        self
    }

    /// The same error, inside element `index` of an array.
    pub(crate) fn at_index(self, index: usize) -> Error {
        self.at_key(&format!("[{index}]"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.path.is_empty() {
            write!(f, "{}: ", self.path)?;
        }
        f.write_str(&self.message)?;
        if let Some(offset) = self.offset {
            write!(f, " at byte {offset}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {}

/// Render `Self` into a [`Value`] tree.
pub trait Serialize {
    /// Serialize into the value model.
    fn serialize(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserialize from the value model.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                v.as_f64()
                    .map(|n| n as $t)
                    .ok_or_else(|| Error::new(format!("expected number, got {v:?}")))
            }
        }
    )*};
}

impl_float!(f64, f32);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_f64()
                    .ok_or_else(|| Error::new(format!("expected integer, got {v:?}")))?;
                // Exact conversion only: reject fractions, non-finite
                // values, and anything outside the target range —
                // a silently truncated spec field would run (and cache)
                // a different campaign than the user wrote.
                if !n.is_finite() || n.fract() != 0.0 {
                    return Err(Error::new(format!("expected integer, got {n}")));
                }
                if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(Error::new(format!(
                        "integer {n} out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_int!(u64, u32, usize, i64, i32);

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::new(format!("expected bool, got {v:?}")))
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::new(format!("expected string, got {v:?}")))
    }
}

impl Serialize for &str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_arr()
            .ok_or_else(|| Error::new(format!("expected array, got {v:?}")))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::deserialize(item).map_err(|e| e.at_index(i)))
            .collect()
    }
}

impl<T: Serialize> Serialize for BTreeMap<String, T> {
    fn serialize(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }
}

impl<T: Deserialize> Deserialize for BTreeMap<String, T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let Value::Obj(map) = v else {
            return Err(Error::new(format!("expected object, got {v:?}")));
        };
        map.iter()
            .map(|(k, v)| Ok((k.clone(), T::deserialize(v).map_err(|e| e.at_key(k))?)))
            .collect()
    }
}

/// A value tree is its own encoding (so `json::to_string` writes one).
impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.serialize(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl Serialize for std::time::Duration {
    fn serialize(&self) -> Value {
        Value::Num(self.as_secs_f64())
    }
}

impl Deserialize for std::time::Duration {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let secs = f64::deserialize(v)?;
        // Negative, non-finite and out-of-range seconds are errors.
        std::time::Duration::try_from_secs_f64(secs)
            .map_err(|_| Error::new(format!("bad duration {secs:?}")))
    }
}

/// One object's members as a [`codec!`] encoder (or a `with` module)
/// writes them: each key with its value, in any order. The keys are
/// owned so that the object's map collects them in place.
pub type Members = Vec<(String, Value)>;

/// One object's members as a [`codec!`] decoder (or a `with` module)
/// reads them. It counts the keys it hands out, so a strict type finds
/// an unread key by one comparison and scans the keys only to name it.
pub struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    tag: &'a str,
    read: usize,
}

impl<'a> Fields<'a> {
    /// The members of `v`, which must be an object.
    pub fn new(v: &'a Value) -> Result<Fields<'a>, Error> {
        match v {
            Value::Obj(map) => Ok(Fields {
                map,
                tag: "",
                read: 0,
            }),
            other => Err(Error::new(format!("expected object, got {other:?}"))),
        }
    }

    /// The tag of the enum variant being read (empty for a record).
    pub fn tag(&self) -> &'a str {
        self.tag
    }

    /// Read the string member `key` as the variant tag.
    pub fn read_tag(&mut self, key: &str) -> Result<&'a str, Error> {
        match self.get(key) {
            Some(Value::Str(tag)) => {
                self.tag = tag;
                Ok(tag)
            }
            Some(other) => Err(Error::new(format!("expected string, got {other:?}")).at_key(key)),
            None => Err(Error::new(format!("missing field {key:?}"))),
        }
    }

    /// The member `key`, if present. Read each key at most once.
    fn get(&mut self, key: &str) -> Option<&'a Value> {
        let v = self.map.get(key);
        self.read += usize::from(v.is_some());
        v
    }

    /// Decode the required member `key`.
    pub fn req<T: Deserialize>(&mut self, key: &str) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => T::deserialize(v).map_err(|e| e.at_key(key)),
            None => Err(Error::new(format!("missing field {key:?}"))),
        }
    }

    /// Decode the member `key`, or take `default()` when it is absent.
    pub fn or<T: Deserialize>(
        &mut self,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => T::deserialize(v).map_err(|e| e.at_key(key)),
            None => Ok(default()),
        }
    }

    /// For a strict type, fail on the first key (in key order) that no
    /// field read, naming `table()` and every key in `accepted`.
    pub fn finish(
        self,
        strict: bool,
        table: impl FnOnce() -> String,
        accepted: &[&[&str]],
    ) -> Result<(), Error> {
        if !strict || self.read == self.map.len() {
            return Ok(());
        }
        let mut accepted = accepted.concat();
        accepted.sort_unstable();
        accepted.dedup();
        match self.map.keys().find(|k| !accepted.contains(&k.as_str())) {
            None => Ok(()),
            Some(key) => Err(Error::new(format!(
                "unknown key {key:?} in {} (accepted: {})",
                table(),
                accepted.join(", ")
            ))),
        }
    }
}

/// Define a type and write its [`Serialize`] and [`Deserialize`] from
/// that one definition: the shim's stand-in for
/// `#[derive(Serialize, Deserialize)]`.
///
/// **Records** are one JSON object with a key per field, named like
/// the field. The header names the type's key policy: `strict "the
/// top-level table";` fails a decode on the first key no field reads
/// (`unknown key "K" in the top-level table (accepted: …)`), `lenient;`
/// ignores such keys, so lines of other releases still decode.
///
/// ```
/// serde::codec! {
///     lenient;
///     /// One lease on the wire.
///     #[derive(Debug, PartialEq)]
///     pub struct Lease {
///         /// Required: a decode fails without it.
///         pub id: u64,
///         /// Written always (`null` when `None`); absent decodes as the default.
///         pub owner: Option<String> = None,
///         /// Left out when it equals its default, which absence decodes to.
///         #[serde(omit_default)]
///         pub cells: Vec<usize> = Vec::new(),
///     }
/// }
/// let lease = Lease { id: 3, owner: None, cells: vec![] };
/// assert_eq!(serde::json::to_string(&lease), r#"{"id":3,"owner":null}"#);
/// assert_eq!(serde::json::from_str::<Lease>(r#"{"id":3,"x":1}"#).unwrap(), lease);
/// ```
///
/// A field marked `#[serde(with = module)]` is coded by hand: `module`
/// has `KEYS: &[&str]` (the keys it reads), `decode(&mut Fields) ->
/// Result<T, Error>` and `encode(&T, &mut Members)`.
///
/// **Tagged enums** are one object per variant, whose tag key names
/// the variant: `strict "request", tag "type";` reads `{"type":
/// "status", …}` and names the table `a "status" request` in errors.
/// Each variant is written `Name = "tag"` and is a unit variant (the
/// tag alone), a newtype `Name = "tag" (Record)` whose record's keys
/// sit beside the tag (the record decodes them under its own policy,
/// so it must be lenient), or a struct variant `Name = "tag" { fields }`
/// with fields as in a record. The last variant may be `Name = _ {
/// fields }`, taken for every other tag: its `#[serde(tag)]` field (or
/// a `with` field reading [`Fields::tag`]) holds the tag. Without one,
/// an unknown tag fails (`unknown request type "x" (accepted: …)`).
///
/// **String enums**, `pub enum Mode { Drain = "drain", Now = "now" }`,
/// encode each unit variant as its string, and gain `as_str` and
/// `parse` (`None` for any other string).
///
/// **Display strings**, `codec!(display Type);`, encode a type defined
/// elsewhere as its `Display` string and decode it with its `FromStr`,
/// whose error becomes the decode error.
#[macro_export]
macro_rules! codec {
    (display $name:ty) => {
        impl $crate::Serialize for $name {
            fn serialize(&self) -> $crate::Value {
                $crate::Value::Str(self.to_string())
            }
        }

        impl $crate::Deserialize for $name {
            fn deserialize(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let s = v.as_str().ok_or_else(|| {
                    $crate::Error::new(format!("expected string, got {v:?}"))
                })?;
                s.parse::<$name>().map_err(|e| $crate::Error::new(e.to_string()))
            }
        }
    };
    (
        $policy:ident $($table:literal)?;
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[doc = $doc:literal])*
                $(#[serde($($opt:tt)*)])?
                $fvis:vis $field:ident : $ty:ty $(= $default:expr)?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[doc = $doc])* $fvis $field: $ty,)*
        }

        impl $crate::Serialize for $name {
            fn serialize(&self) -> $crate::Value {
                let mut out = $crate::Members::with_capacity(<[&str]>::len(&[$(stringify!($field)),*]));
                $($crate::__codec_field!(@ser out, "", &self.$field, $field [$($($opt)*)?] $(= $default)?);)*
                $crate::Value::Obj(out.into_iter().collect())
            }
        }

        impl $crate::Deserialize for $name {
            fn deserialize(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let mut fields = $crate::Fields::new(v)?;
                let value = $name {
                    $($field: $crate::__codec_field!(@de fields, $field: $ty [$($($opt)*)?] $(= $default)?),)*
                };
                fields.finish(
                    $crate::__codec_field!(@strict $policy),
                    || ::std::string::String::from(concat!($($table)?)),
                    &[$($crate::__codec_field!(@keys $field [$($($opt)*)?])),*],
                )?;
                Ok(value)
            }
        }
    };
    (
        $policy:ident $noun:literal, tag $key:literal;
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vattr:meta])*
                $variant:ident = $tag:tt $(($inner:ty))? $({
                    $(
                        $(#[doc = $doc:literal])*
                        $(#[serde($($opt:tt)*)])?
                        $field:ident : $ty:ty $(= $default:expr)?
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$vattr])* $variant $(($inner))? $({$($(#[doc = $doc])* $field: $ty,)*})?,)*
        }

        impl $crate::Serialize for $name {
            fn serialize(&self) -> $crate::Value {
                match self {
                    $($crate::__codec_variant!(@pat $variant, inner $(, ($inner))? $(, {$($field)*})?) => {
                        $crate::__codec_variant!(@ser $key, $tag, inner $(, ($inner))? $(, {$(
                            $field [$($($opt)*)?] $(= $default)?;
                        )*})?)
                    })*
                }
            }
        }

        impl $crate::Deserialize for $name {
            #[allow(unreachable_patterns)]
            fn deserialize(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let mut fields = $crate::Fields::new(v)?;
                let tag = fields.read_tag($key)?;
                match tag {
                    $($tag => Ok($crate::__codec_variant!(@de v, fields, tag, $policy $noun $key, $variant $(, ($inner))? $(, {$(
                        $field: $ty [$($($opt)*)?] $(= $default)?;
                    )*})?)),)*
                    _ => {
                        let tags: &[&str] = &[$($crate::__codec_variant!(@tag $tag)),*];
                        Err($crate::Error::new(format!(
                            "unknown {} {} {tag:?} (accepted: {})",
                            $noun,
                            $key,
                            tags.join(", ")
                        )))
                    }
                }
            }
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vattr:meta])* $variant:ident = $text:literal),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$vattr])* $variant,)*
        }

        impl $name {
            /// Stable wire name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)*
                }
            }

            /// Parse a wire name.
            pub fn parse(s: &str) -> Option<$name> {
                match s {
                    $($text => Some($name::$variant),)*
                    _ => None,
                }
            }
        }

        impl $crate::Serialize for $name {
            fn serialize(&self) -> $crate::Value {
                $crate::Value::Str(self.as_str().into())
            }
        }

        impl $crate::Deserialize for $name {
            fn deserialize(v: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                let s = v.as_str().ok_or_else(|| {
                    $crate::Error::new(format!("expected string, got {v:?}"))
                })?;
                $name::parse(s).ok_or_else(|| {
                    $crate::Error::new(format!(
                        "unknown value {s:?} (accepted: {})",
                        [$($text),*].join(", ")
                    ))
                })
            }
        }
    };
}

/// Whether `value` equals `default`: the test of `#[serde(omit_default)]`
/// (a function, so the default expression takes the field's type).
#[doc(hidden)]
pub fn is_default<T: PartialEq>(value: &T, default: T) -> bool {
    *value == default
}

/// Write member `key` as `value` encodes: one step of a [`codec!`]
/// encoder.
#[doc(hidden)]
pub fn put<T: Serialize>(out: &mut Members, key: &str, value: &T) {
    out.push((key.into(), value.serialize()));
}

/// One field's share of a [`codec!`] impl.
#[doc(hidden)]
#[macro_export]
macro_rules! __codec_field {
    (@strict strict) => {
        true
    };
    (@strict lenient) => {
        false
    };
    (@ser $out:ident, $key:expr, $val:expr, $field:ident [] $(= $default:expr)?) => {
        $crate::put(&mut $out, stringify!($field), $val)
    };
    (@ser $out:ident, $key:expr, $val:expr, $field:ident [omit_default] = $default:expr) => {
        if !$crate::is_default($val, $default) {
            $crate::put(&mut $out, stringify!($field), $val)
        }
    };
    (@ser $out:ident, $key:expr, $val:expr, $field:ident [with = $with:ident]) => {
        $with::encode($val, &mut $out)
    };
    (@ser $out:ident, $key:expr, $val:expr, $field:ident [tag]) => {
        $crate::put(&mut $out, $key, $val)
    };
    (@de $fields:ident, $field:ident : $ty:ty []) => {
        $fields.req::<$ty>(stringify!($field))?
    };
    (@de $fields:ident, $field:ident : $ty:ty [$($omit:ident)?] = $default:expr) => {
        $fields.or::<$ty>(stringify!($field), || $default)?
    };
    (@de $fields:ident, $field:ident : $ty:ty [with = $with:ident]) => {
        $with::decode(&mut $fields)?
    };
    (@de $fields:ident, $field:ident : $ty:ty [tag]) => {
        <$ty as $crate::Deserialize>::deserialize(&$crate::Value::Str($fields.tag().into()))?
    };
    (@keys $field:ident [with = $with:ident]) => {
        $with::KEYS
    };
    (@keys $field:ident [tag]) => {
        &[]
    };
    (@keys $field:ident [$($opt:tt)*]) => {
        &[stringify!($field)]
    };
}

/// One variant's share of a tagged-enum [`codec!`] impl.
#[doc(hidden)]
#[macro_export]
macro_rules! __codec_variant {
    (@pat $variant:ident, $inner:ident) => { Self::$variant {} };
    (@pat $variant:ident, $inner:ident, ($ty:ty)) => { Self::$variant($inner) };
    (@pat $variant:ident, $inner:ident, {$($field:ident)*}) => { Self::$variant { $($field),* } };
    (@tag _) => { "" };
    (@tag $tag:literal) => { $tag };
    (@ser $key:literal, $tag:literal, $inner:ident) => {
        $crate::__codec_variant!(@ser $key, $tag, $inner, {})
    };
    (@ser $key:literal, $tag:literal, $inner:ident, ($ty:ty)) => {{
        let mut v = $crate::Serialize::serialize($inner);
        if let $crate::Value::Obj(m) = &mut v {
            m.insert($key.into(), $crate::Value::Str($tag.into()));
        }
        v
    }};
    (@ser $key:literal, $tag:tt, $inner:ident, {$($field:ident [$($opt:tt)*] $(= $default:expr)?;)*}) => {{
        let mut out = $crate::Members::with_capacity(1 + <[&str]>::len(&[$(stringify!($field)),*]));
        $crate::__codec_variant!(@ser_tag out, $key, $tag);
        $($crate::__codec_field!(@ser out, $key, $field, $field [$($opt)*] $(= $default)?);)*
        $crate::Value::Obj(out.into_iter().collect())
    }};
    (@ser_tag $out:ident, $key:literal, _) => {};
    (@ser_tag $out:ident, $key:literal, $tag:literal) => {
        $out.push(($key.into(), $crate::Value::Str($tag.into())))
    };
    (@de $v:ident, $fields:ident, $tag:ident, $policy:ident $noun:literal $key:literal, $variant:ident) => {
        $crate::__codec_variant!(@de $v, $fields, $tag, $policy $noun $key, $variant, {})
    };
    (@de $v:ident, $fields:ident, $tag:ident, $policy:ident $noun:literal $key:literal, $variant:ident, ($ty:ty)) => {
        Self::$variant(<$ty as $crate::Deserialize>::deserialize($v)?)
    };
    (
        @de $v:ident, $fields:ident, $tag:ident, $policy:ident $noun:literal $key:literal, $variant:ident,
        {$($field:ident : $ty:ty [$($opt:tt)*] $(= $default:expr)?;)*}
    ) => {{
        let value = Self::$variant {
            $($field: $crate::__codec_field!(@de $fields, $field: $ty [$($opt)*] $(= $default)?),)*
        };
        $fields.finish(
            $crate::__codec_field!(@strict $policy),
            || format!("a {:?} {}", $tag, $noun),
            &[&[$key], $($crate::__codec_field!(@keys $field [$($opt)*])),*],
        )?;
        value
    }};
}

/// JSON text encoding of the value model.
pub mod json {
    use super::{Deserialize, Error, Serialize, Value};
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// Serialize any [`Serialize`] type to compact JSON.
    pub fn to_string<T: Serialize>(t: &T) -> String {
        let mut out = String::new();
        write_value(&t.serialize(), &mut out);
        out
    }

    /// Deserialize any [`Deserialize`] type from JSON text.
    pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
        T::deserialize(&parse(s)?)
    }

    /// Render a [`Value`] as compact JSON.
    pub fn write_value(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_value(item, out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, val)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    write_value(val, out);
                }
                out.push('}');
            }
        }
    }

    fn write_number(n: f64, out: &mut String) {
        if !n.is_finite() {
            // JSON has no non-finite numbers; null round-trips to an
            // error on read, which is the honest outcome.
            out.push_str("null");
        } else if n == n.trunc() && n.abs() < 2f64.powi(53) {
            write!(out, "{}", n as i64).expect("write to String");
        } else {
            // Shortest round-trip formatting of f64.
            write!(out, "{n:?}").expect("write to String");
        }
    }

    fn write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).expect("write to String")
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Parse JSON text into a [`Value`]. Every error carries the byte
    /// offset where parsing stopped ([`Error::offset`]).
    pub fn parse(s: &str) -> Result<Value, Error> {
        let mut p = Parser {
            text: s,
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing input after the JSON document"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn error(&self, message: impl Into<String>) -> Error {
            Error::at_byte(message, self.pos)
        }

        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, b: u8) -> Result<(), Error> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(format!("expected {:?}", b as char)))
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(self.error("bad literal"))
            }
        }

        fn value(&mut self) -> Result<Value, Error> {
            match self.peek() {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(self.error(format!("unexpected {:?}", other.map(|b| b as char)))),
            }
        }

        fn array(&mut self) -> Result<Value, Error> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(self.error("bad array")),
                }
            }
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.eat(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let val = self.value()?;
                map.insert(key, val);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(self.error("bad object")),
                }
            }
        }

        /// The four hex digits of a `\u` escape, `pos` just past the `u`.
        fn hex4(&mut self) -> Result<u32, Error> {
            let code = self
                .bytes
                .get(self.pos..self.pos + 4)
                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                .and_then(|hex| u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok())
                .ok_or_else(|| self.error("bad \\u escape"))?;
            self.pos += 4;
            Ok(code)
        }

        /// One `\u` escape, `pos` just past the `u`: a BMP character,
        /// or a UTF-16 surrogate pair written as two escapes.
        fn unicode_escape(&mut self) -> Result<char, Error> {
            let start = self.pos;
            let high = self.hex4()?;
            let code = if (0xd800..0xdc00).contains(&high) {
                let low = if self.bytes[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    self.hex4()?
                } else {
                    0
                };
                if !(0xdc00..0xe000).contains(&low) {
                    return Err(Error::at_byte("unpaired surrogate in \\u escape", start));
                }
                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
            } else {
                high
            };
            char::from_u32(code).ok_or_else(|| Error::at_byte("bad \\u code point", start))
        }

        fn string(&mut self) -> Result<String, Error> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => out.push(self.unicode_escape()?),
                            other => {
                                return Err(Error::at_byte(
                                    format!("unknown escape \\{}", other as char),
                                    self.pos - 2,
                                ))
                            }
                        }
                    }
                    Some(_) => {
                        // Copy the run up to the next quote or escape.
                        // Both are ASCII, so they never fall inside a
                        // multi-byte character and the slice is valid.
                        let run = self.bytes[self.pos..]
                            .iter()
                            .position(|b| matches!(b, b'"' | b'\\'))
                            .unwrap_or(self.bytes.len() - self.pos);
                        out.push_str(&self.text[self.pos..self.pos + run]);
                        self.pos += run;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                self.pos += 1;
            }
            // Only ASCII bytes were consumed, so the slice is valid.
            let text = &self.text[start..self.pos];
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| Error::at_byte(format!("bad number {text:?}"), start))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trip_value() {
            let v = Value::obj([
                ("name", Value::Str("First\"Order".into())),
                ("value", Value::Num(123.456789012345)),
                ("trials", Value::Num(300000.0)),
                ("flags", Value::Arr(vec![Value::Bool(true), Value::Null])),
            ]);
            let text = {
                let mut s = String::new();
                write_value(&v, &mut s);
                s
            };
            assert_eq!(parse(&text).unwrap(), v);
        }

        #[test]
        fn numbers_round_trip_exactly() {
            for n in [0.0, 1.5, -2.25, 1e-12, 123456789.0, 0.1 + 0.2] {
                let text = to_string(&n);
                let back: f64 = from_str(&text).unwrap();
                assert_eq!(back, n, "{text}");
            }
        }

        #[test]
        fn rejects_garbage() {
            assert!(parse("{").is_err());
            assert!(parse("[1,]").is_err());
            assert!(parse("nul").is_err());
            assert!(parse("1 2").is_err());
        }

        #[test]
        fn escapes_round_trip() {
            let s = "line1\nline2\t\"quoted\" \\ done".to_string();
            let text = to_string(&s);
            let back: String = from_str(&text).unwrap();
            assert_eq!(back, s);
        }

        #[test]
        fn multi_byte_text_mixed_with_escapes_round_trips() {
            let s = "é\"ü\\€\n𝄞\t日本\u{1}語\"".to_string();
            let text = to_string(&s);
            assert_eq!(from_str::<String>(&text).unwrap(), s);
            assert_eq!(
                parse(r#"["a\u00e9é\n𝄞\"€", "\\日"]"#).unwrap(),
                Value::Arr(vec![
                    Value::Str("aéé\n𝄞\"€".into()),
                    Value::Str("\\日".into())
                ])
            );
            assert!(parse("\"€ unterminated").is_err());
        }

        #[test]
        fn surrogate_pairs_decode_and_lone_surrogates_fail() {
            assert_eq!(
                parse(r#""a\ud83d\ude00b""#).unwrap(),
                Value::Str("a😀b".into())
            );
            assert_eq!(from_str::<String>(r#""\uD834\uDD1E""#).unwrap(), "𝄞");
            for lone in [
                r#""\ud83d""#,
                r#""\ud83dx""#,
                r#""\ud83d\u0041""#,
                r#""\ude00""#,
            ] {
                let err = parse(lone).unwrap_err();
                assert_eq!(err.offset(), Some(3), "{lone}: {err}");
            }
        }

        #[test]
        fn every_parse_error_carries_its_byte_offset() {
            for (text, offset) in [
                ("{", 1),
                ("[1,]", 3),
                ("nul", 0),
                ("1 2", 2),
                ("{\"a\" 1}", 5),
                ("[1.5e]", 1),
                ("\"open", 5),
                ("\"\\q\"", 1),
                ("\"\\u12\"", 3),
                ("{\"a\":1 \"b\"}", 7),
            ] {
                let err = parse(text).unwrap_err();
                assert_eq!(err.offset(), Some(offset), "{text}: {err}");
                assert!(
                    err.to_string().ends_with(&format!(" at byte {offset}")),
                    "{err}"
                );
            }
        }

        #[test]
        fn long_strings_parse_in_linear_time() {
            let s = "ab€d\\\"".repeat(1 << 17); // 1 MiB of text
            let mut text = String::new();
            write_value(&Value::obj([("s", Value::Str(s.clone()))]), &mut text);
            // Parse off-thread, so a quadratic parser fails at the
            // budget instead of after minutes.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(parse(&text)));
            let back = rx
                .recv_timeout(std::time::Duration::from_secs(2))
                .expect("parsing a 1 MiB string took over 2 s")
                .unwrap();
            assert_eq!(back.get("s").and_then(Value::as_str), Some(s.as_str()));
        }
    }
}

#[cfg(test)]
mod codec_tests {
    use super::{json, Deserialize, Error, Fields, Members, Value};

    crate::codec! {
        strict "the test table";
        #[derive(Clone, Debug, PartialEq)]
        struct Strict {
            name: String,
            count: u64 = 3,
            #[serde(omit_default)]
            tags: Vec<String> = Vec::new(),
            note: Option<String> = None,
        }
    }

    crate::codec! {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Mode {
            Drain = "drain",
            Now = "now",
        }
    }

    crate::codec! {
        lenient;
        #[derive(Clone, Debug, PartialEq)]
        struct Inner {
            id: u64,
        }
    }

    /// `lo`/`hi` keys for one `(f64, f64)` field.
    mod range {
        use super::{Error, Fields, Members, Value};

        pub const KEYS: &[&str] = &["hi", "lo"];

        pub fn decode(f: &mut Fields) -> Result<(f64, f64), Error> {
            Ok((f.or("lo", || 0.0)?, f.or("hi", || 1.0)?))
        }

        pub fn encode(&(lo, hi): &(f64, f64), out: &mut Members) {
            out.push(("lo".into(), Value::Num(lo)));
            out.push(("hi".into(), Value::Num(hi)));
        }
    }

    crate::codec! {
        strict "thing", tag "kind";
        #[derive(Clone, Debug, PartialEq)]
        enum Thing {
            Unit = "unit",
            Wrapped = "wrapped" (Inner),
            Fields = "fields" {
                mode: Mode,
                #[serde(with = range)]
                range: (f64, f64),
                #[serde(omit_default)]
                extra: Option<u64> = None,
            },
        }
    }

    crate::codec! {
        lenient "event", tag "event";
        #[derive(Clone, Debug, PartialEq)]
        enum Event {
            Ping = "ping" { seq: u64 },
            Other = _ {
                #[serde(tag)]
                tag: String,
            },
        }
    }

    fn round_trip<T: super::Serialize + Deserialize + PartialEq + std::fmt::Debug>(
        v: &T,
        line: &str,
    ) {
        assert_eq!(json::to_string(v), line);
        assert_eq!(&json::from_str::<T>(line).unwrap(), v, "{line}");
    }

    #[test]
    fn records_write_defaults_nulls_and_omissions() {
        let mut s = Strict {
            name: "a".into(),
            count: 3,
            tags: vec![],
            note: None,
        };
        round_trip(&s, r#"{"count":3,"name":"a","note":null}"#);
        assert_eq!(json::from_str::<Strict>(r#"{"name":"a"}"#).unwrap(), s);
        s.tags = vec!["x".into()];
        s.note = Some("n".into());
        round_trip(&s, r#"{"count":3,"name":"a","note":"n","tags":["x"]}"#);
        let err = json::from_str::<Strict>(r#"{"count":1}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing field \"name\"");
    }

    #[test]
    fn strict_types_name_the_unknown_key_and_lenient_ones_skip_it() {
        let err = json::from_str::<Strict>(r#"{"name":"a","nmae":"b","zz":1}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown key \"nmae\" in the test table (accepted: count, name, note, tags)"
        );
        let err = json::from_str::<Thing>(r#"{"kind":"unit","spare":1}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown key \"spare\" in a \"unit\" thing (accepted: kind)"
        );
        let err = json::from_str::<Thing>(r#"{"kind":"fields","mode":"now","low":0}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown key \"low\" in a \"fields\" thing (accepted: extra, hi, kind, lo, mode)"
        );
        assert_eq!(
            json::from_str::<Event>(r#"{"event":"ping","seq":2,"later":[1]}"#).unwrap(),
            Event::Ping { seq: 2 }
        );
    }

    #[test]
    fn tagged_enums_cover_unit_newtype_struct_and_catch_all_variants() {
        round_trip(&Thing::Unit, r#"{"kind":"unit"}"#);
        round_trip(
            &Thing::Wrapped(Inner { id: 9 }),
            r#"{"id":9,"kind":"wrapped"}"#,
        );
        round_trip(
            &Thing::Fields {
                mode: Mode::Drain,
                range: (0.5, 2.0),
                extra: None,
            },
            r#"{"hi":2,"kind":"fields","lo":0.5,"mode":"drain"}"#,
        );
        round_trip(
            &Thing::Fields {
                mode: Mode::Now,
                range: (0.0, 1.0),
                extra: Some(4),
            },
            r#"{"extra":4,"hi":1,"kind":"fields","lo":0,"mode":"now"}"#,
        );
        let err = json::from_str::<Thing>(r#"{"kind":"warp"}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown thing kind \"warp\" (accepted: unit, wrapped, fields)"
        );
        round_trip(&Event::Other { tag: "warp".into() }, r#"{"event":"warp"}"#);
        assert_eq!(
            json::from_str::<Event>(r#"{"event":"warp","x":1}"#).unwrap(),
            Event::Other { tag: "warp".into() }
        );
        assert!(json::from_str::<Event>(r#"{"seq":1}"#).is_err(), "no tag");
        assert!(
            json::from_str::<Event>(r#"{"event":3}"#).is_err(),
            "tag not a string"
        );
        assert!(json::from_str::<Event>("[1]").is_err(), "not an object");
    }

    #[test]
    fn string_enums_round_trip_and_list_their_values() {
        for mode in [Mode::Drain, Mode::Now] {
            assert_eq!(Mode::parse(mode.as_str()), Some(mode));
        }
        round_trip(&Mode::Now, "\"now\"");
        assert_eq!(Mode::parse("later"), None);
        let err = json::from_str::<Mode>("\"later\"").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown value \"later\" (accepted: drain, now)"
        );
    }

    #[test]
    fn decode_errors_name_their_key_path() {
        let err = json::from_str::<Vec<Strict>>(r#"[{"name":"a"},{"name":"b","tags":["x",2]}]"#)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "[1].tags[1]: expected string, got Num(2.0)"
        );
        let err = json::from_str::<Thing>(r#"{"kind":"fields","mode":"later"}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "mode: unknown value \"later\" (accepted: drain, now)"
        );
        let map = json::from_str::<std::collections::BTreeMap<String, Vec<u64>>>(r#"{"a":[1,-1]}"#)
            .unwrap_err();
        assert_eq!(map.to_string(), "a[1]: integer -1 out of range for u64");
        assert_eq!(
            Error::new("x")
                .at_key("b")
                .at_index(2)
                .at_key("a")
                .to_string(),
            "a[2].b: x"
        );
    }
}
