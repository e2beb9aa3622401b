//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so this shim provides a
//! value-model serialization framework under the `serde` name:
//! [`Serialize`] renders a type into a [`Value`] tree, [`Deserialize`]
//! rebuilds the type from one, and the [`json`] module converts trees
//! to/from JSON text. No derive macros — implementations are written by
//! hand against the value model, which keeps them explicit and small.

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
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Error with the given description.
    pub fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
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
            .map(T::deserialize)
            .collect()
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
        if !(secs.is_finite() && secs >= 0.0) {
            return Err(Error::new(format!("bad duration {secs}")));
        }
        Ok(std::time::Duration::from_secs_f64(secs))
    }
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

    /// Parse JSON text into a [`Value`].
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
            return Err(Error::new(format!(
                "trailing input at byte {} of JSON document",
                p.pos
            )));
        }
        Ok(v)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
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
                Err(Error::new(format!(
                    "expected {:?} at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(Error::new(format!("bad literal at byte {}", self.pos)))
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
                other => Err(Error::new(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|b| b as char),
                    self.pos
                ))),
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
                    _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
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
                    _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
                }
            }
        }

        fn string(&mut self) -> Result<String, Error> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error::new("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| Error::new("bad escape"))?;
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
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| Error::new("bad \\u escape"))?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex)
                                        .map_err(|_| Error::new("bad \\u escape"))?,
                                    16,
                                )
                                .map_err(|_| Error::new("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error::new("bad \\u code point"))?,
                                );
                            }
                            other => {
                                return Err(Error::new(format!(
                                    "unknown escape \\{}",
                                    other as char
                                )))
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
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::new("invalid number"))?;
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| Error::new(format!("bad number {text:?}")))
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
