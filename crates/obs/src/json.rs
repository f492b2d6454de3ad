//! One JSON value with the workspace's one writer ([`Json::render`]) and
//! one reader ([`Json::parse`]): the Chrome trace, the metrics summary
//! and every `BENCH_*.json` record. Objects keep insertion order and a
//! number keeps its token text, so `0.9330` and a `u64` above 2^53
//! survive a read and a write, and equal means equal token for token.
//!
//! **One layout rule, no options.** A container prints on one line when
//! it holds no object at any depth or sits inside an array (so does all
//! it holds): members joined by `, `, array items by `,`. Any other
//! container prints one member per line, indented by two spaces. A
//! record's rows, a trace's events and a histogram's buckets are lines.

use std::fmt::{self, Display, Write as _};
use std::ops::Index;

/// A JSON value; see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as its token text (`0.9330`, `18446744073709551615`):
    /// checked by [`Json::parse`], made valid by the `From` conversions.
    Number(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, its members in insertion order.
    Object(Vec<(String, Json)>),
}

/// Why a text is not JSON: what is wrong, at which byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// `truncated`, `unexpected byte`, `bad escape`, `bad token`, `nested
    /// too deep` or `trailing garbage`.
    what: &'static str,
    /// Byte offset into the text.
    at: usize,
}

impl Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl Json {
    /// Read one value; white space may surround it, nothing else.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Reader { src: text, pos: 0 };
        let value = p.value(0)?;
        match p.token() {
            Err(_) => Ok(value),
            Ok(_) => Err(p.err("trailing garbage", 1)),
        }
    }

    /// This value as a document: laid out by the module's rule, ending in
    /// a newline.
    pub fn render(&self) -> String {
        format!("{self}\n")
    }

    /// Whether this is an object, or an array with one somewhere inside.
    fn has_object(&self) -> bool {
        match self {
            Json::Array(items) => items.iter().any(Json::has_object),
            other => matches!(other, Json::Object(_)),
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize, one_line: bool) -> fmt::Result {
        let (open, close, members): (_, _, Vec<_>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Number(token) => return f.write_str(token),
            Json::Str(s) => return write_string(f, s),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(kvs) => ('{', '}', kvs.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let in_array = open == '[';
        let one_line = one_line || !members.iter().any(|(_, v)| v.has_object());
        let sep = if one_line && !in_array { ", " } else { "," };
        f.write_char(open)?;
        for (i, (key, value)) in members.iter().enumerate() {
            f.write_str(if i == 0 { "" } else { sep })?;
            if !one_line {
                write!(f, "\n{:1$}", "", indent + 2)?;
            }
            if let Some(key) = key {
                write_string(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, indent + 2, one_line || in_array)?;
        }
        if !one_line {
            write!(f, "\n{:1$}", "", indent)?;
        }
        f.write_char(close)
    }
}

/// `s` as a string token: quotes, backslashes and controls escaped.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(f, "\\{c}")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// The value laid out by the module's rule, without [`Json::render`]'s
/// final newline: a scalar is its token.
impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0, false)
    }
}

/// An object's member; panics if `key` is not one.
impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        let found = match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key),
            _ => None,
        };
        found.map_or_else(|| panic!("no member {key:?}"), |(_, v)| v)
    }
}

/// `impl From<$t> for Json` for each `$t => |$x| value`.
macro_rules! conversions {
    ($($t:ty => |$x:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $value
            }
        }
    )*};
}

conversions! {
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    i32 => |n| Json::Number(n.to_string()),
    u32 => |n| Json::Number(n.to_string()),
    u64 => |n| Json::Number(n.to_string()),
    u128 => |n| Json::Number(n.to_string()),
    usize => |n| Json::Number(n.to_string()),
    // The shortest text that reads back as `x`; JSON has no infinities.
    f64 => |x| {
        assert!(x.is_finite(), "{x} has no JSON number token");
        Json::Number(x.to_string())
    },
}

/// An object of the `(key, value)` pairs, in order.
impl<K: Into<String>, V: Into<Json>> FromIterator<(K, V)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(members: I) -> Json {
        let members = members.into_iter().map(|(k, v)| (k.into(), v.into()));
        Json::Object(members.collect())
    }
}

/// A recursive-descent pass over the text.
struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl Reader<'_> {
    /// An error `back` bytes behind the cursor.
    fn err(&self, what: &'static str, back: usize) -> ParseError {
        let at = self.pos - back;
        ParseError { what, at }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Result<u8, ParseError> {
        let b = self.peek().ok_or(self.err("truncated", 0))?;
        self.pos += 1;
        Ok(b)
    }

    /// The next byte after any white space.
    fn token(&mut self) -> Result<u8, ParseError> {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
        self.next()
    }

    fn expect(&mut self, want: u8) -> Result<(), ParseError> {
        match self.token()? {
            b if b == want => Ok(()),
            _ => Err(self.err("unexpected byte", 1)),
        }
    }

    /// One value. `BENCH_paper.json`'s obs summary nests six deep; the
    /// cap only keeps hostile input off the end of the stack.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        let first = self.token()?;
        let at = self.pos - 1;
        Ok(match first {
            _ if depth > 32 => return Err(self.err("nested too deep", 1)),
            b'"' => Json::Str(self.string()?),
            b'[' => Json::Array(self.items(b']', |p| p.value(depth + 1))?),
            b'{' => Json::Object(self.items(b'}', |p| Ok((p.key()?, p.value(depth + 1)?)))?),
            _ => {
                let token = self.src[at..].bytes();
                let token = token.take_while(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b));
                self.pos = at + token.count();
                match &self.src[at..self.pos] {
                    "" => return Err(self.err("unexpected byte", 0)),
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    // `str::parse` alone would also take `inf` and `+1`.
                    t if t.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                        && t.parse::<f64>().is_ok_and(f64::is_finite) =>
                    {
                        Json::Number(t.to_string())
                    }
                    t => return Err(self.err("bad token", t.len())),
                }
            }
        })
    }

    /// The `"key":` of a member.
    fn key(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// The comma-separated items after an opener, up to `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut out = Vec::new();
        if self.token()? == close {
            return Ok(out);
        }
        self.pos -= 1;
        loop {
            out.push(item(self)?);
            match self.token()? {
                b',' => {}
                b if b == close => return Ok(out),
                _ => return Err(self.err("unexpected byte", 1)),
            }
        }
    }

    /// The rest of a string whose opening quote is consumed, unescaped.
    fn string(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let run = rest
                .find(|c| c < ' ' || c == '"' || c == '\\')
                .unwrap_or(rest.len());
            out += &rest[..run];
            self.pos += run;
            match self.next()? {
                b'"' => return Ok(out),
                b'\\' => {
                    let bad = self.err("bad escape", 1);
                    out.push(match self.next()? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.hex4().and_then(char::from_u32).ok_or(bad)?,
                        _ => return Err(bad),
                    });
                }
                _ => return Err(self.err("unexpected byte", 1)),
            }
        }
    }

    /// The code of a `\uXXXX` escape whose `\u` is consumed. The writer
    /// makes none but control characters, so a surrogate, which has no
    /// `char`, is refused rather than paired.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.src.get(self.pos..self.pos + 4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(digits, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every case of the rule, and every escape the writer makes.
    const LAID_OUT: &str = r#"{
  "rows": [
    {"name": "a\"\\\u0001é", "n": 1, "nested": {"x": [1,2]}},
    {"name": "b", "deep": {"o": {"p": {}}}}
  ],
  "flat": {"k": null, "list": [[17,5802],[18,61]], "t": true},
  "sections": {
    "empty": {},
    "group": {
      "m": {"type": "counter", "value": 7}
    }
  },
  "u": 18446744073709551615,
  "f": 0.9330
}
"#;

    #[test]
    fn the_layout_rule() {
        let value = Json::parse(LAID_OUT).unwrap();
        assert_eq!(value.render(), LAID_OUT);
        assert_eq!(value["rows"], Json::parse(&value["rows"].render()).unwrap());
        assert_eq!(value["u"], Json::from(u64::MAX));
        assert_eq!(value["f"], Json::Number("0.9330".into()));
        assert_ne!(value["f"], Json::from(0.933));
        let Json::Array(rows) = &value["rows"] else {
            panic!("rows")
        };
        assert_eq!(rows[0]["name"], Json::from("a\"\\\u{1}é"));
        let decoded = Json::parse(r#""😀é\/\b\f\n\r\t""#).unwrap();
        assert_eq!(decoded, Json::from("😀é/\u{8}\u{c}\n\r\t"));
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let deep = format!("{{\"a\": {}", "[".repeat(99));
        for (text, what, at) in [
            ("", "truncated", 0),
            ("{\"a\": [", "truncated", 7),
            ("{\"a\": \"abc", "truncated", 10),
            ("{\"a\": 1}\nx", "trailing garbage", 9),
            (r#"{"a\qb": 1}"#, "bad escape", 3),
            (r#"{"a": "\u12g4"}"#, "bad escape", 7),
            (r#"["\ud83d\ude00"]"#, "bad escape", 2),
            (r#"["\ude00"]"#, "bad escape", 2),
            ("{\"a\": [01x]}", "bad token", 7),
            ("{\"a\": [-]}", "bad token", 7),
            ("{\"a\": [1e]}", "bad token", 7),
            ("{\"a\": [-inf]}", "bad token", 7),
            ("{\"a\": [+1]}", "bad token", 7),
            ("{\"a\": [nul]}", "bad token", 7),
            ("{\"a\": [1 2]}", "unexpected byte", 9),
            ("{\"a\" 1}", "unexpected byte", 5),
            ("[\"\n\"]", "unexpected byte", 2),
            ("{1: 2}", "unexpected byte", 1),
            (deep.as_str(), "nested too deep", 38),
        ] {
            assert_eq!(Json::parse(text), Err(ParseError { what, at }), "{text}");
        }
        assert!(Json::parse(r#"{"é\né😀": "\"\\\/\b\f\r\té"}"#).is_ok());
    }

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(any::<u8>(), 0..12)
            .prop_map(|bytes| bytes.iter().map(|&b| (b % 0x90) as char).collect())
    }

    proptest! {
        /// Strings with quotes, backslashes, control and non-ASCII
        /// characters; any `u64`; every kind of value, nested.
        #[test]
        fn write_then_read_is_identity_and_any_cut_is_an_error(
            keys in prop::collection::vec(text(), 1..4),
            word in text(),
            n in any::<u64>(),
            flag in any::<bool>(),
        ) {
            let row = |key: &String| -> Json {
                let nested = Json::Array(vec![n.into(), Json::Null, Json::Object(vec![])]);
                let inner = [(key.as_str(), nested), ("", flag.into())];
                [
                    (key.as_str(), Json::from(n)),
                    ("ratio", (n as f64 / 1e19).into()),
                    ("label", word.as_str().into()),
                    ("nested", inner.into_iter().collect()),
                ]
                .into_iter()
                .collect()
            };
            let value: Json = [
                ("rows", Json::Array(keys.iter().map(row).collect())),
                ("by_key", keys.iter().map(|k| (k.as_str(), row(k))).collect()),
                (word.as_str(), Json::from(u64::MAX)),
            ]
            .into_iter()
            .collect();
            let written = value.render();
            prop_assert_eq!(Json::parse(&written), Ok(value));
            let cut = (n % (written.len() as u64 - 2)) as usize;
            if written.is_char_boundary(cut) {
                prop_assert!(Json::parse(&written[..cut]).is_err());
            }
        }

        #[test]
        fn arbitrary_text_never_panics_the_reader(picks in prop::collection::vec(0usize..32, 0..48)) {
            let alphabet: Vec<char> = "{}[]\",:\\u0123456789aeEdD.-+ tfné".chars().collect();
            let text: String = picks.iter().map(|&i| alphabet[i]).collect();
            let _ = Json::parse(&text);
        }
    }
}
