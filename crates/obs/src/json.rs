//! A minimal JSON value type with a writer and a strict parser.
//!
//! Exists so the bench binaries can emit `BENCH_baseline.json` (and tests
//! can round-trip it) without pulling serde into a workspace that is
//! otherwise dependency-free. Supports exactly the JSON the suite produces:
//! objects (ordered), arrays, strings, i64 integers, f64 floats, booleans
//! and null.

use std::fmt;

/// A JSON value. Objects preserve insertion order (stable report layout).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (kept exact; floats would lose precision on nanos).
    Int(i64),
    /// A float, rendered with enough digits to round-trip.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects from `&str` keys.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an i64 (also accepts integral floats).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as an f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with 2-space indentation (what the bench binaries write).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        use fmt::Write as _;
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            Json::Num(f) => {
                if f.is_finite() {
                    write!(out, "{f}").unwrap();
                    // `{}` on a whole f64 prints no dot; keep it a float.
                    if !out.ends_with(|c: char| c == '.' || !c.is_ascii_digit()) && f.fract() == 0.0
                    {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the failure.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a request body
/// of `[[[[…` exhaust the thread's stack; nothing the suite writes comes
/// near this.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_owned(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Take the whole run of plain bytes up to the next `"` or `\`
            // at once. Both delimiters are ASCII, so the run ends on a char
            // boundary and validating just the run keeps parsing linear.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            if run > 0 {
                let s = std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
                out.push_str(s);
                self.pos += run;
            }
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.pos += 1, // the `\` that ended the run
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated escape"));
            };
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
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our writer; map
                    // lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_values() {
        let v = Json::obj(vec![
            ("name", Json::str("Mondial")),
            ("scale", Json::Num(0.05)),
            (
                "counts",
                Json::Arr(vec![Json::Int(1), Json::Int(-2), Json::Null]),
            ),
            ("ok", Json::Bool(true)),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        let pretty = v.render_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::str("a \"b\"\n\t\\ \u{1}");
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("'single'").is_err());
    }

    #[test]
    fn whole_floats_stay_floats() {
        let text = Json::Num(2.0).render();
        assert_eq!(text, "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Num(2.0));
    }

    #[test]
    fn multibyte_text_next_to_escapes_survives() {
        for text in ["é\n", "\n€", "😀\"😀", "\\ü\\", "日本\t語", "x\\u00e9y"] {
            let v = Json::str(text);
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text:?}");
        }
        let raw = "\"é\\n€\\\"😀\"";
        assert_eq!(Json::parse(raw).unwrap(), Json::str("é\n€\"😀"));
    }

    #[test]
    fn unicode_escapes_decode() {
        let parsed = Json::parse(r#""\u00e9\u20ac\u0001\u0041""#).unwrap();
        assert_eq!(parsed, Json::str("é€\u{1}A"));
        // A lone surrogate maps to the replacement char.
        assert_eq!(Json::parse(r#""\ud800""#).unwrap(), Json::str("\u{fffd}"));
        let bad = Json::parse(r#""\u12""#).unwrap_err();
        assert_eq!((bad.message.as_str(), bad.at), ("bad \\u escape", 3));
        let bad = Json::parse(r#""\uzzzz""#).unwrap_err();
        assert_eq!((bad.message.as_str(), bad.at), ("bad \\u escape", 3));
    }

    #[test]
    fn megabyte_string_round_trips() {
        let chunk = "plain ascii, é, €, 😀, \"quoted\", back\\slash\n";
        let big: String = chunk.repeat((1 << 20) / chunk.len() + 1);
        assert!(big.len() >= 1 << 20);
        let v = Json::obj(vec![("blob", Json::str(big.clone()))]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.get("blob").and_then(Json::as_str), Some(big.as_str()));
    }

    #[test]
    fn errors_keep_their_offsets() {
        let unterminated = Json::parse("\"abc").unwrap_err();
        assert_eq!(
            (unterminated.message.as_str(), unterminated.at),
            ("unterminated string", 4)
        );
        let text = "{\"k\": \"é€ and more";
        let e = Json::parse(text).unwrap_err();
        assert_eq!(
            (e.message.as_str(), e.at),
            ("unterminated string", text.len())
        );
        let e = Json::parse("\"ab\\").unwrap_err();
        assert_eq!((e.message.as_str(), e.at), ("unterminated escape", 4));
        let e = Json::parse("\"ab\\q\"").unwrap_err();
        assert_eq!((e.message.as_str(), e.at), ("unknown escape", 5));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(1 << 20);
        let e = Json::parse(&deep).unwrap_err();
        assert_eq!((e.message.as_str(), e.at), ("nesting too deep", MAX_DEPTH));
        let e = Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.message, "nesting too deep");
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 1, "b": [2.5, "x"]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_int), Some(1));
        let arr = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(2.5));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
    }
}
