//! The workspace's one JSON codec: reading and writing for sweep specs,
//! shard artifacts, trace headers and records, bench results and budget
//! rules.
//!
//! The build environment is offline (no `serde`), so this module provides
//! a small value model: a recursive-descent parser into [`Json`] and
//! canonical writers ([`escape`], [`number`]) shared by every
//! serialization path. Canonical output matters — shard artifacts,
//! merged results and bench records must be *byte-identical* across
//! runs, so all writers go through these two functions or through
//! [`Json`]'s `Display`.
//!
//! Numbers keep the integer/float distinction from the source text:
//! a token without `.`/`e`/`E` parses as [`Json::Int`] when it fits
//! `i64` and as [`Json::UInt`] when it only fits `u64`, so every `u64`
//! (trace seeds, counters) reads back exactly. Writers use Rust's
//! shortest-round-trip `{}` formatting for floats, which re-parses to
//! the same bit pattern, so parse → write → parse is a fixed point.
//!
//! The parser is linear in the input and refuses documents nested deeper
//! than [`MAX_DEPTH`], so a corrupt file read from disk yields an `Err`,
//! never a stack overflow.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent that fits `i64`.
    Int(i64),
    /// A number without fraction or exponent above `i64::MAX` that fits
    /// `u64`.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload; integers coerce losslessly where possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::UInt(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name for error messages ("string", "array", ...).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) => "integer",
            Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

impl fmt::Display for Json {
    /// Canonical single-line rendering (no insignificant whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Float(x) => f.write_str(&number(*x)),
            Json::Str(s) => f.write_str(&escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Serializes `s` as a quoted, escaped JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes a float; non-finite values become `null` (JSON has no
/// NaN/Inf). `{}` is Rust's shortest representation that round-trips.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The deepest array/object nesting [`parse`] accepts. The deepest
/// document the workspace writes nests four levels; the cap keeps a
/// hostile or corrupt file from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> String {
        let line = 1 + self.text.as_bytes()[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        format!("json parse error (line {line}): {message}")
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number_token(),
            Some(other) => Err(self.error(&format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Runs one container parser one nesting level deeper, refusing to
    /// go past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(&format!("duplicate object key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes up to the next quote or
            // backslash in one slice; both are ASCII, so the cut always
            // falls on a char boundary.
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let code = self.hex4()?;
                    // Surrogate pairs are not needed by any writer in
                    // this workspace; reject rather than mangle.
                    match char::from_u32(code) {
                        Some(c) => out.push(c),
                        None => return Err(self.error("unsupported \\u escape (surrogate half)")),
                    }
                }
                _ => return Err(self.error("invalid escape sequence")),
            }
            self.pos += 1;
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.text.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let code = self
            .text
            .get(start..end)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos = end - 1;
        Ok(code)
    }

    fn number_token(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        // `-0` stays a float: as an integer it would lose the sign of -0.0.
        let negative_zero = text.starts_with('-') && text[1..].bytes().all(|b| b == b'0');
        if !fractional && !negative_zero {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error(&format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("0.5").unwrap(), Json::Float(0.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".to_string()));
    }

    #[test]
    fn containers_parse_with_whitespace() {
        let doc = " { \"a\" : [ 1 , 2.5 , \"x\" ] , \"b\" : { } } ";
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[Json::Int(1), Json::Float(2.5), Json::Str("x".to_string())]
        );
        assert_eq!(v.get("b").unwrap(), &Json::Obj(vec![]));
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(parse("{").unwrap_err().contains("expected"));
        assert!(parse("\"open").unwrap_err().contains("unterminated string"));
        assert!(parse("[1,]").unwrap_err().contains("unexpected character"));
        assert!(parse("1 2").unwrap_err().contains("trailing"));
        assert!(parse("{\"a\":1,\"a\":2}")
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse("nul").is_err());
    }

    #[test]
    fn display_is_canonical_fixed_point() {
        let doc = "{\"s\": \"q\\\"uote\", \"n\": [1, -2, 0.25], \"f\": 1}";
        let v = parse(doc).unwrap();
        let rendered = v.to_string();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert_eq!(parse(&rendered).unwrap().to_string(), rendered);
    }

    #[test]
    fn float_that_prints_integral_reparses_stably() {
        // number(1.0) prints "1"; a second parse/print cycle must not
        // change the bytes again (Int(1) also prints "1").
        assert_eq!(number(1.0), "1");
        assert_eq!(parse("1").unwrap().as_f64(), Some(1.0));
        assert_eq!(number(f64::NAN), "null");
        // -0.0 prints "-0", which must not read back as the integer 0.
        let zero = parse(&number(-0.0)).unwrap().as_f64().unwrap();
        assert!(zero == 0.0 && zero.is_sign_negative());
    }

    #[test]
    fn unicode_strings_survive() {
        let v = parse("\"héllo → ∞\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → ∞"));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn integers_keep_full_i64_and_u64_range() {
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        assert_eq!(parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max, Json::UInt(u64::MAX));
        assert_eq!(max.as_u64(), Some(u64::MAX));
        assert_eq!(max.to_string(), "18446744073709551615");
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        // One past u64::MAX no longer fits an integer variant.
        assert!(matches!(
            parse("18446744073709551616").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&too_deep)
            .unwrap_err()
            .contains("nesting deeper than 128"));
        let hostile = "[".repeat(100_000);
        assert!(parse(&hostile).unwrap_err().contains("nesting deeper"));
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse(&objects).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn many_short_strings_parse_in_linear_time() {
        // 160k eight-byte strings (1.76 MB). A parser that re-validates
        // the rest of the document per character needs minutes here.
        let items: Vec<String> = (0..160_000).map(|i| format!("\"s{i:07}\"")).collect();
        let doc = format!("[{}]", items.join(","));
        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.as_array().unwrap().len(), 160_000);
        assert_eq!(parsed.as_array().unwrap()[42].as_str(), Some("s0000042"));
        assert!(elapsed.as_secs() < 20, "took {elapsed:?}");
    }

    #[test]
    fn escapes_between_unescaped_runs() {
        let v = parse(r#""héllo \"q\" \\ \u00e9 → end""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo \"q\" \\ é → end"));
        assert!(parse(r#""\u12""#).unwrap_err().contains("truncated"));
        assert!(parse(r#""\uzzzz""#).unwrap_err().contains("invalid \\u"));
        assert!(parse(r#""\x""#).unwrap_err().contains("invalid escape"));
    }

    /// Builds a random document from a byte program: each byte picks the
    /// next node, and container bytes open a bounded number of children.
    fn doc_from_bytes(bytes: &mut std::slice::Iter<'_, u8>, depth: usize) -> Json {
        let Some(&b) = bytes.next() else {
            return Json::Null;
        };
        let next = |bytes: &mut std::slice::Iter<'_, u8>| *bytes.next().unwrap_or(&0);
        match b % 9 {
            0 => Json::Null,
            1 => Json::Bool(b & 0x10 != 0),
            2 => Json::Int(i64::from(next(bytes)) - 128),
            3 => Json::UInt(u64::MAX - u64::from(next(bytes))),
            4 => Json::Float(f64::from(next(bytes)) / 8.0 - 3.3),
            5 => Json::Float(f64::from_bits(u64::from(next(bytes)) << 52 | 0x1234_5678)),
            6 => Json::Str(
                [
                    "",
                    "plain",
                    "q\"uote",
                    "back\\slash",
                    "tab\t\n",
                    "\u{1}ctl",
                    "héllo → ∞",
                ][usize::from(next(bytes)) % 7]
                    .to_string(),
            ),
            7 if depth < 5 => {
                let n = usize::from(next(bytes)) % 4;
                Json::Arr((0..n).map(|_| doc_from_bytes(bytes, depth + 1)).collect())
            }
            8 if depth < 5 => {
                let n = usize::from(next(bytes)) % 4;
                Json::Obj(
                    (0..n)
                        .map(|i| (format!("k{i}"), doc_from_bytes(bytes, depth + 1)))
                        .collect(),
                )
            }
            _ => Json::Str(String::new()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            ..ProptestConfig::default()
        })]

        #[test]
        fn write_parse_write_is_identity(program in proptest::collection::vec(any::<u8>(), 0..64)) {
            let written = doc_from_bytes(&mut program.iter(), 0).to_string();
            let reparsed = parse(&written);
            prop_assert!(reparsed.is_ok(), "{written}: {reparsed:?}");
            prop_assert_eq!(reparsed.unwrap().to_string(), written);
        }
    }
}
