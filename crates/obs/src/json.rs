//! Minimal JSON parser used to validate the registry's own export and the
//! `metrics.json` files the bench binaries write — a schema check without an
//! external dependency. Accepts standard JSON (RFC 8259); numbers parse to
//! `f64`.
//!
//! ```
//! let doc = obs::json::parse(r#"{"a":[1,2.5,"x"],"b":null}"#).unwrap();
//! assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
//! assert!(doc.get("b").unwrap().is_null());
//! assert!(obs::json::parse("{oops}").is_err());
//! ```

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// Any number (as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order (duplicate keys preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing on
                    // the next boundary is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Json::Str("a\nbA".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a":{"b":[1,{"c":"d"},[]]},"e":false}"#).unwrap();
        let b = doc.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b[1].get("c").unwrap().as_str(), Some("d"));
        assert_eq!(doc.get("e").unwrap(), &Json::Bool(false));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a':1}"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn handles_unicode_and_empty_containers() {
        let doc = parse(r#"{"k":"héllo ☃","a":[],"o":{}}"#).unwrap();
        assert_eq!(doc.get("k").unwrap().as_str(), Some("héllo ☃"));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(doc.get("o").unwrap().as_object().unwrap().len(), 0);
    }

    /// Metric files carry small rates and ratios in exponent form; each must
    /// read back as its value, never as its mantissa.
    #[test]
    fn reads_exponents_at_their_value() {
        for (text, want) in [
            ("1e-3", 1e-3),
            ("1E3", 1000.0),
            ("2.5e+2", 250.0),
            ("-4.2E-1", -0.42),
            ("6.02e23", 6.02e23),
            ("0", 0.0),
            ("-0.5", -0.5),
        ] {
            assert_eq!(parse(text).unwrap().as_f64(), Some(want), "{text}");
        }
        let doc = parse(r#"{"p99":1.5e-6,"n":[1e0,1e1]}"#).unwrap();
        assert_eq!(doc.get("p99").unwrap().as_f64(), Some(1.5e-6));
        let n = doc.get("n").unwrap().as_array().unwrap();
        assert_eq!((n[0].as_f64(), n[1].as_f64()), (Some(1.0), Some(10.0)));
    }

    #[test]
    fn decodes_every_escape() {
        let doc = parse(r#""q\"b\\s\/b\bf\fn\nr\rt\t\u00e9\u2603""#);
        assert_eq!(doc.unwrap().as_str(), Some("q\"b\\s/b\u{8}f\u{c}n\nr\rt\té☃"));
    }

    #[test]
    fn rejects_bad_escapes_and_numbers() {
        for bad in [r#""\u12""#, r#""\uzzzz""#, r#""\x""#, "-", "--1", "1e", "+1", ".5"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn objects_keep_source_order_and_get_returns_the_first_duplicate() {
        let doc = parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn accessors_return_none_for_other_variants() {
        let num = Json::Num(1.0);
        assert_eq!((num.as_str(), num.as_array(), num.as_object()), (None, None, None));
        assert_eq!(num.get("k"), None, "get on a non-object");
        assert!(!num.is_null());
        let s = Json::Str("1".into());
        assert_eq!(s.as_f64(), None);
        assert_eq!(Json::Arr(vec![]).get("k"), None);
        assert_eq!(Json::Bool(true).as_f64(), None);
    }

    #[test]
    fn whitespace_is_allowed_between_every_token() {
        let doc = parse(" \t{ \"a\" :\n[ 1 ,\r\n2 ] , \"b\"\t:{ } }\n").unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a, [Json::Num(1.0), Json::Num(2.0)]);
        assert_eq!(doc.get("b").unwrap(), &Json::Obj(vec![]));
    }
}
