//! The workspace's one JSON codec.
//!
//! The build is offline with no JSON crate vendored, so every document the
//! stack writes (the Chrome trace, the metrics export, the bench reports)
//! is emitted by hand and read back through [`parse`] before it is trusted.
//! The grammar is RFC 8259's: JSON whitespace only, the full escape set,
//! no raw control characters inside strings, and nothing but whitespace
//! after the document.
//!
//! Two choices serve the readers:
//!
//! - A number keeps its raw text ([`Json::Num`]). It must parse as `f64` to
//!   be accepted, but [`Json::as_u64`] reads the text itself, so a `u64`
//!   counter above 2^53 survives exactly.
//! - An object is an ordered `Vec` of members, so a reader sees keys in
//!   document order and decides itself what a duplicate key means.
//!
//! Nesting is capped at 64 levels; a deeper document is an `Err`, never a
//! stack overflow.

/// Deepest nesting [`parse`] accepts. The deepest document the stack
/// writes has seven levels (the metrics export: document → `ranks` → rank
/// → `histograms` → histogram → `buckets` → pair), so the cap only stops
/// malformed or hostile input.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value borrowing its number text from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written; it is known to parse as `f64`.
    Num(&'a str),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object's members in document order, duplicates kept.
    Obj(Vec<(String, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json<'a>)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value, if this is a number written as a `u64` literal. Exact for
    /// the whole `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Escape `s` for use between JSON string quotes: `"`, `\` and every
/// character below U+0020 are escaped, everything else is copied.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a float so [`parse_f64`] recovers its bits: shortest round-trip
/// decimal when finite, else `NaN`, `+Inf` or `-Inf` (the Prometheus
/// spellings). JSON has no literals for the non-finite values, so JSON
/// writers quote those three.
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Inverse of [`fmt_f64`]; also reads any decimal `f64` literal.
pub fn parse_f64(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        _ => s.parse().ok(),
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json<'_>, String> {
    let mut p = Parser {
        src: text,
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != text.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    i: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.byte().ok_or_else(|| "unexpected end of input".into())
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected {:?} at byte {}", c as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        match self.peek()? {
            b'{' => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            b'[' => self.seq(b']', Self::value).map(Json::Arr),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected {:?} at byte {}", c as char, self.i)),
        }
    }

    /// The comma-separated `item`s between the opening bracket under the
    /// cursor and `close`, one nesting level down.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.i
            ));
        }
        self.i += 1;
        let mut out = Vec::new();
        if self.peek()? == close {
            self.i += 1;
        } else {
            loop {
                out.push(item(self)?);
                match self.peek()? {
                    b',' => self.i += 1,
                    c if c == close => {
                        self.i += 1;
                        break;
                    }
                    c => {
                        return Err(format!(
                            "expected ',' or {:?}, found {:?} at byte {}",
                            close as char, c as char, self.i
                        ))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(out)
    }

    fn literal(&mut self, word: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if !self.src[self.i..].starts_with(word) {
            return Err(format!("bad literal at byte {}", self.i));
        }
        self.i += word.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.i;
        self.i += 1;
        while matches!(
            self.byte(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        let raw = &self.src[start..self.i];
        match raw.parse::<f64>() {
            Ok(_) => Ok(Json::Num(raw)),
            Err(_) => Err(format!("bad number {raw:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // whole: the input is a `str`, so the run is valid UTF-8.
            let run = self.i;
            while matches!(self.byte(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.push_str(&self.src[run..self.i]);
            match self.byte() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escaped()?);
                }
                Some(c) => {
                    return Err(format!(
                        "raw control character {c:#04x} in string at byte {}",
                        self.i
                    ))
                }
            }
        }
    }

    /// The character an escape stands for, the cursor just past its `\`.
    fn escaped(&mut self) -> Result<char, String> {
        let e = self.byte().ok_or("unterminated escape")?;
        self.i += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                // A UTF-16 surrogate half is no `char` on its own; no
                // document read here needs pairs joined, so it reads as
                // U+FFFD.
                let hex = self
                    .src
                    .get(self.i..self.i + 4)
                    .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                self.i += 4;
                char::from_u32(hex).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {}", self.i - 2)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_json_shapes() {
        let v = parse("{\"a\": [1, -2.5e1, true, null, \"x\\ny\"]}").unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4].as_str(), Some("x\ny"));
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("[1,").is_err());
        // Numbers keep their text, so integers past 2^53 read exactly.
        for n in [u64::MAX, (1 << 60) + 1] {
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn parser_handles_unicode_strings() {
        let v = parse("\"caf\u{e9} \\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("café é"));
        let v = parse("\"\\b\\f\\r\\t\\/\\u0001\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{8}\u{c}\r\t/\u{1}"));
    }

    #[test]
    fn parser_rejects_what_rfc_8259_rejects() {
        for bad in [
            "",
            "nul",
            "-",
            "1e",
            "\"\\x\"",
            "\"\\u12g4\"",
            "\"tab\there\"",
            "\"unterminated",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "[1,]",
            "\u{c}1",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(
            parse("{} }").unwrap_err(),
            "trailing input at byte 3",
            "the error names the first stray byte"
        );
    }

    #[test]
    fn objects_keep_order_and_duplicates() {
        let v = parse("{\"b\":1,\"a\":2,\"b\":3}").unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(v.get("b"), Some(&Json::Num("1")), "get finds the first");
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let huge = "[".repeat(1_000_000);
        assert!(parse(&huge).is_err());
        let objects = "{\"a\":".repeat(1_000_000);
        assert!(parse(&objects).is_err());
    }
}
