//! The workspace's JSON support: string escaping and value rendering for
//! the hand-rendered documents, and the one parser that reads them back.
//!
//! The workspace vendors only offline stubs (the `serde` facade's derive
//! macros are no-ops), so the JSONL recorder hand-renders its lines here
//! with a *fixed field order* — `scope`, `name`, `kind`, `value`,
//! `fields` (emission order) — which is what makes same-seed streams
//! byte-comparable. [`parse`] is the consumer side: it reads a document
//! into a [`Json`] value (the benchmark reads its reports and
//! `BENCHMARK.json` through it), and [`validate_line`] /
//! [`validate_jsonl`] run every emitted line back through it so a
//! malformed stream fails the test that produced it, not a downstream
//! dashboard.

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a finite f64 deterministically (shortest round-trip form);
/// non-finite values become `null` (JSON has no NaN/Infinity).
pub fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (read as f64 — counts in the workspace's
    /// documents are all within 2^53, where f64 is exact for integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (a `Vec`, not a map, so parse →
    /// render pipelines stay deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match; `None` otherwise).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected there.
    pub expected: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value (object, array, string, number,
/// boolean or null) with nothing but whitespace around it.
///
/// # Errors
///
/// A [`JsonError`] locating the first offending byte.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of input"));
    }
    Ok(value)
}

/// Validates that `line` is exactly one JSON value with nothing but
/// whitespace around it — [`parse`] with the value discarded.
///
/// # Errors
///
/// A [`JsonError`] locating the first offending byte.
pub fn validate_line(line: &str) -> Result<(), JsonError> {
    parse(line).map(|_| ())
}

/// Validates a whole JSONL document: every non-empty line must pass
/// [`validate_line`], and there must be at least one.
///
/// # Errors
///
/// `(line_number, error)` of the first failure (1-based), or line 0 when
/// the stream holds no events at all.
pub fn validate_jsonl(text: &str) -> Result<usize, (usize, JsonError)> {
    let mut count = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| (i + 1, e))?;
        count += 1;
    }
    if count == 0 {
        return Err((
            0,
            JsonError {
                at: 0,
                expected: "at least one event line",
            },
        ));
    }
    Ok(count)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, expected: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            expected,
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn literal(&mut self, word: &'static [u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("a JSON literal"))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("':'"));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("'\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("closing '\"'"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogate pairs are not worth decoding for
                            // the workspace's documents; map unpaired
                            // halves to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.err("an escape character")),
                    }
                    self.pos += 1;
                }
                0x00..=0x1f => return Err(self.err("no raw control characters")),
                _ => {
                    // Re-borrow the source slice to keep UTF-8 intact.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(
                        |_| JsonError {
                            at: start,
                            expected: "valid UTF-8",
                        },
                    )?);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        self.pos += 1; // past 'u'
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(&h) = self.bytes.get(self.pos) else {
                return Err(self.err("4 hex digits"));
            };
            let digit = match h {
                b'0'..=b'9' => u32::from(h - b'0'),
                b'a'..=b'f' => u32::from(h - b'a') + 10,
                b'A'..=b'F' => u32::from(h - b'A') + 10,
                _ => return Err(self.err("4 hex digits")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("a digit"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("a fraction digit"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("an exponent digit"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            at: start,
            expected: "ASCII number",
        })?;
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            expected: "a finite number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn escaped_strings_parse_back() {
        let original = "a\"b\\c\nd\te\u{1}é";
        let mut out = String::new();
        escape_into(&mut out, original);
        assert_eq!(parse(&out).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn numbers_render_and_nonfinite_is_null() {
        let mut out = String::new();
        number_into(&mut out, 1.5);
        assert_eq!(out, "1.5");
        out.clear();
        number_into(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
        let doc = parse(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
        let a = doc.get("a").unwrap();
        assert_eq!(
            a,
            &Json::Arr(vec![
                Json::Num(1.0),
                Json::Obj(vec![("b".into(), Json::Str("x".into()))])
            ])
        );
        assert_eq!(a.get("b"), None, "get on a non-object is None");
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Json::Str("Aé".into()));
        assert_eq!(parse("\"Aé\"").unwrap(), Json::Str("Aé".into()));
        assert_eq!(parse(r#""\ud800""#).unwrap(), Json::Str("\u{fffd}".into()));
    }

    #[test]
    fn integers_below_2_pow_53_are_exact() {
        let Json::Num(v) = parse("1234567890123").unwrap() else {
            panic!("number")
        };
        assert_eq!(v, 1_234_567_890_123.0);
    }

    #[test]
    fn valid_lines_pass() {
        for line in [
            r#"{"scope":"plan","name":"x","kind":"span","value":null,"fields":{}}"#,
            r#"{"a":[1,2.5,-3e2,true,false,null,"s\""]}"#,
            "  {} ",
            "[]",
            "42",
        ] {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn invalid_lines_fail() {
        for line in [
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a" 1}"#,
            r#"{'a':1}"#,
            "{}{}",
            "{} {}",
            "nope",
            "1.",
            "--3",
            "\"unterminated",
            r#""\x""#,
            r#""\u12g4""#,
            "\"raw\u{1}control\"",
            "",
        ] {
            assert!(validate_line(line).is_err(), "{line:?} should fail");
            assert!(parse(line).is_err(), "{line:?} should fail");
        }
    }

    #[test]
    fn errors_locate_the_offending_byte() {
        assert_eq!(
            parse("{} {}"),
            Err(JsonError {
                at: 3,
                expected: "end of input"
            })
        );
        assert_eq!(
            parse(r#"{"a" 1}"#),
            Err(JsonError {
                at: 5,
                expected: "':'"
            })
        );
        assert_eq!(
            parse("[1,]").unwrap_err().to_string(),
            "invalid JSON at byte 3: expected a JSON value"
        );
    }

    #[test]
    fn jsonl_document_counts_and_rejects() {
        assert_eq!(validate_jsonl("{}\n{\"a\":1}\n\n"), Ok(2));
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("\n\n").is_err());
        let (line, _) = validate_jsonl("{}\nbroken\n").unwrap_err();
        assert_eq!(line, 2);
    }
}
