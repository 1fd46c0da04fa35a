//! Recursive-descent JSON parser with positional error reporting.

use std::error::Error;
use std::fmt;

use crate::number::Number;
use crate::ser::clean_prefix_len;
use crate::value::{Object, Value};

/// Maximum nesting depth accepted by the parser.
///
/// Deeply nested documents are rejected instead of overflowing the stack;
/// MathCloud payloads never approach this depth.
const MAX_DEPTH: usize = 256;

/// An error produced while parsing JSON text.
///
/// Carries the byte offset plus 1-based line and column of the offending
/// input, which the service container surfaces to clients in `400` responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column of the error.
    pub column: usize,
    /// Byte offset of the error.
    pub offset: usize,
}

impl ParseError {
    /// Human-readable reason without position information.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {}, column {}",
            self.message, self.line, self.column
        )
    }
}

impl Error for ParseError {}

/// Parses a complete JSON document.
///
/// Trailing whitespace is permitted; any other trailing content is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column information on malformed input.
///
/// # Examples
///
/// ```
/// use mathcloud_json::parse;
///
/// let v = parse("[1, 2, 3]").unwrap();
/// assert_eq!(v[2].as_i64(), Some(3));
/// assert!(parse("[1, 2,").is_err());
/// ```
pub fn parse(input: &str) -> Result<Value, ParseError> {
    parse_bytes(input.as_bytes())
}

/// Parses a complete JSON document from raw bytes, such as a request body,
/// without copying them into a `String` first.
///
/// JSON text outside strings is ASCII, and the parser checks every string
/// run it copies, so it validates the UTF-8 itself: bytes that are not
/// UTF-8 are an `"invalid utf-8"` error at the offset of the first bad
/// byte. [`parse`] is this function on the bytes of its `&str`.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed JSON or on bytes that are not UTF-8.
///
/// # Examples
///
/// ```
/// use mathcloud_json::{parse, parse_bytes};
///
/// assert_eq!(parse_bytes(b"[1, 2]").unwrap(), parse("[1, 2]").unwrap());
/// let e = parse_bytes(b"{\"s\": \"a\xFFb\"}").unwrap_err();
/// assert_eq!((e.message(), e.offset), ("invalid utf-8", 8));
/// ```
pub fn parse_bytes(input: &[u8]) -> Result<Value, ParseError> {
    Parser::new(input).parse_document()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Parser { bytes, pos: 0 }
    }

    fn parse_document(mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let v = self.parse_value(0)?;
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(self.err("unexpected trailing characters"));
        }
        Ok(v)
    }

    fn err(&self, message: &str) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            message: message.to_string(),
            line,
            column: col,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{word}'")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut obj = Object::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(obj));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            obj.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(obj)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut end = self.pos + clean_prefix_len(&self.bytes[self.pos..]);
        if self.bytes.get(end) == Some(&b'\\') {
            // Escapes ahead: size the string once from its encoded span,
            // which the decoded text never outgrows, instead of doubling it
            // run by run.
            out.reserve(self.escaped_string_end(end) - self.pos);
        }
        loop {
            // The run up to the next `"`, `\` or control byte is copied whole
            // once it is checked as UTF-8: it starts and ends next to ASCII
            // bytes, so a character never straddles its ends.
            match std::str::from_utf8(&self.bytes[self.pos..end]) {
                Ok(run) => out.push_str(run),
                Err(e) => {
                    self.pos += e.valid_up_to();
                    return Err(self.err("invalid utf-8"));
                }
            }
            self.pos = end;
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Decode surrogate pairs.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.peek() == Some(b'\\') {
                                self.pos += 1;
                                if self.bump() != Some(b'u') {
                                    return Err(self.err("expected low surrogate escape"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                match char::from_u32(c) {
                                    Some(c) => out.push(c),
                                    None => return Err(self.err("invalid surrogate pair")),
                                }
                            } else {
                                return Err(self.err("unpaired high surrogate"));
                            }
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(_) => return Err(self.err("control character in string")),
            }
            end = self.pos + clean_prefix_len(&self.bytes[self.pos..]);
        }
    }

    /// Where the string whose first escape is the `\` at `at` ends: at its
    /// closing `"`, or at the control byte or end of input that stops the
    /// scan. Each `\` steps over the byte after it.
    fn escaped_string_end(&self, mut at: usize) -> usize {
        while self.bytes.get(at) == Some(&b'\\') {
            at += 2;
            at += clean_prefix_len(self.bytes.get(at..).unwrap_or_default());
        }
        at.min(self.bytes.len())
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated unicode escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number::Float(f))),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::ser::tests::ALPHABET;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::from(42));
        assert_eq!(parse("-17").unwrap(), Value::from(-17));
        assert_eq!(parse("2.5e3").unwrap(), Value::from(2500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"jobs": [{"id": 1, "state": "DONE"}, {"id": 2, "state": "RUNNING"}]}"#)
            .unwrap();
        assert_eq!(v["jobs"][1]["state"].as_str(), Some("RUNNING"));
    }

    #[test]
    fn error_positions_are_one_based() {
        let e = parse("{\n  \"a\": ,\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.column, 8, "points at the stray comma");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "}",
            "[",
            "]",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1,]",
            "\"unterminated",
            "tru",
            "nul",
            "01",
            "1.",
            "1e",
            "--1",
            "{1: 2}",
            "\"\\x\"",
        ] {
            assert!(parse(bad).is_err(), "expected parse failure for {bad:?}");
        }
    }

    #[test]
    fn decodes_escapes_and_unicode() {
        let v = parse(r#""a\n\t\"\\\/Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\/Aé"));
        // Surrogate pair for U+1D11E (musical G clef).
        let v = parse(r#""𝄞""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1D11E}"));
    }

    #[test]
    fn rejects_lone_surrogates() {
        assert!(parse(r#""\ud834""#).is_err());
        assert!(parse(r#""\udd1e""#).is_err());
    }

    #[test]
    fn preserves_raw_utf8() {
        let v = parse("\"матрица 矩阵\"").unwrap();
        assert_eq!(v.as_str(), Some("матрица 矩阵"));
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        let v = parse("9223372036854775807").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MAX));
        let v = parse("92233720368547758080").unwrap();
        assert!(matches!(v, Value::Number(Number::Float(_))));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(300) + &"]".repeat(300);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            // The innermost value sits at depth `levels`.
            let nested = |levels: usize| open.repeat(levels) + "0" + &close.repeat(levels);
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{open}");
            let e = parse_bytes(nested(MAX_DEPTH + 1).as_bytes()).unwrap_err();
            assert_eq!(e.message(), "maximum nesting depth exceeded");
            assert_eq!(e.offset, (MAX_DEPTH + 1) * open.len());
            // Far deeper input still stops there, without recursing further.
            assert!(parse(&open.repeat(1 << 20)).is_err());
        }
    }

    #[test]
    fn bytes_that_are_not_utf8_are_an_error_at_the_first_bad_byte() {
        for bad in [
            &b"\xFF"[..],
            b"\x80",
            b"\xC0\xAF",         // overlong '/'
            b"\xED\xA0\x80",     // an encoded surrogate
            b"\xF4\x90\x80\x80", // past U+10FFFF
            b"\xE2\x82",         // € cut short
        ] {
            for before in [0, 1, 15, 16, 17, 40] {
                for after in [&b""[..], b"\"", b"x\"", b"\\n\""] {
                    let mut doc = "[\n \"é".as_bytes().to_vec();
                    doc.extend(std::iter::repeat_n(b'x', before));
                    doc.extend_from_slice(bad);
                    doc.extend_from_slice(after);
                    let e = parse_bytes(&doc).unwrap_err();
                    let at = 6 + before;
                    assert_eq!((e.message(), e.offset), ("invalid utf-8", at), "{doc:?}");
                    assert_eq!((e.line, e.column), (2, at - 1), "{doc:?}");
                }
            }
        }
        // Outside strings a non-ASCII byte is no token.
        let e = parse_bytes(b"[1, \xFF]").unwrap_err();
        assert_eq!((e.message(), e.offset), ("unexpected character", 4));
    }

    impl Parser<'_> {
        /// The string reader as it was before it copied runs: one byte at a
        /// time. Kept as the reference the run-copy reader is compared
        /// against, as `ser` keeps its per-char escaper.
        fn parse_string_per_byte(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bump() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.parse_hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    if self.bump() != Some(b'u') {
                                        return Err(self.err("expected low surrogate escape"));
                                    }
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    match char::from_u32(c) {
                                        Some(c) => out.push(c),
                                        None => return Err(self.err("invalid surrogate pair")),
                                    }
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                match char::from_u32(cp) {
                                    Some(c) => out.push(c),
                                    None => return Err(self.err("invalid unicode escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    },
                    Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                    Some(b) if b < 0x80 => out.push(b as char),
                    Some(b) => {
                        let len = match b {
                            0xF0.. => 4,
                            0xE0.. => 3,
                            _ => 2,
                        };
                        let start = self.pos - 1;
                        let end = start + len;
                        if end > self.bytes.len() {
                            return Err(self.err("truncated utf-8 sequence"));
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..end])
                                .map_err(|_| self.err("invalid utf-8"))?,
                        );
                        self.pos = end;
                    }
                }
            }
        }
    }

    /// Reads the string starting at byte `at` of `doc` with both readers and
    /// asserts the same value or the same error, and the same end position.
    /// Returns that position.
    fn same_as_reference(doc: &str, at: usize) -> usize {
        let (mut new, mut old) = (Parser::new(doc.as_bytes()), Parser::new(doc.as_bytes()));
        (new.pos, old.pos) = (at, at);
        let got = new.parse_string();
        let expected = old.parse_string_per_byte();
        assert_eq!(got, expected, "{doc:?} at {at}");
        assert_eq!(new.pos, old.pos, "{doc:?} at {at}");
        if let Ok(s) = &got {
            assert_eq!(parse(&doc[at..new.pos]).unwrap(), Value::from(s.as_str()));
        }
        new.pos
    }

    #[test]
    fn run_copy_reader_matches_the_per_byte_reference() {
        let mut x = 0x7061_7273_655f_7374u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut contents: Vec<String> = (0..0x80u8).map(|b| (b as char).to_string()).collect();
        contents.push(String::new());
        // Each character at every offset of a clean run, so every alignment
        // of hit and tail against the 16-byte scan and its eight-byte tail
        // occurs, past the 16-, 32- and 64-byte edges.
        for c in ALPHABET {
            for at in 0..=72 {
                contents.push(format!("{}{c}{}", "x".repeat(at), "y".repeat(72 - at)));
            }
        }
        for _ in 0..2_000 {
            let len = (next() % 161) as usize;
            let clean = next() % 2 == 0;
            contents.push(
                (0..len)
                    .map(|_| match next() {
                        r if clean && r % 8 != 0 => 'x',
                        r => ALPHABET[(r >> 8) as usize % ALPHABET.len()],
                    })
                    .collect(),
            );
        }
        // Escaped, every one is valid; raw, a quote ends it early, a control
        // byte or a stray backslash is an error. Behind two lines, so error
        // lines and columns are not all 1.
        for s in &contents {
            let mut escaped = String::from("\n \n  ");
            crate::ser::write_escaped(&mut escaped, s).unwrap();
            assert_eq!(same_as_reference(&escaped, 5), escaped.len(), "{s:?}");
            same_as_reference(&format!("\n \n  \"{s}\""), 5);
        }
    }

    #[test]
    fn run_copy_reader_fails_where_and_as_the_reference_does() {
        for bad in [
            "\u{1}",
            "a\u{1f}b",
            "tab\there",
            "line\nbreak",
            "\\x",
            "\\",
            "\\u",
            "\\u12",
            "\\u12\"",
            "\\uzzzz",
            "\\ud834",
            "\\ud834\\u0041",
            "\\ud834\\n",
            "\\ud834x",
            "\\udd1e",
            "\\ud834\\udd1e",
            "unterminated",
            "é€𝄞",
        ] {
            for at in [0, 1, 7, 8, 9, 23] {
                let doc = format!("[\n  \"{}{bad}", "x".repeat(at));
                same_as_reference(&doc, 4);
                same_as_reference(&format!("{doc}\""), 4);
            }
        }
        let e = parse("{\"k\": \"ok\",\n \"v\": \"bad\\q\"}").unwrap_err();
        let at = (e.message(), e.line, e.column, e.offset);
        assert_eq!(
            at,
            ("invalid escape sequence", 2, 13, 24),
            "just past the `q`"
        );
    }

    #[test]
    fn an_escaped_string_is_sized_once_from_its_encoded_span() {
        for (lead, escape) in [("", "\\\""), ("abc", "\\n"), ("", "\\ud834\\udd1e")] {
            let encoded = format!("{lead}{}", format!("{escape}{}", "x".repeat(63)).repeat(64));
            let doc = format!("\"{encoded}\"");
            let mut parser = Parser::new(doc.as_bytes());
            let s = parser.parse_string().unwrap();
            assert_eq!(parser.pos, doc.len());
            assert_eq!(
                s.capacity(),
                encoded.len(),
                "one reservation, never regrown"
            );
            assert!(s.len() < encoded.len());
        }
    }

    #[test]
    fn run_copy_reader_reads_a_64k_journal_record_as_the_reference_does() {
        let fixture = include_str!("../../everest/tests/fixtures/record_lines_64k.jsonl");
        let waiting = fixture.lines().next().unwrap();
        // Every string of the line, keys and values, the 64 KiB one included.
        let (mut at, mut strings) = (0, 0);
        while at < waiting.len() {
            if waiting.as_bytes()[at] == b'"' {
                at = same_as_reference(waiting, at);
                strings += 1;
            } else {
                at += 1;
            }
        }
        assert!(strings > 10, "{strings}");
        let data = parse(waiting).unwrap()["inputs"]["data"]
            .as_str()
            .unwrap()
            .len();
        assert!(data > 64 * 1024, "{data}");
    }

    #[test]
    fn round_trips_compact_encoding() {
        let v = json!({
            "s": "line\nbreak \"quoted\"",
            "n": [0, (-1), 3.5, 1e300],
            "o": {"empty": {}, "arr": []},
            "b": [true, false, null],
        });
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }
}
