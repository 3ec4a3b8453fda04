//! Minimal JSON reading/writing for the workspace's wire formats.
//!
//! The repo builds offline, so instead of `serde_json` the few places that
//! speak JSON (the CLI's `protect` output, the release-history JSONL store)
//! share this hand-rolled value type. It covers exactly the JSON subset
//! those formats use: objects, arrays, strings, booleans, null, and
//! integer/float numbers.

use crate::{Error, Result};
use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser recurses
/// once per level and every NDJSON line a peer sends is parsed, so without a
/// bound one line of `[`s overflows the parsing thread's stack and aborts
/// the process. The deepest document the workspace writes nests to single
/// digits.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as f64; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept sorted so output is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `i64` (numbers with no fractional part only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse a complete JSON document (rejects trailing garbage, and
    /// arrays/objects nested more than 128 deep).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::Parse(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(value)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::Parse(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(Error::Parse(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    /// Parse one array or object, refusing it past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(Error::Parse(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json> {
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
                _ => {
                    return Err(Error::Parse(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => {
                    return Err(Error::Parse(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::Parse("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::Parse("dangling escape".into()))?;
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
                            // Four ASCII hex digits: `from_str_radix` alone
                            // would also take a sign, reading `\u+041` as `A`.
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| {
                                    Error::Parse(format!(
                                        "\\u escape at byte {} needs four hex digits",
                                        self.pos
                                    ))
                                })?;
                            let code = hex.iter().fold(0, |code, &h| {
                                code << 4 | (h as char).to_digit(16).expect("a hex digit")
                            });
                            self.pos += 4;
                            // Surrogate pairs are outside this subset's needs;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::Parse(format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                _ => return Err(Error::Parse("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
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
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        // `f64` parsing saturates, so `1e999` would read as infinity, which
        // JSON cannot write back.
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| Error::Parse(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    #[test]
    fn round_trips_the_wire_subset() {
        let doc = Json::obj([
            ("stream_len", Json::from(2000u64)),
            (
                "itemsets",
                Json::Arr(vec![Json::obj([
                    (
                        "itemset",
                        Json::Arr(vec![Json::from(0u64), Json::from(2u64)]),
                    ),
                    ("support", Json::from(-3i64)),
                ])]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("stream_len").unwrap().as_u64(), Some(2000));
        let entry = &back.get("itemsets").unwrap().as_array().unwrap()[0];
        assert_eq!(entry.get("support").unwrap().as_i64(), Some(-3));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\\n\" : [ 1.5 , true , null , \"x\\u0041\" ] } ").unwrap();
        let arr = v.get("a\n").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.5));
        assert_eq!(arr[1], Json::Bool(true));
        assert_eq!(arr[2], Json::Null);
        assert_eq!(arr[3].as_str(), Some("xA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        // One frame-cap line (1 MiB) of openers: without the depth bound
        // either aborts the test binary with a stack overflow.
        const MIB: usize = 1 << 20;
        for deep in ["[".repeat(MIB), "{\"a\":".repeat(MIB / 5)] {
            let err = Json::parse(&deep).expect_err("a 1 MiB nest");
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // The bound is exact: 128 levels parse, 129 do not.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            Json::parse(r#""\u0041\u00E9""#).unwrap().as_str(),
            Some("Aé")
        );
        // A sign, a short or non-hex run: all once read as a code point
        // (`\u+041` as `A`).
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u041""#, r#""\u004g""#] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn numbers_past_f64_are_refused_not_infinite() {
        let long = "9".repeat(400);
        for bad in ["1e999", "-1e400", long.as_str()] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    /// A random document the writer produces: every variant, strings with
    /// escapes, control and multi-byte characters, nested up to `depth`.
    fn random_doc(rng: &mut SmallRng, depth: usize) -> Json {
        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', 'é', '中', '🦋',
        ];
        let text = |rng: &mut SmallRng| -> String {
            let len = rng.gen_range_usize(6);
            (0..len)
                .map(|_| CHARS[rng.gen_range_usize(CHARS.len())])
                .collect()
        };
        match rng.gen_range_usize(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::from(rng.gen_range_i64(-1 << 40, 1 << 40)),
            3 => Json::Num(
                rng.gen_range_i64(-999, 999) as f64 / 8.0
                    * 10f64.powi(rng.gen_range_i64(-30, 30) as i32),
            ),
            4 => Json::Str(text(rng)),
            5 => Json::Arr(
                (0..rng.gen_range_usize(4))
                    .map(|_| random_doc(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range_usize(4))
                    .map(|_| (text(rng), random_doc(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// No input panics, and whatever parses writes back to text that parses
    /// to the same value.
    fn check_round_trip(bytes: &[u8], what: &str) {
        let text = String::from_utf8_lossy(bytes);
        if let Ok(value) = Json::parse(&text) {
            let again = value.to_string();
            assert_eq!(
                Json::parse(&again).ok(),
                Some(value),
                "{what}: {text:?} → {again:?}"
            );
        }
    }

    #[test]
    fn seeded_fuzz_of_written_documents_never_panics_and_round_trips() {
        // Tokens a hostile line might splice in, beside single random bytes.
        const TOKENS: &[&str] = &[
            "\\u", "\\u+", "\\uD800", "e999", "-", "+", ".", "0", "\"", "\\", "[", "]", "{", "}",
            ":", ",", "null", "tru", " ",
        ];
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(0x150_f022 ^ seed);
            let doc = random_doc(&mut rng, 4);
            let bytes = doc.to_string().into_bytes();
            assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc, "seed {seed}");
            for cut in 0..bytes.len() {
                check_round_trip(&bytes[..cut], &format!("seed {seed} cut {cut}"));
            }
            for round in 0..64 {
                let mut mutated = bytes.clone();
                let at = rng.gen_range_usize(mutated.len() + 1);
                match round % 3 {
                    0 if !mutated.is_empty() => {
                        let at = at.min(mutated.len() - 1);
                        mutated[at] ^= 1 << rng.gen_range_usize(8);
                    }
                    1 => mutated.insert(at, rng.next_u64() as u8),
                    _ => {
                        let token = TOKENS[rng.gen_range_usize(TOKENS.len())];
                        mutated.splice(at..at, token.bytes());
                    }
                }
                check_round_trip(&mutated, &format!("seed {seed} round {round}"));
            }
        }
    }

    #[test]
    fn escapes_control_characters_on_output() {
        let s = Json::Str("a\"b\\c\nd\u{1}".into()).to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(41i64).to_string(), "41");
        assert_eq!(Json::from(-7i64).to_string(), "-7");
        assert_eq!(Json::Num(2.25).to_string(), "2.25");
    }
}
