//! The one JSON codec for every record fjs writes and reads back: the sweep
//! and serve journals ([`crate::supervise::journal`],
//! [`crate::service::checkpoint`]), `fjs serve --stats-jsonl`,
//! `fjs stats --log-jsonl` and `fjs bench --json`.
//!
//! Records are written through [`Line`], a compact flat-object builder.
//! Each caller picks its numbers' text: the journals pass `f64`s by
//! `Display` (shortest round-trip text, never an exponent), the timing
//! records pass [`fmt_f64`]. Records are read through [`Json::parse`],
//! which covers objects, arrays, strings with every standard escape,
//! numbers, booleans and null. A number keeps its source text and is parsed
//! only on access, so a `u64` seed above 2⁵³ reads back exactly.
//!
//! [`escape`] writes `"`, `\` and newline as two-character escapes and
//! every other control character as `\u00XX`. The journals' bytes are a
//! compatibility surface (`--resume` reads files earlier runs wrote), so
//! these rules are fixed.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// Escapes `s` for the inside of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a finite `f64` as its shortest round-trip text (`{:?}`, e.g.
/// `1.5e-5`). Non-finite values, which JSON cannot hold, become `0`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// A compact flat JSON object, built one field at a time:
/// `Line::new().num("v", 1).str("kind", "open").finish()` is
/// `{"v":1,"kind":"open"}`. Keys are written as given.
#[derive(Default, Debug)]
pub struct Line(String);

impl Line {
    /// An object with no fields yet.
    pub fn new() -> Line {
        Line::default()
    }

    fn key(mut self, key: &str) -> Line {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0.push('"');
        self.0.push_str(key);
        self.0.push_str("\":");
        self
    }

    /// Appends a string field.
    pub fn str(self, key: &str, value: &str) -> Line {
        let mut line = self.key(key);
        line.0.push('"');
        line.0.push_str(&escape(value));
        line.0.push('"');
        line
    }

    /// Appends a number field, rendered by `value`'s `Display`.
    pub fn num(self, key: &str, value: impl Display) -> Line {
        let mut line = self.key(key);
        let _ = write!(line.0, "{value}");
        line
    }

    /// The object's text, without a newline.
    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// Parses one versioned record line and checks its `v` stamp.
pub fn parse_record(line: &str, version: u32) -> Result<Json, String> {
    let record = Json::parse(line)?;
    let v: u32 = record.num("v")?;
    if v != version {
        return Err(format!("unsupported journal version {v}"));
    }
    Ok(record)
}

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source text; [`Json::as_num`] parses it into the
    /// type the caller needs.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value of an object's field `key` (the first, if repeated).
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        let Json::Obj(fields) = self else {
            return Err(format!("expected an object, got {self:?}"));
        };
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// The string field `key` of an object.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key)?.as_str(key)
    }

    /// The number field `key` of an object, parsed as `T`.
    pub fn num<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.as_num(key)
    }

    /// This string; `what` names it in the error.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected a string, got {other:?}")),
        }
    }

    /// This array's items; `what` names it in the error.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("{what}: expected an array, got {other:?}")),
        }
    }

    /// This number, parsed from its source text as `T`; `what` names it
    /// in the error.
    pub fn as_num<T: FromStr>(&self, what: &str) -> Result<T, String> {
        match self {
            Json::Num(text) => text
                .parse()
                .map_err(|_| format!("{what}: bad number '{text}'")),
            other => Err(format!("{what}: expected a number, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                    self.pos += 4;
                    // The writers never emit surrogates; a lone one reads
                    // as U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        Ok(Json::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fjs_prng::check::forall_seeded;
    use fjs_prng::SmallRng;

    /// A string drawn from every control character, the two characters
    /// with their own escapes, and non-ASCII text.
    fn random_text(rng: &mut SmallRng) -> String {
        const SPECIAL: [char; 6] = ['"', '\\', 'µ', '€', '😀', 'a'];
        (0..rng.u64_below(24))
            .map(|_| match rng.u64_below(2) {
                0 => char::from_u32(rng.u64_below(0x20) as u32).unwrap(),
                _ => *rng.choose(&SPECIAL),
            })
            .collect()
    }

    #[test]
    fn line_round_trips_through_json() {
        let controls: String = (0..0x20u32).map(|c| char::from_u32(c).unwrap()).collect();
        let fixed = Line::new()
            .str("controls", &controls)
            .str("quote", "a\"b\\c µ€😀")
            .num("max", u64::MAX)
            .num("above_2_53", (1u64 << 53) + 1)
            .finish();
        let back = Json::parse(&fixed).unwrap();
        assert_eq!(back.str("controls").unwrap(), controls);
        assert_eq!(back.str("quote").unwrap(), "a\"b\\c µ€😀");
        assert_eq!(back.num::<u64>("max").unwrap(), u64::MAX);
        assert_eq!(back.num::<u64>("above_2_53").unwrap(), (1 << 53) + 1);
        assert_eq!(Line::new().finish(), "{}");
        // The journals' escape rules: their bytes are a compatibility surface.
        assert_eq!(escape("\t\r\n\"\\"), r#"\u0009\u000d\n\"\\"#);
        assert_eq!(fmt_f64(f64::NAN), "0");

        // Escapes the writers never emit still read, as do nested values.
        let other = Json::parse(r#"{"k": "\t\r\/\b\fé", "n": [1, -2.5e3, true, null]}"#).unwrap();
        assert_eq!(other.str("k").unwrap(), "\t\r/\u{8}\u{c}é");
        let n = other.get("n").unwrap().as_array("n").unwrap();
        assert_eq!(n[1].as_num::<f64>("n[1]").unwrap(), -2500.0);
        assert_eq!(&n[2..], [Json::Bool(true), Json::Null]);

        forall_seeded(0x15_0E, 200, |rng| {
            let text = random_text(rng);
            let seed = rng.next_u64();
            const EXTREMES: [f64; 7] = [0.0, -0.0, 1.5e-9, 123456.0, 1e300, f64::MAX, 5e-324];
            let v = match rng.u64_below(4) {
                0 => *rng.choose(&EXTREMES),
                _ => loop {
                    let v = f64::from_bits(rng.next_u64());
                    if v.is_finite() {
                        break v;
                    }
                },
            };
            let line = Line::new()
                .str("text", &text)
                .num("display", v)
                .num("debug", fmt_f64(v))
                .num("seed", seed)
                .finish();
            let back = Json::parse(&line).unwrap();
            assert_eq!(back.str("text").unwrap(), text, "{line}");
            assert_eq!(back.num::<u64>("seed").unwrap(), seed, "{line}");
            for key in ["display", "debug"] {
                assert_eq!(
                    back.num::<f64>(key).unwrap().to_bits(),
                    v.to_bits(),
                    "{line}"
                );
            }
        });
    }
}
