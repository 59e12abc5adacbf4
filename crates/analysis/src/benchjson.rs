//! Machine-readable benchmark records.
//!
//! `fjs bench --json` emits its [`BenchSample`] records through
//! [`BenchReport`] in a stable JSON schema, so a later revision can prove a
//! speedup (or catch a regression) with `fjs bench-diff old.json new.json`.
//! The workspace builds offline, so both the serializer and the parser are
//! hand-rolled here — the parser covers exactly the JSON subset the
//! serializer emits (objects, arrays, strings, finite numbers, booleans,
//! null).
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "git_describe": "cfe0d03-dirty",
//!   "cases": [
//!     {
//!       "name": "interval-union-bulk",
//!       "median_s": 1.84e-5,
//!       "min_s": 1.79e-5,
//!       "mean_s": 1.91e-5,
//!       "iters": 4348,
//!       "samples": 12
//!     }
//!   ]
//! }
//! ```
//!
//! Case names are unique. All times are seconds per iteration.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The schema version this module reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// One benchmark case: per-iteration timing statistics.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchSample {
    /// Unique case name, e.g. `scheduler-throughput/Batch/1000`.
    pub name: String,
    /// Median seconds per iteration across samples.
    pub median_s: f64,
    /// Minimum seconds per iteration across samples.
    pub min_s: f64,
    /// Mean seconds per iteration across samples.
    pub mean_s: f64,
    /// Iterations per sample (chosen by warm-up calibration).
    pub iters: usize,
    /// Number of timed samples.
    pub samples: usize,
}

/// A full benchmark report: every case measured by a bench run, plus the
/// provenance needed to compare across revisions.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] when produced by this code).
    pub schema_version: u64,
    /// `git describe --always --dirty` of the measured tree, or
    /// `"unknown"` outside a git checkout.
    pub git_describe: String,
    /// All cases, in insertion order.
    pub cases: Vec<BenchSample>,
}

impl BenchReport {
    /// An empty report at the current schema version.
    pub fn new(git_describe: impl Into<String>) -> Self {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_describe: git_describe.into(),
            cases: Vec::new(),
        }
    }

    /// Adds `sample`, replacing any existing case with the same name, so
    /// case names stay unique.
    pub fn upsert(&mut self, sample: BenchSample) {
        match self.cases.iter_mut().find(|c| c.name == sample.name) {
            Some(slot) => *slot = sample,
            None => self.cases.push(sample),
        }
    }

    /// Looks a case up by name.
    pub fn case(&self, name: &str) -> Option<&BenchSample> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// Checks the report against the schema: supported version, unique
    /// case names, finite non-negative times, positive iteration counts.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (expected {SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        let mut seen = BTreeMap::new();
        for c in &self.cases {
            if let Some(()) = seen.insert(c.name.clone(), ()) {
                return Err(format!("duplicate case name '{}'", c.name));
            }
            for (label, v) in [
                ("median_s", c.median_s),
                ("min_s", c.min_s),
                ("mean_s", c.mean_s),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!(
                        "case '{}': {label} = {v} is not a valid time",
                        c.name
                    ));
                }
            }
            if c.iters == 0 || c.samples == 0 {
                return Err(format!("case '{}': iters/samples must be positive", c.name));
            }
        }
        Ok(())
    }

    /// Serializes to the schema above (pretty-printed, stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(
            out,
            "  \"git_describe\": \"{}\",",
            escape(&self.git_describe)
        );
        out.push_str("  \"cases\": [");
        for (i, c) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"median_s\": {}, \"min_s\": {}, \"mean_s\": {}, \
                 \"iters\": {}, \"samples\": {}}}",
                escape(&c.name),
                fmt_f64(c.median_s),
                fmt_f64(c.min_s),
                fmt_f64(c.mean_s),
                c.iters,
                c.samples,
            );
        }
        if !self.cases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a report and validates it against the schema.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object("report")?;
        let schema_version = get(obj, "schema_version")?.as_u64("schema_version")?;
        let git_describe = get(obj, "git_describe")?
            .as_str("git_describe")?
            .to_string();
        let mut cases = Vec::new();
        for (i, item) in get(obj, "cases")?.as_array("cases")?.iter().enumerate() {
            let c = item.as_object(&format!("cases[{i}]"))?;
            cases.push(BenchSample {
                name: get(c, "name")?.as_str("name")?.to_string(),
                median_s: get(c, "median_s")?.as_f64("median_s")?,
                min_s: get(c, "min_s")?.as_f64("min_s")?,
                mean_s: get(c, "mean_s")?.as_f64("mean_s")?,
                iters: get(c, "iters")?.as_u64("iters")? as usize,
                samples: get(c, "samples")?.as_u64("samples")? as usize,
            });
        }
        let report = BenchReport {
            schema_version,
            git_describe,
            cases,
        };
        report.validate()?;
        Ok(report)
    }
}

/// One aligned case in a [`BenchDiff`].
#[derive(Clone, PartialEq, Debug)]
pub struct CaseDelta {
    /// Case name present in both reports.
    pub name: String,
    /// Median seconds per iteration in the old report.
    pub old_median_s: f64,
    /// Median seconds per iteration in the new report.
    pub new_median_s: f64,
}

impl CaseDelta {
    /// `new / old` median ratio; `1.0` means unchanged, `2.0` a 2× slowdown.
    /// Zero-time old cases compare as `1.0` when new is also zero,
    /// `f64::INFINITY` otherwise.
    pub fn ratio(&self) -> f64 {
        if self.old_median_s > 0.0 {
            self.new_median_s / self.old_median_s
        } else if self.new_median_s == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    }

    /// Relative change `ratio − 1` (`+0.25` = 25 % slower, `−0.10` = 10 %
    /// faster).
    pub fn relative_change(&self) -> f64 {
        self.ratio() - 1.0
    }
}

/// The alignment of two [`BenchReport`]s by case name.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchDiff {
    /// Cases present in both reports, in the new report's order.
    pub aligned: Vec<CaseDelta>,
    /// Case names only in the old report.
    pub only_old: Vec<String>,
    /// Case names only in the new report.
    pub only_new: Vec<String>,
}

impl BenchDiff {
    /// Aligned cases whose median regressed by more than `threshold`
    /// (e.g. `0.2` flags ratios above 1.2).
    pub fn regressions(&self, threshold: f64) -> Vec<&CaseDelta> {
        self.aligned
            .iter()
            .filter(|d| d.relative_change() > threshold)
            .collect()
    }
}

/// Aligns two reports by case name.
pub fn diff_reports(old: &BenchReport, new: &BenchReport) -> BenchDiff {
    let aligned = new
        .cases
        .iter()
        .filter_map(|n| {
            old.case(&n.name).map(|o| CaseDelta {
                name: n.name.clone(),
                old_median_s: o.median_s,
                new_median_s: n.median_s,
            })
        })
        .collect();
    let only_old = old
        .cases
        .iter()
        .filter(|o| new.case(&o.name).is_none())
        .map(|o| o.name.clone())
        .collect();
    let only_new = new
        .cases
        .iter()
        .filter(|n| old.case(&n.name).is_none())
        .map(|n| n.name.clone())
        .collect();
    BenchDiff {
        aligned,
        only_old,
        only_new,
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a finite `f64` so it round-trips through [`Json::parse`]
/// (Rust's `{:?}` for `f64` is the shortest round-trip representation).
/// Non-finite values serialize as `0` — the schema forbids them anyway.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// A parsed JSON value (the subset this module emits).
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers round-trip exactly to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(format!("{what}: expected an object, got {other:?}")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("{what}: expected an array, got {other:?}")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected a string, got {other:?}")),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("{what}: expected a number, got {other:?}")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        let n = self.as_f64(what)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Ok(n as u64)
        } else {
            Err(format!("{what}: expected a non-negative integer, got {n}"))
        }
    }
}

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
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
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // serializer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let ch = s.chars().next().ok_or("empty string tail")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, median: f64) -> BenchSample {
        BenchSample {
            name: name.into(),
            median_s: median,
            min_s: median * 0.9,
            mean_s: median * 1.1,
            iters: 100,
            samples: 12,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::new("abc123-dirty");
        report.upsert(sample("a/b/1000", 1.5e-5));
        report.upsert(sample("quoted \"name\" \\ tab\t", 2.0));
        let json = report.to_json();
        let back = BenchReport::parse(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = BenchReport::new("unknown");
        let back = BenchReport::parse(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!(back.cases.is_empty());
    }

    #[test]
    fn upsert_replaces_same_name() {
        let mut report = BenchReport::new("x");
        report.upsert(sample("case", 1.0));
        report.upsert(sample("other", 5.0));
        report.upsert(sample("case", 2.0));
        assert_eq!(report.cases.len(), 2);
        assert_eq!(report.case("case").unwrap().median_s, 2.0);
    }

    #[test]
    fn validate_rejects_bad_reports() {
        let mut report = BenchReport::new("x");
        report.upsert(sample("a", 1.0));
        assert!(report.validate().is_ok());

        let mut wrong_version = report.clone();
        wrong_version.schema_version = 99;
        assert!(wrong_version
            .validate()
            .unwrap_err()
            .contains("schema_version"));

        let mut dup = report.clone();
        dup.cases.push(sample("a", 2.0)); // bypasses upsert
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut negative = report.clone();
        negative.cases[0].median_s = -1.0;
        assert!(negative.validate().unwrap_err().contains("median_s"));

        let mut zero_iters = report;
        zero_iters.cases[0].iters = 0;
        assert!(zero_iters.validate().unwrap_err().contains("iters"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{}")
            .unwrap_err()
            .contains("schema_version"));
        assert!(BenchReport::parse("{\"schema_version\": 1}").is_err());
        // Trailing garbage is an error, not silently ignored.
        let good = BenchReport::new("x").to_json();
        assert!(BenchReport::parse(&format!("{good} extra")).is_err());
    }

    #[test]
    fn diff_aligns_by_name_and_flags_regressions() {
        let mut old = BenchReport::new("old");
        old.upsert(sample("same", 1.0));
        old.upsert(sample("slower", 1.0));
        old.upsert(sample("gone", 1.0));
        let mut new = BenchReport::new("new");
        new.upsert(sample("same", 1.0));
        new.upsert(sample("slower", 2.5));
        new.upsert(sample("fresh", 1.0));

        let diff = diff_reports(&old, &new);
        assert_eq!(diff.aligned.len(), 2);
        assert_eq!(diff.only_old, vec!["gone".to_string()]);
        assert_eq!(diff.only_new, vec!["fresh".to_string()]);

        let regressions = diff.regressions(0.2);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "slower");
        assert!((regressions[0].ratio() - 2.5).abs() < 1e-12);

        // Self-compare: zero regressions at any positive threshold.
        let self_diff = diff_reports(&new, &new);
        assert!(self_diff.regressions(0.0).is_empty());
        assert!(self_diff.only_old.is_empty() && self_diff.only_new.is_empty());
    }

    #[test]
    fn f64_formatting_round_trips_extremes() {
        for v in [0.0, 1.5e-9, std::f64::consts::PI, 1e300, 123456.0] {
            let text = fmt_f64(v);
            let parsed: f64 = text.parse().unwrap();
            assert_eq!(parsed, v, "{text}");
        }
        assert_eq!(fmt_f64(f64::NAN), "0");
    }

    #[test]
    fn json_parser_handles_escapes_and_unicode() {
        let v = Json::parse(r#"{"k": "a\"b\\c\ndAµ", "n": [1, -2.5e3, true, null]}"#).unwrap();
        let obj = v.as_object("v").unwrap();
        assert_eq!(get(obj, "k").unwrap().as_str("k").unwrap(), "a\"b\\c\ndAµ");
        let arr = get(obj, "n").unwrap().as_array("n").unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[1].as_f64("n[1]").unwrap(), -2500.0);
    }
}
