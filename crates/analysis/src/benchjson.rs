//! Machine-readable benchmark records.
//!
//! `fjs bench --json` emits its [`BenchSample`] records through
//! [`BenchReport`] in a stable JSON schema, so a later revision can prove a
//! speedup (or catch a regression) with `fjs bench-diff old.json new.json`.
//! The document frame is written here; each case object is written, and
//! the whole document read, through the workspace's one JSON codec,
//! [`fjs_core::json`].
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "git_describe": "cfe0d03-dirty",
//!   "cases": [
//!     {"name":"interval-union-bulk","median_s":1.84e-5,"min_s":1.79e-5,"mean_s":1.91e-5,"iters":4348,"samples":12}
//!   ]
//! }
//! ```
//!
//! Case names are unique, one case per line. All times are seconds per
//! iteration.

use fjs_core::json::{escape, fmt_f64, Json, Line};
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
            let case = Line::new()
                .str("name", &c.name)
                .num("median_s", fmt_f64(c.median_s))
                .num("min_s", fmt_f64(c.min_s))
                .num("mean_s", fmt_f64(c.mean_s))
                .num("iters", c.iters)
                .num("samples", c.samples)
                .finish();
            let _ = write!(out, "\n    {case}");
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
        let schema_version = value.num("schema_version")?;
        let git_describe = value.str("git_describe")?.to_string();
        let mut cases = Vec::new();
        for c in value.get("cases")?.as_array("cases")? {
            cases.push(BenchSample {
                name: c.str("name")?.to_string(),
                median_s: c.num("median_s")?,
                min_s: c.num("min_s")?,
                mean_s: c.num("mean_s")?,
                iters: c.num("iters")?,
                samples: c.num("samples")?,
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
        assert_eq!(v.str("k").unwrap(), "a\"b\\c\ndAµ");
        let arr = v.get("n").unwrap().as_array("n").unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[1].as_num::<f64>("n[1]").unwrap(), -2500.0);
    }
}
