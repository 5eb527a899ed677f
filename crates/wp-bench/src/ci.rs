//! CI plumbing for the bench binaries: machine-readable reports, the
//! perf-regression floor check, and one-line failure exits.
//!
//! Reports are flat JSON (`{"name": ..., "metrics": {...}, "notes":
//! {...}}`) written by hand in a pinned wire format; reports and the
//! checked-in floors file are read back through the workspace's one JSON
//! codec, [`wp_trace::json`], with a strict schema walk on top. A metric
//! JSON cannot carry as a number (NaN, ±infinity) is written as the string
//! `"NaN"`, `"+Inf"` or `"-Inf"`, as the metrics export writes gauges.
//!
//! The regression contract: every bench binary writes
//! `results/bench_<name>.json`; `ci/bench_floors.json` holds `min` and
//! `max` bounds keyed `"<name>.<metric>"`; the `gate` binary re-reads both
//! sides and fails CI with a readable per-metric diff when any bound is
//! violated or any floored metric is missing.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wp_trace::json::{self, escape, fmt_f64, parse_f64, Json};

/// One bench binary's machine-readable output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Bench name; the file is written as `bench_<name>.json` and floors
    /// reference metrics as `<name>.<metric>`.
    pub name: String,
    /// Numeric results, in insertion order (speedups, seconds, counts).
    pub metrics: Vec<(String, f64)>,
    /// Free-text annotations (e.g. the winning schedule's label). Not
    /// subject to floors.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// An empty report for `name`.
    pub fn new(name: &str) -> Self {
        Report {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Record a numeric metric.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.push((key.to_string(), value));
        self
    }

    /// Record a free-text note.
    pub fn note(&mut self, key: &str, value: &str) -> &mut Self {
        self.notes.push((key.to_string(), value.to_string()));
        self
    }

    /// Serialize to the pinned JSON wire format (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"name\": \"{}\",", escape(&self.name));
        out.push_str("  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": {}{comma}", escape(k), fmt_num(*v));
        }
        out.push_str("  },\n  \"notes\": {\n");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let comma = if i + 1 < self.notes.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": \"{}\"{comma}", escape(k), escape(v));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a report written by [`Self::to_json`]. The `name` is
    /// mandatory; `metrics` and `notes` may be absent or empty.
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = json::parse(text)?;
        let mut report = Report::default();
        let mut named = false;
        for (key, v) in members(&doc, "report")? {
            match key.as_str() {
                "name" => {
                    report.name = v.as_str().ok_or("report name is not a string")?.into();
                    named = true;
                }
                "metrics" => report.metrics.extend(numbers(v, key)?),
                "notes" => {
                    for (k, note) in members(v, key)? {
                        let note = note
                            .as_str()
                            .ok_or_else(|| format!("note {k:?} is not a string"))?;
                        report.notes.push((k.clone(), note.into()));
                    }
                }
                other => return Err(format!("unknown report key {other:?}")),
            }
        }
        if !named {
            return Err("report has no name".into());
        }
        Ok(report)
    }

    /// Look up a metric by key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Write `bench_<name>.json` under `dir` (created if needed) and
    /// return the path.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("bench_{}.json", self.name));
        std::fs::write(&path, self.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Format a float so the wire format round-trips exactly and stays
/// readable: integers print bare, other finite values via `{:?}` (shortest
/// representation that re-parses to the same f64), and NaN and the
/// infinities as the quoted strings [`fmt_f64`] spells.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        format!("\"{}\"", fmt_f64(v))
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// The members of `v`, which must be an object; `what` names it in the
/// error.
fn members<'d, 'a>(v: &'d Json<'a>, what: &str) -> Result<&'d [(String, Json<'a>)], String> {
    v.as_obj().ok_or_else(|| format!("{what} is not an object"))
}

/// An object of numbers, as [`fmt_num`] writes them.
fn numbers(v: &Json, what: &str) -> Result<Vec<(String, f64)>, String> {
    members(v, what)?
        .iter()
        .map(|(k, n)| {
            let n = match n {
                Json::Str(s) => parse_f64(s).filter(|n| !n.is_finite()),
                n => n.as_f64(),
            };
            n.map(|n| (k.clone(), n))
                .ok_or_else(|| format!("{what}: {k:?} is not a number"))
        })
        .collect()
}

/// The checked-in regression bounds: `min` floors and `max` ceilings, both
/// keyed `"<bench>.<metric>"`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Floors {
    /// Metrics that must not drop below the bound (speedups, gains).
    pub min: Vec<(String, f64)>,
    /// Metrics that must not rise above the bound (alloc counts, seconds).
    pub max: Vec<(String, f64)>,
}

impl Floors {
    /// Parse `ci/bench_floors.json`, which must hold `min`, `max` or both:
    /// an empty document is an error, not zero bounds to satisfy.
    pub fn parse(text: &str) -> Result<Floors, String> {
        let doc = json::parse(text)?;
        let mut floors = Floors::default();
        let mut bounded = false;
        for (key, v) in members(&doc, "floors")? {
            match key.as_str() {
                "min" => floors.min = numbers(v, key)?,
                "max" => floors.max = numbers(v, key)?,
                other => return Err(format!("unknown floors key {other:?}")),
            }
            bounded = true;
        }
        if !bounded {
            return Err("floors hold neither min nor max".into());
        }
        Ok(floors)
    }

    /// Check every bound against `reports`. Returns human-readable lines:
    /// `Ok` lists each satisfied bound, `Err` lists every violation
    /// (regressed value vs bound, or missing metric/report).
    pub fn check(&self, reports: &[Report]) -> Result<Vec<String>, Vec<String>> {
        let lookup = |key: &str| -> Result<f64, String> {
            let (bench, metric) = key
                .split_once('.')
                .ok_or_else(|| format!("{key}: malformed floor key (want bench.metric)"))?;
            let report = reports
                .iter()
                .find(|r| r.name == bench)
                .ok_or_else(|| format!("{key}: no bench_{bench}.json report found"))?;
            report
                .get(metric)
                .ok_or_else(|| format!("{key}: metric missing from report"))
        };
        let mut ok = Vec::new();
        let mut bad = Vec::new();
        for (key, bound) in &self.min {
            match lookup(key) {
                Ok(v) if v >= *bound => ok.push(format!("{key} = {v:.4} >= min {bound:.4}")),
                Ok(v) => bad.push(format!(
                    "{key} = {v:.4} REGRESSED below min {bound:.4} (delta {:+.4})",
                    v - bound
                )),
                Err(e) => bad.push(e),
            }
        }
        for (key, bound) in &self.max {
            match lookup(key) {
                Ok(v) if v <= *bound => ok.push(format!("{key} = {v:.4} <= max {bound:.4}")),
                Ok(v) => bad.push(format!(
                    "{key} = {v:.4} REGRESSED above max {bound:.4} (delta {:+.4})",
                    v - bound
                )),
                Err(e) => bad.push(e),
            }
        }
        if bad.is_empty() {
            Ok(ok)
        } else {
            Err(bad)
        }
    }
}

/// Print a one-line reason on stderr and exit nonzero — the bench
/// binaries' replacement for `assert!`, so CI logs end with the actual
/// regression instead of a panic backtrace.
pub fn fail(bench: &str, reason: &str) -> ! {
    eprintln!("wp-bench {bench}: FAIL: {reason}");
    std::process::exit(1);
}

/// Run a named check, turning an `Err` into a one-line nonzero exit and
/// an `Ok` into a progress line.
pub fn check(bench: &str, what: &str, result: Result<(), String>) {
    match result {
        Ok(()) => println!("{what} .. ok"),
        Err(reason) => fail(bench, &format!("{what}: {reason}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("tune");
        r.metric("smoke_gain", 1.25)
            .metric("fleet_sim_s", 3.5)
            .metric("evaluated", 64.0)
            .note("best", "WZB1 N=8 overlap");
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample();
        let back = Report::parse(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn empty_sections_round_trip() {
        let r = Report::new("empty");
        let back = Report::parse(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn escapes_round_trip() {
        let mut r = Report::new("esc");
        r.note("msg", "a \"quoted\"\nline \\ backslash");
        r.note("controls", "\t\r\u{1}");
        let json = r.to_json();
        assert_eq!(Report::parse(&json).unwrap(), r);
        // RFC 8259 forbids raw control characters inside strings; the only
        // ones in the document are the line breaks between members.
        for line in json.lines() {
            assert!(
                line.bytes().all(|b| b >= 0x20),
                "raw control byte in {line:?}"
            );
        }
    }

    #[test]
    fn non_ascii_notes_round_trip() {
        let mut r = Report::new("utf8");
        r.note("unit", "µs ×2");
        assert_eq!(Report::parse(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn trailing_input_after_the_document_is_rejected() {
        let json = sample().to_json();
        assert!(Report::parse(&format!("{json}  \n")).is_ok());
        let err = Report::parse(&format!("{json}}}")).unwrap_err();
        assert!(err.contains("trailing input"), "{err}");
        assert!(Report::parse(&format!("{json}{json}")).is_err());
        assert!(Floors::parse(r#"{ "min": {} } x"#).is_err());
        // A document with no name, or floors with no bounds, is an error
        // rather than an empty report or "0 bounds satisfied".
        assert!(Report::parse("{}").is_err());
        assert!(Floors::parse("{}").is_err());
        assert!(Floors::parse(r#"{ "min": {} }"#).is_ok());
    }

    #[test]
    fn non_finite_metrics_round_trip_and_regress() {
        let mut r = Report::new("nf");
        r.metric("nan", f64::NAN)
            .metric("inf", f64::INFINITY)
            .metric("ninf", f64::NEG_INFINITY);
        let json = r.to_json();
        assert!(json.contains("\"nan\": \"NaN\""), "{json}");
        let back = Report::parse(&json).unwrap();
        assert!(back.get("nan").unwrap().is_nan());
        assert_eq!(back.get("inf"), Some(f64::INFINITY));
        assert_eq!(back.get("ninf"), Some(f64::NEG_INFINITY));
        // A string that is not one of the three spellings is no number.
        assert!(Report::parse(r#"{"name": "x", "metrics": {"m": "1.5"}}"#).is_err());

        let floors = Floors {
            min: vec![("nf.nan".into(), 1.0)],
            max: vec![],
        };
        let err = floors.check(&[back]).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("REGRESSED below min"), "{err:?}");
    }

    #[test]
    fn million_deep_documents_are_errors_in_every_reader() {
        let deep = "[".repeat(1_000_000);
        let err = wp_trace::validate_chrome_json(&format!("{{\"traceEvents\":{deep}"));
        assert!(err.unwrap_err().contains("nesting"));
        let err = wp_metrics::parse_json(&format!("{{\"wp_metrics\":1,\"ranks\":{deep}"));
        assert!(err.unwrap_err().contains("nesting"));
        let err = Report::parse(&format!("{{\"name\":\"x\",\"metrics\":{{\"m\":{deep}"));
        assert!(err.unwrap_err().contains("nesting"));
        let err = Floors::parse(&format!("{{\"min\":{deep}"));
        assert!(err.unwrap_err().contains("nesting"));
    }

    #[test]
    fn floors_pass_and_fail_with_readable_lines() {
        let floors = Floors {
            min: vec![("tune.smoke_gain".into(), 1.0)],
            max: vec![
                ("tune.fleet_sim_s".into(), 5.0),
                ("tune.evaluated".into(), 10.0),
            ],
        };
        let err = floors.check(&[sample()]).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("tune.evaluated"), "{err:?}");
        assert!(err[0].contains("REGRESSED above max"), "{err:?}");

        let floors = Floors {
            min: vec![("tune.smoke_gain".into(), 1.0)],
            max: vec![("tune.fleet_sim_s".into(), 5.0)],
        };
        let ok = floors.check(&[sample()]).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn missing_report_and_metric_are_violations() {
        let floors = Floors {
            min: vec![("kernels.speedup".into(), 1.0), ("tune.nope".into(), 1.0)],
            max: vec![],
        };
        let err = floors.check(&[sample()]).unwrap_err();
        assert_eq!(err.len(), 2);
        assert!(err[0].contains("no bench_kernels.json"));
        assert!(err[1].contains("metric missing"));
    }

    #[test]
    fn floors_file_parses() {
        let floors = Floors::parse(
            r#"{ "min": { "overlap.speedup": 1.15 }, "max": { "kernels.warm_allocs": 0 } }"#,
        )
        .unwrap();
        assert_eq!(floors.min, vec![("overlap.speedup".to_string(), 1.15)]);
        assert_eq!(floors.max, vec![("kernels.warm_allocs".to_string(), 0.0)]);
    }

    #[test]
    fn write_creates_named_file() {
        let dir = std::env::temp_dir().join("wp-bench-ci-test");
        let path = sample().write(&dir).unwrap();
        assert!(path.ends_with("bench_tune.json"));
        let back = Report::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.name, "tune");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
