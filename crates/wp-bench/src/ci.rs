//! CI plumbing for the bench binaries: machine-readable reports, the
//! perf-regression floor check, and one-line failure exits.
//!
//! The workspace is built offline with no JSON crate vendored, so this
//! module carries a deliberately small hand-rolled JSON subset: enough to
//! write flat bench reports (`{"name": ..., "metrics": {...}, "notes":
//! {...}}`) and to read them plus the checked-in floors file back. It is
//! not a general JSON library — no arrays, no nested depth beyond what the
//! report schema uses — and tests pin the exact wire format.
//!
//! The regression contract: every bench binary writes
//! `results/bench_<name>.json`; `ci/bench_floors.json` holds `min` and
//! `max` bounds keyed `"<name>.<metric>"`; the `gate` binary re-reads both
//! sides and fails CI with a readable per-metric diff when any bound is
//! violated or any floored metric is missing.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

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

    /// Parse a report written by [`Self::to_json`].
    pub fn parse(json: &str) -> Result<Report, String> {
        let mut report = Report::default();
        Parser::document(json, |p, key| {
            match key {
                "name" => report.name = p.string()?,
                "metrics" => report.metrics.extend(p.object_of_numbers()?),
                "notes" => report.notes.extend(p.object_of_strings()?),
                other => return Err(format!("unknown report key {other:?}")),
            }
            Ok(())
        })?;
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
/// readable: integers print bare, everything else via `{:?}` (shortest
/// representation that re-parses to the same f64).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Minimal recursive-descent parser over the report/floors subset.
struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    /// Parse `json` as one top-level object, handing each member's key to
    /// `member` to parse its value. Anything but whitespace after the
    /// closing brace is an error.
    fn document(
        json: &str,
        mut member: impl FnMut(&mut Parser, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut p = Parser::new(json);
        p.expect('{')?;
        loop {
            let key = p.string()?;
            p.expect(':')?;
            member(&mut p, &key)?;
            if !p.comma_or_close('}')? {
                break;
            }
        }
        p.skip_ws();
        match p.src.get(p.pos) {
            None => Ok(()),
            Some(_) => Err(format!("trailing input at byte {}", p.pos)),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.src
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        let got = self.peek()?;
        if got != c as u8 {
            return Err(format!(
                "expected {c:?} at byte {}, found {:?}",
                self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// After a member: consume `,` (returning true) or `close` (false).
    fn comma_or_close(&mut self, close: char) -> Result<bool, String> {
        let got = self.peek()?;
        self.pos += 1;
        match got {
            b',' => Ok(true),
            c if c == close as u8 => Ok(false),
            c => Err(format!("expected ',' or {close:?}, found {:?}", c as char)),
        }
    }

    /// A string literal. Bytes are collected raw and decoded as UTF-8 once
    /// at the closing quote, so multi-byte characters survive.
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = Vec::new();
        loop {
            let c = *self.src.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| format!("bad UTF-8: {e}")),
                b'\\' => {
                    let e = *self.src.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match e {
                        b'"' => b'"',
                        b'\\' => b'\\',
                        b'n' => b'\n',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    /// `{ "k": 1.5, ... }` — possibly empty.
    fn object_of_numbers(&mut self) -> Result<Vec<(String, f64)>, String> {
        self.object(|p| p.number())
    }

    /// `{ "k": "v", ... }` — possibly empty.
    fn object_of_strings(&mut self) -> Result<Vec<(String, String)>, String> {
        self.object(|p| p.string())
    }

    fn object<T>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<(String, T)>, String> {
        self.expect('{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            let k = self.string()?;
            self.expect(':')?;
            let v = value(self)?;
            out.push((k, v));
            if !self.comma_or_close('}')? {
                return Ok(out);
            }
        }
    }
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
    /// Parse `ci/bench_floors.json`.
    pub fn parse(json: &str) -> Result<Floors, String> {
        let mut floors = Floors::default();
        Parser::document(json, |p, key| {
            match key {
                "min" => floors.min = p.object_of_numbers()?,
                "max" => floors.max = p.object_of_numbers()?,
                other => return Err(format!("unknown floors key {other:?}")),
            }
            Ok(())
        })?;
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
        assert_eq!(Report::parse(&r.to_json()).unwrap(), r);
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
