//! Tiny-shape smoke of every workload in both modes: the run must be
//! correct, and the metric names and units it prints must be exactly those
//! `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                let end = start
                    + self.s[start..]
                        .iter()
                        .position(|&c| c == b'"')
                        .expect("closing quote");
                self.i = end + 1;
                Json::Str(String::from_utf8(self.s[start..end].to_vec()).expect("utf-8"))
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("utf-8") {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    n => Json::Num(n.parse().unwrap_or_else(|e| panic!("number {n}: {e}"))),
                }
            }
        }
    }
}

fn parse(s: &str) -> Json {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, s.len(), "trailing input");
    v
}

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(bench: &Json, key: &str) -> BTreeMap<String, String> {
    let Json::Arr(list) = bench.get(key) else {
        panic!("{key} is not a list")
    };
    list.iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"));
    let Json::Arr(workloads) = bench.get("workloads") else {
        panic!("workloads")
    };
    assert_eq!(workloads.len(), 3);
    for w in workloads {
        let name = w.get("name").str();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_trainbench"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--tiny",
                ])
                .output()
                .expect("run trainbench");
            assert!(out.status.success(), "{name} trace {trace}: {out:?}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
            let result = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name} trace {trace}: {stdout}"
            );
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics")
            };
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(
                        matches!(v.get("value"), Json::Num(_)),
                        "{k} has no numeric value"
                    );
                    (k.clone(), v.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(printed, declared(&bench, key), "{name} trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "long_ctx", "--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trainbench"))
            .args(args)
            .output()
            .expect("run trainbench");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
