//! Smoke runs of every workload: each emits exactly the metrics
//! `BENCHMARK.json` declares, once each and with the declared unit, and
//! answers every query correctly.

use spair_benchmark::report::{valid_name, END_TO_END, PER_LAYER};
use spair_benchmark::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value, enough for the result line and the manifest.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => kv
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing bytes after JSON");
        v
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.b[self.i], c, "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.b[self.i] != b'"' {
            assert_ne!(self.b[self.i], b'\\', "escapes are not expected here");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.b[start..self.i - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.b.len() && !b",]} \n".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.b[start..self.i]).unwrap() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}"))),
                }
            }
        }
    }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn declared(m: &Json, key: &str) -> Vec<(String, String)> {
    match m.get(key) {
        Json::Arr(items) => items
            .iter()
            .map(|i| {
                (
                    i.get("name").str().to_string(),
                    i.get("unit").str().to_string(),
                )
            })
            .collect(),
        _ => panic!("{key} is not a list"),
    }
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_matches_the_metric_tables() {
    let m = manifest();
    assert_eq!(declared(&m, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&m, "per_layer"), table(PER_LAYER));
    let names: Vec<String> = match m.get("workloads") {
        Json::Arr(ws) => ws.iter().map(|w| w.get("name").str().to_string()).collect(),
        _ => panic!("workloads is not a list"),
    };
    assert_eq!(names, WORKLOADS);
    for (n, _) in declared(&m, "end_to_end")
        .iter()
        .chain(&declared(&m, "per_layer"))
    {
        assert!(valid_name(n), "{n}");
    }
}

/// Runs one smoke workload and returns the parsed result line and the
/// `# name = value unit` detail lines.
fn smoke(workload: &str, trace: bool) -> (Json, BTreeMap<String, f64>) {
    let spans = format!("{}/spans-{workload}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_spair-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "2",
            "--seconds",
            "0.4",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--spans", &spans])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let detail = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# "))
        .map(|l| {
            let (name, rest) = l.split_once(" = ").unwrap();
            let value = rest.split(' ').next().unwrap().parse().unwrap();
            (name.to_string(), value)
        })
        .collect();
    (Parser::parse(last), detail)
}

fn check(workload: &str, trace: bool) {
    let (result, detail) = smoke(workload, trace);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0, "{workload}");
    let want = if trace { PER_LAYER } else { END_TO_END };
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
        .collect();
    assert_eq!(
        got,
        table(want),
        "{workload}: metrics differ from the declaration"
    );
    for (name, v) in metrics {
        assert!(v.get("value").num().is_finite(), "{workload}/{name}");
    }
    for name in detail.keys() {
        assert!(valid_name(name), "{name}");
    }
    if trace {
        let frac = result
            .get("metrics")
            .get("trace.setup_span_frac")
            .get("value")
            .num();
        assert!(
            (frac - 1.0).abs() <= 0.02,
            "{workload}: set-up spans cover {frac}"
        );
    } else {
        assert!(detail["bench.reference_sessions"] >= 1.0);
    }
}

#[test]
fn anchored_smoke() {
    check("anchored", false);
    check("anchored", true);
}

#[test]
fn whole_cycle_smoke() {
    check("whole_cycle", false);
    check("whole_cycle", true);
}

#[test]
fn updates_smoke() {
    check("updates", false);
    check("updates", true);
}

#[test]
fn serve_socket_smoke() {
    check("serve_socket", false);
    check("serve_socket", true);
}

#[test]
fn unknown_workload_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_spair-benchmark"))
        .args(["--workload", "nope", "--smoke"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
