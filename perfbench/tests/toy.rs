//! Runs every workload at toy scale, untraced and traced, and checks that
//! each metric `BENCHMARK.json` names is emitted with its unit and that no
//! operation failed.

use std::collections::BTreeMap;
use std::process::Command;

use dimboost_perfbench::output::result_json;
use dimboost_perfbench::run::{run, RunOptions};
use dimboost_perfbench::workload::{Workload, WORKLOADS};

/// Minimal JSON value for reading `BENCHMARK.json` and the result line.
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
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
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
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?}", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?}", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// `name → unit` for one metric list of `BENCHMARK.json`.
fn declared(bench: &Json, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// `w` with a twentieth of its rows and features and at most 2 trees.
fn toy(w: Workload) -> Workload {
    Workload {
        rows: w.rows / 20,
        features: (w.features / 20).max(8),
        trees: w.trees.min(2),
        auc_floor: 0.5,
        ..w
    }
}

/// Runs `w` once and returns the parsed result line.
fn result(w: Workload, trace: bool) -> Json {
    let outcome = run(&RunOptions {
        workload: w,
        seed: 7,
        seconds: 0.01,
        trace,
        spans_out: None,
    })
    .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", w.name));
    assert!(
        outcome.failures.is_empty(),
        "{}: {:?}",
        w.name,
        outcome.failures
    );
    Parser::parse(&result_json(&outcome))
}

#[test]
fn every_workload_emits_every_declared_metric_at_toy_scale() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        names, ours,
        "BENCHMARK.json and the code list different workloads"
    );
    for w in WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = result(toy(w), trace);
            assert_eq!(line.get("correct"), &Json::Bool(true), "{}", w.name);
            assert_eq!(
                line.get("failed"),
                &Json::Num(0.0),
                "{}: error rate must be 0",
                w.name
            );
            let Json::Obj(metrics) = line.get("metrics") else {
                panic!("metrics must be an object")
            };
            let emitted: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(
                        matches!(v.get("value"), Json::Num(_)),
                        "{k} is not a number"
                    );
                    (k.clone(), v.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(emitted, declared(&bench, list), "{} {list}", w.name);
            if !trace {
                assert_eq!(metrics["success_rate"].get("value"), &Json::Num(1.0));
            } else {
                let matched = metrics["replay.tree0_match_ratio"].get("value");
                assert_eq!(matched, &Json::Num(1.0), "{}: replay diverged", w.name);
            }
        }
    }
}

/// No benchmark workload runs the sparse wire, but the replay mirrors it:
/// its tree 0 must still equal the trainer's.
#[test]
fn replay_matches_training_through_the_sparse_wire() {
    let mut w = toy(WORKLOADS[0]);
    w.opts.sparse_wire = true;
    let line = result(w, true);
    let matched = line.get("metrics").get("replay.tree0_match_ratio");
    assert_eq!(matched.get("value"), &Json::Num(1.0), "replay diverged");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_dimboost-perfbench");
    for args in [
        &[][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "tall-ext",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("run benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
