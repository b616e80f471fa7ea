//! Smoke test of the benchmark itself: every workload, untraced and traced,
//! at `--smoke` size. Each run must pass its correctness gates and emit
//! exactly the metrics `BENCHMARK.json` declares for its mode, each a
//! finite number with the declared unit.

use std::process::Command;

/// A parsed JSON value (just enough of JSON for the result line and
/// `BENCHMARK.json`).
#[derive(Debug)]
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
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
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
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",}] \n".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    b"null" => Json::Null,
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    num => Json::Num(
                        std::str::from_utf8(num)
                            .ok()
                            .and_then(|n| n.parse().ok())
                            .unwrap_or_else(|| panic!("bad token at {start}")),
                    ),
                }
            }
        }
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    match Parser::parse(&text).get(section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn run(workload: &str, trace: u8) -> (i32, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run perfbench");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn check(workload: &str, trace: u8) {
    let (code, stdout) = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    assert_eq!(code, 0, "{workload} trace {trace} failed:\n{stdout}");
    let result = Parser::parse(last);
    assert!(matches!(result.get("correct"), Json::Bool(true)), "{last}");
    assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
    assert!(matches!(result.get("failed"), Json::Num(n) if *n == 0.0));
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object: {last}");
    };
    let section = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    let want = declared(section);
    let got: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
    let want_names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
    assert_eq!(got, want_names, "{workload} trace {trace} metric names");
    for ((name, unit), (_, m)) in want.iter().zip(metrics) {
        assert_eq!(m.get("unit").str(), unit, "{name} unit");
        let Json::Num(v) = m.get("value") else {
            panic!("{name} is not a number: {m:?}");
        };
        assert!(v.is_finite(), "{name} = {v}");
        if trace == 0 {
            assert!(
                *v > 0.0,
                "end-to-end metric {name} must not be 0 on {workload}"
            );
        }
    }
}

#[test]
fn train_amazon_smoke() {
    check("train-amazon", 0);
    check("train-amazon", 1);
}

#[test]
fn train_kuaishou_smoke() {
    check("train-kuaishou", 0);
    check("train-kuaishou", 1);
}

#[test]
fn walk_sharded_smoke() {
    check("walk-sharded", 0);
    check("walk-sharded", 1);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "walk-sharded",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
        vec![
            "--workload",
            "walk-sharded",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
