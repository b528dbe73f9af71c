//! Benchmark self-tests: seeded determinism, and that what a run prints
//! is exactly what `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use perfbench::gen::{LoopKind, Plan, WorkloadKind};
use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::run::{run, RunConfig};
use perfbench::verify::expected;

/// Minimal JSON value, enough to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
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
            self.s[self.i], c,
            "expected '{}' at byte {}",
            c as char, self.i
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
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    m.insert(k, self.value());
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
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(
                        self.s[self.i], b'\\',
                        "escapes are not used in BENCHMARK.json"
                    );
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
    v
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object"),
    }
}

fn str_of(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn arr_of(v: &Json) -> &[Json] {
    match v {
        Json::Arr(a) => a,
        _ => panic!("not an array: {v:?}"),
    }
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = package_dir().join("..").join("BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
}

/// `(name, unit, better)` of one `BENCHMARK.json` metric list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String, String)> {
    arr_of(field(doc, list))
        .iter()
        .map(|m| {
            (
                str_of(field(m, "name")).to_string(),
                str_of(field(m, "unit")).to_string(),
                str_of(field(m, "better")).to_string(),
            )
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            (d.name.to_string(), d.unit.to_string(), better.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_printed_tables_and_workloads() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
    // Every declared workload exists, in `WorkloadKind::ALL` order;
    // `stream-narrow` runs on request but is not in the declared set.
    let names: Vec<&str> = arr_of(field(&doc, "workloads"))
        .iter()
        .map(|w| str_of(field(w, "name")))
        .collect();
    let ours: Vec<&str> = WorkloadKind::ALL
        .iter()
        .map(|w| w.name())
        .filter(|n| names.contains(n))
        .collect();
    assert_eq!(names, ours);
    assert!(names.len() >= 2);
    // The open-loop rate quoted in the workload's reason is the one used.
    let mix = arr_of(field(&doc, "workloads"))
        .iter()
        .find(|w| str_of(field(w, "name")) == "budget-mix")
        .unwrap();
    let LoopKind::Open { rate } = WorkloadKind::BudgetMix.loop_kind() else {
        panic!("budget-mix is the open-loop workload")
    };
    assert!(str_of(field(mix, "why")).contains(&format!("at {rate} jobs/s")));
}

#[test]
fn readme_maps_every_per_layer_metric() {
    let readme = std::fs::read_to_string(package_dir().join("README.md")).unwrap();
    for d in PER_LAYER {
        // Families are written once with their suffixes in braces.
        let family = d.name.rsplit_once('.').map_or(d.name, |(head, _)| head);
        assert!(
            readme.contains(&format!("`{}`", d.name)) || readme.contains(&format!("`{family}.{{")),
            "README.md does not map {}",
            d.name
        );
    }
}

#[test]
fn same_seed_gives_identical_inputs_and_expected_results() {
    for kind in WorkloadKind::ALL {
        let a = Plan::generate(kind, 7);
        let b = Plan::generate(kind, 7);
        assert_eq!(a, b, "{} frames or job order differ", kind.name());
        assert_eq!(a.arrivals(8.0, 3.0), b.arrivals(8.0, 3.0));
        assert_eq!(a.arrivals(8.0, 3.0).len(), 24);
        let ea = expected(&a).unwrap();
        let eb = expected(&b).unwrap();
        assert_eq!(ea, eb, "{} expected digests differ", kind.name());
    }
}

#[test]
fn different_seed_gives_different_frames() {
    for kind in WorkloadKind::ALL {
        let a = Plan::generate(kind, 7);
        let b = Plan::generate(kind, 8);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.class, y.class);
            assert_ne!(x.req.frame.pixels, y.req.frame.pixels, "{}", kind.name());
        }
        assert_ne!(a.arrivals(8.0, 3.0), b.arrivals(8.0, 3.0));
    }
}

fn tiny(kind: WorkloadKind, trace: bool, out: &Path) -> Vec<String> {
    let r = run(&RunConfig {
        kind,
        seed: 3,
        seconds: 0.6,
        trace,
        out_dir: out.to_path_buf(),
    })
    .unwrap_or_else(|e| panic!("{} run failed: {e}", kind.name()));
    assert!(r.correct, "{} run did not verify", kind.name());
    assert!(r.attempted >= 1);
    assert_eq!(r.failed, 0);
    for (name, value, _) in &r.metrics {
        assert!(value.is_finite(), "{name} is not finite");
    }
    r.metrics.into_iter().map(|(n, _, _)| n).collect()
}

#[test]
fn tiny_runs_print_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let e2e: Vec<String> = declared(&doc, "end_to_end")
        .into_iter()
        .map(|m| m.0)
        .collect();
    let layers: Vec<String> = declared(&doc, "per_layer")
        .into_iter()
        .map(|m| m.0)
        .collect();
    // Relative and short: the directory holds the daemon's socket.
    let out = Path::new("out/selftest");
    for kind in WorkloadKind::ALL {
        assert_eq!(tiny(kind, false, out), e2e, "{} end-to-end", kind.name());
        assert_eq!(tiny(kind, true, out), layers, "{} per-layer", kind.name());
        let trace = out.join(format!("trace-{}-seed3.json", kind.name()));
        let text = std::fs::read_to_string(&trace).expect("traced run writes its spans");
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"name\":\"client.job\""));
        assert!(text.contains("\"name\":\"arch.process_frame\""));
    }
}
