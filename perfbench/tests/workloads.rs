//! The benchmark's own checks: inputs are a pure function of the seed,
//! and a tiny run of every workload passes its correctness gate and
//! reports every metric `BENCHMARK.json` names, in both modes.

use std::path::{Path, PathBuf};

use sit_perfbench::drive::{self, Outcome, Part};
use sit_perfbench::gen::{Inputs, Size, Workload};
use sit_perfbench::layers;
use sit_server::wire::Json;

fn frames(inputs: &Inputs) -> Vec<String> {
    let mut out: Vec<String> = inputs
        .lifecycles(0..inputs.size.sessions, 1)
        .into_iter()
        .chain(inputs.fill(&inputs.idle_pairs, 1))
        .map(|op| op.frame)
        .collect();
    out.extend(inputs.pairs.iter().map(|p| format!("{p:?}")));
    out
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for w in Workload::ALL {
        let a = Inputs::generate(w, Size::tiny(), 11);
        let b = Inputs::generate(w, Size::tiny(), 11);
        let c = Inputs::generate(w, Size::tiny(), 12);
        assert_eq!(
            frames(&a),
            frames(&b),
            "{}: same seed, same inputs",
            w.name()
        );
        assert_ne!(
            frames(&a),
            frames(&c),
            "{}: another seed, other inputs",
            w.name()
        );
    }
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

fn assert_reports(out: &Outcome, names: &[String], what: &str) {
    assert!(out.correct, "{what}: {:?}", out.failures);
    assert_eq!(out.failed, 0, "{what}: error rate must be 0");
    assert!(out.attempted > 0);
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, names, "{what}: metrics as declared, in order");
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn tiny_runs_pass_and_report_every_end_to_end_metric() {
    let names = declared("end_to_end");
    for w in Workload::ALL {
        let inputs = Inputs::generate(w, Size::tiny(), 3);
        let parts: Vec<Part> = (0..2)
            .map(|i| drive::run(&inputs, &scratch(&format!("e2e-{}-{i}", w.name()))).expect("run"))
            .collect();
        assert_eq!(
            parts[0].digest,
            parts[1].digest,
            "{}: same responses",
            w.name()
        );
        assert_reports(&drive::combine(&inputs, &parts), &names, w.name());
    }
}

#[test]
fn a_part_line_carries_the_whole_part_to_the_parent() {
    let inputs = Inputs::generate(Workload::PaperSessions, Size::tiny(), 4);
    let part = drive::run(&inputs, &scratch("part-line")).expect("run");
    assert!(!part.best_ns.is_empty());
    assert_eq!(Part::from_line(&part.to_line()), Some(part));
}

#[test]
fn combining_keeps_each_requests_lowest_latency() {
    let inputs = Inputs::generate(Workload::PaperSessions, Size::tiny(), 4);
    let part = drive::run(&inputs, &scratch("combine")).expect("run");
    let mut faster = part.clone();
    faster.best_ns[0] = 1;
    faster.setup_s = part.setup_s / 2.0;
    let slower = Part {
        best_ns: part.best_ns.iter().map(|ns| ns * 2).collect(),
        ..part.clone()
    };
    let alone = drive::combine(&inputs, std::slice::from_ref(&part));
    let both = drive::combine(&inputs, &[slower, faster]);
    let value = |out: &Outcome, name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric")
            .value
    };
    assert!(value(&both, "requests_per_s") > value(&alone, "requests_per_s"));
    assert_eq!(value(&both, "setup_s"), part.setup_s / 2.0);
    assert_eq!(value(&both, "save_p50_us"), value(&alone, "save_p50_us"));
    let mut other = part.clone();
    other.digest ^= 1;
    assert!(
        !drive::combine(&inputs, &[part, other]).correct,
        "digests must agree"
    );
}

#[test]
fn tiny_traced_runs_report_every_layer_metric_with_exact_counts() {
    let names = declared("per_layer");
    for w in Workload::ALL {
        let inputs = Inputs::generate(w, Size::tiny(), 3);
        let dir = scratch(&format!("layers-{}", w.name()));
        // Each replay on a fresh thread, as in a fresh process: thread-
        // local buffers allocate on first use only.
        let replay = || {
            std::thread::scope(|s| s.spawn(|| layers::run(&inputs, &dir)).join())
                .expect("replay thread")
                .expect("run")
        };
        let first = replay();
        assert_reports(&first, &names, w.name());
        let again = replay();
        for (a, b) in first.metrics.iter().zip(&again.metrics) {
            if !matches!(a.unit, "count" | "bytes") {
                continue;
            }
            if a.name == "service.allocs_per_request" {
                // The service's hash maps are randomly seeded, and where
                // a key lands decides whether a removal frees its slot
                // for reuse: now and then one more table growth.
                let drift = (a.value - b.value).abs() / a.value;
                assert!(
                    drift < 1e-3,
                    "{}: {} {} vs {}",
                    w.name(),
                    a.name,
                    a.value,
                    b.value
                );
            } else {
                assert_eq!(a.value, b.value, "{}: {} repeats exactly", w.name(), a.name);
            }
        }
    }
}
