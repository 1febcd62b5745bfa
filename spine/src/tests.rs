//! Whole-run tests on the smoke-sized workloads (a few hundred graphs,
//! windows of a second or two).

use crate::report::{Report, END_TO_END};
use crate::script::render_all;
use crate::workload::{self, SetupTimes, WORKLOADS};
use crate::{layers, measure};
use prague_obs::json::{self, Value};
use std::path::PathBuf;

fn scripts(name: &str, seed: u64) -> String {
    let spec = workload::spec(name, true).expect("a known workload");
    let mut times = SetupTimes::default();
    let system = workload::build_system(&spec, seed, &mut times);
    render_all(&workload::traces(&spec, &system, seed, &mut times))
}

#[test]
fn same_seed_gives_byte_identical_frame_scripts() {
    for name in WORKLOADS {
        let first = scripts(name, 7);
        assert!(first.lines().count() > 100, "{name}: a pass has frames");
        assert_eq!(first, scripts(name, 7), "{name}: same seed, same frames");
        assert_ne!(
            first,
            scripts(name, 8),
            "{name}: another seed, other frames"
        );
    }
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

fn assert_emits(report: &Report, want: &[String], positive: bool) {
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        got, want,
        "{}: the listed metrics, each once",
        report.workload
    );
    for m in &report.metrics {
        let v = m.value.expect("a value");
        assert!(v.is_finite(), "{} {} is finite", report.workload, m.name);
        assert!(
            !positive || v > 0.0,
            "{} {} is never 0",
            report.workload,
            m.name
        );
    }
    assert_eq!(report.failed, 0, "{}: {:?}", report.workload, report.notes);
    assert!(report.attempted > 0);
}

fn smoke(name: &str, seconds: f64) {
    let spec = workload::spec(name, true).expect("a known workload");
    let end_to_end = listed("end_to_end");
    assert_eq!(end_to_end, END_TO_END);
    let report = measure::run(&spec, 11, seconds).expect("the end-to-end run");
    assert_emits(&report, &end_to_end, true);
    let scratch = std::env::temp_dir().join(format!("spine-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("a scratch directory");
    let traced = layers::run(&spec, 11, &scratch, None);
    let _ = std::fs::remove_dir_all(&scratch);
    assert_emits(
        &traced.expect("the traced run"),
        &listed("per_layer"),
        false,
    );
}

#[test]
fn smoke_mol_nothink() {
    smoke("mol_nothink", 1.5);
}

#[test]
fn smoke_mol_think() {
    // Two sessions share each connection and pause between frames, so a
    // trace needs longer to reach its modify tail.
    smoke("mol_think", 2.5);
}

#[test]
fn smoke_syn_nothink() {
    smoke("syn_nothink", 1.5);
}

#[test]
fn smoke_mol_edit() {
    smoke("mol_edit", 1.5);
}

#[test]
fn more_clients_than_cores_is_refused() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = crate::parse(
        [
            "--workload",
            "mol_nothink",
            "--seed",
            "1",
            "--smoke",
            "--clients",
            &(nproc + 1).to_string(),
        ]
        .map(String::from)
        .into_iter(),
    )
    .expect("well-formed arguments");
    let refused = crate::run(&args).expect_err("refused before anything is built");
    assert!(refused.contains("--clients"), "{refused}");
}
