//! A short run of every workload through the built benchmark binary: it
//! must emit every metric `BENCHMARK.json` names, with its unit, pass
//! every check, and produce a different fingerprint for another seed.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::process::Command;
use std::sync::Mutex;

const WORKLOADS: [&str; 4] = [
    "metro_batch",
    "city_stream",
    "city_certified",
    "metro_federated",
];
/// Measured slots per episode in these short runs.
const SLOTS: &str = "6";

/// The runs share a machine; one at a time keeps memory small.
static SERIAL: Mutex<()> = Mutex::new(());

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().expect("quoted name");
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("quoted unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// Runs the benchmark and returns its standard output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let trace_out = format!("{}/{workload}-{seed}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--slots", SLOTS, "--trace-out", &trace_out])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {stdout}",
        out.status
    );
    stdout
}

/// Checks the result line: correct, and every declared metric present
/// with a finite value and its unit.
fn check_result(workload: &str, stdout: &str, declared: &[(String, String)]) {
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: checks failed:\n{stdout}"
    );
    for (name, unit) in declared {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let rest = &last[at + key.len()..];
        let (value, rest) = rest.split_once(", ").expect("value then unit");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{workload}: {name} = {value:?} is not a number"));
        assert!(value.is_finite(), "{workload}: {name} is not finite");
        assert!(
            rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{workload}: {name} has the wrong unit: {rest}"
        );
    }
    let count = last.matches("{\"value\": ").count();
    assert_eq!(
        count,
        declared.len(),
        "{workload}: undeclared metrics emitted"
    );
}

fn fingerprint(stdout: &str) -> String {
    let line = stdout
        .lines()
        .find(|l| l.contains(" untraced: fingerprint="))
        .expect("a fingerprint line");
    line.split("fingerprint=").nth(1).expect("value")[..16].to_string()
}

#[test]
fn every_workload_emits_its_metrics_and_honours_the_seed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        let first = run(workload, 1, false);
        check_result(workload, &first, &end_to_end);
        let second = run(workload, 2, false);
        check_result(workload, &second, &end_to_end);
        assert_ne!(
            fingerprint(&first),
            fingerprint(&second),
            "{workload}: seed 2 replayed seed 1's slots"
        );
        let traced = run(workload, 1, true);
        check_result(workload, &traced, &per_layer);
        assert_eq!(
            fingerprint(&traced),
            fingerprint(&first),
            "{workload}: the same seed changed its fingerprint"
        );
    }
}

#[test]
fn rejects_bad_arguments_without_a_result() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
