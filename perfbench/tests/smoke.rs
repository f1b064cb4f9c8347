//! The benchmark's own tests, on tiny inputs: every workload prints every
//! named metric with its unit, a seed reproduces its results exactly, and a
//! different seed changes the generated inputs.

#[allow(dead_code)]
#[path = "../src/report.rs"]
mod report;

use report::{END_TO_END, PER_LAYER};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-fp32-4096", "fused-fp16qm-adaptive", "fleet-tcp-128"];

/// Runs one tiny benchmark and returns its standard output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mcl-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

/// The value printed for `name` in the result line.
fn value(stdout: &str, name: &str) -> String {
    let line = result_line(stdout);
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    line[start..]
        .split(',')
        .next()
        .expect("a value")
        .to_string()
}

/// Lines that must repeat exactly for one seed: pass-0 counters and pose
/// digests, served-stream digests and the input digest.
fn deterministic_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.starts_with("pass 0:") || l.starts_with("served:"))
        .map(str::to_string)
        .chain(std::iter::once(input_digest(stdout)))
        .collect()
}

fn input_digest(stdout: &str) -> String {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("inputs:"))
        .expect("an inputs line");
    line[line.find("input digest").expect("an input digest")..].to_string()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let stdout = run(workload, 7, trace);
            let line = result_line(&stdout);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in catalogue {
                let entry = format!("\"{name}\": {{\"value\": ");
                let start = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {name}"));
                let end = start + line[start..].find('}').expect("a closing brace");
                assert!(
                    line[start..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
            let metrics = line.matches("\"unit\": ").count();
            assert_eq!(
                metrics,
                catalogue.len(),
                "{workload}: extra metrics in {line}"
            );
            assert!(stdout.starts_with("host: {\"nproc\":"), "no host stamp");
        }
    }
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    assert_eq!(
        json.matches("\"better\": ").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn a_seed_reproduces_accuracy_counters_and_digests() {
    for workload in WORKLOADS {
        let first = run(workload, 11, false);
        let second = run(workload, 11, false);
        for metric in ["ate_m", "success_rate"] {
            assert_eq!(
                value(&first, metric),
                value(&second, metric),
                "{workload} {metric}"
            );
        }
        assert_eq!(
            deterministic_lines(&first),
            deterministic_lines(&second),
            "{workload}"
        );
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for workload in WORKLOADS {
        assert_ne!(
            input_digest(&run(workload, 1, false)),
            input_digest(&run(workload, 2, false)),
            "{workload} ignores its seed"
        );
    }
}
