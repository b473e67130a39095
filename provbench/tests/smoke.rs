//! One-pass smoke runs of every workload through the command line, in
//! both modes, checked against the metric lists in `BENCHMARK.json`.

use std::process::Command;

use minijson::Value;

fn provbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_provbench"))
        .args(args)
        .output()
        .expect("provbench runs")
}

/// A run with the shortest measuring time, which still times one sample
/// of `workload`; returns the result object.
fn one_pass(workload: &str, seed: &str, trace: &str) -> Value {
    let out = provbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.01",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    minijson::from_str(last).expect("the last line is JSON")
}

/// Metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc: Value = minijson::from_str(&text).expect("BENCHMARK.json parses");
    match &doc[key] {
        Value::Array(items) => items
            .iter()
            .map(|m| m["name"].as_str().expect("a name").to_owned())
            .collect(),
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn metric(doc: &Value, name: &str) -> f64 {
    doc["metrics"][name]["value"]
        .as_f64()
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn check_result(doc: &Value, names: &[String]) {
    assert_eq!(doc["correct"].as_bool(), Some(true));
    assert_eq!(doc["failed"].as_f64(), Some(0.0));
    assert!(doc["attempted"].as_f64().unwrap() >= 1.0);
    let mut printed: Vec<&String> = doc["metrics"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k)
        .collect();
    let mut names_sorted: Vec<&String> = names.iter().collect();
    printed.sort();
    names_sorted.sort();
    assert_eq!(printed, names_sorted);
    for name in names {
        assert!(metric(doc, name).is_finite(), "{name}");
    }
}

#[test]
fn every_workload_runs_a_checked_pass_in_both_modes() {
    let (e2e, layers) = (listed("end_to_end"), listed("per_layer"));
    for workload in ["table2_quick", "drive_quick"] {
        let doc = one_pass(workload, "3", "0");
        check_result(&doc, &e2e);
        for name in ["wall_s", "setup_s", "peak_rss_mb"] {
            assert!(metric(&doc, name) > 0.0, "{workload} {name}");
        }
        assert_eq!(metric(&doc, "ok_ratio"), 1.0);

        let doc = one_pass(workload, "3", "1");
        check_result(&doc, &layers);
        // Span invariants: stage ≤ row ≤ threads × wall, and the
        // drive's waiting time is what its spans leave of the wall.
        for name in ["unattributed_ms", "par.idle_ms", "elastic.wait_ms"] {
            assert!(metric(&doc, name) >= 0.0, "{workload} {name}");
        }
        if workload == "drive_quick" {
            assert!(metric(&doc, "elastic.cell_ms") > 0.0);
            assert!(metric(&doc, "elastic.workers_spawned") >= 1.0);
        } else {
            assert!(metric(&doc, "graph.trial_elements") > 0.0);
        }
        assert!(metric(&doc, "aspsolver.memo_lookups") > 0.0);
        assert!(metric(&doc, "process.cpu_s") > 0.0);
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let a = one_pass("table2_quick", "11", "1");
    let b = one_pass("table2_quick", "11", "1");
    for name in ["graph.trial_elements", "aspsolver.memo_lookups"] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
}

#[test]
fn bad_command_lines_exit_2_without_a_result() {
    for args in [
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
            "table2_quick",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "table2_quick",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
    ] {
        let out = provbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
