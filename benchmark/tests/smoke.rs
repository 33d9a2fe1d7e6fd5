//! Drives the built binary the way the coordinator does: every workload
//! runs in its own process (so the regime assertions hold even while the
//! test harness runs these in parallel), for a 0.2 s window.

use lfc_bench::json::Json;
use std::process::Command;

const WORKLOADS: [&str; 7] = [
    "pair_ops",
    "pair_move",
    "shard_local",
    "solo_mix",
    "map_read",
    "map_churn",
    "ledger_mix",
];

fn benchmark(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the binary starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("reports are UTF-8"),
    )
}

fn num(j: &Json, path: &[&str]) -> f64 {
    match path.iter().try_fold(j, |j, key| j.get(key)) {
        Some(Json::Num(v)) => *v,
        other => panic!("{path:?} is {other:?}"),
    }
}

fn smoke(workload: &str, variant: &str) {
    let (ok, text) = benchmark(&[
        "child",
        "--workload",
        workload,
        "--variant",
        variant,
        "--window-s",
        "0.2",
        "--seed",
        "7",
    ]);
    assert!(
        ok,
        "{workload}/{variant}: the correctness gate or a regime assertion failed"
    );
    let report = Json::parse(&text).expect("a child prints one JSON document");
    assert!(
        num(&report, &["ops"]) > 1_000.0,
        "{workload}: the window measured something"
    );
    assert_eq!(num(&report, &["failed"]), 0.0, "{workload}: no op may fail");
    let (start, end) = (
        num(&report, &["facts", "population_start"]),
        num(&report, &["facts", "population_end"]),
    );
    assert!(
        (end - start).abs() <= 0.05 * start,
        "{workload}: population went {start} -> {end}"
    );
    assert_eq!(
        num(&report, &["counters", "ejections"]),
        0.0,
        "{workload}: no thread may be ejected at T <= cores"
    );
}

#[test]
fn every_workload_passes_its_gate_and_keeps_its_population() {
    WORKLOADS.iter().for_each(|w| smoke(w, ""));
}

#[test]
fn the_variants_pass_too() {
    smoke("pair_ops", "plain");
    smoke("pair_move", "gate");
}

#[test]
fn solo_mix_runs_solo_and_the_others_do_not() {
    let traffic = |workload: &str| {
        let (ok, text) = benchmark(&["child", "--workload", workload, "--window-s", "0.2"]);
        assert!(ok);
        let report = Json::parse(&text).unwrap();
        let Some(Json::Obj(counters)) = report.get("counters") else {
            panic!("no counters")
        };
        counters
            .iter()
            .filter(|(name, _)| name.contains("_pool_"))
            .map(|(_, v)| if let Json::Num(n) = v { *n } else { 0.0 })
            .sum::<f64>()
    };
    assert_eq!(
        traffic("solo_mix"),
        0.0,
        "one thread: plain CASes, no descriptor"
    );
    assert!(
        traffic("shard_local") > 0.0,
        "two threads on disjoint data still publish descriptors"
    );
}

#[test]
fn a_failed_run_prints_no_metrics() {
    let (ok, text) = benchmark(&[
        "child",
        "--workload",
        "no_such_workload",
        "--window-s",
        "0.2",
    ]);
    assert!(!ok);
    assert!(text.is_empty(), "no metrics on failure, got {text:?}");
}

#[test]
fn the_result_round_trips_and_the_last_line_is_the_summary() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-result.json");
    let (ok, text) = benchmark(&[
        "run",
        "--only",
        "solo_mix",
        "--reps",
        "1",
        "--window-s",
        "0.2",
        "--seed",
        "3",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "run failed:\n{text}");

    let written = std::fs::read_to_string(&out).expect("--out was written");
    let doc = Json::parse(&written).expect("the result is JSON");
    assert_eq!(
        Json::parse(&doc.to_pretty()).unwrap(),
        doc,
        "the result round-trips through lfc_bench::json"
    );
    assert_eq!(num(&doc, &["provenance", "seed"]), 3.0);
    assert!(
        num(
            &doc,
            &["workloads", "solo_mix", "end_to_end", "ops_per_s", "median"]
        ) > 0.0
    );

    let last = Json::parse(text.lines().last().expect("run prints"))
        .expect("the last line is one JSON object");
    let Json::Obj(keys) = &last else {
        panic!("not an object")
    };
    assert_eq!(
        keys.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        ["correct", "attempted", "failed", "metrics"]
    );
    let Some(Json::Obj(metrics)) = last.get("metrics") else {
        panic!("no metrics")
    };
    assert!(metrics.iter().any(|(k, _)| k == "setup_s"));
    assert!(
        metrics
            .iter()
            .all(|(_, m)| matches!(m.get("value"), Some(Json::Num(v)) if *v > 0.0)),
        "end-to-end metrics are never 0"
    );
}
