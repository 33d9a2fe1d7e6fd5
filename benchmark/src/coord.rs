//! The coordinator: runs every repetition in a fresh child process,
//! reduces repetitions to medians, and assembles the per-layer metrics
//! from the three outside sources (probe ladder, counter deltas, trace).
//! It never touches the library itself.

use crate::report::{self, Summary};
use crate::spec::Spec;
use crate::workload::median;
use crate::{out_dir, Opts};
use lfc_bench::json::Json;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Traced and gate-ratio windows of a stand-alone `run --trace`.
const TRACE_WINDOW_S: f64 = 1.0;
/// A child gets this long beyond its window before it is killed.
const CHILD_GRACE: Duration = Duration::from_secs(120);

/// Run this binary as a child; its stdout is one JSON document. The child
/// is always waited for (killed first if it overstays).
fn spawn(args: &[String], budget: Duration) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped above");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + budget;
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("waiting for a child: {e}"))?
        {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                child.kill().ok();
                child.wait().ok();
                return Err(format!(
                    "child {args:?} overstayed {budget:?} and was killed"
                ));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "the stdout reader panicked".to_string())?
        .map_err(|e| format!("reading a child's stdout: {e}"))?;
    if !status.success() {
        return Err(format!(
            "child {args:?} failed ({status}); no metrics are reported"
        ));
    }
    Json::parse(&text).map_err(|e| format!("child {args:?} printed bad JSON: {e}"))
}

fn rep(name: &str, variant: &str, seed: u64, window_s: f64, traced: bool) -> Result<Json, String> {
    let mut args: Vec<String> = [
        "child",
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--window-s",
        &window_s.to_string(),
    ]
    .map(String::from)
    .to_vec();
    if !variant.is_empty() {
        args.extend(["--variant".into(), variant.into()]);
    }
    if traced {
        let spans = out_dir().join(format!("trace-{name}.jsonl"));
        args.extend([
            "--trace".into(),
            "1".into(),
            "--spans".into(),
            spans.display().to_string(),
        ]);
    }
    spawn(&args, Duration::from_secs_f64(window_s) + CHILD_GRACE)
}

pub fn num(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Num(v)) => *v,
        // A latency percentile the sample could not support.
        Some(Json::Null) => f64::NAN,
        other => panic!("child report: {key} is {other:?}"),
    }
}

fn nested(j: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = j;
    for key in path {
        cur = cur.get(key)?;
    }
    match cur {
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

/// A descriptor pool's hit ratio (0 with no traffic).
fn hit_ratio(j: &Json, pool: &str) -> f64 {
    let count =
        |what: &str| nested(j, &["counters", &format!("{pool}_pool_{what}")]).unwrap_or(0.0);
    let (hits, misses) = (count("hits"), count("misses"));
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// What was measured for one workload.
pub struct Runs {
    /// Untraced repetitions: the only source of end-to-end numbers.
    pub reps: Vec<Json>,
    /// `pair_ops` only: the plain twin's repetitions.
    pub twin: Vec<Json>,
    pub traced: Option<Json>,
}

/// Everything one `run` measured.
pub struct Measured {
    pub runs: BTreeMap<String, Runs>,
    pub ladder: Option<Json>,
    /// `pair_move`'s stream, direct and through one `BatchGate`.
    pub gate: Option<(Json, Json)>,
}

struct Plan {
    names: Vec<String>,
    reps: usize,
    window_s: f64,
    /// Traced window, when the ladder and the traced run are wanted.
    trace_s: Option<f64>,
    twin: bool,
}

fn plan(o: &Opts, spec: &Spec) -> Result<Plan, String> {
    let names = match &o.only {
        Some(w) if spec.workloads.contains(w) => vec![w.clone()],
        Some(w) => return Err(format!("no workload {w:?}; there are {:?}", spec.workloads)),
        None => spec.workloads.clone(),
    };
    let (reps, window_s, trace_s) = match (o.seconds, o.trace) {
        // A fixed measuring budget: split it between the two runs, or
        // over the repetitions (cutting nothing else).
        (Some(s), true) => (1, s / 2.0, Some(s / 2.0)),
        (Some(s), false) => (o.reps, s / o.reps as f64, None),
        (None, trace) => (
            o.reps,
            o.window_s.unwrap_or(3.0),
            trace.then_some(TRACE_WINDOW_S),
        ),
    };
    Ok(Plan {
        names,
        reps,
        window_s,
        trace_s,
        // The twin only feeds `structures.native_overhead_ratio`; a
        // budgeted end-to-end run does not report it.
        twin: o.trace || o.seconds.is_none(),
    })
}

fn measure(o: &Opts, p: &Plan) -> Result<Measured, String> {
    let mut runs: BTreeMap<String, Runs> = p
        .names
        .iter()
        .map(|n| {
            (
                n.clone(),
                Runs {
                    reps: Vec::new(),
                    twin: Vec::new(),
                    traced: None,
                },
            )
        })
        .collect();
    // Repetitions interleave across workloads, so slow drift of the host
    // spreads over all of them instead of landing on one.
    for r in 0..p.reps {
        for name in &p.names {
            eprintln!("[rep {}/{}] {name}", r + 1, p.reps);
            let runs = runs.get_mut(name).expect("inserted above");
            runs.reps.push(rep(name, "", o.seed, p.window_s, false)?);
            if name == "pair_ops" && p.twin {
                runs.twin
                    .push(rep(name, "plain", o.seed, p.window_s, false)?);
            }
        }
    }
    let Some(trace_s) = p.trace_s else {
        return Ok(Measured {
            runs,
            ladder: None,
            gate: None,
        });
    };
    eprintln!("[ladder]");
    let spans = out_dir().join("trace-ladder.jsonl").display().to_string();
    let ladder = spawn(&["ladder".into(), "--spans".into(), spans], CHILD_GRACE)?;
    eprintln!("[gate vs direct]");
    let gate = (
        rep("pair_move", "", o.seed, TRACE_WINDOW_S, false)?,
        rep("pair_move", "gate", o.seed, TRACE_WINDOW_S, false)?,
    );
    for name in &p.names {
        eprintln!("[traced] {name}");
        runs.get_mut(name).expect("inserted above").traced =
            Some(rep(name, "", o.seed, trace_s, true)?);
    }
    Ok(Measured {
        runs,
        ladder: Some(ladder),
        gate: Some(gate),
    })
}

/// Median over repetitions of one field.
fn med(reps: &[Json], key: &str) -> f64 {
    median(&reps.iter().map(|r| num(r, key)).collect::<Vec<_>>())
}

fn med_by(reps: &[Json], f: impl Fn(&Json) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end values of one workload: per metric, one value per repetition.
pub fn end_to_end(spec: &Spec, runs: &Runs) -> Vec<(String, Vec<f64>)> {
    spec.end_to_end
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                runs.reps.iter().map(|r| num(r, &m.name)).collect(),
            )
        })
        .collect()
}

/// Per-layer values of one workload, by metric name. Ladder figures are
/// the same for every workload; an op kind the workload never issues has
/// share 0 and p50 0.
pub fn per_layer(name: &str, runs: &Runs, m: &Measured) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let reps = &runs.reps;
    let per_kop = |key: &str| {
        med_by(reps, |r| {
            1000.0 * nested(r, &["counters", key]).unwrap_or(0.0) / num(r, "ops")
        })
    };
    let fact = |key: &str| med_by(reps, |r| nested(r, &["facts", key]).unwrap_or(0.0));

    if let Some(Json::Arr(probes)) = &m.ladder {
        for p in probes {
            if let Some(Json::Str(metric)) = p.get("metric") {
                out.insert(metric.clone(), num(p, "ns_per_call"));
            }
        }
        let ticket = out.get("ledger.migrate_ns").copied().unwrap_or(0.0)
            - out.get("core.move_keyed_pub_ns").copied().unwrap_or(0.0);
        out.insert("ledger.ticket_overhead_ns".into(), ticket);
    }

    out.insert("alloc.fresh_per_kop".into(), per_kop("fresh"));
    out.insert("alloc.recycled_per_kop".into(), per_kop("recycled"));
    out.insert("alloc.outstanding_end".into(), med(reps, "outstanding_end"));
    out.insert("alloc.peak_rss_mib".into(), med(reps, "peak_rss_mib"));
    out.insert("hazard.retired_per_kop".into(), per_kop("retired"));
    out.insert("hazard.scans_per_kop".into(), per_kop("scans"));
    out.insert(
        "hazard.retired_hwm_bytes".into(),
        med(reps, "retired_hwm_bytes"),
    );
    let total = |key: &str| {
        reps.iter()
            .map(|r| nested(r, &["counters", key]).unwrap_or(0.0))
            .sum::<f64>()
    };
    out.insert("hazard.ejections".into(), total("ejections"));
    out.insert("hazard.zombies".into(), total("zombies"));
    out.insert("dcas.help_runs_per_kop".into(), per_kop("help_runs"));
    out.insert("dcas.helped_completions_per_kop".into(), per_kop("helped"));
    for pool in ["desc", "casn", "rdcss"] {
        out.insert(
            format!("dcas.{pool}_pool_hit_ratio"),
            med_by(reps, |r| hit_ratio(r, pool)),
        );
    }
    out.insert(
        "structures.elim_pairs_per_kop".into(),
        per_kop("elim_pairs"),
    );
    // The paper's claim is that this is about 1.
    let ratio = if runs.twin.is_empty() {
        0.0
    } else {
        med(&runs.twin, "ops_per_s") / med(reps, "ops_per_s")
    };
    out.insert("structures.native_overhead_ratio".into(), ratio);
    out.insert(
        "core.miss_share".into(),
        med_by(reps, |r| num(r, "misses") / num(r, "ops")),
    );
    out.insert(
        "core.min_thread_share".into(),
        med(reps, "min_thread_share"),
    );
    out.insert(
        "bench.failed_share".into(),
        med_by(reps, |r| num(r, "failed") / num(r, "ops")),
    );
    for (metric, key) in [
        ("ledger.audit_pause_ms", "audit_pause_ms"),
        ("ledger.audit_ns_per_account", "audit_ns_per_account"),
        ("ledger.shed_total", "shed_total"),
        ("ledger.overloaded_total", "overloaded_total"),
        ("ledger.transitions", "transitions"),
    ] {
        out.insert(metric.into(), fact(key));
    }

    if let Some((direct, gated)) = &m.gate {
        out.insert(
            "core.gate_vs_direct_ratio".into(),
            num(gated, "ops_per_s") / num(direct, "ops_per_s"),
        );
        let (d, b) = (
            nested(gated, &["counters", "gate_direct"]).unwrap_or(0.0),
            nested(gated, &["counters", "gate_batched"]).unwrap_or(0.0),
        );
        out.insert(
            "core.batched_share".into(),
            if d + b > 0.0 { b / (d + b) } else { 0.0 },
        );
    }

    let layer = if name == "ledger_mix" {
        "ledger"
    } else {
        "core"
    };
    for op in ["move_one", "move_keyed", "swap", "move_to_all"]
        .iter()
        .map(|op| ("core", *op))
        .chain(
            [
                "balance", "migrate", "settle", "promote", "demote", "open", "close", "tend",
            ]
            .iter()
            .map(|op| ("ledger", *op)),
        )
    {
        let kind = runs
            .traced
            .as_ref()
            .filter(|_| op.0 == layer)
            .and_then(|t| t.get("kinds"))
            .and_then(|k| k.get(op.1));
        let get = |key: &str| kind.and_then(|k| nested(k, &[key])).unwrap_or(0.0);
        out.insert(format!("{}.{}.p50_ns", op.0, op.1), get("p50_ns"));
        out.insert(format!("{}.{}.time_share", op.0, op.1), get("time_share"));
    }
    if let Some(traced) = &runs.traced {
        out.insert(
            "bench.trace_overhead_share".into(),
            1.0 - num(traced, "ops_per_s") / med(reps, "ops_per_s"),
        );
    }
    out
}

fn summarize(spec: &Spec, m: &Measured) -> Vec<Summary> {
    spec.workloads
        .iter()
        .filter_map(|name| m.runs.get(name).map(|runs| (name, runs)))
        .map(|(name, runs)| Summary {
            name: name.clone(),
            end_to_end: end_to_end(spec, runs),
            per_layer: per_layer(name, runs, m),
            attempted: runs
                .reps
                .iter()
                .chain(&runs.traced)
                .map(|r| num(r, "ops"))
                .sum::<f64>() as u64,
            failed: runs
                .reps
                .iter()
                .chain(&runs.traced)
                .map(|r| num(r, "failed"))
                .sum::<f64>() as u64,
            context: ["p999_ns", "latency_samples", "ops_per_s_mean", "misses"]
                .iter()
                .map(|k| (k.to_string(), med(&runs.reps, k)))
                .chain(["population_start", "population_end"].iter().map(|k| {
                    (
                        k.to_string(),
                        med_by(&runs.reps, |r| nested(r, &["facts", k]).unwrap_or(0.0)),
                    )
                }))
                .collect(),
        })
        .collect()
}

pub fn run(o: &Opts) -> Result<(), String> {
    let spec = Spec::load();
    let p = plan(o, &spec)?;
    let m = measure(o, &p)?;
    let sums = summarize(&spec, &m);
    report::print(&spec, &sums, p.trace_s.is_some(), m.ladder.as_ref());
    let doc = report::result_json(&spec, o, p.reps, p.window_s, &sums, &m);
    if let Some(dir) = o.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&o.out, doc.to_pretty()).map_err(|e| format!("{}: {e}", o.out.display()))?;
    if let [one] = sums.as_slice() {
        // The driver's contract: the last line of stdout is one object.
        println!(
            "{}",
            report::contract_line(&spec, one, p.trace_s.is_some())?
        );
    }
    Ok(())
}

/// Two full sets on the same build; every (metric, workload) pair must
/// agree within the metric's bound.
pub fn check_repeat(o: &Opts) -> Result<(), String> {
    let spec = Spec::load();
    let mut p = plan(o, &spec)?;
    (p.trace_s, p.twin) = (None, false);
    let first = summarize(&spec, &measure(o, &p)?);
    let second = summarize(&spec, &measure(o, &p)?);
    let mut worst = Vec::new();
    println!(
        "{:<12} {:<13} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "differ", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for ((metric, va), (_, vb)) in a.end_to_end.iter().zip(&b.end_to_end) {
            let spec_m = spec
                .end_to_end
                .iter()
                .find(|m| &m.name == metric)
                .expect("same list");
            let (ma, mb) = (median(va), median(vb));
            let (differ, bound) = (
                (mb - ma).abs() / ma,
                spec_m.bound.expect("end-to-end metrics are bounded"),
            );
            let verdict = if differ > bound { "  DISAGREE" } else { "" };
            println!(
                "{:<12} {:<13} {:>14.4} {:>14.4} {:>7.1}% {:>6.0}%{verdict}",
                a.name,
                metric,
                ma,
                mb,
                100.0 * differ,
                100.0 * bound
            );
            if differ > bound {
                worst.push(format!("{} {}", a.name, metric));
            }
        }
    }
    if worst.is_empty() {
        println!("every (metric, workload) pair agrees within its bound");
        Ok(())
    } else {
        Err(format!(
            "two sets of the same build disagree beyond the bound on: {}",
            worst.join(", ")
        ))
    }
}
