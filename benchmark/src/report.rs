//! What `run` prints and writes: the metric tables, the ladder, the
//! result document with its provenance, and the one-line summary.

use crate::coord::Measured;
use crate::spec::{Metric, Spec};
use crate::workload::median;
use crate::Opts;
use lfc_bench::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// One workload's figures.
pub struct Summary {
    pub name: String,
    /// Per end-to-end metric, one value per untraced repetition.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    pub per_layer: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Not gated: `p999_ns`, sample counts, populations.
    pub context: Vec<(String, f64)>,
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// The rungs of the stacked table, bottom up.
const RUNGS: [(&str, &str); 6] = [
    (
        "structures.queue_cycle_ns",
        "structure cycle (enqueue + dequeue)",
    ),
    ("core.move_one_solo_ns", "move_one, solo"),
    ("core.move_one_pub_ns", "move_one, published (idle peer)"),
    ("core.gate_submit_ns", "BatchGate::submit(move_one)"),
    (
        "core.move_keyed_pub_ns",
        "move_keyed, published (idle peer)",
    ),
    ("ledger.migrate_ns", "Ledger::migrate"),
];

pub fn print(spec: &Spec, sums: &[Summary], traced: bool, ladder: Option<&Json>) {
    println!("== end to end: untraced runs, median of the repetitions [min .. max] ==");
    println!(
        "{:<12} {:<13} {:>15} {:<5} {:>31}",
        "workload", "metric", "median", "unit", "[min .. max]"
    );
    for s in sums {
        for (metric, values) in &s.end_to_end {
            let unit = &spec
                .end_to_end
                .iter()
                .find(|m| &m.name == metric)
                .expect("same list")
                .unit;
            let (lo, hi) = min_max(values);
            println!(
                "{:<12} {:<13} {:>15.4} {:<5} [{:>13.4} .. {:>13.4}]",
                s.name,
                metric,
                median(values),
                unit,
                lo,
                hi
            );
        }
        let failed_share = s.failed as f64 / s.attempted.max(1) as f64;
        println!(
            "{:<12} {:<13} {:>15.6} {:<5} ({} of {} ops)",
            s.name, "failed_share", failed_share, "ratio", s.failed, s.attempted
        );
        for (key, value) in &s.context {
            println!(
                "{:<12} {:<13} {:>15.4}       (context, not gated)",
                s.name, key, value
            );
        }
    }

    println!(
        "\n== per layer{} ==",
        if traced {
            ""
        } else {
            ": counter deltas only (add --trace for the ladder and the traced run)"
        }
    );
    let shown: Vec<&Metric> = spec
        .per_layer
        .iter()
        .filter(|m| sums.iter().any(|s| s.per_layer.contains_key(&m.name)))
        .collect();
    print!("{:<36} {:<6}", "metric", "unit");
    sums.iter().for_each(|s| print!(" {:>12}", s.name));
    println!();
    for m in shown {
        print!("{:<36} {:<6}", m.name, m.unit);
        for s in sums {
            match s.per_layer.get(&m.name) {
                Some(v) => print!(" {v:>12.4}"),
                None => print!(" {:>12}", "-"),
            }
        }
        println!();
    }

    let Some(Json::Arr(probes)) = ladder else {
        return;
    };
    let ns = |metric: &str| {
        probes
            .iter()
            .find(|p| p.get("metric") == Some(&Json::str(metric)))
            .map(|p| crate::coord::num(p, "ns_per_call"))
    };
    println!("\n== the ladder: ns per call from outside, each rung with its step up from the one below ==");
    let mut below: Option<f64> = None;
    for (metric, label) in RUNGS {
        let Some(v) = ns(metric) else { continue };
        match below {
            Some(b) => println!("{label:<38} {v:>9.1} ns  {:>+9.1}", v - b),
            None => println!("{label:<38} {v:>9.1} ns"),
        }
        below = Some(v);
    }
    // The same three regimes for one op stream: shard_local's mix priced
    // from the rungs (a refill is three dequeues and a push), against
    // what an op costs a thread inside the workload itself.
    let (Some(shard), Some(q), Some(st)) = (
        sums.iter().find(|s| s.name == "shard_local"),
        ns("structures.queue_cycle_ns"),
        ns("structures.stack_cycle_ns"),
    ) else {
        return;
    };
    let mix = |regime: &str| {
        let rung = |op: &str| ns(&format!("core.{op}_{regime}_ns")).unwrap_or(f64::NAN);
        0.5 * rung("move_one")
            + 0.25 * rung("swap")
            + 0.125 * rung("move_to_all3")
            + 0.125 * (1.5 * q + 0.5 * st)
    };
    let in_workload = shard
        .end_to_end
        .iter()
        .find(|(m, _)| m == "ops_per_s")
        .map_or(f64::NAN, |(_, v)| 2e9 / median(v));
    println!(
        "shard_local's mix per op: solo {:.0} ns < published {:.0} ns < inside the workload (2 busy threads) {:.0} ns",
        mix("solo"),
        mix("pub"),
        in_workload
    );
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken.
fn provenance(o: &Opts) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let here = env!("CARGO_MANIFEST_DIR");
    let commit = first_line("git", &["-C", here, "rev-parse", "HEAD"]);
    let dirty = match Command::new("git")
        .args(["-C", here, "status", "--porcelain"])
        .output()
    {
        Ok(out) if out.status.success() => Json::Bool(!out.stdout.is_empty()),
        _ => Json::Null,
    };
    Json::Obj(vec![
        ("seed".into(), Json::int(o.seed)),
        (
            "nproc".into(),
            Json::int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model".into(), Json::str(cpu)),
        ("rustc".into(), Json::str(first_line("rustc", &["-V"]))),
        ("git_commit".into(), Json::str(commit)),
        ("git_dirty".into(), dirty),
    ])
}

fn finite(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// The full result: provenance, configuration, and per workload the
/// end-to-end medians (untraced only) next to the per-layer figures.
pub fn result_json(
    spec: &Spec,
    o: &Opts,
    reps: usize,
    window_s: f64,
    sums: &[Summary],
    m: &Measured,
) -> Json {
    let unit = |list: &[Metric], name: &str| {
        Json::str(
            list.iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit.as_str()),
        )
    };
    let workloads = sums
        .iter()
        .map(|s| {
            let e2e = s
                .end_to_end
                .iter()
                .map(|(name, values)| {
                    let (lo, hi) = min_max(values);
                    let body = vec![
                        ("median".into(), finite(median(values))),
                        ("min".into(), finite(lo)),
                        ("max".into(), finite(hi)),
                        ("unit".into(), unit(&spec.end_to_end, name)),
                    ];
                    (name.clone(), Json::Obj(body))
                })
                .collect();
            let layers = s
                .per_layer
                .iter()
                .map(|(name, &v)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".into(), finite(v)),
                            ("unit".into(), unit(&spec.per_layer, name)),
                        ]),
                    )
                })
                .collect();
            let runs = &m.runs[&s.name];
            let body = vec![
                ("end_to_end".into(), Json::Obj(e2e)),
                ("attempted".into(), Json::int(s.attempted)),
                ("failed".into(), Json::int(s.failed)),
                (
                    "context".into(),
                    Json::Obj(
                        s.context
                            .iter()
                            .map(|(k, v)| (k.clone(), finite(*v)))
                            .collect(),
                    ),
                ),
                ("per_layer".into(), Json::Obj(layers)),
                ("repetitions".into(), Json::Arr(runs.reps.clone())),
                ("traced".into(), runs.traced.clone().unwrap_or(Json::Null)),
            ];
            (s.name.clone(), Json::Obj(body))
        })
        .collect();
    Json::Obj(vec![
        ("provenance".into(), provenance(o)),
        ("reps".into(), Json::int(reps as u64)),
        ("window_s".into(), Json::Num(window_s)),
        ("workloads".into(), Json::Obj(workloads)),
        ("ladder".into(), m.ladder.clone().unwrap_or(Json::Null)),
    ])
}

/// `{"correct", "attempted", "failed", "metrics"}` on one line: every
/// end-to-end metric of an untraced run, every per-layer metric of a
/// traced one, each as measured with all its digits.
pub fn contract_line(spec: &Spec, s: &Summary, traced: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    if traced {
        for m in &spec.per_layer {
            let v = *s
                .per_layer
                .get(&m.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            metrics.push((m, v));
        }
    } else {
        for (m, (_, values)) in spec.end_to_end.iter().zip(&s.end_to_end) {
            metrics.push((m, median(values)));
        }
    }
    let mut body = String::new();
    for (i, (m, v)) in metrics.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!(
                "{} on {}: not measured (window too short?)",
                m.name, s.name
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        body.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        s.attempted, s.failed
    ))
}
