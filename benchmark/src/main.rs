//! The repo's benchmark: seven closed-loop workloads, a per-layer probe
//! ladder and a traced run. See `README.md` beside `Cargo.toml`.
//!
//! `run` is the one command: it coordinates child processes (one per
//! repetition, so process-global pools, the tid registry and static
//! counters start clean every time), checks every workload's outputs and
//! prints every metric by name with its unit. The coordinator itself
//! never touches the library.

mod coord;
mod hist;
mod ladder;
mod report;
mod spec;
mod stream;
mod trace;
mod workload;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: benchmark run          [options]   run the workloads, print every metric
       benchmark check-repeat [options]   run two sets back to back, compare against the bounds

options:
  --seed N             inputs are a function of the seed (default 1)
  --only W             one workload (alias: --workload W); default: all seven
  --reps N             repetitions per workload, each in a fresh process (default 5)
  --window-s S         measured window per repetition (default 3)
  --seconds S          total measured time per workload instead: S/reps per window,
                       or S/2 untraced + S/2 traced with --trace
  --trace [0|1]        add the probe ladder and a traced run (per-layer metrics)
  --out FILE           write the full result as JSON (default benchmark/out/result.json)";

/// Where span files and the result go unless told otherwise.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

pub struct Opts {
    pub seed: u64,
    pub only: Option<String>,
    pub reps: usize,
    pub window_s: Option<f64>,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub out: PathBuf,
    // Child-only.
    variant: String,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        only: None,
        reps: 5,
        window_s: None,
        seconds: None,
        trace: false,
        out: out_dir().join("result.json"),
        variant: String::new(),
        spans: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // Bare, or followed by 0/1.
            o.trace = match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    false
                }
                Some("1") => {
                    it.next();
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--seed" => o.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--only" | "--workload" => o.only = Some(value.clone()),
            "--reps" => {
                o.reps = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("a count of at least 1"))?
            }
            "--window-s" | "--seconds" => {
                let s: f64 = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds in (0, 600]"))?;
                if flag == "--seconds" {
                    o.seconds = Some(s)
                } else {
                    o.window_s = Some(s)
                }
            }
            "--out" => o.out = PathBuf::from(value),
            "--variant" => o.variant = value.clone(),
            "--spans" => o.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    Ok(o)
}

/// One repetition of one workload, in this process. Prints the report as
/// JSON; a correctness or regime violation prints no metrics and exits 1.
fn child(o: &Opts, born: Instant) -> Result<(), String> {
    let name = o.only.as_deref().ok_or("child needs --workload")?;
    let cfg = workload::RunCfg {
        seed: o.seed,
        window: Duration::from_secs_f64(o.window_s.unwrap_or(1.0)),
        trace: o.trace,
    };
    let report =
        workloads::run_named(name, &o.variant, &cfg, born).map_err(|e| format!("{name}: {e}"))?;
    if let Some(path) = &o.spans {
        trace::write_workload(path, name, &report)?;
    }
    print!("{}", report.to_json(name, &o.variant, o.seed).to_pretty());
    Ok(())
}

fn ladder_child(o: &Opts) -> Result<(), String> {
    let probes = ladder::run().map_err(|e| format!("ladder: {e}"))?;
    if let Some(path) = &o.spans {
        trace::write_ladder(path, &probes)?;
    }
    print!("{}", ladder::to_json(&probes).to_pretty());
    Ok(())
}

fn main() {
    let born = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let done = parse(rest).and_then(|o| match cmd.as_str() {
        "run" => coord::run(&o),
        "check-repeat" => coord::check_repeat(&o),
        "child" => child(&o, born),
        "ladder" => ladder_child(&o),
        _ => Err(format!("unknown command {cmd}\n{USAGE}")),
    });
    // Exit without running destructors: a quarter-million-node map takes
    // longer to drop than is worth waiting for.
    match done {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}
