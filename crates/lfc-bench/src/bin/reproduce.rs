//! Regenerates the paper's evaluation figures, and runs the combined
//! fault campaign against the sharded ledger.
//!
//! ```text
//! reproduce fig2            # queue/stack  (paper Figure 2)
//! reproduce fig3            # queue/queue  (paper Figure 3)
//! reproduce fig4            # stack/stack  (paper Figure 4)
//! reproduce all
//! reproduce fig2 --backoff  # §6–§7 "with backoff" variant
//! reproduce chaos --label nightly [--smoke] [--duration-ms N] [--out FILE.json]
//! ```
//!
//! The repo's benchmark (hot-path costs, closed-loop throughput and
//! latency) is the separate `benchmark/` package.
//!
//! Options: `--ops N` (total operations, default 1,000,000), `--trials K`
//! (default 10; paper uses 5,000,000/50), `--threads 1,2,4,8,16`, `--csv`.
//!
//! Each figure has three panels (operation mixes): insert/remove only, move
//! only, and both — for lock-free vs blocking at high and low contention.
//! The printed value is the total synchronization time in milliseconds
//! (wall time minus local work), mean ± standard deviation over the trials,
//! exactly the quantity the paper plots.

use lfc_bench::json::Json;
use lfc_bench::stats::{mean, std_dev};
use lfc_bench::{run_config, Contention, Impl, Mix, Pair, RunCfg};

const USAGE: &str = "usage: reproduce <fig2|fig3|fig4|all> [--backoff] [--ops N] [--trials K] [--threads 1,2,..] [--csv]
       reproduce chaos [--label NAME] [--smoke] [--duration-ms N] [--workers N] [--out FILE.json]";

/// Print `msg` and the usage line, then exit 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parse `args[i]`, the value of `flag`; a missing or malformed value
/// exits through [`usage`].
fn value<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    match args.get(i).map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => usage(&format!("{flag}: missing or malformed value")),
    }
}

struct Options {
    figures: Vec<(&'static str, Pair)>,
    total_ops: usize,
    trials: usize,
    threads: Vec<usize>,
    backoff: bool,
    csv: bool,
}

fn parse_args(args: &[String]) -> Options {
    let mut figures = Vec::new();
    let mut total_ops = 1_000_000;
    let mut trials = 10;
    let mut threads = vec![1, 2, 4, 8, 16];
    let mut backoff = false;
    let mut csv = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "fig2" => figures.push(("Figure 2 (queue/stack)", Pair::QueueStack)),
            "fig3" => figures.push(("Figure 3 (queue/queue)", Pair::QueueQueue)),
            "fig4" => figures.push(("Figure 4 (stack/stack)", Pair::StackStack)),
            "all" => {
                figures.push(("Figure 2 (queue/stack)", Pair::QueueStack));
                figures.push(("Figure 3 (queue/queue)", Pair::QueueQueue));
                figures.push(("Figure 4 (stack/stack)", Pair::StackStack));
            }
            "--backoff" => backoff = true,
            "--csv" => csv = true,
            "--ops" => {
                i += 1;
                total_ops = value(args, i, "--ops");
            }
            "--trials" => {
                i += 1;
                trials = value(args, i, "--trials");
            }
            "--threads" => {
                i += 1;
                threads = value::<String>(args, i, "--threads")
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage("--threads a,b,c")))
                    .collect();
            }
            other => usage(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if figures.is_empty() {
        usage("no figure selected");
    }
    Options {
        figures,
        total_ops,
        trials,
        threads,
        backoff,
        csv,
    }
}

/// `reproduce chaos`: run the combined-adversary campaign against the
/// sharded ledger (kill + stall + OOM armed simultaneously under Zipfian
/// traffic, continuous conservation audits) and emit one JSON object —
/// the artifact the `nightly-chaos` CI job archives.
fn run_chaos_capture(args: &[String]) {
    use lfc_bench::chaos::{run_chaos, ChaosCfg};

    let mut label = "unlabeled".to_string();
    let mut out: Option<String> = None;
    let mut cfg = ChaosCfg::full();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--label" => {
                i += 1;
                label = value(args, i, "--label");
            }
            "--out" => {
                i += 1;
                out = Some(value(args, i, "--out"));
            }
            "--smoke" => cfg = ChaosCfg::smoke(),
            "--duration-ms" => {
                i += 1;
                cfg.duration_ms = value(args, i, "--duration-ms");
            }
            "--workers" => {
                i += 1;
                cfg.workers = value(args, i, "--workers");
            }
            other => usage(&format!("unknown chaos argument: {other}")),
        }
        i += 1;
    }

    eprintln!(
        "chaos campaign ({label}, seed {:#x}): {} workers / {} shards, {} ms armed, audits every {} ms...",
        cfg.seed, cfg.workers, cfg.shards, cfg.duration_ms, cfg.audit_every_ms
    );
    let r = run_chaos(&cfg);
    eprintln!(
        "chaos-summary: ops={} ok={} shed={} overloaded={} audits={}/{} abandoned={} adopted={} \
         ejections={} p99_normal={}ns p99_degraded={}ns retired_hwm={} leaked={}<= {} recovery={:?}ms final={} acceptable={}",
        r.ops,
        r.ok,
        r.shed,
        r.overloaded,
        r.audits_conserved,
        r.audits,
        r.abandoned,
        r.adopted,
        r.ejections,
        r.p99_normal_ns,
        r.p99_degraded_ns,
        r.retired_hwm,
        r.leaked_blocks,
        r.leak_bound_blocks,
        r.recovery_ms,
        r.final_state,
        r.acceptable()
    );
    let doc = Json::Obj(vec![
        ("label".into(), Json::str(label)),
        ("seed".into(), Json::int(cfg.seed)),
        ("workers".into(), Json::int(cfg.workers as u64)),
        ("shards".into(), Json::int(cfg.shards as u64)),
        ("duration_ms".into(), Json::int(cfg.duration_ms)),
        ("campaign".into(), r.to_value()),
        ("reclamation".into(), lfc_bench::diag::reclamation_json()),
    ]);
    emit(&doc, out);
    if !r.acceptable() {
        eprintln!("chaos campaign FAILED its acceptance criteria");
        std::process::exit(1);
    }
}

/// Write the document to `--out` or stdout.
fn emit(doc: &Json, out: Option<String>) {
    let text = doc.to_pretty();
    match out {
        Some(path) => {
            std::fs::write(&path, &text).expect("write output");
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("chaos") {
        run_chaos_capture(&args[1..]);
        return;
    }
    let opt = parse_args(&args);
    // The paper tunes the backoff "so as to give the best performance to the
    // blocking implementation"; these constants behave well on small hosts.
    let backoff = opt.backoff.then_some((250u32, 100_000u32));

    if opt.csv {
        println!("figure,mix,impl,contention,threads,mean_ms,sd_ms");
    }

    for (name, pair) in &opt.figures {
        if !opt.csv {
            println!(
                "\n=== {name}{} — total sync time (ms), {} ops, {} trials ===",
                if opt.backoff {
                    ", with backoff"
                } else {
                    ", no backoff"
                },
                opt.total_ops,
                opt.trials
            );
        }
        for (mix_name, mix) in [
            ("insert/remove only", Mix::OpsOnly),
            ("move only", Mix::MoveOnly),
            ("both", Mix::Both),
        ] {
            if !opt.csv {
                println!("\n--- {mix_name} ---");
                println!(
                    "{:>8} | {:>22} | {:>22} | {:>22} | {:>22}",
                    "threads", "lock-free high", "blocking high", "lock-free low", "blocking low"
                );
            }
            for &threads in &opt.threads {
                let mut cells = Vec::new();
                for contention in [Contention::High, Contention::Low] {
                    for imp in [Impl::LockFree, Impl::Blocking] {
                        let cfg = RunCfg {
                            pair: *pair,
                            mix,
                            imp,
                            contention,
                            threads,
                            total_ops: opt.total_ops,
                            backoff,
                            prefill: 1_000,
                        };
                        let xs = run_config(&cfg, opt.trials);
                        let (m, sd) = (mean(&xs), std_dev(&xs));
                        if opt.csv {
                            println!(
                                "{},{},{},{},{},{:.2},{:.2}",
                                name,
                                mix_name,
                                match imp {
                                    Impl::LockFree => "lockfree",
                                    Impl::Blocking => "blocking",
                                },
                                match contention {
                                    Contention::High => "high",
                                    Contention::Low => "low",
                                },
                                threads,
                                m,
                                sd
                            );
                        }
                        cells.push(format!("{m:>13.1} ±{sd:>6.1}"));
                    }
                }
                if !opt.csv {
                    // cells order: LF-high, BL-high, LF-low, BL-low
                    println!(
                        "{:>8} | {:>22} | {:>22} | {:>22} | {:>22}",
                        threads, cells[0], cells[1], cells[2], cells[3]
                    );
                }
            }
        }
    }
}
