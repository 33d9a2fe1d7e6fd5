//! A minimal, dependency-free benchmark harness, used by the
//! `stamped_ablation` bench target (the repo's benchmark is `benchmark/`).
//!
//! Methodology: a sample times a batch of `B` iterations, where `B` is
//! calibrated so one batch takes roughly [`TARGET_SAMPLE`]; the reported
//! figure is the **median** ns/op over [`SAMPLES`] batches (median, not
//! mean, so a stray scheduler preemption cannot drag the figure).

use std::time::{Duration, Instant};

/// Target wall time per sample batch.
pub const TARGET_SAMPLE: Duration = Duration::from_millis(40);
/// Samples per benchmark.
pub const SAMPLES: usize = 15;
/// Warmup time before calibration.
pub const WARMUP: Duration = Duration::from_millis(200);

/// One benchmark result.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark id, e.g. `"stack_normal_ops/stamped_push_pop"`.
    pub name: String,
    /// Median nanoseconds per operation.
    pub median_ns: f64,
    /// Minimum over samples (closest to the true cost).
    pub min_ns: f64,
    /// Maximum over samples.
    pub max_ns: f64,
}

fn summarize(name: &str, mut ns: Vec<f64>) -> Measurement {
    ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = if ns.len() % 2 == 1 {
        ns[ns.len() / 2]
    } else {
        (ns[ns.len() / 2 - 1] + ns[ns.len() / 2]) / 2.0
    };
    Measurement {
        name: name.to_string(),
        median_ns: median,
        min_ns: *ns.first().unwrap(),
        max_ns: *ns.last().unwrap(),
    }
}

/// Measure a closure that performs **one** operation per call.
pub fn bench(name: &str, mut op: impl FnMut()) -> Measurement {
    // Warmup.
    let start = Instant::now();
    while start.elapsed() < WARMUP {
        op();
    }
    // Calibrate batch size.
    let mut batch = 16u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        let e = t.elapsed();
        if e >= TARGET_SAMPLE / 4 || batch >= 1 << 28 {
            if e < TARGET_SAMPLE / 2 {
                batch = batch.saturating_mul(2);
            }
            break;
        }
        batch *= 4;
    }
    // Sample.
    let mut ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    summarize(name, ns)
}

/// Measure with a custom timing function: `run(iters)` performs `iters`
/// operations and returns only the time that should count (for benches that
/// set up threads around the timed region).
pub fn bench_custom(name: &str, mut run: impl FnMut(u64) -> Duration) -> Measurement {
    // Calibrate.
    let mut batch = 64u64;
    loop {
        let e = run(batch);
        if e >= TARGET_SAMPLE / 4 || batch >= 1 << 24 {
            break;
        }
        batch *= 4;
    }
    let mut ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let e = run(batch);
        ns.push(e.as_nanos() as f64 / batch as f64);
    }
    summarize(name, ns)
}

/// Print a measurement table for `ms` to stdout.
pub fn report(group: &str, ms: &[Measurement]) {
    println!("\n== {group} ==");
    for m in ms {
        println!(
            "{:<44} {:>12.1} ns/op   (min {:.1}, max {:.1})",
            m.name, m.median_ns, m.min_ns, m.max_ns
        );
    }
}
