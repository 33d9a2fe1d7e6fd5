//! The workload contract and the closed-loop runner every workload shares.
//!
//! One process runs one repetition: the main thread builds the empty
//! structures and detaches from the tid registry (it never touches the
//! library again until the window has closed), the workers prefill, warm
//! up, and then replay their seeded op stream for the window. Throughput
//! counts every op; latency is sampled on one op in sixteen by op index
//! (every op in a traced run). The main thread only reads the crates'
//! static counters, which does not register it.

use crate::hist::LatHist;
use crate::stream::{self, Code, Keys};
use lfc_bench::json::Json;
use lockfree_compose::{MoveOutcome, SwapOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Warm-up ops per thread before the window.
pub const WARMUP_OPS: u64 = 20_000;
/// Latency is sampled on op indices divisible by this.
pub const SAMPLE_EVERY: u64 = 16;
/// The window is cut into slices of this length and every reported
/// figure is the median over slices, so neither a start-up transient nor
/// bursts of interference (nor the ledger's own audit pauses, which are
/// reported separately) move it unless they cover half the window.
pub const SLICE: Duration = Duration::from_millis(50);
/// `lfc_hazard::retired_bytes()` is sampled on op indices divisible by this.
const HWM_EVERY: u64 = 512;
/// Spans kept per thread in a traced run; later ops are still timed and
/// counted in the per-kind figures, and reported as dropped spans.
pub const SPAN_CAP: usize = 1 << 15;

/// What an op reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The op did what it was asked.
    Ok,
    /// The library answered "nothing to do" (`SourceEmpty`, `NotFound`,
    /// `Duplicate`, a lookup that found nothing): an answer, not a failure.
    Miss,
    /// Refused or broken: `Shed`, `Overloaded`, an impossible outcome.
    Failed,
}

impl From<MoveOutcome> for Outcome {
    fn from(m: MoveOutcome) -> Outcome {
        match m {
            MoveOutcome::Moved => Outcome::Ok,
            MoveOutcome::SourceEmpty => Outcome::Miss,
            // No workload moves into a bounded target or onto itself.
            MoveOutcome::TargetRejected | MoveOutcome::WouldAlias => Outcome::Failed,
        }
    }
}

impl From<SwapOutcome> for Outcome {
    fn from(s: SwapOutcome) -> Outcome {
        match s {
            SwapOutcome::Swapped => Outcome::Ok,
            SwapOutcome::FirstEmpty | SwapOutcome::SecondEmpty => Outcome::Miss,
            SwapOutcome::Rejected | SwapOutcome::WouldAlias => Outcome::Failed,
        }
    }
}

/// One of the seven workloads (or a variant of one).
pub trait Workload: Sync {
    /// Per-thread state: built by `prefill`, handed back to `verify`.
    type Local: Send;
    const THREADS: usize;
    /// The window must run in the solo regime and touch no descriptor pool.
    const SOLO: bool = false;
    /// Op-kind names, indexed by `Code::kind()`.
    const KINDS: &'static [&'static str];
    /// `(kind, count)` per shuffled block of the stream.
    const MIX: &'static [(u8, u32)];
    const KEYS: Keys;

    /// Worker-side set-up of thread `thread`'s share.
    fn prefill(&self, thread: usize) -> Self::Local;
    fn op(&self, local: &mut Self::Local, code: Code) -> Outcome;
    /// A periodic op due before the next stream op, given the ops this
    /// thread has done so far.
    fn due(&self, _local: &Self::Local, _ops: u64) -> Option<Code> {
        None
    }
    /// The correctness gate: drain and check. `Ok` carries named facts
    /// (always `population_start` and `population_end`).
    fn verify(&self, locals: Vec<Self::Local>) -> Result<Vec<(&'static str, f64)>, String>;
}

/// Order-independent checksum of a multiset of token ids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub n: i64,
    sum: u64,
    xor: u64,
}

fn mix64(id: u64) -> u64 {
    let z = (id ^ (id >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

impl Tally {
    pub fn add(&mut self, id: u64) {
        self.n += 1;
        self.sum = self.sum.wrapping_add(mix64(id));
        self.xor ^= id;
    }
    pub fn sub(&mut self, id: u64) {
        self.n -= 1;
        self.sum = self.sum.wrapping_sub(mix64(id));
        self.xor ^= id;
    }
    pub fn merge(&mut self, other: &Tally) {
        self.n += other.n;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
    }
    pub fn of(ids: impl IntoIterator<Item = u64>) -> Tally {
        let mut t = Tally::default();
        ids.into_iter().for_each(|id| t.add(id));
        t
    }
}

/// `ids` holds every token exactly once: no id twice, and the multiset
/// equals `expected` (count, mixed sum and xor).
pub fn check_tokens(what: &str, mut ids: Vec<u64>, expected: &Tally) -> Result<(), String> {
    let got = Tally::of(ids.iter().copied());
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("{what}: token {} is present twice", w[0]));
    }
    if got != *expected {
        return Err(format!(
            "{what}: holds {} tokens, expected {} (or ids differ: {got:?} vs {expected:?})",
            got.n, expected.n
        ));
    }
    Ok(())
}

/// One recorded op of a traced run (times since the window opened).
#[derive(Clone, Copy, Default)]
pub struct Span {
    pub seq: u32,
    pub kind: u8,
    pub outcome: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default, Clone)]
pub struct KindStat {
    pub n: u64,
    pub ns: u64,
    pub hist: LatHist,
}

/// A thread's cyclic walk through its op stream.
struct Replay<'a> {
    codes: &'a [Code],
    pos: usize,
}

impl Replay<'_> {
    #[inline]
    fn next(&mut self) -> Code {
        let code = self.codes[self.pos];
        self.pos += 1;
        if self.pos == self.codes.len() {
            self.pos = 0;
        }
        code
    }
}

struct ThreadStats {
    ops: u64,
    misses: u64,
    failed: u64,
    /// Sampled latencies, one histogram per slice.
    hists: Vec<LatHist>,
    /// Ops done when each slice closed.
    slice_ops: Vec<u64>,
    retired_hwm: usize,
    kinds: Vec<KindStat>,
    spans: Vec<Span>,
    spans_dropped: u64,
}

/// Names of [`Counters`], in order; the `_pool_` ones are descriptor
/// allocations served by a per-thread pool (`hits`) or `lfc-alloc` (`misses`).
pub const COUNTERS: [&str; 17] = [
    "fresh",
    "recycled",
    "retired",
    "scans",
    "ejections",
    "zombies",
    "help_runs",
    "helped",
    "desc_pool_hits",
    "desc_pool_misses",
    "casn_pool_hits",
    "casn_pool_misses",
    "rdcss_pool_hits",
    "rdcss_pool_misses",
    "elim_pairs",
    "gate_direct",
    "gate_batched",
];

/// The crates' public counters, read from the coordinating thread.
#[derive(Clone, Copy)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    pub fn read() -> Counters {
        use lfc_dcas::{counters as d, kcas::counters as k};
        let a = lfc_alloc::stats();
        let (ejections, zombies) = lfc_hazard::ejection_stats();
        Counters([
            a.fresh as u64,
            a.recycled as u64,
            lfc_hazard::stats().0 as u64,
            lfc_hazard::scan_count() as u64,
            ejections as u64,
            zombies as u64,
            d::help_runs() as u64,
            lfc_dcas::helped_completions() as u64,
            d::desc_pool_hits() as u64,
            d::desc_pool_misses() as u64,
            k::casn_pool_hits() as u64,
            k::casn_pool_misses() as u64,
            k::rdcss_pool_hits() as u64,
            k::rdcss_pool_misses() as u64,
            lfc_structures::elim::counters::eliminated_pairs(),
            lfc_core::batch::counters::direct_ops(),
            lfc_core::batch::counters::batched_ops(),
        ])
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - before.0[i]))
    }

    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTERS.iter().copied().zip(self.0)
    }

    /// Descriptor allocations of all three pools, hit or miss.
    pub fn pool_traffic(&self) -> u64 {
        self.named()
            .filter(|(name, _)| name.contains("_pool_"))
            .map(|(_, v)| v)
            .sum()
    }
}

pub struct RunCfg {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

/// What one repetition measured. Serialized by [`Report::to_json`] and
/// read back by the coordinator.
pub struct Report {
    pub threads: usize,
    pub setup_s: f64,
    pub window_s: f64,
    pub ops: u64,
    pub misses: u64,
    pub failed: u64,
    pub slice_ops_per_s: Vec<f64>,
    /// Per slice, all threads merged.
    pub slice_hists: Vec<LatHist>,
    pub min_thread_share: f64,
    pub retired_hwm: usize,
    pub outstanding_end: usize,
    pub peak_rss_mib: f64,
    pub counters: Counters,
    pub facts: Vec<(&'static str, f64)>,
    pub kinds: Vec<(&'static str, KindStat)>,
    pub spans: Vec<Vec<Span>>,
    pub spans_dropped: u64,
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Slices in a window (at least one).
fn slices_in(window: Duration) -> usize {
    ((window.as_nanos() / SLICE.as_nanos()) as usize).max(1)
}

impl ThreadStats {
    #[inline]
    fn count(&mut self, out: Outcome) {
        self.ops += 1;
        match out {
            Outcome::Ok => {}
            Outcome::Miss => self.misses += 1,
            Outcome::Failed => self.failed += 1,
        }
    }
}

fn window_loop<W: Workload, const TRACE: bool>(
    w: &W,
    local: &mut W::Local,
    stream: &mut Replay,
    start: Instant,
    window: Duration,
) -> ThreadStats {
    let slices = slices_in(window);
    let window_ns = window.as_nanos() as u64;
    let slice_ns = window_ns / slices as u64;
    let mut st = ThreadStats {
        ops: 0,
        misses: 0,
        failed: 0,
        hists: vec![LatHist::new(); slices],
        slice_ops: Vec::with_capacity(slices),
        retired_hwm: 0,
        kinds: if TRACE {
            vec![KindStat::default(); W::KINDS.len()]
        } else {
            Vec::new()
        },
        // Touched now, so the window takes no page faults for them.
        spans: if TRACE {
            vec![Span::default(); SPAN_CAP]
        } else {
            Vec::new()
        },
        spans_dropped: 0,
    };
    let mut recorded = 0usize;
    loop {
        let code = w.due(local, st.ops).unwrap_or_else(|| stream.next());
        if !TRACE && !st.ops.is_multiple_of(SAMPLE_EVERY) {
            st.count(w.op(local, code));
            continue;
        }
        let t0 = Instant::now();
        let out = w.op(local, code);
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        let since = (t1 - start).as_nanos() as u64;
        st.hists[st.slice_ops.len().min(slices - 1)].record(ns);
        if TRACE {
            let k = &mut st.kinds[code.kind() as usize];
            k.n += 1;
            k.ns += ns;
            k.hist.record(ns);
            if recorded < SPAN_CAP {
                st.spans[recorded] = Span {
                    seq: st.ops as u32,
                    kind: code.kind(),
                    outcome: out as u8,
                    start_ns: since.saturating_sub(ns),
                    end_ns: since,
                };
                recorded += 1;
            } else {
                st.spans_dropped += 1;
            }
        }
        st.count(out);
        if st.ops % HWM_EVERY == 1 {
            st.retired_hwm = st.retired_hwm.max(lfc_hazard::retired_bytes());
        }
        while st.slice_ops.len() < slices && since >= (st.slice_ops.len() as u64 + 1) * slice_ns {
            st.slice_ops.push(st.ops);
        }
        if since >= window_ns {
            break;
        }
    }
    st.spans.truncate(recorded);
    st
}

/// Run one repetition of `w`. `born` is when the process started, so
/// `setup_s` covers build, prefill, thread registration and warm-up.
pub fn run<W: Workload>(w: &W, cfg: &RunCfg, born: Instant) -> Result<Report, String> {
    // The main thread built the structures; from here to the end of the
    // window it must not count as a registered thread (a "1-thread" run
    // would otherwise lose the solo path).
    lfc_runtime::detach_thread();
    let threads = W::THREADS;
    let barrier = Barrier::new(threads + 1);
    let start: OnceLock<Instant> = OnceLock::new();

    let worker = |thread: usize| -> Result<(W::Local, ThreadStats), String> {
        // Barriers sit outside the unwind guards: a panicking worker
        // still meets the others, and the run fails instead of hanging.
        let guarded = |what: &str, f: &mut dyn FnMut()| {
            catch_unwind(AssertUnwindSafe(f))
                .map_err(|_| format!("worker {thread} panicked in {what}"))
        };
        let codes = stream::build(cfg.seed, thread, W::MIX, W::KEYS);
        let mut stream = Replay {
            codes: &codes,
            pos: 0,
        };
        let mut local = None;
        let prefilled = guarded("prefill", &mut || local = Some(w.prefill(thread)));
        barrier.wait(); // every thread's share is in place
        let warmed = prefilled.and_then(|()| {
            let l = local.as_mut().expect("prefill succeeded");
            guarded("warm-up", &mut || {
                for _ in 0..WARMUP_OPS {
                    w.op(l, stream.next());
                }
            })
        });
        barrier.wait(); // warm
        barrier.wait(); // counters read, window open
        let mut stats = None;
        let ran = warmed.and_then(|()| {
            if W::SOLO && lfc_runtime::solo::try_enter().is_none() {
                return Err("regime: the solo workload is not in the solo regime".to_string());
            }
            let l = local.as_mut().expect("prefill succeeded");
            let t0 = *start.get().expect("set before the barrier");
            guarded("the window", &mut || {
                stats = Some(if cfg.trace {
                    window_loop::<W, true>(w, l, &mut stream, t0, cfg.window)
                } else {
                    window_loop::<W, false>(w, l, &mut stream, t0, cfg.window)
                });
            })
        });
        barrier.wait(); // window closed everywhere
        barrier.wait(); // counters read; exit hooks may run
        ran.map(|()| {
            (
                local.expect("prefill succeeded"),
                stats.expect("window ran"),
            )
        })
    };

    let (results, regime, counters, peak_rss, outstanding_end) = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..threads).map(|t| sc.spawn(move || worker(t))).collect();
        barrier.wait();
        barrier.wait();
        let active = lfc_runtime::active_threads();
        let regime = if active == threads {
            Ok(())
        } else {
            Err(format!(
                "regime: {active} threads registered at window start, expected {threads}"
            ))
        };
        let before = Counters::read();
        start.set(Instant::now()).expect("set once");
        barrier.wait();
        barrier.wait();
        let counters = Counters::read().since(&before);
        let (peak_rss, outstanding) = (peak_rss_mib(), lfc_alloc::outstanding());
        barrier.wait();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a worker panicked outside its guards".into()))
            })
            .collect();
        (results, regime, counters, peak_rss, outstanding)
    });
    regime?;
    let setup_s = (*start.get().expect("set above") - born).as_secs_f64();
    let (locals, stats): (Vec<_>, Vec<_>) = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();

    if W::SOLO && counters.pool_traffic() != 0 {
        return Err(format!(
            "regime: the solo workload made {} descriptor-pool allocations",
            counters.pool_traffic()
        ));
    }

    let window_s = cfg.window.as_secs_f64();
    let slices = slices_in(cfg.window);
    let slice_s = window_s / slices as f64;
    let slice_ops_per_s = (0..slices)
        .map(|k| {
            let done = |s: &ThreadStats, k: usize| s.slice_ops.get(k).copied().unwrap_or(s.ops);
            let ops: u64 = stats
                .iter()
                .map(|s| done(s, k) - if k == 0 { 0 } else { done(s, k - 1) })
                .sum();
            ops as f64 / slice_s
        })
        .collect();
    let ops: u64 = stats.iter().map(|s| s.ops).sum();
    let fewest = stats.iter().map(|s| s.ops).min().unwrap_or(0);
    let mut slice_hists = vec![LatHist::new(); slices];
    let mut kinds: Vec<(&'static str, KindStat)> =
        W::KINDS.iter().map(|&k| (k, KindStat::default())).collect();
    for s in &stats {
        slice_hists
            .iter_mut()
            .zip(&s.hists)
            .for_each(|(acc, h)| acc.merge(h));
        for (acc, k) in kinds.iter_mut().zip(&s.kinds) {
            acc.1.n += k.n;
            acc.1.ns += k.ns;
            acc.1.hist.merge(&k.hist);
        }
    }
    let facts = w.verify(locals)?;
    Ok(Report {
        threads,
        setup_s,
        window_s,
        ops,
        misses: stats.iter().map(|s| s.misses).sum(),
        failed: stats.iter().map(|s| s.failed).sum(),
        slice_ops_per_s,
        slice_hists,
        min_thread_share: fewest as f64 / (ops as f64 / threads as f64),
        retired_hwm: stats.iter().map(|s| s.retired_hwm).max().unwrap_or(0),
        outstanding_end,
        peak_rss_mib: peak_rss,
        counters,
        facts,
        kinds: if cfg.trace { kinds } else { Vec::new() },
        spans_dropped: stats.iter().map(|s| s.spans_dropped).sum(),
        spans: stats.into_iter().map(|s| s.spans).collect(),
    })
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn opt(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

impl Report {
    /// Ops per second: the median slice.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.slice_ops_per_s)
    }

    /// Quantile `q` of the sampled latency: the median over the slices
    /// that support it, or the whole window's when fewer than half do.
    pub fn latency(&self, q: f64) -> Option<f64> {
        let per_slice: Vec<f64> = self
            .slice_hists
            .iter()
            .filter_map(|h| h.quantile(q))
            .collect();
        if per_slice.len() * 2 > self.slice_hists.len() {
            return Some(median(&per_slice));
        }
        let mut whole = LatHist::new();
        self.slice_hists.iter().for_each(|h| whole.merge(h));
        whole.quantile(q)
    }

    /// The flat object a child prints for its coordinator.
    pub fn to_json(&self, workload: &str, variant: &str, seed: u64) -> Json {
        let total_ns: u64 = self.kinds.iter().map(|(_, k)| k.ns).sum();
        Json::Obj(vec![
            ("workload".into(), Json::str(workload)),
            ("variant".into(), Json::str(variant)),
            ("seed".into(), Json::int(seed)),
            ("threads".into(), Json::int(self.threads as u64)),
            ("setup_s".into(), num(self.setup_s)),
            ("window_s".into(), num(self.window_s)),
            ("ops".into(), Json::int(self.ops)),
            ("misses".into(), Json::int(self.misses)),
            ("failed".into(), Json::int(self.failed)),
            ("ops_per_s".into(), num(self.ops_per_s())),
            (
                "ops_per_s_mean".into(),
                num(self.ops as f64 / self.window_s),
            ),
            (
                "slice_ops_per_s".into(),
                Json::Arr(self.slice_ops_per_s.iter().map(|&v| num(v)).collect()),
            ),
            (
                "latency_samples".into(),
                Json::int(self.slice_hists.iter().map(|h| h.count()).sum()),
            ),
            ("p50_ns".into(), opt(self.latency(0.50))),
            ("p99_ns".into(), opt(self.latency(0.99))),
            ("p999_ns".into(), opt(self.latency(0.999))),
            ("min_thread_share".into(), num(self.min_thread_share)),
            (
                "retired_hwm_bytes".into(),
                Json::int(self.retired_hwm as u64),
            ),
            (
                "outstanding_end".into(),
                Json::int(self.outstanding_end as u64),
            ),
            ("peak_rss_mib".into(), num(self.peak_rss_mib)),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .named()
                        .map(|(k, v)| (k.to_string(), Json::int(v)))
                        .collect(),
                ),
            ),
            (
                "facts".into(),
                Json::Obj(
                    self.facts
                        .iter()
                        .map(|&(k, v)| (k.to_string(), num(v)))
                        .collect(),
                ),
            ),
            (
                "kinds".into(),
                Json::Obj(
                    self.kinds
                        .iter()
                        .filter(|(_, k)| k.n > 0)
                        .map(|(name, k)| {
                            let body = Json::Obj(vec![
                                ("n".into(), Json::int(k.n)),
                                ("p50_ns".into(), opt(k.hist.quantile(0.5))),
                                (
                                    "time_share".into(),
                                    num(k.ns as f64 / total_ns.max(1) as f64),
                                ),
                            ]);
                            (name.to_string(), body)
                        })
                        .collect(),
                ),
            ),
            (
                "spans_written".into(),
                Json::int(self.spans.iter().map(|s| s.len() as u64).sum()),
            ),
            ("spans_dropped".into(), Json::int(self.spans_dropped)),
        ])
    }
}
