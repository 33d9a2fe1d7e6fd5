//! Exploration drivers: bounded-exhaustive DFS (with preemption bound and
//! sleep-set cut), seeded-random fuzzing for large state spaces, exact
//! replay of a recorded schedule, and greedy schedule shrinking.

use crate::mem::MemoryMode;
use crate::rt;
use crate::sched::{self, Choice, Exec, FailureKind, Policy, RunCfg, Stop, TraceEv};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Serializes explorations process-wide: model executions manipulate the
/// real (process-global) lfc runtime state — thread-id registry, epochs,
/// orphan lists — so two concurrent explorations would corrupt each other's
/// determinism.
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

/// Options for [`explore`].
#[derive(Clone, Debug)]
pub struct ExploreOpts {
    /// Maximum number of preemptive context switches per execution
    /// (switches away from a still-runnable thread). Bounds the search
    /// space; most real bugs need very few preemptions.
    pub preemption_bound: u32,
    /// Per-execution scheduling-point budget (livelock backstop).
    pub step_budget: u64,
    /// Cap on explored executions; the report says whether the bound was
    /// exhausted before the DFS completed.
    pub max_executions: u64,
    /// Memory-model strength.
    pub memory: MemoryMode,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            preemption_bound: 2,
            step_budget: 20_000,
            max_executions: 50_000,
            memory: MemoryMode::Interleaving,
        }
    }
}

/// Options for [`explore_random`].
#[derive(Clone, Debug)]
pub struct FuzzOpts {
    /// Base seed; execution `i` runs with `seed + i`.
    pub seed: u64,
    /// Number of random executions.
    pub executions: u64,
    /// Per-execution scheduling-point budget.
    pub step_budget: u64,
    /// Memory-model strength.
    pub memory: MemoryMode,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            seed: 0,
            executions: 200,
            step_budget: 100_000,
            memory: MemoryMode::Interleaving,
        }
    }
}

/// A reproducible failing schedule plus its rendered timeline.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// What went wrong.
    pub kind: FailureKind,
    /// The replayable choice tape: feed to [`replay`] (with the same
    /// closure, memory mode and [`FailureReport::preemption_bound`]) to
    /// reproduce the failure exactly.
    pub schedule: Vec<u32>,
    /// The preemption bound the failing run was recorded under. Tapes only
    /// align when replayed under the same bound: the bound changes which
    /// scheduling points have more than one candidate, i.e. which points
    /// consume a tape entry.
    pub preemption_bound: u32,
    /// Seed of the random execution that found it (random mode only).
    pub seed: Option<u64>,
    /// Aligned per-thread timeline of the failing execution.
    pub timeline: String,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model failure: {}", self.kind)?;
        if let Some(s) = self.seed {
            writeln!(f, "seed: {s:#x}")?;
        }
        writeln!(
            f,
            "schedule ({} choices): {:?}",
            self.schedule.len(),
            self.schedule
        )?;
        write!(f, "{}", self.timeline)
    }
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Executions actually run.
    pub executions: u64,
    /// Executions cut by the sleep-set rule (counted inside `executions`).
    pub pruned: u64,
    /// Whether the bounded DFS ran to completion (false when
    /// `max_executions` stopped it first; meaningless in random mode).
    pub complete: bool,
    /// The first failure found, if any.
    pub failure: Option<FailureReport>,
}

impl ExploreReport {
    /// Panic with the failure report if one was found (test helper).
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!("{f}");
        }
    }
}

pub(crate) struct RunOutcome {
    pub stop: Option<Stop>,
    pub record: Vec<Choice>,
    pub trace: Vec<TraceEv>,
    pub threads: usize,
}

fn run_one(cfg: RunCfg, forced: Vec<u32>, f: &dyn Fn()) -> RunOutcome {
    let exec = Exec::new(cfg, forced);
    exec.register_root();
    sched::set_current(exec.clone(), 0);
    let r = catch_unwind(AssertUnwindSafe(f));
    if let Err(p) = &r {
        exec.stop_failure(FailureKind::Panic(crate::thread::payload_to_string(
            p.as_ref(),
        )));
    }
    // Drain this thread's lfc state (hazard lists, magazines, thread id)
    // while still scheduled; post-failure this runs in passthrough mode.
    rt::run_thread_epilogue();
    sched::clear_current();
    exec.thread_finished(0);
    exec.wait_all_finished();
    let mut st = exec.lock();
    let quarantined = std::mem::take(&mut st.mem.quarantine);
    let outcome = RunOutcome {
        stop: st.stop.clone(),
        record: std::mem::take(&mut st.tape.record),
        trace: std::mem::take(&mut st.trace),
        threads: st.thread_count(),
    };
    drop(st);
    drop(exec);
    // Release the quarantine: every block was logically freed during the
    // execution and only kept mapped for UAF detection. The map is keyed
    // by base address, so each block is released exactly once even if the
    // execution double-freed it (reported as a DoubleFree failure).
    for (ptr, (size, align)) in quarantined {
        // Safety: recorded by `rt::quarantine_block` from a live allocation
        // with exactly this layout; the model is the sole remaining owner.
        unsafe {
            std::alloc::dealloc(
                ptr as *mut u8,
                std::alloc::Layout::from_size_align(size, align).expect("valid layout"),
            )
        };
    }
    outcome
}

/// An untraced run driven by a forced tape, leftmost past its end.
fn dfs(mem: MemoryMode, preemption_bound: u32, step_budget: u64) -> RunCfg {
    RunCfg {
        policy: Policy::Dfs,
        seed: 0,
        mem,
        preemption_bound,
        step_budget,
        trace: false,
    }
}

/// The choice tape (chosen values) of a recorded run.
fn chosen(record: &[Choice]) -> Vec<u32> {
    record.iter().map(|c| c.chosen).collect()
}

/// Next DFS tape after `record`, or `None` when the search is exhausted.
fn next_tape(record: &[Choice]) -> Option<Vec<u32>> {
    for i in (0..record.len()).rev() {
        if record[i].chosen + 1 < record[i].arity {
            let mut f: Vec<u32> = record[..i].iter().map(|c| c.chosen).collect();
            f.push(record[i].chosen + 1);
            return Some(f);
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn failure_report(
    kind: FailureKind,
    schedule: Vec<u32>,
    seed: Option<u64>,
    memory: MemoryMode,
    step_budget: u64,
    preemption_bound: u32,
    f: &dyn Fn(),
) -> FailureReport {
    // Re-run the exact schedule with tracing on to render the timeline.
    // The preemption bound must match the recording run: it decides which
    // scheduling points have arity > 1 and therefore consume tape entries.
    let cfg = RunCfg {
        trace: true,
        ..dfs(memory, preemption_bound, step_budget)
    };
    let out = run_one(cfg, schedule.clone(), f);
    debug_assert!(
        out.stop.is_some(),
        "replaying a failing tape under its own bound must reproduce a stop"
    );
    FailureReport {
        kind,
        schedule,
        preemption_bound,
        seed,
        timeline: render_timeline(&out.trace, out.threads),
    }
}

/// Bounded-exhaustive exploration of `f` under the scheduler: DFS over
/// every scheduling (and, in weak mode, read-candidate) choice, cut by the
/// preemption bound and the sleep-set rule. `f` runs once per execution
/// and must be deterministic up to the controlled choices.
///
/// Executions share the process-global runtime state of the code under
/// test (thread ids, epochs, descriptor records), so the execution total
/// depends on what the process explored before: one bound-1 search ran
/// 3 063 executions as the first test of its binary and 3 093 after
/// another search. Gate on verdicts and counted events, not on
/// [`ExploreReport::executions`].
pub fn explore(opts: ExploreOpts, f: impl Fn()) -> ExploreReport {
    let _g = EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    explore_inner(opts, &f)
}

fn explore_inner(opts: ExploreOpts, f: &dyn Fn()) -> ExploreReport {
    let mut forced = Vec::new();
    let mut executions = 0;
    let mut pruned = 0;
    loop {
        let cfg = dfs(opts.memory, opts.preemption_bound, opts.step_budget);
        let out = run_one(cfg, forced, f);
        executions += 1;
        match &out.stop {
            Some(Stop::Failure(kind)) => {
                let schedule = chosen(&out.record);
                return ExploreReport {
                    executions,
                    pruned,
                    complete: false,
                    failure: Some(failure_report(
                        kind.clone(),
                        schedule,
                        None,
                        opts.memory,
                        opts.step_budget,
                        opts.preemption_bound,
                        f,
                    )),
                };
            }
            Some(Stop::Pruned) => pruned += 1,
            None => {}
        }
        match next_tape(&out.record) {
            Some(next) if executions < opts.max_executions => forced = next,
            Some(_) => {
                return ExploreReport {
                    executions,
                    pruned,
                    complete: false,
                    failure: None,
                }
            }
            None => {
                return ExploreReport {
                    executions,
                    pruned,
                    complete: true,
                    failure: None,
                }
            }
        }
    }
}

/// Seeded-random exploration for state spaces too large to enumerate.
/// Execution `i` uses seed `opts.seed + i`; a failure reports both the
/// replayable schedule and the seed, after greedy shrinking.
pub fn explore_random(opts: FuzzOpts, f: impl Fn()) -> ExploreReport {
    let _g = EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut executions = 0;
    for i in 0..opts.executions {
        let seed = opts.seed.wrapping_add(i);
        let cfg = RunCfg {
            policy: Policy::Random,
            seed,
            mem: opts.memory,
            preemption_bound: u32::MAX,
            step_budget: opts.step_budget,
            trace: false,
        };
        let out = run_one(cfg, Vec::new(), &f);
        executions += 1;
        if let Some(Stop::Failure(kind)) = &out.stop {
            let schedule = shrink_inner(
                chosen(&out.record),
                kind,
                opts.memory,
                opts.step_budget,
                u32::MAX,
                400,
                &f,
            );
            return ExploreReport {
                executions,
                pruned: 0,
                complete: false,
                failure: Some(failure_report(
                    kind.clone(),
                    schedule,
                    Some(seed),
                    opts.memory,
                    opts.step_budget,
                    u32::MAX,
                    &f,
                )),
            };
        }
    }
    ExploreReport {
        executions,
        pruned: 0,
        complete: false,
        failure: None,
    }
}

/// Replay a schedule recorded by a previous exploration (from a
/// [`FailureReport`] or a CI artifact) and return the failure it
/// reproduces, if any. `preemption_bound` must be the bound the schedule
/// was recorded under ([`FailureReport::preemption_bound`]) — tapes only
/// align under the same bound. A tape replays exactly only from the same
/// process-global runtime state it was recorded in (see [`explore`]); in
/// another process, or after other explorations, it may take another
/// path.
pub fn replay(
    schedule: &[u32],
    memory: MemoryMode,
    preemption_bound: u32,
    f: impl Fn(),
) -> Option<FailureReport> {
    let _g = EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = dfs(memory, preemption_bound, 1_000_000);
    let out = run_one(cfg, schedule.to_vec(), &f);
    match out.stop {
        Some(Stop::Failure(kind)) => Some(failure_report(
            kind,
            chosen(&out.record),
            None,
            memory,
            1_000_000,
            preemption_bound,
            &f,
        )),
        _ => None,
    }
}

/// Greedily shrink a failing schedule: repeatedly try zeroing a choice and
/// truncating the suffix (the default policy fills the rest); keep any
/// variant that still fails with the same kind of failure. The result is
/// typically a schedule with the minimal number of forced context
/// switches.
pub fn shrink_schedule(
    schedule: Vec<u32>,
    kind: &FailureKind,
    memory: MemoryMode,
    preemption_bound: u32,
    f: impl Fn(),
) -> Vec<u32> {
    let _g = EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    shrink_inner(schedule, kind, memory, 1_000_000, preemption_bound, 400, &f)
}

#[allow(clippy::too_many_arguments)]
fn shrink_inner(
    mut best: Vec<u32>,
    kind: &FailureKind,
    memory: MemoryMode,
    step_budget: u64,
    preemption_bound: u32,
    mut budget: u32,
    f: &dyn Fn(),
) -> Vec<u32> {
    let same_kind = |a: &FailureKind| std::mem::discriminant(a) == std::mem::discriminant(kind);
    let try_tape = |tape: Vec<u32>, budget: &mut u32| -> Option<Vec<u32>> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        let out = run_one(dfs(memory, preemption_bound, step_budget), tape, f);
        match out.stop {
            Some(Stop::Failure(k)) if same_kind(&k) => Some(chosen(&out.record)),
            _ => None,
        }
    };
    loop {
        let mut improved = false;
        for i in (0..best.len()).rev() {
            let cand: Vec<u32> = if best[i] == 0 {
                best[..i].to_vec()
            } else {
                let mut c = best[..=i].to_vec();
                c[i] = 0;
                c
            };
            if cand.len() >= best.len() && cand == best {
                continue;
            }
            if let Some(new) = try_tape(cand, &mut budget) {
                if new.len() < best.len()
                    || new.iter().filter(|&&x| x != 0).count()
                        < best.iter().filter(|&&x| x != 0).count()
                {
                    best = new;
                    improved = true;
                    break;
                }
            }
            if budget == 0 {
                return best;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Render a recorded trace as an aligned per-thread timeline: one column
/// per model thread, one row per performed operation.
///
/// Deliberately independent of `lfc_linear::render_history` (same visual
/// idea, different row model — trace events vs timed history entries):
/// lfc-model sits below every other crate so the facades can depend on it
/// without dragging further dependencies into each build, and keeping it
/// dependency-free outweighs sharing ~30 lines of column layout.
pub fn render_timeline(trace: &[TraceEv], threads: usize) -> String {
    let threads = threads.max(1);
    let mut width = vec![8usize; threads];
    for ev in trace {
        width[ev.tid] = width[ev.tid].max(ev.text.len() + 2);
    }
    let mut out = String::new();
    out.push_str("  step ");
    for (t, w) in width.iter().enumerate() {
        out.push_str(&format!("| {:<w$}", format!("T{t}"), w = w));
    }
    out.push('\n');
    const MAX_ROWS: usize = 400;
    let skip = trace.len().saturating_sub(MAX_ROWS);
    if skip > 0 {
        out.push_str(&format!("  … {skip} earlier events elided …\n"));
    }
    for (i, ev) in trace.iter().enumerate().skip(skip) {
        out.push_str(&format!("{:>6} ", i + 1));
        for (t, w) in width.iter().enumerate() {
            if t == ev.tid {
                out.push_str(&format!("| {:<w$}", ev.text, w = w));
            } else {
                out.push_str(&format!("| {:<w$}", "", w = w));
            }
        }
        out.push('\n');
    }
    out
}
