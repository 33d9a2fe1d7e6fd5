//! The deterministic cooperative scheduler.
//!
//! Model threads are real OS threads serialized by a baton: exactly one
//! thread is *active* at any instant. Every instrumented operation is a
//! *scheduling point*: the thread announces the operation it is about to
//! perform (location, read/write, fence, yield), the scheduler consults the
//! choice tape to pick the next thread to run, and the granted thread then
//! performs its operation against the shadow memory while holding the
//! execution lock. Announcing before blocking gives the scheduler full
//! lookahead over every thread's pending operation, which is what makes the
//! sleep-set cut and conflict-based wakeups precise.
//!
//! A choice tape (`Tape`) drives all nondeterminism: scheduling decisions
//! and, under [`crate::mem::MemoryMode::Weak`], which admissible store a
//! load returns. Replaying a tape replays the execution exactly; the DFS
//! driver in [`crate::explore`] enumerates tapes.

use crate::clock::{VClock, MAX_MODEL_THREADS};
use crate::mem::{view_join, Mem, MemoryMode, RelState, StoreRec, View};
use crate::sc::{ScGraph, ScNode};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why an execution stopped before completing normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// An instrumented atomic access touched a freed (quarantined) block —
    /// a use-after-free the reclamation layer should have prevented.
    Uaf {
        /// Address of the accessed word.
        addr: usize,
    },
    /// No thread can make progress (join cycle or lost wakeup).
    Deadlock,
    /// The same block was handed to the allocator twice during one
    /// execution (two scans claiming one retire record, say) — caught at
    /// the quarantine instead of corrupting the real heap at teardown.
    DoubleFree {
        /// Base address of the block.
        addr: usize,
    },
    /// A model thread panicked (assertion failure in the test body or an
    /// invariant violation inside the code under test).
    Panic(String),
    /// The execution exceeded the per-run step budget (livelock, or the
    /// scenario is too big for the configured bound).
    StepBudget,
    /// The baton holder reached no scheduling point for [`STALL_BOUND`]:
    /// it is blocked outside the model, typically on a `std` lock held by
    /// a thread the scheduler parked inside a model operation. The
    /// report's timeline ends where the execution stalled.
    Stalled {
        /// Model thread id of the baton holder.
        holder: usize,
    },
}

/// How long the baton holder may run without reaching a scheduling point
/// before its waiters stop the execution as [`FailureKind::Stalled`]. The
/// longest such gap seen in the release model suite (debug assertions on,
/// 2 vCPUs) was 34 ms.
pub const STALL_BOUND: Duration = Duration::from_secs(10);

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Uaf { addr } => write!(
                f,
                "use-after-free: atomic access to freed block at {addr:#x}"
            ),
            FailureKind::DoubleFree { addr } => {
                write!(f, "double free: block at {addr:#x} quarantined twice")
            }
            FailureKind::Deadlock => write!(f, "deadlock: no runnable thread"),
            FailureKind::Panic(m) => write!(f, "panic: {m}"),
            FailureKind::StepBudget => {
                write!(f, "step budget exceeded (livelock or bound too small)")
            }
            FailureKind::Stalled { holder } => write!(
                f,
                "stall: T{holder} reached no scheduling point for {STALL_BOUND:?} \
                 (blocked outside the model?)"
            ),
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) enum Stop {
    Failure(FailureKind),
    /// Sleep-set blocked: every runnable thread is asleep, i.e. this branch
    /// is provably redundant with an already-explored sibling. Not a bug.
    Pruned,
}

/// How the tape fills choices past the forced prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Deterministic leftmost (DFS order).
    Dfs,
    /// Seeded pseudo-random.
    Random,
}

/// One recorded choice point (only points with more than one option are
/// recorded, so tapes stay dense and replayable).
#[derive(Clone, Copy, Debug)]
pub struct Choice {
    /// Number of options that were available.
    pub arity: u32,
    /// Option taken.
    pub chosen: u32,
}

#[derive(Debug)]
pub(crate) struct Tape {
    forced: Vec<u32>,
    pos: usize,
    pub(crate) record: Vec<Choice>,
    policy: Policy,
    rng: SplitMix,
}

impl Tape {
    fn new(forced: Vec<u32>, policy: Policy, seed: u64) -> Self {
        Tape {
            forced,
            pos: 0,
            record: Vec::new(),
            policy,
            rng: SplitMix(seed),
        }
    }

    /// Choose among `arity` options. `bias_zero` (random mode only) is the
    /// per-mille probability of taking option 0 outright — used to favour
    /// staying on the current thread so random schedules are not pure
    /// thrash.
    fn choose(&mut self, arity: u32, bias_zero: u32) -> u32 {
        debug_assert!(arity >= 1);
        if arity == 1 {
            return 0;
        }
        let c = if self.pos < self.forced.len() {
            self.forced[self.pos]
        } else {
            match self.policy {
                Policy::Dfs => 0,
                Policy::Random => {
                    if bias_zero > 0 && (self.rng.next() % 1000) < bias_zero as u64 {
                        0
                    } else {
                        (self.rng.next() % arity as u64) as u32
                    }
                }
            }
        }
        .min(arity - 1);
        self.pos += 1;
        self.record.push(Choice { arity, chosen: c });
        c
    }
}

/// Minimal splitmix64 (lfc-model cannot depend on lfc-runtime's PRNG: it
/// sits below it in the crate graph).
#[derive(Debug)]
pub(crate) struct SplitMix(pub u64);

impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Announced pending operation (the scheduler's lookahead).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pending {
    addr: Option<usize>,
    write: bool,
    fence: bool,
    yields: bool,
}

impl Pending {
    fn op(addr: usize, write: bool) -> Self {
        Pending {
            addr: Some(addr),
            write,
            fence: false,
            yields: false,
        }
    }
    fn fence() -> Self {
        Pending {
            addr: None,
            write: false,
            fence: true,
            yields: false,
        }
    }
    fn yields() -> Self {
        Pending {
            addr: None,
            write: false,
            fence: false,
            yields: true,
        }
    }
    fn neutral() -> Self {
        Pending {
            addr: None,
            write: false,
            fence: false,
            yields: false,
        }
    }

    fn conflicts(&self, other: &Pending) -> bool {
        // Fences constrain every location. A yield conflicts with
        // everything too: the yielding thread is explicitly waiting for
        // *someone else's* progress, so a sleeping thread must be eligible
        // again or a spin loop starves the only thread that could satisfy
        // it (sleep sets assume finite runs; spin loops break that).
        if self.fence || other.fence || self.yields || other.yields {
            return true;
        }
        match (self.addr, other.addr) {
            (Some(a), Some(b)) => a == b && (self.write || other.write),
            _ => false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Announced an operation; waiting for the baton.
    Runnable,
    /// Holds the baton and is executing user code.
    Running,
    /// Blocked joining another model thread.
    JoinWait(usize),
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    pending: Option<Pending>,
    sleeping: bool,
    clock: VClock,
    /// SC fences this thread has executed: (own timestamp, graph node),
    /// strictly increasing in timestamp.
    fences: Vec<(u32, ScNode)>,
    /// Last SC event (op or fence) for program-order chaining.
    last_sc: Option<ScNode>,
    /// Last SC fence node (for the reader-side fence rules).
    last_fence: Option<ScNode>,
    /// Stores made since this thread's last SC fence: `(addr, idx)` — at
    /// the next fence they pick up retroactive writer-side constraints.
    recent_stores: Vec<(usize, u32)>,
    /// Per-location CoRR floor, propagated with the clock (see
    /// [`crate::mem::View`]).
    view: View,
    /// Cached `Arc` snapshot of `view` for Release stores, valid while
    /// `view_dirty` is false.
    view_snapshot: Option<std::sync::Arc<View>>,
    /// Whether `view` changed since `view_snapshot` was taken.
    view_dirty: bool,
    /// Set by a spin/yield hint: the next load reads the *newest* store
    /// unconditionally. Models the fairness assumption that a spin-wait
    /// eventually observes fresh values — without it, weak mode could
    /// re-read a stale flag forever and every spin loop would spawn an
    /// unbounded family of livelocked branches.
    fresh_next: bool,
}

impl ThreadState {
    fn new(status: Status, pending: Option<Pending>) -> Self {
        ThreadState {
            status,
            pending,
            sleeping: false,
            clock: VClock::ZERO,
            fences: Vec::new(),
            last_sc: None,
            last_fence: None,
            recent_stores: Vec::new(),
            view: View::new(),
            view_snapshot: None,
            view_dirty: true,
            fresh_next: false,
        }
    }
}

/// One line of the execution trace (recorded only when tracing is on).
#[derive(Clone, Debug)]
pub struct TraceEv {
    /// Model thread id.
    pub tid: usize,
    /// Human-readable description of the performed operation.
    pub text: String,
}

/// Per-execution configuration (built by the explorers).
#[derive(Clone, Debug)]
pub(crate) struct RunCfg {
    pub policy: Policy,
    pub seed: u64,
    pub mem: MemoryMode,
    pub preemption_bound: u32,
    pub step_budget: u64,
    pub trace: bool,
}

/// Per-location SC bookkeeping that lives outside `Mem` (last SC store per
/// address, to keep same-location SC stores ordered consistently with
/// modification order).
#[derive(Debug, Default)]
struct ScPerLoc {
    last_sc_store: HashMap<usize, ScNode>,
}

pub(crate) struct ExecState {
    threads: Vec<ThreadState>,
    active: Option<usize>,
    /// The previously running thread (for preemption accounting and the
    /// stay-on-thread candidate ordering).
    prev: Option<usize>,
    preemptions: u32,
    pub(crate) steps: u64,
    pub(crate) tape: Tape,
    pub(crate) mem: Mem,
    sc: ScGraph,
    sc_fence_clock: VClock,
    /// Last SC fence of the whole execution (fences are totally ordered by
    /// execution order; chaining them lets retroactive constraints reuse
    /// the chain).
    last_global_fence: Option<ScNode>,
    sc_loc: ScPerLoc,
    pub(crate) stop: Option<Stop>,
    pub(crate) trace: Vec<TraceEv>,
    cfg: RunCfg,
}

impl ExecState {
    fn stopped(&self) -> bool {
        self.stop.is_some()
    }

    pub(crate) fn thread_count(&self) -> usize {
        self.threads.len()
    }

    fn set_stop(&mut self, s: Stop) {
        if self.stop.is_none() {
            self.stop = Some(s);
        }
    }

    fn trace_ev(&mut self, tid: usize, text: impl FnOnce() -> String) {
        if self.cfg.trace {
            let text = text();
            self.trace.push(TraceEv { tid, text });
        }
    }
}

pub(crate) struct Exec {
    pub(crate) m: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn current() -> Option<(Arc<Exec>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(exec: Arc<Exec>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((exec, tid)));
}

pub(crate) fn clear_current() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

impl Exec {
    pub(crate) fn new(cfg: RunCfg, forced: Vec<u32>) -> Arc<Exec> {
        let tape = Tape::new(forced, cfg.policy, cfg.seed);
        Arc::new(Exec {
            m: Mutex::new(ExecState {
                threads: Vec::new(),
                active: None,
                prev: None,
                preemptions: 0,
                steps: 0,
                tape,
                mem: Mem::default(),
                sc: ScGraph::new(),
                sc_fence_clock: VClock::ZERO,
                last_global_fence: None,
                sc_loc: ScPerLoc::default(),
                stop: None,
                trace: Vec::new(),
                cfg,
            }),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a freed block into the quarantine. A base address quarantined
    /// twice is a double free in the code under test: report it instead of
    /// letting teardown double-`dealloc` real heap memory.
    pub(crate) fn quarantine(&self, addr: usize, size: usize, align: usize) {
        let mut st = self.lock();
        if st.mem.quarantine.insert(addr, (size, align)).is_some() {
            st.set_stop(Stop::Failure(FailureKind::DoubleFree { addr }));
        }
        self.cv.notify_all();
    }

    /// Register the root thread (always model tid 0, born running).
    pub(crate) fn register_root(&self) {
        let mut st = self.lock();
        debug_assert!(st.threads.is_empty());
        st.threads.push(ThreadState::new(Status::Running, None));
        st.active = Some(0);
        st.prev = Some(0);
    }

    /// Register a spawned thread; runnable from birth so the scheduler can
    /// pick it before its OS thread even starts. Thread creation
    /// synchronizes-with thread start: the child inherits the parent's
    /// clock.
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let mut st = self.lock();
        let tid = st.threads.len();
        assert!(
            tid < MAX_MODEL_THREADS,
            "model execution spawned more than {MAX_MODEL_THREADS} threads"
        );
        let mut t = ThreadState::new(Status::Runnable, Some(Pending::neutral()));
        t.clock = st.threads[parent].clock;
        t.view = st.threads[parent].view.clone();
        t.view_snapshot = None;
        t.view_dirty = true;
        st.threads.push(t);
        tid
    }

    /// Record a failure from outside a scheduling point (thread wrapper
    /// catching a user panic).
    pub(crate) fn stop_failure(&self, kind: FailureKind) {
        let mut st = self.lock();
        st.set_stop(Stop::Failure(kind));
        self.cv.notify_all();
    }

    /// Pick the next thread to hold the baton. Caller has set
    /// `st.active = None`.
    fn pick(&self, st: &mut ExecState) {
        debug_assert!(st.active.is_none());
        let prev = st.prev;
        // Candidate order: previous thread first (option 0 = "continue"),
        // then the rest by ascending id — deterministic and replayable.
        let mut cands: Vec<usize> = Vec::new();
        if let Some(p) = prev {
            if st.threads[p].status == Status::Runnable && !st.threads[p].sleeping {
                cands.push(p);
            }
        }
        for t in 0..st.threads.len() {
            if Some(t) != prev
                && st.threads[t].status == Status::Runnable
                && !st.threads[t].sleeping
            {
                cands.push(t);
            }
        }
        // A yielding thread must hand over whenever anyone else can run
        // (loom-style spin/yield semantics; prevents livelocked branches).
        if cands.len() > 1 {
            if let Some(p) = prev {
                if cands[0] == p && st.threads[p].pending.as_ref().is_some_and(|o| o.yields) {
                    cands.remove(0);
                }
            }
        }
        if cands.is_empty() {
            let any_sleeping = st
                .threads
                .iter()
                .any(|t| t.status == Status::Runnable && t.sleeping);
            let any_unfinished = st.threads.iter().any(|t| t.status != Status::Finished);
            if any_sleeping {
                st.set_stop(Stop::Pruned);
            } else if any_unfinished {
                st.set_stop(Stop::Failure(FailureKind::Deadlock));
            }
            self.cv.notify_all();
            return;
        }
        // Preemption bound: once exhausted, the previous thread keeps the
        // baton for as long as it stays runnable.
        let prev_runnable = prev.is_some_and(|p| cands.contains(&p));
        if prev_runnable && st.preemptions >= st.cfg.preemption_bound && cands.len() > 1 {
            cands.truncate(1); // cands[0] is prev by construction
        }
        let c = st.tape.choose(cands.len() as u32, 500) as usize;
        let chosen = cands[c];
        if prev_runnable && Some(chosen) != prev {
            st.preemptions += 1;
        }
        // Sleep-set cut (DFS only): siblings to the left of the chosen
        // branch were fully explored from this state; they sleep until a
        // dependent operation wakes them.
        if st.cfg.policy == Policy::Dfs {
            for &s in &cands[..c] {
                st.threads[s].sleeping = true;
            }
        }
        st.active = Some(chosen);
        st.prev = Some(chosen);
        self.cv.notify_all();
    }

    fn wake_sleepers(&self, st: &mut ExecState, op: &Pending) {
        for t in st.threads.iter_mut() {
            if t.sleeping {
                if let Some(p) = &t.pending {
                    if op.conflicts(p) {
                        t.sleeping = false;
                    }
                }
            }
        }
    }

    /// Wait on the baton until `ready` holds (`true`) or the execution
    /// stops (`false`). A waiter that sees the baton holder make no
    /// scheduling point for [`STALL_BOUND`] stops the execution as
    /// [`FailureKind::Stalled`]; every waiter then drains in passthrough,
    /// as after any stop.
    fn wait_turn<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        ready: impl Fn(&ExecState) -> bool,
    ) -> (MutexGuard<'a, ExecState>, bool) {
        let mut seen = (st.steps, st.active);
        let mut since = Instant::now();
        loop {
            if st.stopped() {
                return (st, false);
            }
            if ready(&st) {
                return (st, true);
            }
            st = self
                .cv
                .wait_timeout(st, STALL_BOUND)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            if (st.steps, st.active) != seen {
                seen = (st.steps, st.active);
                since = Instant::now();
            } else if let Some(holder) = st.active.filter(|_| since.elapsed() >= STALL_BOUND) {
                st.set_stop(Stop::Failure(FailureKind::Stalled { holder }));
                self.cv.notify_all();
            }
        }
    }

    /// Announce `op`, wait for the baton, then run `perform` under the
    /// execution lock. Returns `None` when the execution is poisoned (the
    /// caller falls through to the raw operation).
    fn scheduled<R>(
        self: &Arc<Self>,
        tid: usize,
        op: Pending,
        perform: impl FnOnce(&mut ExecState, usize) -> Result<R, Stop>,
    ) -> Option<R> {
        let mut st = self.lock();
        if st.stopped() {
            return None;
        }
        st.steps += 1;
        if st.steps > st.cfg.step_budget {
            // Never unwind on a model-detected stop: unwinding mid-protocol
            // would leave the *real* process-global lfc state (solo flag,
            // claimed thread ids, epoch slots) torn and poison every later
            // execution. Record the failure and let every thread run to
            // natural completion in passthrough mode instead.
            st.set_stop(Stop::Failure(FailureKind::StepBudget));
            self.cv.notify_all();
            return None;
        }
        st.threads[tid].status = Status::Runnable;
        st.threads[tid].pending = Some(op);
        if st.active == Some(tid) {
            st.active = None;
            self.pick(&mut st);
        }
        // pick() may have stopped the execution (deadlock/prune).
        let (mut st, granted) = self.wait_turn(st, |st| st.active == Some(tid));
        st.threads[tid].status = Status::Running;
        if !granted {
            st.threads[tid].pending = None;
            return None;
        }
        let op = st.threads[tid]
            .pending
            .take()
            .expect("granted thread has a pending op");
        self.wake_sleepers(&mut st, &op);
        match perform(&mut st, tid) {
            Ok(r) => Some(r),
            Err(stop) => {
                // See the step-budget comment: record and fall through to
                // the raw operation (for a UAF the memory is quarantined —
                // still mapped — so the raw access is defined behaviour).
                st.set_stop(stop);
                self.cv.notify_all();
                None
            }
        }
    }

    /// A model thread is done (its wrapper already ran the lfc teardown
    /// epilogue). Wakes joiners and passes the baton on.
    pub(crate) fn thread_finished(&self, tid: usize) {
        let mut st = self.lock();
        st.threads[tid].status = Status::Finished;
        st.threads[tid].pending = None;
        st.threads[tid].sleeping = false;
        for t in st.threads.iter_mut() {
            if t.status == Status::JoinWait(tid) {
                t.status = Status::Runnable;
                t.pending = Some(Pending::neutral());
            }
        }
        if st.active == Some(tid) {
            st.active = None;
            if !st.stopped() {
                self.pick(&mut st);
            }
        }
        self.cv.notify_all();
    }

    /// Block until `target` finishes (a scheduling point).
    pub(crate) fn join_point(self: &Arc<Self>, tid: usize, target: usize) {
        let mut st = self.lock();
        if st.stopped() {
            return;
        }
        if st.threads[target].status != Status::Finished {
            st.threads[tid].status = Status::JoinWait(target);
            st.threads[tid].pending = None;
            if st.active == Some(tid) {
                st.active = None;
                self.pick(&mut st);
            }
            let granted;
            (st, granted) = self.wait_turn(st, |st| {
                st.active == Some(tid) && st.threads[tid].status == Status::Runnable
            });
            st.threads[tid].status = Status::Running;
            st.threads[tid].pending = None;
            if !granted {
                return;
            }
        }
        // Thread completion synchronizes-with join.
        let tc = st.threads[target].clock;
        let tv = st.threads[target].view.clone();
        st.threads[tid].clock.join(&tc);
        if view_join(&mut st.threads[tid].view, &tv) {
            st.threads[tid].view_dirty = true;
        }
    }

    /// First scheduling point of a spawned thread (its registration made it
    /// runnable before the OS thread existed).
    pub(crate) fn start_point(self: &Arc<Self>, tid: usize) {
        let (mut st, _) = self.wait_turn(self.lock(), |st| st.active == Some(tid));
        st.threads[tid].status = Status::Running;
        st.threads[tid].pending = None;
    }

    /// Wait until every registered thread has finished (run by the root
    /// after its closure returns; stray threads are scheduled to completion
    /// even if the closure forgot to join them).
    pub(crate) fn wait_all_finished(&self) {
        let mut st = self.lock();
        loop {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_sc(o: Ordering) -> bool {
    matches!(o, Ordering::SeqCst)
}

/// First SC fence of `writer` sequenced after timestamp `ts` (for the
/// write-fence SC rules).
fn fence_after(t: &ThreadState, ts: u32) -> Option<ScNode> {
    let i = t.fences.partition_point(|&(fts, _)| fts <= ts);
    t.fences.get(i).map(|&(_, n)| n)
}

/// Make a new SC node for thread `tid`, chained in program order.
fn new_sc_node(st: &mut ExecState, tid: usize) -> ScNode {
    let n = st.sc.new_node();
    if let Some(p) = st.threads[tid].last_sc {
        st.sc.add_edge(p, n);
    }
    st.threads[tid].last_sc = Some(n);
    n
}

/// Edges required to let a load (SC node `ln`, reader fence `fr`) skip the
/// stores after index `idx` — the contrapositives of C11 p4/p5/p6/p7.
fn stale_edges(
    st: &ExecState,
    addr: usize,
    idx: usize,
    ln: Option<ScNode>,
    fr: Option<ScNode>,
) -> Vec<(ScNode, ScNode)> {
    let loc = match st.mem.peek(addr) {
        Some(l) => l,
        None => return Vec::new(),
    };
    let mut es = Vec::new();
    for s in &loc.stores[idx + 1..] {
        if let Some(sn) = s.sc_node {
            if let Some(ln) = ln {
                es.push((ln, sn));
            }
            if let Some(fr) = fr {
                es.push((fr, sn));
            }
        }
        if let Some(w) = s.writer {
            if let Some(fw) = fence_after(&st.threads[w], s.ts) {
                if let Some(ln) = ln {
                    es.push((ln, fw));
                }
                if let Some(fr) = fr {
                    es.push((fr, fw));
                }
            }
        }
    }
    es
}

/// Raise thread `tid`'s CoRR floor for `addr` to at least `idx`.
fn view_raise(t: &mut ThreadState, addr: usize, idx: u32) {
    let e = t.view.entry(addr).or_insert(0);
    if *e < idx {
        *e = idx;
        t.view_dirty = true;
    }
}

/// The thread's current view as a shared snapshot (reused until the view
/// next changes).
fn view_snapshot(t: &mut ThreadState) -> std::sync::Arc<View> {
    if t.view_dirty || t.view_snapshot.is_none() {
        let a = std::sync::Arc::new(t.view.clone());
        t.view_snapshot = Some(a.clone());
        t.view_dirty = false;
        a
    } else {
        t.view_snapshot.clone().expect("checked above")
    }
}

fn check_uaf(st: &ExecState, addr: usize) -> Result<(), Stop> {
    if st.mem.is_freed(addr) {
        Err(Stop::Failure(FailureKind::Uaf { addr }))
    } else {
        Ok(())
    }
}

/// Instrumented load.
pub(crate) fn load(addr: usize, ord: Ordering, seed: &dyn Fn() -> usize) -> Option<usize> {
    let (exec, tid) = current()?;
    exec.scheduled(tid, Pending::op(addr, false), |st, tid| {
        check_uaf(st, addr)?;
        st.threads[tid].clock.tick(tid);
        let ln = if is_sc(ord) {
            Some(new_sc_node(st, tid))
        } else {
            None
        };
        let fr = st.threads[tid].last_fence;
        let clock = st.threads[tid].clock;
        let own = st.threads[tid].view.get(&addr).copied().unwrap_or(0) as usize;
        let loc = st.mem.loc(addr, seed);
        let display = loc.display_id;
        let floor = loc.visibility_floor(own, &clock);
        let latest = loc.latest();
        let fresh = std::mem::take(&mut st.threads[tid].fresh_next);
        let idx = if st.cfg.mem == MemoryMode::Interleaving || floor == latest || fresh {
            latest
        } else {
            // Enumerate newest-first; the newest store is always
            // admissible, older ones only if the SC graph stays acyclic.
            let mut allowed = vec![latest];
            for i in (floor..latest).rev() {
                let es = stale_edges(st, addr, i, ln, fr);
                if let Some(added) = st.sc.add_edges_checked(&es) {
                    // Edges were only a satisfiability probe; withdraw and
                    // re-commit for the branch actually taken.
                    st.sc.remove_exact(&added);
                    allowed.push(i);
                }
            }
            let c = st.tape.choose(allowed.len() as u32, 0) as usize;
            let idx = allowed[c];
            if idx != latest {
                let es = stale_edges(st, addr, idx, ln, fr);
                let ok = st.sc.add_edges_checked(&es);
                debug_assert!(ok.is_some(), "probed-admissible candidate must commit");
            }
            idx
        };
        let loc = st.mem.loc(addr, seed);
        let rec = loc.stores[idx].clone();
        // Record reader anchors so SC stores (or writer-side fences) that
        // appear later in execution order pick up their retroactive
        // "must be SC-after this read" constraints.
        if let Some(ln) = ln {
            loc.readers.push((ln, idx as u32));
        }
        if let Some(fr) = fr {
            loc.readers.push((fr, idx as u32));
        }
        if let (Some(ln), Some(sn)) = (ln, rec.sc_node) {
            st.sc.add_edge(sn, ln);
        }
        view_raise(&mut st.threads[tid], addr, idx as u32);
        if is_acquire(ord) {
            if let Some(rel) = &rec.rel {
                st.threads[tid].clock.join(&rel.clock);
                let rv = rel.view.clone();
                if view_join(&mut st.threads[tid].view, &rv) {
                    st.threads[tid].view_dirty = true;
                }
            }
        }
        st.trace_ev(tid, || {
            format!(
                "load[{ord:?}] a{display} -> {:#x}{}",
                rec.val,
                if idx != latest { " (stale)" } else { "" }
            )
        });
        Ok(rec.val)
    })
}

/// Append a store record (shared by store/RMW paths); the caller commits
/// the value to the real atomic. Fails with `Stop::Pruned` when an SC
/// store's retroactive constraints contradict an earlier stale-read grant:
/// the execution prefix is not C11-consistent, so the branch is abandoned.
#[allow(clippy::too_many_arguments)]
fn push_store(
    st: &mut ExecState,
    tid: usize,
    addr: usize,
    val: usize,
    ord: Ordering,
    rel_extra: Option<RelState>,
    seed: &dyn Fn() -> usize,
) -> Result<u32, Stop> {
    let ts = st.threads[tid].clock.0[tid];
    let node = if is_sc(ord) {
        let n = new_sc_node(st, tid);
        // Same-location SC stores must appear in the SC order in
        // modification order.
        if let Some(&p) = st.sc_loc.last_sc_store.get(&addr) {
            st.sc.add_edge(p, n);
        }
        st.sc_loc.last_sc_store.insert(addr, n);
        Some(n)
    } else {
        None
    };
    if let Some(n) = node {
        // Retroactive p4/p5: every anchor that read an older store of this
        // location must precede this SC store in the SC order.
        let retro: Vec<(ScNode, ScNode)> = st
            .mem
            .loc(addr, seed)
            .readers
            .iter()
            .map(|&(a, _)| (a, n))
            .collect();
        if st.sc.add_edges_checked(&retro).is_none() {
            return Err(Stop::Pruned);
        }
    }
    let rel = if is_release(ord) {
        let mut clock = st.threads[tid].clock;
        let snap = view_snapshot(&mut st.threads[tid]);
        let view = match &rel_extra {
            // Release-sequence continuation that actually adds coverage:
            // fall back to a one-off combined map.
            Some(extra) => {
                clock.join(&extra.clock);
                let mut combined = (*snap).clone();
                if view_join(&mut combined, &extra.view) {
                    std::sync::Arc::new(combined)
                } else {
                    snap
                }
            }
            None => snap,
        };
        Some(RelState { clock, view })
    } else {
        // A non-release RMW continues the release sequence of the store it
        // replaced.
        rel_extra
    };
    let loc = st.mem.loc(addr, seed);
    loc.stores.push(StoreRec {
        val,
        writer: Some(tid),
        ts,
        rel,
        sc_node: node,
    });
    let latest = loc.latest() as u32;
    let display = loc.display_id;
    view_raise(&mut st.threads[tid], addr, latest);
    st.threads[tid].recent_stores.push((addr, latest));
    st.trace_ev(tid, || format!("store[{ord:?}] a{display} = {val:#x}"));
    Ok(latest)
}

/// Instrumented store. `commit` writes the real atomic (under the lock).
pub(crate) fn store(
    addr: usize,
    val: usize,
    ord: Ordering,
    seed: &dyn Fn() -> usize,
    commit: &dyn Fn(usize),
) -> Option<()> {
    let (exec, tid) = current()?;
    exec.scheduled(tid, Pending::op(addr, true), |st, tid| {
        check_uaf(st, addr)?;
        st.threads[tid].clock.tick(tid);
        push_store(st, tid, addr, val, ord, None, seed)?;
        commit(val);
        Ok(())
    })
}

/// Instrumented read-modify-write; returns the previous value.
pub(crate) fn rmw(
    addr: usize,
    ord: Ordering,
    f: &dyn Fn(usize) -> usize,
    seed: &dyn Fn() -> usize,
    commit: &dyn Fn(usize),
) -> Option<usize> {
    let (exec, tid) = current()?;
    exec.scheduled(tid, Pending::op(addr, true), |st, tid| {
        check_uaf(st, addr)?;
        st.threads[tid].clock.tick(tid);
        let prev = {
            let loc = st.mem.loc(addr, seed);
            loc.stores[loc.latest()].clone()
        };
        if is_acquire(ord) {
            if let Some(rel) = &prev.rel {
                st.threads[tid].clock.join(&rel.clock);
                let rv = rel.view.clone();
                if view_join(&mut st.threads[tid].view, &rv) {
                    st.threads[tid].view_dirty = true;
                }
            }
        }
        let new = f(prev.val);
        push_store(st, tid, addr, new, ord, prev.rel, seed)?;
        commit(new);
        Ok(prev.val)
    })
}

/// Instrumented compare-exchange. RMW semantics on success; a plain load of
/// the latest value on failure (spurious weak failures are not modelled).
pub(crate) fn cas(
    addr: usize,
    old: usize,
    new: usize,
    success: Ordering,
    failure: Ordering,
    seed: &dyn Fn() -> usize,
    commit: &dyn Fn(usize),
) -> Option<Result<usize, usize>> {
    let (exec, tid) = current()?;
    exec.scheduled(tid, Pending::op(addr, true), |st, tid| {
        check_uaf(st, addr)?;
        st.threads[tid].clock.tick(tid);
        let (latest, prev) = {
            let loc = st.mem.loc(addr, seed);
            let latest = loc.latest();
            (latest, loc.stores[latest].clone())
        };
        if prev.val == old {
            if is_acquire(success) {
                if let Some(rel) = &prev.rel {
                    st.threads[tid].clock.join(&rel.clock);
                    let rv = rel.view.clone();
                    if view_join(&mut st.threads[tid].view, &rv) {
                        st.threads[tid].view_dirty = true;
                    }
                }
            }
            push_store(st, tid, addr, new, success, prev.rel, seed)?;
            commit(new);
            Ok(Ok(prev.val))
        } else {
            let display = st.mem.loc(addr, seed).display_id;
            // A failed CAS is a load of the newest store. A SeqCst failed
            // CAS is an SC *read event*: it needs a graph node (program
            // order + rf) and a reader anchor, so later SC stores to this
            // location pick up the retroactive p4 constraint exactly as
            // they would for an SC load.
            if is_sc(failure) {
                let ln = new_sc_node(st, tid);
                if let Some(sn) = prev.sc_node {
                    st.sc.add_edge(sn, ln);
                }
                let loc = st.mem.loc(addr, seed);
                loc.readers.push((ln, latest as u32));
            }
            view_raise(&mut st.threads[tid], addr, latest as u32);
            if is_acquire(failure) {
                if let Some(rel) = &prev.rel {
                    st.threads[tid].clock.join(&rel.clock);
                    let rv = rel.view.clone();
                    if view_join(&mut st.threads[tid].view, &rv) {
                        st.threads[tid].view_dirty = true;
                    }
                }
            }
            st.trace_ev(tid, || format!("cas-fail a{display} -> {:#x}", prev.val));
            Ok(Err(prev.val))
        }
    })
}

/// Instrumented fence: returns `true` when the caller must fall through to
/// the real `std` fence (no live execution). Only SeqCst fences exist in
/// the instrumented crates; inside an execution the fence joins the global
/// SC-fence clock both ways (SC fences are totally ordered by execution
/// order) and becomes an SC node for the graph-side fence rules.
pub(crate) fn fence_or_passthrough(ord: Ordering) -> bool {
    if current().is_none() {
        return true;
    }
    assert!(
        is_sc(ord),
        "lfc-model supports SeqCst fences only (got {ord:?})"
    );
    fence_model(ord).is_none()
}

fn fence_model(_ord: Ordering) -> Option<()> {
    let (exec, tid) = current()?;
    exec.scheduled(tid, Pending::fence(), |st, tid| {
        let ts = st.threads[tid].clock.tick(tid);
        let n = new_sc_node(st, tid);
        st.threads[tid].fences.push((ts, n));
        st.threads[tid].last_fence = Some(n);
        // Fences are totally ordered by execution order (matching the
        // bidirectional clock join below); chain them in the graph so
        // fence-fence constraints are explicit.
        if let Some(p) = st.last_global_fence {
            st.sc.add_edge(p, n);
        }
        st.last_global_fence = Some(n);
        // Retroactive p6: a write sequenced before this fence constrains
        // every anchor that read an older store of the written location to
        // be SC-before this fence.
        let mine = std::mem::take(&mut st.threads[tid].recent_stores);
        let mut retro: Vec<(ScNode, ScNode)> = Vec::new();
        for (addr, idx) in mine {
            if let Some(loc) = st.mem.peek(addr) {
                for &(a, k) in &loc.readers {
                    if k < idx {
                        retro.push((a, n));
                    }
                }
            }
        }
        if st.sc.add_edges_checked(&retro).is_none() {
            return Err(Stop::Pruned);
        }
        // Clocks join through the fence pair (write visibility: C++17
        // [atomics.order] p6 — a write sequenced before an earlier SC
        // fence is seen by reads after a later one). Read-views
        // deliberately do NOT: read-read coherence through SC fences is
        // the C++20/P0668 strengthening, absent from the C11/C++17 model
        // this repo's ordering audit reasons in — and the stale-tag bug
        // class lives exactly in that gap.
        let fc = st.sc_fence_clock;
        st.threads[tid].clock.join(&fc);
        let tc = st.threads[tid].clock;
        st.sc_fence_clock.join(&tc);
        st.trace_ev(tid, || "fence[SeqCst]".to_string());
        Ok(())
    })
}

/// Instrumented spin hint / yield: a scheduling point that forces the
/// baton to another runnable thread whenever one exists.
pub(crate) fn yield_point() -> Option<()> {
    let (exec, tid) = current()?;
    exec.scheduled(tid, Pending::yields(), |st, tid| {
        st.threads[tid].fresh_next = true;
        st.trace_ev(tid, || "yield".to_string());
        Ok(())
    })
}

impl Mem {
    /// Read-only peek used while probing candidates.
    pub(crate) fn peek(&self, addr: usize) -> Option<&crate::mem::Loc> {
        self.peek_loc(addr)
    }
}
