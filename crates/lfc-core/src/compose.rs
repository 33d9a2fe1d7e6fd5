//! The unified composition engine: **one** state machine for every composed
//! operation.
//!
//! The seed reproduced the paper's §8 extension ("n operations on n
//! distinct objects") as three hand-duplicated `scas` state machines
//! (`move_one`, `move_keyed`, `move_to_all`) over two disjoint descriptor
//! engines. This module replaces all three with a single engine:
//!
//! * a composition is a nest of **stages**, each owning one entry index;
//!   stage *i* runs its operation (a remove or an insert, keyed or not),
//!   captures the operation's linearization-point CAS triple at its entry,
//!   and invokes stage *i*+1 from inside the capture;
//! * the innermost stage commits every captured entry through
//!   [`lfc_dcas::commit_entries`], where the paper's DCAS is the K=2
//!   specialization of CASN and both share pooled descriptors and the
//!   solo-regime fast path;
//! * a commit failure at entry *k* aborts the stages deeper than *k* and
//!   re-runs the init phase of exactly the operation owning entry *k* — the
//!   generalization of the paper's FIRSTFAILED/SECONDFAILED retry rule.
//!
//! Aliased entries (two linearization points on the **same** memory word —
//! e.g. a stack moved onto itself, or a swap involving a LIFO whose push
//! and pop linearize on one word) are detected generically at capture time
//! and surface as [`MoveOutcome::WouldAlias`] / [`SwapOutcome::WouldAlias`]:
//! a k-word CAS cannot express two CASes on one word.
//!
//! On top of the engine this module ships the compositions the three old
//! machines could not express — [`swap`], [`move_keyed_to_all`],
//! [`move_keyed_to_unkeyed`] — and the public [`Composition`] builder for
//! user-defined chains mixing keyed and unkeyed stages.
//!
//! # Hazard discipline: capture-time promotion (PR 3)
//!
//! Structure traversals are protected by an *operation epoch*
//! ([`lfc_hazard::pin_op`]) rather than per-node hazards, and each nested
//! stage's epoch ends when its operation returns — before the engine is
//! done with the captured entries (the engine drops after the outermost
//! remove returns, and DCAS/CASN helpers validate their adopted
//! protections against *hazards*, not epochs). The engine therefore
//! **promotes** every captured entry's allocation from epoch protection to
//! a dedicated [`slot::ENTRY0`] hazard slot at capture time — while the
//! capturing operation's epoch still covers it, so the protection is
//! continuous — and releases the slots when the composition resolves.
//! This is also what keeps nested same-role stages from clobbering each
//! other: every entry owns its own slot, so the *n*-th insert of a fan-out
//! can never overwrite the (*n*−1)-th insert's protection.
//!
//! # Ejection and composition (PR 6)
//!
//! The stall-robustness tier ([`lfc_hazard`]'s era/ejection machinery) needs
//! no engine support, for three reasons:
//!
//! * **Nested ops never restart.** [`lfc_hazard::OpGuard::repin_if_ejected`]
//!   refuses at nesting depth > 1, so an ejection observed by a stage that
//!   runs *inside* another stage's capture is deferred: the structure's
//!   retry-head check returns `false` and the op proceeds under the still-
//!   valid old-era protection (an ejection mark does not revoke protection —
//!   the marked slot keeps gating reclamation until the owner acknowledges).
//! * **ACK happens at outermost exit.** The outermost guard's drop stores 0
//!   to the epoch slot, which doubles as the ejection acknowledgement; by
//!   then the commit is decided; the ENTRY promotions are hazards and go
//!   when the engine drops.
//! * **Captured words survive ejection.** Promotion moves each captured
//!   entry's allocation to an ENTRY *hazard* slot, and hazards are immune to
//!   ejection — zombie partitioning only bypasses the epoch side of the free
//!   rule, never a named hazard. A composition whose thread is ejected (or
//!   even zombified) mid-commit therefore still holds every captured word.

use crate::{
    InsertCtx, InsertOutcome, KeyedMoveSource, KeyedMoveTarget, LinPoint, MoveOutcome, MoveSource,
    MoveTarget, RemoveCtx, RemoveOutcome, ScasResult,
};
use lfc_alloc::AllocError;
use lfc_dcas::{try_commit_entries, CasnEntry, CasnResult, DAtomic};
use lfc_hazard::{pin, slot, Guard};

pub use lfc_dcas::MAX_ENTRIES;

/// Maximum number of insert targets of a fan-out (`MAX_ENTRIES` minus the
/// remove entry).
pub const MAX_TARGETS: usize = MAX_ENTRIES - 1;

/// The stage that permanently ended a composition, for outcome reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dead {
    /// The remove at this stage found its source empty (or the key absent).
    Empty(usize),
    /// The insert at this stage was permanently rejected (bounded target
    /// full, duplicate key).
    Rejected(usize),
}

/// Shared state of one composition invocation: the captured entries plus
/// the retry bookkeeping the paper keeps in `desc`, `insfailed`, `ltarget`.
///
/// Opaque outside the crate — it appears in [`Stages`]' hidden method
/// signature but can only be constructed and driven by the engine itself.
pub struct Engine {
    g: Guard,
    entries: [CasnEntry; MAX_ENTRIES],
    count: usize,
    /// Total number of stages in this composition's plan.
    plan: usize,
    /// True until some attempt reaches a commit (paper's `insfailed`).
    no_commit: bool,
    aliased: bool,
    /// Entry index whose owning stage must redo its init phase.
    retry_at: Option<usize>,
    dead: Option<Dead>,
    /// Commit failures this composition may still absorb before giving up
    /// (`None` = unbounded, the default; see [`Engine::set_fail_budget`]).
    fail_budget: Option<u32>,
    /// Whether the composition aborted because `fail_budget` ran out
    /// (contention starvation), as opposed to a semantic rejection.
    starved: bool,
    /// A commit failed to allocate its descriptor; the composition aborted
    /// with nothing changed. The entry point decides what that means:
    /// `Err(AllocError)` (`try_*`), a panic (the infallible names), or a
    /// lost round (the batched front-end).
    oom: bool,
}

impl Engine {
    pub(crate) fn new(plan: usize) -> Engine {
        debug_assert!(
            (2..=MAX_ENTRIES).contains(&plan),
            "compositions span 2..={MAX_ENTRIES} stages"
        );
        debug_assert!(plan <= slot::ENTRY_COUNT);
        Engine {
            g: pin(),
            entries: [CasnEntry::default(); MAX_ENTRIES],
            count: 0,
            plan,
            no_commit: true,
            aliased: false,
            retry_at: None,
            dead: None,
            fail_budget: None,
            starved: false,
            oom: false,
        }
    }

    /// Whether a commit aborted on allocation failure.
    pub(crate) fn oom(&self) -> bool {
        self.oom
    }

    /// Bound the commit failures this composition may absorb. The batched
    /// front-end's *direct* attempts run with a small budget: a contended
    /// composition that burns through it aborts with [`Engine::starved`]
    /// set and falls back to the claim-list group commit instead of
    /// fighting the hot words.
    pub(crate) fn set_fail_budget(&mut self, fail_budget: u32) {
        self.fail_budget = Some(fail_budget);
    }

    /// Whether the composition aborted on budget exhaustion rather than a
    /// semantic rejection.
    pub(crate) fn starved(&self) -> bool {
        self.starved
    }

    /// Total number of stages (entries) in this composition's plan.
    pub(crate) fn plan(&self) -> usize {
        self.plan
    }

    /// Record stage `idx`'s linearization point; `false` means the word
    /// aliases an earlier entry and the stage must abort.
    pub(crate) fn capture(&mut self, idx: usize, lp: &LinPoint<'_>) -> bool {
        debug_assert!(idx < self.plan);
        if idx == 0 {
            // A fresh attempt from the outermost stage: nothing has
            // committed yet and no pending retry survives a full redo
            // (paper line M15 generalized).
            self.no_commit = true;
            self.retry_at = None;
        }
        let word = lp.word as *const DAtomic;
        if self.entries[..idx]
            .iter()
            .any(|e| std::ptr::eq(e.ptr, word))
        {
            self.aliased = true;
            return false;
        }
        self.entries[idx] = CasnEntry {
            ptr: word,
            old: lp.old,
            new: lp.new,
            hp: lp.hp,
        };
        self.count = idx + 1;
        // Capture-time promotion (module docs): the capturing operation's
        // epoch (or, for header words, its borrow) still covers `hp` here,
        // so publishing it in the engine-owned slot makes the protection
        // continuous — and the hazard then outlives the nested operations'
        // epochs, which end when they return, before the commit's
        // descriptor teardown and the engine's drop run. `promote` (Release) is
        // sufficient: scans sweep epochs before hazards, so a scan that
        // sees the covering epoch exited has acquired this store.
        self.g.promote(slot::ENTRY0 + idx, lp.hp);
        true
    }

    /// Commit every captured entry; returns the innermost stage's
    /// "deeper succeeded" verdict.
    pub(crate) fn commit(&mut self) -> bool {
        debug_assert_eq!(self.count, self.plan);
        self.commit_captured()
    }

    /// Seeded-bug support (`model_toggles::SKIP_FLAG_ENTRY`): commit only
    /// the structure entries captured so far — *without* the result-flag
    /// entry the batched front-end relies on for exactly-once execution.
    /// This is the naive handoff protocol: the flag is then published by a
    /// separate CAS after the commit, leaving a window in which a second
    /// drainer re-executes the request and double-commits. Exists only so
    /// the model checker can demonstrate it catches that bug.
    #[cfg(lfc_model)]
    pub(crate) fn commit_without_flag(&mut self) -> bool {
        self.commit_captured()
    }

    fn commit_captured(&mut self) -> bool {
        self.no_commit = false;
        // Safety: every entry was captured by `capture` from a live
        // `&DAtomic` whose allocation the owning operation's borrows and
        // hazards (plus the ENTRY* handoff slots) keep alive through this
        // call, and `capture` rejects aliased words, so the entries are
        // pairwise distinct.
        match unsafe { try_commit_entries(&self.entries[..self.count], &self.g) } {
            Ok(CasnResult::Success) => true,
            Ok(CasnResult::FailedAt(k)) => {
                self.retry_at = Some(k);
                false
            }
            Err(_) => {
                // Descriptor/RDCSS allocation failed with no word left
                // changed. `retry_at` stays `None` and `no_commit` is
                // false, so `resolve` aborts every stage and the entry
                // point reads `oom`.
                self.oom = true;
                false
            }
        }
    }

    /// Stage `idx` met a permanent obstacle of its own: its target rejected
    /// the element, or (an inner remove) its source was empty. The verdict
    /// claims an instant at which that obstacle coexisted with every
    /// shallower capture, so it only stands while each shallower captured
    /// word still holds its `old`. A rival that changed one since its
    /// capture (say, moved the same key source → target) may be the very
    /// reason the obstacle is there, and then no such instant exists. So
    /// re-read them: all current, and the verdict stands; otherwise the
    /// first stale stage redoes its init phase, exactly as if the commit
    /// had failed at that entry. That retry goes through [`Self::resolve`]
    /// and so spends one `fail_budget` unit on a budgeted direct attempt,
    /// like any commit failure.
    fn observe_dead(&mut self, idx: usize, dead: Dead) {
        let stale = self.entries[..idx].iter().position(|e| {
            // Safety: captured this attempt, so the ENTRY* promotion made in
            // `capture` still keeps the word's allocation alive.
            unsafe { &*e.ptr }.load_word() != e.old
        });
        match stale {
            Some(k) => {
                self.no_commit = false;
                self.retry_at = Some(k);
            }
            // A standing verdict ends the composition: every shallower
            // stage now aborts, so this is the only verdict recorded.
            None => self.dead = Some(dead),
        }
    }

    /// Translate a stage's "deeper" verdict into the `scas` result for the
    /// operation owning entry `idx` — the single copy of the
    /// FIRSTFAILED/SECONDFAILED generalization.
    fn resolve(&mut self, idx: usize, deeper_ok: bool) -> ScasResult {
        if deeper_ok {
            return ScasResult::Success;
        }
        if self.no_commit || self.aliased {
            // A deeper stage failed before any commit ran (or the
            // composition would alias): permanently abort.
            return ScasResult::Abort;
        }
        match self.retry_at {
            // Our captured CAS failed: redo this stage's init phase.
            Some(k) if k == idx => {
                // Budgeted attempt (batched front-end): each commit failure
                // spends one unit; exhaustion converts the retry into a
                // starvation abort that the caller routes to the group
                // commit. `retry_at` stays set so the outer stages observe
                // a post-commit abort, not a fresh-attempt one.
                if let Some(b) = self.fail_budget.as_mut() {
                    if *b == 0 {
                        self.starved = true;
                        return ScasResult::Abort;
                    }
                    *b -= 1;
                }
                self.retry_at = None;
                ScasResult::Fail
            }
            // An outer stage's entry must retry (or the deeper stages hit a
            // permanent rejection after a commit ran): abort this stage.
            _ => ScasResult::Abort,
        }
    }
}

impl Drop for Engine {
    /// Release the engine-owned entry protections — on the normal return
    /// path and when the composition is unwinding (a user element's
    /// panicking `Clone`, a refused descriptor under an infallible name)
    /// alike: leaving ENTRY slots published would silently pin their
    /// allocations forever. The whole plan range is cleared (not just
    /// `count`): a commit failure rewinds `count` while deeper entries'
    /// slots may still hold their last promotion.
    fn drop(&mut self) {
        if lfc_runtime::fault::thread_is_abandoning() {
            // A corpse's ENTRY protections must persist: helpers completing
            // its announced commit validate against the initiator's hazards
            // (Lemma 6). The whole bank is cleared when the corpse is
            // adopted (`lfc_hazard`'s tid finalizer).
            return;
        }
        for i in 0..self.plan {
            self.g.clear(slot::ENTRY0 + i);
        }
    }
}

/// The remove-side stage context: captures entry `idx`, then runs the rest
/// of the chain (deeper stages and the commit) via `cont`.
struct StageRemoveCtx<'a, F> {
    eng: &'a mut Engine,
    idx: usize,
    cont: F,
}

impl<T, F> RemoveCtx<T> for StageRemoveCtx<'_, F>
where
    F: FnMut(&mut Engine, &T) -> bool,
{
    fn scas(&mut self, lp: LinPoint<'_>, elem: &T) -> ScasResult {
        if !self.eng.capture(self.idx, &lp) {
            return ScasResult::Abort;
        }
        let deeper_ok = (self.cont)(self.eng, elem);
        self.eng.resolve(self.idx, deeper_ok)
    }
}

/// The insert-side stage context.
struct StageInsertCtx<'a, F> {
    eng: &'a mut Engine,
    idx: usize,
    cont: F,
    /// `scas` told the insert to abort, so a `Rejected` outcome relays a
    /// deeper stage's verdict (or an alias) instead of the target's own.
    aborted: bool,
}

impl<F> InsertCtx for StageInsertCtx<'_, F>
where
    F: FnMut(&mut Engine) -> bool,
{
    fn scas(&mut self, lp: LinPoint<'_>) -> ScasResult {
        let r = if self.eng.capture(self.idx, &lp) {
            let deeper_ok = (self.cont)(self.eng);
            self.eng.resolve(self.idx, deeper_ok)
        } else {
            ScasResult::Abort
        };
        self.aborted = r == ScasResult::Abort;
        r
    }
}

/// Run a stage's insert and fold its outcome into the "deeper succeeded"
/// verdict; the target's own rejection (bounded target full, duplicate
/// key) goes through [`Engine::observe_dead`].
fn insert_stage<F>(
    eng: &mut Engine,
    idx: usize,
    cont: F,
    insert: impl FnOnce(&mut StageInsertCtx<'_, F>) -> InsertOutcome,
) -> bool
where
    F: FnMut(&mut Engine) -> bool,
{
    let mut ctx = StageInsertCtx {
        eng,
        idx,
        cont,
        aborted: false,
    };
    match insert(&mut ctx) {
        InsertOutcome::Inserted => true,
        InsertOutcome::Rejected => {
            if !ctx.aborted {
                ctx.eng.observe_dead(idx, Dead::Rejected(idx));
            }
            false
        }
    }
}

/// Drive an unkeyed insert as stage `idx`.
fn run_insert<T, D, F>(eng: &mut Engine, idx: usize, dst: &D, elem: T, cont: F) -> bool
where
    D: MoveTarget<T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    insert_stage(eng, idx, cont, |ctx| dst.insert_with(elem, ctx))
}

/// Drive a keyed insert as stage `idx`.
fn run_insert_keyed<K, T, D, F>(
    eng: &mut Engine,
    idx: usize,
    dst: &D,
    key: K,
    elem: T,
    cont: F,
) -> bool
where
    D: KeyedMoveTarget<K, T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    insert_stage(eng, idx, cont, |ctx| dst.insert_key_with(key, elem, ctx))
}

/// Drive an unkeyed remove as stage `idx`, handing back its raw outcome
/// (the outermost stage's outcome is what the verdict mappings read).
fn remove_stage<T, S, F>(eng: &mut Engine, idx: usize, src: &S, cont: F) -> RemoveOutcome<T>
where
    S: MoveSource<T> + ?Sized,
    F: FnMut(&mut Engine, &T) -> bool,
{
    src.remove_with(&mut StageRemoveCtx { eng, idx, cont })
}

/// Drive a keyed remove as stage `idx`.
fn remove_key_stage<K, T, S, F>(
    eng: &mut Engine,
    idx: usize,
    src: &S,
    key: &K,
    cont: F,
) -> RemoveOutcome<T>
where
    S: KeyedMoveSource<K, T> + ?Sized,
    F: FnMut(&mut Engine, &T) -> bool,
{
    src.remove_key_with(key, &mut StageRemoveCtx { eng, idx, cont })
}

/// Drive an *inner* remove as stage `idx`, folding its outcome into the
/// "deeper succeeded" verdict.
fn run_remove<T, S, F>(eng: &mut Engine, idx: usize, src: &S, cont: F) -> bool
where
    S: MoveSource<T> + ?Sized,
    F: FnMut(&mut Engine, &T) -> bool,
{
    match remove_stage(eng, idx, src, cont) {
        RemoveOutcome::Removed(_) => true,
        RemoveOutcome::Empty => {
            eng.observe_dead(idx, Dead::Empty(idx));
            false
        }
        RemoveOutcome::Aborted => false,
    }
}

// ---------------------------------------------------------------------------
// One driver per composition shape. Each writes its stage nest once and
// takes the engine (set up by the caller: plan size, retry budget) and the
// terminal stage `tail` — [`Engine::commit`], or the batched front-end's
// flag-capturing commit. The plain, `try_`, `direct_*` and `flagged_*`
// entry points all call these and differ only in engine set-up and in how
// they map the returned outermost outcome to a verdict.
// ---------------------------------------------------------------------------

/// Shape `move_one`: remove (stage 0) → insert (stage 1) → `tail`.
pub(crate) fn drive_move_one<T, S, D, F>(
    eng: &mut Engine,
    src: &S,
    dst: &D,
    mut tail: F,
) -> RemoveOutcome<T>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    remove_stage(eng, 0, src, |eng: &mut Engine, elem: &T| {
        run_insert(eng, 1, dst, elem.clone(), &mut tail)
    })
}

/// Shape `move_keyed`: keyed remove → keyed insert (same key) → `tail`.
pub(crate) fn drive_move_keyed<K, T, S, D, F>(
    eng: &mut Engine,
    src: &S,
    key: &K,
    dst: &D,
    mut tail: F,
) -> RemoveOutcome<T>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    remove_key_stage(eng, 0, src, key, |eng: &mut Engine, elem: &T| {
        run_insert_keyed(eng, 1, dst, key.clone(), elem.clone(), &mut tail)
    })
}

/// Fan `elem` into every keyed target from stage `idx` on, then `tail`.
fn fan_out_keyed<K, T, D, F>(
    eng: &mut Engine,
    idx: usize,
    dsts: &[&D],
    key: &K,
    elem: &T,
    tail: &mut F,
) -> bool
where
    K: Clone,
    T: Clone,
    D: KeyedMoveTarget<K, T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    match dsts.split_first() {
        None => tail(eng),
        Some((first, rest)) => run_insert_keyed(
            eng,
            idx,
            *first,
            key.clone(),
            elem.clone(),
            |eng: &mut Engine| fan_out_keyed(eng, idx + 1, rest, key, elem, tail),
        ),
    }
}

/// Shape `move_keyed_to_all`: keyed remove → one keyed insert per target →
/// `tail`.
pub(crate) fn drive_move_keyed_to_all<K, T, S, D, F>(
    eng: &mut Engine,
    src: &S,
    key: &K,
    dsts: &[&D],
    mut tail: F,
) -> RemoveOutcome<T>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    remove_key_stage(eng, 0, src, key, |eng: &mut Engine, elem: &T| {
        fan_out_keyed(eng, 1, dsts, key, elem, &mut tail)
    })
}

/// Shape `swap`: remove a → remove b → insert b's element into a → insert
/// a's element into b → `tail`.
pub(crate) fn drive_swap<T, A, B, F>(
    eng: &mut Engine,
    a: &A,
    b: &B,
    mut tail: F,
) -> RemoveOutcome<T>
where
    T: Clone,
    A: MoveSource<T> + MoveTarget<T> + ?Sized,
    B: MoveSource<T> + MoveTarget<T> + ?Sized,
    F: FnMut(&mut Engine) -> bool,
{
    remove_stage(eng, 0, a, |eng: &mut Engine, x: &T| {
        run_remove(eng, 1, b, |eng: &mut Engine, y: &T| {
            run_insert(eng, 2, a, y.clone(), |eng: &mut Engine| {
                run_insert(eng, 3, b, x.clone(), &mut tail)
            })
        })
    })
}

/// Map the outermost remove's outcome to a [`MoveOutcome`].
pub(crate) fn move_verdict<T>(eng: &Engine, outcome: &RemoveOutcome<T>) -> MoveOutcome {
    match outcome {
        RemoveOutcome::Removed(_) => MoveOutcome::Moved,
        RemoveOutcome::Empty => MoveOutcome::SourceEmpty,
        RemoveOutcome::Aborted if eng.aliased => MoveOutcome::WouldAlias,
        RemoveOutcome::Aborted => MoveOutcome::TargetRejected,
    }
}

/// Map a swap's outermost remove outcome to a [`SwapOutcome`] — the single
/// copy of the swap verdict.
pub(crate) fn swap_verdict<T>(eng: &Engine, outcome: &RemoveOutcome<T>) -> SwapOutcome {
    match outcome {
        RemoveOutcome::Removed(_) => SwapOutcome::Swapped,
        RemoveOutcome::Empty => SwapOutcome::FirstEmpty,
        RemoveOutcome::Aborted if eng.aliased => SwapOutcome::WouldAlias,
        RemoveOutcome::Aborted if eng.dead == Some(Dead::Empty(1)) => SwapOutcome::SecondEmpty,
        RemoveOutcome::Aborted => SwapOutcome::Rejected,
    }
}

/// Shared epilogue of every `try_` entry point: surface the allocation
/// failure, or the mapped verdict.
fn conclude<V>(eng: &Engine, verdict: V) -> Result<V, AllocError> {
    if eng.oom() {
        Err(AllocError)
    } else {
        Ok(verdict)
    }
}

/// Where every infallible composition name routes the `Err` of its `try_`
/// twin: panic — unwinding, exactly as `lfc_alloc::alloc_block` does, with
/// nothing changed anywhere (the engine's `Drop` releases its
/// protections). A genuine descriptor exhaustion and an injected
/// `dcas.*` fault both arrive here.
pub(crate) fn infallible<V>(r: Result<V, AllocError>) -> V {
    r.unwrap_or_else(|e| panic!("lfc-core: commit descriptor allocation failed ({e})"))
}

/// Atomically move one element from `src` to `dst` (paper Algorithm 3).
///
/// Lock-free and linearizable when `src` and `dst` are lock-free move-ready
/// objects (paper Theorem 2): the element is never observable in both
/// objects, nor absent from both, at any point in time.
///
/// The element type must be `Clone`: the value is read (cloned) from the
/// source *before* the unified linearization point — move-candidate
/// requirement 4 — and materialized in the target's freshly allocated node.
///
/// A thin wrapper over the unified composition engine: the remove is
/// stage 0, the insert stage 1, and the commit is the K=2 (DCAS) case of
/// the k-entry commit.
pub fn move_one<T, S, D>(src: &S, dst: &D) -> MoveOutcome
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    infallible(try_move_one(src, dst))
}

/// Fallible [`move_one`]: a commit-descriptor allocation failure (genuine
/// exhaustion, or injected via `lfc_runtime::fault`'s `"dcas.desc"` /
/// `"dcas.casn"` / `"dcas.rdcss"` sites) surfaces as `Err` with both
/// objects untouched, instead of panicking. The solo-regime fast path
/// allocates nothing and cannot fail.
pub fn try_move_one<T, S, D>(src: &S, dst: &D) -> Result<MoveOutcome, AllocError>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    let mut eng = Engine::new(2);
    let outcome = drive_move_one(&mut eng, src, dst, Engine::commit);
    conclude(&eng, move_verdict(&eng, &outcome))
}

/// Atomically move the element stored under `key` from `src` to `dst`
/// (keeping its key). Returns [`MoveOutcome::SourceEmpty`] when the key is
/// absent from the source and [`MoveOutcome::TargetRejected`] when the
/// target already holds the key (or is full).
///
/// A thin wrapper over the unified composition engine (keyed remove at
/// stage 0, keyed insert at stage 1).
pub fn move_keyed<K, T, S, D>(src: &S, key: &K, dst: &D) -> MoveOutcome
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    infallible(try_move_keyed(src, key, dst))
}

/// Fallible [`move_keyed`]: a commit-descriptor allocation failure
/// (genuine exhaustion, or injected via `lfc_runtime::fault`) surfaces as
/// `Err` with both objects untouched, instead of panicking.
pub fn try_move_keyed<K, T, S, D>(src: &S, key: &K, dst: &D) -> Result<MoveOutcome, AllocError>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    let mut eng = Engine::new(2);
    let outcome = drive_move_keyed(&mut eng, src, key, dst, Engine::commit);
    conclude(&eng, move_verdict(&eng, &outcome))
}

/// Fan `elem` into every target from stage `idx` on, committing innermost.
fn fan_out<T, D>(eng: &mut Engine, idx: usize, dsts: &[&D], elem: &T) -> bool
where
    T: Clone,
    D: MoveTarget<T> + ?Sized,
{
    match dsts.split_first() {
        None => eng.commit(),
        Some((first, rest)) => {
            run_insert(eng, idx, *first, elem.clone(), move |eng: &mut Engine| {
                fan_out(eng, idx + 1, rest, elem)
            })
        }
    }
}

/// Atomically remove one element from `src` and insert a clone of it into
/// **each** target in `dsts` — the n-object move of the paper's conclusion
/// (§8). Linearizable and lock-free when all objects are lock-free
/// move-ready objects; no concurrent observer can see the element in only
/// a strict subset of `{dsts...}` after removal, or in both the source and
/// any target.
///
/// The remove is stage 0, each target's insert one further stage, and the
/// innermost stage commits every captured entry through the k-entry commit
/// (K=2 dispatches to the paper's DCAS, larger fan-outs to CASN). A commit
/// failure at entry k re-runs the init phase of exactly the operation that
/// owns entry k — the generalization of the FIRSTFAILED/SECONDFAILED retry
/// rule — and a failure *before* any commit aborts the whole composition.
///
/// # Panics
///
/// Panics if `dsts` is empty or holds more than [`MAX_TARGETS`] targets.
pub fn move_to_all<T, S, D>(src: &S, dsts: &[&D]) -> MoveOutcome
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    infallible(try_move_to_all(src, dsts))
}

/// Fallible [`move_to_all`]: a commit-descriptor allocation failure
/// surfaces as `Err` with every object untouched, instead of panicking.
///
/// # Panics
///
/// As [`move_to_all`], on an empty or oversized `dsts`.
pub fn try_move_to_all<T, S, D>(src: &S, dsts: &[&D]) -> Result<MoveOutcome, AllocError>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    assert!(
        !dsts.is_empty() && dsts.len() <= MAX_TARGETS,
        "move_to_all supports 1..={MAX_TARGETS} targets"
    );
    let mut eng = Engine::new(1 + dsts.len());
    let outcome = remove_stage(&mut eng, 0, src, |eng: &mut Engine, elem: &T| {
        fan_out(eng, 1, dsts, elem)
    });
    conclude(&eng, move_verdict(&eng, &outcome))
}

/// Atomically remove the element stored under `key` in `src` and insert a
/// clone of it — under the same key — into **each** target in `dsts`: the
/// keyed fan-out the old per-shape state machines could not express.
///
/// Returns [`MoveOutcome::SourceEmpty`] when the key is absent,
/// [`MoveOutcome::TargetRejected`] when any target already holds the key
/// (all-or-nothing: the other targets are left untouched).
///
/// # Panics
///
/// Panics if `dsts` is empty or holds more than [`MAX_TARGETS`] targets.
pub fn move_keyed_to_all<K, T, S, D>(src: &S, key: &K, dsts: &[&D]) -> MoveOutcome
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    infallible(try_move_keyed_to_all(src, key, dsts))
}

/// Fallible [`move_keyed_to_all`]: descriptor allocation failure surfaces
/// as `Err` with nothing changed anywhere.
pub fn try_move_keyed_to_all<K, T, S, D>(
    src: &S,
    key: &K,
    dsts: &[&D],
) -> Result<MoveOutcome, AllocError>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: KeyedMoveTarget<K, T> + ?Sized,
{
    assert!(
        !dsts.is_empty() && dsts.len() <= MAX_TARGETS,
        "move_keyed_to_all supports 1..={MAX_TARGETS} targets"
    );
    let mut eng = Engine::new(1 + dsts.len());
    let outcome = drive_move_keyed_to_all(&mut eng, src, key, dsts, Engine::commit);
    conclude(&eng, move_verdict(&eng, &outcome))
}

/// Atomically move the element stored under `key` in a *keyed* source into
/// an *unkeyed* target (e.g. a hash map → a queue): the key is dropped and
/// the element crosses container shapes in one linearization point.
/// Equivalent to
/// `Composition::moving_key_from(src, key).into_target(dst).run()`.
pub fn move_keyed_to_unkeyed<K, T, S, D>(src: &S, key: &K, dst: &D) -> MoveOutcome
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    infallible(try_move_keyed_to_unkeyed(src, key, dst))
}

/// Fallible [`move_keyed_to_unkeyed`].
pub fn try_move_keyed_to_unkeyed<K, T, S, D>(
    src: &S,
    key: &K,
    dst: &D,
) -> Result<MoveOutcome, AllocError>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    Composition::moving_key_from(src, key)
        .into_target(dst)
        .try_run()
}

/// Outcome of a composed [`swap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapOutcome {
    /// One element of each object changed places atomically: no concurrent
    /// observer could see a state with zero or two of either element.
    Swapped,
    /// The first object had nothing to remove.
    FirstEmpty,
    /// The second object had nothing to remove.
    SecondEmpty,
    /// One of the inserts was permanently rejected (bounded target full,
    /// duplicate key); nothing changed anywhere.
    Rejected,
    /// Two of the four linearization points landed on the same memory word
    /// — e.g. a LIFO stack, whose push and pop both linearize on `top`, or
    /// `swap(x, x)`. A k-word CAS cannot express that; use containers whose
    /// insert and remove linearize on distinct words (queues do).
    WouldAlias,
}

/// Atomically exchange one element between `a` and `b`: remove `x` from
/// `a`, remove `y` from `b`, insert `y` into `a` and `x` into `b`, all at a
/// single linearization point — a four-entry composition no pair of moves
/// can express (two sequential moves expose a state where both elements
/// sit in one object).
///
/// Works for containers whose insert and remove linearize on distinct
/// words (FIFO queues, the one-slot container when distinct); LIFO stacks
/// linearize push and pop on the same `top` word, which a k-word CAS
/// cannot express — those report [`SwapOutcome::WouldAlias`].
pub fn swap<T, A, B>(a: &A, b: &B) -> SwapOutcome
where
    T: Clone,
    A: MoveSource<T> + MoveTarget<T> + ?Sized,
    B: MoveSource<T> + MoveTarget<T> + ?Sized,
{
    infallible(try_swap(a, b))
}

/// Fallible [`swap`]: descriptor allocation failure surfaces as `Err`
/// with both objects untouched.
pub fn try_swap<T, A, B>(a: &A, b: &B) -> Result<SwapOutcome, AllocError>
where
    T: Clone,
    A: MoveSource<T> + MoveTarget<T> + ?Sized,
    B: MoveSource<T> + MoveTarget<T> + ?Sized,
{
    let mut eng = Engine::new(4);
    let outcome = drive_swap(&mut eng, a, b, Engine::commit);
    conclude(&eng, swap_verdict(&eng, &outcome))
}

mod sealed {
    /// Seals [`super::Stages`]: stage chains are built only through the
    /// [`super::Composition`] builder.
    pub trait Sealed {}
    impl Sealed for super::Commit {}
    impl<D: ?Sized, C> Sealed for super::InsertStage<'_, D, C> {}
    impl<K, D: ?Sized, C> Sealed for super::KeyedInsertStage<'_, K, D, C> {}
}

/// A compiled chain of insert stages (sealed; constructed by
/// [`Composition`]'s builder methods).
pub trait Stages<T>: sealed::Sealed {
    /// Number of insert stages in the chain.
    const LEN: usize;
    #[doc(hidden)]
    fn run_chain(&self, eng: &mut Engine, idx: usize, elem: &T) -> bool;
}

/// The terminal chain element: commits every captured entry.
pub struct Commit;

/// An unkeyed insert stage.
pub struct InsertStage<'a, D: ?Sized, C> {
    dst: &'a D,
    rest: C,
}

/// A keyed insert stage (inserts under its own key, which may differ from
/// the source's — an atomic *re-key* is a valid composition).
pub struct KeyedInsertStage<'a, K, D: ?Sized, C> {
    dst: &'a D,
    key: &'a K,
    rest: C,
}

impl<T> Stages<T> for Commit {
    const LEN: usize = 0;
    fn run_chain(&self, eng: &mut Engine, _idx: usize, _elem: &T) -> bool {
        eng.commit()
    }
}

impl<T, D, C> Stages<T> for InsertStage<'_, D, C>
where
    T: Clone,
    D: MoveTarget<T> + ?Sized,
    C: Stages<T>,
{
    const LEN: usize = 1 + C::LEN;
    fn run_chain(&self, eng: &mut Engine, idx: usize, elem: &T) -> bool {
        run_insert(eng, idx, self.dst, elem.clone(), |eng: &mut Engine| {
            self.rest.run_chain(eng, idx + 1, elem)
        })
    }
}

impl<K, T, D, C> Stages<T> for KeyedInsertStage<'_, K, D, C>
where
    K: Clone,
    T: Clone,
    D: KeyedMoveTarget<K, T> + ?Sized,
    C: Stages<T>,
{
    const LEN: usize = 1 + C::LEN;
    fn run_chain(&self, eng: &mut Engine, idx: usize, elem: &T) -> bool {
        run_insert_keyed(
            eng,
            idx,
            self.dst,
            self.key.clone(),
            elem.clone(),
            |eng: &mut Engine| self.rest.run_chain(eng, idx + 1, elem),
        )
    }
}

/// The unkeyed source of a [`Composition`].
pub struct Source<'a, T, S: ?Sized> {
    src: &'a S,
    _elem: std::marker::PhantomData<fn() -> T>,
}

/// The keyed source of a [`Composition`].
pub struct KeyedSource<'a, K, T, S: ?Sized> {
    src: &'a S,
    key: &'a K,
    _elem: std::marker::PhantomData<fn() -> T>,
}

/// A builder for composed operations over the unified engine.
///
/// A composition removes one element from its source and inserts clones of
/// it into every accumulated target — any mix of keyed and unkeyed stages,
/// up to [`MAX_ENTRIES`] linearization points in total — committing all of
/// them at a single linearization point.
///
/// ```
/// use lfc_core::compose::Composition;
/// use lfc_core::MoveOutcome;
/// use lfc_structures::{LfHashMap, MsQueue, TreiberStack};
///
/// let sessions: LfHashMap<u64, String> = LfHashMap::new();
/// let work: MsQueue<String> = MsQueue::new();
/// let audit: TreiberStack<String> = TreiberStack::new();
/// sessions.insert(7, "session-7".into());
///
/// // Atomically take key 7 out of the map and deliver the payload to BOTH
/// // unkeyed containers: no observer can ever see it in the map and a
/// // queue at once, or in one queue but not the other.
/// let outcome = Composition::moving_key_from(&sessions, &7)
///     .into_target(&work)
///     .into_target(&audit)
///     .run();
/// assert_eq!(outcome, MoveOutcome::Moved);
/// assert!(!sessions.contains(&7));
/// assert_eq!(work.dequeue().as_deref(), Some("session-7"));
/// assert_eq!(audit.pop().as_deref(), Some("session-7"));
/// ```
pub struct Composition<Src, C> {
    source: Src,
    chain: C,
}

impl<'a, T, S: ?Sized> Composition<Source<'a, T, S>, Commit> {
    /// Start a composition that removes its element from the unkeyed `src`.
    pub fn moving_from(src: &'a S) -> Self {
        Composition {
            source: Source {
                src,
                _elem: std::marker::PhantomData,
            },
            chain: Commit,
        }
    }
}

impl<'a, K, T, S: ?Sized> Composition<KeyedSource<'a, K, T, S>, Commit> {
    /// Start a composition that removes the element under `key` from the
    /// keyed `src`.
    pub fn moving_key_from(src: &'a S, key: &'a K) -> Self {
        Composition {
            source: KeyedSource {
                src,
                key,
                _elem: std::marker::PhantomData,
            },
            chain: Commit,
        }
    }
}

impl<Src, C> Composition<Src, C> {
    /// Add an unkeyed insert target.
    pub fn into_target<D: ?Sized>(self, dst: &D) -> Composition<Src, InsertStage<'_, D, C>> {
        Composition {
            source: self.source,
            chain: InsertStage {
                dst,
                rest: self.chain,
            },
        }
    }

    /// Add a keyed insert target, inserting under `key`.
    pub fn into_keyed_target<'b, K, D: ?Sized>(
        self,
        dst: &'b D,
        key: &'b K,
    ) -> Composition<Src, KeyedInsertStage<'b, K, D, C>> {
        Composition {
            source: self.source,
            chain: KeyedInsertStage {
                dst,
                key,
                rest: self.chain,
            },
        }
    }
}

impl<T, S, C> Composition<Source<'_, T, S>, C>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    C: Stages<T>,
{
    /// Execute the composition. Lock-free and linearizable when every
    /// object involved is a lock-free move-ready object.
    pub fn run(&self) -> MoveOutcome {
        infallible(self.try_run())
    }

    /// Fallible [`run`](Self::run): descriptor allocation failure surfaces
    /// as `Err` with nothing changed anywhere.
    pub fn try_run(&self) -> Result<MoveOutcome, AllocError> {
        assert!(
            (1..=MAX_TARGETS).contains(&C::LEN),
            "a composition takes 1..={MAX_TARGETS} insert stages"
        );
        let mut eng = Engine::new(1 + C::LEN);
        let outcome = remove_stage(
            &mut eng,
            0,
            self.source.src,
            |eng: &mut Engine, elem: &T| self.chain.run_chain(eng, 1, elem),
        );
        conclude(&eng, move_verdict(&eng, &outcome))
    }
}

impl<K, T, S, C> Composition<KeyedSource<'_, K, T, S>, C>
where
    K: Clone,
    T: Clone,
    S: KeyedMoveSource<K, T> + ?Sized,
    C: Stages<T>,
{
    /// Execute the composition (keyed source).
    pub fn run(&self) -> MoveOutcome {
        infallible(self.try_run())
    }

    /// Fallible [`run`](Self::run): descriptor allocation failure surfaces
    /// as `Err` with nothing changed anywhere.
    pub fn try_run(&self) -> Result<MoveOutcome, AllocError> {
        assert!(
            (1..=MAX_TARGETS).contains(&C::LEN),
            "a composition takes 1..={MAX_TARGETS} insert stages"
        );
        let mut eng = Engine::new(1 + C::LEN);
        let outcome = remove_key_stage(
            &mut eng,
            0,
            self.source.src,
            self.source.key,
            |eng: &mut Engine, elem: &T| self.chain.run_chain(eng, 1, elem),
        );
        conclude(&eng, move_verdict(&eng, &outcome))
    }
}
