//! Contention-adaptive front-end for composed operations (PR 7): the
//! **claim-pattern group commit**.
//!
//! A composed move pays one CASN publication per logical operation. Under
//! contention — many threads targeting the same hot structure words — the
//! engine's retry rule turns into a retry *storm*: every commit failure
//! re-runs init phases and re-publishes descriptors against the same words.
//! The standard cure (Cederman et al., "Lock-free Concurrent Data
//! Structures" survey; the claim pattern of atomic-try-update: *enqueue
//! concurrently, process sequentially, exactly once, without mutexes*) is
//! to **batch**: contending threads enqueue request records onto a shared
//! claim list with one CAS each, and a single drainer processes the batch
//! sequentially — turning k-way CAS contention on structure words into
//! k-way CAS contention on one *claim head*, which is cheap because a push
//! never retries against a committed descriptor.
//!
//! # Protocol
//!
//! A [`BatchGate`] owns a pooled two-word header:
//!
//! * `incoming` — a Treiber-style claim list of request nodes; submitters
//!   push with a plain CAS loop;
//! * `batch` — the list currently being drained, or 0.
//!
//! Submit: allocate a [`BatchOp`] request node, park its address in the
//! dedicated [`slot::CLAIM`] hazard (named hazards survive ejection *and*
//! zombie partitioning, so the node outlives any stall of its owner), push
//! it onto `incoming`, then spin on the node's **result flag** — helping
//! and eventually self-executing, see *Lock-freedom* below.
//!
//! Claim: any thread may atomically detach the whole incoming list and
//! install it as the batch with **one DCAS** `[incoming: h→0, batch: 0→h]`
//! — the same commit the compositions themselves use.
//! Because the claim is a single atomic step there is no window in which
//! the list is detached but not yet owned: a stalled claimer either hasn't
//! claimed (incoming intact, anyone can claim) or has (batch set, anyone
//! can drain).
//!
//! Drain: walk the batch; every node whose flag is still
//! [`FLAG_PENDING`] is executed through the engine with the flag folded
//! into the commit as an extra CASN entry `flag: PENDING → outcome`. That
//! entry is the **exactly-once** guarantee: two drainers racing on the
//! same request each include the same `PENDING → done` transition, and
//! k-CAS semantics let at most one of those commits succeed — the loser's
//! whole CASN fails atomically, structure words untouched. Outcomes that
//! don't commit anything (source empty, target rejected) are finalized by
//! a plain CAS on the flag, with the same exactly-once argument.
//!
//! After the walk, if every flag is resolved, the drainer clears `batch`
//! with a CAS `h → 0`; the unique winner of that CAS retires the chain.
//! Waiters still reading their flag are protected by their CLAIM hazard
//! (retired ≠ freed), helpers by the flag entries' `hp` adoption.
//!
//! # Lock-freedom
//!
//! No step blocks on another thread's progress:
//!
//! * a stalled **submitter** delays nobody — its node is drained by others
//!   and its CLAIM hazard merely defers the free;
//! * a stalled **claimer** holds nothing: claiming is one DCAS, and DCAS
//!   is lock-free (helpable);
//! * a stalled **drainer** mid-batch does not strand the batch — draining
//!   is idempotent (flags are exactly-once), so any other thread may walk
//!   the same batch and finish the remaining requests;
//! * a waiter's spin is not a lock wait: after a bounded spin it *helps*
//!   (claims/drains itself), and after a further bound it **self-executes**
//!   its own request directly — safe under the flag's exactly-once CAS —
//!   so a thread finishes its operation in a bounded number of its own
//!   steps once contention subsides, regardless of what every other thread
//!   does.
//!
//! # Adaptivity
//!
//! The gate keeps a racy *heat* counter (saturating relaxed RMWs). While
//! cool, submits run the plain composition directly with a small
//! commit-failure budget ([`Engine`]'s `fail_budget`); an attempt
//! that burns the budget warms the gate and falls back to the batched
//! path. Cooling happens on **both** regimes — a direct success decays the
//! counter, and so does every fully drained batch (charged once, to the
//! drain's unique clear winner) — so a hot gate, whose submits never run
//! direct attempts, still cools back under the hot threshold once
//! contention subsides and returns to the solo fast path. The uncontended path
//! therefore never touches the claim list, preserving single-thread
//! latency.

use crate::compose::{
    drive_move_one, drive_move_to_all, drive_swap, move_verdict, swap_verdict, Engine, SwapOutcome,
};
use crate::keyed::{at_each, At};
use crate::sync::{spin_loop, yield_now, AtomicUsize, Ordering};
use crate::{KeyedMoveSource, KeyedMoveTarget, LinPoint, MoveOutcome, MoveSource, MoveTarget};
use lfc_dcas::{commit_entries, CasnEntry, CasnResult, DAtomic, Word, MAX_ENTRIES};
use lfc_hazard::{pin, pin_op, slot, Guard, OpGuard, RetireInfo};
use lfc_runtime::fault::site;
use lfc_runtime::CachePadded;
use std::alloc::Layout;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, Ordering as SOrd};

/// A request's result flag before it resolves. Must be 0: nodes are
/// zero-flag-initialized before publication, and the claim DCAS uses 0 as
/// the "no batch" sentinel.
pub const FLAG_PENDING: Word = 0;

/// Outcome codes are `code << 3`: word-encoding bits `[2:0]` (kind + user
/// mark) stay clear, so every done value is a valid *raw* protocol word —
/// the flag lives in a [`DAtomic`] that CASN helpers read and write.
const CODE_SHIFT: u32 = 3;

/// Encode a [`MoveOutcome`] as a flag word (nonzero, multiple of 8).
pub fn encode_move(o: MoveOutcome) -> Word {
    let code: Word = match o {
        MoveOutcome::Moved => 1,
        MoveOutcome::SourceEmpty => 2,
        MoveOutcome::TargetRejected => 3,
        MoveOutcome::WouldAlias => 4,
    };
    code << CODE_SHIFT
}

/// Decode a flag word produced by a move-shaped [`BatchOp`].
///
/// # Panics
///
/// Panics on a word that is not an encoded [`MoveOutcome`] (e.g. the
/// result of a swap-shaped request).
pub fn decode_move(w: Word) -> MoveOutcome {
    match w >> CODE_SHIFT {
        1 => MoveOutcome::Moved,
        2 => MoveOutcome::SourceEmpty,
        3 => MoveOutcome::TargetRejected,
        4 => MoveOutcome::WouldAlias,
        _ => panic!("not an encoded MoveOutcome: {w:#x}"),
    }
}

/// Encode a [`SwapOutcome`] as a flag word (codes disjoint from
/// [`encode_move`]'s so cross-decoding panics instead of lying).
pub fn encode_swap(o: SwapOutcome) -> Word {
    let code: Word = match o {
        SwapOutcome::Swapped => 5,
        SwapOutcome::FirstEmpty => 6,
        SwapOutcome::SecondEmpty => 7,
        SwapOutcome::Rejected => 8,
        SwapOutcome::WouldAlias => 9,
    };
    code << CODE_SHIFT
}

/// Decode a flag word produced by a swap-shaped [`BatchOp`].
///
/// # Panics
///
/// Panics on a word that is not an encoded [`SwapOutcome`].
pub fn decode_swap(w: Word) -> SwapOutcome {
    match w >> CODE_SHIFT {
        5 => SwapOutcome::Swapped,
        6 => SwapOutcome::FirstEmpty,
        7 => SwapOutcome::SecondEmpty,
        8 => SwapOutcome::Rejected,
        9 => SwapOutcome::WouldAlias,
        _ => panic!("not an encoded SwapOutcome: {w:#x}"),
    }
}

/// A request the gate can batch.
///
/// `Copy` is a *soundness* requirement, not a convenience: request nodes
/// are reclaimed through the deferred hazard/epoch machinery, possibly
/// after the borrows inside the request (`&'a LfHashMap`, …) have ended.
/// The deferred free never reads the request — but drop glue would, so
/// the type system forbids it ever existing.
pub trait BatchOp: Copy + Send + Sync {
    /// Run the operation directly (no flag, no batch) with a commit-failure
    /// budget. Returns the encoded outcome, or `None` if the attempt
    /// *starved* — burned the whole budget on commit failures — in which
    /// case the gate falls back to the batched path.
    fn try_direct(&self, fail_budget: u32) -> Option<Word>;

    /// Execute the request with `flag` folded into the commit as a
    /// `PENDING → outcome` CASN entry (exactly-once). `node_hp` is the
    /// base address of the allocation containing `flag`, passed as the
    /// entry's helper-adoption address. Returns the encoded outcome if
    /// *this call* resolved the flag, `None` if a racing executor won.
    ///
    /// The caller must keep the flag's allocation protected (CLAIM hazard
    /// or an operation epoch that read it from a live batch).
    fn run_flagged(&self, flag: &DAtomic, node_hp: usize) -> Option<Word>;
}

// ---------------------------------------------------------------------------
// Flagged runs: a shape driver with the result flag as an extra CASN entry.
// (`flagged_move_one` / `direct_move_one` are free functions because custom
// `BatchOp`s build on them; the other shapes live in their `BatchOp` impls.)
// ---------------------------------------------------------------------------

/// The flagged terminal stage: capture `flag: PENDING → done` as the
/// plan's last entry and commit. Under the model checker's
/// `SKIP_FLAG_ENTRY` toggle this instead commits *without* the flag entry
/// and publishes the flag by a separate CAS afterwards — the naive handoff
/// protocol whose double-commit window the model scenario exists to catch.
fn flagged_commit(eng: &mut Engine, flag: &DAtomic, done: Word, node_hp: usize) -> bool {
    #[cfg(lfc_model)]
    if crate::model_toggles::skip_flag_entry() {
        let ok = eng.commit_without_flag();
        if ok {
            let _ = flag.cas_word(FLAG_PENDING, done);
        }
        return ok;
    }
    eng.capture(
        eng.plan() - 1,
        &LinPoint {
            word: flag,
            old: FLAG_PENDING,
            new: done,
            hp: node_hp,
        },
    ) && eng.commit()
}

/// Publish a no-commit outcome (source empty, rejection) by a plain flag
/// CAS. `None` means a racing executor resolved the request first — or is
/// mid-commit on it (its descriptor occupies the flag word), in which case
/// the drain pass re-checks before clearing the batch.
fn finalize(flag: &DAtomic, done: Word) -> Option<Word> {
    if flag.cas_word(FLAG_PENDING, done) {
        Some(done)
    } else {
        None
    }
}

/// Pin, and hand the guard back iff the request is still unresolved.
fn still_pending(flag: &DAtomic) -> Option<Guard> {
    let g = pin();
    (flag.read(&g) == FLAG_PENDING).then_some(g)
}

/// The two verdict words of a shape that a flagged run treats specially.
#[derive(Clone, Copy)]
struct ShapeWords {
    /// The shape's success verdict — the `new` of the flag entry.
    done: Word,
    /// Its permanent-rejection verdict — what an abort maps to when
    /// nothing else explains it.
    rejected: Word,
}

/// [`ShapeWords`] of the three move-shaped requests.
fn move_words() -> ShapeWords {
    ShapeWords {
        done: encode_move(MoveOutcome::Moved),
        rejected: encode_move(MoveOutcome::TargetRejected),
    }
}

/// [`ShapeWords`] of a swap.
fn swap_words() -> ShapeWords {
    ShapeWords {
        done: encode_swap(SwapOutcome::Swapped),
        rejected: encode_swap(SwapOutcome::Rejected),
    }
}

/// Map a flagged run's verdict word to its flag resolution.
///
/// `None` leaves the request for another round: a racing executor resolved
/// it (or is mid-commit on it).
fn settle(g: &Guard, flag: &DAtomic, verdict: Word, w: ShapeWords) -> Option<Word> {
    if verdict == w.done {
        // The CASN — flag entry included — succeeded: the flag already
        // holds our done word.
        return Some(verdict);
    }
    if verdict == w.rejected && flag.read(g) != FLAG_PENDING {
        // The abort was the flag entry failing inside our CASN (or a
        // downstream consequence): somebody else resolved the request.
        // Exactly-once held; we lost.
        return None;
    }
    finalize(flag, verdict)
}

/// `move_one` with the result flag folded into the commit (plan: remove,
/// insert, flag).
pub fn flagged_move_one<T, S, D>(src: &S, dst: &D, flag: &DAtomic, node_hp: usize) -> Option<Word>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    let g = still_pending(flag)?;
    let w = move_words();
    let mut eng = Engine::new(3);
    let outcome = drive_move_one(&mut eng, src, dst, |eng: &mut Engine| {
        flagged_commit(eng, flag, w.done, node_hp)
    });
    settle(&g, flag, encode_move(move_verdict(&eng, &outcome)), w)
}

// ---------------------------------------------------------------------------
// Direct (budgeted) runs for the adaptive fast path.
// ---------------------------------------------------------------------------

/// A direct attempt's result: `None` = starved on contention — fall back
/// to the gate / retry.
fn direct_word(eng: &Engine, verdict: Word) -> Option<Word> {
    if eng.starved() {
        None
    } else {
        Some(verdict)
    }
}

/// Budgeted `move_one`.
pub fn direct_move_one<T, S, D>(src: &S, dst: &D, fail_budget: u32) -> Option<Word>
where
    T: Clone,
    S: MoveSource<T> + ?Sized,
    D: MoveTarget<T> + ?Sized,
{
    let mut eng = Engine::new(2);
    eng.set_fail_budget(fail_budget);
    let outcome = drive_move_one(&mut eng, src, dst, Engine::commit);
    direct_word(&eng, encode_move(move_verdict(&eng, &outcome)))
}

// ---------------------------------------------------------------------------
// The gate.
// ---------------------------------------------------------------------------

/// Two-word gate header, an `lfc-alloc` block of its own so the claim
/// DCAS's helpers can adopt it by base address, like structure headers.
#[repr(C)]
struct GateHeader {
    /// Claim list: submitters push request nodes here (Treiber-style).
    incoming: DAtomic,
    /// The list currently being drained (0 = none). Set only by the claim
    /// DCAS, cleared only by the unique drain-completion CAS.
    batch: DAtomic,
}

/// One batched request. `repr(C)` with the atomic link first: the base
/// address doubles as the protocol word pushed onto the claim list, and
/// must be 8-aligned (raw-word encoding).
#[repr(C)]
struct BatchNode<R> {
    /// Successor in the claim/batch list (base address, 0 = end). Written
    /// before publication; re-written only by the owner's push loop.
    next: AtomicUsize,
    /// Result flag: [`FLAG_PENDING`] until resolved, then an encoded
    /// outcome. May transiently hold a commit descriptor — always access
    /// through [`DAtomic::read`] under a guard.
    flag: DAtomic,
    /// Allocation era (zombie-partition evidence, as for structure nodes).
    birth: usize,
    /// The request itself. `R: Copy`, so the node carries no drop glue.
    req: R,
}

fn try_alloc_batch_node<R: BatchOp>(
    req: R,
    fg: lfc_runtime::fault::FaultGate,
) -> Result<*mut BatchNode<R>, lfc_alloc::AllocError> {
    // Site check ahead of the allocator so injection reaches this path
    // independently of `"alloc.block"`.
    if fg.check(site::BATCH_NODE) {
        return Err(lfc_alloc::AllocError);
    }
    let p = lfc_alloc::try_alloc_block(Layout::new::<BatchNode<R>>())?.cast::<BatchNode<R>>();
    // Safety: fresh, correctly sized and aligned block.
    unsafe {
        p.as_ptr().write(BatchNode {
            next: AtomicUsize::new(0),
            flag: DAtomic::new(FLAG_PENDING),
            birth: lfc_hazard::birth_era(),
            req,
        });
    }
    debug_assert_eq!(p.as_ptr() as usize & 0b111, 0);
    Ok(p.as_ptr())
}

/// Reclaimer *and* zombie-tier divert: `R: Copy` means no drop glue, so
/// both are the same plain free — and, crucially, the deferred free never
/// dereferences the request, whose borrows may have ended by then.
unsafe fn free_batch_node<R>(p: *mut u8) {
    // Safety: retire contract — last reference.
    unsafe { lfc_alloc::free_block(p, Layout::new::<BatchNode<R>>()) };
}

/// # Safety
///
/// The node must be unlinked from both gate lists (drain-completion CAS
/// won, or gate teardown).
unsafe fn retire_batch_node<R>(p: *mut BatchNode<R>) {
    // Safety: single retire call reads the plain birth field.
    let birth = unsafe { (*p).birth };
    // Safety: forwarded.
    unsafe {
        lfc_hazard::retire_with(
            p as *mut u8,
            free_batch_node::<R>,
            RetireInfo {
                bytes: std::mem::size_of::<BatchNode<R>>(),
                birth,
                divert: Some(free_batch_node::<R>),
            },
        )
    };
}

/// Retire every node of an unlinked chain.
///
/// # Safety
///
/// The chain must be unreachable from the gate words.
unsafe fn retire_list<R>(mut cur: Word) {
    while cur != 0 {
        let p = cur as *mut BatchNode<R>;
        // Safety: chain nodes are live until retired below; `next` is
        // read before its node is handed to the reclamation domain.
        cur = unsafe { (*p).next.load(Ordering::Acquire) };
        // Safety: forwarded from the caller's unlink.
        unsafe { retire_batch_node(p) };
    }
}

unsafe fn reclaim_gate_header(p: *mut u8) {
    // Safety: retire contract; DAtomics are plain words, no drop glue.
    unsafe { lfc_alloc::free_block(p, Layout::new::<GateHeader>()) };
}

/// Rounds a waiter spins on its flag before it starts helping
/// (claiming/draining). Small: on an oversubscribed core, spinning only
/// burns the drainer's quantum.
#[cfg(not(lfc_model))]
const SPIN_ROUNDS: u32 = 24;
#[cfg(lfc_model)]
const SPIN_ROUNDS: u32 = 0;

/// Helping rounds before a waiter self-executes its own request (the
/// lock-freedom escape hatch). Under the model checker this is 1 so every
/// interleaving terminates within the step budget.
#[cfg(not(lfc_model))]
const SELF_EXEC_ROUNDS: u32 = 128;
#[cfg(lfc_model)]
const SELF_EXEC_ROUNDS: u32 = 1;

/// Claim attempts per [`BatchGate::advance`] call before handing control
/// back to the waiter loop (each failure means a rival pushed or claimed —
/// progress elsewhere).
const CLAIM_ATTEMPTS: u32 = 4;

/// Heat level at which submits stop attempting the direct path.
const HEAT_HOT: u32 = 8;
const HEAT_MAX: u32 = 16;

/// Commit failures a direct attempt may absorb before starving (see
/// [`BatchGate::with_direct_budget`]).
pub const DEFAULT_DIRECT_BUDGET: u32 = 3;

/// The claim-pattern group-commit front-end (module docs). One gate per
/// contended composition hot spot; requests of type `R` submitted through
/// it execute exactly once, lock-free, batching under contention and
/// running the plain composition when cool.
pub struct BatchGate<R: BatchOp> {
    header: NonNull<GateHeader>,
    /// Racy contention estimate (heuristic only — no protocol decision's
    /// correctness depends on it, so it stays on `std` atomics and
    /// `Relaxed`, invisible to the model checker).
    heat: CachePadded<AtomicU32>,
    direct_budget: u32,
    _req: PhantomData<R>,
}

// Safety: the gate shares `R` values (executed by whichever thread drains
// them) and pooled nodes across threads; `BatchOp: Send + Sync + Copy`
// covers the requests, and every node/header access follows the hazard
// protocol.
unsafe impl<R: BatchOp> Send for BatchGate<R> {}
unsafe impl<R: BatchOp> Sync for BatchGate<R> {}

impl<R: BatchOp> Default for BatchGate<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: BatchOp> BatchGate<R> {
    /// A gate with the default direct budget.
    pub fn new() -> Self {
        Self::with_direct_budget(DEFAULT_DIRECT_BUDGET)
    }

    /// A gate whose cool-path direct attempts absorb up to `budget` commit
    /// failures before falling back to the batched path. `0` disables the
    /// direct path entirely (see [`BatchGate::always_batched`]).
    pub fn with_direct_budget(budget: u32) -> Self {
        // No `"batch.gate"` site check here: the infallible constructor
        // keeps working while injection is armed (only `try_*` surfaces
        // injected failures).
        let p = lfc_alloc::alloc_block(Layout::new::<GateHeader>()).cast::<GateHeader>();
        Self::from_header(p, budget)
    }

    /// Fallible [`new`](Self::new): gate-header allocation failure
    /// (injected at the `"batch.gate"` site, or genuine exhaustion)
    /// surfaces as `Err`.
    pub fn try_new() -> Result<Self, lfc_alloc::AllocError> {
        if lfc_runtime::fault::check(site::BATCH_GATE) {
            return Err(lfc_alloc::AllocError);
        }
        let p = lfc_alloc::try_alloc_block(Layout::new::<GateHeader>())?.cast::<GateHeader>();
        Ok(Self::from_header(p, DEFAULT_DIRECT_BUDGET))
    }

    fn from_header(p: NonNull<GateHeader>, budget: u32) -> Self {
        // Safety: fresh block.
        unsafe {
            p.as_ptr().write(GateHeader {
                incoming: DAtomic::new(0),
                batch: DAtomic::new(0),
            });
        }
        BatchGate {
            header: p,
            heat: CachePadded::new(AtomicU32::new(0)),
            direct_budget: budget,
            _req: PhantomData,
        }
    }

    /// A gate that routes *every* submit through the claim list — the
    /// model checker and fuzzer use this to pin all executions on the
    /// batched protocol.
    pub fn always_batched() -> Self {
        Self::with_direct_budget(0)
    }

    fn header(&self) -> &GateHeader {
        // Safety: the header lives until `Drop` retires it.
        unsafe { self.header.as_ref() }
    }

    fn header_addr(&self) -> usize {
        self.header.as_ptr() as usize
    }

    /// Saturating RMWs (not load+store pairs): a heuristic may be racy in
    /// *when* it reacts, but a lost `warm` would delay the batched
    /// fallback under exactly the contention it exists to detect, so the
    /// counter tracks contention monotonically. Relaxed is still fine —
    /// no protocol decision's correctness rides on the value.
    fn warm(&self) {
        let _ = self.heat.fetch_update(SOrd::Relaxed, SOrd::Relaxed, |h| {
            Some((h + 3).min(HEAT_MAX))
        });
    }

    fn cool(&self) {
        // `None` on zero: saturate without dirtying the shared line.
        let _ = self
            .heat
            .fetch_update(SOrd::Relaxed, SOrd::Relaxed, |h| h.checked_sub(1));
    }

    /// Submit a request and wait (helping, never blocking) for its result
    /// word. While the gate is cool a direct budgeted attempt runs first,
    /// so the uncontended path never touches the claim list.
    pub fn submit(&self, req: R) -> Word {
        if self.direct_budget > 0 && self.heat.load(SOrd::Relaxed) < HEAT_HOT {
            match req.try_direct(self.direct_budget) {
                Some(w) => {
                    self.cool();
                    counters::note_direct();
                    return w;
                }
                None => self.warm(),
            }
        }
        self.submit_batched(req)
    }

    fn submit_batched(&self, req: R) -> Word {
        counters::note_batched();
        // One armed-flag load covers this submit's fault sites
        // (`batch.node` here, `batch.submitted` after publication).
        let fg = lfc_runtime::fault::gate();
        let node = match try_alloc_batch_node(req, fg) {
            Ok(n) => n,
            Err(_) => {
                // No memory for a request node: degrade to direct execution
                // with an effectively unbounded commit budget (one that
                // does run out just starts another).
                loop {
                    if let Some(w) = req.try_direct(u32::MAX) {
                        return w;
                    }
                }
            }
        };
        let addr = node as usize;
        let g = pin();
        debug_assert_eq!(g.get(slot::CLAIM), 0, "batched submits do not nest");
        // The CLAIM hazard covers the node from before publication until
        // we have read our result: it is what makes the final flag read
        // safe after a drainer retires the chain, and — being a named
        // hazard — it survives ejection and zombie partitioning even if
        // this thread stalls for whole eras while waiting.
        g.set(slot::CLAIM, addr);
        loop {
            let h = self.header().incoming.read(&g);
            // Safety: unpublished, uniquely owned until the CAS below.
            unsafe { (*node).next.store(h, Ordering::Release) };
            if self.header().incoming.cas_word(h, addr) {
                // Killable (fault-injection) only once the request is
                // published: any later claimer drains and executes it, so
                // a submitter's death here leaves a request the *gate
                // traffic itself* completes — the corpse's CLAIM hazard
                // keeps the node alive until adoption clears its bank.
                fg.check_kill(site::BATCH_SUBMITTED);
                let result = self.await_done(&g, node, h == 0);
                g.clear(slot::CLAIM);
                return result;
            }
            spin_loop();
        }
    }

    /// Spin on our own flag; help (claim/drain) after a bounded spin, and
    /// self-execute after a further bound — the waiter makes progress in
    /// its own steps no matter what every other thread does.
    fn await_done(&self, g: &Guard, node: *mut BatchNode<R>, leader: bool) -> Word {
        // Safety: CLAIM hazard (set by our caller) keeps the node mapped
        // and its flag word stable-after-resolve for the whole wait.
        let n = unsafe { &*node };
        // A leader helps at once; a follower spins first.
        let spin_rounds = if leader { 0 } else { SPIN_ROUNDS };
        let mut rounds: u32 = 0;
        loop {
            let w = n.flag.read(g);
            if w != FLAG_PENDING {
                return w;
            }
            if rounds >= spin_rounds {
                self.advance();
                if rounds >= SELF_EXEC_ROUNDS {
                    if let Some(w) = n.req.run_flagged(&n.flag, node as usize) {
                        counters::note_self_exec();
                        return w;
                    }
                }
                yield_now();
            } else {
                spin_loop();
            }
            rounds = rounds.saturating_add(1);
        }
    }

    /// One helping step: drain the current batch if there is one,
    /// otherwise try to claim the incoming list (one DCAS) and drain what
    /// we claimed. Bounded — returns to let the caller re-check its flag.
    fn advance(&self) {
        let mut og = pin_op();
        for _ in 0..CLAIM_ATTEMPTS {
            // A stall-ejection while helping: refresh the epoch and
            // re-read everything below from the live words.
            let _ = og.repin_if_ejected();
            let b = self.header().batch.read(&og);
            if b != 0 {
                self.drain_pass(&og, b);
                return;
            }
            let h = self.header().incoming.read(&og);
            if h == 0 {
                return;
            }
            // The claim: atomically detach the whole incoming list and
            // install it as the batch. One DCAS ⇒ no partially-claimed
            // state a stalled claimer could strand; word-level transfer ⇒
            // a recycled head address (ABA) is harmless, we claim whatever
            // list is headed there *now*.
            let hp = self.header_addr();
            let claim = [
                CasnEntry {
                    ptr: &self.header().incoming,
                    old: h,
                    new: 0,
                    hp,
                },
                CasnEntry {
                    ptr: &self.header().batch,
                    old: 0,
                    new: h,
                    hp,
                },
            ];
            // Safety: both words live in the gate header, which outlives
            // every submit (`Drop` takes `&mut self`), and are distinct.
            if unsafe { commit_entries(&claim, &og) } == CasnResult::Success {
                self.drain_pass(&og, h);
                return;
            }
            // FailedAt(0): a rival pushed or claimed — loop re-reads.
            // FailedAt(1): a rival claimed — the batch read drains it.
        }
    }

    /// Walk batch `b`, executing every still-pending request, and — if the
    /// walk leaves every flag resolved — clear the batch word; the unique
    /// clear winner retires the chain.
    fn drain_pass(&self, og: &OpGuard, b: Word) {
        let mut all_done = true;
        let mut cur = b;
        while cur != 0 {
            // Safety: we read `b` from the live batch word inside this
            // epoch, so the chain's retire (which follows the clear CAS)
            // cannot precede our epoch: every node is still mapped.
            let n = unsafe { &*(cur as *const BatchNode<R>) };
            if n.flag.read(og) == FLAG_PENDING {
                match n.req.run_flagged(&n.flag, cur) {
                    Some(_) => {}
                    None => {
                        // Lost to a racing executor. Almost always its
                        // resolution is visible by now; if the flag still
                        // reads pending (its commit is in flight), we must
                        // not clear the batch out from under the request.
                        if n.flag.read(og) == FLAG_PENDING {
                            all_done = false;
                        }
                    }
                }
            }
            cur = n.next.load(Ordering::Acquire);
        }
        if all_done && self.header().batch.cas_word(b, 0) {
            counters::note_batch_drained();
            // The cooling half of the gate's hysteresis: the direct path
            // only cools on *direct* successes, but a hot gate never runs
            // direct attempts, so without this the gate could never
            // return from the batched regime. One decay per drained batch
            // (charged to the unique clear winner, not to every
            // submitter) keeps the probe overhead amortized: contention
            // holds the gate hot via `warm` (+3 per starved probe) faster
            // than drains cool it (−1 per batch), while a subsiding load
            // walks heat back under `HEAT_HOT` and re-opens the solo fast
            // path.
            self.cool();
            // Safety: winning the clear CAS unlinked the chain; waiters
            // still reading their flags hold CLAIM hazards, helpers hold
            // the flag entries' hp — retire defers past all of them.
            unsafe { retire_list::<R>(b) };
        }
    }

    /// Drain whatever is pending without submitting (used by teardown
    /// paths and tests).
    pub fn help(&self) {
        self.advance();
    }
}

impl<R: BatchOp> Drop for BatchGate<R> {
    fn drop(&mut self) {
        // `&mut self`: every submit has returned, so every flag is
        // resolved; only unclaimed/uncleared chains and the header remain.
        // Safety: exclusive teardown unlinks both chains.
        unsafe {
            retire_list::<R>(self.header().incoming.load_word());
            retire_list::<R>(self.header().batch.load_word());
            lfc_hazard::retire_with(
                self.header.as_ptr() as *mut u8,
                reclaim_gate_header,
                RetireInfo {
                    bytes: std::mem::size_of::<GateHeader>(),
                    birth: lfc_hazard::BIRTH_UNKNOWN,
                    divert: Some(reclaim_gate_header),
                },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Ready-made request shapes.
// ---------------------------------------------------------------------------

/// A batched `move_one(src, dst)`.
pub struct MoveOneOp<'a, T, S: ?Sized, D: ?Sized> {
    src: &'a S,
    dst: &'a D,
    _elem: PhantomData<fn() -> T>,
}

impl<'a, T, S: ?Sized, D: ?Sized> MoveOneOp<'a, T, S, D> {
    /// Package a `move_one` request.
    pub fn new(src: &'a S, dst: &'a D) -> Self {
        MoveOneOp {
            src,
            dst,
            _elem: PhantomData,
        }
    }
}

impl<T, S: ?Sized, D: ?Sized> Clone for MoveOneOp<'_, T, S, D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, S: ?Sized, D: ?Sized> Copy for MoveOneOp<'_, T, S, D> {}

impl<T, S, D> BatchOp for MoveOneOp<'_, T, S, D>
where
    T: Clone,
    S: MoveSource<T> + Sync + ?Sized,
    D: MoveTarget<T> + Sync + ?Sized,
{
    fn try_direct(&self, fail_budget: u32) -> Option<Word> {
        direct_move_one(self.src, self.dst, fail_budget)
    }
    fn run_flagged(&self, flag: &DAtomic, node_hp: usize) -> Option<Word> {
        flagged_move_one(self.src, self.dst, flag, node_hp)
    }
}

/// A batched `move_keyed(src, key, dst)`.
pub struct MoveKeyedOp<'a, K, T, S: ?Sized, D: ?Sized> {
    src: &'a S,
    key: K,
    dst: &'a D,
    _elem: PhantomData<fn() -> T>,
}

impl<'a, K, T, S: ?Sized, D: ?Sized> MoveKeyedOp<'a, K, T, S, D> {
    /// Package a `move_keyed` request.
    pub fn new(src: &'a S, key: K, dst: &'a D) -> Self {
        MoveKeyedOp {
            src,
            key,
            dst,
            _elem: PhantomData,
        }
    }
}

impl<K: Copy, T, S: ?Sized, D: ?Sized> Clone for MoveKeyedOp<'_, K, T, S, D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Copy, T, S: ?Sized, D: ?Sized> Copy for MoveKeyedOp<'_, K, T, S, D> {}

impl<K, T, S, D> BatchOp for MoveKeyedOp<'_, K, T, S, D>
where
    K: Copy + Clone + Send + Sync,
    T: Clone,
    S: KeyedMoveSource<K, T> + Sync + ?Sized,
    D: KeyedMoveTarget<K, T> + Sync + ?Sized,
{
    fn try_direct(&self, fail_budget: u32) -> Option<Word> {
        let (src, dst) = (At::new(self.src, &self.key), At::new(self.dst, &self.key));
        direct_move_one(&src, &dst, fail_budget)
    }
    fn run_flagged(&self, flag: &DAtomic, node_hp: usize) -> Option<Word> {
        let (src, dst) = (At::new(self.src, &self.key), At::new(self.dst, &self.key));
        flagged_move_one(&src, &dst, flag, node_hp)
    }
}

/// A batched `move_keyed_to_all(src, key, dsts)`.
pub struct MoveKeyedToAllOp<'a, K, T, S: ?Sized, D: ?Sized> {
    src: &'a S,
    key: K,
    dsts: &'a [&'a D],
    _elem: PhantomData<fn() -> T>,
}

impl<'a, K, T, S: ?Sized, D: ?Sized> MoveKeyedToAllOp<'a, K, T, S, D> {
    /// Package a keyed fan-out request (1..=[`MAX_ENTRIES`]−2 targets; the
    /// flag entry uses one commit slot).
    pub fn new(src: &'a S, key: K, dsts: &'a [&'a D]) -> Self {
        MoveKeyedToAllOp {
            src,
            key,
            dsts,
            _elem: PhantomData,
        }
    }

    /// The number of targets. Both run sites refuse an empty or oversized
    /// target list.
    fn width(&self) -> usize {
        let n = self.dsts.len();
        assert!(
            (1..=MAX_ENTRIES - 2).contains(&n),
            "batched fan-out supports 1..={} targets",
            MAX_ENTRIES - 2
        );
        n
    }

    /// Run the fan-out over key views of the source and every target and
    /// encode its verdict.
    fn drive<F>(&self, eng: &mut Engine, tail: F) -> Word
    where
        K: Clone,
        T: Clone,
        S: KeyedMoveSource<K, T>,
        D: KeyedMoveTarget<K, T>,
        F: FnMut(&mut Engine) -> bool,
    {
        let views = at_each(self.dsts, &self.key);
        let src = At::new(self.src, &self.key);
        let outcome = drive_move_to_all(eng, &src, &views[..self.dsts.len()], tail);
        encode_move(move_verdict(eng, &outcome))
    }
}

impl<K: Copy, T, S: ?Sized, D: ?Sized> Clone for MoveKeyedToAllOp<'_, K, T, S, D> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Copy, T, S: ?Sized, D: ?Sized> Copy for MoveKeyedToAllOp<'_, K, T, S, D> {}

impl<K, T, S, D> BatchOp for MoveKeyedToAllOp<'_, K, T, S, D>
where
    K: Copy + Clone + Send + Sync,
    T: Clone,
    S: KeyedMoveSource<K, T> + Sync + ?Sized,
    D: KeyedMoveTarget<K, T> + Sync + ?Sized,
{
    fn try_direct(&self, fail_budget: u32) -> Option<Word> {
        let mut eng = Engine::new(1 + self.width());
        eng.set_fail_budget(fail_budget);
        let verdict = self.drive(&mut eng, Engine::commit);
        direct_word(&eng, verdict)
    }
    fn run_flagged(&self, flag: &DAtomic, node_hp: usize) -> Option<Word> {
        let plan = 2 + self.width();
        let g = still_pending(flag)?;
        let w = move_words();
        let mut eng = Engine::new(plan);
        let verdict = self.drive(&mut eng, |eng: &mut Engine| {
            flagged_commit(eng, flag, w.done, node_hp)
        });
        settle(&g, flag, verdict, w)
    }
}

/// A batched `swap(a, b)`.
pub struct SwapOp<'a, T, A: ?Sized, B: ?Sized> {
    a: &'a A,
    b: &'a B,
    _elem: PhantomData<fn() -> T>,
}

impl<'a, T, A: ?Sized, B: ?Sized> SwapOp<'a, T, A, B> {
    /// Package a `swap` request.
    pub fn new(a: &'a A, b: &'a B) -> Self {
        SwapOp {
            a,
            b,
            _elem: PhantomData,
        }
    }
}

impl<T, A: ?Sized, B: ?Sized> Clone for SwapOp<'_, T, A, B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, A: ?Sized, B: ?Sized> Copy for SwapOp<'_, T, A, B> {}

impl<T, A, B> BatchOp for SwapOp<'_, T, A, B>
where
    T: Clone,
    A: MoveSource<T> + MoveTarget<T> + Sync + ?Sized,
    B: MoveSource<T> + MoveTarget<T> + Sync + ?Sized,
{
    fn try_direct(&self, fail_budget: u32) -> Option<Word> {
        let mut eng = Engine::new(4);
        eng.set_fail_budget(fail_budget);
        let outcome = drive_swap(&mut eng, self.a, self.b, Engine::commit);
        direct_word(&eng, encode_swap(swap_verdict(&eng, &outcome)))
    }
    /// Plan: remove a, remove b, insert a, insert b, flag — five of the
    /// six entries.
    fn run_flagged(&self, flag: &DAtomic, node_hp: usize) -> Option<Word> {
        let g = still_pending(flag)?;
        let w = swap_words();
        let mut eng = Engine::new(5);
        let outcome = drive_swap(&mut eng, self.a, self.b, |eng: &mut Engine| {
            flagged_commit(eng, flag, w.done, node_hp)
        });
        settle(&g, flag, encode_swap(swap_verdict(&eng, &outcome)), w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal request: the direct path always succeeds, the flagged path
    /// resolves by the plain finalize CAS. Enough to drive the gate's
    /// submit/claim/drain machinery without any structure behind it.
    #[derive(Clone, Copy)]
    struct NoopOp;

    const TEST_DONE: Word = 8; // nonzero multiple of 8: a valid raw word

    impl BatchOp for NoopOp {
        fn try_direct(&self, _fail_budget: u32) -> Option<Word> {
            Some(TEST_DONE)
        }
        fn run_flagged(&self, flag: &DAtomic, _node_hp: usize) -> Option<Word> {
            finalize(flag, TEST_DONE)
        }
    }

    #[test]
    fn heat_saturates_at_both_ends() {
        let gate: BatchGate<NoopOp> = BatchGate::new();
        for _ in 0..10 {
            gate.warm();
        }
        assert_eq!(gate.heat.load(SOrd::Relaxed), HEAT_MAX);
        for _ in 0..(HEAT_MAX + 5) {
            gate.cool();
        }
        assert_eq!(gate.heat.load(SOrd::Relaxed), 0);
    }

    #[test]
    fn drained_batches_cool_a_hot_gate() {
        // Regression net for the one-way heat gate: a hot gate skips every
        // direct attempt, so only the batched path can cool it — each
        // fully drained batch must decay the counter, or one contention
        // burst pins the gate batched forever.
        let gate: BatchGate<NoopOp> = BatchGate::new();
        for _ in 0..6 {
            gate.warm();
        }
        assert!(
            gate.heat.load(SOrd::Relaxed) >= HEAT_HOT,
            "gate must start hot"
        );
        let mut submits = 0u32;
        while gate.heat.load(SOrd::Relaxed) >= HEAT_HOT {
            assert_eq!(gate.submit(NoopOp), TEST_DONE);
            submits += 1;
            assert!(
                submits <= HEAT_MAX + 1,
                "batched submits never cooled the gate"
            );
        }
        // Back under the threshold: submits run (and succeed on) the
        // direct path again, cooling further.
        let h = gate.heat.load(SOrd::Relaxed);
        let direct_before = counters::direct_ops();
        assert_eq!(gate.submit(NoopOp), TEST_DONE);
        assert!(gate.heat.load(SOrd::Relaxed) < h);
        assert!(counters::direct_ops() > direct_before);
    }
}

/// Diagnostic tallies for the adaptive front-end (plain `std` atomics:
/// nothing in the protocol reads them).
pub mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIRECT: AtomicU64 = AtomicU64::new(0);
    static BATCHED: AtomicU64 = AtomicU64::new(0);
    static DRAINED: AtomicU64 = AtomicU64::new(0);
    static SELF_EXEC: AtomicU64 = AtomicU64::new(0);

    pub(super) fn note_direct() {
        DIRECT.fetch_add(1, Ordering::Relaxed);
    }
    pub(super) fn note_batched() {
        BATCHED.fetch_add(1, Ordering::Relaxed);
    }
    pub(super) fn note_batch_drained() {
        DRAINED.fetch_add(1, Ordering::Relaxed);
    }
    pub(super) fn note_self_exec() {
        SELF_EXEC.fetch_add(1, Ordering::Relaxed);
    }

    /// Submits that completed on the direct (unbatched) path.
    pub fn direct_ops() -> u64 {
        DIRECT.load(Ordering::Relaxed)
    }
    /// Submits routed through the claim list.
    pub fn batched_ops() -> u64 {
        BATCHED.load(Ordering::Relaxed)
    }
    /// Batches fully drained and cleared.
    pub fn batches_drained() -> u64 {
        DRAINED.load(Ordering::Relaxed)
    }
    /// Waiters that resolved their own request via the escape hatch.
    pub fn self_execs() -> u64 {
        SELF_EXEC.load(Ordering::Relaxed)
    }
}
