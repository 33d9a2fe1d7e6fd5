//! Hazard-pointer memory reclamation, after Michael,
//! *Hazard Pointers: Safe Memory Reclamation for Lock-Free Objects* (2004) —
//! the scheme the paper's objects and DCAS use (reference \[17\] in the paper).
//!
//! One process-global domain holds a fixed bank of hazard slots per
//! registered thread. Threads protect an allocation by publishing its base
//! address into one of their slots and re-validating the source pointer;
//! retired allocations are kept in per-thread bags and reclaimed by a scan
//! that frees everything no slot protects.
//!
//! # Slot convention
//!
//! The composition protocol needs several simultaneously live protections
//! per thread (paper §5: `hp1..hp4`, and the adopted protections of DCAS
//! lines D2–D3; the paper's descriptor hazard `hpd` has no slot, because
//! descriptors are per-thread static records that are never reclaimed).
//! Fixed roles are assigned in [`slot`] so the layers never clobber each
//! other:
//!
//! * the adopted protections of a helper (lines D2–D3), one per commit
//!   entry: [`slot::HELP0`]..
//! * the composition engine's per-entry protections: [`slot::ENTRY0`]..
//!   (insert and remove *must not share* hazard slots — paper requirement 2
//!   discussion: shared hazard pointers would let a move's insert overwrite
//!   its remove's protections. The structures protect traversal with
//!   epochs, so the disjointness lives in these per-entry promotions)
//! * the batch-claim and elimination-camp hazards: [`slot::CLAIM`],
//!   [`slot::ELIM`]
//!
//! # Epoch-batched traversal protection (PR 3)
//!
//! Per-node hazard publication costs a store-load fence per pointer hop —
//! three orders of magnitude more than the 0.37 ns quiet-word load it
//! guards. Traversal therefore uses *epoch* protection (Brown's DEBRA /
//! Fraser-style EBR): a thread enters a cache-padded per-thread epoch slot
//! **once per operation** ([`pin_op`], one fence), walks any number of
//! nodes with plain acquire loads, and publishes per-node hazards only at
//! the handoff points the composition protocol requires — the captured
//! linearization entries (`ENTRY*`, promoted at capture time by the
//! engine) and helper adoptions (`HELP*`), which keep their slots and
//! orderings untouched.
//!
//! # Retire contract (unified domain)
//!
//! Both regimes retire into one domain. `retire(p, f)` may be called once
//! the allocation has been unlinked such that
//!
//! * any traversal that *starts* (enters its epoch) after the retire cannot
//!   reach the allocation through the live structure, and
//! * any thread that later finds a stale pointer to it through shared
//!   memory and wants to dereference it under a *hazard* will fail its
//!   validation step (set slot, re-read source, compare).
//!
//! Each scan seals the records its thread retired since the previous scan
//! into one *bag* (DEBRA-style limbo bags) and tags the bag with the
//! **maximum** of that scan's post-fence read of the global epoch and every
//! entry epoch its reader sweep observed. The max closes a stale-read hole:
//! an unrelated scan can advance the epoch just before the unlink with
//! nothing ordering the tagging scan's read after that advance, so the read
//! alone may come back stale; an active reader *above* it proves the
//! staleness, and every reader that could still hold a pre-unlink path is
//! visible to the sweep by the SC fence-fence rule (see
//! `collect_protection`). A scan frees the record only when **both**
//! conditions hold: the tag is older than every active reader's entry epoch
//! (so no in-flight traversal can still hold a pre-unlink pointer), **and**
//! no hazard slot protects the block (so a
//! node pinned by an in-flight composed commit — an `ENTRY*`/`HELP*` slot
//! — survives even after all epochs quiesce). Sealed bags are freed oldest
//! first, and a scan stops at the first bag that is not clear, so each
//! record is examined once, by the scan that frees its bag. The DCAS
//! protocol retires nothing of its own: its descriptors are per-thread
//! static records reused under sequence numbers (see `lfc-dcas`).
//!
//! # Stall robustness: eras and ejection (PR 6)
//!
//! Epoch protection has a classic failure mode: one descheduled reader pins
//! its entry epoch forever and everything retired after it accumulates
//! without bound. The domain therefore carries a robustness tier
//! (see DESIGN.md "Reclamation regimes" for the proofs):
//!
//! * **Birth eras.** [`retire_with`] annotates a record with the era the
//!   allocation was *born* in ([`birth_era`], stamped before publication).
//!   A record born after a stalled reader's entry era is provably
//!   unreachable by that reader, so its garbage never charges to the stall.
//! * **Ejection (R1).** When a reader's pinned era lags more than the
//!   configured [`StallPolicy::stall_eras`] behind *and* retired garbage
//!   exceeds the byte/count budget, a scan CAS-marks the laggard's epoch
//!   slot with an ejection bit. The mark changes nothing about safety — an
//!   ejected slot still gates reclamation exactly like an active one — it
//!   is a *request*: the owner detects it at its next operation boundary
//!   ([`OpGuard::repin_if_ejected`]), drops the epoch (the acknowledgement)
//!   and restarts the operation under a fresh era instead of trusting
//!   protection it is about to lose. Captured words survive restarts via
//!   their `ENTRY*` hazard promotions, which ejection never touches.
//! * **Zombie tier (R2).** If the mark goes unacknowledged for
//!   [`StallPolicy::grace_eras`] more eras the slot is promoted to a
//!   *zombie* and stops gating the epoch condition. Records the zombie
//!   could still reach (tag ≥ its entry era) are then partitioned by birth
//!   era: born after the ejection era ⇒ freed normally (the stall cannot
//!   have captured a path to them); born before ⇒ *diverted* into
//!   type-stable limbo (the pool's size class is returned without running
//!   drop glue, so a reader that violates the park assumption and issues
//!   one more read lands on mapped pooled memory, never on unmapped or
//!   recycled-into-another-type bytes — VBR-style defense in depth); no
//!   divert function ⇒ retained (legacy [`retire`] callers keep full
//!   safety, at the cost of the bound). The set born before ejection is
//!   fixed at ejection time, so diverted leakage is bounded per stall.

#![warn(missing_docs)]

use crate::sync::{fence, AtomicPtr, AtomicUsize, Ordering};
use lfc_runtime::{
    current_tid, on_thread_exit, registered_high_water, thread_is_exiting, CachePadded,
    ShardedCounter, MAX_THREADS,
};
use std::cell::Cell;
use std::collections::VecDeque;

#[doc(hidden)]
pub mod sync;

/// Test-only toggles, available only under `--cfg lfc_model`: the model
/// checker's adversarial acceptance tests re-open fixed bugs behind these
/// switches and assert the bounded explorer rediscovers them.
#[cfg(lfc_model)]
pub mod model_toggles {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Revert the PR 3 stale-tag fix: when set, a scan seals its bag of
    /// retire records under its post-fence global-epoch read **alone**,
    /// without folding in the entry epochs its reader sweep observed. An
    /// unrelated advance just before the unlink can then leave the tag one
    /// generation stale and a pre-unlink reader gets freed under — the
    /// use-after-free the PR 3 review fix closed.
    pub static STALE_TAG_BUG: AtomicBool = AtomicBool::new(false);

    pub(crate) fn stale_tag_bug() -> bool {
        STALE_TAG_BUG.load(Ordering::Relaxed)
    }

    /// Disable the ejection-detection restart: when set,
    /// `OpGuard::repin_if_ejected` reports "not ejected" even when the
    /// thread's slot carries the mark, so an ejected reader keeps trusting
    /// protection the zombie tier has already stopped honouring. The model
    /// ejection scenarios assert the checker catches the resulting
    /// use-after-free (the diverted block is quarantined under the model).
    pub static SKIP_EJECT_RESTART: AtomicBool = AtomicBool::new(false);

    pub(crate) fn skip_eject_restart() -> bool {
        SKIP_EJECT_RESTART.load(Ordering::Relaxed)
    }
}

/// Named hazard-slot indices (roles) within a thread's slot bank.
pub mod slot {
    /// Base of the helper-adopted protections (lines D2–D3): entry `i`'s
    /// allocation goes in `HELP0 + i`.
    pub const HELP0: usize = 0;
    /// Number of helper slots (one per possible commit entry).
    pub const HELP_COUNT: usize = 6;
    /// Base of the composition engine's per-entry protections: at capture
    /// time the engine *promotes* each captured entry's allocation from
    /// the capturing operation's epoch into its own ENTRY slot
    /// (unconditionally since PR 3 — the nested operations' epochs end
    /// when they return, before the commit and `finish` run), keeping every entry word protected until the
    /// composition resolves. One slot per entry also keeps nested
    /// same-role stages from clobbering each other's protections.
    /// Disjoint from the HELP* range: ENTRY slots belong to the
    /// *initiating* thread's composition, HELP* to the same thread's
    /// *helping* of foreign commits (a `read` inside a nested operation can
    /// help a foreign commit mid-composition).
    pub const ENTRY0: usize = 6;
    /// Number of engine entry slots (one per possible commit entry).
    pub const ENTRY_COUNT: usize = 6;
    /// The batched-composition claim protection (PR 7): a submitter parks
    /// its request node's base address here for the whole submit — push,
    /// result spin-wait, helping — so the node survives even if the
    /// submitter is ejected and zombified while waiting (named hazards are
    /// immune to the zombie tier's birth-era partition, unlike epochs).
    /// The batch drainer that clears a batch retires its nodes; a waiter's
    /// CLAIM slot is what makes its final result-word read safe after that.
    pub const CLAIM: usize = 12;
    /// The elimination exchanger's camp protection (PR 7): a pusher parks
    /// its offered node's address here for as long as it camps on an
    /// exchanger slot. A claimed offer is *retired* (never freed
    /// directly), so this hazard is what closes the ABA window — the
    /// node's address cannot be recycled into a fresh offer the camping
    /// pusher's withdraw CAS could steal (see `lfc-structures::elim`).
    pub const ELIM: usize = 13;
}

/// Hazard slots per registered thread.
pub const SLOTS_PER_THREAD: usize = 14;

// The roles tile the bank: no two share a slot and none is left over.
const _: () = assert!(
    slot::HELP0 == 0
        && slot::ENTRY0 == slot::HELP0 + slot::HELP_COUNT
        && slot::CLAIM == slot::ENTRY0 + slot::ENTRY_COUNT
        && slot::ELIM == slot::CLAIM + 1
        && SLOTS_PER_THREAD == slot::ELIM + 1
);

/// One thread's hazard slots, cache-line padded: before padding,
/// neighbouring threads' banks shared lines in one flat array and every
/// hazard publication invalidated other threads' cached banks. The
/// alignment keeps each bank on its own aligned prefetch-pair of lines
/// (`14 × 8 = 112` bytes, padded to 128 by the alignment). The hot writers
/// are the `ENTRY*` promotions (every composed capture) and the `HELP*`
/// helper slots.
#[repr(align(128))]
struct SlotBank {
    slots: [AtomicUsize; SLOTS_PER_THREAD],
}

static SLOTS: [SlotBank; MAX_THREADS] = [const {
    SlotBank {
        slots: [const { AtomicUsize::new(0) }; SLOTS_PER_THREAD],
    }
}; MAX_THREADS];

/// One thread's epoch state, cache-line padded: `epoch` is scanned by
/// reclaiming threads, `nest` is owner-only (operations nest — a composed
/// move runs an insert inside its remove — and only the outermost
/// enter/exit touches the published epoch).
#[repr(align(128))]
struct EpochSlot {
    /// 0 = quiescent; otherwise the global epoch this thread's outermost
    /// in-flight operation entered at.
    epoch: AtomicUsize,
    /// Operation nesting depth. Owner-written only (Relaxed); shares the
    /// bank's line because every writer of `nest` is about to touch `epoch`
    /// anyway.
    nest: AtomicUsize,
}

static EPOCHS: [EpochSlot; MAX_THREADS] = [const {
    EpochSlot {
        epoch: AtomicUsize::new(0),
        nest: AtomicUsize::new(0),
    }
}; MAX_THREADS];

/// The global epoch. Starts at 1 so a zero epoch slot always means
/// "quiescent". Monotonically increasing; advanced by reclamation scans
/// (and by [`advance_epoch`] in tests). Padded: read on every operation
/// entry, written only on the cold scan path.
static GLOBAL_EPOCH: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(1));

/// Ejection request mark (R1) on an epoch slot: set by a scan, detected and
/// acknowledged by the owner. An `EJ`-marked slot still gates reclamation.
const EJ_BIT: usize = 1 << (usize::BITS - 1);
/// Zombie mark (R2): an unacknowledged ejection past the grace window. A
/// `Z`-marked slot no longer gates the epoch condition; records it could
/// reach go through the birth-era partition instead.
const Z_BIT: usize = 1 << (usize::BITS - 2);
/// Era payload of an epoch-slot word (the global epoch never reaches
/// 2^62, so the two mark bits can never collide with an era value).
const ERA_MASK: usize = Z_BIT - 1;

/// The era a scan last ejected each thread at: `fetch_max`ed *before* the
/// ejection CAS, read when promoting to zombie and when partitioning
/// zombie-pinned records by birth era. Monotone, so a stale value from a
/// lost ejection race or an earlier episode only ever widens the diverted
/// set (the conservative direction). Indexed by dense thread id.
static EJECT_ERA: [AtomicUsize; MAX_THREADS] = [const { AtomicUsize::new(0) }; MAX_THREADS];

/// Stall-robustness knobs (see the crate docs and DESIGN.md). Process
/// global; read once per scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallPolicy {
    /// Eras a reader's pinned entry may lag the current era before it is a
    /// candidate for ejection.
    pub stall_eras: usize,
    /// Eras an ejection mark may go unacknowledged before the slot is
    /// promoted to a zombie.
    pub grace_eras: usize,
    /// Retired-but-unreclaimed bytes that arm the ejection path (no reader
    /// is ever ejected while garbage is under budget).
    pub max_retired_bytes: usize,
    /// Retired-but-unreclaimed record count that arms the ejection path.
    pub max_retired_count: usize,
}

impl StallPolicy {
    /// Generous defaults: ejection stays dormant unless a reader stalls for
    /// a long time *while* garbage genuinely piles up.
    pub const DEFAULT: StallPolicy = StallPolicy {
        stall_eras: 64,
        grace_eras: 64,
        max_retired_bytes: 256 << 20,
        max_retired_count: 1 << 20,
    };
}

static POL_STALL_ERAS: AtomicUsize = AtomicUsize::new(StallPolicy::DEFAULT.stall_eras);
static POL_GRACE_ERAS: AtomicUsize = AtomicUsize::new(StallPolicy::DEFAULT.grace_eras);
static POL_MAX_BYTES: AtomicUsize = AtomicUsize::new(StallPolicy::DEFAULT.max_retired_bytes);
static POL_MAX_COUNT: AtomicUsize = AtomicUsize::new(StallPolicy::DEFAULT.max_retired_count);

/// Install a new process-global [`StallPolicy`]. Takes effect from the next
/// scan; safe to call at any time (the ejection machinery re-derives its
/// decisions from scratch every scan).
pub fn configure_stall_policy(p: StallPolicy) {
    POL_STALL_ERAS.store(p.stall_eras.max(1), Ordering::Relaxed);
    POL_GRACE_ERAS.store(p.grace_eras.max(1), Ordering::Relaxed);
    POL_MAX_BYTES.store(p.max_retired_bytes, Ordering::Relaxed);
    POL_MAX_COUNT.store(p.max_retired_count, Ordering::Relaxed);
}

/// The currently installed [`StallPolicy`].
pub fn stall_policy() -> StallPolicy {
    StallPolicy {
        stall_eras: POL_STALL_ERAS.load(Ordering::Relaxed),
        grace_eras: POL_GRACE_ERAS.load(Ordering::Relaxed),
        max_retired_bytes: POL_MAX_BYTES.load(Ordering::Relaxed),
        max_retired_count: POL_MAX_COUNT.load(Ordering::Relaxed),
    }
}

/// Total allocations handed to [`retire`]. Bumped on every retire by every
/// thread, so sharded per thread: a global line would be shared by every
/// retiring thread however disjoint its data. Plain `std` atomics, outside
/// the [`sync`] model facade: it is a diagnostic plus a heuristic trigger
/// (the pressure check and the era tick read its sum, never a freeing
/// decision), and the era tick is compiled out under the model anyway.
static RETIRED_TOTAL: ShardedCounter = ShardedCounter::new();
/// Total retired allocations whose reclaimer has run. Padded: bumped once
/// per scan, and kept off the orphan head's line.
static RECLAIMED_TOTAL: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));
/// Total reclamation scans run (diagnostics). Sharded like
/// [`RETIRED_TOTAL`]: every thread bumps it about once per base threshold
/// of retires.
static SCANS_TOTAL: ShardedCounter = ShardedCounter::new();
/// Total retired records scans have examined for freeing (the retire-scan
/// test asserts no record is examined twice under a pinned burst).
static SCAN_VISITS_TOTAL: ShardedCounter = ShardedCounter::new();
/// Bytes sitting in retired-but-unreclaimed records (as reported to
/// [`retire_with`]; legacy [`retire`] records count 0). Published at scan
/// granularity, not per retire: each thread accumulates into its
/// [`ThreadReclaim::bytes_unpublished`] (a plain field — the retire fast
/// path stays RMW-free) and folds the delta in here right before it scans,
/// then subtracts what the scan freed in one batch. The global value
/// therefore lags reality by at most one scan window of retires per
/// thread — slack the byte budget absorbs (pressure engages a window
/// late, the conservative direction for ejection; the stall adversary
/// reads this after `flush`, which publishes).
static RETIRED_BYTES: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));
/// Total records diverted into type-stable limbo instead of reclaimed
/// (their drop glue never runs; the block itself returned to the pool).
static DIVERTED_TOTAL: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));
/// Total ejection marks successfully installed (diagnostics/tests).
static EJECTIONS_TOTAL: AtomicUsize = AtomicUsize::new(0);
/// Total zombie promotions (diagnostics/tests).
static ZOMBIES_TOTAL: AtomicUsize = AtomicUsize::new(0);

/// Retire volume at the last ungated era advance (see `collect_protection`:
/// the era clock must keep ticking while a laggard blocks the gated
/// advance, otherwise lag can never exceed `stall_eras`).
#[cfg(not(lfc_model))]
static ERA_TICK: AtomicUsize = AtomicUsize::new(0);
/// Retires between ungated era advances (≈ one era per base scan batch).
#[cfg(not(lfc_model))]
const ERA_RETIRE_QUANTUM: usize = 128;

/// A retired allocation awaiting reclamation. Its epoch tag is the tag of
/// the [`Bag`] it is sealed into.
struct Retired {
    ptr: *mut u8,
    reclaim: unsafe fn(*mut u8),
    /// Allocation size for the garbage-bytes budget (0 for legacy records).
    bytes: usize,
    /// Era the allocation was born in ([`BIRTH_UNKNOWN`] for legacy
    /// records): the zombie partition's evidence that a stalled reader
    /// cannot reach the block.
    birth: usize,
    /// Type-stable fallback free: returns the block to its pool *without*
    /// running drop glue. `None` (legacy) means zombie-pinned records are
    /// retained instead of diverted.
    divert: Option<unsafe fn(*mut u8)>,
}

// Retired pointers are only dereferenced by their reclaimer; moving the
// records between threads (orphan list) is safe because reclamation runs at
// most once and the pointee is unreachable except through this record.
unsafe impl Send for Retired {}

/// Retired records sealed under one epoch tag (DEBRA-style limbo bag).
///
/// A scan seals the records retired since the previous scan into one bag
/// and tags it with the max of the global epoch it read after its fence
/// and every entry epoch its reader sweep observed. A reader whose entry
/// epoch is *greater* than the tag provably fenced after the sealing
/// scan's fence (had it fenced before, the sweep would have seen its epoch
/// and the tag would dominate it), therefore after every unlink that fed
/// the bag, and cannot hold a path into it. A bag's records are examined
/// once, by the scan that frees the bag.
struct Bag {
    tag: usize,
    items: Vec<Retired>,
}

/// A batch of retired records abandoned by an exiting thread, linked into
/// the lock-free orphan stack. `bag.tag` is the largest tag any of its
/// records was sealed under, 0 when none was sealed yet (the global epoch
/// starts at 1, so 0 is below every real tag).
struct OrphanBatch {
    bag: Bag,
    next: *mut OrphanBatch,
}

/// Retire batches abandoned by exited threads; adopted wholesale by the
/// next scan. A Treiber stack of whole batches instead of the former
/// `Mutex<Vec<_>>`: thread exit publishes its entire leftover list with one
/// CAS, and adoption detaches the whole stack with one `swap` — no lock,
/// no ABA (nodes are only ever popped all-at-once). Padded: the head is
/// written by every exiting thread and every scanning thread.
static ORPHANS: CachePadded<AtomicPtr<OrphanBatch>> =
    CachePadded::new(AtomicPtr::new(std::ptr::null_mut()));

/// Push a batch of orphaned retirees (no-op for an empty batch).
fn orphans_push(bag: Bag) {
    if bag.items.is_empty() {
        return;
    }
    let node = Box::into_raw(Box::new(OrphanBatch {
        bag,
        next: std::ptr::null_mut(),
    }));
    // Acquire on failure/entry is not needed (we never read through `head`
    // before publishing); Release on success publishes `bag` to adopters.
    let mut head = ORPHANS.load(Ordering::Relaxed);
    loop {
        // Safety: `node` is exclusively ours until the CAS succeeds.
        unsafe { (*node).next = head };
        match ORPHANS.compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => return,
            Err(h) => head = h,
        }
    }
}

/// Detach and drain every orphan batch into `open`, returning the largest
/// tag among them (0 if none). One atomic `swap`; the detached chain is
/// exclusively owned, so no ABA hazard exists. The caller seals `open`
/// under at least the returned tag, so adoption never lowers a tag.
fn orphans_adopt(open: &mut Vec<Retired>) -> usize {
    // Acquire pairs with the Release push: the batch contents are visible.
    let mut node = ORPHANS.swap(std::ptr::null_mut(), Ordering::Acquire);
    let mut tag = 0;
    while !node.is_null() {
        // Safety: the swap made the whole chain exclusively ours.
        let mut batch = unsafe { Box::from_raw(node) };
        tag = tag.max(batch.bag.tag);
        open.append(&mut batch.bag.items);
        node = batch.next;
    }
    tag
}

/// One thread's retired records: the open bag the retire path pushes to,
/// and the sealed bags awaiting their free, oldest first.
#[derive(Default)]
struct ThreadReclaim {
    open: Vec<Retired>,
    sealed: VecDeque<Bag>,
    /// Bytes retired by this thread since it last published into
    /// [`RETIRED_BYTES`] (see the doc there): folded in right before each
    /// scan, so the retire fast path is a plain add.
    bytes_unpublished: usize,
}

impl ThreadReclaim {
    /// Fold the unpublished byte charges into the global gauge, so it is
    /// current before `collect_protection` computes pressure.
    fn publish_bytes(&mut self) {
        if self.bytes_unpublished != 0 {
            RETIRED_BYTES.fetch_add(self.bytes_unpublished, Ordering::Relaxed);
            self.bytes_unpublished = 0;
        }
    }

    /// The first half of a scan: adopt orphans into the open bag, collect
    /// protection once, seal the open bag under this scan's tag, and
    /// detach the front run of sealed bags whose tag is below every active
    /// reader's entry epoch. Stopping at the first bag that is not clear
    /// only delays a free; the next scan looks at it again. The bag sealed
    /// here clears at once exactly when no reader is active: its tag
    /// dominates every reader the sweep saw, and a reader the sweep missed
    /// fenced after this scan's fence, hence after every unlink that fed
    /// the bag.
    ///
    /// Runs no reclaimer. The detached bags go to [`free_bags`] after the
    /// borrow of `self` has ended, so a reclaimer may retire, and even
    /// scan, meanwhile. A bag sealed by such a nested scan may hold records
    /// unlinked after this scan's sweep, about which this `min_enter` says
    /// nothing: detaching before any reclaimer runs keeps it out.
    fn seal(&mut self) -> (Vec<Bag>, Protection) {
        SCANS_TOTAL.add(1);
        let retired = self.open.len();
        // Adopt orphans so abandoned garbage cannot accumulate forever.
        let adopted = orphans_adopt(&mut self.open);
        let p = collect_protection();
        if !self.open.is_empty() {
            let items = std::mem::replace(&mut self.open, Vec::with_capacity(retired));
            self.sealed.push_back(Bag {
                tag: p.tag.max(adopted),
                items,
            });
        }
        let clear = self
            .sealed
            .iter()
            .take_while(|b| b.tag < p.min_enter)
            .count();
        (self.sealed.drain(..clear).collect(), p)
    }

    /// Park everything still pending on the orphan stack as one batch,
    /// under the largest tag any of it carries.
    fn orphan(self) {
        let mut bag = Bag {
            tag: 0,
            items: self.open,
        };
        for mut b in self.sealed {
            bag.tag = bag.tag.max(b.tag);
            bag.items.append(&mut b.items);
        }
        orphans_push(bag);
    }
}

thread_local! {
    static RECLAIM: Cell<*mut ThreadReclaim> = const { Cell::new(std::ptr::null_mut()) };
}

/// Run `f` on this thread's retire state. `f` must not retire (and so must
/// run no reclaimer): every borrow handed out here ends before the next
/// one starts, which is what lets a reclaimer retire into the open bag
/// while a scan is freeing.
fn with_reclaim<R>(f: impl FnOnce(&mut ThreadReclaim) -> R) -> R {
    RECLAIM.with(|cell| {
        let mut p = cell.get();
        if p.is_null() {
            p = Box::into_raw(Box::default());
            cell.set(p);
            // Tear down *before* the thread id is released (lfc-runtime runs
            // hooks ahead of freeing the id), so the slot bank cannot be
            // adopted by a new thread while we still use it.
            on_thread_exit(Box::new(move || {
                RECLAIM.with(|c| c.set(std::ptr::null_mut()));
                // Safety: pointer was uniquely created above; hook runs once.
                scan_detached(*unsafe { Box::from_raw(p) });
            }));
        }
        // Safety: exclusive to this thread, and `f` cannot reach
        // `with_reclaim` again (see above), so no two borrows overlap.
        f(unsafe { &mut *p })
    })
}

/// A cheap per-thread handle to the hazard domain.
///
/// `Guard` is `Copy`; it does not clear slots on drop. Operations own fixed
/// slot roles (see [`slot`]) and clear them explicitly.
#[derive(Clone, Copy, Debug)]
pub struct Guard {
    tid: u16,
}

/// Process-wide registration of [`clear_bank`] as a tid finalizer: runs
/// when a thread's dense id is released — TLS teardown (including threads
/// that never called `detach_thread`) and dead-thread adoption
/// (`lfc_runtime::fault`) both funnel through it — so a reused id never
/// inherits its predecessor's hazard slots or epoch marks.
static BANK_FINALIZER: std::sync::Once = std::sync::Once::new();

/// Reset thread `tid`'s hazard-slot bank and epoch slot to the pristine
/// state a freshly claimed id expects.
///
/// Called only once `tid`'s owner can issue no further protected reads:
/// its TLS destructors have run (clean exit), or its announced operation
/// has been helped to completion and its corpse claimed (adoption). At
/// that point dropping the protections is exactly what reclamation wants —
/// in particular a `Z`-marked (zombified) epoch slot stops diverting
/// retires into type-stable limbo. `EJECT_ERA` is deliberately *not*
/// reset: it is monotone, and a stale value only widens the diverted set
/// (the conservative direction) for a future occupant of the id.
fn clear_bank(tid: u16) {
    for s in &SLOTS[tid as usize].slots {
        // Release, as the owner's own `Guard::clear`: ordered after the
        // (now finished) thread's final reads; a scanner acquiring the
        // clear may then reclaim.
        s.store(0, Ordering::Release);
    }
    EPOCHS[tid as usize].nest.store(0, Ordering::Relaxed);
    EPOCHS[tid as usize].epoch.store(0, Ordering::Release);
}

/// Whether thread `tid`'s hazard bank and epoch slot are fully clear
/// (diagnostics: the thread-churn and adoption tests assert released ids
/// are handed over pristine).
pub fn bank_is_clear(tid: u16) -> bool {
    SLOTS[tid as usize]
        .slots
        .iter()
        .all(|s| s.load(Ordering::Acquire) == 0)
        && EPOCHS[tid as usize].epoch.load(Ordering::Acquire) == 0
        && EPOCHS[tid as usize].nest.load(Ordering::Relaxed) == 0
}

/// Obtain the current thread's guard, registering the thread on first use.
#[inline]
pub fn pin() -> Guard {
    BANK_FINALIZER.call_once(|| lfc_runtime::register_tid_finalizer(clear_bank));
    Guard { tid: current_tid() }
}

impl Guard {
    /// This thread's dense id (used for descriptor marking).
    pub fn tid(&self) -> u16 {
        self.tid
    }

    #[inline]
    fn slot_ref(&self, idx: usize) -> &'static AtomicUsize {
        debug_assert!(idx < SLOTS_PER_THREAD);
        &SLOTS[self.tid as usize].slots[idx]
    }

    /// Publish `addr` in slot `idx`.
    ///
    /// SeqCst (audited, required): this store and the caller's subsequent
    /// validation load form the Michael-algorithm Dekker pair against a
    /// scanner's (collect → free) sequence. Release would allow the
    /// validation load to be satisfied before the slot store is visible,
    /// and a concurrent scan could then miss the protection and free the
    /// allocation under the reader.
    #[inline]
    pub fn set(&self, idx: usize, addr: usize) {
        self.slot_ref(idx).store(addr, Ordering::SeqCst);
    }

    /// Publish `addr` in slot `idx` as a *promotion* from an existing
    /// protection: the caller must already hold the allocation live — via
    /// an active epoch that reached it, or a borrow — when the store
    /// executes.
    ///
    /// Release (audited, relaxed from the `set` SeqCst): no Dekker
    /// validation follows a promotion, so the store-load fence `set` pays
    /// for is pure waste here. Safety needs only that a scan which could
    /// free the block sees the slot: while the covering epoch is active the
    /// epoch condition keeps the block regardless, and a scan that instead
    /// observes the epoch's Release *exit* acquires it (scans sweep epochs
    /// before hazards) — which makes this store, sequenced before the
    /// exit, visible to the scan's hazard sweep. Borrow-covered
    /// allocations (structure headers) outlive the slot's whole set/clear
    /// window anyway.
    #[inline]
    pub fn promote(&self, idx: usize, addr: usize) {
        self.slot_ref(idx).store(addr, Ordering::Release);
    }

    /// Clear slot `idx`.
    ///
    /// Release (relaxed from SeqCst): clearing only *ends* a protection. It
    /// must be ordered after our final reads of the protected allocation —
    /// release gives exactly that — but needs no store-load fence: seeing
    /// the clear "late" merely delays reclamation, and a scanner that sees
    /// it early synchronizes-with this store before freeing. On x86 this
    /// turns an `mfence`/`xchg` into a plain store on one of the hottest
    /// paths in the system (every structure operation clears its slots).
    #[inline]
    pub fn clear(&self, idx: usize) {
        self.slot_ref(idx).store(0, Ordering::Release);
    }

    /// Current value of slot `idx` (diagnostics/tests). Acquire: pairs with
    /// `set`/`clear`; diagnostics never race reclamation decisions.
    pub fn get(&self, idx: usize) -> usize {
        self.slot_ref(idx).load(Ordering::Acquire)
    }

    /// Whether this thread's epoch slot currently carries an ejection or
    /// zombie mark (diagnostics; operations restart through
    /// [`OpGuard::repin_if_ejected`]).
    ///
    /// Relaxed (audited): detection is liveness, not safety — an R1 mark
    /// still gates reclamation, and the R2 regime's safety rests on the
    /// resume happens-before (DESIGN.md), which any later acquire on the
    /// wake path establishes before the owner can act on stale pointers.
    /// The restart path itself re-enters through the full `pin_op` fence.
    #[inline]
    pub fn ejected(&self) -> bool {
        EPOCHS[self.tid as usize].epoch.load(Ordering::Relaxed) & (EJ_BIT | Z_BIT) != 0
    }
}

/// An operation-scoped guard: a [`Guard`] plus an entered epoch.
///
/// Created by [`pin_op`] at the top of every structure operation. While it
/// lives, every allocation that was reachable through the structures at (or
/// after) the enter fence stays unreclaimed, so traversal dereferences
/// plain loads without per-node hazard publication. Nested operations (a
/// composed move runs its insert inside its remove) share the outermost
/// entry epoch through a nesting counter, so only the outermost operation
/// pays the fence.
///
/// Dropping the guard exits the epoch; protection then falls back to
/// whatever hazard slots are still published (e.g. the composition engine's
/// `ENTRY*` promotions, which outlive the nested operations' epochs).
#[derive(Debug)]
pub struct OpGuard {
    g: Guard,
    /// `!Send + !Sync`: the guard manipulates its *creating* thread's
    /// epoch slot with owner-only (non-atomic-RMW) accesses; dropping it
    /// from another thread would race the origin thread's own nesting
    /// updates and could clear an epoch that is still protecting a walk.
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl std::ops::Deref for OpGuard {
    type Target = Guard;
    fn deref(&self) -> &Guard {
        &self.g
    }
}

/// Enter the current thread's epoch (outermost entry only pays the fence)
/// and return the operation guard.
#[inline]
pub fn pin_op() -> OpGuard {
    let g = pin();
    let slot = &EPOCHS[g.tid as usize];
    // `nest` is owner-only: Relaxed loads/stores, no RMW needed.
    let n = slot.nest.load(Ordering::Relaxed);
    slot.nest.store(n + 1, Ordering::Relaxed);
    if n == 0 {
        enter_epoch(slot);
    }
    OpGuard {
        g,
        _not_send: std::marker::PhantomData,
    }
}

/// Publish a fresh entry era in `slot` and validate it against the global
/// epoch (the outermost half of [`pin_op`], shared with the ejection
/// restart path). The owner's stores here overwrite any ejection mark a
/// scan raced onto the slot's previous value: benign — a freshly validated
/// entry is at the current era, i.e. not lagging, and the scanner's
/// mark/promote CASes fail on the changed value.
#[inline]
fn enter_epoch(slot: &EpochSlot) {
    {
        let mut e = GLOBAL_EPOCH.load(Ordering::Relaxed);
        loop {
            slot.epoch.store(e, Ordering::Relaxed);
            // SeqCst fence (audited, required): THE once-per-operation
            // fence, and the reader's entire safety obligation. The epoch
            // store above is sequenced before it, so for any scan: either
            // this fence precedes the scan's fence in the SC order — then
            // by the SC fence-fence rule the scan's reader sweep observes
            // our published epoch (or a later value of the slot), and the
            // tag the scan assigns to concurrently retired records takes
            // the max over it — or the scan's fence precedes ours, and
            // this thread's traversal loads (all sequenced after this
            // fence) observe every unlink that fed that scan, so the
            // operation cannot reach the scan's retired blocks at all.
            // Either way, a record whose tag is *below* our entry epoch
            // is unreachable by this operation.
            fence(Ordering::SeqCst);
            // SeqCst (audited, required): re-reads the global epoch after
            // the fence so the published epoch is never left behind an
            // advance performed by a scan that fenced before us. This is
            // precision/liveness, not the freeing proof's safety link —
            // a reader-side validation *cannot* carry that proof, because
            // an unrelated scan's advance need not be visible to a later
            // tagging scan's epoch read (no happens-before reaches it;
            // stale reads are allowed by the model and by
            // non-multi-copy-atomic hardware). That hole is closed on the
            // scan side instead: the tag takes the max over every epoch
            // the sweep observes (see `collect_protection`). Publishing a
            // stale epoch here would only make scans defer frees longer
            // and stall the gated advance, which compares active slots
            // against the current epoch.
            let cur = GLOBAL_EPOCH.load(Ordering::SeqCst);
            if cur == e {
                break;
            }
            // A scan advanced the epoch between our load and publication;
            // re-publish at the newer epoch so the scan cannot conclude we
            // entered later than we did. Bounded: scans advance at most
            // once each, and re-running the loop is the cold path.
            e = cur;
        }
    }
}

impl OpGuard {
    /// Ejection detection hook, called by structure operations at their
    /// retry-loop heads: if this is the *outermost* operation and a scan
    /// has marked this thread's slot ejected, acknowledge (drop the epoch)
    /// and re-enter at a fresh era, returning `true` — every pointer the
    /// caller obtained under the old era is now invalid and the operation
    /// must restart from its structure entry point. Nested operations
    /// always return `false`: the restart belongs to the outermost
    /// operation (its completion — the outermost guard drop — is the
    /// acknowledgement), and `ENTRY*` hazard promotions keep any captured
    /// words safe across the remainder of the composition regardless.
    ///
    /// Cost when not ejected: one owner-local slot load and a predictable
    /// branch — no fence, no shared-line write.
    #[inline]
    pub fn repin_if_ejected(&mut self) -> bool {
        let slot = &EPOCHS[self.g.tid as usize];
        // Relaxed (audited): see `Guard::ejected`.
        if slot.epoch.load(Ordering::Relaxed) & (EJ_BIT | Z_BIT) == 0 {
            return false;
        }
        #[cfg(lfc_model)]
        if model_toggles::skip_eject_restart() {
            return false;
        }
        if slot.nest.load(Ordering::Relaxed) != 1 {
            return false;
        }
        // Acknowledge: leave the marked epoch entirely (Release orders our
        // traversal loads before it, exactly like the normal exit), then
        // re-enter through the full validated-entry path. The scanner's
        // zombie-promotion CAS fails on the changed slot value.
        slot.epoch.store(0, Ordering::Release);
        enter_epoch(slot);
        true
    }
}

impl Drop for OpGuard {
    #[inline]
    fn drop(&mut self) {
        let slot = &EPOCHS[self.g.tid as usize];
        let n = slot.nest.load(Ordering::Relaxed) - 1;
        slot.nest.store(n, Ordering::Relaxed);
        if n == 0 {
            // Release (audited): ends the epoch. Orders the operation's
            // traversal loads — and, crucially, any hazard promotions made
            // inside the epoch (`ENTRY*` capture handoffs) — before the
            // clear: a scan that Acquire-reads the quiescent slot therefore
            // sees every hazard published under this epoch, so protection
            // hands off without a window. No store-load fence needed:
            // seeing the clear late only delays reclamation.
            slot.epoch.store(0, Ordering::Release);
        }
    }
}

/// The current global epoch (diagnostics/tests).
pub fn epoch_now() -> usize {
    GLOBAL_EPOCH.load(Ordering::Relaxed)
}

/// Force one global-epoch advance (tests: simulate readers of later
/// generations). Safe at any time — advancing faster only makes newer
/// readers enter at higher epochs; the reclamation rule is driven by the
/// minimum *entered* epoch, never by the global value alone.
pub fn advance_epoch() -> usize {
    GLOBAL_EPOCH.fetch_add(1, Ordering::SeqCst) + 1
}

/// The smallest entry epoch among currently active readers, or `None` when
/// every thread is quiescent (diagnostics/tests).
pub fn min_active_epoch() -> Option<usize> {
    fence(Ordering::SeqCst);
    let hw = registered_high_water();
    EPOCHS
        .iter()
        .take(hw)
        .map(|s| s.epoch.load(Ordering::SeqCst))
        .filter(|&e| e != 0 && e & Z_BIT == 0)
        .map(|e| e & ERA_MASK)
        .min()
}

/// Hand an unlinked allocation to the domain for deferred reclamation.
///
/// # Safety
///
/// * `ptr` must point to a live allocation that `reclaim` can free exactly
///   once.
/// * The allocation must already be unlinked per the retire contract in the
///   crate docs: any thread that subsequently reaches it through shared
///   memory must fail its hazard validation.
#[inline]
pub unsafe fn retire(ptr: *mut u8, reclaim: unsafe fn(*mut u8)) {
    // Safety: forwarded contract. Legacy records carry no byte count, no
    // birth era and no divert path, so a zombie can pin them forever —
    // callers that want the stall bound use `retire_with`.
    unsafe {
        retire_with(
            ptr,
            reclaim,
            RetireInfo {
                bytes: 0,
                birth: BIRTH_UNKNOWN,
                divert: None,
            },
        )
    };
}

/// Birth era of a record retired without one: pessimistically "older than
/// every stall", so the zombie partition can never free it by birth
/// evidence. (The global epoch starts at 1, so 0 is never a real era.)
pub const BIRTH_UNKNOWN: usize = 0;

/// The era to stamp a freshly allocated block with, *before* publication
/// (a plain field write is enough — publication orders it). Relaxed: a
/// stale (older) read only makes the birth more conservative.
#[inline]
pub fn birth_era() -> usize {
    GLOBAL_EPOCH.load(Ordering::Relaxed)
}

/// Robustness annotations for [`retire_with`].
#[derive(Clone, Copy, Debug)]
pub struct RetireInfo {
    /// Allocation size in bytes, charged against
    /// [`StallPolicy::max_retired_bytes`] until the record is freed.
    pub bytes: usize,
    /// The [`birth_era`] stamped on the allocation before it was published
    /// ([`BIRTH_UNKNOWN`] if the caller cannot provide one).
    pub birth: usize,
    /// Type-stable fallback free for the zombie partition: must return the
    /// block to its (never-unmapped) pool **without** running drop glue.
    /// For types without drop glue this may simply be the reclaimer.
    pub divert: Option<unsafe fn(*mut u8)>,
}

/// [`retire`] with stall-robustness annotations: the byte size feeds the
/// garbage budget, and the birth era plus divert path let the zombie tier
/// bound garbage under a parked reader (crate docs, "Stall robustness").
///
/// # Safety
///
/// As [`retire`]; additionally `info.divert`, when present, must free the
/// block into type-stable memory without dereferencing its contents.
#[inline]
pub unsafe fn retire_with(ptr: *mut u8, reclaim: unsafe fn(*mut u8), info: RetireInfo) {
    RETIRED_TOTAL.add(1);
    // No fence and no epoch read here: the record enters the open bag
    // untagged, and the scan that seals the bag — whose own SC fence is
    // ordered after this retire (same thread, or the orphan handoff's
    // release/acquire) and hence after the caller's unlink — assigns the
    // tag. Keeps the retire path at a Vec push; the byte charge is a plain
    // thread-local add, published at scan time (see [`RETIRED_BYTES`]).
    let r = Retired {
        ptr,
        reclaim,
        bytes: info.bytes,
        birth: info.birth,
        divert: info.divert,
    };
    if thread_is_exiting() {
        // Thread-exit fallback: park the record on the orphan stack (the
        // next scan by any live thread adopts it) and publish its bytes
        // now — there is no later scan of ours to fold them in.
        RETIRED_BYTES.fetch_add(info.bytes, Ordering::Relaxed);
        orphans_push(Bag {
            tag: 0,
            items: vec![r],
        });
        return;
    }
    let full = with_reclaim(|tr| {
        tr.bytes_unpublished += info.bytes;
        tr.open.push(r);
        tr.open.len() >= scan_threshold()
    });
    if full {
        scan();
    }
}

/// Scan this (live) thread's retire state: seal, then free the clear bags
/// with no borrow of the state live, so a reclaimer that retires lands in
/// the fresh open bag (and may even trigger a nested scan of its own).
/// Records a freed bag must keep go back to the front of the queue.
fn scan() {
    let (clear, p) = with_reclaim(|tr| {
        tr.publish_bytes();
        tr.seal()
    });
    if let Some(kept) = free_bags(clear, &p) {
        with_reclaim(|tr| tr.sealed.push_front(kept));
    }
}

/// Scan retire state no live thread owns any more (thread exit, or a flush
/// during it), then park whatever is left on the orphan stack as one batch
/// (one CAS, however many remain). The bytes are published first: they
/// must be globally visible before another thread can adopt and free the
/// records. Reclaimers that retire here take the exiting-thread path of
/// [`retire_with`].
fn scan_detached(mut tr: ThreadReclaim) {
    tr.publish_bytes();
    let (clear, p) = tr.seal();
    if let Some(kept) = free_bags(clear, &p) {
        tr.sealed.push_front(kept);
    }
    tr.orphan();
}

/// The lowest base scan threshold.
const MIN_SCAN_TRIGGER: usize = 128;

/// Retire records per registered thread in the base scan threshold. A
/// constant of its own, not a multiple of [`SLOTS_PER_THREAD`], so
/// resizing the bank never moves the scan trigger.
const SCAN_RECORDS_PER_THREAD: usize = 48;

/// Open-bag length at which a retire runs a scan: grows with the
/// registered thread count, never below [`MIN_SCAN_TRIGGER`]. Fixed per
/// thread count, because sealed bags cost a scan one tag compare each
/// while they stay pinned, never a re-examination of their records.
/// Performance-only either way: scan *frequency* never enters the freeing
/// proof — every scan re-derives all protection from its own SC fence and
/// sweeps.
fn scan_threshold() -> usize {
    base_scan_threshold(registered_high_water())
}

fn base_scan_threshold(threads: usize) -> usize {
    (SCAN_RECORDS_PER_THREAD * threads.max(1)).max(MIN_SCAN_TRIGGER)
}

/// A consistent snapshot of everything currently protecting retired memory:
/// the hazard set plus the smallest entry epoch among active readers
/// (`usize::MAX` when all threads are quiescent).
struct Protection {
    /// Every non-zero hazard slot value, sorted (binary-searched per
    /// record a scan frees).
    hazards: Vec<usize>,
    min_enter: usize,
    /// The tag this scan seals its bag under: the max of the
    /// global epoch read after this scan's fence and every entry epoch the
    /// reader sweep observed. See `collect_protection` for why the sweep
    /// must participate in the max.
    tag: usize,
    /// Zombie slots this scan observed: their entry eras no longer feed
    /// `min_enter`; records only they could reach go through the birth-era
    /// partition in `free_bags`.
    zombies: Vec<Zombie>,
}

/// A zombified reader as seen by one scan.
#[derive(Clone, Copy)]
struct Zombie {
    /// The entry era its slot still publishes: the zombie can only hold
    /// paths to records whose tag is ≥ this.
    entry: usize,
    /// The era it was ejected at (from [`EJECT_ERA`]): records born after
    /// this are provably out of its reach.
    ejected: usize,
}

/// Collect every current protection — epochs first, hazards second.
fn collect_protection() -> Protection {
    // SeqCst fence (audited, required): unlinking stores are AcqRel CASes
    // (`DAtomic::cas_word`), which do not participate in the SC total
    // order, so the slot loads below being SeqCst is not by itself enough
    // to order them after the unlink. The fence restores the Dekker: for
    // any reader, either its validation load (or epoch enter fence) follows
    // this fence in the SC order — then (C++17 atomics.order p6, write
    // sequenced-before an SC fence that precedes an SC load) it observes
    // the unlink and fails validation / cannot reach the block — or its SC
    // slot store/fence precedes this fence in the SC order, and the loads
    // below see the protection. Cold path: one fence per scan.
    fence(Ordering::SeqCst);
    let hw = registered_high_water();

    let pol = stall_policy();
    // Ejection is armed only under genuine garbage pressure; a stalled
    // reader on an idle system costs nothing and is left alone.
    let pressure = RETIRED_BYTES.load(Ordering::Relaxed) > pol.max_retired_bytes
        || retired_count() > pol.max_retired_count;

    // Epoch sweep BEFORE the hazard sweep. A reader that exits its epoch
    // after promoting a protection into a hazard slot stores the hazard
    // (SeqCst) before the epoch clear (Release); Acquire-reading the
    // cleared slot here therefore synchronizes-with the exit, making the
    // promoted hazard visible to the later hazard sweep — protection hands
    // off with no window. (Sweeping hazards first would open one.)
    // SeqCst (audited, required): this load and the reader-side validation
    // load in `pin_op` are ordered by the global epoch's single
    // modification order within the SC order; the freeing proof's chain —
    // tag-read <s advance <s reader-validate — is what lets "entry epoch
    // greater than the tag" imply "entered after the tagging scan's
    // fence".
    let cur = GLOBAL_EPOCH.load(Ordering::SeqCst);
    let mut min_enter = usize::MAX;
    // The tag of the bag this scan seals must dominate the entry epoch of
    // every reader that might still hold a pre-unlink path into it. `cur` alone
    // is NOT enough: an *unrelated* scan may advance the epoch E -> E+1
    // just before the unlink, and a reader may enter and validate E+1
    // also before the unlink — while nothing orders our load above after
    // that advance (no happens-before edge reaches us; an SC load may
    // still precede the SC advance in the total order, a stale read the
    // model permits and non-multi-copy-atomic hardware exhibits). Tagging
    // the record E would let a later scan see min_enter = E+1 > tag and
    // free the block under that reader — a use-after-free. Taking the max
    // over every epoch the sweep observes closes the hole: a reader that
    // can still reach the block has its final enter fence *before* our
    // fence in the SC order (otherwise its traversal loads, all after its
    // fence, would observe the unlink that fed this scan), so the SC
    // fence-fence rule makes its validated entry epoch — stored before
    // that fence — visible to the sweep below, and the tag dominates it.
    let mut tag = cur;
    let mut all_at_cur = true;
    let mut zombies = Vec::new();
    for (i, slot) in EPOCHS.iter().enumerate().take(hw) {
        // SeqCst (audited, required): the scanner's side of the Dekker
        // with the reader's slot store + enter fence (a reader this load
        // misses provably fenced after our fence above, i.e. entered after
        // every unlink feeding this scan). Also ≥ Acquire, which pairs
        // with the Release epoch clear (see above).
        let v = slot.epoch.load(Ordering::SeqCst);
        if v == 0 {
            continue;
        }
        let era = v & ERA_MASK;
        if v & Z_BIT != 0 {
            // Zombie (R2): excluded from `min_enter` — it no longer gates
            // the epoch condition — and from the gated-advance vote, so
            // the clock runs again. Folding its era into the tag is
            // harmless (monotone) and keeps the tag dominating every
            // observed entry. SeqCst on EJECT_ERA (audited): the promoting
            // scan's fetch_max precedes its Z CAS in the SC order, so any
            // scan that observes the Z bit observes an eject era from this
            // (or a later) episode, never 0.
            tag = tag.max(era);
            zombies.push(Zombie {
                entry: era,
                ejected: EJECT_ERA[i].load(Ordering::SeqCst),
            });
            continue;
        }
        min_enter = min_enter.min(era);
        tag = tag.max(era);
        if era != cur {
            all_at_cur = false;
        }
        if v & EJ_BIT != 0 {
            // R1-marked, not yet acknowledged. Still gates everything —
            // the mark is a request, not a revocation. Promote to zombie
            // once the grace window has passed without an acknowledgement
            // (the owner would have cleared the mark by re-entering or
            // exiting, making this CAS fail on the changed value).
            let j = EJECT_ERA[i].load(Ordering::SeqCst);
            if cur.saturating_sub(j) >= pol.grace_eras
                && slot
                    .epoch
                    .compare_exchange(v, v | Z_BIT, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                ZOMBIES_TOTAL.fetch_add(1, Ordering::Relaxed);
                // Conservatively still a gating reader for *this* scan
                // (min_enter above already included it); the partition
                // takes over from the next scan.
            }
        } else if pressure && cur.saturating_sub(era) >= pol.stall_eras {
            // Eject: record the ejection era first (monotone fetch_max —
            // a lost race or a stale value from an earlier episode only
            // widens the diverted set, the conservative direction), then
            // install the mark. The CAS fails if the owner moved, i.e.
            // was not actually stalled.
            EJECT_ERA[i].fetch_max(cur, Ordering::SeqCst);
            if slot
                .epoch
                .compare_exchange(v, v | EJ_BIT, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                EJECTIONS_TOTAL.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    #[cfg(lfc_model)]
    if model_toggles::stale_tag_bug() {
        // Adversarial acceptance toggle: drop the reader-sweep fold and
        // tag with the (possibly stale) epoch read alone.
        tag = cur;
    }
    if all_at_cur {
        // Every active reader has caught up with the current epoch (or no
        // reader is active): advance, so future readers enter — and future
        // scans tag — at a strictly newer generation. Failure just means
        // another scan advanced first. SeqCst: the `advance` link of the
        // proof chain above.
        let _ = GLOBAL_EPOCH.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::Relaxed);
    }
    // Laggard-driven era tick: the gated advance above stalls the moment
    // one reader lags, which would cap observable lag at about one era and
    // make `stall_eras` thresholds unreachable — the ejection tier needs
    // the clock to keep running while a laggard pins it. The tick fires
    // only when a laggard actually blocked the gated advance, and only on
    // retire volume (an idle system's clock stays put). Keeping it out of
    // the all-current steady state matters for throughput: ticking ahead
    // of the sweep would leave every scanning reader one era behind `cur`,
    // permanently defeating `all_at_cur` and holding fresh tags one era
    // short of the freeing condition — a standing retired backlog instead
    // of next-scan draining. Safe for the same reason `advance_epoch` is:
    // a faster-moving epoch only makes newer readers enter (and scans tag)
    // at higher eras; the freeing rule is driven by entered epochs.
    // Compiled out under the model: cumulative cross-execution retire
    // counts would make explored executions diverge on replay; model
    // scenarios drive eras explicitly via `advance_epoch`.
    #[cfg(not(lfc_model))]
    if !all_at_cur {
        let retired = RETIRED_TOTAL.get();
        let mark = ERA_TICK.load(Ordering::Relaxed);
        // Saturating: the sharded sum is no snapshot, so this scan may read
        // less than the mark another scan stored; that is not volume.
        if retired.saturating_sub(mark) >= ERA_RETIRE_QUANTUM
            && ERA_TICK
                .compare_exchange(mark, retired, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            GLOBAL_EPOCH.fetch_add(1, Ordering::SeqCst);
        }
    }

    let mut hazards = Vec::with_capacity(hw * SLOTS_PER_THREAD);
    for bank in SLOTS.iter().take(hw) {
        for s in &bank.slots {
            // SeqCst (audited, required): the scanner's side of the Dekker
            // pair with `Guard::set` — together with the fence above these
            // loads are ordered after the retiring thread's unlinking
            // store, so any reader that could still acquire the pointer
            // has its hazard visible here.
            let v = s.load(Ordering::SeqCst);
            if v != 0 {
                hazards.push(v);
            }
        }
    }
    hazards.sort_unstable();
    Protection {
        hazards,
        min_enter,
        tag,
        zombies,
    }
}

/// Free the records of `bags`, which the scan that collected `p` found
/// clear of every active reader's epoch (`tag < p.min_enter`); return the
/// records that must stay, as one bag under the largest tag they had.
///
/// A record is freed only when **both** regimes release it: its bag's tag
/// predates every active reader's entry epoch (no in-flight traversal can
/// still hold a pre-unlink path to it), and no hazard slot names it (an
/// `ENTRY*`/`HELP*` pin from an in-flight composition keeps a block alive
/// even after all epochs quiesce). The hazard check and the zombie
/// partition therefore run on these records only, each record once.
fn free_bags(bags: Vec<Bag>, p: &Protection) -> Option<Bag> {
    let mut kept = Bag {
        tag: 0,
        items: Vec::new(),
    };
    // Per-scan batches for the global gauges: one RMW each at the end
    // instead of one per freed record (the free loop is the hot part of a
    // scan; lock-prefixed RMWs per record showed up in profiles).
    let mut visited = 0usize;
    let mut freed_bytes = 0usize;
    let mut reclaimed = 0usize;
    let mut diverted = 0usize;
    for bag in bags {
        visited += bag.items.len();
        for r in bag.items {
            let mut retain = p.hazards.binary_search(&(r.ptr as usize)).is_ok();
            // Zombie partition (R2, see crate docs): `tag < min_enter` says
            // no *non-zombie* reader can reach the record. A zombie with
            // entry era ≤ the tag may still hold a pre-unlink path —
            // unless the record was born after that zombie was ejected (it
            // stalled before the ejection, so a block allocated after it
            // can never have been captured by it). Records some zombie
            // could reach are diverted into type-stable limbo when the
            // retirer provided a divert path, and retained otherwise.
            let mut divert = false;
            for z in &p.zombies {
                if retain {
                    break;
                }
                if bag.tag >= z.entry && !(r.birth != BIRTH_UNKNOWN && r.birth > z.ejected) {
                    if r.divert.is_some() {
                        divert = true;
                    } else {
                        retain = true;
                    }
                }
            }
            if retain {
                kept.tag = kept.tag.max(bag.tag);
                kept.items.push(r);
            } else if divert {
                diverted += 1;
                freed_bytes += r.bytes;
                // Safety: retire_with contract — divert frees into the
                // type-stable pool without touching the contents.
                unsafe { (r.divert.unwrap())(r.ptr) };
            } else {
                reclaimed += 1;
                freed_bytes += r.bytes;
                // Safety: unlinked per the retire contract and unprotected now.
                unsafe { (r.reclaim)(r.ptr) };
            }
        }
    }
    if visited != 0 {
        SCAN_VISITS_TOTAL.add(visited);
    }
    if reclaimed != 0 {
        RECLAIMED_TOTAL.fetch_add(reclaimed, Ordering::Relaxed);
    }
    if diverted != 0 {
        DIVERTED_TOTAL.fetch_add(diverted, Ordering::Relaxed);
    }
    if freed_bytes != 0 {
        RETIRED_BYTES.fetch_sub(freed_bytes, Ordering::Relaxed);
    }
    (!kept.items.is_empty()).then_some(kept)
}

/// Force a reclamation attempt on the current thread's retire state (and
/// the orphan list). Primarily for tests and shutdown paths.
pub fn flush() {
    if thread_is_exiting() {
        scan_detached(ThreadReclaim::default());
        return;
    }
    scan();
}

/// Number of retired records still awaiting reclamation (the count the
/// [`StallPolicy::max_retired_count`] budget is charged against).
pub fn retired_count() -> usize {
    RETIRED_TOTAL
        .get()
        .saturating_sub(RECLAIMED_TOTAL.load(Ordering::Relaxed))
        .saturating_sub(DIVERTED_TOTAL.load(Ordering::Relaxed))
}

/// Bytes held by retired records still awaiting reclamation, as reported
/// through [`retire_with`] (legacy [`retire`] records contribute 0). The
/// quantity the stall adversary bounds and the
/// [`StallPolicy::max_retired_bytes`] budget is charged against.
pub fn retired_bytes() -> usize {
    RETIRED_BYTES.load(Ordering::Relaxed)
}

/// Number of records diverted into type-stable limbo by the zombie tier
/// (their drop glue never ran; bounded per stall — see crate docs).
pub fn diverted_count() -> usize {
    DIVERTED_TOTAL.load(Ordering::Relaxed)
}

/// (ejection marks installed, zombie promotions) since process start.
pub fn ejection_stats() -> (usize, usize) {
    (
        EJECTIONS_TOTAL.load(Ordering::Relaxed),
        ZOMBIES_TOTAL.load(Ordering::Relaxed),
    )
}

/// Number of reclamation scans run since process start (diagnostics).
pub fn scan_count() -> usize {
    SCANS_TOTAL.get()
}

/// Retired records scans have examined for freeing since process start
/// (tests: a record is examined once, by the scan that frees its bag).
#[doc(hidden)]
pub fn scan_visits() -> usize {
    SCAN_VISITS_TOTAL.get()
}

/// (retired, reclaimed) totals since process start.
pub fn stats() -> (usize, usize) {
    (RETIRED_TOTAL.get(), RECLAIMED_TOTAL.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;

    static DROPS: Counter = Counter::new(0);

    unsafe fn reclaim_box_u64(p: *mut u8) {
        drop(unsafe { Box::from_raw(p as *mut u64) });
        DROPS.fetch_add(1, Ordering::Relaxed);
    }

    #[test]
    fn unprotected_retire_reclaims_on_flush() {
        let before = DROPS.load(Ordering::Relaxed);
        let p = Box::into_raw(Box::new(7u64)) as *mut u8;
        unsafe { retire(p, reclaim_box_u64) };
        flush();
        assert!(DROPS.load(Ordering::Relaxed) > before);
    }

    #[test]
    fn protected_retire_is_deferred_until_cleared() {
        let g = pin();
        let p = Box::into_raw(Box::new(9u64)) as *mut u8;
        g.set(slot::ENTRY0, p as usize);
        unsafe { retire(p, reclaim_box_u64) };
        flush();
        // Still protected: must not have been freed. Read through it.
        assert_eq!(unsafe { *(p as *mut u64) }, 9);
        g.clear(slot::ENTRY0);
        flush();
    }

    #[test]
    fn threshold_scan_bounds_garbage() {
        // Retire far more than the threshold; pending must stay bounded.
        for _ in 0..10_000 {
            let p = Box::into_raw(Box::new(1u64)) as *mut u8;
            unsafe { retire(p, reclaim_box_u64) };
        }
        flush();
        assert!(
            retired_count() < 4 * scan_threshold(),
            "pending {} should be bounded by a small multiple of the threshold {}",
            retired_count(),
            scan_threshold()
        );
    }

    #[test]
    fn scan_threshold_is_independent_of_the_bank_size() {
        assert_eq!(SLOTS_PER_THREAD, 14);
        for threads in 0..=MAX_THREADS {
            assert_eq!(base_scan_threshold(threads), (48 * threads.max(1)).max(128));
        }
    }

    #[test]
    fn orphans_from_dead_threads_are_adopted() {
        let before = DROPS.load(Ordering::Relaxed);
        std::thread::spawn(|| {
            // Protect our own retired allocation so the exit-scan cannot free
            // it and it lands on the orphan list... except slots are cleared
            // only by us; instead protect with a *live* main-thread slot.
            let p = Box::into_raw(Box::new(3u64)) as *mut u8;
            unsafe { retire(p, reclaim_box_u64) };
        })
        .join()
        .unwrap();
        // The spawned thread's exit hook scans; if anything was left it is on
        // the orphan list and this flush adopts it.
        flush();
        assert!(DROPS.load(Ordering::Relaxed) > before);
    }

    #[test]
    fn orphan_batches_from_many_dead_threads_are_all_reclaimed() {
        // Several threads exit while their retirees are pinned by a live
        // hazard, so each exit parks one batch on the orphan stack. After
        // the hazard clears, a single scan must adopt *every* batch and
        // reclaim every orphaned allocation (the eventual-reclamation
        // guarantee of the lock-free orphan path).
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10;
        let _g = pin();
        let pins: Vec<*mut u8> = (0..THREADS * PER_THREAD)
            .map(|_| Box::into_raw(Box::new(11u64)) as *mut u8)
            .collect();
        let before = stats();
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let chunk: Vec<usize> = pins[t * PER_THREAD..(t + 1) * PER_THREAD]
                    .iter()
                    .map(|p| *p as usize)
                    .collect();
                sc.spawn(move || {
                    // Register, then retire from inside the exit hook so the
                    // records take the orphan path deterministically.
                    lfc_runtime::on_thread_exit(Box::new(move || {
                        for addr in chunk {
                            unsafe { retire(addr as *mut u8, reclaim_box_u64) };
                        }
                    }));
                });
            }
        });
        // All threads exited; their retirees sit in orphan batches. A
        // flush adopts and reclaims them — but a concurrently running
        // sibling test's flush may adopt some batches into its own pending
        // list first, so reclamation is *eventual*: keep flushing until
        // the count arrives (sibling threads reclaim adopted orphans no
        // later than their own exit scan).
        let target = before.1 + THREADS * PER_THREAD;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while stats().1 < target && std::time::Instant::now() < deadline {
            flush();
            std::thread::yield_now();
        }
        let after = stats();
        assert!(
            after.1 >= target,
            "all {} orphaned retirees reclaimed ({} -> {})",
            THREADS * PER_THREAD,
            before.1,
            after.1
        );
    }

    #[test]
    fn cross_thread_protection_is_respected() {
        // Main thread protects; worker retires + flushes; object must survive.
        let g = pin();
        let p = Box::into_raw(Box::new(0xFEEDu64)) as *mut u8;
        g.set(slot::ENTRY0, p as usize);
        let pv = p as usize;
        std::thread::spawn(move || {
            let p = pv as *mut u8;
            unsafe { retire(p, reclaim_box_u64) };
            flush();
        })
        .join()
        .unwrap();
        // Worker exited; its leftovers are orphaned. We still hold the hazard.
        assert_eq!(unsafe { *(p as *mut u64) }, 0xFEED);
        g.clear(slot::ENTRY0);
        flush();
    }

    #[test]
    fn guard_is_copy_and_stable() {
        let a = pin();
        let b = pin();
        assert_eq!(a.tid(), b.tid());
        let c = a;
        assert_eq!(c.tid(), a.tid());
    }

    #[test]
    fn stats_monotone() {
        let (r0, c0) = stats();
        let p = Box::into_raw(Box::new(1u64)) as *mut u8;
        unsafe { retire(p, reclaim_box_u64) };
        flush();
        let (r1, c1) = stats();
        assert!(r1 > r0);
        assert!(c1 >= c0);
    }
}
