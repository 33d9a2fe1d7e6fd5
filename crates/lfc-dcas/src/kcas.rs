//! The K-word CAS: the paper's DCAS (§3.2.2, Algorithm 4) run entry by
//! entry over K = 2..[`MAX_ENTRIES`] words — the n-word generalization the
//! paper's conclusion proposes for n-object moves:
//!
//! > "Our methodology can also be easily extended to support n operations on
//! > n distinct objects, for example to create functions that remove an item
//! > from one object and insert it into n others atomically." (§8)
//!
//! A commit starts a new *incarnation* of its thread's one descriptor
//! record (see "One descriptor per thread" below), fills in the K CAS
//! triples captured at the composed linearization points, and *announces*
//! the operation by CASing `*ptr_0` from `old_0` to an unmarked descriptor
//! word (line D10; the initiator alone does this). Then, for each entry `i`
//! in `1..K` in order, every executor — the initiator and any helper whose
//! `read` found a descriptor word — runs the D13–D27 race against the
//! entry's own winner slot `res[i]`:
//!
//! * install its thread-id-*marked* descriptor word at `*ptr_i` (D13–D14);
//! * promote the installed mark of *this* incarnation into `res[i]` (D24) —
//!   the first mark recorded wins;
//! * revert its own mark if it lost the race or arrived after the decision
//!   ("will have to change it back to its old value", Lemma 3).
//!
//! An entry holding neither `old_i` nor a mark of this incarnation decides
//! `res[i] = FAILED` (D17). A foreign descriptor counts as a mismatch: its
//! operation has made progress, so failing keeps the system lock-free, and
//! foreign descriptors are helped through `read`, whose hazard discipline is
//! sound at depth one (unbounded recursive helping cannot be combined with a
//! fixed per-thread hazard bank). An executor moves on to entry `i + 1` only
//! once `res[i]` holds a recorded winner; once every entry is won it swings
//! `*ptr_0` from the announcement and each `*ptr_i` from exactly its winner
//! to the new values (D28–D29), and only then stores `SUCCESS` in
//! `res[K−1]` (D30). Swinging from exactly the winner makes each swing
//! happen once even when delayed executors re-install marks after an ABA of
//! `old_i`. At K = 2 this is Algorithm 4 step for step, with `res[1]` the
//! paper's `res`.
//!
//! The paper's differences from Harris et al.'s MCAS all hold at every
//! width: the result reports *which* entry failed, no RDCSS descriptor is
//! needed, helpers adopt the initiator's hazard pointers (lines D2–D3), and
//! the uncontended case uses fewer CASes.
//!
//! # `res` state machine
//!
//! ```text
//! res[i], 1 ≤ i < K−1:  UNDECIDED(n) ──► FAILED(n)            (line D17)
//!                       UNDECIDED(n) ──► winner mark          (line D24)
//! res[K−1]:             UNDECIDED(n) ──► FAILED(n)
//!                       UNDECIDED(n) ──► winner mark ──► SUCCESS(n)  (D24, D30)
//! ```
//!
//! Every value carries the incarnation `n` it belongs to (a winner mark
//! carries it in its `seq` field). Within one incarnation each slot leaves
//! UNDECIDED once, and no executor works on entry `i + 1` before `res[i]`
//! holds a winner, so the slots always read as a prefix of winners followed
//! by at most one FAILED and then UNDECIDED slots. The first slot that does
//! not hold a winner is therefore the decision: FAILED at `j` means the
//! operation failed at entry `j` (every executor that sees it reverts the
//! winners of `res[1..j)` and the announcement before returning), and
//! SUCCESS — possible only in `res[K−1]` — is only ever stored after every
//! word has been swung. A slot holding another incarnation's value means
//! incarnation `n` is decided and its owner has returned ("gone").
//!
//! # One descriptor per thread
//!
//! No descriptor is ever allocated or reclaimed: each thread id owns one
//! static `Record` and reuses it for every published commit, after
//! Brown's weak descriptors. Reuse is safe because nothing an executor of
//! an old incarnation does can land on a newer one:
//!
//! * **Words name an incarnation.** Descriptor words carry the owner's tid
//!   and the incarnation's `seq` (`crate::word`), and every winner-slot
//!   value carries `seq`. Before publishing incarnation `n + 1` the owner
//!   stores `UNDECIDED(n + 1)` into `res[1..K)`, so a stale executor's
//!   D17/D24/D30 CASes fail on their own, its D4 and post-CAS reads see
//!   "not mine", and its swing and revert CASes expect words that can
//!   never reappear (the owner removes every plain and winner word of `n`
//!   before it returns, and only `n`'s own executors could re-create them).
//! * **Helpers snapshot, then validate (a seqlock).** The owner bumps
//!   `seq`, then writes `count` and the entries with Release stores; D10's
//!   Release CAS publishes them. A helper that found a word of incarnation
//!   `n` copies `count` and the entries with Acquire loads and re-reads
//!   `seq`: had any load seen a later incarnation's field, the Release
//!   store it read from would order the `seq` bump before the re-read. So
//!   `seq == n` proves the copy is `n`'s, and a mismatch means `n` is
//!   decided and gone: the helper touches nothing. The helper then works
//!   from its copy only.
//! * **Late marks stay revertible without waiting.** A helper's mark can
//!   land at `*ptr_i` after the decision (Lemma 3's late mark), and the
//!   owner may since have moved on, overwriting `old_i`. So before helper
//!   `m` installs `mark(t, n, m)` at `*ptr_i` it writes {mark, `ptr_i`,
//!   `old_i`} into its own record's pending-install slot (a seqlock of its
//!   own). A reader that finds `mark(t, n, m)` with `m ≠ t` and a gone
//!   incarnation reads record `m`: if the slot names this mark at this
//!   word, it CASes the word back to the recorded `old`; otherwise `m` has
//!   already dealt with that install, and the reader re-reads the word.
//!   Every record naming one (mark, word) pair carries the same `old`. The
//!   owner's own marks need no slot: the owner swings or reverts them
//!   before it returns.
//! * **One commit in flight per thread.** A thread never starts an
//!   incarnation while its previous one is undecided, and helping never
//!   starts one (debug builds assert it through the announce slot).
//!
//! # Memory safety (hazard discipline)
//!
//! Records are static, so a descriptor word is always safe to follow.
//! Before touching any target word, a helper adopts every entry's `hp`
//! (the allocation containing the word) into `HELP0 + i`, then reads the
//! decision (line D4): while the incarnation is undecided its initiator is
//! still inside it and its own protections cover the targets (the paper's
//! Lemma 6, generalized). If it is already decided (or gone), the helper
//! only fixes the word it came through, whose allocation its caller
//! protects — found by matching the word's address against
//! `entries[i].ptr`.

use crate::atomic::DAtomic;
use crate::sync::{AtomicPtr, AtomicUsize, Ordering};
use crate::word::{self, Word};
use lfc_hazard::{slot, Guard};
use lfc_runtime::fault::{site, FaultGate};
use lfc_runtime::MAX_THREADS;

/// Maximum entries in one commit (1 remove + up to 5 insert targets).
/// Bounded by the per-thread `HELP*` hazard slots, one per entry.
pub const MAX_ENTRIES: usize = 6;

const _: () = assert!(MAX_ENTRIES == slot::HELP_COUNT);

/// Winner-slot states, in the kind bits of a slot value whose `seq` field
/// names the incarnation (kind `01` is a winner mark).
const UNDECIDED: Word = 0b00;
/// Entry did not match `old_i` (or held a foreign descriptor).
const FAILED: Word = 0b10;
/// Every word has been swung to its new value (`res[K−1]` only).
const SUCCESS: Word = 0b11;

/// Outcome of a commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CasnResult {
    /// All words matched and were swung atomically.
    Success,
    /// Entry `i` did not match `old_i` (or was busy with a foreign
    /// operation); nothing was left changed.
    FailedAt(usize),
}

/// One CAS triple plus the helper protection for its word.
#[derive(Clone, Copy, Debug)]
pub struct CasnEntry {
    /// Target word.
    pub ptr: *const DAtomic,
    /// Expected value.
    pub old: Word,
    /// Replacement value.
    pub new: Word,
    /// Base address of the allocation containing the word (0 = none).
    pub hp: usize,
}

impl Default for CasnEntry {
    fn default() -> Self {
        CasnEntry {
            ptr: std::ptr::null(),
            old: 0,
            new: 0,
            hp: 0,
        }
    }
}

/// One entry of a [`Record`]: written by the owner with Release stores,
/// copied by helpers with Acquire loads (the seqlock in the module docs).
#[repr(C)]
struct EntryCell {
    ptr: AtomicPtr<DAtomic>,
    old: AtomicUsize,
    new: AtomicUsize,
    hp: AtomicUsize,
}

impl EntryCell {
    const fn new() -> Self {
        EntryCell {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            old: AtomicUsize::new(0),
            new: AtomicUsize::new(0),
            hp: AtomicUsize::new(0),
        }
    }

    /// Owner only. Release (audited): each store orders the `seq` bump
    /// before it, so a helper whose Acquire load reads it re-reads the new
    /// `seq`.
    fn write(&self, e: &CasnEntry) {
        self.ptr.store(e.ptr.cast_mut(), Ordering::Release);
        self.old.store(e.old, Ordering::Release);
        self.new.store(e.new, Ordering::Release);
        self.hp.store(e.hp, Ordering::Release);
    }

    /// Acquire (audited): pairs with [`EntryCell::write`].
    fn read(&self) -> CasnEntry {
        CasnEntry {
            ptr: self.ptr.load(Ordering::Acquire),
            old: self.old.load(Ordering::Acquire),
            new: self.new.load(Ordering::Acquire),
            hp: self.hp.load(Ordering::Acquire),
        }
    }
}

/// A helper's pending-install slot: the mark it is about to install, the
/// word and that entry's `old`, so readers can revert a late mark of a
/// gone incarnation without waiting for the installer. Written only by
/// the record's own thread; `ver` is odd while a write is in progress.
#[repr(C)]
struct Pending {
    ver: AtomicUsize,
    mark: AtomicUsize,
    ptr: AtomicUsize,
    old: AtomicUsize,
}

impl Pending {
    const fn new() -> Self {
        Pending {
            ver: AtomicUsize::new(0),
            mark: AtomicUsize::new(0),
            ptr: AtomicUsize::new(0),
            old: AtomicUsize::new(0),
        }
    }

    /// Owner only: record the install about to happen. Relaxed odd `ver`
    /// then Release fields (audited): a reader whose Acquire load sees a
    /// field of this write re-reads `ver` at least odd; the Release even
    /// `ver` publishes the whole record to a reader's first Acquire load.
    fn publish(&self, mark: Word, ptr: usize, old: Word) {
        let v = self.ver.load(Ordering::Relaxed);
        self.ver.store(v + 1, Ordering::Relaxed);
        self.mark.store(mark, Ordering::Release);
        self.ptr.store(ptr, Ordering::Release);
        self.old.store(old, Ordering::Release);
        self.ver.store(v + 2, Ordering::Release);
    }

    /// The recorded `old` if a consistent read of the slot names `mark`
    /// at `ptr`. Acquire loads, Relaxed re-read (audited): as
    /// [`Record::snapshot`].
    fn old_for(&self, mark: Word, ptr: usize) -> Option<Word> {
        let v = self.ver.load(Ordering::Acquire);
        let named =
            self.mark.load(Ordering::Acquire) == mark && self.ptr.load(Ordering::Acquire) == ptr;
        let old = self.old.load(Ordering::Acquire);
        (v.is_multiple_of(2) && named && self.ver.load(Ordering::Relaxed) == v).then_some(old)
    }
}

/// One thread's descriptor record (the paper's `DCASDesc`, K entries wide,
/// reused for every published commit). Line 0 holds `seq`, `count` and the
/// winner slots, the next three the entries, so a K=2 commit touches two
/// descriptor lines; the last line holds what only the record's own thread
/// writes: the announce slot and the pending-install slot.
#[repr(C, align(64))]
pub(crate) struct Record {
    /// The current incarnation; only grows (modulo `SEQ_MAX + 1`), also
    /// across tid reincarnations. Written only by the owner.
    seq: AtomicUsize,
    count: AtomicUsize,
    /// `res[i]` is entry `i`'s winner slot. `res[0]` is unused: entry 0 is
    /// announced by the initiator alone, so it has no race.
    res: [AtomicUsize; MAX_ENTRIES],
    entries: [EntryCell; MAX_ENTRIES],
    /// 0, or the owner's in-flight plain descriptor word, for adopters
    /// (`crate::adopt`). Deliberately a `std` atomic, not the model
    /// facade: it is control-plane metadata written around every
    /// published commit, and an adopter synchronizes with a corpse through
    /// the fault registry's flag (also `std`), so instrumenting it would
    /// only add scheduling points.
    announce: std::sync::atomic::AtomicUsize,
    pending: Pending,
}

const _: () = assert!(std::mem::offset_of!(Record, entries) == 64);
const _: () = assert!(std::mem::size_of::<Record>() == 320);

impl Record {
    const fn new() -> Self {
        Record {
            seq: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
            res: [const { AtomicUsize::new(0) }; MAX_ENTRIES],
            entries: [const { EntryCell::new() }; MAX_ENTRIES],
            announce: std::sync::atomic::AtomicUsize::new(0),
            pending: Pending::new(),
        }
    }

    /// Start the owner's next incarnation holding `entries`, unpublished —
    /// the seqlock writer. Returns its `seq`.
    fn begin(&self, entries: &[CasnEntry]) -> usize {
        debug_assert_eq!(
            self.announce.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "one commit in flight per thread"
        );
        // Relaxed (audited): only the owner writes `seq`; the Release field
        // stores below order the bump before themselves for helpers.
        let n = (self.seq.load(Ordering::Relaxed) + 1) & word::SEQ_MAX;
        self.seq.store(n, Ordering::Relaxed);
        // Release (audited): as `EntryCell::write`.
        self.count.store(entries.len(), Ordering::Release);
        for (cell, e) in self.entries.iter().zip(entries) {
            cell.write(e);
        }
        // Relaxed (audited): D10's Release CAS publishes the reset to every
        // executor of `n`; a stale executor's RMWs read the latest value.
        for r in &self.res[1..entries.len()] {
            r.store(word::seq_bits(n) | UNDECIDED, Ordering::Relaxed);
        }
        counters::DESC_POOL_HITS.add(1);
        n
    }

    /// A helper's copy of incarnation `n`, with the helper's adoption of
    /// the entries' protections (lines D2–D3) interleaved: `HELP0`/`HELP1`
    /// are stored before line 0 (`count`, `seq`, `res`) is read, just
    /// before D4 reads it again. `None` (protections cleared) when `n` is
    /// no longer the record's incarnation.
    fn snapshot(&self, n: usize, g: &Guard) -> Option<Snapshot> {
        let mut entries = [CasnEntry::default(); MAX_ENTRIES];
        entries[0] = self.entries[0].read();
        entries[1] = self.entries[1].read();
        g.set(slot::HELP0, entries[0].hp);
        g.set(slot::HELP0 + 1, entries[1].hp);
        // Acquire (audited): as `EntryCell::read`. Clamped: a later
        // incarnation's count is discarded below, but must index safely.
        let count = self.count.load(Ordering::Acquire).clamp(2, MAX_ENTRIES);
        for (i, e) in entries.iter_mut().enumerate().take(count).skip(2) {
            *e = self.entries[i].read();
            g.set(slot::HELP0 + i, e.hp);
        }
        // Relaxed (audited): ordered after the Acquire loads above.
        let now = self.seq.load(Ordering::Relaxed);
        #[cfg(lfc_model)]
        if crate::adopt::model_toggles::SKIP_SEQ_CHECK.load(std::sync::atomic::Ordering::Relaxed) {
            return Some(Snapshot {
                seq: now,
                count,
                entries,
            });
        }
        if now != n {
            clear_help(g, count);
            return None;
        }
        Some(Snapshot {
            seq: n,
            count,
            entries,
        })
    }

    /// Lines D4–D9's test for incarnation `n` over its first `count`
    /// entries: the first slot of `res[1..K)` that does not hold a winner.
    ///
    /// SeqCst (audited, required): for a helper these loads are the
    /// validation half of the Dekker pair with the `HELP*` hazard stores
    /// in [`Record::snapshot`] — the load that finds the operation
    /// undecided proves the initiator was still inside it, so its hazards
    /// covered the target allocations while ours were published (Lemma 6).
    /// An Acquire load could be satisfied before those hazard stores
    /// became visible to a scanner. At K = 2 this is one load of `res[1]`.
    fn decision(&self, count: usize, n: usize) -> Decision {
        let mine = word::seq_bits(n);
        for (i, r) in self.res.iter().enumerate().take(count).skip(1) {
            let r = r.load(Ordering::SeqCst);
            if word::seq(r) != n {
                return Decision::Gone;
            }
            match r ^ mine {
                UNDECIDED => return Decision::Undecided,
                FAILED => return Decision::Decided(CasnResult::FailedAt(i)),
                SUCCESS => return Decision::Decided(CasnResult::Success),
                // A winner: final for i < K−1, so the decision lies further
                // on; at K−1 the swing is still in progress.
                _ => {}
            }
        }
        Decision::Undecided
    }

    fn announce(&self, plain: Word) {
        // Release (audited): an adopter reads this slot only after winning
        // `fault::claim_corpse` — an Acquire CAS of the corpse flag the
        // dying thread Release-stores *after* this store in program order
        // (every kill site sits between announce and clear). That edge
        // already makes the record's fields visible to the adopter; SeqCst
        // here would put a full fence on every published commit.
        self.announce
            .store(plain, std::sync::atomic::Ordering::Release);
    }
}

/// Every thread's descriptor record, indexed by tid (40 KB of `.bss`).
static RECORDS: [Record; MAX_THREADS] = [const { Record::new() }; MAX_THREADS];

fn record(tid: u16) -> &'static Record {
    &RECORDS[tid as usize]
}

/// `tid`'s announced in-flight plain descriptor word, or 0.
pub(crate) fn announced(tid: u16) -> Word {
    record(tid)
        .announce
        .load(std::sync::atomic::Ordering::SeqCst)
}

/// Clear `tid`'s announce slot. Release: nothing is published; the slot
/// only transitions to "nothing in flight".
pub(crate) fn clear_announce(tid: u16) {
    record(tid)
        .announce
        .store(0, std::sync::atomic::Ordering::Release);
}

/// A helper's validated copy of one incarnation.
struct Snapshot {
    seq: usize,
    count: usize,
    entries: [CasnEntry; MAX_ENTRIES],
}

/// Where an incarnation stands, as D4 reads it.
enum Decision {
    Undecided,
    Decided(CasnResult),
    /// The record has moved on: the incarnation is decided and its owner
    /// has returned.
    Gone,
}

fn clear_help(g: &Guard, count: usize) {
    for i in 0..count {
        g.clear(slot::HELP0 + i);
    }
}

/// Diagnostic counters (used by the engine tests, the model scenarios and
/// the benchmark). Sharded per thread
/// ([`lfc_runtime::ShardedCounter`]): the incarnation counter is bumped on
/// every published commit, and a global line would be shared by every
/// committing thread.
pub mod counters {
    use lfc_runtime::ShardedCounter;

    pub(crate) static HELP_RUNS: ShardedCounter = ShardedCounter::new();
    pub(crate) static STALE_MARK_REVERTS: ShardedCounter = ShardedCounter::new();
    pub(crate) static DESC_POOL_HITS: ShardedCounter = ShardedCounter::new();

    /// Number of helper invocations of the protocol (each is a `read` that
    /// found a descriptor of a current incarnation and joined it).
    pub fn help_runs() -> usize {
        HELP_RUNS.get()
    }

    /// Number of reverted late marks: marked descriptor words put back to
    /// their entry's old value after the operation was decided, or after
    /// their incarnation was gone. Three paths count: an executor's Lemma 3
    /// self-revert of its own losing or late mark, a reader that meets a
    /// stale mark after the decision, and the revert of a mark whose
    /// incarnation is gone. The false helping of the paper's §7 (a helper
    /// whose expected old value reappeared through ABA) is one source
    /// among these, so the count can move on an ABA-free word.
    pub fn stale_mark_reverts() -> usize {
        STALE_MARK_REVERTS.get()
    }

    /// Descriptor incarnations started by published commits, at every
    /// width (each reuses its thread's one record; the name predates it).
    pub fn desc_pool_hits() -> usize {
        DESC_POOL_HITS.get()
    }

    /// Always 0: no descriptor is ever allocated. The five always-0
    /// readers remain until a benchmark-definition change drops the
    /// `dcas.*_pool_hit_ratio` rows.
    pub fn desc_pool_misses() -> usize {
        0
    }

    /// Always 0; see [`desc_pool_misses`].
    pub fn casn_pool_hits() -> usize {
        0
    }

    /// Always 0; see [`desc_pool_misses`].
    pub fn casn_pool_misses() -> usize {
        0
    }

    /// Always 0; see [`desc_pool_misses`].
    pub fn rdcss_pool_hits() -> usize {
        0
    }

    /// Always 0; see [`desc_pool_misses`].
    pub fn rdcss_pool_misses() -> usize {
        0
    }
}

/// The published commit of [`crate::engine::commit_entries`], every width:
/// start an incarnation of this thread's record for `entries`, publish it
/// and run the protocol as its initiator. The solo regime and alias
/// detection are the engine's, dispatched before this is reached; a retry
/// re-captures its entries into the next incarnation.
///
/// # Safety
///
/// As `commit_entries`.
pub(crate) unsafe fn commit(entries: &[CasnEntry], g: &Guard) -> CasnResult {
    let tid = g.tid();
    let rec = record(tid);
    let n = rec.begin(entries);
    let plain = word::dcas_plain(tid, n);
    // Announce the in-flight operation for adopters before publication:
    // from here until `clear_announce`, a survivor can complete this commit
    // on our behalf if we die (`crate::adopt_dead_threads`). The kill site
    // models exactly that death. One armed-flag load covers every
    // kill site this commit passes (announce, publish).
    let fg = lfc_runtime::fault::gate();
    rec.announce(plain);
    fg.check_kill(site::DCAS_ANNOUNCED);
    // Safety: the caller keeps every target word alive.
    let via = unsafe { &*entries[0].ptr };
    let result = body(rec, entries, n, plain, via, true, g, fg);
    clear_announce(tid);
    result.expect("an initiator's incarnation cannot end under it")
}

/// Help the incarnation whose descriptor word `w` was found in `via`
/// (non-initiator entry point). A word of a gone incarnation is left to
/// the caller's re-read, except a helper's late mark, which is reverted
/// through its installer's pending-install slot.
///
pub(crate) fn help(w: Word, via: &DAtomic, g: &Guard) {
    // Kill site at the helping boundary: a helper that dies here has
    // published nothing yet.
    let fg = lfc_runtime::fault::gate();
    fg.check_kill(site::DCAS_HELP);
    let rec = record(word::owner(w));
    match rec.snapshot(word::seq(w), g) {
        Some(s) => {
            counters::HELP_RUNS.add(1);
            let _ = run(rec, &s, w, via, g, fg);
        }
        None => revert_gone_mark(w, via),
    }
}

/// A reader found `w` in `via` and `w`'s incarnation is gone: if `w` is a
/// helper's late mark, revert it from the installer's pending-install
/// slot. Plain words and the owner's own marks need nothing — the owner
/// removed them before it moved on, so the caller's re-read sees progress.
fn revert_gone_mark(w: Word, via: &DAtomic) {
    if !word::is_marked_dcas(w) || word::marker(w) == word::owner(w) {
        return;
    }
    #[cfg(lfc_model)]
    if crate::adopt::model_toggles::SKIP_PENDING_REVERT.load(std::sync::atomic::Ordering::Relaxed) {
        return;
    }
    let pending = &record(word::marker(w)).pending;
    if let Some(old) = pending.old_for(w, via as *const DAtomic as usize) {
        if via.cas_word(w, old) {
            counters::STALE_MARK_REVERTS.add(1);
        }
    }
}

/// Whether `plain`'s incarnation is currently installed at its first word
/// — adoption's publication test.
///
/// The D10 first-word install is initiator-only: [`run`] as a helper
/// assumes it already happened, installs marks at the later words, and
/// "commits" with the `*ptr_0` swing CAS failing silently — a torn
/// half-commit — if the initiator in fact never published. An adopter must
/// therefore never help a corpse's *announced-but-unpublished* commit.
/// `*ptr_0` holds `plain` exactly between D10 and the decided swing/revert,
/// and a corpse's record never starts another incarnation, so a single
/// load is a stable test: `false` means never-published or
/// already-decided, and with the initiator dead neither can change — there
/// is nothing left to complete.
///
/// # Safety
///
/// `plain` must be a corpse's announced word, so that its record holds
/// that incarnation and the corpse's hazards keep its first word alive.
pub(crate) unsafe fn is_published(plain: Word) -> bool {
    let e0 = record(word::owner(plain)).entries[0].read();
    // Safety: forwarded contract.
    unsafe { &*e0.ptr }.load_word() == plain
}

/// Run a published incarnation as a helper that came through its first
/// word — a stalled initiator resuming, or an adopter completing a
/// corpse's commit. `None` when the incarnation is gone.
///
/// # Safety
///
/// The first word's allocation must be protected while the incarnation is
/// current.
pub(crate) unsafe fn help_first_word(plain: Word, g: &Guard) -> Option<CasnResult> {
    let rec = record(word::owner(plain));
    let s = rec.snapshot(word::seq(plain), g)?;
    // Safety: forwarded contract; the snapshot validated the entry.
    let via = unsafe { &*s.entries[0].ptr };
    run(rec, &s, plain, via, g, lfc_runtime::fault::gate())
}

/// The protocol as a helper of the validated snapshot `s`, with the
/// caller's [`FaultGate`] snapshot; releases the protections
/// [`Record::snapshot`] adopted.
fn run(
    rec: &Record,
    s: &Snapshot,
    desc_word: Word,
    via: &DAtomic,
    g: &Guard,
    fg: FaultGate,
) -> Option<CasnResult> {
    let result = body(
        rec,
        &s.entries[..s.count],
        s.seq,
        desc_word,
        via,
        false,
        g,
        fg,
    );
    clear_help(g, s.count);
    result
}

fn entry(es: &[CasnEntry], i: usize) -> (&CasnEntry, &DAtomic) {
    let e = &es[i];
    // Safety: target words' allocations are protected for every executor
    // that reaches here (the initiator's operation borrows, or a helper's
    // adopted hazards validated by the undecided D4 read).
    (e, unsafe { &*e.ptr })
}

/// Lines D1–D31 over the entries `es` of `rec`'s incarnation `n`. `via` is
/// the word the executor came through (`*ptr_0` for the initiator and
/// adopters). `None` when the executor finds the incarnation gone.
#[allow(clippy::too_many_arguments)]
fn body(
    rec: &Record,
    es: &[CasnEntry],
    n: usize,
    desc_word: Word,
    via: &DAtomic,
    initiator: bool,
    g: &Guard,
    fg: FaultGate,
) -> Option<CasnResult> {
    let owner = word::owner(desc_word);
    let plain = word::dcas_plain(owner, n);
    let k = es.len();

    // D4–D9: already decided — fix up the word we came through and return.
    match rec.decision(k, n) {
        Decision::Undecided => {}
        Decision::Decided(r) => {
            finish_decided(es, desc_word, via, Some(r));
            return Some(r);
        }
        Decision::Gone => {
            finish_decided(es, desc_word, via, None);
            return None;
        }
    }

    // D10–D11: the initiator announces the operation. The CAS's Release
    // publishes the incarnation's fields to every helper that
    // Acquire-reads the word.
    let (e0, ptr0) = entry(es, 0);
    if initiator {
        if !ptr0.cas_word(e0.old, plain) {
            return Some(CasnResult::FailedAt(0));
        }
        // Kill site: the initiator dies with the descriptor installed at
        // `*ptr_0` and the later words untouched — the worst-case torn
        // state. Survivors complete it via `read`-helping or adoption.
        fg.check_kill(site::DCAS_PUBLISHED);
    }

    let me = g.tid();
    let my_mark = word::dcas_marked(owner, n, me);
    let undecided = word::seq_bits(n) | UNDECIDED;
    let failed = word::seq_bits(n) | FAILED;
    let success = word::seq_bits(n) | SUCCESS;
    // The winner recorded for each entry so far (`won[0]` unused).
    let mut won = [0; MAX_ENTRIES];
    for i in 1..k {
        let (e, ptr) = entry(es, i);
        let res = &rec.res[i];

        // A helper's mark may outlive the incarnation (a late mark after
        // an ABA of `old_i`): record it first, so a reader can revert it
        // without us (module docs).
        if me != owner {
            record(me).pending.publish(my_mark, e.ptr as usize, e.old);
        }
        // D13–D14: try to install our marked descriptor word at word i.
        let set = ptr.cas_word(e.old, my_mark);

        // Choose the marked word to promote as winner: ours if we installed
        // it; otherwise, if some marked word of this incarnation is
        // installed, that one (this is the D15–D16 re-check: `*ptr_i` still
        // refers to this descriptor).
        let installed = if set {
            my_mark
        } else {
            let cur = ptr.load_word();
            if word::is_marked_dcas(cur) && word::unmarked(cur) == plain {
                cur
            } else {
                // D17: genuine mismatch (or a foreign descriptor) — try to
                // decide FAILED. AcqRel/Acquire (audited): decisions are
                // serialized by this RMW's modification order on `res[i]`
                // alone; no cross-location fence is involved. Release
                // publishes nothing here (failure changes no word), Acquire
                // pairs with the winning side's Release so the
                // post-decision fix-ups below see its writes.
                let _ =
                    res.compare_exchange(undecided, failed, Ordering::AcqRel, Ordering::Acquire);
                // Acquire (audited): pairs with the Release of whichever RMW
                // decided `res[i]`; same-location coherence gives the
                // latest decision.
                match res.load(Ordering::Acquire) {
                    r if word::seq(r) != n => return None,
                    r if r == success => return Some(CasnResult::Success), // D18–D19
                    r if r == failed => {
                        // D20–D22: revert the announcement.
                        revert(rec, es, n, plain, &won[..i]);
                        return Some(CasnResult::FailedAt(i));
                    }
                    // A winner was recorded concurrently; help complete
                    // with it.
                    r => r,
                }
            }
        };

        // D24: promote the installed marked word. While `res[i]` is
        // undecided word i cannot change (all competing CASes expect
        // `old_i`, and marks of this incarnation are only removed once
        // `res[i]` is decided), so a successful promotion certifies
        // `installed` is in place — an argument built on same-location
        // coherence of `*ptr_i` and the total modification order of
        // `res[i]`, neither of which needs SeqCst. AcqRel/Acquire (audited)
        // as at D17.
        let _ = res.compare_exchange(undecided, installed, Ordering::AcqRel, Ordering::Acquire);
        // Acquire (audited): as at D17.
        let r = res.load(Ordering::Acquire);

        if set && r != my_mark {
            // D25–D27 / Lemma 3: we installed but lost the promotion race,
            // or arrived after the decision (a late mark after an ABA of
            // `old_i`) — change it back to its old value.
            revert_own_mark(ptr, my_mark, e.old);
        }
        if word::seq(r) != n {
            // Gone: decided, and its owner cleaned up before moving on.
            return None;
        }
        if r == failed {
            // The decision went against us: make sure the winners so far
            // and the announcement are reverted.
            revert(rec, es, n, plain, &won[..i]);
            return Some(CasnResult::FailedAt(i));
        }
        if r == success {
            // Completed by other processes.
            debug_assert_eq!(i, k - 1, "only the last slot decides SUCCESS");
            return Some(CasnResult::Success);
        }
        debug_assert!(word::is_marked_dcas(r) && word::unmarked(r) == plain);
        won[i] = r;
    }

    // D28–D30: complete. `*ptr_0` swings from the announcement to `new_0`
    // exactly once; each `*ptr_i` swings from exactly its winner to `new_i`
    // exactly once; only then is SUCCESS published. AcqRel/Acquire
    // (audited): the Release orders every swing before SUCCESS for any
    // Acquire reader of `res[K−1]`; the swings themselves are AcqRel CASes
    // on their own words.
    ptr0.cas_word(plain, e0.new);
    for (i, &w) in won.iter().enumerate().take(k).skip(1) {
        let (e, ptr) = entry(es, i);
        ptr.cas_word(w, e.new);
    }
    let _ =
        rec.res[k - 1].compare_exchange(won[k - 1], success, Ordering::AcqRel, Ordering::Acquire);
    Some(CasnResult::Success)
}

/// The failed decision's fix-up: revert the winners `won[1..]` recorded
/// before the failing entry `won.len()`, then the announcement at `*ptr_0`.
#[cfg_attr(not(lfc_model), allow(unused_variables))]
fn revert(rec: &Record, es: &[CasnEntry], n: usize, plain: Word, won: &[Word]) {
    // The slots read as winners, this FAILED, then UNDECIDED only: no
    // executor got past the failing entry (a slot of a later incarnation
    // says nothing about this one). Checked by the model searches.
    #[cfg(lfc_model)]
    for r in &rec.res[won.len() + 1..es.len()] {
        let r = r.load(Ordering::Acquire);
        assert!(
            word::seq(r) != n || r == word::seq_bits(n) | UNDECIDED,
            "a slot after a FAILED one left UNDECIDED"
        );
    }
    for (i, &w) in won.iter().enumerate().skip(1).rev() {
        let (e, ptr) = entry(es, i);
        ptr.cas_word(w, e.old);
    }
    let (e0, ptr0) = entry(es, 0);
    ptr0.cas_word(plain, e0.old);
}

/// Lemma 3's self-revert of a losing or late mark.
fn revert_own_mark(ptr: &DAtomic, mark: Word, old: Word) {
    #[cfg(lfc_model)]
    if crate::adopt::model_toggles::SKIP_SELF_REVERT.load(std::sync::atomic::Ordering::Relaxed) {
        return;
    }
    if ptr.cas_word(mark, old) {
        counters::STALE_MARK_REVERTS.add(1);
    }
}

/// Lines D5–D8: the incarnation is decided (`r`), or gone (`None`), but
/// the word we came through, `via`, still held a descriptor word — clean
/// it up so readers can make progress.
fn finish_decided(es: &[CasnEntry], desc_word: Word, via: &DAtomic, r: Option<CasnResult>) {
    if word::is_marked_dcas(desc_word) {
        // Came through a later word holding a stale mark (on SUCCESS every
        // winner was consumed before SUCCESS was stored, so whatever is
        // still installed is an ABA leftover; on FAILED every installation
        // is stale): revert it to that entry's old value.
        let e = es[1..]
            .iter()
            .find(|e| std::ptr::eq(e.ptr, via))
            .expect("a marked word lives at one of the later entries");
        if via.cas_word(desc_word, e.old) {
            counters::STALE_MARK_REVERTS.add(1);
        }
    } else if let Some(CasnResult::FailedAt(_)) = r {
        // Came through `*ptr_0`: only a failed operation leaves the
        // announcement to revert (on SUCCESS `*ptr_0` already holds
        // `new_0`, and a gone owner reverted it before moving on).
        via.cas_word(desc_word, es[0].old);
    }
}

/// Test-support hooks exposing protocol internals so the suite can exercise
/// helper paths with a deterministically stalled initiator.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Start an incarnation of the calling thread's record for `entries`,
    /// announce it (line D10 only) and "stall": returns the plain
    /// descriptor word now installed at `*entries[0].ptr`, or `None` if the
    /// announcement failed. Until the incarnation is decided the calling
    /// thread must start no other commit (it would end this one
    /// undecided).
    ///
    /// # Safety
    ///
    /// As `commit_entries`, and the words must stay alive until the
    /// incarnation is decided.
    pub unsafe fn announce_only(entries: &[CasnEntry]) -> Option<Word> {
        let tid = lfc_runtime::current_tid();
        let n = record(tid).begin(entries);
        let plain = word::dcas_plain(tid, n);
        let (e0, ptr0) = entry(entries, 0);
        ptr0.cas_word(e0.old, plain).then_some(plain)
    }

    /// Run the protocol for a previously announced incarnation as if the
    /// stalled initiator resumed.
    ///
    /// # Safety
    ///
    /// `desc_word` must come from [`announce_only`], whose thread has
    /// started no commit since.
    pub unsafe fn resume(desc_word: Word, g: &Guard) -> CasnResult {
        // Resuming initiator: already announced, so run as a helper that
        // came through the first word.
        unsafe { help_first_word(desc_word, g) }.expect("the stalled incarnation is current")
    }

    /// The decision of `desc_word`'s incarnation, `None` while undecided
    /// or once gone.
    pub fn decision(desc_word: Word) -> Option<CasnResult> {
        let rec = record(word::owner(desc_word));
        let count = rec.count.load(Ordering::Acquire);
        match rec.decision(count, word::seq(desc_word)) {
            Decision::Decided(r) => Some(r),
            Decision::Undecided | Decision::Gone => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::commit_entries;
    use lfc_hazard::pin;

    fn entry(ptr: &DAtomic, old: Word, new: Word) -> CasnEntry {
        CasnEntry {
            ptr,
            old,
            new,
            hp: 0,
        }
    }

    fn commit(g: &Guard, entries: &[CasnEntry]) -> CasnResult {
        // Safety: every entry is built from a `&DAtomic` that outlives the
        // call, over pairwise-distinct words.
        unsafe { commit_entries(entries, g) }
    }

    fn entryless_commit(g: &Guard, words: &[&DAtomic], olds: &[Word], news: &[Word]) -> CasnResult {
        let entries: Vec<CasnEntry> = (0..words.len())
            .map(|i| entry(words[i], olds[i], news[i]))
            .collect();
        commit(g, &entries)
    }

    /// Run `f` with a registered peer alive, so its commits take the
    /// published protocol (marked-word races, reverts) even when this test
    /// is the only one running — a lone thread would commit solo, with no
    /// descriptor at all. Checks that `f` started at least `min`
    /// incarnations.
    fn published(min: usize, f: impl FnOnce(&Guard)) {
        lfc_runtime::fault::with_registered_peer(|| {
            let before = counters::desc_pool_hits();
            f(&pin());
            assert!(
                counters::desc_pool_hits() - before >= min,
                "the published protocol ran"
            );
        });
    }

    #[test]
    fn three_word_success() {
        published(1, |g| {
            let a = DAtomic::new(8);
            let b = DAtomic::new(16);
            let c = DAtomic::new(24);
            let r = entryless_commit(g, &[&a, &b, &c], &[8, 16, 24], &[80, 160, 240]);
            assert_eq!(r, CasnResult::Success);
            assert_eq!(a.read(g), 80);
            assert_eq!(b.read(g), 160);
            assert_eq!(c.read(g), 240);
        });
    }

    #[test]
    fn mid_entry_failure_reverts_everything() {
        published(1, |g| {
            let a = DAtomic::new(8);
            let b = DAtomic::new(16);
            let c = DAtomic::new(24);
            let r = entryless_commit(g, &[&a, &b, &c], &[8, 99, 24], &[80, 160, 240]);
            assert_eq!(r, CasnResult::FailedAt(1));
            assert_eq!(a.read(g), 8, "entry 0 reverted");
            assert_eq!(b.read(g), 16);
            assert_eq!(c.read(g), 24, "entry 2 never touched");
        });
    }

    #[test]
    fn failure_reports_first_failing_index() {
        published(1, |g| {
            let a = DAtomic::new(8);
            let b = DAtomic::new(16);
            let c = DAtomic::new(24);
            let r = entryless_commit(
                g,
                &[&a, &b, &c],
                &[0xBAD0, 0xBAD0, 0xBAD0],
                &[1 << 4, 2 << 4, 3 << 4],
            );
            assert_eq!(r, CasnResult::FailedAt(0));
            assert_eq!((a.read(g), b.read(g), c.read(g)), (8, 16, 24));
        });
    }

    #[test]
    fn six_entries_supported() {
        published(1, |g| {
            let words: Vec<DAtomic> = (0..MAX_ENTRIES).map(|i| DAtomic::new(i * 8)).collect();
            let refs: Vec<&DAtomic> = words.iter().collect();
            let olds: Vec<Word> = (0..MAX_ENTRIES).map(|i| i * 8).collect();
            let news: Vec<Word> = (0..MAX_ENTRIES).map(|i| i * 8 + 8).collect();
            let r = entryless_commit(g, &refs, &olds, &news);
            assert_eq!(r, CasnResult::Success);
            for (i, w) in words.iter().enumerate() {
                assert_eq!(w.read(g), i * 8 + 8);
            }
        });
    }

    #[test]
    fn consecutive_commits_reuse_one_record_with_distinct_words() {
        // One thread's published commits are incarnations of one record:
        // same owner, `seq` up by one per commit, so no two words (plain
        // or marked) of different commits are equal.
        published(3, |g| {
            let a = DAtomic::new(8);
            let b = DAtomic::new(16);
            let es = [entry(&a, 8, 24), entry(&b, 16, 32)];
            // Safety: both words outlive the incarnation, which is decided
            // by `resume` before this thread starts another.
            let w1 = unsafe { test_support::announce_only(&es) }.expect("a holds 8");
            assert_eq!(unsafe { test_support::resume(w1, g) }, CasnResult::Success);
            assert_eq!(
                commit(g, &[entry(&a, 24, 40), entry(&b, 32, 48)]),
                CasnResult::Success
            );
            let es = [entry(&a, 40, 56), entry(&b, 48, 64)];
            let w3 = unsafe { test_support::announce_only(&es) }.expect("a holds 40");
            assert_eq!(unsafe { test_support::resume(w3, g) }, CasnResult::Success);

            assert_eq!(word::owner(w1), g.tid());
            assert_eq!(word::owner(w3), g.tid());
            assert_eq!(word::seq(w3), (word::seq(w1) + 2) & word::SEQ_MAX);
            assert_ne!(w1, w3);
            assert_ne!(
                word::dcas_marked(g.tid(), word::seq(w1), 1),
                word::dcas_marked(g.tid(), word::seq(w3), 1)
            );
            assert_eq!(test_support::decision(w3), Some(CasnResult::Success));
            assert_eq!(test_support::decision(w1), None, "w1's incarnation is gone");
            assert_eq!((a.read(g), b.read(g)), (56, 64));
        });
    }

    #[test]
    fn contended_casn_advances_words_in_lockstep() {
        use std::sync::atomic::{AtomicUsize as C, Ordering as O};
        const THREADS: usize = 4;
        const SUCC: usize = 800;
        let words: Vec<std::sync::Arc<DAtomic>> = (0..3)
            .map(|i| std::sync::Arc::new(DAtomic::new(i * 8)))
            .collect();
        let total = std::sync::Arc::new(C::new(0));
        std::thread::scope(|sc| {
            for _ in 0..THREADS {
                let w: Vec<_> = words.to_vec();
                let total = total.clone();
                sc.spawn(move || {
                    let g = pin();
                    let mut done = 0;
                    while done < SUCC {
                        // Read word 0; derive the rest without reading them:
                        // success proves the triple held simultaneously.
                        let v0 = w[0].read(&g);
                        let es = [
                            entry(&w[0], v0, v0 + 24),
                            entry(&w[1], v0 + 8, v0 + 32),
                            entry(&w[2], v0 + 16, v0 + 40),
                        ];
                        if let CasnResult::Success = commit(&g, &es) {
                            done += 1;
                            total.fetch_add(1, O::Relaxed);
                        }
                    }
                });
            }
        });
        let g = pin();
        let n = total.load(O::Relaxed);
        assert_eq!(n, THREADS * SUCC);
        assert_eq!(words[0].read(&g), 24 * n);
        assert_eq!(words[1].read(&g), 24 * n + 8);
        assert_eq!(words[2].read(&g), 24 * n + 16);
    }

    #[test]
    fn readers_help_in_flight_casn() {
        // Concurrent plain readers (via read) while CASNs run: reads must
        // only ever observe raw values, never descriptors, and the final
        // state must be consistent.
        let a = std::sync::Arc::new(DAtomic::new(0));
        let b = std::sync::Arc::new(DAtomic::new(8));
        let c = DAtomic::new(16);
        std::thread::scope(|sc| {
            let (ar, br, cr) = (a.clone(), b.clone(), &c);
            sc.spawn(move || {
                let g = pin();
                for _ in 0..4_000 {
                    let v = ar.read(&g);
                    let es = [
                        entry(&ar, v, v + 24),
                        entry(&br, v + 8, v + 32),
                        entry(cr, v + 16, v + 40),
                    ];
                    let _ = commit(&g, &es);
                }
            });
            let (ar, br) = (a.clone(), b.clone());
            sc.spawn(move || {
                let g = pin();
                for _ in 0..40_000 {
                    let x = ar.read(&g);
                    let y = br.read(&g);
                    assert_eq!(x % 8, 0);
                    assert_eq!(y % 8, 0);
                    assert!(word::is_raw(x) && word::is_raw(y));
                }
            });
        });
        let g = pin();
        assert_eq!(b.read(&g), a.read(&g) + 8, "pair stayed in lockstep");
        assert_eq!(c.read(&g), a.read(&g) + 16, "third word in lockstep");
    }

    #[test]
    fn published_commits_retire_nothing() {
        published(10_000, |g| {
            let a = DAtomic::new(0);
            let b = DAtomic::new(0);
            let c = DAtomic::new(0);
            let retired = lfc_hazard::stats().0;
            for i in 0..10_000usize {
                let v = i * 8;
                let r = commit(
                    g,
                    &[
                        entry(&a, v, v + 8),
                        entry(&b, v, v + 8),
                        entry(&c, v, v + 8),
                    ],
                );
                assert_eq!(r, CasnResult::Success);
            }
            assert_eq!(
                lfc_hazard::stats().0,
                retired,
                "a reused descriptor is never retired"
            );
        });
    }
}
