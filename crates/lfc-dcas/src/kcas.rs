//! The K-word CAS: the paper's DCAS (§3.2.2, Algorithm 4) run entry by
//! entry over K = 2..[`MAX_ENTRIES`] words — the n-word generalization the
//! paper's conclusion proposes for n-object moves:
//!
//! > "Our methodology can also be easily extended to support n operations on
//! > n distinct objects, for example to create functions that remove an item
//! > from one object and insert it into n others atomically." (§8)
//!
//! A commit allocates a descriptor, fills in the K CAS triples captured at
//! the composed linearization points, and *announces* the operation by
//! CASing `*ptr_0` from `old_0` to an unmarked descriptor word (line D10;
//! the initiator alone does this). Then, for each entry `i` in `1..K` in
//! order, every executor — the initiator and any helper whose `read` found
//! a descriptor word — runs the D13–D27 race against the entry's own winner
//! slot `res[i]`:
//!
//! * install its thread-id-*marked* descriptor word at `*ptr_i` (D13–D14);
//! * promote the installed mark of *this* descriptor into `res[i]` (D24) —
//!   the first mark recorded wins;
//! * revert its own mark if it lost the race or arrived after the decision
//!   ("will have to change it back to its old value", Lemma 3).
//!
//! An entry holding neither `old_i` nor a mark of this descriptor decides
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
//! res[i], 1 ≤ i < K−1:  UNDECIDED ──► FAILED             (line D17)
//!                       UNDECIDED ──► winner mark        (line D24)
//! res[K−1]:             UNDECIDED ──► FAILED
//!                       UNDECIDED ──► winner mark ──► SUCCESS   (D24, D30)
//! ```
//!
//! Each slot leaves UNDECIDED once, and no executor works on entry `i + 1`
//! before `res[i]` holds a winner, so the slots always read as a prefix of
//! winners followed by at most one FAILED and then UNDECIDED slots. The
//! first slot that does not hold a winner is therefore the decision:
//! FAILED at `j` means the operation failed at entry `j` (every executor
//! that sees it reverts the winners of `res[1..j)` and the announcement
//! before returning), and SUCCESS — possible only in `res[K−1]` — is only
//! ever stored after every word has been swung.
//!
//! # Memory safety (hazard discipline)
//!
//! Executors reach a descriptor as its initiator, or through `read`, which
//! protects it in [`slot::DESC`] and validates. Before touching any target
//! word, a helper adopts every entry's `hp` (the allocation containing the
//! word) into `HELP0 + i`, then reads the decision (line D4): while the
//! operation is undecided the initiator is still inside it and its own
//! protections cover the targets (the paper's Lemma 6, generalized). If the
//! operation is already decided, the helper only fixes the word it came
//! through, whose allocation its caller protects — found by matching the
//! word's address against `entries[i].ptr`.

use crate::atomic::DAtomic;
use crate::pool::{Owned, Pooled};
use crate::sync::{AtomicUsize, Ordering};
use crate::word::{self, Word};
use lfc_hazard::{slot, Guard};
use lfc_runtime::fault::FaultGate;
use lfc_runtime::ShardedCounter;

/// Maximum entries in one commit (1 remove + up to 5 insert targets).
/// Bounded by the per-thread `HELP*` hazard slots, one per entry.
pub const MAX_ENTRIES: usize = 6;

const _: () = assert!(MAX_ENTRIES == slot::HELP_COUNT);

/// `res[i]`: entry `i` not yet decided.
const UNDECIDED: usize = 0;
/// `res[i]`: entry `i` did not match `old_i` (or held a foreign descriptor).
const FAILED: usize = 1;
/// `res[K−1]`: every word has been swung to its new value.
const SUCCESS: usize = 2;

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

/// The descriptor (the paper's `DCASDesc`, K entries wide). The first cache
/// line holds `count`, `birth` and the winner slots, the next ones the
/// entries, so a K=2 commit touches two lines.
///
/// All fields except `res` are written only while the descriptor is
/// unpublished (uniquely owned) and are immutable once the announcing CAS
/// publishes it, so helpers may read them through a shared reference.
#[repr(C, align(64))]
pub(crate) struct Desc {
    count: usize,
    /// Global era at (re)allocation ([`Pooled::birth`]).
    birth: usize,
    /// `res[i]` is entry `i`'s winner slot. `res[0]` stays UNDECIDED:
    /// entry 0 is announced by the initiator alone, so it has no race.
    res: [AtomicUsize; MAX_ENTRIES],
    entries: [CasnEntry; MAX_ENTRIES],
}

const _: () = assert!(std::mem::offset_of!(Desc, entries) == word::DESC_ALIGN);

// Safety: helpers on other threads read the immutable fields and CAS `res`;
// the raw pointers target `DAtomic`s whose allocations the protocol keeps
// alive (hazard adoption, lines D2–D3).
unsafe impl Send for Desc {}
unsafe impl Sync for Desc {}

impl Pooled for Desc {
    const SITE: &'static str = "dcas.desc";
    const HITS: &'static ShardedCounter = &counters::DESC_POOL_HITS;
    const MISSES: &'static ShardedCounter = &counters::DESC_POOL_MISSES;

    fn fresh(birth: usize) -> Self {
        Desc {
            count: 0,
            birth,
            res: std::array::from_fn(|_| AtomicUsize::new(UNDECIDED)),
            entries: [CasnEntry::default(); MAX_ENTRIES],
        }
    }

    fn reuse(&mut self, birth: usize) {
        // Only the previous operation's slots can have left UNDECIDED.
        // Relaxed reset is enough — publication happens-before is
        // established by the announcing CAS, never by these stores.
        for r in self.res.iter().take(self.count).skip(1) {
            r.store(UNDECIDED, Ordering::Relaxed);
        }
        self.birth = birth;
    }

    fn birth(&self) -> usize {
        self.birth
    }
}

impl Desc {
    fn entry(&self, i: usize) -> (&CasnEntry, &DAtomic) {
        let e = &self.entries[i];
        // Safety: target words' allocations are protected for every
        // executor that reaches here (the initiator's operation borrows,
        // or a helper's adopted hazards validated by the undecided D4
        // read).
        (e, unsafe { &*e.ptr })
    }

    /// Lines D4–D9's test: the decision, if any — the first slot of
    /// `res[1..K)` that does not hold a winner.
    ///
    /// SeqCst (audited, required): for a helper these loads are the
    /// validation half of the Dekker pair with the `HELP*` hazard stores
    /// in [`run`] — the load that finds the operation undecided proves the
    /// initiator was still inside it, so its hazards covered the target
    /// allocations while ours were published (Lemma 6). An Acquire load
    /// could be satisfied before those hazard stores became visible to a
    /// scanner. At K = 2 this is one load of `res[1]`.
    fn decision(&self) -> Option<CasnResult> {
        for i in 1..self.count {
            match self.res[i].load(Ordering::SeqCst) {
                UNDECIDED => return None,
                FAILED => return Some(CasnResult::FailedAt(i)),
                SUCCESS => return Some(CasnResult::Success),
                // A winner: final for i < K−1, so the decision lies further
                // on; at K−1 the swing is still in progress.
                _ => {}
            }
        }
        None
    }
}

/// Diagnostic counters (used by the false-helping ablation bench, the
/// pooling tests and the benchmark). Sharded per thread
/// ([`lfc_runtime::ShardedCounter`]): the pool ones are bumped on every
/// published commit, and a global line would be shared by every committing
/// thread.
pub mod counters {
    use lfc_runtime::ShardedCounter;

    pub(crate) static HELP_RUNS: ShardedCounter = ShardedCounter::new();
    pub(crate) static STALE_MARK_REVERTS: ShardedCounter = ShardedCounter::new();
    pub(crate) static DESC_POOL_HITS: ShardedCounter = ShardedCounter::new();
    pub(crate) static DESC_POOL_MISSES: ShardedCounter = ShardedCounter::new();

    /// Number of helper invocations of the protocol (each is a `read` that
    /// found a descriptor and joined the protocol).
    pub fn help_runs() -> usize {
        HELP_RUNS.get()
    }

    /// Number of marked-descriptor installations that had to be reverted —
    /// each one is a *false helping* episode caused by the ABA the paper's
    /// §7 discussion attributes to the stack.
    pub fn stale_mark_reverts() -> usize {
        STALE_MARK_REVERTS.get()
    }

    /// Descriptor allocations served by the per-thread pool, at every width.
    pub fn desc_pool_hits() -> usize {
        DESC_POOL_HITS.get()
    }

    /// Descriptor allocations that fell through to `lfc-alloc`.
    pub fn desc_pool_misses() -> usize {
        DESC_POOL_MISSES.get()
    }

    /// Always 0: every descriptor is counted by [`desc_pool_hits`]. The four
    /// `casn`/`rdcss` readers remain until a benchmark-definition change
    /// drops `dcas.casn_pool_hit_ratio` and `dcas.rdcss_pool_hit_ratio`.
    pub fn casn_pool_hits() -> usize {
        0
    }

    /// Always 0; see [`casn_pool_hits`].
    pub fn casn_pool_misses() -> usize {
        0
    }

    /// Always 0; see [`casn_pool_hits`].
    pub fn rdcss_pool_hits() -> usize {
        0
    }

    /// Always 0; see [`casn_pool_hits`].
    pub fn rdcss_pool_misses() -> usize {
        0
    }
}

/// Allocate a pooled descriptor holding `entries`, unpublished.
fn alloc(entries: &[CasnEntry]) -> Result<Owned<Desc>, lfc_alloc::AllocError> {
    let d = Owned::<Desc>::try_new(|d| {
        d.entries[..entries.len()].copy_from_slice(entries);
        d.count = entries.len();
    })?;
    debug_assert!(
        d.res[1..d.count]
            .iter()
            .all(|r| r.load(Ordering::Relaxed) == UNDECIDED),
        "descriptor reuse after publication"
    );
    Ok(d)
}

/// The published commit of [`crate::engine::try_commit_entries`], every
/// width: allocate a pooled descriptor for `entries`, publish it and run
/// the protocol as its initiator. The solo regime and alias detection are
/// the engine's, dispatched before this is reached; a retry re-captures its
/// entries, so nothing is handed back.
///
/// # Safety
///
/// As `commit_entries`.
pub(crate) unsafe fn commit(
    entries: &[CasnEntry],
    g: &Guard,
) -> Result<CasnResult, lfc_alloc::AllocError> {
    let d = alloc(entries)?;
    let plain = word::dcas_plain(d.addr());
    // Announce the in-flight operation in the adoption table before
    // publication: from here until `clear_announce`, a survivor can
    // complete this commit on our behalf if we die
    // (`crate::adopt_dead_threads`). The kill site models exactly that
    // death. One armed-generation load covers every kill site this
    // commit passes (announce, publish, and any helping it triggers).
    let fg = lfc_runtime::fault::gate();
    crate::adopt::announce(g.tid(), plain);
    fg.check_kill("dcas.announced");
    // Safety: we own the descriptor; the protocol publishes it.
    let result = unsafe { run(plain, &*entries[0].ptr, true, g, fg) };
    crate::adopt::clear_announce(g.tid());
    match result {
        // Announcement failed: never published, so dropping recycles the
        // block straight into the pool.
        CasnResult::FailedAt(0) => drop(d),
        // Published (helpers may hold it): through the hazard domain.
        _ => d.retire(),
    }
    Ok(result)
}

/// Help a published descriptor found in `via` (non-initiator entry point).
///
/// # Safety
///
/// `desc_word` must reference a descriptor currently protected by the
/// caller's [`slot::DESC`] hazard and validated as still installed in
/// `via`, whose allocation the caller protects.
pub(crate) unsafe fn help(desc_word: Word, via: &DAtomic, g: &Guard) {
    // Kill site at the helping boundary: a helper that dies here has
    // published nothing yet — its only obligation (the DESC hazard) stays
    // protected by its corpse bank until adoption. One armed-generation
    // load gates this and the nested `dcas.published` site.
    let fg = lfc_runtime::fault::gate();
    fg.check_kill("dcas.help");
    counters::HELP_RUNS.add(1);
    // Safety: forwarded contract.
    let _ = unsafe { run(desc_word, via, false, g, fg) };
}

/// Whether `plain`'s descriptor is currently installed at its first word
/// — adoption's publication test.
///
/// The D10 first-word install is initiator-only: [`run`] as a helper
/// assumes it already happened, installs marks at the later words, and
/// "commits" with the `*ptr_0` swing CAS failing silently — a torn
/// half-commit — if the initiator in fact never published. An adopter must
/// therefore never help a corpse's *announced-but-unpublished* commit.
/// `*ptr_0` holds `plain` exactly between D10 and the decided swing/revert,
/// and an abandoned descriptor is leaked (its address is never re-minted),
/// so a single load is a stable test: `false` means never-published or
/// already-decided, and with the initiator dead neither can change — there
/// is nothing left to complete.
///
/// # Safety
///
/// `plain`'s descriptor must be alive with its entries recorded
/// (announce-table contract: `announce` happens after the descriptor's
/// fill in [`commit`]).
pub(crate) unsafe fn is_published(plain: Word) -> bool {
    // Safety: descriptor alive per contract; `entries` were set before the
    // announce made `plain` visible to adopters.
    let d = unsafe { &*(word::desc_addr(plain) as *const Desc) };
    unsafe { &*d.entries[0].ptr }.load_word() == plain
}

/// Run a published commit as a helper that came through its first word —
/// a stalled initiator resuming, or an adopter completing a corpse's
/// commit.
///
/// # Safety
///
/// `plain`'s descriptor must be alive for the whole call, and its first
/// word's allocation protected.
pub(crate) unsafe fn help_first_word(plain: Word, g: &Guard) -> CasnResult {
    let d = unsafe { &*(word::desc_addr(plain) as *const Desc) };
    // Safety: forwarded contract.
    unsafe {
        run(
            plain,
            &*d.entries[0].ptr,
            false,
            g,
            lfc_runtime::fault::gate(),
        )
    }
}

/// The protocol, lines D1–D31 over K entries, with the caller's
/// [`FaultGate`] snapshot, so a commit pays for the armed-generation load
/// exactly once across all its kill sites. `via` is the word the executor
/// came through (`*ptr_0` for the initiator and adopters).
///
/// # Safety
///
/// The descriptor referenced by `desc_word` must be kept alive for the
/// duration of the call: by ownership for the initiator, by the `DESC`
/// hazard for helpers. Helpers must additionally have validated that `via`
/// still held `desc_word` after protecting it.
unsafe fn run(
    desc_word: Word,
    via: &DAtomic,
    initiator: bool,
    g: &Guard,
    fg: FaultGate,
) -> CasnResult {
    // Safety: per the function contract the descriptor is alive.
    let d = unsafe { &*(word::desc_addr(desc_word) as *const Desc) };
    if initiator {
        return body(d, desc_word, via, true, g, fg);
    }
    // D2–D3: adopt the initiator's protections of the target allocations
    // before touching any target word; `decision` then validates them
    // (module docs). Every commit has at least two entries, so `count`,
    // which shares its line with the winner slots other executors CAS, is
    // read only after those two hazard stores — just before D4 reads the
    // same line, as Algorithm 4's helper first touches `res` at D4.
    g.set(slot::HELP0, d.entries[0].hp);
    g.set(slot::HELP0 + 1, d.entries[1].hp);
    let n = d.count;
    for (i, e) in d.entries[..n].iter().enumerate().skip(2) {
        g.set(slot::HELP0 + i, e.hp);
    }
    let result = body(d, desc_word, via, false, g, fg);
    for i in 0..n {
        g.clear(slot::HELP0 + i);
    }
    result
}

fn body(
    d: &Desc,
    desc_word: Word,
    via: &DAtomic,
    initiator: bool,
    g: &Guard,
    fg: FaultGate,
) -> CasnResult {
    let addr = word::desc_addr(desc_word);
    let plain = word::dcas_plain(addr);

    // D4–D9: already decided — fix up the word we came through and return.
    if let Some(r) = d.decision() {
        finish_decided(d, desc_word, via, r);
        return r;
    }

    // D10–D11: the initiator announces the operation. The CAS's Release
    // publishes the descriptor's (immutable) fields to every helper that
    // Acquire-reads the word.
    let (e0, ptr0) = d.entry(0);
    if initiator {
        if !ptr0.cas_word(e0.old, plain) {
            return CasnResult::FailedAt(0);
        }
        // Kill site: the initiator dies with the descriptor installed at
        // `*ptr_0` and the later words untouched — the worst-case torn
        // state. Survivors complete it via `read`-helping or adoption.
        fg.check_kill("dcas.published");
    }

    let my_mark = word::dcas_marked(addr, g.tid());
    // The winner recorded for each entry so far (`won[0]` unused).
    let mut won = [0; MAX_ENTRIES];
    for i in 1..d.count {
        let (e, ptr) = d.entry(i);
        let res = &d.res[i];

        // D13–D14: try to install our marked descriptor at word i.
        let set = ptr.cas_word(e.old, my_mark);

        // Choose the marked word to promote as winner: ours if we installed
        // it; otherwise, if some marked form of this descriptor is
        // installed, that one (this is the D15–D16 re-check: `*ptr_i` still
        // refers to this descriptor).
        let installed = if set {
            my_mark
        } else {
            let cur = ptr.load_word();
            if word::is_marked_dcas(cur) && word::desc_addr(cur) == addr {
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
                    res.compare_exchange(UNDECIDED, FAILED, Ordering::AcqRel, Ordering::Acquire);
                // Acquire (audited): pairs with the Release of whichever RMW
                // decided `res[i]`; same-location coherence gives the
                // latest decision.
                match res.load(Ordering::Acquire) {
                    SUCCESS => return CasnResult::Success, // D18–D19
                    FAILED => {
                        // D20–D22: revert the announcement.
                        revert(d, plain, &won[..i]);
                        return CasnResult::FailedAt(i);
                    }
                    // A winner was recorded concurrently; help complete
                    // with it.
                    r => r,
                }
            }
        };

        // D24: promote the installed marked word. While `res[i]` is
        // undecided word i cannot change (all competing CASes expect
        // `old_i`, and marks of this descriptor are only removed once
        // `res[i]` is decided), so a successful promotion certifies
        // `installed` is in place — an argument built on same-location
        // coherence of `*ptr_i` and the total modification order of
        // `res[i]`, neither of which needs SeqCst. AcqRel/Acquire (audited)
        // as at D17.
        let _ = res.compare_exchange(UNDECIDED, installed, Ordering::AcqRel, Ordering::Acquire);
        // Acquire (audited): as at D17.
        let r = res.load(Ordering::Acquire);

        if set && r != my_mark {
            // D25–D27 / Lemma 3: we installed but lost the promotion race,
            // or arrived after the decision (a late mark after an ABA of
            // `old_i`) — change it back to its old value.
            revert_own_mark(ptr, my_mark, e.old);
        }
        if r == FAILED {
            // The decision went against us: make sure the winners so far
            // and the announcement are reverted.
            revert(d, plain, &won[..i]);
            return CasnResult::FailedAt(i);
        }
        if r == SUCCESS {
            // Completed by other processes.
            debug_assert_eq!(i, d.count - 1, "only the last slot decides SUCCESS");
            return CasnResult::Success;
        }
        debug_assert!(word::is_marked_dcas(r) && word::desc_addr(r) == addr);
        won[i] = r;
    }

    // D28–D30: complete. `*ptr_0` swings from the announcement to `new_0`
    // exactly once; each `*ptr_i` swings from exactly its winner to `new_i`
    // exactly once; only then is SUCCESS published. AcqRel/Acquire
    // (audited): the Release orders every swing before SUCCESS for any
    // Acquire reader of `res[K−1]`; the swings themselves are AcqRel CASes
    // on their own words.
    ptr0.cas_word(plain, e0.new);
    for (i, &w) in won.iter().enumerate().take(d.count).skip(1) {
        let (e, ptr) = d.entry(i);
        ptr.cas_word(w, e.new);
    }
    let last = d.count - 1;
    let _ = d.res[last].compare_exchange(won[last], SUCCESS, Ordering::AcqRel, Ordering::Acquire);
    CasnResult::Success
}

/// The failed decision's fix-up: revert the winners `won[1..]` recorded
/// before the failing entry `won.len()`, then the announcement at `*ptr_0`.
fn revert(d: &Desc, plain: Word, won: &[Word]) {
    // The slots read as winners, this FAILED, then UNDECIDED only: no
    // executor got past the failing entry. Checked by the model searches.
    #[cfg(lfc_model)]
    for r in &d.res[won.len() + 1..d.count] {
        assert_eq!(
            r.load(Ordering::Acquire),
            UNDECIDED,
            "a slot after a FAILED one left UNDECIDED"
        );
    }
    for (i, &w) in won.iter().enumerate().skip(1).rev() {
        let (e, ptr) = d.entry(i);
        ptr.cas_word(w, e.old);
    }
    let (e0, ptr0) = d.entry(0);
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

/// Lines D5–D8: the operation is decided but the word we came through,
/// `via`, still held a descriptor word — clean it up so readers can make
/// progress.
fn finish_decided(d: &Desc, desc_word: Word, via: &DAtomic, r: CasnResult) {
    if word::is_marked_dcas(desc_word) {
        // Came through a later word holding a stale mark (on SUCCESS every
        // winner was consumed before SUCCESS was stored, so whatever is
        // still installed is an ABA leftover; on FAILED every installation
        // is stale): revert it to that entry's old value.
        let e = d.entries[1..d.count]
            .iter()
            .find(|e| std::ptr::eq(e.ptr, via))
            .expect("a marked word lives at one of the later entries");
        if via.cas_word(desc_word, e.old) {
            counters::STALE_MARK_REVERTS.add(1);
        }
    } else if r != CasnResult::Success {
        // Came through `*ptr_0`: only a failed operation leaves the
        // announcement to revert (on SUCCESS `*ptr_0` already holds
        // `new_0`).
        via.cas_word(desc_word, d.entries[0].old);
    }
}

/// Test-support hooks exposing protocol internals so the suite can exercise
/// helper paths with a deterministically stalled initiator.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Allocate a descriptor for `entries`, announce it (line D10 only) and
    /// "stall": returns the plain descriptor word now installed at
    /// `*entries[0].ptr`, or `None` (the descriptor recycled) if the
    /// announcement failed. The caller takes over the initiator's
    /// responsibility to eventually run/finish and retire the descriptor.
    ///
    /// # Safety
    ///
    /// As `commit_entries`, and the words must stay alive until
    /// [`retire_announced`].
    pub unsafe fn announce_only(entries: &[CasnEntry]) -> Option<Word> {
        let d = alloc(entries).unwrap_or_else(|e| crate::pool::alloc_failed(e));
        let plain = word::dcas_plain(d.addr());
        let (e0, ptr0) = d.entry(0);
        if ptr0.cas_word(e0.old, plain) {
            d.into_raw();
            Some(plain)
        } else {
            None
        }
    }

    /// Run the protocol for a previously announced descriptor as if the
    /// stalled initiator resumed.
    ///
    /// # Safety
    ///
    /// `desc_word` must come from [`announce_only`] and the descriptor must
    /// not have been finished+retired yet.
    pub unsafe fn resume(desc_word: Word, g: &Guard) -> CasnResult {
        // Resuming initiator: already announced, so run as a helper that
        // came through the first word.
        unsafe { help_first_word(desc_word, g) }
    }

    /// Retire a descriptor obtained from [`announce_only`] once decided.
    ///
    /// # Safety
    ///
    /// Must be called exactly once, after the operation is decided.
    pub unsafe fn retire_announced(desc_word: Word) {
        // Safety: `announce_only` gave the descriptor up; taken back once.
        unsafe { Owned::from_raw(word::desc_addr(desc_word) as *mut Desc) }.retire();
    }

    /// Current state of the last winner slot, `res[K−1]` (2 = SUCCESS),
    /// for assertions.
    ///
    /// # Safety
    ///
    /// Descriptor must still be alive.
    pub unsafe fn res_state(desc_word: Word) -> usize {
        let d = unsafe { &*(word::desc_addr(desc_word) as *const Desc) };
        // Acquire (audited): test assertions only need the latest decision
        // via `res`'s own modification order.
        d.res[d.count - 1].load(Ordering::Acquire)
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

    fn desc_allocs() -> usize {
        counters::desc_pool_hits() + counters::desc_pool_misses()
    }

    /// Run `f` with a registered peer alive, so its commits take the
    /// published protocol (marked-word races, reverts, retire) even when
    /// this test is the only one running — a lone thread would commit solo,
    /// with no descriptor at all. Checks that `f` built at least `min`
    /// descriptors.
    fn published(min: usize, f: impl FnOnce(&Guard)) {
        lfc_runtime::fault::with_registered_peer(|| {
            let before = desc_allocs();
            f(&pin());
            assert!(desc_allocs() - before >= min, "the published protocol ran");
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
    fn descriptors_are_reclaimed() {
        published(10_000, |g| {
            let a = DAtomic::new(0);
            let b = DAtomic::new(0);
            let c = DAtomic::new(0);
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
            lfc_hazard::flush();
            assert!(
                lfc_hazard::pending_retired() < 20_000,
                "pending {}",
                lfc_hazard::pending_retired()
            );
        });
    }
}
