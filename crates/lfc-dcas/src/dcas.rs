//! The software DCAS of paper §3.2.2 / Algorithm 4.
//!
//! A DCAS attempt allocates a `DcasDesc`, fills in the two CAS triples
//! captured at the composed linearization points, and *announces* the
//! operation by CASing `*ptr1` from `old1` to an unmarked descriptor word
//! (line D10). Helpers — threads whose `read` found the descriptor — then
//! race to install a thread-id-*marked* descriptor word at `*ptr2`
//! (lines D13–D14); the first marked word recorded in the descriptor's `res`
//! field (line D24) is the *winner*, and `*ptr2` is swung from exactly that
//! winner to `new2` (line D29), which makes the swing happen exactly once
//! even when delayed helpers re-install marked words after an ABA of `old2`
//! (the problem the paper's Lemma 3 discusses).
//!
//! Differences from Harris et al.'s MCAS that the paper claims, all present
//! here: the result reports *which* word failed, no RDCSS descriptor is
//! needed, hazard pointers are supported (the `hp1`/`hp2` fields are adopted
//! by helpers at lines D2–D3), and the uncontended case uses fewer CASes.
//!
//! # `res` state machine (tested below)
//!
//! ```text
//! UNDECIDED ──► SECONDFAILED                      (line D17)
//! UNDECIDED ──► winner marked word ──► SUCCESS    (lines D24, D30)
//! ```
//!
//! `SUCCESS` is only ever stored after both `*ptr1 → new1` and
//! `*ptr2 → new2` have happened, and a FIRSTFAILED/SECONDFAILED outcome
//! guarantees neither word was left changed by this DCAS (Lemmata 3–4).

use crate::atomic::DAtomic;
use crate::kcas::{CasnEntry, CasnResult};
use crate::pool::{Owned, Pooled};
use crate::sync::{AtomicUsize, Ordering};
use crate::word::{self, Word};
use lfc_hazard::{slot, Guard};
use lfc_runtime::ShardedCounter;

/// `res`: operation not yet decided.
const RES_UNDECIDED: usize = 0;
/// `res`: the second word did not match `old2`.
const RES_SECONDFAILED: usize = 1;
/// `res`: both words matched and have been swung to their new values.
const RES_SUCCESS: usize = 2;

/// Outcome of a DCAS, reporting which comparison failed (a capability the
/// paper adds over Harris et al.; the engine reports it as the failing
/// entry index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DcasResult {
    /// Both words were swung atomically.
    Success,
    /// `*ptr1 != old1`; nothing was changed (only reported to the initiator).
    FirstFailed,
    /// `*ptr2 != old2`; nothing was left changed.
    SecondFailed,
}

impl From<DcasResult> for CasnResult {
    fn from(r: DcasResult) -> Self {
        match r {
            DcasResult::Success => CasnResult::Success,
            DcasResult::FirstFailed => CasnResult::FailedAt(0),
            DcasResult::SecondFailed => CasnResult::FailedAt(1),
        }
    }
}

/// The DCAS descriptor (paper Algorithm 1's `DCASDesc`).
///
/// All fields except `res` are written only while the descriptor is
/// unpublished (uniquely owned) and are immutable once the announcing CAS
/// publishes it, so helpers may read them through a shared reference.
#[repr(align(64))]
pub(crate) struct DcasDesc {
    ptr1: *const DAtomic,
    old1: Word,
    new1: Word,
    /// Base address of the allocation containing `*ptr1`, adopted by helpers
    /// (paper's `hp1`). Zero when no protection is required.
    hp1: usize,
    ptr2: *const DAtomic,
    old2: Word,
    new2: Word,
    /// As `hp1`, for `*ptr2`.
    hp2: usize,
    res: AtomicUsize,
    /// Global era at (re)allocation ([`Pooled::birth`]).
    birth: usize,
}

// Safety: helpers on other threads read the immutable fields and CAS `res`;
// the raw pointers target `DAtomic`s whose allocations the protocol keeps
// alive (hazard adoption, lines D2–D3).
unsafe impl Send for DcasDesc {}
unsafe impl Sync for DcasDesc {}

impl DcasDesc {
    /// Record the two CAS triples: `first` is announced at `*ptr1`,
    /// `second` swung through the marked-word race at `*ptr2`.
    fn set(&mut self, first: &CasnEntry, second: &CasnEntry) {
        (self.ptr1, self.old1, self.new1, self.hp1) = (first.ptr, first.old, first.new, first.hp);
        (self.ptr2, self.old2, self.new2, self.hp2) =
            (second.ptr, second.old, second.new, second.hp);
    }
}

impl Pooled for DcasDesc {
    const LIST: usize = 0;
    const SITE: &'static str = "dcas.desc";
    const HITS: &'static ShardedCounter = &counters::DESC_POOL_HITS;
    const MISSES: &'static ShardedCounter = &counters::DESC_POOL_MISSES;

    fn fresh(birth: usize) -> Self {
        DcasDesc {
            ptr1: std::ptr::null(),
            old1: 0,
            new1: 0,
            hp1: 0,
            ptr2: std::ptr::null(),
            old2: 0,
            new2: 0,
            hp2: 0,
            res: AtomicUsize::new(RES_UNDECIDED),
            birth,
        }
    }

    fn reuse(&mut self, birth: usize) {
        // Relaxed reset is enough — publication happens-before is
        // established by the announcing CAS, never by this store.
        self.res.store(RES_UNDECIDED, Ordering::Relaxed);
        self.birth = birth;
    }

    fn birth(&self) -> usize {
        self.birth
    }
}

/// The K=2 commit of [`crate::engine::try_commit_entries`]: allocate a
/// pooled descriptor for `first`/`second`, publish it and run the DCAS as
/// its initiator. The solo regime and alias detection are the engine's,
/// dispatched before this is reached; a retry re-captures its entries, so
/// nothing is handed back.
///
/// # Safety
///
/// As `commit_entries`, for the two entries.
pub(crate) unsafe fn commit(
    first: &CasnEntry,
    second: &CasnEntry,
    g: &Guard,
) -> Result<CasnResult, lfc_alloc::AllocError> {
    let d = Owned::<DcasDesc>::try_new(|d| d.set(first, second))?;
    debug_assert_eq!(
        d.res.load(Ordering::Relaxed),
        RES_UNDECIDED,
        "descriptor reuse after publication"
    );
    let addr = d.addr();
    // Announce the in-flight operation in the adoption table before
    // publication: from here until `clear_announce`, a survivor can
    // complete this DCAS on our behalf if we die
    // (`crate::adopt_dead_threads`). The kill site models exactly that
    // death. One armed-generation load covers every kill site this
    // commit passes (announce, publish, and any helping it triggers).
    let fg = lfc_runtime::fault::gate();
    crate::adopt::announce(g.tid(), word::dcas_plain(addr));
    fg.check_kill("dcas.announced");
    // Safety: we own the descriptor; `dcas_run` publishes it.
    let result = unsafe { dcas_run(word::dcas_plain(addr), true, g, fg) };
    crate::adopt::clear_announce(g.tid());
    match result {
        // Announcement failed: never published, so dropping recycles the
        // block straight into the pool.
        DcasResult::FirstFailed => drop(d),
        // Published (helpers may hold it): through the hazard domain.
        _ => d.retire(),
    }
    Ok(result.into())
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

    /// Number of helper invocations of the DCAS (each is a `read` that found
    /// a descriptor and joined the protocol).
    pub fn help_runs() -> usize {
        HELP_RUNS.get()
    }

    /// Number of marked-descriptor installations that had to be reverted —
    /// each one is a *false helping* episode caused by the ABA the paper's
    /// §7 discussion attributes to the stack.
    pub fn stale_mark_reverts() -> usize {
        STALE_MARK_REVERTS.get()
    }

    /// Descriptor allocations served by the per-thread pool.
    pub fn desc_pool_hits() -> usize {
        DESC_POOL_HITS.get()
    }

    /// Descriptor allocations that fell through to `lfc-alloc`.
    pub fn desc_pool_misses() -> usize {
        DESC_POOL_MISSES.get()
    }
}

/// Help a published DCAS found in a word (non-initiator entry point).
///
/// # Safety
///
/// `desc_word` must reference a descriptor currently protected by the
/// caller's [`slot::DESC`] hazard and validated as still installed.
pub(crate) unsafe fn help(desc_word: Word, g: &Guard) {
    // Kill site at the helping boundary: a helper that dies here has
    // published nothing yet — its only obligation (the DESC hazard) stays
    // protected by its corpse bank until adoption. One armed-generation
    // load gates this and the nested `dcas.published` site.
    let fg = lfc_runtime::fault::gate();
    fg.check_kill("dcas.help");
    counters::HELP_RUNS.add(1);
    // Safety: forwarded contract.
    let _ = unsafe { dcas_run(desc_word, false, g, fg) };
}

/// Whether `plain`'s descriptor is currently installed at its first word
/// — adoption's publication test.
///
/// The D10 first-word install is initiator-only: [`dcas_run`] as a helper
/// assumes it already happened, installs the marked word at `*ptr2`, and
/// "commits" with the `*ptr1` swing CAS failing silently — a torn
/// half-DCAS — if the initiator in fact never published. An adopter must
/// therefore never help a corpse's *announced-but-unpublished* DCAS.
/// `*ptr1` holds `plain` exactly between D10 and the decided swing/revert,
/// and an abandoned descriptor is leaked (its address is never re-minted),
/// so a single load is a stable test: `false` means never-published or
/// already-decided, and with the initiator dead neither can change — there
/// is nothing left to complete.
///
/// # Safety
///
/// `plain`'s descriptor must be alive with its first triple recorded
/// (announce-table contract: `announce` happens after the descriptor's
/// fill in [`commit`]).
pub(crate) unsafe fn dcas_is_published(plain: Word) -> bool {
    // Safety: descriptor alive per contract; `ptr1` was set before the
    // announce made `plain` visible to adopters.
    let desc = unsafe { &*(word::desc_addr(plain) as *const DcasDesc) };
    unsafe { &*desc.ptr1 }.load_word() == plain
}

fn decode(res: usize) -> DcasResult {
    match res {
        RES_SUCCESS => DcasResult::Success,
        RES_SECONDFAILED => DcasResult::SecondFailed,
        other => unreachable!("undecided res {other} treated as decided"),
    }
}

/// The DCAS protocol, lines D1–D31, with the caller's
/// [`lfc_runtime::fault::FaultGate`] snapshot, so a commit pays for the
/// armed-generation load exactly once across all its kill sites.
///
/// # Safety
///
/// The descriptor referenced by `desc_word` must be kept alive for the
/// duration of the call: by ownership for the initiator, by the `DESC`
/// hazard for helpers. Helpers must additionally have validated that the
/// word they came through still held `desc_word` after protecting it.
pub(crate) unsafe fn dcas_run(
    desc_word: Word,
    initiator: bool,
    g: &Guard,
    fg: lfc_runtime::fault::FaultGate,
) -> DcasResult {
    let addr = word::desc_addr(desc_word);
    // Safety: per the function contract the descriptor is alive.
    let desc = unsafe { &*(addr as *const DcasDesc) };

    if !initiator {
        // D2–D3: adopt the initiator's protections of the two target
        // allocations before touching `*ptr1` / `*ptr2`. If `res` is still
        // undecided below, the initiator is still inside its operation and
        // its own hazards covered these allocations while we published ours
        // (paper Lemma 6); otherwise we only write through the word we were
        // validated to have come through, whose allocation our caller
        // already protects.
        g.set(slot::HELP1, desc.hp1);
        g.set(slot::HELP2, desc.hp2);
    }
    let result = dcas_body(desc, desc_word, initiator, g, fg);
    if !initiator {
        g.clear(slot::HELP1);
        g.clear(slot::HELP2);
    }
    result
}

fn dcas_body(
    desc: &DcasDesc,
    desc_word: Word,
    initiator: bool,
    g: &Guard,
    fg: lfc_runtime::fault::FaultGate,
) -> DcasResult {
    let addr = word::desc_addr(desc_word);
    let plain = word::dcas_plain(addr);
    // Safety: target words' allocations are protected per `dcas_run`'s
    // contract (initiator's operation hazards / adopted hazards above).
    let ptr1 = unsafe { &*desc.ptr1 };
    let ptr2 = unsafe { &*desc.ptr2 };

    // D4–D9: already decided — fix up the word we came through and return.
    // SeqCst (audited, required): for a helper this load is the validation
    // half of the Dekker pair with the HELP1/HELP2 hazard stores in
    // `dcas_run` — if `res` is still undecided, the initiator is still
    // inside its operation and its hazards covered the target allocations
    // while ours were published (Lemma 6). An Acquire load could be
    // satisfied before those hazard stores became visible to a scanner.
    let r0 = desc.res.load(Ordering::SeqCst);
    if r0 == RES_SUCCESS || r0 == RES_SECONDFAILED {
        finish_decided(desc, desc_word, plain, r0, ptr1, ptr2);
        return decode(r0);
    }

    // D10–D11: the initiator announces the operation. The CAS's Release
    // publishes the descriptor's (immutable) fields to every helper that
    // Acquire-reads the word.
    if initiator {
        if !ptr1.cas_word(desc.old1, plain) {
            return DcasResult::FirstFailed;
        }
        // Kill site: the initiator dies with the descriptor installed at
        // `*ptr1` and the second word untouched — the worst-case torn
        // state. Survivors complete it via `read`-helping or adoption.
        fg.check_kill("dcas.published");
    }

    // D13–D14: try to install our marked descriptor at the second word.
    let my_mark = word::dcas_marked(addr, g.tid());
    let p2set = ptr2.cas_word(desc.old2, my_mark);

    // Choose the marked word to promote as winner: ours if we installed it;
    // otherwise, if some marked form of this descriptor is installed, that
    // one (this is the D15–D16 re-check: `*ptr2` still refers to `desc`).
    let installed = if p2set {
        my_mark
    } else {
        let cur = ptr2.load_word();
        if word::is_marked_dcas(cur) && word::desc_addr(cur) == addr {
            cur
        } else {
            // D17: genuine mismatch — try to decide SECONDFAILED.
            // AcqRel/Acquire (audited): decisions are serialized by this
            // RMW's modification order on `res` alone; no cross-location
            // fence is involved. Release publishes nothing here (failure
            // changes no word), Acquire pairs with the winning side's
            // Release so the post-decision fix-ups below see its writes.
            let _ = desc.res.compare_exchange(
                RES_UNDECIDED,
                RES_SECONDFAILED,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            // Acquire (audited): pairs with the Release of whichever RMW
            // decided `res`; same-location coherence gives the latest
            // decision.
            let r = desc.res.load(Ordering::Acquire);
            if r == RES_SUCCESS {
                return DcasResult::Success; // D18–D19
            }
            if r == RES_SECONDFAILED {
                // D20–D22: revert the announcement.
                ptr1.cas_word(plain, desc.old1);
                return DcasResult::SecondFailed;
            }
            // A winner was recorded concurrently; help complete with it.
            r
        }
    };

    // D24: promote the installed marked word. While `res` is undecided the
    // second word cannot change (all competing CASes expect `old2`), so a
    // successful promotion certifies `installed` is in place — an argument
    // built on same-location coherence of `*ptr2` and the total
    // modification order of `res`, neither of which needs SeqCst.
    // AcqRel/Acquire (audited) as at D17.
    let _ = desc.res.compare_exchange(
        RES_UNDECIDED,
        installed,
        Ordering::AcqRel,
        Ordering::Acquire,
    );
    // Acquire (audited): as at D17.
    let r = desc.res.load(Ordering::Acquire);

    if r == RES_SECONDFAILED {
        // D25–D27: decision went against us; undo our installation (if any)
        // and make sure the announcement is reverted.
        if p2set && ptr2.cas_word(my_mark, desc.old2) {
            counters::STALE_MARK_REVERTS.add(1);
        }
        ptr1.cas_word(plain, desc.old1);
        return DcasResult::SecondFailed;
    }
    if r == RES_SUCCESS {
        // Completed by other processes. If we installed a marked word it is
        // a stale ABA leftover (the winner's word was consumed before
        // SUCCESS was stored): revert it.
        if p2set && ptr2.cas_word(my_mark, desc.old2) {
            counters::STALE_MARK_REVERTS.add(1);
        }
        return DcasResult::Success;
    }

    debug_assert!(word::is_marked_dcas(r) && word::desc_addr(r) == addr);
    let winner = r;
    if p2set && my_mark != winner {
        // We installed but lost the promotion race ("will have to change it
        // back to its old value", Lemma 3).
        if ptr2.cas_word(my_mark, desc.old2) {
            counters::STALE_MARK_REVERTS.add(1);
        }
    }
    // D28–D30: complete. `*ptr1` swings from the announcement to `new1`
    // exactly once; `*ptr2` swings from exactly the winner to `new2` exactly
    // once; only then is SUCCESS published. AcqRel/Acquire (audited): the
    // Release orders both swings before SUCCESS for any Acquire reader of
    // `res`; the swings themselves are AcqRel CASes on their own words.
    ptr1.cas_word(plain, desc.new1);
    ptr2.cas_word(winner, desc.new2);
    let _ = desc
        .res
        .compare_exchange(winner, RES_SUCCESS, Ordering::AcqRel, Ordering::Acquire);
    DcasResult::Success
}

/// Lines D5–D8: the operation is decided but the word we came through still
/// held a descriptor — clean it up so readers can make progress.
fn finish_decided(
    desc: &DcasDesc,
    desc_word: Word,
    plain: Word,
    res: usize,
    ptr1: &DAtomic,
    ptr2: &DAtomic,
) {
    if word::is_marked_dcas(desc_word) {
        // Came through `*ptr2` holding a stale marked word (on SUCCESS the
        // winner was consumed before SUCCESS was stored, so whatever is
        // still installed is an ABA leftover; on SECONDFAILED every
        // installation is stale): revert it.
        if ptr2.cas_word(desc_word, desc.old2) {
            counters::STALE_MARK_REVERTS.add(1);
        }
    } else if res == RES_SECONDFAILED {
        // Came through `*ptr1`: only a failed pair leaves the announcement
        // to revert (on SUCCESS `*ptr1` already holds `new1`).
        ptr1.cas_word(plain, desc.old1);
    }
}

/// Test-support hooks exposing protocol internals so the suite can exercise
/// helper paths with a deterministically stalled initiator.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Allocate a descriptor for `first`/`second`, announce it (line D10
    /// only) and "stall": returns the plain descriptor word now installed
    /// at `*first.ptr`, or `None` (the descriptor recycled) if the
    /// announcement failed. The caller takes over the initiator's
    /// responsibility to eventually run/finish and retire the descriptor.
    ///
    /// # Safety
    ///
    /// As `commit_entries`, for the two entries, and their words must stay
    /// alive until [`retire_announced`].
    pub unsafe fn announce_only(first: CasnEntry, second: CasnEntry) -> Option<Word> {
        let d = Owned::<DcasDesc>::try_new(|d| d.set(&first, &second))
            .unwrap_or_else(|e| crate::pool::alloc_failed(e));
        let plain = word::dcas_plain(d.addr());
        // Safety: live per the contract.
        let ptr1 = unsafe { &*d.ptr1 };
        if ptr1.cas_word(d.old1, plain) {
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
        // Resuming initiator: already announced, so run as a helper but
        // translate the result for the caller.
        unsafe { dcas_run(desc_word, false, g, lfc_runtime::fault::gate()) }.into()
    }

    /// Retire a descriptor obtained from [`announce_only`] once decided.
    ///
    /// # Safety
    ///
    /// Must be called exactly once, after the DCAS is decided.
    pub unsafe fn retire_announced(desc_word: Word) {
        // Safety: `announce_only` gave the descriptor up; taken back once.
        unsafe { Owned::from_raw(word::desc_addr(desc_word) as *mut DcasDesc) }.retire();
    }

    /// Current `res` state, decoded loosely for assertions.
    ///
    /// # Safety
    ///
    /// Descriptor must still be alive.
    pub unsafe fn res_state(desc_word: Word) -> usize {
        let desc = unsafe { &*(word::desc_addr(desc_word) as *const DcasDesc) };
        // Acquire (audited): test assertions only need the latest decision
        // via `res`'s own modification order.
        desc.res.load(Ordering::Acquire)
    }
}
