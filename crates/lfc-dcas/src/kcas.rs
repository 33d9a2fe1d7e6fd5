//! CASN — n-word compare-and-swap — for the paper's n-object move extension:
//!
//! > "Our methodology can also be easily extended to support n operations on
//! > n distinct objects, for example to create functions that remove an item
//! > from one object and insert it into n others atomically." (§8)
//!
//! The construction follows Harris, Fraser & Pratt's *A Practical Multi-word
//! Compare-and-Swap Operation* (the paper's reference \[9\]): phase 1 installs the CASN
//! descriptor into each target word with RDCSS (a restricted double-compare
//! single-swap conditioned on the operation still being undecided), phase 2
//! decides and swings every word to its new (or old) value.
//!
//! Two deliberate deviations, both in the spirit of the paper's own DCAS:
//!
//! * **Failure reporting**: the status records *which* entry failed, so the
//!   multi-move can redo only the operations from that entry onward (the
//!   generalization of FIRSTFAILED/SECONDFAILED).
//! * **Depth-1 helping**: an executor that finds a *foreign* descriptor in a
//!   target word fails its own attempt (the foreign operation has made
//!   progress, so lock-freedom is preserved) instead of helping recursively;
//!   foreign descriptors are helped through the `read` operation, whose
//!   hazard discipline is sound at depth one. Unbounded recursive helping
//!   cannot be combined with a fixed per-thread hazard-slot bank.
//!
//! # Memory safety (hazard discipline)
//!
//! * Executors reach a CASN descriptor either as its owner or through
//!   `read`, which protects it in [`slot::DESC`] and validates.
//! * Before touching any target word, a helper adopts every entry's `hp`
//!   (the allocation containing the word) into the `KCAS*` slots and then
//!   checks the status is still undecided — while undecided, the initiating
//!   move still borrows all target objects, so the allocations were alive
//!   when the slots were published (the paper's Lemma 6, generalized). If
//!   the status is already decided, the helper only fixes the single word it
//!   came through, whose allocation its caller protects.
//! * An RDCSS descriptor found in a word implies its installer is still
//!   mid-operation and therefore still holds a hazard (or ownership) of the
//!   CASN descriptor it references, so reading `status` through it is safe
//!   once the RDCSS descriptor itself is protected and validated.

use crate::atomic::DAtomic;
use crate::pool::{Owned, Pooled};
use crate::sync::{AtomicUsize, Ordering};
use crate::word::{self, Word};
use lfc_hazard::{slot, Guard};
use lfc_runtime::ShardedCounter;

/// Maximum entries in one CASN (1 remove + up to 5 insert targets). Bounded
/// by the per-thread `KCAS*` hazard slots.
pub const MAX_ENTRIES: usize = 6;

const ST_UNDECIDED: usize = 0;
const ST_SUCCEEDED: usize = 1;
const ST_FAILED_BASE: usize = 2;

/// Outcome of a CASN.
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

/// The CASN descriptor. Entries are immutable once published (announced via
/// the first RDCSS); only `status` is written concurrently.
#[repr(align(64))]
pub(crate) struct CasnDesc {
    entries: [CasnEntry; MAX_ENTRIES],
    count: usize,
    status: AtomicUsize,
    /// Global era at (re)allocation ([`Pooled::birth`]).
    birth: usize,
}

// Safety: shared with helpers; see module docs for the hazard discipline.
unsafe impl Send for CasnDesc {}
unsafe impl Sync for CasnDesc {}

/// Diagnostic counters for the CASN/RDCSS pools (used by the pooling tests
/// asserting the steady-state hot path never falls through to `lfc-alloc`,
/// and by the benchmark). Sharded like the DCAS counters.
pub mod counters {
    use lfc_runtime::ShardedCounter;

    pub(crate) static CASN_POOL_HITS: ShardedCounter = ShardedCounter::new();
    pub(crate) static CASN_POOL_MISSES: ShardedCounter = ShardedCounter::new();
    pub(crate) static RDCSS_POOL_HITS: ShardedCounter = ShardedCounter::new();
    pub(crate) static RDCSS_POOL_MISSES: ShardedCounter = ShardedCounter::new();

    /// CASN descriptor allocations served by the per-thread pool.
    pub fn casn_pool_hits() -> usize {
        CASN_POOL_HITS.get()
    }

    /// CASN descriptor allocations that fell through to `lfc-alloc`.
    pub fn casn_pool_misses() -> usize {
        CASN_POOL_MISSES.get()
    }

    /// RDCSS descriptor allocations served by the per-thread pool.
    pub fn rdcss_pool_hits() -> usize {
        RDCSS_POOL_HITS.get()
    }

    /// RDCSS descriptor allocations that fell through to `lfc-alloc`.
    pub fn rdcss_pool_misses() -> usize {
        RDCSS_POOL_MISSES.get()
    }
}

/// RDCSS descriptor: install `casn_word` at `word` iff `*status` is still
/// undecided and `*word == old`.
#[repr(align(64))]
pub(crate) struct RdcssDesc {
    status: *const AtomicUsize,
    word: *const DAtomic,
    old: Word,
    casn_word: Word,
    /// Global era at (re)allocation ([`Pooled::birth`]).
    birth: usize,
}

unsafe impl Send for RdcssDesc {}
unsafe impl Sync for RdcssDesc {}

impl Pooled for CasnDesc {
    const LIST: usize = 1;
    const SITE: &'static str = "dcas.casn";
    const HITS: &'static ShardedCounter = &counters::CASN_POOL_HITS;
    const MISSES: &'static ShardedCounter = &counters::CASN_POOL_MISSES;

    fn fresh(birth: usize) -> Self {
        CasnDesc {
            entries: [CasnEntry::default(); MAX_ENTRIES],
            count: 0,
            status: AtomicUsize::new(ST_UNDECIDED),
            birth,
        }
    }

    fn reuse(&mut self, birth: usize) {
        // Relaxed reset suffices: publication happens-before is
        // established by the phase-1 RDCSS installs, never here.
        self.status.store(ST_UNDECIDED, Ordering::Relaxed);
        self.birth = birth;
    }

    fn birth(&self) -> usize {
        self.birth
    }
}

impl Pooled for RdcssDesc {
    const LIST: usize = 2;
    const SITE: &'static str = "dcas.rdcss";
    const HITS: &'static ShardedCounter = &counters::RDCSS_POOL_HITS;
    const MISSES: &'static ShardedCounter = &counters::RDCSS_POOL_MISSES;

    fn fresh(birth: usize) -> Self {
        RdcssDesc {
            status: std::ptr::null(),
            word: std::ptr::null(),
            old: 0,
            casn_word: 0,
            birth,
        }
    }

    fn reuse(&mut self, birth: usize) {
        // No decision word of its own: every other field is overwritten
        // by the install's fill.
        self.birth = birth;
    }

    fn birth(&self) -> usize {
        self.birth
    }
}

/// The K>2 commit of [`crate::engine::try_commit_entries`]: allocate a
/// pooled descriptor for `entries`, publish and run the CASN as its
/// initiator, and retire the descriptor through the hazard domain (helpers
/// may still hold it). The engine re-captures into a fresh descriptor on
/// retry, so no partial state is handed back.
///
/// An RDCSS allocation failure mid-install decides the operation
/// `FAILED_BASE + i` and reverts (see `casn_execute`); it surfaces as
/// `Err` — resource exhaustion, not a mismatch — iff this executor's own
/// failure is what decided the operation. Either way the operation is
/// decided and every target word holds a raw value on return.
///
/// # Safety
///
/// As `commit_entries`.
pub(crate) unsafe fn commit(
    entries: &[CasnEntry],
    g: &Guard,
) -> Result<CasnResult, lfc_alloc::AllocError> {
    let d = Owned::<CasnDesc>::try_new(|d| {
        d.entries[..entries.len()].copy_from_slice(entries);
        d.count = entries.len();
    })?;
    debug_assert_eq!(d.status.load(Ordering::Relaxed), ST_UNDECIDED);
    let cw = word::casn_word(d.addr());
    // Publish for dead-thread adopters before the descriptor can reach
    // any shared word; cleared only after the operation is decided, so
    // an abandonment anywhere inside leaves the slot set (crate::adopt).
    // One armed-generation load for the commit's kill sites.
    let fg = lfc_runtime::fault::gate();
    crate::adopt::announce(g.tid(), cw);
    fg.check_kill("kcas.announced");
    let out = casn_execute(&d, cw, g, true);
    crate::adopt::clear_announce(g.tid());
    d.retire();
    // `Err(i)`: owner alloc failure at entry `i`, decided
    // FAILED_BASE + i and fully reverted by phase 2.
    out.map_err(|_| lfc_alloc::AllocError)
}

/// RDCSS after Harris et al.: returns the value seen at `word` (== `old`
/// means the conditional install succeeded or the operation was already
/// decided-and-reverted consistently).
fn rdcss(desc_word: Word, g: &Guard) -> Word {
    // Safety: caller owns the rdcss descriptor (freshly allocated below).
    let d = unsafe { &*(word::desc_addr(desc_word) as *const RdcssDesc) };
    // Safety: `word` allocations are protected by the executor (entry hp
    // adopted / owned).
    let target = unsafe { &*d.word };
    loop {
        match target.cas_val(d.old, desc_word) {
            Ok(()) => {
                rdcss_complete(d, desc_word);
                return d.old;
            }
            Err(seen) => {
                if word::kind(seen) == word::KIND_RDCSS {
                    // Some installer is mid-flight; its hazard pins both
                    // descriptors. Protect + validate, complete it, retry.
                    g.set(slot::KCAS0 + slot::KCAS_COUNT - 1, word::desc_addr(seen));
                    if target.load_word() == seen {
                        // Safety: protected + validated.
                        let other = unsafe { &*(word::desc_addr(seen) as *const RdcssDesc) };
                        rdcss_complete(other, seen);
                    }
                    g.clear(slot::KCAS0 + slot::KCAS_COUNT - 1);
                    continue;
                }
                return seen;
            }
        }
    }
}

fn rdcss_complete(d: &RdcssDesc, desc_word: Word) {
    // Safety: status points into a CASN descriptor pinned by the RDCSS
    // installer's hazard (module docs).
    // Acquire (audited): must be ordered after the RDCSS install CAS (the
    // caller's AcqRel RMW, which a later Acquire load cannot be hoisted
    // above) and pairs with the Release of the deciding status RMW. The
    // classic RDCSS argument then needs only `status`'s own modification
    // order: if we read UNDECIDED here, the conditional install is
    // permitted; a later decision re-runs `rdcss_complete` via helping.
    let undecided = unsafe { (*d.status).load(Ordering::Acquire) } == ST_UNDECIDED;
    let new = if undecided { d.casn_word } else { d.old };
    // Safety: the target word's allocation is protected by whoever reached
    // this descriptor (installer: entry hp; helper: the word it came
    // through).
    let _ = unsafe { &*d.word }.cas_word(desc_word, new);
}

/// Execute the CASN protocol. `full` executors run both phases; `!full`
/// (late helpers that found the status decided) only fix the word they came
/// through — `via` — before returning.
///
/// `Err(i)` means *this executor's* RDCSS allocation for entry `i` failed:
/// for the owner the operation is then decided `FAILED_BASE + i` and
/// reverted before returning; a helper instead bails best-effort with the
/// operation possibly still undecided (it must not decide failure for an
/// entry that may match — the owner, or the next helper, will finish).
/// Crate-visible for dead-thread adoption ([`crate::adopt`]).
pub(crate) fn casn_execute(
    d: &CasnDesc,
    casn_word: Word,
    g: &Guard,
    owner: bool,
) -> Result<CasnResult, usize> {
    let n = d.count;
    // Adopt every entry's protection before the undecided check (helpers).
    if !owner {
        for i in 0..n {
            g.set(slot::KCAS0 + i, d.entries[i].hp);
        }
    }
    // SeqCst (audited, required): for a helper this is the validation half
    // of the Dekker pair with the KCAS* hazard publications just above —
    // the same argument as the DCAS `res` load at D4 (Lemma 6,
    // generalized). Acquire would let this load be satisfied before the
    // hazard stores became visible to a reclamation scan.
    let st0 = d.status.load(Ordering::SeqCst);
    if st0 != ST_UNDECIDED && !owner {
        // Late helper: the adopted protections above cannot be validated
        // once the operation is decided (the initiator may already have
        // returned), so do not touch arbitrary words; `help_word` fixes the
        // single word the helper came through, which its caller protects.
        for i in 0..n {
            g.clear(slot::KCAS0 + i);
        }
        return Ok(decode_status(st0));
    }

    // Phase 1: install the descriptor in every word with RDCSS.
    // Acquire (audited): decisions travel through `status`'s modification
    // order; the owner needs no hazard Dekker (it owns the descriptor) and
    // helpers already paid SeqCst at `st0`.
    let mut alloc_failed = None;
    let mut status = d.status.load(Ordering::Acquire);
    if status == ST_UNDECIDED {
        'install: for i in 0..n {
            let e = &d.entries[i];
            let rd = Owned::<RdcssDesc>::try_new(|r| {
                (r.status, r.word, r.old, r.casn_word) = (&d.status, e.ptr, e.old, casn_word);
            });
            let rd = match rd {
                Ok(rd) => rd,
                Err(_) if owner => {
                    // Cannot install entry `i`: decide failure there (the
                    // generalization of a mismatch — nothing was or will be
                    // changed at `i`) so phase 2 reverts the installed
                    // prefix, then surface the allocation failure iff our
                    // decision stood (a concurrent helper may have decided
                    // SUCCEEDED first, in which case the operation took
                    // effect and the failure is moot).
                    let _ = d.status.compare_exchange(
                        ST_UNDECIDED,
                        ST_FAILED_BASE + i,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    alloc_failed = Some(i);
                    break 'install;
                }
                Err(_) => {
                    // Helper out of memory: it must not decide failure for
                    // an entry that may match. If the operation is still
                    // undecided, bail best-effort — the owner (or the next
                    // helper, or an adopter) retries with its own memory.
                    if d.status.load(Ordering::Acquire) == ST_UNDECIDED {
                        for j in 0..n {
                            g.clear(slot::KCAS0 + j);
                        }
                        return Err(i);
                    }
                    break 'install;
                }
            };
            let seen = rdcss(word::rdcss_word(rd.addr()), g);
            // Published to helpers through the word: the install attempt
            // has resolved, and stale readers fail validation because the
            // word no longer holds this descriptor.
            rd.retire();
            if seen == e.old {
                // Installed (or already decided; re-checked here).
                // Acquire (audited): as the phase-1 entry load.
                if d.status.load(Ordering::Acquire) != ST_UNDECIDED {
                    break 'install;
                }
                continue;
            }
            if seen == casn_word {
                continue; // another executor installed this entry
            }
            // Genuine mismatch, or a foreign descriptor occupies the word —
            // either way the entry cannot be installed now; a foreign
            // operation's presence means it made progress, so failing keeps
            // the system lock-free (depth-1 helping policy, module docs).
            // AcqRel/Acquire (audited): the decision is serialized by this
            // RMW's modification order on `status` alone, exactly as the
            // DCAS `res` CASes at D17/D24.
            let _ = d.status.compare_exchange(
                ST_UNDECIDED,
                ST_FAILED_BASE + i,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            break 'install;
        }
        // All installed (and still undecided): decide success.
        // AcqRel/Acquire (audited): as above; Release additionally orders
        // the phase-1 installs before SUCCEEDED for Acquire readers.
        let _ = d.status.compare_exchange(
            ST_UNDECIDED,
            ST_SUCCEEDED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        // Acquire (audited): latest decision via modification order.
        status = d.status.load(Ordering::Acquire);
    }

    // Phase 2: swing every word off the descriptor.
    let succeeded = status == ST_SUCCEEDED;
    for i in 0..n {
        let e = &d.entries[i];
        // Safety: protections adopted above (helpers) or borrowed targets
        // (the initiating move still borrows all objects).
        let target = unsafe { &*e.ptr };
        let _ = target.cas_word(casn_word, if succeeded { e.new } else { e.old });
    }
    if !owner {
        for i in 0..n {
            g.clear(slot::KCAS0 + i);
        }
    }
    match alloc_failed {
        // Our allocation failure is what decided the operation (and the
        // revert above has run): report it as such.
        Some(i) if status == ST_FAILED_BASE + i => Err(i),
        _ => Ok(decode_status(status)),
    }
}

/// The solo-regime commit: run the `entries` CASes back to back,
/// reverting the prefix on the first mismatch. The unified engine commit
/// ([`crate::engine::try_commit_entries`]) runs it, for every width, inside
/// a [`lfc_runtime::solo`] section.
///
/// Sound only while a [`lfc_runtime::solo::SoloSection`] is held: no other
/// thread can observe shared memory, so the intermediate states between the
/// CASes (and between a failed CAS and its rollback) are unobservable by
/// construction — which is precisely the atomicity the descriptor protocol
/// otherwise provides.
#[inline]
pub(crate) fn solo_commit(entries: &[CasnEntry]) -> CasnResult {
    for (i, e) in entries.iter().enumerate() {
        // Safety: target allocations are kept alive by the initiating
        // operation's borrows/hazards, exactly as on the published path.
        let word = unsafe { &*e.ptr };
        if !word.cas_word(e.old, e.new) {
            for p in entries[..i].iter().rev() {
                // Safety: as above.
                let reverted = unsafe { &*p.ptr }.cas_word(p.new, p.old);
                debug_assert!(reverted, "solo-mode revert cannot be contended");
            }
            return CasnResult::FailedAt(i);
        }
    }
    CasnResult::Success
}

fn decode_status(st: usize) -> CasnResult {
    match st {
        ST_SUCCEEDED => CasnResult::Success,
        ST_UNDECIDED => unreachable!("undecided status treated as decided"),
        f => CasnResult::FailedAt(f - ST_FAILED_BASE),
    }
}

/// Help a CASN or RDCSS descriptor found by `read`.
///
/// # Safety
///
/// `w` must be protected by the caller's [`slot::DESC`] hazard and validated
/// as still installed in the word it was read from.
pub(crate) unsafe fn help_word(w: Word, via: &DAtomic, g: &Guard) {
    match word::kind(w) {
        word::KIND_CASN => {
            // Safety: protected + validated per the contract.
            let d = unsafe { &*(word::desc_addr(w) as *const CasnDesc) };
            // An Err means *this helper* ran out of memory mid-install and
            // the operation may still be undecided — it must leave the word
            // alone and let a better-resourced executor finish (the read
            // loop retries; OOM tests inject fail-nth, not fail-always, so
            // this cannot livelock).
            if let Ok(st) = casn_execute(d, w, g, false) {
                // The operation is decided on return, but a late helper does
                // not run phase 2 (its protections cannot be validated), and
                // even a full execution's phase 2 may predate a stale
                // re-installation. Swing the word we came through — which
                // our caller protects — off the descriptor so readers make
                // progress.
                let succeeded = matches!(st, CasnResult::Success);
                for e in &d.entries[..d.count] {
                    if std::ptr::eq(e.ptr, via as *const DAtomic) {
                        let _ = via.cas_word(w, if succeeded { e.new } else { e.old });
                        break;
                    }
                }
            }
        }
        word::KIND_RDCSS => {
            // Safety: protected + validated per the contract.
            let d = unsafe { &*(word::desc_addr(w) as *const RdcssDesc) };
            rdcss_complete(d, w);
        }
        _ => unreachable!("help_word called on a non-CASN word"),
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

    fn casn_allocs() -> usize {
        counters::casn_pool_hits() + counters::casn_pool_misses()
    }

    /// Run `f` with a registered peer alive, so its K>2 commits take the
    /// published CASN protocol (RDCSS installs, phase-2 revert, retire)
    /// even when this test is the only one running — a lone thread would
    /// commit solo, with no descriptor at all. Checks that `f` built at
    /// least `min` CASN descriptors.
    fn published(min: usize, f: impl FnOnce(&Guard)) {
        lfc_runtime::fault::with_registered_peer(|| {
            let before = casn_allocs();
            f(&pin());
            assert!(casn_allocs() - before >= min, "the CASN protocol ran");
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
        // Three words, so the commit takes the CASN protocol rather than
        // the K=2 DCAS.
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
        // state must be consistent. Three words, so the commits take the
        // CASN protocol rather than the K=2 DCAS.
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
