//! Dead-thread adoption: completing and reclaiming operations whose owner
//! died mid-flight.
//!
//! The paper's lock-freedom argument says an abandoned composed operation
//! is completed by *helpers* — any thread whose `read` finds the
//! descriptor. That covers words other threads touch. Two gaps remain when
//! a thread genuinely dies (`lfc_runtime::fault::abandon`):
//!
//! 1. **Quiet words**: a descriptor installed at a word nobody else reads
//!    stays torn forever. The **announce table** closes this: every
//!    initiator publishes its descriptor word here (indexed by tid) for
//!    the duration of its commit, so an adopter can find and help it
//!    without ever touching the structure.
//! 2. **Resources**: the dead thread's id, hazard-slot bank and epoch slot
//!    stay claimed (deliberately — the bank is what keeps the corpse's
//!    in-flight protections alive for helpers, and the held id keeps
//!    survivors out of the solo regime while the corpse's descriptor may
//!    be installed). [`adopt_dead_threads`] helps the announced operation
//!    to completion, then releases the id and bank through the tid
//!    finalizers.
//!
//! The leak bound (DESIGN.md "Fault model"): one descriptor (≤ 256 B,
//! leaked because helpers may still hold it — see the abandoned end of
//! `crate::pool::Owned`) per abandonment, plus whatever nodes the
//! abandoned operation owned but had not published. Everything else —
//! pooled descriptors, allocator magazines, pending retire lists — is
//! flushed by the exit hooks that run during abandonment, and the id/bank
//! are reclaimed here.

use crate::word::{self, Word};
use lfc_hazard::Guard;
use lfc_runtime::{fault, CachePadded, MAX_THREADS};
// Deliberately `std` atomics, NOT the `crate::sync` model facade: the
// announce table is control-plane metadata written around *every* non-solo
// commit, and instrumenting those two stores would add two scheduling
// points per commit to the model's state space without adding explorable
// behaviour — an adopter synchronizes with the corpse through the fault
// registry's flag (also `std`, `lfc_runtime::fault`), and under the
// model's cooperative scheduler real stores are sequentially consistent.
use std::sync::atomic::{AtomicUsize, Ordering};

/// One announce slot per tid: 0, or the initiator's in-flight descriptor
/// word (`dcas_plain` / `casn_word`). Padded: a slot is written twice per
/// announced commit by its owner; adopters scan rarely.
static ANNOUNCE: [CachePadded<AtomicUsize>; MAX_THREADS] =
    [const { CachePadded::new(AtomicUsize::new(0)) }; MAX_THREADS];

/// Publish `tid`'s in-flight descriptor word for adopters.
///
/// Release (audited): an adopter reads this slot only after winning
/// `fault::claim_corpse` — an Acquire CAS of the corpse flag that the
/// dying thread Release-stores *after* this store in program order (every
/// kill site sits between announce and clear). That synchronizes-with edge
/// already makes the announced word (and the descriptor fields written
/// before it) visible to the adopter, so this store needs no ordering of
/// its own; SeqCst here would put a full fence on every non-solo commit
/// (measured: +47% on the contended 2-thread move bench). Release is kept
/// over Relaxed as belt-and-braces for the tests-only [`announced`]
/// diagnostic, which bypasses the corpse handshake.
pub(crate) fn announce(tid: u16, desc_word: Word) {
    ANNOUNCE[tid as usize].store(desc_word, Ordering::Release);
}

/// Clear `tid`'s announce slot after its commit call returned. Release:
/// nothing is published; the slot only transitions to "nothing in
/// flight".
pub(crate) fn clear_announce(tid: u16) {
    ANNOUNCE[tid as usize].store(0, Ordering::Release);
}

/// Announced descriptor word for `tid`, if any (diagnostics/tests).
pub fn announced(tid: u16) -> Word {
    ANNOUNCE[tid as usize].load(Ordering::SeqCst)
}

/// Adopt every corpse (thread that died mid-operation, see
/// `lfc_runtime::fault`): help its announced operation to completion,
/// then release its thread id, hazard bank and epoch slot. Exactly one
/// adopter wins each corpse; losers skip it entirely. Returns the number
/// of corpses this call released.
///
/// The claim comes **first** — before the announce read and the help.
/// Claim-after-help has an ABA hole: between this adopter's announce
/// snapshot and its claim CAS, a rival can claim + release the corpse,
/// the freed tid can be re-minted by a new thread that announces a new
/// operation and dies again, and the stale adopter's claim then succeeds
/// against the *new* incarnation — clearing an announce slot (and, via
/// release, a hazard bank) that still protects an undecided operation.
/// Claiming first closes the window: the tid cannot be released (and so
/// cannot be re-minted) while this adopter holds the claim, so the
/// announce word it reads is the claimed incarnation's. An adopter that
/// cannot finish the help (allocation failure) re-parks the corpse for a
/// later pass instead of releasing it.
///
/// Callers need any pinned guard; the helping path adopts the corpse's
/// hazards exactly like an ordinary `read`-helper (Lemma 6 holds because
/// the corpse's bank is intact until the release step below).
pub fn adopt_dead_threads(g: &Guard) -> usize {
    let mut released = 0;
    for tid in fault::corpses() {
        if !fault::claim_corpse(tid) {
            // A rival adopter owns this corpse (or already released it).
            continue;
        }
        let w = ANNOUNCE[tid as usize].load(Ordering::SeqCst);
        #[cfg(lfc_model)]
        let skip_help = model_toggles::SKIP_ADOPT_HELP.load(std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(lfc_model))]
        let skip_help = false;
        let decided = if w == 0 || skip_help {
            // Nothing announced (the corpse died outside a commit), or the
            // model sabotage toggle pretends the help ran.
            true
        } else {
            // Safety: the descriptor behind an announced word is leaked by
            // the abandoning drop path — it can never be freed or recycled
            // — and the corpse's hazard bank still protects the operation's
            // target allocations (Lemma 6's initiator obligation).
            unsafe { help_announced(w, g) }
        };
        if !decided {
            // This adopter ran out of memory mid-help; re-park the corpse
            // for a later (or better-resourced) adoption pass.
            fault::repark_corpse(tid);
            continue;
        }
        // The operation is decided (helped above, or completed earlier by
        // organic read-helping); releasing the bank is now safe.
        ANNOUNCE[tid as usize].store(0, Ordering::Release);
        fault::release_corpse(tid);
        counters_adopt::ADOPTIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        released += 1;
    }
    released
}

/// Help an announced descriptor word to completion, by kind. Returns true
/// iff the operation is decided on return (false only when the adopter
/// itself failed an RDCSS allocation mid-help).
///
/// # Safety
///
/// `w` must be a descriptor word whose descriptor is alive for the whole
/// call (adoption relies on abandoned descriptors being leaked) and whose
/// initiator's hazard bank is still intact.
unsafe fn help_announced(w: Word, g: &Guard) -> bool {
    match word::kind(w) {
        word::KIND_DCAS => {
            // Only help a *published* DCAS. The first-word install is
            // initiator-only, so helping a descriptor the dead initiator
            // announced but never installed would run the helper half of
            // the protocol against a word that never held the announcement
            // and could apply only the second CAS — a torn half-commit
            // (`dcas::dcas_is_published`). Unpublished + dead owner means
            // the operation never took effect and never will: decided.
            // Safety: forwarded (announced descriptors are leaked alive).
            if unsafe { crate::dcas::dcas_is_published(w) } {
                // Safety: forwarded; run as helper (the initiator is dead).
                let _ = unsafe { crate::dcas::dcas_run(w, false, g, fault::gate()) };
            }
            true
        }
        word::KIND_CASN => {
            let d = word::desc_addr(w) as *const crate::kcas::CasnDesc;
            // Safety: forwarded.
            unsafe { crate::kcas::casn_execute(&*d, w, g, false) }.is_ok()
        }
        _ => true,
    }
}

pub(crate) mod counters_adopt {
    use std::sync::atomic::AtomicUsize;
    pub(crate) static ADOPTIONS: AtomicUsize = AtomicUsize::new(0);
}

/// Total operations completed on behalf of another thread: helper runs of
/// the DCAS/CASN protocol plus corpse adoptions. Surfaced in the
/// `reproduce` JSON `reclamation` block.
pub fn helped_completions() -> usize {
    crate::dcas::counters::help_runs() + fault::adopted_total()
}

/// Deterministic sabotage switches for the model checker: each one breaks
/// the adoption protocol in a way a scenario must *catch*.
#[cfg(lfc_model)]
pub mod model_toggles {
    use std::sync::atomic::AtomicBool;

    /// Skip the helping step of [`super::adopt_dead_threads`]: corpses are
    /// released without completing their announced operation, leaving the
    /// descriptor installed forever. The kill scenario asserts the target
    /// words are raw after adoption — with this toggle set, that assertion
    /// must fail (the broken-helping bug is *caught*).
    pub static SKIP_ADOPT_HELP: AtomicBool = AtomicBool::new(false);
}
