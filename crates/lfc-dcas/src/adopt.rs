//! Dead-thread adoption: completing and reclaiming operations whose owner
//! died mid-flight.
//!
//! The paper's lock-freedom argument says an abandoned composed operation
//! is completed by *helpers* — any thread whose `read` finds the
//! descriptor. That covers words other threads touch. Two gaps remain when
//! a thread genuinely dies (`lfc_runtime::fault::abandon`):
//!
//! 1. **Quiet words**: a descriptor installed at a word nobody else reads
//!    stays torn forever. The **announce slot** of every thread's
//!    descriptor record closes this: every initiator publishes its plain
//!    descriptor word there for the duration of its commit, so an adopter
//!    can find and help it without ever touching the structure.
//! 2. **Resources**: the dead thread's id, hazard-slot bank and epoch slot
//!    stay claimed (deliberately — the bank is what keeps the corpse's
//!    in-flight protections alive for helpers, and the held id keeps
//!    survivors out of the solo regime while the corpse's descriptor may
//!    be installed). [`adopt_dead_threads`] helps the announced operation
//!    to completion, then releases the id and bank through the tid
//!    finalizers.
//!
//! The leak bound (DESIGN.md "Fault model"): whatever nodes the abandoned
//! operation owned but had not published — and no descriptor, since the
//! corpse's descriptor is its static per-thread record. Everything else —
//! allocator magazines, pending retire lists — is flushed by the exit hooks
//! that run during abandonment, and the id/bank are reclaimed here.

use crate::kcas::{self, clear_announce};
use crate::word::Word;
use lfc_hazard::Guard;
use lfc_runtime::fault;

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
/// announce word it reads is the claimed incarnation's. Helping allocates
/// nothing, so the claimed corpse is always released.
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
        let w = kcas::announced(tid);
        #[cfg(lfc_model)]
        let skip_help = model_toggles::SKIP_ADOPT_HELP.load(std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(lfc_model))]
        let skip_help = false;
        // Nothing announced means the corpse died outside a commit; the
        // model sabotage toggle pretends the help ran.
        if w != 0 && !skip_help {
            // Safety: a corpse's record holds the announced incarnation
            // until the tid is released below, and the corpse's hazard bank
            // still protects the operation's target allocations (Lemma 6's
            // initiator obligation).
            unsafe { help_announced(w, g) };
        }
        // The operation is decided (helped above, or completed earlier by
        // organic read-helping); releasing the bank is now safe.
        clear_announce(tid);
        fault::release_corpse(tid);
        counters_adopt::ADOPTIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        released += 1;
    }
    released
}

/// Help an announced descriptor word to its decision.
///
/// Only a *published* commit is helped. The first-word install is
/// initiator-only, so helping a descriptor the dead initiator announced but
/// never installed would run the helper half of the protocol against a
/// word that never held the announcement and could apply only the later
/// CASes — a torn half-commit (`kcas::is_published`). Unpublished + dead
/// owner means the operation never took effect and never will: decided.
///
/// # Safety
///
/// `w` must be a claimed corpse's announced plain descriptor word, so its
/// record holds that incarnation for the whole call and its initiator's
/// hazard bank is still intact.
unsafe fn help_announced(w: Word, g: &Guard) {
    // Safety: forwarded.
    if unsafe { kcas::is_published(w) } {
        // Safety: forwarded; run as a helper (the initiator is dead).
        let _ = unsafe { kcas::help_first_word(w, g) };
    }
}

pub(crate) mod counters_adopt {
    use std::sync::atomic::AtomicUsize;
    pub(crate) static ADOPTIONS: AtomicUsize = AtomicUsize::new(0);
}

/// Total operations completed on behalf of another thread: helper runs of
/// the protocol plus corpse adoptions. Surfaced in the
/// `reproduce` JSON `reclamation` block.
pub fn helped_completions() -> usize {
    kcas::counters::help_runs() + fault::adopted_total()
}

/// Deterministic sabotage switches for the model checker: each one breaks
/// the protocol in a way a scenario must *catch*.
#[cfg(lfc_model)]
pub mod model_toggles {
    use std::sync::atomic::AtomicBool;

    /// Skip the helping step of [`super::adopt_dead_threads`]: corpses are
    /// released without completing their announced operation, leaving the
    /// descriptor installed forever. The kill scenario asserts the target
    /// words are raw after adoption — with this toggle set, that assertion
    /// must fail (the broken-helping bug is *caught*).
    pub static SKIP_ADOPT_HELP: AtomicBool = AtomicBool::new(false);

    /// Skip Lemma 3's self-revert: an executor whose mark lost the
    /// promotion race, or landed after the decision, leaves it installed.
    /// The late-mark scenario asserts every word is raw at the end — with
    /// this toggle set, that assertion must fail.
    pub static SKIP_SELF_REVERT: AtomicBool = AtomicBool::new(false);

    /// Skip a helper's sequence-number validation: it adopts whatever
    /// incarnation the record holds when it re-reads `seq`, as descriptor
    /// reuse without sequence numbers would. The stale-helper scenario
    /// asserts every commit ends whole — with this toggle set, a helper
    /// that stalled across the owner's next commit corrupts it.
    pub static SKIP_SEQ_CHECK: AtomicBool = AtomicBool::new(false);

    /// Skip the reader's revert of a gone incarnation's late mark from its
    /// installer's pending-install slot: the reader must then wait for the
    /// stalled installer. The late-mark-after-reuse scenario asserts the
    /// reader returns the decided raw value — with this toggle set, the
    /// bounded search reports the reader's wait.
    pub static SKIP_PENDING_REVERT: AtomicBool = AtomicBool::new(false);
}
