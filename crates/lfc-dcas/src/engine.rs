//! The unified k-entry commit: one entry point for every composed
//! operation.
//!
//! The composition engine in `lfc-core` captures up to
//! [`MAX_ENTRIES`](crate::kcas::MAX_ENTRIES) linearization-point CAS
//! triples (as [`CasnEntry`] values) and commits them all through
//! [`commit_entries`], which cannot fail. Two regimes, fastest first:
//!
//! 1. **Solo** ([`lfc_runtime::solo`]): the calling thread is the only
//!    registered thread and the registration handshake keeps it that way,
//!    so no descriptor is used at all — the k CASes run back to back
//!    ([`solo_commit`]), rolling back the prefix on the first mismatch.
//! 2. **Published**: the paper's DCAS (Algorithm 4) run entry by entry
//!    over all K words ([`crate::kcas`]); at K = 2 it is Algorithm 4 step
//!    for step.
//!
//! This is the only way in for an initiator. The published regime reuses
//! the calling thread's one descriptor record under a new sequence number
//! (`crate::kcas`, "One descriptor per thread"): it allocates and retires
//! nothing, and a retry re-captures its entries into the next incarnation.

use crate::kcas::{CasnEntry, CasnResult, MAX_ENTRIES};
use lfc_hazard::Guard;
use lfc_runtime::solo;

/// Atomically commit `entries` (between 2 and [`MAX_ENTRIES`] CAS triples):
/// either every word is swung from its `old` to its `new`, or — reported as
/// [`CasnResult::FailedAt`] with the first failing index — no word is left
/// changed.
///
/// # Safety
///
/// Every entry's `ptr` must point to a live `DAtomic` whose allocation the
/// caller keeps alive for the duration of the call (by borrow or hazard;
/// `hp` is what helpers adopt), and the entry words must be pairwise
/// distinct — a k-word CAS cannot express two CASes on one word. The
/// `lfc-core` composition engine is the safe wrapper: it captures
/// entries from live borrows and rejects aliased words at capture time
/// (debug builds re-check distinctness here).
#[inline]
pub unsafe fn commit_entries(entries: &[CasnEntry], g: &Guard) -> CasnResult {
    assert!(
        (2..=MAX_ENTRIES).contains(&entries.len()),
        "commit_entries supports 2..={MAX_ENTRIES} entries"
    );
    debug_assert!(
        entries
            .iter()
            .enumerate()
            .all(|(i, e)| entries[..i].iter().all(|p| !std::ptr::eq(p.ptr, e.ptr))),
        "entry words must be pairwise distinct (engine alias detection)"
    );

    // Regime 1: solo — no descriptor, no publication.
    if let Some(_solo) = solo::try_enter() {
        return solo_commit(entries);
    }

    // Regime 2: the published protocol, every width.
    // Safety: forwarded contract.
    unsafe { crate::kcas::commit(entries, g) }
}

/// The solo-regime commit: run the `entries` CASes back to back,
/// reverting the prefix on the first mismatch.
///
/// Sound only while a [`lfc_runtime::solo::SoloSection`] is held: no other
/// thread can observe shared memory, so the intermediate states between the
/// CASes (and between a failed CAS and its rollback) are unobservable by
/// construction — which is precisely the atomicity the descriptor protocol
/// otherwise provides.
#[inline]
fn solo_commit(entries: &[CasnEntry]) -> CasnResult {
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
