//! The unified k-entry commit: one entry point for every composed
//! operation, with DCAS as the K=2 specialization of CASN.
//!
//! The composition engine in `lfc-core` captures up to
//! [`MAX_ENTRIES`](crate::kcas::MAX_ENTRIES) linearization-point CAS
//! triples (as [`CasnEntry`] values) and commits them all through
//! [`commit_entries`] / [`try_commit_entries`] (one body, the fallible
//! one; the infallible name wraps it). Three regimes, fastest first:
//!
//! 1. **Solo** ([`lfc_runtime::solo`]): the calling thread is the only
//!    registered thread and the registration handshake keeps it that way,
//!    so no descriptor is built at all — the k CASes run back to back
//!    ([`crate::kcas::solo_commit`]), rolling back the prefix on the first
//!    mismatch.
//! 2. **K = 2**: the paper's own DCAS (Algorithm 4, [`crate::dcas`]) —
//!    fewer CASes than the general protocol and no RDCSS descriptors,
//!    which is exactly why the paper prefers it for pairs.
//! 3. **K > 2**: the Harris–Fraser–Pratt CASN ([`crate::kcas`]).
//!
//! This is the only way in for an initiator: the published regimes
//! allocate, publish and retire their descriptors through the one
//! lifecycle in `crate::pool` (per-thread pools, so the steady-state hot
//! path performs **zero** `lfc-alloc` block allocations), and a retry
//! re-captures its entries into a fresh descriptor.

use crate::kcas::{solo_commit, CasnEntry, CasnResult, MAX_ENTRIES};
use lfc_hazard::Guard;
use lfc_runtime::solo;

/// Atomically commit `entries` (between 2 and [`MAX_ENTRIES`] CAS triples):
/// either every word is swung from its `old` to its `new`, or — reported as
/// [`CasnResult::FailedAt`] with the first failing index — no word is left
/// changed.
///
/// The infallible name of [`try_commit_entries`]: a descriptor or RDCSS
/// allocation failure (genuine exhaustion, or injection at the
/// `"dcas.desc"`, `"dcas.casn"` and `"dcas.rdcss"` sites) panics —
/// unwinding, with no word left changed — where the `try_` name returns
/// `Err`.
///
/// # Safety
///
/// Every entry's `ptr` must point to a live `DAtomic` whose allocation the
/// caller keeps alive for the duration of the call (by borrow or hazard;
/// `hp` is what helpers adopt), and the entry words must be pairwise
/// distinct — a k-word CAS cannot express two CASes on one word. The
/// `Composition` builder in `lfc-core` is the safe wrapper: it captures
/// entries from live borrows and rejects aliased words at capture time
/// (debug builds re-check distinctness here).
#[inline]
pub unsafe fn commit_entries(entries: &[CasnEntry], g: &Guard) -> CasnResult {
    // Safety: forwarded contract.
    unsafe { try_commit_entries(entries, g) }.unwrap_or_else(|e| crate::pool::alloc_failed(e))
}

/// The one commit body. Descriptor and RDCSS allocation failures surface
/// as `Err`, with no word left changed. The solo regime allocates nothing
/// and cannot fail.
///
/// # Safety
///
/// As [`commit_entries`].
#[inline]
pub unsafe fn try_commit_entries(
    entries: &[CasnEntry],
    g: &Guard,
) -> Result<CasnResult, lfc_alloc::AllocError> {
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

    // Regime 1: solo — no descriptor, no publication, no reclamation work.
    if let Some(_solo) = solo::try_enter() {
        return Ok(solo_commit(entries));
    }

    if let [first, second] = entries {
        // Regime 2: K=2 — the paper's DCAS is the two-entry specialization.
        // Safety: forwarded contract.
        unsafe { crate::dcas::commit(first, second, g) }
    } else {
        // Regime 3: the general CASN.
        // Safety: forwarded contract.
        unsafe { crate::kcas::commit(entries, g) }
    }
}
