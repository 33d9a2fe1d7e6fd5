//! Elimination backoff for the Treiber stack (PR 7).
//!
//! A stack's `top` word is a sequential bottleneck: every push and pop
//! linearizes there. The classic observation (Hendler, Shavit & Yerushalmi)
//! is that a *colliding* push/pop pair needs no stack at all — the pop may
//! take the push's element directly, as if the push linearized immediately
//! before the pop — so contention can be bled off into a side channel that
//! never touches `top`.
//!
//! # Protocol
//!
//! The exchanger is a small array of cache-padded slots. A slot holds 0 or
//! the address of a waiting pusher's **unpublished node** (allocated for
//! the normal push path, value already written, never linked):
//!
//! * **Pusher** (after a failed `top` CAS): park the node's address in the
//!   [`slot::ELIM`] hazard (the ABA defense, see *Correctness*), then CAS
//!   its slot `0 → node` (Release: publishes the value write). Wait a
//!   short window, yielding — on an oversubscribed core a collision
//!   partner cannot run otherwise. If the slot no longer holds `node`, a
//!   popper claimed it: the push is done and the *popper* owns the node.
//!   Otherwise withdraw with a CAS `node → 0`: success keeps ownership and
//!   resumes the normal loop; failure again means a popper claimed it in
//!   the window. Either way the hazard is cleared on exit.
//! * **Popper** (after a failed `top` CAS): scan the slots; on a nonzero
//!   word `w`, CAS `w → 0` (Acquire: pairs with the pusher's Release).
//!   Winning the claim transfers *whole-node ownership*: the popper takes
//!   the value out, **retires** the node through the hazard domain, and
//!   returns the value as its pop result.
//!
//! # Correctness
//!
//! *Linearizability*: the claim CAS is the shared linearization point —
//! the push takes effect immediately before the pop, an order consistent
//! with both (neither operation had linearized on `top`, and the element
//! was never visible to anyone else). *Ownership*: a slot only ever
//! transitions `0 → node` (by the node's owner) and `node → 0` (by owner
//! withdrawal or popper claim); the CAS makes those mutually exclusive, so
//! exactly one side owns the node afterwards.
//!
//! *ABA*: the dangerous reuse is a claimed node's address coming back from
//! the allocator and being re-offered **into the same slot** while the
//! original pusher still camps — the camping pusher would read `slot ==
//! addr`, believe its own offer is still current, and its withdraw CAS
//! `addr → 0` could *steal* the new offer (the second pusher then
//! completes as "eliminated" with no consuming pop, while the first
//! republishes a node it no longer owns). The ownership CAS argument above
//! cannot exclude this on its own: ownership transfers at claim time, but
//! the pusher only learns of the claim at observation time, and in that
//! window a freed address is free to recycle. The defense is to close the
//! reuse window outright: the pusher parks `addr` in its [`slot::ELIM`]
//! hazard *before* offering and clears it only after the outcome is
//! decided, and a claiming popper hands the node to `retire`
//! instead of freeing it. Reclamation of the node therefore cannot
//! complete while the pusher camps — every scan that could free it runs
//! after the popper's retire, which is ordered after the claim CAS's
//! Acquire read of the offer's Release publication, which the hazard store
//! precedes; the sweep consequently observes the hazard — so `slot ==
//! addr` always means "my own offer", and the withdraw CAS can only ever
//! withdraw it. (Named hazards also survive ejection and zombie
//! partitioning, so a pusher descheduled mid-camp keeps its protection.)
//!
//! Compositions never take this path: [`lfc_core::RemoveCtx::eliminable`]
//! is `false` for every composed context, because a composed operation's
//! linearization point must be a *captured CAS triple* — a cancelled pair
//! has no word to capture.

use crate::node::{retire, Node};
use crate::sync::{AtomicUsize, Ordering};
use lfc_hazard::{slot, Guard};
use lfc_runtime::CachePadded;
use std::marker::PhantomData;

/// Exchanger width. Small on purpose: elimination only pays on *hot*
/// stacks, where a handful of slots already catches most collisions, and
/// poppers scan every slot.
pub(crate) const ELIM_SLOTS: usize = 4;

/// Rounds a pusher camps on its slot. Mostly yields: the partner popper
/// must actually run to collide, and on an oversubscribed core a pure spin
/// only burns the partner's quantum.
#[cfg(not(lfc_model))]
const ELIM_WAIT: u32 = 32;
#[cfg(lfc_model)]
const ELIM_WAIT: u32 = 2;

/// The padded exchanger array, embedded in each stack.
pub(crate) struct ElimArray<T> {
    slots: [CachePadded<AtomicUsize>; ELIM_SLOTS],
    _marker: PhantomData<T>,
}

impl<T: Clone + Send + Sync + 'static> ElimArray<T> {
    pub(crate) fn new() -> Self {
        ElimArray {
            slots: std::array::from_fn(|_| CachePadded::new(AtomicUsize::new(0))),
            _marker: PhantomData,
        }
    }

    /// Offer `node` (unpublished, value written) for elimination.
    ///
    /// Returns `true` if a popper claimed it — the push is complete and
    /// the node now belongs to the popper. Returns `false` if the offer
    /// was withdrawn (or never posted): the caller still owns the node
    /// and resumes its normal loop.
    ///
    /// # Safety
    ///
    /// `node` must be unpublished and uniquely owned by the caller.
    pub(crate) unsafe fn offer_push(&self, node: *mut Node<T>, g: &Guard, lane: usize) -> bool {
        let elim_slot = &self.slots[lane % ELIM_SLOTS];
        let addr = node as usize;
        debug_assert_eq!(g.get(slot::ELIM), 0, "offers do not nest");
        // Park the address for the whole camp (module docs, *ABA*): a
        // claimed offer is retired, never freed, and this hazard is what
        // keeps reclamation from recycling `addr` into a fresh offer the
        // withdraw CAS below could steal. Promotion ordering suffices: we
        // own the node when the store executes, and any scan that could
        // free it is ordered after the claim CAS that read our Release
        // offer publication, which this store precedes.
        g.promote(slot::ELIM, addr);
        // Release: a claimer's Acquire read of `addr` must see the value
        // written into the node before the offer.
        if elim_slot
            .compare_exchange(0, addr, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            g.clear(slot::ELIM);
            return false;
        }
        let mut i = 0;
        while i < ELIM_WAIT {
            if elim_slot.load(Ordering::Relaxed) != addr {
                // Claimed: do not touch the node again.
                g.clear(slot::ELIM);
                counters::note_pair();
                return true;
            }
            lfc_runtime::camp_round(i);
            i += 1;
        }
        // Withdraw. Failure means a popper won the claim in the window.
        let won = elim_slot
            .compare_exchange(addr, 0, Ordering::Relaxed, Ordering::Relaxed)
            .is_err();
        g.clear(slot::ELIM);
        if won {
            counters::note_pair();
        }
        won
    }

    /// Try to claim any offered push; on success the popper owns the node:
    /// the value is taken out, the node retired, and the value returned as
    /// the pop result.
    pub(crate) fn try_take(&self, lane: usize) -> Option<T> {
        for k in 0..ELIM_SLOTS {
            let slot = &self.slots[(lane + k) % ELIM_SLOTS];
            let w = slot.load(Ordering::Relaxed);
            if w == 0 {
                continue;
            }
            // Acquire: pairs with the offering pusher's Release, making
            // the node's value write visible before we read it.
            if slot
                .compare_exchange(w, 0, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                let node = w as *mut Node<T>;
                // Safety: winning the claim CAS transferred exclusive
                // ownership of the node to us.
                let val = unsafe { (*(*node).val.get()).take() };
                // Retire, never free (module docs, *ABA*): the offering
                // pusher may still be camping on the slot, and an
                // immediate free could recycle this address into a fresh
                // offer its withdraw CAS would steal. The pusher's ELIM
                // hazard defers reclamation past its camp.
                // Safety: claimed above, unlinked from the slot by our CAS.
                unsafe { retire(node) };
                return Some(val.expect("offered nodes always hold a value"));
            }
        }
        None
    }

    /// Whether any slot currently holds an offer (teardown sanity checks).
    #[cfg(test)]
    pub(crate) fn is_quiet(&self) -> bool {
        self.slots.iter().all(|s| s.load(Ordering::Relaxed) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{alloc, free_unpublished};
    use lfc_hazard::pin;

    #[test]
    fn solo_offer_withdraws_cleanly() {
        let e: ElimArray<u64> = ElimArray::new();
        let g = pin();
        let n = alloc(Node::new(Some(5u64))).as_ptr();
        // No popper around: the offer must come back withdrawn and the
        // caller keeps ownership.
        assert!(!unsafe { e.offer_push(n, &g, 0) });
        assert!(e.is_quiet());
        assert_eq!(g.get(slot::ELIM), 0, "camp hazard must be cleared");
        unsafe { free_unpublished(n) };
    }

    #[test]
    fn claim_transfers_the_value_and_retires_the_node() {
        let e: ElimArray<u64> = ElimArray::new();
        let n = alloc(Node::new(Some(7u64))).as_ptr();
        // Park the offer directly (offer_push would withdraw it before a
        // same-thread popper could run).
        e.slots[1]
            .compare_exchange(0, n as usize, Ordering::Release, Ordering::Relaxed)
            .unwrap();
        // The popper scans every lane, whatever its own lane is.
        assert_eq!(e.try_take(3), Some(7));
        assert!(e.is_quiet());
        assert_eq!(e.try_take(0), None);
    }

    #[test]
    fn claimed_address_is_not_recycled_while_pusher_camps() {
        // The ABA regression net (module docs): with the camping pusher's
        // ELIM hazard standing, a claimed node's address must never come
        // back from the allocator — under the old immediate-free scheme
        // the thread-local LIFO pool would hand it straight back, letting
        // a fresh offer reuse the address in the same slot.
        let e: ElimArray<u64> = ElimArray::new();
        let g = pin();
        let n = alloc(Node::new(Some(11u64))).as_ptr();
        let addr = n as usize;
        // Stand in for the camping pusher: hazard up, offer parked.
        g.promote(slot::ELIM, addr);
        e.slots[2]
            .compare_exchange(0, addr, Ordering::Release, Ordering::Relaxed)
            .unwrap();
        assert_eq!(e.try_take(0), Some(11));
        let mut probes = Vec::new();
        for _ in 0..64 {
            lfc_hazard::flush();
            let p = alloc(Node::new(Some(0u64))).as_ptr();
            assert_ne!(
                p as usize, addr,
                "claimed node recycled under a camping pusher"
            );
            probes.push(p);
        }
        for p in probes {
            unsafe { free_unpublished(p) };
        }
        // Camp over: the node becomes reclaimable.
        g.clear(slot::ELIM);
        lfc_hazard::flush();
    }

    #[test]
    fn paired_threads_eliminate() {
        // A parked pusher and a looping popper must eventually collide.
        let e: std::sync::Arc<ElimArray<u64>> = std::sync::Arc::new(ElimArray::new());
        let e2 = e.clone();
        let popper = std::thread::spawn(move || loop {
            if let Some(v) = e2.try_take(0) {
                return v;
            }
            std::thread::yield_now();
        });
        let g = pin();
        let mut v = 41u64;
        loop {
            v += 1;
            let n = alloc(Node::new(Some(v))).as_ptr();
            if unsafe { e.offer_push(n, &g, 0) } {
                break;
            }
            unsafe { free_unpublished(n) };
        }
        assert_eq!(popper.join().unwrap(), v);
        assert!(e.is_quiet());
        assert_eq!(g.get(slot::ELIM), 0, "camp hazard must be cleared");
    }
}

/// Elimination tallies (plain `std` atomics, diagnostics only).
pub mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    static PAIRS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn note_pair() {
        PAIRS.fetch_add(1, Ordering::Relaxed);
    }

    /// Push/pop pairs cancelled through the exchanger (process-wide).
    pub fn eliminated_pairs() -> u64 {
        PAIRS.load(Ordering::Relaxed)
    }
}
