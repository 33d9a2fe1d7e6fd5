//! Solo-regime detection: an asymmetric Dekker handshake that lets the
//! single registered thread run short critical sections whose intermediate
//! states no other thread can ever observe.
//!
//! The composition layer uses this for its uncontended fast path: a
//! two-word update normally needs the full DCAS descriptor protocol so that
//! concurrent readers can help, but while *no other thread is registered*
//! there is nobody to observe the window between the two CASes — provided
//! no thread can **become** registered inside that window. The handshake
//! closes that window:
//!
//! * the solo thread publishes `SOLO_INFLIGHT = 1`, then checks that it is
//!   still the only active thread ([`try_enter`]);
//! * a registering thread increments the active count, then spins until
//!   `SOLO_INFLIGHT == 0` (`registration_barrier`, called from the tid
//!   registry's claim path).
//!
//! Under the SeqCst total order one of the two must see the other: either
//! the solo thread sees `active > 1` and falls back to the descriptor
//! protocol, or the registering thread sees the in-flight flag and waits
//! for the (two-CAS-long) section to finish. Registration is a once-per-
//! thread-lifetime event, so the wait is paid at most once per thread and
//! is bounded by the solo section's length; it does not affect the
//! lock-freedom of steady-state operations, which never wait.

use crate::pad::CachePadded;
use crate::sync::{AtomicUsize, Ordering};
use crate::tid;

/// Non-zero while the solo thread is inside a fast-path critical section.
/// Padded: sits on a line written only by the solo thread, so registering
/// threads spinning on it do not disturb unrelated globals.
static SOLO_INFLIGHT: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));

/// A token proving the solo section was entered; ends the section on drop.
#[derive(Debug)]
pub struct SoloSection {
    _not_send: std::marker::PhantomData<*mut ()>,
}

/// Try to enter a solo critical section.
///
/// Returns `Some` iff the calling thread is the *only* active registered
/// thread, in which case no other thread can observe shared memory until
/// the returned token is dropped (new registrants block in
/// `registration_barrier`). Keep the section to a handful of instructions.
pub fn try_enter() -> Option<SoloSection> {
    // Cheap gate first: under contention (the common multi-thread case)
    // this is one Relaxed load of a rarely-written padded line, so
    // contended commits do not all write-invalidate the shared flag line.
    // The load is only a hint — the authoritative check is the Dekker
    // store+load below, re-run after publishing the flag.
    if tid::active_threads_relaxed() != 1 {
        return None;
    }
    // SeqCst store→load pair: the Dekker publication. The store must be
    // ordered before the active-count load in the global SC order, which
    // Release/Acquire cannot guarantee (store→load reordering).
    SOLO_INFLIGHT.store(1, Ordering::SeqCst);
    if tid::active_threads() == 1 {
        Some(SoloSection {
            _not_send: std::marker::PhantomData,
        })
    } else {
        SOLO_INFLIGHT.store(0, Ordering::Relaxed);
        None
    }
}

impl Drop for SoloSection {
    fn drop(&mut self) {
        // Release: everything done inside the section happens-before any
        // registrant that observes the flag cleared and proceeds.
        SOLO_INFLIGHT.store(0, Ordering::Release);
    }
}

/// Called by the tid registry after a new thread increments the active
/// count: wait out any in-flight solo section so the new thread can never
/// observe its intermediate state.
pub(crate) fn registration_barrier() {
    // SeqCst (audited, required): this load is the registering side of the
    // Dekker pair and must participate in the SC total order — an Acquire
    // load has no ordering against `try_enter`'s flag store and could read
    // a stale 0 even though the solo thread already checked the active
    // count. As SeqCst: the claim path's SC increment precedes this load
    // in the SC order, so if the solo thread's count load missed the
    // increment, its flag store precedes this load in the SC order and is
    // observed (C++17 atomics.order p4: an SC load reads the last SC
    // write before it, or a later non-SC write — here only the section's
    // *ending* Release clear, which is equally safe). Registration is
    // once per thread lifetime, so the cost is irrelevant.
    while SOLO_INFLIGHT.load(Ordering::SeqCst) != 0 {
        crate::sync::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_iff_single_active_thread() {
        crate::current_tid();
        // This test thread might share the process with other live test
        // threads; only assert the consistent cases.
        match try_enter() {
            Some(tok) => {
                assert_eq!(tid::active_threads(), 1);
                drop(tok);
                // Re-entry works after drop.
                let again = try_enter();
                assert!(again.is_some());
            }
            None => assert!(tid::active_threads() > 1),
        }
        // A second live thread always forbids solo mode.
        std::thread::scope(|sc| {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            sc.spawn(move || {
                crate::current_tid();
                // Hold registration until the main assertion is done.
                rx.recv().ok();
            });
            while tid::active_threads() < 2 {
                std::hint::spin_loop();
            }
            assert!(try_enter().is_none());
            tx.send(()).unwrap();
        });
    }
}
