//! Miri smoke of the epoch layer: single-threaded enter/exit/nesting,
//! retire-under-epoch, scan-time tagging, forced advance, and the
//! epoch→hazard promotion handoff, and reclaimers that retire. Runs in
//! CI's Miri step (the multi-thread paths are covered by the
//! `epoch_reclaim` stress suite).

use lfc_hazard::{advance_epoch, epoch_now, flush, min_active_epoch, pin, pin_op, retire, slot};
use std::sync::atomic::{AtomicUsize, Ordering};

static DROPS: AtomicUsize = AtomicUsize::new(0);

unsafe fn reclaim(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut u64) });
    DROPS.fetch_add(1, Ordering::SeqCst);
}

#[test]
fn epoch_lifecycle_smoke() {
    // Enter / nest / exit.
    {
        let _outer = pin_op();
        assert!(min_active_epoch().is_some());
        {
            let _inner = pin_op();
            assert!(min_active_epoch().is_some());
        }
        assert!(min_active_epoch().is_some(), "nesting must not exit early");
    }
    assert_eq!(min_active_epoch(), None);

    // Retire inside an epoch: deferred; after exit: reclaimed.
    let p = Box::into_raw(Box::new(11u64)) as *mut u8;
    let addr = p as usize;
    {
        let _g = pin_op();
        unsafe { retire(p, reclaim) };
        flush();
        flush();
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        assert_eq!(unsafe { *(addr as *const u64) }, 11);
    }
    while DROPS.load(Ordering::SeqCst) < 1 {
        flush();
    }

    // Forced advance is monotonic and safe with no readers.
    let e = epoch_now();
    assert!(advance_epoch() > e);

    // Promotion handoff: an ENTRY hazard alone survives epoch sweeps.
    let g = pin();
    let q = Box::into_raw(Box::new(17u64)) as *mut u8;
    let qaddr = q as usize;
    g.promote(slot::ENTRY0, qaddr);
    unsafe { retire(q, reclaim) };
    advance_epoch();
    flush();
    flush();
    assert_eq!(DROPS.load(Ordering::SeqCst), 1, "hazard must defer");
    assert_eq!(unsafe { *(qaddr as *const u64) }, 17);
    g.clear(slot::ENTRY0);
    while DROPS.load(Ordering::SeqCst) < 2 {
        flush();
    }
}

static PARENTS: AtomicUsize = AtomicUsize::new(0);
static CHILDREN: AtomicUsize = AtomicUsize::new(0);

/// A retired value that owns retired memory: dropping it retires its
/// children, as a `Drop` that tears down a structure does.
struct Parent {
    children: [*mut u64; 2],
}

unsafe fn reclaim_child(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut u64) });
    CHILDREN.fetch_add(1, Ordering::SeqCst);
}

unsafe fn reclaim_parent(p: *mut u8) {
    let parent = unsafe { Box::from_raw(p as *mut Parent) };
    for c in parent.children {
        // Safety: the parent owned its children; it is gone now, so each
        // child is unreachable and retired exactly once.
        unsafe { retire(c as *mut u8, reclaim_child) };
    }
    PARENTS.fetch_add(1, Ordering::SeqCst);
}

#[test]
fn reclaimers_may_retire() {
    // Enough parents that the children a scan's reclaimers retire fill the
    // open bag past the scan threshold, so a scan also runs from inside a
    // reclaimer, in the middle of an outer scan's free loop.
    const N: usize = 200;
    for _ in 0..N {
        let children = [Box::into_raw(Box::new(1u64)), Box::into_raw(Box::new(2u64))];
        let p = Box::into_raw(Box::new(Parent { children })) as *mut u8;
        // Safety: fresh allocation, never published.
        unsafe { retire(p, reclaim_parent) };
    }
    for _ in 0..1_000 {
        if CHILDREN.load(Ordering::SeqCst) == 2 * N {
            break;
        }
        flush();
    }
    assert_eq!(PARENTS.load(Ordering::SeqCst), N);
    assert_eq!(CHILDREN.load(Ordering::SeqCst), 2 * N);
}
