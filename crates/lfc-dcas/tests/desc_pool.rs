//! Descriptor-pool lifecycle and reuse-safety tests.
//!
//! The pooling invariant under test: a descriptor re-enters circulation
//! only after the hazard domain proves no helper can still reach it, so a
//! helper can never operate on a descriptor that has been handed out for a
//! *new* DCAS (which would corrupt unrelated words).

use lfc_dcas::dcas::test_support;
use lfc_dcas::{commit_entries, counters, CasnEntry, CasnResult, DAtomic};
use lfc_hazard::{pin, Guard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn dcas(
    g: &Guard,
    a: &DAtomic,
    old1: usize,
    new1: usize,
    b: &DAtomic,
    old2: usize,
    new2: usize,
) -> CasnResult {
    let es = [
        CasnEntry {
            ptr: a,
            old: old1,
            new: new1,
            hp: 0,
        },
        CasnEntry {
            ptr: b,
            old: old2,
            new: new2,
            hp: 0,
        },
    ];
    // Safety: both words outlive the call and are distinct.
    unsafe { commit_entries(&es, g) }
}

#[test]
fn unpublished_descriptors_are_pooled_and_reused() {
    let g = pin();
    let (a, b) = (DAtomic::new(8), DAtomic::new(16));
    // A first-word mismatch drops the descriptor unpublished; the
    // registered peer keeps the commit off the descriptor-free solo path.
    lfc_runtime::fault::with_registered_peer(|| {
        let hits0 = counters::desc_pool_hits();
        // Warm the pool.
        assert_eq!(dcas(&g, &a, 96, 24, &b, 16, 32), CasnResult::FailedAt(0));
        // Subsequent allocations on this thread must hit the pool. (The
        // counters are process-global and other tests in this binary run
        // concurrently, so only lower bounds on our own contribution can
        // be asserted — a miss upper bound would race sibling tests'
        // threads.)
        for _ in 0..64 {
            assert_eq!(dcas(&g, &a, 96, 24, &b, 16, 32), CasnResult::FailedAt(0));
        }
        assert!(
            counters::desc_pool_hits() >= hits0 + 64,
            "drop/alloc cycles must be pool hits (hits {} -> {})",
            hits0,
            counters::desc_pool_hits()
        );
    });
}

#[test]
fn published_descriptor_is_not_reused_while_helper_holds_it() {
    // Publish a descriptor, let a helper protect + complete it, and only
    // then retire it. While the helper's DESC hazard is live, a stream of
    // published commits cycling descriptors through retire → flush → pool
    // must never be handed the protected block.
    let g = pin();
    let a = Box::leak(Box::new(DAtomic::new(8)));
    let b = Box::leak(Box::new(DAtomic::new(16)));
    let es = [
        CasnEntry {
            ptr: a,
            old: 8,
            new: 24,
            hp: 0,
        },
        CasnEntry {
            ptr: b,
            old: 16,
            new: 32,
            hp: 0,
        },
    ];
    // Safety: leaked words live forever and are distinct.
    let w = unsafe { test_support::announce_only(es[0], es[1]) }.expect("announce succeeds");
    let protected = lfc_dcas::word::desc_addr(w);

    // Simulate a stalled helper: protect the descriptor in our DESC slot.
    g.set(lfc_hazard::slot::DESC, protected);
    // Finish the operation as a helper would, then retire the descriptor —
    // it is now on the hazard domain's pending list, still protected.
    let r = unsafe { test_support::resume(w, &g) };
    assert_eq!(r, CasnResult::Success);
    unsafe { test_support::retire_announced(w) };
    lfc_hazard::flush();

    // Published commits that all end SECONDFAILED, each flushed so its
    // descriptor comes back through the pool. A reuse of the protected
    // block would overwrite its decided SUCCESS.
    let (c, d) = (DAtomic::new(8), DAtomic::new(16));
    lfc_runtime::fault::with_registered_peer(|| {
        let hits0 = counters::desc_pool_hits();
        for _ in 0..256 {
            assert_eq!(dcas(&g, &c, 8, 24, &d, 96, 32), CasnResult::FailedAt(1));
            lfc_hazard::flush();
        }
        assert!(
            counters::desc_pool_hits() > hits0,
            "descriptors were reused"
        );
    });
    assert_eq!(
        unsafe { test_support::res_state(w) },
        2,
        "protected descriptor must not re-enter circulation"
    );

    // Release the hazard: now reclamation may recycle it.
    g.clear(lfc_hazard::slot::DESC);
    lfc_hazard::flush();
}

#[test]
fn pool_reuse_is_safe_under_helping_stress() {
    // Movers + readers on a shared pair: every commit cycles descriptors
    // through publish → retire → reclaim → pool → reuse while readers
    // concurrently help through stale words. The lockstep invariant fails
    // if any helper ever writes through a reused descriptor's stale
    // triples.
    const THREADS: usize = 4;
    const SUCCESSES: usize = 4_000;
    let a = Arc::new(DAtomic::new(0));
    let b = Arc::new(DAtomic::new(8));
    let total = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let a = a.clone();
            let b = b.clone();
            let total = total.clone();
            s.spawn(move || {
                let g = pin();
                let mut done = 0;
                while done < SUCCESSES {
                    let w1 = a.read(&g);
                    if dcas(&g, &a, w1, w1 + 8, &b, w1 + 8, w1 + 16) == CasnResult::Success {
                        done += 1;
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // A pure reader thread that keeps helping in-flight operations.
        {
            let a = a.clone();
            let b = b.clone();
            let total = total.clone();
            s.spawn(move || {
                let g = pin();
                while total.load(Ordering::Relaxed) < THREADS * SUCCESSES {
                    let x = a.read(&g);
                    let y = b.read(&g);
                    assert_eq!(x % 8, 0);
                    assert_eq!(y % 8, 0);
                }
            });
        }
    });

    let g = pin();
    let n = total.load(Ordering::Relaxed);
    assert_eq!(n, THREADS * SUCCESSES);
    assert_eq!(a.read(&g), 8 * n, "no lost or doubled first-word swing");
    assert_eq!(
        b.read(&g),
        8 * n + 8,
        "no lost or doubled second-word swing"
    );
    assert!(
        counters::desc_pool_hits() > 0,
        "stress must actually exercise pooled reuse"
    );
}
