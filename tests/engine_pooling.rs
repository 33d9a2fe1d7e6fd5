//! Acceptance check for the unified engine's descriptor economy: the
//! steady-state `move_to_all` hot path performs **zero** `lfc-alloc` block
//! allocations — solo commits build no descriptors at all, and published
//! descriptors are recycled through the per-thread pool.
//!
//! One test per file (like `engine_commit.rs` in lfc-dcas): a sibling test's
//! thread would register itself and both disturb the solo phase and race
//! the process-global pool counters.

use lfc_dcas::counters;
use lockfree_compose::{move_to_all, MoveOutcome, MsQueue};

fn roundtrip(src: &MsQueue<u64>, refs: &[&MsQueue<u64>], dsts: &[MsQueue<u64>]) {
    assert_eq!(move_to_all(src, refs), MoveOutcome::Moved);
    for (i, d) in dsts.iter().enumerate() {
        let v = d.dequeue().unwrap();
        if i == 0 {
            src.enqueue(v);
        }
    }
}

#[test]
fn steady_state_move_to_all_never_hits_the_allocator() {
    let src: MsQueue<u64> = MsQueue::new();
    let dsts: Vec<MsQueue<u64>> = (0..3).map(|_| MsQueue::new()).collect();
    let refs: Vec<&MsQueue<u64>> = dsts.iter().collect();
    src.enqueue(1);

    // Phase 1: solo regime — the commit never builds a descriptor.
    assert_eq!(lfc_runtime::active_threads(), 1);
    for _ in 0..50 {
        roundtrip(&src, &refs, &dsts);
    }
    assert_eq!(
        counters::desc_pool_hits() + counters::desc_pool_misses(),
        0,
        "solo move_to_all must not touch the descriptor layer at all"
    );

    // Phase 2: a second registered thread forces the published path.
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let blocker = std::thread::spawn(move || {
        let _g = lockfree_compose::hazard::pin();
        ready_tx.send(()).unwrap();
        stop_rx.recv().ok();
    });
    ready_rx.recv().unwrap();

    // Warmup: first commits miss the (empty) pools; flushing returns the
    // retired descriptors so the pools are primed.
    for _ in 0..50 {
        roundtrip(&src, &refs, &dsts);
        lockfree_compose::hazard::flush();
    }
    // Steady state: every allocation must be a pool hit.
    let miss0 = counters::desc_pool_misses();
    let hits0 = counters::desc_pool_hits();
    for _ in 0..200 {
        roundtrip(&src, &refs, &dsts);
        lockfree_compose::hazard::flush();
    }
    assert_eq!(
        counters::desc_pool_misses(),
        miss0,
        "steady-state move_to_all must never fall through to lfc-alloc"
    );
    assert!(
        counters::desc_pool_hits() >= hits0 + 200,
        "steady-state commits are served by the pools"
    );

    stop_tx.send(()).unwrap();
    blocker.join().unwrap();
}
