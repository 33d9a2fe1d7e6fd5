//! Acceptance check for the unified engine's descriptor economy: the
//! steady-state `move_to_all` hot path performs **zero** `lfc-alloc` block
//! allocations for its commits — solo commits use no descriptor at all,
//! and published commits reuse the calling thread's one descriptor record.
//! So a published round allocates exactly the blocks a solo round does:
//! the target nodes, and nothing else.
//!
//! One test per file (like `engine_commit.rs` in lfc-dcas): a sibling test's
//! thread would register itself and both disturb the solo phase and race
//! the process-global allocator counters.

use lfc_dcas::counters;
use lockfree_compose::alloc_stats::stats;
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

/// `lfc-alloc` blocks handed out so far.
fn blocks() -> usize {
    let s = stats();
    s.fresh + s.recycled + s.oversize
}

/// Blocks allocated by `rounds` round trips (each flushed, so retired
/// nodes come back in the measured window's steady state).
fn blocks_per(
    rounds: usize,
    src: &MsQueue<u64>,
    refs: &[&MsQueue<u64>],
    dsts: &[MsQueue<u64>],
) -> usize {
    let b0 = blocks();
    for _ in 0..rounds {
        roundtrip(src, refs, dsts);
        lockfree_compose::hazard::flush();
    }
    blocks() - b0
}

#[test]
fn steady_state_move_to_all_never_hits_the_allocator() {
    const ROUNDS: usize = 200;
    let src: MsQueue<u64> = MsQueue::new();
    let dsts: Vec<MsQueue<u64>> = (0..3).map(|_| MsQueue::new()).collect();
    let refs: Vec<&MsQueue<u64>> = dsts.iter().collect();
    src.enqueue(1);

    // Phase 1: solo regime — the commit never uses a descriptor.
    assert_eq!(lfc_runtime::active_threads(), 1);
    blocks_per(50, &src, &refs, &dsts);
    let solo = blocks_per(ROUNDS, &src, &refs, &dsts);
    assert_eq!(
        counters::desc_pool_hits(),
        0,
        "solo move_to_all must not touch the descriptor layer at all"
    );
    // One node per target, plus the re-enqueue into the source.
    assert_eq!(solo, 4 * ROUNDS, "a solo round allocates only its nodes");

    // Phase 2: a second registered thread forces the published path.
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let blocker = std::thread::spawn(move || {
        let _g = lockfree_compose::hazard::pin();
        ready_tx.send(()).unwrap();
        stop_rx.recv().ok();
    });
    ready_rx.recv().unwrap();

    blocks_per(50, &src, &refs, &dsts);
    let hits0 = counters::desc_pool_hits();
    let published = blocks_per(ROUNDS, &src, &refs, &dsts);
    assert_eq!(
        published, solo,
        "published commits must add no lfc-alloc block allocation"
    );
    assert!(
        counters::desc_pool_hits() >= hits0 + ROUNDS,
        "the measured commits took the published path"
    );
    assert_eq!(counters::desc_pool_misses(), 0);

    stop_tx.send(()).unwrap();
    blocker.join().unwrap();
}
