//! Block-leak check for composed moves. `lfc_alloc::outstanding()` is a
//! process-global counter, so this is the only test of its binary: no
//! sibling test allocates between the two readings.

use lfc_core::move_one;
use lfc_structures::{MsQueue, TreiberStack};

/// One fill / move / drain round; everything except a bounded number of
/// still-hazarded stragglers must be back in the pool afterwards.
fn round_returns_every_block() {
    let before = lfc_alloc::outstanding();
    {
        let q: MsQueue<u64> = MsQueue::new();
        let s: TreiberStack<u64> = TreiberStack::new();
        for i in 0..2_000 {
            q.enqueue(i);
            s.push(i);
        }
        for _ in 0..500 {
            let _ = move_one(&q, &s);
            let _ = move_one(&s, &q);
        }
        while q.dequeue().is_some() {}
        while s.pop().is_some() {}
    }
    lfc_hazard::flush();
    let after = lfc_alloc::outstanding();
    assert!(
        after <= before + 64,
        "outstanding blocks grew {before} -> {after}"
    );
}

#[test]
fn structures_do_not_leak_blocks() {
    // Alone in the binary this thread is in the solo regime (no commit
    // descriptors); the parked peer of the second round forces the
    // published path, whose descriptors must come back as well.
    round_returns_every_block();
    lfc_runtime::fault::with_registered_peer(round_returns_every_block);
}
