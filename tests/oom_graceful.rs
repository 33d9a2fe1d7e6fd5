//! OOM-graceful allocation (PR 8 tentpole, part c): with allocation-failure
//! injection armed at every named site, no operation aborts the process —
//! every failure surfaces as `Err(AllocError)` from a `try_` entry point
//! (with the caller's element handed back where one was consumed), and the
//! hash map degrades to no-resize instead of failing at all.
//!
//! The named sites exercised here: `dcas.desc`, `dcas.casn`, `dcas.rdcss`
//! (commit descriptors), `structures.node`, `structures.header` (object
//! allocations), `batch.node`, `batch.gate` (group-commit front-end),
//! `map.grow` / `map.segment` / `map.dummy` (directory growth degrade),
//! and the allocator-level `alloc.block` beneath them all.

use lockfree_compose::batch::{decode_move, decode_swap};
use lockfree_compose::fault::{arm_site, disarm, fired_total, with_registered_peer, Schedule};
use lockfree_compose::{
    move_one, try_move_keyed, try_move_one, try_move_to_all, try_swap, BatchGate, LfHashMap,
    MoveOneOp, MoveOutcome, MsQueue, SwapOp, SwapOutcome, TreiberStack,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The fault registry is process-global; serialize the tests sharing it.
/// Poison-tolerant, so one failing test reports as one failure instead of
/// cascading `PoisonError`s through the rest of the binary. Every test
/// starts from a disarmed registry.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    disarm();
    guard
}

#[test]
fn composition_try_ops_surface_alloc_errors() {
    let _serial = serial();
    let q: MsQueue<u64> = MsQueue::new();
    let q2: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    let s2: TreiberStack<u64> = TreiberStack::new();
    let m: LfHashMap<u64, u64> = LfHashMap::new();
    let m2: LfHashMap<u64, u64> = LfHashMap::new();
    q.enqueue(1);
    // Both swap sides non-empty queues: a stack's insert and remove share
    // the top word, so stack↔anything swaps are `WouldAlias` by design and
    // never reach the commit whose allocation we want to starve.
    q2.enqueue(2);
    m.insert(7, 70);

    with_registered_peer(|| {
        let before = fired_total();
        arm_site("dcas.desc", Schedule::Always);
        arm_site("dcas.casn", Schedule::Always);
        assert!(
            try_move_one(&q, &s).is_err(),
            "2-entry commit needs a DCAS desc"
        );
        assert!(try_move_keyed(&m, &7, &m2).is_err());
        assert!(
            try_swap(&q, &q2).is_err(),
            "4-entry swap commit needs a CASN desc"
        );
        // Fan-out beyond 2 entries goes through CASN.
        assert!(try_move_to_all(&q, &[&s, &s2]).is_err());
        assert!(
            fired_total() >= before + 4,
            "every Err came from an injection"
        );
        disarm();

        // Nothing moved, nothing was lost, and the same calls now succeed.
        assert_eq!(try_move_one(&q, &s), Ok(MoveOutcome::Moved));
        assert_eq!(try_move_keyed(&m, &7, &m2), Ok(MoveOutcome::Moved));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(m2.get(&7), Some(70));
    });
}

#[test]
fn rdcss_exhaustion_fails_casn_commits_gracefully() {
    let _serial = serial();
    let q: MsQueue<u64> = MsQueue::new();
    let a: TreiberStack<u64> = TreiberStack::new();
    let b: TreiberStack<u64> = TreiberStack::new();
    q.enqueue(5);

    with_registered_peer(|| {
        // The CASN descriptor itself allocates, but every entry install
        // also needs an RDCSS descriptor: starve only those. Nth (not
        // Always) keeps concurrent best-effort helpers from livelocking
        // the owner's read loop — the documented schedule for this site.
        arm_site("dcas.rdcss", Schedule::Nth(1));
        let r = try_move_to_all(&q, &[&a, &b]);
        let fired = fired_total();
        disarm();
        assert!(r.is_err(), "owner's first RDCSS allocation failed");
        assert_eq!(fired, 1, "the Err came from the injection");
        assert_eq!(
            q.dequeue(),
            Some(5),
            "aborted commit left the source intact"
        );
        assert!(a.is_empty() && b.is_empty());
    });
}

#[test]
fn structure_try_ops_hand_the_element_back() {
    let _serial = serial();
    let q: MsQueue<String> = MsQueue::new();
    let s: TreiberStack<String> = TreiberStack::new();
    let m: LfHashMap<u64, String> = LfHashMap::new();

    arm_site("structures.node", Schedule::Always);
    let (v, _) = s.try_push("stack".into()).expect_err("node starved");
    assert_eq!(v, "stack", "element handed back");
    let (v, _) = q.try_enqueue("queue".into()).expect_err("node starved");
    assert_eq!(v, "queue");
    let ((k, v), _) = m.try_insert(3, "map".into()).expect_err("node starved");
    assert_eq!((k, v.as_str()), (3, "map"));
    assert!(fired_total() >= 3, "every Err came from an injection");
    disarm();

    assert!(s.try_push("stack".into()).is_ok());
    assert!(q.try_enqueue("queue".into()).is_ok());
    assert_eq!(m.try_insert(3, "map".into()), Ok(true));
    assert_eq!(s.pop().as_deref(), Some("stack"));
    assert_eq!(q.dequeue().as_deref(), Some("queue"));
    assert_eq!(m.get(&3).as_deref(), Some("map"));
}

#[test]
fn constructors_and_gate_fail_fallibly() {
    let _serial = serial();
    arm_site("structures.header", Schedule::Always);
    arm_site("batch.gate", Schedule::Always);
    assert!(TreiberStack::<u64>::try_new().is_err());
    assert!(MsQueue::<u64>::try_new().is_err());
    assert!(BatchGate::<MoveOneOp<u64, MsQueue<u64>, TreiberStack<u64>>>::try_new().is_err());
    assert!(fired_total() >= 3, "every Err came from an injection");
    disarm();
    assert!(TreiberStack::<u64>::try_new().is_ok());
    assert!(MsQueue::<u64>::try_new().is_ok());
}

#[test]
fn batch_submit_degrades_to_direct_execution_without_nodes() {
    let _serial = serial();
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    q.enqueue(9);

    // A gate that would *always* batch cannot even allocate its request
    // node: submit must fall back to unbounded direct execution and still
    // return the operation's real outcome.
    let gate: BatchGate<MoveOneOp<u64, MsQueue<u64>, TreiberStack<u64>>> =
        BatchGate::always_batched();
    arm_site("batch.node", Schedule::Always);
    let w = gate.submit(MoveOneOp::new(&q, &s));
    let fired = fired_total();
    disarm();
    assert!(fired >= 1, "the node allocation was actually refused");
    assert_eq!(decode_move(w), MoveOutcome::Moved);
    assert_eq!(s.pop(), Some(9));
}

#[test]
fn batched_submits_ride_out_descriptor_refusals() {
    let _serial = serial();
    const TOKENS: u64 = 6;
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    for t in 0..TOKENS {
        a.enqueue(t);
        b.enqueue(100 + t);
    }
    let moves: BatchGate<MoveOneOp<u64, MsQueue<u64>, MsQueue<u64>>> = BatchGate::always_batched();
    let swaps: BatchGate<SwapOp<u64, MsQueue<u64>, MsQueue<u64>>> = BatchGate::always_batched();

    // Outside the solo regime every claim DCAS, every flagged commit and
    // every self-executed request needs a descriptor, and every second
    // allocation of each kind is refused. The gate must stay panic-free —
    // a refused claim ends the helping step, a refused flagged commit is a
    // lost round with the flag still pending — and still return each
    // request's real outcome.
    with_registered_peer(|| {
        arm_site("dcas.desc", Schedule::EveryNth(2));
        arm_site("dcas.casn", Schedule::EveryNth(2));
        for left in (0..TOKENS).rev() {
            let w = moves.submit(MoveOneOp::new(&a, &b));
            assert_eq!(decode_move(w), MoveOutcome::Moved);
            // The last move drains `a`: the swap then resolves by the
            // plain finalize CAS instead of a commit.
            let w = swaps.submit(SwapOp::new(&a, &b));
            let expect = if left > 0 {
                SwapOutcome::Swapped
            } else {
                SwapOutcome::FirstEmpty
            };
            assert_eq!(decode_swap(w), expect);
        }
        let w = moves.submit(MoveOneOp::new(&a, &b));
        assert_eq!(decode_move(w), MoveOutcome::SourceEmpty, "a is drained");
        let fired = fired_total();
        disarm();
        assert!(fired > 0, "descriptor allocations were actually refused");
    });

    // Swaps preserve both populations' sizes and each move shifts one
    // token a → b: nothing was created, destroyed or duplicated by a
    // refused round.
    let mut seen = Vec::new();
    while let Some(v) = b.dequeue() {
        seen.push(v);
    }
    assert!(a.dequeue().is_none());
    seen.sort_unstable();
    let expect: Vec<u64> = (0..TOKENS).chain(100..100 + TOKENS).collect();
    assert_eq!(seen, expect, "every token exactly once");
}

#[test]
fn map_degrades_to_no_resize_under_pressure() {
    let _serial = serial();
    let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(2);

    // Growth starved at every layer: the doubling CAS, the directory
    // segments, and the bucket dummies. Inserts must keep succeeding —
    // the map just runs at a higher load factor on coarser chains.
    arm_site("map.grow", Schedule::Always);
    arm_site("map.segment", Schedule::Always);
    arm_site("map.dummy", Schedule::Always);
    for k in 0..500u64 {
        assert!(m.insert(k, !k), "insert {k} under growth pressure");
    }
    assert_eq!(m.capacity(), 2, "no doubling happened under pressure");
    assert!(fired_total() > 0, "growth was refused by injection");
    for k in 0..500u64 {
        assert_eq!(m.get(&k), Some(!k));
    }
    assert_eq!(m.count(), 500);
    disarm();

    // Pressure lifts: the very next inserts re-trigger the heuristic and
    // the directory heals (dummies thread in lazily on first touch).
    for k in 500..1_200u64 {
        assert!(m.insert(k, !k));
    }
    assert!(m.capacity() > 2, "growth resumed after disarm");
    for k in 0..1_200u64 {
        assert_eq!(m.get(&k), Some(!k), "key {k} after degrade + regrow");
    }
}

#[test]
fn allocator_level_failures_stay_fallible() {
    let _serial = serial();
    let s: TreiberStack<u64> = TreiberStack::new();
    let q: MsQueue<u64> = MsQueue::new();
    q.enqueue(2);

    // Below every named site sits `alloc.block` in lfc-alloc itself; the
    // try_ paths must propagate it as the same AllocError.
    arm_site("alloc.block", Schedule::Always);
    assert!(s.try_push(1).is_err());
    assert!(fired_total() >= 1, "the Err came from the injection");
    disarm();
    assert!(s.try_push(1).is_ok());

    // Disarmed, the infallible API is the same path minus the `Err`.
    assert_eq!(move_one(&q, &s), MoveOutcome::Moved);
    assert_eq!(s.pop(), Some(2));
}
