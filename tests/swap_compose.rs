//! The compositions the unified engine newly expresses: `swap` (atomic
//! exchange of one element between two objects), keyed fan-out
//! (`move_keyed_to_all`), mixed keyed→unkeyed moves, and user-defined
//! `Composition` chains.

use lockfree_compose::{
    move_keyed_to_all, move_keyed_to_unkeyed, move_one, swap, Composition, InsertCtx,
    InsertOutcome, LfHashMap, MoveOutcome, MoveSource, MoveTarget, MsQueue, OrderedSet, RemoveCtx,
    RemoveOutcome, SwapOutcome, TreiberStack,
};
use std::cell::Cell;
use std::collections::HashSet;

#[test]
fn swap_exchanges_queue_heads() {
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    a.enqueue(1);
    b.enqueue(2);
    assert_eq!(swap(&a, &b), SwapOutcome::Swapped);
    assert_eq!(a.dequeue(), Some(2), "b's element arrived in a");
    assert_eq!(b.dequeue(), Some(1), "a's element arrived in b");
    assert!(a.is_empty() && b.is_empty());
}

#[test]
fn swap_preserves_fifo_tails() {
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    for v in [10, 11] {
        a.enqueue(v);
    }
    for v in [20, 21] {
        b.enqueue(v);
    }
    assert_eq!(swap(&a, &b), SwapOutcome::Swapped);
    // Heads crossed over to the other queue's tail; tails stayed.
    assert_eq!(
        std::iter::from_fn(|| a.dequeue()).collect::<Vec<_>>(),
        vec![11, 20]
    );
    assert_eq!(
        std::iter::from_fn(|| b.dequeue()).collect::<Vec<_>>(),
        vec![21, 10]
    );
}

#[test]
fn swap_empty_sides_report_which() {
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    assert_eq!(swap(&a, &b), SwapOutcome::FirstEmpty);
    a.enqueue(1);
    assert_eq!(swap(&a, &b), SwapOutcome::SecondEmpty);
    assert_eq!(a.count(), 1, "nothing moved");
    assert!(b.is_empty());
}

#[test]
fn swap_on_stacks_reports_aliasing() {
    // A LIFO's push and pop both linearize on `top`: the four-entry swap
    // would need two CASes on one word, which the capture-time alias
    // detection refuses.
    let a: TreiberStack<u64> = TreiberStack::new();
    let b: TreiberStack<u64> = TreiberStack::new();
    a.push(1);
    b.push(2);
    assert_eq!(swap(&a, &b), SwapOutcome::WouldAlias);
    assert_eq!(a.pop(), Some(1), "first stack untouched");
    assert_eq!(b.pop(), Some(2), "second stack untouched");
}

#[test]
fn self_swap_reports_aliasing() {
    let q: MsQueue<u64> = MsQueue::new();
    q.enqueue(1);
    q.enqueue(2);
    assert_eq!(swap(&q, &q), SwapOutcome::WouldAlias);
    assert_eq!(q.count(), 2, "nothing moved");
}

#[test]
fn concurrent_swaps_conserve_both_populations() {
    // Swaps in both directions racing direct traffic: a swap moves one
    // element each way, so each queue's population is invariant, and the
    // union multiset never changes.
    const PER: u64 = 40;
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    for i in 0..PER {
        a.enqueue(i);
        b.enqueue(1_000 + i);
    }
    std::thread::scope(|sc| {
        let (a, b) = (&a, &b);
        for _ in 0..2 {
            sc.spawn(move || {
                for _ in 0..2_000 {
                    assert_ne!(swap(a, b), SwapOutcome::WouldAlias);
                }
            });
            sc.spawn(move || {
                for _ in 0..2_000 {
                    assert_ne!(swap(b, a), SwapOutcome::WouldAlias);
                }
            });
        }
    });
    let got_a: Vec<u64> = std::iter::from_fn(|| a.dequeue()).collect();
    let got_b: Vec<u64> = std::iter::from_fn(|| b.dequeue()).collect();
    assert_eq!(got_a.len() as u64, PER, "a's population is invariant");
    assert_eq!(got_b.len() as u64, PER, "b's population is invariant");
    let union: HashSet<u64> = got_a.iter().chain(got_b.iter()).copied().collect();
    assert_eq!(union.len() as u64, 2 * PER, "no token lost or duplicated");
}

#[test]
fn keyed_to_unkeyed_crosses_container_shapes() {
    let sessions: LfHashMap<u64, String> = LfHashMap::new();
    let work: MsQueue<String> = MsQueue::new();
    sessions.insert(7, "payload".into());
    assert_eq!(
        move_keyed_to_unkeyed(&sessions, &7, &work),
        MoveOutcome::Moved
    );
    assert!(!sessions.contains(&7), "left the map");
    assert_eq!(work.dequeue().as_deref(), Some("payload"));
    assert_eq!(
        move_keyed_to_unkeyed(&sessions, &7, &work),
        MoveOutcome::SourceEmpty
    );
}

#[test]
fn keyed_fan_out_is_all_or_nothing() {
    let src: LfHashMap<u64, u64> = LfHashMap::new();
    let d1: OrderedSet<u64, u64> = OrderedSet::new();
    let d2: OrderedSet<u64, u64> = OrderedSet::new();
    src.insert(3, 33);
    // Second target already holds the key: nothing may move anywhere.
    d2.insert(3, 99);
    assert_eq!(
        move_keyed_to_all(&src, &3, &[&d1, &d2]),
        MoveOutcome::TargetRejected
    );
    assert_eq!(src.get(&3), Some(33), "source untouched");
    assert_eq!(d1.get(&3), None, "first target untouched");
    assert_eq!(d2.get(&3), Some(99));
    // With the duplicate gone the same fan-out lands everywhere.
    assert_eq!(d2.remove(&3), Some(99));
    assert_eq!(move_keyed_to_all(&src, &3, &[&d1, &d2]), MoveOutcome::Moved);
    assert_eq!(src.get(&3), None);
    assert_eq!(d1.get(&3), Some(33));
    assert_eq!(d2.get(&3), Some(33));
}

#[test]
fn concurrent_keyed_fan_out_conserves_keys() {
    // The conservation property of the keyed broadcast: at the end, every
    // key lives either in the source (and in no target) or in EVERY
    // target — never in a strict subset.
    const KEYS: u64 = 60;
    let src: LfHashMap<u64, u64> = LfHashMap::with_buckets(8);
    let d1: OrderedSet<u64, u64> = OrderedSet::new();
    let d2: OrderedSet<u64, u64> = OrderedSet::new();
    for k in 0..KEYS {
        src.insert(k, k + 500);
    }
    std::thread::scope(|sc| {
        let (src, d1, d2) = (&src, &d1, &d2);
        for t in 0..3u64 {
            sc.spawn(move || {
                for k in 0..KEYS {
                    if k % 3 != t {
                        // Two of the three threads race on every key.
                        let _ = move_keyed_to_all(src, &k, &[d1, d2]);
                    }
                }
            });
        }
    });
    let mut total = 0usize;
    for k in 0..KEYS {
        let here = src.get(&k);
        let t1 = d1.get(&k);
        let t2 = d2.get(&k);
        match (here, t1, t2) {
            (Some(v), None, None) => assert_eq!(v, k + 500),
            (None, Some(v1), Some(v2)) => {
                assert_eq!(v1, k + 500);
                assert_eq!(v2, k + 500);
            }
            other => panic!("key {k} in a strict subset of containers: {other:?}"),
        }
        total += 1;
    }
    assert_eq!(total as u64, KEYS);
    assert_eq!(src.count() + d1.count(), KEYS as usize);
    assert_eq!(d1.count(), d2.count(), "targets move in lockstep");
}

#[test]
fn builder_chains_mixed_keyed_and_unkeyed_targets() {
    let staging: MsQueue<u64> = MsQueue::new();
    let index: LfHashMap<u64, u64> = LfHashMap::new();
    let log: MsQueue<u64> = MsQueue::new();
    staging.enqueue(42);
    // Unkeyed source fanned into a keyed map (under key 7) AND a queue.
    let outcome = Composition::moving_from(&staging)
        .into_keyed_target(&index, &7)
        .into_target(&log)
        .run();
    assert_eq!(outcome, MoveOutcome::Moved);
    assert!(staging.is_empty());
    assert_eq!(index.get(&7), Some(42));
    assert_eq!(log.dequeue(), Some(42));
}

#[test]
fn builder_expresses_atomic_rekey() {
    // Move a value between maps while *changing its key* — one
    // linearization point, a composition none of the fixed entry points
    // offered.
    let m1: LfHashMap<u64, String> = LfHashMap::new();
    let m2: LfHashMap<u64, String> = LfHashMap::new();
    m1.insert(1, "v".into());
    let outcome = Composition::moving_key_from(&m1, &1)
        .into_keyed_target(&m2, &2)
        .run();
    assert_eq!(outcome, MoveOutcome::Moved);
    assert!(!m1.contains(&1));
    assert_eq!(m2.get(&2).as_deref(), Some("v"));
    assert!(!m2.contains(&1));
}

#[test]
fn builder_rejects_duplicate_and_preserves_everything() {
    let m1: LfHashMap<u64, u64> = LfHashMap::new();
    let m2: LfHashMap<u64, u64> = LfHashMap::new();
    let q: MsQueue<u64> = MsQueue::new();
    m1.insert(1, 10);
    m2.insert(2, 20); // target key occupied
    let outcome = Composition::moving_key_from(&m1, &1)
        .into_target(&q)
        .into_keyed_target(&m2, &2)
        .run();
    assert_eq!(outcome, MoveOutcome::TargetRejected);
    assert_eq!(m1.get(&1), Some(10), "source untouched");
    assert_eq!(m2.get(&2), Some(20), "target untouched");
    assert!(q.is_empty(), "sibling target untouched");
}

/// A queue whose first remove lets `rival` run to completion on another
/// thread. As a swap's second source its remove runs inside the first
/// source's capture, so the rival lands exactly between the two.
struct RivalFirst<'a> {
    q: &'a MsQueue<u64>,
    rival: Cell<Option<Box<dyn FnOnce() + Send + 'a>>>,
}

impl MoveSource<u64> for RivalFirst<'_> {
    fn remove_with<C: RemoveCtx<u64>>(&self, ctx: &mut C) -> RemoveOutcome<u64> {
        if let Some(rival) = self.rival.take() {
            std::thread::scope(|sc| {
                sc.spawn(rival);
            });
        }
        self.q.remove_with(ctx)
    }
}

impl MoveTarget<u64> for RivalFirst<'_> {
    fn insert_with<C: InsertCtx>(&self, elem: u64, ctx: &mut C) -> InsertOutcome {
        self.q.insert_with(elem, ctx)
    }
}

#[test]
fn rival_drain_after_capture_is_not_second_empty() {
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    let c: MsQueue<u64> = MsQueue::new();
    a.enqueue(1);
    b.enqueue(2);
    let (ra, rb, rc) = (&a, &b, &c);
    let second = RivalFirst {
        q: &b,
        rival: Cell::new(Some(Box::new(move || {
            assert_eq!(move_one(ra, rc), MoveOutcome::Moved);
            assert_eq!(move_one(rb, rc), MoveOutcome::Moved);
        }))),
    };
    // The rival emptied `a`, then `b`, after our capture of `a`'s head: no
    // instant had `a` non-empty with `b` empty, so `SecondEmpty` would be a
    // lie. The stale capture must turn into a retry, which finds `a` empty.
    assert_eq!(swap(&a, &second), SwapOutcome::FirstEmpty);
    assert!(a.is_empty() && b.is_empty());
    assert_eq!((c.dequeue(), c.dequeue()), (Some(1), Some(2)));
}
