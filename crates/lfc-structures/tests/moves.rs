//! Composed moves across the paper's case-study objects (§5): the
//! Michael–Scott queue and the Treiber stack, in all pairings the evaluation
//! uses (queue/queue, stack/stack, queue/stack), plus the stamped stack and
//! the bounded slot.

use lfc_core::{move_one, MoveOutcome};
use lfc_structures::{MsQueue, OneSlot, StampedStack, TreiberStack};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[test]
fn queue_to_stack_move() {
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    q.enqueue(1);
    q.enqueue(2);
    assert_eq!(move_one(&q, &s), MoveOutcome::Moved);
    assert_eq!(s.pop(), Some(1), "FIFO source: head moved first");
    assert_eq!(q.dequeue(), Some(2));
    assert_eq!(move_one(&q, &s), MoveOutcome::SourceEmpty);
}

#[test]
fn stack_to_queue_move() {
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    s.push(1);
    s.push(2);
    assert_eq!(move_one(&s, &q), MoveOutcome::Moved);
    assert_eq!(q.dequeue(), Some(2), "LIFO source: top moved first");
    assert_eq!(s.pop(), Some(1));
}

#[test]
fn queue_to_queue_move() {
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    for i in 0..10 {
        a.enqueue(i);
    }
    for _ in 0..10 {
        assert_eq!(move_one(&a, &b), MoveOutcome::Moved);
    }
    assert_eq!(move_one(&a, &b), MoveOutcome::SourceEmpty);
    for i in 0..10 {
        assert_eq!(b.dequeue(), Some(i), "order preserved through moves");
    }
}

#[test]
fn stack_to_stack_move() {
    let a: TreiberStack<u64> = TreiberStack::new();
    let b: TreiberStack<u64> = TreiberStack::new();
    a.push(1);
    a.push(2);
    assert_eq!(move_one(&a, &b), MoveOutcome::Moved); // moves 2
    assert_eq!(move_one(&a, &b), MoveOutcome::Moved); // moves 1
    assert_eq!(b.pop(), Some(1));
    assert_eq!(b.pop(), Some(2));
}

#[test]
fn stack_self_move_reports_aliasing() {
    // Both linearization points are the same `top` word: a two-word CAS
    // cannot express it and the move layer must report WouldAlias instead
    // of spinning forever.
    let s: TreiberStack<u64> = TreiberStack::new();
    s.push(7);
    assert_eq!(move_one(&s, &s), MoveOutcome::WouldAlias);
    assert_eq!(s.count(), 1, "stack untouched");
    assert_eq!(s.pop(), Some(7));
}

#[test]
fn queue_self_move_rotates() {
    // A queue's remove CAS targets `head`, its insert CAS targets the tail
    // node's `next`: distinct words, so a self-move is a legal rotation.
    let q: MsQueue<u64> = MsQueue::new();
    for i in 0..4 {
        q.enqueue(i);
    }
    assert_eq!(move_one(&q, &q), MoveOutcome::Moved);
    let drained: Vec<u64> = std::iter::from_fn(|| q.dequeue()).collect();
    assert_eq!(drained, vec![1, 2, 3, 0], "head rotated to the tail");
}

#[test]
fn move_to_full_slot_rejects_and_preserves() {
    let q: MsQueue<u64> = MsQueue::new();
    let slot: OneSlot<u64> = OneSlot::new();
    q.enqueue(10);
    slot.put(99);
    assert_eq!(move_one(&q, &slot), MoveOutcome::TargetRejected);
    assert_eq!(q.count(), 1, "abort left the source untouched");
    assert_eq!(slot.take(), Some(99));
    // Now the slot is free: the same move succeeds.
    assert_eq!(move_one(&q, &slot), MoveOutcome::Moved);
    assert_eq!(slot.take(), Some(10));
    assert!(q.is_empty());
}

#[test]
fn stamped_stack_participates_in_moves() {
    let a: StampedStack<u64> = StampedStack::new();
    let q: MsQueue<u64> = MsQueue::new();
    a.push(5);
    assert_eq!(move_one(&a, &q), MoveOutcome::Moved);
    assert_eq!(move_one(&q, &a), MoveOutcome::Moved);
    assert_eq!(a.pop(), Some(5));
    // Stamped self-move also aliases on `top`.
    a.push(6);
    assert_eq!(move_one(&a, &a), MoveOutcome::WouldAlias);
    assert_eq!(a.pop(), Some(6));
}

#[test]
fn concurrent_queue_stack_traffic_conserves_elements() {
    // The paper's mixed workload shape: threads randomly move between a
    // queue and a stack while others insert/remove. Total element count and
    // value multiset must be conserved.
    const SEED_PER_SIDE: u64 = 200;
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    for i in 0..SEED_PER_SIDE {
        q.enqueue(i);
        s.push(SEED_PER_SIDE + i);
    }
    let moves = AtomicUsize::new(0);

    std::thread::scope(|sc| {
        for t in 0..4u64 {
            let q = &q;
            let s = &s;
            let moves = &moves;
            sc.spawn(move || {
                let mut x = t * 2 + 1;
                for _ in 0..5_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    match x % 4 {
                        0 => {
                            if move_one(q, s) == MoveOutcome::Moved {
                                moves.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        1 => {
                            if move_one(s, q) == MoveOutcome::Moved {
                                moves.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        2 => {
                            // rotate through a remove+insert pair
                            if let Some(v) = q.dequeue() {
                                s.push(v);
                            }
                        }
                        _ => {
                            if let Some(v) = s.pop() {
                                q.enqueue(v);
                            }
                        }
                    }
                }
            });
        }
    });

    assert!(moves.load(Ordering::Relaxed) > 0, "moves actually happened");
    let mut survivors: Vec<u64> = Vec::new();
    while let Some(v) = q.dequeue() {
        survivors.push(v);
    }
    while let Some(v) = s.pop() {
        survivors.push(v);
    }
    survivors.sort_unstable();
    assert_eq!(
        survivors,
        (0..2 * SEED_PER_SIDE).collect::<Vec<u64>>(),
        "every element exactly once after arbitrary concurrent moves"
    );
}

#[test]
fn concurrent_queue_queue_movers_preserve_count() {
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    const N: u64 = 400;
    for i in 0..N {
        a.enqueue(i);
    }
    std::thread::scope(|sc| {
        for dir in 0..2 {
            for _ in 0..2 {
                let a = &a;
                let b = &b;
                sc.spawn(move || {
                    for _ in 0..3_000 {
                        if dir == 0 {
                            let _ = move_one(a, b);
                        } else {
                            let _ = move_one(b, a);
                        }
                    }
                });
            }
        }
    });
    let mut all: Vec<u64> = Vec::new();
    while let Some(v) = a.dequeue() {
        all.push(v);
    }
    while let Some(v) = b.dequeue() {
        all.push(v);
    }
    all.sort_unstable();
    assert_eq!(all, (0..N).collect::<Vec<u64>>());
}

#[test]
fn concurrent_stack_stack_movers_preserve_count() {
    // The configuration the paper's §7 singles out for ABA-driven false
    // helping: elements bouncing between two stacks.
    let a: TreiberStack<u64> = TreiberStack::new();
    let b: TreiberStack<u64> = TreiberStack::new();
    const N: u64 = 100;
    for i in 0..N {
        a.push(i);
    }
    std::thread::scope(|sc| {
        for dir in 0..2 {
            for _ in 0..2 {
                let a = &a;
                let b = &b;
                sc.spawn(move || {
                    for _ in 0..4_000 {
                        if dir == 0 {
                            let _ = move_one(a, b);
                        } else {
                            let _ = move_one(b, a);
                        }
                    }
                });
            }
        }
    });
    let mut all: Vec<u64> = Vec::new();
    while let Some(v) = a.pop() {
        all.push(v);
    }
    while let Some(v) = b.pop() {
        all.push(v);
    }
    all.sort_unstable();
    assert_eq!(all, (0..N).collect::<Vec<u64>>());
}

#[test]
fn movers_race_direct_consumers_for_exactly_once_delivery() {
    // Producer enqueues N distinct values into the queue; movers shuttle
    // them to the stack; consumers pop from *both* ends. Every value must be
    // consumed exactly once.
    const N: u64 = 20_000;
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    let consumed = AtomicU64::new(0);
    let seen = std::sync::Mutex::new(vec![false; N as usize]);

    std::thread::scope(|sc| {
        let q_ref = &q;
        let s_ref = &s;
        let consumed = &consumed;
        let seen = &seen;
        sc.spawn(move || {
            for v in 0..N {
                q_ref.enqueue(v);
            }
        });
        for _ in 0..2 {
            sc.spawn(move || {
                while consumed.load(Ordering::Relaxed) < N {
                    let _ = move_one(q_ref, s_ref);
                }
            });
        }
        for src in 0..2 {
            sc.spawn(move || {
                let mut local = Vec::new();
                while consumed.load(Ordering::Relaxed) < N {
                    let got = if src == 0 {
                        q_ref.dequeue()
                    } else {
                        s_ref.pop()
                    };
                    if let Some(v) = got {
                        local.push(v);
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let mut seen = seen.lock().unwrap();
                for v in local {
                    assert!(!seen[v as usize], "value {v} delivered twice");
                    seen[v as usize] = true;
                }
            });
        }
    });

    let seen = seen.lock().unwrap();
    assert!(seen.iter().all(|&b| b), "every value delivered");
    assert!(q.is_empty());
    assert!(s.is_empty());
}
