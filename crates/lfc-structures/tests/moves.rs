//! Composed moves between the paper's case-study objects (§5) at full
//! contention, in the two patterns the move-conformance matrix
//! (`tests/linearizability.rs`) only samples: elements bouncing between two
//! Treiber stacks (the ABA setup of §7) and movers racing direct consumers
//! for exactly-once delivery. Every other pairing is a matrix cell.

use lfc_core::move_one;
use lfc_structures::{MsQueue, TreiberStack};
use std::sync::atomic::{AtomicU64, Ordering};

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
