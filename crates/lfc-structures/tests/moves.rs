//! Composed moves between the paper's case-study objects (§5) at full
//! contention, in the two patterns the move-conformance matrix
//! (`tests/linearizability.rs`) only samples: elements bouncing between two
//! Treiber stacks (the ABA setup of §7) and movers racing direct consumers
//! for exactly-once delivery. Every other pairing is a matrix cell. A
//! release-only stress (`--ignored stress`) runs the benchmark's
//! move-only panel: two movers on one queue/stack pair, each to its quota.

use lfc_core::{move_one, MoveOutcome};
use lfc_structures::{MsQueue, TreiberStack};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

#[test]
#[ignore = "stress: run with --release -- --ignored stress"]
fn stress_two_movers_each_finish_their_quota() {
    // The move-only panel: two threads, one shared queue/stack pair, every
    // operation a `move_one` alternating direction. A failed commit pauses
    // once and then retries at once, so neither mover may starve: each
    // must finish its quota (a deadline turns starvation into a failure
    // instead of a hang), and every token must survive.
    const TOKENS: u64 = 1024;
    const QUOTA: u64 = 200_000;
    const DEADLINE: Duration = Duration::from_secs(120);
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    for t in 0..TOKENS {
        if t.is_multiple_of(2) {
            q.enqueue(t);
        } else {
            s.push(t);
        }
    }
    let done = [AtomicU64::new(0), AtomicU64::new(0)];
    let give_up = AtomicBool::new(false);
    std::thread::scope(|sc| {
        for (me, done) in done.iter().enumerate() {
            let (q, s, give_up) = (&q, &s, &give_up);
            sc.spawn(move || {
                for i in 0..QUOTA {
                    if give_up.load(Ordering::Relaxed) {
                        return;
                    }
                    let outcome = if (i + me as u64).is_multiple_of(2) {
                        move_one(q, s)
                    } else {
                        move_one(s, q)
                    };
                    assert!(
                        matches!(outcome, MoveOutcome::Moved | MoveOutcome::SourceEmpty),
                        "{outcome:?}"
                    );
                    done.store(i + 1, Ordering::Relaxed);
                }
            });
        }
        let start = Instant::now();
        while done.iter().any(|d| d.load(Ordering::Relaxed) < QUOTA) {
            if start.elapsed() > DEADLINE {
                give_up.store(true, Ordering::Relaxed);
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    let done = done.map(|d| d.into_inner());
    assert_eq!(
        done, [QUOTA; 2],
        "a mover did not finish its quota in {DEADLINE:?}"
    );
    let mut all: Vec<u64> = std::iter::from_fn(|| q.dequeue()).collect();
    all.extend(std::iter::from_fn(|| s.pop()));
    all.sort_unstable();
    assert_eq!(all, (0..TOKENS).collect::<Vec<u64>>());
}
