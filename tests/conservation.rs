//! Cross-crate stress: element conservation across every move-ready
//! structure under concurrent mixed traffic, plus allocator leak checks.

use lockfree_compose::{
    batch, move_keyed, move_one, BatchGate, LfHashMap, MoveKeyedOp, MoveOutcome, MsQueue, OneSlot,
    StampedStack, TreiberStack,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

#[test]
fn four_way_topology_conserves_every_token() {
    // queue -> stack -> stamped-stack -> slot -> queue ring, with movers on
    // every edge plus direct producers/consumers. Each token is a unique
    // u64; at the end every token must exist exactly once somewhere.
    const TOKENS: u64 = 300;
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    let z: StampedStack<u64> = StampedStack::new();
    let slot: OneSlot<u64> = OneSlot::new();
    for i in 0..TOKENS {
        q.enqueue(i);
    }

    std::thread::scope(|sc| {
        let (q, s, z, slot) = (&q, &s, &z, &slot);
        for round in 0..4u64 {
            sc.spawn(move || {
                let mut x = round * 7 + 3;
                for _ in 0..8_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    match x % 8 {
                        0 => drop(move_one(q, s)),
                        1 => drop(move_one(s, z)),
                        2 => drop(move_one(z, slot)),
                        3 => drop(move_one(slot, q)),
                        4 => drop(move_one(s, q)),
                        5 => drop(move_one(z, s)),
                        6 => drop(move_one(q, slot)),
                        _ => drop(move_one(slot, z)),
                    }
                }
            });
        }
    });

    let mut all: Vec<u64> = Vec::new();
    while let Some(v) = q.dequeue() {
        all.push(v);
    }
    while let Some(v) = s.pop() {
        all.push(v);
    }
    while let Some(v) = z.pop() {
        all.push(v);
    }
    if let Some(v) = slot.take() {
        all.push(v);
    }
    all.sort_unstable();
    assert_eq!(all, (0..TOKENS).collect::<Vec<u64>>());
}

#[test]
fn clone_heavy_values_survive_moves() {
    // String values: exercises real Clone + Drop through nodes and moves.
    let q: MsQueue<String> = MsQueue::new();
    let s: TreiberStack<String> = TreiberStack::new();
    for i in 0..100 {
        q.enqueue(format!("value-{i:04}"));
    }
    std::thread::scope(|sc| {
        let (q, s) = (&q, &s);
        for _ in 0..2 {
            sc.spawn(move || {
                for _ in 0..200 {
                    let _ = move_one(q, s);
                    let _ = move_one(s, q);
                }
            });
        }
    });
    let mut got = HashSet::new();
    while let Some(v) = q.dequeue() {
        assert!(got.insert(v));
    }
    while let Some(v) = s.pop() {
        assert!(got.insert(v));
    }
    assert_eq!(got.len(), 100);
    for i in 0..100 {
        assert!(got.contains(&format!("value-{i:04}")));
    }
}

#[test]
fn move_outcomes_are_accurate_under_contention() {
    // Count Moved outcomes and verify they exactly explain the final
    // distribution of elements.
    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    const N: u64 = 500;
    for i in 0..N {
        a.enqueue(i);
    }
    let ab = std::sync::atomic::AtomicI64::new(0);
    std::thread::scope(|sc| {
        let (a, b, ab) = (&a, &b, &ab);
        for dir in 0..2 {
            sc.spawn(move || {
                for _ in 0..4_000 {
                    if dir == 0 {
                        if move_one(a, b) == MoveOutcome::Moved {
                            ab.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    } else if move_one(b, a) == MoveOutcome::Moved {
                        ab.fetch_add(-1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let net = ab.load(std::sync::atomic::Ordering::Relaxed);
    let in_b = b.count() as i64;
    assert_eq!(net, in_b, "net a->b moves must equal b's population");
    assert_eq!(a.count() as i64 + in_b, N as i64);
}

#[test]
fn no_unbounded_block_leak_across_churn() {
    let before = lockfree_compose::alloc_stats::outstanding();
    for round in 0..20 {
        let q: MsQueue<u64> = MsQueue::new();
        let s: TreiberStack<u64> = TreiberStack::new();
        std::thread::scope(|sc| {
            let (q, s) = (&q, &s);
            for t in 0..3u64 {
                sc.spawn(move || {
                    for i in 0..500 {
                        q.enqueue(round * 10_000 + t * 1_000 + i);
                        let _ = move_one(q, s);
                        let _ = s.pop();
                    }
                });
            }
        });
    }
    // Flush until the retire backlog drains: records adopted from exited
    // workers may need several scans (sibling tests' operation epochs can
    // pin them). A *leak* is what never drains.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut after = lockfree_compose::alloc_stats::outstanding();
    while after > before + 2_000 && std::time::Instant::now() < deadline {
        lockfree_compose::hazard::flush();
        std::thread::yield_now();
        after = lockfree_compose::alloc_stats::outstanding();
    }
    assert!(
        after <= before + 2_000,
        "outstanding blocks {before} -> {after}: churn must not leak"
    );
}

#[test]
fn mixed_object_kinds_in_one_program() {
    // The API promise: any MoveSource into any MoveTarget.
    let q: MsQueue<u64> = MsQueue::new();
    let t: TreiberStack<u64> = TreiberStack::new();
    let z: StampedStack<u64> = StampedStack::new();
    let o: OneSlot<u64> = OneSlot::new();
    q.enqueue(1);
    assert_eq!(move_one(&q, &t), MoveOutcome::Moved);
    assert_eq!(move_one(&t, &z), MoveOutcome::Moved);
    assert_eq!(move_one(&z, &o), MoveOutcome::Moved);
    assert_eq!(move_one(&o, &q), MoveOutcome::Moved);
    assert_eq!(q.dequeue(), Some(1));
}

#[test]
fn abort_storm_never_corrupts() {
    // Movers push against a mostly-full bounded slot: the move abort path
    // (paper step 2, "if the insertion fails ... the move is aborted") runs
    // thousands of times interleaved with successes; accounting must stay
    // exact throughout.
    const TOKENS: u64 = 50;
    let q: MsQueue<u64> = MsQueue::new();
    let slot: OneSlot<u64> = OneSlot::new();
    let sink: MsQueue<u64> = MsQueue::new();
    for i in 0..TOKENS {
        q.enqueue(i);
    }
    let aborted = std::sync::atomic::AtomicUsize::new(0);
    let drained = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|sc| {
        let (q, slot, sink, aborted, drained) = (&q, &slot, &sink, &aborted, &drained);
        // Occupier: keeps the slot full half the time with its own token.
        // The yields matter on single-core hosts: without them the slot is
        // only ever empty *inside* another thread's timeslice, and movers
        // can succeed only on a lucky preemption.
        sc.spawn(move || {
            while drained.load(std::sync::atomic::Ordering::Relaxed) < TOKENS as usize {
                if slot.put(u64::MAX) {
                    std::thread::yield_now();
                    while slot.peek() == Some(u64::MAX) {
                        if slot.take() == Some(u64::MAX) {
                            break;
                        }
                    }
                }
                std::thread::yield_now();
            }
        });
        // Movers: queue -> slot (often rejected).
        for _ in 0..2 {
            sc.spawn(move || {
                while drained.load(std::sync::atomic::Ordering::Relaxed) < TOKENS as usize {
                    if move_one(q, slot) == MoveOutcome::TargetRejected {
                        aborted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Drainer: slot -> sink (ignoring the occupier's marker).
        sc.spawn(move || {
            while drained.load(std::sync::atomic::Ordering::Relaxed) < TOKENS as usize {
                match slot.take() {
                    Some(v) if v == u64::MAX => {
                        let _ = slot.put(v); // give the marker back
                        std::thread::yield_now();
                    }
                    Some(v) => {
                        sink.enqueue(v);
                        drained.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
    });
    let mut got: Vec<u64> = std::iter::from_fn(|| sink.dequeue()).collect();
    got.sort_unstable();
    assert_eq!(
        got,
        (0..TOKENS).collect::<Vec<u64>>(),
        "every token exactly once"
    );
    assert!(
        aborted.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "the abort path was actually exercised"
    );
}

#[test]
fn oversubscribed_churn_stays_inside_the_garbage_budget() {
    // One more worker than cores shuttles Zipf-hot keys between two maps
    // for ~80 ms — half the workers through a batch gate, half directly —
    // sampling the retired-bytes gauge. A preempted worker must never let
    // garbage pile up past the stall-policy budget, where the ejection
    // ladder takes over.
    const KEYS: u64 = 32;
    type Map = LfHashMap<u64, u64>;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
    // Zipf (s = 0.99) CDF over key ranks: rank 0 is the hottest key.
    let mut cdf: Vec<f64> = (1..=KEYS)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / (k as f64).powf(0.99);
            Some(*acc)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    cdf.iter_mut().for_each(|p| *p /= total);

    let a: Map = LfHashMap::new();
    let b: Map = LfHashMap::new();
    for k in 0..KEYS {
        a.insert(k, k);
    }
    let gate: BatchGate<MoveKeyedOp<'_, u64, u64, Map, Map>> = BatchGate::new();
    let stop = AtomicBool::new(false);
    let hwm = AtomicUsize::new(0);
    let ops: Vec<usize> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let (a, b, gate, cdf, stop, hwm) = (&a, &b, &gate, &cdf, &stop, &hwm);
                sc.spawn(move || {
                    let mut x = 0x5E0C ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut n = 0;
                    while !stop.load(Ordering::Acquire) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let r = (x >> 11) as f64 / (1u64 << 53) as f64;
                        let key = cdf.partition_point(|&p| p < r).min(KEYS as usize - 1) as u64;
                        let (src, dst) = if x & 1 == 0 { (a, b) } else { (b, a) };
                        if t % 2 == 0 {
                            let _ = move_keyed(src, &key, dst);
                        } else {
                            let _ =
                                batch::decode_move(gate.submit(MoveKeyedOp::new(src, key, dst)));
                        }
                        n += 1;
                        if n % 64 == 0 {
                            hwm.fetch_max(lfc_hazard::retired_bytes(), Ordering::Relaxed);
                        }
                    }
                    n
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(80));
        stop.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(
        ops.iter().all(|&n| n > 0),
        "a worker was starved outright: {ops:?}"
    );
    for k in 0..KEYS {
        assert!(
            a.get(&k).is_some() != b.get(&k).is_some(),
            "key {k} must live in exactly one map"
        );
    }
    let budget = lfc_hazard::stall_policy().max_retired_bytes;
    let hwm = hwm.load(Ordering::Relaxed);
    assert!(
        hwm < budget,
        "retired high-water {hwm} exceeded the stall-policy budget {budget}"
    );
}
