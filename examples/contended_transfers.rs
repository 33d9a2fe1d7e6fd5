//! Contended transfers through the batched front-end.
//!
//! Many threads hammer a small hot key-set, shuttling tokens between two
//! ledgers with composed keyed moves — every move submitted through a
//! [`BatchGate`], the claim-pattern group-commit front-end added in PR 7.
//! Under contention, one thread claims the whole request list and drives
//! the batch through the composition engine while the others wait on their
//! result words (or, past a patience bound, help and finally self-execute
//! — the lock-freedom escape hatch). Uncontended submits never touch the
//! claim list at all.
//!
//! Two express lanes (queues with one sealed token each) are exchanged by
//! a plain, unbatched `swap` now and then. When the music stops, every
//! token must exist exactly once — batching changed who *executes* a move,
//! never its atomicity.
//!
//! ```sh
//! cargo run --release --example contended_transfers
//! ```

use lockfree_compose::batch::{counters, decode_move};
use lockfree_compose::{swap, BatchGate, LfHashMap, MoveKeyedOp, MsQueue};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TOKENS: u64 = 32;
const HOT: u64 = 8; // most traffic lands on this many keys
const THREADS: usize = 6;
const RUN: Duration = Duration::from_millis(500);

fn main() {
    // Two ledgers; every token starts in A. Keyed moves between maps are
    // the paper's composed operation, here fronted by the batch gate.
    let a: LfHashMap<u64, u64> = LfHashMap::new();
    let b: LfHashMap<u64, u64> = LfHashMap::new();
    for t in 0..TOKENS {
        a.insert(t, t);
    }
    // Express lanes: one sealed token each, exchanged atomically.
    let q1: MsQueue<u64> = MsQueue::new();
    let q2: MsQueue<u64> = MsQueue::new();
    q1.enqueue(1_000);
    q2.enqueue(2_000);

    // One gate serves every keyed move, hot and cold, in both directions.
    type Ledger = LfHashMap<u64, u64>;
    let moves: BatchGate<MoveKeyedOp<'_, u64, u64, Ledger, Ledger>> = BatchGate::new();

    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|sc| {
        for t in 0..THREADS {
            let (a, b, q1, q2) = (&a, &b, &q1, &q2);
            let moves = &moves;
            let (stop, ops) = (&stop, &ops);
            sc.spawn(move || {
                let mut n = 0u64;
                let mut x = 0x9E3779B97F4A7C15u64 ^ (t as u64) << 32;
                while !stop.load(Ordering::Relaxed) {
                    // xorshift: cheap, thread-local, deterministic enough.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    match x >> 60 {
                        // An express-lane exchange: a plain, unbatched swap.
                        13..=15 => {
                            let _ = swap(q1, q2);
                        }
                        r => {
                            // Mostly the hot path, a keyed move on a
                            // contended key; cold keys spread some
                            // uncontended traffic.
                            let key = if (6..=9).contains(&r) {
                                HOT + x % (TOKENS - HOT)
                            } else {
                                x % HOT
                            };
                            let op = if x & (1 << 32) == 0 {
                                MoveKeyedOp::new(a, key, b)
                            } else {
                                MoveKeyedOp::new(b, key, a)
                            };
                            let _ = decode_move(moves.submit(op));
                        }
                    }
                    n += 1;
                }
                ops.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(RUN);
        stop.store(true, Ordering::Release);
    });
    let elapsed = t0.elapsed();

    // Conservation: every ledger token exists exactly once, value intact.
    for k in 0..TOKENS {
        let (in_a, in_b) = (a.get(&k), b.get(&k));
        assert!(
            matches!((in_a, in_b), (Some(v), None) | (None, Some(v)) if v == k),
            "token {k} torn: a={in_a:?} b={in_b:?}"
        );
    }
    // The sealed lane tokens survived every swap, exactly once each.
    let mut lane: Vec<u64> = std::iter::from_fn(|| q1.dequeue().or_else(|| q2.dequeue())).collect();
    lane.sort_unstable();
    assert_eq!(lane, vec![1_000, 2_000], "lane tokens torn by swap");

    let total = ops.load(Ordering::Relaxed);
    println!(
        "{} threads, {} hot keys: {} composed ops in {:.0?} ({:.0} ops/s)",
        THREADS,
        HOT,
        total,
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "gate traffic: {} direct, {} batched ({} batches drained, {} self-executed)",
        counters::direct_ops(),
        counters::batched_ops(),
        counters::batches_drained(),
        counters::self_execs()
    );
    println!("conservation check passed: every token exists exactly once");
}
