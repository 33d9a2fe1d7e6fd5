//! Bounded-exhaustive model checking of the real structures: small
//! scenarios explored over *every* schedule within the preemption bound,
//! driving the full production stack (composition engine, DCAS helping,
//! epoch reclamation, solo fast path) through the virtual-atomics facade.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
#![cfg(lfc_model)]

use lfc_core::{move_keyed, move_one, swap, MoveOutcome, SwapOutcome};
use lfc_linear::{check_linearizable, render_history, Cont, PairOp, PairSpec, Recorder};
use lfc_model::{explore, ExploreOpts, MemoryMode};
use lfc_structures::{LfHashMap, MsQueue, OneSlot, TreiberStack};
use std::sync::Arc;

fn opts(bound: u32) -> ExploreOpts {
    ExploreOpts {
        preemption_bound: bound,
        step_budget: 100_000,
        max_executions: 40_000,
        memory: MemoryMode::Interleaving,
    }
}

#[test]
fn dfs_queue_enqueue_dequeue_conserves() {
    // One producer, one consumer, every interleaving within two
    // preemptions: the element is consumed exactly once (by the consumer
    // or by the root's drain), never duplicated, never lost.
    let report = explore(opts(2), || {
        let q = Arc::new(MsQueue::<u32>::new());
        let q1 = q.clone();
        let producer = lfc_model::thread::spawn(move || {
            q1.enqueue(7);
        });
        let q2 = q.clone();
        let consumer = lfc_model::thread::spawn(move || {
            let _ = q2.dequeue();
        });
        producer.join();
        consumer.join();
        let leftover = q.dequeue();
        assert!(leftover == Some(7) || leftover.is_none());
        assert_eq!(q.dequeue(), None, "element must not duplicate");
    });
    report.assert_ok();
    assert!(report.executions > 1, "scenario must actually branch");
}

#[test]
fn dfs_one_slot_admits_exactly_one_winner() {
    let report = explore(opts(2), || {
        let s = Arc::new(OneSlot::<u32>::new());
        let (s1, s2) = (s.clone(), s.clone());
        let a = lfc_model::thread::spawn(move || {
            let _ = s1.put(1);
        });
        let b = lfc_model::thread::spawn(move || {
            let _ = s2.put(2);
        });
        a.join();
        b.join();
        let v = s.take().expect("exactly one put wins");
        assert!(v == 1 || v == 2);
        assert_eq!(s.take(), None, "the loser must not have landed");
    });
    report.assert_ok();
}

#[test]
fn dfs_move_one_has_a_unified_linearization_point() {
    // The paper's core claim under exhaustive interleaving: while a
    // composed move is in flight, a concurrent observer never catches the
    // element absent from both containers (or present in both). The
    // recorded histories of every explored schedule must satisfy the
    // composed pair spec in which the move is ONE action.
    let spec = PairSpec {
        a: Cont::Fifo,
        b: Cont::Lifo,
    };
    let report = explore(opts(1), move || {
        let q = Arc::new(MsQueue::<u32>::new());
        let s = Arc::new(TreiberStack::<u32>::new());
        let rec = Arc::new(Recorder::<PairOp>::new());
        rec.record(|| {
            q.enqueue(42);
            PairOp::InsA(42)
        });
        let (q1, s1, r1) = (q.clone(), s.clone(), rec.clone());
        let mover = lfc_model::thread::spawn(move || {
            r1.record(|| PairOp::MoveAB(move_one(&*q1, &*s1) == MoveOutcome::Moved));
        });
        let (q2, s2, r2) = (q.clone(), s.clone(), rec.clone());
        let observer = lfc_model::thread::spawn(move || {
            r2.record(|| PairOp::RemB(s2.pop()));
            r2.record(|| PairOp::RemA(q2.dequeue()));
        });
        mover.join();
        observer.join();
        let rec = Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
        let h = rec.finish();
        assert!(
            check_linearizable(&spec, &h).is_linearizable(),
            "torn move observed:\n{}",
            render_history(&h)
        );
    });
    report.assert_ok();
    assert!(report.executions > 10, "move machinery must branch");
}

#[test]
fn dfs_solo_fast_path_vs_concurrent_registration_weak() {
    // The uncontended fast path runs two raw CASes inside a solo section
    // guarded by an asymmetric SeqCst Dekker (`lfc-runtime::solo`). Under
    // the weak memory mode the model explores stale-read SC placements:
    // the handshake must still never let a freshly registering thread
    // observe the torn two-word state — observable here as the moved
    // element being in neither or both containers.
    let report = explore(
        ExploreOpts {
            preemption_bound: 1,
            step_budget: 100_000,
            max_executions: 40_000,
            memory: MemoryMode::Weak,
        },
        || {
            let q = Arc::new(MsQueue::<u32>::new());
            let s = Arc::new(TreiberStack::<u32>::new());
            q.enqueue(9);
            let (q1, s1) = (q.clone(), s.clone());
            let registrant = lfc_model::thread::spawn(move || {
                // Registration is the only lfc activity: it must either
                // wait out the solo section or force the mover onto the
                // descriptor path — in both cases the post-state is moved.
                lfc_runtime::current_tid();
                let popped = s1.pop();
                if let Some(v) = popped {
                    assert_eq!(v, 9);
                    assert_eq!(q1.dequeue(), None, "duplicated by solo window");
                    s1.push(v);
                }
            });
            let outcome = move_one(&*q, &*s);
            assert_eq!(outcome, MoveOutcome::Moved);
            registrant.join();
            assert_eq!(s.pop(), Some(9), "element landed exactly once");
            assert_eq!(q.dequeue(), None);
        },
    );
    report.assert_ok();
}

/// One preemption is enough to park a composition between its source
/// capture and a deeper stage's obstacle while a rival runs whole. The race
/// needs no stale read, so interleaving memory suffices (and keeps both
/// searches to seconds).
fn verdict_opts() -> ExploreOpts {
    ExploreOpts {
        preemption_bound: 1,
        step_budget: 200_000,
        max_executions: 400_000,
        memory: MemoryMode::Interleaving,
    }
}

#[test]
fn dfs_duplicate_verdict_vs_rival_move() {
    // Two movers race the same key from `a` to `b`. The key is never in
    // both maps, so `TargetRejected` ("b already holds it while a does")
    // is never a correct answer. The schedule that tempts it: one mover
    // captures `a`'s word, is preempted, the rival moves the key, and the
    // first mover's insert then finds the key in `b`. Its captured source
    // word is stale by then, so the verdict must become a retry, which
    // finds `a` empty.
    let report = explore(verdict_opts(), || {
        let a = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
        let b = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
        assert!(a.insert(3, 30));
        // Keeps both movers off the solo fast path for the whole run.
        let _g = lfc_hazard::pin();
        let movers: Vec<_> = (0..2)
            .map(|_| {
                let (a, b) = (a.clone(), b.clone());
                lfc_model::thread::spawn(move || {
                    let out = move_keyed(&*a, &3, &*b);
                    assert!(
                        matches!(out, MoveOutcome::Moved | MoveOutcome::SourceEmpty),
                        "the key was never in both maps, yet a mover reported {out:?}"
                    );
                })
            })
            .collect();
        for m in movers {
            m.join();
        }
        assert_eq!(a.get(&3), None);
        assert_eq!(b.get(&3), Some(30), "the key moved exactly once");
    });
    report.assert_ok();
    assert!(report.executions > 10, "scenario must actually branch");
}

#[test]
fn dfs_second_empty_verdict_vs_rival_drain() {
    // `swap(a, b)` against a rival that drains `a` and then `b` into `c`.
    // No instant has `a` non-empty and `b` empty, so `SecondEmpty` is never
    // a correct answer. The schedule that tempts it: the swap captures
    // `a`'s head, is preempted, the rival drains both, and the swap's inner
    // remove then finds `b` empty with its capture of `a` stale.
    let report = explore(verdict_opts(), || {
        let a = Arc::new(MsQueue::<u32>::new());
        let b = Arc::new(MsQueue::<u32>::new());
        let c = Arc::new(MsQueue::<u32>::new());
        a.enqueue(1);
        b.enqueue(2);
        let _g = lfc_hazard::pin();
        let (a1, b1) = (a.clone(), b.clone());
        let swapper = lfc_model::thread::spawn(move || {
            let out = swap(&*a1, &*b1);
            assert!(
                matches!(out, SwapOutcome::Swapped | SwapOutcome::FirstEmpty),
                "a was never non-empty with b empty, yet the swap reported {out:?}"
            );
        });
        let (a2, b2, c2) = (a.clone(), b.clone(), c.clone());
        let drainer = lfc_model::thread::spawn(move || {
            let _ = move_one(&*a2, &*c2);
            let _ = move_one(&*b2, &*c2);
        });
        swapper.join();
        drainer.join();
        assert_eq!((a.dequeue(), b.dequeue()), (None, None));
        let mut drained = [c.dequeue(), c.dequeue()];
        drained.sort();
        assert_eq!(drained, [Some(1), Some(2)], "both tokens end in c once");
    });
    report.assert_ok();
    assert!(report.executions > 10, "scenario must actually branch");
}
