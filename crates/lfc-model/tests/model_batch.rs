//! Bounded-exhaustive model checking of the PR 7 contention-adaptation
//! machinery: the claim-pattern batch gate's combiner handoff and the
//! Treiber stack's elimination exchanger.
//!
//! The gate's model build shrinks its waiting windows (`SPIN_ROUNDS = 0`,
//! `SELF_EXEC_ROUNDS = 1`), so every waiter immediately helps and then
//! self-executes — the schedules where a stalled combiner's batch is
//! re-claimed are reached within a small preemption bound.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
//! The seeded-bug and forced-elimination scenarios flip process-global
//! toggles, so the file serializes itself through a mutex.
#![cfg(lfc_model)]

use lfc_core::batch::decode_move;
use lfc_core::{BatchGate, MoveOneOp, MoveOutcome};
use lfc_linear::{check_linearizable, render_history, Cont, PairOp, PairSpec, Recorder};
use lfc_model::{explore, ExploreOpts, MemoryMode};
use lfc_structures::{MsQueue, TreiberStack};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the scenarios in this file (they flip process-global
/// toggles) and restores every toggle on drop, even on panic.
struct Toggles {
    _lock: MutexGuard<'static, ()>,
}

impl Toggles {
    fn take() -> Toggles {
        static LOCK: Mutex<()> = Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        Toggles { _lock: lock }
    }
}

impl Drop for Toggles {
    fn drop(&mut self) {
        lfc_core::model_toggles::SKIP_FLAG_ENTRY.store(false, Ordering::SeqCst);
        lfc_structures::model_toggles::FORCE_ELIM.store(false, Ordering::SeqCst);
    }
}

fn opts(bound: u32) -> ExploreOpts {
    ExploreOpts {
        preemption_bound: bound,
        step_budget: 200_000,
        max_executions: 60_000,
        memory: MemoryMode::Interleaving,
    }
}

/// A composed move between two borrowed queues, as a gate request.
type QueueMove = MoveOneOp<'static, u32, MsQueue<u32>, MsQueue<u32>>;

/// Two threads submit composed moves through one `always_batched` gate:
/// whichever thread claims the batch may be preempted mid-drain, and the
/// other must re-claim and finish — with each request committing exactly
/// once. Conservation and exactly-once are checked in the root after both
/// submits return.
fn batched_move_scenario() {
    let a = Arc::new(MsQueue::<u32>::new());
    let b = Arc::new(MsQueue::<u32>::new());
    for v in [1, 2, 3] {
        a.enqueue(v);
    }
    // The request type borrows the queues; the Arcs outlive both worker
    // joins below, so promoting the borrows is sound.
    let (ar, br): (&'static MsQueue<u32>, &'static MsQueue<u32>) =
        unsafe { (&*Arc::as_ptr(&a), &*Arc::as_ptr(&b)) };
    let gate: Arc<BatchGate<QueueMove>> = Arc::new(BatchGate::always_batched());
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let gate = gate.clone();
            lfc_model::thread::spawn(move || {
                let got = decode_move(gate.submit(MoveOneOp::new(ar, br)));
                assert_eq!(got, MoveOutcome::Moved, "three elements were staged");
            })
        })
        .collect();
    for w in workers {
        w.join();
    }
    // Exactly two elements moved (one per request — a re-claimed batch
    // must not double-commit), and nothing was lost or duplicated.
    let mut b_vals = Vec::new();
    while let Some(v) = b.dequeue() {
        b_vals.push(v);
    }
    let mut rest = Vec::new();
    while let Some(v) = a.dequeue() {
        rest.push(v);
    }
    assert_eq!(b_vals.len(), 2, "each submit moves exactly one element");
    let mut all = b_vals;
    all.extend(rest);
    all.sort_unstable();
    assert_eq!(all, vec![1, 2, 3], "moves conserve the elements");
}

#[test]
fn dfs_combiner_handoff_commits_each_request_once() {
    let _t = Toggles::take();
    let report = explore(opts(1), batched_move_scenario);
    report.assert_ok();
    assert!(report.executions > 10, "gate machinery must branch");
}

#[test]
fn dfs_seeded_handoff_bug_double_commits_and_is_caught() {
    // Seeded bug: commit batched requests WITHOUT the result-flag CASN
    // entry and publish the flag by a separate CAS afterwards. A combiner
    // preempted in that window leaves its request PENDING-but-committed;
    // the re-claiming drainer runs it again, and the scenario's
    // exactly-once assertion must observe the duplicate under some
    // schedule. This pins the flag entry as load-bearing: if the checker
    // ever stops catching this toggle, the handoff scenario has lost its
    // teeth.
    let _t = Toggles::take();
    lfc_core::model_toggles::SKIP_FLAG_ENTRY.store(true, Ordering::SeqCst);
    let report = explore(opts(1), batched_move_scenario);
    assert!(
        report.failure.is_some(),
        "naive handoff must double-commit in some schedule"
    );
}

#[test]
fn dfs_elimination_exchange_is_linearizable() {
    // A pusher and two pops race on one stack with the exchanger forced
    // in front of the `top` CAS, so claim/withdraw/claim-lost races are
    // explored directly. Every recorded history must linearize against a
    // LIFO spec, and the element must surface exactly once.
    let _t = Toggles::take();
    lfc_structures::model_toggles::FORCE_ELIM.store(true, Ordering::SeqCst);
    // B is the unused side of the pair spec.
    let spec = PairSpec::new(Cont::Lifo, Cont::Fifo);
    let report = explore(opts(2), move || {
        let s = Arc::new(TreiberStack::<u32>::new());
        let rec = Arc::new(Recorder::<PairOp>::new());
        let (s1, r1) = (s.clone(), rec.clone());
        let pusher = lfc_model::thread::spawn(move || {
            r1.record(|| {
                s1.push(7);
                PairOp::InsA(7)
            });
        });
        let (s2, r2) = (s.clone(), rec.clone());
        let popper = lfc_model::thread::spawn(move || {
            r2.record(|| PairOp::RemA(s2.pop()));
        });
        pusher.join();
        popper.join();
        rec.record(|| PairOp::RemA(s.pop()));
        let rec = Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
        let h = rec.finish();
        assert!(
            check_linearizable(&spec, &h).is_linearizable(),
            "elimination broke LIFO:\n{}",
            render_history(&h)
        );
    });
    report.assert_ok();
    assert!(report.executions > 10, "exchanger must branch");
}
