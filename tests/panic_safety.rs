//! Panic-safety audit (PR 8, satellite 2): a user-code panic that unwinds
//! out of a composed operation must leave the global protocol state
//! *helpable* — no dangling descriptor claim, no stuck hazard slot, no
//! poisoned object — so that every later operation (same thread or any
//! other) completes normally and conservation still holds.
//!
//! The organic panic source in this crate's API surface is `T::clone`:
//! removes clone the element before their linearization point (paper
//! requirement 4) and multi-target moves clone once per target. The drop
//! paths under audit are `OpGuard` (epoch unpin), the engine's `Drop`
//! (clears `ENTRY*` hazard promotions when the composition never
//! finished), and the descriptor handles (retire-on-drop). Panics injected
//! *between descriptor publication and decision* are the abandonment
//! subsystem's territory (`lfc_runtime::fault`) and are covered by the
//! crash-adversary and model-kill suites.
//!
//! The other panic source is the infallible API itself: every infallible
//! composed name is its `try_` twin with `Err(AllocError)` routed to a
//! panic, so a refused commit descriptor unwinds out of `move_one` —
//! before publication, with nothing changed.

use lockfree_compose::fault::{arm_site, disarm, fired_total, with_registered_peer, Schedule};
use lockfree_compose::{move_one, Composition, LfHashMap, MoveOutcome, MsQueue, TreiberStack};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Serializes the tests in this binary: they share the panic-arming
/// statics below and the process-global fault registry.
static SERIAL: Mutex<()> = Mutex::new(());

static ARMED: AtomicBool = AtomicBool::new(false);

/// A value whose `Clone` panics while [`ARMED`] — the clone site sits on
/// the remove path *before* the linearization point, so an armed move must
/// unwind without having changed either object.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Bomb(u64);

impl Clone for Bomb {
    fn clone(&self) -> Self {
        if ARMED.load(Ordering::Relaxed) {
            panic!("injected clone panic");
        }
        Bomb(self.0)
    }
}

#[test]
fn unwind_mid_move_leaves_both_objects_usable() {
    let _serial = SERIAL.lock().unwrap();
    const N: u64 = 16;
    let q: MsQueue<Bomb> = MsQueue::new();
    let s: TreiberStack<Bomb> = TreiberStack::new();
    for i in 0..N {
        q.enqueue(Bomb(i)); // enqueue moves, no clone
    }

    ARMED.store(true, Ordering::Relaxed);
    let r = catch_unwind(AssertUnwindSafe(|| move_one(&q, &s)));
    ARMED.store(false, Ordering::Relaxed);
    assert!(r.is_err(), "armed clone must panic out of the move");

    // The panic fired before the remove's linearization point: nothing
    // moved, nothing was lost, and — the audit target — the unwound
    // thread's guards were released, so the same thread immediately
    // composes again.
    for _ in 0..N {
        assert_eq!(move_one(&q, &s), MoveOutcome::Moved);
    }
    assert_eq!(move_one(&q, &s), MoveOutcome::SourceEmpty);

    // Conservation: every token exists exactly once, on the stack.
    let mut all: Vec<u64> = std::iter::from_fn(|| s.pop().map(|b| b.0)).collect();
    all.sort_unstable();
    assert_eq!(all, (0..N).collect::<Vec<u64>>());
}

#[test]
fn refused_descriptor_unwinds_the_infallible_move_cleanly() {
    let _serial = SERIAL.lock().unwrap();
    disarm();
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    q.enqueue(7);

    // Outside the solo regime (which allocates no descriptor) the K=2
    // commit passes the `dcas.desc` site — through `move_one` exactly as
    // through `try_move_one`.
    with_registered_peer(|| {
        arm_site("dcas.desc", Schedule::Always);
        let r = catch_unwind(AssertUnwindSafe(|| move_one(&q, &s)));
        let fired = fired_total();
        disarm();
        assert!(
            r.is_err(),
            "a refused descriptor panics the infallible name"
        );
        assert!(fired >= 1, "the panic came from the injection");

        // The refusal precedes publication: both objects are untouched and
        // the unwound engine released every protection it had promoted.
        assert!(s.is_empty());
        let tid = lockfree_compose::hazard::pin().tid();
        assert!(lockfree_compose::hazard::bank_is_clear(tid));

        // Disarmed, the very same call succeeds (still on the published
        // path: the peer is registered).
        assert_eq!(move_one(&q, &s), MoveOutcome::Moved);
        assert_eq!(s.pop(), Some(7));
        assert_eq!(move_one(&q, &s), MoveOutcome::SourceEmpty);
    });
}

#[test]
fn other_threads_are_unaffected_by_an_unwound_peer() {
    let _serial = SERIAL.lock().unwrap();
    const N: u64 = 64;
    let q: MsQueue<Bomb> = MsQueue::new();
    let s: TreiberStack<Bomb> = TreiberStack::new();
    for i in 0..N {
        q.enqueue(Bomb(i));
    }

    // A dedicated thread panics out of a move (several times, to stress
    // repeated unwinds from the same thread's re-used guards/engine), then
    // survivor threads drain the whole queue through composed moves.
    std::thread::scope(|sc| {
        let (q, s) = (&q, &s);
        sc.spawn(move || {
            for _ in 0..8 {
                ARMED.store(true, Ordering::Relaxed);
                let r = catch_unwind(AssertUnwindSafe(|| move_one(q, s)));
                ARMED.store(false, Ordering::Relaxed);
                assert!(r.is_err());
            }
        })
        .join()
        .expect("the panics are caught inside the closure");
        for _ in 0..2 {
            sc.spawn(move || {
                while move_one(q, s) == MoveOutcome::Moved {
                    std::hint::spin_loop();
                }
            });
        }
    });

    let mut all: Vec<u64> = std::iter::from_fn(|| s.pop().map(|b| b.0)).collect();
    all.sort_unstable();
    assert_eq!(
        all,
        (0..N).collect::<Vec<u64>>(),
        "conservation after unwinds"
    );
}

#[test]
fn unwind_mid_builder_composition_is_clean() {
    let _serial = SERIAL.lock().unwrap();
    let m: LfHashMap<u64, Bomb> = LfHashMap::new();
    let q: MsQueue<Bomb> = MsQueue::new();
    let log: MsQueue<Bomb> = MsQueue::new();
    assert!(m.insert(1, Bomb(10)));

    // A three-stage composition (keyed remove fanned into two queues): the
    // second target's clone panics, unwinding through the builder run with
    // stage captures already taken — the engine `Drop` must clear its
    // `ENTRY*` promotions so reclamation is not wedged afterwards.
    ARMED.store(true, Ordering::Relaxed);
    let r = catch_unwind(AssertUnwindSafe(|| {
        Composition::moving_key_from(&m, &1)
            .into_target(&q)
            .into_target(&log)
            .run()
    }));
    ARMED.store(false, Ordering::Relaxed);
    assert!(r.is_err());

    // Nothing committed, nothing leaked protection: the same composition
    // now succeeds, and the element lands in every target.
    let outcome = Composition::moving_key_from(&m, &1)
        .into_target(&q)
        .into_target(&log)
        .run();
    assert_eq!(outcome, MoveOutcome::Moved);
    assert!(!m.contains(&1));
    assert_eq!(q.dequeue(), Some(Bomb(10)));
    assert_eq!(log.dequeue(), Some(Bomb(10)));

    // The unwound attempt pinned epochs and promoted ENTRY hazards; had
    // any survived the unwind, this flush could never reclaim the nodes
    // retired above. Drive the domain and require forward progress.
    let before = lockfree_compose::hazard::pending_retired();
    for _ in 0..64 {
        lockfree_compose::hazard::flush();
        if lockfree_compose::hazard::pending_retired() < before || before == 0 {
            break;
        }
        std::thread::yield_now();
    }
}
