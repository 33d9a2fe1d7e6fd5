//! Integration tests for the claim-pattern group-commit front-end (PR 7):
//! exactly-once execution, conservation under contention, adaptivity
//! plumbing, and outcome encoding.

use lfc_core::batch::{self, decode_move, encode_move};
use lfc_core::compose::SwapOutcome;
use lfc_core::{
    move_keyed, move_keyed_to_all, move_one, swap, BatchGate, BatchOp, MoveKeyedOp, MoveOneOp,
    MoveOutcome, MoveSource, MoveTarget, MAX_TARGETS,
};
use lfc_dcas::DAtomic;
use lfc_structures::{LfHashMap, MsQueue, OneSlot, TreiberStack};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

#[test]
fn encoding_round_trips_and_stays_raw() {
    for o in [
        MoveOutcome::Moved,
        MoveOutcome::SourceEmpty,
        MoveOutcome::TargetRejected,
        MoveOutcome::WouldAlias,
    ] {
        let w = encode_move(o);
        assert_ne!(w, batch::FLAG_PENDING);
        // Low three bits clear: kind bits say "raw word", user mark unset.
        assert_eq!(w & 0b111, 0);
        assert_eq!(decode_move(w), o);
    }
}

#[test]
#[should_panic(expected = "not an encoded MoveOutcome")]
fn cross_decoding_panics() {
    // The first code past the four move codes.
    let _ = decode_move(5 << 3);
}

#[test]
fn solo_submits_run_every_shape() {
    let a: LfHashMap<u64, String> = LfHashMap::new();
    let b: LfHashMap<u64, String> = LfHashMap::new();
    a.insert(1, "one".into());

    let gate = BatchGate::new();
    let w = gate.submit(MoveKeyedOp::new(&a, 1u64, &b));
    assert_eq!(decode_move(w), MoveOutcome::Moved);
    assert!(!a.contains(&1) && b.contains(&1));

    // Key now absent from the (new) source.
    let w = gate.submit(MoveKeyedOp::new(&a, 1u64, &b));
    assert_eq!(decode_move(w), MoveOutcome::SourceEmpty);

    // Duplicate key in the target rejects.
    a.insert(1, "again".into());
    let w = gate.submit(MoveKeyedOp::new(&a, 1u64, &b));
    assert_eq!(decode_move(w), MoveOutcome::TargetRejected);
    assert!(a.contains(&1) && b.contains(&1));
}

#[test]
fn batched_path_matches_direct_semantics() {
    // Forcing every submit through the claim list must not change any
    // outcome.
    let q1: MsQueue<u64> = MsQueue::new();
    let q2: MsQueue<u64> = MsQueue::new();
    q1.enqueue(7);
    q1.enqueue(8);
    q2.enqueue(70);

    let gate = BatchGate::always_batched();
    let before = batch::counters::batched_ops();
    for expect in [
        MoveOutcome::Moved,
        MoveOutcome::Moved,
        MoveOutcome::SourceEmpty,
    ] {
        let w = gate.submit(MoveOneOp::new(&q1, &q2));
        assert_eq!(decode_move(w), expect);
    }
    assert!(batch::counters::batched_ops() >= before + 3);
    // Both moved elements queue up behind the target's own, in order.
    assert_eq!(q2.dequeue(), Some(70));
    assert_eq!(q2.dequeue(), Some(7));
    assert_eq!(q2.dequeue(), Some(8));
}

/// Every entry point of the `move_one` shape on its own freshly prepared
/// state: the plain name, the budgeted direct attempt and the flagged
/// attempt (what `MoveOneOp`'s `BatchOp` impl forwards to) all
/// run one driver and must report `expect`.
fn move_one_agrees<St, S, D>(
    prepare: impl Fn() -> St,
    pick: impl for<'s> Fn(&'s St) -> (&'s S, &'s D),
    expect: MoveOutcome,
) where
    S: MoveSource<u64>,
    D: MoveTarget<u64>,
{
    let st = prepare();
    let (s, d) = pick(&st);
    assert_eq!(move_one(s, d), expect);
    let st = prepare();
    let (s, d) = pick(&st);
    let w = batch::direct_move_one(s, d, 3).expect("uncontended: never starves");
    assert_eq!(decode_move(w), expect);
    let st = prepare();
    let (s, d) = pick(&st);
    let flag = DAtomic::new(batch::FLAG_PENDING);
    let w = batch::flagged_move_one(s, d, &flag, 0).expect("sole executor: resolves the flag");
    assert_eq!(decode_move(w), expect);
    assert_eq!(flag.load_word(), w, "the flag holds the verdict");
    assert_eq!(
        batch::flagged_move_one(s, d, &flag, 0),
        None,
        "a resolved request never re-executes"
    );
}

type Map = LfHashMap<u64, u64>;

/// A keyed fan-out scenario on key 1: the source holds `1 → 10` iff
/// `src_has_key`; the last of `width` targets holds `1 → 11` iff
/// `dup_in_last`.
fn fan(width: usize, src_has_key: bool, dup_in_last: bool) -> (Map, Vec<Map>) {
    let src = Map::new();
    if src_has_key {
        src.insert(1, 10);
    }
    let dsts: Vec<Map> = (0..width).map(|_| Map::new()).collect();
    if dup_in_last {
        if let Some(last) = dsts.last() {
            last.insert(1, 11);
        }
    }
    (src, dsts)
}

/// The keyed fan-out (unbatched: `move_keyed_to_all`) reports `expect`
/// and leaves the matching state behind — all-or-nothing, so a rejection
/// touches no target.
fn keyed_fan_out_reports(width: usize, src_has_key: bool, dup_in_last: bool, expect: MoveOutcome) {
    let moved = expect == MoveOutcome::Moved;
    let check = |src: &Map, dsts: &[Map]| {
        let kept = src_has_key && !moved;
        assert_eq!(src.get(&1), kept.then_some(10), "source after {expect:?}");
        for (i, d) in dsts.iter().enumerate() {
            let want = if moved {
                Some(10)
            } else if dup_in_last && i + 1 == width {
                Some(11)
            } else {
                None
            };
            assert_eq!(d.get(&1), want, "target {i} of {width} after {expect:?}");
        }
    };

    let (src, dsts) = fan(width, src_has_key, dup_in_last);
    let refs: Vec<&Map> = dsts.iter().collect();
    assert_eq!(move_keyed_to_all(&src, &1, &refs), expect);
    check(&src, &dsts);
}

fn queue_of(items: &[u64]) -> MsQueue<u64> {
    let q = MsQueue::new();
    for &v in items {
        q.enqueue(v);
    }
    q
}

fn slot_of(item: Option<u64>) -> OneSlot<u64> {
    let s = OneSlot::new();
    if let Some(v) = item {
        assert!(s.put(v));
    }
    s
}

#[test]
fn every_entry_point_of_a_shape_reports_the_same_verdict() {
    // `move_one`: all four `MoveOutcome` variants.
    move_one_agrees(
        || (queue_of(&[1]), queue_of(&[])),
        |(s, d)| (s, d),
        MoveOutcome::Moved,
    );
    move_one_agrees(
        || (queue_of(&[]), queue_of(&[2])),
        |(s, d)| (s, d),
        MoveOutcome::SourceEmpty,
    );
    move_one_agrees(
        || (queue_of(&[1]), slot_of(Some(2))),
        |(s, d)| (s, d),
        MoveOutcome::TargetRejected,
    );
    // A stack's push and pop linearize on the same `top` word.
    move_one_agrees(
        || {
            let s = TreiberStack::new();
            s.push(1u64);
            s
        },
        |s| (s, s),
        MoveOutcome::WouldAlias,
    );

    // `swap` (unbatched): all five `SwapOutcome` variants.
    let (a, b) = (queue_of(&[1]), queue_of(&[2]));
    assert_eq!(swap(&a, &b), SwapOutcome::Swapped);
    let (a, b) = (queue_of(&[]), queue_of(&[2]));
    assert_eq!(swap(&a, &b), SwapOutcome::FirstEmpty);
    let (a, b) = (queue_of(&[1]), queue_of(&[]));
    assert_eq!(swap(&a, &b), SwapOutcome::SecondEmpty);
    // The slot stays occupied until the commit, so inserting b's element
    // into it is permanently rejected.
    let (a, b) = (slot_of(Some(1)), queue_of(&[2]));
    assert_eq!(swap(&a, &b), SwapOutcome::Rejected);
    let q = queue_of(&[1, 2]);
    assert_eq!(swap(&q, &q), SwapOutcome::WouldAlias);

    // The keyed shape maps through the same `move_verdict`; spot-check the
    // variant only keyed targets produce organically (duplicate key).
    let (a, b): (LfHashMap<u64, u64>, LfHashMap<u64, u64>) = (LfHashMap::new(), LfHashMap::new());
    a.insert(1, 10);
    b.insert(1, 11);
    let flag = DAtomic::new(batch::FLAG_PENDING);
    let rejected = MoveOutcome::TargetRejected;
    assert_eq!(move_keyed(&a, &1, &b), rejected);
    let op = MoveKeyedOp::new(&a, 1u64, &b);
    assert_eq!(op.try_direct(3).map(decode_move), Some(rejected));
    assert_eq!(op.run_flagged(&flag, 0).map(decode_move), Some(rejected));
    assert_eq!((a.get(&1), b.get(&1)), (Some(10), Some(11)));

    // `move_keyed_to_all`: at one target and at its full width.
    for width in [1, MAX_TARGETS] {
        keyed_fan_out_reports(width, true, false, MoveOutcome::Moved);
        keyed_fan_out_reports(width, false, false, MoveOutcome::SourceEmpty);
        keyed_fan_out_reports(width, true, true, MoveOutcome::TargetRejected);
    }
}

#[test]
fn contended_moves_conserve_elements() {
    // Threads shuttle tokens between two queues through one gate; every
    // submit executes exactly once, so the token count is conserved and
    // per-thread move tallies add up.
    const THREADS: usize = 4;
    const OPS: usize = 300;
    const TOKENS: u64 = 8;

    let a: MsQueue<u64> = MsQueue::new();
    let b: MsQueue<u64> = MsQueue::new();
    for t in 0..TOKENS {
        a.enqueue(t);
    }
    let gate: BatchGate<MoveOneOp<'_, u64, MsQueue<u64>, MsQueue<u64>>> =
        BatchGate::always_batched();
    let barrier = Barrier::new(THREADS);
    let moved = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for i in 0..THREADS {
            let (a, b, gate, barrier, moved) = (&a, &b, &gate, &barrier, &moved);
            s.spawn(move || {
                barrier.wait();
                for k in 0..OPS {
                    let (src, dst): (&MsQueue<u64>, &MsQueue<u64>) =
                        if (i + k) % 2 == 0 { (a, b) } else { (b, a) };
                    match decode_move(gate.submit(MoveOneOp::new(src, dst))) {
                        MoveOutcome::Moved => {
                            moved.fetch_add(1, Ordering::Relaxed);
                        }
                        MoveOutcome::SourceEmpty => {}
                        o => panic!("unexpected outcome {o:?}"),
                    }
                }
            });
        }
    });

    let mut count = 0;
    while a.dequeue().is_some() || b.dequeue().is_some() {
        count += 1;
    }
    assert_eq!(count, TOKENS as usize, "tokens created or destroyed");
    assert!(moved.load(Ordering::Relaxed) > 0);
}

#[test]
fn adaptive_gate_stays_direct_when_uncontended() {
    let a: LfHashMap<u64, u64> = LfHashMap::new();
    let b: LfHashMap<u64, u64> = LfHashMap::new();
    let gate = BatchGate::new();
    let direct_before = batch::counters::direct_ops();
    for k in 0..50u64 {
        a.insert(k, k);
        let w = gate.submit(MoveKeyedOp::new(&a, k, &b));
        assert_eq!(decode_move(w), MoveOutcome::Moved);
    }
    // Solo: every submit should have completed on the direct path.
    assert!(batch::counters::direct_ops() >= direct_before + 50);
}
