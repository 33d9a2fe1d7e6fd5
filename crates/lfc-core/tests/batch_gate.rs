//! Integration tests for the claim-pattern group-commit front-end (PR 7):
//! exactly-once execution, conservation under contention, adaptivity
//! plumbing, and outcome encoding.

use lfc_core::batch::{self, decode_move, decode_swap, encode_move, encode_swap};
use lfc_core::compose::SwapOutcome;
use lfc_core::{
    move_keyed, move_keyed_to_all, move_one, swap, BatchGate, BatchOp, MoveKeyedOp,
    MoveKeyedToAllOp, MoveOneOp, MoveOutcome, MoveSource, MoveTarget, SwapOp, MAX_ENTRIES,
};
use lfc_dcas::{DAtomic, Word};
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
    for o in [
        SwapOutcome::Swapped,
        SwapOutcome::FirstEmpty,
        SwapOutcome::SecondEmpty,
        SwapOutcome::Rejected,
        SwapOutcome::WouldAlias,
    ] {
        let w = encode_swap(o);
        assert_ne!(w, batch::FLAG_PENDING);
        assert_eq!(w & 0b111, 0);
        assert_eq!(decode_swap(w), o);
    }
}

#[test]
#[should_panic(expected = "not an encoded MoveOutcome")]
fn cross_decoding_panics() {
    let _ = decode_move(encode_swap(SwapOutcome::Swapped));
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
    let w = gate.submit(SwapOp::new(&q1, &q2));
    // swap removed 7 from q1 and 70 from q2, crossing them over; 8 was
    // already queued ahead of the swapped-in 70.
    assert_eq!(decode_swap(w), SwapOutcome::Swapped);
    assert_eq!(q1.dequeue(), Some(8));
    assert_eq!(q1.dequeue(), Some(70));
    assert_eq!(q2.dequeue(), Some(7));

    q1.enqueue(99);
    let move_gate = BatchGate::always_batched();
    let before = batch::counters::batched_ops();
    let w = move_gate.submit(MoveOneOp::new(&q1, &q2));
    assert_eq!(decode_move(w), MoveOutcome::Moved);
    assert_eq!(q2.dequeue(), Some(99));
    assert!(batch::counters::batched_ops() > before);
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

/// [`move_one_agrees`] for the `swap` shape.
fn swap_agrees<St, A, B>(
    prepare: impl Fn() -> St,
    pick: impl for<'s> Fn(&'s St) -> (&'s A, &'s B),
    expect: SwapOutcome,
) where
    A: MoveSource<u64> + MoveTarget<u64> + Sync,
    B: MoveSource<u64> + MoveTarget<u64> + Sync,
{
    let st = prepare();
    let (a, b) = pick(&st);
    assert_eq!(swap(a, b), expect);
    let st = prepare();
    let (a, b) = pick(&st);
    let w = SwapOp::new(a, b)
        .try_direct(3)
        .expect("uncontended: never starves");
    assert_eq!(decode_swap(w), expect);
    let st = prepare();
    let (a, b) = pick(&st);
    let flag = DAtomic::new(batch::FLAG_PENDING);
    let w = SwapOp::new(a, b)
        .run_flagged(&flag, 0)
        .expect("sole executor: resolves the flag");
    assert_eq!(decode_swap(w), expect);
    assert_eq!(flag.load_word(), w, "the flag holds the verdict");
    assert_eq!(SwapOp::new(a, b).run_flagged(&flag, 0), None);
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

/// [`move_one_agrees`] for the keyed fan-out: `move_keyed_to_all` and
/// `MoveKeyedToAllOp`'s direct and flagged runs report `expect`, and leave
/// the same state behind — all-or-nothing, so a rejection touches no
/// target.
fn keyed_fan_out_agrees(width: usize, src_has_key: bool, dup_in_last: bool, expect: MoveOutcome) {
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

    let (src, dsts) = fan(width, src_has_key, dup_in_last);
    let refs: Vec<&Map> = dsts.iter().collect();
    let op = MoveKeyedToAllOp::new(&src, 1u64, &refs);
    assert_eq!(op.try_direct(3).map(decode_move), Some(expect));
    check(&src, &dsts);

    let (src, dsts) = fan(width, src_has_key, dup_in_last);
    let refs: Vec<&Map> = dsts.iter().collect();
    let op = MoveKeyedToAllOp::new(&src, 1u64, &refs);
    let flag = DAtomic::new(batch::FLAG_PENDING);
    let w = op.run_flagged(&flag, 0);
    assert_eq!(w.map(decode_move), Some(expect));
    assert_eq!(Some(flag.load_word()), w, "the flag holds the verdict");
    assert_eq!(op.run_flagged(&flag, 0), None);
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

    // `swap`: all five `SwapOutcome` variants.
    swap_agrees(
        || (queue_of(&[1]), queue_of(&[2])),
        |(a, b)| (a, b),
        SwapOutcome::Swapped,
    );
    swap_agrees(
        || (queue_of(&[]), queue_of(&[2])),
        |(a, b)| (a, b),
        SwapOutcome::FirstEmpty,
    );
    swap_agrees(
        || (queue_of(&[1]), queue_of(&[])),
        |(a, b)| (a, b),
        SwapOutcome::SecondEmpty,
    );
    // The slot stays occupied until the commit, so inserting b's element
    // into it is permanently rejected.
    swap_agrees(
        || (slot_of(Some(1)), queue_of(&[2])),
        |(a, b)| (a, b),
        SwapOutcome::Rejected,
    );
    swap_agrees(|| queue_of(&[1, 2]), |q| (q, q), SwapOutcome::WouldAlias);

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

    // `move_keyed_to_all`: at one target and at the full batched width
    // (the flag entry takes the last commit slot).
    for width in [1, MAX_ENTRIES - 2] {
        keyed_fan_out_agrees(width, true, false, MoveOutcome::Moved);
        keyed_fan_out_agrees(width, false, false, MoveOutcome::SourceEmpty);
        keyed_fan_out_agrees(width, true, true, MoveOutcome::TargetRejected);
    }
}

/// A `MoveKeyedToAllOp` over `width` empty targets, run through `run`.
fn keyed_fan_out_op_at_width(
    width: usize,
    run: impl Fn(&MoveKeyedToAllOp<'_, u64, u64, Map, Map>) -> Option<Word>,
) {
    let (src, dsts) = fan(width, true, false);
    let refs: Vec<&Map> = dsts.iter().collect();
    let _ = run(&MoveKeyedToAllOp::new(&src, 1u64, &refs));
}

#[test]
#[should_panic(expected = "batched fan-out supports")]
fn batched_keyed_fan_out_refuses_zero_targets_direct() {
    keyed_fan_out_op_at_width(0, |op| op.try_direct(3));
}

#[test]
#[should_panic(expected = "batched fan-out supports")]
fn batched_keyed_fan_out_refuses_zero_targets_flagged() {
    let flag = DAtomic::new(batch::FLAG_PENDING);
    keyed_fan_out_op_at_width(0, |op| op.run_flagged(&flag, 0));
}

#[test]
#[should_panic(expected = "batched fan-out supports")]
fn batched_keyed_fan_out_refuses_max_entries_minus_one_targets_direct() {
    keyed_fan_out_op_at_width(MAX_ENTRIES - 1, |op| op.try_direct(3));
}

#[test]
#[should_panic(expected = "batched fan-out supports")]
fn batched_keyed_fan_out_refuses_max_entries_minus_one_targets_flagged() {
    let flag = DAtomic::new(batch::FLAG_PENDING);
    keyed_fan_out_op_at_width(MAX_ENTRIES - 1, |op| op.run_flagged(&flag, 0));
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
