//! Empirical linearizability: record *real* concurrent histories of
//! inserts, removes and composed moves on the paper's case-study objects,
//! then verify them against the composed sequential specification in which
//! a move is a single atomic action.
//!
//! This is the strongest correctness evidence in the suite: it checks the
//! exact property Figure 1d claims — the unified linearization point.
//!
//! The binary also hosts the move-conformance matrix, the paper's
//! composability claim (§3–§4) as one table: every source × target pair of
//! the seven move-ready objects, for `move_one`, `swap` and `move_to_all`,
//! must agree with the sequential spec on one thread, conserve every token
//! across threads and forced epoch advances, and produce linearizable
//! recorded histories. The suite itself lives in `conformance/suite.rs`;
//! the verdict table it renders is kept in `tests/README.md`.

#[path = "conformance/suite.rs"]
mod suite;

use lfc_runtime::SmallRng;
use lockfree_compose::adopt::adopt_dead_threads;
use lockfree_compose::alloc_stats::outstanding;
use lockfree_compose::fault;
use lockfree_compose::linear::{check_linearizable, render_history, Cont, PairOp, Recorder};
use lockfree_compose::{move_one, swap, MoveOutcome, SwapOutcome};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use suite::{
    check_cell, conserve, loaded, pair, recorded, sequential, trio, Kind, Pair, Run, Shape,
    Subject, Torn, KEY, KINDS,
};

/// Fault schedules are process-wide and the kill column arms one, so it
/// runs alone; every other test of this binary shares the guard.
/// Poisoning is ignored so one failure reports as one.
static SERIAL: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    SERIAL.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    let guard = SERIAL.write().unwrap_or_else(PoisonError::into_inner);
    fault::disarm();
    guard
}

/// Rounds of the conformance suite's history check on one cell: `threads`
/// threads of `ops` random operations each, then the drain. `seed` is
/// `(base, stride)`: round `r` seeds thread `t` with `base + r * stride + t`.
fn histories<R: Run>(
    build: impl Fn() -> R,
    rounds: u64,
    threads: usize,
    ops: usize,
    seed: (u64, u64),
) {
    let _serial = shared();
    for round in 0..rounds {
        if let Err(e) = recorded(&build(), threads, ops, seed.0 + round * seed.1) {
            panic!("round {round}: {e}");
        }
    }
}

#[test]
fn recorded_queue_stack_histories_are_linearizable() {
    // Inserts, removes and moves in both directions on (queue, stack).
    // Small per-thread op counts keep the exhaustive checker fast; 30
    // rounds with genuine concurrency are the informative ones.
    histories(
        || pair(Kind::Queue, Kind::Stack, Shape::MoveOne, false),
        30,
        3,
        8,
        (0xA5EED, 1),
    );
}

#[test]
fn recorded_move_only_histories_are_linearizable() {
    let _serial = shared();
    // Movers only, both directions, plus observers removing: the scenario
    // where a torn move would surface as an impossible outcome pattern.
    // Dice 4 / 5 move A → B / B → A, dice 2 / 3 remove from A / B.
    for round in 0..30u32 {
        let run = pair(Kind::Queue, Kind::Stack, Shape::MoveOne, false);
        let rec = Recorder::new();
        // Seed one element per side so moves have work.
        rec.record(|| run.step(0, 100 + round));
        rec.record(|| run.step(1, 200 + round));
        std::thread::scope(|sc| {
            for dice in [[4, 5], [4, 5], [2, 3]] {
                let (run, rec) = (&run, &rec);
                sc.spawn(move || {
                    for d in [dice; 3].concat() {
                        rec.record(|| run.step(d, 0));
                    }
                });
            }
        });
        let h = rec.finish();
        assert!(
            check_linearizable(&run.spec(), &h).is_linearizable(),
            "round {round}: move-only history not linearizable:\n{}",
            render_history(&h)
        );
    }
}

#[test]
fn recorded_swap_histories_are_linearizable() {
    // Queue/queue swaps racing inserts, removes and moves: the swap's four
    // linearization points must appear as ONE action in every explaining
    // sequential history.
    histories(
        || pair(Kind::Queue, Kind::Queue, Shape::Swap, false),
        30,
        3,
        8,
        (0x5A4B, 17),
    );
}

#[test]
fn recorded_broadcast_histories_are_linearizable() {
    // move_to_all with two targets under the trio spec: an observer must
    // never catch the element in a strict subset of the targets.
    histories(
        || trio(Kind::Queue, Kind::Queue, false),
        30,
        3,
        8,
        (0xB40A, 13),
    );
}

#[test]
fn recorded_keyed_map_list_histories_are_linearizable() {
    let _serial = shared();
    // The §1.1 scenario under the checker: concurrent keyed inserts,
    // removes and moves between a hash map (A) and a sorted list (B),
    // verified against a spec in which the keyed move is one atomic action.
    use lockfree_compose::linear::{KeyedMoveResult, KeyedPairOp, KeyedPairSpec};
    use lockfree_compose::{move_keyed, LfHashMap, OrderedSet};

    fn mv_result(o: MoveOutcome) -> KeyedMoveResult {
        match o {
            MoveOutcome::Moved => KeyedMoveResult::Moved,
            MoveOutcome::SourceEmpty => KeyedMoveResult::Absent,
            MoveOutcome::TargetRejected => KeyedMoveResult::Duplicate,
            MoveOutcome::WouldAlias => unreachable!("distinct containers"),
        }
    }

    for round in 0..30u64 {
        let map: LfHashMap<u32, u32> = LfHashMap::with_buckets(4);
        let list: OrderedSet<u32, u32> = OrderedSet::new();
        let rec: Recorder<KeyedPairOp> = Recorder::new();
        std::thread::scope(|sc| {
            for t in 0..3u64 {
                let (map, list, rec) = (&map, &list, &rec);
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x6EED + round * 31 + t);
                    for _ in 0..8 {
                        // Small key space so operations genuinely conflict.
                        let k = rng.below(4) as u32;
                        match rng.below(6) {
                            0 => {
                                rec.record(|| KeyedPairOp::InsA(k, map.insert(k, k)));
                            }
                            1 => {
                                rec.record(|| KeyedPairOp::InsB(k, list.insert(k, k)));
                            }
                            2 => {
                                rec.record(|| KeyedPairOp::RemA(k, map.remove(&k).is_some()));
                            }
                            3 => {
                                rec.record(|| KeyedPairOp::RemB(k, list.remove(&k).is_some()));
                            }
                            4 => {
                                rec.record(|| {
                                    KeyedPairOp::MoveAB(k, mv_result(move_keyed(map, &k, list)))
                                });
                            }
                            _ => {
                                rec.record(|| {
                                    KeyedPairOp::MoveBA(k, mv_result(move_keyed(list, &k, map)))
                                });
                            }
                        }
                    }
                });
            }
        });
        let h = rec.finish();
        let verdict = check_linearizable(&KeyedPairSpec, &h);
        assert!(
            verdict.is_linearizable(),
            "round {round}: keyed history not linearizable:\n{}",
            render_history(&h)
        );
    }
}

#[test]
fn recorded_hash_map_histories_are_linearizable() {
    let _serial = shared();
    // LfHashMap alone under its own sequential spec: concurrent
    // insert-if-absent, remove and get on a tiny key space, small bucket
    // count so keys collide inside one ordered bucket list.
    use lockfree_compose::linear::{MapOp, MapSpec};
    use lockfree_compose::LfHashMap;

    for round in 0..30u64 {
        let map: LfHashMap<u32, u32> = LfHashMap::with_buckets(2);
        let rec: Recorder<MapOp> = Recorder::new();
        std::thread::scope(|sc| {
            for t in 0..3u64 {
                let (map, rec) = (&map, &rec);
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x4A5B + round * 29 + t);
                    for i in 0..8u32 {
                        let k = rng.below(4) as u32;
                        match rng.below(4) {
                            0 | 1 => {
                                let v = (t as u32) * 100 + i;
                                rec.record(|| MapOp::Insert(k, v, map.insert(k, v)));
                            }
                            2 => {
                                rec.record(|| MapOp::Remove(k, map.remove(&k)));
                            }
                            _ => {
                                rec.record(|| MapOp::Get(k, map.get(&k)));
                            }
                        }
                    }
                });
            }
        });
        let h = rec.finish();
        let verdict = check_linearizable(&MapSpec, &h);
        assert!(
            verdict.is_linearizable(),
            "round {round}: hash-map history not linearizable:\n{}",
            render_history(&h)
        );
    }
}

#[test]
fn recorded_map_histories_across_resize_are_linearizable() {
    let _serial = shared();
    // The PR 5 acceptance history: MapSpec semantics must be unchanged
    // while the split-ordered directory doubles mid-history. Two threads
    // churn a tiny key space (conflicts inside one chain before growth,
    // across split chains after) while a third floods fresh keys and
    // forces doublings, so every round's history crosses at least one
    // resize boundary.
    use lockfree_compose::linear::{MapOp, MapSpec};
    use lockfree_compose::LfHashMap;

    for round in 0..20u64 {
        let map: LfHashMap<u32, u32> = LfHashMap::with_buckets(1);
        let rec: Recorder<MapOp> = Recorder::new();
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let (map, rec) = (&map, &rec);
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x5E51 + round * 37 + t);
                    for i in 0..8u32 {
                        let k = rng.below(4) as u32;
                        match rng.below(4) {
                            0 | 1 => {
                                let v = (t as u32) * 100 + i;
                                rec.record(|| MapOp::Insert(k, v, map.insert(k, v)));
                            }
                            2 => {
                                rec.record(|| MapOp::Remove(k, map.remove(&k)));
                            }
                            _ => {
                                rec.record(|| MapOp::Get(k, map.get(&k)));
                            }
                        }
                    }
                });
            }
            let (map, rec) = (&map, &rec);
            sc.spawn(move || {
                for i in 0..16u32 {
                    let k = 1_000 + i; // disjoint from the churn key space
                    rec.record(|| MapOp::Insert(k, k, map.insert(k, k)));
                    if i % 4 == 0 {
                        map.force_grow();
                    }
                }
            });
        });
        assert!(
            map.capacity() > 1,
            "round {round}: the history must cross a resize boundary"
        );
        let h = rec.finish();
        let verdict = check_linearizable(&MapSpec, &h);
        assert!(
            verdict.is_linearizable(),
            "round {round}: map history across resize not linearizable:\n{}",
            render_history(&h)
        );
    }
}

#[test]
fn recorded_one_slot_histories_are_linearizable() {
    let _serial = shared();
    // OneSlot under its own spec: the bounded container whose rejected
    // puts must still linearize at a moment the slot is observably full.
    use lockfree_compose::linear::{SlotOp, SlotSpec};
    use lockfree_compose::OneSlot;

    for round in 0..30u64 {
        let slot: OneSlot<u32> = OneSlot::new();
        let rec: Recorder<SlotOp> = Recorder::new();
        std::thread::scope(|sc| {
            for t in 0..3u64 {
                let (slot, rec) = (&slot, &rec);
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x5107 + round * 23 + t);
                    for i in 0..8u32 {
                        match rng.below(3) {
                            0 => {
                                let v = (t as u32) * 100 + i + 1;
                                rec.record(|| SlotOp::Put(v, slot.put(v)));
                            }
                            1 => {
                                rec.record(|| SlotOp::Take(slot.take()));
                            }
                            _ => {
                                rec.record(|| SlotOp::Peek(slot.peek()));
                            }
                        }
                    }
                });
            }
        });
        let h = rec.finish();
        let verdict = check_linearizable(&SlotSpec, &h);
        assert!(
            verdict.is_linearizable(),
            "round {round}: one-slot history not linearizable:\n{}",
            render_history(&h)
        );
    }
}

#[test]
fn recorded_stamped_stack_histories_are_linearizable() {
    let _serial = shared();
    // StampedStack is a LIFO stack whose top carries a version stamp; the
    // stamp must be invisible in the history: plain StackSpec semantics,
    // including under composed moves onto a queue.
    use lockfree_compose::linear::{StackOp, StackSpec};
    use lockfree_compose::StampedStack;

    for round in 0..30u64 {
        let s: StampedStack<u32> = StampedStack::new();
        let rec: Recorder<StackOp> = Recorder::new();
        std::thread::scope(|sc| {
            for t in 0..3u64 {
                let (s, rec) = (&s, &rec);
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x57A4 + round * 19 + t);
                    for i in 0..8u32 {
                        if rng.below(2) == 0 {
                            let v = (t as u32) * 100 + i + 1;
                            rec.record(|| {
                                s.push(v);
                                StackOp::Push(v)
                            });
                        } else {
                            rec.record(|| StackOp::Pop(s.pop()));
                        }
                    }
                });
            }
        });
        let h = rec.finish();
        let verdict = check_linearizable(&StackSpec, &h);
        assert!(
            verdict.is_linearizable(),
            "round {round}: stamped-stack history not linearizable:\n{}",
            render_history(&h)
        );
    }
}

#[test]
fn recorded_stamped_move_histories_are_linearizable() {
    // Composed moves between a StampedStack (A, LIFO) and an MsQueue (B,
    // FIFO): the stamp packing must not break the unified linearization
    // point.
    histories(
        || pair(Kind::Stamped, Kind::Queue, Shape::MoveOne, false),
        20,
        3,
        8,
        (0x57A5, 37),
    );
}

#[test]
fn recorded_skip_map_histories_are_linearizable() {
    let _serial = shared();
    // LfSkipMap under MapSpec: concurrent insert-if-absent, remove and get
    // on a tiny key space so every operation contends inside one level-0
    // chain — with tower builds and unlinks racing throughout. The tower
    // CASes are auxiliary; only the level-0 protocol word may decide
    // outcomes, which is exactly what the checker verifies.
    use lockfree_compose::linear::{MapOp, MapSpec};
    use lockfree_compose::LfSkipMap;

    for round in 0..30u64 {
        let map: LfSkipMap<u32, u32> = LfSkipMap::new();
        let rec: Recorder<MapOp> = Recorder::new();
        std::thread::scope(|sc| {
            for t in 0..3u64 {
                let (map, rec) = (&map, &rec);
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x5C1F + round * 41 + t);
                    for i in 0..8u32 {
                        let k = rng.below(4) as u32;
                        match rng.below(4) {
                            0 | 1 => {
                                let v = (t as u32) * 100 + i;
                                rec.record(|| MapOp::Insert(k, v, map.insert(k, v)));
                            }
                            2 => {
                                rec.record(|| MapOp::Remove(k, map.remove(&k)));
                            }
                            _ => {
                                rec.record(|| MapOp::Get(k, map.get(&k)));
                            }
                        }
                    }
                });
            }
        });
        let h = rec.finish();
        let verdict = check_linearizable(&MapSpec, &h);
        assert!(
            verdict.is_linearizable(),
            "round {round}: skip-map history not linearizable:\n{}",
            render_history(&h)
        );
    }
}

#[test]
fn recorded_skip_map_range_entries_linearize_per_key() {
    let _serial = shared();
    // The documented `range` contract made checkable: a range is NOT a
    // consistent cut, but each reported (or omitted) in-bound key is an
    // individually linearizable presence observation somewhere inside the
    // range call's interval. Each range over the probe window is therefore
    // recorded as one Get entry per probe key — present keys with their
    // observed value, absent keys as Get(k, None) — all sharing the range
    // call's [invoke, ret] interval, and the whole history must linearize
    // under MapSpec. A range that resurrected a dead key, missed a stable
    // one, or returned a torn value would be caught here.
    use lockfree_compose::linear::{MapOp, MapSpec};
    use lockfree_compose::LfSkipMap;

    const PROBE_KEYS: u32 = 4;
    for round in 0..20u64 {
        let map: LfSkipMap<u32, u32> = LfSkipMap::new();
        let rec: Recorder<MapOp> = Recorder::new();
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let (map, rec) = (&map, &rec);
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xA5C1 + round * 53 + t);
                    for i in 0..10u32 {
                        let k = rng.below(PROBE_KEYS as u64) as u32;
                        match rng.below(3) {
                            0 | 1 => {
                                let v = (t as u32) * 100 + i;
                                rec.record(|| MapOp::Insert(k, v, map.insert(k, v)));
                            }
                            _ => {
                                rec.record(|| MapOp::Remove(k, map.remove(&k)));
                            }
                        }
                    }
                });
            }
            let (map, rec) = (&map, &rec);
            sc.spawn(move || {
                for _ in 0..10 {
                    let invoke = rec.now();
                    let snap = map.range(0..PROBE_KEYS);
                    let ret = rec.now();
                    // Sortedness is part of the contract regardless of
                    // concurrency.
                    for w in snap.windows(2) {
                        assert!(w[0].0 < w[1].0, "range must be strictly ascending");
                    }
                    for k in 0..PROBE_KEYS {
                        let seen = snap.iter().find(|(sk, _)| *sk == k).map(|(_, v)| *v);
                        rec.push(MapOp::Get(k, seen), invoke, ret);
                    }
                }
            });
        });
        let h = rec.finish();
        let verdict = check_linearizable(&MapSpec, &h);
        assert!(
            verdict.is_linearizable(),
            "round {round}: per-entry range observations not linearizable:\n{}",
            render_history(&h)
        );
    }
}

/// Every cell of `shape`, each failure named by its cell.
fn matrix(shape: Shape) {
    let _serial = shared();
    let mut failed = Vec::new();
    for (i, &src) in KINDS.iter().enumerate() {
        for (j, &dst) in KINDS.iter().enumerate() {
            if let Err(e) = check_cell(src, dst, shape, (i * 7 + j) as u64) {
                failed.push(format!("{} -> {}: {e}", src.name(), dst.name()));
            }
        }
    }
    assert!(failed.is_empty(), "{shape:?}:\n{}", failed.join("\n"));
}

#[test]
fn move_one_matrix() {
    matrix(Shape::MoveOne);
}

#[test]
fn swap_matrix() {
    matrix(Shape::Swap);
}

#[test]
fn move_to_all_matrix() {
    matrix(Shape::MoveToAll);
}

/// The diagonal the matrix leaves out: an object composed with itself.
/// A move rotates an unbounded object whose insert and remove linearize on
/// distinct words, aliases on one word, and is refused by a full bounded
/// object; a swap's second remove always aliases its first.
#[test]
fn self_compositions_alias_or_refuse() {
    let _serial = shared();
    for kind in KINDS {
        let run = pair(kind, kind, Shape::MoveOne, false);
        let (x, bounded) = (&run.a, run.a.cont() == Cont::Bounded1);
        run.step(0, 1);
        run.step(0, 2);
        let (want, left) = match (bounded, x.one_word()) {
            (true, _) => (MoveOutcome::TargetRejected, vec![1]),
            (false, true) => (MoveOutcome::WouldAlias, vec![2, 1]),
            // A FIFO rotation: 1 went from the head to the tail.
            (false, false) => (MoveOutcome::Moved, vec![2, 1]),
        };
        assert_eq!(move_one(x, x), want, "{}", kind.name());
        assert_eq!(swap(x, x), SwapOutcome::WouldAlias, "{}", kind.name());
        let drained: Vec<_> = run
            .drain()
            .into_iter()
            .filter_map(|op| match op {
                PairOp::RemA(v) => v,
                _ => None,
            })
            .collect();
        assert_eq!(drained, left, "{}", kind.name());
    }
}

const BEGIN: &str = "<!-- conformance matrix: generated by tests/linearizability.rs -->\n";
const END: &str = "<!-- end of conformance matrix -->\n";

/// The loaded-state verdict of every cell, as markdown tables.
fn render() -> String {
    let mut out = String::from(BEGIN);
    for (shape, title) in [
        (Shape::MoveOne, "move_one(src, dst)"),
        (Shape::Swap, "swap(src, dst)"),
        (Shape::MoveToAll, "move_to_all(src, [dst, dst'])"),
    ] {
        out += &format!("\n| `{title}` |");
        for dst in KINDS {
            out += &format!(" {} |", dst.name());
        }
        out += &format!("\n|---|{}\n", "---|".repeat(KINDS.len()));
        for src in KINDS {
            out += &format!("| {} |", src.name());
            for dst in KINDS {
                let v = loaded(src, dst, shape).unwrap_or_else(|e| panic!("{src:?}/{dst:?}: {e}"));
                out += &format!(" {v} |");
            }
            out += "\n";
        }
    }
    out + "\n" + END
}

#[test]
fn the_matrix_in_the_readme_is_current() {
    let _serial = shared();
    let table = render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/README.md");
    let readme = std::fs::read_to_string(path).unwrap();
    let kept = readme
        .split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END))
        .map(|(body, _)| format!("{BEGIN}{body}{END}"));
    assert_eq!(
        kept.as_deref(),
        Some(table.as_str()),
        "tests/README.md must carry this block verbatim:\n{table}"
    );
}

/// Kill column: the `move_one` row once more with threads dying at
/// `dcas.published`, their half-done commits left for survivors. After
/// adoption every token must exist exactly once.
#[test]
fn kill_column_move_one_conserves_every_token() {
    let _serial = exclusive();
    fault::install_quiet_abandon_hook();
    // The checking thread adopts; it must never be reaped itself.
    fault::shield_thread(true);
    let fired0 = fault::fired_total();
    fault::arm_site(fault::site::DCAS_PUBLISHED, fault::Schedule::EveryNth(7));
    let failed: Vec<String> = fault::with_registered_peer(|| {
        let g = lockfree_compose::hazard::pin();
        let mut failed = Vec::new();
        for src in KINDS {
            for dst in KINDS {
                let run = pair(src, dst, Shape::MoveOne, true);
                let mut log: Vec<_> = (0..4).map(|i| run.step(0, 1000 + i)).collect();
                std::thread::scope(|sc| {
                    let victims: Vec<_> = (0..2u64)
                        .map(|t| {
                            let run = &run;
                            sc.spawn(move || {
                                let (mut moves, mut dice) = (0, t);
                                for _ in 0..4 {
                                    fault::abandonment_scope(|| {
                                        while moves < 60 {
                                            run.step(4 + dice % 2, 0);
                                            (moves, dice) = (moves + 1, dice + 1);
                                        }
                                    });
                                }
                            })
                        })
                        .collect();
                    victims.into_iter().for_each(|v| v.join().unwrap());
                });
                let t0 = std::time::Instant::now();
                while fault::corpse_count() > 0 && t0.elapsed().as_secs() < 10 {
                    adopt_dead_threads(&g);
                    std::thread::yield_now();
                }
                log.extend(run.drain());
                if let Err(e) = run.conserved(&log) {
                    failed.push(format!("{} -> {}: {e}", src.name(), dst.name()));
                }
            }
        }
        failed
    });
    let fired = fault::fired_total() - fired0;
    fault::disarm();
    fault::shield_thread(false);
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    assert_eq!(fault::corpse_count(), 0, "every corpse adopted");
    assert!(
        fired > 0,
        "the kill column never killed: the site stayed disengaged"
    );
}

/// Teeth: a source whose remove commits before the composition's capture
/// (two linearization points instead of one) loses the element whenever a
/// full target refuses it. The sequential and conservation checks must
/// both reject it, while the honest cell passes.
#[test]
fn a_torn_linearization_point_is_caught() {
    let _serial = shared();
    let torn = || Pair {
        a: Torn(Kind::Queue.fresh(KEY)),
        b: Kind::Slot.fresh(KEY),
        shape: Shape::MoveOne,
    };
    assert!(sequential(&torn(), 1, 200).is_err(), "sequential check");
    assert!(conserve(&torn(), 2, 200, 1).is_err(), "conservation check");
    check_cell(Kind::Queue, Kind::Slot, Shape::MoveOne, 1).unwrap();
}

/// The release-mode stress variant (`--ignored stress`): every cell of
/// every shape under many more operations and three threads, while the
/// checking thread forces epoch advances and reclamation scans. Once the
/// objects are dropped and the domain flushed, every block the churn
/// retired must be back: `outstanding()` returns to its start.
#[test]
#[ignore = "stress: run with --release -- --ignored stress"]
fn stress_matrix_conserves_under_forced_epoch_advances() {
    let _serial = shared();
    let blocks0 = outstanding();
    for (i, src) in KINDS.into_iter().enumerate() {
        for dst in KINDS {
            let seed = i as u64;
            for shape in [Shape::MoveOne, Shape::Swap] {
                conserve(&pair(src, dst, shape, true), 3, 10_000, seed).unwrap();
            }
            conserve(&trio(src, dst, true), 3, 10_000, seed).unwrap();
        }
    }
    for _ in 0..64 {
        lockfree_compose::hazard::flush();
    }
    // Per-thread magazines may keep a few blocks cached.
    assert!(
        outstanding() <= blocks0 + 64,
        "{blocks0} -> {}",
        outstanding()
    );
}
