//! The linearizability fuzzer: seeded random mixed workloads
//! (push/pop/insert/remove/move/swap/move_to_all across structure pairs)
//! executed under the model scheduler, with every recorded history fed to
//! the `lfc-linear` Wing–Gong checker. A non-linearizable history (or any
//! model-detected failure: use-after-free, deadlock, panic) is shrunk to a
//! minimal schedule and reported with its seed, replayable tape and
//! per-thread timelines.
//!
//! Budget knobs (for the nightly CI job):
//! * `LFC_FUZZ_SEEDS`  — workload plans per family (default 4)
//! * `LFC_FUZZ_EXECS`  — random schedules per plan (default 20)
//! * `LFC_FUZZ_SEED`   — base seed (default 0xF0CC; nightly passes a fresh one)
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
#![cfg(lfc_model)]

use lfc_core::{
    move_keyed, move_one, move_to_all, swap, MoveOutcome, MoveSource, MoveTarget, SwapOutcome,
};
use lfc_linear::{
    check_linearizable, render_history, Cont, KeyedMoveResult, KeyedPairOp, KeyedPairSpec, PairOp,
    PairSpec, Recorder, Spec, SwapResult, TrioOp, TrioSpec,
};
use lfc_model::{explore_random, FuzzOpts, MemoryMode};
use lfc_runtime::SmallRng;
use lfc_structures::{LfHashMap, MsQueue, OneSlot, StampedStack, TreiberStack};
use std::sync::Arc;

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let t = v.trim();
            let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => t.parse().ok(),
            };
            // Never fall back silently: a typo'd seed would "reproduce"
            // nothing while looking like it ran.
            parsed.unwrap_or_else(|| panic!("{name} must be a u64 (decimal or 0x-hex), got {v:?}"))
        }
        Err(_) => default,
    }
}

fn budget() -> (u64, u64, u64) {
    (
        env_u64("LFC_FUZZ_SEEDS", 4),
        env_u64("LFC_FUZZ_EXECS", 20),
        env_u64("LFC_FUZZ_SEED", 0xF0CC),
    )
}

/// One fuzz family: workload `w` of the budget draws its per-thread plans
/// from the first seed of `seeds(base, w)` and explores schedules from the
/// second. Every execution builds fresh objects, runs each plan on its own
/// model thread through `run` (which performs one operation and returns
/// the op-with-outcome to record, or `None` to leave it unrecorded), and
/// checks the history against `spec`.
fn fuzz_family<S, P, O, R>(
    name: &str,
    spec: S,
    seeds: fn(u64, u64) -> (u64, u64),
    draw: impl Fn(&mut SmallRng) -> Vec<Vec<P>>,
    build: impl Fn() -> O,
    run: R,
) where
    S: Spec,
    S::Op: std::fmt::Debug + Send + 'static,
    P: Copy + Send + 'static,
    O: Send + Sync + 'static,
    R: Fn(&O, P) -> Option<S::Op> + Copy + Send + 'static,
{
    let (workloads, execs, base) = budget();
    for w in 0..workloads {
        let (plan_seed, schedule_seed) = seeds(base, w);
        let plans = draw(&mut SmallRng::seed_from_u64(plan_seed));
        let opts = FuzzOpts {
            seed: schedule_seed,
            executions: execs,
            step_budget: 200_000,
            memory: MemoryMode::Interleaving,
        };
        let report = explore_random(opts, || {
            let objs = Arc::new(build());
            let rec = Arc::new(Recorder::new());
            let handles: Vec<_> = plans
                .iter()
                .cloned()
                .map(|ops| {
                    let (objs, rec) = (objs.clone(), rec.clone());
                    lfc_model::thread::spawn(move || {
                        for op in ops {
                            let invoke = rec.now();
                            if let Some(done) = run(&objs, op) {
                                rec.push(done, invoke, rec.now());
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            let rec = Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
            let h = rec.finish();
            assert!(
                check_linearizable(&spec, &h).is_linearizable(),
                "non-linearizable {name} history:\n{}",
                render_history(&h)
            );
        });
        if let Some(f) = &report.failure {
            panic!("fuzz family {name}, workload {w} (re-run with LFC_FUZZ_SEED={base}): {f}");
        }
    }
}

/// One planned operation on a pair of unkeyed containers.
#[derive(Clone, Copy, Debug)]
enum PlanOp {
    InsA(u32),
    InsB(u32),
    RemA,
    RemB,
    MoveAB,
    MoveBA,
    Swap,
}

/// Deterministic per-thread operation plans. Values are statically unique
/// per (thread, index) so histories never alias.
fn make_plan(rng: &mut SmallRng, threads: usize, ops: usize, with_swap: bool) -> Vec<Vec<PlanOp>> {
    (0..threads)
        .map(|t| {
            (0..ops)
                .map(|i| {
                    let v = (t as u32 + 1) * 100 + i as u32;
                    match rng.below(if with_swap { 7 } else { 6 }) {
                        0 => PlanOp::InsA(v),
                        1 => PlanOp::InsB(v),
                        2 => PlanOp::RemA,
                        3 => PlanOp::RemB,
                        4 => PlanOp::MoveAB,
                        5 => PlanOp::MoveBA,
                        _ => PlanOp::Swap,
                    }
                })
                .collect()
        })
        .collect()
}

/// A composed move as the pair spec records it: `full` when the target
/// refused the element.
fn move_op(o: MoveOutcome, ok: fn(bool) -> PairOp, full: PairOp) -> PairOp {
    match o {
        MoveOutcome::Moved => ok(true),
        MoveOutcome::SourceEmpty => ok(false),
        MoveOutcome::TargetRejected => full,
        MoveOutcome::WouldAlias => unreachable!("distinct containers"),
    }
}

fn swap_result(o: SwapOutcome) -> SwapResult {
    match o {
        SwapOutcome::Swapped => SwapResult::Swapped,
        SwapOutcome::FirstEmpty => SwapResult::FirstEmpty,
        SwapOutcome::SecondEmpty => SwapResult::SecondEmpty,
        SwapOutcome::Rejected => SwapResult::Rejected,
        SwapOutcome::WouldAlias => SwapResult::WouldAlias,
    }
}

/// The plan and schedule seeds of the unkeyed pair families.
fn pair_seeds(base: u64, w: u64) -> (u64, u64) {
    (base.wrapping_add(w).wrapping_mul(0x9E37), base ^ (w << 8))
}

/// Drive one family of container pairs: `mk` builds the pair for every
/// execution; `ins_*` report whether the insert was accepted; composed
/// moves (and swaps, `with_swap`) go through the move-ready interfaces.
#[allow(clippy::too_many_arguments)]
fn fuzz_pair_family<A, B>(
    name: &str,
    spec: PairSpec,
    seeds: fn(u64, u64) -> (u64, u64),
    mk: impl Fn() -> (A, B),
    ins_a: impl Fn(&A, u32) -> bool + Copy + Send + 'static,
    rem_a: impl Fn(&A) -> Option<u32> + Copy + Send + 'static,
    ins_b: impl Fn(&B, u32) -> bool + Copy + Send + 'static,
    rem_b: impl Fn(&B) -> Option<u32> + Copy + Send + 'static,
    with_swap: bool,
) where
    A: MoveSource<u32> + MoveTarget<u32> + Send + Sync + 'static,
    B: MoveSource<u32> + MoveTarget<u32> + Send + Sync + 'static,
{
    fuzz_family(
        name,
        spec,
        seeds,
        |rng| make_plan(rng, 2, 4, with_swap),
        mk,
        move |(a, b): &(A, B), op| {
            Some(match op {
                PlanOp::InsA(v) if ins_a(a, v) => PairOp::InsA(v),
                PlanOp::InsA(v) => PairOp::InsAFull(v),
                PlanOp::InsB(v) if ins_b(b, v) => PairOp::InsB(v),
                PlanOp::InsB(v) => PairOp::InsBFull(v),
                PlanOp::RemA => PairOp::RemA(rem_a(a)),
                PlanOp::RemB => PairOp::RemB(rem_b(b)),
                PlanOp::MoveAB => move_op(move_one(a, b), PairOp::MoveAB, PairOp::MoveABFull),
                PlanOp::MoveBA => move_op(move_one(b, a), PairOp::MoveBA, PairOp::MoveBAFull),
                PlanOp::Swap => PairOp::Swap(swap_result(swap(a, b))),
            })
        },
    );
}

#[test]
fn fuzz_queue_stack_moves_and_swaps() {
    fuzz_pair_family(
        "queue/stack",
        PairSpec::new(Cont::Fifo, Cont::Lifo),
        pair_seeds,
        || (MsQueue::<u32>::new(), TreiberStack::<u32>::new()),
        |a, v| {
            a.enqueue(v);
            true
        },
        |a| a.dequeue(),
        |b, v| {
            b.push(v);
            true
        },
        |b| b.pop(),
        // No swaps: a swap touching a stack puts both its linearization
        // points on the same `top` word and reports WouldAlias by design.
        false,
    );
}

#[test]
fn fuzz_queue_queue_swaps() {
    fuzz_pair_family(
        "queue/queue",
        PairSpec::new(Cont::Fifo, Cont::Fifo),
        pair_seeds,
        || (MsQueue::<u32>::new(), MsQueue::<u32>::new()),
        |a, v| {
            a.enqueue(v);
            true
        },
        |a| a.dequeue(),
        |b, v| {
            b.enqueue(v);
            true
        },
        |b| b.dequeue(),
        true,
    );
}

/// StampedStack source, OneSlot target: the bounded slot exercises the
/// move abort path (TargetRejected) under the scheduler, checked by the
/// pair spec with a bounded-1 container B.
fn stamped_one_slot_family(name: &str) {
    fuzz_pair_family(
        name,
        PairSpec::new(Cont::Lifo, Cont::Bounded1),
        |base, w| {
            (
                base.wrapping_add(w).wrapping_mul(0xA5A5),
                base ^ (0xB00 + w),
            )
        },
        || (StampedStack::<u32>::new(), OneSlot::<u32>::new()),
        |s, v| {
            s.push(v);
            true
        },
        |s| s.pop(),
        |slot, v| slot.put(v),
        |slot| slot.take(),
        false,
    );
}

#[test]
fn fuzz_stamped_one_slot_moves() {
    stamped_one_slot_family("stamped/one-slot");
}

/// One planned keyed operation on a pair of maps (a forced directory
/// doubling is never recorded: no observable map state changes).
#[derive(Clone, Copy, Debug)]
enum KeyedOp {
    InsA(u32),
    InsB(u32),
    RemA(u32),
    RemB(u32),
    MoveAB(u32),
    MoveBA(u32),
    GrowA,
    GrowB,
}

/// Two threads of `ops` keyed operations each: a key below `keys`, then
/// an operation drawn uniformly from `menu`.
fn keyed_plans(
    rng: &mut SmallRng,
    ops: usize,
    keys: u64,
    menu: &[fn(u32) -> KeyedOp],
) -> Vec<Vec<KeyedOp>> {
    (0..2)
        .map(|_| {
            (0..ops)
                .map(|_| {
                    let k = rng.below(keys) as u32;
                    menu[rng.below(menu.len() as u64) as usize](k)
                })
                .collect()
        })
        .collect()
}

const KEYED_MENU: [fn(u32) -> KeyedOp; 6] = [
    KeyedOp::InsA,
    KeyedOp::InsB,
    KeyedOp::RemA,
    KeyedOp::RemB,
    KeyedOp::MoveAB,
    KeyedOp::MoveBA,
];

fn keyed_result(o: MoveOutcome) -> KeyedMoveResult {
    match o {
        MoveOutcome::Moved => KeyedMoveResult::Moved,
        MoveOutcome::SourceEmpty => KeyedMoveResult::Absent,
        MoveOutcome::TargetRejected => KeyedMoveResult::Duplicate,
        MoveOutcome::WouldAlias => unreachable!("distinct containers"),
    }
}

/// One keyed operation on two hash maps, moves through `move_keyed`.
fn hash_maps_step(
    a: &LfHashMap<u32, u32>,
    b: &LfHashMap<u32, u32>,
    op: KeyedOp,
) -> Option<KeyedPairOp> {
    Some(match op {
        KeyedOp::InsA(k) => KeyedPairOp::InsA(k, a.insert(k, k)),
        KeyedOp::InsB(k) => KeyedPairOp::InsB(k, b.insert(k, k)),
        KeyedOp::RemA(k) => KeyedPairOp::RemA(k, a.remove(&k).is_some()),
        KeyedOp::RemB(k) => KeyedPairOp::RemB(k, b.remove(&k).is_some()),
        KeyedOp::MoveAB(k) => KeyedPairOp::MoveAB(k, keyed_result(move_keyed(a, &k, b))),
        KeyedOp::MoveBA(k) => KeyedPairOp::MoveBA(k, keyed_result(move_keyed(b, &k, a))),
        KeyedOp::GrowA => {
            a.force_grow();
            return None;
        }
        KeyedOp::GrowB => {
            b.force_grow();
            return None;
        }
    })
}

#[test]
fn fuzz_keyed_map_resize() {
    // The PR 5 resize fuzz plan: keyed insert/remove/move_keyed between
    // two split-ordered hash maps that start at ONE bucket, with forced
    // directory doublings mixed into the plans. Growth threads bucket
    // dummies into the very chains the keyed operations (and composed
    // captures) are traversing; every recorded history must still satisfy
    // the keyed pair spec — resize is semantically invisible.
    fuzz_family(
        "keyed map resize",
        KeyedPairSpec,
        |base, w| {
            (
                base.wrapping_add(w).wrapping_mul(0x5EED5),
                base ^ (0xD00 + w),
            )
        },
        // Tiny key space so operations genuinely conflict inside one chain
        // before growth and across split chains after it.
        |rng| {
            let grow: [fn(u32) -> KeyedOp; 2] = [|_| KeyedOp::GrowA, |_| KeyedOp::GrowB];
            keyed_plans(rng, 5, 4, &[&KEYED_MENU[..], &grow[..]].concat())
        },
        || (LfHashMap::with_buckets(1), LfHashMap::with_buckets(1)),
        |(a, b): &(LfHashMap<u32, u32>, LfHashMap<u32, u32>), op| hash_maps_step(a, b, op),
    );
}

#[test]
fn fuzz_broadcast_trio() {
    // move_to_all with two targets under the trio spec: an observer must
    // never catch the element in a strict subset of the targets.
    fuzz_family(
        "broadcast trio",
        TrioSpec {
            a: Cont::Fifo,
            b: Cont::Fifo,
            c: Cont::Fifo,
        },
        |base, w| {
            (
                base.wrapping_add(w).wrapping_mul(0xBCA57),
                base ^ (0xC00 + w),
            )
        },
        // (operation, the value an insert would use).
        |rng| {
            (0..2u32)
                .map(|t| (0..4).map(|i| (rng.below(5), (t + 1) * 100 + i)).collect())
                .collect()
        },
        || (MsQueue::new(), MsQueue::new(), MsQueue::new()),
        |(src, d1, d2): &(MsQueue<u32>, MsQueue<u32>, MsQueue<u32>), (op, v)| {
            Some(match op {
                0 => {
                    src.enqueue(v);
                    TrioOp::InsA(v)
                }
                1 => TrioOp::RemA(src.dequeue()),
                2 => TrioOp::RemB(d1.dequeue()),
                3 => TrioOp::RemC(d2.dequeue()),
                _ => TrioOp::Broadcast(move_to_all(src, &[d1, d2]) == MoveOutcome::Moved),
            })
        },
    );
}

#[test]
fn fuzz_batched_keyed_moves() {
    // The PR 7 batched front-end under random schedules: keyed moves
    // between two hash maps are routed through one `always_batched`
    // claim-list gate (every submit takes the claim/drain path — combiner
    // handoffs, helping and self-execution all mix into the schedules),
    // while plain inserts/removes hit the maps directly. Every recorded
    // history must still satisfy the keyed pair spec: a batched move
    // remains one atomic action.
    use lfc_core::batch::decode_move;
    use lfc_core::{BatchGate, MoveKeyedOp};

    type Map = LfHashMap<u32, u32>;
    type Gate = BatchGate<MoveKeyedOp<'static, u32, u32, Map, Map>>;

    fuzz_family(
        "batched keyed moves",
        KeyedPairSpec,
        |base, w| {
            (
                base.wrapping_add(w).wrapping_mul(0xBA7C4),
                base ^ (0xE00 + w),
            )
        },
        // Tiny key space so batched moves collide with direct operations
        // on the same chains.
        |rng| keyed_plans(rng, 4, 4, &KEYED_MENU),
        || (Map::new(), Map::new(), Gate::always_batched()),
        |(a, b, gate): &(Map, Map, Gate), op| {
            // The request type borrows the maps; every plan thread holds
            // the objects until it returns, so promoting is sound.
            let (ar, br): (&'static Map, &'static Map) =
                unsafe { (&*(a as *const _), &*(b as *const _)) };
            let batched =
                |src, dst, k| keyed_result(decode_move(gate.submit(MoveKeyedOp::new(src, k, dst))));
            match op {
                KeyedOp::MoveAB(k) => Some(KeyedPairOp::MoveAB(k, batched(ar, br, k))),
                KeyedOp::MoveBA(k) => Some(KeyedPairOp::MoveBA(k, batched(br, ar, k))),
                _ => hash_maps_step(a, b, op),
            }
        },
    );
}

#[test]
fn fuzz_eliminating_stack_pairs() {
    // The queue/stack and stamped/one-slot families re-run with the
    // elimination exchanger forced in front of the stack's `top` CAS: plain
    // pushes and pops may cancel through a side slot in any schedule the
    // scheduler finds, and every history must still linearize. Composed
    // moves in the same plans keep using `top` (composed contexts are never
    // eliminable). Both stacks are the one Treiber algorithm; the second
    // carries the stamped top word.
    struct ForceElim;
    impl Drop for ForceElim {
        fn drop(&mut self) {
            lfc_structures::model_toggles::FORCE_ELIM
                .store(false, std::sync::atomic::Ordering::SeqCst);
        }
    }
    let _guard = ForceElim;
    lfc_structures::model_toggles::FORCE_ELIM.store(true, std::sync::atomic::Ordering::SeqCst);
    fuzz_pair_family(
        "queue/eliminating-stack",
        PairSpec::new(Cont::Fifo, Cont::Lifo),
        pair_seeds,
        || (MsQueue::<u32>::new(), TreiberStack::<u32>::new()),
        |a, v| {
            a.enqueue(v);
            true
        },
        |a| a.dequeue(),
        |b, v| {
            b.push(v);
            true
        },
        |b| b.pop(),
        false,
    );
    stamped_one_slot_family("eliminating-stamped/one-slot");
}

#[test]
fn fuzz_keyed_skip_map_moves() {
    // Composed keyed moves routed through a pair of skip maps under the
    // model scheduler: every insert/remove lands on the level-0 chain
    // (the only linearization subject) while tower builds, tower freezes
    // and express-lane unlinks race in the same interleavings. The keyed
    // pair spec must hold on every schedule — a tower CAS that decided an
    // outcome, resurrected a removed key or tore a composed capture would
    // surface as a non-linearizable history.
    use lfc_structures::LfSkipMap;

    fuzz_family(
        "keyed skip-map moves",
        KeyedPairSpec,
        |base, w| {
            (
                base.wrapping_add(w).wrapping_mul(0x5C1F5),
                base ^ (0x5C0 + w),
            )
        },
        // Tiny key space so the same level-0 nodes are inserted, removed,
        // tower-linked and re-inserted across interleavings.
        |rng| keyed_plans(rng, 5, 3, &KEYED_MENU),
        || (LfSkipMap::new(), LfSkipMap::new()),
        |(a, b): &(LfSkipMap<u32, u32>, LfSkipMap<u32, u32>), op| {
            Some(match op {
                KeyedOp::InsA(k) => KeyedPairOp::InsA(k, a.insert(k, k)),
                KeyedOp::InsB(k) => KeyedPairOp::InsB(k, b.insert(k, k)),
                KeyedOp::RemA(k) => KeyedPairOp::RemA(k, a.remove(&k).is_some()),
                KeyedOp::RemB(k) => KeyedPairOp::RemB(k, b.remove(&k).is_some()),
                KeyedOp::MoveAB(k) => KeyedPairOp::MoveAB(k, keyed_result(move_keyed(a, &k, b))),
                KeyedOp::MoveBA(k) => KeyedPairOp::MoveBA(k, keyed_result(move_keyed(b, &k, a))),
                KeyedOp::GrowA | KeyedOp::GrowB => unreachable!("skip maps do not grow"),
            })
        },
    );
}

#[test]
fn fuzz_keyed_moves_with_faults_armed() {
    // The PR 10 chaos plan family, phase A — the OOM adversary under the
    // Wing–Gong checker: keyed plans over two hash maps with the node
    // allocation site armed, every insert routed through the fallible
    // `try_insert` and interleaved with composed moves (which allocate
    // nothing that can fail). An `Err` is the try-surface contract
    // ("nothing happened, the map untouched") and is left unrecorded — if
    // a refused attempt ever DID mutate a map, some later recorded
    // operation observes the phantom change and the history stops
    // linearizing.
    use lfc_runtime::fault;
    use std::sync::atomic::{AtomicU64, Ordering};

    let (seeds, execs, base) = budget();
    // Counted across every execution of every workload: the family must
    // prove the adversary engaged, not that the schedule dodged it.
    let refusals = Arc::new(AtomicU64::new(0));
    for w in 0..seeds {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(w).wrapping_mul(0xFA017));
        // Move-heavy mix around the armed inserts.
        let menu: [fn(u32) -> KeyedOp; 8] = [
            KeyedOp::InsA,
            KeyedOp::InsB,
            KeyedOp::RemA,
            KeyedOp::RemB,
            KeyedOp::MoveAB,
            KeyedOp::MoveAB,
            KeyedOp::MoveBA,
            KeyedOp::MoveBA,
        ];
        let plans = keyed_plans(&mut rng, 5, 4, &menu);
        let plans = Arc::new(plans);
        let report = explore_random(
            FuzzOpts {
                seed: base ^ (0xFA0 + w),
                executions: execs,
                step_budget: 200_000,
                memory: MemoryMode::Interleaving,
            },
            {
                let plans = plans.clone();
                let refusals = refusals.clone();
                move || {
                    // Every second fallible node allocation fails.
                    fault::arm_site("structures.node", fault::Schedule::EveryNth(2));
                    let a = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
                    let b = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
                    let rec = Arc::new(Recorder::<KeyedPairOp>::new());
                    // Seed the source map as a recorded sequential prefix
                    // (before the plan threads, so through the unarmed
                    // infallible insert), giving the moves keys to carry.
                    for k in 0..4u32 {
                        rec.record(|| KeyedPairOp::InsA(k, a.insert(k, k)));
                    }
                    // Root pin: keeps the plan threads' moves on the
                    // published path.
                    let _g = lfc_hazard::pin();
                    let handles: Vec<_> = plans
                        .iter()
                        .cloned()
                        .map(|ops| {
                            let (a, b, rec) = (a.clone(), b.clone(), rec.clone());
                            let refusals = refusals.clone();
                            lfc_model::thread::spawn(move || {
                                for op in ops {
                                    let invoke = rec.now();
                                    let done = match op {
                                        KeyedOp::InsA(k) => a
                                            .try_insert(k, k)
                                            .ok()
                                            .map(|ok| KeyedPairOp::InsA(k, ok)),
                                        KeyedOp::InsB(k) => b
                                            .try_insert(k, k)
                                            .ok()
                                            .map(|ok| KeyedPairOp::InsB(k, ok)),
                                        _ => hash_maps_step(&a, &b, op),
                                    };
                                    match done {
                                        Some(done) => rec.push(done, invoke, rec.now()),
                                        None => {
                                            refusals.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join();
                    }
                    fault::disarm();
                    let rec =
                        Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
                    let h = rec.finish();
                    let verdict = check_linearizable(&KeyedPairSpec, &h);
                    assert!(
                        verdict.is_linearizable(),
                        "non-linearizable keyed history under injected OOM:\n{}",
                        render_history(&h)
                    );
                }
            },
        );
        fault::disarm();
        if let Some(f) = &report.failure {
            panic!(
                "fuzz family keyed moves + OOM, workload {w} (re-run with LFC_FUZZ_SEED={base}): {f}"
            );
        }
    }
    assert!(
        refusals.load(Ordering::Relaxed) > 0,
        "the armed allocation site never refused an attempt — the OOM adversary did not engage"
    );

    // Phase B — the kill adversary, checked by conservation: the
    // recorder cannot express an operation whose owner died mid-flight
    // (it is completed later by an adopter, outside any inv/ret window),
    // so this phase asserts the ledger-grade invariant instead — every
    // token ends in exactly one map with its value intact, every corpse
    // is adopted. `Nth(1)` on the publish site guarantees exactly one
    // death per execution: the first published move dies there.
    use lfc_dcas::adopt_dead_threads;

    let report = explore_random(
        FuzzOpts {
            seed: base ^ 0x411ED,
            executions: execs,
            step_budget: 200_000,
            memory: MemoryMode::Interleaving,
        },
        move || {
            fault::arm_site("dcas.published", fault::Schedule::Nth(1));
            let a = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
            let b = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
            for k in 0..3u32 {
                a.insert(k, 100 + k);
            }
            let before = fault::abandoned_total();
            // Root pin defeats the solo regime (see phase A) AND outlives
            // both children, so the backstop adoption below runs under a
            // registered guard.
            let g = lfc_hazard::pin();
            let victim = {
                let (a, b) = (a.clone(), b.clone());
                lfc_model::thread::spawn(move || {
                    let _g = lfc_hazard::pin();
                    let _ = move_keyed(&*a, &0u32, &*b);
                })
            };
            let worker = {
                let (a, b) = (a.clone(), b.clone());
                lfc_model::thread::spawn(move || {
                    let g = lfc_hazard::pin();
                    for k in [1u32, 2] {
                        let _ = move_keyed(&*a, &k, &*b);
                    }
                    // Bounded: depending on the interleaving the death may
                    // not have happened yet; the root backstop is certain.
                    for _ in 0..4 {
                        if fault::corpse_count() > 0 && adopt_dead_threads(&g) > 0 {
                            break;
                        }
                    }
                })
            };
            victim.join();
            worker.join();
            for _ in 0..4 {
                if fault::corpse_count() == 0 {
                    break;
                }
                adopt_dead_threads(&g);
            }
            fault::disarm();
            assert_eq!(fault::corpse_count(), 0, "corpse left unadopted");
            assert!(
                fault::abandoned_total() > before,
                "the kill site never fired — the crash adversary did not engage"
            );
            // Conservation: keys are disjoint per thread and present at
            // the start, so each token must end in exactly one map.
            for k in 0..3u32 {
                let (va, vb) = (a.get(&k), b.get(&k));
                assert!(
                    va.is_some() != vb.is_some(),
                    "token {k} lost or duplicated after adoption (a={va:?}, b={vb:?})"
                );
                assert_eq!(va.or(vb), Some(100 + k), "token {k} value torn");
            }
        },
    );
    fault::disarm();
    if let Some(f) = &report.failure {
        panic!("fuzz family keyed moves + kill, (re-run with LFC_FUZZ_SEED={base}): {f}");
    }
}
