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

use lfc_core::{move_keyed, move_one, move_to_all, swap, MoveOutcome, SwapOutcome};
use lfc_linear::{
    check_linearizable, render_history, Cont, KeyedMoveResult, KeyedPairOp, KeyedPairSpec, PairOp,
    PairSpec, Recorder, SwapResult, TrioOp, TrioSpec,
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

/// Deterministic per-thread operation plans derived from a seed. Values
/// are statically unique per (thread, index) so histories never alias.
fn make_plan(seed: u64, threads: usize, ops: usize, with_swap: bool) -> Vec<Vec<PlanOp>> {
    let mut rng = SmallRng::seed_from_u64(seed);
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

fn swap_result(o: SwapOutcome) -> SwapResult {
    match o {
        SwapOutcome::Swapped => SwapResult::Swapped,
        SwapOutcome::FirstEmpty => SwapResult::FirstEmpty,
        SwapOutcome::SecondEmpty | SwapOutcome::Rejected => SwapResult::SecondEmpty,
        SwapOutcome::WouldAlias => unreachable!("distinct containers"),
    }
}

/// Drive one family of container pairs: `mk` builds the pair and the
/// per-op adapter for every execution.
#[allow(clippy::too_many_arguments)]
fn fuzz_pair_family<A, B>(
    name: &str,
    spec: PairSpec,
    mk: impl Fn() -> (Arc<A>, Arc<B>) + Copy,
    ins_a: impl Fn(&A, u32) -> bool + Copy + Send + Sync + 'static,
    rem_a: impl Fn(&A) -> Option<u32> + Copy + Send + Sync + 'static,
    ins_b: impl Fn(&B, u32) -> bool + Copy + Send + Sync + 'static,
    rem_b: impl Fn(&B) -> Option<u32> + Copy + Send + Sync + 'static,
    mv_ab: impl Fn(&A, &B) -> PairOp + Copy + Send + Sync + 'static,
    mv_ba: impl Fn(&A, &B) -> PairOp + Copy + Send + Sync + 'static,
    swap_op: Option<impl Fn(&A, &B) -> PairOp + Copy + Send + Sync + 'static>,
) where
    A: Send + Sync + 'static,
    B: Send + Sync + 'static,
{
    let (seeds, execs, base) = budget();
    for w in 0..seeds {
        let plan = make_plan(
            base.wrapping_add(w).wrapping_mul(0x9E37),
            2,
            4,
            swap_op.is_some(),
        );
        let plan = Arc::new(plan);
        let report = explore_random(
            FuzzOpts {
                seed: base ^ (w << 8),
                executions: execs,
                step_budget: 200_000,
                memory: MemoryMode::Interleaving,
            },
            {
                let plan = plan.clone();
                move || {
                    let (a, b) = mk();
                    let rec = Arc::new(Recorder::<PairOp>::new());
                    let handles: Vec<_> = plan
                        .iter()
                        .cloned()
                        .map(|ops| {
                            let (a, b, rec) = (a.clone(), b.clone(), rec.clone());
                            lfc_model::thread::spawn(move || {
                                for op in ops {
                                    match op {
                                        PlanOp::InsA(v) => {
                                            rec.record(|| {
                                                ins_a(&a, v);
                                                PairOp::InsA(v)
                                            });
                                        }
                                        PlanOp::InsB(v) => {
                                            rec.record(|| {
                                                ins_b(&b, v);
                                                PairOp::InsB(v)
                                            });
                                        }
                                        PlanOp::RemA => {
                                            rec.record(|| PairOp::RemA(rem_a(&a)));
                                        }
                                        PlanOp::RemB => {
                                            rec.record(|| PairOp::RemB(rem_b(&b)));
                                        }
                                        PlanOp::MoveAB => {
                                            rec.record(|| mv_ab(&a, &b));
                                        }
                                        PlanOp::MoveBA => {
                                            rec.record(|| mv_ba(&a, &b));
                                        }
                                        PlanOp::Swap => {
                                            if let Some(sw) = swap_op {
                                                rec.record(|| sw(&a, &b));
                                            }
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join();
                    }
                    let rec =
                        Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
                    let h = rec.finish();
                    let verdict = check_linearizable(&spec, &h);
                    assert!(
                        verdict.is_linearizable(),
                        "non-linearizable history:\n{}",
                        render_history(&h)
                    );
                }
            },
        );
        if let Some(f) = &report.failure {
            panic!("fuzz family {name}, workload {w} (re-run with LFC_FUZZ_SEED={base}): {f}");
        }
    }
}

#[test]
fn fuzz_queue_stack_moves_and_swaps() {
    fuzz_pair_family(
        "queue/stack",
        PairSpec {
            a: Cont::Fifo,
            b: Cont::Lifo,
        },
        || {
            (
                Arc::new(MsQueue::<u32>::new()),
                Arc::new(TreiberStack::<u32>::new()),
            )
        },
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
        |a, b| PairOp::MoveAB(move_one(a, b) == MoveOutcome::Moved),
        |a, b| PairOp::MoveBA(move_one(b, a) == MoveOutcome::Moved),
        // No swaps: a swap touching a stack puts both its linearization
        // points on the same `top` word and reports WouldAlias by design.
        None::<fn(&MsQueue<u32>, &TreiberStack<u32>) -> PairOp>,
    );
}

#[test]
fn fuzz_queue_queue_swaps() {
    fuzz_pair_family(
        "queue/queue",
        PairSpec {
            a: Cont::Fifo,
            b: Cont::Fifo,
        },
        || {
            (
                Arc::new(MsQueue::<u32>::new()),
                Arc::new(MsQueue::<u32>::new()),
            )
        },
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
        |a, b| PairOp::MoveAB(move_one(a, b) == MoveOutcome::Moved),
        |a, b| PairOp::MoveBA(move_one(b, a) == MoveOutcome::Moved),
        Some(|a: &MsQueue<u32>, b: &MsQueue<u32>| PairOp::Swap(swap_result(swap(a, b)))),
    );
}

#[test]
fn fuzz_stamped_one_slot_moves() {
    // StampedStack source, OneSlot target: the bounded slot exercises the
    // move abort path (TargetRejected) under the scheduler. PairSpec
    // cannot express a bounded target, so this family checks against a
    // local spec with an explicit capacity-1 container B.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum SlotPairOp {
        PushA(u32),
        PopA(Option<u32>),
        PutB(u32, bool),
        TakeB(Option<u32>),
        /// move stack -> slot with the full observed outcome.
        MoveAB(MoveOutcome),
        /// move slot -> stack; true iff an element moved.
        MoveBA(bool),
    }
    #[derive(Clone, Copy, Debug, Default)]
    struct SlotPairSpec;
    impl lfc_linear::Spec for SlotPairSpec {
        type State = (u64, Option<u32>); // stack packed 8x8-bit values, slot
        type Op = SlotPairOp;
        fn init(&self) -> Self::State {
            (0, None)
        }
        fn apply(&self, state: &Self::State, op: &Self::Op) -> Option<Self::State> {
            // Stack encoding: little 8-bit frames, low frame = top; values
            // in this fuzz family are < 255 and stacks stay shallow.
            let (stack, slot) = *state;
            let push = |st: u64, v: u32| (st << 8) | (v as u64 & 0xFF);
            let pop = |st: u64| -> (u64, Option<u32>) {
                if st == 0 {
                    (0, None)
                } else {
                    (st >> 8, Some((st & 0xFF) as u32))
                }
            };
            match *op {
                SlotPairOp::PushA(v) => Some((push(stack, v), slot)),
                SlotPairOp::PopA(expected) => {
                    let (rest, got) = pop(stack);
                    (got == expected).then_some((rest, slot))
                }
                SlotPairOp::PutB(v, accepted) => match (slot, accepted) {
                    (None, true) => Some((stack, Some(v))),
                    (Some(_), false) => Some((stack, slot)),
                    _ => None,
                },
                SlotPairOp::TakeB(expected) => (slot == expected).then_some((stack, None)),
                SlotPairOp::MoveAB(outcome) => match outcome {
                    MoveOutcome::Moved => {
                        let (rest, got) = pop(stack);
                        match (got, slot) {
                            (Some(v), None) => Some((rest, Some(v))),
                            _ => None,
                        }
                    }
                    MoveOutcome::SourceEmpty => (stack == 0).then_some((stack, slot)),
                    MoveOutcome::TargetRejected => {
                        (stack != 0 && slot.is_some()).then_some((stack, slot))
                    }
                    MoveOutcome::WouldAlias => None,
                },
                SlotPairOp::MoveBA(moved) => match (slot, moved) {
                    (Some(v), true) => Some((push(stack, v), None)),
                    (None, false) => Some((stack, slot)),
                    _ => None,
                },
            }
        }
    }

    let (seeds, execs, base) = budget();
    for w in 0..seeds {
        let plan = make_plan(base.wrapping_add(w).wrapping_mul(0xA5A5), 2, 4, false);
        let plan = Arc::new(plan);
        let report = explore_random(
            FuzzOpts {
                seed: base ^ (0xB00 + w),
                executions: execs,
                step_budget: 200_000,
                memory: MemoryMode::Interleaving,
            },
            {
                let plan = plan.clone();
                move || {
                    let s = Arc::new(StampedStack::<u32>::new());
                    let slot = Arc::new(OneSlot::<u32>::new());
                    let rec = Arc::new(Recorder::<SlotPairOp>::new());
                    let handles: Vec<_> = plan
                        .iter()
                        .cloned()
                        .map(|ops| {
                            let (s, slot, rec) = (s.clone(), slot.clone(), rec.clone());
                            lfc_model::thread::spawn(move || {
                                for op in ops {
                                    match op {
                                        PlanOp::InsA(v) => {
                                            rec.record(|| {
                                                s.push(v);
                                                SlotPairOp::PushA(v)
                                            });
                                        }
                                        PlanOp::InsB(v) => {
                                            rec.record(|| SlotPairOp::PutB(v, slot.put(v)));
                                        }
                                        PlanOp::RemA => {
                                            rec.record(|| SlotPairOp::PopA(s.pop()));
                                        }
                                        PlanOp::RemB => {
                                            rec.record(|| SlotPairOp::TakeB(slot.take()));
                                        }
                                        PlanOp::MoveAB => {
                                            rec.record(|| {
                                                SlotPairOp::MoveAB(move_one(&*s, &*slot))
                                            });
                                        }
                                        PlanOp::MoveBA | PlanOp::Swap => {
                                            rec.record(|| {
                                                SlotPairOp::MoveBA(
                                                    move_one(&*slot, &*s) == MoveOutcome::Moved,
                                                )
                                            });
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join();
                    }
                    let rec =
                        Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
                    let h = rec.finish();
                    let verdict = check_linearizable(&SlotPairSpec, &h);
                    assert!(
                        verdict.is_linearizable(),
                        "non-linearizable history:\n{}",
                        render_history(&h)
                    );
                }
            },
        );
        if let Some(f) = &report.failure {
            panic!("fuzz family stamped/one-slot, workload {w} (re-run with LFC_FUZZ_SEED={base}): {f}");
        }
    }
}

#[test]
fn fuzz_keyed_map_resize() {
    // The PR 5 resize fuzz plan: keyed insert/remove/move_keyed between
    // two split-ordered hash maps that start at ONE bucket, with forced
    // directory doublings mixed into the plans. Growth threads bucket
    // dummies into the very chains the keyed operations (and composed
    // captures) are traversing; every recorded history must still satisfy
    // the keyed pair spec — resize is semantically invisible.
    #[derive(Clone, Copy, Debug)]
    enum ResizeOp {
        InsA(u32),
        InsB(u32),
        RemA(u32),
        RemB(u32),
        MoveAB(u32),
        MoveBA(u32),
        /// Forced doubling (unrecorded: no observable map state changes).
        GrowA,
        GrowB,
    }

    fn mv_result(o: MoveOutcome) -> KeyedMoveResult {
        match o {
            MoveOutcome::Moved => KeyedMoveResult::Moved,
            MoveOutcome::SourceEmpty => KeyedMoveResult::Absent,
            MoveOutcome::TargetRejected => KeyedMoveResult::Duplicate,
            MoveOutcome::WouldAlias => unreachable!("distinct containers"),
        }
    }

    let (seeds, execs, base) = budget();
    for w in 0..seeds {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(w).wrapping_mul(0x5EED5));
        // Tiny key space so operations genuinely conflict inside one chain
        // before growth and across split chains after it.
        let plans: Vec<Vec<ResizeOp>> = (0..2)
            .map(|_| {
                (0..5)
                    .map(|_| {
                        let k = rng.below(4) as u32;
                        match rng.below(8) {
                            0 => ResizeOp::InsA(k),
                            1 => ResizeOp::InsB(k),
                            2 => ResizeOp::RemA(k),
                            3 => ResizeOp::RemB(k),
                            4 => ResizeOp::MoveAB(k),
                            5 => ResizeOp::MoveBA(k),
                            6 => ResizeOp::GrowA,
                            _ => ResizeOp::GrowB,
                        }
                    })
                    .collect()
            })
            .collect();
        let plans = Arc::new(plans);
        let report = explore_random(
            FuzzOpts {
                seed: base ^ (0xD00 + w),
                executions: execs,
                step_budget: 200_000,
                memory: MemoryMode::Interleaving,
            },
            {
                let plans = plans.clone();
                move || {
                    let a = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
                    let b = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
                    let rec = Arc::new(Recorder::<KeyedPairOp>::new());
                    let handles: Vec<_> = plans
                        .iter()
                        .cloned()
                        .map(|ops| {
                            let (a, b, rec) = (a.clone(), b.clone(), rec.clone());
                            lfc_model::thread::spawn(move || {
                                for op in ops {
                                    match op {
                                        ResizeOp::InsA(k) => {
                                            rec.record(|| KeyedPairOp::InsA(k, a.insert(k, k)));
                                        }
                                        ResizeOp::InsB(k) => {
                                            rec.record(|| KeyedPairOp::InsB(k, b.insert(k, k)));
                                        }
                                        ResizeOp::RemA(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::RemA(k, a.remove(&k).is_some())
                                            });
                                        }
                                        ResizeOp::RemB(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::RemB(k, b.remove(&k).is_some())
                                            });
                                        }
                                        ResizeOp::MoveAB(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::MoveAB(
                                                    k,
                                                    mv_result(move_keyed(&*a, &k, &*b)),
                                                )
                                            });
                                        }
                                        ResizeOp::MoveBA(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::MoveBA(
                                                    k,
                                                    mv_result(move_keyed(&*b, &k, &*a)),
                                                )
                                            });
                                        }
                                        ResizeOp::GrowA => {
                                            a.force_grow();
                                        }
                                        ResizeOp::GrowB => {
                                            b.force_grow();
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join();
                    }
                    let rec =
                        Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
                    let h = rec.finish();
                    let verdict = check_linearizable(&KeyedPairSpec, &h);
                    assert!(
                        verdict.is_linearizable(),
                        "non-linearizable keyed history under resize:\n{}",
                        render_history(&h)
                    );
                }
            },
        );
        if let Some(f) = &report.failure {
            panic!(
                "fuzz family keyed map resize, workload {w} (re-run with LFC_FUZZ_SEED={base}): {f}"
            );
        }
    }
}

#[test]
fn fuzz_broadcast_trio() {
    // move_to_all with two targets under the trio spec: an observer must
    // never catch the element in a strict subset of the targets.
    let (seeds, execs, base) = budget();
    for w in 0..seeds {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(w).wrapping_mul(0xBCA57));
        let plans: Vec<Vec<u32>> = (0..2)
            .map(|_| (0..4).map(|_| rng.below(5) as u32).collect())
            .collect();
        let plans = Arc::new(plans);
        let spec = TrioSpec {
            a: Cont::Fifo,
            b: Cont::Fifo,
            c: Cont::Fifo,
        };
        let report = explore_random(
            FuzzOpts {
                seed: base ^ (0xC00 + w),
                executions: execs,
                step_budget: 200_000,
                memory: MemoryMode::Interleaving,
            },
            {
                let plans = plans.clone();
                move || {
                    let src = Arc::new(MsQueue::<u32>::new());
                    let d1 = Arc::new(MsQueue::<u32>::new());
                    let d2 = Arc::new(MsQueue::<u32>::new());
                    let rec = Arc::new(Recorder::<TrioOp>::new());
                    let handles: Vec<_> = plans
                        .iter()
                        .enumerate()
                        .map(|(t, ops)| {
                            let ops = ops.clone();
                            let (src, d1, d2, rec) =
                                (src.clone(), d1.clone(), d2.clone(), rec.clone());
                            lfc_model::thread::spawn(move || {
                                for (i, op) in ops.into_iter().enumerate() {
                                    let v = (t as u32 + 1) * 100 + i as u32;
                                    match op {
                                        0 => {
                                            rec.record(|| {
                                                src.enqueue(v);
                                                TrioOp::InsA(v)
                                            });
                                        }
                                        1 => {
                                            rec.record(|| TrioOp::RemA(src.dequeue()));
                                        }
                                        2 => {
                                            rec.record(|| TrioOp::RemB(d1.dequeue()));
                                        }
                                        3 => {
                                            rec.record(|| TrioOp::RemC(d2.dequeue()));
                                        }
                                        _ => {
                                            rec.record(|| {
                                                TrioOp::Broadcast(
                                                    move_to_all(&*src, &[&*d1, &*d2])
                                                        == MoveOutcome::Moved,
                                                )
                                            });
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join();
                    }
                    let rec =
                        Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
                    let h = rec.finish();
                    let verdict = check_linearizable(&spec, &h);
                    assert!(
                        verdict.is_linearizable(),
                        "non-linearizable broadcast history:\n{}",
                        render_history(&h)
                    );
                }
            },
        );
        if let Some(f) = &report.failure {
            panic!(
                "fuzz family broadcast trio, workload {w} (re-run with LFC_FUZZ_SEED={base}): {f}"
            );
        }
    }
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

    #[derive(Clone, Copy, Debug)]
    enum BatchedOp {
        InsA(u32),
        InsB(u32),
        RemA(u32),
        RemB(u32),
        MoveAB(u32),
        MoveBA(u32),
    }

    fn mv_result(o: MoveOutcome) -> KeyedMoveResult {
        match o {
            MoveOutcome::Moved => KeyedMoveResult::Moved,
            MoveOutcome::SourceEmpty => KeyedMoveResult::Absent,
            MoveOutcome::TargetRejected => KeyedMoveResult::Duplicate,
            MoveOutcome::WouldAlias => unreachable!("distinct containers"),
        }
    }

    type Gate = BatchGate<MoveKeyedOp<'static, u32, u32, LfHashMap<u32, u32>, LfHashMap<u32, u32>>>;

    let (seeds, execs, base) = budget();
    for w in 0..seeds {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(w).wrapping_mul(0xBA7C4));
        // Tiny key space so batched moves collide with direct operations
        // on the same chains.
        let plans: Vec<Vec<BatchedOp>> = (0..2)
            .map(|_| {
                (0..4)
                    .map(|_| {
                        let k = rng.below(4) as u32;
                        match rng.below(6) {
                            0 => BatchedOp::InsA(k),
                            1 => BatchedOp::InsB(k),
                            2 => BatchedOp::RemA(k),
                            3 => BatchedOp::RemB(k),
                            4 => BatchedOp::MoveAB(k),
                            _ => BatchedOp::MoveBA(k),
                        }
                    })
                    .collect()
            })
            .collect();
        let plans = Arc::new(plans);
        let report = explore_random(
            FuzzOpts {
                seed: base ^ (0xE00 + w),
                executions: execs,
                step_budget: 200_000,
                memory: MemoryMode::Interleaving,
            },
            {
                let plans = plans.clone();
                move || {
                    let a = Arc::new(LfHashMap::<u32, u32>::new());
                    let b = Arc::new(LfHashMap::<u32, u32>::new());
                    // The request type borrows the maps; the Arcs outlive
                    // every worker join below, so promoting is sound.
                    let (ar, br): (&'static LfHashMap<u32, u32>, &'static LfHashMap<u32, u32>) =
                        unsafe { (&*Arc::as_ptr(&a), &*Arc::as_ptr(&b)) };
                    let gate: Arc<Gate> = Arc::new(BatchGate::always_batched());
                    let rec = Arc::new(Recorder::<KeyedPairOp>::new());
                    let handles: Vec<_> = plans
                        .iter()
                        .cloned()
                        .map(|ops| {
                            let (a, b, gate, rec) =
                                (a.clone(), b.clone(), gate.clone(), rec.clone());
                            lfc_model::thread::spawn(move || {
                                for op in ops {
                                    match op {
                                        BatchedOp::InsA(k) => {
                                            rec.record(|| KeyedPairOp::InsA(k, a.insert(k, k)));
                                        }
                                        BatchedOp::InsB(k) => {
                                            rec.record(|| KeyedPairOp::InsB(k, b.insert(k, k)));
                                        }
                                        BatchedOp::RemA(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::RemA(k, a.remove(&k).is_some())
                                            });
                                        }
                                        BatchedOp::RemB(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::RemB(k, b.remove(&k).is_some())
                                            });
                                        }
                                        BatchedOp::MoveAB(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::MoveAB(
                                                    k,
                                                    mv_result(decode_move(
                                                        gate.submit(MoveKeyedOp::new(ar, k, br)),
                                                    )),
                                                )
                                            });
                                        }
                                        BatchedOp::MoveBA(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::MoveBA(
                                                    k,
                                                    mv_result(decode_move(
                                                        gate.submit(MoveKeyedOp::new(br, k, ar)),
                                                    )),
                                                )
                                            });
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join();
                    }
                    let rec =
                        Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
                    let h = rec.finish();
                    let verdict = check_linearizable(&KeyedPairSpec, &h);
                    assert!(
                        verdict.is_linearizable(),
                        "non-linearizable batched keyed history:\n{}",
                        render_history(&h)
                    );
                }
            },
        );
        if let Some(f) = &report.failure {
            panic!(
                "fuzz family batched keyed moves, workload {w} (re-run with LFC_FUZZ_SEED={base}): {f}"
            );
        }
    }
}

#[test]
fn fuzz_eliminating_stack_pairs() {
    // The queue/stack family re-run with the elimination exchanger forced
    // in front of the stack's `top` CAS: plain pushes and pops may cancel
    // through a side slot in any schedule the scheduler finds, and every
    // history must still linearize. Composed moves in the same plans keep
    // using `top` (composed contexts are never eliminable).
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
        PairSpec {
            a: Cont::Fifo,
            b: Cont::Lifo,
        },
        || {
            (
                Arc::new(MsQueue::<u32>::new()),
                Arc::new(TreiberStack::<u32>::new()),
            )
        },
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
        |a, b| PairOp::MoveAB(move_one(a, b) == MoveOutcome::Moved),
        |a, b| PairOp::MoveBA(move_one(b, a) == MoveOutcome::Moved),
        None::<fn(&MsQueue<u32>, &TreiberStack<u32>) -> PairOp>,
    );
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
    #[derive(Clone, Copy, Debug)]
    enum SkipOp {
        InsA(u32),
        InsB(u32),
        RemA(u32),
        RemB(u32),
        MoveAB(u32),
        MoveBA(u32),
    }

    fn mv_result(o: MoveOutcome) -> KeyedMoveResult {
        match o {
            MoveOutcome::Moved => KeyedMoveResult::Moved,
            MoveOutcome::SourceEmpty => KeyedMoveResult::Absent,
            MoveOutcome::TargetRejected => KeyedMoveResult::Duplicate,
            MoveOutcome::WouldAlias => unreachable!("distinct containers"),
        }
    }

    use lfc_structures::LfSkipMap;

    let (seeds, execs, base) = budget();
    for w in 0..seeds {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(w).wrapping_mul(0x5C1F5));
        // Tiny key space so the same level-0 nodes are inserted, removed,
        // tower-linked and re-inserted across interleavings.
        let plans: Vec<Vec<SkipOp>> = (0..2)
            .map(|_| {
                (0..5)
                    .map(|_| {
                        let k = rng.below(3) as u32;
                        match rng.below(6) {
                            0 => SkipOp::InsA(k),
                            1 => SkipOp::InsB(k),
                            2 => SkipOp::RemA(k),
                            3 => SkipOp::RemB(k),
                            4 => SkipOp::MoveAB(k),
                            _ => SkipOp::MoveBA(k),
                        }
                    })
                    .collect()
            })
            .collect();
        let plans = Arc::new(plans);
        let report = explore_random(
            FuzzOpts {
                seed: base ^ (0x5C0 + w),
                executions: execs,
                step_budget: 200_000,
                memory: MemoryMode::Interleaving,
            },
            {
                let plans = plans.clone();
                move || {
                    let a = Arc::new(LfSkipMap::<u32, u32>::new());
                    let b = Arc::new(LfSkipMap::<u32, u32>::new());
                    let rec = Arc::new(Recorder::<KeyedPairOp>::new());
                    let handles: Vec<_> = plans
                        .iter()
                        .cloned()
                        .map(|ops| {
                            let (a, b, rec) = (a.clone(), b.clone(), rec.clone());
                            lfc_model::thread::spawn(move || {
                                for op in ops {
                                    match op {
                                        SkipOp::InsA(k) => {
                                            rec.record(|| KeyedPairOp::InsA(k, a.insert(k, k)));
                                        }
                                        SkipOp::InsB(k) => {
                                            rec.record(|| KeyedPairOp::InsB(k, b.insert(k, k)));
                                        }
                                        SkipOp::RemA(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::RemA(k, a.remove(&k).is_some())
                                            });
                                        }
                                        SkipOp::RemB(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::RemB(k, b.remove(&k).is_some())
                                            });
                                        }
                                        SkipOp::MoveAB(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::MoveAB(
                                                    k,
                                                    mv_result(move_keyed(&*a, &k, &*b)),
                                                )
                                            });
                                        }
                                        SkipOp::MoveBA(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::MoveBA(
                                                    k,
                                                    mv_result(move_keyed(&*b, &k, &*a)),
                                                )
                                            });
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join();
                    }
                    let rec =
                        Arc::try_unwrap(rec).unwrap_or_else(|_| panic!("sole recorder owner"));
                    let h = rec.finish();
                    let verdict = check_linearizable(&KeyedPairSpec, &h);
                    assert!(
                        verdict.is_linearizable(),
                        "non-linearizable keyed skip-map history:\n{}",
                        render_history(&h)
                    );
                }
            },
        );
        if let Some(f) = &report.failure {
            panic!(
                "fuzz family keyed skip-map moves, workload {w} (re-run with LFC_FUZZ_SEED={base}): {f}"
            );
        }
    }
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

    #[derive(Clone, Copy, Debug)]
    enum FaultOp {
        InsA(u32),
        InsB(u32),
        RemA(u32),
        RemB(u32),
        MoveAB(u32),
        MoveBA(u32),
    }

    fn mv_result(o: MoveOutcome) -> KeyedMoveResult {
        match o {
            MoveOutcome::Moved => KeyedMoveResult::Moved,
            MoveOutcome::SourceEmpty => KeyedMoveResult::Absent,
            MoveOutcome::TargetRejected => KeyedMoveResult::Duplicate,
            MoveOutcome::WouldAlias => unreachable!("distinct containers"),
        }
    }

    let (seeds, execs, base) = budget();
    // Counted across every execution of every workload: the family must
    // prove the adversary engaged, not that the schedule dodged it.
    let refusals = Arc::new(AtomicU64::new(0));
    for w in 0..seeds {
        let mut rng = SmallRng::seed_from_u64(base.wrapping_add(w).wrapping_mul(0xFA017));
        let plans: Vec<Vec<FaultOp>> = (0..2)
            .map(|_| {
                (0..5)
                    .map(|_| {
                        let k = rng.below(4) as u32;
                        // Move-heavy mix around the armed inserts.
                        match rng.below(8) {
                            0 => FaultOp::InsA(k),
                            1 => FaultOp::InsB(k),
                            2 => FaultOp::RemA(k),
                            3 => FaultOp::RemB(k),
                            4 | 5 => FaultOp::MoveAB(k),
                            _ => FaultOp::MoveBA(k),
                        }
                    })
                    .collect()
            })
            .collect();
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
                                    match op {
                                        FaultOp::InsA(k) => {
                                            let invoke = rec.now();
                                            match a.try_insert(k, k) {
                                                Ok(ok) => {
                                                    let ret = rec.now();
                                                    rec.push(KeyedPairOp::InsA(k, ok), invoke, ret);
                                                }
                                                Err(_) => {
                                                    refusals.fetch_add(1, Ordering::Relaxed);
                                                }
                                            }
                                        }
                                        FaultOp::InsB(k) => {
                                            let invoke = rec.now();
                                            match b.try_insert(k, k) {
                                                Ok(ok) => {
                                                    let ret = rec.now();
                                                    rec.push(KeyedPairOp::InsB(k, ok), invoke, ret);
                                                }
                                                Err(_) => {
                                                    refusals.fetch_add(1, Ordering::Relaxed);
                                                }
                                            }
                                        }
                                        FaultOp::RemA(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::RemA(k, a.remove(&k).is_some())
                                            });
                                        }
                                        FaultOp::RemB(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::RemB(k, b.remove(&k).is_some())
                                            });
                                        }
                                        FaultOp::MoveAB(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::MoveAB(
                                                    k,
                                                    mv_result(move_keyed(&*a, &k, &*b)),
                                                )
                                            });
                                        }
                                        FaultOp::MoveBA(k) => {
                                            rec.record(|| {
                                                KeyedPairOp::MoveBA(
                                                    k,
                                                    mv_result(move_keyed(&*b, &k, &*a)),
                                                )
                                            });
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
