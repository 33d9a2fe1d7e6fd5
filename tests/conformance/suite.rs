//! The move-conformance suite: one set of checks over
//! `MoveSource<Tok> + MoveTarget<Tok>`, run for every source × target cell
//! of the seven move-ready objects and every composition shape.
//!
//! An object enters by declaring three things (the `subjects!` table): its
//! discipline (FIFO, LIFO or bounded-1; a keyed object viewed at one key is
//! a bounded-1 container that refuses a duplicate), whether its insert and
//! remove linearize on one word (which predicts `WouldAlias`), and how to
//! build a fresh one. Seeding and draining go through `insert_with` /
//! `remove_with` with `NormalCas`, so no check has per-structure code.

use lfc_runtime::SmallRng;
use lockfree_compose::linear::{
    check_linearizable, render_history, Cont, PairOp, PairSpec, Recorder, Spec, SwapResult, TrioOp,
    TrioSpec,
};
use lockfree_compose::{
    move_one, move_to_all, swap, At, InsertCtx, InsertOutcome, KeyedMoveSource, KeyedMoveTarget,
    LfHashMap, LfSkipMap, LinPoint, MoveOutcome, MoveSource, MoveTarget, MsQueue, NormalCas,
    OneSlot, OrderedSet, RemoveCtx, RemoveOutcome, ScasResult, StampedStack, SwapOutcome,
    TreiberStack,
};
use std::fmt::Debug;

/// The element type every cell moves: unique tokens, so a lost or doubled
/// element shows.
pub type Tok = u32;

/// A move-ready object plus what the checks must know about it.
pub trait Subject: MoveSource<Tok> + MoveTarget<Tok> + Sync {
    /// FIFO, LIFO or bounded-1.
    fn cont(&self) -> Cont;
    /// Whether insert and remove linearize on one word.
    fn one_word(&self) -> bool;
}

/// A keyed object viewed at one key, beside two neighbour keys that no
/// operation touches, so the view's node is found by a real traversal.
pub struct Keyed<M>(M, u32);

impl<M: Default + KeyedMoveTarget<u32, Tok>> Keyed<M> {
    fn new(key: u32) -> Self {
        let map = M::default();
        for k in [key - 1, key + 2] {
            map.insert_key_with(k, Tok::MAX, &mut NormalCas);
        }
        Keyed(map, key)
    }
}

impl<M: KeyedMoveSource<u32, Tok>> MoveSource<Tok> for Keyed<M> {
    fn remove_with<C: RemoveCtx<Tok>>(&self, ctx: &mut C) -> RemoveOutcome<Tok> {
        At::new(&self.0, &self.1).remove_with(ctx)
    }
}

impl<M: KeyedMoveTarget<u32, Tok>> MoveTarget<Tok> for Keyed<M> {
    fn insert_with<C: InsertCtx>(&self, elem: Tok, ctx: &mut C) -> InsertOutcome {
        At::new(&self.0, &self.1).insert_with(elem, ctx)
    }
}

macro_rules! subjects {
    ($($kind:ident($ty:ty) $name:literal = $fresh:expr, $cont:ident, one_word: $one_word:expr;)*) => {
        /// The seven move-ready objects of the matrix.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Kind { $($kind),* }

        /// Every kind, in matrix order.
        pub const KINDS: [Kind; 7] = [$(Kind::$kind),*];

        /// A built object of some kind (a cell builds at most three, so
        /// variant sizes do not matter).
        #[allow(clippy::large_enum_variant)]
        pub enum Obj { $($kind($ty)),* }

        impl Kind {
            /// A fresh, empty object; a keyed one is viewed at `key`.
            pub fn fresh(self, key: u32) -> Obj {
                match self { $(Kind::$kind => Obj::$kind($fresh(key))),* }
            }

            /// The type's name as the matrix shows it; a key view is `At(..)`.
            pub fn name(self) -> &'static str {
                match self { $(Kind::$kind => $name),* }
            }

            fn cont(self) -> Cont {
                match self { $(Kind::$kind => Cont::$cont),* }
            }

            fn one_word(self) -> bool {
                match self { $(Kind::$kind => $one_word),* }
            }
        }

        impl Obj {
            fn kind(&self) -> Kind {
                match self { $(Obj::$kind(_) => Kind::$kind),* }
            }
        }

        impl MoveSource<Tok> for Obj {
            fn remove_with<C: RemoveCtx<Tok>>(&self, ctx: &mut C) -> RemoveOutcome<Tok> {
                match self { $(Obj::$kind(o) => o.remove_with(ctx)),* }
            }
        }

        impl MoveTarget<Tok> for Obj {
            fn insert_with<C: InsertCtx>(&self, elem: Tok, ctx: &mut C) -> InsertOutcome {
                match self { $(Obj::$kind(o) => o.insert_with(elem, ctx)),* }
            }
        }
    };
}

subjects! {
    Queue(MsQueue<Tok>) "MsQueue" = |_| MsQueue::new(), Fifo, one_word: false;
    Stack(TreiberStack<Tok>) "TreiberStack" = |_| TreiberStack::new(), Lifo, one_word: true;
    Slot(OneSlot<Tok>) "OneSlot" = |_| OneSlot::new(), Bounded1, one_word: true;
    Stamped(StampedStack<Tok>) "StampedStack" = |_| StampedStack::new(), Lifo, one_word: true;
    Set(Keyed<OrderedSet<u32, Tok>>) "At(OrderedSet)" = Keyed::new, Bounded1, one_word: false;
    Hash(Keyed<LfHashMap<u32, Tok>>) "At(LfHashMap)" = Keyed::new, Bounded1, one_word: false;
    Skip(Keyed<LfSkipMap<u32, Tok>>) "At(LfSkipMap)" = Keyed::new, Bounded1, one_word: false;
}

impl Kind {
    /// Whether this is a keyed object viewed at one key.
    fn keyed(self) -> bool {
        matches!(self, Kind::Set | Kind::Hash | Kind::Skip)
    }
}

impl Subject for Obj {
    fn cont(&self) -> Cont {
        self.kind().cont()
    }

    fn one_word(&self) -> bool {
        self.kind().one_word()
    }
}

/// Sabotage: a source that commits its inner remove with a plain CAS and
/// only then hands the composition a no-op capture, splitting the unified
/// linearization point in two. A composed move that then fails or is
/// refused has already lost the element.
pub struct Torn(pub Obj);

impl MoveSource<Tok> for Torn {
    fn remove_with<C: RemoveCtx<Tok>>(&self, ctx: &mut C) -> RemoveOutcome<Tok> {
        struct Early<'c, C>(&'c mut C);
        impl<C: RemoveCtx<Tok>> RemoveCtx<Tok> for Early<'_, C> {
            fn scas(&mut self, lp: LinPoint<'_>, elem: &Tok) -> ScasResult {
                if !lp.word.cas_word(lp.old, lp.new) {
                    return ScasResult::Fail;
                }
                let (word, hp, new) = (lp.word, lp.hp, lp.new);
                self.0.scas(
                    LinPoint {
                        word,
                        old: new,
                        new,
                        hp,
                    },
                    elem,
                )
            }
        }
        self.0.remove_with(&mut Early(ctx))
    }
}

impl MoveTarget<Tok> for Torn {
    fn insert_with<C: InsertCtx>(&self, elem: Tok, ctx: &mut C) -> InsertOutcome {
        self.0.insert_with(elem, ctx)
    }
}

impl Subject for Torn {
    fn cont(&self) -> Cont {
        self.0.cont()
    }

    fn one_word(&self) -> bool {
        self.0.one_word()
    }
}

/// The composition shapes of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `move_one(src, dst)` and back.
    MoveOne,
    /// `swap(src, dst)`, racing `move_one(src, dst)`.
    Swap,
    /// `move_to_all(src, [dst, dst'])` into two objects of the target type.
    MoveToAll,
}

/// The source view's key; a target view uses it too ("same key") or the
/// next one ("re-key").
pub const KEY: u32 = 7;

/// A built cell: objects of one source × target pair under one shape, the
/// spec it must agree with, and the token accounting.
pub trait Run: Sync {
    /// An operation with its observed outcome.
    type Op: Clone + Debug + Send;
    /// The sequential specification of the cell.
    type Spec: Spec<Op = Self::Op>;
    /// The spec, from the subjects' declarations.
    fn spec(&self) -> Self::Spec;
    /// Run one operation drawn by `dice`, inserting `tok` if it inserts.
    fn step(&self, dice: u64, tok: Tok) -> Self::Op;
    /// Remove everything left, down to one observed empty remove each.
    fn drain(&self) -> Vec<Self::Op>;
    /// Whether a complete log (drain included) conserves every token.
    fn conserved(&self, log: &[Self::Op]) -> Result<(), String>;
}

fn ins(x: &impl Subject, v: Tok) -> bool {
    x.insert_with(v, &mut NormalCas) == InsertOutcome::Inserted
}

fn rem(x: &impl Subject) -> Option<Tok> {
    match x.remove_with(&mut NormalCas) {
        RemoveOutcome::Removed(v) => Some(v),
        RemoveOutcome::Empty => None,
        RemoveOutcome::Aborted => unreachable!("a plain remove never aborts"),
    }
}

fn drain_into<O>(x: &impl Subject, op: fn(Option<Tok>) -> O, log: &mut Vec<O>) {
    loop {
        let got = rem(x);
        log.push(op(got));
        if got.is_none() {
            return;
        }
    }
}

/// Every token listed once in `outs` per appearance in `ins`, sorted.
fn same_tokens(mut ins: Vec<Tok>, mut outs: Vec<Tok>, what: &str) -> Result<(), String> {
    ins.sort_unstable();
    outs.sort_unstable();
    if ins == outs {
        return Ok(());
    }
    let lost: Vec<_> = ins.iter().filter(|t| !outs.contains(t)).take(8).collect();
    let extra: Vec<_> = outs.iter().filter(|t| !ins.contains(t)).take(8).collect();
    Err(format!(
        "{what}: {} in, {} out; lost {lost:?}, appeared {extra:?}",
        ins.len(),
        outs.len()
    ))
}

/// `move_one` or `swap` between `a` and `b`.
pub struct Pair<A, B> {
    pub a: A,
    pub b: B,
    pub shape: Shape,
}

impl<A: Subject, B: Subject> Run for Pair<A, B> {
    type Op = PairOp;
    type Spec = PairSpec;

    fn spec(&self) -> PairSpec {
        PairSpec {
            one_word: [self.a.one_word(), self.b.one_word()],
            ..PairSpec::new(self.a.cont(), self.b.cont())
        }
    }

    fn step(&self, dice: u64, tok: Tok) -> PairOp {
        let (a, b) = (&self.a, &self.b);
        let moved = |o, ok: fn(bool) -> PairOp, full| match o {
            MoveOutcome::Moved => ok(true),
            MoveOutcome::SourceEmpty => ok(false),
            MoveOutcome::TargetRejected => full,
            MoveOutcome::WouldAlias => panic!("distinct objects cannot alias"),
        };
        // Under `Swap`, die 4 swaps and die 5 moves A → B, so swaps race
        // moves as well as inserts and removes.
        match (dice % 6, self.shape) {
            (0, _) if ins(a, tok) => PairOp::InsA(tok),
            (0, _) => PairOp::InsAFull(tok),
            (1, _) if ins(b, tok) => PairOp::InsB(tok),
            (1, _) => PairOp::InsBFull(tok),
            (2, _) => PairOp::RemA(rem(a)),
            (3, _) => PairOp::RemB(rem(b)),
            (4, Shape::Swap) => PairOp::Swap(match swap(a, b) {
                SwapOutcome::Swapped => SwapResult::Swapped,
                SwapOutcome::FirstEmpty => SwapResult::FirstEmpty,
                SwapOutcome::SecondEmpty => SwapResult::SecondEmpty,
                SwapOutcome::Rejected => SwapResult::Rejected,
                SwapOutcome::WouldAlias => SwapResult::WouldAlias,
            }),
            (4, _) | (5, Shape::Swap) => moved(move_one(a, b), PairOp::MoveAB, PairOp::MoveABFull),
            _ => moved(move_one(b, a), PairOp::MoveBA, PairOp::MoveBAFull),
        }
    }

    fn drain(&self) -> Vec<PairOp> {
        let mut log = Vec::new();
        drain_into(&self.a, PairOp::RemA, &mut log);
        drain_into(&self.b, PairOp::RemB, &mut log);
        log
    }

    fn conserved(&self, log: &[PairOp]) -> Result<(), String> {
        let (mut ins, mut outs) = (Vec::new(), Vec::new());
        for op in log {
            match *op {
                PairOp::InsA(v) | PairOp::InsB(v) => ins.push(v),
                PairOp::RemA(Some(v)) | PairOp::RemB(Some(v)) => outs.push(v),
                _ => {}
            }
        }
        same_tokens(ins, outs, "inserted vs removed")
    }
}

/// `move_to_all` from `a` into `b` and `c`.
pub struct Trio<A, B> {
    pub a: A,
    pub b: B,
    pub c: B,
}

impl<A: Subject, B: Subject> Run for Trio<A, B> {
    type Op = TrioOp;
    type Spec = TrioSpec;

    fn spec(&self) -> TrioSpec {
        TrioSpec {
            a: self.a.cont(),
            b: self.b.cont(),
            c: self.c.cont(),
        }
    }

    fn step(&self, dice: u64, tok: Tok) -> TrioOp {
        match dice % 7 {
            0 | 1 if ins(&self.a, tok) => TrioOp::InsA(tok),
            0 | 1 => TrioOp::InsAFull(tok),
            2 => TrioOp::RemA(rem(&self.a)),
            3 => TrioOp::RemB(rem(&self.b)),
            4 => TrioOp::RemC(rem(&self.c)),
            _ => match move_to_all(&self.a, &[&self.b, &self.c]) {
                MoveOutcome::Moved => TrioOp::Broadcast(true),
                MoveOutcome::SourceEmpty => TrioOp::Broadcast(false),
                MoveOutcome::TargetRejected => TrioOp::BroadcastFull,
                MoveOutcome::WouldAlias => panic!("distinct objects cannot alias"),
            },
        }
    }

    fn drain(&self) -> Vec<TrioOp> {
        let mut log = Vec::new();
        drain_into(&self.a, TrioOp::RemA, &mut log);
        drain_into(&self.b, TrioOp::RemB, &mut log);
        drain_into(&self.c, TrioOp::RemC, &mut log);
        log
    }

    /// Every inserted token left the source exactly once, or reached both
    /// targets exactly once each: never a strict subset, never twice.
    fn conserved(&self, log: &[TrioOp]) -> Result<(), String> {
        let (mut ins, mut out_a, mut out_b, mut out_c) = (vec![], vec![], vec![], vec![]);
        for op in log {
            match *op {
                TrioOp::InsA(v) => ins.push(v),
                TrioOp::RemA(Some(v)) => out_a.push(v),
                TrioOp::RemB(Some(v)) => out_b.push(v),
                TrioOp::RemC(Some(v)) => out_c.push(v),
                _ => {}
            }
        }
        same_tokens(out_b.clone(), out_c, "target B vs target C")?;
        out_a.extend(out_b);
        same_tokens(ins, out_a, "inserted vs left the source")
    }
}

/// A cell's objects: the source view at [`KEY`], each target view at the
/// same key or, with `rekey`, the next one.
pub fn pair(src: Kind, dst: Kind, shape: Shape, rekey: bool) -> Pair<Obj, Obj> {
    let key = KEY + rekey as u32;
    Pair {
        a: src.fresh(KEY),
        b: dst.fresh(key),
        shape,
    }
}

/// See [`pair`].
pub fn trio(src: Kind, dst: Kind, rekey: bool) -> Trio<Obj, Obj> {
    let key = KEY + rekey as u32;
    Trio {
        a: src.fresh(KEY),
        b: dst.fresh(key),
        c: dst.fresh(key),
    }
}

/// Unique token `i` of thread `t`.
fn tok(t: usize, i: usize) -> Tok {
    ((t as Tok) << 20 | i as Tok) + 1
}

fn agree<S: Spec>(spec: &S, log: &[S::Op]) -> Result<(), String>
where
    S::Op: Debug,
{
    let mut st = spec.init();
    for (i, op) in log.iter().enumerate() {
        st = spec.apply(&st, op).ok_or_else(|| {
            format!(
                "{op:?} disagrees with the spec after {:?}",
                &log[i.saturating_sub(8)..i]
            )
        })?;
    }
    Ok(())
}

/// Check 1: `ops` random operations on one thread, then the drain, each
/// outcome the one the spec allows.
pub fn sequential<R: Run>(run: &R, seed: u64, ops: usize) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut log: Vec<R::Op> = (0..ops)
        .map(|i| run.step(rng.next_u64(), tok(0, i)))
        .collect();
    log.extend(run.drain());
    agree(&run.spec(), &log)
}

/// Check 2: `threads` threads of `ops` random operations each while the
/// calling thread forces epoch advances and reclamation scans; then every
/// token must be accounted for.
pub fn conserve<R: Run>(run: &R, threads: usize, ops: usize, seed: u64) -> Result<(), String> {
    let mut log: Vec<R::Op> = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                sc.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed + t as u64);
                    (0..ops)
                        .map(|i| run.step(rng.next_u64(), tok(t, i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        while workers.iter().any(|w| !w.is_finished()) {
            lfc_hazard::advance_epoch();
            lfc_hazard::flush();
            std::thread::yield_now();
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    log.extend(run.drain());
    run.conserved(&log)
}

/// Check 3: a small recorded history of `threads` threads, drain
/// included, must linearize against the spec.
pub fn recorded<R: Run>(run: &R, threads: usize, ops: usize, seed: u64) -> Result<(), String> {
    let rec = Recorder::new();
    std::thread::scope(|sc| {
        for t in 0..threads {
            let rec = &rec;
            sc.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed + t as u64);
                for i in 0..ops {
                    rec.record(|| run.step(rng.next_u64(), tok(t, i)));
                }
            });
        }
    });
    for op in run.drain() {
        rec.record(|| op);
    }
    let h = rec.finish();
    if check_linearizable(&run.spec(), &h).is_linearizable() {
        Ok(())
    } else {
        Err(format!("not linearizable:\n{}", render_history(&h)))
    }
}

/// The three checks on fresh objects from `build(rekey)`: the sequential
/// one once per key choice in `keys`, the concurrent two on the last.
fn checks<R: Run>(build: impl Fn(bool) -> R, keys: &[bool], seed: u64) -> Result<(), String> {
    for &rekey in keys {
        sequential(&build(rekey), seed, 80).map_err(|e| format!("sequential: {e}"))?;
    }
    let rekey = keys[keys.len() - 1];
    conserve(&build(rekey), 2, 100, seed).map_err(|e| format!("conservation: {e}"))?;
    recorded(&build(rekey), 2, 5, seed).map_err(|e| format!("history: {e}"))
}

/// The three checks on the cell `src × dst` of `shape`. A keyed target is
/// viewed at the source's key and, re-keyed, at the next one.
pub fn check_cell(src: Kind, dst: Kind, shape: Shape, seed: u64) -> Result<(), String> {
    let keys: &[bool] = if dst.keyed() {
        &[false, true]
    } else {
        &[false]
    };
    match shape {
        Shape::MoveToAll => checks(|rekey| trio(src, dst, rekey), keys, seed),
        _ => checks(|rekey| pair(src, dst, shape, rekey), keys, seed),
    }
}

/// The verdict of `shape` on the cell `src × dst` when every object holds
/// a token (composes, `WouldAlias` or rejects), checked against the spec.
pub fn loaded(src: Kind, dst: Kind, shape: Shape) -> Result<&'static str, String> {
    fn last<R: Run>(run: R, dice: &[u64]) -> Result<String, String> {
        let log: Vec<R::Op> = dice.iter().zip(1..).map(|(&d, t)| run.step(d, t)).collect();
        agree(&run.spec(), &log)?;
        Ok(format!("{:?}", log.last().unwrap()))
    }
    // Pair: insert into each side, then the shape. Trio: a broadcast
    // loads both targets, a second insert the source, then the shape.
    let op = match shape {
        Shape::MoveToAll => last(trio(src, dst, false), &[0, 6, 0, 6])?,
        _ => last(pair(src, dst, shape, false), &[0, 1, 4])?,
    };
    Ok(match op.as_str() {
        "MoveAB(true)" | "Swap(Swapped)" | "Broadcast(true)" => "composes",
        "MoveABFull" | "Swap(Rejected)" | "BroadcastFull" => "rejects",
        "Swap(WouldAlias)" => "`WouldAlias`",
        other => return Err(format!("unexpected verdict {other}")),
    })
}
