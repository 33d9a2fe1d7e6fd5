//! Sequential specifications: FIFO queue, LIFO stack, and the *composed
//! pair* specification in which a move is a single atomic action — the
//! property the paper's methodology provides.

use crate::Spec;
use std::collections::VecDeque;

/// Queue operations with observed outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    /// `enqueue(v)`.
    Enq(u32),
    /// `dequeue() -> v?`.
    Deq(Option<u32>),
}

/// FIFO queue specification.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueSpec;

impl Spec for QueueSpec {
    type State = VecDeque<u32>;
    type Op = QueueOp;

    fn init(&self) -> Self::State {
        VecDeque::new()
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> Option<Self::State> {
        let mut s = state.clone();
        match op {
            QueueOp::Enq(v) => {
                s.push_back(*v);
                Some(s)
            }
            QueueOp::Deq(expected) => {
                let got = s.pop_front();
                (got == *expected).then_some(s)
            }
        }
    }
}

/// Stack operations with observed outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackOp {
    /// `push(v)`.
    Push(u32),
    /// `pop() -> v?`.
    Pop(Option<u32>),
}

/// LIFO stack specification.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackSpec;

impl Spec for StackSpec {
    type State = Vec<u32>;
    type Op = StackOp;

    fn init(&self) -> Self::State {
        Vec::new()
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> Option<Self::State> {
        let mut s = state.clone();
        match op {
            StackOp::Push(v) => {
                s.push(*v);
                Some(s)
            }
            StackOp::Pop(expected) => {
                let got = s.pop();
                (got == *expected).then_some(s)
            }
        }
    }
}

/// Container discipline for one side of a composed pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cont {
    /// FIFO (queue) semantics.
    Fifo,
    /// LIFO (stack) semantics.
    Lifo,
    /// Holds at most one element and refuses an insert while full: a
    /// one-element slot, or a keyed object viewed at one key (a duplicate
    /// key is the refusal).
    Bounded1,
}

/// A container state with either discipline.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ContState {
    kind: Cont,
    items: VecDeque<u32>,
}

impl ContState {
    fn new(kind: Cont) -> Self {
        ContState {
            kind,
            items: VecDeque::new(),
        }
    }

    fn is_full(&self) -> bool {
        self.kind == Cont::Bounded1 && !self.items.is_empty()
    }

    /// `false` (and no change) when a bounded container is full.
    fn insert(&mut self, v: u32) -> bool {
        let room = !self.is_full();
        if room {
            self.items.push_back(v);
        }
        room
    }

    fn remove(&mut self) -> Option<u32> {
        match self.kind {
            Cont::Fifo | Cont::Bounded1 => self.items.pop_front(),
            Cont::Lifo => self.items.pop_back(),
        }
    }
}

/// Observed outcome of a composed swap (one element each way).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapResult {
    /// Both removes found an element; they changed places atomically.
    Swapped,
    /// The first container was observed empty (second untouched).
    FirstEmpty,
    /// The first container held an element but the second was empty.
    SecondEmpty,
    /// Both held an element, but a reinsert was refused: a bounded side
    /// still counts its own outgoing element while the swap is in flight.
    Rejected,
    /// Both held an element, but a side's insert and remove linearize on
    /// one word, which a k-word CAS cannot express. Nothing changed.
    WouldAlias,
}

/// Operations on a pair of containers (A, B) with an atomic move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairOp {
    /// Insert into A.
    InsA(u32),
    /// Insert into A refused: A is a full bounded container.
    InsAFull(u32),
    /// Remove from A with the observed outcome.
    RemA(Option<u32>),
    /// Insert into B.
    InsB(u32),
    /// Insert into B refused.
    InsBFull(u32),
    /// Remove from B with the observed outcome.
    RemB(Option<u32>),
    /// Composed move; `true` if an element moved, `false` if the source was
    /// observed empty. The move is ONE action in the sequential history —
    /// the linearization-point unification the paper provides.
    MoveAB(bool),
    /// Move in the other direction.
    MoveBA(bool),
    /// Composed move A → B refused by a full bounded B: nothing changed.
    MoveABFull,
    /// Composed move B → A refused by a full bounded A.
    MoveBAFull,
    /// Composed swap (A's removal inserted into B and vice versa): four
    /// linearization points, ONE action in the sequential history.
    Swap(SwapResult),
}

/// Specification of two containers composed with an atomic move.
#[derive(Clone, Copy, Debug)]
pub struct PairSpec {
    /// Discipline of container A.
    pub a: Cont,
    /// Discipline of container B.
    pub b: Cont,
    /// Whether A's and B's insert and remove linearize on one word (a
    /// stack's `top`): a swap then reports [`SwapResult::WouldAlias`].
    pub one_word: [bool; 2],
}

impl PairSpec {
    /// The spec of two containers whose inserts and removes linearize on
    /// distinct words.
    pub fn new(a: Cont, b: Cont) -> Self {
        PairSpec {
            a,
            b,
            one_word: [false; 2],
        }
    }

    /// The verdict of a swap that found both containers non-empty. Its
    /// inserts run while both removes are still pending, A's first: a
    /// bounded side is still full, and a one-word side aliases.
    fn loaded_swap(&self) -> SwapResult {
        for (cont, one_word) in [(self.a, self.one_word[0]), (self.b, self.one_word[1])] {
            if cont == Cont::Bounded1 {
                return SwapResult::Rejected;
            }
            if one_word {
                return SwapResult::WouldAlias;
            }
        }
        SwapResult::Swapped
    }
}

/// Apply a composed move from `src` to `dst` with the observed verdict
/// (`Some(moved)`, or `None` for a refusal by a full `dst`); `false` when
/// the verdict contradicts the state.
fn apply_move(src: &mut ContState, dst: &mut ContState, verdict: Option<bool>) -> bool {
    match (verdict, src.items.is_empty(), dst.is_full()) {
        (Some(false), true, _) => true,
        (None, false, true) => true,
        (Some(true), false, false) => {
            let v = src.remove().expect("non-empty");
            dst.insert(v)
        }
        _ => false,
    }
}

impl Spec for PairSpec {
    type State = (ContState, ContState);
    type Op = PairOp;

    fn init(&self) -> Self::State {
        (ContState::new(self.a), ContState::new(self.b))
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> Option<Self::State> {
        let (mut a, mut b) = state.clone();
        let ok = match *op {
            PairOp::InsA(v) => a.insert(v),
            PairOp::InsB(v) => b.insert(v),
            PairOp::InsAFull(_) => a.is_full(),
            PairOp::InsBFull(_) => b.is_full(),
            PairOp::RemA(expected) => a.remove() == expected,
            PairOp::RemB(expected) => b.remove() == expected,
            PairOp::MoveAB(moved) => apply_move(&mut a, &mut b, Some(moved)),
            PairOp::MoveBA(moved) => apply_move(&mut b, &mut a, Some(moved)),
            PairOp::MoveABFull => apply_move(&mut a, &mut b, None),
            PairOp::MoveBAFull => apply_move(&mut b, &mut a, None),
            PairOp::Swap(r) => {
                let loaded = !a.items.is_empty() && !b.items.is_empty();
                match r {
                    // Only a completed swap changes anything; every other
                    // verdict is legal exactly when it holds in `state`.
                    SwapResult::FirstEmpty => a.items.is_empty(),
                    SwapResult::SecondEmpty => !a.items.is_empty() && b.items.is_empty(),
                    r if !loaded || r != self.loaded_swap() => false,
                    SwapResult::Swapped => {
                        let (x, y) = (a.remove().unwrap(), b.remove().unwrap());
                        a.insert(y) && b.insert(x)
                    }
                    _ => true,
                }
            }
        };
        ok.then_some((a, b))
    }
}

/// Operations on a pair of *keyed* containers (A, B) with an atomic keyed
/// move — the §1.1 hash-map/list scenario. Values are the keys themselves
/// (set semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyedPairOp {
    /// Insert key into A; observed acceptance (false = duplicate).
    InsA(u32, bool),
    /// Insert key into B; observed acceptance.
    InsB(u32, bool),
    /// Remove key from A; observed presence.
    RemA(u32, bool),
    /// Remove key from B; observed presence.
    RemB(u32, bool),
    /// Move key from A to B; the recorded [`KeyedMoveResult`].
    MoveAB(u32, KeyedMoveResult),
    /// Move key from B to A.
    MoveBA(u32, KeyedMoveResult),
}

/// Observed outcome of a keyed move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyedMoveResult {
    /// Key left the source and arrived in the target atomically.
    Moved,
    /// Key was absent from the source.
    Absent,
    /// Target already held the key; nothing changed.
    Duplicate,
}

/// Specification of two keyed sets composed with an atomic keyed move.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyedPairSpec;

impl Spec for KeyedPairSpec {
    type State = (
        std::collections::BTreeSet<u32>,
        std::collections::BTreeSet<u32>,
    );
    type Op = KeyedPairOp;

    fn init(&self) -> Self::State {
        (Default::default(), Default::default())
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> Option<Self::State> {
        let (mut a, mut b) = state.clone();
        let ok = match *op {
            KeyedPairOp::InsA(k, accepted) => a.insert(k) == accepted,
            KeyedPairOp::InsB(k, accepted) => b.insert(k) == accepted,
            KeyedPairOp::RemA(k, present) => a.remove(&k) == present,
            KeyedPairOp::RemB(k, present) => b.remove(&k) == present,
            KeyedPairOp::MoveAB(k, r) => match r {
                KeyedMoveResult::Moved => a.remove(&k) && b.insert(k),
                KeyedMoveResult::Absent => !a.contains(&k),
                KeyedMoveResult::Duplicate => a.contains(&k) && b.contains(&k),
            },
            KeyedPairOp::MoveBA(k, r) => match r {
                KeyedMoveResult::Moved => b.remove(&k) && a.insert(k),
                KeyedMoveResult::Absent => !b.contains(&k),
                KeyedMoveResult::Duplicate => b.contains(&k) && a.contains(&k),
            },
        };
        ok.then_some((a, b))
    }
}

/// Operations on a single keyed map (insert-if-absent semantics, as the
/// `LfHashMap` structure implements them) with observed outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapOp {
    /// `insert(k, v)`; observed acceptance (`false` = key was present).
    Insert(u32, u32, bool),
    /// `remove(k) -> v?`.
    Remove(u32, Option<u32>),
    /// `get(k) -> v?` (a read-only observer).
    Get(u32, Option<u32>),
}

/// Sequential specification of a keyed map with insert-if-absent.
#[derive(Clone, Copy, Debug, Default)]
pub struct MapSpec;

impl Spec for MapSpec {
    type State = std::collections::BTreeMap<u32, u32>;
    type Op = MapOp;

    fn init(&self) -> Self::State {
        Default::default()
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> Option<Self::State> {
        let mut s = state.clone();
        let ok = match *op {
            MapOp::Insert(k, v, accepted) => match s.entry(k) {
                std::collections::btree_map::Entry::Occupied(_) => !accepted,
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v);
                    accepted
                }
            },
            MapOp::Remove(k, expected) => s.remove(&k) == expected,
            MapOp::Get(k, expected) => s.get(&k).copied() == expected,
        };
        ok.then_some(s)
    }
}

/// Operations on a bounded one-element slot with observed outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOp {
    /// `put(v)`; observed acceptance (`false` = slot was occupied — the
    /// bounded-container rejection that exercises move aborts).
    Put(u32, bool),
    /// `take() -> v?`.
    Take(Option<u32>),
    /// `peek() -> v?` (non-destructive observer).
    Peek(Option<u32>),
}

/// Sequential specification of a one-element slot.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlotSpec;

impl Spec for SlotSpec {
    type State = Option<u32>;
    type Op = SlotOp;

    fn init(&self) -> Self::State {
        None
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> Option<Self::State> {
        match *op {
            SlotOp::Put(v, accepted) => match (state, accepted) {
                (None, true) => Some(Some(v)),
                (Some(_), false) => Some(*state),
                _ => None,
            },
            SlotOp::Take(expected) => (*state == expected).then_some(None),
            SlotOp::Peek(expected) => (*state == expected).then_some(*state),
        }
    }
}

/// Operations on a source container A broadcast-composed with two targets
/// (B, C) — the sequential specification of `move_to_all` with two targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrioOp {
    /// Insert into the source A.
    InsA(u32),
    /// Insert into A refused: A is a full bounded container.
    InsAFull(u32),
    /// Remove from A with the observed outcome.
    RemA(Option<u32>),
    /// Remove from target B.
    RemB(Option<u32>),
    /// Remove from target C.
    RemC(Option<u32>),
    /// Composed broadcast A → {B, C}; `true` if an element moved (a clone
    /// arrives in BOTH targets at the same single action), `false` if A was
    /// observed empty. An observer must never see the element in a strict
    /// subset of the targets.
    Broadcast(bool),
    /// Composed broadcast refused by a full bounded target: nothing
    /// changed anywhere.
    BroadcastFull,
}

/// Specification of a source and two targets composed with `move_to_all`.
#[derive(Clone, Copy, Debug)]
pub struct TrioSpec {
    /// Discipline of the source A.
    pub a: Cont,
    /// Discipline of target B.
    pub b: Cont,
    /// Discipline of target C.
    pub c: Cont,
}

impl Spec for TrioSpec {
    type State = (ContState, ContState, ContState);
    type Op = TrioOp;

    fn init(&self) -> Self::State {
        (
            ContState::new(self.a),
            ContState::new(self.b),
            ContState::new(self.c),
        )
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> Option<Self::State> {
        let (mut a, mut b, mut c) = state.clone();
        let ok = match *op {
            TrioOp::InsA(v) => a.insert(v),
            TrioOp::InsAFull(_) => a.is_full(),
            TrioOp::RemA(expected) => a.remove() == expected,
            TrioOp::RemB(expected) => b.remove() == expected,
            TrioOp::RemC(expected) => c.remove() == expected,
            TrioOp::Broadcast(false) => a.items.is_empty(),
            TrioOp::BroadcastFull => !a.items.is_empty() && (b.is_full() || c.is_full()),
            TrioOp::Broadcast(true) => match a.remove() {
                Some(v) => b.insert(v) && c.insert(v),
                None => false,
            },
        };
        ok.then_some((a, b, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_linearizable, CheckResult};
    use crate::history::Entry;

    fn e(op: PairOp, invoke: u64, ret: u64) -> Entry<PairOp> {
        Entry::new(op, invoke, ret)
    }

    #[test]
    fn queue_spec_fifo() {
        let s = QueueSpec;
        let st = s.init();
        let st = s.apply(&st, &QueueOp::Enq(1)).unwrap();
        let st = s.apply(&st, &QueueOp::Enq(2)).unwrap();
        assert!(s.apply(&st, &QueueOp::Deq(Some(2))).is_none());
        let st = s.apply(&st, &QueueOp::Deq(Some(1))).unwrap();
        let st = s.apply(&st, &QueueOp::Deq(Some(2))).unwrap();
        assert!(s.apply(&st, &QueueOp::Deq(Some(0))).is_none());
        assert!(s.apply(&st, &QueueOp::Deq(None)).is_some());
    }

    #[test]
    fn stack_spec_lifo() {
        let s = StackSpec;
        let st = s.init();
        let st = s.apply(&st, &StackOp::Push(1)).unwrap();
        let st = s.apply(&st, &StackOp::Push(2)).unwrap();
        assert!(s.apply(&st, &StackOp::Pop(Some(1))).is_none());
        let st = s.apply(&st, &StackOp::Pop(Some(2))).unwrap();
        assert!(s.apply(&st, &StackOp::Pop(None)).is_none());
        assert!(s.apply(&st, &StackOp::Pop(Some(1))).is_some());
    }

    #[test]
    fn pair_move_transfers_respecting_disciplines() {
        let spec = PairSpec::new(Cont::Fifo, Cont::Lifo);
        let st = spec.init();
        let st = spec.apply(&st, &PairOp::InsA(1)).unwrap();
        let st = spec.apply(&st, &PairOp::InsA(2)).unwrap();
        // Move takes A's FIFO head (1) and pushes it on B.
        let st = spec.apply(&st, &PairOp::MoveAB(true)).unwrap();
        let st = spec.apply(&st, &PairOp::RemB(Some(1))).unwrap();
        let st = spec.apply(&st, &PairOp::RemA(Some(2))).unwrap();
        assert!(spec.apply(&st, &PairOp::MoveAB(true)).is_none(), "A empty");
        assert!(spec.apply(&st, &PairOp::MoveAB(false)).is_some());
    }

    #[test]
    fn absent_from_both_during_move_is_not_linearizable() {
        // One element in A. A successful move A->B spans the whole window.
        // Inside it, RemB -> None completes strictly before RemA -> None
        // begins. RemB=None forces the move to linearize after RemB; RemA=None
        // forces it before RemA; but RemB finished before RemA started, so
        // there is no single point for the move: the element would have been
        // absent from both containers — exactly the intermediate state the
        // paper's Figure 1c shows and the methodology eliminates.
        let spec = PairSpec::new(Cont::Fifo, Cont::Fifo);
        let h = vec![
            e(PairOp::InsA(7), 0, 1),
            e(PairOp::MoveAB(true), 2, 20),
            e(PairOp::RemA(None), 3, 5),
            e(PairOp::RemB(None), 6, 8),
        ];
        // RemA=None needs move-before-RemA; RemB=None needs move-after-RemB;
        // RemA precedes RemB in real time -> contradiction.
        assert_eq!(check_linearizable(&spec, &h), CheckResult::NotLinearizable);
    }

    #[test]
    fn present_in_exactly_one_is_linearizable() {
        // Same window, but the observers see a consistent single location:
        // RemB->None (before the move linearizes) then RemA->Some(7) would
        // conflict with the move succeeding; instead observe RemB->None and
        // let the move linearize afterwards.
        let spec = PairSpec::new(Cont::Fifo, Cont::Fifo);
        let h = vec![
            e(PairOp::InsA(7), 0, 1),
            e(PairOp::MoveAB(true), 2, 20),
            e(PairOp::RemB(None), 3, 5),
            e(PairOp::RemB(Some(7)), 6, 19),
        ];
        assert!(check_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn swap_spec_semantics() {
        let spec = PairSpec::new(Cont::Fifo, Cont::Fifo);
        let st = spec.init();
        assert!(spec
            .apply(&st, &PairOp::Swap(SwapResult::Swapped))
            .is_none());
        let st = spec
            .apply(&st, &PairOp::Swap(SwapResult::FirstEmpty))
            .unwrap();
        let st = spec.apply(&st, &PairOp::InsA(1)).unwrap();
        assert!(spec
            .apply(&st, &PairOp::Swap(SwapResult::FirstEmpty))
            .is_none());
        let st = spec
            .apply(&st, &PairOp::Swap(SwapResult::SecondEmpty))
            .unwrap();
        let st = spec.apply(&st, &PairOp::InsB(2)).unwrap();
        let st = spec.apply(&st, &PairOp::Swap(SwapResult::Swapped)).unwrap();
        let st = spec.apply(&st, &PairOp::RemA(Some(2))).unwrap();
        let st = spec.apply(&st, &PairOp::RemB(Some(1))).unwrap();
        let _ = st;
    }

    #[test]
    fn bounded_side_refuses_and_one_word_side_aliases() {
        let spec = PairSpec::new(Cont::Fifo, Cont::Bounded1);
        let st = spec.init();
        let st = spec.apply(&st, &PairOp::InsB(1)).unwrap();
        assert!(spec.apply(&st, &PairOp::InsB(2)).is_none(), "B is full");
        let st = spec.apply(&st, &PairOp::InsBFull(2)).unwrap();
        assert!(spec.apply(&st, &PairOp::MoveABFull).is_none(), "A empty");
        let st = spec.apply(&st, &PairOp::InsA(3)).unwrap();
        assert!(spec.apply(&st, &PairOp::MoveAB(true)).is_none());
        let st = spec.apply(&st, &PairOp::MoveABFull).unwrap();
        // Both loaded: the bounded side still holds its own element when
        // the swap reinserts into it.
        assert!(spec
            .apply(&st, &PairOp::Swap(SwapResult::Swapped))
            .is_none());
        let st = spec
            .apply(&st, &PairOp::Swap(SwapResult::Rejected))
            .unwrap();
        let st = spec.apply(&st, &PairOp::RemB(Some(1))).unwrap();
        let _ = spec.apply(&st, &PairOp::MoveAB(true)).unwrap();

        let stacks = PairSpec {
            one_word: [true, true],
            ..PairSpec::new(Cont::Lifo, Cont::Lifo)
        };
        let st = stacks.init();
        let st = stacks.apply(&st, &PairOp::InsA(1)).unwrap();
        assert!(stacks
            .apply(&st, &PairOp::Swap(SwapResult::WouldAlias))
            .is_none());
        let st = stacks.apply(&st, &PairOp::InsB(2)).unwrap();
        assert!(stacks
            .apply(&st, &PairOp::Swap(SwapResult::Swapped))
            .is_none());
        assert!(stacks
            .apply(&st, &PairOp::Swap(SwapResult::WouldAlias))
            .is_some());

        let trio = TrioSpec {
            a: Cont::Fifo,
            b: Cont::Fifo,
            c: Cont::Bounded1,
        };
        let st = trio.init();
        let st = trio.apply(&st, &TrioOp::InsA(1)).unwrap();
        let st = trio.apply(&st, &TrioOp::InsA(2)).unwrap();
        let st = trio.apply(&st, &TrioOp::Broadcast(true)).unwrap();
        assert!(
            trio.apply(&st, &TrioOp::Broadcast(true)).is_none(),
            "C full"
        );
        let st = trio.apply(&st, &TrioOp::BroadcastFull).unwrap();
        assert!(trio.apply(&st, &TrioOp::RemC(Some(1))).is_some());
    }

    #[test]
    fn torn_swap_is_not_linearizable() {
        // a=[1], b=[2]; a successful swap spans the window. Inside it an
        // observer removes 1 from a and then 2 from a — but 2 can only be
        // in a after the swap, and the swap needs 1 still in a: no single
        // point exists.
        let spec = PairSpec::new(Cont::Fifo, Cont::Fifo);
        let h = vec![
            e(PairOp::InsA(1), 0, 1),
            e(PairOp::InsB(2), 2, 3),
            e(PairOp::Swap(SwapResult::Swapped), 4, 20),
            e(PairOp::RemA(Some(1)), 5, 7),
            e(PairOp::RemA(Some(2)), 8, 10),
        ];
        assert_eq!(check_linearizable(&spec, &h), CheckResult::NotLinearizable);
        // Control: observing only the post-swap head is linearizable.
        let h = vec![
            e(PairOp::InsA(1), 0, 1),
            e(PairOp::InsB(2), 2, 3),
            e(PairOp::Swap(SwapResult::Swapped), 4, 20),
            e(PairOp::RemA(Some(2)), 5, 7),
        ];
        assert!(check_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn trio_broadcast_in_strict_subset_is_not_linearizable() {
        // One element in A; a successful broadcast spans the window. An
        // observer sees it arrive in B while C is still observed empty
        // *after* B's removal completed: the element was visible in a
        // strict subset of the targets — exactly what move_to_all forbids.
        let spec = TrioSpec {
            a: Cont::Fifo,
            b: Cont::Fifo,
            c: Cont::Fifo,
        };
        let te = Entry::new;
        let h = vec![
            te(TrioOp::InsA(7), 0, 1),
            te(TrioOp::Broadcast(true), 2, 20),
            te(TrioOp::RemB(Some(7)), 3, 5),
            te(TrioOp::RemC(None), 6, 8),
        ];
        assert_eq!(check_linearizable(&spec, &h), CheckResult::NotLinearizable);
        // Control: both targets observed consistently.
        let h = vec![
            te(TrioOp::InsA(7), 0, 1),
            te(TrioOp::Broadcast(true), 2, 20),
            te(TrioOp::RemB(Some(7)), 3, 5),
            te(TrioOp::RemC(Some(7)), 6, 8),
            te(TrioOp::RemA(None), 9, 11),
        ];
        assert!(check_linearizable(&spec, &h).is_linearizable());
    }

    #[test]
    fn keyed_pair_spec_semantics() {
        let spec = KeyedPairSpec;
        let st = spec.init();
        let st = spec.apply(&st, &KeyedPairOp::InsA(1, true)).unwrap();
        assert!(spec.apply(&st, &KeyedPairOp::InsA(1, true)).is_none());
        let st = spec.apply(&st, &KeyedPairOp::InsA(1, false)).unwrap();
        let st = spec
            .apply(&st, &KeyedPairOp::MoveAB(1, KeyedMoveResult::Moved))
            .unwrap();
        assert!(spec
            .apply(&st, &KeyedPairOp::MoveAB(1, KeyedMoveResult::Moved))
            .is_none());
        let st = spec
            .apply(&st, &KeyedPairOp::MoveAB(1, KeyedMoveResult::Absent))
            .unwrap();
        let st = spec.apply(&st, &KeyedPairOp::InsA(1, true)).unwrap();
        let st = spec
            .apply(&st, &KeyedPairOp::MoveAB(1, KeyedMoveResult::Duplicate))
            .unwrap();
        let st = spec.apply(&st, &KeyedPairOp::RemB(1, true)).unwrap();
        assert!(spec.apply(&st, &KeyedPairOp::RemB(1, true)).is_none());
        let _ = st;
    }

    #[test]
    fn keyed_limbo_state_is_not_linearizable() {
        // Key 5 in A; a successful keyed move spans the window; inside it,
        // an observer sees the key in NEITHER container (RemA=false then
        // RemB=false, sequentially). No single move point exists.
        let spec = KeyedPairSpec;
        let h = vec![
            Entry::new(KeyedPairOp::InsA(5, true), 0, 1),
            Entry::new(KeyedPairOp::MoveAB(5, KeyedMoveResult::Moved), 2, 20),
            Entry::new(KeyedPairOp::RemA(5, false), 3, 5),
            Entry::new(KeyedPairOp::RemB(5, false), 6, 8),
        ];
        assert_eq!(check_linearizable(&spec, &h), CheckResult::NotLinearizable);
    }

    #[test]
    fn map_spec_insert_if_absent() {
        let spec = MapSpec;
        let st = spec.init();
        let st = spec.apply(&st, &MapOp::Insert(1, 10, true)).unwrap();
        assert!(spec.apply(&st, &MapOp::Insert(1, 11, true)).is_none());
        let st = spec.apply(&st, &MapOp::Insert(1, 11, false)).unwrap();
        let st = spec.apply(&st, &MapOp::Get(1, Some(10))).unwrap();
        assert!(spec.apply(&st, &MapOp::Get(1, Some(11))).is_none());
        let st = spec.apply(&st, &MapOp::Remove(1, Some(10))).unwrap();
        let st = spec.apply(&st, &MapOp::Remove(1, None)).unwrap();
        assert!(spec.apply(&st, &MapOp::Get(1, Some(10))).is_none());
        let _ = st;
    }

    #[test]
    fn slot_spec_bounded_capacity() {
        let spec = SlotSpec;
        let st = spec.init();
        assert!(
            spec.apply(&st, &SlotOp::Put(1, false)).is_none(),
            "empty accepts"
        );
        let st = spec.apply(&st, &SlotOp::Put(1, true)).unwrap();
        assert!(
            spec.apply(&st, &SlotOp::Put(2, true)).is_none(),
            "occupied rejects"
        );
        let st = spec.apply(&st, &SlotOp::Put(2, false)).unwrap();
        let st = spec.apply(&st, &SlotOp::Peek(Some(1))).unwrap();
        let st = spec.apply(&st, &SlotOp::Take(Some(1))).unwrap();
        let st = spec.apply(&st, &SlotOp::Take(None)).unwrap();
        let _ = st;
    }

    #[test]
    fn slot_full_rejection_window_is_checked() {
        // put(2)->false (rejected) completing before take(1) starts forces
        // the rejection to linearize while the slot still holds 1 — legal;
        // but a rejection after the take completed is not.
        let spec = SlotSpec;
        let h = vec![
            Entry::new(SlotOp::Put(1, true), 0, 1),
            Entry::new(SlotOp::Put(2, false), 2, 3),
            Entry::new(SlotOp::Take(Some(1)), 4, 5),
        ];
        assert!(check_linearizable(&spec, &h).is_linearizable());
        let h = vec![
            Entry::new(SlotOp::Put(1, true), 0, 1),
            Entry::new(SlotOp::Take(Some(1)), 2, 3),
            Entry::new(SlotOp::Put(2, false), 4, 5),
        ];
        assert_eq!(check_linearizable(&spec, &h), CheckResult::NotLinearizable);
    }

    #[test]
    fn duplicated_element_is_not_linearizable() {
        // The element observed in BOTH containers: impossible.
        let spec = PairSpec::new(Cont::Fifo, Cont::Fifo);
        let h = vec![
            e(PairOp::InsA(7), 0, 1),
            e(PairOp::MoveAB(true), 2, 20),
            e(PairOp::RemB(Some(7)), 3, 5),
            e(PairOp::RemA(Some(7)), 6, 8),
        ];
        assert_eq!(check_linearizable(&spec, &h), CheckResult::NotLinearizable);
    }
}
