//! The composition methodology of Cederman & Tsigas: build an atomic,
//! lock-free **move** operation out of any two *move-ready* objects' insert
//! and remove operations by unifying their linearization points (paper §3).
//!
//! # How an object becomes move-ready
//!
//! A move-candidate object (paper Definition 1) exposes its insert and
//! remove through [`MoveTarget::insert_with`] / [`MoveSource::remove_with`],
//! generic over a *linearization context*, and performs three mechanical
//! changes (Definition 2):
//!
//! 1. the CAS at each linearization point becomes a call to the context's
//!    `scas`;
//! 2. the operations abort when `scas` returns [`ScasResult::Abort`]
//!    (freeing any allocated node);
//! 3. every read of a word that could take part in a DCAS goes through
//!    [`lfc_dcas::DAtomic::read`].
//!
//! With the [`NormalCas`] context, `scas` *is* a plain CAS, so `insert_with`
//! / `remove_with` monomorphize back into the object's original operations
//! (the paper keeps a runtime `desc != 0` test instead; hoisting it to the
//! type level preserves the claim that normal operations keep their
//! performance behaviour — validated by the `overhead` benchmark).
//!
//! # The move operation (paper Algorithm 3), generalized
//!
//! [`move_one`] runs the source's remove; at the remove's linearization
//! point the composition engine ([`compose`]) captures the CAS triple
//! instead of executing it and invokes the *target's* insert with the
//! element; at the insert's linearization point the engine captures the
//! second triple and commits both through the unified k-entry commit
//! (`lfc_dcas::commit_entries`, where DCAS is the K=2 specialization).
//! `FIRSTFAILED` redoes both operations, `SECONDFAILED` redoes only the
//! insert — exactly the paper's step 3, and the K=2 instance of the
//! engine's generalized retry rule.
//!
//! Every composed operation — [`move_one`], [`move_keyed`],
//! [`move_to_all`], [`swap`], [`move_keyed_to_all`],
//! [`move_keyed_to_unkeyed`] and user-defined [`compose::Composition`]
//! chains — is a thin wrapper over that one engine.

#![warn(missing_docs)]

pub mod batch;
pub mod compose;
pub mod keyed;
mod sync;

pub use batch::{BatchGate, BatchOp, MoveKeyedOp, MoveKeyedToAllOp, MoveOneOp, SwapOp};
pub use compose::{
    move_keyed, move_keyed_to_all, move_keyed_to_unkeyed, move_one, move_to_all, swap,
    try_move_keyed, try_move_keyed_to_all, try_move_keyed_to_unkeyed, try_move_one,
    try_move_to_all, try_swap, Composition, SwapOutcome, MAX_ENTRIES, MAX_TARGETS,
};
pub use keyed::{KeyedMoveSource, KeyedMoveTarget};

use lfc_dcas::{DAtomic, Word};

/// What an `scas` call tells the enclosing operation to do
/// (the paper's `fbool`: true / false / ABORT).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScasResult {
    /// The linearization CAS took effect: finish the cleanup phase.
    Success,
    /// The CAS failed against concurrent activity: redo the init phase.
    Fail,
    /// The composed operation cannot proceed: undo and return failure.
    Abort,
}

/// A prepared linearization point: the CAS triple the operation *would*
/// have executed, plus the protection helpers need.
#[derive(Debug)]
pub struct LinPoint<'a> {
    /// The word being CASed.
    pub word: &'a DAtomic,
    /// Expected value.
    pub old: Word,
    /// Replacement value.
    pub new: Word,
    /// Base address of the allocation containing `word` (a node, or the
    /// object's heap header), adopted by DCAS helpers before they write
    /// (paper's `hp` argument to `scas`, Lemma 6). Zero if none.
    pub hp: usize,
}

/// Linearization context for remove operations (paper Algorithm 2, the
/// `scas` overload that carries the element being removed).
pub trait RemoveCtx<T> {
    /// Called at the remove's linearization point, with the element that
    /// will be removed if the CAS succeeds (available *before* the
    /// linearization point — move-candidate requirement 4).
    fn scas(&mut self, lp: LinPoint<'_>, elem: &T) -> ScasResult;

    /// Whether the operation driven by this context may linearize through
    /// an *elimination* exchange instead of its structure CAS (PR 7).
    /// `false` for every composed context: a composition's linearization
    /// point must be a captured CAS triple — pair cancellation has no word
    /// to capture. Only [`NormalCas`] (a plain, stand-alone operation)
    /// opts in.
    fn eliminable(&self) -> bool {
        false
    }
}

/// Linearization context for insert operations.
pub trait InsertCtx {
    /// Called at the insert's linearization point.
    fn scas(&mut self, lp: LinPoint<'_>) -> ScasResult;

    /// See [`RemoveCtx::eliminable`].
    fn eliminable(&self) -> bool {
        false
    }
}

/// The identity context: `scas` is a plain CAS (paper lines M20–M21,
/// M38–M39). Normal operations use this.
#[derive(Clone, Copy, Debug, Default)]
pub struct NormalCas;

impl<T> RemoveCtx<T> for NormalCas {
    #[inline]
    fn scas(&mut self, lp: LinPoint<'_>, _elem: &T) -> ScasResult {
        if lp.word.cas_word(lp.old, lp.new) {
            ScasResult::Success
        } else {
            ScasResult::Fail
        }
    }

    #[inline]
    fn eliminable(&self) -> bool {
        true
    }
}

impl InsertCtx for NormalCas {
    #[inline]
    fn scas(&mut self, lp: LinPoint<'_>) -> ScasResult {
        if lp.word.cas_word(lp.old, lp.new) {
            ScasResult::Success
        } else {
            ScasResult::Fail
        }
    }

    #[inline]
    fn eliminable(&self) -> bool {
        true
    }
}

/// Result of a (contextualized) remove.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoveOutcome<T> {
    /// An element was removed.
    Removed(T),
    /// The object was empty (or the key absent).
    Empty,
    /// `scas` demanded an abort: the composed operation cannot complete
    /// (e.g. the move's insert was rejected by a full target).
    Aborted,
}

/// Result of a (contextualized) insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The element is in.
    Inserted,
    /// The object rejected the element (bounded/full, duplicate key, or the
    /// insert aborted on behalf of the composed move).
    Rejected,
}

/// An object whose remove operation is move-ready (paper Definition 2).
pub trait MoveSource<T> {
    /// The object's remove, generic over the linearization context.
    /// `remove_with(&mut NormalCas)` must behave exactly like the object's
    /// ordinary remove operation.
    fn remove_with<C: RemoveCtx<T>>(&self, ctx: &mut C) -> RemoveOutcome<T>;
}

/// An object whose insert operation is move-ready.
pub trait MoveTarget<T> {
    /// The object's insert, generic over the linearization context.
    fn insert_with<C: InsertCtx>(&self, elem: T, ctx: &mut C) -> InsertOutcome;
}

/// Outcome of a composed move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveOutcome {
    /// The element was moved atomically: no concurrent observer could see it
    /// absent from both objects or present in both.
    Moved,
    /// The source had nothing to remove.
    SourceEmpty,
    /// The target permanently rejected the element (e.g. bounded and full).
    TargetRejected,
    /// The two linearization points landed on the *same* memory word (e.g.
    /// a stack moved onto itself), which a two-word CAS cannot express.
    WouldAlias,
}

impl<T, S: MoveSource<T>> MoveSource<T> for &S {
    fn remove_with<C: RemoveCtx<T>>(&self, ctx: &mut C) -> RemoveOutcome<T> {
        (**self).remove_with(ctx)
    }
}

impl<T, D: MoveTarget<T>> MoveTarget<T> for &D {
    fn insert_with<C: InsertCtx>(&self, elem: T, ctx: &mut C) -> InsertOutcome {
        (**self).insert_with(elem, ctx)
    }
}

/// Object-safe bridge for *heterogeneous* target collections: a `&[&dyn
/// DynMoveTarget<T>]` slice can mix queues, stacks and slots in one
/// [`move_to_all`] / [`swap`] call. Implemented for every `MoveTarget<T> +
/// Sync` via the blanket impl; `dyn DynMoveTarget<T>` itself implements
/// [`MoveTarget`], so trait objects slot into every composed operation.
pub trait DynMoveTarget<T>: Sync {
    /// Run the target's move-ready insert through a dynamically-dispatched
    /// linearization context.
    fn insert_dyn(&self, elem: T, ctx: &mut dyn InsertCtx) -> InsertOutcome;
}

impl<T, X: MoveTarget<T> + Sync> DynMoveTarget<T> for X {
    fn insert_dyn(&self, elem: T, ctx: &mut dyn InsertCtx) -> InsertOutcome {
        /// Width adapter: re-monomorphize the dynamic context so the
        /// target's generic `insert_with` can take it.
        struct Fwd<'a>(&'a mut dyn InsertCtx);
        impl InsertCtx for Fwd<'_> {
            fn scas(&mut self, lp: LinPoint<'_>) -> ScasResult {
                self.0.scas(lp)
            }
            fn eliminable(&self) -> bool {
                self.0.eliminable()
            }
        }
        self.insert_with(elem, &mut Fwd(ctx))
    }
}

impl<T> MoveTarget<T> for dyn DynMoveTarget<T> + '_ {
    fn insert_with<C: InsertCtx>(&self, elem: T, ctx: &mut C) -> InsertOutcome {
        self.insert_dyn(elem, ctx)
    }
}

#[allow(dead_code)]
fn assert_traits() {
    fn is_send_sync<X: Send + Sync>() {}
    is_send_sync::<NormalCas>();
}

/// Seeded-bug switches for the model checker (mirrors
/// `lfc_hazard::model_toggles`): compiled only under `--cfg lfc_model`,
/// flipped by scenarios to demonstrate the checker *would* catch the
/// corresponding protocol regression.
#[cfg(lfc_model)]
pub mod model_toggles {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Commit batched requests **without** the result-flag CASN entry and
    /// publish the flag by a separate CAS afterwards — the naive combiner
    /// handoff whose window lets two drainers double-execute one request.
    pub static SKIP_FLAG_ENTRY: AtomicBool = AtomicBool::new(false);

    pub(crate) fn skip_flag_entry() -> bool {
        SKIP_FLAG_ENTRY.load(Ordering::Relaxed)
    }
}
