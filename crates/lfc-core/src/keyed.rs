//! Keyed composition: the paper's opening scenario (§1.1) —
//!
//! > "one can imagine a scenario where one wants to compose together a
//! > hash-map and a linked list to provide a move operation for the user"
//!
//! The linearization contexts are key-agnostic (a keyed remove still
//! linearizes at one CAS and still has its element available beforehand),
//! so a keyed object *at one key* is just another move-ready object. The
//! key view [`At`] says exactly that: it implements [`MoveSource`] and
//! [`MoveTarget`] over a [`KeyedMoveSource`] / [`KeyedMoveTarget`], and the
//! engine ([`crate::compose`]) drives every composition through the unkeyed
//! traits only. [`crate::move_keyed`], [`crate::move_keyed_to_all`] and the
//! batched [`crate::MoveKeyedOp`] are key views over the unkeyed shape
//! drivers, and a caller mixes keyed and unkeyed objects the same way: by
//! passing `At` views to [`crate::move_one`] or [`crate::move_to_all`].
//!
//! # Captures versus internal restructuring (PR 5)
//!
//! A keyed object may run *structural* CASes that are not linearization
//! points — the split-ordered hash map lazily threads bucket dummies into
//! the very chains its operations traverse while its directory grows.
//! That composes with captures by construction: a capture's entry is
//! CAS-validated at commit (a structural write to the captured word fails
//! the commit and re-runs exactly the owning stage's init phase, which
//! re-locates under the new shape), and the structural nodes themselves
//! are never the *subject* of a `LinPoint` — only, at most, hosts of a
//! predecessor word pinned via `LinPoint::hp`. Keyed implementations must
//! preserve both halves of that contract: linearization points only on
//! semantically meaningful words, and every `scas` retry re-running the
//! locate phase from scratch.

use crate::{InsertCtx, InsertOutcome, MoveSource, MoveTarget, RemoveCtx, RemoveOutcome};

/// An object whose keyed remove is move-ready.
pub trait KeyedMoveSource<K, T> {
    /// Remove the element stored under `key`, linearizing through `ctx`.
    fn remove_key_with<C: RemoveCtx<T>>(&self, key: &K, ctx: &mut C) -> RemoveOutcome<T>;
}

/// An object whose keyed insert is move-ready.
pub trait KeyedMoveTarget<K, T> {
    /// Insert `elem` under `key`, linearizing through `ctx`. Rejected on
    /// duplicate keys (set semantics).
    fn insert_key_with<C: InsertCtx>(&self, key: K, elem: T, ctx: &mut C) -> InsertOutcome;
}

impl<K, T, S: KeyedMoveSource<K, T>> KeyedMoveSource<K, T> for &S {
    fn remove_key_with<C: RemoveCtx<T>>(&self, key: &K, ctx: &mut C) -> RemoveOutcome<T> {
        (**self).remove_key_with(key, ctx)
    }
}

impl<K, T, D: KeyedMoveTarget<K, T>> KeyedMoveTarget<K, T> for &D {
    fn insert_key_with<C: InsertCtx>(&self, key: K, elem: T, ctx: &mut C) -> InsertOutcome {
        (**self).insert_key_with(key, elem, ctx)
    }
}

/// A keyed object viewed at one key: a remove takes the element stored
/// under `key`, an insert stores the element under (a clone of) `key`.
///
/// This is how keyed objects enter every composition:
///
/// ```
/// use lfc_core::keyed::At;
/// use lfc_core::{move_keyed, move_one, MoveOutcome};
/// use lfc_structures::{LfHashMap, MsQueue};
///
/// let map: LfHashMap<u64, String> = LfHashMap::new();
/// let other: LfHashMap<u64, String> = LfHashMap::new();
/// let queue: MsQueue<String> = MsQueue::new();
/// map.insert(1, "one".into());
/// map.insert(2, "two".into());
///
/// // The view is an ordinary move-ready source…
/// assert_eq!(move_one(&At::new(&map, &1), &queue), MoveOutcome::Moved);
/// // …and the keyed entry point is that composition between two views.
/// assert_eq!(move_keyed(&map, &2, &other), MoveOutcome::Moved);
/// assert_eq!(move_one(&At::new(&other, &2), &At::new(&map, &2)), MoveOutcome::Moved);
/// assert_eq!(move_one(&At::new(&map, &1), &queue), MoveOutcome::SourceEmpty);
/// assert_eq!(queue.dequeue().as_deref(), Some("one"));
/// assert_eq!(map.get(&2).as_deref(), Some("two"));
/// ```
pub struct At<'a, K, S: ?Sized> {
    obj: &'a S,
    key: &'a K,
}

impl<'a, K, S: ?Sized> At<'a, K, S> {
    /// View `obj` at `key`.
    pub fn new(obj: &'a S, key: &'a K) -> Self {
        At { obj, key }
    }
}

impl<K, T, S: KeyedMoveSource<K, T> + ?Sized> MoveSource<T> for At<'_, K, S> {
    fn remove_with<C: RemoveCtx<T>>(&self, ctx: &mut C) -> RemoveOutcome<T> {
        self.obj.remove_key_with(self.key, ctx)
    }
}

impl<K: Clone, T, S: KeyedMoveTarget<K, T> + ?Sized> MoveTarget<T> for At<'_, K, S> {
    fn insert_with<C: InsertCtx>(&self, elem: T, ctx: &mut C) -> InsertOutcome {
        self.obj.insert_key_with(self.key.clone(), elem, ctx)
    }
}
