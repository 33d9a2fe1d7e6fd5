//! Keyed composition: the paper's opening scenario (§1.1) —
//!
//! > "one can imagine a scenario where one wants to compose together a
//! > hash-map and a linked list to provide a move operation for the user"
//!
//! The linearization contexts are key-agnostic (a keyed remove still
//! linearizes at one CAS and still has its element available beforehand),
//! so keyed objects plug into the same unified engine ([`crate::compose`])
//! as everything else: [`crate::move_keyed`] is a two-stage composition,
//! and the keyed traits also power [`crate::move_keyed_to_all`],
//! [`crate::move_keyed_to_unkeyed`] and keyed [`crate::Composition`]
//! stages.
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

use crate::{InsertCtx, InsertOutcome, RemoveCtx, RemoveOutcome};

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
