//! A lock-free sorted linked-list set (Harris/Michael style) made
//! move-ready — the "linked list" half of the paper's §1.1 motivating
//! scenario (moving elements between a hash map and a list).
//!
//! Traversal is fence-free (PR 3): `find` runs under an operation epoch
//! ([`lfc_hazard::pin_op`], one fence at entry) and hops nodes with plain
//! acquire reads — no per-node hazard publication or validation re-read.
//! Hazards reappear only at the composition handoff: a captured
//! linearization entry's allocation is promoted into an `ENTRY*` slot by
//! the engine at capture time.
//!
//! Deletion is two-phase, as in Harris’s list (the paper’s reference \[8\]): the
//! *logical* delete marks the victim's `next` word (bit 2 of a raw protocol
//! word, disjoint from the descriptor kind bits), and that marking CAS is
//! the remove's linearization point — executed by the invoking thread, on a
//! pointer word, with the element read beforehand, so the list is a
//! move-candidate (paper Definition 1). Physical unlinking is cleanup,
//! performed by the remover or by any later traversal.

use crate::node::{alloc, retire, Block, SoloHeader};
use crate::traverse::{self, ChainNode, Position};
use lfc_core::{
    InsertCtx, InsertOutcome, KeyedMoveSource, KeyedMoveTarget, NormalCas, RemoveCtx, RemoveOutcome,
};
use lfc_dcas::DAtomic;
use lfc_hazard::{pin, pin_op, Guard, OpGuard};
use std::cell::UnsafeCell;
use std::ptr::NonNull;

struct LNode<K, T> {
    next: DAtomic,
    key: K,
    val: UnsafeCell<Option<T>>,
    /// Birth era (PR 6): written before publication, read at retire.
    birth: usize,
}

impl<K, T> Block for LNode<K, T> {
    fn birth(&self) -> usize {
        self.birth
    }
}

// Safety: `next` is the marked chain word; `val` is written before
// publication; unlinked nodes are hazard-retired.
unsafe impl<K, T: Clone> ChainNode for LNode<K, T> {
    type Elem = T;

    #[inline]
    fn chain_word(&self) -> &DAtomic {
        &self.next
    }

    #[inline]
    fn elem(&self) -> Option<&T> {
        // Safety: written once before publication.
        unsafe { (*self.val.get()).as_ref() }
    }
}

/// A move-ready lock-free sorted set with unique keys.
pub struct OrderedSet<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    header: NonNull<SoloHeader>,
    _marker: std::marker::PhantomData<(K, T)>,
}

// Safety: handle to hazard-managed shared state; see MsQueue.
unsafe impl<K, T> Send for OrderedSet<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
}
unsafe impl<K, T> Sync for OrderedSet<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
}

impl<K, T> OrderedSet<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    /// Empty set.
    pub fn new() -> Self {
        OrderedSet {
            header: alloc(SoloHeader::new(0)),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    fn head(&self) -> &DAtomic {
        // Safety: header lives until Drop.
        &unsafe { self.header.as_ref() }.word
    }

    /// Locate `key` via the shared traversal kernel
    /// ([`crate::traverse::find_pos`]): anchored at the list head, under
    /// the caller's operation epoch (`pin_op` — the repin restart point
    /// lives inside the kernel), ordered by `node.key >= key`.
    fn find(&self, key: &K, g: &mut OpGuard) -> Position<LNode<K, T>> {
        let anchor = |_: &Guard| (self.head() as *const DAtomic, self.header.as_ptr() as usize);
        // Safety: cur epoch-protected; keys are immutable.
        let at_or_after = |cur: *mut LNode<K, T>| unsafe { &(*cur).key } >= key;
        // Safety: the head word lives in the owned header (protected by
        // the `&self` borrow); nodes are LNodes by construction.
        unsafe { traverse::find_pos(g, anchor, at_or_after) }
    }

    /// Insert `val` under `key`; false if the key is already present.
    pub fn insert(&self, key: K, val: T) -> bool {
        self.insert_key_with(key, val, &mut NormalCas) == InsertOutcome::Inserted
    }

    /// Remove the element under `key`.
    pub fn remove(&self, key: &K) -> Option<T> {
        match self.remove_key_with(key, &mut NormalCas) {
            RemoveOutcome::Removed(v) => Some(v),
            RemoveOutcome::Empty => None,
            RemoveOutcome::Aborted => unreachable!("NormalCas never aborts"),
        }
    }

    /// Clone the element under `key`, if present.
    pub fn get(&self, key: &K) -> Option<T> {
        let mut g = pin_op();
        // Safety: the position was found under `g`.
        unsafe { traverse::get(self.find(key, &mut g), |n| n.key == *key) }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Racy O(n) length (quiescent use only).
    pub fn count(&self) -> usize {
        // Safety: the owned head word heads a chain of LNodes.
        unsafe { traverse::count::<LNode<K, T>>(self.head(), &pin_op()) }
    }
}

impl<K, T> Default for OrderedSet<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, T> KeyedMoveTarget<K, T> for OrderedSet<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn insert_key_with<C: InsertCtx>(&self, key: K, elem: T, ctx: &mut C) -> InsertOutcome {
        let mut g = pin_op();
        let node = alloc(LNode {
            next: DAtomic::new(0),
            key,
            val: UnsafeCell::new(Some(elem)),
            birth: lfc_hazard::birth_era(),
        })
        .as_ptr();
        // Safety: node is ours until published; keys are immutable.
        let key = unsafe { &(*node).key };
        // Safety: find is the kernel walk anchored at the owned header.
        unsafe {
            traverse::insert(
                &mut g,
                node,
                ctx,
                |g| self.find(key, g),
                |n| n.key == *key,
                |_, _| {},
            )
        }
    }
}

impl<K, T> KeyedMoveSource<K, T> for OrderedSet<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn remove_key_with<C: RemoveCtx<T>>(&self, key: &K, ctx: &mut C) -> RemoveOutcome<T> {
        let mut g = pin_op();
        // Safety: as in `insert_key_with`.
        unsafe {
            traverse::remove(
                &mut g,
                ctx,
                |g| self.find(key, g),
                |n| n.key == *key,
                |_, _| {},
            )
        }
    }
}

impl<K, T> Drop for OrderedSet<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn drop(&mut self) {
        let g = pin();
        // Safety: exclusive teardown.
        unsafe {
            traverse::retire_chain::<LNode<K, T>>(self.head().read(&g), &g);
            retire(self.header.as_ptr());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_unique_inserts() {
        let s: OrderedSet<u64, u64> = OrderedSet::new();
        assert!(s.insert(5, 50));
        assert!(s.insert(1, 10));
        assert!(s.insert(3, 30));
        assert!(!s.insert(3, 31), "duplicate key rejected");
        assert_eq!(s.count(), 3);
        assert_eq!(s.get(&1), Some(10));
        assert_eq!(s.get(&3), Some(30));
        assert_eq!(s.get(&5), Some(50));
        assert_eq!(s.get(&4), None);
    }

    #[test]
    fn remove_by_key() {
        let s: OrderedSet<u64, String> = OrderedSet::new();
        s.insert(2, "two".into());
        s.insert(1, "one".into());
        assert_eq!(s.remove(&2).as_deref(), Some("two"));
        assert_eq!(s.remove(&2), None);
        assert!(s.contains(&1));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn reinsert_after_remove() {
        let s: OrderedSet<u64, u64> = OrderedSet::new();
        for round in 0..10 {
            assert!(s.insert(7, round));
            assert_eq!(s.remove(&7), Some(round));
        }
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn concurrent_disjoint_key_ranges() {
        let s: OrderedSet<u64, u64> = OrderedSet::new();
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let s = &s;
                sc.spawn(move || {
                    for k in 0..300 {
                        let key = t * 1_000 + k;
                        assert!(s.insert(key, key * 2));
                    }
                    for k in 0..300 {
                        let key = t * 1_000 + k;
                        assert_eq!(s.remove(&key), Some(key * 2));
                    }
                });
            }
        });
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn concurrent_same_key_contention() {
        // Many threads fight over one key: at most one insert wins per
        // occupancy period; inserts+removes must balance.
        use std::sync::atomic::{AtomicI64, Ordering};
        let s: OrderedSet<u64, u64> = OrderedSet::new();
        let balance = AtomicI64::new(0);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let s = &s;
                let balance = &balance;
                sc.spawn(move || {
                    for i in 0..2_000 {
                        if i % 2 == 0 {
                            if s.insert(42, i) {
                                balance.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if s.remove(&42).is_some() {
                            balance.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let residual = balance.load(Ordering::Relaxed);
        assert_eq!(
            residual,
            s.count() as i64,
            "insert/remove balance equals final occupancy"
        );
        assert!(residual == 0 || residual == 1);
    }

    #[test]
    fn drop_reclaims_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let before = DROPS.load(Ordering::SeqCst);
        {
            let s: OrderedSet<u64, D> = OrderedSet::new();
            for k in 0..30 {
                s.insert(k, D);
            }
        }
        crate::test_util::flush_until(|| DROPS.load(Ordering::SeqCst) - before == 30);
        assert_eq!(DROPS.load(Ordering::SeqCst) - before, 30);
    }
}
