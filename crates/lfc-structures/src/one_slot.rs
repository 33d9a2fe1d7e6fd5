//! A one-element container: the smallest useful move-ready object.
//!
//! Its single word holds null or a node pointer; insert CASes null → node
//! (failing if occupied), remove CASes node → null. Because the insert can
//! genuinely fail (the slot is *bounded*), `OneSlot` exercises the move
//! abort path that unbounded queues and stacks never take (paper step 2:
//! "If the insertion fails, due for example to the object being full, the
//! move is aborted"), and it is handy as a mailbox in examples.

use crate::node::{alloc, clone_val, free_unpublished, retire, Node, SoloHeader};
use lfc_core::{
    InsertCtx, InsertOutcome, LinPoint, MoveSource, MoveTarget, NormalCas, RemoveCtx,
    RemoveOutcome, ScasResult,
};
use lfc_hazard::{pin, pin_op};
use std::ptr::NonNull;

/// A move-ready single-element slot (a bounded container of capacity 1).
pub struct OneSlot<T: Clone + Send + Sync + 'static> {
    header: NonNull<SoloHeader>,
    _marker: std::marker::PhantomData<T>,
}

// Safety: see `TreiberStack`.
unsafe impl<T: Clone + Send + Sync + 'static> Send for OneSlot<T> {}
unsafe impl<T: Clone + Send + Sync + 'static> Sync for OneSlot<T> {}

impl<T: Clone + Send + Sync + 'static> OneSlot<T> {
    /// Empty slot.
    pub fn new() -> Self {
        OneSlot {
            header: alloc(SoloHeader::new(0)),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    fn word(&self) -> &lfc_dcas::DAtomic {
        // Safety: header lives until Drop.
        &unsafe { self.header.as_ref() }.word
    }

    #[inline]
    fn header_addr(&self) -> usize {
        self.header.as_ptr() as usize
    }

    /// Try to store `v`; fails if the slot is occupied.
    pub fn put(&self, v: T) -> bool {
        self.insert_with(v, &mut NormalCas) == InsertOutcome::Inserted
    }

    /// Take the element out, if present.
    pub fn take(&self) -> Option<T> {
        match self.remove_with(&mut NormalCas) {
            RemoveOutcome::Removed(v) => Some(v),
            RemoveOutcome::Empty => None,
            RemoveOutcome::Aborted => unreachable!("NormalCas never aborts"),
        }
    }

    /// Clone the element without removing it, if present.
    pub fn peek(&self) -> Option<T> {
        let g = pin_op();
        let cur = self.word().read(&g);
        if cur == 0 {
            return None;
        }
        // Safety: cur was reachable through the slot inside this epoch;
        // values are immutable.
        Some(unsafe { clone_val(cur as *mut Node<T>) })
    }

    /// Whether the slot was observed occupied.
    pub fn is_occupied(&self) -> bool {
        let g = pin();
        self.word().read(&g) != 0
    }
}

impl<T: Clone + Send + Sync + 'static> Default for OneSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + Sync + 'static> MoveTarget<T> for OneSlot<T> {
    fn insert_with<C: InsertCtx>(&self, elem: T, ctx: &mut C) -> InsertOutcome {
        // No operation epoch: only the borrow-protected header word is read.
        let g = pin();
        let node = alloc(Node::new(Some(elem))).as_ptr();
        loop {
            let cur = self.word().read(&g);
            if cur != 0 {
                // Occupied: fail before the linearization point; a composed
                // move aborts with TargetRejected.
                // Safety: never published.
                unsafe { free_unpublished(node) };
                return InsertOutcome::Rejected;
            }
            match ctx.scas(LinPoint {
                word: self.word(),
                old: 0,
                new: node as usize,
                hp: self.header_addr(),
            }) {
                ScasResult::Success => return InsertOutcome::Inserted,
                ScasResult::Fail => continue,
                ScasResult::Abort => {
                    // Safety: never published.
                    unsafe { free_unpublished(node) };
                    return InsertOutcome::Rejected;
                }
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> MoveSource<T> for OneSlot<T> {
    fn remove_with<C: RemoveCtx<T>>(&self, ctx: &mut C) -> RemoveOutcome<T> {
        let mut g = pin_op();
        loop {
            // Ejection check (PR 6): see TreiberStack.
            g.repin_if_ejected();
            let cur = self.word().read(&g);
            if cur == 0 {
                return RemoveOutcome::Empty;
            }
            // Safety: cur epoch-protected; element accessible before the
            // linearization point (requirement 4).
            let val = unsafe { clone_val(cur as *mut Node<T>) };
            let r = ctx.scas(
                LinPoint {
                    word: self.word(),
                    old: cur,
                    new: 0,
                    hp: self.header_addr(),
                },
                &val,
            );
            match r {
                ScasResult::Success => {
                    // Safety: unlinked.
                    unsafe { retire(cur as *mut Node<T>) };
                    return RemoveOutcome::Removed(val);
                }
                ScasResult::Fail => continue,
                ScasResult::Abort => return RemoveOutcome::Aborted,
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for OneSlot<T> {
    fn drop(&mut self) {
        let g = pin();
        let cur = self.word().read(&g);
        if cur != 0 {
            // Safety: exclusive teardown.
            unsafe { retire(cur as *mut Node<T>) };
        }
        // Safety: unique teardown.
        unsafe { retire(self.header.as_ptr()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_take_roundtrip() {
        let s: OneSlot<u64> = OneSlot::new();
        assert!(!s.is_occupied());
        assert!(s.put(5));
        assert!(!s.put(6), "occupied");
        assert_eq!(s.peek(), Some(5));
        assert_eq!(s.take(), Some(5));
        assert_eq!(s.take(), None);
    }

    #[test]
    fn drop_with_occupant_reclaims() {
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
            let s: OneSlot<D> = OneSlot::new();
            s.put(D);
        }
        crate::test_util::flush_until(|| DROPS.load(Ordering::SeqCst) == before + 1);
        assert_eq!(DROPS.load(Ordering::SeqCst), before + 1);
    }

    #[test]
    fn contended_put_admits_exactly_one() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s: OneSlot<u64> = OneSlot::new();
        let wins = AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for t in 0..4 {
                let s = &s;
                let wins = &wins;
                sc.spawn(move || {
                    if s.put(t) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1);
        assert!(s.take().is_some());
    }
}
