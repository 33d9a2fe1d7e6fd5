//! Treiber stack with a *stamped* top pointer — the ABA mitigation the
//! paper's §7 discussion proposes:
//!
//! > "The problem can be alleviated by adding a counter to the top pointer
//! > in the stack, removing the possibility of the ABA-problem occurring.
//! > The downside with this solution is that it somewhat lowers the
//! > performance of the normal insert and remove operations."
//!
//! The top word packs a 16-bit stamp into the pointer's high bits; every
//! successful push/pop bumps it, so a delayed DCAS helper whose expected
//! `old2` was consumed can never match a *recreated* top value and false
//! helping disappears (measured by `lfc_dcas::counters::stale_mark_reverts`
//! in the `stamped_ablation` bench).

use crate::node::{alloc, clone_val, free_unpublished, retire, Node, SoloHeader};
use lfc_core::{
    InsertCtx, InsertOutcome, LinPoint, MoveSource, MoveTarget, NormalCas, RemoveCtx,
    RemoveOutcome, ScasResult,
};
use lfc_hazard::{pin, pin_op};
use lfc_runtime::{Backoff, BackoffCfg};
use std::ptr::NonNull;

const STAMP_SHIFT: u32 = 48;
const ADDR_MASK: usize = (1 << STAMP_SHIFT) - 1;

#[inline]
fn pack(addr: usize, stamp: usize) -> usize {
    debug_assert_eq!(addr & !ADDR_MASK, 0, "node address exceeds 48 bits");
    addr | (stamp << STAMP_SHIFT)
}

#[inline]
fn addr_of(w: usize) -> usize {
    w & ADDR_MASK
}

#[inline]
fn stamp_of(w: usize) -> usize {
    w >> STAMP_SHIFT
}

/// A move-ready Treiber stack whose top pointer carries a version stamp.
pub struct StampedStack<T: Clone + Send + Sync + 'static> {
    header: NonNull<SoloHeader>,
    backoff: BackoffCfg,
    _marker: std::marker::PhantomData<T>,
}

// Safety: see `TreiberStack`.
unsafe impl<T: Clone + Send + Sync + 'static> Send for StampedStack<T> {}
unsafe impl<T: Clone + Send + Sync + 'static> Sync for StampedStack<T> {}

impl<T: Clone + Send + Sync + 'static> StampedStack<T> {
    /// Empty stack without backoff.
    pub fn new() -> Self {
        Self::with_backoff(BackoffCfg::NONE)
    }

    /// Empty stack with the given CAS-failure backoff.
    pub fn with_backoff(cfg: BackoffCfg) -> Self {
        StampedStack {
            header: alloc(SoloHeader::new(0)),
            backoff: cfg,
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    fn top(&self) -> &lfc_dcas::DAtomic {
        // Safety: header lives until Drop.
        &unsafe { self.header.as_ref() }.word
    }

    #[inline]
    fn header_addr(&self) -> usize {
        self.header.as_ptr() as usize
    }

    /// Push (lock-free).
    pub fn push(&self, v: T) {
        let r = self.insert_with(v, &mut NormalCas);
        debug_assert_eq!(r, InsertOutcome::Inserted);
    }

    /// Pop (lock-free).
    pub fn pop(&self) -> Option<T> {
        match self.remove_with(&mut NormalCas) {
            RemoveOutcome::Removed(v) => Some(v),
            RemoveOutcome::Empty => None,
            RemoveOutcome::Aborted => unreachable!("NormalCas never aborts"),
        }
    }

    /// Whether the stack was observed empty.
    pub fn is_empty(&self) -> bool {
        let g = pin();
        addr_of(self.top().read(&g)) == 0
    }

    /// Racy O(n) count (quiescent use only).
    pub fn count(&self) -> usize {
        let g = pin_op();
        let mut n = 0;
        let mut cur = addr_of(self.top().read(&g));
        while cur != 0 {
            n += 1;
            // Safety: quiescent per the docs.
            cur = unsafe { &(*(cur as *mut Node<T>)).next }.read_acquire(&g);
        }
        n
    }
}

impl<T: Clone + Send + Sync + 'static> Default for StampedStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + Sync + 'static> MoveTarget<T> for StampedStack<T> {
    fn insert_with<C: InsertCtx>(&self, elem: T, ctx: &mut C) -> InsertOutcome {
        // No operation epoch: push never dereferences a node (see Treiber).
        let g = pin();
        let node = alloc(Node::new(Some(elem))).as_ptr();
        let mut bo = Backoff::new(self.backoff);
        loop {
            let lw = self.top().read(&g);
            // The node's next holds the *unstamped* successor pointer.
            // Safety: unpublished node.
            unsafe { &(*node).next }.store_word(addr_of(lw));
            match ctx.scas(LinPoint {
                word: self.top(),
                old: lw,
                new: pack(node as usize, stamp_of(lw).wrapping_add(1) & 0xFFFF),
                hp: self.header_addr(),
            }) {
                ScasResult::Abort => {
                    // Safety: never published.
                    unsafe { free_unpublished(node) };
                    return InsertOutcome::Rejected;
                }
                ScasResult::Success => return InsertOutcome::Inserted,
                ScasResult::Fail => bo.fail(),
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> MoveSource<T> for StampedStack<T> {
    fn remove_with<C: RemoveCtx<T>>(&self, ctx: &mut C) -> RemoveOutcome<T> {
        let mut g = pin_op();
        let mut bo = Backoff::new(self.backoff);
        loop {
            // Ejection check (PR 6): see TreiberStack.
            g.repin_if_ejected();
            let lw = self.top().read(&g);
            let ltop = addr_of(lw);
            if ltop == 0 {
                return RemoveOutcome::Empty;
            }
            let node = ltop as *mut Node<T>;
            // Safety: ltop was reachable through `top` inside this epoch.
            let val = unsafe { clone_val(node) };
            let lnext = unsafe { &(*node).next }.read_acquire(&g);
            let r = ctx.scas(
                LinPoint {
                    word: self.top(),
                    old: lw,
                    new: pack(lnext, stamp_of(lw).wrapping_add(1) & 0xFFFF),
                    hp: self.header_addr(),
                },
                &val,
            );
            match r {
                ScasResult::Success => {
                    // Safety: unlinked.
                    unsafe { retire(node) };
                    return RemoveOutcome::Removed(val);
                }
                ScasResult::Fail => bo.fail(),
                ScasResult::Abort => return RemoveOutcome::Aborted,
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for StampedStack<T> {
    fn drop(&mut self) {
        let g = pin();
        let mut cur = addr_of(self.top().read(&g));
        while cur != 0 {
            let node = cur as *mut Node<T>;
            // Safety: exclusive teardown.
            let next = unsafe { &(*node).next }.read(&g);
            unsafe { retire(node) };
            cur = next;
        }
        // Safety: unique teardown.
        unsafe { retire(self.header.as_ptr()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let addr = 0x007F_FFFF_FFF8_usize;
        for stamp in [0usize, 1, 0xFFFF] {
            let w = pack(addr, stamp);
            assert_eq!(addr_of(w), addr);
            assert_eq!(stamp_of(w), stamp);
            assert!(lfc_dcas::word::is_raw(w), "stamped words stay raw-kind");
        }
    }

    #[test]
    fn lifo_order() {
        let s: StampedStack<u64> = StampedStack::new();
        for i in 0..64 {
            s.push(i);
        }
        for i in (0..64).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn stamp_advances_per_operation() {
        let s: StampedStack<u64> = StampedStack::new();
        let g = pin();
        let s0 = stamp_of(s.top().read(&g));
        s.push(1);
        let s1 = stamp_of(s.top().read(&g));
        assert_eq!(s1, (s0 + 1) & 0xFFFF);
        s.pop();
        let s2 = stamp_of(s.top().read(&g));
        assert_eq!(s2, (s0 + 2) & 0xFFFF);
    }

    #[test]
    fn concurrent_conservation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let s: StampedStack<u64> = StampedStack::new();
        let sum = AtomicU64::new(0);
        let taken = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..4_000 {
                        s.push(t * 4_000 + i + 1);
                    }
                });
            }
            for _ in 0..2 {
                let s = &s;
                let sum = &sum;
                let taken = &taken;
                sc.spawn(move || {
                    while taken.load(Ordering::Relaxed) < 8_000 {
                        if let Some(v) = s.pop() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=8_000u64).sum::<u64>());
    }
}
