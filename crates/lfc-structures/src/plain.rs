//! Textbook (non-move-ready) Michael–Scott queue and Treiber stack.
//!
//! These are the *reference* implementations against which the benchmark's
//! `structures.native_overhead_ratio` row validates the paper's claim that
//! "the operations originally supported by the data objects keep their
//! performance behavior" once the objects are made move-ready: identical
//! algorithms and memory management (epoch-batched protection via
//! `pin_op`, same unified reclamation domain), but plain CASes and plain loads — no `scas` indirection, no
//! descriptor check on reads.

use crate::node::{alloc, clone_val, retire, Node, PairHeader, SoloHeader};
use lfc_hazard::pin_op;
use std::ptr::NonNull;

/// Plain Michael–Scott queue (baseline; cannot take part in moves).
pub struct PlainMsQueue<T: Clone + Send + Sync + 'static> {
    header: NonNull<PairHeader>,
    _marker: std::marker::PhantomData<T>,
}

// Safety: as for MsQueue.
unsafe impl<T: Clone + Send + Sync + 'static> Send for PlainMsQueue<T> {}
unsafe impl<T: Clone + Send + Sync + 'static> Sync for PlainMsQueue<T> {}

impl<T: Clone + Send + Sync + 'static> PlainMsQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        let dummy = alloc(Node::<T>::new(None)).as_ptr();
        PlainMsQueue {
            header: alloc(PairHeader::new(dummy as usize, dummy as usize)),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    fn h(&self) -> &PairHeader {
        // Safety: header lives until Drop.
        unsafe { self.header.as_ref() }
    }

    /// Append at the tail.
    pub fn enqueue(&self, v: T) {
        let _g = pin_op();
        let node = alloc(Node::new(Some(v))).as_ptr();
        loop {
            let ltail = self.h().second.load_word();
            let tail_node = ltail as *mut Node<T>;
            // Safety: ltail was reachable through `tail` inside this epoch.
            let lnext = unsafe { &(*tail_node).next }.load_word();
            if lnext != 0 {
                self.h().second.cas_word(ltail, lnext);
                continue;
            }
            if unsafe { &(*tail_node).next }.cas_word(0, node as usize) {
                self.h().second.cas_word(ltail, node as usize);
                return;
            }
        }
    }

    /// Remove from the head.
    pub fn dequeue(&self) -> Option<T> {
        let _g = pin_op();
        loop {
            let lhead = self.h().first.load_word();
            let ltail = self.h().second.load_word();
            let head_node = lhead as *mut Node<T>;
            // Safety: lhead was reachable through `head` inside this epoch.
            let lnext = unsafe { &(*head_node).next }.load_word();
            if lnext == 0 {
                return None;
            }
            if lhead == ltail {
                self.h().second.cas_word(ltail, lnext);
                continue;
            }
            // Safety: lnext retires no earlier than lhead (see MsQueue).
            let val = unsafe { clone_val(lnext as *mut Node<T>) };
            if self.h().first.cas_word(lhead, lnext) {
                // Safety: unlinked.
                unsafe { retire(head_node) };
                return Some(val);
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Default for PlainMsQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for PlainMsQueue<T> {
    fn drop(&mut self) {
        let mut cur = self.h().first.load_word();
        while cur != 0 {
            let node = cur as *mut Node<T>;
            // Safety: exclusive teardown.
            let next = unsafe { &(*node).next }.load_word();
            unsafe { retire(node) };
            cur = next;
        }
        // Safety: unique teardown.
        unsafe { retire(self.header.as_ptr()) };
    }
}

/// Plain Treiber stack (baseline; cannot take part in moves).
pub struct PlainTreiberStack<T: Clone + Send + Sync + 'static> {
    header: NonNull<SoloHeader>,
    _marker: std::marker::PhantomData<T>,
}

// Safety: as for TreiberStack.
unsafe impl<T: Clone + Send + Sync + 'static> Send for PlainTreiberStack<T> {}
unsafe impl<T: Clone + Send + Sync + 'static> Sync for PlainTreiberStack<T> {}

impl<T: Clone + Send + Sync + 'static> PlainTreiberStack<T> {
    /// Empty stack.
    pub fn new() -> Self {
        PlainTreiberStack {
            header: alloc(SoloHeader::new(0)),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    fn top(&self) -> &lfc_dcas::DAtomic {
        // Safety: header lives until Drop.
        &unsafe { self.header.as_ref() }.word
    }

    /// Push.
    pub fn push(&self, v: T) {
        // No shared dereference: the CAS on `top` needs no protection.
        let node = alloc(Node::new(Some(v))).as_ptr();
        loop {
            let ltop = self.top().load_word();
            // Safety: unpublished node.
            unsafe { &(*node).next }.store_word(ltop);
            if self.top().cas_word(ltop, node as usize) {
                return;
            }
        }
    }

    /// Pop.
    pub fn pop(&self) -> Option<T> {
        let _g = pin_op();
        loop {
            let ltop = self.top().load_word();
            if ltop == 0 {
                return None;
            }
            let node = ltop as *mut Node<T>;
            // Safety: ltop was reachable through `top` inside this epoch;
            // no recycle inside the epoch means the CAS below cannot ABA.
            let val = unsafe { clone_val(node) };
            let lnext = unsafe { &(*node).next }.load_word();
            if self.top().cas_word(ltop, lnext) {
                // Safety: unlinked.
                unsafe { retire(node) };
                return Some(val);
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Default for PlainTreiberStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for PlainTreiberStack<T> {
    fn drop(&mut self) {
        let mut cur = self.top().load_word();
        while cur != 0 {
            let node = cur as *mut Node<T>;
            // Safety: exclusive teardown.
            let next = unsafe { &(*node).next }.load_word();
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
    fn queue_fifo() {
        let q: PlainMsQueue<u64> = PlainMsQueue::new();
        for i in 0..50 {
            q.enqueue(i);
        }
        for i in 0..50 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn stack_lifo() {
        let s: PlainTreiberStack<u64> = PlainTreiberStack::new();
        for i in 0..50 {
            s.push(i);
        }
        for i in (0..50).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn queue_mpmc_conservation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let q: PlainMsQueue<u64> = PlainMsQueue::new();
        let sum_out = AtomicU64::new(0);
        let taken = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..5_000 {
                        q.enqueue(t * 5_000 + i);
                    }
                });
            }
            for _ in 0..2 {
                let q = &q;
                let sum_out = &sum_out;
                let taken = &taken;
                s.spawn(move || {
                    while taken.load(Ordering::Relaxed) < 10_000 {
                        if let Some(v) = q.dequeue() {
                            sum_out.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        let expected: u64 = (0..10_000).sum();
        assert_eq!(sum_out.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn stack_concurrent_conservation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let s: PlainTreiberStack<u64> = PlainTreiberStack::new();
        let sum_out = AtomicU64::new(0);
        let taken = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..5_000 {
                        s.push(t * 5_000 + i + 1);
                    }
                });
            }
            for _ in 0..2 {
                let s = &s;
                let sum_out = &sum_out;
                let taken = &taken;
                sc.spawn(move || {
                    while taken.load(Ordering::Relaxed) < 10_000 {
                        if let Some(v) = s.pop() {
                            sum_out.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        let expected: u64 = (1..=10_000).sum();
        assert_eq!(sum_out.load(Ordering::Relaxed), expected);
    }
}
