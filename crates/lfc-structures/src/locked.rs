//! Blocking baselines for the paper's evaluation (§6): one node-based list
//! protected by a test-test-and-set lock, used as a queue or a stack, and a
//! lock-based composed move that must acquire *both* objects' locks:
//!
//! > "both the remove and the insert operations would have to acquire a lock
//! > before executing, in order to ensure that they are not executed
//! > concurrently with the composed move operation" (paper §1.1)
//!
//! To keep the comparison about *synchronization* — the quantity the paper
//! plots — the blocking objects are linked-list structures that allocate one
//! node per element from the same pooling memory manager as the lock-free
//! objects ("All implementations used the same lock-free memory manager",
//! §6). No hazard pointers are needed: nodes are only touched under the lock.
//!
//! [`lock_move`] acquires the two locks in address order, the standard
//! deadlock-avoidance discipline a careful programmer would use.

use crate::node::{alloc, divert};
use lfc_runtime::{BackoffCfg, TtasLock};
use std::cell::UnsafeCell;

struct LNode<T> {
    val: T,
    next: *mut LNode<T>,
}

/// Take the value out and return the block to the pool.
///
/// # Safety
///
/// `p` must be a live node uniquely owned by the caller.
unsafe fn take_lnode<T>(p: *mut LNode<T>) -> T {
    // Safety: unique owner; the value is moved out, so the block is freed
    // without its drop glue.
    unsafe {
        let v = std::ptr::read(&(*p).val);
        divert::<LNode<T>>(p as *mut u8);
        v
    }
}

struct ListState<T> {
    head: *mut LNode<T>,
    tail: *mut LNode<T>,
    len: usize,
}

/// Linked list (pooled nodes) under a test-test-and-set lock. Removal takes
/// the head; `FIFO` picks the end that inserts: the tail ([`LockQueue`]) or
/// the head ([`LockStack`]).
pub struct LockList<T, const FIFO: bool> {
    lock: TtasLock,
    backoff: BackoffCfg,
    inner: UnsafeCell<ListState<T>>,
}

/// FIFO queue under a test-test-and-set lock.
pub type LockQueue<T> = LockList<T, true>;

/// LIFO stack under a test-test-and-set lock.
pub type LockStack<T> = LockList<T, false>;

// Safety: `inner` is only touched under `lock`.
unsafe impl<T: Send, const FIFO: bool> Send for LockList<T, FIFO> {}
unsafe impl<T: Send, const FIFO: bool> Sync for LockList<T, FIFO> {}

impl<T, const FIFO: bool> LockList<T, FIFO> {
    /// Empty list; failed lock acquisitions retry immediately.
    pub fn new() -> Self {
        Self::with_backoff(BackoffCfg::NONE)
    }

    /// Empty list with doubling backoff on failed lock acquisitions.
    pub fn with_backoff(backoff: BackoffCfg) -> Self {
        LockList {
            lock: TtasLock::new(),
            backoff,
            inner: UnsafeCell::new(ListState {
                head: std::ptr::null_mut(),
                tail: std::ptr::null_mut(),
                len: 0,
            }),
        }
    }

    /// Observed emptiness (blocking).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length (blocking).
    pub fn len(&self) -> usize {
        let _g = self.lock.lock(self.backoff);
        // Safety: lock held.
        unsafe { (*self.inner.get()).len }
    }

    fn insert(&self, v: T) {
        let _g = self.lock.lock(self.backoff);
        // Safety: lock held.
        unsafe { self.insert_locked(v) };
    }

    fn remove(&self) -> Option<T> {
        let _g = self.lock.lock(self.backoff);
        // Safety: lock held.
        unsafe { self.remove_locked() }
    }

    /// Insert at the tail (`FIFO`) or the head.
    ///
    /// # Safety
    ///
    /// Caller must hold `self.lock`.
    unsafe fn insert_locked(&self, v: T) {
        // Safety: lock held by caller.
        let st = unsafe { &mut *self.inner.get() };
        let node = alloc(LNode {
            val: v,
            next: std::ptr::null_mut(),
        })
        .as_ptr();
        if st.head.is_null() {
            st.head = node;
            st.tail = node;
        } else if FIFO {
            // Safety: tail is a live node.
            unsafe { (*st.tail).next = node };
            st.tail = node;
        } else {
            // Safety: node is fresh.
            unsafe { (*node).next = st.head };
            st.head = node;
        }
        st.len += 1;
    }

    /// Remove the head.
    ///
    /// # Safety
    ///
    /// Caller must hold `self.lock`.
    unsafe fn remove_locked(&self) -> Option<T> {
        // Safety: lock held by caller.
        let st = unsafe { &mut *self.inner.get() };
        if st.head.is_null() {
            return None;
        }
        let node = st.head;
        // Safety: head is live.
        st.head = unsafe { (*node).next };
        if st.head.is_null() {
            st.tail = std::ptr::null_mut();
        }
        st.len -= 1;
        // Safety: unlinked under the lock.
        Some(unsafe { take_lnode(node) })
    }
}

impl<T> LockQueue<T> {
    /// Append at the tail (blocking).
    pub fn enqueue(&self, v: T) {
        self.insert(v)
    }

    /// Remove from the head (blocking).
    pub fn dequeue(&self) -> Option<T> {
        self.remove()
    }
}

impl<T> LockStack<T> {
    /// Push (blocking).
    pub fn push(&self, v: T) {
        self.insert(v)
    }

    /// Pop (blocking).
    pub fn pop(&self) -> Option<T> {
        self.remove()
    }
}

impl<T, const FIFO: bool> Default for LockList<T, FIFO> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const FIFO: bool> Drop for LockList<T, FIFO> {
    fn drop(&mut self) {
        // Safety: exclusive access.
        unsafe {
            let st = &mut *self.inner.get();
            let mut cur = st.head;
            while !cur.is_null() {
                let next = (*cur).next;
                drop(take_lnode(cur));
                cur = next;
            }
        }
    }
}

/// Blocking composed move: locks both objects (in address order), then
/// removes from `src` and inserts into `dst`. Atomic, but serializes against
/// *every* operation on either object — the composition cost the paper's
/// evaluation quantifies.
pub fn lock_move<T, const A: bool, const B: bool>(
    src: &LockList<T, A>,
    dst: &LockList<T, B>,
) -> bool {
    let a = &src.lock as *const TtasLock;
    let b = &dst.lock as *const TtasLock;
    // A self-move takes the one lock once. Otherwise address-ordered
    // acquisition prevents deadlock between concurrent moves in opposite
    // directions.
    let (_g1, _g2) = if a == b {
        (src.lock.lock(src.backoff), None)
    } else if (a as usize) < (b as usize) {
        let g1 = src.lock.lock(src.backoff);
        (g1, Some(dst.lock.lock(dst.backoff)))
    } else {
        let g1 = dst.lock.lock(dst.backoff);
        (g1, Some(src.lock.lock(src.backoff)))
    };
    // Safety: both locks held (one, for a self-move).
    unsafe {
        match src.remove_locked() {
            Some(v) => {
                dst.insert_locked(v);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn queue_fifo() {
        let q = LockQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn stack_lifo() {
        let s = LockStack::new();
        s.push(1);
        s.push(2);
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn drop_frees_remaining_values() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let before = DROPS.load(Ordering::SeqCst);
        {
            let q = LockQueue::new();
            q.enqueue(D);
            q.enqueue(D);
            let s = LockStack::new();
            s.push(D);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), before + 3);
    }

    #[test]
    fn move_queue_to_stack() {
        let q = LockQueue::new();
        let s = LockStack::new();
        q.enqueue(7);
        assert!(lock_move(&q, &s));
        assert_eq!(s.pop(), Some(7));
        assert!(!lock_move(&q, &s), "source empty");
    }

    #[test]
    fn self_move_does_not_deadlock() {
        let s = LockStack::new();
        s.push(5);
        assert!(lock_move(&s, &s));
        assert_eq!(s.pop(), Some(5));
    }

    #[test]
    fn opposite_direction_moves_do_not_deadlock() {
        let a = std::sync::Arc::new(LockStack::new());
        let b = std::sync::Arc::new(LockStack::new());
        for i in 0..100 {
            a.push(i);
            b.push(1000 + i);
        }
        std::thread::scope(|sc| {
            for dir in 0..2 {
                let a = a.clone();
                let b = b.clone();
                sc.spawn(move || {
                    for _ in 0..10_000 {
                        if dir == 0 {
                            lock_move(&*a, &*b);
                        } else {
                            lock_move(&*b, &*a);
                        }
                    }
                });
            }
        });
        assert_eq!(a.len() + b.len(), 200, "moves conserve elements");
    }

    #[test]
    fn concurrent_movers_conserve_count() {
        let q = std::sync::Arc::new(LockQueue::new());
        let s = std::sync::Arc::new(LockStack::new());
        for i in 0..500 {
            q.enqueue(i);
        }
        let moved = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let q = q.clone();
                let s = s.clone();
                let moved = moved.clone();
                sc.spawn(move || {
                    while lock_move(&*q, &*s) {
                        moved.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(moved.load(Ordering::Relaxed), 500);
        assert_eq!(s.len(), 500);
        assert!(q.is_empty());
    }

    #[test]
    fn mixed_ops_under_lock_are_consistent() {
        let q = std::sync::Arc::new(LockQueue::new());
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let q = q.clone();
                sc.spawn(move || {
                    for i in 0..2_500 {
                        q.enqueue(t * 2_500 + i);
                        if i % 2 == 0 {
                            let _ = q.dequeue();
                        }
                    }
                });
            }
        });
        // 10k enqueues, 5k dequeues.
        assert_eq!(q.len(), 5_000);
    }
}
