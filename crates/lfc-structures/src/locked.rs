//! Blocking baselines for the paper's evaluation (§6): node-based queue and
//! stack protected by a test-test-and-set lock, and a lock-based composed
//! move that must acquire *both* objects' locks:
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

/// A container whose operations are serialized by a [`TtasLock`]; the trait
/// the lock-based composed move is generic over.
pub trait Locked<T> {
    /// The object's lock.
    fn raw_lock(&self) -> &TtasLock;
    /// The backoff policy for failed acquisitions.
    fn lock_backoff(&self) -> BackoffCfg;
    /// Insert while holding the lock.
    ///
    /// # Safety
    ///
    /// Caller must hold `raw_lock`.
    unsafe fn insert_locked(&self, v: T) -> bool;
    /// Remove while holding the lock.
    ///
    /// # Safety
    ///
    /// Caller must hold `raw_lock`.
    unsafe fn remove_locked(&self) -> Option<T>;
}

/// FIFO queue (linked list, pooled nodes) under a test-test-and-set lock.
pub struct LockQueue<T> {
    lock: TtasLock,
    backoff: BackoffCfg,
    inner: UnsafeCell<ListState<T>>,
}

// Safety: `inner` is only touched under `lock`.
unsafe impl<T: Send> Send for LockQueue<T> {}
unsafe impl<T: Send> Sync for LockQueue<T> {}

impl<T> LockQueue<T> {
    /// Empty queue; failed lock acquisitions retry immediately.
    pub fn new() -> Self {
        Self::with_backoff(BackoffCfg::NONE)
    }

    /// Empty queue with doubling backoff on failed lock acquisitions.
    pub fn with_backoff(backoff: BackoffCfg) -> Self {
        LockQueue {
            lock: TtasLock::new(),
            backoff,
            inner: UnsafeCell::new(ListState {
                head: std::ptr::null_mut(),
                tail: std::ptr::null_mut(),
                len: 0,
            }),
        }
    }

    /// Append at the tail (blocking).
    pub fn enqueue(&self, v: T) {
        let _g = self.lock.lock(self.backoff);
        // Safety: lock held.
        unsafe { self.push_back(v) };
    }

    /// Remove from the head (blocking).
    pub fn dequeue(&self) -> Option<T> {
        let _g = self.lock.lock(self.backoff);
        // Safety: lock held.
        unsafe { self.pop_front() }
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

    unsafe fn push_back(&self, v: T) {
        // Safety: lock held by caller.
        let st = unsafe { &mut *self.inner.get() };
        let node = alloc(LNode {
            val: v,
            next: std::ptr::null_mut(),
        })
        .as_ptr();
        if st.tail.is_null() {
            st.head = node;
        } else {
            // Safety: tail is a live node.
            unsafe { (*st.tail).next = node };
        }
        st.tail = node;
        st.len += 1;
    }

    unsafe fn pop_front(&self) -> Option<T> {
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

impl<T> Default for LockQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for LockQueue<T> {
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

impl<T> Locked<T> for LockQueue<T> {
    fn raw_lock(&self) -> &TtasLock {
        &self.lock
    }
    fn lock_backoff(&self) -> BackoffCfg {
        self.backoff
    }
    unsafe fn insert_locked(&self, v: T) -> bool {
        // Safety: forwarded contract (lock held).
        unsafe { self.push_back(v) };
        true
    }
    unsafe fn remove_locked(&self) -> Option<T> {
        // Safety: forwarded contract (lock held).
        unsafe { self.pop_front() }
    }
}

/// LIFO stack (linked list, pooled nodes) under a test-test-and-set lock.
pub struct LockStack<T> {
    lock: TtasLock,
    backoff: BackoffCfg,
    inner: UnsafeCell<ListState<T>>,
}

// Safety: `inner` is only touched under `lock`.
unsafe impl<T: Send> Send for LockStack<T> {}
unsafe impl<T: Send> Sync for LockStack<T> {}

impl<T> LockStack<T> {
    /// Empty stack; failed lock acquisitions retry immediately.
    pub fn new() -> Self {
        Self::with_backoff(BackoffCfg::NONE)
    }

    /// Empty stack with doubling backoff on failed lock acquisitions.
    pub fn with_backoff(backoff: BackoffCfg) -> Self {
        LockStack {
            lock: TtasLock::new(),
            backoff,
            inner: UnsafeCell::new(ListState {
                head: std::ptr::null_mut(),
                tail: std::ptr::null_mut(),
                len: 0,
            }),
        }
    }

    /// Push (blocking).
    pub fn push(&self, v: T) {
        let _g = self.lock.lock(self.backoff);
        // Safety: lock held.
        unsafe { self.push_top(v) };
    }

    /// Pop (blocking).
    pub fn pop(&self) -> Option<T> {
        let _g = self.lock.lock(self.backoff);
        // Safety: lock held.
        unsafe { self.pop_top() }
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

    unsafe fn push_top(&self, v: T) {
        // Safety: lock held by caller.
        let st = unsafe { &mut *self.inner.get() };
        let node = alloc(LNode {
            val: v,
            next: std::ptr::null_mut(),
        })
        .as_ptr();
        // Safety: node is fresh.
        unsafe { (*node).next = st.head };
        st.head = node;
        st.len += 1;
    }

    unsafe fn pop_top(&self) -> Option<T> {
        // Safety: lock held by caller.
        let st = unsafe { &mut *self.inner.get() };
        if st.head.is_null() {
            return None;
        }
        let node = st.head;
        // Safety: head is live.
        st.head = unsafe { (*node).next };
        st.len -= 1;
        // Safety: unlinked under the lock.
        Some(unsafe { take_lnode(node) })
    }
}

impl<T> Default for LockStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for LockStack<T> {
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

impl<T> Locked<T> for LockStack<T> {
    fn raw_lock(&self) -> &TtasLock {
        &self.lock
    }
    fn lock_backoff(&self) -> BackoffCfg {
        self.backoff
    }
    unsafe fn insert_locked(&self, v: T) -> bool {
        // Safety: forwarded contract (lock held).
        unsafe { self.push_top(v) };
        true
    }
    unsafe fn remove_locked(&self) -> Option<T> {
        // Safety: forwarded contract (lock held).
        unsafe { self.pop_top() }
    }
}

/// Blocking composed move: locks both objects (in address order), then
/// removes from `src` and inserts into `dst`. Atomic, but serializes against
/// *every* operation on either object — the composition cost the paper's
/// evaluation quantifies.
pub fn lock_move<T, S: Locked<T> + ?Sized, D: Locked<T> + ?Sized>(src: &S, dst: &D) -> bool {
    let a = src.raw_lock() as *const TtasLock;
    let b = dst.raw_lock() as *const TtasLock;
    if a == b {
        let _g = src.raw_lock().lock(src.lock_backoff());
        // Safety: lock held for both roles (same object).
        unsafe {
            match src.remove_locked() {
                Some(v) => {
                    dst.insert_locked(v);
                    true
                }
                None => false,
            }
        }
    } else {
        // Address-ordered acquisition prevents deadlock between concurrent
        // moves in opposite directions.
        let (first, first_bo, second, second_bo) = if (a as usize) < (b as usize) {
            (
                src.raw_lock(),
                src.lock_backoff(),
                dst.raw_lock(),
                dst.lock_backoff(),
            )
        } else {
            (
                dst.raw_lock(),
                dst.lock_backoff(),
                src.raw_lock(),
                src.lock_backoff(),
            )
        };
        let _g1 = first.lock(first_bo);
        let _g2 = second.lock(second_bo);
        // Safety: both locks held.
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
