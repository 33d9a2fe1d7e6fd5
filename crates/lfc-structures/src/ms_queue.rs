//! The lock-free queue of Michael & Scott, made move-ready exactly as the
//! paper's §5.1 / Algorithm 5 prescribes:
//!
//! * the linearization-point CASes (lines Q14 and Q34) are `scas` calls —
//!   here, calls into the linearization context;
//! * the enqueue can abort (lines Q15–Q17), freeing its node;
//! * every read of `head`, `tail` or a node's `next` goes through the DCAS
//!   `read` operation (lines Q6–Q10, Q23–Q28) — interior hops through the
//!   fence-free `read_acquire` variant;
//! * reclamation protection is epoch-batched (PR 3): one `pin_op` per
//!   operation instead of per-node hazard publication; the composition
//!   engine promotes each captured linearization entry into an `ENTRY*`
//!   hazard slot at capture time, which also preserves the paper's
//!   requirement that a move's insert cannot overwrite its remove's
//!   protections (the entries own disjoint slots by construction).
//!
//! The queue is a verified move-candidate (paper Lemma 8): the linearization
//! points of successful enqueue/dequeue are successful CASes on pointer
//! words executed by the invoking thread, and the dequeued value is read at
//! line Q33, before the linearization point.

use crate::node::{alloc, clone_val, free_unpublished, retire, try_alloc, Node, PairHeader};
use lfc_core::{
    InsertCtx, InsertOutcome, LinPoint, MoveSource, MoveTarget, NormalCas, RemoveCtx,
    RemoveOutcome, ScasResult,
};
use lfc_hazard::{pin, pin_op};
use lfc_runtime::{Backoff, BackoffCfg};
use std::ptr::NonNull;

/// A move-ready Michael–Scott lock-free FIFO queue.
///
/// `enqueue`/`dequeue` are the object's ordinary operations; the queue also
/// implements [`MoveSource`] and [`MoveTarget`], so elements can be moved
/// atomically between it and any other move-ready object with
/// [`lfc_core::move_one`].
pub struct MsQueue<T: Clone + Send + Sync + 'static> {
    header: NonNull<PairHeader>,
    backoff: BackoffCfg,
    _marker: std::marker::PhantomData<T>,
}

// Safety: the queue is a handle to hazard-managed shared state; values are
// cloned out through shared references (hence `T: Sync`) and sent between
// threads (hence `T: Send`).
unsafe impl<T: Clone + Send + Sync + 'static> Send for MsQueue<T> {}
unsafe impl<T: Clone + Send + Sync + 'static> Sync for MsQueue<T> {}

impl<T: Clone + Send + Sync + 'static> MsQueue<T> {
    /// Empty queue (no backoff on contention, as in the paper's primary runs).
    pub fn new() -> Self {
        Self::with_backoff(BackoffCfg::NONE)
    }

    /// Empty queue whose operations run `cfg` backoff on failed CASes.
    pub fn with_backoff(cfg: BackoffCfg) -> Self {
        let dummy = alloc(Node::<T>::new(None)).as_ptr();
        MsQueue {
            header: alloc(PairHeader::new(dummy as usize, dummy as usize)),
            backoff: cfg,
            _marker: std::marker::PhantomData,
        }
    }

    /// Fallible [`MsQueue::new`]: surfaces dummy-node or header allocation
    /// failure (genuine exhaustion, or the `structures.node` /
    /// `structures.header` fault sites) as `Err` instead of panicking.
    pub fn try_new() -> Result<Self, lfc_alloc::AllocError> {
        let dummy = match try_alloc("structures.node", Node::<T>::new(None)) {
            Ok(n) => n.as_ptr(),
            Err((_, e)) => return Err(e),
        };
        match try_alloc(
            "structures.header",
            PairHeader::new(dummy as usize, dummy as usize),
        ) {
            Ok(header) => Ok(MsQueue {
                header,
                backoff: BackoffCfg::NONE,
                _marker: std::marker::PhantomData,
            }),
            Err((_, e)) => {
                // Safety: the dummy was never published.
                unsafe { free_unpublished(dummy) };
                Err(e)
            }
        }
    }

    #[inline]
    fn h(&self) -> &PairHeader {
        // Safety: the header lives until Drop retires it.
        unsafe { self.header.as_ref() }
    }

    #[inline]
    fn head(&self) -> &lfc_dcas::DAtomic {
        &self.h().first
    }

    #[inline]
    fn tail(&self) -> &lfc_dcas::DAtomic {
        &self.h().second
    }

    #[inline]
    fn header_addr(&self) -> usize {
        self.header.as_ptr() as usize
    }

    /// Append `v` at the tail. Lock-free; never fails on an unbounded queue.
    pub fn enqueue(&self, v: T) {
        let r = self.insert_with(v, &mut NormalCas);
        debug_assert_eq!(r, InsertOutcome::Inserted);
    }

    /// Fallible [`MsQueue::enqueue`]: a node-allocation failure (genuine
    /// exhaustion, or the `structures.node` fault site) surfaces as `Err`
    /// with the element handed back and the queue untouched.
    pub fn try_enqueue(&self, v: T) -> Result<(), (T, lfc_alloc::AllocError)> {
        let node = match try_alloc("structures.node", Node::new(Some(v))) {
            Ok(n) => n.as_ptr(),
            Err((n, e)) => return Err((n.val.into_inner().expect("value handed back"), e)),
        };
        let r = self.insert_node(node, &mut NormalCas);
        debug_assert_eq!(r, InsertOutcome::Inserted);
        Ok(())
    }

    /// Remove and return the element at the head, if any. Lock-free.
    pub fn dequeue(&self) -> Option<T> {
        match self.remove_with(&mut NormalCas) {
            RemoveOutcome::Removed(v) => Some(v),
            RemoveOutcome::Empty => None,
            RemoveOutcome::Aborted => unreachable!("NormalCas never aborts"),
        }
    }

    /// Whether the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        let g = pin_op();
        let lhead = self.head().read(&g);
        let node = lhead as *mut Node<T>;
        // Safety: lhead was reachable through `head` inside this epoch.
        let lnext = unsafe { &(*node).next }.read_acquire(&g);
        lnext == 0
    }

    /// Racy O(n) node count; only meaningful on a quiescent queue (tests).
    pub fn count(&self) -> usize {
        let g = pin_op();
        let mut n = 0;
        let mut cur = self.head().read(&g);
        loop {
            let node = cur as *mut Node<T>;
            // Safety: only called on quiescent queues per the docs.
            let next = unsafe { &(*node).next }.read_acquire(&g);
            if next == 0 {
                return n;
            }
            n += 1;
            cur = next;
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Default for MsQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + Sync + 'static> MsQueue<T> {
    /// Algorithm 5, `enqueue` (lines Q5–Q20), on an already-allocated node:
    /// the shared tail of the infallible ([`MoveTarget::insert_with`]) and
    /// fallible ([`MsQueue::try_enqueue`]) insert paths.
    fn insert_node<C: InsertCtx>(&self, node: *mut Node<T>, ctx: &mut C) -> InsertOutcome {
        let mut g = pin_op();
        let mut bo = Backoff::new(self.backoff);
        loop {
            // Ejection check (PR 6): nothing from a prior iteration is
            // live here; `node` is unpublished and survives the re-entry.
            g.repin_if_ejected();
            let ltail = self.tail().read(&g); // Q6
            let tail_node = ltail as *mut Node<T>;
            // Safety: ltail was reachable through `tail` inside this epoch,
            // so the allocation outlives the operation even if the node is
            // dequeued concurrently.
            let next_word = unsafe { &(*tail_node).next };
            let lnext = next_word.read_acquire(&g); // Q8
            if lnext != 0 {
                // Q11–Q13: tail lags; help it forward.
                self.tail().cas_word(ltail, lnext);
                continue;
            }
            // Q14: the linearization point. A `next` word is written once
            // (0 → successor) in a node's lifetime and nodes cannot be
            // recycled inside our epoch, so success proves `ltail` was
            // still the last node — no Q10 re-validation needed.
            match ctx.scas(LinPoint {
                word: next_word,
                old: 0,
                new: node as usize,
                hp: ltail, // allocation containing the CAS word
            }) {
                ScasResult::Abort => {
                    // Q15–Q17.
                    // Safety: never published.
                    unsafe { free_unpublished(node) };
                    return InsertOutcome::Rejected;
                }
                ScasResult::Success => {
                    // Q18–Q20: cleanup phase — swing the tail.
                    self.tail().cas_word(ltail, node as usize);
                    return InsertOutcome::Inserted;
                }
                ScasResult::Fail => bo.fail(),
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> MoveTarget<T> for MsQueue<T> {
    /// Algorithm 5, `enqueue` (lines Q1–Q20). Fence-free since PR 3: the
    /// operation epoch replaces the Q7/Q9 hazard publications and the
    /// Q10 validation re-read — a stale `ltail` simply fails the Q14 CAS.
    fn insert_with<C: InsertCtx>(&self, elem: T, ctx: &mut C) -> InsertOutcome {
        let node = alloc(Node::new(Some(elem))).as_ptr(); // Q2–Q4 (next = 0)
        self.insert_node(node, ctx)
    }
}

impl<T: Clone + Send + Sync + 'static> MoveSource<T> for MsQueue<T> {
    /// Algorithm 5, `dequeue` (lines Q21–Q36). Fence-free since PR 3: the
    /// operation epoch replaces the Q24/Q27 hazard publications and the
    /// Q28 validation re-read.
    fn remove_with<C: RemoveCtx<T>>(&self, ctx: &mut C) -> RemoveOutcome<T> {
        let mut g = pin_op();
        let mut bo = Backoff::new(self.backoff);
        loop {
            // Ejection check (PR 6): see `insert_with`.
            g.repin_if_ejected();
            let lhead = self.head().read(&g); // Q23
            let ltail = self.tail().read(&g); // Q25
            let head_node = lhead as *mut Node<T>;
            // Safety: lhead was reachable through `head` inside this epoch.
            let lnext = unsafe { &(*head_node).next }.read_acquire(&g); // Q26
            if lnext == 0 {
                // Q29: empty. A `next` word is written once (0 → successor)
                // and `head` only ever swings to a non-null successor, so
                // reading 0 here proves `lhead` was still the head (and
                // last node) at the Q26 read — the linearization point of
                // the empty return.
                return RemoveOutcome::Empty;
            }
            if lhead == ltail {
                // Q30–Q32: help the lagging tail.
                self.tail().cas_word(ltail, lnext);
                continue;
            }
            // Q33: the element is accessible before the linearization point.
            // Safety: lnext's node is retired no earlier than `head` swings
            // past it, which requires the (epoch-pinned) unlink of lhead
            // first; values are immutable.
            let val = unsafe { clone_val(lnext as *mut Node<T>) };
            // Q34: the linearization point.
            let r = ctx.scas(
                LinPoint {
                    word: self.head(),
                    old: lhead,
                    new: lnext,
                    hp: self.header_addr(), // head lives in the header block
                },
                &val,
            );
            match r {
                ScasResult::Success => {
                    // Q35–Q36: cleanup phase — retire the old dummy.
                    // Safety: lhead is now unlinked; traversals entering
                    // after this retire cannot reach it, and stale hazard
                    // readers fail validation.
                    unsafe { retire(head_node) };
                    return RemoveOutcome::Removed(val);
                }
                ScasResult::Fail => bo.fail(),
                ScasResult::Abort => {
                    // Only reachable through a move whose insert was
                    // rejected; the queue itself is untouched.
                    return RemoveOutcome::Aborted;
                }
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for MsQueue<T> {
    fn drop(&mut self) {
        let g = pin();
        // `read` resolves any stale descriptor leftovers before we walk.
        let mut cur = self.head().read(&g);
        while cur != 0 {
            let node = cur as *mut Node<T>;
            // Safety: exclusive access (&mut self); helpers of long-decided
            // moves may still hold hazards on these nodes, which is exactly
            // why we retire instead of freeing.
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
    fn fifo_order() {
        let q: MsQueue<u64> = MsQueue::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.enqueue(i);
        }
        assert!(!q.is_empty());
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_enq_deq() {
        let q: MsQueue<u64> = MsQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn count_matches() {
        let q: MsQueue<u64> = MsQueue::new();
        for i in 0..17 {
            q.enqueue(i);
        }
        assert_eq!(q.count(), 17);
        q.dequeue();
        assert_eq!(q.count(), 16);
    }

    #[test]
    fn drop_reclaims_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone)]
        struct D(#[allow(dead_code)] u64);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let before = DROPS.load(Ordering::SeqCst);
        {
            let q: MsQueue<D> = MsQueue::new();
            for i in 0..50 {
                q.enqueue(D(i));
            }
            for _ in 0..10 {
                drop(q.dequeue()); // each dequeue drops one clone
            }
        }
        // 50 originals + 10 clones.
        crate::test_util::flush_until(|| DROPS.load(Ordering::SeqCst) - before == 60);
        assert_eq!(DROPS.load(Ordering::SeqCst) - before, 60);
    }

    #[test]
    fn mpmc_all_values_exactly_once() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        const PRODUCERS: u64 = 3;
        const PER: u64 = 5_000;
        let q: MsQueue<u64> = MsQueue::new();
        let seen = Mutex::new(HashSet::new());
        let taken = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER {
                        q.enqueue(p * PER + i);
                    }
                });
            }
            let taken = &taken;
            for _ in 0..3 {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut got = Vec::new();
                    while taken.load(std::sync::atomic::Ordering::Relaxed) < PRODUCERS * PER {
                        if let Some(v) = q.dequeue() {
                            got.push(v);
                            taken.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    let mut s = seen.lock().unwrap();
                    for v in got {
                        assert!(s.insert(v), "duplicate {v}");
                    }
                });
            }
        });
        let total = seen.lock().unwrap().len() as u64 + q.count() as u64;
        assert_eq!(total, PRODUCERS * PER, "no values lost");
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // FIFO per producer: consumer must see each producer's values in order.
        let q: MsQueue<(u8, u64)> = MsQueue::new();
        std::thread::scope(|s| {
            for p in 0..2u8 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        q.enqueue((p, i));
                    }
                });
            }
            let q = &q;
            s.spawn(move || {
                let mut last = [0i64; 2];
                let mut got = 0;
                while got < 20_000 {
                    if let Some((p, i)) = q.dequeue() {
                        assert!(
                            (i as i64) > last[p as usize] - 1 && last[p as usize] <= i as i64,
                            "producer {p} reordered: {i} after {}",
                            last[p as usize]
                        );
                        last[p as usize] = i as i64 + 1;
                        got += 1;
                    }
                }
            });
        });
    }
}
