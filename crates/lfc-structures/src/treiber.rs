//! Treiber's lock-free stack, made move-ready per the paper's §5.2 /
//! Algorithm 6: the linearization CASes at lines S7 (push) and S22 (pop)
//! become `scas` calls, push gains an abort path (S8–S10), and all reads of
//! `top` go through the DCAS `read` operation (S5, S15, S19).
//!
//! The stack is a verified move-candidate (paper Lemma 9). Note that a
//! *self*-move (stack onto itself) would put both linearization points on
//! the same `top` word — a case a two-word CAS cannot express; the move
//! layer detects it and reports [`lfc_core::MoveOutcome::WouldAlias`].
//!
//! The algorithm is written once, generic over how the `top` word encodes
//! the top node ([`TopWord`]): [`TreiberStack`] holds a bare node pointer,
//! [`crate::StampedStack`] a pointer plus the version stamp of the paper's
//! §7 ABA fix ([`crate::stamped`]). Both run this file's push, pop,
//! elimination and teardown.

use crate::elim::ElimArray;
use crate::node::{alloc, clone_val, free_unpublished, retire, try_alloc, Node, SoloHeader};
use lfc_core::{
    InsertCtx, InsertOutcome, LinPoint, MoveSource, MoveTarget, NormalCas, RemoveCtx,
    RemoveOutcome, ScasResult,
};
use lfc_hazard::{pin, pin_op};
use lfc_runtime::{Backoff, BackoffCfg};
use std::ptr::NonNull;

/// How a stack's `top` word encodes the top node. Node `next` links always
/// hold bare addresses; only `top` carries the format.
pub trait TopWord: 'static {
    /// The node address held in top word `w` (0: the stack is empty).
    fn addr(w: usize) -> usize;
    /// The top word that replaces `old` when the node at `addr` (0: none)
    /// becomes the top.
    fn next(old: usize, addr: usize) -> usize;
}

/// A bare node pointer: Algorithm 6's `top`.
pub struct PlainTop;

impl TopWord for PlainTop {
    #[inline]
    fn addr(w: usize) -> usize {
        w
    }

    #[inline]
    fn next(_old: usize, addr: usize) -> usize {
        addr
    }
}

/// A move-ready Treiber lock-free LIFO stack whose `top` word has format
/// `W`. Use it through its two instantiations, [`TreiberStack`] and
/// [`crate::StampedStack`].
///
/// The stack carries an embedded elimination exchanger
/// ([`crate::elim`]): a plain push and a plain pop that both failed their
/// `top` CAS may cancel each other through a side slot without ever
/// touching `top`. Composed operations never eliminate
/// ([`RemoveCtx::eliminable`] is `false` for composed contexts), and the
/// uncontended path is untouched — elimination is only attempted after a
/// CAS failure.
pub struct Treiber<T: Clone + Send + Sync + 'static, W: TopWord> {
    header: NonNull<SoloHeader>,
    backoff: BackoffCfg,
    elim: ElimArray<T>,
    _marker: std::marker::PhantomData<(T, W)>,
}

/// The Treiber stack of Algorithm 6: `top` is a bare node pointer.
pub type TreiberStack<T> = Treiber<T, PlainTop>;

// Safety: see `MsQueue`.
unsafe impl<T: Clone + Send + Sync + 'static, W: TopWord> Send for Treiber<T, W> {}
unsafe impl<T: Clone + Send + Sync + 'static, W: TopWord> Sync for Treiber<T, W> {}

impl<T: Clone + Send + Sync + 'static, W: TopWord> Treiber<T, W> {
    /// Empty stack without contention backoff.
    pub fn new() -> Self {
        Self::with_backoff(BackoffCfg::NONE)
    }

    /// Empty stack whose operations run `cfg` backoff on failed CASes.
    pub fn with_backoff(cfg: BackoffCfg) -> Self {
        Treiber {
            header: alloc(SoloHeader::new(0)),
            backoff: cfg,
            elim: ElimArray::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Fallible [`Treiber::new`]: surfaces header-allocation failure
    /// (genuine exhaustion, or the `structures.header` fault site) as `Err`
    /// instead of panicking.
    pub fn try_new() -> Result<Self, lfc_alloc::AllocError> {
        Ok(Treiber {
            header: try_alloc("structures.header", SoloHeader::new(0)).map_err(|(_, e)| e)?,
            backoff: BackoffCfg::NONE,
            elim: ElimArray::new(),
            _marker: std::marker::PhantomData,
        })
    }

    #[inline]
    pub(crate) fn top(&self) -> &lfc_dcas::DAtomic {
        // Safety: header lives until Drop retires it.
        &unsafe { self.header.as_ref() }.word
    }

    #[inline]
    fn header_addr(&self) -> usize {
        self.header.as_ptr() as usize
    }

    /// Push `v`. Lock-free; never fails on an unbounded stack.
    pub fn push(&self, v: T) {
        let r = self.insert_with(v, &mut NormalCas);
        debug_assert_eq!(r, InsertOutcome::Inserted);
    }

    /// Fallible [`Treiber::push`]: a node-allocation failure (genuine
    /// exhaustion, or the `structures.node` fault site) surfaces as `Err`
    /// with the element handed back and the stack untouched.
    pub fn try_push(&self, v: T) -> Result<(), (T, lfc_alloc::AllocError)> {
        let node = match try_alloc("structures.node", Node::new(Some(v))) {
            Ok(n) => n.as_ptr(),
            Err((n, e)) => return Err((n.val.into_inner().expect("value handed back"), e)),
        };
        let r = self.insert_node(node, &mut NormalCas);
        debug_assert_eq!(r, InsertOutcome::Inserted);
        Ok(())
    }

    /// Pop the most recently pushed element, if any. Lock-free.
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
        W::addr(self.top().read(&g)) == 0
    }

    /// Racy O(n) count; only meaningful on a quiescent stack (tests).
    pub fn count(&self) -> usize {
        let g = pin_op();
        let mut n = 0;
        let mut cur = W::addr(self.top().read(&g));
        while cur != 0 {
            n += 1;
            // Safety: quiescent per the docs.
            cur = unsafe { &(*(cur as *mut Node<T>)).next }.read_acquire(&g);
        }
        n
    }

    /// The raw `top` word, format bits included, so model scenarios can
    /// check that an eliminated pair leaves the stamp alone.
    #[cfg(lfc_model)]
    #[doc(hidden)]
    pub fn top_word(&self) -> usize {
        let g = pin();
        self.top().read(&g)
    }
}

impl<T: Clone + Send + Sync + 'static, W: TopWord> Default for Treiber<T, W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone + Send + Sync + 'static, W: TopWord> Treiber<T, W> {
    /// Algorithm 6, `push` (lines S4–S12), on an already-allocated node:
    /// the shared tail of the infallible ([`MoveTarget::insert_with`]) and
    /// fallible ([`Treiber::try_push`]) insert paths.
    fn insert_node<C: InsertCtx>(&self, node: *mut Node<T>, ctx: &mut C) -> InsertOutcome {
        let g = pin();
        #[cfg(lfc_model)]
        if ctx.eliminable() && crate::model_toggles::force_elim() {
            // Deterministic-exploration hook: collide in the exchanger
            // *before* touching `top`, so the model scenario reaches the
            // pairing interleavings within its budget.
            // Safety: node unpublished, ours.
            if unsafe { self.elim.offer_push(node, &g, g.tid() as usize) } {
                return InsertOutcome::Inserted;
            }
        }
        let mut bo = Backoff::new(self.backoff);
        loop {
            let ltop = self.top().read(&g); // S5
                                            // S6: link the unpublished node.
                                            // Safety: node is ours until the CAS publishes it.
            unsafe { &(*node).next }.store_word(W::addr(ltop));
            // S7: the linearization point.
            match ctx.scas(LinPoint {
                word: self.top(),
                old: ltop,
                new: W::next(ltop, node as usize),
                hp: self.header_addr(),
            }) {
                ScasResult::Abort => {
                    // S8–S10.
                    // Safety: never published.
                    unsafe { free_unpublished(node) };
                    return InsertOutcome::Rejected;
                }
                ScasResult::Success => return InsertOutcome::Inserted, // S11–S12
                ScasResult::Fail => {
                    // Contention observed: offer the (still unpublished)
                    // node for elimination before backing off. A claimed
                    // offer completes the push — the colliding pop
                    // linearized it — and hands node ownership to the
                    // popper.
                    if ctx.eliminable() {
                        // Safety: node unpublished, ours until claimed.
                        if unsafe { self.elim.offer_push(node, &g, g.tid() as usize) } {
                            return InsertOutcome::Inserted;
                        }
                    }
                    bo.fail()
                }
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static, W: TopWord> MoveTarget<T> for Treiber<T, W> {
    /// Algorithm 6, `push` (lines S1–S12). Needs no operation epoch: the
    /// only shared word it touches is `top` (header allocation, kept alive
    /// by the `&self` borrow); it never dereferences a node.
    fn insert_with<C: InsertCtx>(&self, elem: T, ctx: &mut C) -> InsertOutcome {
        let node = alloc(Node::new(Some(elem))).as_ptr(); // S2–S3
        self.insert_node(node, ctx)
    }
}

impl<T: Clone + Send + Sync + 'static, W: TopWord> MoveSource<T> for Treiber<T, W> {
    /// Algorithm 6, `pop` (lines S13–S24). Fence-free since PR 3: the
    /// operation epoch replaces the S18 hazard publication and the S19–S20
    /// validation re-read — nodes cannot be recycled inside our epoch, so
    /// the S22 CAS cannot ABA onto a reallocated block.
    fn remove_with<C: RemoveCtx<T>>(&self, ctx: &mut C) -> RemoveOutcome<T> {
        let mut g = pin_op();
        #[cfg(lfc_model)]
        if ctx.eliminable() && crate::model_toggles::force_elim() {
            if let Some(v) = self.elim.try_take(g.tid() as usize) {
                return RemoveOutcome::Removed(v);
            }
        }
        let mut bo = Backoff::new(self.backoff);
        loop {
            // Ejection check (PR 6): the retry head holds no pointers, so
            // an ejected thread acknowledges here and re-reads `top` under
            // its fresh era.
            g.repin_if_ejected();
            let ltop = self.top().read(&g); // S15
            if W::addr(ltop) == 0 {
                return RemoveOutcome::Empty; // S16–S17
            }
            let node = W::addr(ltop) as *mut Node<T>;
            // S21: the element is accessible before the linearization point.
            // Safety: ltop was reachable through `top` inside this epoch.
            let val = unsafe { clone_val(node) };
            // `ltop.next` is immutable while the node is linked.
            let lnext = unsafe { &(*node).next }.read_acquire(&g);
            // S22: the linearization point.
            let r = ctx.scas(
                LinPoint {
                    word: self.top(),
                    old: ltop,
                    new: W::next(ltop, lnext),
                    hp: self.header_addr(),
                },
                &val,
            );
            match r {
                ScasResult::Success => {
                    // S23–S24.
                    // Safety: unlinked by the successful CAS.
                    unsafe { retire(node) };
                    return RemoveOutcome::Removed(val);
                }
                ScasResult::Fail => {
                    // Contention observed: try to cancel against a waiting
                    // pusher instead of re-fighting over `top`.
                    if ctx.eliminable() {
                        if let Some(v) = self.elim.try_take(g.tid() as usize) {
                            return RemoveOutcome::Removed(v);
                        }
                    }
                    bo.fail()
                }
                ScasResult::Abort => return RemoveOutcome::Aborted,
            }
        }
    }
}

impl<T: Clone + Send + Sync + 'static, W: TopWord> Drop for Treiber<T, W> {
    fn drop(&mut self) {
        let g = pin();
        let mut cur = W::addr(self.top().read(&g));
        while cur != 0 {
            let node = cur as *mut Node<T>;
            // Safety: exclusive teardown; see MsQueue::drop.
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
    fn lifo_order() {
        let s: TreiberStack<u64> = TreiberStack::new();
        assert!(s.is_empty());
        for i in 0..100 {
            s.push(i);
        }
        for i in (0..100).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn count_matches() {
        let s: TreiberStack<u64> = TreiberStack::new();
        for i in 0..9 {
            s.push(i);
        }
        assert_eq!(s.count(), 9);
        s.pop();
        assert_eq!(s.count(), 8);
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
            let s: TreiberStack<D> = TreiberStack::new();
            for _ in 0..20 {
                s.push(D);
            }
        }
        crate::test_util::flush_until(|| DROPS.load(Ordering::SeqCst) - before == 20);
        assert_eq!(DROPS.load(Ordering::SeqCst) - before, 20);
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        const THREADS: u64 = 4;
        const PER: u64 = 5_000;
        let s: TreiberStack<u64> = TreiberStack::new();
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let s = &s;
                let seen = &seen;
                sc.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER {
                        s.push(t * PER + i);
                        if i % 3 == 0 {
                            if let Some(v) = s.pop() {
                                mine.push(v);
                            }
                        }
                    }
                    let mut set = seen.lock().unwrap();
                    for v in mine {
                        assert!(set.insert(v), "duplicate {v}");
                    }
                });
            }
        });
        // Drain the rest.
        let mut set = seen.lock().unwrap();
        while let Some(v) = s.pop() {
            assert!(set.insert(v), "duplicate {v}");
        }
        assert_eq!(set.len() as u64, THREADS * PER, "no values lost");
    }
}
