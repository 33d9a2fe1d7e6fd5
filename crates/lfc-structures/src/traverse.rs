//! The shared traversal kernel: **one** keyed chain for every marked-chain
//! structure in this crate.
//!
//! [`OrderedSet`](crate::OrderedSet), [`LfHashMap`](crate::LfHashMap) and
//! the bottom level of [`LfSkipMap`](crate::LfSkipMap) are all the same
//! data structure at the chain level: nodes threaded through a raw
//! protocol word whose bit 2 ([`DEL_MARK`]) is the Harris logical-delete
//! mark, searched by "first node at-or-after the target". The search loop
//! ([`find_pos`]) and the keyed operations built on it — [`insert`],
//! [`remove`], [`get`], the live walk [`for_each_live`] (and [`count`] on
//! it) and the teardown walk [`retire_chain`] —
//! are written once, here. A structure supplies only:
//!
//! * its node layout ([`ChainNode`]);
//! * a `find` closure — its restart anchor and ordering predicate around
//!   [`find_pos`], plus the ejection-restart point (below);
//! * a key-match predicate;
//! * at most two hooks: one after a successful link (the hash map's
//!   growth heuristic, the skip map's tower build) and one after a
//!   successful mark, before the physical unlink (the hash map's item
//!   count, the skip map's tower freeze and sweep).
//!
//! Structural work that is not a linearization point — the hash map's
//! bucket-dummy threading, the skip map's tower surgery — stays with the
//! structure.
//!
//! # Keyed insert and remove are move-ready (paper Definition 1)
//!
//! Each linearizes at exactly one `scas` on a chain word, executed by the
//! invoking thread:
//!
//! * **insert** stages the successor into its unpublished node, then CASes
//!   the predecessor word from `cur` to the node (the link CAS). A
//!   duplicate key is a rejection decided before any shared write; the
//!   node is freed unpublished on rejection and on `Abort`.
//! * **remove** clones the element out of the matching node *before* the
//!   linearization point (requirement 4), then CASes the node's own chain
//!   word from `succ` to `succ | DEL_MARK` (the mark CAS). The physical
//!   unlink after it is cleanup: the remover tries once, any later
//!   traversal helps, and only the winner of that unlink CAS hands the
//!   node to [`ChainNode::retire_unlinked`].
//!
//! A `Fail` from either `scas` re-runs the `find`. These two `ctx.scas`
//! calls are the only keyed linearization points in the crate.
//!
//! # The traversal (Michael's `find`, fence-free since PR 3)
//!
//! The walk holds no per-node hazards. The caller's *operation epoch*
//! ([`lfc_hazard::pin_op`], one fence at entry) protects every node the
//! walk can reach: any node reachable after the epoch's enter fence is
//! retired, if at all, at an epoch no scan can free under us — so the
//! hops are plain acquire reads with no per-node hazard publication or
//! validation re-read. This is the **single** statement of the PR 3
//! fence-free proof; the call sites only assert which guard provides the
//! epoch.
//!
//! Per hop, in order:
//!
//! 1. **Predecessor-mark check.** `*prev_word` is re-read; if the mark
//!    bit is set, the predecessor was logically deleted under us — its
//!    link is frozen and no longer part of the live chain — and the walk
//!    restarts from the anchor (Michael's find re-checks the mark on
//!    every hop).
//! 2. **Unlink helping.** If `cur`'s own next word carries the mark,
//!    `cur` is logically deleted: the walk CASes it out of the chain
//!    (cleanup helping; a stale `prev_word` makes the CAS fail
//!    harmlessly) and the **winner** of that CAS retires the node via
//!    [`ChainNode::retire_unlinked`]. With the remover's own cleanup
//!    attempt in [`remove`], these are the only chain-unlink sites.
//! 3. **Ordering predicate.** The first `cur` with `at_or_after(cur)`
//!    ends the walk; otherwise `cur` becomes the predecessor.
//!
//! # Restart anchor and the ejection restart point
//!
//! The anchor is a closure, re-invoked on **every** restart (not hoisted),
//! because the structures restart differently: `OrderedSet` at its list
//! head (constant); `LfHashMap` at a bucket dummy's next word (dummies are
//! never logically deleted or unlinked and live until `Drop`, so the same
//! dummy stays sound and the walk runs under a plain [`Guard`] via
//! [`NoRepin`]); `LfSkipMap` at the closest level-≥1 predecessor, which
//! *can* be deleted between restarts, so its closure re-runs the tower
//! search.
//!
//! [`TraverseGuard::at_restart`] runs at the top of every retry, where
//! the walk holds no pointers: for an [`OpGuard`] this is
//! [`OpGuard::repin_if_ejected`], free to acknowledge there because the
//! walk re-derives everything from the anchor under the fresh era.
//! Every retry of [`insert`] and [`remove`] passes **exactly one** such
//! point before it derives a pointer, and it is the `find` closure's:
//! `OrderedSet` and `LfSkipMap` get it from [`find_pos`]; `LfHashMap`
//! repins in its closure before resolving the start dummy. An insert's
//! unpublished node is the caller's and survives every restart.
//!
//! # Ordering audit (moved here from the two pre-PR 9 copies)
//!
//! | access | ordering | why |
//! |---|---|---|
//! | `*prev_word` read | Acquire (`read_acquire`) | pairs with the inserting/unlinking CAS's Release: the successor's fields are visible before its address |
//! | `cur.next` read | Acquire | same pairing; also carries the logical-delete mark |
//! | unlink CAS | AcqRel (`cas_word`) | Release republishes the successor chain under the new link; Acquire orders the retire after the frozen link's final value |
//! | retire | — | winner-only (the CAS arbitrates), under the caller's epoch |
//! | remove's `succ` read | SeqCst (`read`), helping any descriptor | unchanged from the per-structure copies; the mark CAS re-validates it |
//! | insert's successor stage | Release (`store_word`) | the node is unpublished; the link CAS's Release publishes it |
//! | link / mark CAS | the context's `scas` | `NormalCas` is `cas_word` (AcqRel); composed contexts capture the triple |

use crate::node::{free_unpublished, retire, Block};
use lfc_core::{InsertCtx, InsertOutcome, LinPoint, RemoveCtx, RemoveOutcome, ScasResult};
use lfc_dcas::DAtomic;
use lfc_hazard::{Guard, OpGuard};

/// Logical-deletion mark on raw chain words (descriptor kind bits are
/// [1:0], so the mark occupies bit 2 of the 8-aligned pointer word).
pub(crate) const DEL_MARK: usize = 0b100;

/// Whether a raw chain word carries the logical-delete mark.
#[inline]
pub(crate) fn is_deleted(w: usize) -> bool {
    w & DEL_MARK != 0
}

/// The chain word with the logical-delete mark stripped.
#[inline]
pub(crate) fn without_mark(w: usize) -> usize {
    w & !DEL_MARK
}

/// A node type whose instances are threaded through a marked chain word.
///
/// # Safety
///
/// `chain_word` must return the word the chain is threaded through (the
/// word carrying [`DEL_MARK`] when the node is logically deleted),
/// `elem` must only read a value written before publication, and
/// `retire_unlinked` must be safe to call exactly once on a node that has
/// been physically unlinked from the chain while epoch-protected.
pub(crate) unsafe trait ChainNode: Block {
    /// The element a data node carries.
    type Elem: Clone;

    /// The node's chain ("next") word.
    fn chain_word(&self) -> &DAtomic;

    /// The node's element; `None` only for the hash map's bucket dummies.
    fn elem(&self) -> Option<&Self::Elem>;

    /// Hand the physically unlinked node to reclamation.
    ///
    /// Called only by the winner of the unlink CAS. For plainly owned
    /// nodes this is a hazard-retire; [`LfSkipMap`](crate::LfSkipMap)
    /// nodes instead release the level-0 tower reference here (the node
    /// retires when the last level lets go).
    ///
    /// # Safety
    ///
    /// `p` was just unlinked by the caller and is epoch-protected.
    unsafe fn retire_unlinked(p: *mut Self) {
        // Safety: forwarded contract.
        unsafe { retire(p) };
    }
}

/// Where a key belongs in a chain: the word to CAS and its successor.
///
/// `prev_alloc` was called `prev_hp` before PR 9 — a relic of the
/// pre-PR 3 per-node hazard-pointer scheme. It is *not* a hazard: it is
/// the base address of the allocation hosting `prev_word` (anchor header
/// or predecessor node), recorded so a composed capture can promote that
/// allocation into an `ENTRY*` hazard slot at capture time
/// ([`lfc_core::LinPoint::hp`]). [`find_pos`] records the predecessor
/// node's own address; a node that is not its own block (a hash-map bucket
/// dummy, embedded in its directory segment) is mapped to its block by the
/// structure's `find`.
pub(crate) struct Position<N> {
    /// Word holding `cur` (the anchor word or a predecessor's chain word).
    pub prev_word: *const DAtomic,
    /// Base of the allocation containing `prev_word` (see type docs).
    pub prev_alloc: usize,
    /// First node satisfying the ordering predicate, or null.
    pub cur: *mut N,
}

/// The guard a traversal runs under: an epoch source plus an optional
/// ejection-restart hook.
pub(crate) trait TraverseGuard {
    /// Called at the top of every retry, where the walk holds no
    /// pointers (the PR 6 restart point).
    fn at_restart(&mut self);

    /// The epoch guard protecting the walk's reads.
    fn guard(&self) -> &Guard;
}

impl TraverseGuard for OpGuard {
    #[inline]
    fn at_restart(&mut self) {
        self.repin_if_ejected();
    }

    #[inline]
    fn guard(&self) -> &Guard {
        self
    }
}

/// [`TraverseGuard`] for walks anchored at a structure whose anchor can
/// never be logically deleted (bucket dummies): restarting needs no
/// repin, so a plain borrowed [`Guard`] suffices.
pub(crate) struct NoRepin<'g>(pub &'g Guard);

impl TraverseGuard for NoRepin<'_> {
    #[inline]
    fn at_restart(&mut self) {}

    #[inline]
    fn guard(&self) -> &Guard {
        self.0
    }
}

/// Locate the first node satisfying `at_or_after`, unlinking logically
/// deleted nodes on the way. See the module docs for the full protocol
/// and safety argument.
///
/// `anchor` returns the restart anchor — the word to start from and the
/// base address of its allocation — and is re-invoked on every restart.
///
/// # Safety
///
/// * `anchor` must return a word reachable and epoch-protected under the
///   guard it is handed (an owned header, a never-deleted dummy, or a
///   node found under that same guard's epoch).
/// * Every node threaded through the chain must be an `N` allocated for
///   this chain's [`ChainNode`] discipline.
#[inline]
pub(crate) unsafe fn find_pos<N, G, A, P>(
    g: &mut G,
    mut anchor: A,
    mut at_or_after: P,
) -> Position<N>
where
    N: ChainNode,
    G: TraverseGuard,
    A: FnMut(&Guard) -> (*const DAtomic, usize),
    P: FnMut(*mut N) -> bool,
{
    'retry: loop {
        g.at_restart();
        let (mut prev_word, mut prev_alloc) = anchor(g.guard());
        loop {
            // Safety: prev allocation is epoch-protected (anchor contract;
            // advanced predecessors were reachable inside this epoch).
            let cur = unsafe { &*prev_word }.read_acquire(g.guard());
            if is_deleted(cur) {
                // Predecessor logically deleted under us: its link is
                // frozen and off the live chain — restart at the anchor.
                continue 'retry;
            }
            if cur == 0 {
                return Position {
                    prev_word,
                    prev_alloc,
                    cur: std::ptr::null_mut(),
                };
            }
            let cur_node = cur as *mut N;
            // Safety: cur was reachable through the live chain inside this
            // epoch, so its allocation cannot be reclaimed yet even if it
            // is unlinked concurrently.
            let next_w = unsafe { &*cur_node }.chain_word().read_acquire(g.guard());
            if is_deleted(next_w) {
                // Logically deleted: unlink (cleanup helping) and retry.
                // A stale prev word makes the CAS fail harmlessly.
                if unsafe { &*prev_word }.cas_word(cur, without_mark(next_w)) {
                    // Safety: we won the unlink.
                    unsafe { N::retire_unlinked(cur_node) };
                }
                continue 'retry;
            }
            if at_or_after(cur_node) {
                return Position {
                    prev_word,
                    prev_alloc,
                    cur: cur_node,
                };
            }
            // Advance: cur becomes the new predecessor.
            prev_word = unsafe { &*cur_node }.chain_word();
            prev_alloc = cur;
        }
    }
}

/// Keyed insert: link the unpublished `node` at the position `find`
/// returns, unless `is_dup` says that position already holds its key.
/// `linked` runs after a successful link CAS. See the module docs.
///
/// # Safety
///
/// `node` is unpublished and owned by the caller (this call consumes it),
/// and `find` upholds [`find_pos`]'s contract under the guard it is handed.
pub(crate) unsafe fn insert<N, C>(
    g: &mut OpGuard,
    node: *mut N,
    ctx: &mut C,
    mut find: impl FnMut(&mut OpGuard) -> Position<N>,
    is_dup: impl Fn(&N) -> bool,
    linked: impl FnOnce(*mut N, &OpGuard),
) -> InsertOutcome
where
    N: ChainNode,
    C: InsertCtx,
{
    loop {
        let pos = find(g);
        // Safety: cur epoch-protected by find's guard.
        if !pos.cur.is_null() && is_dup(unsafe { &*pos.cur }) {
            // Duplicate key: genuine rejection (fails a move).
            // Safety: never published.
            unsafe { free_unpublished(node) };
            return InsertOutcome::Rejected;
        }
        // Safety: unpublished node.
        unsafe { &*node }.chain_word().store_word(pos.cur as usize);
        let r = ctx.scas(LinPoint {
            // Safety: prev allocation (anchor, dummy or node) epoch-protected;
            // a composed capture promotes `hp` into an ENTRY hazard slot
            // before the commit so the protection outlives this epoch.
            word: unsafe { &*pos.prev_word },
            old: pos.cur as usize,
            new: node as usize,
            hp: pos.prev_alloc,
        });
        match r {
            ScasResult::Success => {
                linked(node, g);
                return InsertOutcome::Inserted;
            }
            ScasResult::Fail => continue,
            ScasResult::Abort => {
                // Safety: never published.
                unsafe { free_unpublished(node) };
                return InsertOutcome::Rejected;
            }
        }
    }
}

/// Keyed remove: logically delete the node at the position `find` returns
/// if `matches` accepts it, then try the physical unlink. `marked` runs
/// after a successful mark CAS, before that unlink. See the module docs.
///
/// # Safety
///
/// `find` upholds [`find_pos`]'s contract under the guard it is handed.
pub(crate) unsafe fn remove<N, C>(
    g: &mut OpGuard,
    ctx: &mut C,
    mut find: impl FnMut(&mut OpGuard) -> Position<N>,
    matches: impl Fn(&N) -> bool,
    marked: impl FnOnce(*mut N, &OpGuard),
) -> RemoveOutcome<N::Elem>
where
    N: ChainNode,
    C: RemoveCtx<N::Elem>,
{
    loop {
        let pos = find(g);
        let cur = pos.cur;
        // Safety: cur epoch-protected by find's guard (non-null).
        if cur.is_null() || !matches(unsafe { &*cur }) {
            return RemoveOutcome::Empty;
        }
        // Safety: cur epoch-protected.
        let word = unsafe { &*cur }.chain_word();
        let succ_w = word.read(g);
        if is_deleted(succ_w) {
            continue; // someone else is removing it; re-find
        }
        // Element accessible before the linearization point (req. 4).
        let val = match unsafe { &*cur }.elem() {
            Some(v) => v.clone(),
            None => unreachable!("a matching node is a data node"),
        };
        // The linearization point: the logical-delete marking CAS. A
        // composed capture promotes `hp` into an ENTRY hazard slot.
        let r = ctx.scas(
            LinPoint {
                word,
                old: succ_w,
                new: succ_w | DEL_MARK,
                hp: cur as usize,
            },
            &val,
        );
        match r {
            ScasResult::Success => {
                marked(cur, g);
                // Cleanup: try to unlink physically; a traversal will
                // otherwise do it later.
                if unsafe { &*pos.prev_word }.cas_word(cur as usize, succ_w) {
                    // Safety: we won the unlink.
                    unsafe { N::retire_unlinked(cur) };
                }
                return RemoveOutcome::Removed(val);
            }
            ScasResult::Fail => continue,
            ScasResult::Abort => return RemoveOutcome::Aborted,
        }
    }
}

/// Clone the element of `pos.cur` if `matches` accepts it.
///
/// # Safety
///
/// `pos` was returned by a `find` whose guard the caller still holds.
pub(crate) unsafe fn get<N: ChainNode>(
    pos: Position<N>,
    matches: impl FnOnce(&N) -> bool,
) -> Option<N::Elem> {
    // Safety: cur epoch-protected (contract); elements are immutable.
    let cur = unsafe { pos.cur.as_ref() }?;
    if matches(cur) {
        cur.elem().cloned()
    } else {
        None
    }
}

/// Visit every live data node (unmarked when visited, holding an element)
/// after `head`, in chain order. Linearizable per node, not a snapshot:
/// each visited node was live when its chain word was read, and a node
/// live for the whole walk is visited.
///
/// # Safety
///
/// `head` heads a chain of `N` nodes, and `g` protects the walk.
pub(crate) unsafe fn for_each_live<N: ChainNode>(
    head: &DAtomic,
    g: &Guard,
    mut f: impl FnMut(&N, &N::Elem),
) {
    let mut cur = head.read(g);
    while cur != 0 {
        // Safety: contract; nodes are epoch-protected.
        let node = unsafe { &*(cur as *const N) };
        let next = node.chain_word().read_acquire(g);
        if !is_deleted(next) {
            if let Some(v) = node.elem() {
                f(node, v);
            }
        }
        cur = without_mark(next);
    }
}

/// Racy O(n) count of the live data nodes after `head` (see
/// [`for_each_live`]). Quiescent use only.
///
/// # Safety
///
/// As for [`for_each_live`].
pub(crate) unsafe fn count<N: ChainNode>(head: &DAtomic, g: &Guard) -> usize {
    let mut n = 0;
    // Safety: forwarded contract.
    unsafe { for_each_live::<N>(head, g, |_, _| n += 1) };
    n
}

/// Teardown: hand every node from `first` to the end of the chain to
/// [`ChainNode::retire_unlinked`], marked or not.
///
/// # Safety
///
/// Exclusive teardown of the structure owning the chain.
pub(crate) unsafe fn retire_chain<N: ChainNode>(first: usize, g: &Guard) {
    let mut cur = without_mark(first);
    while cur != 0 {
        let node = cur as *mut N;
        // Safety: exclusive teardown; helpers of past composed operations
        // may still write into chain words, which is why every node goes
        // through the reclamation domain.
        let next = unsafe { &*node }.chain_word().read(g);
        unsafe { N::retire_unlinked(node) };
        cur = without_mark(next);
    }
}
