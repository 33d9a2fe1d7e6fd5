//! A move-ready lock-free skip-list map (Sundell & Tsigas style) whose
//! bottom level **is** a `traverse` kernel chain — the third
//! structure on the shared traversal kernel, and the first with ordered
//! `range` queries.
//!
//! # One linearization chain, auxiliary express lanes
//!
//! Level 0 is exactly the Harris/Michael marked chain of
//! [`crate::OrderedSet`]: nodes sorted by key, threaded through a
//! [`DAtomic`] `next` word whose bit 2 is the logical-delete mark, with
//! insert/remove linearizing at **one CAS on a level-0 `next` word** —
//! so the map is a move-candidate (paper Definition 1) and composes with
//! [`lfc_core::move_keyed`] / [`lfc_core::swap`] unchanged.
//!
//! Levels ≥ 1 (the *tower*) are pure search accelerators, and — like the
//! hash map's bucket dummies — **tower links are never linearization
//! points**: they are plain `AtomicUsize` words (no descriptor ever
//! lands in them), installed and removed by auxiliary CASes that change
//! no observable map state. A reader that ignored every tower level
//! would see the same map, only slower. This is what keeps composed
//! captures sound: a capture subject is always a level-0 `next` word,
//! validated and promoted exactly as for the list and the hash map,
//! while tower surgery merely races harmlessly alongside.
//!
//! # Tower lifecycle and reference counting
//!
//! A node of height `h` (deterministic pseudo-random, geometric p=½,
//! capped at [`MAX_LEVEL`]) starts with `refs = h`: one reference per
//! level that may end up linking it. Each level's reference is released
//! exactly once:
//!
//! * the **unlink winner** at a level (traversal helping, the remover's
//!   eager sweep, or `Drop`) releases that level's reference;
//! * the **builder** releases the references of levels it abandons
//!   before ever linking them (it saw the level marked).
//!
//! The node is hazard-retired when the count hits zero, so a slow
//! traversal parked on any level can never touch a freed node.
//!
//! Builders link bottom-up; removers mark top-down. The per-level link
//! *freezes* once marked (every tower CAS fails on a marked word), so a
//! level is unlinked at most once and the builder always observes a
//! mark on the lowest level it has not yet linked. The one overlap —
//! builder stages a successor, remover marks, builder's link CAS still
//! succeeds — is healed by the builder itself: after every successful
//! link it re-checks the mark and, if set, unlinks its own node (winner
//! releases) and stops building.
//!
//! **One search per operation.** A tower search records, at every level,
//! the strict predecessor of the key and the successor that predecessor
//! linked to; `find` keeps the arrays of its last search, the one its
//! level-0 position came from. The builder links each level from that
//! search with one CAS that expects exactly the recorded successor, so a
//! level is never linked out of key order, and it searches again only
//! after that CAS fails (the predecessor gained a successor or was
//! frozen). An uncontended insert runs one tower search, whatever its
//! height. The level-0 walk starts at the lowest recorded predecessor
//! that is not logically deleted: removers mark level 0 before they
//! freeze the tower, and a walk anchored at a deleted predecessor would
//! wait for its remover.
//!
//! # Removal
//!
//! 1. **Logical delete** (the linearization point, possibly inside a
//!    composed commit): CAS the mark onto the level-0 `next` word.
//! 2. **Tower freeze and targeted unlink**: top-down, `fetch_or` the mark
//!    onto each tower level, then unlink that level with one CAS on the
//!    predecessor the remove's own search recorded; the CAS winner
//!    releases the level's reference.
//! 3. **Fallback sweep**: only if a targeted unlink fails (a concurrent
//!    removal froze or bypassed the predecessor), or the search did not
//!    record the node at some level (its builder linked the level since),
//!    one more tower search for the key unlinks every marked level it
//!    passes; stragglers are unlinked by any later traversal (same
//!    helping rule as the kernel's level 0). An uncontended remove runs
//!    one tower search and retires the node before it returns.
//!
//! # `range` and iteration semantics (weak consistency)
//!
//! [`LfSkipMap::range`] walks level 0 once, cloning entries whose key
//! falls in the bounds and whose node is not logically deleted at visit
//! time. The walk is **not a snapshot**: each returned entry was present
//! at the moment it was visited (and the keys are returned in ascending
//! order), but entries inserted or removed while the walk is in flight
//! may or may not appear — the guarantee is per-entry linearizability,
//! not cut consistency. The recorded-history linearizability suite
//! checks exactly this contract (every returned pair was live at some
//! point inside the walk's window; every pair live across the whole
//! window appears).

use crate::node::{alloc, retire, Block};
use crate::sync::{AtomicUsize, Ordering};
use crate::traverse::{self, is_deleted, without_mark, ChainNode, Position, DEL_MARK};
use lfc_core::{
    InsertCtx, InsertOutcome, KeyedMoveSource, KeyedMoveTarget, NormalCas, RemoveCtx, RemoveOutcome,
};
use lfc_dcas::DAtomic;
use lfc_hazard::{pin_op, Guard, OpGuard};
use lfc_runtime::CachePadded;
use std::cell::{Cell, UnsafeCell};
use std::ops::{Bound, RangeBounds};
use std::ptr::NonNull;

/// Tower height cap: levels `0..MAX_LEVEL`. 12 levels cover ~2^12
/// elements at the geometric p=½ before express lanes saturate — beyond
/// that the walk degrades gracefully toward the list's O(n).
pub const MAX_LEVEL: usize = 12;

/// A skip-list node. Level 0 (`next`) is the kernel chain word; the
/// tower holds levels `1..height`.
#[repr(C)]
struct ZNode<K, T> {
    /// Level-0 successor; may transiently hold a commit descriptor;
    /// bit 2 is the logical-delete mark. **The only capturable word.**
    next: DAtomic,
    /// Levels `1..height` (index `L-1` holds level `L`): plain marked
    /// pointer words, never descriptors. Slots `height-1..` are unused.
    tower: [AtomicUsize; MAX_LEVEL - 1],
    /// Levels that may link this node (1..=MAX_LEVEL). Immutable.
    height: usize,
    /// Outstanding level references; hazard-retire at zero.
    refs: AtomicUsize,
    key: K,
    val: UnsafeCell<Option<T>>,
    /// Birth era (PR 6): written before publication, read at retire.
    birth: usize,
}

/// The map's anchor allocation: level-0 head plus the tower heads.
#[repr(C)]
struct ZHeader {
    next: DAtomic,
    tower: [AtomicUsize; MAX_LEVEL - 1],
}

impl Block for ZHeader {}

impl<K, T> Block for ZNode<K, T> {
    fn birth(&self) -> usize {
        self.birth
    }
}

/// One tower search for a key: at every level ≥ 1 (index `L-1` holds
/// level `L`) the strict predecessor (null = the header) and the
/// successor word it held when the search passed it (0 = end of level).
struct Search<K, T> {
    preds: [*mut ZNode<K, T>; MAX_LEVEL - 1],
    succs: [usize; MAX_LEVEL - 1],
}

impl<K, T> Search<K, T> {
    const EMPTY: Self = Search {
        preds: [std::ptr::null_mut(); MAX_LEVEL - 1],
        succs: [0; MAX_LEVEL - 1],
    };
}

impl<K, T> Clone for Search<K, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, T> Copy for Search<K, T> {}

/// Release one level reference; the last one out retires the node.
unsafe fn release_ref<K, T>(p: *mut ZNode<K, T>) {
    // Release orders this level's final link traffic before the retire;
    // the winner's Acquire fetch pairs with every loser's Release.
    // Safety: p live (each level releases at most once, refs > 0).
    if unsafe { &(*p).refs }.fetch_sub(1, Ordering::AcqRel) == 1 {
        #[cfg(test)]
        tests::RETIRES.with(|n| n.set(n.get() + 1));
        // Safety: every level let go; no new link can form (all frozen).
        unsafe { retire(p) };
    }
}

// Safety: `next` is the marked level-0 chain word; `val` is written
// before publication; the level-0 unlink winner releases that level's
// tower reference (retire happens when the towers let go too).
unsafe impl<K, T: Clone> ChainNode for ZNode<K, T> {
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

    unsafe fn retire_unlinked(p: *mut Self) {
        // Safety: level-0 unlink winner releases level 0's reference.
        unsafe { release_ref(p) };
    }
}

/// A move-ready lock-free skip-list map with unique keys and ordered
/// [`range`](LfSkipMap::range) queries. See the module docs.
pub struct LfSkipMap<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    header: NonNull<ZHeader>,
    /// Deterministic height source: one tick per insert, mixed into a
    /// geometric height. Deterministic (per map) by design — the model
    /// checker and the fuzzer replay identical tower shapes. Padded: every
    /// insert bumps it, and unpadded it shared a line with `header` (read
    /// by every operation) and with neighbouring map handles.
    ticket: CachePadded<AtomicUsize>,
    _marker: std::marker::PhantomData<(K, T)>,
}

// Safety: handle to hazard-managed shared state; see OrderedSet/MsQueue.
unsafe impl<K, T> Send for LfSkipMap<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
}
unsafe impl<K, T> Sync for LfSkipMap<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
}

/// Fibonacci-style mix of the insert ticket; trailing zeros give the
/// geometric level distribution.
#[inline]
fn height_for(ticket: usize) -> usize {
    let m = ticket.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize);
    let m = m ^ (m >> 32);
    ((m.trailing_zeros() as usize) + 1).min(MAX_LEVEL)
}

impl<K, T> LfSkipMap<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    /// Empty map.
    pub fn new() -> Self {
        LfSkipMap {
            header: alloc(ZHeader {
                next: DAtomic::new(0),
                tower: std::array::from_fn(|_| AtomicUsize::new(0)),
            }),
            ticket: CachePadded::new(AtomicUsize::new(1)),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    fn hdr(&self) -> &ZHeader {
        // Safety: header lives until Drop.
        unsafe { self.header.as_ref() }
    }

    /// The level-`level` link word of `base` (null = the header).
    ///
    /// # Safety
    ///
    /// `base` must be null or an epoch-protected node; `1 <= level <
    /// MAX_LEVEL`.
    #[inline]
    unsafe fn tower_word(&self, base: *mut ZNode<K, T>, level: usize) -> *const AtomicUsize {
        if base.is_null() {
            &self.hdr().tower[level - 1]
        } else {
            // Safety: epoch-protected per contract.
            unsafe { &(*base).tower[level - 1] }
        }
    }

    /// Walk the tower levels top-down, helping unlink marked links, and
    /// record at every level ≥ 1 the strict predecessor of `key` and the
    /// successor it linked to when the walk passed it. The lowest
    /// predecessor doubles as the kernel's level-0 restart anchor.
    ///
    /// The same ordering discipline as the kernel applies per level: a
    /// mark on the *predecessor's own* link word takes the whole search
    /// back to the top (the predecessor left the live chain), while a
    /// mark on `cur`'s link word makes `cur` the unlink subject.
    fn search_upper(&self, key: &K, g: &Guard) -> Search<K, T> {
        let _ = g; // the epoch, not any per-read token, licenses the derefs
        #[cfg(test)]
        tests::SEARCHES.with(|n| n.set(n.get() + 1));
        'retry: loop {
            let mut s = Search::EMPTY;
            let mut pred: *mut ZNode<K, T> = std::ptr::null_mut();
            for level in (1..MAX_LEVEL).rev() {
                let succ = loop {
                    // Safety: pred is the header or was reached through a
                    // live link inside this epoch.
                    let pred_w = unsafe { &*self.tower_word(pred, level) };
                    // Acquire pairs with the linking CAS's Release: the
                    // successor's fields are visible before its address.
                    let cur_w = pred_w.load(Ordering::Acquire);
                    if is_deleted(cur_w) {
                        // pred was frozen at this level under us: its link
                        // is off the live chain — restart from the top.
                        continue 'retry;
                    }
                    if cur_w == 0 {
                        break cur_w;
                    }
                    let cur = cur_w as *mut ZNode<K, T>;
                    // Safety: cur reachable through the live chain inside
                    // this epoch; the tower reference held for this level
                    // keeps the allocation until an unlink wins.
                    let cur_next = unsafe { &(*cur).tower[level - 1] }.load(Ordering::Acquire);
                    if is_deleted(cur_next) {
                        // Frozen at this level: unlink (helping); the
                        // winner releases this level's reference.
                        if pred_w
                            .compare_exchange(
                                cur_w,
                                without_mark(cur_next),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            // Safety: we won this level's unlink.
                            unsafe { release_ref(cur) };
                        }
                        continue; // re-read pred_w either way
                    }
                    // Safety: cur epoch-protected; keys are immutable.
                    if unsafe { &(*cur).key } >= key {
                        break cur_w;
                    }
                    pred = cur;
                };
                s.preds[level - 1] = pred;
                s.succs[level - 1] = succ;
            }
            return s;
        }
    }

    /// Locate `key` on level 0 via the shared traversal kernel, anchored
    /// at the closest live tower predecessor's `next` word (or the
    /// header's).
    /// The anchor closure re-runs the tower search on every restart:
    /// unlike a bucket dummy, a tower predecessor *can* be logically
    /// deleted between restarts. Each search is stored in `last`, so after
    /// the call it holds the one the returned position came from.
    fn find(&self, key: &K, g: &mut OpGuard, last: &Cell<Search<K, T>>) -> Position<ZNode<K, T>> {
        let anchor = |eg: &Guard| {
            let s = self.search_upper(key, eg);
            last.set(s);
            // Anchor at the lowest predecessor still live on level 0. A
            // remover marks level 0 before it freezes the tower, so a
            // predecessor can be logically deleted yet still linked above;
            // anchoring there would restart until that remover moves on.
            for &pred in s.preds.iter().take_while(|p| !p.is_null()) {
                // Safety: pred found under this epoch (search_upper contract).
                let next = unsafe { &(*pred).next };
                if !is_deleted(next.read_acquire(eg)) {
                    return (next as *const _, pred as usize);
                }
            }
            (&self.hdr().next as *const _, self.header.as_ptr() as usize)
        };
        // Safety: cur epoch-protected; keys are immutable.
        let at_or_after = |cur: *mut ZNode<K, T>| unsafe { &(*cur).key } >= key;
        // Safety: anchors are epoch-protected (header: owned; preds:
        // found under the same guard); nodes are ZNodes by construction.
        unsafe { traverse::find_pos(g, anchor, at_or_after) }
    }

    /// Link `node` at levels `1..height`, bottom-up, after its level-0
    /// publication, from `s` — the search that found its level-0 position.
    /// Each level is one CAS on the recorded predecessor that expects
    /// exactly the recorded successor, so a level never links out of key
    /// order; only a failed CAS (the predecessor gained a successor or was
    /// frozen) searches again. Runs entirely with auxiliary CASes; stops
    /// (releasing the remaining level references) as soon as it observes
    /// a mark.
    fn build_tower(&self, node: *mut ZNode<K, T>, mut s: Search<K, T>, g: &Guard) {
        // Safety: node is level-0 published and epoch-protected.
        let (key, height) = unsafe { (&(*node).key, (*node).height) };
        for level in 1..height {
            loop {
                let succ = s.succs[level - 1];
                // Stage the successor into our own link. A marked value
                // here means the remover already froze this level (and,
                // top-down, every level above): release their references
                // and stop.
                // Safety: node epoch-protected.
                let link = unsafe { &(*node).tower[level - 1] };
                let staged = link.load(Ordering::Acquire);
                if is_deleted(staged) {
                    for _ in level..height {
                        // Safety: these levels were never linked; the
                        // builder owns their references.
                        unsafe { release_ref(node) };
                    }
                    return;
                }
                if link
                    .compare_exchange(staged, succ, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue; // only a freeze changes our link under us
                }
                // Link pred → node. Release publishes the staged link.
                // Safety: pred epoch-protected (search_upper contract).
                let pred_w = unsafe { &*self.tower_word(s.preds[level - 1], level) };
                if pred_w
                    .compare_exchange(succ, node as usize, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Healing re-check: a remover may have frozen the
                    // level between our stage and the link. Unlink our
                    // own node (the winner releases) and stop — levels
                    // above are already frozen (marks go top-down).
                    let now = link.load(Ordering::Acquire);
                    if is_deleted(now) {
                        if pred_w
                            .compare_exchange(
                                node as usize,
                                without_mark(now),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            // Safety: we won this level's unlink.
                            unsafe { release_ref(node) };
                        }
                        for _ in level + 1..height {
                            // Safety: never linked; builder-owned refs.
                            unsafe { release_ref(node) };
                        }
                        return;
                    }
                    break; // next level
                }
                // The recorded successor is stale: search again.
                s = self.search_upper(key, g);
            }
        }
    }

    /// Post-linearization removal cleanup, from `s` — the search that
    /// found the node. Freeze the tower top-down and unlink each level
    /// with one CAS on its recorded predecessor; the winner of that CAS
    /// releases the level's reference. Only when a targeted unlink cannot
    /// be made — the CAS fails, or the search did not record the node at
    /// that level (its builder may have linked it since) — does one sweep
    /// for the key unlink every marked level it passes; stragglers are
    /// caught by later traversals.
    fn unlink_tower(&self, node: *mut ZNode<K, T>, s: &Search<K, T>, g: &Guard) {
        // Safety: node epoch-protected (logically deleted, not yet gone).
        let height = unsafe { (*node).height };
        let mut sweep = false;
        for level in (1..height).rev() {
            // fetch_or freezes the level regardless of what the builder
            // is doing; tower words never hold descriptors, so the mark
            // bit is always ours to set. The frozen successor is final.
            // Safety: node epoch-protected.
            let next = unsafe { &(*node).tower[level - 1] }.fetch_or(DEL_MARK, Ordering::AcqRel);
            if s.succs[level - 1] != node as usize {
                sweep = true;
                continue;
            }
            // Safety: pred epoch-protected (search_upper contract).
            let pred_w = unsafe { &*self.tower_word(s.preds[level - 1], level) };
            if pred_w
                .compare_exchange(
                    node as usize,
                    without_mark(next),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // Safety: we won this level's unlink.
                unsafe { release_ref(node) };
            } else {
                sweep = true;
            }
        }
        #[cfg(lfc_model)]
        if crate::model_toggles::skip_tower_fallback() {
            return; // seeded bug: a failed targeted unlink is left behind
        }
        if sweep {
            // Safety: node epoch-protected; keys are immutable.
            let key = unsafe { (*node).key.clone() };
            let _ = self.search_upper(&key, g);
        }
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
        let pos = self.find(key, &mut g, &Cell::new(Search::EMPTY));
        // Safety: the position was found under `g`.
        unsafe { traverse::get(pos, |n| n.key == *key) }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Clone every entry whose key falls within `bounds`, in ascending
    /// key order. **Not a snapshot** — see the module docs for the exact
    /// (per-entry) consistency contract.
    pub fn range<R: RangeBounds<K>>(&self, bounds: R) -> Vec<(K, T)> {
        let mut g = pin_op();
        let mut out = Vec::new();
        // Position the walk at the first candidate: an excluded start
        // bound still anchors at `start` and skips the equal key below.
        let start_pos = match bounds.start_bound() {
            Bound::Included(k) | Bound::Excluded(k) => {
                self.find(k, &mut g, &Cell::new(Search::EMPTY)).cur
            }
            Bound::Unbounded => {
                // Full walk from the head; the kernel is not needed (no
                // position to compute), but deleted-node skipping is.
                let w = self.hdr().next.read_acquire(&g);
                if is_deleted(w) {
                    // Head words are never marked; defensive only.
                    std::ptr::null_mut()
                } else {
                    w as *mut ZNode<K, T>
                }
            }
        };
        let mut cur = start_pos;
        while !cur.is_null() {
            // Safety: every node on the walk was reachable through the
            // live chain inside this epoch.
            let succ_w = unsafe { &(*cur).next }.read_acquire(&g);
            // Safety: keys immutable; cur epoch-protected.
            let key = unsafe { &(*cur).key };
            if !bounds.contains(key) {
                match bounds.end_bound() {
                    // Ascending walk: past the end bound means done.
                    Bound::Included(e) | Bound::Excluded(e) if key > e => break,
                    _ => {}
                }
            } else if !is_deleted(succ_w) {
                // Present at visit time: clone the pair.
                // Safety: value immutable, node epoch-protected.
                if let Some(v) = unsafe { (*(*cur).val.get()).as_ref() } {
                    out.push((key.clone(), v.clone()));
                }
            }
            cur = without_mark(succ_w) as *mut ZNode<K, T>;
        }
        out
    }

    /// Clone the whole map in ascending key order (a `range(..)`).
    pub fn to_vec(&self) -> Vec<(K, T)> {
        self.range(..)
    }

    /// Racy O(n) length (quiescent use only).
    pub fn count(&self) -> usize {
        // Safety: the owned level-0 head heads a chain of ZNodes.
        unsafe { traverse::count::<ZNode<K, T>>(&self.hdr().next, &pin_op()) }
    }

    /// Walk every tower level from the header and fail on a link to a
    /// smaller key (or between two equal keys neither of which is
    /// removed), a node linked above its height, or a cycle. Returns how
    /// many tower links reach a removed node: zero once every removal's
    /// tower unlinks have landed. Tests only: lets unit tests and
    /// model-checker scenarios check the towers' shape at quiescence.
    #[cfg(any(test, lfc_model))]
    #[doc(hidden)]
    pub fn check_tower_order(&self) -> Result<usize, String> {
        let g = pin_op();
        let mut removed = 0;
        for level in 1..MAX_LEVEL {
            let mut seen = std::collections::HashSet::new();
            let mut prev: Option<(&K, bool)> = None;
            let mut w = without_mark(self.hdr().tower[level - 1].load(Ordering::Acquire));
            while w != 0 {
                if !seen.insert(w) {
                    return Err(format!("level {level}: cycle after {} links", seen.len()));
                }
                // Safety: every node on the walk is epoch-protected.
                let n = unsafe { &*(w as *const ZNode<K, T>) };
                if n.height <= level {
                    return Err(format!(
                        "level {level}: links a node of height {}",
                        n.height
                    ));
                }
                let link = n.tower[level - 1].load(Ordering::Acquire);
                let gone = is_deleted(link) || is_deleted(n.next.read_acquire(&g));
                if let Some((pk, p_gone)) = prev {
                    if n.key < *pk || (n.key == *pk && !gone && !p_gone) {
                        return Err(format!(
                            "level {level}: not ascending after {} links",
                            seen.len() - 1
                        ));
                    }
                }
                removed += usize::from(gone);
                prev = Some((&n.key, gone));
                w = without_mark(link);
            }
        }
        Ok(removed)
    }
}

impl<K, T> Default for LfSkipMap<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, T> KeyedMoveTarget<K, T> for LfSkipMap<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn insert_key_with<C: InsertCtx>(&self, key: K, elem: T, ctx: &mut C) -> InsertOutcome {
        let mut g = pin_op();
        let height = height_for(self.ticket.fetch_add(1, Ordering::Relaxed));
        let node = alloc(ZNode {
            next: DAtomic::new(0),
            tower: std::array::from_fn(|_| AtomicUsize::new(0)),
            height,
            refs: AtomicUsize::new(height),
            key,
            val: UnsafeCell::new(Some(elem)),
            birth: lfc_hazard::birth_era(),
        })
        .as_ptr();
        // Safety: node is ours until published; keys are immutable.
        let key = unsafe { &(*node).key };
        let last = Cell::new(Search::EMPTY);
        // Safety: find is the kernel walk anchored at live tower
        // predecessors. A node freed unpublished was never linked at any
        // level. After the link the map already contains the node (level
        // 0 is the linearization chain); the tower is an accelerator built
        // after the fact by auxiliary CASes, from the search that found
        // the level-0 position.
        unsafe {
            traverse::insert(
                &mut g,
                node,
                ctx,
                |g| self.find(key, g, &last),
                |n| n.key == *key,
                |n, g| self.build_tower(n, last.get(), g),
            )
        }
    }
}

impl<K, T> KeyedMoveSource<K, T> for LfSkipMap<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn remove_key_with<C: RemoveCtx<T>>(&self, key: &K, ctx: &mut C) -> RemoveOutcome<T> {
        let mut g = pin_op();
        let last = Cell::new(Search::EMPTY);
        // Safety: as in `insert_key_with`. After the level-0 mark the tower
        // is frozen and unlinked (auxiliary) before the level-0 unlink.
        unsafe {
            traverse::remove(
                &mut g,
                ctx,
                |g| self.find(key, g, &last),
                |n| n.key == *key,
                |n, g| self.unlink_tower(n, &last.get(), g),
            )
        }
    }
}

impl<K, T> Drop for LfSkipMap<K, T>
where
    K: Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn drop(&mut self) {
        // Exclusive teardown. Walk every level through the normal
        // reference discipline: each linked level releases one reference
        // (towers first, level 0 last), so every node — including one a
        // racing remover marked but no traversal ever swept — retires
        // exactly once, when its last level lets go.
        let g = lfc_hazard::pin();
        for level in (1..MAX_LEVEL).rev() {
            let mut cur = without_mark(self.hdr().tower[level - 1].load(Ordering::Acquire));
            while cur != 0 {
                let node = cur as *mut ZNode<K, T>;
                // Safety: exclusive teardown; marks only need stripping.
                let next = unsafe { &(*node).tower[level - 1] }.load(Ordering::Acquire);
                // Safety: this level's link is dropped right here.
                unsafe { release_ref(node) };
                cur = without_mark(next);
            }
        }
        // Safety: exclusive teardown; the level-0 links are dropped here,
        // then the header (a plain block).
        unsafe {
            traverse::retire_chain::<ZNode<K, T>>(self.hdr().next.read(&g), &g);
            retire(self.header.as_ptr());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// `search_upper` calls made by this thread.
        pub(super) static SEARCHES: Cell<usize> = const { Cell::new(0) };
        /// Nodes whose last level reference this thread released.
        pub(super) static RETIRES: Cell<usize> = const { Cell::new(0) };
    }

    /// Run `f`, returning its result with the tower searches it ran and
    /// the nodes it retired on this thread.
    fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
        let (s0, r0) = (SEARCHES.with(Cell::get), RETIRES.with(Cell::get));
        let r = f();
        (
            r,
            SEARCHES.with(Cell::get) - s0,
            RETIRES.with(Cell::get) - r0,
        )
    }

    #[test]
    fn a_tall_tower_is_built_and_unlinked_from_one_search() {
        let m: LfSkipMap<u64, u64> = LfSkipMap::new();
        assert!(m.insert(10, 10) && m.insert(30, 30)); // heights 3 and 4
        let tall = (1..).find(|&t| height_for(t) == MAX_LEVEL).unwrap();
        m.ticket.store(tall, Ordering::Relaxed);
        let (inserted, searches, _) = counted(|| m.insert(20, 20));
        assert!(inserted);
        assert_eq!(searches, 1, "every level links from the level-0 search");
        assert_eq!(m.check_tower_order(), Ok(0));
        let g = pin_op();
        for level in 5..MAX_LEVEL {
            let w = m.hdr().tower[level - 1].load(Ordering::Acquire);
            // Safety: w is a live node under `g`.
            assert_eq!(unsafe { (*(w as *const ZNode<u64, u64>)).key }, 20);
        }
        drop(g);
        let (removed, searches, retires) = counted(|| m.remove(&20));
        assert_eq!(removed, Some(20));
        assert_eq!(searches, 1, "targeted unlinks: no sweep");
        assert_eq!(retires, 1, "every level let go before remove returned");
        assert_eq!(m.check_tower_order(), Ok(0));
        assert_eq!(m.to_vec(), vec![(10, 10), (30, 30)]);
    }

    #[test]
    fn sorted_unique_inserts_and_range() {
        let m: LfSkipMap<u64, u64> = LfSkipMap::new();
        for k in [5u64, 1, 9, 3, 7] {
            assert!(m.insert(k, k * 10));
        }
        assert!(!m.insert(3, 31), "duplicate key rejected");
        assert_eq!(m.count(), 5);
        assert_eq!(m.get(&7), Some(70));
        assert_eq!(m.get(&4), None);
        assert_eq!(
            m.range(3..8),
            vec![(3, 30), (5, 50), (7, 70)],
            "half-open range, ascending"
        );
        assert_eq!(m.to_vec().len(), 5);
        assert_eq!(m.range(..=5).last(), Some(&(5, 50)));
    }

    #[test]
    fn remove_by_key() {
        let m: LfSkipMap<u64, String> = LfSkipMap::new();
        m.insert(2, "two".into());
        m.insert(1, "one".into());
        assert_eq!(m.remove(&2).as_deref(), Some("two"));
        assert_eq!(m.remove(&2), None);
        assert!(m.contains(&1));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn reinsert_after_remove_exercises_towers() {
        let m: LfSkipMap<u64, u64> = LfSkipMap::new();
        // Enough churn that many ticket values (and so many heights,
        // including tall towers) pass through the same keys.
        for round in 0..200 {
            for k in 0..16u64 {
                assert!(m.insert(k, round));
            }
            for k in 0..16u64 {
                assert_eq!(m.remove(&k), Some(round));
            }
        }
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn concurrent_disjoint_key_ranges() {
        let m: LfSkipMap<u64, u64> = LfSkipMap::new();
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let m = &m;
                sc.spawn(move || {
                    for k in 0..300 {
                        let key = t * 1_000 + k;
                        assert!(m.insert(key, key * 2));
                    }
                    for k in 0..300 {
                        let key = t * 1_000 + k;
                        assert_eq!(m.remove(&key), Some(key * 2));
                    }
                });
            }
        });
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn concurrent_same_key_contention() {
        use std::sync::atomic::{AtomicI64, Ordering as SOrd};
        let m: LfSkipMap<u64, u64> = LfSkipMap::new();
        let balance = AtomicI64::new(0);
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let m = &m;
                let balance = &balance;
                sc.spawn(move || {
                    for i in 0..2_000 {
                        if i % 2 == 0 {
                            if m.insert(42, i) {
                                balance.fetch_add(1, SOrd::Relaxed);
                            }
                        } else if m.remove(&42).is_some() {
                            balance.fetch_sub(1, SOrd::Relaxed);
                        }
                    }
                });
            }
        });
        let residual = balance.load(SOrd::Relaxed);
        assert_eq!(residual, m.count() as i64);
        assert!(residual == 0 || residual == 1);
    }

    #[test]
    fn range_under_concurrent_churn_stays_sorted() {
        let m: LfSkipMap<u64, u64> = LfSkipMap::new();
        for k in 0..64u64 {
            m.insert(k * 2, k);
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|sc| {
            let (mr, mw, stop) = (&m, &m, &stop);
            sc.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = ((i * 7) % 128) | 1; // odd keys churn
                    mw.insert(k, i);
                    mw.remove(&k);
                    i += 1;
                }
            });
            for _ in 0..200 {
                let snap = mr.range(10..100);
                // Ascending, within bounds, and every even (stable) key
                // present.
                assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(snap.iter().all(|(k, _)| (10..100).contains(k)));
                let evens: Vec<u64> = snap
                    .iter()
                    .map(|(k, _)| *k)
                    .filter(|k| k % 2 == 0)
                    .collect();
                assert_eq!(evens, (5..50).map(|k| k * 2).collect::<Vec<_>>());
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn drop_reclaims_values() {
        use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as SOrd};
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        #[derive(Clone)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SOrd::SeqCst);
            }
        }
        let before = DROPS.load(SOrd::SeqCst);
        {
            let m: LfSkipMap<u64, D> = LfSkipMap::new();
            for k in 0..30 {
                m.insert(k, D);
            }
        }
        crate::test_util::flush_until(|| DROPS.load(SOrd::SeqCst) - before == 30);
        assert_eq!(DROPS.load(SOrd::SeqCst) - before, 30);
    }

    #[test]
    #[ignore = "stress: run with --release -- --ignored stress"]
    fn skip_map_tower_stress() {
        use lfc_core::move_keyed;
        use std::sync::atomic::{AtomicI64, Ordering as SOrd};
        const KEYS: u64 = 256;
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
        let maps: [LfSkipMap<u64, u64>; 2] = [LfSkipMap::new(), LfSkipMap::new()];
        let net = AtomicI64::new(0);
        std::thread::scope(|sc| {
            for t in 0..threads as u64 {
                let (maps, net) = (&maps, &net);
                sc.spawn(move || {
                    let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ (t + 1);
                    for _ in 0..1_000_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let (k, side) = (x % KEYS, (x >> 32) as usize & 1);
                        let (m, other) = (&maps[side], &maps[side ^ 1]);
                        match (x >> 40) % 4 {
                            0 => {
                                if m.insert(k, k) {
                                    net.fetch_add(1, SOrd::Relaxed);
                                }
                            }
                            1 => {
                                if m.remove(&k).is_some() {
                                    net.fetch_sub(1, SOrd::Relaxed);
                                }
                            }
                            _ => {
                                let _ = move_keyed(m, &k, other);
                            }
                        }
                    }
                });
            }
        });
        for m in &maps {
            assert!(m.check_tower_order().is_ok(), "{:?}", m.check_tower_order());
            let keys: Vec<u64> = m.to_vec().into_iter().map(|(k, _)| k).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "level 0 sorted");
        }
        let held = (maps[0].count() + maps[1].count()) as i64;
        assert_eq!(held, net.load(SOrd::Relaxed), "moves conserve keys");
    }

    #[test]
    fn heights_are_geometricish() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        for t in 1..=4096usize {
            counts[height_for(t)] += 1;
        }
        assert!(counts[1] > 1500, "about half the towers are height 1");
        assert!(counts[2] > 700, "about a quarter are height 2");
        assert!(
            (3..=MAX_LEVEL).map(|h| counts[h]).sum::<usize>() > 500,
            "tall towers exist"
        );
    }
}
