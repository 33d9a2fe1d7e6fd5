//! A move-ready lock-free skip-list map (Sundell & Tsigas style) whose
//! bottom level **is** a [`crate::traverse`] kernel chain — the third
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
//! # Removal
//!
//! 1. **Logical delete** (the linearization point, possibly inside a
//!    composed commit): CAS the mark onto the level-0 `next` word.
//! 2. **Tower freeze**: `fetch_or` the mark onto every tower level,
//!    top-down.
//! 3. **Eager cleanup**: one tower search for the key physically
//!    unlinks every marked level it passes; stragglers are unlinked by
//!    any later traversal (same helping rule as the kernel's level 0).
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
use std::cell::UnsafeCell;
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

/// Release one level reference; the last one out retires the node.
unsafe fn release_ref<K, T>(p: *mut ZNode<K, T>) {
    // Release orders this level's final link traffic before the retire;
    // the winner's Acquire fetch pairs with every loser's Release.
    // Safety: p live (each level releases at most once, refs > 0).
    if unsafe { &(*p).refs }.fetch_sub(1, Ordering::AcqRel) == 1 {
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
    /// record the strict predecessor of `key` at every level ≥ 1.
    /// Returns the per-level predecessors (null = header) — the lowest
    /// one doubles as the kernel's level-0 restart anchor.
    ///
    /// The same ordering discipline as the kernel applies per level: a
    /// mark on the *predecessor's own* link word takes the whole search
    /// back to the top (the predecessor left the live chain), while a
    /// mark on `cur`'s link word makes `cur` the unlink subject.
    fn search_upper(&self, key: &K, g: &Guard) -> [*mut ZNode<K, T>; MAX_LEVEL - 1] {
        let _ = g; // the epoch, not any per-read token, licenses the derefs
        'retry: loop {
            let mut preds: [*mut ZNode<K, T>; MAX_LEVEL - 1] =
                [std::ptr::null_mut(); MAX_LEVEL - 1];
            let mut pred: *mut ZNode<K, T> = std::ptr::null_mut();
            for level in (1..MAX_LEVEL).rev() {
                loop {
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
                        break;
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
                        break;
                    }
                    pred = cur;
                }
                preds[level - 1] = pred;
            }
            return preds;
        }
    }

    /// Locate `key` on level 0 via the shared traversal kernel, anchored
    /// at the closest tower predecessor's `next` word (or the header's).
    /// The anchor closure re-runs the tower search on every restart:
    /// unlike a bucket dummy, a tower predecessor *can* be logically
    /// deleted between restarts.
    fn find(&self, key: &K, g: &mut OpGuard) -> Position<ZNode<K, T>> {
        let anchor = |eg: &Guard| match self.search_upper(key, eg)[0] {
            pred if pred.is_null() => (&self.hdr().next as *const _, self.header.as_ptr() as usize),
            // Safety: pred found under this epoch (search_upper contract).
            pred => (unsafe { &(*pred).next } as *const _, pred as usize),
        };
        // Safety: cur epoch-protected; keys are immutable.
        let at_or_after = |cur: *mut ZNode<K, T>| unsafe { &(*cur).key } >= key;
        // Safety: anchors are epoch-protected (header: owned; preds:
        // found under the same guard); nodes are ZNodes by construction.
        unsafe { traverse::find_pos(g, anchor, at_or_after) }
    }

    /// Link `node` at levels `1..height`, bottom-up, after its level-0
    /// publication. Runs entirely with auxiliary CASes; stops (releasing
    /// the remaining level references) as soon as it observes a mark.
    fn build_tower(&self, node: *mut ZNode<K, T>, g: &Guard) {
        // Safety: node is level-0 published and epoch-protected.
        let (key, height) = unsafe { (&(*node).key, (*node).height) };
        for level in 1..height {
            loop {
                let preds = self.search_upper(key, g);
                let pred = preds[level - 1];
                // Safety: pred epoch-protected (search_upper contract).
                let pred_w = unsafe { &*self.tower_word(pred, level) };
                let succ_w = pred_w.load(Ordering::Acquire);
                if is_deleted(succ_w) {
                    continue; // pred frozen under us; re-search
                }
                // Stage the successor into our own link. A marked value
                // here means the remover already froze this level (and,
                // top-down, every level above): release their references
                // and stop.
                // Safety: node epoch-protected.
                let staged = unsafe { &(*node).tower[level - 1] }.load(Ordering::Acquire);
                if is_deleted(staged) {
                    for _ in level..height {
                        // Safety: these levels were never linked; the
                        // builder owns their references.
                        unsafe { release_ref(node) };
                    }
                    return;
                }
                if unsafe { &(*node).tower[level - 1] }
                    .compare_exchange(staged, succ_w, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue; // re-read (either a stale stage or a mark)
                }
                // Link pred → node. Release publishes the staged link.
                if pred_w
                    .compare_exchange(succ_w, node as usize, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Healing re-check: a remover may have frozen the
                    // level between our stage and the link. Unlink our
                    // own node (the winner releases) and stop — levels
                    // above are already frozen (marks go top-down).
                    let now = unsafe { &(*node).tower[level - 1] }.load(Ordering::Acquire);
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
                // Lost the link race; re-search this level.
            }
        }
    }

    /// Post-linearization removal cleanup: freeze the tower top-down,
    /// then eagerly sweep the key's levels once (any marked link the
    /// sweep meets is unlinked; stragglers are caught by later
    /// traversals).
    fn unlink_tower(&self, node: *mut ZNode<K, T>, g: &Guard) {
        // Safety: node epoch-protected (logically deleted, not yet gone).
        let (key, height) = unsafe { ((*node).key.clone(), (*node).height) };
        for level in (1..height).rev() {
            // fetch_or freezes the level regardless of what the builder
            // is doing; tower words never hold descriptors, so the mark
            // bit is always ours to set.
            // Safety: node epoch-protected.
            unsafe { &(*node).tower[level - 1] }.fetch_or(DEL_MARK, Ordering::AcqRel);
        }
        if height > 1 {
            // One sweep unlinks what it can (helping does the rest).
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
        // Safety: the position was found under `g`.
        unsafe { traverse::get(self.find(key, &mut g), |n| n.key == *key) }
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
            Bound::Included(k) | Bound::Excluded(k) => self.find(k, &mut g).cur,
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
        // Safety: find is the kernel walk anchored at live tower
        // predecessors. A node freed unpublished was never linked at any
        // level. After the link the map already contains the node (level
        // 0 is the linearization chain); the tower is an accelerator built
        // after the fact by auxiliary CASes.
        unsafe {
            traverse::insert(
                &mut g,
                node,
                ctx,
                |g| self.find(key, g),
                |n| n.key == *key,
                |n, g| self.build_tower(n, g),
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
        // Safety: as in `insert_key_with`. After the level-0 mark the tower
        // is frozen and swept (auxiliary) before the level-0 unlink.
        unsafe {
            traverse::remove(
                &mut g,
                ctx,
                |g| self.find(key, g),
                |n| n.key == *key,
                |n, g| self.unlink_tower(n, g),
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
