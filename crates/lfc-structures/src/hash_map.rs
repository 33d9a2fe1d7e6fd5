//! A lock-free hash map with **incremental lock-free resize** via recursive
//! split-ordering (Shalev & Shavit, *Split-Ordered Lists: Lock-Free
//! Extensible Hash Tables*) — the "hash-map" half of the paper's §1.1
//! motivating scenario, grown to serve unbounded key populations at flat
//! latency (PR 5; the fixed-bucket table degraded linearly in the load
//! factor).
//!
//! # Recursive split-ordering
//!
//! Every element lives in **one** epoch-protected ordered list (the same
//! two-phase Harris/Michael discipline as [`crate::OrderedSet`]), sorted by
//! *split-order key*: the bit-reversed hash, with the least-significant bit
//! forced to 1 for data nodes. Buckets are not containers but shortcut
//! pointers into that list: bucket `b`'s pointer names a *dummy node* whose
//! split-order key is the bit-reversal of `b` itself (LSB 0 — dummies and
//! data nodes can never collide on a split-order key). Because
//! `hash & (size-1) == b` pins the reversed hash's **top** bits to
//! `reverse(b)`'s, every key of bucket `b` sorts at-or-after `b`'s dummy and
//! before the next dummy — so an operation jumps to its bucket's dummy and
//! walks a bounded chain instead of the whole list.
//!
//! Doubling the table is **one CAS on the bucket-count word** and moves no
//! node: bucket `b` splits into `b` and `b + size` simply because keys whose
//! next hash bit is 1 already sort after `reverse(b + size)` — the position
//! where the new bucket's dummy gets threaded. Dummies are created lazily
//! (*per-operation amortized splitting*): the first operation to touch a
//! bucket whose dummy is missing initializes it, recursing to the bucket's
//! *parent* (the index with the top bit cleared) — so no thread ever stalls
//! on a stop-the-world rehash and latency stays flat through growth.
//!
//! The bucket directory itself is a segmented pointer table: a fixed array
//! of [`DIR_SLOTS`] segment pointers where segment *k* ≥ 1 covers buckets
//! `[init·2^(k-1), init·2^k)` (segment 0 covers `[0, init)`), allocated
//! lazily and published with a single CAS, so growth never copies or moves
//! directory state either.
//!
//! # Composition under resize
//!
//! The map inherits the list's move-candidate properties verbatim: keyed
//! insert/remove linearize at one CAS on a `next` word with the element
//! available beforehand, so [`lfc_core::move_keyed`] (and every composed
//! capture) keeps working **mid-resize** — a captured linearization point
//! is CAS-validated, and a bucket split that threads a dummy next to it
//! merely fails that CAS and re-runs the owning stage's init phase.
//!
//! **Invariant: dummy nodes are never linearization points.** A remove only
//! marks a node whose key matched (dummies carry no key), and an insert's
//! `new` value is always a freshly allocated data node — a dummy is never
//! the *subject* of a capture. A dummy **may** host the *predecessor word*
//! of a capture (`LinPoint::hp` then pins the dummy's allocation), which is
//! sound exactly like any predecessor pin: the allocation is epoch-covered
//! at capture time and promoted into an `ENTRY*` hazard slot by the engine.
//! Dummies and directory segments are unlinked only at `Drop` and flow
//! through the PR 3 unified epoch+hazard domain like every other block.
//!
//! Bucket selection hashes with an FxHash-style mixer over a power-of-two
//! bucket count (PR 3): one rotate-xor-multiply per key word plus a mask.

use crate::sync::{AtomicUsize, Ordering};
use crate::traverse::{self, is_deleted, without_mark, ChainNode, NoRepin, Position, DEL_MARK};
use lfc_core::{
    InsertCtx, InsertOutcome, KeyedMoveSource, KeyedMoveTarget, LinPoint, NormalCas, RemoveCtx,
    RemoveOutcome, ScasResult,
};
use lfc_dcas::DAtomic;
use lfc_hazard::{pin, pin_op, Guard};
use lfc_runtime::CachePadded;
use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::hash::{Hash, Hasher};

/// An FxHash-style word-at-a-time mixer (rustc-hash's algorithm, std-only
/// re-implementation). `SipHash` (`DefaultHasher`) pays per-byte rounds and
/// keyed initialization on **every** map operation; bucket selection needs
/// dispersion, not DoS resistance, and this mixer is a single
/// rotate-xor-multiply per word.
struct FxHasher {
    hash: usize,
}

/// 2^64 / φ, the multiplicative-hashing constant rustc-hash uses.
const FX_SEED: usize = 0x51_7c_c1_b7_27_22_0a_95_u64 as usize;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: usize) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(std::mem::size_of::<usize>());
        for chunk in &mut chunks {
            self.add_to_hash(usize::from_ne_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Seed the fold with the remainder length so partial chunks
            // that differ only by leading zero bytes (e.g. "a" vs "\0a")
            // hash differently — a plain byte fold collapses them into a
            // deterministic collision family. len < word size, so the
            // shifted fold cannot overflow.
            let mut tail = rem.len();
            for &b in rem {
                tail = (tail << 8) | b as usize;
            }
            self.add_to_hash(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as usize);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as usize);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as usize);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n as usize);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash as u64
    }
}

/// The bit forced on before reversal so every data key's split-order key
/// has LSB 1 (dummies reverse a bucket index `< 2^(BITS-1)`, so theirs is
/// always 0). One hash bit is sacrificed; full-hash collisions are broken
/// by the `Ord` tie-break on the key itself.
const DATA_TAG: usize = 1 << (usize::BITS - 1);

/// Split-order key of a data node with hash `h`.
#[inline]
fn so_data_key(h: usize) -> usize {
    (h | DATA_TAG).reverse_bits()
}

/// Split-order key of bucket `b`'s dummy node.
#[inline]
fn so_dummy_key(b: usize) -> usize {
    b.reverse_bits()
}

/// Parent of bucket `b > 0` in the recursive split: `b` with its highest
/// set bit cleared. Bucket 0 is the root (the global list head).
#[inline]
fn parent_bucket(b: usize) -> usize {
    debug_assert!(b > 0);
    b ^ (1 << b.ilog2())
}

/// Top-level directory slots. Segment *k* ≥ 1 covers buckets
/// `[init·2^(k-1), init·2^k)`; 32 slots cap the table at `init·2^31`
/// buckets — growth simply stops at the cap (chains then grow, correctness
/// is unaffected).
const DIR_SLOTS: usize = 32;

/// Double the bucket count when `items > size << GROW_SHIFT` (threshold
/// load factor 2): steady-state chains hold ≤ ~2 data nodes plus the
/// bucket dummy regardless of how many keys ever arrive.
const GROW_SHIFT: usize = 1;

/// A node of the split-ordered list: a bucket dummy (`key == None`) or a
/// data node (`key == Some`).
#[repr(C)]
struct SNode<K, T> {
    /// Successor word; may transiently hold a commit descriptor; bit 2
    /// of a raw value is the logical-deletion mark (never set on dummies).
    next: DAtomic,
    /// Split-order key (bit-reversed hash / bucket index). Immutable.
    so_key: usize,
    /// `Some` for data nodes, `None` for bucket dummies. Immutable.
    key: Option<K>,
    /// `Some` for data nodes; written once before publication.
    val: UnsafeCell<Option<T>>,
    /// Birth era (PR 6): written before publication, read at retire.
    birth: usize,
}

fn snode_layout<K, T>() -> Layout {
    Layout::new::<SNode<K, T>>()
}

fn alloc_snode<K, T>(so_key: usize, key: Option<K>, val: Option<T>) -> *mut SNode<K, T> {
    let p = lfc_alloc::alloc_block(snode_layout::<K, T>());
    unsafe { init_snode(p, so_key, key, val) }
}

/// Fallible [`alloc_snode`] (`structures.node` fault site): hands key and
/// value back on failure so the caller keeps ownership.
#[allow(clippy::type_complexity)]
fn try_alloc_snode<K, T>(
    so_key: usize,
    key: Option<K>,
    val: Option<T>,
) -> Result<*mut SNode<K, T>, (Option<K>, Option<T>, lfc_alloc::AllocError)> {
    if lfc_runtime::fault::check("structures.node") {
        return Err((key, val, lfc_alloc::AllocError));
    }
    match lfc_alloc::try_alloc_block(snode_layout::<K, T>()) {
        Ok(p) => Ok(unsafe { init_snode(p, so_key, key, val) }),
        Err(e) => Err((key, val, e)),
    }
}

/// # Safety
///
/// `p` must be a fresh block of `snode_layout::<K, T>()`.
unsafe fn init_snode<K, T>(
    p: std::ptr::NonNull<u8>,
    so_key: usize,
    key: Option<K>,
    val: Option<T>,
) -> *mut SNode<K, T> {
    let p = p.cast::<SNode<K, T>>();
    // Safety: fresh block of the right layout.
    unsafe {
        p.as_ptr().write(SNode {
            next: DAtomic::new(0),
            so_key,
            key,
            val: UnsafeCell::new(val),
            birth: lfc_hazard::birth_era(),
        });
    }
    debug_assert_eq!(p.as_ptr() as usize & 0b111, 0);
    p.as_ptr()
}

unsafe fn reclaim_snode<K, T>(p: *mut u8) {
    // Safety: retire contract.
    unsafe {
        std::ptr::drop_in_place(p as *mut SNode<K, T>);
        lfc_alloc::free_block(p, snode_layout::<K, T>());
    }
}

/// Zombie-tier fallback: pool the block without dropping key/value (see
/// `divert_node` in `node.rs`).
unsafe fn divert_snode<K, T>(p: *mut u8) {
    // Safety: retire contract; contents intentionally not dropped.
    unsafe { lfc_alloc::free_block(p, snode_layout::<K, T>()) };
}

unsafe fn retire_snode<K, T>(p: *mut SNode<K, T>) {
    // Safety: unlinked but live; single retire call reads the plain field.
    let birth = unsafe { (*p).birth };
    // Safety: forwarded.
    unsafe {
        lfc_hazard::retire_with(
            p as *mut u8,
            reclaim_snode::<K, T>,
            lfc_hazard::RetireInfo {
                bytes: std::mem::size_of::<SNode<K, T>>(),
                birth,
                divert: Some(divert_snode::<K, T>),
            },
        )
    };
}

unsafe fn free_unpublished_snode<K, T>(p: *mut SNode<K, T>) {
    // Safety: unique owner.
    unsafe { reclaim_snode::<K, T>(p as *mut u8) };
}

/// The map's mutable shared state, kept in its own pooled allocation like
/// every structure header in this crate (DESIGN.md §2): the struct itself
/// is movable (`Arc::new(LfHashMap::new())` moves it), so its atomics must
/// live at a stable heap address — both for the helpers that may touch
/// them after an operation returns and for the model checker's
/// address-keyed shadow memory.
#[repr(C)]
struct MapHeader {
    /// Current bucket count (power of two). Monotonic; doubled by a single
    /// CAS — the whole resize state. Padded: read by every operation,
    /// written only on growth.
    size: CachePadded<AtomicUsize>,
    /// Approximate live-item count driving the growth heuristic. Padded:
    /// bumped by every successful insert/remove. Two's-complement signed:
    /// an insert's increment runs *after* its commit, so a racing remove of
    /// the same key can decrement first and take the raw word to −1 —
    /// always read it through [`live_items`].
    items: CachePadded<AtomicUsize>,
    /// Segment pointers (`*mut AtomicUsize` as usize; 0 = unallocated).
    /// Written once per segment with a CAS; read-mostly thereafter.
    dir: [AtomicUsize; DIR_SLOTS],
}

/// The item counter's raw word as a count: transiently negative values
/// (see `MapHeader::items`) clamp to 0.
fn live_items(raw: usize) -> usize {
    (raw as isize).max(0) as usize
}

fn alloc_map_header(init: usize) -> std::ptr::NonNull<MapHeader> {
    let p = lfc_alloc::alloc_block(Layout::new::<MapHeader>()).cast::<MapHeader>();
    // Safety: fresh block of the right layout.
    unsafe {
        p.as_ptr().write(MapHeader {
            size: CachePadded::new(AtomicUsize::new(init)),
            items: CachePadded::new(AtomicUsize::new(0)),
            dir: std::array::from_fn(|_| AtomicUsize::new(0)),
        });
    }
    p
}

unsafe fn reclaim_map_header(p: *mut u8) {
    // No drop glue: the header is atomics all the way down.
    unsafe { lfc_alloc::free_block(p, Layout::new::<MapHeader>()) };
}

/// A directory segment is a raw `[AtomicUsize; len + 1]` block: word 0
/// holds `len` (so the type-erased reclaimer can rebuild the layout), words
/// `1..=len` are the bucket slots (0 = uninitialized, else a `*mut SNode`
/// dummy pointer). Slots are plain atomics, never DCAS targets: no
/// composed linearization point ever lands in the directory.
fn segment_layout(len: usize) -> Layout {
    Layout::array::<AtomicUsize>(len + 1).expect("segment fits in isize")
}

fn try_alloc_segment(len: usize) -> Result<*mut AtomicUsize, lfc_alloc::AllocError> {
    let p = lfc_alloc::try_alloc_block(segment_layout(len))?.cast::<AtomicUsize>();
    // Safety: fresh block sized for len + 1 atomics.
    unsafe {
        p.as_ptr().write(AtomicUsize::new(len));
        for i in 0..len {
            p.as_ptr().add(1 + i).write(AtomicUsize::new(0));
        }
    }
    Ok(p.as_ptr())
}

unsafe fn reclaim_segment(p: *mut u8) {
    let base = p as *mut AtomicUsize;
    // Safety: retire contract — the block is quiescent; word 0 is the
    // length header written at allocation.
    unsafe {
        let len = (*base).load(Ordering::Relaxed);
        lfc_alloc::free_block(p, segment_layout(len));
    }
}

// Safety: `next` is the marked chain word; unlinked nodes are hazard-retired.
unsafe impl<K, T> ChainNode for SNode<K, T> {
    #[inline]
    fn chain_word(&self) -> &DAtomic {
        &self.next
    }

    unsafe fn retire_unlinked(p: *mut Self) {
        // Safety: forwarded contract.
        unsafe { retire_snode(p) };
    }
}

/// A move-ready lock-free hash map with incremental lock-free resize
/// (split-ordered list + lazily split buckets; unique keys).
///
/// The bucket directory doubles automatically (one CAS) when the
/// item/bucket ratio crosses a threshold; no operation ever blocks on the
/// growth, and composed moves ([`lfc_core::move_keyed`] etc.) stay
/// linearizable across resize boundaries (see the module docs).
///
/// # Hashing assumes non-adversarial keys
///
/// Bucket selection uses an unkeyed FxHash-style mixer (PR 3), not the
/// randomly keyed SipHash of `std`'s `HashMap`. It disperses well and is
/// far cheaper per operation, but it is **not HashDoS-resistant**: the
/// hash of every key is predictable, so an attacker who controls the keys
/// can craft arbitrarily many that collide, degrading every operation on
/// them to an O(n) traversal of one chain — and focusing all contention
/// there. Use this map with trusted or internally generated keys; do not
/// feed it attacker-chosen keys (e.g. from network input) without an
/// upstream defense.
pub struct LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    /// The shared mutable state (size, item count, segment directory) in
    /// its own pooled allocation; see [`MapHeader`].
    header: std::ptr::NonNull<MapHeader>,
    /// Initial bucket count (power of two); fixes the segment geometry.
    /// Immutable after construction.
    init_size: usize,
    /// `init_size.trailing_zeros()`: bucket→segment mapping shifts by this
    /// instead of dividing by `init_size` (a runtime value the compiler
    /// cannot strength-reduce — the same divide-on-the-hot-path PR 3
    /// removed from bucket selection). Immutable.
    init_shift: u32,
    /// Growth cap: `init_size << (DIR_SLOTS - 1)`, clamped well below the
    /// split-order key space (`2^(BITS-1)` buckets). Immutable.
    max_size: usize,
    _marker: std::marker::PhantomData<(K, T)>,
}

// Safety: handle to hazard-managed shared state; see OrderedSet/MsQueue.
unsafe impl<K, T> Send for LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
}
unsafe impl<K, T> Sync for LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
}

impl<K, T> LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    /// Map with a default initial capacity.
    pub fn new() -> Self {
        Self::with_buckets(64)
    }

    /// Map with an initial capacity *hint* of `n` buckets (rounded up to a
    /// power of two, at least 1).
    ///
    /// Since PR 5 the bucket count is **not** a fixed sizing contract: the
    /// directory doubles automatically as items arrive, so the hint only
    /// pre-sizes the first segment and saves the first few doublings.
    /// Callers that previously tuned `with_buckets` against an expected
    /// load factor can simply stop — any hint now yields the same flat
    /// steady-state chain length.
    pub fn with_buckets(n: usize) -> Self {
        let init = n.clamp(1, 1 << 24).next_power_of_two();
        // Cap growth below the split-order key space (bucket indices must
        // stay under 2^(BITS-1) so dummy keys keep LSB 0).
        let max_size = ((init as u128) << (DIR_SLOTS - 1)).min(1u128 << (usize::BITS - 2)) as usize;
        let map = LfHashMap {
            header: alloc_map_header(init),
            init_size: init,
            init_shift: init.trailing_zeros(),
            max_size,
            _marker: std::marker::PhantomData,
        };
        // Segment 0 and the bucket-0 dummy (the global list head, split
        // order key 0 — the minimum) exist from birth, so `dummy_of`'s
        // recursion always terminates.
        let seg = map.segment(0);
        let head = alloc_snode::<K, T>(so_dummy_key(0), None, None);
        // Safety: slot 0 of the freshly allocated segment; Release pairs
        // with the Acquire slot loads of every later operation.
        unsafe { &*seg.add(1) }.store(head as usize, Ordering::Release);
        map
    }

    #[inline]
    fn hdr(&self) -> &MapHeader {
        // Safety: the header lives until Drop retires it.
        unsafe { self.header.as_ref() }
    }

    /// Hash a key: Fx mix, then fold the high bits down (Fx's dispersion is
    /// strongest in the upper bits, while bucket selection keeps low bits).
    fn hash(key: &K) -> usize {
        let mut h = FxHasher { hash: 0 };
        key.hash(&mut h);
        (h.finish() >> 32) as usize ^ h.finish() as usize
    }

    /// (segment index, offset) of bucket `b` in the directory geometry.
    #[inline]
    fn seg_coords(&self, b: usize) -> (usize, usize) {
        if b < self.init_size {
            (0, b)
        } else {
            let k = (b >> self.init_shift).ilog2() as usize + 1;
            (k, b - (self.init_size << (k - 1)))
        }
    }

    /// Slot count of segment `k`.
    #[inline]
    fn seg_len(&self, k: usize) -> usize {
        if k == 0 {
            self.init_size
        } else {
            self.init_size << (k - 1)
        }
    }

    /// Segment `k`'s base pointer, allocating (and racing to publish) it on
    /// first touch.
    fn segment(&self, k: usize) -> *mut AtomicUsize {
        match self.try_segment(k, false) {
            Some(p) => p,
            // try_segment(_, false) only fails through `try_alloc_block`,
            // which the infallible path escalates.
            None => panic!("lfc-structures: directory segment allocation failed"),
        }
    }

    /// [`segment`](Self::segment), degrading instead of panicking: `None`
    /// when the segment is unallocated and allocating it failed (genuine
    /// exhaustion, or — with `faultable` — the `map.segment` site). The
    /// caller falls back to an ancestor bucket's dummy; the directory heals
    /// on a later touch once memory returns.
    fn try_segment(&self, k: usize, faultable: bool) -> Option<*mut AtomicUsize> {
        // Acquire (audited): pairs with the Release publication below so a
        // reader that sees the pointer sees the zeroed slots + len header.
        let p = self.hdr().dir[k].load(Ordering::Acquire);
        if p != 0 {
            return Some(p as *mut AtomicUsize);
        }
        if faultable && lfc_runtime::fault::check("map.segment") {
            return None;
        }
        let fresh = try_alloc_segment(self.seg_len(k)).ok()?;
        match self.hdr().dir[k].compare_exchange(
            0,
            fresh as usize,
            // Release publishes the segment's initialization; Acquire on
            // failure pairs with the winner's Release for the same reason.
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Some(fresh),
            Err(won) => {
                // Safety: our segment was never published; unique owner.
                unsafe { lfc_alloc::free_block(fresh as *mut u8, segment_layout(self.seg_len(k))) };
                Some(won as *mut AtomicUsize)
            }
        }
    }

    /// Bucket `b`'s directory slot.
    #[inline]
    fn bucket_slot(&self, b: usize) -> &AtomicUsize {
        let (k, off) = self.seg_coords(b);
        // Safety: `segment` returns a live segment of `seg_len(k)` slots
        // (freed only at Drop), and `off < seg_len(k)` by construction.
        unsafe { &*self.segment(k).add(1 + off) }
    }

    /// Bucket `b`'s slot if its segment is (or can be made) resident;
    /// `None` degrades the caller to an ancestor bucket.
    #[inline]
    fn try_bucket_slot(&self, b: usize) -> Option<&AtomicUsize> {
        let (k, off) = self.seg_coords(b);
        let seg = self.try_segment(k, true)?;
        // Safety: as in `bucket_slot`.
        Some(unsafe { &*seg.add(1 + off) })
    }

    /// Bucket `b`'s dummy node, lazily threading it (and its ancestors)
    /// into the list on first touch — the per-operation amortized split.
    ///
    /// Degrades under memory pressure instead of failing: if the bucket's
    /// directory segment or dummy node cannot be allocated (or the
    /// `map.segment` / `map.dummy` fault sites fire), the *parent* bucket's
    /// dummy is returned. That is always correct — every key of bucket `b`
    /// sorts inside its parent's chain — it merely lengthens the walk until
    /// a later operation succeeds in materializing the split.
    fn dummy_of(&self, b: usize, g: &Guard) -> *mut SNode<K, T> {
        let Some(slot) = self.try_bucket_slot(b) else {
            debug_assert!(b > 0, "segment 0 is allocated at construction");
            return self.dummy_of(parent_bucket(b), g);
        };
        // Acquire (audited): pairs with the Release slot store below (and
        // in `with_buckets`), publishing the dummy's immutable fields.
        let p = slot.load(Ordering::Acquire);
        if p != 0 {
            return p as *mut SNode<K, T>;
        }
        self.init_bucket(b, g)
    }

    /// Initialize bucket `b`: ensure the parent's dummy exists (recursing
    /// up the split tree), thread a dummy for `b` into the list, and
    /// publish it in the directory. Concurrent initializers converge on
    /// the single list-resident dummy: the list admits one node per
    /// split-order key, and dummies are never unlinked while the map
    /// lives, so whoever loses the insertion race adopts the winner's
    /// node.
    #[cold]
    fn init_bucket(&self, b: usize, g: &Guard) -> *mut SNode<K, T> {
        let parent = self.dummy_of(parent_bucket(b), g);
        let dkey = so_dummy_key(b);
        if lfc_runtime::fault::check("map.dummy") {
            // Degrade: no dummy for `b` this time; the operation starts
            // from the parent's chain (see `dummy_of`).
            return parent;
        }
        let mut fresh: *mut SNode<K, T> = std::ptr::null_mut();
        let dummy = loop {
            let pos = self.find_from(parent, dkey, None, g);
            if !pos.cur.is_null() {
                // Safety: cur is epoch-protected by the caller's op guard;
                // so_key is immutable.
                if unsafe { (*pos.cur).so_key } == dkey {
                    break pos.cur; // another initializer won the thread race
                }
            }
            if fresh.is_null() {
                fresh = match try_alloc_snode::<K, T>(dkey, None, None) {
                    Ok(p) => p,
                    // Genuine exhaustion: same degrade as the fault site.
                    Err(_) => return parent,
                };
            }
            // Safety: fresh is ours until published.
            unsafe { &(*fresh).next }.store_word(pos.cur as usize);
            // Safety: prev allocation epoch-protected; a raw CAS suffices —
            // dummy threading is structural, not a linearization point (the
            // map's observable state is unchanged by it).
            if unsafe { &*pos.prev_word }.cas_word(pos.cur as usize, fresh as usize) {
                let d = fresh;
                fresh = std::ptr::null_mut();
                break d;
            }
        };
        if !fresh.is_null() {
            // Safety: never published.
            unsafe { free_unpublished_snode(fresh) };
        }
        // Publish the (unique) list dummy in the directory. A CAS failure
        // means another initializer published first — necessarily the same
        // pointer, since both found the one list-resident dummy for `dkey`.
        // Release pairs with `dummy_of`'s Acquire.
        let slot = self.bucket_slot(b);
        if slot
            .compare_exchange(0, dummy as usize, Ordering::Release, Ordering::Acquire)
            .is_err()
        {
            debug_assert_eq!(slot.load(Ordering::Acquire), dummy as usize);
        }
        dummy
    }

    /// The bucket dummy to start a search for hash `h` from, under the
    /// current (possibly concurrently growing) bucket count. A stale size
    /// read is harmless: it selects a coarser (ancestor) dummy whose chain
    /// still contains the key's position, just with a longer walk.
    #[inline]
    fn start_for(&self, h: usize, g: &Guard) -> *mut SNode<K, T> {
        // Relaxed (audited): `size` only doubles, and every value selects a
        // correct start dummy (see above); no other state rides on it.
        let size = self.hdr().size.load(Ordering::Relaxed);
        self.dummy_of(h & (size - 1), g)
    }

    /// Whether `cur` sorts at-or-after the target `(so, key)`. Split-order
    /// keys differ between dummies and data nodes (LSB), so an equal
    /// `so_key` implies the same kind; equal data keys (a full-hash
    /// collision) fall back to the `Ord` tie-break.
    #[inline]
    fn at_or_after(cur_so: usize, cur_key: Option<&K>, so: usize, key: Option<&K>) -> bool {
        if cur_so != so {
            return cur_so > so;
        }
        match (key, cur_key) {
            // Dummy target: equal split-order key means "found".
            (None, _) => true,
            // Data target vs dummy node: unreachable (LSBs differ).
            (Some(_), None) => true,
            (Some(k), Some(ck)) => ck >= k,
        }
    }

    /// Locate `(so, key)` starting from the bucket dummy `start`, via the
    /// shared traversal kernel ([`crate::traverse::find_pos`]). `start` is
    /// a dummy — reachable for the map's whole lifetime (dummies are
    /// unlinked only at `Drop`) and never logically deleted — so the same
    /// anchor stays sound across restarts and the walk runs under a plain
    /// [`Guard`] ([`NoRepin`]: no ejection-repin point needed).
    fn find_from(
        &self,
        start: *mut SNode<K, T>,
        so: usize,
        key: Option<&K>,
        g: &Guard,
    ) -> Position<SNode<K, T>> {
        // Safety: start is epoch-protected (a live dummy).
        let anchor = |_: &Guard| (unsafe { &(*start).next } as *const DAtomic, start as usize);
        // Safety: cur epoch-protected; so_key/key are immutable.
        let at_or_after = |cur: *mut SNode<K, T>| {
            let (cur_so, cur_key) = unsafe { ((*cur).so_key, (*cur).key.as_ref()) };
            Self::at_or_after(cur_so, cur_key, so, key)
        };
        // Safety: anchor contract per above; nodes are SNodes by
        // construction.
        unsafe { traverse::find_pos(&mut NoRepin(g), anchor, at_or_after) }
    }

    /// Growth heuristic after a successful insert: double the bucket count
    /// (one CAS, no node moves) when the item/bucket ratio crosses the
    /// threshold. Bucket dummies for the new half materialize lazily on
    /// first touch.
    #[inline]
    fn note_inserted(&self) {
        // Relaxed (audited): the counter is a heuristic; the split-order
        // invariants hold at every size, so a missed or doubled increment
        // only shifts *when* growth happens.
        let items = live_items(
            self.hdr()
                .items
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_add(1),
        );
        let size = self.hdr().size.load(Ordering::Relaxed);
        if items > size << GROW_SHIFT && size < self.max_size {
            // Degrade under memory pressure (`map.grow` fault site): skip
            // the doubling — growth is an optimization, never a correctness
            // requirement, so the map simply runs at a higher load factor
            // (longer chains) until the pressure lifts. The heuristic
            // re-fires on every later insert, so growth resumes by itself.
            if lfc_runtime::fault::check("map.grow") {
                return;
            }
            // Relaxed CAS (audited): doubling publishes nothing — new
            // buckets' dummies are created lazily by their first toucher,
            // whose directory/list publications carry their own
            // Release/Acquire pairs. Failure means someone else doubled.
            let _ = self.hdr().size.compare_exchange(
                size,
                size << 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Force one doubling of the bucket directory (tests, benchmarks, and
    /// capacity pre-warming). Safe at any time: growth is the same single
    /// CAS the heuristic performs, and operations racing it simply keep
    /// using their (coarser) start dummy. Returns the bucket count after
    /// the attempt.
    ///
    /// Every doubling lets subsequent operations lazily materialize
    /// directory segments proportional to the new bucket range, so growth
    /// is **clamped to a bound derived from the item count** (PR 6, fixing
    /// the hazard documented in PR 5): the doubling is refused once the
    /// bucket count reaches [`Self::grow_bound`] — a few doublings past
    /// where the load-factor heuristic would stop — so a force-grow loop
    /// can pre-warm real capacity but can never balloon the directory far
    /// past what the resident items justify. (Use
    /// [`LfHashMap::with_buckets`] to start big instead.)
    pub fn force_grow(&self) -> usize {
        let size = self.hdr().size.load(Ordering::Relaxed);
        if size < self.max_size && size < self.grow_bound() {
            let _ = self.hdr().size.compare_exchange(
                size,
                size << 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        self.hdr().size.load(Ordering::Relaxed)
    }

    /// Largest bucket count [`force_grow`](Self::force_grow) may reach at
    /// the current item count: two doublings past the load-factor
    /// heuristic's own stopping point (`items > size << GROW_SHIFT`), and
    /// never below the construction-time bucket count.
    pub fn grow_bound(&self) -> usize {
        // Relaxed (audited): a racy item count only shifts the clamp by a
        // doubling; the directory-memory bound is asymptotic, not exact.
        let items = live_items(self.hdr().items.load(Ordering::Relaxed));
        (items + 1)
            .next_power_of_two()
            .checked_shl(GROW_SHIFT as u32 + 1)
            .unwrap_or(usize::MAX)
            .max(self.init_size)
            .min(self.max_size)
    }

    /// Current bucket count (power of two). Grows over time; racy by
    /// nature.
    pub fn capacity(&self) -> usize {
        self.hdr().size.load(Ordering::Relaxed)
    }

    /// The bucket `key` selects under the current directory size.
    /// Diagnostics/tests only: lets model-checker scenarios pick keys with
    /// known split relationships (e.g. a key whose bucket dummy threads
    /// into another key's chain on the next doubling).
    #[doc(hidden)]
    pub fn bucket_index(&self, key: &K) -> usize {
        Self::hash(key) & (self.hdr().size.load(Ordering::Relaxed) - 1)
    }

    /// Insert `val` under `key`; false if the key is present.
    pub fn insert(&self, key: K, val: T) -> bool {
        self.insert_key_with(key, val, &mut NormalCas) == InsertOutcome::Inserted
    }

    /// Fallible [`LfHashMap::insert`]: a node-allocation failure (genuine
    /// exhaustion, or the `structures.node` fault site) surfaces as `Err`
    /// with the key/value pair handed back and the map untouched. Directory
    /// growth never fails an insert — under pressure the map degrades to
    /// no-resize instead (see `map.grow` / `map.segment` / `map.dummy`).
    #[allow(clippy::type_complexity)]
    pub fn try_insert(&self, key: K, val: T) -> Result<bool, ((K, T), lfc_alloc::AllocError)> {
        let h = Self::hash(&key);
        let node = match try_alloc_snode(so_data_key(h), Some(key), Some(val)) {
            Ok(n) => n,
            Err((k, v, e)) => {
                return Err((
                    (
                        k.expect("key handed back on failure"),
                        v.expect("value handed back on failure"),
                    ),
                    e,
                ));
            }
        };
        Ok(self.insert_snode(h, node, &mut NormalCas) == InsertOutcome::Inserted)
    }

    /// Remove the element under `key`.
    pub fn remove(&self, key: &K) -> Option<T> {
        match self.remove_key_with(key, &mut NormalCas) {
            RemoveOutcome::Removed(v) => Some(v),
            RemoveOutcome::Empty => None,
            RemoveOutcome::Aborted => unreachable!("NormalCas never aborts"),
        }
    }

    /// Clone the element under `key`.
    pub fn get(&self, key: &K) -> Option<T> {
        let g = pin_op();
        let h = Self::hash(key);
        let start = self.start_for(h, &g);
        let pos = self.find_from(start, so_data_key(h), Some(key), &g);
        if pos.cur.is_null() {
            return None;
        }
        // Safety: cur epoch-protected by the op guard; fields immutable.
        let node = pos.cur;
        if unsafe { (*node).so_key } == so_data_key(h)
            && unsafe { (*node).key.as_ref() } == Some(key)
        {
            // Safety: value immutable, node epoch-protected.
            unsafe { (*(*node).val.get()).clone() }
        } else {
            None
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Racy O(n) size (quiescent use only): walks the whole split-ordered
    /// list counting live data nodes (dummies excluded).
    pub fn count(&self) -> usize {
        let g = pin_op();
        // Safety: the bucket-0 dummy exists from birth; epoch-protected
        // walk as in find_from.
        let head = self.bucket_slot(0).load(Ordering::Acquire) as *mut SNode<K, T>;
        let mut n = 0;
        let mut cur = unsafe { &(*head).next }.read(&g);
        while cur != 0 {
            let node = cur as *mut SNode<K, T>;
            // Safety: quiescent per the docs.
            let next = unsafe { &(*node).next }.read_acquire(&g);
            if !is_deleted(next) && unsafe { (*node).key.is_some() } {
                n += 1;
            }
            cur = without_mark(next);
        }
        n
    }
}

impl<K, T> Default for LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, T> LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    /// The insert loop on an already-allocated data node: the shared tail
    /// of the infallible ([`KeyedMoveTarget::insert_key_with`]) and
    /// fallible ([`LfHashMap::try_insert`]) insert paths.
    fn insert_snode<C: InsertCtx>(
        &self,
        h: usize,
        node: *mut SNode<K, T>,
        ctx: &mut C,
    ) -> InsertOutcome {
        let mut g = pin_op();
        let so = so_data_key(h);
        loop {
            // Ejection check (PR 6): the attempt re-resolves its start
            // dummy anyway, so an ejected thread just re-enters here;
            // `node` is unpublished and survives the restart.
            g.repin_if_ejected();
            // Safety: node is ours until published; the key is immutable.
            let key_ref = unsafe { (*node).key.as_ref() }.expect("data node holds a key");
            // Re-resolve the start dummy every attempt: a concurrent
            // doubling may have split our bucket since the last one.
            let start = self.start_for(h, &g);
            let pos = self.find_from(start, so, Some(key_ref), &g);
            if !pos.cur.is_null() {
                // Safety: cur epoch-protected by find's op guard.
                if unsafe { (*pos.cur).so_key } == so
                    && unsafe { (*pos.cur).key.as_ref() } == Some(key_ref)
                {
                    // Duplicate key: genuine rejection (fails a move).
                    // Safety: never published.
                    unsafe { free_unpublished_snode(node) };
                    return InsertOutcome::Rejected;
                }
            }
            // Safety: unpublished node.
            unsafe { &(*node).next }.store_word(pos.cur as usize);
            let r = ctx.scas(LinPoint {
                // Safety: prev allocation (a dummy or data node)
                // epoch-protected; a composed capture promotes `hp` into an
                // ENTRY hazard slot before the commit so the protection
                // outlives this epoch. The dummy itself is never the
                // *subject* of the linearization point — only the host of
                // the predecessor word (module-docs invariant).
                word: unsafe { &*pos.prev_word },
                old: pos.cur as usize,
                new: node as usize,
                hp: pos.prev_alloc,
            });
            match r {
                ScasResult::Success => {
                    self.note_inserted();
                    return InsertOutcome::Inserted;
                }
                ScasResult::Fail => continue,
                ScasResult::Abort => {
                    // Safety: never published.
                    unsafe { free_unpublished_snode(node) };
                    return InsertOutcome::Rejected;
                }
            }
        }
    }
}

impl<K, T> KeyedMoveTarget<K, T> for LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn insert_key_with<C: InsertCtx>(&self, key: K, elem: T, ctx: &mut C) -> InsertOutcome {
        let h = Self::hash(&key);
        let node = alloc_snode(so_data_key(h), Some(key), Some(elem));
        self.insert_snode(h, node, ctx)
    }
}

impl<K, T> KeyedMoveSource<K, T> for LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn remove_key_with<C: RemoveCtx<T>>(&self, key: &K, ctx: &mut C) -> RemoveOutcome<T> {
        let mut g = pin_op();
        let h = Self::hash(key);
        let so = so_data_key(h);
        loop {
            // Ejection check (PR 6): see `insert_key_with`.
            g.repin_if_ejected();
            let start = self.start_for(h, &g);
            let pos = self.find_from(start, so, Some(key), &g);
            let cur = pos.cur;
            // Safety: cur epoch-protected by find's op guard (non-null).
            if cur.is_null()
                || unsafe { (*cur).so_key } != so
                || unsafe { (*cur).key.as_ref() } != Some(key)
            {
                return RemoveOutcome::Empty;
            }
            // The key matched, so `cur` is a data node: the remove's
            // linearization point can never mark a dummy (module-docs
            // invariant).
            debug_assert!(unsafe { (*cur).key.is_some() });
            // Safety: cur epoch-protected.
            let succ_w = unsafe { &(*cur).next }.read(&g);
            if is_deleted(succ_w) {
                continue; // someone else is removing it; re-find
            }
            // Element accessible before the linearization point (req. 4).
            // Safety: value immutable; cur epoch-protected.
            let val = match unsafe { (*(*cur).val.get()).as_ref() } {
                Some(v) => v.clone(),
                None => unreachable!("data nodes always hold a value"),
            };
            // The linearization point: the logical-delete marking CAS.
            let r = ctx.scas(
                LinPoint {
                    // Safety: cur epoch-protected; composed captures promote
                    // `hp` into an ENTRY hazard slot before the commit.
                    word: unsafe { &(*cur).next },
                    old: succ_w,
                    new: succ_w | DEL_MARK,
                    hp: cur as usize,
                },
                &val,
            );
            match r {
                ScasResult::Success => {
                    // Relaxed (audited): growth heuristic only.
                    self.hdr().items.fetch_sub(1, Ordering::Relaxed);
                    // Cleanup: try to unlink physically; a traversal will
                    // otherwise do it later.
                    if unsafe { &*pos.prev_word }.cas_word(cur as usize, succ_w) {
                        // Safety: unlinked.
                        unsafe { retire_snode(cur) };
                    }
                    return RemoveOutcome::Removed(val);
                }
                ScasResult::Fail => continue,
                ScasResult::Abort => return RemoveOutcome::Aborted,
            }
        }
    }
}

impl<K, T> Drop for LfHashMap<K, T>
where
    K: Hash + Ord + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    fn drop(&mut self) {
        let g = pin();
        // Every node — data and dummy alike — is reachable from the
        // bucket-0 dummy, the global head of the split-ordered list.
        let head = self.bucket_slot(0).load(Ordering::Acquire) as *mut SNode<K, T>;
        let mut cur = head as usize;
        while cur != 0 {
            let node = cur as *mut SNode<K, T>;
            // Safety: exclusive teardown (&mut self); helpers of past
            // composed operations may still write into `next` words, which
            // is why nodes go through the unified reclamation domain.
            let next = unsafe { &(*node).next }.read(&g);
            unsafe { retire_snode(node) };
            cur = without_mark(next);
        }
        // Segments and the map header flow through the same domain (PR 5):
        // their slots are plain atomics no helper writes to, but deferring
        // the free keeps one teardown discipline for every block the map
        // ever published.
        for k in 0..DIR_SLOTS {
            let seg = self.hdr().dir[k].load(Ordering::Acquire);
            if seg != 0 {
                // Safety: unique teardown; the length header word rebuilds
                // the layout inside the reclaimer. Segments carry no drop
                // glue, so the divert path is the reclaimer itself; the
                // byte charge uses the length header. Birth unknown: a
                // segment lives from first touch to Drop anyway.
                let len = unsafe { (*(seg as *mut AtomicUsize)).load(Ordering::Relaxed) };
                unsafe {
                    lfc_hazard::retire_with(
                        seg as *mut u8,
                        reclaim_segment,
                        lfc_hazard::RetireInfo {
                            bytes: segment_layout(len).size(),
                            birth: lfc_hazard::BIRTH_UNKNOWN,
                            divert: Some(reclaim_segment),
                        },
                    )
                };
            }
        }
        // Safety: unique teardown path.
        unsafe {
            lfc_hazard::retire_with(
                self.header.as_ptr() as *mut u8,
                reclaim_map_header,
                lfc_hazard::RetireInfo {
                    bytes: std::mem::size_of::<MapHeader>(),
                    birth: lfc_hazard::BIRTH_UNKNOWN,
                    divert: Some(reclaim_map_header),
                },
            )
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_zero_bytes_do_not_collide() {
        // A plain byte fold of the final partial chunk would hash "a",
        // "\0a", "\0\0a", ... identically (leading zeros vanish), pinning
        // the whole family to one chain; the length-seeded fold keeps
        // them distinct.
        let hash = |s: &str| {
            let mut h = FxHasher { hash: 0 };
            s.hash(&mut h);
            h.finish()
        };
        let family: Vec<u64> = ["a", "\0a", "\0\0a", "\0\0\0a"]
            .iter()
            .map(|s| hash(s))
            .collect();
        for i in 0..family.len() {
            for j in i + 1..family.len() {
                assert_ne!(family[i], family[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn item_counter_survives_the_transient_minus_one() {
        // An insert bumps the counter *after* its commit, so a racing
        // composed remove of the same key can decrement first: the raw word
        // reads −1 when the inserter arrives. Drive it there by hand.
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(2);
        m.hdr().items.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(m.grow_bound(), 4, "a negative count clamps to zero items");
        assert!(m.insert(1, 10), "the late increment must not overflow");
        assert_eq!(m.hdr().items.load(Ordering::Relaxed), 0);
        assert_eq!(m.capacity(), 2, "−1 is not a huge item count: no growth");
        assert_eq!(m.get(&1), Some(10));
    }

    #[test]
    fn split_order_key_invariants() {
        // Data keys always carry LSB 1, dummy keys LSB 0 — the two kinds
        // can never collide on a split-order key.
        for h in [0usize, 1, 0xDEAD_BEEF, usize::MAX] {
            assert_eq!(so_data_key(h) & 1, 1);
        }
        for b in [0usize, 1, 2, 3, 64, 1 << 30] {
            assert_eq!(so_dummy_key(b) & 1, 0);
        }
        // A bucket's dummy key lower-bounds every data key hashing to it,
        // at every table size the bucket exists in.
        for size_log in [1usize, 3, 6, 10] {
            let size = 1 << size_log;
            for h in [3usize, 0x1234_5678, 0xFEDC_BA98_7654_3210] {
                let b = h & (size - 1);
                assert!(so_dummy_key(b) < so_data_key(h), "size {size}, hash {h:#x}");
                // And upper-bounded by the *split* bucket's dummy iff the
                // key does not belong there.
                let split = b + size;
                if h & size == 0 {
                    assert!(so_data_key(h) < so_dummy_key(split));
                } else {
                    assert!(so_data_key(h) > so_dummy_key(split));
                }
            }
        }
        // Parent recursion strictly descends to the root.
        for b in [1usize, 2, 3, 7, 64, 1023, 1 << 20] {
            let mut x = b;
            let mut steps = 0;
            while x != 0 {
                x = parent_bucket(x);
                steps += 1;
                assert!(steps <= usize::BITS, "parent chain terminates");
            }
        }
    }

    #[test]
    fn insert_get_remove() {
        let m: LfHashMap<String, u64> = LfHashMap::new();
        assert!(m.insert("a".into(), 1));
        assert!(m.insert("b".into(), 2));
        assert!(!m.insert("a".into(), 3), "duplicate");
        assert_eq!(m.get(&"a".into()), Some(1));
        assert_eq!(m.remove(&"a".into()), Some(1));
        assert_eq!(m.get(&"a".into()), None);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn many_keys_across_buckets() {
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(8);
        for k in 0..500 {
            assert!(m.insert(k, k * k));
        }
        assert_eq!(m.count(), 500);
        for k in 0..500 {
            assert_eq!(m.get(&k), Some(k * k));
        }
        for k in (0..500).step_by(2) {
            assert_eq!(m.remove(&k), Some(k * k));
        }
        assert_eq!(m.count(), 250);
    }

    #[test]
    fn grows_incrementally_and_keeps_every_key() {
        // From a deliberately tiny start the directory must double its way
        // up while every key stays reachable — the tentpole property.
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(1);
        assert_eq!(m.capacity(), 1);
        for k in 0..10_000u64 {
            assert!(m.insert(k, !k));
            // Spot-check reads interleaved with growth.
            if k % 997 == 0 {
                assert_eq!(m.get(&k), Some(!k));
            }
        }
        assert!(
            m.capacity() >= 10_000 / 4,
            "directory grew with the items (capacity {})",
            m.capacity()
        );
        for k in 0..10_000u64 {
            assert_eq!(m.get(&k), Some(!k), "key {k} lost during growth");
        }
        assert_eq!(m.count(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.remove(&k), Some(!k));
        }
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn force_grow_splits_lazily() {
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(2);
        for k in 0..32u64 {
            assert!(m.insert(k, k));
        }
        let before = m.capacity();
        let after = m.force_grow();
        assert_eq!(after, (before * 2).min(m.max_size));
        // Every key survives the doubling; lookups thread the new dummies.
        for k in 0..32u64 {
            assert_eq!(m.get(&k), Some(k));
        }
        assert_eq!(m.count(), 32);
    }

    #[test]
    fn with_buckets_is_a_capacity_hint() {
        for (req, want) in [
            (0, 1),
            (1, 1),
            (2, 2),
            (3, 4),
            (48, 64),
            (64, 64),
            (65, 128),
        ] {
            let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(req);
            assert_eq!(m.capacity(), want, "with_buckets({req})");
        }
        // The hint is not a ceiling: the map grows past it on demand.
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(2);
        for k in 0..256u64 {
            m.insert(k, k);
        }
        assert!(m.capacity() > 2, "outgrew the hint");
    }

    #[test]
    fn fx_hash_disperses_sequential_keys() {
        // Sequential u64 keys must not collapse onto a few buckets (the
        // failure mode of a truncating or identity hash).
        let mut used = std::collections::HashSet::new();
        for k in 0..512u64 {
            used.insert(LfHashMap::<u64, u64>::hash(&k) & 63);
        }
        assert!(used.len() >= 48, "only {} of 64 buckets used", used.len());

        // String keys exercise the byte-chunk `write` path.
        let mut used = std::collections::HashSet::new();
        for k in 0..512u64 {
            used.insert(LfHashMap::<String, u64>::hash(&format!("key-{k}")) & 63);
        }
        assert!(used.len() >= 48, "only {} of 64 buckets used", used.len());
    }

    #[test]
    fn concurrent_mixed_ops() {
        use std::sync::atomic::{AtomicI64, Ordering};
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(16);
        let balance = AtomicI64::new(0);
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let m = &m;
                let balance = &balance;
                sc.spawn(move || {
                    for i in 0..1_500 {
                        let k = (t * 31 + i * 7) % 64;
                        if i % 2 == 0 {
                            if m.insert(k, i) {
                                balance.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if m.remove(&k).is_some() {
                            balance.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(balance.load(Ordering::Relaxed), m.count() as i64);
    }

    #[test]
    fn concurrent_inserts_during_forced_growth() {
        // Writers hammer disjoint key ranges while a grower doubles the
        // directory as fast as it can: every insert must land exactly once
        // and stay reachable through the splits.
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(1);
        std::thread::scope(|sc| {
            for t in 0..3u64 {
                let m = &m;
                sc.spawn(move || {
                    for k in 0..2_000u64 {
                        let key = t * 10_000 + k;
                        assert!(m.insert(key, key * 3));
                    }
                });
            }
            let m = &m;
            sc.spawn(move || {
                for _ in 0..10 {
                    m.force_grow();
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(m.count(), 6_000);
        for t in 0..3u64 {
            for k in 0..2_000u64 {
                let key = t * 10_000 + k;
                assert_eq!(m.get(&key), Some(key * 3));
            }
        }
    }

    #[test]
    fn drop_reclaims_values_after_growth() {
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
            let m: LfHashMap<u64, D> = LfHashMap::with_buckets(1);
            for k in 0..300 {
                m.insert(k, D);
            }
            assert!(m.capacity() > 1, "map grew before teardown");
        }
        crate::test_util::flush_until(|| DROPS.load(Ordering::SeqCst) - before == 300);
        assert_eq!(DROPS.load(Ordering::SeqCst) - before, 300);
    }
}
