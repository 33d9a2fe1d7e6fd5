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
//! forced to 1 for data nodes. Buckets are not containers but shortcuts
//! into that list: bucket `b` is a *dummy node* threaded through it, whose
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
//! The bucket directory itself is segmented: a fixed array of
//! `DIR_SLOTS` segment pointers where segment *k* ≥ 1 covers buckets
//! `[init·2^(k-1), init·2^k)` (segment 0 covers `[0, init)`), allocated
//! lazily and published with a single CAS, so growth never copies or moves
//! directory state either.
//!
//! # Dummies live in the directory
//!
//! A segment is an array of cache-line `Slot`s, and each slot *embeds*
//! its bucket's dummy node next to a state word. A lookup computes the
//! dummy's address from the bucket index and reads the state word and the
//! dummy's `next` word from the same line — no directory pointer to
//! chase, no separately allocated dummy block. Segments come zero-filled
//! (state 0 = `UNCLAIMED`); a large one comes from the system's `calloc`
//! (`lfc_alloc::try_alloc_zeroed_block`), so an untouched bucket costs no
//! resident memory beyond the zero page it maps to.
//!
//! A slot is threaded by **claim, then thread**:
//!
//! 1. the first toucher to win the `UNCLAIMED → CLAIMED` CAS is the
//!    slot's only writer: it writes the dummy's fields in place, finds its
//!    position from the parent bucket's dummy, stages `next` and link-CASes
//!    it in (re-finding on failure), then Release-stores `THREADED`;
//! 2. a thread that finds the slot `CLAIMED` does not wait: it starts from
//!    the parent's dummy, which is always correct (every key of bucket `b`
//!    sorts inside its parent's chain) and merely lengthens the walk.
//!
//! A claimer that leaves before its link CAS (the `map.dummy` fault site,
//! or an unwind out of the walk) hands the slot back to `UNCLAIMED`, so a
//! later toucher threads it; one that unwinds after it stores `THREADED`.
//!
//! So each dummy is threaded exactly once, and a stalled claimer delays
//! nobody: it only lengthens walks through its bucket, exactly like the
//! parent fallback a missing directory segment takes.
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
//! of a capture; `LinPoint::hp` is then the base address of the dummy's
//! *segment* — the block the reclamation domain knows — which is sound
//! exactly like any predecessor pin: the segment is epoch-covered at
//! capture time and promoted into an `ENTRY*` hazard slot by the engine.
//! Dummies are never unlinked while the map lives; `Drop` retires the data
//! nodes and the segments (dummies included) through the unified
//! epoch+hazard domain like every other block.
//!
//! Bucket selection hashes with an FxHash-style mixer over a power-of-two
//! bucket count (PR 3): one rotate-xor-multiply per key word plus a mask.

use crate::node::{alloc, retire, try_alloc, Block};
use crate::sync::{AtomicUsize, Ordering};
use crate::traverse::{self, ChainNode, NoRepin, Position};
use lfc_core::{
    InsertCtx, InsertOutcome, KeyedMoveSource, KeyedMoveTarget, NormalCas, RemoveCtx, RemoveOutcome,
};
use lfc_dcas::DAtomic;
use lfc_hazard::{pin, pin_op, Guard, OpGuard};
use lfc_runtime::fault::{self, site};
use lfc_runtime::CachePadded;
use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;

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

/// Whether split-order key `so` is a dummy's (LSB 0; see [`DATA_TAG`]).
#[inline]
fn is_dummy_key(so: usize) -> bool {
    so & 1 == 0
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

impl<K, T> SNode<K, T> {
    /// An unlinked data node stamped with the current era.
    fn new(so_key: usize, key: Option<K>, val: Option<T>) -> Self {
        SNode {
            next: DAtomic::new(0),
            so_key,
            key,
            val: UnsafeCell::new(val),
            birth: lfc_hazard::birth_era(),
        }
    }

    /// Bucket `b`'s dummy, written in place into its directory [`Slot`] by
    /// the slot's claimer — never allocated as a block of its own.
    fn dummy(b: usize) -> Self {
        Self::new(so_dummy_key(b), None, None)
    }
}

impl<K, T> Block for SNode<K, T> {
    fn birth(&self) -> usize {
        self.birth
    }
}

// Safety: `next` is the marked chain word; `val` is written before
// publication; unlinked nodes are hazard-retired.
unsafe impl<K, T: Clone> ChainNode for SNode<K, T> {
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
        // Only `Drop`'s teardown walk reaches a dummy here (dummies are
        // never marked): it lives in its segment and is freed with it.
        // Safety: forwarded contract; so_key is immutable.
        if !is_dummy_key(unsafe { (*p).so_key }) {
            unsafe { retire(p) };
        }
    }
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
    /// Segment pointers (`*mut Slot<K, T>` as usize; 0 = unallocated).
    /// Written once per segment with a CAS; read-mostly thereafter.
    dir: [AtomicUsize; DIR_SLOTS],
}

/// The item counter's raw word as a count: transiently negative values
/// (see `MapHeader::items`) clamp to 0.
fn live_items(raw: usize) -> usize {
    (raw as isize).max(0) as usize
}

impl Block for MapHeader {}

/// Slot states of the claim-then-thread protocol (module docs). A
/// zero-filled segment starts every slot `UNCLAIMED`.
const UNCLAIMED: usize = 0;
/// A thread owns the slot and is threading its dummy.
const CLAIMED: usize = 1;
/// The dummy is linked into the list; its fields are immutable.
const THREADED: usize = 2;

/// A won claim on a slot's `state` (`init_bucket`). Dropping it ends the
/// claim: `THREADED` once the link CAS has published the dummy, else back
/// to `UNCLAIMED` — nothing is published before that CAS, so a claimer
/// that leaves early (the `map.dummy` site, or an unwind out of the walk)
/// leaves the slot for a later toucher to claim and thread afresh, never
/// `CLAIMED` forever.
struct Claim<'a> {
    state: &'a AtomicUsize,
    linked: bool,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let next = if self.linked { THREADED } else { UNCLAIMED };
        // Release: `THREADED` pairs with `dummy_of`'s Acquire load, and
        // `UNCLAIMED` with the next claimer's Acquire CAS, so the fields
        // this claimer may have written happen-before that claimer's own.
        self.state.store(next, Ordering::Release);
    }
}

/// One bucket of a directory segment: the bucket's dummy node, embedded,
/// and the state word guarding it, on one cache line for word-sized keys
/// and values (`SNode<u64, u64>` is 56 bytes), so a lookup's state check
/// and its first chain hop read the same line.
#[repr(C, align(64))]
struct Slot<K, T> {
    /// The dummy; uninitialized until the claimer writes it, read only
    /// once published (by the link CAS, or the `THREADED` store).
    dummy: UnsafeCell<MaybeUninit<SNode<K, T>>>,
    /// `UNCLAIMED`, `CLAIMED` or `THREADED`. A plain atomic, never a DCAS
    /// target: no composed linearization point lands on it.
    state: AtomicUsize,
}

impl<K, T> Slot<K, T> {
    #[inline]
    fn dummy(&self) -> *mut SNode<K, T> {
        self.dummy.get().cast()
    }
}

/// A directory segment is a zero-filled `[Slot; len + 1]` block: the first
/// word of slot 0 holds `len` (so the type-erased reclaimer can rebuild the
/// layout), slots `1..=len` are the buckets.
fn segment_layout<K, T>(len: usize) -> Layout {
    Layout::array::<Slot<K, T>>(len + 1).expect("segment fits in isize")
}

fn try_alloc_segment<K, T>(len: usize) -> Result<*mut Slot<K, T>, lfc_alloc::AllocError> {
    let p = lfc_alloc::try_alloc_zeroed_block(segment_layout::<K, T>(len))?;
    // Safety: fresh block; slot 0 is the length header.
    unsafe { p.as_ptr().cast::<usize>().write(len) };
    Ok(p.as_ptr().cast())
}

unsafe fn reclaim_segment<K, T>(p: *mut u8) {
    // Safety: retire contract — the block is quiescent; its first word is
    // the length header written at allocation. Dummies own nothing (no key,
    // no value), so freeing the block frees them.
    unsafe {
        let len = p.cast::<usize>().read();
        lfc_alloc::free_block(p, segment_layout::<K, T>(len));
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
            header: alloc(MapHeader {
                size: CachePadded::new(AtomicUsize::new(init)),
                items: CachePadded::new(AtomicUsize::new(0)),
                dir: std::array::from_fn(|_| AtomicUsize::new(0)),
            }),
            init_size: init,
            init_shift: init.trailing_zeros(),
            max_size,
            _marker: std::marker::PhantomData,
        };
        // Segment 0 and the bucket-0 dummy (the global list head, split
        // order key 0 — the minimum) exist from birth, so `dummy_of`'s
        // recursion always terminates.
        map.segment(0);
        let head = map.try_slot(0).expect("segment 0 was just allocated");
        // Safety: the map is not shared yet; the Release store pairs with
        // the Acquire state loads of every later operation.
        unsafe { head.dummy().write(SNode::dummy(0)) };
        head.state.store(THREADED, Ordering::Release);
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
    fn segment(&self, k: usize) -> *mut Slot<K, T> {
        match self.try_segment(k, false) {
            Some(p) => p,
            // try_segment(_, false) only fails through the allocator,
            // which the infallible path escalates.
            None => panic!("lfc-structures: directory segment allocation failed"),
        }
    }

    /// [`segment`](Self::segment), degrading instead of panicking: `None`
    /// when the segment is unallocated and allocating it failed (genuine
    /// exhaustion, or — with `faultable` — the `map.segment` site). The
    /// caller falls back to an ancestor bucket's dummy; the directory heals
    /// on a later touch once memory returns.
    fn try_segment(&self, k: usize, faultable: bool) -> Option<*mut Slot<K, T>> {
        // Acquire (audited): pairs with the Release publication below so a
        // reader that sees the pointer sees the zeroed slots + len header.
        let p = self.hdr().dir[k].load(Ordering::Acquire);
        if p != 0 {
            return Some(p as *mut Slot<K, T>);
        }
        if faultable && fault::check(site::MAP_SEGMENT) {
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
                unsafe {
                    lfc_alloc::free_block(fresh as *mut u8, segment_layout::<K, T>(self.seg_len(k)))
                };
                Some(won as *mut Slot<K, T>)
            }
        }
    }

    /// Bucket `b`'s slot if its segment is (or can be made) resident;
    /// `None` degrades the caller to an ancestor bucket.
    #[inline]
    fn try_slot(&self, b: usize) -> Option<&Slot<K, T>> {
        let (k, off) = self.seg_coords(b);
        let seg = self.try_segment(k, true)?;
        // Safety: `seg` is a live segment of `seg_len(k)` slots (freed
        // only at Drop), `off < seg_len(k)` by construction, and slot 0 is
        // the length header. Every byte pattern is a valid `Slot`.
        Some(unsafe { &*seg.add(1 + off) })
    }

    /// The bucket-0 dummy: the global head of the split-ordered list,
    /// threaded at construction.
    fn head(&self) -> *mut SNode<K, T> {
        self.try_slot(0)
            .expect("segment 0 lives from construction to Drop")
            .dummy()
    }

    /// Bucket `b`'s dummy node, lazily threading it (and its ancestors)
    /// into the list on first touch — the per-operation amortized split.
    /// Its address is computed from `b`: no pointer to it is ever loaded.
    ///
    /// Degrades instead of waiting or failing: if the bucket's directory
    /// segment cannot be allocated (or the `map.segment` fault site fires),
    /// or its slot is being threaded by another claimer, the *parent*
    /// bucket's dummy is returned. That is always correct — every key of
    /// bucket `b` sorts inside its parent's chain — it merely lengthens the
    /// walk until the split materializes.
    #[inline]
    fn dummy_of(&self, b: usize, g: &Guard) -> *mut SNode<K, T> {
        let Some(slot) = self.try_slot(b) else {
            debug_assert!(b > 0, "segment 0 is allocated at construction");
            return self.dummy_of(parent_bucket(b), g);
        };
        // Acquire (audited): pairs with the claimer's Release `THREADED`
        // store (and `with_buckets`'), publishing the dummy's fields.
        if slot.state.load(Ordering::Acquire) == THREADED {
            return slot.dummy();
        }
        self.init_bucket(b, slot, g)
    }

    /// Thread bucket `b`'s dummy by claim, then thread (module docs):
    /// ensure the parent's dummy exists (recursing up the split tree), win
    /// the slot's claim, write the dummy in place and link it into the
    /// list. A thread that loses the claim to a claimer still threading
    /// uses the parent's dummy instead of waiting.
    #[cold]
    fn init_bucket(&self, b: usize, slot: &Slot<K, T>, g: &Guard) -> *mut SNode<K, T> {
        let parent = self.dummy_of(parent_bucket(b), g);
        match Self::claim(slot) {
            Ok(()) => {}
            // Threaded since our state load: use it.
            Err(THREADED) => return slot.dummy(),
            // Another claimer is threading it: never wait.
            Err(_) => return parent,
        }
        // From here to `THREADED` this thread owns the slot, and the guard
        // hands it on however the thread leaves: by the fault site below, by
        // a kill at a helping boundary inside the walk, or by any panic.
        let mut claim = Claim {
            state: &slot.state,
            linked: false,
        };
        if fault::check(site::MAP_DUMMY) {
            // Degrade: release the claim untouched (nothing was written)
            // and start from the parent's chain this time.
            return parent;
        }
        let d = slot.dummy();
        let dkey = so_dummy_key(b);
        // Safety: the claim makes this thread the slot's only writer, and
        // nothing reads the dummy before the link CAS publishes it.
        unsafe { d.write(SNode::dummy(b)) };
        loop {
            let pos = self.find_from(parent, dkey, None, g);
            // A second threader would link the dummy to itself, and every
            // later walk through it would spin forever: fail loudly instead.
            assert!(
                // Safety: cur is epoch-protected; so_key is immutable.
                pos.cur.is_null() || unsafe { (*pos.cur).so_key } != dkey,
                "bucket {b}'s dummy threaded twice: only its claimer threads it"
            );
            // Safety: unpublished until the CAS below.
            unsafe { &(*d).next }.store_word(pos.cur as usize);
            // Safety: prev allocation epoch-protected; a raw CAS suffices —
            // dummy threading is structural, not a linearization point (the
            // map's observable state is unchanged by it).
            if unsafe { &*pos.prev_word }.cas_word(pos.cur as usize, d as usize) {
                claim.linked = true;
                break;
            }
        }
        drop(claim);
        d
    }

    /// Win `slot`'s `UNCLAIMED → CLAIMED` CAS, or report the state that
    /// beat us. Acquire on failure: a `THREADED` result publishes the
    /// dummy's fields to the loser.
    #[inline]
    fn claim(slot: &Slot<K, T>) -> Result<(), usize> {
        #[cfg(lfc_model)]
        if crate::model_toggles::skip_claim() {
            return Ok(()); // seeded bug: every toucher thinks it won
        }
        slot.state
            .compare_exchange(UNCLAIMED, CLAIMED, Ordering::Acquire, Ordering::Acquire)
            .map(|_| ())
    }

    /// The reclamation block hosting chain node `n`: a data node is its
    /// own block, a dummy lives inside its directory segment — the block
    /// the domain knows, so that is what a capture's `hp` must name.
    #[inline]
    fn block_of(&self, n: usize) -> usize {
        // Safety: `n` is a chain node found under the caller's epoch;
        // so_key is immutable.
        let so = unsafe { (*(n as *const SNode<K, T>)).so_key };
        if !is_dummy_key(so) {
            return n;
        }
        let (k, _) = self.seg_coords(so.reverse_bits());
        // Acquire (audited): the dummy was reached through the list, after
        // its claimer loaded this (write-once) pointer.
        self.hdr().dir[k].load(Ordering::Acquire)
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

    /// Locate `(so, key)` starting from the bucket dummy `start`, via the
    /// shared traversal kernel ([`crate::traverse::find_pos`]). `start` is
    /// a dummy — reachable for the map's whole lifetime (dummies are
    /// never unlinked; they live in their segment until `Drop`) and never
    /// logically deleted — so the same anchor stays sound across restarts
    /// and the walk runs under a plain [`Guard`] ([`NoRepin`]: no
    /// ejection-repin point needed).
    fn find_from(
        &self,
        start: *mut SNode<K, T>,
        so: usize,
        key: Option<&K>,
        g: &Guard,
    ) -> Position<SNode<K, T>> {
        // Safety: start is epoch-protected (a live dummy).
        let anchor = |_: &Guard| (unsafe { &(*start).next } as *const DAtomic, start as usize);
        let at_or_after = |cur: *mut SNode<K, T>| {
            // Safety: cur epoch-protected; so_key/key are immutable.
            let cur = unsafe { &*cur };
            if cur.so_key != so {
                return cur.so_key > so;
            }
            // An equal split-order key implies the same kind (dummies and
            // data nodes differ in the LSB): a dummy target is found, and
            // equal data keys (a full-hash collision) fall back to `Ord`.
            match (key, cur.key.as_ref()) {
                (Some(k), Some(ck)) => ck >= k,
                _ => true,
            }
        };
        // Safety: anchor contract per above; nodes are SNodes by
        // construction.
        unsafe { traverse::find_pos(&mut NoRepin(g), anchor, at_or_after) }
    }

    /// The keyed kernel's `find` for data key `key` with hash `h`: the one
    /// ejection-restart point of the attempt, then the start dummy
    /// re-resolved (a concurrent doubling may have split the bucket since
    /// the last attempt), then the dummy-anchored walk. A predecessor word
    /// inside a dummy reports the dummy's segment as its block.
    fn find(&self, h: usize, key: &K, g: &mut OpGuard) -> Position<SNode<K, T>> {
        g.repin_if_ejected();
        let start = self.start_for(h, g);
        let mut pos = self.find_from(start, so_data_key(h), Some(key), g);
        pos.prev_alloc = self.block_of(pos.prev_alloc);
        pos
    }

    /// Whether `n` is the data node of `key` (hash `h`). Only data nodes
    /// match, so a dummy is never a linearization subject (module docs).
    #[inline]
    fn holds(n: &SNode<K, T>, h: usize, key: &K) -> bool {
        n.so_key == so_data_key(h) && n.key.as_ref() == Some(key)
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
            if fault::check(site::MAP_GROW) {
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
        let node = try_alloc(
            site::STRUCTURES_NODE,
            SNode::new(so_data_key(h), Some(key), Some(val)),
        );
        let node = match node {
            Ok(n) => n.as_ptr(),
            Err((n, e)) => return Err(((n.key.unwrap(), n.val.into_inner().unwrap()), e)),
        };
        Ok(self.insert_node(h, node, &mut NormalCas) == InsertOutcome::Inserted)
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
        // Safety: the position was found under `g`.
        unsafe { traverse::get(pos, |n| Self::holds(n, h, key)) }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Racy O(n) size (quiescent use only): walks the whole split-ordered
    /// list counting live data nodes (dummies hold no element).
    pub fn count(&self) -> usize {
        let g = pin_op();
        // Safety: the bucket-0 dummy exists from birth and heads the list.
        unsafe { traverse::count::<SNode<K, T>>(&(*self.head()).next, &g) }
    }

    /// Clone every entry, in split order (not key order): one walk of the
    /// whole list, skipping dummies. **Not a snapshot** — linearizable per
    /// entry, like [`LfSkipMap::range`](crate::LfSkipMap::range): each
    /// returned pair was present when the walk visited it, and an entry
    /// present for the whole walk is returned.
    pub fn to_vec(&self) -> Vec<(K, T)> {
        let g = pin_op();
        let mut out = Vec::new();
        // Safety: as in `count`.
        unsafe {
            traverse::for_each_live::<SNode<K, T>>(&(*self.head()).next, &g, |n, v| {
                out.push((n.key.clone().expect("data node holds a key"), v.clone()))
            })
        };
        out
    }

    /// The split-order keys of the first `limit` nodes of the list,
    /// dummies and marked nodes included. Tests only: lets unit tests and
    /// model-checker scenarios check the list's shape (keys strictly
    /// increase; each dummy is linked once).
    #[cfg(any(test, lfc_model))]
    #[doc(hidden)]
    pub fn split_order_keys(&self, limit: usize) -> Vec<usize> {
        let g = pin_op();
        let mut out = Vec::new();
        let mut cur = self.head();
        while !cur.is_null() && out.len() < limit {
            // Safety: every node on the walk is epoch-protected.
            let n = unsafe { &*cur };
            out.push(n.so_key);
            cur = traverse::without_mark(n.next.read_acquire(&g)) as *mut SNode<K, T>;
        }
        out
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
    /// The kernel insert of an already-allocated data node: the shared
    /// tail of the infallible ([`KeyedMoveTarget::insert_key_with`]) and
    /// fallible ([`LfHashMap::try_insert`]) insert paths.
    fn insert_node<C: InsertCtx>(
        &self,
        h: usize,
        node: *mut SNode<K, T>,
        ctx: &mut C,
    ) -> InsertOutcome {
        let mut g = pin_op();
        // Safety: node is ours until published; the key is immutable.
        let key = unsafe { (*node).key.as_ref() }.expect("data node holds a key");
        // Safety: `find` anchors at live bucket dummies. The dummy itself
        // is never the *subject* of the link CAS — only the host of the
        // predecessor word (module-docs invariant).
        unsafe {
            traverse::insert(
                &mut g,
                node,
                ctx,
                |g| self.find(h, key, g),
                |n| Self::holds(n, h, key),
                |_, _| self.note_inserted(),
            )
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
        let node = alloc(SNode::new(so_data_key(h), Some(key), Some(elem))).as_ptr();
        self.insert_node(h, node, ctx)
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
        // Safety: as in `insert_node`; only a data node matches, so the
        // mark CAS never lands on a dummy.
        unsafe {
            traverse::remove(
                &mut g,
                ctx,
                |g| self.find(h, key, g),
                |n| Self::holds(n, h, key),
                // Relaxed (audited): growth heuristic only.
                |_, _| {
                    self.hdr().items.fetch_sub(1, Ordering::Relaxed);
                },
            )
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
        // Every data node is reachable from the bucket-0 dummy, the global
        // head of the split-ordered list; the walk retires data nodes only
        // (`SNode::retire_unlinked` passes over dummies).
        // Safety: exclusive teardown (&mut self).
        unsafe { traverse::retire_chain::<SNode<K, T>>(self.head() as usize, &g) };
        // Segments — and with them every dummy — and the map header flow
        // through the same domain: helpers of past composed
        // operations may still write into a dummy's `next` word, and one
        // teardown discipline covers every block the map ever published.
        for k in 0..DIR_SLOTS {
            let seg = self.hdr().dir[k].load(Ordering::Acquire);
            if seg != 0 {
                // Safety: unique teardown; the length header word rebuilds
                // the layout inside the reclaimer. Segments carry no drop
                // glue, so the divert path is the reclaimer itself. Birth
                // unknown: a segment lives from first touch to Drop anyway.
                unsafe {
                    lfc_hazard::retire_with(
                        seg as *mut u8,
                        reclaim_segment::<K, T>,
                        lfc_hazard::RetireInfo {
                            bytes: segment_layout::<K, T>(self.seg_len(k)).size(),
                            birth: lfc_hazard::BIRTH_UNKNOWN,
                            divert: Some(reclaim_segment::<K, T>),
                        },
                    )
                };
            }
        }
        // Safety: unique teardown path.
        unsafe { retire(self.header.as_ptr()) };
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
    fn a_stalled_claimer_delays_nobody() {
        // A claimer stalled between its claim and its link leaves the slot
        // CLAIMED: every other toucher must start from the parent's dummy
        // instead of waiting, and the slot threads on the next claim.
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(1);
        assert_eq!(m.force_grow(), 2);
        let slot = m.try_slot(1).expect("bucket 1's segment allocates");
        slot.state.store(CLAIMED, Ordering::Relaxed);
        for k in 0..64u64 {
            assert!(m.insert(k, k + 1));
        }
        for k in 0..64u64 {
            assert_eq!(m.get(&k), Some(k + 1));
        }
        let dkey = so_dummy_key(1);
        assert!(
            !m.split_order_keys(usize::MAX).contains(&dkey),
            "nobody threaded a claimed slot"
        );
        // The stalled claimer gives up its claim: the next touch threads
        // the slot, even though its split children threaded meanwhile.
        slot.state.store(UNCLAIMED, Ordering::Relaxed);
        assert_eq!(m.dummy_of(1, &pin()), slot.dummy());
        let keys = m.split_order_keys(usize::MAX);
        assert_eq!(slot.state.load(Ordering::Relaxed), THREADED);
        assert_eq!(
            keys.iter().filter(|&&so| so == dkey).count(),
            1,
            "linked once"
        );
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "split order holds");
        assert_eq!(m.count(), 64);
    }

    #[test]
    fn a_claimer_killed_inside_its_walk_leaves_the_slot_claimable() {
        // Two 2-bucket maps with bucket 1 unthreaded, and a key `k` of
        // bucket 0 in `src`: a move of `k` commits the mark on `k`'s `next`
        // in `src` and the link into `dst`'s head, and in either map that
        // word lies on the walk from the head to bucket 1's position.
        let src: LfHashMap<u64, u64> = LfHashMap::with_buckets(1);
        let dst: LfHashMap<u64, u64> = LfHashMap::with_buckets(1);
        let maps = [&src, &dst];
        for m in maps {
            assert_eq!(m.force_grow(), 2);
        }
        let k = (0..).find(|k| src.bucket_index(k) == 0).unwrap();
        let k1 = (0..).find(|k| src.bucket_index(k) == 1).unwrap();
        assert!(src.insert(k, 1));
        // The mover dies with its descriptor installed in the first word.
        std::thread::scope(|s| {
            s.spawn(|| {
                fault::with_registered_peer(|| {
                    fault::arm_site(site::DCAS_PUBLISHED, fault::Schedule::Nth(1));
                    let moved = fault::abandonment_scope(|| lfc_core::move_keyed(&src, &k, &dst));
                    assert!(moved.is_none(), "the mover dies published");
                })
            });
        });
        // A reader of bucket 1 claims the slot, meets the descriptor in its
        // walk and dies at the helping boundary.
        fault::arm_site(site::DCAS_HELP, fault::Schedule::Nth(1));
        let killed = maps.map(|m| {
            std::thread::scope(|s| {
                s.spawn(|| fault::abandonment_scope(|| m.get(&k1)).is_none())
                    .join()
                    .unwrap()
            })
        });
        fault::disarm();
        assert_ne!(killed[0], killed[1], "exactly one claimer died in its walk");
        for m in maps {
            let slot = m.try_slot(1).unwrap();
            assert_ne!(
                slot.state.load(Ordering::Acquire),
                CLAIMED,
                "claim released"
            );
            // The next touch helps the dead mover and threads the slot.
            assert_eq!(m.get(&k1), None);
            assert_eq!(slot.state.load(Ordering::Acquire), THREADED);
            let keys = m.split_order_keys(usize::MAX);
            let dkey = so_dummy_key(1);
            assert_eq!(keys.iter().filter(|&&so| so == dkey).count(), 1);
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "split order holds");
        }
        assert_eq!(src.contains(&k) as u8 + dst.contains(&k) as u8, 1);
        lfc_dcas::adopt_dead_threads(&pin());
    }

    #[test]
    fn to_vec_returns_exactly_the_live_entries() {
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(4);
        for k in 0..1_000u64 {
            assert!(m.insert(k, k * 2));
        }
        for k in (0..1_000u64).step_by(3) {
            assert_eq!(m.remove(&k), Some(k * 2));
        }
        let mut got = m.to_vec();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = (0..1_000u64)
            .filter(|k| k % 3 != 0)
            .map(|k| (k, k * 2))
            .collect();
        assert_eq!(got, want, "no dummy, no removed entry, every live one");
    }

    #[test]
    fn to_vec_returns_entries_live_through_a_concurrent_walk() {
        // Keys 0..256 stay live throughout while a churner inserts and
        // removes other keys and splits buckets under the walks: every walk
        // must return each stable key once, and only well-formed pairs.
        use std::sync::atomic::AtomicBool;
        let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(2);
        for k in 0..256u64 {
            assert!(m.insert(k, k));
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|sc| {
            let (m, stop) = (&m, &stop);
            sc.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = 1_000 + i % 512;
                    if !m.insert(k, k) {
                        m.remove(&k);
                    }
                    if i.is_multiple_of(64) {
                        m.force_grow();
                        std::thread::yield_now();
                    }
                    i += 1;
                }
            });
            for _ in 0..50 {
                let walk = m.to_vec();
                let mut stable = 0;
                for &(k, v) in &walk {
                    assert_eq!(k, v, "torn pair");
                    stable += usize::from(k < 256);
                }
                let distinct: std::collections::HashSet<u64> = walk.iter().map(|e| e.0).collect();
                assert_eq!(distinct.len(), walk.len(), "an entry returned twice");
                assert_eq!(stable, 256, "a stable entry was missed");
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
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
