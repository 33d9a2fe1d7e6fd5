//! The location directory: one byte per account id recording where the
//! ledger last saw that account, so a lookup probes that one place first
//! instead of walking every shard's two tiers.
//!
//! The byte is a **hint** and nothing more. Its meaning (a shard and tier
//! code, 0 = unknown) belongs to the ledger; this module only stores it.
//! Readers take nothing from it without a structural probe of the place it
//! names, so a stale or never-written byte costs one extra probe and never
//! an answer.
//!
//! # Layout
//!
//! Ids are dense and never reused, so the directory is an array indexed by
//! id, grown in doubling segments: segment 0 covers ids `[0, 2^S)` and
//! segment `k ≥ 1` covers `[2^(S+k-1), 2^(S+k))`, where `2^S` is
//! [`SEG0_LEN`]. [`SEGMENTS`] pointers cover every `u64` id, and memory
//! stays under two bytes per issued id whatever the population. A segment
//! is allocated zeroed on its first write and published by one CAS (the
//! way `LfHashMap` publishes its bucket segments); the loser of a publish
//! race frees its block and uses the winner's. A segment whose allocation fails (the allocator returns null,
//! or its size does not fit a `Layout`) stays unpublished: its ids simply
//! have no hints until a later write allocates it. That is never an error.
//! Segments live until the directory is dropped.

use std::alloc::Layout;
use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};

/// `log2` of segment 0's length.
const SEG0_SHIFT: u32 = 6;
/// Ids in segment 0: one cache line of hints.
const SEG0_LEN: u64 = 1 << SEG0_SHIFT;
/// Segments needed to cover every `u64` id.
const SEGMENTS: usize = (u64::BITS - SEG0_SHIFT) as usize + 1;

/// `(segment, offset)` of `id` in the doubling layout (module docs).
pub(crate) fn coords(id: u64) -> (usize, u64) {
    if id < SEG0_LEN {
        (0, id)
    } else {
        let top = id.ilog2();
        ((top - SEG0_SHIFT + 1) as usize, id - (1 << top))
    }
}

/// Ids covered by segment `k`.
pub(crate) fn seg_len(k: usize) -> u64 {
    if k == 0 {
        SEG0_LEN
    } else {
        SEG0_LEN << (k - 1)
    }
}

/// Segment `k`'s layout; `None` when it is too large for one.
fn seg_layout(k: usize) -> Option<Layout> {
    Layout::array::<AtomicU8>(usize::try_from(seg_len(k)).ok()?).ok()
}

/// The hint bytes, one per id, in lazily allocated doubling segments.
pub(crate) struct Directory {
    /// Segment `k`'s bytes, or null while unallocated. Written once per
    /// segment with a CAS.
    segs: [AtomicPtr<AtomicU8>; SEGMENTS],
}

impl Directory {
    pub(crate) fn new() -> Self {
        Directory {
            segs: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// `id`'s hint byte if its segment is allocated.
    fn slot(&self, id: u64) -> Option<&AtomicU8> {
        let (k, off) = coords(id);
        // Acquire pairs with the publishing CAS's Release: a reader that
        // sees the pointer sees the zeroed bytes.
        let seg = self.segs[k].load(Ordering::Acquire);
        // SAFETY: a non-null `segs[k]` points at a live block of
        // `seg_len(k)` bytes (freed only by `Drop`, which has `&mut self`),
        // and `off < seg_len(k)` by `coords`.
        (!seg.is_null()).then(|| unsafe { &*seg.add(off as usize) })
    }

    /// `id`'s hint byte, allocating its segment on first touch. `None` when
    /// that allocation fails.
    fn slot_or_alloc(&self, id: u64) -> Option<&AtomicU8> {
        if let Some(s) = self.slot(id) {
            return Some(s);
        }
        let (k, _) = coords(id);
        let layout = seg_layout(k)?;
        // SAFETY: `layout` has non-zero size (`seg_len` ≥ `SEG0_LEN`), and
        // all-zero bytes are valid `AtomicU8`s.
        let fresh = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<AtomicU8>();
        if fresh.is_null() {
            return None;
        }
        // Release publishes the zeroed block; Acquire on failure pairs with
        // the winner's Release for the same reason.
        let published = self.segs[k].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if published.is_err() {
            // SAFETY: `fresh` came from `alloc_zeroed(layout)` and lost the
            // publish race, so no other thread ever saw it.
            unsafe { std::alloc::dealloc(fresh.cast(), layout) };
        }
        self.slot(id)
    }

    /// The hint recorded for `id`; 0 when none was.
    pub(crate) fn get(&self, id: u64) -> u8 {
        // Relaxed: the byte publishes nothing; readers probe what it names.
        self.slot(id).map_or(0, |s| s.load(Ordering::Relaxed))
    }

    /// Record `hint` for `id`. A failed segment allocation drops it.
    pub(crate) fn set(&self, id: u64, hint: u8) {
        if let Some(s) = self.slot_or_alloc(id) {
            s.store(hint, Ordering::Relaxed);
        }
    }
}

impl Drop for Directory {
    fn drop(&mut self) {
        for (k, seg) in self.segs.iter_mut().enumerate() {
            let p = *seg.get_mut();
            // A published segment's layout always exists: it was built once.
            if let (false, Some(layout)) = (p.is_null(), seg_layout(k)) {
                // SAFETY: `p` was published from `alloc_zeroed(layout)` with
                // this same layout, and `&mut self` excludes every reader.
                unsafe { std::alloc::dealloc(p.cast(), layout) };
            }
        }
    }
}
