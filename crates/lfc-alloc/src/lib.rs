//! The paper's lock-free memory manager (§6):
//!
//! > "All implementations used the same lock-free memory manager. Freed
//! > nodes are placed on a local list with a capacity of 200 nodes. When the
//! > list is full it is placed on a global lock-free stack. A process that
//! > requires more nodes accesses the global stack to get a new list of free
//! > nodes."
//!
//! Blocks are grouped into power-of-two size classes. Each thread keeps a
//! *magazine* (the paper's local list, capacity [`LOCAL_CAP`]) per class;
//! full magazines are pushed as a unit onto a global Treiber stack whose
//! head is tag-stamped to defeat ABA, and threads that run dry pop a whole
//! magazine back. Only when both levels are empty does the manager fall
//! through to the system allocator.
//!
//! This crate is deliberately independent of the hazard-pointer domain:
//! callers (the structures and the DCAS layer) must only hand blocks back
//! once they are unreachable — which they guarantee by routing frees through
//! `lfc-hazard::retire`.
//!
//! The counters behind [`stats`] are [`ShardedCounter`]s: every allocation
//! and free bumps one, and a process-global line would be shared by every
//! thread that allocates, however disjoint its data.

#![warn(missing_docs)]

use lfc_runtime::{on_thread_exit, thread_is_exiting, CachePadded, ShardedCounter, MAX_THREADS};
use std::alloc::Layout;
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Capacity of a thread-local free list, from the paper.
pub const LOCAL_CAP: usize = 200;

/// Size classes (bytes). Each class allocates `Layout::from_size_align(c, c)`
/// so any allocation with `align <= size <= c` fits; classes 64, 128 and
/// 256 serve the 64-aligned RDCSS, DCAS and CASN descriptors.
pub const CLASS_SIZES: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];

const NUM_CLASSES: usize = CLASS_SIZES.len();

const ADDR_MASK: u64 = (1 << 48) - 1;

/// Statistics snapshot, see [`stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Blocks obtained from the system allocator.
    pub fresh: usize,
    /// Blocks served from a magazine or the global stack.
    pub recycled: usize,
    /// Blocks returned by callers.
    pub freed: usize,
    /// Oversized allocations that bypassed the pool entirely.
    pub oversize: usize,
}

static FRESH: ShardedCounter = ShardedCounter::new();
static RECYCLED: ShardedCounter = ShardedCounter::new();
static FREED: ShardedCounter = ShardedCounter::new();
static OVERSIZE: ShardedCounter = ShardedCounter::new();

/// Blocks each thread id keeps parked in a cache layered above this
/// allocator (the `lfc-dcas` descriptor pools), see [`set_parked`]. One
/// padded line per id, written only by the thread holding the id.
static PARKED: [CachePadded<AtomicUsize>; MAX_THREADS] =
    [const { CachePadded::new(AtomicUsize::new(0)) }; MAX_THREADS];

/// Publish that thread `tid` now holds `blocks` blocks parked in a cache
/// of its own above this allocator. Parked blocks count as *cached*, like
/// magazine blocks, so [`outstanding`] keeps meaning "held by callers".
///
/// Only the thread holding `tid` may call this, and it must publish 0
/// before it releases the id. That makes it one owner-only Relaxed store,
/// with no RMW on a cache's hit path.
#[inline]
pub fn set_parked(tid: u16, blocks: usize) {
    PARKED[tid as usize].store(blocks, Ordering::Relaxed);
}

/// A full (or partial, on thread exit) magazine pushed to the global stack.
struct Segment {
    items: Vec<*mut u8>,
    next: *mut Segment,
}

/// Treiber stack of segments with a 16-bit tag in the head word's high bits;
/// the tag increments on every push so a popped-and-reused segment address
/// cannot satisfy a stale CAS (the classic counter fix the paper's §7
/// discussion describes for its stack).
struct TaggedStack {
    head: AtomicU64,
}

impl TaggedStack {
    const fn new() -> Self {
        TaggedStack {
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, seg: *mut Segment) {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // Safety: `seg` is exclusively ours until the CAS succeeds.
            unsafe { (*seg).next = (head & ADDR_MASK) as *mut Segment };
            let tag = (head >> 48).wrapping_add(1) & 0xFFFF;
            let new = (seg as u64 & ADDR_MASK) | (tag << 48);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    fn pop(&self) -> Option<Box<Segment>> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let ptr = (head & ADDR_MASK) as *mut Segment;
            if ptr.is_null() {
                return None;
            }
            // Safety: segments are never freed to the OS while on the stack;
            // a stale `ptr` (already popped by someone else) may be read as a
            // reused segment, but the tag makes the CAS fail in that case and
            // the value of `next` is discarded.
            let next = unsafe { (*ptr).next };
            let tag = (head >> 48).wrapping_add(1) & 0xFFFF;
            let new = (next as u64 & ADDR_MASK) | (tag << 48);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                // Safety: we won the pop; the segment is exclusively ours.
                Ok(_) => return Some(unsafe { Box::from_raw(ptr) }),
                Err(h) => head = h,
            }
        }
    }
}

// One padded stack head per size class: pushes to one class must not
// invalidate the cached head of a neighbouring class (the heads are 8
// bytes; unpadded, all seven shared one line).
static GLOBAL: [CachePadded<TaggedStack>; NUM_CLASSES] =
    [const { CachePadded::new(TaggedStack::new()) }; NUM_CLASSES];

struct Magazines {
    local: [Vec<*mut u8>; NUM_CLASSES],
}

thread_local! {
    static MAGS: Cell<*mut Magazines> = const { Cell::new(std::ptr::null_mut()) };
}

fn with_mags<R>(f: impl FnOnce(&mut Magazines) -> R) -> R {
    MAGS.with(|cell| {
        let mut p = cell.get();
        if p.is_null() {
            p = Box::into_raw(Box::new(Magazines {
                local: std::array::from_fn(|_| Vec::new()),
            }));
            cell.set(p);
            on_thread_exit(Box::new(move || {
                MAGS.with(|c| c.set(std::ptr::null_mut()));
                // Safety: created above, hook runs once per thread.
                let mags = unsafe { Box::from_raw(p) };
                for (class, items) in mags.local.into_iter().enumerate() {
                    if !items.is_empty() {
                        GLOBAL[class].push(Box::into_raw(Box::new(Segment {
                            items,
                            next: std::ptr::null_mut(),
                        })));
                    }
                }
            }));
        }
        // Safety: thread-exclusive, not re-entered.
        f(unsafe { &mut *p })
    })
}

/// Smallest class covering `layout`, or `None` if it is oversized.
fn class_for(layout: Layout) -> Option<usize> {
    let need = layout.size().max(layout.align()).max(1);
    CLASS_SIZES.iter().position(|&c| c >= need)
}

fn class_layout(class: usize) -> Layout {
    let c = CLASS_SIZES[class];
    Layout::from_size_align(c, c).expect("class sizes are power-of-two")
}

/// Allocation failure: the system allocator returned null, or the
/// `alloc.block` fault site fired (`lfc_runtime::fault`). Surfaced through
/// every `try_*` operation in the stack instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError;

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("lfc-alloc: block allocation failed")
    }
}

impl std::error::Error for AllocError {}

/// Allocate a block that satisfies `layout`.
///
/// Never returns null; panics (unwinds — it does **not** abort, so a
/// caller under `catch_unwind` keeps the global state helpable) on
/// allocation failure. Fallible callers use [`try_alloc_block`].
pub fn alloc_block(layout: Layout) -> NonNull<u8> {
    try_alloc_block(layout).unwrap_or_else(|_| panic!("lfc-alloc: allocation of {layout:?} failed"))
}

/// Fallible [`alloc_block`]: returns `Err(AllocError)` when the system
/// allocator fails or the `alloc.block` fault-injection site fires.
pub fn try_alloc_block(layout: Layout) -> Result<NonNull<u8>, AllocError> {
    if lfc_runtime::fault::check("alloc.block") {
        return Err(AllocError);
    }
    if thread_is_exiting() {
        // Thread-exit fallback: no per-thread cache may be (re)created now.
        let Some(class) = class_for(layout) else {
            OVERSIZE.add(1);
            // Safety: non-zero size.
            let p = unsafe { std::alloc::alloc(layout) };
            return NonNull::new(p).ok_or(AllocError);
        };
        FRESH.add(1);
        let l = class_layout(class);
        // Safety: non-zero size.
        let p = unsafe { std::alloc::alloc(l) };
        return NonNull::new(p).ok_or(AllocError);
    }
    let Some(class) = class_for(layout) else {
        OVERSIZE.add(1);
        // Safety: oversized layouts always have non-zero size here.
        let p = unsafe { std::alloc::alloc(layout) };
        return NonNull::new(p).ok_or(AllocError);
    };
    let recycled = with_mags(|m| {
        if let Some(p) = m.local[class].pop() {
            return Some(p);
        }
        if let Some(seg) = GLOBAL[class].pop() {
            m.local[class] = seg.items;
            return m.local[class].pop();
        }
        None
    });
    match recycled {
        Some(p) => {
            RECYCLED.add(1);
            // Safety: recycled blocks came from `alloc` with the class layout.
            Ok(NonNull::new(p).expect("pool never stores null"))
        }
        None => {
            FRESH.add(1);
            let l = class_layout(class);
            // Safety: class layouts have non-zero size.
            let p = unsafe { std::alloc::alloc(l) };
            NonNull::new(p).ok_or(AllocError)
        }
    }
}

/// Return a block previously obtained from [`alloc_block`] with an
/// equivalent `layout`.
///
/// # Safety
///
/// `ptr` must come from `alloc_block(layout)` (same size-class) and must not
/// be used afterwards.
pub unsafe fn free_block(ptr: *mut u8, layout: Layout) {
    FREED.add(1);
    #[cfg(lfc_model)]
    {
        // Inside a model execution the block is *quarantined* instead of
        // freed: kept mapped (and out of the recycling pool) until the
        // execution ends, so a stale access is defined behaviour the
        // model's shadow memory detects and reports as a use-after-free
        // with a replayable schedule, rather than real UB.
        let l = class_for(layout).map(class_layout).unwrap_or(layout);
        // Safety: every pooled block was obtained from `std::alloc` with
        // its class layout (oversized ones with `layout` itself), which is
        // exactly what we hand the quarantine for the final release.
        if unsafe { lfc_model::rt::quarantine_block(ptr, l.size(), l.align()) } {
            return;
        }
    }
    if thread_is_exiting() {
        // Thread-exit fallback: every pooled block originally came from the
        // system allocator with its class layout, so direct deallocation is
        // always valid.
        let l = class_for(layout).map(class_layout).unwrap_or(layout);
        // Safety: forwarded contract.
        unsafe { std::alloc::dealloc(ptr, l) };
        return;
    }
    let Some(class) = class_for(layout) else {
        // Safety: forwarded contract.
        unsafe { std::alloc::dealloc(ptr, layout) };
        return;
    };
    with_mags(|m| {
        let list = &mut m.local[class];
        list.push(ptr);
        if list.len() >= LOCAL_CAP {
            let items = std::mem::take(list);
            GLOBAL[class].push(Box::into_raw(Box::new(Segment {
                items,
                next: std::ptr::null_mut(),
            })));
        }
    });
}

/// Current counters.
pub fn stats() -> AllocStats {
    AllocStats {
        fresh: FRESH.get(),
        recycled: RECYCLED.get(),
        freed: FREED.get(),
        oversize: OVERSIZE.get(),
    }
}

/// Blocks parked in per-thread caches above this allocator, summed over
/// every thread id's last [`set_parked`].
pub fn parked() -> usize {
    PARKED.iter().map(|p| p.load(Ordering::Relaxed)).sum()
}

/// Blocks currently held by callers (allocated and not yet freed). Cached
/// blocks — in magazines, on the global stack, or [`parked`] in a
/// per-thread cache above this allocator — do not count.
pub fn outstanding() -> usize {
    let s = stats();
    (s.fresh + s.recycled + s.oversize)
        .saturating_sub(s.freed)
        .saturating_sub(parked())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    #[test]
    fn class_selection() {
        assert_eq!(class_for(l(1, 1)), Some(0)); // 16
        assert_eq!(class_for(l(16, 8)), Some(0));
        assert_eq!(class_for(l(17, 8)), Some(1)); // 32
        assert_eq!(class_for(l(24, 8)), Some(1));
        assert_eq!(class_for(l(80, 512)), Some(5)); // align drives it
        assert_eq!(class_for(l(128, 64)), Some(3)); // DCAS descriptor
        assert_eq!(class_for(l(256, 64)), Some(4)); // CASN descriptor
        assert_eq!(class_for(l(64, 64)), Some(2)); // RDCSS descriptor
        assert_eq!(class_for(l(1024, 8)), Some(6));
        assert_eq!(class_for(l(1025, 8)), None);
    }

    #[test]
    fn alloc_is_aligned() {
        for (size, align) in [(8usize, 8usize), (24, 8), (72, 512), (100, 64)] {
            let layout = l(size, align);
            let p = alloc_block(layout);
            assert_eq!(p.as_ptr() as usize % align, 0, "align {align}");
            unsafe { free_block(p.as_ptr(), layout) };
        }
    }

    #[test]
    fn recycling_reuses_blocks() {
        let layout = l(64, 64);
        let p1 = alloc_block(layout);
        let addr = p1.as_ptr() as usize;
        unsafe { free_block(p1.as_ptr(), layout) };
        // LIFO magazine: the very next alloc of the class reuses it.
        let p2 = alloc_block(layout);
        assert_eq!(p2.as_ptr() as usize, addr);
        unsafe { free_block(p2.as_ptr(), layout) };
    }

    #[test]
    fn writes_to_distinct_blocks_do_not_alias() {
        let layout = l(32, 8);
        let blocks: Vec<NonNull<u8>> = (0..256).map(|_| alloc_block(layout)).collect();
        for (i, b) in blocks.iter().enumerate() {
            unsafe { *(b.as_ptr() as *mut u64) = i as u64 };
        }
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(unsafe { *(b.as_ptr() as *mut u64) }, i as u64);
        }
        for b in blocks {
            unsafe { free_block(b.as_ptr(), layout) };
        }
    }

    #[test]
    fn magazine_overflow_moves_to_global_and_back() {
        let layout = l(128, 8);
        // Allocate and free more than LOCAL_CAP blocks so at least one full
        // magazine is pushed to the global stack.
        let blocks: Vec<_> = (0..LOCAL_CAP * 2 + 10)
            .map(|_| alloc_block(layout))
            .collect();
        for b in &blocks {
            unsafe { free_block(b.as_ptr(), layout) };
        }
        // Pull them all back; should be served from the pool, not malloc.
        let before = stats();
        let again: Vec<_> = (0..LOCAL_CAP * 2).map(|_| alloc_block(layout)).collect();
        let after = stats();
        assert!(
            after.recycled - before.recycled >= LOCAL_CAP,
            "most blocks should be recycled (recycled delta {})",
            after.recycled - before.recycled
        );
        for b in again {
            unsafe { free_block(b.as_ptr(), layout) };
        }
    }

    #[test]
    fn oversize_falls_through() {
        let layout = l(4096, 8);
        let before = stats().oversize;
        let p = alloc_block(layout);
        unsafe { *(p.as_ptr() as *mut u64) = 42 };
        unsafe { free_block(p.as_ptr(), layout) };
        assert!(stats().oversize > before);
    }

    #[test]
    fn cross_thread_recycling_via_global_stack() {
        let layout = l(256, 8);
        // Worker fills the global stack with one magazine worth of blocks.
        std::thread::spawn(move || {
            let blocks: Vec<_> = (0..LOCAL_CAP).map(|_| alloc_block(layout)).collect();
            for b in blocks {
                unsafe { free_block(b.as_ptr(), layout) };
            }
            // Thread exit flushes the partial magazine to the global stack.
        })
        .join()
        .unwrap();
        let before = stats();
        let mine: Vec<_> = (0..LOCAL_CAP / 2).map(|_| alloc_block(layout)).collect();
        let after = stats();
        assert!(
            after.recycled > before.recycled,
            "this thread should recycle blocks freed by the worker"
        );
        for b in mine {
            unsafe { free_block(b.as_ptr(), layout) };
        }
    }

    #[test]
    fn concurrent_alloc_free_stress() {
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(|| {
                let layout = l(48, 8);
                let mut held = Vec::new();
                for i in 0..20_000u64 {
                    let p = alloc_block(layout);
                    unsafe { *(p.as_ptr() as *mut u64) = i };
                    held.push(p);
                    if held.len() > 32 {
                        let victim = held.swap_remove((i % 33) as usize);
                        unsafe { free_block(victim.as_ptr(), layout) };
                    }
                }
                for p in held {
                    unsafe { free_block(p.as_ptr(), layout) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn tagged_stack_push_pop() {
        let s = TaggedStack::new();
        assert!(s.pop().is_none());
        for i in 0..10 {
            s.push(Box::into_raw(Box::new(Segment {
                items: vec![i as *mut u8],
                next: std::ptr::null_mut(),
            })));
        }
        let mut seen = Vec::new();
        while let Some(seg) = s.pop() {
            seen.push(seg.items[0] as usize);
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(seen, (0..10).rev().collect::<Vec<_>>(), "LIFO order");
    }
}
