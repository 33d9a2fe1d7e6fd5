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

use lfc_runtime::{on_thread_exit, thread_is_exiting, CachePadded, ShardedCounter};
use std::alloc::Layout;
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// Capacity of a thread-local free list, from the paper.
pub const LOCAL_CAP: usize = 200;

/// Size classes (bytes). Each class allocates `Layout::from_size_align(c, c)`
/// so any allocation with `align <= size <= c` fits.
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

/// Alignment every oversized block is requested from the system with.
/// std's `System` allocator serves `alloc_zeroed` from `calloc` only up to
/// its minimum alignment; above it, it calls `posix_memalign` and then
/// writes zeros over every byte, touching every page. So a block aligned
/// more strictly is carved out of a `SYS_ALIGN` request `align` bytes
/// larger, and a large zeroed block keeps `calloc`'s lazily mapped zero
/// pages: bytes nobody writes cost no resident memory.
const SYS_ALIGN: usize = std::mem::align_of::<usize>();

/// The layout an oversized `layout` is requested from the system with;
/// `None` if the padded size overflows.
fn sys_layout(layout: Layout) -> Option<Layout> {
    if layout.align() <= SYS_ALIGN {
        return Some(layout);
    }
    Layout::from_size_align(layout.size().checked_add(layout.align())?, SYS_ALIGN).ok()
}

/// Allocate an oversized block. An over-aligned one starts at the first
/// `layout.align()` boundary strictly above the system block's base, which
/// leaves at least one word below it to record that base.
fn sys_alloc(layout: Layout, zeroed: bool) -> Result<NonNull<u8>, AllocError> {
    OVERSIZE.add(1);
    let sys = sys_layout(layout).ok_or(AllocError)?;
    // Safety: oversized layouts always have non-zero size.
    let base = unsafe {
        if zeroed {
            std::alloc::alloc_zeroed(sys)
        } else {
            std::alloc::alloc(sys)
        }
    };
    if base.is_null() || sys == layout {
        return NonNull::new(base).ok_or(AllocError);
    }
    // Safety: the block starts `1..=align` bytes above base, so its
    // `size` bytes end inside the `size + align` of the system block, and
    // as both are SYS_ALIGN-aligned the gap holds at least the base word.
    unsafe {
        let p = base.add(layout.align() - (base as usize & (layout.align() - 1)));
        p.cast::<*mut u8>().sub(1).write(base);
        Ok(NonNull::new_unchecked(p))
    }
}

/// The system block and layout behind oversized block `ptr`.
///
/// # Safety
///
/// `ptr` must come from [`sys_alloc`] with `layout`.
unsafe fn sys_origin(ptr: *mut u8, layout: Layout) -> (*mut u8, Layout) {
    let sys = sys_layout(layout).expect("the block was allocated with this layout");
    if sys == layout {
        return (ptr, layout);
    }
    // Safety: `sys_alloc` recorded the base in the word below the block.
    (unsafe { ptr.cast::<*mut u8>().sub(1).read() }, sys)
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
            return sys_alloc(layout, false);
        };
        FRESH.add(1);
        let l = class_layout(class);
        // Safety: non-zero size.
        let p = unsafe { std::alloc::alloc(l) };
        return NonNull::new(p).ok_or(AllocError);
    }
    let Some(class) = class_for(layout) else {
        return sys_alloc(layout, false);
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

/// [`try_alloc_block`] returning zero-filled memory. An oversized block
/// comes zeroed from the system's `calloc` whatever its alignment (see
/// [`SYS_ALIGN`]), so a large one maps its pages lazily: bytes nobody
/// writes cost no resident memory. A pooled block is zeroed by hand.
pub fn try_alloc_zeroed_block(layout: Layout) -> Result<NonNull<u8>, AllocError> {
    if class_for(layout).is_some() {
        let p = try_alloc_block(layout)?;
        // Safety: fresh block of at least `layout.size()` bytes.
        unsafe { p.as_ptr().write_bytes(0, layout.size()) };
        return Ok(p);
    }
    if lfc_runtime::fault::check("alloc.block") {
        return Err(AllocError);
    }
    sys_alloc(layout, true)
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
    let class = class_for(layout);
    // The system block behind `ptr`: a pooled block came from `std::alloc`
    // with its class layout, an oversized one from `sys_alloc`.
    let origin = || match class {
        Some(c) => (ptr, class_layout(c)),
        // Safety: forwarded contract.
        None => unsafe { sys_origin(ptr, layout) },
    };
    #[cfg(lfc_model)]
    {
        // Inside a model execution the block is *quarantined* instead of
        // freed: kept mapped (and out of the recycling pool) until the
        // execution ends, so a stale access is defined behaviour the
        // model's shadow memory detects and reports as a use-after-free
        // with a replayable schedule, rather than real UB.
        let (base, l) = origin();
        // Safety: exactly the system block and layout the quarantine
        // hands back to `std::alloc` for the final release.
        if unsafe { lfc_model::rt::quarantine_block(base, l.size(), l.align()) } {
            return;
        }
    }
    // Oversized blocks, and every block on the thread-exit fallback, go
    // straight back to the system allocator.
    let Some(class) = class.filter(|_| !thread_is_exiting()) else {
        let (base, l) = origin();
        // Safety: forwarded contract.
        unsafe { std::alloc::dealloc(base, l) };
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

/// Blocks currently held by callers (allocated and not yet freed). Cached
/// blocks — in magazines or on the global stack — do not count.
pub fn outstanding() -> usize {
    let s = stats();
    (s.fresh + s.recycled + s.oversize).saturating_sub(s.freed)
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
        assert_eq!(class_for(l(128, 64)), Some(3));
        assert_eq!(class_for(l(256, 64)), Some(4));
        assert_eq!(class_for(l(64, 64)), Some(2));
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
    fn zeroed_blocks_are_zero_pooled_or_oversized() {
        for layout in [l(128, 64), l(1 << 20, 64)] {
            // Dirty a recycled block first: the pooled path must re-zero it.
            let dirty = alloc_block(layout);
            unsafe { dirty.as_ptr().write_bytes(0xA5, layout.size()) };
            unsafe { free_block(dirty.as_ptr(), layout) };
            let p = try_alloc_zeroed_block(layout).unwrap();
            assert_eq!(p.as_ptr() as usize % layout.align(), 0);
            let bytes = unsafe { std::slice::from_raw_parts(p.as_ptr(), layout.size()) };
            assert!(bytes.iter().all(|&b| b == 0), "{layout:?} not zeroed");
            unsafe { free_block(p.as_ptr(), layout) };
        }
    }

    #[test]
    fn over_aligned_oversized_blocks_are_aligned_and_whole() {
        for align in [16, 64, 4096] {
            for zeroed in [false, true] {
                let layout = l(3 * 4096 + 8, align);
                let p = if zeroed {
                    try_alloc_zeroed_block(layout).unwrap()
                } else {
                    alloc_block(layout)
                };
                assert_eq!(p.as_ptr() as usize % align, 0, "align {align}");
                // Every byte is the caller's: a write over the whole block
                // must not clobber the recorded base the free reads back.
                unsafe { p.as_ptr().write_bytes(0x5A, layout.size()) };
                unsafe { free_block(p.as_ptr(), layout) };
            }
        }
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
