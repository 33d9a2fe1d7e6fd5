//! Per-thread descriptor pools, shared by every descriptor kind in the
//! crate (DCAS, CASN and RDCSS descriptors).
//!
//! PR 1 introduced pooling for the DCAS descriptor only; the unified
//! composition engine commits through the CASN layer as well, so the pool
//! machinery is factored out here and instantiated once per descriptor
//! type. The safety argument is identical for every instantiation: a block
//! re-enters circulation **only** from (a) a handle that was never
//! published (no other thread ever learned the address), or (b) the hazard
//! domain's reclaimer, which runs only once no thread's slot protects the
//! address — exactly the point at which handing the block to a *different*
//! allocation would also have been legal.

use lfc_runtime::{on_thread_exit, thread_is_exiting};
use std::alloc::Layout;
use std::cell::Cell;
use std::ptr::NonNull;
use std::thread::LocalKey;

/// A per-thread free list of ready-to-reuse descriptor blocks.
///
/// A thread has at most a handful of descriptors logically in flight (one
/// per composed-operation attempt), but retired descriptors return in
/// scan-sized bursts; the per-type capacity keeps those bursts local
/// without hoarding.
pub(crate) struct DescPool<T> {
    free: Vec<NonNull<T>>,
}

/// The thread-local anchor a descriptor type declares for its pool.
pub(crate) type PoolCell<T> = Cell<*mut DescPool<T>>;

fn with_pool<T: 'static, R>(
    key: &'static LocalKey<PoolCell<T>>,
    layout: Layout,
    f: impl FnOnce(&mut DescPool<T>) -> R,
) -> R {
    key.with(|cell| {
        let mut p = cell.get();
        if p.is_null() {
            p = Box::into_raw(Box::new(DescPool { free: Vec::new() }));
            cell.set(p);
            on_thread_exit(Box::new(move || {
                key.with(|c| c.set(std::ptr::null_mut()));
                // Safety: created above; the hook runs once per thread.
                let pool = unsafe { Box::from_raw(p) };
                for d in pool.free {
                    // Safety: pooled blocks came from `alloc_block` with
                    // this layout and are unreachable.
                    unsafe { lfc_alloc::free_block(d.as_ptr() as *mut u8, layout) };
                }
            }));
        }
        // Safety: thread-exclusive, not re-entered.
        f(unsafe { &mut *p })
    })
}

/// Allocate a descriptor block: pool hit (handed to `reuse` to reset the
/// fields publication cares about), or a fresh block initialized by `init`.
/// A pool hit never fails; the fresh-block fallthrough surfaces
/// `lfc-alloc`'s `AllocError`.
pub(crate) fn try_alloc<T: 'static>(
    key: &'static LocalKey<PoolCell<T>>,
    layout: Layout,
    reuse: impl FnOnce(NonNull<T>),
    init: impl FnOnce(NonNull<T>),
) -> Result<NonNull<T>, lfc_alloc::AllocError> {
    if !thread_is_exiting() {
        if let Some(d) = with_pool(key, layout, |pool| pool.free.pop()) {
            reuse(d);
            return Ok(d);
        }
    }
    let block = lfc_alloc::try_alloc_block(layout)?.cast::<T>();
    init(block);
    Ok(block)
}

/// Where every infallible name in this crate (`DescHandle::new`,
/// `CasnHandle::new`, `CasnHandle::commit`, `commit_entries`) routes the
/// `Err` of its `try_` twin. Panics — unwinds, exactly as
/// `lfc_alloc::alloc_block` does; it does **not** abort — so a caller under
/// `catch_unwind` keeps the global state helpable.
#[cold]
pub(crate) fn alloc_failed(e: lfc_alloc::AllocError) -> ! {
    panic!("lfc-dcas: descriptor allocation failed ({e})")
}

/// Return an unreachable descriptor block to the pool (or the backing
/// allocator when the pool is full or the thread is tearing down).
///
/// # Safety
///
/// `d` must be a live block of `layout` that no thread can reach: either
/// never published, or past its hazard-domain reclamation point.
pub(crate) unsafe fn dealloc<T: 'static>(
    key: &'static LocalKey<PoolCell<T>>,
    layout: Layout,
    cap: usize,
    d: NonNull<T>,
) {
    if !thread_is_exiting() {
        let pooled = with_pool(key, layout, |pool| {
            if pool.free.len() < cap {
                pool.free.push(d);
                true
            } else {
                false
            }
        });
        if pooled {
            return;
        }
    }
    // Safety: forwarded contract; the block came from `alloc_block`.
    unsafe { lfc_alloc::free_block(d.as_ptr() as *mut u8, layout) };
}
