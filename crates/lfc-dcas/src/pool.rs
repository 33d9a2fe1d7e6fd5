//! Per-thread descriptor pools: one free list per descriptor type (DCAS,
//! CASN, RDCSS), all three in one thread-local.
//!
//! The safety argument is identical for every type: a block re-enters
//! circulation **only** from (a) a handle that was never published (no
//! other thread ever learned the address), or (b) the hazard domain's
//! reclaimer, which runs only once no thread's slot protects the address —
//! exactly the point at which handing the block to a *different*
//! allocation would also have been legal.
//!
//! # Bound
//!
//! A pool has no capacity of its own. Retired descriptors come home in
//! scan-sized bursts, and a fixed cap would spill each burst into
//! `lfc-alloc`'s magazines and shared global stack, only for the next
//! window's allocations to miss. Each list is bounded by the thread's
//! current scan trigger (`lfc_hazard::scan_trigger`) instead: the
//! retire-list length at which its next scan runs, and so the most one
//! scan of its own list can free. A free that finds its type's list that
//! long hands the block to `lfc-alloc` and sheds the list down to the
//! trigger, so no free leaves a list above the trigger in force. What does
//! not fit is what the thread would not have reused: orphan lists a scan
//! adopts from exited threads, and, once a stall clears, the backlog of a
//! trigger that had grown with the stall's survivors. Thread exit hands
//! every pooled block back to `lfc-alloc`.
//!
//! # Accounting
//!
//! Pooled blocks are *cached*, like magazine blocks: each push or pop
//! republishes the thread's pooled count with one owner-only Relaxed store
//! (`lfc_alloc::set_parked`), which `lfc_alloc::outstanding` subtracts. The
//! hit path therefore carries no RMW on a shared line.

use crate::dcas::DcasDesc;
use crate::kcas::{CasnDesc, RdcssDesc};
use lfc_hazard::{scan_trigger, MIN_SCAN_TRIGGER};
use lfc_runtime::{on_thread_exit, thread_is_exiting};
use std::alloc::Layout;
use std::cell::Cell;
use std::ptr::NonNull;

/// A descriptor type with a free list of its own.
pub(crate) trait Pooled: Sized {
    /// Index of the type's list in `Pools::free`.
    const LIST: usize;
}

impl Pooled for DcasDesc {
    const LIST: usize = 0;
}

impl Pooled for CasnDesc {
    const LIST: usize = 1;
}

impl Pooled for RdcssDesc {
    const LIST: usize = 2;
}

/// One thread's pools.
struct Pools {
    free: [Vec<NonNull<u8>>; 3],
    tid: u16,
}

impl Pools {
    fn publish(&self) {
        lfc_alloc::set_parked(self.tid, self.free.iter().map(Vec::len).sum());
    }

    /// Hand `T` blocks back to `lfc-alloc` until `T`'s list holds at most
    /// `keep`.
    fn shed<T: Pooled>(&mut self, keep: usize) {
        let list = &mut self.free[T::LIST];
        while list.len() > keep {
            let d = list.pop().expect("longer than keep");
            // Safety: pooled blocks came from `alloc_block` with `T`'s
            // layout and are unreachable.
            unsafe { lfc_alloc::free_block(d.as_ptr(), Layout::new::<T>()) };
        }
        self.publish();
    }
}

thread_local! {
    static POOLS: Cell<*mut Pools> = const { Cell::new(std::ptr::null_mut()) };
}

fn with_pools<R>(f: impl FnOnce(&mut Pools) -> R) -> R {
    POOLS.with(|cell| {
        let mut p = cell.get();
        if p.is_null() {
            p = Box::into_raw(Box::new(Pools {
                free: Default::default(),
                // The exit hook below runs before this id is released, so
                // the id stays ours for the pools' whole life.
                tid: lfc_runtime::current_tid(),
            }));
            cell.set(p);
            on_thread_exit(Box::new(move || {
                POOLS.with(|c| c.set(std::ptr::null_mut()));
                // Safety: created above; the hook runs once per thread.
                let mut pools = unsafe { Box::from_raw(p) };
                pools.shed::<DcasDesc>(0);
                pools.shed::<CasnDesc>(0);
                pools.shed::<RdcssDesc>(0);
            }));
        }
        // Safety: thread-exclusive, not re-entered.
        f(unsafe { &mut *p })
    })
}

/// Allocate a `T` descriptor block: pool hit (handed to `reuse` to reset
/// the fields publication cares about), or a fresh block initialized by
/// `init`. A pool hit never fails; the fresh-block fallthrough surfaces
/// `lfc-alloc`'s `AllocError`.
pub(crate) fn try_alloc<T: Pooled>(
    reuse: impl FnOnce(NonNull<T>),
    init: impl FnOnce(NonNull<T>),
) -> Result<NonNull<T>, lfc_alloc::AllocError> {
    if !thread_is_exiting() {
        let hit = with_pools(|p| {
            let d = p.free[T::LIST].pop()?;
            p.publish();
            Some(d)
        });
        if let Some(d) = hit {
            let d = d.cast::<T>();
            reuse(d);
            return Ok(d);
        }
    }
    let block = lfc_alloc::try_alloc_block(Layout::new::<T>())?.cast::<T>();
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

/// Return an unreachable `T` descriptor block to this thread's pool, or to
/// the backing allocator when `T`'s list is at the thread's scan trigger or
/// the thread is tearing down.
///
/// # Safety
///
/// `d` must be a live block of `T`'s layout that no thread can reach:
/// either never published, or past its hazard-domain reclamation point.
pub(crate) unsafe fn dealloc<T: Pooled>(d: NonNull<T>) {
    if !thread_is_exiting() {
        let pooled = with_pools(|p| {
            let n = p.free[T::LIST].len();
            // No trigger is below the floor, so short of it a free skips
            // the trigger's read of the shared thread high-water mark.
            if n >= MIN_SCAN_TRIGGER {
                let trigger = scan_trigger();
                if n >= trigger {
                    p.shed::<T>(trigger);
                    return false;
                }
            }
            p.free[T::LIST].push(d.cast());
            p.publish();
            true
        });
        if pooled {
            return;
        }
    }
    // Safety: forwarded contract; the block came from `alloc_block`.
    unsafe { lfc_alloc::free_block(d.as_ptr().cast(), Layout::new::<T>()) };
}
