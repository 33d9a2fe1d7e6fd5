//! The descriptor lifecycle, one for all three descriptor types (DCAS,
//! CASN, RDCSS): per-thread pools, one free list per type in one
//! thread-local, and the [`Owned`] handle every commit allocates through.
//!
//! The safety argument is identical for every type: a block re-enters
//! circulation **only** from (a) an [`Owned`] dropped before publication
//! (no other thread ever learned the address), or (b) the hazard domain's
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
use lfc_runtime::{on_thread_exit, thread_is_exiting, ShardedCounter};
use std::alloc::Layout;
use std::cell::Cell;
use std::ptr::NonNull;

/// A descriptor type: its free list, and the per-type steps of the
/// lifecycle [`Owned`] runs.
pub(crate) trait Pooled: Sized {
    /// Index of the type's list in `Pools::free`.
    const LIST: usize;
    /// Fault site checked before the pool, so injection fires even when a
    /// pooled block would have been a guaranteed hit.
    const SITE: &'static str;
    /// Allocations served by the pool.
    const HITS: &'static ShardedCounter;
    /// Allocations that fell through to `lfc-alloc`.
    const MISSES: &'static ShardedCounter;

    /// A fresh block's contents, stamped with the era `birth`.
    fn fresh(birth: usize) -> Self;

    /// Pool-hit reset: the decision word back to undecided and the era
    /// stamp renewed. The fill that follows overwrites the rest.
    fn reuse(&mut self, birth: usize);

    /// The era stamped at allocation, forwarded to `retire_with` so zombie
    /// scans can exonerate descriptors born after an ejected reader
    /// stalled.
    fn birth(&self) -> usize;
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

/// A uniquely owned descriptor of type `T`. Its three ends are the whole
/// lifecycle:
///
/// * **unpublished**: dropping it recycles the block straight into the
///   pool — no helper can know the address;
/// * **published**: [`Owned::retire`] hands it to the hazard domain;
/// * **abandoned**: a thread unwinding out of an operation it will never
///   finish (injected death, `lfc_runtime::fault`) may hold it published,
///   so dropping it then *leaks* it. The corpse's announce-table entry
///   keeps it findable, and the leak bound charges one descriptor per
///   abandonment (DESIGN.md "Fault model").
///
/// Between allocation and publication the initiator only reads it (the
/// fill runs inside [`Owned::try_new`]), so helpers may share it through
/// `&T` once published.
pub(crate) struct Owned<T: Pooled>(NonNull<T>);

impl<T: Pooled> Owned<T> {
    /// Allocate a `T`: the fault-site check, then a pool hit (reset by
    /// [`Pooled::reuse`]) or a fresh `lfc-alloc` block, then `fill`. A
    /// pool hit never fails; the fresh-block fallthrough surfaces
    /// `lfc-alloc`'s `AllocError`.
    pub(crate) fn try_new(fill: impl FnOnce(&mut T)) -> Result<Self, lfc_alloc::AllocError> {
        if lfc_runtime::fault::check(T::SITE) {
            return Err(lfc_alloc::AllocError);
        }
        let hit = if thread_is_exiting() {
            None
        } else {
            with_pools(|p| {
                let d = p.free[T::LIST].pop()?;
                p.publish();
                Some(d)
            })
        };
        let d = match hit {
            Some(d) => {
                T::HITS.add(1);
                let d = d.cast::<T>();
                // Safety: unreachable by any other thread (module docs).
                unsafe { (*d.as_ptr()).reuse(lfc_hazard::birth_era()) };
                d
            }
            None => {
                let block = lfc_alloc::try_alloc_block(Layout::new::<T>())?.cast::<T>();
                T::MISSES.add(1);
                // Safety: freshly allocated, properly aligned and sized.
                unsafe { block.as_ptr().write(T::fresh(lfc_hazard::birth_era())) };
                block
            }
        };
        // Safety: initialized above and still exclusively ours.
        fill(unsafe { &mut *d.as_ptr() });
        Ok(Owned(d))
    }

    /// The descriptor's address, for encoding into a word.
    pub(crate) fn addr(&self) -> usize {
        self.0.as_ptr() as usize
    }

    /// Hand the published, decided descriptor to the hazard domain.
    ///
    /// Uses `retire_with`: descriptors carry their allocation era, and —
    /// having no drop glue — they divert straight into the type-stable
    /// pool when a zombie pins them.
    pub(crate) fn retire(self) {
        let p = self.into_raw();
        // Safety: decided descriptors are unreachable except through stale
        // words, whose readers fail hazard validation; alive until here, so
        // `birth` is readable.
        unsafe {
            lfc_hazard::retire_with(
                p.cast(),
                reclaim::<T>,
                lfc_hazard::RetireInfo {
                    bytes: std::mem::size_of::<T>(),
                    birth: (*p).birth(),
                    divert: Some(reclaim::<T>),
                },
            )
        };
    }

    /// Give up ownership without disposing of the descriptor: the caller
    /// takes over the obligation to [`Owned::from_raw`] and retire it.
    pub(crate) fn into_raw(self) -> *mut T {
        let p = self.0.as_ptr();
        std::mem::forget(self);
        p
    }

    /// Take back a descriptor given up by [`Owned::into_raw`].
    ///
    /// # Safety
    ///
    /// `p` came from `into_raw`, and is taken back exactly once.
    pub(crate) unsafe fn from_raw(p: *mut T) -> Self {
        // Safety: non-null per contract.
        Owned(unsafe { NonNull::new_unchecked(p) })
    }
}

impl<T: Pooled> std::ops::Deref for Owned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: initialized by `try_new`, alive until dropped or retired.
        unsafe { self.0.as_ref() }
    }
}

impl<T: Pooled> Drop for Owned<T> {
    fn drop(&mut self) {
        if lfc_runtime::fault::thread_is_abandoning() {
            return;
        }
        // Safety: dropped before publication (type docs).
        unsafe { dealloc(self.0) };
    }
}

unsafe fn reclaim<T: Pooled>(p: *mut u8) {
    // No drop glue; recycle the block through the pool.
    // Safety: the hazard domain guarantees unreachability.
    unsafe { dealloc(NonNull::new_unchecked(p.cast::<T>())) };
}

/// Where `commit_entries`, the one infallible name in this crate, routes
/// the `Err` of `try_commit_entries`. Panics — unwinds, exactly as
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
unsafe fn dealloc<T: Pooled>(d: NonNull<T>) {
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
