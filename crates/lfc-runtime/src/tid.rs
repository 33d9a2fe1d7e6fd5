//! Dense thread-id registry.
//!
//! A thread claims the lowest free id on first use and releases it when the
//! thread exits. Ids are bounded by [`MAX_THREADS`] because they are encoded
//! into marked descriptor words (7 bits, see `lfc-dcas::word`) and index
//! fixed-size hazard-slot banks.
//!
//! Per-thread state owned by other crates (hazard retire lists, allocator
//! magazines) must be torn down *before* the id is released, otherwise a new
//! thread could claim the id and race on the associated slots. Those crates
//! register teardown callbacks with [`on_thread_exit`]; the callbacks run in
//! reverse registration order inside the single thread-local destructor that
//! also releases the id, guaranteeing the required ordering.

use crate::pad::CachePadded;
use crate::sync::{AtomicBool, AtomicUsize, Ordering};
use std::cell::RefCell;

/// Maximum number of concurrently registered threads.
///
/// Bounded by the 7-bit thread-id field in marked DCAS descriptor words
/// (`tid + 1` must fit in 7 bits).
pub const MAX_THREADS: usize = 126;

/// Claim flags are cache-line padded: a claim/release by one thread must
/// not invalidate the line a neighbouring id's flag lives on — thread churn
/// would otherwise false-share with every registry scan.
static CLAIMED: [CachePadded<AtomicBool>; MAX_THREADS] =
    [const { CachePadded::new(AtomicBool::new(false)) }; MAX_THREADS];

/// High-water mark: one past the largest thread id ever claimed. Scanners
/// (hazard-pointer scan) iterate `0..registered_high_water()`. Padded away
/// from the active count: it is read on every reclamation scan while
/// `ACTIVE` is written on every thread birth/death.
static HIGH_WATER: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));

/// Number of currently registered (live) threads. The solo fast path reads
/// this with SeqCst (see `crate::solo`); the increment below is SeqCst for
/// the same Dekker pairing.
static ACTIVE: CachePadded<AtomicUsize> = CachePadded::new(AtomicUsize::new(0));

struct ThreadSlot {
    tid: u16,
    exit_hooks: Vec<Box<dyn FnOnce()>>,
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        // Teardown callbacks may allocate/free/retire; mark the thread as
        // exiting so those layers take their direct (non-TLS) fallback paths
        // instead of trying to initialize per-thread state — registering a
        // new exit hook from inside an exit hook would touch `SLOT` while it
        // is being destroyed.
        let _ = EXITING.try_with(|c| c.set(true));
        // Run teardown callbacks (hazard flush, magazine flush, …) before the
        // id becomes claimable again.
        for hook in self.exit_hooks.drain(..).rev() {
            hook();
        }
        // Reset id-indexed state owned by other crates (hazard slot bank,
        // epoch slot) before the id becomes claimable: without this, a
        // thread that exited with a stale hazard value left in its bank
        // published a phantom protection forever (or handed it to the next
        // claimant of the id). Skipped under the model: the sweep is ~26
        // *instrumented* stores per thread exit (every model thread exit is
        // a scheduled step sequence), which multiplies every scenario's
        // state space; model threads clear their guards deterministically,
        // and the path the model actually checks — corpse adoption — runs
        // the finalizers unconditionally in `release_corpse_tid`.
        #[cfg(not(lfc_model))]
        run_tid_finalizers(self.tid);
        CLAIMED[self.tid as usize].store(false, Ordering::Release);
        // After the hooks: an exiting thread can no longer observe a solo
        // section's intermediate state, so leaving the active set last is
        // safe, and it keeps the solo fast path disabled while the exit
        // hooks still retire memory.
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Fixed-size registry of per-tid finalizers, run after the exit hooks and
/// before the id is released (both on normal exit and at corpse adoption).
/// Plain `std` atomics: registration is infrastructure, not protocol state,
/// and must not create model-checker choice points.
const MAX_TID_FINALIZERS: usize = 8;
static FINALIZERS: [std::sync::atomic::AtomicUsize; MAX_TID_FINALIZERS] =
    [const { std::sync::atomic::AtomicUsize::new(0) }; MAX_TID_FINALIZERS];

/// Register a finalizer to run whenever a thread id is released (normal
/// exit or corpse adoption), after the thread's exit hooks. Idempotent per
/// function pointer; panics if the fixed registry overflows.
pub fn register_tid_finalizer(f: fn(u16)) {
    use std::sync::atomic::Ordering as O;
    let fp = f as usize;
    debug_assert_ne!(fp, 0);
    for slot in &FINALIZERS {
        if slot.load(O::Acquire) == fp {
            return;
        }
        if slot.compare_exchange(0, fp, O::AcqRel, O::Acquire).is_ok()
            || slot.load(O::Acquire) == fp
        {
            return;
        }
    }
    panic!("lfc-runtime: more than {MAX_TID_FINALIZERS} tid finalizers");
}

fn run_tid_finalizers(tid: u16) {
    use std::sync::atomic::Ordering as O;
    for slot in &FINALIZERS {
        let fp = slot.load(O::Acquire);
        if fp != 0 {
            // Safety: only ever stored from a `fn(u16)` in
            // `register_tid_finalizer`.
            let f: fn(u16) = unsafe { std::mem::transmute::<usize, fn(u16)>(fp) };
            f(tid);
        }
    }
}

thread_local! {
    static SLOT: RefCell<Option<ThreadSlot>> = const { RefCell::new(None) };
    // No drop glue, so this stays accessible while other TLS destructors run.
    static EXITING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is running its thread-exit teardown (or has
/// torn down its TLS entirely). Layers with per-thread caches must bypass
/// them — and must not call [`on_thread_exit`] — when this is true.
pub fn thread_is_exiting() -> bool {
    EXITING.try_with(|c| c.get()).unwrap_or(true)
}

fn claim() -> u16 {
    // Under the model checker, make sure model threads drain their lfc
    // thread-local state (hazard retire lists, allocator magazines, this
    // id) while still scheduled, instead of from TLS destructors the
    // scheduler cannot see. Registered here because any thread with lfc
    // state to tear down claimed an id first.
    #[cfg(lfc_model)]
    lfc_model::rt::register_thread_epilogue(detach_thread);
    for (i, flag) in CLAIMED.iter().enumerate() {
        if !flag.load(Ordering::Relaxed)
            && flag
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            HIGH_WATER.fetch_max(i + 1, Ordering::Relaxed);
            // SeqCst: pairs with the SeqCst flag-store→count-load in
            // `solo::try_enter` (Dekker). Must be ordered before the
            // in-flight check below in the global SC order.
            ACTIVE.fetch_add(1, Ordering::SeqCst);
            // Wait out any solo fast-path section that was entered before
            // this thread existed; afterwards no such section can start
            // while we remain registered.
            crate::solo::registration_barrier();
            return i as u16;
        }
    }
    panic!("lfc-runtime: more than {MAX_THREADS} concurrently registered threads");
}

/// Number of currently registered (live) threads.
///
/// SeqCst: the solo-thread side of the `crate::solo` Dekker pair — must be
/// ordered after the flag store in the SC total order.
pub fn active_threads() -> usize {
    ACTIVE.load(Ordering::SeqCst)
}

/// Racy count of registered threads, for gating hints only (see
/// `solo::try_enter`): one Relaxed load, no fence, never authoritative.
pub(crate) fn active_threads_relaxed() -> usize {
    ACTIVE.load(Ordering::Relaxed)
}

/// Returns this thread's dense id, claiming one on first use.
///
/// # Panics
///
/// Panics if more than [`MAX_THREADS`] threads are registered at once.
pub fn current_tid() -> u16 {
    SLOT.with(|slot| {
        let mut slot = slot.borrow_mut();
        match &*slot {
            Some(s) => s.tid,
            None => {
                let tid = claim();
                *slot = Some(ThreadSlot {
                    tid,
                    exit_hooks: Vec::new(),
                });
                tid
            }
        }
    })
}

/// Registers a callback to run when the current thread exits, before its
/// thread id is released. Callbacks run in reverse registration order.
pub fn on_thread_exit(hook: Box<dyn FnOnce()>) {
    // Ensure the slot exists so the hook has somewhere to live.
    current_tid();
    SLOT.with(|slot| {
        slot.borrow_mut()
            .as_mut()
            .expect("slot initialized by current_tid")
            .exit_hooks
            .push(hook);
    });
}

/// Whether the current thread holds a thread id.
#[cfg(test)]
pub(crate) fn thread_is_registered() -> bool {
    SLOT.try_with(|s| s.borrow().is_some()).unwrap_or(false)
}

/// One past the largest thread id ever claimed by this process.
pub fn registered_high_water() -> usize {
    HIGH_WATER.load(Ordering::Relaxed)
}

/// Run the current thread's exit hooks and release its id *now*, exactly
/// as the thread-exit destructor would, leaving the thread free to
/// re-register later. The model checker's thread epilogue: teardown work
/// (hazard scans, magazine flushes) performs instrumented operations, so
/// it must run while the model scheduler still tracks the thread — TLS
/// destructors run too late. Safe to call on any thread at any quiescent
/// point (no lfc operation may be in flight); a no-op for unregistered
/// threads.
pub fn detach_thread() {
    let slot = SLOT.try_with(|s| s.borrow_mut().take()).unwrap_or(None);
    drop(slot); // ThreadSlot::drop runs the hooks and releases the id.
                // ThreadSlot::drop leaves the exiting flag set (real exits never come
                // back); an explicitly detached thread may re-register.
    let _ = EXITING.try_with(|c| c.set(false));
}

/// Abandon the current thread's slot: run its exit hooks (magazine /
/// descriptor-pool flushes, hazard retire hand-off — safe even
/// mid-operation because the abandoning-aware `Drop` impls leaked anything
/// still published) but **keep the id claimed and the active count up**.
/// The thread becomes a corpse: its hazard bank keeps protecting whatever
/// the abandoned operation holds, and no survivor can enter the solo
/// regime while the corpse's descriptor may still be installed. A
/// survivor later releases the id via [`release_corpse_tid`] (through
/// `fault::release_corpse`). Returns the parked tid, or `None` if the
/// thread never claimed one.
pub(crate) fn abandon_thread_slot() -> Option<u16> {
    let slot = SLOT.try_with(|s| s.borrow_mut().take()).unwrap_or(None)?;
    let _ = EXITING.try_with(|c| c.set(true));
    let mut slot = slot;
    let hooks = std::mem::take(&mut slot.exit_hooks);
    for hook in hooks.into_iter().rev() {
        hook();
    }
    let tid = slot.tid;
    // Skip ThreadSlot::drop entirely: no finalizers (the bank must keep
    // protecting the abandoned operation), no CLAIMED release, no ACTIVE
    // decrement. The hooks Vec was taken out above, so nothing leaks here
    // beyond the id itself.
    std::mem::forget(slot);
    Some(tid)
}

/// Release a corpse's id after its announced operation was helped to
/// completion: runs the tid finalizers (clearing the corpse's hazard bank
/// and epoch slot) and frees the id. Adoption-side counterpart of the
/// normal-exit path in `ThreadSlot::drop`.
pub(crate) fn release_corpse_tid(tid: u16) {
    run_tid_finalizers(tid);
    CLAIMED[tid as usize].store(false, Ordering::Release);
    ACTIVE.fetch_sub(1, Ordering::SeqCst);
}

/// Whether `tid` is currently claimed (live thread or corpse). Diagnostic.
pub fn tid_is_claimed(tid: u16) -> bool {
    CLAIMED[tid as usize].load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn same_thread_same_tid() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_threads_distinct_tids() {
        let mine = current_tid();
        let theirs = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn tid_below_bound() {
        assert!((current_tid() as usize) < MAX_THREADS);
    }

    #[test]
    fn high_water_covers_current() {
        let tid = current_tid();
        assert!(registered_high_water() > tid as usize);
    }

    #[test]
    fn tids_are_reused_after_exit() {
        // Spawn threads strictly sequentially; with at most one short-lived
        // helper alive at a time the claimed set cannot grow without bound.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..MAX_THREADS * 3 {
            let tid = std::thread::spawn(current_tid).join().unwrap();
            seen.insert(tid);
        }
        // Reuse must have happened: we spawned 3x MAX_THREADS threads.
        assert!(seen.len() <= MAX_THREADS);
    }

    #[test]
    fn exit_hooks_run_in_reverse_order() {
        let log = Arc::new(AtomicU32::new(0));
        let l1 = log.clone();
        let l2 = log.clone();
        std::thread::spawn(move || {
            on_thread_exit(Box::new(move || {
                // Runs second: expects the value the later hook wrote.
                assert_eq!(l1.load(Ordering::SeqCst), 7);
                l1.store(13, Ordering::SeqCst);
            }));
            on_thread_exit(Box::new(move || {
                assert_eq!(l2.load(Ordering::SeqCst), 0);
                l2.store(7, Ordering::SeqCst);
            }));
        })
        .join()
        .unwrap();
        assert_eq!(log.load(Ordering::SeqCst), 13);
    }

    #[test]
    fn many_parallel_threads_get_unique_ids() {
        // A barrier guarantees all threads hold their id simultaneously;
        // without it a late spawner could legitimately reuse the id of an
        // early thread that already exited.
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(32));
        let handles: Vec<_> = (0..32)
            .map(|_| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let t = current_tid();
                    barrier.wait();
                    t
                })
            })
            .collect();
        let mut ids: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 32, "concurrent threads must hold distinct ids");
    }
}
