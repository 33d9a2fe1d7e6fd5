//! Runtime hooks for the instrumented crates (called under
//! `--cfg lfc_model` from `lfc-alloc` and `lfc-runtime`). These are the
//! only upward-facing entry points; they must not assume any lfc crate is
//! present.

use crate::sched;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocator hook: called by `lfc_alloc::free_block` before releasing a
/// block. Returns `true` when the model takes ownership — the block is
/// *quarantined*: kept mapped until the execution ends so a stale access is
/// defined behaviour the shadow memory can detect (and report as a
/// use-after-free), instead of real UB. Returns `false` outside a model
/// execution (the caller frees normally).
///
/// # Safety
///
/// `ptr` must be a live allocation of `size` bytes obtained from
/// `std::alloc::alloc` with layout `(size, align)`, and the caller must not
/// touch it again after a `true` return.
pub unsafe fn quarantine_block(ptr: *mut u8, size: usize, align: usize) -> bool {
    let Some((exec, _)) = sched::current() else {
        return false;
    };
    exec.quarantine(ptr as usize, size, align);
    true
}

static EPILOGUE: AtomicUsize = AtomicUsize::new(0);

/// Register the per-thread teardown the model runs at the end of every
/// model thread (and of the root closure): `lfc-runtime` registers its
/// `detach_thread` here the first time any thread claims an id, so hazard
/// retire lists and allocator magazines are drained *while the thread is
/// still scheduled* rather than from TLS destructors the scheduler cannot
/// see. Idempotent; last registration wins.
pub fn register_thread_epilogue(f: fn()) {
    EPILOGUE.store(f as usize, Ordering::Release);
}

/// Run the registered epilogue, if any.
pub(crate) fn run_thread_epilogue() {
    let p = EPILOGUE.load(Ordering::Acquire);
    if p != 0 {
        // Safety: only ever stored from a `fn()` in register_thread_epilogue.
        let f: fn() = unsafe { std::mem::transmute::<usize, fn()>(p) };
        f();
    }
}

/// Panic payload `lfc_runtime::fault::abandon` unwinds with. Duplicated
/// from `lfc_runtime::fault::ABANDON_PAYLOAD` (this crate sits *below*
/// lfc-runtime in the dependency graph and cannot import it); the two
/// strings must stay identical — `lfc-runtime`'s fault tests assert the
/// round trip.
pub const ABANDON_PAYLOAD: &str = "lfc: operation abandoned (injected thread death)";

static ABANDON_EPILOGUE: AtomicUsize = AtomicUsize::new(0);

/// Register the abandonment finisher (`lfc_runtime::fault`'s
/// `complete_abandonment`): runs on a model thread that unwound with
/// [`ABANDON_PAYLOAD`], while the thread is still scheduled, parking its
/// id/bank as a corpse instead of releasing them. Registered whenever the
/// fault layer is armed under `--cfg lfc_model`.
pub fn register_abandon_epilogue(f: fn()) {
    ABANDON_EPILOGUE.store(f as usize, Ordering::Release);
}

/// Run the registered abandonment finisher. Returns `false` when none was
/// registered (the caller then treats the unwind as an ordinary panic).
pub(crate) fn run_abandon_epilogue() -> bool {
    let p = ABANDON_EPILOGUE.load(Ordering::Acquire);
    if p == 0 {
        return false;
    }
    // Safety: only ever stored from a `fn()` in register_abandon_epilogue.
    let f: fn() = unsafe { std::mem::transmute::<usize, fn()>(p) };
    f();
    true
}
