//! Virtual atomics: drop-in replacements for `std::sync::atomic` that the
//! instrumented crates' `sync` facades re-export under `--cfg lfc_model`.
//!
//! Outside a model execution every operation falls straight through to the
//! wrapped `std` atomic with the caller's ordering — so code built with the
//! cfg but running normally (test harness setup, threads the model does not
//! manage) behaves identically to a plain build. Inside an execution every
//! operation is a scheduling point routed through the shadow memory in
//! `sched`.

use crate::sched;
pub use std::sync::atomic::Ordering;

/// Model-aware `AtomicUsize`.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct AtomicUsize {
    inner: std::sync::atomic::AtomicUsize,
}

impl AtomicUsize {
    /// New atomic holding `v`.
    pub const fn new(v: usize) -> Self {
        AtomicUsize {
            inner: std::sync::atomic::AtomicUsize::new(v),
        }
    }

    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    fn seed(&self) -> impl Fn() -> usize + '_ {
        || self.inner.load(Ordering::SeqCst)
    }

    /// As [`std::sync::atomic::AtomicUsize::load`].
    #[inline]
    pub fn load(&self, ord: Ordering) -> usize {
        match sched::load(self.addr(), ord, &self.seed()) {
            Some(v) => v,
            None => self.inner.load(ord),
        }
    }

    /// As [`std::sync::atomic::AtomicUsize::store`].
    #[inline]
    pub fn store(&self, v: usize, ord: Ordering) {
        match sched::store(self.addr(), v, ord, &self.seed(), &|x| {
            self.inner.store(x, Ordering::SeqCst)
        }) {
            Some(()) => {}
            None => self.inner.store(v, ord),
        }
    }

    /// As [`std::sync::atomic::AtomicUsize::swap`].
    #[inline]
    pub fn swap(&self, v: usize, ord: Ordering) -> usize {
        match sched::rmw(self.addr(), ord, &|_| v, &self.seed(), &|x| {
            self.inner.store(x, Ordering::SeqCst)
        }) {
            Some(prev) => prev,
            None => self.inner.swap(v, ord),
        }
    }

    /// As [`std::sync::atomic::AtomicUsize::fetch_add`].
    #[inline]
    pub fn fetch_add(&self, v: usize, ord: Ordering) -> usize {
        match sched::rmw(
            self.addr(),
            ord,
            &|p| p.wrapping_add(v),
            &self.seed(),
            &|x| self.inner.store(x, Ordering::SeqCst),
        ) {
            Some(prev) => prev,
            None => self.inner.fetch_add(v, ord),
        }
    }

    /// As [`std::sync::atomic::AtomicUsize::fetch_sub`].
    #[inline]
    pub fn fetch_sub(&self, v: usize, ord: Ordering) -> usize {
        match sched::rmw(
            self.addr(),
            ord,
            &|p| p.wrapping_sub(v),
            &self.seed(),
            &|x| self.inner.store(x, Ordering::SeqCst),
        ) {
            Some(prev) => prev,
            None => self.inner.fetch_sub(v, ord),
        }
    }

    /// As [`std::sync::atomic::AtomicUsize::fetch_or`].
    #[inline]
    pub fn fetch_or(&self, v: usize, ord: Ordering) -> usize {
        match sched::rmw(self.addr(), ord, &|p| p | v, &self.seed(), &|x| {
            self.inner.store(x, Ordering::SeqCst)
        }) {
            Some(prev) => prev,
            None => self.inner.fetch_or(v, ord),
        }
    }

    /// As [`std::sync::atomic::AtomicUsize::fetch_max`].
    #[inline]
    pub fn fetch_max(&self, v: usize, ord: Ordering) -> usize {
        match sched::rmw(self.addr(), ord, &|p| p.max(v), &self.seed(), &|x| {
            self.inner.store(x, Ordering::SeqCst)
        }) {
            Some(prev) => prev,
            None => self.inner.fetch_max(v, ord),
        }
    }

    /// As [`std::sync::atomic::AtomicUsize::compare_exchange`].
    #[inline]
    pub fn compare_exchange(
        &self,
        old: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        match sched::cas(
            self.addr(),
            old,
            new,
            success,
            failure,
            &self.seed(),
            &|x| self.inner.store(x, Ordering::SeqCst),
        ) {
            Some(r) => r,
            None => self.inner.compare_exchange(old, new, success, failure),
        }
    }

    /// As [`std::sync::atomic::AtomicUsize::compare_exchange_weak`]. The
    /// model does not inject spurious failures.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        old: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        self.compare_exchange(old, new, success, failure)
    }
}

/// Model-aware `AtomicBool`.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct AtomicBool {
    inner: AtomicUsize,
}

impl AtomicBool {
    /// New atomic holding `v`.
    pub const fn new(v: bool) -> Self {
        AtomicBool {
            inner: AtomicUsize::new(v as usize),
        }
    }

    /// As [`std::sync::atomic::AtomicBool::load`].
    #[inline]
    pub fn load(&self, ord: Ordering) -> bool {
        self.inner.load(ord) != 0
    }

    /// As [`std::sync::atomic::AtomicBool::store`].
    #[inline]
    pub fn store(&self, v: bool, ord: Ordering) {
        self.inner.store(v as usize, ord)
    }

    /// As [`std::sync::atomic::AtomicBool::swap`].
    #[inline]
    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        self.inner.swap(v as usize, ord) != 0
    }

    /// As [`std::sync::atomic::AtomicBool::compare_exchange`].
    #[inline]
    pub fn compare_exchange(
        &self,
        old: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.inner
            .compare_exchange(old as usize, new as usize, success, failure)
            .map(|v| v != 0)
            .map_err(|v| v != 0)
    }

    /// As [`std::sync::atomic::AtomicBool::compare_exchange_weak`].
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        old: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.compare_exchange(old, new, success, failure)
    }
}

/// Model-aware `AtomicPtr<T>`. Pointers are widened to `usize` in the
/// shadow memory; the real `std` pointer atomic stays authoritative.
#[derive(Debug)]
#[repr(transparent)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
}

impl<T> AtomicPtr<T> {
    /// New atomic holding `p`.
    pub const fn new(p: *mut T) -> Self {
        AtomicPtr {
            inner: std::sync::atomic::AtomicPtr::new(p),
        }
    }

    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    fn seed(&self) -> impl Fn() -> usize + '_ {
        || self.inner.load(Ordering::SeqCst) as usize
    }

    /// As [`std::sync::atomic::AtomicPtr::load`].
    #[inline]
    pub fn load(&self, ord: Ordering) -> *mut T {
        match sched::load(self.addr(), ord, &self.seed()) {
            Some(v) => v as *mut T,
            None => self.inner.load(ord),
        }
    }

    /// As [`std::sync::atomic::AtomicPtr::store`].
    #[inline]
    pub fn store(&self, p: *mut T, ord: Ordering) {
        match sched::store(self.addr(), p as usize, ord, &self.seed(), &|x| {
            self.inner.store(x as *mut T, Ordering::SeqCst)
        }) {
            Some(()) => {}
            None => self.inner.store(p, ord),
        }
    }

    /// As [`std::sync::atomic::AtomicPtr::swap`].
    #[inline]
    pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
        match sched::rmw(self.addr(), ord, &|_| p as usize, &self.seed(), &|x| {
            self.inner.store(x as *mut T, Ordering::SeqCst)
        }) {
            Some(prev) => prev as *mut T,
            None => self.inner.swap(p, ord),
        }
    }

    /// As [`std::sync::atomic::AtomicPtr::compare_exchange`].
    #[inline]
    pub fn compare_exchange(
        &self,
        old: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        match sched::cas(
            self.addr(),
            old as usize,
            new as usize,
            success,
            failure,
            &self.seed(),
            &|x| self.inner.store(x as *mut T, Ordering::SeqCst),
        ) {
            Some(r) => r.map(|v| v as *mut T).map_err(|v| v as *mut T),
            None => self.inner.compare_exchange(old, new, success, failure),
        }
    }

    /// As [`std::sync::atomic::AtomicPtr::compare_exchange_weak`].
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        old: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        self.compare_exchange(old, new, success, failure)
    }
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        AtomicPtr::new(std::ptr::null_mut())
    }
}

/// Model-aware `fence`. Only `SeqCst` fences are supported inside a model
/// execution (the instrumented crates use no weaker fences).
#[inline]
pub fn fence(ord: Ordering) {
    if sched::fence_or_passthrough(ord) {
        std::sync::atomic::fence(ord);
    }
}

/// Model-aware `std::hint::spin_loop`: inside an execution this is a
/// yield-flavoured scheduling point (the scheduler hands the baton to
/// another runnable thread, which is what a spinning thread is waiting
/// for); outside, the plain hint.
#[inline]
pub fn spin_loop() {
    if sched::yield_point().is_none() {
        std::hint::spin_loop();
    }
}

/// Model-aware `std::thread::yield_now` (same semantics as
/// [`spin_loop`] under the model).
#[inline]
pub fn yield_now() {
    if sched::yield_point().is_none() {
        std::thread::yield_now();
    }
}
