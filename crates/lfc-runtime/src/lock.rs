//! Test-test-and-set spin lock: the paper's blocking baseline (§6).
//!
//! > "we compared the lock-free concurrent objects with simple blocking
//! > implementations using test-test-and-set to implement a lock."
//!
//! The lock takes a [`BackoffCfg`]: with `BackoffCfg::NONE` every failed
//! acquisition retries immediately (the paper's no-backoff runs); with an
//! exponential configuration the wait doubles on each failed acquisition.

use crate::backoff::{Backoff, BackoffCfg};
use crate::pad::CachePadded;
use crate::sync::{AtomicBool, Ordering};

/// A test-test-and-set spin lock.
#[derive(Debug, Default)]
pub struct TtasLock {
    locked: CachePadded<AtomicBool>,
}

/// RAII guard releasing the lock on drop.
#[derive(Debug)]
pub struct TtasGuard<'a> {
    lock: &'a TtasLock,
}

impl TtasLock {
    /// New, unlocked.
    pub const fn new() -> Self {
        TtasLock {
            locked: CachePadded::new(AtomicBool::new(false)),
        }
    }

    /// Acquire, spinning with the given backoff policy.
    pub fn lock(&self, cfg: BackoffCfg) -> TtasGuard<'_> {
        let mut bo = Backoff::new(cfg);
        loop {
            // Test: spin locally on the cached value first.
            while self.locked.load(Ordering::Relaxed) {
                crate::sync::spin_loop();
            }
            // Test-and-set.
            if !self.locked.swap(true, Ordering::Acquire) {
                return TtasGuard { lock: self };
            }
            bo.fail();
        }
    }
}

impl Drop for TtasGuard<'_> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion_counter() {
        // A non-atomic counter protected by the lock must not lose updates.
        let l = Arc::new(TtasLock::new());
        let shared = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = l.clone();
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    let _g = l.lock(BackoffCfg::NONE);
                    // Deliberately non-atomic read-modify-write under the lock.
                    let v = shared.load(Ordering::Relaxed);
                    shared.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.load(Ordering::Relaxed), 40_000);
    }

    #[test]
    fn mutual_exclusion_with_backoff() {
        let l = Arc::new(TtasLock::new());
        let shared = Arc::new(AtomicU64::new(0));
        let cfg = BackoffCfg::exponential(100, 10_000);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = l.clone();
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let _g = l.lock(cfg);
                    let v = shared.load(Ordering::Relaxed);
                    shared.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.load(Ordering::Relaxed), 8_000);
    }
}
