//! Per-thread sharded event counters.
//!
//! A process-global atomic bumped on every operation by every thread is
//! true sharing: two threads working on disjoint data still ping-pong its
//! cache line. A [`ShardedCounter`] spreads its adds over per-thread shards,
//! each on its own 128-byte padded line ([`CachePadded`]). A thread picks
//! its shard once, from a process-wide round-robin index kept in a
//! thread-local, so it never needs a thread id: an add must not register
//! the thread with [`crate::tid`], or it would raise
//! [`crate::active_threads`] and knock a lone thread off the solo fast
//! path.
//!
//! * [`ShardedCounter::add`] is one Relaxed RMW on the caller's shard.
//!   It stays uncontended while no more than 16 threads add.
//! * [`ShardedCounter::get`] sums Relaxed loads of every shard. It is not
//!   an atomic snapshot, but one reader's successive sums never decrease:
//!   each shard only grows, and read-read coherence keeps a thread's loads
//!   of one location in modification order.
//!
//! Plain `std` atomics, not the [`crate::sync`] model facade: these are
//! diagnostics, and instrumenting them would only add scheduling points to
//! every model execution.

use crate::pad::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shards per counter. Threads past this many share shards round-robin,
/// which costs contention, never accuracy.
const SHARDS: usize = 16;

/// Next shard to hand to a thread that has none yet.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard, or `SHARDS` until its first add. No drop glue,
    /// so it stays usable while other thread-local destructors run.
    static SHARD: Cell<usize> = const { Cell::new(SHARDS) };
}

#[inline]
fn my_shard() -> usize {
    SHARD.with(|s| {
        let i = s.get();
        if i < SHARDS {
            return i;
        }
        let i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        s.set(i);
        i
    })
}

/// A monotone event counter whose adds from different threads touch
/// different cache lines (module docs).
#[derive(Debug)]
pub struct ShardedCounter {
    shards: [CachePadded<AtomicUsize>; SHARDS],
}

impl ShardedCounter {
    /// A counter at zero.
    pub const fn new() -> Self {
        ShardedCounter {
            shards: [const { CachePadded::new(AtomicUsize::new(0)) }; SHARDS],
        }
    }

    /// Add `n` to this thread's shard.
    #[inline]
    pub fn add(&self, n: usize) {
        self.shards[my_shard()].fetch_add(n, Ordering::Relaxed);
    }

    /// The total over all shards (module docs for what a reader may rely
    /// on).
    pub fn get(&self) -> usize {
        self.shards
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.load(Ordering::Relaxed)))
    }
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    const THREADS: usize = if cfg!(miri) { 3 } else { 2 * SHARDS + 3 };
    const ADDS: usize = if cfg!(miri) { 20 } else { 5_000 };

    #[test]
    fn adds_from_many_threads_sum_exactly() {
        let c = ShardedCounter::new();
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let c = &c;
                sc.spawn(move || {
                    for _ in 0..ADDS {
                        c.add(t + 1);
                    }
                });
            }
        });
        assert_eq!(c.get(), ADDS * THREADS * (THREADS + 1) / 2);
    }

    #[test]
    fn one_reader_never_sees_the_sum_decrease() {
        let c = ShardedCounter::new();
        let done = AtomicBool::new(false);
        std::thread::scope(|sc| {
            for _ in 0..2 {
                let c = &c;
                sc.spawn(move || {
                    for _ in 0..ADDS {
                        c.add(1);
                    }
                });
            }
            let (c, done) = (&c, &done);
            sc.spawn(move || {
                let mut last = 0;
                while !done.load(Ordering::Relaxed) {
                    let now = c.get();
                    assert!(now >= last, "sum went back from {last} to {now}");
                    last = now;
                }
            });
            // Stop the reader once both adders have finished.
            while c.get() < 2 * ADDS {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });
        assert_eq!(c.get(), 2 * ADDS);
    }

    #[test]
    fn adding_does_not_register_the_thread() {
        let c = ShardedCounter::new();
        std::thread::spawn(move || {
            c.add(1);
            assert_eq!(c.get(), 1);
            assert!(
                !crate::tid::thread_is_registered(),
                "an add must not claim a thread id"
            );
        })
        .join()
        .unwrap();
    }
}
