//! Exponential backoff, as used in the paper's evaluation (§6):
//!
//! > "every time a thread failed to acquire the lock or, in case of the
//! > lock-free objects, failed to insert or remove an element due to a
//! > conflict, the time it waited before trying again was doubled."

use crate::rng::SmallRng;
use std::time::{Duration, Instant};

/// Backoff configuration. `start_ns == 0` disables waiting entirely (a bare
/// spin hint is still issued so tight retry loops stay polite).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffCfg {
    /// Initial wait in nanoseconds (0 disables backoff).
    pub start_ns: u32,
    /// Cap on the wait in nanoseconds.
    pub max_ns: u32,
}

impl BackoffCfg {
    /// No backoff: retry immediately (with a spin hint).
    pub const NONE: BackoffCfg = BackoffCfg {
        start_ns: 0,
        max_ns: 0,
    };

    /// Doubling backoff between `start_ns` and `max_ns` nanoseconds.
    pub const fn exponential(start_ns: u32, max_ns: u32) -> Self {
        BackoffCfg { start_ns, max_ns }
    }

    /// Whether this configuration actually waits.
    pub const fn is_enabled(&self) -> bool {
        self.start_ns != 0
    }
}

impl Default for BackoffCfg {
    fn default() -> Self {
        BackoffCfg::NONE
    }
}

/// Per-attempt backoff state; create one per operation invocation.
#[derive(Debug)]
pub struct Backoff {
    cfg: BackoffCfg,
    cur_ns: u32,
    failures: u32,
    /// Present iff this instance jitters (see [`Backoff::new_jittered`]).
    rng: Option<SmallRng>,
}

impl Backoff {
    /// Fresh state for one operation attempt sequence.
    pub fn new(cfg: BackoffCfg) -> Self {
        Backoff {
            cur_ns: cfg.start_ns,
            cfg,
            failures: 0,
            rng: None,
        }
    }

    /// As [`Backoff::new`], with jitter: each wait is drawn uniformly
    /// from `[cur/2, cur]` before the doubling step. Threads that failed
    /// on the same conflict at the same instant (a shed burst, an OOM
    /// wave hitting every shard at once) would otherwise retry in
    /// lockstep and collide again; the jitter decorrelates the herd while
    /// keeping the same expected wait envelope.
    pub fn new_jittered(cfg: BackoffCfg, seed: u64) -> Self {
        Backoff {
            cur_ns: cfg.start_ns,
            cfg,
            failures: 0,
            rng: Some(SmallRng::seed_from_u64(seed)),
        }
    }

    /// Number of times [`Backoff::fail`] has been called.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Record a failed attempt and wait (doubling, jittered when
    /// constructed so) if backoff is enabled.
    pub fn fail(&mut self) {
        self.failures += 1;
        if !self.cfg.is_enabled() {
            crate::sync::spin_loop();
            return;
        }
        let wait_ns = match &mut self.rng {
            Some(rng) => {
                let half = (self.cur_ns / 2).max(1) as u64;
                half + rng.below(half + 1)
            }
            None => self.cur_ns as u64,
        };
        spin_wait(Duration::from_nanos(wait_ns));
        self.cur_ns = self.cur_ns.saturating_mul(2).min(self.cfg.max_ns);
    }
}

/// One round of a *camped* wait — a bounded rendezvous window (an
/// elimination slot waiting for its partner, a quiesce gate waiting for
/// in-flight operations to drain) where the partner must actually run
/// for the wait to end: yields every fourth round so an oversubscribed
/// core hands the partner its quantum, spins otherwise to catch a fast
/// partner without paying the scheduler.
#[inline]
pub fn camp_round(i: u32) {
    if i % 4 == 3 {
        crate::sync::yield_now();
    } else {
        crate::sync::spin_loop();
    }
}

/// Busy-wait for roughly `d`. Sub-microsecond waits cannot be delegated to
/// the OS scheduler, so we spin on the monotonic clock.
pub fn spin_wait(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        crate::sync::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled() {
        assert!(!BackoffCfg::NONE.is_enabled());
        assert!(BackoffCfg::exponential(100, 1000).is_enabled());
    }

    #[test]
    fn disabled_backoff_does_not_sleep() {
        let mut b = Backoff::new(BackoffCfg::NONE);
        let t = Instant::now();
        for _ in 0..1000 {
            b.fail();
        }
        assert!(t.elapsed() < Duration::from_millis(50));
        assert_eq!(b.failures(), 1000);
    }

    #[test]
    fn waits_double_up_to_max() {
        let mut b = Backoff::new(BackoffCfg::exponential(100, 400));
        assert_eq!(b.cur_ns, 100);
        b.fail();
        assert_eq!(b.cur_ns, 200);
        b.fail();
        assert_eq!(b.cur_ns, 400);
        b.fail();
        assert_eq!(b.cur_ns, 400, "capped at max");
    }

    #[test]
    fn enabled_backoff_actually_waits() {
        let mut b = Backoff::new(BackoffCfg::exponential(200_000, 1_600_000));
        let t = Instant::now();
        for _ in 0..4 {
            b.fail(); // 200µs + 400µs + 800µs + 1.6ms = 3ms
        }
        assert!(t.elapsed() >= Duration::from_micros(2800));
    }

    #[test]
    fn jittered_waits_stay_inside_the_envelope() {
        // Deterministic: the jitter draw is seeded. Each wait must land in
        // [cur/2, cur] and the ladder must still double up to the cap.
        let mut b = Backoff::new_jittered(BackoffCfg::exponential(100, 400), 7);
        assert_eq!(b.cur_ns, 100);
        b.fail();
        assert_eq!(b.cur_ns, 200);
        b.fail();
        assert_eq!(b.cur_ns, 400);
        b.fail();
        assert_eq!(b.cur_ns, 400, "capped at max");
        assert_eq!(b.failures(), 3);
    }

    #[test]
    fn camp_round_mixes_spins_and_yields() {
        // Smoke: must not panic or wait unboundedly for any round index.
        for i in 0..16 {
            camp_round(i);
        }
    }

    #[test]
    fn spin_wait_is_roughly_accurate() {
        let t = Instant::now();
        spin_wait(Duration::from_micros(500));
        let e = t.elapsed();
        assert!(e >= Duration::from_micros(500));
    }
}
