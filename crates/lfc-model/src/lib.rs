//! `lfc-model` — a deterministic-interleaving model checker and
//! linearizability fuzzer for the lock-free composition stack (a hand-rolled
//! mini-loom: the container image has no crates.io, and loom in any case
//! pins the SeqCst order to the execution interleaving, which cannot
//! reproduce the class of bug this crate exists to catch).
//!
//! # How it plugs in
//!
//! `lfc-runtime`, `lfc-dcas`, `lfc-hazard` and `lfc-structures` route every
//! protocol atomic through a crate-local `sync` facade. In normal builds the
//! facade re-exports `std::sync::atomic` — zero cost, nothing of this crate
//! is reachable. Under `RUSTFLAGS="--cfg lfc_model"` the facade re-exports
//! [`atomic`], whose types fall through to `std` until a model execution is
//! live on the calling thread and become fully instrumented inside one.
//!
//! # What an execution is
//!
//! [`explore`] runs a closure repeatedly. Model threads (spawned with
//! [`thread::spawn`]) are real OS threads serialized by a baton; every
//! instrumented operation is a scheduling point. The scheduler owns all
//! nondeterminism as an explicit choice tape, so any execution replays
//! exactly from its tape ([`replay`]).
//!
//! * **Bounded-exhaustive mode** ([`explore`]): DFS over all choices, cut
//!   by a preemption bound and a DPOR-style sleep-set rule (a sibling
//!   branch already explored sleeps until a conflicting operation wakes
//!   it).
//! * **Random mode** ([`explore_random`]): seeded schedules for state
//!   spaces too large to enumerate; failures are shrunk
//!   ([`shrink_schedule`]) and reported with seed + tape + timeline.
//!
//! # Memory model
//!
//! Two strengths ([`MemoryMode`]):
//!
//! * `Interleaving` — every load sees the newest store: plain sequential
//!   consistency. Right for linearizability fuzzing and cheapest.
//! * `Weak` — loads may return stale stores when coherence, happens-before
//!   (vector clocks) and the SC constraint graph ([`sc`]) all allow it.
//!   This models non-multi-copy-atomic behaviour precisely enough to
//!   rediscover the PR 3 stale-epoch-tag use-after-free while proving the
//!   fixed tagging rule clean under the same bound — see
//!   `tests/stale_tag.rs`.
//!
//! Reclamation bugs surface as real detections, not crashes: under a model
//! execution `lfc-alloc` quarantines freed blocks (kept mapped until the
//! execution ends), and any instrumented access to a quarantined address
//! reports a use-after-free with a replayable schedule.
//!
//! # Scope and simplifications
//!
//! * Modification order equals execution order; RMWs always read the
//!   newest store; failed weak CASes are not spuriously failed.
//!   Non-atomic data is not instrumented (keep model workloads on `Copy`
//!   payloads).
//! * Only `SeqCst` fences are modelled (the instrumented crates use no
//!   weaker fences).
//! * SC fences are totally ordered by execution order; SC *operations* keep
//!   an explorable order via the constraint graph. A fence executed after a
//!   load cannot retroactively constrain it — a documented
//!   over-approximation on an edge no audited protocol relies on.
//! * Fences propagate *write* visibility (C++17 \[atomics.order\] p6) but
//!   not read-read coherence: CoRR holds through happens-before
//!   (release/acquire, spawn/join, program order) as C++17 requires, while
//!   the C++20/P0668 read-before-fence strengthening is deliberately not
//!   modelled — the repo's ordering audit reasons in the C11/C++17 model,
//!   and the stale-tag bug class lives exactly in that gap.
//! * Descriptor records (lfc-dcas) are static and reused by sequence
//!   number, never freed: a stale helper's reuse hazards are out of the
//!   quarantine's reach and are searched for directly (`model_reuse.rs`).

#![warn(missing_docs)]

pub mod atomic;
mod clock;
mod explore;
mod mem;
pub mod rt;
pub mod sc;
mod sched;
pub mod thread;

pub use clock::MAX_MODEL_THREADS;
pub use explore::{
    explore, explore_random, render_timeline, replay, shrink_schedule, ExploreOpts, ExploreReport,
    FailureReport, FuzzOpts,
};
pub use mem::MemoryMode;
pub use sched::{Choice, FailureKind, TraceEv, STALL_BOUND};

#[cfg(test)]
mod tests {
    use super::atomic::{fence, AtomicUsize, Ordering};
    use super::*;
    use std::sync::Arc;

    fn fails(report: &ExploreReport) -> bool {
        report.failure.is_some()
    }

    #[test]
    fn passthrough_outside_executions() {
        let a = AtomicUsize::new(1);
        a.store(5, Ordering::Release);
        assert_eq!(a.load(Ordering::Acquire), 5);
        assert_eq!(a.fetch_add(2, Ordering::AcqRel), 5);
        assert_eq!(a.swap(9, Ordering::SeqCst), 7);
        assert_eq!(
            a.compare_exchange(9, 11, Ordering::SeqCst, Ordering::SeqCst),
            Ok(9)
        );
        fence(Ordering::SeqCst);
        super::atomic::spin_loop();
        super::atomic::yield_now();
    }

    #[test]
    fn lost_update_found_and_atomic_rmw_clean() {
        // Two threads doing load;store increments race; fetch_add does not.
        let racy = explore(ExploreOpts::default(), || {
            let a = Arc::new(AtomicUsize::new(0));
            let t: Vec<_> = (0..2)
                .map(|_| {
                    let a = a.clone();
                    thread::spawn(move || {
                        let v = a.load(Ordering::SeqCst);
                        a.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in t {
                h.join();
            }
            assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
        });
        assert!(fails(&racy), "the lost-update interleaving must be found");
        assert!(
            matches!(racy.failure.as_ref().unwrap().kind, FailureKind::Panic(_)),
            "surfaced as the assertion panic"
        );

        let atomic = explore(ExploreOpts::default(), || {
            let a = Arc::new(AtomicUsize::new(0));
            let t: Vec<_> = (0..2)
                .map(|_| {
                    let a = a.clone();
                    thread::spawn(move || {
                        a.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in t {
                h.join();
            }
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
        assert!(!fails(&atomic), "fetch_add increments never lose updates");
        assert!(atomic.complete, "tiny DFS should exhaust");
    }

    /// Store-buffering litmus (the Dekker core): with SeqCst accesses both
    /// threads cannot read 0 — the SC constraint graph must refuse the
    /// second stale read. With Release/Acquire the weak outcome is real and
    /// must be found.
    #[test]
    fn store_buffer_litmus_respects_seq_cst() {
        let run = |store_ord: Ordering, load_ord: Ordering| {
            explore(
                ExploreOpts {
                    memory: MemoryMode::Weak,
                    ..ExploreOpts::default()
                },
                move || {
                    let x = Arc::new(AtomicUsize::new(0));
                    let y = Arc::new(AtomicUsize::new(0));
                    let (x1, y1) = (x.clone(), y.clone());
                    let r1 = Arc::new(AtomicUsize::new(9));
                    let r2 = Arc::new(AtomicUsize::new(9));
                    let (r1c, r2c) = (r1.clone(), r2.clone());
                    let a = thread::spawn(move || {
                        x1.store(1, store_ord);
                        r1c.store(y1.load(load_ord), Ordering::Relaxed);
                    });
                    let (x2, y2) = (x.clone(), y.clone());
                    let b = thread::spawn(move || {
                        y2.store(1, store_ord);
                        r2c.store(x2.load(load_ord), Ordering::Relaxed);
                    });
                    a.join();
                    b.join();
                    let (v1, v2) = (r1.load(Ordering::Relaxed), r2.load(Ordering::Relaxed));
                    assert!(
                        !(v1 == 0 && v2 == 0),
                        "store-buffering outcome r1=r2=0 observed"
                    );
                },
            )
        };
        let sc = run(Ordering::SeqCst, Ordering::SeqCst);
        assert!(!fails(&sc), "SeqCst forbids r1=r2=0: {:?}", sc.failure);
        let weak = run(Ordering::Release, Ordering::Acquire);
        assert!(fails(&weak), "release/acquire permits r1=r2=0");
    }

    /// Message passing: the data write must be visible once the
    /// release-stored flag is acquire-loaded; with Relaxed the stale data
    /// read must be found.
    #[test]
    fn message_passing_litmus() {
        let run = |store_ord: Ordering, load_ord: Ordering| {
            explore(
                ExploreOpts {
                    memory: MemoryMode::Weak,
                    ..ExploreOpts::default()
                },
                move || {
                    let data = Arc::new(AtomicUsize::new(0));
                    let flag = Arc::new(AtomicUsize::new(0));
                    let (d1, f1) = (data.clone(), flag.clone());
                    let w = thread::spawn(move || {
                        d1.store(42, Ordering::Relaxed);
                        f1.store(1, store_ord);
                    });
                    let (d2, f2) = (data.clone(), flag.clone());
                    let r = thread::spawn(move || {
                        if f2.load(load_ord) == 1 {
                            assert_eq!(d2.load(Ordering::Relaxed), 42, "stale data after flag");
                        }
                    });
                    w.join();
                    r.join();
                },
            )
        };
        let ra = run(Ordering::Release, Ordering::Acquire);
        assert!(
            !fails(&ra),
            "release/acquire forbids stale data: {:?}",
            ra.failure
        );
        let rl = run(Ordering::Relaxed, Ordering::Relaxed);
        assert!(fails(&rl), "relaxed flag permits stale data");
    }

    /// The SC-fence Dekker (the shape `lfc-hazard`'s scan protocol uses):
    /// plain stores ordered by SeqCst fences on both sides must still
    /// forbid the both-miss outcome.
    #[test]
    fn fence_dekker_litmus() {
        let report = explore(
            ExploreOpts {
                memory: MemoryMode::Weak,
                ..ExploreOpts::default()
            },
            || {
                let x = Arc::new(AtomicUsize::new(0));
                let y = Arc::new(AtomicUsize::new(0));
                let r1 = Arc::new(AtomicUsize::new(9));
                let r2 = Arc::new(AtomicUsize::new(9));
                let (x1, y1, r1c) = (x.clone(), y.clone(), r1.clone());
                let a = thread::spawn(move || {
                    x1.store(1, Ordering::Relaxed);
                    fence(Ordering::SeqCst);
                    r1c.store(y1.load(Ordering::Relaxed), Ordering::Relaxed);
                });
                let (x2, y2, r2c) = (x.clone(), y.clone(), r2.clone());
                let b = thread::spawn(move || {
                    y2.store(1, Ordering::Relaxed);
                    fence(Ordering::SeqCst);
                    r2c.store(x2.load(Ordering::Relaxed), Ordering::Relaxed);
                });
                a.join();
                b.join();
                assert!(
                    !(r1.load(Ordering::Relaxed) == 0 && r2.load(Ordering::Relaxed) == 0),
                    "fence Dekker violated"
                );
            },
        );
        assert!(
            !fails(&report),
            "SC fences forbid both-miss: {:?}",
            report.failure
        );
    }

    /// Read-read coherence across threads (CoRR + happens-before): once a
    /// read of the new value happens-before you (here via release/acquire
    /// on a side channel), you may not read the older value — for ANY
    /// orderings on the data location. The read-view propagation enforces
    /// this; without it weak mode would admit C11-impossible schedules.
    #[test]
    fn corr_litmus_no_time_travel_after_observed_read() {
        let report = explore(
            ExploreOpts {
                memory: MemoryMode::Weak,
                ..ExploreOpts::default()
            },
            || {
                let x = Arc::new(AtomicUsize::new(0));
                let rr = Arc::new(AtomicUsize::new(0));
                let f = Arc::new(AtomicUsize::new(0));
                let x0 = x.clone();
                let w = thread::spawn(move || {
                    x0.store(1, Ordering::Relaxed);
                });
                let (x1, rr1, f1) = (x.clone(), rr.clone(), f.clone());
                let t1 = thread::spawn(move || {
                    rr1.store(x1.load(Ordering::Relaxed), Ordering::Relaxed);
                    f1.store(1, Ordering::Release);
                });
                let (x2, rr2, f2) = (x.clone(), rr.clone(), f.clone());
                let t2 = thread::spawn(move || {
                    if f2.load(Ordering::Acquire) == 1 && rr2.load(Ordering::Relaxed) == 1 {
                        assert_eq!(
                            x2.load(Ordering::Relaxed),
                            1,
                            "CoRR violated: x read 0 after an observed read of 1"
                        );
                    }
                });
                w.join();
                t1.join();
                t2.join();
            },
        );
        assert!(
            report.failure.is_none(),
            "read-read coherence must hold: {:?}",
            report.failure
        );
    }

    #[test]
    fn weak_mode_finds_stale_sc_read_when_consistent() {
        // A single writer bumps a SeqCst counter; a reader (no fences, no
        // other constraints) may legally observe the old value in weak mode
        // — the staleness the epoch layer's scan must tolerate. The DFS
        // must therefore find the branch where it does.
        let report = explore(
            ExploreOpts {
                memory: MemoryMode::Weak,
                ..ExploreOpts::default()
            },
            || {
                let c = Arc::new(AtomicUsize::new(0));
                let c1 = c.clone();
                let w = thread::spawn(move || {
                    c1.fetch_add(1, Ordering::SeqCst);
                });
                let c2 = c.clone();
                let r = thread::spawn(move || {
                    // In some explored execution the RMW precedes this load
                    // in wall-clock order yet the load still returns 0.
                    assert_eq!(c2.load(Ordering::SeqCst), 1, "stale read found");
                });
                w.join();
                r.join();
            },
        );
        assert!(
            fails(&report),
            "a schedule with the stale/early read exists"
        );
    }

    #[test]
    fn replay_reproduces_failure() {
        let body = || {
            let a = Arc::new(AtomicUsize::new(0));
            let a1 = a.clone();
            let t = thread::spawn(move || {
                let v = a1.load(Ordering::SeqCst);
                a1.store(v + 1, Ordering::SeqCst);
            });
            let v = a.load(Ordering::SeqCst);
            a.store(v + 1, Ordering::SeqCst);
            t.join();
            assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
        };
        let report = explore(ExploreOpts::default(), body);
        let failure = report.failure.expect("lost update must be found");
        let replayed = replay(
            &failure.schedule,
            MemoryMode::Interleaving,
            failure.preemption_bound,
            body,
        )
        .expect("replaying the schedule reproduces the failure");
        assert_eq!(
            std::mem::discriminant(&replayed.kind),
            std::mem::discriminant(&failure.kind)
        );
        assert!(!replayed.timeline.is_empty());
    }

    #[test]
    fn random_mode_finds_and_shrinks() {
        let body = || {
            let a = Arc::new(AtomicUsize::new(0));
            let a1 = a.clone();
            let t = thread::spawn(move || {
                let v = a1.load(Ordering::SeqCst);
                a1.store(v + 1, Ordering::SeqCst);
            });
            let v = a.load(Ordering::SeqCst);
            a.store(v + 1, Ordering::SeqCst);
            t.join();
            assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
        };
        let report = explore_random(
            FuzzOpts {
                seed: 7,
                executions: 500,
                ..FuzzOpts::default()
            },
            body,
        );
        let failure = report.failure.expect("random mode finds the lost update");
        assert!(failure.seed.is_some());
        // The shrunk schedule still replays to the same failure.
        assert!(replay(
            &failure.schedule,
            MemoryMode::Interleaving,
            failure.preemption_bound,
            body
        )
        .is_some());
    }

    #[test]
    fn spin_yield_terminates_handshake() {
        // A spin-wait on a flag set by the other thread must terminate
        // under DFS thanks to the yield rule (no livelocked branches).
        let report = explore(ExploreOpts::default(), || {
            let f = Arc::new(AtomicUsize::new(0));
            let f1 = f.clone();
            let t = thread::spawn(move || {
                f1.store(1, Ordering::Release);
            });
            while f.load(Ordering::Acquire) == 0 {
                atomic::spin_loop();
            }
            t.join();
        });
        assert!(!fails(&report), "{:?}", report.failure);
        assert!(report.complete);
    }

    #[test]
    fn timeline_renders_aligned_columns() {
        let trace = vec![
            TraceEv {
                tid: 0,
                text: "store[SeqCst] a0 = 0x1".into(),
            },
            TraceEv {
                tid: 1,
                text: "load[SeqCst] a0 -> 0x1".into(),
            },
        ];
        let s = render_timeline(&trace, 2);
        assert!(s.contains("T0"));
        assert!(s.contains("T1"));
        assert!(s.lines().count() >= 3);
        let header_cols = s.lines().next().unwrap().matches('|').count();
        assert_eq!(header_cols, 2);
    }
}
