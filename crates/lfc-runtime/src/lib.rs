//! Runtime substrate for the lock-free composition library.
//!
//! Provides the pieces every other crate leans on:
//!
//! * [`tid`] — a registry handing out small dense thread ids. The DCAS
//!   protocol marks descriptor pointers with the helping thread's id
//!   (paper §3.2.2) and the hazard-pointer domain indexes its slot banks by
//!   thread id, so ids must be small integers, reused after thread exit.
//! * [`solo`] — detection of the single-threaded ("solo") regime, used by
//!   the composition layer's uncontended fast path to skip descriptor
//!   publication when no helper can exist.
//! * [`backoff`] — the doubling backoff function used by the paper's
//!   evaluation (§6) for both the blocking and the lock-free objects.
//! * [`lock`] — the test-test-and-set lock the paper uses for its blocking
//!   baseline composition (§6).
//! * [`pad`] — 128-byte cache-line padding to eliminate false sharing.
//! * [`counter`] — per-thread sharded event counters, so diagnostics
//!   bumped on every operation do not share a cache line between threads.
//! * [`rng`] — a small deterministic PRNG for workloads and tests.
//! * [`sync`] — the virtual-atomics facade every protocol atomic in this
//!   crate stack goes through: `std::sync::atomic` in normal builds, the
//!   `lfc-model` instrumented shadow memory under `--cfg lfc_model`.
//! * [`fault`] — deterministic fault injection (allocation failure,
//!   thread death) and the corpse/adoption machinery behind the
//!   robustness test tier. Zero-cost when disarmed.

#![warn(missing_docs)]

pub mod backoff;
pub mod counter;
pub mod fault;
pub mod lock;
pub mod pad;
pub mod rng;
pub mod solo;
pub mod sync;
pub mod tid;

pub use backoff::{camp_round, Backoff, BackoffCfg};
pub use counter::ShardedCounter;
pub use lock::TtasLock;
pub use pad::CachePadded;
pub use rng::SmallRng;
pub use tid::{
    active_threads, current_tid, detach_thread, on_thread_exit, register_tid_finalizer,
    registered_high_water, thread_is_exiting, tid_is_claimed, MAX_THREADS,
};
