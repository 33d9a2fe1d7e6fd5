//! The virtual-atomics facade: the single switch point between real
//! `std::sync::atomic` and the `lfc-model` shadow-memory implementation.
//!
//! Every protocol atomic in `lfc-runtime`, `lfc-dcas`, `lfc-hazard` and
//! `lfc-structures` goes through this module (the other crates re-export it
//! as their own crate-local `sync`). In a normal build it re-exports `std`
//! verbatim — zero cost by construction, verified by the tracked
//! `reproduce bench` numbers. Under `RUSTFLAGS="--cfg lfc_model"` it
//! re-exports [`lfc_model::atomic`], whose types pass through to `std`
//! until a model execution is live on the calling thread and are fully
//! instrumented (scheduling points, vector clocks, SC constraint graph,
//! freed-block detection) inside one.
//!
//! Spin hints and yields in protocol loops must also come from here:
//! under the model they are scheduling points that hand the baton to
//! another runnable thread, which is both what a spinning thread is
//! waiting for and what keeps bounded exploration free of livelocked
//! branches.
//!
//! Deliberately *not* routed through the facade: pure diagnostic counters
//! (every [`crate::ShardedCounter`]: `lfc-alloc`'s stats,
//! `lfc-dcas::counters`, the hazard domain's retire total). Tests and
//! heuristics read them, but no protocol decision does, so instrumenting
//! them would only multiply scheduling points; they stay on plain `std`
//! atomics where noted at their definitions.

#[cfg(not(lfc_model))]
pub use std::hint::spin_loop;
#[cfg(not(lfc_model))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicUsize, Ordering};
#[cfg(not(lfc_model))]
pub use std::thread::yield_now;

#[cfg(lfc_model)]
pub use lfc_model::atomic::{
    fence, spin_loop, yield_now, AtomicBool, AtomicPtr, AtomicUsize, Ordering,
};
