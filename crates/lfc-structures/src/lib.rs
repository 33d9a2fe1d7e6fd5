//! Move-ready concurrent data objects and their baselines.
//!
//! * [`MsQueue`] — the Michael–Scott lock-free queue, move-ready (paper §5.1)
//! * [`TreiberStack`] — the Treiber lock-free stack, move-ready (paper §5.2)
//! * [`StampedStack`] — the same stack with a version-stamped top (paper §7's
//!   ABA fix): one [`treiber::Treiber`] algorithm, two top-word formats
//! * [`OneSlot`] — a bounded single-element container (exercises move aborts)
//! * [`OrderedSet`] — a Harris/Michael sorted linked-list set, keyed and
//!   move-ready (the list of the paper's §1.1 scenario)
//! * [`LfHashMap`] — a split-ordered hash map with incremental lock-free
//!   resize, keyed and move-ready (the hash map of §1.1)
//! * [`LfSkipMap`] — a skip-list map whose bottom level is the same keyed
//!   chain, with ordered `range` queries
//! * [`elim`] — the elimination exchanger behind [`TreiberStack`]'s backoff
//! * [`PlainMsQueue`], [`PlainTreiberStack`] — textbook baselines without the
//!   `scas` transformation, for the normal-operation overhead comparison
//! * [`LockQueue`], [`LockStack`], [`lock_move`] — the paper's blocking
//!   test-test-and-set baseline: one locked list ([`locked::LockList`])
//!   inserting at either end, and its two-lock composed move
//!
//! The three keyed objects share one traversal kernel: the Harris insert
//! and remove are written once, and each object supplies only its `find`,
//! its key match and at most two hooks (DESIGN.md, "One keyed chain").
//!
//! All lock-free objects share the pooling memory manager (`lfc-alloc`) and
//! the unified epoch+hazard reclamation domain (`lfc-hazard`): traversals
//! run under one operation epoch, and hazard slots protect what a composed
//! operation captures.

#![warn(missing_docs)]

mod node;
pub(crate) mod traverse;

#[doc(hidden)]
pub mod sync;

pub mod elim;
pub mod hash_map;
pub mod locked;
pub mod ms_queue;
pub mod one_slot;
pub mod ordered_list;
pub mod plain;
pub mod skip_map;
pub mod stamped;
pub mod treiber;

pub use hash_map::LfHashMap;
pub use locked::{lock_move, LockQueue, LockStack};
pub use ms_queue::MsQueue;
pub use one_slot::OneSlot;
pub use ordered_list::OrderedSet;
pub use plain::{PlainMsQueue, PlainTreiberStack};
pub use skip_map::LfSkipMap;
pub use stamped::StampedStack;
pub use treiber::TreiberStack;

/// Seeded-bug / exploration switches for the model checker (mirrors
/// `lfc_hazard::model_toggles`): compiled only under `--cfg lfc_model`.
#[cfg(lfc_model)]
pub mod model_toggles {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Route plain stack push/pop through the elimination exchanger
    /// *before* the `top` CAS, so the model scenario reaches collision
    /// interleavings without having to manufacture CAS failures first.
    pub static FORCE_ELIM: AtomicBool = AtomicBool::new(false);

    pub(crate) fn force_elim() -> bool {
        FORCE_ELIM.load(Ordering::Relaxed)
    }

    /// Seeded bug: skip the hash map's `UNCLAIMED → CLAIMED` slot CAS, so
    /// every thread that finds a bucket unthreaded believes it is the
    /// claimer and two threaders write one slot. The resize model search
    /// must catch it.
    pub static SKIP_CLAIM: AtomicBool = AtomicBool::new(false);

    pub(crate) fn skip_claim() -> bool {
        SKIP_CLAIM.load(Ordering::Relaxed)
    }

    /// Seeded bug: drop the skip map's fallback sweep, so a tower level
    /// whose targeted unlink failed stays linked after its remover
    /// returns. The skip-list model search must catch it.
    pub static SKIP_TOWER_FALLBACK: AtomicBool = AtomicBool::new(false);

    pub(crate) fn skip_tower_fallback() -> bool {
        SKIP_TOWER_FALLBACK.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    /// Flush the reclamation domain until `cond` holds or a 30 s deadline
    /// passes, then report whether it held. Drop-count assertions need
    /// this since PR 3: a sibling test pinned in an epoch spanning our
    /// retires defers reclamation to a later scan.
    pub(crate) fn flush_until(cond: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !cond() && std::time::Instant::now() < deadline {
            lfc_hazard::flush();
            std::thread::yield_now();
        }
        cond()
    }
}
