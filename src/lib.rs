//! # lockfree-compose
//!
//! A lock-free methodology for composing concurrent data objects, after
//! Cederman & Tsigas, *Supporting Lock-Free Composition of Concurrent Data
//! Objects* (PPoPP 2010).
//!
//! The crate provides atomic **move** operations between independently
//! designed lock-free objects (queues, stacks, ordered sets, hash maps) by
//! unifying the linearization points of the source's `remove` and the
//! target's `insert` with a software double-word compare-and-swap.
//!
//! ```
//! use lockfree_compose::{move_one, MoveOutcome, MsQueue, TreiberStack};
//!
//! let queue: MsQueue<u64> = MsQueue::new();
//! let stack: TreiberStack<u64> = TreiberStack::new();
//! queue.enqueue(42);
//!
//! // Atomically dequeue from the queue and push onto the stack: no
//! // concurrent observer can see the element absent from both.
//! assert_eq!(move_one(&queue, &stack), MoveOutcome::Moved);
//! assert_eq!(stack.pop(), Some(42));
//! assert_eq!(move_one(&queue, &stack), MoveOutcome::SourceEmpty);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! reproduction of the paper's evaluation.

#![warn(missing_docs)]

pub use lfc_core::{
    move_keyed, move_keyed_to_all, move_keyed_to_unkeyed, move_one, move_to_all, swap, At,
    Composition, DynMoveTarget, InsertCtx, InsertOutcome, KeyedMoveSource, KeyedMoveTarget,
    LinPoint, MoveOutcome, MoveSource, MoveTarget, NormalCas, RemoveCtx, RemoveOutcome, ScasResult,
    SwapOutcome, MAX_ENTRIES, MAX_TARGETS,
};
pub use lfc_core::{BatchGate, BatchOp, MoveKeyedOp, MoveKeyedToAllOp, MoveOneOp, SwapOp};
/// The composition-engine builder module (stages, [`Composition`]).
pub mod compose {
    pub use lfc_core::compose::{Commit, Composition, InsertStage, Stages};
}
/// The contention-adaptive batched front-end (claim-pattern group commit):
/// result-word codecs and engagement counters.
pub mod batch {
    pub use lfc_core::batch::{counters, decode_move, decode_swap, encode_move, encode_swap};
}
pub use lfc_dcas::DAtomic;
pub use lfc_runtime::{Backoff, BackoffCfg, TtasLock};
pub use lfc_structures::*;

/// Re-export of the hazard-pointer domain (diagnostics and advanced use).
pub mod hazard {
    pub use lfc_hazard::{bank_is_clear, flush, pin, retired_count, stats, Guard};
}

/// Re-export of the pooling allocator statistics.
pub mod alloc_stats {
    pub use lfc_alloc::{outstanding, stats, AllocError, AllocStats};
}

/// Fault-injection subsystem (testing/robustness): named failure sites,
/// injected thread death, and the corpse registry (see
/// `lfc_runtime::fault`).
pub mod fault {
    pub use lfc_runtime::fault::{
        abandon, abandoned_total, abandonment_scope, adopted_total, arm_site, corpse_count,
        corpses, counters, disarm, disarm_site, fired_total, install_quiet_abandon_hook, is_corpse,
        shield_thread, site, thread_is_abandoning, with_registered_peer, Schedule,
    };
}

/// Dead-thread adoption: survivors complete and reclaim operations whose
/// owner died mid-flight (see `lfc_dcas::adopt`).
pub mod adopt {
    pub use lfc_dcas::adopt::{adopt_dead_threads, helped_completions};
}

/// The chaos-hardened sharded ledger service built on composed operations
/// (see `lfc_ledger`): degradation ladder, quiesce protocol, conservation
/// audits.
pub mod ledger {
    pub use lfc_ledger::{
        AuditReport, Health, HealthCfg, HealthStats, Ledger, LedgerCfg, LedgerError, ServiceState,
        SettleOutcome, TendReport, Transition, NOTICE_BASE,
    };
}

/// Linearizability checking toolkit (used by the test-suite; public because
/// it is generally useful for validating composed histories).
pub mod linear {
    pub use lfc_linear::{
        check_linearizable, render_history, CheckResult, Cont, Entry, KeyedMoveResult, KeyedPairOp,
        KeyedPairSpec, MapOp, MapSpec, PairOp, PairSpec, QueueOp, QueueSpec, Recorder, SlotOp,
        SlotSpec, Spec, StackOp, StackSpec, SwapResult, TrioOp, TrioSpec,
    };
}
