//! Model-checked descriptor reuse: every thread owns one descriptor record
//! and reuses it for each published commit under a new sequence number
//! (`lfc_dcas::kcas`, "One descriptor per thread"). Two complete
//! preemption-bound-2 searches, each with a sabotage that must be caught:
//!
//! * **Stale helper.** A helper copies incarnation `n` of the owner's
//!   record and stalls; the owner finishes `n` (its entry 1 writes back its
//!   old value, so the word ABAs) and starts `n + 1` over other words; the
//!   helper resumes. Its sequence-number check must make it touch nothing:
//!   both commits end whole. With `SKIP_SEQ_CHECK` the helper adopts
//!   whatever incarnation the record holds, wins `n + 1`'s entry 1 on
//!   `n`'s word and declares `n + 1` done with its first word still
//!   holding the descriptor.
//! * **Late mark after reuse.** The stalled helper's mark lands on entry 1
//!   after the owner has moved on; the owner then reads that word and must
//!   get the decided raw value without waiting for the helper, by
//!   reverting the mark from the helper's pending-install slot. With
//!   `SKIP_PENDING_REVERT` the reader can only wait for the preempted
//!   installer, and the bounded search reports the wait.
//!
//! The owner stalls after line D10 through the test-support
//! `announce_only` and yields (a free switch under the preemption bound),
//! so the two preemptions the searches need go to the helper's stall and
//! the owner's.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
#![cfg(lfc_model)]

use lfc_dcas::adopt::model_toggles::{SKIP_PENDING_REVERT, SKIP_SEQ_CHECK};
use lfc_dcas::kcas::test_support;
use lfc_dcas::{commit_entries, word, CasnEntry, CasnResult, DAtomic};
use lfc_runtime::sync::yield_now;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Word values before either commit.
const START: [usize; 4] = [8, 16, 40, 48];
/// Incarnation `n` over words 0–1 (entry 1 writes its old value back),
/// then incarnation `n + 1` over words 2–3.
const FIRST: [(usize, usize); 2] = [(8, 24), (16, 16)];
const SECOND: [(usize, usize); 2] = [(40, 56), (48, 64)];
/// Every word after both commits.
const END: [usize; 4] = [24, 16, 56, 64];

fn entries(ws: &[DAtomic], plan: [(usize, usize); 2]) -> [CasnEntry; 2] {
    std::array::from_fn(|i| CasnEntry {
        ptr: &ws[i],
        old: plan[i].0,
        new: plan[i].1,
        hp: 0,
    })
}

/// One round. The owner announces `FIRST` and stalls, resumes it, commits
/// `SECOND`, then (when `read_back`) yields once and reads word 1;
/// the helper waits for the announcement and reads word 0, helping
/// whatever incarnation it finds there.
fn scenario(read_back: bool) {
    let ws: Arc<Vec<DAtomic>> = Arc::new(START.iter().map(|&v| DAtomic::new(v)).collect());
    // Root pins first: three registered threads keep the owner out of the
    // solo regime, which would commit without a descriptor.
    let _g = lfc_hazard::pin();

    let owner = {
        let ws = ws.clone();
        lfc_model::thread::spawn(move || {
            let g = lfc_hazard::pin();
            let first = entries(&ws[..2], FIRST);
            // Safety: the scenario's `Arc` keeps the distinct words alive,
            // and this thread starts no commit before `resume` decides it.
            let w = unsafe { test_support::announce_only(&first) }.expect("word 0 holds 8");
            yield_now();
            assert_eq!(unsafe { test_support::resume(w, &g) }, CasnResult::Success);
            let second = entries(&ws[2..], SECOND);
            // Safety: as above.
            let r = unsafe { commit_entries(&second, &g) };
            assert_eq!(r, CasnResult::Success, "the next incarnation's outcome");
            if read_back {
                // One free switch: the helper may install its late mark
                // here, then be preempted before it reverts it.
                yield_now();
                assert_eq!(ws[1].read(&g), END[1], "the reader gets the decided value");
            }
        })
    };
    let helper = {
        let ws = ws.clone();
        lfc_model::thread::spawn(move || {
            let g = lfc_hazard::pin();
            for _ in 0..3 {
                if !word::is_raw(ws[0].load_word()) {
                    break;
                }
                yield_now();
            }
            let _ = ws[0].read(&g);
        })
    };
    owner.join();
    helper.join();

    // Plain loads: `DAtomic::read` would help — and so clean up — exactly
    // the leftovers these scenarios hunt for.
    let got: Vec<usize> = ws.iter().map(DAtomic::load_word).collect();
    assert!(
        got.iter().all(|&w| word::is_raw(w)),
        "descriptor left installed ({got:x?})"
    );
    assert_eq!(got, END, "both commits took effect whole");
}

fn opts() -> lfc_model::ExploreOpts {
    lfc_model::ExploreOpts {
        preemption_bound: 2,
        step_budget: 20_000,
        max_executions: 400_000,
        memory: lfc_model::MemoryMode::Interleaving,
    }
}

/// Clean as built (complete search), then caught with `toggle` set.
fn clean_then_caught(name: &str, read_back: bool, toggle: &AtomicBool) -> lfc_model::FailureKind {
    let report = lfc_model::explore(opts(), || scenario(read_back));
    if let Some(f) = &report.failure {
        panic!("{name}: descriptor reuse must be invisible, but:\n{f}");
    }
    assert!(
        report.complete,
        "{name}: the claim is a COMPLETE bounded search ({} executions hit a budget)",
        report.executions
    );
    eprintln!(
        "{name}: clean over {} executions (pruned: {})",
        report.executions, report.pruned
    );

    toggle.store(true, Ordering::SeqCst);
    let report = lfc_model::explore(opts(), || scenario(read_back));
    toggle.store(false, Ordering::SeqCst);
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("{name}: the sabotage must be caught by the bounded explorer"));
    eprintln!(
        "{name}: sabotage caught after {} executions:\n{failure}",
        report.executions
    );
    failure.kind
}

/// Both searches in ONE test: the sabotage toggles are process-global.
#[test]
fn reused_descriptors_are_safe_then_sabotage_caught() {
    let kind = clean_then_caught("stale helper", false, &SKIP_SEQ_CHECK);
    assert!(
        matches!(&kind, lfc_model::FailureKind::Panic(_)),
        "stale helper: expected a torn commit, got {kind:?}"
    );

    let kind = clean_then_caught("late mark after reuse", true, &SKIP_PENDING_REVERT);
    assert!(
        matches!(kind, lfc_model::FailureKind::StepBudget),
        "late mark after reuse: expected the reader to wait out the budget, got {kind:?}"
    );
}
