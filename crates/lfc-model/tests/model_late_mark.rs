//! Model-checked Lemma 3 at K=3: an executor that installs its marked
//! descriptor word at entry 1 or 2 *after* the operation was decided — the
//! word came back to its old value, through the success swing of an
//! `old == new` entry or through the failure revert — must change it back
//! to the old value itself. Nobody else knows the late mark exists.
//!
//! The initiator commits over three words while a helper reads the first
//! one; a complete preemption-bound-2 search covers the helper finishing
//! the whole commit while the initiator (bound 1) or the helper itself
//! (bound 2) is parked between its decision read (D4) and its install.
//! Every word must end raw, with the decided value.
//!
//! The second phase proves the search has teeth: with the
//! `SKIP_SELF_REVERT` sabotage the late mark stays installed, and the
//! explorer must report it.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
#![cfg(lfc_model)]

use lfc_dcas::adopt::model_toggles::SKIP_SELF_REVERT;
use lfc_dcas::{commit_entries, word, CasnEntry, CasnResult, DAtomic};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Word values before the commit.
const START: [usize; 3] = [8, 16, 40];

/// A successful commit whose entries 1 and 2 write back their old values,
/// so both words hold `old` again once the swing is done.
const SUCCEEDS: [(usize, usize); 3] = [(8, 24), (16, 16), (40, 40)];
/// A commit that fails at entry 2, after entry 1 was won: the failure
/// revert puts entry 1's old value back.
const FAILS: [(usize, usize); 3] = [(8, 24), (16, 32), (48, 56)];

/// One round: the initiator commits `plan` (`(old, new)` per word) while a
/// helper reads word 0, helping whatever descriptor it finds there.
fn scenario(plan: [(usize, usize); 3]) {
    let ws: Arc<Vec<DAtomic>> = Arc::new(START.iter().map(|&v| DAtomic::new(v)).collect());
    // Root pins first: three registered threads keep the initiator out of
    // the solo regime, which would commit without a descriptor.
    let _g = lfc_hazard::pin();

    let initiator = {
        let ws = ws.clone();
        lfc_model::thread::spawn(move || {
            let g = lfc_hazard::pin();
            let entries: Vec<CasnEntry> = ws
                .iter()
                .zip(plan)
                .map(|(w, (old, new))| CasnEntry {
                    ptr: w,
                    old,
                    new,
                    hp: 0,
                })
                .collect();
            // Safety: the scenario's `Arc` keeps the distinct words alive.
            let r = unsafe { commit_entries(&entries, &g) };
            let expect = if plan[2].0 == START[2] {
                CasnResult::Success
            } else {
                CasnResult::FailedAt(2)
            };
            assert_eq!(r, expect, "the commit's outcome");
        })
    };
    let helper = {
        let ws = ws.clone();
        lfc_model::thread::spawn(move || {
            let g = lfc_hazard::pin();
            let _ = ws[0].read(&g);
        })
    };
    initiator.join();
    helper.join();

    // Plain loads: `DAtomic::read` would help — and so clean up — exactly
    // the late mark this scenario hunts for.
    let got: Vec<usize> = ws.iter().map(DAtomic::load_word).collect();
    assert!(
        got.iter().all(|&w| word::is_raw(w)),
        "late mark left installed ({got:x?})"
    );
    let decided: Vec<usize> = if plan[2].0 == START[2] {
        plan.iter().map(|&(_, new)| new).collect()
    } else {
        START.to_vec()
    };
    assert_eq!(got, decided, "every word holds the decided value");
}

fn opts() -> lfc_model::ExploreOpts {
    lfc_model::ExploreOpts {
        preemption_bound: 2,
        step_budget: 200_000,
        max_executions: 200_000,
        memory: lfc_model::MemoryMode::Interleaving,
    }
}

/// Both phases in ONE test: the sabotage toggle is process-global.
#[test]
fn late_marks_revert_themselves_then_sabotage_caught() {
    for (name, plan) in [("success", SUCCEEDS), ("failure", FAILS)] {
        // Phase 1 — Lemma 3 intact: complete bound-2 search, no failure.
        let report = lfc_model::explore(opts(), || scenario(plan));
        if let Some(f) = &report.failure {
            panic!("{name}: every late mark must be reverted, but:\n{f}");
        }
        assert!(
            report.complete,
            "{name}: the claim is a COMPLETE bounded search ({} executions hit a budget)",
            report.executions
        );
        eprintln!(
            "{name}: late-mark scenario clean over {} executions (pruned: {})",
            report.executions, report.pruned
        );

        // Phase 2 — self-revert sabotaged: the late mark must be caught.
        SKIP_SELF_REVERT.store(true, Ordering::SeqCst);
        let report = lfc_model::explore(opts(), || scenario(plan));
        SKIP_SELF_REVERT.store(false, Ordering::SeqCst);
        let failure = report
            .failure
            .expect("a skipped self-revert must be caught by the bounded explorer");
        assert!(
            matches!(&failure.kind, lfc_model::FailureKind::Panic(m)
                if m.contains("late mark left installed")),
            "{name}: expected the late-mark assertion, got: {failure}"
        );
        eprintln!(
            "{name}: skipped self-revert caught after {} executions:\n{failure}",
            report.executions
        );
    }
}
