//! Model-checked thread-death robustness (PR 8 tentpole, part b): a model
//! thread killed at the worst kill site — `"dcas.published"`, descriptor
//! installed at word 1, word 2 untouched — must leave a state survivors
//! always repair: the corpse's announced operation is helped to its
//! decision, both words end raw with the committed values, and the dead
//! thread's id/bank are adopted, all under a complete preemption-bound-1
//! search.
//!
//! The second phase proves the harness has teeth: with the seeded
//! `SKIP_ADOPT_HELP` sabotage (adoption releases the corpse *without*
//! completing its operation) the same scenario must FAIL — the explorer
//! reports the torn word the broken helping leaves behind.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
#![cfg(lfc_model)]

use lfc_dcas::{adopt_dead_threads, commit_entries, word, CasnEntry, DAtomic};
use lfc_runtime::fault;
use std::sync::Arc;

/// The victim's K=2 commit (a: 8→24, b: 16→32), which dies inside.
fn victim_commit(a: &DAtomic, b: &DAtomic) {
    let g = lfc_hazard::pin();
    let entries = [
        CasnEntry {
            ptr: a,
            old: 8,
            new: 24,
            hp: 0,
        },
        CasnEntry {
            ptr: b,
            old: 16,
            new: 32,
            hp: 0,
        },
    ];
    // Safety: the scenario's `Arc`s keep both distinct words alive.
    let _ = unsafe { commit_entries(&entries, &g) };
}

/// One round: a victim announces and publishes a DCAS (a: 8→24, b: 16→32)
/// and dies at the `"dcas.published"` kill site; a survivor (and finally
/// the root) adopts the corpse. The end-state assertions are exactly the
/// tentpole's robustness claim.
fn scenario() {
    // Re-armed per execution: `Nth(1)` fires on the victim's first (and
    // only) pass through the site; the survivor never runs initiator code.
    fault::arm_site("dcas.published", fault::Schedule::Nth(1));
    let a = Arc::new(DAtomic::new(8));
    let b = Arc::new(DAtomic::new(16));

    // Root pins *before* the victim runs: two registered threads keep the
    // victim out of the solo-regime fast path, which commits without ever
    // announcing (and so could never be killed at a protocol site).
    let g = lfc_hazard::pin();

    let victim = {
        let (a, b) = (a.clone(), b.clone());
        // Dies inside: the model thread wrapper recognizes the abandon
        // payload and parks the id/bank as a corpse.
        lfc_model::thread::spawn(move || victim_commit(&a, &b))
    };
    let survivor = lfc_model::thread::spawn(|| {
        let g = lfc_hazard::pin();
        // Bounded attempts: depending on the interleaving the victim may
        // not have died yet; the root's cleanup pass below is the backstop.
        for _ in 0..4 {
            if fault::corpse_count() > 0 && adopt_dead_threads(&g) > 0 {
                break;
            }
        }
    });
    victim.join();
    survivor.join();

    // Cleanup pass: after both joins the corpse (if the survivor raced past
    // it) is certainly visible; one adoption round must clear it.
    if fault::corpse_count() > 0 {
        adopt_dead_threads(&g);
    }
    assert_eq!(fault::corpse_count(), 0, "corpse left unadopted");

    // The tentpole claim, asserted through *plain* loads: `DAtomic::read`
    // would help an installed descriptor and mask exactly the bug the
    // sabotage toggle seeds, so only `load_word` is allowed here.
    let (wa, wb) = (a.load_word(), b.load_word());
    assert!(
        word::is_raw(wa) && word::is_raw(wb),
        "descriptor left installed after adoption (wa={wa:#x}, wb={wb:#x})"
    );
    assert_eq!((wa, wb), (24, 32), "adopted DCAS must have committed");
    fault::disarm();
}

/// As [`scenario`], but the victim dies at `"dcas.announced"` — after the
/// announce-table store, *before* the D10 first-word install. The adoption
/// path must recognize the unpublished descriptor and complete *nothing*:
/// helping it as if published would apply only the second CAS (the
/// first-word swing fails silently), duplicating the moved element — the
/// torn half-commit the crash adversary caught. Both words must end
/// exactly as they started.
fn scenario_unpublished() {
    fault::arm_site("dcas.announced", fault::Schedule::Nth(1));
    let a = Arc::new(DAtomic::new(8));
    let b = Arc::new(DAtomic::new(16));
    let g = lfc_hazard::pin();

    let victim = {
        let (a, b) = (a.clone(), b.clone());
        // Dies at the announced (pre-publication) kill site.
        lfc_model::thread::spawn(move || victim_commit(&a, &b))
    };
    let survivor = lfc_model::thread::spawn(|| {
        let g = lfc_hazard::pin();
        for _ in 0..4 {
            if fault::corpse_count() > 0 && adopt_dead_threads(&g) > 0 {
                break;
            }
        }
    });
    victim.join();
    survivor.join();

    if fault::corpse_count() > 0 {
        adopt_dead_threads(&g);
    }
    assert_eq!(fault::corpse_count(), 0, "corpse left unadopted");

    let (wa, wb) = (a.load_word(), b.load_word());
    assert!(
        word::is_raw(wa) && word::is_raw(wb),
        "descriptor installed by adoption of an unpublished op (wa={wa:#x}, wb={wb:#x})"
    );
    assert_eq!(
        (wa, wb),
        (8, 16),
        "an announced-but-unpublished DCAS must not be (half-)applied"
    );
    fault::disarm();
}

fn opts() -> lfc_model::ExploreOpts {
    lfc_model::ExploreOpts {
        preemption_bound: 1,
        step_budget: 200_000,
        max_executions: 60_000,
        memory: lfc_model::MemoryMode::Interleaving,
    }
}

/// Both phases in ONE test: the sabotage toggle is process-global and two
/// parallel `#[test]`s flipping it would race.
#[test]
fn killed_initiator_adopted_clean_then_sabotage_caught() {
    // Phase 1 — helping intact: complete bound-1 search, no failure.
    let report = lfc_model::explore(opts(), scenario);
    if let Some(f) = &report.failure {
        panic!("adoption must repair every bound-1 kill interleaving, but:\n{f}");
    }
    assert!(
        report.complete,
        "the robustness claim is a COMPLETE bounded search, not a truncated \
         one ({} executions hit a budget)",
        report.executions
    );
    eprintln!(
        "kill scenario clean over {} executions (complete: {}, pruned: {})",
        report.executions, report.complete, report.pruned
    );

    // Phase 2 — helping sabotaged: the checker must catch the torn word.
    lfc_dcas::adopt::model_toggles::SKIP_ADOPT_HELP
        .store(true, std::sync::atomic::Ordering::SeqCst);
    let report = lfc_model::explore(opts(), scenario);
    lfc_dcas::adopt::model_toggles::SKIP_ADOPT_HELP
        .store(false, std::sync::atomic::Ordering::SeqCst);
    let failure = report
        .failure
        .expect("broken adoption helping must be caught by the bounded explorer");
    assert!(
        matches!(&failure.kind, lfc_model::FailureKind::Panic(m)
            if m.contains("descriptor left installed") || m.contains("must have committed")),
        "expected the torn-word assertion, got: {failure}"
    );
    assert!(!failure.schedule.is_empty());
    eprintln!(
        "sabotaged helping caught after {} executions:\n{failure}",
        report.executions
    );
}

/// Regression for the torn half-commit the crash adversary caught: a
/// victim killed *before* publication must never have its DCAS
/// half-applied by an adopter (the publication test in
/// `lfc_dcas::adopt`). Complete bound-1 search.
#[test]
fn killed_before_publication_is_never_half_applied() {
    let report = lfc_model::explore(opts(), scenario_unpublished);
    if let Some(f) = &report.failure {
        panic!("adopting an unpublished DCAS must be a no-op on the words, but:\n{f}");
    }
    assert!(
        report.complete,
        "the no-half-commit claim is a COMPLETE bounded search ({} executions hit a budget)",
        report.executions
    );
    eprintln!(
        "unpublished-kill scenario clean over {} executions (complete: {}, pruned: {})",
        report.executions, report.complete, report.pruned
    );
}
