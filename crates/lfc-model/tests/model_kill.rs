//! Model-checked thread-death robustness (PR 8 tentpole, part b): a model
//! thread killed at the worst kill site — `"dcas.published"`, descriptor
//! installed at word 1, the later words untouched — must leave a state
//! survivors always repair: the corpse's announced operation is helped to
//! its decision, every word ends raw with the committed value, and the
//! dead thread's id/bank are adopted, all under a complete
//! preemption-bound-1 search, at K=2 and at K=3.
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

/// The victim's commit moves word `i` from `OLD[i]` to `NEW[i]`.
const OLD: [usize; 3] = [8, 16, 40];
const NEW: [usize; 3] = [24, 32, 56];

/// `k` words holding their `OLD` values.
fn words(k: usize) -> Arc<Vec<DAtomic>> {
    Arc::new(OLD[..k].iter().map(|&v| DAtomic::new(v)).collect())
}

/// The victim's K-word commit (`OLD → NEW`), which dies inside.
fn victim_commit(words: &[DAtomic]) {
    let g = lfc_hazard::pin();
    let entries: Vec<CasnEntry> = words
        .iter()
        .enumerate()
        .map(|(i, w)| CasnEntry {
            ptr: w,
            old: OLD[i],
            new: NEW[i],
            hp: 0,
        })
        .collect();
    // Safety: the scenario's `Arc` keeps the distinct words alive.
    let _ = unsafe { commit_entries(&entries, &g) };
}

/// Every word through *plain* loads: `DAtomic::read` would help an
/// installed descriptor and mask exactly the bug the sabotage toggle
/// seeds, so only `load_word` is allowed here.
fn plain_values(words: &[DAtomic]) -> Vec<usize> {
    words.iter().map(DAtomic::load_word).collect()
}

/// One round: a victim announces and publishes a K-word commit
/// (`OLD → NEW`) and dies at the `"dcas.published"` kill site; a survivor
/// (and finally the root) adopts the corpse. The end-state assertions are
/// exactly the tentpole's robustness claim.
fn scenario(k: usize) {
    // Re-armed per execution: `Nth(1)` fires on the victim's first (and
    // only) pass through the site; the survivor never runs initiator code.
    fault::arm_site(fault::site::DCAS_PUBLISHED, fault::Schedule::Nth(1));
    let ws = words(k);

    // Root pins *before* the victim runs: two registered threads keep the
    // victim out of the solo-regime fast path, which commits without ever
    // announcing (and so could never be killed at a protocol site).
    let g = lfc_hazard::pin();

    let victim = {
        let ws = ws.clone();
        // Dies inside: the model thread wrapper recognizes the abandon
        // payload and parks the id/bank as a corpse.
        lfc_model::thread::spawn(move || victim_commit(&ws))
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

    // The tentpole claim, asserted through plain loads.
    let ws = plain_values(&ws);
    assert!(
        ws.iter().all(|&w| word::is_raw(w)),
        "descriptor left installed after adoption ({ws:x?})"
    );
    assert_eq!(ws, NEW[..k], "adopted commit must have committed");
    fault::disarm();
}

/// As [`scenario`], but the victim dies at `"dcas.announced"` — after the
/// announce-table store, *before* the D10 first-word install. The adoption
/// path must recognize the unpublished descriptor and complete *nothing*:
/// helping it as if published would apply only the later CASes (the
/// first-word swing fails silently), duplicating the moved element — the
/// torn half-commit the crash adversary caught. Every word must end
/// exactly as it started.
fn scenario_unpublished(k: usize) {
    fault::arm_site(fault::site::DCAS_ANNOUNCED, fault::Schedule::Nth(1));
    let ws = words(k);
    let g = lfc_hazard::pin();

    let victim = {
        let ws = ws.clone();
        // Dies at the announced (pre-publication) kill site.
        lfc_model::thread::spawn(move || victim_commit(&ws))
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

    let ws = plain_values(&ws);
    assert!(
        ws.iter().all(|&w| word::is_raw(w)),
        "descriptor installed by adoption of an unpublished op ({ws:x?})"
    );
    assert_eq!(
        ws,
        OLD[..k],
        "an announced-but-unpublished commit must not be (half-)applied"
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

/// Both phases in ONE test, at K=2 and at K=3: the sabotage toggle is
/// process-global and two parallel `#[test]`s flipping it would race.
#[test]
fn killed_initiator_adopted_clean_then_sabotage_caught() {
    for k in [2, 3] {
        // Phase 1 — helping intact: complete bound-1 search, no failure.
        let report = lfc_model::explore(opts(), || scenario(k));
        if let Some(f) = &report.failure {
            panic!("K={k}: adoption must repair every bound-1 kill interleaving, but:\n{f}");
        }
        assert!(
            report.complete,
            "K={k}: the robustness claim is a COMPLETE bounded search, not a \
             truncated one ({} executions hit a budget)",
            report.executions
        );
        eprintln!(
            "K={k} kill scenario clean over {} executions (complete: {}, pruned: {})",
            report.executions, report.complete, report.pruned
        );

        // Phase 2 — helping sabotaged: the checker must catch the torn word.
        lfc_dcas::adopt::model_toggles::SKIP_ADOPT_HELP
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let report = lfc_model::explore(opts(), || scenario(k));
        lfc_dcas::adopt::model_toggles::SKIP_ADOPT_HELP
            .store(false, std::sync::atomic::Ordering::SeqCst);
        let failure = report
            .failure
            .expect("broken adoption helping must be caught by the bounded explorer");
        assert!(
            matches!(&failure.kind, lfc_model::FailureKind::Panic(m)
                if m.contains("descriptor left installed") || m.contains("must have committed")),
            "K={k}: expected the torn-word assertion, got: {failure}"
        );
        assert!(!failure.schedule.is_empty());
        eprintln!(
            "K={k} sabotaged helping caught after {} executions:\n{failure}",
            report.executions
        );
    }
}

/// Regression for the torn half-commit the crash adversary caught: a
/// victim killed *before* publication must never have its commit
/// half-applied by an adopter (the publication test in
/// `lfc_dcas::adopt`). Complete bound-1 search, at K=2 and at K=3.
#[test]
fn killed_before_publication_is_never_half_applied() {
    for k in [2, 3] {
        let report = lfc_model::explore(opts(), || scenario_unpublished(k));
        if let Some(f) = &report.failure {
            panic!("K={k}: adopting an unpublished commit must be a no-op on the words, but:\n{f}");
        }
        assert!(
            report.complete,
            "K={k}: the no-half-commit claim is a COMPLETE bounded search ({} executions hit a budget)",
            report.executions
        );
        eprintln!(
            "K={k} unpublished-kill scenario clean over {} executions (complete: {}, pruned: {})",
            report.executions, report.complete, report.pruned
        );
    }
}
