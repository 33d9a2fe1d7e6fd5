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
//! The same late mark is the *false helping* of the paper's §7: a `move_one`
//! between two Treiber stacks whose target `top` returns to its pre-move
//! word (a pop takes the moved token) before a delayed helper installs its
//! mark there. A second test counts, over a complete bound-1 search, the
//! executions that revert a late mark with a plain `top` and with the
//! version-stamped `top` of §7, which closes that ABA.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
//! Both tests flip the process-global `SKIP_SELF_REVERT`, so the file
//! serializes them through a mutex.
#![cfg(lfc_model)]

use lfc_core::move_one;
use lfc_dcas::adopt::model_toggles::SKIP_SELF_REVERT;
use lfc_dcas::counters::stale_mark_reverts;
use lfc_dcas::{commit_entries, word, CasnEntry, CasnResult, DAtomic};
use lfc_structures::stamped::StampedTop;
use lfc_structures::treiber::{PlainTop, TopWord, Treiber};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes this file's tests: both flip `SKIP_SELF_REVERT`.
fn toggle_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

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

fn opts(bound: u32) -> lfc_model::ExploreOpts {
    lfc_model::ExploreOpts {
        preemption_bound: bound,
        step_budget: 200_000,
        max_executions: 200_000,
        memory: lfc_model::MemoryMode::Interleaving,
    }
}

/// Both phases in ONE test: the sabotage toggle is process-global.
#[test]
fn late_marks_revert_themselves_then_sabotage_caught() {
    let _t = toggle_lock();
    for (name, plan) in [("success", SUCCEEDS), ("failure", FAILS)] {
        // Phase 1 — Lemma 3 intact: complete bound-2 search, no failure.
        let report = lfc_model::explore(opts(2), || scenario(plan));
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
        let report = lfc_model::explore(opts(2), || scenario(plan));
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

/// Executions of the current search that reverted some late mark.
static REVERTING: AtomicUsize = AtomicUsize::new(0);

/// §7's false helping on stacks whose `top` has format `W`. A mover runs
/// `move_one(x, y)`; a helper pops `x` and so reaches the mover's
/// descriptor through `x.top`; a popper pops `y`, and when it takes the
/// moved token, `y.top` is back at its pre-move word. A helper parked
/// before its `y.top` install then finds the DCAS's expected old value
/// there and installs a late mark that Lemma 3 makes it revert.
fn false_helping_scenario<W: TopWord>() {
    let x = Arc::new(Treiber::<u32, W>::new());
    let y = Arc::new(Treiber::<u32, W>::new());
    x.push(1);
    y.push(2);
    let taken = Arc::new(Mutex::new(Vec::new()));
    let reverts_before = stale_mark_reverts();
    // Root pins first: with it, the three threads keep every commit out of
    // the solo regime, which would commit without a descriptor.
    let _g = lfc_hazard::pin();
    let mover = {
        let (x, y) = (x.clone(), y.clone());
        lfc_model::thread::spawn(move || {
            let _ = move_one(&*x, &*y);
        })
    };
    let pop = |s: &Arc<Treiber<u32, W>>| {
        let (s, taken) = (s.clone(), taken.clone());
        lfc_model::thread::spawn(move || {
            // Pop before locking: the model schedules inside `pop`.
            let v = s.pop();
            taken.lock().unwrap().extend(v);
        })
    };
    let (helper, popper) = (pop(&x), pop(&y));
    mover.join();
    helper.join();
    popper.join();

    if stale_mark_reverts() != reverts_before {
        REVERTING.fetch_add(1, Ordering::Relaxed);
    }
    // Plain loads (`top_word`): a helping read would clean up the very
    // late mark the sabotage leaves behind.
    let tops = [x.top_word(), y.top_word()];
    assert!(
        tops.iter().all(|&w| word::is_raw(w)),
        "late mark left installed ({tops:x?})"
    );
    let mut tokens = std::mem::take(&mut *taken.lock().unwrap());
    for s in [&x, &y] {
        while let Some(v) = s.pop() {
            tokens.push(v);
        }
    }
    tokens.sort_unstable();
    assert_eq!(tokens, [1, 2], "both tokens are conserved");
}

/// A complete bound-1 search of the scenario with top format `W`: the
/// number of executions that reverted a late mark, and how many ran.
fn count_reverting<W: TopWord>() -> (usize, u64) {
    REVERTING.store(0, Ordering::Relaxed);
    let report = lfc_model::explore(opts(1), false_helping_scenario::<W>);
    report.assert_ok();
    assert!(report.complete, "the count is of a COMPLETE bounded search");
    (REVERTING.load(Ordering::Relaxed), report.executions)
}

/// The §7 claim, settled by count: with a plain `top` some schedule makes
/// a helper falsely help (install and revert a late mark); with the
/// stamped `top` none does, so the sabotaged self-revert is caught only
/// on the plain stack.
#[test]
fn a_stamped_top_closes_false_helping() {
    let _t = toggle_lock();
    let (plain, runs) = count_reverting::<PlainTop>();
    eprintln!("plain top: {plain} of {runs} executions revert a late mark");
    assert!(plain >= 1, "some schedule must falsely help a plain top");
    let (stamped, runs) = count_reverting::<StampedTop>();
    eprintln!("stamped top: {stamped} of {runs} executions revert a late mark");
    assert_eq!(
        stamped, 0,
        "the stamp must close every false-helping schedule"
    );

    SKIP_SELF_REVERT.store(true, Ordering::SeqCst);
    let plain = lfc_model::explore(opts(1), false_helping_scenario::<PlainTop>);
    let stamped = lfc_model::explore(opts(1), false_helping_scenario::<StampedTop>);
    SKIP_SELF_REVERT.store(false, Ordering::SeqCst);
    let failure = plain
        .failure
        .expect("a skipped self-revert on a plain top must be caught");
    assert!(
        matches!(&failure.kind, lfc_model::FailureKind::Panic(m)
            if m.contains("late mark left installed")),
        "expected the late-mark assertion, got: {failure}"
    );
    eprintln!(
        "plain top, self-revert skipped: caught after {} executions",
        plain.executions
    );
    stamped.assert_ok();
    assert!(
        stamped.complete,
        "the stamped search must run to completion"
    );
    eprintln!(
        "stamped top, self-revert skipped: clean over {} executions",
        stamped.executions
    );
}
