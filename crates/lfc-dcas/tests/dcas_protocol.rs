//! Protocol tests for the software DCAS (paper Algorithm 4), the K=2
//! regime of `commit_entries`.
//!
//! Raw test values are multiples of 8 so they are valid "raw" protocol
//! words (low kind bits clear), mimicking aligned node pointers.

use lfc_dcas::dcas::{counters, test_support};
use lfc_dcas::{commit_entries, CasnEntry, CasnResult, DAtomic, Word};
use lfc_hazard::{pin, Guard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn entry(w: &DAtomic, old: usize, new: usize) -> CasnEntry {
    CasnEntry {
        ptr: w,
        old,
        new,
        hp: 0,
    }
}

fn dcas(
    g: &Guard,
    a: &DAtomic,
    old1: usize,
    new1: usize,
    b: &DAtomic,
    old2: usize,
    new2: usize,
) -> CasnResult {
    // Safety: both words outlive the call and are distinct.
    unsafe { commit_entries(&[entry(a, old1, new1), entry(b, old2, new2)], g) }
}

/// Announce (line D10) a DCAS of `a: 8 → 24`, `b: old2 → 32` and stall.
fn announce(a: &'static DAtomic, b: &'static DAtomic, old2: usize) -> Word {
    // Safety: leaked words live forever and are distinct.
    unsafe { test_support::announce_only(entry(a, 8, 24), entry(b, old2, 32)) }
        .expect("announce succeeds")
}

fn leaked(v: usize) -> &'static DAtomic {
    Box::leak(Box::new(DAtomic::new(v)))
}

#[test]
fn success_swings_both_words() {
    let a = DAtomic::new(8);
    let b = DAtomic::new(16);
    assert_eq!(dcas(&pin(), &a, 8, 24, &b, 16, 32), CasnResult::Success);
    let g = pin();
    assert_eq!(a.read(&g), 24);
    assert_eq!(b.read(&g), 32);
}

#[test]
fn first_mismatch_changes_nothing() {
    let a = DAtomic::new(8);
    let b = DAtomic::new(16);
    assert_eq!(
        dcas(&pin(), &a, 96, 24, &b, 16, 32),
        CasnResult::FailedAt(0)
    );
    let g = pin();
    assert_eq!(a.read(&g), 8);
    assert_eq!(b.read(&g), 16);
}

#[test]
fn second_mismatch_reverts_announcement() {
    let a = DAtomic::new(8);
    let b = DAtomic::new(16);
    assert_eq!(dcas(&pin(), &a, 8, 24, &b, 96, 32), CasnResult::FailedAt(1));
    let g = pin();
    // The announcement at word 1 must have been rolled back (Lemma 4).
    assert_eq!(a.read(&g), 8);
    assert_eq!(b.read(&g), 16);
}

#[test]
fn null_old_values_work() {
    // Queue enqueue CASes next from null; make sure 0 is a valid old/new.
    let a = DAtomic::new(0);
    let b = DAtomic::new(40);
    assert_eq!(dcas(&pin(), &a, 0, 8, &b, 40, 0), CasnResult::Success);
    let g = pin();
    assert_eq!(a.read(&g), 8);
    assert_eq!(b.read(&g), 0);
}

#[test]
fn helper_completes_stalled_operation_via_word1() {
    // Announce (D10) and stall: the owner never runs the protocol, so a
    // reader of word 1 on another thread alone must complete the DCAS. The
    // `help_runs()` delta shows the decision came from the help path.
    let g = pin();
    let (a, b) = (leaked(8), leaked(16));
    let w = announce(a, b, 16);
    let before = counters::help_runs();
    std::thread::scope(|sc| {
        sc.spawn(|| {
            // Word 1 now holds the descriptor; a read must help and return 24.
            let g = pin();
            assert_eq!(a.read(&g), 24, "helper's read returns the post-DCAS value");
        });
    });
    assert!(
        counters::help_runs() > before,
        "the decision can only have come from the help path"
    );
    // Both words swung without the owner ever running the protocol.
    assert_eq!(a.read(&g), 24);
    assert_eq!(b.read(&g), 32);
    // The owner "wakes up": resuming is idempotent on a decided DCAS.
    let r = unsafe { test_support::resume(w, &g) };
    assert_eq!(r, CasnResult::Success);
    // Safety: decided; retired exactly once (announce_only handed us the
    // initiator's retire obligation).
    unsafe { test_support::retire_announced(w) };
}

#[test]
fn helper_completes_stalled_operation_via_word2() {
    // Reading the *second* word while only the announcement happened: the
    // word still holds a raw value, so the reader sees old2 — that is fine
    // (the operation has not linearized yet). But once any reader of word 1
    // helps, word 2 is done too.
    let g = pin();
    let (a, b) = (leaked(8), leaked(16));
    let w = announce(a, b, 16);
    assert_eq!(b.read(&g), 16, "not yet linearized");
    assert_eq!(a.read(&g), 24, "reader helps");
    assert_eq!(b.read(&g), 32, "second word completed by the helper");
    unsafe {
        assert_eq!(test_support::res_state(w), 2, "res is SUCCESS");
        test_support::retire_announced(w);
    }
}

#[test]
fn stalled_announcement_with_changed_second_word_fails_cleanly() {
    let g = pin();
    let (a, b) = (leaked(8), leaked(16));
    let w = announce(a, b, 16);
    // Interfere: change word 2 before any helper arrives.
    assert!(b.cas_word(16, 48));
    // A reader of word 1 on another thread helps: the DCAS must fail and
    // roll the announcement back out of word 1 (Lemma 4), and only the
    // help path can have decided it.
    let before = counters::help_runs();
    std::thread::scope(|sc| {
        sc.spawn(|| {
            let g = pin();
            assert_eq!(a.read(&g), 8, "helper's read returns the reverted value");
        });
    });
    assert!(counters::help_runs() > before);
    assert_eq!(a.read(&g), 8);
    assert_eq!(b.read(&g), 48);
    let r = unsafe { test_support::resume(w, &g) };
    assert_eq!(r, CasnResult::FailedAt(1));
    // Safety: decided; single retire.
    unsafe { test_support::retire_announced(w) };
}

#[test]
fn concurrent_helpers_agree_on_result() {
    // Many threads all help the same stalled announcement; the pair must
    // swing exactly once and everyone must report the same result.
    let (a, b) = (leaked(8), leaked(16));
    let w = announce(a, b, 16);

    let results: Vec<CasnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let g = pin();
                    unsafe { test_support::resume(w, &g) }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results {
        assert_eq!(*r, CasnResult::Success, "all helpers agree (Lemma 2)");
    }
    let g = pin();
    assert_eq!(a.read(&g), 24);
    assert_eq!(b.read(&g), 32);
    unsafe { test_support::retire_announced(w) };
}

#[test]
fn pairwise_atomicity_under_contention() {
    // Invariant: word2 == word1 + 8 at every successful DCAS instant.
    // Each thread reads word1, *derives* the expected word2 without reading
    // it, and attempts (w1 -> w1+8, w1+8 -> w1+16). A success proves both
    // expectations held simultaneously; any torn DCAS would strand the pair
    // and no further success could occur (detected by the success count).
    const THREADS: usize = 8;
    const SUCCESSES_PER_THREAD: usize = 2_000;

    let a = Arc::new(DAtomic::new(0));
    let b = Arc::new(DAtomic::new(8));
    let total = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let a = a.clone();
            let b = b.clone();
            let total = total.clone();
            s.spawn(move || {
                let g = pin();
                let mut done = 0;
                while done < SUCCESSES_PER_THREAD {
                    let w1 = a.read(&g);
                    let expected_w2 = w1 + 8;
                    let r = dcas(&g, &a, w1, w1 + 8, &b, expected_w2, expected_w2 + 8);
                    if r == CasnResult::Success {
                        done += 1;
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let g = pin();
    let n = total.load(Ordering::Relaxed);
    assert_eq!(n, THREADS * SUCCESSES_PER_THREAD);
    assert_eq!(a.read(&g), 8 * n);
    assert_eq!(b.read(&g), 8 * n + 8);
}

#[test]
fn disjoint_pairs_proceed_independently() {
    // Requirement 2 analogue at the DCAS level: operations on disjoint word
    // pairs must all succeed without interference.
    let words: Vec<Arc<DAtomic>> = (0..16).map(|i| Arc::new(DAtomic::new(i * 8))).collect();
    std::thread::scope(|s| {
        for t in 0..8usize {
            let w1 = words[2 * t].clone();
            let w2 = words[2 * t + 1].clone();
            s.spawn(move || {
                let g = pin();
                for k in 0..1_000usize {
                    let o1 = w1.read(&g);
                    let o2 = w2.read(&g);
                    assert_eq!(
                        dcas(&g, &w1, o1, o1 + 8, &w2, o2, o2 + 8),
                        CasnResult::Success,
                        "thread {t} iter {k}: no contention, must succeed"
                    );
                }
            });
        }
    });
}

#[test]
fn shared_second_word_serializes() {
    // Several DCASes share word B but have private word As. Every success
    // bumps B by 8; total successes must equal B's total advance.
    const THREADS: usize = 6;
    const ITERS: usize = 3_000;
    let shared = Arc::new(DAtomic::new(0));
    let privates: Vec<Arc<DAtomic>> = (0..THREADS).map(|_| Arc::new(DAtomic::new(0))).collect();
    let successes = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for mine in privates.iter() {
            let shared = shared.clone();
            let successes = successes.clone();
            s.spawn(move || {
                let g = pin();
                for _ in 0..ITERS {
                    let o1 = mine.read(&g);
                    let o2 = shared.read(&g);
                    if dcas(&g, mine, o1, o1 + 8, &shared, o2, o2 + 8) == CasnResult::Success {
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let g = pin();
    let s = successes.load(Ordering::Relaxed);
    assert_eq!(
        shared.read(&g),
        8 * s,
        "every success advanced the shared word once"
    );
    let private_sum: usize = privates.iter().map(|p| p.read(&g)).sum();
    assert_eq!(
        private_sum,
        8 * s,
        "every success advanced exactly one private word"
    );
}

#[test]
fn descriptors_do_not_leak() {
    // Outstanding pool blocks must not grow without bound across many
    // committed descriptors.
    let g = pin();
    let a = DAtomic::new(0);
    let b = DAtomic::new(0);
    for i in 0..20_000usize {
        let o = i * 8;
        assert_eq!(dcas(&g, &a, o, o + 8, &b, o, o + 8), CasnResult::Success);
    }
    lfc_hazard::flush();
    assert!(
        lfc_hazard::pending_retired() < 10_000,
        "retired descriptors must be reclaimed (pending {})",
        lfc_hazard::pending_retired()
    );
}
