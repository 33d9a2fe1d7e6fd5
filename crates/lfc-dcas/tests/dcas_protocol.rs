//! Protocol tests for the software DCAS (paper Algorithm 4) behind
//! `commit_entries`; the stalled-initiator helper tests run it at K=2 and
//! at K=3.
//!
//! Raw test values are multiples of 8 so they are valid "raw" protocol
//! words (low kind bits clear), mimicking aligned node pointers.

use lfc_dcas::kcas::test_support;
use lfc_dcas::{commit_entries, counters, CasnEntry, CasnResult, DAtomic, Word};
use lfc_hazard::{pin, Guard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

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

/// The stalled commit of width `k`: word `i` goes from `OLD[i]` to
/// `NEW[i]`.
const OLD: [usize; 3] = [8, 16, 40];
const NEW: [usize; 3] = [24, 32, 56];

/// `k` leaked words holding their `OLD` values.
fn leaked_words(k: usize) -> Vec<&'static DAtomic> {
    OLD[..k]
        .iter()
        .map(|&v| &*Box::leak(Box::new(DAtomic::new(v))))
        .collect()
}

/// Run `f` with the commit `OLD → NEW` over `words` announced (line D10)
/// and stalled by a thread that commits nothing else: its descriptor
/// record keeps the incarnation until `f` has returned and the thread
/// exits, so every helper (and every resume) in `f` sees it current.
fn with_stalled<R>(words: &[&'static DAtomic], f: impl FnOnce(Word) -> R) -> R {
    let (tx, rx) = mpsc::channel();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    std::thread::scope(|sc| {
        sc.spawn(move || {
            let es: Vec<CasnEntry> = words
                .iter()
                .enumerate()
                .map(|(i, w)| entry(w, OLD[i], NEW[i]))
                .collect();
            // Safety: leaked words live forever and are distinct; this
            // thread starts no other commit.
            let w = unsafe { test_support::announce_only(&es) }.expect("announce succeeds");
            tx.send(w).unwrap();
            // Stay registered until `f` is done (or unwinds, which drops
            // the sender).
            let _ = stop_rx.recv();
        });
        let r = f(rx.recv().unwrap());
        drop(stop_tx);
        r
    })
}

fn values(words: &[&DAtomic], g: &Guard) -> Vec<usize> {
    words.iter().map(|w| w.read(g)).collect()
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
    // reader of word 1 on another thread alone must complete the commit.
    // The `help_runs()` delta shows the decision came from the help path.
    for k in [2, 3] {
        let g = pin();
        let words = leaked_words(k);
        with_stalled(&words, |w| {
            let before = counters::help_runs();
            // Word 1 now holds the descriptor; a read must help and
            // return its new value.
            assert_eq!(words[0].read(&g), 24, "k={k}: the helper's read");
            assert!(
                counters::help_runs() > before,
                "k={k}: the decision can only have come from the help path"
            );
            // Every word swung without the owner ever running the protocol.
            assert_eq!(values(&words, &g), NEW[..k]);
            // The owner "wakes up": resuming is idempotent on a decided
            // commit.
            let r = unsafe { test_support::resume(w, &g) };
            assert_eq!(r, CasnResult::Success);
        });
    }
}

#[test]
fn helper_completes_stalled_operation_via_word2() {
    // Reading a *later* word while only the announcement happened: the
    // word still holds a raw value, so the reader sees its old value —
    // that is fine (the operation has not linearized yet). But once any
    // reader of word 1 helps, every later word is done too.
    for k in [2, 3] {
        let g = pin();
        let words = leaked_words(k);
        with_stalled(&words, |w| {
            assert_eq!(values(&words[1..], &g), OLD[1..k], "not yet linearized");
            assert_eq!(test_support::decision(w), None, "undecided");
            assert_eq!(words[0].read(&g), 24, "reader helps");
            assert_eq!(
                values(&words[1..], &g),
                NEW[1..k],
                "later words completed by the helper"
            );
            assert_eq!(
                test_support::decision(w),
                Some(CasnResult::Success),
                "res[K-1] is SUCCESS"
            );
        });
    }
}

#[test]
fn stalled_announcement_with_changed_second_word_fails_cleanly() {
    // Interfere with each later word `j` in turn before any helper
    // arrives (at K=3 and j=2 the helper must also revert entry 1's
    // winner).
    for (k, j) in [(2, 1), (3, 1), (3, 2)] {
        let g = pin();
        let words = leaked_words(k);
        with_stalled(&words, |w| {
            assert!(words[j].cas_word(OLD[j], 48));
            // A reader of word 1 helps: the commit must fail and roll every
            // installed word back (Lemma 4), and only the help path can
            // have decided it.
            let before = counters::help_runs();
            assert_eq!(words[0].read(&g), 8, "k={k} j={j}: reverted value");
            assert!(counters::help_runs() > before);
            let mut expect = OLD[..k].to_vec();
            expect[j] = 48;
            assert_eq!(values(&words, &g), expect, "k={k} j={j}");
            let r = unsafe { test_support::resume(w, &g) };
            assert_eq!(r, CasnResult::FailedAt(j));
        });
    }
}

#[test]
fn concurrent_helpers_agree_on_result() {
    // Many threads all help the same stalled announcement; the words must
    // swing exactly once and everyone must report the same result.
    for k in [2, 3] {
        let words = leaked_words(k);
        let results: Vec<CasnResult> = with_stalled(&words, |w| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(move || {
                            let g = pin();
                            unsafe { test_support::resume(w, &g) }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        });
        for r in &results {
            assert_eq!(
                *r,
                CasnResult::Success,
                "k={k}: all helpers agree (Lemma 2)"
            );
        }
        assert_eq!(values(&words, &pin()), NEW[..k]);
    }
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
fn descriptors_are_never_retired() {
    // Every published commit reuses its thread's one descriptor record:
    // however many commits run, nothing reaches the retire lists.
    lfc_runtime::fault::with_registered_peer(|| {
        let g = pin();
        let a = DAtomic::new(0);
        let b = DAtomic::new(0);
        let (retired, incarnations) = (lfc_hazard::stats().0, counters::desc_pool_hits());
        for i in 0..20_000usize {
            let o = i * 8;
            assert_eq!(dcas(&g, &a, o, o + 8, &b, o, o + 8), CasnResult::Success);
        }
        assert!(counters::desc_pool_hits() - incarnations >= 20_000);
        assert_eq!(lfc_hazard::stats().0, retired, "no descriptor retired");
    });
}
