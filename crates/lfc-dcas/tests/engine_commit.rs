//! Deterministic coverage of the unified k-entry commit
//! (`lfc_dcas::commit_entries`) across its regimes.
//!
//! This file intentionally holds **one** test function: integration tests
//! in one binary run on a thread pool, and a sibling test's `pin()` would
//! register a second thread and disable the solo regime. With a single
//! test, the solo branch is guaranteed taken for the first phase, the
//! registered-peer phase guarantees the published protocol at every width,
//! and the last phase switches from solo to published under a concurrent
//! reader — all asserted against the same all-or-nothing contract.

use lfc_dcas::{commit_entries, counters, CasnEntry, CasnResult, DAtomic, MAX_ENTRIES};
use lfc_hazard::{pin, Guard};

fn entry(w: &DAtomic, old: usize, new: usize) -> CasnEntry {
    CasnEntry {
        ptr: w,
        old,
        new,
        hp: 0,
    }
}

fn commit(entries: &[CasnEntry], g: &Guard) -> CasnResult {
    // Safety: every entry in this file is built by `entry` from a `&DAtomic`
    // that outlives the call, over pairwise-distinct words.
    unsafe { commit_entries(entries, g) }
}

/// Every supported width: one all-match commit, one last-entry mismatch
/// and one first-entry mismatch per width, each checked against the
/// all-or-nothing contract. Returns the results and the number of
/// descriptor incarnations started per width, `[K=2, K=3, ..]`.
fn sweep_widths(g: &Guard) -> (Vec<CasnResult>, Vec<usize>) {
    let mut incarnations = Vec::new();
    let mut results = Vec::new();
    for k in 2..=MAX_ENTRIES {
        let before = counters::desc_pool_hits();
        let words: Vec<DAtomic> = (0..k).map(|i| DAtomic::new(i * 8)).collect();
        let ok: Vec<CasnEntry> = words
            .iter()
            .enumerate()
            .map(|(i, w)| entry(w, i * 8, i * 8 + 8))
            .collect();
        results.push(commit(&ok, g));
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.read(g), i * 8 + 8, "k={k}: every word swung");
        }

        // Last-entry mismatch: the whole prefix must be rolled back and the
        // failing index reported (the generalized FIRSTFAILED/SECONDFAILED).
        let bad: Vec<CasnEntry> = words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                if i == k - 1 {
                    entry(w, 0xBAD0, 1 << 4)
                } else {
                    entry(w, i * 8 + 8, i * 8 + 16)
                }
            })
            .collect();
        results.push(commit(&bad, g));
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.read(g), i * 8 + 8, "k={k}: nothing left changed");
        }

        // First-entry mismatch: nothing is swung before the failure, so
        // every word is left untouched (the generalized FIRSTFAILED).
        let bad: Vec<CasnEntry> = words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                if i == 0 {
                    entry(w, 0xBAD0, 1 << 4)
                } else {
                    entry(w, i * 8 + 8, i * 8 + 16)
                }
            })
            .collect();
        results.push(commit(&bad, g));
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.read(g), i * 8 + 8, "k={k}: every word untouched");
        }
        incarnations.push(counters::desc_pool_hits() - before);
    }
    (results, incarnations)
}

fn expected_results() -> Vec<CasnResult> {
    (2..=MAX_ENTRIES)
        .flat_map(|k| {
            [
                CasnResult::Success,
                CasnResult::FailedAt(k - 1),
                CasnResult::FailedAt(0),
            ]
        })
        .collect()
}

#[test]
fn unified_commit_covers_solo_and_published_regimes() {
    let g = pin();
    assert_eq!(
        lfc_runtime::active_threads(),
        1,
        "this binary must contain exactly this one test"
    );

    // --- Phase 1: solo regime, every supported width. ---
    // Solo commits use no descriptor at all, so they never publish and add
    // nothing to the hazard domain's retire backlog.
    let retired0 = lfc_hazard::stats().0;
    let (results, incarnations) = sweep_widths(&g);
    assert_eq!(results, expected_results());
    assert!(
        incarnations.iter().all(|&a| a == 0),
        "the solo regime uses no descriptor"
    );
    assert_eq!(
        lfc_hazard::stats().0,
        retired0,
        "solo successes bypass retire entirely"
    );

    // --- Phase 2: a registered peer forces the published paths. ---
    lfc_runtime::fault::with_registered_peer(|| published_phase(&g));

    // --- Phase 3: solo → published under a concurrent reader. ---
    regime_switch_phase();
}

/// The peer is gone, so commits start solo; a watcher's registration ends
/// the solo regime mid-run, and the registration barrier means it can never
/// observe a torn pair.
fn regime_switch_phase() {
    const ROUNDS: usize = if cfg!(miri) { 200 } else { 20_000 };
    let a = DAtomic::new(0);
    let b = DAtomic::new(0);
    std::thread::scope(|sc| {
        let watcher = sc.spawn(|| {
            let g = pin();
            // Every commit advances both words by 8 with b swinging last, so
            // reading b before a must observe a >= b; both reads must be
            // raw multiples of 8 (helping resolved any descriptor), and a
            // is monotone.
            let mut last_a = 0;
            for _ in 0..ROUNDS {
                let y = b.read(&g);
                let x = a.read(&g);
                assert_eq!(x % 8, 0, "raw value");
                assert_eq!(y % 8, 0, "raw value");
                assert!(x >= y, "a read after b cannot lag it: {x} < {y}");
                assert!(x >= last_a, "a is monotone");
                last_a = x;
            }
        });
        let g = pin();
        let mut o = a.read(&g);
        for _ in 0..ROUNDS {
            match commit(&[entry(&a, o, o + 8), entry(&b, o, o + 8)], &g) {
                CasnResult::Success => o += 8,
                _ => o = a.read(&g),
            }
        }
        watcher.join().unwrap();
    });
    let g = pin();
    assert_eq!(
        a.read(&g),
        b.read(&g),
        "pair in lockstep after mixed regimes"
    );
}

fn published_phase(g: &Guard) {
    // Every width again: exactly one descriptor incarnation per published
    // commit at every width — helpers and installs start none — and no
    // descriptor is ever allocated or retired.
    let retired0 = lfc_hazard::stats().0;
    let (results, incarnations) = sweep_widths(g);
    assert_eq!(results, expected_results());
    assert_eq!(
        incarnations,
        vec![3; MAX_ENTRIES - 1],
        "one incarnation per commit, per width K=2..={MAX_ENTRIES}"
    );
    assert_eq!(
        counters::desc_pool_misses() + counters::rdcss_pool_hits() + counters::rdcss_pool_misses(),
        0,
        "no descriptor is ever allocated"
    );
    assert_eq!(
        lfc_hazard::stats().0,
        retired0,
        "published commits retire no descriptor"
    );

    // K=2: the paper's DCAS, reporting the failing index (the paper's
    // FIRSTFAILED/SECONDFAILED).
    let a = DAtomic::new(0);
    let b = DAtomic::new(8);
    assert_eq!(
        commit(&[entry(&a, 0, 16), entry(&b, 8, 24)], g),
        CasnResult::Success
    );
    assert_eq!((a.read(g), b.read(g)), (16, 24));
    assert_eq!(
        commit(&[entry(&a, 0xBAD0, 1 << 4), entry(&b, 24, 32)], g),
        CasnResult::FailedAt(0)
    );
    assert_eq!(
        commit(&[entry(&a, 16, 32), entry(&b, 0xBAD0, 1 << 4)], g),
        CasnResult::FailedAt(1)
    );
    assert_eq!((a.read(g), b.read(g)), (16, 24), "nothing left changed");
}
