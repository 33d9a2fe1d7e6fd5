//! Deterministic coverage of the unified k-entry commit
//! (`lfc_dcas::try_commit_entries` and its infallible name
//! `commit_entries`) across its three regimes.
//!
//! This file intentionally holds **one** test function: integration tests
//! in one binary run on a thread pool, and a sibling test's `pin()` would
//! register a second thread and disable the solo regime. With a single
//! test, the solo branch is guaranteed taken for the first phase, the
//! registered-peer phase guarantees the published protocol at every width,
//! and the last phase switches from solo to published under a concurrent
//! reader — all asserted against the same all-or-nothing contract.

use lfc_dcas::{
    commit_entries, counters, try_commit_entries, CasnEntry, CasnResult, DAtomic, MAX_ENTRIES,
};
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

fn try_commit(entries: &[CasnEntry], g: &Guard) -> CasnResult {
    // Safety: as `commit`.
    unsafe { try_commit_entries(entries, g) }.expect("nothing is armed")
}

/// Descriptor allocations so far (hits + misses: which of the two an
/// allocation was depends on what the hazard domain has handed back).
fn desc_allocs() -> usize {
    counters::desc_pool_hits() + counters::desc_pool_misses()
}

/// Every supported width through `name`: one all-match commit, one
/// last-entry mismatch and one first-entry mismatch per width, each checked
/// against the all-or-nothing contract. Returns the results and the number
/// of descriptors allocated per width, `[K=2, K=3, ..]`.
fn sweep_widths(
    name: fn(&[CasnEntry], &Guard) -> CasnResult,
    g: &Guard,
) -> (Vec<CasnResult>, Vec<usize>) {
    let mut allocs = Vec::new();
    let mut results = Vec::new();
    for k in 2..=MAX_ENTRIES {
        let before = desc_allocs();
        let words: Vec<DAtomic> = (0..k).map(|i| DAtomic::new(i * 8)).collect();
        let ok: Vec<CasnEntry> = words
            .iter()
            .enumerate()
            .map(|(i, w)| entry(w, i * 8, i * 8 + 8))
            .collect();
        results.push(name(&ok, g));
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
        results.push(name(&bad, g));
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
        results.push(name(&bad, g));
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.read(g), i * 8 + 8, "k={k}: every word untouched");
        }
        allocs.push(desc_allocs() - before);
    }
    (results, allocs)
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

    // --- Phase 1: solo regime, every supported width, both names. ---
    // Solo commits build no descriptors at all, so they never publish and
    // add nothing to the hazard domain's retire backlog.
    let retired0 = lfc_hazard::stats().0;
    for name in [commit, try_commit] {
        let (results, allocs) = sweep_widths(name, &g);
        assert_eq!(results, expected_results());
        assert!(
            allocs.iter().all(|&a| a == 0),
            "the solo regime allocates no descriptor"
        );
    }
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
    // Every width through both names again: exactly one descriptor per
    // published commit at every width — helpers and installs allocate
    // nothing — the same for the infallible name and its `try_` twin,
    // because they are one body.
    let (results, allocs) = sweep_widths(commit, g);
    let (try_results, try_allocs) = sweep_widths(try_commit, g);
    assert_eq!(results, expected_results());
    assert_eq!(try_results, results);
    assert_eq!(
        allocs,
        vec![3; MAX_ENTRIES - 1],
        "one descriptor per commit, per width K=2..={MAX_ENTRIES}"
    );
    assert_eq!(try_allocs, allocs);
    assert_eq!(
        counters::rdcss_pool_hits() + counters::rdcss_pool_misses(),
        0,
        "no RDCSS descriptor exists"
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

    // K=3, pooled: steady-state commits must recycle descriptors instead
    // of falling through to `lfc-alloc`.
    let words: Vec<DAtomic> = (0..3).map(|i| DAtomic::new(i * 8)).collect();
    let (miss0, hits0) = (counters::desc_pool_misses(), counters::desc_pool_hits());
    for round in 0..60usize {
        let es: Vec<CasnEntry> = words
            .iter()
            .enumerate()
            .map(|(i, w)| entry(w, i * 8 + round * 8, i * 8 + round * 8 + 8))
            .collect();
        assert_eq!(commit(&es, g), CasnResult::Success);
        // Retired descriptors come back through the hazard domain; a flush
        // per iteration makes the recycling deterministic for the assert.
        lfc_hazard::flush();
    }
    assert!(
        counters::desc_pool_hits() > hits0,
        "steady-state K=3 commits must reuse pooled descriptors"
    );
    let misses = counters::desc_pool_misses() - miss0;
    assert!(
        misses <= 16,
        "steady-state misses must be bounded by the warmup burst, got {misses}"
    );
}
