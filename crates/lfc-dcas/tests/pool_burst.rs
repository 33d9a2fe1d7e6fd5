//! A scan's burst of reclaimed descriptors stays in the thread's pools.
//!
//! Retired descriptors come home in scan-sized bursts. A pool that keeps
//! the whole burst serves every later allocation of a steady workload, so
//! once the pools have grown to the largest burst no allocation misses. A
//! capped pool spills each burst into `lfc-alloc` and misses again in
//! every window.
//!
//! One test per binary: the pool counters are process-global, and a
//! sibling test's thread would also change the scan trigger (it scales
//! with the registered thread count).

use lfc_dcas::kcas::counters as k;
use lfc_dcas::{commit_entries, counters as d, CasnEntry, CasnResult, DAtomic};
use lfc_hazard::Guard;

/// Misses and hits of the DCAS, CASN and RDCSS pools.
fn pool_counts() -> ([usize; 3], [usize; 3]) {
    (
        [
            d::desc_pool_misses(),
            k::casn_pool_misses(),
            k::rdcss_pool_misses(),
        ],
        [
            d::desc_pool_hits(),
            k::casn_pool_hits(),
            k::rdcss_pool_hits(),
        ],
    )
}

/// One published K=2 commit over `words[..2]` and one K=4 commit over
/// `words[2..]`, each swinging its words from `round` to `round + 1` (in
/// steps of 8, so the values stay raw).
fn commit_pair(words: &[DAtomic; 6], round: usize, g: &Guard) {
    let es: Vec<CasnEntry> = words
        .iter()
        .map(|w| CasnEntry {
            ptr: w,
            old: round * 8,
            new: (round + 1) * 8,
            hp: 0,
        })
        .collect();
    // Safety: every entry points at a live word of `words`, pairwise
    // distinct, and `words` outlives the call.
    unsafe {
        assert_eq!(commit_entries(&es[..2], g), CasnResult::Success);
        assert_eq!(commit_entries(&es[2..], g), CasnResult::Success);
    }
}

/// Commit pairs until `scans` more reclamation scans have run.
fn run_scans(words: &[DAtomic; 6], round: &mut usize, scans: usize, g: &Guard) {
    let target = lfc_hazard::scan_count() + scans;
    let mut pairs = 0;
    while lfc_hazard::scan_count() < target {
        commit_pair(words, *round, g);
        *round += 1;
        pairs += 1;
        assert!(pairs < 100_000, "{scans} scans never ran");
    }
}

#[test]
fn steady_commits_never_miss_the_pools_after_warm_up() {
    lfc_runtime::fault::with_registered_peer(|| {
        let g = lfc_hazard::pin();
        let words: [DAtomic; 6] = std::array::from_fn(|_| DAtomic::new(0));
        let mut round = 0;
        // Warm-up: the first windows miss until each pool has grown to
        // the largest burst a scan hands back.
        run_scans(&words, &mut round, 3, &g);
        let (miss0, hit0) = pool_counts();
        run_scans(&words, &mut round, 3, &g);
        let (miss1, hit1) = pool_counts();
        assert_eq!(
            miss1, miss0,
            "[desc, casn, rdcss] pool misses after warm-up"
        );
        for i in 0..3 {
            assert!(hit1[i] > hit0[i], "pool {i} served the steady state");
        }
    });
}
