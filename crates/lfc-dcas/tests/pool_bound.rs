//! Each of a thread's descriptor pools stays within its scan trigger,
//! however much its scans reclaim on behalf of threads that have exited.
//!
//! A thread that exits while its retired descriptors are still pinned
//! leaves them on the hazard domain's orphan list, and the next scan by any
//! live thread adopts and frees them into that thread's pools. A
//! long-lived thread that scans but allocates no descriptors of its own
//! would otherwise keep every exited thread's descriptors until it exits.
//!
//! One test per binary: `lfc_alloc::parked()` sums every thread's pools.

use lfc_dcas::{commit_entries, CasnEntry, CasnResult, DAtomic};

/// `rounds` published K=2 and K=4 commits, each swinging its words one
/// step.
fn commit_rounds(rounds: usize) {
    let g = lfc_hazard::pin();
    let words: [DAtomic; 6] = std::array::from_fn(|_| DAtomic::new(0));
    for round in 0..rounds {
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
            assert_eq!(commit_entries(&es[..2], &g), CasnResult::Success);
            assert_eq!(commit_entries(&es[2..], &g), CasnResult::Success);
        }
    }
}

#[test]
fn adopted_orphans_do_not_grow_a_scanners_pools() {
    const THREADS: usize = 8;
    const COMMITS: usize = 100;
    for _ in 0..THREADS {
        // This thread's open epoch pins everything the worker retires, so
        // the worker exits with its descriptors on the orphan list. Being
        // registered, it also keeps the worker off the solo fast path.
        let reader = lfc_hazard::pin_op();
        // `join`, not a scoped thread: it returns only once the worker's
        // exit hooks have run.
        std::thread::spawn(|| commit_rounds(COMMITS))
            .join()
            .unwrap();
        drop(reader);
        let reclaimed0 = lfc_hazard::stats().1;
        lfc_hazard::flush();
        let reclaimed = lfc_hazard::stats().1 - reclaimed0;
        assert!(
            reclaimed >= 2 * COMMITS,
            "the scan freed only {reclaimed} of the exited worker's descriptors"
        );
        // Three lists (DCAS, CASN, RDCSS), each within the trigger.
        assert!(
            lfc_alloc::parked() <= 3 * lfc_hazard::scan_trigger(),
            "pooled {} > 3 x scan trigger {}",
            lfc_alloc::parked(),
            lfc_hazard::scan_trigger()
        );
    }
}
