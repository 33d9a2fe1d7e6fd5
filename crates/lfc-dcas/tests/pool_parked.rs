//! Pooled descriptors are cached, not outstanding, and go back to
//! `lfc-alloc` when their thread exits.
//!
//! One test per binary: `lfc_alloc::outstanding()` and `stats()` are
//! process-global, so no sibling test may allocate between the readings.

use lfc_dcas::{commit_entries, CasnEntry, CasnResult, DAtomic};

#[test]
fn pooled_descriptors_are_cached_until_their_thread_exits() {
    const N: usize = 100;
    const _: () = assert!(N < lfc_hazard::MIN_SCAN_TRIGGER);
    let outstanding0 = lfc_alloc::outstanding();
    let freed0 = lfc_alloc::stats().freed;
    std::thread::spawn(move || {
        let g = lfc_hazard::pin();
        let (a, b) = (DAtomic::new(0), DAtomic::new(0));
        // The registered peer keeps every commit on the published path.
        lfc_runtime::fault::with_registered_peer(|| {
            for i in 0..N {
                let o = i * 8;
                let es = [
                    CasnEntry {
                        ptr: &a,
                        old: o,
                        new: o + 8,
                        hp: 0,
                    },
                    CasnEntry {
                        ptr: &b,
                        old: o,
                        new: o + 8,
                        hp: 0,
                    },
                ];
                // Safety: both words outlive the call and are distinct.
                assert_eq!(unsafe { commit_entries(&es, &g) }, CasnResult::Success);
            }
            // N is below every scan trigger, so no scan has run: each
            // commit took a fresh block, now on the retire list.
            assert_eq!(
                lfc_alloc::outstanding(),
                outstanding0 + N,
                "held by the retire list"
            );
            // Reclaimed, every block goes straight into this thread's
            // pool: N is below every scan trigger, the pool's bound.
            lfc_hazard::flush();
            assert_eq!(
                lfc_alloc::outstanding(),
                outstanding0,
                "pooled blocks are cached, not outstanding"
            );
            assert_eq!(
                lfc_alloc::stats().freed,
                freed0,
                "the pool kept every block instead of freeing the overflow"
            );
        });
    })
    .join()
    .unwrap();
    assert_eq!(
        lfc_alloc::stats().freed,
        freed0 + N,
        "thread exit hands the pool back to lfc-alloc"
    );
    assert_eq!(lfc_alloc::outstanding(), outstanding0);
}
