//! `lfc_alloc::outstanding()` is a process-global counter, so this is the
//! only test of its binary: no sibling test allocates between the two
//! readings.

use lfc_dcas::{commit_entries, CasnEntry, CasnResult, DAtomic};

#[test]
fn dropped_unpublished_descriptor_is_freed() {
    let g = lfc_hazard::pin();
    let (a, b) = (DAtomic::new(8), DAtomic::new(16));
    // A first-word mismatch fails the announcing CAS, so the descriptor is
    // dropped unpublished — the only path that drops one.
    let es = [
        CasnEntry {
            ptr: &a,
            old: 96,
            new: 24,
            hp: 0,
        },
        CasnEntry {
            ptr: &b,
            old: 16,
            new: 32,
            hp: 0,
        },
    ];
    // The registered peer keeps the commit off the solo path, which would
    // allocate no descriptor at all.
    lfc_runtime::fault::with_registered_peer(|| {
        let before = lfc_alloc::outstanding();
        for _ in 0..100 {
            // Safety: both words outlive the call and are distinct.
            let r = unsafe { commit_entries(&es, &g) };
            assert_eq!(r, CasnResult::FailedAt(0));
        }
        assert!(lfc_alloc::outstanding() <= before + 1);
    });
}
