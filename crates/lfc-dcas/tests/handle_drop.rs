//! `lfc_alloc::outstanding()` is a process-global counter, so this is the
//! only test of its binary: no sibling test allocates between the two
//! readings.

use lfc_dcas::DescHandle;

#[test]
fn dropped_unpublished_handle_is_freed() {
    let before = lfc_alloc::outstanding();
    for _ in 0..100 {
        let h = DescHandle::new();
        drop(h);
    }
    assert!(lfc_alloc::outstanding() <= before + 1);
}
