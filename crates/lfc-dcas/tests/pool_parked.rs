//! Pooled descriptors are cached, not outstanding, and go back to
//! `lfc-alloc` when their thread exits.
//!
//! One test per binary: `lfc_alloc::outstanding()` and `stats()` are
//! process-global, so no sibling test may allocate between the readings.

use lfc_dcas::DescHandle;

#[test]
fn pooled_descriptors_are_cached_until_their_thread_exits() {
    const N: usize = 100;
    const _: () = assert!(N < lfc_hazard::MIN_SCAN_TRIGGER);
    let outstanding0 = lfc_alloc::outstanding();
    let freed0 = lfc_alloc::stats().freed;
    std::thread::spawn(move || {
        let held: Vec<DescHandle> = (0..N).map(|_| DescHandle::new()).collect();
        assert_eq!(
            lfc_alloc::outstanding(),
            outstanding0 + N,
            "held by a caller"
        );
        // Never published, so every handle goes straight into this
        // thread's pool: N is below every scan trigger, the pool's bound.
        drop(held);
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
