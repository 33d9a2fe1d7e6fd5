//! The adaptive retire-scan threshold (PR 5): a burst of retired records
//! that a parked reader's epoch pins — the shape a hash-map resize or
//! teardown produces (thousands of dummy/segment/node records retired
//! back-to-back) — must not trigger a full scan every fixed `base`
//! retires. The trigger re-arms at twice the survivors of the last scan,
//! so scan count grows logarithmically in the burst size while the
//! records are pinned, and everything is still reclaimed promptly once
//! the reader leaves.
//!
//! Own integration binary: `scan_count()` is process-global, and sibling
//! lib tests scanning concurrently would pollute the delta.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static DROPS: AtomicUsize = AtomicUsize::new(0);

unsafe fn reclaim_box_u64(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut u64) });
    DROPS.fetch_add(1, Ordering::Relaxed);
}

#[test]
fn pinned_retire_burst_scans_logarithmically() {
    const BURST: usize = 20_000;

    // Park a reader inside an operation epoch: every record the burst
    // retires gets tagged at (or folded up to) an epoch the reader's entry
    // epoch does not exceed, so no scan can free it while the reader sits.
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let reader = {
        let (entered, release) = (entered.clone(), release.clone());
        std::thread::spawn(move || {
            let _g = lfc_hazard::pin_op();
            entered.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
    };
    while !entered.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    let scans_before = lfc_hazard::scan_count();
    let freed_before = lfc_hazard::stats().1;
    for _ in 0..BURST {
        let p = Box::into_raw(Box::new(7u64)) as *mut u8;
        // Safety: fresh allocation, reclaimed exactly once by the domain.
        unsafe { lfc_hazard::retire(p, reclaim_box_u64) };
    }
    let scans = lfc_hazard::scan_count() - scans_before;

    // Fixed-threshold behaviour would be ~BURST/base ≈ 150+ scans; the
    // geometric re-arm needs one per doubling past the base (~8). Leave
    // headroom for the base threshold racing the high-water mark.
    assert!(
        scans <= 24,
        "{scans} scans for a pinned burst of {BURST}: trigger is not adaptive"
    );
    // And the records were genuinely deferred, not freed under the reader.
    assert!(
        lfc_hazard::retired_count() >= BURST - lfc_hazard::stats().1.saturating_sub(freed_before),
        "burst records must sit pending while the reader is parked"
    );

    // Reader leaves. The retention cap bounds how long the freeable
    // backlog may now sit: the re-arm is `min(2 × survivors, survivors +
    // 32 × base)`, so ordinary retire traffic — NO manual flush — must
    // trigger the draining scan within ~32 × base further retires, not
    // after the backlog doubles.
    release.store(true, Ordering::Release);
    reader.join().unwrap();
    const TRAFFIC: usize = 10_000; // > 32 × base for any plausible base here
    for _ in 0..TRAFFIC {
        let p = Box::into_raw(Box::new(9u64)) as *mut u8;
        // Safety: fresh allocation, reclaimed exactly once by the domain.
        unsafe { lfc_hazard::retire(p, reclaim_box_u64) };
    }
    assert!(
        DROPS.load(Ordering::Relaxed) >= BURST,
        "retention cap must drain the freeable burst through ordinary \
         retire traffic (freed {} of {BURST})",
        DROPS.load(Ordering::Relaxed)
    );

    // And the trailing traffic itself drains within a bounded number of
    // flushes (first scans may only tag adopted orphans or advance the
    // epoch).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while DROPS.load(Ordering::Relaxed) < BURST + TRAFFIC && std::time::Instant::now() < deadline {
        lfc_hazard::flush();
        std::thread::yield_now();
    }
    assert_eq!(
        DROPS.load(Ordering::Relaxed),
        BURST + TRAFFIC,
        "all records reclaimed after the reader left"
    );
}
