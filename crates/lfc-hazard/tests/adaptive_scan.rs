//! The retire-scan trigger under a pinned retire burst — the shape a
//! hash-map resize or teardown produces (thousands of dummy/segment/node
//! records retired back-to-back) while a parked reader's epoch pins them.
//! Each scan seals the records retired since the previous scan into one
//! bag, and a bag the reader still pins costs a scan one tag compare, so
//! the trigger is the fixed base threshold. What it must guarantee:
//!
//! * while the reader parks, the burst stays pending and no record is
//!   examined by more than one scan (re-examining pinned records every
//!   scan is O(pending) per scan, O(pending² / threshold) per burst);
//! * once the reader leaves, ordinary retire traffic — no manual flush —
//!   frees the whole burst within one scan threshold of further retires.
//!
//! Own integration binary: the scan counters are process-global, and
//! sibling lib tests scanning concurrently would pollute the deltas.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

static DROPS: AtomicUsize = AtomicUsize::new(0);

unsafe fn reclaim_box_u64(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut u64) });
    DROPS.fetch_add(1, Ordering::Relaxed);
}

fn retire_one(v: u64) {
    let p = Box::into_raw(Box::new(v)) as *mut u8;
    // Safety: fresh allocation, reclaimed exactly once by the domain.
    unsafe { lfc_hazard::retire(p, reclaim_box_u64) };
}

#[test]
fn pinned_retire_burst_is_examined_once_and_drains_within_one_threshold() {
    const BURST: usize = 20_000;

    // Park a reader inside an operation epoch: every bag the burst seals
    // is tagged at (or folded up to) an epoch the reader's entry epoch
    // does not exceed, so no scan can free it while the reader sits.
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

    let visits_before = lfc_hazard::scan_visits();
    let freed_before = lfc_hazard::stats().1;
    // The trigger, measured: the fewest retires between two consecutive
    // scans.
    let mut threshold = usize::MAX;
    let mut last_scan: Option<usize> = None;
    let mut scans_seen = lfc_hazard::scan_count();
    for i in 0..BURST {
        retire_one(7);
        let scans = lfc_hazard::scan_count();
        if scans != scans_seen {
            if let Some(at) = last_scan {
                threshold = threshold.min(i - at);
            }
            last_scan = Some(i);
            scans_seen = scans;
        }
    }
    assert!(
        threshold != usize::MAX,
        "a burst of {BURST} retires ran fewer than two scans"
    );

    // Genuinely deferred, not freed under the reader.
    let freed = lfc_hazard::stats().1 - freed_before;
    assert!(
        lfc_hazard::retired_count() >= BURST - freed,
        "burst records must sit pending while the reader is parked"
    );
    // Examined at most once each: with no hazard and no zombie in play, a
    // scan that examines a record frees it, so every examination is a free.
    let visits = lfc_hazard::scan_visits() - visits_before;
    assert!(
        visits <= BURST && visits == freed,
        "{visits} record examinations for {freed} frees over a pinned burst \
         of {BURST}: scans re-examine pinned records"
    );

    // Reader leaves. Ordinary retire traffic — NO manual flush — must run
    // the draining scan within one threshold of further retires.
    release.store(true, Ordering::Release);
    reader.join().unwrap();
    let mut traffic = 0;
    while DROPS.load(Ordering::Relaxed) < BURST && traffic < 4 * threshold {
        retire_one(9);
        traffic += 1;
    }
    assert!(
        DROPS.load(Ordering::Relaxed) >= BURST && traffic <= threshold,
        "the freeable burst must drain within one scan threshold ({threshold}) \
         of retire traffic (freed {} of {BURST} after {traffic} retires)",
        DROPS.load(Ordering::Relaxed)
    );

    // And the trailing traffic itself drains within a bounded number of
    // flushes.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while DROPS.load(Ordering::Relaxed) < BURST + traffic && std::time::Instant::now() < deadline {
        lfc_hazard::flush();
        std::thread::yield_now();
    }
    assert_eq!(
        DROPS.load(Ordering::Relaxed),
        BURST + traffic,
        "all records reclaimed after the reader left"
    );
}
