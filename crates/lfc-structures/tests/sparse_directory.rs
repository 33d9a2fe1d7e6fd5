//! An untouched bucket costs no resident memory. Directory segments come
//! zero-filled from the system's `calloc`, so a large capacity hint maps
//! its slots lazily instead of writing every one of them.
//! Resident memory is read from `/proc/self/status` (Linux only); this
//! binary holds one test so no other test's allocations blur the reading.
#![cfg(target_os = "linux")]

use lfc_structures::LfHashMap;

/// Resident set size in KiB (`VmRSS`).
fn rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value in kB")
}

#[test]
fn a_large_capacity_hint_leaves_untouched_slots_unmapped() {
    // 2^20 buckets of 64-byte slots: a 64 MiB first segment. A doubling
    // allocates its segment through the same zero-filled path.
    const BUCKETS: usize = 1 << 20;
    const SEGMENT_KIB: usize = BUCKETS * 64 / 1024;
    let before = rss_kib();
    let m: LfHashMap<u64, u64> = LfHashMap::with_buckets(BUCKETS);
    for k in 0..64u64 {
        assert!(m.insert(k, k));
    }
    let grew = rss_kib().saturating_sub(before);
    assert!(
        grew < SEGMENT_KIB / 8,
        "a {SEGMENT_KIB} KiB segment with 64 touched slots raised RSS by {grew} KiB"
    );
    assert_eq!(m.count(), 64);
}
