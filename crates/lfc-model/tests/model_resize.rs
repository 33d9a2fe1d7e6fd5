//! Bounded-exhaustive model checking of the split-ordered hash map's
//! resize machinery (PR 5): the races the incremental split opens —
//! a lazily threaded bucket dummy CASing into the very word a composed
//! capture has claimed as its linearization point, a dummy threading
//! into a chain whose neighbour is concurrently unlinked and retired, and
//! two threads racing to claim and thread one bucket's embedded dummy
//! while a third inserts into that bucket (with a seeded bug that skips
//! the claim CAS, which must be caught) — explored over every schedule at
//! the same preemption bound (and memory mode) `tests/stale_tag.rs` uses
//! for its acceptance claim.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
#![cfg(lfc_model)]

use lfc_core::{move_keyed, MoveOutcome};
use lfc_model::{explore, ExploreOpts, MemoryMode};
use lfc_structures::LfHashMap;
use std::sync::Arc;

/// The bound and memory mode of `tests/stale_tag.rs` (the repo's reference
/// configuration for reclamation races): one preemption, weak memory.
fn opts() -> ExploreOpts {
    ExploreOpts {
        preemption_bound: 1,
        step_budget: 200_000,
        max_executions: 400_000,
        memory: MemoryMode::Weak,
    }
}

/// Pick `(k_keep, k_split)` for a 2-bucket map: `k_keep` stays in bucket 0
/// when a 1-bucket map doubles, `k_split`'s bucket-1 dummy gets threaded
/// right at `k_keep`'s chain on first touch after the doubling. Split
/// ordering guarantees bucket 0's data sorts before bucket 1's dummy, so
/// with `k_keep` the only resident key the dummy's insertion CAS lands on
/// `k_keep`'s own `next` word — the exact word a remove (and a composed
/// capture) linearizes through.
fn split_pair() -> (u32, u32) {
    let probe: LfHashMap<u32, u32> = LfHashMap::with_buckets(2);
    let keep = (1..64u32)
        .find(|k| probe.bucket_index(k) == 0)
        .expect("some key hashes to bucket 0");
    let split = (1..64u32)
        .find(|k| probe.bucket_index(k) == 1)
        .expect("some key hashes to bucket 1");
    (keep, split)
}

#[test]
fn dfs_split_vs_capture() {
    // A composed keyed move captures its remove's linearization point on
    // `k_keep.next` while a concurrent operation doubles the directory and
    // lazily threads bucket 1's dummy — whose insertion CAS targets that
    // same word. Every interleaving within the bound must linearize: the
    // key lands in exactly one map (the capture either commits before the
    // dummy threads, or fails its CAS-validated entry and retries past the
    // new dummy), and the split is semantically invisible.
    let (k_keep, k_split) = split_pair();
    let report = explore(opts(), move || {
        let a = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
        let b = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
        assert!(a.insert(k_keep, 10));
        let (a1, b1) = (a.clone(), b.clone());
        let mover = lfc_model::thread::spawn(move || {
            assert_eq!(
                move_keyed(&*a1, &k_keep, &*b1),
                MoveOutcome::Moved,
                "the only concurrent activity is a split, which never owns the key"
            );
        });
        let a2 = a.clone();
        let splitter = lfc_model::thread::spawn(move || {
            a2.force_grow();
            // First touch of bucket 1 threads its dummy next to (or onto)
            // k_keep's node, racing the capture.
            assert_eq!(a2.get(&k_split), None);
        });
        mover.join();
        splitter.join();
        // The moved key is in exactly one container, value intact.
        assert_eq!(a.get(&k_keep), None, "key must have left the source");
        assert_eq!(b.get(&k_keep), Some(10), "key must have arrived once");
        assert_eq!(a.count(), 0);
        assert_eq!(b.count(), 1);
    });
    report.assert_ok();
    assert!(
        report.complete,
        "split-vs-capture must be a COMPLETE bounded search ({} executions)",
        report.executions
    );
    assert!(report.executions > 10, "scenario must actually branch");
}

#[test]
fn dfs_split_vs_retire() {
    // The dummy threading races a remove's *physical unlink and retire* of
    // the same neighbour: the splitter's traversal may hold the node while
    // the remover unlinks it and runs tagging + freeing scans. The epoch
    // must keep the block alive under the traversal (a use-after-free is
    // caught by the model's freed-block quarantine), and the threading CAS
    // onto the marked/unlinked node must fail harmlessly and re-find.
    let (k_keep, k_split) = split_pair();
    let report = explore(opts(), move || {
        let a = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
        assert!(a.insert(k_keep, 10));
        let a1 = a.clone();
        let remover = lfc_model::thread::spawn(move || {
            assert_eq!(a1.remove(&k_keep), Some(10));
            // First scan tags the retired node, second may free it — the
            // stale_tag.rs shape, now with a split traversal in flight.
            lfc_hazard::flush();
            lfc_hazard::flush();
        });
        let a2 = a.clone();
        let splitter = lfc_model::thread::spawn(move || {
            a2.force_grow();
            assert_eq!(a2.get(&k_split), None);
        });
        remover.join();
        splitter.join();
        assert_eq!(a.get(&k_keep), None);
        assert_eq!(a.count(), 0);
        // The split itself must have stuck (the directory only grows).
        assert!(a.capacity() >= 2);
    });
    report.assert_ok();
    assert!(
        report.complete,
        "split-vs-retire must be a COMPLETE bounded search ({} executions)",
        report.executions
    );
    assert!(report.executions > 10, "scenario must actually branch");
}

/// Two distinct keys of bucket 1 in a 2-bucket map.
fn bucket1_keys() -> (u32, u32) {
    let probe: LfHashMap<u32, u32> = LfHashMap::with_buckets(2);
    let mut odd = (1..64u32).filter(|k| probe.bucket_index(k) == 1);
    (
        odd.next().expect("a key hashes to bucket 1"),
        odd.next().expect("a second key hashes to bucket 1"),
    )
}

/// Two readers race to thread bucket 1's embedded dummy while a third
/// thread inserts a key of that bucket. Checked after the join: the key is
/// found, the list's split-order keys strictly increase, and bucket 1's
/// dummy is linked exactly once.
fn claim_race(k_read: u32, k_ins: u32, sabotage: bool) {
    use lfc_structures::model_toggles::SKIP_CLAIM;
    use std::sync::atomic::Ordering;
    /// Clears the seeded bug however the execution ends, so no other
    /// search ever runs with it set (the explorer lock is still held).
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            SKIP_CLAIM.store(false, Ordering::SeqCst);
        }
    }
    SKIP_CLAIM.store(sabotage, Ordering::SeqCst);
    let _reset = Reset;
    let m = Arc::new(LfHashMap::<u32, u32>::with_buckets(1));
    assert_eq!(m.force_grow(), 2, "bucket 1 exists but is unthreaded");
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let m = m.clone();
            lfc_model::thread::spawn(move || assert_eq!(m.get(&k_read), None))
        })
        .collect();
    let m3 = m.clone();
    let inserter = lfc_model::thread::spawn(move || assert!(m3.insert(k_ins, 7)));
    for r in readers {
        r.join();
    }
    inserter.join();
    assert_eq!(m.get(&k_ins), Some(7), "the inserted key is found");
    let keys = m.split_order_keys(16);
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "split-order keys must strictly increase: {keys:x?}"
    );
    let dummy1 = 1usize.reverse_bits();
    assert_eq!(
        keys.iter().filter(|&&so| so == dummy1).count(),
        1,
        "bucket 1's dummy must be linked exactly once: {keys:x?}"
    );
}

#[test]
fn dfs_claim_then_thread_then_sabotage_caught() {
    let (k_read, k_ins) = bucket1_keys();
    // Phase 1 — claim intact: a complete bounded search, no failure.
    let report = explore(opts(), move || claim_race(k_read, k_ins, false));
    report.assert_ok();
    assert!(
        report.complete,
        "claim race must be a COMPLETE bounded search ({} executions)",
        report.executions
    );
    assert!(report.executions > 10, "scenario must actually branch");
    eprintln!("claim race clean over {} executions", report.executions);

    // Phase 2 — claim CAS skipped: two threaders write one slot, which the
    // bounded search must catch.
    let report = explore(opts(), move || claim_race(k_read, k_ins, true));
    let failure = report
        .failure
        .expect("a skipped claim CAS must be caught by the bounded explorer");
    eprintln!(
        "skipped claim caught after {} executions:\n{failure}",
        report.executions
    );
}
