//! Bounded-exhaustive model checking of the skip list's tower machinery
//! (PR 9): tower CASes are auxiliary — never linearization subjects — so
//! a tower unlink (or a concurrent tower build) racing a composed capture
//! on the level-0 chain must never tear the capture, at the same
//! preemption bound and memory mode `tests/stale_tag.rs` and
//! `model_resize.rs` use for their acceptance claims.
//!
//! Heights are deterministic per map (one ticket per insert through a
//! Fibonacci mixer): tickets 1→h3, 2→h4, 3→h1, 4→h1, 5→h2, 6→h2. The setup
//! phase burns the tall tickets on pad keys (kept in the map, above the
//! scenario's key range) so every *concurrent* tower is the minimal real
//! one — height 2, one tower level. Setup steps replay serially before
//! the spawns and neither branch on schedule nor on weak memory; the
//! bounded search only pays for the racing steps, which keeps these
//! scenarios at the same scale as the resize ones while still exercising
//! tower freeze, tower unlink and tower build against a live capture.
//!
//! Requires `RUSTFLAGS="--cfg lfc_model"`; compiles to nothing otherwise.
#![cfg(lfc_model)]

use lfc_core::{move_keyed, MoveOutcome};
use lfc_model::{explore, ExploreOpts, MemoryMode};
use lfc_structures::LfSkipMap;
use std::sync::Arc;

/// The stale-tag reference configuration: one preemption, weak memory.
fn opts() -> ExploreOpts {
    ExploreOpts {
        preemption_bound: 1,
        step_budget: 200_000,
        max_executions: 400_000,
        memory: MemoryMode::Weak,
    }
}

#[test]
fn dfs_tower_unlink_vs_capture() {
    // A composed keyed move captures its remove's linearization point on
    // node 10's level-0 `next` word while a concurrent remove of the
    // *successor* key 20 (height 2) freezes 20's tower and sweeps: the
    // sweep's level-0 physical unlink CASes the very word the capture
    // claimed, and the tower unlink CASes the express lane over it.
    // Every interleaving must linearize both operations independently —
    // the move lands key 10 in exactly one map and the remove reclaims
    // key 20; no tower CAS may decide (or tear) either outcome.
    let report = explore(opts(), move || {
        let a = Arc::new(LfSkipMap::<u32, u32>::new());
        let b = Arc::new(LfSkipMap::<u32, u32>::new());
        assert!(a.insert(90, 0)); // ticket 1 (h3): pad above the race keys
        assert!(a.insert(91, 0)); // ticket 2 (h4): pad
        assert!(a.insert(10, 100)); // ticket 3 (h1): the capture subject
        assert!(a.insert(92, 0)); // ticket 4 (h1): pad
        assert!(a.insert(20, 200)); // ticket 5 (h2): victim with a tower
        assert!(b.insert(90, 0)); // burn b's tall tickets too, so the
        assert!(b.insert(91, 0)); // mover's arriving insert is height 1
        let (a1, b1) = (a.clone(), b.clone());
        let mover = lfc_model::thread::spawn(move || {
            assert_eq!(
                move_keyed(&*a1, &10, &*b1),
                MoveOutcome::Moved,
                "the concurrent remove owns a different key"
            );
        });
        let a2 = a.clone();
        let remover = lfc_model::thread::spawn(move || {
            assert_eq!(a2.remove(&20), Some(200));
        });
        mover.join();
        remover.join();
        assert_eq!(a.get(&10), None, "key must have left the source");
        assert_eq!(b.get(&10), Some(100), "key must have arrived once");
        assert_eq!(a.get(&20), None);
        assert_eq!(a.count(), 3, "the three pads stay");
        assert_eq!(b.count(), 3);
        assert!(a.check_tower_order().is_ok(), "{:?}", a.check_tower_order());
        assert!(b.check_tower_order().is_ok(), "{:?}", b.check_tower_order());
    });
    report.assert_ok();
    assert!(
        report.complete,
        "tower-unlink-vs-capture must be a COMPLETE bounded search ({} executions)",
        report.executions
    );
    assert!(report.executions > 10, "scenario must actually branch");
}

#[test]
fn dfs_tower_build_vs_capture() {
    // The dual race: a composed capture claims node 10's level-0 word
    // while a concurrent insert of key 5 (height 2) builds a tower in
    // front of it — the build's level-0 insertion CAS targets the header
    // word feeding node 10, and its tower link splices an express lane
    // over the node mid-capture. The capture must commit or retry on the
    // level-0 word alone; the half-built tower must end fully linked with
    // its key present exactly once.
    let report = explore(opts(), move || {
        let a = Arc::new(LfSkipMap::<u32, u32>::new());
        let b = Arc::new(LfSkipMap::<u32, u32>::new());
        assert!(a.insert(90, 0)); // ticket 1 (h3): pad
        assert!(a.insert(91, 0)); // ticket 2 (h4): pad
        assert!(a.insert(10, 100)); // ticket 3 (h1): the capture subject
        assert!(a.insert(92, 0)); // ticket 4 (h1): pad
        assert!(b.insert(90, 0)); // burn b's tall tickets: arriving
        assert!(b.insert(91, 0)); // insert is height 1
        let (a1, b1) = (a.clone(), b.clone());
        let mover = lfc_model::thread::spawn(move || {
            assert_eq!(
                move_keyed(&*a1, &10, &*b1),
                MoveOutcome::Moved,
                "the concurrent insert owns a different key"
            );
        });
        let a2 = a.clone();
        let builder = lfc_model::thread::spawn(move || {
            assert!(a2.insert(5, 50)); // ticket 5: height 2
        });
        mover.join();
        builder.join();
        assert_eq!(a.get(&10), None);
        assert_eq!(b.get(&10), Some(100));
        assert_eq!(a.get(&5), Some(50), "tower build must survive the race");
        assert_eq!(a.count(), 4, "key 5 plus the three pads");
        assert_eq!(b.count(), 3);
        assert!(a.check_tower_order().is_ok(), "{:?}", a.check_tower_order());
        assert!(b.check_tower_order().is_ok(), "{:?}", b.check_tower_order());
    });
    report.assert_ok();
    assert!(
        report.complete,
        "tower-build-vs-capture must be a COMPLETE bounded search ({} executions)",
        report.executions
    );
    assert!(report.executions > 10, "scenario must actually branch");
}

#[test]
fn dfs_tower_unlink_vs_retire_scan() {
    // The stale_tag.rs shape on the skip list: the remover of a towered
    // node runs tagging + freeing scans right after its tower freeze while
    // a reader's range traversal may still hold the node through an
    // express lane. The per-level reference counts must keep the block
    // alive until the last level lets go (a use-after-free is caught by
    // the model's freed-block quarantine), and the node must retire
    // exactly once.
    let report = explore(opts(), move || {
        let a = Arc::new(LfSkipMap::<u32, u32>::new());
        assert!(a.insert(90, 0)); // ticket 1 (h3): pad
        assert!(a.insert(91, 0)); // ticket 2 (h4): pad
        assert!(a.insert(92, 0)); // ticket 3 (h1): pad
        assert!(a.insert(93, 0)); // ticket 4 (h1): pad
        assert!(a.insert(10, 100)); // ticket 5 (h2): victim with a tower
        let a1 = a.clone();
        let remover = lfc_model::thread::spawn(move || {
            assert_eq!(a1.remove(&10), Some(100));
            lfc_hazard::flush();
            lfc_hazard::flush();
        });
        let a2 = a.clone();
        let reader = lfc_model::thread::spawn(move || {
            // Sub-range walk below the pads: enters at the header, may
            // traverse the victim while it is being frozen, unlinked and
            // scanned.
            for (k, v) in a2.range(..50) {
                assert_eq!((k, v), (10, 100));
            }
        });
        remover.join();
        reader.join();
        assert_eq!(a.get(&10), None);
        assert_eq!(a.count(), 4, "the four pads stay");
        assert!(a.check_tower_order().is_ok(), "{:?}", a.check_tower_order());
    });
    report.assert_ok();
    assert!(
        report.complete,
        "tower-unlink-vs-retire must be a COMPLETE bounded search ({} executions)",
        report.executions
    );
    assert!(report.executions > 10, "scenario must actually branch");
}

#[test]
fn dfs_neighbour_tower_builds_keep_levels_sorted() {
    // Two inserts build height-2 towers side by side at level 1. Each
    // tower level must link with a CAS that expects the successor its own
    // search recorded: a builder that re-reads its predecessor's link
    // after the search can splice itself in front of a smaller key that
    // linked meanwhile (`header → 10 → 5`), and a later search for 5 then
    // never reaches node 5 on that level.
    let report = explore(opts(), move || {
        let a = Arc::new(LfSkipMap::<u32, u32>::new());
        assert!(a.insert(90, 0)); // ticket 1 (h3): pad
        assert!(a.insert(91, 0)); // ticket 2 (h4): pad
        assert!(a.insert(92, 0)); // ticket 3 (h1): pad
        assert!(a.insert(93, 0)); // ticket 4 (h1): pad
        let (a1, a2) = (a.clone(), a.clone());
        let big = lfc_model::thread::spawn(move || assert!(a1.insert(10, 100)));
        let small = lfc_model::thread::spawn(move || assert!(a2.insert(5, 50)));
        big.join(); // tickets 5 and 6, in either order: both height 2
        small.join();
        assert_eq!(a.check_tower_order(), Ok(0), "tower levels stay ascending");
        assert_eq!(a.get(&5), Some(50));
        assert_eq!(a.get(&10), Some(100));
        assert_eq!(a.count(), 6);
    });
    report.assert_ok();
    assert!(
        report.complete,
        "neighbour tower builds must be a COMPLETE bounded search ({} executions)",
        report.executions
    );
    assert!(report.executions > 10, "scenario must actually branch");
}

/// A towered node (20) is removed while its level-1 predecessor (10) is
/// removed concurrently, so 20's targeted unlink CAS on 10's frozen link
/// can fail and only the fallback sweep unlinks level 1. Checked once both
/// removers return: no tower level links a removed node; then, after one
/// traversal cleans level 0, each node has retired exactly once.
fn fallback_race(sabotage: bool) {
    use lfc_structures::model_toggles::SKIP_TOWER_FALLBACK;
    use std::sync::atomic::Ordering;
    /// Clears the seeded bug however the execution ends, so no other
    /// search ever runs with it set (the explorer lock is still held).
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            SKIP_TOWER_FALLBACK.store(false, Ordering::SeqCst);
        }
    }
    SKIP_TOWER_FALLBACK.store(sabotage, Ordering::SeqCst);
    let _reset = Reset;
    let a = Arc::new(LfSkipMap::<u32, u32>::new());
    assert!(a.insert(90, 0)); // ticket 1 (h3): pad
    assert!(a.insert(91, 0)); // ticket 2 (h4): pad
    assert!(a.insert(92, 0)); // ticket 3 (h1): pad
    assert!(a.insert(93, 0)); // ticket 4 (h1): pad
    assert!(a.insert(10, 100)); // ticket 5 (h2): the predecessor
    assert!(a.insert(20, 200)); // ticket 6 (h2): the node
    let retired = lfc_hazard::stats().0;
    let (a1, a2) = (a.clone(), a.clone());
    let node = lfc_model::thread::spawn(move || {
        assert_eq!(a1.remove(&20), Some(200));
        lfc_hazard::flush();
    });
    let pred = lfc_model::thread::spawn(move || assert_eq!(a2.remove(&10), Some(100)));
    node.join();
    pred.join();
    assert_eq!(
        a.check_tower_order(),
        Ok(0),
        "no tower level may link a removed node once its remover returns"
    );
    assert_eq!(a.get(&20), None); // helps the level-0 unlinks home
    assert_eq!(a.get(&10), None);
    assert_eq!(
        lfc_hazard::stats().0 - retired,
        2,
        "each removed node retires exactly once"
    );
    assert_eq!(a.count(), 4, "the four pads stay");
}

#[test]
fn dfs_failed_targeted_unlink_falls_back_then_sabotage_caught() {
    // Phase 1 — fallback intact: a complete bounded search, no failure
    // (a use-after-free would be caught by the model's quarantine).
    let report = explore(opts(), || fallback_race(false));
    report.assert_ok();
    assert!(
        report.complete,
        "fallback race must be a COMPLETE bounded search ({} executions)",
        report.executions
    );
    assert!(report.executions > 10, "scenario must actually branch");
    eprintln!("fallback race clean over {} executions", report.executions);

    // Phase 2 — fallback sweep dropped: a failed targeted unlink leaves a
    // removed node linked, which the bounded search must catch.
    let report = explore(opts(), || fallback_race(true));
    let failure = report
        .failure
        .expect("a dropped fallback sweep must be caught by the bounded explorer");
    eprintln!(
        "dropped fallback caught after {} executions:\n{failure}",
        report.executions
    );
}
