//! Thread-churn regression (PR 8, satellite 1): threads that exit
//! **without** calling `detach_thread` must not leak their slot bank.
//!
//! Before PR 8 a thread that pinned, published a hazard and then simply
//! returned left the value in its `SLOTS` bank forever: the bank is indexed
//! by thread id, ids are reused, and nothing cleared the slots at TLS
//! teardown — so every short-lived thread could hand a phantom protection
//! (or a pinned-looking epoch) to the next claimant of its id, and the
//! reclamation scan would treat garbage addresses as protected for the
//! life of the process. PR 8 registers a tid *finalizer* (`clear_bank`)
//! the first time `pin()` runs; the finalizer is invoked from the
//! thread-exit destructor (and from corpse adoption) after the exit hooks,
//! so a reused id always starts with a pristine bank.

use lfc_hazard::{bank_is_clear, pin, pin_op, slot};
use lfc_runtime::{registered_high_water, tid_is_claimed, MAX_THREADS};
use std::sync::{Mutex, PoisonError};

/// Both tests read other threads' banks by tid while the tid registry is
/// process-global: a thread of the *other* test claiming a just-released
/// id between two reads looks exactly like a dirty bank. Serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

/// Thousands of short-lived threads, each leaving hazards and a pinned
/// epoch behind at exit: the id space must stay bounded and every released
/// id's bank must come back clear.
#[test]
fn churned_threads_release_clean_banks() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const ROUNDS: usize = 500;
    const PAR: usize = 8;
    let mut seen = std::collections::HashSet::new();
    for round in 0..ROUNDS {
        let handles: Vec<_> = (0..PAR)
            .map(|i| {
                std::thread::spawn(move || {
                    // An operation epoch AND raw hazards, all left set: the
                    // worst-behaved exit short of a kill.
                    let op = pin_op();
                    let g = pin();
                    g.set(slot::INS0, 0x1000 + (round * PAR + i) * 8);
                    g.set(slot::DESC, 0x2000 + (round * PAR + i) * 8);
                    std::mem::forget(op); // epoch slot stays pinned too
                    g.tid()
                })
            })
            .collect();
        // Join the whole round before looking at any bank: a sibling still
        // starting up could claim a released id between the claimed-check
        // and the bank read and publish its own hazards there.
        let tids: Vec<u16> = handles
            .into_iter()
            .map(|h| h.join().expect("churn thread"))
            .collect();
        for tid in tids {
            // Joining a thread orders its TLS destructors before us: the
            // finalizer must already have scrubbed the bank and the id must
            // be claimable again.
            seen.insert(tid);
            if !tid_is_claimed(tid) {
                assert!(
                    bank_is_clear(tid),
                    "round {round}: released tid {tid} has a dirty bank"
                );
            }
        }
    }
    // Bounded growth: PAR concurrent threads plus whatever the test harness
    // itself registered can never approach the registry limit — before the
    // finalizer fix this assertion is irrelevant, but the dirty-bank one
    // above fires on the very first reused id.
    assert!(
        registered_high_water() < MAX_THREADS / 2,
        "high water {} for {} sequential-ish threads",
        registered_high_water(),
        ROUNDS * PAR
    );
    assert!(seen.len() <= registered_high_water());
}

/// A reused id observes no state from its previous owner even when the
/// previous owner exited mid-"operation" (hazards set, epoch pinned).
#[test]
fn reused_tid_starts_pristine() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for _ in 0..64 {
        let dirty_tid = std::thread::spawn(|| {
            let g = pin();
            g.set(slot::REM0, 0xbeef_0008);
            g.tid()
        })
        .join()
        .expect("dirty thread");
        // Sequential spawn: the next thread very likely reuses the lowest
        // free id. Whichever id it gets, its own bank must read clear
        // before it publishes anything.
        let (reused, was_clear) = std::thread::spawn(move || {
            let g = pin();
            let clear_before = (0..lfc_hazard::SLOTS_PER_THREAD).all(|i| g.get(i) == 0);
            (g.tid() == dirty_tid, clear_before)
        })
        .join()
        .expect("reusing thread");
        assert!(was_clear, "fresh claimant observed a dirty bank");
        if reused {
            return; // proved the interesting case
        }
    }
    panic!("id was never reused across 64 sequential spawns");
}
