//! The degradation ladder and the quiesce/audit protocol under *real*
//! injected faults — the tier-1 slice of the chaos campaign. The full
//! combined-adversary campaign (kill + stall + OOM under Zipfian load)
//! lives in `lfc-bench`; these tests keep the load small enough for every
//! `cargo test` run while still arming the same fault machinery.
//!
//! Fault arming is process-global, so the tests serialize on one mutex
//! (the same idiom as `tests/oom_graceful.rs`).

use lfc_ledger::{HealthCfg, Ledger, LedgerCfg, LedgerError, ServiceState, SettleOutcome};
use lfc_runtime::fault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// Poison-tolerant: one failing test reports as one failure, not two.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny_cfg() -> LedgerCfg {
    LedgerCfg {
        shards: 4,
        retries: 2,
        health: HealthCfg {
            // Byte budgets out of reach: only the error window and corpse
            // count drive these tests.
            soft_retired_bytes: usize::MAX / 2,
            hard_retired_bytes: usize::MAX / 2,
            soft_alloc_errors: 1,
            hard_alloc_errors: 8,
            soft_corpses: usize::MAX / 2,
            heal_polls: 2,
        },
        ..LedgerCfg::default()
    }
}

#[test]
fn injected_oom_walks_the_ladder_and_the_service_heals() {
    let _serial = serial();
    fault::disarm();
    let l = Ledger::new(tiny_cfg());
    let a = l.open(10).unwrap();
    l.fund_lane(0, 1).unwrap();
    l.fund_lane(1, 2).unwrap();

    // Starve the structures' node allocation: every `open` now fails its
    // whole retry budget and reports Overloaded — never blocks, never
    // panics, and mints nothing.
    fault::arm_site(fault::site::STRUCTURES_NODE, fault::Schedule::Always);
    for _ in 0..3 {
        assert_eq!(l.open(1), Err(LedgerError::Overloaded));
    }
    assert!(
        fault::fired_total() >= 9,
        "every retry of every open was refused by injection"
    );
    fault::disarm();

    // ≥ 9 allocation errors in the window: one poll jumps straight to Shed.
    assert_eq!(l.health().poll(), ServiceState::Shed);
    assert_eq!(l.open(1), Err(LedgerError::Shed));
    assert_eq!(l.migrate(a, 2), Err(LedgerError::Shed));
    assert_eq!(l.balance(a), Ok(10), "reads ride out the shed");

    // Self-healing: one rung per `heal_polls` clean polls.
    assert_eq!(l.health().poll(), ServiceState::Shed);
    assert_eq!(l.health().poll(), ServiceState::NoResize);
    assert_eq!(
        l.open(1),
        Err(LedgerError::Shed),
        "admission still closed on NoResize"
    );
    assert_eq!(
        l.settle(0, 1),
        Ok(SettleOutcome::Exchanged),
        "existing-state mutations admitted again (and the engine works disarmed)"
    );
    assert_eq!(l.health().poll(), ServiceState::NoResize);
    assert_eq!(l.health().poll(), ServiceState::Normal);
    assert!(l.open(1).is_ok(), "fully healed");

    assert!(
        l.health().recovery_ms().is_some(),
        "the transition log measures the recovery window"
    );
    let r = l.quiesced_audit();
    assert!(r.conserved(), "{r:?}");
    let s = l.health().stats();
    assert!(s.shed_total >= 3 && s.overloaded_total >= 3 && s.alloc_errors_total >= 9);
}

#[test]
fn killed_workers_are_adopted_and_every_sweep_conserves() {
    let _serial = serial();
    fault::install_quiet_abandon_hook();
    fault::disarm();
    fault::shield_thread(true);

    const ACCOUNTS: u64 = 96;
    const WORKERS: usize = 4;
    let l = Ledger::new(LedgerCfg {
        shards: 4,
        ..LedgerCfg::default()
    });
    for _ in 0..ACCOUNTS {
        l.open(1).unwrap();
    }
    for s in 0..4 {
        l.fund_lane(s, 5).unwrap();
    }
    let abandoned0 = fault::abandoned_total();
    let adopted0 = fault::adopted_total();

    // The crash adversary's kill sites: die announced-not-published and
    // published-not-decided, at every commit width. EveryNth counters
    // advance only for unshielded threads — the workers reap themselves
    // while the auditor and governor run for free.
    fault::arm_site(fault::site::DCAS_ANNOUNCED, fault::Schedule::EveryNth(463));
    fault::arm_site(fault::site::DCAS_PUBLISHED, fault::Schedule::EveryNth(701));

    let stop = AtomicBool::new(false);
    std::thread::scope(|sc| {
        for w in 0..WORKERS {
            let (l, stop) = (&l, &stop);
            sc.spawn(move || {
                let mut i = w as u64;
                while !stop.load(Ordering::Acquire) {
                    // Each burst runs under an abandonment scope: a kill
                    // unwinds the burst (dropping the in-flight ticket on
                    // the way), parks the tid as a corpse, and the same OS
                    // thread re-enters with a fresh identity.
                    fault::abandonment_scope(|| {
                        for _ in 0..64 {
                            let id = i % ACCOUNTS;
                            match i % 4 {
                                0 => drop(l.migrate(id, (id as usize + 1) % 4)),
                                1 => drop(l.settle(i as usize % 4, (i as usize + 1) % 4)),
                                2 => drop(l.promote(id)),
                                _ => drop(l.demote(id)),
                            }
                            i = i.wrapping_add(1);
                        }
                    });
                }
            });
        }
        // Governor: adopt corpses and poll the ladder continuously, so
        // dead tids are recycled faster than the adversary parks them.
        let (l, stop) = (&l, &stop);
        let governor = sc.spawn(move || {
            fault::shield_thread(true);
            while !stop.load(Ordering::Acquire) {
                let _ = l.tend();
                std::thread::yield_now();
            }
        });

        // The auditor's continuous sweeps: every one must balance exactly
        // *while the kill campaign is live*.
        for _ in 0..12 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            let r = l.quiesced_audit();
            assert!(r.conserved(), "sweep under live kills: {r:?}");
            assert_eq!(r.accounts, ACCOUNTS, "kills never lose an account");
            assert_eq!(r.voucher_tokens, 4 * 5, "kills never lose a voucher");
        }
        stop.store(true, Ordering::Release);
        governor.join().unwrap();
    });
    fault::disarm();

    let r = l.quiesced_audit();
    assert!(r.conserved(), "final sweep: {r:?}");
    assert_eq!(fault::corpse_count(), 0, "every corpse adopted");
    assert!(
        fault::abandoned_total() > abandoned0,
        "the campaign actually killed threads"
    );
    assert!(
        fault::adopted_total() >= adopted0 + (fault::abandoned_total() - abandoned0),
        "every abandonment was adopted"
    );
    fault::shield_thread(false);
}
