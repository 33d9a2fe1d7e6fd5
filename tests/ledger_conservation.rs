//! Tier-1 slice of the PR 10 chaos campaign, driven through the public
//! `lockfree_compose::ledger` facade: a small sharded ledger under kill
//! AND OOM adversaries armed **together**, with quiesced audits asserting
//! exact token conservation while the campaign is live. The full-scale
//! version (plus the stall adversary, Zipfian load and availability
//! series) is the ignored `chaos_campaign` test in `lfc-bench`; this one
//! stays under a second so every `cargo test` run gates on conservation.
//!
//! The wind-down also exercises `fault::disarm_site`: adversaries retire
//! one at a time (kills first, OOM after), the phased-schedule shape the
//! site-level disarm API exists for.

use lockfree_compose::fault;
use lockfree_compose::ledger::{Ledger, LedgerCfg};
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn combined_kill_and_oom_conserve_every_token() {
    fault::install_quiet_abandon_hook();
    fault::disarm();
    // The main thread audits and adopts; it must not be reaped and must
    // not advance the kill counters.
    fault::shield_thread(true);

    const ACCOUNTS: u64 = 48;
    const VOUCHERS_PER_LANE: u64 = 4;
    const WORKERS: usize = 3;
    const BURSTS: usize = 14;

    let l = Ledger::new(LedgerCfg {
        shards: 3,
        ..LedgerCfg::default()
    });
    for i in 0..ACCOUNTS {
        l.open(i % 5 + 1).unwrap();
    }
    for s in 0..3 {
        for _ in 0..VOUCHERS_PER_LANE {
            l.fund_lane(s, 2).unwrap();
        }
    }
    let abandoned0 = fault::abandoned_total();

    // Both adversaries at once (counters advance only for unshielded
    // threads): kills after the announcement and after the publish, at
    // every commit width — the 4-entry settle path is where this workload
    // mostly commits — and refused node allocations on the fallible
    // paths: a notice broadcast stages its notice through `try_insert`.
    fault::arm_site("dcas.announced", fault::Schedule::EveryNth(37));
    fault::arm_site("dcas.published", fault::Schedule::EveryNth(7));
    fault::arm_site(
        "structures.node",
        fault::Schedule::Prob {
            ppm: 25_000,
            seed: 0x6ED1,
        },
    );

    let stop = AtomicBool::new(false);
    std::thread::scope(|sc| {
        for w in 0..WORKERS {
            let l = &l;
            sc.spawn(move || {
                let mut i = w as u64;
                for _ in 0..BURSTS {
                    // A kill unwinds the burst (releasing the in-flight
                    // ticket), parks the tid as a corpse, and the same OS
                    // thread re-enters the next burst with a new identity.
                    fault::abandonment_scope(|| {
                        for _ in 0..24 {
                            let id = i % ACCOUNTS;
                            match i % 5 {
                                0 => drop(l.migrate(id, (id as usize + 1) % 3)),
                                1 => drop(l.settle(i as usize % 3, (i as usize + 1) % 3)),
                                2 => drop(l.promote(id)),
                                3 => drop(l.demote(id)),
                                // Notices carry no tokens and are not
                                // accounts: conservation ignores them.
                                _ => {
                                    let _ = l.broadcast_notice(i % 4);
                                    l.collect_notice(i % 4);
                                }
                            }
                            i = i.wrapping_add(1);
                        }
                    });
                }
            });
        }
        // Governor: recycle dead tids while the workers run.
        let (l, stop) = (&l, &stop);
        let governor = sc.spawn(move || {
            fault::shield_thread(true);
            while !stop.load(Ordering::Acquire) {
                let _ = l.tend();
                std::thread::yield_now();
            }
        });

        // Continuous sweeps while both adversaries are live: every one
        // must balance exactly — Σ balances + Σ vouchers == minted − burned.
        for _ in 0..6 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let r = l.quiesced_audit();
            assert!(r.conserved(), "sweep under live kill+OOM: {r:?}");
            assert_eq!(r.accounts, ACCOUNTS, "no account lost or duplicated");
            assert_eq!(
                r.voucher_tokens,
                3 * VOUCHERS_PER_LANE * 2,
                "no voucher lost or duplicated"
            );
        }
        stop.store(true, Ordering::Release);
        governor.join().unwrap();
    });

    // Phased wind-down: retire the crash adversary first and audit with
    // the OOM schedule still armed, then retire that too.
    fault::disarm_site("dcas.announced");
    fault::disarm_site("dcas.published");
    let r = l.quiesced_audit();
    assert!(r.conserved(), "sweep with only the OOM adversary: {r:?}");
    fault::disarm_site("structures.node");

    let r = l.quiesced_audit();
    assert!(r.conserved(), "final sweep fully disarmed: {r:?}");
    assert_eq!(r.accounts, ACCOUNTS);
    assert_eq!(fault::corpse_count(), 0, "every corpse adopted");
    assert!(
        fault::abandoned_total() > abandoned0,
        "the kill schedule must actually reap workers"
    );
    fault::disarm();
    fault::shield_thread(false);
}
