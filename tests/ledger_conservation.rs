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
//!
//! A second test checks that balances stay exact while accounts move, the
//! property the ledger's location directory must not disturb.

use lockfree_compose::fault;
use lockfree_compose::ledger::{Ledger, LedgerCfg, LedgerError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Fault schedules are process-wide: the tests of this binary take turns,
/// each starting disarmed.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    fault::disarm();
    guard
}

#[test]
fn combined_kill_and_oom_conserve_every_token() {
    let _serial = serial();
    fault::install_quiet_abandon_hook();
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
    fault::arm_site(fault::site::DCAS_ANNOUNCED, fault::Schedule::EveryNth(37));
    fault::arm_site(fault::site::DCAS_PUBLISHED, fault::Schedule::EveryNth(7));
    fault::arm_site(
        fault::site::STRUCTURES_NODE,
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
    fault::disarm_site(fault::site::DCAS_ANNOUNCED);
    fault::disarm_site(fault::site::DCAS_PUBLISHED);
    let r = l.quiesced_audit();
    assert!(r.conserved(), "sweep with only the OOM adversary: {r:?}");
    fault::disarm_site(fault::site::STRUCTURES_NODE);

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

/// Two threads migrate, promote and demote 64 accounts at random while a
/// third reads balances. The directory may send a lookup to a stale place,
/// but every `Ok` must still be the account's opening amount: a hint only
/// orders probes, it never supplies a value.
#[test]
fn balances_stay_exact_while_accounts_move() {
    let _serial = serial();
    const ACCOUNTS: u64 = 64;
    const SHARDS: usize = 4;
    const MOVES: usize = 20_000;
    let amount = |id: u64| 1_000 + 7 * id;

    let l = Ledger::new(LedgerCfg {
        shards: SHARDS,
        ..LedgerCfg::default()
    });
    for id in 0..ACCOUNTS {
        assert_eq!(l.open(amount(id)), Ok(id));
    }
    let movers = AtomicUsize::new(2);
    let (mut exact, mut reads) = (0u64, 0u64);
    std::thread::scope(|sc| {
        for seed in [0x9E37_79B9_7F4A_7C15u64, 0xD1B5_4A32_D192_ED03] {
            let (l, movers) = (&l, &movers);
            sc.spawn(move || {
                let mut x = seed;
                for _ in 0..MOVES {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let id = x % ACCOUNTS;
                    let r = match (x >> 32) % 3 {
                        0 => l.migrate(id, (x >> 40) as usize % SHARDS),
                        1 => l.promote(id),
                        _ => l.demote(id),
                    };
                    // A lookup racing a move may miss (NotFound) and a
                    // contended retry budget may run out (Overloaded);
                    // nothing else is a legal answer here.
                    assert!(
                        matches!(
                            r,
                            Ok(()) | Err(LedgerError::NotFound | LedgerError::Overloaded)
                        ),
                        "account {id}: {r:?}"
                    );
                }
                movers.fetch_sub(1, Ordering::Release);
            });
        }
        let mut id = 0;
        while movers.load(Ordering::Acquire) > 0 || reads < 4 * ACCOUNTS {
            match l.balance(id) {
                Ok(v) => {
                    assert_eq!(v, amount(id), "account {id} read a wrong balance");
                    exact += 1;
                }
                Err(e) => assert_eq!(e, LedgerError::NotFound, "account {id}"),
            }
            reads += 1;
            id = (id + 1) % ACCOUNTS;
            if id == 0 {
                std::thread::yield_now();
            }
        }
    });
    assert!(exact > 0, "no read found an account ({reads} reads)");
    for id in 0..ACCOUNTS {
        assert_eq!(l.balance(id), Ok(amount(id)), "quiet read of account {id}");
    }
    let r = l.quiesced_audit();
    assert!(r.conserved(), "{r:?}");
    assert_eq!(r.accounts, ACCOUNTS);
    assert_eq!(r.account_tokens, (0..ACCOUNTS).map(amount).sum::<u64>());
}
