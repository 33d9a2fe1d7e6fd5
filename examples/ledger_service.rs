//! The sharded ledger service, end to end: composed cross-shard moves,
//! the degradation ladder, and an exact audit on a live service.
//!
//! A small tour of `lockfree_compose::ledger`:
//! 1. open accounts and fund settlement lanes (tokens are minted),
//! 2. run migration/settlement/tier-shift traffic while an auditor
//!    takes quiesced sweeps — every sweep balances exactly,
//! 3. starve the structures' node allocation with the fault injector and
//!    watch the ladder shed instead of block, then heal.
//!
//! ```sh
//! cargo run --release --example ledger_service
//! ```

use lockfree_compose::fault;
use lockfree_compose::ledger::{HealthCfg, Ledger, LedgerCfg, LedgerError, ServiceState};
use std::sync::atomic::{AtomicBool, Ordering};

fn main() {
    fault::disarm();
    // The main thread audits; keep it off the fault counters.
    fault::shield_thread(true);

    let ledger = Ledger::new(LedgerCfg {
        shards: 4,
        health: HealthCfg {
            // Tight error thresholds so step 3's short starvation is
            // enough to walk the whole ladder in one example run.
            soft_alloc_errors: 4,
            hard_alloc_errors: 24,
            heal_polls: 2,
            ..HealthCfg::default()
        },
        ..LedgerCfg::default()
    });

    // 1. Admission: open 32 accounts, fund every shard's settlement lane.
    let ids: Vec<u64> = (0..32).map(|i| ledger.open(i % 7 + 1).unwrap()).collect();
    for s in 0..4 {
        ledger.fund_lane(s, 3).unwrap();
    }
    let r = ledger.audit();
    println!(
        "opened {} accounts, {} voucher tokens in lanes, circulating {} — conserved: {}",
        r.accounts,
        r.voucher_tokens,
        r.circulating(),
        r.conserved()
    );

    // 2. Traffic + live audits. Every cross-shard movement is one composed
    // operation, so no sweep can ever catch a token in two shards or none.
    let stop = AtomicBool::new(false);
    std::thread::scope(|sc| {
        let (l, stop, ids) = (&ledger, &stop, &ids);
        for w in 0..3u64 {
            sc.spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Acquire) {
                    let id = ids[i as usize % ids.len()];
                    match i % 4 {
                        0 => drop(l.migrate(id, i as usize)),
                        1 => drop(l.settle(i as usize, i as usize + 1)),
                        2 => drop(l.promote(id)),
                        _ => drop(l.demote(id)),
                    }
                    i = i.wrapping_add(3);
                }
            });
        }
        for sweep in 1..=5 {
            std::thread::sleep(std::time::Duration::from_millis(3));
            let r = ledger.quiesced_audit();
            assert!(r.conserved());
            println!(
                "sweep {sweep}: accounts={} account_tokens={} vouchers={} — exact",
                r.accounts, r.account_tokens, r.voucher_tokens
            );
        }
        stop.store(true, Ordering::Release);
    });

    // 3. Pressure: refuse every node allocation. Opening an account burns
    // its retry budget and reports Overloaded — it never blocks — and the
    // error window drives the ladder to Shed.
    fault::arm_site(fault::site::STRUCTURES_NODE, fault::Schedule::Always);
    for _ in 0..3 {
        assert_eq!(ledger.open(1), Err(LedgerError::Overloaded));
    }
    fault::disarm();

    let state = ledger.health().poll();
    println!(
        "after starvation: state={state}, reads still served: {:?}",
        { ledger.balance(ids[0]).unwrap() }
    );
    assert_eq!(state, ServiceState::Shed);
    assert_eq!(ledger.open(1), Err(LedgerError::Shed), "admission refused");

    // Self-healing: one rung per streak of clean polls.
    while ledger.health().poll() != ServiceState::Normal {}
    println!(
        "healed: state={}, recovery window {:?} ms",
        ledger.health().state(),
        ledger.health().recovery_ms()
    );

    let r = ledger.quiesced_audit();
    assert!(r.conserved());
    println!(
        "final audit: {} accounts, circulating {} == observed {} — exact",
        r.accounts,
        r.circulating(),
        r.observed()
    );
}
