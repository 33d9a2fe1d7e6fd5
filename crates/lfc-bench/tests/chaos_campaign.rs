//! Combined-adversary chaos campaign (PR 10 acceptance): kill + stall +
//! OOM schedules armed **simultaneously** against the sharded ledger
//! service under Zipfian traffic, with a dedicated auditor thread sweeping
//! for exact token conservation campaign-long.
//!
//! Asserts the acceptance criteria in-process:
//! * every audit sweep balanced exactly (conservation under live chaos),
//! * every killed thread adopted, no corpses left,
//! * abandonment leaks within the documented per-corpse bound,
//! * retired-bytes high-water within the stall budget (+ scan slack),
//! * the degradation ladder engaged (refusals counted, never a deadlock)
//!   and walked itself back to `Normal` — recovery time measured.
//!
//! Ignored by default (≈10 s wall clock, wants the whole machine); CI's
//! `nightly-chaos` job runs `cargo test --release -- --ignored chaos` and
//! archives the `chaos-summary:` line plus the `reproduce chaos` JSON.

use lfc_bench::chaos::{run_chaos, ChaosCfg, RETIRED_HWM_BOUND};
use lfc_ledger::ServiceState;

#[test]
#[ignore = "chaos campaign: run with --release -- --ignored chaos"]
fn chaos_combined_adversaries_conserve_and_recover() {
    let cfg = ChaosCfg::full();
    let r = run_chaos(&cfg);

    // The artifact line the nightly job greps out of the test log.
    println!("{r}");
    for (at, from, to) in &r.transitions {
        println!("chaos-transition: at={at}ms {from} -> {to}");
    }

    assert!(r.audits > 0, "the auditor must actually sweep");
    assert_eq!(
        r.audits_conserved, r.audits,
        "every sweep must balance exactly under live chaos"
    );
    assert!(
        r.abandoned > 0,
        "the kill schedule must actually reap victims"
    );
    assert!(
        r.adopted >= r.abandoned,
        "every abandonment adopted ({} of {})",
        r.adopted,
        r.abandoned
    );
    assert_eq!(r.corpses_left, 0, "no corpse left behind");
    assert!(
        r.leaked_blocks <= r.leak_bound_blocks,
        "leaks within the documented bound: {} > {}",
        r.leaked_blocks,
        r.leak_bound_blocks
    );
    assert!(
        r.retired_hwm <= RETIRED_HWM_BOUND,
        "garbage high-water within the stall budget: {} > {}",
        r.retired_hwm,
        RETIRED_HWM_BOUND
    );
    assert!(
        r.shed + r.overloaded > 0,
        "the ladder must have engaged (counted refusals, not luck)"
    );
    assert_eq!(
        r.final_state,
        ServiceState::Normal,
        "the service must heal itself"
    );
    assert!(
        r.recovery_ms.is_some(),
        "the transition log must measure the recovery window"
    );
}
