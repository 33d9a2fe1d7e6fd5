//! PR 6 acceptance test for ejection under composition: a composition is
//! parked mid-flight (after the remove's capture, inside the insert stage)
//! while the parked thread's *own* epoch slot is driven through the full
//! ejection ladder — EJ mark, then zombie promotion — under an aggressive
//! stall policy. The captured allocation's only protections are the ENTRY
//! hazard promotion and the (marked) epoch; the test proves
//!
//! 1. ejection marks and even zombie promotion never defeat an ENTRY
//!    hazard (the block survives every sweep), and
//! 2. `repin_if_ejected` at the outermost operation acknowledges the mark
//!    and re-enters cleanly, after which the composition completes.

use lfc_core::{
    move_one, InsertCtx, InsertOutcome, LinPoint, MoveOutcome, MoveSource, MoveTarget, RemoveCtx,
    RemoveOutcome, ScasResult,
};
use lfc_dcas::DAtomic;
use lfc_hazard::{advance_epoch, configure_stall_policy, flush, pin, pin_op, slot, StallPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};

static DROPS: AtomicUsize = AtomicUsize::new(0);

struct Probe {
    word: DAtomic,
    canary: u64,
}

unsafe fn reclaim_probe(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut Probe) });
    DROPS.fetch_add(1, Ordering::SeqCst);
}

struct ProbeSource {
    probe: *mut Probe,
}

impl MoveSource<u64> for ProbeSource {
    fn remove_with<C: RemoveCtx<u64>>(&self, ctx: &mut C) -> RemoveOutcome<u64> {
        let val = 7u64;
        // Safety: the probe outlives the composition (hazard domain).
        let word = unsafe { &(*self.probe).word };
        match ctx.scas(
            LinPoint {
                word,
                old: 0,
                new: 8,
                hp: self.probe as usize,
            },
            &val,
        ) {
            ScasResult::Success => RemoveOutcome::Removed(val),
            ScasResult::Fail | ScasResult::Abort => RemoveOutcome::Aborted,
        }
    }
}

/// Insert side: enters an op epoch of its own (the engine pins no epoch),
/// then retires the probe under a zero-budget stall policy and advances
/// eras until its own slot is ejected and zombified by its own scans.
struct EjectingTarget {
    probe: *mut Probe,
}

impl MoveTarget<u64> for EjectingTarget {
    fn insert_with<C: InsertCtx>(&self, _elem: u64, _ctx: &mut C) -> InsertOutcome {
        let addr = self.probe as usize;
        assert_eq!(
            pin().get(slot::ENTRY0),
            addr,
            "capture must promote hp into ENTRY0"
        );

        // Outermost op epoch for this thread: the engine itself only uses
        // plain `pin`, so `repin_if_ejected` sees nesting depth 1.
        let mut g = pin_op();

        // Zero budgets: any retired record is pressure. One-era stall and
        // grace windows so a single advance triggers each ladder rung.
        configure_stall_policy(StallPolicy {
            stall_eras: 1,
            grace_eras: 1,
            max_retired_bytes: 0,
            max_retired_count: 0,
        });

        // Safety: freed exactly once, via the domain.
        unsafe { lfc_hazard::retire(addr as *mut u8, reclaim_probe) };

        // Drive our own slot through EJ and Z: each flush scans, and our
        // slot lags the advanced era under pressure.
        let (ej0, z0) = lfc_hazard::ejection_stats();
        for _ in 0..6 {
            advance_epoch();
            flush();
        }
        let (ej1, z1) = lfc_hazard::ejection_stats();
        assert!(ej1 > ej0, "lagging slot must be EJ-marked under pressure");
        assert!(z1 > z0, "EJ slot past grace must be zombie-promoted");
        assert!(g.ejected(), "owner must observe the mark");

        // Zombified, yet the ENTRY hazard still pins the captured block.
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            0,
            "ENTRY-protected block freed under ejection"
        );
        // Safety: the assert above — the block must still be alive.
        assert_eq!(unsafe { (*self.probe).canary }, 0xCAFE_F00D);

        // Outermost restart: acknowledges the mark and re-enters fresh.
        assert!(g.repin_if_ejected(), "outermost op must restart");
        assert!(!g.ejected(), "fresh era is unmarked");
        assert!(!g.repin_if_ejected(), "no double restart");

        configure_stall_policy(StallPolicy::DEFAULT);
        InsertOutcome::Rejected
    }
}

#[test]
fn ejected_composition_keeps_entry_protection() {
    let probe = Box::into_raw(Box::new(Probe {
        word: DAtomic::new(0),
        canary: 0xCAFE_F00D,
    }));
    let src = ProbeSource { probe };
    let dst = EjectingTarget { probe };

    assert_eq!(move_one(&src, &dst), MoveOutcome::TargetRejected);

    // Promotions released; the probe must now drain normally.
    assert_eq!(
        pin().get(slot::ENTRY0),
        0,
        "the engine's drop must clear ENTRY slots"
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while DROPS.load(Ordering::SeqCst) < 1 && std::time::Instant::now() < deadline {
        flush();
        std::thread::yield_now();
    }
    assert_eq!(DROPS.load(Ordering::SeqCst), 1);
}
