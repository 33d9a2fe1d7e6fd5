//! The PR 3 acceptance test for capture-time promotion: a composition is
//! *parked* mid-flight — after the remove's linearization point has been
//! captured but before any commit — while the main thread retires the
//! captured entry's allocation and forces the global epoch far past every
//! reader. The block's only remaining protection is the ENTRY hazard slot
//! the engine promoted at capture time (the test source deliberately pins
//! no epoch), so surviving the sweeps proves the promotion and the unified
//! scan's hazard condition.

use lfc_core::{
    move_one, InsertCtx, InsertOutcome, LinPoint, MoveOutcome, MoveSource, MoveTarget, RemoveCtx,
    RemoveOutcome, ScasResult,
};
use lfc_dcas::DAtomic;
use lfc_hazard::{advance_epoch, flush, pin, slot};
use std::sync::atomic::{AtomicUsize, Ordering};

static DROPS: AtomicUsize = AtomicUsize::new(0);

/// The captured allocation: a word the remove's linearization point
/// targets, plus a canary the parked phase re-reads.
struct Probe {
    word: DAtomic,
    canary: u64,
}

unsafe fn reclaim_probe(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut Probe) });
    DROPS.fetch_add(1, Ordering::SeqCst);
}

/// Remove side: captures its linearization point on the probe's word with
/// `hp` = the probe allocation. Pins no epoch — after capture, the ENTRY
/// promotion is the allocation's only protection.
struct ProbeSource {
    probe: *mut Probe,
}

impl MoveSource<u64> for ProbeSource {
    fn remove_with<C: RemoveCtx<u64>>(&self, ctx: &mut C) -> RemoveOutcome<u64> {
        let val = 7u64;
        // Safety: the probe outlives the composition (the test holds it
        // alive through the hazard domain).
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
            ScasResult::Fail => RemoveOutcome::Aborted,
            ScasResult::Abort => RemoveOutcome::Aborted,
        }
    }
}

/// Insert side: *parks* the composition — retires the probe, forces epoch
/// advances, and scans — before rejecting, so the whole parked phase runs
/// between the remove's capture and the composition's abort.
struct ParkingTarget {
    probe: *mut Probe,
}

impl MoveTarget<u64> for ParkingTarget {
    fn insert_with<C: InsertCtx>(&self, _elem: u64, _ctx: &mut C) -> InsertOutcome {
        let addr = self.probe as usize;
        // The engine must have promoted the captured entry's allocation
        // into its ENTRY slot by now.
        assert_eq!(
            pin().get(slot::ENTRY0),
            addr,
            "capture must promote hp into ENTRY0"
        );
        // Retire the allocation (it is reachable only through this test)
        // and force the epoch far past every reader, scanning in between.
        // Safety: freed exactly once, via the domain.
        unsafe { lfc_hazard::retire(addr as *mut u8, reclaim_probe) };
        for _ in 0..4 {
            advance_epoch();
            flush();
        }
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            0,
            "ENTRY-protected block freed by an epoch sweep"
        );
        // Safety: the assert above — the block must still be alive.
        assert_eq!(unsafe { (*self.probe).canary }, 0xCAFE_F00D);
        InsertOutcome::Rejected
    }
}

#[test]
fn parked_capture_survives_forced_epoch_advance() {
    let probe = Box::into_raw(Box::new(Probe {
        word: DAtomic::new(0),
        canary: 0xCAFE_F00D,
    }));
    let src = ProbeSource { probe };
    let dst = ParkingTarget { probe };

    // The insert is rejected while parked, so the composition aborts.
    assert_eq!(move_one(&src, &dst), MoveOutcome::TargetRejected);

    // The engine's drop has cleared the ENTRY slots; the probe is now
    // unprotected and must be reclaimed.
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
