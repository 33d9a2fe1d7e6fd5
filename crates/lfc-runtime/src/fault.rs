//! Deterministic fault injection and thread-death ("abandonment") support.
//!
//! Robustness claims are only as good as the faults they were tested
//! under. This module provides the two fault classes the library promises
//! to survive (DESIGN.md "Fault model"):
//!
//! 1. **Allocation failure** — every allocation site in the stack funnels
//!    through [`check`]-guarded paths; an armed schedule turns the nth (or
//!    every nth, or a probabilistic) allocation into an
//!    `Err(AllocError)` that surfaces through the structures' `try_*`
//!    variants instead of aborting the process.
//! 2. **Thread death** — a kill site ([`check_kill`]) unwinds the current
//!    thread out of an in-flight composed operation via [`abandon`]. The
//!    in-flight descriptor was *published* before every kill site, so
//!    survivors complete the operation by helping; the dead thread's id,
//!    hazard-slot bank and epoch slot are adopted afterwards
//!    (`lfc_dcas::adopt_dead_threads`).
//!
//! # Zero cost when disarmed
//!
//! Every site begins with one `Relaxed` load of the process-global armed
//! flag and a predictable branch — and commit paths that pass several
//! sites hoist even that into a single [`gate`] snapshot threaded through
//! as a [`FaultGate`]; no site is ever evaluated, no counter bumped. There
//! is one way to arm a site: [`arm_site`] with a [`Schedule`] — fire on
//! the Nth check of that site once, on every Nth check, with a seeded
//! parts-per-million probability, or always. [`disarm_site`] retires one
//! site and [`disarm`] all of them.
//!
//! # The site table
//!
//! Every site is a row of one static table, named by a constant of
//! [`site`] (whose docs say what each site means when it fires). The
//! schedule decides *whether* to fire, the caller decides *what* a fired
//! fault means (an `AllocError`, an [`abandon`]). A row holds its schedule,
//! seed and counters in plain atomics, so an armed check takes no lock and
//! allocates nothing: threads checking sites concurrently never wait for
//! each other. [`arm_site`] and [`disarm_site`] panic on a name outside the
//! table; [`check`] on such a name never fires.
//!
//! Threads that must survive a kill campaign (the harness's survivor
//! pool, verification code) call [`shield_thread`]; exiting and
//! already-abandoning threads are implicitly shielded so teardown paths
//! can never be re-killed into an abort.

use crate::rng::SmallRng;
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// The site table + schedules
// ---------------------------------------------------------------------------

/// The names of every fault site, one per row of the table.
pub mod site {
    /// lfc-alloc backstop: any pooled block allocation fails.
    pub const ALLOC_BLOCK: &str = "alloc.block";
    /// lfc-core: a request-node allocation fails (the submitter falls
    /// back to direct execution).
    pub const BATCH_NODE: &str = "batch.node";
    /// lfc-core: the fallible gate constructor fails.
    pub const BATCH_GATE: &str = "batch.gate";
    /// lfc-core: the submitter dies after publishing its request.
    pub const BATCH_SUBMITTED: &str = "batch.submitted";
    /// lfc-dcas: the owner dies right after announcing its descriptor.
    pub const DCAS_ANNOUNCED: &str = "dcas.announced";
    /// lfc-dcas: a helper dies at the helping boundary.
    pub const DCAS_HELP: &str = "dcas.help";
    /// lfc-dcas: the owner dies right after the D10 install.
    pub const DCAS_PUBLISHED: &str = "dcas.published";
    /// lfc-structures: the split-ordered map's doubling CAS is skipped
    /// (the map degrades to no resize).
    pub const MAP_GROW: &str = "map.grow";
    /// lfc-structures: a bucket's claimer releases its claim and starts
    /// from the parent bucket's dummy.
    pub const MAP_DUMMY: &str = "map.dummy";
    /// lfc-structures: a directory segment allocation fails.
    pub const MAP_SEGMENT: &str = "map.segment";
    /// lfc-structures: a header allocation fails.
    pub const STRUCTURES_HEADER: &str = "structures.header";
    /// lfc-structures: a node allocation fails.
    pub const STRUCTURES_NODE: &str = "structures.node";

    /// Every site, sorted by name: row `i` of the table is `ALL[i]`.
    pub(super) const ALL: [&str; 12] = [
        ALLOC_BLOCK,
        BATCH_GATE,
        BATCH_NODE,
        BATCH_SUBMITTED,
        DCAS_ANNOUNCED,
        DCAS_HELP,
        DCAS_PUBLISHED,
        MAP_DUMMY,
        MAP_GROW,
        MAP_SEGMENT,
        STRUCTURES_HEADER,
        STRUCTURES_NODE,
    ];
}

/// Whether any row holds a schedule. A single Relaxed load of this one
/// flag classifies the process, so hot paths snapshot it once per commit
/// as a [`FaultGate`] and test a register bool at each site. Plain `std`
/// atomics here and in the table on purpose: fault bookkeeping is harness
/// infrastructure, not protocol state — it must not create model-checker
/// choice points.
static ARMED: AtomicBool = AtomicBool::new(false);

/// When a site should fire.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Fire exactly once, on the `n`th check of the site (1-based).
    Nth(u64),
    /// Fire on every `n`th check of the site.
    EveryNth(u64),
    /// Fire with probability `ppm`/1 000 000 per check, drawn from the
    /// seed and the check's index (deterministic replay).
    Prob {
        /// Parts-per-million firing probability.
        ppm: u32,
        /// PRNG seed (deterministic replay).
        seed: u64,
    },
    /// Fire on every check.
    Always,
}

/// A row's schedule word: the [`Schedule`] kind in the top bits, its
/// `n` or `ppm` below. Zero means no schedule.
const KIND_SHIFT: u32 = 60;
const NTH: u64 = 1;
const EVERY_NTH: u64 = 2;
const PROB: u64 = 3;
const ALWAYS: u64 = 4;

impl Schedule {
    fn word(&self) -> u64 {
        let (kind, arg) = match *self {
            Schedule::Nth(n) => (NTH, n),
            Schedule::EveryNth(n) => (EVERY_NTH, n),
            Schedule::Prob { ppm, .. } => (PROB, ppm as u64),
            Schedule::Always => (ALWAYS, 0),
        };
        assert!(arg < 1 << KIND_SHIFT, "{self:?}: argument out of range");
        kind << KIND_SHIFT | arg
    }
}

/// One site's schedule and counters.
struct Row {
    schedule: AtomicU64,
    seed: AtomicU64,
    checks: AtomicU64,
    fired: AtomicU64,
}

impl Row {
    /// Count one check and decide whether it fires.
    fn eval(&self) -> bool {
        let i = self.checks.fetch_add(1, Ordering::Relaxed) + 1;
        // Acquire: pairs with `arm_site`'s Release, so a `Prob` word is
        // never read with the previous schedule's seed.
        let word = self.schedule.load(Ordering::Acquire);
        let arg = word & ((1 << KIND_SHIFT) - 1);
        let fire = match word >> KIND_SHIFT {
            NTH => i == arg,
            EVERY_NTH => i.is_multiple_of(arg),
            PROB => {
                let seed = self.seed.load(Ordering::Relaxed);
                SmallRng::seed_from_u64(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93))
                    .below(1_000_000)
                    < arg
            }
            ALWAYS => true,
            _ => false,
        };
        if fire {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

static TABLE: [Row; site::ALL.len()] = [const {
    Row {
        schedule: AtomicU64::new(0),
        seed: AtomicU64::new(0),
        checks: AtomicU64::new(0),
        fired: AtomicU64::new(0),
    }
}; site::ALL.len()];

/// The row named `name`, if the table has one.
fn row(name: &str) -> Option<&'static Row> {
    site::ALL.iter().position(|&s| s == name).map(|i| &TABLE[i])
}

/// The row named `name`; panics naming it when the table has none, so a
/// stale or misspelt name fails where it is armed instead of arming
/// nothing.
fn known_row(name: &str) -> &'static Row {
    row(name)
        .unwrap_or_else(|| panic!("{name:?} is not a fault site (see lfc_runtime::fault::site)"))
}

fn any_scheduled() -> bool {
    TABLE.iter().any(|r| r.schedule.load(Ordering::SeqCst) != 0)
}

thread_local! {
    /// Set by harness survivors: this thread never takes an injected fault.
    static SHIELDED: Cell<bool> = const { Cell::new(false) };
    /// Set by [`abandon`]: this thread is unwinding out of an operation it
    /// will never complete. Read by `lfc-core`'s `Engine` drop to keep the
    /// corpse's ENTRY hazards in place for helpers.
    static ABANDONING: Cell<bool> = const { Cell::new(false) };
}

/// Exempt (or re-expose) the current thread from all fault sites.
/// Harness survivors and verification code shield themselves so a kill
/// campaign only reaps its intended victims.
pub fn shield_thread(on: bool) {
    let _ = SHIELDED.try_with(|c| c.set(on));
}

/// Run `f` with a second *registered* thread alive, so the calling thread
/// is provably outside the solo regime ([`crate::solo`]) for the whole of
/// `f`: commits publish descriptors only there, so an armed `dcas.*` kill
/// site can only fire — and a test arming one can only be non-vacuous —
/// with a peer present.
///
/// The peer shields itself (it never trips an armed site), claims a thread
/// id, raises a ready flag and parks; the caller registers too, then waits
/// for the flag **and** `active_threads() >= 2` before running `f`. The
/// peer is released from a drop guard: if `f` panics, `thread::scope`
/// joins the peer *before* resuming the unwind, which would deadlock
/// against a plain store placed after `f()`.
pub fn with_registered_peer<R>(f: impl FnOnce() -> R) -> R {
    struct StopOnDrop<'a>(&'a AtomicBool, std::thread::Thread);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
            self.1.unpark();
        }
    }
    let (ready, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|sc| {
        let peer = sc.spawn(|| {
            shield_thread(true);
            crate::tid::current_tid();
            ready.store(true, Ordering::Release);
            while !stop.load(Ordering::Acquire) {
                std::thread::park();
            }
        });
        let _stop_guard = StopOnDrop(&stop, peer.thread().clone());
        crate::tid::current_tid();
        while !(ready.load(Ordering::Acquire) && crate::tid::active_threads() >= 2) {
            std::thread::yield_now();
        }
        f()
    })
}

fn is_shielded() -> bool {
    // Threads whose TLS is gone are mid-exit: never fault them.
    SHIELDED.try_with(|c| c.get()).unwrap_or(true)
}

/// A one-word snapshot of the process arming state, taken with [`gate`].
///
/// Commit paths that pass several fault sites (a composed move pays
/// `dcas.announced`, `dcas.published`, possibly `dcas.help`, plus the
/// allocation sites of the stages) load the armed flag **once**
/// and thread this `Copy` token through; each per-site check then costs a
/// register test instead of a shared load. Semantics: a schedule armed
/// *after* the snapshot is not seen until the next `gate()` (harnesses arm
/// before launching victims, so no armed fire is ever missed in practice);
/// while armed, every site still evaluates its own schedule in
/// `check_slow`, so per-site firing is unchanged.
#[derive(Clone, Copy, Debug)]
pub struct FaultGate {
    armed: bool,
}

impl FaultGate {
    /// Site check against this snapshot; see [`check`].
    #[inline]
    pub fn check(self, site: &'static str) -> bool {
        self.armed && check_slow(site)
    }

    /// Kill-site check against this snapshot; see [`check_kill`].
    #[inline]
    pub fn check_kill(self, site: &'static str) {
        if self.armed && check_slow(site) {
            abandon();
        }
    }
}

/// Snapshot the armed flag (one `Relaxed` load) into a [`FaultGate`] for
/// a run of site checks.
#[inline]
pub fn gate() -> FaultGate {
    FaultGate {
        armed: ARMED.load(Ordering::Relaxed),
    }
}

/// Check a named fault site. Returns `true` when the armed schedule says
/// this check fails. The disarmed fast path is a single `Relaxed` load of
/// the armed flag.
#[inline]
pub fn check(site: &'static str) -> bool {
    gate().check(site)
}

#[cold]
fn check_slow(site: &'static str) -> bool {
    // Teardown and abandonment paths are implicitly shielded: an injected
    // failure inside a TLS destructor would double-panic into an abort.
    // A check whose gate predates a `disarm` finds the flag down and
    // counts nothing.
    if !ARMED.load(Ordering::Relaxed)
        || is_shielded()
        || crate::tid::thread_is_exiting()
        || thread_is_abandoning()
    {
        return false;
    }
    // While anything is armed, every check of a table site is counted,
    // armed or not, so `counters()` names every touched site.
    row(site).is_some_and(Row::eval)
}

/// Arm `site` with `schedule`, resetting its counters. Panics when `site`
/// is not a [`site`] of the table.
pub fn arm_site(site: &str, schedule: Schedule) {
    let row = known_row(site);
    let word = schedule.word();
    if let Schedule::Prob { seed, .. } = schedule {
        row.seed.store(seed, Ordering::Relaxed);
    }
    row.checks.store(0, Ordering::Relaxed);
    row.fired.store(0, Ordering::Relaxed);
    row.schedule.store(word, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    // Under the model checker the kill payload is recognized by
    // `lfc-model`'s thread wrapper, which must know how to finish the
    // abandonment while the dead thread is still scheduled.
    #[cfg(lfc_model)]
    lfc_model::rt::register_abandon_epilogue(complete_abandonment);
}

/// Disarm everything and clear all schedules and counters.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    for row in &TABLE {
        row.schedule.store(0, Ordering::SeqCst);
        row.checks.store(0, Ordering::Relaxed);
        row.fired.store(0, Ordering::Relaxed);
    }
}

/// Disarm one named site, leaving every other schedule armed and **all**
/// counters (including the disarmed site's) intact. Phased chaos
/// campaigns retire one adversary at a time this way — e.g. kill sites
/// first, allocation sites later — and still read the full per-site
/// check/fire history at the end. Panics when `site` is not a [`site`] of
/// the table.
///
/// When the last schedule goes, the armed flag drops and the hot paths are
/// back to their single predictable branch. Only a check that had already
/// loaded the site's schedule word when this call cleared it can still
/// fire the retired site; a later check reloads the word, gate or not.
pub fn disarm_site(site: &str) {
    known_row(site).schedule.store(0, Ordering::SeqCst);
    if !any_scheduled() {
        ARMED.store(false, Ordering::SeqCst);
        // An `arm_site` that raced the scan stored its schedule before
        // raising the flag: either this rescan sees it, or its raise comes
        // after the store above.
        if any_scheduled() {
            ARMED.store(true, Ordering::SeqCst);
        }
    }
}

/// Whether any fault schedule is currently armed (one `Relaxed` load). A
/// cheap health signal: service governors surface it in diagnostics so a
/// chaos campaign that leaks an armed site into a measurement phase is
/// visible.
pub fn armed() -> bool {
    gate().armed
}

/// Per-site `(site, checks, fired)` counters of every armed or checked
/// site, sorted by site name. Empty when nothing was armed since the last
/// [`disarm`].
pub fn counters() -> Vec<(String, u64, u64)> {
    site::ALL
        .iter()
        .zip(&TABLE)
        .filter(|(_, r)| {
            r.schedule.load(Ordering::Relaxed) != 0 || r.checks.load(Ordering::Relaxed) != 0
        })
        .map(|(s, r)| {
            let (checks, fired) = (
                r.checks.load(Ordering::Relaxed),
                r.fired.load(Ordering::Relaxed),
            );
            (s.to_string(), checks, fired)
        })
        .collect()
}

/// Total number of injected faults across all sites.
pub fn fired_total() -> u64 {
    TABLE.iter().map(|r| r.fired.load(Ordering::Relaxed)).sum()
}

// ---------------------------------------------------------------------------
// Abandonment (injected thread death)
// ---------------------------------------------------------------------------

/// The panic payload [`abandon`] unwinds with. `lfc-model` duplicates this
/// constant (`lfc_model::rt::ABANDON_PAYLOAD` — lfc-model cannot depend on
/// this crate) so its thread wrapper can distinguish an injected death
/// from a genuine failure; keep the two strings identical.
pub const ABANDON_PAYLOAD: &str = "lfc: operation abandoned (injected thread death)";

/// Whether the current thread is unwinding out of an operation it will
/// never complete. `lfc-core`'s `Engine` drop consults this to keep the
/// corpse's ENTRY hazards in place for the helpers that complete its
/// published commit.
pub fn thread_is_abandoning() -> bool {
    ABANDONING.try_with(|c| c.get()).unwrap_or(false)
}

/// Kill the current thread's operation mid-flight: sets the abandoning
/// flag and unwinds with [`ABANDON_PAYLOAD`]. Every kill site sits *after*
/// the operation's descriptor is announced, so survivors can always
/// complete it by helping.
pub fn abandon() -> ! {
    ABANDONING.with(|c| c.set(true));
    std::panic::panic_any(ABANDON_PAYLOAD);
}

/// Check a kill site: if the armed schedule fires, [`abandon`] the thread.
#[inline]
pub fn check_kill(site: &'static str) {
    if check(site) {
        abandon();
    }
}

/// Whether a caught panic payload is an [`abandon`] unwind.
fn is_abandon_payload(p: &(dyn std::any::Any + Send)) -> bool {
    p.downcast_ref::<&'static str>() == Some(&ABANDON_PAYLOAD)
}

/// Run `f`; if it [`abandon`]s, finish the abandonment (the thread becomes
/// a *corpse*: its id, hazard bank and any published descriptor stay live
/// until a survivor adopts them) and return `None`. Other panics resume.
///
/// This is the harness-side wrapper for victim threads; `lfc-model`'s
/// thread wrapper performs the same steps for model threads.
pub fn abandonment_scope<R>(f: impl FnOnce() -> R) -> Option<R> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Some(r),
        Err(p) if is_abandon_payload(p.as_ref()) => {
            complete_abandonment();
            None
        }
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// Corpse registry: tids whose owning thread died mid-operation and whose
/// id/bank/descriptors await adoption. Plain `std` atomics (see `ARMED`).
static CORPSE: [AtomicBool; crate::tid::MAX_THREADS] =
    [const { AtomicBool::new(false) }; crate::tid::MAX_THREADS];
static CORPSE_COUNT: AtomicUsize = AtomicUsize::new(0);
static ABANDONED_TOTAL: AtomicUsize = AtomicUsize::new(0);
static ADOPTED_TOTAL: AtomicUsize = AtomicUsize::new(0);

/// Finish an abandonment on the dying thread: run the registered
/// thread-exit hooks (allocator-magazine flushes, hazard retire-list
/// hand-off — safe because the abandoning-aware `Drop` impls left
/// anything still published in place), then park the
/// thread id as a **corpse**: `CLAIMED` stays set and the active count
/// stays up, so no survivor can enter the solo regime or reuse the bank
/// while the dead thread's descriptor may still be installed. A survivor
/// later adopts the corpse (`lfc_dcas::adopt_dead_threads`), which helps
/// the announced operation to completion and then [`release_corpse`]s the
/// id. Safe (a no-op) on threads that never claimed an id.
pub fn complete_abandonment() {
    if let Some(tid) = crate::tid::abandon_thread_slot() {
        CORPSE[tid as usize].store(true, Ordering::Release);
        CORPSE_COUNT.fetch_add(1, Ordering::Relaxed);
        ABANDONED_TOTAL.fetch_add(1, Ordering::Relaxed);
    }
    let _ = ABANDONING.try_with(|c| c.set(false));
}

/// Tids currently parked as corpses.
pub fn corpses() -> Vec<u16> {
    (0..crate::tid::registered_high_water())
        .filter(|&i| CORPSE[i].load(Ordering::Acquire))
        .map(|i| i as u16)
        .collect()
}

/// Whether `tid` is currently a corpse.
pub fn is_corpse(tid: u16) -> bool {
    CORPSE[tid as usize].load(Ordering::Acquire)
}

/// Number of corpses currently awaiting adoption.
pub fn corpse_count() -> usize {
    CORPSE_COUNT.load(Ordering::Relaxed)
}

/// Total threads ever abandoned (monotonic).
pub fn abandoned_total() -> usize {
    ABANDONED_TOTAL.load(Ordering::Relaxed)
}

/// Total corpses ever adopted (monotonic).
pub fn adopted_total() -> usize {
    ADOPTED_TOTAL.load(Ordering::Relaxed)
}

/// Claim the right to release corpse `tid` (exactly one adopter wins).
/// The winner must have already helped the corpse's announced operation
/// to completion, then call [`release_corpse`].
pub fn claim_corpse(tid: u16) -> bool {
    CORPSE[tid as usize]
        .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}

/// Release a claimed corpse's resources: runs the tid finalizers (hazard
/// bank + epoch-slot reset) and frees the id back to the registry.
///
/// Call only after [`claim_corpse`] succeeded **and** the corpse's
/// announced operation is decided — clearing the bank drops the corpse's
/// hazard protections.
pub fn release_corpse(tid: u16) {
    crate::tid::release_corpse_tid(tid);
    CORPSE_COUNT.fetch_sub(1, Ordering::Relaxed);
    ADOPTED_TOTAL.fetch_add(1, Ordering::Relaxed);
}

/// Install (once) a panic hook that suppresses the default report for
/// [`abandon`] unwinds — a kill campaign is noisy otherwise — while
/// delegating every genuine panic to the previous hook.
pub fn install_quiet_abandon_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&'static str>() == Some(&ABANDON_PAYLOAD) {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use site::*;
    use std::sync::Mutex;
    use std::time::Instant;

    // All tests share process-global arming state; serialize them.
    static SER: Mutex<()> = Mutex::new(());
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SER.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn row_counters(name: &str) -> (u64, u64) {
        let c = counters();
        let row = c.iter().find(|(s, _, _)| s == name).expect("row reported");
        (row.1, row.2)
    }

    #[test]
    fn abandon_payload_matches_model_duplicate() {
        // lfc-model duplicates the constant (it cannot depend on us).
        assert_eq!(ABANDON_PAYLOAD, lfc_model::rt::ABANDON_PAYLOAD);
    }

    #[test]
    fn the_table_is_sorted_and_has_no_duplicates() {
        assert!(site::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "\"alloc.blok\" is not a fault site")]
    fn arming_an_unknown_site_panics() {
        arm_site("alloc.blok", Schedule::Always);
    }

    #[test]
    #[should_panic(expected = "\"never.armed\" is not a fault site")]
    fn disarming_an_unknown_site_panics() {
        disarm_site("never.armed");
    }

    #[test]
    fn disarmed_sites_and_unknown_names_never_fire() {
        let _s = serial();
        disarm();
        assert!((0..1000).all(|_| !check(ALLOC_BLOCK)));
        arm_site(DCAS_PUBLISHED, Schedule::Always);
        assert!(!check("bench.probe"));
        assert!(counters().iter().all(|(s, _, _)| s == DCAS_PUBLISHED));
        disarm();
    }

    #[test]
    fn every_site_armed_always_fires_on_its_next_check() {
        let _s = serial();
        for name in site::ALL {
            arm_site(name, Schedule::Always);
            assert!(check(name), "{name} did not fire");
            assert_eq!(row_counters(name), (1, 1), "{name}");
            disarm();
        }
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _s = serial();
        arm_site(MAP_GROW, Schedule::Nth(3));
        let fired: Vec<bool> = (0..6).map(|_| check(MAP_GROW)).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(row_counters(MAP_GROW), (6, 1));
        disarm();
    }

    #[test]
    fn every_nth_counts_exactly_across_two_threads() {
        let _s = serial();
        const K: u64 = 7;
        const PER_THREAD: u64 = 1_000_000;
        arm_site(MAP_DUMMY, Schedule::EveryNth(K));
        let fired: u64 = std::thread::scope(|sc| {
            let run = || (0..PER_THREAD).filter(|_| check(MAP_DUMMY)).count() as u64;
            let a = sc.spawn(run);
            let b = sc.spawn(run);
            a.join().unwrap() + b.join().unwrap()
        });
        assert_eq!(
            row_counters(MAP_DUMMY),
            (2 * PER_THREAD, 2 * PER_THREAD / K)
        );
        assert_eq!(fired, 2 * PER_THREAD / K);
        disarm();
    }

    #[test]
    fn prob_fires_the_same_check_indices_for_a_seed() {
        let _s = serial();
        let run = |seed| {
            arm_site(BATCH_NODE, Schedule::Prob { ppm: 250_000, seed });
            let v: Vec<usize> = (0..256).filter(|_| check(BATCH_NODE)).collect();
            disarm();
            v
        };
        let fired = run(7);
        assert_eq!(fired, run(7));
        assert_ne!(fired, run(8));
        // About a quarter of the checks fire.
        assert!((32..96).contains(&fired.len()), "{} of 256", fired.len());
    }

    #[test]
    fn disarm_site_retires_one_adversary_at_a_time() {
        let _s = serial();
        arm_site(DCAS_PUBLISHED, Schedule::Always);
        arm_site(STRUCTURES_NODE, Schedule::Always);
        assert!(check(DCAS_PUBLISHED) && check(STRUCTURES_NODE));

        // Retiring one adversary leaves the other armed and keeps the
        // retired site's counters for the end-of-campaign report.
        disarm_site(DCAS_PUBLISHED);
        assert!(armed(), "structures.node is still live");
        assert!(!check(DCAS_PUBLISHED), "retired site never fires again");
        assert!(check(STRUCTURES_NODE));
        let (checks, fired) = row_counters(DCAS_PUBLISHED);
        assert_eq!(fired, 1, "history of the retired site is preserved");
        assert!(checks >= 2, "post-disarm checks still counted");

        // Retiring the last schedule drops the armed flag: the disarmed
        // fast path is back.
        disarm_site(STRUCTURES_NODE);
        assert!(!armed(), "no schedule left anywhere");
        assert!(!check(STRUCTURES_NODE));
        // Counters survive until the full disarm: dcas.published fired
        // once, structures.node twice (before each retirement).
        assert_eq!(fired_total(), 3);
        disarm();
        assert_eq!(fired_total(), 0);
    }

    #[test]
    fn shielded_thread_never_fires() {
        let _s = serial();
        arm_site(ALLOC_BLOCK, Schedule::Always);
        shield_thread(true);
        assert!(!check(ALLOC_BLOCK));
        shield_thread(false);
        assert!(check(ALLOC_BLOCK));
        disarm();
    }

    /// The armed-path cost: one site armed, another checked from one and
    /// from two threads. Prints, asserts nothing; run with
    /// `cargo test --release -p lfc-runtime armed_check_cost -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore = "timing report, not a check"]
    fn armed_check_cost() {
        let _s = serial();
        const N: u32 = 2_000_000;
        let time = || {
            let t = Instant::now();
            for _ in 0..N {
                std::hint::black_box(check(std::hint::black_box(ALLOC_BLOCK)));
            }
            t.elapsed().as_nanos() as f64 / N as f64
        };
        let disarmed = time();
        arm_site(DCAS_PUBLISHED, Schedule::Nth(1));
        let one = time();
        let two: Vec<f64> = std::thread::scope(|sc| {
            [sc.spawn(time), sc.spawn(time)]
                .map(|h| h.join().unwrap())
                .to_vec()
        });
        disarm();
        println!(
            "check(alloc.block): disarmed {disarmed:.1} ns, armed 1 thread {one:.1} ns, \
             armed 2 threads {:.1} / {:.1} ns per call",
            two[0], two[1]
        );
    }

    #[test]
    fn registered_peer_defeats_the_solo_regime_and_survives_a_panic() {
        with_registered_peer(|| {
            assert!(crate::tid::active_threads() >= 2);
            assert!(crate::solo::try_enter().is_none());
        });
        // A panicking body must still release the peer (no deadlock at the
        // scope's join) and propagate.
        let r = std::panic::catch_unwind(|| with_registered_peer(|| panic!("body failed")));
        assert!(r.is_err());
    }

    #[test]
    fn abandonment_scope_roundtrip() {
        let _s = serial();
        // A non-abandon panic must propagate.
        let r = std::panic::catch_unwind(|| abandonment_scope(|| panic!("real failure")));
        assert!(r.is_err());
        // An abandon is absorbed; the flag is visible while unwinding.
        let observed = std::sync::Arc::new(AtomicBool::new(false));
        let obs = observed.clone();
        struct Probe(std::sync::Arc<AtomicBool>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.store(thread_is_abandoning(), Ordering::SeqCst);
            }
        }
        let r = std::thread::spawn(move || {
            abandonment_scope(|| {
                let _p = Probe(obs);
                abandon();
            })
        })
        .join()
        .unwrap();
        assert!(r.is_none());
        assert!(
            observed.load(Ordering::SeqCst),
            "drops during the abandon unwind must see the abandoning flag"
        );
    }
}
