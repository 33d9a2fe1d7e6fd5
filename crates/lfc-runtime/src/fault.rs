//! Deterministic fault injection and thread-death ("abandonment") support.
//!
//! Robustness claims are only as good as the faults they were tested
//! under. This module provides the two fault classes the library promises
//! to survive (DESIGN.md "Fault model"):
//!
//! 1. **Allocation failure** — every allocation site in the stack funnels
//!    through [`check`]-guarded paths; an armed schedule turns the nth (or
//!    a probabilistic, or a scripted) allocation into an
//!    `Err(AllocError)` that surfaces through the structures' `try_*`
//!    variants instead of aborting the process.
//! 2. **Thread death** — a kill site ([`check_kill`]) unwinds the current
//!    thread out of an in-flight composed operation via [`abandon`]. The
//!    in-flight descriptor was *published* before every kill site, so
//!    survivors complete the operation by helping; the dead thread's id,
//!    hazard-slot bank, and pooled resources are adopted afterwards
//!    (`lfc_dcas::adopt_dead_threads`).
//!
//! # Zero cost when disarmed
//!
//! Every site begins with one `Relaxed` load of the process-global
//! armed-generation word and a predictable branch — and commit paths that
//! pass several sites hoist even that into a single [`gate`] snapshot
//! threaded through as a [`FaultGate`]; no site is ever evaluated, no lock
//! taken, no counter bumped. Arming happens programmatically
//! ([`arm_site`] / [`arm_all`] / [`arm_script`]) or through the
//! `LFC_FAULTS` environment variable, read lazily on the first check:
//!
//! ```text
//! LFC_FAULTS="alloc.block=nth:3;map.segment=always;*=prob:1000:42"
//! ```
//!
//! entries are `site=schedule` pairs separated by `;` or `,`; schedules
//! are `nth:N` (fire on the Nth check of that site, once), `every:N`,
//! `prob:PPM[:SEED]` (parts-per-million, seeded PRNG), or `always`. The
//! site `*` arms a wildcard consulted when no exact entry matches. A
//! malformed spec panics — a fault campaign that silently doesn't run is
//! worse than no campaign.
//!
//! # Site registry
//!
//! Sites are `&'static str` names chosen at the call site; the schedule
//! decides *whether* to fire, the caller decides *what* a fired fault
//! means (an `AllocError`, an [`abandon`]). Current sites:
//!
//! | site | layer | meaning when fired |
//! |---|---|---|
//! | `alloc.block` | lfc-alloc | backstop: any pooled block allocation fails |
//! | `dcas.desc`, `dcas.casn`, `dcas.rdcss` | lfc-dcas | descriptor-pool refill fails |
//! | `dcas.announced`, `kcas.announced` | lfc-dcas | owner dies right after announcing its descriptor |
//! | `dcas.published` | lfc-dcas | owner dies right after the D10 install |
//! | `dcas.help` | lfc-dcas | helper dies at the helping boundary |
//! | `structures.node`, `structures.header` | lfc-structures | node/header allocation fails |
//! | `map.segment`, `map.dummy`, `map.grow` | lfc-structures | split-ordered map degrades (no resize) |
//! | `batch.node`, `batch.gate` | lfc-core | gate allocation fails (falls back to direct execution) |
//! | `batch.submitted` | lfc-core | submitter dies after publishing its request |
//!
//! Threads that must survive a kill campaign (the harness's survivor
//! pool, verification code) call [`shield_thread`]; exiting and
//! already-abandoning threads are implicitly shielded so teardown paths
//! can never be re-killed into an abort.

use crate::rng::SmallRng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Arming state + schedules
// ---------------------------------------------------------------------------

/// `ARMED_GEN` value meaning "`LFC_FAULTS` not consulted yet".
const GEN_UNKNOWN: usize = usize::MAX;
/// `ARMED_GEN` value meaning "no schedule armed anywhere".
const GEN_DISARMED: usize = 0;

/// Process-global arming state: the **armed-generation word**. Holds
/// [`GEN_UNKNOWN`] until the environment is consulted, [`GEN_DISARMED`]
/// while nothing is armed, and a fresh nonzero generation (bumped by every
/// `arm_*` call) while any schedule is live. A single Relaxed load of this
/// one word classifies the process, so hot paths that used to pay one load
/// per fault site now snapshot it once per commit as a [`FaultGate`] and
/// test a register bool at each site. Plain `std` atomic on purpose: fault
/// bookkeeping is harness infrastructure, not protocol state — it must not
/// create model-checker choice points.
static ARMED_GEN: AtomicUsize = AtomicUsize::new(GEN_UNKNOWN);

/// Monotonic generation source for [`ARMED_GEN`]; starts at 1 so an armed
/// generation can never collide with [`GEN_DISARMED`].
static NEXT_GEN: AtomicUsize = AtomicUsize::new(1);

/// When a site should fire.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Fire exactly once, on the `n`th check of the site (1-based).
    Nth(u64),
    /// Fire on every `n`th check of the site.
    EveryNth(u64),
    /// Fire with probability `ppm`/1 000 000 per check, from a seeded PRNG.
    Prob {
        /// Parts-per-million firing probability.
        ppm: u32,
        /// PRNG seed (deterministic replay).
        seed: u64,
    },
    /// Fire on every check.
    Always,
}

struct SiteState {
    schedule: Option<Schedule>,
    rng: Option<SmallRng>,
    checks: u64,
    fired: u64,
}

impl SiteState {
    fn new(schedule: Option<Schedule>) -> Self {
        let rng = match &schedule {
            Some(Schedule::Prob { seed, .. }) => Some(SmallRng::seed_from_u64(*seed)),
            _ => None,
        };
        SiteState {
            schedule,
            rng,
            checks: 0,
            fired: 0,
        }
    }

    fn eval(&mut self) -> bool {
        self.checks += 1;
        let fire = match &self.schedule {
            None => false,
            Some(Schedule::Nth(n)) => self.checks == *n,
            Some(Schedule::EveryNth(n)) => self.checks.is_multiple_of(*n),
            Some(Schedule::Always) => true,
            Some(Schedule::Prob { ppm, .. }) => {
                self.rng
                    .as_mut()
                    .expect("prob schedule carries rng")
                    .below(1_000_000)
                    < *ppm as u64
            }
        };
        if fire {
            self.fired += 1;
        }
        fire
    }
}

#[derive(Default)]
struct FaultState {
    sites: BTreeMap<String, SiteState>,
    wildcard: Option<SiteState>,
    script: Vec<String>,
    script_pos: usize,
}

static REGISTRY: Mutex<Option<FaultState>> = Mutex::new(None);

fn lock_registry() -> std::sync::MutexGuard<'static, Option<FaultState>> {
    // A panic (e.g. an injected abandon) while *not* holding the lock can
    // never poison it; recover anyway so one failed test cannot wedge the
    // whole process's fault machinery.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Set by harness survivors: this thread never takes an injected fault.
    static SHIELDED: Cell<bool> = const { Cell::new(false) };
    /// Set by [`abandon`]: this thread is unwinding out of an operation it
    /// will never complete. Read by the owned-descriptor `Drop`
    /// (`lfc-dcas`'s one descriptor lifecycle) to leak (instead of recycle)
    /// published descriptors.
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
/// `f`: commit descriptors are only allocated there, so an armed
/// descriptor site (`dcas.desc`, `dcas.casn`, `dcas.rdcss`) can only fire
/// — and a test arming one can only be non-vacuous — with a peer present.
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
/// allocation sites of the stages) load the armed-generation word **once**
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

/// Snapshot the armed-generation word (one `Relaxed` load) into a
/// [`FaultGate`] for a run of site checks.
#[inline]
pub fn gate() -> FaultGate {
    let armed = match ARMED_GEN.load(Ordering::Relaxed) {
        GEN_DISARMED => false,
        GEN_UNKNOWN => {
            init_from_env();
            ARMED_GEN.load(Ordering::Relaxed) != GEN_DISARMED
        }
        _ => true,
    };
    FaultGate { armed }
}

/// Check a named fault site. Returns `true` when the armed schedule says
/// this check fails. The disarmed fast path is a single `Relaxed` load of
/// the armed-generation word.
#[inline]
pub fn check(site: &'static str) -> bool {
    gate().check(site)
}

#[cold]
fn check_slow(site: &'static str) -> bool {
    // Teardown and abandonment paths are implicitly shielded: an injected
    // failure inside a TLS destructor would double-panic into an abort.
    if is_shielded() || crate::tid::thread_is_exiting() || thread_is_abandoning() {
        return false;
    }
    let mut reg = lock_registry();
    let Some(st) = reg.as_mut() else { return false };
    // Scripted faults take precedence: the front of the script names the
    // next site to fail, in order.
    if let Some(next) = st.script.get(st.script_pos) {
        if next == site {
            st.script_pos += 1;
            let s = st
                .sites
                .entry(site.to_string())
                .or_insert_with(|| SiteState::new(None));
            s.checks += 1;
            s.fired += 1;
            return true;
        }
    }
    if let Some(s) = st.sites.get_mut(site) {
        if s.schedule.is_some() {
            return s.eval();
        }
        s.checks += 1;
    } else {
        // Record the observation so `counters()` names every touched site.
        st.sites
            .entry(site.to_string())
            .or_insert_with(|| SiteState::new(None))
            .checks += 1;
    }
    match &mut st.wildcard {
        Some(w) => {
            let fired = w.eval();
            if fired {
                // Attribute the fire to the concrete site only: the `*`
                // row reports checks (its schedule still paces off them),
                // so each injected fault is counted exactly once and
                // `fired_total` stays honest.
                w.fired -= 1;
                st.sites
                    .entry(site.to_string())
                    .or_insert_with(|| SiteState::new(None))
                    .fired += 1;
            }
            fired
        }
        None => false,
    }
}

fn mark_armed() {
    // A fresh generation per arm: gates snapshotted before this store stay
    // disarmed for their in-flight commit; everything after sees armed.
    ARMED_GEN.store(NEXT_GEN.fetch_add(1, Ordering::Relaxed), Ordering::Release);
    // Under the model checker the kill payload is recognized by
    // `lfc-model`'s thread wrapper, which must know how to finish the
    // abandonment while the dead thread is still scheduled.
    #[cfg(lfc_model)]
    lfc_model::rt::register_abandon_epilogue(complete_abandonment);
}

fn with_state<R>(f: impl FnOnce(&mut FaultState) -> R) -> R {
    let mut reg = lock_registry();
    let st = reg.get_or_insert_with(FaultState::default);
    f(st)
}

/// Arm `site` with `schedule` (resetting its counters).
pub fn arm_site(site: &str, schedule: Schedule) {
    with_state(|st| {
        st.sites
            .insert(site.to_string(), SiteState::new(Some(schedule)));
    });
    mark_armed();
}

/// Arm every site (wildcard) with `schedule`. Exact [`arm_site`] entries
/// still take precedence.
pub fn arm_all(schedule: Schedule) {
    with_state(|st| st.wildcard = Some(SiteState::new(Some(schedule))));
    mark_armed();
}

/// Arm a scripted schedule: the `k`th entry names the site whose next
/// check fails, strictly in order. Replaces any previous script.
pub fn arm_script(sites: &[&str]) {
    with_state(|st| {
        st.script = sites.iter().map(|s| s.to_string()).collect();
        st.script_pos = 0;
    });
    mark_armed();
}

/// Disarm everything and clear all schedules, scripts and counters.
pub fn disarm() {
    *lock_registry() = None;
    ARMED_GEN.store(GEN_DISARMED, Ordering::Release);
}

/// Disarm one named site, leaving every other schedule armed and **all**
/// counters (including the disarmed site's) intact. Phased chaos
/// campaigns retire one adversary at a time this way — e.g. kill sites
/// first, allocation sites later — and still read the full per-site
/// check/fire history at the end. Passing `"*"` disarms the wildcard.
///
/// When the last schedule goes (no site, no wildcard, no unconsumed
/// script), the armed-generation word drops to disarmed and the hot
/// paths are back to their single predictable branch.
pub fn disarm_site(site: &str) {
    // An explicit disarm must not beat the lazy env consult: resolve the
    // environment first so `LFC_FAULTS`-armed schedules are visible (and
    // survivors of this disarm stay armed).
    if ARMED_GEN.load(Ordering::Relaxed) == GEN_UNKNOWN {
        init_from_env();
    }
    let any_left = with_state(|st| {
        if site == "*" {
            if let Some(w) = &mut st.wildcard {
                w.schedule = None;
                w.rng = None;
            }
        } else if let Some(s) = st.sites.get_mut(site) {
            s.schedule = None;
            s.rng = None;
        }
        st.sites.values().any(|s| s.schedule.is_some())
            || st.wildcard.as_ref().is_some_and(|w| w.schedule.is_some())
            || st.script_pos < st.script.len()
    });
    if any_left {
        // Fresh generation: gates snapshotted before this call may still
        // fire the retired site once; everything after sees the new mix.
        mark_armed();
    } else {
        ARMED_GEN.store(GEN_DISARMED, Ordering::Release);
    }
}

/// Whether any fault schedule is currently armed (one `Relaxed` load plus
/// a lazy first-use environment consult). A cheap health signal: service
/// governors surface it in diagnostics so a chaos campaign that leaks an
/// armed site into a measurement phase is visible.
pub fn armed() -> bool {
    gate().armed
}

/// Per-site `(site, checks, fired)` counters, sorted by site name.
/// Empty when nothing was ever armed. Wildcard-injected faults are
/// attributed to the concrete site they fired at; the trailing `"*"` row
/// carries the wildcard's check count only.
pub fn counters() -> Vec<(String, u64, u64)> {
    let reg = lock_registry();
    let Some(st) = reg.as_ref() else {
        return Vec::new();
    };
    let mut out: Vec<(String, u64, u64)> = st
        .sites
        .iter()
        .map(|(k, v)| (k.clone(), v.checks, v.fired))
        .collect();
    if let Some(w) = &st.wildcard {
        out.push(("*".to_string(), w.checks, w.fired));
    }
    out
}

/// Total number of injected faults across all sites.
pub fn fired_total() -> u64 {
    counters().iter().map(|(_, _, f)| f).sum()
}

fn init_from_env() {
    let mut reg = lock_registry();
    if ARMED_GEN.load(Ordering::Relaxed) != GEN_UNKNOWN {
        return; // raced with another initializer or an explicit arm
    }
    match std::env::var("LFC_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            // Merge into the existing registry rather than replacing it: a
            // concurrent `arm_site`/`arm_all` may have inserted its
            // schedule after our caller loaded `ARMED_GEN == GEN_UNKNOWN` but
            // before its own `mark_armed` ran; clobbering the registry
            // here would silently discard that programmatic schedule. On a
            // collision the programmatic entry wins (it is the more
            // deliberate of the two).
            let st = reg.get_or_insert_with(FaultState::default);
            for entry in spec.split([';', ',']).filter(|e| !e.trim().is_empty()) {
                let (site, sched) = entry
                    .split_once('=')
                    .unwrap_or_else(|| panic!("LFC_FAULTS: missing '=' in {entry:?}"));
                let sched = parse_schedule(sched.trim())
                    .unwrap_or_else(|| panic!("LFC_FAULTS: bad schedule in {entry:?}"));
                if site.trim() == "*" {
                    if st.wildcard.as_ref().is_none_or(|w| w.schedule.is_none()) {
                        st.wildcard = Some(SiteState::new(Some(sched)));
                    }
                } else {
                    match st.sites.entry(site.trim().to_string()) {
                        std::collections::btree_map::Entry::Vacant(v) => {
                            v.insert(SiteState::new(Some(sched)));
                        }
                        std::collections::btree_map::Entry::Occupied(mut o) => {
                            if o.get().schedule.is_none() {
                                o.insert(SiteState::new(Some(sched)));
                            }
                        }
                    }
                }
            }
            drop(reg);
            mark_armed();
        }
        _ => ARMED_GEN.store(GEN_DISARMED, Ordering::Release),
    }
}

fn parse_schedule(s: &str) -> Option<Schedule> {
    if s == "always" {
        return Some(Schedule::Always);
    }
    let mut parts = s.split(':');
    let kind = parts.next()?;
    match kind {
        "nth" => Some(Schedule::Nth(parts.next()?.parse().ok()?)),
        "every" => Some(Schedule::EveryNth(parts.next()?.parse().ok()?)),
        "prob" => {
            let ppm: u32 = parts.next()?.parse().ok()?;
            let seed: u64 = match parts.next() {
                Some(x) => x.parse().ok()?,
                None => 0x5EED,
            };
            Some(Schedule::Prob { ppm, seed })
        }
        _ => None,
    }
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
/// never complete. The owned-descriptor `Drop` in `lfc-dcas` consults
/// this to *leak* a published descriptor (helpers may still hold it) instead of
/// recycling it, and `Engine`'s drop keeps the corpse's ENTRY hazards in
/// place for them.
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
pub fn is_abandon_payload(p: &(dyn std::any::Any + Send)) -> bool {
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
/// id/bank/descriptors await adoption. Plain `std` atomics (see `ARMED_GEN`).
static CORPSE: [AtomicBool; crate::tid::MAX_THREADS] =
    [const { AtomicBool::new(false) }; crate::tid::MAX_THREADS];
static CORPSE_COUNT: AtomicUsize = AtomicUsize::new(0);
static ABANDONED_TOTAL: AtomicUsize = AtomicUsize::new(0);
static ADOPTED_TOTAL: AtomicUsize = AtomicUsize::new(0);

/// Finish an abandonment on the dying thread: run the registered
/// thread-exit hooks (allocator-magazine and descriptor-pool flushes,
/// hazard retire-list hand-off — all safe because the abandoning-aware
/// `Drop` impls already leaked anything still published), then park the
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

/// Put a claimed corpse back on the adoption list: the adopter could not
/// finish helping the announced operation (its own allocation failed
/// mid-help), so the corpse's id, bank and announce slot must stay parked
/// for a later pass. Call only after [`claim_corpse`] succeeded and
/// *instead of* [`release_corpse`] — the counters are untouched because
/// the claim released nothing.
pub fn repark_corpse(tid: u16) {
    CORPSE[tid as usize].store(true, Ordering::Release);
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

    // All tests share process-global arming state; serialize them.
    static SER: Mutex<()> = Mutex::new(());
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SER.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn abandon_payload_matches_model_duplicate() {
        // lfc-model duplicates the constant (it cannot depend on us).
        assert_eq!(ABANDON_PAYLOAD, lfc_model::rt::ABANDON_PAYLOAD);
    }

    #[test]
    fn disarmed_never_fires() {
        let _s = serial();
        disarm();
        for _ in 0..1000 {
            assert!(!check("test.site"));
        }
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _s = serial();
        arm_site("test.nth", Schedule::Nth(3));
        let fired: Vec<bool> = (0..6).map(|_| check("test.nth")).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        let c = counters();
        let row = c.iter().find(|(s, _, _)| s == "test.nth").unwrap();
        assert_eq!((row.1, row.2), (6, 1));
        disarm();
    }

    #[test]
    fn every_nth_fires_periodically() {
        let _s = serial();
        arm_site("test.every", Schedule::EveryNth(2));
        let fired = (0..6).filter(|_| check("test.every")).count();
        assert_eq!(fired, 3);
        disarm();
    }

    #[test]
    fn script_fires_in_order() {
        let _s = serial();
        arm_script(&["a.site", "b.site"]);
        assert!(!check("b.site"), "script front is a.site");
        assert!(check("a.site"));
        assert!(check("b.site"));
        assert!(!check("a.site"), "script exhausted");
        disarm();
    }

    #[test]
    fn wildcard_covers_unlisted_sites() {
        let _s = serial();
        arm_all(Schedule::Always);
        assert!(check("any.site"));
        assert!(check("other.site"));
        disarm();
    }

    #[test]
    fn wildcard_fires_counted_once() {
        let _s = serial();
        arm_all(Schedule::Always);
        assert!(check("wild.a"));
        assert!(check("wild.a"));
        assert!(check("wild.b"));
        // Each injected fault appears exactly once in the totals: the
        // concrete site carries the attribution, the `*` row only checks.
        assert_eq!(fired_total(), 3);
        let c = counters();
        let star = c.iter().find(|(s, _, _)| s == "*").unwrap();
        assert_eq!((star.1, star.2), (3, 0));
        let a = c.iter().find(|(s, _, _)| s == "wild.a").unwrap();
        assert_eq!(a.2, 2);
        disarm();
    }

    #[test]
    fn disarm_site_retires_one_adversary_at_a_time() {
        let _s = serial();
        arm_site("phase.kill", Schedule::Always);
        arm_site("phase.oom", Schedule::Always);
        assert!(check("phase.kill") && check("phase.oom"));

        // Retiring one adversary leaves the other armed and keeps the
        // retired site's counters for the end-of-campaign report.
        disarm_site("phase.kill");
        assert!(armed(), "phase.oom is still live");
        assert!(!check("phase.kill"), "retired site never fires again");
        assert!(check("phase.oom"));
        let c = counters();
        let kill = c.iter().find(|(s, _, _)| s == "phase.kill").unwrap();
        assert_eq!(kill.2, 1, "history of the retired site is preserved");
        assert!(kill.1 >= 2, "post-disarm checks still counted");

        // Retiring the last schedule drops the armed-generation word:
        // the disarmed fast path is back.
        disarm_site("phase.oom");
        assert!(!armed(), "no schedule left anywhere");
        assert!(!check("phase.oom"));
        // Counters survive until the full disarm: phase.kill fired once,
        // phase.oom twice (before each retirement).
        assert_eq!(fired_total(), 3);
        disarm();
    }

    #[test]
    fn disarm_site_covers_the_wildcard() {
        let _s = serial();
        arm_all(Schedule::Always);
        arm_site("exact.site", Schedule::Always);
        disarm_site("*");
        assert!(armed(), "exact entry outlives the wildcard");
        assert!(!check("unlisted.site"), "wildcard is gone");
        assert!(check("exact.site"));
        disarm_site("exact.site");
        assert!(!armed());
        disarm();
    }

    #[test]
    fn disarm_site_on_unknown_site_is_a_no_op() {
        let _s = serial();
        arm_site("real.site", Schedule::Always);
        disarm_site("never.armed");
        assert!(armed());
        assert!(check("real.site"));
        disarm();
    }

    #[test]
    fn repark_returns_corpse_to_the_list() {
        let _s = serial();
        let tid = 0u16;
        CORPSE[tid as usize].store(true, Ordering::Release);
        CORPSE_COUNT.fetch_add(1, Ordering::Relaxed);
        assert!(claim_corpse(tid));
        assert!(!is_corpse(tid), "claimed corpse leaves the list");
        assert_eq!(corpse_count(), 1, "a claim releases nothing");
        repark_corpse(tid);
        assert!(is_corpse(tid), "re-parked corpse is adoptable again");
        assert_eq!(corpse_count(), 1);
        // Clean up without running tid finalizers (the slot was synthetic).
        assert!(claim_corpse(tid));
        CORPSE_COUNT.fetch_sub(1, Ordering::Relaxed);
    }

    #[test]
    fn prob_is_deterministic_for_a_seed() {
        let _s = serial();
        let run = || {
            arm_site(
                "test.prob",
                Schedule::Prob {
                    ppm: 250_000,
                    seed: 7,
                },
            );
            let v: Vec<bool> = (0..64).map(|_| check("test.prob")).collect();
            disarm();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shielded_thread_never_fires() {
        let _s = serial();
        arm_all(Schedule::Always);
        shield_thread(true);
        assert!(!check("any.site"));
        shield_thread(false);
        assert!(check("any.site"));
        disarm();
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
