//! The combined-adversary chaos campaign against the sharded ledger.
//!
//! Previous robustness tiers exercised one adversary at a time: the crash
//! campaign killed threads, the stall campaign parked a pinned reader, the
//! OOM tier starved allocations. Real degradation is *combined*: a stalled
//! reader pins garbage while injected allocation failures push every retry
//! budget and the kill schedule keeps orphaning half-announced operations.
//! This module arms all three **simultaneously** against the
//! [`lfc_ledger::Ledger`] service under Zipfian traffic and measures what
//! the acceptance criteria actually ask for:
//!
//! * **exact conservation at every audit sweep** — a dedicated auditor
//!   thread runs [`Ledger::quiesced_audit`] continuously, campaign-long;
//! * **availability, not liveness-by-luck** — every refusal is a counted
//!   `Shed`/`Overloaded`, worker op latency is recorded into separate
//!   histograms for `Normal`- and degraded-rung service, and the run
//!   reports the degraded-phase p99;
//! * **self-healing** — after the adversaries disarm, the governor's polls
//!   must walk the ladder back to `Normal`; the recovery window is
//!   measured from the ladder's own transition log;
//! * **bounded damage** — abandonment leaks stay within the documented
//!   per-corpse bound and the retired-bytes high-water mark stays within
//!   the stall policy's budget (plus scan slack).
//!
//! The three phases (warmup → armed → recovery) share one process, one
//! ledger, and one hazard domain: nothing is reset between them, because a
//! service that only conserves tokens after a restart is not the claim.
//!
//! # Fault schedule
//!
//! Kill sites are the crash adversary's: `dcas.announced`,
//! `dcas.published`, `kcas.announced` — initiator boundaries whose
//! abandoned operations helpers and adopters must finish. OOM sites are
//! the `try_*`-surfaced ones: `dcas.desc`, `dcas.casn` (commit
//! descriptors) and `structures.node` (account/voucher nodes). The
//! allocator-level `alloc.block` site is deliberately **not** armed: it
//! also fails infallible internal paths (e.g. skip-list node allocation),
//! which panic by contract rather than degrade — that tier is covered by
//! `tests/oom_graceful.rs` on the structures that support it.

use crate::hist::Hist;
use crate::json::Json;
use lfc_ledger::{Ledger, LedgerCfg, LedgerError, ServiceState};
use lfc_runtime::fault::{self, Schedule};
use lfc_runtime::SmallRng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChaosCfg {
    /// Shards (≤ `lfc_core::MAX_TARGETS` keeps notice broadcasts covering
    /// every shard).
    pub shards: usize,
    /// Worker threads. Oversubscribe the machine: the adversaries bite
    /// hardest when victims are descheduled mid-protocol.
    pub workers: usize,
    /// Armed-phase length. Warmup and recovery each add half of this.
    pub duration_ms: u64,
    /// Accounts opened before the campaign.
    pub accounts: u64,
    /// Vouchers seeded into each shard's settlement lane.
    pub vouchers_per_lane: u64,
    /// Auditor sweep cadence.
    pub audit_every_ms: u64,
    /// Zipf exponent for account selection (hot keys collide).
    pub zipf_s: f64,
    /// Base seed (worker streams derive from it).
    pub seed: u64,
}

impl ChaosCfg {
    /// Full campaign as run by `nightly-chaos` and `reproduce chaos`.
    pub fn full() -> Self {
        ChaosCfg {
            shards: 4,
            workers: (crate::throughput::cores() + 4).max(8),
            duration_ms: 4_000,
            accounts: 2_048,
            vouchers_per_lane: 32,
            audit_every_ms: 50,
            zipf_s: 1.1,
            seed: crate::base_seed(),
        }
    }

    /// Seconds-scale variant for smoke runs and CI PR gates.
    pub fn smoke() -> Self {
        ChaosCfg {
            workers: 6,
            duration_ms: 600,
            accounts: 256,
            audit_every_ms: 25,
            ..ChaosCfg::full()
        }
    }
}

/// Documented leak bound per abandonment, in allocator blocks (see
/// DESIGN.md "Fault model"): 1 never-recycled descriptor + up to 2
/// unpublished nodes.
pub const LEAK_BLOCKS_PER_ABANDON: usize = 3;
/// Snapshot slack for blocks the two `outstanding()` snapshots cannot see
/// identically (retired records a live reader still pins at the end
/// snapshot). Descriptor pools no longer need any: `outstanding()`
/// subtracts pooled blocks, as it always did magazine blocks. So this may
/// drop, but must never rise.
pub const LEAK_SLACK_BLOCKS: usize = 96;

/// Stall policy the campaign installs: a small garbage budget so the
/// ejection ladder actually engages against the staller.
pub const CHAOS_STALL_POLICY: lfc_hazard::StallPolicy = lfc_hazard::StallPolicy {
    stall_eras: 16,
    grace_eras: 16,
    max_retired_bytes: 1 << 20,
    max_retired_count: 16 * 1024,
};

/// Ceiling asserted on the retired-bytes high-water mark: the policy
/// budget plus generous scan-latency slack (same shape as the stall
/// adversary's bound).
pub const RETIRED_HWM_BOUND: usize = 64 << 20;

/// What one campaign measured. `to_value()` renders the JSON recorded in
/// the nightly artifact.
#[derive(Clone, Debug)]
pub struct ChaosResult {
    /// Operations attempted by workers (successes + counted refusals).
    pub ops: u64,
    /// Successful operations.
    pub ok: u64,
    /// Ladder refusals observed by workers.
    pub shed: u64,
    /// Retry-budget exhaustions observed by workers.
    pub overloaded: u64,
    /// Auditor sweeps performed.
    pub audits: u64,
    /// Sweeps that balanced exactly (must equal `audits`).
    pub audits_conserved: u64,
    /// Threads the kill schedule reaped.
    pub abandoned: usize,
    /// Corpses adopted by survivors/governor.
    pub adopted: usize,
    /// Unadopted corpses at the end (must be 0).
    pub corpses_left: usize,
    /// Ejections the stall ladder performed during the campaign.
    pub ejections: usize,
    /// p99 worker op latency while the ladder stood on `Normal`, ns.
    pub p99_normal_ns: u64,
    /// p99 worker op latency while degraded (`NoResize`/`Shed`), ns.
    pub p99_degraded_ns: u64,
    /// Degraded-phase op samples (0 means the ladder never engaged).
    pub degraded_samples: u64,
    /// Retired-bytes high-water mark sampled by the governor.
    pub retired_hwm: usize,
    /// Allocator blocks outstanding beyond the pre-arm baseline after the
    /// final flush.
    pub leaked_blocks: usize,
    /// The asserted leak ceiling for this run's abandonment count.
    pub leak_bound_blocks: usize,
    /// ms from first leaving `Normal` to the final return to it.
    pub recovery_ms: Option<u64>,
    /// Rung the service ended on (must be `Normal`).
    pub final_state: ServiceState,
    /// Ladder transitions as `(at_ms, from, to)` strings for the artifact.
    pub transitions: Vec<(u64, String, String)>,
}

impl ChaosResult {
    /// Whether the run met every acceptance criterion the campaign can
    /// check in-process.
    pub fn acceptable(&self) -> bool {
        self.audits > 0
            && self.audits_conserved == self.audits
            && self.corpses_left == 0
            && self.adopted >= self.abandoned
            && self.leaked_blocks <= self.leak_bound_blocks
            && self.retired_hwm <= RETIRED_HWM_BOUND
            && self.final_state == ServiceState::Normal
    }

    /// JSON for the nightly artifact.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("ops".into(), Json::int(self.ops)),
            ("ok".into(), Json::int(self.ok)),
            ("shed".into(), Json::int(self.shed)),
            ("overloaded".into(), Json::int(self.overloaded)),
            ("audits".into(), Json::int(self.audits)),
            ("audits_conserved".into(), Json::int(self.audits_conserved)),
            ("abandoned".into(), Json::int(self.abandoned as u64)),
            ("adopted".into(), Json::int(self.adopted as u64)),
            ("corpses_left".into(), Json::int(self.corpses_left as u64)),
            ("ejections".into(), Json::int(self.ejections as u64)),
            ("p99_normal_ns".into(), Json::int(self.p99_normal_ns)),
            ("p99_degraded_ns".into(), Json::int(self.p99_degraded_ns)),
            ("degraded_samples".into(), Json::int(self.degraded_samples)),
            ("retired_hwm".into(), Json::int(self.retired_hwm as u64)),
            ("leaked_blocks".into(), Json::int(self.leaked_blocks as u64)),
            (
                "leak_bound_blocks".into(),
                Json::int(self.leak_bound_blocks as u64),
            ),
            (
                "recovery_ms".into(),
                match self.recovery_ms {
                    Some(ms) => Json::int(ms),
                    None => Json::Null,
                },
            ),
            (
                "final_state".into(),
                Json::str(self.final_state.to_string()),
            ),
            (
                "transitions".into(),
                Json::Arr(
                    self.transitions
                        .iter()
                        .map(|(at, from, to)| {
                            Json::Obj(vec![
                                ("at_ms".into(), Json::int(*at)),
                                ("from".into(), Json::str(from.clone())),
                                ("to".into(), Json::str(to.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("acceptable".into(), Json::Bool(self.acceptable())),
        ])
    }
}

fn arm_combined(seed: u64) {
    // Kills at initiator boundaries (crash-adversary primes: global
    // EveryNth counters advance only for unshielded threads).
    fault::arm_site("dcas.announced", Schedule::EveryNth(701));
    fault::arm_site("dcas.published", Schedule::EveryNth(463));
    fault::arm_site("kcas.announced", Schedule::EveryNth(557));
    // OOM on the try_-surfaced allocation paths, probabilistic so failures
    // cluster unpredictably instead of beating like a metronome.
    fault::arm_site(
        "dcas.desc",
        Schedule::Prob {
            ppm: 30_000,
            seed: seed ^ 0xD0_0D,
        },
    );
    fault::arm_site(
        "dcas.casn",
        Schedule::Prob {
            ppm: 30_000,
            seed: seed ^ 0xCA_51,
        },
    );
    fault::arm_site(
        "structures.node",
        Schedule::Prob {
            ppm: 15_000,
            seed: seed ^ 0x0DE5,
        },
    );
}

/// Run one combined-adversary campaign. Installs the quiet abandon hook
/// and the chaos stall policy; restores the default stall policy and
/// disarms every site before returning. The calling thread is shielded
/// for the duration.
pub fn run_chaos(cfg: &ChaosCfg) -> ChaosResult {
    fault::install_quiet_abandon_hook();
    fault::disarm();
    fault::shield_thread(true);
    lfc_hazard::configure_stall_policy(CHAOS_STALL_POLICY);

    // Leak baseline *before* the service exists: the campaign's leak
    // figure is measured after the ledger is dropped, so live accounts
    // never masquerade as leaks — only what abandonments truly orphaned.
    for _ in 0..4 {
        lfc_hazard::flush();
    }
    let baseline_blocks = lfc_alloc::outstanding();

    let ledger = Ledger::new(LedgerCfg {
        shards: cfg.shards,
        ..LedgerCfg::default()
    });
    for i in 0..cfg.accounts {
        ledger
            .open(1 + (i % 7))
            .expect("pre-campaign opens cannot fail");
    }
    for s in 0..cfg.shards {
        for v in 0..cfg.vouchers_per_lane {
            ledger.fund_lane(s, 1 + (v % 3)).expect("seed vouchers");
        }
    }
    let abandoned0 = fault::abandoned_total();
    let adopted0 = fault::adopted_total();
    let ejections0 = lfc_hazard::ejection_stats().0;

    let warmup = Duration::from_millis(cfg.duration_ms / 2);
    let armed = Duration::from_millis(cfg.duration_ms);
    let recovery = Duration::from_millis(cfg.duration_ms / 2);

    let stop = AtomicBool::new(false);
    let stall_on = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let audits = AtomicU64::new(0);
    let audits_conserved = AtomicU64::new(0);
    let retired_hwm = AtomicUsize::new(0);
    let hist_normal = std::sync::Mutex::new(Hist::new());
    let hist_degraded = std::sync::Mutex::new(Hist::new());

    std::thread::scope(|sc| {
        // Workers: Zipf-skewed mixed traffic in abandonment scopes — a
        // kill unwinds the burst and the same OS thread re-enters with a
        // fresh identity.
        for w in 0..cfg.workers {
            let (ledger, stop) = (&ledger, &stop);
            let (ops, ok, shed, overloaded) = (&ops, &ok, &shed, &overloaded);
            let (hist_normal, hist_degraded) = (&hist_normal, &hist_degraded);
            let accounts = cfg.accounts;
            let shards = cfg.shards;
            let zipf_s = cfg.zipf_s;
            let seed = cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            sc.spawn(move || {
                let zipf = crate::throughput::ZipfSampler::new(accounts, zipf_s);
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut local_n = Hist::new();
                let mut local_d = Hist::new();
                while !stop.load(Ordering::Acquire) {
                    fault::abandonment_scope(|| {
                        for _ in 0..32 {
                            let id = zipf.sample(&mut rng) - 1;
                            let dice = rng.next_u64();
                            let degraded = ledger.health().state() != ServiceState::Normal;
                            let t0 = Instant::now();
                            let r: Result<(), LedgerError> = match dice % 16 {
                                0..=5 => ledger.migrate(id, (dice as usize / 16) % shards),
                                6..=8 => ledger
                                    .settle(dice as usize % shards, (dice as usize / 7) % shards)
                                    .map(|_| ()),
                                9..=10 => ledger.promote(id),
                                11..=12 => ledger.demote(id),
                                13 => ledger.balance(id).map(|_| ()),
                                14 => ledger.open(1 + dice % 5).map(|_| ()),
                                _ => ledger.close(id).map(|_| ()),
                            };
                            let dt = t0.elapsed().as_nanos() as u64;
                            if degraded {
                                local_d.record(dt);
                            } else {
                                local_n.record(dt);
                            }
                            ops.fetch_add(1, Ordering::Relaxed);
                            match r {
                                Ok(()) => {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(LedgerError::Shed) => {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(LedgerError::Overloaded) => {
                                    overloaded.fetch_add(1, Ordering::Relaxed);
                                }
                                // NotFound/Duplicate: closed/raced ids are
                                // normal traffic outcomes, counted in ops.
                                Err(_) => {}
                            }
                        }
                    });
                }
                hist_normal.lock().unwrap().merge(&local_n);
                hist_degraded.lock().unwrap().merge(&local_d);
            });
        }

        // Staller: parks inside an operation epoch (the stall adversary's
        // posture), letting garbage pile up behind its entry era until the
        // ejection ladder reaps the pin; then resumes with the structure
        // idiom (`repin_if_ejected`) and parks again. Shielded — the
        // staller must stall, not die.
        {
            let (stop, stall_on) = (&stop, &stall_on);
            sc.spawn(move || {
                fault::shield_thread(true);
                while !stop.load(Ordering::Acquire) {
                    if !stall_on.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    let mut g = lfc_hazard::pin_op();
                    let t0 = Instant::now();
                    while stall_on.load(Ordering::Acquire)
                        && !stop.load(Ordering::Acquire)
                        && t0.elapsed() < Duration::from_millis(40)
                    {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    let _ = g.repin_if_ejected();
                }
            });
        }

        // Governor: adopt corpses, poll the ladder, sample the garbage
        // high-water mark. Runs campaign-long so recovery is *observed*,
        // not scheduled.
        {
            let (ledger, stop, retired_hwm) = (&ledger, &stop, &retired_hwm);
            sc.spawn(move || {
                fault::shield_thread(true);
                while !stop.load(Ordering::Acquire) {
                    let _ = ledger.tend();
                    let retired = lfc_hazard::retired_bytes();
                    retired_hwm.fetch_max(retired, Ordering::Relaxed);
                    if retired > CHAOS_STALL_POLICY.max_retired_bytes {
                        // Over budget: force scans so the ejection ladder
                        // (and ordinary reclamation) catch up now rather
                        // than at the next organic threshold crossing.
                        lfc_hazard::flush();
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }

        // Auditor: continuous exact sweeps, through every phase.
        {
            let (ledger, stop) = (&ledger, &stop);
            let (audits, audits_conserved) = (&audits, &audits_conserved);
            let every = Duration::from_millis(cfg.audit_every_ms);
            sc.spawn(move || {
                fault::shield_thread(true);
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(every);
                    let r = ledger.quiesced_audit();
                    audits.fetch_add(1, Ordering::Relaxed);
                    if r.conserved() {
                        audits_conserved.fetch_add(1, Ordering::Relaxed);
                    } else {
                        eprintln!("chaos-violation: {r:?}");
                    }
                }
            });
        }

        // Phase 1: warmup, no adversaries.
        std::thread::sleep(warmup);
        // Phase 2: everything at once.
        arm_combined(cfg.seed);
        stall_on.store(true, Ordering::Release);
        std::thread::sleep(armed);
        // Phase 3: disarm and watch the service heal itself.
        fault::disarm();
        stall_on.store(false, Ordering::Release);
        std::thread::sleep(recovery);
        stop.store(true, Ordering::Release);
    });

    // Settle: adopt stragglers, drain the domain, restore global knobs.
    let final_report = ledger.quiesced_audit();
    audits.fetch_add(1, Ordering::Relaxed);
    if final_report.conserved() {
        audits_conserved.fetch_add(1, Ordering::Relaxed);
    }
    for _ in 0..8 {
        lfc_hazard::flush();
        std::thread::yield_now();
    }
    // Let the ladder finish healing if the recovery phase was tight.
    let heal_deadline = Instant::now() + Duration::from_secs(10);
    while ledger.health().state() != ServiceState::Normal && Instant::now() < heal_deadline {
        let _ = ledger.tend();
        lfc_hazard::flush();
        std::thread::sleep(Duration::from_millis(5));
    }
    lfc_hazard::configure_stall_policy(lfc_hazard::StallPolicy::DEFAULT);

    let abandoned = fault::abandoned_total() - abandoned0;
    let adopted = fault::adopted_total() - adopted0;
    let recovery_ms = ledger.health().recovery_ms();
    let final_state = ledger.health().state();
    let corpses_left = fault::corpse_count();
    let transitions = ledger
        .health()
        .transitions()
        .into_iter()
        .map(|t| (t.at_ms, t.from.to_string(), t.to.to_string()))
        .collect();

    // Tear the service down and measure what the campaign *actually*
    // leaked: with every account, voucher, and segment freed by the drop,
    // whatever is still outstanding beyond the pre-service baseline is
    // abandonment damage — bounded per corpse by design.
    drop(ledger);
    for _ in 0..8 {
        lfc_hazard::flush();
        std::thread::yield_now();
    }
    let leaked_blocks = lfc_alloc::outstanding().saturating_sub(baseline_blocks);
    let p99 = |h: &std::sync::Mutex<Hist>| {
        let h = h.lock().unwrap();
        if h.count() == 0 {
            0
        } else {
            h.quantile(0.99)
        }
    };
    let degraded_samples = hist_degraded.lock().unwrap().count();

    let result = ChaosResult {
        ops: ops.load(Ordering::Relaxed),
        ok: ok.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        overloaded: overloaded.load(Ordering::Relaxed),
        audits: audits.load(Ordering::Relaxed),
        audits_conserved: audits_conserved.load(Ordering::Relaxed),
        abandoned,
        adopted,
        corpses_left,
        ejections: lfc_hazard::ejection_stats().0 - ejections0,
        p99_normal_ns: p99(&hist_normal),
        p99_degraded_ns: p99(&hist_degraded),
        degraded_samples,
        retired_hwm: retired_hwm.load(Ordering::Relaxed),
        leaked_blocks,
        leak_bound_blocks: LEAK_BLOCKS_PER_ABANDON * abandoned + LEAK_SLACK_BLOCKS,
        recovery_ms,
        final_state,
        transitions,
    };
    fault::shield_thread(false);
    result
}
