//! Crash adversary (PR 8 acceptance): a kill campaign abandons at least
//! eight threads at armed protocol kill sites — after announcement, after
//! descriptor publication, after a batched submit — while shielded
//! survivors keep churning the same objects. The claims:
//!
//! 1. every abandoned in-flight operation is completed by survivors
//!    (read-helping or corpse adoption), so token **conservation** holds
//!    exactly at the end;
//! 2. every corpse is adopted — id, hazard bank and epoch slot come back;
//! 3. the net leak is bounded by the documented per-abandonment cost:
//!    the nodes the dead thread had allocated but not yet published,
//!    ≤ [`LEAK_BLOCKS_PER_ABANDON`] allocator blocks each (descriptors are
//!    per-thread static records, so none leaks).
//!
//! Ignored by default (multi-second wall clock); CI's nightly
//! crash-adversary job runs `cargo test --release -- --ignored crash` and
//! archives the `crash-series:` / `crash-summary:` lines this test prints.

use lfc_core::move_one;
use lfc_dcas::adopt_dead_threads;
use lfc_runtime::fault;
use lfc_structures::{MsQueue, TreiberStack};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const VICTIMS: usize = 10;
const SURVIVORS: usize = 2;
const TOKENS: u64 = 256;
/// Failsafe so a victim that somehow dodges every armed site still
/// terminates; in practice the campaign reaps all of them in well under
/// a second.
const MAX_VICTIM_OPS: usize = 4_000_000;
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// Documented leak bound, in allocator blocks per abandonment: up to 2
/// nodes the dead thread allocated but had not published. See DESIGN.md
/// "Fault model".
const LEAK_BLOCKS_PER_ABANDON: usize = 2;
/// Slack for blocks the baseline/end snapshots cannot see identically.
/// Magazine blocks count as cached, not outstanding, so this may drop but
/// must never rise.
const LEAK_SLACK_BLOCKS: usize = 64;

#[test]
#[ignore = "crash adversary: run with --release -- --ignored crash"]
fn crash_abandoned_threads_are_adopted_and_conserved() {
    fault::install_quiet_abandon_hook();
    fault::disarm();
    // The measuring thread must never be reaped by its own campaign.
    fault::shield_thread(true);
    let abandoned0 = fault::abandoned_total();
    let adopted0 = fault::adopted_total();
    let helped0 = lfc_dcas::helped_completions();

    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    for i in 0..TOKENS {
        q.enqueue(i);
    }
    for _ in 0..4 {
        lfc_hazard::flush();
    }
    let baseline_blocks = lfc_alloc::outstanding();

    // Kill sites at every helping boundary a thread can die beyond:
    // announced-not-published and published-not-decided (the worst torn
    // state), at every commit width, and a batched request handed to the
    // group commit. EveryNth counters are global
    // and only unshielded threads advance them, so the victims reap
    // themselves at a steady rate while survivors run for free.
    fault::arm_site(fault::site::DCAS_ANNOUNCED, fault::Schedule::EveryNth(701));
    fault::arm_site(fault::site::DCAS_PUBLISHED, fault::Schedule::EveryNth(463));
    fault::arm_site(fault::site::BATCH_SUBMITTED, fault::Schedule::EveryNth(389));

    let stop = AtomicBool::new(false);
    let mut series: Vec<(u128, usize, usize, usize)> = Vec::new();
    let mut reaped = 0usize;

    std::thread::scope(|sc| {
        for _ in 0..SURVIVORS {
            let (q, s, stop) = (&q, &s, &stop);
            sc.spawn(move || {
                fault::shield_thread(true);
                let g = lfc_hazard::pin();
                while !stop.load(Ordering::Acquire) {
                    let _ = move_one(q, s);
                    let _ = move_one(s, q);
                    adopt_dead_threads(&g);
                }
                adopt_dead_threads(&g);
            });
        }
        let victims: Vec<_> = (0..VICTIMS)
            .map(|_| {
                let (q, s) = (&q, &s);
                sc.spawn(move || {
                    fault::abandonment_scope(|| {
                        for _ in 0..MAX_VICTIM_OPS {
                            let _ = move_one(q, s);
                            let _ = move_one(s, q);
                        }
                    })
                    .is_none()
                })
            })
            .collect();

        // Sample the leak/corpse series while the campaign runs.
        let t0 = Instant::now();
        while victims.iter().any(|v| !v.is_finished()) {
            series.push((
                t0.elapsed().as_millis(),
                lfc_alloc::outstanding(),
                fault::corpse_count(),
                fault::abandoned_total() - abandoned0,
            ));
            std::thread::sleep(SAMPLE_EVERY);
        }
        for v in victims {
            if v.join().expect("victim threads never panic past the scope") {
                reaped += 1;
            }
        }
        // Survivors keep adopting until the registry is clean.
        let t1 = Instant::now();
        while fault::corpse_count() > 0 && t1.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
    });
    // Snapshot before disarm: disarm clears the whole registry.
    let fault_counters = fault::counters();
    fault::disarm();

    assert!(
        reaped >= 8,
        "the campaign must abandon at least 8 threads, reaped only {reaped}"
    );
    assert_eq!(
        fault::corpse_count(),
        0,
        "survivors must adopt every corpse"
    );
    let abandoned = fault::abandoned_total() - abandoned0;
    assert_eq!(abandoned, reaped, "every reaped victim became a corpse");
    assert!(
        fault::adopted_total() - adopted0 >= abandoned,
        "every corpse adoption must be accounted"
    );
    assert!(
        lfc_dcas::helped_completions() > helped0,
        "survivor completions must flow through the helping path"
    );

    // Conservation: every token exists exactly once across both objects —
    // the abandoned half-moves were completed (not duplicated, not lost)
    // by survivors.
    let mut all: Vec<u64> = Vec::with_capacity(TOKENS as usize);
    while let Some(v) = q.dequeue() {
        all.push(v);
    }
    while let Some(v) = s.pop() {
        all.push(v);
    }
    all.sort_unstable();
    assert_eq!(
        all,
        (0..TOKENS).collect::<Vec<u64>>(),
        "conservation violated after the kill campaign"
    );

    // Leak bound: drain the hazard domain, then compare outstanding
    // allocator blocks against the documented per-abandonment bound. The
    // structures are empty now while the baseline held TOKENS nodes, so
    // the subtraction is already generous. A scoped thread counts as
    // joined once its closure returns, before its thread-exit hooks hand
    // its retire list to the orphan stack and release its id, so first
    // wait for every campaign thread's hooks: records still on a live
    // thread's list are out of the drain's reach.
    let t2 = Instant::now();
    while lfc_runtime::active_threads() > 1 && t2.elapsed() < Duration::from_secs(10) {
        std::thread::yield_now();
    }
    for _ in 0..256 {
        lfc_hazard::flush();
        if lfc_hazard::retired_count() == 0 {
            break;
        }
        std::thread::yield_now();
    }
    let end_blocks = lfc_alloc::outstanding();
    let leaked = end_blocks.saturating_sub(baseline_blocks);
    let bound = abandoned * LEAK_BLOCKS_PER_ABANDON + LEAK_SLACK_BLOCKS;

    for (ms, blocks, corpses, dead) in &series {
        println!(
            "crash-series: t_ms={ms} outstanding_blocks={blocks} corpses={corpses} abandoned={dead}"
        );
    }
    for (site, checks, fired) in fault_counters {
        println!("crash-fault: site={site} checks={checks} fired={fired}");
    }
    println!(
        "crash-summary: abandoned={abandoned} adopted={} helped_completions={} \
         baseline_blocks={baseline_blocks} end_blocks={end_blocks} leaked_blocks={leaked} bound={bound}",
        fault::adopted_total() - adopted0,
        lfc_dcas::helped_completions() - helped0,
    );
    assert!(
        leaked <= bound,
        "leaked {leaked} blocks exceeds the documented bound {bound} \
         ({abandoned} abandonments x {LEAK_BLOCKS_PER_ABANDON} + {LEAK_SLACK_BLOCKS} slack)"
    );
}
