//! The probe ladder: tight loops into one public function of one crate,
//! timed from outside. Each figure is the median of five batches of at
//! least 2·10⁵ calls, in ns per call.
//!
//! Commit paths are probed in two regimes. `_solo`: the probe thread is
//! the only registered thread, so commits are plain CASes and no
//! descriptor exists. `_pub`: one registered peer sits parked, so every
//! commit publishes a descriptor, uncontended. Each probe asserts its
//! regime before it runs and checks the descriptor pools after it, so a
//! figure can never silently come from the wrong path.

use crate::workload::{median, Counters};
use crate::workloads::pair::MoveReq;
use lfc_bench::json::Json;
use lfc_dcas::{commit_entries, CasnEntry, CasnResult, DAtomic};
use lfc_hazard::RetireInfo;
use lfc_runtime::SmallRng;
use lockfree_compose::ledger::{Ledger, LedgerCfg};
use lockfree_compose::{
    move_keyed, move_one, move_to_all, swap, BatchGate, LfHashMap, LfSkipMap, MoveOutcome, MsQueue,
    PlainMsQueue, PlainTreiberStack, SwapOutcome, TreiberStack,
};
use std::alloc::Layout;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
/// A multiple of the fan-out probe's 1 024-token rounds.
const CALLS: u64 = 204_800;
const L64: Layout = match Layout::from_size_align(64, 64) {
    Ok(l) => l,
    Err(_) => panic!("64/64 is a valid layout"),
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// No commit involved; the regime does not matter.
    Any,
    Solo,
    Published,
}

impl Regime {
    fn name(self) -> &'static str {
        match self {
            Regime::Any => "any",
            Regime::Solo => "solo",
            Regime::Published => "pub",
        }
    }
}

/// One probe's result; each batch is a span under the `ladder` root.
pub struct Probe {
    pub metric: &'static str,
    /// Crate and function probed.
    pub target: &'static str,
    pub regime: &'static str,
    pub ns_per_call: f64,
    /// `(start_ns, end_ns, calls)` since the ladder started.
    pub batches: Vec<(u64, u64, u64)>,
}

struct Ladder {
    origin: Instant,
    probes: Vec<Probe>,
}

fn timed(calls: u64, mut f: impl FnMut()) -> Duration {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed()
}

impl Ladder {
    /// The common probe: `CALLS` back-to-back calls of `f` per batch.
    fn call(
        &mut self,
        metric: &'static str,
        target: &'static str,
        regime: Regime,
        mut f: impl FnMut(),
    ) -> Result<(), String> {
        self.probe(metric, target, regime, CALLS, |n| timed(n, &mut f))
    }

    /// Run `batch(calls)` five times; it returns the time its hot loop took.
    fn probe(
        &mut self,
        metric: &'static str,
        target: &'static str,
        regime: Regime,
        calls: u64,
        mut batch: impl FnMut(u64) -> Duration,
    ) -> Result<(), String> {
        let solo = lfc_runtime::solo::try_enter().is_some();
        match regime {
            Regime::Solo if !solo => return Err(format!("{metric}: not in the solo regime")),
            Regime::Published if solo => {
                return Err(format!(
                    "{metric}: no registered peer, commits would go solo"
                ))
            }
            _ => {}
        }
        batch(calls / 10); // warm caches, pools and magazines
        let before = Counters::read();
        let mut per_call = Vec::with_capacity(BATCHES);
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = self.origin.elapsed().as_nanos() as u64;
            let hot = batch(calls);
            batches.push((start, self.origin.elapsed().as_nanos() as u64, calls));
            per_call.push(hot.as_nanos() as f64 / calls as f64);
        }
        let pools = Counters::read().since(&before).pool_traffic();
        match regime {
            Regime::Solo if pools != 0 => {
                return Err(format!(
                    "{metric}: {pools} descriptors allocated in the solo regime"
                ))
            }
            Regime::Published if pools == 0 => {
                return Err(format!("{metric}: no descriptor was allocated"))
            }
            _ => {}
        }
        self.probes.push(Probe {
            metric,
            target,
            regime: regime.name(),
            ns_per_call: median(&per_call),
            batches,
        });
        Ok(())
    }
}

/// Run `f` while one registered peer, having completed an op, sits parked.
fn with_peer<R>(f: impl FnOnce() -> R) -> R {
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|sc| {
        sc.spawn(move || {
            let q: MsQueue<u64> = MsQueue::new();
            q.enqueue(1);
            black_box(q.dequeue());
            ready_tx.send(()).expect("the prober waits for this");
            done_rx.recv().ok();
        });
        ready_rx.recv().expect("the peer reports its first op");
        let r = f();
        done_tx.send(()).ok();
        r
    })
}

unsafe fn free64(p: *mut u8) {
    // SAFETY: only ever handed blocks from `try_alloc_block(L64)`.
    unsafe { lfc_alloc::free_block(p, L64) }
}

/// Probes that involve no commit (run with the probe thread alone).
fn substrate(l: &mut Ladder) -> Result<(), String> {
    l.call(
        "bench.timer_ns",
        "std::time::Instant::now x2",
        Regime::Any,
        || {
            black_box(Instant::now());
            black_box(Instant::now());
        },
    )?;
    l.call(
        "runtime.solo_enter_ns",
        "lfc-runtime::solo::try_enter",
        Regime::Solo,
        || drop(black_box(lfc_runtime::solo::try_enter())),
    )?;
    l.call(
        "runtime.fault_gate_ns",
        "lfc-runtime::fault::check",
        Regime::Any,
        || {
            black_box(lfc_runtime::fault::check("bench.probe"));
        },
    )?;
    l.probe(
        "runtime.thread_register_ns",
        "lfc-runtime::tid (spawn, first op, exit)",
        Regime::Any,
        2_000,
        |n| {
            timed(n, || {
                std::thread::spawn(|| black_box(lfc_runtime::current_tid()))
                    .join()
                    .expect("the thread only registers");
            })
        },
    )?;
    l.call(
        "alloc.block_cycle_ns",
        "lfc-alloc::try_alloc_block + free_block",
        Regime::Any,
        || {
            let p = lfc_alloc::try_alloc_block(L64).expect("64 B are available");
            // SAFETY: `p` came from `try_alloc_block(L64)` and is not used again.
            unsafe { lfc_alloc::free_block(black_box(p).as_ptr(), L64) };
        },
    )?;
    l.call("hazard.pin_ns", "lfc-hazard::pin", Regime::Any, || {
        black_box(lfc_hazard::pin());
    })?;
    l.call(
        "hazard.pin_op_ns",
        "lfc-hazard::pin_op",
        Regime::Any,
        || drop(black_box(lfc_hazard::pin_op())),
    )?;
    l.probe(
        "hazard.retire_cycle_ns",
        "lfc-hazard::retire_with + flush",
        Regime::Any,
        CALLS,
        |n| {
            let t = Instant::now();
            for _ in 0..n {
                let p = lfc_alloc::try_alloc_block(L64).expect("64 B are available");
                let info = RetireInfo {
                    bytes: 64,
                    birth: lfc_hazard::birth_era(),
                    divert: Some(free64),
                };
                // SAFETY: the block was never published, so it is unlinked;
                // `free64` frees it exactly once without reading it.
                unsafe { lfc_hazard::retire_with(p.as_ptr(), free64, info) };
            }
            lfc_hazard::flush();
            t.elapsed()
        },
    )?;

    let g = lfc_hazard::pin();
    let (a, b) = (DAtomic::new(0x1000), DAtomic::new(0));
    l.call(
        "dcas.read_ns",
        "lfc-dcas::DAtomic::read",
        Regime::Any,
        || {
            black_box(a.read(&g));
        },
    )?;
    let mut v = 0usize;
    let a = DAtomic::new(0);
    l.call(
        "dcas.two_cas_floor_ns",
        "lfc-dcas::DAtomic::cas_word x2",
        Regime::Any,
        || {
            assert!(a.cas_word(v, v + 8) && b.cas_word(v, v + 8));
            v += 8;
        },
    )?;

    let q: MsQueue<u64> = MsQueue::new();
    l.call(
        "structures.queue_cycle_ns",
        "lfc-structures::MsQueue::enqueue + dequeue",
        Regime::Any,
        || {
            q.enqueue(black_box(1));
            black_box(q.dequeue());
        },
    )?;
    let s: TreiberStack<u64> = TreiberStack::new();
    l.call(
        "structures.stack_cycle_ns",
        "lfc-structures::TreiberStack::push + pop",
        Regime::Any,
        || {
            s.push(black_box(1));
            black_box(s.pop());
        },
    )?;
    let q: PlainMsQueue<u64> = PlainMsQueue::new();
    l.call(
        "structures.plain_queue_cycle_ns",
        "lfc-structures::PlainMsQueue::enqueue + dequeue",
        Regime::Any,
        || {
            q.enqueue(black_box(1));
            black_box(q.dequeue());
        },
    )?;
    let s: PlainTreiberStack<u64> = PlainTreiberStack::new();
    l.call(
        "structures.plain_stack_cycle_ns",
        "lfc-structures::PlainTreiberStack::push + pop",
        Regime::Any,
        || {
            s.push(black_box(1));
            black_box(s.pop());
        },
    )?;

    const MAP_KEYS: u64 = 262_144;
    let m: LfHashMap<u64, u64> = LfHashMap::new();
    (0..MAP_KEYS).for_each(|k| assert!(m.insert(k, k)));
    let mut rng = SmallRng::seed_from_u64(0x1ADD);
    l.call(
        "structures.hashmap_get_ns",
        "lfc-structures::LfHashMap::get (262144 keys, uniform)",
        Regime::Any,
        || {
            black_box(m.get(&rng.below(MAP_KEYS)));
        },
    )?;
    l.call(
        "structures.hashmap_insert_remove_ns",
        "lfc-structures::LfHashMap::insert + remove",
        Regime::Any,
        || {
            let k = MAP_KEYS + rng.below(1024);
            assert!(m.insert(k, 1) && m.remove(&k) == Some(1));
        },
    )?;
    drop(m);
    lfc_hazard::flush();

    const SKIP_KEYS: u64 = 1_024;
    let m: LfSkipMap<u64, u64> = LfSkipMap::new();
    (0..SKIP_KEYS).for_each(|k| assert!(m.insert(2 * k, k)));
    l.call(
        "structures.skipmap_get_ns",
        "lfc-structures::LfSkipMap::get (1024 keys, uniform)",
        Regime::Any,
        || {
            black_box(m.get(&(2 * rng.below(SKIP_KEYS))));
        },
    )?;
    l.call(
        "structures.skipmap_insert_remove_ns",
        "lfc-structures::LfSkipMap::insert + remove",
        Regime::Any,
        || {
            let k = 2 * rng.below(SKIP_KEYS) + 1;
            assert!(m.insert(k, 1) && m.remove(&k) == Some(1));
        },
    )?;
    l.probe(
        "structures.skipmap_range64_ns",
        "lfc-structures::LfSkipMap::range (64 keys)",
        Regime::Any,
        CALLS / 10,
        |n| {
            timed(n, || {
                let lo = 2 * rng.below(SKIP_KEYS - 64);
                assert_eq!(black_box(m.range(lo..lo + 128)).len(), 64);
            })
        },
    )?;
    Ok(())
}

/// The commit paths, once per regime.
fn commits(l: &mut Ladder, regime: Regime) -> Result<(), String> {
    let pick = |solo: &'static str, published: &'static str| {
        if regime == Regime::Solo {
            solo
        } else {
            published
        }
    };
    let g = lfc_hazard::pin();

    // Both widths go through the engine's one entry point, as every
    // composition does: K=2 is the paper's DCAS, K=4 the general CASN.
    let pair = [DAtomic::new(0), DAtomic::new(0)];
    let mut v = 0usize;
    l.call(
        pick("dcas.dcas_solo_ns", "dcas.dcas_pub_ns"),
        "lfc-dcas::commit_entries (K=2, DCAS)",
        regime,
        || {
            let entries = pair.each_ref().map(|w| CasnEntry {
                ptr: w,
                old: v,
                new: v + 8,
                hp: 0,
            });
            // SAFETY: the words are distinct locals that outlive the call.
            assert_eq!(unsafe { commit_entries(&entries, &g) }, CasnResult::Success);
            v += 8;
        },
    )?;
    let quad = [
        DAtomic::new(0),
        DAtomic::new(0),
        DAtomic::new(0),
        DAtomic::new(0),
    ];
    let mut v = 0usize;
    l.call(
        pick("dcas.casn4_solo_ns", "dcas.casn4_pub_ns"),
        "lfc-dcas::commit_entries (K=4, CASN)",
        regime,
        || {
            let entries = quad.each_ref().map(|w| CasnEntry {
                ptr: w,
                old: v,
                new: v + 8,
                hp: 0,
            });
            // SAFETY: as above.
            assert_eq!(unsafe { commit_entries(&entries, &g) }, CasnResult::Success);
            v += 8;
        },
    )?;

    const TOKENS: u64 = 1_024;
    let q: MsQueue<u64> = MsQueue::new();
    let s: TreiberStack<u64> = TreiberStack::new();
    (0..TOKENS).for_each(|i| {
        q.enqueue(i);
        s.push(TOKENS + i);
    });
    let mut to_stack = true;
    l.call(
        pick("core.move_one_solo_ns", "core.move_one_pub_ns"),
        "lfc-core::move_one (queue <-> stack)",
        regime,
        || {
            let r = if to_stack {
                move_one(&q, &s)
            } else {
                move_one(&s, &q)
            };
            assert_eq!(r, MoveOutcome::Moved);
            to_stack = !to_stack;
        },
    )?;

    let q2: MsQueue<u64> = MsQueue::new();
    (0..TOKENS).for_each(|i| q2.enqueue(2 * TOKENS + i));
    l.call(
        pick("core.swap_solo_ns", "core.swap_pub_ns"),
        "lfc-core::swap (queue <-> queue, K=4)",
        regime,
        || assert_eq!(swap(&q, &q2), SwapOutcome::Swapped),
    )?;

    let targets: [MsQueue<u64>; 3] = Default::default();
    let [t0, t1, t2] = &targets;
    l.probe(
        pick("core.move_to_all3_solo_ns", "core.move_to_all3_pub_ns"),
        "lfc-core::move_to_all (stack -> 3 queues)",
        regime,
        CALLS,
        |n| {
            // Only the fan-outs are timed; handing the tokens back is not.
            assert_eq!(n % TOKENS, 0, "whole rounds only");
            let mut hot = Duration::ZERO;
            for _ in 0..n / TOKENS {
                hot += timed(TOKENS, || {
                    assert_eq!(move_to_all(&s, &[t0, t1, t2]), MoveOutcome::Moved)
                });
                for _ in 0..TOKENS {
                    let [x, _, _] = targets
                        .each_ref()
                        .map(|t| t.dequeue().expect("fanned out above"));
                    s.push(x);
                }
            }
            hot
        },
    )?;

    let (ma, mb) = keyed_maps();
    let mut in_b = vec![false; KEYED_KEYS as usize];
    let mut rng = SmallRng::seed_from_u64(0x1ADD);
    l.call(
        pick("core.move_keyed_solo_ns", "core.move_keyed_pub_ns"),
        "lfc-core::move_keyed (hash map <-> hash map, 65536 keys)",
        regime,
        || {
            let k = rng.below(KEYED_KEYS);
            let at = &mut in_b[k as usize];
            let r = if *at {
                move_keyed(&mb, &k, &ma)
            } else {
                move_keyed(&ma, &k, &mb)
            };
            assert_eq!(r, MoveOutcome::Moved);
            *at = !*at;
        },
    )?;
    Ok(())
}

const KEYED_KEYS: u64 = 65_536;

fn keyed_maps() -> (LfHashMap<u64, u64>, LfHashMap<u64, u64>) {
    let (a, b) = (LfHashMap::new(), LfHashMap::new());
    (0..KEYED_KEYS).for_each(|k| assert!(a.insert(k, k)));
    (a, b)
}

/// The rungs above a published move: the batch gate and the ledger.
fn service(l: &mut Ladder) -> Result<(), String> {
    let (q, s) = crate::workloads::pair::leaked_pair();
    (0..1_024).for_each(|i| {
        q.enqueue(i);
        s.push(1_024 + i);
    });
    let gate: BatchGate<MoveReq> = BatchGate::new();
    let mut to_stack = true;
    l.call(
        "core.gate_submit_ns",
        "lfc-core::BatchGate::submit (move_one, uncontended)",
        Regime::Published,
        || {
            let w = gate.submit(MoveReq::new(q, s, to_stack));
            assert_eq!(lfc_core::batch::decode_move(w), MoveOutcome::Moved);
            to_stack = !to_stack;
        },
    )?;

    // Two shards holding the keyed probe's 65 536 records between them,
    // so `migrate` minus `move_keyed_pub` is what the ledger adds.
    let ledger = Ledger::new(LedgerCfg {
        shards: 2,
        ..LedgerCfg::default()
    });
    for _ in 0..KEYED_KEYS {
        ledger.open(1).expect("a fresh ledger admits accounts");
    }
    let mut moved = vec![false; KEYED_KEYS as usize];
    let mut rng = SmallRng::seed_from_u64(0x1ADD);
    l.call(
        "ledger.migrate_ns",
        "lfc-ledger::Ledger::migrate (2 shards, 65536 accounts)",
        Regime::Published,
        || {
            let id = rng.below(KEYED_KEYS);
            let away = &mut moved[id as usize];
            let home = (id % 2) as usize;
            ledger
                .migrate(id, if *away { home } else { 1 - home })
                .expect("the account exists");
            *away = !*away;
        },
    )?;
    Ok(())
}

/// Run the whole ladder. The calling thread must be the only registered one.
pub fn run() -> Result<Vec<Probe>, String> {
    lfc_runtime::current_tid(); // the solo regime is "exactly one registered thread": this one
    let mut l = Ladder {
        origin: Instant::now(),
        probes: Vec::new(),
    };
    substrate(&mut l)?;
    commits(&mut l, Regime::Solo)?;
    with_peer(|| {
        commits(&mut l, Regime::Published)?;
        service(&mut l)
    })?;
    Ok(l.probes)
}

pub fn to_json(probes: &[Probe]) -> Json {
    Json::Arr(
        probes
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("metric".into(), Json::str(p.metric)),
                    ("target".into(), Json::str(p.target)),
                    ("regime".into(), Json::str(p.regime)),
                    ("ns_per_call".into(), Json::Num(p.ns_per_call)),
                ])
            })
            .collect(),
    )
}
