//! `shard_local`: two busy threads on disjoint data. Nothing contends, so
//! what is left is the protocol tax of the non-solo regime: descriptor
//! publish, pool, retire.

use crate::stream::{Code, Keys};
use crate::workload::{check_tokens, Outcome, Tally, Workload};
use lockfree_compose::{move_one, move_to_all, swap, MsQueue, TreiberStack};

/// Tokens each structure of a shard starts with.
pub const PREFILL: u64 = 4_096;
const TARGETS: usize = 3;

#[derive(Default)]
struct Shard {
    q: MsQueue<u64>,
    s: TreiberStack<u64>,
    q2: MsQueue<u64>,
    /// Fan-out targets. They start with one shared set of "loaned" ids so
    /// a refill never finds them empty; all three always hold the same
    /// sequence.
    targets: [MsQueue<u64>; TARGETS],
}

/// 50 % `move_one` (queue ↔ stack, alternating), 25 % `swap` (queue ↔
/// second queue, K=4), 12.5 % `move_to_all` (stack → three queues),
/// 12.5 % refill (one dequeue per target, one push back onto the stack).
pub struct ShardLocal {
    shards: Vec<Shard>,
}

impl ShardLocal {
    pub fn new() -> ShardLocal {
        ShardLocal {
            shards: (0..Self::THREADS).map(|_| Shard::default()).collect(),
        }
    }
}

pub struct Local {
    shard: usize,
    to_stack: bool,
    fanned: u64,
    refilled: u64,
    /// Refills whose three dequeues disagreed: a torn fan-out.
    torn: u64,
}

/// Ids of shard `shard`: structure `slot`'s prefill.
fn ids(shard: usize, slot: u64) -> std::ops::Range<u64> {
    let base = ((shard as u64) << 32) | (slot * PREFILL);
    base..base + PREFILL
}

impl Workload for ShardLocal {
    type Local = Local;
    const THREADS: usize = 2;
    const KINDS: &'static [&'static str] = &["move_one", "swap", "move_to_all", "refill"];
    const MIX: &'static [(u8, u32)] = &[(0, 8), (1, 4), (2, 2), (3, 2)];
    const KEYS: Keys = Keys::None;

    fn prefill(&self, thread: usize) -> Local {
        let sh = &self.shards[thread];
        ids(thread, 0).for_each(|id| sh.q.enqueue(id));
        ids(thread, 1).for_each(|id| sh.s.push(id));
        ids(thread, 2).for_each(|id| sh.q2.enqueue(id));
        for t in &sh.targets {
            ids(thread, 3).for_each(|id| t.enqueue(id));
        }
        Local {
            shard: thread,
            to_stack: true,
            fanned: 0,
            refilled: 0,
            torn: 0,
        }
    }

    #[inline]
    fn op(&self, l: &mut Local, code: Code) -> Outcome {
        let sh = &self.shards[l.shard];
        match code.kind() {
            0 => {
                let to_stack = l.to_stack;
                l.to_stack = !to_stack;
                if to_stack {
                    move_one(&sh.q, &sh.s)
                } else {
                    move_one(&sh.s, &sh.q)
                }
                .into()
            }
            1 => swap(&sh.q, &sh.q2).into(),
            2 => {
                let [a, b, c] = &sh.targets;
                let out: Outcome = move_to_all(&sh.s, &[a, b, c]).into();
                l.fanned += (out == Outcome::Ok) as u64;
                out
            }
            _ => {
                let [a, b, c] = sh.targets.each_ref().map(|t| t.dequeue());
                match (a, b, c) {
                    (Some(a), Some(b), Some(c)) => {
                        l.torn += (a != b || b != c) as u64;
                        sh.s.push(a);
                        l.refilled += 1;
                        Outcome::Ok
                    }
                    (None, None, None) => Outcome::Miss,
                    _ => {
                        l.torn += 1;
                        Outcome::Failed
                    }
                }
            }
        }
    }

    fn verify(&self, locals: Vec<Local>) -> Result<Vec<(&'static str, f64)>, String> {
        let mut end = 0;
        for l in &locals {
            if l.torn > 0 {
                return Err(format!(
                    "shard {}: {} refills saw a torn fan-out",
                    l.shard, l.torn
                ));
            }
            let sh = &self.shards[l.shard];
            let drain = |q: &MsQueue<u64>| std::iter::from_fn(|| q.dequeue()).collect::<Vec<u64>>();
            let [t0, t1, t2] = sh.targets.each_ref().map(drain);
            if t0 != t1 || t1 != t2 {
                return Err(format!(
                    "shard {}: the fan-out targets hold different sequences",
                    l.shard
                ));
            }
            // The targets gained exactly what the stack lost to them.
            let want = PREFILL + l.fanned - l.refilled;
            if t0.len() as u64 != want {
                return Err(format!(
                    "shard {}: each target holds {}, expected {want}",
                    l.shard,
                    t0.len()
                ));
            }
            let mut all = drain(&sh.q);
            all.extend(drain(&sh.q2));
            all.extend(std::iter::from_fn(|| sh.s.pop()));
            all.extend(t0);
            end += all.len();
            let expected = Tally::of((0..4).flat_map(|slot| ids(l.shard, slot)));
            check_tokens(&format!("shard {}", l.shard), all, &expected)?;
        }
        Ok(vec![
            (
                "population_start",
                (4 * PREFILL * Self::THREADS as u64) as f64,
            ),
            ("population_end", end as f64),
        ])
    }
}
