//! `solo_mix`: one thread, so every commit takes the solo fast path —
//! plain CASes, no descriptor. Descriptor work must leave it alone; a
//! fast-path regression shows here first.

use crate::stream::{Code, Keys};
use crate::workload::{check_tokens, Outcome, Tally, Workload};
use crate::workloads::maps::check_key_pair;
use lockfree_compose::{move_keyed, move_one, swap, LfHashMap, MoveOutcome, MsQueue, TreiberStack};

/// Tokens each of the three containers starts with.
pub const PREFILL: u64 = 4_096;
pub const MAP_KEYS: u32 = 16_384;

/// 12.5 % each enqueue, dequeue, push, pop, `move_one`, `swap`; 25 %
/// `move_keyed` between two hash maps.
#[derive(Default)]
pub struct SoloMix {
    q: MsQueue<u64>,
    s: TreiberStack<u64>,
    q2: MsQueue<u64>,
    a: LfHashMap<u64, u64>,
    b: LfHashMap<u64, u64>,
}

pub struct Local {
    next_id: u64,
    net: Tally,
    to_stack: bool,
    in_b: Vec<bool>,
    unexpected: u64,
}

impl Workload for SoloMix {
    type Local = Local;
    const THREADS: usize = 1;
    const SOLO: bool = true;
    const KINDS: &'static [&'static str] = &[
        "enqueue",
        "dequeue",
        "push",
        "pop",
        "move_one",
        "swap",
        "move_keyed",
    ];
    const MIX: &'static [(u8, u32)] = &[(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 4)];
    const KEYS: Keys = Keys::Uniform(MAP_KEYS);

    fn prefill(&self, _thread: usize) -> Local {
        (0..PREFILL).for_each(|id| self.q.enqueue(id));
        (PREFILL..2 * PREFILL).for_each(|id| self.s.push(id));
        (2 * PREFILL..3 * PREFILL).for_each(|id| self.q2.enqueue(id));
        let in_b: Vec<bool> = (0..MAP_KEYS).map(|k| k & 1 == 1).collect();
        for (key, &in_b) in in_b.iter().enumerate() {
            let map = if in_b { &self.b } else { &self.a };
            assert!(
                map.insert(key as u64, key as u64),
                "prefill keys are distinct"
            );
        }
        Local {
            next_id: 1 << 40,
            net: Tally::default(),
            to_stack: true,
            in_b,
            unexpected: 0,
        }
    }

    #[inline]
    fn op(&self, l: &mut Local, code: Code) -> Outcome {
        let mut fresh = || {
            let id = l.next_id;
            l.next_id += 1;
            l.net.add(id);
            id
        };
        let taken = match code.kind() {
            0 => {
                self.q.enqueue(fresh());
                return Outcome::Ok;
            }
            2 => {
                self.s.push(fresh());
                return Outcome::Ok;
            }
            1 => self.q.dequeue(),
            3 => self.s.pop(),
            4 => {
                let to_stack = l.to_stack;
                l.to_stack = !to_stack;
                return if to_stack {
                    move_one(&self.q, &self.s)
                } else {
                    move_one(&self.s, &self.q)
                }
                .into();
            }
            5 => return swap(&self.q, &self.q2).into(),
            _ => {
                let key = code.key() as u64;
                let in_b = &mut l.in_b[key as usize];
                let moved = if *in_b {
                    move_keyed(&self.b, &key, &self.a)
                } else {
                    move_keyed(&self.a, &key, &self.b)
                };
                if moved != MoveOutcome::Moved {
                    l.unexpected += 1;
                    return Outcome::Failed;
                }
                *in_b = !*in_b;
                return Outcome::Ok;
            }
        };
        match taken {
            Some(id) => {
                l.net.sub(id);
                Outcome::Ok
            }
            None => Outcome::Miss,
        }
    }

    fn verify(&self, locals: Vec<Local>) -> Result<Vec<(&'static str, f64)>, String> {
        let l = &locals[0];
        if l.unexpected > 0 {
            return Err(format!(
                "{} keyed moves did not move their key",
                l.unexpected
            ));
        }
        let mut expected = Tally::of(0..3 * PREFILL);
        expected.merge(&l.net);
        let mut left: Vec<u64> = std::iter::from_fn(|| self.q.dequeue()).collect();
        left.extend(std::iter::from_fn(|| self.q2.dequeue()));
        left.extend(std::iter::from_fn(|| self.s.pop()));
        let tokens = left.len();
        check_tokens("queues + stack", left, &expected)?;
        let entries = check_key_pair(&self.a, &self.b, MAP_KEYS, |key| l.in_b[key as usize])?;
        Ok(vec![
            ("population_start", (3 * PREFILL + MAP_KEYS as u64) as f64),
            ("population_end", (tokens + entries) as f64),
        ])
    }
}
