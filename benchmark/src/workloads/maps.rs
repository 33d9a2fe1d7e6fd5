//! `map_read` and `map_churn`: the keyed layer, read-mostly beyond the
//! cache and write-heavy on a hot set.
//!
//! Every key that is moved, inserted or removed belongs to one thread
//! (`key % THREADS`), which therefore knows where it is without asking:
//! each such op is a single library call with one expected answer, and an
//! unexpected one is a correctness violation, not noise. Threads still
//! meet in the structures — shared buckets, chain neighbours, towers.

use crate::stream::{Code, Keys};
use crate::workload::{Outcome, Workload};
use lockfree_compose::{move_keyed, LfHashMap, LfSkipMap, MoveOutcome};

const THREADS: usize = 2;

/// The key thread `thread` owns nearest to a drawn key.
fn own(key: u32, thread: usize) -> u32 {
    key & !(THREADS as u32 - 1) | thread as u32
}

/// Every key `0..keys` is in exactly one of the two maps, the one `in_b`
/// names, holding itself as its value; returns the entry count.
pub fn check_key_pair(
    a: &LfHashMap<u64, u64>,
    b: &LfHashMap<u64, u64>,
    keys: u32,
    in_b: impl Fn(u32) -> bool,
) -> Result<usize, String> {
    for key in 0..keys {
        let k = key as u64;
        let (got_a, got_b) = (a.get(&k), b.get(&k));
        let want = if in_b(key) {
            (None, Some(k))
        } else {
            (Some(k), None)
        };
        if (got_a, got_b) != want {
            return Err(format!(
                "key {key}: a={got_a:?} b={got_b:?}, expected {want:?}"
            ));
        }
    }
    let entries = a.count() + b.count();
    if entries != keys as usize {
        return Err(format!("the maps hold {entries} entries, expected {keys}"));
    }
    Ok(entries)
}

/// 95 % `get` (first map, then second), 5 % `move_keyed` of an own key to
/// the other map; scrambled Zipf over 262 144 keys in two hash maps.
#[derive(Default)]
pub struct MapRead {
    a: LfHashMap<u64, u64>,
    b: LfHashMap<u64, u64>,
}

pub const READ_KEYS: u32 = 262_144;

fn starts_in_b(key: u32) -> bool {
    key >> 1 & 1 == 1
}

pub struct ReadLocal {
    thread: usize,
    /// Own keys only: whether the key is in `b`.
    in_b: Vec<bool>,
    unexpected: u64,
}

impl Workload for MapRead {
    type Local = ReadLocal;
    const THREADS: usize = THREADS;
    const KINDS: &'static [&'static str] = &["get", "move_keyed"];
    const MIX: &'static [(u8, u32)] = &[(0, 19), (1, 1)];
    const KEYS: Keys = Keys::Zipf(READ_KEYS);

    fn prefill(&self, thread: usize) -> ReadLocal {
        let mut in_b = vec![false; READ_KEYS as usize];
        for key in (thread as u32..READ_KEYS).step_by(THREADS) {
            in_b[key as usize] = starts_in_b(key);
            let map = if starts_in_b(key) { &self.b } else { &self.a };
            assert!(
                map.insert(key as u64, key as u64),
                "prefill keys are distinct"
            );
        }
        ReadLocal {
            thread,
            in_b,
            unexpected: 0,
        }
    }

    #[inline]
    fn op(&self, l: &mut ReadLocal, code: Code) -> Outcome {
        if code.kind() == 0 {
            let key = code.key() as u64;
            // A key caught between the two probes by a concurrent move is
            // seen in neither map: two separate reads, a legal answer.
            return match self.a.get(&key).or_else(|| self.b.get(&key)) {
                Some(v) if v == key => Outcome::Ok,
                Some(_) => Outcome::Failed,
                None => Outcome::Miss,
            };
        }
        let key = own(code.key(), l.thread);
        let in_b = &mut l.in_b[key as usize];
        let moved = if *in_b {
            move_keyed(&self.b, &(key as u64), &self.a)
        } else {
            move_keyed(&self.a, &(key as u64), &self.b)
        };
        if moved == MoveOutcome::Moved {
            *in_b = !*in_b;
            Outcome::Ok
        } else {
            l.unexpected += 1;
            Outcome::Failed
        }
    }

    fn verify(&self, locals: Vec<ReadLocal>) -> Result<Vec<(&'static str, f64)>, String> {
        for l in &locals {
            if l.unexpected > 0 {
                return Err(format!(
                    "thread {}: {} moves of an owned key did not move it",
                    l.thread, l.unexpected
                ));
            }
        }
        let end = check_key_pair(&self.a, &self.b, READ_KEYS, |key| {
            locals[key as usize % THREADS].in_b[key as usize]
        })?;
        Ok(vec![
            ("population_start", READ_KEYS as f64),
            ("population_end", end as f64),
        ])
    }
}

/// 25 % `insert`, 25 % `remove`, 50 % `move_keyed` hash ↔ skip, over
/// 1 024 Zipf-hot keys. Half of a thread's keys are residents that only
/// ever move; the other half churn in and out of a fixed home map.
#[derive(Default)]
pub struct MapChurn {
    hash: LfHashMap<u64, u64>,
    skip: LfSkipMap<u64, u64>,
}

pub const CHURN_KEYS: u32 = 1_024;

const ABSENT: u8 = 0;
const IN_HASH: u8 = 1;
const IN_SKIP: u8 = 2;

fn is_churn(key: u32) -> bool {
    key >> 1 & 1 == 1
}

/// Where a key starts; for a churn key also its home map.
fn home(key: u32) -> u8 {
    if key >> 2 & 1 == 1 {
        IN_SKIP
    } else {
        IN_HASH
    }
}

fn starts_present(key: u32) -> bool {
    !is_churn(key) || key >> 3 & 1 == 0
}

pub struct ChurnLocal {
    thread: usize,
    /// Own keys only: `ABSENT`, `IN_HASH` or `IN_SKIP`.
    place: Vec<u8>,
    inserted: u64,
    removed: u64,
    unexpected: u64,
}

impl MapChurn {
    fn insert(&self, place: u8, key: u64) -> bool {
        if place == IN_SKIP {
            self.skip.insert(key, key)
        } else {
            self.hash.insert(key, key)
        }
    }
}

impl Workload for MapChurn {
    type Local = ChurnLocal;
    const THREADS: usize = THREADS;
    const KINDS: &'static [&'static str] = &["insert", "remove", "move_keyed"];
    const MIX: &'static [(u8, u32)] = &[(0, 4), (1, 4), (2, 8)];
    const KEYS: Keys = Keys::Zipf(CHURN_KEYS);

    fn prefill(&self, thread: usize) -> ChurnLocal {
        let mut place = vec![ABSENT; CHURN_KEYS as usize];
        for key in (thread as u32..CHURN_KEYS)
            .step_by(THREADS)
            .filter(|&k| starts_present(k))
        {
            place[key as usize] = home(key);
            assert!(
                self.insert(home(key), key as u64),
                "prefill keys are distinct"
            );
        }
        ChurnLocal {
            thread,
            place,
            inserted: 0,
            removed: 0,
            unexpected: 0,
        }
    }

    #[inline]
    fn op(&self, l: &mut ChurnLocal, code: Code) -> Outcome {
        // Bit 1 picks the role: moves go to the nearest own resident key,
        // inserts and removes to the nearest own churn key.
        let kind = code.kind();
        let key = if kind == 2 {
            own(code.key(), l.thread) & !2
        } else {
            own(code.key(), l.thread) | 2
        };
        let k = key as u64;
        let place = &mut l.place[key as usize];
        let (expected, got) = match kind {
            0 => {
                let was_absent = *place == ABSENT;
                let done = self.insert(home(key), k);
                if done {
                    *place = home(key);
                    l.inserted += 1;
                }
                (done == was_absent, done)
            }
            1 => {
                let gone = if home(key) == IN_SKIP {
                    self.skip.remove(&k)
                } else {
                    self.hash.remove(&k)
                };
                let was_present = *place != ABSENT;
                if gone.is_some() {
                    *place = ABSENT;
                    l.removed += 1;
                }
                (
                    gone.is_some() == was_present && gone.is_none_or(|v| v == k),
                    gone.is_some(),
                )
            }
            _ => {
                let moved = if *place == IN_HASH {
                    move_keyed(&self.hash, &k, &self.skip)
                } else {
                    move_keyed(&self.skip, &k, &self.hash)
                };
                *place = if *place == IN_HASH { IN_SKIP } else { IN_HASH };
                (moved == MoveOutcome::Moved, true)
            }
        };
        if !expected {
            l.unexpected += 1;
            Outcome::Failed
        } else if got {
            Outcome::Ok
        } else {
            Outcome::Miss
        }
    }

    fn verify(&self, locals: Vec<ChurnLocal>) -> Result<Vec<(&'static str, f64)>, String> {
        for l in &locals {
            if l.unexpected > 0 {
                return Err(format!(
                    "thread {}: {} ops on owned keys gave an impossible answer",
                    l.thread, l.unexpected
                ));
            }
        }
        for key in 0..CHURN_KEYS {
            let k = key as u64;
            let want = locals[key as usize % THREADS].place[key as usize];
            let got = match (self.hash.get(&k), self.skip.get(&k)) {
                (None, None) => ABSENT,
                (Some(v), None) if v == k => IN_HASH,
                (None, Some(v)) if v == k => IN_SKIP,
                both => return Err(format!("key {key}: held as {both:?}")),
            };
            if got != want {
                return Err(format!(
                    "key {key}: found in place {got}, owner says {want}"
                ));
            }
        }
        let start = (0..CHURN_KEYS).filter(|&k| starts_present(k)).count() as u64;
        let (ins, rem): (u64, u64) = locals
            .iter()
            .fold((0, 0), |(i, r), l| (i + l.inserted, r + l.removed));
        let end = (self.hash.count() + self.skip.count()) as u64;
        if end != start + ins - rem {
            return Err(format!(
                "the maps hold {end} entries, expected {start} + {ins} - {rem}"
            ));
        }
        Ok(vec![
            ("population_start", start as f64),
            ("population_end", end as f64),
        ])
    }
}
