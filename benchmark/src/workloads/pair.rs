//! `pair_ops` (and its plain twin) and `pair_move`: the paper's
//! "insert/remove only" and "move only" panels on one shared queue/stack
//! pair.

use crate::stream::{Code, Keys};
use crate::workload::{check_tokens, Outcome, Tally, Workload};
use lfc_core::batch::{decode_move, direct_move_one, flagged_move_one};
use lockfree_compose::{
    move_one, BatchGate, BatchOp, DAtomic, MsQueue, PlainMsQueue, PlainTreiberStack, TreiberStack,
};

/// Tokens each structure starts with.
pub const PREFILL: u64 = 65_536;

/// A token container: the move-ready structures and their plain twins.
pub trait Bag: Sync + Default {
    fn put(&self, v: u64);
    fn take(&self) -> Option<u64>;
}
macro_rules! bag {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Bag for $ty {
            fn put(&self, v: u64) {
                self.$put(v)
            }
            fn take(&self) -> Option<u64> {
                self.$take()
            }
        }
    };
}
bag!(MsQueue<u64>, enqueue, dequeue);
bag!(PlainMsQueue<u64>, enqueue, dequeue);
bag!(TreiberStack<u64>, push, pop);
bag!(PlainTreiberStack<u64>, push, pop);

/// Thread `thread`'s share of a structure's prefill ids `base..base + PREFILL`.
fn share(base: u64, thread: usize, threads: usize) -> std::ops::Range<u64> {
    let per = PREFILL / threads as u64;
    base + thread as u64 * per..base + (thread as u64 + 1) * per
}

fn drain(mut take: impl FnMut() -> Option<u64>) -> Vec<u64> {
    std::iter::from_fn(&mut take).collect()
}

/// 25 % each enqueue / dequeue / push / pop on one shared pair.
#[derive(Default)]
pub struct PairOps<Q, S> {
    q: Q,
    s: S,
}

pub struct OpsLocal {
    next_id: u64,
    /// Tokens this thread inserted minus tokens it removed.
    net: Tally,
}

impl<Q: Bag, S: Bag> Workload for PairOps<Q, S> {
    type Local = OpsLocal;
    const THREADS: usize = 2;
    const KINDS: &'static [&'static str] = &["enqueue", "dequeue", "push", "pop"];
    const MIX: &'static [(u8, u32)] = &[(0, 4), (1, 4), (2, 4), (3, 4)];
    const KEYS: Keys = Keys::None;

    fn prefill(&self, thread: usize) -> OpsLocal {
        share(0, thread, Self::THREADS).for_each(|id| self.q.put(id));
        share(PREFILL, thread, Self::THREADS).for_each(|id| self.s.put(id));
        OpsLocal {
            next_id: (thread as u64 + 1) << 40,
            net: Tally::default(),
        }
    }

    #[inline]
    fn op(&self, l: &mut OpsLocal, code: Code) -> Outcome {
        let kind = code.kind();
        if kind & 1 == 0 {
            let id = l.next_id;
            l.next_id += 1;
            l.net.add(id);
            if kind == 0 {
                self.q.put(id)
            } else {
                self.s.put(id)
            }
            return Outcome::Ok;
        }
        match if kind == 1 {
            self.q.take()
        } else {
            self.s.take()
        } {
            Some(id) => {
                l.net.sub(id);
                Outcome::Ok
            }
            None => Outcome::Miss,
        }
    }

    fn verify(&self, locals: Vec<OpsLocal>) -> Result<Vec<(&'static str, f64)>, String> {
        let mut expected = Tally::of(0..2 * PREFILL);
        locals.iter().for_each(|l| expected.merge(&l.net));
        let mut left = drain(|| self.q.take());
        left.extend(drain(|| self.s.take()));
        let end = left.len() as f64;
        check_tokens("queue + stack", left, &expected)?;
        Ok(vec![
            ("population_start", 2.0 * PREFILL as f64),
            ("population_end", end),
        ])
    }
}

/// One composed move between the shared pair, as a gate request.
#[derive(Clone, Copy)]
pub struct MoveReq {
    q: &'static MsQueue<u64>,
    s: &'static TreiberStack<u64>,
    to_stack: bool,
}

impl MoveReq {
    pub fn new(q: &'static MsQueue<u64>, s: &'static TreiberStack<u64>, to_stack: bool) -> MoveReq {
        MoveReq { q, s, to_stack }
    }
}

/// A queue/stack pair that lives as long as the process: gate requests
/// must be `Copy` and outlive any borrow a struct field could give, and
/// the process exits right after the run.
pub fn leaked_pair() -> (&'static MsQueue<u64>, &'static TreiberStack<u64>) {
    (Box::leak(Box::default()), Box::leak(Box::default()))
}

impl BatchOp for MoveReq {
    fn try_direct(&self, fail_budget: u32) -> Option<usize> {
        if self.to_stack {
            direct_move_one(self.q, self.s, fail_budget)
        } else {
            direct_move_one(self.s, self.q, fail_budget)
        }
    }
    fn run_flagged(&self, flag: &DAtomic, node_hp: usize) -> Option<usize> {
        if self.to_stack {
            flagged_move_one(self.q, self.s, flag, node_hp)
        } else {
            flagged_move_one(self.s, self.q, flag, node_hp)
        }
    }
}

/// 100 % `move_one` on the shared pair, direction alternating per op.
/// With a gate, the same stream goes through one `BatchGate`
/// (`core.gate_vs_direct_ratio`).
pub struct PairMove {
    q: &'static MsQueue<u64>,
    s: &'static TreiberStack<u64>,
    gate: Option<BatchGate<MoveReq>>,
}

impl PairMove {
    pub fn new(gated: bool) -> PairMove {
        let (q, s) = leaked_pair();
        PairMove {
            q,
            s,
            gate: gated.then(BatchGate::new),
        }
    }
}

pub struct MoveLocal {
    to_stack: bool,
}

impl Workload for PairMove {
    type Local = MoveLocal;
    const THREADS: usize = 2;
    const KINDS: &'static [&'static str] = &["move_one"];
    const MIX: &'static [(u8, u32)] = &[(0, 16)];
    const KEYS: Keys = Keys::None;

    fn prefill(&self, thread: usize) -> MoveLocal {
        share(0, thread, Self::THREADS).for_each(|id| self.q.enqueue(id));
        share(PREFILL, thread, Self::THREADS).for_each(|id| self.s.push(id));
        MoveLocal {
            to_stack: thread.is_multiple_of(2),
        }
    }

    #[inline]
    fn op(&self, l: &mut MoveLocal, _code: Code) -> Outcome {
        let to_stack = l.to_stack;
        l.to_stack = !to_stack;
        match &self.gate {
            Some(gate) => decode_move(gate.submit(MoveReq::new(self.q, self.s, to_stack))),
            None if to_stack => move_one(self.q, self.s),
            None => move_one(self.s, self.q),
        }
        .into()
    }

    fn verify(&self, _locals: Vec<MoveLocal>) -> Result<Vec<(&'static str, f64)>, String> {
        let mut left = drain(|| self.q.dequeue());
        left.extend(drain(|| self.s.pop()));
        let end = left.len() as f64;
        check_tokens("queue + stack", left, &Tally::of(0..2 * PREFILL))?;
        Ok(vec![
            ("population_start", 2.0 * PREFILL as f64),
            ("population_end", end),
        ])
    }
}
