//! Record a real concurrent execution and *prove* it linearizable.
//!
//! Runs a short mixed workload (inserts, removes, and composed moves) on a
//! queue/stack pair while recording every operation's interval and outcome,
//! then feeds the history to the bundled Wing–Gong checker with a
//! sequential specification in which the move is a single atomic action.
//!
//! ```sh
//! cargo run --release --example checked_composition
//! ```

use lockfree_compose::linear::{check_linearizable, CheckResult, Cont, PairOp, PairSpec, Recorder};
use lockfree_compose::{move_one, MoveOutcome, MsQueue, TreiberStack};

fn main() {
    let queue: MsQueue<u32> = MsQueue::new();
    let stack: TreiberStack<u32> = TreiberStack::new();
    let rec: Recorder<PairOp> = Recorder::new();

    std::thread::scope(|sc| {
        let (q, s, rec) = (&queue, &stack, &rec);
        sc.spawn(move || {
            for v in 1..=6u32 {
                rec.record(|| {
                    q.enqueue(v);
                    PairOp::InsA(v)
                });
                rec.record(|| PairOp::MoveAB(move_one(q, s) == MoveOutcome::Moved));
            }
        });
        sc.spawn(move || {
            for v in 100..=105u32 {
                rec.record(|| {
                    s.push(v);
                    PairOp::InsB(v)
                });
                rec.record(|| PairOp::MoveBA(move_one(s, q) == MoveOutcome::Moved));
            }
        });
        sc.spawn(move || {
            for _ in 0..6 {
                rec.record(|| PairOp::RemA(q.dequeue()));
                rec.record(|| PairOp::RemB(s.pop()));
            }
        });
    });

    let history = rec.finish();
    println!("recorded {} operations; checking...", history.len());
    let spec = PairSpec::new(Cont::Fifo, Cont::Lifo);
    match check_linearizable(&spec, &history) {
        CheckResult::Linearizable(order) => {
            println!("linearizable; witness order of first 10 ops:");
            for &i in order.iter().take(10) {
                let e = &history[i];
                println!("  [{:>3},{:>3}] {:?}", e.invoke, e.ret, e.op);
            }
        }
        CheckResult::NotLinearizable => {
            panic!("history not linearizable — composition is broken!")
        }
    }
}
