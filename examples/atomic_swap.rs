//! Compositions the unified engine newly expresses: an atomic `swap`
//! (exchange one element between two queues — four linearization points,
//! one atomic step) and mixed keyed→unkeyed moves through key views
//! (`At`: hash map → queues, with the key dropped or rewritten).
//!
//! ```sh
//! cargo run --release --example atomic_swap
//! ```

use lockfree_compose::{
    move_one, move_to_all, swap, At, LfHashMap, MoveOutcome, MsQueue, SwapOutcome,
};

fn main() {
    // --- swap: rebalance two worker queues without a torn state. ---
    let fast_lane: MsQueue<&'static str> = MsQueue::new();
    let slow_lane: MsQueue<&'static str> = MsQueue::new();
    fast_lane.enqueue("big-batch-job");
    slow_lane.enqueue("tiny-job");

    // Exchange the two queue heads atomically: no observer can ever see
    // both jobs in one lane, or either lane holding zero or two of them.
    assert_eq!(swap(&fast_lane, &slow_lane), SwapOutcome::Swapped);
    println!(
        "swapped: fast lane now runs {:?}",
        fast_lane.dequeue().unwrap()
    );
    println!(
        "         slow lane now runs {:?}",
        slow_lane.dequeue().unwrap()
    );

    // --- mixed shapes: a keyed map feeding unkeyed pipelines. ---
    let pending: LfHashMap<u64, String> = LfHashMap::new();
    let work: MsQueue<String> = MsQueue::new();
    let audit: MsQueue<String> = MsQueue::new();
    for ticket in [101, 102, 103u64] {
        pending.insert(ticket, format!("ticket-{ticket}"));
    }

    // The map at one key is an ordinary move-ready object: one ticket
    // goes straight to the work queue (key dropped atomically).
    assert_eq!(
        move_one(&At::new(&pending, &101), &work),
        MoveOutcome::Moved
    );

    // Another fanned into work AND audit: either both queues receive it
    // (and the map loses it) or nothing changes.
    let outcome = move_to_all(&At::new(&pending, &102), &[&work, &audit]);
    assert_eq!(outcome, MoveOutcome::Moved);

    // And an atomic re-key: 103 becomes 9103 in a second map, in one step.
    let archive: LfHashMap<u64, String> = LfHashMap::new();
    let outcome = move_one(&At::new(&pending, &103), &At::new(&archive, &9103));
    assert_eq!(outcome, MoveOutcome::Moved);

    println!("work queue drained:");
    while let Some(t) = work.dequeue() {
        println!("  {t}");
    }
    println!("audit copy: {:?}", audit.dequeue().unwrap());
    println!("archived under 9103: {:?}", archive.get(&9103).unwrap());
    assert_eq!(pending.count(), 0, "every ticket left the map atomically");
}
