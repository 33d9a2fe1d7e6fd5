//! Block-leak check for composed moves, over the queue/stack pair and the
//! three keyed structures, and the block count of a growing hash map. `lfc_alloc::outstanding()` is a process-global
//! counter, so this is the only test of its binary: no sibling test
//! allocates between the two readings.

use lfc_core::{move_keyed, move_one, MoveOutcome};
use lfc_structures::{LfHashMap, LfSkipMap, MsQueue, OrderedSet, TreiberStack};

/// One fill / move / drain round; everything except a bounded number of
/// still-hazarded stragglers must be back in the pool afterwards.
fn round_returns_every_block() {
    let before = lfc_alloc::outstanding();
    {
        let q: MsQueue<u64> = MsQueue::new();
        let s: TreiberStack<u64> = TreiberStack::new();
        for i in 0..2_000 {
            q.enqueue(i);
            s.push(i);
        }
        for _ in 0..500 {
            let _ = move_one(&q, &s);
            let _ = move_one(&s, &q);
        }
        while q.dequeue().is_some() {}
        while s.pop().is_some() {}
    }
    lfc_hazard::flush();
    let after = lfc_alloc::outstanding();
    assert!(
        after <= before + 64,
        "outstanding blocks grew {before} -> {after}"
    );
}

/// One keyed round: fill an `OrderedSet`, an `LfHashMap` and an
/// `LfSkipMap` with overlapping key ranges, run `move_keyed` around the
/// ring set → map → skip map → set over every key (some missing
/// everywhere), then drain and drop all three. Duplicate rejections free
/// their unpublished target node; every other block retires.
fn keyed_round_returns_every_block() {
    const KEYS: u64 = 1_000;
    let before = lfc_alloc::outstanding();
    {
        let set: OrderedSet<u64, u64> = OrderedSet::new();
        let map: LfHashMap<u64, u64> = LfHashMap::new();
        let skip: LfSkipMap<u64, u64> = LfSkipMap::new();
        for k in 0..KEYS {
            set.insert(k, k);
            map.insert(k + KEYS / 2, k);
            skip.insert(k + KEYS, k);
        }
        let mut rejected = 0;
        for k in 0..3 * KEYS {
            for outcome in [
                move_keyed(&set, &k, &map),
                move_keyed(&map, &k, &skip),
                move_keyed(&skip, &k, &set),
            ] {
                rejected += usize::from(outcome == MoveOutcome::TargetRejected);
            }
        }
        assert!(rejected > 0, "the ring must hit duplicate keys");
        for k in 0..3 * KEYS {
            set.remove(&k);
            map.remove(&k);
            skip.remove(&k);
        }
        assert_eq!(set.count() + map.count() + skip.count(), 0);
    }
    lfc_hazard::flush();
    let after = lfc_alloc::outstanding();
    assert!(
        after <= before + 64,
        "outstanding blocks grew {before} -> {after} over the keyed round"
    );
}

/// Tall-tower churn between two skip maps: enough inserts that the
/// per-map height tickets pass every height up to `MAX_LEVEL` (ticket 733
/// is the first at the cap), with removes and `move_keyed` in both
/// directions unlinking towers of every height, then drop both maps with
/// keys still in them. Every tower level's reference must be released, so
/// every node retires.
fn tall_tower_round_returns_every_block() {
    const KEYS: u64 = 512;
    let before = lfc_alloc::outstanding();
    {
        let a: LfSkipMap<u64, u64> = LfSkipMap::new();
        let b: LfSkipMap<u64, u64> = LfSkipMap::new();
        for round in 0..8u64 {
            for k in 0..KEYS {
                a.insert(k, round);
                b.insert(k ^ 1, round);
            }
            for k in 0..KEYS {
                match (k + round) % 4 {
                    0 => drop(a.remove(&k)),
                    1 => drop(b.remove(&k)),
                    2 => drop(move_keyed(&a, &k, &b)),
                    _ => drop(move_keyed(&b, &k, &a)),
                }
            }
        }
        assert!(a.count() + b.count() > 0, "drop must reclaim live towers");
    }
    lfc_hazard::flush();
    let after = lfc_alloc::outstanding();
    assert!(
        after <= before + 64,
        "outstanding blocks grew {before} -> {after} over the tall-tower round"
    );
}

/// Grow an `LfHashMap` from 64 to ≥ 65 536 buckets, threading a dummy in
/// every touched bucket: bucket dummies live inside the directory
/// segments, so the only blocks are one per key, the header and one per
/// segment — and dropping the map returns all of them, segments included.
fn map_growth_allocates_no_dummy_blocks() {
    const KEYS: u64 = 70_000;
    let before = lfc_alloc::outstanding();
    {
        let map: LfHashMap<u64, u64> = LfHashMap::with_buckets(64);
        for k in 0..KEYS {
            assert!(map.insert(k, !k));
        }
        for k in 0..KEYS {
            assert_eq!(map.get(&k), Some(!k));
        }
        let buckets = map.capacity();
        assert!(buckets >= 65_536, "grew to {buckets} buckets");
        // Segment 0 holds the first 64 buckets, segment k ≥ 1 the next
        // 64·2^(k-1); at this load every segment has a touched bucket.
        let segments = 1 + (buckets / 64).ilog2() as usize;
        let blocks = lfc_alloc::outstanding() - before;
        assert_eq!(
            blocks,
            KEYS as usize + 1 + segments,
            "{KEYS} keys, one header, {segments} segments: no dummy blocks"
        );
    }
    lfc_hazard::flush();
    assert_eq!(
        lfc_alloc::outstanding(),
        before,
        "drop returns every node, the header and every segment"
    );
}

#[test]
fn structures_do_not_leak_blocks() {
    // Alone in the binary this thread is in the solo regime (no commit
    // descriptors); the parked peer of the second round forces the
    // published path, whose descriptors must come back as well.
    round_returns_every_block();
    keyed_round_returns_every_block();
    tall_tower_round_returns_every_block();
    map_growth_allocates_no_dummy_blocks();
    lfc_runtime::fault::with_registered_peer(|| {
        round_returns_every_block();
        keyed_round_returns_every_block();
        tall_tower_round_returns_every_block();
    });
}
