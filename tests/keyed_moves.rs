//! The paper's §1.1 motivating scenario end-to-end: atomic keyed moves
//! between a hash map and a sorted list (and between maps).

use lockfree_compose::{
    move_keyed, InsertCtx, InsertOutcome, KeyedMoveTarget, LfHashMap, MoveOutcome, OrderedSet,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn map_to_list_keyed_move() {
    let map: LfHashMap<u64, String> = LfHashMap::new();
    let list: OrderedSet<u64, String> = OrderedSet::new();
    map.insert(7, "seven".into());
    assert_eq!(move_keyed(&map, &7, &list), MoveOutcome::Moved);
    assert_eq!(map.get(&7), None, "left the map");
    assert_eq!(
        list.get(&7).as_deref(),
        Some("seven"),
        "arrived in the list"
    );
}

#[test]
fn list_to_map_keyed_move() {
    let map: LfHashMap<u64, u64> = LfHashMap::new();
    let list: OrderedSet<u64, u64> = OrderedSet::new();
    list.insert(3, 33);
    assert_eq!(move_keyed(&list, &3, &map), MoveOutcome::Moved);
    assert_eq!(list.get(&3), None);
    assert_eq!(map.get(&3), Some(33));
}

#[test]
fn missing_key_reports_empty() {
    let a: OrderedSet<u64, u64> = OrderedSet::new();
    let b: OrderedSet<u64, u64> = OrderedSet::new();
    a.insert(1, 10);
    assert_eq!(move_keyed(&a, &2, &b), MoveOutcome::SourceEmpty);
    assert_eq!(a.count(), 1, "source untouched");
}

#[test]
fn duplicate_key_in_target_rejects_and_preserves_source() {
    let a: OrderedSet<u64, u64> = OrderedSet::new();
    let b: OrderedSet<u64, u64> = OrderedSet::new();
    a.insert(5, 50);
    b.insert(5, 55);
    assert_eq!(move_keyed(&a, &5, &b), MoveOutcome::TargetRejected);
    assert_eq!(a.get(&5), Some(50), "abort left the source intact");
    assert_eq!(b.get(&5), Some(55), "target untouched");
}

/// A target whose first insert lets `rival` run to completion on another
/// thread. A composed insert runs inside the source's capture, so the
/// rival lands exactly between the mover's source capture and the target's
/// duplicate check.
struct RivalFirst<'a, D> {
    dst: &'a D,
    rival: Cell<Option<Box<dyn FnOnce() + Send + 'a>>>,
}

impl<D: KeyedMoveTarget<u64, u64>> KeyedMoveTarget<u64, u64> for RivalFirst<'_, D> {
    fn insert_key_with<C: InsertCtx>(&self, key: u64, elem: u64, ctx: &mut C) -> InsertOutcome {
        if let Some(rival) = self.rival.take() {
            std::thread::scope(|sc| {
                sc.spawn(rival);
            });
        }
        self.dst.insert_key_with(key, elem, ctx)
    }
}

#[test]
fn rival_move_after_capture_is_not_a_duplicate() {
    let a: OrderedSet<u64, u64> = OrderedSet::new();
    let b: OrderedSet<u64, u64> = OrderedSet::new();
    a.insert(5, 50);
    let (ra, rb) = (&a, &b);
    let target = RivalFirst {
        dst: &b,
        rival: Cell::new(Some(Box::new(move || {
            assert_eq!(move_keyed(ra, &5, rb), MoveOutcome::Moved);
        }))),
    };
    // The rival moved the key after our capture of `a`. It was never in both
    // sets, so `TargetRejected` would claim an instant that did not exist:
    // the stale capture must turn into a retry, which finds `a` empty.
    assert_eq!(move_keyed(&a, &5, &target), MoveOutcome::SourceEmpty);
    assert_eq!(a.get(&5), None);
    assert_eq!(b.get(&5), Some(50));
}

#[test]
fn keyed_ping_pong_conserves_entry() {
    let a: LfHashMap<u64, u64> = LfHashMap::new();
    let b: LfHashMap<u64, u64> = LfHashMap::new();
    a.insert(9, 99);
    let ab = AtomicUsize::new(0);
    let ba = AtomicUsize::new(0);
    std::thread::scope(|sc| {
        let (a, b, ab, ba) = (&a, &b, &ab, &ba);
        for dir in 0..2 {
            for _ in 0..2 {
                sc.spawn(move || {
                    for _ in 0..1_500 {
                        if dir == 0 {
                            if move_keyed(a, &9, b) == MoveOutcome::Moved {
                                ab.fetch_add(1, Ordering::Relaxed);
                            }
                        } else if move_keyed(b, &9, a) == MoveOutcome::Moved {
                            ba.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        }
    });
    let (in_a, in_b) = (a.get(&9), b.get(&9));
    let (ab, ba) = (
        ab.load(Ordering::Relaxed) as i64,
        ba.load(Ordering::Relaxed) as i64,
    );
    match (in_a, in_b) {
        (Some(99), None) => assert_eq!(ab, ba),
        (None, Some(99)) => assert_eq!(ab, ba + 1),
        other => panic!("entry duplicated or lost: {other:?}"),
    }
    assert_eq!(a.count() + b.count(), 1);
}

#[test]
fn many_keys_migrate_concurrently() {
    // Migrate a whole keyspace map -> list while readers poll; every key
    // ends up in exactly one container with its value intact.
    const KEYS: u64 = 200;
    let map: LfHashMap<u64, u64> = LfHashMap::with_buckets(16);
    let list: OrderedSet<u64, u64> = OrderedSet::new();
    for k in 0..KEYS {
        map.insert(k, k + 1_000);
    }
    std::thread::scope(|sc| {
        let (map, list) = (&map, &list);
        for t in 0..3u64 {
            sc.spawn(move || {
                for k in 0..KEYS {
                    if k % 3 == t {
                        let _ = move_keyed(map, &k, list);
                    }
                }
            });
        }
        sc.spawn(move || {
            // Concurrent observer: a key's value must never be observed
            // with a wrong payload, wherever it currently lives.
            for _ in 0..2_000 {
                let k = 17;
                if let Some(v) = map.get(&k) {
                    assert_eq!(v, k + 1_000);
                }
                if let Some(v) = list.get(&k) {
                    assert_eq!(v, k + 1_000);
                }
            }
        });
    });
    for k in 0..KEYS {
        let m = map.get(&k);
        let l = list.get(&k);
        assert!(
            m.is_some() ^ l.is_some(),
            "key {k} must live in exactly one container ({m:?}/{l:?})"
        );
        assert_eq!(m.or(l), Some(k + 1_000));
    }
    assert_eq!(map.count() + list.count(), KEYS as usize);
}
