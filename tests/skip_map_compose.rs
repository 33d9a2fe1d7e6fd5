//! `LfSkipMap` under composition: keyed moves, atomic rekeys and swaps
//! between the skip map and every other keyed structure must conserve
//! tokens — each key's value lives in exactly one container at all times,
//! and a skip map is indistinguishable from the other keyed maps at the
//! composition layer (level-0 is the only linearization chain; towers are
//! auxiliary and never participate in a capture).

use lockfree_compose::{
    move_keyed, move_keyed_to_all, move_one, At, LfHashMap, LfSkipMap, MoveOutcome, MsQueue,
    OrderedSet,
};

#[test]
fn skip_map_to_every_keyed_structure_and_back() {
    // One round-trip against each keyed peer (and itself): the token is
    // present in exactly one container after every hop, value intact.
    let skip: LfSkipMap<u64, String> = LfSkipMap::new();
    let map: LfHashMap<u64, String> = LfHashMap::new();
    let list: OrderedSet<u64, String> = OrderedSet::new();
    let skip2: LfSkipMap<u64, String> = LfSkipMap::new();

    assert!(skip.insert(7, "tok".into()));

    // skip -> hash map -> skip
    assert_eq!(move_keyed(&skip, &7, &map), MoveOutcome::Moved);
    assert!(!skip.contains(&7));
    assert_eq!(map.get(&7).as_deref(), Some("tok"));
    assert_eq!(move_keyed(&map, &7, &skip), MoveOutcome::Moved);
    assert!(!map.contains(&7));

    // skip -> ordered list -> skip
    assert_eq!(move_keyed(&skip, &7, &list), MoveOutcome::Moved);
    assert_eq!(list.get(&7).as_deref(), Some("tok"));
    assert_eq!(move_keyed(&list, &7, &skip), MoveOutcome::Moved);
    assert!(!list.contains(&7));

    // skip -> skip
    assert_eq!(move_keyed(&skip, &7, &skip2), MoveOutcome::Moved);
    assert!(!skip.contains(&7));
    assert_eq!(skip2.get(&7).as_deref(), Some("tok"));
    assert_eq!(skip2.count(), 1);
}

#[test]
fn skip_map_duplicate_and_missing_outcomes() {
    let a: LfSkipMap<u64, u64> = LfSkipMap::new();
    let b: LfHashMap<u64, u64> = LfHashMap::new();
    assert_eq!(move_keyed(&a, &1, &b), MoveOutcome::SourceEmpty);
    a.insert(1, 11);
    b.insert(1, 99);
    assert_eq!(move_keyed(&a, &1, &b), MoveOutcome::TargetRejected);
    assert_eq!(a.get(&1), Some(11), "source untouched on rejection");
    assert_eq!(b.get(&1), Some(99), "target untouched on rejection");
}

#[test]
fn skip_map_atomic_rekey_swaps_keys_between_maps() {
    // Two rekeying moves (`move_one` between views at different keys)
    // exchange which container holds which key, each one a single
    // linearization point through the skip map's level-0 chain.
    let skip: LfSkipMap<u64, String> = LfSkipMap::new();
    let map: LfHashMap<u64, String> = LfHashMap::new();
    skip.insert(1, "from-skip".into());
    map.insert(2, "from-map".into());

    let out = move_one(&At::new(&skip, &1), &At::new(&map, &10));
    assert_eq!(out, MoveOutcome::Moved);
    let out = move_one(&At::new(&map, &2), &At::new(&skip, &20));
    assert_eq!(out, MoveOutcome::Moved);

    assert_eq!(map.get(&10).as_deref(), Some("from-skip"));
    assert_eq!(skip.get(&20).as_deref(), Some("from-map"));
    assert!(!skip.contains(&1));
    assert!(!map.contains(&2));
    assert_eq!(skip.count(), 1);
    assert_eq!(map.count(), 1);
}

#[test]
fn skip_map_keyed_fan_out_is_all_or_nothing() {
    // Skip map as both source and (twice) target of the keyed broadcast.
    let src: LfSkipMap<u64, u64> = LfSkipMap::new();
    let d1: LfSkipMap<u64, u64> = LfSkipMap::new();
    let d2: LfSkipMap<u64, u64> = LfSkipMap::new();
    src.insert(3, 33);
    d2.insert(3, 99); // second target occupied: nothing moves
    assert_eq!(
        move_keyed_to_all(&src, &3, &[&d1, &d2]),
        MoveOutcome::TargetRejected
    );
    assert_eq!(src.get(&3), Some(33));
    assert_eq!(d1.get(&3), None);
    assert_eq!(d2.remove(&3), Some(99));
    assert_eq!(move_keyed_to_all(&src, &3, &[&d1, &d2]), MoveOutcome::Moved);
    assert_eq!(src.get(&3), None);
    assert_eq!(d1.get(&3), Some(33));
    assert_eq!(d2.get(&3), Some(33));
}

#[test]
fn skip_map_to_unkeyed_queue() {
    let sessions: LfSkipMap<u64, String> = LfSkipMap::new();
    let work: MsQueue<String> = MsQueue::new();
    sessions.insert(7, "payload".into());
    assert_eq!(move_one(&At::new(&sessions, &7), &work), MoveOutcome::Moved);
    assert!(!sessions.contains(&7));
    assert_eq!(work.dequeue().as_deref(), Some("payload"));
}

#[test]
fn skip_map_keyed_ping_pong_conserves_entry() {
    // Two threads move the same key in opposite directions between a skip
    // map and a hash map; a third observes. The entry is never duplicated
    // and never lost.
    let a: LfSkipMap<u64, u64> = LfSkipMap::new();
    let b: LfHashMap<u64, u64> = LfHashMap::new();
    a.insert(5, 55);
    std::thread::scope(|sc| {
        let (a, b) = (&a, &b);
        sc.spawn(move || {
            for _ in 0..400 {
                let _ = move_keyed(a, &5, b);
            }
        });
        sc.spawn(move || {
            for _ in 0..400 {
                let _ = move_keyed(b, &5, a);
            }
        });
        sc.spawn(move || {
            for _ in 0..800 {
                let (x, y) = (a.get(&5), b.get(&5));
                if let Some(v) = x.or(y) {
                    assert_eq!(v, 55, "payload must never corrupt");
                }
            }
        });
    });
    let (x, y) = (a.get(&5), b.get(&5));
    assert!(
        x.is_some() ^ y.is_some(),
        "entry must live in exactly one container ({x:?}/{y:?})"
    );
    assert_eq!(a.count() + b.count(), 1);
}

#[test]
fn whole_keyspace_migrates_through_skip_map_concurrently() {
    // hash map -> skip map -> ordered list: three racing movers drain each
    // stage while it fills; every key ends in exactly one container with
    // its value intact, and the skip map's ordered view stays sorted.
    const KEYS: u64 = 120;
    let map: LfHashMap<u64, u64> = LfHashMap::with_buckets(8);
    let skip: LfSkipMap<u64, u64> = LfSkipMap::new();
    let list: OrderedSet<u64, u64> = OrderedSet::new();
    for k in 0..KEYS {
        map.insert(k, k + 1_000);
    }
    std::thread::scope(|sc| {
        let (map, skip, list) = (&map, &skip, &list);
        for t in 0..2u64 {
            sc.spawn(move || {
                for k in 0..KEYS {
                    if k % 2 == t {
                        let _ = move_keyed(map, &k, skip);
                    }
                }
            });
            sc.spawn(move || {
                for k in 0..KEYS {
                    let _ = move_keyed(skip, &k, list);
                }
            });
        }
        sc.spawn(move || {
            // Ordered observer: any snapshot of the skip map mid-migration
            // must be strictly ascending with intact payloads.
            for _ in 0..50 {
                let snap = skip.to_vec();
                for w in snap.windows(2) {
                    assert!(w[0].0 < w[1].0, "range must stay sorted under churn");
                }
                for (k, v) in snap {
                    assert_eq!(v, k + 1_000);
                }
            }
        });
    });
    for k in 0..KEYS {
        let homes = [map.get(&k), skip.get(&k), list.get(&k)];
        let present = homes.iter().flatten().count();
        assert_eq!(present, 1, "key {k} must live in exactly one container");
        assert_eq!(homes.iter().flatten().next(), Some(&(k + 1_000)));
    }
    assert_eq!(map.count() + skip.count() + list.count(), KEYS as usize);
}
