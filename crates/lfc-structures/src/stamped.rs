//! The *stamped* top-word format: the ABA mitigation the paper's §7
//! discussion proposes for the Treiber stack:
//!
//! > "The problem can be alleviated by adding a counter to the top pointer
//! > in the stack, removing the possibility of the ABA-problem occurring.
//! > The downside with this solution is that it somewhat lowers the
//! > performance of the normal insert and remove operations."
//!
//! The top word packs a 16-bit stamp into the pointer's high bits; every
//! successful `top` CAS bumps it, so a delayed DCAS helper whose expected
//! `old2` was consumed can never match a *recreated* top value and false
//! helping disappears (measured by `lfc_dcas::counters::stale_mark_reverts`
//! in the `stamped_ablation` bench). Only the format lives here: the stack
//! is [`crate::treiber::Treiber`], so [`StampedStack`] differs from
//! [`crate::TreiberStack`] in the top word alone (elimination, `try_new`
//! and `try_push` included). An eliminated push/pop pair never touches
//! `top` and leaves the stamp unchanged.

use crate::treiber::{TopWord, Treiber};

const STAMP_SHIFT: u32 = 48;
const ADDR_MASK: usize = (1 << STAMP_SHIFT) - 1;

#[inline]
fn pack(addr: usize, stamp: usize) -> usize {
    debug_assert_eq!(addr & !ADDR_MASK, 0, "node address exceeds 48 bits");
    addr | (stamp << STAMP_SHIFT)
}

#[inline]
fn addr_of(w: usize) -> usize {
    w & ADDR_MASK
}

#[inline]
fn stamp_of(w: usize) -> usize {
    w >> STAMP_SHIFT
}

/// A node pointer in the low 48 bits, a 16-bit version stamp above it.
pub struct StampedTop;

impl TopWord for StampedTop {
    #[inline]
    fn addr(w: usize) -> usize {
        addr_of(w)
    }

    #[inline]
    fn next(old: usize, addr: usize) -> usize {
        pack(addr, stamp_of(old).wrapping_add(1) & 0xFFFF)
    }
}

/// A move-ready Treiber stack whose top pointer carries a version stamp.
pub type StampedStack<T> = Treiber<T, StampedTop>;

#[cfg(test)]
mod tests {
    use super::*;
    use lfc_hazard::pin;

    #[test]
    fn pack_roundtrip() {
        let addr = 0x007F_FFFF_FFF8_usize;
        for stamp in [0usize, 1, 0xFFFF] {
            let w = pack(addr, stamp);
            assert_eq!(addr_of(w), addr);
            assert_eq!(stamp_of(w), stamp);
            assert!(lfc_dcas::word::is_raw(w), "stamped words stay raw-kind");
        }
    }

    #[test]
    fn stamp_wraps_at_16_bits() {
        let w = pack(0x1000, 0xFFFF);
        assert_eq!(StampedTop::next(w, 0x2000), pack(0x2000, 0));
    }

    #[test]
    fn lifo_order() {
        let s: StampedStack<u64> = StampedStack::new();
        for i in 0..64 {
            s.push(i);
        }
        for i in (0..64).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn stamp_advances_per_operation() {
        let s: StampedStack<u64> = StampedStack::new();
        let g = pin();
        let s0 = stamp_of(s.top().read(&g));
        s.push(1);
        let s1 = stamp_of(s.top().read(&g));
        assert_eq!(s1, (s0 + 1) & 0xFFFF);
        s.pop();
        let s2 = stamp_of(s.top().read(&g));
        assert_eq!(s2, (s0 + 2) & 0xFFFF);
        assert_eq!(addr_of(s.top().read(&g)), 0, "empty again");
    }

    #[test]
    fn concurrent_conservation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let s: StampedStack<u64> = StampedStack::new();
        let sum = AtomicU64::new(0);
        let taken = AtomicU64::new(0);
        std::thread::scope(|sc| {
            for t in 0..2u64 {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..4_000 {
                        s.push(t * 4_000 + i + 1);
                    }
                });
            }
            for _ in 0..2 {
                let s = &s;
                let sum = &sum;
                let taken = &taken;
                sc.spawn(move || {
                    while taken.load(Ordering::Relaxed) < 8_000 {
                        if let Some(v) = s.pop() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=8_000u64).sum::<u64>());
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }
}
