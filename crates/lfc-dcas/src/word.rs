//! Protocol-word encoding.
//!
//! Every composable linearization point is a CAS on one machine word that
//! normally holds a pointer (paper requirement 3). While a commit is in
//! flight the word temporarily holds a pointer to the operation's
//! descriptor, distinguished by mark bits in the pointer's low bits — the
//! technique of Harris (reference \[8\] in the paper) — and, for every word
//! after the first, tagged with the installing thread's id to defeat the
//! ABA problem the paper describes in §3.2.2.
//!
//! ```text
//! bits [1:0]   kind: 00 raw value, 01 descriptor (10 and 11 unused)
//! bits [5:2]   zero in descriptor words (descriptors are 64-byte aligned)
//! bits [56:6]  descriptor address
//! bits [63:57] thread-id field: 0 = unmarked (installed at *ptr_0),
//!                               tid+1 = marked (installed at *ptr_i, i ≥ 1)
//! ```
//!
//! The thread-id field sits above every user address: user space ends
//! below 2^57 on every supported target (x86-64 with 5-level paging
//! included), so the field costs descriptors no alignment and they stay
//! one or a few cache lines each.
//!
//! Raw values must have their low two bits clear: nodes are at least
//! 8-byte-aligned heap blocks, so node pointers (and null) qualify, and
//! bit 2 of a raw value remains free as a user mark (ordered-list logical
//! deletion uses it).

/// A protocol word.
pub type Word = usize;

/// Mask selecting the kind field.
pub const KIND_MASK: Word = 0b11;
/// Raw value (node pointer / null / stamped pointer).
pub const KIND_RAW: Word = 0b00;
/// Descriptor word (paper Algorithm 4, at every width).
pub const KIND_DCAS: Word = 0b01;

const TID_SHIFT: u32 = 57;
const TID_FIELD_MAX: Word = 0x7F;
const TID_MASK: Word = TID_FIELD_MAX << TID_SHIFT;

// `MAX_THREADS + 1` must fit the 7-bit field: a larger thread cap would
// silently fold marks of different threads together.
const _: () = assert!(lfc_runtime::MAX_THREADS < TID_FIELD_MAX);

/// Alignment required of all descriptor allocations.
pub const DESC_ALIGN: usize = 64;

const ADDR_MASK: Word = !(DESC_ALIGN - 1) & !TID_MASK;

/// Kind field of `w`.
#[inline]
pub fn kind(w: Word) -> Word {
    w & KIND_MASK
}

/// Whether `w` is a raw value (no descriptor involved).
#[inline]
pub fn is_raw(w: Word) -> bool {
    kind(w) == KIND_RAW
}

/// Descriptor base address encoded in `w` (meaningless for raw words).
#[inline]
pub fn desc_addr(w: Word) -> usize {
    w & ADDR_MASK
}

/// Debug check shared by every encoder: `addr` is a descriptor address
/// the word can carry intact.
#[inline]
fn debug_check_addr(addr: usize) {
    debug_assert_eq!(addr % DESC_ALIGN, 0, "descriptor must be 64-aligned");
    debug_assert_eq!(addr & TID_MASK, 0, "address bits [63:57] must be clear");
}

/// Unmarked descriptor word, as installed at `*ptr_0` (line D10).
#[inline]
pub fn dcas_plain(addr: usize) -> Word {
    debug_check_addr(addr);
    addr | KIND_DCAS
}

/// Marked descriptor word for `tid`, as installed at `*ptr_i`, i ≥ 1
/// (lines D13–D14).
#[inline]
pub fn dcas_marked(addr: usize, tid: u16) -> Word {
    debug_check_addr(addr);
    debug_assert!((tid as usize) < lfc_runtime::MAX_THREADS);
    addr | KIND_DCAS | (((tid as Word) + 1) << TID_SHIFT)
}

/// Thread-id field of a descriptor word (0 means unmarked).
#[inline]
pub fn dcas_tid_field(w: Word) -> Word {
    (w & TID_MASK) >> TID_SHIFT
}

/// Whether `w` is a *marked* descriptor word (the `desc is marked` test of
/// line D5).
#[inline]
pub fn is_marked_dcas(w: Word) -> bool {
    kind(w) == KIND_DCAS && dcas_tid_field(w) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfc_runtime::MAX_THREADS;

    /// The highest address a descriptor can have.
    const TOP: usize = (1 << 57) - DESC_ALIGN;

    #[test]
    fn raw_detection() {
        assert!(is_raw(0));
        assert!(is_raw(0x1000));
        assert!(!is_raw(0x1000 | KIND_DCAS));
        assert!(!is_raw(dcas_marked(0x1000, 0)));
    }

    #[test]
    fn plain_vs_marked() {
        let addr = 4096usize;
        let plain = dcas_plain(addr);
        assert_eq!(kind(plain), KIND_DCAS);
        assert_eq!(dcas_tid_field(plain), 0);
        assert!(!is_marked_dcas(plain));

        let marked = dcas_marked(addr, 5);
        assert!(is_marked_dcas(marked));
        assert_eq!(dcas_tid_field(marked), 6);
        assert_eq!(desc_addr(marked), addr);
        assert_eq!(desc_addr(plain), addr);
        assert_ne!(plain, marked);
    }

    #[test]
    fn distinct_tids_distinct_marks() {
        let addr = 8192usize;
        let a = dcas_marked(addr, 0);
        let b = dcas_marked(addr, 1);
        assert_ne!(a, b);
        assert_eq!(desc_addr(a), desc_addr(b));
    }

    #[test]
    fn sentinel_values_are_not_descriptor_words() {
        // res sentinels 0,1,2 must never be confused with descriptor words
        // that carry real (>= DESC_ALIGN) addresses.
        for s in [0usize, 1, 2] {
            assert_eq!(desc_addr(s), 0);
        }
        assert!(desc_addr(dcas_marked(DESC_ALIGN, 3)) >= DESC_ALIGN);
    }

    #[test]
    fn every_tid_roundtrips_at_every_address_width() {
        // Every tid against addresses from the first aligned block up to
        // the top of the 57-bit space: each address bit from 6 to 56, alone
        // and with a low address bit as well, plus the two highest blocks.
        let addrs = (6..57).flat_map(|b| [1usize << b, (1usize << b) | (DESC_ALIGN << 1)]);
        for addr in addrs.chain([TOP, TOP - DESC_ALIGN]) {
            for tid in 0..MAX_THREADS as u16 {
                let w = dcas_marked(addr, tid);
                assert_eq!(desc_addr(w), addr, "tid {tid} at {addr:#x}");
                assert_eq!(dcas_tid_field(w), tid as usize + 1);
                assert_eq!(kind(w), KIND_DCAS);
                assert!(is_marked_dcas(w));
            }
            let w = dcas_plain(addr);
            assert_eq!(
                (desc_addr(w), kind(w), dcas_tid_field(w)),
                (addr, KIND_DCAS, 0)
            );
        }
    }

    #[test]
    fn roundtrip_marked_randomized() {
        let mut rng = lfc_runtime::SmallRng::seed_from_u64(0xD0C5);
        for _ in 0..2_000 {
            let addr = (1 + rng.below((TOP / DESC_ALIGN) as u64) as usize) * DESC_ALIGN;
            let tid = rng.below(MAX_THREADS as u64) as u16;
            let w = dcas_marked(addr, tid);
            assert_eq!(desc_addr(w), addr);
            assert_eq!(dcas_tid_field(w), tid as usize + 1);
            assert_eq!(kind(w), KIND_DCAS);
        }
    }

    #[test]
    fn kinds_partition_randomized() {
        let mut rng = lfc_runtime::SmallRng::seed_from_u64(0xFACE);
        for _ in 0..2_000 {
            let addr = (1 + rng.below((TOP / DESC_ALIGN) as u64) as usize) * DESC_ALIGN;
            let tid = rng.below(MAX_THREADS as u64) as u16;
            let words = [addr, dcas_plain(addr), dcas_marked(addr, tid)];
            for (i, a) in words.iter().enumerate() {
                for (j, b) in words.iter().enumerate() {
                    if i != j {
                        assert_ne!(a, b);
                    }
                }
                assert_eq!(desc_addr(*a), addr);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bits [63:57]")]
    fn encoders_refuse_addresses_above_57_bits() {
        let _ = dcas_plain(1 << 57);
    }
}
