//! Protocol-word encoding.
//!
//! Every composable linearization point is a CAS on one machine word that
//! normally holds a pointer (paper requirement 3). While a commit is in
//! flight the word temporarily holds a *descriptor word* naming the
//! operation instead, distinguished by mark bits in the word's low bits —
//! the technique of Harris (reference \[8\] in the paper) — and, for every
//! word after the first, tagged with the installing thread's id to defeat
//! the ABA problem the paper describes in §3.2.2.
//!
//! Each thread owns one descriptor, reused for every published commit
//! (`crate::kcas`), so a descriptor word names an *incarnation* — the
//! owner's thread id and the commit's sequence number — rather than an
//! address:
//!
//! ```text
//! bits [1:0]   kind: 00 raw value, 01 descriptor (10 and 11 unused)
//! bits [8:2]   owner tid: whose descriptor record
//! bits [56:9]  seq: the owner's incarnation (48 bits, wraps)
//! bits [63:57] marker field: 0 = plain (installed at *ptr_0 by the owner),
//!                            m+1 = marked by thread m (at *ptr_i, i ≥ 1)
//! ```
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

const TID_FIELD_MAX: Word = 0x7F;
const OWNER_SHIFT: u32 = 2;
const SEQ_SHIFT: u32 = 9;
const MARKER_SHIFT: u32 = 57;

/// Largest sequence number a word carries; incarnations count modulo
/// `SEQ_MAX + 1`.
pub(crate) const SEQ_MAX: usize = (1 << 48) - 1;

// A tid must fit the owner field and `tid + 1` the marker field: a larger
// thread cap would silently fold different threads' words together.
const _: () = assert!(lfc_runtime::MAX_THREADS < TID_FIELD_MAX);
const _: () = assert!(SEQ_SHIFT + 48 == MARKER_SHIFT);

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

/// The `seq` field at its place in a word: the common part of every
/// descriptor word and winner-slot value of incarnation `seq`.
#[inline]
pub(crate) fn seq_bits(seq: usize) -> Word {
    debug_assert!(seq <= SEQ_MAX);
    seq << SEQ_SHIFT
}

/// Unmarked descriptor word of `owner`'s incarnation `seq`, as installed
/// at `*ptr_0` (line D10).
#[inline]
pub(crate) fn dcas_plain(owner: u16, seq: usize) -> Word {
    debug_assert!((owner as usize) < lfc_runtime::MAX_THREADS);
    seq_bits(seq) | ((owner as Word) << OWNER_SHIFT) | KIND_DCAS
}

/// Descriptor word of `owner`'s incarnation `seq` marked by `marker`, as
/// installed at `*ptr_i`, i ≥ 1 (lines D13–D14).
#[inline]
pub(crate) fn dcas_marked(owner: u16, seq: usize, marker: u16) -> Word {
    debug_assert!((marker as usize) < lfc_runtime::MAX_THREADS);
    dcas_plain(owner, seq) | (((marker as Word) + 1) << MARKER_SHIFT)
}

/// The plain form of a descriptor word: its incarnation's D10 word.
#[inline]
pub(crate) fn unmarked(w: Word) -> Word {
    w & !(TID_FIELD_MAX << MARKER_SHIFT)
}

/// Owner tid of a descriptor word.
#[inline]
pub(crate) fn owner(w: Word) -> u16 {
    ((w >> OWNER_SHIFT) & TID_FIELD_MAX) as u16
}

/// Sequence number of a descriptor word (or of a winner-slot value).
#[inline]
pub(crate) fn seq(w: Word) -> usize {
    (w >> SEQ_SHIFT) & SEQ_MAX
}

/// Marker field of a descriptor word (0 means unmarked).
#[inline]
pub(crate) fn dcas_tid_field(w: Word) -> Word {
    w >> MARKER_SHIFT
}

/// Marker tid of a *marked* descriptor word.
#[inline]
pub(crate) fn marker(w: Word) -> u16 {
    debug_assert!(is_marked_dcas(w));
    (dcas_tid_field(w) - 1) as u16
}

/// Whether `w` is a *marked* descriptor word (the `desc is marked` test of
/// line D5).
#[inline]
pub(crate) fn is_marked_dcas(w: Word) -> bool {
    kind(w) == KIND_DCAS && dcas_tid_field(w) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfc_runtime::MAX_THREADS;

    #[test]
    fn raw_detection() {
        assert!(is_raw(0));
        assert!(is_raw(0x1000));
        assert!(!is_raw(dcas_plain(0, 0)));
        assert!(!is_raw(dcas_marked(0, 1, 0)));
    }

    #[test]
    fn plain_vs_marked() {
        let plain = dcas_plain(3, 77);
        assert_eq!(kind(plain), KIND_DCAS);
        assert_eq!(dcas_tid_field(plain), 0);
        assert!(!is_marked_dcas(plain));

        let marked = dcas_marked(3, 77, 5);
        assert!(is_marked_dcas(marked));
        assert_eq!(dcas_tid_field(marked), 6);
        assert_eq!(marker(marked), 5);
        assert_eq!((owner(marked), seq(marked)), (3, 77));
        assert_eq!((owner(plain), seq(plain)), (3, 77));
        assert_ne!(plain, marked);
    }

    #[test]
    fn words_of_different_incarnations_differ() {
        // The guarantee reuse rests on: one owner's consecutive
        // incarnations never produce the same word, plain or marked.
        for n in [0, 1, 2, SEQ_MAX - 1] {
            assert_ne!(dcas_plain(4, n), dcas_plain(4, n + 1));
            assert_ne!(dcas_marked(4, n, 9), dcas_marked(4, n + 1, 9));
        }
        assert_ne!(dcas_marked(4, 7, 0), dcas_marked(4, 7, 1));
        assert_ne!(dcas_plain(4, 7), dcas_plain(5, 7));
    }

    #[test]
    fn owner_marker_seq_roundtrip_at_every_tid() {
        for n in [0, 1, SEQ_MAX] {
            for t in 0..MAX_THREADS as u16 {
                for m in [0, t, MAX_THREADS as u16 - 1 - t] {
                    let w = dcas_marked(t, n, m);
                    assert_eq!(
                        (kind(w), owner(w), seq(w), marker(w)),
                        (KIND_DCAS, t, n, m),
                        "owner {t}, marker {m}, seq {n:#x}"
                    );
                }
                let w = dcas_plain(t, n);
                assert_eq!(
                    (kind(w), owner(w), seq(w), dcas_tid_field(w)),
                    (KIND_DCAS, t, n, 0)
                );
            }
        }
    }

    #[test]
    fn roundtrip_marked_randomized() {
        let mut rng = lfc_runtime::SmallRng::seed_from_u64(0xD0C5);
        for _ in 0..2_000 {
            let n = rng.below(SEQ_MAX as u64 + 1) as usize;
            let t = rng.below(MAX_THREADS as u64) as u16;
            let m = rng.below(MAX_THREADS as u64) as u16;
            let w = dcas_marked(t, n, m);
            assert_eq!((owner(w), seq(w), marker(w)), (t, n, m));
            assert_eq!(kind(w), KIND_DCAS);
            assert_eq!(seq(seq_bits(n)), n);
        }
    }
}
