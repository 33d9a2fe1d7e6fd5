//! Node and header plumbing shared by the move-ready structures: **one**
//! block lifecycle for every node and header type in the crate.
//!
//! All nodes and structure headers are allocated from the paper's pooling
//! memory manager (`lfc-alloc`) and given back exclusively through the
//! unified reclamation domain (`lfc-hazard::retire`), because DCAS helpers
//! may write into a node's `next` word — or into a structure's
//! `head`/`tail`/`top` header word — after the operation that published
//! the descriptor has returned. Since PR 3 the structures protect their
//! traversals with one operation epoch (`lfc_hazard::pin_op`) instead of
//! per-node hazards; a retired block is freed only once it is out of reach
//! of **both** regimes (older than every active epoch *and* absent from
//! every hazard slot). Hazard-managed headers are the Rust-soundness
//! addition documented in DESIGN.md §2.
//!
//! # One lifecycle
//!
//! Every block type — the queue/stack [`Node`], the keyed chain nodes of
//! `OrderedSet`, `LfHashMap` and `LfSkipMap`, every structure header and
//! the blocking baseline's nodes — goes through the same generic
//! functions: [`alloc`] / [`try_alloc`] (fault site first), [`retire`],
//! [`free_unpublished`], and the reclaimer / [`divert`] pair registered
//! with the hazard domain. The caller builds the value before allocating,
//! so a node's birth era is stamped before publication — earlier than
//! strictly needed, which is only more conservative. Headers carry no
//! drop glue, so for them divert *is* the reclaimer and a zombie-pinned
//! header frees fully. The hash map's variable-length directory segments
//! are the one block kind outside this lifecycle (their length lives in
//! the block); its bucket dummies live inside them and are not blocks.

use lfc_dcas::{DAtomic, Word};
use lfc_hazard::RetireInfo;
use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::ptr::NonNull;

/// A block type managed by the lifecycle in this module.
pub(crate) trait Block: Sized {
    /// Era the block was born in (the zombie partition's evidence that a
    /// stalled reader cannot reach it; DESIGN.md, zombie tier). Headers live
    /// from construction to teardown and report `BIRTH_UNKNOWN`.
    fn birth(&self) -> usize {
        lfc_hazard::BIRTH_UNKNOWN
    }
}

/// Move `b` into a fresh pooled block.
pub(crate) fn alloc<B>(b: B) -> NonNull<B> {
    let p = lfc_alloc::alloc_block(Layout::new::<B>()).cast::<B>();
    // Safety: fresh, correctly sized and aligned block.
    unsafe { p.as_ptr().write(b) };
    debug_assert_eq!(p.as_ptr() as usize & 0b111, 0);
    p
}

/// Fallible [`alloc`]: the fault site `site` (`structures.node` or
/// `structures.header`) or genuine exhaustion surfaces as `Err`, with the
/// value handed back so the caller keeps ownership.
pub(crate) fn try_alloc<B>(
    site: &'static str,
    b: B,
) -> Result<NonNull<B>, (B, lfc_alloc::AllocError)> {
    if lfc_runtime::fault::check(site) {
        return Err((b, lfc_alloc::AllocError));
    }
    match lfc_alloc::try_alloc_block(Layout::new::<B>()) {
        Ok(p) => {
            let p = p.cast::<B>();
            // Safety: fresh, correctly sized and aligned block.
            unsafe { p.as_ptr().write(b) };
            Ok(p)
        }
        Err(e) => Err((b, e)),
    }
}

/// Reclaimer registered with the hazard domain: drops the contents and
/// returns the block to the pool.
unsafe fn reclaim<B>(p: *mut u8) {
    // Safety: retire contract — last reference, initialized block.
    unsafe {
        std::ptr::drop_in_place(p as *mut B);
        lfc_alloc::free_block(p, Layout::new::<B>());
    }
}

/// Zombie-tier fallback free: return the block to its type-stable pool
/// **without** running drop glue — the contents leak, bounded per stall,
/// but a reader that violates the park assumption lands on mapped pooled
/// memory instead of recycled bytes. Also the free of a block whose
/// contents were moved out.
pub(crate) unsafe fn divert<B>(p: *mut u8) {
    // Safety: retire contract; contents intentionally not dropped.
    unsafe { lfc_alloc::free_block(p, Layout::new::<B>()) };
}

/// Defer-free a block that was published (reachable through shared memory).
///
/// # Safety
///
/// The block must be unlinked per the hazard-domain retire contract, and
/// this must be its single retire call.
pub(crate) unsafe fn retire<B: Block>(p: *mut B) {
    // Safety: the block is unlinked but still live; reading its plain
    // birth field is the retirer's prerogative (single retire call).
    let birth = unsafe { (*p).birth() };
    // Safety: forwarded.
    unsafe {
        lfc_hazard::retire_with(
            p as *mut u8,
            reclaim::<B>,
            RetireInfo {
                bytes: std::mem::size_of::<B>(),
                birth,
                divert: Some(divert::<B>),
            },
        )
    };
}

/// Free a block that was never published.
///
/// # Safety
///
/// The block must be unpublished and uniquely owned.
pub(crate) unsafe fn free_unpublished<B>(p: *mut B) {
    // Safety: unique owner.
    unsafe { reclaim::<B>(p as *mut u8) };
}

/// A singly linked node carrying an optional value (the queue's dummy node
/// holds `None`).
#[repr(C)]
pub(crate) struct Node<T> {
    /// Successor word; may transiently hold a DCAS descriptor.
    pub next: DAtomic,
    /// Written once before the node is published; read (cloned) by removers
    /// before their linearization point; dropped at reclamation.
    pub val: UnsafeCell<Option<T>>,
    /// Era the node was built in (plain write before publication, plain
    /// read at retire).
    pub birth: usize,
}

impl<T> Node<T> {
    /// An unlinked node holding `val`, stamped with the current era.
    pub(crate) fn new(val: Option<T>) -> Self {
        Node {
            next: DAtomic::new(0),
            val: UnsafeCell::new(val),
            birth: lfc_hazard::birth_era(),
        }
    }
}

impl<T> Block for Node<T> {
    fn birth(&self) -> usize {
        self.birth
    }
}

/// Clone the value out of a (hazard-protected) node.
///
/// # Safety
///
/// `p` must point to a live node holding `Some` value, protected against
/// reclamation by the caller.
pub(crate) unsafe fn clone_val<T: Clone>(p: *mut Node<T>) -> T {
    // Safety: value words are written once before publication; concurrent
    // readers only take shared references.
    match unsafe { (*(*p).val.get()).as_ref() } {
        Some(v) => v.clone(),
        None => unreachable!("value nodes always hold Some; only the dummy holds None"),
    }
}

/// A two-word structure header (queue). Kept in its own pooled allocation so
/// helpers can pin it before writing (see module docs).
#[repr(C)]
pub(crate) struct PairHeader {
    pub first: DAtomic,
    pub second: DAtomic,
}

impl PairHeader {
    pub(crate) fn new(first: Word, second: Word) -> Self {
        PairHeader {
            first: DAtomic::new(first),
            second: DAtomic::new(second),
        }
    }
}

impl Block for PairHeader {}

/// A one-word structure header (stack, slot, ordered set).
#[repr(C)]
pub(crate) struct SoloHeader {
    pub word: DAtomic,
}

impl SoloHeader {
    pub(crate) fn new(word: Word) -> Self {
        SoloHeader {
            word: DAtomic::new(word),
        }
    }
}

impl Block for SoloHeader {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    /// Drop-counting payload.
    #[derive(Clone)]
    struct D;
    impl Drop for D {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Release every block `make` builds through each exit of the
    /// lifecycle and count the drops that exit runs. Every block, fallible
    /// or not, must be 8-aligned (a valid raw protocol word).
    fn check_lifecycle<B>(make: impl Fn() -> B, drop_glue: usize) {
        type Exit = unsafe fn(*mut u8);
        let rows: [(&str, Exit, usize); 3] = [
            ("reclaim", reclaim::<B>, drop_glue),
            // The zombie tier must never run drop glue.
            ("divert", divert::<B>, 0),
            (
                "free_unpublished",
                |p| unsafe { free_unpublished(p as *mut B) },
                drop_glue,
            ),
        ];
        for (exit, release, drops) in rows {
            for p in [
                alloc(make()),
                try_alloc("structures.node", make()).unwrap_or_else(|_| panic!("try_alloc")),
            ] {
                assert_eq!(p.as_ptr() as usize & 0b111, 0, "{exit}: not 8-aligned");
                let before = DROPS.load(Ordering::SeqCst);
                unsafe { release(p.as_ptr() as *mut u8) };
                assert_eq!(DROPS.load(Ordering::SeqCst) - before, drops, "{exit}");
            }
        }
    }

    #[test]
    fn lifecycle_drops_exactly_as_documented() {
        check_lifecycle(|| Node::new(Some(D)), 1);
        check_lifecycle(|| PairHeader::new(0, 8), 0);
        check_lifecycle(|| SoloHeader::new(16), 0);
        // Nodes carry the era they were built in; headers an unknown one.
        let n = Node::new(Some(D));
        assert!(n.birth() != lfc_hazard::BIRTH_UNKNOWN && n.birth() <= lfc_hazard::birth_era());
        assert_eq!(PairHeader::new(0, 8).birth(), lfc_hazard::BIRTH_UNKNOWN);
        // Headers hold the words they were built with.
        let h = alloc(PairHeader::new(0, 8));
        let s = alloc(SoloHeader::new(16));
        unsafe {
            assert_eq!(h.as_ref().first.load_word(), 0);
            assert_eq!(h.as_ref().second.load_word(), 8);
            assert_eq!(s.as_ref().word.load_word(), 16);
            free_unpublished(h.as_ptr());
            free_unpublished(s.as_ptr());
        }
    }

    #[test]
    fn node_value_roundtrip() {
        let n = alloc(Node::new(Some("hello".to_string()))).as_ptr();
        assert_eq!(unsafe { clone_val(n) }, "hello");
        unsafe { free_unpublished(n) };
    }
}
