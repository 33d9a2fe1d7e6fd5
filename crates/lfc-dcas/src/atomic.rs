//! `DAtomic`: a DCAS-capable atomic word, and the paper's `read` operation
//! (Algorithm 4, lines D32–D39).
//!
//! Any memory word that can become the target of a composed linearization
//! point must be declared as a [`DAtomic`] and *every* read of it must go
//! through [`DAtomic::read`] (move-ready definition, requirement 3): a
//! reader that finds a descriptor must help the in-flight operation finish
//! before it can observe a raw value.

use crate::kcas;
use crate::sync::{AtomicUsize, Ordering};
use crate::word::{self, Word};
use lfc_hazard::Guard;

/// A machine word that may transiently hold an operation descriptor.
///
/// # Safety contract (internal)
///
/// The allocation containing a `DAtomic` must stay live while any thread can
/// reach it: structure headers and nodes are reclaimed exclusively through
/// `lfc-hazard`, and callers of [`DAtomic::read`] must already protect the
/// containing allocation (own it, borrow the structure, or hold a hazard on
/// the node) — the same discipline the paper's objects follow.
#[derive(Debug)]
pub struct DAtomic(AtomicUsize);

impl DAtomic {
    /// New word holding the raw value `raw`.
    pub const fn new(raw: Word) -> Self {
        DAtomic(AtomicUsize::new(raw))
    }

    /// Plain load. May expose an in-flight descriptor; use [`DAtomic::read`]
    /// unless you are the protocol itself.
    ///
    /// SeqCst (audited, required): `load_word` is the *validation-grade*
    /// load. It is used (a) after a hazard-slot publication, where it forms
    /// the load half of the Michael store→load Dekker pair (an Acquire load
    /// could be satisfied before the slot store became visible to a
    /// scanner), and (b) by read-only operations whose results feed the
    /// linearizability checker, where a stale-but-coherent Acquire read
    /// would break real-time ordering. CAS-based paths do not pay for this:
    /// RMWs always observe the latest value in modification order.
    #[inline]
    pub fn load_word(&self) -> Word {
        self.0.load(Ordering::SeqCst)
    }

    /// Single-word CAS, returning success.
    ///
    /// AcqRel/Acquire (relaxed from SeqCst): a linearization-point CAS must
    /// publish the writes that prepared `new` (Release) and observe the
    /// state published by the CAS that installed `old` (Acquire). No
    /// protocol decision hinges on a *total* order of CASes to different
    /// words: cross-word agreement in the protocol always goes through an
    /// RMW on a single winner slot (`res[i]`), and RMWs
    /// read the latest value in modification order regardless of ordering.
    #[inline]
    pub fn cas_word(&self, old: Word, new: Word) -> bool {
        self.0
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Single-word CAS reporting the value seen on failure.
    ///
    /// AcqRel/Acquire: as [`DAtomic::cas_word`]; the failure value is used
    /// to follow descriptor pointers, so the failure load must be Acquire
    /// (it pairs with the Release publication of the descriptor's fields).
    #[inline]
    pub fn cas_val(&self, old: Word, new: Word) -> Result<(), Word> {
        self.0
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    /// Store for initialization paths where the word is not yet (or no
    /// longer) shared.
    ///
    /// Release (relaxed from SeqCst): the store only needs to be ordered
    /// after the initialization writes it publishes; the word itself
    /// becomes reachable through some later linearization CAS (Release),
    /// whose observers acquire it transitively.
    #[inline]
    pub fn store_word(&self, w: Word) {
        self.0.store(w, Ordering::Release);
    }

    /// The paper's `read` operation: returns a raw value, helping any
    /// descriptor found in the word to completion first.
    ///
    /// Descriptor records are static, so a found descriptor word needs no
    /// hazard: the helper copies its incarnation and validates the copy by
    /// sequence number (`kcas`, "One descriptor per thread"). A word of an
    /// incarnation that has since ended is re-read; a helper's late mark
    /// left behind by one is reverted from its installer's pending-install
    /// slot first.
    #[inline]
    pub fn read(&self, g: &Guard) -> Word {
        // SeqCst via `load_word` (audited): read-only results participate
        // in real-time linearizability — see `load_word`.
        let w = self.load_word();
        if word::is_raw(w) {
            return w;
        }
        self.read_slow(g)
    }

    /// Traversal-grade `read`: the per-hop load of an epoch-protected walk
    /// (`lfc-hazard::pin_op`). Like [`DAtomic::read`] it never returns a
    /// descriptor — any in-flight operation found in the word is helped to
    /// completion through the same hazard-disciplined slow path — but the
    /// fast-path load is **Acquire**, not SeqCst.
    ///
    /// Acquire (audited): a hop pointer was published by the Release
    /// linearization CAS that linked the node, and Acquire is exactly what
    /// pairs with it; there is no hazard-publication Dekker to validate
    /// (the epoch entered at `pin_op` protects the whole walk with its one
    /// fence), and the *operation's* real-time ordering is anchored by that
    /// same SC enter fence, not by per-hop loads. A raw value read here
    /// *may* feed a linearization-point `old` (keyed insert/remove do): the
    /// linearization CAS re-validates it — a stale `old` fails the CAS and
    /// the operation retries — so the CAS itself, an RMW in the word's
    /// single modification order, is that path's real-time anchor. What
    /// must stay on [`DAtomic::read`] are *unvalidated* reads: raw values
    /// returned to callers as read-only results (or fed to the
    /// linearizability checker directly), whose only real-time anchor is
    /// the SC load itself.
    #[inline]
    pub fn read_acquire(&self, g: &Guard) -> Word {
        let w = self.0.load(Ordering::Acquire);
        if word::is_raw(w) {
            return w;
        }
        self.read_slow(g)
    }

    #[cold]
    fn read_slow(&self, g: &Guard) -> Word {
        loop {
            let w = self.load_word();
            if word::is_raw(w) {
                return w;
            }
            kcas::help(w, self, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfc_hazard::pin;

    #[test]
    fn read_of_raw_value_is_plain() {
        let g = pin();
        let a = DAtomic::new(0x1000);
        assert_eq!(a.read(&g), 0x1000);
        assert_eq!(a.load_word(), 0x1000);
    }

    #[test]
    fn cas_success_and_failure() {
        let a = DAtomic::new(8);
        assert!(a.cas_word(8, 16));
        assert!(!a.cas_word(8, 24));
        assert_eq!(a.load_word(), 16);
    }

    #[test]
    fn store_overwrites() {
        let a = DAtomic::new(0);
        a.store_word(64);
        assert_eq!(a.load_word(), 64);
    }
}
