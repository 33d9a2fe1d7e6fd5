//! Software double-word compare-and-swap (DCAS) with helping, after
//! Cederman & Tsigas §3.2.2 (Algorithm 4), run entry by entry over up to
//! [`MAX_ENTRIES`] words — the n-word generalization the paper's conclusion
//! proposes for n-object moves.
//!
//! The composition layer (`lfc-core`) captures the linearization-point CAS
//! triples of the composed operations as [`CasnEntry`] values and commits
//! them together through [`commit_entries`], the crate's only initiator
//! entry, which cannot fail: a solo-regime fast path, and otherwise one
//! published protocol ([`kcas`]) over one descriptor per thread, reused
//! under a new sequence number by every published commit — nothing is
//! allocated or reclaimed. Data structures route every read of a
//! composable word through [`DAtomic::read`] so that readers help
//! in-flight operations finish (lock-freedom).

#![warn(missing_docs)]

pub mod adopt;
mod atomic;
mod engine;
pub mod kcas;
mod sync;
pub mod word;

pub use adopt::{adopt_dead_threads, helped_completions};
pub use atomic::DAtomic;
pub use engine::commit_entries;
pub use kcas::{counters, CasnEntry, CasnResult, MAX_ENTRIES};
pub use word::Word;
