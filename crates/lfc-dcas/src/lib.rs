//! Software double-word compare-and-swap (DCAS) with helping, after
//! Cederman & Tsigas §3.2.2 (Algorithm 4), plus the CASN generalization the
//! paper's conclusion proposes for n-object moves.
//!
//! The composition layer (`lfc-core`) captures the linearization-point CAS
//! triples of the composed operations as [`CasnEntry`] values and commits
//! them together through [`try_commit_entries`] (infallible name
//! [`commit_entries`]), the crate's only initiator entry: a solo-regime
//! fast path, the paper's DCAS for K=2 and CASN for K>2, both sharing one
//! pooled descriptor lifecycle. Data structures route every read of a
//! composable word through [`DAtomic::read`] so that readers help
//! in-flight operations finish (lock-freedom).

#![warn(missing_docs)]

pub mod adopt;
mod atomic;
pub mod dcas;
mod engine;
pub mod kcas;
mod pool;
mod sync;
pub mod word;

pub use adopt::{adopt_dead_threads, helped_completions};
pub use atomic::DAtomic;
pub use dcas::counters;
pub use engine::{commit_entries, try_commit_entries};
pub use kcas::{CasnEntry, CasnResult, MAX_ENTRIES};
pub use word::Word;
