//! Evaluation harness reproducing the paper's §6 experiments.
//!
//! The paper's setup: two objects (two queues, two stacks, or one of each);
//! each thread randomly performs operations from a set of either just move
//! operations, just insert/remove operations, or both; five million
//! operations distributed evenly over 1–16 threads; fifty trials; local
//! work between operations tuned for a high-contention (≈0.1 µs) or
//! low-contention (≈0.5 µs) load; reported time excludes the local work.
//!
//! [`run_config`] executes one such configuration and returns per-trial
//! synchronization times; the `reproduce` binary sweeps full figures.

#![warn(missing_docs)]

pub mod chaos;
pub mod diag;
pub mod hist;
pub mod json;
pub mod stats;
pub mod workload;

pub use workload::{
    base_seed, run_config, run_trial, Contention, Impl, Mix, Pair, RunCfg, TrialResult,
};
