//! The seven workloads. Shapes, sizes and thread counts are constants
//! here, not host-derived, so numbers compare across machines.

pub mod ledger;
pub mod maps;
pub mod pair;
pub mod shard;
pub mod solo;

use crate::workload::{run, Report, RunCfg};
use lockfree_compose::{MsQueue, PlainMsQueue, PlainTreiberStack, TreiberStack};
use std::time::Instant;

/// Build the named workload (or its variant: `plain` for `pair_ops`,
/// `gate` for `pair_move`) and run one repetition of it.
pub fn run_named(name: &str, variant: &str, cfg: &RunCfg, born: Instant) -> Result<Report, String> {
    match (name, variant) {
        ("pair_ops", "") => run(
            &pair::PairOps::<MsQueue<u64>, TreiberStack<u64>>::default(),
            cfg,
            born,
        ),
        ("pair_ops", "plain") => run(
            &pair::PairOps::<PlainMsQueue<u64>, PlainTreiberStack<u64>>::default(),
            cfg,
            born,
        ),
        ("pair_move", "") => run(&pair::PairMove::new(false), cfg, born),
        ("pair_move", "gate") => run(&pair::PairMove::new(true), cfg, born),
        ("shard_local", "") => run(&shard::ShardLocal::new(), cfg, born),
        ("solo_mix", "") => run(&solo::SoloMix::default(), cfg, born),
        ("map_read", "") => run(&maps::MapRead::default(), cfg, born),
        ("map_churn", "") => run(&maps::MapChurn::default(), cfg, born),
        ("ledger_mix", "") => run(&ledger::LedgerMix::new(cfg.seed), cfg, born),
        _ => Err(format!("no workload {name:?} with variant {variant:?}")),
    }
}
