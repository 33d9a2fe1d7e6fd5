//! `ledger_mix`: the whole stack. Two clients drive the sharded ledger;
//! client 0 doubles as the governor (`tend`) and the auditor.

use crate::stream::{Code, Keys};
use crate::workload::{Outcome, Workload};
use lockfree_compose::ledger::{Ledger, LedgerCfg, LedgerError, SettleOutcome};
use std::time::Instant;

pub const SHARDS: usize = 4;
pub const ACCOUNTS: u32 = 65_536;
pub const VOUCHERS_PER_LANE: u64 = 1_024;
const TEND_EVERY: u64 = 4_096;
const AUDIT_EVERY: u64 = 1 << 20;
/// The first audit falls early in the window, so even a short window has one.
const AUDIT_PHASE: u64 = (1 << 17) - 1;

const TEND: u8 = 7;
const AUDIT: u8 = 8;

/// 50 % `balance`, 20 % `migrate`, 10 % `settle`, 5 % each `promote`,
/// `demote`, `open`, `close`, on Zipf-chosen accounts. The 65 536 initial
/// accounts are never closed (a client closes only ids it opened), so
/// every Zipf draw names a live account and the population is stationary.
pub struct LedgerMix {
    ledger: Ledger,
}

impl LedgerMix {
    pub fn new(seed: u64) -> LedgerMix {
        LedgerMix {
            ledger: Ledger::new(LedgerCfg {
                shards: SHARDS,
                seed,
                ..LedgerCfg::default()
            }),
        }
    }
}

pub struct Local {
    client: usize,
    /// Ids this client opened and has not closed yet.
    opened: Vec<u64>,
    audit_ns: Vec<u64>,
    audit_accounts: u64,
    broken_audits: u64,
}

fn answer<T>(r: Result<T, LedgerError>) -> Outcome {
    match r {
        Ok(_) => Outcome::Ok,
        Err(LedgerError::NotFound | LedgerError::Duplicate) => Outcome::Miss,
        Err(LedgerError::Shed | LedgerError::Overloaded) => Outcome::Failed,
    }
}

impl Workload for LedgerMix {
    type Local = Local;
    const THREADS: usize = 2;
    const KINDS: &'static [&'static str] = &[
        "balance", "migrate", "settle", "promote", "demote", "open", "close", "tend", "audit",
    ];
    const MIX: &'static [(u8, u32)] = &[(0, 10), (1, 4), (2, 2), (3, 1), (4, 1), (5, 1), (6, 1)];
    const KEYS: Keys = Keys::Zipf(ACCOUNTS);

    fn prefill(&self, thread: usize) -> Local {
        // The runner holds every thread at a barrier after prefill, so the
        // ids handed out here are exactly 0..ACCOUNTS.
        for _ in 0..ACCOUNTS as usize / Self::THREADS {
            self.ledger
                .open(100)
                .expect("a fresh ledger admits accounts");
        }
        for lane in (thread..SHARDS).step_by(Self::THREADS) {
            for _ in 0..VOUCHERS_PER_LANE {
                self.ledger
                    .fund_lane(lane, 1)
                    .expect("a fresh ledger admits vouchers");
            }
        }
        Local {
            client: thread,
            opened: Vec::with_capacity(64),
            audit_ns: Vec::new(),
            audit_accounts: 0,
            broken_audits: 0,
        }
    }

    #[inline]
    fn due(&self, l: &Local, ops: u64) -> Option<Code> {
        if l.client != 0 || ops % TEND_EVERY != TEND_EVERY - 1 {
            None
        } else if ops % AUDIT_EVERY == AUDIT_PHASE {
            Some(Code::of_kind(AUDIT))
        } else {
            Some(Code::of_kind(TEND))
        }
    }

    #[inline]
    fn op(&self, l: &mut Local, code: Code) -> Outcome {
        let led = &self.ledger;
        let id = code.key() as u64;
        let aux = code.aux() as usize;
        match code.kind() {
            0 => answer(led.balance(id)),
            1 => answer(led.migrate(id, aux % SHARDS)),
            2 => {
                let a = aux % SHARDS;
                let b = (a + 1 + aux / SHARDS % (SHARDS - 1)) % SHARDS;
                match led.settle(a, b) {
                    Ok(SettleOutcome::LaneEmpty) => Outcome::Miss,
                    other => answer(other),
                }
            }
            3 => answer(led.promote(id)),
            4 => answer(led.demote(id)),
            // A close with nothing of its own to close opens instead; the
            // stream pairs them per block, so that happens at most once.
            6 if !l.opened.is_empty() => {
                answer(led.close(l.opened.pop().expect("checked non-empty")))
            }
            5 | 6 => {
                let opened = led.open(1 + aux as u64);
                if let Ok(id) = opened {
                    l.opened.push(id);
                }
                answer(opened)
            }
            TEND => {
                led.tend();
                Outcome::Ok
            }
            _ => {
                let t0 = Instant::now();
                let report = led.quiesced_audit();
                l.audit_ns.push(t0.elapsed().as_nanos() as u64);
                l.audit_accounts += report.accounts;
                l.broken_audits += !report.conserved() as u64;
                Outcome::Ok
            }
        }
    }

    fn verify(&self, locals: Vec<Local>) -> Result<Vec<(&'static str, f64)>, String> {
        let broken: u64 = locals.iter().map(|l| l.broken_audits).sum();
        if broken > 0 {
            return Err(format!(
                "{broken} in-window audits found tokens missing or duplicated"
            ));
        }
        let last = self.ledger.quiesced_audit();
        if !last.conserved() {
            return Err(format!("final audit is not conserved: {last:?}"));
        }
        let drift = (last.accounts as f64 - ACCOUNTS as f64).abs() / ACCOUNTS as f64;
        if drift > 0.05 {
            return Err(format!(
                "population ended at {} accounts, more than 5 % from {ACCOUNTS}",
                last.accounts
            ));
        }
        let audits: Vec<u64> = locals
            .iter()
            .flat_map(|l| l.audit_ns.iter().copied())
            .collect();
        let audited: u64 = locals.iter().map(|l| l.audit_accounts).sum();
        let audit_ns: u64 = audits.iter().sum();
        let health = self.ledger.health().stats();
        Ok(vec![
            ("population_start", ACCOUNTS as f64),
            ("population_end", last.accounts as f64),
            ("audits", audits.len() as f64),
            (
                "audit_pause_ms",
                audit_ns as f64 / 1e6 / audits.len().max(1) as f64,
            ),
            (
                "audit_ns_per_account",
                audit_ns as f64 / audited.max(1) as f64,
            ),
            ("ids_issued", self.ledger.issued() as f64),
            ("shed_total", health.shed_total as f64),
            ("overloaded_total", health.overloaded_total as f64),
            ("transitions", health.transitions.len() as f64),
        ])
    }
}
