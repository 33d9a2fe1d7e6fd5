//! A chaos-hardened sharded account ledger built on composed lock-free
//! operations — the "service on top" that the rest of this workspace
//! exists to make possible.
//!
//! # Shape
//!
//! The ledger is sharded for a thread-per-core deployment: account id `i`
//! homes on shard `i % shards`. Each [`Shard`] owns
//!
//! * a **cold tier** — an [`LfHashMap`] holding the bulk of the accounts,
//! * a **hot tier** — an [`LfSkipMap`] for accounts under ranged audit
//!   scrutiny (ordered `range` sweeps), and
//! * a **settlement lane** — an [`MsQueue`] of voucher tokens exchanged
//!   between shards.
//!
//! Intra-shard operations ([`Ledger::open`], [`Ledger::close`],
//! [`Ledger::balance`]) are ordinary lock-free map operations. Everything
//! that crosses a structure boundary is a *composed* operation from
//! `lfc-core`, atomic at a single linearization point:
//!
//! * [`Ledger::migrate`] — rehome an account to another shard
//!   (`move_keyed`, map → map),
//! * [`Ledger::promote`] / [`Ledger::demote`] — move an account between
//!   the cold and hot tiers of its shard (`move_keyed`, hash map ↔ skip
//!   map),
//! * [`Ledger::settle`] — exchange one voucher between two shards' lanes
//!   (`swap`, a four-entry composition), and
//! * [`Ledger::broadcast_notice`] — publish a control notice into several
//!   shards at once (`move_keyed_to_all`, all-or-nothing fan-out).
//!
//! # Finding an account
//!
//! Migration means an account can be in either tier of any shard, so a
//! lookup by id has up to `2 × shards` places to probe. A location
//! directory (one byte per account id, `(shard, tier) + 1`, 0 = unknown)
//! records where the ledger last saw each account: `open`, a `Moved`
//! migrate/promote/demote, and any probe-chain hit write it.
//! [`Ledger::balance`], [`Ledger::close`] and the lookup before every
//! migrate/promote/demote probe the recorded place first and fall back to
//! the chain (home shard's cold then hot tier, then the next shard) on a
//! miss. The byte is only a probe-order hint: no answer, `NotFound` and
//! "already there" included, is ever taken from it without a structural
//! probe, so a stale byte costs one extra probe. Control notices are never
//! recorded. The byte array grows in lazily allocated doubling segments,
//! and a segment whose allocation fails just leaves its ids without hints.
//!
//! # Degradation, not failure
//!
//! Composed operations allocate nothing that can fail. Every entry point
//! that allocates uses the fallible `try_*` structure surfaces, retries
//! with the shared jittered [`Backoff`], and *reports*
//! [`LedgerError::Overloaded`] or [`LedgerError::Shed`] instead of
//! blocking. The
//! [`health::Health`] ladder (`Normal → NoResize → Shed`) closes admission
//! and then mutation as live substrate signals deteriorate, and heals on
//! its own — see the [`health`] module docs.
//!
//! # Conservation and the quiesce protocol
//!
//! The ledger's invariant is **exact token conservation**:
//!
//! ```text
//! Σ account balances + Σ lane vouchers  ==  minted − burned
//! ```
//!
//! with no account id present twice. The auditor verifies it *while the
//! service is under chaos* (thread kills, stalls, injected allocation
//! failure) via a cooperative quiesce: [`Ledger::pause`] raises a flag and
//! waits for in-flight mutations to drain; every mutation holds an
//! in-flight ticket whose drop — **including the unwind of a killed
//! thread** — releases it. Once drained, the auditor adopts any corpses
//! (completing their decided operations) and sweeps. This is harness-level
//! cooperation: the *structures* never block, the pause is a property of
//! the service loop, and a thread that dies mid-operation can never wedge
//! it, because the abandonment unwind drops the ticket.
//!
//! Kill-safety of the money supply is by construction, not by sweeping:
//! the mint/burn counters are only adjusted *after* a structural success,
//! in windows that contain no fault-injection site, and every
//! token-carrying crossing is a single composed operation that helpers or
//! adopters complete on the dead thread's behalf. Control notices live in
//! a reserved key range ([`NOTICE_BASE`]) with zero value and are exempt
//! from the sums, so a notice caught mid-fan-out by a kill cannot
//! masquerade as lost money.

#![warn(missing_docs)]

mod directory;
pub mod health;

pub use health::{Health, HealthCfg, HealthStats, ServiceState, Transition};

use directory::Directory;
use lfc_alloc::AllocError;
use lfc_core::{move_keyed, move_keyed_to_all, swap, MoveOutcome, SwapOutcome, MAX_TARGETS};
use lfc_runtime::{camp_round, Backoff, BackoffCfg, CachePadded};
use lfc_structures::{LfHashMap, LfSkipMap, MsQueue};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Keys at or above this value are control notices, not accounts: value 0,
/// exempt from conservation sums, broadcast via the keyed fan-out.
pub const NOTICE_BASE: u64 = 1 << 62;

/// Why an operation was refused. Refusals are *answers*, not hangs: every
/// variant returns immediately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// The degradation ladder refused the operation (admission closed or
    /// the service is shedding). Counted in [`HealthStats::shed_total`].
    Shed,
    /// The retry budget was exhausted without a structural success
    /// (allocation failures, injected or genuine, on every attempt).
    Overloaded,
    /// No such account (or it vanished mid-operation to a concurrent
    /// close/migrate — retrying is the caller's choice).
    NotFound,
    /// The target already held the key; nothing was changed anywhere.
    Duplicate,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LedgerError::Shed => "shed by the degradation ladder",
            LedgerError::Overloaded => "retry budget exhausted",
            LedgerError::NotFound => "no such account",
            LedgerError::Duplicate => "key already present at target",
        };
        f.write_str(s)
    }
}

impl std::error::Error for LedgerError {}

/// What a [`Ledger::settle`] accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettleOutcome {
    /// One voucher from each lane changed places atomically.
    Exchanged,
    /// At least one lane had no voucher to offer (or `a == b`); nothing
    /// changed.
    LaneEmpty,
}

/// Which tier of which shard an account was found in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Cold,
    Hot,
}

/// Construction parameters for a [`Ledger`].
#[derive(Clone, Copy, Debug)]
pub struct LedgerCfg {
    /// Shard count (thread-per-core deployments use one per core).
    pub shards: usize,
    /// Allocation-failure retries before an operation reports
    /// [`LedgerError::Overloaded`].
    pub retries: u32,
    /// Shared backoff envelope for those retries (jittered per operation).
    pub backoff: BackoffCfg,
    /// Seed decorrelating the per-operation jitter streams.
    pub seed: u64,
    /// Degradation-ladder thresholds.
    pub health: HealthCfg,
}

impl Default for LedgerCfg {
    fn default() -> Self {
        LedgerCfg {
            shards: 4,
            retries: 8,
            backoff: BackoffCfg::exponential(250, 64_000),
            seed: 0x1ED6_E55E,
            health: HealthCfg::default(),
        }
    }
}

/// One shard: cold tier, hot tier, settlement lane.
struct Shard {
    cold: LfHashMap<u64, u64>,
    hot: LfSkipMap<u64, u64>,
    lane: MsQueue<u64>,
}

/// What one exact sweep of the quiesced service observed.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Live account records across both tiers of every shard.
    pub accounts: u64,
    /// Sum of those balances.
    pub account_tokens: u64,
    /// Sum of the vouchers sitting in settlement lanes.
    pub voucher_tokens: u64,
    /// Tokens ever minted ([`Ledger::open`], [`Ledger::fund_lane`]).
    pub minted: u64,
    /// Tokens ever burned ([`Ledger::close`]).
    pub burned: u64,
    /// Account ids found in more than one place — always empty unless
    /// atomicity was violated.
    pub duplicates: Vec<u64>,
}

impl AuditReport {
    /// Tokens that should be in circulation.
    pub fn circulating(&self) -> u64 {
        self.minted - self.burned
    }

    /// Tokens the sweep actually observed.
    pub fn observed(&self) -> u64 {
        self.account_tokens + self.voucher_tokens
    }

    /// Exact conservation: every minted token observed exactly once.
    pub fn conserved(&self) -> bool {
        self.observed() == self.circulating() && self.duplicates.is_empty()
    }
}

/// What one governor tick did.
#[derive(Clone, Copy, Debug)]
pub struct TendReport {
    /// Corpses whose operations and resources were adopted this tick.
    pub adopted: usize,
    /// The ladder rung after polling the substrate signals.
    pub state: ServiceState,
}

/// Operation classes the ladder distinguishes (module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum OpClass {
    /// Grows the service footprint: refused from `NoResize` up.
    Admission,
    /// Works over existing state: refused only when shedding.
    Mutate,
}

/// The sharded account service. See the module docs for the full shape.
pub struct Ledger {
    shards: Box<[Shard]>,
    /// Staging area for notices awaiting fan-out (never holds accounts).
    staging: LfHashMap<u64, u64>,
    /// Where each account was last seen (module docs, "Finding an
    /// account"): a probe-order hint, never an answer.
    directory: Directory,
    health: Health,
    minted: CachePadded<AtomicU64>,
    burned: CachePadded<AtomicU64>,
    next_id: CachePadded<AtomicU64>,
    paused: CachePadded<AtomicBool>,
    in_flight: CachePadded<AtomicU64>,
    jitter_nonce: AtomicU64,
    retries: u32,
    backoff: BackoffCfg,
    seed: u64,
}

/// In-flight ticket for the quiesce protocol: dropped on every exit path,
/// including the abandonment unwind of a killed thread.
struct OpTicket<'a>(&'a Ledger);

impl Drop for OpTicket<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Ledger {
    /// Build a ledger with `cfg.shards` empty shards.
    pub fn new(cfg: LedgerCfg) -> Self {
        assert!(cfg.shards > 0, "a ledger needs at least one shard");
        let shards = (0..cfg.shards)
            .map(|_| Shard {
                cold: LfHashMap::new(),
                hot: LfSkipMap::new(),
                lane: MsQueue::new(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ledger {
            shards,
            staging: LfHashMap::new(),
            directory: Directory::new(),
            health: Health::new(cfg.health),
            minted: CachePadded::new(AtomicU64::new(0)),
            burned: CachePadded::new(AtomicU64::new(0)),
            next_id: CachePadded::new(AtomicU64::new(0)),
            paused: CachePadded::new(AtomicBool::new(false)),
            in_flight: CachePadded::new(AtomicU64::new(0)),
            jitter_nonce: AtomicU64::new(0),
            retries: cfg.retries,
            backoff: cfg.backoff,
            seed: cfg.seed,
        }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Account ids handed out so far (bounds every account id the audit
    /// tallies).
    pub fn issued(&self) -> u64 {
        self.next_id.load(Ordering::SeqCst)
    }

    /// The degradation ladder (poll it from a governor, read its stats).
    pub fn health(&self) -> &Health {
        &self.health
    }

    fn shard_of(&self, id: u64) -> usize {
        (id as usize) % self.shards.len()
    }

    /// Fresh jitter stream for one operation's backoff. The shared-counter
    /// RMW only happens on the retry path — a healthy operation never
    /// touches it.
    fn jitter_seed(&self) -> u64 {
        self.seed
            ^ self
                .jitter_nonce
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Take an in-flight ticket, waiting out any quiesce first. The wait
    /// contains no fault-injection site, so a thread can never die holding
    /// half an entry.
    fn enter(&self) -> OpTicket<'_> {
        let mut i = 0u32;
        loop {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            if !self.paused.load(Ordering::SeqCst) {
                return OpTicket(self);
            }
            // Raced a pause: back out and wait it out off-ticket.
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            while self.paused.load(Ordering::SeqCst) {
                camp_round(i);
                i = i.wrapping_add(1);
            }
        }
    }

    /// Ladder gate. Refusals are counted and immediate — never a wait.
    fn admit(&self, class: OpClass) -> Result<(), LedgerError> {
        match (self.health.state(), class) {
            (ServiceState::Normal, _) => Ok(()),
            (ServiceState::NoResize, OpClass::Mutate) => Ok(()),
            _ => {
                self.health.note_shed();
                Err(LedgerError::Shed)
            }
        }
    }

    /// Shared retry loop: on [`AllocError`] report it to the ladder and
    /// retry under the policy of [`Self::with_retries`].
    fn retrying<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, AllocError>,
    ) -> Result<T, LedgerError> {
        self.with_retries(|| match attempt() {
            Ok(v) => Some(Ok(v)),
            Err(AllocError) => {
                self.health.note_alloc_error();
                None
            }
        })
    }

    /// The one retry policy: run `attempt` until it answers (`Some`),
    /// backing off with jitter between tries, and give up as `Overloaded`
    /// once the budget is spent. The backoff state is built lazily — a
    /// first-try answer allocates nothing and draws no randomness.
    fn with_retries<T>(
        &self,
        mut attempt: impl FnMut() -> Option<Result<T, LedgerError>>,
    ) -> Result<T, LedgerError> {
        let mut bo: Option<Backoff> = None;
        let mut tries = 0u32;
        loop {
            if let Some(answer) = attempt() {
                return answer;
            }
            tries += 1;
            if tries > self.retries {
                self.health.note_overloaded();
                return Err(LedgerError::Overloaded);
            }
            bo.get_or_insert_with(|| Backoff::new_jittered(self.backoff, self.jitter_seed()))
                .fail();
        }
    }

    /// Open a new account holding `amount` tokens; returns its id.
    ///
    /// Admission class: refused from `NoResize` up — new accounts are the
    /// only driver of hash-map growth in this service.
    pub fn open(&self, amount: u64) -> Result<u64, LedgerError> {
        let _t = self.enter();
        self.admit(OpClass::Admission)?;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let home = self.shard_of(id);
        let shard = &self.shards[home];
        let mut pair = (id, amount);
        self.retrying(|| match shard.cold.try_insert(pair.0, pair.1) {
            // Mint only after the structural success; there is no fault
            // site between the insert's linearization and this add, so a
            // kill cannot split them.
            Ok(true) => {
                self.minted.fetch_add(amount, Ordering::Relaxed);
                Ok(())
            }
            Ok(false) => unreachable!("fresh ids are never re-inserted"),
            Err((back, e)) => {
                pair = back;
                Err(e)
            }
        })?;
        self.remember(id, home, Tier::Cold);
        Ok(id)
    }

    /// Close an account, burning its balance; returns what was burned.
    pub fn close(&self, id: u64) -> Result<u64, LedgerError> {
        let _t = self.enter();
        self.admit(OpClass::Mutate)?;
        // Removes are allocation-free: no retry budget needed. Burn only
        // after the structural success (same kill-window argument as
        // `open`).
        let (_, _, v) = self
            .find(id, |s, tier| match tier {
                Tier::Cold => s.cold.remove(&id),
                Tier::Hot => s.hot.remove(&id),
            })
            .ok_or(LedgerError::NotFound)?;
        self.burned.fetch_add(v, Ordering::Relaxed);
        Ok(v)
    }

    /// Read an account's balance. Reads are served on every rung, never
    /// wait out a quiesce, and cannot fail allocation — total availability.
    pub fn balance(&self, id: u64) -> Result<u64, LedgerError> {
        self.find(id, |s, tier| match tier {
            Tier::Cold => s.cold.get(&id),
            Tier::Hot => s.hot.get(&id),
        })
        .map(|(_, _, v)| v)
        .ok_or(LedgerError::NotFound)
    }

    /// Where `id` currently lives.
    fn locate(&self, id: u64) -> Option<(usize, Tier)> {
        self.find(id, |s, tier| {
            match tier {
                Tier::Cold => s.cold.contains(&id),
                Tier::Hot => s.hot.contains(&id),
            }
            .then_some(())
        })
        .map(|(si, tier, ())| (si, tier))
    }

    /// Run `probe` on the tier where the directory last saw `id`, then, on
    /// a miss, along the chain: its home shard's cold and hot tiers, then
    /// the next shard's, and so on (migration means an account can be
    /// anywhere). Returns the first place `probe` answered and its answer;
    /// a chain hit is recorded for the next lookup.
    fn find<R>(
        &self,
        id: u64,
        probe: impl Fn(&Shard, Tier) -> Option<R>,
    ) -> Option<(usize, Tier, R)> {
        if let Some((si, tier)) = self.recorded(id) {
            if let Some(r) = probe(&self.shards[si], tier) {
                return Some((si, tier, r));
            }
        }
        let home = self.shard_of(id);
        let n = self.shards.len();
        for k in 0..n {
            let si = (home + k) % n;
            for tier in [Tier::Cold, Tier::Hot] {
                if let Some(r) = probe(&self.shards[si], tier) {
                    self.remember(id, si, tier);
                    return Some((si, tier, r));
                }
            }
        }
        None
    }

    /// The directory's `(shard, tier)` for `id`, if it holds one that
    /// names a shard of this ledger.
    fn recorded(&self, id: u64) -> Option<(usize, Tier)> {
        let code = usize::from(self.directory.get(id)).checked_sub(1)?;
        let tier = if code & 1 == 0 { Tier::Cold } else { Tier::Hot };
        (code / 2 < self.shards.len()).then_some((code / 2, tier))
    }

    /// Record that `id` was just seen in `tier` of shard `si`. Notices are
    /// not accounts and are never recorded; a shard index too large for
    /// the byte records "unknown".
    fn remember(&self, id: u64, si: usize, tier: Tier) {
        if id < NOTICE_BASE {
            let code = u8::try_from(2 * si + tier as usize + 1).unwrap_or(0);
            self.directory.set(id, code);
        }
    }

    /// Rehome an account into `dst`'s cold tier — one composed keyed move,
    /// atomic at a single linearization point: no observer ever sees the
    /// account in two shards or in none. Already resident in `dst` (either
    /// tier) is success with nothing to move.
    pub fn migrate(&self, id: u64, dst: usize) -> Result<(), LedgerError> {
        let dst = dst % self.shards.len();
        self.relocate(id, |si, _| (si != dst).then_some((dst, Tier::Cold)))
    }

    /// Move an account from its shard's cold tier into the hot tier
    /// (hash map → skip map, one composed keyed move).
    pub fn promote(&self, id: u64) -> Result<(), LedgerError> {
        self.relocate(id, |si, tier| {
            (tier != Tier::Hot).then_some((si, Tier::Hot))
        })
    }

    /// Move an account from the hot tier back to cold (skip map → hash
    /// map, one composed keyed move).
    pub fn demote(&self, id: u64) -> Result<(), LedgerError> {
        self.relocate(id, |si, tier| {
            (tier != Tier::Cold).then_some((si, Tier::Cold))
        })
    }

    /// The one relocate loop: locate `id`, ask `dest` where it should go
    /// from there (`None`: it already is), move it with one composed keyed
    /// move, and remember where it went.
    fn relocate(
        &self,
        id: u64,
        dest: impl Fn(usize, Tier) -> Option<(usize, Tier)>,
    ) -> Result<(), LedgerError> {
        let _t = self.enter();
        self.admit(OpClass::Mutate)?;
        self.with_retries(|| {
            let Some((si, tier)) = self.locate(id) else {
                return Some(Err(LedgerError::NotFound));
            };
            let Some((di, want)) = dest(si, tier) else {
                return Some(Ok(()));
            };
            let (src, dst) = (&self.shards[si], &self.shards[di]);
            let r = match (tier, want) {
                (Tier::Cold, Tier::Cold) => move_keyed(&src.cold, &id, &dst.cold),
                (Tier::Cold, Tier::Hot) => move_keyed(&src.cold, &id, &dst.hot),
                (Tier::Hot, Tier::Cold) => move_keyed(&src.hot, &id, &dst.cold),
                (Tier::Hot, Tier::Hot) => move_keyed(&src.hot, &id, &dst.hot),
            };
            match r {
                MoveOutcome::Moved | MoveOutcome::WouldAlias => {
                    self.remember(id, di, want);
                    Some(Ok(()))
                }
                // Lost a race to a concurrent migrate/close: re-locate.
                // Burns a retry so contended ping-pong still terminates
                // (as `Overloaded`, an honest answer under that load).
                MoveOutcome::SourceEmpty => None,
                // Ids are unique, so a rejecting target means the caller
                // raced a duplicate-creating bug; the audit will scream.
                MoveOutcome::TargetRejected => Some(Err(LedgerError::Duplicate)),
            }
        })
    }

    /// Seed shard `s`'s settlement lane with a voucher worth `amount`
    /// (mints it). Admission class: it grows the footprint.
    pub fn fund_lane(&self, s: usize, amount: u64) -> Result<(), LedgerError> {
        let _t = self.enter();
        self.admit(OpClass::Admission)?;
        let lane = &self.shards[s % self.shards.len()].lane;
        let mut v = amount;
        self.retrying(|| match lane.try_enqueue(v) {
            Ok(()) => {
                self.minted.fetch_add(amount, Ordering::Relaxed);
                Ok(())
            }
            Err((back, e)) => {
                v = back;
                Err(e)
            }
        })
    }

    /// Exchange one voucher between shards `a` and `b` — a four-entry
    /// composed swap: no observer ever sees zero or two of either voucher.
    pub fn settle(&self, a: usize, b: usize) -> Result<SettleOutcome, LedgerError> {
        let _t = self.enter();
        self.admit(OpClass::Mutate)?;
        let n = self.shards.len();
        let (a, b) = (a % n, b % n);
        Ok(match swap(&self.shards[a].lane, &self.shards[b].lane) {
            SwapOutcome::Swapped => SettleOutcome::Exchanged,
            // `swap(x, x)` reports WouldAlias; distinct lanes never do.
            SwapOutcome::FirstEmpty
            | SwapOutcome::SecondEmpty
            | SwapOutcome::Rejected
            | SwapOutcome::WouldAlias => SettleOutcome::LaneEmpty,
        })
    }

    /// Publish control notice `tag` into the cold tier of the first
    /// `min(shards, MAX_TARGETS)` shards, all-or-nothing: the notice is
    /// staged, then fanned out in **one** composed multi-target move, so a
    /// kill mid-broadcast leaves it either fully staged or fully
    /// delivered — never partially. Returns how many shards received it.
    ///
    /// Fan-out width is bounded by the commit engine's [`MAX_TARGETS`];
    /// campaigns that need every shard notified use at most that many
    /// shards.
    pub fn broadcast_notice(&self, tag: u64) -> Result<usize, LedgerError> {
        assert!(tag < NOTICE_BASE, "tag must leave the notice bit clear");
        let _t = self.enter();
        self.admit(OpClass::Mutate)?;
        let key = NOTICE_BASE | tag;
        // Stage (idempotent: an already-staged notice — e.g. re-published
        // after a kill between stage and fan-out — is simply fanned out).
        let mut staged = false;
        self.retrying(|| match self.staging.try_insert(key, 0) {
            Ok(_) => {
                staged = true;
                Ok(())
            }
            Err((_, e)) => Err(e),
        })?;
        debug_assert!(staged);
        let n = self.shards.len().min(MAX_TARGETS);
        let dsts: Vec<&LfHashMap<u64, u64>> = self.shards[..n].iter().map(|s| &s.cold).collect();
        match move_keyed_to_all(&self.staging, &key, &dsts) {
            // SourceEmpty: a concurrent broadcaster of the same tag
            // completed the fan-out for us — helping, not failure.
            MoveOutcome::Moved | MoveOutcome::SourceEmpty => Ok(n),
            MoveOutcome::TargetRejected => Err(LedgerError::Duplicate),
            MoveOutcome::WouldAlias => unreachable!("staging is never a broadcast target"),
        }
    }

    /// Collect (remove) notice `tag` everywhere it landed; returns how
    /// many copies were collected. Served on every rung — notice cleanup
    /// is control-plane work that helps the service heal.
    pub fn collect_notice(&self, tag: u64) -> usize {
        let _t = self.enter();
        let key = NOTICE_BASE | tag;
        let mut n = 0;
        if self.staging.remove(&key).is_some() {
            n += 1;
        }
        for s in self.shards.iter() {
            if s.cold.remove(&key).is_some() {
                n += 1;
            }
        }
        n
    }

    /// Quiesce: refuse new mutation entries and wait for in-flight ones to
    /// drain. Killed threads cannot wedge this — their unwind drops the
    /// in-flight ticket. Reads keep flowing.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
        let mut i = 0u32;
        while self.in_flight.load(Ordering::SeqCst) != 0 {
            camp_round(i);
            i = i.wrapping_add(1);
        }
    }

    /// Lift a [`Ledger::pause`].
    pub fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
    }

    /// One exact sweep. **Call only while quiesced** (after
    /// [`Ledger::pause`], ideally via [`Ledger::quiesced_audit`]): with
    /// mutations drained and corpses adopted the sums are exact, not
    /// approximate. Every tier is enumerated with one sweep of its chain
    /// ([`LfHashMap::to_vec`] for the cold tiers, [`LfSkipMap::to_vec`]
    /// for the hot ones); control notices (keys at or above
    /// [`NOTICE_BASE`]) are not accounts and are skipped.
    pub fn audit(&self) -> AuditReport {
        let bound = self.next_id.load(Ordering::SeqCst);
        let mut seen = vec![0u8; bound as usize];
        let mut accounts = 0u64;
        let mut account_tokens = 0u64;
        let mut duplicates = Vec::new();
        let mut tally = |id: u64, v: u64| {
            let slot = &mut seen[id as usize];
            *slot += 1;
            if *slot == 1 {
                accounts += 1;
                account_tokens += v;
            } else {
                duplicates.push(id);
            }
        };
        for s in self.shards.iter() {
            for (k, v) in s.cold.to_vec().into_iter().chain(s.hot.to_vec()) {
                if k < NOTICE_BASE {
                    tally(k, v);
                }
            }
        }
        // Lanes: drain, sum, restore. Quiesced, so nobody races the lane;
        // the re-enqueue recycles the just-freed nodes.
        let mut voucher_tokens = 0u64;
        for s in self.shards.iter() {
            let mut held = Vec::new();
            while let Some(v) = s.lane.dequeue() {
                voucher_tokens += v;
                held.push(v);
            }
            for v in held {
                s.lane.enqueue(v);
            }
        }
        AuditReport {
            accounts,
            account_tokens,
            voucher_tokens,
            minted: self.minted.load(Ordering::SeqCst),
            burned: self.burned.load(Ordering::SeqCst),
            duplicates,
        }
    }

    /// The full auditor protocol: pause, adopt every corpse (completing
    /// any operation a dead thread left decided-but-unfinished), sweep
    /// exactly, resume. The calling thread is fault-shielded for the
    /// duration (and left unshielded after), so armed fault sites never
    /// fire for the auditor itself.
    pub fn quiesced_audit(&self) -> AuditReport {
        lfc_runtime::fault::shield_thread(true);
        self.pause();
        {
            let g = lfc_hazard::pin();
            let mut rounds = 0;
            while lfc_runtime::fault::corpse_count() > 0 && rounds < 1024 {
                lfc_dcas::adopt_dead_threads(&g);
                rounds += 1;
            }
        }
        let r = self.audit();
        self.resume();
        lfc_runtime::fault::shield_thread(false);
        r
    }

    /// One governor tick: adopt any corpses, then poll the ladder.
    pub fn tend(&self) -> TendReport {
        let adopted = {
            let g = lfc_hazard::pin();
            lfc_dcas::adopt_dead_threads(&g)
        };
        TendReport {
            adopted,
            state: self.health.poll(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_ledger(shards: usize) -> Ledger {
        Ledger::new(LedgerCfg {
            shards,
            ..LedgerCfg::default()
        })
    }

    /// Every place `id` is, found by probing both tiers of every shard:
    /// the structural truth the directory must never override.
    fn places(l: &Ledger, id: u64) -> Vec<(usize, Tier)> {
        let mut at = Vec::new();
        for (si, s) in l.shards.iter().enumerate() {
            if s.cold.contains(&id) {
                at.push((si, Tier::Cold));
            }
            if s.hot.contains(&id) {
                at.push((si, Tier::Hot));
            }
        }
        at
    }

    /// The directory byte naming `tier` of shard `si`.
    fn code(si: usize, tier: Tier) -> u8 {
        u8::try_from(2 * si + tier as usize + 1).unwrap()
    }

    #[test]
    fn a_wrong_hint_never_changes_an_answer() {
        const SHARDS: usize = 3;
        let a = 4; // homes on shard 1
        type Step = fn(&Ledger, u64) -> Result<u64, LedgerError>;
        let script: &[Step] = &[
            |l, a| l.balance(a),
            |l, a| l.promote(a).map(|()| 0),
            |l, a| l.balance(a),
            |l, a| l.promote(a).map(|()| 0),
            |l, a| l.migrate(a, 2).map(|()| 0),
            |l, a| l.migrate(a, 2).map(|()| 0),
            |l, a| l.demote(a).map(|()| 0),
            |l, a| l.promote(a).map(|()| 0),
            |l, a| l.migrate(a, 0).map(|()| 0),
            |l, a| l.balance(a),
            |l, a| l.demote(a).map(|()| 0),
            |l, a| l.promote(a).map(|()| 0),
            |l, a| l.close(a),
            |l, a| l.balance(a),
            |l, a| l.migrate(a, 1).map(|()| 0),
            |l, a| l.promote(a).map(|()| 0),
            |l, a| l.demote(a).map(|()| 0),
            |l, a| l.close(a),
        ];
        // Every step runs once with each byte in front of it, so it sees
        // every wrong `(shard, tier)` (and two bytes naming no shard). The
        // blind twin runs it with the byte cleared.
        for poison in (1..=code(SHARDS - 1, Tier::Hot)).chain([code(SHARDS, Tier::Cold), 255]) {
            let (hinted, blind) = (quiet_ledger(SHARDS), quiet_ledger(SHARDS));
            for l in [&hinted, &blind] {
                for amount in 10..16 {
                    l.open(amount).unwrap();
                }
            }
            for (i, step) in script.iter().enumerate() {
                hinted.directory.set(a, poison);
                blind.directory.set(a, 0);
                let (got, want) = (step(&hinted, a), step(&blind, a));
                assert_eq!(got, want, "step {i} with byte {poison}");
                let at = places(&hinted, a);
                assert_eq!(at, places(&blind, a), "step {i} with byte {poison}");
                assert!(at.len() <= 1, "step {i} duplicated the account: {at:?}");
            }
            assert_eq!(hinted.balance(a), Err(LedgerError::NotFound));
            let r = hinted.quiesced_audit();
            assert!(r.conserved(), "{r:?}");
            assert_eq!(r.burned, 14);
        }
    }

    #[test]
    fn a_hint_at_the_destination_does_not_stop_a_migrate() {
        let l = quiet_ledger(4);
        let a = l.open(7).unwrap();
        assert_eq!(l.shard_of(a), 0);
        // Cold at home, then hot at home: each time the byte claims the
        // account already sits at the destination, in either tier.
        for (from, claim) in [(Tier::Cold, Tier::Cold), (Tier::Hot, Tier::Hot)] {
            l.migrate(a, 0).unwrap();
            if from == Tier::Hot {
                l.promote(a).unwrap();
            }
            assert_eq!(places(&l, a), vec![(0, from)]);
            l.directory.set(a, code(2, claim));
            assert_eq!(l.migrate(a, 2), Ok(()));
            assert_eq!(places(&l, a), vec![(2, Tier::Cold)], "the move happened");
        }
        assert_eq!(l.close(a), Ok(7));
        l.directory.set(a, code(2, Tier::Cold));
        assert_eq!(l.migrate(a, 2), Err(LedgerError::NotFound));
        assert_eq!(l.balance(a), Err(LedgerError::NotFound));
    }

    #[test]
    fn writers_record_where_they_leave_an_account() {
        let l = quiet_ledger(4);
        let a = l.open(5).unwrap();
        let b = l.open(6).unwrap();
        assert_eq!(l.recorded(a), Some((0, Tier::Cold)));
        l.migrate(a, 3).unwrap();
        assert_eq!(l.recorded(a), Some((3, Tier::Cold)));
        l.promote(a).unwrap();
        assert_eq!(l.recorded(a), Some((3, Tier::Hot)));
        l.demote(a).unwrap();
        assert_eq!(l.recorded(a), Some((3, Tier::Cold)));
        // A lookup that had to walk the chain records its hit.
        l.directory.set(b, 0);
        assert_eq!(l.balance(b), Ok(6));
        assert_eq!(l.recorded(b), Some((1, Tier::Cold)));
    }

    #[test]
    fn directory_index_math_holds_at_segment_boundaries_and_far_above_2_pow_32() {
        use directory::{coords, seg_len};
        // Segments tile the id space: each starts where the last ended,
        // its last id is its last slot, and the last one ends at u64::MAX.
        let mut start = 0u64;
        let mut k = 0;
        loop {
            let len = seg_len(k);
            assert_eq!(coords(start), (k, 0));
            assert_eq!(coords(start + (len - 1)), (k, len - 1));
            match start.checked_add(len) {
                Some(next) => start = next,
                None => {
                    assert_eq!(start + (len - 1), u64::MAX);
                    break;
                }
            }
            k += 1;
        }
        assert_eq!(k, 58);
        assert_eq!(coords(63), (0, 63));
        assert_eq!(coords(64), (1, 0));
        assert_eq!(coords(127), (1, 63));
        assert_eq!(coords(128), (2, 0));
        assert_eq!(coords((1 << 32) - 1), (26, (1 << 31) - 1));
        assert_eq!(coords(1 << 32), (27, 0));
        assert_eq!(coords((1 << 40) + 5), (35, 5));
        assert_eq!(coords(NOTICE_BASE - 1), (56, (1 << 61) - 1));

        // Bytes round-trip on both sides of each boundary and touch no
        // neighbour.
        let d = Directory::new();
        let ids = [0, 63, 64, 127, 128, 255, 256, 4095, 4096];
        for (i, &id) in ids.iter().enumerate() {
            d.set(id, i as u8 + 1);
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(d.get(id), i as u8 + 1, "id {id}");
        }
        for id in [1, 62, 65, 126, 129, 254, 257, 4094, 4097] {
            assert_eq!(d.get(id), 0, "id {id}");
        }
        // Far above 2^32 a read finds no segment and allocates none; a
        // segment the allocator refuses (2^62 bytes) or no `Layout` can
        // describe (2^63) leaves its ids without hints, and is no error.
        assert_eq!(d.get((1 << 40) + 5), 0);
        d.set((1 << 62) + 1, 9);
        assert_eq!(d.get((1 << 62) + 1), 0);
        d.set(u64::MAX, 9);
        assert_eq!(d.get(u64::MAX), 0);
        assert_eq!(d.get(4096), 9, "earlier hints survive refused segments");
    }

    #[test]
    fn notices_are_never_recorded() {
        let l = quiet_ledger(4);
        let a = l.open(3).unwrap();
        assert_eq!(l.broadcast_notice(5), Ok(4));
        let key = NOTICE_BASE | 5;
        assert_eq!(l.balance(key), Ok(0), "the chain finds a copy");
        assert_eq!(l.promote(key), Ok(()));
        assert_eq!(l.close(key), Ok(0));
        assert_eq!(l.directory.get(key), 0);
        assert_eq!(l.recorded(a), Some((0, Tier::Cold)));
        assert!(l.quiesced_audit().conserved());
    }

    #[test]
    fn open_move_settle_close_conserves() {
        let l = quiet_ledger(4);
        let a = l.open(100).unwrap();
        let b = l.open(250).unwrap();
        assert_eq!(l.balance(a), Ok(100));
        assert_eq!(l.balance(b), Ok(250));

        l.fund_lane(0, 7).unwrap();
        l.fund_lane(1, 9).unwrap();
        assert_eq!(l.settle(0, 1), Ok(SettleOutcome::Exchanged));
        assert_eq!(l.settle(2, 3), Ok(SettleOutcome::LaneEmpty));

        l.migrate(a, l.shard_of(a) + 1).unwrap();
        assert_eq!(l.balance(a), Ok(100), "migration preserves the balance");
        l.promote(b).unwrap();
        assert_eq!(l.balance(b), Ok(250), "promotion preserves the balance");
        l.promote(b).unwrap(); // idempotent: already hot

        let r = l.quiesced_audit();
        assert!(r.conserved(), "{r:?}");
        assert_eq!(r.accounts, 2);
        assert_eq!(r.account_tokens, 350);
        assert_eq!(r.voucher_tokens, 16);

        assert_eq!(l.close(b), Ok(250));
        assert_eq!(l.close(b), Err(LedgerError::NotFound));
        let r = l.quiesced_audit();
        assert!(r.conserved(), "{r:?}");
        assert_eq!(r.burned, 250);
    }

    #[test]
    fn notices_fan_out_atomically_and_stay_off_the_books() {
        let l = quiet_ledger(4);
        let a = l.open(41).unwrap();
        assert_eq!(l.broadcast_notice(3), Ok(4));
        let r = l.quiesced_audit();
        assert!(r.conserved(), "notices must not count as tokens: {r:?}");
        assert_eq!(r.accounts, 1);
        assert_eq!(l.collect_notice(3), 4, "one copy per shard");
        assert_eq!(l.collect_notice(3), 0);
        assert_eq!(l.balance(a), Ok(41));
    }

    #[test]
    fn shed_refuses_mutations_but_serves_reads() {
        let cfg = LedgerCfg {
            health: HealthCfg {
                soft_alloc_errors: 1,
                hard_alloc_errors: 2,
                heal_polls: 1,
                ..HealthCfg::default()
            },
            ..LedgerCfg::default()
        };
        let l = Ledger::new(cfg);
        let a = l.open(5).unwrap();

        // Drive the ladder to Shed by reporting a hot error window.
        l.health().note_alloc_error();
        l.health().note_alloc_error();
        assert_eq!(l.health().poll(), ServiceState::Shed);

        assert_eq!(l.open(1), Err(LedgerError::Shed));
        assert_eq!(l.close(a), Err(LedgerError::Shed));
        assert_eq!(l.settle(0, 1), Err(LedgerError::Shed));
        assert_eq!(l.balance(a), Ok(5), "reads survive shedding");
        assert!(l.health().stats().shed_total >= 3);

        // Heal: one rung per clean poll at heal_polls = 1.
        assert_eq!(l.health().poll(), ServiceState::NoResize);
        assert_eq!(l.open(1), Err(LedgerError::Shed), "admission still closed");
        assert_eq!(l.close(a), Ok(5), "mutation over existing state admitted");
        assert_eq!(l.health().poll(), ServiceState::Normal);
        assert!(l.open(1).is_ok());
    }

    #[test]
    fn pause_drains_and_audit_is_exact_under_it() {
        let l = std::sync::Arc::new(quiet_ledger(2));
        for _ in 0..64 {
            l.open(1).unwrap();
        }
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for w in 0..3 {
            let l = l.clone();
            let stop = stop.clone();
            workers.push(std::thread::spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let _ = l.migrate(i % 64, (i as usize + 1) % 2);
                    i += 1;
                }
            }));
        }
        for _ in 0..20 {
            let r = l.quiesced_audit();
            assert!(r.conserved(), "audit under live migration traffic: {r:?}");
            assert_eq!(r.accounts, 64);
            assert_eq!(r.account_tokens, 64);
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
    }
}
