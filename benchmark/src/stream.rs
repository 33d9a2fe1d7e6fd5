//! Seeded inputs: the Zipf sampler and the per-thread op streams.
//!
//! A stream is generated before the window and replayed cyclically inside
//! it, so the measured loop pays one array read per op instead of an RNG
//! draw and a `powf`. Ops are laid out in shuffled blocks that each hold
//! the workload's exact mix: proportions are exact, and paired kinds
//! (enqueue/dequeue, open/close, fan-out/refill) can drift apart by at
//! most one block, so populations stay stationary by construction and no
//! op ever finds its source drained.

use lfc_runtime::SmallRng;

/// Stream length per thread (a power of two; 4 MiB of `u32`).
pub const STREAM_LEN: usize = 1 << 20;

const KIND_SHIFT: u32 = 28;
const AUX_SHIFT: u32 = 24;
const KEY_MASK: u32 = (1 << AUX_SHIFT) - 1;

/// One stream entry: op kind (4 bits), four spare random bits, key (24 bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Code(pub u32);

impl Code {
    pub fn new(kind: u8, aux: u8, key: u32) -> Code {
        debug_assert!(kind < 16 && aux < 16 && key <= KEY_MASK);
        Code((kind as u32) << KIND_SHIFT | (aux as u32) << AUX_SHIFT | key)
    }
    /// A bare op kind (periodic ops injected outside the stream).
    pub fn of_kind(kind: u8) -> Code {
        Code::new(kind, 0, 0)
    }
    #[inline]
    pub fn kind(self) -> u8 {
        (self.0 >> KIND_SHIFT) as u8
    }
    #[inline]
    pub fn aux(self) -> u8 {
        (self.0 >> AUX_SHIFT) as u8 & 15
    }
    #[inline]
    pub fn key(self) -> u32 {
        self.0 & KEY_MASK
    }
}

/// How a workload's keys are drawn.
#[derive(Clone, Copy, Debug)]
pub enum Keys {
    /// The op takes no key.
    None,
    /// Uniform over `0..n`.
    Uniform(u32),
    /// Scrambled Zipf, s = 0.99, over `0..n` (`n` a power of two).
    Zipf(u32),
}

fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipfian ranks `0..n` in O(1) per draw (Gray et al., "Quickly
/// generating billion-record synthetic databases"; the YCSB generator).
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Zipf {
        let zeta = |m: u32| (1..=m).map(|k| (k as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let n = n as f64;
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        let u = unit(rng);
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let r = self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha);
            (r as u32).min(self.n as u32 - 1)
        }
    }
}

/// A bijection on `0..n` (`n` a power of two) that scatters the hot Zipf
/// ranks over the key space, so hot keys do not share buckets or shards.
pub fn scramble(rank: u32, n: u32) -> u32 {
    debug_assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    if bits == 0 {
        return 0;
    }
    let mask = n - 1;
    let half = bits.div_ceil(2);
    let mut x = rank;
    // Each step is invertible modulo 2^bits: odd multiply, xor-shift-right.
    x = x.wrapping_mul(0x9E37_79B1) & mask;
    x ^= x >> half;
    x = x.wrapping_mul(0x85EB_CA6B) & mask;
    x ^= x >> half;
    x
}

/// The op stream of thread `thread`: `STREAM_LEN` codes in shuffled blocks
/// that each hold `mix` exactly (`(kind, count)` pairs).
pub fn build(seed: u64, thread: usize, mix: &[(u8, u32)], keys: Keys) -> Vec<Code> {
    let block: Vec<u8> = mix
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n as usize))
        .collect();
    assert!(!block.is_empty(), "an empty mix has no ops");
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (thread as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let zipf = match keys {
        Keys::Zipf(n) => Some(Zipf::new(n, 0.99)),
        _ => None,
    };
    let mut out = Vec::with_capacity(STREAM_LEN + block.len());
    let mut shuffled = block.clone();
    while out.len() < STREAM_LEN {
        shuffled.copy_from_slice(&block);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &kind in &shuffled {
            let key = match keys {
                Keys::None => 0,
                Keys::Uniform(n) => rng.below(n as u64) as u32,
                Keys::Zipf(n) => scramble(zipf.as_ref().expect("built above").sample(&mut rng), n),
            };
            out.push(Code::new(kind, rng.below(16) as u8, key));
        }
    }
    // Whole blocks only, so a replay of the stream keeps the mix exact;
    // the replay index wraps at `len`, not at a power of two.
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: &[(u8, u32)] = &[(0, 10), (1, 4), (2, 2)];

    #[test]
    fn equal_seeds_give_equal_streams_and_different_seeds_differ() {
        let a = build(7, 0, MIX, Keys::Zipf(1 << 16));
        assert_eq!(a, build(7, 0, MIX, Keys::Zipf(1 << 16)));
        assert_ne!(a, build(8, 0, MIX, Keys::Zipf(1 << 16)));
        assert_ne!(
            a,
            build(7, 1, MIX, Keys::Zipf(1 << 16)),
            "threads get their own stream"
        );
    }

    #[test]
    fn every_block_holds_the_exact_mix() {
        let s = build(3, 0, MIX, Keys::Uniform(100));
        assert_eq!(s.len() % 16, 0);
        for block in s.chunks(16) {
            for &(kind, n) in MIX {
                assert_eq!(
                    block.iter().filter(|c| c.kind() == kind).count(),
                    n as usize
                );
            }
            assert!(block.iter().all(|c| c.key() < 100));
        }
    }

    #[test]
    fn zipf_is_seeded_skewed_and_in_range() {
        let z = Zipf::new(1 << 16, 0.99);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.iter().all(|&r| r < 1 << 16));
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        let tail = a.iter().filter(|&&r| r >= 1 << 15).count() as f64 / a.len() as f64;
        assert!(
            (0.05..0.15).contains(&top),
            "rank 0 takes ~1/zeta(n) = 8 %: {top}"
        );
        assert!(tail < 0.10, "the upper half of the ranks is cold: {tail}");
    }

    #[test]
    fn scramble_is_a_bijection() {
        for n in [1u32, 2, 4, 1 << 10, 1 << 16] {
            let mut seen = vec![false; n as usize];
            for r in 0..n {
                let k = scramble(r, n) as usize;
                assert!(!seen[k], "n={n}: {r} collides");
                seen[k] = true;
            }
        }
    }
}
