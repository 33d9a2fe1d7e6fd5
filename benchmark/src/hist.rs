//! Latency histogram for the benchmark's sampled per-op timings.
//!
//! `lfc_bench::hist::Hist` reports a quantile as the upper edge of a
//! 1/16-wide bucket, so a p50 reads exactly the same on every run and one
//! bucket step is 6 % — more than half of the p50 bound. This one keeps
//! 64 sub-buckets per power of two (≤ 1.6 % wide) and interpolates by
//! rank inside the bucket, so quantiles move continuously. It also
//! refuses a percentile the sample cannot support.

const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 min) clamp into the last bucket.
const TOP_BITS: u32 = 40;
const BUCKETS: usize = (TOP_BITS - SUB_BITS + 1) as usize * SUBS;

/// Samples a quantile must leave beyond it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Log-linear histogram of nanosecond samples.
#[derive(Clone)]
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        Self::new()
    }
}

fn index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let v = v.min((1 << TOP_BITS) - 1);
    let top = 63 - v.leading_zeros();
    let sub = ((v >> (top - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (top - SUB_BITS + 1) as usize * SUBS + sub
}

/// Lower edge and width of bucket `idx`.
fn bounds(idx: usize) -> (f64, f64) {
    let major = idx / SUBS;
    let sub = (idx % SUBS) as u64;
    if major == 0 {
        return (sub as f64, 1.0);
    }
    let width = 1u64 << (major - 1);
    (((SUBS as u64 + sub) * width) as f64, width as f64)
}

impl LatHist {
    pub fn new() -> Self {
        LatHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The value at quantile `q` in `(0, 1)`, interpolated by rank inside
    /// its bucket; `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it (the sample does not support that percentile).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..1.0).contains(&q) || (self.n as f64) * (1.0 - q) < MIN_BEYOND {
            return None;
        }
        let target = q * self.n as f64;
        let mut before = 0.0;
        for (idx, &c) in self.counts.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && before + c >= target {
                let (lo, width) = bounds(idx);
                return Some(lo + width * ((target - before) / c));
            }
            before += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut prev_end = 0.0;
        for idx in 0..BUCKETS {
            let (lo, w) = bounds(idx);
            assert_eq!(lo, prev_end, "bucket {idx} starts where the last ended");
            assert_eq!(index(lo as u64), idx);
            assert_eq!(index((lo + w) as u64 - 1), idx);
            prev_end = lo + w;
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_interpolate_within_two_percent() {
        let mut h = LatHist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.quantile(q).unwrap();
            assert!((got - want).abs() / want < 0.02, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let mut h = LatHist::new();
        for v in 0..999u64 {
            h.record(100 + v);
        }
        assert!(h.quantile(0.5).is_some());
        assert!(
            h.quantile(0.99).is_none(),
            "999 samples leave 9.99 beyond p99"
        );
        h.record(5_000);
        assert!(h.quantile(0.99).is_some(), "1000 samples leave exactly ten");
        assert!(h.quantile(0.999).is_none());
        assert!(LatHist::new().quantile(0.5).is_none());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut u) = (LatHist::new(), LatHist::new(), LatHist::new());
        for v in 0..5_000u64 {
            let x = (v * 2_654_435_761) % 1_000_003;
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            u.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), u.count());
        assert_eq!(a.quantile(0.9), u.quantile(0.9));
    }
}
