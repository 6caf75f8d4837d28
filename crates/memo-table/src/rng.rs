//! A tiny deterministic PRNG (SplitMix64) for fault injection.
//!
//! The repo's reproducibility rule: every stochastic input is derived from
//! an explicit seed through SplitMix64 so each experiment is bit-exact
//! across runs and platforms. `memo-imaging` carries the same generator
//! (the same `split`, `next_u64`, `next_f64` and multiply-shift
//! `next_below`) for synthetic images, and this copy serves the
//! [`crate::FaultInjector`] and property tests. Neither crate depends on
//! the other. Merging the copies needs a new dependency edge between two
//! crates the benchmark package builds, and that edge rewrites
//! `bench/Cargo.lock`, so the merge waits for a change that may edit the
//! benchmark.

/// SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use memo_table::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent generator for a labelled sub-stream.
    #[must_use]
    pub fn split(&self, label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for byte in label.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SplitMix64 { state: self.state ^ h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below requires a non-empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_stable() {
        let root = SplitMix64::new(1);
        let mut x1 = root.split("faults");
        let mut x2 = root.split("faults");
        let mut y = root.split("tags");
        let v = x1.next_u64();
        assert_eq!(v, x2.next_u64());
        assert_ne!(v, y.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
    }
}
