//! Soft-error fault injection and table protection policies.
//!
//! The MEMO-TABLE's core promise is *transparency*: a hit aborts the real
//! computation unit and substitutes a stored result. A single corrupted
//! SRAM entry — a soft-error bit flip or a stuck-at defect — therefore
//! silently corrupts program output unless the table protects its payload.
//! This module models both sides:
//!
//! * [`FaultInjector`] — a deterministic (SplitMix64-seeded) error process
//!   that flips bits in stored values and tags and models per-slot stuck-at
//!   defects, at configurable rates ([`FaultConfig`]);
//! * [`Protection`] — what the hardware does about it, from nothing at all
//!   to full recompute-and-compare, each with its own cycle charge.
//!
//! Error-detection codes are modelled *semantically* rather than at the
//! check-bit level: each entry remembers the payload it was inserted with
//! (the value its parity/ECC bits were computed over), and the number of
//! bit errors visible to the checker is the Hamming distance between the
//! stored payload as read and that reference. This reproduces exactly what
//! parity (odd error counts) and SEC-DED (single-correct, double-detect)
//! can and cannot see, without simulating the code words themselves.

use crate::config::TagPolicy;
use crate::key::decode_value;
use crate::op::{Op, Value};
use crate::rng::SplitMix64;
use crate::stats::MemoStats;

/// How a memo table protects its entries against soft errors.
///
/// Threaded through the finite tables via
/// [`MemoConfig`](crate::MemoConfig). The unbounded
/// [`InfiniteMemoTable`](crate::InfiniteMemoTable) is a hit-ratio bound
/// and stores its entries unprotected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// No protection: corrupted entries are served as-is (silent data
    /// corruption). The paper's implicit assumption.
    #[default]
    None,
    /// A parity bit per entry. Odd numbers of flipped bits are detected;
    /// the entry is invalidated and the hit downgraded to a miss (graceful
    /// degradation — the conventional unit recomputes). Even error counts
    /// escape detection. No extra cycles: the check overlaps the compare.
    ParityDetect,
    /// A SEC-DED code (single-error-correct, double-error-detect). Single
    /// flips are corrected in place and the hit survives; double flips
    /// invalidate the entry and downgrade to a miss. The correction network
    /// sits in the read path and costs one extra cycle per hit.
    EccSecDed,
    /// Every hit is verified by letting the conventional unit recompute and
    /// comparing. Detects *any* corruption (the mismatching entry is
    /// invalidated and the operation completes as a miss) but charges
    /// `verify_cycles` extra on every served hit.
    VerifyOnHit {
        /// Extra cycles added to each hit for the compare window.
        verify_cycles: u32,
    },
}

impl Protection {
    /// All policies, in increasing order of strength (the sweep order the
    /// experiments use). `VerifyOnHit` uses a representative 4-cycle charge.
    pub const ALL: [Protection; 4] = [
        Protection::None,
        Protection::ParityDetect,
        Protection::EccSecDed,
        Protection::VerifyOnHit { verify_cycles: 4 },
    ];

    /// Extra cycles this policy adds to every *served* hit.
    ///
    /// Parity overlaps the tag compare (0); the SEC-DED correction network
    /// adds a cycle; verification stalls for the compare window.
    #[must_use]
    pub fn hit_penalty(self) -> u32 {
        match self {
            Protection::None | Protection::ParityDetect => 0,
            Protection::EccSecDed => 1,
            Protection::VerifyOnHit { verify_cycles } => verify_cycles,
        }
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::ParityDetect => "parity",
            Protection::EccSecDed => "sec-ded",
            Protection::VerifyOnHit { .. } => "verify",
        }
    }
}

impl std::fmt::Display for Protection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Protection::VerifyOnHit { verify_cycles } => write!(f, "verify({verify_cycles})"),
            other => f.write_str(other.label()),
        }
    }
}

/// What a table must do to a matched entry after [`read_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repair {
    /// Leave the entry as stored.
    Keep,
    /// SEC-DED corrected a single flip: write the clean payload back.
    Rewrite,
    /// Corruption detected: invalidate the entry (the hit becomes a miss).
    Invalidate,
}

/// The protection ladder every per-unit table runs on a matched entry.
///
/// `read` is the payload as it comes out of the array (after any strike
/// or stuck-at defect), `clean` the payload the entry's check bits were
/// computed over. Returns the value to serve — `None` downgrades the hit
/// to a miss — and the repair the caller applies to its own storage. All
/// fault and bypass counters are charged to `stats` here.
#[inline]
pub(crate) fn read_checked(
    protection: Protection,
    op: &Op,
    read: u64,
    clean: u64,
    tag: TagPolicy,
    stats: &mut MemoStats,
) -> (Option<Value>, Repair) {
    // A payload the exponent path cannot rebuild for these operands
    // (mantissa mode only) falls back to the conventional unit.
    let decode = |stats: &mut MemoStats, bits: u64| {
        let value = decode_value(op, bits, tag);
        if value.is_none() {
            stats.bypasses += 1;
        }
        value
    };
    let errs = (read ^ clean).count_ones();
    if errs == 0 {
        return (decode(stats, read), Repair::Keep);
    }

    let truth = decode_value(op, clean, tag);
    let serve_corrupted = |stats: &mut MemoStats| {
        let seen = decode(stats, read);
        if seen.is_some() && seen != truth {
            stats.faults_silent += 1;
        }
        (seen, Repair::Keep)
    };
    let detected = |stats: &mut MemoStats| {
        stats.faults_detected += 1;
        (None, Repair::Invalidate)
    };

    match protection {
        Protection::None => serve_corrupted(stats),
        Protection::ParityDetect if errs % 2 == 1 => detected(stats),
        // An even error count escapes parity.
        Protection::ParityDetect => serve_corrupted(stats),
        Protection::EccSecDed => match errs {
            1 => {
                stats.faults_corrected += 1;
                (decode(stats, clean), Repair::Rewrite)
            }
            2 => detected(stats),
            // Three or more flips exceed SEC-DED's guarantee: treat as an
            // (undetected) miscorrection and serve the raw read.
            _ => serve_corrupted(stats),
        },
        Protection::VerifyOnHit { .. } => {
            // The conventional unit recomputes; any served mismatch is
            // caught. Corruption invisible in the decoded value (unused
            // stored bits) passes verification legitimately.
            let seen = decode_value(op, read, tag);
            if seen.is_some() && seen == truth {
                (seen, Repair::Keep)
            } else {
                detected(stats)
            }
        }
    }
}

/// Error-process rates for a [`FaultInjector`].
///
/// All rates are per *probe of a matching entry* (value flips, stuck-at
/// reads) or per *set probe* (tag flips), so the expected corruption count
/// scales with table traffic the way alpha-particle upsets scale with time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic error process.
    pub seed: u64,
    /// Probability that reading a matching entry's value suffers a new bit
    /// flip (persisted into the entry, as an SRAM upset would be).
    pub value_flip_rate: f64,
    /// Fraction of value flips that strike two bits at once (defeats
    /// parity, detected-not-corrected by SEC-DED).
    pub double_flip_fraction: f64,
    /// Probability per set probe that a random valid entry in the probed
    /// set has one tag bit flipped (the entry becomes unreachable — a
    /// false miss — until protection scrubs it).
    pub tag_flip_rate: f64,
    /// Probability that a given table slot has a manufacturing stuck-at
    /// defect on one value bit (a pure function of seed and slot index, so
    /// the defect map is stable for the table's lifetime).
    pub stuck_at_rate: f64,
}

impl FaultConfig {
    /// An error process that never fires (useful as a placeholder).
    #[must_use]
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            value_flip_rate: 0.0,
            double_flip_fraction: 0.0,
            tag_flip_rate: 0.0,
            stuck_at_rate: 0.0,
        }
    }

    /// Single-bit value flips only, at `rate` per matched probe — the
    /// canonical soft-error model.
    #[must_use]
    pub fn single_bit(seed: u64, rate: f64) -> Self {
        FaultConfig { value_flip_rate: rate, ..Self::disabled() }.with_seed(seed)
    }

    /// Replace the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the fraction of value strikes that flip two bits.
    #[must_use]
    pub fn with_double_fraction(mut self, fraction: f64) -> Self {
        self.double_flip_fraction = fraction;
        self
    }

    /// Set the per-probe tag-flip rate.
    #[must_use]
    pub fn with_tag_rate(mut self, rate: f64) -> Self {
        self.tag_flip_rate = rate;
        self
    }

    /// Set the per-slot stuck-at defect probability.
    #[must_use]
    pub fn with_stuck_rate(mut self, rate: f64) -> Self {
        self.stuck_at_rate = rate;
        self
    }

    /// `true` if no fault source can ever fire.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.value_flip_rate <= 0.0 && self.tag_flip_rate <= 0.0 && self.stuck_at_rate <= 0.0
    }
}

/// A single injected fault, as applied to a stored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XOR mask applied to an entry's stored value (one or two bits set).
    ValueFlip(u64),
    /// Bit position (0..128) flipped in an entry's packed tag.
    TagFlip(u32),
}

/// A deterministic soft-error process.
///
/// Attach one to a table with
/// [`MemoTable::with_fault_injector`](crate::MemoTable::with_fault_injector);
/// the table consults it on every probe. Two tables given injectors with
/// the same [`FaultConfig`] see identical error sequences.
///
/// # Examples
///
/// ```
/// use memo_table::{FaultConfig, FaultInjector};
///
/// let mut a = FaultInjector::new(FaultConfig::single_bit(7, 1.0));
/// let mut b = FaultInjector::new(FaultConfig::single_bit(7, 1.0));
/// assert_eq!(a.value_strike(), b.value_strike()); // deterministic
/// assert!(a.value_strike().is_some()); // rate 1.0: every probe strikes
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    cfg: FaultConfig,
    value_rng: SplitMix64,
    tag_rng: SplitMix64,
}

impl FaultInjector {
    /// Create the error process for `cfg`.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        let root = SplitMix64::new(cfg.seed);
        FaultInjector {
            cfg,
            value_rng: root.split("value-flips"),
            tag_rng: root.split("tag-flips"),
        }
    }

    /// The configured rates.
    #[must_use]
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Draw the value-flip process for one matched probe: `Some(mask)` with
    /// one or two bits set when a strike occurs.
    pub fn value_strike(&mut self) -> Option<u64> {
        if self.cfg.value_flip_rate <= 0.0 || self.value_rng.next_f64() >= self.cfg.value_flip_rate
        {
            return None;
        }
        let first = self.value_rng.next_below(64) as u32;
        let mut mask = 1u64 << first;
        if self.cfg.double_flip_fraction > 0.0
            && self.value_rng.next_f64() < self.cfg.double_flip_fraction
        {
            // Second, distinct bit.
            let second = (first + 1 + self.value_rng.next_below(63) as u32) % 64;
            mask |= 1u64 << second;
        }
        Some(mask)
    }

    /// Draw the tag-flip process for one set probe: `Some((way_draw, bit))`
    /// when a strike occurs. `way_draw` is a uniform u64 the caller reduces
    /// modulo the number of candidate entries; `bit` is the tag bit (0..128)
    /// to flip.
    pub fn tag_strike(&mut self) -> Option<(u64, u32)> {
        if self.cfg.tag_flip_rate <= 0.0 || self.tag_rng.next_f64() >= self.cfg.tag_flip_rate {
            return None;
        }
        let way = self.tag_rng.next_u64();
        let bit = self.tag_rng.next_below(128) as u32;
        Some((way, bit))
    }

    /// The stuck-at defect of table slot `slot`, if any: `(bit, level)`
    /// forces value bit `bit` to read as `level`. A pure function of the
    /// seed and the slot index — the defect map never changes.
    #[must_use]
    pub fn stuck_bit(&self, slot: usize) -> Option<(u32, bool)> {
        if self.cfg.stuck_at_rate <= 0.0 {
            return None;
        }
        let mut r = SplitMix64::new(self.cfg.seed)
            .split("stuck-at")
            .split(&format!("slot-{slot}"));
        if r.next_f64() >= self.cfg.stuck_at_rate {
            return None;
        }
        let bit = r.next_below(64) as u32;
        let level = r.next_u64() & 1 == 1;
        Some((bit, level))
    }

    /// Apply slot `slot`'s stuck-at defect (if any) to a value being read.
    #[must_use]
    pub fn apply_stuck(&self, slot: usize, value: u64) -> u64 {
        match self.stuck_bit(slot) {
            Some((bit, true)) => value | (1u64 << bit),
            Some((bit, false)) => value & !(1u64 << bit),
            None => value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_penalties() {
        assert_eq!(Protection::None.hit_penalty(), 0);
        assert_eq!(Protection::ParityDetect.hit_penalty(), 0);
        assert_eq!(Protection::EccSecDed.hit_penalty(), 1);
        assert_eq!(Protection::VerifyOnHit { verify_cycles: 7 }.hit_penalty(), 7);
    }

    #[test]
    fn protection_display() {
        assert_eq!(Protection::None.to_string(), "none");
        assert_eq!(Protection::VerifyOnHit { verify_cycles: 4 }.to_string(), "verify(4)");
    }

    #[test]
    fn disabled_config_never_strikes() {
        let mut inj = FaultInjector::new(FaultConfig::disabled());
        for _ in 0..1000 {
            assert_eq!(inj.value_strike(), None);
            assert_eq!(inj.tag_strike(), None);
        }
        assert_eq!(inj.stuck_bit(5), None);
        assert!(FaultConfig::disabled().is_disabled());
    }

    #[test]
    fn single_bit_strikes_have_one_bit() {
        let mut inj = FaultInjector::new(FaultConfig::single_bit(99, 1.0));
        for _ in 0..1000 {
            let mask = inj.value_strike().expect("rate 1.0 always strikes");
            assert_eq!(mask.count_ones(), 1);
        }
    }

    #[test]
    fn double_fraction_produces_two_bit_masks() {
        let cfg = FaultConfig::single_bit(3, 1.0).with_double_fraction(1.0);
        let mut inj = FaultInjector::new(cfg);
        for _ in 0..1000 {
            let mask = inj.value_strike().expect("always strikes");
            assert_eq!(mask.count_ones(), 2, "double fraction 1.0: always two bits");
        }
    }

    #[test]
    fn strike_rate_is_roughly_honoured() {
        let mut inj = FaultInjector::new(FaultConfig::single_bit(11, 0.1));
        let hits = (0..10_000).filter(|_| inj.value_strike().is_some()).count();
        assert!((800..1200).contains(&hits), "≈10% of probes should strike, got {hits}");
    }

    #[test]
    fn stuck_map_is_stable_and_seed_dependent() {
        let inj = FaultInjector::new(FaultConfig::disabled().with_seed(5).with_stuck_rate(0.5));
        for slot in 0..64 {
            assert_eq!(inj.stuck_bit(slot), inj.stuck_bit(slot), "defect map is pure");
        }
        let defects = (0..256).filter(|&s| inj.stuck_bit(s).is_some()).count();
        assert!((64..192).contains(&defects), "≈half the slots defective, got {defects}");
    }

    #[test]
    fn apply_stuck_forces_level() {
        let inj = FaultInjector::new(FaultConfig::disabled().with_seed(5).with_stuck_rate(1.0));
        let slot = 3;
        let (bit, level) = inj.stuck_bit(slot).expect("rate 1.0: defective");
        let v = inj.apply_stuck(slot, 0);
        let w = inj.apply_stuck(slot, u64::MAX);
        assert_eq!((v >> bit) & 1 == 1, level);
        assert_eq!((w >> bit) & 1 == 1, level);
    }

    #[test]
    fn injectors_with_same_seed_agree() {
        let cfg = FaultConfig::single_bit(42, 0.5).with_tag_rate(0.5);
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        for _ in 0..100 {
            assert_eq!(a.value_strike(), b.value_strike());
            assert_eq!(a.tag_strike(), b.tag_strike());
        }
    }
}
