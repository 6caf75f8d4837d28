//! Fault-injected tables derived from a clean one.
//!
//! Under one-bit value strikes on full-value tags, an unprotected, a
//! parity, a verify-on-hit and a SEC-DED table each make every decision
//! the clean table makes: the same hits on the same slots, the same fills
//! into the same slots, the same victims. A [`FaultShadow`] follows the
//! clean table's per-lane slot records
//! ([`MemoTable::execute_batch_with_truth`](crate::MemoTable::execute_batch_with_truth))
//! and keeps only what differs: the fault process and two payloads per
//! slot. It yields the fault counters and the served bits of all four
//! protected tables without simulating any of them.
//!
//! Why the decisions are the clean table's:
//!
//! * Every policy matches tags exactly where the clean table does, and the
//!   injector draws one value strike per tag match. So at one seed and
//!   rate every policy draws the same strike stream: one draw per clean
//!   hit.
//! * An unprotected table never invalidates: its payload is the clean
//!   payload XOR the strikes that landed since the slot was last filled.
//! * Parity sees a one-bit strike on the read it lands on, and
//!   verify-on-hit sees it too, since a full-value payload decodes to its
//!   own bits and [`Value`](crate::Value) compares bits. Either one
//!   invalidates the entry and misses, then refills the slot with this
//!   operation's true result. The refill lands in the same slot: the
//!   clean table never invalidates, so its sets fill as prefixes, and the
//!   hole is the lowest invalid way. Its stamp is the newest, as the clean
//!   hit's LRU touch is, so valid bits and LRU order stay the clean
//!   table's, and random replacement draws no victim for it.
//! * SEC-DED corrects each strike on the read it lands on and serves the
//!   clean payload: it is the clean table, plus one correction per strike.
//!
//! The refilled payload is the result of the operand order that struck,
//! which for two NaN operands of a multiplication can differ from the
//! order the clean table stored. So the shadow keeps each slot's payload
//! bits, never an operand order to recompute from.

use std::fmt;

use crate::config::{HashScheme, MemoConfig, Replacement, TagPolicy};
use crate::fault::{FaultConfig, FaultInjector, Protection};
use crate::stats::MemoStats;
use crate::table::LaneSlot;

/// A configuration the derivation does not cover, named by the premise
/// it breaks. [`FaultShadow::new`] refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowError {
    /// FIFO replacement: a refill restamps the slot's insertion time, so
    /// the victim order leaves the clean table's.
    Fifo,
    /// FoldMix hashing with commutative probing: the two operand orders
    /// hash to different sets, so a refill in the other order lands in
    /// another set.
    SplitOrders,
    /// Mantissa-only tags: a payload is decoded per operation, and the
    /// per-lane path these tables take records no slots.
    MantissaTags,
    /// Two-bit strikes: parity does not see them, and SEC-DED invalidates
    /// instead of correcting.
    DoubleFlips,
    /// Tag strikes: a struck tag misses where the clean table hits.
    TagStrikes,
    /// Stuck-at cells: a defective slot corrupts reads with no strike.
    StuckAt,
}

impl fmt::Display for ShadowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShadowError::Fifo => "FIFO replacement restamps a refilled slot",
            ShadowError::SplitOrders => {
                "FoldMix with commutative probing hashes the two operand orders apart"
            }
            ShadowError::MantissaTags => "mantissa-only tags decode payloads per operation",
            ShadowError::DoubleFlips => "two-bit strikes escape parity and defeat SEC-DED",
            ShadowError::TagStrikes => "tag strikes turn clean hits into misses",
            ShadowError::StuckAt => "stuck-at cells corrupt reads without a strike",
        })
    }
}

impl std::error::Error for ShadowError {}

/// What a [`FaultShadow`] has counted so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowCounts {
    /// Value strikes that landed: every policy's `faults_injected`, the
    /// parity and verify tables' `faults_detected` and the SEC-DED table's
    /// `faults_corrected`.
    pub strikes: u64,
    /// Unprotected hits whose payload differed from the clean table's:
    /// the unprotected table's `faults_silent`.
    pub silent: u64,
    /// Lanes the unprotected table served other bits than the truth.
    pub unprotected_corrupted: u64,
    /// Lanes the parity and verify tables served other bits than the
    /// truth.
    pub detecting_corrupted: u64,
    /// Lanes the clean table, and so the SEC-DED table, served other bits
    /// than the truth.
    pub clean_corrupted: u64,
}

impl ShadowCounts {
    /// The statistics of the table under `protection`, struck by the
    /// shadow's fault process, from the clean table's statistics `clean`.
    /// Every field is exact but `commutative_hits`, which is the clean
    /// table's: a refill in the other operand order changes which probe
    /// later hits, and the shadow does not track operand orders.
    #[must_use]
    pub fn stats(&self, protection: Protection, clean: MemoStats) -> MemoStats {
        let mut stats = MemoStats { faults_injected: self.strikes, ..clean };
        match protection {
            Protection::None => stats.faults_silent = self.silent,
            Protection::ParityDetect | Protection::VerifyOnHit { .. } => {
                stats.table_hits -= self.strikes;
                stats.insertions += self.strikes;
                stats.faults_detected = self.strikes;
            }
            Protection::EccSecDed => stats.faults_corrected = self.strikes,
        }
        stats
    }

    /// Lanes the table under `protection` served other bits than the
    /// truth.
    #[must_use]
    pub fn corrupted(&self, protection: Protection) -> u64 {
        match protection {
            Protection::None => self.unprotected_corrupted,
            Protection::ParityDetect | Protection::VerifyOnHit { .. } => self.detecting_corrupted,
            Protection::EccSecDed => self.clean_corrupted,
        }
    }
}

/// The unprotected, parity, verify-on-hit and SEC-DED copies of one clean
/// table under one fault process, derived from the clean table's lane
/// records (see the [module docs](self)). [`ShadowCounts::stats`] gives
/// each copy's statistics: every table keeps the clean lookups and
/// evictions; the unprotected and SEC-DED tables keep the clean hits too;
/// parity and verify-on-hit trade one hit for one insertion per strike.
/// The SEC-DED table serves the clean table's bits.
#[derive(Debug, Clone)]
pub struct FaultShadow {
    injector: FaultInjector,
    /// Per slot, the payload the unprotected table stores.
    unprotected: Vec<u64>,
    /// Per slot, the payload the parity and verify tables store.
    detecting: Vec<u64>,
    counts: ShadowCounts,
}

impl FaultShadow {
    /// A shadow of tables configured as `cfg` under the fault process
    /// `faults`, seeded as a table's injector would be.
    ///
    /// # Errors
    ///
    /// Refuses, naming the premise, every configuration the derivation
    /// does not cover: FIFO replacement, FoldMix with commutative
    /// probing, mantissa-only tags, double flips, tag strikes and stuck-at
    /// cells.
    pub fn new(cfg: &MemoConfig, faults: FaultConfig) -> Result<Self, ShadowError> {
        if cfg.replacement() == Replacement::Fifo {
            return Err(ShadowError::Fifo);
        }
        if cfg.hash() == HashScheme::FoldMix && cfg.commutative() {
            return Err(ShadowError::SplitOrders);
        }
        if cfg.tag() != TagPolicy::FullValue {
            return Err(ShadowError::MantissaTags);
        }
        if faults.double_flip_fraction > 0.0 {
            return Err(ShadowError::DoubleFlips);
        }
        if faults.tag_flip_rate > 0.0 {
            return Err(ShadowError::TagStrikes);
        }
        if faults.stuck_at_rate > 0.0 {
            return Err(ShadowError::StuckAt);
        }
        Ok(FaultShadow {
            injector: FaultInjector::new(faults),
            unprotected: vec![0; cfg.entries()],
            detecting: vec![0; cfg.entries()],
            counts: ShadowCounts::default(),
        })
    }

    /// Follow one batch of the clean table. `slots`, `truth` and `clean`
    /// are that batch's lane records, true results and served bits from
    /// [`MemoTable::execute_batch_with_truth`](crate::MemoTable::execute_batch_with_truth)
    /// on a fault-free table configured as this shadow. Lane `i`'s bits as
    /// the unprotected table serves them land in `unprotected[i]`, and as
    /// the parity and verify tables serve them in `detecting[i]`.
    ///
    /// # Panics
    ///
    /// Panics if a slice does not have one element per lane, or if a
    /// record names a slot the configuration does not have.
    pub fn follow(
        &mut self,
        slots: &[LaneSlot],
        truth: &[u64],
        clean: &[u64],
        unprotected: &mut [u64],
        detecting: &mut [u64],
    ) {
        let n = slots.len();
        assert!(
            truth.len() == n && clean.len() == n && unprotected.len() == n && detecting.len() == n,
            "one element per lane"
        );
        let mut counts = self.counts;
        for (i, &record) in slots.iter().enumerate() {
            let t = truth[i];
            let (u, d) = match record {
                LaneSlot::NoLookup => (t, t),
                LaneSlot::Filled(s) => {
                    self.unprotected[s] = t;
                    self.detecting[s] = t;
                    (t, t)
                }
                LaneSlot::Hit(s) => {
                    // A strike lands before the read: the unprotected table
                    // keeps it, the detecting tables catch it and refill.
                    let d = match self.injector.value_strike() {
                        Some(mask) => {
                            counts.strikes += 1;
                            self.unprotected[s] ^= mask;
                            self.detecting[s] = t;
                            t
                        }
                        None => self.detecting[s],
                    };
                    let u = self.unprotected[s];
                    counts.silent += u64::from(u != clean[i]);
                    (u, d)
                }
            };
            unprotected[i] = u;
            detecting[i] = d;
            counts.unprotected_corrupted += u64::from(u != t);
            counts.detecting_corrupted += u64::from(d != t);
            counts.clean_corrupted += u64::from(clean[i] != t);
        }
        self.counts = counts;
    }

    /// What the shadow has counted since it was built.
    #[must_use]
    pub fn counts(&self) -> ShadowCounts {
        self.counts
    }
}
