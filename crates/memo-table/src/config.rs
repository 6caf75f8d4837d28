//! Configuration of a MEMO-TABLE's geometry and policies.

use crate::fault::Protection;
use std::fmt;

/// Set associativity of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Assoc {
    /// One way per set — every value competes for exactly one entry.
    DirectMapped,
    /// `n` ways per set; `n` must divide the entry count.
    Ways(usize),
    /// A single set containing every entry.
    Full,
}

impl Assoc {
    /// The number of ways given the total entry count.
    #[must_use]
    pub fn ways(self, entries: usize) -> usize {
        match self {
            Assoc::DirectMapped => 1,
            Assoc::Ways(n) => n,
            Assoc::Full => entries,
        }
    }

    /// Parse the textual forms used by query strings and CLI flags:
    /// `"direct"` or `"1"` is direct-mapped, `"full"` is fully
    /// associative, and a bare integer `n > 1` is `n`-way.
    #[must_use]
    pub fn parse(s: &str) -> Option<Assoc> {
        match s {
            "direct" | "1" => Some(Assoc::DirectMapped),
            "full" => Some(Assoc::Full),
            _ => match s.parse::<usize>() {
                Ok(n) if n > 1 => Some(Assoc::Ways(n)),
                _ => None,
            },
        }
    }

    /// Stable short form, the inverse of [`Assoc::parse`]: `direct`,
    /// `full`, or the way count.
    #[must_use]
    pub fn canonical(self) -> String {
        match self {
            Assoc::DirectMapped => "direct".to_string(),
            Assoc::Ways(n) => n.to_string(),
            Assoc::Full => "full".to_string(),
        }
    }
}

impl fmt::Display for Assoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Assoc::DirectMapped => write!(f, "direct-mapped"),
            Assoc::Ways(n) => write!(f, "{n}-way"),
            Assoc::Full => write!(f, "fully-associative"),
        }
    }
}

/// What the tag of each entry stores (§2.1, Table 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TagPolicy {
    /// The full bit patterns of both operands (2 × 64 bits). Simple, and
    /// handles every input including NaN, infinities and subnormals.
    #[default]
    FullValue,
    /// Only the 52-bit mantissas of floating-point operands (the sign and
    /// exponent path is computed by dedicated logic). Raises the hit ratio
    /// slightly — operand pairs that differ only in exponent share an entry
    /// — at the cost of an exponent adder and normalization logic.
    ///
    /// Integer operations always use full tags; non-normal floating-point
    /// operands bypass the table (they would take the slow path in the
    /// proposed hardware too).
    MantissaOnly,
}

/// How trivial operations interact with the table (§3.2, Table 9).
///
/// Trivial operations (×0, ×1, 0÷x, x÷1, √0, √1) complete in a few cycles
/// on a conventional unit anyhow, so the paper studies three designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrivialPolicy {
    /// Trivial operations are looked up and inserted like all others
    /// (column "all" of Table 9).
    Memoize,
    /// Trivial operations never reach the table: the hit ratio is measured
    /// over non-trivial operations only (column "non"). This is the paper's
    /// default for every experiment outside Table 9.
    #[default]
    Exclude,
    /// A detector in front of the table recognises trivial operations and
    /// forwards their result immediately; they count as hits but do not
    /// occupy entries (column "intgr" — the best of both).
    Integrate,
}

/// Replacement policy within a set.
///
/// The paper only says "cache-like"; LRU is the natural reading for a
/// 4-way table and is the default. FIFO and random are provided for
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Evict the least-recently *used* entry.
    #[default]
    Lru,
    /// Evict the oldest *inserted* entry.
    Fifo,
    /// Evict a pseudo-random entry (xorshift; deterministic per table).
    Random,
}

/// The function mapping operands to a set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashScheme {
    /// The paper's scheme (§3.1): XOR of the *n* least-significant bits of
    /// integer operands; XOR of the *n* most-significant mantissa bits of
    /// floating-point operands.
    #[default]
    PaperXor,
    /// A multiply-fold mixing hash over the full operand bits. Used to
    /// ablate how much of the conflict-miss behaviour (Figure 4's
    /// direct-mapped pathology) is due to the weak paper hash.
    FoldMix,
}

/// Errors produced when validating a [`MemoConfigBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoConfigError {
    /// The entry count must be a non-zero power of two.
    EntriesNotPowerOfTwo(usize),
    /// The way count must be non-zero and divide the entry count.
    BadAssociativity {
        /// Total entries requested.
        entries: usize,
        /// Ways requested.
        ways: usize,
    },
}

impl fmt::Display for MemoConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoConfigError::EntriesNotPowerOfTwo(n) => {
                write!(f, "entry count {n} is not a non-zero power of two")
            }
            MemoConfigError::BadAssociativity { entries, ways } => {
                write!(f, "{ways} ways do not evenly divide {entries} entries")
            }
        }
    }
}

impl std::error::Error for MemoConfigError {}

/// A validated MEMO-TABLE configuration.
///
/// Construct via [`MemoConfig::builder`] or one of the presets
/// ([`MemoConfig::paper_default`]; the "infinite" reference configuration uses
/// [`crate::InfiniteMemoTable`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoConfig {
    entries: usize,
    assoc: Assoc,
    tag: TagPolicy,
    trivial: TrivialPolicy,
    replacement: Replacement,
    hash: HashScheme,
    commutative: bool,
    protection: Protection,
}

impl MemoConfig {
    /// Start building a configuration with `entries` total entries.
    #[must_use]
    pub fn builder(entries: usize) -> MemoConfigBuilder {
        MemoConfigBuilder {
            entries,
            assoc: Assoc::Ways(4),
            tag: TagPolicy::default(),
            trivial: TrivialPolicy::default(),
            replacement: Replacement::default(),
            hash: HashScheme::default(),
            commutative: true,
            protection: Protection::default(),
        }
    }

    /// The paper's basic configuration (§3.2): 32 entries in 8 sets of 4,
    /// full-value tags, trivial operations excluded, commutative probing.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::builder(32).build().expect("paper default is valid")
    }

    /// Total number of entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Associativity.
    #[must_use]
    pub fn assoc(&self) -> Assoc {
        self.assoc
    }

    /// Number of sets (`entries / ways`).
    #[must_use]
    pub fn sets(&self) -> usize {
        self.entries / self.assoc.ways(self.entries)
    }

    /// Number of ways per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.assoc.ways(self.entries)
    }

    /// Tag policy.
    #[must_use]
    pub fn tag(&self) -> TagPolicy {
        self.tag
    }

    /// Trivial-operation policy.
    #[must_use]
    pub fn trivial(&self) -> TrivialPolicy {
        self.trivial
    }

    /// Replacement policy.
    #[must_use]
    pub fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// Index hash scheme.
    #[must_use]
    pub fn hash(&self) -> HashScheme {
        self.hash
    }

    /// Whether commutative operations probe both operand orders.
    #[must_use]
    pub fn commutative(&self) -> bool {
        self.commutative
    }

    /// Soft-error protection policy for stored entries.
    #[must_use]
    pub fn protection(&self) -> Protection {
        self.protection
    }
}

impl Default for MemoConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for MemoConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} entries, {}", self.entries, self.assoc)
    }
}

/// Builder for [`MemoConfig`]; see [`MemoConfig::builder`].
#[derive(Debug, Clone)]
pub struct MemoConfigBuilder {
    entries: usize,
    assoc: Assoc,
    tag: TagPolicy,
    trivial: TrivialPolicy,
    replacement: Replacement,
    hash: HashScheme,
    commutative: bool,
    protection: Protection,
}

impl MemoConfigBuilder {
    /// Set the associativity (default: 4-way).
    #[must_use]
    pub fn assoc(mut self, assoc: Assoc) -> Self {
        self.assoc = assoc;
        self
    }

    /// Set the tag policy (default: full value).
    #[must_use]
    pub fn tag(mut self, tag: TagPolicy) -> Self {
        self.tag = tag;
        self
    }

    /// Set the trivial-operation policy (default: exclude).
    #[must_use]
    pub fn trivial(mut self, trivial: TrivialPolicy) -> Self {
        self.trivial = trivial;
        self
    }

    /// Set the replacement policy (default: LRU).
    #[must_use]
    pub fn replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// Set the index hash scheme (default: the paper's XOR).
    #[must_use]
    pub fn hash(mut self, hash: HashScheme) -> Self {
        self.hash = hash;
        self
    }

    /// Enable or disable dual-order probing of commutative operations
    /// (default: enabled, per §2.2).
    #[must_use]
    pub fn commutative(mut self, commutative: bool) -> Self {
        self.commutative = commutative;
        self
    }

    /// Set the soft-error protection policy (default: none, the paper's
    /// implicit assumption).
    #[must_use]
    pub fn protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemoConfigError`] if the entry count is not a non-zero
    /// power of two, or the way count does not evenly divide it.
    pub fn build(self) -> Result<MemoConfig, MemoConfigError> {
        if self.entries == 0 || !self.entries.is_power_of_two() {
            return Err(MemoConfigError::EntriesNotPowerOfTwo(self.entries));
        }
        let ways = self.assoc.ways(self.entries);
        if ways == 0 || !self.entries.is_multiple_of(ways) || !(self.entries / ways).is_power_of_two() {
            return Err(MemoConfigError::BadAssociativity { entries: self.entries, ways });
        }
        Ok(MemoConfig {
            entries: self.entries,
            assoc: self.assoc,
            tag: self.tag,
            trivial: self.trivial,
            replacement: self.replacement,
            hash: self.hash,
            commutative: self.commutative,
            protection: self.protection,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        let cfg = MemoConfig::paper_default();
        assert_eq!(cfg.entries(), 32);
        assert_eq!(cfg.ways(), 4);
        assert_eq!(cfg.sets(), 8);
        assert_eq!(cfg.tag(), TagPolicy::FullValue);
        assert_eq!(cfg.trivial(), TrivialPolicy::Exclude);
        assert!(cfg.commutative());
        assert_eq!(cfg.protection(), Protection::None);
    }

    #[test]
    fn protection_is_configurable() {
        let cfg = MemoConfig::builder(32).protection(Protection::EccSecDed).build().unwrap();
        assert_eq!(cfg.protection(), Protection::EccSecDed);
    }

    #[test]
    fn rejects_non_power_of_two_entries() {
        assert_eq!(
            MemoConfig::builder(24).build().unwrap_err(),
            MemoConfigError::EntriesNotPowerOfTwo(24)
        );
        assert_eq!(
            MemoConfig::builder(0).build().unwrap_err(),
            MemoConfigError::EntriesNotPowerOfTwo(0)
        );
    }

    #[test]
    fn rejects_bad_associativity() {
        let err = MemoConfig::builder(32).assoc(Assoc::Ways(3)).build().unwrap_err();
        assert_eq!(err, MemoConfigError::BadAssociativity { entries: 32, ways: 3 });
        // 32 / 6 isn't integral.
        assert!(MemoConfig::builder(32).assoc(Assoc::Ways(6)).build().is_err());
    }

    #[test]
    fn assoc_parse_inverts_canonical() {
        for assoc in [Assoc::DirectMapped, Assoc::Ways(4), Assoc::Full] {
            assert_eq!(Assoc::parse(&assoc.canonical()), Some(assoc));
        }
        assert_eq!(Assoc::parse("1"), Some(Assoc::DirectMapped));
        assert_eq!(Assoc::parse("0"), None);
        assert_eq!(Assoc::parse("sideways"), None);
    }

    #[test]
    fn full_associativity_is_one_set() {
        let cfg = MemoConfig::builder(64).assoc(Assoc::Full).build().unwrap();
        assert_eq!(cfg.sets(), 1);
        assert_eq!(cfg.ways(), 64);
    }

    #[test]
    fn direct_mapped_is_one_way() {
        let cfg = MemoConfig::builder(32).assoc(Assoc::DirectMapped).build().unwrap();
        assert_eq!(cfg.sets(), 32);
        assert_eq!(cfg.ways(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MemoConfig::paper_default().to_string(), "32 entries, 4-way");
        assert_eq!(Assoc::DirectMapped.to_string(), "direct-mapped");
        assert_eq!(Assoc::Full.to_string(), "fully-associative");
    }

    #[test]
    fn error_display() {
        let e = MemoConfigError::EntriesNotPowerOfTwo(7);
        assert!(e.to_string().contains("7"));
        let e = MemoConfigError::BadAssociativity { entries: 32, ways: 5 };
        assert!(e.to_string().contains("32") && e.to_string().contains("5"));
    }
}
