//! The "infinitely large, fully associative" reference table (§3.1).
//!
//! The paper compares every finite configuration against an unbounded
//! table to separate *capacity/conflict* misses from genuinely cold
//! computations. [`InfiniteMemoTable`] is that upper bound: a hash map
//! keyed exactly like a [`crate::MemoTable`] (same tag policy, same
//! trivial policy, same commutative probing) but never evicting.

use std::collections::HashMap;

use crate::config::{TagPolicy, TrivialPolicy};
use crate::key::{decode_value, encode_tag, encode_value, Key, KeyHashBuilder};
use crate::op::{Op, Value};
use crate::stats::MemoStats;
use crate::table::Probe;
use crate::trivial::trivial_result;
use crate::Memoizer;

/// An unbounded memo table: the hit-ratio upper bound for a tag/trivial
/// policy pair.
///
/// # Examples
///
/// ```
/// use memo_table::{InfiniteMemoTable, Memoizer, Op, Outcome};
///
/// let mut inf = InfiniteMemoTable::new();
/// for i in 0..10_000 {
///     inf.execute(Op::FpDiv(f64::from(i), 3.0));
/// }
/// // Nothing repeated yet…
/// assert_eq!(inf.stats().table_hits, 0);
/// // …but *everything* ever seen is retained.
/// assert_eq!(inf.execute(Op::FpDiv(0.0 + 2.0, 3.0)).outcome, Outcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct InfiniteMemoTable {
    tag: TagPolicy,
    trivial: TrivialPolicy,
    commutative: bool,
    // Keys are fixed-size, non-adversarial values: the multiply–xorshift
    // KeyHasher replaces SipHash on this hot map (get/insert only —
    // nothing observes iteration order).
    entries: HashMap<Key, u64, KeyHashBuilder>,
    stats: MemoStats,
}

impl InfiniteMemoTable {
    /// Paper-default policies: full-value tags, trivial operations
    /// excluded, commutative probing enabled.
    #[must_use]
    pub fn new() -> Self {
        Self::with_policies(TagPolicy::FullValue, TrivialPolicy::Exclude, true)
    }

    /// Choose the tag policy, trivial policy, and commutative probing.
    #[must_use]
    pub fn with_policies(tag: TagPolicy, trivial: TrivialPolicy, commutative: bool) -> Self {
        InfiniteMemoTable {
            tag,
            trivial,
            commutative,
            entries: HashMap::default(),
            stats: MemoStats::new(),
        }
    }

    /// Number of distinct operand pairs retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit ratio under this table's trivial policy.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio(self.trivial)
    }

    fn probe_order(&mut self, op: &Op) -> Option<Value> {
        let key = encode_tag(op, self.tag)?;
        let &stored = self.entries.get(&key)?;
        // A payload the exponent path cannot rebuild for these operands
        // (mantissa mode only) falls back to the conventional unit.
        let value = decode_value(op, stored, self.tag);
        if value.is_none() {
            self.stats.bypasses += 1;
        }
        value
    }
}

impl Default for InfiniteMemoTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Memoizer for InfiniteMemoTable {
    fn probe(&mut self, op: Op) -> Probe {
        self.stats.ops_seen += 1;

        if let Some((_, value)) = trivial_result(&op) {
            self.stats.trivial_seen += 1;
            match self.trivial {
                TrivialPolicy::Exclude => return Probe::Filtered,
                TrivialPolicy::Integrate => return Probe::Trivial(value),
                TrivialPolicy::Memoize => {}
            }
        }

        self.stats.table_lookups += 1;

        if encode_tag(&op, self.tag).is_none() {
            self.stats.bypasses += 1;
            return Probe::Miss;
        }

        if let Some(v) = self.probe_order(&op) {
            self.stats.table_hits += 1;
            return Probe::Hit(v);
        }
        if self.commutative {
            if let Some(swapped) = op.swapped() {
                if let Some(v) = self.probe_order(&swapped) {
                    self.stats.table_hits += 1;
                    self.stats.commutative_hits += 1;
                    return Probe::Hit(v);
                }
            }
        }
        Probe::Miss
    }

    fn update(&mut self, op: Op, result: Value) {
        debug_assert_eq!(result, op.compute(), "update must receive the true result");
        if trivial_result(&op).is_some() && self.trivial != TrivialPolicy::Memoize {
            return;
        }
        let Some(key) = encode_tag(&op, self.tag) else { return };
        let Some(value) = encode_value(&op, result, self.tag) else {
            self.stats.bypasses += 1;
            return;
        };
        if self.entries.insert(key, value).is_none() {
            self.stats.insertions += 1;
        }
    }

    fn stats(&self) -> MemoStats {
        self.stats
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.stats = MemoStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Outcome;
    use crate::{MemoConfig, MemoTable};

    #[test]
    fn never_evicts() {
        let mut inf = InfiniteMemoTable::new();
        for i in 0..100_000u32 {
            inf.execute(Op::FpMul(f64::from(i) + 1.5, 3.7));
        }
        assert_eq!(inf.len(), 100_000);
        for i in (0..100_000u32).step_by(9973) {
            assert_eq!(
                inf.execute(Op::FpMul(f64::from(i) + 1.5, 3.7)).outcome,
                Outcome::Hit,
                "entry {i} must be retained"
            );
        }
    }

    #[test]
    fn dominates_finite_table() {
        // On any stream, the infinite table's hit count must be >= a finite
        // table's (same policies) — here checked on a looping stream.
        let mut inf = InfiniteMemoTable::new();
        let mut fin = MemoTable::new(MemoConfig::paper_default());
        for round in 0..4 {
            for i in 0..200 {
                let op = Op::FpDiv(f64::from(i) + 2.0, 3.0 + f64::from(round % 2));
                inf.execute(op);
                fin.execute(op);
            }
        }
        assert!(inf.stats().table_hits >= fin.stats().table_hits);
        assert!(inf.stats().table_hits > 0);
    }

    #[test]
    fn commutative_probe_applies() {
        let mut inf = InfiniteMemoTable::new();
        inf.execute(Op::IntMul(3, 9));
        assert_eq!(inf.execute(Op::IntMul(9, 3)).outcome, Outcome::Hit);
        assert_eq!(inf.stats().commutative_hits, 1);
    }

    #[test]
    fn trivial_policy_respected() {
        let mut inf = InfiniteMemoTable::with_policies(
            TagPolicy::FullValue,
            TrivialPolicy::Integrate,
            true,
        );
        assert_eq!(inf.execute(Op::FpMul(1.0, 5.0)).outcome, Outcome::Trivial);
        assert!(inf.is_empty());
    }

    #[test]
    fn mantissa_mode_works_unbounded() {
        let mut inf =
            InfiniteMemoTable::with_policies(TagPolicy::MantissaOnly, TrivialPolicy::Exclude, true);
        inf.execute(Op::FpDiv(1.7, 1.3));
        let op = Op::FpDiv(1.7 * 256.0, 1.3 * 0.5);
        let e = inf.execute(op);
        assert_eq!(e.outcome, Outcome::Hit);
        assert_eq!(e.value, op.compute());
    }

    #[test]
    fn reset_clears() {
        let mut inf = InfiniteMemoTable::new();
        inf.execute(Op::FpDiv(9.0, 2.0));
        inf.reset();
        assert!(inf.is_empty());
        assert_eq!(inf.stats().ops_seen, 0);
    }
}
