//! The "infinitely large, fully associative" reference table (§3.1).
//!
//! The paper compares every finite configuration against an unbounded
//! table to separate *capacity/conflict* misses from genuinely cold
//! computations. [`InfiniteMemoTable`] is that upper bound: a hash map
//! keyed exactly like a [`crate::MemoTable`] (same tag policy, same
//! trivial policy, same commutative probing) but never evicting.

use std::collections::HashMap;

use crate::config::{TagPolicy, TrivialPolicy};
use crate::fault::{read_checked, FaultInjector, Protection, Repair};
use crate::key::{encode_tag, encode_value, Key, KeyHashBuilder};
use crate::op::{Op, Value};
use crate::stats::MemoStats;
use crate::table::Probe;
use crate::trivial::trivial_result;
use crate::Memoizer;

#[derive(Debug, Clone, Copy)]
struct Stored {
    /// The payload as stored — may drift from `clean` under value faults.
    value: u64,
    /// The payload at insert time (the checker's reference).
    clean: u64,
}

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
    protection: Protection,
    // Keys are fixed-size, non-adversarial values: the multiply–xorshift
    // KeyHasher replaces SipHash on this hot map (get/insert/remove only —
    // nothing observes iteration order).
    entries: HashMap<Key, Stored, KeyHashBuilder>,
    stats: MemoStats,
    injector: Option<FaultInjector>,
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
            protection: Protection::None,
            entries: HashMap::default(),
            stats: MemoStats::new(),
            injector: None,
        }
    }

    /// Set the soft-error protection policy (default: none).
    #[must_use]
    pub fn with_protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// The protection policy in force.
    #[must_use]
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// Attach a soft-error process striking stored values on each probe.
    ///
    /// Only value flips apply: the unbounded reference table has neither
    /// fixed slots (no stuck-at defect map) nor hardware tags to corrupt.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Attach or detach the soft-error process in place.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
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
        if !self.entries.contains_key(&key) {
            return None;
        }
        // New soft errors strike the cell itself: persist them.
        if let Some(injector) = &mut self.injector {
            if let Some(mask) = injector.value_strike() {
                let entry = self.entries.get_mut(&key).expect("checked above");
                entry.value ^= mask;
                self.stats.faults_injected += 1;
            }
        }
        let Stored { value: read, clean } = *self.entries.get(&key).expect("checked above");

        let (value, repair) =
            read_checked(self.protection, op, read, clean, self.tag, &mut self.stats);
        match repair {
            Repair::Keep => {}
            Repair::Rewrite => self.entries.get_mut(&key).expect("checked above").value = clean,
            Repair::Invalidate => {
                self.entries.remove(&key);
            }
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
        if self.entries.insert(key, Stored { value, clean: value }).is_none() {
            self.stats.insertions += 1;
        }
    }

    fn stats(&self) -> MemoStats {
        self.stats
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.stats = MemoStats::new();
        self.injector = self.injector.as_ref().map(|i| FaultInjector::new(i.config()));
    }

    fn hit_penalty(&self) -> u32 {
        self.protection.hit_penalty()
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
